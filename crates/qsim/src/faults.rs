//! Deterministic fault injection for the discrete-event simulator.
//!
//! A [`FaultSchedule`] is a time-ordered list of [`FaultEvent`]s applied
//! by the simulator at exact simulated times: device crashes and
//! recoveries, transient service-rate degradations, and arrival-rate
//! bursts. The schedule is pure data — building or applying it consumes
//! no randomness from the simulation RNG, so a run with an *empty*
//! schedule is bit-identical to a run without the fault machinery, and
//! two runs with the same seed and the same schedule are bit-identical
//! to each other.
//!
//! Crash semantics extend the paper's loss model (Section II): every job
//! queued or in service on a crashed device is counted as a lost chain
//! request, exactly as a finite-buffer drop is; while a device is down,
//! every job offered to it is dropped. Recovery brings the device back
//! empty.
//!
//! # Examples
//!
//! ```
//! use chainnet_qsim::faults::FaultSchedule;
//!
//! let schedule = FaultSchedule::new()
//!     .crash(100.0, 0)
//!     .recover(150.0, 0)
//!     .degrade(200.0, 1, 0.5)
//!     .restore(300.0, 1);
//! assert_eq!(schedule.len(), 4);
//! ```

use crate::error::{QsimError, Result};
use crate::model::{ChainIdx, DeviceIdx, SystemModel};
use serde::{Deserialize, Serialize};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultKind {
    /// The device fails: all resident jobs are lost and subsequent
    /// offers are dropped until it recovers.
    DeviceCrash {
        /// The failing device.
        device: DeviceIdx,
    },
    /// The device comes back up, empty.
    DeviceRecover {
        /// The recovering device.
        device: DeviceIdx,
    },
    /// The device's effective service rate is multiplied by `factor`
    /// (`0 < factor`; values below 1 slow it down). Applies to services
    /// started after the event.
    ServiceDegrade {
        /// The affected device.
        device: DeviceIdx,
        /// Multiplier on the service rate.
        factor: f64,
    },
    /// The device's service rate returns to nominal.
    ServiceRestore {
        /// The affected device.
        device: DeviceIdx,
    },
    /// The chain's arrival rate is multiplied by `factor` (`factor > 0`;
    /// values above 1 are a burst). Applies to interarrival samples
    /// drawn after the event.
    ArrivalBurst {
        /// The affected chain.
        chain: ChainIdx,
        /// Multiplier on the arrival rate.
        factor: f64,
    },
    /// The chain's arrival rate returns to nominal.
    ArrivalCalm {
        /// The affected chain.
        chain: ChainIdx,
    },
}

/// A fault applied at an exact simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulated time at which the fault takes effect.
    pub time: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-ordered, deterministic schedule of injected faults.
///
/// The builder methods keep the list sorted by time (stable for equal
/// times, so the injection order of simultaneous faults is the order
/// they were added).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Add a fault at `time` (builder-style; keeps the list sorted).
    #[must_use]
    pub fn at(mut self, time: f64, kind: FaultKind) -> Self {
        let pos = self.events.partition_point(|e| e.time <= time);
        self.events.insert(pos, FaultEvent { time, kind });
        self
    }

    /// Crash `device` at `time`.
    #[must_use]
    pub fn crash(self, time: f64, device: DeviceIdx) -> Self {
        self.at(time, FaultKind::DeviceCrash { device })
    }

    /// Recover `device` at `time`.
    #[must_use]
    pub fn recover(self, time: f64, device: DeviceIdx) -> Self {
        self.at(time, FaultKind::DeviceRecover { device })
    }

    /// Multiply `device`'s service rate by `factor` from `time` on.
    #[must_use]
    pub fn degrade(self, time: f64, device: DeviceIdx, factor: f64) -> Self {
        self.at(time, FaultKind::ServiceDegrade { device, factor })
    }

    /// Restore `device`'s nominal service rate at `time`.
    #[must_use]
    pub fn restore(self, time: f64, device: DeviceIdx) -> Self {
        self.at(time, FaultKind::ServiceRestore { device })
    }

    /// Multiply `chain`'s arrival rate by `factor` from `time` on.
    #[must_use]
    pub fn burst(self, time: f64, chain: ChainIdx, factor: f64) -> Self {
        self.at(time, FaultKind::ArrivalBurst { chain, factor })
    }

    /// Restore `chain`'s nominal arrival rate at `time`.
    #[must_use]
    pub fn calm(self, time: f64, chain: ChainIdx) -> Self {
        self.at(time, FaultKind::ArrivalCalm { chain })
    }

    /// Normalize the schedule against a simulation `horizon`,
    /// deterministically: the result depends only on the input events
    /// and `horizon`, and normalizing twice is the identity.
    ///
    /// The following are **rejected** (typed error, nothing silently
    /// "fixed" that the caller should know about):
    ///
    /// * a non-finite or non-positive `horizon`
    ///   ([`QsimError::InvalidParameter`]);
    /// * events with non-finite or negative times, or degrade/burst
    ///   factors that are not finite and strictly positive
    ///   ([`QsimError::InvalidFaultSchedule`]).
    ///
    /// The following are **normalized away** (dropped):
    ///
    /// * events strictly past the horizon — the simulator would never
    ///   apply them;
    /// * redundant transitions: crashing a device that is already down,
    ///   recovering one that is up, restoring/calming an entity already
    ///   at nominal, or re-degrading/re-bursting to the factor already
    ///   in effect;
    /// * zero-duration degrade/burst windows starting from nominal (a
    ///   degrade and its restore at the identical time): no
    ///   service/arrival sample can fall between two same-time events,
    ///   so the pair is unobservable. A same-time restore that ends an
    ///   *older* (observable) degrade window is kept.
    ///
    /// Zero-duration **crash** windows (crash + recover at the same
    /// time) are deliberately kept: a crash drops resident jobs the
    /// instant it fires, so the pair is observable even with no time
    /// between the events.
    ///
    /// # Errors
    ///
    /// See above; the first violation found is reported.
    pub fn normalized(&self, horizon: f64) -> Result<Self> {
        use std::collections::BTreeMap;
        if !horizon.is_finite() || horizon <= 0.0 {
            return Err(QsimError::invalid_parameter(
                "horizon",
                format!("must be finite and positive, got {horizon}"),
            ));
        }
        let check_factor = |factor: f64| -> Result<()> {
            if !factor.is_finite() || factor <= 0.0 {
                return Err(QsimError::InvalidFaultSchedule(format!(
                    "factor must be finite and positive, got {factor}"
                )));
            }
            Ok(())
        };
        // Output slots; a later zero-duration restore may tombstone an
        // earlier same-time setter, so slots are optional until the end.
        let mut out: Vec<Option<FaultEvent>> = Vec::with_capacity(self.events.len());
        // Per-device up/down state.
        let mut down: BTreeMap<DeviceIdx, bool> = BTreeMap::new();
        // Active degrade per device / burst per chain: (factor, time it
        // took effect, index of the setter in `out`, whether the entity
        // was at nominal before the setter).
        let mut degrade: BTreeMap<DeviceIdx, (f64, f64, usize, bool)> = BTreeMap::new();
        let mut burst: BTreeMap<ChainIdx, (f64, f64, usize, bool)> = BTreeMap::new();
        for ev in &self.events {
            if !ev.time.is_finite() || ev.time < 0.0 {
                return Err(QsimError::InvalidFaultSchedule(format!(
                    "fault time must be finite and non-negative, got {}",
                    ev.time
                )));
            }
            match ev.kind {
                FaultKind::ServiceDegrade { factor, .. }
                | FaultKind::ArrivalBurst { factor, .. } => check_factor(factor)?,
                _ => {}
            }
            if ev.time > horizon {
                continue;
            }
            match ev.kind {
                FaultKind::DeviceCrash { device } => {
                    if !down.get(&device).copied().unwrap_or(false) {
                        down.insert(device, true);
                        out.push(Some(*ev));
                    }
                }
                FaultKind::DeviceRecover { device } => {
                    if down.get(&device).copied().unwrap_or(false) {
                        down.insert(device, false);
                        out.push(Some(*ev));
                    }
                }
                FaultKind::ServiceDegrade { device, factor } => {
                    if degrade.get(&device).map(|&(f, _, _, _)| f) == Some(factor) {
                        continue;
                    }
                    let nominal_before = !degrade.contains_key(&device);
                    degrade.insert(device, (factor, ev.time, out.len(), nominal_before));
                    out.push(Some(*ev));
                }
                FaultKind::ServiceRestore { device } => {
                    if let Some((_, since, idx, nominal_before)) = degrade.remove(&device) {
                        if since == ev.time && nominal_before {
                            out[idx] = None; // unobservable zero-duration window
                        } else {
                            out.push(Some(*ev));
                        }
                    }
                }
                FaultKind::ArrivalBurst { chain, factor } => {
                    if burst.get(&chain).map(|&(f, _, _, _)| f) == Some(factor) {
                        continue;
                    }
                    let nominal_before = !burst.contains_key(&chain);
                    burst.insert(chain, (factor, ev.time, out.len(), nominal_before));
                    out.push(Some(*ev));
                }
                FaultKind::ArrivalCalm { chain } => {
                    if let Some((_, since, idx, nominal_before)) = burst.remove(&chain) {
                        if since == ev.time && nominal_before {
                            out[idx] = None; // unobservable zero-duration window
                        } else {
                            out.push(Some(*ev));
                        }
                    }
                }
            }
        }
        Ok(Self {
            events: out.into_iter().flatten().collect(),
        })
    }

    /// Check the schedule against a model: every referenced device and
    /// chain must exist, every time must be finite and non-negative, and
    /// every factor finite and strictly positive.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidFaultSchedule`] describing the first
    /// violation found.
    pub fn validate(&self, model: &SystemModel) -> Result<()> {
        let num_devices = model.devices().len();
        let num_chains = model.chains().len();
        let check_device = |device: DeviceIdx| -> Result<()> {
            if device >= num_devices {
                return Err(QsimError::InvalidFaultSchedule(format!(
                    "device {device} out of range (model has {num_devices} devices)"
                )));
            }
            Ok(())
        };
        let check_chain = |chain: ChainIdx| -> Result<()> {
            if chain >= num_chains {
                return Err(QsimError::InvalidFaultSchedule(format!(
                    "chain {chain} out of range (model has {num_chains} chains)"
                )));
            }
            Ok(())
        };
        let check_factor = |factor: f64| -> Result<()> {
            if !factor.is_finite() || factor <= 0.0 {
                return Err(QsimError::InvalidFaultSchedule(format!(
                    "factor must be finite and positive, got {factor}"
                )));
            }
            Ok(())
        };
        for ev in &self.events {
            if !ev.time.is_finite() || ev.time < 0.0 {
                return Err(QsimError::InvalidFaultSchedule(format!(
                    "fault time must be finite and non-negative, got {}",
                    ev.time
                )));
            }
            match ev.kind {
                FaultKind::DeviceCrash { device }
                | FaultKind::DeviceRecover { device }
                | FaultKind::ServiceRestore { device } => check_device(device)?,
                FaultKind::ServiceDegrade { device, factor } => {
                    check_device(device)?;
                    check_factor(factor)?;
                }
                FaultKind::ArrivalBurst { chain, factor } => {
                    check_chain(chain)?;
                    check_factor(factor)?;
                }
                FaultKind::ArrivalCalm { chain } => check_chain(chain)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Device, Fragment, Placement, ServiceChain};

    fn tiny_model() -> SystemModel {
        let devices = vec![Device::new(10.0, 1.0).unwrap()];
        let chains = vec![ServiceChain::new(0.5, vec![Fragment::new(1.0, 1.0).unwrap()]).unwrap()];
        SystemModel::new(devices, chains, Placement::new(vec![vec![0]])).unwrap()
    }

    #[test]
    fn builder_keeps_events_sorted_by_time() {
        let s = FaultSchedule::new()
            .crash(50.0, 0)
            .recover(75.0, 0)
            .crash(10.0, 0)
            .recover(20.0, 0);
        let times: Vec<f64> = s.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![10.0, 20.0, 50.0, 75.0]);
    }

    #[test]
    fn simultaneous_faults_keep_insertion_order() {
        let s = FaultSchedule::new().crash(5.0, 0).recover(5.0, 0);
        assert!(matches!(s.events()[0].kind, FaultKind::DeviceCrash { .. }));
        assert!(matches!(
            s.events()[1].kind,
            FaultKind::DeviceRecover { .. }
        ));
    }

    #[test]
    fn validation_rejects_out_of_range_entities() {
        let m = tiny_model();
        assert!(FaultSchedule::new().crash(1.0, 0).validate(&m).is_ok());
        let bad_device = FaultSchedule::new().crash(1.0, 7).validate(&m);
        assert!(matches!(
            bad_device,
            Err(QsimError::InvalidFaultSchedule(_))
        ));
        let bad_chain = FaultSchedule::new().burst(1.0, 3, 2.0).validate(&m);
        assert!(matches!(bad_chain, Err(QsimError::InvalidFaultSchedule(_))));
    }

    #[test]
    fn validation_rejects_bad_times_and_factors() {
        let m = tiny_model();
        assert!(FaultSchedule::new().crash(-1.0, 0).validate(&m).is_err());
        assert!(FaultSchedule::new()
            .crash(f64::NAN, 0)
            .validate(&m)
            .is_err());
        assert!(FaultSchedule::new()
            .degrade(1.0, 0, 0.0)
            .validate(&m)
            .is_err());
        assert!(FaultSchedule::new()
            .burst(1.0, 0, f64::INFINITY)
            .validate(&m)
            .is_err());
        assert!(FaultSchedule::new()
            .degrade(1.0, 0, 0.25)
            .validate(&m)
            .is_ok());
    }

    #[test]
    fn normalized_drops_events_past_horizon() {
        let s = FaultSchedule::new()
            .crash(10.0, 0)
            .recover(20.0, 0)
            .crash(150.0, 0);
        let n = s.normalized(100.0).unwrap();
        assert_eq!(n.len(), 2);
        assert!(n.events().iter().all(|e| e.time <= 100.0));
    }

    #[test]
    fn normalized_drops_redundant_transitions() {
        // Overlapping crash windows: the second crash and the second
        // recover are redundant.
        let s = FaultSchedule::new()
            .crash(10.0, 0)
            .crash(15.0, 0)
            .recover(20.0, 0)
            .recover(25.0, 0);
        let n = s.normalized(100.0).unwrap();
        let times: Vec<f64> = n.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![10.0, 20.0]);
        // Restore/calm with nothing active, and re-degrading to the
        // active factor, all vanish.
        let s = FaultSchedule::new()
            .restore(1.0, 0)
            .calm(2.0, 0)
            .degrade(5.0, 0, 0.5)
            .degrade(6.0, 0, 0.5);
        let n = s.normalized(100.0).unwrap();
        assert_eq!(n.len(), 1);
        assert_eq!(n.events()[0].time, 5.0);
    }

    #[test]
    fn normalized_elides_zero_duration_degrades_but_keeps_crashes() {
        // Degrade + restore at the same instant from nominal: no sample
        // can observe it.
        let s = FaultSchedule::new().degrade(5.0, 0, 0.5).restore(5.0, 0);
        assert!(s.normalized(100.0).unwrap().is_empty());
        let s = FaultSchedule::new().burst(5.0, 0, 2.0).calm(5.0, 0);
        assert!(s.normalized(100.0).unwrap().is_empty());
        // A same-time crash/recover pair still drops resident jobs, so
        // it survives normalization.
        let s = FaultSchedule::new().crash(5.0, 0).recover(5.0, 0);
        assert_eq!(s.normalized(100.0).unwrap().len(), 2);
        // A same-time restore ending an *older* window is observable.
        let s = FaultSchedule::new().degrade(5.0, 0, 0.5).restore(9.0, 0);
        assert_eq!(s.normalized(100.0).unwrap().len(), 2);
    }

    #[test]
    fn normalized_is_idempotent_and_rejects_bad_inputs() {
        let s = FaultSchedule::new()
            .crash(10.0, 0)
            .crash(11.0, 0)
            .degrade(5.0, 1, 0.5)
            .restore(5.0, 1)
            .recover(200.0, 0);
        let once = s.normalized(100.0).unwrap();
        let twice = once.normalized(100.0).unwrap();
        assert_eq!(once, twice);
        assert!(s.normalized(f64::NAN).is_err());
        assert!(s.normalized(0.0).is_err());
        assert!(FaultSchedule::new()
            .crash(f64::NAN, 0)
            .normalized(100.0)
            .is_err());
        assert!(FaultSchedule::new()
            .degrade(1.0, 0, -2.0)
            .normalized(100.0)
            .is_err());
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let s = FaultSchedule::new()
            .crash(10.0, 1)
            .degrade(20.0, 0, 0.5)
            .burst(30.0, 0, 3.0);
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
