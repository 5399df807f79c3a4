//! System model: devices, service chains, fragments and placements.
//!
//! This mirrors Section II of the paper. An edge AI system has `D`
//! heterogeneous devices and `C` service chains; chain `i` consists of
//! `T_i` DNN fragments executed in order, each on a separate device. A
//! placement maps every fragment to a device subject to the static memory
//! constraint `Δm_k <= M_k` (Eq. 2).

use crate::dist::Dist;
use crate::error::{QsimError, Result};
use serde::{Deserialize, Serialize};

/// Index of a service chain (`i` in the paper).
pub type ChainIdx = usize;
/// Index of a fragment within its chain (`j` in the paper, 0-based here).
pub type FragIdx = usize;
/// Index of a device (`k` in the paper).
pub type DeviceIdx = usize;

/// A DNN fragment: one stage of a service chain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fragment {
    /// Memory demand `m_{i,j}` of the fragment.
    pub mem: f64,
    /// Computational demand `r_{i,j}` of the fragment. The processing time
    /// at device `k` is `r_{i,j} / R_k`.
    pub comp: f64,
}

impl Fragment {
    /// Create a fragment with the given memory and computational demands.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidParameter`] if either demand is negative
    /// or not finite, or if `comp` is zero.
    pub fn new(mem: f64, comp: f64) -> Result<Self> {
        if !mem.is_finite() || mem < 0.0 {
            return Err(QsimError::invalid_parameter(
                "mem",
                format!("must be finite and non-negative, got {mem}"),
            ));
        }
        if !comp.is_finite() || comp <= 0.0 {
            return Err(QsimError::invalid_parameter(
                "comp",
                format!("must be finite and positive, got {comp}"),
            ));
        }
        Ok(Self { mem, comp })
    }
}

/// An AI application deployed as a chain of fragments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceChain {
    /// Poisson arrival rate `λ_i` of chain requests.
    pub arrival_rate: f64,
    /// The ordered fragments of the chain.
    pub fragments: Vec<Fragment>,
    /// Optional non-Poisson interarrival process. When `None`, arrivals are
    /// Poisson with rate [`ServiceChain::arrival_rate`]; when set, the
    /// distribution's mean should equal `1 / arrival_rate`.
    pub interarrival: Option<Dist>,
    /// Per-hop link success probabilities (length `T_i - 1`). Hop `j` is
    /// the transfer from fragment `j` to fragment `j+1`; a failed
    /// transfer loses the request. Empty means perfectly reliable links
    /// (the paper's base model; unreliable links are its stated
    /// extension).
    #[serde(default)]
    pub hop_reliability: Vec<f64>,
    /// Early-exit probabilities (length `T_i - 1`): after finishing
    /// fragment `j`, the request *completes* with this probability
    /// instead of continuing — the paper's "custom early-exit networks"
    /// future-work scenario. Empty means strict forward execution.
    #[serde(default)]
    pub early_exit: Vec<f64>,
}

impl ServiceChain {
    /// Create a chain with Poisson arrivals.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidParameter`] if the arrival rate is not
    /// finite and positive, or [`QsimError::InvalidModel`] if `fragments`
    /// is empty.
    pub fn new(arrival_rate: f64, fragments: Vec<Fragment>) -> Result<Self> {
        if !arrival_rate.is_finite() || arrival_rate <= 0.0 {
            return Err(QsimError::invalid_parameter(
                "arrival_rate",
                format!("must be finite and positive, got {arrival_rate}"),
            ));
        }
        if fragments.is_empty() {
            return Err(QsimError::InvalidModel(
                "service chain must have at least one fragment".into(),
            ));
        }
        Ok(Self {
            arrival_rate,
            fragments,
            interarrival: None,
            hop_reliability: Vec::new(),
            early_exit: Vec::new(),
        })
    }

    /// Set per-hop link success probabilities (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the length is not `T_i - 1` or any probability is
    /// outside `[0, 1]`.
    #[must_use]
    pub fn with_hop_reliability(mut self, reliability: Vec<f64>) -> Self {
        assert_eq!(
            reliability.len(),
            self.fragments.len().saturating_sub(1),
            "need one success probability per hop"
        );
        assert!(
            reliability.iter().all(|p| (0.0..=1.0).contains(p)),
            "probabilities must be in [0, 1]"
        );
        self.hop_reliability = reliability;
        self
    }

    /// Success probability of hop `j` (fragment `j` to `j+1`); 1.0 when
    /// unset.
    pub fn hop_success(&self, hop: usize) -> f64 {
        self.hop_reliability.get(hop).copied().unwrap_or(1.0)
    }

    /// Set early-exit probabilities (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the length is not `T_i - 1` or any probability is
    /// outside `[0, 1]`.
    #[must_use]
    pub fn with_early_exit(mut self, exits: Vec<f64>) -> Self {
        assert_eq!(
            exits.len(),
            self.fragments.len().saturating_sub(1),
            "need one exit probability per non-final fragment"
        );
        assert!(
            exits.iter().all(|p| (0.0..=1.0).contains(p)),
            "probabilities must be in [0, 1]"
        );
        self.early_exit = exits;
        self
    }

    /// Probability of completing right after fragment `j`; 0.0 when unset.
    pub fn exit_probability(&self, frag: usize) -> f64 {
        self.early_exit.get(frag).copied().unwrap_or(0.0)
    }

    /// Number of fragments `T_i`.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// Whether the chain has no fragments (never true for a validated chain).
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }
}

/// An edge device: a single-server FCFS station with finite memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Maximum memory capacity `M_k`.
    pub memory: f64,
    /// Service rate `R_k`; the processing time of fragment `(i,j)` here is
    /// `r_{i,j} / R_k`.
    pub service_rate: f64,
    /// Parallel servers (cores). The paper's model is single-server; this
    /// extension allows `c > 1` (an M/M/c/K-style station).
    #[serde(default = "default_servers")]
    pub servers: usize,
}

fn default_servers() -> usize {
    1
}

impl Device {
    /// Create a device.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidParameter`] if memory or service rate is
    /// not finite and positive.
    pub fn new(memory: f64, service_rate: f64) -> Result<Self> {
        if !memory.is_finite() || memory <= 0.0 {
            return Err(QsimError::invalid_parameter(
                "memory",
                format!("must be finite and positive, got {memory}"),
            ));
        }
        if !service_rate.is_finite() || service_rate <= 0.0 {
            return Err(QsimError::invalid_parameter(
                "service_rate",
                format!("must be finite and positive, got {service_rate}"),
            ));
        }
        Ok(Self {
            memory,
            service_rate,
            servers: 1,
        })
    }

    /// Set the number of parallel servers (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    #[must_use]
    pub fn with_servers(mut self, servers: usize) -> Self {
        assert!(servers >= 1, "a device needs at least one server");
        self.servers = servers;
        self
    }
}

/// A placement decision `p`: for every chain, the device executing each of
/// its fragments (Eq. 1 in dense form).
///
/// # Examples
///
/// ```
/// use chainnet_qsim::model::Placement;
///
/// // chain 0 has 2 fragments on devices 0 and 1; chain 1 has 1 fragment on 2.
/// let p = Placement::new(vec![vec![0, 1], vec![2]]);
/// assert_eq!(p.device_of(0, 1), 1);
/// assert_eq!(p.used_devices(), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Placement {
    assignment: Vec<Vec<DeviceIdx>>,
}

impl Placement {
    /// Build a placement from per-chain device lists.
    pub fn new(assignment: Vec<Vec<DeviceIdx>>) -> Self {
        Self { assignment }
    }

    /// The device executing fragment `j` of chain `i`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn device_of(&self, chain: ChainIdx, frag: FragIdx) -> DeviceIdx {
        self.assignment[chain][frag]
    }

    /// Mutable access used by search moves.
    pub fn set_device(&mut self, chain: ChainIdx, frag: FragIdx, device: DeviceIdx) {
        self.assignment[chain][frag] = device;
    }

    /// Number of chains covered by this placement.
    pub fn num_chains(&self) -> usize {
        self.assignment.len()
    }

    /// The fragment count of chain `i`.
    pub fn chain_len(&self, chain: ChainIdx) -> usize {
        self.assignment[chain].len()
    }

    /// Devices of one chain in execution order.
    pub fn chain_route(&self, chain: ChainIdx) -> &[DeviceIdx] {
        &self.assignment[chain]
    }

    /// Sorted, deduplicated list of devices used by the placement
    /// (`d` of the paper is its length).
    pub fn used_devices(&self) -> Vec<DeviceIdx> {
        let mut v: Vec<DeviceIdx> = self.assignment.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Iterate over `(chain, frag, device)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ChainIdx, FragIdx, DeviceIdx)> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .flat_map(|(i, devs)| devs.iter().enumerate().map(move |(j, &k)| (i, j, k)))
    }
}

/// How much dynamic memory a queued job occupies at its station.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum MemoryPolicy {
    /// Every queued/in-service job occupies one memory unit; a device can
    /// hold at most `floor(M_k)` jobs. This matches the paper's simulation
    /// setup ("the execution of a fragment requires a fixed unit of
    /// memory").
    #[default]
    UnitPerJob,
    /// A job of fragment `(i,j)` occupies `m_{i,j}` memory units.
    DemandPerJob,
}

/// How service times are generated from the mean processing time
/// `t_p = r_{i,j} / R_k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum ServicePolicy {
    /// Exponentially distributed service with mean `t_p` (the stochastic QN
    /// abstraction used for dataset generation).
    #[default]
    Exponential,
    /// Deterministic service equal to `t_p`.
    Deterministic,
}

/// A complete system: devices, chains and a placement binding them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemModel {
    devices: Vec<Device>,
    chains: Vec<ServiceChain>,
    placement: Placement,
}

impl SystemModel {
    /// Assemble and validate a system model.
    ///
    /// Validation checks structural consistency (placement shape matches
    /// the chains, device indices in range). It does **not** enforce the
    /// static memory constraint — use [`SystemModel::memory_feasible`] for
    /// that, since the search must be able to evaluate the constraint
    /// separately.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidModel`] or [`QsimError::InvalidPlacement`]
    /// on inconsistency.
    pub fn new(
        devices: Vec<Device>,
        chains: Vec<ServiceChain>,
        placement: Placement,
    ) -> Result<Self> {
        if devices.is_empty() {
            return Err(QsimError::InvalidModel("no devices".into()));
        }
        if chains.is_empty() {
            return Err(QsimError::InvalidModel("no service chains".into()));
        }
        if placement.num_chains() != chains.len() {
            return Err(QsimError::InvalidPlacement(format!(
                "placement covers {} chains but the model has {}",
                placement.num_chains(),
                chains.len()
            )));
        }
        for (i, chain) in chains.iter().enumerate() {
            if placement.chain_len(i) != chain.len() {
                return Err(QsimError::InvalidPlacement(format!(
                    "chain {i}: placement has {} fragments, chain has {}",
                    placement.chain_len(i),
                    chain.len()
                )));
            }
        }
        for (i, j, k) in placement.iter() {
            if k >= devices.len() {
                return Err(QsimError::InvalidPlacement(format!(
                    "fragment ({i},{j}) placed on device {k} but only {} devices exist",
                    devices.len()
                )));
            }
        }
        Ok(Self {
            devices,
            chains,
            placement,
        })
    }

    /// The devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The service chains.
    pub fn chains(&self) -> &[ServiceChain] {
        &self.chains
    }

    /// The placement decision.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Replace the placement, revalidating the result.
    ///
    /// # Errors
    ///
    /// Same as [`SystemModel::new`].
    pub fn with_placement(&self, placement: Placement) -> Result<Self> {
        Self::new(self.devices.clone(), self.chains.clone(), placement)
    }

    /// Mean processing time `t_{p_{i,j}} = r_{i,j} / R_k` of fragment `j`
    /// of chain `i` at its placed device.
    pub fn processing_time(&self, chain: ChainIdx, frag: FragIdx) -> f64 {
        let k = self.placement.device_of(chain, frag);
        self.chains[chain].fragments[frag].comp / self.devices[k].service_rate
    }

    /// Static memory usage `Δm_k` of a device: the summed memory demand of
    /// all fragments placed on it.
    pub fn device_static_memory(&self, device: DeviceIdx) -> f64 {
        self.placement
            .iter()
            .filter(|&(_, _, k)| k == device)
            .map(|(i, j, _)| self.chains[i].fragments[j].mem)
            .sum()
    }

    /// Sum of mean processing times `Δt_k` of all fragments placed on a
    /// device (used by the Table II feature modifications).
    pub fn device_total_processing(&self, device: DeviceIdx) -> f64 {
        self.placement
            .iter()
            .filter(|&(_, _, k)| k == device)
            .map(|(i, j, _)| self.processing_time(i, j))
            .sum()
    }

    /// Whether the placement satisfies `Δm_k <= M_k` for every device
    /// (the constraint of Eq. 2).
    pub fn memory_feasible(&self) -> bool {
        (0..self.devices.len())
            .all(|k| self.device_static_memory(k) <= self.devices[k].memory + 1e-12)
    }

    /// Total offered load `λ_total = Σ λ_i`.
    pub fn total_arrival_rate(&self) -> f64 {
        self.chains.iter().map(|c| c.arrival_rate).sum()
    }

    /// Number of execution steps that include device `k` (`F_k`).
    pub fn device_step_count(&self, device: DeviceIdx) -> usize {
        self.placement
            .iter()
            .filter(|&(_, _, k)| k == device)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_chain_model() -> SystemModel {
        let devices = vec![
            Device::new(10.0, 1.0).unwrap(),
            Device::new(10.0, 2.0).unwrap(),
            Device::new(5.0, 1.0).unwrap(),
        ];
        let chains = vec![
            ServiceChain::new(
                0.5,
                vec![
                    Fragment::new(1.0, 1.0).unwrap(),
                    Fragment::new(2.0, 4.0).unwrap(),
                ],
            )
            .unwrap(),
            ServiceChain::new(0.25, vec![Fragment::new(1.0, 2.0).unwrap()]).unwrap(),
        ];
        let placement = Placement::new(vec![vec![0, 1], vec![1]]);
        SystemModel::new(devices, chains, placement).unwrap()
    }

    #[test]
    fn processing_time_is_comp_over_rate() {
        let m = two_chain_model();
        assert_eq!(m.processing_time(0, 0), 1.0);
        assert_eq!(m.processing_time(0, 1), 2.0); // 4 / 2
        assert_eq!(m.processing_time(1, 0), 1.0); // 2 / 2
    }

    #[test]
    fn static_memory_sums_demands() {
        let m = two_chain_model();
        assert_eq!(m.device_static_memory(0), 1.0);
        assert_eq!(m.device_static_memory(1), 3.0);
        assert_eq!(m.device_static_memory(2), 0.0);
        assert!(m.memory_feasible());
    }

    #[test]
    fn total_processing_per_device() {
        let m = two_chain_model();
        assert!((m.device_total_processing(1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_when_memory_exceeded() {
        let devices = vec![Device::new(1.0, 1.0).unwrap()];
        let chains = vec![ServiceChain::new(1.0, vec![Fragment::new(2.0, 1.0).unwrap()]).unwrap()];
        let placement = Placement::new(vec![vec![0]]);
        let m = SystemModel::new(devices, chains, placement).unwrap();
        assert!(!m.memory_feasible());
    }

    #[test]
    fn rejects_placement_shape_mismatch() {
        let devices = vec![Device::new(1.0, 1.0).unwrap()];
        let chains = vec![ServiceChain::new(1.0, vec![Fragment::new(0.5, 1.0).unwrap()]).unwrap()];
        let bad = Placement::new(vec![vec![0, 0]]);
        assert!(SystemModel::new(devices, chains, bad).is_err());
    }

    #[test]
    fn rejects_out_of_range_device() {
        let devices = vec![Device::new(1.0, 1.0).unwrap()];
        let chains = vec![ServiceChain::new(1.0, vec![Fragment::new(0.5, 1.0).unwrap()]).unwrap()];
        let bad = Placement::new(vec![vec![5]]);
        assert!(matches!(
            SystemModel::new(devices, chains, bad),
            Err(QsimError::InvalidPlacement(_))
        ));
    }

    #[test]
    fn used_devices_sorted_unique() {
        let p = Placement::new(vec![vec![2, 0], vec![2]]);
        assert_eq!(p.used_devices(), vec![0, 2]);
    }

    #[test]
    fn device_step_count_counts_fragments() {
        let m = two_chain_model();
        assert_eq!(m.device_step_count(1), 2);
        assert_eq!(m.device_step_count(0), 1);
    }

    #[test]
    fn chain_rejects_empty_fragments() {
        assert!(ServiceChain::new(1.0, vec![]).is_err());
    }

    #[test]
    fn fragment_rejects_negative_memory() {
        assert!(Fragment::new(-1.0, 1.0).is_err());
        assert!(Fragment::new(1.0, 0.0).is_err());
    }

    #[test]
    fn total_arrival_rate_sums() {
        let m = two_chain_model();
        assert!((m.total_arrival_rate() - 0.75).abs() < 1e-12);
    }
}
