#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

//! Discrete-event simulator for finite-buffer, multi-chain open queueing
//! networks — the ground-truth substrate of the ChainNet reproduction.
//!
//! The paper (Niu, Roveri, Casale, *ChainNet*, DSN 2024) models an edge AI
//! deployment as an open queueing network: each edge device is a
//! single-server FCFS station whose buffer is bounded by memory; requests
//! of a *service chain* traverse the stations hosting the chain's DNN
//! fragments, and any arrival that finds the device's memory exhausted is
//! lost. The authors simulate these models with JMT; this crate replaces
//! JMT with a native discrete-event engine.
//!
//! # Quick start
//!
//! ```
//! use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};
//! use chainnet_qsim::sim::{SimConfig, Simulator};
//!
//! # fn main() -> Result<(), chainnet_qsim::QsimError> {
//! // One chain of two fragments on two devices.
//! let devices = vec![Device::new(10.0, 1.0)?, Device::new(10.0, 2.0)?];
//! let chains = vec![ServiceChain::new(
//!     0.5,
//!     vec![Fragment::new(1.0, 1.0)?, Fragment::new(1.0, 1.0)?],
//! )?];
//! let placement = Placement::new(vec![vec![0, 1]]);
//! let model = SystemModel::new(devices, chains, placement)?;
//!
//! let result = Simulator::new().run(&model, &SimConfig::new(5_000.0, 42))?;
//! assert!(result.chains[0].throughput <= 0.5 + 0.05);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analytic;
pub mod approx;
pub mod dist;
pub mod error;
pub mod faults;
pub mod model;
pub mod replications;
pub mod sim;
pub mod stats;
pub mod trace;

pub use error::{BudgetReason, QsimError, Result};
pub use faults::{FaultEvent, FaultKind, FaultSchedule};
pub use model::{Device, Fragment, Placement, ServiceChain, SystemModel};
pub use sim::{SimConfig, SimResult, Simulator};
