#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

//! **ChainNet** — a customized graph neural network surrogate for
//! loss-aware edge AI service deployment (Niu, Roveri, Casale, DSN 2024),
//! reproduced from scratch in Rust.
//!
//! The crate turns a placement of DNN service chains onto edge devices
//! into a heterogeneous graph (Algorithm 1 of the paper), runs a
//! queueing-informed message-passing network over its execution sequences
//! (Algorithm 2), and predicts per-chain system throughput and end-to-end
//! latency concurrently. GIN and GAT baselines, the Table II feature /
//! target generalization design, its ablations, and the Eq. 13 training
//! loop are all included.
//!
//! # Quick start
//!
//! ```
//! use chainnet::config::ModelConfig;
//! use chainnet::graph::PlacementGraph;
//! use chainnet::model::{ChainNet, Surrogate};
//! use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};
//!
//! # fn main() -> Result<(), chainnet_qsim::QsimError> {
//! let cfg = ModelConfig::small();
//! let net = ChainNet::new(cfg, 42);
//!
//! let devices = vec![Device::new(10.0, 1.0)?, Device::new(10.0, 2.0)?];
//! let chains = vec![ServiceChain::new(
//!     0.5,
//!     vec![Fragment::new(1.0, 1.0)?, Fragment::new(1.0, 1.0)?],
//! )?];
//! let system = SystemModel::new(devices, chains, Placement::new(vec![vec![0, 1]]))?;
//!
//! let graph = PlacementGraph::from_model(&system, cfg.feature_mode);
//! let predictions = net.predict(&graph);
//! assert_eq!(predictions.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod baselines;
pub mod config;
pub mod data;
pub mod dot;
pub mod graph;
pub mod graph_batch;
pub mod metrics;
pub mod model;
pub mod train;

pub use ablation::AblationVariant;
pub use baselines::{BaselineGnn, BaselineKind};
pub use config::{FeatureMode, ModelConfig, TargetMode, TrainConfig};
pub use data::{ChainTargets, LabeledGraph};
pub use graph::PlacementGraph;
pub use graph_batch::{BatchTargets, GraphBatch};
pub use metrics::{ApeCollector, ApeSummary};
pub use model::{ChainNet, PerfPrediction, Surrogate};
pub use train::{GuardConfig, TrainError, TrainReport, Trainer};
