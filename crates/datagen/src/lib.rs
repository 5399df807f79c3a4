#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

//! Workload and dataset generation for the ChainNet experiments: the
//! Table III network generators (Type I and Type II), the Table VII
//! placement-problem generator, the Section VIII-D real-world case study,
//! and a parallel simulate-and-label dataset builder.
//!
//! # Quick start
//!
//! ```
//! use chainnet_datagen::dataset::{generate_raw_dataset, to_labeled, DatasetConfig};
//! use chainnet_datagen::typesets::NetworkParams;
//! use chainnet::config::FeatureMode;
//!
//! # fn main() -> Result<(), chainnet_datagen::DatagenError> {
//! let cfg = DatasetConfig::new(4, 0).with_horizon(200.0).with_threads(1);
//! let raw = generate_raw_dataset(NetworkParams::type_i(), &cfg)?;
//! let labeled = to_labeled(&raw, FeatureMode::Modified);
//! assert_eq!(labeled.len(), 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod case_study;
pub mod dataset;
pub mod error;
pub mod problems;
pub mod stats;
pub mod typesets;

pub use case_study::{case_study_dnns, case_study_problem, DeviceSpec, DnnSpec};
pub use dataset::{
    generate_raw_dataset, to_labeled, DatasetConfig, LabelSource, RawSample, ShardCheckpoint,
    DATAGEN_CKPT_SCHEMA,
};
pub use error::DatagenError;
pub use problems::{ProblemGenerator, ProblemParams};
pub use stats::{dataset_stats, render_stats, DatasetStats};
pub use typesets::{NetworkGenerator, NetworkParams, ParamDist};
