//! Umbrella crate for the ChainNet reproduction workspace.
//!
//! Re-exports the member crates under short names so examples and
//! integration tests can use a single dependency:
//!
//! ```
//! use chainnet_suite::qsim;
//! let _exp = qsim::dist::Exponential::new(1.0).unwrap();
//! ```

pub mod cli;

pub use chainnet as core;
pub use chainnet_ckpt as ckpt;
pub use chainnet_datagen as datagen;
pub use chainnet_neural as neural;
pub use chainnet_obs as obs;
pub use chainnet_placement as placement;
pub use chainnet_qsim as qsim;
pub use chainnet_serve as serve;
