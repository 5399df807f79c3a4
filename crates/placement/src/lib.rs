#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

//! Loss-aware placement optimization: the simulated-annealing search of
//! Section VII of the ChainNet paper, generic over an objective evaluator
//! (queueing simulation or a trained GNN surrogate).
//!
//! # Quick start
//!
//! ```
//! use chainnet_placement::evaluator::SimEvaluator;
//! use chainnet_placement::problem::PlacementProblem;
//! use chainnet_placement::sa::{SaConfig, SimulatedAnnealing};
//! use chainnet_qsim::model::{Device, Fragment, ServiceChain};
//! use chainnet_qsim::sim::SimConfig;
//!
//! # fn main() -> Result<(), chainnet_qsim::QsimError> {
//! let devices = vec![
//!     Device::new(10.0, 0.5)?,
//!     Device::new(10.0, 2.0)?,
//!     Device::new(10.0, 2.0)?,
//! ];
//! let chains = vec![ServiceChain::new(
//!     0.8,
//!     vec![Fragment::new(1.0, 1.0)?, Fragment::new(1.0, 1.0)?],
//! )?];
//! let problem = PlacementProblem::new(devices, chains)?;
//! let initial = problem.initial_placement()?;
//!
//! let mut evaluator = SimEvaluator::new(SimConfig::new(1_000.0, 0));
//! let sa = SimulatedAnnealing::new(SaConfig::paper_default().with_max_steps(10));
//! let result = sa.optimize(&problem, &initial, &mut evaluator, 1);
//! assert!(result.best_objective >= result.initial_objective);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod error;
pub mod evaluator;
pub mod problem;
pub mod sa;
pub mod strategies;

pub use batch::optimize_batch;
pub use error::PlacementError;
pub use evaluator::{
    loss_probability, relative_loss_reduction, ApproxEvaluator, BatchEvaluator, Evaluator,
    GnnEvaluator, ResilientEvaluator, SimEvaluator,
};
pub use problem::PlacementProblem;
pub use sa::{
    SaCheckpoint, SaConfig, SaImprovement, SaResult, SaTrial, SimulatedAnnealing,
    TerminationReason, SA_CKPT_SCHEMA,
};
pub use strategies::{HillClimb, RandomSearch, StrategyResult};
