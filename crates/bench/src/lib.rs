//! Experiment harness for the ChainNet reproduction: one binary per table
//! and figure of the paper's evaluation section, plus Criterion
//! performance benches.
//!
//! Every binary honours the `CHAINNET_SCALE` environment variable
//! (`smoke` | `default` | `paper`) — see [`scale::Scale`] — and caches
//! datasets under `./data` and trained models / results under
//! `./results`.
//!
//! | binary       | reproduces            |
//! |--------------|-----------------------|
//! | `table5`     | Table V (throughput APE percentiles)          |
//! | `fig11`      | Fig. 11 (MAPE + APE distributions)            |
//! | `fig12`      | Fig. 12 (APE by #nodes / #chains)             |
//! | `table6`     | Table VI (ablation MAPE)                      |
//! | `fig13`      | Fig. 13 (train/validation loss curves)        |
//! | `fig14`      | Fig. 14 (SA trajectories, fixed-time search)  |
//! | `fig15`      | Fig. 15 (fixed-steps search)                  |
//! | `case_study` | Section VIII-D                                |

#![warn(missing_docs)]

pub mod optstudy;
pub mod pipeline;
pub mod plot;
pub mod scale;

pub use pipeline::{print_table, Datasets, Pipeline, Trained};
pub use scale::Scale;
