//! Typed errors for dataset generation and statistics.

use chainnet_ckpt::CkptError;
use chainnet_qsim::QsimError;

/// A dataset-generation failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DatagenError {
    /// A worker's network generation or labeling simulation failed.
    Qsim(QsimError),
    /// Worker threads stopped before every sample slot was filled
    /// (e.g. a sibling worker hit an error first).
    Incomplete {
        /// Number of unfilled sample slots.
        missing: usize,
    },
    /// Statistics were requested over an empty dataset.
    EmptyDataset,
    /// A shard checkpoint could not be saved, loaded, or matched to the
    /// requested sweep (see
    /// [`generate_raw_dataset_sharded_observed`](crate::dataset::generate_raw_dataset_sharded_observed)).
    Checkpoint(CkptError),
    /// Cooperative cancellation (`obs.cancel`, e.g. a SIGTERM handler)
    /// stopped a sharded sweep at a shard boundary. Every shard
    /// completed so far is already checkpointed on disk; rerunning with
    /// `resume = true` picks up exactly where the sweep stopped.
    Interrupted {
        /// Shards fully generated and persisted before the stop.
        shards_done: usize,
        /// Total shards the sweep was asked for.
        shards_total: usize,
    },
}

impl std::fmt::Display for DatagenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Qsim(e) => write!(f, "generation failed in the queueing layer: {e}"),
            Self::Incomplete { missing } => {
                write!(
                    f,
                    "dataset generation incomplete: {missing} sample(s) missing"
                )
            }
            Self::EmptyDataset => write!(f, "dataset is empty"),
            Self::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            Self::Interrupted {
                shards_done,
                shards_total,
            } => write!(
                f,
                "generation cancelled after {shards_done}/{shards_total} shard(s); \
                 completed shards are checkpointed — rerun with resume to continue"
            ),
        }
    }
}

impl std::error::Error for DatagenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Qsim(e) => Some(e),
            Self::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QsimError> for DatagenError {
    fn from(e: QsimError) -> Self {
        Self::Qsim(e)
    }
}

impl From<CkptError> for DatagenError {
    fn from(e: CkptError) -> Self {
        Self::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(DatagenError::Incomplete { missing: 3 }
            .to_string()
            .contains("3 sample(s)"));
        let e: DatagenError = QsimError::InvalidModel("no devices".into()).into();
        assert!(e.to_string().contains("no devices"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
