//! Typed errors for placement evaluation and search.
//!
//! Evaluators are fallible: the queueing layer can reject a model or
//! blow its simulation budget, and a surrogate can emit a non-finite
//! prediction. The search drivers never panic on these — they skip or
//! fall back (see [`ResilientEvaluator`](crate::ResilientEvaluator))
//! and always return a best-so-far decision.

use chainnet_ckpt::CkptError;
use chainnet_qsim::QsimError;

/// An evaluator or search-plumbing failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlacementError {
    /// The queueing layer rejected the bound model or failed to
    /// simulate it.
    Qsim(QsimError),
    /// An evaluator produced a non-finite (NaN/inf) objective estimate.
    NonFiniteObjective {
        /// Name of the offending evaluator.
        evaluator: String,
        /// The non-finite value it produced.
        value: f64,
    },
    /// A checkpoint could not be saved, loaded, or matched to the
    /// requested search (see
    /// [`SimulatedAnnealing::optimize_checkpointed_observed`](crate::sa::SimulatedAnnealing::optimize_checkpointed_observed)).
    Checkpoint(CkptError),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Qsim(e) => write!(f, "queueing layer error: {e}"),
            Self::NonFiniteObjective { evaluator, value } => write!(
                f,
                "evaluator '{evaluator}' produced a non-finite objective ({value})"
            ),
            Self::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for PlacementError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Qsim(e) => Some(e),
            Self::NonFiniteObjective { .. } => None,
            Self::Checkpoint(e) => Some(e),
        }
    }
}

impl From<QsimError> for PlacementError {
    fn from(e: QsimError) -> Self {
        Self::Qsim(e)
    }
}

impl From<CkptError> for PlacementError {
    fn from(e: CkptError) -> Self {
        Self::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_evaluator_and_value() {
        let e = PlacementError::NonFiniteObjective {
            evaluator: "gnn".into(),
            value: f64::NAN,
        };
        let s = e.to_string();
        assert!(s.contains("gnn") && s.contains("NaN"));
    }

    #[test]
    fn qsim_errors_convert_and_expose_a_source() {
        let e: PlacementError = QsimError::InvalidModel("no devices".into()).into();
        assert!(e.to_string().contains("no devices"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
