//! Errors for model fitting and selection.

use std::fmt;

/// Errors raised while building or applying a TDPM model.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Training data had no resolved tasks.
    EmptyTrainingSet,
    /// Configuration is invalid (e.g. zero latent categories).
    InvalidConfig(&'static str),
    /// A numerical routine failed irrecoverably.
    Numerical(String),
    /// Referenced a worker the model has never seen.
    UnknownWorker(crowd_store::WorkerId),
    /// A worker id appeared twice where each worker must have one posterior.
    DuplicateWorker(crowd_store::WorkerId),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyTrainingSet => write!(f, "no resolved tasks to train on"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            CoreError::UnknownWorker(w) => write!(f, "worker {w} is unknown to the model"),
            CoreError::DuplicateWorker(w) => write!(f, "worker {w} appears more than once"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<crowd_math::MathError> for CoreError {
    fn from(e: crowd_math::MathError) -> Self {
        CoreError::Numerical(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CoreError::EmptyTrainingSet.to_string().contains("resolved"));
        assert!(CoreError::InvalidConfig("k = 0")
            .to_string()
            .contains("k = 0"));
    }

    #[test]
    fn math_errors_convert() {
        let m = crowd_math::MathError::NotPositiveDefinite { pivot: 3 };
        let c: CoreError = m.into();
        assert!(matches!(c, CoreError::Numerical(_)));
    }
}
