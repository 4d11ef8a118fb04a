use micronas_tensor::TensorError;
use std::fmt;

/// Errors produced while building or evaluating proxy networks.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// A tensor-level operation failed.
    Tensor(TensorError),
    /// The supplied input does not match the network's expected geometry.
    InputMismatch {
        /// Expected NCHW dimensions (batch is free, so 0 means "any").
        expected: [usize; 4],
        /// The dimensions that were supplied.
        actual: Vec<usize>,
    },
    /// A configuration value was invalid.
    InvalidConfig(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
            NnError::InputMismatch { expected, actual } => write!(
                f,
                "input shape {actual:?} does not match expected [N, {}, {}, {}]",
                expected[1], expected[2], expected[3]
            ),
            NnError::InvalidConfig(msg) => write!(f, "invalid network configuration: {msg}"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let err = NnError::Tensor(TensorError::InvalidArgument("x".into()));
        assert!(err.to_string().contains("tensor operation failed"));
        assert!(err.source().is_some());
        let err = NnError::InvalidConfig("bad".into());
        assert!(err.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
