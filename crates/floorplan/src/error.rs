//! Error type for floorplan construction.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing a [`Floorplan`](crate::Floorplan).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FloorplanError {
    /// A block failed geometric validation.
    InvalidBlock(String),
    /// Two blocks share a name.
    DuplicateName(String),
    /// Two blocks overlap by more than the tolerance.
    Overlap {
        /// First block's name.
        a: String,
        /// Second block's name.
        b: String,
        /// Overlap area in m².
        area: f64,
    },
    /// The floorplan has no blocks.
    Empty,
    /// A named block was not found.
    UnknownBlock(String),
}

impl fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidBlock(msg) => write!(f, "invalid block: {msg}"),
            Self::DuplicateName(name) => write!(f, "duplicate block name `{name}`"),
            Self::Overlap { a, b, area } => {
                write!(f, "blocks `{a}` and `{b}` overlap by {area:.3e} m^2")
            }
            Self::Empty => write!(f, "floorplan has no blocks"),
            Self::UnknownBlock(name) => write!(f, "unknown block `{name}`"),
        }
    }
}

impl Error for FloorplanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = FloorplanError::DuplicateName("L2".into());
        assert_eq!(e.to_string(), "duplicate block name `L2`");
        let e = FloorplanError::Overlap { a: "a".into(), b: "b".into(), area: 1e-6 };
        assert!(e.to_string().contains("overlap"));
        let e = FloorplanError::UnknownBlock("L3".into());
        assert_eq!(e.to_string(), "unknown block `L3`");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FloorplanError>();
    }
}
