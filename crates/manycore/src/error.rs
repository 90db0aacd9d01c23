//! Error type for machine construction, placement and engine operations.

use std::fmt;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Topology parameters are inconsistent.
    InvalidTopology(String),
    /// A placement request could not be satisfied with the free contexts.
    PlacementUnsatisfiable {
        /// Threads the caller asked for.
        requested: u32,
        /// Hardware contexts currently available under the request's policy.
        available: u32,
    },
    /// A request carried an invalid parameter (zero threads, NaN work, …).
    InvalidRequest(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            MachineError::PlacementUnsatisfiable { requested, available } => write!(
                f,
                "placement unsatisfiable: requested {requested} threads, {available} contexts available"
            ),
            MachineError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

impl std::error::Error for MachineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MachineError::PlacementUnsatisfiable {
            requested: 70,
            available: 4,
        };
        let s = e.to_string();
        assert!(s.contains("70"));
        assert!(s.contains("4"));
    }
}
