//! Engine configuration errors.

use std::fmt;
use wormsim_faults::FaultPlanError;
use wormsim_routing::RoutingError;
use wormsim_traffic::TrafficError;

/// Errors produced when assembling a [`Network`](crate::Network).
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The routing algorithm rejected the topology.
    Routing(RoutingError),
    /// The traffic configuration rejected the topology or its parameters.
    Traffic(TrafficError),
    /// The fault plan does not fit the topology.
    Faults(FaultPlanError),
    /// Wormhole buffer depth must be at least 1.
    ZeroBufferDepth,
    /// At least one physical VC per routing class is required.
    ZeroReplicas,
    /// Injection bandwidth must be at least 1 flit per cycle.
    ZeroInjectionBandwidth,
    /// The congestion-control limit must be at least 1 when present.
    ZeroCongestionLimit,
    /// The message-length distribution can produce zero-flit messages
    /// (only a hand-built `MessageLength` variant can: its constructors
    /// refuse it).
    ZeroLengthMessage,
    /// Too many physical VCs per channel: `classes * replicas` must fit the
    /// engine's `u8` per-channel bookkeeping (request-row occupancy and
    /// round-robin pointers).
    TooManyVcs {
        /// The requested `classes * replicas` product.
        vcs: usize,
    },
    /// The longest message or the VC buffer depth (given) exceeds 65 535
    /// flits, the most a lane counts.
    TooManyFlits(u32),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Routing(e) => write!(f, "routing: {e}"),
            EngineError::Traffic(e) => write!(f, "traffic: {e}"),
            EngineError::Faults(e) => write!(f, "faults: {e}"),
            EngineError::ZeroBufferDepth => write!(f, "buffer depth must be at least 1"),
            EngineError::ZeroReplicas => write!(f, "vc replicas must be at least 1"),
            EngineError::ZeroInjectionBandwidth => {
                write!(f, "injection bandwidth must be at least 1")
            }
            EngineError::ZeroCongestionLimit => {
                write!(f, "congestion limit must be at least 1 when enabled")
            }
            EngineError::ZeroLengthMessage => {
                write!(f, "message length distribution allows zero-flit messages")
            }
            EngineError::TooManyVcs { vcs } => {
                write!(
                    f,
                    "{vcs} virtual channels per physical channel exceeds the supported 255 \
                     (reduce vc replicas or the network diameter)"
                )
            }
            EngineError::TooManyFlits(flits) => write!(f, "{flits} flits is over 65535"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Routing(e) => Some(e),
            EngineError::Traffic(e) => Some(e),
            EngineError::Faults(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RoutingError> for EngineError {
    fn from(e: RoutingError) -> Self {
        EngineError::Routing(e)
    }
}

impl From<TrafficError> for EngineError {
    fn from(e: TrafficError) -> Self {
        EngineError::Traffic(e)
    }
}

impl From<FaultPlanError> for EngineError {
    fn from(e: FaultPlanError) -> Self {
        EngineError::Faults(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = EngineError::from(RoutingError::UnknownAlgorithm { name: "x".into() });
        assert!(e.to_string().contains("routing"));
        assert!(e.source().is_some());
        assert!(EngineError::ZeroBufferDepth.source().is_none());
    }
}
