//! Message-lifecycle tracing.
//!
//! When enabled, the [`Network`](crate::Network) records one
//! [`TraceEvent`] per message milestone — generation, refusal, injection,
//! every hop, delivery — and dispatches it to the configured
//! [`EventSink`](wormsim_observe::EventSink). The default sink installed by
//! [`observer().trace_ring()`](crate::ObserverHandle::trace_ring) is a
//! bounded ring holding the most recent
//! [`DEFAULT_TRACE_CAPACITY`](crate::DEFAULT_TRACE_CAPACITY)
//! events (older events are evicted and counted), so tracing is safe to
//! leave on for long saturated runs; stream to a
//! [`JsonlSink`](wormsim_observe::JsonlSink) via
//! [`observer().trace_into(sink)`](crate::ObserverHandle::trace_into) when
//! the full history matters. The cost when disabled is one branch per
//! event site.
//!
//! Events serialize as line JSON through
//! [`JsonRecord`](wormsim_observe::JsonRecord) with a `"type":"trace"` tag
//! and an `"event"` discriminant, and parse back via
//! [`TraceEvent::from_json`].

use crate::{FlitKind, MessageId};
use wormsim_observe::json::Value;
use wormsim_observe::{json_union, Json};
use wormsim_topology::{Direction, NodeId};

/// One message milestone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message was accepted into its source queue.
    Generated {
        /// Simulation cycle.
        cycle: u64,
        /// The new message.
        msg: MessageId,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dest: NodeId,
        /// Length in flits.
        length: u32,
    },
    /// Congestion control refused a would-be message.
    Refused {
        /// Simulation cycle.
        cycle: u64,
        /// The node whose message was refused.
        src: NodeId,
        /// The congestion-control class that was full.
        class: u32,
    },
    /// A message left its source queue for an injection virtual channel.
    InjectionStarted {
        /// Simulation cycle.
        cycle: u64,
        /// The message.
        msg: MessageId,
    },
    /// A message's head flit left a node (one routing hop decided).
    HopTaken {
        /// Simulation cycle.
        cycle: u64,
        /// The message.
        msg: MessageId,
        /// The node the head departed from.
        from: NodeId,
        /// The direction travelled.
        direction: Direction,
        /// The virtual-channel class used.
        vc_class: u8,
    },
    /// A flit was consumed at the destination; `kind` tells which one
    /// (the tail flit completes the message).
    FlitDelivered {
        /// Simulation cycle.
        cycle: u64,
        /// The message.
        msg: MessageId,
        /// Which flit arrived.
        kind: FlitKind,
    },
    /// The whole message was delivered.
    Delivered {
        /// Simulation cycle.
        cycle: u64,
        /// The message.
        msg: MessageId,
        /// End-to-end latency in cycles.
        latency: u64,
    },
}

impl TraceEvent {
    /// The cycle the event occurred in.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Generated { cycle, .. }
            | TraceEvent::Refused { cycle, .. }
            | TraceEvent::InjectionStarted { cycle, .. }
            | TraceEvent::HopTaken { cycle, .. }
            | TraceEvent::FlitDelivered { cycle, .. }
            | TraceEvent::Delivered { cycle, .. } => cycle,
        }
    }

    /// The message the event concerns, if any (refusals have none — the
    /// message was never created).
    pub fn msg(&self) -> Option<MessageId> {
        match *self {
            TraceEvent::Generated { msg, .. }
            | TraceEvent::InjectionStarted { msg, .. }
            | TraceEvent::HopTaken { msg, .. }
            | TraceEvent::FlitDelivered { msg, .. }
            | TraceEvent::Delivered { msg, .. } => Some(msg),
            TraceEvent::Refused { .. } => None,
        }
    }

    /// Reconstructs an event from its parsed JSON form.
    ///
    /// # Errors
    ///
    /// Reports an unknown event tag or a missing, mistyped or out-of-range
    /// field.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        Self::read(value)
    }
}

json_union!(TraceEvent as "trace", "event" {
    Generated = "generated" { cycle, msg, src, dest, length },
    Refused = "refused" { cycle, src, class },
    InjectionStarted = "injection_started" { cycle, msg },
    HopTaken = "hop" { cycle, msg, from, direction, vc_class },
    FlitDelivered = "flit_delivered" { cycle, msg, kind },
    Delivered = "delivered" { cycle, msg, latency },
});

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_observe::JsonRecord;

    fn id(index: u32) -> MessageId {
        MessageId::from_index(index).unwrap()
    }

    #[test]
    fn accessors() {
        let e = TraceEvent::Refused {
            cycle: 7,
            src: NodeId::new(1),
            class: 2,
        };
        assert_eq!(e.cycle(), 7);
        assert_eq!(e.msg(), None);
        let e = TraceEvent::Delivered {
            cycle: 9,
            msg: id(3),
            latency: 20,
        };
        assert_eq!(e.cycle(), 9);
        assert_eq!(e.msg(), Some(id(3)));
    }

    #[test]
    fn json_round_trip_all_variants() {
        let events = [
            TraceEvent::Generated {
                cycle: 1,
                msg: id(9),
                src: NodeId::new(3),
                dest: NodeId::new(12),
                length: 16,
            },
            TraceEvent::Refused {
                cycle: 2,
                src: NodeId::new(4),
                class: 1,
            },
            TraceEvent::InjectionStarted {
                cycle: 3,
                msg: id(9),
            },
            TraceEvent::HopTaken {
                cycle: 4,
                msg: id(9),
                from: NodeId::new(3),
                direction: Direction::from_index(2),
                vc_class: 1,
            },
            TraceEvent::FlitDelivered {
                cycle: 5,
                msg: id(9),
                kind: FlitKind::Tail,
            },
            TraceEvent::Delivered {
                cycle: 6,
                msg: id(9),
                latency: 21,
            },
        ];
        for event in events {
            let parsed = wormsim_observe::json::from_str(&event.to_json()).unwrap();
            assert_eq!(TraceEvent::from_json(&parsed).unwrap(), event, "{event:?}");
        }
    }

    #[test]
    fn from_json_rejects_unknown_tags() {
        let v =
            wormsim_observe::json::from_str("{\"type\":\"trace\",\"cycle\":0,\"event\":\"warp\"}")
                .unwrap();
        assert!(TraceEvent::from_json(&v).is_err());
        let v = wormsim_observe::json::from_str("{\"type\":\"sample\"}").unwrap();
        assert!(TraceEvent::from_json(&v).is_err());
    }

    #[test]
    fn from_json_rejects_an_out_of_range_direction_instead_of_panicking() {
        let line = r#"{"type":"trace","event":"hop","cycle":4,"msg":9,"from":3,"direction":1000,"vc_class":1}"#;
        let err = TraceEvent::from_json(&wormsim_observe::json::from_str(line).unwrap())
            .expect_err("direction 1000 is dimension 500");
        assert!(err.contains("'direction'"), "{err}");
    }
}
