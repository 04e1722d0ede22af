//! A flit-level, cycle-driven simulator for wormhole, virtual-cut-through,
//! and store-and-forward switching on tori and meshes.
//!
//! This is the substrate of the ISCA '93 reproduction: a [`Network`] wires a
//! topology, one of the six routing algorithms, and a traffic pattern into a
//! synchronous flit-level model with
//!
//! * **virtual channels** per physical channel (one or more physical VCs per
//!   routing class), with credit-based flow control,
//! * **time-multiplexed physical channels** — at most one flit per channel
//!   per cycle, `f_t = 1`, shared round-robin among ready VCs,
//! * three switching disciplines ([`Switching`]): wormhole (small per-VC
//!   flit buffers), virtual cut-through (message-sized buffers, blocked
//!   messages accumulate), and store-and-forward (forwarding waits for the
//!   full message),
//! * the paper's **input-buffer-limit congestion control**: a node may hold
//!   at most `limit` un-injected messages per message class; excess
//!   generation is refused,
//! * a **deadlock watchdog** that flags windows without forward progress.
//!
//! Each cycle proceeds in deterministic phases, one file each under
//! `src/network/`, run in this order by [`Network::step`] (`mod.rs`):
//!
//! * arrivals → injection-VC assignment: `inject.rs`
//! * routing & VC allocation, blocked heads asleep: `route.rs`
//! * switch allocation and the injection budget: `allocate.rs`
//! * ejections and flit transfers: `advance.rs`
//! * fault transitions, livelock guard, wait-for forensics: `faults.rs`
//! * the input VCs they share, sized by occupancy, not class count: `vc.rs`
//!
//! [`ObserverHandle`] (`observer.rs`) configures the trace, sample and
//! metrics instruments. All transfer decisions read start-of-cycle state,
//! so results do not depend on iteration order within a phase.
//!
//! # Example
//!
//! ```
//! use wormsim_engine::{NetworkBuilder, Switching};
//! use wormsim_topology::Topology;
//! use wormsim_routing::AlgorithmKind;
//! use wormsim_traffic::{TrafficConfig, ArrivalProcess, MessageLength};
//!
//! let mut net = NetworkBuilder::new(Topology::torus(&[8, 8]), AlgorithmKind::PositiveHop)
//!     .traffic(TrafficConfig::Uniform)
//!     .arrival(ArrivalProcess::geometric(0.005)?)
//!     .message_length(MessageLength::fixed(16)?)
//!     .seed(1)
//!     .build()?;
//!
//! net.run(5_000);
//! let m = net.metrics();
//! assert!(m.delivered > 0);
//! assert!(net.deadlock_report().is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod config;
mod error;
mod flit;
mod message;
mod metrics;
mod network;
mod observer;
mod trace;
mod vc;

pub use cancel::CancelToken;
pub use config::{EjectionModel, NetworkBuilder, SelectionPolicy, SimConfig, Switching};
pub use error::EngineError;
pub use flit::{Flit, FlitKind, MessageId};
pub use metrics::{DeliveredMessage, Metrics};
pub use network::{DeadlockReport, LivelockReport, Network};
pub use observer::{ObserverHandle, DEFAULT_TRACE_CAPACITY};
pub use trace::TraceEvent;

/// The observability layer (sinks, samples, manifests), re-exported so
/// engine users need no direct `wormsim-observe` dependency.
pub use wormsim_observe as observe;

/// The fault-injection layer (plans, regions, reachability), re-exported
/// so engine users need no direct `wormsim-faults` dependency.
pub use wormsim_faults as faults;
