//! `wormsim-observe` — the observability spine of the wormsim stack.
//!
//! The simulator's validity claims rest on steady-state measurements; this
//! crate makes those measurements *inspectable* instead of trusting them
//! blind. It provides four pieces, each usable on its own:
//!
//! * **Event sinks** ([`EventSink`]): a pluggable destination for
//!   per-event records. [`NullSink`] discards, [`RingSink`] keeps the last
//!   N events with a `dropped_events` counter (bounding the old
//!   grow-forever trace buffer), and [`JsonlSink`] streams records as
//!   line-delimited JSON. The engine dispatches trace events and samples
//!   through this trait at a cost of one branch per event site when
//!   disabled.
//! * **Time-series samples** ([`Sample`]): a typed snapshot of what the
//!   network is doing over a window of cycles — queue depths, per-VC-class
//!   occupancy, per-channel flit load, and the resettable counter deltas.
//!   A stream of samples is the data behind a channel-load heatmap or a
//!   latency-vs-time convergence plot.
//! * **Phase timing** ([`PhaseTimings`], [`Stopwatch`]): lightweight
//!   wall-clock spans over the phases of a run (warmup, measurement, gaps,
//!   drain), standing in for `tracing` spans in this no-dependency build.
//! * **Run manifests** ([`RunManifest`]): a JSON sidecar written next to
//!   results capturing what produced them — config hash, seed,
//!   `git describe`, cycle counts, and the simulator's own throughput in
//!   cycles/sec and flits/sec.
//!
//! # One codec
//!
//! Every record in the stack — samples, manifests, metrics, wait-for
//! evidence here; trace events, run results, the worker wire and the run
//! journal above — serializes through the one [`Json`] codec in this
//! crate (no allocation beyond one reused line buffer) and parses back
//! through [`json`]. A record is declared once:
//!
//! ```
//! # struct Reading { cycle: u64, mean: f64, attempts: u64, note: Option<String> }
//! wormsim_observe::json_record!(Reading as "reading" {
//!     cycle,          // required
//!     mean,           // f64: the one bit-exact spelling (below)
//!     attempts = 1,   // always written; absent reads as the default
//!     note?,          // Option written only when Some
//! });
//! ```
//!
//! and gets its writer ([`JsonRecord::write_json`]), its reader
//! (`Reading::from_json`) and its nested form from that one field list.
//! [`json_union!`] declares an internally tagged enum the same way,
//! [`json_tags!`] a unit enum; shapes that are not their Rust shape build
//! on [`JsonObject::field`] and [`json::Value::field`] by hand. Floats
//! have one spelling — shortest round-trip text when finite, a quoted
//! `inf`/`-inf`/`nan` otherwise — so every float is read back bit-exactly,
//! and the parser refuses input nested deeper than [`json::MAX_DEPTH`].
//!
//! # Example
//!
//! ```
//! use wormsim_observe::{EventSink, RingSink, Sample};
//!
//! let mut sink: RingSink<u64> = RingSink::new(2);
//! sink.record(&1);
//! sink.record(&2);
//! sink.record(&3); // evicts 1
//! assert_eq!(sink.dropped_events(), 1);
//! assert_eq!(sink.drain(), vec![2, 3]);
//! # let _ = Sample::default();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atomic;
mod codec;
mod config;
pub mod json;
mod manifest;
mod metrics;
mod sample;
mod sink;
mod span;

pub use atomic::atomic_write;
pub use codec::{Json, JsonObject, JsonRecord};
pub use config::ObserveConfig;
pub use manifest::{fnv1a_hex, git_describe, PhaseRecord, RunManifest};
pub use metrics::{
    heatmap_csv, HistogramRecord, MetricsRegistry, MetricsReport, Pow2Histogram, WaitForEdge,
    WaitForSnapshot, WaitKind, PHASE_ADVANCE, PHASE_ALLOCATE, PHASE_DRAIN, PHASE_INJECT,
    PHASE_NAMES, PHASE_ROUTE,
};
pub use sample::Sample;
pub use sink::{EventSink, JsonlSink, NullSink, RingSink};
pub use span::{PhaseTimings, Stopwatch};
