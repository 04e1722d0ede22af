//! The engine's observability state, [`Observers`], and
//! [`ObserverHandle`], the builder-style entry point that configures it.
//!
//! A network carries three optional instruments — a trace sink, a
//! time-series sampler and a deep-telemetry registry — each costing the hot
//! path one untaken branch per event site while off:
//!
//! ```
//! use wormsim_engine::{NetworkBuilder, Switching};
//! use wormsim_engine::observe::{JsonlSink, Sample};
//! use wormsim_topology::Topology;
//! use wormsim_routing::AlgorithmKind;
//!
//! let mut net = NetworkBuilder::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
//!     .build()
//!     .unwrap();
//! net.observer()
//!     .trace_ring_with_capacity(64)
//!     .sample(250, Box::new(JsonlSink::new(Vec::new())));
//! net.run(500);
//! let samples = net.observer().sample_off().expect("sampler was on");
//! # let _ = samples;
//! ```

use crate::metrics::Metrics;
use crate::trace::TraceEvent;
use wormsim_observe::{EventSink, MetricsRegistry, RingSink, Sample};

/// Capacity of the bounded trace ring installed by
/// [`observer().trace_ring()`](ObserverHandle::trace_ring): generous for
/// short diagnostic runs, small enough that a saturated multi-hour run
/// cannot exhaust memory. When the ring is full the oldest event is
/// evicted and counted in
/// [`Network::dropped_trace_events`](crate::Network::dropped_trace_events);
/// size the ring explicitly with
/// [`trace_ring_with_capacity`](ObserverHandle::trace_ring_with_capacity),
/// or stream everything with [`trace_into`](ObserverHandle::trace_into).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Where trace events go: nowhere, a bounded ring, or a caller-supplied
/// sink (typically a JSONL stream).
#[derive(Default)]
pub(crate) enum TraceSink {
    #[default]
    Off,
    Ring(RingSink<TraceEvent>),
    Custom(Box<dyn EventSink<TraceEvent>>),
}

/// The periodic time-series sampler. Each sample reports counter deltas
/// over its window; [`Network::reset_metrics`](crate::Network::reset_metrics)
/// can zero the counters mid-window, so the deltas accumulated before a
/// reset are folded into `carry` and no flit is lost from the stream.
pub(crate) struct SamplerState {
    /// Cycles between samples.
    pub(crate) every: u64,
    /// Destination for emitted [`Sample`] records.
    pub(crate) sink: Box<dyn EventSink<Sample>>,
    /// Cycle of the last emission (start of the current window).
    pub(crate) last_cycle: u64,
    /// Sum of latencies of messages delivered in the current window.
    pub(crate) latency_sum: u64,
    /// Flit transfers per channel in the current window.
    pub(crate) channel_flits: Vec<u64>,
    /// Deltas folded in across metric resets within the window.
    pub(crate) carry: Metrics,
    /// Metrics values at the start of the window (or last reset).
    pub(crate) base: Metrics,
}

/// One network's observability instruments. The sampler and registry are
/// boxed so the per-flit "is it on?" checks read two adjacent pointers.
#[derive(Default)]
pub(crate) struct Observers {
    pub(crate) sampler: Option<Box<SamplerState>>,
    /// Deep-telemetry instruments (per-channel/per-class counters, latency
    /// histogram, phase profiler).
    pub(crate) registry: Option<Box<MetricsRegistry>>,
    pub(crate) events: TraceSink,
}

impl Observers {
    #[inline]
    pub(crate) fn trace(&mut self, event: TraceEvent) {
        match &mut self.events {
            TraceSink::Off => {}
            TraceSink::Ring(ring) => ring.record(&event),
            TraceSink::Custom(sink) => sink.record(&event),
        }
    }
}

/// A short-lived, builder-style handle over one network's observability
/// state (tracing, time-series sampling and the metrics registry).
///
/// Obtained from [`Network::observer`](crate::Network::observer);
/// configuration methods consume and return the handle so calls chain,
/// while the teardown methods ([`take_trace_sink`](Self::take_trace_sink),
/// [`sample_off`](Self::sample_off), [`metrics_off`](Self::metrics_off))
/// consume it and hand back what they removed.
pub struct ObserverHandle<'a> {
    pub(crate) obs: &'a mut Observers,
    /// The network's live counters: a new sampler's first window opens here.
    pub(crate) metrics: &'a Metrics,
    pub(crate) cycle: u64,
    /// Output channels of the network (`nodes × 2n`).
    pub(crate) channels: usize,
}

impl ObserverHandle<'_> {
    /// Buffers message-lifecycle trace events in a bounded in-memory ring
    /// of [`DEFAULT_TRACE_CAPACITY`] events; read them back with
    /// [`Network::drain_trace`](crate::Network::drain_trace). An already
    /// installed ring (and its contents) is kept.
    pub fn trace_ring(self) -> Self {
        if !matches!(self.obs.events, TraceSink::Ring(_)) {
            self.obs.events = TraceSink::Ring(RingSink::new(DEFAULT_TRACE_CAPACITY));
        }
        self
    }

    /// Like [`trace_ring`](Self::trace_ring) but with an explicit ring
    /// capacity (clamped to at least 1). Replaces any installed sink.
    pub fn trace_ring_with_capacity(self, capacity: usize) -> Self {
        self.obs.events = TraceSink::Ring(RingSink::new(capacity));
        self
    }

    /// Routes trace events into a caller-supplied sink — typically a
    /// [`JsonlSink`](wormsim_observe::JsonlSink) when the full event
    /// stream matters. Replaces any installed ring.
    pub fn trace_into(self, sink: Box<dyn EventSink<TraceEvent>>) -> Self {
        self.obs.events = TraceSink::Custom(sink);
        self
    }

    /// Turns tracing off and discards any buffered events.
    pub fn trace_off(self) -> Self {
        self.obs.events = TraceSink::Off;
        self
    }

    /// Removes and returns a sink installed via
    /// [`trace_into`](Self::trace_into), turning tracing off. Returns
    /// `None` (leaving the state untouched) when tracing is off or backed
    /// by the built-in ring.
    pub fn take_trace_sink(self) -> Option<Box<dyn EventSink<TraceEvent>>> {
        match std::mem::replace(&mut self.obs.events, TraceSink::Off) {
            TraceSink::Custom(sink) => Some(sink),
            other => {
                self.obs.events = other;
                None
            }
        }
    }

    /// Starts emitting one [`Sample`] into `sink` every `every` cycles
    /// (clamped to at least 1), replacing any previous sampler. Each
    /// sample carries the counter deltas for its window, per-channel flit
    /// counts included, plus an instantaneous snapshot of queue depths and
    /// VC occupancy; windows survive
    /// [`reset_metrics`](crate::Network::reset_metrics) unharmed.
    pub fn sample(self, every: u64, sink: Box<dyn EventSink<Sample>>) -> Self {
        self.obs.sampler = Some(Box::new(SamplerState {
            every: every.max(1),
            sink,
            last_cycle: self.cycle,
            latency_sum: 0,
            channel_flits: vec![0; self.channels],
            carry: Metrics::new(self.metrics.class_flits.len()),
            base: self.metrics.clone(),
        }));
        self
    }

    /// Stops sampling, returning the sink (so callers can flush it or
    /// read its drop counter). `None` if sampling was off.
    pub fn sample_off(self) -> Option<Box<dyn EventSink<Sample>>> {
        self.obs.sampler.take().map(|sampler| sampler.sink)
    }

    /// Installs a deep-telemetry [`MetricsRegistry`] sized for this
    /// network: per-channel/per-VC-class counters, a latency histogram,
    /// and the per-phase cycle profiler. Read it back with
    /// [`Network::metrics_registry`](crate::Network::metrics_registry), or
    /// take it with [`metrics_off`](Self::metrics_off). An already
    /// installed registry (and its counts) is kept.
    pub fn metrics_on(self) -> Self {
        let classes = self.metrics.class_flits.len();
        self.obs
            .registry
            .get_or_insert_with(|| Box::new(MetricsRegistry::new(self.channels, classes)));
        self
    }

    /// Uninstalls and returns the registry; `None` if metrics were off.
    pub fn metrics_off(self) -> Option<Box<MetricsRegistry>> {
        self.obs.registry.take()
    }
}
