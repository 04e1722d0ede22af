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
//!
//! The sampler and the registry count nothing the network already counts.
//! The network's [`Metrics`] are cumulative, and so is the one per-channel
//! flit count kept here while either instrument is installed. Each
//! instrument keeps a [`Snapshot`] of both: a sample is the difference
//! between the snapshot at the start of its window and the counts at its
//! end, and a registry's report is the difference since it was installed.
//! [`Network::reset_metrics`](crate::Network::reset_metrics) moves only the
//! network's own baseline, so it cannot cut a window short.

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

/// The cumulative counters at one instant: the start of a sampling
/// window, or the moment a registry was installed.
pub(crate) struct Snapshot {
    pub(crate) metrics: Metrics,
    pub(crate) channel_flits: Vec<u64>,
}

/// The periodic time-series sampler. Each sample reports the counts
/// gained since `base`, the snapshot taken at the start of its window
/// (cycle `base.metrics.cycles`: the cumulative cycle count is the clock).
pub(crate) struct SamplerState {
    /// Cycles between samples.
    pub(crate) every: u64,
    /// Destination for emitted [`Sample`] records.
    pub(crate) sink: Box<dyn EventSink<Sample>>,
    /// The counters at the start of the current window.
    pub(crate) base: Snapshot,
}

/// An installed [`MetricsRegistry`] and the counters when it was
/// installed: its report covers what happened since.
pub(crate) struct RegistryState {
    pub(crate) registry: MetricsRegistry,
    pub(crate) base: Snapshot,
}

/// One network's observability instruments. The sampler and registry are
/// boxed, so an instrument that is off costs a null pointer.
#[derive(Default)]
pub(crate) struct Observers {
    pub(crate) sampler: Option<Box<SamplerState>>,
    /// Deep-telemetry instruments (blocked requesters, allocation
    /// failures, latency histogram, phase profiler).
    pub(crate) registry: Option<Box<RegistryState>>,
    /// Flit transfers per channel, cumulative while the sampler or the
    /// registry is installed; empty (and never counted into) otherwise.
    pub(crate) channel_flits: Vec<u64>,
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

    /// The counters now, starting the per-channel count (`channels`
    /// channels) if no instrument has yet.
    fn snapshot(&mut self, metrics: &Metrics, channels: usize) -> Snapshot {
        if self.channel_flits.is_empty() {
            self.channel_flits = vec![0; channels];
        }
        Snapshot {
            metrics: metrics.clone(),
            channel_flits: self.channel_flits.clone(),
        }
    }

    /// Stops the per-channel count once no instrument reads it.
    fn release_channel_flits(&mut self) {
        if self.sampler.is_none() && self.registry.is_none() {
            self.channel_flits = Vec::new();
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
    /// The network's cumulative counters: a new sampler's first window
    /// and a new registry's report open here.
    pub(crate) metrics: &'a Metrics,
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
    /// VC occupancy; [`reset_metrics`](crate::Network::reset_metrics)
    /// does not move a window.
    pub fn sample(self, every: u64, sink: Box<dyn EventSink<Sample>>) -> Self {
        let base = self.obs.snapshot(self.metrics, self.channels);
        self.obs.sampler = Some(Box::new(SamplerState {
            every: every.max(1),
            sink,
            base,
        }));
        self
    }

    /// Stops sampling, returning the sink (so callers can flush it or
    /// read its drop counter). `None` if sampling was off.
    pub fn sample_off(self) -> Option<Box<dyn EventSink<Sample>>> {
        let sampler = self.obs.sampler.take();
        self.obs.release_channel_flits();
        sampler.map(|sampler| sampler.sink)
    }

    /// Installs a deep-telemetry [`MetricsRegistry`] sized for this
    /// network: per-channel/per-VC-class blocking and allocation-failure
    /// counters, a latency histogram, and the per-phase cycle profiler.
    /// Read it with
    /// [`Network::metrics_report`](crate::Network::metrics_report), or
    /// take it with [`metrics_off`](Self::metrics_off). An already
    /// installed registry (and its counts) is kept.
    pub fn metrics_on(self) -> Self {
        if self.obs.registry.is_none() {
            let classes = self.metrics.class_flits.len();
            let base = self.obs.snapshot(self.metrics, self.channels);
            self.obs.registry = Some(Box::new(RegistryState {
                registry: MetricsRegistry::new(self.channels, classes),
                base,
            }));
        }
        self
    }

    /// Uninstalls and returns the registry; `None` if metrics were off.
    pub fn metrics_off(self) -> Option<Box<MetricsRegistry>> {
        let state = self.obs.registry.take();
        self.obs.release_channel_flits();
        state.map(|state| Box::new(state.registry))
    }
}
