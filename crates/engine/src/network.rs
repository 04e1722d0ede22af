//! The [`Network`]: a synchronous flit-level simulator.

use crate::config::{EjectionModel, SelectionPolicy, SimConfig, Switching};
use crate::flit::{Flit, MessageId};
use crate::message::{MessageRec, MessageSlab};
use crate::metrics::{DeliveredMessage, Metrics};
use crate::observer::ObserverHandle;
use crate::vc::{InputVc, RouteTarget};
use crate::{EngineError, TraceEvent};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use wormsim_faults::Reachability;
use wormsim_observe::{
    EventSink, MetricsRegistry, RingSink, Sample, WaitForEdge, WaitForSnapshot, WaitKind,
    PHASE_ADVANCE, PHASE_ALLOCATE, PHASE_DRAIN, PHASE_INJECT, PHASE_ROUTE,
};
use wormsim_routing::{Adaptivity, Candidate, MessageRouteState, RoutingAlgorithm};
use wormsim_topology::{ChannelMask, Direction, NodeId, Topology};
use wormsim_traffic::{SimRng, TrafficPattern};

/// Capacity of the bounded trace ring installed by
/// [`observer().trace_ring()`](ObserverHandle::trace_ring): generous for
/// short diagnostic runs, small enough that a saturated multi-hour run
/// cannot exhaust memory. When the ring is full the oldest event is
/// evicted and counted in [`Network::dropped_trace_events`]; size the ring
/// explicitly with
/// [`trace_ring_with_capacity`](ObserverHandle::trace_ring_with_capacity),
/// or stream everything with [`trace_into`](ObserverHandle::trace_into).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Where trace events go: nowhere, a bounded ring, or a caller-supplied
/// sink (typically a JSONL stream).
enum TraceSink {
    Off,
    Ring(RingSink<TraceEvent>),
    Custom(Box<dyn EventSink<TraceEvent>>),
}

/// Windowed counter baselines for the sampler. The sampler reports *deltas*
/// over each window; because [`Network::reset_metrics`] can zero the
/// metrics mid-window, deltas accumulated before a reset are folded into
/// `carry` so no flits are lost from the sample stream.
#[derive(Clone, Debug, Default)]
struct WindowBase {
    generated: u64,
    refused: u64,
    delivered: u64,
    flit_hops: u64,
    flits_injected: u64,
    flits_ejected: u64,
    class_flits: Vec<u64>,
    channel_flits: Vec<u64>,
}

impl WindowBase {
    fn zeros(classes: usize, channels: usize) -> Self {
        WindowBase {
            class_flits: vec![0; classes],
            channel_flits: vec![0; channels],
            ..WindowBase::default()
        }
    }

    fn clear(&mut self) {
        self.generated = 0;
        self.refused = 0;
        self.delivered = 0;
        self.flit_hops = 0;
        self.flits_injected = 0;
        self.flits_ejected = 0;
        self.class_flits.fill(0);
        self.channel_flits.fill(0);
    }

    fn copy_from(&mut self, metrics: &Metrics) {
        self.generated = metrics.generated;
        self.refused = metrics.refused;
        self.delivered = metrics.delivered;
        self.flit_hops = metrics.flit_hops;
        self.flits_injected = metrics.flits_injected;
        self.flits_ejected = metrics.flits_ejected;
        self.class_flits.copy_from_slice(&metrics.class_flits);
        if let Some(channels) = metrics.channel_flits.as_deref() {
            self.channel_flits.copy_from_slice(channels);
        }
    }

    /// Folds `metrics - base` into `self` (used as the carry accumulator).
    fn add_delta(&mut self, metrics: &Metrics, base: &WindowBase) {
        self.generated += metrics.generated.saturating_sub(base.generated);
        self.refused += metrics.refused.saturating_sub(base.refused);
        self.delivered += metrics.delivered.saturating_sub(base.delivered);
        self.flit_hops += metrics.flit_hops.saturating_sub(base.flit_hops);
        self.flits_injected += metrics.flits_injected.saturating_sub(base.flits_injected);
        self.flits_ejected += metrics.flits_ejected.saturating_sub(base.flits_ejected);
        for (acc, (&cur, &b)) in self
            .class_flits
            .iter_mut()
            .zip(metrics.class_flits.iter().zip(base.class_flits.iter()))
        {
            *acc += cur.saturating_sub(b);
        }
        if let Some(channels) = metrics.channel_flits.as_deref() {
            for (acc, (&cur, &b)) in self
                .channel_flits
                .iter_mut()
                .zip(channels.iter().zip(base.channel_flits.iter()))
            {
                *acc += cur.saturating_sub(b);
            }
        }
    }
}

/// The periodic time-series sampler (see [`Network::enable_sampling`]).
struct SamplerState {
    /// Cycles between samples.
    every: u64,
    /// Destination for emitted [`Sample`] records.
    sink: Box<dyn EventSink<Sample>>,
    /// Cycle of the last emission (start of the current window).
    last_cycle: u64,
    /// Sum of latencies of messages delivered in the current window.
    latency_sum: u64,
    /// Deltas folded in across metric resets within the window.
    carry: WindowBase,
    /// Metrics values at the start of the window (or last reset).
    base: WindowBase,
}

/// Reported when the watchdog observes no flit movement for the configured
/// number of cycles while flits are in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlockReport {
    /// The cycle at which the watchdog fired.
    pub detected_at: u64,
    /// The last cycle with any flit movement.
    pub last_progress: u64,
    /// Flits stuck in the network (including source-queued flits).
    pub flits_in_flight: u64,
    /// Messages alive at detection time.
    pub live_messages: usize,
}

wormsim_observe::json_record!(DeadlockReport {
    detected_at,
    last_progress,
    flits_in_flight,
    live_messages,
});

/// Reported when the livelock/starvation guard finds live messages over
/// the configured hop or age budget. Advisory at the engine level: the
/// simulation keeps running (higher layers decide whether to stop).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LivelockReport {
    /// The cycle the guard first found an over-budget message.
    pub detected_at: u64,
    /// Live messages over either budget at detection time.
    pub messages_over_budget: usize,
    /// Largest hop count among the offenders.
    pub max_hops: u32,
    /// Largest age in cycles among the offenders.
    pub max_age: u64,
}

wormsim_observe::json_record!(LivelockReport {
    detected_at,
    messages_over_budget,
    max_hops,
    max_age,
});

/// Cycles between livelock-guard scans of the live-message slab. The scan
/// is O(live messages), so it is strided rather than per-cycle; budgets are
/// therefore enforced with up to this much slack.
const LIVELOCK_CHECK_STRIDE: u64 = 256;

/// Runtime fault machinery; present only when the configuration carries a
/// non-empty [`FaultPlan`](wormsim_faults::FaultPlan).
struct FaultState {
    /// Sorted cycles at which the mask changes (from
    /// [`FaultPlan::transition_cycles`](wormsim_faults::FaultPlan::transition_cycles)).
    transitions: Vec<u64>,
    /// Index of the next unapplied entry in `transitions`.
    next_transition: usize,
    /// The mask currently in effect.
    mask: ChannelMask,
    /// All-pairs reachability under `mask`.
    reach: Reachability,
    /// Messages held at their source because no live path to their
    /// destination exists, in ascending id order. They re-enter the source
    /// queue if a repair restores reachability.
    parked: Vec<MessageId>,
    /// Flits belonging to parked messages (excluded from the watchdog's
    /// notion of "in flight").
    parked_flits: u64,
}

/// Per-node simulation state.
#[derive(Debug, Default)]
struct NodeState {
    /// Messages accepted but not yet assigned to an injection VC.
    queue: VecDeque<MessageId>,
    /// Congestion-control occupancy per message class.
    class_counts: HashMap<u32, u32>,
    /// Injection VCs currently streaming a message (VC indices).
    streaming_inj: Vec<u16>,
    /// Round-robin pointer over `streaming_inj` for the injection budget.
    inj_rr: usize,
    /// Round-robin pointer for single-channel ejection.
    ej_rr: usize,
}

/// A decided link transfer: input VC `ivc` sends one flit over the output
/// channel of `node` in packed direction `dir`, on physical VC `vc`.
#[derive(Clone, Copy, Debug)]
struct LinkMove {
    ivc: u32,
    node: u32,
    dir: u8,
    vc: u16,
}

/// Decoded `(node, port, vc)` of an input VC index, precomputed so hot
/// paths avoid the divisions of [`Network::ivc_parts`].
#[derive(Clone, Copy, Debug)]
struct IvcMeta {
    node: u32,
    vc: u16,
    port: u8,
}

/// A routed input VC waiting on an output channel. Everything the
/// switch-allocation inner loop needs is precomputed at routing time so
/// arbitration touches only this entry, the occupancy shadow, and the
/// output VC's credits. Kept at 8 bytes (the output-VC index is derived
/// from the channel's row base plus `vc`, not stored) so a channel's whole
/// request row fits in one or two cache lines on large networks.
#[derive(Clone, Copy, Debug, Default)]
struct OutputRequest {
    ivc: u32,
    vc: u16,
    from_injection: bool,
}

/// An input VC whose front head still needs a route.
///
/// A head that failed VC allocation because every admissible output VC of
/// every candidate was owned cannot succeed until one of those channels
/// releases a VC, so it *sleeps*: `dirs` records the candidate directions
/// of the failed attempt and [`Network::phase_route`] skips the entry —
/// touching neither the buffer, the slab nor the routing function — until
/// [`Network::ch_freed_at`] shows a release on one of them.
#[derive(Clone, Copy, Debug)]
struct PendingHead {
    ivc: u32,
    /// The node `ivc` belongs to, so the wake-up check needs no lookup.
    node: u32,
    /// Bit `d` set ⟺ direction `d` was a candidate of the attempt that
    /// failed at `failed_at`. Zero means awake: retry next cycle.
    dirs: u32,
    /// Cycle of the failed attempt behind `dirs`.
    failed_at: u64,
}

/// What [`Network::try_route`] did with a pending head.
enum RouteOutcome {
    /// The head has a route and leaves `pending_route`.
    Routed,
    /// The head stays pending. `dirs` is the candidate-direction mask when
    /// the attempt failed on owned output VCs and the head may sleep (see
    /// [`PendingHead`]), zero when it must simply retry next cycle.
    Failed { dirs: u32 },
}

/// A fixed-size bitmap worklist. Iterating set bits visits indices in
/// ascending order — for free, every cycle — which is what keeps the
/// event-driven phases bit-identical to the full scans they replace.
///
/// A second-level `summary` bitmap (one bit per word) lets the phase loops
/// skip empty words without touching them, so a quiet cycle costs
/// O(active + words/64) rather than O(words): at 4096 nodes the injection
/// scan drops from 64 word loads to one summary load.
#[derive(Clone, Debug)]
struct BitSet {
    words: Vec<u64>,
    /// Bit `w` set ⟺ `words[w] != 0`. Maintained by [`BitSet::insert`] and
    /// [`BitSet::set_word`].
    summary: Vec<u64>,
}

impl BitSet {
    fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        BitSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, index: usize) {
        let w = index / 64;
        self.words[w] |= 1u64 << (index % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
    }

    /// Replaces word `w`, keeping the summary invariant. The phase loops
    /// call this after draining a word so cleared words fall out of future
    /// summary scans.
    #[inline]
    fn set_word(&mut self, w: usize, value: u64) {
        self.words[w] = value;
        if value == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        } else {
            self.summary[w / 64] |= 1u64 << (w % 64);
        }
    }
}

/// The assembled network simulator.
///
/// See the [crate docs](crate) for the cycle structure and an example.
pub struct Network {
    cfg: SimConfig,
    topo: Topology,
    algo: Box<dyn RoutingAlgorithm>,
    pattern: Box<dyn TrafficPattern>,
    /// Routing VC classes per physical channel.
    classes: usize,
    /// Physical VCs per class.
    replicas: usize,
    /// Physical VCs per channel (`classes * replicas`).
    vcs: usize,
    /// Outgoing directions per node (`2n`).
    dirs: usize,
    /// Input ports per node (`2n` links + 1 injection).
    ports: usize,
    /// Per-VC input buffer capacity in flits.
    capacity: u32,

    input_vcs: Vec<InputVc>,
    /// Reservation per output VC: the message currently holding it.
    out_owner: Vec<Option<MessageId>>,
    /// Credits per output VC (free slots in the paired downstream input
    /// buffer). Kept as a bare array — separate from `out_owner` — so the
    /// switch-allocation credit checks stay in a compact, cache-friendly
    /// range.
    out_credits: Vec<u32>,
    /// Input VCs currently routed to each output channel, as a flat
    /// channel-major matrix with `vcs` slots per channel (a requester holds
    /// one of the channel's `vcs` output-VC reservations, so a row can
    /// never overflow). Row occupancy lives in `request_len`. Fixed storage
    /// — no per-channel `Vec`s to reallocate or chase through.
    requests: Vec<OutputRequest>,
    /// Number of live entries in each channel's request row. `u8` is
    /// enough: a row holds at most `vcs` entries and assembly rejects
    /// configurations with more than 255 VCs per channel.
    request_len: Vec<u8>,
    /// Round-robin pointer per output channel. Bounded by `vcs`, so it
    /// shares `request_len`'s `u8` range.
    out_rr: Vec<u8>,
    /// Input VCs whose front head still needs a route, in arrival order
    /// (the order fixes VC-allocation priority).
    pending_route: Vec<PendingHead>,
    /// Per output channel, the last cycle one of its VC reservations was
    /// released (a tail crossed it). Sleeping heads wake on it.
    ch_freed_at: Vec<u64>,
    /// Test-only: no head ever sleeps, i.e. the route phase retries every
    /// pending head every cycle. The reference the sleeping route phase is
    /// property-tested against.
    #[cfg(test)]
    always_retry: bool,
    /// Input VCs currently delivering to the local node.
    ejecting: Vec<u32>,
    /// Pending traffic arrivals as `Reverse((cycle, node))`: a min-heap so
    /// phase 1 only visits nodes that actually fire. Ties on the cycle pop
    /// in ascending node order, which preserves the RNG consumption order
    /// of the full per-node scan this replaces.
    arrival_heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Nodes with a non-empty source queue (worklist for phase 2).
    /// Invariant: a node's queue is non-empty ⟹ its bit is set; bits of
    /// drained nodes are cleared as the phase visits them.
    inj_dirty: BitSet,
    /// Output channels with at least one routed input VC (worklist for
    /// phase 4). Invariant: `requests[ch]` non-empty ⟹ bit set; channels
    /// whose request list drained are dropped lazily at the next
    /// switch-allocation pass.
    active_channels: BitSet,
    /// Nodes with at least one streaming injection VC (worklist for the
    /// injection budget). Invariant: `streaming_inj` non-empty ⟹ bit set;
    /// drained nodes are dropped lazily.
    active_inj_nodes: BitSet,
    /// Reused `(node, ivc)` buffer for single-channel ejection grouping.
    scratch_eject: Vec<(u32, u32)>,
    /// Decoded `(node, port, vc)` per input VC index.
    ivc_meta: Vec<IvcMeta>,
    /// Neighbor node per output channel (`u32::MAX` at mesh boundaries).
    neighbor_of: Vec<u32>,
    /// Owning `(node, dir)` per output channel index.
    ch_owner: Vec<(u32, u8)>,
    /// Routing class per physical VC (`vc / replicas`).
    vc_class: Vec<u8>,
    /// Buffer occupancy per input VC: a compact shadow of
    /// `input_vcs[i].buffer.len()` so the switch-allocation and
    /// injection-budget inner loops stay inside a few cache lines instead
    /// of chasing into the full [`InputVc`] structs.
    occ: Vec<u32>,
    nodes: Vec<NodeState>,
    slab: MessageSlab,

    metrics: Metrics,
    delivered: Vec<DeliveredMessage>,
    cycle: u64,
    flits_in_flight: u64,
    last_progress: u64,
    deadlock: Option<DeadlockReport>,
    faults: Option<FaultState>,
    livelock: Option<LivelockReport>,

    arrivals_rng: SimRng,
    dest_rng: SimRng,
    length_rng: SimRng,
    arb_rng: SimRng,

    scratch_candidates: Vec<Candidate>,
    scratch_moves: Vec<LinkMove>,
    marked_inj: Vec<bool>,
    marked_list: Vec<u32>,
    events: TraceSink,
    sampler: Option<SamplerState>,
    /// Deep-telemetry instruments (per-channel/per-class counters, latency
    /// histogram, phase profiler); `None` costs one branch per event site.
    registry: Option<Box<MetricsRegistry>>,
    /// Cooperative cancellation: checked on a stride by [`run`](Self::run)
    /// and [`run_until_empty`](Self::run_until_empty). `None` costs nothing.
    cancel: Option<crate::CancelToken>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topology", &self.topo.to_string())
            .field("algorithm", &self.algo.name())
            .field("cycle", &self.cycle)
            .field("flits_in_flight", &self.flits_in_flight)
            .field("live_messages", &self.slab.live())
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Assembles a network from a configuration.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] for invalid parameters, or if the routing
    /// algorithm / traffic pattern rejects the topology.
    pub fn new(cfg: SimConfig) -> Result<Self, EngineError> {
        let topo = cfg.topology.clone();
        let algo = cfg.algorithm.build(&topo)?;
        let pattern = cfg.traffic.build(&topo)?;
        Self::with_parts(cfg, algo, pattern)
    }

    /// Assembles a network with a *custom* routing algorithm and/or traffic
    /// pattern, bypassing the built-in registries. The `algorithm` and
    /// `traffic` fields of `cfg` are ignored in favor of the given parts.
    ///
    /// This is the extension point for experimenting with routing
    /// algorithms beyond the paper's six: implement
    /// [`RoutingAlgorithm`](wormsim_routing::RoutingAlgorithm) and hand it
    /// in (see the repository's `custom_algorithm` example).
    ///
    /// The engine relies on the trait's purity clause: `candidates` must be
    /// a function of `(topology, route state, node)` alone. A head that
    /// finds every admissible output VC owned is not re-routed until one of
    /// its candidate channels releases a VC, so an algorithm whose answer
    /// drifts with time or hidden state would keep the stale one.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] for invalid parameters.
    pub fn with_parts(
        cfg: SimConfig,
        algo: Box<dyn RoutingAlgorithm>,
        pattern: Box<dyn TrafficPattern>,
    ) -> Result<Self, EngineError> {
        cfg.validate()?;
        let topo = cfg.topology.clone();
        let faults = cfg.faults.as_ref().filter(|p| !p.is_empty()).map(|plan| {
            let mask = plan.mask_at(&topo, 0);
            let reach = Reachability::compute(&topo, &mask);
            FaultState {
                transitions: plan.transition_cycles(),
                next_transition: 0,
                mask,
                reach,
                parked: Vec::new(),
                parked_flits: 0,
            }
        });
        let classes = algo.num_vc_classes();
        let replicas = cfg.vc_replicas as usize;
        let vcs = classes * replicas;
        // Per-channel bookkeeping (`request_len`, `out_rr`) is `u8`; the
        // paper's deepest class ladder (phop on a 64×64 torus: 65 classes)
        // stays far inside the range, but reject the pathological
        // combinations rather than wrapping.
        if vcs > u8::MAX as usize {
            return Err(EngineError::TooManyVcs { vcs });
        }
        let dirs = topo.num_dims() * 2;
        let ports = dirs + 1;
        let n = topo.num_nodes() as usize;
        let capacity = cfg.buffer_capacity();

        let ivc_meta = (0..n * ports * vcs)
            .map(|i| {
                let vc = (i % vcs) as u16;
                let rest = i / vcs;
                IvcMeta {
                    node: (rest / ports) as u32,
                    vc,
                    port: (rest % ports) as u8,
                }
            })
            .collect();
        let neighbor_of = (0..n * dirs)
            .map(|ch| {
                let node = NodeId::new((ch / dirs) as u32);
                let dir = Direction::from_index(ch % dirs);
                topo.neighbor(node, dir).map_or(u32::MAX, |nb| nb.index())
            })
            .collect();
        let vc_class = (0..vcs).map(|vc| (vc / replicas) as u8).collect();
        let ch_owner = (0..n * dirs)
            .map(|ch| ((ch / dirs) as u32, (ch % dirs) as u8))
            .collect();

        let mut net = Network {
            input_vcs: (0..n * ports * vcs).map(|_| InputVc::default()).collect(),
            out_owner: vec![None; n * dirs * vcs],
            out_credits: vec![capacity; n * dirs * vcs],
            requests: vec![OutputRequest::default(); n * dirs * vcs],
            request_len: vec![0; n * dirs],
            out_rr: vec![0; n * dirs],
            pending_route: Vec::new(),
            ch_freed_at: vec![0; n * dirs],
            #[cfg(test)]
            always_retry: false,
            ejecting: Vec::new(),
            arrival_heap: BinaryHeap::with_capacity(n),
            inj_dirty: BitSet::new(n),
            active_channels: BitSet::new(n * dirs),
            active_inj_nodes: BitSet::new(n),
            scratch_eject: Vec::new(),
            ivc_meta,
            neighbor_of,
            ch_owner,
            vc_class,
            occ: vec![0; n * ports * vcs],
            nodes: (0..n).map(|_| NodeState::default()).collect(),
            slab: MessageSlab::default(),
            metrics: Metrics::new(classes, cfg.track_channel_load, n * dirs),
            delivered: Vec::new(),
            cycle: 0,
            flits_in_flight: 0,
            last_progress: 0,
            deadlock: None,
            faults,
            livelock: None,
            arrivals_rng: SimRng::stream(cfg.seed, 0),
            dest_rng: SimRng::stream(cfg.seed, 1),
            length_rng: SimRng::stream(cfg.seed, 2),
            arb_rng: SimRng::stream(cfg.seed, 3),
            scratch_candidates: Vec::with_capacity(64),
            scratch_moves: Vec::with_capacity(n * dirs),
            marked_inj: vec![false; n * ports * vcs],
            marked_list: Vec::new(),
            events: TraceSink::Off,
            sampler: None,
            registry: None,
            cancel: None,
            classes,
            replicas,
            vcs,
            dirs,
            ports,
            capacity,
            topo,
            algo,
            pattern,
            cfg,
        };
        net.schedule_initial_arrivals();
        Ok(net)
    }

    // ------------------------------------------------------------------
    // Indexing helpers.
    // ------------------------------------------------------------------

    #[inline]
    fn ivc_index(&self, node: u32, port: usize, vc: usize) -> u32 {
        ((node as usize * self.ports + port) * self.vcs + vc) as u32
    }

    #[inline]
    fn ivc_parts(&self, ivc: u32) -> (u32, usize, usize) {
        let meta = self.ivc_meta[ivc as usize];
        (meta.node, meta.port as usize, meta.vc as usize)
    }

    #[inline]
    fn ovc_index(&self, node: u32, dir: usize, vc: usize) -> usize {
        (node as usize * self.dirs + dir) * self.vcs + vc
    }

    #[inline]
    fn channel_index(&self, node: u32, dir: usize) -> usize {
        node as usize * self.dirs + dir
    }

    #[inline]
    fn injection_port(&self) -> usize {
        self.dirs
    }

    // ------------------------------------------------------------------
    // Public accessors.
    // ------------------------------------------------------------------

    /// The current cycle (completed steps).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Virtual-channel classes per physical channel (set by the algorithm).
    pub fn num_vc_classes(&self) -> usize {
        self.classes
    }

    /// Physical virtual channels per channel
    /// (`num_vc_classes × vc_replicas`).
    pub fn num_physical_vcs(&self) -> usize {
        self.vcs
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing algorithm in use.
    pub fn algorithm(&self) -> &dyn RoutingAlgorithm {
        self.algo.as_ref()
    }

    /// The traffic pattern in use.
    pub fn traffic_pattern(&self) -> &dyn TrafficPattern {
        self.pattern.as_ref()
    }

    /// Aggregate counters since the last [`reset_metrics`](Self::reset_metrics).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Zeroes the aggregate counters (network state is untouched). Used at
    /// sampling-period boundaries. The time-series sampler, if enabled,
    /// keeps its window deltas intact across the reset.
    pub fn reset_metrics(&mut self) {
        if let Some(sampler) = self.sampler.as_mut() {
            sampler.carry.add_delta(&self.metrics, &sampler.base);
            sampler.base.clear();
        }
        self.metrics.reset();
    }

    /// Takes the per-message delivery records accumulated so far.
    pub fn drain_delivered(&mut self) -> Vec<DeliveredMessage> {
        std::mem::take(&mut self.delivered)
    }

    /// Appends the accumulated delivery records to `out` and clears the
    /// internal buffer. Allocation-free variant of
    /// [`drain_delivered`](Self::drain_delivered) for drive loops that poll
    /// every sampling period.
    pub fn drain_delivered_into(&mut self, out: &mut Vec<DeliveredMessage>) {
        out.append(&mut self.delivered);
    }

    /// Flits currently inside the network or its source queues.
    pub fn flits_in_flight(&self) -> u64 {
        self.flits_in_flight
    }

    /// Messages currently alive (queued, streaming, or in transit).
    pub fn live_messages(&self) -> usize {
        self.slab.live()
    }

    /// Number of physical network channels (the denominator of channel
    /// utilization); mesh boundary slots are excluded.
    pub fn num_network_channels(&self) -> u64 {
        self.topo.num_physical_links() as u64
    }

    /// The watchdog's verdict, if it has fired.
    pub fn deadlock_report(&self) -> Option<DeadlockReport> {
        self.deadlock
    }

    /// The livelock/starvation guard's verdict, if it has fired. Requires a
    /// [`hop_budget`](NetworkBuilder::hop_budget) or
    /// [`age_budget`](NetworkBuilder::age_budget) to be set; checked every
    /// few hundred cycles and sticky once set.
    pub fn livelock_report(&self) -> Option<LivelockReport> {
        self.livelock
    }

    /// Flits in flight excluding those of parked messages (messages held
    /// at their source because a fault cut every path to their
    /// destination). This is what the deadlock watchdog counts as
    /// outstanding work, so parked messages cannot trip it.
    pub fn active_flits(&self) -> u64 {
        self.flits_in_flight - self.faults.as_ref().map_or(0, |fs| fs.parked_flits)
    }

    /// Messages currently parked at their source because no live path to
    /// their destination exists under the active fault mask.
    pub fn parked_messages(&self) -> usize {
        self.faults.as_ref().map_or(0, |fs| fs.parked.len())
    }

    /// The fault mask currently in effect (`None` when the run carries no
    /// fault plan).
    pub fn fault_mask(&self) -> Option<&ChannelMask> {
        self.faults.as_ref().map(|fs| &fs.mask)
    }

    /// Ordered source/destination pairs (distinct endpoints) currently
    /// routable over live channels. Equals `n·(n-1)` on a healthy network.
    pub fn routable_pairs(&self) -> u64 {
        match &self.faults {
            Some(fs) => fs.reach.routable_pairs(),
            None => {
                let n = u64::from(self.topo.num_nodes());
                n * (n - 1)
            }
        }
    }

    /// The unified observability entry point: a builder-style
    /// [`ObserverHandle`] over this network's tracing and sampling state.
    /// See [`TraceEvent`] for the trace vocabulary.
    ///
    /// ```
    /// # use wormsim_engine::{NetworkBuilder};
    /// # use wormsim_topology::Topology;
    /// # use wormsim_routing::AlgorithmKind;
    /// # let mut net = NetworkBuilder::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
    /// #     .build().unwrap();
    /// net.observer().trace_ring_with_capacity(256);
    /// net.run(100);
    /// let events = net.drain_trace();
    /// # let _ = events;
    /// ```
    pub fn observer(&mut self) -> ObserverHandle<'_> {
        ObserverHandle::new(self)
    }

    /// Tracing into the default bounded ring; keeps an installed ring.
    pub(crate) fn observe_trace_ring(&mut self) {
        if !matches!(self.events, TraceSink::Ring(_)) {
            self.events = TraceSink::Ring(RingSink::new(DEFAULT_TRACE_CAPACITY));
        }
    }

    /// Tracing into a ring of `capacity` events (clamped to at least 1).
    pub(crate) fn observe_trace_ring_with_capacity(&mut self, capacity: usize) {
        self.events = TraceSink::Ring(RingSink::new(capacity));
    }

    /// Tracing into a caller-supplied sink, replacing any installed ring.
    pub(crate) fn observe_set_event_sink(&mut self, sink: Box<dyn EventSink<TraceEvent>>) {
        self.events = TraceSink::Custom(sink);
    }

    /// Removes a custom sink (tracing off); `None` when off or ring-backed.
    pub(crate) fn observe_take_event_sink(&mut self) -> Option<Box<dyn EventSink<TraceEvent>>> {
        match std::mem::replace(&mut self.events, TraceSink::Off) {
            TraceSink::Custom(sink) => Some(sink),
            other => {
                self.events = other;
                None
            }
        }
    }

    /// Tracing off; buffered events are discarded.
    pub(crate) fn observe_disable_tracing(&mut self) {
        self.events = TraceSink::Off;
    }

    /// Takes the buffered trace events, oldest first (empty if tracing is
    /// off or routed to a custom sink).
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        match &mut self.events {
            TraceSink::Ring(ring) => ring.drain(),
            _ => Vec::new(),
        }
    }

    /// Trace events discarded so far: ring evictions, or whatever the
    /// custom sink reports (failed writes for a JSONL sink).
    pub fn dropped_trace_events(&self) -> u64 {
        match &self.events {
            TraceSink::Off => 0,
            TraceSink::Ring(ring) => ring.dropped_events(),
            TraceSink::Custom(sink) => sink.dropped_events(),
        }
    }

    #[inline]
    fn trace(&mut self, event: TraceEvent) {
        match &mut self.events {
            TraceSink::Off => {}
            TraceSink::Ring(ring) => ring.record(&event),
            TraceSink::Custom(sink) => sink.record(&event),
        }
    }

    /// Starts emitting one [`Sample`] into `sink` every `every` cycles
    /// (clamped to at least 1), replacing any previous sampler. Each sample
    /// carries the counter deltas for its window plus an instantaneous
    /// snapshot of queue depths and VC occupancy; windows survive
    /// [`reset_metrics`](Self::reset_metrics) unharmed.
    pub(crate) fn observe_enable_sampling(&mut self, every: u64, sink: Box<dyn EventSink<Sample>>) {
        let channels = self.metrics.channel_flits.as_ref().map_or(0, Vec::len);
        let mut base = WindowBase::zeros(self.classes, channels);
        base.copy_from(&self.metrics);
        self.sampler = Some(SamplerState {
            every: every.max(1),
            sink,
            last_cycle: self.cycle,
            latency_sum: 0,
            carry: WindowBase::zeros(self.classes, channels),
            base,
        });
    }

    /// Stops sampling, returning the sink (so callers can flush it or read
    /// its drop counter). `None` if sampling was off.
    pub(crate) fn observe_disable_sampling(&mut self) -> Option<Box<dyn EventSink<Sample>>> {
        self.sampler.take().map(|sampler| sampler.sink)
    }

    /// Installs a fresh [`MetricsRegistry`] sized for this network. An
    /// already installed registry (and its counts) is kept.
    pub(crate) fn observe_enable_metrics(&mut self) {
        if self.registry.is_none() {
            let channels = self.nodes.len() * self.dirs;
            self.registry = Some(Box::new(MetricsRegistry::new(channels, self.classes)));
        }
    }

    /// Uninstalls and returns the registry; `None` if metrics were off.
    pub(crate) fn observe_disable_metrics(&mut self) -> Option<Box<MetricsRegistry>> {
        self.registry.take()
    }

    /// The installed deep-telemetry registry, if metrics are enabled via
    /// [`observer().metrics_on()`](ObserverHandle::metrics_on).
    pub fn metrics_registry(&self) -> Option<&MetricsRegistry> {
        self.registry.as_deref()
    }

    /// Emits the current (possibly partial) sampling window immediately —
    /// useful at the end of a run so the tail of the time series is not
    /// lost. No-op when sampling is off or the window is empty.
    pub fn sample_now(&mut self) {
        if self
            .sampler
            .as_ref()
            .is_some_and(|s| self.cycle > s.last_cycle)
        {
            self.emit_sample();
        }
    }

    /// Sample records discarded by the sampler's sink so far.
    pub fn dropped_sample_events(&self) -> u64 {
        self.sampler
            .as_ref()
            .map_or(0, |sampler| sampler.sink.dropped_events())
    }

    /// Total events dropped across the trace and sample paths.
    pub fn observer_dropped_events(&self) -> u64 {
        self.dropped_trace_events() + self.dropped_sample_events()
    }

    /// Flushes any buffered observer output (JSONL sinks). Reports the
    /// first I/O error but attempts every sink.
    ///
    /// # Errors
    ///
    /// Propagates the first flush failure.
    pub fn flush_observers(&mut self) -> std::io::Result<()> {
        let mut result = Ok(());
        if let TraceSink::Custom(sink) = &mut self.events {
            result = result.and(sink.flush());
        }
        if let Some(sampler) = self.sampler.as_mut() {
            result = result.and(sampler.sink.flush());
        }
        result
    }

    /// Builds and emits one sample for the window `(last_cycle, cycle]`.
    fn emit_sample(&mut self) {
        let Some(mut sampler) = self.sampler.take() else {
            return;
        };
        let mut class_occupancy = vec![0u64; self.classes];
        for (i, slot) in self.input_vcs.iter().enumerate() {
            if !slot.buffer.is_empty() {
                let vc = i % self.vcs;
                class_occupancy[vc / self.replicas] += slot.buffer.len() as u64;
            }
        }
        let mut queued_messages = 0u64;
        let mut max_queue_depth = 0u64;
        for node in &self.nodes {
            let depth = node.queue.len() as u64;
            queued_messages += depth;
            max_queue_depth = max_queue_depth.max(depth);
        }
        let windowed = |cur: u64, base: u64, carry: u64| carry + cur.saturating_sub(base);
        let class_flits = (0..self.classes)
            .map(|c| {
                windowed(
                    self.metrics.class_flits[c],
                    sampler.base.class_flits[c],
                    sampler.carry.class_flits[c],
                )
            })
            .collect();
        let channel_flits = match self.metrics.channel_flits.as_deref() {
            Some(current) => current
                .iter()
                .enumerate()
                .map(|(i, &cur)| {
                    windowed(
                        cur,
                        sampler.base.channel_flits[i],
                        sampler.carry.channel_flits[i],
                    )
                })
                .collect(),
            None => Vec::new(),
        };
        let sample = Sample {
            cycle: self.cycle,
            window_cycles: self.cycle - sampler.last_cycle,
            generated: windowed(
                self.metrics.generated,
                sampler.base.generated,
                sampler.carry.generated,
            ),
            refused: windowed(
                self.metrics.refused,
                sampler.base.refused,
                sampler.carry.refused,
            ),
            delivered: windowed(
                self.metrics.delivered,
                sampler.base.delivered,
                sampler.carry.delivered,
            ),
            latency_sum: sampler.latency_sum,
            flit_hops: windowed(
                self.metrics.flit_hops,
                sampler.base.flit_hops,
                sampler.carry.flit_hops,
            ),
            flits_injected: windowed(
                self.metrics.flits_injected,
                sampler.base.flits_injected,
                sampler.carry.flits_injected,
            ),
            flits_ejected: windowed(
                self.metrics.flits_ejected,
                sampler.base.flits_ejected,
                sampler.carry.flits_ejected,
            ),
            flits_in_flight: self.flits_in_flight,
            live_messages: self.slab.live() as u64,
            queued_messages,
            max_queue_depth,
            class_occupancy,
            class_flits,
            channel_flits,
        };
        sampler.sink.record(&sample);
        sampler.last_cycle = self.cycle;
        sampler.latency_sum = 0;
        sampler.base.copy_from(&self.metrics);
        sampler.carry.clear();
        self.sampler = Some(sampler);
    }

    /// Stops the traffic process: no further arrivals will be scheduled.
    /// Messages already queued or in flight continue normally, so
    /// [`run_until_empty`](Self::run_until_empty) can drain the network at
    /// the end of a run even under an open arrival process.
    pub fn stop_arrivals(&mut self) {
        self.arrival_heap.clear();
    }

    /// Re-seeds the arrival/destination/length/arbitration streams for a
    /// new sampling phase, as the paper does between samples.
    pub fn reseed_streams(&mut self, phase: u64) {
        let base = 4 * (phase + 1);
        self.arrivals_rng = SimRng::stream(self.cfg.seed, base);
        self.dest_rng = SimRng::stream(self.cfg.seed, base + 1);
        self.length_rng = SimRng::stream(self.cfg.seed, base + 2);
        self.arb_rng = SimRng::stream(self.cfg.seed, base + 3);
    }

    // ------------------------------------------------------------------
    // Driving the simulation.
    // ------------------------------------------------------------------

    /// Installs a cooperative cancellation token: [`run`](Self::run) and
    /// [`run_until_empty`](Self::run_until_empty) check it every 1024
    /// cycles and return early once it trips. The check reads a shared
    /// flag and never mutates simulation state, so an uncancelled run is
    /// bit-identical with or without a token installed.
    pub fn set_cancel_token(&mut self, token: crate::CancelToken) {
        self.cancel = Some(token);
    }

    /// Whether an installed cancellation token has tripped.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(crate::CancelToken::is_cancelled)
    }

    /// Publishes the current cycle through the installed token's heartbeat
    /// (a no-op without a token). Called on the same stride as the
    /// cancellation check; reads simulation state, never writes it.
    fn beat(&self) {
        if let Some(token) = &self.cancel {
            token.beat(self.cycle);
        }
    }

    /// Runs `cycles` simulation steps, stopping early if an installed
    /// [`CancelToken`](crate::CancelToken) trips (checked on a stride, so
    /// at most a stride's worth of extra cycles run after cancellation).
    pub fn run(&mut self, cycles: u64) {
        for n in 0..cycles {
            if n % crate::cancel::CANCEL_CHECK_STRIDE == 0 {
                self.beat();
                if self.is_cancelled() {
                    break;
                }
            }
            self.step();
        }
    }

    /// Runs until no flits remain in flight, or `max_cycles` steps elapse.
    /// Returns `true` if the network drained. Parked messages count as
    /// outstanding work — they are waiting on a scheduled repair, and this
    /// keeps stepping through it — but only *active* flits can trip the
    /// deadlock watchdog, so a network that is idle except for parked
    /// messages runs quietly until they unpark (or `max_cycles` is spent,
    /// returning `false` under a permanent partition).
    ///
    /// This is the drain path of an observed run's shutdown sequence, so it
    /// honors an installed [`CancelToken`](crate::CancelToken) the same way
    /// [`run`](Self::run) does: a SIGINT mid-drain returns promptly instead
    /// of simulating the full drain budget.
    pub fn run_until_empty(&mut self, max_cycles: u64) -> bool {
        for n in 0..max_cycles {
            if self.flits_in_flight == 0 {
                return true;
            }
            if n % crate::cancel::CANCEL_CHECK_STRIDE == 0 {
                self.beat();
                if self.is_cancelled() {
                    break;
                }
            }
            self.step();
        }
        self.flits_in_flight == 0
    }

    /// Queues a message directly, bypassing the arrival process (but still
    /// occupying a congestion-control slot until its tail leaves the
    /// source). Intended for tests and custom drivers.
    ///
    /// # Panics
    ///
    /// Panics if `src == dest`, if `length` is zero, or if `length` exceeds
    /// the per-VC buffer capacity under cut-through or store-and-forward
    /// switching (those modes size buffers for the configured maximum
    /// message length, and an oversized message could never be stored).
    pub fn inject(&mut self, src: NodeId, dest: NodeId, length: u32) -> MessageId {
        assert!(src != dest, "messages must leave their source");
        assert!(length > 0, "messages have at least one flit");
        if !matches!(self.cfg.switching, Switching::Wormhole { .. }) {
            assert!(
                length <= self.capacity,
                "message of {length} flits exceeds the {}-flit buffers this \
                 cut-through/store-and-forward network was configured for",
                self.capacity
            );
        }
        self.admit(src, dest, length)
    }

    /// Executes one simulation cycle.
    pub fn step(&mut self) {
        if self.faults.is_some() {
            self.apply_fault_transitions();
        }
        // Phase profiling piggybacks on the registry: `lap` is `None` on
        // the disabled path, so each checkpoint is one untaken branch.
        let mut lap = self.registry.is_some().then(std::time::Instant::now);
        self.phase_arrivals();
        self.phase_assign_injection();
        self.prof_lap(&mut lap, PHASE_INJECT);
        self.phase_route();
        self.prof_lap(&mut lap, PHASE_ROUTE);
        self.phase_switch_allocation();
        self.prof_lap(&mut lap, PHASE_ALLOCATE);
        let mut progressed = self.execute_ejections();
        self.prof_lap(&mut lap, PHASE_DRAIN);
        progressed |= self.execute_link_moves();
        self.prof_lap(&mut lap, PHASE_ADVANCE);
        if progressed {
            self.last_progress = self.cycle;
        } else if self.active_flits() > 0
            && self.deadlock.is_none()
            && self.cycle - self.last_progress >= self.cfg.watchdog_cycles
        {
            self.deadlock = Some(DeadlockReport {
                detected_at: self.cycle,
                last_progress: self.last_progress,
                flits_in_flight: self.flits_in_flight,
                live_messages: self.slab.live(),
            });
        }
        if (self.cfg.hop_budget.is_some() || self.cfg.age_budget.is_some())
            && self.livelock.is_none()
            && self.cycle.is_multiple_of(LIVELOCK_CHECK_STRIDE)
        {
            self.check_livelock();
        }
        self.metrics.cycles += 1;
        if let Some(reg) = self.registry.as_deref_mut() {
            reg.cycles += 1;
        }
        self.cycle += 1;
        if let Some(sampler) = self.sampler.as_ref() {
            if self.cycle - sampler.last_cycle >= sampler.every {
                self.emit_sample();
            }
        }
    }

    /// Closes one profiled phase: charges the time since the previous
    /// checkpoint to `phase` and restarts the stopwatch. No-op (`lap` is
    /// `None`) when metrics are disabled.
    #[inline]
    fn prof_lap(&mut self, lap: &mut Option<std::time::Instant>, phase: usize) {
        if let Some(start) = lap {
            let now = std::time::Instant::now();
            if let Some(reg) = self.registry.as_deref_mut() {
                reg.phase_nanos[phase] += now.duration_since(*start).as_nanos() as u64;
            }
            *lap = Some(now);
        }
    }

    // ------------------------------------------------------------------
    // Phase 1: traffic arrivals.
    // ------------------------------------------------------------------

    fn schedule_initial_arrivals(&mut self) {
        for node in 0..self.nodes.len() as u32 {
            if let Some(gap) = self.cfg.arrival.next_gap(&mut self.arrivals_rng) {
                self.arrival_heap.push(Reverse((gap - 1, node)));
            }
        }
    }

    fn phase_arrivals(&mut self) {
        // Arrival gaps are ≥ 1, so every entry still queued is due at the
        // current cycle or later; equal-cycle entries pop in ascending node
        // order, matching the scan this replaces.
        while let Some(&Reverse((when, node))) = self.arrival_heap.peek() {
            debug_assert!(when >= self.cycle, "arrivals are drained every cycle");
            if when != self.cycle {
                break;
            }
            self.arrival_heap.pop();
            if let Some(gap) = self.cfg.arrival.next_gap(&mut self.arrivals_rng) {
                self.arrival_heap.push(Reverse((self.cycle + gap, node)));
            }
            let src = NodeId::new(node);
            let dest = self.pattern.sample_dest(src, &mut self.dest_rng);
            let length = self.cfg.length.sample(&mut self.length_rng);
            // Faulted network: drop a would-be message whose source is dead
            // or whose destination is unreachable over live channels. The
            // destination and length are sampled first regardless, so the
            // RNG streams stay aligned with a healthy run.
            if let Some(fs) = &self.faults {
                if !fs.reach.routable(src, dest) {
                    self.metrics.unroutable += 1;
                    continue;
                }
            }
            // Congestion control: refuse if the class is at its limit.
            if let Some(limit) = self.cfg.congestion_limit {
                let mut route = MessageRouteState::new(src, dest);
                self.algo.init_message(&self.topo, &mut route);
                let class = self.algo.injection_class(&self.topo, &route);
                let count = self.nodes[node as usize]
                    .class_counts
                    .get(&class)
                    .copied()
                    .unwrap_or(0);
                if count >= limit {
                    self.metrics.refused += 1;
                    self.trace(TraceEvent::Refused {
                        cycle: self.cycle,
                        src,
                        class,
                    });
                    continue;
                }
            }
            self.admit(src, dest, length);
        }
    }

    fn admit(&mut self, src: NodeId, dest: NodeId, length: u32) -> MessageId {
        let mut route = MessageRouteState::new(src, dest);
        self.algo.init_message(&self.topo, &mut route);
        let injection_class = self.algo.injection_class(&self.topo, &route);
        let id = self.slab.insert(MessageRec {
            route,
            length,
            generated: self.cycle,
            injected: None,
            injection_class,
            src,
        });
        let node = &mut self.nodes[src.as_usize()];
        *node.class_counts.entry(injection_class).or_insert(0) += 1;
        node.queue.push_back(id);
        self.inj_dirty.insert(src.as_usize());
        self.metrics.generated += 1;
        self.flits_in_flight += length as u64;
        self.trace(TraceEvent::Generated {
            cycle: self.cycle,
            msg: id,
            src,
            dest,
            length,
        });
        id
    }

    // ------------------------------------------------------------------
    // Phase 2: move queued messages into free injection VCs.
    // ------------------------------------------------------------------

    fn phase_assign_injection(&mut self) {
        // Set bits are visited in ascending node order, matching the full
        // scan this replaces (the order fixes routing priority downstream
        // via `pending_route`). Nodes still blocked on a free VC keep
        // their bit.
        let inj_port = self.injection_port();
        for sw in 0..self.inj_dirty.summary.len() {
            let mut swords = self.inj_dirty.summary[sw];
            while swords != 0 {
                let w = sw * 64 + swords.trailing_zeros() as usize;
                swords &= swords - 1;
                let mut bits = self.inj_dirty.words[w];
                debug_assert_ne!(bits, 0, "summary bit implies a non-empty word");
                let mut keep = bits;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let node = (w * 64 + bit) as u32;
                    while !self.nodes[node as usize].queue.is_empty() {
                        // Find a free injection VC (empty buffer, no route).
                        let Some(vc) = (0..self.vcs).find(|&vc| {
                            let ivc = self.ivc_index(node, inj_port, vc);
                            let slot = &self.input_vcs[ivc as usize];
                            slot.buffer.is_empty() && slot.route.is_none()
                        }) else {
                            break;
                        };
                        let id = self.nodes[node as usize]
                            .queue
                            .pop_front()
                            .expect("non-empty");
                        let length = self.slab.get(id).length;
                        let ivc = self.ivc_index(node, inj_port, vc);
                        for flit in Flit::sequence(id, length) {
                            self.input_vcs[ivc as usize].push(flit);
                        }
                        self.occ[ivc as usize] += length;
                        self.trace(TraceEvent::InjectionStarted {
                            cycle: self.cycle,
                            msg: id,
                        });
                        self.enqueue_pending(ivc);
                    }
                    if self.nodes[node as usize].queue.is_empty() {
                        keep &= !(1u64 << bit);
                    }
                }
                self.inj_dirty.set_word(w, keep);
            }
        }
    }

    fn enqueue_pending(&mut self, ivc: u32) {
        self.pending_route.push(PendingHead {
            ivc,
            node: self.ivc_meta[ivc as usize].node,
            dirs: 0,
            failed_at: 0,
        });
    }

    // ------------------------------------------------------------------
    // Phase 3: routing and VC allocation for head flits.
    // ------------------------------------------------------------------

    fn phase_route(&mut self) {
        // In-place compaction: `try_route` never pushes to `pending_route`
        // (failures and sleepers stay, in order), so no take-and-reallocate
        // is needed.
        let mut kept = 0;
        for i in 0..self.pending_route.len() {
            let mut head = self.pending_route[i];
            if head.dirs != 0 && !self.freed_since(head) {
                // Asleep: the attempt would fail exactly as the last one
                // did, drawing no random number, so skipping it changes
                // nothing but the work done.
                self.metrics.route_sleeps += 1;
                if self.registry.is_some() {
                    self.record_sleeper_alloc_failures(head);
                }
            } else {
                match self.try_route(head.ivc) {
                    RouteOutcome::Routed => continue,
                    RouteOutcome::Failed { dirs } => {
                        head.dirs = dirs;
                        head.failed_at = self.cycle;
                    }
                }
            }
            self.pending_route[kept] = head;
            kept += 1;
        }
        self.pending_route.truncate(kept);
    }

    /// Whether a candidate channel of the sleeping `head` released a VC
    /// since its failed attempt. `>=`, not `>`: the route phase runs before
    /// the link moves of its own cycle, so a release stamped `failed_at`
    /// happened after the attempt looked.
    #[inline]
    fn freed_since(&self, head: PendingHead) -> bool {
        let base = head.node as usize * self.dirs;
        let mut dirs = head.dirs;
        while dirs != 0 {
            let dir = dirs.trailing_zeros() as usize;
            dirs &= dirs - 1;
            if self.ch_freed_at[base + dir] >= head.failed_at {
                return true;
            }
        }
        false
    }

    /// The candidate directions of the attempt that just failed on owned
    /// output VCs (`scratch_candidates` still holds the set), or zero when
    /// the head must not sleep: under a fault plan the candidate set
    /// depends on the live mask and aborts release reservations without
    /// stamping `ch_freed_at`, and a `u32` holds at most 32 directions.
    fn sleep_mask(&self) -> u32 {
        let may_sleep = self.faults.is_none() && self.dirs <= 32;
        #[cfg(test)]
        let may_sleep = may_sleep && !self.always_retry;
        if !may_sleep {
            return 0;
        }
        self.scratch_candidates
            .iter()
            .fold(0, |mask, c| mask | 1 << c.direction().index())
    }

    fn try_route(&mut self, ivc: u32) -> RouteOutcome {
        let (node, _port, _vc) = self.ivc_parts(ivc);
        let slot = &self.input_vcs[ivc as usize];
        let front = slot.front().expect("pending input VC holds its head");
        debug_assert!(front.kind.is_head(), "pending front must be a head flit");
        debug_assert!(slot.route.is_none());
        let msg = front.msg;
        let rec_route = self.slab.get(msg).route;
        let here = NodeId::new(node);

        if rec_route.dest() == here {
            let slot = &mut self.input_vcs[ivc as usize];
            slot.route = Some(RouteTarget::Eject);
            slot.route_msg = Some(msg);
            self.ejecting.push(ivc);
            return RouteOutcome::Routed;
        }
        // Store-and-forward: only route once the whole message is here.
        if matches!(self.cfg.switching, Switching::StoreAndForward)
            && !self.input_vcs[ivc as usize].front_message_complete()
        {
            return RouteOutcome::Failed { dirs: 0 };
        }

        self.metrics.route_attempts += 1;
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        let fault_mode = self.faults.is_some();
        if fault_mode && rec_route.hops_taken() > self.topo.diameter() {
            // Mis-routed past any minimal path: the algorithm's class
            // bookkeeping may have run off the end of its range, so route
            // greedily over live channels instead of consulting it.
            self.fault_candidates(here, rec_route.dest(), _port, &mut candidates);
        } else {
            self.algo
                .candidates(&self.topo, &rec_route, here, &mut candidates);
            // Under faults the set may legitimately come back empty (2pn
            // off its tag after a mis-route) or shrink to empty once dead
            // channels are removed.
            debug_assert!(
                fault_mode || !candidates.is_empty(),
                "routing must always offer a hop"
            );
            if let Some(fs) = &self.faults {
                if !fs.mask.is_trivial() {
                    candidates.retain(|c| {
                        fs.mask
                            .channel_alive(self.topo.channel(here, c.direction()))
                    });
                }
                if candidates.is_empty()
                    && self.cfg.misroute_on_fault
                    && self.algo.adaptivity() != Adaptivity::NonAdaptive
                {
                    self.fault_candidates(here, rec_route.dest(), _port, &mut candidates);
                }
            }
        }
        if fault_mode {
            // Mis-routing can push an algorithm's class counters (phop's
            // hop count, nhop's negative hops) past the provisioned range;
            // clamp to the top class rather than indexing out of bounds.
            let max_class = (self.classes - 1) as u8;
            for cand in candidates.iter_mut() {
                if cand.vc_class() > max_class {
                    *cand = Candidate::new(cand.direction(), max_class);
                }
            }
            if candidates.is_empty() {
                self.scratch_candidates = candidates;
                return RouteOutcome::Failed { dirs: 0 };
            }
        }

        // Gather the free physical VCs permitted by the candidate set.
        let mut best: Option<(usize, u8, u16, u32)> = None; // (ovc, dir, vc, credits)
        let mut free_seen = 0u32;
        for cand in &candidates {
            let dir = cand.direction().index();
            let base = cand.vc_class() as usize * self.replicas;
            for r in 0..self.replicas {
                let vc = base + r;
                let ovc = self.ovc_index(node, dir, vc);
                if self.out_owner[ovc].is_some() {
                    continue;
                }
                let credits = self.out_credits[ovc];
                free_seen += 1;
                let take = match self.cfg.selection {
                    SelectionPolicy::FirstFree => best.is_none(),
                    SelectionPolicy::MostCredits => best.is_none_or(|(_, _, _, c)| credits > c),
                    SelectionPolicy::Random => {
                        // Reservoir sampling over the free set.
                        self.arb_rng.uniform_below(free_seen) == 0
                    }
                };
                if take {
                    best = Some((ovc, dir as u8, vc as u16, credits));
                }
            }
        }
        self.scratch_candidates = candidates;

        let Some((ovc, dir, vc, _)) = best else {
            // Candidates existed but every admissible VC was taken: a VC
            // allocation failure, charged to each candidate channel.
            if self.registry.is_some() {
                self.record_alloc_failures(node);
            }
            return RouteOutcome::Failed {
                dirs: self.sleep_mask(),
            };
        };
        self.out_owner[ovc] = Some(msg);
        {
            let slot = &mut self.input_vcs[ivc as usize];
            slot.route = Some(RouteTarget::Link { dir, vc });
            slot.route_msg = Some(msg);
        }
        let ch = self.channel_index(node, dir as usize);
        let (_, port, in_vc) = self.ivc_parts(ivc);
        let from_injection = port == self.injection_port();
        let len = self.request_len[ch] as usize;
        debug_assert!(len < self.vcs, "a channel has at most `vcs` requesters");
        self.requests[ch * self.vcs + len] = OutputRequest {
            ivc,
            vc,
            from_injection,
        };
        self.request_len[ch] = (len + 1) as u8;
        self.active_channels.insert(ch);
        // An injection VC becomes a "streaming" lane once its head has a
        // route, making it eligible for the per-node injection budget.
        if from_injection {
            let state = &mut self.nodes[node as usize];
            if !state.streaming_inj.contains(&(in_vc as u16)) {
                state.streaming_inj.push(in_vc as u16);
            }
            self.active_inj_nodes.insert(node as usize);
        }
        RouteOutcome::Routed
    }

    /// Charges one allocation failure per candidate channel of a head that
    /// found every admissible VC taken (`scratch_candidates` still holds
    /// the failed set). Cold path: only runs with metrics on, only on
    /// failed routes.
    fn record_alloc_failures(&mut self, node: u32) {
        let candidates = std::mem::take(&mut self.scratch_candidates);
        if let Some(reg) = self.registry.as_deref_mut() {
            for cand in &candidates {
                let ch = node as usize * self.dirs + cand.direction().index();
                reg.record_alloc_failure(ch, cand.vc_class() as usize);
            }
        }
        self.scratch_candidates = candidates;
    }

    /// Charges a sleeping head the allocation failures its skipped attempt
    /// would have recorded, so `alloc_fail` keeps meaning head-cycles spent
    /// waiting on a channel. The candidate set is re-derived rather than
    /// carried beside the entry: the routing function is pure and a blocked
    /// head's route state does not change, so it is the set that failed.
    /// Only runs with metrics on.
    fn record_sleeper_alloc_failures(&mut self, head: PendingHead) {
        let front = self.input_vcs[head.ivc as usize]
            .front()
            .expect("pending input VC holds its head");
        let route = self.slab.get(front.msg).route;
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        self.algo
            .candidates(&self.topo, &route, NodeId::new(head.node), &mut candidates);
        self.scratch_candidates = candidates;
        self.record_alloc_failures(head.node);
    }

    // ------------------------------------------------------------------
    // Phase 4: switch allocation (one flit per output channel per cycle).
    // ------------------------------------------------------------------

    fn phase_switch_allocation(&mut self) {
        self.scratch_moves.clear();
        self.mark_injection_budget();
        // Moved out of `self` so the blocked-requester accounting below
        // can run inside the arbitration loop without a split borrow; one
        // `Option` move per cycle, `None` on the disabled path.
        let mut registry = self.registry.take();
        // Set bits are visited in ascending channel order — node-major,
        // direction-minor — matching the nested full scan this replaces,
        // so round-robin state and `scratch_moves` order are bit-identical.
        // Channels whose request list has drained are dropped here (lazy
        // removal).
        for sw in 0..self.active_channels.summary.len() {
            let mut swords = self.active_channels.summary[sw];
            while swords != 0 {
                let w = sw * 64 + swords.trailing_zeros() as usize;
                swords &= swords - 1;
                let mut bits = self.active_channels.words[w];
                debug_assert_ne!(bits, 0, "summary bit implies a non-empty word");
                let mut keep = bits;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let ch = w * 64 + bit;
                    let len = self.request_len[ch] as usize;
                    if len == 0 {
                        keep &= !(1u64 << bit);
                        continue;
                    }
                    let (node, dir) = self.ch_owner[ch];
                    let row = ch * self.vcs;
                    // Round-robin with lazy wrap: `out_rr` is only reduced
                    // modulo `len` when the list shrank underneath it, so
                    // the common path runs division-free.
                    let mut idx = self.out_rr[ch] as usize;
                    if idx >= len {
                        idx %= len;
                    }
                    let mut winner: Option<u32> = None;
                    for _ in 0..len {
                        let req = self.requests[row + idx];
                        // The output-VC index is the channel's row base
                        // plus the granted VC (not stored in the request).
                        let granted = self.occ[req.ivc as usize] != 0
                            && (!req.from_injection || self.marked_inj[req.ivc as usize])
                            && self.out_credits[row + req.vc as usize] != 0;
                        idx += 1;
                        if idx == len {
                            idx = 0;
                        }
                        if granted {
                            debug_assert_eq!(
                                self.input_vcs[req.ivc as usize].route,
                                Some(RouteTarget::Link { dir, vc: req.vc })
                            );
                            self.scratch_moves.push(LinkMove {
                                ivc: req.ivc,
                                node,
                                dir,
                                vc: req.vc,
                            });
                            self.out_rr[ch] = idx as u8;
                            winner = Some(req.ivc);
                            break;
                        }
                    }
                    if let Some(reg) = registry.as_deref_mut() {
                        // Every ungranted requester with a flit ready is a
                        // blocked worm-cycle on this channel.
                        for r in 0..len {
                            let req = self.requests[row + r];
                            if winner != Some(req.ivc) && self.occ[req.ivc as usize] != 0 {
                                reg.record_blocked(ch, self.vc_class[req.vc as usize] as usize);
                            }
                        }
                    }
                }
                self.active_channels.set_word(w, keep);
            }
        }
        self.registry = registry;
    }

    /// Marks up to `injection_bandwidth` streaming injection VCs per node
    /// as allowed to send this cycle (the processor-router port is a
    /// physical channel too).
    fn mark_injection_budget(&mut self) {
        for &ivc in &self.marked_list {
            self.marked_inj[ivc as usize] = false;
        }
        self.marked_list.clear();
        // Only nodes with streaming injection VCs are visited; the budget
        // touches per-node state only, so any visit order would do — the
        // bitmap's ascending order is simply free. Drained nodes are
        // dropped lazily.
        let inj_port = self.injection_port();
        let budget = self.cfg.injection_bandwidth as usize;
        for sw in 0..self.active_inj_nodes.summary.len() {
            let mut swords = self.active_inj_nodes.summary[sw];
            while swords != 0 {
                let w = sw * 64 + swords.trailing_zeros() as usize;
                swords &= swords - 1;
                let mut bits = self.active_inj_nodes.words[w];
                debug_assert_ne!(bits, 0, "summary bit implies a non-empty word");
                let mut keep = bits;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let node = (w * 64 + bit) as u32;
                    let len = self.nodes[node as usize].streaming_inj.len();
                    if len == 0 {
                        keep &= !(1u64 << bit);
                        continue;
                    }
                    let mut idx = self.nodes[node as usize].inj_rr;
                    if idx >= len {
                        idx %= len;
                    }
                    let mut next = idx;
                    let mut marked = 0;
                    for _ in 0..len {
                        if marked >= budget {
                            break;
                        }
                        let vc = self.nodes[node as usize].streaming_inj[idx];
                        idx += 1;
                        if idx == len {
                            idx = 0;
                        }
                        let ivc = self.ivc_index(node, inj_port, vc as usize);
                        if self.occ[ivc as usize] != 0 {
                            self.marked_inj[ivc as usize] = true;
                            self.marked_list.push(ivc);
                            marked += 1;
                            next = idx;
                        }
                    }
                    self.nodes[node as usize].inj_rr = next;
                }
                self.active_inj_nodes.set_word(w, keep);
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 5: execute ejections and link transfers.
    // ------------------------------------------------------------------

    fn execute_ejections(&mut self) -> bool {
        if self.ejecting.is_empty() {
            return false;
        }
        let mut progressed = false;
        match self.cfg.ejection {
            EjectionModel::PerVc => {
                for i in 0..self.ejecting.len() {
                    let ivc = self.ejecting[i];
                    let slot = &self.input_vcs[ivc as usize];
                    if slot.route == Some(RouteTarget::Eject) && !slot.buffer.is_empty() {
                        self.eject_one(ivc);
                        progressed = true;
                    }
                }
            }
            EjectionModel::SingleChannel => {
                // One delivery per node per cycle, round-robin among the
                // node's ejecting VCs. Grouping is a stable sort by node —
                // not a hash map — so delivery order is deterministic; the
                // stable sort keeps each node's VCs in `ejecting` order,
                // which the round-robin pointer indexes into.
                let mut ready = std::mem::take(&mut self.scratch_eject);
                ready.clear();
                for i in 0..self.ejecting.len() {
                    let ivc = self.ejecting[i];
                    let slot = &self.input_vcs[ivc as usize];
                    if slot.route == Some(RouteTarget::Eject) && !slot.buffer.is_empty() {
                        let (node, _, _) = self.ivc_parts(ivc);
                        ready.push((node, ivc));
                    }
                }
                ready.sort_by_key(|&(node, _)| node);
                let mut i = 0;
                while i < ready.len() {
                    let node = ready[i].0;
                    let mut j = i + 1;
                    while j < ready.len() && ready[j].0 == node {
                        j += 1;
                    }
                    let rr = self.nodes[node as usize].ej_rr;
                    let ivc = ready[i + rr % (j - i)].1;
                    self.nodes[node as usize].ej_rr = rr.wrapping_add(1);
                    self.eject_one(ivc);
                    progressed = true;
                    i = j;
                }
                self.scratch_eject = ready;
            }
        }
        // Keep VCs whose route is still Eject (their tail has not passed),
        // compacting in place — `eject_one` never pushes to `ejecting`.
        let mut kept = 0;
        for i in 0..self.ejecting.len() {
            let ivc = self.ejecting[i];
            if self.input_vcs[ivc as usize].route == Some(RouteTarget::Eject) {
                self.ejecting[kept] = ivc;
                kept += 1;
            }
        }
        self.ejecting.truncate(kept);
        progressed
    }

    fn eject_one(&mut self, ivc: u32) {
        let (node, port, _vc) = self.ivc_parts(ivc);
        let flit = self.input_vcs[ivc as usize].pop();
        self.occ[ivc as usize] -= 1;
        self.return_credit(node, port, ivc);
        self.metrics.flits_ejected += 1;
        self.flits_in_flight -= 1;
        self.trace(TraceEvent::FlitDelivered {
            cycle: self.cycle,
            msg: flit.msg,
            kind: flit.kind,
        });
        if flit.kind.is_tail() {
            let rec = self.slab.remove(flit.msg);
            let latency = self.cycle - rec.generated;
            self.trace(TraceEvent::Delivered {
                cycle: self.cycle,
                msg: flit.msg,
                latency,
            });
            self.metrics.delivered += 1;
            if let Some(sampler) = self.sampler.as_mut() {
                sampler.latency_sum += latency;
            }
            if let Some(reg) = self.registry.as_deref_mut() {
                reg.record_latency(latency);
            }
            // The documented hop class is the *minimal* src–dest distance;
            // hops_taken equals it on every fault-free path (all algorithms
            // route minimally), but misrouting around faults can exceed the
            // diameter, and the stratified estimator sizes its strata by
            // distance.
            self.delivered.push(DeliveredMessage {
                hop_class: self.topo.distance(rec.src, rec.route.dest()) as u16,
                latency,
                source_wait: rec.injected.unwrap_or(rec.generated) - rec.generated,
                length: rec.length,
                delivered_at: self.cycle,
            });
            self.after_tail_pop(ivc);
        }
    }

    fn execute_link_moves(&mut self) -> bool {
        let moves = std::mem::take(&mut self.scratch_moves);
        let progressed = !moves.is_empty();
        for mv in &moves {
            self.execute_link_move(*mv);
        }
        self.scratch_moves = moves;
        progressed
    }

    fn execute_link_move(&mut self, mv: LinkMove) {
        let (node, port, _) = self.ivc_parts(mv.ivc);
        debug_assert_eq!(node, mv.node);
        let flit = self.input_vcs[mv.ivc as usize].pop();
        self.occ[mv.ivc as usize] -= 1;
        let dir = Direction::from_index(mv.dir as usize);
        let inj_port = self.injection_port();

        if flit.kind.is_head() {
            // The head leaving a node is the moment the hop is decided:
            // advance the message's routing state.
            let class = self.vc_class[mv.vc as usize];
            let rec = self.slab.get_mut(flit.msg);
            rec.route
                .advance(&self.topo, NodeId::new(node), Candidate::new(dir, class));
            if port == inj_port {
                rec.injected = Some(self.cycle);
            }
            self.trace(TraceEvent::HopTaken {
                cycle: self.cycle,
                msg: flit.msg,
                from: NodeId::new(node),
                direction: dir,
                vc_class: class,
            });
        }
        if port == inj_port {
            self.metrics.flits_injected += 1;
            if flit.kind.is_tail() {
                // The message has fully left its source: release the
                // congestion-control slot and the streaming lane.
                let (injection_class, src) = {
                    let rec = self.slab.get(flit.msg);
                    (rec.injection_class, rec.src)
                };
                let (_, _, vc) = self.ivc_parts(mv.ivc);
                self.release_class_slot(src, injection_class);
                self.nodes[src.as_usize()]
                    .streaming_inj
                    .retain(|&v| v as usize != vc);
            }
        } else {
            self.return_credit(node, port, mv.ivc);
        }

        if flit.kind.is_tail() {
            self.remove_request(self.channel_index(node, mv.dir as usize), mv.ivc);
            self.after_tail_pop(mv.ivc);
        }

        // Deliver the flit into the neighbor's input buffer.
        let neighbor = self.neighbor_of[self.channel_index(node, mv.dir as usize)];
        debug_assert!(
            neighbor != u32::MAX,
            "routed moves follow existing channels"
        );
        let div = self.ivc_index(neighbor, dir.index(), mv.vc as usize);
        let was_empty = self.input_vcs[div as usize].buffer.is_empty();
        debug_assert!(
            (self.input_vcs[div as usize].buffer.len() as u32) < self.capacity,
            "credit flow control must prevent overflow"
        );
        self.input_vcs[div as usize].push(flit);
        self.occ[div as usize] += 1;
        if was_empty && flit.kind.is_head() {
            debug_assert!(self.input_vcs[div as usize].route.is_none());
            self.enqueue_pending(div);
        }

        // Channel bookkeeping.
        let ovc = self.ovc_index(node, mv.dir as usize, mv.vc as usize);
        self.out_credits[ovc] -= 1;
        let ch = self.channel_index(node, mv.dir as usize);
        if flit.kind.is_tail() {
            self.out_owner[ovc] = None;
            self.ch_freed_at[ch] = self.cycle;
        }
        self.metrics.flit_hops += 1;
        let class = self.vc_class[mv.vc as usize] as usize;
        self.metrics.class_flits[class] += 1;
        if let Some(loads) = self.metrics.channel_flits.as_mut() {
            loads[ch] += 1;
        }
        if let Some(reg) = self.registry.as_deref_mut() {
            reg.record_traversal(ch, class);
        }
    }

    /// Drops `ivc`'s entry from a channel's request row, shifting later
    /// entries left (same order as `Vec::retain`).
    fn remove_request(&mut self, ch: usize, ivc: u32) {
        let len = self.request_len[ch] as usize;
        let row = &mut self.requests[ch * self.vcs..ch * self.vcs + len];
        if let Some(pos) = row.iter().position(|r| r.ivc == ivc) {
            row.copy_within(pos + 1.., pos);
            self.request_len[ch] = (len - 1) as u8;
        }
    }

    /// After a tail leaves an input VC: if the next message's head is now
    /// at the front, it needs routing.
    fn after_tail_pop(&mut self, ivc: u32) {
        if let Some(front) = self.input_vcs[ivc as usize].front() {
            debug_assert!(
                front.kind.is_head(),
                "messages interleave only at message boundaries"
            );
            self.enqueue_pending(ivc);
        }
    }

    /// Returns one credit to the upstream output VC feeding `ivc` (no-op
    /// for injection ports, whose buffers are node-internal).
    fn return_credit(&mut self, node: u32, port: usize, ivc: u32) {
        if port >= self.dirs {
            return;
        }
        let arrive_dir = Direction::from_index(port);
        let upstream = self.neighbor_of[self.channel_index(node, arrive_dir.opposite().index())];
        debug_assert!(upstream != u32::MAX, "flits arrive over existing channels");
        let (_, _, vc) = self.ivc_parts(ivc);
        let ovc = self.ovc_index(upstream, arrive_dir.index(), vc);
        self.out_credits[ovc] += 1;
        debug_assert!(self.out_credits[ovc] <= self.capacity);
    }

    /// Releases one congestion-control slot of `class` at `src`.
    fn release_class_slot(&mut self, src: NodeId, class: u32) {
        let state = &mut self.nodes[src.as_usize()];
        if let Some(count) = state.class_counts.get_mut(&class) {
            *count -= 1;
            if *count == 0 {
                state.class_counts.remove(&class);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault handling.
    // ------------------------------------------------------------------

    /// Fallback candidate generation under faults: live minimal hops first;
    /// failing that, any live hop except straight back the way the worm
    /// came (and even that, as a last resort). All fallback hops use the
    /// top VC class — deadlock-freedom of these paths is not proven, which
    /// is exactly what the livelock guard and watchdog are for.
    fn fault_candidates(
        &self,
        here: NodeId,
        dest: NodeId,
        in_port: usize,
        out: &mut Vec<Candidate>,
    ) {
        let fs = self
            .faults
            .as_ref()
            .expect("fault fallback requires faults");
        let class = (self.classes - 1) as u8;
        let d_here = self.topo.distance(here, dest);
        let live = |dir: Direction| {
            self.topo.has_channel(here, dir) && fs.mask.channel_alive(self.topo.channel(here, dir))
        };
        for dir in Direction::all(self.topo.num_dims()) {
            if !live(dir) {
                continue;
            }
            let next = self.topo.neighbor(here, dir).expect("live implies exists");
            if self.topo.distance(next, dest) < d_here {
                out.push(Candidate::new(dir, class));
            }
        }
        if !out.is_empty() {
            return;
        }
        let back = (in_port < self.dirs).then(|| Direction::from_index(in_port).opposite());
        for dir in Direction::all(self.topo.num_dims()) {
            if Some(dir) != back && live(dir) {
                out.push(Candidate::new(dir, class));
            }
        }
        if out.is_empty() {
            if let Some(back) = back {
                if live(back) {
                    out.push(Candidate::new(back, class));
                }
            }
        }
    }

    /// Applies every fault transition due at the current cycle: rebuilds
    /// the mask and reachability, then sweeps the network for messages the
    /// new mask dooms or parks.
    fn apply_fault_transitions(&mut self) {
        loop {
            let due = self.faults.as_ref().is_some_and(|fs| {
                fs.transitions
                    .get(fs.next_transition)
                    .is_some_and(|&c| c <= self.cycle)
            });
            if !due {
                return;
            }
            let (mask, reach) = {
                let plan = self
                    .cfg
                    .faults
                    .as_ref()
                    .expect("fault state implies a plan");
                let mask = plan.mask_at(&self.topo, self.cycle);
                let reach = Reachability::compute(&self.topo, &mask);
                (mask, reach)
            };
            let fs = self.faults.as_mut().expect("checked above");
            fs.next_transition += 1;
            fs.mask = mask;
            fs.reach = reach;
            self.fault_sweep();
        }
    }

    /// Reconciles in-flight state with a changed fault mask:
    ///
    /// * messages severed by the new mask — flits buffered at a dead node
    ///   or behind a dead channel, reservations on a dead channel, a dead
    ///   endpoint, or a head that can no longer reach its destination —
    ///   are aborted and their flits dropped;
    /// * queued messages whose destination became unreachable are parked;
    /// * parked messages whose destination became reachable re-enter their
    ///   source queue.
    fn fault_sweep(&mut self) {
        let mut doomed: BTreeSet<MessageId> = BTreeSet::new();
        let mut to_park: Vec<MessageId> = Vec::new();
        let mut to_unpark: Vec<MessageId> = Vec::new();
        {
            let fs = self.faults.as_ref().expect("sweep requires fault state");
            let mut head_at: HashMap<MessageId, u32> = HashMap::new();
            let mut has_flits: HashSet<MessageId> = HashSet::new();
            for (i, slot) in self.input_vcs.iter().enumerate() {
                if slot.buffer.is_empty() {
                    continue;
                }
                let meta = self.ivc_meta[i];
                let node = NodeId::new(meta.node);
                let node_dead = !fs.mask.node_alive(node);
                // Flits buffered downstream of a dead channel are the
                // channel's in-transit flits: the worm is severed.
                let feed_dead = (meta.port as usize) < self.dirs && {
                    let dir = Direction::from_index(meta.port as usize);
                    match self.topo.neighbor(node, dir.opposite()) {
                        Some(up) => !fs.mask.channel_alive(self.topo.channel(up, dir)),
                        None => false,
                    }
                };
                for flit in &slot.buffer {
                    has_flits.insert(flit.msg);
                    if node_dead || feed_dead {
                        doomed.insert(flit.msg);
                    }
                    if flit.kind.is_head() {
                        head_at.insert(flit.msg, meta.node);
                    }
                }
            }
            // Reservations crossing a dead channel.
            for ovc in 0..self.out_owner.len() {
                if let Some(msg) = self.out_owner[ovc] {
                    let (node, dir) = self.ch_owner[ovc / self.vcs];
                    let ch = self
                        .topo
                        .channel(NodeId::new(node), Direction::from_index(dir as usize));
                    if !fs.mask.channel_alive(ch) {
                        doomed.insert(msg);
                    }
                }
            }
            for (id, rec) in self.slab.iter() {
                let dest = rec.route.dest();
                if !fs.mask.node_alive(rec.src) || !fs.mask.node_alive(dest) {
                    doomed.insert(id);
                    continue;
                }
                if let Some(&h) = head_at.get(&id) {
                    if !fs.reach.routable(NodeId::new(h), dest) {
                        doomed.insert(id);
                    }
                } else if !has_flits.contains(&id) {
                    // No flits in any buffer: the message is still in its
                    // source queue, or already parked.
                    let is_parked = fs.parked.binary_search(&id).is_ok();
                    let routable = fs.reach.routable(rec.src, dest);
                    if routable && is_parked {
                        to_unpark.push(id);
                    } else if !routable && !is_parked {
                        to_park.push(id);
                    }
                }
            }
        }
        for id in to_park {
            let (src, length) = {
                let rec = self.slab.get(id);
                (rec.src, rec.length)
            };
            let queue = &mut self.nodes[src.as_usize()].queue;
            if let Some(pos) = queue.iter().position(|&m| m == id) {
                queue.remove(pos);
                let fs = self.faults.as_mut().expect("sweep requires fault state");
                fs.parked.push(id);
                fs.parked_flits += u64::from(length);
            }
        }
        for id in to_unpark {
            let (src, length) = {
                let rec = self.slab.get(id);
                (rec.src, rec.length)
            };
            let fs = self.faults.as_mut().expect("sweep requires fault state");
            if let Ok(pos) = fs.parked.binary_search(&id) {
                fs.parked.remove(pos);
                fs.parked_flits -= u64::from(length);
                self.nodes[src.as_usize()].queue.push_back(id);
                self.inj_dirty.insert(src.as_usize());
            }
        }
        if let Some(fs) = self.faults.as_mut() {
            fs.parked.sort_unstable();
        }
        for id in doomed {
            self.abort_message(id);
        }
    }

    /// Kills one live message wherever it is — source queue, parked list,
    /// or spread across input buffers — releasing every resource it holds
    /// (buffer slots, credits, routes, output-VC reservations, its
    /// congestion-control slot) and dropping its flits.
    fn abort_message(&mut self, msg: MessageId) {
        let (length, src, injection_class) = {
            let rec = self.slab.get(msg);
            (rec.length, rec.src, rec.injection_class)
        };

        // Still at the source, flitless: queued or parked.
        let queue_pos = self.nodes[src.as_usize()]
            .queue
            .iter()
            .position(|&m| m == msg);
        let parked_pos = self
            .faults
            .as_ref()
            .and_then(|fs| fs.parked.binary_search(&msg).ok());
        if let Some(pos) = queue_pos {
            self.nodes[src.as_usize()].queue.remove(pos);
        } else if let Some(pos) = parked_pos {
            let fs = self.faults.as_mut().expect("parked implies fault state");
            fs.parked.remove(pos);
            fs.parked_flits -= u64::from(length);
        }
        if queue_pos.is_some() || parked_pos.is_some() {
            self.release_class_slot(src, injection_class);
            self.flits_in_flight -= u64::from(length);
            self.metrics.messages_aborted += 1;
            self.metrics.flits_dropped += u64::from(length);
            self.slab.remove(msg);
            return;
        }

        // In the network: sweep every input VC for its flits and routes.
        let inj_port = self.injection_port();
        let mut dropped = 0u64;
        let mut revealed: Vec<u32> = Vec::new();
        for ivc in 0..self.input_vcs.len() as u32 {
            let owns_route = self.input_vcs[ivc as usize].route_msg == Some(msg);
            if owns_route {
                let (node, _, _) = self.ivc_parts(ivc);
                match self.input_vcs[ivc as usize].route {
                    Some(RouteTarget::Link { dir, .. }) => {
                        self.remove_request(self.channel_index(node, dir as usize), ivc);
                    }
                    Some(RouteTarget::Eject) => {
                        self.ejecting.retain(|&e| e != ivc);
                    }
                    None => {}
                }
                let slot = &mut self.input_vcs[ivc as usize];
                slot.route = None;
                slot.route_msg = None;
            }
            if self.input_vcs[ivc as usize].buffer.is_empty() {
                continue;
            }
            let (removed, front_was_msg) = self.input_vcs[ivc as usize].purge_message(msg);
            if removed == 0 {
                continue;
            }
            let (node, port, vc) = self.ivc_parts(ivc);
            self.occ[ivc as usize] -= removed;
            dropped += u64::from(removed);
            if port == inj_port {
                // An injection VC holds flits of at most one message, so it
                // is now empty: the tail never left the source — release
                // the streaming lane and the congestion slot.
                self.nodes[node as usize]
                    .streaming_inj
                    .retain(|&v| v as usize != vc);
                self.release_class_slot(NodeId::new(node), injection_class);
            } else {
                for _ in 0..removed {
                    self.return_credit(node, port, ivc);
                }
            }
            // The purge exposed a new front only when this VC's route
            // belonged to the dead message; an unrouted head at the front
            // means the VC is already in `pending_route` (kept or dropped
            // by the retain below).
            if owns_route && front_was_msg && !self.input_vcs[ivc as usize].buffer.is_empty() {
                revealed.push(ivc);
            }
        }
        for ovc in 0..self.out_owner.len() {
            if self.out_owner[ovc] == Some(msg) {
                self.out_owner[ovc] = None;
            }
        }
        self.pending_route.retain(|p| {
            let slot = &self.input_vcs[p.ivc as usize];
            slot.route.is_none() && slot.front().is_some_and(|f| f.kind.is_head())
        });
        for ivc in revealed {
            debug_assert!(
                self.input_vcs[ivc as usize]
                    .front()
                    .is_some_and(|f| f.kind.is_head()),
                "messages interleave only at message boundaries"
            );
            self.enqueue_pending(ivc);
        }
        self.flits_in_flight -= dropped;
        self.metrics.messages_aborted += 1;
        self.metrics.flits_dropped += dropped;
        self.slab.remove(msg);
    }

    /// Scans the live-message slab for messages over the hop or age budget
    /// (parked messages are exempt — they are waiting on a repair, not
    /// starving). Sets the sticky [`LivelockReport`] on the first find.
    fn check_livelock(&mut self) {
        let mut over = 0usize;
        let mut max_hops = 0u32;
        let mut max_age = 0u64;
        for (id, rec) in self.slab.iter() {
            if self
                .faults
                .as_ref()
                .is_some_and(|fs| fs.parked.binary_search(&id).is_ok())
            {
                continue;
            }
            let hops = rec.route.hops_taken();
            let age = self.cycle - rec.generated;
            if self.cfg.hop_budget.is_some_and(|b| hops > b)
                || self.cfg.age_budget.is_some_and(|b| age > b)
            {
                over += 1;
                max_hops = max_hops.max(hops);
                max_age = max_age.max(age);
            }
        }
        if over > 0 {
            self.livelock = Some(LivelockReport {
                detected_at: self.cycle,
                messages_over_budget: over,
                max_hops,
                max_age,
            });
        }
    }

    // ------------------------------------------------------------------
    // Wait-for forensics.
    // ------------------------------------------------------------------

    /// Captures the worm→channel wait-for graph at the current cycle and
    /// runs cycle detection over it, so a watchdog or livelock verdict
    /// carries evidence of a real channel cycle (or its absence).
    ///
    /// Two kinds of waits are recorded:
    ///
    /// * **VC waits**: a head pending routing whose admissible output VCs
    ///   are all owned by other messages — one edge per owning message.
    /// * **Credit waits**: a routed worm with flits ready but zero credits
    ///   — the downstream buffer is full; the edge points at the message
    ///   whose flit is at the downstream front. Waits behind the worm's
    ///   *own* downstream flits are skipped (that wait resolves through
    ///   the worm's head, which contributes its own edge).
    ///
    /// Read-only and cold: meant to run once, after the watchdog fires.
    pub fn wait_for_snapshot(&self, reason: &str) -> WaitForSnapshot {
        let mut snap = WaitForSnapshot {
            cycle: self.cycle,
            reason: reason.to_owned(),
            live_messages: self.slab.live() as u64,
            flits_in_flight: self.flits_in_flight,
            ..WaitForSnapshot::default()
        };
        let mut seen: BTreeSet<(u32, usize, u32)> = BTreeSet::new();

        // Heads pending routing: blocked on VC allocation.
        let mut candidates: Vec<Candidate> = Vec::new();
        for &PendingHead { ivc, node, .. } in &self.pending_route {
            let Some(front) = self.input_vcs[ivc as usize].front() else {
                continue;
            };
            let msg = front.msg;
            let here = NodeId::new(node);
            let route = self.slab.get(msg).route;
            candidates.clear();
            self.algo
                .candidates(&self.topo, &route, here, &mut candidates);
            if let Some(fs) = &self.faults {
                if !fs.mask.is_trivial() {
                    candidates.retain(|c| {
                        fs.mask
                            .channel_alive(self.topo.channel(here, c.direction()))
                    });
                }
            }
            let max_class = (self.classes - 1) as u8;
            for cand in &candidates {
                let dir = cand.direction().index();
                let base = cand.vc_class().min(max_class) as usize * self.replicas;
                let ch = self.channel_index(node, dir);
                for r in 0..self.replicas {
                    let ovc = self.ovc_index(node, dir, base + r);
                    if let Some(owner) = self.out_owner[ovc] {
                        if owner != msg && seen.insert((msg.index(), ch, owner.index())) {
                            snap.edges.push(WaitForEdge {
                                msg: u64::from(msg.index()),
                                node: u64::from(node),
                                channel: ch as u64,
                                holder: u64::from(owner.index()),
                                kind: WaitKind::Vc,
                            });
                        }
                    }
                }
            }
        }

        // Routed worms with flits ready but no credits: blocked on the
        // downstream buffer.
        for ivc in 0..self.input_vcs.len() as u32 {
            let slot = &self.input_vcs[ivc as usize];
            let (Some(RouteTarget::Link { dir, vc }), Some(msg)) = (slot.route, slot.route_msg)
            else {
                continue;
            };
            if self.occ[ivc as usize] == 0 {
                continue;
            }
            let (node, _, _) = self.ivc_parts(ivc);
            let ovc = self.ovc_index(node, dir as usize, vc as usize);
            if self.out_credits[ovc] != 0 {
                continue;
            }
            let ch = self.channel_index(node, dir as usize);
            let neighbor = self.neighbor_of[ch];
            debug_assert!(neighbor != u32::MAX, "routes follow existing channels");
            let div = self.ivc_index(neighbor, dir as usize, vc as usize);
            let Some(front) = self.input_vcs[div as usize].front() else {
                continue;
            };
            let holder = front.msg;
            if holder != msg && seen.insert((msg.index(), ch, holder.index())) {
                snap.edges.push(WaitForEdge {
                    msg: u64::from(msg.index()),
                    node: u64::from(node),
                    channel: ch as u64,
                    holder: u64::from(holder.index()),
                    kind: WaitKind::Credit,
                });
            }
        }

        snap.detect_cycle();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;
    use proptest::prelude::*;
    use wormsim_routing::AlgorithmKind;

    fn tiny(algorithm: AlgorithmKind) -> Network {
        NetworkBuilder::new(Topology::torus(&[4, 4]), algorithm)
            .seed(1)
            .build()
            .unwrap()
    }

    #[test]
    fn indexing_roundtrip() {
        let net = tiny(AlgorithmKind::PositiveHop);
        for node in 0..16u32 {
            for port in 0..net.ports {
                for vc in 0..net.vcs {
                    let ivc = net.ivc_index(node, port, vc);
                    assert_eq!(net.ivc_parts(ivc), (node, port, vc));
                }
            }
        }
    }

    #[test]
    fn empty_network_steps_quietly() {
        let mut net = tiny(AlgorithmKind::Ecube);
        net.run(1000);
        assert_eq!(net.metrics().generated, 0);
        assert_eq!(net.flits_in_flight(), 0);
        assert!(net.deadlock_report().is_none());
        assert_eq!(net.cycle(), 1000);
    }

    #[test]
    fn cancelled_token_stops_run_promptly() {
        let token = crate::CancelToken::new();
        token.cancel();
        let mut net = tiny(AlgorithmKind::Ecube);
        net.set_cancel_token(token.clone());
        net.run(1_000_000);
        assert_eq!(net.cycle(), 0, "pre-cancelled run executes no cycles");

        // The drain path honors the token too: an injected message never
        // delivers because run_until_empty returns at its first check.
        let src = net.topology().node_at(&[0, 0]);
        let dest = net.topology().node_at(&[2, 1]);
        net.inject(src, dest, 16);
        assert!(!net.run_until_empty(1_000));
        assert_eq!(net.cycle(), 0);
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        // Same seed, one with an (untripped) token: bit-identical traffic.
        let busy = || {
            NetworkBuilder::new(Topology::torus(&[4, 4]), AlgorithmKind::PositiveHop)
                .arrival(wormsim_traffic::ArrivalProcess::geometric(0.02).unwrap())
                .seed(7)
                .build()
                .unwrap()
        };
        let mut plain = busy();
        let mut tokened = busy();
        tokened.set_cancel_token(crate::CancelToken::new());
        plain.run(3_000);
        tokened.run(3_000);
        assert_eq!(plain.cycle(), tokened.cycle());
        assert_eq!(plain.metrics().generated, tokened.metrics().generated);
        assert_eq!(plain.metrics().delivered, tokened.metrics().delivered);
        assert_eq!(plain.metrics().flit_hops, tokened.metrics().flit_hops);
    }

    #[test]
    fn mid_run_cancellation_is_stride_bounded() {
        let token = crate::CancelToken::new();
        let mut net = tiny(AlgorithmKind::Ecube);
        net.set_cancel_token(token.clone());
        net.run(500); // below the check stride: runs to completion
        assert_eq!(net.cycle(), 500);
        token.cancel();
        net.run(100_000);
        // The first check (n == 0) sees the tripped token immediately.
        assert_eq!(net.cycle(), 500);
    }

    #[test]
    fn single_message_zero_load_latency() {
        // Equation 2 with w = 0: latency = m_l + d - 1.
        for algorithm in [
            AlgorithmKind::Ecube,
            AlgorithmKind::NorthLast,
            AlgorithmKind::TwoPowerN,
            AlgorithmKind::PositiveHop,
            AlgorithmKind::NegativeHop,
            AlgorithmKind::NegativeHopBonusCards,
        ] {
            let mut net = tiny(algorithm);
            let src = net.topology().node_at(&[0, 0]);
            let dest = net.topology().node_at(&[2, 1]);
            net.inject(src, dest, 16);
            assert!(net.run_until_empty(1_000), "{algorithm} should drain");
            let delivered = net.drain_delivered();
            assert_eq!(delivered.len(), 1, "{algorithm}");
            let d = delivered[0];
            assert_eq!(d.hop_class, 3, "{algorithm}");
            assert_eq!(d.latency, 16 + 3 - 1, "{algorithm}: zero-load latency");
            assert_eq!(d.source_wait, 0, "{algorithm}");
        }
    }

    #[test]
    fn single_flit_message_latency() {
        let mut net = tiny(AlgorithmKind::Ecube);
        let src = net.topology().node_at(&[0, 0]);
        let dest = net.topology().node_at(&[1, 0]);
        net.inject(src, dest, 1);
        assert!(net.run_until_empty(100));
        let d = net.drain_delivered();
        assert_eq!(d[0].latency, 1);
    }

    #[test]
    fn flit_conservation() {
        let mut net = tiny(AlgorithmKind::NegativeHop);
        let topo = net.topology().clone();
        for i in 0..10u32 {
            let src = NodeId::new(i % 16);
            let dest = NodeId::new((i * 7 + 3) % 16);
            if src != dest {
                net.inject(src, dest, 4 + i % 5);
            }
        }
        let injected_flits = net.flits_in_flight();
        assert!(net.run_until_empty(10_000));
        assert_eq!(net.metrics().flits_ejected, injected_flits);
        assert_eq!(
            net.metrics().delivered as usize,
            net.drain_delivered().len()
        );
        assert_eq!(net.live_messages(), 0);
        let _ = topo;
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut net = NetworkBuilder::new(Topology::torus(&[4, 4]), AlgorithmKind::PositiveHop)
                .arrival(wormsim_traffic::ArrivalProcess::geometric(0.02).unwrap())
                .message_length(wormsim_traffic::MessageLength::fixed(8).unwrap())
                .seed(seed)
                .build()
                .unwrap();
            net.run(2_000);
            (
                net.metrics().generated,
                net.metrics().delivered,
                net.metrics().flit_hops,
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    /// Which faults a differential case runs under.
    #[derive(Clone, Copy, Debug)]
    enum FaultCase {
        Healthy,
        /// `count` random links dead from cycle 0.
        Static {
            count: usize,
            seed: u64,
        },
        /// One random link dead over `[fail_at, fail_at + lasts)`.
        Transient {
            seed: u64,
            fail_at: u64,
            lasts: u64,
        },
    }

    impl FaultCase {
        fn plan(self, topo: &Topology) -> Option<wormsim_faults::FaultPlan> {
            use wormsim_faults::{FaultPlan, FaultRegion};
            match self {
                FaultCase::Healthy => None,
                FaultCase::Static { count, seed } => Some(FaultPlan::random_links(
                    topo,
                    count,
                    seed,
                    &FaultRegion::Anywhere,
                )),
                FaultCase::Transient {
                    seed,
                    fail_at,
                    lasts,
                } => {
                    let link = FaultPlan::random_links(topo, 1, seed, &FaultRegion::Anywhere);
                    let mut plan = FaultPlan::new();
                    plan.push(wormsim_faults::Fault {
                        fail_at,
                        repair_at: Some(fail_at + lasts),
                        ..link.faults()[0]
                    });
                    Some(plan)
                }
            }
        }
    }

    /// One randomized configuration of the differential test below.
    #[derive(Clone, Debug)]
    struct Differential {
        topo: Topology,
        algorithm: AlgorithmKind,
        selection: SelectionPolicy,
        switching: Switching,
        replicas: u32,
        load: f64,
        faults: FaultCase,
        seed: u64,
        /// Cycles run before the registry is switched on, and after.
        cycles: (u64, u64),
    }

    impl Differential {
        fn build(&self, always_retry: bool) -> Option<Network> {
            let length = 8;
            let rate = self.load * 2.0 * self.topo.num_dims() as f64
                / (f64::from(length) * self.topo.uniform_avg_distance());
            let mut builder = NetworkBuilder::new(self.topo.clone(), self.algorithm)
                .arrival(wormsim_traffic::ArrivalProcess::geometric(rate.min(1.0)).unwrap())
                .message_length(wormsim_traffic::MessageLength::fixed(length).unwrap())
                .selection(self.selection)
                .switching(self.switching)
                .vc_replicas(self.replicas)
                .seed(self.seed);
            if let Some(plan) = self.faults.plan(&self.topo) {
                builder = builder.faults(plan);
            }
            // nhop/nbc reject non-bipartite tori; nlast rejects some shapes.
            let mut net = builder.build().ok()?;
            net.always_retry = always_retry;
            Some(net)
        }
    }

    fn arb_differential() -> impl Strategy<Value = Differential> {
        let topo = prop_oneof![
            Just(Topology::torus(&[4, 4])),
            Just(Topology::torus(&[6, 4])),
            Just(Topology::mesh(&[5, 5])),
            Just(Topology::torus(&[4, 4, 4])),
            Just(Topology::mesh(&[3, 3, 3])),
        ];
        let algorithm = prop_oneof![
            Just(AlgorithmKind::Ecube),
            Just(AlgorithmKind::NorthLast),
            Just(AlgorithmKind::TwoPowerN),
            Just(AlgorithmKind::PositiveHop),
            Just(AlgorithmKind::NegativeHop),
            Just(AlgorithmKind::NegativeHopBonusCards),
        ];
        let selection = prop_oneof![
            Just(SelectionPolicy::MostCredits),
            Just(SelectionPolicy::FirstFree),
            Just(SelectionPolicy::Random),
        ];
        let switching = prop_oneof![
            (1u32..=3).prop_map(|d| Switching::Wormhole { buffer_depth: d }),
            Just(Switching::VirtualCutThrough),
            Just(Switching::StoreAndForward),
        ];
        let faults = prop_oneof![
            Just(FaultCase::Healthy),
            Just(FaultCase::Healthy),
            (1usize..=4, any::<u64>()).prop_map(|(count, seed)| FaultCase::Static { count, seed }),
            (any::<u64>(), 50u64..300, 20u64..200).prop_map(|(seed, fail_at, lasts)| {
                FaultCase::Transient {
                    seed,
                    fail_at,
                    lasts,
                }
            }),
        ];
        (
            topo,
            algorithm,
            selection,
            switching,
            1u32..=2,
            0.3f64..1.0,
            faults,
            any::<u64>(),
            (100u64..400, 100u64..400),
        )
            .prop_map(
                |(topo, algorithm, selection, switching, replicas, load, faults, seed, cycles)| {
                    Differential {
                        topo,
                        algorithm,
                        selection,
                        switching,
                        replicas,
                        load,
                        faults,
                        seed,
                        cycles,
                    }
                },
            )
    }

    /// Everything a run leaves behind that the sleeping route phase must
    /// not move: the counters (work counters aside), the delivery records
    /// and the registry's per-channel / per-class arrays.
    fn observable(net: &mut Network) -> (String, Vec<DeliveredMessage>, [Vec<u64>; 6], u64) {
        let mut metrics = net.metrics().clone();
        metrics.route_attempts = 0;
        metrics.route_sleeps = 0;
        let reg = net.metrics_registry().expect("switched on mid-run");
        let arrays = [
            reg.channel_flits.clone(),
            reg.channel_blocked.clone(),
            reg.channel_alloc_fail.clone(),
            reg.class_flits.clone(),
            reg.class_blocked.clone(),
            reg.class_alloc_fail.clone(),
        ];
        let latencies = reg.latency.count();
        (
            format!("{metrics:?} {:?}", net.deadlock_report()),
            net.drain_delivered(),
            arrays,
            latencies,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The route phase with sleeping heads against the always-retry
        /// reference: same simulation, same telemetry, and every skipped
        /// entry is an attempt the reference made.
        #[test]
        fn sleeping_heads_match_the_always_retry_reference(case in arb_differential()) {
            let (Some(mut net), Some(mut reference)) = (case.build(false), case.build(true))
            else {
                return Ok(());
            };
            for n in [&mut net, &mut reference] {
                n.run(case.cycles.0);
                n.observer().metrics_on();
                n.run(case.cycles.1);
            }
            prop_assert_eq!(observable(&mut net), observable(&mut reference));
            prop_assert_eq!(reference.metrics().route_sleeps, 0);
            prop_assert_eq!(
                reference.metrics().route_attempts,
                net.metrics().route_attempts + net.metrics().route_sleeps
            );
            if !matches!(case.faults, FaultCase::Healthy) {
                prop_assert_eq!(net.metrics().route_sleeps, 0, "heads never sleep under faults");
            }
        }
    }

    #[test]
    fn blocked_heads_sleep_at_saturation() {
        let case = Differential {
            topo: Topology::torus(&[4, 4]),
            algorithm: AlgorithmKind::Ecube,
            selection: SelectionPolicy::MostCredits,
            switching: Switching::wormhole(),
            replicas: 1,
            load: 0.9,
            faults: FaultCase::Healthy,
            seed: 1993,
            cycles: (0, 1_000),
        };
        let mut net = case.build(false).unwrap();
        net.run(1_000);
        let m = net.metrics();
        assert!(
            m.route_sleeps > m.route_attempts,
            "at saturation most pending heads are asleep: {} sleeps, {} attempts",
            m.route_sleeps,
            m.route_attempts
        );
    }

    #[test]
    fn adaptive_traffic_flows_around_static_link_faults() {
        let topo = Topology::torus(&[4, 4]);
        let plan = wormsim_faults::FaultPlan::random_links(
            &topo,
            6,
            7,
            &wormsim_faults::FaultRegion::Anywhere,
        );
        let mut net = NetworkBuilder::new(topo, AlgorithmKind::PositiveHop)
            .arrival(wormsim_traffic::ArrivalProcess::geometric(0.01).unwrap())
            .message_length(wormsim_traffic::MessageLength::fixed(8).unwrap())
            .faults(plan)
            .hop_budget(Some(200))
            .seed(1993)
            .build()
            .unwrap();
        net.run(3_000);
        assert_eq!(net.fault_mask().unwrap().dead_channel_count(), 6);
        assert!(net.metrics().generated > 0);
        assert!(
            net.metrics().delivered > 0,
            "traffic must route around faults"
        );
    }

    #[test]
    fn severed_in_flight_message_is_aborted_and_resources_reclaimed() {
        // A 4-node line; the worm 0 -> 3 is cut mid-flight when the channel
        // out of node 1 dies at cycle 4.
        let topo = Topology::mesh(&[4]);
        let mut plan = wormsim_faults::FaultPlan::new();
        plan.push(wormsim_faults::Fault {
            target: wormsim_faults::FaultTarget::Link {
                node: NodeId::new(1),
                direction: Direction::new(0, wormsim_topology::Sign::Plus),
            },
            fail_at: 4,
            repair_at: None,
        });
        let mut net = NetworkBuilder::new(topo, AlgorithmKind::Ecube)
            .faults(plan)
            .seed(1)
            .build()
            .unwrap();
        net.inject(NodeId::new(0), NodeId::new(3), 8);
        assert!(net.run_until_empty(1_000));
        let m = net.metrics();
        assert_eq!(m.messages_aborted, 1);
        assert_eq!(m.delivered, 0);
        assert!(m.flits_dropped > 0);
        assert_eq!(net.flits_in_flight(), 0);
        assert_eq!(net.live_messages(), 0);
        assert!(net.deadlock_report().is_none());
    }

    #[test]
    fn queued_messages_park_during_partition_and_resume_after_repair() {
        // Two nodes; the only forward channel dies for cycles 2..50. The
        // streaming message is severed; the two still-queued messages park
        // (exempt from the watchdog) and deliver after the repair.
        let topo = Topology::mesh(&[2]);
        let mut plan = wormsim_faults::FaultPlan::new();
        plan.push(wormsim_faults::Fault {
            target: wormsim_faults::FaultTarget::Link {
                node: NodeId::new(0),
                direction: Direction::new(0, wormsim_topology::Sign::Plus),
            },
            fail_at: 2,
            repair_at: Some(50),
        });
        let mut net = NetworkBuilder::new(topo, AlgorithmKind::Ecube)
            .faults(plan)
            .congestion_limit(None)
            .seed(1)
            .build()
            .unwrap();
        for _ in 0..3 {
            net.inject(NodeId::new(0), NodeId::new(1), 4);
        }
        net.run(10);
        let aborted = net.metrics().messages_aborted;
        assert!(aborted >= 1, "the in-flight worm is severed");
        assert_eq!(net.metrics().delivered, 0);
        assert_eq!(net.parked_messages() + aborted as usize, 3);
        assert!(net.parked_messages() >= 1);
        assert_eq!(net.active_flits(), 0, "parked flits do not count as active");
        assert!(net.run_until_empty(1_000));
        assert_eq!(net.parked_messages(), 0);
        assert_eq!(net.metrics().delivered, 3 - aborted);
        assert_eq!(net.live_messages(), 0);
        assert!(net.deadlock_report().is_none());
    }

    #[test]
    fn livelock_guard_flags_messages_over_budget() {
        // The sole forward channel is dead from cycle 0 and never repaired;
        // a manually injected message (which bypasses the reachability check
        // at generation) waits forever. The age budget flags it.
        let topo = Topology::mesh(&[2]);
        let mut plan = wormsim_faults::FaultPlan::new();
        plan.push_dead_link(
            NodeId::new(0),
            Direction::new(0, wormsim_topology::Sign::Plus),
        );
        let mut net = NetworkBuilder::new(topo, AlgorithmKind::Ecube)
            .faults(plan)
            .age_budget(Some(100))
            .seed(1)
            .build()
            .unwrap();
        net.inject(NodeId::new(0), NodeId::new(1), 4);
        net.run(600);
        let report = net.livelock_report().expect("age budget must trip");
        assert!(report.max_age > 100);
        assert_eq!(report.messages_over_budget, 1);
    }
}
