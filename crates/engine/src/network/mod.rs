//! The [`Network`]: a synchronous flit-level simulator. This module holds
//! the state, its construction and accessors, and the cycle driver
//! ([`Network::step`]); each phase lives in its own submodule (see the
//! crate docs for the map).

use crate::config::{SimConfig, Switching, DEFAULT_WATCHDOG_CYCLES};
use crate::flit::MessageId;
use crate::message::MessageSlab;
use crate::metrics::{difference, DeliveredMessage, Metrics};
use crate::observer::{ObserverHandle, Observers, TraceSink};
use crate::vc::Lanes;
use crate::{EngineError, TraceEvent};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use wormsim_faults::Reachability;
use wormsim_observe::{
    EventSink, MetricsReport, PhaseRecord, Sample, PHASE_ADVANCE, PHASE_ALLOCATE, PHASE_DRAIN,
    PHASE_INJECT, PHASE_NAMES, PHASE_ROUTE,
};
use wormsim_routing::{Candidate, RoutingAlgorithm};
use wormsim_topology::{ChannelMask, Direction, NodeId, Topology};
use wormsim_traffic::{SimRng, TrafficPattern};

mod advance;
mod allocate;
mod faults;
mod inject;
mod route;
#[cfg(test)]
mod tests;

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
    /// Congestion-control occupancy per message class, grown on demand.
    class_counts: Vec<u32>,
    /// Injection VCs currently streaming a message (VC indices).
    streaming_inj: Vec<u16>,
    /// Round-robin pointer over `streaming_inj` for the injection budget.
    inj_rr: usize,
    /// Round-robin pointer for single-channel ejection.
    ej_rr: usize,
}

/// A decided link transfer: input VC `ivc` at `node` sends one flit over
/// the node's output channel in packed direction `dir`, on physical VC `vc`.
#[derive(Clone, Copy, Debug)]
struct LinkMove {
    ivc: u32,
    node: u32,
    dir: u8,
    vc: u8,
}

/// A routed input VC waiting on an output channel. Everything the
/// switch-allocation inner loop needs is precomputed at routing time so
/// arbitration touches only this entry and two lanes' occupancy (the
/// requester's and the downstream one's). Kept at 8 bytes (the output-VC
/// index is the channel's row base plus `vc`) so a channel's whole request
/// row fits in one or two cache lines on large networks.
#[derive(Clone, Copy, Debug, Default)]
struct OutputRequest {
    ivc: u32,
    vc: u8,
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

/// A fixed-size bitmap worklist. Iterating set bits visits indices in
/// ascending order — for free, every cycle — which is what keeps the
/// event-driven phases bit-identical to the full scans they replace.
///
/// A second-level `summary` bitmap (one bit per word) lets the phase loops
/// skip empty words without touching them, so a quiet cycle costs
/// O(active + words/64) rather than O(words): at 4096 nodes the injection
/// scan drops from 64 word loads to one summary load.
#[derive(Clone, Debug, Default)]
struct BitSet {
    words: Vec<u64>,
    /// Bit `w` set ⟺ `words[w] != 0`. Maintained by [`BitSet::insert`] and
    /// [`BitSet::retain`].
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

    /// Visits every set bit in ascending order, clearing those for which
    /// `keep` returns false. Callers take the set out of the network for
    /// the visit; `keep` must not insert into it (the phases only insert
    /// into the other worklists).
    #[inline]
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for sw in 0..self.summary.len() {
            let mut swords = self.summary[sw];
            while swords != 0 {
                let w = sw * 64 + swords.trailing_zeros() as usize;
                swords &= swords - 1;
                let mut bits = self.words[w];
                debug_assert_ne!(bits, 0, "summary bit implies a non-empty word");
                let mut kept = bits;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if !keep(w * 64 + bit) {
                        kept &= !(1u64 << bit);
                    }
                }
                self.words[w] = kept;
                if kept == 0 {
                    self.summary[sw] &= !(1u64 << (w % 64));
                }
            }
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
    /// Per-VC input buffer capacity in flits.
    capacity: u32,

    /// Every input VC's flits, occupancy and route. A network lane has the
    /// index of the output VC feeding it, so that VC's credits are the
    /// lane's free slots ([`credits`](Self::credits)); the injection lanes
    /// follow ([`inj_ivc`](Self::inj_ivc)).
    lanes: Lanes,
    /// Reservation per output VC: the message currently holding it.
    out_owner: Vec<Option<MessageId>>,
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
    /// Input VCs currently delivering to their node, as `(ivc, node)`.
    ejecting: Vec<(u32, u32)>,
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
    /// Reused `(node, ivc)` buffer of the VCs ready to eject.
    scratch_eject: Vec<(u32, u32)>,
    /// Neighbor node per output channel (`u32::MAX` at mesh boundaries).
    neighbor_of: Vec<u32>,
    /// Owning `(node, dir)` per output channel index.
    ch_owner: Vec<(u32, u8)>,
    /// Routing class per physical VC (`vc / replicas`).
    vc_class: Vec<u8>,
    nodes: Vec<NodeState>,
    slab: MessageSlab,

    /// Cumulative counters: nothing zeroes them, so `metrics.cycles` is
    /// the clock.
    metrics: Metrics,
    /// `metrics` at the last [`reset_metrics`](Self::reset_metrics).
    metrics_base: Metrics,
    delivered: Vec<DeliveredMessage>,
    flits_in_flight: u64,
    last_progress: u64,
    /// The watchdog's no-progress window, resolved from the config once.
    watchdog_cycles: u64,
    deadlock: Option<DeadlockReport>,
    faults: Option<FaultState>,
    livelock: Option<LivelockReport>,

    arrivals_rng: SimRng,
    dest_rng: SimRng,
    length_rng: SimRng,
    arb_rng: SimRng,

    scratch_candidates: Vec<Candidate>,
    scratch_moves: Vec<LinkMove>,
    /// Injection VCs granted a slot of this cycle's injection budget,
    /// indexed `node * vcs + vc` (see [`Network::marked_slot`]).
    marked_inj: Vec<bool>,
    /// The set entries of `marked_inj`, cleared at the next budget pass.
    marked_list: Vec<usize>,
    /// Trace sink, sampler and registry; each off costs one branch per
    /// event site.
    obs: Observers,
    /// Cooperative cancellation: checked on a stride by [`run`](Self::run)
    /// and [`run_until_empty`](Self::run_until_empty). `None` costs nothing.
    cancel: Option<crate::CancelToken>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topology", &self.topo.to_string())
            .field("algorithm", &self.algo.name())
            .field("cycle", &self.metrics.cycles)
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
        let n = topo.num_nodes() as usize;
        let capacity = cfg.buffer_capacity();
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
            lanes: Lanes::new(n * dirs * vcs, n * vcs, capacity),
            out_owner: vec![None; n * dirs * vcs],
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
            neighbor_of,
            ch_owner,
            vc_class,
            nodes: (0..n).map(|_| NodeState::default()).collect(),
            slab: MessageSlab::default(),
            metrics: Metrics::new(classes),
            metrics_base: Metrics::new(classes),
            delivered: Vec::new(),
            flits_in_flight: 0,
            last_progress: 0,
            watchdog_cycles: cfg.watchdog_cycles.unwrap_or(DEFAULT_WATCHDOG_CYCLES),
            deadlock: None,
            faults,
            livelock: None,
            arrivals_rng: SimRng::stream(cfg.seed, 0),
            dest_rng: SimRng::stream(cfg.seed, 1),
            length_rng: SimRng::stream(cfg.seed, 2),
            arb_rng: SimRng::stream(cfg.seed, 3),
            scratch_candidates: Vec::with_capacity(64),
            scratch_moves: Vec::with_capacity(n * dirs),
            marked_inj: vec![false; n * vcs],
            marked_list: Vec::new(),
            obs: Observers::default(),
            cancel: None,
            classes,
            replicas,
            vcs,
            dirs,
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

    /// The injection lane `vc` of `node`: after every network lane.
    #[inline]
    fn inj_ivc(&self, node: u32, vc: usize) -> u32 {
        (self.out_owner.len() + node as usize * self.vcs + vc) as u32
    }

    /// Decodes input VC `ivc` into `(node, port, vc)`; cold, as hot paths
    /// carry the node. A mesh boundary's unused lanes decode to `u32::MAX`.
    fn lane_parts(&self, ivc: u32) -> (u32, usize, usize) {
        let ivc = ivc as usize;
        match ivc.checked_sub(self.out_owner.len()) {
            Some(k) => ((k / self.vcs) as u32, self.dirs, k % self.vcs),
            None => {
                let ch = ivc / self.vcs;
                (self.neighbor_of[ch], ch % self.dirs, ivc % self.vcs)
            }
        }
    }

    /// Free slots in the input lane output VC `ovc` feeds.
    #[inline]
    fn credits(&self, ovc: usize) -> u32 {
        self.capacity - self.lanes.len(ovc as u32)
    }

    #[inline]
    fn ovc_index(&self, node: u32, dir: usize, vc: usize) -> usize {
        (node as usize * self.dirs + dir) * self.vcs + vc
    }

    #[inline]
    fn channel_index(&self, node: u32, dir: usize) -> usize {
        node as usize * self.dirs + dir
    }

    /// The `marked_inj` slot (`node * vcs + vc`) of injection lane `ivc`.
    #[inline]
    fn marked_slot(&self, ivc: u32) -> usize {
        (ivc - self.inj_ivc(0, 0)) as usize
    }

    // ------------------------------------------------------------------
    // Public accessors.
    // ------------------------------------------------------------------

    /// The current cycle (completed steps).
    pub fn cycle(&self) -> u64 {
        self.metrics.cycles
    }

    /// Virtual-channel classes per physical channel (set by the algorithm).
    pub fn num_vc_classes(&self) -> usize {
        self.classes
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

    /// Aggregate counters since the last [`reset_metrics`](Self::reset_metrics)
    /// (since cycle 0 before the first).
    pub fn metrics(&self) -> Metrics {
        self.metrics.since(&self.metrics_base)
    }

    /// Starts a new window for [`metrics`](Self::metrics), as at a
    /// sampling-period boundary. Nothing is zeroed: the network's counters
    /// are cumulative and this records where the window begins, so the
    /// sampler's windows and the registry's report do not see it.
    pub fn reset_metrics(&mut self) {
        self.metrics_base.clone_from(&self.metrics);
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
    /// [`hop_budget`](crate::NetworkBuilder::hop_budget) or
    /// [`age_budget`](crate::NetworkBuilder::age_budget) to be set; checked every
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
    /// [`ObserverHandle`] over this network's tracing, sampling and
    /// metrics state. See [`TraceEvent`] for the trace vocabulary.
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
        ObserverHandle {
            obs: &mut self.obs,
            metrics: &self.metrics,
            channels: self.ch_owner.len(),
        }
    }

    /// Takes the buffered trace events, oldest first (empty if tracing is
    /// off or routed to a custom sink).
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        match &mut self.obs.events {
            TraceSink::Ring(ring) => ring.drain(),
            _ => Vec::new(),
        }
    }

    /// Trace events discarded so far: ring evictions, or whatever the
    /// custom sink reports (failed writes for a JSONL sink).
    pub fn dropped_trace_events(&self) -> u64 {
        match &self.obs.events {
            TraceSink::Off => 0,
            TraceSink::Ring(ring) => ring.dropped_events(),
            TraceSink::Custom(sink) => sink.dropped_events(),
        }
    }

    /// The deep-telemetry registry installed by
    /// [`observer().metrics_on()`](ObserverHandle::metrics_on), rendered
    /// into a per-run report: its own counters, the flit and cycle counts
    /// since it was installed, and the topology's shape, so the report
    /// (and its [heatmap](MetricsReport::heatmap_csv)) is self-contained.
    /// `None` if metrics are off.
    pub fn metrics_report(&self, run_id: &str) -> Option<MetricsReport> {
        let state = self.obs.registry.as_deref()?;
        let (reg, base) = (&state.registry, &state.base);
        let counts = self.metrics.since(&base.metrics);
        let channel_flits = difference(&self.obs.channel_flits, &base.channel_flits);
        let peak = channel_flits.iter().copied().max().unwrap_or(0);
        let total: u64 = channel_flits.iter().sum();
        let cycles = counts.cycles as f64;
        Some(MetricsReport {
            run_id: run_id.to_owned(),
            topology: self.topo.label(),
            dims: self.topo.dims().iter().map(|&d| u64::from(d)).collect(),
            dirs: self.dirs as u64,
            cycles: counts.cycles,
            mean_channel_utilization: total as f64 / (channel_flits.len() as f64 * cycles),
            peak_channel_utilization: peak as f64 / cycles,
            class_flits: counts.class_flits,
            class_blocked: reg.class_blocked.clone(),
            class_alloc_fail: reg.class_alloc_fail.clone(),
            channel_flits,
            channel_blocked: reg.channel_blocked.clone(),
            channel_alloc_fail: reg.channel_alloc_fail.clone(),
            latency: reg.latency.summarize("latency"),
            // Every engine phase runs every cycle.
            phases: PHASE_NAMES
                .iter()
                .zip(reg.phase_nanos)
                .map(|(name, nanos)| PhaseRecord {
                    name: (*name).to_owned(),
                    wall_seconds: nanos as f64 / 1e9,
                    cycles: counts.cycles,
                })
                .collect(),
        })
    }

    /// Emits the current (possibly partial) sampling window immediately —
    /// useful at the end of a run so the tail of the time series is not
    /// lost. No-op when sampling is off or the window is empty.
    pub fn sample_now(&mut self) {
        if self
            .obs
            .sampler
            .as_ref()
            .is_some_and(|s| self.metrics.cycles > s.base.metrics.cycles)
        {
            self.emit_sample();
        }
    }

    /// Sample records discarded by the sampler's sink so far.
    pub fn dropped_sample_events(&self) -> u64 {
        self.obs
            .sampler
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
        if let TraceSink::Custom(sink) = &mut self.obs.events {
            result = result.and(sink.flush());
        }
        if let Some(sampler) = self.obs.sampler.as_mut() {
            result = result.and(sampler.sink.flush());
        }
        result
    }

    /// Builds and emits one sample for the window that opened at the
    /// sampler's snapshot and closes now.
    fn emit_sample(&mut self) {
        let Some(sampler) = self.obs.sampler.as_mut() else {
            return;
        };
        let mut class_occupancy = vec![0u64; self.classes];
        for ivc in 0..self.lanes.count() {
            let flits = self.lanes.len(ivc as u32);
            class_occupancy[self.vc_class[ivc % self.vcs] as usize] += u64::from(flits);
        }
        let depths = || self.nodes.iter().map(|node| node.queue.len() as u64);
        // Destructured without `..`, so a new counter fails to compile here
        // until it is either carried by samples or bound to `_`.
        let Metrics {
            generated,
            refused,
            delivered,
            latency_sum,
            flit_hops,
            flits_injected,
            flits_ejected,
            cycles: window_cycles,
            unroutable: _,
            messages_aborted: _,
            flits_dropped: _,
            route_attempts: _,
            route_sleeps: _,
            class_flits,
        } = self.metrics.since(&sampler.base.metrics);
        let channel_flits = difference(&self.obs.channel_flits, &sampler.base.channel_flits);
        let sample = Sample {
            cycle: self.metrics.cycles,
            window_cycles,
            generated,
            refused,
            delivered,
            latency_sum,
            flit_hops,
            flits_injected,
            flits_ejected,
            flits_in_flight: self.flits_in_flight,
            live_messages: self.slab.live() as u64,
            queued_messages: depths().sum(),
            max_queue_depth: depths().max().unwrap_or(0),
            class_occupancy,
            class_flits,
            channel_flits,
        };
        sampler.sink.record(&sample);
        sampler.base.metrics.clone_from(&self.metrics);
        sampler
            .base
            .channel_flits
            .clone_from(&self.obs.channel_flits);
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

    /// One step of a driving loop `n` steps in: on the cancellation stride,
    /// publishes the current cycle through the installed token's heartbeat
    /// (reading simulation state, never writing it) and returns `false`
    /// instead of stepping once the token has tripped.
    #[inline]
    fn checked_step(&mut self, n: u64) -> bool {
        if n.is_multiple_of(crate::cancel::CANCEL_CHECK_STRIDE) {
            if let Some(token) = &self.cancel {
                token.beat(self.metrics.cycles);
            }
            if self.is_cancelled() {
                return false;
            }
        }
        self.step();
        true
    }

    /// Runs `cycles` simulation steps, stopping early if an installed
    /// [`CancelToken`](crate::CancelToken) trips (checked on a stride, so
    /// at most a stride's worth of extra cycles run after cancellation).
    pub fn run(&mut self, cycles: u64) {
        for n in 0..cycles {
            if !self.checked_step(n) {
                break;
            }
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
            if self.flits_in_flight == 0 || !self.checked_step(n) {
                break;
            }
        }
        self.flits_in_flight == 0
    }

    /// Queues a message directly, bypassing the arrival process (but still
    /// occupying a congestion-control slot until its tail leaves the
    /// source). Intended for tests and custom drivers.
    ///
    /// # Panics
    ///
    /// Panics if `src == dest`, if `length` is zero or above 65 535, or if
    /// `length` exceeds the per-VC buffer capacity under cut-through or
    /// store-and-forward switching (those modes size buffers for the
    /// configured maximum message length, and an oversized message could
    /// never be stored).
    pub fn inject(&mut self, src: NodeId, dest: NodeId, length: u32) -> MessageId {
        assert!(src != dest, "messages must leave their source");
        assert!((1..=65_535).contains(&length), "1 to 65535 flits");
        if !matches!(self.cfg.switching, Switching::Wormhole { .. }) {
            assert!(
                length <= self.capacity,
                "message of {length} flits exceeds the {}-flit buffers this \
                 cut-through/store-and-forward network was configured for",
                self.capacity
            );
        }
        let (route, class) = self.route_message(src, dest);
        self.admit(route, class, length)
    }

    /// Executes one simulation cycle.
    pub fn step(&mut self) {
        if self.faults.is_some() {
            self.apply_fault_transitions();
        }
        // Phase profiling piggybacks on the registry: `lap` is `None` on
        // the disabled path, so each checkpoint is one untaken branch.
        let mut lap = self.obs.registry.is_some().then(std::time::Instant::now);
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
            self.last_progress = self.metrics.cycles;
        } else if self.active_flits() > 0
            && self.deadlock.is_none()
            && self.metrics.cycles - self.last_progress >= self.watchdog_cycles
        {
            self.deadlock = Some(DeadlockReport {
                detected_at: self.metrics.cycles,
                last_progress: self.last_progress,
                flits_in_flight: self.flits_in_flight,
                live_messages: self.slab.live(),
            });
        }
        if (self.cfg.hop_budget.is_some() || self.cfg.age_budget.is_some())
            && self.livelock.is_none()
            && self.metrics.cycles.is_multiple_of(LIVELOCK_CHECK_STRIDE)
        {
            self.check_livelock();
        }
        self.metrics.cycles += 1;
        if let Some(sampler) = self.obs.sampler.as_ref() {
            if self.metrics.cycles - sampler.base.metrics.cycles >= sampler.every {
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
            if let Some(reg) = self.obs.registry.as_deref_mut().map(|s| &mut s.registry) {
                reg.phase_nanos[phase] += now.duration_since(*start).as_nanos() as u64;
            }
            *lap = Some(now);
        }
    }
}
