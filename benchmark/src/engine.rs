//! The two raw-`Network` workloads: no sweep, statistics, journal or codec
//! runs, so host time here is engine time.
//!
//! Each algorithm's network is built, warmed up, and then stepped in
//! fixed-size chunks. How many chunks follows from `--seconds` alone, never
//! from how fast the host is: at load 0.3 the 16^3 network keeps filling for
//! thousands of cycles, so a faster engine given the same time would reach
//! later, slower cycles and read worse than it is. The same simulated
//! cycles are timed on every commit; a faster one just finishes sooner.

use crate::report::Outcome;
use crate::spec::{PHASES, RSS_ALGOS};
use crate::stats::{median_of, Stat};
use crate::sys;
use crate::trace::Tracer;
use crate::{Options, Scale};
use wormsim::engine::Network;
use wormsim::observe::fnv1a_hex;
use wormsim::routing::AlgorithmKind;
use wormsim::stats::throughput::rate_for_utilization;
use wormsim::topology::Topology;
use wormsim::{ArrivalProcess, MessageLength, NetworkBuilder, TrafficConfig};

const MESSAGE_FLITS: u32 = 16;
/// Builds per algorithm; the last one is the network that gets measured.
const SETUP_REPEATS: usize = 3;
/// Cycles stepped from a fresh build to compare two builds of one seed.
const REPLAY_CYCLES: u64 = 100;
const MIN_CHUNKS: usize = 3;

pub struct EngineWorkload {
    pub topology: Topology,
    pub load: f64,
    pub algorithms: Vec<AlgorithmKind>,
    pub warmup: u64,
    pub chunk: u64,
    /// Chunks per algorithm for each second of `--seconds`, set so that a
    /// pass fills its window on the machine the bounds were taken on.
    pub chunks_per_second: f64,
}

impl EngineWorkload {
    /// `torus:16x16x16` at load 0.3 under ecube, nbc and phop (2 / 13 / 25
    /// VC classes): the working set is far beyond cache.
    pub fn cube16(scale: &Scale) -> EngineWorkload {
        let smoke = scale.smoke;
        EngineWorkload {
            topology: scale.cube.clone(),
            load: 0.3,
            algorithms: vec![
                AlgorithmKind::Ecube,
                AlgorithmKind::NegativeHopBonusCards,
                AlgorithmKind::PositiveHop,
            ],
            warmup: if smoke { 300 } else { 1000 },
            chunk: if smoke { 300 } else { 250 },
            chunks_per_second: 0.9,
        }
    }

    /// The paper's 16x16 torus at load 0.1 under all six algorithms: about
    /// an eighth of the channels are busy and everything fits in cache.
    pub fn lowload(scale: &Scale) -> EngineWorkload {
        EngineWorkload {
            topology: scale.plane.clone(),
            load: 0.1,
            algorithms: AlgorithmKind::all().to_vec(),
            warmup: 3000,
            chunk: if scale.smoke { 2000 } else { 20_000 },
            chunks_per_second: 1.45,
        }
    }

    fn build(&self, kind: AlgorithmKind, seed: u64) -> Network {
        let pattern = TrafficConfig::Uniform
            .build(&self.topology)
            .expect("uniform traffic builds");
        let rate = rate_for_utilization(
            self.load,
            f64::from(MESSAGE_FLITS),
            pattern.mean_distance(&self.topology),
            self.topology.num_dims(),
        );
        NetworkBuilder::new(self.topology.clone(), kind)
            .arrival(ArrivalProcess::geometric(rate).expect("a load below 1 gives a valid rate"))
            .message_length(MessageLength::fixed(MESSAGE_FLITS).expect("16 flits is valid"))
            .seed(seed)
            .build()
            .expect("the paper's algorithms build on an even torus")
    }
}

/// Simulated counters of one stretch of cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counters {
    flit_hops: u64,
    delivered: u64,
    generated: u64,
    refused: u64,
}

impl Counters {
    fn of(net: &Network) -> Counters {
        let m = net.metrics();
        Counters {
            flit_hops: m.flit_hops,
            delivered: m.delivered,
            generated: m.generated,
            refused: m.refused,
        }
    }
}

/// One algorithm's share of the pass.
struct AlgoRun {
    name: &'static str,
    build_s: Vec<f64>,
    warmup_s: f64,
    net_rss_mib: f64,
    replay_matches: bool,
    first_chunk: Counters,
    plain: Vec<Chunk>,
    traced: Vec<TracedChunk>,
    healthy: bool,
}

struct Chunk {
    wall_s: f64,
    flit_hops: u64,
}

struct TracedChunk {
    wall_s: f64,
    phase_s: [f64; 5],
    counters: Counters,
    blocked: u64,
    alloc_fail: u64,
}

fn run_algorithm(
    workload: &EngineWorkload,
    kind: AlgorithmKind,
    seed: u64,
    chunks: usize,
    traced: bool,
    tracer: &Tracer,
) -> AlgoRun {
    let rss_before = sys::rss_mib();
    let mut build_s = Vec::new();
    let mut replay = None;
    let mut net: Option<Network> = None;
    for _ in 0..SETUP_REPEATS {
        // The previous build is dropped first, so the high-water mark is
        // one network's, not two.
        if let Some(mut previous) = net.take() {
            if replay.is_none() {
                previous.run(REPLAY_CYCLES);
                replay = Some(Counters::of(&previous));
            }
        }
        let (built, seconds) = tracer.span("engine.build", || workload.build(kind, seed));
        build_s.push(seconds);
        net = Some(built);
    }
    let mut net = net.expect("SETUP_REPEATS is at least one");

    let (replay_matches, warmup_s) = tracer.span("engine.warmup", || {
        net.run(REPLAY_CYCLES.min(workload.warmup));
        let matches = replay.is_none_or(|r| r == Counters::of(&net));
        net.run(workload.warmup.saturating_sub(REPLAY_CYCLES));
        matches
    });
    let net_rss_mib = (sys::rss_mib() - rss_before).max(0.0);
    let mut healthy = net.deadlock_report().is_none();

    let capacity = net.num_network_channels() * workload.chunk;
    let mut plain = Vec::new();
    let mut traced_chunks = Vec::new();
    let mut first_chunk = Counters::default();
    // Delivery records pile up until taken; a drive loop takes them every
    // sampling period, and so does this one, or memory would grow with time.
    let mut delivered = Vec::new();
    for _ in 0..chunks {
        net.reset_metrics();
        let ((), wall_s) = tracer.span("engine.run", || net.run(workload.chunk));
        let counters = Counters::of(&net);
        healthy &= counters.delivered > 0
            && counters.flit_hops <= capacity
            && net.metrics().cycles == workload.chunk;
        if plain.is_empty() {
            first_chunk = counters;
        }
        plain.push(Chunk {
            wall_s,
            flit_hops: counters.flit_hops,
        });
        net.drain_delivered_into(&mut delivered);
        delivered.clear();
        if traced {
            net.reset_metrics();
            net.observer().metrics_on();
            let ((), wall_s) = tracer.span("engine.run.metrics_on", || net.run(workload.chunk));
            let registry = net
                .observer()
                .metrics_off()
                .expect("the registry was switched on for this chunk");
            traced_chunks.push(TracedChunk {
                wall_s,
                phase_s: registry.phase_nanos.map(|ns| ns as f64 / 1e9),
                counters: Counters::of(&net),
                blocked: registry.class_blocked.iter().sum(),
                alloc_fail: registry.class_alloc_fail.iter().sum(),
            });
            net.drain_delivered_into(&mut delivered);
            delivered.clear();
        }
    }
    healthy &= net.deadlock_report().is_none();
    AlgoRun {
        name: kind.name(),
        build_s,
        warmup_s,
        net_rss_mib,
        replay_matches,
        first_chunk,
        plain,
        traced: traced_chunks,
        healthy,
    }
}

/// Runs the workload for about `seconds` and reports either the
/// end-to-end metrics (`traced == false`) or the engine's per-layer ones.
pub fn measure(workload: &EngineWorkload, options: &Options, tracer: &Tracer) -> Outcome {
    let Options {
        seed,
        seconds,
        trace: traced,
        ..
    } = *options;
    // Metrics-on chunks alternate with plain ones in the traced pass.
    let chunks = (seconds * workload.chunks_per_second / if traced { 2.0 } else { 1.0 }) as usize;
    let chunks = chunks.max(MIN_CHUNKS);
    let runs: Vec<AlgoRun> = workload
        .algorithms
        .iter()
        .map(|&kind| run_algorithm(workload, kind, seed, chunks, traced, tracer))
        .collect();

    let mut out = Outcome {
        attempted: runs.len() as u64,
        ..Outcome::default()
    };
    let mut digest_input = String::new();
    for run in &runs {
        let c = run.first_chunk;
        digest_input.push_str(&format!(
            "{}:{},{},{},{};",
            run.name, c.flit_hops, c.delivered, c.generated, c.refused
        ));
        if !run.replay_matches {
            out.fail(
                1,
                format!(
                    "{}: two builds of seed {seed} diverged within {REPLAY_CYCLES} cycles",
                    run.name
                ),
            );
        } else if !run.healthy {
            out.fail(
                1,
                format!(
                    "{}: a chunk delivered nothing, overran channel capacity, or deadlocked",
                    run.name
                ),
            );
        }
    }
    out.sim_digest = fnv1a_hex(&digest_input);

    let chunk_walls: Vec<Stat> = runs
        .iter()
        .map(|r| Stat::of(&r.plain.iter().map(|c| c.wall_s).collect::<Vec<_>>()))
        .collect();
    let chunk_hops: Vec<f64> = runs
        .iter()
        .map(|r| median_of(&r.plain, |c| c.flit_hops as f64))
        .collect();
    // One round = one chunk of every algorithm, each at its median.
    let round = Stat::sum(&chunk_walls);

    if !traced {
        let setups: Vec<Stat> = runs.iter().map(|r| Stat::of(&r.build_s)).collect();
        out.set("setup_s", Stat::sum(&setups));
        out.set("wall_s", round);
        out.set("points_per_s", round.rate_of(runs.len() as f64));
        out.set(
            "sim_cycles_per_s",
            round.rate_of((runs.len() as u64 * workload.chunk) as f64),
        );
        out.set("flit_hops_per_s", round.rate_of(chunk_hops.iter().sum()));
        out.set_single("peak_rss_mb", sys::peak_rss_mib());
        return out;
    }

    out.set_single(
        "engine.build_s",
        runs.iter().map(|r| median_of(&r.build_s, |s| *s)).sum(),
    );
    out.set_single("engine.warmup_s", runs.iter().map(|r| r.warmup_s).sum());
    let mut sums = Counters::default();
    let (mut blocked, mut alloc_fail) = (0u64, 0u64);
    let mut phase_s = [0.0f64; 5];
    let mut traced_round = 0.0;
    for ((run, wall), hops) in runs.iter().zip(&chunk_walls).zip(&chunk_hops) {
        out.set(
            format!("engine.steps_per_s.{}", run.name),
            wall.rate_of(workload.chunk as f64),
        );
        out.set(
            format!("engine.flit_hops_per_s.{}", run.name),
            wall.rate_of(*hops),
        );
        if RSS_ALGOS.contains(&run.name) {
            out.set_single(format!("engine.net_rss_mb.{}", run.name), run.net_rss_mib);
        }
        // Counts come from the first metrics-on chunk: the same cycles of
        // the same run on every host.
        let first = &run.traced[0];
        sums.flit_hops += first.counters.flit_hops;
        sums.delivered += first.counters.delivered;
        sums.generated += first.counters.generated;
        sums.refused += first.counters.refused;
        blocked += first.blocked;
        alloc_fail += first.alloc_fail;
        for (p, total) in phase_s.iter_mut().enumerate() {
            *total += median_of(&run.traced, |c| c.phase_s[p]);
        }
        traced_round += median_of(&run.traced, |c| c.wall_s);
    }
    for (name, seconds) in PHASES.iter().zip(phase_s) {
        out.set_single(format!("engine.phase_s.{name}"), seconds);
    }
    out.set_single("engine.flit_hops", sums.flit_hops as f64);
    out.set_single("engine.delivered", sums.delivered as f64);
    out.set_single("engine.generated", sums.generated as f64);
    out.set_single("engine.refused", sums.refused as f64);
    out.set_single("engine.blocked", blocked as f64);
    out.set_single("engine.alloc_fail", alloc_fail as f64);
    out.set_single(
        "engine.blocked_per_hop",
        blocked as f64 / sums.flit_hops as f64,
    );
    out.set_single(
        "observe.metrics_overhead_frac",
        traced_round / round.value - 1.0,
    );
    out
}
