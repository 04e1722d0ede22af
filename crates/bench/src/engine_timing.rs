//! The timed raw-[`Network`](wormsim::engine::Network) run shared by the
//! `engine_bench` and `scaling` bins.

use std::time::Instant;
use wormsim::observe::MetricsRegistry;
use wormsim::routing::AlgorithmKind;
use wormsim::topology::Topology;
use wormsim::{ArrivalProcess, MessageLength, NetworkBuilder, TrafficConfig};

/// Cycles stepped between two collections of the delivery records. The
/// engine keeps every record until it is taken, as a drive loop does once
/// per sampling period; a timed section that never took them would grow
/// with `--cycles` and time the reallocations.
const TIMED_CHUNK: u64 = 1_000;

/// One algorithm's timed run on one topology.
pub struct EngineTiming {
    /// The algorithm's short name.
    pub algorithm: &'static str,
    /// Simulated cycles per wall-clock second.
    pub steps_per_sec: f64,
    /// Simulated flit-hops per wall-clock second.
    pub flits_per_sec: f64,
    /// Wall-clock seconds spent stepping the timed cycles.
    pub wall_seconds: f64,
    /// Flit-hops over the timed cycles.
    pub flit_hops: u64,
    /// Messages delivered over the timed cycles.
    pub delivered: u64,
    /// Route attempts that reached the routing function (work counter).
    pub route_attempts: u64,
    /// Pending heads the route phase skipped as still blocked (work counter).
    pub route_sleeps: u64,
    /// The deep-telemetry registry, when the run was timed with metrics on.
    pub registry: Option<Box<MetricsRegistry>>,
}

/// Builds the uniform-traffic, 16-flit network for `kind` at `load`, warms
/// it up, and times `cycles` more cycles (with the deep-telemetry registry
/// installed when `with_metrics`).
pub fn time_engine(
    topo: &Topology,
    kind: AlgorithmKind,
    load: f64,
    seed: u64,
    warmup: u64,
    cycles: u64,
    with_metrics: bool,
) -> EngineTiming {
    let pattern = TrafficConfig::Uniform.build(topo).expect("uniform builds");
    let rate = wormsim::stats::throughput::rate_for_utilization(
        load,
        16.0,
        pattern.mean_distance(topo),
        topo.num_dims(),
    );
    let mut net = NetworkBuilder::new(topo.clone(), kind)
        .arrival(ArrivalProcess::geometric(rate).expect("valid rate"))
        .message_length(MessageLength::fixed(16).expect("valid length"))
        .seed(seed)
        .build()
        .expect("network builds");
    net.run(warmup);
    let mut records = net.drain_delivered();
    records.clear();
    net.reset_metrics();
    if with_metrics {
        net.observer().metrics_on();
    }
    let mut wall_seconds = 0.0;
    let mut left = cycles;
    while left > 0 {
        let chunk = left.min(TIMED_CHUNK);
        let start = Instant::now();
        net.run(chunk);
        wall_seconds += start.elapsed().as_secs_f64();
        net.drain_delivered_into(&mut records);
        records.clear();
        left -= chunk;
    }
    let metrics = net.metrics();
    EngineTiming {
        algorithm: kind.name(),
        steps_per_sec: cycles as f64 / wall_seconds,
        flits_per_sec: metrics.flit_hops as f64 / wall_seconds,
        wall_seconds,
        flit_hops: metrics.flit_hops,
        delivered: metrics.delivered,
        route_attempts: metrics.route_attempts,
        route_sleeps: metrics.route_sleeps,
        registry: net.observer().metrics_off(),
    }
}
