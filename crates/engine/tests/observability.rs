//! Tests of the engine's observability hooks: bounded trace rings, JSONL
//! event streams, the time-series sampler, the deep-telemetry metrics
//! registry, and wait-for forensics.

use wormsim_engine::observe::json;
use wormsim_engine::observe::{EventSink, JsonRecord, JsonlSink, Sample};
use wormsim_engine::{Network, NetworkBuilder, TraceEvent, DEFAULT_TRACE_CAPACITY};
use wormsim_routing::AlgorithmKind;
use wormsim_topology::Topology;
use wormsim_traffic::{ArrivalProcess, MessageLength, TrafficConfig};

/// A sink that keeps everything, for asserting on sample streams.
struct CollectSink(std::sync::mpsc::Sender<Sample>);

impl EventSink<Sample> for CollectSink {
    fn record(&mut self, event: &Sample) {
        let _ = self.0.send(event.clone());
    }
}

fn busy_net(seed: u64) -> Network {
    NetworkBuilder::new(Topology::torus(&[6, 6]), AlgorithmKind::PositiveHop)
        .traffic(TrafficConfig::Uniform)
        .arrival(ArrivalProcess::geometric(0.02).unwrap())
        .message_length(MessageLength::fixed(8).unwrap())
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn trace_ring_is_bounded_and_counts_drops() {
    let mut net = busy_net(1);
    net.observer().trace_ring_with_capacity(64);
    net.run(3_000);
    let total_events = net.metrics().generated
        + net.metrics().refused
        + net.metrics().delivered
        + net.metrics().flits_ejected;
    assert!(total_events > 64, "the run must overflow the ring");
    let dropped = net.dropped_trace_events();
    assert!(dropped > 0, "overflow must be counted");
    let events = net.drain_trace();
    assert_eq!(events.len(), 64, "ring keeps exactly its capacity");
    // The ring keeps the *most recent* events.
    assert!(events.windows(2).all(|w| w[0].cycle() <= w[1].cycle()));
    assert!(events[0].cycle() > 0);
}

#[test]
fn default_ring_capacity_is_documented_value() {
    let mut net = busy_net(2);
    net.observer().trace_ring();
    net.run(200);
    // Well under capacity: nothing dropped, everything retained.
    assert_eq!(net.dropped_trace_events(), 0);
    let events = net.drain_trace();
    assert!(!events.is_empty());
    assert!(events.len() < DEFAULT_TRACE_CAPACITY);
}

#[test]
fn jsonl_event_sink_streams_parseable_trace() {
    let mut net = busy_net(3);
    net.observer()
        .trace_into(Box::new(JsonlSink::new(Vec::new())));
    net.run(500);
    net.flush_observers().unwrap();
    let sink = net
        .observer()
        .take_trace_sink()
        .expect("custom sink installed");
    assert!(
        net.observer().take_trace_sink().is_none(),
        "sink can only be taken once"
    );
    // Round-trip the stream: every line parses into a TraceEvent.
    // (The sink type is erased; recover the bytes via the JSONL text.)
    drop(sink);

    // Re-run against a fresh network, keeping the writer reachable.
    let mut net = busy_net(3);
    let mut jsonl = JsonlSink::new(Vec::new());
    // Stream manually through the ring drain to keep ownership local.
    net.observer().trace_ring_with_capacity(usize::MAX);
    net.run(500);
    let events = net.drain_trace();
    assert!(!events.is_empty());
    for event in &events {
        jsonl.record(event);
    }
    let text = String::from_utf8(jsonl.into_inner().unwrap()).unwrap();
    let mut parsed = Vec::new();
    for value in json::StreamDeserializer::new(&text) {
        parsed.push(TraceEvent::from_json(&value.unwrap()).unwrap());
    }
    assert_eq!(parsed, events, "JSONL round-trips the exact event stream");
}

/// The samples of a 2000-cycle run of `busy_net(4)` at stride 250, with
/// `reset_metrics` called after each cycle count in `resets`.
fn sampled_run(resets: &[u64]) -> Vec<Sample> {
    let (tx, rx) = std::sync::mpsc::channel();
    let mut net = busy_net(4);
    net.observer().sample(250, Box::new(CollectSink(tx)));
    for &cycle in resets {
        net.run(cycle - net.cycle());
        net.reset_metrics();
    }
    net.run(2_000 - net.cycle());
    net.sample_now();
    net.sample_now(); // second call is a no-op: empty window
    drop(net);
    rx.try_iter().collect()
}

#[test]
fn sampler_emits_on_stride_with_consistent_windows() {
    // A reset mid-window (cycle 1130, stride 250) must not corrupt it.
    let samples = sampled_run(&[1_130]);
    assert_eq!(
        samples.len(),
        8,
        "2000 cycles / 250 stride, tail window empty"
    );
    for (i, sample) in samples.iter().enumerate() {
        assert_eq!(sample.cycle, 250 * (i as u64 + 1));
        assert_eq!(sample.window_cycles, 250);
        assert_eq!(sample.flit_hops, sample.class_flits.iter().sum::<u64>());
        assert_eq!(sample.flit_hops, sample.channel_flits.iter().sum::<u64>());
        if sample.delivered > 0 {
            let mean = sample.mean_latency().unwrap();
            assert!(mean >= 1.0, "latency is at least one cycle, got {mean}");
        }
    }
    // Windows tile the run: summed deltas equal a whole-run recount.
    let mut recount = busy_net(4);
    recount.run(2_000);
    let generated: u64 = samples.iter().map(|s| s.generated).sum();
    assert_eq!(generated, recount.metrics().generated);
    let hops: u64 = samples.iter().map(|s| s.flit_hops).sum();
    assert_eq!(hops, recount.metrics().flit_hops);
    // The reset is invisible to the stream: every window, and so every
    // per-field sum, equals that of the same run without it.
    assert_eq!(samples, sampled_run(&[]));
}

#[test]
fn sample_now_flushes_partial_window() {
    let (tx, rx) = std::sync::mpsc::channel();
    let mut net = busy_net(5);
    net.observer().sample(1_000, Box::new(CollectSink(tx)));
    net.run(300);
    net.sample_now();
    let samples: Vec<Sample> = rx.try_iter().collect();
    assert_eq!(samples.len(), 1);
    assert_eq!(samples[0].cycle, 300);
    assert_eq!(samples[0].window_cycles, 300);
    assert!(net.observer().sample_off().is_some());
    assert!(net.observer().sample_off().is_none());
}

#[test]
fn sampler_snapshot_fields_are_coherent() {
    let (tx, rx) = std::sync::mpsc::channel();
    let mut net = busy_net(6);
    net.observer().sample(500, Box::new(CollectSink(tx)));
    net.run(2_000);
    let samples: Vec<Sample> = rx.try_iter().collect();
    assert!(!samples.is_empty());
    for sample in &samples {
        assert!(sample.max_queue_depth <= sample.queued_messages);
        assert!(sample.queued_messages <= sample.live_messages);
        let buffered: u64 = sample.class_occupancy.iter().sum();
        assert!(
            buffered <= sample.flits_in_flight,
            "buffered flits are a subset of flits in flight"
        );
    }
    assert!(
        samples.iter().any(|s| s.flits_in_flight > 0),
        "a loaded network has in-flight flits at some snapshot"
    );
}

#[test]
fn disabled_observability_is_inert() {
    let mut net = busy_net(7);
    net.run(500);
    assert_eq!(net.dropped_trace_events(), 0);
    assert_eq!(net.dropped_sample_events(), 0);
    assert_eq!(net.observer_dropped_events(), 0);
    assert!(net.drain_trace().is_empty());
    net.sample_now();
    net.flush_observers().unwrap();
}

#[test]
fn tracing_and_sampling_do_not_perturb_results() {
    let run = |observe: bool| {
        let mut net = busy_net(8);
        if observe {
            net.observer().trace_ring_with_capacity(128);
            let (tx, _rx) = std::sync::mpsc::channel();
            net.observer().sample(100, Box::new(CollectSink(tx)));
        }
        net.run(2_000);
        (
            net.metrics().generated,
            net.metrics().delivered,
            net.metrics().flit_hops,
        )
    };
    assert_eq!(run(false), run(true), "observability must be read-only");
}

#[test]
fn metrics_registry_counts_cohere_with_engine_counters() {
    let mut net = busy_net(9);
    net.observer().metrics_on();
    net.run(2_000);
    let report = net.metrics_report("cohere").expect("registry installed");
    assert_eq!(report.cycles, 2_000);
    // The report's channel/class traversal counts agree with the engine's
    // own flit-hop metric, split two ways over the same events.
    let channel_total: u64 = report.channel_flits.iter().sum();
    let class_total: u64 = report.class_flits.iter().sum();
    assert_eq!(channel_total, net.metrics().flit_hops);
    assert_eq!(class_total, net.metrics().flit_hops);
    assert_eq!(report.latency.count, net.metrics().delivered);
    assert!(report.latency.max >= 1, "latency is at least one cycle");
    // The phase profiler charged time to every engine phase.
    assert_eq!(report.phases.len(), 5);
    assert!(report.phases.iter().all(|p| p.wall_seconds > 0.0));
    // A loaded adaptive network sees *some* contention.
    let blocked: u64 = report.channel_blocked.iter().sum();
    assert!(blocked > 0, "no switch-allocation contention in 2k cycles?");

    // metrics_off hands the registry back; a fresh metrics_on starts over.
    let taken = net.observer().metrics_off().expect("was installed");
    assert_eq!(taken.latency.count(), report.latency.count);
    assert!(taken.phase_nanos.iter().all(|&n| n > 0));
    assert!(net.metrics_report("off").is_none());
    net.observer().metrics_on();
    let fresh = net.metrics_report("fresh").unwrap();
    assert_eq!(fresh.cycles, 0);
    assert_eq!(fresh.channel_flits.iter().sum::<u64>(), 0);
    net.run(100);
    assert_eq!(net.metrics_report("fresh").unwrap().cycles, 100);
}

#[test]
fn metrics_registry_does_not_perturb_results() {
    let run = |metrics: bool| {
        let mut net = busy_net(10);
        if metrics {
            net.observer().metrics_on();
        }
        net.run(2_000);
        (
            net.metrics().generated,
            net.metrics().delivered,
            net.metrics().flit_hops,
        )
    };
    assert_eq!(run(false), run(true), "the registry must be read-only");
}

#[test]
fn wait_for_snapshot_of_a_healthy_network_finds_no_cycle() {
    let mut net = busy_net(11);
    net.run(500);
    let snapshot = net.wait_for_snapshot("probe");
    assert_eq!(snapshot.cycle, 500);
    assert_eq!(snapshot.reason, "probe");
    assert_eq!(snapshot.live_messages, net.live_messages() as u64);
    assert_eq!(snapshot.flits_in_flight, net.flits_in_flight());
    // A lightly loaded adaptive torus may have transient waits, but no
    // closed channel cycle.
    assert!(!snapshot.cycle_found, "healthy network has no wait cycle");
    assert!(snapshot.cycle_messages.is_empty());
    // The snapshot round-trips through its JSONL form.
    let value = json::from_str(&snapshot.to_json()).unwrap();
    let back = wormsim_engine::observe::WaitForSnapshot::from_json(&value).unwrap();
    assert_eq!(back, snapshot);
}

#[test]
fn observer_handle_covers_the_removed_setter_shims() {
    // The PR-3 `#[deprecated]` setters are gone; the ObserverHandle paths
    // they forwarded to must cover the same behavior.
    let mut net = busy_net(4);
    net.observer().trace_ring_with_capacity(32);
    net.run(200);
    assert!(!net.drain_trace().is_empty());
    net.observer().trace_off();
    net.run(50);
    assert!(net.drain_trace().is_empty());

    let (tx, rx) = std::sync::mpsc::channel();
    net.observer().sample(100, Box::new(CollectSink(tx)));
    net.run(250);
    assert!(net.observer().sample_off().is_some());
    assert!(rx.try_iter().count() >= 2);

    net.observer()
        .trace_into(Box::new(JsonlSink::new(Vec::new())));
    assert!(net.observer().take_trace_sink().is_some());
    net.observer().trace_ring();
    assert!(
        net.observer().take_trace_sink().is_none(),
        "ring is not a custom sink"
    );
}
