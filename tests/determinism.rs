//! Determinism regression: pins the engine's bit-identical guarantee.
//!
//! Two layers of goldens, both produced with seed 1993:
//!
//! * raw engine [`Metrics`](wormsim::engine::Metrics) after a fixed-length
//!   fig3 run, one snapshot per routing algorithm, and
//! * full [`RunResult`]s for one quick point of each of the paper's
//!   fig3/fig4/fig5 presets (timing fields zeroed — wall-clock speed is the
//!   only non-deterministic part of a run).
//!
//! Any engine change that alters RNG consumption order, phase ordering, or
//! arbitration behavior shows up here as a golden mismatch. Deliberate
//! semantic changes regenerate the goldens with
//! `WORMSIM_UPDATE_GOLDEN=1 cargo test --test determinism`.

use std::sync::{Arc, Mutex};
use wormsim::engine::{NetworkBuilder, SelectionPolicy, Switching};
use wormsim::observe::{EventSink, JsonObject, JsonRecord};
use wormsim::presets;
use wormsim::topology::Topology;
use wormsim::{AlgorithmKind, ArrivalProcess, Experiment, ObserveConfig, RunResult, Sample};
use wormsim_suite::{assert_matches_golden, temp_dir};

const SEED: u64 = 1993;
const LOAD: f64 = 0.2;

/// Uniform 16-flit traffic on `topo` at offered `load` under the golden
/// seed; `Experiment::build_network` gives the network `run` would drive.
fn uniform(topo: &Topology, algorithm: AlgorithmKind, load: f64) -> Experiment {
    Experiment::new(topo.clone(), algorithm)
        .offered_load(load)
        .seed(SEED)
}

/// Builds the fig3 network (16×16 torus, uniform 16-flit worms) at the
/// golden load for one algorithm.
fn fig3_network(algorithm: AlgorithmKind) -> wormsim::engine::Network {
    uniform(&presets::paper_topology(), algorithm, LOAD)
        .build_network()
        .expect("network builds")
}

fn metrics_json(algorithm: &str, net: &wormsim::engine::Network) -> String {
    let m = net.metrics();
    let mut out = String::new();
    let mut obj = JsonObject::begin(&mut out);
    obj.field_str("algorithm", algorithm)
        .field_u64("cycles", m.cycles)
        .field_u64("generated", m.generated)
        .field_u64("refused", m.refused)
        .field_u64("delivered", m.delivered)
        .field_u64("flit_hops", m.flit_hops)
        .field_u64("flits_injected", m.flits_injected)
        .field_u64("flits_ejected", m.flits_ejected)
        .field_u64("flits_in_flight", net.flits_in_flight())
        .field_u64("live_messages", net.live_messages() as u64)
        .field_u64_array("class_flits", &m.class_flits);
    obj.finish();
    out
}

fn run_result_json(r: &RunResult) -> String {
    let mut out = String::new();
    let mut obj = JsonObject::begin(&mut out);
    obj.field_str("algorithm", &r.algorithm)
        .field_str("traffic", &r.traffic)
        .field_f64("offered_load", r.offered_load)
        .field_f64("injection_rate", r.injection_rate)
        .field_f64("latency_mean", r.latency.mean())
        .field_f64("latency_half_width", r.latency.half_width())
        .field_u64_array("latency_percentiles", &r.latency_percentiles)
        .field_u64("latency_max", r.latency_max)
        .field_f64("achieved_utilization", r.achieved_utilization)
        .field_f64("delivery_rate", r.delivery_rate)
        .field_f64("acceptance_rate", r.acceptance_rate)
        .field_f64("refused_fraction", r.refused_fraction)
        .field_u64("messages_measured", r.messages_measured)
        .field_str("convergence", &format!("{:?}", r.convergence))
        .field_u64("samples", r.samples as u64)
        .field_u64("cycles_simulated", r.cycles_simulated)
        .field_bool("deadlocked", r.deadlock.is_some());
    let classes: Vec<String> = r
        .class_latencies
        .iter()
        .map(|c| {
            let mut s = String::new();
            let mut o = JsonObject::begin(&mut s);
            o.field_u64("hops", c.hops as u64)
                .field_u64("count", c.count)
                .field_f64("mean", c.mean);
            o.finish();
            s
        })
        .collect();
    obj.field_raw("class_latencies", &format!("[{}]", classes.join(",")));
    obj.finish();
    out
}

/// One fig3 quick point per algorithm, seed 1993: the raw engine counters
/// must be bit-identical run over run and release over release.
#[test]
fn fig3_metrics_match_golden() {
    let mut lines = Vec::new();
    for algorithm in presets::paper_algorithms() {
        let mut net = fig3_network(algorithm);
        // One quick sampling period's worth of cycles: warmup + sample.
        net.run(3_000);
        lines.push(metrics_json(algorithm.name(), &net));
    }
    let mut snapshot = lines.join("\n");
    snapshot.push('\n');
    assert_matches_golden("fig3_metrics_seed1993.jsonl", &snapshot);
}

/// Installing the deep-telemetry registry must not perturb the
/// simulation: the metrics-enabled run reproduces the metrics-off golden
/// bit for bit (the registry is pure counters and timers — no RNG draws,
/// no ordering changes).
#[test]
fn fig3_metrics_match_golden_with_metrics_enabled() {
    let mut lines = Vec::new();
    for algorithm in presets::paper_algorithms() {
        let mut net = fig3_network(algorithm);
        net.observer().metrics_on();
        net.run(3_000);
        let report = net
            .metrics_report(algorithm.name())
            .expect("registry installed");
        assert_eq!(report.cycles, 3_000, "registry saw every cycle");
        assert_eq!(
            report.latency.count,
            net.metrics().delivered,
            "one latency observation per delivered message"
        );
        lines.push(metrics_json(algorithm.name(), &net));
    }
    let mut snapshot = lines.join("\n");
    snapshot.push('\n');
    assert_matches_golden("fig3_metrics_seed1993.jsonl", &snapshot);
}

/// Cycles per saturated configuration: long enough for every network to
/// fill and block (the load-0.9 8×8 torus saturates within a few hundred
/// cycles), short enough that 72 configurations stay in tier-1.
const SATURATED_CYCLES: u64 = 1_200;

/// The saturated grid: an 8×8 torus offered load 0.9 under every algorithm
/// × selection policy × switching mode, plus two VC replicas under
/// wormhole. Unlike the load-0.2 goldens above, most route attempts here
/// fail, so this pins VC-allocation order among blocked heads (what the
/// route phase's sleeping of blocked heads must not perturb).
fn saturated_snapshot(metrics_on: bool) -> String {
    let topo = Topology::torus(&[8, 8]);
    let modes = [
        ("wormhole", Switching::wormhole(), 1),
        ("vct", Switching::VirtualCutThrough, 1),
        ("saf", Switching::StoreAndForward, 1),
        ("wormhole", Switching::wormhole(), 2),
    ];
    let mut snapshot = String::new();
    for algorithm in presets::paper_algorithms() {
        for selection in [
            SelectionPolicy::FirstFree,
            SelectionPolicy::MostCredits,
            SelectionPolicy::Random,
        ] {
            for (mode, switching, replicas) in modes {
                let mut net = uniform(&topo, algorithm, 0.9)
                    .selection(selection)
                    .switching(switching)
                    .vc_replicas(replicas)
                    .build_network()
                    .expect("network builds");
                if metrics_on {
                    net.observer().metrics_on();
                }
                net.run(SATURATED_CYCLES);
                snapshot.push_str(&format!("{selection:?}/{mode}/r{replicas} "));
                snapshot.push_str(&metrics_json(algorithm.name(), &net));
                snapshot.push('\n');
            }
        }
    }
    snapshot
}

/// Raw engine counters at saturation, bit for bit (see
/// [`saturated_snapshot`]).
#[test]
fn saturated_metrics_match_golden() {
    assert_matches_golden(
        "saturated_metrics_seed1993.jsonl",
        &saturated_snapshot(false),
    );
}

/// The registry's allocation-failure accounting takes a different path
/// for blocked heads; it must still leave the simulation untouched.
#[test]
fn saturated_metrics_match_golden_with_metrics_enabled() {
    assert_matches_golden(
        "saturated_metrics_seed1993.jsonl",
        &saturated_snapshot(true),
    );
}

/// One quick point of each figure preset through the full `Experiment`
/// pipeline: latency/throughput estimates must be bit-identical.
#[test]
fn figure_quick_run_results_match_golden() {
    let mut lines = Vec::new();
    for spec in [presets::fig3(), presets::fig4(), presets::fig5()] {
        for algorithm in [AlgorithmKind::Ecube, AlgorithmKind::NegativeHopBonusCards] {
            let mut result = Experiment::new(spec.topology.clone(), algorithm)
                .traffic(spec.traffic.clone())
                .switching(spec.switching)
                .offered_load(LOAD)
                .quick()
                .seed(SEED)
                .run()
                .expect("quick point runs");
            // Wall-clock speed is the one legitimately non-deterministic
            // part of a run; everything else must reproduce exactly.
            result.wall_seconds = 0.0;
            result.cycles_per_sec = 0.0;
            let mut line = String::new();
            line.push_str(&spec.id);
            line.push(' ');
            line.push_str(&run_result_json(&result));
            lines.push(line);
        }
    }
    let mut snapshot = lines.join("\n");
    snapshot.push('\n');
    assert_matches_golden("figures_quick_seed1993.jsonl", &snapshot);
}

/// Large-network determinism: raw engine counters on a 32×32 torus (1024
/// nodes) and an 8-ary 3-cube (512 nodes), pinned bit-for-bit. The 3D
/// point also pins the n≥3 variants of 2pn (travel-sign tags × dateline
/// levels) and nlast (per-dimension north gating), which the 16×16 fig3
/// golden cannot see.
#[test]
fn large_network_metrics_match_golden() {
    let mut lines = Vec::new();
    for topo in [Topology::torus(&[32, 32]), Topology::k_ary_n_cube(8, 3)] {
        for algorithm in [
            AlgorithmKind::Ecube,
            AlgorithmKind::NegativeHopBonusCards,
            AlgorithmKind::TwoPowerN,
            AlgorithmKind::NorthLast,
        ] {
            let mut net = uniform(&topo, algorithm, LOAD)
                .build_network()
                .expect("network builds");
            net.run(1_500);
            let mut line = String::new();
            line.push_str(&topo.label());
            line.push(' ');
            line.push_str(&metrics_json(algorithm.name(), &net));
            lines.push(line);
        }
    }
    let mut snapshot = lines.join("\n");
    snapshot.push('\n');
    assert_matches_golden("scaling_metrics_seed1993.jsonl", &snapshot);
}

/// Appends each sample's JSONL line to a shared buffer.
struct SampleLines(Arc<Mutex<String>>);

impl EventSink<Sample> for SampleLines {
    fn record(&mut self, sample: &Sample) {
        let mut out = self.0.lock().expect("buffer lock");
        out.push_str(&sample.to_json());
        out.push('\n');
    }
}

/// The sampler's stream, byte for byte, across everything that moves its
/// window bookkeeping: on a raw 8×8 torus, metric resets that land
/// mid-window (cycles 1130 and 2410 at stride 250), a replaced sampler and
/// a partial closing window; then an observed quick `Experiment::run`,
/// whose warm-up, sample and gap resets fall inside 700-cycle windows.
#[test]
fn sample_streams_match_golden() {
    let lines = Arc::new(Mutex::new(String::new()));
    let topo = Topology::torus(&[8, 8]);
    let algorithm = AlgorithmKind::NegativeHopBonusCards;
    let rate = uniform(&topo, algorithm, 0.5)
        .injection_rate()
        .expect("feasible load");
    let mut net = NetworkBuilder::new(topo, algorithm)
        .arrival(ArrivalProcess::geometric(rate).expect("valid rate"))
        .seed(SEED)
        .build()
        .expect("network builds");
    net.observer()
        .sample(250, Box::new(SampleLines(Arc::clone(&lines))));
    net.run(1_130);
    net.reset_metrics();
    net.run(2_410 - 1_130);
    net.reset_metrics();
    net.run(3_000 - 2_410);
    net.observer()
        .sample(250, Box::new(SampleLines(Arc::clone(&lines))));
    net.run(870);
    net.sample_now();
    let mut snapshot = std::mem::take(&mut *lines.lock().expect("buffer lock"));

    let dir = temp_dir("samples");
    Experiment::new(Topology::torus(&[6, 6]), algorithm)
        .offered_load(0.4)
        .quick()
        .seed(SEED)
        .observe(ObserveConfig {
            out_dir: Some(dir.clone()),
            trace_dir: None,
            sample_every: 700,
            prefix: "golden".to_owned(),
            metrics: false,
        })
        .run()
        .expect("observed quick point runs");
    let stream = dir.join("golden-nbc-uniform-l0.40-s1993.samples.jsonl");
    snapshot.push_str(&std::fs::read_to_string(&stream).expect("sample stream written"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_matches_golden("samples_seed1993.jsonl", &snapshot);
}

/// `json` with every `"wall_seconds":<value>,` field removed: phase
/// timings are the one wall-clock part of a metrics report.
fn strip_wall_seconds(json: &str) -> String {
    let mut out = String::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"wall_seconds\":") {
        out.push_str(&rest[..at]);
        let field = &rest[at..];
        let comma = field.find(',').expect("cycles follows wall_seconds");
        rest = &field[comma + 1..];
    }
    out.push_str(rest);
    out
}

/// The observed artifacts of one quick point with the registry on, and
/// the report of a registry switched on after warm-up (as `perf` does):
/// the registry's flit, channel and cycle counts cover exactly the cycles
/// since it was installed. Both goldens were written by the code in which
/// the sampler and the registry counted flits and cycles themselves, on
/// top of counters zeroed at every period boundary; they are compared,
/// never regenerated.
#[test]
fn observed_artifacts_match_golden() {
    let point = || {
        uniform(
            &Topology::torus(&[8, 8]),
            AlgorithmKind::NegativeHopBonusCards,
            0.4,
        )
    };
    let dir = temp_dir("observed");
    point()
        .quick()
        .observe(ObserveConfig {
            out_dir: Some(dir.clone()),
            trace_dir: None,
            sample_every: 500,
            prefix: "golden".to_owned(),
            metrics: true,
        })
        .run()
        .expect("observed quick point runs");
    let read = |ext: &str| {
        std::fs::read_to_string(dir.join(format!("golden-nbc-uniform-l0.40-s1993.{ext}")))
            .expect("artifact written")
    };
    let heatmap = read("heatmap.csv");
    let mut metrics = strip_wall_seconds(&read("metrics.json"));
    let _ = std::fs::remove_dir_all(&dir);

    let mut net = point().build_network().expect("network builds");
    net.run(1_000);
    net.drain_delivered();
    net.reset_metrics();
    net.observer().metrics_on();
    net.run(2_000);
    let report = net
        .metrics_report("after-warmup")
        .expect("registry installed");
    metrics.push_str(&strip_wall_seconds(&report.to_json()));
    metrics.push('\n');

    let golden = |name: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        std::fs::read_to_string(path).expect("golden present")
    };
    assert_eq!(heatmap, golden("observed_heatmap_seed1993.csv"));
    assert_eq!(metrics, golden("observed_metrics_seed1993.jsonl"));
}

/// The same experiment run twice in-process gives identical results — the
/// goldens above then extend that equality across builds.
#[test]
fn repeated_runs_are_identical() {
    let run = || {
        let mut r = Experiment::new(Topology::torus(&[8, 8]), AlgorithmKind::PositiveHop)
            .offered_load(0.3)
            .quick()
            .seed(SEED)
            .run()
            .expect("runs");
        r.wall_seconds = 0.0;
        r.cycles_per_sec = 0.0;
        run_result_json(&r)
    };
    assert_eq!(run(), run());
}
