//! Golden pin on the JSON codec: one line per record type.
//!
//! `tests/golden/codec_seed1993.jsonl` was written by the commit *before*
//! the field-table codec replaced the hand-written writers and readers, so
//! it is the old code's bytes, not the new code's opinion of itself. Every
//! record here must still encode to exactly its line, and every line must
//! decode and re-encode to itself. Do not regenerate the file from this
//! test: a format change is a `WIRE_PROTOCOL` bump and a deliberate edit.

use wormsim::engine::{DeadlockReport, TraceEvent};
use wormsim::faults::{Fault, FaultPlan, FaultRegion, FaultTarget};
use wormsim::observe::json::{self, Value};
use wormsim::observe::{
    HistogramRecord, JsonRecord, MetricsReport, PhaseRecord, RunManifest, Sample, WaitForEdge,
    WaitForSnapshot, WaitKind,
};
use wormsim::topology::Topology;
use wormsim::verify::{TriageReport, TriageVerdict};
use wormsim::{
    AlgorithmKind, ClassLatency, ConfidenceInterval, ConvergenceStatus, EjectionModel, Experiment,
    LivelockReport, MeasurementSchedule, MessageLength, NodeId, PanicInfo, RunOutcome, RunResult,
    SelectionPolicy, Switching, TrafficConfig,
};
use wormsim_bench::JournalEntry;

const GOLDEN: &str = include_str!("golden/codec_seed1993.jsonl");
/// Written by the commit before `Experiment` carried the engine's
/// `SimConfig`: the old field-by-field hash's bytes. Never regenerate it.
const POINT_HASHES: &str = include_str!("golden/point_hash_seed1993.txt");
const SEED: u64 = 1993;

/// Every wire knob away from its default: hotspot traffic, bimodal
/// lengths, a fault plan with a repaired node, all five budgets, and a
/// seed no `f64` can hold.
fn every_knob_experiment() -> Experiment {
    let mut plan =
        FaultPlan::random_links(&Topology::torus(&[8, 8]), 3, SEED, &FaultRegion::Anywhere);
    plan.push(Fault {
        target: FaultTarget::Node {
            node: NodeId::new(9),
        },
        fail_at: 1000,
        repair_at: Some(2000),
    });
    Experiment::new(Topology::mesh(&[4, 6, 8]), AlgorithmKind::Ecube)
        .traffic(TrafficConfig::Hotspot {
            nodes: vec![vec![3, 5, 7], vec![0, 0, 0]],
            fraction: 0.1 + 0.2,
        })
        .message_length(MessageLength::Bimodal {
            short: 4,
            long: 64,
            long_fraction: 1.0 / 3.0,
        })
        .switching(Switching::Wormhole { buffer_depth: 4 })
        .selection(SelectionPolicy::Random)
        .ejection(EjectionModel::SingleChannel)
        .vc_replicas(3)
        .congestion_limit(None)
        .injection_bandwidth(2)
        .offered_load(f64::from_bits(0.45f64.to_bits() + 1))
        .schedule(MeasurementSchedule::saturation())
        .seed(u64::MAX)
        .faults(plan)
        .cycle_budget(Some(123_456))
        .wall_budget_secs(Some(1.5))
        .hop_budget(Some(99))
        .age_budget(Some(50_000))
        .watchdog_cycles(4096)
}

/// The other arm of every tagged union the wire carries.
fn plain_experiments() -> Vec<Experiment> {
    let base = || Experiment::new(Topology::torus(&[8, 8]), AlgorithmKind::TwoPowerN).seed(SEED);
    vec![
        base(),
        base()
            .traffic(TrafficConfig::Local { radius: 3 })
            .message_length(MessageLength::Uniform { min: 8, max: 24 })
            .switching(Switching::VirtualCutThrough),
        base()
            .traffic(TrafficConfig::Transpose)
            .switching(Switching::StoreAndForward)
            .selection(SelectionPolicy::FirstFree),
        base().traffic(TrafficConfig::BitReversal),
        base().traffic(TrafficConfig::Complement),
    ]
}

fn completed_result() -> RunResult {
    RunResult {
        algorithm: "phop".into(),
        traffic: "uniform".into(),
        offered_load: 0.3,
        injection_rate: 0.1 + 0.2,
        latency: ConfidenceInterval::new(f64::from_bits(31.4f64.to_bits() + 1), 0.9876543210987654),
        latency_percentiles: [28, 40, 55],
        latency_max: 90,
        class_latencies: vec![
            ClassLatency {
                hops: 1,
                count: 512,
                mean: 17.25,
            },
            ClassLatency {
                hops: 7,
                count: 3,
                mean: f64::from_bits(99.0f64.to_bits() + 1),
            },
        ],
        achieved_utilization: 0.27,
        delivery_rate: 0.01,
        acceptance_rate: 0.01,
        refused_fraction: 0.0,
        messages_measured: 1000,
        convergence: ConvergenceStatus::Converged,
        samples: 3,
        cycles_simulated: 30_000,
        wall_seconds: 1.0 / 3.0,
        cycles_per_sec: 1.23e8,
        outcome: RunOutcome::Completed,
        dropped_events: 0,
        deadlock: None,
        livelock: None,
        triage: None,
    }
}

/// Non-finite floats in every spelling, and all three stall reports.
fn stalled_result() -> RunResult {
    RunResult {
        algorithm: "naive".into(),
        latency: ConfidenceInterval::new(f64::NAN, f64::INFINITY),
        class_latencies: vec![ClassLatency {
            hops: 2,
            count: 0,
            mean: f64::NEG_INFINITY,
        }],
        achieved_utilization: 0.0,
        convergence: ConvergenceStatus::NeedMoreSamples,
        outcome: RunOutcome::Deadlocked,
        dropped_events: 17,
        deadlock: Some(DeadlockReport {
            detected_at: 52_000,
            last_progress: 50_100,
            flits_in_flight: 312,
            live_messages: 41,
        }),
        livelock: Some(LivelockReport {
            detected_at: 48_000,
            messages_over_budget: 5,
            max_hops: 211,
            max_age: 30_000,
        }),
        triage: Some(TriageReport {
            verdict: TriageVerdict::ConfirmedUnsafe,
            edges: 7,
            cycle_messages: vec![3, 9, 12],
            cycle_channels: vec![40, 44, 32],
        }),
        ..completed_result()
    }
}

fn panicked_result() -> RunResult {
    RunResult {
        convergence: ConvergenceStatus::MaxSamplesReached,
        outcome: RunOutcome::Harness(PanicInfo {
            message: "index out of bounds: \"the len\" is 4\n\tbut the index is 9 \\ \u{1}".into(),
        }),
        triage: Some(TriageReport {
            verdict: TriageVerdict::BudgetArtifact,
            edges: 0,
            cycle_messages: Vec::new(),
            cycle_channels: Vec::new(),
        }),
        ..completed_result()
    }
}

fn journal_entries() -> Vec<JournalEntry> {
    vec![
        JournalEntry {
            point_hash: "00c0ffee00c0ffee".into(),
            index: 0,
            attempts: 1,
            retry_decision: None,
            result: completed_result(),
        },
        JournalEntry {
            point_hash: "deadbeefdeadbeef".into(),
            index: 71,
            attempts: 3,
            retry_decision: Some("confirmed_unsafe_no_retry".into()),
            result: stalled_result(),
        },
    ]
}

fn sample() -> Sample {
    Sample {
        cycle: 5_000,
        window_cycles: 1_000,
        generated: 40,
        refused: 3,
        delivered: 37,
        latency_sum: 1_850,
        flit_hops: 2_600,
        flits_injected: 640,
        flits_ejected: 592,
        flits_in_flight: 96,
        live_messages: 7,
        queued_messages: 2,
        max_queue_depth: 1,
        class_occupancy: vec![30, 66],
        class_flits: vec![1_300, 1_300],
        channel_flits: Vec::new(),
    }
}

fn phases() -> Vec<PhaseRecord> {
    vec![
        PhaseRecord {
            name: "warmup".into(),
            wall_seconds: 0.1,
            cycles: 1_000,
        },
        PhaseRecord {
            name: "measure".into(),
            wall_seconds: 1.4,
            cycles: 60_000,
        },
    ]
}

fn manifests() -> Vec<RunManifest> {
    let fresh = RunManifest {
        run_id: "fig3-nbc-uniform-l0.40-s1993".into(),
        config_hash: "af63dc4c8601ec8c".into(),
        git_describe: None,
        seed: SEED,
        algorithm: "nbc".into(),
        traffic: "uniform".into(),
        topology: "torus:16x16".into(),
        offered_load: 0.4,
        injection_rate: 0.0125,
        cycles: 61_000,
        warmup_cycles: 1_000,
        samples: 12,
        converged: true,
        deadlocked: false,
        outcome: "completed".into(),
        triage: None,
        wall_seconds: 1.5,
        cycles_per_sec: 40_666.7,
        flits_per_sec: 812_000.0,
        dropped_events: 0,
        attempts: 1,
        resumed_from: None,
        phases: phases(),
    };
    let resumed = RunManifest {
        git_describe: Some("9db3b83-dirty".into()),
        converged: false,
        deadlocked: true,
        outcome: "deadlocked".into(),
        triage: Some("confirmed_unsafe".into()),
        attempts: 2,
        resumed_from: Some("results/fig3.journal.jsonl".into()),
        phases: Vec::new(),
        ..fresh.clone()
    };
    vec![fresh, resumed]
}

fn histogram() -> HistogramRecord {
    HistogramRecord {
        name: "latency".into(),
        count: 4,
        sum: 221,
        max: 200,
        p50: 15,
        p95: 200,
        p99: 200,
        buckets: vec![(2, 1), (4, 2), (8, 1)],
    }
}

fn metrics_report() -> MetricsReport {
    MetricsReport {
        run_id: "r".into(),
        topology: "torus:2x2".into(),
        dims: vec![2, 2],
        dirs: 4,
        cycles: 0,
        mean_channel_utilization: f64::NAN,
        peak_channel_utilization: f64::INFINITY,
        class_flits: vec![1, 0],
        class_blocked: vec![0, 2],
        class_alloc_fail: vec![3, 0],
        channel_flits: vec![1, 0, 0, 0],
        channel_blocked: vec![0, 2, 0, 0],
        channel_alloc_fail: vec![0, 0, 3, 0],
        latency: histogram(),
        phases: phases(),
    }
}

fn wait_for_snapshot() -> WaitForSnapshot {
    let edge = |msg, channel, holder, kind| WaitForEdge {
        msg,
        node: msg + 10,
        channel,
        holder,
        kind,
    };
    let mut snapshot = WaitForSnapshot {
        cycle: 500,
        reason: "deadlock".into(),
        live_messages: 4,
        flits_in_flight: 12,
        edges: vec![
            edge(4, 9, 1, WaitKind::Credit),
            edge(1, 10, 2, WaitKind::Vc),
            edge(2, 11, 3, WaitKind::Credit),
            edge(3, 12, 1, WaitKind::Vc),
        ],
        ..WaitForSnapshot::default()
    };
    snapshot.detect_cycle();
    assert!(snapshot.cycle_found);
    snapshot
}

/// `MessageId` has no public constructor, so trace events enter as text;
/// their golden lines pin decode-then-encode instead of encode alone.
const TRACE_LINES: [&str; 9] = [
    r#"{"type":"trace","event":"generated","cycle":1,"msg":9,"src":3,"dest":12,"length":16}"#,
    r#"{"type":"trace","event":"refused","cycle":2,"src":4,"class":1}"#,
    r#"{"type":"trace","event":"injection_started","cycle":3,"msg":9}"#,
    r#"{"type":"trace","event":"hop","cycle":4,"msg":9,"from":3,"direction":2,"vc_class":1}"#,
    r#"{"type":"trace","event":"flit_delivered","cycle":5,"msg":9,"kind":"head"}"#,
    r#"{"type":"trace","event":"flit_delivered","cycle":5,"msg":9,"kind":"body"}"#,
    r#"{"type":"trace","event":"flit_delivered","cycle":5,"msg":9,"kind":"tail"}"#,
    r#"{"type":"trace","event":"flit_delivered","cycle":5,"msg":8,"kind":"single"}"#,
    r#"{"type":"trace","event":"delivered","cycle":6,"msg":9,"latency":21}"#,
];

fn parse(line: &str) -> Value {
    json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

fn trace_events() -> Vec<TraceEvent> {
    TRACE_LINES
        .iter()
        .map(|line| TraceEvent::from_json(&parse(line)).expect("trace fixture decodes"))
        .collect()
}

/// Every fixture, encoded, in golden-file order.
fn encoded() -> Vec<String> {
    let mut lines = vec![every_knob_experiment().to_wire_json()];
    lines.extend(plain_experiments().iter().map(Experiment::to_wire_json));
    lines.extend(
        [completed_result(), stalled_result(), panicked_result()]
            .iter()
            .map(JsonRecord::to_json),
    );
    lines.extend(journal_entries().iter().map(JsonRecord::to_json));
    lines.push(sample().to_json());
    lines.extend(manifests().iter().map(JsonRecord::to_json));
    lines.push(metrics_report().to_json());
    lines.push(wait_for_snapshot().to_json());
    lines.push(histogram().to_json());
    lines.extend(trace_events().iter().map(JsonRecord::to_json));
    lines
}

/// What each golden line is, in file order, and how many lines of it.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Wire,
    Result,
    Journal,
    Sample,
    Manifest,
    Metrics,
    WaitFor,
    Histogram,
    Trace,
}

const LAYOUT: [(Kind, usize); 9] = [
    (Kind::Wire, 6),
    (Kind::Result, 3),
    (Kind::Journal, 2),
    (Kind::Sample, 1),
    (Kind::Manifest, 2),
    (Kind::Metrics, 1),
    (Kind::WaitFor, 1),
    (Kind::Histogram, 1),
    (Kind::Trace, 9),
];

fn golden_lines() -> Vec<(Kind, &'static str)> {
    let kinds = LAYOUT
        .iter()
        .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count));
    let lines: Vec<_> = kinds.zip(GOLDEN.lines()).collect();
    assert_eq!(
        lines.len(),
        GOLDEN.lines().count(),
        "LAYOUT covers the file"
    );
    lines
}

/// Decodes `text` as a `kind` through its public reader and encodes the
/// result again.
fn recode(kind: Kind, text: &str) -> Result<String, String> {
    let value = || json::from_str(text).map_err(|e| e.to_string());
    match kind {
        Kind::Wire => Experiment::from_wire_str(text).map(|e| e.to_wire_json()),
        Kind::Result => RunResult::from_json(&value()?).map(|r| r.to_json()),
        Kind::Journal => JournalEntry::from_json(&value()?).map(|r| r.to_json()),
        Kind::Sample => Sample::from_json(&value()?).map(|r| r.to_json()),
        Kind::Manifest => RunManifest::from_json(&value()?).map(|r| r.to_json()),
        Kind::Metrics => MetricsReport::from_json(&value()?).map(|r| r.to_json()),
        Kind::WaitFor => WaitForSnapshot::from_json(&value()?).map(|r| r.to_json()),
        Kind::Histogram => HistogramRecord::from_json(&value()?).map(|r| r.to_json()),
        Kind::Trace => TraceEvent::from_json(&value()?).map(|r| r.to_json()),
    }
}

#[test]
fn encoding_is_byte_identical_to_the_parent_commit() {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let encoded = encoded();
    assert_eq!(encoded.len(), golden.len());
    for (i, (ours, theirs)) in encoded.iter().zip(golden).enumerate() {
        assert_eq!(ours, theirs, "golden line {}", i + 1);
    }
}

/// `wire_digest()`, then one `point_hash()` per wire fixture and per
/// Figure 3 point (quick schedule, seed 1993), one `label hash` per line.
fn point_hashes() -> Vec<String> {
    let figure = wormsim::presets::experiments_for(
        &wormsim::presets::fig3(),
        MeasurementSchedule::quick(),
        SEED,
    );
    let mut lines = vec![format!("wire_digest {}", wormsim::wire_digest())];
    let wire = std::iter::once(every_knob_experiment()).chain(plain_experiments());
    lines.extend(
        wire.enumerate()
            .map(|(i, e)| format!("wire[{i}] {}", e.point_hash())),
    );
    lines.extend(
        figure
            .iter()
            .enumerate()
            .map(|(i, e)| format!("fig3[{i}] {}", e.point_hash())),
    );
    lines
}

#[test]
fn point_hashes_and_wire_digest_match_the_parent_commit() {
    assert_eq!(point_hashes(), POINT_HASHES.lines().collect::<Vec<_>>());
}

#[test]
fn decoding_then_encoding_is_the_identity() {
    for (i, (kind, line)) in golden_lines().into_iter().enumerate() {
        assert_eq!(
            recode(kind, line).as_deref(),
            Ok(line),
            "golden line {} ({kind:?})",
            i + 1
        );
    }
    // Spot checks that the decoded values, not just their text, are the
    // fixtures (the float-bearing records hold NaN, so compare the rest).
    let decode = |line: usize| parse(GOLDEN.lines().nth(line).expect("line exists"));
    assert_eq!(Sample::from_json(&decode(11)), Ok(sample()));
    assert_eq!(
        RunManifest::from_json(&decode(12)).as_ref(),
        Ok(&manifests()[0])
    );
    assert_eq!(
        WaitForSnapshot::from_json(&decode(15)),
        Ok(wait_for_snapshot())
    );
    assert_eq!(HistogramRecord::from_json(&decode(16)), Ok(histogram()));
    let wire = Experiment::from_wire_str(GOLDEN.lines().next().expect("line 1")).unwrap();
    assert_eq!(wire.point_hash(), every_knob_experiment().point_hash());
}

#[test]
fn records_from_before_a_field_existed_still_decode() {
    // Manifests predating the provenance and triage fields.
    let line = GOLDEN.lines().nth(12).expect("first manifest");
    let old = line
        .replace(",\"attempts\":1", "")
        .replace(",\"resumed_from\":null", "")
        .replace(",\"triage\":null", "");
    assert_ne!(old, line);
    assert_eq!(
        RunManifest::from_json(&parse(&old)).as_ref(),
        Ok(&manifests()[0])
    );
    // Journal lines predating runtime triage and the retry policy have
    // neither key, which is also how a healthy point is written today.
    let line = GOLDEN.lines().nth(9).expect("first journal entry");
    assert!(!line.contains("triage") && !line.contains("retry_decision"));
    let entry = JournalEntry::from_json(&parse(line)).unwrap();
    assert!(entry.retry_decision.is_none() && entry.result.triage.is_none());
}

/// Counter-indexed corruption in the style of the worker's chaos plan:
/// every decision is a hash of (seed, salt, counter), so a failure found
/// here replays exactly.
struct Corruptor(wormsim_bench::ChaosPlan);

impl Corruptor {
    fn pick(&self, salt: u64, counter: u64, below: usize) -> usize {
        (self.0.coin(salt, counter) * below as f64) as usize % below.max(1)
    }

    fn truncate(&self, line: &str, counter: u64) -> String {
        line[..self.pick(1, counter, line.len())].to_owned()
    }

    fn flip_byte(&self, line: &str, counter: u64) -> String {
        let mut bytes = line.as_bytes().to_vec();
        let at = self.pick(2, counter, bytes.len());
        bytes[at] = b' ' + self.pick(3, counter, 95) as u8;
        String::from_utf8(bytes).expect("golden lines and replacements are ASCII")
    }

    /// Replaces one node of the value tree with a value of another type.
    fn swap_type(&self, line: &str, counter: u64) -> String {
        fn nodes(value: &Value) -> usize {
            1 + match value {
                Value::Array(items) => items.iter().map(nodes).sum(),
                Value::Object(map) => map.values().map(nodes).sum(),
                _ => 0,
            }
        }
        fn replace(value: &mut Value, nth: &mut usize, with: &Value) {
            if *nth == 0 {
                *value = with.clone();
            }
            *nth = nth.wrapping_sub(1);
            match value {
                Value::Array(items) => items.iter_mut().for_each(|v| replace(v, nth, with)),
                Value::Object(map) => map.values_mut().for_each(|v| replace(v, nth, with)),
                _ => {}
            }
        }
        let replacements = [
            Value::Null,
            Value::Bool(true),
            Value::Number(-1.5),
            Value::Number(300.0),
            Value::Number(1e300),
            Value::String("nan".into()),
            Value::String("x".into()),
            Value::Array(vec![Value::Number(1.0)]),
            Value::Object(Default::default()),
        ];
        let mut value = parse(line);
        let mut nth = self.pick(4, counter, nodes(&value));
        let with = &replacements[self.pick(5, counter, replacements.len())];
        replace(&mut value, &mut nth, with);
        value.to_string()
    }
}

#[test]
fn corrupted_records_decode_to_ok_or_err_and_never_panic() {
    const ROUNDS: u64 = 40;
    let corruptor = Corruptor(wormsim_bench::ChaosPlan {
        seed: SEED,
        ..Default::default()
    });
    let (mut accepted, mut rejected) = (0, 0);
    for (i, (kind, line)) in golden_lines().into_iter().enumerate() {
        for round in 0..ROUNDS {
            let counter = i as u64 * ROUNDS + round;
            for corrupted in [
                corruptor.truncate(line, counter),
                corruptor.flip_byte(line, counter),
                corruptor.swap_type(line, counter),
            ] {
                let outcome = std::panic::catch_unwind(|| recode(kind, &corrupted))
                    .unwrap_or_else(|_| panic!("{kind:?} decoder panicked on: {corrupted}"));
                match outcome {
                    // Whatever was accepted must be a fixed point: its
                    // encoding decodes back to the same encoding.
                    Ok(text) => {
                        assert_eq!(recode(kind, &text).as_ref(), Ok(&text), "from: {corrupted}");
                        accepted += 1;
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
    }
    // Both arms are exercised: most damage is caught, and some (a flipped
    // digit, a swapped-in value of a compatible type) is still a record.
    assert!(rejected > 2000, "{rejected} rejected");
    assert!(accepted > 50, "{accepted} accepted");
}
