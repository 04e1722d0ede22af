//! Fixed-count probes of the layers below the engine and of the sweep
//! layer's codecs and journal. Each probe does the same amount of work on
//! every commit, so its time is comparable and its counts are exact.

use crate::report::Outcome;
use crate::spec::ALGOS;
use crate::sys;
use crate::trace::Tracer;
use crate::Scale;
use std::hint::black_box;
use std::path::Path;
use wormsim::observe::{json, JsonRecord};
use wormsim::routing::{AlgorithmKind, MessageRouteState};
use wormsim::topology::{NodeId, Topology};
use wormsim::traffic::SimRng;
use wormsim::{Experiment, RunResult, TrafficConfig};
use wormsim_bench::{run_sweep, write_csv, Journal, SweepOptions, SweepPlan};

const DISTANCE_REPS: u32 = 50;
const ROUTING_CASES: usize = 4096;
const ROUTING_REPS: u32 = 200;
const CODEC_REPS: u32 = 50;

fn algorithm(name: &str) -> AlgorithmKind {
    name.parse()
        .expect("spec::ALGOS holds known algorithm names")
}

/// Topology, routing and traffic: the layers every workload stands on.
pub fn lower_layers(scale: &Scale, seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let Scale { plane, cube, .. } = scale;
    let nodes = plane.num_nodes();
    let ((), seconds) = tracer.span("topology.distance", || {
        for _ in 0..DISTANCE_REPS {
            let mut total = 0u64;
            for s in 0..nodes {
                for d in 0..nodes {
                    total += u64::from(plane.distance(NodeId::new(s), NodeId::new(d)));
                }
            }
            black_box(total);
        }
    });
    let calls = f64::from(DISTANCE_REPS) * f64::from(nodes) * f64::from(nodes);
    out.set_single("topology.distance_ns", seconds * 1e9 / calls);

    for name in ALGOS {
        let algo = algorithm(name)
            .build(plane)
            .expect("paper algorithms build on the plane");
        let cases = routing_cases(plane, algo.as_ref(), seed);
        let mut candidates = Vec::with_capacity(64);
        let mut produced = 0u64;
        let ((), seconds) = tracer.span("routing.candidates", || {
            for rep in 0..ROUTING_REPS {
                for (state, here) in &cases {
                    candidates.clear();
                    algo.candidates(plane, black_box(state), *here, &mut candidates);
                    black_box(&candidates);
                    if rep == 0 {
                        produced += candidates.len() as u64;
                    }
                }
            }
        });
        let calls = f64::from(ROUTING_REPS) * cases.len() as f64;
        out.set_single(
            format!("routing.candidates_ns.{name}"),
            seconds * 1e9 / calls,
        );
        out.set_single(
            format!("routing.candidates_per_call.{name}"),
            produced as f64 / cases.len() as f64,
        );
    }

    let ((), seconds) = tracer.span("routing.build", || {
        for name in ALGOS {
            black_box(
                algorithm(name)
                    .build(cube)
                    .expect("paper algorithms build on the cube"),
            );
        }
    });
    out.set_single("routing.build_s", seconds);

    // What every experiment point pays before its network exists.
    let ((), seconds) = tracer.span("traffic.pattern_setup", || {
        let pattern = TrafficConfig::Uniform
            .build(cube)
            .expect("uniform traffic builds");
        black_box(pattern.mean_distance(cube));
        black_box(pattern.hop_class_weights(cube));
    });
    out.set_single("traffic.pattern_setup_s", seconds);
}

/// Seeded `(route state, position)` pairs part-way along minimal paths,
/// so the routing functions see mid-flight states and not only fresh
/// messages at their source.
fn routing_cases(
    topo: &Topology,
    algo: &dyn wormsim::routing::RoutingAlgorithm,
    seed: u64,
) -> Vec<(MessageRouteState, NodeId)> {
    let mut rng = SimRng::seed_from(seed);
    let mut candidates = Vec::with_capacity(64);
    let mut cases = Vec::with_capacity(ROUTING_CASES);
    while cases.len() < ROUTING_CASES {
        let src = NodeId::new(rng.uniform_below(topo.num_nodes()));
        let dest = NodeId::new(rng.uniform_below(topo.num_nodes()));
        if src == dest {
            continue;
        }
        let mut state = MessageRouteState::new(src, dest);
        algo.init_message(topo, &mut state);
        let mut here = src;
        for _ in 0..rng.uniform_below(topo.distance(src, dest)) {
            candidates.clear();
            algo.candidates(topo, &state, here, &mut candidates);
            let taken = candidates[rng.uniform_below(candidates.len() as u32) as usize];
            state.advance(topo, here, taken);
            here = topo
                .neighbor(here, taken.direction())
                .expect("a candidate names an existing channel");
        }
        cases.push((state, here));
    }
    cases
}

/// The sweep layer with the simulation taken out: wire and result codecs,
/// point hashing, the journal, the CSV writer, and a `run_sweep` that
/// resumes a complete journal and therefore simulates nothing.
pub fn sweep_layers(
    plan: &[Experiment],
    results: &[RunResult],
    journal_path: &Path,
    scratch: &Path,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let points = plan.len() as f64;
    let per_call_ns = |seconds: f64, items: f64| seconds * 1e9 / (f64::from(CODEC_REPS) * items);

    let mut wire = Vec::new();
    let ((), seconds) = tracer.span("core.wire_encode", || {
        for _ in 0..CODEC_REPS {
            wire = plan.iter().map(Experiment::to_wire_json).collect();
        }
    });
    out.set_single("core.wire_encode_ns", per_call_ns(seconds, points));
    out.set_single(
        "core.wire_bytes",
        wire.iter().map(String::len).sum::<usize>() as f64,
    );
    let (decoded, seconds) = tracer.span("core.wire_decode", || {
        let mut ok = true;
        for _ in 0..CODEC_REPS {
            for (text, original) in wire.iter().zip(plan) {
                ok &= Experiment::from_wire_str(text)
                    .is_ok_and(|e| e.point_hash() == original.point_hash());
            }
        }
        ok
    });
    out.set_single("core.wire_decode_ns", per_call_ns(seconds, points));
    if !decoded {
        out.fail(
            plan.len() as u64,
            "a wire-decoded experiment lost its point hash",
        );
    }
    let ((), seconds) = tracer.span("core.point_hash", || {
        for _ in 0..CODEC_REPS {
            for experiment in plan {
                black_box(experiment.point_hash());
            }
        }
    });
    out.set_single("core.point_hash_ns", per_call_ns(seconds, points));

    // Encoded the way the committer journals them, host timings zeroed,
    // so the byte count is a property of the simulation alone.
    let canonical: Vec<RunResult> = results
        .iter()
        .map(|r| RunResult {
            wall_seconds: 0.0,
            cycles_per_sec: 0.0,
            ..r.clone()
        })
        .collect();
    let mut encoded = Vec::new();
    let ((), seconds) = tracer.span("core.result_encode", || {
        for _ in 0..CODEC_REPS {
            encoded = canonical.iter().map(JsonRecord::to_json).collect();
        }
    });
    out.set_single(
        "core.result_encode_ns",
        per_call_ns(seconds, results.len() as f64),
    );
    out.set_single(
        "core.result_bytes",
        encoded.iter().map(String::len).sum::<usize>() as f64,
    );
    let (decoded, seconds) = tracer.span("core.result_decode", || {
        let mut ok = true;
        for _ in 0..CODEC_REPS {
            for text in &encoded {
                ok &= json::from_str(text).is_ok_and(|v| RunResult::from_json(&v).is_ok());
            }
        }
        ok
    });
    out.set_single(
        "core.result_decode_ns",
        per_call_ns(seconds, results.len() as f64),
    );
    if !decoded {
        out.fail(results.len() as u64, "an encoded result did not decode");
    }

    let (loaded, seconds) = tracer.span("bench.journal_load", || Journal::load(journal_path));
    let loaded = loaded.map_err(|e| format!("journal probe: {e}"))?;
    out.set_single("bench.journal_load_s", seconds);
    let bytes = std::fs::metadata(journal_path).map_err(|e| format!("journal probe: {e}"))?;
    out.set_single("bench.journal_bytes", bytes.len() as f64);

    sys::fresh_dir(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let (recorded, seconds) = tracer.span("bench.journal_record", || {
        let mut journal = Journal::create(scratch.join("probe.journal.jsonl"))?;
        for entry in loaded.entries() {
            journal.record(entry.clone())?;
        }
        Ok::<(), wormsim_bench::JournalError>(())
    });
    recorded.map_err(|e| format!("journal probe: {e}"))?;
    out.set_single("bench.journal_record_s", seconds);

    let scratch_text = scratch.display().to_string();
    let (written, seconds) = tracer.span("bench.write_csv", || {
        write_csv("probe", results, &scratch_text)
    });
    written.map_err(|e| format!("csv probe: {e}"))?;
    out.set_single("bench.csv_write_s", seconds);

    let options = SweepOptions {
        out_dir: scratch_text,
        resume: Some(journal_path.display().to_string()),
        threads: 1,
        ..SweepOptions::default()
    };
    let sweep = SweepPlan::new(plan.to_vec());
    let (resumed, seconds) = tracer.span("bench.resume", || run_sweep(&sweep, &options));
    let resumed = resumed.map_err(|e| format!("resume probe: {e}"))?;
    out.set_single("bench.resume_s", seconds);
    if resumed.resumed != plan.len() {
        out.fail(
            (plan.len() - resumed.resumed) as u64,
            format!(
                "resume re-ran {} journaled points",
                plan.len() - resumed.resumed
            ),
        );
    }
    Ok(())
}
