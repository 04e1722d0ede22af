//! The two figure-regeneration workloads: the Figure 3 plan through
//! `run_sweep`, on the in-process pool (`fig3_local`) or over two loopback
//! worker processes (`fig3_remote`). Same plan, same engine work; what
//! differs is the distribution tax.
//!
//! One round is the whole plan plus its CSV. Rounds repeat while the
//! measuring window lasts; every round must reproduce the first one's CSV
//! and journal byte for byte.

use crate::probes;
use crate::report::Outcome;
use crate::spec::{ALGOS, EXPERIMENT_PHASES, PHASES};
use crate::stats::Stat;
use crate::sys;
use crate::trace::Tracer;
use crate::workers::WorkerPool;
use crate::{Options, Scale};
use std::path::{Path, PathBuf};
use std::time::Instant;
use wormsim::observe::{fnv1a_hex, json, MetricsReport};
use wormsim::presets::{self, FigureSpec};
use wormsim::routing::AlgorithmKind;
use wormsim::{
    CancelToken, Experiment, MeasurementSchedule, ObserveConfig, RunManifest, RunResult, Sample,
};
use wormsim_bench::{
    paper_reference, run_sweep, write_csv, BackendChoice, LocalThreadBackend, RemoteBackend,
    SweepOptions, SweepPlan,
};

/// Set-up samples per pass: every round needs one, the rest steady the median.
const SETUP_SAMPLES: usize = 9;
/// Local set-up takes well under a millisecond: one sample times this
/// many in a row and reports their mean.
const LOCAL_SETUP_BATCH: usize = 20;
const JOURNAL_NAME: &str = "fig3.journal.jsonl";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Local,
    Remote,
}

/// Figure 3 as the repository's `fig3 --quick` runs it; under `--smoke`
/// the small torus, two algorithms and two loads.
fn figure(scale: &Scale) -> FigureSpec {
    let spec = presets::fig3();
    if !scale.smoke {
        return spec;
    }
    FigureSpec {
        id: spec.id.clone(),
        algorithms: vec![AlgorithmKind::Ecube, AlgorithmKind::NegativeHopBonusCards],
        loads: vec![0.2, 0.6],
        ..spec.with_topology(scale.plane.clone())
    }
}

/// Everything a round needs that set-up produced.
struct Ready {
    spec: FigureSpec,
    plan: Vec<Experiment>,
    workers: Option<WorkerPool>,
    spawn_s: f64,
    connect_s: f64,
}

/// What a user pays before the first point runs: plan expansion and
/// validation, and bringing the execution backend up — the thread pool
/// locally, two workers and their handshake remotely. (Creating the
/// output directory and journal involves an fsync whose cost follows
/// whatever else the host is writing; it stays in the round, where
/// `run_sweep` does it.)
fn set_up(backend: Backend, scale: &Scale, seed: u64, tracer: &Tracer) -> Result<Ready, String> {
    let spec = figure(scale);
    let plan = presets::experiments_for(&spec, MeasurementSchedule::quick(), seed);
    for experiment in &plan {
        experiment
            .validate()
            .map_err(|e| format!("plan has an invalid point: {e}"))?;
    }
    if backend == Backend::Local {
        // The local counterpart of worker spawn + handshake: the pool
        // `run_sweep` starts before its first point.
        drop(LocalThreadBackend::new(sys::slots(), CancelToken::new()));
    }
    let mut ready = Ready {
        spec,
        plan,
        workers: None,
        spawn_s: 0.0,
        connect_s: 0.0,
    };
    if backend == Backend::Remote {
        // Two workers share the slots the local pool would have used.
        let threads = (sys::slots() / 2).max(1);
        let (pool, spawn_s) = tracer.span("bench.worker_spawn", || WorkerPool::spawn(2, threads));
        let pool = pool?;
        let (connected, connect_s) = tracer.span("bench.remote_connect", || {
            RemoteBackend::connect(&pool.addrs)
        });
        connected.map_err(|e| format!("worker handshake failed: {e}"))?;
        ready.workers = Some(pool);
        ready.spawn_s = spawn_s;
        ready.connect_s = connect_s;
    }
    Ok(ready)
}

struct Round {
    wall_s: f64,
    results: Vec<RunResult>,
    /// Points that returned `Err`, never ran, or ended without statistics.
    bad_points: u64,
    attempts: u64,
    csv: String,
    journal: String,
    journal_path: PathBuf,
}

fn run_round(
    ready: &Ready,
    plan: &[Experiment],
    threads: usize,
    dir: &Path,
    tracer: &Tracer,
) -> Result<Round, String> {
    sys::fresh_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let out_dir = dir.display().to_string();
    let options = SweepOptions {
        schedule: MeasurementSchedule::quick(),
        out_dir: out_dir.clone(),
        threads,
        backend: match &ready.workers {
            Some(pool) => BackendChoice::Remote {
                workers: pool.addrs.clone(),
            },
            None => BackendChoice::Local,
        },
        ..SweepOptions::default()
    };
    let sweep = SweepPlan::new(plan.to_vec()).journal_name(JOURNAL_NAME);
    let start = Instant::now();
    let (run, _) = tracer.span("bench.run_sweep", || run_sweep(&sweep, &options));
    let run = run.map_err(|e| format!("run_sweep failed: {e}"))?;
    let mut results = Vec::with_capacity(plan.len());
    let mut bad_points = 0;
    for outcome in run.outcomes {
        match outcome {
            Some(Ok(result)) => {
                if !result.outcome.has_statistics() {
                    bad_points += 1;
                }
                results.push(result);
            }
            _ => bad_points += 1,
        }
    }
    let (csv_path, _) = tracer.span("bench.write_csv", || {
        write_csv(&ready.spec.id, &results, &out_dir)
    });
    let csv_path = csv_path.map_err(|e| format!("write_csv failed: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    Ok(Round {
        wall_s,
        results,
        bad_points,
        attempts: run.attempts.iter().sum(),
        csv: read(Path::new(&csv_path))?,
        journal: read(&run.journal)?,
        journal_path: run.journal,
    })
}

/// Flit-hops inside the sampling periods, recovered from each point's
/// achieved utilization (the mean over its samples of flit-hops per
/// channel-cycle). Warm-up and gap traversals are not in a `RunResult`.
fn sampled_flit_hops(spec: &FigureSpec, results: &[RunResult]) -> f64 {
    let channels = f64::from(spec.topology.num_physical_links());
    let sample_cycles = MeasurementSchedule::quick().sample_cycles as f64;
    results
        .iter()
        .map(|r| r.achieved_utilization * channels * sample_cycles * r.samples as f64)
        .sum()
}

/// Mean |measured - paper| over the figure's claims the paper states as a
/// number; inequality claims (`<0.34`) are skipped.
fn claim_abs_err(spec_id: &str, results: &[RunResult]) -> Option<f64> {
    let errors: Vec<f64> = paper_reference(spec_id)
        .iter()
        .filter_map(|claim| {
            let paper: f64 = claim.paper_value.trim_start_matches('~').parse().ok()?;
            Some(((claim.measure)(results) - paper).abs())
        })
        .collect();
    (!errors.is_empty()).then(|| errors.iter().sum::<f64>() / errors.len() as f64)
}

fn note_accuracy(ready: &Ready, results: &[RunResult], out: &mut Outcome) -> f64 {
    let error = claim_abs_err(&ready.spec.id, results).unwrap_or(0.0);
    out.notes.push(format!(
        "claim_abs_err {error} (normalized throughput, quick-schedule error against the paper's \
         Figure 3 peaks on {}; not the paper-schedule error)",
        ready.spec.topology.label()
    ));
    error
}

fn digest(round: &Round) -> String {
    fnv1a_hex(&format!("{}\u{0}{}", round.csv, round.journal))
}

pub fn measure(
    backend: Backend,
    options: &Options,
    scale: &Scale,
    out_dir: &Path,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    if options.trace {
        return measure_traced(backend, options, scale, out_dir, tracer);
    }
    let batch = match backend {
        Backend::Local => LOCAL_SETUP_BATCH,
        Backend::Remote => 1,
    };
    let timed_set_up = || {
        let (made, seconds) = tracer.span("setup", || {
            (1..batch).for_each(|_| drop(set_up(backend, scale, options.seed, tracer)));
            set_up(backend, scale, options.seed, tracer)
        });
        (made, seconds / batch as f64)
    };
    // Every round gets its own set-up: a fresh directory, and fresh workers
    // because a worker numbers jobs per process and so serves one sweep only.
    let window = Instant::now();
    let mut setup_s = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut worker_rss_mib: f64 = 0.0;
    let mut ready;
    loop {
        let (made, seconds) = timed_set_up();
        setup_s.push(seconds);
        ready = made?;
        tracer.set_repeat(rounds.len() as u32);
        let dir = out_dir.join(format!("round{}", rounds.len()));
        let round = run_round(&ready, &ready.plan, sys::slots(), &dir, tracer)?;
        if let Some(pool) = &ready.workers {
            worker_rss_mib = worker_rss_mib.max(pool.peak_rss_mib());
        }
        // A further round starts only if at least half of it fits the window.
        let more = window.elapsed().as_secs_f64() + round.wall_s / 2.0 < options.seconds;
        rounds.push(round);
        if !more {
            break;
        }
    }
    while setup_s.len() < SETUP_SAMPLES {
        // Dropping the previous set-up first stops its workers.
        drop(ready.workers.take());
        let (made, seconds) = timed_set_up();
        setup_s.push(seconds);
        ready = made?;
    }

    let points = ready.plan.len() as u64;
    let mut out = Outcome {
        attempted: points * rounds.len() as u64,
        sim_digest: digest(&rounds[0]),
        ..Outcome::default()
    };
    for (i, round) in rounds.iter().enumerate() {
        if round.csv != rounds[0].csv || round.journal != rounds[0].journal {
            out.fail(
                points,
                format!("round {i} wrote a CSV or journal that differs from round 0"),
            );
        } else if round.bad_points > 0 {
            out.fail(
                round.bad_points,
                format!(
                    "round {i}: {} points failed or ended without statistics",
                    round.bad_points
                ),
            );
        }
    }
    out.notes.push(format!(
        "{} rounds of {points} points; CSV and journal compared byte for byte across rounds",
        rounds.len()
    ));
    note_accuracy(&ready, &rounds[0].results, &mut out);

    let wall = Stat::of(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let first = &rounds[0].results;
    out.set("setup_s", Stat::of(&setup_s));
    out.set("wall_s", wall);
    out.set("points_per_s", wall.rate_of(points as f64));
    out.set(
        "sim_cycles_per_s",
        wall.rate_of(first.iter().map(|r| r.cycles_simulated).sum::<u64>() as f64),
    );
    out.set(
        "flit_hops_per_s",
        wall.rate_of(sampled_flit_hops(&ready.spec, first)),
    );
    out.set_single(
        "peak_rss_mb",
        match backend {
            // The simulation's memory lives in the workers: the largest
            // sum over one round's two workers.
            Backend::Remote => worker_rss_mib,
            Backend::Local => sys::peak_rss_mib(),
        },
    );
    Ok(out)
}

/// One round with the layers opened up. Locally every point runs with
/// `observe` + `metrics` on and the per-run manifests, sample streams and
/// `metrics.json` files are read back; remotely (where the simulator
/// refuses observation) the round is only timed from outside. The
/// fixed-count probes run afterwards on this round's plan and results.
fn measure_traced(
    backend: Backend,
    options: &Options,
    scale: &Scale,
    out_dir: &Path,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let seed = options.seed;
    let (ready, _) = tracer.span("setup", || set_up(backend, scale, seed, tracer));
    let ready = ready?;
    let observe_dir = out_dir.join("observe");
    let plan: Vec<Experiment> = match backend {
        Backend::Remote => ready.plan.clone(),
        Backend::Local => {
            sys::fresh_dir(&observe_dir).map_err(|e| format!("{}: {e}", observe_dir.display()))?;
            let config = ObserveConfig {
                out_dir: Some(observe_dir.clone()),
                trace_dir: None,
                sample_every: 0,
                prefix: ready.spec.id.clone(),
                metrics: true,
            };
            ready
                .plan
                .iter()
                .map(|e| e.clone().observe(config.clone()))
                .collect()
        }
    };
    let slots = sys::slots();
    let round = run_round(&ready, &plan, slots, &out_dir.join("traced"), tracer)?;

    let points = plan.len() as u64;
    let mut out = Outcome {
        attempted: points,
        sim_digest: digest(&round),
        ..Outcome::default()
    };
    if round.bad_points > 0 {
        out.fail(
            round.bad_points,
            format!(
                "{} points failed or ended without statistics",
                round.bad_points
            ),
        );
    }
    let results = &round.results;
    let point_walls: Vec<f64> = results.iter().map(|r| r.wall_seconds).collect();
    let serial_s: f64 = point_walls.iter().sum();
    let point_stat = Stat::of(&point_walls);
    out.set_single("core.point_s_p50", point_stat.value);
    out.set_single("core.point_s_max", point_stat.max);
    out.set_single(
        "core.cycles_simulated",
        results.iter().map(|r| r.cycles_simulated).sum::<u64>() as f64,
    );
    out.set_single(
        "stats.samples_per_point",
        results.iter().map(|r| r.samples).sum::<usize>() as f64 / points as f64,
    );
    out.set_single(
        "stats.converged_frac",
        results.iter().filter(|r| r.is_converged()).count() as f64 / points as f64,
    );
    out.set_single("bench.attempts", round.attempts as f64);
    out.set_single(
        "bench.parallel_eff",
        serial_s / (slots as f64 * round.wall_s),
    );
    // Wall the sweep took beyond perfectly packed simulation: imbalance
    // tail, journal and committer, and on the remote backend wire codec,
    // HTTP and the poll interval. Remote minus local is the distribution tax.
    out.set_single("bench.dist_tax_s", round.wall_s - serial_s / slots as f64);
    out.set_single("bench.worker_spawn_s", ready.spawn_s);
    out.set_single("bench.remote_connect_s", ready.connect_s);
    let error = note_accuracy(&ready, results, &mut out);
    out.set_single("bench.claim_abs_err", error);

    if backend == Backend::Local {
        let (read, _) = tracer.span("observe.read_artifacts", || {
            read_observations(&observe_dir, &mut out)
        });
        read?;
    }
    probes::lower_layers(scale, seed, tracer, &mut out);
    probes::sweep_layers(
        &ready.plan,
        results,
        &round.journal_path,
        &out_dir.join("probe"),
        tracer,
        &mut out,
    )?;
    Ok(out)
}

/// Folds the observe directory of a traced local round into engine and
/// experiment-phase metrics.
fn read_observations(dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let mut experiment_s = [0.0f64; 4];
    let mut phase_s = [0.0f64; 5];
    let (mut flit_hops, mut delivered, mut generated, mut refused) = (0u64, 0u64, 0u64, 0u64);
    let (mut blocked, mut alloc_fail) = (0u64, 0u64);
    // Per algorithm: cycles, flit-hops, wall seconds.
    let mut per_algo = [(0.0f64, 0.0f64, 0.0f64); 6];

    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    for path in &paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.ends_with(".manifest.json") {
            let manifest = RunManifest::read_from(path)?;
            for phase in &manifest.phases {
                if let Some(i) = EXPERIMENT_PHASES.iter().position(|p| *p == phase.name) {
                    experiment_s[i] += phase.wall_seconds;
                }
            }
            if let Some(i) = ALGOS.iter().position(|a| *a == manifest.algorithm) {
                per_algo[i].0 += manifest.cycles as f64;
                per_algo[i].1 += manifest.flits_per_sec * manifest.wall_seconds;
                per_algo[i].2 += manifest.wall_seconds;
            }
        } else if name.ends_with(".metrics.json") {
            let report = MetricsReport::read_from(path)?;
            for phase in &report.phases {
                if let Some(i) = PHASES.iter().position(|p| *p == phase.name) {
                    phase_s[i] += phase.wall_seconds;
                }
            }
            blocked += report.class_blocked.iter().sum::<u64>();
            alloc_fail += report.class_alloc_fail.iter().sum::<u64>();
        } else if name.ends_with(".samples.jsonl") {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
            for line in text.lines() {
                let value = json::from_str(line).map_err(|e| format!("{name}: {e}"))?;
                let sample = Sample::from_json(&value).map_err(|e| format!("{name}: {e}"))?;
                flit_hops += sample.flit_hops;
                delivered += sample.delivered;
                generated += sample.generated;
                refused += sample.refused;
            }
        }
    }
    for (name, seconds) in EXPERIMENT_PHASES.iter().zip(experiment_s) {
        out.set_single(format!("core.experiment_s.{name}"), seconds);
    }
    for (name, seconds) in PHASES.iter().zip(phase_s) {
        out.set_single(format!("engine.phase_s.{name}"), seconds);
    }
    out.set_single("engine.warmup_s", experiment_s[0]);
    for (name, (cycles, hops, wall)) in ALGOS.iter().zip(per_algo) {
        if wall > 0.0 {
            out.set_single(format!("engine.steps_per_s.{name}"), cycles / wall);
            out.set_single(format!("engine.flit_hops_per_s.{name}"), hops / wall);
        }
    }
    out.set_single("engine.flit_hops", flit_hops as f64);
    out.set_single("engine.delivered", delivered as f64);
    out.set_single("engine.generated", generated as f64);
    out.set_single("engine.refused", refused as f64);
    out.set_single("engine.blocked", blocked as f64);
    out.set_single("engine.alloc_fail", alloc_fail as f64);
    if flit_hops > 0 {
        out.set_single("engine.blocked_per_hop", blocked as f64 / flit_hops as f64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_separates_csv_from_journal() {
        let round = |csv: &str, journal: &str| Round {
            wall_s: 0.0,
            results: Vec::new(),
            bad_points: 0,
            attempts: 0,
            csv: csv.to_owned(),
            journal: journal.to_owned(),
            journal_path: PathBuf::new(),
        };
        assert_eq!(digest(&round("a,b\n", "{}\n")), "691eb6640873bb96");
        assert_eq!(
            digest(&round("a,b\n", "{}\n")),
            digest(&round("a,b\n", "{}\n"))
        );
        assert_ne!(digest(&round("ab", "c")), digest(&round("a", "bc")));
    }

    #[test]
    fn smoke_figure_is_two_by_two_on_the_small_torus() {
        let spec = figure(&Scale::new(true));
        assert_eq!(spec.id, "fig3");
        assert_eq!(spec.topology.num_nodes(), 64);
        let plan = presets::experiments_for(&spec, MeasurementSchedule::quick(), 1);
        assert_eq!(plan.len(), 4);
        assert_eq!(figure(&Scale::new(false)).topology.num_nodes(), 256);
    }

    #[test]
    fn only_numeric_claims_count_towards_the_error() {
        // No results: every peak reads 0, so the error is the mean of the
        // paper's five numeric Figure 3 peaks (the `<0.34` claim is skipped).
        let error = claim_abs_err("fig3", &[]).unwrap();
        let expected = (0.72 + 0.63 + 0.55 + 0.34 + 0.25) / 5.0;
        assert!((error - expected).abs() < 1e-12, "{error}");
        assert_eq!(claim_abs_err("no-such-figure", &[]), None);
    }
}
