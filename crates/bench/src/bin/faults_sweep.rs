//! Latency/throughput vs fault count: the adaptivity payoff under damage.
//!
//! Sweeps the number of randomly killed links from 0 to `--max-faults`,
//! running every selected algorithm at a fixed offered load against each
//! fault plan. E-cube has exactly one path per pair, so a single dead link
//! on it strands traffic; the adaptive algorithms route around the damage.
//! The sweep degrades gracefully point-by-point: a point that deadlocks,
//! livelocks, exhausts its budget, or disconnects the network records its
//! [`RunOutcome`] and the sweep continues.
//!
//! ```text
//! faults_sweep [--algos all|ecube,phop,...] [--load L] [--max-faults N]
//!              [--smoke] [harness flags, see `SweepOptions::USAGE`]
//! ```
//!
//! `--topo` defaults to `torus:8x8` here.
//!
//! `--observe DIR` writes per-run manifests and sample streams under
//! `DIR`, with the fault count folded into each run id
//! (`faults<N>-<algo>-...`); `--metrics` adds deep telemetry
//! (`metrics.json`, `heatmap.csv`, and — for deadlocked or livelocked
//! points — a `waitfor.jsonl` wait-for forensic snapshot).
//!
//! `--smoke` is the CI preset: a small torus, two algorithms, three fault
//! counts, and a tight cycle budget so the whole sweep finishes in seconds.
//!
//! Completed points are journaled to `DIR/faults_sweep.journal.jsonl`;
//! after a crash or Ctrl-C, `--resume <journal>` continues where the sweep
//! stopped and reproduces the uninterrupted CSV byte for byte.

use wormsim::faults::{FaultPlan, FaultRegion};
use wormsim::topology::Topology;
use wormsim::{AlgorithmKind, Experiment, MeasurementSchedule, RunOutcome};
use wormsim_bench::{
    cli, retain_runnable, run_sweep_or_exit, PointOutcome, SweepOptions, SweepPlan,
};

fn usage() -> String {
    format!(
        "usage: faults_sweep [--algos A] [--load L] [--max-faults N] [--smoke] {}",
        SweepOptions::USAGE
    )
}

/// The sweep's own axes; everything else is in [`SweepOptions`].
struct SweepSpec {
    topology: Topology,
    algorithms: Vec<AlgorithmKind>,
    load: f64,
    max_faults: usize,
}

/// Parses the command line (program name already stripped): the fault
/// sweep's own axis flags here, every harness flag through
/// [`SweepOptions::apply_flag`].
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<Option<(SweepSpec, SweepOptions)>, String> {
    let mut spec = SweepSpec {
        topology: Topology::torus(&[8, 8]),
        algorithms: cli::parse_algorithms("all")?,
        load: 0.2,
        max_faults: 8,
    };
    let mut options = SweepOptions::default();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--algos" => spec.algorithms = cli::parse_algorithms(&value("--algos")?)?,
            "--load" => {
                let loads = cli::parse_loads(&value("--load")?)?;
                if loads.len() != 1 {
                    return Err(
                        "--load takes a single load; the sweep axis is fault count".to_owned()
                    );
                }
                spec.load = loads[0];
            }
            "--max-faults" => spec.max_faults = cli::parse_count(&arg, &value("--max-faults")?)?,
            "--smoke" => {
                options.topology = Some(Topology::torus(&[6, 6]));
                spec.algorithms = cli::parse_algorithms("ecube,phop")?;
                spec.max_faults = 2;
                options.schedule = MeasurementSchedule::quick();
                options.cycle_budget = Some(30_000);
            }
            "--help" | "-h" => return Ok(None),
            flag => {
                if !options.apply_flag(flag, &mut args)? {
                    return Err(format!("unknown argument '{flag}'"));
                }
            }
        }
    }
    options.finish()?;
    if let Some(topology) = &options.topology {
        spec.topology = topology.clone();
    }
    Ok(Some((spec, options)))
}

/// The fault plan for one sweep point: `count` seeded-random link kills.
/// Each count perturbs the seed so plans differ, but the whole curve is
/// reproducible from the base seed alone. Zero faults means *no* plan at
/// all, keeping that point on the fault-free fast path as the baseline.
fn plan_for(topology: &Topology, seed: u64, count: usize) -> Option<FaultPlan> {
    (count > 0).then(|| {
        FaultPlan::random_links(
            topology,
            count,
            seed ^ (count as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            &FaultRegion::Anywhere,
        )
    })
}

/// Runs every `(fault count, algorithm)` point, fault-count-major so the
/// printed table reads top to bottom as damage accumulates. Points run
/// through the shared journaled orchestrator — panic-isolated, retried on
/// transients, resumable — and never cancel each other: a bad point
/// records its error and the sweep continues. `Err` outcomes mean the
/// configuration itself was rejected (e.g. the plan disconnected every
/// node); runtime failures are `Ok` results with a non-`Completed`
/// outcome. Returns only when every point has an outcome; an interrupted
/// or quarantined sweep leaves `faults_sweep.partial.csv` — a name that
/// cannot be mistaken for the full sweep — and exits through the shared
/// path.
fn run_sweep(spec: &SweepSpec, options: &SweepOptions) -> Vec<PointOutcome> {
    let mut experiments = Vec::new();
    for count in 0..=spec.max_faults {
        for &algorithm in &spec.algorithms {
            let mut e = Experiment::new(spec.topology.clone(), algorithm)
                .offered_load(spec.load)
                .schedule(options.schedule)
                .seed(options.seed);
            if let Some(plan) = plan_for(&spec.topology, options.seed, count) {
                e = e.faults(plan);
            }
            // The fault count rides in the telemetry prefix: every
            // (count, algo) point keeps a distinct run id and file set.
            experiments.push(options.apply_to(e, &format!("faults{count}")));
        }
    }
    let plan = SweepPlan::new(experiments).journal_name("faults_sweep.journal.jsonl");
    run_sweep_or_exit(&plan, options, |partial| {
        let ran = partial.iter().map(Option::as_ref);
        write_csv(spec, options, ran, "faults_sweep.partial")
    })
}

/// One table cell: mean latency when the run produced statistics, the
/// outcome tag in upper case when it did not.
fn cell(outcome: &PointOutcome) -> String {
    match outcome {
        Ok(r) if r.outcome.has_statistics() => format!("{:.1}", r.latency.mean()),
        Ok(r) => r.outcome.tag().to_uppercase(),
        Err(_) => "INVALID".to_owned(),
    }
}

/// Prints one panel: a row per fault count (a chunk of the
/// fault-count-major outcomes), a column per algorithm.
fn print_panel(
    spec: &SweepSpec,
    outcomes: &[PointOutcome],
    cell: impl Fn(&PointOutcome) -> String,
) {
    print!("{:>7}", "faults");
    for algo in &spec.algorithms {
        print!("{:>12}", algo.name());
    }
    println!();
    for (count, row) in outcomes.chunks(spec.algorithms.len()).enumerate() {
        print!("{count:>7}");
        for outcome in row {
            print!("{:>12}", cell(outcome));
        }
        println!();
    }
}

fn print_table(spec: &SweepSpec, seed: u64, outcomes: &[PointOutcome]) {
    println!(
        "== Latency vs fault count on {} at load {:.2} (seed {}) ==",
        spec.topology, spec.load, seed
    );
    println!("\nMean latency (cycles); non-numeric cells name the run outcome:");
    print_panel(spec, outcomes, cell);
    println!("\nDelivered messages per node per cycle:");
    print_panel(spec, outcomes, |outcome| match outcome {
        Ok(r) => format!("{:.3}", r.delivery_rate),
        Err(_) => "-".to_owned(),
    });
}

/// Writes the CSV of the points that ran; `outcomes` is index-aligned
/// with the fault-count-major plan (`None` = the point never ran).
fn write_csv<'a>(
    spec: &SweepSpec,
    options: &SweepOptions,
    outcomes: impl Iterator<Item = Option<&'a PointOutcome>>,
    name: &str,
) -> std::io::Result<String> {
    std::fs::create_dir_all(&options.out_dir)?;
    let path = format!("{}/{name}.csv", options.out_dir);
    let mut out = String::from(
        "algorithm,fault_count,offered_load,outcome,latency_mean,achieved_utilization,\
         delivery_rate,messages_measured,cycles_simulated,dropped_events\n",
    );
    for (i, outcome) in outcomes.enumerate() {
        let algorithm = spec.algorithms[i % spec.algorithms.len()].name();
        let fault_count = i / spec.algorithms.len();
        match outcome {
            Some(Ok(r)) => {
                out.push_str(&format!(
                    "{},{},{},{},{:.4},{:.6},{:.6},{},{},{}\n",
                    algorithm,
                    fault_count,
                    spec.load,
                    r.outcome,
                    r.latency.mean(),
                    r.achieved_utilization,
                    r.delivery_rate,
                    r.messages_measured,
                    r.cycles_simulated,
                    r.dropped_events,
                ));
            }
            Some(Err(e)) => eprintln!("point {algorithm} @ {fault_count} faults invalid: {e}"),
            None => {}
        }
    }
    wormsim::observe::atomic_write(std::path::Path::new(&path), &out)?;
    Ok(path)
}

fn main() {
    let (mut spec, options) = match parse_args(std::env::args().skip(1)) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{}", usage());
            return;
        }
        Err(message) => cli::usage_error(&message, &usage()),
    };
    retain_runnable(&mut spec.algorithms, &spec.topology);
    eprintln!(
        "running {} points ({} fault counts x {} algorithms) on {} threads...",
        (spec.max_faults + 1) * spec.algorithms.len(),
        spec.max_faults + 1,
        spec.algorithms.len(),
        options.threads
    );
    let outcomes = run_sweep(&spec, &options);
    print_table(&spec, options.seed, &outcomes);
    // A smoke run must fail loudly if the graceful-degradation contract
    // breaks: every point must produce *some* outcome, and the zero-fault
    // baseline must actually complete.
    for (algo, baseline) in spec.algorithms.iter().zip(&outcomes) {
        match baseline {
            Ok(r) => assert!(
                r.outcome == RunOutcome::Completed || r.outcome == RunOutcome::Saturated,
                "zero-fault baseline for {algo} ended {}",
                r.outcome
            ),
            Err(e) => panic!("zero-fault baseline for {algo} invalid: {e}"),
        }
    }
    match write_csv(&spec, &options, outcomes.iter().map(Some), "faults_sweep") {
        Ok(path) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<(SweepSpec, SweepOptions)>, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    fn run(args: &[&str]) -> (SweepSpec, SweepOptions) {
        match parse(args) {
            Ok(Some(parsed)) => parsed,
            _ => panic!("expected a run invocation"),
        }
    }

    #[test]
    fn axis_and_harness_flags_parse_together() {
        let (spec, options) = run(&[
            "--topo",
            "mesh:8x8",
            "--load",
            "0.3",
            "--max-faults",
            "4",
            "--seed",
            "7",
            "--cycle-budget",
            "50000",
        ]);
        assert_eq!(spec.topology, Topology::mesh(&[8, 8]));
        assert!((spec.load - 0.3).abs() < 1e-12);
        assert_eq!(spec.max_faults, 4);
        assert_eq!(options.seed, 7);
        assert_eq!(options.cycle_budget, Some(50_000));
        let (spec, _) = run(&[]);
        assert_eq!(spec.topology, Topology::torus(&[8, 8]));
        assert_eq!(spec.max_faults, 8);
    }

    #[test]
    fn smoke_preset_is_small_and_budgeted() {
        let (spec, options) = run(&["--smoke"]);
        assert_eq!(spec.topology, Topology::torus(&[6, 6]));
        assert_eq!(spec.algorithms.len(), 2);
        assert_eq!(spec.max_faults, 2);
        assert!(options.cycle_budget.is_some());
        // Later flags still override the preset.
        let (spec, _) = run(&["--smoke", "--topo", "torus:4x4"]);
        assert_eq!(spec.topology, Topology::torus(&[4, 4]));
    }

    #[test]
    fn zero_max_faults_is_the_fault_free_baseline_alone() {
        let (spec, _) = run(&["--max-faults", "0"]);
        assert_eq!(spec.max_faults, 0);
        let err = parse(&["--max-faults", "-3"])
            .err()
            .expect("negative count");
        assert!(err.contains("--max-faults"), "got: {err}");
    }

    #[test]
    fn load_must_be_single_valued() {
        assert!(parse(&["--load", "0.1,0.5"]).is_err());
        assert!(parse(&["--load", "0"]).is_err());
    }

    #[test]
    fn malformed_axes_and_harness_flags_are_usage_errors() {
        assert!(parse(&["--max-faults", "lots"]).is_err());
        assert!(parse(&["--hyperdrive"]).is_err());
        assert!(parse(&["--cycle-budget", "0"]).is_err());
        assert!(parse(&["--salvage"]).is_err(), "--salvage needs --resume");
    }

    #[test]
    fn help_short_circuits() {
        assert!(matches!(parse(&["--help"]), Ok(None)));
    }

    #[test]
    fn plans_differ_by_count_and_reproduce_by_seed() {
        let (spec, options) = run(&[]);
        let plan = |count| plan_for(&spec.topology, options.seed, count);
        assert!(plan(0).is_none(), "baseline stays fault-free");
        let a = plan(3).expect("plan exists");
        let b = plan(3).expect("plan exists");
        assert_eq!(a.faults(), b.faults(), "same seed, same plan");
        assert_eq!(a.faults().len(), 3);
    }
}
