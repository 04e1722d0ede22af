//! The in-workspace engine probe: times raw
//! [`Network`](wormsim::engine::Network) runs of a preset family and
//! records them, with their deterministic work counters, in one JSON
//! schema (`BENCH_engine.json` and `BENCH_scaling.json` at the repository
//! root are its trajectory files). The gated measurement ladder is
//! `benchmark/`; see docs/PERFORMANCE.md, "Measuring".
//!
//! `perf --list` names the presets and `perf --help` lists the flags (the
//! table is [`Options`]). A preset is a row of [`PRESETS`]: its networks,
//! its default load and cycle counts, whether it takes `--topo`, and the
//! observer modes each network is timed under.
//! `--smoke` is the CI-budget variant (at most 300 + 1500 cycles, and the
//! preset's small sizes). `--metrics` pairs every network with a second
//! run under the deep-telemetry registry and prints that run's latency
//! percentiles and engine-phase split; `--max-overhead-pct P` (implies the
//! pairing) exits 1 if any observed run is more than `P` percent slower
//! than its observers-off baseline — the CI guard that instrumentation
//! stays off the disabled hot path. Whenever a network is timed under
//! more than one mode every run is best-of-3 by wall clock; a plain
//! trajectory run is single-shot, as every committed `BENCH_*.json` was.
//!
//! `--check FILE` re-runs the configuration a `--out` file of this preset
//! records and fails unless every point's `flit_hops`, `delivered`,
//! `route_attempts` and `route_sleeps` equal the recorded ones — the CI
//! gate on the deterministic counters; wall-clock stays advisory. It takes
//! no other flag.
//!
//! Exit status: 0 done, 1 error, failed guard or count mismatch, 2 usage.

use std::path::Path;
use std::time::Instant;
use wormsim::observe::{
    atomic_write, json, json_record, JsonRecord, JsonlSink, MetricsRegistry, PHASE_NAMES,
};
use wormsim::{Experiment, Switching};
use wormsim_bench::cli;
use wormsim_bench::perf::{Mode, Options, Preset, PRESETS};
use wormsim_bench::study::Axis;

/// Cycles stepped between two collections of the delivery records. The
/// engine keeps every record until it is taken, as a drive loop does once
/// per sampling period; a timed section that never took them would grow
/// with `--cycles` and time the reallocations.
const TIMED_CHUNK: u64 = 1_000;

/// Runs per point when a network is timed under several modes. The
/// simulation is deterministic — every repeat counts the same flit-hops —
/// so the minimum wall time is the least-noisy throughput estimate on a
/// shared machine, which a paired comparison needs (single-shot short runs
/// swing tens of percent).
const PAIRED_REPEATS: u64 = 3;

/// What a run was asked to do: the head of a [`Report`].
#[derive(Debug, PartialEq)]
struct Config {
    preset: String,
    offered_load: f64,
    seed: u64,
    warmup_cycles: u64,
    timed_cycles: u64,
    smoke: bool,
    /// Runs behind each point; the fastest is recorded.
    best_of: u64,
}

json_record!(Config {
    preset,
    offered_load,
    seed,
    warmup_cycles,
    timed_cycles,
    smoke,
    best_of,
});

/// One network timed under one mode. The two rates and the two times are
/// wall-clock and advisory; the four counts are deterministic in the
/// configuration and seed, so two revisions that simulate the same thing
/// report them equal.
#[derive(Debug, PartialEq)]
struct Point {
    topology: String,
    nodes: u64,
    traffic: String,
    switching: Switching,
    algorithm: String,
    mode: Mode,
    /// Simulated cycles per wall-clock second.
    steps_per_sec: f64,
    /// Simulated flit-hops per wall-clock second.
    flits_per_sec: f64,
    /// Wall-clock seconds spent stepping the timed cycles.
    wall_seconds: f64,
    /// Wall-clock seconds `Experiment::build_network` took: validation,
    /// the injection rate and building the network. Files written before
    /// the field existed read 0.
    setup_seconds: f64,
    flit_hops: u64,
    delivered: u64,
    /// Route attempts that reached the routing function.
    route_attempts: u64,
    /// Pending heads the route phase skipped as still blocked.
    route_sleeps: u64,
}

json_record!(Point {
    topology,
    nodes,
    traffic,
    switching,
    algorithm,
    mode,
    steps_per_sec,
    flits_per_sec,
    wall_seconds,
    setup_seconds = 0.0,
    flit_hops,
    delivered,
    route_attempts,
    route_sleeps,
});

/// The file `--out` writes.
#[derive(Debug, PartialEq)]
struct Report {
    config: Config,
    points: Vec<Point>,
}

json_record!(Report as "perf" { config, points });

/// Builds `experiment`'s network, warms it up, installs `mode`'s observer
/// and times the options' cycles. Returns the point and, under
/// [`Mode::Metrics`], the registry the run filled.
fn timed_run(
    experiment: &Experiment,
    mode: Mode,
    options: &Options,
    scratch: &Path,
) -> Result<(Point, Option<Box<MetricsRegistry>>), String> {
    let setup = Instant::now();
    let mut net = experiment.build_network().map_err(|e| {
        format!(
            "{} on {}: {e}",
            experiment.sim().algorithm,
            experiment.sim().topology
        )
    })?;
    let setup_seconds = setup.elapsed().as_secs_f64();
    net.run(options.warmup);
    let mut records = net.drain_delivered();
    records.clear();
    net.reset_metrics();
    let jsonl = |file: &str| {
        std::fs::create_dir_all(scratch)
            .and_then(|()| JsonlSink::create(scratch.join(file)))
            .map_err(|e| format!("could not open {file} under {}: {e}", scratch.display()))
    };
    match mode {
        Mode::Off => {}
        Mode::Metrics => {
            net.observer().metrics_on();
        }
        Mode::RingTrace => {
            net.observer().trace_ring();
        }
        Mode::JsonlSamples => {
            let sink = jsonl("samples.jsonl")?;
            net.observer().sample(1_000, Box::new(sink));
        }
        Mode::JsonlTrace => {
            let sink = jsonl("trace.jsonl")?;
            net.observer().trace_into(Box::new(sink));
        }
    }
    let mut wall_seconds = 0.0;
    let mut left = options.cycles;
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
    let point = Point {
        topology: net.topology().label(),
        nodes: u64::from(net.topology().num_nodes()),
        traffic: net.traffic_pattern().name(),
        switching: net.config().switching,
        algorithm: net.config().algorithm.name().to_owned(),
        mode,
        steps_per_sec: (options.cycles as f64 / wall_seconds).round(),
        flits_per_sec: (metrics.flit_hops as f64 / wall_seconds).round(),
        wall_seconds: (wall_seconds * 1e6).round() / 1e6,
        setup_seconds: (setup_seconds * 1e6).round() / 1e6,
        flit_hops: metrics.flit_hops,
        delivered: metrics.delivered,
        route_attempts: metrics.route_attempts,
        route_sleeps: metrics.route_sleeps,
    };
    Ok((point, net.observer().metrics_off()))
}

/// Prints the deep-telemetry summary of one metrics-enabled run: latency
/// percentiles and the engine-phase wall-clock split.
fn print_telemetry(registry: &MetricsRegistry) {
    let latency = registry.latency.summarize("latency");
    println!(
        "          latency p50/p95/p99: {}/{}/{} cycles ({} messages)",
        latency.p50, latency.p95, latency.p99, latency.count
    );
    let total: u64 = registry.phase_nanos.iter().sum();
    let split: Vec<String> = PHASE_NAMES
        .iter()
        .zip(registry.phase_nanos.iter())
        .map(|(name, &nanos)| format!("{name} {:.0}%", 100.0 * nanos as f64 / total.max(1) as f64))
        .collect();
    println!("          phase split: {}", split.join(", "));
}

/// The `--max-overhead-pct` verdict over every measured overhead: the
/// worst one, or why the guard fails. A comparison that measured nothing,
/// or measured something that is not a number, has not shown the limit
/// holds.
fn check_overheads(overheads: &[f64], limit: f64) -> Result<f64, String> {
    if overheads.is_empty() {
        return Err("no observed run was paired with a baseline".to_owned());
    }
    if let Some(bad) = overheads.iter().find(|o| !o.is_finite()) {
        return Err(format!("an overhead measured {bad}, which is not a number"));
    }
    let worst = overheads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if worst > limit {
        return Err(format!(
            "worst observed run is {worst:.1}% slower than its baseline (limit {limit}%)"
        ));
    }
    Ok(worst)
}

/// Times every network of `preset` under every mode, prints the table,
/// and returns the report with the overhead of each non-baseline point.
/// JSONL sinks write under `scratch`.
fn measure(
    preset: &Preset,
    options: &Options,
    scratch: &Path,
) -> Result<(Report, Vec<f64>), String> {
    let modes = options.modes(preset);
    let best_of = if modes.len() > 1 { PAIRED_REPEATS } else { 1 };
    println!(
        "perf {}: load {:.2}, {} + {} cycles, seed {}, best of {best_of}{}",
        preset.id,
        options.load,
        options.warmup,
        options.cycles,
        options.seed,
        if options.smoke { " (smoke)" } else { "" }
    );
    let mut points: Vec<Point> = Vec::new();
    let mut overheads = Vec::new();
    let mut heading = String::new();
    for experiment in (preset.networks)(options) {
        let mut baseline = 0.0;
        for &mode in &modes {
            let mut best = timed_run(&experiment, mode, options, scratch)?;
            for _ in 1..best_of {
                let next = timed_run(&experiment, mode, options, scratch)?;
                if next.0.wall_seconds < best.0.wall_seconds {
                    best = next;
                }
            }
            let (point, registry) = best;
            let group = format!(
                "{} ({} nodes), {}, {:?}",
                point.topology, point.nodes, point.traffic, point.switching
            );
            if group != heading {
                println!("  {group}:");
                heading = group;
            }
            let versus = if mode == Mode::Off {
                baseline = point.flits_per_sec;
                String::new()
            } else {
                let overhead = (baseline / point.flits_per_sec - 1.0) * 100.0;
                overheads.push(overhead);
                format!("  {overhead:+.1}% vs off")
            };
            println!(
                "    {:>6} {:<13} {:>9.0} steps/s {:>12.0} flits/s {:>8.4} s set-up  ({} flit-hops, \
                 {} delivered, {} route attempts, {} route sleeps){versus}",
                point.algorithm,
                mode.tag(),
                point.steps_per_sec,
                point.flits_per_sec,
                point.setup_seconds,
                point.flit_hops,
                point.delivered,
                point.route_attempts,
                point.route_sleeps
            );
            if let Some(registry) = &registry {
                print_telemetry(registry);
            }
            points.push(point);
        }
    }
    let config = Config {
        preset: preset.id.to_owned(),
        offered_load: options.load,
        seed: options.seed,
        warmup_cycles: options.warmup,
        timed_cycles: options.cycles,
        smoke: options.smoke,
        best_of,
    };
    Ok((Report { config, points }, overheads))
}

/// The options that reproduce `recorded`, a report of `preset`: its
/// configuration, its network when the preset does not pin one, and the
/// registry pairing when it holds metrics-on points.
fn options_of(preset: &Preset, recorded: &Report) -> Result<Options, String> {
    let config = &recorded.config;
    if config.preset != preset.id {
        return Err(format!(
            "the file records preset '{}', not '{}'",
            config.preset, preset.id
        ));
    }
    let topo = match recorded.points.first() {
        Some(point) if preset.axes.contains(&Axis::Topo) => {
            Some(cli::parse_topology(&point.topology)?)
        }
        _ => None,
    };
    Ok(Options {
        topo,
        load: config.offered_load,
        cycles: config.timed_cycles,
        warmup: config.warmup_cycles,
        seed: config.seed,
        smoke: config.smoke,
        metrics: recorded.points.iter().any(|p| p.mode == Mode::Metrics),
        ..Options::default()
    })
}

/// Every way `fresh` fails to reproduce the deterministic columns of
/// `recorded`, point by point; empty when it does.
fn count_mismatches(recorded: &Report, fresh: &Report) -> Vec<String> {
    if recorded.points.len() != fresh.points.len() {
        return vec![format!(
            "{} points recorded, {} measured",
            recorded.points.len(),
            fresh.points.len()
        )];
    }
    let mut mismatches = Vec::new();
    for (was, now) in recorded.points.iter().zip(&fresh.points) {
        let name = format!("{} {} {}", was.topology, was.algorithm, was.mode.tag());
        if (&was.topology, &was.algorithm, was.mode) != (&now.topology, &now.algorithm, now.mode) {
            mismatches.push(format!(
                "{name}: measured {} {} {} in its place",
                now.topology,
                now.algorithm,
                now.mode.tag()
            ));
            continue;
        }
        let counts = [
            ("flit_hops", was.flit_hops, now.flit_hops),
            ("delivered", was.delivered, now.delivered),
            ("route_attempts", was.route_attempts, now.route_attempts),
            ("route_sleeps", was.route_sleeps, now.route_sleeps),
        ];
        for (field, recorded, measured) in counts {
            if recorded != measured {
                mismatches.push(format!("{name}: {field} {measured}, recorded {recorded}"));
            }
        }
    }
    mismatches
}

/// `--check`: re-runs the configuration `path` records and requires its
/// deterministic counts back.
fn check(preset: &Preset, path: &str, scratch: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    let recorded = json::from_str(&text)
        .map_err(|e| e.to_string())
        .and_then(|value| Report::from_json(&value))
        .map_err(|e| format!("{path} is not a perf report: {e}"))?;
    let options = options_of(preset, &recorded).map_err(|e| format!("{path}: {e}"))?;
    let (fresh, _) = measure(preset, &options, scratch)?;
    let mismatches = count_mismatches(&recorded, &fresh);
    if !mismatches.is_empty() {
        return Err(format!(
            "counts differ from {path}:\n  {}",
            mismatches.join("\n  ")
        ));
    }
    println!(
        "counts match {path}: {} points of flit_hops, delivered, route_attempts, route_sleeps",
        fresh.points.len()
    );
    Ok(())
}

fn run(preset: &Preset, options: &Options) -> Result<(), String> {
    let scratch = std::env::temp_dir().join(format!("wormsim-perf-{}", std::process::id()));
    if let Some(path) = &options.check {
        let checked = check(preset, path, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        return checked;
    }
    let measured = measure(preset, options, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let (report, overheads) = measured?;
    if let Some(path) = &options.out {
        let mut text = report.to_json();
        text.push('\n');
        atomic_write(path, &text).map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(limit) = options.max_overhead_pct {
        let worst = check_overheads(&overheads, limit)
            .map_err(|why| format!("observer overhead guard FAILED: {why}"))?;
        println!("observer overhead guard passed: worst {worst:+.1}% <= {limit}%");
    }
    Ok(())
}

fn main() {
    let options: Options = cli::parse_or_exit();
    let Some(preset) = options.preset.filter(|_| !options.list) else {
        for preset in PRESETS {
            println!("{:<11}{}", preset.id, preset.about);
        }
        return;
    };
    if let Err(message) = run(preset, &options) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim::observe::json;
    use wormsim::Topology;

    fn preset(id: &str) -> &'static Preset {
        PRESETS.iter().find(|p| p.id == id).expect("preset exists")
    }

    fn parse(id: &str, args: &[&str]) -> Result<Options, String> {
        let argv = std::iter::once(id).chain(args.iter().copied());
        Ok(cli::parse(argv.map(str::to_owned))?.expect("no --help"))
    }

    #[test]
    fn rejects_bad_arguments() {
        for id in ["engine", "scaling"] {
            assert!(parse(id, &["--load", "0"]).is_err());
            assert!(parse(id, &["--load", "heavy"]).is_err());
            assert!(parse(id, &["--load", "0.1,0.2"]).is_err());
            assert!(parse(id, &["--cycles", "-5"]).is_err());
            assert!(parse(id, &["--cycles"]).is_err());
            assert!(parse(id, &["--warmup", "soon"]).is_err());
            assert!(parse(id, &["--turbo"]).is_err());
            assert!(parse(id, &["--load", "0.4", "--cycles", "100"]).is_ok());
            assert!(parse(id, &["--max-overhead-pct", "0"]).is_err());
            assert!(parse(id, &["--max-overhead-pct", "lots"]).is_err());
            assert!(parse(id, &["--smoke"]).is_ok());
            assert!(parse(id, &["--check"]).is_err());
            assert!(parse(id, &["--check", "BENCH.json", "--smoke"]).is_err());
            assert!(parse(id, &["--seed", "7", "--check", "BENCH.json"]).is_err());
            assert!(parse(id, &["--check", "BENCH.json"]).is_ok());
        }
    }

    #[test]
    fn zero_timed_cycles_are_a_usage_error() {
        // 0 cycles / 0 seconds is NaN: the old bins wrote it to the file.
        for id in ["engine", "scaling"] {
            assert!(parse(id, &["--cycles", "0"]).is_err());
            assert!(parse(id, &["--smoke", "--cycles", "0"]).is_err());
            assert_eq!(parse(id, &["--warmup", "0"]).unwrap().warmup, 0);
        }
    }

    #[test]
    fn metrics_flags_parse() {
        let options = parse("engine", &["--metrics", "--max-overhead-pct", "25"]).unwrap();
        assert!(options.metrics);
        assert_eq!(options.max_overhead_pct, Some(25.0));
        let defaults = parse("engine", &[]).unwrap();
        assert!(!defaults.metrics);
        assert_eq!(defaults.max_overhead_pct, None);
        assert_eq!(defaults.modes(preset("engine")), [Mode::Off]);
        // Either flag pairs every network with a registry run.
        assert_eq!(options.modes(preset("engine")), [Mode::Off, Mode::Metrics]);
        let guard = parse("scaling", &["--max-overhead-pct", "25"]).unwrap();
        assert_eq!(guard.modes(preset("scaling")), [Mode::Off, Mode::Metrics]);
        assert!(parse("scaling", &["--metrics"]).unwrap().metrics);
    }

    #[test]
    fn presets_keep_the_defaults_of_the_bins_they_replaced() {
        let engine = parse("engine", &[]).unwrap();
        assert_eq!(
            (engine.load, engine.warmup, engine.cycles),
            (0.3, 3_000, 20_000)
        );
        assert_eq!(engine.topology(), Topology::torus(&[16, 16]));
        assert_eq!((preset("engine").networks)(&engine).len(), 6);
        let scaling = parse("scaling", &[]).unwrap();
        assert_eq!(
            (scaling.load, scaling.warmup, scaling.cycles),
            (0.3, 2_000, 10_000)
        );
        assert_eq!((engine.seed, scaling.seed), (1993, 1993));
    }

    #[test]
    fn smoke_shrinks_the_sweep() {
        let sizes = |options: &Options| -> Vec<Topology> {
            let mut sizes: Vec<Topology> = (preset("scaling").networks)(options)
                .iter()
                .map(|e| e.sim().topology.clone())
                .collect();
            sizes.dedup();
            sizes
        };
        let smoke = parse("scaling", &["--smoke"]).unwrap();
        assert!(smoke.cycles <= 1_500 && smoke.warmup <= 300);
        let small = sizes(&smoke);
        assert_eq!(small.len(), 2);
        assert!(small.iter().any(|t| t.num_dims() == 3));

        let full = sizes(&parse("scaling", &[]).unwrap());
        assert!(full.len() >= 4);
        // The acceptance bar: at least one >= 4096-node size, in 2D and 3D.
        assert!(full
            .iter()
            .any(|t| t.num_nodes() >= 4096 && t.num_dims() == 2));
        assert!(full
            .iter()
            .any(|t| t.num_nodes() >= 4096 && t.num_dims() == 3));
        // Every preset takes the cap, not only the one with smoke sizes.
        let engine = parse("engine", &["--smoke", "--cycles", "900"]).unwrap();
        assert_eq!((engine.warmup, engine.cycles), (300, 900));
    }

    #[test]
    fn a_preset_that_pins_its_sizes_refuses_topo() {
        let error = parse("scaling", &["--topo", "torus:8x8"]).err().unwrap();
        assert!(
            error.contains("scaling") && error.contains("--topo"),
            "{error}"
        );
        for id in ["engine", "figures", "observers"] {
            let options = parse(id, &["--topo", "torus:8x8"]).unwrap();
            assert_eq!(options.topology(), Topology::torus(&[8, 8]), "{id}");
            let networks = (preset(id).networks)(&options);
            assert!(!networks.is_empty(), "{id}");
            assert!(networks
                .iter()
                .all(|e| e.sim().topology == options.topology()));
        }
        assert!(parse("engine", &["--topo", "ring:9"]).is_err());
    }

    #[test]
    fn list_ids_are_unique_and_every_row_is_well_formed() {
        for (i, preset) in PRESETS.iter().enumerate() {
            assert!(
                PRESETS[..i].iter().all(|p| p.id != preset.id),
                "{}",
                preset.id
            );
            assert!(!preset.id.starts_with('-') && !preset.about.is_empty());
            assert_eq!(preset.modes.first(), Some(&Mode::Off), "baseline first");
            assert!(preset.cycles > 0 && preset.load > 0.0 && preset.load <= 1.0);
        }
    }

    #[test]
    fn the_overhead_guard_fails_unless_every_pair_was_measured_and_within_the_limit() {
        assert_eq!(check_overheads(&[5.0, -3.0], 40.0), Ok(5.0));
        assert!(check_overheads(&[5.0, 41.0], 40.0).is_err());
        // What `f64::max` would skip: the old guard passed with "-inf%".
        assert!(check_overheads(&[], 40.0).is_err());
        assert!(check_overheads(&[f64::NAN], 40.0).is_err());
        assert!(check_overheads(&[5.0, f64::NAN], 40.0).is_err());
        assert!(check_overheads(&[f64::NEG_INFINITY], 40.0).is_err());
        assert!(check_overheads(&[f64::INFINITY], 40.0).is_err());
    }

    #[test]
    fn a_measured_report_is_finite_paired_and_reads_back_through_the_codec() {
        let options = parse(
            "observers",
            &[
                "--topo",
                "torus:4x4",
                "--warmup",
                "50",
                "--cycles",
                "200",
                "--metrics",
            ],
        )
        .unwrap();
        let scratch =
            std::env::temp_dir().join(format!("wormsim-perf-unit-{}", std::process::id()));
        let (report, overheads) = measure(preset("observers"), &options, &scratch).unwrap();
        std::fs::remove_dir_all(&scratch).expect("the JSONL modes wrote under the scratch dir");
        assert_eq!(report.config.best_of, PAIRED_REPEATS);
        let modes: Vec<Mode> = report.points.iter().map(|p| p.mode).collect();
        assert_eq!(modes, options.modes(preset("observers")));
        assert_eq!(overheads.len(), modes.len() - 1);
        assert!(overheads.iter().all(|o| o.is_finite()));
        for point in &report.points {
            assert!(point.steps_per_sec.is_finite() && point.steps_per_sec > 0.0);
            assert!(point.flits_per_sec.is_finite() && point.wall_seconds > 0.0);
            assert!(point.setup_seconds.is_finite() && point.setup_seconds >= 0.0);
            // Observers watch; they do not perturb the simulation.
            assert_eq!(point.flit_hops, report.points[0].flit_hops);
            assert_eq!(point.delivered, report.points[0].delivered);
            assert_eq!(point.route_attempts, report.points[0].route_attempts);
        }
        assert!(report.points[0].flit_hops > 0);
        let text = report.to_json();
        let back = Report::from_json(&json::from_str(&text).expect("valid JSON")).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn check_passes_on_its_own_report_and_fails_on_a_tampered_count() {
        let options = parse(
            "engine",
            &["--topo", "torus:4x4", "--warmup", "50", "--cycles", "300"],
        )
        .unwrap();
        let scratch =
            std::env::temp_dir().join(format!("wormsim-perf-check-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let (report, _) = measure(preset("engine"), &options, &scratch).unwrap();
        let file = scratch.join("report.json");
        let path = file.to_str().unwrap();
        std::fs::write(&file, report.to_json()).unwrap();
        assert_eq!(check(preset("engine"), path, &scratch), Ok(()));
        // A file written before `setup_seconds` existed still checks.
        let mut unset = report.to_json();
        while let Some(at) = unset.find("\"setup_seconds\":") {
            let end = at + unset[at..].find(',').unwrap() + 1;
            unset.replace_range(at..end, "");
        }
        let old = Report::from_json(&json::from_str(&unset).unwrap()).unwrap();
        assert!(old.points.iter().all(|p| p.setup_seconds == 0.0));
        std::fs::write(&file, unset).unwrap();
        assert_eq!(check(preset("engine"), path, &scratch), Ok(()));
        let other = check(preset("scaling"), path, &scratch).unwrap_err();
        assert!(other.contains("preset 'engine'"), "{other}");

        let mut tampered = Report::from_json(&json::from_str(&report.to_json()).unwrap()).unwrap();
        tampered.points[2].route_sleeps += 1;
        std::fs::write(&file, tampered.to_json()).unwrap();
        let error = check(preset("engine"), path, &scratch).unwrap_err();
        let algorithm = &report.points[2].algorithm;
        assert!(
            error.contains(&format!("{algorithm} off: route_sleeps")),
            "{error}"
        );
        assert_eq!(error.lines().count(), 2, "one mismatch: {error}");
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
