//! Engine-core perf regression bench: steps/sec on the default paper
//! configuration (16×16 torus, uniform traffic, 16-flit messages) at a fixed
//! offered load, recorded to JSON so the perf trajectory is tracked PR over
//! PR (see `BENCH_engine.json` at the repository root). `--topo` retargets
//! the bench at another network (e.g. `--topo 8^3`).
//!
//! ```text
//! engine_bench [--topo T] [--load F] [--cycles N] [--warmup N] [--seed N] [--out FILE]
//!              [--metrics] [--max-overhead-pct P]
//! ```
//!
//! Each algorithm's line also prints the engine's route-phase work counters
//! (`route_attempts`, `route_sleeps`; stdout only, not in the JSON).
//!
//! `--metrics` re-runs each algorithm with the deep-telemetry registry
//! installed and prints latency percentiles plus the engine-phase
//! breakdown; `--max-overhead-pct P` (implies the paired runs) fails the
//! bench (exit 1) if any algorithm's metrics-enabled throughput drops
//! more than `P` percent below its metrics-disabled run — the CI guard
//! that instrumentation stays off the disabled hot path. The JSON report
//! always records the metrics-disabled numbers, so the perf trajectory
//! in `BENCH_engine.json` is comparable across PRs.

use wormsim::observe::{MetricsRegistry, PHASE_NAMES};
use wormsim::routing::AlgorithmKind;
use wormsim::topology::Topology;
use wormsim_bench::{cli, time_engine, EngineTiming};

const USAGE: &str = "usage: engine_bench [--topo T] [--load F] [--cycles N] [--warmup N] \
                     [--seed N] [--out FILE] [--metrics] [--max-overhead-pct P]";

struct Options {
    topo: Topology,
    load: f64,
    cycles: u64,
    warmup: u64,
    seed: u64,
    out: Option<String>,
    metrics: bool,
    max_overhead_pct: Option<f64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            topo: Topology::torus(&[16, 16]),
            load: 0.3,
            cycles: 20_000,
            warmup: 3_000,
            seed: 1993,
            out: None,
            metrics: false,
            max_overhead_pct: None,
        }
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options::default();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--topo" => options.topo = cli::parse_topology(&value("--topo")?)?,
            "--load" => {
                let v = value("--load")?;
                options.load = v
                    .parse::<f64>()
                    .ok()
                    .filter(|l| (0.0..=1.0).contains(l) && *l > 0.0)
                    .ok_or_else(|| format!("bad load '{v}' (expected 0 < load <= 1)"))?;
            }
            "--cycles" => options.cycles = cli::parse_seed(&value("--cycles")?)?,
            "--warmup" => options.warmup = cli::parse_seed(&value("--warmup")?)?,
            "--seed" => options.seed = cli::parse_seed(&value("--seed")?)?,
            "--out" => options.out = Some(value("--out")?),
            "--metrics" => options.metrics = true,
            "--max-overhead-pct" => {
                let v = value("--max-overhead-pct")?;
                options.max_overhead_pct = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|p| p.is_finite() && *p > 0.0)
                        .ok_or_else(|| format!("bad percentage '{v}' (expected > 0)"))?,
                );
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(options)
}

fn measure(kind: AlgorithmKind, options: &Options, with_metrics: bool) -> EngineTiming {
    time_engine(
        &options.topo,
        kind,
        options.load,
        options.seed,
        options.warmup,
        options.cycles,
        with_metrics,
    )
}

/// Best-of-N by wall clock. The simulation is deterministic — every repeat
/// counts the same flit-hops — so the minimum wall time is the least-noisy
/// throughput estimate on a shared machine, which the paired overhead
/// comparison needs (single-shot short runs swing tens of percent).
fn measure_best(
    kind: AlgorithmKind,
    options: &Options,
    with_metrics: bool,
    n: u32,
) -> EngineTiming {
    let mut best = measure(kind, options, with_metrics);
    for _ in 1..n {
        let m = measure(kind, options, with_metrics);
        if m.wall_seconds < best.wall_seconds {
            best = m;
        }
    }
    best
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

fn json_report(options: &Options, results: &[EngineTiming]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"topology\": \"{}\", \"traffic\": \"uniform\", \
         \"offered_load\": {}, \"message_flits\": 16, \"seed\": {}, \"warmup_cycles\": {}, \
         \"timed_cycles\": {}}},\n",
        options.topo.label(),
        options.load,
        options.seed,
        options.warmup,
        options.cycles
    ));
    out.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"steps_per_sec\": {:.0}, \"flits_per_sec\": {:.0}, \
             \"wall_seconds\": {:.4}, \"flit_hops\": {}, \"delivered\": {}}}{}\n",
            m.algorithm,
            m.steps_per_sec,
            m.flits_per_sec,
            m.wall_seconds,
            m.flit_hops,
            m.delivered,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    println!(
        "engine_bench: {}, uniform traffic, load {:.2}, {} timed cycles",
        options.topo, options.load, options.cycles
    );
    let paired = options.metrics || options.max_overhead_pct.is_some();
    let mut results = Vec::new();
    let mut worst_overhead = f64::NEG_INFINITY;
    // Paired mode exists to compare the two modes, so both sides get the
    // best-of-3 noise treatment; the plain trajectory run stays single-shot
    // (matching how every committed BENCH_engine.json was produced).
    let repeats = if paired { 3 } else { 1 };
    for kind in AlgorithmKind::all() {
        let m = measure_best(kind, &options, false, repeats);
        println!(
            "  {:>6}: {:>10.0} steps/s  {:>12.0} flits/s  ({} flit-hops, {} delivered, \
             {} route attempts, {} route sleeps)",
            m.algorithm,
            m.steps_per_sec,
            m.flits_per_sec,
            m.flit_hops,
            m.delivered,
            m.route_attempts,
            m.route_sleeps
        );
        if paired {
            let enabled = measure_best(kind, &options, true, repeats);
            let overhead = (m.flits_per_sec / enabled.flits_per_sec - 1.0) * 100.0;
            worst_overhead = worst_overhead.max(overhead);
            println!(
                "          with metrics: {:>10.0} steps/s  {:>12.0} flits/s  \
                 ({overhead:+.1}% overhead)",
                enabled.steps_per_sec, enabled.flits_per_sec
            );
            if let Some(registry) = &enabled.registry {
                print_telemetry(registry);
            }
        }
        results.push(m);
    }
    let mean: f64 = results.iter().map(|m| m.steps_per_sec).sum::<f64>() / results.len() as f64;
    let mean_flits: f64 =
        results.iter().map(|m| m.flits_per_sec).sum::<f64>() / results.len() as f64;
    println!("  mean: {mean:.0} steps/s, {mean_flits:.0} flits/s");

    if let Some(path) = &options.out {
        let report = json_report(&options, &results);
        if let Err(e) = wormsim::observe::atomic_write(std::path::Path::new(path), &report) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }

    if let Some(limit) = options.max_overhead_pct {
        if worst_overhead > limit {
            eprintln!(
                "metrics overhead guard FAILED: worst algorithm slowed {worst_overhead:.1}% \
                 with metrics enabled (limit {limit}%)"
            );
            std::process::exit(1);
        }
        println!("metrics overhead guard passed: worst {worst_overhead:.1}% <= {limit}%");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_arguments() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| (*s).to_owned()));
        assert!(parse(&["--load", "0"]).is_err());
        assert!(parse(&["--load", "heavy"]).is_err());
        assert!(parse(&["--cycles", "-5"]).is_err());
        assert!(parse(&["--cycles"]).is_err());
        assert!(parse(&["--turbo"]).is_err());
        assert!(parse(&["--load", "0.4", "--cycles", "100"]).is_ok());
        assert!(parse(&["--max-overhead-pct", "0"]).is_err());
        assert!(parse(&["--max-overhead-pct", "lots"]).is_err());
    }

    #[test]
    fn metrics_flags_parse() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| (*s).to_owned()));
        let options = parse(&["--metrics", "--max-overhead-pct", "25"]).unwrap();
        assert!(options.metrics);
        assert_eq!(options.max_overhead_pct, Some(25.0));
        let defaults = parse(&[]).unwrap();
        assert!(!defaults.metrics);
        assert_eq!(defaults.max_overhead_pct, None);
    }
}
