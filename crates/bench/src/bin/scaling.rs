//! Network-size scaling curve: engine throughput (steps/sec and flits/sec)
//! at a fixed offered load as the topology grows from the paper's 16×16
//! torus to 64×64 and into three dimensions (8³, 16³). Records
//! `BENCH_scaling.json` so the large-network perf trajectory is tracked PR
//! over PR, alongside `BENCH_engine.json` for the 16×16 hot path.
//!
//! ```text
//! scaling [--load F] [--cycles N] [--warmup N] [--seed N] [--out FILE] [--smoke] [--metrics]
//! ```
//!
//! `--smoke` shrinks the sweep to one small 3D cube and one 32×32 point
//! with short runs — the CI-budget variant. `--metrics` installs the
//! deep-telemetry registry during the timed run and folds latency
//! percentiles plus the engine-phase breakdown into the printed lines and
//! the JSON report (at the cost of the instrumented hot path).

use wormsim::observe::PHASE_NAMES;
use wormsim::routing::AlgorithmKind;
use wormsim::topology::Topology;
use wormsim_bench::{cli, time_engine, EngineTiming};

const USAGE: &str = "usage: scaling [--load F] [--cycles N] [--warmup N] [--seed N] [--out FILE] \
                     [--smoke] [--metrics]";

/// One deterministic (ecube) and one adaptive (nbc) algorithm: enough to
/// see how routing cost scales without multiplying the sweep by six.
const ALGORITHMS: [AlgorithmKind; 2] = [AlgorithmKind::Ecube, AlgorithmKind::NegativeHopBonusCards];

struct Options {
    load: f64,
    cycles: u64,
    warmup: u64,
    seed: u64,
    out: Option<String>,
    smoke: bool,
    metrics: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            load: 0.3,
            cycles: 10_000,
            warmup: 2_000,
            seed: 1993,
            out: None,
            smoke: false,
            metrics: false,
        }
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options::default();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
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
            "--smoke" => options.smoke = true,
            "--metrics" => options.metrics = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if options.smoke {
        // CI-budget variant: tiny runs, one 3D point and one 2D point.
        options.cycles = options.cycles.min(1_500);
        options.warmup = options.warmup.min(300);
    }
    Ok(options)
}

/// The sweep: 2D tori from the paper's size up to 4096 nodes, then the
/// 3D cubes at matching node counts (8³ = 512, 16³ = 4096).
fn sweep_sizes(options: &Options) -> Vec<Topology> {
    if options.smoke {
        vec![Topology::k_ary_n_cube(4, 3), Topology::torus(&[32, 32])]
    } else {
        vec![
            Topology::torus(&[8, 8]),
            Topology::torus(&[16, 16]),
            Topology::torus(&[32, 32]),
            Topology::torus(&[64, 64]),
            Topology::k_ary_n_cube(8, 3),
            Topology::k_ary_n_cube(16, 3),
        ]
    }
}

fn measure(topo: &Topology, kind: AlgorithmKind, options: &Options) -> EngineTiming {
    time_engine(
        topo,
        kind,
        options.load,
        options.seed,
        options.warmup,
        options.cycles,
        options.metrics,
    )
}

fn json_report(options: &Options, sizes: &[(Topology, Vec<EngineTiming>)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"traffic\": \"uniform\", \"offered_load\": {}, \
         \"message_flits\": 16, \"seed\": {}, \"warmup_cycles\": {}, \"timed_cycles\": {}, \
         \"smoke\": {}}},\n",
        options.load, options.seed, options.warmup, options.cycles, options.smoke
    ));
    out.push_str("  \"sizes\": [\n");
    for (i, (topo, results)) in sizes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"topology\": \"{}\", \"nodes\": {}, \"results\": [\n",
            topo.label(),
            topo.num_nodes()
        ));
        for (j, m) in results.iter().enumerate() {
            // Telemetry rides along only when --metrics installed a
            // registry, so the metrics-off JSON stays byte-compatible.
            let telemetry = m.registry.as_deref().map_or_else(String::new, |registry| {
                let latency = &registry.latency;
                let phases: Vec<String> = PHASE_NAMES
                    .iter()
                    .zip(registry.phase_nanos.iter())
                    .map(|(name, &nanos)| format!("\"{name}\": {nanos}"))
                    .collect();
                format!(
                    ", \"latency_p50\": {}, \"latency_p95\": {}, \"latency_p99\": {}, \
                     \"phase_nanos\": {{{}}}",
                    latency.quantile(0.50),
                    latency.quantile(0.95),
                    latency.quantile(0.99),
                    phases.join(", ")
                )
            });
            out.push_str(&format!(
                "      {{\"algorithm\": \"{}\", \"steps_per_sec\": {:.0}, \
                 \"flits_per_sec\": {:.0}, \"wall_seconds\": {:.4}, \"flit_hops\": {}, \
                 \"delivered\": {}{}}}{}\n",
                m.algorithm,
                m.steps_per_sec,
                m.flits_per_sec,
                m.wall_seconds,
                m.flit_hops,
                m.delivered,
                telemetry,
                if j + 1 == results.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == sizes.len() { "" } else { "," }
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
        "scaling: uniform traffic, load {:.2}, {} timed cycles per point{}",
        options.load,
        options.cycles,
        if options.smoke { " (smoke)" } else { "" }
    );
    let mut sizes = Vec::new();
    for topo in sweep_sizes(&options) {
        println!("  {} ({} nodes):", topo, topo.num_nodes());
        let mut results = Vec::new();
        for kind in ALGORITHMS {
            let m = measure(&topo, kind, &options);
            println!(
                "    {:>6}: {:>9.0} steps/s  {:>12.0} flits/s  ({} flit-hops, {} delivered)",
                m.algorithm, m.steps_per_sec, m.flits_per_sec, m.flit_hops, m.delivered
            );
            if let Some(registry) = m.registry.as_deref() {
                println!(
                    "            latency p50/p95/p99: {}/{}/{} cycles",
                    registry.latency.quantile(0.50),
                    registry.latency.quantile(0.95),
                    registry.latency.quantile(0.99)
                );
            }
            results.push(m);
        }
        sizes.push((topo, results));
    }

    if let Some(path) = &options.out {
        let report = json_report(&options, &sizes);
        if let Err(e) = wormsim::observe::atomic_write(std::path::Path::new(path), &report) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_arguments() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| (*s).to_owned()));
        assert!(parse(&["--load", "0"]).is_err());
        assert!(parse(&["--cycles"]).is_err());
        assert!(parse(&["--turbo"]).is_err());
        assert!(parse(&["--smoke"]).is_ok());
        assert!(parse(&["--metrics"]).unwrap().metrics);
        assert!(!parse(&[]).unwrap().metrics);
    }

    #[test]
    fn smoke_shrinks_the_sweep() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| (*s).to_owned())).unwrap();
        let smoke = parse(&["--smoke"]);
        assert!(smoke.cycles <= 1_500 && smoke.warmup <= 300);
        let sizes = sweep_sizes(&smoke);
        assert_eq!(sizes.len(), 2);
        assert!(sizes.iter().any(|t| t.num_dims() == 3));

        let full = parse(&[]);
        let sizes = sweep_sizes(&full);
        assert!(sizes.len() >= 4);
        // The acceptance bar: at least one >= 4096-node size, in 2D and 3D.
        assert!(sizes
            .iter()
            .any(|t| t.num_nodes() >= 4096 && t.num_dims() == 2));
        assert!(sizes
            .iter()
            .any(|t| t.num_nodes() >= 4096 && t.num_dims() == 3));
    }
}
