//! General-purpose sweep CLI: compare any set of algorithms on any
//! topology/traffic/switching combination, with the same reporting
//! pipeline the figure regenerators use.
//!
//! ```text
//! sweep [--algos all|phop,ecube,...]
//!       [--traffic uniform|hotspot:15,15@0.04|local:3|transpose|bitrev|complement]
//!       [--loads 0.1:1.0:0.1 | 0.1,0.5,0.9] [--switching wh|wh:4|vct|saf]
//!       [harness flags, see `SweepOptions::USAGE`]
//! ```
//!
//! The harness flags are the ones every sweep binary shares: `--topo`,
//! the schedule and seed, `--threads`/`--backend remote`, telemetry
//! (`--observe`, docs/OBSERVABILITY.md), budgets, the journal and
//! `--resume` (docs/ROBUSTNESS.md), and supervision (docs/DISTRIBUTION.md).
//! Completed points are journaled to `DIR/sweep.journal.jsonl`; exit
//! status is 0 whole, 1 error, 2 usage, 4 quarantined points,
//! 130 interrupted.
//!
//! Examples:
//!
//! ```text
//! sweep --topo mesh:16x16 --algos ecube,2pn --loads 0.1:0.6:0.1 --quick
//! sweep --traffic hotspot:8,8@0.1 --algos extended --switching vct
//! ```

use wormsim::presets::FigureSpec;
use wormsim_bench::{
    cli, print_figure, retain_runnable, run_figure_or_exit, write_csv, BackendChoice, SweepOptions,
};

fn usage() -> String {
    format!(
        "usage: sweep [--algos A] [--traffic W] [--loads L] [--switching S] {}",
        SweepOptions::USAGE
    )
}

/// Parses the sweep command line (program name already stripped): the
/// sweep's own axis flags here, every harness flag through
/// [`SweepOptions::apply_flag`].
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<Option<(FigureSpec, SweepOptions)>, String> {
    let mut spec = FigureSpec {
        id: "sweep".to_owned(),
        title: "Custom sweep".to_owned(),
        topology: wormsim::presets::paper_topology(),
        traffic: wormsim::TrafficConfig::Uniform,
        switching: wormsim::Switching::wormhole(),
        loads: wormsim::presets::paper_loads(),
        algorithms: wormsim::presets::paper_algorithms().to_vec(),
    };
    let mut options = SweepOptions::default();

    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--algos" => spec.algorithms = cli::parse_algorithms(&value("--algos")?)?,
            "--traffic" => spec.traffic = cli::parse_traffic(&value("--traffic")?)?,
            "--loads" => spec.loads = cli::parse_loads(&value("--loads")?)?,
            "--switching" => spec.switching = cli::parse_switching(&value("--switching")?)?,
            "--help" | "-h" => return Ok(None),
            flag => {
                if !options.apply_flag(flag, &mut args)? {
                    return Err(format!("unknown argument '{flag}'"));
                }
            }
        }
    }
    options.finish()?;
    spec.topology = options.topology_or_paper();
    Ok(Some((spec, options)))
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

    spec.title = format!(
        "{} on {} under {} ({:?})",
        spec.algorithms
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join("/"),
        spec.topology,
        spec.traffic,
        spec.switching,
    );

    let points = spec.algorithms.len() * spec.loads.len();
    match &options.backend {
        BackendChoice::Local => {
            eprintln!("running {points} points on {} threads...", options.threads);
        }
        BackendChoice::Remote { workers } => {
            eprintln!(
                "running {points} points on {} remote worker(s)...",
                workers.len()
            );
        }
    }
    let results = run_figure_or_exit(&spec, &options);
    print_figure(&spec, &results);
    match write_csv(&spec.id, &results, &options.out_dir) {
        Ok(path) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<(FigureSpec, SweepOptions)>, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn axis_and_harness_flags_parse_together() {
        let Ok(Some((spec, options))) = parse(&[
            "--topo",
            "mesh:8x8",
            "--loads",
            "0.1,0.2",
            "--seed",
            "11",
            "--threads",
            "2",
        ]) else {
            panic!("expected a run invocation");
        };
        assert_eq!(spec.topology, wormsim::topology::Topology::mesh(&[8, 8]));
        assert_eq!(spec.loads, vec![0.1, 0.2]);
        assert_eq!(options.seed, 11);
        assert_eq!(options.threads, 2);
        let Ok(Some((spec, _))) = parse(&[]) else {
            panic!("expected a run invocation");
        };
        assert_eq!(spec.topology, wormsim::presets::paper_topology());
    }

    #[test]
    fn harness_flag_errors_surface_through_the_delegation() {
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--metrics"]).is_err(), "--metrics needs --observe");
        assert!(parse(&["--salvage"]).is_err(), "--salvage needs --resume");
        assert!(parse(&["--backend", "remote"]).is_err(), "needs --worker");
    }

    #[test]
    fn missing_values_and_unknown_flags_are_usage_errors() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--loads"]).is_err());
        assert!(parse(&["--hyperdrive"]).is_err());
    }

    #[test]
    fn help_short_circuits() {
        assert!(matches!(parse(&["--help"]), Ok(None)));
    }
}
