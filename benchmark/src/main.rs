//! `wormsim-benchmark` — one harness for the simulator's end-to-end and
//! per-layer numbers. See `README.md` in this directory.
//!
//! ```text
//! wormsim-benchmark run     [--seed N] [--seconds S] [--workload NAME]... [--trace] [--smoke] [--out DIR]
//! wormsim-benchmark measure --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! wormsim-benchmark compare A.json B.json
//! ```
//!
//! `measure` runs one pass of one workload in this process and ends its
//! standard output with the one-line JSON result the benchmark contract
//! defines; `run` starts one `measure` child per workload and pass.

mod compare;
mod engine;
mod probes;
mod report;
mod run;
mod spec;
mod stats;
mod sweep;
mod sys;
mod trace;
mod workers;

use engine::EngineWorkload;
use spec::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use wormsim::topology::Topology;

const USAGE: &str = "usage:
  wormsim-benchmark run     [--seed N] [--seconds S] [--workload NAME]... [--trace] [--smoke] [--out DIR]
  wormsim-benchmark measure --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  wormsim-benchmark compare A.json B.json

workloads: fig3_local, fig3_remote, cube16_engine, lowload_engine
  --seed N      the only source of randomness (default 1993)
  --seconds S   measuring window per pass (default 20; 1 with --smoke)
  --trace       also run the traced pass that yields the per-layer metrics
  --smoke       small topologies and plans, for tests
  --out DIR     scratch and result directory (default benchmark/out)";

/// Options shared by `run` and `measure`.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub workloads: Vec<Workload>,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// The two network sizes everything is measured on: the paper's 16x16
/// torus and the 16^3 cube, or their `--smoke` stand-ins.
pub struct Scale {
    pub smoke: bool,
    pub plane: Topology,
    pub cube: Topology,
}

impl Scale {
    pub fn new(smoke: bool) -> Scale {
        Scale {
            smoke,
            plane: Topology::torus(if smoke { &[8, 8] } else { &[16, 16] }),
            cube: Topology::k_ary_n_cube(if smoke { 4 } else { 16 }, 3),
        }
    }
}

fn parse_options(args: &[String], trace_takes_value: bool) -> Result<Options, String> {
    let mut options = Options {
        seed: 1993,
        seconds: 0.0,
        workloads: Vec::new(),
        trace: false,
        smoke: false,
        out: sys::bench_dir().join("out"),
    };
    let mut seconds = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => {
                let v = value()?;
                options.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad window '{v}' (expected seconds > 0)"))?,
                );
            }
            "--workload" => options.workloads.push(Workload::parse(value()?)?),
            "--trace" if trace_takes_value => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--trace" => options.trace = true,
            "--smoke" => options.smoke = true,
            "--out" => options.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    options.seconds = seconds.unwrap_or(if options.smoke { 1.0 } else { 20.0 });
    Ok(options)
}

/// One pass of one workload in this process.
fn measure(options: &Options) -> Result<ExitCode, String> {
    let [workload] = options.workloads[..] else {
        return Err("measure takes exactly one --workload".to_owned());
    };
    let dir = options.out.join(workload.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let tracer = trace::Tracer::new(workload.name(), options.trace);
    let scale = Scale::new(options.smoke);

    let sweep = |backend| sweep::measure(backend, options, &scale, &dir, &tracer);
    let engine = |workload: EngineWorkload| {
        let mut outcome = engine::measure(&workload, options, &tracer);
        if options.trace {
            probes::lower_layers(&scale, options.seed, &tracer, &mut outcome);
        }
        Ok(outcome)
    };
    let mut outcome = match workload {
        Workload::Fig3Local => sweep(sweep::Backend::Local),
        Workload::Fig3Remote => sweep(sweep::Backend::Remote),
        Workload::Cube16Engine => engine(EngineWorkload::cube16(&scale)),
        Workload::LowloadEngine => engine(EngineWorkload::lowload(&scale)),
    }?;

    let (decls, pass) = if options.trace {
        (spec::per_layer(), "traced")
    } else {
        (spec::end_to_end(), "timed")
    };
    outcome.zero_fill(&decls);
    println!(
        "{} ({pass} pass, seed {}, window {} s{})",
        workload.name(),
        options.seed,
        options.seconds,
        if options.smoke { ", smoke" } else { "" }
    );
    outcome.print_table(&decls);
    if options.trace {
        let path = options.out.join(format!("{}.trace.jsonl", workload.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  spans (self time = duration minus direct children), in {}:",
            path.display()
        );
        for (name, totals) in tracer.totals() {
            println!(
                "    {:<28} n={:<5} total {:>10.4} s  self {:>10.4} s",
                name, totals.count, totals.total_s, totals.self_s
            );
        }
    }
    println!(
        "  sim_digest {} ({})",
        outcome.sim_digest,
        run::digest_verdict(workload, options, &outcome.sim_digest)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!(
        "  attempted {} failed {} fail_frac {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted as f64
    );
    let detail = options.out.join(format!("{}.{pass}.json", workload.name()));
    wormsim::observe::atomic_write(&detail, outcome.detail_json(&decls))
        .map_err(|e| format!("{}: {e}", detail.display()))?;
    println!("{}", outcome.result_line(&decls));
    Ok(ExitCode::SUCCESS)
}

fn worker(args: &[String]) -> Result<ExitCode, String> {
    let threads = match args {
        [flag, n] if flag == "--threads" => n.parse::<usize>().ok().filter(|n| *n > 0),
        _ => None,
    }
    .ok_or("usage: wormsim-benchmark worker --threads N")?;
    workers::serve_forever(threads).map_err(|e| format!("worker: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Outer error: the command line was wrong. Inner error: the work failed.
    let outcome = match args.split_first() {
        Some((command, rest)) => match command.as_str() {
            "run" => parse_options(rest, false).map(|o| run::run(&o)),
            "measure" => parse_options(rest, true).map(|o| measure(&o)),
            "compare" => Ok(compare::compare(rest)),
            // Internal: the loopback worker `fig3_remote` spawns.
            "worker" => Ok(worker(rest)),
            other => Err(format!("unknown command '{other}'")),
        },
        None => Err("missing command".to_owned()),
    };
    match outcome {
        Ok(Ok(code)) => code,
        Ok(Err(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
