//! The `perf` bin's preset table and command line: which raw
//! [`Network`](wormsim::engine::Network) runs a preset times, and under
//! which observers. The timing itself lives in the bin.

use crate::cli::{self, Flag};
use crate::study::Axis;
use wormsim::observe::json_tags;
use wormsim::AlgorithmKind::{self, Ecube, NegativeHopBonusCards};
use wormsim::{presets, Experiment, MeasurementSchedule, Topology};

/// `--smoke` caps: a preset finishes inside a CI step.
const SMOKE_WARMUP: u64 = 300;
const SMOKE_CYCLES: u64 = 1_500;

/// What observes the network during the timed cycles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// Nothing: the baseline every other mode's overhead is measured from.
    Off,
    /// The deep-telemetry registry.
    Metrics,
    /// The in-memory trace ring.
    RingTrace,
    /// A JSONL sample stream at stride 1000.
    JsonlSamples,
    /// A JSONL trace of every event.
    JsonlTrace,
}

json_tags!(Mode {
    Off = "off",
    Metrics = "metrics",
    RingTrace = "ring_trace",
    JsonlSamples = "jsonl_samples",
    JsonlTrace = "jsonl_trace",
});

/// One family of timed runs: a row of [`PRESETS`].
pub struct Preset {
    /// The name after `perf` on the command line.
    pub id: &'static str,
    /// What the preset measures, in one line (`perf --list`).
    pub about: &'static str,
    /// The defaults of `--load`, `--warmup` and `--cycles`.
    pub load: f64,
    pub warmup: u64,
    pub cycles: u64,
    /// The axis flags the preset takes: [`Axis::Topo`], unless it pins its
    /// own sizes.
    pub axes: &'static [Axis],
    /// The modes each network is timed under, baseline first.
    pub modes: &'static [Mode],
    /// The networks the preset times under `options`.
    pub networks: fn(&Options) -> Vec<Experiment>,
}

/// Every preset.
#[rustfmt::skip] // one row per line
pub static PRESETS: &[Preset] = &[
    Preset { id: "engine", about: "the six algorithms on one network (16x16 unless --topo), uniform traffic", load: 0.3, warmup: 3_000, cycles: 20_000, axes: &[Axis::Topo], modes: &[Mode::Off], networks: engine },
    Preset { id: "scaling", about: "ecube and nbc from 8x8 to 64x64 and 16^3 (--smoke: 4^3 and 32x32)", load: 0.3, warmup: 2_000, cycles: 10_000, axes: &[], modes: &[Mode::Off], networks: scaling },
    Preset { id: "figures", about: "each paper figure's traffic and switching under its algorithms", load: 0.4, warmup: 2_000, cycles: 5_000, axes: &[Axis::Topo], modes: &[Mode::Off], networks: figures },
    Preset { id: "observers", about: "nbc with sinks off, ring trace, JSONL samples, JSONL trace", load: 0.3, warmup: 2_000, cycles: 5_000, axes: &[Axis::Topo], modes: &[Mode::Off, Mode::RingTrace, Mode::JsonlSamples, Mode::JsonlTrace], networks: observers },
];

/// `kinds` under uniform 16-flit traffic on `topology`.
fn uniform(topology: &Topology, kinds: &[AlgorithmKind], options: &Options) -> Vec<Experiment> {
    kinds
        .iter()
        .map(|&kind| {
            Experiment::new(topology.clone(), kind)
                .offered_load(options.load)
                .seed(options.seed)
        })
        .collect()
}

fn engine(options: &Options) -> Vec<Experiment> {
    uniform(&options.topology(), &AlgorithmKind::all(), options)
}

/// 2D tori from the paper's neighbourhood up to 4096 nodes, then the 3D
/// cubes at matching node counts (8³ = 512, 16³ = 4096), under one
/// deterministic and one adaptive algorithm: enough to see how routing
/// cost scales without multiplying the sweep by six.
fn scaling(options: &Options) -> Vec<Experiment> {
    let sizes = if options.smoke {
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
    };
    sizes
        .iter()
        .flat_map(|topology| uniform(topology, &[Ecube, NegativeHopBonusCards], options))
        .collect()
}

fn figures(options: &Options) -> Vec<Experiment> {
    presets::all_figures()
        .into_iter()
        .flat_map(|spec| {
            let mut spec = spec.with_topology(options.topology());
            spec.loads = vec![options.load];
            // The schedule is `Experiment::run`'s; a raw network has none.
            presets::experiments_for(&spec, MeasurementSchedule::quick(), options.seed)
        })
        .collect()
}

fn observers(options: &Options) -> Vec<Experiment> {
    uniform(&options.topology(), &[NegativeHopBonusCards], options)
}

/// A `perf` command line: the preset the positional id names and how it
/// runs, each field its flag's value.
#[derive(Default)]
pub struct Options {
    /// The preset; `None` only with `--list`.
    pub preset: Option<&'static Preset>,
    pub list: bool,
    pub topo: Option<Topology>,
    pub load: f64,
    pub cycles: u64,
    pub warmup: u64,
    pub seed: u64,
    pub out: Option<String>,
    pub smoke: bool,
    pub metrics: bool,
    pub max_overhead_pct: Option<f64>,
    /// A report whose counts this run must reproduce.
    pub check: Option<String>,
}

impl Options {
    /// The `--topo` network, or the paper's 16x16 torus.
    pub fn topology(&self) -> Topology {
        self.topo.clone().unwrap_or_else(presets::paper_topology)
    }

    /// The preset's modes, plus the registry when the flags ask for it.
    pub fn modes(&self, preset: &Preset) -> Vec<Mode> {
        let mut modes = preset.modes.to_vec();
        if self.metrics || self.max_overhead_pct.is_some() {
            modes.push(Mode::Metrics);
        }
        modes
    }
}

impl cli::Args for Options {
    const SYNOPSIS: &'static str = "perf <preset>";

    #[rustfmt::skip] // one row per line
    fn flags() -> Vec<Flag<Self>> {
        vec![
            Flag { name: "--list", metavar: None, apply: |a, _| { a.list = true; Ok(()) }, help: "print the presets" },
            Flag { name: Axis::Topo.flag(), metavar: Some("T"), apply: |a, v| { a.topo = Some(cli::parse_topology(v)?); Ok(()) }, help: "network (default 16x16; not for presets that pin their sizes)" },
            Flag { name: "--load", metavar: Some("F"), apply: |a, v| { a.load = single_load(v)?; Ok(()) }, help: "offered load (default: the preset's)" },
            // Zero timed cycles have no rate: 0 / 0 is not a number.
            Flag { name: "--cycles", metavar: Some("N"), apply: |a, v| { a.cycles = cli::parse_int("--cycles", v, 1)?; Ok(()) }, help: "timed cycles (default: the preset's)" },
            Flag { name: "--warmup", metavar: Some("N"), apply: |a, v| { a.warmup = cli::parse_int("warm-up", v, 0)?; Ok(()) }, help: "cycles before timing (default: the preset's)" },
            Flag { name: "--seed", metavar: Some("N"), apply: |a, v| { a.seed = cli::parse_int("seed", v, 0)?; Ok(()) }, help: "RNG seed (default 1993)" },
            Flag { name: "--out", metavar: Some("FILE"), apply: |a, v| { a.out = Some(v.to_owned()); Ok(()) }, help: "write the JSON report" },
            Flag { name: "--smoke", metavar: None, apply: |a, _| { a.smoke = true; Ok(()) }, help: "CI budget: at most 300 + 1500 cycles, small sizes" },
            Flag { name: "--metrics", metavar: None, apply: |a, _| { a.metrics = true; Ok(()) }, help: "pair every network with a deep-telemetry run" },
            Flag { name: "--max-overhead-pct", metavar: Some("P"), apply: |a, v| { a.max_overhead_pct = Some(cli::parse_positive("percentage", v)?); Ok(()) }, help: "exit 1 if an observed run is over P% slower" },
            Flag { name: "--check", metavar: Some("FILE"), apply: |a, v| { a.check = Some(v.to_owned()); Ok(()) }, help: "re-run FILE's configuration; exit 1 unless its counts match" },
        ]
    }

    fn positional(&mut self, id: String) -> Result<(), String> {
        if self.preset.is_some() {
            return Err(format!("unexpected argument '{id}'"));
        }
        let preset = PRESETS
            .iter()
            .find(|preset| preset.id == id)
            .ok_or_else(|| format!("unknown preset '{id}' (see --list)"))?;
        *self = Options {
            preset: Some(preset),
            load: preset.load,
            cycles: preset.cycles,
            warmup: preset.warmup,
            seed: 1993,
            ..Options::default()
        };
        Ok(())
    }

    fn refuse(&self, flag: &str) -> Result<(), String> {
        match self.preset {
            Some(preset) => Axis::refuse(preset.axes, &format!("preset {}", preset.id), flag),
            None => Ok(()),
        }
    }

    fn finish(&mut self, given: &[&str]) -> Result<(), String> {
        if self.list {
            return Ok(());
        }
        if self.preset.is_none() {
            return Err("no preset named".to_owned());
        }
        if self.check.is_some() && given.len() > 1 {
            return Err(
                "--check takes its configuration from the file; it combines with no other flag"
                    .to_owned(),
            );
        }
        if self.smoke {
            self.warmup = self.warmup.min(SMOKE_WARMUP);
            self.cycles = self.cycles.min(SMOKE_CYCLES);
        }
        Ok(())
    }
}

/// Parses `--load`: one load of [`cli::parse_loads`]' grammar.
fn single_load(s: &str) -> Result<f64, String> {
    match cli::parse_loads(s)?.as_slice() {
        [load] => Ok(*load),
        _ => Err("--load takes one load, not a list".to_owned()),
    }
}
