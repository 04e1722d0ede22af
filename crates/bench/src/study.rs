//! The study table: every figure, in-text reading, ablation and free-form
//! sweep this repository runs, as one row each behind `study <id>`.
//!
//! [`parse`] reads `study`'s flag table ([`StudyArgs`]): the axis flags
//! ([`Axis`]: `--topo`, `--algos`, `--loads`, ...), which each row takes
//! only if it declares them, and the harness flags of [`SweepOptions`]. A
//! row expands, under the parsed options and axes, to
//! a list of [`Experiment`] points plus a reducer that prints the table
//! EXPERIMENTS.md records from their results. The points run through
//! [`run_sweep`](crate::run_sweep), so every study gets threads, the
//! journal, `--resume`, retries, budgets and `--worker` sharding. Rows that
//! are not one sweep named after the study keep a custom runner over the
//! same points: the figures and `sweep` (one sweep per figure, under the
//! figure's own journal and CSV name), `faults_sweep` (a sweep that keeps
//! going past a rejected point), an adaptive bisection, and a raw engine
//! run.

use crate::cli::{self, Flag};
use crate::figure::figure_plan;
use crate::options::SweepOptions;
use crate::report::{peak_utilization, print_figure, print_paper_comparison, write_csv};
use crate::sweep::{run_points_or_exit, run_sweep_or_exit, PointOutcome, SweepPlan};
use wormsim::faults::{FaultPlan, FaultRegion};
use wormsim::presets::{self, FigureSpec};
use wormsim::AlgorithmKind::{
    self, Ecube, NegativeHopBonusCards, NorthLast, PositiveHop, TwoPowerN,
};
use wormsim::{
    Experiment, MeasurementSchedule, MessageLength, RunOutcome, RunResult, SelectionPolicy,
    Switching, Topology, TrafficConfig,
};

/// One reproducible study: a row of [`STUDIES`].
pub struct Study {
    /// The name after `study` on the command line (DESIGN.md §2).
    pub id: &'static str,
    /// What the study regenerates, in one line (`study --list`).
    pub about: &'static str,
    /// The axis flags the study takes; any other is a usage error. A row
    /// that leaves out [`Axis::Topo`] pins its own networks.
    pub axes: &'static [Axis],
    plan: Expand,
}

/// A row's expansion of the parsed options and axes into its plan.
type Expand = fn(&SweepOptions, &Axes) -> Result<Plan, String>;

/// An axis flag: a value a study sweeps or fixes. Each row (and each
/// `perf` preset) declares the ones it honours.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// `--topo T` ([`SweepOptions::topology`]), unless the row pins its networks.
    Topo,
    /// `--algos all|phop,ecube,...` ([`cli::parse_algorithms`]).
    Algos,
    /// `--loads 0.1:1.0:0.1 | 0.1,0.5,0.9` ([`cli::parse_loads`]).
    Loads,
    /// `--traffic uniform|hotspot:15,15@0.04|...` ([`cli::parse_traffic`]).
    Traffic,
    /// `--switching wh|wh:4|vct|saf` ([`cli::parse_switching`]).
    Switching,
    /// `--max-faults N`: fault counts 0 to N ([`cli::parse_int`]).
    MaxFaults,
}

impl Axis {
    const ALL: [Axis; 6] = [
        Axis::Topo,
        Axis::Algos,
        Axis::Loads,
        Axis::Traffic,
        Axis::Switching,
        Axis::MaxFaults,
    ];

    /// The flag on the command line.
    pub const fn flag(self) -> &'static str {
        match self {
            Axis::Topo => "--topo",
            Axis::Algos => "--algos",
            Axis::Loads => "--loads",
            Axis::Traffic => "--traffic",
            Axis::Switching => "--switching",
            Axis::MaxFaults => "--max-faults",
        }
    }

    /// Refuses `flag` when it is an axis flag that `declared` leaves out:
    /// the usage error `<row> takes no <flag>` (`study tune`, `preset scaling`).
    pub fn refuse(declared: &[Axis], row: &str, flag: &str) -> Result<(), String> {
        match Axis::ALL.iter().find(|axis| axis.flag() == flag) {
            Some(axis) if !declared.contains(axis) => Err(format!("{row} takes no {flag}")),
            _ => Ok(()),
        }
    }
}

/// The axis values a command line gave; `None` keeps the study's default.
#[derive(Default)]
struct Axes {
    algorithms: Option<Vec<AlgorithmKind>>,
    loads: Option<Vec<f64>>,
    traffic: Option<TrafficConfig>,
    switching: Option<Switching>,
    max_faults: Option<usize>,
}

impl Axes {
    /// `--algos` (default: the paper's six), less those `topology` rejects.
    fn runnable_algorithms(&self, topology: &Topology) -> Result<Vec<AlgorithmKind>, String> {
        let all = || AlgorithmKind::all().to_vec();
        let mut algorithms = self.algorithms.clone().unwrap_or_else(all);
        retain_runnable(&mut algorithms, topology)?;
        Ok(algorithms)
    }
}

/// What a study expands to under one set of options.
struct Plan {
    /// The experiments behind the study, in schedule order.
    points: Vec<Experiment>,
    run: Run,
}

type Reducer = dyn Fn(&[RunResult]);
type Runner = dyn Fn(&[Experiment]);

enum Run {
    /// Run the points as one journaled sweep named after the study, then
    /// print the table from the index-aligned results.
    Report(Box<Reducer>),
    /// The study drives its points itself.
    Custom(Box<Runner>),
}

const fn study(
    id: &'static str,
    axes: &'static [Axis],
    about: &'static str,
    plan: Expand,
) -> Study {
    Study {
        id,
        about,
        axes,
        plan,
    }
}

/// The axes of a study that takes no axis flag but `--topo`.
const TOPO: &[Axis] = &[Axis::Topo];
/// The axes of a study that pins its own networks.
const PINNED: &[Axis] = &[];

/// Every study, in DESIGN.md §2 order.
#[rustfmt::skip] // one row per line
pub static STUDIES: &[Study] = &[
    study("fig3", TOPO, "Figure 3: uniform traffic of 16-flit worms", |o, _| figure(presets::fig3(), o)),
    study("fig4", TOPO, "Figure 4: 4% hotspot traffic at node (15,15)", |o, _| figure(presets::fig4(), o)),
    study("fig5", TOPO, "Figure 5: local traffic with 0.4 locality", |o, _| figure(presets::fig5(), o)),
    study("vct", TOPO, "Section 3.4: virtual cut-through", |o, _| figure(presets::vct_section_3_4(), o)),
    study("headline", TOPO, "all four figure families and the paper-vs-measured table", |o, _| headline(o)),
    study("ablation_selection", TOPO, "ablation: adaptive candidate-selection policy", |o, _| Ok(selection(o))),
    study("ablation_vcs", TOPO, "ablation: physical VCs per routing class (Dally 1992)", |o, _| Ok(vcs(o))),
    study("ablation_congestion", TOPO, "ablation: the input-buffer-limit congestion control", |o, _| Ok(congestion(o))),
    study("ablation_buffers", TOPO, "ablation: per-VC flit-buffer depth", |o, _| Ok(buffers(o))),
    study("ablation_length", TOPO, "ablation: message length 16/20/24 and the 15/31 mix", |o, _| Ok(length(o))),
    study("saturation_study", TOPO, "in-text saturation readings, by bisection on load", |o, _| Ok(saturation(o))),
    study("transpose_check", TOPO, "cross-check: nlast vs e-cube on three permutations", |o, _| Ok(transpose(o))),
    study("hotspot_placement", PINNED, "hotspot-placement sensitivity on the 16x16 torus", |o, _| Ok(hotspot(o))),
    study("channel_balance", TOPO, "channel and VC-class load balance at 0.3 (raw engine run)", |o, _| Ok(balance(o))),
    study("multidim", PINNED, "future work: six algorithms on an 8x8x8 torus and a 16x16 mesh", |o, _| Ok(multidim(o))),
    study("switching_comparison", TOPO, "wormhole vs cut-through vs store-and-forward", |o, _| Ok(switching(o))),
    study("tune", PINNED, "parameter matrix behind the defaults (16x16, quick, seed 42)", |o, _| Ok(tune(o))),
    study("sweep", &[Axis::Topo, Axis::Algos, Axis::Traffic, Axis::Loads, Axis::Switching], "any algorithms x loads on any network, traffic and switching", sweep),
    study("faults_sweep", &[Axis::Topo, Axis::Algos, Axis::Loads, Axis::MaxFaults], "latency and delivery vs random dead links, at one load", faults),
];

/// Looks a study up by id.
pub fn find(id: &str) -> Option<&'static Study> {
    STUDIES.iter().find(|study| study.id == id)
}

/// What a `study` command line asks for.
pub enum Command {
    /// `--help` / `-h`: print the usage text.
    Help,
    /// `--list`: print the table.
    List,
    /// Run a study.
    Run(Invocation),
}

/// A study expanded under a parsed command line, ready to run.
pub struct Invocation {
    study: &'static Study,
    options: SweepOptions,
    plan: Plan,
}

/// A `study` command line as its flag table reads it: the study the
/// positional id names, its axes and the harness options.
#[derive(Default)]
pub struct StudyArgs {
    study: Option<&'static Study>,
    list: bool,
    axes: Axes,
    options: SweepOptions,
}

impl AsMut<SweepOptions> for StudyArgs {
    fn as_mut(&mut self) -> &mut SweepOptions {
        &mut self.options
    }
}

impl cli::Args for StudyArgs {
    const SYNOPSIS: &'static str = "study <id>";

    #[rustfmt::skip] // one row per line
    fn flags() -> Vec<Flag<Self>> {
        let mut flags: Vec<Flag<Self>> = vec![
            Flag { name: "--list", metavar: None, apply: |a, _| { a.list = true; Ok(()) }, help: "print the study table and the axis flags each row takes" },
            Flag { name: Axis::Algos.flag(), metavar: Some("A"), apply: |a, v| { a.axes.algorithms = Some(cli::parse_algorithms(v)?); Ok(()) }, help: "axis: all|extended|phop,ecube,..." },
            Flag { name: Axis::Loads.flag(), metavar: Some("L"), apply: |a, v| { a.axes.loads = Some(cli::parse_loads(v)?); Ok(()) }, help: "axis: 0.1,0.5,0.9 or 0.1:1.0:0.1" },
            Flag { name: Axis::Traffic.flag(), metavar: Some("P"), apply: |a, v| { a.axes.traffic = Some(cli::parse_traffic(v)?); Ok(()) }, help: "axis: uniform|hotspot:15,15@0.04|local:3|transpose|bitrev|complement" },
            Flag { name: Axis::Switching.flag(), metavar: Some("S"), apply: |a, v| { a.axes.switching = Some(cli::parse_switching(v)?); Ok(()) }, help: "axis: wh|wh:4|vct|saf" },
            Flag { name: Axis::MaxFaults.flag(), metavar: Some("N"), apply: |a, v| { a.axes.max_faults = Some(cli::parse_int("--max-faults", v, 0)?); Ok(()) }, help: "axis: fault counts 0 to N" },
        ];
        flags.extend(SweepOptions::flags());
        flags
    }

    fn positional(&mut self, id: String) -> Result<(), String> {
        if self.study.is_some() {
            return Err(format!("unexpected argument '{id}'"));
        }
        self.study = Some(find(&id).ok_or_else(|| format!("unknown study '{id}' (see --list)"))?);
        Ok(())
    }

    fn refuse(&self, flag: &str) -> Result<(), String> {
        match self.study {
            Some(study) => Axis::refuse(study.axes, &format!("study {}", study.id), flag),
            None => Ok(()),
        }
    }

    fn finish(&mut self, _: &[&str]) -> Result<(), String> {
        if self.study.is_none() && !self.list {
            return Err("no study named".to_owned());
        }
        self.options.finish()
    }
}

/// Parses `study <id> …` (program name already stripped) through
/// [`StudyArgs`], then expands the study's plan.
///
/// # Errors
///
/// A usage message for anything the study cannot run as asked, from an
/// unknown flag to an algorithm set the network rejects.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let Some(args) = cli::parse::<StudyArgs>(args)? else {
        return Ok(Command::Help);
    };
    let Some(study) = args.study.filter(|_| !args.list) else {
        return Ok(Command::List);
    };
    let plan = (study.plan)(&args.options, &args.axes)?;
    Ok(Command::Run(Invocation {
        study,
        options: args.options,
        plan,
    }))
}

impl Study {
    /// The study's experiments under `options` and its default axes, in
    /// schedule order.
    ///
    /// # Errors
    ///
    /// A usage message when the options leave the study nothing to run.
    pub fn points(&self, options: &SweepOptions) -> Result<Vec<Experiment>, String> {
        (self.plan)(options, &Axes::default()).map(|plan| plan.points)
    }
}

impl Invocation {
    /// Runs the study for the `study` binary and prints its table,
    /// leaving through the shared exit path (see
    /// [`run_sweep_or_exit`]) when a sweep does
    /// not complete whole.
    pub fn run(self) {
        let Invocation {
            study,
            options,
            plan,
        } = self;
        match plan.run {
            Run::Report(report) => {
                eprintln!("running {} ({} points)...", study.id, plan.points.len());
                let sweep = SweepPlan::named(study.id, plan.points, &options);
                report(&run_points_or_exit(&sweep, &options));
            }
            Run::Custom(run) => run(&plan.points),
        }
    }
}

fn report(points: Vec<Experiment>, report: impl Fn(&[RunResult]) + 'static) -> Plan {
    Plan {
        points,
        run: Run::Report(Box::new(report)),
    }
}

fn custom(points: Vec<Experiment>, run: impl Fn(&[Experiment]) + 'static) -> Plan {
    Plan {
        points,
        run: Run::Custom(Box::new(run)),
    }
}

/// A uniform-traffic point on `topology` under the options' schedule and
/// seed, at the paper's other defaults.
fn uniform(topology: &Topology, algorithm: AlgorithmKind, options: &SweepOptions) -> Experiment {
    Experiment::new(topology.clone(), algorithm)
        .traffic(TrafficConfig::Uniform)
        .schedule(options.schedule)
        .seed(options.seed)
}

/// The points of a rows × columns table, row-major: each cell's base
/// experiment swept over `loads`.
fn grid<R, C>(
    rows: &[R],
    columns: &[C],
    loads: &[f64],
    cell: impl Fn(&R, &C) -> Experiment,
) -> Vec<Experiment> {
    let mut points = Vec::new();
    for row in rows {
        for column in columns {
            points.extend(at_loads(cell(row, column), loads));
        }
    }
    points
}

/// `base` at each of `loads`.
fn at_loads(base: Experiment, loads: &[f64]) -> impl Iterator<Item = Experiment> + '_ {
    loads
        .iter()
        .map(move |&load| base.clone().offered_load(load))
}

/// Peak achieved utilization of a series.
fn peak(series: &[RunResult]) -> f64 {
    series
        .iter()
        .map(|r| r.achieved_utilization)
        .fold(0.0, f64::max)
}

/// Prints a [`grid`]'s results as one row per label: the label, then the
/// peak of each of the row's `columns` series of `loads` points.
fn peak_rows(
    results: &[RunResult],
    loads: usize,
    labels: &[impl AsRef<str>],
    label_width: usize,
    columns: usize,
    width: usize,
) {
    for (label, row) in labels.iter().zip(results.chunks(loads * columns)) {
        print!("{:>label_width$}", label.as_ref());
        for series in row.chunks(loads) {
            print!("{:>width$.3}", peak(series));
        }
        println!();
    }
}

fn names<const N: usize>(algorithms: [AlgorithmKind; N]) -> [&'static str; N] {
    algorithms.map(|a| a.name())
}

fn figure_points(spec: &FigureSpec, options: &SweepOptions) -> Vec<Experiment> {
    presets::experiments_for(spec, options.schedule, options.seed)
}

/// Runs a figure's sweep (its own journal, named after the figure) and
/// saves its CSV once `print` has reported it.
fn regenerate(spec: &FigureSpec, options: &SweepOptions, print: impl Fn(&[RunResult])) {
    let points = spec.algorithms.len() * spec.loads.len();
    eprintln!("running {} ({points} points)...", spec.id);
    let results = run_points_or_exit(&figure_plan(spec, options), options);
    print(&results);
    print_paper_comparison(&spec.id, &results);
    match write_csv(&spec.id, &results, &options.out_dir) {
        Ok(path) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}

/// Drops the algorithms `topology` rejects (e.g. the negative-hop schemes
/// on odd-radix tori), reporting each skip on stderr rather than dying.
///
/// # Errors
///
/// A usage message when no runnable algorithm is left.
fn retain_runnable(algorithms: &mut Vec<AlgorithmKind>, topology: &Topology) -> Result<(), String> {
    algorithms.retain(|kind| match kind.build(topology) {
        Ok(_) => true,
        Err(e) => {
            eprintln!("skipping {kind}: {e}");
            false
        }
    });
    if algorithms.is_empty() {
        return Err(format!("no selected algorithm supports {topology}"));
    }
    Ok(())
}

/// Applies the `--topo` override (if any) to a figure spec: retargets the
/// network, remaps topology-dependent traffic (see
/// [`FigureSpec::with_topology`]), and drops algorithms the new topology
/// rejects (see [`retain_runnable`]).
///
/// Without an override the spec is returned untouched, so the default 16×16
/// figure outputs stay bit-identical.
///
/// # Errors
///
/// A usage message when the override leaves no runnable algorithm.
fn apply_topology_override(spec: FigureSpec, options: &SweepOptions) -> Result<FigureSpec, String> {
    let Some(topo) = &options.topology else {
        return Ok(spec);
    };
    let mut spec = spec.with_topology(topo.clone());
    retain_runnable(&mut spec.algorithms, &spec.topology)?;
    Ok(spec)
}

fn figure(spec: FigureSpec, options: &SweepOptions) -> Result<Plan, String> {
    Ok(regenerated(
        apply_topology_override(spec, options)?,
        options,
    ))
}

/// A figure spec run as one sweep under its own id and printed in the
/// paper's two-panel form.
fn regenerated(spec: FigureSpec, options: &SweepOptions) -> Plan {
    let options = options.clone();
    custom(figure_points(&spec, &options), move |_| {
        regenerate(&spec, &options, |results| print_figure(&spec, results));
    })
}

/// The four figures back to back, each reduced to its peak list.
fn headline(options: &SweepOptions) -> Result<Plan, String> {
    let figures = presets::all_figures()
        .into_iter()
        .map(|spec| apply_topology_override(spec, options))
        .collect::<Result<Vec<_>, _>>()?;
    let points = figures
        .iter()
        .flat_map(|spec| figure_points(spec, options))
        .collect();
    let options = options.clone();
    Ok(custom(points, move |_| {
        for spec in &figures {
            regenerate(spec, &options, |results| {
                println!("== {} ({}) ==", spec.title, spec.id);
                println!("Peak achieved utilization:");
                for algo in &spec.algorithms {
                    let peak = peak_utilization(results, algo.name());
                    println!("  {:>6}: {peak:.3}", algo.name());
                }
                println!();
            });
        }
    }))
}

fn selection(options: &SweepOptions) -> Plan {
    let topo = options.topology_or_paper();
    let algos = [NegativeHopBonusCards, PositiveHop, TwoPowerN];
    let policies = [
        SelectionPolicy::MostCredits,
        SelectionPolicy::FirstFree,
        SelectionPolicy::Random,
    ];
    let loads = [0.3, 0.5, 0.7, 0.9];
    let points = grid(&algos, &policies, &loads, |&algo, &policy| {
        uniform(&topo, algo, options).selection(policy)
    });
    report(points, move |results| {
        println!("Peak achieved utilization by selection policy (uniform, {topo}):");
        println!(
            "{:>8} {:>13} {:>13} {:>13}",
            "algo", "MostCredits", "FirstFree", "Random"
        );
        peak_rows(results, loads.len(), &names(algos), 8, policies.len(), 13);
    })
}

fn vcs(options: &SweepOptions) -> Plan {
    let topo = options.topology_or_paper();
    let algos = [Ecube, NorthLast, TwoPowerN];
    let replicas = [1u32, 2, 4];
    let loads = [0.2, 0.3, 0.4, 0.5, 0.6];
    let points = grid(&algos, &replicas, &loads, |&algo, &n| {
        uniform(&topo, algo, options).vc_replicas(n)
    });
    report(points, move |results| {
        println!("Peak achieved utilization vs VCs per class (uniform, {topo}):");
        println!("{:>8} {:>8} {:>8} {:>8}", "algo", "x1", "x2", "x4");
        peak_rows(results, loads.len(), &names(algos), 8, replicas.len(), 8);
    })
}

fn congestion(options: &SweepOptions) -> Plan {
    let topo = options.topology_or_paper();
    let algos = [Ecube, NorthLast, PositiveHop, NegativeHopBonusCards];
    let limits = [
        ("1", Some(1)),
        ("2", Some(2)),
        ("8", Some(8)),
        ("none", None),
    ];
    let points = grid(&algos, &limits, &[0.8], |&algo, &(_, limit)| {
        uniform(&topo, algo, options).congestion_limit(limit)
    });
    report(points, move |results| {
        println!("Achieved utilization at offered 0.8 (uniform, {topo}):");
        print!("{:>8}", "algo");
        for (name, _) in limits {
            print!("{name:>9}");
        }
        println!("   (and saturation latency in cycles)");
        for (algo, row) in algos.iter().zip(results.chunks(limits.len())) {
            print!("{:>8}", algo.name());
            for r in row {
                print!("{:>9.3}", r.achieved_utilization);
            }
            print!("   lat:");
            for r in row {
                print!(" {:>8.0}", r.latency.mean());
            }
            println!();
        }
        println!("\n(Unlimited injection lets source queues grow without bound, so its");
        println!("latency column is dominated by queueing and keeps growing with run length.)");
    })
}

fn buffers(options: &SweepOptions) -> Plan {
    let topo = options.topology_or_paper();
    let algos = AlgorithmKind::all();
    let depths = [1u32, 2, 4, 8];
    let loads = [0.3, 0.5, 0.7, 0.9];
    let points = grid(&algos, &depths, &loads, |&algo, &buffer_depth| {
        uniform(&topo, algo, options).switching(Switching::Wormhole { buffer_depth })
    });
    report(points, move |results| {
        println!("Peak achieved utilization vs per-VC buffer depth (uniform, {topo}):");
        println!(
            "{:>8} {:>8} {:>8} {:>8} {:>8}",
            "algo", "d=1", "d=2", "d=4", "d=8"
        );
        peak_rows(results, loads.len(), &names(algos), 8, depths.len(), 8);
    })
}

fn length(options: &SweepOptions) -> Plan {
    let topo = options.topology_or_paper();
    let lengths = [
        ("16", MessageLength::fixed(16).expect("valid")),
        ("20", MessageLength::fixed(20).expect("valid")),
        ("24", MessageLength::fixed(24).expect("valid")),
        (
            "15/31 mix",
            MessageLength::bimodal(15, 31, 0.5).expect("valid"),
        ),
    ];
    let algos = [PositiveHop, Ecube];
    // Load 0.2 gives the latency column; the rest give the peak.
    let loads = [0.2, 0.3, 0.5, 0.7, 0.9];
    let points = grid(&lengths, &algos, &loads, |&(_, length), &algo| {
        uniform(&topo, algo, options).message_length(length)
    });
    report(points, move |results| {
        println!("Effect of message length (uniform traffic, {topo}):\n");
        println!(
            "{:>10} {:>7} {:>14} {:>11}",
            "length", "algo", "latency @0.2", "peak util"
        );
        let mut series = results.chunks(loads.len());
        for (name, _) in lengths {
            for (algo, run) in algos.iter().zip(series.by_ref()) {
                println!(
                    "{:>10} {:>7} {:>11.1} cy {:>11.3}",
                    name,
                    algo.name(),
                    run[0].latency.mean(),
                    peak(&run[1..])
                );
            }
        }
        println!(
            "\nLonger worms raise zero-load latency linearly (Eq. 2) and hold\n\
             channels longer when blocked; normalized peak throughput moves only\n\
             mildly because Eq. 4 already normalizes by message length."
        );
    })
}

/// Custom: each probe's load depends on the previous probe's result, so
/// the points are only the configurations the bisection starts from.
fn saturation(options: &SweepOptions) -> Plan {
    let topo = options.topology_or_paper();
    let bases = AlgorithmKind::all().map(|kind| uniform(&topo, kind, options));
    custom(bases.to_vec(), |bases| {
        println!("Saturation offered load (achieved < 90% of offered), uniform traffic:\n");
        println!(
            "{:>7} {:>12} {:>14} {:>16}",
            "algo", "saturates", "paper", "util at point"
        );
        let paper_notes = [
            ("nbc", "after 0.6"),
            ("phop", "after 0.6"),
            ("nhop", "about 0.55"),
            ("2pn", "early"),
            ("ecube", "early (~0.4)"),
            ("nlast", "early"),
        ];
        for base in bases {
            let name = base.sim().algorithm.name();
            let point = base.find_saturation(0.9, 4).expect("search runs");
            let note = paper_notes
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, p)| *p);
            println!(
                "{:>7} {:>12.2} {:>14} {:>16.3}",
                name,
                point.estimate(),
                note,
                point.at_below.achieved_utilization
            );
        }
    })
}

fn transpose(options: &SweepOptions) -> Plan {
    let topo = options.topology_or_paper();
    let workloads = [
        ("transpose", TrafficConfig::Transpose),
        ("bit-reversal", TrafficConfig::BitReversal),
        ("complement", TrafficConfig::Complement),
    ];
    let algos = [Ecube, NorthLast, TwoPowerN, PositiveHop];
    let loads = [0.1, 0.2, 0.3, 0.4, 0.5];
    let points = grid(&workloads, &algos, &loads, |(_, traffic), &algo| {
        uniform(&topo, algo, options).traffic(traffic.clone())
    });
    report(points, move |results| {
        println!("Peak achieved utilization per permutation workload ({topo}):\n");
        print!("{:>14}", "workload");
        for name in names(algos) {
            print!("{name:>9}");
        }
        println!();
        let labels = workloads.each_ref().map(|(name, _)| *name);
        peak_rows(results, loads.len(), &labels, 14, algos.len(), 9);
        println!(
            "\nGlass & Ni's claim holds if nlast's column beats ecube's for the\n\
             permutations while losing under uniform traffic (Figure 3)."
        );
    })
}

fn hotspot(options: &SweepOptions) -> Plan {
    let topo = presets::paper_topology();
    let placements = [
        ("corner (15,15)", vec![vec![15, 15]]),
        ("center (8,8)", vec![vec![8, 8]]),
        ("edge (0,8)", vec![vec![0, 8]]),
        (
            "4 spread hotspots",
            vec![vec![3, 3], vec![3, 11], vec![11, 3], vec![11, 11]],
        ),
    ];
    let algos = [NorthLast, Ecube, PositiveHop, NegativeHopBonusCards];
    let loads = [0.2, 0.3, 0.4, 0.5];
    let points = grid(&placements, &algos, &loads, |(_, nodes), &algo| {
        uniform(&topo, algo, options).traffic(TrafficConfig::Hotspot {
            nodes: nodes.clone(),
            fraction: 0.04,
        })
    });
    report(points, move |results| {
        println!("Peak achieved utilization, 4% hotspot traffic by placement:\n");
        print!("{:>20}", "placement");
        for name in names(algos) {
            print!("{name:>9}");
        }
        println!();
        let labels = placements.each_ref().map(|(name, _)| *name);
        peak_rows(results, loads.len(), &labels, 20, algos.len(), 9);
        println!(
            "\nExpected shape: only nlast's column moves with placement (its turn\n\
             restriction makes the north-west region special); spreading the\n\
             hotspot over four nodes recovers throughput for everyone."
        );
    })
}

/// Coefficient of variation (stddev / mean) of a count vector.
fn cov(counts: &[u64]) -> f64 {
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Custom: the per-channel and per-class flit counts are raw engine
/// counters a [`RunResult`] does not carry, so each point's network
/// ([`Experiment::build_network`]) is stepped directly with the telemetry
/// registry installed, whose report carries the flits per channel. The
/// points sit at a moderate 30% load so nothing is saturated: imbalance
/// is then a property of the algorithm, not of congestion.
fn balance(options: &SweepOptions) -> Plan {
    let topo = options.topology_or_paper();
    let points = AlgorithmKind::all().map(|kind| uniform(&topo, kind, options).offered_load(0.3));
    custom(points.to_vec(), |points| {
        println!(
            "Channel- and class-load balance under uniform traffic at offered 0.3\n\
             (coefficient of variation; 0 = perfectly even):\n"
        );
        println!(
            "{:>7} {:>16} {:>16} {:>18} {:>14}",
            "algo", "channel CoV", "class CoV", "busiest/median ch", "c0/cTop"
        );
        for point in points {
            let kind = point.sim().algorithm;
            let mut net = point.build_network().expect("valid point");
            net.observer().metrics_on();
            net.run(30_000);
            let m = net.metrics();
            let channels = net
                .metrics_report(kind.name())
                .expect("just installed")
                .channel_flits;
            let mut sorted: Vec<u64> = channels.clone();
            sorted.sort_unstable();
            let median = sorted[sorted.len() / 2].max(1);
            let busiest = *sorted.last().expect("non-empty");
            let first = m.class_flits[0].max(1) as f64;
            let last = m.class_flits[m.class_flits.len() - 1].max(1) as f64;
            println!(
                "{:>7} {:>16.3} {:>16.3} {:>18.2} {:>14.1}",
                kind.name(),
                cov(&channels),
                cov(&m.class_flits),
                busiest as f64 / median as f64,
                first / last
            );
        }
        println!(
            "\nExpected shape: nlast's channel CoV and busiest/median ratio stand\n\
             out (its turn restriction concentrates traffic even though demand\n\
             is uniform), and its lowest class carries almost everything\n\
             (c0/cTop). Among the hop schemes, nbc's bottom-to-top class ratio\n\
             is far flatter than nhop's — the bonus cards at work; the contrast\n\
             sharpens further at saturation loads (see the engine behavior\n\
             test nhop_class_load_is_skewed_and_nbc_flatter)."
        );
    })
}

fn multidim(options: &SweepOptions) -> Plan {
    // 3-D torus: phop needs 13 classes (diameter 12), nhop/nbc 7. 2-D mesh
    // (the Glass & Ni setting): single-class e-cube, 2-class 2pn.
    let topologies = [Topology::torus(&[8, 8, 8]), Topology::mesh(&[16, 16])];
    // Load 0.2 (index 1) also gives the latency column.
    let loads = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
    let mut points = Vec::new();
    for topo in &topologies {
        for kind in AlgorithmKind::all() {
            if kind.build(topo).is_ok() {
                points.extend(at_loads(uniform(topo, kind, options), &loads));
            }
        }
    }
    report(points, move |results| {
        let mut series = results.chunks(loads.len());
        for topo in &topologies {
            println!("\n== {topo} ==");
            println!(
                "{:>7} {:>9} {:>11} {:>14}",
                "algo", "vcs", "peak util", "latency @0.2"
            );
            for kind in AlgorithmKind::all() {
                let Ok(algo) = kind.build(topo) else {
                    println!("{:>7} {:>9}", kind.name(), "n/a");
                    continue;
                };
                let run = series.next().expect("one series per runnable algorithm");
                for r in run.iter().filter(|r| r.deadlock.is_some()) {
                    println!("{:>7}: DEADLOCK at load {}", kind.name(), r.offered_load);
                }
                println!(
                    "{:>7} {:>9} {:>11.3} {:>11.1} cy",
                    kind.name(),
                    algo.num_vc_classes(),
                    peak(run),
                    run[1].latency.mean()
                );
            }
        }
    })
}

fn switching(options: &SweepOptions) -> Plan {
    let topo = options.topology_or_paper();
    let algos = [NegativeHopBonusCards, PositiveHop, TwoPowerN, Ecube];
    let modes = [
        ("wormhole", Switching::wormhole()),
        ("cut-through", Switching::VirtualCutThrough),
        ("store&fwd", Switching::StoreAndForward),
    ];
    // Load 0.2 gives the latency column; the rest give the peak.
    let loads = [0.2, 0.4, 0.6, 0.8, 1.0];
    let points = grid(&algos, &modes, &loads, |&algo, &(_, mode)| {
        uniform(&topo, algo, options).switching(mode)
    });
    report(points, move |results| {
        println!("Peak achieved utilization / latency@0.2 by switching technique:\n");
        print!("{:>7}", "algo");
        for (name, _) in modes {
            print!("{name:>22}");
        }
        println!();
        let mut series = results.chunks(loads.len());
        for algo in algos {
            print!("{:>7}", algo.name());
            for run in series.by_ref().take(modes.len()) {
                print!(
                    "{:>11.3} {:>7.0} cy",
                    peak(&run[1..]),
                    run[0].latency.mean()
                );
            }
            println!();
        }
        println!(
            "\nThe paper's Section 3.4 story in one table: adaptivity-without-\n\
             priority (2pn) is only penalized under wormhole switching, where\n\
             channels are held while blocked; with message buffering (VCT/SAF)\n\
             it pulls close to the hop schemes. Store-and-forward pays ~d x m_l\n\
             latency at low load."
        );
    })
}

/// The matrix that picked the repository's defaults is pinned to the
/// paper's network, the quick schedule and seed 42, so EXPERIMENTS.md's
/// copy regenerates whatever the command line says.
fn tune(_: &SweepOptions) -> Plan {
    let topo = presets::paper_topology();
    let mut rows = Vec::new();
    for depth in [1u32, 2, 4] {
        for limit in [1u32, 4, 8] {
            for selection in [SelectionPolicy::MostCredits, SelectionPolicy::FirstFree] {
                rows.push((depth, limit, selection));
            }
        }
    }
    let algos = [Ecube, TwoPowerN, PositiveHop, NegativeHopBonusCards];
    let loads = [0.4, 0.6, 0.8, 1.0];
    let points = grid(
        &rows,
        &algos,
        &loads,
        |&(depth, limit, selection), &algo| {
            Experiment::new(topo.clone(), algo)
                .traffic(TrafficConfig::Uniform)
                .switching(Switching::Wormhole {
                    buffer_depth: depth,
                })
                .congestion_limit(Some(limit))
                .selection(selection)
                .schedule(MeasurementSchedule::quick())
                .seed(42)
        },
    );
    report(points, move |results| {
        println!(
            "{:>6} {:>6} {:>12} | {:>7} {:>7} {:>7} {:>7}",
            "depth", "limit", "selection", "ecube", "2pn", "phop", "nbc"
        );
        let labels: Vec<String> = rows
            .iter()
            .map(|(depth, limit, selection)| {
                format!("{depth:>6} {limit:>6} {:>12} |", format!("{selection:?}"))
            })
            .collect();
        peak_rows(results, loads.len(), &labels, 0, algos.len(), 8);
    })
}

/// The free-form sweep: any algorithms × loads under one topology,
/// traffic and switching, printed and saved like a figure.
fn sweep(options: &SweepOptions, axes: &Axes) -> Result<Plan, String> {
    let topology = options.topology_or_paper();
    let algorithms = axes.runnable_algorithms(&topology)?;
    let traffic = axes.traffic.clone().unwrap_or(TrafficConfig::Uniform);
    let switching = axes.switching.unwrap_or_else(Switching::wormhole);
    let names: Vec<&str> = algorithms.iter().map(|a| a.name()).collect();
    let spec = FigureSpec {
        id: "sweep".to_owned(),
        title: format!(
            "{} on {topology} under {traffic} ({switching:?})",
            names.join("/")
        ),
        topology,
        traffic,
        switching,
        loads: axes.loads.clone().unwrap_or_else(presets::paper_loads),
        algorithms,
    };
    Ok(regenerated(spec, options))
}

/// The fault sweep's axes: every algorithm at one load, against 0 to
/// `--max-faults` random dead links.
struct FaultSweep {
    topology: Topology,
    algorithms: Vec<AlgorithmKind>,
    load: f64,
}

/// Latency and delivery vs fault count: the adaptivity payoff under
/// damage. E-cube has one path per pair, so a single dead link strands
/// traffic; the adaptive algorithms route around it. The sweep is not
/// fail-fast: a point that deadlocks, livelocks, exhausts its budget or
/// disconnects the network records its [`RunOutcome`] (or its rejection)
/// and the sweep continues. `--topo` defaults to `torus:8x8`.
fn faults(options: &SweepOptions, axes: &Axes) -> Result<Plan, String> {
    let topology = options
        .topology
        .clone()
        .unwrap_or_else(|| Topology::torus(&[8, 8]));
    let algorithms = axes.runnable_algorithms(&topology)?;
    let load = match axes.loads.as_deref() {
        None => 0.2,
        Some(&[load]) => load,
        Some(_) => return Err("study faults_sweep takes a single --loads value".to_owned()),
    };
    let max_faults = axes.max_faults.unwrap_or(8);
    let links = topology.num_physical_links() as usize;
    if max_faults > links {
        return Err(format!(
            "--max-faults {max_faults} exceeds the {links} links of {topology}"
        ));
    }
    let spec = FaultSweep {
        topology,
        algorithms,
        load,
    };
    let mut points = Vec::new();
    for count in 0..=max_faults {
        for &algorithm in &spec.algorithms {
            let mut e = uniform(&spec.topology, algorithm, options).offered_load(load);
            if let Some(plan) = fault_plan(&spec.topology, options.seed, count) {
                e = e.faults(plan);
            }
            // The fault count rides in the telemetry prefix: every
            // (count, algo) point keeps a distinct run id and file set.
            points.push(options.apply_to(e, &format!("faults{count}")));
        }
    }
    let options = options.clone();
    Ok(custom(points, move |points| {
        spec.run(points, &options);
    }))
}

/// The fault plan for one point: `count` seeded-random link kills. Each
/// count perturbs the seed so plans differ, but the whole curve is
/// reproducible from the base seed alone. Zero faults means *no* plan at
/// all, keeping that point on the fault-free fast path as the baseline.
fn fault_plan(topology: &Topology, seed: u64, count: usize) -> Option<FaultPlan> {
    (count > 0).then(|| {
        FaultPlan::random_links(
            topology,
            count,
            seed ^ (count as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            &FaultRegion::Anywhere,
        )
    })
}

impl FaultSweep {
    /// Runs the fault-count-major points through the journaled
    /// orchestrator without fail-fast, prints both panels, and saves
    /// `faults_sweep.csv`. An interrupted or quarantined sweep leaves
    /// `faults_sweep.partial.csv` and exits through the shared path.
    fn run(&self, points: &[Experiment], options: &SweepOptions) {
        eprintln!("running faults_sweep ({} points)...", points.len());
        let plan = SweepPlan::new(points.to_vec()).journal_name("faults_sweep.journal.jsonl");
        let outcomes = run_sweep_or_exit(&plan, options, |partial| {
            self.write_csv(
                &options.out_dir,
                partial.iter().map(Option::as_ref),
                "faults_sweep.partial",
            )
        });
        println!(
            "== Latency vs fault count on {} at load {:.2} (seed {}) ==",
            self.topology, self.load, options.seed
        );
        println!("\nMean latency (cycles); non-numeric cells name the run outcome:");
        // Mean latency when the run produced statistics, the outcome tag
        // in upper case when it did not.
        self.print_panel(&outcomes, |outcome| match outcome {
            Ok(r) if r.outcome.has_statistics() => format!("{:.1}", r.latency.mean()),
            Ok(r) => r.outcome.tag().to_uppercase(),
            Err(_) => "INVALID".to_owned(),
        });
        println!("\nDelivered messages per node per cycle:");
        self.print_panel(&outcomes, |outcome| match outcome {
            Ok(r) => format!("{:.3}", r.delivery_rate),
            Err(_) => "-".to_owned(),
        });
        // The graceful-degradation contract fails loudly: the zero-fault
        // baseline must actually complete.
        for (algo, baseline) in self.algorithms.iter().zip(&outcomes) {
            match baseline {
                Ok(r) => assert!(
                    r.outcome == RunOutcome::Completed || r.outcome == RunOutcome::Saturated,
                    "zero-fault baseline for {algo} ended {}",
                    r.outcome
                ),
                Err(e) => panic!("zero-fault baseline for {algo} invalid: {e}"),
            }
        }
        match self.write_csv(&options.out_dir, outcomes.iter().map(Some), "faults_sweep") {
            Ok(path) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("could not write CSV: {e}"),
        }
    }

    /// Prints one panel: a row per fault count (a chunk of the
    /// fault-count-major outcomes), a column per algorithm.
    fn print_panel(&self, outcomes: &[PointOutcome], cell: impl Fn(&PointOutcome) -> String) {
        print!("{:>7}", "faults");
        for algo in &self.algorithms {
            print!("{:>12}", algo.name());
        }
        println!();
        for (count, row) in outcomes.chunks(self.algorithms.len()).enumerate() {
            print!("{count:>7}");
            for outcome in row {
                print!("{:>12}", cell(outcome));
            }
            println!();
        }
    }

    /// Writes the CSV of the points that ran; `outcomes` is index-aligned
    /// with the fault-count-major plan (`None` = the point never ran).
    fn write_csv<'a>(
        &self,
        out_dir: &str,
        outcomes: impl Iterator<Item = Option<&'a PointOutcome>>,
        name: &str,
    ) -> std::io::Result<String> {
        std::fs::create_dir_all(out_dir)?;
        let path = format!("{out_dir}/{name}.csv");
        let mut out = String::from(
            "algorithm,fault_count,offered_load,outcome,latency_mean,achieved_utilization,\
             delivery_rate,messages_measured,cycles_simulated,dropped_events\n",
        );
        for (i, outcome) in outcomes.enumerate() {
            let algorithm = self.algorithms[i % self.algorithms.len()].name();
            let fault_count = i / self.algorithms.len();
            match outcome {
                Some(Ok(r)) => {
                    out.push_str(&format!(
                        "{},{},{},{},{:.4},{:.6},{:.6},{},{},{}\n",
                        algorithm,
                        fault_count,
                        self.load,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::tests::parse as parse_options;

    fn parse_study(id: &str, args: &[&str]) -> Result<Command, String> {
        parse(
            std::iter::once(id)
                .chain(args.iter().copied())
                .map(str::to_owned),
        )
    }

    fn run(id: &str, args: &[&str]) -> Invocation {
        match parse_study(id, args) {
            Ok(Command::Run(invocation)) => invocation,
            Ok(_) => panic!("{id} {args:?}: expected a run invocation"),
            Err(e) => panic!("{id} {args:?}: {e}"),
        }
    }

    fn error(id: &str, args: &[&str]) -> String {
        match parse_study(id, args) {
            Err(message) => message,
            Ok(_) => panic!("{id} {args:?}: expected a usage error"),
        }
    }

    fn fault_counts(invocation: &Invocation) -> Vec<usize> {
        invocation
            .plan
            .points
            .iter()
            .map(|p| {
                p.sim()
                    .faults
                    .as_ref()
                    .map_or(0, |plan| plan.faults().len())
            })
            .collect()
    }

    #[test]
    fn sweep_axis_and_harness_flags_parse_together() {
        let invocation = run(
            "sweep",
            &[
                "--topo",
                "mesh:8x8",
                "--loads",
                "0.1,0.2",
                "--seed",
                "11",
                "--threads",
                "2",
            ],
        );
        let points = &invocation.plan.points;
        assert_eq!(points.len(), 6 * 2, "six algorithms x two loads");
        assert!(points
            .iter()
            .all(|p| p.sim().topology == Topology::mesh(&[8, 8])));
        let loads: Vec<f64> = points[..2].iter().map(|p| p.offered_load_value()).collect();
        assert_eq!(loads, vec![0.1, 0.2]);
        assert_eq!(invocation.options.seed, 11);
        assert_eq!(invocation.options.threads, 2);
        let defaults = run("sweep", &[]);
        assert_eq!(
            defaults.plan.points[0].sim().topology,
            presets::paper_topology()
        );
        assert_eq!(defaults.plan.points.len(), 6 * presets::paper_loads().len());
    }

    #[test]
    fn harness_flag_errors_surface_through_the_delegation() {
        for id in ["sweep", "faults_sweep"] {
            error(id, &["--threads", "0"]);
            assert!(error(id, &["--metrics"]).contains("--observe"));
            assert!(error(id, &["--salvage"]).contains("--resume"));
            assert!(error(id, &["--worker", "w:1", "--observe", "obs"]).contains("--worker"));
            assert!(error(id, &["--cycle-budget", "0"]).contains("cycle budget"));
        }
    }

    #[test]
    fn missing_values_and_unknown_flags_are_usage_errors() {
        assert!(error("sweep", &["--seed"]).contains("--seed"));
        assert!(error("sweep", &["--loads"]).contains("--loads needs a value"));
        assert!(error("sweep", &["--hyperdrive"]).contains("unknown argument"));
        assert!(error("faults_sweep", &["--max-faults", "lots"]).contains("--max-faults"));
        assert!(error("faults_sweep", &["--hyperdrive"]).contains("unknown argument"));
    }

    #[test]
    fn axis_flags_a_study_does_not_declare_are_usage_errors() {
        assert_eq!(
            error("fig3", &["--algos", "ecube"]),
            "study fig3 takes no --algos"
        );
        assert!(error("faults_sweep", &["--traffic", "uniform"]).contains("--traffic"));
        assert!(error("sweep", &["--max-faults", "1"]).contains("--max-faults"));
        // The value is not consumed as a flag of its own first.
        assert!(error("tune", &["--loads", "--quick"]).contains("takes no --loads"));
    }

    #[test]
    fn help_short_circuits() {
        for id in ["sweep", "faults_sweep", "--help", "-h"] {
            assert!(matches!(parse_study(id, &["--help"]), Ok(Command::Help)));
        }
        assert!(matches!(parse_study("--list", &[]), Ok(Command::List)));
        assert!(matches!(parse(Vec::new()), Err(message) if message == "no study named"));
    }

    #[test]
    fn faults_sweep_axis_and_harness_flags_parse_together() {
        let invocation = run(
            "faults_sweep",
            &[
                "--topo",
                "mesh:8x8",
                "--loads",
                "0.3",
                "--max-faults",
                "4",
                "--seed",
                "7",
                "--cycle-budget",
                "50000",
            ],
        );
        let points = &invocation.plan.points;
        assert_eq!(points.len(), 5 * 6, "fault counts 0..=4 x six algorithms");
        assert!(points.iter().all(|p| {
            p.sim().topology == Topology::mesh(&[8, 8])
                && (p.offered_load_value() - 0.3).abs() < 1e-12
        }));
        assert_eq!(
            fault_counts(&invocation),
            (0..=4).flat_map(|count| [count; 6]).collect::<Vec<_>>(),
            "fault-count-major"
        );
        assert_eq!(invocation.options.seed, 7);
        assert_eq!(invocation.options.cycle_budget, Some(50_000));
        assert_eq!(points[0].cycle_budget_value(), Some(50_000));
        let defaults = run("faults_sweep", &[]);
        assert_eq!(
            defaults.plan.points[0].sim().topology,
            Topology::torus(&[8, 8])
        );
        assert_eq!(defaults.plan.points.len(), 9 * 6, "fault counts 0..=8");
        assert!((defaults.plan.points[0].offered_load_value() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_max_faults_is_the_fault_free_baseline_alone() {
        let invocation = run("faults_sweep", &["--max-faults", "0"]);
        assert_eq!(fault_counts(&invocation), vec![0; 6]);
        assert!(error("faults_sweep", &["--max-faults", "-3"]).contains("--max-faults"));
        // More faults than links would repeat the all-links plan.
        let err = error(
            "faults_sweep",
            &["--topo", "torus:4x4", "--max-faults", "65"],
        );
        assert!(err.contains("64 links"), "got: {err}");
        let err = error("faults_sweep", &["--max-faults", "18446744073709551615"]);
        assert!(err.contains("256 links"), "got: {err}");
    }

    #[test]
    fn load_must_be_single_valued() {
        assert!(error("faults_sweep", &["--loads", "0.1,0.5"]).contains("single --loads"));
        assert!(error("faults_sweep", &["--loads", "0.1:0.3:0.1"]).contains("single --loads"));
        assert!(error("faults_sweep", &["--loads", "0"]).contains("(0, 1]"));
        // The removed spellings are unknown flags now.
        assert!(error("faults_sweep", &["--load", "0.1"]).contains("unknown argument"));
        assert!(error("faults_sweep", &["--smoke"]).contains("unknown argument"));
    }

    #[test]
    fn fault_plans_differ_by_count_and_reproduce_by_seed() {
        let topology = Topology::torus(&[8, 8]);
        let plan = |count| fault_plan(&topology, 1993, count);
        assert!(plan(0).is_none(), "baseline stays fault-free");
        let a = plan(3).expect("plan exists");
        let b = plan(3).expect("plan exists");
        assert_eq!(a.faults(), b.faults(), "same seed, same plan");
        assert_eq!(a.faults().len(), 3);
        assert_ne!(plan(2).expect("plan exists").faults(), &a.faults()[..2]);
    }

    #[test]
    fn unrunnable_algorithm_sets_are_usage_errors() {
        for id in ["sweep", "faults_sweep"] {
            let err = error(id, &["--topo", "torus:9x9", "--algos", "nhop,nbc"]);
            assert_eq!(err, "no selected algorithm supports 9x9 torus");
        }
        // Some runnable algorithms left: the rest are skipped.
        let invocation = run("sweep", &["--topo", "torus:9x9", "--algos", "nhop,ecube"]);
        assert!(invocation
            .plan
            .points
            .iter()
            .all(|p| p.sim().algorithm == Ecube));
    }

    #[test]
    fn topology_override_rewrites_spec() {
        let options = parse_options(&["--topo", "torus:8x8"]).unwrap();
        let spec = apply_topology_override(presets::fig4(), &options).unwrap();
        assert_eq!(spec.topology, Topology::torus(&[8, 8]));
        // The corner hotspot moved with the network.
        match &spec.traffic {
            TrafficConfig::Hotspot { nodes, .. } => {
                assert_eq!(nodes, &vec![vec![7, 7]]);
            }
            other => panic!("unexpected traffic {other:?}"),
        }
        // All six paper algorithms run on an even-radix torus.
        assert_eq!(spec.algorithms.len(), 6);
        // An odd-radix torus drops the bipartite-only schemes but keeps
        // the rest runnable.
        let odd = parse_options(&["--topo", "torus:9x9"]).unwrap();
        let spec = apply_topology_override(presets::fig3(), &odd).unwrap();
        assert!(!spec.algorithms.is_empty());
        assert!(spec.algorithms.len() < 6);
        // No override: the spec is untouched.
        let spec = apply_topology_override(presets::fig3(), &parse_options(&[]).unwrap()).unwrap();
        assert_eq!(spec.topology, presets::paper_topology());
        // No runnable algorithm left is an error, not a panic.
        let mut bipartite_only = presets::fig3();
        bipartite_only.algorithms = vec![AlgorithmKind::NegativeHop, NegativeHopBonusCards];
        let err = apply_topology_override(bipartite_only, &odd).unwrap_err();
        assert!(err.contains("9x9"), "got: {err}");
    }
}
