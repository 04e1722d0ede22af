//! The study table: every figure, in-text reading and ablation this
//! repository reproduces, as one row each behind `study <id>`.
//!
//! A row expands, under the command line's [`SweepOptions`], to a list of
//! [`Experiment`] points plus a reducer that prints the table
//! EXPERIMENTS.md records from their results. The points run through
//! [`run_sweep`](crate::run_sweep), so every study gets threads, the
//! journal, `--resume`, retries, budgets and `--backend remote`. Rows that
//! are not one sweep named after the study keep a custom runner over the
//! same points: the figures (one sweep per figure, under the figure's own
//! journal and CSV name), an adaptive bisection, and a raw engine run.

use crate::figure::{apply_topology_override, run_figure_or_exit};
use crate::options::SweepOptions;
use crate::report::{peak_utilization, print_figure, print_paper_comparison, write_csv};
use crate::sweep::{run_points_or_exit, SweepPlan};
use wormsim::presets::{self, FigureSpec};
use wormsim::AlgorithmKind::{
    self, Ecube, NegativeHopBonusCards, NorthLast, PositiveHop, TwoPowerN,
};
use wormsim::{
    Experiment, MeasurementSchedule, MessageLength, RunResult, SelectionPolicy, Switching,
    Topology, TrafficConfig,
};

/// One reproducible study: a row of [`STUDIES`].
pub struct Study {
    /// The name after `study` on the command line (DESIGN.md §2).
    pub id: &'static str,
    /// What the study regenerates, in one line (`study --list`).
    pub about: &'static str,
    /// Whether the study's points pin their own networks, which makes
    /// `--topo` a usage error rather than a silently ignored flag.
    pub pins_topology: bool,
    plan: fn(&SweepOptions) -> Plan,
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

const fn study(id: &'static str, about: &'static str, plan: fn(&SweepOptions) -> Plan) -> Study {
    Study {
        id,
        about,
        pins_topology: false,
        plan,
    }
}

const fn pinned(id: &'static str, about: &'static str, plan: fn(&SweepOptions) -> Plan) -> Study {
    Study {
        pins_topology: true,
        ..study(id, about, plan)
    }
}

/// Every study, in DESIGN.md §2 order.
#[rustfmt::skip] // one row per line
pub static STUDIES: &[Study] = &[
    study("fig3", "Figure 3: uniform traffic of 16-flit worms", |o| figure(presets::fig3(), o)),
    study("fig4", "Figure 4: 4% hotspot traffic at node (15,15)", |o| figure(presets::fig4(), o)),
    study("fig5", "Figure 5: local traffic with 0.4 locality", |o| figure(presets::fig5(), o)),
    study("vct", "Section 3.4: virtual cut-through", |o| figure(presets::vct_section_3_4(), o)),
    study("headline", "all four figure families and the paper-vs-measured table", headline),
    study("ablation_selection", "ablation: adaptive candidate-selection policy", selection),
    study("ablation_vcs", "ablation: physical VCs per routing class (Dally 1992)", vcs),
    study("ablation_congestion", "ablation: the input-buffer-limit congestion control", congestion),
    study("ablation_buffers", "ablation: per-VC flit-buffer depth", buffers),
    study("ablation_length", "ablation: message length 16/20/24 and the 15/31 mix", length),
    study("saturation_study", "in-text saturation readings, by bisection on load", saturation),
    study("transpose_check", "cross-check: nlast vs e-cube on three permutations", transpose),
    pinned("hotspot_placement", "hotspot-placement sensitivity on the 16x16 torus", hotspot),
    study("channel_balance", "channel and VC-class load balance at 0.3 (raw engine run)", balance),
    pinned("multidim", "future work: six algorithms on an 8x8x8 torus and a 16x16 mesh", multidim),
    study("switching_comparison", "wormhole vs cut-through vs store-and-forward", switching),
    pinned("tune", "parameter matrix behind the defaults (16x16, quick, seed 42)", tune),
];

/// Looks a study up by id.
pub fn find(id: &str) -> Option<&'static Study> {
    STUDIES.iter().find(|study| study.id == id)
}

impl Study {
    /// Rejects flags the study cannot honour.
    ///
    /// # Errors
    ///
    /// A usage message naming the study when `--topo` is given to a study
    /// that pins its own networks.
    pub fn check(&self, options: &SweepOptions) -> Result<(), String> {
        if self.pins_topology && options.topology.is_some() {
            return Err(format!(
                "study {} pins its own network(s); it cannot honour --topo",
                self.id
            ));
        }
        Ok(())
    }

    /// The study's experiments, in schedule order.
    pub fn points(&self, options: &SweepOptions) -> Vec<Experiment> {
        (self.plan)(options).points
    }

    /// Runs the study for the `study` binary and prints its table,
    /// leaving through the shared exit path (see
    /// [`run_sweep_or_exit`](crate::run_sweep_or_exit)) when a sweep does
    /// not complete whole.
    pub fn run(&self, options: &SweepOptions) {
        let plan = (self.plan)(options);
        match plan.run {
            Run::Report(report) => {
                eprintln!("running {} ({} points)...", self.id, plan.points.len());
                let sweep = SweepPlan::named(self.id, plan.points, options);
                report(&run_points_or_exit(&sweep, options));
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
    let results = run_figure_or_exit(spec, options);
    print(&results);
    print_paper_comparison(&spec.id, &results);
    match write_csv(&spec.id, &results, &options.out_dir) {
        Ok(path) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}

fn figure(spec: FigureSpec, options: &SweepOptions) -> Plan {
    let spec = apply_topology_override(spec, options);
    let options = options.clone();
    custom(figure_points(&spec, &options), move |_| {
        regenerate(&spec, &options, |results| print_figure(&spec, results));
    })
}

/// The four figures back to back, each reduced to its peak list.
fn headline(options: &SweepOptions) -> Plan {
    let figures: Vec<FigureSpec> = presets::all_figures()
        .into_iter()
        .map(|spec| apply_topology_override(spec, options))
        .collect();
    let points = figures
        .iter()
        .flat_map(|spec| figure_points(spec, options))
        .collect();
    let options = options.clone();
    custom(points, move |_| {
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
    })
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
/// registry counting flits per channel. The points sit at a moderate 30%
/// load so nothing is saturated: imbalance is then a property of the
/// algorithm, not of congestion.
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
            let channels = &net
                .metrics_registry()
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
                cov(channels),
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
