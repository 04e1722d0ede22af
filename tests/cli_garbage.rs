//! Seeded garbage-in for the command lines of all five bins: argvs built
//! from the real flag tables, with flag names and values corrupted through
//! `ChaosPlan::coin`, must each parse to `Ok` or `Err(String)` in bounded
//! time and never panic — for every row of the study table, every `perf`
//! preset, and `verify`, `inspect` and `wormsim-worker`.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;
use wormsim_bench::cli::{self, Args, InspectArgs, VerifyArgs};
use wormsim_bench::perf::{self, PRESETS};
use wormsim_bench::study::{self, StudyArgs, STUDIES};
use wormsim_bench::worker::WorkerConfig;
use wormsim_bench::ChaosPlan;

const SEED: u64 = 1993;
const ARGVS_PER_HEAD: u64 = 40;
/// Far above what any argv takes in a debug build; a parse that spins
/// (a load range whose step cannot move it) trips it.
const PARSE_DEADLINE: Duration = Duration::from_secs(20);

/// A well-formed value for every flag of every table (`None`: a switch).
/// A table flag missing here fails `the_flag_table_covers_the_whole_grammar`.
const EXAMPLES: &[(&str, Option<&str>)] = &[
    ("--list", None),
    ("--algos", Some("ecube,phop")),
    ("--loads", Some("0.1:0.5:0.1")),
    ("--traffic", Some("hotspot:3,3+5,5@0.04")),
    ("--switching", Some("wh:4")),
    ("--max-faults", Some("2")),
    ("--quick", None),
    ("--saturation", None),
    ("--topo", Some("torus:6x6")),
    ("--seed", Some("1993")),
    ("--out", Some("out")),
    ("--threads", Some("2")),
    ("--observe", Some("obs")),
    ("--trace-out", Some("traces")),
    ("--sample-every", Some("300")),
    ("--metrics", None),
    ("--cycle-budget", Some("30000")),
    ("--wall-budget", Some("2.5")),
    ("--resume", Some("out/sweep.journal.jsonl")),
    ("--salvage", None),
    ("--retries", Some("1")),
    ("--point-deadline", Some("0.5")),
    ("--hedge-after", Some("5")),
    ("--quarantine-after", Some("3")),
    ("--fail-after-points", Some("2")),
    ("--worker", Some("127.0.0.1:4021")),
    ("--load", Some("0.3")),
    ("--cycles", Some("400")),
    ("--warmup", Some("100")),
    ("--smoke", None),
    ("--max-overhead-pct", Some("40")),
    ("--check", Some("BENCH_engine.json")),
    ("--node-faults", None),
    ("--random-plans", Some("2")),
    ("--random-faults", Some("2")),
    ("--transient-plans", Some("1")),
    ("--transient-faults", Some("1")),
    ("--top", Some("3")),
    ("--listen", Some("127.0.0.1:0")),
    ("--drain-secs", Some("5")),
    (
        "--chaos",
        Some("seed=7,crash-submit=3,corrupt=0.2,delay-ms=50@0.5"),
    ),
];

/// Load ranges whose generating loop never ended, or planned millions of
/// points, before ranges were bounded up front.
const HOSTILE_LOADS: &[&str] = &["0.1:1:1e-300", "0.1:inf:0.1", "0.1:1:1e-7", "nan:1:0.1"];

/// One bin: its flag table, the positional arguments each fuzzed argv
/// starts with (one per study row or perf preset), and its parser.
struct Bin {
    name: &'static str,
    flags: Vec<&'static str>,
    heads: Vec<Vec<String>>,
    parse: fn(Vec<String>) -> Result<(), String>,
}

fn parsed<T: Args>(argv: Vec<String>) -> Result<(), String> {
    cli::parse::<T>(argv).map(drop)
}

fn bin<T: Args>(
    name: &'static str,
    heads: &[&str],
    parse: fn(Vec<String>) -> Result<(), String>,
) -> Bin {
    Bin {
        name,
        flags: T::flags().iter().map(|flag| flag.name).collect(),
        heads: heads
            .iter()
            .map(|head| head.split_whitespace().map(str::to_owned).collect())
            .collect(),
        parse,
    }
}

fn bins() -> Vec<Bin> {
    let studies: Vec<&str> = STUDIES.iter().map(|study| study.id).collect();
    let presets: Vec<&str> = PRESETS.iter().map(|preset| preset.id).collect();
    vec![
        bin::<StudyArgs>("study", &studies, |argv| study::parse(argv).map(drop)),
        bin::<perf::Options>("perf", &presets, parsed::<perf::Options>),
        bin::<VerifyArgs>("verify", &[""], parsed::<VerifyArgs>),
        bin::<InspectArgs>("inspect", &["obs", "obs before"], parsed::<InspectArgs>),
        bin::<WorkerConfig>("wormsim-worker", &[""], parsed::<WorkerConfig>),
    ]
}

fn example(flag: &str) -> Option<Option<&'static str>> {
    EXAMPLES
        .iter()
        .find(|(name, _)| *name == flag)
        .map(|(_, value)| *value)
}

struct Corruptor(ChaosPlan);

impl Corruptor {
    /// A coin's 52 bits, mixed by a multiplicative hash: consecutive
    /// counters differ only in the coin's low bits.
    fn pick(&self, salt: u64, counter: u64, below: usize) -> usize {
        let bits = (self.0.coin(salt, counter) * (1u64 << 52) as f64) as u64;
        (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % below.max(1)
    }

    /// `value` as is (half the time), or damaged one of six ways.
    fn corrupt(&self, value: &str, counter: u64) -> String {
        let at = self.pick(2, counter, value.len() + 1);
        match self.pick(1, counter, 12) {
            0 => value[..at].to_owned(),
            1 => ["nan", "inf", "-inf", "1e-300", "-0"][self.pick(3, counter, 5)].to_owned(),
            2 => [
                "18446744073709551616",
                "4294967296",
                "65536",
                "99999999999999999999",
            ][self.pick(3, counter, 4)]
            .to_owned(),
            3 => String::new(),
            4 => {
                let stray = [':', '@', '+', '^', ','][self.pick(3, counter, 5)];
                format!("{}{stray}{}", &value[..at], &value[at..])
            }
            5 => HOSTILE_LOADS[self.pick(3, counter, HOSTILE_LOADS.len())].to_owned(),
            _ => value.to_owned(),
        }
    }

    /// `head` followed by one to five of `flags`, each with a corrupted
    /// value; now and then a flag name is cut short or a stray positional
    /// argument slips in, and the last value is sometimes missing.
    fn argv(&self, head: &[String], flags: &[&str], counter: u64) -> Vec<String> {
        let mut argv = head.to_vec();
        for i in 0..1 + self.pick(4, counter, 5) as u64 {
            let n = counter * 8 + i;
            let flag = flags[self.pick(5, n, flags.len())];
            match self.pick(7, n, 24) {
                0 => argv.push(flag[..2 + self.pick(8, n, flag.len() - 2)].to_owned()),
                1 => argv.push("stray".to_owned()),
                _ => argv.push(flag.to_owned()),
            }
            if let Some(Some(value)) = example(flag) {
                argv.push(self.corrupt(value, n));
            }
        }
        if self.pick(6, counter, 8) == 0 {
            argv.pop();
        }
        argv
    }
}

#[test]
fn the_flag_table_covers_the_whole_grammar() {
    for bin in bins() {
        let usage = match bin.name {
            "study" => cli::usage::<StudyArgs>(),
            "perf" => cli::usage::<perf::Options>(),
            "verify" => cli::usage::<VerifyArgs>(),
            "inspect" => cli::usage::<InspectArgs>(),
            _ => cli::usage::<WorkerConfig>(),
        };
        assert!(
            usage.starts_with(&format!("usage: {}", bin.name)),
            "{usage}"
        );
        for flag in &bin.flags {
            assert!(
                example(flag).is_some(),
                "{} {flag} has no example value",
                bin.name
            );
            assert!(
                usage.contains(&format!("[{flag}")),
                "{} usage lacks {flag}",
                bin.name
            );
        }
    }
    // Every axis flag a study row declares is a flag of `study`'s table.
    let study = &bins()[0];
    for axis in STUDIES.iter().flat_map(|study| study.axes) {
        assert!(study.flags.contains(&axis.flag()), "{axis:?}");
    }
}

#[test]
fn corrupted_argvs_parse_to_ok_or_err_and_never_panic() {
    let corruptor = Corruptor(ChaosPlan {
        seed: SEED,
        ..Default::default()
    });
    let mut counter = 0;
    let mut corpus = Vec::new();
    for (b, bin) in bins().into_iter().enumerate() {
        for head in &bin.heads {
            for _ in 0..ARGVS_PER_HEAD {
                corpus.push((b, corruptor.argv(head, &bin.flags, counter)));
                counter += 1;
            }
            for loads in HOSTILE_LOADS {
                for flag in ["--loads", "--load"]
                    .iter()
                    .filter(|f| bin.flags.contains(f))
                {
                    let mut argv = head.clone();
                    argv.extend([flag.to_string(), loads.to_string()]);
                    corpus.push((b, argv));
                }
            }
        }
    }
    corpus.push((
        0,
        ["faults_sweep", "--max-faults"].map(str::to_owned).to_vec(),
    ));
    corpus.last_mut().unwrap().1.push(u64::MAX.to_string());

    // Parse on a thread of its own, so one that never returns fails the
    // test at the deadline instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let argvs = corpus.clone();
    let parser = std::thread::spawn(move || {
        let bins = bins();
        for (b, argv) in argvs {
            let parse = bins[b].parse;
            let parsed = panic::catch_unwind(AssertUnwindSafe(|| parse(argv.clone())));
            if tx.send(parsed.map_err(|_| argv)).is_err() {
                return;
            }
        }
    });
    let names: Vec<&str> = bins().iter().map(|bin| bin.name).collect();
    let (mut accepted, mut rejected) = (vec![0; names.len()], vec![0; names.len()]);
    for (b, argv) in &corpus {
        match rx.recv_timeout(PARSE_DEADLINE) {
            Ok(Ok(Ok(()))) => accepted[*b] += 1,
            Ok(Ok(Err(_))) => rejected[*b] += 1,
            Ok(Err(argv)) => panic!("parse panicked on {argv:?}"),
            Err(_) => panic!("parse did not return within {PARSE_DEADLINE:?}: {argv:?}"),
        }
    }
    parser
        .join()
        .expect("the parser thread catches every panic");
    // Both arms are exercised for every bin: most damage is caught, and
    // some (an untouched value, a truncation that is still a number) still
    // parses.
    for (b, name) in names.iter().enumerate() {
        assert!(
            accepted[b] > 0 && rejected[b] > 0,
            "{name}: {} accepted, {} rejected",
            accepted[b],
            rejected[b]
        );
    }
    assert!(rejected[0] > 200, "study: {} rejected", rejected[0]);
    assert!(accepted[0] > 100, "study: {} accepted", accepted[0]);
}
