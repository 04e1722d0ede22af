//! Seeded garbage-in for the `study` command-line grammar: argvs built
//! from the real flag names, with values corrupted through
//! `ChaosPlan::coin`, must each parse (`wormsim_bench::study::parse`) to
//! `Ok` or `Err(String)` in bounded time, for every row of the study
//! table, and never panic.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;
use wormsim_bench::study::{self, STUDIES};
use wormsim_bench::{ChaosPlan, SweepOptions};

const SEED: u64 = 1993;
const ARGVS_PER_STUDY: u64 = 20;
/// Far above what any argv takes in a debug build; a parse that spins
/// (a load range whose step cannot move it) trips it.
const PARSE_DEADLINE: Duration = Duration::from_secs(20);

/// Every flag, with a well-formed value to corrupt (`None`: a switch).
const FLAGS: &[(&str, Option<&str>)] = &[
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
    ("--backend", Some("remote")),
    ("--worker", Some("127.0.0.1:4021")),
];

/// Load ranges whose generating loop never ended, or planned millions of
/// points, before ranges were bounded up front.
const HOSTILE_LOADS: &[&str] = &["0.1:1:1e-300", "0.1:inf:0.1", "0.1:1:1e-7", "nan:1:0.1"];

struct Corruptor(ChaosPlan);

impl Corruptor {
    fn pick(&self, salt: u64, counter: u64, below: usize) -> usize {
        (self.0.coin(salt, counter) * below as f64) as usize % below.max(1)
    }

    /// `value` as is, or damaged one of six ways.
    fn corrupt(&self, value: &str, counter: u64) -> String {
        let at = self.pick(2, counter, value.len() + 1);
        match self.pick(1, counter, 7) {
            0 => value.to_owned(),
            1 => value[..at].to_owned(),
            2 => ["nan", "inf", "-inf", "1e-300", "-0"][self.pick(3, counter, 5)].to_owned(),
            3 => [
                "18446744073709551616",
                "4294967296",
                "65536",
                "99999999999999999999",
            ][self.pick(3, counter, 4)]
            .to_owned(),
            4 => String::new(),
            5 => {
                let stray = [':', '@', '+', '^', ','][self.pick(3, counter, 5)];
                format!("{}{stray}{}", &value[..at], &value[at..])
            }
            _ => HOSTILE_LOADS[self.pick(3, counter, HOSTILE_LOADS.len())].to_owned(),
        }
    }

    /// A study id followed by one to five flags, each with a corrupted
    /// value; the last value is sometimes missing altogether.
    fn argv(&self, id: &str, counter: u64) -> Vec<String> {
        let mut argv = vec![id.to_owned()];
        for i in 0..1 + self.pick(4, counter, 5) as u64 {
            let n = counter * 8 + i;
            let (flag, value) = FLAGS[self.pick(5, n, FLAGS.len())];
            argv.push(flag.to_owned());
            if let Some(value) = value {
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
    let known: Vec<&str> = FLAGS.iter().map(|(flag, _)| *flag).collect();
    let harness = SweepOptions::USAGE
        .split(|c: char| c.is_whitespace() || "[]|".contains(c))
        .filter(|word| word.starts_with("--"));
    let axes = STUDIES
        .iter()
        .flat_map(|study| study.axes.iter().map(|axis| axis.flag()));
    for flag in harness.chain(axes) {
        assert!(known.contains(&flag), "{flag} is not exercised");
    }
}

#[test]
fn corrupted_argvs_parse_to_ok_or_err_and_never_panic() {
    let corruptor = Corruptor(ChaosPlan {
        seed: SEED,
        ..Default::default()
    });
    let mut argvs = Vec::new();
    for (s, study) in STUDIES.iter().enumerate() {
        for round in 0..ARGVS_PER_STUDY {
            argvs.push(corruptor.argv(study.id, s as u64 * ARGVS_PER_STUDY + round));
        }
        for loads in HOSTILE_LOADS {
            argvs.push(vec![
                study.id.to_owned(),
                "--loads".to_owned(),
                (*loads).to_owned(),
            ]);
        }
    }
    argvs.push(vec![
        "faults_sweep".into(),
        "--max-faults".into(),
        u64::MAX.to_string(),
    ]);

    // Parse on a thread of its own, so one that never returns fails the
    // test at the deadline instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let corpus = argvs.clone();
    let parser = std::thread::spawn(move || {
        for argv in corpus {
            let parsed =
                panic::catch_unwind(AssertUnwindSafe(|| study::parse(argv.clone()).map(|_| ())));
            if tx.send(parsed.map_err(|_| argv)).is_err() {
                return;
            }
        }
    });
    let (mut accepted, mut rejected) = (0, 0);
    for argv in &argvs {
        match rx.recv_timeout(PARSE_DEADLINE) {
            Ok(Ok(Ok(()))) => accepted += 1,
            Ok(Ok(Err(_))) => rejected += 1,
            Ok(Err(argv)) => panic!("parse panicked on {argv:?}"),
            Err(_) => panic!("parse did not return within {PARSE_DEADLINE:?}: {argv:?}"),
        }
    }
    parser
        .join()
        .expect("the parser thread catches every panic");
    // Both arms are exercised: most damage is caught, and some (an
    // untouched value, a truncation that is still a number) still parses.
    assert!(rejected > 200, "{rejected} rejected");
    assert!(accepted > 100, "{accepted} accepted");
}
