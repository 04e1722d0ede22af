//! Resume identity: a sweep resumed from a journal with gaps — the points
//! a crash left unfinished sit *between* journaled ones — must leave the
//! same journal bytes as the uninterrupted run, not only the same CSV.

use std::path::PathBuf;
use wormsim::{AlgorithmKind, Experiment, MeasurementSchedule, Topology};
use wormsim_bench::{run_sweep, SweepOptions, SweepPlan};
use wormsim_suite::temp_dir;

#[test]
fn resume_from_a_gapped_journal_rewrites_the_clean_journal_bytes() {
    let experiments: Vec<Experiment> = [AlgorithmKind::Ecube, AlgorithmKind::PositiveHop]
        .into_iter()
        .flat_map(|algorithm| {
            [0.05, 0.1].map(|load| {
                Experiment::new(Topology::torus(&[4, 4]), algorithm)
                    .offered_load(load)
                    .quick()
                    .seed(1993)
            })
        })
        .collect();
    let plan = SweepPlan::new(experiments);
    let options = |out_dir: &PathBuf, resume: Option<String>| SweepOptions {
        schedule: MeasurementSchedule::quick(),
        out_dir: out_dir.display().to_string(),
        threads: 2,
        resume,
        ..SweepOptions::default()
    };

    let clean_dir = temp_dir("resume-identity-clean");
    let clean = run_sweep(&plan, &options(&clean_dir, None)).expect("clean sweep");
    assert!(!clean.interrupted);
    let clean_bytes = std::fs::read_to_string(&clean.journal).expect("clean journal");
    assert_eq!(clean_bytes.lines().count(), 4);

    // A crash that journaled points 1 and 3 but not 0 and 2.
    let gapped_dir = temp_dir("resume-identity-gapped");
    std::fs::create_dir_all(&gapped_dir).unwrap();
    let gapped = gapped_dir.join("sweep.journal.jsonl");
    let kept: String = clean_bytes
        .lines()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, line)| format!("{line}\n"))
        .collect();
    std::fs::write(&gapped, kept).unwrap();

    let resume = Some(gapped.display().to_string());
    let resumed = run_sweep(&plan, &options(&gapped_dir, resume)).expect("resumed sweep");
    assert_eq!(resumed.resumed, 2);
    assert_eq!(
        std::fs::read_to_string(&gapped).unwrap(),
        clean_bytes,
        "the resumed journal must be byte-identical to the clean one"
    );
    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&gapped_dir).ok();
}
