//! Figure sweeps: a [`FigureSpec`] expanded to its `(algorithm, load)`
//! points and run through [`run_sweep`](crate::run_sweep).

use crate::options::SweepOptions;
use crate::sweep::SweepPlan;
use wormsim::presets::FigureSpec;

/// The fail-fast plan of a figure's `(algorithm, load)` points, in
/// deterministic order (algorithm-major, load-minor).
pub fn figure_plan(spec: &FigureSpec, options: &SweepOptions) -> SweepPlan {
    SweepPlan::named(
        &spec.id,
        wormsim::presets::experiments_for(spec, options.schedule, options.seed),
        options,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::journal::Journal;
    use crate::report::{latency_at, peak_utilization, write_csv};
    use crate::sweep::{run_sweep, ExperimentsRun};
    use std::path::Path;
    use wormsim::{format_sweep_csv, presets, MeasurementSchedule, RunOutcome, RunResult};

    pub(crate) fn temp_out_dir(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("wormsim-bench-{}-{name}", std::process::id()))
            .display()
            .to_string()
    }

    pub(crate) fn tiny_spec() -> FigureSpec {
        let mut spec = presets::fig3();
        spec.loads = vec![0.1, 0.3];
        spec.algorithms = vec![
            wormsim::AlgorithmKind::Ecube,
            wormsim::AlgorithmKind::PositiveHop,
        ];
        spec
    }

    /// Runs the figure's plan the way the binaries do, short of exiting.
    fn run(spec: &FigureSpec, options: &SweepOptions) -> (SweepPlan, ExperimentsRun) {
        let plan = figure_plan(spec, options);
        let run = run_sweep(&plan, options).expect("the harness itself does not fail");
        (plan, run)
    }

    /// The results of a sweep that must have completed whole, in sweep
    /// order (algorithm-major, load-minor).
    fn complete(spec: &FigureSpec, options: &SweepOptions) -> Vec<RunResult> {
        let (plan, run) = run(spec, options);
        assert_eq!(run.first_config_error(&plan), None);
        assert!(
            !run.interrupted && run.quarantined.is_empty(),
            "sweep unexpectedly did not complete: {run:?}"
        );
        run.outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every point ran").expect("valid point"))
            .collect()
    }

    #[test]
    fn harness_runs_a_tiny_figure() {
        // A reduced fig3: two algorithms, two loads, quick schedule.
        let spec = tiny_spec();
        let options = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            seed: 5,
            out_dir: temp_out_dir("tiny-figure"),
            threads: 4,
            ..SweepOptions::default()
        };
        let results = complete(&spec, &options);
        assert_eq!(results.len(), 4);
        // Ordering: algorithm-major, load-minor.
        assert_eq!(results[0].algorithm, "ecube");
        assert!((results[0].offered_load - 0.1).abs() < 1e-12);
        assert_eq!(results[3].algorithm, "phop");
        assert!((results[3].offered_load - 0.3).abs() < 1e-12);
        let path = write_csv("test", &results, &options.out_dir).unwrap();
        let csv = std::fs::read_to_string(path).unwrap();
        assert_eq!(csv.lines().count(), 5);
        assert!(peak_utilization(&results, "phop") > 0.2);
        assert!(latency_at(&results, "ecube", 0.1) > 15.0);
        std::fs::remove_dir_all(&options.out_dir).ok();
    }

    #[test]
    fn sweep_error_names_the_first_failing_point() {
        // Load 9.0 is invalid, so the second point of each series fails.
        // One worker thread makes "first error wins" exact: index 1.
        let mut spec = tiny_spec();
        spec.loads = vec![0.1, 9.0];
        let options = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            threads: 1,
            out_dir: temp_out_dir("first-failure"),
            ..SweepOptions::default()
        };
        let (plan, run) = run(&spec, &options);
        let error = run
            .first_config_error(&plan)
            .expect("invalid load must fail the sweep");
        assert_eq!(error.index, 1);
        assert_eq!(error.algorithm, "ecube");
        assert!((error.offered_load - 9.0).abs() < 1e-12);
        assert!(matches!(
            error.source,
            wormsim::ExperimentError::InvalidLoad { .. }
        ));
        let message = error.to_string();
        assert!(message.contains("ecube"), "got: {message}");
        assert!(message.contains('9'), "got: {message}");
        use std::error::Error as _;
        assert!(error.source().is_some());
        std::fs::remove_dir_all(&options.out_dir).ok();
    }

    #[test]
    fn injected_panic_is_isolated_and_recorded() {
        // One point panics; the sweep must still complete, with the panic
        // rendered as a Harness outcome rather than poisoning the pool.
        // retries: 0 so the panic is recorded on the first attempt.
        let spec = tiny_spec();
        let options = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            seed: 5,
            out_dir: temp_out_dir("inject-panic"),
            threads: 2,
            retries: 0,
            inject_panic: Some(2),
            ..SweepOptions::default()
        };
        let results = complete(&spec, &options);
        assert_eq!(results.len(), 4);
        let RunOutcome::Harness(info) = &results[2].outcome else {
            panic!(
                "expected a harness panic outcome, got {:?}",
                results[2].outcome
            );
        };
        assert!(info.message.contains("injected"), "got: {}", info.message);
        assert_eq!(
            results[2].samples, 0,
            "panicked point carries no statistics"
        );
        for (i, r) in results.iter().enumerate() {
            if i != 2 {
                assert!(r.outcome.has_statistics(), "point {i} ran normally");
            }
        }
        std::fs::remove_dir_all(&options.out_dir).ok();
    }

    #[test]
    fn pre_tripped_shutdown_interrupts_before_dispatch() {
        let spec = tiny_spec();
        let options = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            seed: 5,
            out_dir: temp_out_dir("pre-tripped"),
            threads: 2,
            ..SweepOptions::default()
        };
        options.shutdown.cancel();
        let (plan, run) = run(&spec, &options);
        assert!(run.interrupted, "pre-tripped shutdown must interrupt");
        assert_eq!(run.first_config_error(&plan), None);
        assert_eq!(run.outcomes.len(), 4);
        assert!(run.outcomes.iter().all(Option::is_none), "nothing ran");
        assert!(run.journal.exists(), "journal path must exist for the hint");
        std::fs::remove_dir_all(&options.out_dir).ok();
    }

    #[test]
    fn resume_skips_journaled_points_and_matches_clean_run() {
        let spec = tiny_spec();
        let out_dir = temp_out_dir("resume-unit");
        let base = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            seed: 5,
            out_dir: out_dir.clone(),
            threads: 1,
            ..SweepOptions::default()
        };
        // Clean reference run.
        let clean = complete(&spec, &base);
        let journal_path = Path::new(&out_dir).join("fig3.journal.jsonl");
        assert!(journal_path.exists());

        // Truncate the journal to its first two points (simulated crash),
        // then resume: the two journaled points are spliced, two re-run.
        let text = std::fs::read_to_string(&journal_path).unwrap();
        let truncated: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(&journal_path, truncated).unwrap();
        let resumed_options = SweepOptions {
            resume: Some(journal_path.display().to_string()),
            ..base
        };
        let resumed = complete(&spec, &resumed_options);
        assert_eq!(
            format_sweep_csv(&clean),
            format_sweep_csv(&resumed),
            "resumed sweep must be byte-identical to the clean run"
        );
        // The journal is whole again after the resume.
        let journal = Journal::load(&journal_path).unwrap();
        assert_eq!(journal.len(), 4);
        std::fs::remove_dir_all(&out_dir).ok();
    }
}
