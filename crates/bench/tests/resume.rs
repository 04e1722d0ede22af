//! End-to-end crash/resume determinism: kill `study sweep` partway
//! through (via the test-only `--fail-after-points` crash hook), resume
//! from its journal, and demand the merged CSV is byte-identical to an
//! uninterrupted run with the same seed. A journal torn mid-append heals
//! back to the uninterrupted journal's bytes.

mod common;

use common::{sweep_args, temp_dir, STUDY};
use std::process::Command;

#[test]
fn crashed_sweep_resumes_to_byte_identical_csv() {
    // 1. The reference: an uninterrupted sweep.
    let clean_dir = temp_dir("clean");
    let status = Command::new(STUDY)
        .args(sweep_args(&clean_dir))
        .status()
        .expect("spawn sweep");
    assert!(status.success(), "clean sweep failed: {status}");
    let clean_csv = std::fs::read(clean_dir.join("sweep.csv")).expect("clean CSV written");

    // 2. The crash: the same sweep dies hard after 2 journaled points.
    let crash_dir = temp_dir("crash");
    let status = Command::new(STUDY)
        .args(sweep_args(&crash_dir))
        .args(["--fail-after-points", "2"])
        .status()
        .expect("spawn sweep");
    assert_eq!(status.code(), Some(3), "crash hook must exit 3: {status}");
    let journal = crash_dir.join("sweep.journal.jsonl");
    let journaled = std::fs::read_to_string(&journal).expect("journal survives the crash");
    assert_eq!(
        journaled.lines().count(),
        2,
        "exactly the points completed before the crash are journaled"
    );
    assert!(
        !crash_dir.join("sweep.csv").exists(),
        "the crash happened before any CSV was written"
    );

    // 3. The resume: skip the journaled points, run the rest.
    let output = Command::new(STUDY)
        .args(sweep_args(&crash_dir))
        .args(["--resume", &journal.display().to_string()])
        .output()
        .expect("spawn sweep");
    assert!(output.status.success(), "resume failed: {}", output.status);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("resuming: 2/6 points"),
        "resume must report the spliced points; stderr was:\n{stderr}"
    );

    // 4. The contract: the merged CSV is byte-identical to the clean run.
    let resumed_csv = std::fs::read(crash_dir.join("sweep.csv")).expect("resumed CSV written");
    assert_eq!(
        clean_csv, resumed_csv,
        "resumed sweep must reproduce the uninterrupted CSV byte for byte"
    );
    // And the journal now covers the whole sweep.
    let journaled = std::fs::read_to_string(&journal).expect("journal readable");
    assert_eq!(journaled.lines().count(), 6);

    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

#[test]
fn resume_with_a_complete_journal_runs_nothing_new() {
    let dir = temp_dir("noop");
    let status = Command::new(STUDY)
        .args(sweep_args(&dir))
        .status()
        .expect("spawn sweep");
    assert!(status.success(), "clean sweep failed: {status}");
    let csv = std::fs::read(dir.join("sweep.csv")).expect("CSV written");
    let journal = dir.join("sweep.journal.jsonl");

    let output = Command::new(STUDY)
        .args(sweep_args(&dir))
        .args(["--resume", &journal.display().to_string()])
        .output()
        .expect("spawn sweep");
    assert!(
        output.status.success(),
        "no-op resume failed: {}",
        output.status
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("resuming: 6/6 points"),
        "everything should splice from the journal; stderr was:\n{stderr}"
    );
    let rewritten = std::fs::read(dir.join("sweep.csv")).expect("CSV rewritten");
    assert_eq!(csv, rewritten, "a full-journal resume reproduces the CSV");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_from_a_torn_journal_reports_the_recovery_and_still_matches() {
    // A crash mid-append leaves a half-written final line. The resume must
    // say so out loud (so a crashed fleet run is auditable), drop the torn
    // point, re-run it, and still converge to the byte-identical CSV and
    // journal.
    let dir = temp_dir("torn");
    let status = Command::new(STUDY)
        .args(sweep_args(&dir))
        .status()
        .expect("spawn sweep");
    assert!(status.success(), "clean sweep failed: {status}");
    let clean_csv = std::fs::read(dir.join("sweep.csv")).expect("clean CSV written");
    let journal = dir.join("sweep.journal.jsonl");
    let clean_journal = std::fs::read(&journal).expect("journal readable");
    let keep = clean_journal.len() - 17; // chop mid-way through the final record
    std::fs::write(&journal, &clean_journal[..keep]).expect("write torn journal");

    let output = Command::new(STUDY)
        .args(sweep_args(&dir))
        .args(["--resume", &journal.display().to_string()])
        .output()
        .expect("spawn sweep");
    assert!(output.status.success(), "resume failed: {}", output.status);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("resuming: 5/6 points"),
        "the torn point must not splice; stderr was:\n{stderr}"
    );
    assert!(
        stderr.contains("recovered from a torn final append"),
        "the recovery must be reported; stderr was:\n{stderr}"
    );
    let resumed_csv = std::fs::read(dir.join("sweep.csv")).expect("resumed CSV written");
    assert_eq!(clean_csv, resumed_csv, "torn-resume must reproduce the CSV");
    let healed = std::fs::read(&journal).expect("journal readable");
    assert!(
        healed == clean_journal,
        "the healed journal must match the uninterrupted one byte for byte"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_from_a_missing_journal_is_a_clean_error() {
    let dir = temp_dir("missing");
    let output = Command::new(STUDY)
        .args(sweep_args(&dir))
        .args(["--resume", "/nonexistent/sweep.journal.jsonl"])
        .output()
        .expect("spawn sweep");
    assert_eq!(output.status.code(), Some(1), "got: {}", output.status);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("journal"),
        "the error must name the journal; stderr was:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
