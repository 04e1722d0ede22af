//! The run journal: crash-safe checkpointing for sweeps.
//!
//! A journal is a JSONL file with one record per *completed* sweep point,
//! keyed by the point's [`Experiment::point_hash`] — a digest of everything
//! that determines the simulation (config, seed, fault plan). Every record
//! rewrites the whole file through [`atomic_write`], so a crash at any
//! instant leaves either the previous journal or the new one on disk,
//! never a torn line. Sweeps resumed with `--resume <journal>` skip the
//! journaled points and splice their recorded results back in; because the
//! record preserves every [`RunResult`] field exactly (including float bit
//! patterns), the merged CSV is byte-identical to an uninterrupted run.
//!
//! The journal orders itself: its lines are kept sorted by
//! [`JournalEntry::index`] (stable on ties), whatever order the points
//! finish in. A sweep records each point the moment it finishes, so the
//! file holds every finished point, and once the sweep is whole its bytes
//! are the same whether it ran on one thread, many, or remote workers, in
//! one go or across crashes and resumes.
//!
//! Journals are small — one line per sweep point, tens to a few hundred
//! lines — so the rewrite-on-record costs microseconds and buys atomicity
//! without platform-specific append/fsync reasoning.
//!
//! [`Experiment::point_hash`]: wormsim::Experiment::point_hash

use std::fmt;
use std::path::{Path, PathBuf};
use wormsim::observe::{atomic_write, json, json_record, JsonRecord};
use wormsim::RunResult;

/// One journaled point: where it sat in the sweep, how many attempts it
/// took, and the full result.
#[derive(Clone, Debug)]
pub struct JournalEntry {
    /// The point's stable configuration digest.
    pub point_hash: String,
    /// Index in the sweep's deterministic order when recorded: the key the
    /// journal sorts its lines by. Lookups go by hash, so a reordered sweep
    /// still resumes correctly.
    pub index: usize,
    /// Attempts the point took (1 = first try).
    pub attempts: u64,
    /// What the triage-aware retry policy decided, when it engaged
    /// (`confirmed_unsafe_no_retry`, `budget_artifact_retried`, ...).
    /// Absent for points the policy never touched, and absent in journals
    /// written before the policy existed.
    pub retry_decision: Option<String>,
    /// The recorded measurement.
    pub result: RunResult,
}

// `retry_decision` appears only when the policy engaged, so journals from
// before the policy existed read the same way as points it never touched.
json_record!(JournalEntry {
    point_hash,
    index,
    attempts,
    retry_decision?,
    result,
});

/// Why a journal could not be opened or written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// Filesystem trouble, rendered.
    Io {
        /// The journal path involved.
        path: String,
        /// The underlying error.
        message: String,
    },
    /// A line that is not a valid journal record — the journal is from a
    /// different version, hand-edited, or not a journal at all. Refusing
    /// to resume beats silently re-running everything.
    Parse {
        /// The journal path involved.
        path: String,
        /// 1-based line number of the bad record.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, message } => {
                write!(f, "journal {path}: {message}")
            }
            JournalError::Parse {
                path,
                line,
                message,
            } => write!(f, "journal {path} line {line}: {message}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// The completed points of a sweep, kept in schedule order and atomically
/// persisted on every record.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// Every entry, sorted by index; ties keep record order.
    entries: Vec<JournalEntry>,
    /// Each entry's serialized line (newline included), parallel to
    /// `entries` — concatenated and rewritten to disk wholesale so the
    /// on-disk file is always internally consistent.
    lines: Vec<String>,
    /// Whether [`Journal::load`] dropped a torn trailing line.
    recovered_truncation: bool,
}

impl Journal {
    /// Starts a fresh journal at `path`, creating parent directories and
    /// writing an empty file immediately so the path named in a resume
    /// hint exists even if no point ever completes.
    pub fn create(path: impl Into<PathBuf>) -> Result<Journal, JournalError> {
        let path = path.into();
        let io = |e: std::io::Error| JournalError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(io)?;
            }
        }
        atomic_write(&path, "").map_err(io)?;
        Ok(Journal {
            path,
            entries: Vec::new(),
            lines: Vec::new(),
            recovered_truncation: false,
        })
    }

    /// Opens an existing journal, parsing every record. Later lines win on
    /// duplicate hashes (a retried resume may re-record a point). Lines
    /// out of index order, as older versions wrote after a crash, are
    /// sorted in memory and written sorted on the next record.
    ///
    /// An unparseable *final* line is treated as a mid-append crash
    /// artifact: the valid prefix loads with a warning on stderr (and
    /// [`recovered_truncation`](Journal::recovered_truncation) set), and
    /// the torn line is dropped — the next persist rewrites the file
    /// without it. An unparseable line *followed by* valid records cannot
    /// be truncation, so it still fails the load: refusing to resume from
    /// a journal with a hole beats silently re-running points. For a
    /// deliberate rescue of such a journal, see
    /// [`load_salvaging`](Journal::load_salvaging).
    pub fn load(path: impl Into<PathBuf>) -> Result<Journal, JournalError> {
        Self::load_inner(path.into(), false).map(|(journal, _)| journal)
    }

    /// Opens a journal the strict [`load`](Journal::load) would refuse:
    /// every parseable line — prefix *and* suffix around corrupted
    /// mid-file records — is recovered, and every bad line is returned so
    /// the caller can quarantine it to a sidecar. The in-memory journal
    /// contains only the valid records, so the next persist rewrites the
    /// file clean; the points on the bad lines simply re-run.
    ///
    /// This is deliberate-action API (`--resume --salvage`), not default
    /// behavior: silently accepting a journal with holes would hide real
    /// corruption.
    ///
    /// # Errors
    ///
    /// Filesystem errors only — in salvage mode no line is fatal.
    pub fn load_salvaging(
        path: impl Into<PathBuf>,
    ) -> Result<(Journal, Vec<SalvagedLine>), JournalError> {
        Self::load_inner(path.into(), true)
    }

    fn load_inner(
        path: PathBuf,
        salvage: bool,
    ) -> Result<(Journal, Vec<SalvagedLine>), JournalError> {
        let text = std::fs::read_to_string(&path).map_err(|e| JournalError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let mut journal = Journal {
            path: path.clone(),
            entries: Vec::new(),
            lines: Vec::new(),
            recovered_truncation: false,
        };
        let mut salvaged = Vec::new();
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .collect();
        for (position, &(number, line)) in lines.iter().enumerate() {
            let parse = |message: String| JournalError::Parse {
                path: path.display().to_string(),
                line: number + 1,
                message,
            };
            let parsed = json::from_str(line)
                .map_err(|e| parse(e.to_string()))
                .and_then(|value| JournalEntry::from_json(&value).map_err(parse));
            match parsed {
                Ok(entry) => journal.push(entry),
                Err(error) if salvage => salvaged.push(SalvagedLine {
                    line: number + 1,
                    error: error.to_string(),
                    text: line.to_owned(),
                }),
                Err(error) if position + 1 == lines.len() => {
                    eprintln!(
                        "warning: {error}; treating it as a torn append and resuming from the {} valid point(s) before it",
                        journal.entries.len()
                    );
                    journal.recovered_truncation = true;
                }
                Err(error) => return Err(error),
            }
        }
        Ok((journal, salvaged))
    }

    /// Where salvage quarantines bad lines: the journal path with a
    /// `.corrupt.jsonl` suffix (`sweep.journal.jsonl` →
    /// `sweep.journal.corrupt.jsonl`).
    pub fn salvage_sidecar(path: &Path) -> PathBuf {
        sidecar_path(path, "corrupt.jsonl")
    }

    /// Where the supervisor quarantines poison points: the journal path
    /// with a `.quarantine.jsonl` suffix (`sweep.journal.jsonl` →
    /// `sweep.journal.quarantine.jsonl`).
    pub fn quarantine_sidecar(path: &Path) -> PathBuf {
        sidecar_path(path, "quarantine.jsonl")
    }

    /// Where the sweep writes its supervision manifest — counters for
    /// written-off workers, hedges, quarantines, salvaged lines, and
    /// retry decisions (`sweep.journal.jsonl` →
    /// `sweep.journal.supervision.json`). Only written when at least one
    /// of those is nonzero, so a healthy sweep leaves no manifest.
    pub fn supervision_sidecar(path: &Path) -> PathBuf {
        sidecar_path(path, "supervision.json")
    }

    /// Inserts `entry` after every entry whose index is not greater.
    fn push(&mut self, entry: JournalEntry) {
        let at = self.entries.partition_point(|e| e.index <= entry.index);
        let mut line = entry.to_json();
        line.push('\n');
        self.lines.insert(at, line);
        self.entries.insert(at, entry);
    }

    /// Records a completed point in its place by index and atomically
    /// persists the journal: the point is on disk when this returns, even
    /// while points before it are still running.
    ///
    /// # Errors
    ///
    /// Filesystem errors from the atomic rewrite.
    pub fn record(&mut self, entry: JournalEntry) -> Result<(), JournalError> {
        self.push(entry);
        atomic_write(&self.path, self.lines.concat()).map_err(|e| JournalError::Io {
            path: self.path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Looks up a completed point by its configuration digest; the later
    /// line wins when two share it.
    pub fn get(&self, point_hash: &str) -> Option<&JournalEntry> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.point_hash == point_hash)
    }

    /// Number of journaled points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no point has been journaled yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every journaled point, in file (index) order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Whether [`Journal::load`] dropped an unparseable trailing line
    /// (mid-append crash recovery).
    pub fn recovered_truncation(&self) -> bool {
        self.recovered_truncation
    }

    /// Where the journal lives on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Swaps a journal path's trailing `jsonl` extension for `suffix`
/// (appending when the extension is something else entirely).
fn sidecar_path(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    if let Some(stem) = name.strip_suffix(".jsonl") {
        name = format!("{stem}.{suffix}");
    } else {
        name = format!("{name}.{suffix}");
    }
    path.with_file_name(name)
}

/// One journal line the salvage loader could not parse, handed back so
/// the caller can quarantine it.
#[derive(Clone, Debug)]
pub struct SalvagedLine {
    /// 1-based line number in the original journal.
    pub line: usize,
    /// Why it failed to parse.
    pub error: String,
    /// The raw line, verbatim.
    pub text: String,
}

json_record!(SalvagedLine { line, error, text });

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim::stats::{ConfidenceInterval, ConvergenceStatus};
    use wormsim::{RunOutcome, RunResult};

    fn result(load: f64) -> RunResult {
        RunResult {
            algorithm: "phop".into(),
            traffic: "uniform".into(),
            offered_load: load,
            injection_rate: 0.0123456789012345,
            latency: ConfidenceInterval::new(31.25, 0.75),
            latency_percentiles: [28, 40, 55],
            latency_max: 90,
            class_latencies: Vec::new(),
            achieved_utilization: 0.1 + 0.2,
            delivery_rate: 0.01,
            acceptance_rate: 0.01,
            refused_fraction: 0.0,
            messages_measured: 1000,
            convergence: ConvergenceStatus::Converged,
            samples: 3,
            cycles_simulated: 30_000,
            wall_seconds: 0.5,
            cycles_per_sec: 60_000.0,
            outcome: RunOutcome::Completed,
            dropped_events: 0,
            deadlock: None,
            livelock: None,
            triage: None,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("wormsim-journal-{}-{name}", std::process::id()))
            .join("sweep.journal.jsonl")
    }

    #[test]
    fn create_record_load_roundtrip() {
        let path = temp_path("roundtrip");
        let mut journal = Journal::create(&path).unwrap();
        assert!(journal.is_empty());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        for (i, load) in [0.1, 0.2, 0.3].iter().enumerate() {
            journal
                .record(JournalEntry {
                    point_hash: format!("hash{i}"),
                    index: i,
                    attempts: 1 + i as u64,
                    retry_decision: None,
                    result: result(*load),
                })
                .unwrap();
        }
        assert_eq!(journal.len(), 3);

        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.len(), 3);
        let entry = loaded.get("hash1").expect("hash1 journaled");
        assert_eq!(entry.index, 1);
        assert_eq!(entry.attempts, 2);
        assert_eq!(entry.result.offered_load.to_bits(), 0.2f64.to_bits());
        assert_eq!(
            entry.result.injection_rate.to_bits(),
            result(0.2).injection_rate.to_bits(),
            "floats survive the journal bit-exactly"
        );
        assert!(loaded.get("hash9").is_none());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn append_is_atomic_no_stray_tmp_files() {
        let path = temp_path("atomic");
        let mut journal = Journal::create(&path).unwrap();
        journal
            .record(JournalEntry {
                point_hash: "h".into(),
                index: 0,
                attempts: 1,
                retry_decision: None,
                result: result(0.5),
            })
            .unwrap();
        let dir = path.parent().unwrap();
        let names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["sweep.journal.jsonl".to_owned()]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_trailing_line_recovers_the_valid_prefix() {
        let path = temp_path("torn");
        let mut journal = Journal::create(&path).unwrap();
        for i in 0..2 {
            journal
                .record(JournalEntry {
                    point_hash: format!("hash{i}"),
                    index: i,
                    attempts: 1,
                    retry_decision: None,
                    result: result(0.1 * (i as f64 + 1.0)),
                })
                .unwrap();
        }
        // Simulate a crash mid-append: a third record cut off partway.
        let mut torn = std::fs::read_to_string(&path).unwrap();
        torn.push_str("{\"point_hash\":\"hash2\",\"index\":2,\"at");
        std::fs::write(&path, &torn).unwrap();

        let loaded = Journal::load(&path).expect("valid prefix must load");
        assert!(loaded.recovered_truncation());
        assert_eq!(loaded.len(), 2);
        assert!(loaded.get("hash1").is_some());
        assert!(loaded.get("hash2").is_none(), "torn record is dropped");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn bad_line_before_valid_records_still_fails_the_load() {
        let path = temp_path("foreign");
        let mut journal = Journal::create(&path).unwrap();
        journal
            .record(JournalEntry {
                point_hash: "hash0".into(),
                index: 0,
                attempts: 1,
                retry_decision: None,
                result: result(0.1),
            })
            .unwrap();
        // Corrupt the FIRST line; a valid record follows, so this is not
        // truncation and must be refused.
        let good_line = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("not json at all\n{good_line}")).unwrap();
        let error = Journal::load(&path).expect_err("mid-file corruption must not load");
        assert!(
            matches!(error, JournalError::Parse { line: 1, .. }),
            "{error}"
        );
        // A journal that is ONLY a torn line recovers to empty.
        std::fs::write(&path, "{\"point_hash\":\"h\",\"index\":0").unwrap();
        let empty = Journal::load(&path).expect("sole torn line recovers to empty");
        assert!(empty.is_empty());
        assert!(empty.recovered_truncation());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    fn entry(hash: &str, index: usize, attempts: u64) -> JournalEntry {
        JournalEntry {
            point_hash: hash.into(),
            index,
            attempts,
            retry_decision: None,
            result: result(0.1 * (index as f64 + 1.0)),
        }
    }

    #[test]
    fn corrupted_journal_lines_load_to_ok_or_err_and_never_panic() {
        const ROUNDS: u64 = 20;
        let mut triaged = entry("triaged", 1, 2);
        triaged.retry_decision = Some("budget_artifact_retried".into());
        let lines: Vec<String> = [entry("a", 0, 1), triaged, entry("c", 2, 1)]
            .iter()
            .map(JsonRecord::to_json)
            .collect();
        let path = temp_path("garbage");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let corruptor = crate::chaos::Corruptor::new(1993);
        let (mut loaded, mut refused) = (0, 0);
        for (i, line) in lines.iter().enumerate() {
            for round in 0..ROUNDS {
                for corrupted in corruptor.corrupt(line, i as u64 * ROUNDS + round) {
                    let mut text = String::new();
                    for (j, original) in lines.iter().enumerate() {
                        text.push_str(if i == j { &corrupted } else { original });
                        text.push('\n');
                    }
                    std::fs::write(&path, &text).unwrap();
                    let outcome =
                        std::panic::catch_unwind(|| Journal::load(&path)).unwrap_or_else(|_| {
                            panic!("Journal::load panicked on line {i}: {corrupted}")
                        });
                    match outcome {
                        Ok(_) => loaded += 1,
                        Err(JournalError::Parse { line, .. }) => {
                            assert_eq!(line, i + 1, "{corrupted}");
                            refused += 1;
                        }
                        Err(other) => panic!("not a parse error: {other:?}"),
                    }
                }
            }
        }
        assert!(refused > 50, "{refused} refused");
        assert!(loaded > 0, "{loaded} loaded");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    fn indices_on_disk(path: &Path) -> Vec<usize> {
        let loaded = Journal::load(path).unwrap();
        loaded.entries().iter().map(|e| e.index).collect()
    }

    #[test]
    fn out_of_order_records_are_on_disk_at_once_and_in_index_order() {
        let path = temp_path("order");
        let mut journal = Journal::create(&path).unwrap();
        // Finish 3, 1, 0, 2: each point is on disk the moment it is
        // recorded, even while a lower index is still missing.
        journal.record(entry("hash3", 3, 1)).unwrap();
        assert_eq!(indices_on_disk(&path), vec![3]);
        journal.record(entry("hash1", 1, 1)).unwrap();
        assert_eq!(indices_on_disk(&path), vec![1, 3]);
        journal.record(entry("hash0", 0, 1)).unwrap();
        assert_eq!(indices_on_disk(&path), vec![0, 1, 3]);
        journal.record(entry("hash2", 2, 1)).unwrap();
        assert_eq!(indices_on_disk(&path), vec![0, 1, 2, 3]);

        // The bytes match a journal recorded in order.
        let in_order_path = temp_path("order-in-order");
        let mut in_order = Journal::create(&in_order_path).unwrap();
        for i in 0..4 {
            in_order.record(entry(&format!("hash{i}"), i, 1)).unwrap();
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&in_order_path).unwrap()
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
        std::fs::remove_dir_all(in_order_path.parent().unwrap()).ok();
    }

    #[test]
    fn load_sorts_a_journal_written_out_of_order() {
        let path = temp_path("unsorted");
        let mut journal = Journal::create(&path).unwrap();
        for i in 0..4 {
            journal.record(entry(&format!("hash{i}"), i, 1)).unwrap();
        }
        let sorted = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = sorted.lines().collect();
        let shuffled = format!("{}\n{}\n{}\n", lines[1], lines[3], lines[0]);
        std::fs::write(&path, shuffled).unwrap();
        let mut loaded = Journal::load(&path).unwrap();
        let indices: Vec<usize> = loaded.entries().iter().map(|e| e.index).collect();
        assert_eq!(indices, vec![0, 1, 3]);
        loaded.record(entry("hash2", 2, 1)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), sorted);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn the_later_of_two_entries_sharing_a_hash_wins() {
        let path = temp_path("duplicate");
        let mut journal = Journal::create(&path).unwrap();
        journal.record(entry("dup", 1, 1)).unwrap();
        journal.record(entry("other", 0, 1)).unwrap();
        journal.record(entry("dup", 1, 2)).unwrap();
        assert_eq!(journal.len(), 3);
        assert_eq!(journal.get("dup").unwrap().attempts, 2);
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.get("dup").unwrap().attempts, 2);
        assert_eq!(loaded.get("other").unwrap().index, 0);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn missing_journal_is_an_io_error() {
        let error = Journal::load("/nonexistent/nowhere.journal.jsonl").unwrap_err();
        assert!(matches!(error, JournalError::Io { .. }), "{error}");
    }

    #[test]
    fn retry_decision_round_trips_and_stays_optional() {
        let path = temp_path("decision");
        let mut journal = Journal::create(&path).unwrap();
        journal
            .record(JournalEntry {
                point_hash: "plain".into(),
                index: 0,
                attempts: 1,
                retry_decision: None,
                result: result(0.1),
            })
            .unwrap();
        journal
            .record(JournalEntry {
                point_hash: "triaged".into(),
                index: 1,
                attempts: 1,
                retry_decision: Some("confirmed_unsafe_no_retry".into()),
                result: result(0.2),
            })
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            !lines[0].contains("retry_decision"),
            "absent decision must not appear on the wire: {}",
            lines[0]
        );
        assert!(lines[1].contains("\"retry_decision\":\"confirmed_unsafe_no_retry\""));
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.get("plain").unwrap().retry_decision, None);
        assert_eq!(
            loaded.get("triaged").unwrap().retry_decision.as_deref(),
            Some("confirmed_unsafe_no_retry")
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn salvage_recovers_prefix_and_suffix_and_reports_bad_lines() {
        let path = temp_path("salvage");
        let mut journal = Journal::create(&path).unwrap();
        for i in 0..3 {
            journal
                .record(JournalEntry {
                    point_hash: format!("hash{i}"),
                    index: i,
                    attempts: 1,
                    retry_decision: None,
                    result: result(0.1 * (i as f64 + 1.0)),
                })
                .unwrap();
        }
        // Corrupt the MIDDLE line: strict load refuses, salvage rescues
        // the records on both sides.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let corrupted = format!("{}\ngarbage in the middle\n{}\n", lines[0], lines[2]);
        std::fs::write(&path, &corrupted).unwrap();
        assert!(Journal::load(&path).is_err(), "strict load must refuse");

        let (salvaged, bad) = Journal::load_salvaging(&path).expect("salvage never refuses");
        assert_eq!(salvaged.len(), 2);
        assert!(salvaged.get("hash0").is_some(), "prefix recovered");
        assert!(salvaged.get("hash2").is_some(), "suffix recovered");
        assert!(salvaged.get("hash1").is_none());
        assert!(!salvaged.recovered_truncation());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].line, 2);
        assert_eq!(bad[0].text, "garbage in the middle");
        assert!(!bad[0].error.is_empty());
        // The `.corrupt.jsonl` sidecar line: line, error, text.
        let sidecar_line = SalvagedLine {
            line: 2,
            error: "bad \"value\"".into(),
            text: "garbage".into(),
        };
        assert_eq!(
            sidecar_line.to_json(),
            r#"{"line":2,"error":"bad \"value\"","text":"garbage"}"#
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn salvaged_journal_persists_clean_on_next_record() {
        let path = temp_path("salvage-clean");
        let mut journal = Journal::create(&path).unwrap();
        journal
            .record(JournalEntry {
                point_hash: "keep".into(),
                index: 0,
                attempts: 1,
                retry_decision: None,
                result: result(0.1),
            })
            .unwrap();
        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("junk\n{good}")).unwrap();
        let (mut salvaged, bad) = Journal::load_salvaging(&path).unwrap();
        assert_eq!(bad.len(), 1);
        salvaged
            .record(JournalEntry {
                point_hash: "new".into(),
                index: 1,
                attempts: 1,
                retry_decision: None,
                result: result(0.2),
            })
            .unwrap();
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert!(
            !rewritten.contains("junk"),
            "the next persist must rewrite the file without the bad line"
        );
        assert_eq!(rewritten.lines().count(), 2);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn sidecar_paths_swap_the_jsonl_suffix() {
        assert_eq!(
            Journal::salvage_sidecar(Path::new("/x/sweep.journal.jsonl")),
            PathBuf::from("/x/sweep.journal.corrupt.jsonl")
        );
        assert_eq!(
            Journal::quarantine_sidecar(Path::new("/x/sweep.journal.jsonl")),
            PathBuf::from("/x/sweep.journal.quarantine.jsonl")
        );
        assert_eq!(
            Journal::quarantine_sidecar(Path::new("odd.log")),
            PathBuf::from("odd.log.quarantine.jsonl")
        );
    }
}
