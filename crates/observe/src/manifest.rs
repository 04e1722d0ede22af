//! Run manifests: a JSON sidecar recording what produced a result.

use crate::JsonRecord;
use std::fs;
use std::io;
use std::path::Path;
use std::process::Command;

/// Wall-clock time spent in one named phase of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRecord {
    /// The phase name (`warmup`, `measure`, `gap`, `drain`, ...).
    pub name: String,
    /// Wall-clock seconds spent in the phase (summed across entries).
    pub wall_seconds: f64,
    /// Simulated cycles executed during the phase.
    pub cycles: u64,
}

crate::json_record!(PhaseRecord {
    name,
    wall_seconds,
    cycles
});

/// Everything needed to trace a result file back to the run that made it.
///
/// Written next to the results (`<run_id>.manifest.json`) so a directory of
/// sweep output is self-describing: which binary state (`git_describe`),
/// which configuration (`config_hash` plus the headline parameters), which
/// randomness (`seed`), and how the simulator itself performed
/// (`cycles_per_sec`, `flits_per_sec`).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RunManifest {
    /// Identifier shared by this manifest and its sample/trace streams.
    pub run_id: String,
    /// FNV-1a hash of the full simulation configuration's debug form.
    pub config_hash: String,
    /// `git describe --always --dirty` of the working tree, if available.
    pub git_describe: Option<String>,
    /// Master RNG seed for the run.
    pub seed: u64,
    /// Routing algorithm name.
    pub algorithm: String,
    /// Traffic pattern name.
    pub traffic: String,
    /// Topology label in the `--topo` CLI grammar (e.g. `torus:16x16`),
    /// so a manifest's network can be pasted straight into a sweep.
    pub topology: String,
    /// Offered load as a fraction of channel capacity (paper Eq. 4 input).
    pub offered_load: f64,
    /// Per-node flit injection rate derived from the offered load.
    pub injection_rate: f64,
    /// Total simulated cycles, including warmup and drain.
    pub cycles: u64,
    /// Cycles spent in warmup before measurement began.
    pub warmup_cycles: u64,
    /// Measurement samples taken by the convergence controller.
    pub samples: u64,
    /// Whether the run converged under the measurement policy.
    pub converged: bool,
    /// Whether the deadlock watchdog fired.
    pub deadlocked: bool,
    /// How the run ended, as a short lowercase tag (e.g. `completed`,
    /// `deadlocked`, `budget_exceeded`) — the experiment layer's
    /// `RunOutcome` rendered for tooling that greps manifests.
    pub outcome: String,
    /// Refined stall verdict (`confirmed_unsafe` or `budget_artifact`)
    /// from the verification layer's wait-for triage; `None` for runs
    /// that did not stall.
    pub triage: Option<String>,
    /// Total wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Flit-hops executed per wall-clock second (simulator throughput).
    pub flits_per_sec: f64,
    /// Events dropped across all attached sinks (ring eviction, I/O).
    pub dropped_events: u64,
    /// Which attempt at this point produced the manifest (1 = first try).
    /// Orchestrators that retry transient failures bump this so a
    /// directory of manifests records how hard each point fought.
    pub attempts: u64,
    /// Journal path this run was resumed from, when the surrounding sweep
    /// was restarted with `--resume`; `None` for fresh runs.
    pub resumed_from: Option<String>,
    /// Wall-clock breakdown by phase.
    pub phases: Vec<PhaseRecord>,
}

impl RunManifest {
    /// Writes the manifest as pretty-enough single-line JSON at `path`,
    /// atomically (tmp + rename), so a crash mid-write never leaves a
    /// truncated manifest next to good results.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut text = self.to_json();
        text.push('\n');
        crate::atomic_write(path, text)
    }

    /// Reads a manifest back from `path`.
    ///
    /// # Errors
    ///
    /// Reports filesystem errors and malformed or incomplete JSON.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self, String> {
        let text = fs::read_to_string(path.as_ref())
            .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
        let value = crate::json::from_str(&text).map_err(|e| e.to_string())?;
        Self::from_json(&value)
    }
}

// `triage`, `attempts` and `resumed_from` joined the format after the first
// manifests were written; files that lack them still read.
crate::json_record!(RunManifest as "manifest" {
    run_id,
    config_hash,
    git_describe,
    seed,
    algorithm,
    traffic,
    topology,
    offered_load,
    injection_rate,
    cycles,
    warmup_cycles,
    samples,
    converged,
    deadlocked,
    outcome,
    triage = None,
    wall_seconds,
    cycles_per_sec,
    flits_per_sec,
    dropped_events,
    attempts = 1,
    resumed_from = None,
    phases,
});

/// FNV-1a (64-bit) of `s`, as 16 lowercase hex digits. Stable across runs
/// and platforms, which is all a config fingerprint needs.
pub fn fnv1a_hex(s: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// `git describe --always --dirty` of the current working tree, or `None`
/// when git is unavailable or the directory is not a repository.
pub fn git_describe() -> Option<String> {
    let output = Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> RunManifest {
        RunManifest {
            run_id: "fig3-nbc-uniform-l0.40-s42".to_owned(),
            config_hash: fnv1a_hex("some config"),
            git_describe: Some("abc1234-dirty".to_owned()),
            seed: 42,
            algorithm: "nbc".to_owned(),
            traffic: "uniform".to_owned(),
            topology: "torus:16x16".to_owned(),
            offered_load: 0.4,
            injection_rate: 0.0125,
            cycles: 61_000,
            warmup_cycles: 1_000,
            samples: 12,
            converged: true,
            deadlocked: false,
            outcome: "completed".to_owned(),
            triage: None,
            wall_seconds: 1.5,
            cycles_per_sec: 40_666.7,
            flits_per_sec: 812_000.0,
            dropped_events: 0,
            attempts: 2,
            resumed_from: Some("results/fig3.journal.jsonl".to_owned()),
            phases: vec![
                PhaseRecord {
                    name: "warmup".to_owned(),
                    wall_seconds: 0.1,
                    cycles: 1_000,
                },
                PhaseRecord {
                    name: "measure".to_owned(),
                    wall_seconds: 1.4,
                    cycles: 60_000,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let m = manifest();
        let parsed = crate::json::from_str(&m.to_json()).unwrap();
        assert_eq!(RunManifest::from_json(&parsed).unwrap(), m);
    }

    #[test]
    fn null_git_describe_round_trips() {
        let m = RunManifest {
            git_describe: None,
            ..manifest()
        };
        let parsed = crate::json::from_str(&m.to_json()).unwrap();
        assert_eq!(RunManifest::from_json(&parsed).unwrap().git_describe, None);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("wormsim-observe-manifest-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.manifest.json");
        let m = manifest();
        m.write_to(&path).unwrap();
        assert_eq!(RunManifest::read_from(&path).unwrap(), m);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn provenance_fields_default_when_missing() {
        // Manifests written before the provenance fields existed must
        // still parse: one attempt, not resumed.
        let m = manifest();
        let json = m
            .to_json()
            .replace(",\"attempts\":2", "")
            .replace(",\"resumed_from\":\"results/fig3.journal.jsonl\"", "");
        let parsed = crate::json::from_str(&json).unwrap();
        let old = RunManifest::from_json(&parsed).unwrap();
        assert_eq!(old.attempts, 1);
        assert_eq!(old.resumed_from, None);
    }

    #[test]
    fn triage_verdict_round_trips_and_defaults() {
        let m = RunManifest {
            outcome: "deadlocked".to_owned(),
            deadlocked: true,
            triage: Some("confirmed_unsafe".to_owned()),
            ..manifest()
        };
        let parsed = crate::json::from_str(&m.to_json()).unwrap();
        assert_eq!(RunManifest::from_json(&parsed).unwrap(), m);
        // Manifests written before the verification layer lack the field.
        let json = m.to_json().replace(",\"triage\":\"confirmed_unsafe\"", "");
        let parsed = crate::json::from_str(&json).unwrap();
        assert_eq!(RunManifest::from_json(&parsed).unwrap().triage, None);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("a"), "af63dc4c8601ec8c");
        assert_ne!(fnv1a_hex("config a"), fnv1a_hex("config b"));
    }
}
