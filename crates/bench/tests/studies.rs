//! The `study` bin against the binaries it replaced: every `study <id>`
//! must print, byte for byte, what the deleted `<id>` bin printed at
//! `--quick --seed 1993` (goldens captured from those bins at the commit
//! that removed them), and the figure ids, `sweep` and `faults_sweep`
//! must also write the same CSV and journal bytes.

use std::path::{Path, PathBuf};
use std::process::Command;
use wormsim::observe::fnv1a_hex;
use wormsim_bench::study::{self, STUDIES};

const STUDY: &str = env!("CARGO_BIN_EXE_study");

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/studies")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wormsim-study-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The goldens retarget every study that honours `--topo` at an 8×8 torus
/// (the smallest even radix Figure 5's radius-3 neighbourhoods fit), so
/// only the three pinned studies pay for their full-size networks.
fn takes_topo(id: &str) -> bool {
    study::parse([id, "--topo", "torus:8x8"].map(str::to_owned)).is_ok()
}

#[test]
#[ignore = "runs every study at --quick; run with --release -- --ignored"]
fn every_study_reproduces_the_bin_it_replaced() {
    let figure_files = std::fs::read_to_string(golden_dir().join("figure_files.fnv1a"))
        .expect("figure file digests");
    for study in STUDIES {
        let out_dir = temp_dir(study.id);
        let mut command = Command::new(STUDY);
        command.args([study.id, "--quick", "--seed", "1993", "--out"]);
        command.arg(&out_dir);
        if takes_topo(study.id) {
            command.args(["--topo", "torus:8x8"]);
        }
        let output = command.output().expect("spawn study");
        assert!(
            output.status.success(),
            "study {} failed: {}",
            study.id,
            String::from_utf8_lossy(&output.stderr)
        );
        let golden = std::fs::read(golden_dir().join(format!("{}.txt", study.id)))
            .unwrap_or_else(|e| panic!("golden for {}: {e}", study.id));
        assert!(
            output.stdout == golden,
            "study {} diverged from the {} bin's stdout; got:\n{}",
            study.id,
            study.id,
            String::from_utf8_lossy(&output.stdout)
        );
        // Figures and sweeps: the CSV and journal the parent bin wrote, by
        // digest.
        let stem = if study.id == "vct" { "vct34" } else { study.id };
        for line in figure_files
            .lines()
            .filter(|l| l.starts_with(&format!("{stem}.")))
        {
            let mut fields = line.split(' ');
            let (Some(file), Some(bytes), Some(digest)) =
                (fields.next(), fields.next(), fields.next())
            else {
                panic!("malformed digest line: {line}");
            };
            let written = std::fs::read_to_string(out_dir.join(file))
                .unwrap_or_else(|e| panic!("study {} did not write {file}: {e}", study.id));
            assert_eq!(
                (
                    written.len().to_string().as_str(),
                    fnv1a_hex(&written).as_str()
                ),
                (bytes, digest),
                "study {} wrote a different {file} than the parent bin",
                study.id
            );
        }
        std::fs::remove_dir_all(&out_dir).ok();
    }
}

#[test]
fn list_names_every_study() {
    let output = Command::new(STUDY).arg("--list").output().expect("spawn");
    assert!(output.status.success());
    let listed: Vec<String> = String::from_utf8(output.stdout)
        .expect("utf-8")
        .lines()
        .filter_map(|line| line.split_whitespace().next().map(str::to_owned))
        .collect();
    let ids: Vec<&str> = STUDIES.iter().map(|s| s.id).collect();
    assert_eq!(listed, ids);
}

#[test]
fn flags_a_study_cannot_honour_are_usage_errors() {
    let usage_error = |args: &[&str]| {
        let output = Command::new(STUDY).args(args).output().expect("spawn");
        assert_eq!(output.status.code(), Some(2), "args: {args:?}");
        assert!(output.stdout.is_empty(), "nothing ran for {args:?}");
        String::from_utf8_lossy(&output.stderr).into_owned()
    };
    for id in ["hotspot_placement", "multidim", "tune"] {
        let stderr = usage_error(&[id, "--quick", "--topo", "torus:6x6"]);
        assert!(stderr.contains(id) && stderr.contains("--topo"), "{stderr}");
    }
    let pinned: Vec<&str> = STUDIES
        .iter()
        .map(|study| study.id)
        .filter(|id| !takes_topo(id))
        .collect();
    assert_eq!(pinned, ["hotspot_placement", "multidim", "tune"]);
    assert!(usage_error(&["fig9"]).contains("unknown study"));
    assert!(usage_error(&["fig3", "--algos", "ecube"]).contains("--algos"));
    assert!(usage_error(&["tune", "--max-faults", "2"]).contains("--max-faults"));
    let stderr = usage_error(&["faults_sweep", "--loads", "0.1,0.2"]);
    assert!(stderr.contains("single --loads"), "{stderr}");
    // Removed flags stay removed.
    usage_error(&["faults_sweep", "--load", "0.1"]);
    usage_error(&["faults_sweep", "--smoke"]);
    usage_error(&[]);
}

/// An algorithm set the network cannot run is a usage error that names
/// the network, not a panic (exit 101) once the points are planned.
#[test]
fn unrunnable_algorithm_sets_are_usage_errors() {
    for id in ["sweep", "faults_sweep"] {
        let output = Command::new(STUDY)
            .args([id, "--topo", "torus:9x9", "--algos", "nhop,nbc", "--quick"])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{id}: {stderr}");
        assert!(output.stdout.is_empty(), "{id}: nothing ran");
        assert!(
            stderr.contains("error: no selected algorithm supports 9x9 torus"),
            "{id}: {stderr}"
        );
        assert!(stderr.contains("usage: study"), "{id}: {stderr}");
    }
}
