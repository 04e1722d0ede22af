//! Runs the real binary at smoke scale and checks that what it emits is
//! what `BENCHMARK.json` declares: every workload, every end-to-end metric
//! on the untraced pass, every per-layer metric on the traced pass.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use wormsim::observe::json::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_wormsim-benchmark");

fn read(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(list: &Value) -> BTreeSet<String> {
    list.as_array()
        .unwrap()
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .unwrap()
                .to_owned()
        })
        .collect()
}

fn keys(object: &Value) -> BTreeSet<String> {
    object.as_object().unwrap().keys().cloned().collect()
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name)
}

#[test]
fn smoke_run_emits_exactly_what_benchmark_json_declares() {
    let out = scratch("test-smoke-run");
    let status = Command::new(BIN)
        .args(["run", "--smoke", "--trace", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success(), "smoke run failed: {status}");

    let declared = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let result = read(&out.join("result.json"));
    assert!(
        result.get("claim").unwrap().is_null(),
        "the harness claims no gain"
    );
    assert_eq!(result.get("seed").and_then(Value::as_u64), Some(7));
    for key in ["nproc", "slots", "rustc", "git_head", "loadavg_1m"] {
        assert!(
            result.get("env").unwrap().get(key).is_some(),
            "env lacks {key}"
        );
    }

    let workloads = result.get("workloads").unwrap();
    assert_eq!(keys(workloads), names(declared.get("workloads").unwrap()));
    for (name, passes) in workloads.as_object().unwrap() {
        for (pass, list) in [("timed", "end_to_end"), ("traced", "per_layer")] {
            let measured = passes.get(pass).unwrap();
            assert_eq!(
                keys(measured.get("metrics").unwrap()),
                names(declared.get(list).unwrap()),
                "{name} {pass}"
            );
            assert_eq!(
                measured.get("correct").and_then(Value::as_bool),
                Some(true),
                "{name} {pass}"
            );
            assert_eq!(
                measured.get("failed").and_then(Value::as_u64),
                Some(0),
                "{name} {pass}"
            );
        }
        // The untraced and the traced pass simulate the same thing.
        assert_eq!(
            passes.get("timed").unwrap().get("sim_digest"),
            passes.get("traced").unwrap().get("sim_digest"),
            "{name}"
        );
        for metric in passes
            .get("timed")
            .unwrap()
            .get("metrics")
            .unwrap()
            .as_object()
            .unwrap()
            .values()
        {
            assert!(
                metric.get("value").and_then(Value::as_f64).unwrap() > 0.0,
                "{name}"
            );
        }
    }
    assert_eq!(
        workloads
            .get("fig3_local")
            .unwrap()
            .get("timed")
            .unwrap()
            .get("sim_digest"),
        workloads
            .get("fig3_remote")
            .unwrap()
            .get("timed")
            .unwrap()
            .get("sim_digest"),
        "distributed and local sweeps must be byte-identical"
    );

    // A run compared with itself: nothing worse, every count equal.
    let result_path = out.join("result.json");
    let status = Command::new(BIN)
        .arg("compare")
        .args([&result_path, &result_path])
        .status()
        .unwrap();
    assert!(status.success(), "A/A compare failed: {status}");
}

#[test]
fn measure_ends_its_output_with_the_contract_line() {
    let out = scratch("test-measure-line");
    let output = Command::new(BIN)
        .args([
            "measure",
            "--workload",
            "lowload_engine",
            "--seed",
            "3",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", "0", "--smoke", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = json::from_str(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(
        keys(&last),
        ["attempted", "correct", "failed", "metrics"]
            .map(str::to_owned)
            .into()
    );
    assert_eq!(last.get("attempted").and_then(Value::as_u64), Some(6));
    assert!(last.get("metrics").unwrap().get("setup_s").is_some());
}

#[test]
fn bad_command_lines_are_usage_errors() {
    for args in [
        &["measure", "--workload", "nope"][..],
        &["frobnicate"],
        &["run", "--seconds", "0"],
    ] {
        let output = Command::new(BIN).args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
