//! The `perf` bin end to end: what it writes is one JSON document the
//! codec's parser reads, every number in it is finite, and the count
//! columns are a function of the command line alone.

use std::path::{Path, PathBuf};
use std::process::Command;
use wormsim::observe::json::{self, Value};

const PERF: &str = env!("CARGO_BIN_EXE_perf");

fn temp_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wormsim-perf-test-{}-{name}", std::process::id()))
}

fn perf_engine(out: &Path) -> Value {
    let output = Command::new(PERF)
        .args(["engine", "--topo", "torus:4x4", "--cycles", "400"])
        .args(["--warmup", "100", "--out"])
        .arg(out)
        .output()
        .expect("spawn perf");
    assert!(
        output.status.success(),
        "perf failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(out).expect("perf wrote --out");
    std::fs::remove_file(out).ok();
    let lower = text.to_lowercase();
    assert!(
        !lower.contains("nan") && !lower.contains("inf"),
        "non-finite number in {text}"
    );
    json::from_str(&text).unwrap_or_else(|e| panic!("not JSON ({e}): {text}"))
}

fn points(report: &Value) -> &[Value] {
    report
        .get("points")
        .and_then(Value::as_array)
        .expect("points array")
}

/// Per point: who was measured, then the four deterministic counts.
fn counts(report: &Value) -> Vec<(String, [u64; 4])> {
    points(report)
        .iter()
        .map(|point| {
            let count = |key| point.field::<u64>(key).unwrap();
            (
                point.field::<String>("algorithm").unwrap(),
                [
                    count("flit_hops"),
                    count("delivered"),
                    count("route_attempts"),
                    count("route_sleeps"),
                ],
            )
        })
        .collect()
}

#[test]
fn the_report_is_finite_json_with_repeatable_counts() {
    let first = perf_engine(&temp_file("a.json"));
    let second = perf_engine(&temp_file("b.json"));
    first.expect_type("perf").expect("self-describing");
    let config = first.get("config").expect("config");
    assert_eq!(config.field::<String>("preset").unwrap(), "engine");
    assert_eq!(config.field::<u64>("timed_cycles"), Ok(400));
    let counted = counts(&first);
    assert_eq!(counted.len(), 6, "one point per paper algorithm");
    assert!(
        counted.iter().all(|(_, c)| c[0] > 0 && c[1] > 0),
        "{counted:?}"
    );
    assert_eq!(counted, counts(&second), "counts repeat run over run");
    for point in points(&first) {
        assert_eq!(point.field::<String>("topology").unwrap(), "torus:4x4");
        assert_eq!(point.field::<String>("mode").unwrap(), "off");
        for rate in ["steps_per_sec", "flits_per_sec", "wall_seconds"] {
            assert!(point.field::<f64>(rate).unwrap() > 0.0, "{rate}");
        }
        let setup = point.field::<f64>("setup_seconds").unwrap();
        assert!(setup.is_finite() && setup >= 0.0, "setup_seconds {setup}");
    }
}

#[test]
fn zero_timed_cycles_exit_2_and_write_nothing() {
    let out = temp_file("zero.json");
    let output = Command::new(PERF)
        .args(["engine", "--topo", "torus:4x4", "--cycles", "0", "--out"])
        .arg(&out)
        .output()
        .expect("spawn perf");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--cycles"));
    assert!(!out.exists(), "a usage error must not write the report");
}
