//! `run`: every workload in its own child process (so the memory
//! high-water mark is per workload), folded into one `result.json`.

use crate::spec::Workload;
use crate::sys;
use crate::Options;
use std::path::Path;
use std::process::{Command, ExitCode};
use wormsim::observe::json::{self, Value};
use wormsim::observe::JsonObject;

/// Follows `path` through nested JSON objects.
pub fn get<'v>(value: &'v Value, path: &[&str]) -> Option<&'v Value> {
    path.iter().try_fold(value, |v, key| v.get(key))
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How `digest` relates to the one recorded at HEAD for the same seed and
/// scale. Reported, never counted as a failure: a fidelity change is
/// allowed to move it, a simulator-only speed-up is not.
pub fn digest_verdict(workload: Workload, options: &Options, digest: &str) -> String {
    let path = sys::bench_dir().join("recorded/HEAD_a.json");
    let Ok(recorded) = read_json(&path) else {
        return format!("no record at {}", path.display());
    };
    let same_inputs = recorded.get("seed").and_then(Value::as_u64) == Some(options.seed)
        && recorded.get("smoke").and_then(Value::as_bool) == Some(options.smoke);
    let recorded_digest = get(
        &recorded,
        &["workloads", workload.name(), "timed", "sim_digest"],
    )
    .and_then(Value::as_str);
    match recorded_digest {
        Some(recorded) if same_inputs && recorded == digest => {
            "matches the recorded one".to_owned()
        }
        Some(recorded) if same_inputs => {
            format!("DIFFERS from the recorded {recorded}: simulated results changed")
        }
        _ => "no recorded digest for this seed and scale".to_owned(),
    }
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    (output.status.success() && !text.trim().is_empty()).then(|| text.trim().to_owned())
}

fn environment_json() -> String {
    let nproc = sys::nproc();
    let load = sys::load_average();
    if let Some(load) = load.filter(|l| *l > nproc as f64 / 2.0) {
        eprintln!(
            "warning: 1-minute load average {load} exceeds half of {nproc} cores; \
             timings will be noisier than the bounds assume"
        );
    }
    let bench_dir = sys::bench_dir();
    let mut text = String::new();
    let mut object = JsonObject::begin(&mut text);
    object
        .field_u64("nproc", nproc as u64)
        .field_u64("slots", sys::slots() as u64)
        .field_opt_str(
            "rustc",
            command_line("rustc", &["-V"], &bench_dir).as_deref(),
        )
        .field_opt_str(
            "git_head",
            command_line("git", &["rev-parse", "HEAD"], &bench_dir).as_deref(),
        );
    match load {
        Some(load) => object.field_f64("loadavg_1m", load),
        None => object.field_raw("loadavg_1m", "null"),
    };
    object.finish();
    text
}

/// Runs one `measure` pass in a child and returns the detail file it wrote.
fn measure_child(workload: Workload, options: &Options, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("measure")
        .args(["--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&options.out);
    if options.smoke {
        command.arg("--smoke");
    }
    let status = command
        .status()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    if !status.success() {
        return Err(format!("the {} child ended with {status}", workload.name()));
    }
    let pass = if traced { "traced" } else { "timed" };
    let path = options.out.join(format!("{}.{pass}.json", workload.name()));
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(options: &Options) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&options.out).map_err(|e| format!("{}: {e}", options.out.display()))?;
    let environment = environment_json();
    let workloads = if options.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        options.workloads.clone()
    };

    let mut all_correct = true;
    let mut timed: Vec<(Workload, Value)> = Vec::new();
    let mut workloads_json = String::new();
    let mut object = JsonObject::begin(&mut workloads_json);
    for &workload in &workloads {
        let mut passes = String::new();
        let mut pass_object = JsonObject::begin(&mut passes);
        for traced in [false, true] {
            if traced && !options.trace {
                continue;
            }
            let detail = measure_child(workload, options, traced)?;
            let value = json::from_str(&detail).map_err(|e| format!("{}: {e}", workload.name()))?;
            all_correct &= value.get("correct").and_then(Value::as_bool) == Some(true);
            pass_object.field_raw(if traced { "traced" } else { "timed" }, &detail);
            if !traced {
                timed.push((workload, value));
            }
            println!();
        }
        pass_object.finish();
        object.field_raw(workload.name(), &passes);
    }
    object.finish();

    let timed_of = |w: Workload| timed.iter().find(|(t, _)| *t == w).map(|(_, v)| v);
    let mut cross_checks = String::from("null");
    let mut derived = String::from("null");
    if let (Some(local), Some(remote)) = (
        timed_of(Workload::Fig3Local),
        timed_of(Workload::Fig3Remote),
    ) {
        let digest = |v: &Value| {
            v.get("sim_digest")
                .and_then(Value::as_str)
                .map(str::to_owned)
        };
        let identical = digest(local) == digest(remote);
        // A remote sweep whose bytes differ from the local one has failed
        // every point: the distribution layer changed the results.
        all_correct &= identical;
        println!(
            "fig3_remote CSV + journal vs fig3_local: {}",
            if identical {
                "byte-identical"
            } else {
                "DIFFERENT — every fig3_remote point fails"
            }
        );
        cross_checks.clear();
        let mut object = JsonObject::begin(&mut cross_checks);
        object.field_bool("fig3_remote_bytes_equal_fig3_local", identical);
        object.finish();

        let wall = |v: &Value| get(v, &["metrics", "wall_s", "value"]).and_then(Value::as_f64);
        if let (Some(local), Some(remote)) = (wall(local), wall(remote)) {
            println!(
                "distribution tax (fig3_remote.wall_s - fig3_local.wall_s): {} s",
                remote - local
            );
            derived.clear();
            let mut object = JsonObject::begin(&mut derived);
            object.field_f64("fig3_remote_minus_local_wall_s", remote - local);
            object.finish();
        }
    }

    let mut text = String::new();
    let mut object = JsonObject::begin(&mut text);
    object
        .field_u64("schema", 1)
        // This harness measures; it never claims a gain.
        .field_raw("claim", "null")
        .field_u64("seed", options.seed)
        .field_f64("seconds", options.seconds)
        .field_bool("smoke", options.smoke)
        .field_bool("traced", options.trace)
        .field_raw("env", &environment)
        .field_raw("workloads", &workloads_json)
        .field_raw("cross_checks", &cross_checks)
        .field_raw("derived", &derived);
    object.finish();
    text.push('\n');
    let path = options.out.join("result.json");
    wormsim::observe::atomic_write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} ({})",
        path.display(),
        if all_correct {
            "every output check passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
