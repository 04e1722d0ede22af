//! `chaos_soak` — the supervision stack's end-to-end proving ground.
//!
//! Runs a reference sweep serially on the in-process pool, then replays
//! the identical sweep against real `wormsim-worker` subprocesses armed
//! with seeded `--chaos` plans (stalls, crashes, corrupted responses),
//! asserting after every scenario that the journal and CSV bytes are
//! identical to the serial run — injected faults may cost wall-clock,
//! never data. A final scenario drives a poison point into quarantine and
//! checks it is surfaced (sidecar + supervision manifest) instead of
//! silently absorbed.
//!
//! `--smoke` runs one pass of every scenario (the CI configuration);
//! without it the response-corruption scenario is repeated under extra
//! chaos seeds. Exits 0 only if every assertion held.

use std::io::BufRead as _;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use wormsim::observe::json;
use wormsim::topology::Topology;
use wormsim::{format_sweep_csv, AlgorithmKind, Experiment, RunResult};
use wormsim_bench::{run_sweep, BackendChoice, ExperimentsRun, Journal, SweepOptions, SweepPlan};

const USAGE: &str = "usage: chaos_soak [--smoke]

Proves sweep supervision end to end: serial reference run, then the same
sweep against chaos-armed wormsim-worker subprocesses (stall, crash,
corrupt), asserting byte-identical journal + CSV and a surfaced
quarantine. --smoke runs the single-pass CI configuration.
";

fn die(message: &str) -> ! {
    eprintln!("chaos_soak: FAILED: {message}");
    std::process::exit(1);
}

fn expect(condition: bool, what: &str) {
    if !condition {
        die(what);
    }
}

/// A `wormsim-worker` subprocess (the sibling binary), killed on drop.
struct WorkerProc {
    child: Child,
    addr: String,
}

impl WorkerProc {
    fn spawn(args: &[&str]) -> WorkerProc {
        let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("own path: {e}")));
        let bin = exe
            .parent()
            .unwrap_or_else(|| die("own binary has no parent directory"))
            .join("wormsim-worker");
        let mut child = Command::new(&bin)
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| die(&format!("cannot spawn {}: {e}", bin.display())));
        // The worker announces "wormsim-worker listening on ADDR" once
        // bound; everything after the last space is the address.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .unwrap_or_else(|e| die(&format!("worker never announced its address: {e}")));
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .unwrap_or_default()
            .to_owned();
        expect(
            addr.contains(':'),
            &format!("unparseable worker announcement: {line:?}"),
        );
        WorkerProc { child, addr }
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The reference sweep: small enough to soak in seconds, varied enough
/// (two algorithms, two loads) that a scheduling bug would show.
fn soak_experiments(points: usize) -> Vec<Experiment> {
    let mut experiments = Vec::new();
    for algorithm in [AlgorithmKind::Ecube, AlgorithmKind::PositiveHop] {
        for load_step in 1..=points.div_ceil(2) {
            experiments.push(
                Experiment::new(Topology::torus(&[6, 6]), algorithm)
                    .offered_load(0.1 * load_step as f64)
                    .quick()
                    .seed(1993),
            );
        }
    }
    experiments.truncate(points);
    experiments
}

fn out_dir(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("wormsim-chaos-soak-{}-{name}", std::process::id()))
        .display()
        .to_string()
}

fn run(experiments: &[Experiment], out: &str, options: SweepOptions) -> ExperimentsRun {
    let plan = SweepPlan::new(experiments.to_vec()).journal_name("soak.journal.jsonl");
    let options = SweepOptions {
        out_dir: out.to_owned(),
        ..options
    };
    run_sweep(&plan, &options).unwrap_or_else(|e| die(&format!("sweep in {out} errored: {e}")))
}

fn remote_options(workers: &[&WorkerProc]) -> SweepOptions {
    SweepOptions {
        backend: BackendChoice::Remote {
            workers: workers.iter().map(|w| w.addr.clone()).collect(),
        },
        quarantine_after: 0,
        ..SweepOptions::default()
    }
}

fn results_of(run: &ExperimentsRun) -> Vec<RunResult> {
    run.outcomes
        .iter()
        .flatten()
        .map(|r| {
            r.clone()
                .unwrap_or_else(|e| die(&format!("point failed: {e}")))
        })
        .collect()
}

fn journal_bytes(out: &str) -> Vec<u8> {
    let path = Path::new(out).join("soak.journal.jsonl");
    std::fs::read(&path).unwrap_or_else(|e| die(&format!("read {}: {e}", path.display())))
}

/// The scenario's core assertion: faults cost wall-clock, never bytes.
fn assert_identical(scenario: &str, serial_out: &str, chaos_out: &str, run: &ExperimentsRun) {
    expect(
        !run.interrupted && run.quarantined.is_empty(),
        &format!("{scenario}: sweep did not complete whole"),
    );
    expect(
        journal_bytes(serial_out) == journal_bytes(chaos_out),
        &format!("{scenario}: chaos journal diverged from the serial journal"),
    );
    let serial_csv = std::fs::read_to_string(Path::new(serial_out).join("soak.csv"))
        .unwrap_or_else(|e| die(&format!("read serial csv: {e}")));
    let chaos_csv = format_sweep_csv(&results_of(run));
    expect(
        serial_csv == chaos_csv,
        &format!("{scenario}: chaos CSV diverged from the serial CSV"),
    );
    eprintln!("chaos_soak: {scenario}: journal and CSV byte-identical to serial");
}

fn read_manifest(run: &ExperimentsRun) -> json::Value {
    let path = Journal::supervision_sidecar(&run.journal);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        die(&format!(
            "supervision manifest {} missing: {e}",
            path.display()
        ))
    });
    json::from_str(&text).unwrap_or_else(|e| die(&format!("unparseable supervision manifest: {e}")))
}

fn manifest_count(manifest: &json::Value, key: &str) -> u64 {
    manifest
        .field(key)
        .unwrap_or_else(|e| die(&format!("supervision manifest: {e}")))
}

/// A stalled point hedges to spare capacity; the duplicate is discarded.
fn scenario_hedge(experiments: &[Experiment], serial_out: &str) {
    let staller = WorkerProc::spawn(&["--threads", "2", "--chaos", "stall-submit=1"]);
    let clean = WorkerProc::spawn(&["--threads", "2"]);
    let out = out_dir("hedge");
    let run = run(
        experiments,
        &out,
        SweepOptions {
            hedge_after_secs: Some(0.3),
            ..remote_options(&[&staller, &clean])
        },
    );
    assert_identical("hedge", serial_out, &out, &run);
    expect(
        run.supervision.points_hedged >= 1,
        "hedge: the stalled straggler was never hedged",
    );
    expect(
        run.supervision.duplicates_discarded >= 1,
        "hedge: the losing duplicate was not discarded",
    );
    let manifest = read_manifest(&run);
    expect(
        manifest_count(&manifest, "points_hedged") >= 1,
        "hedge: manifest does not surface the hedge",
    );
    std::fs::remove_dir_all(&out).ok();
}

/// A hung worker (frozen heartbeat) is written off; its points fail over.
fn scenario_write_off(experiments: &[Experiment], serial_out: &str) {
    let staller = WorkerProc::spawn(&["--threads", "2", "--chaos", "stall-submit=1"]);
    let clean = WorkerProc::spawn(&["--threads", "1"]);
    let out = out_dir("write-off");
    let run = run(
        experiments,
        &out,
        SweepOptions {
            point_deadline_secs: Some(0.4),
            ..remote_options(&[&staller, &clean])
        },
    );
    assert_identical("write-off", serial_out, &out, &run);
    expect(
        run.supervision.workers_written_off >= 1,
        "write-off: the hung worker was never written off",
    );
    let manifest = read_manifest(&run);
    expect(
        manifest_count(&manifest, "workers_written_off") >= 1,
        "write-off: manifest does not surface the write-off",
    );
    std::fs::remove_dir_all(&out).ok();
}

/// A worker crashes mid-sweep while another corrupts/delays responses;
/// the survivors absorb everything without perturbing a byte, and the
/// manifest records the re-dispatch.
fn scenario_crash_corrupt(experiments: &[Experiment], serial_out: &str, chaos_seed: u64) {
    let crasher = WorkerProc::spawn(&["--threads", "2", "--chaos", "crash-submit=2"]);
    let garbler = WorkerProc::spawn(&[
        "--threads",
        "2",
        "--chaos",
        &format!("seed={chaos_seed},corrupt=0.2,delay-ms=20@0.4"),
    ]);
    let clean = WorkerProc::spawn(&["--threads", "2"]);
    let out = out_dir(&format!("crash-corrupt-{chaos_seed}"));
    let run = run(
        experiments,
        &out,
        remote_options(&[&crasher, &garbler, &clean]),
    );
    let scenario = format!("crash+corrupt (seed {chaos_seed})");
    assert_identical(&scenario, serial_out, &out, &run);
    // The crasher dies on its second submit while its first point is
    // still in flight, so at least that point must run again.
    expect(
        manifest_count(&read_manifest(&run), "points_redispatched") >= 1,
        &format!("{scenario}: manifest does not surface the re-dispatch"),
    );
    std::fs::remove_dir_all(&out).ok();
}

/// A point that hangs every worker it touches is quarantined, loudly.
fn scenario_quarantine() {
    let experiments = soak_experiments(1);
    let staller_a = WorkerProc::spawn(&["--threads", "1", "--chaos", "stall-submit=1"]);
    let staller_b = WorkerProc::spawn(&["--threads", "1", "--chaos", "stall-submit=1"]);
    let out = out_dir("quarantine");
    let run = run(
        &experiments,
        &out,
        SweepOptions {
            point_deadline_secs: Some(0.4),
            quarantine_after: 1,
            ..remote_options(&[&staller_a, &staller_b])
        },
    );
    expect(
        run.quarantined.len() == 1 && run.quarantined[0].index == 0,
        "quarantine: the poison point was not quarantined",
    );
    expect(
        !run.interrupted,
        "quarantine: a quarantined point must not read as an interruption",
    );
    expect(
        run.supervision.workers_written_off >= 1,
        "quarantine: the first hung worker was never written off",
    );
    let sidecar = Journal::quarantine_sidecar(&run.journal);
    let sidecar_text = std::fs::read_to_string(&sidecar).unwrap_or_else(|e| {
        die(&format!(
            "quarantine sidecar {} missing: {e}",
            sidecar.display()
        ))
    });
    expect(
        sidecar_text.contains(&run.quarantined[0].point_hash),
        "quarantine: sidecar does not name the poison point",
    );
    let manifest = read_manifest(&run);
    expect(
        manifest_count(&manifest, "points_quarantined") == 1,
        "quarantine: manifest does not surface the quarantine",
    );
    eprintln!("chaos_soak: quarantine: poison point surfaced in sidecar and manifest");
    std::fs::remove_dir_all(&out).ok();
}

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => {
                eprintln!("error: unknown argument '{other}'");
                eprint!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let experiments = soak_experiments(4);
    let serial_out = out_dir("serial");
    let serial = run(&experiments, &serial_out, SweepOptions::default());
    expect(
        !serial.interrupted && serial.quarantined.is_empty(),
        "serial reference run did not complete",
    );
    let serial_csv = Path::new(&serial_out).join("soak.csv");
    wormsim::observe::atomic_write(&serial_csv, format_sweep_csv(&results_of(&serial)))
        .unwrap_or_else(|e| die(&format!("write serial csv: {e}")));

    scenario_hedge(&experiments, &serial_out);
    scenario_write_off(&experiments, &serial_out);
    scenario_crash_corrupt(&experiments, &serial_out, 1993);
    if !smoke {
        for chaos_seed in [7, 11, 13] {
            scenario_crash_corrupt(&experiments, &serial_out, chaos_seed);
        }
    }
    scenario_quarantine();

    std::fs::remove_dir_all(&serial_out).ok();
    println!(
        "chaos soak passed: stall/hedge, hung-worker write-off, crash+corrupt identity{}, and quarantine all held",
        if smoke { " (smoke)" } else { " (x4 seeds)" }
    );
}
