//! Run inspector: renders an `--observe` output directory into a text
//! report, and diffs two such directories.
//!
//! ```text
//! inspect DIR [DIR2] [--top N]
//! ```
//!
//! For every run id found in `DIR` (by its `<run_id>.metrics.json`,
//! `<run_id>.manifest.json`, and `<run_id>.waitfor.jsonl` sidecars) the
//! report shows the outcome, latency percentiles, the hottest channels
//! (as node coordinates plus direction), the VC-class imbalance table,
//! the engine-phase breakdown, and — for deadlocked/livelocked runs —
//! the wait-for forensics: how many worms wait on what, and whether a
//! concrete channel cycle was found. With a second directory, runs
//! sharing an id are diffed (latency percentiles, utilization, outcome)
//! instead of reported in full. `--top N` bounds the hot-channel list
//! (default 5).
//!
//! Unreadable or foreign files are reported on stderr and skipped: an
//! `obs/` directory mixing several sweeps still renders.

use std::collections::BTreeMap;
use std::path::Path;
use wormsim::observe::{json, MetricsReport, PhaseRecord, RunManifest, WaitForSnapshot};
use wormsim_bench::cli::{self, InspectArgs};

/// Everything one run left behind in the observe directory.
#[derive(Default)]
struct Run {
    metrics: Option<MetricsReport>,
    manifest: Option<RunManifest>,
    waitfor: Vec<WaitForSnapshot>,
}

/// Scans `dir` for per-run sidecars, grouped by run id. Files that fail
/// to parse are reported on stderr and skipped, not fatal: forensics
/// must work on partially written or mixed directories.
fn scan(dir: &Path) -> Result<BTreeMap<String, Run>, String> {
    let mut runs: BTreeMap<String, Run> = BTreeMap::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let path = entry.path();
        if let Some(id) = name.strip_suffix(".metrics.json") {
            match MetricsReport::read_from(&path) {
                Ok(report) => runs.entry(id.to_owned()).or_default().metrics = Some(report),
                Err(e) => eprintln!("skipping {name}: {e}"),
            }
        } else if let Some(id) = name.strip_suffix(".manifest.json") {
            match RunManifest::read_from(&path) {
                Ok(manifest) => runs.entry(id.to_owned()).or_default().manifest = Some(manifest),
                Err(e) => eprintln!("skipping {name}: {e}"),
            }
        } else if let Some(id) = name.strip_suffix(".waitfor.jsonl") {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            for value in json::StreamDeserializer::new(&text) {
                let snapshot = value
                    .map_err(|e| e.to_string())
                    .and_then(|v| WaitForSnapshot::from_json(&v));
                match snapshot {
                    Ok(s) => runs.entry(id.to_owned()).or_default().waitfor.push(s),
                    Err(e) => eprintln!("skipping a record in {name}: {e}"),
                }
            }
        }
    }
    Ok(runs)
}

fn dim_name(dim: usize) -> String {
    ["x", "y", "z", "w"]
        .get(dim)
        .map_or_else(|| format!("d{dim}"), |s| (*s).to_owned())
}

/// Renders a channel id as `(coords)dir`, e.g. `(3,7)y-`: the source
/// node's coordinates (dimension 0 fastest-varying) and the direction it
/// leaves in.
fn channel_label(dims: &[u64], dirs: u64, channel: u64) -> String {
    let node = channel / dirs.max(1);
    let dir = channel % dirs.max(1);
    let mut coords = Vec::new();
    let mut rest = node;
    for &d in dims {
        coords.push((rest % d.max(1)).to_string());
        rest /= d.max(1);
    }
    let sign = if dir.is_multiple_of(2) { '+' } else { '-' };
    format!(
        "({}){}{}",
        coords.join(","),
        dim_name((dir / 2) as usize),
        sign
    )
}

fn print_phases(phases: &[PhaseRecord]) {
    let total: f64 = phases.iter().map(|p| p.wall_seconds).sum();
    println!("  phase breakdown:");
    for p in phases {
        println!(
            "    {:>10}: {:>9.4}s ({:>5.1}%)  {:>10} cycles",
            p.name,
            p.wall_seconds,
            100.0 * p.wall_seconds / total.max(f64::MIN_POSITIVE),
            p.cycles
        );
    }
}

fn print_metrics(report: &MetricsReport, top: usize) {
    let latency = &report.latency;
    let mean = latency.sum as f64 / (latency.count.max(1)) as f64;
    println!(
        "  latency: p50 {} / p95 {} / p99 {} cycles (mean {:.1}, max {}, {} messages)",
        latency.p50, latency.p95, latency.p99, mean, latency.max, latency.count
    );
    println!(
        "  channel utilization: mean {:.4}, peak {:.4} flits/cycle over {} cycles",
        report.mean_channel_utilization, report.peak_channel_utilization, report.cycles
    );

    let mut hottest: Vec<(u64, u64)> = report
        .channel_flits
        .iter()
        .enumerate()
        .map(|(ch, &flits)| (ch as u64, flits))
        .collect();
    hottest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("  hottest channels:");
    for &(ch, flits) in hottest.iter().take(top) {
        println!(
            "    {:>12}: {:>9} flits ({:.4} flits/cycle), {:>8} blocked, {:>6} alloc fails",
            channel_label(&report.dims, report.dirs, ch),
            flits,
            flits as f64 / report.cycles.max(1) as f64,
            report
                .channel_blocked
                .get(ch as usize)
                .copied()
                .unwrap_or(0),
            report
                .channel_alloc_fail
                .get(ch as usize)
                .copied()
                .unwrap_or(0),
        );
    }

    let total_flits: u64 = report.class_flits.iter().sum();
    println!("  VC classes:");
    println!(
        "    {:>5} {:>12} {:>7} {:>12} {:>12}",
        "class", "flits", "share", "blocked", "alloc fails"
    );
    for (class, &flits) in report.class_flits.iter().enumerate() {
        println!(
            "    {:>5} {:>12} {:>6.1}% {:>12} {:>12}",
            class,
            flits,
            100.0 * flits as f64 / total_flits.max(1) as f64,
            report.class_blocked.get(class).copied().unwrap_or(0),
            report.class_alloc_fail.get(class).copied().unwrap_or(0),
        );
    }

    if !report.phases.is_empty() {
        print_phases(&report.phases);
    }
}

fn print_waitfor(snapshot: &WaitForSnapshot, dims: &[u64], dirs: u64) {
    println!(
        "  wait-for snapshot at cycle {} ({}): {} live messages, {} flits in flight, {} edges",
        snapshot.cycle,
        snapshot.reason,
        snapshot.live_messages,
        snapshot.flits_in_flight,
        snapshot.edges.len()
    );
    // Replay the snapshot through the verification layer rather than
    // trusting its recorded cycle fields: a stale or hand-edited snapshot
    // downgrades to budget-artifact instead of reporting a false cycle.
    let report = wormsim::verify::triage(snapshot);
    if report.is_confirmed_unsafe() {
        let hops: Vec<String> = report
            .cycle_messages
            .iter()
            .zip(report.cycle_channels.iter())
            .map(|(msg, &ch)| format!("msg {msg} --[{}]->", channel_label(dims, dirs, ch)))
            .collect();
        println!(
            "    triage: CONFIRMED UNSAFE — validated channel cycle ({} worms): {} msg {}",
            report.cycle_messages.len(),
            hops.join(" "),
            report.cycle_messages.first().unwrap_or(&0)
        );
    } else {
        println!(
            "    triage: budget artifact — no validated channel cycle; the stall looks like \
             congestion or a transient fault, not deadlock"
        );
    }
}

fn print_run(id: &str, run: &Run, top: usize) {
    println!("== {id} ==");
    if let Some(m) = &run.manifest {
        println!(
            "  outcome: {} | {} on {} traffic, seed {}, {} cycles, {:.0} flits/s",
            m.outcome, m.algorithm, m.traffic, m.seed, m.cycles, m.flits_per_sec
        );
    }
    if let Some(report) = &run.metrics {
        print_metrics(report, top);
        for snapshot in &run.waitfor {
            print_waitfor(snapshot, &report.dims, report.dirs);
        }
    } else {
        if run.manifest.is_none() && run.waitfor.is_empty() {
            println!("  (no sidecars parsed)");
        }
        for snapshot in &run.waitfor {
            print_waitfor(snapshot, &[], 1);
        }
    }
    println!();
}

/// Signed relative change in percent, `None` when the base is zero.
fn pct_change(base: f64, new: f64) -> Option<f64> {
    (base != 0.0).then(|| (new / base - 1.0) * 100.0)
}

fn diff_line(what: &str, base: f64, new: f64) {
    match pct_change(base, new) {
        Some(pct) => println!("  {what}: {base:.2} -> {new:.2} ({pct:+.1}%)"),
        None => println!("  {what}: {base:.2} -> {new:.2}"),
    }
}

fn print_diff(id: &str, a: &Run, b: &Run) {
    println!("== {id} ==");
    match (&a.manifest, &b.manifest) {
        (Some(ma), Some(mb)) if ma.outcome != mb.outcome => {
            println!("  outcome: {} -> {}", ma.outcome, mb.outcome);
        }
        (Some(ma), _) => println!("  outcome: {} (unchanged)", ma.outcome),
        _ => {}
    }
    if let (Some(ra), Some(rb)) = (&a.metrics, &b.metrics) {
        diff_line("latency p50", ra.latency.p50 as f64, rb.latency.p50 as f64);
        diff_line("latency p95", ra.latency.p95 as f64, rb.latency.p95 as f64);
        diff_line("latency p99", ra.latency.p99 as f64, rb.latency.p99 as f64);
        diff_line(
            "mean channel utilization",
            ra.mean_channel_utilization,
            rb.mean_channel_utilization,
        );
        diff_line(
            "peak channel utilization",
            ra.peak_channel_utilization,
            rb.peak_channel_utilization,
        );
    } else {
        println!("  (metrics missing on one side; no telemetry diff)");
    }
    match (a.waitfor.len(), b.waitfor.len()) {
        (0, 0) => {}
        (x, y) => println!("  wait-for snapshots: {x} -> {y}"),
    }
    println!();
}

fn main() {
    let options: InspectArgs = cli::parse_or_exit();
    if let Err(message) = run(&options) {
        eprintln!("{message}");
        std::process::exit(1);
    }
}

/// Reports on `options.dir`, or diffs it against `options.diff`.
fn run(options: &InspectArgs) -> Result<(), String> {
    let runs = scan(&options.dir).map_err(|e| format!("error: {e}"))?;
    if runs.is_empty() {
        return Err(format!(
            "no runs found in {} (expected *.metrics.json / *.manifest.json sidecars)",
            options.dir.display()
        ));
    }
    let Some(other_dir) = &options.diff else {
        for (id, run) in &runs {
            print_run(id, run, options.top);
        }
        println!("{} run(s) in {}", runs.len(), options.dir.display());
        return Ok(());
    };
    let others = scan(other_dir).map_err(|e| format!("error: {e}"))?;
    let mut shared = 0usize;
    for (id, run) in &runs {
        match others.get(id) {
            Some(other) => {
                shared += 1;
                print_diff(id, run, other);
            }
            None => println!("== {id} == only in {}\n", options.dir.display()),
        }
    }
    for id in others.keys().filter(|id| !runs.contains_key(*id)) {
        println!("== {id} == only in {}\n", other_dir.display());
    }
    println!(
        "{shared} shared run(s) diffed between {} and {}",
        options.dir.display(),
        other_dir.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(args: &[&str]) -> Result<InspectArgs, String> {
        Ok(cli::parse(args.iter().map(|s| (*s).to_owned()))?.expect("no --help"))
    }

    #[test]
    fn args_parse() {
        let options = parse(&["obs"]).unwrap();
        assert_eq!(options.dir, PathBuf::from("obs"));
        assert!(options.diff.is_none());
        assert_eq!(options.top, 5);
        let options = parse(&["a", "b", "--top", "3"]).unwrap();
        assert_eq!(options.diff.as_deref(), Some(Path::new("b")));
        assert_eq!(options.top, 3);
        assert!(parse(&[]).is_err());
        assert!(parse(&["a", "b", "c"]).is_err());
        assert!(parse(&["a", "--top", "0"]).is_err());
        assert!(parse(&["a", "--hyperdrive"]).is_err());
    }

    #[test]
    fn channel_labels_decode_node_and_direction() {
        // 8x8 grid, 4 directions: channel = (node * 4) + dir, node = x + 8y.
        let dims = [8, 8];
        assert_eq!(channel_label(&dims, 4, 0), "(0,0)x+");
        assert_eq!(channel_label(&dims, 4, 1), "(0,0)x-");
        assert_eq!(channel_label(&dims, 4, (3 + 8 * 7) * 4 + 2), "(3,7)y+");
        // 3D falls back to z; higher dims get d<N> names.
        assert_eq!(channel_label(&[4, 4, 4], 6, 5), "(0,0,0)z-");
        assert_eq!(dim_name(5), "d5");
    }

    #[test]
    fn scan_tolerates_mixed_directories() {
        let dir = std::env::temp_dir().join(format!("wormsim-inspect-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.metrics.json"), "not json").unwrap();
        std::fs::write(dir.join("unrelated.txt"), "ignored").unwrap();
        let runs = scan(&dir).unwrap();
        assert!(runs.is_empty(), "bad and foreign files are skipped");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
