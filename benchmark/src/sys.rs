//! What the benchmark asks of the host: memory high-water marks, core
//! count, load average, and scratch directories.

use std::path::{Path, PathBuf};

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in KiB.
/// `pid = None` reads this process.
pub fn proc_status_kb(pid: Option<u32>, key: &str) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    parse_status_kb(&text, key)
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

pub fn kb_to_mib(kb: u64) -> f64 {
    kb as f64 / 1024.0
}

/// Peak resident set of this process so far, in MiB.
///
/// # Panics
///
/// Where `/proc` does not report it: the memory metric would be invented.
pub fn peak_rss_mib() -> f64 {
    kb_to_mib(proc_status_kb(None, "VmHWM").expect("/proc/self/status reports VmHWM"))
}

/// Current resident set of this process, in MiB.
pub fn rss_mib() -> f64 {
    kb_to_mib(proc_status_kb(None, "VmRSS").expect("/proc/self/status reports VmRSS"))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Simulation slots every sweep workload uses: all cores, capped at four
/// so results from larger machines stay comparable.
pub fn slots() -> usize {
    nproc().min(4)
}

/// The 1-minute load average, where the host reports one.
pub fn load_average() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// The benchmark's own directory: `benchmark/` when invoked from the
/// repository root (how the driver runs it), the current directory when
/// invoked from inside it (`cd benchmark && cargo run`).
pub fn bench_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark")
    } else {
        PathBuf::from(".")
    }
}

/// Empties and recreates `dir`, so a journal or observe stream left by an
/// earlier repeat can never be resumed or re-read.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t  123456 kB\nVmRSS:\t     512 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(512));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(kb_to_mib(2048), 2.0);
    }

    #[test]
    fn this_process_has_a_resident_set() {
        // Other tests allocate meanwhile: read the current size first.
        let now = rss_mib();
        assert!(now > 0.0);
        assert!(peak_rss_mib() >= now);
        assert!(slots() >= 1 && slots() <= 4);
    }

    #[test]
    fn fresh_dir_discards_old_contents() {
        let dir = bench_dir().join("out/test-fresh-dir");
        fresh_dir(&dir).unwrap();
        std::fs::write(dir.join("stale"), "x").unwrap();
        fresh_dir(&dir).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
