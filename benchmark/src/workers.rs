//! Loopback `wormsim-worker` processes for the `fig3_remote` workload.
//!
//! The workers are this same executable re-entered through its `worker`
//! subcommand, because `cargo run` builds only the binary it runs.

use crate::sys;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use wormsim_bench::worker::{serve, WorkerConfig};
use wormsim_bench::ChaosPlan;

const ANNOUNCEMENT: &str = "wormsim-worker listening on ";

/// Entry point of the `worker` subcommand: serves sweep points on an
/// ephemeral loopback port until killed.
pub fn serve_forever(threads: usize) -> std::io::Result<()> {
    serve(&WorkerConfig {
        listen: "127.0.0.1:0".to_owned(),
        threads,
        chaos: ChaosPlan::default(),
        drain_secs: 0,
    })
}

/// Running workers. Dropping the pool kills and reaps every child, on
/// every exit path that unwinds — including a panic mid-benchmark.
pub struct WorkerPool {
    // The stdout pipe stays open so a worker never writes into a closed one.
    children: Vec<(Child, BufReader<ChildStdout>)>,
    pub addrs: Vec<String>,
}

impl WorkerPool {
    /// Spawns `count` workers with `threads` simulation slots each and
    /// waits for each to announce the port it bound.
    pub fn spawn(count: usize, threads: usize) -> Result<WorkerPool, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let mut pool = WorkerPool {
            children: Vec::new(),
            addrs: Vec::new(),
        };
        for _ in 0..count {
            let mut child = Command::new(&exe)
                .args(["worker", "--threads", &threads.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot spawn worker: {e}"))?;
            let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
            // Registered before the handshake so a failure below still reaps it.
            let mut line = String::new();
            let read = stdout.read_line(&mut line);
            pool.children.push((child, stdout));
            read.map_err(|e| format!("cannot read worker announcement: {e}"))?;
            let addr = parse_announcement(&line)
                .ok_or_else(|| format!("worker announced '{}', not its address", line.trim()))?;
            pool.addrs.push(addr);
        }
        Ok(pool)
    }

    /// Sum of the workers' resident-set high-water marks, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        self.children
            .iter()
            .map(|(child, _)| {
                sys::proc_status_kb(Some(child.id()), "VmHWM").expect("a live worker reports VmHWM")
            })
            .map(sys::kb_to_mib)
            .sum()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for (child, _) in &mut self.children {
            // Already-exited children make kill fail; reaping is what matters.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn parse_announcement(line: &str) -> Option<String> {
    let addr = line.trim().strip_prefix(ANNOUNCEMENT)?;
    addr.parse::<std::net::SocketAddr>().ok()?;
    Some(addr.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announcement_yields_the_bound_address() {
        assert_eq!(
            parse_announcement("wormsim-worker listening on 127.0.0.1:40123\n"),
            Some("127.0.0.1:40123".to_owned())
        );
        assert_eq!(
            parse_announcement("wormsim-worker listening on nowhere\n"),
            None
        );
        assert_eq!(parse_announcement(""), None);
    }
}
