//! `wormsim-worker` — a headless simulation worker for distributed
//! sweeps.
//!
//! Binds an HTTP listener, announces the bound port on stdout, and runs
//! submitted sweep points until killed. Pair with `study <id>`'s
//! `--backend remote --worker HOST:PORT` flags; see `docs/DISTRIBUTION.md`
//! for the protocol and a two-terminal walkthrough.
//!
//! SIGTERM drains gracefully: in-flight runs get `--drain-secs` to
//! finish, then the process exits 0. `--chaos SPEC` arms seeded fault
//! injection for supervision testing (see `docs/DISTRIBUTION.md`,
//! "Supervision & Chaos").

use wormsim_bench::cli;
use wormsim_bench::worker::{serve, WorkerConfig};

fn main() {
    let config: WorkerConfig = cli::parse_or_exit();
    if config.chaos.is_active() {
        eprintln!("wormsim-worker: chaos plan armed: {:?}", config.chaos);
    }
    if let Err(err) = serve(&config) {
        eprintln!("wormsim-worker: {err}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<WorkerConfig>, String> {
        cli::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_listen_and_threads() {
        let config = parse(&["--listen", "0.0.0.0:7777", "--threads", "3"])
            .unwrap()
            .unwrap();
        assert_eq!(config.listen, "0.0.0.0:7777");
        assert_eq!(config.threads, 3);
        assert!(!config.chaos.is_active());
        assert_eq!(config.drain_secs, 30);
    }

    #[test]
    fn defaults_to_ephemeral_loopback() {
        let config = parse(&[]).unwrap().unwrap();
        assert_eq!(config.listen, "127.0.0.1:0");
        assert!(config.threads >= 1);
    }

    #[test]
    fn parses_chaos_and_drain() {
        let config = parse(&["--chaos", "crash-submit=2,drop=0.1", "--drain-secs", "5"])
            .unwrap()
            .unwrap();
        assert_eq!(config.chaos.crash_submit, Some(2));
        assert_eq!(config.chaos.drop_p, 0.1);
        assert_eq!(config.drain_secs, 5);
        assert!(config.chaos.is_active());
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&["--listen"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--port", "1"]).is_err());
        assert!(parse(&["--chaos", "warp=1"]).is_err());
        assert!(parse(&["--chaos", "drop=2"]).is_err());
        assert!(parse(&["--drain-secs", "soon"]).is_err());
        assert!(parse(&["--help"]).unwrap().is_none());
    }
}
