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

use wormsim_bench::worker::{serve, WorkerConfig};
use wormsim_bench::ChaosPlan;

const USAGE: &str =
    "usage: wormsim-worker [--listen HOST:PORT] [--threads N] [--drain-secs S] [--chaos SPEC]

Runs sweep points submitted over HTTP by `study <id>` using
--backend remote. Options:

  --listen HOST:PORT  bind address (default 127.0.0.1:0, an ephemeral
                      port announced on stdout)
  --threads N         concurrent simulation slots (default: all cores)
  --drain-secs S      SIGTERM grace for in-flight runs (default 30)
  --chaos SPEC        seeded fault injection, e.g.
                      'seed=7,crash-submit=3,corrupt=0.2,delay-ms=50@0.5'
                      (keys: crash-submit, stall-submit, delay-ms=MS@P,
                      drop, truncate, corrupt, slow-handshake-ms, seed)
";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<WorkerConfig>, String> {
    let mut config = WorkerConfig {
        listen: "127.0.0.1:0".to_owned(),
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        chaos: ChaosPlan::default(),
        drain_secs: 30,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                config.listen = args.next().ok_or("--listen needs HOST:PORT")?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                config.threads = wormsim_bench::cli::parse_threads(&v)?;
            }
            "--drain-secs" => {
                let v = args.next().ok_or("--drain-secs needs a value")?;
                config.drain_secs = v
                    .parse()
                    .map_err(|_| format!("bad drain budget '{v}' (expected seconds)"))?;
            }
            "--chaos" => {
                let v = args.next().ok_or("--chaos needs a spec")?;
                config.chaos = ChaosPlan::parse(&v).map_err(|e| e.to_string())?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Some(config))
}

fn main() {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(Some(config)) => config,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
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
        parse_args(args.iter().map(|s| (*s).to_owned()))
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
