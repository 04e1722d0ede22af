//! Parsers for the compact values of `study`'s axis and harness flags.
//!
//! * Topologies: `torus:16x16`, `mesh:8x8x8`, bare `16x16` (torus), or the
//!   k-ary n-cube shorthand `8^3` / `torus:16^3` / `mesh:4^2`.
//! * Traffic: `uniform`, `hotspot:15,15@0.04` (several nodes separated by
//!   `+`), `local:3`, `transpose`, `bitrev`, `complement`.
//! * Loads: a comma list `0.1,0.2,0.5` or a range `0.1:1.0:0.1`.
//! * Switching: `wh` (2-flit buffers), `wh:4` (explicit depth), `vct`,
//!   `saf`.

use std::str::FromStr;
use wormsim::routing::AlgorithmKind;
use wormsim::topology::Topology;
use wormsim::{Switching, TrafficConfig};

/// Ends a binary on a malformed command line: prints the error and the
/// usage line to stderr and exits with status 2.
pub fn usage_error(message: &str, usage: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Parses `torus:16x16`, `mesh:4x4x4`, `16x16`, or the k-ary n-cube
/// shorthand `k^n` (`8^3` is the paper literature's 8-ary 3-cube, i.e.
/// `torus:8x8x8`).
///
/// # Errors
///
/// Returns a human-readable message for malformed input.
pub fn parse_topology(s: &str) -> Result<Topology, String> {
    let (kind, dims_str) = match s.split_once(':') {
        Some((kind, rest)) => (kind, rest),
        None => ("torus", s),
    };
    let dims: Vec<u16> = if let Some((k_str, n_str)) = dims_str.split_once('^') {
        let k = u16::from_str(k_str).map_err(|_| format!("bad radix '{k_str}' in '{s}'"))?;
        let n = usize::from_str(n_str)
            .map_err(|_| format!("bad dimension count '{n_str}' in '{s}'"))?;
        if n == 0 || n > 16 {
            return Err(format!("dimension count {n} out of range 1..=16 in '{s}'"));
        }
        vec![k; n]
    } else {
        dims_str
            .split('x')
            .map(|d| u16::from_str(d).map_err(|_| format!("bad dimension '{d}' in '{s}'")))
            .collect::<Result<_, _>>()?
    };
    match kind {
        "torus" => Topology::try_torus(&dims).map_err(|e| e.to_string()),
        "mesh" => Topology::try_mesh(&dims).map_err(|e| e.to_string()),
        other => Err(format!("unknown topology kind '{other}' (torus|mesh)")),
    }
}

/// Parses a comma-separated algorithm list (`phop,ecube,...`); `all` and
/// `paper` expand to the paper's six, `extended` adds wfirst and naive.
///
/// # Errors
///
/// Returns a human-readable message for unknown names.
pub fn parse_algorithms(s: &str) -> Result<Vec<AlgorithmKind>, String> {
    match s {
        "all" | "paper" => Ok(AlgorithmKind::all().to_vec()),
        "extended" => Ok(AlgorithmKind::extended().to_vec()),
        list => list
            .split(',')
            .map(|name| name.parse::<AlgorithmKind>().map_err(|e| e.to_string()))
            .collect(),
    }
}

/// Parses the traffic mini-language described in the module docs.
///
/// # Errors
///
/// Returns a human-readable message for malformed input.
pub fn parse_traffic(s: &str) -> Result<TrafficConfig, String> {
    let (kind, rest) = match s.split_once(':') {
        Some((kind, rest)) => (kind, Some(rest)),
        None => (s, None),
    };
    match (kind, rest) {
        ("uniform", None) => Ok(TrafficConfig::Uniform),
        ("transpose", None) => Ok(TrafficConfig::Transpose),
        ("bitrev" | "bit-reversal", None) => Ok(TrafficConfig::BitReversal),
        ("complement", None) => Ok(TrafficConfig::Complement),
        ("local", Some(r)) => Ok(TrafficConfig::Local {
            radius: u16::from_str(r).map_err(|_| format!("bad radius '{r}'"))?,
        }),
        ("hotspot", Some(spec)) => {
            let (nodes_str, frac_str) = spec
                .split_once('@')
                .ok_or_else(|| format!("hotspot needs '@fraction' in '{s}'"))?;
            let nodes: Vec<Vec<u16>> = nodes_str
                .split('+')
                .map(|node| {
                    node.split(',')
                        .map(|c| u16::from_str(c).map_err(|_| format!("bad coordinate '{c}'")))
                        .collect()
                })
                .collect::<Result<_, _>>()?;
            let fraction =
                f64::from_str(frac_str).map_err(|_| format!("bad fraction '{frac_str}'"))?;
            Ok(TrafficConfig::Hotspot { nodes, fraction })
        }
        _ => Err(format!(
            "unknown traffic '{s}' (uniform|hotspot:x,y@f|local:r|transpose|bitrev|complement)"
        )),
    }
}

/// The most steps a `start:end:step` load range may span: the paper's
/// sweeps have twelve loads, and a step too small to matter is a typo.
pub const MAX_RANGE_STEPS: usize = 1000;

/// Parses `0.1,0.3,0.5` or `start:end:step` (inclusive of `end` within a
/// half-step tolerance).
///
/// # Errors
///
/// Returns a human-readable message for malformed or empty input, a
/// non-finite bound, and a range spanning more than [`MAX_RANGE_STEPS`]
/// steps.
pub fn parse_loads(s: &str) -> Result<Vec<f64>, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let loads = match parts.as_slice() {
        [_] => s
            .split(',')
            .map(|l| f64::from_str(l).map_err(|_| format!("bad load '{l}'")))
            .collect::<Result<Vec<f64>, _>>()?,
        [start, end, step] => {
            let start = f64::from_str(start).map_err(|_| format!("bad start '{start}'"))?;
            let end = f64::from_str(end).map_err(|_| format!("bad end '{end}'"))?;
            let step = f64::from_str(step).map_err(|_| format!("bad step '{step}'"))?;
            // The loop's bound is fixed before it starts: a step too small
            // to move `x` must not spin it forever. NaN fails both tests.
            let steps = (end - start) / step;
            if !(step > 0.0 && (0.0..=MAX_RANGE_STEPS as f64).contains(&steps)) {
                return Err(format!(
                    "bad range '{s}' (needs start <= end, step > 0 and at most \
                     {MAX_RANGE_STEPS} steps)"
                ));
            }
            let mut loads = Vec::new();
            let mut x = start;
            for _ in 0..steps as usize + 2 {
                if x > end + step / 2.0 {
                    break;
                }
                loads.push((x * 1e9).round() / 1e9);
                x += step;
            }
            loads
        }
        _ => return Err(format!("bad loads '{s}' (list or start:end:step)")),
    };
    if loads.is_empty() || loads.iter().any(|&l| !(0.0..=1.0).contains(&l) || l == 0.0) {
        return Err(format!("loads out of (0, 1] in '{s}'"));
    }
    Ok(loads)
}

/// Parses `wh`, `wh:<depth>`, `vct`, or `saf`.
///
/// # Errors
///
/// Returns a human-readable message for malformed input.
pub fn parse_switching(s: &str) -> Result<Switching, String> {
    match s.split_once(':') {
        None => match s {
            "wh" | "wormhole" => Ok(Switching::wormhole()),
            "vct" | "cut-through" => Ok(Switching::VirtualCutThrough),
            "saf" | "store-and-forward" => Ok(Switching::StoreAndForward),
            other => Err(format!("unknown switching '{other}' (wh|wh:N|vct|saf)")),
        },
        Some(("wh", depth)) => {
            let buffer_depth =
                u32::from_str(depth).map_err(|_| format!("bad buffer depth '{depth}'"))?;
            if buffer_depth == 0 {
                return Err("buffer depth must be at least 1".to_owned());
            }
            Ok(Switching::Wormhole { buffer_depth })
        }
        Some(_) => Err(format!("unknown switching '{s}'")),
    }
}

/// Parses a worker-thread count: a positive integer (`--threads`).
///
/// # Errors
///
/// Returns a usage message for non-integers and for `0`, which would
/// deadlock the work-stealing loop rather than mean "auto".
pub fn parse_threads(s: &str) -> Result<usize, String> {
    let threads = usize::from_str(s)
        .map_err(|_| format!("bad thread count '{s}' (expected a positive integer)"))?;
    if threads == 0 {
        return Err("thread count must be at least 1".to_owned());
    }
    Ok(threads)
}

/// Parses a sampling stride in cycles (`--sample-every`): a positive
/// integer.
///
/// # Errors
///
/// Returns a usage message for non-integers and for `0`; callers that want
/// the observe layer's default stride should omit the flag instead.
pub fn parse_sample_every(s: &str) -> Result<u64, String> {
    let every = u64::from_str(s)
        .map_err(|_| format!("bad sample stride '{s}' (expected a positive integer)"))?;
    if every == 0 {
        return Err("sample stride must be at least 1 cycle".to_owned());
    }
    Ok(every)
}

/// Parses a base RNG seed (`--seed`).
///
/// # Errors
///
/// Returns a usage message for values that are not unsigned integers.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    u64::from_str(s).map_err(|_| format!("bad seed '{s}' (expected an unsigned integer)"))
}

/// Parses a per-run cycle budget (`--cycle-budget`): a positive integer.
///
/// # Errors
///
/// Returns a usage message for non-integers and for `0`; callers that want
/// no cap should omit the flag instead.
pub fn parse_cycle_budget(s: &str) -> Result<u64, String> {
    let budget = u64::from_str(s)
        .map_err(|_| format!("bad cycle budget '{s}' (expected a positive integer)"))?;
    if budget == 0 {
        return Err("cycle budget must be at least 1".to_owned());
    }
    Ok(budget)
}

/// Parses a count flag where `0` is meaningful (`--max-faults 0` is the
/// fault-free baseline alone): a non-negative integer.
///
/// # Errors
///
/// Returns a usage message naming `flag` for non-integers.
pub fn parse_count(flag: &str, s: &str) -> Result<usize, String> {
    usize::from_str(s).map_err(|_| format!("bad {flag} '{s}' (expected a non-negative integer)"))
}

/// Parses a per-run wall-clock budget in seconds (`--wall-budget`): a
/// positive number, fractions allowed.
///
/// # Errors
///
/// Returns a usage message for values that are not positive finite numbers.
pub fn parse_wall_budget(s: &str) -> Result<f64, String> {
    let budget = f64::from_str(s)
        .map_err(|_| format!("bad wall budget '{s}' (expected seconds, e.g. 30 or 2.5)"))?;
    if !budget.is_finite() || budget <= 0.0 {
        return Err("wall budget must be a positive number of seconds".to_owned());
    }
    Ok(budget)
}

/// Parses a retry count for transient point outcomes (`--retries`): zero
/// or more extra attempts.
///
/// # Errors
///
/// Returns a usage message for non-integers.
pub fn parse_retries(s: &str) -> Result<u32, String> {
    u32::from_str(s).map_err(|_| format!("bad retry count '{s}' (expected an integer, 0 disables)"))
}

/// Parses the crash-simulation threshold (`--fail-after-points`): a
/// positive number of journaled points after which the process aborts.
///
/// # Errors
///
/// Returns a usage message for non-integers and for `0` (the process would
/// abort before journaling anything, proving nothing).
pub fn parse_fail_after(s: &str) -> Result<usize, String> {
    let points = usize::from_str(s)
        .map_err(|_| format!("bad point count '{s}' (expected a positive integer)"))?;
    if points == 0 {
        return Err("--fail-after-points must be at least 1".to_owned());
    }
    Ok(points)
}

/// Parses a supervision interval in seconds (`--point-deadline`,
/// `--hedge-after`): a positive number, fractions allowed.
///
/// # Errors
///
/// Returns a usage message (naming `flag`) for values that are not
/// positive finite numbers.
pub fn parse_supervise_secs(flag: &str, s: &str) -> Result<f64, String> {
    let secs = f64::from_str(s)
        .map_err(|_| format!("bad {flag} '{s}' (expected seconds, e.g. 30 or 2.5)"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("{flag} must be a positive number of seconds"));
    }
    Ok(secs)
}

/// Parses the poison-point dispatch budget (`--quarantine-after`): how
/// many dispatches a point may burn before the supervisor quarantines it.
/// `0` disables quarantine.
///
/// # Errors
///
/// Returns a usage message for non-integers.
pub fn parse_quarantine_after(s: &str) -> Result<u64, String> {
    u64::from_str(s)
        .map_err(|_| format!("bad dispatch budget '{s}' (expected an integer, 0 disables)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies() {
        assert_eq!(parse_topology("16x16").unwrap(), Topology::torus(&[16, 16]));
        assert_eq!(
            parse_topology("torus:8x4").unwrap(),
            Topology::torus(&[8, 4])
        );
        assert_eq!(
            parse_topology("mesh:4x4x4").unwrap(),
            Topology::mesh(&[4, 4, 4])
        );
        assert!(parse_topology("ring:9").is_err());
        assert!(parse_topology("torus:1x4").is_err());
        assert!(parse_topology("16xsixteen").is_err());
    }

    #[test]
    fn k_ary_n_cube_shorthand() {
        assert_eq!(parse_topology("8^3").unwrap(), Topology::torus(&[8, 8, 8]));
        assert_eq!(
            parse_topology("torus:16^3").unwrap(),
            Topology::k_ary_n_cube(16, 3)
        );
        assert_eq!(parse_topology("mesh:4^2").unwrap(), Topology::mesh(&[4, 4]));
        assert!(parse_topology("8^0").is_err());
        assert!(parse_topology("8^99").is_err());
        assert!(parse_topology("k^3").is_err());
        // Channel-id overflow surfaces as a parse error, not a wrap.
        assert!(parse_topology("46341x46341").is_err());
    }

    #[test]
    fn algorithms() {
        assert_eq!(parse_algorithms("all").unwrap().len(), 6);
        assert_eq!(parse_algorithms("extended").unwrap().len(), 8);
        assert_eq!(
            parse_algorithms("phop,ecube").unwrap(),
            vec![AlgorithmKind::PositiveHop, AlgorithmKind::Ecube]
        );
        assert!(parse_algorithms("phop,warp").is_err());
    }

    #[test]
    fn traffic() {
        assert_eq!(parse_traffic("uniform").unwrap(), TrafficConfig::Uniform);
        assert_eq!(
            parse_traffic("local:3").unwrap(),
            TrafficConfig::Local { radius: 3 }
        );
        assert_eq!(
            parse_traffic("hotspot:15,15@0.04").unwrap(),
            TrafficConfig::Hotspot {
                nodes: vec![vec![15, 15]],
                fraction: 0.04
            }
        );
        assert_eq!(
            parse_traffic("hotspot:3,3+11,11@0.08").unwrap(),
            TrafficConfig::Hotspot {
                nodes: vec![vec![3, 3], vec![11, 11]],
                fraction: 0.08
            }
        );
        assert!(parse_traffic("hotspot:15,15").is_err());
        assert!(parse_traffic("lavaflow").is_err());
    }

    #[test]
    fn loads() {
        assert_eq!(parse_loads("0.1,0.5").unwrap(), vec![0.1, 0.5]);
        let range = parse_loads("0.2:0.6:0.2").unwrap();
        assert_eq!(range.len(), 3);
        assert!((range[2] - 0.6).abs() < 1e-9);
        assert!(parse_loads("0:1:0.1").is_err(), "zero load rejected");
        assert!(parse_loads("0.5:0.1:0.1").is_err());
        assert!(parse_loads("a,b").is_err());
    }

    #[test]
    fn load_ranges_terminate_on_every_input() {
        for s in [
            "0.1:1:1e-300",
            "0.1:1:1e-7",
            "0.1:inf:0.1",
            "nan:1:0.1",
            "0.1:1:nan",
            "-inf:1:0.1",
            "-1e308:1e308:0.1",
            "0.5:0.1:0.1",
        ] {
            let err = parse_loads(s).unwrap_err();
            assert!(err.contains("at most 1000 steps"), "{s}: {err}");
        }
        // Steps that cannot move `x`, or jump straight to infinity, stop
        // at the bound and then fail the (0, 1] check.
        for s in ["1e300:1e300:1", "0.1:1:inf"] {
            let err = parse_loads(s).unwrap_err();
            assert!(err.contains("out of (0, 1]"), "{s}: {err}");
        }
        // The cap's edge: a range of MAX_RANGE_STEPS steps is accepted.
        assert_eq!(parse_loads("0.001:1:0.001").unwrap().len(), 1000);
        assert_eq!(parse_loads("0.1:1.0:0.1").unwrap().len(), 10);
        assert_eq!(
            parse_loads("0.05:0.2:0.05").unwrap(),
            vec![0.05, 0.1, 0.15, 0.2]
        );
        // On a half-step boundary the accumulated `x` decides, as it
        // always has.
        assert_eq!(parse_loads("0.01:0.08:0.02").unwrap().len(), 4);
        assert_eq!(parse_loads("0.01:0.26:0.1").unwrap().len(), 3);
    }

    #[test]
    fn threads() {
        assert_eq!(parse_threads("8").unwrap(), 8);
        assert!(parse_threads("0").is_err(), "zero workers rejected");
        assert!(parse_threads("-2").is_err());
        assert!(parse_threads("many").is_err());
        assert!(parse_threads("1.5").is_err());
    }

    #[test]
    fn sample_strides() {
        assert_eq!(parse_sample_every("1000").unwrap(), 1000);
        assert_eq!(parse_sample_every("1").unwrap(), 1);
        assert!(parse_sample_every("0").is_err(), "zero stride rejected");
        assert!(parse_sample_every("-5").is_err());
        assert!(parse_sample_every("often").is_err());
    }

    #[test]
    fn seeds() {
        assert_eq!(parse_seed("1993").unwrap(), 1993);
        assert!(parse_seed("0x1f").is_err());
        assert!(parse_seed("-1").is_err());
        assert!(parse_seed("seed").is_err());
    }

    #[test]
    fn counts() {
        assert_eq!(parse_count("--max-faults", "0").unwrap(), 0);
        assert_eq!(parse_count("--max-faults", "12").unwrap(), 12);
        let err = parse_count("--max-faults", "lots").unwrap_err();
        assert!(err.contains("--max-faults"), "got: {err}");
        assert!(parse_count("--max-faults", "-1").is_err());
    }

    #[test]
    fn budgets() {
        assert_eq!(parse_cycle_budget("50000").unwrap(), 50_000);
        assert!(parse_cycle_budget("0").is_err(), "zero cycles rejected");
        assert!(parse_cycle_budget("soon").is_err());
        assert!((parse_wall_budget("2.5").unwrap() - 2.5).abs() < 1e-12);
        assert!((parse_wall_budget("30").unwrap() - 30.0).abs() < 1e-12);
        assert!(parse_wall_budget("0").is_err(), "zero seconds rejected");
        assert!(parse_wall_budget("-1").is_err());
        assert!(parse_wall_budget("inf").is_err());
        assert!(parse_wall_budget("later").is_err());
    }

    #[test]
    fn switching() {
        assert_eq!(parse_switching("wh").unwrap(), Switching::wormhole());
        assert_eq!(
            parse_switching("wh:4").unwrap(),
            Switching::Wormhole { buffer_depth: 4 }
        );
        assert_eq!(
            parse_switching("vct").unwrap(),
            Switching::VirtualCutThrough
        );
        assert_eq!(parse_switching("saf").unwrap(), Switching::StoreAndForward);
        assert!(parse_switching("wh:0").is_err());
        assert!(parse_switching("teleport").is_err());
    }
}
