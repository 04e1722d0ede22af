//! The one command-line grammar of the six bins, and the parsers for the
//! compact values their flags take.
//!
//! A bin's parsed command line is a type implementing [`Args`]: a table of
//! [`Flag`] rows, its positional arguments and its cross-flag checks.
//! [`parse`] reads any of them (`--help`/`-h` anywhere, missing values,
//! unknown flags) and [`usage`] renders the usage text from the same table.
//! The tables: [`StudyArgs`](crate::study::StudyArgs) (whose harness flags
//! are [`SweepOptions::flags`](crate::SweepOptions::flags)),
//! [`perf::Options`](crate::perf::Options),
//! [`WorkerConfig`](crate::worker::WorkerConfig), and [`VerifyArgs`],
//! [`InspectArgs`] and [`SoakArgs`] below.
//!
//! Values:
//!
//! * Topologies: `torus:16x16`, `mesh:8x8x8`, bare `16x16` (torus), or the
//!   k-ary n-cube shorthand `8^3` / `torus:16^3` / `mesh:4^2`.
//! * Traffic: `uniform`, `hotspot:15,15@0.04` (several nodes separated by
//!   `+`), `local:3`, `transpose`, `bitrev`, `complement`.
//! * Loads: a comma list `0.1,0.2,0.5` or a range `0.1:1.0:0.1`.
//! * Switching: `wh` (2-flit buffers), `wh:4` (explicit depth), `vct`,
//!   `saf`.

use std::path::PathBuf;
use std::str::FromStr;
use wormsim::routing::AlgorithmKind;
use wormsim::topology::Topology;
use wormsim::verify::AdversaryConfig;
use wormsim::{Switching, TrafficConfig};

/// One row of a bin's flag table: the flag (`--seed`), its value's
/// placeholder in the usage text (`N`; `None` for a switch, which takes no
/// value), how a value (empty for a switch) applies to the command line,
/// and one line of help.
pub struct Flag<T> {
    pub name: &'static str,
    pub metavar: Option<&'static str>,
    pub apply: fn(&mut T, &str) -> Result<(), String>,
    pub help: &'static str,
}

impl<T> Flag<T> {
    /// The flag as the usage text shows it: `--seed N`, `--quick`.
    fn form(&self) -> String {
        match self.metavar {
            Some(metavar) => format!("{} {metavar}", self.name),
            None => self.name.to_owned(),
        }
    }
}

/// A bin's parsed command line, filled from its flag table by [`parse`].
pub trait Args: Default {
    /// The bin and its positional arguments, as the usage text opens:
    /// `inspect DIR [DIR2]`.
    const SYNOPSIS: &'static str;

    /// The flag table.
    fn flags() -> Vec<Flag<Self>>;

    /// Takes one positional argument, before any flag is applied; by
    /// default the bin takes none.
    fn positional(&mut self, arg: String) -> Result<(), String> {
        Err(format!("unknown argument '{arg}'"))
    }

    /// Refuses a flag of the table that the row the positional arguments
    /// picked leaves out (a study row's or perf preset's
    /// [`Axis`](crate::study::Axis) flags); by default every flag is taken.
    fn refuse(&self, _flag: &str) -> Result<(), String> {
        Ok(())
    }

    /// The cross-flag checks, once every flag is applied; `given` names the
    /// flags in command-line order.
    fn finish(&mut self, _given: &[&str]) -> Result<(), String> {
        Ok(())
    }
}

/// Looks `arg` up in `table` and pulls its value, if it takes one, off
/// `args`; `Ok(None)` when the table has no such flag.
pub(crate) fn take<'t, T>(
    table: &'t [Flag<T>],
    arg: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<Option<(&'t Flag<T>, String)>, String> {
    let Some(flag) = table.iter().find(|flag| flag.name == arg) else {
        return Ok(None);
    };
    let value = match flag.metavar {
        Some(_) => args.next().ok_or_else(|| format!("{arg} needs a value"))?,
        None => String::new(),
    };
    Ok(Some((flag, value)))
}

/// Parses `args` (program name already stripped) into `T`: `Ok(None)` when
/// `--help` or `-h` appears anywhere. Positional arguments are taken first,
/// then every flag is checked against [`Args::refuse`] before any is
/// applied, in command-line order; [`Args::finish`] comes last.
///
/// # Errors
///
/// The usage message of the first of those steps to fail.
pub fn parse<T: Args>(args: impl IntoIterator<Item = String>) -> Result<Option<T>, String> {
    let args: Vec<String> = args.into_iter().collect();
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        return Ok(None);
    }
    let table = T::flags();
    let (mut given, mut positionals) = (Vec::new(), Vec::new());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match take(&table, &arg, &mut args)? {
            Some(flag) => given.push(flag),
            None if arg.starts_with('-') => return Err(format!("unknown argument '{arg}'")),
            None => positionals.push(arg),
        }
    }
    let mut target = T::default();
    for arg in positionals {
        target.positional(arg)?;
    }
    for (flag, _) in &given {
        target.refuse(flag.name)?;
    }
    for (flag, value) in &given {
        (flag.apply)(&mut target, value)?;
    }
    let names: Vec<&str> = given.iter().map(|(flag, _)| flag.name).collect();
    target.finish(&names)?;
    Ok(Some(target))
}

/// The usage text of `T`'s bin: the synopsis with every flag, then one
/// line of help per flag.
pub fn usage<T: Args>() -> String {
    let table = T::flags();
    let forms: String = table.iter().map(|f| format!(" [{}]", f.form())).collect();
    let help: String = table
        .iter()
        .map(|f| format!("\n  {:<26}{}", f.form(), f.help))
        .collect();
    format!("usage: {}{forms}\n{help}", T::SYNOPSIS)
}

/// Parses the process's arguments into `T`, or ends the process: `--help`
/// prints the usage on stdout and exits 0, a malformed command line exits
/// through [`usage_error`].
pub fn parse_or_exit<T: Args>() -> T {
    match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", usage::<T>());
            std::process::exit(0);
        }
        Err(message) => usage_error(&message, &usage::<T>()),
    }
}

/// Ends a binary on a malformed command line: prints the error and the
/// usage text to stderr and exits with status 2.
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

/// Parses a whole number of at least `min`: 0 where zero means something
/// (`--max-faults 0` is the fault-free baseline alone, `--retries 0` no
/// retry), 1 where it would not (`--threads 0` would deadlock the pool,
/// `--cycle-budget 0` run nothing).
///
/// # Errors
///
/// Returns a usage message naming `what` for anything else.
pub fn parse_int<T>(what: &str, s: &str, min: u8) -> Result<T, String>
where
    T: FromStr + PartialOrd + From<u8>,
{
    T::from_str(s)
        .ok()
        .filter(|n| *n >= T::from(min))
        .ok_or_else(|| format!("bad {what} '{s}' (expected a whole number >= {min})"))
}

/// Parses a positive finite number, fractions allowed: seconds
/// (`--wall-budget 2.5`) or a percentage (`--max-overhead-pct`).
///
/// # Errors
///
/// Returns a usage message naming `what` for anything else.
pub fn parse_positive(what: &str, s: &str) -> Result<f64, String> {
    f64::from_str(s)
        .ok()
        .filter(|x| x.is_finite() && *x > 0.0)
        .ok_or_else(|| format!("bad {what} '{s}' (expected a positive number, e.g. 30 or 2.5)"))
}

/// The `verify` command line: which algorithms to prove or refute on
/// which network, how hard the fault adversary plays (`config`), and where
/// counterexamples go.
pub struct VerifyArgs {
    pub topology: Topology,
    pub algorithms: Vec<AlgorithmKind>,
    pub config: AdversaryConfig,
    pub out: Option<PathBuf>,
    pub smoke: bool,
}

impl Default for VerifyArgs {
    fn default() -> Self {
        VerifyArgs {
            topology: Topology::torus(&[4, 4]),
            algorithms: AlgorithmKind::all().to_vec(),
            config: AdversaryConfig {
                max_faults: 1,
                ..AdversaryConfig::default()
            },
            out: None,
            smoke: false,
        }
    }
}

impl Args for VerifyArgs {
    const SYNOPSIS: &'static str = "verify";

    #[rustfmt::skip] // one row per line
    fn flags() -> Vec<Flag<Self>> {
        vec![
            Flag { name: "--smoke", metavar: None, apply: |a, _| { a.smoke = true; Ok(()) }, help: "the CI preset: the defaults, at most one fault" },
            Flag { name: "--topo", metavar: Some("T"), apply: |a, v| { a.topology = parse_topology(v)?; Ok(()) }, help: "network (default torus:4x4)" },
            Flag { name: "--algos", metavar: Some("A"), apply: |a, v| { a.algorithms = parse_algorithms(v)?; Ok(()) }, help: "algorithms: all|extended|phop,ecube,... (default all)" },
            Flag { name: "--max-faults", metavar: Some("K"), apply: |a, v| { a.config.max_faults = parse_int("--max-faults", v, 0)?; Ok(()) }, help: "every fault plan of up to K dead links (default 1)" },
            Flag { name: "--node-faults", metavar: None, apply: |a, _| { a.config.node_faults = true; Ok(()) }, help: "add whole-node faults to the exhaustive pool" },
            Flag { name: "--random-plans", metavar: Some("N"), apply: |a, v| { a.config.random_plans = parse_int("--random-plans", v, 0)?; Ok(()) }, help: "seeded random fault plans on top" },
            Flag { name: "--random-faults", metavar: Some("K"), apply: |a, v| { a.config.random_faults = parse_int("--random-faults", v, 0)?; Ok(()) }, help: "faults per random plan" },
            Flag { name: "--transient-plans", metavar: Some("N"), apply: |a, v| { a.config.transient_plans = parse_int("--transient-plans", v, 0)?; Ok(()) }, help: "seeded fail/repair schedules, checked at every transition" },
            Flag { name: "--transient-faults", metavar: Some("K"), apply: |a, v| { a.config.transient_faults = parse_int("--transient-faults", v, 0)?; Ok(()) }, help: "faults per transient plan" },
            Flag { name: "--seed", metavar: Some("N"), apply: |a, v| { a.config.seed = parse_int("seed", v, 0)?; Ok(()) }, help: "seed of the random and transient plans" },
            Flag { name: "--out", metavar: Some("DIR"), apply: |a, v| { a.out = Some(v.into()); Ok(()) }, help: "write one counterexample JSON per refutation" },
        ]
    }

    /// `--smoke` caps the horizon whatever order the flags came in.
    fn finish(&mut self, _: &[&str]) -> Result<(), String> {
        if self.smoke {
            self.config.max_faults = self.config.max_faults.min(1);
        }
        Ok(())
    }
}

/// The `inspect` command line: an observe directory, or two to diff.
pub struct InspectArgs {
    pub dir: PathBuf,
    pub diff: Option<PathBuf>,
    pub top: usize,
}

impl Default for InspectArgs {
    fn default() -> Self {
        InspectArgs {
            dir: PathBuf::new(),
            diff: None,
            top: 5,
        }
    }
}

const INSPECT_DIRS: &str = "expected one observe directory (or two, to diff)";

impl Args for InspectArgs {
    const SYNOPSIS: &'static str = "inspect DIR [DIR2]";

    #[rustfmt::skip] // one row per line
    fn flags() -> Vec<Flag<Self>> {
        vec![
            Flag { name: "--top", metavar: Some("N"), apply: |a, v| { a.top = parse_int("--top", v, 1)?; Ok(()) }, help: "hot channels listed per run (default 5)" },
        ]
    }

    fn positional(&mut self, dir: String) -> Result<(), String> {
        match (self.dir.as_os_str().is_empty(), &self.diff) {
            (true, _) => self.dir = dir.into(),
            (false, None) => self.diff = Some(dir.into()),
            (false, Some(_)) => return Err(INSPECT_DIRS.to_owned()),
        }
        Ok(())
    }

    fn finish(&mut self, _: &[&str]) -> Result<(), String> {
        if self.dir.as_os_str().is_empty() {
            return Err(INSPECT_DIRS.to_owned());
        }
        Ok(())
    }
}

/// The `chaos_soak` command line.
#[derive(Default)]
pub struct SoakArgs {
    pub smoke: bool,
}

impl Args for SoakArgs {
    const SYNOPSIS: &'static str = "chaos_soak";

    #[rustfmt::skip] // one row per line
    fn flags() -> Vec<Flag<Self>> {
        vec![
            Flag { name: "--smoke", metavar: None, apply: |a, _| { a.smoke = true; Ok(()) }, help: "one pass of every scenario (the CI configuration)" },
        ]
    }
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
        let parse_threads = |s| parse_int::<usize>("thread count", s, 1);
        assert_eq!(parse_threads("8").unwrap(), 8);
        assert!(parse_threads("0").is_err(), "zero workers rejected");
        assert!(parse_threads("-2").is_err());
        assert!(parse_threads("many").is_err());
        assert!(parse_threads("1.5").is_err());
    }

    #[test]
    fn sample_strides() {
        let parse_sample_every = |s| parse_int::<u64>("sample stride", s, 1);
        assert_eq!(parse_sample_every("1000").unwrap(), 1000);
        assert_eq!(parse_sample_every("1").unwrap(), 1);
        assert!(parse_sample_every("0").is_err(), "zero stride rejected");
        assert!(parse_sample_every("-5").is_err());
        assert!(parse_sample_every("often").is_err());
    }

    #[test]
    fn seeds() {
        let parse_seed = |s| parse_int::<u64>("seed", s, 0);
        assert_eq!(parse_seed("1993").unwrap(), 1993);
        assert!(parse_seed("0x1f").is_err());
        assert!(parse_seed("-1").is_err());
        assert!(parse_seed("seed").is_err());
    }

    #[test]
    fn counts() {
        let parse_count = |flag, s| parse_int::<usize>(flag, s, 0);
        assert_eq!(parse_count("--max-faults", "0").unwrap(), 0);
        assert_eq!(parse_count("--max-faults", "12").unwrap(), 12);
        let err = parse_count("--max-faults", "lots").unwrap_err();
        assert!(err.contains("--max-faults"), "got: {err}");
        assert!(parse_count("--max-faults", "-1").is_err());
    }

    #[test]
    fn budgets() {
        let parse_cycle_budget = |s| parse_int::<u64>("cycle budget", s, 1);
        let parse_wall_budget = |s| parse_positive("wall budget", s);
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
