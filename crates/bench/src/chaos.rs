//! Seeded chaos injection for `wormsim-worker` — the fault plan for the
//! *orchestration* layer.
//!
//! The simulator proves its routing algorithms against a validated
//! [`FaultPlan`](wormsim::FaultPlan); the distribution layer deserves the
//! same discipline. A [`ChaosPlan`] is parsed from `--chaos <spec>`,
//! validated up front (bad specs are rejected before the worker ever
//! listens), and entirely seeded: every probabilistic decision comes off a
//! counter-indexed hash of the plan seed, so a chaos soak replays
//! identically and a failure found under chaos can be pinned in CI.
//!
//! Supported injections (all composable in one spec):
//!
//! | key                  | effect                                              |
//! |----------------------|-----------------------------------------------------|
//! | `crash-submit=N`     | the process exits hard on the Nth accepted submit   |
//! | `stall-submit=N`     | the Nth submitted job hangs forever (HTTP stays up) |
//! | `delay-ms=D@P`       | delay responses by `D` ms with probability `P`      |
//! | `drop=P`             | close the connection without responding, prob. `P`  |
//! | `truncate=P`         | send a truncated response body, probability `P`     |
//! | `corrupt=P`          | flip bytes in the response body, probability `P`    |
//! | `slow-handshake-ms=D`| dribble `/handshake` responses over `D` ms          |
//! | `seed=S`             | the decision stream seed (default 1993)             |
//!
//! Example: `--chaos "seed=7,crash-submit=3,corrupt=0.2,delay-ms=50@0.5"`.
//!
//! `crash-submit` and `stall-submit` model the two worker pathologies the
//! sweep supervisor distinguishes: a *dead* worker (socket gone, RPCs
//! fail) and a *hung* one (socket healthy, simulation heartbeat frozen).
//! The body corruptions exercise the orchestrator's garbled-response
//! strikes, and `slow-handshake-ms` the HTTP client's overall exchange
//! deadline (a slow-loris server must not hang a sweep forever).

use std::fmt;
use wormsim::observe::fnv1a_hex;

/// Default seed for the chaos decision stream (matches the repo's
/// reference sweep seed).
pub const DEFAULT_CHAOS_SEED: u64 = 1993;

/// A validated, seeded chaos-injection schedule for one worker process.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Exit the process (status 42) on this 1-based accepted submit.
    pub crash_submit: Option<u64>,
    /// Hang this 1-based submitted job forever: it is accepted, reported
    /// `pending`, but its simulation never starts, so its heartbeat stays
    /// frozen at zero.
    pub stall_submit: Option<u64>,
    /// Delay responses by this many milliseconds...
    pub delay_ms: u64,
    /// ...with this probability (0 disables).
    pub delay_p: f64,
    /// Probability of closing a connection without any response.
    pub drop_p: f64,
    /// Probability of truncating a response body halfway.
    pub truncate_p: f64,
    /// Probability of corrupting bytes in a response body.
    pub corrupt_p: f64,
    /// Dribble `/handshake` response bytes over this many milliseconds.
    pub slow_handshake_ms: u64,
}

/// A rejected chaos spec: which key, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosPlanError {
    /// The offending `key=value` fragment.
    pub fragment: String,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for ChaosPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chaos spec '{}': {}", self.fragment, self.message)
    }
}

impl std::error::Error for ChaosPlanError {}

impl ChaosPlan {
    /// Parses and validates a comma-separated `key=value` spec. The empty
    /// spec is valid (a plan that injects nothing).
    ///
    /// # Errors
    ///
    /// [`ChaosPlanError`] naming the first bad fragment: unknown keys,
    /// unparseable numbers, probabilities outside `[0, 1]`, or zero
    /// crash/stall indices (they are 1-based).
    pub fn parse(spec: &str) -> Result<ChaosPlan, ChaosPlanError> {
        let mut plan = ChaosPlan {
            seed: DEFAULT_CHAOS_SEED,
            ..ChaosPlan::default()
        };
        for fragment in spec.split(',') {
            let fragment = fragment.trim();
            if fragment.is_empty() {
                continue;
            }
            let bad = |message: &str| ChaosPlanError {
                fragment: fragment.to_owned(),
                message: message.to_owned(),
            };
            let (key, value) = fragment
                .split_once('=')
                .ok_or_else(|| bad("expected key=value"))?;
            match key.trim() {
                "seed" => {
                    plan.seed = value.trim().parse().map_err(|_| bad("bad seed"))?;
                }
                "crash-submit" => {
                    plan.crash_submit = Some(parse_index(value).map_err(|m| bad(&m))?);
                }
                "stall-submit" => {
                    plan.stall_submit = Some(parse_index(value).map_err(|m| bad(&m))?);
                }
                "delay-ms" => {
                    let (ms, p) = value
                        .split_once('@')
                        .ok_or_else(|| bad("expected delay-ms=MS@PROB"))?;
                    plan.delay_ms = ms.trim().parse().map_err(|_| bad("bad delay"))?;
                    plan.delay_p = parse_probability(p).map_err(|m| bad(&m))?;
                }
                "drop" => plan.drop_p = parse_probability(value).map_err(|m| bad(&m))?,
                "truncate" => plan.truncate_p = parse_probability(value).map_err(|m| bad(&m))?,
                "corrupt" => plan.corrupt_p = parse_probability(value).map_err(|m| bad(&m))?,
                "slow-handshake-ms" => {
                    plan.slow_handshake_ms =
                        value.trim().parse().map_err(|_| bad("bad duration"))?;
                }
                _ => return Err(bad("unknown chaos key")),
            }
        }
        Ok(plan)
    }

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.crash_submit.is_some()
            || self.stall_submit.is_some()
            || (self.delay_ms > 0 && self.delay_p > 0.0)
            || self.drop_p > 0.0
            || self.truncate_p > 0.0
            || self.corrupt_p > 0.0
            || self.slow_handshake_ms > 0
    }

    /// One seeded coin flip: deterministic in `(seed, salt, counter)`,
    /// uniform enough in `[0, 1)` for fault injection. `salt` separates
    /// the decision streams (drop vs corrupt vs ...) so enabling one
    /// injection never reshuffles another's schedule.
    pub fn coin(&self, salt: u64, counter: u64) -> f64 {
        let digest = fnv1a_hex(&format!("chaos:{}:{salt}:{counter}", self.seed));
        let bits = u64::from_str_radix(&digest[..13.min(digest.len())], 16).unwrap_or(0);
        // 13 hex digits = 52 bits, the mantissa width of an f64.
        (bits as f64) / (1u64 << 52) as f64
    }
}

fn parse_index(s: &str) -> Result<u64, String> {
    let n: u64 = s
        .trim()
        .parse()
        .map_err(|_| "bad index (expected a positive integer)".to_owned())?;
    if n == 0 {
        return Err("indices are 1-based; 0 never fires".to_owned());
    }
    Ok(n)
}

fn parse_probability(s: &str) -> Result<f64, String> {
    let p: f64 = s.trim().parse().map_err(|_| "bad probability".to_owned())?;
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(format!("probability {p} outside [0, 1]"));
    }
    Ok(p)
}

/// Decision-stream salts, one per injection kind (see
/// [`ChaosPlan::coin`]).
pub(crate) mod salt {
    pub const DELAY: u64 = 1;
    pub const DROP: u64 = 2;
    pub const TRUNCATE: u64 = 3;
    pub const CORRUPT: u64 = 4;
}

/// Seeded garbage-in for the protocol and journal decoders: every damage
/// is a hash of (seed, salt, counter) through [`ChaosPlan::coin`], so an
/// input that breaks a decoder replays exactly.
#[cfg(test)]
pub(crate) struct Corruptor(ChaosPlan);

#[cfg(test)]
impl Corruptor {
    pub(crate) fn new(seed: u64) -> Corruptor {
        Corruptor(ChaosPlan {
            seed,
            ..ChaosPlan::default()
        })
    }

    pub(crate) fn pick(&self, salt: u64, counter: u64, below: usize) -> usize {
        (self.0.coin(salt, counter) * below as f64) as usize % below.max(1)
    }

    /// Three damaged copies of the ASCII JSON `line`: truncated, with one
    /// byte flipped, and with one node of its value tree swapped for a
    /// value of another type.
    pub(crate) fn corrupt(&self, line: &str, counter: u64) -> [String; 3] {
        use wormsim::observe::json::{self, Value};
        fn nodes(value: &Value) -> usize {
            1 + match value {
                Value::Array(items) => items.iter().map(nodes).sum(),
                Value::Object(map) => map.values().map(nodes).sum(),
                _ => 0,
            }
        }
        fn replace(value: &mut Value, nth: &mut usize, with: &Value) {
            if *nth == 0 {
                *value = with.clone();
            }
            *nth = nth.wrapping_sub(1);
            match value {
                Value::Array(items) => items.iter_mut().for_each(|v| replace(v, nth, with)),
                Value::Object(map) => map.values_mut().for_each(|v| replace(v, nth, with)),
                _ => {}
            }
        }
        let truncated = line[..self.pick(1, counter, line.len())].to_owned();
        let mut bytes = line.as_bytes().to_vec();
        let at = self.pick(2, counter, bytes.len());
        bytes[at] = b' ' + self.pick(3, counter, 95) as u8;
        let flipped = String::from_utf8(bytes).expect("ASCII in, ASCII out");
        let replacements = [
            Value::Null,
            Value::Bool(true),
            Value::Number(-1.5),
            Value::Number(300.0),
            Value::Number(1e300),
            Value::String("nan".into()),
            Value::String("x".into()),
            Value::Array(vec![Value::Number(1.0)]),
            Value::Object(Default::default()),
        ];
        let mut value = json::from_str(line).expect("a valid line to corrupt");
        let mut nth = self.pick(4, counter, nodes(&value));
        let with = &replacements[self.pick(5, counter, replacements.len())];
        replace(&mut value, &mut nth, with);
        [truncated, flipped, value.to_string()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_parses() {
        let plan = ChaosPlan::parse(
            "seed=7, crash-submit=3, stall-submit=1, delay-ms=50@0.5, drop=0.1, \
             truncate=0.2, corrupt=0.3, slow-handshake-ms=200",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.crash_submit, Some(3));
        assert_eq!(plan.stall_submit, Some(1));
        assert_eq!((plan.delay_ms, plan.delay_p), (50, 0.5));
        assert_eq!(plan.drop_p, 0.1);
        assert_eq!(plan.truncate_p, 0.2);
        assert_eq!(plan.corrupt_p, 0.3);
        assert_eq!(plan.slow_handshake_ms, 200);
        assert!(plan.is_active());
    }

    #[test]
    fn empty_spec_is_a_valid_inactive_plan() {
        let plan = ChaosPlan::parse("").unwrap();
        assert_eq!(plan.seed, DEFAULT_CHAOS_SEED);
        assert!(!plan.is_active());
    }

    #[test]
    fn bad_specs_name_the_fragment() {
        for (spec, needle) in [
            ("warp=1", "unknown chaos key"),
            ("drop=1.5", "outside [0, 1]"),
            ("drop=x", "bad probability"),
            ("crash-submit=0", "1-based"),
            ("delay-ms=50", "MS@PROB"),
            ("justakey", "key=value"),
        ] {
            let error = ChaosPlan::parse(spec).expect_err(spec);
            assert!(error.to_string().contains(needle), "{spec}: {error}");
        }
    }

    #[test]
    fn coins_are_deterministic_uniform_ish_and_stream_isolated() {
        let plan = ChaosPlan::parse("seed=42").unwrap();
        assert_eq!(plan.coin(1, 9), plan.coin(1, 9));
        assert_ne!(plan.coin(1, 9), plan.coin(2, 9), "salts isolate streams");
        let mean: f64 = (0..1000).map(|i| plan.coin(1, i)).sum::<f64>() / 1000.0;
        assert!((0.4..0.6).contains(&mean), "suspicious coin mean {mean}");
        assert!((0..1000).all(|i| (0.0..1.0).contains(&plan.coin(3, i))));
    }
}
