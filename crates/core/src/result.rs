//! Results of measurement runs.

use std::fmt;
use wormsim_engine::{DeadlockReport, LivelockReport};
use wormsim_observe::json::Value;
use wormsim_observe::{json_record, Json, JsonObject};
use wormsim_stats::{ConfidenceInterval, ConvergenceStatus};
use wormsim_verify::TriageReport;

/// What a worker panic looked like from the orchestrator's side.
///
/// Carried by [`RunOutcome::Harness`]: the experiment harness caught an
/// unwinding panic with `catch_unwind` and converted it into a structured
/// outcome so the surrounding sweep keeps running.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanicInfo {
    /// The panic payload, rendered (`&str`/`String` payloads verbatim;
    /// anything else as a placeholder).
    pub message: String,
}

/// How a measurement run ended.
///
/// Sweeps over degraded networks record one of these per point instead of
/// failing: a fault plan that partitions the network, a non-adaptive
/// algorithm wedging on a dead link, a run blowing its cycle budget, or a
/// worker panic all produce a `RunResult` tagged with the outcome, and the
/// remaining sweep points still run.
///
/// Ordering of severity when several conditions hold at once:
/// `Deadlocked` > `LiveLocked` > `Interrupted` > `BudgetExceeded` >
/// `Completed`/`Saturated`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The run converged under the measurement policy.
    Completed,
    /// The run ended at its sample cap without converging — the usual
    /// signature of operation at or past saturation.
    Saturated,
    /// The deadlock watchdog fired: flits in flight, no forward progress.
    Deadlocked,
    /// The livelock guard found messages over the hop or age budget while
    /// the network was still making progress.
    LiveLocked,
    /// The run was cut short by its cycle or wall-clock budget.
    BudgetExceeded,
    /// The fault plan left no routable source–destination pair; nothing
    /// was simulated.
    Unroutable,
    /// A cooperative cancellation token tripped mid-run (SIGINT drain):
    /// whatever statistics were gathered are partial and the point should
    /// be re-run, not journaled.
    Interrupted,
    /// The harness itself failed: the worker running this point panicked.
    /// The simulation produced no statistics; the payload records what the
    /// panic said.
    Harness(PanicInfo),
}

impl RunOutcome {
    /// Short lowercase tag for CSV columns and manifests.
    pub fn tag(&self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Saturated => "saturated",
            RunOutcome::Deadlocked => "deadlocked",
            RunOutcome::LiveLocked => "livelocked",
            RunOutcome::BudgetExceeded => "budget_exceeded",
            RunOutcome::Unroutable => "unroutable",
            RunOutcome::Interrupted => "interrupted",
            RunOutcome::Harness(_) => "harness_panic",
        }
    }

    /// Whether the run produced steady-state statistics worth plotting
    /// (`Completed` or `Saturated` — the saturation points of the paper's
    /// curves are exactly the non-converged ones).
    pub fn has_statistics(&self) -> bool {
        matches!(self, RunOutcome::Completed | RunOutcome::Saturated)
    }

    /// Whether a retry might plausibly end differently: wall-clock budget
    /// trips depend on machine load, and harness panics may be transient
    /// environment failures. Deterministic outcomes (deadlock, livelock,
    /// unroutable, convergence) always reproduce under the same seed, so
    /// retrying them is wasted work.
    pub fn is_transient(&self) -> bool {
        matches!(self, RunOutcome::BudgetExceeded | RunOutcome::Harness(_))
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Latency summary of one hop class (messages travelling a given number of
/// hops) — the strata of the paper's estimator, reported individually.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassLatency {
    /// The hop count of this class.
    pub hops: u16,
    /// Messages measured in this class.
    pub count: u64,
    /// Mean latency of the class, in cycles.
    pub mean: f64,
}

json_record!(ClassLatency { hops, count, mean });

/// The converged measurement of one `(configuration, offered load)` point.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The routing algorithm's short name.
    pub algorithm: String,
    /// The traffic pattern's name.
    pub traffic: String,
    /// Offered load as a fraction of channel capacity (the paper's x-axis).
    pub offered_load: f64,
    /// The per-node, per-cycle injection rate that produced it (Eq. 4).
    pub injection_rate: f64,
    /// Stratified average message latency in cycles, with its 95% bound.
    pub latency: ConfidenceInterval,
    /// Latency percentiles over all measured messages (p50, p95, p99), in
    /// cycles.
    pub latency_percentiles: [u64; 3],
    /// The slowest measured message, in cycles.
    pub latency_max: u64,
    /// Per-hop-class latency breakdown (classes with measurements only).
    pub class_latencies: Vec<ClassLatency>,
    /// Measured channel utilization: flit-hops over channel capacity —
    /// the paper's "achieved channel utilization" / normalized throughput.
    pub achieved_utilization: f64,
    /// Messages delivered per node per cycle.
    pub delivery_rate: f64,
    /// Messages accepted (past congestion control) per node per cycle.
    pub acceptance_rate: f64,
    /// Fraction of generated messages refused by congestion control.
    pub refused_fraction: f64,
    /// Messages measured across all sampling periods.
    pub messages_measured: u64,
    /// How the run ended.
    pub convergence: ConvergenceStatus,
    /// Number of samples taken.
    pub samples: usize,
    /// Total cycles simulated (warmup + samples + gaps).
    pub cycles_simulated: u64,
    /// Wall-clock seconds the simulation took.
    pub wall_seconds: f64,
    /// Simulated cycles per wall-clock second — the simulator's own speed.
    pub cycles_per_sec: f64,
    /// How the run ended (see [`RunOutcome`]).
    pub outcome: RunOutcome,
    /// Observability events dropped across the run's attached sinks (ring
    /// eviction or I/O failure); 0 for unobserved runs.
    pub dropped_events: u64,
    /// Set if the deadlock watchdog fired during the run.
    pub deadlock: Option<DeadlockReport>,
    /// Set if the livelock guard flagged messages over budget.
    pub livelock: Option<LivelockReport>,
    /// Refined stall verdict from `wormsim-verify`: present exactly when
    /// the outcome is `Deadlocked` or `LiveLocked`, distinguishing a
    /// validated circular wait (`confirmed_unsafe`) from a stall with no
    /// self-sustaining cycle (`budget_artifact`).
    pub triage: Option<TriageReport>,
}

/// The journal and worker-wire form of a result. Every field the CSV and
/// table renderers read is preserved exactly — including non-finite floats
/// and the deadlock/livelock/triage reports — so a journal-replayed result
/// renders byte-identically to the original. Two members are not their
/// Rust shape, which is why this is not a `json_record!`: the latency
/// interval is flattened to `latency_mean`/`latency_half_width`, and the
/// outcome is its tag plus, for a harness panic, `panic_message`.
impl Json for RunResult {
    fn write(&self, out: &mut String) {
        let mut object = JsonObject::begin(out);
        object
            .field("algorithm", &self.algorithm)
            .field("traffic", &self.traffic)
            .field("offered_load", &self.offered_load)
            .field("injection_rate", &self.injection_rate)
            .field("latency_mean", &self.latency.mean())
            .field("latency_half_width", &self.latency.half_width())
            .field("latency_percentiles", &self.latency_percentiles)
            .field("latency_max", &self.latency_max)
            .field("class_latencies", &self.class_latencies)
            .field("achieved_utilization", &self.achieved_utilization)
            .field("delivery_rate", &self.delivery_rate)
            .field("acceptance_rate", &self.acceptance_rate)
            .field("refused_fraction", &self.refused_fraction)
            .field("messages_measured", &self.messages_measured)
            .field("convergence", &self.convergence)
            .field("samples", &self.samples)
            .field("cycles_simulated", &self.cycles_simulated)
            .field("wall_seconds", &self.wall_seconds)
            .field("cycles_per_sec", &self.cycles_per_sec)
            .field_str("outcome", self.outcome.tag());
        if let RunOutcome::Harness(info) = &self.outcome {
            object.field("panic_message", &info.message);
        }
        object
            .field("dropped_events", &self.dropped_events)
            .field_some("deadlock", &self.deadlock)
            .field_some("livelock", &self.livelock)
            .field_some("triage", &self.triage);
        object.finish();
    }

    fn read(value: &Value) -> Result<Self, String> {
        let outcome = match value.get("outcome").and_then(Value::as_str) {
            Some("completed") => RunOutcome::Completed,
            Some("saturated") => RunOutcome::Saturated,
            Some("deadlocked") => RunOutcome::Deadlocked,
            Some("livelocked") => RunOutcome::LiveLocked,
            Some("budget_exceeded") => RunOutcome::BudgetExceeded,
            Some("unroutable") => RunOutcome::Unroutable,
            Some("interrupted") => RunOutcome::Interrupted,
            Some("harness_panic") => RunOutcome::Harness(PanicInfo {
                message: value.field("panic_message")?,
            }),
            other => return Err(format!("unknown outcome tag {other:?}")),
        };
        Ok(RunResult {
            algorithm: value.field("algorithm")?,
            traffic: value.field("traffic")?,
            offered_load: value.field("offered_load")?,
            injection_rate: value.field("injection_rate")?,
            latency: ConfidenceInterval::new(
                value.field("latency_mean")?,
                value.field("latency_half_width")?,
            ),
            latency_percentiles: value.field("latency_percentiles")?,
            latency_max: value.field("latency_max")?,
            class_latencies: value.field("class_latencies")?,
            achieved_utilization: value.field("achieved_utilization")?,
            delivery_rate: value.field("delivery_rate")?,
            acceptance_rate: value.field("acceptance_rate")?,
            refused_fraction: value.field("refused_fraction")?,
            messages_measured: value.field("messages_measured")?,
            convergence: value.field("convergence")?,
            samples: value.field("samples")?,
            cycles_simulated: value.field("cycles_simulated")?,
            wall_seconds: value.field("wall_seconds")?,
            cycles_per_sec: value.field("cycles_per_sec")?,
            outcome,
            dropped_events: value.field("dropped_events")?,
            // The reports are written only when present, and journals
            // from before runtime triage lack that key altogether.
            deadlock: value.field_or("deadlock", None)?,
            livelock: value.field_or("livelock", None)?,
            triage: value.field_or("triage", None)?,
        })
    }
}

impl RunResult {
    /// A result without statistics, for a run that ended before measuring
    /// anything (an unroutable fault plan, a harness panic): every
    /// measurement is zero and the latency interval is `(0, ∞)`.
    pub fn unmeasured(
        algorithm: &str,
        traffic: String,
        offered_load: f64,
        outcome: RunOutcome,
    ) -> RunResult {
        RunResult {
            algorithm: algorithm.to_owned(),
            traffic,
            offered_load,
            injection_rate: 0.0,
            latency: ConfidenceInterval::new(0.0, f64::INFINITY),
            latency_percentiles: [0, 0, 0],
            latency_max: 0,
            class_latencies: Vec::new(),
            achieved_utilization: 0.0,
            delivery_rate: 0.0,
            acceptance_rate: 0.0,
            refused_fraction: 0.0,
            messages_measured: 0,
            convergence: ConvergenceStatus::NeedMoreSamples,
            samples: 0,
            cycles_simulated: 0,
            wall_seconds: 0.0,
            cycles_per_sec: 0.0,
            outcome,
            dropped_events: 0,
            deadlock: None,
            livelock: None,
            triage: None,
        }
    }

    /// Whether the run produced a trustworthy steady-state estimate.
    pub fn is_converged(&self) -> bool {
        self.convergence.is_converged() && self.outcome == RunOutcome::Completed
    }

    /// Decodes a journal record written by
    /// [`write_json`](wormsim_observe::JsonRecord::write_json).
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(value: &Value) -> Result<RunResult, String> {
        Self::read(value)
    }
}

/// One point of a load sweep: the result plus its position in the sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Index within the sweep.
    pub index: usize,
    /// The measurement at this load.
    pub result: RunResult,
}

/// Summary statistics over a sweep (peak throughput and where it occurs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepSummary {
    /// The highest achieved utilization across the sweep.
    pub peak_utilization: f64,
    /// The offered load at which the peak occurred.
    pub peak_at_offered: f64,
}

impl SweepSummary {
    /// Computes the summary of a sweep.
    ///
    /// Returns `None` for an empty sweep.
    pub fn of(results: &[RunResult]) -> Option<SweepSummary> {
        results
            .iter()
            .max_by(|a, b| {
                a.achieved_utilization
                    .partial_cmp(&b.achieved_utilization)
                    .expect("utilizations are finite")
            })
            .map(|best| SweepSummary {
                peak_utilization: best.achieved_utilization,
                peak_at_offered: best.offered_load,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_observe::JsonRecord;
    use wormsim_verify::TriageVerdict;

    fn result(offered: f64, util: f64) -> RunResult {
        RunResult {
            algorithm: "phop".into(),
            traffic: "uniform".into(),
            offered_load: offered,
            injection_rate: 0.01,
            latency: ConfidenceInterval::new(30.0, 1.0),
            latency_percentiles: [28, 40, 55],
            latency_max: 90,
            class_latencies: Vec::new(),
            achieved_utilization: util,
            delivery_rate: 0.01,
            acceptance_rate: 0.01,
            refused_fraction: 0.0,
            messages_measured: 1000,
            convergence: ConvergenceStatus::Converged,
            samples: 3,
            cycles_simulated: 30_000,
            wall_seconds: 0.5,
            cycles_per_sec: 60_000.0,
            outcome: RunOutcome::Completed,
            dropped_events: 0,
            deadlock: None,
            livelock: None,
            triage: None,
        }
    }

    #[test]
    fn summary_finds_peak() {
        let sweep = vec![result(0.2, 0.2), result(0.6, 0.55), result(0.8, 0.50)];
        let s = SweepSummary::of(&sweep).unwrap();
        assert_eq!(s.peak_utilization, 0.55);
        assert_eq!(s.peak_at_offered, 0.6);
        assert_eq!(SweepSummary::of(&[]), None);
    }

    #[test]
    fn convergence_gate() {
        let mut r = result(0.2, 0.2);
        assert!(r.is_converged());
        r.convergence = ConvergenceStatus::MaxSamplesReached;
        assert!(!r.is_converged());
    }

    #[test]
    fn outcome_taxonomy() {
        assert_eq!(RunOutcome::BudgetExceeded.tag(), "budget_exceeded");
        assert_eq!(RunOutcome::LiveLocked.to_string(), "livelocked");
        assert!(RunOutcome::Saturated.has_statistics());
        assert!(!RunOutcome::Unroutable.has_statistics());
        assert!(!RunOutcome::Interrupted.has_statistics());
        assert!(RunOutcome::BudgetExceeded.is_transient());
        let panic = RunOutcome::Harness(PanicInfo {
            message: "boom".into(),
        });
        assert!(panic.is_transient() && !panic.has_statistics());
        assert_eq!(panic.tag(), "harness_panic");
        assert!(!RunOutcome::Deadlocked.is_transient());
        let mut r = result(0.2, 0.2);
        r.outcome = RunOutcome::Deadlocked;
        assert!(!r.is_converged());
    }

    fn roundtrip(r: &RunResult) -> RunResult {
        let text = r.to_json();
        let value = wormsim_observe::json::from_str(&text).expect("journal line parses");
        RunResult::from_json(&value).expect("journal line decodes")
    }

    #[test]
    fn journal_roundtrip_is_exact() {
        let mut r = result(0.3, 0.27);
        // Awkward floats: shortest-Display representations must survive.
        r.injection_rate = 0.1 + 0.2; // 0.30000000000000004
                                      // One ULP off round numbers: the longest shortest-representations.
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        r.latency = ConfidenceInterval::new(ulp_up(31.4), 0.9876543210987654);
        r.wall_seconds = 1.0 / 3.0;
        r.cycles_per_sec = 1.23e8;
        r.class_latencies = vec![
            ClassLatency {
                hops: 1,
                count: 512,
                mean: 17.25,
            },
            ClassLatency {
                hops: 7,
                count: 3,
                mean: ulp_up(99.0),
            },
        ];
        let back = roundtrip(&r);
        assert_eq!(back.algorithm, r.algorithm);
        assert_eq!(back.injection_rate.to_bits(), r.injection_rate.to_bits());
        assert_eq!(back.latency.mean().to_bits(), r.latency.mean().to_bits());
        assert_eq!(
            back.latency.half_width().to_bits(),
            r.latency.half_width().to_bits()
        );
        assert_eq!(back.wall_seconds.to_bits(), r.wall_seconds.to_bits());
        assert_eq!(back.class_latencies, r.class_latencies);
        assert_eq!(back.latency_percentiles, r.latency_percentiles);
        assert_eq!(back.convergence, r.convergence);
        assert_eq!(back.outcome, r.outcome);
        // The whole record re-encodes to the same bytes.
        assert_eq!(back.to_json(), r.to_json());
    }

    #[test]
    fn journal_roundtrip_preserves_nonfinite_and_reports() {
        let mut r = result(0.9, 0.0);
        r.outcome = RunOutcome::Unroutable;
        r.latency = ConfidenceInterval::new(0.0, f64::INFINITY);
        r.convergence = ConvergenceStatus::NeedMoreSamples;
        r.deadlock = Some(DeadlockReport {
            detected_at: 52_000,
            last_progress: 50_100,
            flits_in_flight: 312,
            live_messages: 41,
        });
        r.livelock = Some(LivelockReport {
            detected_at: 48_000,
            messages_over_budget: 5,
            max_hops: 211,
            max_age: 30_000,
        });
        r.triage = Some(TriageReport {
            verdict: TriageVerdict::ConfirmedUnsafe,
            edges: 7,
            cycle_messages: vec![3, 9, 12],
            cycle_channels: vec![40, 44, 32],
        });
        let back = roundtrip(&r);
        assert!(back.latency.half_width().is_infinite());
        assert_eq!(back.deadlock, r.deadlock);
        assert_eq!(back.livelock, r.livelock);
        assert_eq!(back.triage, r.triage);
        assert_eq!(back.to_json(), r.to_json());
    }

    #[test]
    fn journal_without_triage_field_still_decodes() {
        // Journals written before runtime triage existed have no 'triage'
        // key; resuming from them must not fail.
        let r = result(0.5, 0.4);
        let text = r.to_json();
        assert!(!text.contains("triage"));
        let value = wormsim_observe::json::from_str(&text).unwrap();
        assert_eq!(RunResult::from_json(&value).unwrap().triage, None);
    }

    #[test]
    fn journal_roundtrip_keeps_panic_message() {
        let mut r = result(0.5, 0.0);
        r.outcome = RunOutcome::Harness(PanicInfo {
            message: "index out of bounds: the len is 4 but the index is 9".into(),
        });
        let back = roundtrip(&r);
        assert_eq!(back.outcome, r.outcome);
    }

    #[test]
    fn journal_decode_rejects_garbage() {
        let value = wormsim_observe::json::from_str("{\"algorithm\":\"phop\"}").unwrap();
        assert!(RunResult::from_json(&value).is_err());
        let mut r = result(0.2, 0.2);
        r.outcome = RunOutcome::Completed;
        let text = r.to_json().replace("completed", "exploded");
        let value = wormsim_observe::json::from_str(&text).unwrap();
        assert!(RunResult::from_json(&value)
            .unwrap_err()
            .contains("unknown outcome"));
    }
}
