//! The distributed-sweep wire format: a JSON codec for [`Experiment`].
//!
//! A `wormsim-worker` process receives one experiment per job over HTTP,
//! runs it, and ships the [`RunResult`](crate::RunResult) back in its
//! journal encoding. This module provides the other half of that
//! exchange: [`Experiment`]'s [`Json`] form ([`Experiment::to_wire_json`] /
//! [`Experiment::from_wire_json`]) serializes every field that determines
//! the *simulation* — the exact set [`Experiment::point_hash`] digests —
//! so a point decoded on a worker reproduces the orchestrator's results
//! bit-identically. Orchestrator-local state (observability sinks, cancel
//! tokens, retry provenance) deliberately never crosses the wire.
//!
//! Each member travels in the JSON form its own type declares (topology,
//! the traffic/length/switching unions, the selection/ejection tags, the
//! fault plan), and floats in the codec's one exact spelling, so
//! `offered_load` and the convergence tolerance survive bit-exactly.
//!
//! # Versioning
//!
//! The experiment format carries its own version (its `"wire"` member)
//! and is guarded by [`wire_digest`]: a digest over that version, the
//! crate version, and the configuration schema itself (via the
//! `point_hash` of a canonical experiment, which fingerprints the `Debug`
//! shape of every config type). The worker's HTTP bodies around it are
//! versioned by [`WIRE_PROTOCOL`]. An orchestrator and a worker whose
//! protocol or digest differ refuse to exchange work — a mismatched
//! worker binary is rejected at the handshake instead of silently
//! producing non-reproducible numbers.

use crate::schedule::MeasurementSchedule;
use crate::Experiment;
use wormsim_engine::SimConfig;
use wormsim_observe::json::Value;
use wormsim_observe::{fnv1a_hex, Json, JsonObject, JsonRecord};
use wormsim_routing::AlgorithmKind;
use wormsim_stats::ConvergencePolicy;
use wormsim_topology::Topology;

/// Version of the worker protocol: its HTTP endpoints and the bodies they
/// exchange, checked at the handshake. Bump on any change to them.
/// Version 2 dropped the retry fields from `/submit` and `/status`: each
/// dispatch runs exactly one attempt.
pub const WIRE_PROTOCOL: u32 = 2;

/// Version of [`Experiment`]'s JSON form, written as its `"wire"` member
/// and folded into [`wire_digest`]. Bump on any change to that form or to
/// any type it carries.
const EXPERIMENT_FORMAT: u32 = 1;

/// The config-digest both sides exchange in the worker handshake.
///
/// Covers the experiment format version, the crate version, and a fingerprint
/// of the configuration schema: the [`Experiment::point_hash`] of one
/// canonical experiment exercises the `Debug` representation of every
/// simulation-relevant config type, so adding, removing, or reordering a
/// field anywhere in the config surface changes the digest and severs
/// mismatched orchestrator/worker pairs at the handshake.
pub fn wire_digest() -> String {
    let canonical =
        Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::PositiveHop).point_hash();
    fnv1a_hex(&format!(
        "wormsim-wire/v{EXPERIMENT_FORMAT}|crate={}|schema={canonical}",
        env!("CARGO_PKG_VERSION")
    ))
}

/// The schedule's wire form flattens its convergence policy into the
/// schedule object.
impl Json for MeasurementSchedule {
    fn write(&self, out: &mut String) {
        let mut object = JsonObject::begin(out);
        object
            .field("warmup_cycles", &self.warmup_cycles)
            .field("sample_cycles", &self.sample_cycles)
            .field("gap_cycles", &self.gap_cycles)
            .field("min_samples", &self.policy.min_samples)
            .field("max_samples", &self.policy.max_samples)
            .field("recent_window", &self.policy.recent_window)
            .field("relative_tolerance", &self.policy.relative_tolerance);
        object.finish();
    }

    fn read(value: &Value) -> Result<Self, String> {
        Ok(MeasurementSchedule {
            warmup_cycles: value.field("warmup_cycles")?,
            sample_cycles: value.field("sample_cycles")?,
            gap_cycles: value.field("gap_cycles")?,
            policy: ConvergencePolicy {
                min_samples: value.field("min_samples")?,
                max_samples: value.field("max_samples")?,
                relative_tolerance: value.field("relative_tolerance")?,
                recent_window: value.field("recent_window")?,
            },
        })
    }
}

/// The wire form of an experiment: exactly the
/// [`point_hash`](Experiment::point_hash) field set, each member in the
/// JSON form its own type declares. Observability, cancellation and
/// provenance stay local. Two members are not their Rust shape: the
/// algorithm travels as its short name, and the seed as a decimal string
/// (JSON numbers here are `f64`, which would corrupt full-entropy 64-bit
/// seeds above 2^53).
impl Json for Experiment {
    fn write(&self, out: &mut String) {
        // No `..`, as in `point_hash`: a new engine knob fails to compile
        // here until the wire carries it.
        let SimConfig {
            topology,
            algorithm,
            switching,
            vc_replicas,
            traffic,
            arrival: _, // derived from `offered_load` on the worker
            length,
            congestion_limit,
            selection,
            ejection,
            injection_bandwidth,
            seed,
            watchdog_cycles,
            faults,
            hop_budget,
            age_budget,
        } = &self.sim;
        let mut object = JsonObject::begin(out);
        object
            .field("wire", &EXPERIMENT_FORMAT)
            .field("topology", topology)
            .field_str("algorithm", algorithm.name())
            .field("traffic", traffic)
            .field("length", length)
            .field("switching", switching)
            .field("selection", selection)
            .field("ejection", ejection)
            .field("vc_replicas", vc_replicas)
            .field("congestion_limit", congestion_limit)
            .field("injection_bandwidth", injection_bandwidth)
            .field("offered_load", &self.offered_load)
            .field("schedule", &self.schedule)
            .field("seed", &seed.to_string())
            .field("faults", faults)
            .field("cycle_budget", &self.cycle_budget)
            .field("wall_budget_secs", &self.wall_budget_secs)
            .field("hop_budget", hop_budget)
            .field("age_budget", age_budget)
            .field("watchdog_cycles", watchdog_cycles);
        object.finish();
    }

    fn read(value: &Value) -> Result<Self, String> {
        let wire: u32 = value.field("wire")?;
        if wire != EXPERIMENT_FORMAT {
            return Err(format!(
                "wire protocol {wire} not supported (this binary reads experiment format {EXPERIMENT_FORMAT})"
            ));
        }
        let topology = value.field("topology")?;
        let algorithm: AlgorithmKind = value
            .field::<String>("algorithm")?
            .parse()
            .map_err(|e| format!("field 'algorithm': {e:?}"))?;
        let mut experiment = Experiment::new(topology, algorithm);
        let sim = &mut experiment.sim;
        sim.traffic = value.field("traffic")?;
        sim.length = value.field("length")?;
        sim.switching = value.field("switching")?;
        sim.selection = value.field("selection")?;
        sim.ejection = value.field("ejection")?;
        sim.vc_replicas = value.field("vc_replicas")?;
        sim.congestion_limit = value.field_or("congestion_limit", None)?;
        sim.injection_bandwidth = value.field("injection_bandwidth")?;
        sim.seed = value
            .field::<String>("seed")?
            .parse()
            .map_err(|_| "field 'seed': not a u64 in decimal".to_owned())?;
        sim.faults = value.field_or("faults", None)?;
        sim.hop_budget = value.field_or("hop_budget", None)?;
        sim.age_budget = value.field_or("age_budget", None)?;
        sim.watchdog_cycles = value.field_or("watchdog_cycles", None)?;
        experiment.offered_load = value.field("offered_load")?;
        experiment.schedule = value.field("schedule")?;
        experiment.cycle_budget = value.field_or("cycle_budget", None)?;
        experiment.wall_budget_secs = value.field_or("wall_budget_secs", None)?;
        Ok(experiment)
    }
}

impl Experiment {
    /// Encodes this experiment's full simulation configuration as one JSON
    /// object for the worker wire.
    /// [`from_wire_json`](Experiment::from_wire_json) inverts it such that
    /// the decoded experiment has the identical point hash.
    pub fn to_wire_json(&self) -> String {
        self.to_json()
    }

    /// Decodes an experiment from its wire form.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown tags, missing fields,
    /// out-of-range values, or a wire-protocol number this binary does not
    /// speak. The decoded experiment is *not* validated — call
    /// [`validate`](Experiment::validate) (or just [`run`](Experiment::run))
    /// for semantic checks.
    pub fn from_wire_json(value: &Value) -> Result<Experiment, String> {
        Self::read(value)
    }

    /// Convenience: parse a wire-encoded experiment from JSON text.
    ///
    /// # Errors
    ///
    /// JSON syntax errors and every error of
    /// [`from_wire_json`](Experiment::from_wire_json).
    pub fn from_wire_str(text: &str) -> Result<Experiment, String> {
        let value = wormsim_observe::json::from_str(text).map_err(|e| e.to_string())?;
        Self::read(&value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_engine::{EjectionModel, SelectionPolicy, Switching};
    use wormsim_faults::{Fault, FaultPlan, FaultRegion, FaultTarget};
    use wormsim_topology::NodeId;
    use wormsim_traffic::{MessageLength, TrafficConfig};

    fn roundtrip(e: &Experiment) -> Experiment {
        Experiment::from_wire_str(&e.to_wire_json()).expect("wire round-trip")
    }

    #[test]
    fn default_experiment_roundtrips_to_same_point_hash() {
        let e = Experiment::new(
            Topology::torus(&[16, 16]),
            AlgorithmKind::NegativeHopBonusCards,
        )
        .offered_load(0.35)
        .seed(1993);
        assert_eq!(roundtrip(&e).point_hash(), e.point_hash());
    }

    #[test]
    fn every_knob_survives_the_wire() {
        let mut plan =
            FaultPlan::random_links(&Topology::torus(&[8, 8]), 3, 7, &FaultRegion::Anywhere);
        plan.push(Fault {
            target: FaultTarget::Node {
                node: NodeId::new(9),
            },
            fail_at: 1000,
            repair_at: Some(2000),
        });
        let e = Experiment::new(Topology::mesh(&[4, 6, 8]), AlgorithmKind::Ecube)
            .traffic(TrafficConfig::Hotspot {
                nodes: vec![vec![3, 5, 7], vec![0, 0, 0]],
                fraction: 0.1 + 0.2, // awkward float
            })
            .message_length(MessageLength::Bimodal {
                short: 4,
                long: 64,
                long_fraction: 1.0 / 3.0,
            })
            .switching(Switching::Wormhole { buffer_depth: 4 })
            .selection(SelectionPolicy::Random)
            .ejection(EjectionModel::SingleChannel)
            .vc_replicas(3)
            .congestion_limit(None)
            .injection_bandwidth(2)
            .offered_load(f64::from_bits(0.45f64.to_bits() + 1))
            .schedule(MeasurementSchedule::saturation())
            .seed(u64::MAX)
            .faults(plan)
            .cycle_budget(Some(123_456))
            .wall_budget_secs(Some(1.5))
            .hop_budget(Some(99))
            .age_budget(Some(50_000))
            .watchdog_cycles(4096);
        let back = roundtrip(&e);
        assert_eq!(back.point_hash(), e.point_hash());
        // And the encoding itself is stable (decode -> re-encode is identity).
        assert_eq!(back.to_wire_json(), e.to_wire_json());
    }

    #[test]
    fn local_traffic_and_permutations_roundtrip() {
        for traffic in [
            TrafficConfig::Local { radius: 3 },
            TrafficConfig::Transpose,
            TrafficConfig::BitReversal,
            TrafficConfig::Complement,
        ] {
            let e = Experiment::new(Topology::torus(&[8, 8]), AlgorithmKind::TwoPowerN)
                .traffic(traffic)
                .switching(Switching::VirtualCutThrough);
            assert_eq!(roundtrip(&e).point_hash(), e.point_hash());
        }
    }

    #[test]
    fn orchestrator_local_state_never_crosses_the_wire() {
        let e = Experiment::new(Topology::torus(&[8, 8]), AlgorithmKind::PositiveHop)
            .attempt(5)
            .resumed_from(Some("results/sweep.journal.jsonl".into()))
            .cancel_token(wormsim_engine::CancelToken::new());
        let text = e.to_wire_json();
        assert!(!text.contains("journal"), "got: {text}");
        assert!(!text.contains("attempt"), "got: {text}");
        // The decoded copy still simulates identically.
        assert_eq!(roundtrip(&e).point_hash(), e.point_hash());
    }

    #[test]
    fn wire_version_is_enforced() {
        let e = Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube);
        let text = e.to_wire_json().replacen("\"wire\":1", "\"wire\":99", 1);
        let err = Experiment::from_wire_str(&text).unwrap_err();
        assert!(err.contains("wire protocol 99"), "got: {err}");
    }

    #[test]
    fn digest_is_stable_within_a_build() {
        assert_eq!(wire_digest(), wire_digest());
        assert_eq!(wire_digest().len(), 16, "fnv1a_hex digest");
    }

    #[test]
    fn out_of_range_fault_dimension_is_an_error_not_a_panic() {
        let mut plan = FaultPlan::new();
        plan.push_dead_link(NodeId::new(3), wormsim_topology::Direction::from_index(2));
        let e = Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube).faults(plan);
        let text = e.to_wire_json();
        assert!(text.contains("\"dim\":1"), "got: {text}");
        // Used to reach `Direction::new(300, ..)`, which panics — on the
        // worker's accept thread.
        let err = Experiment::from_wire_str(&text.replace("\"dim\":1", "\"dim\":300")).unwrap_err();
        assert!(
            err.contains("'dim'") && err.contains("'faults'"),
            "got: {err}"
        );
    }

    #[test]
    fn garbage_is_rejected_with_named_fields() {
        assert!(Experiment::from_wire_str("not json").is_err());
        let err = Experiment::from_wire_str("{\"wire\":1}").unwrap_err();
        assert!(err.contains("topology"), "got: {err}");
    }
}
