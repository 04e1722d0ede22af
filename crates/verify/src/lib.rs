//! # wormsim-verify — adversarial safety verification
//!
//! The CDG analysis in [`wormsim_routing::deadlock`] settles the easy half
//! of the paper's safety claims: an acyclic channel-dependency graph proves
//! deadlock-freedom outright. The adaptive half is harder — a cyclic CDG
//! is *inconclusive* for adaptive algorithms, because a blocked worm with
//! several candidate channels deadlocks only if **all** of them are held
//! (Duato's criterion), which no per-edge graph condition captures. Until
//! now the repo handled that gap empirically: run the engine, let the PR-4
//! watchdog fire, and eyeball the PR-7 wait-for snapshot.
//!
//! This crate closes the gap mechanically, in three movements:
//!
//! - [`checker`] — a bounded model checker for small networks (≤4×4 tori
//!   and meshes, hard cap [`checker::MAX_NODES`] nodes) that reads every
//!   reachable channel-holding configuration off the CDG's own walk
//!   ([`wormsim_routing::deadlock::walk`]) and computes the greatest
//!   self-supporting set. Empty set ⇒
//!   [`SafetyVerdict::ProvenFree`]; otherwise a constructive
//!   [`DeadlockWitness`] with a suggested injection schedule.
//! - [`adversary`] — a fault-mask search that enumerates fault plans the
//!   simulator's [`Reachability`](wormsim_faults::Reachability) admits
//!   (exhaustively for small fault counts, seeded-random beyond), re-runs
//!   the masked CDG + bounded checker on the surviving subgraph, and
//!   emits greedily minimized counterexample plans for every algorithm
//!   whose [`fault_tolerance`](wormsim_routing::RoutingAlgorithm::fault_tolerance)
//!   claim it refutes.
//! - [`triage`](mod@triage) — a runtime path that replays an engine wait-for snapshot
//!   (`<run>.waitfor.jsonl`) through cycle detection on its edge list to
//!   refine a watchdog verdict into *confirmed-unsafe* (a genuine circular
//!   wait was present) vs *budget-artifact* (the run stalled, but no
//!   self-sustaining cycle existed — congestion, budget too tight, or a
//!   transient fault still in flight).
//!
//! Everything here is deterministic: given the same topology, algorithm,
//! and seed, the same witness and the same minimized plans come out, so
//! counterexamples can be pinned in goldens and replayed in CI.

pub mod adversary;
pub mod checker;
pub mod triage;

pub use adversary::{search_faults, AdversaryConfig, AdversaryReport, Refutation};
pub use checker::{check, check_masked, BlockedWorm, CheckReport, DeadlockWitness, SafetyVerdict};
pub use triage::{triage, TriageReport, TriageVerdict};

use std::fmt;

/// Errors from the verification entry points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The network exceeds the exhaustive checker's size cap.
    NetworkTooLarge {
        /// Nodes in the offending topology.
        nodes: u32,
        /// The cap ([`checker::MAX_NODES`]).
        limit: u32,
    },
    /// A generated fault plan failed the plan validator (a bug in the
    /// enumeration, surfaced rather than skipped silently).
    InvalidPlan(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NetworkTooLarge { nodes, limit } => write!(
                f,
                "network has {nodes} nodes; the exhaustive checker is capped at {limit} \
                 (use the engine + runtime triage beyond that)"
            ),
            VerifyError::InvalidPlan(msg) => write!(f, "generated fault plan invalid: {msg}"),
        }
    }
}

impl std::error::Error for VerifyError {}
