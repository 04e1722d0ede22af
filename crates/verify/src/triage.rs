//! Runtime stall triage: was that watchdog a real deadlock?
//!
//! The engine's watchdog (`RunOutcome::Deadlocked`) and livelock guard
//! (`RunOutcome::LiveLocked`) are budget-based: they fire when nothing
//! has moved (or nothing has *arrived*) for a configured number of cycles.
//! At fleet scale that conflates two very different situations:
//!
//! - **Confirmed-unsafe** — the wait-for graph at the trigger contains a
//!   validated circular wait: a cycle of worms each occupying a resource
//!   the next one needs. No budget, however generous, would have saved the
//!   run; the algorithm (or algorithm × fault-plan combination) is unsafe.
//! - **Budget-artifact** — the snapshot has no self-sustaining cycle. The
//!   network was merely congested, starved, or mid-fault-transition, and a
//!   larger budget (or repair) would plausibly have let the run complete.
//!
//! [`triage`] makes the call from a [`WaitForSnapshot`] alone, so it works
//! both inline (the engine hands its snapshot straight over at run end)
//! and offline (replaying a `<run>.waitfor.jsonl` file through the
//! `inspect` bin). The cycle fields a snapshot carries are not taken on
//! faith: triage discards them and re-detects the cycle from the edge
//! list alone, so a corrupted or hand-edited snapshot whose claimed cycle
//! its edges do not back downgrades to budget-artifact instead of
//! producing a false conviction.

use wormsim_observe::WaitForSnapshot;

/// The refined verdict on a `Deadlocked`/`LiveLocked` run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriageVerdict {
    /// A circular wait was present at the watchdog trigger: the stall is
    /// a genuine deadlock, not a tight budget.
    ConfirmedUnsafe,
    /// No cycle in the wait-for graph: the stall is congestion, starvation,
    /// or a transient-fault pause — rerun with a larger budget before
    /// blaming the algorithm.
    BudgetArtifact,
}

wormsim_observe::json_tags!(TriageVerdict {
    ConfirmedUnsafe = "confirmed_unsafe",
    BudgetArtifact = "budget_artifact",
});

/// The triage outcome plus the evidence it rests on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriageReport {
    /// The verdict.
    pub verdict: TriageVerdict,
    /// Wait-for edges in the snapshot.
    pub edges: usize,
    /// The cycle's messages (empty for budget-artifact).
    pub cycle_messages: Vec<u64>,
    /// The cycle's channels, `cycle_channels[i]` being what
    /// `cycle_messages[i]` waits on (held by `cycle_messages[i + 1]`).
    pub cycle_channels: Vec<u64>,
}

wormsim_observe::json_record!(TriageReport {
    verdict,
    edges,
    cycle_messages,
    cycle_channels,
});

impl TriageReport {
    /// Whether the verdict is [`TriageVerdict::ConfirmedUnsafe`].
    pub fn is_confirmed_unsafe(&self) -> bool {
        self.verdict == TriageVerdict::ConfirmedUnsafe
    }
}

/// Runs cycle detection over a wait-for snapshot's edges, refining the
/// watchdog's budget-based verdict. The snapshot is only read: its own
/// cycle fields are ignored.
pub fn triage(snapshot: &WaitForSnapshot) -> TriageReport {
    let cycle = WaitForSnapshot::cycle_of(&snapshot.edges);
    let verdict = if cycle.is_some() {
        TriageVerdict::ConfirmedUnsafe
    } else {
        TriageVerdict::BudgetArtifact
    };
    let (cycle_messages, cycle_channels) = cycle.into_iter().flatten().unzip();
    TriageReport {
        verdict,
        edges: snapshot.edges.len(),
        cycle_messages,
        cycle_channels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_observe::{json, Json, JsonRecord, WaitForEdge, WaitKind};

    fn edge(msg: u64, channel: u64, holder: u64) -> WaitForEdge {
        WaitForEdge {
            msg,
            node: 0,
            channel,
            holder,
            kind: WaitKind::Vc,
        }
    }

    #[test]
    fn circular_wait_is_confirmed_unsafe() {
        let snapshot = WaitForSnapshot {
            reason: "deadlock".into(),
            edges: vec![edge(1, 10, 2), edge(2, 11, 3), edge(3, 12, 1)],
            ..Default::default()
        };
        let report = triage(&snapshot);
        assert_eq!(report.verdict, TriageVerdict::ConfirmedUnsafe);
        assert_eq!(report.cycle_messages.len(), 3);
        assert_eq!(report.cycle_channels.len(), 3);
    }

    #[test]
    fn acyclic_stall_is_budget_artifact() {
        let snapshot = WaitForSnapshot {
            reason: "livelock".into(),
            edges: vec![edge(1, 10, 2), edge(2, 11, 3)],
            ..Default::default()
        };
        let report = triage(&snapshot);
        assert_eq!(report.verdict, TriageVerdict::BudgetArtifact);
        assert!(report.cycle_messages.is_empty());
        assert_eq!(report.edges, 2);
    }

    #[test]
    fn empty_snapshot_is_budget_artifact() {
        let report = triage(&WaitForSnapshot::default());
        assert_eq!(report.verdict, TriageVerdict::BudgetArtifact);
    }

    #[test]
    fn stale_cycle_fields_are_revalidated_not_trusted() {
        // A snapshot claiming a cycle its own edges do not support must
        // not convict.
        let snapshot = WaitForSnapshot {
            reason: "deadlock".into(),
            edges: vec![edge(1, 10, 2)],
            cycle_found: true,
            cycle_messages: vec![1, 2],
            cycle_channels: vec![10, 11],
            ..Default::default()
        };
        let report = triage(&snapshot);
        assert_eq!(report.verdict, TriageVerdict::BudgetArtifact);
    }

    /// Whatever the edge set, a cycle `detect_cycle` reports is backed
    /// hop by hop: message `i` has a recorded wait on channel `i` held by
    /// message `i + 1` (wrapping), so a conviction always rests on edges.
    #[test]
    fn every_detected_cycle_is_backed_by_recorded_edges() {
        let mut state = 1993u64;
        let mut next = |below: u64| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % below
        };
        let mut found = 0;
        for _ in 0..2000 {
            let messages = 1 + next(12);
            let mut snapshot = WaitForSnapshot::default();
            for _ in 0..next(3 * messages) {
                snapshot
                    .edges
                    .push(edge(next(messages), next(6), next(messages)));
            }
            snapshot.detect_cycle();
            let n = snapshot.cycle_messages.len();
            assert_eq!(snapshot.cycle_found, n > 0);
            assert_eq!(snapshot.cycle_channels.len(), n);
            for i in 0..n {
                let hop = edge(
                    snapshot.cycle_messages[i],
                    snapshot.cycle_channels[i],
                    snapshot.cycle_messages[(i + 1) % n],
                );
                assert!(
                    snapshot.edges.contains(&hop),
                    "hop {i} of {:?} / {:?} has no edge in {:?}",
                    snapshot.cycle_messages,
                    snapshot.cycle_channels,
                    snapshot.edges
                );
            }
            found += usize::from(snapshot.cycle_found);
        }
        assert!(found > 500, "only {found} of 2000 edge sets had a cycle");
    }

    #[test]
    fn verdict_tags_round_trip() {
        for v in [
            TriageVerdict::ConfirmedUnsafe,
            TriageVerdict::BudgetArtifact,
        ] {
            let parsed = json::from_str(&v.to_json()).unwrap();
            assert_eq!(parsed.as_str(), Some(v.tag()));
            assert_eq!(TriageVerdict::read(&parsed), Ok(v));
        }
        assert!(TriageVerdict::read(&json::Value::String("bogus".into())).is_err());
    }
}
