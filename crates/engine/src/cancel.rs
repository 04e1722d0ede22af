//! Cooperative cancellation for long simulations.
//!
//! A [`CancelToken`] is a shared flag an orchestrator trips (typically from
//! a SIGINT handler or a shutdown path) to ask in-flight simulations to
//! stop at the next safe point. The engine checks it on a stride inside
//! [`Network::run`](crate::Network::run) and
//! [`Network::run_until_empty`](crate::Network::run_until_empty), so a
//! cancelled run returns within a bounded number of cycles instead of
//! finishing a multi-minute measurement nobody will read. Checking the
//! token never mutates simulation state: two runs with the same seed are
//! bit-identical up to the cycle where one of them is cut short.
//!
//! The token doubles as a **heartbeat**: on the same stride the engine
//! publishes its current cycle through [`CancelToken::beat`], so whoever
//! holds a clone can distinguish a simulation that is *slow* (heartbeat
//! advancing) from one that is *hung* (heartbeat frozen). A worker serving
//! remote sweep points reports this counter from `/status`, and the sweep
//! supervisor writes off executors whose heartbeat stops. Like the
//! cancellation check, beating only touches the shared counter — it never
//! feeds back into simulation state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Flags {
    cancelled: AtomicBool,
    heartbeat: AtomicU64,
    /// Set on a token made by [`CancelToken::child`].
    parent: Option<CancelToken>,
}

/// A clonable, thread-safe cancellation flag with a progress heartbeat.
///
/// Clones share the flag: cancelling any clone cancels them all. The token
/// is latching — once cancelled it stays cancelled. A [`child`] token has
/// its own flag and heartbeat but also reads as cancelled once its parent
/// is, so one shutdown token can stop many independently cancellable runs.
///
/// [`child`]: CancelToken::child
///
/// # Example
///
/// ```
/// use wormsim_engine::CancelToken;
///
/// let token = CancelToken::new();
/// let worker = token.clone();
/// assert!(!worker.is_cancelled());
/// token.cancel();
/// assert!(worker.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<Flags>);

impl CancelToken {
    /// A fresh, un-cancelled token with a zero heartbeat.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the flag. Safe to call from multiple threads; idempotent.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Release);
    }

    /// Whether the flag, or a parent's, has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::Acquire)
            || self
                .0
                .parent
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
    }

    /// A fresh token with its own flag and heartbeat that also reads as
    /// cancelled once `self` is. Cancelling the child leaves `self` alone.
    pub fn child(&self) -> CancelToken {
        CancelToken(Arc::new(Flags {
            parent: Some(self.clone()),
            ..Flags::default()
        }))
    }

    /// Publishes simulation progress: monotone non-decreasing under the
    /// engine's use (it reports the current cycle, offset by one so the
    /// very first beat is distinguishable from "never ran").
    pub fn beat(&self, cycle: u64) {
        self.0
            .heartbeat
            .store(cycle.saturating_add(1), Ordering::Release);
    }

    /// The last published heartbeat; `0` means the simulation has not
    /// reached its first beat yet.
    pub fn heartbeat(&self) -> u64 {
        self.0.heartbeat.load(Ordering::Acquire)
    }
}

/// Cycles between cancellation checks in the engine's run loops: frequent
/// enough that a cancelled run stops within microseconds of simulated
/// work, rare enough to stay invisible in the hot path.
pub(crate) const CANCEL_CHECK_STRIDE: u64 = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        // Latching: cancelling again changes nothing.
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn a_child_sees_its_parent_but_not_the_other_way_round() {
        let parent = CancelToken::new();
        let (a, b) = (parent.child(), parent.child());
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!parent.is_cancelled() && !b.is_cancelled());
        a.beat(9);
        assert_eq!((a.heartbeat(), b.heartbeat()), (10, 0), "own heartbeat");
        parent.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn clones_share_the_heartbeat() {
        let a = CancelToken::new();
        let b = a.clone();
        assert_eq!(b.heartbeat(), 0, "fresh token has no heartbeat");
        a.beat(0);
        assert_eq!(b.heartbeat(), 1, "cycle 0 beats as 1, not 0");
        a.beat(4096);
        assert_eq!(b.heartbeat(), 4097);
    }
}
