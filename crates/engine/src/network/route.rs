//! Phase 3: routing and VC allocation for pending heads, with blocked heads
//! asleep until a candidate channel releases a VC.
//!
//! Invariant: the phase visits only `pending_route`, and a sleeping entry
//! costs one `ch_freed_at` probe per candidate direction — no buffer, slab
//! or routing-function access.

use super::{Network, OutputRequest, PendingHead};
use crate::config::{SelectionPolicy, Switching};
use crate::vc::RouteTarget;
use wormsim_routing::{Adaptivity, Candidate, MessageRouteState};
use wormsim_topology::NodeId;

/// What [`Network::try_route`] did with a pending head.
enum RouteOutcome {
    /// The head has a route and leaves `pending_route`.
    Routed,
    /// The head stays pending. `dirs` is the candidate-direction mask when
    /// the attempt failed on owned output VCs and the head may sleep (see
    /// [`PendingHead`]), zero when it must simply retry next cycle.
    Failed { dirs: u32 },
}

impl Network {
    pub(super) fn phase_route(&mut self) {
        // In-place compaction: `try_route` never pushes to `pending_route`
        // (failures and sleepers stay, in order), so no take-and-reallocate
        // is needed.
        let mut kept = 0;
        for i in 0..self.pending_route.len() {
            let mut head = self.pending_route[i];
            if head.dirs != 0 && !self.freed_since(head) {
                // Asleep: the attempt would fail exactly as the last one
                // did, drawing no random number, so skipping it changes
                // nothing but the work done.
                self.metrics.route_sleeps += 1;
                if self.obs.registry.is_some() {
                    self.record_sleeper_alloc_failures(head);
                }
            } else {
                match self.try_route(head.ivc, head.node) {
                    RouteOutcome::Routed => continue,
                    RouteOutcome::Failed { dirs } => {
                        head.dirs = dirs;
                        head.failed_at = self.metrics.cycles;
                    }
                }
            }
            self.pending_route[kept] = head;
            kept += 1;
        }
        self.pending_route.truncate(kept);
    }

    /// Whether a candidate channel of the sleeping `head` released a VC
    /// since its failed attempt. `>=`, not `>`: the route phase runs before
    /// the link moves of its own cycle, so a release stamped `failed_at`
    /// happened after the attempt looked.
    #[inline]
    fn freed_since(&self, head: PendingHead) -> bool {
        let base = head.node as usize * self.dirs;
        let mut dirs = head.dirs;
        while dirs != 0 {
            let dir = dirs.trailing_zeros() as usize;
            dirs &= dirs - 1;
            if self.ch_freed_at[base + dir] >= head.failed_at {
                return true;
            }
        }
        false
    }

    /// The candidate directions of the attempt that just failed on owned
    /// output VCs (`scratch_candidates` still holds the set), or zero when
    /// the head must not sleep: under a fault plan the candidate set
    /// depends on the live mask and aborts release reservations without
    /// stamping `ch_freed_at`, and a `u32` holds at most 32 directions.
    fn sleep_mask(&self) -> u32 {
        let may_sleep = self.faults.is_none() && self.dirs <= 32;
        #[cfg(test)]
        let may_sleep = may_sleep && !self.always_retry;
        if !may_sleep {
            return 0;
        }
        self.scratch_candidates
            .iter()
            .fold(0, |mask, c| mask | 1 << c.direction().index())
    }

    /// Appends the routing function's candidates for `route` at `here`,
    /// minus those over channels the fault mask has killed.
    #[inline]
    pub(super) fn live_candidates(
        &self,
        route: &MessageRouteState,
        here: NodeId,
        out: &mut Vec<Candidate>,
    ) {
        self.algo.candidates(&self.topo, route, here, out);
        if let Some(fs) = self.faults.as_ref().filter(|fs| !fs.mask.is_trivial()) {
            out.retain(|c| {
                fs.mask
                    .channel_alive(self.topo.channel(here, c.direction()))
            });
        }
    }

    fn try_route(&mut self, ivc: u32, node: u32) -> RouteOutcome {
        let front = self
            .lanes
            .front(ivc)
            .expect("pending input VC holds its head");
        debug_assert!(front.kind.is_head(), "pending front must be a head flit");
        debug_assert!(self.lanes.route(ivc).is_none());
        let msg = front.msg;
        let rec_route = self.slab.get(msg).route;
        let here = NodeId::new(node);

        if rec_route.dest() == here {
            self.lanes.set_route(ivc, Some((RouteTarget::Eject, msg)));
            self.ejecting.push((ivc, node));
            return RouteOutcome::Routed;
        }
        // Store-and-forward: only route once the whole message is here.
        if matches!(self.cfg.switching, Switching::StoreAndForward)
            && !self.lanes.front_message_complete(ivc)
        {
            return RouteOutcome::Failed { dirs: 0 };
        }

        self.metrics.route_attempts += 1;
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        let fault_mode = self.faults.is_some();
        if fault_mode && rec_route.hops_taken() > self.topo.diameter() {
            // Mis-routed past any minimal path: the algorithm's class
            // bookkeeping may have run off the end of its range, so route
            // greedily over live channels instead of consulting it.
            self.fault_candidates(here, rec_route.dest(), ivc, &mut candidates);
        } else {
            self.live_candidates(&rec_route, here, &mut candidates);
            // Under faults the set may legitimately come back empty (2pn
            // off its tag after a mis-route) or shrink to empty once dead
            // channels are removed.
            debug_assert!(
                fault_mode || !candidates.is_empty(),
                "routing must always offer a hop"
            );
            if fault_mode
                && candidates.is_empty()
                && self.algo.adaptivity() != Adaptivity::NonAdaptive
            {
                self.fault_candidates(here, rec_route.dest(), ivc, &mut candidates);
            }
        }
        if fault_mode {
            // Mis-routing can push an algorithm's class counters (phop's
            // hop count, nhop's negative hops) past the provisioned range;
            // clamp to the top class rather than indexing out of bounds.
            let max_class = (self.classes - 1) as u8;
            for cand in candidates.iter_mut() {
                if cand.vc_class() > max_class {
                    *cand = Candidate::new(cand.direction(), max_class);
                }
            }
            if candidates.is_empty() {
                self.scratch_candidates = candidates;
                return RouteOutcome::Failed { dirs: 0 };
            }
        }

        // Gather the free physical VCs permitted by the candidate set.
        let mut best: Option<(usize, u8, u8, u32)> = None; // (ovc, dir, vc, credits)
        let mut free_seen = 0u32;
        for cand in &candidates {
            let dir = cand.direction().index();
            let base = cand.vc_class() as usize * self.replicas;
            for r in 0..self.replicas {
                let vc = base + r;
                let ovc = self.ovc_index(node, dir, vc);
                if self.out_owner[ovc].is_some() {
                    continue;
                }
                let credits = self.credits(ovc);
                free_seen += 1;
                let take = match self.cfg.selection {
                    SelectionPolicy::FirstFree => best.is_none(),
                    SelectionPolicy::MostCredits => best.is_none_or(|(_, _, _, c)| credits > c),
                    SelectionPolicy::Random => {
                        // Reservoir sampling over the free set.
                        self.arb_rng.uniform_below(free_seen) == 0
                    }
                };
                if take {
                    best = Some((ovc, dir as u8, vc as u8, credits));
                }
            }
        }
        self.scratch_candidates = candidates;

        let Some((ovc, dir, vc, _)) = best else {
            // Candidates existed but every admissible VC was taken: a VC
            // allocation failure, charged to each candidate channel.
            if self.obs.registry.is_some() {
                self.record_alloc_failures(node);
            }
            return RouteOutcome::Failed {
                dirs: self.sleep_mask(),
            };
        };
        self.out_owner[ovc] = Some(msg);
        self.lanes
            .set_route(ivc, Some((RouteTarget::Link { dir, vc }, msg)));
        let ch = self.channel_index(node, dir as usize);
        let len = self.request_len[ch] as usize;
        debug_assert!(len < self.vcs, "a channel has at most `vcs` requesters");
        self.requests[ch * self.vcs + len] = OutputRequest { ivc, vc };
        self.request_len[ch] = (len + 1) as u8;
        self.active_channels.insert(ch);
        // An injection VC becomes a "streaming" lane once its head has a
        // route, making it eligible for the per-node injection budget.
        if self.lanes.is_injection(ivc) {
            let in_vc = (ivc - self.inj_ivc(node, 0)) as u16;
            let state = &mut self.nodes[node as usize];
            if !state.streaming_inj.contains(&in_vc) {
                state.streaming_inj.push(in_vc);
            }
            self.active_inj_nodes.insert(node as usize);
        }
        RouteOutcome::Routed
    }

    /// Charges one allocation failure per candidate channel of a head that
    /// found every admissible VC taken (`scratch_candidates` still holds
    /// the failed set). Cold path: only runs with metrics on, only on
    /// failed routes.
    #[cold]
    fn record_alloc_failures(&mut self, node: u32) {
        if let Some(reg) = self.obs.registry.as_deref_mut().map(|s| &mut s.registry) {
            for cand in &self.scratch_candidates {
                let ch = node as usize * self.dirs + cand.direction().index();
                reg.record_alloc_failure(ch, cand.vc_class() as usize);
            }
        }
    }

    /// Charges a sleeping head the allocation failures its skipped attempt
    /// would have recorded, so `alloc_fail` keeps meaning head-cycles spent
    /// waiting on a channel. The candidate set is re-derived rather than
    /// carried beside the entry: the routing function is pure and a blocked
    /// head's route state does not change, so it is the set that failed.
    /// Only runs with metrics on.
    fn record_sleeper_alloc_failures(&mut self, head: PendingHead) {
        let front = self
            .lanes
            .front(head.ivc)
            .expect("pending input VC holds its head");
        let route = self.slab.get(front.msg).route;
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        self.live_candidates(&route, NodeId::new(head.node), &mut candidates);
        self.scratch_candidates = candidates;
        self.record_alloc_failures(head.node);
    }
}
