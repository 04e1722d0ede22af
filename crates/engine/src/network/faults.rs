//! Fault handling — fallback candidates, mask transitions, the sweep that
//! aborts or parks what a new mask severs — plus the livelock guard and
//! the wait-for forensics read after a stall.

use super::{LivelockReport, Network, PendingHead};
use crate::flit::MessageId;
use crate::message::MessageRec;
use crate::vc::RouteTarget;
use std::collections::{BTreeSet, HashMap, HashSet};
use wormsim_faults::Reachability;
use wormsim_observe::{WaitForEdge, WaitForSnapshot, WaitKind};
use wormsim_routing::Candidate;
use wormsim_topology::{Direction, NodeId};

impl Network {
    /// Fallback candidate generation under faults: live minimal hops first;
    /// failing that, any live hop except straight back the way the worm
    /// came (and even that, as a last resort). All fallback hops use the
    /// top VC class — deadlock-freedom of these paths is not proven, which
    /// is exactly what the livelock guard and watchdog are for. Cold: kept
    /// out of the healthy route phase's code.
    #[cold]
    pub(super) fn fault_candidates(
        &self,
        here: NodeId,
        dest: NodeId,
        ivc: u32,
        out: &mut Vec<Candidate>,
    ) {
        let fs = self
            .faults
            .as_ref()
            .expect("fault fallback requires faults");
        let class = (self.classes - 1) as u8;
        let d_here = self.topo.distance(here, dest);
        let live = |dir: Direction| {
            self.topo.has_channel(here, dir) && fs.mask.channel_alive(self.topo.channel(here, dir))
        };
        for dir in Direction::all(self.topo.num_dims()) {
            if !live(dir) {
                continue;
            }
            let next = self.topo.neighbor(here, dir).expect("live implies exists");
            if self.topo.distance(next, dest) < d_here {
                out.push(Candidate::new(dir, class));
            }
        }
        if !out.is_empty() {
            return;
        }
        let (_, in_port, _) = self.lane_parts(ivc);
        let back = (in_port < self.dirs).then(|| Direction::from_index(in_port).opposite());
        for dir in Direction::all(self.topo.num_dims()) {
            if Some(dir) != back && live(dir) {
                out.push(Candidate::new(dir, class));
            }
        }
        if out.is_empty() {
            if let Some(back) = back {
                if live(back) {
                    out.push(Candidate::new(back, class));
                }
            }
        }
    }

    /// Applies every fault transition due at the current cycle: rebuilds
    /// the mask and reachability, then sweeps the network for messages the
    /// new mask dooms or parks.
    pub(super) fn apply_fault_transitions(&mut self) {
        loop {
            let due = self.faults.as_ref().is_some_and(|fs| {
                fs.transitions
                    .get(fs.next_transition)
                    .is_some_and(|&c| c <= self.metrics.cycles)
            });
            if !due {
                return;
            }
            let plan = self
                .cfg
                .faults
                .as_ref()
                .expect("fault state implies a plan");
            let fs = self.faults.as_mut().expect("checked above");
            fs.next_transition += 1;
            fs.mask = plan.mask_at(&self.topo, self.metrics.cycles);
            fs.reach = Reachability::compute(&self.topo, &fs.mask);
            self.fault_sweep();
        }
    }

    /// Reconciles in-flight state with a changed fault mask:
    ///
    /// * messages severed by the new mask — flits buffered at a dead node
    ///   or behind a dead channel, reservations on a dead channel, a dead
    ///   endpoint, or a head that can no longer reach its destination —
    ///   are aborted and their flits dropped;
    /// * queued messages whose destination became unreachable are parked;
    /// * parked messages whose destination became reachable re-enter their
    ///   source queue.
    fn fault_sweep(&mut self) {
        let mut doomed: BTreeSet<MessageId> = BTreeSet::new();
        let mut to_park: Vec<MessageId> = Vec::new();
        let mut to_unpark: Vec<MessageId> = Vec::new();
        {
            let fs = self.faults.as_ref().expect("sweep requires fault state");
            let mut head_at: HashMap<MessageId, u32> = HashMap::new();
            let mut has_flits: HashSet<MessageId> = HashSet::new();
            for ivc in 0..self.lanes.count() as u32 {
                if self.lanes.len(ivc) == 0 {
                    continue;
                }
                let (node, ..) = self.lane_parts(ivc);
                let node_dead = !fs.mask.node_alive(NodeId::new(node));
                // Flits buffered downstream of a dead channel are the
                // channel's in-transit flits (a lane is indexed by its
                // channel's output VC): the worm is severed.
                let feed_dead = !self.lanes.is_injection(ivc) && {
                    let (up, dir) = self.ch_owner[ivc as usize / self.vcs];
                    let dir = Direction::from_index(dir as usize);
                    !fs.mask
                        .channel_alive(self.topo.channel(NodeId::new(up), dir))
                };
                for flit in self.lanes.flits(ivc) {
                    has_flits.insert(flit.msg);
                    if node_dead || feed_dead {
                        doomed.insert(flit.msg);
                    }
                    if flit.kind.is_head() {
                        head_at.insert(flit.msg, node);
                    }
                }
            }
            // Reservations crossing a dead channel.
            for ovc in 0..self.out_owner.len() {
                if let Some(msg) = self.out_owner[ovc] {
                    let (node, dir) = self.ch_owner[ovc / self.vcs];
                    let ch = self
                        .topo
                        .channel(NodeId::new(node), Direction::from_index(dir as usize));
                    if !fs.mask.channel_alive(ch) {
                        doomed.insert(msg);
                    }
                }
            }
            for (id, rec) in self.slab.iter() {
                let dest = rec.route.dest();
                if !fs.mask.node_alive(rec.src) || !fs.mask.node_alive(dest) {
                    doomed.insert(id);
                    continue;
                }
                if let Some(&h) = head_at.get(&id) {
                    if !fs.reach.routable(NodeId::new(h), dest) {
                        doomed.insert(id);
                    }
                } else if !has_flits.contains(&id) {
                    // No flits in any buffer: the message is still in its
                    // source queue, or already parked.
                    let is_parked = fs.parked.binary_search(&id).is_ok();
                    let routable = fs.reach.routable(rec.src, dest);
                    if routable && is_parked {
                        to_unpark.push(id);
                    } else if !routable && !is_parked {
                        to_park.push(id);
                    }
                }
            }
        }
        for id in to_park {
            let &MessageRec { src, length, .. } = self.slab.get(id);
            let queue = &mut self.nodes[src.as_usize()].queue;
            if let Some(pos) = queue.iter().position(|&m| m == id) {
                queue.remove(pos);
                let fs = self.faults.as_mut().expect("sweep requires fault state");
                fs.parked.push(id);
                fs.parked_flits += u64::from(length);
            }
        }
        for id in to_unpark {
            let &MessageRec { src, length, .. } = self.slab.get(id);
            let fs = self.faults.as_mut().expect("sweep requires fault state");
            if let Ok(pos) = fs.parked.binary_search(&id) {
                fs.parked.remove(pos);
                fs.parked_flits -= u64::from(length);
                self.nodes[src.as_usize()].queue.push_back(id);
                self.inj_dirty.insert(src.as_usize());
            }
        }
        if let Some(fs) = self.faults.as_mut() {
            fs.parked.sort_unstable();
        }
        for id in doomed {
            self.abort_message(id);
        }
    }

    /// Kills one live message wherever it is — source queue, parked list,
    /// or spread across input buffers — releasing every resource it holds
    /// (buffer slots and so credits, routes, output-VC reservations, its
    /// congestion-control slot) and dropping its flits.
    fn abort_message(&mut self, msg: MessageId) {
        let (length, src, injection_class) = {
            let rec = self.slab.get(msg);
            (rec.length, rec.src, rec.injection_class)
        };

        // Still at the source, flitless: queued or parked.
        let queue_pos = self.nodes[src.as_usize()]
            .queue
            .iter()
            .position(|&m| m == msg);
        let parked_pos = self
            .faults
            .as_ref()
            .and_then(|fs| fs.parked.binary_search(&msg).ok());
        if let Some(pos) = queue_pos {
            self.nodes[src.as_usize()].queue.remove(pos);
        } else if let Some(pos) = parked_pos {
            let fs = self.faults.as_mut().expect("parked implies fault state");
            fs.parked.remove(pos);
            fs.parked_flits -= u64::from(length);
        }
        if queue_pos.is_some() || parked_pos.is_some() {
            self.release_class_slot(src, injection_class);
            self.flits_in_flight -= u64::from(length);
            self.metrics.messages_aborted += 1;
            self.metrics.flits_dropped += u64::from(length);
            self.slab.remove(msg);
            return;
        }

        // In the network: sweep every input VC for its flits and routes.
        let mut dropped = 0u64;
        let mut revealed = Vec::new();
        for ivc in 0..self.lanes.count() as u32 {
            let owns_route = self.lanes.owner(ivc) == Some(msg);
            let (removed, front_was_msg) = self.lanes.purge_message(ivc, msg);
            if !owns_route && removed == 0 {
                continue;
            }
            let (node, port, vc) = self.lane_parts(ivc);
            if owns_route {
                match self.lanes.route(ivc) {
                    Some(RouteTarget::Link { dir, .. }) => {
                        self.remove_request(self.channel_index(node, dir as usize), ivc);
                    }
                    Some(RouteTarget::Eject) => {
                        self.ejecting.retain(|&(e, _)| e != ivc);
                    }
                    None => {}
                }
                self.lanes.set_route(ivc, None);
            }
            dropped += u64::from(removed);
            if removed > 0 && self.lanes.is_injection(ivc) {
                // An injection VC holds flits of at most one message, so it
                // is now empty: the tail never left the source — release
                // the streaming lane and the congestion slot.
                self.nodes[node as usize]
                    .streaming_inj
                    .retain(|&v| v as usize != vc);
                self.release_class_slot(NodeId::new(node), injection_class);
            }
            // The purge exposed a new front only when this VC's route
            // belonged to the dead message; an unrouted head at the front
            // means the VC is already in `pending_route` (kept or dropped
            // by the retain below).
            if owns_route && front_was_msg && self.lanes.len(ivc) != 0 {
                revealed.push((node, port, vc, ivc));
            }
        }
        // Heads re-enter `pending_route` node by node, port by port, VC by
        // VC: the order that fixes their routing priority.
        revealed.sort_unstable();
        for ovc in 0..self.out_owner.len() {
            if self.out_owner[ovc] == Some(msg) {
                self.out_owner[ovc] = None;
            }
        }
        self.pending_route.retain(|p| {
            self.lanes.route(p.ivc).is_none()
                && self.lanes.front(p.ivc).is_some_and(|f| f.kind.is_head())
        });
        for (node, _, _, ivc) in revealed {
            debug_assert!(
                self.lanes.front(ivc).is_some_and(|f| f.kind.is_head()),
                "messages interleave only at message boundaries"
            );
            self.enqueue_pending(ivc, node);
        }
        self.flits_in_flight -= dropped;
        self.metrics.messages_aborted += 1;
        self.metrics.flits_dropped += dropped;
        self.slab.remove(msg);
    }

    /// Scans the live-message slab for messages over the hop or age budget
    /// (parked messages are exempt — they are waiting on a repair, not
    /// starving). Sets the sticky [`LivelockReport`] on the first find.
    pub(super) fn check_livelock(&mut self) {
        let mut over = 0usize;
        let mut max_hops = 0u32;
        let mut max_age = 0u64;
        for (id, rec) in self.slab.iter() {
            if self
                .faults
                .as_ref()
                .is_some_and(|fs| fs.parked.binary_search(&id).is_ok())
            {
                continue;
            }
            let hops = rec.route.hops_taken();
            let age = self.metrics.cycles - rec.generated;
            if self.cfg.hop_budget.is_some_and(|b| hops > b)
                || self.cfg.age_budget.is_some_and(|b| age > b)
            {
                over += 1;
                max_hops = max_hops.max(hops);
                max_age = max_age.max(age);
            }
        }
        if over > 0 {
            self.livelock = Some(LivelockReport {
                detected_at: self.metrics.cycles,
                messages_over_budget: over,
                max_hops,
                max_age,
            });
        }
    }

    /// Captures the worm→channel wait-for graph at the current cycle and
    /// runs cycle detection over it, so a watchdog or livelock verdict
    /// carries evidence of a real channel cycle (or its absence).
    ///
    /// Two kinds of waits are recorded:
    ///
    /// * **VC waits**: a head pending routing whose admissible output VCs
    ///   are all owned by other messages — one edge per owning message.
    /// * **Credit waits**: a routed worm with flits ready but zero credits
    ///   — the downstream buffer is full; the edge points at the message
    ///   whose flit is at the downstream front. Waits behind the worm's
    ///   *own* downstream flits are skipped (that wait resolves through
    ///   the worm's head, which contributes its own edge).
    ///
    /// Read-only and cold: meant to run once, after the watchdog fires.
    pub fn wait_for_snapshot(&self, reason: &str) -> WaitForSnapshot {
        let mut snap = WaitForSnapshot {
            cycle: self.metrics.cycles,
            reason: reason.to_owned(),
            live_messages: self.slab.live() as u64,
            flits_in_flight: self.flits_in_flight,
            ..WaitForSnapshot::default()
        };
        // One edge per (waiter, channel, holder); a worm never waits on
        // itself.
        let mut seen: BTreeSet<(u32, usize, u32)> = BTreeSet::new();
        let mut wait = |msg: MessageId, node: u32, ch: usize, holder: MessageId, kind| {
            if holder != msg && seen.insert((msg.index(), ch, holder.index())) {
                snap.edges.push(WaitForEdge {
                    msg: u64::from(msg.index()),
                    node: u64::from(node),
                    channel: ch as u64,
                    holder: u64::from(holder.index()),
                    kind,
                });
            }
        };

        // Heads pending routing: blocked on VC allocation.
        let mut candidates: Vec<Candidate> = Vec::new();
        for &PendingHead { ivc, node, .. } in &self.pending_route {
            let Some(front) = self.lanes.front(ivc) else {
                continue;
            };
            let msg = front.msg;
            let here = NodeId::new(node);
            candidates.clear();
            self.live_candidates(&self.slab.get(msg).route, here, &mut candidates);
            let max_class = (self.classes - 1) as u8;
            for cand in &candidates {
                let dir = cand.direction().index();
                let base = cand.vc_class().min(max_class) as usize * self.replicas;
                let ch = self.channel_index(node, dir);
                for r in 0..self.replicas {
                    let ovc = self.ovc_index(node, dir, base + r);
                    if let Some(owner) = self.out_owner[ovc] {
                        wait(msg, node, ch, owner, WaitKind::Vc);
                    }
                }
            }
        }

        // Routed worms with flits ready but no credits: blocked on the
        // downstream lane. Visited by (node, port, VC), as edges keep order.
        let mut routed: Vec<_> = (0..self.lanes.count() as u32)
            .filter(|&ivc| self.lanes.len(ivc) != 0)
            .filter_map(|ivc| match (self.lanes.route(ivc), self.lanes.owner(ivc)) {
                (Some(RouteTarget::Link { dir, vc }), Some(msg)) => {
                    Some((self.lane_parts(ivc), dir as usize, vc as usize, msg))
                }
                _ => None,
            })
            .collect();
        routed.sort_unstable_by_key(|&(parts, ..)| parts);
        for ((node, _, _), dir, vc, msg) in routed {
            let ovc = self.ovc_index(node, dir, vc);
            if let (0, Some(front)) = (self.credits(ovc), self.lanes.front(ovc as u32)) {
                wait(
                    msg,
                    node,
                    self.channel_index(node, dir),
                    front.msg,
                    WaitKind::Credit,
                );
            }
        }

        snap.detect_cycle();
        snap
    }
}
