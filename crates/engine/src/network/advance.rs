//! Phase 5: ejections and link transfers, with the request-row and
//! congestion-slot bookkeeping a departing flit releases.

use super::{LinkMove, Network};
use crate::config::EjectionModel;
use crate::metrics::DeliveredMessage;
use crate::vc::RouteTarget;
use crate::TraceEvent;
use wormsim_routing::Candidate;
use wormsim_topology::{Direction, NodeId};

impl Network {
    pub(super) fn execute_ejections(&mut self) -> bool {
        // `(node, ivc)` of each ejecting VC with a flit. An ejection touches
        // only its own lane, so readiness read up front holds at its turn.
        let mut ready = std::mem::take(&mut self.scratch_eject);
        ready.clear();
        for &(ivc, node) in &self.ejecting {
            if self.lanes.route(ivc) == Some(RouteTarget::Eject) && self.lanes.len(ivc) != 0 {
                ready.push((node, ivc));
            }
        }
        let progressed = !ready.is_empty();
        match self.cfg.ejection {
            EjectionModel::PerVc => {
                for &(node, ivc) in &ready {
                    self.eject_one(ivc, node);
                }
            }
            EjectionModel::SingleChannel => {
                // One delivery per node per cycle, round-robin among the
                // node's ejecting VCs. Grouping is a stable sort by node —
                // not a hash map — so delivery order is deterministic; the
                // stable sort keeps each node's VCs in `ejecting` order,
                // which the round-robin pointer indexes into.
                ready.sort_by_key(|&(node, _)| node);
                for group in ready.chunk_by(|a, b| a.0 == b.0) {
                    let node = group[0].0;
                    let rr = self.nodes[node as usize].ej_rr;
                    self.nodes[node as usize].ej_rr = rr.wrapping_add(1);
                    self.eject_one(group[rr % group.len()].1, node);
                }
            }
        }
        self.scratch_eject = ready;
        // Keep VCs whose route is still Eject (their tail has not passed).
        self.ejecting
            .retain(|&(ivc, _)| self.lanes.route(ivc) == Some(RouteTarget::Eject));
        progressed
    }

    fn eject_one(&mut self, ivc: u32, node: u32) {
        let flit = self.lanes.pop(ivc);
        self.metrics.flits_ejected += 1;
        self.flits_in_flight -= 1;
        self.obs.trace(TraceEvent::FlitDelivered {
            cycle: self.metrics.cycles,
            msg: flit.msg,
            kind: flit.kind,
        });
        if flit.kind.is_tail() {
            let rec = self.slab.remove(flit.msg);
            let latency = self.metrics.cycles - rec.generated;
            self.obs.trace(TraceEvent::Delivered {
                cycle: self.metrics.cycles,
                msg: flit.msg,
                latency,
            });
            self.metrics.delivered += 1;
            self.metrics.latency_sum += latency;
            if let Some(reg) = self.obs.registry.as_deref_mut().map(|s| &mut s.registry) {
                reg.record_latency(latency);
            }
            // The documented hop class is the *minimal* src–dest distance;
            // hops_taken equals it on every fault-free path (all algorithms
            // route minimally), but misrouting around faults can exceed the
            // diameter, and the stratified estimator sizes its strata by
            // distance.
            self.delivered.push(DeliveredMessage {
                hop_class: self.topo.distance(rec.src, rec.route.dest()) as u16,
                latency,
                source_wait: rec.injected.unwrap_or(rec.generated) - rec.generated,
                length: rec.length,
                delivered_at: self.metrics.cycles,
            });
            self.after_tail_pop(ivc, node);
        }
    }

    pub(super) fn execute_link_moves(&mut self) -> bool {
        let moves = std::mem::take(&mut self.scratch_moves);
        let progressed = !moves.is_empty();
        for mv in &moves {
            self.execute_link_move(*mv);
        }
        self.scratch_moves = moves;
        progressed
    }

    fn execute_link_move(&mut self, mv: LinkMove) {
        let LinkMove { ivc, node, .. } = mv;
        let ch = self.channel_index(node, mv.dir as usize);
        let flit = self.lanes.pop(ivc);
        let dir = Direction::from_index(mv.dir as usize);
        let from_injection = self.lanes.is_injection(ivc);

        if flit.kind.is_head() {
            // The head leaving a node is the moment the hop is decided:
            // advance the message's routing state.
            let class = self.vc_class[mv.vc as usize];
            let rec = self.slab.get_mut(flit.msg);
            rec.route
                .advance(&self.topo, NodeId::new(node), Candidate::new(dir, class));
            if from_injection {
                rec.injected = Some(self.metrics.cycles);
            }
            self.obs.trace(TraceEvent::HopTaken {
                cycle: self.metrics.cycles,
                msg: flit.msg,
                from: NodeId::new(node),
                direction: dir,
                vc_class: class,
            });
        }
        if from_injection {
            self.metrics.flits_injected += 1;
            if flit.kind.is_tail() {
                // The message has fully left its source: release the
                // congestion-control slot and the streaming lane.
                let injection_class = self.slab.get(flit.msg).injection_class;
                self.release_class_slot(NodeId::new(node), injection_class);
                let in_vc = (ivc - self.inj_ivc(node, 0)) as u16;
                self.nodes[node as usize]
                    .streaming_inj
                    .retain(|&v| v != in_vc);
            }
        }

        if flit.kind.is_tail() {
            self.remove_request(ch, ivc);
            self.after_tail_pop(ivc, node);
        }

        // Deliver the flit into the lane the output VC feeds.
        let neighbor = self.neighbor_of[ch];
        debug_assert!(
            neighbor != u32::MAX,
            "routed moves follow existing channels"
        );
        let ovc = self.ovc_index(node, mv.dir as usize, mv.vc as usize);
        let was_empty = self.lanes.len(ovc as u32) == 0;
        self.lanes.push(ovc as u32, flit);
        if was_empty && flit.kind.is_head() {
            debug_assert!(self.lanes.route(ovc as u32).is_none());
            self.enqueue_pending(ovc as u32, neighbor);
        }

        // Channel bookkeeping.
        if flit.kind.is_tail() {
            self.out_owner[ovc] = None;
            self.ch_freed_at[ch] = self.metrics.cycles;
        }
        self.metrics.flit_hops += 1;
        let class = self.vc_class[mv.vc as usize] as usize;
        self.metrics.class_flits[class] += 1;
        // Empty unless the sampler or the registry reads it.
        if let Some(flits) = self.obs.channel_flits.get_mut(ch) {
            *flits += 1;
        }
    }

    /// Drops `ivc`'s entry from a channel's request row, shifting later
    /// entries left (same order as `Vec::retain`).
    pub(super) fn remove_request(&mut self, ch: usize, ivc: u32) {
        let len = self.request_len[ch] as usize;
        let row = &mut self.requests[ch * self.vcs..ch * self.vcs + len];
        if let Some(pos) = row.iter().position(|r| r.ivc == ivc) {
            row.copy_within(pos + 1.., pos);
            self.request_len[ch] = (len - 1) as u8;
        }
    }

    /// After a tail leaves input VC `ivc` of `node`: if the next message's
    /// head is now at the front, it needs routing.
    fn after_tail_pop(&mut self, ivc: u32, node: u32) {
        if let Some(front) = self.lanes.front(ivc) {
            debug_assert!(
                front.kind.is_head(),
                "messages interleave only at message boundaries"
            );
            self.enqueue_pending(ivc, node);
        }
    }

    /// Releases one congestion-control slot of `class` at `src`.
    pub(super) fn release_class_slot(&mut self, src: NodeId, class: u32) {
        if let Some(count) = self.nodes[src.as_usize()]
            .class_counts
            .get_mut(class as usize)
        {
            *count -= 1;
        }
    }
}
