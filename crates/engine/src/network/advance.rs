//! Phase 5: ejections and link transfers, with the credit, request-row and
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
        if self.ejecting.is_empty() {
            return false;
        }
        let mut progressed = false;
        match self.cfg.ejection {
            EjectionModel::PerVc => {
                for i in 0..self.ejecting.len() {
                    let ivc = self.ejecting[i];
                    let slot = &self.input_vcs[ivc as usize];
                    if slot.route == Some(RouteTarget::Eject) && !slot.buffer.is_empty() {
                        self.eject_one(ivc);
                        progressed = true;
                    }
                }
            }
            EjectionModel::SingleChannel => {
                // One delivery per node per cycle, round-robin among the
                // node's ejecting VCs. Grouping is a stable sort by node —
                // not a hash map — so delivery order is deterministic; the
                // stable sort keeps each node's VCs in `ejecting` order,
                // which the round-robin pointer indexes into.
                let mut ready = std::mem::take(&mut self.scratch_eject);
                ready.clear();
                for i in 0..self.ejecting.len() {
                    let ivc = self.ejecting[i];
                    let slot = &self.input_vcs[ivc as usize];
                    if slot.route == Some(RouteTarget::Eject) && !slot.buffer.is_empty() {
                        let (node, _, _) = self.ivc_parts(ivc);
                        ready.push((node, ivc));
                    }
                }
                ready.sort_by_key(|&(node, _)| node);
                let mut i = 0;
                while i < ready.len() {
                    let node = ready[i].0;
                    let mut j = i + 1;
                    while j < ready.len() && ready[j].0 == node {
                        j += 1;
                    }
                    let rr = self.nodes[node as usize].ej_rr;
                    let ivc = ready[i + rr % (j - i)].1;
                    self.nodes[node as usize].ej_rr = rr.wrapping_add(1);
                    self.eject_one(ivc);
                    progressed = true;
                    i = j;
                }
                self.scratch_eject = ready;
            }
        }
        // Keep VCs whose route is still Eject (their tail has not passed).
        self.ejecting
            .retain(|&ivc| self.input_vcs[ivc as usize].route == Some(RouteTarget::Eject));
        progressed
    }

    fn eject_one(&mut self, ivc: u32) {
        let (node, port, _vc) = self.ivc_parts(ivc);
        let flit = self.input_vcs[ivc as usize].pop();
        self.occ[ivc as usize] -= 1;
        self.return_credit(node, port, ivc);
        self.metrics.flits_ejected += 1;
        self.flits_in_flight -= 1;
        self.obs.trace(TraceEvent::FlitDelivered {
            cycle: self.cycle,
            msg: flit.msg,
            kind: flit.kind,
        });
        if flit.kind.is_tail() {
            let rec = self.slab.remove(flit.msg);
            let latency = self.cycle - rec.generated;
            self.obs.trace(TraceEvent::Delivered {
                cycle: self.cycle,
                msg: flit.msg,
                latency,
            });
            self.metrics.delivered += 1;
            if let Some(sampler) = self.obs.sampler.as_mut() {
                sampler.latency_sum += latency;
            }
            if let Some(reg) = self.obs.registry.as_deref_mut() {
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
                delivered_at: self.cycle,
            });
            self.after_tail_pop(ivc);
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
        let (node, port, in_vc) = self.ivc_parts(mv.ivc);
        let ch = self.channel_index(node, mv.dir as usize);
        let flit = self.input_vcs[mv.ivc as usize].pop();
        self.occ[mv.ivc as usize] -= 1;
        let dir = Direction::from_index(mv.dir as usize);
        let inj_port = self.injection_port();

        if flit.kind.is_head() {
            // The head leaving a node is the moment the hop is decided:
            // advance the message's routing state.
            let class = self.vc_class[mv.vc as usize];
            let rec = self.slab.get_mut(flit.msg);
            rec.route
                .advance(&self.topo, NodeId::new(node), Candidate::new(dir, class));
            if port == inj_port {
                rec.injected = Some(self.cycle);
            }
            self.obs.trace(TraceEvent::HopTaken {
                cycle: self.cycle,
                msg: flit.msg,
                from: NodeId::new(node),
                direction: dir,
                vc_class: class,
            });
        }
        if port == inj_port {
            self.metrics.flits_injected += 1;
            if flit.kind.is_tail() {
                // The message has fully left its source: release the
                // congestion-control slot and the streaming lane.
                let (injection_class, src) = {
                    let rec = self.slab.get(flit.msg);
                    (rec.injection_class, rec.src)
                };
                self.release_class_slot(src, injection_class);
                self.nodes[src.as_usize()]
                    .streaming_inj
                    .retain(|&v| v as usize != in_vc);
            }
        } else {
            self.return_credit(node, port, mv.ivc);
        }

        if flit.kind.is_tail() {
            self.remove_request(ch, mv.ivc);
            self.after_tail_pop(mv.ivc);
        }

        // Deliver the flit into the neighbor's input buffer.
        let neighbor = self.neighbor_of[ch];
        debug_assert!(
            neighbor != u32::MAX,
            "routed moves follow existing channels"
        );
        let div = self.ivc_index(neighbor, dir.index(), mv.vc as usize);
        let was_empty = self.input_vcs[div as usize].buffer.is_empty();
        debug_assert!(
            (self.input_vcs[div as usize].buffer.len() as u32) < self.capacity,
            "credit flow control must prevent overflow"
        );
        self.input_vcs[div as usize].push(flit);
        self.occ[div as usize] += 1;
        if was_empty && flit.kind.is_head() {
            debug_assert!(self.input_vcs[div as usize].route.is_none());
            self.enqueue_pending(div);
        }

        // Channel bookkeeping.
        let ovc = self.ovc_index(node, mv.dir as usize, mv.vc as usize);
        self.out_credits[ovc] -= 1;
        if flit.kind.is_tail() {
            self.out_owner[ovc] = None;
            self.ch_freed_at[ch] = self.cycle;
        }
        self.metrics.flit_hops += 1;
        let class = self.vc_class[mv.vc as usize] as usize;
        self.metrics.class_flits[class] += 1;
        if let Some(sampler) = self.obs.sampler.as_mut() {
            sampler.channel_flits[ch] += 1;
        }
        if let Some(reg) = self.obs.registry.as_deref_mut() {
            reg.record_traversal(ch, class);
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

    /// After a tail leaves an input VC: if the next message's head is now
    /// at the front, it needs routing.
    fn after_tail_pop(&mut self, ivc: u32) {
        if let Some(front) = self.input_vcs[ivc as usize].front() {
            debug_assert!(
                front.kind.is_head(),
                "messages interleave only at message boundaries"
            );
            self.enqueue_pending(ivc);
        }
    }

    /// Returns one credit to the upstream output VC feeding `ivc` (no-op
    /// for injection ports, whose buffers are node-internal).
    pub(super) fn return_credit(&mut self, node: u32, port: usize, ivc: u32) {
        if port >= self.dirs {
            return;
        }
        let arrive_dir = Direction::from_index(port);
        let upstream = self.neighbor_of[self.channel_index(node, arrive_dir.opposite().index())];
        debug_assert!(upstream != u32::MAX, "flits arrive over existing channels");
        let (_, _, vc) = self.ivc_parts(ivc);
        let ovc = self.ovc_index(upstream, arrive_dir.index(), vc);
        self.out_credits[ovc] += 1;
        debug_assert!(self.out_credits[ovc] <= self.capacity);
    }

    /// Releases one congestion-control slot of `class` at `src`.
    pub(super) fn release_class_slot(&mut self, src: NodeId, class: u32) {
        let state = &mut self.nodes[src.as_usize()];
        if let Some(count) = state.class_counts.get_mut(&class) {
            *count -= 1;
            if *count == 0 {
                state.class_counts.remove(&class);
            }
        }
    }
}
