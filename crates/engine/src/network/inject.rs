//! Phases 1 and 2: traffic arrivals, and queued messages moving into free
//! injection VCs.

use super::{Network, PendingHead};
use crate::flit::MessageId;
use crate::message::MessageRec;
use crate::TraceEvent;
use std::cmp::Reverse;
use wormsim_routing::MessageRouteState;
use wormsim_topology::NodeId;

impl Network {
    pub(super) fn schedule_initial_arrivals(&mut self) {
        for node in 0..self.nodes.len() as u32 {
            if let Some(gap) = self.cfg.arrival.next_gap(&mut self.arrivals_rng) {
                self.arrival_heap.push(Reverse((gap - 1, node)));
            }
        }
    }

    pub(super) fn phase_arrivals(&mut self) {
        // Arrival gaps are ≥ 1, so every entry still queued is due at the
        // current cycle or later; equal-cycle entries pop in ascending node
        // order, matching the scan this replaces.
        let now = self.metrics.cycles;
        while let Some(&Reverse((when, node))) = self.arrival_heap.peek() {
            debug_assert!(when >= now, "arrivals are drained every cycle");
            if when != now {
                break;
            }
            self.arrival_heap.pop();
            if let Some(gap) = self.cfg.arrival.next_gap(&mut self.arrivals_rng) {
                self.arrival_heap.push(Reverse((now + gap, node)));
            }
            let src = NodeId::new(node);
            let dest = self.pattern.sample_dest(src, &mut self.dest_rng);
            let length = self.cfg.length.sample(&mut self.length_rng);
            // Faulted network: drop a would-be message whose source is dead
            // or whose destination is unreachable over live channels. The
            // destination and length are sampled first regardless, so the
            // RNG streams stay aligned with a healthy run.
            if let Some(fs) = &self.faults {
                if !fs.reach.routable(src, dest) {
                    self.metrics.unroutable += 1;
                    continue;
                }
            }
            let (route, class) = self.route_message(src, dest);
            // Congestion control: refuse if the class is at its limit.
            if let Some(limit) = self.cfg.congestion_limit {
                let counts = &self.nodes[node as usize].class_counts;
                let count = counts.get(class as usize).copied().unwrap_or(0);
                if count >= limit {
                    self.metrics.refused += 1;
                    self.obs.trace(TraceEvent::Refused {
                        cycle: now,
                        src,
                        class,
                    });
                    continue;
                }
            }
            self.admit(route, class, length);
        }
    }

    /// A new message's initial route state and its injection class.
    pub(super) fn route_message(&self, src: NodeId, dest: NodeId) -> (MessageRouteState, u32) {
        let mut route = MessageRouteState::new(src, dest);
        self.algo.init_message(&self.topo, &mut route);
        let class = self.algo.injection_class(&self.topo, &route);
        (route, class)
    }

    /// Queues a message at its source, counting it against the source's
    /// `injection_class`.
    pub(super) fn admit(
        &mut self,
        route: MessageRouteState,
        injection_class: u32,
        length: u32,
    ) -> MessageId {
        let (src, dest) = (route.src(), route.dest());
        let id = self.slab.insert(MessageRec {
            route,
            length,
            generated: self.metrics.cycles,
            injected: None,
            injection_class,
            src,
        });
        let node = &mut self.nodes[src.as_usize()];
        let (counts, class) = (&mut node.class_counts, injection_class as usize);
        counts.resize(counts.len().max(class + 1), 0);
        counts[class] += 1;
        node.queue.push_back(id);
        self.inj_dirty.insert(src.as_usize());
        self.metrics.generated += 1;
        self.flits_in_flight += length as u64;
        self.obs.trace(TraceEvent::Generated {
            cycle: self.metrics.cycles,
            msg: id,
            src,
            dest,
            length,
        });
        id
    }

    pub(super) fn phase_assign_injection(&mut self) {
        // Set bits are visited in ascending node order, matching the full
        // scan this replaces (the order fixes routing priority downstream
        // via `pending_route`). Nodes still blocked on a free VC keep
        // their bit.
        let mut dirty = std::mem::take(&mut self.inj_dirty);
        dirty.retain(|node| {
            while !self.nodes[node].queue.is_empty() {
                let Some(ivc) = (0..self.vcs)
                    .map(|vc| self.inj_ivc(node as u32, vc))
                    .find(|&ivc| self.lanes.len(ivc) == 0 && self.lanes.route(ivc).is_none())
                else {
                    break;
                };
                let id = self.nodes[node].queue.pop_front().expect("non-empty");
                self.lanes.start_message(ivc, id, self.slab.get(id).length);
                self.obs.trace(TraceEvent::InjectionStarted {
                    cycle: self.metrics.cycles,
                    msg: id,
                });
                self.enqueue_pending(ivc, node as u32);
            }
            !self.nodes[node].queue.is_empty()
        });
        self.inj_dirty = dirty;
    }

    /// Queues input VC `ivc` of `node`, whose front is an unrouted head,
    /// for the route phase.
    pub(super) fn enqueue_pending(&mut self, ivc: u32, node: u32) {
        self.pending_route.push(PendingHead {
            ivc,
            node,
            dirs: 0,
            failed_at: 0,
        });
    }
}
