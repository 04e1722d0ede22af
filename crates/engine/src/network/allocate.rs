//! Phase 4: switch allocation (one flit per output channel per cycle), and
//! the per-node injection budget it consults.

use super::{LinkMove, Network};
use crate::vc::RouteTarget;

impl Network {
    pub(super) fn phase_switch_allocation(&mut self) {
        self.scratch_moves.clear();
        self.mark_injection_budget();
        // Moved out of `self` so the blocked-requester accounting below
        // can run inside the arbitration loop without a split borrow; one
        // `Option` move per cycle, `None` on the disabled path.
        let mut registry = self.obs.registry.take();
        // Set bits are visited in ascending channel order — node-major,
        // direction-minor — matching the nested full scan this replaces,
        // so round-robin state and `scratch_moves` order are bit-identical.
        // Channels whose request list has drained are dropped here (lazy
        // removal).
        let mut active = std::mem::take(&mut self.active_channels);
        active.retain(|ch| {
            let len = self.request_len[ch] as usize;
            if len == 0 {
                return false;
            }
            let (node, dir) = self.ch_owner[ch];
            let row = ch * self.vcs;
            // Round-robin with lazy wrap: `out_rr` is only reduced modulo
            // `len` when the list shrank underneath it, so the common path
            // runs division-free.
            let mut idx = self.out_rr[ch] as usize;
            if idx >= len {
                idx %= len;
            }
            let mut winner: Option<u32> = None;
            for _ in 0..len {
                let req = self.requests[row + idx];
                // The output-VC index is the channel's row base plus the
                // granted VC (not stored in the request).
                let granted = self.lanes.len(req.ivc) != 0
                    && (!self.lanes.is_injection(req.ivc)
                        || self.marked_inj[self.marked_slot(req.ivc)])
                    && self.credits(row + req.vc as usize) != 0;
                idx += 1;
                if idx == len {
                    idx = 0;
                }
                if granted {
                    debug_assert_eq!(
                        self.lanes.route(req.ivc),
                        Some(RouteTarget::Link { dir, vc: req.vc })
                    );
                    self.scratch_moves.push(LinkMove {
                        ivc: req.ivc,
                        node,
                        dir,
                        vc: req.vc,
                    });
                    self.out_rr[ch] = idx as u8;
                    winner = Some(req.ivc);
                    break;
                }
            }
            if let Some(reg) = registry.as_deref_mut().map(|s| &mut s.registry) {
                // Every ungranted requester with a flit ready is a blocked
                // worm-cycle on this channel.
                for r in 0..len {
                    let req = self.requests[row + r];
                    if winner != Some(req.ivc) && self.lanes.len(req.ivc) != 0 {
                        reg.record_blocked(ch, self.vc_class[req.vc as usize] as usize);
                    }
                }
            }
            true
        });
        self.active_channels = active;
        self.obs.registry = registry;
    }

    /// Marks up to `injection_bandwidth` streaming injection VCs per node
    /// as allowed to send this cycle (the processor-router port is a
    /// physical channel too).
    fn mark_injection_budget(&mut self) {
        for &slot in &self.marked_list {
            self.marked_inj[slot] = false;
        }
        self.marked_list.clear();
        // Only nodes with streaming injection VCs are visited; the budget
        // touches per-node state only, so any visit order would do — the
        // bitmap's ascending order is simply free. Drained nodes are
        // dropped lazily.
        let budget = self.cfg.injection_bandwidth as usize;
        let mut active = std::mem::take(&mut self.active_inj_nodes);
        active.retain(|node| {
            let len = self.nodes[node].streaming_inj.len();
            if len == 0 {
                return false;
            }
            let mut idx = self.nodes[node].inj_rr;
            if idx >= len {
                idx %= len;
            }
            let mut next = idx;
            let mut marked = 0;
            for _ in 0..len {
                if marked >= budget {
                    break;
                }
                let vc = self.nodes[node].streaming_inj[idx] as usize;
                idx += 1;
                if idx == len {
                    idx = 0;
                }
                let ivc = self.inj_ivc(node as u32, vc);
                if self.lanes.len(ivc) != 0 {
                    let slot = self.marked_slot(ivc);
                    self.marked_inj[slot] = true;
                    self.marked_list.push(slot);
                    marked += 1;
                    next = idx;
                }
            }
            self.nodes[node].inj_rr = next;
            true
        });
        self.active_inj_nodes = active;
    }
}
