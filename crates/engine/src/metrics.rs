//! Raw simulation counters and per-message delivery records.

/// One delivered message, reported when its tail flit leaves the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveredMessage {
    /// The message's hop class: the minimal source–destination distance.
    pub hop_class: u16,
    /// End-to-end latency in cycles, from generation to tail ejection.
    pub latency: u64,
    /// Cycles spent waiting in the source queue before the head left.
    pub source_wait: u64,
    /// Message length in flits.
    pub length: u32,
    /// The cycle the tail was delivered.
    pub delivered_at: u64,
}

/// Aggregate counters, resettable between sampling periods.
///
/// Counter semantics: `generated` counts accepted messages; `refused`
/// counts messages dropped by congestion control; `delivered` counts
/// messages whose tail left the network; `flit_hops` counts flit transfers
/// over *network* physical channels (injection and ejection excluded), the
/// numerator of measured channel utilization.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Messages accepted into source queues.
    pub generated: u64,
    /// Messages refused by the input-buffer-limit congestion control.
    pub refused: u64,
    /// Messages fully delivered.
    pub delivered: u64,
    /// Flit transfers across network physical channels.
    pub flit_hops: u64,
    /// Flits that left source queues into the network.
    pub flits_injected: u64,
    /// Flits delivered at destinations.
    pub flits_ejected: u64,
    /// Cycles covered by these counters (since the last reset).
    pub cycles: u64,
    /// Would-be messages dropped at generation because no live path to the
    /// destination existed under the active fault mask.
    pub unroutable: u64,
    /// Messages killed in flight by a fault (their flits are dropped).
    pub messages_aborted: u64,
    /// Flits discarded by fault aborts (buffered and still-queued flits).
    pub flits_dropped: u64,
    /// Routing attempts that reached the routing function: one per pending
    /// head per cycle, minus the ejecting, the store-and-forward heads still
    /// waiting for their tail, and the `route_sleeps`. A deterministic work
    /// counter, not a simulated quantity.
    pub route_attempts: u64,
    /// Pending heads the route phase skipped because no candidate channel
    /// had released a VC since their last failed attempt. An engine that
    /// retried every head every cycle would count
    /// `route_attempts + route_sleeps` attempts.
    pub route_sleeps: u64,
    /// Flit transfers per virtual-channel *class* (summed over channels),
    /// indexed by class. Shows the load-balancing behavior the paper
    /// discusses for nhop versus nbc.
    pub class_flits: Vec<u64>,
}

impl Metrics {
    pub(crate) fn new(num_classes: usize) -> Self {
        Metrics {
            class_flits: vec![0; num_classes],
            ..Metrics::default()
        }
    }

    /// Zeroes every counter (buffer/network state is untouched). The
    /// `class_flits` vector is zeroed in place, so a sweep's per-sample
    /// resets never reallocate.
    pub fn reset(&mut self) {
        let mut class_flits = std::mem::take(&mut self.class_flits);
        class_flits.fill(0);
        *self = Metrics {
            class_flits,
            ..Metrics::default()
        };
    }

    /// Adds the counts `current` gained since `base` to `self`, field by
    /// field: how the sampler accumulates one window across resets.
    pub(crate) fn add_delta(&mut self, current: &Metrics, base: &Metrics) {
        let delta = |cur: u64, base: u64| cur.saturating_sub(base);
        self.generated += delta(current.generated, base.generated);
        self.refused += delta(current.refused, base.refused);
        self.delivered += delta(current.delivered, base.delivered);
        self.flit_hops += delta(current.flit_hops, base.flit_hops);
        self.flits_injected += delta(current.flits_injected, base.flits_injected);
        self.flits_ejected += delta(current.flits_ejected, base.flits_ejected);
        self.cycles += delta(current.cycles, base.cycles);
        self.unroutable += delta(current.unroutable, base.unroutable);
        self.messages_aborted += delta(current.messages_aborted, base.messages_aborted);
        self.flits_dropped += delta(current.flits_dropped, base.flits_dropped);
        self.route_attempts += delta(current.route_attempts, base.route_attempts);
        self.route_sleeps += delta(current.route_sleeps, base.route_sleeps);
        for (acc, (&cur, &b)) in self
            .class_flits
            .iter_mut()
            .zip(current.class_flits.iter().zip(&base.class_flits))
        {
            *acc += delta(cur, b);
        }
    }

    /// Measured channel utilization over the counted window:
    /// `flit_hops / (channels × cycles)`.
    ///
    /// Returns 0 if no cycles have been counted.
    pub fn channel_utilization(&self, num_channels: u64) -> f64 {
        if self.cycles == 0 || num_channels == 0 {
            0.0
        } else {
            self.flit_hops as f64 / (num_channels as f64 * self.cycles as f64)
        }
    }

    /// Delivered messages per node per cycle.
    pub fn delivery_rate(&self, num_nodes: u64) -> f64 {
        if self.cycles == 0 || num_nodes == 0 {
            0.0
        } else {
            self.delivered as f64 / (num_nodes as f64 * self.cycles as f64)
        }
    }

    /// Accepted messages per node per cycle (the offered rate actually
    /// admitted past congestion control).
    pub fn acceptance_rate(&self, num_nodes: u64) -> f64 {
        if self.cycles == 0 || num_nodes == 0 {
            0.0
        } else {
            self.generated as f64 / (num_nodes as f64 * self.cycles as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_preserves_shapes() {
        let mut m = Metrics::new(4);
        m.generated = 10;
        m.class_flits[2] = 5;
        m.cycles = 100;
        m.reset();
        assert_eq!(m.generated, 0);
        assert_eq!(m.class_flits, vec![0; 4]);
        assert_eq!(m.cycles, 0);
    }

    #[test]
    fn reset_reuses_allocations() {
        let mut m = Metrics::new(4);
        let class_ptr = m.class_flits.as_ptr();
        m.class_flits[1] = 9;
        m.reset();
        assert_eq!(m.class_flits.as_ptr(), class_ptr);
    }

    #[test]
    fn utilization_math() {
        let mut m = Metrics::new(1);
        m.flit_hops = 500;
        m.cycles = 100;
        assert!((m.channel_utilization(10) - 0.5).abs() < 1e-12);
        assert_eq!(Metrics::default().channel_utilization(10), 0.0);
    }

    #[test]
    fn rates() {
        let mut m = Metrics::new(1);
        m.delivered = 100;
        m.generated = 120;
        m.cycles = 1000;
        assert!((m.delivery_rate(10) - 0.01).abs() < 1e-12);
        assert!((m.acceptance_rate(10) - 0.012).abs() < 1e-12);
    }
}
