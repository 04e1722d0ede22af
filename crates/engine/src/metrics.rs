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

/// Aggregate counters over a window of cycles.
///
/// The network's own counters are cumulative: nothing zeroes them.
/// [`Network::metrics`](crate::Network::metrics) returns the counts since
/// the last [`reset_metrics`](crate::Network::reset_metrics), and every
/// other window (a sample, a registry's report) is likewise the
/// difference of two snapshots, [`since`](Self::since).
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
    /// Sum of the end-to-end latencies of the delivered messages.
    pub latency_sum: u64,
    /// Flit transfers across network physical channels.
    pub flit_hops: u64,
    /// Flits that left source queues into the network.
    pub flits_injected: u64,
    /// Flits delivered at destinations.
    pub flits_ejected: u64,
    /// Cycles covered by these counters.
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

    /// The counts gained since `base`, an earlier snapshot of the same
    /// cumulative counters.
    pub fn since(&self, base: &Metrics) -> Metrics {
        // Destructured without `..`, so a new counter cannot be left out.
        let Metrics {
            generated,
            refused,
            delivered,
            latency_sum,
            flit_hops,
            flits_injected,
            flits_ejected,
            cycles,
            unroutable,
            messages_aborted,
            flits_dropped,
            route_attempts,
            route_sleeps,
            class_flits,
        } = self;
        Metrics {
            generated: generated - base.generated,
            refused: refused - base.refused,
            delivered: delivered - base.delivered,
            latency_sum: latency_sum - base.latency_sum,
            flit_hops: flit_hops - base.flit_hops,
            flits_injected: flits_injected - base.flits_injected,
            flits_ejected: flits_ejected - base.flits_ejected,
            cycles: cycles - base.cycles,
            unroutable: unroutable - base.unroutable,
            messages_aborted: messages_aborted - base.messages_aborted,
            flits_dropped: flits_dropped - base.flits_dropped,
            route_attempts: route_attempts - base.route_attempts,
            route_sleeps: route_sleeps - base.route_sleeps,
            class_flits: difference(class_flits, &base.class_flits),
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

/// Element-wise `now - base` of two snapshots of one cumulative array.
pub(crate) fn difference(now: &[u64], base: &[u64]) -> Vec<u64> {
    now.iter().zip(base).map(|(now, base)| now - base).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_every_counter() {
        let mut base = Metrics::new(2);
        base.generated = 10;
        base.latency_sum = 40;
        base.cycles = 100;
        base.class_flits = vec![3, 4];
        let mut now = base.clone();
        now.generated = 15;
        now.latency_sum = 100;
        now.cycles = 250;
        now.class_flits = vec![5, 4];
        let window = now.since(&base);
        assert_eq!(window.generated, 5);
        assert_eq!(window.latency_sum, 60);
        assert_eq!(window.cycles, 150);
        assert_eq!(window.class_flits, vec![2, 0]);
        assert_eq!(now.since(&now).generated, 0);
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
