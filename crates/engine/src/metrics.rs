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
    /// Flit transfers per physical channel (only when
    /// `track_channel_load` is set), indexed by channel id.
    pub channel_flits: Option<Vec<u64>>,
}

impl Metrics {
    pub(crate) fn new(num_classes: usize, track_channels: bool, num_channels: usize) -> Self {
        Metrics {
            class_flits: vec![0; num_classes],
            channel_flits: track_channels.then(|| vec![0; num_channels]),
            ..Metrics::default()
        }
    }

    /// Zeroes every counter (buffer/network state is untouched). The
    /// `class_flits`/`channel_flits` vectors are zeroed in place, so a
    /// sweep's per-sample resets never reallocate.
    pub fn reset(&mut self) {
        self.generated = 0;
        self.refused = 0;
        self.delivered = 0;
        self.flit_hops = 0;
        self.flits_injected = 0;
        self.flits_ejected = 0;
        self.cycles = 0;
        self.unroutable = 0;
        self.messages_aborted = 0;
        self.flits_dropped = 0;
        self.route_attempts = 0;
        self.route_sleeps = 0;
        self.class_flits.fill(0);
        if let Some(channels) = self.channel_flits.as_mut() {
            channels.fill(0);
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
        let mut m = Metrics::new(4, true, 64);
        m.generated = 10;
        m.class_flits[2] = 5;
        m.channel_flits.as_mut().unwrap()[3] = 7;
        m.cycles = 100;
        m.reset();
        assert_eq!(m.generated, 0);
        assert_eq!(m.class_flits, vec![0; 4]);
        assert_eq!(m.channel_flits.as_ref().unwrap().len(), 64);
        assert_eq!(m.cycles, 0);
    }

    #[test]
    fn reset_reuses_allocations() {
        let mut m = Metrics::new(4, true, 64);
        let class_ptr = m.class_flits.as_ptr();
        let channel_ptr = m.channel_flits.as_ref().unwrap().as_ptr();
        m.class_flits[1] = 9;
        m.channel_flits.as_mut().unwrap()[5] = 3;
        m.reset();
        assert_eq!(m.class_flits.as_ptr(), class_ptr);
        assert_eq!(m.channel_flits.as_ref().unwrap().as_ptr(), channel_ptr);
    }

    #[test]
    fn utilization_math() {
        let mut m = Metrics::new(1, false, 0);
        m.flit_hops = 500;
        m.cycles = 100;
        assert!((m.channel_utilization(10) - 0.5).abs() < 1e-12);
        assert_eq!(Metrics::default().channel_utilization(10), 0.0);
    }

    #[test]
    fn rates() {
        let mut m = Metrics::new(1, false, 0);
        m.delivered = 100;
        m.generated = 120;
        m.cycles = 1000;
        assert!((m.delivery_rate(10) - 0.01).abs() < 1e-12);
        assert!((m.acceptance_rate(10) - 0.012).abs() < 1e-12);
    }
}
