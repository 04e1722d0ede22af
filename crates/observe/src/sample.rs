//! Typed time-series snapshots of network state.

/// One sampling-stride snapshot of the network: instantaneous occupancy
/// plus the counter deltas accumulated over the window that ended at
/// [`cycle`](Self::cycle).
///
/// A stream of samples reconstructs the run's dynamics: `class_flits` per
/// window is the VC-class balance plot (nhop vs nbc, paper Section 2.2),
/// `channel_flits` is a channel-load heatmap frame, and
/// [`mean_latency`](Self::mean_latency) against `cycle` is the
/// latency-vs-time convergence curve.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Sample {
    /// The cycle at which the snapshot was taken (end of the window).
    pub cycle: u64,
    /// Cycles covered by the windowed counters below.
    pub window_cycles: u64,
    /// Messages accepted into source queues during the window.
    pub generated: u64,
    /// Messages refused by congestion control during the window.
    pub refused: u64,
    /// Messages fully delivered during the window.
    pub delivered: u64,
    /// Sum of end-to-end latencies of the window's delivered messages.
    pub latency_sum: u64,
    /// Flit transfers across network physical channels during the window.
    pub flit_hops: u64,
    /// Flits that left source queues during the window.
    pub flits_injected: u64,
    /// Flits delivered at destinations during the window.
    pub flits_ejected: u64,
    /// Flits inside the network (or source-queued) at the snapshot.
    pub flits_in_flight: u64,
    /// Messages alive (queued, streaming, in transit) at the snapshot.
    pub live_messages: u64,
    /// Messages waiting in source queues at the snapshot.
    pub queued_messages: u64,
    /// The deepest single source queue at the snapshot.
    pub max_queue_depth: u64,
    /// Flits buffered in input VCs at the snapshot, per VC class.
    pub class_occupancy: Vec<u64>,
    /// Flit transfers during the window, per VC class.
    pub class_flits: Vec<u64>,
    /// Flit transfers during the window, per output channel (`node × 2n +
    /// direction`, mesh boundary slots included as zeros).
    pub channel_flits: Vec<u64>,
}

impl Sample {
    /// Mean latency of the messages delivered in this window, if any.
    pub fn mean_latency(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.latency_sum as f64 / self.delivered as f64)
    }

    /// Delivered messages per cycle over the window.
    pub fn delivery_rate(&self) -> f64 {
        if self.window_cycles == 0 {
            0.0
        } else {
            self.delivered as f64 / self.window_cycles as f64
        }
    }
}

crate::json_record!(Sample as "sample" {
    cycle,
    window_cycles,
    generated,
    refused,
    delivered,
    latency_sum,
    flit_hops,
    flits_injected,
    flits_ejected,
    flits_in_flight,
    live_messages,
    queued_messages,
    max_queue_depth,
    class_occupancy,
    class_flits,
    channel_flits,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonRecord;

    #[test]
    fn accessors() {
        let mut s = Sample {
            delivered: 4,
            latency_sum: 100,
            window_cycles: 50,
            ..Sample::default()
        };
        assert_eq!(s.mean_latency(), Some(25.0));
        assert!((s.delivery_rate() - 0.08).abs() < 1e-12);
        s.delivered = 0;
        assert_eq!(s.mean_latency(), None);
        s.window_cycles = 0;
        assert_eq!(s.delivery_rate(), 0.0);
    }

    #[test]
    fn json_round_trip() {
        let sample = Sample {
            cycle: 5_000,
            window_cycles: 1_000,
            generated: 40,
            refused: 3,
            delivered: 37,
            latency_sum: 1_850,
            flit_hops: 2_600,
            flits_injected: 640,
            flits_ejected: 592,
            flits_in_flight: 96,
            live_messages: 7,
            queued_messages: 2,
            max_queue_depth: 1,
            class_occupancy: vec![30, 66],
            class_flits: vec![1_300, 1_300],
            channel_flits: vec![10, 0, 25, 7],
        };
        let parsed = crate::json::from_str(&sample.to_json()).unwrap();
        assert_eq!(Sample::from_json(&parsed).unwrap(), sample);
    }

    #[test]
    fn from_json_rejects_wrong_type_and_missing_fields() {
        let not_sample = crate::json::from_str("{\"type\":\"trace\"}").unwrap();
        assert!(Sample::from_json(&not_sample).is_err());
        let truncated = crate::json::from_str("{\"type\":\"sample\",\"cycle\":1}").unwrap();
        let err = Sample::from_json(&truncated).unwrap_err();
        assert!(err.contains("window_cycles"), "{err}");
    }
}
