//! Deep-telemetry instruments: SoA counters, power-of-two latency
//! histograms, a per-phase cycle profiler, and wait-for forensics.
//!
//! The engine owns one optional [`MetricsRegistry`] and feeds it from the
//! hot path through `#[inline]` increments — plain array writes, no
//! allocation, no branching beyond the single `Option` check the
//! observability contract allows. The registry holds only what the engine
//! does not count itself; at the end of a run the engine renders both into
//! a [`MetricsReport`] (`<run_id>.metrics.json`) and a node-grid
//! channel-utilization heatmap CSV ([`MetricsReport::heatmap_csv`]).
//!
//! When a watchdog fires, the engine captures a [`WaitForSnapshot`]: the
//! worm→channel wait-for graph at the stalled cycle, with
//! [cycle detection](WaitForSnapshot::detect_cycle) distinguishing a real
//! channel cycle (deadlock evidence) from mere congestion.

use crate::{JsonRecord, PhaseRecord};
use std::collections::BTreeMap;

/// Engine phase index: arrivals + injection-VC assignment.
pub const PHASE_INJECT: usize = 0;
/// Engine phase index: routing and VC allocation.
pub const PHASE_ROUTE: usize = 1;
/// Engine phase index: switch allocation.
pub const PHASE_ALLOCATE: usize = 2;
/// Engine phase index: flit transfers over physical channels.
pub const PHASE_ADVANCE: usize = 3;
/// Engine phase index: ejection at destinations.
pub const PHASE_DRAIN: usize = 4;
/// Names of the profiled engine phases, indexed by the `PHASE_*` consts.
pub const PHASE_NAMES: [&str; 5] = ["inject", "route", "allocate", "advance", "drain"];

/// A power-of-two-bucketed histogram of `u64` values.
///
/// Bucket 0 holds the value 0; bucket `b ≥ 1` holds `[2^(b-1), 2^b - 1]`.
/// Recording is a shift, an add, and two compares — allocation-free and
/// branchless enough for the ejection hot path. Percentiles come back as
/// the upper bound of the bucket containing the rank, clamped to the
/// observed maximum, so `p50/p95/p99` are conservative (never understated)
/// estimates with at most 2× relative error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pow2Histogram {
    counts: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Pow2Histogram {
    fn default() -> Self {
        Pow2Histogram {
            counts: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Pow2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Pow2Histogram::default()
    }

    /// The bucket index of `value`.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The largest value bucket `b` can hold.
    pub fn bucket_upper_bound(b: usize) -> u64 {
        match b {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << b) - 1,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` (0.0–1.0): the upper bound of the bucket
    /// holding the rank-`ceil(q·count)` value, clamped to the observed
    /// maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper_bound(b).min(self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(bucket, count)` pairs, ascending.
    pub fn sparse_buckets(&self) -> Vec<(u8, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b as u8, c))
            .collect()
    }

    /// Renders the histogram into a named, serializable record.
    pub fn summarize(&self, name: &str) -> HistogramRecord {
        HistogramRecord {
            name: name.to_owned(),
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            buckets: self.sparse_buckets(),
        }
    }
}

/// A serialized [`Pow2Histogram`]: sparse buckets plus extracted
/// percentiles, as a `{"type":"histogram"}` JSONL record.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistogramRecord {
    /// What was measured (e.g. `latency`).
    pub name: String,
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median estimate (bucket upper bound, clamped to `max`).
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Non-empty `(bucket, count)` pairs, ascending by bucket.
    pub buckets: Vec<(u8, u64)>,
}

crate::json_record!(HistogramRecord as "histogram" {
    name,
    count,
    sum,
    max,
    p50,
    p95,
    p99,
    buckets,
});

/// Allocation-free hot-path instruments for one run.
///
/// Structure-of-arrays counters indexed by physical channel and by
/// VC class, a latency histogram fed at ejection, and accumulated
/// nanoseconds per engine phase (see [`PHASE_NAMES`]). Flit and cycle
/// counts are not here: the engine counts those once, for every
/// observer. The engine holds this behind an `Option` so the disabled
/// path stays one branch per event site.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    /// Requester-cycles a channel's winners left blocked (a routed head
    /// requested the channel but was not granted this cycle).
    pub channel_blocked: Vec<u64>,
    /// VC-allocation failures charged to each candidate channel (a head
    /// had routing candidates but every admissible VC was taken).
    pub channel_alloc_fail: Vec<u64>,
    /// Blocked requester-cycles per VC class.
    pub class_blocked: Vec<u64>,
    /// VC-allocation failures per VC class.
    pub class_alloc_fail: Vec<u64>,
    /// End-to-end message latency, fed when a tail flit ejects.
    pub latency: Pow2Histogram,
    /// Accumulated wall-clock nanoseconds per engine phase, indexed by the
    /// `PHASE_*` consts.
    pub phase_nanos: [u64; 5],
}

impl MetricsRegistry {
    /// A zeroed registry for `num_channels` physical channels and
    /// `num_classes` VC classes.
    pub fn new(num_channels: usize, num_classes: usize) -> Self {
        MetricsRegistry {
            channel_blocked: vec![0; num_channels],
            channel_alloc_fail: vec![0; num_channels],
            class_blocked: vec![0; num_classes],
            class_alloc_fail: vec![0; num_classes],
            latency: Pow2Histogram::new(),
            phase_nanos: [0; 5],
        }
    }

    /// A routed head requested `channel` (VC class `class`) this cycle and
    /// was not granted.
    #[inline]
    pub fn record_blocked(&mut self, channel: usize, class: usize) {
        self.channel_blocked[channel] += 1;
        self.class_blocked[class] += 1;
    }

    /// A head considered `channel` (VC class `class`) and found every
    /// admissible VC taken.
    #[inline]
    pub fn record_alloc_failure(&mut self, channel: usize, class: usize) {
        self.channel_alloc_fail[channel] += 1;
        self.class_alloc_fail[class] += 1;
    }

    /// A message was delivered with end-to-end `latency` cycles.
    #[inline]
    pub fn record_latency(&mut self, latency: u64) {
        self.latency.record(latency);
    }
}

/// The per-run metrics summary written as `<run_id>.metrics.json`
/// (`{"type":"metrics"}`): everything the registry counted and the
/// engine's flit and cycle counts since it was installed, plus enough
/// topology shape (`dims`, `dirs`) for downstream tools to map channel
/// indices back onto the node grid without the original config.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// The run this report belongs to.
    pub run_id: String,
    /// Topology label in the `--topo` grammar (e.g. `torus:16x16`).
    pub topology: String,
    /// Node-grid radices, dimension 0 (fastest-varying) first.
    pub dims: Vec<u64>,
    /// Outgoing physical channels per node; channel `c` belongs to node
    /// `c / dirs`, direction `c % dirs`.
    pub dirs: u64,
    /// Cycles covered by the counters.
    pub cycles: u64,
    /// Mean flits per channel per cycle (NaN when no cycles ran).
    pub mean_channel_utilization: f64,
    /// The hottest channel's flits per cycle (NaN when no cycles ran).
    pub peak_channel_utilization: f64,
    /// Flit traversals per VC class.
    pub class_flits: Vec<u64>,
    /// Blocked requester-cycles per VC class.
    pub class_blocked: Vec<u64>,
    /// VC-allocation failures per VC class.
    pub class_alloc_fail: Vec<u64>,
    /// Flit traversals per physical channel.
    pub channel_flits: Vec<u64>,
    /// Blocked requester-cycles per physical channel.
    pub channel_blocked: Vec<u64>,
    /// VC-allocation failures per physical channel.
    pub channel_alloc_fail: Vec<u64>,
    /// End-to-end latency distribution.
    pub latency: HistogramRecord,
    /// Profiled engine phases (and, when the experiment layer adds them,
    /// its own warmup/measure/gap/drain spans).
    pub phases: Vec<PhaseRecord>,
}

impl MetricsReport {
    /// Reads a report back from `path`.
    ///
    /// # Errors
    ///
    /// Reports filesystem errors and malformed or incomplete JSON.
    pub fn read_from(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
        let value = crate::json::from_str(&text).map_err(|e| e.to_string())?;
        Self::from_json(&value)
    }

    /// Writes the report as single-line JSON at `path`, atomically.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut text = self.to_json();
        text.push('\n');
        crate::atomic_write(path, text)
    }

    /// Renders the per-channel flit counts into a node-grid utilization
    /// CSV (`<run_id>.heatmap.csv`).
    ///
    /// Each cell is a node's mean outgoing-channel utilization,
    /// `sum(channel_flits[node*dirs ..][..dirs]) / (dirs × cycles)`. For 2D
    /// grids the CSV is the grid itself — one row per dimension-1 coordinate
    /// (north/south axis), one column per dimension-0 coordinate, node
    /// `(x, y)` at row `y`, column `x`. Other dimensionalities fall back to a
    /// `node,utilization` long format with a header row.
    pub fn heatmap_csv(&self) -> String {
        use std::fmt::Write as _;
        let (dirs, cycles) = (self.dirs, self.cycles);
        let nodes = self.channel_flits.len() as u64 / dirs.max(1);
        let util = |node: u64| -> f64 {
            let base = (node * dirs) as usize;
            let sum: u64 = self.channel_flits[base..base + dirs as usize].iter().sum();
            sum as f64 / (dirs.max(1) * cycles.max(1)) as f64
        };
        let mut out = String::new();
        if let [w, h] = self.dims[..] {
            for y in 0..h {
                for x in 0..w {
                    if x > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{:.6}", util(y * w + x));
                }
                out.push('\n');
            }
        } else {
            out.push_str("node,utilization\n");
            for node in 0..nodes {
                let _ = writeln!(out, "{node},{:.6}", util(node));
            }
        }
        out
    }
}

// The two utilizations are NaN/inf when no cycles ran; like every float
// here they round-trip bit-exactly.
crate::json_record!(MetricsReport as "metrics" {
    run_id,
    topology,
    dims,
    dirs,
    cycles,
    mean_channel_utilization,
    peak_channel_utilization,
    class_flits,
    class_blocked,
    class_alloc_fail,
    channel_flits,
    channel_blocked,
    channel_alloc_fail,
    latency,
    phases,
});

/// Why a waiting worm cannot advance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitKind {
    /// The head is pending routing: every admissible VC on the channel is
    /// owned by the holder (among others).
    Vc,
    /// The head holds a VC but has no credits: the downstream buffer is
    /// occupied by the holder's flits.
    Credit,
}

crate::json_tags!(WaitKind {
    Vc = "vc",
    Credit = "credit"
});

/// One edge of the wait-for graph: message `msg`, stalled at `node`, waits
/// for a resource on `channel` that message `holder` occupies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitForEdge {
    /// The waiting message.
    pub msg: u64,
    /// The node its head is stalled at.
    pub node: u64,
    /// The physical channel mediating the wait.
    pub channel: u64,
    /// The message occupying the contended resource.
    pub holder: u64,
    /// Which resource is contended.
    pub kind: WaitKind,
}

crate::json_record!(WaitForEdge {
    msg,
    node,
    channel,
    holder,
    kind
});

/// The worm→channel wait-for graph at a watchdog trigger, written as one
/// `{"type":"wait_for"}` JSONL record so `Deadlocked`/`LiveLocked`
/// outcomes carry forensic evidence.
///
/// [`detect_cycle`](Self::detect_cycle) closes the loop: a cycle of
/// messages each holding what the next one waits for is a concrete channel
/// cycle — a real deadlock — while its absence means the stall is
/// congestion or starvation.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct WaitForSnapshot {
    /// The cycle the snapshot was taken at.
    pub cycle: u64,
    /// What tripped (`deadlock` or `livelock`).
    pub reason: String,
    /// Live messages in the network at the snapshot.
    pub live_messages: u64,
    /// Flits in flight at the snapshot.
    pub flits_in_flight: u64,
    /// The wait-for edges, in deterministic (input-VC) order.
    pub edges: Vec<WaitForEdge>,
    /// Whether [`detect_cycle`](Self::detect_cycle) found a cycle.
    pub cycle_found: bool,
    /// The messages along one detected cycle (empty if none).
    pub cycle_messages: Vec<u64>,
    /// The channels along that cycle, `cycle_channels[i]` being what
    /// `cycle_messages[i]` waits on (held by the next message).
    pub cycle_channels: Vec<u64>,
}

impl WaitForSnapshot {
    /// The first circular wait among `edges`, as `(message, channel)`
    /// pairs: each message waits on its channel, held by the next message
    /// (the last by the first). Messages are searched in ascending order
    /// and each one's waits in input order by the one [`find_cycle`].
    ///
    /// [`find_cycle`]: crate::find_cycle
    pub fn cycle_of(edges: &[WaitForEdge]) -> Option<Vec<(u64, u64)>> {
        let mut waits: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for e in edges {
            waits.entry(e.msg).or_default().push((e.holder, e.channel));
        }
        crate::find_cycle(waits.keys().copied(), |msg| {
            waits.get(&msg).into_iter().flatten().copied()
        })
    }

    /// Fills [`cycle_found`](Self::cycle_found) /
    /// [`cycle_messages`](Self::cycle_messages) /
    /// [`cycle_channels`](Self::cycle_channels) with the edges'
    /// [first cycle](Self::cycle_of).
    pub fn detect_cycle(&mut self) {
        let cycle = Self::cycle_of(&self.edges).unwrap_or_default();
        self.cycle_found = !cycle.is_empty();
        (self.cycle_messages, self.cycle_channels) = cycle.into_iter().unzip();
    }
}

crate::json_record!(WaitForSnapshot as "wait_for" {
    cycle,
    reason,
    live_messages,
    flits_in_flight,
    cycle_found,
    cycle_messages,
    cycle_channels,
    edges,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Pow2Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [0u64, 1, 2, 3, 4, 7, 8, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 1125);
        assert_eq!(h.max(), 1000);
        assert_eq!(Pow2Histogram::bucket_of(0), 0);
        assert_eq!(Pow2Histogram::bucket_of(1), 1);
        assert_eq!(Pow2Histogram::bucket_of(2), 2);
        assert_eq!(Pow2Histogram::bucket_of(3), 2);
        assert_eq!(Pow2Histogram::bucket_of(4), 3);
        assert_eq!(Pow2Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Pow2Histogram::bucket_upper_bound(64), u64::MAX);
        // Rank 5 of 9 lands in the [4,7] bucket.
        assert_eq!(h.quantile(0.5), 7);
        // The top quantiles clamp to the observed maximum.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn histogram_record_round_trips() {
        let mut h = Pow2Histogram::new();
        for v in [3u64, 9, 9, 200] {
            h.record(v);
        }
        let rec = h.summarize("latency");
        let parsed = crate::json::from_str(&rec.to_json()).unwrap();
        assert_eq!(HistogramRecord::from_json(&parsed).unwrap(), rec);
        // Wrong type tag is rejected.
        let v = crate::json::from_str("{\"type\":\"metrics\"}").unwrap();
        assert!(HistogramRecord::from_json(&v).is_err());
    }

    #[test]
    fn registry_counts() {
        let mut reg = MetricsRegistry::new(8, 2);
        reg.record_blocked(2, 0);
        reg.record_alloc_failure(7, 1);
        reg.record_latency(40);
        assert_eq!(reg.class_blocked, vec![1, 0]);
        assert_eq!(reg.channel_blocked[2], 1);
        assert_eq!(reg.class_alloc_fail, vec![0, 1]);
        assert_eq!(reg.channel_alloc_fail[7], 1);
        assert_eq!(reg.latency.count(), 1);
    }

    /// A report over four channels of `cycles` cycles, one flit on channel 0.
    fn report(cycles: u64) -> MetricsReport {
        let denom = cycles as f64;
        MetricsReport {
            run_id: "r".to_owned(),
            topology: "torus:2x2".to_owned(),
            dims: vec![2, 2],
            dirs: 1,
            cycles,
            mean_channel_utilization: 1.0 / (4.0 * denom),
            peak_channel_utilization: 1.0 / denom,
            class_flits: vec![1, 0],
            class_blocked: vec![0, 0],
            class_alloc_fail: vec![0, 0],
            channel_flits: vec![1, 0, 0, 0],
            channel_blocked: vec![0; 4],
            channel_alloc_fail: vec![0; 4],
            latency: Pow2Histogram::new().summarize("latency"),
            phases: vec![PhaseRecord {
                name: "route".to_owned(),
                wall_seconds: 2.0,
                cycles,
            }],
        }
    }

    #[test]
    fn metrics_report_round_trips_including_non_finite() {
        // No cycles ran: utilization divides by zero, producing inf/NaN,
        // which must still round-trip bit-exactly.
        let report = report(0);
        assert!(report.peak_channel_utilization.is_infinite());
        assert!(report.mean_channel_utilization.is_infinite());
        let parsed = crate::json::from_str(&report.to_json()).unwrap();
        let back = MetricsReport::from_json(&parsed).unwrap();
        assert_eq!(
            back.peak_channel_utilization.to_bits(),
            report.peak_channel_utilization.to_bits()
        );
        let nan = MetricsReport {
            mean_channel_utilization: f64::NAN,
            peak_channel_utilization: f64::NEG_INFINITY,
            ..report
        };
        let parsed = crate::json::from_str(&nan.to_json()).unwrap();
        let back = MetricsReport::from_json(&parsed).unwrap();
        assert!(back.mean_channel_utilization.is_nan());
        assert_eq!(back.peak_channel_utilization, f64::NEG_INFINITY);
    }

    #[test]
    fn metrics_report_file_round_trip() {
        let dir = std::env::temp_dir().join("wormsim-observe-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.metrics.json");
        let report = report(10);
        report.write_to(&path).unwrap();
        assert_eq!(MetricsReport::read_from(&path).unwrap(), report);
        let _ = std::fs::remove_file(&path);
    }

    fn edge(msg: u64, channel: u64, holder: u64) -> WaitForEdge {
        WaitForEdge {
            msg,
            node: 0,
            channel,
            holder,
            kind: WaitKind::Vc,
        }
    }

    #[test]
    fn wait_for_cycle_detection_finds_a_cycle() {
        let mut snap = WaitForSnapshot {
            cycle: 500,
            reason: "deadlock".to_owned(),
            live_messages: 3,
            flits_in_flight: 12,
            // 1 -> 2 -> 3 -> 1, plus a dangling wait 4 -> 1.
            edges: vec![
                edge(4, 9, 1),
                edge(1, 10, 2),
                edge(2, 11, 3),
                edge(3, 12, 1),
            ],
            ..WaitForSnapshot::default()
        };
        snap.detect_cycle();
        assert!(snap.cycle_found);
        assert_eq!(snap.cycle_messages.len(), 3);
        assert_eq!(snap.cycle_channels.len(), 3);
        // Every cycle member waits on its paired channel for the next
        // member, and the set is exactly {1, 2, 3}.
        let mut members = snap.cycle_messages.clone();
        members.sort_unstable();
        assert_eq!(members, vec![1, 2, 3]);
        for (m, ch) in snap.cycle_messages.iter().zip(&snap.cycle_channels) {
            assert!(snap.edges.iter().any(|e| e.msg == *m
                && e.channel == *ch
                && snap.cycle_messages.contains(&e.holder)));
        }
    }

    #[test]
    fn wait_for_cycle_detection_reports_absence() {
        // A chain with no back edge: congestion, not deadlock.
        let mut snap = WaitForSnapshot {
            edges: vec![edge(1, 10, 2), edge(2, 11, 3)],
            ..WaitForSnapshot::default()
        };
        snap.detect_cycle();
        assert!(!snap.cycle_found);
        assert!(snap.cycle_messages.is_empty());
        // Self-wait (a worm behind its own flits) is a 1-cycle.
        let mut snap = WaitForSnapshot {
            edges: vec![edge(5, 3, 5)],
            ..WaitForSnapshot::default()
        };
        snap.detect_cycle();
        assert!(snap.cycle_found);
        assert_eq!(snap.cycle_messages, vec![5]);
        assert_eq!(snap.cycle_channels, vec![3]);
    }

    #[test]
    fn wait_for_snapshot_round_trips() {
        let mut snap = WaitForSnapshot {
            cycle: 42,
            reason: "livelock".to_owned(),
            live_messages: 2,
            flits_in_flight: 7,
            edges: vec![
                WaitForEdge {
                    msg: 1,
                    node: 5,
                    channel: 20,
                    holder: 2,
                    kind: WaitKind::Credit,
                },
                edge(2, 21, 1),
            ],
            ..WaitForSnapshot::default()
        };
        snap.detect_cycle();
        assert!(snap.cycle_found);
        let parsed = crate::json::from_str(&snap.to_json()).unwrap();
        assert_eq!(WaitForSnapshot::from_json(&parsed).unwrap(), snap);
        let v = crate::json::from_str("{\"type\":\"trace\"}").unwrap();
        assert!(WaitForSnapshot::from_json(&v).is_err());
    }

    #[test]
    fn heatmap_renders_2d_grid_and_long_fallback() {
        let heatmap = |dims: &[u64], dirs, channel_flits: &[u64], cycles| {
            MetricsReport {
                dims: dims.to_vec(),
                dirs,
                channel_flits: channel_flits.to_vec(),
                cycles,
                ..MetricsReport::default()
            }
            .heatmap_csv()
        };
        // 3x2 grid, 1 dir per node: node = x + y*3.
        let csv = heatmap(&[3, 2], 1, &[0, 10, 20, 30, 40, 50], 10);
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], "0.000000,1.000000,2.000000");
        assert_eq!(rows[1], "3.000000,4.000000,5.000000");
        // 1D falls back to the long format.
        let csv = heatmap(&[4], 2, &[2, 0, 4, 0, 0, 0, 8, 0], 2);
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows[0], "node,utilization");
        assert_eq!(rows[1], "0,0.500000");
        assert_eq!(rows[3], "2,0.000000");
    }
}
