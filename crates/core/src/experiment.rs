//! The [`Experiment`] runner: one configuration, one offered load, one
//! converged measurement.

use crate::{MeasurementSchedule, RunOutcome, RunResult};
use std::fmt;
use wormsim_engine::{
    CancelToken, EjectionModel, EngineError, Network, NetworkBuilder, SelectionPolicy, SimConfig,
    Switching,
};
use wormsim_faults::FaultPlan;
use wormsim_observe::{
    atomic_write, fnv1a_hex, git_describe, JsonRecord, JsonlSink, ObserveConfig, PhaseTimings,
    RunManifest, Stopwatch,
};
use wormsim_routing::AlgorithmKind;
use wormsim_stats::{throughput, ConvergenceController, Histogram, SampleAccumulator};
use wormsim_topology::Topology;
use wormsim_traffic::{ArrivalProcess, MessageLength, TrafficConfig, TrafficPattern};

/// Errors from configuring or running an experiment.
#[derive(Clone, Debug, PartialEq)]
pub enum ExperimentError {
    /// The simulator rejected the configuration: a degenerate network
    /// parameter ([`SimConfig::validate`]), a fault plan that does not fit
    /// the topology ([`EngineError::Faults`]), or a routing algorithm or
    /// traffic pattern that rejects the topology.
    Engine(EngineError),
    /// The offered load must be in `(0, 1]`: it is a fraction of channel
    /// capacity, and beyond 1 the network is overloaded by construction.
    ///
    /// ```
    /// use wormsim::{AlgorithmKind, Experiment, ExperimentError};
    /// use wormsim::topology::Topology;
    ///
    /// let error = Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
    ///     .offered_load(1.2)
    ///     .validate()
    ///     .unwrap_err();
    /// assert_eq!(error, ExperimentError::InvalidLoad { value: 1.2 });
    /// ```
    InvalidLoad {
        /// The rejected value.
        value: f64,
    },
    /// The computed injection rate left `(0, 1]` — the topology/message
    /// combination cannot offer this load.
    RateOutOfRange {
        /// The offending per-node per-cycle rate.
        rate: f64,
    },
    /// Observability output could not be created or written (the sample or
    /// trace stream, or the run manifest). Simulation errors never take
    /// this form — only the I/O around them.
    Io {
        /// The underlying I/O error, rendered.
        message: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Engine(e) => write!(f, "engine: {e}"),
            ExperimentError::InvalidLoad { value } => {
                write!(f, "offered load {value} out of range (0, 1]")
            }
            ExperimentError::RateOutOfRange { rate } => {
                write!(f, "computed injection rate {rate} out of range")
            }
            ExperimentError::Io { message } => {
                write!(f, "observability I/O: {message}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ExperimentError {
    fn from(e: EngineError) -> Self {
        ExperimentError::Engine(e)
    }
}

/// A self-contained simulation experiment: network configuration, offered
/// load, and measurement schedule.
///
/// The split follows the paper's: the network and its parameters (S5)
/// are one engine [`SimConfig`], with its defaults and its validator, and
/// the experiment (S7) owns only the offered load, the measurement
/// schedule and the run budgets, plus local state that never changes the
/// simulation (observability, cancellation, retry provenance).
///
/// Offered load is specified as *normalized channel utilization* (the
/// paper's Equation 4); [`run`](Self::run) converts it to a per-node
/// injection rate using the traffic pattern's exact mean distance, then
/// drives the simulator through warm-up and re-seeded sampling periods
/// until the paper's two convergence criteria hold.
///
/// # Example
///
/// ```
/// use wormsim::{Experiment, AlgorithmKind, TrafficConfig};
/// use wormsim::topology::Topology;
///
/// let result = Experiment::new(Topology::torus(&[8, 8]), AlgorithmKind::Ecube)
///     .traffic(TrafficConfig::Uniform)
///     .offered_load(0.2)
///     .quick()
///     .seed(7)
///     .run()?;
/// assert!(result.latency.mean() >= 19.0); // >= zero-load latency
/// # Ok::<(), wormsim::ExperimentError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Experiment {
    /// The network under test; `arrival` stays `Off` until
    /// [`build_network`](Self::build_network) derives it from the load.
    pub(crate) sim: SimConfig,
    pub(crate) offered_load: f64,
    pub(crate) schedule: MeasurementSchedule,
    pub(crate) cycle_budget: Option<u64>,
    pub(crate) wall_budget_secs: Option<f64>,
    pub(crate) observe: Option<ObserveConfig>,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) attempt: u32,
    pub(crate) resumed_from: Option<String>,
}

impl Experiment {
    /// Starts an experiment on `topology` with `algorithm`, using the
    /// engine's defaults for the network (see [`NetworkBuilder`]: the
    /// paper's uniform traffic, 16-flit messages, wormhole switching,
    /// congestion limit 1) and offered load 0.2.
    pub fn new(topology: Topology, algorithm: AlgorithmKind) -> Self {
        Experiment {
            sim: NetworkBuilder::new(topology, algorithm).into_config(),
            offered_load: 0.2,
            schedule: MeasurementSchedule::default(),
            cycle_budget: None,
            wall_budget_secs: None,
            observe: None,
            cancel: None,
            attempt: 1,
            resumed_from: None,
        }
    }

    /// Sets the traffic pattern.
    pub fn traffic(mut self, traffic: TrafficConfig) -> Self {
        self.sim.traffic = traffic;
        self
    }

    /// Sets the message length distribution.
    pub fn message_length(mut self, length: MessageLength) -> Self {
        self.sim.length = length;
        self
    }

    /// Sets the switching discipline.
    pub fn switching(mut self, switching: Switching) -> Self {
        self.sim.switching = switching;
        self
    }

    /// Sets the VC selection policy.
    pub fn selection(mut self, selection: SelectionPolicy) -> Self {
        self.sim.selection = selection;
        self
    }

    /// Sets the ejection model.
    pub fn ejection(mut self, ejection: EjectionModel) -> Self {
        self.sim.ejection = ejection;
        self
    }

    /// Sets the number of physical VCs per routing class.
    pub fn vc_replicas(mut self, replicas: u32) -> Self {
        self.sim.vc_replicas = replicas;
        self
    }

    /// Sets (or disables) the congestion-control limit.
    pub fn congestion_limit(mut self, limit: Option<u32>) -> Self {
        self.sim.congestion_limit = limit;
        self
    }

    /// Sets the injection bandwidth in flits per cycle.
    pub fn injection_bandwidth(mut self, flits: u32) -> Self {
        self.sim.injection_bandwidth = flits;
        self
    }

    /// Sets the offered load as a fraction of channel capacity.
    pub fn offered_load(mut self, load: f64) -> Self {
        self.offered_load = load;
        self
    }

    /// Sets the measurement schedule.
    pub fn schedule(mut self, schedule: MeasurementSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Shorthand for the quick test schedule.
    pub fn quick(self) -> Self {
        let quick = MeasurementSchedule::quick();
        self.schedule(quick)
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Attaches observability to the run: a time-series sample stream and a
    /// run manifest in `config.out_dir`, and/or a full JSONL trace in
    /// `config.trace_dir` (see [`ObserveConfig`]). Per-channel flit-load
    /// tracking is switched on so samples carry a channel-load map. With no
    /// config (the default) the run pays no observability cost beyond one
    /// branch per event site.
    pub fn observe(mut self, config: ObserveConfig) -> Self {
        self.observe = if config.enabled() { Some(config) } else { None };
        self
    }

    /// Injects faults into the run: the plan's link/node failures (static
    /// or transient) apply at their scheduled cycles. When a plan is set
    /// and no explicit [`hop_budget`](Self::hop_budget) is given, a
    /// default hop budget of `4 * diameter + 64` guards against silent
    /// livelock from misrouting.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.sim.faults = Some(plan);
        self
    }

    /// Caps the total simulated cycles; a run cut short by the cap ends
    /// with [`RunOutcome::BudgetExceeded`]. `None` (the default) leaves
    /// the schedule's own sample cap as the only bound.
    pub fn cycle_budget(mut self, cycles: Option<u64>) -> Self {
        self.cycle_budget = cycles;
        self
    }

    /// Caps the run's wall-clock time in seconds, checked between
    /// sampling periods; exceeding it ends the run with
    /// [`RunOutcome::BudgetExceeded`].
    pub fn wall_budget_secs(mut self, seconds: Option<f64>) -> Self {
        self.wall_budget_secs = seconds;
        self
    }

    /// Sets the per-message hop budget for the livelock guard (see
    /// [`RunOutcome::LiveLocked`]). Overrides the fault-mode default.
    pub fn hop_budget(mut self, hops: Option<u32>) -> Self {
        self.sim.hop_budget = hops;
        self
    }

    /// Sets the per-message age budget in cycles for the livelock guard.
    pub fn age_budget(mut self, cycles: Option<u64>) -> Self {
        self.sim.age_budget = cycles;
        self
    }

    /// Overrides the deadlock watchdog's no-progress window.
    pub fn watchdog_cycles(mut self, cycles: u64) -> Self {
        self.sim.watchdog_cycles = Some(cycles);
        self
    }

    /// Attaches a cooperative cancellation token. A sweep orchestrator
    /// trips it (typically from a SIGINT handler) to make in-flight runs
    /// stop at the next sampling-period boundary; a run cut short this way
    /// ends with [`RunOutcome::Interrupted`] instead of blocking shutdown
    /// for a full measurement. Checking the token never perturbs the
    /// simulation, so an uncancelled run is bit-identical with or without
    /// one attached.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Records which retry attempt this run is (1-based; defaults to 1).
    /// Provenance only — it changes the run manifest, never the
    /// simulation, which retries with the identical seed.
    pub fn attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt.max(1);
        self
    }

    /// Records the journal path this run was resumed from, if any.
    /// Provenance only, surfaced in the run manifest.
    pub fn resumed_from(mut self, journal: Option<String>) -> Self {
        self.resumed_from = journal;
        self
    }

    /// A stable hex digest of everything that determines this experiment's
    /// *simulation* — topology, algorithm, traffic, message lengths,
    /// switching, selection, ejection, VC replicas, congestion limit,
    /// injection bandwidth, offered load, measurement schedule, seed, fault
    /// plan, and budgets. Observability settings, cancellation tokens, and
    /// retry provenance are deliberately excluded: they never change the
    /// measured numbers.
    ///
    /// The run journal keys completed points by this hash, so a resumed
    /// sweep skips exactly the points whose results would reproduce
    /// bit-identically and re-runs anything whose configuration changed.
    pub fn point_hash(&self) -> String {
        // No `..`: a new engine knob fails to compile here until the hash
        // (and the wire codec) decide how to carry it.
        let SimConfig {
            topology,
            algorithm,
            switching,
            vc_replicas,
            traffic,
            arrival: _, // derived from `offered_load`
            length,
            congestion_limit,
            selection,
            ejection,
            injection_bandwidth,
            seed,
            watchdog_cycles,
            faults,
            hop_budget,
            age_budget,
        } = &self.sim;
        let canonical = format!(
            "topology={topology:?}|algorithm={algorithm:?}|traffic={traffic:?}|length={length:?}\
             |switching={switching:?}|selection={selection:?}|ejection={ejection:?}\
             |vc_replicas={vc_replicas}|congestion_limit={congestion_limit:?}\
             |injection_bandwidth={injection_bandwidth}|offered_load={}|schedule={:?}|seed={seed}\
             |faults={faults:?}|cycle_budget={:?}|wall_budget_secs={:?}|hop_budget={hop_budget:?}\
             |age_budget={age_budget:?}|watchdog_cycles={watchdog_cycles:?}",
            self.offered_load, self.schedule, self.cycle_budget, self.wall_budget_secs,
        );
        fnv1a_hex(&canonical)
    }

    /// The network configuration under test. Its `arrival` is `Off`: the
    /// offered load becomes the arrival process only when the network is
    /// built.
    pub fn sim(&self) -> &SimConfig {
        &self.sim
    }

    /// The configured offered load.
    pub fn offered_load_value(&self) -> f64 {
        self.offered_load
    }

    /// The configured cycle budget, if any. Retry policies read this to
    /// raise the budget on a final attempt after a `budget_artifact`
    /// stall triage.
    pub fn cycle_budget_value(&self) -> Option<u64> {
        self.cycle_budget
    }

    /// Checks the configuration for nonsensical combinations without
    /// building or running the simulator: the offered load here, and the
    /// network through [`SimConfig::validate`]. [`run`](Self::run) calls
    /// this first, so misconfiguration fails with a named error before any
    /// cycle is simulated; call it directly to vet configurations up
    /// front (e.g. when accepting CLI input).
    ///
    /// # Errors
    ///
    /// * [`ExperimentError::InvalidLoad`] — `offered_load` outside `(0, 1]`
    /// * [`ExperimentError::Engine`] — whatever [`SimConfig::validate`]
    ///   rejects: a zero VC replica count, congestion limit, message
    ///   length, buffer depth or injection bandwidth, or an ill-formed
    ///   fault plan
    pub fn validate(&self) -> Result<(), ExperimentError> {
        if !self.offered_load.is_finite() || self.offered_load <= 0.0 || self.offered_load > 1.0 {
            return Err(ExperimentError::InvalidLoad {
                value: self.offered_load,
            });
        }
        Ok(self.sim.validate()?)
    }

    /// The per-node injection rate this experiment will use (Equation 4
    /// inverted, with the pattern's exact mean distance).
    ///
    /// # Errors
    ///
    /// Returns the same validation errors as [`run`](Self::run).
    pub fn injection_rate(&self) -> Result<f64, ExperimentError> {
        self.rate_and_pattern().map(|(rate, _)| rate)
    }

    /// [`injection_rate`](Self::injection_rate) and the traffic pattern
    /// it was computed from, so a network can be built from that pattern
    /// instead of a second copy.
    fn rate_and_pattern(&self) -> Result<(f64, Box<dyn TrafficPattern>), ExperimentError> {
        self.validate()?;
        let SimConfig {
            topology,
            traffic,
            length,
            ..
        } = &self.sim;
        let pattern = traffic.build(topology).map_err(EngineError::from)?;
        let rate = throughput::rate_for_utilization(
            self.offered_load,
            length.mean(),
            pattern.mean_distance(topology),
            topology.num_dims(),
        );
        if !(0.0..=1.0).contains(&rate) || rate == 0.0 {
            return Err(ExperimentError::RateOutOfRange { rate });
        }
        Ok((rate, pattern))
    }

    /// Builds the network this experiment simulates, at cycle 0: the
    /// configuration is validated, the offered load becomes the arrival
    /// rate of [`injection_rate`](Self::injection_rate), and a run under a
    /// fault plan gets its default hop budget. [`run`](Self::run) drives
    /// exactly this network; callers that want raw engine counters (a
    /// fixed number of cycles, no convergence schedule) step it themselves.
    ///
    /// # Errors
    ///
    /// Returns the same validation errors as [`run`](Self::run), and an
    /// [`ExperimentError::Engine`] if the routing algorithm or traffic
    /// pattern rejects the topology.
    pub fn build_network(&self) -> Result<Network, ExperimentError> {
        let (rate, pattern) = self.rate_and_pattern()?;
        let mut sim = self.sim.clone();
        sim.arrival = ArrivalProcess::geometric(rate).map_err(EngineError::from)?;
        // Under a fault plan, misrouting must not livelock silently: give
        // the guard a generous default hop budget unless the caller set one.
        if sim.faults.is_some() && sim.hop_budget.is_none() {
            sim.hop_budget = Some(4 * sim.topology.diameter() + 64);
        }
        let algo = sim
            .algorithm
            .build(&sim.topology)
            .map_err(EngineError::from)?;
        let mut net = Network::with_parts(sim, algo, pattern)?;
        if let Some(token) = &self.cancel {
            net.set_cancel_token(token.clone());
        }
        Ok(net)
    }

    /// Runs the experiment to convergence (or its sample cap).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configurations. A *deadlock* during
    /// simulation is not an `Err`: it is reported in
    /// [`RunResult::deadlock`] so sweeps can record partial data.
    pub fn run(&self) -> Result<RunResult, ExperimentError> {
        let total_watch = Stopwatch::start();
        let topology = &self.sim.topology;
        let mut timings = PhaseTimings::new();
        let mut net = self.build_network()?;
        let rate = net.config().arrival.rate();
        let traffic = net.traffic_pattern().name();
        let weights = net.traffic_pattern().hop_class_weights(topology);
        let io_err = |e: std::io::Error| ExperimentError::Io {
            message: e.to_string(),
        };

        // A plan that partitions every source from every destination has
        // nothing to measure: record the outcome instead of simulating a
        // network where no message can ever be generated.
        if net.routable_pairs() == 0 {
            return Ok(RunResult {
                injection_rate: rate,
                wall_seconds: total_watch.elapsed_secs(),
                ..RunResult::unmeasured(
                    self.sim.algorithm.name(),
                    traffic,
                    self.offered_load,
                    RunOutcome::Unroutable,
                )
            });
        }

        // Attach the sample and trace streams before the first cycle runs.
        let run_id = self.observe.as_ref().map(|observe| {
            observe.run_id(&[
                self.sim.algorithm.name(),
                &traffic,
                &format!("l{:.2}", self.offered_load),
                &format!("s{}", self.sim.seed),
            ])
        });
        if let (Some(observe), Some(run_id)) = (self.observe.as_ref(), run_id.as_deref()) {
            if let Some(dir) = observe.out_dir.as_ref() {
                std::fs::create_dir_all(dir).map_err(io_err)?;
                let sink = JsonlSink::create(dir.join(format!("{run_id}.samples.jsonl")))
                    .map_err(io_err)?;
                net.observer().sample(observe.stride(), Box::new(sink));
            }
            if let Some(dir) = observe.trace_dir.as_ref() {
                std::fs::create_dir_all(dir).map_err(io_err)?;
                let sink =
                    JsonlSink::create(dir.join(format!("{run_id}.trace.jsonl"))).map_err(io_err)?;
                net.observer().trace_into(Box::new(sink));
            }
            if observe.metrics && observe.out_dir.is_some() {
                net.observer().metrics_on();
            }
        }

        let mut controller = ConvergenceController::new(self.schedule.policy, weights.clone());

        // Warm up to steady state; discard everything measured so far.
        let watch = Stopwatch::start();
        net.run(self.schedule.warmup_cycles);
        timings.record("warmup", &watch, self.schedule.warmup_cycles);
        net.drain_delivered();
        // The network's counters are cumulative: each sample is the
        // difference from the snapshot taken when its window opened.
        let mut window = net.metrics();

        let channels = net.num_network_channels();
        let nodes = topology.num_nodes() as u64;
        let mut util_sum = 0.0;
        let mut delivery_sum = 0.0;
        let mut accept_sum = 0.0;
        let mut refused = 0u64;
        let mut offered_count = 0u64;
        let mut messages_measured = 0u64;

        let mut histogram = Histogram::new();
        let mut phase = 0u64;
        let mut budget_exceeded;
        let mut interrupted;
        loop {
            let watch = Stopwatch::start();
            net.run(self.schedule.sample_cycles);
            timings.record("measure", &watch, self.schedule.sample_cycles);
            let mut acc = SampleAccumulator::new(weights.len());
            for msg in net.drain_delivered() {
                acc.record(msg.hop_class as usize, msg.latency as f64);
                histogram.record(msg.latency);
            }
            messages_measured += acc.count();
            let m = net.metrics().since(&window);
            util_sum += m.channel_utilization(channels);
            delivery_sum += m.delivery_rate(nodes);
            accept_sum += m.acceptance_rate(nodes);
            refused += m.refused;
            offered_count += m.generated + m.refused;
            controller.push_sample(acc.summarize());

            budget_exceeded = self.cycle_budget.is_some_and(|b| net.cycle() >= b)
                || self
                    .wall_budget_secs
                    .is_some_and(|b| total_watch.elapsed_secs() >= b);
            interrupted = net.is_cancelled();
            if net.deadlock_report().is_some()
                || net.livelock_report().is_some()
                || interrupted
                || budget_exceeded
                || controller.status().is_done()
            {
                break;
            }

            // Inter-sample gap: fresh RNG streams, no statistics gathered.
            phase += 1;
            net.reseed_streams(phase);
            let watch = Stopwatch::start();
            net.run(self.schedule.gap_cycles);
            timings.record("gap", &watch, self.schedule.gap_cycles);
            net.drain_delivered();
            window = net.metrics();
        }

        // Flush the tail of the time series before reading the clocks.
        net.sample_now();
        let deadlock = net.deadlock_report();
        let livelock = net.livelock_report();
        let outcome = if deadlock.is_some() {
            RunOutcome::Deadlocked
        } else if livelock.is_some() {
            RunOutcome::LiveLocked
        } else if interrupted {
            RunOutcome::Interrupted
        } else if budget_exceeded {
            RunOutcome::BudgetExceeded
        } else if controller.status().is_converged() {
            RunOutcome::Completed
        } else {
            RunOutcome::Saturated
        };
        let cycles_simulated = net.cycle();
        let wall_seconds = total_watch.elapsed_secs();
        let cycles_per_sec = if wall_seconds > 0.0 {
            cycles_simulated as f64 / wall_seconds
        } else {
            0.0
        };

        // A stalled run is triaged unconditionally (not just when observed):
        // the wait-for snapshot refines the watchdog's budget-based verdict
        // into confirmed-unsafe (a validated circular wait) vs
        // budget-artifact, and the verdict travels with the result through
        // journals, CSVs, and manifests.
        let wait_snapshot = matches!(outcome, RunOutcome::Deadlocked | RunOutcome::LiveLocked)
            .then(|| net.wait_for_snapshot(outcome.tag()));
        let triage = wait_snapshot.as_ref().map(wormsim_verify::triage);

        let samples = controller.num_samples();
        let latency = controller
            .estimate()
            .unwrap_or(wormsim_stats::ConfidenceInterval::new(0.0, f64::INFINITY));
        let class_latencies: Vec<crate::ClassLatency> = controller
            .pooled_strata()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.count() > 0)
            .map(|(hops, s)| crate::ClassLatency {
                hops: hops as u16,
                count: s.count(),
                mean: s.mean(),
            })
            .collect();
        let mut result = RunResult {
            algorithm: self.sim.algorithm.name().to_owned(),
            traffic,
            offered_load: self.offered_load,
            injection_rate: rate,
            latency,
            latency_percentiles: [
                histogram.percentile(0.50),
                histogram.percentile(0.95),
                histogram.percentile(0.99),
            ],
            latency_max: histogram.max(),
            class_latencies,
            achieved_utilization: util_sum / samples as f64,
            delivery_rate: delivery_sum / samples as f64,
            acceptance_rate: accept_sum / samples as f64,
            refused_fraction: if offered_count == 0 {
                0.0
            } else {
                refused as f64 / offered_count as f64
            },
            messages_measured,
            convergence: controller.status(),
            samples,
            cycles_simulated,
            wall_seconds,
            cycles_per_sec,
            outcome: outcome.clone(),
            dropped_events: 0,
            deadlock,
            livelock,
            triage,
        };

        // Observed runs get a bounded drain phase (so the sample stream
        // covers in-flight messages emptying out), a final partial sample,
        // and a manifest next to the sample stream. The statistics above
        // are already captured; nothing below alters the result.
        if self.observe.is_some() {
            if outcome.has_statistics() {
                let watch = Stopwatch::start();
                let before = net.cycle();
                net.stop_arrivals();
                net.run_until_empty(self.schedule.gap_cycles.max(10_000));
                timings.record("drain", &watch, net.cycle() - before);
                net.sample_now();
            }
            net.flush_observers().map_err(io_err)?;
        }
        if let (Some(observe), Some(run_id)) = (self.observe.as_ref(), run_id.as_ref()) {
            if let Some(dir) = observe.out_dir.as_ref() {
                // A stalled run leaves the network exactly as the watchdog
                // (or livelock guard) saw it: capture the wait-for graph so
                // the outcome carries evidence of a real channel cycle, or
                // its absence.
                if let Some(snapshot) = wait_snapshot.as_ref() {
                    let mut line = snapshot.to_json();
                    line.push('\n');
                    atomic_write(dir.join(format!("{run_id}.waitfor.jsonl")), line)
                        .map_err(io_err)?;
                }
                if let Some(mut report) = net.metrics_report(run_id) {
                    // Engine phases from the registry, experiment spans
                    // (warmup/measure/gap/drain) from the run's timings:
                    // one self-contained phase breakdown.
                    report.phases.extend_from_slice(timings.phases());
                    report
                        .write_to(dir.join(format!("{run_id}.metrics.json")))
                        .map_err(io_err)?;
                    atomic_write(
                        dir.join(format!("{run_id}.heatmap.csv")),
                        report.heatmap_csv(),
                    )
                    .map_err(io_err)?;
                }
                let wall = total_watch.elapsed_secs();
                let manifest = RunManifest {
                    run_id: run_id.clone(),
                    config_hash: fnv1a_hex(&format!("{:?}|{:?}", net.config(), self.schedule)),
                    git_describe: git_describe(),
                    seed: self.sim.seed,
                    algorithm: result.algorithm.clone(),
                    traffic: result.traffic.clone(),
                    topology: topology.label(),
                    offered_load: self.offered_load,
                    injection_rate: rate,
                    cycles: net.cycle(),
                    warmup_cycles: self.schedule.warmup_cycles,
                    samples: samples as u64,
                    converged: result.convergence.is_converged(),
                    deadlocked: deadlock.is_some(),
                    outcome: outcome.tag().to_owned(),
                    triage: result.triage.as_ref().map(|t| t.verdict.tag().to_owned()),
                    wall_seconds: wall,
                    cycles_per_sec: if wall > 0.0 {
                        net.cycle() as f64 / wall
                    } else {
                        0.0
                    },
                    flits_per_sec: if wall > 0.0 {
                        net.metrics().flit_hops as f64 / wall
                    } else {
                        0.0
                    },
                    dropped_events: net.observer_dropped_events(),
                    attempts: u64::from(self.attempt),
                    resumed_from: self.resumed_from.clone(),
                    phases: timings.into_phases(),
                };
                manifest
                    .write_to(dir.join(format!("{run_id}.manifest.json")))
                    .map_err(io_err)?;
            }
        }
        result.dropped_events = net.observer_dropped_events();
        Ok(result)
    }

    /// Runs this experiment at each offered load in `loads`, reusing every
    /// other setting.
    ///
    /// # Errors
    ///
    /// Fails fast on the first configuration error.
    pub fn sweep(&self, loads: &[f64]) -> Result<Vec<RunResult>, ExperimentError> {
        loads
            .iter()
            .map(|&load| self.clone().offered_load(load).run())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Experiment {
        Experiment::new(Topology::torus(&[8, 8]), AlgorithmKind::PositiveHop)
            .quick()
            .seed(5)
    }

    #[test]
    fn injection_rate_matches_equation_four() {
        // 8x8 torus uniform: d̄ = 4 * 64/63; rate = rho * 4 / (16 * d̄).
        let e = base().offered_load(0.4);
        let d_bar = 4.0 * 64.0 / 63.0;
        let expected = 0.4 * 4.0 / (16.0 * d_bar);
        assert!((e.injection_rate().unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_loads() {
        assert!(matches!(
            base().offered_load(0.0).run(),
            Err(ExperimentError::InvalidLoad { .. })
        ));
        assert!(matches!(
            base().offered_load(-1.0).injection_rate(),
            Err(ExperimentError::InvalidLoad { .. })
        ));
        assert!(matches!(
            base().offered_load(7.0).injection_rate(),
            Err(ExperimentError::InvalidLoad { .. })
        ));
    }

    #[test]
    fn build_network_is_the_network_run_drives() {
        let e = base().offered_load(0.4);
        let net = e.build_network().unwrap();
        assert_eq!(net.cycle(), 0);
        assert_eq!(net.config().seed, 5);
        assert_eq!(
            net.config().arrival.rate().to_bits(),
            e.injection_rate().unwrap().to_bits()
        );
        // Validation comes first, as in `run`.
        assert!(matches!(
            base().offered_load(0.0).build_network(),
            Err(ExperimentError::InvalidLoad { .. })
        ));
        assert_eq!(
            base().vc_replicas(0).build_network().unwrap_err(),
            ExperimentError::Engine(EngineError::ZeroReplicas)
        );
    }

    #[test]
    fn validate_is_the_load_check_plus_the_engine_validator() {
        use wormsim_faults::{Fault, FaultPlanError, FaultTarget};
        use wormsim_topology::{Direction, NodeId, Sign};
        let torus = || Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube);
        let faulted = |topology: Topology, faults: &[Fault]| {
            let mut plan = FaultPlan::new();
            faults.iter().for_each(|&fault| plan.push(fault));
            Experiment::new(topology, AlgorithmKind::Ecube).faults(plan)
        };
        let dead = |target| Fault {
            target,
            fail_at: 0,
            repair_at: None,
        };
        let node = |index| FaultTarget::Node {
            node: NodeId::new(index),
        };
        // Node 0 sits on the mesh boundary: no link leaves it downward.
        let boundary = FaultTarget::Link {
            node: NodeId::new(0),
            direction: Direction::new(0, Sign::Minus),
        };
        let repaired_at_failure = Fault {
            target: node(3),
            fail_at: 10,
            repair_at: Some(10),
        };
        let engine = ExperimentError::Engine;
        let faults = |e| ExperimentError::Engine(EngineError::Faults(e));
        let cases = [
            (
                "load 0",
                torus().offered_load(0.0),
                ExperimentError::InvalidLoad { value: 0.0 },
            ),
            (
                "no VC replicas",
                torus().vc_replicas(0),
                engine(EngineError::ZeroReplicas),
            ),
            (
                "congestion limit 0",
                torus().congestion_limit(Some(0)),
                engine(EngineError::ZeroCongestionLimit),
            ),
            (
                "zero-flit messages",
                torus().message_length(MessageLength::Uniform { min: 0, max: 8 }),
                engine(EngineError::ZeroLengthMessage),
            ),
            (
                "buffer depth 0",
                torus().switching(Switching::Wormhole { buffer_depth: 0 }),
                engine(EngineError::ZeroBufferDepth),
            ),
            (
                "injection bandwidth 0",
                torus().injection_bandwidth(0),
                engine(EngineError::ZeroInjectionBandwidth),
            ),
            (
                "mesh-boundary link fault",
                faulted(Topology::mesh(&[4, 4]), &[dead(boundary)]),
                faults(FaultPlanError::NonexistentChannel {
                    node: NodeId::new(0),
                    direction: Direction::new(0, Sign::Minus),
                }),
            ),
            (
                "node out of range",
                faulted(Topology::torus(&[4, 4]), &[dead(node(16))]),
                faults(FaultPlanError::NodeOutOfRange {
                    node: NodeId::new(16),
                    num_nodes: 16,
                }),
            ),
            (
                "repair not after failure",
                faulted(Topology::torus(&[4, 4]), &[repaired_at_failure]),
                faults(FaultPlanError::RepairBeforeFailure {
                    target: node(3),
                    fail_at: 10,
                    repair_at: 10,
                }),
            ),
            (
                "every node dead",
                faulted(Topology::mesh(&[2]), &[dead(node(0)), dead(node(1))]),
                faults(FaultPlanError::AllNodesFaulted),
            ),
        ];
        for (name, experiment, expected) in cases {
            let error = experiment.validate().expect_err(name);
            assert_eq!(error, expected, "{name}");
            assert_eq!(experiment.build_network().unwrap_err(), error, "{name}");
        }
    }

    #[test]
    fn low_load_latency_is_near_zero_load() {
        let result = base().offered_load(0.05).run().unwrap();
        assert!(result.is_converged(), "{result:?}");
        // Zero-load latency on 8^2 uniform: 16 + d̄ - 1 ≈ 19.06 cycles.
        assert!(result.latency.mean() > 18.0);
        assert!(
            result.latency.mean() < 25.0,
            "latency {} too high for 5% load",
            result.latency.mean()
        );
        assert!(result.messages_measured > 100);
        assert!((result.achieved_utilization - 0.05).abs() < 0.02);
    }

    #[test]
    fn sweep_is_monotone_in_utilization_below_saturation() {
        let results = base().sweep(&[0.1, 0.3, 0.5]).unwrap();
        assert_eq!(results.len(), 3);
        assert!(results[0].achieved_utilization < results[1].achieved_utilization);
        assert!(results[1].achieved_utilization < results[2].achieved_utilization);
        for r in &results {
            assert!(r.deadlock.is_none());
        }
    }

    #[test]
    fn point_hash_tracks_simulation_config_only() {
        let a = base().offered_load(0.3);
        assert_eq!(a.point_hash(), a.clone().point_hash(), "hash is stable");
        assert_ne!(
            a.point_hash(),
            a.clone().offered_load(0.31).point_hash(),
            "load changes the point"
        );
        assert_ne!(
            a.point_hash(),
            a.clone().seed(6).point_hash(),
            "seed changes the point"
        );
        assert_ne!(
            a.point_hash(),
            a.clone().faults(FaultPlan::new()).point_hash(),
            "fault plan changes the point"
        );
        // Provenance and orchestration settings do not.
        assert_eq!(
            a.point_hash(),
            a.clone()
                .attempt(3)
                .resumed_from(Some("results/sweep.journal.jsonl".into()))
                .cancel_token(CancelToken::new())
                .point_hash()
        );
    }

    #[test]
    fn pre_cancelled_run_ends_interrupted() {
        let token = CancelToken::new();
        token.cancel();
        let result = base().offered_load(0.3).cancel_token(token).run().unwrap();
        assert_eq!(result.outcome, RunOutcome::Interrupted);
        assert!(!result.outcome.has_statistics());
        assert!(!result.is_converged());
        // The run stopped at the first boundary, not after a full schedule.
        assert!(result.cycles_simulated < 2_000, "{result:?}");
    }

    #[test]
    fn uncancelled_token_does_not_perturb_results() {
        let plain = base().offered_load(0.2).run().unwrap();
        let tokened = base()
            .offered_load(0.2)
            .cancel_token(CancelToken::new())
            .run()
            .unwrap();
        assert_eq!(plain.latency.mean(), tokened.latency.mean());
        assert_eq!(plain.messages_measured, tokened.messages_measured);
        assert_eq!(plain.cycles_simulated, tokened.cycles_simulated);
        assert_eq!(plain.outcome, tokened.outcome);
    }

    #[test]
    fn deadlock_is_reported_not_propagated() {
        let result = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::NaiveMinimal)
            .offered_load(0.9)
            .quick()
            .seed(3)
            .run()
            .unwrap();
        // The naive algorithm may or may not deadlock within the quick
        // schedule, but the field must be plumbed through when it does.
        if let Some(report) = result.deadlock {
            assert!(report.flits_in_flight > 0);
            assert!(!result.is_converged());
        }
    }
}
