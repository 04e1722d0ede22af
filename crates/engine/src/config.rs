//! Simulator configuration and the [`NetworkBuilder`].

use crate::{EngineError, Network};
use wormsim_faults::FaultPlan;
use wormsim_routing::AlgorithmKind;
use wormsim_topology::Topology;
use wormsim_traffic::{ArrivalProcess, MessageLength, TrafficConfig};

/// The switching discipline of the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Switching {
    /// Wormhole switching: per-VC buffers hold `buffer_depth` flits; a
    /// blocked message keeps its flits spread over the channels it holds.
    Wormhole {
        /// Flits of buffering per virtual channel (≥ 1; 2 sustains full
        /// link rate with single-cycle credit turnaround).
        buffer_depth: u32,
    },
    /// Virtual cut-through (Kermani & Kleinrock): buffers hold a whole
    /// message, so a blocked message accumulates at one node instead of
    /// holding a chain of channels.
    VirtualCutThrough,
    /// Store-and-forward: like cut-through buffers, but a message is only
    /// forwarded (and only allocates its next channel) once it has fully
    /// arrived at a node.
    StoreAndForward,
}

// The worker-wire form (`wormsim::wire`) of the three config enums below:
// adding or renaming a tag or field is a wire-protocol change.
wormsim_observe::json_union!(Switching, "type" {
    Wormhole = "wormhole" { buffer_depth },
    VirtualCutThrough = "vct",
    StoreAndForward = "saf",
});

impl Switching {
    /// Conventional wormhole switching with 2-flit VC buffers.
    pub const fn wormhole() -> Self {
        Switching::Wormhole { buffer_depth: 2 }
    }
}

/// How a routed head picks among several free, permitted virtual channels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// The free VC with the most downstream credits — "likely to choose the
    /// least congested one" (the paper's assumption for nbc).
    MostCredits,
    /// The first free VC in candidate order (dimension 0 first).
    FirstFree,
    /// Uniformly random among the free permitted VCs.
    Random,
}

wormsim_observe::json_tags!(SelectionPolicy {
    MostCredits = "most_credits",
    FirstFree = "first_free",
    Random = "random",
});

/// How arriving flits leave the network at their destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EjectionModel {
    /// Every input VC can deliver one flit per cycle (multiple delivery
    /// channels; the paper's hotspot throughputs imply this model).
    PerVc,
    /// A single ejection channel per node delivers one flit per cycle.
    SingleChannel,
}

wormsim_observe::json_tags!(EjectionModel {
    PerVc = "per_vc",
    SingleChannel = "single_channel",
});

/// Full simulator configuration: every network parameter of the paper's
/// simulator (S5) and its defaults. Use [`NetworkBuilder`] to construct
/// one. The experiment layer (`wormsim::Experiment`, S7) carries one of
/// these and adds only what it owns: the offered load, which becomes
/// [`arrival`](Self::arrival) at build time, and the measurement schedule.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The network under test.
    pub topology: Topology,
    /// Which routing algorithm routes messages.
    pub algorithm: AlgorithmKind,
    /// Switching discipline.
    pub switching: Switching,
    /// Physical virtual channels provisioned per routing class (Dally-style
    /// virtual-channel flow control when > 1).
    pub vc_replicas: u32,
    /// Spatial traffic pattern.
    pub traffic: TrafficConfig,
    /// Message generation process per node.
    pub arrival: ArrivalProcess,
    /// Message length distribution.
    pub length: MessageLength,
    /// Input-buffer-limit congestion control: max un-injected messages per
    /// message class per node; `None` disables refusal.
    pub congestion_limit: Option<u32>,
    /// VC selection policy for adaptive candidates.
    pub selection: SelectionPolicy,
    /// Ejection bandwidth model.
    pub ejection: EjectionModel,
    /// Flits per cycle a node may inject (bandwidth of the
    /// processor-router port).
    pub injection_bandwidth: u32,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Cycles without forward progress (while flits are in flight) before
    /// the watchdog reports a deadlock; `None` means the engine default of
    /// 20 000.
    pub watchdog_cycles: Option<u64>,
    /// Link/node failures injected into the run; `None` (or an empty plan)
    /// simulates a healthy network with zero overhead on the hot path.
    pub faults: Option<FaultPlan>,
    /// Livelock guard: flag any in-flight message that has taken more than
    /// this many hops. `None` disables the hop check.
    pub hop_budget: Option<u32>,
    /// Starvation guard: flag any live message older than this many cycles.
    /// `None` disables the age check.
    pub age_budget: Option<u64>,
}

/// The deadlock watchdog's no-progress window when
/// [`SimConfig::watchdog_cycles`] is `None`.
pub(crate) const DEFAULT_WATCHDOG_CYCLES: u64 = 20_000;

/// Builder for [`Network`].
///
/// Defaults mirror the paper's setup: wormhole switching with 2-flit VC
/// buffers, one VC per class, uniform traffic, 16-flit messages, no
/// arrivals (drive manually or set [`arrival`](Self::arrival)),
/// most-credits selection, per-VC ejection, congestion limit 1.
///
/// # Example
///
/// ```
/// use wormsim_engine::NetworkBuilder;
/// use wormsim_topology::Topology;
/// use wormsim_routing::AlgorithmKind;
///
/// let net = NetworkBuilder::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
///     .seed(7)
///     .build()?;
/// assert_eq!(net.cycle(), 0);
/// # Ok::<(), wormsim_engine::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct NetworkBuilder {
    config: SimConfig,
}

impl NetworkBuilder {
    /// Starts a builder for `topology` routed by `algorithm`.
    pub fn new(topology: Topology, algorithm: AlgorithmKind) -> Self {
        NetworkBuilder {
            config: SimConfig {
                topology,
                algorithm,
                switching: Switching::wormhole(),
                vc_replicas: 1,
                traffic: TrafficConfig::Uniform,
                arrival: ArrivalProcess::Off,
                length: MessageLength::Fixed { flits: 16 },
                congestion_limit: Some(1),
                selection: SelectionPolicy::MostCredits,
                ejection: EjectionModel::PerVc,
                injection_bandwidth: 1,
                seed: 0,
                watchdog_cycles: None,
                faults: None,
                hop_budget: None,
                age_budget: None,
            },
        }
    }

    /// Sets the switching discipline.
    pub fn switching(mut self, switching: Switching) -> Self {
        self.config.switching = switching;
        self
    }

    /// Sets the number of physical VCs per routing class.
    pub fn vc_replicas(mut self, replicas: u32) -> Self {
        self.config.vc_replicas = replicas;
        self
    }

    /// Sets the traffic pattern.
    pub fn traffic(mut self, traffic: TrafficConfig) -> Self {
        self.config.traffic = traffic;
        self
    }

    /// Sets the arrival process.
    pub fn arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.config.arrival = arrival;
        self
    }

    /// Sets the message length distribution.
    pub fn message_length(mut self, length: MessageLength) -> Self {
        self.config.length = length;
        self
    }

    /// Sets (or disables, with `None`) the congestion-control limit.
    pub fn congestion_limit(mut self, limit: Option<u32>) -> Self {
        self.config.congestion_limit = limit;
        self
    }

    /// Sets the VC selection policy.
    pub fn selection(mut self, selection: SelectionPolicy) -> Self {
        self.config.selection = selection;
        self
    }

    /// Sets the ejection model.
    pub fn ejection(mut self, ejection: EjectionModel) -> Self {
        self.config.ejection = ejection;
        self
    }

    /// Sets the injection bandwidth in flits per cycle.
    pub fn injection_bandwidth(mut self, flits_per_cycle: u32) -> Self {
        self.config.injection_bandwidth = flits_per_cycle;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the watchdog threshold in cycles.
    pub fn watchdog_cycles(mut self, cycles: u64) -> Self {
        self.config.watchdog_cycles = Some(cycles);
        self
    }

    /// Injects a fault plan into the run.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// Sets (or disables, with `None`) the livelock hop budget.
    pub fn hop_budget(mut self, hops: Option<u32>) -> Self {
        self.config.hop_budget = hops;
        self
    }

    /// Sets (or disables, with `None`) the starvation age budget in cycles.
    pub fn age_budget(mut self, cycles: Option<u64>) -> Self {
        self.config.age_budget = cycles;
        self
    }

    /// Finishes the configuration.
    pub fn into_config(self) -> SimConfig {
        self.config
    }

    /// Validates the configuration and assembles the network.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] if any parameter is invalid or the
    /// algorithm/traffic constructors reject the topology.
    pub fn build(self) -> Result<Network, EngineError> {
        Network::new(self.config)
    }
}

impl SimConfig {
    /// Checks the parameters for degenerate values without building
    /// anything; [`Network::new`] calls it first.
    ///
    /// # Errors
    ///
    /// The [`EngineError`] naming the first degenerate parameter, or
    /// [`EngineError::Faults`] for a fault plan that does not fit the
    /// topology.
    pub fn validate(&self) -> Result<(), EngineError> {
        if let Switching::Wormhole { buffer_depth: 0 } = self.switching {
            return Err(EngineError::ZeroBufferDepth);
        }
        if self.vc_replicas == 0 {
            return Err(EngineError::ZeroReplicas);
        }
        if self.injection_bandwidth == 0 {
            return Err(EngineError::ZeroInjectionBandwidth);
        }
        if self.congestion_limit == Some(0) {
            return Err(EngineError::ZeroCongestionLimit);
        }
        if self.length.min() == 0 {
            return Err(EngineError::ZeroLengthMessage);
        }
        let flits = self.length.max().max(self.buffer_capacity());
        if flits > u32::from(u16::MAX) {
            return Err(EngineError::TooManyFlits(flits));
        }
        if let Some(plan) = &self.faults {
            plan.validate(&self.topology)?;
        }
        Ok(())
    }

    /// The per-VC buffer capacity in flits implied by the switching mode.
    pub fn buffer_capacity(&self) -> u32 {
        match self.switching {
            Switching::Wormhole { buffer_depth } => buffer_depth,
            Switching::VirtualCutThrough | Switching::StoreAndForward => self.length.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper() {
        let cfg =
            NetworkBuilder::new(Topology::torus(&[16, 16]), AlgorithmKind::Ecube).into_config();
        assert_eq!(cfg.switching, Switching::Wormhole { buffer_depth: 2 });
        assert_eq!(cfg.length, MessageLength::Fixed { flits: 16 });
        assert_eq!(cfg.vc_replicas, 1);
        assert_eq!(cfg.injection_bandwidth, 1);
    }

    #[test]
    fn validation_rejects_degenerate_values() {
        let base = NetworkBuilder::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube);
        assert_eq!(
            base.clone()
                .switching(Switching::Wormhole { buffer_depth: 0 })
                .build()
                .unwrap_err(),
            EngineError::ZeroBufferDepth
        );
        assert_eq!(
            base.clone().vc_replicas(0).build().unwrap_err(),
            EngineError::ZeroReplicas
        );
        assert_eq!(
            base.clone().injection_bandwidth(0).build().unwrap_err(),
            EngineError::ZeroInjectionBandwidth
        );
        assert_eq!(
            base.clone().congestion_limit(Some(0)).build().unwrap_err(),
            EngineError::ZeroCongestionLimit
        );
        // Only a hand-built variant can do this (the constructors refuse
        // it); unchecked, the route phase panics on the first empty worm.
        let empty = MessageLength::Uniform { min: 0, max: 4 };
        assert_eq!(
            base.clone().message_length(empty).build().unwrap_err(),
            EngineError::ZeroLengthMessage
        );
        let long = MessageLength::fixed(65_536).unwrap();
        assert_eq!(
            base.clone().message_length(long).build().unwrap_err(),
            EngineError::TooManyFlits(65_536)
        );
        let deep = Switching::Wormhole {
            buffer_depth: 70_000,
        };
        assert_eq!(
            base.clone().switching(deep).build().unwrap_err(),
            EngineError::TooManyFlits(70_000)
        );
        let longest = MessageLength::fixed(65_535).unwrap();
        assert!(base.clone().message_length(longest).build().is_ok());
        assert!(base.build().is_ok());
    }

    #[test]
    fn validation_rejects_bad_fault_plans() {
        use wormsim_topology::NodeId;
        let mut plan = FaultPlan::new();
        plan.push_dead_node(NodeId::new(999));
        let err = NetworkBuilder::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
            .faults(plan)
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::Faults(_)), "{err:?}");
    }

    #[test]
    fn buffer_capacity_follows_switching() {
        let mut cfg =
            NetworkBuilder::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube).into_config();
        assert_eq!(cfg.buffer_capacity(), 2);
        cfg.switching = Switching::VirtualCutThrough;
        assert_eq!(cfg.buffer_capacity(), 16);
        cfg.switching = Switching::StoreAndForward;
        cfg.length = MessageLength::Bimodal {
            short: 15,
            long: 31,
            long_fraction: 0.5,
        };
        assert_eq!(cfg.buffer_capacity(), 31);
    }
}
