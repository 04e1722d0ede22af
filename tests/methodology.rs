//! Integration tests of the measurement methodology: Equations 2–4, the
//! stratified estimator's weights, presets, and report formats — the glue
//! between the engine and the statistics.

use wormsim::{
    format_sweep_csv, presets, AlgorithmKind, Experiment, MeasurementSchedule, Topology,
    TrafficConfig,
};

/// Written by the commit before uniform traffic's weights were summed
/// binade by binade, from its one-add-per-pair loop. Never regenerate it.
const UNIFORM_WEIGHTS: &str = include_str!("golden/uniform_weights.txt");

/// Equation 4 round trip: the injection rate the experiment derives
/// reproduces the offered load exactly for every preset workload.
#[test]
fn offered_load_rate_roundtrip() {
    let topo = presets::paper_topology();
    for spec in presets::all_figures() {
        let pattern = spec.traffic.build(&topo).expect("pattern builds");
        let d_bar = pattern.mean_distance(&topo);
        for load in [0.1, 0.5, 1.0] {
            let e = Experiment::new(topo.clone(), AlgorithmKind::Ecube)
                .traffic(spec.traffic.clone())
                .offered_load(load);
            let rate = e.injection_rate().expect("valid rate");
            let back = wormsim::stats::throughput::utilization_from_rate(rate, 16.0, d_bar, 2);
            assert!((back - load).abs() < 1e-12, "{}: {back} vs {load}", spec.id);
        }
    }
}

/// The paper's quoted stratification weights come out of the preset
/// patterns exactly.
#[test]
fn paper_quoted_hop_class_weights() {
    let topo = presets::paper_topology();
    // Uniform: class 1 weighs 0.0157, class 16 weighs 0.0039.
    let uniform = TrafficConfig::Uniform.build(&topo).expect("uniform builds");
    let w = uniform.hop_class_weights(&topo);
    assert!((w[1] - 0.0157).abs() < 2e-4);
    assert!((w[16] - 0.0039).abs() < 1e-4);
    // Local: six classes with weights 0.0833/0.1667/0.25 mirrored.
    let local = presets::fig5().traffic.build(&topo).expect("local builds");
    let w = local.hop_class_weights(&topo);
    assert!((w[1] - 0.0833).abs() < 1e-3);
    assert!((w[3] - 0.25).abs() < 1e-9);
    assert_eq!(w.iter().filter(|&&x| x > 0.0).count(), 6);
}

/// Uniform traffic's hop-class weights and mean distance on thirteen tori
/// and meshes up to 32³ and 128×128, then the injection rate of every
/// Figure 3 point: each value as its `f64::to_bits` hex, one line per
/// topology or point.
fn uniform_weights_snapshot() -> String {
    let topologies = [
        Topology::torus(&[4, 4]),
        Topology::torus(&[8, 8]),
        Topology::torus(&[16, 16]),
        Topology::torus(&[32, 32]),
        Topology::torus(&[64, 64]),
        Topology::torus(&[128, 128]),
        Topology::torus(&[6, 10]),
        Topology::torus(&[4, 6, 8]),
        Topology::torus(&[8, 8, 8]),
        Topology::torus(&[16, 16, 16]),
        Topology::torus(&[32, 32, 32]),
        Topology::mesh(&[8, 8]),
        Topology::mesh(&[16, 16]),
    ];
    let mut out = String::new();
    for topo in &topologies {
        let uniform = TrafficConfig::Uniform.build(topo).expect("uniform builds");
        let weights: Vec<String> = uniform
            .hop_class_weights(topo)
            .iter()
            .map(|w| format!("{:016x}", w.to_bits()))
            .collect();
        out += &format!(
            "{} mean_distance {:016x} weights {}\n",
            topo.label(),
            uniform.mean_distance(topo).to_bits(),
            weights.join(" ")
        );
    }
    for e in presets::experiments_for(&presets::fig3(), MeasurementSchedule::quick(), 1993) {
        out += &format!(
            "fig3 {} {} injection_rate {:016x}\n",
            e.sim().algorithm,
            e.offered_load_value(),
            e.injection_rate().expect("fig3 rates are valid").to_bits()
        );
    }
    out
}

/// Equation 4's mean distance and the estimator's hop-class weights are
/// bit-identical to the pairwise sums they replaced, up to 32³ and 128×128.
#[test]
fn uniform_weights_match_the_pairwise_golden() {
    let snapshot = uniform_weights_snapshot();
    for (now, was) in snapshot.lines().zip(UNIFORM_WEIGHTS.lines()) {
        assert_eq!(now, was);
    }
    assert_eq!(snapshot, UNIFORM_WEIGHTS);
}

/// The hotspot preset gives the hotspot node 11.5x the traffic of others,
/// as quoted in Section 3.
#[test]
fn paper_quoted_hotspot_ratio() {
    let topo = presets::paper_topology();
    let pattern = presets::fig4()
        .traffic
        .build(&topo)
        .expect("hotspot builds");
    let dist = pattern.dest_distribution(topo.node_at(&[0, 0]));
    let hot = dist[topo.node_at(&[15, 15]).as_usize()];
    let other = dist[topo.node_at(&[7, 7]).as_usize()];
    assert!((hot / other - 11.5).abs() < 0.2, "ratio {}", hot / other);
}

/// A run's convergence accounting is internally consistent.
#[test]
fn convergence_accounting() {
    let r = Experiment::new(
        Topology::torus(&[8, 8]),
        AlgorithmKind::NegativeHopBonusCards,
    )
    .schedule(MeasurementSchedule::quick())
    .offered_load(0.2)
    .seed(5)
    .run()
    .expect("experiment runs");
    let schedule = MeasurementSchedule::quick();
    assert!(r.samples >= schedule.policy.min_samples);
    assert!(r.samples <= schedule.policy.max_samples);
    assert!(r.cycles_simulated <= schedule.max_cycles());
    assert!(r.cycles_simulated >= schedule.warmup_cycles + schedule.sample_cycles);
    assert!(r.messages_measured > 0);
    if r.is_converged() {
        assert!(r.latency.relative_error() <= schedule.policy.relative_tolerance);
    }
}

/// Sweeps serialize to CSV with one row per point and parseable numbers.
#[test]
fn sweep_csv_is_well_formed() {
    let results = Experiment::new(Topology::torus(&[8, 8]), AlgorithmKind::Ecube)
        .schedule(MeasurementSchedule::quick())
        .seed(1)
        .sweep(&[0.1, 0.2])
        .expect("sweep runs");
    let csv = format_sweep_csv(&results);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 3);
    for row in &lines[1..] {
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields.len(), lines[0].split(',').count());
        assert!(fields[2].parse::<f64>().is_ok(), "offered load parses");
        assert!(fields[5].parse::<f64>().is_ok(), "latency parses");
    }
}

/// Every figure preset builds and expands into runnable experiments whose
/// injection rates are feasible.
#[test]
fn presets_are_feasible() {
    for spec in presets::all_figures() {
        let experiments = presets::experiments_for(&spec, MeasurementSchedule::quick(), 1);
        assert_eq!(
            experiments.len(),
            spec.algorithms.len() * spec.loads.len(),
            "{}",
            spec.id
        );
        for e in &experiments {
            let rate = e.injection_rate().expect("feasible rate");
            // Uniform traffic needs at most ~0.031 msgs/node/cycle at full
            // load; local traffic's short paths push that up to ~0.071.
            assert!(
                rate > 0.0 && rate < 0.08,
                "rate {rate} plausible for 16-flit worms"
            );
        }
    }
}

/// The naive strawman's deadlock surfaces through the whole stack as a
/// non-converged result with a deadlock report.
#[test]
fn deadlock_reported_through_experiment_layer() {
    let r = Experiment::new(Topology::torus(&[8, 8]), AlgorithmKind::NaiveMinimal)
        .schedule(MeasurementSchedule::quick())
        .offered_load(1.0)
        .seed(3)
        .run()
        .expect("run completes even when the network wedges");
    // With overload and the quick watchdog the naive net wedges reliably.
    if let Some(report) = r.deadlock {
        assert!(report.flits_in_flight > 0);
        assert!(!r.is_converged());
    } else {
        // Even if this seed escaped, throughput must be far below offered.
        assert!(r.achieved_utilization < 0.5);
    }
}
