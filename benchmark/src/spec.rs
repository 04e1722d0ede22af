//! The benchmark's declared surface: workload names and every metric with
//! its unit, direction and regression bound. `BENCHMARK.json` at the
//! repository root repeats these declarations for the driver; a test keeps
//! the two in step.

/// The four workloads, in the order `run` executes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fig3Local,
    Fig3Remote,
    Cube16Engine,
    LowloadEngine,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig3Local,
        Workload::Fig3Remote,
        Workload::Cube16Engine,
        Workload::LowloadEngine,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Local => "fig3_local",
            Workload::Fig3Remote => "fig3_remote",
            Workload::Cube16Engine => "cube16_engine",
            Workload::LowloadEngine => "lowload_engine",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload '{name}' (expected one of {})",
                    known.join(", ")
                )
            })
    }
}

/// The paper's six algorithms by short name, in the order per-algorithm
/// metrics are declared.
pub const ALGOS: [&str; 6] = ["ecube", "nlast", "2pn", "phop", "nhop", "nbc"];

/// The 16^3 algorithms whose memory footprint is tracked (2 / 13 / 25 VC
/// classes — the per-VC-deque count is what ROADMAP item 2 removes).
pub const RSS_ALGOS: [&str; 3] = ["ecube", "nbc", "phop"];

pub const PHASES: [&str; 5] = ["inject", "route", "allocate", "advance", "drain"];
pub const EXPERIMENT_PHASES: [&str; 4] = ["warmup", "measure", "gap", "drain"];

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before `compare` calls it a regression.
    pub bound: Option<f64>,
    /// Simulated counts and ratios of counts: deterministic for a seed, so
    /// `compare` demands bit-for-bit equality instead of a bound.
    pub exact: bool,
}

fn timed(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl {
        name: name.into(),
        unit,
        better,
        bound: None,
        exact: false,
    }
}

fn exact(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl {
        exact: true,
        ..timed(name, unit, better)
    }
}

/// End-to-end metrics; every workload reports every one of them.
pub fn end_to_end() -> Vec<MetricDecl> {
    let bounded = |name: &str, unit, better, bound| MetricDecl {
        bound: Some(bound),
        ..timed(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", "lower", 0.25),
        // Host-time spreads over ten seeds reached 5.6% of the median on the
        // two-core machine these were taken on; a bound is three times that.
        bounded("wall_s", "s", "lower", 0.20),
        bounded("points_per_s", "points/s", "higher", 0.20),
        bounded("sim_cycles_per_s", "cycles/s", "higher", 0.20),
        bounded("flit_hops_per_s", "hops/s", "higher", 0.20),
        bounded("peak_rss_mb", "MiB", "lower", 0.10),
    ]
}

/// Per-layer metrics, named `<module>.<what>`; a traced run reports every
/// one of them, with 0 for a layer the workload's path bypasses.
pub fn per_layer() -> Vec<MetricDecl> {
    let mut m = vec![timed("topology.distance_ns", "ns", "lower")];
    for algo in ALGOS {
        m.push(timed(
            format!("routing.candidates_ns.{algo}"),
            "ns",
            "lower",
        ));
    }
    for algo in ALGOS {
        m.push(exact(
            format!("routing.candidates_per_call.{algo}"),
            "ratio",
            "lower",
        ));
    }
    m.push(timed("routing.build_s", "s", "lower"));
    m.push(timed("traffic.pattern_setup_s", "s", "lower"));
    m.push(timed("engine.build_s", "s", "lower"));
    m.push(timed("engine.warmup_s", "s", "lower"));
    for algo in ALGOS {
        m.push(timed(
            format!("engine.steps_per_s.{algo}"),
            "cycles/s",
            "higher",
        ));
    }
    for algo in ALGOS {
        m.push(timed(
            format!("engine.flit_hops_per_s.{algo}"),
            "hops/s",
            "higher",
        ));
    }
    for phase in PHASES {
        m.push(timed(format!("engine.phase_s.{phase}"), "s", "lower"));
    }
    for count in [
        "flit_hops",
        "delivered",
        "generated",
        "refused",
        "blocked",
        "alloc_fail",
    ] {
        m.push(exact(format!("engine.{count}"), "count", "lower"));
    }
    m.push(exact("engine.blocked_per_hop", "ratio", "lower"));
    for algo in RSS_ALGOS {
        m.push(timed(format!("engine.net_rss_mb.{algo}"), "MiB", "lower"));
    }
    m.push(timed("observe.metrics_overhead_frac", "ratio", "lower"));
    m.push(exact("stats.samples_per_point", "ratio", "lower"));
    m.push(exact("stats.converged_frac", "ratio", "higher"));
    for phase in EXPERIMENT_PHASES {
        m.push(timed(format!("core.experiment_s.{phase}"), "s", "lower"));
    }
    m.push(timed("core.point_s_p50", "s", "lower"));
    m.push(timed("core.point_s_max", "s", "lower"));
    m.push(exact("core.cycles_simulated", "count", "lower"));
    m.push(timed("core.wire_encode_ns", "ns", "lower"));
    m.push(timed("core.wire_decode_ns", "ns", "lower"));
    m.push(exact("core.wire_bytes", "count", "lower"));
    m.push(timed("core.result_encode_ns", "ns", "lower"));
    m.push(timed("core.result_decode_ns", "ns", "lower"));
    m.push(exact("core.result_bytes", "count", "lower"));
    m.push(timed("core.point_hash_ns", "ns", "lower"));
    m.push(timed("bench.resume_s", "s", "lower"));
    m.push(timed("bench.journal_record_s", "s", "lower"));
    m.push(timed("bench.journal_load_s", "s", "lower"));
    m.push(exact("bench.journal_bytes", "count", "lower"));
    m.push(timed("bench.csv_write_s", "s", "lower"));
    m.push(timed("bench.parallel_eff", "ratio", "higher"));
    m.push(exact("bench.attempts", "count", "lower"));
    m.push(timed("bench.worker_spawn_s", "s", "lower"));
    m.push(timed("bench.remote_connect_s", "s", "lower"));
    m.push(timed("bench.dist_tax_s", "s", "lower"));
    m.push(exact("bench.claim_abs_err", "ratio", "lower"));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()), "{}", w.name());
            assert!(seen.insert(w.name().to_owned()));
        }
        for decl in end_to_end().into_iter().chain(per_layer()) {
            assert!(name_ok(&decl.name), "{}", decl.name);
            assert!(seen.insert(decl.name.clone()), "duplicate {}", decl.name);
            assert!(decl.unit.len() <= 16, "{}", decl.unit);
            assert!(matches!(decl.better, "lower" | "higher"));
        }
    }

    #[test]
    fn bounds_stay_within_the_contract() {
        let e2e = end_to_end();
        assert!(e2e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        for decl in e2e {
            let bound = decl.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", decl.name);
        }
        assert!(per_layer().iter().all(|d| d.bound.is_none()));
        assert!(per_layer().len() <= 128);
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// harness emits. They must declare the same thing.
    #[test]
    fn benchmark_json_repeats_these_declarations() {
        use wormsim::observe::json::{self, Value};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            file.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                    (
                        text("name"),
                        text("unit"),
                        text("better"),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let ours = |decls: Vec<MetricDecl>| -> Vec<(String, String, String, Option<f64>)> {
            decls
                .into_iter()
                .map(|d| (d.name, d.unit.to_owned(), d.better.to_owned(), d.bound))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(end_to_end()));
        assert_eq!(declared("per_layer"), ours(per_layer()));
        let workloads: Vec<&str> = file
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        assert_eq!(
            file.get("paths").and_then(Value::as_array).unwrap().len(),
            1
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("nope").is_err());
    }
}
