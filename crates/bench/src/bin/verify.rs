//! Adversarial safety verification driver: proves, refutes, and triages
//! deadlock-freedom claims on small networks.
//!
//! For every selected algorithm the driver runs the `wormsim-verify`
//! bounded checker on the healthy network (turning the CDG's
//! cyclic-but-inconclusive verdicts into definitive proofs or concrete
//! witnesses), then plays the fault adversary: every fault plan of up to
//! `--max-faults` dead links (plus optional seeded-random plans) that the
//! simulator's reachability analysis admits is re-checked on the surviving
//! subgraph, and every refuted `fault_tolerance()` claim is minimized to a
//! locally minimal counterexample. `verify --help` lists the flags (the
//! table is `wormsim_bench::cli::VerifyArgs`).
//!
//! `--node-faults` adds whole-node faults to the exhaustive pool;
//! `--transient-plans` adds seeded fail/repair schedules whose masks are
//! checked at every transition epoch (a refutation names the epoch).
//!
//! `--smoke` is the CI preset: the 4x4 torus, the paper's six algorithms,
//! exhaustive single-fault plans. `--out DIR` writes one
//! `verify-<algo>-<k>.counterexample.json` artifact per stored refutation
//! (atomic, replayable: the fault plan plus the full witness).
//!
//! Exit status: 0 when every *guaranteed* claim survived (best-effort
//! refutations are reported as data — a minimal adaptive algorithm that
//! strands under faults is the expected failure mode, not a bug), 1 when
//! the adversary refuted a `Guaranteed` claim, 2 for usage errors.

use wormsim::faults::FaultTarget;
use wormsim::observe::{atomic_write, JsonObject};
use wormsim::routing::{FaultTolerance, RoutingAlgorithm};
use wormsim::topology::Topology;
use wormsim::verify::{
    check, search_faults, AdversaryReport, CheckReport, Refutation, SafetyVerdict,
};
use wormsim_bench::cli::{self, VerifyArgs};

/// Renders a node as `(x,y,...)` coordinates (dimension 0 fastest).
fn node_label(topo: &Topology, node: wormsim::NodeId) -> String {
    let coords: Vec<String> = topo.coords(node).iter().map(u16::to_string).collect();
    format!("({})", coords.join(","))
}

fn plan_label(topo: &Topology, refutation: &Refutation) -> String {
    let links: Vec<String> = refutation
        .plan
        .faults()
        .iter()
        .map(|f| {
            let target = match f.target {
                FaultTarget::Link { node, direction } => {
                    let (dim, sign) = (direction.dim(), direction.sign());
                    format!("{}d{dim}{sign}", node_label(topo, node))
                }
                FaultTarget::Node { node } => format!("node {}", node_label(topo, node)),
            };
            match (f.fail_at, f.repair_at) {
                (0, None) => target,
                (fail, None) => format!("{target}@[{fail}..)"),
                (fail, Some(repair)) => format!("{target}@[{fail}..{repair})"),
            }
        })
        .collect();
    if links.is_empty() {
        "(empty plan — the healthy network)".to_owned()
    } else {
        links.join(", ")
    }
}

/// One counterexample artifact: the minimized plan plus the full witness,
/// enough to replay the refutation without re-running the search.
fn counterexample_json(topo: &Topology, algorithm: &str, refutation: &Refutation) -> String {
    let mut out = String::new();
    let mut obj = JsonObject::begin(&mut out);
    obj.field_str("type", "counterexample")
        .field_str("algorithm", algorithm)
        .field_str("topology", &topo.label())
        .field_str("claim", &refutation.claim.to_string())
        .field_u64("original_len", refutation.original_len as u64)
        .field_u64("epoch", refutation.epoch)
        .field_bool("masked_cyclic", refutation.masked_cyclic)
        .field_u64("stranded", refutation.stranded as u64)
        .field_u64("survivors", refutation.survivors as u64);
    let mut plan = String::from("[");
    for (i, fault) in refutation.plan.faults().iter().enumerate() {
        if i > 0 {
            plan.push(',');
        }
        let mut entry = JsonObject::begin(&mut plan);
        match fault.target {
            FaultTarget::Link { node, direction } => {
                entry
                    .field_str("target", "link")
                    .field_u64("node", u64::from(node.index()))
                    .field_u64("dim", direction.dim() as u64)
                    .field_str("sign", direction.sign().tag());
            }
            FaultTarget::Node { node } => {
                entry
                    .field_str("target", "node")
                    .field_u64("node", u64::from(node.index()));
            }
        }
        entry.field_u64("fail_at", fault.fail_at);
        if let Some(repair_at) = fault.repair_at {
            entry.field_u64("repair_at", repair_at);
        }
        entry.finish();
    }
    plan.push(']');
    obj.field_raw("plan", &plan);
    let mut worms = String::from("[");
    for (i, worm) in refutation.witness.worms.iter().enumerate() {
        if i > 0 {
            worms.push(',');
        }
        let waits: Vec<u64> = worm
            .waits
            .iter()
            .map(|w| u64::from(w.channel.index()))
            .collect();
        let mut entry = JsonObject::begin(&mut worms);
        entry
            .field_u64("src", u64::from(worm.src.index()))
            .field_u64("dest", u64::from(worm.dest.index()))
            .field_u64("held_channel", u64::from(worm.held.channel.index()))
            .field_u64("held_class", u64::from(worm.held.class))
            .field_u64("stall_node", u64::from(worm.node.index()))
            .field_u64_array("waits_channels", &waits)
            .field_bool("stranded", worm.is_stranded());
        entry.finish();
    }
    worms.push(']');
    obj.field_raw("witness", &worms);
    let schedule: Vec<u64> = refutation
        .witness
        .schedule
        .iter()
        .map(|&i| i as u64)
        .collect();
    obj.field_u64_array("schedule", &schedule);
    obj.finish();
    out.push('\n');
    out
}

fn print_healthy(report: &CheckReport) {
    match &report.verdict {
        SafetyVerdict::ProvenFree => println!(
            "  healthy network: PROVEN FREE ({} reachable configurations, none self-supporting)",
            report.configs
        ),
        SafetyVerdict::Deadlock(witness) => println!(
            "  healthy network: REFUTED — {}/{} configurations self-supporting; witness: {} \
             worms ({} stranded)",
            report.survivors,
            report.configs,
            witness.worms.len(),
            witness.stranded()
        ),
    }
}

fn print_adversary(topo: &Topology, report: &AdversaryReport) {
    println!(
        "  adversary: {} plans tried, {} admitted, {} unsupported, {} proven free, {} refuted",
        report.plans_tried,
        report.plans_admitted,
        report.plans_unsupported,
        report.plans_proven_free,
        report.plans_refuted
    );
    for refutation in &report.refutations {
        let when = if refutation.plan.is_static() {
            String::new()
        } else {
            format!(" at cycle {}", refutation.epoch)
        };
        println!(
            "    refuted {} claim{} with {} fault(s) (minimized from {}): {} — {} stranded, {} \
             survivors, CDG {}",
            refutation.claim,
            when,
            refutation.plan.len(),
            refutation.original_len,
            plan_label(topo, refutation),
            refutation.stranded,
            refutation.survivors,
            if refutation.masked_cyclic {
                "cyclic too"
            } else {
                "blind to it"
            }
        );
    }
}

fn main() {
    let spec: VerifyArgs = cli::parse_or_exit();
    match run(&spec) {
        Ok(false) => {}
        Ok(true) => {
            eprintln!("SAFETY VIOLATION: a guaranteed deadlock-freedom claim was refuted");
            std::process::exit(1);
        }
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}

/// Checks and attacks every selected algorithm; `Ok(true)` when the
/// adversary refuted a `Guaranteed` claim.
fn run(spec: &VerifyArgs) -> Result<bool, String> {
    if let Some(dir) = &spec.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut guaranteed_refuted = false;
    for kind in &spec.algorithms {
        let algo: Box<dyn RoutingAlgorithm> = match kind.build(&spec.topology) {
            Ok(algo) => algo,
            Err(e) => {
                eprintln!("skipping {kind}: {e:?}");
                continue;
            }
        };
        println!("== {} on {} ==", algo.name(), spec.topology.label());
        let healthy = check(&spec.topology, algo.as_ref()).map_err(|e| e.to_string())?;
        print_healthy(&healthy);
        let adversary = search_faults(&spec.topology, algo.as_ref(), &spec.config)
            .map_err(|e| e.to_string())?;
        print_adversary(&spec.topology, &adversary);
        for (k, refutation) in adversary.refutations.iter().enumerate() {
            guaranteed_refuted |= refutation.claim == FaultTolerance::Guaranteed;
            if let Some(dir) = &spec.out {
                let path = dir.join(format!("verify-{}-{k}.counterexample.json", algo.name()));
                let text = counterexample_json(&spec.topology, algo.name(), refutation);
                atomic_write(&path, text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("    counterexample written to {}", path.display());
            }
        }
        println!();
    }
    Ok(guaranteed_refuted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim::verify::AdversaryConfig;
    use wormsim::AlgorithmKind;

    fn parse(args: &[&str]) -> Result<VerifyArgs, String> {
        Ok(cli::parse(args.iter().map(|s| (*s).to_owned()))?.expect("no --help"))
    }

    #[test]
    fn args_parse() {
        let spec = parse(&["--smoke"]).unwrap();
        assert_eq!(spec.topology.label(), "torus:4x4");
        assert_eq!(spec.algorithms.len(), 6);
        assert_eq!(spec.config.max_faults, 1);
        let spec = parse(&["--topo", "mesh:4x4", "--algos", "phop", "--max-faults", "2"]).unwrap();
        assert_eq!(spec.topology.label(), "mesh:4x4");
        assert_eq!(spec.algorithms, vec![AlgorithmKind::PositiveHop]);
        assert_eq!(spec.config.max_faults, 2);
        assert!(!spec.config.node_faults);
        let spec = parse(&[
            "--node-faults",
            "--transient-plans",
            "3",
            "--transient-faults",
            "2",
        ])
        .unwrap();
        assert!(spec.config.node_faults);
        assert_eq!(spec.config.transient_plans, 3);
        assert_eq!(spec.config.transient_faults, 2);
        assert!(parse(&["--transient-plans", "x"]).is_err());
        assert!(parse(&["--max-faults"]).is_err());
        assert!(parse(&["--max-faults", "x"]).is_err());
        assert!(parse(&["--warp"]).is_err());
    }

    #[test]
    fn smoke_caps_fault_horizon_but_keeps_explicit_topo() {
        let spec = parse(&["--topo", "torus:3x3", "--smoke", "--max-faults", "4"]).unwrap();
        assert_eq!(spec.topology.label(), "torus:3x3");
        assert_eq!(spec.config.max_faults, 1, "--smoke caps the horizon");
    }

    #[test]
    fn counterexample_artifact_is_valid_json() {
        let topo = Topology::torus(&[4, 4]);
        let algo = AlgorithmKind::NaiveMinimal.build(&topo).unwrap();
        let config = AdversaryConfig {
            max_faults: 0,
            ..AdversaryConfig::default()
        };
        let report = search_faults(&topo, algo.as_ref(), &config).unwrap();
        let text = counterexample_json(&topo, "naive", &report.refutations[0]);
        let value = wormsim::observe::json::from_str(&text).expect("artifact parses");
        assert_eq!(
            value.get("type").and_then(|v| v.as_str()),
            Some("counterexample")
        );
        assert_eq!(
            value.get("claim").and_then(|v| v.as_str()),
            Some("guaranteed")
        );
        assert!(value
            .get("witness")
            .and_then(|v| v.as_array())
            .is_some_and(|w| !w.is_empty()));
    }
}
