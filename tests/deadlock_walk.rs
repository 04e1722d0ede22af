//! Pins what the CDG analysis and the bounded checker report on the small
//! networks, byte for byte: for every buildable (network, algorithm, mask)
//! triple, the CDG's acyclic flag, vertex and edge counts, cycle, excluded
//! pairs and blocked states, and the checker's verdict, configuration
//! counts, excluded pairs, survivor channels and full witness.
//!
//! `tests/golden/deadlock_walk.txt` was written by the code from before
//! the two analyses shared one walk over the routing relation, so it
//! proves that sharing changed no count, cycle or witness. Never
//! regenerate it from the current code.

use std::fmt::Write as _;
use wormsim::routing::deadlock::{analyze_masked, CdgReport, VirtualChannelId};
use wormsim::topology::{ChannelMask, Direction, Sign, Topology};
use wormsim::verify::{check_masked, SafetyVerdict};
use wormsim::AlgorithmKind;

const GOLDEN: &str = include_str!("golden/deadlock_walk.txt");

fn vcs(list: &[VirtualChannelId]) -> String {
    let items: Vec<String> = list
        .iter()
        .map(|v| format!("{}.{}", v.channel.index(), v.class))
        .collect();
    format!("[{}]", items.join(","))
}

fn numbers<T: ToString>(list: &[T]) -> String {
    let items: Vec<String> = list.iter().map(T::to_string).collect();
    format!("[{}]", items.join(","))
}

/// The healthy mask, one dead link `(0,..)d0+` and one dead node
/// `(1,1,0..)`, each with its label.
fn masks(topo: &Topology) -> Vec<(&'static str, ChannelMask)> {
    let at = |head: &[u16]| {
        let mut coords = head.to_vec();
        coords.resize(topo.num_dims(), 0);
        topo.node_at(&coords)
    };
    let healthy = ChannelMask::all_alive(topo);
    let mut link = healthy.clone();
    link.kill_channel(topo.channel(at(&[0, 0]), Direction::new(0, Sign::Plus)));
    let mut node = healthy.clone();
    node.kill_node(topo, at(&[1, 1]));
    vec![("healthy", healthy), ("link", link), ("node", node)]
}

/// One line per buildable triple.
fn render() -> String {
    let networks = [
        Topology::torus(&[4, 4]),
        Topology::torus(&[3, 3]),
        Topology::torus(&[6, 6]),
        Topology::mesh(&[4, 4]),
        Topology::mesh(&[3, 3]),
        Topology::torus(&[2, 4, 4]),
    ];
    let mut out = String::new();
    for topo in &networks {
        for kind in AlgorithmKind::extended() {
            let Ok(algo) = kind.build(topo) else {
                continue;
            };
            for (label, mask) in masks(topo) {
                let cdg = analyze_masked(topo, &mask, algo.as_ref());
                let cycle = match &cdg.report {
                    CdgReport::Acyclic { .. } => "none".to_owned(),
                    CdgReport::Cyclic { cycle, .. } => vcs(cycle),
                };
                let checked = check_masked(topo, &mask, algo.as_ref()).unwrap();
                let _ = write!(
                    out,
                    "{} {kind} {label} | cdg acyclic={} v={} e={} excluded={} blocked={} \
                     cycle={cycle} | check configs={} survivors={} stranded={} excluded={} \
                     channels={}",
                    topo.label(),
                    cdg.report.is_acyclic(),
                    cdg.report.vertices(),
                    cdg.report.edges(),
                    cdg.excluded_pairs,
                    cdg.blocked_states,
                    checked.configs,
                    checked.survivors,
                    checked.stranded,
                    checked.excluded_pairs,
                    numbers(&checked.survivor_channels),
                );
                match &checked.verdict {
                    SafetyVerdict::ProvenFree => out.push_str(" free"),
                    SafetyVerdict::Deadlock(witness) => {
                        let worms: Vec<String> = witness
                            .worms
                            .iter()
                            .map(|w| {
                                format!(
                                    "{}>{}@{} held={} path={} waits={}",
                                    w.src.index(),
                                    w.dest.index(),
                                    w.node.index(),
                                    vcs(&[w.held]),
                                    vcs(&w.path),
                                    vcs(&w.waits)
                                )
                            })
                            .collect();
                        let _ = write!(
                            out,
                            " witness schedule={} worms={}",
                            numbers(&witness.schedule),
                            worms.join(";")
                        );
                    }
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn cdg_and_checker_reports_match_the_golden() {
    let now = render();
    if now != GOLDEN {
        let first = now
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(now.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "line {} differs from tests/golden/deadlock_walk.txt:\n  now:    {:?}\n  golden: {:?}",
            first + 1,
            now.lines().nth(first),
            GOLDEN.lines().nth(first)
        );
    }
}
