//! The study table behind `study <id>`, checked without simulating a
//! cycle: every row expands to a runnable plan, and the table is the
//! per-experiment index DESIGN.md documents.

use std::collections::BTreeSet;
use wormsim_bench::study::{self, STUDIES};
use wormsim_bench::SweepOptions;

#[test]
fn every_study_expands_to_a_valid_plan_and_matches_the_design_index() {
    let options = SweepOptions::default();
    for study in STUDIES {
        let points = study
            .points(&options)
            .unwrap_or_else(|e| panic!("study {}: {e}", study.id));
        assert!(!points.is_empty(), "study {} has no points", study.id);
        let mut hashes = BTreeSet::new();
        for (i, point) in points.iter().enumerate() {
            point
                .validate()
                .unwrap_or_else(|e| panic!("study {} point {i}: {e}", study.id));
            assert!(
                hashes.insert(point.point_hash()),
                "study {} simulates point {i} twice",
                study.id
            );
        }
    }

    // Only the studies that pin their own networks refuse `--topo`, through
    // the parser, with a message naming the study.
    for study in STUDIES {
        let pinned = ["hotspot_placement", "multidim", "tune"].contains(&study.id);
        match study::parse([study.id, "--topo", "torus:6x6"].map(str::to_owned)) {
            Ok(_) => assert!(!pinned, "study {} ignores --topo", study.id),
            Err(message) => assert!(
                pinned && message.contains(study.id) && message.contains("--topo"),
                "{message}"
            ),
        }
    }

    // DESIGN.md §2: the last cell of each row is the regenerator, a
    // command line ending in `study <id>`.
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md");
    let documented: BTreeSet<&str> = design
        .lines()
        .filter(|line| line.starts_with("| "))
        .filter_map(|row| row.trim_end_matches([' ', '|']).rsplit('|').next())
        .filter(|cell| cell.contains("study "))
        .filter_map(|cell| cell.trim_matches([' ', '`']).split(' ').next_back())
        .collect();
    let table: BTreeSet<&str> = STUDIES.iter().map(|study| study.id).collect();
    assert_eq!(table.len(), STUDIES.len(), "study ids are unique");
    assert_eq!(table, documented, "study table vs DESIGN.md §2");
}
