//! Paper-style reporting over a sweep's results: the two-panel figure
//! printout, the paper-vs-measured rows, the sweep CSV, and the series
//! reductions the study tables share.

use crate::plot;
use crate::reference::paper_reference;
use std::path::Path;
use wormsim::presets::FigureSpec;
use wormsim::{format_results_table, format_sweep_csv, RunResult};

/// Prints the figure in the paper's two-panel form (latency vs offered
/// load, achieved vs offered throughput), one series per algorithm.
pub fn print_figure(spec: &FigureSpec, results: &[RunResult]) {
    println!("== {} ({}) ==", spec.title, spec.id);
    let loads = &spec.loads;
    println!("\nAverage latency (cycles) vs offered channel utilization:");
    print!("{:>8}", "offered");
    for algo in &spec.algorithms {
        print!("{:>10}", algo.name());
    }
    println!();
    for (li, load) in loads.iter().enumerate() {
        print!("{load:>8.2}");
        for (ai, _) in spec.algorithms.iter().enumerate() {
            let r = &results[ai * loads.len() + li];
            print!("{:>10.1}", r.latency.mean());
        }
        println!();
    }
    println!("\nAchieved channel utilization vs offered channel utilization:");
    print!("{:>8}", "offered");
    for algo in &spec.algorithms {
        print!("{:>10}", algo.name());
    }
    println!();
    for (li, load) in loads.iter().enumerate() {
        print!("{load:>8.2}");
        for (ai, _) in spec.algorithms.iter().enumerate() {
            let r = &results[ai * loads.len() + li];
            print!("{:>10.4}", r.achieved_utilization);
        }
        println!();
    }
    println!("\nPeak achieved utilization per algorithm:");
    for (ai, algo) in spec.algorithms.iter().enumerate() {
        let series = &results[ai * loads.len()..(ai + 1) * loads.len()];
        let best = series
            .iter()
            .max_by(|a, b| {
                a.achieved_utilization
                    .partial_cmp(&b.achieved_utilization)
                    .expect("finite")
            })
            .expect("non-empty series");
        println!(
            "  {:>6}: {:.3} (at offered {:.2})",
            algo.name(),
            best.achieved_utilization,
            best.offered_load
        );
    }
    // ASCII renditions of the two panels, in the paper's style.
    let latency_series: Vec<plot::Series> = spec
        .algorithms
        .iter()
        .enumerate()
        .map(|(ai, algo)| plot::Series {
            label: algo.name().to_owned(),
            marker: plot::MARKERS[ai % plot::MARKERS.len()],
            points: loads
                .iter()
                .enumerate()
                .map(|(li, &load)| (load, results[ai * loads.len() + li].latency.mean()))
                .collect(),
        })
        .collect();
    println!(
        "{}",
        plot::render("Average latency (cycles)", &latency_series, 64, 18)
    );
    let util_series: Vec<plot::Series> = latency_series
        .iter()
        .enumerate()
        .map(|(ai, s)| plot::Series {
            label: s.label.clone(),
            marker: s.marker,
            points: loads
                .iter()
                .enumerate()
                .map(|(li, &load)| (load, results[ai * loads.len() + li].achieved_utilization))
                .collect(),
        })
        .collect();
    println!(
        "{}",
        plot::render("Achieved channel utilization", &util_series, 64, 18)
    );
    println!("{}", format_results_table(results));
}

/// Prints the paper's quoted numbers next to ours for the figure.
pub fn print_paper_comparison(spec_id: &str, results: &[RunResult]) {
    let claims = paper_reference(spec_id);
    if claims.is_empty() {
        return;
    }
    println!("Paper vs measured:");
    for claim in claims {
        let measured = (claim.measure)(results);
        println!(
            "  {:<62} paper {:>6}  measured {:>7.3}",
            claim.what, claim.paper_value, measured
        );
    }
    println!();
}

/// Writes the sweep CSV under the output directory (atomically, via a
/// temp-file rename, so a crash mid-write never leaves a torn CSV),
/// returning the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(spec_id: &str, results: &[RunResult], out_dir: &str) -> std::io::Result<String> {
    std::fs::create_dir_all(out_dir)?;
    let path = Path::new(out_dir).join(format!("{spec_id}.csv"));
    wormsim::observe::atomic_write(&path, format_sweep_csv(results))?;
    Ok(path.display().to_string())
}

/// Peak achieved utilization of one algorithm's series.
pub fn peak_utilization(results: &[RunResult], algorithm: &str) -> f64 {
    results
        .iter()
        .filter(|r| r.algorithm == algorithm)
        .map(|r| r.achieved_utilization)
        .fold(0.0, f64::max)
}

/// Latency of one algorithm at the offered load closest to `load`.
pub fn latency_at(results: &[RunResult], algorithm: &str, load: f64) -> f64 {
    results
        .iter()
        .filter(|r| r.algorithm == algorithm)
        .min_by(|a, b| {
            (a.offered_load - load)
                .abs()
                .partial_cmp(&(b.offered_load - load).abs())
                .expect("finite")
        })
        .map_or(f64::NAN, |r| r.latency.mean())
}
