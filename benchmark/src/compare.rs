//! `compare A.json B.json`: two `result.json` files, metric by metric.
//!
//! End-to-end metrics are judged against the benchmark's own bounds;
//! simulated counts and digests must match exactly. This is the tool for
//! the A/A check (two runs of one commit must agree) and for any later
//! parent-versus-change comparison.

use crate::run::{get, read_json};
use crate::spec::{self, MetricDecl, Workload};
use std::path::Path;
use std::process::ExitCode;
use wormsim::observe::json::Value;

#[derive(Clone, Copy, Debug, PartialEq)]
struct Reading {
    value: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
}

impl Reading {
    fn of(pass: &Value, metric: &str) -> Option<Reading> {
        let field = |name| get(pass, &["metrics", metric, name]).and_then(Value::as_f64);
        Some(Reading {
            value: field("value")?,
            q1: field("q1")?,
            q3: field("q3")?,
            min: field("min")?,
            max: field("max")?,
        })
    }

    /// Distance between the quartiles of the repeats, as a share of
    /// their median.
    fn spread(self) -> f64 {
        (self.q3 - self.q1) / self.value.abs()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Better,
    Worse,
    Within,
    /// The repeats of one side scatter (quartile to quartile) more than
    /// the bound and the two sides' ranges overlap: the runs cannot tell.
    Unresolved,
}

/// How far `b` is worse than `a`, as a share of `a` (negative = better).
fn worse_by(decl: &MetricDecl, a: f64, b: f64) -> f64 {
    match decl.better {
        "lower" => (b - a) / a.abs(),
        _ => (a - b) / a.abs(),
    }
}

fn judge(decl: &MetricDecl, a: Reading, b: Reading) -> Verdict {
    let bound = decl.bound.expect("only bounded metrics are judged");
    let overlap = a.min <= b.max && b.min <= a.max;
    if overlap && a.spread().max(b.spread()) > bound {
        return Verdict::Unresolved;
    }
    let worse = worse_by(decl, a.value, b.value);
    if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two result.json files".to_owned());
    };
    let a = read_json(Path::new(a_path))?;
    let b = read_json(Path::new(b_path))?;
    for key in ["seed", "smoke"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "the two files were measured with different `{key}`"
            ));
        }
    }

    let mut worse = 0;
    let mut mismatches = 0;
    println!(
        "{:<15} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for workload in Workload::ALL {
        let pass =
            |file: &'_ Value, pass: &str| get(file, &["workloads", workload.name(), pass]).cloned();
        let (Some(a_timed), Some(b_timed)) = (pass(&a, "timed"), pass(&b, "timed")) else {
            continue;
        };
        for decl in spec::end_to_end() {
            let (Some(ra), Some(rb)) = (
                Reading::of(&a_timed, &decl.name),
                Reading::of(&b_timed, &decl.name),
            ) else {
                return Err(format!("{} lacks {}", workload.name(), decl.name));
            };
            let verdict = judge(&decl, ra, rb);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<15} {:<18} {:>14.6} {:>14.6} {:>+7.1}% {:>5.0}%  {}",
                workload.name(),
                decl.name,
                ra.value,
                rb.value,
                (rb.value - ra.value) / ra.value.abs() * 100.0,
                decl.bound.unwrap_or(0.0) * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
        let failed = |v: &Value| v.get("failed").and_then(Value::as_u64);
        if failed(&b_timed) > failed(&a_timed) {
            println!(
                "{:<15} more operations failed in B than in A",
                workload.name()
            );
            worse += 1;
        }

        let mut exact = vec![(
            "timed",
            "sim_digest".to_owned(),
            a_timed.get("sim_digest") == b_timed.get("sim_digest"),
        )];
        if let (Some(a_traced), Some(b_traced)) = (pass(&a, "traced"), pass(&b, "traced")) {
            exact.push((
                "traced",
                "sim_digest".to_owned(),
                a_traced.get("sim_digest") == b_traced.get("sim_digest"),
            ));
            for decl in spec::per_layer().into_iter().filter(|d| d.exact) {
                let value =
                    |v: &Value| get(v, &["metrics", &decl.name, "value"]).and_then(Value::as_f64);
                let same = matches!((value(&a_traced), value(&b_traced)), (Some(x), Some(y)) if x.to_bits() == y.to_bits());
                exact.push(("traced", decl.name, same));
            }
        }
        let checked = exact.len();
        for (pass, name, _) in exact.iter().filter(|(_, _, same)| !same) {
            println!("{:<15} {pass} {name}: EXACT MATCH FAILED", workload.name());
            mismatches += 1;
        }
        println!(
            "{:<15} {checked} exact values (counts, digests) compared",
            workload.name()
        );
    }
    println!("{worse} worse, {mismatches} exact mismatches");
    Ok(if worse == 0 && mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(better: &'static str) -> MetricDecl {
        MetricDecl {
            name: "m".to_owned(),
            unit: "s",
            better,
            bound: Some(0.10),
            exact: false,
        }
    }

    fn tight(value: f64) -> Reading {
        Reading {
            value,
            q1: value * 0.995,
            q3: value * 1.005,
            min: value * 0.99,
            max: value * 1.01,
        }
    }

    #[test]
    fn direction_decides_which_side_of_the_bound_is_worse() {
        assert_eq!(
            judge(&decl("lower"), tight(10.0), tight(12.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&decl("lower"), tight(10.0), tight(8.0)),
            Verdict::Better
        );
        assert_eq!(
            judge(&decl("higher"), tight(10.0), tight(12.0)),
            Verdict::Better
        );
        assert_eq!(
            judge(&decl("higher"), tight(10.0), tight(8.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&decl("lower"), tight(10.0), tight(10.5)),
            Verdict::Within
        );
    }

    #[test]
    fn wide_overlapping_repeats_are_unresolved_not_unchanged() {
        let noisy = Reading {
            value: 10.0,
            q1: 9.0,
            q3: 11.5,
            min: 8.0,
            max: 13.0,
        };
        assert_eq!(
            judge(&decl("lower"), noisy, tight(10.2)),
            Verdict::Unresolved
        );
        // Every repeat of B beats every repeat of A: resolved despite the noise.
        assert_eq!(judge(&decl("lower"), noisy, tight(5.0)), Verdict::Better);
        // One wild repeat among many does not widen the quartiles.
        let outlier = Reading {
            max: 30.0,
            ..tight(10.0)
        };
        assert_eq!(judge(&decl("lower"), outlier, tight(10.2)), Verdict::Within);
    }
}
