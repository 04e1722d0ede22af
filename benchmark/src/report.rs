//! What one measured pass of one workload produced, and its JSON forms.

use crate::spec::MetricDecl;
use crate::stats::Stat;
use std::collections::BTreeMap;
use wormsim::observe::JsonObject;

/// The result of one pass (untraced or traced) over one workload.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations checked: sweep points or engine algorithm runs.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    pub metrics: BTreeMap<String, Stat>,
    /// Hash of the simulated outputs. A simulator-only speed-up leaves it
    /// unchanged; a fidelity change does not.
    pub sim_digest: String,
    /// Findings worth a line in the report (failed checks, the accuracy
    /// figure, what a check compared).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, stat: Stat) {
        self.metrics.insert(name.into(), stat);
    }

    pub fn set_single(&mut self, name: impl Into<String>, value: f64) {
        self.set(name, Stat::single(value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Records a failed check against `operations` operations.
    pub fn fail(&mut self, operations: u64, why: impl Into<String>) {
        self.failed = (self.failed + operations).min(self.attempted);
        self.notes.push(format!("CHECK FAILED: {}", why.into()));
    }

    /// Fills every declared metric this pass did not measure with 0: the
    /// workload's path bypasses that layer.
    pub fn zero_fill(&mut self, decls: &[MetricDecl]) {
        for decl in decls {
            self.metrics
                .entry(decl.name.clone())
                .or_insert(Stat::single(0.0));
        }
    }

    fn metrics_json(&self, decls: &[MetricDecl], with_spread: bool) -> String {
        let undeclared: Vec<&String> = self
            .metrics
            .keys()
            .filter(|name| !decls.iter().any(|d| &d.name == *name))
            .collect();
        assert!(undeclared.is_empty(), "undeclared metrics {undeclared:?}");
        let mut text = String::new();
        let mut object = JsonObject::begin(&mut text);
        for decl in decls {
            let stat = self
                .metrics
                .get(&decl.name)
                .unwrap_or_else(|| panic!("declared metric {} was not measured", decl.name));
            assert!(stat.value.is_finite(), "{} is not finite", decl.name);
            let mut entry = String::new();
            let mut fields = JsonObject::begin(&mut entry);
            fields
                .field_f64("value", stat.value)
                .field_str("unit", decl.unit);
            if with_spread {
                fields
                    .field_f64("q1", stat.q1)
                    .field_f64("q3", stat.q3)
                    .field_f64("min", stat.min)
                    .field_f64("max", stat.max)
                    .field_u64("n", stat.n as u64);
            }
            fields.finish();
            object.field_raw(&decl.name, &entry);
        }
        object.finish();
        text
    }

    /// The one-line result the benchmark contract asks for on stdout.
    pub fn result_line(&self, decls: &[MetricDecl]) -> String {
        let mut text = String::new();
        let mut object = JsonObject::begin(&mut text);
        object
            .field_bool("correct", self.correct())
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw("metrics", &self.metrics_json(decls, false));
        object.finish();
        text
    }

    /// The same result with quartiles, extremes and n per metric, the digest and the
    /// notes, for `run` to fold into `result.json`.
    pub fn detail_json(&self, decls: &[MetricDecl]) -> String {
        let mut notes = String::from("[");
        for (i, note) in self.notes.iter().enumerate() {
            if i > 0 {
                notes.push(',');
            }
            // A one-field object is the writer's only way to escape a string.
            let mut escaped = String::new();
            let mut object = JsonObject::begin(&mut escaped);
            object.field_str("note", note);
            object.finish();
            notes.push_str(&escaped);
        }
        notes.push(']');
        let mut text = String::new();
        let mut object = JsonObject::begin(&mut text);
        object
            .field_bool("correct", self.correct())
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_str("sim_digest", &self.sim_digest)
            .field_raw("notes", &notes)
            .field_raw("metrics", &self.metrics_json(decls, true));
        object.finish();
        text
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self, decls: &[MetricDecl]) {
        for decl in decls {
            let Some(stat) = self.metrics.get(&decl.name) else {
                continue;
            };
            if stat.n > 1 {
                println!(
                    "  {:<34} {:>16.6} {:<9} (min {:.6}, max {:.6}, n={})",
                    decl.name, stat.value, decl.unit, stat.min, stat.max, stat.n
                );
            } else {
                println!("  {:<34} {:>16.6} {:<9}", decl.name, stat.value, decl.unit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use wormsim::observe::json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let decls = spec::end_to_end();
        let mut outcome = Outcome {
            attempted: 6,
            ..Outcome::default()
        };
        outcome.zero_fill(&decls);
        outcome.set("wall_s", Stat::of(&[1.25, 1.5, 2.0]));
        let line = outcome.result_line(&decls);
        assert!(!line.contains('\n'));
        let value = json::from_str(&line).unwrap();
        let keys: Vec<&String> = value.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = value.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), decls.len());
        let wall = metrics.get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(wall.as_object().unwrap().len(), 2);
    }

    #[test]
    fn failures_are_capped_at_attempted_and_noted() {
        let mut outcome = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        assert!(outcome.correct());
        outcome.fail(10, "bytes differ");
        assert_eq!(outcome.failed, 4);
        assert!(!outcome.correct());
        let detail = outcome.detail_json(&[]);
        let value = json::from_str(&detail).unwrap();
        assert_eq!(value.get("notes").unwrap().as_array().unwrap().len(), 1);
    }
}
