//! Lightweight phase timing: stopwatches and accumulated span records.
//!
//! A full `tracing` subscriber would be overkill (and is unavailable in
//! this no-dependency build); runs have a handful of coarse phases and all
//! we need is wall-clock attribution per phase.

use crate::PhaseRecord;
use std::time::Instant;

/// A started wall-clock timer.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since [`start`](Self::start).
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

/// Accumulates wall-clock spans by phase name.
///
/// Recording the same name repeatedly (e.g. one `measure` span per
/// convergence sample) sums into a single [`PhaseRecord`]; phase order is
/// first-recorded order.
#[derive(Debug, Default)]
pub struct PhaseTimings {
    phases: Vec<PhaseRecord>,
}

impl PhaseTimings {
    /// An empty set of timings.
    pub fn new() -> Self {
        PhaseTimings::default()
    }

    /// Adds a closed span to the phase named `name`.
    pub fn record(&mut self, name: &str, watch: &Stopwatch, cycles: u64) {
        let wall_seconds = watch.elapsed_secs();
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(phase) => {
                phase.wall_seconds += wall_seconds;
                phase.cycles += cycles;
            }
            None => self.phases.push(PhaseRecord {
                name: name.to_owned(),
                wall_seconds,
                cycles,
            }),
        }
    }

    /// The accumulated phases, in first-recorded order.
    pub fn phases(&self) -> &[PhaseRecord] {
        &self.phases
    }

    /// Consumes the timings, yielding the phase records.
    pub fn into_phases(self) -> Vec<PhaseRecord> {
        self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_by_name() {
        let mut timings = PhaseTimings::new();
        let watch = Stopwatch::start();
        timings.record("measure", &watch, 100);
        timings.record("gap", &watch, 10);
        timings.record("measure", &watch, 100);
        assert_eq!(timings.phases().len(), 2);
        assert_eq!(timings.phases()[0].name, "measure");
        assert_eq!(timings.phases()[0].cycles, 200);
        assert_eq!(timings.into_phases().len(), 2);
    }

    #[test]
    fn stopwatch_advances() {
        let watch = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(watch.elapsed_secs() > 0.0);
    }
}
