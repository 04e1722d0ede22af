//! User-facing configuration for what to observe and where to put it.

use std::path::PathBuf;

/// Samples are taken every this many cycles when a stride of 0 is given.
pub const DEFAULT_SAMPLE_EVERY: u64 = 1_000;

/// Where and how densely to record a run's observability streams.
///
/// An all-`None` config (the default) disables observability entirely; the
/// engine then pays one predicted-not-taken branch per event site.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObserveConfig {
    /// Directory for `<run_id>.samples.jsonl` and `<run_id>.manifest.json`.
    /// `None` disables sampling and manifests.
    pub out_dir: Option<PathBuf>,
    /// Directory for `<run_id>.trace.jsonl` full event traces. `None`
    /// disables trace streaming. Traces are much larger than samples, so
    /// this is separate from `out_dir`.
    pub trace_dir: Option<PathBuf>,
    /// Cycles between samples; 0 means `DEFAULT_SAMPLE_EVERY` (1 000).
    pub sample_every: u64,
    /// Prefix for generated run ids (typically the figure or sweep name).
    pub prefix: String,
    /// Enable the deep-telemetry [`MetricsRegistry`](crate::MetricsRegistry):
    /// per-channel/per-VC-class counters, latency histogram, phase profiler,
    /// and the `<run_id>.metrics.json` + `<run_id>.heatmap.csv` exports.
    /// Only takes effect when [`out_dir`](Self::out_dir) is set.
    pub metrics: bool,
}

impl ObserveConfig {
    /// Whether any output is requested at all.
    pub fn enabled(&self) -> bool {
        self.out_dir.is_some() || self.trace_dir.is_some()
    }

    /// The effective sampling stride.
    pub fn stride(&self) -> u64 {
        if self.sample_every == 0 {
            DEFAULT_SAMPLE_EVERY
        } else {
            self.sample_every
        }
    }

    /// Builds a filesystem-safe run id from the prefix and `parts`
    /// (algorithm, traffic, load, seed, ...). Anything outside
    /// `[A-Za-z0-9._-]` becomes `_`.
    pub fn run_id(&self, parts: &[&str]) -> String {
        let mut id = String::new();
        for part in std::iter::once(&self.prefix.as_str()).chain(parts.iter()) {
            if part.is_empty() {
                continue;
            }
            if !id.is_empty() {
                id.push('-');
            }
            for c in part.chars() {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    id.push(c);
                } else {
                    id.push('_');
                }
            }
        }
        if id.is_empty() {
            id.push_str("run");
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let config = ObserveConfig::default();
        assert!(!config.enabled());
        assert_eq!(config.stride(), DEFAULT_SAMPLE_EVERY);
    }

    #[test]
    fn any_dir_enables() {
        let with_out = ObserveConfig {
            out_dir: Some(PathBuf::from("/tmp/x")),
            ..ObserveConfig::default()
        };
        assert!(with_out.enabled());
        let with_trace = ObserveConfig {
            trace_dir: Some(PathBuf::from("/tmp/x")),
            ..ObserveConfig::default()
        };
        assert!(with_trace.enabled());
    }

    #[test]
    fn stride_override() {
        let config = ObserveConfig {
            sample_every: 250,
            ..ObserveConfig::default()
        };
        assert_eq!(config.stride(), 250);
    }

    #[test]
    fn run_id_sanitizes() {
        let config = ObserveConfig {
            prefix: "fig3".to_owned(),
            ..ObserveConfig::default()
        };
        assert_eq!(
            config.run_id(&["nbc", "bit reversal", "l0.40", "s42"]),
            "fig3-nbc-bit_reversal-l0.40-s42"
        );
        assert_eq!(ObserveConfig::default().run_id(&[]), "run");
    }
}
