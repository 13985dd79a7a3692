//! Configuration of a SciBORQ deployment.

use serde::{Deserialize, Serialize};

/// Global configuration of the SciBORQ framework.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SciborqConfig {
    /// Sizes (in rows) of the impression layers, from the most detailed
    /// (layer 1, sampled from the base data) to the least detailed. Each
    /// subsequent layer is sampled from the previous one.
    pub layer_sizes: Vec<usize>,
    /// Default confidence level used for error bounds.
    pub confidence: f64,
    /// Default maximum relative error accepted without escalation.
    pub default_max_error: f64,
    /// Random seed for all samplers (reproducibility).
    pub seed: u64,
    /// Fraction of workload shift (see
    /// [`sciborq_workload::focal_shift`]) above which maintenance rebuilds
    /// the biased impressions.
    pub adapt_threshold: f64,
    /// Threshold (× uniform frequency) for a histogram bin to count as a
    /// focal region.
    pub focal_threshold: f64,
    /// Maximum number of scan shards (worker threads) the engine may fan a
    /// single scan out to. `1` keeps every scan on the calling thread.
    /// Larger tables (base-data fallbacks, big impressions) are split into
    /// this many contiguous row ranges and scanned in parallel; results are
    /// merged in fixed shard order, so answers are bit-identical to
    /// single-threaded execution regardless of this knob. Small tables stay
    /// single-threaded no matter the setting (fan-out overhead would exceed
    /// the scan). Fan-out pays off when the predicate filters: for
    /// aggregates over near-unselective predicates the sequential
    /// aggregation tail dominates and sharding buys little (bit-identity
    /// requires the float fold to stay in global row order).
    pub parallelism: usize,
    /// Number of queries the session's query log retains (the window the
    /// predicate set and focal-shift detection are derived from, §3.3). A
    /// serving deployment sizes this to its workload; must be positive.
    pub query_log_capacity: usize,
    /// Whether the engine builds a per-query execution trace
    /// ([`sciborq_telemetry::QueryTrace`]) and attaches it to answers.
    /// Tracing is strictly observational — on or off, answer bits are
    /// identical (the standing bit-identity contract covers telemetry).
    pub collect_traces: bool,
    /// Number of recent query traces the session's trace ring retains (only
    /// consulted when `collect_traces` is on); must be positive.
    pub trace_capacity: usize,
}

impl Default for SciborqConfig {
    fn default() -> Self {
        SciborqConfig {
            layer_sizes: vec![100_000, 10_000, 1_000],
            confidence: 0.95,
            default_max_error: 0.1,
            seed: 0xC1B0_52B1,
            adapt_threshold: 0.5,
            focal_threshold: 2.0,
            parallelism: 1,
            query_log_capacity: 10_000,
            collect_traces: false,
            trace_capacity: 256,
        }
    }
}

impl SciborqConfig {
    /// A configuration with explicit layer sizes and defaults for the rest.
    pub fn with_layers(layer_sizes: Vec<usize>) -> Self {
        SciborqConfig {
            layer_sizes,
            ..SciborqConfig::default()
        }
    }

    /// Validate the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.layer_sizes.is_empty() {
            return Err("at least one impression layer is required".to_owned());
        }
        if self.layer_sizes.contains(&0) {
            return Err("layer sizes must be positive".to_owned());
        }
        if self.layer_sizes.windows(2).any(|w| w[1] > w[0]) {
            return Err("layer sizes must be non-increasing (most detailed first)".to_owned());
        }
        if !(0.0 < self.confidence && self.confidence < 1.0) {
            return Err("confidence must lie strictly between 0 and 1".to_owned());
        }
        if !(self.default_max_error > 0.0) {
            return Err("default_max_error must be positive".to_owned());
        }
        if !(0.0..=1.0).contains(&self.adapt_threshold) {
            return Err("adapt_threshold must lie in [0, 1]".to_owned());
        }
        if !(self.focal_threshold > 0.0) {
            return Err("focal_threshold must be positive".to_owned());
        }
        if self.parallelism == 0 {
            return Err("parallelism must be at least 1".to_owned());
        }
        if self.query_log_capacity == 0 {
            return Err("query_log_capacity must be positive".to_owned());
        }
        if self.trace_capacity == 0 {
            return Err("trace_capacity must be positive".to_owned());
        }
        Ok(())
    }

    /// A copy of this configuration with the impression layer sizes
    /// replaced (chainable counterpart of [`SciborqConfig::with_layers`]).
    pub fn with_layer_sizes(mut self, layer_sizes: Vec<usize>) -> Self {
        self.layer_sizes = layer_sizes;
        self
    }

    /// A copy of this configuration with the default confidence level for
    /// error bounds set to `confidence`.
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    /// A copy of this configuration with the default maximum relative
    /// error set to `max_error`.
    pub fn with_default_max_error(mut self, max_error: f64) -> Self {
        self.default_max_error = max_error;
        self
    }

    /// A copy of this configuration with the sampler seed set to `seed`.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A copy of this configuration with the workload-shift rebuild
    /// threshold set to `threshold`.
    pub fn with_adapt_threshold(mut self, threshold: f64) -> Self {
        self.adapt_threshold = threshold;
        self
    }

    /// A copy of this configuration with the focal-region frequency
    /// threshold set to `threshold`.
    pub fn with_focal_threshold(mut self, threshold: f64) -> Self {
        self.focal_threshold = threshold;
        self
    }

    /// A copy of this configuration with the scan fan-out set to `shards`.
    pub fn with_parallelism(mut self, shards: usize) -> Self {
        self.parallelism = shards;
        self
    }

    /// A copy of this configuration with the query-log window set to
    /// `capacity` queries.
    pub fn with_query_log_capacity(mut self, capacity: usize) -> Self {
        self.query_log_capacity = capacity;
        self
    }

    /// A copy of this configuration with per-query trace collection turned
    /// on or off.
    pub fn with_collect_traces(mut self, on: bool) -> Self {
        self.collect_traces = on;
        self
    }

    /// A copy of this configuration with the trace ring sized to retain
    /// `capacity` recent traces.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Number of configured impression layers (excluding layer 0 = base).
    pub fn layer_count(&self) -> usize {
        self.layer_sizes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = SciborqConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.layer_count(), 3);
    }

    #[test]
    fn with_layers_builder() {
        let c = SciborqConfig::with_layers(vec![500, 50]);
        assert_eq!(c.layer_sizes, vec![500, 50]);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SciborqConfig::with_layers(vec![]);
        assert!(c.validate().is_err());
        c = SciborqConfig::with_layers(vec![100, 0]);
        assert!(c.validate().is_err());
        c = SciborqConfig::with_layers(vec![100, 1_000]);
        assert!(c.validate().is_err());
        c = SciborqConfig::default();
        c.confidence = 1.0;
        assert!(c.validate().is_err());
        c = SciborqConfig::default();
        c.default_max_error = 0.0;
        assert!(c.validate().is_err());
        c = SciborqConfig::default();
        c.adapt_threshold = 1.5;
        assert!(c.validate().is_err());
        c = SciborqConfig::default();
        c.focal_threshold = 0.0;
        assert!(c.validate().is_err());
        c = SciborqConfig::default();
        c.focal_threshold = f64::NAN;
        assert!(c.validate().is_err());
        c = SciborqConfig::default();
        c.parallelism = 0;
        assert!(c.validate().is_err());
        c = SciborqConfig::default();
        c.query_log_capacity = 0;
        assert!(c.validate().is_err());
        c = SciborqConfig::default();
        c.trace_capacity = 0;
        assert!(c.validate().is_err());
        // `seed` and `collect_traces` have no invalid value: every u64 is a
        // seed and both toggle states are valid.
        c = SciborqConfig::default()
            .with_seed(u64::MAX)
            .with_collect_traces(true);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn chainable_builders_cover_every_knob() {
        let default = SciborqConfig::default();
        let c = SciborqConfig::default()
            .with_layer_sizes(vec![2_000, 200])
            .with_confidence(0.99)
            .with_default_max_error(0.05)
            .with_seed(7)
            .with_adapt_threshold(0.25)
            .with_focal_threshold(3.0)
            .with_parallelism(4)
            .with_query_log_capacity(128)
            .with_collect_traces(true)
            .with_trace_capacity(8);
        let readme = include_str!("../../../README.md");
        // The destructure names every field with no `..`, so a new field
        // does not compile until it is listed here: set away from its
        // default by its builder above, and given a row in the README's
        // configuration reference.
        macro_rules! every_field {
            ($($field:ident: $value:expr),* $(,)?) => {
                let SciborqConfig { $($field),* } = &c;
                $(
                    assert_eq!(*$field, $value);
                    assert_ne!(*$field, default.$field, "builder left the default");
                    assert!(
                        readme.contains(concat!("| `", stringify!($field), "` |")),
                        "README has no configuration row for `{}`",
                        stringify!($field),
                    );
                )*
            };
        }
        every_field! {
            layer_sizes: vec![2_000, 200],
            confidence: 0.99,
            default_max_error: 0.05,
            seed: 7,
            adapt_threshold: 0.25,
            focal_threshold: 3.0,
            parallelism: 4,
            query_log_capacity: 128,
            collect_traces: true,
            trace_capacity: 8,
        }
        assert!(c.validate().is_ok());
    }

    #[test]
    fn parallelism_builder() {
        let c = SciborqConfig::default().with_parallelism(4);
        assert_eq!(c.parallelism, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn query_log_capacity_builder_and_default() {
        assert_eq!(SciborqConfig::default().query_log_capacity, 10_000);
        let c = SciborqConfig::default().with_query_log_capacity(128);
        assert_eq!(c.query_log_capacity, 128);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn trace_builders_and_defaults() {
        let c = SciborqConfig::default();
        assert!(!c.collect_traces);
        assert_eq!(c.trace_capacity, 256);
        let c = c.with_collect_traces(true).with_trace_capacity(8);
        assert!(c.collect_traces);
        assert_eq!(c.trace_capacity, 8);
        assert!(c.validate().is_ok());
    }
}
