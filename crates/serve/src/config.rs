//! Serving-layer configuration.

use std::time::Duration;

/// Configuration of a [`QueryServer`](crate::server::QueryServer).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Global runtime budget: the maximum total scan cost (in rows, priced
    /// by each query's worst admissible escalation level) that may be in
    /// flight at once. `None` disables admission control entirely.
    pub global_row_budget: Option<u64>,
    /// How many admitted-but-unscheduled queries may wait for in-flight
    /// cost to drain before further arrivals are shed with a typed
    /// overload answer. `0` sheds immediately whenever the budget is full.
    pub max_waiting: usize,
    /// Whether a query whose worst admissible level exceeds the global
    /// budget may be downgraded to its cheapest admissible level (with the
    /// reply flagged `downgraded`) instead of being rejected outright.
    pub allow_downgrade: bool,
    /// Whether same-table queries (aggregates and SELECTs) are coalesced
    /// into shared scan passes. Off means every query runs its own scans
    /// (useful as a baseline; answers are identical either way).
    pub shared_scans: bool,
    /// How long the batcher waits after the first enqueued query for
    /// stragglers to coalesce into the same shared pass.
    pub batch_window: Duration,
    /// Upper bound on the number of queries fused into one shared pass.
    pub max_batch: usize,
    /// Upper bound on how long an admitted query may block waiting for
    /// global budget to drain. A query with its own wall-clock budget waits
    /// at most that budget; either way the wait is bounded and a timeout is
    /// shed with a typed `admission-timeout` overload, never a hang.
    pub admission_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            global_row_budget: None,
            max_waiting: 64,
            allow_downgrade: true,
            shared_scans: true,
            batch_window: Duration::from_micros(200),
            max_batch: 32,
            admission_timeout: Duration::from_secs(2),
        }
    }
}

impl ServeConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch must be positive".to_owned());
        }
        if self.global_row_budget == Some(0) {
            return Err("global_row_budget must be positive when set".to_owned());
        }
        if self.admission_timeout.is_zero() {
            return Err("admission_timeout must be positive".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_batch_rejected() {
        let cfg = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_budget_rejected() {
        let cfg = ServeConfig {
            global_row_budget: Some(0),
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_admission_timeout_rejected() {
        let cfg = ServeConfig {
            admission_timeout: Duration::ZERO,
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
