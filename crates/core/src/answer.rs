//! Approximate answers with explicit quality and runtime metadata.

use crate::engine::QueryBounds;
use sciborq_columnar::Table;
use sciborq_stats::ConfidenceInterval;
use sciborq_telemetry::{FaultEvent, LevelTrace, QueryTrace};
use std::fmt;
use std::time::Duration;

/// Where a query was (finally) evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluationLevel {
    /// An impression at the given 1-based layer index (1 = most detailed).
    Layer(usize),
    /// The base table (exact answer, zero error).
    BaseData,
}

impl EvaluationLevel {
    /// The level's stable telemetry name: `"layer-N"` or `"base"`. Used as
    /// a metric-name suffix and as the level identifier in query traces
    /// (the telemetry crate identifies levels by name to stay free of core
    /// types).
    pub fn name(&self) -> String {
        match self {
            EvaluationLevel::Layer(i) => format!("layer-{i}"),
            EvaluationLevel::BaseData => "base".to_owned(),
        }
    }
}

impl fmt::Display for EvaluationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvaluationLevel::Layer(i) => write!(f, "layer {i}"),
            EvaluationLevel::BaseData => write!(f, "base data"),
        }
    }
}

/// What a visited escalation level's estimate achieved — the quality-side
/// complement to [`LevelScan`]'s cost accounting. Collected by the engine
/// only when trace collection is on, and joined with the level scans to
/// build a [`QueryTrace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelEstimate {
    /// The level the estimate was computed at.
    pub level: EvaluationLevel,
    /// The relative error the estimate achieved (half-width over estimate),
    /// when an interval existed.
    pub relative_error: Option<f64>,
    /// Whether the estimate satisfied the requested error bound.
    pub error_bound_met: bool,
}

/// Join per-level scans with per-level estimates into trace levels.
fn trace_levels(scans: &[LevelScan], estimates: &[LevelEstimate]) -> Vec<LevelTrace> {
    scans
        .iter()
        .map(|scan| {
            let estimate = estimates.iter().find(|e| e.level == scan.level);
            LevelTrace {
                level: scan.level.name(),
                rows_scanned: scan.rows_scanned,
                elapsed: scan.elapsed,
                shards: scan.shards,
                relative_error: estimate.and_then(|e| e.relative_error),
                error_bound_met: estimate.is_some_and(|e| e.error_bound_met),
            }
        })
        .collect()
}

fn finite(value: Option<f64>) -> Option<f64> {
    value.filter(|v| v.is_finite())
}

/// Measured scan work for one visited escalation level.
///
/// `rows_scanned` counts the row positions the scan kernels actually
/// visited at this level — with candidate-list refinement, the later
/// predicates of a conjunction touch fewer rows, so this is *measured*
/// work rather than the old `level row count` assumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelScan {
    /// The level that was evaluated.
    pub level: EvaluationLevel,
    /// Row positions visited by the scan kernels at this level, summed
    /// across all shards when the scan fanned out (`rows_scanned` is the
    /// rolled-up per-shard accounting, so it stays comparable between
    /// single-threaded and sharded runs).
    pub rows_scanned: u64,
    /// Wall-clock time spent evaluating this level.
    pub elapsed: Duration,
    /// Number of parallel scan shards used at this level (1 = the scan ran
    /// on the calling thread). When several passes hit the same level, the
    /// widest fan-out is reported.
    pub shards: usize,
}

/// The answer to an aggregate query evaluated under bounds.
#[derive(Debug, Clone)]
pub struct ApproximateAnswer {
    /// Rendered form of the executed query.
    pub query: String,
    /// The point estimate (None when the aggregate was undefined, e.g. AVG
    /// over zero matching rows).
    pub value: Option<f64>,
    /// The confidence interval around the estimate (None when undefined).
    pub interval: Option<ConfidenceInterval>,
    /// Where the final evaluation happened.
    pub level: EvaluationLevel,
    /// Measured number of row positions the scan kernels visited across all
    /// attempted levels.
    pub rows_scanned: u64,
    /// Number of escalations to a more detailed level that were needed.
    pub escalations: usize,
    /// Wall-clock time spent answering.
    pub elapsed: Duration,
    /// Per-level measured scan accounting, in escalation order.
    pub level_scans: Vec<LevelScan>,
    /// Whether the requested error bound was met.
    pub error_bound_met: bool,
    /// Whether the runtime bounds were *actually* respected: the final
    /// evaluation stayed within the row budget **and** the wall-clock
    /// elapsed when the answer was produced was within `time_budget`. This
    /// is measured, never assumed — an engine that blows the budget while
    /// evaluating its final level reports `false` here.
    pub time_bound_met: bool,
    /// Whether the answer was degraded by a fault: an escalation level (or
    /// the base-data fall-through) was lost to a panic and the answer came
    /// from the best level that *did* complete. `error_bound_met` and
    /// `time_bound_met` are still measured honestly against what was
    /// returned — `degraded` flags that the engine could not attempt the
    /// level it wanted, not that the reported bounds are wrong. Always
    /// `false` on the fault-free path.
    pub degraded: bool,
    /// Faults, recoveries and degradations observed while answering, in
    /// occurrence order (empty on the fault-free path).
    pub fault_events: Vec<FaultEvent>,
    /// The structured execution trace, present when the configuration's
    /// `collect_traces` knob is on. Strictly observational — carries no
    /// information that feeds back into the answer.
    pub trace: Option<QueryTrace>,
}

impl ApproximateAnswer {
    /// Build this answer's execution trace from the engine's per-level
    /// quality estimates, the requested bounds, and the configured scan
    /// fan-out. The admission slot stays `None`; the serving layer fills it
    /// in when the query arrived through the front end.
    pub(crate) fn build_trace(
        &self,
        estimates: &[LevelEstimate],
        bounds: &QueryBounds,
        parallelism: usize,
    ) -> QueryTrace {
        QueryTrace {
            query: self.query.clone(),
            admission: None,
            levels: trace_levels(&self.level_scans, estimates),
            parallelism,
            final_level: self.level.name(),
            escalations: self.escalations,
            error_bound_met: self.error_bound_met,
            time_bound_met: self.time_bound_met,
            elapsed: self.elapsed,
            requested_error: finite(bounds.max_relative_error),
            time_budget: bounds.time_budget,
            degraded: self.degraded,
            faults: self.fault_events.clone(),
        }
    }
    /// Whether the answer is exact (evaluated on base data).
    pub fn is_exact(&self) -> bool {
        self.level == EvaluationLevel::BaseData
    }

    /// Number of levels (impressions and/or the base data) that were
    /// evaluated while answering.
    pub fn levels_visited(&self) -> usize {
        self.level_scans.len()
    }

    /// The relative half-width of the confidence interval (0 for exact
    /// answers, infinity when no interval could be computed).
    pub fn relative_error(&self) -> f64 {
        match &self.interval {
            Some(ci) => ci.relative_half_width(),
            None => {
                if self.is_exact() {
                    0.0
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

impl fmt::Display for ApproximateAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.value, &self.interval) {
            (Some(v), Some(ci)) => write!(
                f,
                "{v:.4} ± {:.4} ({}% CI, {}, {} rows scanned)",
                ci.half_width(),
                (ci.confidence * 100.0).round(),
                self.level,
                self.rows_scanned
            ),
            (Some(v), None) => write!(f, "{v:.4} (exact, {})", self.level),
            _ => write!(f, "undefined ({})", self.level),
        }
    }
}

/// The answer to a SELECT query evaluated against impressions.
#[derive(Debug, Clone)]
pub struct SelectAnswer {
    /// Rendered form of the executed query.
    pub query: String,
    /// The returned rows (an excerpt of the impression or base table).
    pub rows: Table,
    /// Estimated number of base-table rows matching the predicate.
    pub estimated_total_matches: f64,
    /// Where the final evaluation happened.
    pub level: EvaluationLevel,
    /// Measured number of row positions the scan kernels visited across all
    /// attempted levels.
    pub rows_scanned: u64,
    /// Number of escalations that were needed.
    pub escalations: usize,
    /// Wall-clock time spent answering.
    pub elapsed: Duration,
    /// Per-level measured scan accounting, in escalation order.
    pub level_scans: Vec<LevelScan>,
    /// Whether the runtime bounds were respected: escalation never exceeded
    /// the row budget and the answer was produced within `time_budget`
    /// (measured, like [`ApproximateAnswer::time_bound_met`]).
    pub time_bound_met: bool,
    /// Whether the answer was degraded by a fault (see
    /// [`ApproximateAnswer::degraded`]). Always `false` on the fault-free
    /// path.
    pub degraded: bool,
    /// Faults, recoveries and degradations observed while answering, in
    /// occurrence order (empty on the fault-free path).
    pub fault_events: Vec<FaultEvent>,
    /// The structured execution trace, present when the configuration's
    /// `collect_traces` knob is on (see [`ApproximateAnswer::trace`]).
    pub trace: Option<QueryTrace>,
}

impl SelectAnswer {
    /// Build this answer's execution trace. Selections carry no per-level
    /// error estimates: a level either returned enough rows (bound met) or
    /// escalation continued, so every visited level reports `relative_error:
    /// None` and the final bound verdict lives on the trace itself.
    pub(crate) fn build_trace(&self, bounds: &QueryBounds, parallelism: usize) -> QueryTrace {
        QueryTrace {
            query: self.query.clone(),
            admission: None,
            levels: trace_levels(&self.level_scans, &[]),
            parallelism,
            final_level: self.level.name(),
            escalations: self.escalations,
            error_bound_met: true,
            time_bound_met: self.time_bound_met,
            elapsed: self.elapsed,
            requested_error: finite(bounds.max_relative_error),
            time_budget: bounds.time_budget,
            degraded: self.degraded,
            faults: self.fault_events.clone(),
        }
    }
    /// Number of rows returned to the user.
    pub fn returned_rows(&self) -> usize {
        self.rows.row_count()
    }

    /// Number of levels (impressions and/or the base data) that were
    /// evaluated while answering.
    pub fn levels_visited(&self) -> usize {
        self.level_scans.len()
    }
}

/// The result of executing a query: an aggregate answer or a row answer.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// An aggregate answer with error bounds.
    Aggregate(ApproximateAnswer),
    /// A row-returning answer.
    Rows(SelectAnswer),
}

impl QueryOutcome {
    /// The aggregate answer, if this outcome is one.
    pub fn as_aggregate(&self) -> Option<&ApproximateAnswer> {
        match self {
            QueryOutcome::Aggregate(a) => Some(a),
            QueryOutcome::Rows(_) => None,
        }
    }

    /// The row answer, if this outcome is one.
    pub fn as_rows(&self) -> Option<&SelectAnswer> {
        match self {
            QueryOutcome::Rows(r) => Some(r),
            QueryOutcome::Aggregate(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciborq_columnar::{DataType, Field, Schema};

    fn interval() -> ConfidenceInterval {
        ConfidenceInterval::normal(100.0, 5.0, 0.95).unwrap()
    }

    #[test]
    fn evaluation_level_display() {
        assert_eq!(EvaluationLevel::Layer(2).to_string(), "layer 2");
        assert_eq!(EvaluationLevel::BaseData.to_string(), "base data");
        assert_eq!(EvaluationLevel::Layer(2).name(), "layer-2");
        assert_eq!(EvaluationLevel::BaseData.name(), "base");
    }

    #[test]
    fn approximate_answer_helpers() {
        let a = ApproximateAnswer {
            query: "q".into(),
            value: Some(100.0),
            interval: Some(interval()),
            level: EvaluationLevel::Layer(3),
            rows_scanned: 1_000,
            escalations: 1,
            elapsed: Duration::from_millis(5),
            level_scans: vec![
                LevelScan {
                    level: EvaluationLevel::Layer(4),
                    rows_scanned: 500,
                    elapsed: Duration::from_millis(2),
                    shards: 1,
                },
                LevelScan {
                    level: EvaluationLevel::Layer(3),
                    rows_scanned: 500,
                    elapsed: Duration::from_millis(3),
                    shards: 4,
                },
            ],
            error_bound_met: true,
            time_bound_met: true,
            degraded: false,
            fault_events: Vec::new(),
            trace: None,
        };
        assert!(!a.is_exact());
        assert_eq!(a.levels_visited(), 2);
        assert!(a.relative_error() > 0.0 && a.relative_error() < 0.2);
        let s = a.to_string();
        assert!(s.contains("layer 3"));
        assert!(s.contains("1000 rows"));
    }

    #[test]
    fn exact_answer_has_zero_error() {
        let a = ApproximateAnswer {
            query: "q".into(),
            value: Some(42.0),
            interval: None,
            level: EvaluationLevel::BaseData,
            rows_scanned: 10,
            escalations: 2,
            elapsed: Duration::ZERO,
            level_scans: Vec::new(),
            error_bound_met: true,
            time_bound_met: false,
            degraded: false,
            fault_events: Vec::new(),
            trace: None,
        };
        assert!(a.is_exact());
        assert_eq!(a.relative_error(), 0.0);
        assert!(a.to_string().contains("exact"));
    }

    #[test]
    fn undefined_answer_displays_and_reports_infinite_error() {
        let a = ApproximateAnswer {
            query: "q".into(),
            value: None,
            interval: None,
            level: EvaluationLevel::Layer(1),
            rows_scanned: 0,
            escalations: 0,
            elapsed: Duration::ZERO,
            level_scans: Vec::new(),
            error_bound_met: false,
            time_bound_met: true,
            degraded: false,
            fault_events: Vec::new(),
            trace: None,
        };
        assert_eq!(a.relative_error(), f64::INFINITY);
        assert!(a.to_string().contains("undefined"));
    }

    #[test]
    fn select_answer_counts_rows() {
        let schema = Schema::shared(vec![Field::new("x", DataType::Int64)]).unwrap();
        let mut rows = Table::new("result", schema);
        rows.append_row(&[1i64.into()]).unwrap();
        rows.append_row(&[2i64.into()]).unwrap();
        let a = SelectAnswer {
            query: "q".into(),
            rows,
            estimated_total_matches: 200.0,
            level: EvaluationLevel::Layer(1),
            rows_scanned: 50,
            escalations: 0,
            elapsed: Duration::from_micros(10),
            level_scans: Vec::new(),
            time_bound_met: true,
            degraded: false,
            fault_events: Vec::new(),
            trace: None,
        };
        assert_eq!(a.returned_rows(), 2);
        assert_eq!(a.estimated_total_matches, 200.0);
    }
}
