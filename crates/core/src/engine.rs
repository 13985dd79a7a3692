//! Bounded query processing (§3.2).
//!
//! The engine answers a query against the smallest admissible impression,
//! checks whether the resulting confidence interval satisfies the user's
//! error bound, and — if not — escalates to the next, more detailed
//! impression of the same hierarchy, ultimately falling through to the base
//! data for a zero error margin. Runtime bounds are enforced by restricting
//! which levels are admissible: a level is only considered if the number of
//! rows it would scan fits the query's row budget (the analogue of "give me
//! the most representative result you can obtain within 5 minutes") and, if a
//! wall-clock budget is given, by stopping escalation once the budget is
//! exhausted. The reported `time_bound_met` is *measured* at the moment the
//! answer is produced — an evaluation that blows the clock mid-level returns
//! its best effort flagged `time_bound_met: false`, never a bound it did not
//! actually keep.
//!
//! This module holds the bounds and the engine. Every query kind has the
//! one escalation loop in [`crate::batch`],
//! [`BoundedQueryEngine::execute_batch`], which also carries the
//! degradation ladder; [`BoundedQueryEngine::execute_aggregate`] is a batch
//! of one. Scans over the base data and large impressions fan out across
//! the shards configured by [`SciborqConfig::parallelism`]; the merge order
//! is fixed, so sharded answers are bit-identical to single-threaded ones.

use crate::answer::{ApproximateAnswer, QueryOutcome};
use crate::config::SciborqConfig;
use crate::error::{Result, SciborqError};
use crate::layer::LayerHierarchy;
use parking_lot::RwLock;
use sciborq_columnar::Table;
use sciborq_workload::Query;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The base data a query may fall through to. A locked table is read only
/// if some query's escalation actually reaches the base level, so queries
/// answered by an impression never hold the table's read lock (and never
/// hold up a load appending to it).
#[derive(Debug, Clone, Copy)]
pub enum BaseData<'a> {
    /// No base fall-through: impressions only.
    None,
    /// A table the caller already holds.
    Table(&'a Table),
    /// A shared table (a catalog entry), read-locked for the base pass only.
    Locked(&'a RwLock<Table>),
}

impl BaseData<'_> {
    /// Run `scan` over the base table, read-locking it for the duration;
    /// `None` when there is no base data.
    pub(crate) fn with_table<R>(self, scan: impl FnOnce(&Table) -> R) -> Option<R> {
        match self {
            BaseData::None => None,
            BaseData::Table(table) => Some(scan(table)),
            BaseData::Locked(lock) => Some(scan(&lock.read())),
        }
    }
}

impl<'a> From<Option<&'a Table>> for BaseData<'a> {
    fn from(table: Option<&'a Table>) -> Self {
        table.map_or(BaseData::None, BaseData::Table)
    }
}

/// The bounds a query must be answered under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryBounds {
    /// Maximum acceptable relative error (half-width of the confidence
    /// interval divided by the estimate). `None` means "no error bound".
    pub max_relative_error: Option<f64>,
    /// Confidence level of the error bound.
    pub confidence: f64,
    /// Maximum number of rows the engine may scan in its *final* evaluation
    /// — the knob that bounds execution time. `None` means unlimited (the
    /// base data is admissible). Levels are admitted by their row count;
    /// the measured `rows_scanned` an answer reports counts per-pass kernel
    /// visits and can exceed an admitted level's row count for conjunctive
    /// predicates (one pass per conjunct).
    pub max_rows_scanned: Option<u64>,
    /// Optional wall-clock budget; escalation stops once it is exceeded.
    pub time_budget: Option<Duration>,
    /// For SELECT queries: the minimum number of result rows that makes an
    /// impression-level answer acceptable (defaults to the query LIMIT).
    pub min_result_rows: Option<usize>,
}

impl QueryBounds {
    /// Bounds requesting a maximum relative error at 95% confidence and no
    /// runtime restriction.
    pub fn max_error(error: f64) -> Self {
        QueryBounds {
            max_relative_error: Some(error),
            ..QueryBounds::default()
        }
    }

    /// Bounds requesting a row-scan budget (runtime bound) and no error
    /// bound: "the most representative result obtainable within the budget".
    pub fn row_budget(rows: u64) -> Self {
        QueryBounds {
            max_rows_scanned: Some(rows),
            max_relative_error: None,
            ..QueryBounds::default()
        }
    }

    /// Add a wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Add an error bound.
    pub fn with_max_error(mut self, error: f64) -> Self {
        self.max_relative_error = Some(error);
        self
    }

    /// Validate the bounds.
    pub fn validate(&self) -> Result<()> {
        if let Some(e) = self.max_relative_error {
            if !(e > 0.0) || !e.is_finite() {
                return Err(SciborqError::InvalidConfig(
                    "max_relative_error must be positive and finite".to_owned(),
                ));
            }
        }
        if !(0.0 < self.confidence && self.confidence < 1.0) {
            return Err(SciborqError::InvalidConfig(
                "confidence must lie strictly between 0 and 1".to_owned(),
            ));
        }
        if self.max_rows_scanned == Some(0) {
            return Err(SciborqError::InvalidConfig(
                "max_rows_scanned must be positive".to_owned(),
            ));
        }
        Ok(())
    }
}

impl Default for QueryBounds {
    fn default() -> Self {
        QueryBounds {
            max_relative_error: None,
            confidence: 0.95,
            max_rows_scanned: None,
            time_budget: None,
            min_result_rows: None,
        }
    }
}

/// The bounded query engine.
#[derive(Debug, Clone)]
pub struct BoundedQueryEngine {
    config: SciborqConfig,
}

impl BoundedQueryEngine {
    /// Create an engine with the given configuration.
    pub fn new(config: SciborqConfig) -> Result<Self> {
        config.validate().map_err(SciborqError::InvalidConfig)?;
        Ok(BoundedQueryEngine { config })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SciborqConfig {
        &self.config
    }

    /// Answer an aggregate query under bounds, escalating through the
    /// hierarchy and optionally into the base table.
    ///
    /// `base_table` is the ground-truth table used when no impression can
    /// satisfy the error bound within the runtime budget (layer 0). The
    /// query runs as a batch of one through
    /// [`BoundedQueryEngine::execute_batch`], the one escalation loop; a
    /// SELECT is rejected with a typed error (it answers with rows, through
    /// `execute_batch`).
    pub fn execute_aggregate(
        &self,
        query: &Query,
        hierarchy: &LayerHierarchy,
        base_table: Option<&Table>,
        bounds: &QueryBounds,
    ) -> Result<ApproximateAnswer> {
        match self
            .execute_batch(&[(query, bounds)], hierarchy, base_table)
            .pop()
            .expect("a batch answers every request")?
        {
            QueryOutcome::Aggregate(answer) => Ok(answer),
            QueryOutcome::Rows(_) => Err(SciborqError::InvalidConfig(
                "execute_aggregate called with a SELECT query; use execute_batch".to_owned(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::{EvaluationLevel, SelectAnswer};
    use crate::policy::SamplingPolicy;
    use sciborq_columnar::{
        AggregateKind, DataType, Field, Predicate, RecordBatchBuilder, Schema, SchemaRef, Value,
    };

    fn schema() -> SchemaRef {
        Schema::shared(vec![
            Field::new("objid", DataType::Int64),
            Field::new("ra", DataType::Float64),
            Field::new("r_mag", DataType::Float64),
        ])
        .unwrap()
    }

    /// 100k rows; ra uniform in [0, 360); r_mag = 15 + (objid mod 10).
    fn base_table(rows: usize) -> Table {
        let mut b = RecordBatchBuilder::with_capacity(schema(), rows);
        for i in 0..rows as i64 {
            b.push_row(&[
                Value::Int64(i),
                Value::Float64((i % 3600) as f64 / 10.0),
                Value::Float64(15.0 + (i % 10) as f64),
            ])
            .unwrap();
        }
        let mut t = Table::new("photoobj", schema());
        t.append_batch(&b.finish().unwrap()).unwrap();
        t
    }

    fn hierarchy(table: &Table, sizes: Vec<usize>) -> LayerHierarchy {
        let config = SciborqConfig::with_layers(sizes);
        LayerHierarchy::build_from_table(table, SamplingPolicy::Uniform, &config, None).unwrap()
    }

    fn engine() -> BoundedQueryEngine {
        BoundedQueryEngine::new(SciborqConfig::default()).unwrap()
    }

    /// A SELECT as a batch of one.
    fn select(
        engine: &BoundedQueryEngine,
        query: &Query,
        h: &LayerHierarchy,
        table: &Table,
        bounds: &QueryBounds,
    ) -> Result<SelectAnswer> {
        match engine
            .execute_batch(&[(query, bounds)], h, Some(table))
            .pop()
            .unwrap()?
        {
            QueryOutcome::Rows(answer) => Ok(answer),
            QueryOutcome::Aggregate(_) => panic!("a SELECT answers with rows"),
        }
    }

    #[test]
    fn bounds_validation() {
        assert!(QueryBounds::default().validate().is_ok());
        assert!(QueryBounds::max_error(0.0).validate().is_err());
        let b = QueryBounds {
            confidence: 1.0,
            ..QueryBounds::default()
        };
        assert!(b.validate().is_err());
        let b = QueryBounds {
            max_rows_scanned: Some(0),
            ..QueryBounds::default()
        };
        assert!(b.validate().is_err());
        assert!(QueryBounds::row_budget(100)
            .with_max_error(0.1)
            .with_time_budget(Duration::from_secs(1))
            .validate()
            .is_ok());
    }

    #[test]
    fn invalid_engine_config_rejected() {
        let cfg = SciborqConfig::with_layers(vec![]);
        assert!(BoundedQueryEngine::new(cfg).is_err());
    }

    #[test]
    fn count_estimate_close_to_truth_and_bounded() {
        let table = base_table(100_000);
        let h = hierarchy(&table, vec![10_000, 1_000]);
        // predicate matching 25% of rows
        let query = Query::count("photoobj", Predicate::lt("ra", 90.0));
        let answer = engine()
            .execute_aggregate(&query, &h, Some(&table), &QueryBounds::max_error(0.05))
            .unwrap();
        let truth = 25_000.0;
        let estimate = answer.value.unwrap();
        assert!(
            (estimate - truth).abs() / truth < 0.1,
            "estimate {estimate} vs truth {truth}"
        );
        assert!(answer.error_bound_met);
        assert!(answer.interval.unwrap().covers(truth));
        assert!(answer.rows_scanned >= 1_000);
    }

    #[test]
    fn loose_error_bound_answered_on_small_layer() {
        let table = base_table(100_000);
        let h = hierarchy(&table, vec![10_000, 1_000]);
        let query = Query::count("photoobj", Predicate::lt("ra", 180.0));
        let answer = engine()
            .execute_aggregate(&query, &h, Some(&table), &QueryBounds::max_error(0.2))
            .unwrap();
        assert_eq!(answer.level, EvaluationLevel::Layer(2));
        assert_eq!(answer.escalations, 0);
        assert!(answer.error_bound_met);
    }

    #[test]
    fn tight_error_bound_escalates_to_larger_layer() {
        let table = base_table(100_000);
        let h = hierarchy(&table, vec![10_000, 500]);
        // 10% selectivity: the 500-row layer gives ~50 matches -> ~28% error,
        // the 10k layer gives ~1000 matches -> ~6% error.
        let query = Query::count("photoobj", Predicate::lt("ra", 36.0));
        let answer = engine()
            .execute_aggregate(&query, &h, Some(&table), &QueryBounds::max_error(0.08))
            .unwrap();
        assert_eq!(answer.level, EvaluationLevel::Layer(1));
        assert!(answer.escalations >= 1);
        assert!(answer.error_bound_met);
    }

    #[test]
    fn zero_error_demand_falls_through_to_base_data() {
        let table = base_table(20_000);
        let h = hierarchy(&table, vec![2_000, 200]);
        let query = Query::count("photoobj", Predicate::lt("ra", 36.0));
        let answer = engine()
            .execute_aggregate(&query, &h, Some(&table), &QueryBounds::max_error(1e-9))
            .unwrap();
        assert_eq!(answer.level, EvaluationLevel::BaseData);
        assert!(answer.is_exact());
        // ra < 36 matches i % 3600 < 360: 5 full cycles of 360 plus the
        // partial cycle 18000..20000 contributes another 360.
        assert_eq!(answer.value.unwrap(), 2_160.0);
        assert_eq!(answer.relative_error(), 0.0);
        assert!(answer.escalations >= 2);
    }

    #[test]
    fn row_budget_restricts_levels() {
        let table = base_table(50_000);
        let h = hierarchy(&table, vec![5_000, 500]);
        let query = Query::count("photoobj", Predicate::lt("ra", 180.0));
        // budget allows only the 500-row layer
        let answer = engine()
            .execute_aggregate(&query, &h, Some(&table), &QueryBounds::row_budget(1_000))
            .unwrap();
        assert_eq!(answer.level, EvaluationLevel::Layer(2));
        assert!(answer.time_bound_met);
        assert!(answer.rows_scanned <= 1_000);
        // with an unlimited budget but no error bound the smallest layer wins
        // only if it satisfies the (infinite) error bound, which it does
        let unlimited = engine()
            .execute_aggregate(&query, &h, Some(&table), &QueryBounds::default())
            .unwrap();
        assert_eq!(unlimited.level, EvaluationLevel::Layer(2));
    }

    #[test]
    fn conflicting_bounds_return_best_effort_within_time() {
        let table = base_table(50_000);
        let h = hierarchy(&table, vec![5_000, 500]);
        // 1% selectivity with tiny row budget: error bound cannot be met
        let query = Query::count("photoobj", Predicate::lt("ra", 3.6));
        let bounds = QueryBounds::row_budget(1_000).with_max_error(0.01);
        let answer = engine()
            .execute_aggregate(&query, &h, Some(&table), &bounds)
            .unwrap();
        assert_eq!(answer.level, EvaluationLevel::Layer(2));
        assert!(!answer.error_bound_met);
        assert!(answer.time_bound_met);
    }

    #[test]
    fn impossible_row_budget_is_an_error() {
        let table = base_table(10_000);
        let h = hierarchy(&table, vec![1_000, 100]);
        let query = Query::count("photoobj", Predicate::True);
        let err = engine()
            .execute_aggregate(&query, &h, Some(&table), &QueryBounds::row_budget(10))
            .unwrap_err();
        assert!(matches!(err, SciborqError::BoundsUnsatisfiable(_)));
    }

    #[test]
    fn avg_and_sum_estimates() {
        let table = base_table(50_000);
        let h = hierarchy(&table, vec![5_000]);
        let avg_query = Query::aggregate("photoobj", Predicate::True, AggregateKind::Avg, "r_mag");
        let answer = engine()
            .execute_aggregate(&avg_query, &h, Some(&table), &QueryBounds::max_error(0.05))
            .unwrap();
        // true mean of 15 + (i mod 10) is 19.5
        assert!((answer.value.unwrap() - 19.5).abs() < 0.5);

        let sum_query = Query::aggregate(
            "photoobj",
            Predicate::lt("ra", 180.0),
            AggregateKind::Sum,
            "r_mag",
        );
        let answer = engine()
            .execute_aggregate(&sum_query, &h, Some(&table), &QueryBounds::max_error(0.1))
            .unwrap();
        let truth = 19.5 * 25_000.0;
        assert!((answer.value.unwrap() - truth).abs() / truth < 0.15);
    }

    #[test]
    fn avg_with_no_matches_escalates_and_reports_exact_empty() {
        let table = base_table(10_000);
        let h = hierarchy(&table, vec![1_000, 100]);
        let query = Query::aggregate(
            "photoobj",
            Predicate::gt("ra", 999.0),
            AggregateKind::Avg,
            "r_mag",
        );
        let answer = engine()
            .execute_aggregate(&query, &h, Some(&table), &QueryBounds::max_error(0.1))
            .unwrap();
        // nothing matches anywhere: the engine ends at the base data with an
        // undefined average
        assert_eq!(answer.level, EvaluationLevel::BaseData);
        assert_eq!(answer.value, None);
    }

    #[test]
    fn min_max_escalate_to_base_when_error_bound_requested() {
        let table = base_table(10_000);
        let h = hierarchy(&table, vec![1_000]);
        let query = Query::aggregate("photoobj", Predicate::True, AggregateKind::Max, "r_mag");
        let bounded = engine()
            .execute_aggregate(&query, &h, Some(&table), &QueryBounds::max_error(0.01))
            .unwrap();
        assert_eq!(bounded.level, EvaluationLevel::BaseData);
        assert_eq!(bounded.value.unwrap(), 24.0);
        // without an error bound the sample extreme is acceptable
        let unbounded = engine()
            .execute_aggregate(&query, &h, Some(&table), &QueryBounds::default())
            .unwrap();
        assert!(unbounded.value.unwrap() <= 24.0);
    }

    #[test]
    fn blown_time_budget_is_reported_honestly() {
        let table = base_table(50_000);
        let h = hierarchy(&table, vec![5_000, 500]);
        // 1% selectivity: the 500-row layer cannot meet a 1% error bound, so
        // without a time budget the engine would escalate. A zero budget is
        // blown the moment the first level finishes: the engine must stop
        // there and must NOT claim the time bound was met.
        let query = Query::count("photoobj", Predicate::lt("ra", 3.6));
        let bounds = QueryBounds::max_error(0.01).with_time_budget(Duration::ZERO);
        let answer = engine()
            .execute_aggregate(&query, &h, Some(&table), &bounds)
            .unwrap();
        assert_eq!(answer.level, EvaluationLevel::Layer(2));
        assert_eq!(answer.escalations, 0);
        assert!(!answer.error_bound_met);
        assert!(
            !answer.time_bound_met,
            "a zero time budget cannot have been met"
        );
    }

    #[test]
    fn met_error_bound_does_not_excuse_a_blown_clock() {
        let table = base_table(50_000);
        let h = hierarchy(&table, vec![5_000, 500]);
        // the loosest possible bound is met on the very first level, but the
        // zero clock budget was still blown while evaluating it
        let query = Query::count("photoobj", Predicate::lt("ra", 180.0));
        let bounds = QueryBounds::max_error(0.5).with_time_budget(Duration::ZERO);
        let answer = engine()
            .execute_aggregate(&query, &h, Some(&table), &bounds)
            .unwrap();
        assert!(answer.error_bound_met);
        assert!(!answer.time_bound_met);
    }

    #[test]
    fn generous_time_budget_reports_met_through_base_data() {
        let table = base_table(20_000);
        let h = hierarchy(&table, vec![2_000, 200]);
        let query = Query::count("photoobj", Predicate::lt("ra", 36.0));
        let bounds = QueryBounds::max_error(1e-9).with_time_budget(Duration::from_secs(60));
        let answer = engine()
            .execute_aggregate(&query, &h, Some(&table), &bounds)
            .unwrap();
        assert_eq!(answer.level, EvaluationLevel::BaseData);
        assert!(answer.time_bound_met);
        assert!(answer.error_bound_met);
    }

    #[test]
    fn select_time_budget_stops_escalation_and_is_surfaced() {
        let table = base_table(100_000);
        let h = hierarchy(&table, vec![10_000, 1_000]);
        // 0.5% selectivity: the 1000-row layer holds ~5 matches, far short
        // of the LIMIT, so an unbounded run escalates. The zero time budget
        // pins the answer to the first level and must be reported blown.
        let query = Query::select("photoobj", Predicate::lt("ra", 1.8)).with_limit(50);
        let bounds = QueryBounds {
            time_budget: Some(Duration::ZERO),
            ..QueryBounds::default()
        };
        let answer = select(&engine(), &query, &h, &table, &bounds).unwrap();
        assert_eq!(answer.level, EvaluationLevel::Layer(2));
        assert_eq!(answer.escalations, 0);
        assert!(answer.returned_rows() < 50);
        assert!(!answer.time_bound_met);

        // without a time budget the same query escalates and reports the
        // (trivially satisfied) bound as met
        let unbounded = select(&engine(), &query, &h, &table, &QueryBounds::default()).unwrap();
        assert!(unbounded.escalations >= 1);
        assert!(unbounded.time_bound_met);
    }

    #[test]
    fn sharded_engine_answers_are_bit_identical_to_single_threaded() {
        let table = base_table(100_000);
        let h = hierarchy(&table, vec![10_000, 1_000]);
        let serial = engine();
        let sharded =
            BoundedQueryEngine::new(SciborqConfig::default().with_parallelism(4)).unwrap();
        let queries = [
            Query::count("photoobj", Predicate::lt("ra", 90.0)),
            Query::aggregate(
                "photoobj",
                Predicate::lt("ra", 180.0),
                AggregateKind::Sum,
                "r_mag",
            ),
            Query::aggregate("photoobj", Predicate::True, AggregateKind::Avg, "r_mag"),
        ];
        for query in &queries {
            // the tiny error bound forces escalation through every layer and
            // into the 100k-row base table, which fans out at parallelism 4
            let bounds = QueryBounds::max_error(1e-12);
            let a = serial
                .execute_aggregate(query, &h, Some(&table), &bounds)
                .unwrap();
            let b = sharded
                .execute_aggregate(query, &h, Some(&table), &bounds)
                .unwrap();
            assert_eq!(a.level, b.level, "level for {query}");
            assert_eq!(
                a.value.map(f64::to_bits),
                b.value.map(f64::to_bits),
                "value bits for {query}"
            );
            assert_eq!(a.rows_scanned, b.rows_scanned, "rows scanned for {query}");
            let base_scan = b.level_scans.last().expect("base level recorded");
            assert_eq!(base_scan.shards, 4, "base scan fans out for {query}");
            assert!(a.level_scans.iter().all(|l| l.shards == 1));
        }
    }

    #[test]
    fn biased_sharded_answers_are_bit_identical_to_single_threaded() {
        use sciborq_workload::{AttributeDomain, PredicateSet};
        let table = base_table(100_000);
        // a focused workload steers the biased impressions
        let mut ps = PredicateSet::new(&[("ra", AttributeDomain::new(0.0, 360.0, 36))]).unwrap();
        for _ in 0..200 {
            ps.log_value("ra", 90.0);
            ps.log_value("ra", 95.0);
        }
        let config = SciborqConfig::with_layers(vec![20_000, 2_000]);
        let h = LayerHierarchy::build_from_table(
            &table,
            SamplingPolicy::biased(["ra"]),
            &config,
            Some(&ps),
        )
        .unwrap();
        let serial = engine();
        let sharded =
            BoundedQueryEngine::new(SciborqConfig::default().with_parallelism(4)).unwrap();
        let queries = [
            Query::count("photoobj", Predicate::lt("ra", 90.0)),
            Query::aggregate(
                "photoobj",
                Predicate::lt("ra", 180.0),
                AggregateKind::Sum,
                "r_mag",
            ),
            Query::aggregate("photoobj", Predicate::True, AggregateKind::Avg, "r_mag"),
        ];
        for query in &queries {
            // the tiny error bound forces escalation through both biased
            // layers (weighted fused kernels, the 20k layer fanning out at
            // parallelism 4) and into the base table
            let bounds = QueryBounds::max_error(1e-12);
            let a = serial
                .execute_aggregate(query, &h, Some(&table), &bounds)
                .unwrap();
            let b = sharded
                .execute_aggregate(query, &h, Some(&table), &bounds)
                .unwrap();
            assert_eq!(a.level, b.level, "level for {query}");
            assert_eq!(
                a.value.map(f64::to_bits),
                b.value.map(f64::to_bits),
                "value bits for {query}"
            );
            assert_eq!(a.rows_scanned, b.rows_scanned, "rows scanned for {query}");
            // the 20k-row biased layer fans out in the sharded run …
            let layer1 = b
                .level_scans
                .iter()
                .find(|l| l.level == EvaluationLevel::Layer(1))
                .expect("layer 1 visited");
            assert_eq!(layer1.shards, 4, "biased layer-1 scan fans out for {query}");
            // … and stays single-threaded in the serial run
            assert!(a.level_scans.iter().all(|l| l.shards == 1));
        }
    }

    #[test]
    fn traces_record_escalation_and_change_no_answer_bits() {
        let table = base_table(20_000);
        let h = hierarchy(&table, vec![2_000, 200]);
        let query = Query::count("photoobj", Predicate::lt("ra", 36.0));
        let bounds = QueryBounds::max_error(1e-9);
        let plain = engine()
            .execute_aggregate(&query, &h, Some(&table), &bounds)
            .unwrap();
        assert!(plain.trace.is_none(), "tracing is off by default");
        let traced_engine =
            BoundedQueryEngine::new(SciborqConfig::default().with_collect_traces(true)).unwrap();
        let traced = traced_engine
            .execute_aggregate(&query, &h, Some(&table), &bounds)
            .unwrap();
        // telemetry neutrality: the answer bits are identical
        assert_eq!(
            plain.value.map(f64::to_bits),
            traced.value.map(f64::to_bits)
        );
        assert_eq!(plain.level, traced.level);
        assert_eq!(plain.rows_scanned, traced.rows_scanned);
        let trace = traced.trace.expect("tracing on attaches a trace");
        assert_eq!(trace.final_level, "base");
        assert_eq!(trace.escalations, traced.escalations);
        assert!(trace.error_bound_met && trace.time_bound_met);
        assert_eq!(trace.levels.len(), 3, "both layers plus base visited");
        assert_eq!(trace.levels[0].level, "layer-2");
        assert_eq!(trace.levels[2].level, "base");
        // the sampled layers missed the (tiny) bound, base met it exactly
        assert!(!trace.levels[0].error_bound_met);
        assert!(trace.levels[2].error_bound_met);
        assert_eq!(trace.levels[2].relative_error, Some(0.0));
        assert!(trace.levels.iter().all(|l| l.rows_scanned > 0));
        assert_eq!(trace.requested_error, Some(1e-9));
        assert!(
            trace.admission.is_none(),
            "direct engine calls skip admission"
        );

        // SELECT traces carry levels too
        let sel = Query::select("photoobj", Predicate::lt("ra", 36.0)).with_limit(10);
        let answer = select(&traced_engine, &sel, &h, &table, &QueryBounds::default()).unwrap();
        let trace = answer.trace.expect("select trace");
        assert!(!trace.levels.is_empty());
        assert_eq!(trace.final_level, answer.level.name());
    }

    #[test]
    fn aggregate_entry_point_rejects_select_queries() {
        let table = base_table(1_000);
        let h = hierarchy(&table, vec![100]);
        let query = Query::select("photoobj", Predicate::True);
        assert!(engine()
            .execute_aggregate(&query, &h, Some(&table), &QueryBounds::default())
            .is_err());
        // the batch entry point answers both kinds
        let agg = Query::count("photoobj", Predicate::True);
        let bounds = QueryBounds::default();
        let answers =
            engine().execute_batch(&[(&query, &bounds), (&agg, &bounds)], &h, Some(&table));
        assert!(answers[0].as_ref().unwrap().as_rows().is_some());
        assert!(answers[1].as_ref().unwrap().as_aggregate().is_some());
    }

    #[test]
    fn select_returns_limit_rows_from_impression() {
        let table = base_table(100_000);
        let h = hierarchy(&table, vec![10_000, 1_000]);
        let query = Query::select("photoobj", Predicate::lt("ra", 180.0)).with_limit(100);
        let answer = select(&engine(), &query, &h, &table, &QueryBounds::default()).unwrap();
        assert_eq!(answer.returned_rows(), 100);
        assert_eq!(answer.level, EvaluationLevel::Layer(2));
        // the returned rows all satisfy the predicate
        let check = Predicate::lt("ra", 180.0).evaluate(&answer.rows).unwrap();
        assert_eq!(check.len(), 100);
        // and the estimated total is in the right ballpark (50k)
        assert!((answer.estimated_total_matches - 50_000.0).abs() / 50_000.0 < 0.2);
    }

    #[test]
    fn selective_select_escalates_for_enough_rows() {
        let table = base_table(100_000);
        let h = hierarchy(&table, vec![10_000, 500]);
        // 0.5% selectivity: the 500-row layer holds ~2-3 matches, not 50
        let query = Query::select("photoobj", Predicate::lt("ra", 1.8)).with_limit(50);
        let answer = select(&engine(), &query, &h, &table, &QueryBounds::default()).unwrap();
        assert!(answer.returned_rows() >= 50 || answer.level == EvaluationLevel::BaseData);
        assert!(answer.escalations >= 1);
    }

    #[test]
    fn select_without_limit_falls_through_to_base() {
        let table = base_table(5_000);
        let h = hierarchy(&table, vec![500]);
        let query = Query::select("photoobj", Predicate::lt("ra", 36.0));
        let answer = select(&engine(), &query, &h, &table, &QueryBounds::default()).unwrap();
        assert_eq!(answer.level, EvaluationLevel::BaseData);
        // ra < 36 matches i % 3600 < 360: one full cycle plus the partial
        // cycle 3600..5000 contributes another 360.
        assert_eq!(answer.returned_rows(), 720);
    }

    #[test]
    fn select_with_row_budget_stays_on_impression() {
        let table = base_table(100_000);
        let h = hierarchy(&table, vec![10_000, 1_000]);
        let query = Query::select("photoobj", Predicate::lt("ra", 1.8)).with_limit(500);
        let bounds = QueryBounds::row_budget(1_000);
        let answer = select(&engine(), &query, &h, &table, &bounds).unwrap();
        // cannot satisfy 500 matches from a 1000-row impression at 0.5%
        // selectivity, but the budget forbids escalation
        assert_eq!(answer.level, EvaluationLevel::Layer(2));
        assert!(answer.returned_rows() < 500);
        assert!(answer.rows_scanned <= 1_000);
    }
}
