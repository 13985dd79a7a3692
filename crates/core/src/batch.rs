//! Bounded query execution: the escalation loop (§3.2).
//!
//! [`BoundedQueryEngine::execute_batch`] answers a batch of queries — both
//! aggregates and SELECTs — over one impression hierarchy, and a single
//! query is a batch of one: this is the one implementation of the bounded
//! query contract. Queries escalate together from the least to the most
//! detailed admissible impression and finally into the base data, and
//! every level is **one shared scan pass**: queries that agree on their
//! predicate and sink flavour (see `SinkSpec`) are deduplicated into a
//! single [`multi_scan`] item whose result then feeds every member — an
//! aggregate's estimator, or a SELECT's LIMIT. Two SELECTs over one
//! predicate share a pass whatever their LIMITs; each truncates the shared
//! row ids to its own, and gathers its rows only from the level that
//! answers it.
//!
//! Per query the loop applies the contract's rules: a level is admitted by
//! its row count against the row budget (a level that is too big is
//! skipped, not taken as proof that later levels are too); the wall clock
//! is re-checked before every level and *measured* at every return, so an
//! answer that blew its budget says so; an aggregate is done once its error
//! bound is met (a sampled zero never meets a finite one), a SELECT once
//! the level holds enough rows for its LIMIT (or `min_result_rows`); and
//! when no level finishes a query, the best completed level is returned
//! with measured flags.
//!
//! The degradation ladder lives here too, around each pass:
//!
//! 1. **Shard rung** — a sharded pass that panics (or an injected
//!    `scan.shard` fault) is redone serially with freshly built sinks. The
//!    serial sweep is bit-identical to the sharded one, so this is a
//!    recovery (a `Recovery` event, `shards == 1`), not a degradation.
//! 2. **Level rung** — a pass lost as a whole (an `engine.level` fault) is
//!    skipped by every member: each records a `Degradation` event and keeps
//!    escalating, and its answer comes from the best level that did
//!    complete, flagged `degraded` with its bound flags measured on that
//!    level. A lost base pass leaves members with their best sampled level.
//! 3. **Query rung** — a member left with no completed level fails typed as
//!    `Internal { site: "engine.level" }`.

use crate::answer::{
    ApproximateAnswer, EvaluationLevel, LevelEstimate, QueryOutcome, SelectAnswer,
};
use crate::engine::{BaseData, BoundedQueryEngine, QueryBounds};
use crate::error::{Result, SciborqError};
use crate::execution::QueryExecution;
use crate::impression::Impression;
use crate::layer::LayerHierarchy;
use sciborq_columnar::{
    multi_scan, numeric_source, AggregateKind, ColumnarError, CompiledPredicate, CountSink,
    MomentSink, MomentSketch, MultiScanItem, Partitioning, ScanStats, SelectionSink,
    SelectionVector, Table, WeightedMomentSink, WeightedMomentSketch,
};
use sciborq_stats::{ConfidenceInterval, Estimate};
use sciborq_telemetry::FaultEventKind;
use sciborq_workload::{Query, QueryKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Which fused sink a query needs at one escalation level. Two queries with
/// equal predicates and equal sink specs are served by literally the same
/// scan and the same sketch.
#[derive(Debug, Clone, PartialEq)]
enum SinkSpec {
    /// Plain match counting (COUNT on a self-weighted impression).
    Count,
    /// Hansen–Hurwitz counting (COUNT on a biased impression).
    WeightedCount,
    /// Unweighted moments over a column (SUM/AVG/MIN/MAX/VAR).
    Moments(String),
    /// Weighted moments over a column (SUM/AVG on a biased impression).
    WeightedMoments(String),
    /// The matching row ids themselves (SELECT).
    Rows,
}

impl SinkSpec {
    /// A fresh, empty sink of this flavour over `table`. `probabilities`
    /// are the impression's cached selection probabilities; weighted specs
    /// only arise on impressions, which always carry them.
    fn sink<'a>(
        &self,
        table: &'a Table,
        probabilities: Option<&'a [f64]>,
    ) -> std::result::Result<GroupSink<'a>, ColumnarError> {
        let weights = || probabilities.expect("weighted sinks only exist on impressions");
        Ok(match self {
            SinkSpec::Count => GroupSink::Count(CountSink::default()),
            SinkSpec::WeightedCount => GroupSink::Weighted(WeightedMomentSink::counting(weights())),
            SinkSpec::Moments(column) => {
                GroupSink::Moments(MomentSink::new(numeric_source(table, column)?))
            }
            SinkSpec::WeightedMoments(column) => GroupSink::Weighted(WeightedMomentSink::new(
                numeric_source(table, column)?,
                weights(),
            )),
            SinkSpec::Rows => GroupSink::Rows(Vec::new()),
        })
    }
}

/// The per-group accumulator driven by the shared scan.
enum GroupSink<'a> {
    Count(CountSink),
    Moments(MomentSink<'a>),
    Weighted(WeightedMomentSink<'a>),
    Rows(Vec<usize>),
}

impl SelectionSink for GroupSink<'_> {
    #[inline]
    fn accept(&mut self, row: usize) {
        match self {
            GroupSink::Count(s) => s.accept(row),
            GroupSink::Moments(s) => s.accept(row),
            GroupSink::Weighted(s) => s.accept(row),
            GroupSink::Rows(s) => s.accept(row),
        }
    }

    // Dispatch once per 64-row word, not once per row: counting keeps its
    // popcount and the folding sinks their monomorphised row loops.
    #[inline]
    fn accept_word(&mut self, base: usize, word: u64) {
        match self {
            GroupSink::Count(s) => s.accept_word(base, word),
            GroupSink::Moments(s) => s.accept_word(base, word),
            GroupSink::Weighted(s) => s.accept_word(base, word),
            GroupSink::Rows(s) => s.accept_word(base, word),
        }
    }
}

impl GroupSink<'_> {
    fn sketch(self) -> LevelSketch {
        match self {
            GroupSink::Count(s) => LevelSketch::Count(s.0),
            GroupSink::Moments(s) => LevelSketch::Moments(s.sketch),
            GroupSink::Weighted(s) => LevelSketch::Weighted(s.sketch),
            // the scan emits matches in ascending row order
            GroupSink::Rows(rows) => LevelSketch::Rows(SelectionVector::from_sorted_rows(rows)),
        }
    }
}

/// What one escalation level produced for one group — the seam between
/// scanning and estimation (or, for a SELECT, gathering).
#[derive(Debug, Clone)]
enum LevelSketch {
    /// A plain match count (COUNT on a self-weighted impression).
    Count(usize),
    /// An unweighted moment sketch of the aggregated column.
    Moments(MomentSketch),
    /// A Hansen–Hurwitz weighted sketch (biased impressions; also carries
    /// weighted COUNTs, where no aggregation column is involved).
    Weighted(WeightedMomentSketch),
    /// The matching rows (SELECT).
    Rows(SelectionVector),
}

/// One query's answer at one completed level: the final answer if the
/// level finishes the query, its best effort so far otherwise. A SELECT's
/// `rows` are its matching row ids, cut to the LIMIT, until the level that
/// answers it gathers them into a table ([`LevelResult::gather`]): a level
/// the query escalates past never gathers.
enum LevelResult<R = Vec<usize>> {
    Aggregate {
        value: Option<f64>,
        interval: Option<ConfidenceInterval>,
        error_bound_met: bool,
    },
    Rows {
        rows: R,
        estimated_total_matches: f64,
    },
}

impl LevelResult {
    /// Gather a SELECT's row ids from `source`, the table of the level they
    /// were matched in (named `name`); an aggregate passes through.
    fn gather(self, source: &Table, name: &str) -> Result<LevelResult<Table>> {
        Ok(match self {
            LevelResult::Aggregate {
                value,
                interval,
                error_bound_met,
            } => LevelResult::Aggregate {
                value,
                interval,
                error_bound_met,
            },
            LevelResult::Rows {
                rows,
                estimated_total_matches,
            } => LevelResult::Rows {
                rows: source.gather(&rows, format!("{name}.result"))?,
                estimated_total_matches,
            },
        })
    }
}

/// One query's in-flight escalation state.
struct QState<'q> {
    /// The query, and with it its kind: an aggregate or a SELECT.
    query: &'q Query,
    bounds: &'q QueryBounds,
    max_error: f64,
    exec: QueryExecution,
    escalations: usize,
    best: Option<(LevelResult, EvaluationLevel)>,
    /// Set once the query has its final result (met bound, enough rows,
    /// base data, or error); later levels skip it.
    done: Option<Result<QueryOutcome>>,
    /// Set when a level blew the wall-clock budget without finishing the
    /// query: escalation stops there.
    stopped: bool,
    /// Set when a pass this query took part in was lost to a panic (the
    /// level rung of the degradation ladder). Always false on the
    /// fault-free path.
    degraded: bool,
    start: Instant,
    /// Whether to build a [`sciborq_telemetry::QueryTrace`] at finalisation
    /// (the engine's `collect_traces` knob). Strictly observational.
    tracing: bool,
    /// The engine's scan fan-out, reported on the trace.
    parallelism: usize,
    /// Per-level quality accounting, collected only when tracing.
    estimates: Vec<LevelEstimate>,
}

impl<'q> QState<'q> {
    fn new(query: &'q Query, bounds: &'q QueryBounds, parallelism: usize, tracing: bool) -> Self {
        let mut st = QState {
            query,
            bounds,
            max_error: bounds.max_relative_error.unwrap_or(f64::INFINITY),
            exec: QueryExecution::with_parallelism(query.predicate.clone(), parallelism),
            escalations: 0,
            best: None,
            done: None,
            stopped: false,
            degraded: false,
            start: Instant::now(),
            tracing,
            parallelism,
            estimates: Vec::new(),
        };
        if let Err(err) = bounds.validate() {
            st.fail(err);
        }
        st
    }

    /// Honest wall-clock check: re-evaluated at every decision point and at
    /// every return, never assumed.
    fn time_ok(&self) -> bool {
        self.bounds
            .time_budget
            .is_none_or(|budget| self.start.elapsed() <= budget)
    }

    /// The measured error-bound verdict for an estimate. A sampled zero (no
    /// matching row in the impression) carries a degenerate [0, 0] interval
    /// that would read as "zero error"; claiming a certain COUNT/SUM of 0
    /// from a sample is dishonest for rare predicates, so a finite bound is
    /// never met by one and the query keeps escalating, down to the base
    /// data if permitted.
    fn error_bound_met(&self, value: Option<f64>, interval: Option<&ConfidenceInterval>) -> bool {
        let sampled_zero = value == Some(0.0) && self.max_error.is_finite();
        !sampled_zero && interval.is_some_and(|ci| ci.satisfies_error_bound(self.max_error))
    }

    /// The sink this query needs on an impression (weighted estimators or
    /// not), or the error its scan would raise.
    fn sink_spec(&self, weighted: bool) -> Result<SinkSpec> {
        let (kind, column) = match &self.query.kind {
            QueryKind::Select => return Ok(SinkSpec::Rows),
            QueryKind::Aggregate { kind, column } => (*kind, column),
        };
        let column = || {
            column
                .clone()
                .ok_or_else(|| SciborqError::InvalidConfig(format!("{kind} requires a column")))
        };
        match kind {
            AggregateKind::Count => Ok(if weighted {
                SinkSpec::WeightedCount
            } else {
                SinkSpec::Count
            }),
            AggregateKind::Sum | AggregateKind::Avg => {
                let column = column()?;
                Ok(if weighted {
                    SinkSpec::WeightedMoments(column)
                } else {
                    SinkSpec::Moments(column)
                })
            }
            AggregateKind::Min | AggregateKind::Max | AggregateKind::Variance => {
                Ok(SinkSpec::Moments(column()?))
            }
        }
    }

    /// Book one completed level: its answer either finishes the query or
    /// becomes the best effort so far. `impression` is `None` for the base
    /// data, whose answer is always final.
    fn book(
        &mut self,
        table: &Table,
        impression: Option<&Impression>,
        level: EvaluationLevel,
        sketch: &LevelSketch,
    ) {
        let query = self.query;
        let booked = match (&query.kind, sketch) {
            (QueryKind::Select, LevelSketch::Rows(selection)) => {
                self.level_rows(impression, selection)
            }
            (QueryKind::Aggregate { kind, .. }, _) => match impression {
                Some(impression) => self.level_estimate(impression, *kind, level, sketch),
                None => exact_value(*kind, sketch).map(|value| self.level_exact(value)),
            },
            (QueryKind::Select, _) => Err(flavour_mismatch("SELECT")),
        };
        match booked {
            Err(err) => self.fail(err),
            Ok((result, true)) => {
                let name = impression.map_or(table.name(), Impression::name);
                self.finalize(result, level, table, name);
            }
            Ok((result, false)) => {
                self.best = Some((result, level));
                if !self.time_ok() {
                    // The level blew the clock without finishing the query:
                    // escalating further would only dig the hole deeper.
                    self.stopped = true;
                }
            }
        }
    }

    /// Fold a sampled level's sketch through this aggregate's estimator;
    /// the level finishes the query if its error bound is met.
    fn level_estimate(
        &mut self,
        impression: &Impression,
        kind: AggregateKind,
        level: EvaluationLevel,
        sketch: &LevelSketch,
    ) -> Result<(LevelResult, bool)> {
        let (value, interval) = estimate_level(impression, kind, self.bounds.confidence, sketch)?;
        let met = self.error_bound_met(value, interval.as_ref());
        if self.tracing {
            self.estimates.push(LevelEstimate {
                level,
                relative_error: interval.as_ref().map(|ci| ci.relative_half_width()),
                error_bound_met: met,
            });
        }
        let result = LevelResult::Aggregate {
            value,
            interval,
            error_bound_met: met,
        };
        Ok((result, met))
    }

    /// An aggregate answered exactly from the base data: degenerate
    /// intervals, no estimators involved.
    fn level_exact(&mut self, value: Option<f64>) -> (LevelResult, bool) {
        // analyzer:allow(bounds_honesty, reason = "base-data evaluation is exact (relative error identically zero), so any finite error bound is met by construction")
        let error_bound_met = true;
        if self.tracing {
            self.estimates.push(LevelEstimate {
                level: EvaluationLevel::BaseData,
                relative_error: Some(0.0),
                error_bound_met,
            });
        }
        let result = LevelResult::Aggregate {
            value,
            interval: value.map(ConfidenceInterval::exact),
            error_bound_met,
        };
        (result, true)
    }

    /// A SELECT's answer at one level: "the 100 results satisfying the
    /// impression" (§3.2) — the first LIMIT matching rows, in row order,
    /// and the estimated number of matching base rows. An impression's
    /// answer finishes the query once it holds enough rows for the LIMIT
    /// (or `min_result_rows`); the base data's always does, with an exact
    /// count.
    fn level_rows(
        &self,
        impression: Option<&Impression>,
        selection: &SelectionVector,
    ) -> Result<(LevelResult, bool)> {
        let limit = self.query.limit;
        let wanted = self.bounds.min_result_rows.or(limit).unwrap_or(usize::MAX);
        let (estimated_total_matches, enough) = match impression {
            Some(impression) => (
                impression.estimate_count(selection)?.value,
                selection.len() >= wanted.min(impression.row_count()),
            ),
            None => (selection.len() as f64, true),
        };
        let matched = selection.rows();
        let rows = limit.map_or(matched, |limit| &matched[..limit.min(matched.len())]);
        let done = impression.is_none() || rows.len() >= wanted || enough && limit.is_none();
        let result = LevelResult::Rows {
            rows: rows.to_vec(),
            estimated_total_matches,
        };
        Ok((result, done))
    }

    /// Answer the query with its result at `level`, whose table `source`
    /// (named `name`) a SELECT gathers its rows from.
    fn finalize(
        &mut self,
        result: LevelResult,
        level: EvaluationLevel,
        source: &Table,
        name: &str,
    ) {
        let result = match result.gather(source, name) {
            Ok(result) => result,
            Err(err) => return self.fail(err),
        };
        // time_bound_met is measured *after* the winning evaluation: meeting
        // the error bound does not excuse blowing the clock.
        let time_bound_met = self.time_ok();
        let query = self.query.to_string();
        let rows_scanned = self.exec.rows_scanned();
        let elapsed = self.start.elapsed();
        let level_scans = self.exec.take_level_scans();
        let fault_events = self.exec.take_fault_events();
        let outcome = match result {
            LevelResult::Aggregate {
                value,
                interval,
                error_bound_met,
            } => {
                let mut answer = ApproximateAnswer {
                    query,
                    value,
                    interval,
                    level,
                    rows_scanned,
                    escalations: self.escalations,
                    elapsed,
                    level_scans,
                    error_bound_met,
                    time_bound_met,
                    degraded: self.degraded,
                    fault_events,
                    trace: None,
                };
                if self.tracing {
                    answer.trace =
                        Some(answer.build_trace(&self.estimates, self.bounds, self.parallelism));
                }
                QueryOutcome::Aggregate(answer)
            }
            LevelResult::Rows {
                rows,
                estimated_total_matches,
            } => {
                let mut answer = SelectAnswer {
                    query,
                    rows,
                    estimated_total_matches,
                    level,
                    rows_scanned,
                    escalations: self.escalations,
                    elapsed,
                    level_scans,
                    time_bound_met,
                    degraded: self.degraded,
                    fault_events,
                    trace: None,
                };
                if self.tracing {
                    answer.trace = Some(answer.build_trace(self.bounds, self.parallelism));
                }
                QueryOutcome::Rows(answer)
            }
        };
        self.done = Some(Ok(outcome));
    }

    fn fail(&mut self, err: SciborqError) {
        self.done = Some(Err(err));
    }
}

/// One deduplicated scan item: every member query shares the predicate, the
/// sink, and therefore the resulting sketch.
struct Group {
    compiled: Arc<CompiledPredicate>,
    spec: SinkSpec,
    members: Vec<usize>,
}

/// One group's share of a pass: its sketch and measured work, or the error
/// every member fails with.
type GroupScan = std::result::Result<(LevelSketch, ScanStats), ColumnarError>;

impl BoundedQueryEngine {
    /// Answer a batch of queries — aggregates and SELECTs alike — over one
    /// hierarchy, sharing scan passes between queries. Results come back in
    /// request order; each query gets exactly the answer (bit for bit) it
    /// would get in a batch of its own, including typed errors for
    /// unsatisfiable bounds.
    ///
    /// `base` is the base data (an `Option<&Table>` converts); a
    /// [`BaseData::Locked`] table is read-locked only once the impressions
    /// have left some query unresolved, and stays locked through the base
    /// pass and the SELECT gathers from it.
    pub fn execute_batch<'a>(
        &self,
        requests: &[(&Query, &QueryBounds)],
        hierarchy: &LayerHierarchy,
        base: impl Into<BaseData<'a>>,
    ) -> Vec<Result<QueryOutcome>> {
        let parallelism = self.config().parallelism;
        let tracing = self.config().collect_traces;
        let mut states: Vec<QState<'_>> = requests
            .iter()
            .map(|&(query, bounds)| QState::new(query, bounds, parallelism, tracing))
            .collect();

        // Escalate the whole batch level by level, sharing each level's scan.
        for impression in hierarchy.escalation_order() {
            let level_rows = impression.row_count() as u64;
            let mut active: Vec<usize> = Vec::new();
            for (i, st) in states.iter_mut().enumerate() {
                if st.done.is_some() || st.stopped {
                    continue;
                }
                if st.bounds.max_rows_scanned.is_some_and(|b| level_rows > b) {
                    // Over this query's row budget: skip the level but keep
                    // escalating (the order may not be sorted by size).
                    continue;
                }
                // Stop escalating once the wall-clock budget is spent — but
                // always evaluate at least one admissible level, so the
                // query gets a best effort rather than nothing.
                if st.best.is_some() && !st.time_ok() {
                    st.stopped = true;
                    continue;
                }
                if st.best.is_some() {
                    st.escalations += 1;
                }
                active.push(i);
            }
            if !active.is_empty() {
                self.scan_level(
                    &mut states,
                    &active,
                    impression.data(),
                    Some(impression),
                    EvaluationLevel::Layer(impression.layer()),
                );
            }
        }

        // Base-data fall-through, still shared: exact answers for everything
        // that is admissible within its budgets. SELECTs gather their rows
        // inside the closure, while the table is still read-locked.
        if states.iter().any(|st| st.done.is_none()) {
            base.into().with_table(|table| {
                let base_rows = table.row_count() as u64;
                let mut active: Vec<usize> = Vec::new();
                for (i, st) in states.iter_mut().enumerate() {
                    if st.done.is_some() {
                        continue;
                    }
                    let admissible = st.bounds.max_rows_scanned.is_none_or(|b| base_rows <= b);
                    if !admissible || !st.time_ok() {
                        continue;
                    }
                    if st.best.is_some() {
                        st.escalations += 1;
                    }
                    active.push(i);
                }
                if !active.is_empty() {
                    self.scan_level(&mut states, &active, table, None, EvaluationLevel::BaseData);
                }
            });
        }

        // Best-effort finalisation for whatever is still unresolved.
        for st in states.iter_mut().filter(|st| st.done.is_none()) {
            match st.best.take() {
                Some((result, level)) => {
                    // The base data always answers, so a best effort comes
                    // from one of the impressions escalated through above.
                    let impression = hierarchy
                        .escalation_order()
                        .find(|imp| EvaluationLevel::Layer(imp.layer()) == level)
                        .expect("a best effort comes from an impression of this hierarchy");
                    st.finalize(result, level, impression.data(), impression.name());
                }
                // Every admissible level was lost to an isolated panic:
                // there is no honest estimate left to degrade to.
                None if st.degraded => st.fail(SciborqError::Internal {
                    site: "engine.level".to_owned(),
                }),
                None => st.fail(SciborqError::BoundsUnsatisfiable(format!(
                    "no impression of {} fits a row budget of {:?}",
                    hierarchy.source_table(),
                    st.bounds.max_rows_scanned
                ))),
            }
        }

        states
            .into_iter()
            .map(|st| st.done.expect("every query resolved"))
            .collect()
    }

    /// Run one shared scan pass over `table` for the `active` queries:
    /// deduplicate (predicate, sink) pairs into groups, sweep once under the
    /// shard and level rungs of the degradation ladder, then book accounting
    /// and each member's level answer. `impression` is `None` for the
    /// base-data pass (exact evaluation, no estimators).
    fn scan_level(
        &self,
        states: &mut [QState<'_>],
        active: &[usize],
        table: &Table,
        impression: Option<&Impression>,
        level: EvaluationLevel,
    ) {
        let weighted = impression.is_some_and(Impression::uses_weighted_estimators);
        let probabilities = impression.map(Impression::selection_probabilities);

        // Group the active queries by (predicate, sink flavour).
        let mut groups: Vec<Group> = Vec::new();
        for &i in active {
            let spec = match states[i].sink_spec(weighted) {
                Ok(spec) => spec,
                Err(err) => {
                    states[i].fail(err);
                    continue;
                }
            };
            let compiled = match states[i].exec.compiled_for(table) {
                Ok(compiled) => compiled,
                Err(err) => {
                    states[i].fail(err);
                    continue;
                }
            };
            match groups.iter_mut().find(|g| {
                g.spec == spec && states[g.members[0]].query.predicate == states[i].query.predicate
            }) {
                Some(group) => group.members.push(i),
                None => groups.push(Group {
                    compiled,
                    spec,
                    members: vec![i],
                }),
            }
        }
        let Some(first) = groups.first() else {
            return;
        };
        let members: Vec<usize> = groups
            .iter()
            .flat_map(|g| g.members.iter().copied())
            .collect();

        // One shared sweep. The fan-out decision is the per-query one (all
        // executions share the engine's parallelism), which the bit-identity
        // of sharded scans depends on.
        let parts = states[first.members[0]]
            .exec
            .partitioning(table.row_count());
        let started = Instant::now();
        // The level rung: the whole pass — fan-out, serial redo and all —
        // is isolated, so a panic loses this level for its members only.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-injection")]
            sciborq_telemetry::fault_point!("engine.level");
            if let Some(parts) = &parts {
                // The shard rung: a panicked fan-out leaves its sinks with
                // a partial fold, so the serial redo builds fresh ones.
                let sharded = catch_unwind(AssertUnwindSafe(|| {
                    #[cfg(feature = "fault-injection")]
                    sciborq_telemetry::fault_point!("scan.shard");
                    shared_pass(table, &groups, probabilities, Some(parts))
                }));
                match sharded {
                    Ok(scans) => return (scans, parts.shard_count()),
                    Err(_) => {
                        for &i in &members {
                            states[i]
                                .exec
                                .record_fault("scan.shard", FaultEventKind::Recovery);
                        }
                    }
                }
            }
            (shared_pass(table, &groups, probabilities, None), 1)
        }));
        let (scans, shards) = match attempt {
            Ok(pass) => pass,
            Err(_) => {
                for &i in &members {
                    let st = &mut states[i];
                    st.exec
                        .record_fault("engine.level", FaultEventKind::Degradation);
                    st.degraded = true;
                }
                return;
            }
        };

        // Book the group scan for every member and turn the shared result
        // into each member's answer at this level.
        for (group, scan) in groups.iter().zip(scans) {
            match scan {
                Ok((sketch, stats)) => {
                    for &i in &group.members {
                        let st = &mut states[i];
                        st.exec.record_scan(level, stats, shards, started);
                        st.book(table, impression, level, &sketch);
                    }
                }
                Err(err) => {
                    for &i in &group.members {
                        states[i].fail(err.clone().into());
                    }
                }
            }
        }
    }
}

/// Build one fresh sink per group and sweep `table` once for all of them. A
/// group whose sink cannot be built (its aggregation column is not numeric)
/// fails without taking part in the sweep.
fn shared_pass(
    table: &Table,
    groups: &[Group],
    probabilities: Option<&[f64]>,
    parts: Option<&Partitioning>,
) -> Vec<GroupScan> {
    let mut sinks: Vec<_> = groups
        .iter()
        .map(|group| group.spec.sink(table, probabilities))
        .collect();
    let mut items: Vec<MultiScanItem<'_, '_>> = groups
        .iter()
        .zip(sinks.iter_mut())
        .filter_map(|(group, sink)| {
            Some(MultiScanItem {
                predicate: &group.compiled,
                sink: sink.as_mut().ok()?,
            })
        })
        .collect();
    let mut results = multi_scan(table, &mut items, parts).into_iter();
    drop(items);
    sinks
        .into_iter()
        .map(|sink| {
            let sink = sink?;
            let stats = results.next().expect("multi_scan answers every item")?;
            Ok((sink.sketch(), stats))
        })
        .collect()
}

/// Turn a level's [`LevelSketch`] into a point estimate and confidence
/// interval using the impression's sampling-design corrections.
///
/// MIN / MAX / VAR report the sample value with an unbounded interval:
/// extremes and exact variance are not meaningfully estimable from a sample
/// with bounded error, so the engine escalates to the base data whenever an
/// error bound was requested.
fn estimate_level(
    impression: &Impression,
    agg_kind: AggregateKind,
    confidence: f64,
    sketch: &LevelSketch,
) -> Result<(Option<f64>, Option<ConfidenceInterval>)> {
    let estimate: Option<Estimate> = match (agg_kind, sketch) {
        (AggregateKind::Count, LevelSketch::Weighted(s)) => {
            Some(impression.estimate_weighted_count(s)?)
        }
        (AggregateKind::Count, LevelSketch::Count(matched)) => {
            Some(impression.estimate_count_streamed(*matched)?)
        }
        (AggregateKind::Sum, LevelSketch::Weighted(s)) => {
            Some(impression.estimate_weighted_sum(s)?)
        }
        (AggregateKind::Sum, LevelSketch::Moments(s)) => Some(impression.estimate_sum_streamed(s)?),
        (AggregateKind::Avg, LevelSketch::Weighted(s)) => {
            if s.matched == 0 {
                None
            } else {
                Some(impression.estimate_weighted_avg(s)?)
            }
        }
        (AggregateKind::Avg, LevelSketch::Moments(s)) => {
            if s.matched == 0 {
                None
            } else {
                Some(impression.estimate_avg_streamed(s)?)
            }
        }
        (
            AggregateKind::Min | AggregateKind::Max | AggregateKind::Variance,
            LevelSketch::Moments(s),
        ) => {
            let value = s.aggregate(agg_kind);
            return Ok((
                value,
                value.map(|v| ConfidenceInterval {
                    estimate: v,
                    lower: f64::NEG_INFINITY,
                    upper: f64::INFINITY,
                    confidence,
                }),
            ));
        }
        _ => return Err(flavour_mismatch(agg_kind)),
    };
    match estimate {
        Some(est) => {
            let interval = ConfidenceInterval::from_estimate(&est, confidence)?;
            Ok((Some(est.value), Some(interval)))
        }
        None => Ok((None, None)),
    }
}

/// An aggregate's exact value from a base-data sketch.
fn exact_value(kind: AggregateKind, sketch: &LevelSketch) -> Result<Option<f64>> {
    match sketch {
        LevelSketch::Count(matched) => Ok(Some(*matched as f64)),
        LevelSketch::Moments(s) => Ok(s.aggregate(kind)),
        // base-data groups never use weighted sinks
        LevelSketch::Weighted(_) | LevelSketch::Rows(_) => Err(flavour_mismatch(kind)),
    }
}

fn flavour_mismatch(kind: impl std::fmt::Display) -> SciborqError {
    SciborqError::InvalidConfig(format!(
        "internal: level sketch flavour does not fit {kind}"
    ))
}
