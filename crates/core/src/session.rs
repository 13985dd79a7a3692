//! Exploration sessions: the full SciBORQ loop.
//!
//! A session ties everything together the way Section 3 describes the
//! system: the warehouse catalog, the query log and predicate set, one
//! impression hierarchy per (table, policy), the bounded query engine, and
//! the adaptive maintenance that reacts to workload shifts and incremental
//! loads.
//!
//! A session is **concurrently shareable**: all of its state lives behind
//! interior mutability (mutexes for the workload bookkeeping, a reader–
//! writer lock over the hierarchy map with clone-and-swap updates), so a
//! serving front end can drive one session from many threads through
//! `&self` — including [`ExplorationSession::execute_batch`], which answers
//! several queries over the same table in one shared scan pass per
//! escalation level. A lone query is a batch of one.
//!
//! Writers of the hierarchy map (impression creation, loads, adaptive
//! rebuilds) take turns on one writer mutex and build their new hierarchy
//! on a clone *outside* the map's lock; the map's write lock is held only
//! to swap the finished hierarchy in. A query therefore waits at most for
//! a pointer swap, never for a load's sampling work, and no update is lost
//! because only the holder of the writer mutex swaps.

use crate::answer::QueryOutcome;
use crate::config::SciborqConfig;
use crate::engine::{BaseData, BoundedQueryEngine, QueryBounds};
use crate::error::{Result, SciborqError};
use crate::layer::LayerHierarchy;
use crate::maintenance::{AdaptiveMaintainer, MaintenanceDecision};
use crate::policy::SamplingPolicy;
use parking_lot::{Mutex, MutexGuard, RwLock};
use sciborq_columnar::{Catalog, RecordBatch, Table};
use sciborq_telemetry::{
    AdmissionTrace, Counter, FaultEventKind, Histogram, MetricsRegistry, MetricsSnapshot,
    QueryTrace, TraceRing,
};
use sciborq_workload::{AttributeDomain, PredicateSet, Query, QueryLog};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The scan costs a query against one table can incur, per escalation
/// level: what a serving layer's admission control reasons about before it
/// lets a query loose on the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanProfile {
    /// Row counts of the impression layers in escalation order (least
    /// detailed first).
    pub layer_rows: Vec<u64>,
    /// Row count of the base table, if it is registered in the catalog.
    pub base_rows: Option<u64>,
}

impl ScanProfile {
    fn admissible(&self, bounds: &QueryBounds) -> impl Iterator<Item = u64> + '_ {
        let budget = bounds.max_rows_scanned;
        self.layer_rows
            .iter()
            .copied()
            .chain(self.base_rows)
            .filter(move |&rows| budget.is_none_or(|b| rows <= b))
    }

    /// The most expensive level (in rows) the engine may scan under
    /// `bounds` — the worst-case cost of a single evaluation, including the
    /// base-data fall-through when the row budget admits it. `None` when no
    /// level is admissible (the engine would report
    /// [`SciborqError::BoundsUnsatisfiable`]).
    pub fn worst_admissible(&self, bounds: &QueryBounds) -> Option<u64> {
        self.admissible(bounds).max()
    }

    /// The cheapest admissible level under `bounds` — the cost the query
    /// degrades to when a serving layer tightens its row budget all the way
    /// down. `None` when no level is admissible.
    pub fn cheapest_admissible(&self, bounds: &QueryBounds) -> Option<u64> {
        self.admissible(bounds).min()
    }
}

/// The session's cached handles into its metrics registry: engine-side
/// signals are recorded once per query through these (one relaxed atomic
/// each), never through a by-name registry lookup on the hot path.
#[derive(Debug)]
struct EngineMetrics {
    /// `engine.queries` — queries executed (including failed ones).
    queries: Arc<Counter>,
    /// `engine.query_errors` — queries that returned an error.
    query_errors: Arc<Counter>,
    /// `engine.escalations` — escalations to more detailed levels.
    escalations: Arc<Counter>,
    /// `engine.rows_scanned` — row positions visited, all levels.
    rows_scanned: Arc<Counter>,
    /// `engine.query_micros` — wall time per answered query.
    query_micros: Arc<Histogram>,
    /// `engine.error_bound_missed` — answers returned with the requested
    /// error bound not met.
    error_bound_missed: Arc<Counter>,
    /// `engine.time_bound_missed` — answers returned past their budget.
    time_bound_missed: Arc<Counter>,
    /// `engine.internal_faults` — queries lost to a caught panic (typed
    /// [`SciborqError::Internal`] replies).
    internal_faults: Arc<Counter>,
    /// `engine.fault_recoveries` — isolated faults recovered bit-identically
    /// (shard fallbacks; the answer is *not* degraded).
    fault_recoveries: Arc<Counter>,
    /// `engine.degraded_queries` — answers produced down the degradation
    /// ladder (at least one whole level was lost).
    degraded_queries: Arc<Counter>,
}

impl EngineMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        EngineMetrics {
            queries: registry.counter("engine.queries"),
            query_errors: registry.counter("engine.query_errors"),
            escalations: registry.counter("engine.escalations"),
            rows_scanned: registry.counter("engine.rows_scanned"),
            query_micros: registry.histogram("engine.query_micros"),
            error_bound_missed: registry.counter("engine.error_bound_missed"),
            time_bound_missed: registry.counter("engine.time_bound_missed"),
            internal_faults: registry.counter("engine.internal_faults"),
            fault_recoveries: registry.counter("engine.fault_recoveries"),
            degraded_queries: registry.counter("engine.degraded_queries"),
        }
    }
}

/// A SciBORQ exploration session over a warehouse catalog.
#[derive(Debug)]
pub struct ExplorationSession {
    catalog: Catalog,
    config: SciborqConfig,
    engine: BoundedQueryEngine,
    predicate_set: Mutex<PredicateSet>,
    query_log: Mutex<QueryLog>,
    /// Serialises the writers of `hierarchies`: held from before a load's
    /// append until its hierarchy is swapped in (outermost in the lock
    /// order).
    hierarchy_writer: Mutex<()>,
    hierarchies: RwLock<BTreeMap<String, Arc<LayerHierarchy>>>,
    maintainer: Mutex<AdaptiveMaintainer>,
    rebuilds: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    engine_metrics: EngineMetrics,
    traces: TraceRing,
}

impl ExplorationSession {
    /// Create a session over a catalog.
    ///
    /// `tracked_attributes` lists the "interesting attributes" whose
    /// requested values form the predicate set (e.g. `ra`, `dec` with their
    /// domains).
    pub fn new(
        catalog: Catalog,
        config: SciborqConfig,
        tracked_attributes: &[(&str, AttributeDomain)],
    ) -> Result<Self> {
        config.validate().map_err(SciborqError::InvalidConfig)?;
        let engine = BoundedQueryEngine::new(config.clone())?;
        let predicate_set = PredicateSet::new(tracked_attributes)?;
        let query_log = QueryLog::new(config.query_log_capacity);
        let metrics = Arc::new(MetricsRegistry::new());
        let engine_metrics = EngineMetrics::register(&metrics);
        let traces = TraceRing::new(config.trace_capacity);
        Ok(ExplorationSession {
            catalog,
            config,
            engine,
            predicate_set: Mutex::new(predicate_set),
            query_log: Mutex::new(query_log),
            hierarchy_writer: Mutex::new(()),
            hierarchies: RwLock::new(BTreeMap::new()),
            maintainer: Mutex::new(AdaptiveMaintainer::new()),
            rebuilds: AtomicU64::new(0),
            metrics,
            engine_metrics,
            traces,
        })
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The session configuration.
    pub fn config(&self) -> &SciborqConfig {
        &self.config
    }

    /// The predicate set accumulated so far (a lock guard; drop it before
    /// executing queries from the same thread, and never call this twice
    /// within one statement — the first guard is still alive and the
    /// second lock attempt deadlocks).
    pub fn predicate_set(&self) -> MutexGuard<'_, PredicateSet> {
        self.predicate_set.lock()
    }

    /// The query log (a lock guard; drop it before executing queries from
    /// the same thread, and never call this twice within one statement —
    /// the first guard is still alive and the second lock attempt
    /// deadlocks).
    pub fn query_log(&self) -> MutexGuard<'_, QueryLog> {
        self.query_log.lock()
    }

    /// Number of adaptive rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// The session's metrics registry. Engine-side signals
    /// (`engine.queries`, `engine.rows_scanned[.<level>]`,
    /// `engine.query_micros`, …) are registered here; a serving layer adds
    /// its own metrics to the same registry so one snapshot covers the
    /// whole process.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A point-in-time freeze of every registered metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The most recent `limit` query traces, newest first. Empty unless the
    /// configuration's `collect_traces` knob is on.
    pub fn recent_traces(&self, limit: usize) -> Vec<QueryTrace> {
        self.traces.recent(limit)
    }

    /// The hierarchy built for a table, if any (a snapshot: concurrent
    /// rebuilds swap in a fresh hierarchy without disturbing this handle).
    pub fn hierarchy(&self, table: &str) -> Option<Arc<LayerHierarchy>> {
        self.hierarchies.read().get(table).cloned()
    }

    /// The hierarchy for `table`, distinguishing the two ways it can be
    /// missing: [`SciborqError::NoImpressions`] when the base table exists
    /// but `create_impressions` was never called for it (a recoverable
    /// state), [`SciborqError::UnknownTable`] when the catalog has never
    /// heard of the table (a bad request).
    fn hierarchy_for(&self, table: &str) -> Result<Arc<LayerHierarchy>> {
        if let Some(hierarchy) = self.hierarchies.read().get(table) {
            return Ok(Arc::clone(hierarchy));
        }
        if self.catalog.table(table).is_ok() {
            Err(SciborqError::NoImpressions {
                table: table.to_owned(),
            })
        } else {
            Err(SciborqError::UnknownTable(table.to_owned()))
        }
    }

    /// The per-level scan costs of queries against `table`: impression row
    /// counts in escalation order plus the base-table size. Serving-layer
    /// admission control prices queries with this before submitting them.
    pub fn scan_profile(&self, table: &str) -> Result<ScanProfile> {
        let hierarchy = self.hierarchy_for(table)?;
        let layer_rows = hierarchy
            .escalation_order()
            .map(|impression| impression.row_count() as u64)
            .collect();
        let base_rows = self
            .catalog
            .table(table)
            .ok()
            .map(|handle| handle.read().row_count() as u64);
        Ok(ScanProfile {
            layer_rows,
            base_rows,
        })
    }

    /// Build (or rebuild) the impression hierarchy for a table under the
    /// given policy, sampling the current base data.
    pub fn create_impressions(&self, table: &str, policy: SamplingPolicy) -> Result<()> {
        let handle = self
            .catalog
            .table(table)
            .map_err(|_| SciborqError::UnknownTable(table.to_owned()))?;
        let _writer = self.hierarchy_writer.lock();
        let guard = handle.read();
        let predicate_set = self.predicate_set.lock().clone();
        let hierarchy =
            LayerHierarchy::build_from_table(&guard, policy, &self.config, Some(&predicate_set))?;
        drop(guard);
        self.hierarchies
            .write()
            .insert(table.to_owned(), Arc::new(hierarchy));
        let predicate_set = self.predicate_set.lock();
        self.maintainer
            .lock()
            .update_reference(&predicate_set, &self.config);
        Ok(())
    }

    /// Ingest an incremental load: append the batch to the base table and
    /// stream the rows appended since the hierarchy last saw the table
    /// through it (if one exists).
    ///
    /// The hierarchy is updated copy-on-write, off the map's lock: the load
    /// patches a clone of the current hierarchy — only the sample slots its
    /// rows replaced — while queries keep reading the previous snapshot,
    /// and the `hierarchies` write lock is held only to swap the clone in.
    pub fn load(&self, table: &str, batch: &RecordBatch) -> Result<()> {
        let handle = self
            .catalog
            .table(table)
            .map_err(|_| SciborqError::UnknownTable(table.to_owned()))?;
        // Taken before the append, so a second loader waits here rather
        // than queueing a table writer behind this load's build.
        let _writer = self.hierarchy_writer.lock();
        handle.write().append_batch(batch)?;
        // The layers are patched from the base table, so it stays
        // read-locked until the swap (the canonical table → hierarchies
        // order). The hierarchy observes every row it has not yet seen
        // rather than this batch's, so a row is never counted twice.
        let base = handle.read();
        let Some(current) = self.hierarchy(table) else {
            return Ok(());
        };
        let mut updated = (*current).clone();
        let predicate_set = self.predicate_set.lock().clone();
        updated.observe_appended(&base, Some(&predicate_set))?;
        self.hierarchies
            .write()
            .insert(table.to_owned(), Arc::new(updated));
        Ok(())
    }

    /// Execute a query under bounds: the query is logged (feeding the
    /// predicate set), evaluated through the bounded engine, and the answer
    /// returned.
    pub fn execute(&self, query: &Query, bounds: &QueryBounds) -> Result<QueryOutcome> {
        self.execute_with_admission(query, bounds, None)
    }

    /// [`ExplorationSession::execute`], with the serving layer's admission
    /// verdict attached: when tracing is on, `admission` is stamped onto the
    /// answer's trace (queue wait, downgrade, priced cost) before the trace
    /// is retained in the session's ring. The query runs as a batch of one
    /// through [`ExplorationSession::execute_batch_with_admission`].
    pub fn execute_with_admission(
        &self,
        query: &Query,
        bounds: &QueryBounds,
        admission: Option<AdmissionTrace>,
    ) -> Result<QueryOutcome> {
        // The outermost isolation seam: a panic that slipped past the shard
        // and level rungs (or corrupted engine state between them) abandons
        // *this* query with a typed reply and leaves the session — and every
        // concurrent query — untouched. The engine releases the base table's
        // read lock as it unwinds, so unwinding here cannot strand shared
        // state.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            self.execute_batch_with_admission(&[(query, bounds)], std::slice::from_ref(&admission))
                .pop()
                .expect("a batch answers every request")
        }));
        attempt.unwrap_or_else(|_| {
            let mut result = Err(SciborqError::Internal {
                site: "session.query".to_owned(),
            });
            self.observe_outcome(&mut result, admission);
            result
        })
    }

    /// Execute with the session's default bounds (the configured default
    /// error bound at the configured confidence).
    pub fn execute_with_defaults(&self, query: &Query) -> Result<QueryOutcome> {
        let bounds = QueryBounds {
            max_relative_error: Some(self.config.default_max_error),
            confidence: self.config.confidence,
            ..QueryBounds::default()
        };
        self.execute(query, &bounds)
    }

    /// Execute a batch of queries, sharing scan passes between queries over
    /// the same table — aggregates and SELECTs alike (see
    /// [`BoundedQueryEngine::execute_batch`]). Every query is logged,
    /// results come back in request order, and each answer is bit-identical
    /// to what [`ExplorationSession::execute`] would have produced for that
    /// query alone.
    pub fn execute_batch(&self, requests: &[(Query, QueryBounds)]) -> Vec<Result<QueryOutcome>> {
        let requests: Vec<(&Query, &QueryBounds)> = requests.iter().map(|(q, b)| (q, b)).collect();
        self.execute_batch_with_admission(&requests, &[])
    }

    /// [`ExplorationSession::execute_batch`], with per-request admission
    /// verdicts from the serving layer: `admissions[i]` (when present) is
    /// stamped onto request `i`'s trace. A shorter-than-`requests` slice
    /// leaves the tail untouched, so direct callers pass `&[]`.
    pub fn execute_batch_with_admission(
        &self,
        requests: &[(&Query, &QueryBounds)],
        admissions: &[Option<AdmissionTrace>],
    ) -> Vec<Result<QueryOutcome>> {
        {
            let mut query_log = self.query_log.lock();
            let mut predicate_set = self.predicate_set.lock();
            for &(query, _) in requests {
                query_log.record(query.clone());
                predicate_set.log_query(query);
            }
        }

        let mut results: Vec<Option<Result<QueryOutcome>>> =
            requests.iter().map(|_| None).collect();
        let mut by_table: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, &(query, _)) in requests.iter().enumerate() {
            by_table.entry(query.table.as_str()).or_default().push(i);
        }

        for (table, indices) in by_table {
            let hierarchy = match self.hierarchy_for(table) {
                Ok(hierarchy) => hierarchy,
                Err(err) => {
                    for i in indices {
                        results[i] = Some(Err(err.clone()));
                    }
                    continue;
                }
            };
            let base_handle = self.catalog.table(table).ok();
            let batch: Vec<(&Query, &QueryBounds)> = indices.iter().map(|&i| requests[i]).collect();
            let answers = self
                .engine
                .execute_batch(&batch, &hierarchy, base_data(&base_handle));
            for (i, answer) in indices.into_iter().zip(answers) {
                results[i] = Some(answer);
            }
        }

        results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let mut result = r.expect("every request answered");
                self.observe_outcome(&mut result, admissions.get(i).cloned().flatten());
                result
            })
            .collect()
    }

    /// Record a finished query into the metrics registry and — when a trace
    /// was collected — stamp the admission verdict onto it and retain it in
    /// the trace ring. Observation only: the result's answer bits are never
    /// touched.
    fn observe_outcome(
        &self,
        result: &mut Result<QueryOutcome>,
        admission: Option<AdmissionTrace>,
    ) {
        let m = &self.engine_metrics;
        m.queries.inc();
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(err) => {
                m.query_errors.inc();
                if matches!(err, SciborqError::Internal { .. }) {
                    m.internal_faults.inc();
                }
                return;
            }
        };
        let (escalations, rows_scanned, elapsed, level_scans, bounds_missed, faults, trace) =
            match outcome {
                QueryOutcome::Aggregate(a) => (
                    a.escalations,
                    a.rows_scanned,
                    a.elapsed,
                    &a.level_scans,
                    (!a.error_bound_met, !a.time_bound_met),
                    (&a.fault_events, a.degraded),
                    &mut a.trace,
                ),
                QueryOutcome::Rows(r) => (
                    r.escalations,
                    r.rows_scanned,
                    r.elapsed,
                    &r.level_scans,
                    (false, !r.time_bound_met),
                    (&r.fault_events, r.degraded),
                    &mut r.trace,
                ),
            };
        for event in faults.0 {
            if event.kind == FaultEventKind::Recovery {
                m.fault_recoveries.inc();
            }
        }
        if faults.1 {
            m.degraded_queries.inc();
        }
        m.escalations.add(escalations as u64);
        m.rows_scanned.add(rows_scanned);
        for scan in level_scans {
            self.metrics
                .counter(&format!("engine.rows_scanned.{}", scan.level.name()))
                .add(scan.rows_scanned);
        }
        m.query_micros
            .observe(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        if bounds_missed.0 {
            m.error_bound_missed.inc();
        }
        if bounds_missed.1 {
            m.time_bound_missed.inc();
        }
        if let Some(trace) = trace {
            trace.admission = admission;
            self.traces.record(trace.clone());
        }
    }

    /// Check whether the workload focus has shifted beyond the adaptation
    /// threshold and, if so, rebuild every workload-driven hierarchy from its
    /// base table. Returns the maintenance decision that was made.
    ///
    /// The maintainer's workload reference is only advanced when at least
    /// one hierarchy was actually rebuilt: a shift detected while no
    /// workload-driven hierarchy exists stays pending, so the rebuild
    /// happens as soon as such a hierarchy appears instead of being
    /// silently forgotten.
    pub fn adapt(&self) -> Result<MaintenanceDecision> {
        let decision = {
            let predicate_set = self.predicate_set.lock();
            self.maintainer
                .lock()
                .evaluate(&predicate_set, &self.config)
        };
        if !decision.should_rebuild {
            return Ok(decision);
        }
        let tables: Vec<String> = self
            .hierarchies
            .read()
            .iter()
            .filter(|(_, h)| h.policy().is_workload_driven())
            .map(|(name, _)| name.clone())
            .collect();
        let mut rebuilt = 0u64;
        let mut faulted = 0u64;
        for table in tables {
            let handle = self
                .catalog
                .table(&table)
                .map_err(|_| SciborqError::UnknownTable(table.clone()))?;
            // Isolate each rebuild: hierarchies swap copy-on-write, so a
            // panic mid-rebuild (real or an injected `maintenance.rebuild`
            // fault) discards only the half-built clone — the serving
            // hierarchy stays the previous, fully consistent snapshot, and
            // other tables still get their rebuild.
            // Rebuilds take the same turn as loads and build off the map's
            // lock the same way (see `load`).
            let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<bool> {
                #[cfg(feature = "fault-injection")]
                sciborq_telemetry::fault_point!("maintenance.rebuild");
                let _writer = self.hierarchy_writer.lock();
                let guard = handle.read();
                let Some(current) = self.hierarchy(&table) else {
                    return Ok(false);
                };
                let mut updated = (*current).clone();
                let predicate_set = self.predicate_set.lock().clone();
                updated.rebuild_from_table(&guard, Some(&predicate_set))?;
                self.hierarchies
                    .write()
                    .insert(table.clone(), Arc::new(updated));
                Ok(true)
            }));
            match attempt {
                Ok(outcome) => {
                    if outcome? {
                        rebuilt += 1;
                    }
                }
                Err(_) => {
                    faulted += 1;
                    self.metrics.counter("maintenance.rebuild_faults").inc();
                }
            }
        }
        self.rebuilds.fetch_add(rebuilt, Ordering::Relaxed);
        if rebuilt > 0 && faulted == 0 {
            // Only a fully successful round advances the workload reference:
            // a lost rebuild keeps the shift pending, so the next adapt()
            // retries it instead of silently forgetting it.
            let predicate_set = self.predicate_set.lock();
            self.maintainer
                .lock()
                .update_reference(&predicate_set, &self.config);
        }
        if faulted > 0 {
            // The decision stands and any completed rebuilds are kept, but
            // the caller is told a rebuild was lost rather than pretending
            // adaptation fully happened.
            return Err(SciborqError::Internal {
                site: "maintenance.rebuild".to_owned(),
            });
        }
        Ok(decision)
    }
}

/// A catalog table as the engine's base data: read-locked only if an
/// escalation reaches it.
fn base_data(handle: &Option<Arc<RwLock<Table>>>) -> BaseData<'_> {
    handle.as_deref().map_or(BaseData::None, BaseData::Locked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::EvaluationLevel;
    use sciborq_columnar::{
        AggregateKind, DataType, Field, Predicate, RecordBatchBuilder, Schema, SchemaRef, Table,
        Value,
    };

    fn schema() -> SchemaRef {
        Schema::shared(vec![
            Field::new("objid", DataType::Int64),
            Field::new("ra", DataType::Float64),
            Field::new("r_mag", DataType::Float64),
        ])
        .unwrap()
    }

    fn batch(start: i64, rows: usize, ra_center: Option<f64>) -> RecordBatch {
        let mut b = RecordBatchBuilder::with_capacity(schema(), rows);
        for i in 0..rows as i64 {
            let objid = start + i;
            let ra = match ra_center {
                Some(c) => c + (objid % 100) as f64 * 0.05,
                None => (objid * 13 % 3600) as f64 / 10.0,
            };
            b.push_row(&[
                Value::Int64(objid),
                Value::Float64(ra),
                Value::Float64(15.0 + (objid % 10) as f64),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    }

    fn catalog_with_base(rows: usize) -> Catalog {
        let catalog = Catalog::new();
        let mut t = Table::new("photoobj", schema());
        t.append_batch(&batch(1, rows, None)).unwrap();
        catalog.register(t).unwrap();
        catalog
    }

    fn session(rows: usize) -> ExplorationSession {
        let config = SciborqConfig::with_layers(vec![2_000, 200]);
        ExplorationSession::new(
            catalog_with_base(rows),
            config,
            &[("ra", AttributeDomain::new(0.0, 360.0, 36))],
        )
        .unwrap()
    }

    #[test]
    fn invalid_config_rejected() {
        let err = ExplorationSession::new(Catalog::new(), SciborqConfig::with_layers(vec![]), &[])
            .unwrap_err();
        assert!(matches!(err, SciborqError::InvalidConfig(_)));
    }

    #[test]
    fn query_log_capacity_is_taken_from_config() {
        let config = SciborqConfig::with_layers(vec![2_000, 200]).with_query_log_capacity(3);
        let s = ExplorationSession::new(
            catalog_with_base(5_000),
            config,
            &[("ra", AttributeDomain::new(0.0, 360.0, 36))],
        )
        .unwrap();
        s.create_impressions("photoobj", SamplingPolicy::Uniform)
            .unwrap();
        for _ in 0..10 {
            let q = Query::count("photoobj", Predicate::True);
            s.execute(&q, &QueryBounds::default()).unwrap();
        }
        // the window holds only the configured capacity, but records totals
        assert_eq!(s.query_log().len(), 3);
        assert_eq!(s.query_log().total_recorded(), 10);
    }

    #[test]
    fn create_impressions_requires_known_table() {
        let s = session(5_000);
        assert!(matches!(
            s.create_impressions("missing", SamplingPolicy::Uniform),
            Err(SciborqError::UnknownTable(_))
        ));
        s.create_impressions("photoobj", SamplingPolicy::Uniform)
            .unwrap();
        assert!(s.hierarchy("photoobj").is_some());
        assert_eq!(s.hierarchy("photoobj").unwrap().layer_count(), 2);
    }

    #[test]
    fn query_without_impressions_is_an_error() {
        let s = session(1_000);
        // the table exists but has no hierarchy yet: a recoverable state,
        // reported distinctly from a bad table name
        let q = Query::count("photoobj", Predicate::True);
        assert!(matches!(
            s.execute(&q, &QueryBounds::default()),
            Err(SciborqError::NoImpressions { table }) if table == "photoobj"
        ));
        // a table the catalog has never heard of stays UnknownTable
        let q = Query::count("nonexistent", Predicate::True);
        assert!(matches!(
            s.execute(&q, &QueryBounds::default()),
            Err(SciborqError::UnknownTable(_))
        ));
    }

    #[test]
    fn scan_profile_reports_costs_and_admissibility() {
        let s = session(20_000);
        assert!(matches!(
            s.scan_profile("photoobj"),
            Err(SciborqError::NoImpressions { .. })
        ));
        s.create_impressions("photoobj", SamplingPolicy::Uniform)
            .unwrap();
        let profile = s.scan_profile("photoobj").unwrap();
        // escalation order: least detailed first
        assert_eq!(profile.layer_rows, vec![200, 2_000]);
        assert_eq!(profile.base_rows, Some(20_000));
        // no row budget: everything is admissible, the base data is worst
        let unbounded = QueryBounds::default();
        assert_eq!(profile.worst_admissible(&unbounded), Some(20_000));
        assert_eq!(profile.cheapest_admissible(&unbounded), Some(200));
        // a budget between the layers admits only the small one
        let tight = QueryBounds::row_budget(500);
        assert_eq!(profile.worst_admissible(&tight), Some(200));
        assert_eq!(profile.cheapest_admissible(&tight), Some(200));
        // a budget below every level admits nothing
        let impossible = QueryBounds::row_budget(10);
        assert_eq!(profile.worst_admissible(&impossible), None);
        assert!(matches!(
            s.scan_profile("missing"),
            Err(SciborqError::UnknownTable(_))
        ));
    }

    #[test]
    fn aggregate_query_end_to_end() {
        let s = session(50_000);
        s.create_impressions("photoobj", SamplingPolicy::Uniform)
            .unwrap();
        let q = Query::count("photoobj", Predicate::lt("ra", 90.0));
        let outcome = s.execute(&q, &QueryBounds::max_error(0.1)).unwrap();
        let answer = outcome.as_aggregate().unwrap();
        let truth = 12_500.0;
        assert!((answer.value.unwrap() - truth).abs() / truth < 0.15);
        assert!(outcome.as_rows().is_none());
        // the query was logged and its predicate values recorded
        assert_eq!(s.query_log().len(), 1);
        assert!(s.predicate_set().observed_values("ra") > 0);
    }

    #[test]
    fn select_query_end_to_end() {
        let s = session(20_000);
        s.create_impressions("photoobj", SamplingPolicy::Uniform)
            .unwrap();
        let q = Query::select("photoobj", Predicate::lt("ra", 180.0)).with_limit(25);
        let outcome = s.execute_with_defaults(&q).unwrap();
        let rows = outcome.as_rows().unwrap();
        assert_eq!(rows.returned_rows(), 25);
        assert!(outcome.as_aggregate().is_none());
    }

    #[test]
    fn batched_execution_is_bit_identical_to_serial() {
        let serial = session(50_000);
        let batched = session(50_000);
        serial
            .create_impressions("photoobj", SamplingPolicy::Uniform)
            .unwrap();
        batched
            .create_impressions("photoobj", SamplingPolicy::Uniform)
            .unwrap();

        let requests: Vec<(Query, QueryBounds)> = vec![
            (
                Query::count("photoobj", Predicate::lt("ra", 90.0)),
                QueryBounds::max_error(0.1),
            ),
            // same predicate + sink as the first query: shares its scan
            (
                Query::count("photoobj", Predicate::lt("ra", 90.0)),
                QueryBounds::max_error(0.02),
            ),
            (
                Query::aggregate(
                    "photoobj",
                    Predicate::lt("ra", 180.0),
                    AggregateKind::Sum,
                    "r_mag",
                ),
                QueryBounds::max_error(0.05),
            ),
            (
                Query::aggregate("photoobj", Predicate::True, AggregateKind::Avg, "r_mag"),
                QueryBounds::max_error(0.05),
            ),
            // escalates all the way into the base data
            (
                Query::count("photoobj", Predicate::lt("objid", 101.0)),
                QueryBounds::max_error(1e-9),
            ),
            // unsatisfiable row budget: a typed error, same as serial
            (
                Query::count("photoobj", Predicate::True),
                QueryBounds::row_budget(10),
            ),
            // a SELECT rides along in the same shared passes
            (
                Query::select("photoobj", Predicate::lt("ra", 180.0)).with_limit(5),
                QueryBounds::default(),
            ),
        ];

        let batch_results = batched.execute_batch(&requests);
        for ((query, bounds), batch_result) in requests.iter().zip(&batch_results) {
            let serial_result = serial.execute(query, bounds);
            match (&serial_result, batch_result) {
                (Ok(QueryOutcome::Aggregate(a)), Ok(QueryOutcome::Aggregate(b))) => {
                    assert_eq!(
                        a.value.map(f64::to_bits),
                        b.value.map(f64::to_bits),
                        "value bits for {query}"
                    );
                    let bits = |ci: &Option<sciborq_stats::ConfidenceInterval>| {
                        ci.map(|ci| (ci.lower.to_bits(), ci.upper.to_bits()))
                    };
                    assert_eq!(bits(&a.interval), bits(&b.interval), "interval for {query}");
                    assert_eq!(a.level, b.level, "level for {query}");
                    assert_eq!(a.rows_scanned, b.rows_scanned, "rows for {query}");
                    assert_eq!(a.escalations, b.escalations, "escalations for {query}");
                    assert_eq!(a.error_bound_met, b.error_bound_met, "met for {query}");
                }
                (Ok(QueryOutcome::Rows(a)), Ok(QueryOutcome::Rows(b))) => {
                    assert_eq!(a.returned_rows(), b.returned_rows());
                    assert_eq!(a.level, b.level);
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "error for {query}"),
                (s, b) => panic!("outcome divergence for {query}: {s:?} vs {b:?}"),
            }
        }
        // both sessions logged everything
        assert_eq!(
            serial.query_log().total_recorded(),
            batched.query_log().total_recorded()
        );
    }

    #[test]
    fn session_records_metrics_per_query() {
        let s = session(20_000);
        s.create_impressions("photoobj", SamplingPolicy::Uniform)
            .unwrap();
        // one answered query escalating into the base data, one typed error
        let q = Query::count("photoobj", Predicate::lt("objid", 101.0));
        s.execute(&q, &QueryBounds::max_error(1e-9)).unwrap();
        let bad = Query::count("photoobj", Predicate::True);
        let _ = s.execute(&bad, &QueryBounds::row_budget(10)).unwrap_err();

        let snap = s.metrics_snapshot();
        assert_eq!(snap.counter("engine.queries"), Some(2));
        assert_eq!(snap.counter("engine.query_errors"), Some(1));
        assert!(snap.counter("engine.escalations").unwrap() >= 2);
        assert!(snap.counter("engine.rows_scanned").unwrap() >= 20_000);
        // per-level counters exist for every visited level
        assert!(snap.counter("engine.rows_scanned.base").unwrap() >= 20_000);
        assert!(snap.counter("engine.rows_scanned.layer-1").unwrap() > 0);
        assert!(snap.counter("engine.rows_scanned.layer-2").unwrap() > 0);
        let hist = snap.histogram("engine.query_micros").unwrap();
        assert_eq!(hist.count, 1, "only answered queries are timed");
        assert_eq!(snap.counter("engine.error_bound_missed"), Some(0));
        assert_eq!(snap.counter("engine.time_bound_missed"), Some(0));
    }

    #[test]
    fn session_retains_traces_with_admission_stamp() {
        let config = SciborqConfig::with_layers(vec![2_000, 200])
            .with_collect_traces(true)
            .with_trace_capacity(2);
        let s = ExplorationSession::new(
            catalog_with_base(20_000),
            config,
            &[("ra", AttributeDomain::new(0.0, 360.0, 36))],
        )
        .unwrap();
        s.create_impressions("photoobj", SamplingPolicy::Uniform)
            .unwrap();
        assert!(s.recent_traces(10).is_empty());

        let q = Query::count("photoobj", Predicate::lt("ra", 90.0));
        let admission = AdmissionTrace {
            outcome: "downgraded".to_owned(),
            queue_wait: std::time::Duration::from_micros(42),
            cost_rows: 2_000,
        };
        let outcome = s
            .execute_with_admission(&q, &QueryBounds::max_error(0.1), Some(admission.clone()))
            .unwrap();
        // the admission verdict rides on both the answer's trace and the ring
        let answer_trace = outcome.as_aggregate().unwrap().trace.as_ref().unwrap();
        assert_eq!(answer_trace.admission, Some(admission.clone()));
        let recent = s.recent_traces(10);
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0], *answer_trace);

        // the ring is bounded: capacity 2 retains only the newest traces
        for _ in 0..3 {
            s.execute(&q, &QueryBounds::max_error(0.1)).unwrap();
        }
        let recent = s.recent_traces(10);
        assert_eq!(recent.len(), 2);
        assert!(recent.iter().all(|t| t.admission.is_none()));

        // batch execution stamps per-request admissions the same way
        let bounds = QueryBounds::max_error(0.1);
        let requests = [(&q, &bounds), (&q, &bounds)];
        let outcomes = s.execute_batch_with_admission(&requests, &[Some(admission.clone()), None]);
        let first = outcomes[0].as_ref().unwrap().as_aggregate().unwrap();
        assert_eq!(first.trace.as_ref().unwrap().admission, Some(admission));
        let second = outcomes[1].as_ref().unwrap().as_aggregate().unwrap();
        assert_eq!(second.trace.as_ref().unwrap().admission, None);
    }

    #[test]
    fn incremental_load_updates_base_and_impressions() {
        let s = session(10_000);
        s.create_impressions("photoobj", SamplingPolicy::Uniform)
            .unwrap();
        let before = s.hierarchy("photoobj").unwrap().observed_rows();
        s.load("photoobj", &batch(10_001, 5_000, None)).unwrap();
        let after = s.hierarchy("photoobj").unwrap().observed_rows();
        assert_eq!(after, before + 5_000);
        let base_rows = s.catalog().table("photoobj").unwrap().read().row_count();
        assert_eq!(base_rows, 15_000);
        // counting still reflects the new load: COUNT(*) over everything has
        // zero sampling variance, so even a tiny error bound is satisfied on
        // an impression — and the expanded estimate equals the new base size.
        let q = Query::count("photoobj", Predicate::True);
        let outcome = s.execute(&q, &QueryBounds::max_error(1e-9)).unwrap();
        let answer = outcome.as_aggregate().unwrap();
        assert_eq!(answer.value.unwrap(), 15_000.0);
        assert!(answer.error_bound_met);
        // a genuinely selective predicate with a near-zero error bound must
        // still fall through to the base data
        let selective = Query::count("photoobj", Predicate::lt("objid", 101.0));
        let outcome = s
            .execute(&selective, &QueryBounds::max_error(1e-9))
            .unwrap();
        let exact = outcome.as_aggregate().unwrap();
        assert_eq!(exact.level, EvaluationLevel::BaseData);
        assert_eq!(exact.value.unwrap(), 100.0);
        assert!(matches!(
            s.load("missing", &batch(1, 10, None)),
            Err(SciborqError::UnknownTable(_))
        ));
    }

    #[test]
    fn adaptation_rebuilds_biased_impressions_on_focus_shift() {
        let s = session(40_000);
        // Phase 1: workload focused on ra ≈ 90
        for _ in 0..30 {
            let q = Query::count("photoobj", Predicate::between("ra", 88.0, 92.0));
            s.query_log.lock().record(q.clone());
            s.predicate_set.lock().log_query(&q);
        }
        s.create_impressions("photoobj", SamplingPolicy::biased(["ra"]))
            .unwrap();
        let enrichment = |session: &ExplorationSession, lo: f64, hi: f64| {
            let h = session.hierarchy("photoobj").unwrap();
            let layer = &h.layers()[0];
            Predicate::between("ra", lo, hi)
                .evaluate(layer.data())
                .unwrap()
                .len() as f64
                / layer.row_count() as f64
        };
        let phase1_share = enrichment(&s, 88.0, 92.0);
        assert!(phase1_share > 0.05, "phase-1 focal share {phase1_share}");
        // without a shift, adapt() is a no-op
        let decision = s.adapt().unwrap();
        assert!(!decision.should_rebuild);
        assert_eq!(s.rebuilds(), 0);

        // Phase 2: the scientist moves to ra ≈ 270
        for _ in 0..120 {
            let q = Query::count("photoobj", Predicate::between("ra", 268.0, 272.0));
            let _ = s.execute(&q, &QueryBounds::default());
        }
        let decision = s.adapt().unwrap();
        assert!(decision.should_rebuild, "shift {}", decision.max_shift);
        assert_eq!(s.rebuilds(), 1);
        let phase2_share = enrichment(&s, 268.0, 272.0);
        assert!(
            phase2_share > phase1_share / 2.0,
            "after adaptation the new focus must be enriched (share {phase2_share})"
        );
    }

    #[test]
    fn uniform_hierarchies_are_not_rebuilt_by_adaptation() {
        let s = session(10_000);
        s.create_impressions("photoobj", SamplingPolicy::Uniform)
            .unwrap();
        for _ in 0..100 {
            let q = Query::count("photoobj", Predicate::between("ra", 10.0, 12.0));
            let _ = s.execute(&q, &QueryBounds::default());
        }
        let decision = s.adapt().unwrap();
        // the focus shifted (no reference initially matched), but no
        // workload-driven hierarchy exists, so nothing is rebuilt
        assert!(decision.should_rebuild);
        assert_eq!(s.rebuilds(), 0);
        // … and because nothing was rebuilt, the workload reference must NOT
        // advance: the shift stays pending instead of being forgotten, so a
        // later adapt() still sees it.
        let again = s.adapt().unwrap();
        assert!(
            again.should_rebuild,
            "a shift with no rebuilt hierarchy must stay pending"
        );
        assert_eq!(s.rebuilds(), 0);
    }

    #[test]
    fn session_is_shareable_across_threads() {
        let s = session(20_000);
        s.create_impressions("photoobj", SamplingPolicy::Uniform)
            .unwrap();
        let s = Arc::new(s);
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..5 {
                    let ra = ((t * 5 + i) * 17 % 360) as f64;
                    let q = Query::count("photoobj", Predicate::lt("ra", ra.max(1.0)));
                    s.execute(&q, &QueryBounds::max_error(0.5)).unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(s.query_log().total_recorded(), 20);
    }
}
