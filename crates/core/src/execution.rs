//! Compile-once query execution state.
//!
//! The bounded query engine escalates one query through several impressions
//! and possibly the base table. [`QueryExecution`] is the per-query object
//! that carries it across levels: it compiles the predicate into a
//! [`CompiledPredicate`] exactly once (all impressions of a hierarchy share
//! the base table's schema, so one compilation serves every level), decides
//! each level's shard fan-out, and records *measured* scan accounting —
//! rows actually visited by the kernels and per-level wall time — plus the
//! fault events of the degradation ladder. Levels are still *admitted* by
//! their row count (the impression-size knob the paper's runtime bounds
//! turn), but every answer reports what the kernels really did; for
//! conjunctions with mask refinement the measured visits can differ from
//! the level's row count in either direction.
//!
//! All state lives behind interior mutability (`RwLock` for the compiled
//! predicate, `Mutex` for the scan and fault records), so an execution can
//! be driven through `&self`: the engine's shared scan passes (see
//! [`crate::batch`]) feed many executions from one sweep — aggregates and
//! SELECTs alike — each booking its own accounting through
//! [`QueryExecution::record_scan`].

use crate::answer::{EvaluationLevel, LevelScan};
use crate::error::Result;
use parking_lot::{Mutex, RwLock};
use sciborq_columnar::{CompiledPredicate, Partitioning, Predicate, ScanStats, Table};
use sciborq_telemetry::{FaultEvent, FaultEventKind};
use std::sync::Arc;
use std::time::Instant;

/// Minimum rows a shard must hold before a scan is worth fanning out: below
/// this, thread spawn/join overhead dwarfs the per-shard scan. Tables
/// smaller than `2 × MIN_ROWS_PER_SHARD` therefore always scan on the
/// calling thread, whatever the configured parallelism.
pub const MIN_ROWS_PER_SHARD: usize = 4_096;

/// Per-query execution state: the compiled predicate plus measured
/// per-level scan accounting.
#[derive(Debug)]
pub struct QueryExecution {
    predicate: Predicate,
    compiled: RwLock<Option<Arc<CompiledPredicate>>>,
    levels: Mutex<Vec<LevelScan>>,
    faults: Mutex<Vec<FaultEvent>>,
    parallelism: usize,
}

impl QueryExecution {
    /// Start executing a query with the given predicate, single-threaded.
    pub fn new(predicate: Predicate) -> Self {
        QueryExecution::with_parallelism(predicate, 1)
    }

    /// Start executing a query that may fan scans out over up to
    /// `parallelism` shards. Sharding engages per table: only tables with at
    /// least [`MIN_ROWS_PER_SHARD`] rows per shard fan out (small
    /// impressions stay on the calling thread), and the shard merge order is
    /// fixed, so results are bit-identical to `parallelism == 1` execution.
    pub fn with_parallelism(predicate: Predicate, parallelism: usize) -> Self {
        QueryExecution {
            predicate,
            compiled: RwLock::new(None),
            levels: Mutex::new(Vec::new()),
            faults: Mutex::new(Vec::new()),
            parallelism: parallelism.max(1),
        }
    }

    /// The shard layout used for a table of `rows` rows: `None` when the
    /// scan should stay single-threaded. Exposed so the shared multi-query
    /// scan path makes the exact same fan-out decision as per-query
    /// execution (a prerequisite of its bit-identity guarantee).
    pub fn partitioning(&self, rows: usize) -> Option<Partitioning> {
        let shards = self.parallelism.min(rows / MIN_ROWS_PER_SHARD);
        if shards >= 2 {
            Some(Partitioning::even(rows, shards))
        } else {
            None
        }
    }

    /// The compiled predicate for `table`, compiling on first use and
    /// recompiling only if a table with a different schema shows up
    /// (impressions share their base table's schema, so in practice this
    /// compiles once per query).
    pub fn compiled_for(&self, table: &Table) -> Result<Arc<CompiledPredicate>> {
        if let Some(compiled) = self.compiled.read().as_ref() {
            if compiled.matches_schema(table.schema()) {
                return Ok(Arc::clone(compiled));
            }
        }
        let fresh = Arc::new(CompiledPredicate::compile(&self.predicate, table.schema())?);
        *self.compiled.write() = Some(Arc::clone(&fresh));
        Ok(fresh)
    }

    /// Record a measured scan over `level`: `stats` as rolled up across all
    /// `shards`, timed from `started`. Repeated passes over the same level
    /// (e.g. selection + count, or one pass per conjunct) merge into one
    /// [`LevelScan`]. Public so the shared multi-query scan can book the
    /// group scan it ran on behalf of this execution.
    pub fn record_scan(
        &self,
        level: EvaluationLevel,
        stats: ScanStats,
        shards: usize,
        started: Instant,
    ) {
        let elapsed = started.elapsed();
        let mut levels = self.levels.lock();
        // merge repeated passes over the same level (e.g. selection + count)
        if let Some(last) = levels.last_mut() {
            if last.level == level {
                last.rows_scanned += stats.rows_visited;
                last.elapsed += elapsed;
                last.shards = last.shards.max(shards);
                return;
            }
        }
        levels.push(LevelScan {
            level,
            rows_scanned: stats.rows_visited,
            elapsed,
            shards,
        });
    }

    /// Record a fault-handling event against this execution; the session
    /// turns these into `engine.fault_*` counters when the answer is
    /// observed, and they ride on the answer's trace.
    pub fn record_fault(&self, site: &str, kind: FaultEventKind) {
        self.faults.lock().push(FaultEvent {
            site: site.to_owned(),
            kind,
        });
    }

    /// Drain the fault events accumulated so far (paired with
    /// [`QueryExecution::take_level_scans`] when an answer is finalised).
    pub fn take_fault_events(&self) -> Vec<FaultEvent> {
        std::mem::take(&mut *self.faults.lock())
    }

    /// Total measured rows visited by the scan kernels so far.
    pub fn rows_scanned(&self) -> u64 {
        self.levels.lock().iter().map(|l| l.rows_scanned).sum()
    }

    /// Number of levels evaluated so far.
    pub fn levels_visited(&self) -> usize {
        self.levels.lock().len()
    }

    /// A snapshot of the per-level scan records accumulated so far.
    pub fn level_scans(&self) -> Vec<LevelScan> {
        self.levels.lock().clone()
    }

    /// Drain the per-level scan records out of the execution (used when an
    /// answer is finalised; subsequent records would start a fresh list).
    pub fn take_level_scans(&self) -> Vec<LevelScan> {
        std::mem::take(&mut *self.levels.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciborq_columnar::{
        multi_scan, numeric_source, CountSink, DataType, Field, MomentSink, MultiScanItem, Schema,
        Value,
    };

    /// One level's matching rows, taken the way the engine's shared pass
    /// takes a SELECT's: a row-id sink in a `multi_scan`, fanned out when
    /// the execution says so, and booked through `record_scan`.
    fn select_rows(exec: &QueryExecution, level: EvaluationLevel, table: &Table) -> Vec<usize> {
        let compiled = exec.compiled_for(table).unwrap();
        let parts = exec.partitioning(table.row_count());
        let started = Instant::now();
        let mut rows: Vec<usize> = Vec::new();
        let mut items = [MultiScanItem {
            predicate: &compiled,
            sink: &mut rows,
        }];
        let stats = multi_scan(table, &mut items, parts.as_ref())
            .pop()
            .unwrap()
            .unwrap();
        let shards = parts.map_or(1, |p| p.shard_count());
        exec.record_scan(level, stats, shards, started);
        rows
    }

    fn table(rows: usize) -> Table {
        let schema = Schema::shared(vec![
            Field::new("ra", DataType::Float64),
            Field::new("r_mag", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("photoobj", schema);
        for i in 0..rows {
            t.append_row(&[
                Value::Float64(i as f64),
                Value::Float64(15.0 + (i % 10) as f64),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn compiles_once_across_levels_with_shared_schema() {
        let big = table(100);
        let small = big
            .gather(
                Predicate::lt("ra", 50.0).evaluate(&big).unwrap().rows(),
                "small",
            )
            .unwrap();
        let exec = QueryExecution::new(Predicate::lt("ra", 10.0));
        let a = select_rows(&exec, EvaluationLevel::Layer(2), &small);
        assert_eq!(a.len(), 10);
        let compiled_before = exec.compiled.read().clone().expect("compiled on first use");
        let b = select_rows(&exec, EvaluationLevel::Layer(1), &big);
        assert_eq!(b.len(), 10);
        // the impression shares the base schema: no recompilation happened
        let compiled_after = exec.compiled.read().clone().expect("still compiled");
        assert!(Arc::ptr_eq(&compiled_before, &compiled_after));
        assert_eq!(exec.levels_visited(), 2);
        assert_eq!(exec.rows_scanned(), 150);
    }

    #[test]
    fn fused_paths_record_measured_scans() {
        let t = table(60);
        let exec =
            QueryExecution::new(Predicate::lt("ra", 30.0).and(Predicate::gt_eq("r_mag", 15.0)));
        let compiled = exec.compiled_for(&t).unwrap();
        // two fused sinks over the same level in one shared pass, each
        // booked the way the aggregate path books its group scans
        let mut count = CountSink::default();
        let mut moments = MomentSink::new(numeric_source(&t, "r_mag").unwrap());
        let mut items = [
            MultiScanItem {
                predicate: &compiled,
                sink: &mut count,
            },
            MultiScanItem {
                predicate: &compiled,
                sink: &mut moments,
            },
        ];
        let started = Instant::now();
        for stats in multi_scan(&t, &mut items, None) {
            exec.record_scan(EvaluationLevel::Layer(1), stats.unwrap(), 1, started);
        }
        assert_eq!(count.0, 30);
        assert_eq!(moments.sketch.matched, 30);
        // per pass, the first conjunct scans all 60 rows and the terminal
        // one only the 30 candidates; the two passes over the same level
        // merge into one record
        assert_eq!(exec.levels_visited(), 1);
        assert_eq!(exec.level_scans()[0].rows_scanned, 180);
    }

    #[test]
    fn merges_same_level_and_separates_new_levels() {
        let t = table(10);
        let exec = QueryExecution::new(Predicate::True);
        select_rows(&exec, EvaluationLevel::Layer(1), &t);
        select_rows(&exec, EvaluationLevel::Layer(1), &t);
        select_rows(&exec, EvaluationLevel::BaseData, &t);
        let scans = exec.take_level_scans();
        assert_eq!(scans.len(), 2);
        assert_eq!(scans[0].rows_scanned, 20);
        assert_eq!(scans[1].level, EvaluationLevel::BaseData);
        // draining resets the accounting
        assert_eq!(exec.levels_visited(), 0);
        assert_eq!(exec.rows_scanned(), 0);
    }
}
