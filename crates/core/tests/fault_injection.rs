//! Deterministic fault-injection tests for the core degradation ladder.
//!
//! These tests install process-global fault plans, so they live in their own
//! integration binary (one process, no unrelated tests to disturb) and are
//! serialized through [`serial`]. Panics injected here are expected and
//! caught by the isolation seams; the default panic hook is silenced for the
//! duration of each test to keep the output readable.

#![cfg(feature = "fault-injection")]

use sciborq_columnar::{
    AggregateKind, DataType, Field, Predicate, RecordBatchBuilder, Schema, SchemaRef, Table, Value,
};
use sciborq_core::answer::EvaluationLevel;
use sciborq_core::engine::{BoundedQueryEngine, QueryBounds};
use sciborq_core::layer::LayerHierarchy;
use sciborq_core::{
    ApproximateAnswer, QueryOutcome, SamplingPolicy, SciborqConfig, SciborqError, SelectAnswer,
};
use sciborq_telemetry::faults::{self, FaultPlan, Trigger};
use sciborq_telemetry::FaultEventKind;
use sciborq_workload::Query;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One fault plan at a time: the registry is process-global.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// While a plan is active, suppress panic-hook output for *injected*
/// panics only (they are part of the test, not noise); real assertion
/// failures still print through the previous hook.
static QUIET: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn init_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault at"));
            if !(QUIET.load(std::sync::atomic::Ordering::Relaxed) && injected) {
                prev(info);
            }
        }));
    });
}

/// Run `f` with `plan` installed; the registry is cleared (and the quiet
/// flag dropped) even if `f` panics.
fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
    struct Cleanup;
    impl Drop for Cleanup {
        fn drop(&mut self) {
            QUIET.store(false, std::sync::atomic::Ordering::Relaxed);
            faults::clear();
        }
    }
    init_quiet_hook();
    faults::install(plan);
    QUIET.store(true, std::sync::atomic::Ordering::Relaxed);
    let _cleanup = Cleanup;
    f()
}

fn schema() -> SchemaRef {
    Schema::shared(vec![
        Field::new("objid", DataType::Int64),
        Field::new("ra", DataType::Float64),
        Field::new("r_mag", DataType::Float64),
    ])
    .unwrap()
}

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

/// An engine whose scans fan out over two shards wherever a level holds at
/// least 2 × 4096 rows (the engine's minimum rows per shard).
fn sharded_engine() -> BoundedQueryEngine {
    BoundedQueryEngine::new(SciborqConfig::default().with_parallelism(2)).unwrap()
}

/// A batch of aggregates through the engine's one escalation loop.
fn aggregate_batch(
    engine: &BoundedQueryEngine,
    batch: &[(&Query, &QueryBounds)],
    h: &LayerHierarchy,
    table: &Table,
) -> Vec<Result<ApproximateAnswer, SciborqError>> {
    engine
        .execute_batch(batch, h, Some(table))
        .into_iter()
        .map(|outcome| match outcome? {
            QueryOutcome::Aggregate(answer) => Ok(answer),
            QueryOutcome::Rows(_) => panic!("an aggregate answers with a value"),
        })
        .collect()
}

/// A SELECT as a batch of one.
fn select(
    engine: &BoundedQueryEngine,
    query: &Query,
    h: &LayerHierarchy,
    table: &Table,
) -> Result<SelectAnswer, SciborqError> {
    let bounds = QueryBounds::default();
    match engine
        .execute_batch(&[(query, &bounds)], h, Some(table))
        .pop()
        .unwrap()?
    {
        QueryOutcome::Rows(answer) => Ok(answer),
        QueryOutcome::Aggregate(_) => panic!("a SELECT answers with rows"),
    }
}

/// Assert that `answer` recorded exactly one fault event, at `site`.
fn assert_one_event(answer: &ApproximateAnswer, site: &str, kind: FaultEventKind) {
    assert_eq!(
        answer.fault_events.len(),
        1,
        "events: {:?}",
        answer.fault_events
    );
    assert_eq!(answer.fault_events[0].site, site);
    assert_eq!(answer.fault_events[0].kind, kind);
}

/// Degradation ladder, first rung: a shard worker lost to a panic is redone
/// with the serial kernel, bit-identically (kernel parity), and the recovery
/// is recorded without flagging the answer degraded.
#[test]
fn shard_panic_falls_back_to_the_serial_kernel_bit_identically() {
    let _guard = serial();
    // The base table is big enough to fan out at parallelism 2; the layers
    // are not, so the base pass is the query's only sharded scan.
    let table = base_table(2 * 4096);
    let h = hierarchy(&table, vec![800, 80]);
    let query = Query::count("photoobj", Predicate::lt("ra", 180.0));
    // the tiny bound forces escalation into the base data
    let bounds = QueryBounds::max_error(1e-9);
    let expected = sharded_engine()
        .execute_aggregate(&query, &h, Some(&table), &bounds)
        .unwrap();
    assert_eq!(expected.level, EvaluationLevel::BaseData);
    assert_eq!(expected.level_scans.last().unwrap().shards, 2);
    assert!(expected.fault_events.is_empty());

    let recovered = with_plan(
        FaultPlan::new(9).panic_at("scan.shard", Trigger::Nth(1)),
        || sharded_engine().execute_aggregate(&query, &h, Some(&table), &bounds),
    )
    .unwrap();

    assert_eq!(
        recovered.value.map(f64::to_bits),
        expected.value.map(f64::to_bits),
        "recovered scan must be bit-identical"
    );
    assert_eq!(recovered.level, EvaluationLevel::BaseData);
    assert_eq!(recovered.rows_scanned, expected.rows_scanned);
    assert_eq!(
        recovered.level_scans.last().unwrap().shards,
        1,
        "fallback ran serially"
    );
    assert!(!recovered.degraded, "a recovery is not a degradation");
    assert_one_event(&recovered, "scan.shard", FaultEventKind::Recovery);
}

/// The shard rung on a shared pass: one sharded sweep serves every member,
/// so one lost fan-out is redone serially for all of them — bit-identical
/// answers, one recovery event each, nothing flagged degraded.
#[test]
fn shared_pass_shard_panic_recovers_every_member_bit_identically() {
    let _guard = serial();
    let table = base_table(2 * 4096);
    let h = hierarchy(&table, vec![800, 80]);
    let count = Query::count("photoobj", Predicate::lt("ra", 180.0));
    let avg = Query::aggregate(
        "photoobj",
        Predicate::lt("ra", 90.0),
        AggregateKind::Avg,
        "r_mag",
    );
    let bounds = QueryBounds::max_error(1e-9);
    let batch = [(&count, &bounds), (&avg, &bounds)];
    let expected: Vec<ApproximateAnswer> = aggregate_batch(&sharded_engine(), &batch, &h, &table)
        .into_iter()
        .map(Result::unwrap)
        .collect();

    let recovered = with_plan(
        FaultPlan::new(16).panic_at("scan.shard", Trigger::Nth(1)),
        || aggregate_batch(&sharded_engine(), &batch, &h, &table),
    );

    assert_eq!(recovered.len(), expected.len());
    for (answer, expected) in recovered.into_iter().zip(&expected) {
        let answer = answer.unwrap();
        assert_eq!(expected.level, EvaluationLevel::BaseData);
        assert_eq!(expected.level_scans.last().unwrap().shards, 2);
        assert_eq!(
            answer.value.map(f64::to_bits),
            expected.value.map(f64::to_bits),
            "recovered shared pass must be bit-identical for {}",
            answer.query
        );
        assert_eq!(answer.level, expected.level);
        assert_eq!(answer.rows_scanned, expected.rows_scanned);
        assert_eq!(answer.level_scans.last().unwrap().shards, 1);
        assert!(!answer.degraded);
        assert_one_event(&answer, "scan.shard", FaultEventKind::Recovery);
    }
}

/// Degradation ladder, second rung: a whole level lost to a panic is
/// skipped, escalation continues, and the answer that does come back is
/// flagged `degraded` with the skip on its fault-event record.
#[test]
fn level_fault_degrades_to_the_next_level() {
    let _guard = serial();
    let table = base_table(20_000);
    let h = hierarchy(&table, vec![2_000, 200]);
    let query = Query::count("photoobj", Predicate::lt("ra", 180.0));
    let bounds = QueryBounds::max_error(0.2);

    // Oracle first: fault-free, the loose bound is met on the smallest
    // (200-row) layer.
    let clean = engine()
        .execute_aggregate(&query, &h, Some(&table), &bounds)
        .unwrap();
    assert_eq!(clean.level, EvaluationLevel::Layer(2));
    assert!(!clean.degraded);
    assert!(clean.fault_events.is_empty());

    // Kill the first level evaluation: the engine must skip it, answer from
    // the next layer, and say so.
    let degraded = with_plan(
        FaultPlan::new(11).panic_at("engine.level", Trigger::Nth(1)),
        || engine().execute_aggregate(&query, &h, Some(&table), &bounds),
    )
    .unwrap();
    assert_eq!(degraded.level, EvaluationLevel::Layer(1));
    assert!(degraded.degraded);
    assert_eq!(degraded.fault_events.len(), 1);
    assert_eq!(degraded.fault_events[0].site, "engine.level");
    assert_eq!(degraded.fault_events[0].kind, FaultEventKind::Degradation);
    // Bounds stay honest: the verdict is measured on the layer actually
    // returned, which also meets the loose bound here.
    assert!(degraded.error_bound_met);
}

/// The level rung on a shared pass: the first pass serves every member, so
/// losing it degrades them all — each answers from the next layer, flagged,
/// with exactly one degradation event and honestly re-measured bounds.
#[test]
fn shared_pass_level_fault_degrades_every_member_to_the_next_level() {
    let _guard = serial();
    let table = base_table(20_000);
    let h = hierarchy(&table, vec![2_000, 200]);
    let count = Query::count("photoobj", Predicate::lt("ra", 180.0));
    let sum = Query::aggregate(
        "photoobj",
        Predicate::lt("ra", 180.0),
        AggregateKind::Sum,
        "r_mag",
    );
    let bounds = QueryBounds::max_error(0.2);
    let batch = [(&count, &bounds), (&sum, &bounds)];

    // Oracle first: fault-free, both loose bounds are met on the smallest
    // (200-row) layer.
    for answer in aggregate_batch(&engine(), &batch, &h, &table) {
        let answer = answer.unwrap();
        assert_eq!(answer.level, EvaluationLevel::Layer(2));
        assert!(!answer.degraded);
    }

    let degraded = with_plan(
        FaultPlan::new(15).panic_at("engine.level", Trigger::Nth(1)),
        || aggregate_batch(&engine(), &batch, &h, &table),
    );
    assert_eq!(degraded.len(), 2);
    for answer in degraded {
        let answer = answer.unwrap();
        assert_eq!(answer.level, EvaluationLevel::Layer(1), "{}", answer.query);
        assert!(answer.degraded);
        assert_one_event(&answer, "engine.level", FaultEventKind::Degradation);
        assert!(answer.error_bound_met);
    }
}

/// When *every* rung of the ladder is lost, the query fails typed — the
/// caller gets `Internal`, never a silent wrong answer or a hang.
#[test]
fn total_level_loss_fails_typed() {
    let _guard = serial();
    let table = base_table(20_000);
    let h = hierarchy(&table, vec![2_000, 200]);
    let query = Query::count("photoobj", Predicate::lt("ra", 180.0));

    let result = with_plan(
        FaultPlan::new(12).panic_at("engine.level", Trigger::Always),
        || engine().execute_aggregate(&query, &h, Some(&table), &QueryBounds::max_error(0.2)),
    );
    assert_eq!(
        result.err(),
        Some(SciborqError::Internal {
            site: "engine.level".to_owned()
        })
    );
}

/// SELECT path: a panicked level is skipped the same way, and the degraded
/// flag travels on the select answer.
#[test]
fn select_level_fault_degrades() {
    let _guard = serial();
    let table = base_table(20_000);
    let h = hierarchy(&table, vec![2_000, 200]);
    let query = Query::select("photoobj", Predicate::lt("ra", 36.0)).with_limit(10);

    let clean = select(&engine(), &query, &h, &table).unwrap();
    assert!(!clean.degraded);

    let degraded = with_plan(
        FaultPlan::new(13).panic_at("engine.level", Trigger::Nth(1)),
        || select(&engine(), &query, &h, &table),
    )
    .unwrap();
    assert!(degraded.degraded);
    assert_eq!(degraded.fault_events[0].site, "engine.level");
    assert!(degraded.returned_rows() > 0);
}

/// Delay faults never corrupt anything: the answer is bit-identical to the
/// fault-free one, only slower.
#[test]
fn delay_fault_only_slows_the_query() {
    let _guard = serial();
    let table = base_table(20_000);
    let h = hierarchy(&table, vec![2_000, 200]);
    let query = Query::count("photoobj", Predicate::lt("ra", 180.0));
    let bounds = QueryBounds::max_error(0.2);

    let clean = engine()
        .execute_aggregate(&query, &h, Some(&table), &bounds)
        .unwrap();
    let delayed = with_plan(
        FaultPlan::new(14).delay_at(
            "engine.level",
            std::time::Duration::from_millis(5),
            Trigger::Always,
        ),
        || engine().execute_aggregate(&query, &h, Some(&table), &bounds),
    )
    .unwrap();
    assert_eq!(
        delayed.value.map(f64::to_bits),
        clean.value.map(f64::to_bits)
    );
    assert_eq!(delayed.level, clean.level);
    assert!(!delayed.degraded);
    assert!(delayed.fault_events.is_empty());
}
