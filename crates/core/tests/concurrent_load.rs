//! Incremental loads and adaptive rebuilds beside concurrent shared-scan
//! queries.
//!
//! `ExplorationSession::load` takes the session's hierarchy-writer mutex,
//! appends under the table's write lock, then reads the base table and
//! patches a clone of the current hierarchy with no hierarchy lock held;
//! the `hierarchies` write lock is taken only to swap the clone in
//! (canonical order: writer, table, hierarchies). `adapt` rebuilds under
//! the same writer mutex. These tests run loaders (and, in the second, an
//! adapting thread) against threads of `execute_batch` so the sequence is
//! exercised dynamically (CI also runs them under ThreadSanitizer): every
//! reply must be `Ok`, and once the writers are done the hierarchy must
//! have observed exactly the rows in the base table — no load is lost to
//! a concurrent swap.

use sciborq_columnar::{
    AggregateKind, Catalog, DataType, Field, Predicate, RecordBatch, RecordBatchBuilder, Schema,
    SchemaRef, Table, Value,
};
use sciborq_core::{ExplorationSession, QueryBounds, SamplingPolicy, SciborqConfig};
use sciborq_workload::{AttributeDomain, Query};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;

const INITIAL_ROWS: usize = 4_000;
const LOADS: usize = 16;
const ROWS_PER_LOAD: usize = 250;
const QUERY_THREADS: usize = 4;

fn schema() -> SchemaRef {
    Schema::shared(vec![
        Field::new("objid", DataType::Int64),
        Field::new("ra", DataType::Float64),
        Field::new("r_mag", DataType::Float64),
    ])
    .unwrap()
}

fn batch(start: usize, rows: usize) -> RecordBatch {
    let mut b = RecordBatchBuilder::with_capacity(schema(), rows);
    for i in start..start + rows {
        b.push_row(&[
            Value::Int64(i as i64),
            Value::Float64((i as f64 * 137.507_764).rem_euclid(360.0)),
            Value::Float64(14.0 + (i % 1_000) as f64 / 125.0),
        ])
        .unwrap();
    }
    b.finish().unwrap()
}

fn session(initial_rows: usize) -> ExplorationSession {
    let catalog = Catalog::new();
    catalog
        .register(Table::from_batch("photoobj", batch(0, initial_rows)))
        .unwrap();
    let session = ExplorationSession::new(
        catalog,
        SciborqConfig::with_layers(vec![1_000, 200]),
        &[("ra", AttributeDomain::new(0.0, 360.0, 36))],
    )
    .unwrap();
    session
        .create_impressions("photoobj", SamplingPolicy::biased(["ra"]))
        .unwrap();
    session
}

/// Every row of the base table was observed by layer 1, exactly once.
fn assert_no_load_lost(session: &ExplorationSession, total: usize) {
    let hierarchy = session.hierarchy("photoobj").unwrap();
    assert_eq!(hierarchy.observed_rows(), total as u64);
    assert_eq!(hierarchy.layers()[0].source_rows(), total as u64);
    let base_rows = session
        .catalog()
        .table("photoobj")
        .unwrap()
        .read()
        .row_count();
    assert_eq!(base_rows, total);
}

fn requests() -> Vec<(Query, QueryBounds)> {
    vec![
        (
            Query::count("photoobj", Predicate::lt("ra", 90.0)),
            QueryBounds::max_error(0.1),
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
            Query::count("photoobj", Predicate::True),
            QueryBounds::max_error(1e-9),
        ),
    ]
}

#[test]
fn loads_beside_shared_scans_keep_every_reply_ok() {
    let session = session(INITIAL_ROWS);

    // The loader starts only once every query thread is running, and the
    // query threads keep going until the last load has returned.
    let loading = AtomicBool::new(true);
    let ready = Barrier::new(QUERY_THREADS + 1);
    std::thread::scope(|scope| {
        let queriers: Vec<_> = (0..QUERY_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let requests = requests();
                    let mut batches = 0usize;
                    ready.wait();
                    while loading.load(Ordering::Acquire) || batches < 2 {
                        for reply in session.execute_batch(&requests) {
                            reply.expect("query beside a load must succeed");
                        }
                        batches += 1;
                    }
                    batches
                })
            })
            .collect();
        ready.wait();
        for i in 0..LOADS {
            let start = INITIAL_ROWS + i * ROWS_PER_LOAD;
            session
                .load("photoobj", &batch(start, ROWS_PER_LOAD))
                .unwrap();
        }
        loading.store(false, Ordering::Release);
        for querier in queriers {
            assert!(querier.join().unwrap() >= 2);
        }
    });

    assert_no_load_lost(&session, INITIAL_ROWS + LOADS * ROWS_PER_LOAD);
}

#[test]
fn two_loaders_and_adapt_beside_queries_lose_no_load() {
    const LOADERS: usize = 2;
    let session = session(INITIAL_ROWS);

    // Loaders claim batch numbers from one counter, so the base table ends
    // up holding every batch exactly once whatever the interleaving. The
    // adapting thread swings the workload focus before every `adapt`, so
    // each call finds a shift and rebuilds the biased hierarchy while the
    // loaders patch it.
    let next_batch = AtomicUsize::new(0);
    let writing = AtomicBool::new(true);
    let ready = Barrier::new(QUERY_THREADS + LOADERS + 2);
    let rebuilds = std::thread::scope(|scope| {
        let queriers: Vec<_> = (0..QUERY_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let requests = requests();
                    let mut batches = 0usize;
                    ready.wait();
                    while writing.load(Ordering::Acquire) || batches < 2 {
                        for reply in session.execute_batch(&requests) {
                            reply.expect("query beside loads and rebuilds must succeed");
                        }
                        batches += 1;
                    }
                    batches
                })
            })
            .collect();
        let adapter = scope.spawn(|| {
            let mut rounds = 0usize;
            ready.wait();
            while writing.load(Ordering::Acquire) || rounds < 2 {
                {
                    let mut predicate_set = session.predicate_set();
                    predicate_set.reset();
                    let center = if rounds.is_multiple_of(2) {
                        40.0
                    } else {
                        300.0
                    };
                    for _ in 0..200 {
                        predicate_set.log_value("ra", center);
                    }
                }
                session.adapt().expect("adapt beside loads must succeed");
                rounds += 1;
            }
        });
        let loaders: Vec<_> = (0..LOADERS)
            .map(|_| {
                scope.spawn(|| {
                    ready.wait();
                    loop {
                        let i = next_batch.fetch_add(1, Ordering::Relaxed);
                        if i >= LOADS {
                            break;
                        }
                        let start = INITIAL_ROWS + i * ROWS_PER_LOAD;
                        session
                            .load("photoobj", &batch(start, ROWS_PER_LOAD))
                            .unwrap();
                    }
                })
            })
            .collect();
        ready.wait();
        for loader in loaders {
            loader.join().unwrap();
        }
        writing.store(false, Ordering::Release);
        adapter.join().unwrap();
        for querier in queriers {
            assert!(querier.join().unwrap() >= 2);
        }
        session.rebuilds()
    });

    assert!(rebuilds >= 2, "adapt must have rebuilt, got {rebuilds}");
    assert_no_load_lost(&session, INITIAL_ROWS + LOADS * ROWS_PER_LOAD);
}
