//! Incremental loads beside concurrent shared-scan queries.
//!
//! `ExplorationSession::load` appends under the table's write lock, then
//! reads the base table and takes the `hierarchies` write lock to gather
//! the refreshed layers (canonical order: table, then hierarchies). This
//! test runs one loader thread against four threads of `execute_batch` so
//! the sequence is exercised dynamically (CI also runs it under
//! ThreadSanitizer): every reply must be `Ok`, and once the loader is done
//! the hierarchy must have observed exactly the rows in the base table.

use sciborq_columnar::{
    AggregateKind, Catalog, DataType, Field, Predicate, RecordBatch, RecordBatchBuilder, Schema,
    SchemaRef, Table, Value,
};
use sciborq_core::{ExplorationSession, QueryBounds, SamplingPolicy, SciborqConfig};
use sciborq_workload::{AttributeDomain, Query};
use std::sync::atomic::{AtomicBool, Ordering};
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
    let catalog = Catalog::new();
    catalog
        .register(Table::from_batch("photoobj", batch(0, INITIAL_ROWS)))
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

    let total = INITIAL_ROWS + LOADS * ROWS_PER_LOAD;
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
