//! Property-based equivalence suite for the sharded scan path: partitioned
//! execution (any shard count) must be **bit-identical** to single-threaded
//! execution — same selections, same candidate counts, and the same
//! `MomentSketch` down to the last bit of every float accumulator.
//!
//! Bit-identity (not approximate equality) holds by construction: shards are
//! contiguous row ranges merged in ascending order, so candidate lists
//! concatenate into exactly the single-threaded selection, and the
//! filter+aggregate fold replays matched rows in global row order — the same
//! push sequence as the unsharded kernel. These properties pin that
//! construction down against regressions (e.g. someone "optimising" the
//! merge into a per-shard float reduction, which is *not* associative).
//!
//! Error cases must error on both paths; which shard surfaces the error is
//! fixed (lowest shard wins), so errors are deterministic under any thread
//! scheduling.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sciborq_columnar::{
    multi_scan, CompareOp, CompiledPredicate, DataType, Field, MomentSketch, MultiScanItem,
    Partitioning, Predicate, ScanStats, Schema, SelectionVector, Table, Value,
};

const COLUMNS: [&str; 5] = ["id", "ra", "mag", "class", "flag"];
const CLASSES: [&str; 4] = ["GALAXY", "STAR", "QSO", ""];

fn random_table(rng: &mut StdRng, max_rows: usize) -> Table {
    let schema = Schema::shared(vec![
        Field::nullable("id", DataType::Int64),
        Field::nullable("ra", DataType::Float64),
        Field::nullable("mag", DataType::Float64),
        Field::nullable("class", DataType::Utf8),
        Field::nullable("flag", DataType::Bool),
    ])
    .unwrap();
    let rows = rng.gen_range(0..max_rows);
    let mut t = Table::new("t", schema);
    for _ in 0..rows {
        let id: Value = if rng.gen_bool(0.2) {
            Value::Null
        } else {
            Value::Int64(rng.gen_range(-4i64..4))
        };
        let ra: Value = if rng.gen_bool(0.2) {
            Value::Null
        } else {
            Value::Float64(rng.gen_range(-5.0f64..5.0))
        };
        let mag: Value = if rng.gen_bool(0.25) {
            Value::Null
        } else if rng.gen_bool(0.05) {
            Value::Float64(f64::INFINITY)
        } else {
            Value::Float64(rng.gen_range(-3.0f64..3.0))
        };
        let class: Value = if rng.gen_bool(0.2) {
            Value::Null
        } else {
            Value::Utf8(CLASSES[rng.gen_range(0..CLASSES.len())].to_owned())
        };
        let flag: Value = if rng.gen_bool(0.2) {
            Value::Null
        } else {
            Value::Bool(rng.gen_bool(0.5))
        };
        t.append_row(&[id, ra, mag, class, flag]).unwrap();
    }
    t
}

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..10u32) {
        0 => Value::Null,
        1 | 2 => Value::Int64(rng.gen_range(-4i64..4)),
        3..=5 => Value::Float64(rng.gen_range(-5.0f64..5.0)),
        6 => Value::Float64(f64::NAN),
        7 => Value::Bool(rng.gen_bool(0.5)),
        _ => Value::Utf8(CLASSES[rng.gen_range(0..CLASSES.len())].to_owned()),
    }
}

fn random_op(rng: &mut StdRng) -> CompareOp {
    match rng.gen_range(0..6u32) {
        0 => CompareOp::Eq,
        1 => CompareOp::NotEq,
        2 => CompareOp::Lt,
        3 => CompareOp::LtEq,
        4 => CompareOp::Gt,
        _ => CompareOp::GtEq,
    }
}

fn random_column(rng: &mut StdRng) -> String {
    COLUMNS[rng.gen_range(0..COLUMNS.len())].to_owned()
}

fn random_predicate(rng: &mut StdRng, depth: u32) -> Predicate {
    let variants: u32 = if depth == 0 { 6 } else { 9 };
    match rng.gen_range(0..variants) {
        0 => Predicate::Compare {
            column: random_column(rng),
            op: random_op(rng),
            value: random_value(rng),
        },
        1 => Predicate::Between {
            column: random_column(rng),
            low: random_value(rng),
            high: random_value(rng),
        },
        2 => Predicate::IsNull(random_column(rng)),
        3 => Predicate::IsNotNull(random_column(rng)),
        4 => Predicate::True,
        5 => Predicate::False,
        6 => Predicate::And(
            (0..rng.gen_range(1..4usize))
                .map(|_| random_predicate(rng, depth - 1))
                .collect(),
        ),
        7 => Predicate::Or(
            (0..rng.gen_range(1..4usize))
                .map(|_| random_predicate(rng, depth - 1))
                .collect(),
        ),
        _ => Predicate::Not(Box::new(random_predicate(rng, depth - 1))),
    }
}

/// Assert every accumulator of two sketches matches bit for bit.
fn assert_sketch_bits(a: &MomentSketch, b: &MomentSketch, context: &dyn std::fmt::Display) {
    assert_eq!(a.matched, b.matched, "matched for {context}");
    assert_eq!(a.count, b.count, "count for {context}");
    for (name, x, y) in [
        ("sum", a.sum, b.sum),
        ("sum_sq", a.sum_sq, b.sum_sq),
        ("mean", a.mean, b.mean),
        ("m2", a.m2, b.m2),
        ("min", a.min, b.min),
        ("max", a.max, b.max),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{name} diverges for {context}: {x} vs {y}"
        );
    }
}

/// A selection as the engine's SELECT path takes it: one `multi_scan` item
/// streaming into a row-id sink, serial or sharded over `parts`.
fn select(
    compiled: &CompiledPredicate,
    table: &Table,
    parts: Option<&Partitioning>,
) -> sciborq_columnar::Result<(SelectionVector, ScanStats)> {
    let mut rows: Vec<usize> = Vec::new();
    let mut items = [MultiScanItem {
        predicate: compiled,
        sink: &mut rows,
    }];
    let stats = multi_scan(table, &mut items, parts)
        .pop()
        .expect("one item, one result")?;
    Ok((SelectionVector::from_sorted_rows(rows), stats))
}

/// Core property: for every shard count, the partitioned pipeline equals the
/// single-threaded pipeline bit for bit (or errors on both paths).
fn check_partitioned_equivalence(table: &Table, predicate: &Predicate, shards: usize) {
    let compiled =
        CompiledPredicate::compile(predicate, table.schema()).expect("all generated columns exist");
    let parts = Partitioning::even(table.row_count(), shards);
    let single = select(&compiled, table, None);
    let sharded = select(&compiled, table, Some(&parts));
    match (&single, &sharded) {
        (Ok((expected, _)), Ok((actual, _))) => {
            assert_eq!(
                expected,
                actual,
                "selection mismatch for {predicate} at {shards} shards on {} rows",
                table.row_count()
            );
        }
        (Err(_), Err(_)) => return,
        (s, p) => panic!("error divergence for {predicate}: single {s:?} vs sharded {p:?}"),
    }

    let (single_count, _) = compiled.count_matches(table).expect("count succeeds");
    let (sharded_count, _) = compiled
        .count_matches_partitioned(table, &parts)
        .expect("sharded count succeeds");
    assert_eq!(
        single_count, sharded_count,
        "count mismatch for {predicate} at {shards} shards"
    );

    for agg_column in ["id", "mag"] {
        let (single_sketch, _) = compiled
            .filter_moments(table, agg_column)
            .expect("numeric aggregate column");
        let (sharded_sketch, _) = compiled
            .filter_moments_partitioned(table, agg_column, &parts)
            .expect("sharded numeric aggregate column");
        let context = format!("{predicate} agg({agg_column}) at {shards} shards");
        assert_sketch_bits(&single_sketch, &sharded_sketch, &context);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random tables × random deep predicates × random shard counts.
    #[test]
    fn sharded_execution_is_bit_identical(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random_table(&mut rng, 60);
        let predicate = random_predicate(&mut rng, 3);
        let shards = rng.gen_range(1..9usize);
        check_partitioned_equivalence(&table, &predicate, shards);
    }

    /// Conjunctions exercise per-shard candidate refinement and its
    /// short-circuit; shard counts beyond the row count clamp safely.
    #[test]
    fn sharded_conjunctions_are_bit_identical(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ea5);
        let table = random_table(&mut rng, 120);
        let n = rng.gen_range(2..5usize);
        let predicate = Predicate::And(
            (0..n).map(|_| random_predicate(&mut rng, 1)).collect(),
        );
        for shards in [2, 4, 7, 200] {
            check_partitioned_equivalence(&table, &predicate, shards);
        }
    }
}

#[test]
fn empty_and_tiny_tables_across_shard_counts() {
    let mut rng = StdRng::seed_from_u64(11);
    for max_rows in [1usize, 2, 4] {
        let table = random_table(&mut rng, max_rows);
        for _ in 0..20 {
            let predicate = random_predicate(&mut rng, 2);
            for shards in [1, 2, 3, 8] {
                check_partitioned_equivalence(&table, &predicate, shards);
            }
        }
    }
}
