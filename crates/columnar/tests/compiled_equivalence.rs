//! Property-based equivalence suite: the vectorized pipeline
//! (`CompiledPredicate` + scan kernels + fused moment sketches) must produce
//! results identical to the scalar oracle (`Predicate::evaluate` +
//! `compute_aggregate`) across all column types, NULL patterns, operators
//! and predicate shapes.
//!
//! Selections are compared for exact equality; aggregates are compared
//! bit-for-bit (`f64::to_bits`), which holds because both paths share the
//! same `MomentSketch` fold in the same row order. Error cases must error on
//! both paths (payloads may name different bounds for multi-bound ranges,
//! so only the error-ness is asserted).
//!
//! Two deliberate, documented divergences are excluded by the generator:
//! unknown column names (the compiled path resolves names eagerly at
//! compile time, the oracle lazily at evaluation) and NaN *data* cells
//! (candidate refinement may legitimately skip a poisoned row the oracle's
//! full scan would reject). NaN *constants* are generated and must agree.
//!
//! Beyond the uniform random tables, a dedicated adversarial generator
//! targets the chunked bitmask evaluator: table lengths straddling
//! multiples of 64 (the tail-mask edge), validity bitmaps at 0% / 100% /
//! clustered NULL density (all-ones, all-zeros and block-patterned words),
//! and dictionary-encoded string columns — each checked through both the
//! serial and the sharded partitioned entry points.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sciborq_columnar::{
    compute_aggregate, multi_scan, AggregateKind, CompareOp, CompiledPredicate, DataType, Field,
    MultiScanItem, Partitioning, Predicate, ScanStats, Schema, SelectionVector, Table, Value,
};

const COLUMNS: [&str; 5] = ["id", "ra", "mag", "class", "flag"];
const CLASSES: [&str; 4] = ["GALAXY", "STAR", "QSO", ""];

fn random_table(rng: &mut StdRng) -> Table {
    let schema = Schema::shared(vec![
        Field::nullable("id", DataType::Int64),
        Field::nullable("ra", DataType::Float64),
        Field::nullable("mag", DataType::Float64),
        Field::nullable("class", DataType::Utf8),
        Field::nullable("flag", DataType::Bool),
    ])
    .unwrap();
    let rows = rng.gen_range(0..40usize);
    let mut t = Table::new("t", schema);
    for _ in 0..rows {
        let id: Value = if rng.gen_bool(0.2) {
            Value::Null
        } else if rng.gen_bool(0.1) {
            // extreme integers exercise the exact (non-widening) i64 kernels
            if rng.gen_bool(0.5) {
                Value::Int64(i64::MAX)
            } else {
                Value::Int64(i64::MIN)
            }
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

/// A literal of an arbitrary type (frequently, but not always, matching the
/// column it will be compared against, so type-mismatch paths are covered).
fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..12u32) {
        0 => Value::Null,
        1 => Value::Int64(rng.gen_range(-4i64..4)),
        2 => Value::Int64(i64::MAX),
        3 => Value::Int64(i64::MIN),
        4 | 5 => Value::Float64(rng.gen_range(-5.0f64..5.0)),
        6 => Value::Float64(f64::NAN),
        7 => Value::Float64(f64::NEG_INFINITY),
        8 => Value::Bool(rng.gen_bool(0.5)),
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

/// Core check: compiled selection == oracle selection, and when the
/// selection exists, fused count and fused aggregates are bit-identical to
/// the scalar aggregates for every aggregate kind.
fn check_equivalence(table: &Table, predicate: &Predicate) {
    let compiled =
        CompiledPredicate::compile(predicate, table.schema()).expect("all generated columns exist");
    let oracle = predicate.evaluate(table);
    let fast = select(&compiled, table, None).map(|(sel, _)| sel);
    match (&oracle, &fast) {
        (Ok(expected), Ok(actual)) => {
            assert_eq!(
                expected,
                actual,
                "selection mismatch for {predicate} on {} rows",
                table.row_count()
            );
        }
        (Err(_), Err(_)) => return,
        (o, f) => panic!("error divergence for {predicate}: oracle {o:?} vs compiled {f:?}"),
    }
    let selection = oracle.expect("checked Ok above");

    let (count, _) = compiled
        .count_matches(table)
        .expect("count succeeds when selection did");
    assert_eq!(count, selection.len(), "fused count for {predicate}");

    for agg_column in ["id", "mag"] {
        let (sketch, _) = compiled
            .filter_moments(table, agg_column)
            .expect("numeric aggregate column");
        for kind in [
            AggregateKind::Count,
            AggregateKind::Sum,
            AggregateKind::Avg,
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Variance,
        ] {
            let column = (kind != AggregateKind::Count).then_some(agg_column);
            let exact = compute_aggregate(table, column, kind, &selection)
                .expect("numeric aggregate")
                .value;
            let fused = sketch.aggregate(kind);
            let bits = |v: Option<f64>| v.map(f64::to_bits);
            assert_eq!(
                bits(exact),
                bits(fused),
                "aggregate {kind}({agg_column}) for {predicate}: exact {exact:?} vs fused {fused:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random tables × random deep predicates: selections and all fused
    /// aggregates must match the scalar oracle exactly.
    #[test]
    fn compiled_pipeline_matches_scalar_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random_table(&mut rng);
        let predicate = random_predicate(&mut rng, 3);
        check_equivalence(&table, &predicate);
    }

    /// Focused on single-column leaves at higher volume: every operator ×
    /// every column type × NULL literals.
    #[test]
    fn leaf_predicates_match_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let table = random_table(&mut rng);
        for _ in 0..8 {
            let predicate = random_predicate(&mut rng, 0);
            check_equivalence(&table, &predicate);
        }
    }

    /// BETWEEN across all column types and bound type combinations,
    /// including NULL and NaN bounds: the one-pass kernels must agree with
    /// the (also single-pass) scalar range.
    #[test]
    fn between_matches_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbe73);
        let table = random_table(&mut rng);
        for _ in 0..8 {
            let predicate = Predicate::Between {
                column: random_column(&mut rng),
                low: random_value(&mut rng),
                high: random_value(&mut rng),
            };
            check_equivalence(&table, &predicate);
        }
    }

    /// Conjunctions exercise candidate-list refinement; the refined scans
    /// must select exactly the intersection the oracle computes.
    #[test]
    fn conjunctions_match_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa2d);
        let table = random_table(&mut rng);
        let n = rng.gen_range(2..5usize);
        let predicate = Predicate::And(
            (0..n).map(|_| random_predicate(&mut rng, 1)).collect(),
        );
        check_equivalence(&table, &predicate);
    }
}

/// NULL-density regimes for adversarial validity bitmaps. The chunked
/// kernels AND 64-bit validity words into candidate masks, so all-ones
/// words (no NULLs anywhere), all-zeros words (every row NULL) and
/// block-patterned words (clustered NULL runs) each exercise a different
/// wordwise path — including the `valid_cand == 0` short-circuit.
#[derive(Clone, Copy, Debug)]
enum NullRegime {
    /// 0% NULLs: every validity word is all-ones.
    Dense,
    /// 100% NULLs: every validity word is all-zeros.
    AllNull,
    /// Alternating blocks of NULL / non-NULL rows; block sizes below,
    /// at and above the 64-row word width.
    Clustered(usize),
    /// Independent per-cell NULLs (the classic regime, kept in the mix so
    /// the adversarial suite is a superset of the uniform one).
    Scattered,
}

impl NullRegime {
    fn pick(rng: &mut StdRng) -> Self {
        match rng.gen_range(0..4u32) {
            0 => NullRegime::Dense,
            1 => NullRegime::AllNull,
            2 => NullRegime::Clustered([8usize, 16, 64][rng.gen_range(0..3usize)]),
            _ => NullRegime::Scattered,
        }
    }

    fn is_null(self, rng: &mut StdRng, row: usize) -> bool {
        match self {
            NullRegime::Dense => false,
            NullRegime::AllNull => true,
            NullRegime::Clustered(block) => (row / block).is_multiple_of(2),
            NullRegime::Scattered => rng.gen_bool(0.2),
        }
    }
}

/// Table lengths concentrated on word-boundary edge cases: the chunked
/// evaluator's tail-mask logic changes at multiples of 64, so lengths one
/// below / at / one above each boundary are drawn most often.
fn boundary_rows(rng: &mut StdRng) -> usize {
    const EDGES: [usize; 11] = [0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 193];
    if rng.gen_bool(0.7) {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        rng.gen_range(0..200)
    }
}

/// Same schema and value distributions as [`random_table`], but with the
/// row count and the NULL pattern dictated by the caller.
fn adversarial_table(rng: &mut StdRng, rows: usize, regime: NullRegime) -> Table {
    let schema = Schema::shared(vec![
        Field::nullable("id", DataType::Int64),
        Field::nullable("ra", DataType::Float64),
        Field::nullable("mag", DataType::Float64),
        Field::nullable("class", DataType::Utf8),
        Field::nullable("flag", DataType::Bool),
    ])
    .unwrap();
    let mut t = Table::new("t", schema);
    for row in 0..rows {
        let id: Value = if regime.is_null(rng, row) {
            Value::Null
        } else if rng.gen_bool(0.1) {
            Value::Int64(if rng.gen_bool(0.5) {
                i64::MAX
            } else {
                i64::MIN
            })
        } else {
            Value::Int64(rng.gen_range(-4i64..4))
        };
        let ra: Value = if regime.is_null(rng, row) {
            Value::Null
        } else {
            Value::Float64(rng.gen_range(-5.0f64..5.0))
        };
        let mag: Value = if regime.is_null(rng, row) {
            Value::Null
        } else if rng.gen_bool(0.05) {
            Value::Float64(f64::INFINITY)
        } else {
            Value::Float64(rng.gen_range(-3.0f64..3.0))
        };
        let class: Value = if regime.is_null(rng, row) {
            Value::Null
        } else {
            Value::Utf8(CLASSES[rng.gen_range(0..CLASSES.len())].to_owned())
        };
        let flag: Value = if regime.is_null(rng, row) {
            Value::Null
        } else {
            Value::Bool(rng.gen_bool(0.5))
        };
        t.append_row(&[id, ra, mag, class, flag]).unwrap();
    }
    t
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

/// The sharded partitioned entry points must agree with their serial
/// counterparts: identical selection, identical count, bit-identical fused
/// moments, and matching error-ness.
fn check_partitioned_matches_serial(table: &Table, predicate: &Predicate, shards: usize) {
    let compiled =
        CompiledPredicate::compile(predicate, table.schema()).expect("all generated columns exist");
    let parts = Partitioning::even(table.row_count(), shards);
    match (
        select(&compiled, table, None),
        select(&compiled, table, Some(&parts)),
    ) {
        (Ok((expected, _)), Ok((actual, _))) => {
            assert_eq!(expected, actual, "partitioned selection for {predicate}");
            let (count, _) = compiled
                .count_matches_partitioned(table, &parts)
                .expect("count succeeds when selection did");
            assert_eq!(count, expected.len(), "partitioned count for {predicate}");
            let (serial, _) = compiled
                .filter_moments(table, "mag")
                .expect("numeric aggregate column");
            let (sharded, _) = compiled
                .filter_moments_partitioned(table, "mag", &parts)
                .expect("numeric aggregate column");
            for kind in [
                AggregateKind::Count,
                AggregateKind::Sum,
                AggregateKind::Avg,
                AggregateKind::Min,
                AggregateKind::Max,
                AggregateKind::Variance,
            ] {
                let bits = |v: Option<f64>| v.map(f64::to_bits);
                assert_eq!(
                    bits(serial.aggregate(kind)),
                    bits(sharded.aggregate(kind)),
                    "partitioned moment {kind} for {predicate}"
                );
            }
        }
        (Err(_), Err(_)) => {}
        (s, p) => panic!("partitioned error divergence for {predicate}: serial {s:?} vs {p:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Adversarial validity × word-boundary lengths, through every
    /// execution path: the scalar oracle, the serial chunked evaluator and
    /// the sharded partitioned path — first on plain string columns, then
    /// with dictionary encoding forced.
    #[test]
    fn adversarial_validity_and_lengths_match_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xad7e);
        let regime = NullRegime::pick(&mut rng);
        let rows = boundary_rows(&mut rng);
        let mut table = adversarial_table(&mut rng, rows, regime);
        let predicate = random_predicate(&mut rng, 2);
        let shards = rng.gen_range(1..5usize);

        check_equivalence(&table, &predicate);
        check_partitioned_matches_serial(&table, &predicate, shards);
        let plain = select(
            &CompiledPredicate::compile(&predicate, table.schema())
                .expect("all generated columns exist"),
            &table,
            None,
        );

        // Force dictionary encoding (no cardinality cap): the integer-code
        // kernels must reproduce the plain string kernels exactly.
        table.dict_encode_strings(usize::MAX);
        check_equivalence(&table, &predicate);
        check_partitioned_matches_serial(&table, &predicate, shards);
        let dict = select(
            &CompiledPredicate::compile(&predicate, table.schema())
                .expect("all generated columns exist"),
            &table,
            None,
        );
        match (&plain, &dict) {
            (Ok((p, _)), Ok((d, _))) => assert_eq!(p, d, "dict selection mismatch for {predicate}"),
            (Err(_), Err(_)) => {}
            (p, d) => panic!("dict error divergence for {predicate}: plain {p:?} vs dict {d:?}"),
        }
    }

    /// Dictionary encoding at random: on the same adversarial tables, the
    /// chunked tier over plain or encoded strings must match the scalar
    /// oracle (selection, fused count and every fused aggregate).
    #[test]
    fn chunked_tier_matches_scalar_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70_77);
        let regime = NullRegime::pick(&mut rng);
        let rows = boundary_rows(&mut rng);
        let mut table = adversarial_table(&mut rng, rows, regime);
        if rng.gen_bool(0.5) {
            table.dict_encode_strings(usize::MAX);
        }
        let predicate = random_predicate(&mut rng, 2);
        check_equivalence(&table, &predicate);
    }
}

#[test]
fn empty_table_equivalence() {
    let mut rng = StdRng::seed_from_u64(7);
    let schema = Schema::shared(vec![
        Field::nullable("id", DataType::Int64),
        Field::nullable("ra", DataType::Float64),
        Field::nullable("mag", DataType::Float64),
        Field::nullable("class", DataType::Utf8),
        Field::nullable("flag", DataType::Bool),
    ])
    .unwrap();
    let table = Table::new("t", schema);
    for _ in 0..50 {
        let predicate = random_predicate(&mut rng, 2);
        check_equivalence(&table, &predicate);
    }
}
