//! Property-based equivalence suite for the streamed weighted
//! (Hansen–Hurwitz) estimation path: `WeightedMomentSink`s driven through
//! `multi_scan` — serially and sharded, the road the engine takes — must
//! agree with the selection-based oracle: the scalar `Predicate::evaluate`
//! followed by a walk over the selected rows that materialises
//! `WeightedObservation`s for the slice-based `WeightedEstimator`.
//!
//! Both paths fold the same expansions (`v/p`, `(v/p)²`, `1/p`, …) in the
//! same row order, so the comparison is **bit-identical** — sketch
//! accumulators and finished estimates alike — and stays bit-identical
//! across shard counts 1/2/3/7 because the sharded sweep replays matched
//! rows in global row order.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sciborq_columnar::{
    multi_scan, numeric_source, CompareOp, CompiledPredicate, DataType, Field, MultiScanItem,
    Partitioning, Predicate, Schema, Table, Value, WeightedMomentSink, WeightedMomentSketch,
};
use sciborq_stats::{WeightedEstimator, WeightedObservation};

const COLUMNS: [&str; 4] = ["id", "ra", "mag", "class"];
const CLASSES: [&str; 4] = ["GALAXY", "STAR", "QSO", ""];
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn random_table(rng: &mut StdRng, max_rows: usize) -> Table {
    let schema = Schema::shared(vec![
        Field::nullable("id", DataType::Int64),
        Field::nullable("ra", DataType::Float64),
        Field::nullable("mag", DataType::Float64),
        Field::nullable("class", DataType::Utf8),
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
        } else {
            Value::Float64(rng.gen_range(-3.0f64..3.0))
        };
        let class: Value = if rng.gen_bool(0.2) {
            Value::Null
        } else {
            Value::Utf8(CLASSES[rng.gen_range(0..CLASSES.len())].to_owned())
        };
        t.append_row(&[id, ra, mag, class]).unwrap();
    }
    t
}

/// Skewed but valid single-draw probabilities (three orders of magnitude of
/// spread, like a focused workload's interest weights).
fn random_probabilities(rng: &mut StdRng, rows: usize) -> Vec<f64> {
    (0..rows)
        .map(|_| 10f64.powf(rng.gen_range(-6.0f64..-3.0)))
        .collect()
}

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..8u32) {
        0 => Value::Null,
        1 | 2 => Value::Int64(rng.gen_range(-4i64..4)),
        3..=5 => Value::Float64(rng.gen_range(-5.0f64..5.0)),
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

fn assert_sketch_bits(
    streamed: &WeightedMomentSketch,
    oracle: &WeightedMomentSketch,
    context: &dyn std::fmt::Display,
) {
    assert_eq!(streamed.matched, oracle.matched, "matched for {context}");
    assert_eq!(streamed.count, oracle.count, "count for {context}");
    for (name, x, y) in [
        ("sum_vp", streamed.sum_vp, oracle.sum_vp),
        ("sum_inv_p", streamed.sum_inv_p, oracle.sum_inv_p),
        ("shift_vp", streamed.shift_vp, oracle.shift_vp),
        ("shift_inv_p", streamed.shift_inv_p, oracle.shift_inv_p),
        ("sum_dvp", streamed.sum_dvp, oracle.sum_dvp),
        ("sum_dvp_sq", streamed.sum_dvp_sq, oracle.sum_dvp_sq),
        ("sum_dinv_p", streamed.sum_dinv_p, oracle.sum_dinv_p),
        (
            "sum_dinv_p_sq",
            streamed.sum_dinv_p_sq,
            oracle.sum_dinv_p_sq,
        ),
        (
            "sum_dvp_dinv_p",
            streamed.sum_dvp_dinv_p,
            oracle.sum_dvp_dinv_p,
        ),
        ("min_p", streamed.min_p, oracle.min_p),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{name} diverges for {context}: {x} vs {y}"
        );
    }
}

/// The selection-based oracle: walk the scalar oracle's selection in row
/// order, pushing the same expansions the weighted kernels accumulate.
fn oracle_sketch(
    table: &Table,
    column: Option<&str>,
    selection: &sciborq_columnar::SelectionVector,
    probabilities: &[f64],
) -> WeightedMomentSketch {
    let mut sketch = WeightedMomentSketch::new();
    for row in selection.iter() {
        match column {
            None => sketch.push(1.0, probabilities[row]),
            Some(name) => {
                let col = table.column(name).unwrap();
                match col.get_f64(row) {
                    Some(v) => sketch.push(v, probabilities[row]),
                    None => sketch.push_null(),
                }
            }
        }
    }
    sketch
}

/// The streamed side: a weighted sink (counting when `column` is `None`)
/// driven through `multi_scan` — serially when `parts` is `None`, sharded
/// otherwise.
fn streamed_sketch(
    compiled: &CompiledPredicate,
    table: &Table,
    column: Option<&str>,
    probabilities: &[f64],
    parts: Option<&Partitioning>,
) -> sciborq_columnar::Result<WeightedMomentSketch> {
    let mut sink = match column {
        None => WeightedMomentSink::counting(probabilities),
        Some(name) => WeightedMomentSink::new(numeric_source(table, name)?, probabilities),
    };
    let mut items = [MultiScanItem {
        predicate: compiled,
        sink: &mut sink,
    }];
    multi_scan(table, &mut items, parts).remove(0)?;
    Ok(sink.sketch)
}

/// Core property: streamed weighted sketches and estimates equal the
/// selection-based oracle bit for bit, serially and at every shard count.
fn check_weighted_equivalence(table: &Table, predicate: &Predicate, probabilities: &[f64]) {
    let compiled =
        CompiledPredicate::compile(predicate, table.schema()).expect("all generated columns exist");
    let oracle_sel = predicate.evaluate(table);
    let streamed_count = streamed_sketch(&compiled, table, None, probabilities, None);
    let (sel, count_sketch) = match (oracle_sel, streamed_count) {
        (Ok(sel), Ok(ok)) => (sel, ok),
        (Err(_), Err(_)) => return,
        (s, p) => panic!("error divergence for {predicate}: oracle {s:?} vs streamed {p:?}"),
    };

    // --- COUNT: sketch and finished estimate -------------------------------
    let count_oracle = oracle_sketch(table, None, &sel, probabilities);
    assert_sketch_bits(&count_sketch, &count_oracle, &format!("count({predicate})"));
    let observations: Vec<WeightedObservation> = sel
        .iter()
        .map(|i| WeightedObservation {
            value: 1.0,
            probability: probabilities[i],
        })
        .collect();
    if table.row_count() > 0 {
        let oracle_est =
            WeightedEstimator::estimate_total_zero_extended(&observations, table.row_count())
                .expect("valid probabilities");
        let streamed_est =
            WeightedEstimator::estimate_total_from_sketch(&count_sketch, table.row_count())
                .expect("valid sketch");
        assert_eq!(
            oracle_est.value.to_bits(),
            streamed_est.value.to_bits(),
            "count estimate for {predicate}"
        );
        assert_eq!(
            oracle_est.standard_error.to_bits(),
            streamed_est.standard_error.to_bits(),
            "count standard error for {predicate}"
        );
    }

    // --- SUM / AVG over both numeric columns -------------------------------
    for agg_column in ["id", "mag"] {
        let agg_sketch = streamed_sketch(&compiled, table, Some(agg_column), probabilities, None)
            .expect("numeric aggregate column");
        let agg_oracle = oracle_sketch(table, Some(agg_column), &sel, probabilities);
        assert_sketch_bits(
            &agg_sketch,
            &agg_oracle,
            &format!("agg({agg_column}) for {predicate}"),
        );
        // Hájek mean: slice-based estimator over the selection walk vs the
        // streamed sketch — equal bits or equal errors
        let matched: Vec<WeightedObservation> = sel
            .iter()
            .filter_map(|i| {
                table
                    .column(agg_column)
                    .unwrap()
                    .get_f64(i)
                    .map(|value| WeightedObservation {
                        value,
                        probability: probabilities[i],
                    })
            })
            .collect();
        let oracle_mean = WeightedEstimator::estimate_mean(&matched);
        let streamed_mean = WeightedEstimator::estimate_mean_from_sketch(&agg_sketch);
        match (oracle_mean, streamed_mean) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.value.to_bits(),
                    b.value.to_bits(),
                    "mean for {predicate} over {agg_column}"
                );
                assert_eq!(
                    a.standard_error.to_bits(),
                    b.standard_error.to_bits(),
                    "mean se for {predicate} over {agg_column}"
                );
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("mean divergence for {predicate}: oracle {a:?} vs streamed {b:?}"),
        }

        // --- sharded: bit-identical to serial at every shard count ---------
        for shards in SHARD_COUNTS {
            let parts = Partitioning::even(table.row_count(), shards);
            let sharded = streamed_sketch(&compiled, table, None, probabilities, Some(&parts))
                .expect("sharded weighted count");
            assert_sketch_bits(
                &sharded,
                &count_sketch,
                &format!("sharded count for {predicate} at {shards}"),
            );
            let sharded = streamed_sketch(
                &compiled,
                table,
                Some(agg_column),
                probabilities,
                Some(&parts),
            )
            .expect("sharded weighted moments");
            assert_sketch_bits(
                &sharded,
                &agg_sketch,
                &format!("sharded agg({agg_column}) for {predicate} at {shards}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random tables × random deep predicates × skewed probabilities.
    #[test]
    fn streamed_weighted_estimation_matches_selection_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random_table(&mut rng, 60);
        let probabilities = random_probabilities(&mut rng, table.row_count());
        let predicate = random_predicate(&mut rng, 3);
        check_weighted_equivalence(&table, &predicate, &probabilities);
    }

    /// Conjunctions drive wordwise mask refinement: only the rows that
    /// survive every conjunct stream into the weighted sink.
    #[test]
    fn weighted_conjunction_refinement_matches_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb1a5ed);
        let table = random_table(&mut rng, 120);
        let probabilities = random_probabilities(&mut rng, table.row_count());
        let n = rng.gen_range(2..5usize);
        let predicate = Predicate::And(
            (0..n).map(|_| random_predicate(&mut rng, 1)).collect(),
        );
        check_weighted_equivalence(&table, &predicate, &probabilities);
    }
}

#[test]
fn empty_and_tiny_tables_stream_weighted_correctly() {
    let mut rng = StdRng::seed_from_u64(23);
    for max_rows in [1usize, 2, 4] {
        let table = random_table(&mut rng, max_rows);
        let probabilities = random_probabilities(&mut rng, table.row_count());
        for _ in 0..20 {
            let predicate = random_predicate(&mut rng, 2);
            check_weighted_equivalence(&table, &predicate, &probabilities);
        }
    }
}
