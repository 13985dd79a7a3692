//! Property-based equivalence suite for the shared multi-query scan: a
//! [`multi_scan`] batch must give every item **bit-identical** results to
//! running that item alone (its serial fused entry point, or a serial batch
//! of one for weighted sinks) — same counts, same
//! `MomentSketch` / `WeightedMomentSketch` accumulators down to the last
//! float bit, and the same error outcomes — regardless of how many queries
//! share the sweep, how the rows split into batches, or how many shards the
//! sweep fans out over.
//!
//! This is the guarantee the serving layer leans on: batching concurrent
//! queries into one scan pass must be invisible in the answers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sciborq_columnar::{
    multi_scan, numeric_source, CompareOp, CompiledPredicate, CountSink, DataType, Field,
    MomentSink, MultiScanItem, Partitioning, Predicate, Schema, Table, Value, WeightedMomentSink,
    WeightedMomentSketch, MULTI_SCAN_BATCH_ROWS,
};

const CLASSES: [&str; 4] = ["GALAXY", "STAR", "QSO", ""];

fn random_table(rng: &mut StdRng, rows: usize) -> Table {
    let schema = Schema::shared(vec![
        Field::nullable("id", DataType::Int64),
        Field::nullable("ra", DataType::Float64),
        Field::nullable("mag", DataType::Float64),
        Field::nullable("class", DataType::Utf8),
    ])
    .unwrap();
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
    ["id", "ra", "mag", "class"][rng.gen_range(0..4usize)].to_owned()
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

/// The weighted reference for one predicate: a fresh sink over `mag`, alone
/// in a serial batch of one.
fn weighted_alone(
    c: &CompiledPredicate,
    table: &Table,
    probabilities: &[f64],
) -> sciborq_columnar::Result<WeightedMomentSketch> {
    let mut sink = WeightedMomentSink::new(numeric_source(table, "mag")?, probabilities);
    let mut items = [MultiScanItem {
        predicate: c,
        sink: &mut sink,
    }];
    multi_scan(table, &mut items, None).remove(0)?;
    Ok(sink.sketch)
}

/// Run `predicates` through one shared sweep, four sink flavours per
/// predicate (count, moments over `mag`, weighted moments over `mag`, and
/// the row-id sink SELECT uses), and assert each slot bit-matches the same
/// item run alone — the row ids match the scalar oracle's rows — including
/// error agreement.
fn check_multi_scan_equivalence(
    table: &Table,
    predicates: &[Predicate],
    parts: Option<&Partitioning>,
) {
    let compiled: Vec<CompiledPredicate> = predicates
        .iter()
        .map(|p| CompiledPredicate::compile(p, table.schema()).expect("columns exist"))
        .collect();
    let probabilities: Vec<f64> = (0..table.row_count())
        .map(|i| 0.0005 * (1.0 + (i % 64) as f64))
        .collect();

    let mut counts: Vec<CountSink> = compiled.iter().map(|_| CountSink::default()).collect();
    let mut moments: Vec<MomentSink<'_>> = compiled
        .iter()
        .map(|_| MomentSink::new(numeric_source(table, "mag").unwrap()))
        .collect();
    let mut weighted: Vec<WeightedMomentSink<'_>> = compiled
        .iter()
        .map(|_| WeightedMomentSink::new(numeric_source(table, "mag").unwrap(), &probabilities))
        .collect();
    let mut selections: Vec<Vec<usize>> = compiled.iter().map(|_| Vec::new()).collect();

    let mut items: Vec<MultiScanItem<'_, '_>> = Vec::new();
    for ((((c, count), moment), weight), rows) in compiled
        .iter()
        .zip(counts.iter_mut())
        .zip(moments.iter_mut())
        .zip(weighted.iter_mut())
        .zip(selections.iter_mut())
    {
        items.push(MultiScanItem {
            predicate: c,
            sink: count,
        });
        items.push(MultiScanItem {
            predicate: c,
            sink: moment,
        });
        items.push(MultiScanItem {
            predicate: c,
            sink: weight,
        });
        items.push(MultiScanItem {
            predicate: c,
            sink: rows,
        });
    }
    let results = multi_scan(table, &mut items, parts);
    drop(items);

    for (i, (c, p)) in compiled.iter().zip(predicates).enumerate() {
        let context = format!(
            "{p} in a {}-query batch over {} rows ({})",
            predicates.len(),
            table.row_count(),
            match parts {
                None => "serial".to_owned(),
                Some(parts) => format!("{} shards", parts.shard_count()),
            }
        );

        match (c.count_matches(table), &results[4 * i]) {
            (Ok((serial, _)), Ok(_)) => {
                assert_eq!(counts[i].0, serial, "count for {context}");
            }
            (Err(_), Err(_)) => {}
            (s, m) => panic!("count error divergence for {context}: {s:?} vs {m:?}"),
        }

        match (c.filter_moments(table, "mag"), &results[4 * i + 1]) {
            (Ok((serial, _)), Ok(_)) => {
                let shared = &moments[i].sketch;
                assert_eq!(shared.matched, serial.matched, "matched for {context}");
                assert_eq!(shared.count, serial.count, "value count for {context}");
                for (name, x, y) in [
                    ("sum", shared.sum, serial.sum),
                    ("sum_sq", shared.sum_sq, serial.sum_sq),
                    ("mean", shared.mean, serial.mean),
                    ("m2", shared.m2, serial.m2),
                    ("min", shared.min, serial.min),
                    ("max", shared.max, serial.max),
                ] {
                    assert_eq!(x.to_bits(), y.to_bits(), "{name} for {context}");
                }
            }
            (Err(_), Err(_)) => {}
            (s, m) => panic!("moments error divergence for {context}: {s:?} vs {m:?}"),
        }

        match (
            weighted_alone(c, table, &probabilities),
            &results[4 * i + 2],
        ) {
            (Ok(serial), Ok(_)) => {
                let shared = &weighted[i].sketch;
                assert_eq!(shared.matched, serial.matched, "w matched for {context}");
                assert_eq!(shared.count, serial.count, "w count for {context}");
                for (name, x, y) in [
                    ("sum_vp", shared.sum_vp, serial.sum_vp),
                    ("sum_inv_p", shared.sum_inv_p, serial.sum_inv_p),
                    ("sum_dvp", shared.sum_dvp, serial.sum_dvp),
                    ("sum_dvp_sq", shared.sum_dvp_sq, serial.sum_dvp_sq),
                    ("sum_dinv_p", shared.sum_dinv_p, serial.sum_dinv_p),
                    ("sum_dinv_p_sq", shared.sum_dinv_p_sq, serial.sum_dinv_p_sq),
                    (
                        "sum_dvp_dinv_p",
                        shared.sum_dvp_dinv_p,
                        serial.sum_dvp_dinv_p,
                    ),
                    ("min_p", shared.min_p, serial.min_p),
                ] {
                    assert_eq!(x.to_bits(), y.to_bits(), "{name} for {context}");
                }
            }
            (Err(_), Err(_)) => {}
            (s, m) => panic!("weighted error divergence for {context}: {s:?} vs {m:?}"),
        }

        match (p.evaluate(table), &results[4 * i + 3]) {
            (Ok(oracle), Ok(_)) => {
                assert_eq!(selections[i], oracle.rows(), "row ids for {context}");
            }
            (Err(_), Err(_)) => {}
            (o, m) => panic!("row-id error divergence for {context}: {o:?} vs {m:?}"),
        }
    }
}

/// Random small tables × random (possibly erroring, possibly nested)
/// predicate batches × serial and sharded sweeps.
#[test]
fn shared_sweeps_are_bit_identical_on_random_batches() {
    for seed in 0u64..150 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let rows = rng.gen_range(0..80);
        let table = random_table(&mut rng, rows);
        let predicates: Vec<Predicate> = (0..rng.gen_range(1..5usize))
            .map(|_| random_predicate(&mut rng, 2))
            .collect();
        check_multi_scan_equivalence(&table, &predicates, None);
        let shards = rng.gen_range(1..7usize);
        let parts = Partitioning::even(table.row_count(), shards);
        check_multi_scan_equivalence(&table, &predicates, Some(&parts));
    }
}

/// A table larger than one scan batch: the serial sweep crosses several
/// `MULTI_SCAN_BATCH_ROWS` boundaries and must still reproduce the serial
/// single-pass fold bit for bit (batch boundaries are the seam where a
/// wrongly ordered fold would first show). The sharded sweeps add shard
/// boundaries inside a 64-row word, several shards sharing one word, and
/// empty shards: there the shards emit the same word at the same base, and
/// only ascending shard order keeps the rows ascending.
#[test]
fn batch_boundaries_preserve_bit_identity() {
    let mut rng = StdRng::seed_from_u64(42);
    let rows = 2 * MULTI_SCAN_BATCH_ROWS + 1_237;
    let table = random_table(&mut rng, rows);
    let predicates = vec![
        Predicate::True,
        Predicate::between("ra", -2.0, 3.0),
        Predicate::gt("mag", 0.0).and(Predicate::eq("class", "GALAXY")),
        Predicate::eq("class", "STAR").or(Predicate::lt("id", 0)),
        Predicate::IsNull("mag".into()),
        Predicate::eq("class", "QSO").negate(),
    ];
    check_multi_scan_equivalence(&table, &predicates, None);
    for shards in [2usize, 3, 5] {
        let parts = Partitioning::even(rows, shards);
        check_multi_scan_equivalence(&table, &predicates, Some(&parts));
    }
    let mid_word = MULTI_SCAN_BATCH_ROWS + 37;
    for bounds in [
        vec![0, mid_word, rows],
        vec![0, 100, 120, rows],
        vec![0, 70, 70, 90, rows],
        vec![0, 0, mid_word, rows, rows],
    ] {
        let parts = Partitioning::from_bounds(bounds).expect("ascending from zero");
        check_multi_scan_equivalence(&table, &predicates, Some(&parts));
    }
}
