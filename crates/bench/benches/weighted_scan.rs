//! Selection-based vs streamed weighted (Hansen–Hurwitz) estimation on a
//! paper-scale biased impression.
//!
//! A biased impression (SkyServer column mix, skewed interest weights;
//! 10M rows by default, 200k with `SCIBORQ_BENCH_QUICK=1`) is estimated
//! three ways per aggregate:
//!
//! * **legacy selection path** — a faithful reproduction of the pre-streamed
//!   estimator: materialise the selection vector, then allocate a
//!   `Vec<WeightedObservation>` spanning *all* impression rows with a
//!   per-row `selection.contains(i)` binary search, then run the slice
//!   estimator. This is the `O(n)` allocation + `O(n log m)` search the
//!   streamed path removes.
//! * **selection fallback** — the current public-API fallback: materialise
//!   the selection, walk only the selected rows (linear, no zero padding).
//! * **streamed** — the path the engine runs: a `WeightedMomentSink` driven
//!   through `multi_scan` (one pass, no selection vector, no observation
//!   vector).
//!
//! Before any timing, all three paths (plus the sharded streamed variants)
//! are cross-checked **bit for bit** against each other and the scalar
//! predicate oracle, so a silently wrong kernel cannot post a winning
//! number. The JSON summary records the legacy-vs-streamed ratio as
//! `selection_vs_streamed_speedup` (the headline acceptance number) and the
//! optimized-fallback ratio separately.
//!
//! Hand-rolled harness (not criterion); pass `--weighted-json-out <path>`
//! to write a `BENCH_weighted.json` artifact (flag distinct from the other
//! bench binaries', so `cargo bench` can pass all of them to every binary).

use sciborq_columnar::{
    multi_scan, numeric_source, Column, CompiledPredicate, DataType, Field, MultiScanItem,
    Partitioning, Predicate, RecordBatch, Schema, SelectionVector, Table, Value,
    WeightedMomentSink, WeightedMomentSketch,
};
use sciborq_core::{Impression, SamplingPolicy};
use sciborq_stats::{Estimate, WeightedEstimator, WeightedObservation};
use std::fmt::Write as _;
use std::time::Instant;

const FULL_ROWS: usize = 10_000_000;
const QUICK_ROWS: usize = 200_000;

fn quick_mode() -> bool {
    std::env::var("SCIBORQ_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Bulk column construction (not per-row `Value` appends), so 10M-row
/// table setup does not dominate bench startup. The impression is treated
/// as a biased sample of a 100×-larger base table.
fn build_impression(rows: usize) -> Impression {
    let schema = Schema::shared(vec![
        Field::new("objid", DataType::Int64),
        Field::new("ra", DataType::Float64),
        Field::new("dec", DataType::Float64),
        Field::nullable("r_mag", DataType::Float64),
        Field::new("class", DataType::Utf8),
    ])
    .unwrap();
    let classes = ["GALAXY", "STAR", "QSO"];
    let hash = |i: usize| {
        ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1_000_000) as f64 / 1_000_000.0
    };
    let objid = Column::from_i64((0..rows as i64).collect());
    let ra_values: Vec<f64> = (0..rows).map(|i| (i % 3600) as f64 / 10.0).collect();
    let dec = Column::from_f64((0..rows).map(|i| hash(i) * 180.0 - 90.0).collect());
    let mut r_mag = Column::with_capacity(DataType::Float64, rows);
    for i in 0..rows {
        let v = if i % 17 == 0 {
            Value::Null
        } else {
            Value::Float64(14.0 + 10.0 * hash(i))
        };
        r_mag.push(&v).unwrap();
    }
    let class = Column::from_strings((0..rows).map(|i| classes[i % 3]));
    // skewed interest weights: the 180°–190° focal band is ~8× more
    // interesting than the background, like a focused workload's KDE
    let weights: Vec<f64> = ra_values
        .iter()
        .enumerate()
        .map(|(i, ra)| {
            let focal = if (180.0..190.0).contains(ra) {
                8.0
            } else {
                1.0
            };
            focal * (0.5 + hash(i))
        })
        .collect();
    let ra = Column::from_f64(ra_values);
    let batch = RecordBatch::new(schema, vec![objid, ra, dec, r_mag, class]).unwrap();
    let t = Table::from_batch("photoobj", batch);
    let source_rows = rows as u64 * 100;
    // normaliser: the weights of the observed base tuples, extrapolated
    // from the retained sample's mean weight
    let total_observed_weight = weights.iter().sum::<f64>() / rows as f64 * source_rows as f64;
    Impression::new(
        "photoobj.layer1.biased",
        "photoobj",
        t,
        weights,
        total_observed_weight,
        source_rows,
        SamplingPolicy::biased(["ra"]),
        1,
    )
    .unwrap()
}

/// The pre-streamed estimator path, reproduced verbatim: zero-extended
/// observations over every impression row with a binary search per row.
fn legacy_count_estimate(imp: &Impression, selection: &SelectionVector) -> Estimate {
    let observations: Vec<WeightedObservation> = (0..imp.row_count())
        .map(|i| WeightedObservation {
            value: if selection.contains(i) { 1.0 } else { 0.0 },
            probability: imp.selection_probability(i),
        })
        .collect();
    let mut est = WeightedEstimator::estimate_total(&observations).expect("valid probabilities");
    if !selection.is_empty() {
        est.sample_size = selection.len();
    }
    est
}

/// The pre-streamed SUM path: same shape, values gathered where selected.
fn legacy_sum_estimate(imp: &Impression, column: &str, selection: &SelectionVector) -> Estimate {
    let col = imp.data().column(column).expect("bench column exists");
    let observations: Vec<WeightedObservation> = (0..imp.row_count())
        .map(|i| {
            let value = if selection.contains(i) {
                col.get_f64(i).unwrap_or(0.0)
            } else {
                0.0
            };
            WeightedObservation {
                value,
                probability: imp.selection_probability(i),
            }
        })
        .collect();
    let mut est = WeightedEstimator::estimate_total(&observations).expect("valid probabilities");
    if !selection.is_empty() {
        est.sample_size = selection.len();
    }
    est
}

/// A selection the way the engine's SELECT path takes it: one serial
/// `multi_scan` item streaming into a row-id sink.
fn select(compiled: &CompiledPredicate, table: &Table) -> SelectionVector {
    let mut rows: Vec<usize> = Vec::new();
    let mut items = [MultiScanItem {
        predicate: compiled,
        sink: &mut rows,
    }];
    multi_scan(table, &mut items, None)
        .remove(0)
        .expect("kernels select");
    SelectionVector::from_sorted_rows(rows)
}

/// The streamed path: a weighted sink (counting when `column` is `None`)
/// driven through `multi_scan`, serially or over `parts`.
fn streamed_sketch(
    compiled: &CompiledPredicate,
    table: &Table,
    column: Option<&str>,
    probs: &[f64],
    parts: Option<&Partitioning>,
) -> WeightedMomentSketch {
    let mut sink = match column {
        None => WeightedMomentSink::counting(probs),
        Some(name) => {
            WeightedMomentSink::new(numeric_source(table, name).expect("numeric column"), probs)
        }
    };
    let mut items = [MultiScanItem {
        predicate: compiled,
        sink: &mut sink,
    }];
    multi_scan(table, &mut items, parts)
        .remove(0)
        .expect("weighted scan");
    sink.sketch
}

/// Iterations per case, set once in `main` (more in quick mode, fewer at
/// the 10M-row full scale where each legacy iteration allocates an
/// observation per impression row).
static ITERS: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(9);

fn time_ns(mut f: impl FnMut() -> u64) -> f64 {
    let iters = ITERS.load(std::sync::atomic::Ordering::Relaxed);
    std::hint::black_box(f());
    let mut sink = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        sink = sink.wrapping_add(f());
    }
    let elapsed = start.elapsed().as_nanos() as f64 / iters as f64;
    std::hint::black_box(sink);
    elapsed
}

struct BenchRow {
    name: &'static str,
    legacy_ns: Option<f64>,
    selection_ns: f64,
    streamed_ns: f64,
}

impl BenchRow {
    fn legacy_speedup(&self) -> Option<f64> {
        self.legacy_ns.map(|l| l / self.streamed_ns.max(1.0))
    }
    fn selection_speedup(&self) -> f64 {
        self.selection_ns / self.streamed_ns.max(1.0)
    }
}

fn assert_estimates_bit_equal(a: &Estimate, b: &Estimate, context: &str) {
    assert_eq!(
        a.value.to_bits(),
        b.value.to_bits(),
        "estimate value diverges: {context}"
    );
    assert_eq!(
        a.standard_error.to_bits(),
        b.standard_error.to_bits(),
        "standard error diverges: {context}"
    );
    assert_eq!(
        a.sample_size, b.sample_size,
        "sample size diverges: {context}"
    );
}

/// The legacy path materialises its zero-valued draws, so its Welford
/// moments take a different (mathematically equal) route to the variance
/// than the zero-skipping paths: point estimates stay bit-identical, the
/// standard error agrees to rounding.
fn assert_estimates_equivalent(a: &Estimate, b: &Estimate, context: &str) {
    assert_eq!(
        a.value.to_bits(),
        b.value.to_bits(),
        "estimate value diverges: {context}"
    );
    assert!(
        (a.standard_error - b.standard_error).abs()
            <= 1e-9 * (1.0 + a.standard_error.abs().max(b.standard_error.abs())),
        "standard error diverges: {context}: {} vs {}",
        a.standard_error,
        b.standard_error
    );
    assert_eq!(
        a.sample_size, b.sample_size,
        "sample size diverges: {context}"
    );
}

/// Cross-check every path — legacy, fallback, streamed, sharded streamed —
/// before any timing: bit-identical where both paths fold the same pushes,
/// equivalent-to-rounding against the zero-materialising legacy path.
/// Panics on divergence.
fn verify(imp: &Impression, predicate: &Predicate, compiled: &CompiledPredicate) {
    let table = imp.data();
    let probs = imp.selection_probabilities();
    let oracle_sel = predicate.evaluate(table).expect("oracle evaluates");
    let fast_sel = select(compiled, table);
    assert_eq!(oracle_sel, fast_sel, "kernel selection vs oracle");

    let legacy = legacy_count_estimate(imp, &oracle_sel);
    let fallback = imp.estimate_count(&oracle_sel).expect("fallback count");
    let count_sketch = streamed_sketch(compiled, table, None, probs, None);
    let streamed = imp
        .estimate_weighted_count(&count_sketch)
        .expect("streamed count");
    assert_estimates_equivalent(&legacy, &fallback, "legacy vs fallback COUNT");
    assert_estimates_bit_equal(&fallback, &streamed, "fallback vs streamed COUNT");

    let legacy = legacy_sum_estimate(imp, "r_mag", &oracle_sel);
    let fallback = imp
        .estimate_sum("r_mag", &oracle_sel)
        .expect("fallback sum");
    let agg_sketch = streamed_sketch(compiled, table, Some("r_mag"), probs, None);
    let streamed = imp
        .estimate_weighted_sum(&agg_sketch)
        .expect("streamed sum");
    assert_estimates_equivalent(&legacy, &fallback, "legacy vs fallback SUM");
    assert_estimates_bit_equal(&fallback, &streamed, "fallback vs streamed SUM");

    let fallback = imp
        .estimate_avg("r_mag", &oracle_sel)
        .expect("fallback avg");
    let streamed = imp
        .estimate_weighted_avg(&agg_sketch)
        .expect("streamed avg");
    assert_estimates_bit_equal(&fallback, &streamed, "fallback vs streamed AVG");

    for shards in [2usize, 4] {
        let parts = Partitioning::even(table.row_count(), shards);
        let sharded = streamed_sketch(compiled, table, None, probs, Some(&parts));
        assert_eq!(
            sharded, count_sketch,
            "sharded count sketch diverges at {shards} shards"
        );
        let sharded = streamed_sketch(compiled, table, Some("r_mag"), probs, Some(&parts));
        assert_eq!(
            sharded, agg_sketch,
            "sharded moment sketch diverges at {shards} shards"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--weighted-json-out" {
            json_out = it.next().cloned();
        } else if let Some(path) = arg.strip_prefix("--weighted-json-out=") {
            json_out = Some(path.to_owned());
        } else if arg == "--json-out" || arg == "--parallel-json-out" || arg == "--serving-json-out"
        {
            // other bench binaries' flags: consume their values
            it.next();
        }
        // remaining flags (e.g. cargo bench's `--bench`) are ignored
    }

    let quick = quick_mode();
    let rows_n = if quick { QUICK_ROWS } else { FULL_ROWS };
    let iters: u32 = if quick { 9 } else { 3 };
    ITERS.store(iters, std::sync::atomic::Ordering::Relaxed);
    let imp = build_impression(rows_n);
    let table = imp.data();
    let schema = table.schema();
    let probs = imp.selection_probabilities();
    println!(
        "weighted_scan: selection-based vs streamed Hansen–Hurwitz estimation \
         on a {}-row biased impression ({iters} iters/case{})\n",
        imp.row_count(),
        if quick { ", quick mode" } else { "" }
    );

    // 50% selectivity — the selection path materialises ~100k row ids
    let range = Predicate::between("ra", 90.0, 270.0);
    // ~1.5% selectivity through candidate-list refinement
    let cone = Predicate::between("ra", 180.0, 190.0)
        .and(Predicate::between("dec", -5.0, 5.0))
        .and(Predicate::lt("r_mag", 20.0));

    // --- verification before any timing ------------------------------------
    for predicate in [&range, &cone] {
        let compiled = CompiledPredicate::compile(predicate, schema).expect("compiles");
        verify(&imp, predicate, &compiled);
    }
    println!(
        "bit-identity verified: legacy selection path == selection fallback == \
         streamed kernels (serial and sharded)\n"
    );

    let mut rows: Vec<BenchRow> = Vec::new();

    for (name, predicate) in [
        ("weighted_count", &range),
        ("weighted_count_refined", &cone),
    ] {
        let compiled = CompiledPredicate::compile(predicate, schema).expect("compiles");
        let legacy_ns = time_ns(|| {
            let sel = select(&compiled, table);
            legacy_count_estimate(&imp, &sel).sample_size as u64
        });
        let selection_ns = time_ns(|| {
            let sel = select(&compiled, table);
            imp.estimate_count(&sel).expect("fallback").sample_size as u64
        });
        let streamed_ns = time_ns(|| {
            let sketch = streamed_sketch(&compiled, table, None, probs, None);
            imp.estimate_weighted_count(&sketch)
                .expect("streamed")
                .sample_size as u64
        });
        rows.push(BenchRow {
            name,
            legacy_ns: Some(legacy_ns),
            selection_ns,
            streamed_ns,
        });
    }

    for (name, predicate) in [("weighted_sum", &range), ("weighted_sum_refined", &cone)] {
        let compiled = CompiledPredicate::compile(predicate, schema).expect("compiles");
        let legacy_ns = time_ns(|| {
            let sel = select(&compiled, table);
            legacy_sum_estimate(&imp, "r_mag", &sel).sample_size as u64
        });
        let selection_ns = time_ns(|| {
            let sel = select(&compiled, table);
            imp.estimate_sum("r_mag", &sel)
                .expect("fallback")
                .sample_size as u64
        });
        let streamed_ns = time_ns(|| {
            let sketch = streamed_sketch(&compiled, table, Some("r_mag"), probs, None);
            imp.estimate_weighted_sum(&sketch)
                .expect("streamed")
                .sample_size as u64
        });
        rows.push(BenchRow {
            name,
            legacy_ns: Some(legacy_ns),
            selection_ns,
            streamed_ns,
        });
    }

    // AVG has no distinct legacy shape (it always walked only the selected
    // rows); the win is skipping the selection materialisation entirely.
    {
        let compiled = CompiledPredicate::compile(&range, schema).expect("compiles");
        let selection_ns = time_ns(|| {
            let sel = select(&compiled, table);
            imp.estimate_avg("r_mag", &sel)
                .expect("fallback")
                .sample_size as u64
        });
        let streamed_ns = time_ns(|| {
            let sketch = streamed_sketch(&compiled, table, Some("r_mag"), probs, None);
            imp.estimate_weighted_avg(&sketch)
                .expect("streamed")
                .sample_size as u64
        });
        rows.push(BenchRow {
            name: "weighted_avg",
            legacy_ns: None,
            selection_ns,
            streamed_ns,
        });
    }

    // --- report ------------------------------------------------------------
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "benchmark", "legacy", "selection", "streamed", "leg.spd", "sel.spd"
    );
    for row in &rows {
        println!(
            "{:<24} {:>10} {:>10.0}µs {:>10.0}µs {:>8} {:>8.2}x",
            row.name,
            row.legacy_ns
                .map_or("-".to_owned(), |ns| format!("{:.0}µs", ns / 1e3)),
            row.selection_ns / 1e3,
            row.streamed_ns / 1e3,
            row.legacy_speedup()
                .map_or("-".to_owned(), |s| format!("{s:.2}x")),
            row.selection_speedup(),
        );
    }
    // the headline acceptance ratio: the *slowest* legacy-vs-streamed case,
    // so one lucky case cannot carry the number
    let headline = rows
        .iter()
        .filter_map(BenchRow::legacy_speedup)
        .fold(f64::INFINITY, f64::min);
    let fallback_best = rows
        .iter()
        .map(BenchRow::selection_speedup)
        .fold(0.0f64, f64::max);
    println!(
        "\nstreamed vs legacy selection path: ≥{headline:.2}x across all cases \
         (optimized fallback best: {fallback_best:.2}x)"
    );

    if let Some(path) = json_out {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"rows\": {rows_n},");
        let _ = writeln!(json, "  \"iterations\": {iters},");
        let _ = writeln!(json, "  \"quick_mode\": {quick},");
        let _ = writeln!(json, "  \"source_rows\": {},", rows_n as u64 * 100);
        let _ = writeln!(json, "  \"bit_identical\": true,");
        let _ = writeln!(json, "  \"selection_vs_streamed_speedup\": {headline:.2},");
        let _ = writeln!(
            json,
            "  \"optimized_fallback_vs_streamed_best_speedup\": {fallback_best:.2},"
        );
        json.push_str("  \"benchmarks\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"name\": \"{}\", \"legacy_selection_ns\": {}, \"selection_ns\": {:.0}, \
                 \"streamed_ns\": {:.0}, \"legacy_speedup\": {}, \"selection_speedup\": {:.2}}}",
                row.name,
                row.legacy_ns
                    .map_or("null".to_owned(), |ns| format!("{ns:.0}")),
                row.selection_ns,
                row.streamed_ns,
                row.legacy_speedup()
                    .map_or("null".to_owned(), |s| format!("{s:.2}")),
                row.selection_speedup(),
            );
            json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench summary");
        println!("wrote summary to {path}");
    }
}
