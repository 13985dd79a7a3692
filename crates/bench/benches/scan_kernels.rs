//! Scalar vs chunked scan benchmark on a paper-scale impression.
//!
//! Two execution paths are timed on every case:
//!
//! * **scalar** — the row-at-a-time oracle (`Predicate::evaluate` +
//!   `compute_aggregate`): the correctness baseline.
//! * **chunked** — the compiled pipeline: 64-row `u64` match-mask kernels
//!   ANDed word-at-a-time against the validity bitmaps, with string
//!   predicates on dictionary-encoded columns collapsing to integer code
//!   compares.
//!
//! The table defaults to 10M rows with the SkyServer column mix (ids,
//! coordinates, a nullable magnitude, a class label); set
//! `SCIBORQ_BENCH_QUICK=1` to drop to 200k rows for CI smoke runs. Columns
//! are built in bulk (not row-at-a-time) so table construction does not
//! dominate bench startup.
//!
//! This is a hand-rolled harness (not criterion) so it can emit a machine-
//! readable summary: pass `--json-out <path>` to write a `BENCH_scan.json`
//! style artifact; CI uploads it to track the perf trajectory and fails if
//! the chunked i64 range kernel ever loses to the scalar oracle. Results
//! are cross-checked against the oracle before timing, so a silently wrong
//! kernel cannot post a winning number.

use sciborq_columnar::{
    compute_aggregate, multi_scan, AggregateKind, Column, CompiledPredicate, DataType, Field,
    MultiScanItem, Predicate, RecordBatch, Schema, SelectionVector, Table, Value,
};
use std::fmt::Write as _;
use std::time::Instant;

const FULL_ROWS: usize = 10_000_000;
const QUICK_ROWS: usize = 200_000;

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

fn quick_mode() -> bool {
    std::env::var("SCIBORQ_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Bulk column construction: the 10M-row table is built from whole vectors,
/// not per-row `Value` appends.
fn build_table(rows: usize) -> Table {
    let schema = Schema::shared(vec![
        Field::new("objid", DataType::Int64),
        Field::new("ra", DataType::Float64),
        Field::new("dec", DataType::Float64),
        Field::nullable("r_mag", DataType::Float64),
        Field::new("class", DataType::Utf8),
    ])
    .unwrap();
    let classes = ["GALAXY", "STAR", "QSO"];
    let objid = Column::from_i64((0..rows as i64).collect());
    let ra = Column::from_f64((0..rows).map(|i| (i % 3600) as f64 / 10.0).collect());
    let hash = |i: usize| {
        ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1_000_000) as f64 / 1_000_000.0
    };
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
    let batch = RecordBatch::new(schema, vec![objid, ra, dec, r_mag, class]).unwrap();
    Table::from_batch("photoobj", batch)
}

struct BenchRow {
    name: &'static str,
    scalar_ns: f64,
    chunked_ns: f64,
}

impl BenchRow {
    fn chunked_vs_scalar(&self) -> f64 {
        self.scalar_ns / self.chunked_ns.max(1.0)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--json-out" {
            json_out = it.next().cloned();
        } else if let Some(path) = arg.strip_prefix("--json-out=") {
            json_out = Some(path.to_owned());
        } else if arg == "--parallel-json-out"
            || arg == "--weighted-json-out"
            || arg == "--serving-json-out"
        {
            // other benches' flags: consume their values so they are not misread
            it.next();
        }
        // other flags (e.g. cargo bench's `--bench`) are ignored
    }

    let quick = quick_mode();
    let rows_n = if quick { QUICK_ROWS } else { FULL_ROWS };
    let iters: u32 = if quick { 7 } else { 5 };
    let mut table = build_table(rows_n);
    let schema = table.schema().clone();
    println!(
        "scan_kernels: scalar vs chunked on {} rows ({iters} iters/case{})\n",
        table.row_count(),
        if quick { ", quick mode" } else { "" }
    );

    // Time `f` over `iters` iterations (after one warm-up) and return the
    // mean nanoseconds per iteration. The closure returns a checksum folded
    // into a black-box sink so the work cannot be optimised away.
    let time_ns = |f: &mut dyn FnMut() -> u64| -> f64 {
        std::hint::black_box(f());
        let mut sink = 0u64;
        let start = Instant::now();
        for _ in 0..iters {
            sink = sink.wrapping_add(f());
        }
        let elapsed = start.elapsed().as_nanos() as f64 / iters as f64;
        std::hint::black_box(sink);
        elapsed
    };

    let range_i64 = Predicate::between("objid", rows_n as i64 / 4, rows_n as i64 / 2);
    let range = Predicate::between("ra", 180.0, 190.0);
    let cone = Predicate::between("ra", 180.0, 190.0)
        .and(Predicate::between("dec", -5.0, 5.0))
        .and(Predicate::lt("r_mag", 20.0));
    let class_eq = Predicate::eq("class", "GALAXY");

    let mut rows: Vec<BenchRow> = Vec::new();

    // Selection benchmark over both paths, with an oracle cross-check first.
    // Used once on the plain table and again (for the string case) after
    // dictionary encoding.
    let mut bench_selection = |table: &Table, name: &'static str, predicate: &Predicate| {
        let compiled = CompiledPredicate::compile(predicate, table.schema()).expect("compiles");
        let expected = predicate.evaluate(table).expect("oracle");
        assert_eq!(
            select(&compiled, table),
            expected,
            "{name}: chunked selection diverges from the oracle"
        );
        let scalar_ns = time_ns(&mut || predicate.evaluate(table).expect("oracle").len() as u64);
        let chunked_ns = time_ns(&mut || select(&compiled, table).len() as u64);
        rows.push(BenchRow {
            name,
            scalar_ns,
            chunked_ns,
        });
    };

    // --- selection benchmarks ---------------------------------------------
    for (name, predicate) in [
        ("range_scan_i64", &range_i64),
        ("range_scan", &range),
        ("conjunctive_cone_scan", &cone),
        ("string_eq_scan", &class_eq),
    ] {
        bench_selection(&table, name, predicate);
    }

    // --- dictionary-encoded string scan ------------------------------------
    // Encode in place (exactly what `Impression::new` does at construction)
    // and re-run the string case: predicates become integer code compares.
    let encoded = table.dict_encode_strings(usize::MAX);
    assert_eq!(encoded, 1, "class column should dictionary-encode");
    bench_selection(&table, "string_eq_dict", &class_eq);

    // --- fused filter+aggregate benchmarks --------------------------------
    {
        let compiled = CompiledPredicate::compile(&cone, &schema).expect("compiles");
        let oracle_sel = cone.evaluate(&table).expect("oracle");
        let oracle_count = oracle_sel.len();
        let (fused_count, _) = compiled.count_matches(&table).expect("fused count");
        assert_eq!(fused_count, oracle_count, "fused count diverges");
        let scalar_ns = time_ns(&mut || cone.evaluate(&table).expect("oracle").len() as u64);
        let chunked_ns = time_ns(&mut || compiled.count_matches(&table).expect("fused").0 as u64);
        rows.push(BenchRow {
            name: "fused_filter_count",
            scalar_ns,
            chunked_ns,
        });

        let oracle_avg = compute_aggregate(&table, Some("r_mag"), AggregateKind::Avg, &oracle_sel)
            .expect("oracle avg")
            .value;
        let (sketch, _) = compiled.filter_moments(&table, "r_mag").expect("fused avg");
        assert_eq!(
            oracle_avg,
            sketch.aggregate(AggregateKind::Avg),
            "fused AVG diverges"
        );
        let scalar_ns = time_ns(&mut || {
            let sel = cone.evaluate(&table).expect("oracle");
            compute_aggregate(&table, Some("r_mag"), AggregateKind::Avg, &sel)
                .expect("aggregate")
                .rows as u64
        });
        let chunked_ns = time_ns(&mut || {
            compiled
                .filter_moments(&table, "r_mag")
                .expect("fused")
                .0
                .matched as u64
        });
        rows.push(BenchRow {
            name: "fused_filter_avg",
            scalar_ns,
            chunked_ns,
        });
    }

    // --- report ------------------------------------------------------------
    println!(
        "{:<24} {:>12} {:>12} {:>9}",
        "benchmark", "scalar", "chunked", "vs.scal"
    );
    for row in &rows {
        println!(
            "{:<24} {:>10.0}µs {:>10.0}µs {:>8.1}x",
            row.name,
            row.scalar_ns / 1e3,
            row.chunked_ns / 1e3,
            row.chunked_vs_scalar(),
        );
    }
    let all_faster = rows.iter().all(|r| r.chunked_ns < r.scalar_ns);
    // conservative floor: the worst chunked-vs-scalar case
    let chunked_vs_scalar = rows
        .iter()
        .map(BenchRow::chunked_vs_scalar)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nchunked path {} the scalar path on every case \
         (worst chunked-vs-scalar {chunked_vs_scalar:.2}x)",
        if all_faster { "beats" } else { "does NOT beat" },
    );

    if let Some(path) = json_out {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"rows\": {rows_n},");
        let _ = writeln!(json, "  \"iterations\": {iters},");
        let _ = writeln!(json, "  \"quick_mode\": {quick},");
        let _ = writeln!(json, "  \"all_vectorized_faster\": {all_faster},");
        let _ = writeln!(json, "  \"chunked_vs_scalar\": {chunked_vs_scalar:.2},");
        json.push_str("  \"benchmarks\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"name\": \"{}\", \"scalar_ns\": {:.0}, \"chunked_ns\": {:.0}, \
                 \"chunked_vs_scalar\": {:.2}}}",
                row.name,
                row.scalar_ns,
                row.chunked_ns,
                row.chunked_vs_scalar(),
            );
            json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench summary");
        println!("wrote summary to {path}");
    }
}
