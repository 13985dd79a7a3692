//! Single-threaded vs sharded scan benchmark on a paper-scale table.
//!
//! Times the compiled-predicate kernels (`CompiledPredicate`) against their
//! partitioned counterparts (`*_partitioned`, and a row-id sink in
//! `multi_scan` for selections, over a [`Partitioning`] fanned out on
//! `std::thread::scope` workers) on a 200k-row table with the
//! SkyServer column mix. Before any timing, every sharded result is
//! cross-checked **bit for bit** against both the single-threaded kernel and
//! the scalar oracle (`Predicate::evaluate` + `compute_aggregate`), so a
//! silently wrong shard merge cannot post a winning number.
//!
//! Hand-rolled harness (not criterion) so it can emit a machine-readable
//! summary: pass `--parallel-json-out <path>` to write a
//! `BENCH_parallel.json` artifact (the flag is distinct from scan_kernels'
//! `--json-out`, so `cargo bench` can pass both to every bench binary).
//!
//! Speedups depend on physical cores: on a single-core host the sharded
//! path degrades to sequential-plus-overhead and the summary records that
//! honestly (`available_parallelism` is included for context).

use sciborq_columnar::{
    compute_aggregate, multi_scan, AggregateKind, CompiledPredicate, DataType, Field,
    MultiScanItem, Partitioning, Predicate, RecordBatchBuilder, Schema, SelectionVector, Table,
    Value,
};
use std::fmt::Write as _;
use std::time::Instant;

const ROWS: usize = 200_000;
const ITERS: u32 = 9;
const SHARD_COUNTS: [usize; 2] = [2, 4];

fn build_table() -> Table {
    let schema = Schema::shared(vec![
        Field::new("objid", DataType::Int64),
        Field::new("ra", DataType::Float64),
        Field::new("dec", DataType::Float64),
        Field::nullable("r_mag", DataType::Float64),
        Field::new("class", DataType::Utf8),
    ])
    .unwrap();
    let classes = ["GALAXY", "STAR", "QSO"];
    let mut b = RecordBatchBuilder::with_capacity(schema.clone(), ROWS);
    for i in 0..ROWS as i64 {
        let h = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1_000_000) as f64 / 1_000_000.0;
        let ra = (i % 3600) as f64 / 10.0;
        let dec = h * 180.0 - 90.0;
        let mag = if i % 17 == 0 {
            Value::Null
        } else {
            Value::Float64(14.0 + 10.0 * h)
        };
        b.push_row(&[
            Value::Int64(i),
            Value::Float64(ra),
            Value::Float64(dec),
            mag,
            Value::Utf8(classes[(i % 3) as usize].to_owned()),
        ])
        .unwrap();
    }
    let mut t = Table::new("photoobj", schema);
    t.append_batch(&b.finish().unwrap()).unwrap();
    t
}

fn time_ns(mut f: impl FnMut() -> u64) -> f64 {
    std::hint::black_box(f());
    let mut sink = 0u64;
    let start = Instant::now();
    for _ in 0..ITERS {
        sink = sink.wrapping_add(f());
    }
    let elapsed = start.elapsed().as_nanos() as f64 / ITERS as f64;
    std::hint::black_box(sink);
    elapsed
}

struct BenchRow {
    name: &'static str,
    threads: usize,
    single_ns: f64,
    sharded_ns: f64,
}

impl BenchRow {
    fn speedup(&self) -> f64 {
        self.single_ns / self.sharded_ns.max(1.0)
    }
}

/// A selection the way the engine's SELECT path takes it: one `multi_scan`
/// item streaming into a row-id sink, serial or sharded over `parts`.
fn select(
    compiled: &CompiledPredicate,
    table: &Table,
    parts: Option<&Partitioning>,
) -> SelectionVector {
    let mut rows: Vec<usize> = Vec::new();
    let mut items = [MultiScanItem {
        predicate: compiled,
        sink: &mut rows,
    }];
    let results = multi_scan(table, &mut items, parts);
    assert!(results.iter().all(Result::is_ok), "selection");
    SelectionVector::from_sorted_rows(rows)
}

/// Verify the sharded pipeline bit for bit against the single-threaded
/// kernels and the scalar oracle for one predicate, across all measured
/// shard counts. Panics on any divergence.
fn verify_bit_identity(table: &Table, predicate: &Predicate, compiled: &CompiledPredicate) {
    let oracle_sel = predicate.evaluate(table).expect("oracle evaluates");
    let single_sel = select(compiled, table, None);
    assert_eq!(
        oracle_sel, single_sel,
        "single-threaded vs oracle selection"
    );
    let (single_count, _) = compiled.count_matches(table).expect("fused count");
    let (single_sketch, _) = compiled
        .filter_moments(table, "r_mag")
        .expect("fused moments");
    for shards in SHARD_COUNTS {
        let parts = Partitioning::even(table.row_count(), shards);
        let sel = select(compiled, table, Some(&parts));
        assert_eq!(sel, single_sel, "sharded selection at {shards} shards");
        let (count, _) = compiled
            .count_matches_partitioned(table, &parts)
            .expect("sharded count");
        assert_eq!(count, single_count, "sharded count at {shards} shards");
        let (sketch, _) = compiled
            .filter_moments_partitioned(table, "r_mag", &parts)
            .expect("sharded moments");
        for (name, a, b) in [
            ("sum", sketch.sum, single_sketch.sum),
            ("mean", sketch.mean, single_sketch.mean),
            ("m2", sketch.m2, single_sketch.m2),
            ("min", sketch.min, single_sketch.min),
            ("max", sketch.max, single_sketch.max),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "sharded {name} diverges at {shards} shards"
            );
        }
        // and against the scalar oracle, aggregate by aggregate
        for kind in [AggregateKind::Sum, AggregateKind::Avg, AggregateKind::Min] {
            let exact = compute_aggregate(table, Some("r_mag"), kind, &oracle_sel)
                .expect("oracle aggregate")
                .value;
            assert_eq!(
                exact.map(f64::to_bits),
                sketch.aggregate(kind).map(f64::to_bits),
                "sharded {kind} vs scalar oracle at {shards} shards"
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--parallel-json-out" {
            json_out = it.next().cloned();
        } else if let Some(path) = arg.strip_prefix("--parallel-json-out=") {
            json_out = Some(path.to_owned());
        } else if arg == "--json-out" || arg == "--weighted-json-out" || arg == "--serving-json-out"
        {
            // other benches' flags: consume their values so they are not misread
            it.next();
        }
        // other flags (e.g. cargo bench's `--bench`) are ignored
    }

    let table = build_table();
    let schema = table.schema();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "parallel_scan: single-threaded vs sharded kernels on {} rows \
         ({ITERS} iters/case, {cores} core(s) available)\n",
        table.row_count()
    );

    let cone = Predicate::between("ra", 180.0, 190.0)
        .and(Predicate::between("dec", -5.0, 5.0))
        .and(Predicate::lt("r_mag", 20.0));
    let range = Predicate::between("ra", 90.0, 270.0);

    let mut rows: Vec<BenchRow> = Vec::new();

    // --- verification before any timing ------------------------------------
    for predicate in [&cone, &range] {
        let compiled = CompiledPredicate::compile(predicate, schema).expect("compiles");
        verify_bit_identity(&table, predicate, &compiled);
    }
    println!("bit-identity verified against the single-threaded kernels and the scalar oracle\n");

    // --- fused filter+aggregate (the acceptance case) ----------------------
    {
        let compiled = CompiledPredicate::compile(&cone, schema).expect("compiles");
        let single_ns = time_ns(|| {
            compiled
                .filter_moments(&table, "r_mag")
                .expect("fused")
                .0
                .matched as u64
        });
        for shards in SHARD_COUNTS {
            let parts = Partitioning::even(table.row_count(), shards);
            let sharded_ns = time_ns(|| {
                compiled
                    .filter_moments_partitioned(&table, "r_mag", &parts)
                    .expect("sharded")
                    .0
                    .matched as u64
            });
            rows.push(BenchRow {
                name: "fused_filter_aggregate",
                threads: shards,
                single_ns,
                sharded_ns,
            });
        }
    }

    // --- fused filter+count -------------------------------------------------
    {
        let compiled = CompiledPredicate::compile(&cone, schema).expect("compiles");
        let single_ns = time_ns(|| compiled.count_matches(&table).expect("fused").0 as u64);
        for shards in SHARD_COUNTS {
            let parts = Partitioning::even(table.row_count(), shards);
            let sharded_ns = time_ns(|| {
                compiled
                    .count_matches_partitioned(&table, &parts)
                    .expect("sharded")
                    .0 as u64
            });
            rows.push(BenchRow {
                name: "fused_filter_count",
                threads: shards,
                single_ns,
                sharded_ns,
            });
        }
    }

    // --- selection materialisation ------------------------------------------
    {
        let compiled = CompiledPredicate::compile(&range, schema).expect("compiles");
        let single_ns = time_ns(|| select(&compiled, &table, None).len() as u64);
        for shards in SHARD_COUNTS {
            let parts = Partitioning::even(table.row_count(), shards);
            let sharded_ns = time_ns(|| select(&compiled, &table, Some(&parts)).len() as u64);
            rows.push(BenchRow {
                name: "selection_scan",
                threads: shards,
                single_ns,
                sharded_ns,
            });
        }
    }

    // --- report ------------------------------------------------------------
    println!(
        "{:<24} {:>8} {:>14} {:>14} {:>9}",
        "benchmark", "threads", "single", "sharded", "speedup"
    );
    for row in &rows {
        println!(
            "{:<24} {:>8} {:>12.0}µs {:>12.0}µs {:>8.2}x",
            row.name,
            row.threads,
            row.single_ns / 1e3,
            row.sharded_ns / 1e3,
            row.speedup()
        );
    }
    let best = rows
        .iter()
        .filter(|r| r.name == "fused_filter_aggregate")
        .map(|r| r.speedup())
        .fold(0.0f64, f64::max);
    println!("\nbest fused filter+aggregate speedup: {best:.2}x on {cores} core(s)");

    if let Some(path) = json_out {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"rows\": {ROWS},");
        let _ = writeln!(json, "  \"iterations\": {ITERS},");
        let _ = writeln!(json, "  \"available_parallelism\": {cores},");
        let _ = writeln!(json, "  \"bit_identical\": true,");
        let _ = writeln!(
            json,
            "  \"best_fused_filter_aggregate_speedup\": {best:.2},"
        );
        json.push_str("  \"benchmarks\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"name\": \"{}\", \"threads\": {}, \"single_ns\": {:.0}, \
                 \"sharded_ns\": {:.0}, \"speedup\": {:.2}}}",
                row.name,
                row.threads,
                row.single_ns,
                row.sharded_ns,
                row.speedup()
            );
            json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench summary");
        println!("wrote summary to {path}");
    }
}
