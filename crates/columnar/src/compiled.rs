//! Compile-once predicates for the vectorized execution pipeline.
//!
//! [`CompiledPredicate::compile`] resolves a [`Predicate`] against a
//! [`Schema`] exactly once per query: column names become column indices,
//! literals are type-checked and widened to the column's comparison type,
//! `BETWEEN` becomes a one-pass range node, and type mismatches become lazy
//! error nodes that preserve the scalar oracle's semantics (a mismatching
//! literal only errors when a non-NULL row exists). Evaluation then runs the
//! typed tight-loop kernels from [`crate::kernels`] over the raw column
//! vectors.
//!
//! Evaluation itself is *chunked*: the predicate is evaluated over a
//! [`MatchMask`] — one `u64` of match bits per 64-row chunk, word-aligned
//! with the validity bitmaps. Leaves refine the running mask in place with
//! the branchless `mask_*` kernels (zero candidate words are skipped, so
//! conjunction refinement is wordwise intersection, MonetDB-style); Or/Not
//! combine whole masks with single AND/OR/ANDNOT sweeps; and the surviving
//! bits stream into the terminal [`SelectionSink`] through
//! [`SelectionSink::accept_word`] in ascending row order, which is what
//! keeps the fused count/moments/weighted folds bit-identical to the scalar
//! oracle. String predicates over dictionary-encoded Utf8 columns are
//! translated into integer code ranges ([`DictPred`]) at dispatch time, so
//! their scans are pure integer compares. This chunked evaluator is the only
//! execution tier; the scalar oracle is the one reference it is tested
//! against.
//!
//! Semantics match `Predicate::evaluate` (the scalar oracle) with one
//! documented exception: a NaN stored in a Float64 *cell* is rejected lazily
//! — only when a kernel actually visits that row as a live candidate —
//! whereas the oracle's full-column scans always visit it. Candidate
//! refinement can therefore skip a poisoned row that a full scan would have
//! rejected. NaN data is out of contract; NaN *constants* are handled with
//! full oracle parity.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::column::Column;
use crate::error::{ColumnarError, Result};
use crate::expr::{CompareOp, Predicate};
use crate::kernels::{
    any_valid, mask_all, mask_cmp_bool, mask_cmp_f64, mask_cmp_i64, mask_cmp_i64_f64, mask_cmp_str,
    mask_dict, mask_is_not_null, mask_is_null, mask_range_bool, mask_range_f64, mask_range_i64,
    mask_range_str, AggSource, CountSink, DictPred, MatchMask, MomentSink, MomentSketch, NumBound,
    ScanDomain, SelectionSink,
};
use crate::partition::Partitioning;
use crate::schema::SchemaRef;
use crate::table::Table;
use crate::value::{DataType, Value};
use std::sync::Arc;

/// Measured scan work performed by a compiled evaluation.
///
/// `rows_visited` counts every row position a kernel pass actually touched;
/// with candidate refinement, later predicates of a conjunction visit fewer
/// rows, so this is *measured* work, not `columns × row_count`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Total row positions visited across all kernel passes.
    pub rows_visited: u64,
}

impl ScanStats {
    #[inline]
    fn visit(&mut self, rows: usize) {
        self.rows_visited += rows as u64;
    }

    /// Fold another pass's (or shard's) measured work into this total.
    pub fn merge(&mut self, other: &ScanStats) {
        self.rows_visited += other.rows_visited;
    }
}

/// A compiled predicate node. Column indices are bound and constants are
/// pre-widened, so evaluation needs no name resolution and no `Value`
/// materialisation.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Matches every row.
    All,
    /// Matches no row.
    Nothing,
    /// Int64 column vs integer literal: exact 64-bit comparison.
    CmpI64 {
        col: usize,
        op: CompareOp,
        bound: i64,
    },
    /// Int64 column vs float literal: cells widened per row.
    CmpI64F {
        col: usize,
        op: CompareOp,
        bound: f64,
    },
    /// Float64 column vs numeric literal (widened at compile time).
    CmpF64 {
        col: usize,
        op: CompareOp,
        bound: f64,
    },
    /// Bool column vs boolean literal.
    CmpBool {
        col: usize,
        op: CompareOp,
        bound: bool,
    },
    /// Utf8 column vs string literal (compared by reference).
    CmpStr {
        col: usize,
        op: CompareOp,
        bound: String,
    },
    /// One-pass inclusive range over an Int64 column.
    RangeI64 {
        col: usize,
        low: NumBound,
        high: NumBound,
    },
    /// One-pass inclusive range over a Float64 column.
    RangeF64 { col: usize, low: f64, high: f64 },
    /// One-pass inclusive range over a Utf8 column.
    RangeStr {
        col: usize,
        low: String,
        high: String,
    },
    /// One-pass inclusive range over a Bool column.
    RangeBool { col: usize, low: bool, high: bool },
    /// `column IS NULL`.
    IsNull { col: usize },
    /// `column IS NOT NULL`.
    IsNotNull { col: usize },
    /// A literal whose type cannot be compared against the column (or an
    /// unordered NaN literal): errors as soon as any non-NULL row exists in
    /// the column, otherwise selects nothing — the oracle's lazy mismatch
    /// semantics.
    ErrOnValid { col: usize, found: &'static str },
    /// Conjunction, executed as wordwise mask refinement.
    And(Vec<Node>),
    /// Disjunction (children evaluated over the same domain, results
    /// unioned).
    Or(Vec<Node>),
    /// Negation (complement within the current domain).
    Not(Box<Node>),
}

/// A predicate compiled against a schema, ready for vectorized evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPredicate {
    schema: SchemaRef,
    root: Node,
}

impl CompiledPredicate {
    /// Compile a predicate against a schema. Column lookups happen here,
    /// once; evaluation only indexes.
    pub fn compile(predicate: &Predicate, schema: &SchemaRef) -> Result<Self> {
        let root = compile_node(predicate, schema)?;
        Ok(CompiledPredicate {
            schema: Arc::clone(schema),
            root,
        })
    }

    /// The schema this predicate was compiled against.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Whether the predicate can run against tables with this schema.
    pub fn matches_schema(&self, schema: &SchemaRef) -> bool {
        Arc::ptr_eq(&self.schema, schema) || self.schema.fields() == schema.fields()
    }

    fn check_table(&self, table: &Table) -> Result<()> {
        if self.matches_schema(table.schema()) {
            Ok(())
        } else {
            Err(ColumnarError::SchemaMismatch(format!(
                "predicate compiled against {} cannot run on table {} with schema {}",
                self.schema,
                table.name(),
                table.schema()
            )))
        }
    }

    /// Fused filter+count: the number of matching rows, without
    /// materialising a selection vector.
    pub fn count_matches(&self, table: &Table) -> Result<(usize, ScanStats)> {
        let parts = Partitioning::single(table.row_count());
        let (count, mut stats) = self.count_matches_partitioned(table, &parts)?;
        Ok((count, stats.pop().unwrap_or_default()))
    }

    /// Fused filter+aggregate: stream the aggregated column's values of
    /// every matching row into a [`MomentSketch`] in a single pass, without
    /// materialising a selection vector.
    ///
    /// `column` must be numeric (Int64 or Float64).
    pub fn filter_moments(&self, table: &Table, column: &str) -> Result<(MomentSketch, ScanStats)> {
        let parts = Partitioning::single(table.row_count());
        let (sketch, mut stats) = self.filter_moments_partitioned(table, column, &parts)?;
        Ok((sketch, stats.pop().unwrap_or_default()))
    }

    /// Sharded fused filter+count: the per-shard masks are popcounted in
    /// ascending shard order (integer addition — exact, so the total equals
    /// [`CompiledPredicate::count_matches`]).
    pub fn count_matches_partitioned(
        &self,
        table: &Table,
        parts: &Partitioning,
    ) -> Result<(usize, Vec<ScanStats>)> {
        let (sink, stats) = self.scan_into(table, parts, || Ok(CountSink::default()))?;
        Ok((sink.0, stats))
    }

    /// Sharded fused filter+aggregate. The *filter* — the dominant cost —
    /// fans out: each worker refines its shard's [`MatchMask`]. The masks
    /// are then folded into one [`MomentSketch`] on the calling thread, in
    /// ascending shard order and word by word, i.e. in global row order:
    /// exactly the push sequence of the single-threaded
    /// [`CompiledPredicate::filter_moments`], so every accumulated moment
    /// (including the order-sensitive `sum` and Welford `mean`/`m2`) is
    /// **bit-identical** to the single-threaded path and therefore to the
    /// scalar `compute_aggregate` oracle. A merge of per-shard float
    /// accumulators could not guarantee that — float addition is not
    /// associative — which is why the aggregation tail stays sequential;
    /// it touches only the rows that survived the predicate.
    pub fn filter_moments_partitioned(
        &self,
        table: &Table,
        column: &str,
        parts: &Partitioning,
    ) -> Result<(MomentSketch, Vec<ScanStats>)> {
        let (sink, stats) = self.scan_into(table, parts, || {
            numeric_source(table, column).map(MomentSink::new)
        })?;
        Ok((sink.sketch, stats))
    }

    /// The one fold path of the single-predicate entry points: check the
    /// table and `parts`, build the sink, refine every shard's mask on its
    /// own worker, then emit the masks into the sink in ascending shard
    /// order. Returns each shard's measured work; on error, the lowest
    /// failing shard's error wins.
    fn scan_into<S: SelectionSink>(
        &self,
        table: &Table,
        parts: &Partitioning,
        sink: impl FnOnce() -> Result<S>,
    ) -> Result<(S, Vec<ScanStats>)> {
        self.check_table(table)?;
        if parts.row_count() != table.row_count() {
            return Err(ColumnarError::LengthMismatch {
                expected: table.row_count(),
                found: parts.row_count(),
            });
        }
        let mut sink = sink()?;
        let shards = for_each_shard(parts, |domain| self.refine(table, domain))
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        let mut stats = Vec::with_capacity(shards.len());
        for (mask, shard_stats) in shards {
            mask.emit(&mut sink);
            stats.push(shard_stats);
        }
        Ok((sink, stats))
    }

    /// Run the predicate over `base` through the chunked mask evaluator:
    /// seed a [`MatchMask`] covering the base rows and refine it
    /// word-at-a-time through every node. `base` is one shard's row range
    /// or one serial batch; the caller emits the surviving bits into its
    /// sink with [`MatchMask::emit`], in ascending row order.
    fn refine(&self, table: &Table, base: ScanDomain) -> Result<(MatchMask, ScanStats)> {
        let (start, end) = base.bounds();
        let mut mask = MatchMask::coverage(start, end);
        let mut stats = ScanStats::default();
        refine_node(&self.root, table, &mut mask, &mut stats)?;
        Ok((mask, stats))
    }
}

/// One query's slot in a shared multi-query scan: a compiled predicate and
/// the sink its matching rows stream into. The sink is a trait object so a
/// single [`multi_scan`] can drive a mixed batch — counting sinks, moment
/// sinks and weighted sinks side by side.
pub struct MultiScanItem<'p, 's> {
    /// The query's predicate, compiled against the scanned table's schema.
    pub predicate: &'p CompiledPredicate,
    /// Where the query's matching rows go.
    pub sink: &'s mut dyn SelectionSink,
}

/// Rows per batch of the shared serial scan: every predicate of a
/// [`multi_scan`] visits one batch of rows before any predicate moves to the
/// next, so the batch's column data stays hot in cache across all N queries.
pub const MULTI_SCAN_BATCH_ROWS: usize = 8_192;

/// Evaluate N compiled predicates over one table in a single shared sweep,
/// streaming each predicate's matching rows into its own sink. This is the
/// multi-sink generalisation of [`CompiledPredicate::filter_moments`] and
/// the one scan entry point of the aggregate engine: a single query is a
/// batch of one, and weighted sinks ([`crate::WeightedMomentSink`]) reach
/// the kernels only through here.
///
/// Each item is evaluated independently and reports its own
/// [`ScanStats`] (or its own error — one query's type mismatch never poisons
/// its batch mates; on error that item's sink contents are unspecified).
/// Sinks read their side data (aggregation column, selection
/// probabilities) by table row, so that data must cover the table.
///
/// **Bit-identity.** Every sink receives exactly the rows the scalar oracle
/// selects, in ascending row order. Both paths fold the same way: each
/// batch (serial path) or shard (`parts` with more than one shard, one
/// worker per shard) refines a [`MatchMask`], and the calling thread emits
/// the masks into the sinks in ascending row order through
/// [`MatchMask::emit`], one [`SelectionSink::accept_word`] call per
/// non-zero 64-row word — the same fixed-order fold as
/// [`CompiledPredicate::filter_moments_partitioned`]. A shard boundary
/// inside a word is harmless: the lower shard emits the word's low bits and
/// the next shard its high bits, at the same base, so the order stays
/// ascending.
/// Accumulated moments are therefore bit-identical whatever the batch
/// composition or shard count. Scan-work accounting is additive across row
/// batches and shards, except that a lazily type-mismatched literal checks
/// its whole column once per batch or shard and reports that extra work
/// honestly, like the partitioned paths.
pub fn multi_scan(
    table: &Table,
    items: &mut [MultiScanItem<'_, '_>],
    parts: Option<&Partitioning>,
) -> Vec<Result<ScanStats>> {
    let mut results: Vec<Result<ScanStats>> = items
        .iter()
        .map(|item| {
            item.predicate
                .check_table(table)
                .map(|()| ScanStats::default())
        })
        .collect();
    let shard_parts = match parts {
        Some(parts) => {
            if parts.row_count() != table.row_count() {
                for result in results.iter_mut().filter(|r| r.is_ok()) {
                    *result = Err(ColumnarError::LengthMismatch {
                        expected: table.row_count(),
                        found: parts.row_count(),
                    });
                }
                return results;
            }
            (!parts.is_single()).then_some(parts)
        }
        None => None,
    };
    match shard_parts {
        Some(parts) => multi_scan_sharded(table, items, parts, &mut results),
        None => multi_scan_serial(table, items, &mut results),
    }
    results
}

/// The shared serial sweep: batches of contiguous rows, all live predicates
/// refined and folded per batch, so a batch's column data stays hot.
fn multi_scan_serial(
    table: &Table,
    items: &mut [MultiScanItem<'_, '_>],
    results: &mut [Result<ScanStats>],
) {
    let rows = table.row_count();
    let mut start = 0;
    while start < rows {
        let end = rows.min(start + MULTI_SCAN_BATCH_ROWS);
        let domain = ScanDomain::Range { start, end };
        for (item, result) in items.iter_mut().zip(results.iter_mut()) {
            if result.is_ok() {
                fold(item, result, item.predicate.refine(table, domain));
            }
        }
        start = end;
    }
}

/// The sharded sweep: every worker refines one mask per live predicate over
/// its shard; the calling thread folds the masks in ascending shard order
/// (= global row order). Per item, the error of the lowest failing shard
/// wins, so failures are deterministic regardless of thread scheduling.
fn multi_scan_sharded(
    table: &Table,
    items: &mut [MultiScanItem<'_, '_>],
    parts: &Partitioning,
    results: &mut [Result<ScanStats>],
) {
    let live: Vec<bool> = results.iter().map(Result::is_ok).collect();
    let predicates: Vec<&CompiledPredicate> = items.iter().map(|item| item.predicate).collect();
    let per_shard = for_each_shard(parts, |domain| {
        predicates
            .iter()
            .zip(&live)
            .map(|(predicate, &live)| {
                if live {
                    predicate.refine(table, domain)
                } else {
                    Ok((MatchMask::coverage(0, 0), ScanStats::default()))
                }
            })
            .collect::<Vec<_>>()
    });
    for shard in per_shard {
        for ((item, result), refined) in items.iter_mut().zip(results.iter_mut()).zip(shard) {
            fold(item, result, refined);
        }
    }
}

/// Fold one batch's or shard's refined mask into an item: add its measured
/// work and emit its words into the item's sink, or record its error. An
/// item that already failed takes nothing more.
fn fold(
    item: &mut MultiScanItem<'_, '_>,
    result: &mut Result<ScanStats>,
    refined: Result<(MatchMask, ScanStats)>,
) {
    let Ok(total) = result else { return };
    match refined {
        Ok((mask, stats)) => {
            total.merge(&stats);
            mask.emit(&mut *item.sink);
        }
        Err(err) => *result = Err(err),
    }
}

/// Run `work` over every shard of `parts`, shard 0 on the calling thread
/// and one scoped worker thread per further shard — the single
/// fan-out of the scan layer. Results come back in ascending shard order,
/// so a caller that collects them into a `Result` gets the error of the
/// *lowest* failing shard: failures are deterministic regardless of thread
/// scheduling.
fn for_each_shard<T, F>(parts: &Partitioning, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(ScanDomain) -> T + Sync,
{
    let shard_domain = |i: usize| {
        let r = parts.range(i);
        ScanDomain::Range {
            start: r.start,
            end: r.end,
        }
    };
    if parts.is_single() {
        return vec![work(shard_domain(0))];
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (1..parts.shard_count())
            .map(|i| {
                let domain = shard_domain(i);
                scope.spawn(move || work(domain))
            })
            .collect();
        let mut out = Vec::with_capacity(parts.shard_count());
        out.push(work(shard_domain(0)));
        for handle in handles {
            #[expect(
                clippy::expect_used,
                reason = "a worker panic is a bug in the kernel itself; re-raising it preserves scoped-thread abort semantics"
            )]
            out.push(handle.join().expect("shard worker panicked"));
        }
        out
    })
}

/// Typed access to a numeric aggregation column, shared by the fused and
/// the partitioned filter+aggregate paths and by callers that assemble
/// their own [`MomentSink`]/[`WeightedMomentSink`] slots for a
/// [`multi_scan`].
pub fn numeric_source<'a>(table: &'a Table, column: &str) -> Result<AggSource<'a>> {
    let col = table.column(column)?;
    match col {
        Column::Int64 { .. } => Ok(AggSource::I64(i64_cells(col), col.validity_ref())),
        Column::Float64 { .. } => Ok(AggSource::F64(f64_cells(col), col.validity_ref())),
        _ => Err(ColumnarError::NotNumeric(column.to_owned())),
    }
}

fn literal_name(value: &Value) -> &'static str {
    value.type_name()
}

/// Compile a `Compare` leaf.
fn compile_compare(col: usize, col_type: DataType, op: CompareOp, value: &Value) -> Node {
    match (col_type, value) {
        // NULL literals never match anything (SQL semantics)
        (_, Value::Null) => Node::Nothing,
        (DataType::Int64, Value::Int64(v)) => Node::CmpI64 { col, op, bound: *v },
        (DataType::Int64, Value::Float64(v)) if v.is_nan() => Node::ErrOnValid {
            col,
            found: literal_name(value),
        },
        (DataType::Int64, Value::Float64(v)) => Node::CmpI64F { col, op, bound: *v },
        (DataType::Float64, Value::Int64(v)) => Node::CmpF64 {
            col,
            op,
            bound: *v as f64,
        },
        (DataType::Float64, Value::Float64(v)) if v.is_nan() => Node::ErrOnValid {
            col,
            found: literal_name(value),
        },
        (DataType::Float64, Value::Float64(v)) => Node::CmpF64 { col, op, bound: *v },
        (DataType::Bool, Value::Bool(v)) => Node::CmpBool { col, op, bound: *v },
        (DataType::Utf8, Value::Utf8(v)) => Node::CmpStr {
            col,
            op,
            bound: v.clone(),
        },
        _ => Node::ErrOnValid {
            col,
            found: literal_name(value),
        },
    }
}

/// Numeric bound compiled from a literal, or `None` when the literal cannot
/// be compared against the column.
fn numeric_bound(col_type: DataType, value: &Value) -> Option<NumBound> {
    match (col_type, value) {
        (DataType::Int64, Value::Int64(v)) => Some(NumBound::I64(*v)),
        (DataType::Int64, Value::Float64(v)) | (DataType::Float64, Value::Float64(v)) => {
            Some(NumBound::F64(*v))
        }
        (DataType::Float64, Value::Int64(v)) => Some(NumBound::F64(*v as f64)),
        _ => None,
    }
}

/// Compile a `Between` leaf into a one-pass range node, preserving the
/// oracle's semantics for NULL and mismatching bounds.
fn compile_between(col: usize, col_type: DataType, low: &Value, high: &Value) -> Node {
    // A bound of a type the column cannot be compared against poisons the
    // whole range (lazily, like the oracle). NULL bounds make the range
    // empty but do not suppress the *other* bound's type error.
    let bound_err = |value: &Value| -> Option<Node> {
        if value.is_null() {
            return None;
        }
        let compatible = match col_type {
            DataType::Int64 | DataType::Float64 => numeric_bound(col_type, value).is_some(),
            DataType::Bool => matches!(value, Value::Bool(_)),
            DataType::Utf8 => matches!(value, Value::Utf8(_)),
        };
        let nan = matches!(value, Value::Float64(v) if v.is_nan());
        if !compatible || nan {
            Some(Node::ErrOnValid {
                col,
                found: literal_name(value),
            })
        } else {
            None
        }
    };
    if let Some(err) = bound_err(low) {
        return err;
    }
    if let Some(err) = bound_err(high) {
        return err;
    }
    if low.is_null() || high.is_null() {
        return Node::Nothing;
    }
    match col_type {
        DataType::Int64 => Node::RangeI64 {
            col,
            low: vetted(numeric_bound(col_type, low)),
            high: vetted(numeric_bound(col_type, high)),
        },
        DataType::Float64 => Node::RangeF64 {
            col,
            low: vetted(low.as_f64()),
            high: vetted(high.as_f64()),
        },
        DataType::Bool => Node::RangeBool {
            col,
            low: vetted(low.as_bool()),
            high: vetted(high.as_bool()),
        },
        DataType::Utf8 => Node::RangeStr {
            col,
            low: vetted(low.as_str()).to_owned(),
            high: vetted(high.as_str()).to_owned(),
        },
    }
}

/// Unwrap a bound conversion that `bound_err` has already vetted for type
/// compatibility; `None` here would mean the compatibility check and the
/// conversion disagree about what converts.
#[expect(
    clippy::expect_used,
    reason = "bound compatibility was checked by bound_err immediately before every call; a miss is a compile_between bug, not a data error"
)]
fn vetted<T>(bound: Option<T>) -> T {
    bound.expect("checked compatible")
}

fn compile_node(predicate: &Predicate, schema: &SchemaRef) -> Result<Node> {
    Ok(match predicate {
        Predicate::True => Node::All,
        Predicate::False => Node::Nothing,
        Predicate::Compare { column, op, value } => {
            let (col, col_type) = leaf_column(schema, column)?;
            compile_compare(col, col_type, *op, value)
        }
        Predicate::Between { column, low, high } => {
            let (col, col_type) = leaf_column(schema, column)?;
            compile_between(col, col_type, low, high)
        }
        Predicate::IsNull(column) => Node::IsNull {
            col: schema.index_of(column)?,
        },
        Predicate::IsNotNull(column) => Node::IsNotNull {
            col: schema.index_of(column)?,
        },
        Predicate::And(ps) => Node::And(
            ps.iter()
                .map(|p| compile_node(p, schema))
                .collect::<Result<Vec<_>>>()?,
        ),
        Predicate::Or(ps) => Node::Or(
            ps.iter()
                .map(|p| compile_node(p, schema))
                .collect::<Result<Vec<_>>>()?,
        ),
        Predicate::Not(p) => Node::Not(Box::new(compile_node(p, schema)?)),
    })
}

/// Resolve a leaf's column name to its index and type.
#[expect(
    clippy::indexing_slicing,
    reason = "index_of returned this index one line up"
)]
fn leaf_column(schema: &SchemaRef, column: &str) -> Result<(usize, DataType)> {
    let col = schema.index_of(column)?;
    Ok((col, schema.fields()[col].data_type))
}

fn mismatch_error(table: &Table, col: usize, found: &'static str) -> ColumnarError {
    #[expect(
        clippy::indexing_slicing,
        reason = "leaf col indices come from index_of at compile time against this same schema"
    )]
    let field = &table.schema().fields()[col];
    ColumnarError::TypeMismatch {
        column: field.name.clone(),
        expected: field.data_type.name(),
        found,
    }
}

#[expect(
    clippy::expect_used,
    reason = "leaf col indices come from index_of at compile time; a miss means the table/schema pair changed under the predicate, a caller contract violation"
)]
fn column_at(table: &Table, col: usize) -> &Column {
    table
        .column_at(col)
        .expect("compiled column index within schema")
}

// The compile step verified every leaf's column type against the schema, so
// a slice-type miss below means the Table violates its own schema — a
// programming error surfaced loudly, not a recoverable data error.

#[expect(
    clippy::expect_used,
    reason = "leaf type was verified against the schema at compile time; a miss is a schema-integrity bug"
)]
fn i64_cells(c: &Column) -> &[i64] {
    c.i64_slice().expect("Int64 column")
}

#[expect(
    clippy::expect_used,
    reason = "leaf type was verified against the schema at compile time; a miss is a schema-integrity bug"
)]
fn f64_cells(c: &Column) -> &[f64] {
    c.f64_slice().expect("Float64 column")
}

#[expect(
    clippy::expect_used,
    reason = "leaf type was verified against the schema at compile time; a miss is a schema-integrity bug"
)]
fn bool_cells(c: &Column) -> &[bool] {
    c.bool_slice().expect("Bool column")
}

#[expect(
    clippy::expect_used,
    reason = "leaf type was verified against the schema at compile time; a miss is a schema-integrity bug"
)]
fn utf8_cells(c: &Column) -> &[String] {
    c.utf8_slice().expect("Utf8 column")
}

/// Evaluate a node by refining `mask` in place — the chunked execution
/// tier. On entry the mask holds the candidate rows (the coverage of the
/// base range for a root call); on exit it holds the rows that also satisfy
/// `node`.
///
/// Error-semantics parity with the scalar oracle: the oracle evaluates
/// every child of a combinator over the *full table* and only
/// short-circuits a conjunction when the running intersection is globally
/// empty. Leaf children may refine the running mask directly (a leaf's
/// in-contract errors are either candidate-independent — `ErrOnValid`
/// checks the whole column — or out-of-contract NaN data), but a
/// *composite* child must be evaluated into a fresh coverage mask of the
/// whole base range and intersected afterwards: refining a nested AND in
/// place would let the outer candidates starve an inner conjunct whose
/// emptiness — not the intersection's — is what gates the oracle's
/// evaluation of the conjunct after it.
fn refine_node(
    node: &Node,
    table: &Table,
    mask: &mut MatchMask,
    stats: &mut ScanStats,
) -> Result<()> {
    match node {
        Node::And(children) => {
            for child in children {
                // the oracle breaks out of a conjunction as soon as the
                // running intersection is empty, skipping any error a later
                // conjunct would raise
                if mask.is_empty() {
                    break;
                }
                match child {
                    Node::And(_) | Node::Or(_) | Node::Not(_) => {
                        let mut cover = MatchMask::coverage(mask.start(), mask.end());
                        refine_node(child, table, &mut cover, stats)?;
                        mask.and_with(&cover);
                    }
                    leaf => refine_leaf(leaf, table, mask, stats)?,
                }
            }
            Ok(())
        }
        Node::Or(children) => {
            let mut acc = MatchMask::coverage(mask.start(), mask.end());
            acc.clear();
            for child in children {
                let mut cover = MatchMask::coverage(mask.start(), mask.end());
                refine_node(child, table, &mut cover, stats)?;
                acc.or_with(&cover);
            }
            mask.and_with(&acc);
            Ok(())
        }
        Node::Not(child) => {
            let mut cover = MatchMask::coverage(mask.start(), mask.end());
            refine_node(child, table, &mut cover, stats)?;
            mask.and_not(&cover);
            Ok(())
        }
        leaf => refine_leaf(leaf, table, mask, stats),
    }
}

/// Dispatch a leaf node to its chunked mask kernel.
fn refine_leaf(
    node: &Node,
    table: &Table,
    mask: &mut MatchMask,
    stats: &mut ScanStats,
) -> Result<()> {
    match node {
        Node::All => {
            stats.visit(mask_all(mask).visited);
            Ok(())
        }
        Node::Nothing => {
            mask.clear();
            Ok(())
        }
        Node::CmpI64 { col, op, bound } => {
            let c = column_at(table, *col);
            let scan = mask_cmp_i64(i64_cells(c), c.validity_ref(), *op, *bound, mask);
            stats.visit(scan.visited);
            Ok(())
        }
        Node::CmpI64F { col, op, bound } => {
            let c = column_at(table, *col);
            mask_cmp_i64_f64(i64_cells(c), c.validity_ref(), *op, *bound, mask)
                .map(|scan| stats.visit(scan.visited))
                .map_err(|_| mismatch_error(table, *col, "Float64"))
        }
        Node::CmpF64 { col, op, bound } => {
            let c = column_at(table, *col);
            mask_cmp_f64(f64_cells(c), c.validity_ref(), *op, *bound, mask)
                .map(|scan| stats.visit(scan.visited))
                .map_err(|_| mismatch_error(table, *col, "Float64"))
        }
        Node::CmpBool { col, op, bound } => {
            let c = column_at(table, *col);
            let scan = mask_cmp_bool(bool_cells(c), c.validity_ref(), *op, *bound, mask);
            stats.visit(scan.visited);
            Ok(())
        }
        Node::CmpStr { col, op, bound } => {
            let c = column_at(table, *col);
            let scan = match c.dict_parts() {
                Some((codes, dict)) => mask_dict(
                    codes,
                    c.validity_ref(),
                    DictPred::compare(dict, *op, bound),
                    mask,
                ),
                None => mask_cmp_str(utf8_cells(c), c.validity_ref(), *op, bound, mask),
            };
            stats.visit(scan.visited);
            Ok(())
        }
        Node::RangeI64 { col, low, high } => {
            let c = column_at(table, *col);
            mask_range_i64(i64_cells(c), c.validity_ref(), *low, *high, mask)
                .map(|scan| stats.visit(scan.visited))
                .map_err(|_| mismatch_error(table, *col, "Float64"))
        }
        Node::RangeF64 { col, low, high } => {
            let c = column_at(table, *col);
            mask_range_f64(f64_cells(c), c.validity_ref(), *low, *high, mask)
                .map(|scan| stats.visit(scan.visited))
                .map_err(|_| mismatch_error(table, *col, "Float64"))
        }
        Node::RangeStr { col, low, high } => {
            let c = column_at(table, *col);
            let scan = match c.dict_parts() {
                Some((codes, dict)) => mask_dict(
                    codes,
                    c.validity_ref(),
                    DictPred::range(dict, low, high),
                    mask,
                ),
                None => mask_range_str(utf8_cells(c), c.validity_ref(), low, high, mask),
            };
            stats.visit(scan.visited);
            Ok(())
        }
        Node::RangeBool { col, low, high } => {
            let c = column_at(table, *col);
            let scan = mask_range_bool(bool_cells(c), c.validity_ref(), *low, *high, mask);
            stats.visit(scan.visited);
            Ok(())
        }
        Node::IsNull { col } => {
            let c = column_at(table, *col);
            stats.visit(mask_is_null(c.validity_ref(), mask).visited);
            Ok(())
        }
        Node::IsNotNull { col } => {
            let c = column_at(table, *col);
            stats.visit(mask_is_not_null(c.validity_ref(), mask).visited);
            Ok(())
        }
        Node::ErrOnValid { col, found } => {
            // the oracle scans the full column and errors on the first
            // non-NULL row, regardless of the candidate mask
            let c = column_at(table, *col);
            stats.visit(c.len());
            if any_valid(c.validity_ref(), ScanDomain::Full(c.len())) {
                Err(mismatch_error(table, *col, found))
            } else {
                mask.clear();
                Ok(())
            }
        }
        #[expect(
            clippy::unreachable,
            reason = "refine_node dispatches composites before reaching this leaf-only kernel table; hitting this arm is a dispatch bug"
        )]
        Node::And(_) | Node::Or(_) | Node::Not(_) => {
            unreachable!("composite nodes are handled by refine_node")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{compute_aggregate, AggregateKind};
    use crate::kernels::WeightedMomentSink;
    use crate::schema::{Field, Schema};
    use crate::selection::SelectionVector;
    use sciborq_stats::WeightedMomentSketch;

    fn test_table() -> Table {
        let schema = Schema::shared(vec![
            Field::new("objid", DataType::Int64),
            Field::new("ra", DataType::Float64),
            Field::nullable("r_mag", DataType::Float64),
            Field::new("class", DataType::Utf8),
        ])
        .unwrap();
        let mut t = Table::new("photoobj", schema);
        let rows: Vec<Vec<Value>> = vec![
            vec![1.into(), 180.0.into(), 17.2.into(), "GALAXY".into()],
            vec![2.into(), 185.5.into(), Value::Null, "STAR".into()],
            vec![3.into(), 190.0.into(), 19.0.into(), "GALAXY".into()],
            vec![4.into(), 200.0.into(), 21.5.into(), "QSO".into()],
            vec![5.into(), 170.0.into(), 16.0.into(), "STAR".into()],
        ];
        for r in rows {
            t.append_row(&r).unwrap();
        }
        t
    }

    /// A selection as the engine's SELECT path takes it: one `multi_scan`
    /// item streaming into a row-id sink, serial or sharded over `parts`.
    fn select(
        c: &CompiledPredicate,
        t: &Table,
        parts: Option<&Partitioning>,
    ) -> Result<(SelectionVector, ScanStats)> {
        let mut rows: Vec<usize> = Vec::new();
        let mut items = [MultiScanItem {
            predicate: c,
            sink: &mut rows,
        }];
        let stats = multi_scan(t, &mut items, parts)
            .pop()
            .expect("one item, one result")?;
        Ok((SelectionVector::from_sorted_rows(rows), stats))
    }

    /// The serial selection alone.
    fn select_serial(c: &CompiledPredicate, t: &Table) -> Result<SelectionVector> {
        select(c, t, None).map(|(sel, _)| sel)
    }

    fn compiled(p: &Predicate, t: &Table) -> CompiledPredicate {
        CompiledPredicate::compile(p, t.schema()).unwrap()
    }

    #[test]
    fn matches_oracle_on_basic_shapes() {
        let t = test_table();
        let predicates = vec![
            Predicate::True,
            Predicate::False,
            Predicate::between("ra", 175.0, 191.0),
            Predicate::eq("class", "GALAXY"),
            Predicate::gt("ra", 185),
            Predicate::lt("r_mag", 100.0),
            Predicate::IsNull("r_mag".into()),
            Predicate::IsNotNull("r_mag".into()),
            Predicate::eq("class", "GALAXY").and(Predicate::lt("ra", 185.0)),
            Predicate::eq("class", "QSO").or(Predicate::eq("class", "STAR")),
            Predicate::eq("class", "GALAXY").negate(),
            Predicate::between("objid", 2, 4).and(Predicate::gt("r_mag", 18.0)),
            Predicate::eq("r_mag", Value::Null),
        ];
        for p in predicates {
            let oracle = p.evaluate(&t).unwrap();
            let fast = select_serial(&compiled(&p, &t), &t).unwrap();
            assert_eq!(oracle, fast, "predicate {p}");
        }
    }

    #[test]
    fn unknown_column_fails_at_compile_time() {
        let t = test_table();
        assert!(matches!(
            CompiledPredicate::compile(&Predicate::eq("missing", 1), t.schema()),
            Err(ColumnarError::ColumnNotFound(_))
        ));
    }

    #[test]
    fn type_mismatch_is_lazy_like_the_oracle() {
        let t = test_table();
        let p = Predicate::eq("class", 5);
        let c = compiled(&p, &t);
        assert!(matches!(
            select_serial(&c, &t),
            Err(ColumnarError::TypeMismatch { .. })
        ));
        // but an all-NULL column never raises the mismatch
        let schema = Schema::shared(vec![Field::nullable("x", DataType::Utf8)]).unwrap();
        let mut empty = Table::new("t", schema);
        empty.append_row(&[Value::Null]).unwrap();
        let p = Predicate::eq("x", 5);
        assert!(p.evaluate(&empty).unwrap().is_empty());
        let c = CompiledPredicate::compile(&p, empty.schema()).unwrap();
        assert!(select_serial(&c, &empty).unwrap().is_empty());
    }

    #[test]
    fn and_short_circuits_before_mismatch_like_the_oracle() {
        let t = test_table();
        let p = Predicate::eq("class", "NO_SUCH").and(Predicate::eq("ra", "not a number"));
        assert!(p.evaluate(&t).unwrap().is_empty());
        assert!(select_serial(&compiled(&p, &t), &t).unwrap().is_empty());
        // without the short circuit the mismatch fires on both paths
        let p = Predicate::eq("class", "GALAXY").and(Predicate::eq("ra", "not a number"));
        assert!(p.evaluate(&t).is_err());
        assert!(select_serial(&compiled(&p, &t), &t).is_err());
    }

    #[test]
    fn nan_literal_errors_with_valid_rows() {
        let t = test_table();
        let p = Predicate::gt("ra", f64::NAN);
        assert!(p.evaluate(&t).is_err());
        assert!(select_serial(&compiled(&p, &t), &t).is_err());
    }

    #[test]
    fn between_null_bound_is_empty_but_checks_other_bound() {
        let t = test_table();
        let p = Predicate::between("ra", Value::Null, 190.0);
        assert!(p.evaluate(&t).unwrap().is_empty());
        assert!(select_serial(&compiled(&p, &t), &t).unwrap().is_empty());
        let p = Predicate::between("ra", Value::Null, "oops");
        assert!(p.evaluate(&t).is_err());
        assert!(select_serial(&compiled(&p, &t), &t).is_err());
    }

    #[test]
    fn fused_count_matches_selection_len() {
        let t = test_table();
        for p in [
            Predicate::between("ra", 175.0, 191.0),
            Predicate::eq("class", "GALAXY").and(Predicate::lt("ra", 185.0)),
            Predicate::True,
            Predicate::False,
            Predicate::eq("class", "QSO").or(Predicate::eq("class", "STAR")),
        ] {
            let c = compiled(&p, &t);
            let (count, _) = c.count_matches(&t).unwrap();
            assert_eq!(count, select_serial(&c, &t).unwrap().len(), "predicate {p}");
        }
    }

    #[test]
    fn fused_moments_match_compute_aggregate() {
        let t = test_table();
        let p = Predicate::between("ra", 175.0, 200.0);
        let c = compiled(&p, &t);
        let sel = p.evaluate(&t).unwrap();
        let (sketch, _) = c.filter_moments(&t, "r_mag").unwrap();
        for kind in [
            AggregateKind::Count,
            AggregateKind::Sum,
            AggregateKind::Avg,
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Variance,
        ] {
            let column = if kind == AggregateKind::Count {
                None
            } else {
                Some("r_mag")
            };
            let exact = compute_aggregate(&t, column, kind, &sel).unwrap();
            assert_eq!(exact.value, sketch.aggregate(kind), "kind {kind}");
        }
    }

    #[test]
    fn fused_moments_reject_string_columns() {
        let t = test_table();
        let c = compiled(&Predicate::True, &t);
        assert!(matches!(
            c.filter_moments(&t, "class"),
            Err(ColumnarError::NotNumeric(_))
        ));
    }

    #[test]
    fn conjunction_refinement_visits_fewer_rows() {
        let t = test_table();
        let p = Predicate::between("ra", 175.0, 191.0).and(Predicate::eq("class", "GALAXY"));
        let c = compiled(&p, &t);
        let (sel, stats) = select(&c, &t, None).unwrap();
        assert_eq!(sel.rows(), &[0, 2]);
        // first pass visits all 5 rows, second only the 3 candidates
        assert_eq!(stats.rows_visited, 8);
    }

    #[test]
    fn schema_mismatch_rejected_at_evaluation() {
        let t = test_table();
        let other_schema = Schema::shared(vec![Field::new("x", DataType::Int64)]).unwrap();
        let other = Table::new("other", other_schema);
        let c = compiled(&Predicate::True, &t);
        assert!(select_serial(&c, &other).is_err());
        assert!(c.matches_schema(t.schema()));
        assert!(!c.matches_schema(other.schema()));
    }

    #[test]
    fn partitioned_paths_match_single_threaded_bitwise() {
        let t = test_table();
        let predicates = vec![
            Predicate::True,
            Predicate::False,
            Predicate::between("ra", 175.0, 191.0),
            Predicate::eq("class", "GALAXY").and(Predicate::lt("ra", 195.0)),
            Predicate::eq("class", "QSO").or(Predicate::eq("class", "STAR")),
            Predicate::eq("class", "GALAXY").negate(),
            Predicate::IsNull("r_mag".into()),
        ];
        for p in predicates {
            let c = compiled(&p, &t);
            let (single, single_stats) = select(&c, &t, None).unwrap();
            let (single_count, single_count_stats) = c.count_matches(&t).unwrap();
            let (single_sketch, single_moment_stats) = c.filter_moments(&t, "r_mag").unwrap();
            for shards in [1usize, 2, 3, 5, 9] {
                let parts = Partitioning::even(t.row_count(), shards);
                let (sel, stats) = select(&c, &t, Some(&parts)).unwrap();
                assert_eq!(sel, single, "selection for {p} at {shards} shards");
                assert_eq!(
                    stats.rows_visited, single_stats.rows_visited,
                    "selection stats for {p} at {shards} shards"
                );
                let (count, count_stats) = c.count_matches_partitioned(&t, &parts).unwrap();
                assert_eq!(count, single_count, "count for {p} at {shards} shards");
                assert_eq!(
                    count_stats.iter().map(|s| s.rows_visited).sum::<u64>(),
                    single_count_stats.rows_visited,
                    "count stats for {p} at {shards} shards"
                );
                let (sketch, moment_stats) =
                    c.filter_moments_partitioned(&t, "r_mag", &parts).unwrap();
                // bit-identity, not just numeric equality
                assert_eq!(sketch.matched, single_sketch.matched);
                assert_eq!(sketch.count, single_sketch.count);
                assert_eq!(sketch.sum.to_bits(), single_sketch.sum.to_bits());
                assert_eq!(sketch.sum_sq.to_bits(), single_sketch.sum_sq.to_bits());
                assert_eq!(sketch.mean.to_bits(), single_sketch.mean.to_bits());
                assert_eq!(sketch.m2.to_bits(), single_sketch.m2.to_bits());
                assert_eq!(sketch.min.to_bits(), single_sketch.min.to_bits());
                assert_eq!(sketch.max.to_bits(), single_sketch.max.to_bits());
                assert_eq!(
                    moment_stats.iter().map(|s| s.rows_visited).sum::<u64>(),
                    single_moment_stats.rows_visited,
                    "moment stats for {p} at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn partitioned_errors_are_deterministic() {
        let t = test_table();
        // NaN constant errors on every shard with a valid row; the lowest
        // shard's error wins, matching the single-threaded error
        let p = Predicate::gt("ra", f64::NAN);
        let c = compiled(&p, &t);
        let parts = Partitioning::even(t.row_count(), 3);
        assert!(matches!(
            select(&c, &t, Some(&parts)),
            Err(ColumnarError::TypeMismatch { .. })
        ));
        assert!(c.count_matches_partitioned(&t, &parts).is_err());
        assert!(c.filter_moments_partitioned(&t, "r_mag", &parts).is_err());
    }

    #[test]
    fn partitioning_must_cover_the_table() {
        let t = test_table();
        let c = compiled(&Predicate::True, &t);
        let bad = Partitioning::even(t.row_count() + 1, 2);
        assert!(matches!(
            select(&c, &t, Some(&bad)),
            Err(ColumnarError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn partitioned_scan_on_empty_table() {
        let schema = Schema::shared(vec![Field::nullable("x", DataType::Float64)]).unwrap();
        let t = Table::new("t", schema);
        let c = CompiledPredicate::compile(&Predicate::lt("x", 1.0), t.schema()).unwrap();
        let parts = Partitioning::even(0, 4);
        let (sel, _) = select(&c, &t, Some(&parts)).unwrap();
        assert!(sel.is_empty());
        let (count, _) = c.count_matches_partitioned(&t, &parts).unwrap();
        assert_eq!(count, 0);
    }

    /// The selection-walk oracle for the weighted kernels: push every
    /// selected row into a sketch in row order.
    fn weighted_oracle(
        table: &Table,
        column: Option<&str>,
        sel: &SelectionVector,
        probabilities: &[f64],
    ) -> WeightedMomentSketch {
        let mut sketch = WeightedMomentSketch::new();
        for row in sel.iter() {
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

    fn assert_sketch_bits(a: &WeightedMomentSketch, b: &WeightedMomentSketch, context: &str) {
        assert_eq!(a.matched, b.matched, "matched: {context}");
        assert_eq!(a.count, b.count, "count: {context}");
        for (name, x, y) in [
            ("sum_vp", a.sum_vp, b.sum_vp),
            ("sum_inv_p", a.sum_inv_p, b.sum_inv_p),
            ("shift_vp", a.shift_vp, b.shift_vp),
            ("shift_inv_p", a.shift_inv_p, b.shift_inv_p),
            ("sum_dvp", a.sum_dvp, b.sum_dvp),
            ("sum_dvp_sq", a.sum_dvp_sq, b.sum_dvp_sq),
            ("sum_dinv_p", a.sum_dinv_p, b.sum_dinv_p),
            ("sum_dinv_p_sq", a.sum_dinv_p_sq, b.sum_dinv_p_sq),
            ("sum_dvp_dinv_p", a.sum_dvp_dinv_p, b.sum_dvp_dinv_p),
            ("min_p", a.min_p, b.min_p),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}: {context}");
        }
    }

    /// Stream `c`'s matches over `t` into a weighted sink through a one-item
    /// [`multi_scan`] — the one road weighted sinks take to the kernels.
    fn weighted_scan(
        c: &CompiledPredicate,
        t: &Table,
        column: Option<&str>,
        probabilities: &[f64],
        parts: Option<&Partitioning>,
    ) -> Result<(WeightedMomentSketch, ScanStats)> {
        let mut sink = match column {
            None => WeightedMomentSink::counting(probabilities),
            Some(name) => WeightedMomentSink::new(numeric_source(t, name)?, probabilities),
        };
        let mut items = [MultiScanItem {
            predicate: c,
            sink: &mut sink,
        }];
        let stats = multi_scan(t, &mut items, parts).remove(0)?;
        Ok((sink.sketch, stats))
    }

    #[test]
    fn weighted_kernels_match_selection_walk_bitwise() {
        let t = test_table();
        let probabilities: Vec<f64> = (0..t.row_count())
            .map(|i| 0.001 * (1.0 + i as f64))
            .collect();
        let predicates = vec![
            Predicate::True,
            Predicate::False,
            Predicate::between("ra", 175.0, 191.0),
            Predicate::eq("class", "GALAXY").and(Predicate::lt("ra", 195.0)),
            Predicate::eq("class", "QSO").or(Predicate::eq("class", "STAR")),
            Predicate::IsNull("r_mag".into()),
        ];
        for p in predicates {
            let c = compiled(&p, &t);
            let sel = p.evaluate(&t).unwrap();
            let (count_sketch, _) = weighted_scan(&c, &t, None, &probabilities, None).unwrap();
            assert_sketch_bits(
                &count_sketch,
                &weighted_oracle(&t, None, &sel, &probabilities),
                &format!("weighted count for {p}"),
            );
            let (agg_sketch, _) =
                weighted_scan(&c, &t, Some("r_mag"), &probabilities, None).unwrap();
            assert_sketch_bits(
                &agg_sketch,
                &weighted_oracle(&t, Some("r_mag"), &sel, &probabilities),
                &format!("weighted moments for {p}"),
            );
            for shards in [1usize, 2, 3, 7] {
                let parts = Partitioning::even(t.row_count(), shards);
                let (sharded, _) =
                    weighted_scan(&c, &t, None, &probabilities, Some(&parts)).unwrap();
                assert_sketch_bits(
                    &sharded,
                    &count_sketch,
                    &format!("sharded weighted count for {p} at {shards}"),
                );
                let (sharded, _) =
                    weighted_scan(&c, &t, Some("r_mag"), &probabilities, Some(&parts)).unwrap();
                assert_sketch_bits(
                    &sharded,
                    &agg_sketch,
                    &format!("sharded weighted moments for {p} at {shards}"),
                );
            }
        }
    }

    #[test]
    fn weighted_kernels_validate_inputs() {
        let t = test_table();
        let c = compiled(&Predicate::True, &t);
        let probs = vec![0.1; t.row_count()];
        // weighted moments need a numeric aggregation column …
        assert!(matches!(
            weighted_scan(&c, &t, Some("class"), &probs, None),
            Err(ColumnarError::NotNumeric(_))
        ));
        // … and a partitioning that covers the scanned table
        let bad = Partitioning::even(t.row_count() + 1, 2);
        assert!(matches!(
            weighted_scan(&c, &t, Some("r_mag"), &probs, Some(&bad)),
            Err(ColumnarError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn multi_scan_matches_serial_fused_paths_bitwise() {
        let t = test_table();
        let probabilities: Vec<f64> = (0..t.row_count())
            .map(|i| 0.001 * (1.0 + i as f64))
            .collect();
        let p_range = Predicate::between("ra", 175.0, 191.0);
        let p_conj = Predicate::eq("class", "GALAXY").and(Predicate::lt("ra", 195.0));
        let p_disj = Predicate::eq("class", "QSO").or(Predicate::eq("class", "STAR"));
        let c_range = compiled(&p_range, &t);
        let c_conj = compiled(&p_conj, &t);
        let c_disj = compiled(&p_disj, &t);

        let (serial_count, serial_count_stats) = c_range.count_matches(&t).unwrap();
        let (serial_moments, serial_moment_stats) = c_conj.filter_moments(&t, "r_mag").unwrap();
        let (_, serial_disj_stats) = c_disj.count_matches(&t).unwrap();
        let serial_weighted = weighted_oracle(
            &t,
            Some("r_mag"),
            &p_disj.evaluate(&t).unwrap(),
            &probabilities,
        );

        for parts in [
            None,
            Some(Partitioning::even(t.row_count(), 1)),
            Some(Partitioning::even(t.row_count(), 2)),
            Some(Partitioning::even(t.row_count(), 3)),
        ] {
            let mut count = CountSink::default();
            let mut moments = MomentSink::new(numeric_source(&t, "r_mag").unwrap());
            let mut weighted =
                WeightedMomentSink::new(numeric_source(&t, "r_mag").unwrap(), &probabilities);
            let mut items = [
                MultiScanItem {
                    predicate: &c_range,
                    sink: &mut count,
                },
                MultiScanItem {
                    predicate: &c_conj,
                    sink: &mut moments,
                },
                MultiScanItem {
                    predicate: &c_disj,
                    sink: &mut weighted,
                },
            ];
            let results = multi_scan(&t, &mut items, parts.as_ref());
            let stats: Vec<ScanStats> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(count.0, serial_count);
            assert_eq!(stats[0], serial_count_stats);
            assert_eq!(moments.sketch, serial_moments);
            assert_eq!(stats[1], serial_moment_stats);
            assert_eq!(stats[2], serial_disj_stats);
            assert_sketch_bits(
                &weighted.sketch,
                &serial_weighted,
                &format!("multi_scan weighted at {parts:?}"),
            );
        }
    }

    #[test]
    fn multi_scan_isolates_per_item_errors() {
        let t = test_table();
        let good = compiled(&Predicate::gt("ra", 175.0), &t);
        let bad = compiled(&Predicate::gt("ra", f64::NAN), &t);
        let (serial_count, _) = good.count_matches(&t).unwrap();
        for parts in [None, Some(Partitioning::even(t.row_count(), 3))] {
            let mut ok_sink = CountSink::default();
            let mut bad_sink = CountSink::default();
            let mut items = [
                MultiScanItem {
                    predicate: &bad,
                    sink: &mut bad_sink,
                },
                MultiScanItem {
                    predicate: &good,
                    sink: &mut ok_sink,
                },
            ];
            let results = multi_scan(&t, &mut items, parts.as_ref());
            assert!(matches!(
                results[0],
                Err(ColumnarError::TypeMismatch { .. })
            ));
            assert!(results[1].is_ok());
            assert_eq!(ok_sink.0, serial_count);
        }
    }

    #[test]
    fn multi_scan_rejects_schema_and_partitioning_mismatches() {
        let t = test_table();
        let other_schema = Schema::shared(vec![Field::new("x", DataType::Int64)]).unwrap();
        let other = Table::new("other", other_schema);
        let foreign = CompiledPredicate::compile(&Predicate::True, other.schema()).unwrap();
        let local = compiled(&Predicate::True, &t);
        let mut foreign_sink = CountSink::default();
        let mut local_sink = CountSink::default();
        let mut items = [
            MultiScanItem {
                predicate: &foreign,
                sink: &mut foreign_sink,
            },
            MultiScanItem {
                predicate: &local,
                sink: &mut local_sink,
            },
        ];
        let results = multi_scan(&t, &mut items, None);
        assert!(matches!(results[0], Err(ColumnarError::SchemaMismatch(_))));
        assert!(results[1].is_ok());
        assert_eq!(local_sink.0, t.row_count());

        let bad_parts = Partitioning::even(t.row_count() + 1, 2);
        let mut sink = CountSink::default();
        let mut items = [MultiScanItem {
            predicate: &local,
            sink: &mut sink,
        }];
        let results = multi_scan(&t, &mut items, Some(&bad_parts));
        assert!(matches!(
            results[0],
            Err(ColumnarError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn multi_scan_on_empty_batch_and_empty_table() {
        let t = test_table();
        assert!(multi_scan(&t, &mut [], None).is_empty());
        let schema = Schema::shared(vec![Field::nullable("x", DataType::Float64)]).unwrap();
        let empty = Table::new("t", schema);
        let c = CompiledPredicate::compile(&Predicate::lt("x", 1.0), empty.schema()).unwrap();
        let mut sink = CountSink::default();
        let mut items = [MultiScanItem {
            predicate: &c,
            sink: &mut sink,
        }];
        let results = multi_scan(&empty, &mut items, Some(&Partitioning::even(0, 4)));
        assert!(results[0].is_ok());
        assert_eq!(sink.0, 0);
    }

    #[test]
    fn not_within_candidates() {
        let t = test_table();
        let p =
            Predicate::between("ra", 175.0, 191.0).and(Predicate::eq("class", "GALAXY").negate());
        let oracle = p.evaluate(&t).unwrap();
        let fast = select_serial(&compiled(&p, &t), &t).unwrap();
        assert_eq!(oracle, fast);
        assert_eq!(fast.rows(), &[1]);
    }
}
