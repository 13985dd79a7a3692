//! # sciborq-columnar
//!
//! An in-memory, append-optimised column store: the storage substrate of the
//! SciBORQ reproduction.
//!
//! The SciBORQ paper (CIDR 2011) assumes a read-optimised column store
//! (MonetDB) underneath its impression framework. This crate provides the
//! minimal but faithful equivalent of the pieces SciBORQ relies on:
//!
//! * typed columns with null bitmaps ([`Column`]),
//! * schemas and append-only tables with batch-wise incremental loads
//!   ([`Schema`], [`Table`], [`RecordBatch`]),
//! * scalar, selection-vector evaluation of predicates ([`Predicate`],
//!   [`SelectionVector`]) — the oracle every fast path is tested against,
//! * a compile-once vectorized execution pipeline: predicates bound to
//!   column indices with constants pre-widened ([`CompiledPredicate`]),
//!   running typed tight-loop kernels over the raw column vectors
//!   ([`kernels`]), including fused filter+aggregate scans that stream
//!   matching rows into moment accumulators ([`MomentSketch`]) without
//!   materialising a selection,
//! * chunked bitmask execution: predicates evaluate 64-row chunks into
//!   `u64` match masks ([`MatchMask`]) ANDed word-at-a-time against the
//!   validity bitmaps, with conjunction refinement as wordwise
//!   intersection, plus dictionary-encoded Utf8 columns
//!   ([`Column::Utf8Dict`]) whose string predicates collapse into integer
//!   code ranges ([`DictPred`]),
//! * a sharded parallel scan path: contiguous row-range partitionings
//!   ([`Partitioning`]) fanned out by one scoped-thread helper; each shard
//!   returns its match mask and the calling thread folds the masks word by
//!   word in ascending shard order, so sharded execution is bit-identical
//!   to the single-threaded kernels,
//! * a shared multi-query scan that evaluates N compiled predicates per row
//!   batch and routes matches into N independent sinks ([`multi_scan`]) —
//!   the aggregate engine's one scan entry point (a single query is a batch
//!   of one), serial or sharded, with the same bit-identity guarantee per
//!   query,
//! * exact aggregates and grouped aggregates ([`compute_aggregate`]),
//! * FK hash joins between fact and dimension tables ([`hash_join_index`]),
//! * a concurrent catalog of named tables ([`Catalog`]).
//!
//! All higher layers — sampling, impressions, bounded query processing — are
//! built on these primitives.
//!
//! ## Example
//!
//! ```
//! use sciborq_columnar::{Schema, Field, DataType, Table, Predicate, SelectionVector};
//!
//! let schema = Schema::shared(vec![
//!     Field::new("objid", DataType::Int64),
//!     Field::new("ra", DataType::Float64),
//! ]).unwrap();
//! let mut table = Table::new("photoobj", schema);
//! table.append_row(&[1i64.into(), 185.2f64.into()]).unwrap();
//! table.append_row(&[2i64.into(), 190.7f64.into()]).unwrap();
//!
//! let sel = Predicate::between("ra", 184.0, 186.0).evaluate(&table).unwrap();
//! assert_eq!(sel.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod catalog;
pub mod column;
pub mod compiled;
pub mod error;
pub mod expr;
pub mod join;
pub mod kernels;
pub mod partition;
pub mod schema;
pub mod selection;
pub mod table;
pub mod value;

pub use aggregate::{compute_aggregate, compute_grouped_aggregate, AggregateKind, AggregateResult};
pub use catalog::Catalog;
pub use column::{Bitmap, Column};
pub use compiled::{
    multi_scan, numeric_source, CompiledPredicate, MultiScanItem, ScanStats, MULTI_SCAN_BATCH_ROWS,
};
pub use error::{ColumnarError, Result};
pub use expr::{CompareOp, Predicate};
pub use join::{hash_join_index, key_containment, materialize_join, JoinIndex, JoinType};
pub use kernels::{
    AggSource, CountSink, DictPred, MaskScan, MatchMask, MomentSink, MomentSketch, NumBound,
    ScanDomain, SelectionSink, WeightedMomentSink,
};
// Re-exported so the weighted scan kernels' accumulator can be consumed
// without a direct sciborq-stats dependency.
pub use partition::Partitioning;
pub use schema::{Field, Schema, SchemaRef};
pub use sciborq_stats::WeightedMomentSketch;
pub use selection::SelectionVector;
pub use table::{RecordBatch, RecordBatchBuilder, Table};
pub use value::{DataType, Value};
