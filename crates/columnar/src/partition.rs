//! Horizontal partitionings of a table into contiguous row-range shards.
//!
//! The sharded scan path splits a table into contiguous, non-overlapping row
//! ranges that together cover `0..row_count`. Each shard is scanned by its
//! own worker through the same compiled-predicate kernels (restricted via
//! [`crate::ScanDomain::Range`]) into a [`crate::MatchMask`], and the calling
//! thread emits the masks into the sinks word by word in ascending shard
//! order. Because the shards are contiguous and emitted in a fixed order, the
//! matches arrive in global row order and the sharded pipeline reproduces
//! the single-threaded pipeline **bit for bit** — see
//! [`crate::CompiledPredicate::filter_moments_partitioned`].
//!
//! Row indices stay *absolute* throughout: a shard scans `values[start..end]`
//! positions of the shared column vectors, and its mask words are aligned to
//! absolute 64-row chunks of the shared validity bitmap, so no per-shard
//! copies, bitmap re-slicing or rebasing is needed. Shard boundaries need not
//! fall on a word boundary: where two shards share a word, the lower shard
//! emits its low bits and the next shard its high bits, at the same base.

use std::ops::Range;

/// A partitioning of `0..row_count` into contiguous row ranges.
///
/// Invariants (enforced by the constructors): ranges are ascending, adjacent
/// and cover the row count exactly. [`Partitioning::even`] additionally
/// guarantees every shard of a non-empty table holds at least one row;
/// [`Partitioning::from_bounds`] may contain empty shards (they scan zero
/// rows, which is harmless). An empty table yields a single empty shard so
/// callers can always iterate at least once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// Shard boundaries: shard `i` covers `bounds[i]..bounds[i + 1]`.
    bounds: Vec<usize>,
}

impl Partitioning {
    /// Split `row_count` rows into (up to) `shards` near-equal contiguous
    /// ranges. The first `row_count % shards` shards hold one extra row, so
    /// shard sizes differ by at most one. Requesting more shards than rows
    /// clamps to one row per shard; `shards == 0` is treated as 1.
    pub fn even(row_count: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(row_count.max(1));
        let base = row_count / shards;
        let extra = row_count % shards;
        let mut bounds = Vec::with_capacity(shards + 1);
        let mut at = 0;
        bounds.push(at);
        for i in 0..shards {
            at += base + usize::from(i < extra);
            bounds.push(at);
        }
        Partitioning { bounds }
    }

    /// A single shard covering the whole table (the trivial partitioning).
    pub fn single(row_count: usize) -> Self {
        Partitioning {
            bounds: vec![0, row_count],
        }
    }

    /// Build from explicit shard boundaries starting at 0; each consecutive
    /// pair must be non-decreasing. Mostly useful for tests and for aligning
    /// shards with externally meaningful boundaries (e.g. load batches).
    ///
    /// Returns `None` when the boundaries are not ascending-from-zero.
    pub fn from_bounds(bounds: Vec<usize>) -> Option<Self> {
        if bounds.first() != Some(&0) || bounds.len() < 2 {
            return None;
        }
        if bounds.windows(2).any(|w| w[1] < w[0]) {
            return None;
        }
        Some(Partitioning { bounds })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total rows covered by the partitioning.
    pub fn row_count(&self) -> usize {
        *self.bounds.last().expect("bounds never empty")
    }

    /// The half-open row range of shard `i`.
    ///
    /// Panics when `i >= shard_count()`.
    pub fn range(&self, i: usize) -> Range<usize> {
        self.bounds[i]..self.bounds[i + 1]
    }

    /// Iterate the shard ranges in ascending order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.bounds.windows(2).map(|w| w[0]..w[1])
    }

    /// Whether this partitioning is a single shard (no fan-out).
    pub fn is_single(&self) -> bool {
        self.shard_count() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_covers_all_rows_contiguously() {
        for rows in [0usize, 1, 7, 64, 100_001] {
            for shards in [1usize, 2, 3, 4, 8, 200] {
                let p = Partitioning::even(rows, shards);
                assert_eq!(p.row_count(), rows, "{rows} rows / {shards} shards");
                let mut expect_start = 0;
                for r in p.ranges() {
                    assert_eq!(r.start, expect_start);
                    assert!(r.end >= r.start);
                    expect_start = r.end;
                }
                assert_eq!(expect_start, rows);
                // near-equal: sizes differ by at most one
                let sizes: Vec<usize> = p.ranges().map(|r| r.len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "uneven split {sizes:?}");
            }
        }
    }

    #[test]
    fn more_shards_than_rows_clamps() {
        let p = Partitioning::even(3, 8);
        assert_eq!(p.shard_count(), 3);
        assert!(p.ranges().all(|r| r.len() == 1));
    }

    #[test]
    fn zero_rows_and_zero_shards_are_safe() {
        let p = Partitioning::even(0, 0);
        assert_eq!(p.shard_count(), 1);
        assert_eq!(p.row_count(), 0);
        assert!(p.is_single());
        let p = Partitioning::even(10, 0);
        assert_eq!(p.shard_count(), 1);
        assert_eq!(p.range(0), 0..10);
    }

    #[test]
    fn single_is_one_full_range() {
        let p = Partitioning::single(42);
        assert!(p.is_single());
        assert_eq!(p.range(0), 0..42);
    }

    #[test]
    fn from_bounds_validates() {
        assert!(Partitioning::from_bounds(vec![0, 5, 10]).is_some());
        assert!(Partitioning::from_bounds(vec![0, 5, 3]).is_none());
        assert!(Partitioning::from_bounds(vec![1, 5]).is_none());
        assert!(Partitioning::from_bounds(vec![0]).is_none());
        let p = Partitioning::from_bounds(vec![0, 0, 4]).unwrap();
        assert_eq!(p.range(0), 0..0);
        assert_eq!(p.range(1), 0..4);
    }
}
