//! Selection vectors: ordered lists of qualifying row positions.
//!
//! Column-at-a-time execution in the style of MonetDB materialises the result
//! of each predicate as a list of row ids (a "candidate list"). Subsequent
//! operators (further predicates, aggregates, projections) consume the list.
//! This is the intermediate representation the SciBORQ bounded-query engine
//! re-optimises over when it escalates to a more detailed impression.

use serde::{Deserialize, Serialize};

/// An ordered set of selected row positions within a table or impression.
///
/// Positions are kept sorted and unique, which makes intersection/union
/// linear and keeps scans cache-friendly.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionVector {
    rows: Vec<usize>,
}

impl SelectionVector {
    /// An empty selection.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A selection covering all rows `0..len`.
    pub fn all(len: usize) -> Self {
        SelectionVector {
            rows: (0..len).collect(),
        }
    }

    /// Build a selection from arbitrary row ids; the ids are sorted and
    /// deduplicated.
    pub fn from_rows(mut rows: Vec<usize>) -> Self {
        rows.sort_unstable();
        rows.dedup();
        SelectionVector { rows }
    }

    /// Build a selection from row ids already known to be sorted and unique.
    ///
    /// Debug builds verify the invariant.
    pub fn from_sorted_rows(rows: Vec<usize>) -> Self {
        debug_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "rows must be sorted+unique"
        );
        SelectionVector { rows }
    }

    /// The selected row ids, ascending.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether the given row is in the selection.
    pub fn contains(&self, row: usize) -> bool {
        self.rows.binary_search(&row).is_ok()
    }

    /// Append a row id that is larger than every id currently present.
    ///
    /// Panics in debug builds if ordering would be violated.
    pub fn push(&mut self, row: usize) {
        debug_assert!(self.rows.last().is_none_or(|&last| last < row));
        self.rows.push(row);
    }

    /// Intersect with another selection (logical AND of predicates).
    pub fn intersect(&self, other: &SelectionVector) -> SelectionVector {
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.rows.len() && j < other.rows.len() {
            match self.rows[i].cmp(&other.rows[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.rows[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        SelectionVector { rows: out }
    }

    /// Union with another selection (logical OR of predicates).
    pub fn union(&self, other: &SelectionVector) -> SelectionVector {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.rows.len() && j < other.rows.len() {
            match self.rows[i].cmp(&other.rows[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.rows[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.rows[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.rows[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.rows[i..]);
        out.extend_from_slice(&other.rows[j..]);
        SelectionVector { rows: out }
    }

    /// Complement with respect to a table of `len` rows (logical NOT).
    pub fn complement(&self, len: usize) -> SelectionVector {
        let mut out = Vec::with_capacity(len.saturating_sub(self.len()));
        let mut iter = self.rows.iter().peekable();
        for row in 0..len {
            match iter.peek() {
                Some(&&next) if next == row => {
                    iter.next();
                }
                _ => out.push(row),
            }
        }
        SelectionVector { rows: out }
    }

    /// Selectivity of this selection relative to a table of `len` rows.
    ///
    /// Returns 0 for an empty table.
    pub fn selectivity(&self, len: usize) -> f64 {
        if len == 0 {
            0.0
        } else {
            self.rows.len() as f64 / len as f64
        }
    }

    /// Iterate over the selected rows.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.iter().copied()
    }
}

impl FromIterator<usize> for SelectionVector {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        SelectionVector::from_rows(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_empty() {
        let all = SelectionVector::all(5);
        assert_eq!(all.rows(), &[0, 1, 2, 3, 4]);
        assert_eq!(all.len(), 5);
        let empty = SelectionVector::empty();
        assert!(empty.is_empty());
        assert_eq!(empty.selectivity(10), 0.0);
    }

    #[test]
    fn from_rows_sorts_and_dedups() {
        let sv = SelectionVector::from_rows(vec![5, 1, 3, 1, 5]);
        assert_eq!(sv.rows(), &[1, 3, 5]);
    }

    #[test]
    fn contains_uses_binary_search() {
        let sv = SelectionVector::from_rows(vec![2, 4, 8]);
        assert!(sv.contains(4));
        assert!(!sv.contains(5));
    }

    #[test]
    fn intersect_basic() {
        let a = SelectionVector::from_rows(vec![1, 2, 3, 5, 8]);
        let b = SelectionVector::from_rows(vec![2, 3, 4, 8, 9]);
        assert_eq!(a.intersect(&b).rows(), &[2, 3, 8]);
        assert_eq!(b.intersect(&a).rows(), &[2, 3, 8]);
    }

    #[test]
    fn intersect_with_empty_is_empty() {
        let a = SelectionVector::from_rows(vec![1, 2]);
        assert!(a.intersect(&SelectionVector::empty()).is_empty());
    }

    #[test]
    fn union_basic() {
        let a = SelectionVector::from_rows(vec![1, 3, 5]);
        let b = SelectionVector::from_rows(vec![2, 3, 6]);
        assert_eq!(a.union(&b).rows(), &[1, 2, 3, 5, 6]);
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = SelectionVector::from_rows(vec![1, 3]);
        assert_eq!(a.union(&SelectionVector::empty()).rows(), a.rows());
    }

    #[test]
    fn complement_covers_remaining_rows() {
        let a = SelectionVector::from_rows(vec![0, 2, 4]);
        assert_eq!(a.complement(6).rows(), &[1, 3, 5]);
        assert_eq!(SelectionVector::empty().complement(3).rows(), &[0, 1, 2]);
        assert!(SelectionVector::all(3).complement(3).is_empty());
    }

    #[test]
    fn intersection_distributes_over_union() {
        // (A ∪ B) ∩ C == (A ∩ C) ∪ (B ∩ C)
        let a = SelectionVector::from_rows(vec![1, 2, 3]);
        let b = SelectionVector::from_rows(vec![3, 4, 5]);
        let c = SelectionVector::from_rows(vec![2, 3, 4]);
        assert_eq!(
            a.union(&b).intersect(&c),
            a.intersect(&c).union(&b.intersect(&c))
        );
    }

    #[test]
    fn selectivity() {
        let a = SelectionVector::from_rows(vec![0, 1]);
        assert!((a.selectivity(8) - 0.25).abs() < 1e-12);
        assert_eq!(a.selectivity(0), 0.0);
    }

    #[test]
    fn push_in_order_and_iter() {
        let mut sv = SelectionVector::empty();
        sv.push(1);
        sv.push(4);
        assert_eq!(sv.iter().collect::<Vec<_>>(), vec![1, 4]);
    }

    #[test]
    fn from_iterator() {
        let sv: SelectionVector = [4usize, 2, 2, 0].into_iter().collect();
        assert_eq!(sv.rows(), &[0, 2, 4]);
    }
}
