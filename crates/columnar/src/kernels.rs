//! Typed tight-loop scan kernels.
//!
//! The vectorized execution pipeline compiles a [`crate::Predicate`] into a
//! [`crate::CompiledPredicate`] (column indices bound, constants type-widened
//! once) and then runs the kernels in this module over the raw column
//! vectors: `&[i64]`, `&[f64]`, `&[bool]`, `&[String]` plus their validity
//! bitmaps. No `Value` enum is materialised per row and strings are compared
//! by reference — the two per-row costs that dominate the scalar
//! `Predicate::evaluate` oracle.
//!
//! Every kernel refines a [`MatchMask`] — one `u64` of candidate bits per
//! 64-row chunk, word-aligned with the validity bitmaps — over a
//! [`ScanDomain`]: the whole column, or one contiguous shard or batch of it.
//! The surviving rows are emitted into a [`SelectionSink`], which is where
//! the *fused* execution comes from:
//!
//! * `Vec<usize>` materialises a selection vector (the classic path),
//! * [`CountSink`] just counts matches (fused COUNT),
//! * [`MomentSink`] streams the aggregated column's value of every matching
//!   row straight into a [`MomentSketch`] (fused filter+aggregate) — the
//!   selection is never materialised,
//! * [`WeightedMomentSink`] additionally expands every matching row by a
//!   caller-supplied single-draw selection probability, accumulating the
//!   Hansen–Hurwitz sufficient statistics of a
//!   [`WeightedMomentSketch`] (the streamed estimation path of biased
//!   impressions).
//!
//! ## The fused-aggregate contract
//!
//! A [`MomentSketch`] accumulates, in one pass and in row order:
//!
//! * `matched` — rows satisfying the predicate (COUNT(*) semantics: NULLs in
//!   the aggregated column still count),
//! * `count`, `sum`, `sum_sq` — non-NULL values seen, their running sum and
//!   sum of squares (the sufficient statistics of the SRS expansion
//!   estimators in `sciborq-stats`),
//! * `mean`, `m2` — Welford-style running mean and centred second moment
//!   (variance and t-interval inputs),
//! * `min`, `max` — running extremes.
//!
//! `sum`, `sum_sq`, `min` and `max` are accumulated with exactly the same
//! fold (same order, same operations) as the exact scalar
//! [`crate::compute_aggregate`], so COUNT/SUM/AVG/MIN/MAX results are
//! bit-identical between the fused and the scalar path; VARIANCE uses the
//! same Welford recurrence in both paths. `sciborq-stats` consumes the
//! sketch through `SrsEstimator::estimate_sum_parts` /
//! `estimate_avg_parts`, so estimates are built from the streamed
//! accumulators without re-walking any selection.
//!
//! NaN policy: a NaN *cell* encountered by a comparison kernel is an error
//! (the scalar oracle rejects unordered comparisons the same way); NaN
//! *constants* are detected at compile time and turned into an
//! "error-if-any-valid-row" node by `CompiledPredicate`.

// Indexing is not denied here: kernels are the designated tight-loop tier,
// every index is bounds-established by the chunking/word math immediately
// above it, and checked indexing would re-pay the bounds checks the kernel
// tier exists to amortise.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::column::Bitmap;
use crate::expr::CompareOp;
use sciborq_stats::WeightedMomentSketch;

/// Which rows a scan covers: the whole column, or a contiguous row range
/// (one shard of a [`crate::Partitioning`], or one batch of a shared
/// multi-query sweep).
#[derive(Debug, Clone, Copy)]
pub enum ScanDomain {
    /// Scan rows `0..len`.
    Full(usize),
    /// Scan the contiguous rows `start..end` (absolute positions). Row ids
    /// emitted from a range are absolute, so per-shard results concatenate
    /// without rebasing.
    Range {
        /// First row (inclusive).
        start: usize,
        /// One past the last row.
        end: usize,
    },
}

impl ScanDomain {
    /// The covered rows as a half-open `(start, end)` pair; an inverted
    /// range is empty.
    pub fn bounds(&self) -> (usize, usize) {
        match *self {
            ScanDomain::Full(len) => (0, len),
            ScanDomain::Range { start, end } => (start, end.max(start)),
        }
    }

    /// Number of rows the scan covers.
    pub fn len(&self) -> usize {
        let (start, end) = self.bounds();
        end - start
    }

    /// True when the domain holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Consumer of matching row ids. Implementations decide whether matches are
/// materialised (selection vector), counted, or folded into aggregates.
pub trait SelectionSink {
    /// Accept one matching row. Rows arrive in ascending order.
    fn accept(&mut self, row: usize);

    /// Accept every row marked in a 64-bit match mask whose bit `i`
    /// corresponds to row `base + i`. The default iterates set bits in
    /// ascending order through [`SelectionSink::accept`], preserving the
    /// row-order fold contract; sinks that don't care about individual rows
    /// (counting) override it with a popcount.
    #[inline]
    fn accept_word(&mut self, base: usize, mut word: u64) {
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            self.accept(base + bit);
            word &= word - 1;
        }
    }
}

impl SelectionSink for Vec<usize> {
    #[inline]
    fn accept(&mut self, row: usize) {
        self.push(row);
    }
}

// A mutable reference to a sink is itself a sink, which is what lets the
// shared multi-query scan drive heterogeneous `&mut dyn SelectionSink`
// slots through the generic kernels.
impl<S: SelectionSink + ?Sized> SelectionSink for &mut S {
    #[inline]
    fn accept(&mut self, row: usize) {
        (**self).accept(row);
    }

    #[inline]
    fn accept_word(&mut self, base: usize, word: u64) {
        (**self).accept_word(base, word);
    }
}

/// Sink that only counts matches (fused COUNT kernel).
#[derive(Debug, Default, Clone, Copy)]
pub struct CountSink(pub usize);

impl SelectionSink for CountSink {
    #[inline]
    fn accept(&mut self, _row: usize) {
        self.0 += 1;
    }

    #[inline]
    fn accept_word(&mut self, _base: usize, word: u64) {
        self.0 += word.count_ones() as usize;
    }
}

/// One-pass moment accumulator produced by the fused filter+aggregate
/// kernels. See the module docs for the exact contract.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct MomentSketch {
    /// Rows that satisfied the predicate (COUNT(*) semantics).
    pub matched: usize,
    /// Non-NULL aggregated values observed.
    pub count: usize,
    /// Running sum of the non-NULL values (same fold as the scalar path).
    pub sum: f64,
    /// Running sum of squares of the non-NULL values.
    pub sum_sq: f64,
    /// Welford running mean of the non-NULL values.
    pub mean: f64,
    /// Welford centred second moment (Σ (v − mean)²).
    pub m2: f64,
    /// Smallest non-NULL value (`+∞` when none).
    pub min: f64,
    /// Largest non-NULL value (`−∞` when none).
    pub max: f64,
}

impl MomentSketch {
    /// A fresh, empty sketch.
    pub fn new() -> Self {
        MomentSketch {
            matched: 0,
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record a matching row whose aggregated value is NULL (or for which no
    /// aggregate column is tracked).
    #[inline]
    pub fn push_null(&mut self) {
        self.matched += 1;
    }

    /// Record a matching row with a non-NULL aggregated value.
    #[inline]
    pub fn push(&mut self, value: f64) {
        self.matched += 1;
        self.count += 1;
        self.sum += value;
        self.sum_sq += value * value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The aggregate value this sketch yields for a given kind, following
    /// the same conventions as [`crate::compute_aggregate`]: COUNT counts
    /// matched rows, SUM over no values is 0, AVG/MIN/MAX/VAR over no values
    /// are undefined (`None`).
    pub fn aggregate(&self, kind: crate::aggregate::AggregateKind) -> Option<f64> {
        use crate::aggregate::AggregateKind::*;
        match kind {
            Count => Some(self.matched as f64),
            Sum => Some(self.sum),
            Avg => (self.count > 0).then(|| self.sum / self.count as f64),
            Min => (self.count > 0).then_some(self.min),
            Max => (self.count > 0).then_some(self.max),
            Variance => (self.count > 0).then(|| self.m2 / self.count as f64),
        }
    }

    /// Number of rows that participated in the value aggregates (the
    /// non-NULL count), mirroring `AggregateResult::rows`.
    pub fn value_rows(&self) -> usize {
        self.count
    }
}

/// Typed access to the column a [`MomentSink`] aggregates over.
#[derive(Debug, Clone, Copy)]
pub enum AggSource<'a> {
    /// Int64 column (values widened to `f64` on the fly).
    I64(&'a [i64], Option<&'a Bitmap>),
    /// Float64 column.
    F64(&'a [f64], Option<&'a Bitmap>),
}

impl AggSource<'_> {
    #[inline]
    fn get(&self, row: usize) -> Option<f64> {
        match self {
            AggSource::I64(values, validity) => match validity {
                Some(v) if !v.get(row) => None,
                _ => Some(values[row] as f64),
            },
            AggSource::F64(values, validity) => match validity {
                Some(v) if !v.get(row) => None,
                _ => Some(values[row]),
            },
        }
    }
}

/// Sink that folds matching rows' aggregated values into a
/// [`MomentSketch`] — the terminal stage of a fused filter+aggregate scan.
#[derive(Debug)]
pub struct MomentSink<'a> {
    source: AggSource<'a>,
    /// The accumulated moments.
    pub sketch: MomentSketch,
}

impl<'a> MomentSink<'a> {
    /// Create a sink reading aggregated values from `source`.
    pub fn new(source: AggSource<'a>) -> Self {
        MomentSink {
            source,
            sketch: MomentSketch::new(),
        }
    }
}

impl SelectionSink for MomentSink<'_> {
    #[inline]
    fn accept(&mut self, row: usize) {
        match self.source.get(row) {
            Some(v) => self.sketch.push(v),
            None => self.sketch.push_null(),
        }
    }
}

/// Sink that folds matching rows into a [`WeightedMomentSketch`] — the
/// terminal stage of a fused *weighted* scan, the streamed estimation path
/// of biased (Hansen–Hurwitz) impressions.
///
/// Each matching row `i` contributes its aggregated value (or `1.0` for the
/// counting sink) expanded by the caller-supplied single-draw selection
/// probability `probabilities[i]`, accumulated inside the typed tight loop
/// in row order — the same fold, operation for operation, as the slice-based
/// `WeightedEstimator`, so streamed estimates stay bit-identical to the
/// selection-based oracle. Rows whose aggregated value is NULL only bump the
/// sketch's `matched` count (their zero-extension contributes nothing).
#[derive(Debug)]
pub struct WeightedMomentSink<'a> {
    /// The aggregated column; `None` makes every matching row contribute
    /// `1.0` (the fused weighted COUNT).
    source: Option<AggSource<'a>>,
    /// Per-row single-draw selection probabilities, aligned with the table.
    probabilities: &'a [f64],
    /// The accumulated Hansen–Hurwitz sufficient statistics.
    pub sketch: WeightedMomentSketch,
}

impl<'a> WeightedMomentSink<'a> {
    /// A sink aggregating `source` values weighted by `probabilities`.
    pub fn new(source: AggSource<'a>, probabilities: &'a [f64]) -> Self {
        WeightedMomentSink {
            source: Some(source),
            probabilities,
            sketch: WeightedMomentSketch::new(),
        }
    }

    /// A counting sink: every matching row contributes value `1.0`.
    pub fn counting(probabilities: &'a [f64]) -> Self {
        WeightedMomentSink {
            source: None,
            probabilities,
            sketch: WeightedMomentSketch::new(),
        }
    }
}

impl SelectionSink for WeightedMomentSink<'_> {
    #[inline]
    fn accept(&mut self, row: usize) {
        let p = self.probabilities[row];
        match &self.source {
            None => self.sketch.push(1.0, p),
            Some(source) => match source.get(row) {
                Some(v) => self.sketch.push(v, p),
                None => self.sketch.push_null(),
            },
        }
    }
}

/// Marker error for a kernel pass that hit an unordered (NaN) comparison.
/// The compiled layer maps this onto `ColumnarError::TypeMismatch` with the
/// proper column name, mirroring the scalar oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnorderedComparison;

/// True when any row of the domain is valid (non-NULL). Used by the
/// "error on first non-NULL row" nodes that preserve the oracle's lazy
/// type-mismatch semantics.
pub fn any_valid(validity: Option<&Bitmap>, domain: ScanDomain) -> bool {
    let (start, end) = domain.bounds();
    match validity {
        None => start < end,
        Some(v) => (start..end).any(|row| v.get(row)),
    }
}

/// A compiled numeric range bound: comparisons against an Int64 column stay
/// exact 64-bit compares when the literal is an integer, and widen to `f64`
/// when it is a float (mirroring `Value::partial_cmp_value`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumBound {
    /// Exact integer bound.
    I64(i64),
    /// Floating-point bound.
    F64(f64),
}

impl NumBound {
    /// The bound widened to `f64` (used against Float64 columns).
    pub fn as_f64(&self) -> f64 {
        match self {
            NumBound::I64(v) => *v as f64,
            NumBound::F64(v) => *v,
        }
    }

    /// Whether the bound is a NaN float (unordered against everything).
    pub fn is_nan(&self) -> bool {
        matches!(self, NumBound::F64(v) if v.is_nan())
    }

    #[inline]
    fn le_i64_cell(&self, cell: i64) -> bool {
        // bound <= cell
        match self {
            NumBound::I64(b) => *b <= cell,
            NumBound::F64(b) => *b <= cell as f64,
        }
    }

    #[inline]
    fn ge_i64_cell(&self, cell: i64) -> bool {
        // bound >= cell
        match self {
            NumBound::I64(b) => *b >= cell,
            NumBound::F64(b) => *b >= cell as f64,
        }
    }
}

// ---------------------------------------------------------------------------
// Chunked bitmask kernels
// ---------------------------------------------------------------------------
//
// Instead of testing the validity bitmap one bit per row and emitting
// candidates one at a time, these kernels evaluate 64-row chunks with
// branchless loops that build a `u64` match mask per word, AND it
// word-at-a-time against the validity bitmap, and refine conjunctions by
// wordwise intersection. Matches reach the `SelectionSink`s through
// [`SelectionSink::accept_word`], which iterates set bits in ascending row
// order — so the fused-aggregate fold order (and therefore bit-identity with
// the scalar oracle) is preserved.

/// A chunked match mask over the contiguous row range `start..end`.
///
/// Word `k` covers the absolute rows `(start/64 + k) * 64 .. +64`: words are
/// aligned to absolute 64-row chunk boundaries, so a validity-bitmap word
/// ANDs against the corresponding mask word directly, with no bit shifting,
/// even when `start` is not a multiple of 64. Bits outside `start..end` are
/// always zero — [`MatchMask::coverage`] seeds exactly the bits of
/// `start..end`, head and tail words partially set — which is what makes
/// popcounts, intersections and emission correct for table lengths that are
/// not multiples of 64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchMask {
    start: usize,
    end: usize,
    words: Vec<u64>,
}

impl MatchMask {
    /// A mask with exactly the bits of `start..end` set (the "all rows of
    /// this shard are still candidates" seed of a scan).
    pub fn coverage(start: usize, end: usize) -> Self {
        let end = end.max(start);
        let first_word = start / 64;
        let nwords = end.div_ceil(64).saturating_sub(first_word);
        let mut words = vec![u64::MAX; nwords];
        if nwords > 0 {
            words[0] &= u64::MAX << (start % 64);
            let last = nwords - 1;
            words[last] &= Bitmap::tail_mask(end);
        }
        MatchMask { start, end, words }
    }

    /// First row of the covered range (inclusive).
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last row of the covered range.
    pub fn end(&self) -> usize {
        self.end
    }

    /// Index (into the column's bitmap words) of this mask's first word.
    pub fn first_word(&self) -> usize {
        self.start / 64
    }

    /// The raw mask words, aligned to absolute 64-row chunks.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits (candidate rows still alive).
    pub fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no candidate row survives.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Drop every candidate.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Wordwise intersection with `other` (same range); returns the
    /// surviving popcount. This is candidate-list refinement for
    /// conjunctions, one AND per 64 rows.
    pub fn and_with(&mut self, other: &MatchMask) -> usize {
        debug_assert_eq!((self.start, self.end), (other.start, other.end));
        let mut remaining = 0;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
            remaining += w.count_ones() as usize;
        }
        remaining
    }

    /// Wordwise union with `other` (same range) — the disjunction combiner.
    pub fn or_with(&mut self, other: &MatchMask) {
        debug_assert_eq!((self.start, self.end), (other.start, other.end));
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Wordwise `self &= !other` (same range) — the negation combiner.
    /// `other`'s bits outside its coverage are zero, so complementing it
    /// cannot resurrect rows outside `start..end`: `self`'s own bits there
    /// are zero too.
    pub fn and_not(&mut self, other: &MatchMask) -> usize {
        debug_assert_eq!((self.start, self.end), (other.start, other.end));
        let mut remaining = 0;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
            remaining += w.count_ones() as usize;
        }
        remaining
    }

    /// Emit every set bit into `sink`, in ascending row order (the fold
    /// contract downstream aggregates rely on).
    pub fn emit<S: SelectionSink + ?Sized>(&self, sink: &mut S) {
        let base0 = self.first_word() * 64;
        for (k, &w) in self.words.iter().enumerate() {
            if w != 0 {
                sink.accept_word(base0 + k * 64, w);
            }
        }
    }

    /// Materialise the set bits as a sorted row-id vector.
    pub fn to_rows(&self) -> Vec<usize> {
        let mut rows = Vec::new();
        self.emit(&mut rows);
        rows
    }
}

/// Outcome of one chunked refinement pass: how many candidate rows the
/// kernel logically tested (the rows-visited stats charge — popcount of the
/// incoming mask) and how many survived (popcount of the outgoing mask).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaskScan {
    /// Candidate rows tested (incoming popcount).
    pub visited: usize,
    /// Candidate rows that matched (outgoing popcount).
    pub remaining: usize,
}

/// The generic chunked refinement driver: for every nonzero candidate word,
/// pre-AND the validity word, ask `f(base_row, valid_candidates)` for the
/// 64-lane value mask, and keep `candidates & validity & value_mask`.
/// Zero candidate words are skipped entirely — that is the wordwise
/// short-circuit that replaces candidate lists.
fn refine_mask<F>(
    mask: &mut MatchMask,
    validity: Option<&Bitmap>,
    mut f: F,
) -> Result<MaskScan, UnorderedComparison>
where
    F: FnMut(usize, u64) -> Result<u64, UnorderedComparison>,
{
    let first_word = mask.first_word();
    let mut scan = MaskScan::default();
    for (k, slot) in mask.words.iter_mut().enumerate() {
        let cand = *slot;
        if cand == 0 {
            continue;
        }
        scan.visited += cand.count_ones() as usize;
        let vword = match validity {
            Some(v) => v.words().get(first_word + k).copied().unwrap_or(0),
            None => u64::MAX,
        };
        let valid_cand = cand & vword;
        let kept = if valid_cand == 0 {
            0
        } else {
            valid_cand & f((first_word + k) * 64, valid_cand)?
        };
        *slot = kept;
        scan.remaining += kept.count_ones() as usize;
    }
    Ok(scan)
}

/// Build the 64-lane value mask for the chunk starting at `base`: bit `i` is
/// `test(values[base + i])`. The full-chunk case goes through a fixed-length
/// `[T; 64]` view so the loop trip count is a compile-time constant — the
/// shape LLVM turns into branchless vector compares; the tail chunk of a
/// length that is not a multiple of 64 takes the variable-length loop and
/// leaves the out-of-range lanes zero.
#[inline]
fn value_word<T: Copy>(values: &[T], base: usize, test: impl Fn(T) -> bool) -> u64 {
    let end = (base + 64).min(values.len());
    let mut word = 0u64;
    if let Ok(chunk) = <&[T; 64]>::try_from(&values[base..end]) {
        for (i, &v) in chunk.iter().enumerate() {
            word |= (test(v) as u64) << i;
        }
    } else {
        for (i, &v) in values[base..end].iter().enumerate() {
            word |= (test(v) as u64) << i;
        }
    }
    word
}

/// `value_word` for Float64 chunks, additionally reporting a NaN lane mask
/// so the caller can reject unordered comparisons only when a NaN cell is an
/// actual (valid, candidate) row — matching the scalar oracle, which never
/// looks at rows outside the domain.
#[inline]
fn value_word_f64(values: &[f64], base: usize, test: impl Fn(f64) -> bool) -> (u64, u64) {
    let end = (base + 64).min(values.len());
    let mut word = 0u64;
    let mut nan = 0u64;
    if let Ok(chunk) = <&[f64; 64]>::try_from(&values[base..end]) {
        for (i, &v) in chunk.iter().enumerate() {
            word |= (test(v) as u64) << i;
            nan |= (v.is_nan() as u64) << i;
        }
    } else {
        for (i, &v) in values[base..end].iter().enumerate() {
            word |= (test(v) as u64) << i;
            nan |= (v.is_nan() as u64) << i;
        }
    }
    (word, nan)
}

/// `value_word` for Utf8 chunks (no `Copy`, compares by `&str` reference).
#[inline]
fn value_word_str(values: &[String], base: usize, test: impl Fn(&str) -> bool) -> u64 {
    let end = (base + 64).min(values.len());
    let mut word = 0u64;
    for (i, v) in values[base..end].iter().enumerate() {
        word |= (test(v.as_str()) as u64) << i;
    }
    word
}

/// Infallible refinement over a `Copy` column.
#[inline]
fn refine_plain<T: Copy>(
    values: &[T],
    validity: Option<&Bitmap>,
    mask: &mut MatchMask,
    test: impl Fn(T) -> bool + Copy,
) -> MaskScan {
    match refine_mask(mask, validity, |base, _| Ok(value_word(values, base, test))) {
        Ok(scan) => scan,
        #[expect(
            clippy::unreachable,
            reason = "the refinement closure is Ok-only; Err is unrepresentable here and the match arm exists only to satisfy the Result type"
        )]
        Err(_) => unreachable!("infallible refinement"),
    }
}

/// Dispatch a comparison operator once (outside the loop) into a
/// monomorphized branchless refinement; `key` projects the cell into the
/// comparison domain (identity for exact compares, `as f64` widening for
/// mixed i64-vs-float literals).
#[inline]
fn refine_cmp_by<T, K, F>(
    values: &[T],
    validity: Option<&Bitmap>,
    op: CompareOp,
    bound: K,
    key: F,
    mask: &mut MatchMask,
) -> MaskScan
where
    T: Copy,
    K: PartialOrd + Copy,
    F: Fn(T) -> K + Copy,
{
    match op {
        CompareOp::Eq => refine_plain(values, validity, mask, move |v| key(v) == bound),
        CompareOp::NotEq => refine_plain(values, validity, mask, move |v| key(v) != bound),
        CompareOp::Lt => refine_plain(values, validity, mask, move |v| key(v) < bound),
        CompareOp::LtEq => refine_plain(values, validity, mask, move |v| key(v) <= bound),
        CompareOp::Gt => refine_plain(values, validity, mask, move |v| key(v) > bound),
        CompareOp::GtEq => refine_plain(values, validity, mask, move |v| key(v) >= bound),
    }
}

/// Fallible refinement over a Float64 column: NaN cells among the valid
/// candidates of a chunk reject the whole scan, as in the scalar oracle.
#[inline]
fn refine_f64(
    values: &[f64],
    validity: Option<&Bitmap>,
    mask: &mut MatchMask,
    test: impl Fn(f64) -> bool + Copy,
) -> Result<MaskScan, UnorderedComparison> {
    refine_mask(mask, validity, |base, valid_cand| {
        let (word, nan) = value_word_f64(values, base, test);
        if nan & valid_cand != 0 {
            Err(UnorderedComparison)
        } else {
            Ok(word)
        }
    })
}

/// NaN-constant handling shared by the fallible mask kernels: error if any
/// valid candidate row exists (the comparison would be unordered for it),
/// otherwise no row matches.
fn nan_bound_refine(
    validity: Option<&Bitmap>,
    mask: &mut MatchMask,
) -> Result<MaskScan, UnorderedComparison> {
    if mask_any_valid(validity, mask) {
        return Err(UnorderedComparison);
    }
    let visited = mask.popcount();
    mask.clear();
    Ok(MaskScan {
        visited,
        remaining: 0,
    })
}

/// True when any candidate row of the mask is valid (non-NULL) — the chunked
/// counterpart of [`any_valid`] for the lazy type-mismatch nodes.
pub fn mask_any_valid(validity: Option<&Bitmap>, mask: &MatchMask) -> bool {
    match validity {
        None => !mask.is_empty(),
        Some(v) => {
            let first_word = mask.first_word();
            mask.words
                .iter()
                .enumerate()
                .any(|(k, &w)| w & v.words().get(first_word + k).copied().unwrap_or(0) != 0)
        }
    }
}

/// The unconditional `TRUE` refinement: every candidate survives.
pub fn mask_all(mask: &MatchMask) -> MaskScan {
    let n = mask.popcount();
    MaskScan {
        visited: n,
        remaining: n,
    }
}

/// Chunked `IS NOT NULL`: one AND per 64 rows against the validity words.
pub fn mask_is_not_null(validity: Option<&Bitmap>, mask: &mut MatchMask) -> MaskScan {
    match validity {
        None => mask_all(mask),
        Some(v) => {
            let visited = mask.popcount();
            v.and_into(mask.first_word(), &mut mask.words);
            let remaining = mask.popcount();
            MaskScan { visited, remaining }
        }
    }
}

/// Chunked `IS NULL`: keep candidates whose validity bit is clear.
pub fn mask_is_null(validity: Option<&Bitmap>, mask: &mut MatchMask) -> MaskScan {
    match validity {
        None => {
            let visited = mask.popcount();
            mask.clear();
            MaskScan {
                visited,
                remaining: 0,
            }
        }
        Some(v) => {
            let first_word = mask.first_word();
            let mut scan = MaskScan::default();
            for (k, slot) in mask.words.iter_mut().enumerate() {
                let cand = *slot;
                if cand == 0 {
                    continue;
                }
                scan.visited += cand.count_ones() as usize;
                let vword = v.words().get(first_word + k).copied().unwrap_or(0);
                let kept = cand & !vword;
                *slot = kept;
                scan.remaining += kept.count_ones() as usize;
            }
            scan
        }
    }
}

/// Chunked compare of an Int64 column against an `i64` constant (exact
/// 64-bit compare, no widening).
pub fn mask_cmp_i64(
    values: &[i64],
    validity: Option<&Bitmap>,
    op: CompareOp,
    bound: i64,
    mask: &mut MatchMask,
) -> MaskScan {
    refine_cmp_by(values, validity, op, bound, |v| v, mask)
}

/// Chunked compare of an Int64 column against an `f64` constant (cells
/// widened per lane, as in the scalar oracle's mixed-type comparison).
pub fn mask_cmp_i64_f64(
    values: &[i64],
    validity: Option<&Bitmap>,
    op: CompareOp,
    bound: f64,
    mask: &mut MatchMask,
) -> Result<MaskScan, UnorderedComparison> {
    if bound.is_nan() {
        return nan_bound_refine(validity, mask);
    }
    Ok(refine_cmp_by(
        values,
        validity,
        op,
        bound,
        |v| v as f64,
        mask,
    ))
}

/// Chunked compare of a Float64 column against an `f64` constant. NaN cells
/// among valid candidates error, as do NaN constants over any valid
/// candidate.
pub fn mask_cmp_f64(
    values: &[f64],
    validity: Option<&Bitmap>,
    op: CompareOp,
    bound: f64,
    mask: &mut MatchMask,
) -> Result<MaskScan, UnorderedComparison> {
    if bound.is_nan() {
        return nan_bound_refine(validity, mask);
    }
    match op {
        CompareOp::Eq => refine_f64(values, validity, mask, move |v| v == bound),
        CompareOp::NotEq => refine_f64(values, validity, mask, move |v| v != bound),
        CompareOp::Lt => refine_f64(values, validity, mask, move |v| v < bound),
        CompareOp::LtEq => refine_f64(values, validity, mask, move |v| v <= bound),
        CompareOp::Gt => refine_f64(values, validity, mask, move |v| v > bound),
        CompareOp::GtEq => refine_f64(values, validity, mask, move |v| v >= bound),
    }
}

/// Chunked compare of a Bool column against a boolean constant.
pub fn mask_cmp_bool(
    values: &[bool],
    validity: Option<&Bitmap>,
    op: CompareOp,
    bound: bool,
    mask: &mut MatchMask,
) -> MaskScan {
    refine_cmp_by(values, validity, op, bound, |v| v, mask)
}

/// Chunked compare of a plain (non-dictionary) Utf8 column against a string
/// constant, by reference.
pub fn mask_cmp_str(
    values: &[String],
    validity: Option<&Bitmap>,
    op: CompareOp,
    bound: &str,
    mask: &mut MatchMask,
) -> MaskScan {
    let scan = match op {
        CompareOp::Eq => refine_mask(mask, validity, |b, _| {
            Ok(value_word_str(values, b, |v| v == bound))
        }),
        CompareOp::NotEq => refine_mask(mask, validity, |b, _| {
            Ok(value_word_str(values, b, |v| v != bound))
        }),
        CompareOp::Lt => refine_mask(mask, validity, |b, _| {
            Ok(value_word_str(values, b, |v| v < bound))
        }),
        CompareOp::LtEq => refine_mask(mask, validity, |b, _| {
            Ok(value_word_str(values, b, |v| v <= bound))
        }),
        CompareOp::Gt => refine_mask(mask, validity, |b, _| {
            Ok(value_word_str(values, b, |v| v > bound))
        }),
        CompareOp::GtEq => refine_mask(mask, validity, |b, _| {
            Ok(value_word_str(values, b, |v| v >= bound))
        }),
    };
    match scan {
        Ok(s) => s,
        #[expect(
            clippy::unreachable,
            reason = "the refinement closure is Ok-only; Err is unrepresentable here and the match arm exists only to satisfy the Result type"
        )]
        Err(_) => unreachable!("infallible refinement"),
    }
}

/// Chunked inclusive range over an Int64 column (bounds exact or widened per
/// literal type, one pass).
pub fn mask_range_i64(
    values: &[i64],
    validity: Option<&Bitmap>,
    low: NumBound,
    high: NumBound,
    mask: &mut MatchMask,
) -> Result<MaskScan, UnorderedComparison> {
    if low.is_nan() || high.is_nan() {
        return nan_bound_refine(validity, mask);
    }
    if let (NumBound::I64(lo), NumBound::I64(hi)) = (low, high) {
        // fast path: pure 64-bit integer range
        return Ok(refine_plain(values, validity, mask, move |v| {
            lo <= v && v <= hi
        }));
    }
    Ok(refine_plain(values, validity, mask, move |v| {
        low.le_i64_cell(v) && high.ge_i64_cell(v)
    }))
}

/// Chunked inclusive range over a Float64 column. NaN cells among valid
/// candidates error.
pub fn mask_range_f64(
    values: &[f64],
    validity: Option<&Bitmap>,
    low: f64,
    high: f64,
    mask: &mut MatchMask,
) -> Result<MaskScan, UnorderedComparison> {
    if low.is_nan() || high.is_nan() {
        return nan_bound_refine(validity, mask);
    }
    refine_f64(values, validity, mask, move |v| low <= v && v <= high)
}

/// Chunked inclusive range over a plain Utf8 column (lexicographic, by
/// reference).
pub fn mask_range_str(
    values: &[String],
    validity: Option<&Bitmap>,
    low: &str,
    high: &str,
    mask: &mut MatchMask,
) -> MaskScan {
    match refine_mask(mask, validity, |b, _| {
        Ok(value_word_str(values, b, |v| low <= v && v <= high))
    }) {
        Ok(s) => s,
        #[expect(
            clippy::unreachable,
            reason = "the refinement closure is Ok-only; Err is unrepresentable here and the match arm exists only to satisfy the Result type"
        )]
        Err(_) => unreachable!("infallible refinement"),
    }
}

/// Chunked inclusive range over a Bool column.
pub fn mask_range_bool(
    values: &[bool],
    validity: Option<&Bitmap>,
    low: bool,
    high: bool,
    mask: &mut MatchMask,
) -> MaskScan {
    refine_plain(values, validity, mask, move |v| low <= v && v <= high)
}

// ---------------------------------------------------------------------------
// Dictionary-code predicates
// ---------------------------------------------------------------------------

/// A string predicate translated into dictionary-code space.
///
/// `Column::Utf8Dict` keeps its dictionary sorted and deduplicated, so code
/// order *is* lexicographic order and every comparison against a string
/// constant collapses — after one binary search over the (tiny) dictionary —
/// into an integer test over the codes, which the chunked kernels then scan
/// branchlessly. The translation happens once per scan, at kernel-dispatch
/// time, because the dictionary lives with the column, not the compiled
/// predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DictPred {
    /// No row can match (e.g. equality against a value absent from the
    /// dictionary, or an empty code range).
    None,
    /// Every valid row matches (inequality against an absent value).
    AnyValid,
    /// Rows whose code falls in the half-open range `lo..hi` match. All six
    /// comparison operators and BETWEEN reduce to this form because the
    /// dictionary is sorted.
    CodeRange {
        /// First matching code (inclusive).
        lo: u32,
        /// One past the last matching code.
        hi: u32,
    },
    /// Rows whose code differs match (inequality against a present value).
    CodeNotEq(u32),
}

impl DictPred {
    /// Translate `column <op> bound` into code space for a sorted `dict`.
    pub fn compare(dict: &[String], op: CompareOp, bound: &str) -> DictPred {
        let lo = dict.partition_point(|s| s.as_str() < bound);
        let found = dict.get(lo).is_some_and(|s| s == bound);
        let lo32 = lo as u32;
        let len = dict.len() as u32;
        let range = |a: u32, b: u32| {
            if a < b {
                DictPred::CodeRange { lo: a, hi: b }
            } else {
                DictPred::None
            }
        };
        match op {
            CompareOp::Eq => {
                if found {
                    DictPred::CodeRange {
                        lo: lo32,
                        hi: lo32 + 1,
                    }
                } else {
                    DictPred::None
                }
            }
            CompareOp::NotEq => {
                if found {
                    DictPred::CodeNotEq(lo32)
                } else {
                    DictPred::AnyValid
                }
            }
            CompareOp::Lt => range(0, lo32),
            CompareOp::LtEq => range(0, lo32 + found as u32),
            CompareOp::Gt => range(lo32 + found as u32, len),
            CompareOp::GtEq => range(lo32, len),
        }
    }

    /// Translate `low <= column <= high` (inclusive BETWEEN) into code
    /// space for a sorted `dict`.
    pub fn range(dict: &[String], low: &str, high: &str) -> DictPred {
        let lo = dict.partition_point(|s| s.as_str() < low) as u32;
        let hi = dict.partition_point(|s| s.as_str() <= high) as u32;
        if lo < hi {
            DictPred::CodeRange { lo, hi }
        } else {
            DictPred::None
        }
    }
}

/// Chunked scan of a dictionary-encoded Utf8 column: a pure integer-code
/// compare through the branchless refinement driver.
pub fn mask_dict(
    codes: &[u32],
    validity: Option<&Bitmap>,
    pred: DictPred,
    mask: &mut MatchMask,
) -> MaskScan {
    match pred {
        DictPred::None => {
            let visited = mask.popcount();
            mask.clear();
            MaskScan {
                visited,
                remaining: 0,
            }
        }
        DictPred::AnyValid => mask_is_not_null(validity, mask),
        DictPred::CodeRange { lo, hi } => {
            refine_plain(codes, validity, mask, move |c| lo <= c && c < hi)
        }
        DictPred::CodeNotEq(k) => refine_plain(codes, validity, mask, move |c| c != k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateKind;
    use crate::expr::Predicate;
    use crate::schema::{Field, Schema};
    use crate::table::Table;
    use crate::value::{DataType, Value};

    fn bitmap(bits: &[bool]) -> Bitmap {
        let mut bm = Bitmap::new();
        for &b in bits {
            bm.push(b);
        }
        bm
    }

    /// The scalar oracle for one column: `Predicate::evaluate` of
    /// `c <op> bound` over a single-column table holding `cells`.
    fn oracle_rows(
        data_type: DataType,
        cells: Vec<Value>,
        op: CompareOp,
        bound: Value,
    ) -> Vec<usize> {
        let schema = Schema::shared(vec![Field::nullable("c", data_type)]).unwrap();
        let mut table = Table::new("t", schema);
        for cell in cells {
            table.append_row(&[cell]).unwrap();
        }
        let predicate = Predicate::Compare {
            column: "c".to_owned(),
            op,
            value: bound,
        };
        predicate.evaluate(&table).unwrap().rows().to_vec()
    }

    #[test]
    fn domain_len() {
        assert_eq!(ScanDomain::Full(5).len(), 5);
        assert!(ScanDomain::Full(0).is_empty());
        assert_eq!(ScanDomain::Range { start: 2, end: 7 }.len(), 5);
        assert!(ScanDomain::Range { start: 3, end: 3 }.is_empty());
        assert!(ScanDomain::Range { start: 4, end: 1 }.is_empty());
    }

    #[test]
    fn range_domain_scans_absolute_positions() {
        let values = [5i64, -2, 9, 0, 7];
        let mut mask = MatchMask::coverage(1, 4);
        mask_cmp_i64(&values, None, CompareOp::GtEq, 0, &mut mask);
        // rows 2 and 3 qualify within the range; row ids stay absolute
        assert_eq!(mask.to_rows(), vec![2, 3]);
        let validity = bitmap(&[true, true, false, true, true]);
        let mut mask = MatchMask::coverage(1, 4);
        mask_cmp_i64(&values, Some(&validity), CompareOp::GtEq, 0, &mut mask);
        assert_eq!(mask.to_rows(), vec![3]);
        assert!(!any_valid(
            Some(&validity),
            ScanDomain::Range { start: 2, end: 3 }
        ));
        assert!(!any_valid(None, ScanDomain::Range { start: 2, end: 2 }));
    }

    #[test]
    fn cmp_i64_full_and_candidates() {
        let values = [5i64, -2, 9, 0, 7];
        let mut mask = MatchMask::coverage(0, 5);
        let scan = mask_cmp_i64(&values, None, CompareOp::Gt, 0, &mut mask);
        assert_eq!(mask.to_rows(), vec![0, 2, 4]);
        assert_eq!((scan.visited, scan.remaining), (5, 3));
        // refining a candidate mask tests only the surviving candidates
        let mut mask = MatchMask::coverage(0, 5);
        mask_cmp_i64(&values, None, CompareOp::LtEq, 5, &mut mask);
        assert_eq!(mask.to_rows(), vec![0, 1, 3]);
        let scan = mask_cmp_i64(&values, None, CompareOp::Gt, 0, &mut mask);
        assert_eq!(mask.to_rows(), vec![0]);
        assert_eq!((scan.visited, scan.remaining), (3, 1));
    }

    #[test]
    fn cmp_respects_validity() {
        let values = [1i64, 2, 3];
        let validity = bitmap(&[true, false, true]);
        let mut mask = MatchMask::coverage(0, 3);
        mask_cmp_i64(&values, Some(&validity), CompareOp::GtEq, 0, &mut mask);
        assert_eq!(mask.to_rows(), vec![0, 2]);
    }

    #[test]
    fn exact_i64_comparison_not_widened() {
        // 2^63 - 1 and 2^63 - 2 collapse to the same f64; the i64 kernels
        // must still tell them apart.
        let values = [i64::MAX, i64::MAX - 1];
        let mut mask = MatchMask::coverage(0, 2);
        mask_cmp_i64(&values, None, CompareOp::Eq, i64::MAX, &mut mask);
        assert_eq!(mask.to_rows(), vec![0]);
        let mut mask = MatchMask::coverage(0, 2);
        let exact = NumBound::I64(i64::MAX - 1);
        mask_range_i64(&values, None, exact, exact, &mut mask).unwrap();
        assert_eq!(mask.to_rows(), vec![1]);
    }

    #[test]
    fn f64_nan_cell_errors() {
        let values = [1.0, f64::NAN];
        let mut mask = MatchMask::coverage(0, 2);
        assert!(mask_cmp_f64(&values, None, CompareOp::Lt, 5.0, &mut mask).is_err());
        let mut mask = MatchMask::coverage(0, 2);
        assert!(mask_range_f64(&values, None, 0.0, 5.0, &mut mask).is_err());
    }

    #[test]
    fn f64_nan_bound_errors_only_with_valid_rows() {
        let values = [1.0];
        let mut mask = MatchMask::coverage(0, 1);
        assert!(mask_cmp_f64(&values, None, CompareOp::Lt, f64::NAN, &mut mask).is_err());
        let validity = bitmap(&[false]);
        let mut mask = MatchMask::coverage(0, 1);
        assert!(mask_cmp_f64(&values, Some(&validity), CompareOp::Lt, f64::NAN, &mut mask).is_ok());
        assert!(mask.is_empty());
        // the same contract for NaN range bounds and Int64-vs-NaN compares
        let ints = [3i64];
        let mut mask = MatchMask::coverage(0, 1);
        let nan = NumBound::F64(f64::NAN);
        assert!(mask_range_i64(&ints, None, nan, NumBound::I64(5), &mut mask).is_err());
        let mut mask = MatchMask::coverage(0, 1);
        assert!(
            mask_cmp_i64_f64(&ints, Some(&validity), CompareOp::Eq, f64::NAN, &mut mask).is_ok()
        );
        assert!(mask.is_empty());
    }

    #[test]
    fn one_pass_ranges() {
        let ints = [1i64, 5, 10, -3];
        let mut mask = MatchMask::coverage(0, 4);
        mask_range_i64(&ints, None, NumBound::I64(0), NumBound::I64(5), &mut mask).unwrap();
        assert_eq!(mask.to_rows(), vec![0, 1]);

        let floats = [0.5, 2.5, 7.0];
        let mut mask = MatchMask::coverage(0, 3);
        mask_range_f64(&floats, None, 1.0, 3.0, &mut mask).unwrap();
        assert_eq!(mask.to_rows(), vec![1]);

        let strings: Vec<String> = ["ant", "bee", "cow"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut mask = MatchMask::coverage(0, 3);
        mask_range_str(&strings, None, "b", "c", &mut mask);
        assert_eq!(mask.to_rows(), vec![1]);
    }

    #[test]
    fn mixed_bound_range_keeps_i64_exact() {
        // low is an exact integer bound, high widens: i64::MAX qualifies,
        // and i64::MAX - 1 (equal to i64::MAX once widened) does not
        let values = [i64::MAX, i64::MAX - 1, 10];
        let mut mask = MatchMask::coverage(0, 3);
        mask_range_i64(
            &values,
            None,
            NumBound::I64(i64::MAX),
            NumBound::F64(f64::INFINITY),
            &mut mask,
        )
        .unwrap();
        assert_eq!(mask.to_rows(), vec![0]);
    }

    #[test]
    fn str_kernel_compares_by_reference() {
        let values: Vec<String> = ["GALAXY", "STAR", "GALAXY"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut mask = MatchMask::coverage(0, 3);
        mask_cmp_str(&values, None, CompareOp::Eq, "GALAXY", &mut mask);
        assert_eq!(mask.to_rows(), vec![0, 2]);
    }

    #[test]
    fn null_kernels() {
        let validity = bitmap(&[true, false, true, false]);
        let mut nulls = MatchMask::coverage(0, 4);
        mask_is_null(Some(&validity), &mut nulls);
        assert_eq!(nulls.to_rows(), vec![1, 3]);
        let mut valid = MatchMask::coverage(0, 4);
        mask_is_not_null(Some(&validity), &mut valid);
        assert_eq!(valid.to_rows(), vec![0, 2]);
        let mut all = MatchMask::coverage(0, 3);
        mask_is_not_null(None, &mut all);
        assert_eq!(all.to_rows(), vec![0, 1, 2]);
    }

    #[test]
    fn count_sink_counts() {
        let values = [1.0, 2.0, 3.0];
        let mut mask = MatchMask::coverage(0, 3);
        mask_cmp_f64(&values, None, CompareOp::Gt, 1.5, &mut mask).unwrap();
        let mut sink = CountSink::default();
        mask.emit(&mut sink);
        assert_eq!(sink.0, 2);
    }

    #[test]
    fn moment_sketch_matches_naive_folds() {
        let values = [2.0f64, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut sketch = MomentSketch::new();
        for &v in &values {
            sketch.push(v);
        }
        sketch.push_null();
        assert_eq!(sketch.matched, 9);
        assert_eq!(sketch.count, 8);
        assert_eq!(sketch.aggregate(AggregateKind::Count), Some(9.0));
        assert_eq!(sketch.aggregate(AggregateKind::Sum), Some(40.0));
        assert_eq!(sketch.aggregate(AggregateKind::Avg), Some(5.0));
        assert_eq!(sketch.aggregate(AggregateKind::Min), Some(2.0));
        assert_eq!(sketch.aggregate(AggregateKind::Max), Some(9.0));
        let var = sketch.aggregate(AggregateKind::Variance).unwrap();
        assert!((var - 4.0).abs() < 1e-12);
        assert_eq!(sketch.value_rows(), 8);
    }

    #[test]
    fn empty_sketch_conventions() {
        let sketch = MomentSketch::new();
        assert_eq!(sketch.aggregate(AggregateKind::Count), Some(0.0));
        assert_eq!(sketch.aggregate(AggregateKind::Sum), Some(0.0));
        assert_eq!(sketch.aggregate(AggregateKind::Avg), None);
        assert_eq!(sketch.aggregate(AggregateKind::Min), None);
        assert_eq!(sketch.aggregate(AggregateKind::Max), None);
        assert_eq!(sketch.aggregate(AggregateKind::Variance), None);
    }

    #[test]
    fn moment_sink_reads_agg_column() {
        let agg = [10.0f64, 20.0, 30.0];
        let validity = bitmap(&[true, false, true]);
        let mut sink = MomentSink::new(AggSource::F64(&agg, Some(&validity)));
        let pred_values = [1i64, 1, 1];
        let mut mask = MatchMask::coverage(0, 3);
        mask_cmp_i64(&pred_values, None, CompareOp::Eq, 1, &mut mask);
        mask.emit(&mut sink);
        assert_eq!(sink.sketch.matched, 3);
        assert_eq!(sink.sketch.count, 2);
        assert_eq!(sink.sketch.sum, 40.0);
    }

    #[test]
    fn any_valid_checks() {
        let validity = bitmap(&[false, false, true]);
        assert!(any_valid(Some(&validity), ScanDomain::Full(3)));
        assert!(!any_valid(Some(&validity), ScanDomain::Full(2)));
        // the candidate-mask counterpart only looks at candidate rows
        assert!(!mask_any_valid(Some(&validity), &MatchMask::coverage(0, 2)));
        assert!(mask_any_valid(Some(&validity), &MatchMask::coverage(1, 3)));
        assert!(any_valid(None, ScanDomain::Full(1)));
        assert!(!any_valid(None, ScanDomain::Full(0)));
    }

    #[test]
    fn coverage_mask_head_and_tail() {
        let m = MatchMask::coverage(5, 130);
        assert_eq!(m.popcount(), 125);
        assert_eq!(m.to_rows(), (5..130).collect::<Vec<_>>());
        // word 0 covers rows 0..64: bits below 5 must be clear
        assert_eq!(m.words()[0] & 0b11111, 0);
        // word 2 covers rows 128..192: bits at/above 130 must be clear
        assert_eq!(m.words()[2], 0b11);
        assert!(MatchMask::coverage(7, 7).is_empty());
        let aligned = MatchMask::coverage(64, 128);
        assert_eq!(aligned.words(), &[u64::MAX]);
        assert_eq!(aligned.first_word(), 1);
    }

    #[test]
    fn accept_word_emits_ascending_and_count_sink_popcounts() {
        let mut rows = Vec::new();
        rows.accept_word(64, 0b1010_0001);
        assert_eq!(rows, vec![64, 69, 71]);
        let mut count = CountSink::default();
        count.accept_word(0, u64::MAX);
        assert_eq!(count.0, 64);
    }

    /// The chunked kernel must agree with the scalar oracle on an unaligned
    /// range with scattered NULLs.
    #[test]
    fn mask_cmp_i64_matches_scalar_oracle() {
        let n = 131usize;
        let values: Vec<i64> = (0..n as i64).map(|i| (i * 7) % 23).collect();
        let valid: Vec<bool> = (0..n).map(|i| i % 5 != 0).collect();
        let validity = bitmap(&valid);
        let cells: Vec<Value> = values
            .iter()
            .zip(&valid)
            .map(|(&v, &ok)| if ok { Value::Int64(v) } else { Value::Null })
            .collect();
        for op in [
            CompareOp::Eq,
            CompareOp::NotEq,
            CompareOp::Lt,
            CompareOp::LtEq,
            CompareOp::Gt,
            CompareOp::GtEq,
        ] {
            let mut mask = MatchMask::coverage(3, 130);
            let scan = mask_cmp_i64(&values, Some(&validity), op, 11, &mut mask);
            let expect: Vec<usize> =
                oracle_rows(DataType::Int64, cells.clone(), op, Value::Int64(11))
                    .into_iter()
                    .filter(|row| (3..130).contains(row))
                    .collect();
            assert_eq!(mask.to_rows(), expect, "op {op:?}");
            assert_eq!(scan.visited, 127);
            assert_eq!(scan.remaining, expect.len());
        }
    }

    #[test]
    fn mask_conjunction_refines_wordwise() {
        let n = 70usize;
        let a: Vec<i64> = (0..n as i64).collect();
        let b: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let mut mask = MatchMask::coverage(0, n);
        let first = mask_cmp_i64(&a, None, CompareOp::GtEq, 10, &mut mask);
        assert_eq!((first.visited, first.remaining), (70, 60));
        let second = mask_cmp_f64(&b, None, CompareOp::Eq, 1.0, &mut mask).unwrap();
        // the second conjunct only tests survivors of the first
        assert_eq!(second.visited, 60);
        assert_eq!(second.remaining, 30);
        assert!(mask.to_rows().iter().all(|&r| r >= 10 && r % 2 == 1));
    }

    #[test]
    fn mask_f64_nan_cell_errors_only_when_candidate_and_valid() {
        let values = [1.0, f64::NAN, 3.0];
        // NaN is a candidate and valid: error
        let mut mask = MatchMask::coverage(0, 3);
        assert!(mask_cmp_f64(&values, None, CompareOp::Lt, 5.0, &mut mask).is_err());
        // NaN is NULL: fine
        let validity = bitmap(&[true, false, true]);
        let mut mask = MatchMask::coverage(0, 3);
        let scan = mask_cmp_f64(&values, Some(&validity), CompareOp::Lt, 5.0, &mut mask).unwrap();
        assert_eq!(mask.to_rows(), vec![0, 2]);
        assert_eq!(scan.remaining, 2);
        // NaN is outside the candidate range: fine
        let mut mask = MatchMask::coverage(2, 3);
        assert!(mask_cmp_f64(&values, None, CompareOp::Lt, 5.0, &mut mask).is_ok());
        // NaN *bound* errors only when a valid candidate exists
        let mut mask = MatchMask::coverage(0, 3);
        assert!(mask_cmp_f64(&values, None, CompareOp::Lt, f64::NAN, &mut mask).is_err());
        let none = bitmap(&[false, false, false]);
        let mut mask = MatchMask::coverage(0, 3);
        let scan = mask_cmp_f64(&values, Some(&none), CompareOp::Lt, f64::NAN, &mut mask).unwrap();
        assert_eq!(scan.remaining, 0);
        assert!(mask.is_empty());
    }

    #[test]
    fn mask_range_and_null_kernels() {
        let ints: Vec<i64> = (0..100).collect();
        let mut mask = MatchMask::coverage(0, 100);
        mask_range_i64(
            &ints,
            None,
            NumBound::I64(10),
            NumBound::F64(12.5),
            &mut mask,
        )
        .unwrap();
        assert_eq!(mask.to_rows(), vec![10, 11, 12]);

        let validity = bitmap(&(0..100).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let mut nulls = MatchMask::coverage(0, 100);
        let scan = mask_is_null(Some(&validity), &mut nulls);
        assert_eq!(scan.remaining, nulls.popcount());
        let mut valid = MatchMask::coverage(0, 100);
        mask_is_not_null(Some(&validity), &mut valid);
        let mut all = MatchMask::coverage(0, 100);
        assert_eq!(mask_all(&all).remaining, 100);
        let survivors = valid.and_not(&nulls);
        assert_eq!(survivors, valid.popcount());
        all.and_with(&valid);
        assert_eq!(
            all.to_rows(),
            (0..100).filter(|i| i % 3 == 0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dict_pred_translation() {
        let dict: Vec<String> = ["GALAXY", "QSO", "STAR"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        use DictPred::*;
        assert_eq!(
            DictPred::compare(&dict, CompareOp::Eq, "QSO"),
            CodeRange { lo: 1, hi: 2 }
        );
        assert_eq!(DictPred::compare(&dict, CompareOp::Eq, "NOVA"), None);
        assert_eq!(
            DictPred::compare(&dict, CompareOp::NotEq, "QSO"),
            CodeNotEq(1)
        );
        assert_eq!(DictPred::compare(&dict, CompareOp::NotEq, "NOVA"), AnyValid);
        assert_eq!(
            DictPred::compare(&dict, CompareOp::Lt, "QSO"),
            CodeRange { lo: 0, hi: 1 }
        );
        assert_eq!(DictPred::compare(&dict, CompareOp::Lt, "GALAXY"), None);
        assert_eq!(
            DictPred::compare(&dict, CompareOp::LtEq, "QSO"),
            CodeRange { lo: 0, hi: 2 }
        );
        assert_eq!(
            DictPred::compare(&dict, CompareOp::Gt, "QSO"),
            CodeRange { lo: 2, hi: 3 }
        );
        assert_eq!(DictPred::compare(&dict, CompareOp::Gt, "STAR"), None);
        assert_eq!(
            DictPred::compare(&dict, CompareOp::GtEq, "QSO"),
            CodeRange { lo: 1, hi: 3 }
        );
        // the bound need not be in the dictionary
        assert_eq!(
            DictPred::compare(&dict, CompareOp::Gt, "NOVA"),
            CodeRange { lo: 1, hi: 3 }
        );
        assert_eq!(DictPred::range(&dict, "H", "R"), CodeRange { lo: 1, hi: 2 });
        assert_eq!(DictPred::range(&dict, "T", "A"), None);
        assert_eq!(
            DictPred::range(&dict, "GALAXY", "STAR"),
            CodeRange { lo: 0, hi: 3 }
        );
    }

    #[test]
    fn dict_kernels_match_decoded_strings() {
        let dict: Vec<String> = ["GALAXY", "QSO", "STAR"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let n = 67usize;
        let codes: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let valid: Vec<bool> = (0..n).map(|i| i % 7 != 0).collect();
        let validity = bitmap(&valid);
        // the decoded strings, scanned by the scalar oracle
        let cells: Vec<Value> = codes
            .iter()
            .zip(&valid)
            .map(|(&c, &ok)| {
                if ok {
                    Value::Utf8(dict[c as usize].clone())
                } else {
                    Value::Null
                }
            })
            .collect();
        for (op, bound) in [
            (CompareOp::Eq, "QSO"),
            (CompareOp::NotEq, "QSO"),
            (CompareOp::Lt, "STAR"),
            (CompareOp::GtEq, "NOVA"),
        ] {
            let pred = DictPred::compare(&dict, op, bound);
            let mut mask = MatchMask::coverage(0, n);
            mask_dict(&codes, Some(&validity), pred, &mut mask);
            let expect = oracle_rows(DataType::Utf8, cells.clone(), op, Value::Utf8(bound.into()));
            assert_eq!(mask.to_rows(), expect, "op {op:?} bound {bound}");
        }
    }
}
