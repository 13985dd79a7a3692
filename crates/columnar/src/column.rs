//! Typed column vectors with null bitmaps.
//!
//! Each column stores its values densely in a `Vec` of the native type plus a
//! validity bitmap. This mirrors the layout of read-optimised column stores
//! (MonetDB BATs, Arrow arrays) at the level of fidelity the SciBORQ
//! experiments need: sequential scans, random access by row id and cheap
//! appends during incremental loads.

use crate::error::{ColumnarError, Result};
use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};

/// A validity bitmap tracking which rows are non-NULL.
///
/// The bitmap is stored as packed 64-bit words, bit `i % 64` of word
/// `i / 64` holding row `i` — the same word layout the chunked scan kernels
/// use for their match masks, so validity can be ANDed into a match mask
/// word-at-a-time ([`Bitmap::and_into`]). Bits beyond `len` in the last word
/// are always zero (the tail invariant the kernels rely on). An absent
/// bitmap (all-valid) is represented by the owning column keeping
/// `null_count == 0`.
///
/// The count of cleared bits is cached and maintained on every mutation, so
/// [`Bitmap::count_set`]/[`Bitmap::count_unset`] — and through them
/// `Column::null_count`, which the kernels consult on every scan — are O(1)
/// instead of a popcount over the whole bitmap.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    /// Cached number of cleared (NULL) bits among the first `len` bits.
    zeros: usize,
}

impl Bitmap {
    /// Create an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a bitmap of `len` bits, all set to `valid`.
    pub fn with_len(len: usize, valid: bool) -> Self {
        let word = if valid { u64::MAX } else { 0 };
        let mut bm = Bitmap {
            words: vec![word; len.div_ceil(64)],
            len,
            zeros: if valid { 0 } else { len },
        };
        bm.mask_tail();
        bm
    }

    fn mask_tail(&mut self) {
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    /// Number of bits in the bitmap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a bit.
    pub fn push(&mut self, valid: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        if valid {
            let word = self.len / 64;
            self.words[word] |= 1u64 << bit;
        } else {
            self.zeros += 1;
        }
        self.len += 1;
    }

    /// Get bit `idx`; panics if out of bounds.
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bitmap index out of bounds");
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Set bit `idx` to `valid`.
    pub fn set(&mut self, idx: usize, valid: bool) {
        assert!(idx < self.len, "bitmap index out of bounds");
        let word = idx / 64;
        let bit = idx % 64;
        let was_valid = (self.words[word] >> bit) & 1 == 1;
        match (was_valid, valid) {
            (true, false) => self.zeros += 1,
            (false, true) => self.zeros -= 1,
            _ => {}
        }
        if valid {
            self.words[word] |= 1u64 << bit;
        } else {
            self.words[word] &= !(1u64 << bit);
        }
    }

    /// Number of set (valid) bits. O(1): derived from the cached zero count.
    pub fn count_set(&self) -> usize {
        self.len - self.zeros
    }

    /// Number of cleared (NULL) bits. O(1).
    pub fn count_unset(&self) -> usize {
        self.zeros
    }

    /// Append every bit of `other`, a word at a time.
    pub fn extend(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &word in &other.words {
                if let Some(last) = self.words.last_mut() {
                    *last |= word << shift;
                }
                self.words.push(word >> (64 - shift));
            }
        }
        self.len += other.len;
        self.zeros += other.zeros;
        // `other`'s bits past its end are zero, so the words kept past the
        // new end hold no set bit: dropping them keeps the tail invariant.
        self.words.truncate(self.len.div_ceil(64));
    }

    /// The bits at the given positions (each `< len`), in the given order.
    pub fn gather(&self, rows: &[usize]) -> Bitmap {
        if self.zeros == 0 {
            return Bitmap::with_len(rows.len(), true);
        }
        let mut out = Bitmap::new();
        rows.iter().for_each(|&row| out.push(self.get(row)));
        out
    }

    /// The packed 64-bit words backing the bitmap. Word `w` holds rows
    /// `[w*64, w*64+64)`; bits at positions `>= len` are guaranteed zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// AND this bitmap's words into `out`, where `out[k]` corresponds to
    /// word `first_word + k` of the bitmap. Words past the end of the bitmap
    /// are treated as all-zero (no rows, hence no valid rows).
    pub fn and_into(&self, first_word: usize, out: &mut [u64]) {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot &= self.words.get(first_word + k).copied().unwrap_or(0);
        }
    }

    /// The mask of in-range bits for the last word of a `len`-bit bitmap:
    /// all ones when `len` is a multiple of 64, otherwise only the low
    /// `len % 64` bits. This is the tail-masking rule both the bitmap and
    /// the chunked match masks follow.
    pub fn tail_mask(len: usize) -> u64 {
        let tail_bits = len % 64;
        if tail_bits == 0 {
            u64::MAX
        } else {
            (1u64 << tail_bits) - 1
        }
    }
}

/// A typed column of values.
///
/// Nulls are represented by a sentinel in the value vector plus a cleared bit
/// in the validity bitmap; the sentinel never escapes through the public API.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// 64-bit integer column.
    Int64 {
        /// Dense values (NULL slots hold 0).
        values: Vec<i64>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// 64-bit float column.
    Float64 {
        /// Dense values (NULL slots hold 0.0).
        values: Vec<f64>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Boolean column.
    Bool {
        /// Dense values (NULL slots hold `false`).
        values: Vec<bool>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// UTF-8 string column.
    Utf8 {
        /// Dense values (NULL slots hold the empty string).
        values: Vec<String>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Dictionary-encoded UTF-8 string column.
    ///
    /// Row values are `u32` codes indexing into a **sorted, deduplicated**
    /// dictionary of the distinct strings, so code order equals
    /// lexicographic order: string equality and range predicates translate
    /// into pure integer-code compares (done once per scan in the compiled
    /// pipeline), which the chunked kernels then evaluate branchlessly.
    ///
    /// The logical data type is still [`DataType::Utf8`]; dictionary
    /// encoding is a physical representation, invisible to schemas and the
    /// dynamically typed accessors. Appends of strings already in the
    /// dictionary are O(log dict); a *new* distinct string is inserted at
    /// its sorted position and existing codes are remapped (O(rows)), which
    /// is cheap for the low-cardinality label columns this encoding targets
    /// and still correct for any other.
    Utf8Dict {
        /// Per-row dictionary codes (NULL slots hold 0, never dereferenced).
        codes: Vec<u32>,
        /// Sorted, deduplicated dictionary the codes index into.
        dict: Vec<String>,
        /// Validity bitmap.
        validity: Bitmap,
    },
}

impl Column {
    /// Create an empty column of the given type.
    pub fn new(data_type: DataType) -> Self {
        match data_type {
            DataType::Int64 => Column::Int64 {
                values: Vec::new(),
                validity: Bitmap::new(),
            },
            DataType::Float64 => Column::Float64 {
                values: Vec::new(),
                validity: Bitmap::new(),
            },
            DataType::Bool => Column::Bool {
                values: Vec::new(),
                validity: Bitmap::new(),
            },
            DataType::Utf8 => Column::Utf8 {
                values: Vec::new(),
                validity: Bitmap::new(),
            },
        }
    }

    /// Create an empty column with pre-reserved capacity.
    pub fn with_capacity(data_type: DataType, capacity: usize) -> Self {
        match data_type {
            DataType::Int64 => Column::Int64 {
                values: Vec::with_capacity(capacity),
                validity: Bitmap::new(),
            },
            DataType::Float64 => Column::Float64 {
                values: Vec::with_capacity(capacity),
                validity: Bitmap::new(),
            },
            DataType::Bool => Column::Bool {
                values: Vec::with_capacity(capacity),
                validity: Bitmap::new(),
            },
            DataType::Utf8 => Column::Utf8 {
                values: Vec::with_capacity(capacity),
                validity: Bitmap::new(),
            },
        }
    }

    /// Build an Int64 column from non-null values.
    pub fn from_i64(values: Vec<i64>) -> Self {
        let validity = Bitmap::with_len(values.len(), true);
        Column::Int64 { values, validity }
    }

    /// Build a Float64 column from non-null values.
    pub fn from_f64(values: Vec<f64>) -> Self {
        let validity = Bitmap::with_len(values.len(), true);
        Column::Float64 { values, validity }
    }

    /// Build a Bool column from non-null values.
    pub fn from_bool(values: Vec<bool>) -> Self {
        let validity = Bitmap::with_len(values.len(), true);
        Column::Bool { values, validity }
    }

    /// Build a Utf8 column from non-null values.
    pub fn from_strings<I: IntoIterator<Item = S>, S: Into<String>>(values: I) -> Self {
        let values: Vec<String> = values.into_iter().map(Into::into).collect();
        let validity = Bitmap::with_len(values.len(), true);
        Column::Utf8 { values, validity }
    }

    /// The data type of this column. Dictionary encoding is a physical
    /// representation: a [`Column::Utf8Dict`] column is still logically
    /// [`DataType::Utf8`].
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64 { .. } => DataType::Int64,
            Column::Float64 { .. } => DataType::Float64,
            Column::Bool { .. } => DataType::Bool,
            Column::Utf8 { .. } | Column::Utf8Dict { .. } => DataType::Utf8,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64 { values, .. } => values.len(),
            Column::Float64 { values, .. } => values.len(),
            Column::Bool { values, .. } => values.len(),
            Column::Utf8 { values, .. } => values.len(),
            Column::Utf8Dict { codes, .. } => codes.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of NULL rows. O(1): the bitmap caches its cleared-bit count.
    pub fn null_count(&self) -> usize {
        self.validity().count_unset()
    }

    /// The validity bitmap (cleared bits are NULL rows).
    ///
    /// The scan kernels read this directly; use [`Column::validity_ref`] to
    /// get `None` for all-valid columns so kernels can skip the bitmap test.
    pub fn validity(&self) -> &Bitmap {
        match self {
            Column::Int64 { validity, .. } => validity,
            Column::Float64 { validity, .. } => validity,
            Column::Bool { validity, .. } => validity,
            Column::Utf8 { validity, .. } => validity,
            Column::Utf8Dict { validity, .. } => validity,
        }
    }

    /// The validity bitmap, or `None` when every row is valid — the form the
    /// scan kernels consume (an absent bitmap lets the tight loops skip the
    /// per-row validity test entirely).
    pub fn validity_ref(&self) -> Option<&Bitmap> {
        if self.null_count() == 0 {
            None
        } else {
            Some(self.validity())
        }
    }

    /// True when row `idx` is NULL.
    pub fn is_null(&self, idx: usize) -> bool {
        !self.validity().get(idx)
    }

    /// Append a dynamically typed value.
    ///
    /// Returns a [`ColumnarError::TypeMismatch`] if the value's type does not
    /// match the column type (NULL is accepted by every column).
    pub fn push(&mut self, value: &Value) -> Result<()> {
        match (self, value) {
            (Column::Int64 { values, validity }, Value::Int64(v)) => {
                values.push(*v);
                validity.push(true);
                Ok(())
            }
            (Column::Int64 { values, validity }, Value::Null) => {
                values.push(0);
                validity.push(false);
                Ok(())
            }
            (Column::Float64 { values, validity }, Value::Float64(v)) => {
                values.push(*v);
                validity.push(true);
                Ok(())
            }
            // Integers are silently widened into float columns: scientific
            // loaders frequently emit integral measurements.
            (Column::Float64 { values, validity }, Value::Int64(v)) => {
                values.push(*v as f64);
                validity.push(true);
                Ok(())
            }
            (Column::Float64 { values, validity }, Value::Null) => {
                values.push(0.0);
                validity.push(false);
                Ok(())
            }
            (Column::Bool { values, validity }, Value::Bool(v)) => {
                values.push(*v);
                validity.push(true);
                Ok(())
            }
            (Column::Bool { values, validity }, Value::Null) => {
                values.push(false);
                validity.push(false);
                Ok(())
            }
            (Column::Utf8 { values, validity }, Value::Utf8(v)) => {
                values.push(v.clone());
                validity.push(true);
                Ok(())
            }
            (Column::Utf8 { values, validity }, Value::Null) => {
                values.push(String::new());
                validity.push(false);
                Ok(())
            }
            (
                Column::Utf8Dict {
                    codes,
                    dict,
                    validity,
                },
                Value::Utf8(v),
            ) => {
                let code = match dict.binary_search_by(|d| d.as_str().cmp(v.as_str())) {
                    Ok(found) => found as u32,
                    Err(pos) => {
                        // New distinct string: insert at its sorted position
                        // and shift existing codes up to keep code order ==
                        // lexicographic order. O(rows), but only on the
                        // first occurrence of each distinct value.
                        let pos_u32 = u32::try_from(pos).map_err(|_| {
                            ColumnarError::InvalidArgument(
                                "dictionary exceeds u32 code space".to_owned(),
                            )
                        })?;
                        dict.insert(pos, v.clone());
                        for c in codes.iter_mut() {
                            if *c >= pos_u32 {
                                *c += 1;
                            }
                        }
                        pos_u32
                    }
                };
                codes.push(code);
                validity.push(true);
                Ok(())
            }
            (
                Column::Utf8Dict {
                    codes, validity, ..
                },
                Value::Null,
            ) => {
                codes.push(0);
                validity.push(false);
                Ok(())
            }
            (col, value) => Err(ColumnarError::TypeMismatch {
                column: String::new(),
                expected: col.data_type().name(),
                found: value.type_name(),
            }),
        }
    }

    /// Read row `idx` as a dynamically typed value.
    pub fn get(&self, idx: usize) -> Result<Value> {
        if idx >= self.len() {
            return Err(ColumnarError::RowOutOfBounds {
                row: idx,
                len: self.len(),
            });
        }
        if self.is_null(idx) {
            return Ok(Value::Null);
        }
        Ok(match self {
            Column::Int64 { values, .. } => Value::Int64(values[idx]),
            Column::Float64 { values, .. } => Value::Float64(values[idx]),
            Column::Bool { values, .. } => Value::Bool(values[idx]),
            Column::Utf8 { values, .. } => Value::Utf8(values[idx].clone()),
            Column::Utf8Dict { codes, dict, .. } => Value::Utf8(dict[codes[idx] as usize].clone()),
        })
    }

    /// Read row `idx` as an `f64` if the column is numeric and the row is not
    /// NULL.
    pub fn get_f64(&self, idx: usize) -> Option<f64> {
        if idx >= self.len() || self.is_null(idx) {
            return None;
        }
        match self {
            Column::Int64 { values, .. } => Some(values[idx] as f64),
            Column::Float64 { values, .. } => Some(values[idx]),
            _ => None,
        }
    }

    /// Read row `idx` as an `i64` if the column is an integer column and the
    /// row is not NULL.
    pub fn get_i64(&self, idx: usize) -> Option<i64> {
        if idx >= self.len() || self.is_null(idx) {
            return None;
        }
        match self {
            Column::Int64 { values, .. } => Some(values[idx]),
            _ => None,
        }
    }

    /// Append every row of `other` (the incremental-load path). Both
    /// columns must share the same data type.
    ///
    /// Columns of one encoding extend their typed vectors and validity
    /// bitmaps wholesale (dictionary-encoded ones when they share the
    /// dictionary). Any other pair — a plain column appended to a
    /// dictionary-encoded one, the reverse, or two dictionaries that differ
    /// — goes row by row through the dynamic [`Value`] path.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        if self.data_type() != other.data_type() {
            return Err(ColumnarError::TypeMismatch {
                column: String::new(),
                expected: self.data_type().name(),
                found: other.data_type().name(),
            });
        }
        let more_validity = other.validity();
        let validity = match (self, other) {
            (Column::Int64 { values, validity }, Column::Int64 { values: more, .. }) => {
                values.extend_from_slice(more);
                validity
            }
            (Column::Float64 { values, validity }, Column::Float64 { values: more, .. }) => {
                values.extend_from_slice(more);
                validity
            }
            (Column::Bool { values, validity }, Column::Bool { values: more, .. }) => {
                values.extend_from_slice(more);
                validity
            }
            (Column::Utf8 { values, validity }, Column::Utf8 { values: more, .. }) => {
                values.extend_from_slice(more);
                validity
            }
            (
                Column::Utf8Dict {
                    codes,
                    dict,
                    validity,
                },
                Column::Utf8Dict {
                    codes: more,
                    dict: more_dict,
                    ..
                },
            ) if *dict == *more_dict => {
                codes.extend_from_slice(more);
                validity
            }
            (column, other) => {
                for row in 0..other.len() {
                    column.push(&other.get(row)?)?;
                }
                return Ok(());
            }
        };
        validity.extend(more_validity);
        Ok(())
    }

    /// Produce a new column containing the rows at the given positions, in
    /// the given order.
    ///
    /// Values are copied straight from the typed vectors (NULL slots hold
    /// the type's default, as the variants require). A dictionary-encoded
    /// column stays dictionary-encoded: the codes are gathered and the
    /// dictionary cloned wholesale, with no per-row string clones or binary
    /// searches.
    pub fn gather(&self, rows: &[usize]) -> Result<Column> {
        let len = self.len();
        if let Some(&row) = rows.iter().find(|&&row| row >= len) {
            return Err(ColumnarError::RowOutOfBounds { row, len });
        }
        fn pick<T: Clone>(values: &[T], rows: &[usize]) -> Vec<T> {
            rows.iter().map(|&row| values[row].clone()).collect()
        }
        let validity = self.validity().gather(rows);
        Ok(match self {
            Column::Int64 { values, .. } => Column::Int64 {
                values: pick(values, rows),
                validity,
            },
            Column::Float64 { values, .. } => Column::Float64 {
                values: pick(values, rows),
                validity,
            },
            Column::Bool { values, .. } => Column::Bool {
                values: pick(values, rows),
                validity,
            },
            Column::Utf8 { values, .. } => Column::Utf8 {
                values: pick(values, rows),
                validity,
            },
            Column::Utf8Dict { codes, dict, .. } => Column::Utf8Dict {
                codes: pick(codes, rows),
                dict: dict.clone(),
                validity,
            },
        })
    }

    /// Overwrite, in place, row `slot` of this column with row `row` of
    /// `source` for every `(slot, row)` pair — the in-place counterpart of
    /// [`Column::gather`] for a column that mirrors a few changed positions
    /// of another.
    ///
    /// A dictionary-encoded column takes a plain Utf8 source by looking each
    /// string up in its dictionary, then drops the entries no valid row
    /// uses any more, so it ends exactly as [`Column::dict_encoded`] over
    /// its rows would. Returns `Ok(false)` when the copy cannot be made in
    /// place — a string missing from the dictionary, or a dictionary-encoded
    /// source — and the column may then be partly overwritten: the caller
    /// rebuilds it instead.
    pub fn overwrite_rows(&mut self, source: &Column, pairs: &[(usize, usize)]) -> Result<bool> {
        if self.data_type() != source.data_type() {
            return Err(ColumnarError::TypeMismatch {
                column: String::new(),
                expected: self.data_type().name(),
                found: source.data_type().name(),
            });
        }
        let (len, source_len) = (self.len(), source.len());
        for &(slot, row) in pairs {
            if slot >= len {
                return Err(ColumnarError::RowOutOfBounds { row: slot, len });
            }
            if row >= source_len {
                return Err(ColumnarError::RowOutOfBounds {
                    row,
                    len: source_len,
                });
            }
        }
        fn copy<T: Clone>(
            values: &mut [T],
            validity: &mut Bitmap,
            source: &[T],
            source_validity: &Bitmap,
            pairs: &[(usize, usize)],
        ) {
            for &(slot, row) in pairs {
                values[slot] = source[row].clone();
                validity.set(slot, source_validity.get(row));
            }
        }
        let source_validity = source.validity();
        match (self, source) {
            (Column::Int64 { values, validity }, Column::Int64 { values: src, .. }) => {
                copy(values, validity, src, source_validity, pairs);
            }
            (Column::Float64 { values, validity }, Column::Float64 { values: src, .. }) => {
                copy(values, validity, src, source_validity, pairs);
            }
            (Column::Bool { values, validity }, Column::Bool { values: src, .. }) => {
                copy(values, validity, src, source_validity, pairs);
            }
            (Column::Utf8 { values, validity }, Column::Utf8 { values: src, .. }) => {
                copy(values, validity, src, source_validity, pairs);
            }
            (
                Column::Utf8Dict {
                    codes,
                    dict,
                    validity,
                },
                Column::Utf8 { values: src, .. },
            ) => {
                for &(slot, row) in pairs {
                    let valid = source_validity.get(row);
                    codes[slot] = if valid {
                        match dict.binary_search_by(|d| d.as_str().cmp(src[row].as_str())) {
                            Ok(code) => code as u32,
                            Err(_) => return Ok(false),
                        }
                    } else {
                        0
                    };
                    validity.set(slot, valid);
                }
                // Keep the dictionary to the values the rows hold.
                let mut used = vec![false; dict.len()];
                for (i, &code) in codes.iter().enumerate() {
                    if validity.get(i) {
                        used[code as usize] = true;
                    }
                }
                if used.contains(&false) {
                    // NULL rows hold code 0, and code 0 always maps to 0.
                    let mut remap = Vec::with_capacity(dict.len());
                    let mut next = 0u32;
                    for &u in &used {
                        remap.push(next);
                        next += u32::from(u);
                    }
                    let mut entry = 0;
                    dict.retain(|_| {
                        entry += 1;
                        used[entry - 1]
                    });
                    for code in codes.iter_mut() {
                        *code = remap[*code as usize];
                    }
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Iterate over the column as `Option<f64>` (None for NULL and
    /// non-numeric columns' rows).
    pub fn iter_f64(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        (0..self.len()).map(move |i| self.get_f64(i))
    }

    /// Approximate heap memory consumed by this column, in bytes.
    ///
    /// This is what the layer-sizing policy uses to decide whether an
    /// impression fits the CPU cache / main memory budget of §3.1.
    pub fn byte_size(&self) -> usize {
        let validity_bytes = self.validity().words.len() * 8;
        validity_bytes
            + match self {
                Column::Int64 { values, .. } => values.len() * 8,
                Column::Float64 { values, .. } => values.len() * 8,
                Column::Bool { values, .. } => values.len(),
                Column::Utf8 { values, .. } => values.iter().map(|s| s.len() + 24).sum::<usize>(),
                Column::Utf8Dict { codes, dict, .. } => {
                    codes.len() * 4 + dict.iter().map(|s| s.len() + 24).sum::<usize>()
                }
            }
    }

    /// Borrow the raw `f64` slice when the column is a Float64 column.
    pub fn f64_slice(&self) -> Option<&[f64]> {
        match self {
            Column::Float64 { values, .. } => Some(values),
            _ => None,
        }
    }

    /// Borrow the raw `i64` slice when the column is an Int64 column.
    pub fn i64_slice(&self) -> Option<&[i64]> {
        match self {
            Column::Int64 { values, .. } => Some(values),
            _ => None,
        }
    }

    /// Borrow the raw `bool` slice when the column is a Bool column.
    pub fn bool_slice(&self) -> Option<&[bool]> {
        match self {
            Column::Bool { values, .. } => Some(values),
            _ => None,
        }
    }

    /// Borrow the raw `String` slice when the column is a *plain* Utf8
    /// column — the zero-clone access path of the string scan kernels.
    /// Dictionary-encoded columns return `None`; use
    /// [`Column::dict_parts`] for their code/dictionary view.
    pub fn utf8_slice(&self) -> Option<&[String]> {
        match self {
            Column::Utf8 { values, .. } => Some(values),
            _ => None,
        }
    }

    /// Borrow the `(codes, dict)` pair when the column is dictionary-encoded.
    ///
    /// The dictionary is sorted and deduplicated, so `dict[codes[i]]` is row
    /// `i`'s string and code order equals lexicographic order.
    pub fn dict_parts(&self) -> Option<(&[u32], &[String])> {
        match self {
            Column::Utf8Dict { codes, dict, .. } => Some((codes, dict)),
            _ => None,
        }
    }

    /// Dictionary-encode a plain Utf8 column.
    ///
    /// Returns the encoded [`Column::Utf8Dict`] when this is a plain Utf8
    /// column whose distinct valid-value count is at most `max_cardinality`;
    /// `None` otherwise (non-string columns, already-encoded columns, or a
    /// dictionary that would be too large to pay off). NULL rows keep their
    /// cleared validity bit and store code 0, which is never dereferenced.
    pub fn dict_encoded(&self, max_cardinality: usize) -> Option<Column> {
        let Column::Utf8 { values, validity } = self else {
            return None;
        };
        let max_cardinality = max_cardinality.min(u32::MAX as usize);
        let mut set: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for (i, v) in values.iter().enumerate() {
            if validity.get(i) {
                set.insert(v.as_str());
                if set.len() > max_cardinality {
                    return None;
                }
            }
        }
        let dict: Vec<String> = set.iter().map(|s| (*s).to_owned()).collect();
        let codes: Vec<u32> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if validity.get(i) {
                    dict.binary_search_by(|d| d.as_str().cmp(v.as_str()))
                        .expect("every valid value is in the dictionary") as u32
                } else {
                    0
                }
            })
            .collect();
        Some(Column::Utf8Dict {
            codes,
            dict,
            validity: validity.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_push_get() {
        let mut bm = Bitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        for i in 0..130 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.count_set(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn bitmap_with_len_all_valid_masks_tail() {
        let bm = Bitmap::with_len(70, true);
        assert_eq!(bm.len(), 70);
        assert_eq!(bm.count_set(), 70);
        let bm0 = Bitmap::with_len(70, false);
        assert_eq!(bm0.count_set(), 0);
    }

    #[test]
    fn bitmap_set() {
        let mut bm = Bitmap::with_len(10, false);
        bm.set(3, true);
        bm.set(9, true);
        assert!(bm.get(3));
        assert!(bm.get(9));
        assert!(!bm.get(0));
        bm.set(3, false);
        assert!(!bm.get(3));
        assert_eq!(bm.count_set(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bitmap_get_out_of_bounds_panics() {
        let bm = Bitmap::with_len(4, true);
        bm.get(4);
    }

    #[test]
    fn column_push_and_get_roundtrip() {
        let mut c = Column::new(DataType::Float64);
        c.push(&Value::Float64(1.5)).unwrap();
        c.push(&Value::Null).unwrap();
        c.push(&Value::Int64(3)).unwrap(); // widened
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(0).unwrap(), Value::Float64(1.5));
        assert_eq!(c.get(1).unwrap(), Value::Null);
        assert_eq!(c.get(2).unwrap(), Value::Float64(3.0));
    }

    #[test]
    fn column_type_mismatch_rejected() {
        let mut c = Column::new(DataType::Int64);
        let err = c.push(&Value::Utf8("x".into())).unwrap_err();
        assert!(matches!(err, ColumnarError::TypeMismatch { .. }));
        // column unchanged
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn column_from_constructors() {
        let c = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 0);
        let c = Column::from_f64(vec![1.0; 5]);
        assert_eq!(c.len(), 5);
        let c = Column::from_bool(vec![true, false]);
        assert_eq!(c.get(1).unwrap(), Value::Bool(false));
        let c = Column::from_strings(["a", "b"]);
        assert_eq!(c.get(0).unwrap(), Value::Utf8("a".into()));
    }

    #[test]
    fn column_get_out_of_bounds() {
        let c = Column::from_i64(vec![1]);
        assert!(matches!(
            c.get(5),
            Err(ColumnarError::RowOutOfBounds { row: 5, len: 1 })
        ));
    }

    #[test]
    fn column_get_f64_and_i64() {
        let c = Column::from_i64(vec![4, 5]);
        assert_eq!(c.get_f64(0), Some(4.0));
        assert_eq!(c.get_i64(1), Some(5));
        assert_eq!(c.get_i64(9), None);
        let s = Column::from_strings(["x"]);
        assert_eq!(s.get_f64(0), None);
    }

    #[test]
    fn column_gather() {
        let c = Column::from_f64(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let g = c.gather(&[4, 0, 2]).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.get_f64(0), Some(4.0));
        assert_eq!(g.get_f64(1), Some(0.0));
        assert_eq!(g.get_f64(2), Some(2.0));
    }

    #[test]
    fn column_gather_type_mismatch() {
        let mut a = Column::new(DataType::Int64);
        let b = Column::from_f64(vec![1.0]);
        assert!(a.append(&b).is_err());
        assert!(a.is_empty());
    }

    #[test]
    fn column_gather_preserves_nulls() {
        let mut c = Column::new(DataType::Int64);
        c.push(&Value::Int64(1)).unwrap();
        c.push(&Value::Null).unwrap();
        let g = c.gather(&[1, 0]).unwrap();
        assert!(g.is_null(0));
        assert!(!g.is_null(1));
        // every type gathers exactly what pushing the values one by one
        // builds, NULL slots (stored as the type's default) included
        let columns: [(DataType, [Value; 3]); 4] = [
            (DataType::Int64, [7.into(), Value::Null, (-3).into()]),
            (DataType::Float64, [Value::Null, 2.5.into(), (-0.0).into()]),
            (DataType::Bool, [true.into(), Value::Null, false.into()]),
            (DataType::Utf8, ["a".into(), Value::Null, "bc".into()]),
        ];
        let rows = [2, 1, 1, 0];
        for (data_type, values) in columns {
            let mut c = Column::new(data_type);
            for v in &values {
                c.push(v).unwrap();
            }
            let mut expected = Column::new(data_type);
            for &row in &rows {
                expected.push(&c.get(row).unwrap()).unwrap();
            }
            let gathered = c.gather(&rows).unwrap();
            assert_eq!(gathered, expected, "{data_type:?}");
            // appending the gathered rows is pushing them one by one
            let mut appended = c.clone();
            appended.append(&gathered).unwrap();
            let mut pushed = c.clone();
            for &row in &rows {
                pushed.push(&c.get(row).unwrap()).unwrap();
            }
            assert_eq!(appended, pushed, "{data_type:?}");
        }
    }

    /// `len` rows of `data_type`, every `null_every`-th NULL; strings come
    /// from a five-letter alphabet starting at `first`.
    fn patterned(data_type: DataType, len: usize, null_every: usize, first: u8) -> Column {
        let mut c = Column::new(data_type);
        for i in 0..len {
            let v = match data_type {
                _ if null_every > 0 && i % null_every == 0 => Value::Null,
                DataType::Int64 => Value::Int64(i as i64 * 7 - 50),
                DataType::Float64 => Value::Float64(i as f64 / 3.0),
                DataType::Bool => Value::Bool(i % 3 == 1),
                DataType::Utf8 => Value::Utf8(char::from(first + (i % 5) as u8).to_string()),
            };
            c.push(&v).unwrap();
        }
        c
    }

    #[test]
    fn append_matches_pushing_row_by_row() {
        let pushed = |base: &Column, more: &Column| {
            let mut c = base.clone();
            (0..more.len()).for_each(|row| c.push(&more.get(row).unwrap()).unwrap());
            c
        };
        let values = |c: &Column| (0..c.len()).map(|i| c.get(i).unwrap()).collect::<Vec<_>>();
        // plain columns: lengths straddle the bitmap's 64-row words, with
        // and without NULLs
        let types = [
            DataType::Int64,
            DataType::Float64,
            DataType::Bool,
            DataType::Utf8,
        ];
        for data_type in types {
            for (len, more_len) in [(0, 5), (5, 0), (63, 2), (64, 64), (70, 130), (130, 70)] {
                for null_every in [0, 4] {
                    let base = patterned(data_type, len, null_every, b'a');
                    let more = patterned(data_type, more_len, null_every, b'c');
                    let mut appended = base.clone();
                    appended.append(&more).unwrap();
                    let context = format!("{data_type:?} {len}+{more_len} / {null_every}");
                    assert_eq!(appended, pushed(&base, &more), "{context}");
                }
            }
        }
        // dictionary columns: one shared dictionary (typed), two that differ
        // with new strings after or before the old ones (the old codes
        // move), and both cross-encoding directions
        let dict = |c: &Column| c.dict_encoded(16).unwrap();
        for (len, more_len, first, more_first) in [
            (10, 10, b'a', b'c'),
            (70, 3, b'a', b'c'),
            (3, 70, b'c', b'a'),
        ] {
            let base = patterned(DataType::Utf8, len, 4, first);
            let more = patterned(DataType::Utf8, more_len, 3, more_first);
            let context = format!("{len}+{more_len} from {first} and {more_first}");
            let rows: Vec<usize> = (0..more_len).rev().collect();
            let mut shared = dict(&more);
            shared.append(&dict(&more).gather(&rows).unwrap()).unwrap();
            assert_eq!(shared, dict(&pushed(&more, &more.gather(&rows).unwrap())));
            let expected = pushed(&base, &more);
            let mut both = dict(&base);
            both.append(&dict(&more)).unwrap();
            assert_eq!(values(&both), values(&expected), "{context}");
            assert_eq!(
                both.dict_parts().unwrap().1,
                dict(&expected).dict_parts().unwrap().1
            );
            let mut plain_into_dict = dict(&base);
            plain_into_dict.append(&more).unwrap();
            assert_eq!(values(&plain_into_dict), values(&expected), "{context}");
            let mut dict_into_plain = base.clone();
            dict_into_plain.append(&dict(&more)).unwrap();
            assert_eq!(dict_into_plain, expected, "{context}");
        }
    }

    #[test]
    fn column_byte_size_grows() {
        let small = Column::from_f64(vec![1.0; 10]);
        let big = Column::from_f64(vec![1.0; 1000]);
        assert!(big.byte_size() > small.byte_size());
        assert!(small.byte_size() >= 80);
    }

    #[test]
    fn column_slices() {
        let c = Column::from_f64(vec![1.0, 2.0]);
        assert_eq!(c.f64_slice(), Some(&[1.0, 2.0][..]));
        assert_eq!(c.i64_slice(), None);
        let i = Column::from_i64(vec![7]);
        assert_eq!(i.i64_slice(), Some(&[7][..]));
    }

    #[test]
    fn iter_f64_yields_nulls_as_none() {
        let mut c = Column::new(DataType::Float64);
        c.push(&Value::Float64(1.0)).unwrap();
        c.push(&Value::Null).unwrap();
        let collected: Vec<Option<f64>> = c.iter_f64().collect();
        assert_eq!(collected, vec![Some(1.0), None]);
    }

    #[test]
    fn bitmap_cached_counts_track_mutations() {
        let mut bm = Bitmap::new();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        let expected_set = (0..200).filter(|i| i % 3 == 0).count();
        assert_eq!(bm.count_set(), expected_set);
        assert_eq!(bm.count_unset(), 200 - expected_set);
        bm.set(1, true); // was false
        assert_eq!(bm.count_set(), expected_set + 1);
        bm.set(1, true); // idempotent
        assert_eq!(bm.count_set(), expected_set + 1);
        bm.set(0, false); // was true
        assert_eq!(bm.count_set(), expected_set);
        assert_eq!(Bitmap::with_len(77, false).count_unset(), 77);
        assert_eq!(Bitmap::with_len(77, true).count_unset(), 0);
    }

    #[test]
    fn bitmap_words_and_tail_invariant() {
        let mut bm = Bitmap::new();
        for _ in 0..70 {
            bm.push(true);
        }
        assert_eq!(bm.words().len(), 2);
        assert_eq!(bm.words()[0], u64::MAX);
        // bits beyond len stay zero
        assert_eq!(bm.words()[1], Bitmap::tail_mask(70) & bm.words()[1]);
        assert_eq!(bm.words()[1], (1u64 << 6) - 1);
        assert_eq!(Bitmap::tail_mask(64), u64::MAX);
        assert_eq!(Bitmap::tail_mask(1), 1);
    }

    #[test]
    fn bitmap_and_into_word_window() {
        let mut bm = Bitmap::new();
        for i in 0..130 {
            bm.push(i % 2 == 0);
        }
        let mut out = [u64::MAX; 2];
        bm.and_into(1, &mut out);
        assert_eq!(out[0], bm.words()[1]);
        assert_eq!(out[1], bm.words()[2]);
        // words past the end are treated as all-zero
        let mut out = [u64::MAX; 2];
        bm.and_into(2, &mut out);
        assert_eq!(out[0], bm.words()[2]);
        assert_eq!(out[1], 0);
    }

    #[test]
    fn dict_encode_roundtrip_and_sorted_codes() {
        let mut c = Column::new(DataType::Utf8);
        for v in ["STAR", "GALAXY", "QSO", "GALAXY", "STAR"] {
            c.push(&Value::Utf8(v.into())).unwrap();
        }
        c.push(&Value::Null).unwrap();
        let d = c.dict_encoded(usize::MAX).expect("utf8 encodes");
        assert_eq!(d.data_type(), DataType::Utf8);
        assert_eq!(d.len(), 6);
        assert_eq!(d.null_count(), 1);
        let (codes, dict) = d.dict_parts().unwrap();
        assert_eq!(dict, &["GALAXY", "QSO", "STAR"]);
        assert_eq!(codes, &[2, 0, 1, 0, 2, 0]);
        for i in 0..6 {
            assert_eq!(d.get(i).unwrap(), c.get(i).unwrap(), "row {i}");
        }
        // cardinality cap
        assert!(c.dict_encoded(2).is_none());
        // only plain Utf8 encodes
        assert!(d.dict_encoded(usize::MAX).is_none());
        assert!(Column::from_i64(vec![1]).dict_encoded(10).is_none());
    }

    #[test]
    fn dict_push_known_and_new_strings() {
        let base = Column::from_strings(["b", "d"]);
        let mut d = base.dict_encoded(usize::MAX).unwrap();
        d.push(&Value::Utf8("d".into())).unwrap(); // existing
        d.push(&Value::Utf8("a".into())).unwrap(); // new, sorts first: remap
        d.push(&Value::Utf8("c".into())).unwrap(); // new, sorts middle
        d.push(&Value::Null).unwrap();
        let (codes, dict) = d.dict_parts().unwrap();
        assert_eq!(dict, &["a", "b", "c", "d"]);
        assert_eq!(codes, &[1, 3, 3, 0, 2, 0]);
        assert!(d.is_null(5));
        let expected = ["b", "d", "d", "a", "c"];
        for (i, e) in expected.iter().enumerate() {
            assert_eq!(d.get(i).unwrap(), Value::Utf8((*e).into()));
        }
        // type mismatch still rejected
        assert!(d.push(&Value::Int64(3)).is_err());
    }

    #[test]
    fn dict_gather_preserves_encoding() {
        let mut c = Column::new(DataType::Utf8);
        for v in [Some("y"), None, Some("x"), Some("y")] {
            c.push(&v.map_or(Value::Null, |s| Value::Utf8(s.into())))
                .unwrap();
        }
        let d = c.dict_encoded(usize::MAX).unwrap();
        let g = d.gather(&[3, 1, 0]).unwrap();
        assert!(g.dict_parts().is_some(), "gather keeps dict encoding");
        assert_eq!(g.get(0).unwrap(), Value::Utf8("y".into()));
        assert_eq!(g.get(1).unwrap(), Value::Null);
        assert_eq!(g.get(2).unwrap(), Value::Utf8("y".into()));
        assert!(d.gather(&[9]).is_err());
    }

    fn strings(values: &[Option<&str>]) -> Column {
        let mut c = Column::new(DataType::Utf8);
        for v in values {
            c.push(&v.map_or(Value::Null, |s| Value::Utf8(s.into())))
                .unwrap();
        }
        c
    }

    #[test]
    fn overwrite_rows_matches_a_fresh_gather() {
        let mut source = Column::new(DataType::Float64);
        for v in [Some(1.0), None, Some(3.0), Some(4.0)] {
            source.push(&v.map_or(Value::Null, Value::Float64)).unwrap();
        }
        // slots 0..3 mirror source rows [0, 2, 3]; rows 1 and 3 replace two
        let mut mirror = source.gather(&[0, 2, 3]).unwrap();
        assert!(mirror.overwrite_rows(&source, &[(2, 1), (0, 3)]).unwrap());
        assert_eq!(mirror, source.gather(&[3, 2, 1]).unwrap());
        assert_eq!(mirror.null_count(), 1);
        // bounds and types are checked before anything is written
        assert!(mirror.overwrite_rows(&source, &[(3, 0)]).is_err());
        assert!(mirror.overwrite_rows(&source, &[(0, 4)]).is_err());
        assert!(mirror
            .overwrite_rows(&Column::from_i64(vec![1]), &[(0, 0)])
            .is_err());
    }

    #[test]
    fn overwrite_rows_keeps_dictionaries_as_fresh_encoding_would() {
        let source = strings(&[Some("a"), Some("b"), None, Some("c"), Some("zz")]);
        let fresh = |rows: &[usize]| {
            source
                .gather(rows)
                .unwrap()
                .dict_encoded(usize::MAX)
                .unwrap()
        };
        let mut mirror = fresh(&[0, 1, 3]);
        // "a" leaves the rows: its entry goes and the codes shift down
        assert!(mirror.overwrite_rows(&source, &[(0, 2), (2, 1)]).unwrap());
        assert_eq!(mirror, fresh(&[2, 1, 1]));
        assert_eq!(mirror.dict_parts().unwrap().1, &["b"]);
        // a string outside the dictionary cannot be written in place
        assert!(!mirror.overwrite_rows(&source, &[(1, 4)]).unwrap());
        // nor can a dictionary-encoded source be copied code for code
        let mut plain = source.gather(&[0]).unwrap();
        assert!(!plain.overwrite_rows(&fresh(&[1]), &[(0, 0)]).unwrap());
    }
}
