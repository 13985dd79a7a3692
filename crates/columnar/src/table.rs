//! Tables: collections of equal-length columns plus a schema.
//!
//! Tables support the access patterns SciBORQ needs from its MonetDB-like
//! substrate: bulk appends (the daily incremental load), row gathers (for
//! materialising impressions), full-column scans, and projections.

use crate::column::Column;
use crate::error::{ColumnarError, Result};
use crate::schema::SchemaRef;
use crate::selection::SelectionVector;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A batch of rows destined for a table, organised column-wise.
///
/// Batches are the unit of incremental load. The rows a batch appends to a
/// base table are then streamed, by row id, through the impression
/// builders, mirroring the paper's "construction algorithms reside in the
/// load process".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordBatch {
    schema: SchemaRef,
    columns: Vec<Column>,
    rows: usize,
}

impl RecordBatch {
    /// Create a batch from columns that match the schema in order and type.
    pub fn new(schema: SchemaRef, columns: Vec<Column>) -> Result<Self> {
        if columns.len() != schema.len() {
            return Err(ColumnarError::SchemaMismatch(format!(
                "expected {} columns, found {}",
                schema.len(),
                columns.len()
            )));
        }
        for (field, col) in schema.fields().iter().zip(&columns) {
            if field.data_type != col.data_type() {
                return Err(ColumnarError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.data_type.name(),
                    found: col.data_type().name(),
                });
            }
        }
        let rows = columns.first().map_or(0, Column::len);
        for (field, col) in schema.fields().iter().zip(&columns) {
            if col.len() != rows {
                return Err(ColumnarError::LengthMismatch {
                    expected: rows,
                    found: col.len(),
                });
            }
            if !field.nullable && col.null_count() > 0 {
                return Err(ColumnarError::SchemaMismatch(format!(
                    "column {} is not nullable but contains NULLs",
                    field.name
                )));
            }
        }
        Ok(RecordBatch {
            schema,
            columns,
            rows,
        })
    }

    /// The batch schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows in the batch.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self.schema.index_of(name)?;
        Ok(&self.columns[idx])
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Extract a single row as a vector of values in schema order.
    pub fn row(&self, idx: usize) -> Result<Vec<Value>> {
        if idx >= self.rows {
            return Err(ColumnarError::RowOutOfBounds {
                row: idx,
                len: self.rows,
            });
        }
        self.columns.iter().map(|c| c.get(idx)).collect()
    }
}

/// An append-only columnar table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    name: String,
    schema: SchemaRef,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Create an empty table with the given name and schema.
    pub fn new(name: impl Into<String>, schema: SchemaRef) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.data_type))
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            rows: 0,
        }
    }

    /// Create an empty table with per-column capacity pre-reserved.
    pub fn with_capacity(name: impl Into<String>, schema: SchemaRef, capacity: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, capacity))
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            rows: 0,
        }
    }

    /// Create a table that takes ownership of a batch's columns directly —
    /// the zero-copy bulk-load path for loaders and benchmarks that already
    /// build whole columns. The batch has validated column/schema agreement
    /// at construction, so no per-row copying or re-checking is needed.
    pub fn from_batch(name: impl Into<String>, batch: RecordBatch) -> Self {
        Table {
            name: name.into(),
            schema: batch.schema,
            columns: batch.columns,
            rows: batch.rows,
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows currently stored.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Approximate heap footprint of the table in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self.schema.index_of(name)?;
        Ok(&self.columns[idx])
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Append a single row given as values in schema order.
    pub fn append_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(ColumnarError::SchemaMismatch(format!(
                "expected {} values, found {}",
                self.schema.len(),
                row.len()
            )));
        }
        for (field, value) in self.schema.fields().iter().zip(row) {
            if value.is_null() && !field.nullable {
                return Err(ColumnarError::SchemaMismatch(format!(
                    "column {} is not nullable",
                    field.name
                )));
            }
        }
        // Validate types before mutating so a failed append leaves the table
        // unchanged.
        for (idx, (field, value)) in self.schema.fields().iter().zip(row).enumerate() {
            if let Some(dt) = value.data_type() {
                let compatible = dt == field.data_type
                    || (dt == crate::value::DataType::Int64
                        && field.data_type == crate::value::DataType::Float64);
                if !compatible {
                    return Err(ColumnarError::TypeMismatch {
                        column: self.schema.fields()[idx].name.clone(),
                        expected: field.data_type.name(),
                        found: value.type_name(),
                    });
                }
            }
        }
        for (col, value) in self.columns.iter_mut().zip(row) {
            col.push(value)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Append a batch of rows (the incremental-load path).
    pub fn append_batch(&mut self, batch: &RecordBatch) -> Result<()> {
        if batch.schema().fields() != self.schema.fields() {
            return Err(ColumnarError::SchemaMismatch(format!(
                "batch schema {} does not match table schema {}",
                batch.schema(),
                self.schema
            )));
        }
        for (col, src) in self.columns.iter_mut().zip(batch.columns()) {
            col.append(src)?;
        }
        self.rows += batch.row_count();
        Ok(())
    }

    /// Extract a single row as values in schema order.
    pub fn row(&self, idx: usize) -> Result<Vec<Value>> {
        if idx >= self.rows {
            return Err(ColumnarError::RowOutOfBounds {
                row: idx,
                len: self.rows,
            });
        }
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    /// Materialise the rows at the given positions, in the given order, into
    /// a new table (pass [`SelectionVector::rows`] to gather a selection).
    pub fn gather(&self, rows: &[usize], name: impl Into<String>) -> Result<Table> {
        let columns: Result<Vec<Column>> = self.columns.iter().map(|c| c.gather(rows)).collect();
        Ok(Table {
            name: name.into(),
            schema: Arc::clone(&self.schema),
            columns: columns?,
            rows: rows.len(),
        })
    }

    /// Overwrite, in place, row `slot` of this table with row `row` of
    /// `source` for every `(slot, row)` pair, column by column (see
    /// [`Column::overwrite_rows`]). Returns `Ok(false)` when some column
    /// cannot take its rows in place; the table may then be partly
    /// overwritten, and the caller rebuilds it instead.
    pub fn overwrite_rows(&mut self, source: &Table, pairs: &[(usize, usize)]) -> Result<bool> {
        if source.schema().fields() != self.schema.fields() {
            return Err(ColumnarError::SchemaMismatch(format!(
                "source schema {} does not match {}",
                source.schema(),
                self.schema
            )));
        }
        for (col, src) in self.columns.iter_mut().zip(&source.columns) {
            if !col.overwrite_rows(src, pairs)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Project the table onto a subset of columns, producing a new table that
    /// shares no data with the original.
    pub fn project(&self, names: &[&str], name: impl Into<String>) -> Result<Table> {
        let schema = Arc::new(self.schema.project(names)?);
        let mut columns = Vec::with_capacity(names.len());
        for &n in names {
            columns.push(self.column(n)?.clone());
        }
        Ok(Table {
            name: name.into(),
            schema,
            columns,
            rows: self.rows,
        })
    }

    /// Iterate the values of a numeric column as `f64`, skipping NULLs,
    /// restricted to a selection.
    pub fn numeric_values(&self, column: &str, selection: &SelectionVector) -> Result<Vec<f64>> {
        let col = self.column(column)?;
        if !col.data_type().is_numeric() {
            return Err(ColumnarError::NotNumeric(column.to_owned()));
        }
        Ok(selection.iter().filter_map(|i| col.get_f64(i)).collect())
    }

    /// Dictionary-encode every plain Utf8 column whose distinct-value count
    /// is at most `max_cardinality` (see [`Column::dict_encoded`]). Returns
    /// the number of columns converted.
    ///
    /// The table stays logically identical — dictionary encoding is a
    /// physical representation — but string predicates over the converted
    /// columns become integer-code compares in the compiled scan pipeline.
    /// Impressions apply this at materialisation time; base tables can opt
    /// in explicitly.
    pub fn dict_encode_strings(&mut self, max_cardinality: usize) -> usize {
        let mut converted = 0;
        for col in &mut self.columns {
            if let Some(encoded) = col.dict_encoded(max_cardinality) {
                *col = encoded;
                converted += 1;
            }
        }
        converted
    }
}

/// Builder that assembles a [`RecordBatch`] row by row.
///
/// Useful for synthetic data generators that produce tuples in a stream.
#[derive(Debug, Clone)]
pub struct RecordBatchBuilder {
    schema: SchemaRef,
    columns: Vec<Column>,
    rows: usize,
}

impl RecordBatchBuilder {
    /// Create a builder for the given schema.
    pub fn new(schema: SchemaRef) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.data_type))
            .collect();
        RecordBatchBuilder {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Create a builder with pre-reserved capacity.
    pub fn with_capacity(schema: SchemaRef, capacity: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, capacity))
            .collect();
        RecordBatchBuilder {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Append one row in schema order.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(ColumnarError::SchemaMismatch(format!(
                "expected {} values, found {}",
                self.schema.len(),
                row.len()
            )));
        }
        for (col, value) in self.columns.iter_mut().zip(row) {
            col.push(value)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Number of rows accumulated so far.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Finish the builder, producing a batch.
    pub fn finish(self) -> Result<RecordBatch> {
        RecordBatch::new(self.schema, self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn schema() -> SchemaRef {
        Schema::shared(vec![
            Field::new("objid", DataType::Int64),
            Field::new("ra", DataType::Float64),
            Field::nullable("r_mag", DataType::Float64),
        ])
        .unwrap()
    }

    fn sample_batch(n: usize) -> RecordBatch {
        let mut b = RecordBatchBuilder::with_capacity(schema(), n);
        for i in 0..n {
            b.push_row(&[
                Value::Int64(i as i64),
                Value::Float64(100.0 + i as f64),
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Float64(15.0 + (i % 7) as f64)
                },
            ])
            .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn batch_construction_validates_lengths() {
        let s = schema();
        let err = RecordBatch::new(
            Arc::clone(&s),
            vec![
                Column::from_i64(vec![1, 2]),
                Column::from_f64(vec![1.0]),
                Column::from_f64(vec![1.0, 2.0]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ColumnarError::LengthMismatch { .. }));
    }

    #[test]
    fn batch_construction_validates_types_and_arity() {
        let s = schema();
        let err = RecordBatch::new(Arc::clone(&s), vec![Column::from_i64(vec![1])]).unwrap_err();
        assert!(matches!(err, ColumnarError::SchemaMismatch(_)));

        let err = RecordBatch::new(
            s,
            vec![
                Column::from_f64(vec![1.0]),
                Column::from_f64(vec![1.0]),
                Column::from_f64(vec![1.0]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ColumnarError::TypeMismatch { .. }));
    }

    #[test]
    fn batch_rejects_null_in_non_nullable_column() {
        let s = schema();
        let mut objid = Column::new(DataType::Int64);
        objid.push(&Value::Null).unwrap();
        let err = RecordBatch::new(
            s,
            vec![
                objid,
                Column::from_f64(vec![1.0]),
                Column::from_f64(vec![1.0]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ColumnarError::SchemaMismatch(_)));
    }

    #[test]
    fn batch_row_access() {
        let b = sample_batch(5);
        assert_eq!(b.row_count(), 5);
        assert!(!b.is_empty());
        let row = b.row(1).unwrap();
        assert_eq!(row[0], Value::Int64(1));
        assert_eq!(row[1], Value::Float64(101.0));
        assert!(b.row(10).is_err());
        assert_eq!(b.column("ra").unwrap().len(), 5);
        assert!(b.column_at(0).is_some());
        assert!(b.column_at(9).is_none());
    }

    #[test]
    fn table_append_row_and_get() {
        let mut t = Table::new("photoobj", schema());
        assert!(t.is_empty());
        t.append_row(&[1.into(), 180.0.into(), Value::Null])
            .unwrap();
        t.append_row(&[2.into(), 190.0.into(), 17.0.into()])
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.name(), "photoobj");
        let row = t.row(0).unwrap();
        assert_eq!(row[1], Value::Float64(180.0));
        assert!(t.row(5).is_err());
    }

    #[test]
    fn table_append_row_rejects_bad_rows_atomically() {
        let mut t = Table::new("photoobj", schema());
        // wrong arity
        assert!(t.append_row(&[1.into()]).is_err());
        // null in non-nullable column
        assert!(t
            .append_row(&[Value::Null, 1.0.into(), 1.0.into()])
            .is_err());
        // wrong type
        assert!(t.append_row(&["x".into(), 1.0.into(), 1.0.into()]).is_err());
        assert_eq!(t.row_count(), 0);
        // none of the columns should have grown
        for c in t.columns() {
            assert_eq!(c.len(), 0);
        }
    }

    #[test]
    fn table_append_batch() {
        let mut t = Table::new("photoobj", schema());
        t.append_batch(&sample_batch(10)).unwrap();
        t.append_batch(&sample_batch(7)).unwrap();
        assert_eq!(t.row_count(), 17);
        assert_eq!(t.column("objid").unwrap().len(), 17);
    }

    #[test]
    fn table_append_batch_schema_mismatch() {
        let other = Schema::shared(vec![Field::new("x", DataType::Int64)]).unwrap();
        let batch = RecordBatch::new(other, vec![Column::from_i64(vec![1])]).unwrap();
        let mut t = Table::new("photoobj", schema());
        assert!(matches!(
            t.append_batch(&batch),
            Err(ColumnarError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn table_gather_selection() {
        let mut t = Table::new("photoobj", schema());
        t.append_batch(&sample_batch(10)).unwrap();
        let sel = SelectionVector::from_rows(vec![0, 3, 9]);
        let g = t.gather(sel.rows(), "sample").unwrap();
        assert_eq!(g.row_count(), 3);
        assert_eq!(g.name(), "sample");
        assert_eq!(g.row(2).unwrap()[0], Value::Int64(9));
        // schema is shared
        assert!(Arc::ptr_eq(t.schema(), g.schema()));
        // the given order is kept, so reservoirs can gather in sample order
        let shuffled = t.gather(&[9, 0, 3], "shuffled").unwrap();
        assert_eq!(shuffled.row(0).unwrap(), t.row(9).unwrap());
        assert_eq!(shuffled.row(2).unwrap(), t.row(3).unwrap());
        assert!(t.gather(&[10], "oob").is_err());
    }

    #[test]
    fn table_project() {
        let mut t = Table::new("photoobj", schema());
        t.append_batch(&sample_batch(4)).unwrap();
        let p = t.project(&["ra"], "ra_only").unwrap();
        assert_eq!(p.schema().names(), vec!["ra"]);
        assert_eq!(p.row_count(), 4);
        assert!(t.project(&["nope"], "x").is_err());
    }

    #[test]
    fn table_numeric_values_skips_nulls() {
        let mut t = Table::new("photoobj", schema());
        t.append_batch(&sample_batch(8)).unwrap();
        let sel = SelectionVector::all(8);
        let vals = t.numeric_values("r_mag", &sel).unwrap();
        // rows 0 and 4 are NULL
        assert_eq!(vals.len(), 6);
        assert!(matches!(
            t.numeric_values("missing", &sel),
            Err(ColumnarError::ColumnNotFound(_))
        ));
    }

    #[test]
    fn table_numeric_values_rejects_strings() {
        let s = Schema::shared(vec![Field::new("class", DataType::Utf8)]).unwrap();
        let mut t = Table::new("t", s);
        t.append_row(&["GALAXY".into()]).unwrap();
        assert!(matches!(
            t.numeric_values("class", &SelectionVector::all(1)),
            Err(ColumnarError::NotNumeric(_))
        ));
    }

    #[test]
    fn table_byte_size_tracks_growth() {
        let mut t = Table::new("photoobj", schema());
        let before = t.byte_size();
        t.append_batch(&sample_batch(1000)).unwrap();
        assert!(t.byte_size() > before);
    }

    #[test]
    fn builder_rejects_wrong_arity() {
        let mut b = RecordBatchBuilder::new(schema());
        assert!(b.push_row(&[1.into()]).is_err());
        assert_eq!(b.row_count(), 0);
    }
}
