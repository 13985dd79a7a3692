//! The synthetic `photoobj` sky, rebuilt in the driver with the same formula
//! as `sciborq-served`'s `synthetic_photoobj`, and the scalar oracle over it.

use sciborq_columnar::{
    compute_aggregate, AggregateKind, Column, DataType, Field, RecordBatch, Schema, SchemaRef,
    Table, Value,
};
use sciborq_workload::{Query, QueryKind};
use std::ops::Range;

pub const TABLE: &str = "photoobj";

pub fn schema() -> SchemaRef {
    Schema::shared(vec![
        Field::new("objid", DataType::Int64),
        Field::new("ra", DataType::Float64),
        Field::new("dec", DataType::Float64),
        Field::new("r_mag", DataType::Float64),
    ])
    .expect("the photoobj schema is valid")
}

fn sky(i: i64) -> (f64, f64, f64) {
    let ra = (i as f64 * 137.507_764).rem_euclid(360.0);
    let dec = (i as f64 * 57.295_779).rem_euclid(180.0) - 90.0;
    let r_mag = 14.0 + (i % 1_000) as f64 / 125.0;
    (ra, dec, r_mag)
}

/// The table `sciborq-served --rows <rows>` builds, built the way it builds
/// it (row by row), so `build_table_s` times the path the server pays.
pub fn synthetic_photoobj(rows: usize) -> Table {
    let mut table = Table::new(TABLE, schema());
    for i in 0..rows as i64 {
        let (ra, dec, r_mag) = sky(i);
        table
            .append_row(&[
                Value::Int64(i),
                Value::Float64(ra),
                Value::Float64(dec),
                Value::Float64(r_mag),
            ])
            .expect("row matches the schema");
    }
    table
}

/// Rows `ids` of the same sky as one batch: what the paced loader appends.
pub fn photoobj_batch(ids: Range<i64>) -> RecordBatch {
    let (mut ra, mut dec, mut r_mag) = (Vec::new(), Vec::new(), Vec::new());
    for i in ids.clone() {
        let (a, d, m) = sky(i);
        ra.push(a);
        dec.push(d);
        r_mag.push(m);
    }
    RecordBatch::new(
        schema(),
        vec![
            Column::from_i64(ids.collect()),
            Column::from_f64(ra),
            Column::from_f64(dec),
            Column::from_f64(r_mag),
        ],
    )
    .expect("columns match the schema")
}

/// The aggregate kind and column of an aggregate query.
pub fn aggregate_of(query: &Query) -> (AggregateKind, Option<&str>) {
    match &query.kind {
        QueryKind::Aggregate { kind, column } => (*kind, column.as_deref()),
        QueryKind::Select => unreachable!("the benchmark generates aggregates only"),
    }
}

/// The scalar oracle: `Predicate::evaluate` + `compute_aggregate`, the
/// reference every fast path is bit-identical to.
pub fn scalar_answer(table: &Table, query: &Query) -> Result<Option<f64>, String> {
    let selection = query.predicate.evaluate(table).map_err(|e| e.to_string())?;
    let (kind, column) = aggregate_of(query);
    compute_aggregate(table, column, kind, &selection)
        .map(|result| result.value)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_and_row_paths_build_the_same_sky() {
        let table = synthetic_photoobj(2_500);
        let tail = Table::from_batch(TABLE, photoobj_batch(1_000..2_500));
        for column in ["objid", "ra", "dec", "r_mag"] {
            for row in 0..1_500 {
                assert_eq!(
                    table.column(column).unwrap().get(1_000 + row).unwrap(),
                    tail.column(column).unwrap().get(row).unwrap(),
                );
            }
        }
    }
}
