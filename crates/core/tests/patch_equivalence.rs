//! Loads patch the layers they changed; the result is the one-shot build.
//!
//! After a load, a hierarchy overwrites in place only the layer-1 sample
//! slots the load's rows replaced, and the derived slots that map to them;
//! it falls back to a full materialisation while layer 1 is filling and
//! when a patched string is missing from a dictionary-encoded column. This
//! suite loads a table in many small batches through
//! `ExplorationSession::load` — from empty, so the loads that fill layer 1
//! and each derived layer for the first time are among them — and after
//! every load compares the session's hierarchy, layer by layer and bit for
//! bit, with `LayerHierarchy::build_from_table` over the same table: rows
//! (including each dictionary's exact contents), weights, selection
//! probabilities, `source_rows` and `total_observed_weight`.

use sciborq_columnar::{
    Catalog, DataType, Field, RecordBatch, RecordBatchBuilder, Schema, SchemaRef, Table, Value,
};
use sciborq_core::{ExplorationSession, Impression, LayerHierarchy, SamplingPolicy, SciborqConfig};
use sciborq_workload::{AttributeDomain, PredicateSet};

const LOADS: usize = 60;

fn schema() -> SchemaRef {
    Schema::shared(vec![
        Field::new("objid", DataType::Int64),
        Field::new("ra", DataType::Float64),
        Field::nullable("z", DataType::Float64),
        Field::nullable("class", DataType::Utf8),
    ])
    .unwrap()
}

/// Rows `start..start + rows`: a third cluster near ra = 185, every
/// seventh redshift and every 61st class is NULL, and one object in 97 is
/// a rare class — so small layers gain and lose whole dictionary entries.
/// Rows from `novel_from` on carry a class no earlier row has.
fn batch(start: usize, rows: usize, novel_from: usize) -> RecordBatch {
    let mut b = RecordBatchBuilder::with_capacity(schema(), rows);
    for i in start..start + rows {
        let objid = i as i64;
        let ra = if objid % 3 == 0 {
            185.0 + (objid % 11) as f64 * 0.25
        } else {
            (objid * 37 % 3_600) as f64 / 10.0
        };
        let z = if objid % 7 == 0 {
            Value::Null
        } else {
            Value::Float64((objid % 97) as f64 / 97.0)
        };
        let class = if i >= novel_from && i.is_multiple_of(5) {
            "NOVEL".into()
        } else if objid % 61 == 0 {
            Value::Null
        } else if objid % 97 == 0 {
            "WHITE_DWARF".into()
        } else {
            ["GALAXY", "STAR", "QSO"][(objid % 3) as usize].into()
        };
        b.push_row(&[Value::Int64(objid), Value::Float64(ra), z, class])
            .unwrap();
    }
    b.finish().unwrap()
}

fn tracked() -> Vec<(&'static str, AttributeDomain)> {
    vec![("ra", AttributeDomain::new(0.0, 360.0, 36))]
}

fn focus(ps: &mut PredicateSet) {
    for _ in 0..200 {
        ps.log_value("ra", 185.0);
        ps.log_value("ra", 186.5);
    }
}

fn config() -> SciborqConfig {
    SciborqConfig::with_layers(vec![2_000, 400, 50])
}

/// Deterministic load sizes in 1..=500, starting with single-row loads.
fn load_sizes() -> Vec<usize> {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    (0..LOADS)
        .map(|k| {
            if k < 3 {
                return 1;
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            1 + (state % 500) as usize
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(patched: &Impression, built: &Impression, context: &str) {
    assert_eq!(patched.name(), built.name(), "{context}");
    // `Table` equality compares every column's physical form: values,
    // validity bitmaps and each dictionary entry for entry.
    assert_eq!(patched.data(), built.data(), "{context}: rows differ");
    for (a, b) in patched.data().columns().iter().zip(built.data().columns()) {
        if let (Some(a), Some(b)) = (a.f64_slice(), b.f64_slice()) {
            assert_eq!(bits(a), bits(b), "{context}: float bits differ");
        }
    }
    assert_eq!(
        bits(patched.weights()),
        bits(built.weights()),
        "{context}: weights differ"
    );
    assert_eq!(
        bits(patched.selection_probabilities()),
        bits(built.selection_probabilities()),
        "{context}: probabilities differ"
    );
    assert_eq!(patched.source_rows(), built.source_rows(), "{context}");
    assert_eq!(
        patched.total_observed_weight().to_bits(),
        built.total_observed_weight().to_bits(),
        "{context}: total observed weight differs"
    );
}

/// Load `LOADS` batches into an empty table under `policy`, comparing the
/// session's hierarchy with a one-shot build after every load; rows from
/// `novel_from` on introduce a class outside every existing dictionary.
fn loads_match_one_shot_builds(policy: SamplingPolicy, novel_from: usize) {
    let name = policy.name().to_owned();
    let catalog = Catalog::new();
    catalog.register(Table::new("photoobj", schema())).unwrap();
    let session = ExplorationSession::new(catalog, config(), &tracked()).unwrap();
    focus(&mut session.predicate_set());
    session
        .create_impressions("photoobj", policy.clone())
        .unwrap();
    let mut ps = PredicateSet::new(&tracked()).unwrap();
    focus(&mut ps);

    let mut loaded = 0;
    let mut saw_dictionary = false;
    for (k, rows) in load_sizes().into_iter().enumerate() {
        session
            .load("photoobj", &batch(loaded, rows, novel_from))
            .unwrap();
        loaded += rows;
        let table = session.catalog().table("photoobj").unwrap().read().clone();
        let patched = session.hierarchy("photoobj").unwrap();
        let built =
            LayerHierarchy::build_from_table(&table, policy.clone(), &config(), Some(&ps)).unwrap();
        assert_eq!(patched.observed_rows(), loaded as u64);
        assert_eq!(patched.layers().len(), built.layers().len());
        for (a, b) in patched.layers().iter().zip(built.layers()) {
            assert_bit_identical(a, b, &format!("{name}, load {k}, layer {}", a.layer()));
            saw_dictionary |= a.data().column("class").unwrap().dict_parts().is_some();
        }
    }
    assert!(loaded > 2 * 2_000, "layer 1 must fill and then be patched");
    assert!(saw_dictionary, "class columns must be dictionary-encoded");
}

#[test]
fn uniform_loads_patch_bit_identically() {
    loads_match_one_shot_builds(SamplingPolicy::Uniform, usize::MAX);
}

#[test]
fn last_seen_loads_patch_bit_identically() {
    loads_match_one_shot_builds(SamplingPolicy::last_seen(0.5, 300.0), usize::MAX);
}

#[test]
fn biased_loads_patch_bit_identically() {
    loads_match_one_shot_builds(SamplingPolicy::biased(["ra"]), usize::MAX);
}

#[test]
fn a_string_outside_the_dictionary_falls_back_to_a_full_build() {
    // Halfway through the loads, once layer 1 is full, every fifth row
    // carries a class none of the layers' dictionaries holds.
    let halfway: usize = load_sizes()[..LOADS / 2].iter().sum();
    assert!(halfway > 2_000);
    loads_match_one_shot_builds(SamplingPolicy::Uniform, halfway);
}
