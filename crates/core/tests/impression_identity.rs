//! Bit-identity of the impression hierarchy across storage formats.
//!
//! Every layer of a hierarchy is hashed (FNV-1a over each row's values,
//! the per-row weights, `source_rows` and `total_observed_weight`) and
//! compared against constants recorded from a known-good build. A change
//! to how reservoirs store their sample or how layers are materialised
//! must leave these hashes untouched: the RNG stream and the sample order
//! are the contract, the physical representation is not.
//!
//! The same hierarchy is also built incrementally, through
//! `ExplorationSession::load` in three batches, and compared layer by layer
//! with a one-shot `LayerHierarchy::build_from_table` over the final table.
//! A wrong base-row offset for a later batch shows up there.

use sciborq_columnar::{
    Catalog, DataType, Field, RecordBatch, RecordBatchBuilder, Schema, SchemaRef, Table, Value,
};
use sciborq_core::{ExplorationSession, Impression, LayerHierarchy, SamplingPolicy, SciborqConfig};
use sciborq_workload::{AttributeDomain, PredicateSet};

const ROWS_PER_BATCH: usize = 8_000;
const BATCHES: usize = 3;

fn schema() -> SchemaRef {
    Schema::shared(vec![
        Field::new("objid", DataType::Int64),
        Field::new("ra", DataType::Float64),
        Field::nullable("z", DataType::Float64),
        Field::new("class", DataType::Utf8),
    ])
    .unwrap()
}

/// Rows `start..start + rows` of a deterministic sky: a third of the
/// objects cluster near ra = 185, every seventh redshift is NULL, and the
/// class column has three values (so impressions dictionary-encode it).
fn batch(start: usize, rows: usize) -> RecordBatch {
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
        let class = ["GALAXY", "STAR", "QSO"][(objid % 3) as usize];
        b.push_row(&[Value::Int64(objid), Value::Float64(ra), z, class.into()])
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

fn focused_predicate_set() -> PredicateSet {
    let mut ps = PredicateSet::new(&tracked()).unwrap();
    focus(&mut ps);
    ps
}

fn config() -> SciborqConfig {
    SciborqConfig::with_layers(vec![2_000, 400, 50])
}

/// Each policy with the hash of its three layers.
fn policies() -> [(SamplingPolicy, u64); 3] {
    [
        (SamplingPolicy::Uniform, UNIFORM_HASH),
        (SamplingPolicy::last_seen(0.5, 4_000.0), LAST_SEEN_HASH),
        (SamplingPolicy::biased(["ra"]), BIASED_HASH),
    ]
}

// Recorded from the boxed-row reservoirs (each sampled row stored as a
// `Vec<Value>`), before reservoirs switched to base row ids.
const UNIFORM_HASH: u64 = 10_282_657_695_952_569_422;
const LAST_SEEN_HASH: u64 = 1_811_567_477_218_704_694;
const BIASED_HASH: u64 = 13_549_927_406_025_434_039;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Int64(x) => {
                self.bytes(&[1]);
                self.bytes(&x.to_le_bytes());
            }
            Value::Float64(x) => {
                self.bytes(&[2]);
                self.u64(x.to_bits());
            }
            Value::Bool(x) => self.bytes(&[3, u8::from(*x)]),
            Value::Utf8(s) => {
                self.bytes(&[4]);
                self.u64(s.len() as u64);
                self.bytes(s.as_bytes());
            }
        }
    }
}

fn layer_hash(h: &mut Fnv, layer: &Impression) {
    let data = layer.data();
    h.u64(data.row_count() as u64);
    for row in 0..data.row_count() {
        for v in data.row(row).unwrap() {
            h.value(&v);
        }
    }
    for w in layer.weights() {
        h.u64(w.to_bits());
    }
    h.u64(layer.source_rows());
    h.u64(layer.total_observed_weight().to_bits());
}

fn hierarchy_hash(hierarchy: &LayerHierarchy) -> u64 {
    let mut h = Fnv::new();
    for layer in hierarchy.layers() {
        layer_hash(&mut h, layer);
    }
    h.0
}

fn full_table() -> Table {
    let mut table = Table::new("photoobj", schema());
    for i in 0..BATCHES {
        table
            .append_batch(&batch(i * ROWS_PER_BATCH, ROWS_PER_BATCH))
            .unwrap();
    }
    table
}

/// The hierarchy a session ends with after loading the table in batches.
fn loaded_through_session(policy: SamplingPolicy) -> LayerHierarchy {
    let catalog = Catalog::new();
    catalog
        .register(Table::from_batch("photoobj", batch(0, ROWS_PER_BATCH)))
        .unwrap();
    let session = ExplorationSession::new(catalog, config(), &tracked()).unwrap();
    focus(&mut session.predicate_set());
    session.create_impressions("photoobj", policy).unwrap();
    for i in 1..BATCHES {
        session
            .load("photoobj", &batch(i * ROWS_PER_BATCH, ROWS_PER_BATCH))
            .unwrap();
    }
    let hierarchy = session.hierarchy("photoobj").unwrap();
    (*hierarchy).clone()
}

fn assert_same_layers(incremental: &LayerHierarchy, one_shot: &LayerHierarchy, policy: &str) {
    assert_eq!(incremental.observed_rows(), one_shot.observed_rows());
    assert_eq!(incremental.layers().len(), one_shot.layers().len());
    for (a, b) in incremental.layers().iter().zip(one_shot.layers()) {
        let (mut ha, mut hb) = (Fnv::new(), Fnv::new());
        layer_hash(&mut ha, a);
        layer_hash(&mut hb, b);
        assert_eq!(ha.0, hb.0, "{policy}: layer {} differs", a.layer());
    }
}

#[test]
fn hierarchy_hashes_match_recorded_constants() {
    let table = full_table();
    let ps = focused_predicate_set();
    for (policy, expected) in policies() {
        let name = policy.name().to_owned();
        let hierarchy =
            LayerHierarchy::build_from_table(&table, policy, &config(), Some(&ps)).unwrap();
        assert_eq!(hierarchy.layers().len(), 3);
        assert_eq!(hierarchy_hash(&hierarchy), expected, "{name}: hash changed");
    }
}

#[test]
fn session_loads_match_one_shot_build() {
    let table = full_table();
    let ps = focused_predicate_set();
    for (policy, expected) in policies() {
        let name = policy.name().to_owned();
        let incremental = loaded_through_session(policy.clone());
        let one_shot =
            LayerHierarchy::build_from_table(&table, policy, &config(), Some(&ps)).unwrap();
        assert_same_layers(&incremental, &one_shot, &name);
        assert_eq!(
            hierarchy_hash(&incremental),
            expected,
            "{name}: hash changed"
        );
    }
}
