//! Bit-identity of SELECT answers across execution modes.
//!
//! Every SELECT answer is hashed (FNV-1a over each returned row's values in
//! order, the bits of `estimated_total_matches`, the level, the escalation
//! count and the measured `rows_scanned`) and compared against constants
//! recorded from a known-good build. The same cases run three ways:
//!
//! - **serial** — one query at a time, `parallelism` 1;
//! - **sharded** — one query at a time, `parallelism` 2, so the 10k-row
//!   layer and the 40k-row base table fan out over two shards;
//! - **batched** — every case in one engine batch at `parallelism` 2, each
//!   SELECT beside a COUNT over the same predicate, and two SELECTs that
//!   share a predicate but not a LIMIT.
//!
//! A predicate with a lazily type-mismatched literal checks its whole
//! column once per scanned batch or shard and reports that work honestly,
//! so its `rows_scanned` depends on how the scan is cut and stays out of the
//! hash; everything else about its answer is hashed.

use sciborq_columnar::{DataType, Field, Predicate, Schema, SchemaRef, Table, Value};
use sciborq_core::{
    BoundedQueryEngine, EvaluationLevel, LayerHierarchy, QueryBounds, QueryOutcome, SamplingPolicy,
    SciborqConfig, SelectAnswer,
};
use sciborq_workload::{AttributeDomain, PredicateSet, Query};

const BASE_ROWS: usize = 40_000;

fn schema() -> SchemaRef {
    Schema::shared(vec![
        Field::new("objid", DataType::Int64),
        Field::new("ra", DataType::Float64),
        Field::nullable("z", DataType::Float64),
        Field::new("class", DataType::Utf8),
        Field::nullable("note", DataType::Int64),
    ])
    .unwrap()
}

/// A deterministic sky: a third of the objects cluster near ra = 185,
/// every seventh redshift is NULL, the class column has three values (so
/// impressions dictionary-encode it), and `note` is NULL everywhere.
fn table() -> Table {
    let mut table = Table::new("photoobj", schema());
    for i in 0..BASE_ROWS {
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
        table
            .append_row(&[
                Value::Int64(objid),
                Value::Float64(ra),
                z,
                class.into(),
                Value::Null,
            ])
            .unwrap();
    }
    table
}

fn config() -> SciborqConfig {
    SciborqConfig::with_layers(vec![10_000, 1_000])
}

fn focused_predicate_set() -> PredicateSet {
    let mut ps = PredicateSet::new(&[("ra", AttributeDomain::new(0.0, 360.0, 36))]).unwrap();
    for _ in 0..200 {
        ps.log_value("ra", 185.0);
        ps.log_value("ra", 186.5);
    }
    ps
}

/// Each policy with the hash of its cases, the same in every mode.
fn policies() -> [(SamplingPolicy, u64); 3] {
    [
        (SamplingPolicy::Uniform, UNIFORM_HASH),
        (SamplingPolicy::last_seen(0.5, 20_000.0), LAST_SEEN_HASH),
        (SamplingPolicy::biased(["ra"]), BIASED_HASH),
    ]
}

// Recorded through `BoundedQueryEngine::execute_select`, the SELECT
// escalation loop that preceded the shared one, where serial and sharded
// runs already hashed alike.
const UNIFORM_HASH: u64 = 10_829_089_144_843_037_675;
const LAST_SEEN_HASH: u64 = 7_062_531_167_901_358_542;
const BIASED_HASH: u64 = 13_413_186_722_171_416_867;

/// One SELECT case: the query, its bounds, and whether its `rows_scanned`
/// is hashed.
struct Case {
    query: Query,
    bounds: QueryBounds,
    hash_rows_scanned: bool,
}

fn case(predicate: Predicate, limit: Option<usize>, bounds: QueryBounds) -> Case {
    let mut query = Query::select("photoobj", predicate);
    query.limit = limit;
    Case {
        query,
        bounds,
        hash_rows_scanned: true,
    }
}

fn cases() -> Vec<Case> {
    let min_rows = QueryBounds {
        min_result_rows: Some(300),
        ..QueryBounds::default()
    };
    let mut mismatched = case(
        Predicate::lt("ra", 90.0).or(Predicate::eq("note", "x")),
        Some(100),
        QueryBounds::default(),
    );
    mismatched.hash_rows_scanned = false;
    vec![
        // answered on the smallest layer
        case(Predicate::lt("ra", 90.0), Some(100), QueryBounds::default()),
        // same predicate, another LIMIT: shares the first case's scan group
        case(Predicate::lt("ra", 90.0), Some(10), QueryBounds::default()),
        // the focused region: escalates once the small layer runs short
        case(
            Predicate::between("ra", 184.0, 187.0),
            Some(400),
            QueryBounds::default(),
        ),
        // a row budget pins the answer to the 1k-row layer
        case(
            Predicate::lt("ra", 1.8),
            Some(500),
            QueryBounds::row_budget(2_000),
        ),
        // selective: escalates through both layers into the base data
        case(
            Predicate::lt("objid", 150),
            Some(50),
            QueryBounds::default(),
        ),
        // no LIMIT: every match, from the base data
        case(Predicate::lt("ra", 36.0), None, QueryBounds::default()),
        // a minimum row count above the LIMIT can never be met by the
        // truncated result, so the query ends at the base data
        case(Predicate::eq("class", "QSO"), Some(20), min_rows),
        // NULLs and a conjunction
        case(
            Predicate::lt("z", 0.2).and(Predicate::between("ra", 100.0, 200.0)),
            Some(30),
            QueryBounds::default(),
        ),
        mismatched,
    ]
}

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

    fn answer(&mut self, answer: &SelectAnswer, hash_rows_scanned: bool) {
        let rows = &answer.rows;
        self.u64(rows.row_count() as u64);
        for row in 0..rows.row_count() {
            for v in rows.row(row).unwrap() {
                self.value(&v);
            }
        }
        self.u64(answer.estimated_total_matches.to_bits());
        self.u64(match answer.level {
            EvaluationLevel::Layer(n) => n as u64,
            EvaluationLevel::BaseData => 0,
        });
        self.u64(answer.escalations as u64);
        if hash_rows_scanned {
            self.u64(answer.rows_scanned);
        }
    }
}

fn engine(parallelism: usize) -> BoundedQueryEngine {
    BoundedQueryEngine::new(SciborqConfig::default().with_parallelism(parallelism)).unwrap()
}

/// Answer every case on its own.
fn one_at_a_time(
    engine: &BoundedQueryEngine,
    cases: &[Case],
    hierarchy: &LayerHierarchy,
    table: &Table,
) -> Vec<SelectAnswer> {
    cases
        .iter()
        .map(|c| {
            let answer = engine
                .execute_batch(&[(&c.query, &c.bounds)], hierarchy, Some(table))
                .pop()
                .unwrap();
            rows(answer.unwrap())
        })
        .collect()
}

/// Answer every case in one batch, each SELECT beside a COUNT over the
/// same predicate.
fn batched(
    engine: &BoundedQueryEngine,
    cases: &[Case],
    hierarchy: &LayerHierarchy,
    table: &Table,
) -> Vec<SelectAnswer> {
    let counts: Vec<Query> = cases
        .iter()
        .map(|c| Query::count("photoobj", c.query.predicate.clone()))
        .collect();
    let count_bounds = QueryBounds::max_error(0.05);
    let requests: Vec<(&Query, &QueryBounds)> = cases
        .iter()
        .zip(&counts)
        .flat_map(|(c, count)| [(&c.query, &c.bounds), (count, &count_bounds)])
        .collect();
    let answers = engine.execute_batch(&requests, hierarchy, Some(table));
    assert_eq!(answers.len(), requests.len());
    assert!(answers
        .iter()
        .skip(1)
        .step_by(2)
        .all(|count| matches!(count, Ok(QueryOutcome::Aggregate(_)))));
    answers
        .into_iter()
        .step_by(2)
        .map(|answer| rows(answer.unwrap()))
        .collect()
}

fn rows(outcome: QueryOutcome) -> SelectAnswer {
    match outcome {
        QueryOutcome::Rows(answer) => answer,
        QueryOutcome::Aggregate(_) => panic!("a SELECT answers with rows"),
    }
}

fn hash(cases: &[Case], answers: &[SelectAnswer]) -> u64 {
    assert_eq!(cases.len(), answers.len());
    let mut h = Fnv::new();
    for (c, answer) in cases.iter().zip(answers) {
        h.answer(answer, c.hash_rows_scanned);
    }
    h.0
}

#[test]
fn select_hashes_match_recorded_constants() {
    let table = table();
    let ps = focused_predicate_set();
    let cases = cases();
    for (policy, expected) in policies() {
        let name = policy.name().to_owned();
        let h = LayerHierarchy::build_from_table(&table, policy, &config(), Some(&ps)).unwrap();
        let got_serial = hash(&cases, &one_at_a_time(&engine(1), &cases, &h, &table));
        let sharded_answers = one_at_a_time(&engine(2), &cases, &h, &table);
        assert!(
            sharded_answers
                .iter()
                .any(|a| a.level_scans.iter().any(|l| l.shards == 2)),
            "{name}: the sharded run never fanned out"
        );
        let got_sharded = hash(&cases, &sharded_answers);
        let got_batched = hash(&cases, &batched(&engine(2), &cases, &h, &table));

        assert_eq!(got_serial, expected, "{name}: serial hash changed");
        assert_eq!(got_sharded, expected, "{name}: sharded hash changed");
        assert_eq!(got_batched, expected, "{name}: batched hash changed");
    }
}
