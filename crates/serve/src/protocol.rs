//! The line-delimited JSON wire protocol of `sciborq-served`.
//!
//! One request object per line:
//!
//! ```json
//! {"id": 7,
//!  "query": {"table": "photoobj", "kind": "count",
//!            "predicate": {"op": "lt", "column": "ra", "value": 90.0}},
//!  "bounds": {"max_relative_error": 0.05, "max_rows_scanned": 100000,
//!             "confidence": 0.95, "time_budget_ms": 50}}
//! ```
//!
//! `kind` is one of `select | count | sum | avg | min | max | var`
//! (aggregates other than `count` need `"column"`; `select` accepts
//! `"limit"`). Predicate `op`s: `true`, `false`, `lt`, `le`, `gt`, `ge`,
//! `eq`, `ne`, `between` (`low`/`high`), `is_null`, `is_not_null`, `and` /
//! `or` (`args` array), `not` (`arg`). All bounds fields are optional.
//!
//! Besides queries, two introspection commands share the wire:
//!
//! * `{"id":8,"cmd":"metrics"}` — a snapshot of the server's metrics
//!   registry: `{"id":8,"status":"ok","metrics":{"engine.queries":3,...}}`
//!   (histograms render as `{count,sum,p50,p90,p99}` objects).
//! * `{"id":9,"cmd":"trace","limit":4}` — the most recent per-query
//!   escalation traces, newest first (`limit` defaults to 16):
//!   `{"id":9,"status":"ok","traces":[{...}]}`.
//!
//! One response object per line, `id` echoed:
//!
//! * `{"id":7,"status":"ok","answer":{...}}` — value, interval, level,
//!   measured `rows_scanned` / `elapsed_us` / `queued_micros` and the
//!   honesty flags `error_bound_met` / `time_bound_met` / `downgraded` /
//!   `degraded` (the answer survived an isolated internal fault by skipping
//!   part of the layer hierarchy; bounds are re-measured on what actually
//!   ran). When the server collects traces, the answer also carries a
//!   `trace` object (admission verdict, per-level scans, bound verdicts,
//!   fault events).
//! * `{"id":7,"status":"overloaded","reason":"cost-exceeds-budget",...}` —
//!   the typed load-shedding answer (`reason` may also be
//!   `admission-timeout` when the bounded admission wait expired).
//! * `{"id":7,"status":"error","code":"...","message":"..."}` — `code` is
//!   `malformed` (bytes that are not JSON within the parser's size/depth
//!   bounds), `invalid-request` (JSON that is not a request),
//!   `internal-fault` (an isolated fault consumed every rung of the
//!   degradation ladder) or `query-error` (anything else typed). A
//!   `malformed` line has no document to read an id from, so its `id` is
//!   `null`; every other error echoes the request's `id`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::admission::Overloaded;
use crate::json::{Json, JsonError};
use crate::server::ServerReply;
use sciborq_columnar::{AggregateKind, Predicate, Value};
use sciborq_core::{
    ApproximateAnswer, EvaluationLevel, MetricsSnapshot, QueryBounds, QueryTrace, SelectAnswer,
};
use sciborq_workload::Query;
use std::time::Duration;

/// A parsed request line: a bounded query or an introspection command.
#[derive(Debug, Clone)]
pub enum Request {
    /// Execute a bounded query (boxed: queries dwarf the other variants).
    Query {
        /// The client's correlation id, echoed verbatim in the response.
        id: Json,
        /// The query to execute.
        query: Box<Query>,
        /// The requested bounds.
        bounds: QueryBounds,
    },
    /// Snapshot the server's metrics registry.
    Metrics {
        /// The client's correlation id, echoed verbatim in the response.
        id: Json,
    },
    /// Fetch the most recent per-query escalation traces.
    Trace {
        /// The client's correlation id, echoed verbatim in the response.
        id: Json,
        /// Maximum number of traces to return, newest first.
        limit: usize,
    },
}

/// A typed request-parse failure. The discriminator travels on the wire as
/// a `code` field so clients can distinguish garbage bytes (`malformed`,
/// including oversized and over-nested input) from well-formed JSON that is
/// not a valid request (`invalid-request`).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The line is not valid JSON within the parser's size/depth bounds.
    Malformed(JsonError),
    /// Valid JSON, but not a valid request object.
    Invalid {
        /// The document's `id`, echoed on the error reply (`null` when the
        /// document has none).
        id: Json,
        /// What makes the document not a request.
        message: String,
    },
}

impl ProtocolError {
    /// Stable machine-readable discriminator for the wire.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::Malformed(_) => "malformed",
            ProtocolError::Invalid { .. } => "invalid-request",
        }
    }

    /// The id to echo on the error reply: the request's own `id` when the
    /// line parsed as JSON, `null` when it never did.
    pub fn id(&self) -> &Json {
        match self {
            ProtocolError::Malformed(_) => &Json::Null,
            ProtocolError::Invalid { id, .. } => id,
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Malformed(err) => write!(f, "malformed JSON: {err}"),
            ProtocolError::Invalid { message, .. } => f.write_str(message),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let doc = Json::parse(line).map_err(ProtocolError::Malformed)?;
    parse_request_doc(&doc).map_err(|message| ProtocolError::Invalid {
        id: doc.get("id").cloned().unwrap_or(Json::Null),
        message,
    })
}

fn parse_request_doc(doc: &Json) -> Result<Request, String> {
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    if let Some(cmd) = doc.get("cmd") {
        let cmd = cmd.as_str().ok_or("'cmd' must be a string")?;
        return match cmd {
            "metrics" => Ok(Request::Metrics { id }),
            "trace" => {
                let limit = match doc.get("limit").and_then(Json::as_f64) {
                    Some(n) if n >= 1.0 => n as usize,
                    Some(_) => return Err("'limit' must be a positive number".to_owned()),
                    None => 16,
                };
                Ok(Request::Trace { id, limit })
            }
            other => Err(format!("unknown command '{other}'")),
        };
    }
    let query_doc = doc.get("query").ok_or("missing 'query'")?;
    let query = parse_query(query_doc)?;
    let bounds = match doc.get("bounds") {
        Some(bounds_doc) => parse_bounds(bounds_doc)?,
        None => QueryBounds::default(),
    };
    Ok(Request::Query {
        id,
        query: Box::new(query),
        bounds,
    })
}

fn parse_query(doc: &Json) -> Result<Query, String> {
    let table = doc
        .get("table")
        .and_then(Json::as_str)
        .ok_or("query needs a 'table' string")?;
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("query needs a 'kind' string")?;
    let predicate = match doc.get("predicate") {
        Some(p) => parse_predicate(p)?,
        None => Predicate::True,
    };
    let column = || {
        doc.get("column")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("aggregate '{kind}' needs a 'column' string"))
    };
    let query = match kind {
        "select" => {
            let q = Query::select(table, predicate);
            match doc.get("limit").and_then(Json::as_f64) {
                Some(limit) if limit >= 1.0 => q.with_limit(limit as usize),
                Some(_) => return Err("'limit' must be a positive number".to_owned()),
                None => q,
            }
        }
        "count" => Query::count(table, predicate),
        "sum" => Query::aggregate(table, predicate, AggregateKind::Sum, column()?),
        "avg" => Query::aggregate(table, predicate, AggregateKind::Avg, column()?),
        "min" => Query::aggregate(table, predicate, AggregateKind::Min, column()?),
        "max" => Query::aggregate(table, predicate, AggregateKind::Max, column()?),
        "var" => Query::aggregate(table, predicate, AggregateKind::Variance, column()?),
        other => return Err(format!("unknown query kind '{other}'")),
    };
    Ok(query)
}

fn parse_value(doc: &Json) -> Result<Value, String> {
    match doc {
        Json::Num(n) => Ok(Value::Float64(*n)),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Str(s) => Ok(Value::Utf8(s.clone())),
        Json::Null => Ok(Value::Null),
        _ => Err("predicate literals must be scalars".to_owned()),
    }
}

fn parse_predicate(doc: &Json) -> Result<Predicate, String> {
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or("predicate needs an 'op' string")?;
    let column = || {
        doc.get("column")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("predicate op '{op}' needs a 'column' string"))
    };
    let value = || {
        doc.get("value")
            .ok_or_else(|| format!("predicate op '{op}' needs a 'value'"))
            .and_then(parse_value)
    };
    let args = || -> Result<Vec<Predicate>, String> {
        doc.get("args")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("predicate op '{op}' needs an 'args' array"))?
            .iter()
            .map(parse_predicate)
            .collect()
    };
    Ok(match op {
        "true" => Predicate::True,
        "false" => Predicate::False,
        "lt" => Predicate::lt(column()?, value()?),
        "le" => Predicate::lt_eq(column()?, value()?),
        "gt" => Predicate::gt(column()?, value()?),
        "ge" => Predicate::gt_eq(column()?, value()?),
        "eq" => Predicate::eq(column()?, value()?),
        "ne" => Predicate::Compare {
            column: column()?,
            op: sciborq_columnar::CompareOp::NotEq,
            value: value()?,
        },
        "between" => {
            let low = parse_value(doc.get("low").ok_or("'between' needs 'low'")?)?;
            let high = parse_value(doc.get("high").ok_or("'between' needs 'high'")?)?;
            Predicate::Between {
                column: column()?,
                low,
                high,
            }
        }
        "is_null" => Predicate::IsNull(column()?),
        "is_not_null" => Predicate::IsNotNull(column()?),
        "and" => Predicate::And(args()?),
        "or" => Predicate::Or(args()?),
        "not" => {
            let arg = doc.get("arg").ok_or("'not' needs an 'arg' predicate")?;
            Predicate::Not(Box::new(parse_predicate(arg)?))
        }
        other => return Err(format!("unknown predicate op '{other}'")),
    })
}

fn parse_bounds(doc: &Json) -> Result<QueryBounds, String> {
    let mut bounds = QueryBounds::default();
    if let Some(e) = doc.get("max_relative_error").and_then(Json::as_f64) {
        bounds.max_relative_error = Some(e);
    }
    if let Some(c) = doc.get("confidence").and_then(Json::as_f64) {
        bounds.confidence = c;
    }
    if let Some(r) = doc.get("max_rows_scanned").and_then(Json::as_f64) {
        if r < 0.0 {
            return Err("'max_rows_scanned' must be non-negative".to_owned());
        }
        bounds.max_rows_scanned = Some(r as u64);
    }
    if let Some(ms) = doc.get("time_budget_ms").and_then(Json::as_f64) {
        if !(ms >= 0.0) {
            return Err("'time_budget_ms' must be non-negative".to_owned());
        }
        let budget = Duration::try_from_secs_f64(ms / 1_000.0)
            .map_err(|_| "'time_budget_ms' is out of range".to_owned())?;
        bounds.time_budget = Some(budget);
    }
    if let Some(n) = doc.get("min_result_rows").and_then(Json::as_f64) {
        if !(n >= 0.0) {
            return Err("'min_result_rows' must be non-negative".to_owned());
        }
        bounds.min_result_rows = Some(n as usize);
    }
    Ok(bounds)
}

fn level_json(level: EvaluationLevel) -> Json {
    match level {
        EvaluationLevel::Layer(n) => Json::Str(format!("layer-{n}")),
        EvaluationLevel::BaseData => Json::Str("base".to_owned()),
    }
}

/// Re-parse a telemetry-rendered JSON document into the serve codec so it
/// embeds structurally (telemetry renders strings; it owns the schema).
fn embed_telemetry_json(rendered: &str) -> Json {
    Json::parse(rendered).unwrap_or(Json::Null)
}

fn trace_json(trace: &QueryTrace) -> Json {
    embed_telemetry_json(&trace.to_json())
}

fn aggregate_json(answer: &ApproximateAnswer, downgraded: bool, queued: Duration) -> Json {
    let mut fields = vec![
        ("query".to_owned(), Json::Str(answer.query.clone())),
        (
            "value".to_owned(),
            answer.value.map_or(Json::Null, Json::Num),
        ),
    ];
    match &answer.interval {
        Some(ci) => {
            fields.push(("ci_lower".to_owned(), Json::Num(ci.lower)));
            fields.push(("ci_upper".to_owned(), Json::Num(ci.upper)));
            fields.push(("confidence".to_owned(), Json::Num(ci.confidence)));
        }
        None => {
            fields.push(("ci_lower".to_owned(), Json::Null));
            fields.push(("ci_upper".to_owned(), Json::Null));
        }
    }
    fields.extend([
        ("level".to_owned(), level_json(answer.level)),
        (
            "rows_scanned".to_owned(),
            Json::Num(answer.rows_scanned as f64),
        ),
        (
            "escalations".to_owned(),
            Json::Num(answer.escalations as f64),
        ),
        (
            "elapsed_us".to_owned(),
            Json::Num(answer.elapsed.as_micros() as f64),
        ),
        (
            "error_bound_met".to_owned(),
            Json::Bool(answer.error_bound_met),
        ),
        (
            "time_bound_met".to_owned(),
            Json::Bool(answer.time_bound_met),
        ),
        ("downgraded".to_owned(), Json::Bool(downgraded)),
        ("degraded".to_owned(), Json::Bool(answer.degraded)),
        (
            "queued_micros".to_owned(),
            Json::Num(queued.as_micros() as f64),
        ),
    ]);
    if let Some(trace) = &answer.trace {
        fields.push(("trace".to_owned(), trace_json(trace)));
    }
    Json::Obj(fields)
}

fn rows_json(answer: &SelectAnswer, downgraded: bool, queued: Duration) -> Json {
    let mut fields = vec![
        ("query".to_owned(), Json::Str(answer.query.clone())),
        (
            "rows_returned".to_owned(),
            Json::Num(answer.returned_rows() as f64),
        ),
        (
            "estimated_total_matches".to_owned(),
            Json::Num(answer.estimated_total_matches),
        ),
        ("level".to_owned(), level_json(answer.level)),
        (
            "rows_scanned".to_owned(),
            Json::Num(answer.rows_scanned as f64),
        ),
        (
            "escalations".to_owned(),
            Json::Num(answer.escalations as f64),
        ),
        (
            "elapsed_us".to_owned(),
            Json::Num(answer.elapsed.as_micros() as f64),
        ),
        ("downgraded".to_owned(), Json::Bool(downgraded)),
        ("degraded".to_owned(), Json::Bool(answer.degraded)),
        (
            "queued_micros".to_owned(),
            Json::Num(queued.as_micros() as f64),
        ),
    ];
    if let Some(trace) = &answer.trace {
        fields.push(("trace".to_owned(), trace_json(trace)));
    }
    Json::Obj(fields)
}

fn overloaded_json(o: &Overloaded) -> Vec<(String, Json)> {
    vec![
        ("reason".to_owned(), Json::Str(o.reason.to_string())),
        ("table".to_owned(), Json::Str(o.table.clone())),
        ("cost_rows".to_owned(), Json::Num(o.cost_rows as f64)),
        ("budget_rows".to_owned(), Json::Num(o.budget_rows as f64)),
        (
            "in_flight_rows".to_owned(),
            Json::Num(o.in_flight_rows as f64),
        ),
        ("waiting".to_owned(), Json::Num(o.waiting as f64)),
    ]
}

/// Render one response line (without trailing newline) for a reply.
pub fn render_reply(id: &Json, reply: &ServerReply) -> String {
    let mut fields = vec![("id".to_owned(), id.clone())];
    match reply {
        ServerReply::Aggregate {
            answer,
            downgraded,
            queued,
        } => {
            fields.push(("status".to_owned(), Json::Str("ok".to_owned())));
            fields.push((
                "answer".to_owned(),
                aggregate_json(answer, *downgraded, *queued),
            ));
        }
        ServerReply::Rows {
            answer,
            downgraded,
            queued,
        } => {
            fields.push(("status".to_owned(), Json::Str("ok".to_owned())));
            fields.push(("answer".to_owned(), rows_json(answer, *downgraded, *queued)));
        }
        ServerReply::Overloaded(o) => {
            fields.push(("status".to_owned(), Json::Str("overloaded".to_owned())));
            fields.extend(overloaded_json(o));
        }
        ServerReply::Failed(err) => {
            let code = match err {
                sciborq_core::SciborqError::Internal { .. } => "internal-fault",
                _ => "query-error",
            };
            fields.push(("status".to_owned(), Json::Str("error".to_owned())));
            fields.push(("code".to_owned(), Json::Str(code.to_owned())));
            fields.push(("message".to_owned(), Json::Str(err.to_string())));
        }
    }
    Json::Obj(fields).render()
}

/// Render a `metrics` command response: the live registry snapshot.
pub fn render_metrics(id: &Json, snapshot: &MetricsSnapshot) -> String {
    Json::Obj(vec![
        ("id".to_owned(), id.clone()),
        ("status".to_owned(), Json::Str("ok".to_owned())),
        (
            "metrics".to_owned(),
            embed_telemetry_json(&snapshot.to_json()),
        ),
    ])
    .render()
}

/// Render a `trace` command response: recent traces, newest first.
pub fn render_traces(id: &Json, traces: &[QueryTrace]) -> String {
    Json::Obj(vec![
        ("id".to_owned(), id.clone()),
        ("status".to_owned(), Json::Str("ok".to_owned())),
        (
            "traces".to_owned(),
            Json::Arr(traces.iter().map(trace_json).collect()),
        ),
    ])
    .render()
}

/// Render a parse/protocol error as a response line. `code` distinguishes
/// `malformed` (bytes that were never JSON) from `invalid-request` (JSON
/// that was not a request) so clients and fuzzers can assert typed replies.
pub fn render_protocol_error(id: &Json, error: &ProtocolError) -> String {
    Json::Obj(vec![
        ("id".to_owned(), id.clone()),
        ("status".to_owned(), Json::Str("error".to_owned())),
        ("code".to_owned(), Json::Str(error.code().to_owned())),
        ("message".to_owned(), Json::Str(error.to_string())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciborq_workload::QueryKind;

    #[test]
    fn parses_a_full_request() {
        let line = r#"{"id": 3, "query": {"table": "photoobj", "kind": "sum", "column": "r_mag",
            "predicate": {"op": "and", "args": [
                {"op": "between", "column": "ra", "low": 10.0, "high": 20.0},
                {"op": "not", "arg": {"op": "is_null", "column": "dec"}}]}},
            "bounds": {"max_relative_error": 0.05, "max_rows_scanned": 5000, "time_budget_ms": 2.5}}"#;
        let Request::Query { id, query, bounds } = parse_request(line).unwrap() else {
            panic!("expected a query request");
        };
        assert_eq!(id, Json::Num(3.0));
        assert_eq!(query.table, "photoobj");
        assert!(matches!(
            query.kind,
            QueryKind::Aggregate {
                kind: AggregateKind::Sum,
                ..
            }
        ));
        assert!(matches!(&query.predicate, Predicate::And(parts) if parts.len() == 2));
        assert_eq!(bounds.max_relative_error, Some(0.05));
        assert_eq!(bounds.max_rows_scanned, Some(5_000));
        assert_eq!(bounds.time_budget, Some(Duration::from_micros(2_500)));
    }

    #[test]
    fn bounds_default_when_absent() {
        let Request::Query { id, query, bounds } =
            parse_request(r#"{"query": {"table": "t", "kind": "count"}}"#).unwrap()
        else {
            panic!("expected a query request");
        };
        assert_eq!(id, Json::Null);
        assert_eq!(bounds.max_rows_scanned, None);
        assert!(matches!(query.predicate, Predicate::True));
    }

    #[test]
    fn parses_introspection_commands() {
        assert!(matches!(
            parse_request(r#"{"id": 1, "cmd": "metrics"}"#).unwrap(),
            Request::Metrics { .. }
        ));
        let Request::Trace { limit, .. } = parse_request(r#"{"cmd": "trace"}"#).unwrap() else {
            panic!("expected a trace request");
        };
        assert_eq!(limit, 16);
        let Request::Trace { limit, .. } =
            parse_request(r#"{"cmd": "trace", "limit": 3}"#).unwrap()
        else {
            panic!("expected a trace request");
        };
        assert_eq!(limit, 3);
        assert!(parse_request(r#"{"cmd": "trace", "limit": 0}"#).is_err());
        assert!(parse_request(r#"{"cmd": "flush"}"#).is_err());
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(parse_request("{}").is_err());
        assert!(parse_request(r#"{"query": {"table": "t", "kind": "median"}}"#).is_err());
        assert!(parse_request(r#"{"query": {"table": "t", "kind": "sum"}}"#).is_err());
        assert!(parse_request(
            r#"{"query": {"table": "t", "kind": "count", "predicate": {"op": "near"}}}"#
        )
        .is_err());
        // A budget past `Duration`'s range (or infinite) is a typed error.
        for ms in ["1e300", "1e400"] {
            let line = format!(
                r#"{{"query": {{"table": "t", "kind": "count"}}, "bounds": {{"time_budget_ms": {ms}}}}}"#
            );
            assert!(matches!(
                parse_request(&line),
                Err(ProtocolError::Invalid { .. })
            ));
        }
        // A negative row floor would silently become 0.
        assert!(matches!(
            parse_request(
                r#"{"query": {"table": "t", "kind": "count"}, "bounds": {"min_result_rows": -5}}"#
            ),
            Err(ProtocolError::Invalid { .. })
        ));
    }

    #[test]
    fn invalid_requests_keep_their_id() {
        for (line, id) in [
            (
                r#"{"id": 3, "query": {"table": "t", "kind": "count"}, "bounds": {"max_rows_scanned": -5}}"#,
                3.0,
            ),
            (
                r#"{"id": 4, "query": {"table": "t", "kind": "median"}}"#,
                4.0,
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code(), "invalid-request", "{line}");
            assert_eq!(err.id(), &Json::Num(id), "{line}");
            let doc = Json::parse(&render_protocol_error(err.id(), &err)).unwrap();
            assert_eq!(doc.get("id").unwrap().as_f64(), Some(id), "{line}");
            assert_eq!(doc.get("code").unwrap().as_str(), Some("invalid-request"));
        }
        // A line that never parsed has no id to echo.
        assert_eq!(parse_request(r#"{"id": 5,"#).unwrap_err().id(), &Json::Null);
    }

    #[test]
    fn renders_overload_and_error_lines() {
        let overload = ServerReply::Overloaded(Overloaded {
            table: "photoobj".to_owned(),
            cost_rows: 100,
            budget_rows: 50,
            in_flight_rows: 40,
            waiting: 2,
            reason: crate::admission::OverloadReason::QueueFull,
        });
        let line = render_reply(&Json::Num(9.0), &overload);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("overloaded"));
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("queue-full"));
        assert_eq!(doc.get("id").unwrap().as_f64(), Some(9.0));

        let err = render_protocol_error(
            &Json::Null,
            &ProtocolError::Invalid {
                id: Json::Null,
                message: "bad line".to_owned(),
            },
        );
        let doc = Json::parse(&err).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(doc.get("code").unwrap().as_str(), Some("invalid-request"));
    }

    #[test]
    fn garbage_bytes_are_malformed_and_bad_requests_are_invalid() {
        // Not JSON at all → malformed.
        let err = parse_request("{\"id\": 3,").unwrap_err();
        assert_eq!(err.code(), "malformed");
        assert!(matches!(
            err,
            ProtocolError::Malformed(JsonError::Syntax { .. })
        ));
        // A nesting bomb → malformed (typed, no stack overflow).
        let bomb = "[".repeat(1 << 16);
        let err = parse_request(&bomb).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Malformed(JsonError::TooDeep { .. })
        ));
        // Valid JSON, bogus request → invalid-request.
        let err = parse_request(r#"{"query": {"table": "t", "kind": "median"}}"#).unwrap_err();
        assert_eq!(err.code(), "invalid-request");
        // The rendered line carries the code.
        let doc = Json::parse(&render_protocol_error(&Json::Null, &err)).unwrap();
        assert_eq!(doc.get("code").unwrap().as_str(), Some("invalid-request"));
    }

    #[test]
    fn ok_replies_carry_the_degraded_flag() {
        use sciborq_core::ApproximateAnswer;
        let answer = ApproximateAnswer {
            query: "count(photoobj)".to_owned(),
            value: Some(10.0),
            interval: None,
            level: EvaluationLevel::Layer(1),
            rows_scanned: 100,
            escalations: 0,
            elapsed: Duration::from_micros(50),
            error_bound_met: true,
            time_bound_met: true,
            degraded: true,
            fault_events: Vec::new(),
            level_scans: Vec::new(),
            trace: None,
        };
        let reply = ServerReply::Aggregate {
            answer,
            downgraded: false,
            queued: Duration::ZERO,
        };
        let doc = Json::parse(&render_reply(&Json::Num(1.0), &reply)).unwrap();
        let body = doc.get("answer").unwrap();
        assert_eq!(body.get("degraded").unwrap().as_bool(), Some(true));
        assert_eq!(body.get("downgraded").unwrap().as_bool(), Some(false));
    }
}
