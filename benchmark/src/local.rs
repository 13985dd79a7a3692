//! The system inside the driver's process: the same table, impressions and
//! `QueryServer` that `sciborq-served` builds, for the `ingest.paced`
//! workload and for timing single layers through their public functions.

use crate::answer::Answer;
use crate::data::{self, TABLE};
use crate::gen::{Requests, Workload, BASE_ROWS, LAYERS};
use crate::spans::{self_times_ns, Recorder};
use crate::stats;
use crate::wire::ProcSize;
use sciborq_columnar::{
    AggregateKind, Catalog, CompiledPredicate, MomentSketch, RecordBatch, Table,
};
use sciborq_core::{
    EvaluationLevel, ExplorationSession, Impression, QueryBounds, QueryExecution, QueryOutcome,
    SamplingPolicy, SciborqConfig,
};
use sciborq_serve::json::Json;
use sciborq_serve::protocol::{self, Request};
use sciborq_serve::{AdmissionController, QueryServer, ServeConfig};
use sciborq_stats::ConfidenceInterval;
use sciborq_workload::{AttributeDomain, Query};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Rows per paced load and the loader's period. A load holds the hierarchy
/// write lock for ~40 ms, so queries are blocked ~40 % of the time. (A 200 ms
/// period was tried to steady `qps`; its run-to-run spread stayed ~14 %, so
/// the period ISSUE 11 named stands.)
pub const LOAD_ROWS: usize = 10_000;
pub const LOAD_PERIOD: Duration = Duration::from_millis(100);

/// Batch `k` of the rows appended after the base table.
fn load_batch(k: usize) -> RecordBatch {
    let first = (BASE_ROWS + k * LOAD_ROWS) as i64;
    data::photoobj_batch(first..first + LOAD_ROWS as i64)
}

/// An in-process server and what building it cost.
pub struct Local {
    pub server: QueryServer,
    pub build_table_s: f64,
    pub build_impressions_s: f64,
}

fn serve_config(w: &Workload) -> ServeConfig {
    let mut config = ServeConfig::default();
    if let Some((budget, queue)) = w.admission {
        config.global_row_budget = Some(budget);
        config.max_waiting = queue;
    }
    config
}

/// Build what `sciborq-served` builds for this workload's flags.
pub fn start(w: &Workload, traces: bool) -> Result<Local, String> {
    let started = Instant::now();
    let table = data::synthetic_photoobj(BASE_ROWS);
    let build_table_s = started.elapsed().as_secs_f64();
    let catalog = Catalog::new();
    catalog.register(table).map_err(|e| e.to_string())?;
    let config = SciborqConfig::with_layers(LAYERS.to_vec())
        .with_parallelism(w.parallelism)
        .with_collect_traces(traces);
    let session = ExplorationSession::new(
        catalog,
        config,
        &[
            ("ra", AttributeDomain::new(0.0, 360.0, 72)),
            ("dec", AttributeDomain::new(-90.0, 90.0, 36)),
        ],
    )
    .map_err(|e| e.to_string())?;
    let impressions = Instant::now();
    session
        .create_impressions(TABLE, SamplingPolicy::Uniform)
        .map_err(|e| e.to_string())?;
    let build_impressions_s = impressions.elapsed().as_secs_f64();
    let server = QueryServer::new(session, serve_config(w)).map_err(|e| e.to_string())?;
    Ok(Local {
        server,
        build_table_s,
        build_impressions_s,
    })
}

/// Parse a request line the way the server does.
pub fn parse(line: &str) -> Result<(Json, Query, QueryBounds), String> {
    match protocol::parse_request(line).map_err(|e| e.to_string())? {
        Request::Query { id, query, bounds } => Ok((id, *query, bounds)),
        _ => Err("not a query request".to_owned()),
    }
}

// ---------------------------------------------------------------------------
// ingest.paced
// ---------------------------------------------------------------------------

/// When batch `k` of a fixed-period schedule is due.
pub fn due(start: Instant, k: usize) -> Instant {
    start + LOAD_PERIOD * k as u32
}

/// Open-loop accounting for one load: how late it began (`lag`) and its
/// latency *from when it was due*, which charges a stall to the loads that
/// had to wait behind it.
pub fn lateness(due: Instant, began: Instant, finished: Instant) -> (Duration, Duration) {
    (
        began.saturating_duration_since(due),
        finished.saturating_duration_since(due),
    )
}

/// One query of the in-process closed loop.
pub struct LocalExchange {
    pub id: usize,
    /// When the reply came back, from the start of the window.
    pub at: Duration,
    pub latency: Duration,
    pub answer: Option<Answer>,
}

/// One repeat of `ingest.paced`.
pub struct IngestRepeat {
    pub setup_s: f64,
    pub exchanges: Vec<LocalExchange>,
    /// `(lag, latency from due)` per load.
    pub loads: Vec<(Duration, Duration)>,
    pub failed_loads: usize,
    /// The driver's own size around the window (it *is* the server here).
    pub size_start: ProcSize,
    pub size_end: ProcSize,
    /// Per distinct request body, after the last load: the approximate
    /// answer and the exact one on the same data.
    pub settled: Vec<(Option<Answer>, Option<f64>)>,
    /// Scalar-oracle mismatches on the final table.
    pub oracle_errors: Vec<String>,
    pub metrics: Json,
}

/// Run queries closed-loop for `window` while a second thread loads a
/// 10k-row batch every 100 ms on a fixed schedule, then settle: answer every
/// distinct request once more, approximately and exactly, on the final data
/// (`oracle_sample` picks the requests whose exact answer the scalar oracle
/// re-checks there).
pub fn ingest_repeat(
    w: &Workload,
    reqs: &Requests,
    window: Duration,
    traces: bool,
    oracle_sample: &[usize],
) -> Result<IngestRepeat, String> {
    let parsed: Vec<(Query, QueryBounds)> = (0..reqs.bodies.len())
        .map(|b| parse(&reqs.render(0, b)).map(|(_, q, bounds)| (q, bounds)))
        .collect::<Result<_, _>>()?;
    let exact_bounds = parse(&reqs.exact_line(0, 0))?.2;
    let batches: Vec<_> = (0..(window.as_millis() / LOAD_PERIOD.as_millis()) as usize)
        .map(load_batch)
        .collect();

    let started = Instant::now();
    let local = start(w, traces)?;
    let setup_s = started.elapsed().as_secs_f64();
    let server = &local.server;
    let submit = |id: usize, window_started: Instant| -> LocalExchange {
        let (query, bounds) = &parsed[reqs.order[id]];
        let sent = Instant::now();
        let reply = server.submit(query.clone(), *bounds);
        let received = Instant::now();
        LocalExchange {
            id,
            at: received.duration_since(window_started),
            latency: received.duration_since(sent),
            answer: Answer::from_reply(&reply),
        }
    };
    for id in 0..w.warmup {
        submit(id, started);
    }

    let own_size = || crate::wire::proc_size(std::process::id()).unwrap_or_default();
    let size_start = own_size();
    let start_at = Instant::now();
    let end_at = start_at + window;
    let (exchanges, loads) = std::thread::scope(|scope| {
        let loader = scope.spawn(|| {
            let mut loads = Vec::with_capacity(batches.len());
            let mut failed = 0usize;
            for (k, batch) in batches.iter().enumerate() {
                let due = due(start_at, k);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let began = Instant::now();
                if server.session().load(TABLE, batch).is_err() {
                    failed += 1;
                }
                loads.push(lateness(due, began, Instant::now()));
            }
            (loads, failed)
        });
        let mut exchanges = Vec::new();
        let mut id = w.warmup;
        while Instant::now() < end_at && id < reqs.order.len() {
            exchanges.push(submit(id, start_at));
            id += 1;
        }
        (exchanges, loader.join().expect("loader thread panicked"))
    });
    let (loads, failed_loads) = loads;
    let size_end = own_size();

    // Settle on the final data.
    let mut settled = Vec::with_capacity(parsed.len());
    for (query, bounds) in &parsed {
        let approx = Answer::from_reply(&server.submit(query.clone(), *bounds));
        // Straight to the session: the grown table no longer fits the
        // server's global budget, and admission would downgrade the query.
        let exact = match server.session().execute(query, &exact_bounds) {
            Ok(QueryOutcome::Aggregate(answer)) if answer.is_exact() => answer.value,
            _ => None,
        };
        settled.push((approx, exact));
    }
    let mut oracle_errors = Vec::new();
    if !oracle_sample.is_empty() {
        let handle = server
            .session()
            .catalog()
            .table(TABLE)
            .map_err(|e| e.to_string())?;
        let table = handle.read();
        for &b in oracle_sample {
            let want = data::scalar_answer(&table, &parsed[b].0)?;
            let got = settled[b].1;
            if want.map(f64::to_bits) != got.map(f64::to_bits) {
                oracle_errors.push(format!(
                    "request {b}: base answer {got:?} != scalar oracle {want:?} after loads"
                ));
            }
        }
    }
    let metrics = Json::parse(&server.metrics_snapshot().to_json()).unwrap_or(Json::Null);
    Ok(IngestRepeat {
        setup_s,
        exchanges,
        loads,
        failed_loads,
        size_start,
        size_end,
        settled,
        oracle_errors,
        metrics,
    })
}

// ---------------------------------------------------------------------------
// the traced replay
// ---------------------------------------------------------------------------

/// Lines replayed per workload.
pub const REPLAY_LINES: usize = 500;
/// Distinct queries timed against every level for `scan_us.<level>`.
const KERNEL_QUERIES: usize = 64;
/// Uncontended loads timed for `load_us`.
const TIMED_LOADS: usize = 12;

/// Median microseconds per request of each replayed step, by span name.
pub struct Replay {
    pub per_layer: BTreeMap<String, f64>,
    pub recorder: Recorder,
}

enum Sketch {
    Count(usize),
    Moments(MomentSketch),
}

/// The scan the engine runs at one level for this aggregate, with the
/// engine's own fan-out decision.
fn scan_level(
    compiled: &CompiledPredicate,
    table: &Table,
    fanout: &QueryExecution,
    column: Option<&str>,
) -> Result<Sketch, String> {
    let parts = fanout.partitioning(table.row_count());
    let result = match (column, parts) {
        (None, None) => compiled.count_matches(table).map(|(n, _)| Sketch::Count(n)),
        (None, Some(parts)) => compiled
            .count_matches_partitioned(table, &parts)
            .map(|(n, _)| Sketch::Count(n)),
        (Some(column), None) => compiled
            .filter_moments(table, column)
            .map(|(s, _)| Sketch::Moments(s)),
        (Some(column), Some(parts)) => compiled
            .filter_moments_partitioned(table, column, &parts)
            .map(|(s, _)| Sketch::Moments(s)),
    };
    result.map_err(|e| e.to_string())
}

/// The estimate the engine derives from a level's sketch.
fn estimate_level(
    impression: Option<&Impression>,
    kind: AggregateKind,
    confidence: f64,
    sketch: &Sketch,
) -> Option<f64> {
    let Some(impression) = impression else {
        // base data: the sketch is the exact answer
        return match sketch {
            Sketch::Count(n) => Some(*n as f64),
            Sketch::Moments(s) => s.aggregate(kind),
        };
    };
    let estimate = match (kind, sketch) {
        (AggregateKind::Count, Sketch::Count(n)) => impression.estimate_count_streamed(*n),
        (AggregateKind::Sum, Sketch::Moments(s)) => impression.estimate_sum_streamed(s),
        (AggregateKind::Avg, Sketch::Moments(s)) if s.matched > 0 => {
            impression.estimate_avg_streamed(s)
        }
        _ => return None,
    }
    .ok()?;
    ConfidenceInterval::from_estimate(&estimate, confidence)
        .ok()
        .map(|ci| ci.estimate)
}

/// Replay the first lines of the request file through each layer's public
/// functions, one span per call: `parse → admit → compile → scan.<level> →
/// estimate.<level> … → render` under a `replay` span, beside whole-call
/// `submit` and `execute` spans, all under one `request` root per line. The
/// levels replayed are the ones the engine visited for that query
/// (`level_scans`). Then time every level's scan for a set of distinct
/// queries, and a few uncontended loads.
pub fn replay(local: &Local, w: &Workload, reqs: &Requests) -> Result<Replay, String> {
    let server = &local.server;
    let session = server.session();
    let hierarchy = session
        .hierarchy(TABLE)
        .ok_or("the local session has no impressions")?;
    let base_handle = session.catalog().table(TABLE).map_err(|e| e.to_string())?;
    let fanout = QueryExecution::with_parallelism(sciborq_columnar::Predicate::True, w.parallelism);
    let config = serve_config(w);
    let admission = AdmissionController::new(
        config.global_row_budget,
        config.max_waiting,
        config.allow_downgrade,
        config.admission_timeout,
    );
    let mut rec = Recorder::new();
    let mut request_bytes = Vec::new();
    let mut reply_bytes = Vec::new();

    let lines = REPLAY_LINES.min(reqs.order.len());
    for id in 0..lines {
        let line = reqs.line(id);
        let rid = id as u64;
        let (id_json, query, bounds) = parse(&line)?;
        let (kind, column) = data::aggregate_of(&query);
        let root = rec.open("request", None, rid);
        let reply = rec.time("submit", root, rid, || server.submit(query.clone(), bounds));
        let outcome = rec.time("execute", root, rid, || session.execute(&query, &bounds));
        let Ok(QueryOutcome::Aggregate(answer)) = outcome else {
            return Err(format!("replay: line {id} did not execute"));
        };

        let replay = rec.open("replay", Some(root), rid);
        rec.time("parse", replay, rid, || protocol::parse_request(&line))
            .map_err(|e| e.to_string())?;
        rec.time("admit", replay, rid, || {
            let profile = session.scan_profile(&query.table)?;
            if let Ok(admitted) = admission.admit(&query.table, &profile, &bounds) {
                admission.release(admitted.cost_rows);
            }
            Ok::<(), sciborq_core::SciborqError>(())
        })
        .map_err(|e| e.to_string())?;
        let base = base_handle.read();
        let compiled = rec
            .time("compile", replay, rid, || {
                CompiledPredicate::compile(&query.predicate, base.schema())
            })
            .map_err(|e| e.to_string())?;
        for scan in &answer.level_scans {
            let name = scan.level.name();
            let impression = match scan.level {
                EvaluationLevel::Layer(n) => Some(
                    hierarchy
                        .layers()
                        .iter()
                        .find(|i| i.layer() == n)
                        .ok_or(format!("replay: the hierarchy has no layer {n}"))?,
                ),
                EvaluationLevel::BaseData => None,
            };
            let table = impression.map_or(&*base, Impression::data);
            let sketch = rec.time(&format!("scan.{name}"), replay, rid, || {
                scan_level(&compiled, table, &fanout, column)
            })?;
            let value = rec.time(&format!("estimate.{name}"), replay, rid, || {
                estimate_level(impression, kind, bounds.confidence, &sketch)
            });
            std::hint::black_box(value);
        }
        drop(base);
        let rendered = rec.time("render", replay, rid, || {
            protocol::render_reply(&id_json, &reply)
        });
        rec.close(replay);
        rec.close(root);
        request_bytes.push(line.len() as f64 + 1.0);
        reply_bytes.push(rendered.len() as f64 + 1.0);
    }

    // Per step and request: sum the spans (a request visits several
    // levels), then take medians across requests.
    let self_ns = self_times_ns(rec.spans());
    let mut by_step: BTreeMap<&str, BTreeMap<u64, f64>> = BTreeMap::new();
    for (span, own) in rec.spans().iter().zip(&self_ns) {
        let step = span.name.split('.').next().unwrap_or(&span.name);
        *by_step
            .entry(step)
            .or_default()
            .entry(span.request)
            .or_default() += *own as f64 / 1_000.0;
    }
    let mut per_layer: BTreeMap<String, f64> = BTreeMap::new();
    for step in [
        "parse", "admit", "compile", "scan", "estimate", "render", "submit", "execute",
    ] {
        let values: Vec<f64> = by_step
            .get(step)
            .ok_or(format!("replay recorded no {step} span"))?
            .values()
            .copied()
            .collect();
        per_layer.insert(format!("{step}_us"), stats::median(&values));
    }
    let us = |step: &str, request: &u64| by_step[step].get(request).copied().unwrap_or(0.0);
    let batch_wait: Vec<f64> = by_step["submit"]
        .iter()
        .map(|(r, submit)| submit - us("execute", r))
        .collect();
    let engine_self: Vec<f64> = by_step["execute"]
        .iter()
        .map(|(r, execute)| execute - us("compile", r) - us("scan", r) - us("estimate", r))
        .collect();
    per_layer.insert("batch_wait_us".to_owned(), stats::median(&batch_wait));
    per_layer.insert("engine_self_us".to_owned(), stats::median(&engine_self));
    per_layer.insert("request_bytes".to_owned(), stats::median(&request_bytes));
    per_layer.insert("reply_bytes".to_owned(), stats::median(&reply_bytes));

    // Every level's scan for a set of distinct queries, visited or not.
    let base = base_handle.read();
    let mut levels: Vec<(String, &Table)> = hierarchy
        .layers()
        .iter()
        .map(|i| (EvaluationLevel::Layer(i.layer()).name(), i.data()))
        .collect();
    levels.push((EvaluationLevel::BaseData.name(), &*base));
    let mut scan_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for q in 0..KERNEL_QUERIES.min(reqs.queries.len()) {
        let (_, query, _) = parse(&reqs.exact_line(0, q))?;
        let (_, column) = data::aggregate_of(&query);
        let compiled = CompiledPredicate::compile(&query.predicate, base.schema())
            .map_err(|e| e.to_string())?;
        for (name, table) in &levels {
            let started = Instant::now();
            std::hint::black_box(scan_level(&compiled, table, &fanout, column).is_ok());
            scan_us
                .entry(name)
                .or_default()
                .push(started.elapsed().as_nanos() as f64 / 1_000.0);
        }
    }
    for (name, table) in &levels {
        let us = stats::median(&scan_us[name.as_str()]);
        per_layer.insert(format!("scan_us.{name}"), us);
        per_layer.insert(format!("rows_per_us.{name}"), table.row_count() as f64 / us);
    }
    drop(base);

    // Uncontended loads, last: they change the data.
    let mut load_us = Vec::with_capacity(TIMED_LOADS);
    for k in 0..TIMED_LOADS {
        let batch = load_batch(k);
        let started = Instant::now();
        session.load(TABLE, &batch).map_err(|e| e.to_string())?;
        load_us.push(started.elapsed().as_nanos() as f64 / 1_000.0);
    }
    per_layer.insert("load_us".to_owned(), stats::median(&load_us));
    per_layer.insert("build_table_s".to_owned(), local.build_table_s);
    per_layer.insert("build_impressions_s".to_owned(), local.build_impressions_s);
    Ok(Replay {
        per_layer,
        recorder: rec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_are_timed_from_when_they_were_due() {
        let start = Instant::now();
        let ms = Duration::from_millis;
        let period = LOAD_PERIOD.as_millis() as u64;
        // On time: began when due, took 35 ms.
        assert_eq!(
            lateness(
                due(start, 2),
                start + ms(2 * period),
                start + ms(2 * period + 35)
            ),
            (ms(0), ms(35))
        );
        // Batch 2 stalls for a period and a half, so batch 3 begins half a
        // period late; its 35 ms of work reads as that much more from when
        // it was due.
        let began = 3 * period + period / 2;
        assert_eq!(
            lateness(due(start, 3), start + ms(began), start + ms(began + 35)),
            (ms(period / 2), ms(period / 2 + 35))
        );
        // Beginning early never counts as negative lag.
        assert_eq!(
            lateness(
                due(start, 1),
                start + ms(period - 10),
                start + ms(period + 20)
            ),
            (ms(0), ms(20))
        );
    }

    #[test]
    fn the_schedule_is_fixed_period() {
        let start = Instant::now();
        assert_eq!(due(start, 0), start);
        assert_eq!(due(start, 7) - due(start, 6), LOAD_PERIOD);
    }
}
