//! `sciborq-served`: a line-delimited JSON query server over stdio.
//!
//! Builds a synthetic `photoobj` table, creates an impression hierarchy,
//! then answers one JSON request per stdin line with one JSON response per
//! stdout line (see [`sciborq_serve::protocol`] for the wire format,
//! including the `metrics` and `trace` introspection commands).
//! Requests are served concurrently — each line is handed to a worker
//! thread, so responses may interleave; match them by `id`.
//!
//! Diagnostics go to stderr as structured `key=value` lines
//! (`ts=… level=… event=… …`); tune verbosity with `--log-level`.
//!
//! ```text
//! sciborq-served [--rows N] [--layers A,B,...] [--policy uniform|biased]
//!                [--parallelism N] [--shared-scans on|off]
//!                [--global-budget N] [--queue N] [--downgrade on|off]
//!                [--batch-window-us N] [--traces on|off]
//!                [--log-level error|warn|info|debug] [--metrics-out PATH]
//! ```

use sciborq_columnar::{Catalog, DataType, Field, Schema, Table, Value};
use sciborq_core::{ExplorationSession, SamplingPolicy, SciborqConfig};
use sciborq_serve::{protocol, QueryServer, ServeConfig};
use sciborq_telemetry::{LogLevel, Logger};
use sciborq_workload::AttributeDomain;
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Options {
    rows: usize,
    layers: Vec<usize>,
    policy: SamplingPolicy,
    parallelism: usize,
    traces: bool,
    log_level: LogLevel,
    metrics_out: Option<String>,
    serve: ServeConfig,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        rows: 200_000,
        layers: vec![20_000, 2_000],
        policy: SamplingPolicy::Uniform,
        parallelism: 1,
        traces: true,
        log_level: LogLevel::Info,
        metrics_out: None,
        serve: ServeConfig::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--rows" => opts.rows = value()?.parse().map_err(|e| format!("--rows: {e}"))?,
            "--layers" => {
                opts.layers = value()?
                    .split(',')
                    .map(|part| part.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--layers: {e}"))?;
            }
            "--policy" => {
                opts.policy = match value()?.as_str() {
                    "uniform" => SamplingPolicy::Uniform,
                    "biased" => SamplingPolicy::biased(["ra", "dec"]),
                    other => return Err(format!("unknown policy '{other}'")),
                };
            }
            "--parallelism" => {
                opts.parallelism = value()?
                    .parse()
                    .map_err(|e| format!("--parallelism: {e}"))?;
            }
            "--shared-scans" => opts.serve.shared_scans = on_off(&value()?)?,
            "--downgrade" => opts.serve.allow_downgrade = on_off(&value()?)?,
            "--traces" => opts.traces = on_off(&value()?)?,
            "--log-level" => opts.log_level = value()?.parse()?,
            "--metrics-out" => opts.metrics_out = Some(value()?),
            "--global-budget" => {
                opts.serve.global_row_budget = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--global-budget: {e}"))?,
                );
            }
            "--queue" => {
                opts.serve.max_waiting = value()?.parse().map_err(|e| format!("--queue: {e}"))?;
            }
            "--batch-window-us" => {
                let us: u64 = value()?
                    .parse()
                    .map_err(|e| format!("--batch-window-us: {e}"))?;
                opts.serve.batch_window = Duration::from_micros(us);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

fn on_off(value: &str) -> Result<bool, String> {
    match value {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("expected on|off, got '{other}'")),
    }
}

fn synthetic_photoobj(rows: usize) -> Table {
    let schema = Schema::shared(vec![
        Field::new("objid", DataType::Int64),
        Field::new("ra", DataType::Float64),
        Field::new("dec", DataType::Float64),
        Field::new("r_mag", DataType::Float64),
    ])
    .expect("schema");
    let mut table = Table::new("photoobj", schema);
    for i in 0..rows as i64 {
        // a deterministic low-discrepancy sky: fine for serving demos
        let ra = (i as f64 * 137.507_764).rem_euclid(360.0);
        let dec = (i as f64 * 57.295_779).rem_euclid(180.0) - 90.0;
        let r_mag = 14.0 + (i % 1_000) as f64 / 125.0;
        table
            .append_row(&[
                Value::Int64(i),
                Value::Float64(ra),
                Value::Float64(dec),
                Value::Float64(r_mag),
            ])
            .expect("append");
    }
    table
}

fn build_server(opts: &Options) -> Result<QueryServer, String> {
    let catalog = Catalog::new();
    catalog
        .register(synthetic_photoobj(opts.rows))
        .map_err(|e| e.to_string())?;
    let config = SciborqConfig::with_layers(opts.layers.clone())
        .with_parallelism(opts.parallelism)
        .with_collect_traces(opts.traces);
    let session = ExplorationSession::new(
        catalog,
        config,
        &[
            ("ra", AttributeDomain::new(0.0, 360.0, 72)),
            ("dec", AttributeDomain::new(-90.0, 90.0, 36)),
        ],
    )
    .map_err(|e| e.to_string())?;
    session
        .create_impressions("photoobj", opts.policy.clone())
        .map_err(|e| e.to_string())?;
    QueryServer::new(session, opts.serve.clone()).map_err(|e| e.to_string())
}

fn main() {
    let opts = match parse_options() {
        Ok(opts) => opts,
        Err(message) => {
            Logger::new(LogLevel::Info).error("bad_flags", &[("message", message)]);
            std::process::exit(2);
        }
    };
    let logger = Logger::new(opts.log_level);
    let server = match build_server(&opts) {
        Ok(server) => Arc::new(server),
        Err(message) => {
            logger.error("startup_failed", &[("message", message)]);
            std::process::exit(1);
        }
    };
    logger.info(
        "ready",
        &[
            ("table", "photoobj".to_owned()),
            ("rows", opts.rows.to_string()),
            ("layers", format!("{:?}", opts.layers)),
            ("traces", if opts.traces { "on" } else { "off" }.to_owned()),
        ],
    );

    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for line in std::io::stdin().lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let server = Arc::clone(&server);
        let stdout = Arc::clone(&stdout);
        // Drop the handles of finished workers before spawning the next
        // one: a finished thread is only reaped once its handle goes, so
        // holding every handle until EOF kept one exited thread (and its
        // stack mapping) alive per request until spawning failed.
        workers.retain(|worker| !worker.is_finished());
        workers.push(std::thread::spawn(move || {
            let response = match protocol::parse_request(&line) {
                Ok(protocol::Request::Query { id, query, bounds }) => {
                    logger.debug(
                        "query",
                        &[("table", query.table.clone()), ("id", id.render())],
                    );
                    let reply = server.submit(*query, bounds);
                    protocol::render_reply(&id, &reply)
                }
                Ok(protocol::Request::Metrics { id }) => {
                    logger.debug("metrics", &[("id", id.render())]);
                    protocol::render_metrics(&id, &server.metrics_snapshot())
                }
                Ok(protocol::Request::Trace { id, limit }) => {
                    logger.debug(
                        "trace",
                        &[("id", id.render()), ("limit", limit.to_string())],
                    );
                    protocol::render_traces(&id, &server.recent_traces(limit))
                }
                Err(error) => {
                    logger.warn(
                        "bad_request",
                        &[
                            ("code", error.code().to_owned()),
                            ("message", error.to_string()),
                        ],
                    );
                    protocol::render_protocol_error(error.id(), &error)
                }
            };
            let mut out = stdout.lock().unwrap();
            let _ = writeln!(out, "{response}");
            let _ = out.flush();
        }));
    }
    for worker in workers {
        let _ = worker.join();
    }
    if let Some(path) = &opts.metrics_out {
        let snapshot = server.metrics_snapshot().to_json();
        match std::fs::write(path, snapshot + "\n") {
            Ok(()) => logger.info("metrics_written", &[("path", path.clone())]),
            Err(err) => logger.error(
                "metrics_write_failed",
                &[("path", path.clone()), ("message", err.to_string())],
            ),
        }
    }
    let stats = server.stats();
    logger.info(
        "shutdown",
        &[
            ("served", stats.served.to_string()),
            ("rejected", stats.rejected.to_string()),
            ("downgraded", stats.downgraded.to_string()),
            ("shared_batches", stats.shared_batches.to_string()),
        ],
    );
}
