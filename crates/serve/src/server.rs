//! The concurrent query server: admission, shared-scan batching, replies.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::admission::{Admission, AdmissionController, Overloaded};
use crate::config::ServeConfig;
use sciborq_core::{
    AdmissionTrace, ApproximateAnswer, ExplorationSession, MetricsRegistry, MetricsSnapshot,
    QueryBounds, QueryOutcome, QueryTrace, SciborqError, SelectAnswer,
};
use sciborq_telemetry::{Counter, Gauge, Histogram};
use sciborq_workload::Query;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a query submitted to the server comes back as.
#[derive(Debug, Clone)]
pub enum ServerReply {
    /// A bounded aggregate answer. `downgraded` is true when admission
    /// tightened the query's row budget to fit the global budget.
    Aggregate {
        /// The engine's answer, with its measured honesty flags.
        answer: ApproximateAnswer,
        /// Whether the row budget was tightened by admission control.
        downgraded: bool,
        /// Time the query spent blocked on the admission queue.
        queued: Duration,
    },
    /// A row-returning answer.
    Rows {
        /// The engine's answer.
        answer: SelectAnswer,
        /// Whether the row budget was tightened by admission control.
        downgraded: bool,
        /// Time the query spent blocked on the admission queue.
        queued: Duration,
    },
    /// The server shed the query; the payload says exactly why.
    Overloaded(Overloaded),
    /// The engine rejected or failed the query.
    Failed(SciborqError),
}

impl ServerReply {
    /// The aggregate answer, if this reply carries one.
    pub fn as_aggregate(&self) -> Option<&ApproximateAnswer> {
        match self {
            ServerReply::Aggregate { answer, .. } => Some(answer),
            _ => None,
        }
    }

    /// Whether this reply is a typed overload rejection.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ServerReply::Overloaded(_))
    }

    /// Whether admission control downgraded the query behind this reply.
    pub fn downgraded(&self) -> bool {
        match self {
            ServerReply::Aggregate { downgraded, .. } | ServerReply::Rows { downgraded, .. } => {
                *downgraded
            }
            _ => false,
        }
    }

    /// Time the query behind this reply spent blocked on the admission
    /// queue (zero for shed and failed-before-admission queries).
    pub fn queued(&self) -> Duration {
        match self {
            ServerReply::Aggregate { queued, .. } | ServerReply::Rows { queued, .. } => *queued,
            _ => Duration::ZERO,
        }
    }
}

/// Cumulative serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Queries answered by the engine (including engine-level errors).
    pub served: u64,
    /// Queries shed with a typed overload reply.
    pub rejected: u64,
    /// Served queries whose row budget admission control tightened.
    pub downgraded: u64,
    /// Shared scan passes executed (each covers one drained batch).
    pub shared_batches: u64,
}

struct PendingQuery {
    query: Query,
    bounds: QueryBounds,
    downgraded: bool,
    queued: Duration,
    admission: AdmissionTrace,
    reply: mpsc::Sender<ServerReply>,
}

#[derive(Default)]
struct BatchQueue {
    items: Vec<PendingQuery>,
    shutdown: bool,
}

/// The server's registered metric handles — the serving-side half of the
/// process-wide registry the session owns (cached `Arc`s, one relaxed
/// atomic per event).
#[derive(Debug)]
struct ServeMetrics {
    /// `serve.queries_served` — queries answered by the engine (including
    /// engine-level errors).
    queries_served: Arc<Counter>,
    /// `serve.queries_shed` — queries refused with a typed overload.
    queries_shed: Arc<Counter>,
    /// `serve.queries_downgraded` — served queries whose row budget
    /// admission tightened.
    queries_downgraded: Arc<Counter>,
    /// `serve.shared_batches` — shared scan passes executed.
    shared_batches: Arc<Counter>,
    /// `serve.batch_size` — queries coalesced per shared pass.
    batch_size: Arc<Histogram>,
    /// `serve.batch_queue_depth` — queries awaiting the scheduler.
    batch_queue_depth: Arc<Gauge>,
    /// `serve.reply_micros` — submit-to-reply wall time (queue wait
    /// included).
    reply_micros: Arc<Histogram>,
    /// `serve.scheduler_restarts` — times the shared-scan scheduler thread
    /// was restarted after a caught panic.
    scheduler_restarts: Arc<Counter>,
    /// `serve.batch_faults` — shared passes lost to a caught panic; their
    /// members were replayed individually, so no client was stranded.
    batch_faults: Arc<Counter>,
    /// `serve.admission_faults` — admissions lost to a caught panic (typed
    /// `Internal` replies; nothing was reserved against the budget).
    admission_faults: Arc<Counter>,
}

impl ServeMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        ServeMetrics {
            queries_served: registry.counter("serve.queries_served"),
            queries_shed: registry.counter("serve.queries_shed"),
            queries_downgraded: registry.counter("serve.queries_downgraded"),
            shared_batches: registry.counter("serve.shared_batches"),
            batch_size: registry.histogram("serve.batch_size"),
            batch_queue_depth: registry.gauge("serve.batch_queue_depth"),
            reply_micros: registry.histogram("serve.reply_micros"),
            scheduler_restarts: registry.counter("serve.scheduler_restarts"),
            batch_faults: registry.counter("serve.batch_faults"),
            admission_faults: registry.counter("serve.admission_faults"),
        }
    }
}

struct ServerInner {
    session: ExplorationSession,
    config: ServeConfig,
    admission: AdmissionController,
    queue: Mutex<BatchQueue>,
    pending: Condvar,
    metrics: ServeMetrics,
}

/// A long-lived front end serving concurrent bounded queries from one
/// exploration session.
///
/// `submit` is blocking and thread-safe: call it from as many client
/// threads as you like. Queries — aggregates and SELECTs — are (when
/// enabled) coalesced by a background scheduler thread into shared scan
/// passes via
/// [`ExplorationSession::execute_batch`]; answers are bit-identical to
/// serial execution either way.
pub struct QueryServer {
    inner: Arc<ServerInner>,
    scheduler: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("config", &self.inner.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl QueryServer {
    /// Start a server over a session. Spawns the shared-scan scheduler
    /// thread when shared scans are enabled.
    pub fn new(session: ExplorationSession, config: ServeConfig) -> Result<Self, SciborqError> {
        config.validate().map_err(SciborqError::InvalidConfig)?;
        // One registry for the whole process: the session already owns it
        // and registered the engine metrics; admission and the server add
        // theirs, so one snapshot covers every layer.
        let registry = Arc::clone(session.metrics());
        let admission = AdmissionController::new(
            config.global_row_budget,
            config.max_waiting,
            config.allow_downgrade,
            config.admission_timeout,
        )
        .with_metrics(&registry);
        let metrics = ServeMetrics::register(&registry);
        let inner = Arc::new(ServerInner {
            session,
            config,
            admission,
            queue: Mutex::new(BatchQueue::default()),
            pending: Condvar::new(),
            metrics,
        });
        let scheduler = if inner.config.shared_scans {
            let worker = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("sciborq-batcher".to_owned())
                    // Watchdog wrapper: a scheduler lost to a panic is
                    // restarted, not silently dead (a dead scheduler would
                    // strand every future shared-scan client). Members of
                    // the batch that was in flight get a typed reply via
                    // the dispatch fallback; the restart is counted.
                    .spawn(move || loop {
                        match catch_unwind(AssertUnwindSafe(|| worker.run_scheduler())) {
                            Ok(()) => break,
                            Err(_) => worker.metrics.scheduler_restarts.inc(),
                        }
                    })
                    .map_err(|err| {
                        SciborqError::InvalidConfig(format!(
                            "failed to spawn scheduler thread: {err}"
                        ))
                    })?,
            )
        } else {
            None
        };
        Ok(QueryServer { inner, scheduler })
    }

    /// The wrapped session (for loads, adaptation, impression management).
    pub fn session(&self) -> &ExplorationSession {
        &self.inner.session
    }

    /// Cumulative serving counters (read from the metrics registry — one
    /// implementation behind both this accessor and the `metrics` command).
    pub fn stats(&self) -> ServeStats {
        let m = &self.inner.metrics;
        ServeStats {
            served: m.queries_served.get(),
            rejected: m.queries_shed.get(),
            downgraded: m.queries_downgraded.get(),
            shared_batches: m.shared_batches.get(),
        }
    }

    /// A point-in-time freeze of every metric the engine, admission
    /// controller and server registered.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.session.metrics_snapshot()
    }

    /// The most recent `limit` query traces, newest first (empty unless the
    /// session config's `collect_traces` knob is on).
    pub fn recent_traces(&self, limit: usize) -> Vec<QueryTrace> {
        self.inner.session.recent_traces(limit)
    }

    /// Submit a bounded query and block until its reply.
    pub fn submit(&self, query: Query, bounds: QueryBounds) -> ServerReply {
        let inner = &self.inner;
        let started = Instant::now();

        // Price the query. When no hierarchy (or table) exists the direct
        // execution path produces the same typed error the pricing did —
        // and logs the query, like serial execution would.
        let profile = match inner.session.scan_profile(&query.table) {
            Ok(profile) => profile,
            Err(_) => {
                let reply = Self::direct_reply(
                    inner.session.execute(&query, &bounds),
                    false,
                    Duration::ZERO,
                );
                inner.metrics.queries_served.inc();
                return reply;
            }
        };

        // Admission runs on the client's thread; isolate it so a panic (or
        // an injected `serve.admission` fault) becomes a typed reply rather
        // than tearing the whole connection handler down. The fault point
        // fires before anything is reserved, so nothing leaks.
        let admitted = catch_unwind(AssertUnwindSafe(|| {
            inner.admission.admit(&query.table, &profile, &bounds)
        }));
        let admission = match admitted {
            Ok(Ok(admission)) => admission,
            Ok(Err(overloaded)) => {
                inner.metrics.queries_shed.inc();
                return ServerReply::Overloaded(overloaded);
            }
            Err(_) => {
                inner.metrics.admission_faults.inc();
                return ServerReply::Failed(SciborqError::Internal {
                    site: "serve.admission".to_owned(),
                });
            }
        };

        let reply = self.dispatch(query, &admission);
        inner.admission.release(admission.cost_rows);
        inner.metrics.queries_served.inc();
        if reply.downgraded() {
            inner.metrics.queries_downgraded.inc();
        }
        inner
            .metrics
            .reply_micros
            .observe(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        reply
    }

    /// The admission verdict as the engine's traces record it.
    fn admission_trace(admission: &Admission) -> AdmissionTrace {
        AdmissionTrace {
            outcome: if admission.downgraded {
                "downgraded".to_owned()
            } else {
                "admitted".to_owned()
            },
            queue_wait: admission.queued,
            cost_rows: admission.cost_rows,
        }
    }

    fn dispatch(&self, query: Query, admission: &Admission) -> ServerReply {
        let inner = &self.inner;
        if !inner.config.shared_scans || self.scheduler.is_none() {
            return Self::direct_reply(
                inner.session.execute_with_admission(
                    &query,
                    &admission.bounds,
                    Some(Self::admission_trace(admission)),
                ),
                admission.downgraded,
                admission.queued,
            );
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut queue = inner.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.items.push(PendingQuery {
                query,
                bounds: admission.bounds,
                downgraded: admission.downgraded,
                queued: admission.queued,
                admission: Self::admission_trace(admission),
                reply: tx,
            });
            inner
                .metrics
                .batch_queue_depth
                .set(queue.items.len() as i64);
        }
        inner.pending.notify_one();
        // A dropped sender means the scheduler lost this query mid-batch
        // (it panicked between draining and replying, and was restarted by
        // the watchdog): a typed internal-fault reply, never a hang.
        rx.recv().unwrap_or_else(|_| {
            ServerReply::Failed(SciborqError::Internal {
                site: "serve.scheduler".to_owned(),
            })
        })
    }

    fn direct_reply(
        result: Result<QueryOutcome, SciborqError>,
        downgraded: bool,
        queued: Duration,
    ) -> ServerReply {
        match result {
            Ok(QueryOutcome::Aggregate(answer)) => ServerReply::Aggregate {
                answer,
                downgraded,
                queued,
            },
            Ok(QueryOutcome::Rows(answer)) => ServerReply::Rows {
                answer,
                downgraded,
                queued,
            },
            Err(err) => ServerReply::Failed(err),
        }
    }
}

impl ServerInner {
    fn run_scheduler(&self) {
        loop {
            let drained = {
                let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                while queue.items.is_empty() && !queue.shutdown {
                    queue = self
                        .pending
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if queue.items.is_empty() && queue.shutdown {
                    return;
                }
                drop(queue);
                // Let same-impression stragglers pile into this pass.
                std::thread::sleep(self.config.batch_window);
                let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                let take = queue.items.len().min(self.config.max_batch);
                let drained = queue.items.drain(..take).collect::<Vec<_>>();
                self.metrics.batch_queue_depth.set(queue.items.len() as i64);
                drained
            };
            if drained.is_empty() {
                continue;
            }
            self.metrics.shared_batches.inc();
            self.metrics.batch_size.observe(drained.len() as u64);
            let requests: Vec<(&Query, &QueryBounds)> =
                drained.iter().map(|p| (&p.query, &p.bounds)).collect();
            let admissions: Vec<Option<AdmissionTrace>> =
                drained.iter().map(|p| Some(p.admission.clone())).collect();
            // Isolate the shared pass: a panic (or an injected
            // `serve.scheduler` fault) loses only this pass, and every
            // member is replayed through the per-query path — which has its
            // own isolation — so no client is stranded and no batch is
            // silently dropped.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-injection")]
                sciborq_telemetry::fault_point!("serve.scheduler");
                self.session
                    .execute_batch_with_admission(&requests, &admissions)
            }));
            match attempt {
                Ok(results) => {
                    for (pending, result) in drained.into_iter().zip(results) {
                        let reply =
                            QueryServer::direct_reply(result, pending.downgraded, pending.queued);
                        // a client that gave up is not an error
                        let _ = pending.reply.send(reply);
                    }
                }
                Err(_) => {
                    self.metrics.batch_faults.inc();
                    for pending in drained {
                        let result = self.session.execute_with_admission(
                            &pending.query,
                            &pending.bounds,
                            Some(pending.admission.clone()),
                        );
                        let reply =
                            QueryServer::direct_reply(result, pending.downgraded, pending.queued);
                        let _ = pending.reply.send(reply);
                    }
                }
            }
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        if let Some(handle) = self.scheduler.take() {
            self.inner
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .shutdown = true;
            self.inner.pending.notify_all();
            let _ = handle.join();
        }
    }
}
