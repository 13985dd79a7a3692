//! Chaos suite: deterministic fault storms against the full serving stack.
//!
//! Every test drives a real [`QueryServer`] with a seeded [`FaultPlan`]
//! installed and asserts the three serving invariants the recovery
//! machinery promises:
//!
//! 1. **Never hang** — every submitted query comes back within a bounded
//!    wall-clock window, even when scheduler threads die mid-batch.
//! 2. **Never crash** — injected panics are isolated at the documented
//!    seams; no panic ever crosses `submit`.
//! 3. **Bit-identical or typed** — a reply that is neither `degraded` nor
//!    an error is bit-identical to the fault-free oracle; everything else
//!    is a typed error or a typed overload, never a silently wrong answer.
//!
//! Fault plans are process-global, so these tests live in their own
//! integration binary and serialise through [`serial`]. All storms use
//! fixed seeds: a failure here replays exactly.

#![cfg(feature = "fault-injection")]

use sciborq_columnar::{Catalog, DataType, Field, Predicate, Schema, Table, Value};
use sciborq_core::{
    ExplorationSession, QueryBounds, QueryOutcome, SamplingPolicy, SciborqConfig, SciborqError,
};
use sciborq_serve::{QueryServer, ServeConfig, ServerReply};
use sciborq_telemetry::faults::{self, FaultPlan, Trigger};
use sciborq_workload::{AttributeDomain, Query};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One fault plan at a time: the registry is process-global.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// While a plan is active, suppress panic-hook output for *injected*
/// panics only (they are the point, not noise); real assertion failures
/// still print through the previous hook.
static QUIET: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn init_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault at"));
            if !(QUIET.load(std::sync::atomic::Ordering::Relaxed) && injected) {
                prev(info);
            }
        }));
    });
}

/// Run `f` with `plan` installed; the registry is cleared (and the quiet
/// flag dropped) even if `f` panics.
fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
    struct Cleanup;
    impl Drop for Cleanup {
        fn drop(&mut self) {
            QUIET.store(false, std::sync::atomic::Ordering::Relaxed);
            faults::clear();
        }
    }
    init_quiet_hook();
    faults::install(plan);
    QUIET.store(true, std::sync::atomic::Ordering::Relaxed);
    let _cleanup = Cleanup;
    f()
}

fn photoobj(rows: usize) -> Table {
    let schema = Schema::shared(vec![
        Field::new("objid", DataType::Int64),
        Field::new("ra", DataType::Float64),
        Field::new("r_mag", DataType::Float64),
    ])
    .unwrap();
    let mut table = Table::new("photoobj", schema);
    for i in 0..rows as i64 {
        let ra = (i as f64 * 137.507_764).rem_euclid(360.0);
        table
            .append_row(&[
                Value::Int64(i),
                Value::Float64(ra),
                Value::Float64(14.0 + (i % 1_000) as f64 / 125.0),
            ])
            .unwrap();
    }
    table
}

fn session(rows: usize) -> ExplorationSession {
    let catalog = Catalog::new();
    catalog.register(photoobj(rows)).unwrap();
    let session = ExplorationSession::new(
        catalog,
        SciborqConfig::with_layers(vec![2_000, 200]),
        &[("ra", AttributeDomain::new(0.0, 360.0, 36))],
    )
    .unwrap();
    session
        .create_impressions("photoobj", SamplingPolicy::Uniform)
        .unwrap();
    session
}

fn server(rows: usize) -> Arc<QueryServer> {
    Arc::new(
        QueryServer::new(
            session(rows),
            ServeConfig {
                shared_scans: true,
                batch_window: Duration::from_millis(2),
                admission_timeout: Duration::from_secs(5),
                ..ServeConfig::default()
            },
        )
        .unwrap(),
    )
}

/// The storm workload: escalating counts and aggregates plus a SELECT. No
/// time budgets, so fault-free answers are wall-clock independent.
fn workload() -> Vec<(Query, QueryBounds)> {
    vec![
        (
            Query::count("photoobj", Predicate::lt("ra", 90.0)),
            QueryBounds::max_error(0.1),
        ),
        (
            Query::count("photoobj", Predicate::lt("ra", 180.0)),
            QueryBounds::max_error(0.02),
        ),
        (
            Query::aggregate(
                "photoobj",
                Predicate::lt("ra", 180.0),
                sciborq_columnar::AggregateKind::Sum,
                "r_mag",
            ),
            QueryBounds::max_error(0.05),
        ),
        (
            Query::select("photoobj", Predicate::lt("ra", 90.0)).with_limit(5),
            QueryBounds::default(),
        ),
    ]
}

/// A comparable digest of one reply: enough to assert bit-identity and
/// typed-ness without holding the whole answer.
#[derive(Debug, Clone, PartialEq)]
enum Digest {
    Aggregate {
        value_bits: Option<u64>,
        level: sciborq_core::EvaluationLevel,
        degraded: bool,
    },
    Rows {
        returned: usize,
        degraded: bool,
    },
    Overloaded(String),
    Failed(String),
}

fn digest(reply: &ServerReply) -> Digest {
    match reply {
        ServerReply::Aggregate { answer, .. } => Digest::Aggregate {
            value_bits: answer.value.map(f64::to_bits),
            level: answer.level,
            degraded: answer.degraded,
        },
        ServerReply::Rows { answer, .. } => Digest::Rows {
            returned: answer.returned_rows(),
            degraded: answer.degraded,
        },
        ServerReply::Overloaded(o) => Digest::Overloaded(o.reason.to_string()),
        ServerReply::Failed(err) => Digest::Failed(err.to_string()),
    }
}

/// Fault-free oracle digests for [`workload`], computed on an identically
/// built (deterministically sampled) session.
fn oracle() -> Vec<Digest> {
    let reference = session(50_000);
    workload()
        .iter()
        .map(|(q, b)| match reference.execute(q, b).unwrap() {
            QueryOutcome::Aggregate(a) => Digest::Aggregate {
                value_bits: a.value.map(f64::to_bits),
                level: a.level,
                degraded: false,
            },
            QueryOutcome::Rows(r) => Digest::Rows {
                returned: r.returned_rows(),
                degraded: false,
            },
        })
        .collect()
}

/// Drive `clients` concurrent clients through the server, each running the
/// whole workload, and collect every client's replies. Panics with "hung"
/// if any client fails to finish within `timeout` — the never-hang
/// invariant, enforced mechanically.
fn run_clients(server: &Arc<QueryServer>, clients: usize, timeout: Duration) -> Vec<Vec<Digest>> {
    let (tx, rx) = mpsc::channel();
    let barrier = Arc::new(Barrier::new(clients));
    for c in 0..clients {
        let server = Arc::clone(server);
        let barrier = Arc::clone(&barrier);
        let tx = tx.clone();
        std::thread::spawn(move || {
            barrier.wait();
            let replies: Vec<Digest> = workload()
                .into_iter()
                .map(|(query, bounds)| digest(&server.submit(query, bounds)))
                .collect();
            let _ = tx.send((c, replies));
        });
    }
    drop(tx);
    let mut out = vec![Vec::new(); clients];
    for _ in 0..clients {
        let (c, replies) = rx
            .recv_timeout(timeout)
            .expect("a client hung: the never-hang invariant is broken");
        out[c] = replies;
    }
    out
}

/// Check the bit-identical-or-typed invariant for one client's replies.
fn assert_bit_identical_or_typed(replies: &[Digest], oracle: &[Digest]) {
    for (reply, expected) in replies.iter().zip(oracle) {
        match reply {
            Digest::Aggregate { degraded: true, .. } | Digest::Rows { degraded: true, .. } => {
                // Honestly flagged: the ladder dropped a level. Fine.
            }
            Digest::Overloaded(_) => {
                // Typed load shedding. Fine.
            }
            Digest::Failed(message) => {
                assert!(
                    message.contains("internal fault isolated at"),
                    "untyped failure leaked: {message}"
                );
            }
            ok => assert_eq!(
                ok, expected,
                "a non-degraded, non-error reply must be bit-identical to the oracle"
            ),
        }
    }
}

/// An admission-seam panic is isolated into a typed internal error and the
/// server keeps serving afterwards.
#[test]
fn admission_panic_is_isolated_and_the_server_survives() {
    let _guard = serial();
    let server = server(50_000);
    let (query, bounds) = workload().remove(0);

    let reply = with_plan(
        FaultPlan::new(21).panic_at("serve.admission", Trigger::Always),
        || server.submit(query.clone(), bounds),
    );
    match reply {
        ServerReply::Failed(SciborqError::Internal { site }) => {
            assert_eq!(site, "serve.admission");
        }
        other => panic!("expected a typed internal fault, got {other:?}"),
    }
    assert_eq!(
        server.metrics_snapshot().counter("serve.admission_faults"),
        Some(1)
    );

    // Plan cleared: the same query now serves normally.
    let reply = server.submit(query, bounds);
    assert!(reply.as_aggregate().is_some(), "server died: {reply:?}");
}

/// A scheduler thread killed mid-batch restarts, and the members of the
/// lost batch are replayed individually — bit-identically, never stranded.
#[test]
fn scheduler_panics_replay_batch_members_never_stranding_clients() {
    let _guard = serial();
    let server = server(50_000);
    let oracle = oracle();

    let all = with_plan(
        FaultPlan::new(22).panic_at("serve.scheduler", Trigger::EveryNth(2)),
        || run_clients(&server, 4, Duration::from_secs(60)),
    );
    for replies in &all {
        // Only the scheduler faulted; replayed members run the fault-free
        // engine path, so every reply must be bit-identical to the oracle.
        assert_eq!(replies, &oracle);
    }
    let snapshot = server.metrics_snapshot();
    assert!(
        snapshot.counter("serve.batch_faults").unwrap_or(0) >= 1,
        "the storm never hit a shared pass"
    );
}

/// The full storm: seeded random panics and delays across every site at
/// once, under concurrency. Nothing hangs, nothing crashes, and every
/// reply is bit-identical or honestly typed.
#[test]
fn fixed_seed_storm_keeps_every_reply_bit_identical_or_typed() {
    let _guard = serial();
    let server = server(50_000);
    let oracle = oracle();

    // A probabilistic storm with a deterministic backbone: EveryNth rules
    // guarantee the storm fires (a shared batch crosses `serve.scheduler`
    // once and `engine.level` once per shared level pass — few hits, which
    // pure low-probability rules can miss entirely), while the wildcard
    // probability rules spray every other seam.
    let plan = FaultPlan::new(0xC1D0)
        .panic_at("serve.scheduler", Trigger::EveryNth(2))
        .panic_at("engine.level", Trigger::EveryNth(4))
        .panic_at("*", Trigger::Probability(0.08))
        .delay_at("*", Duration::from_millis(1), Trigger::Probability(0.04));
    let all = with_plan(plan, || {
        let all = run_clients(&server, 6, Duration::from_secs(120));
        assert!(
                faults::total_injected() > 0,
                "the storm never fired; the test asserts nothing (hits: scheduler={} admission={} level={} shard={})",
                faults::hits("serve.scheduler"),
                faults::hits("serve.admission"),
                faults::hits("engine.level"),
                faults::hits("scan.shard"),
            );
        all
    });
    for replies in &all {
        assert_bit_identical_or_typed(replies, &oracle);
    }

    // The storm is over: the server still answers, bit-identically.
    let clean = run_clients(&server, 2, Duration::from_secs(60));
    for replies in &clean {
        assert_eq!(replies, &oracle, "the server did not recover post-storm");
    }
}

/// Replay determinism: the same seed against an identically built server
/// produces the identical reply transcript (single client, so per-site hit
/// order is deterministic).
#[test]
fn same_seed_storm_replays_the_identical_transcript() {
    let _guard = serial();
    let run = |seed: u64| -> Vec<Digest> {
        let server = server(20_000);
        with_plan(FaultPlan::storm(seed, 0.15, 0.0, Duration::ZERO), || {
            workload()
                .into_iter()
                .map(|(query, bounds)| digest(&server.submit(query, bounds)))
                .collect()
        })
    };
    let a = run(0xBEE5);
    let b = run(0xBEE5);
    assert_eq!(a, b, "a fixed seed must replay the identical storm");
}

/// Delay-only storms slow queries down but never change an answer: every
/// reply stays bit-identical and unflagged.
#[test]
fn delay_storm_never_degrades_an_answer() {
    let _guard = serial();
    let server = server(20_000);
    let oracle: Vec<Digest> = {
        let reference = session(20_000);
        workload()
            .iter()
            .map(|(q, b)| match reference.execute(q, b).unwrap() {
                QueryOutcome::Aggregate(a) => Digest::Aggregate {
                    value_bits: a.value.map(f64::to_bits),
                    level: a.level,
                    degraded: false,
                },
                QueryOutcome::Rows(r) => Digest::Rows {
                    returned: r.returned_rows(),
                    degraded: false,
                },
            })
            .collect()
    };

    let all = with_plan(
        FaultPlan::new(23).delay_at("*", Duration::from_millis(1), Trigger::EveryNth(3)),
        || run_clients(&server, 3, Duration::from_secs(60)),
    );
    for replies in &all {
        assert_eq!(replies, &oracle, "a delay must never change an answer");
    }
}
