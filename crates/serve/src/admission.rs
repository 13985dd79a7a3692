//! Admission control under a global runtime budget.
//!
//! Every query is priced *before* it reaches the engine: its cost is the
//! row count of the worst (most detailed) escalation level its own bounds
//! admit — the most the engine could legally scan for it in a single
//! evaluation. The controller keeps the total priced cost in flight below
//! the global budget, makes transient overloads wait (up to a bounded
//! queue), and sheds the rest with a typed [`Overloaded`] answer. A query
//! is never silently given a bound it did not keep: when the budget can
//! only fund a cheaper level, the query is either *downgraded* — its own
//! row budget tightened to that level, and the reply flagged — or
//! rejected.
//!
//! Uses `std::sync` primitives (the waiting queue needs a condition
//! variable).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use sciborq_core::{MetricsRegistry, QueryBounds, ScanProfile};
use sciborq_telemetry::{Counter, Gauge, Histogram};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Why a query was shed instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadReason {
    /// The budget is currently consumed by in-flight queries and the
    /// controller is configured to shed rather than queue.
    BudgetExceeded,
    /// The waiting queue is at capacity.
    QueueFull,
    /// The query's cost can *never* fit the global budget (even its
    /// cheapest admissible level costs more than the whole budget, or
    /// downgrading is disabled).
    CostExceedsBudget,
    /// The query waited for budget until its deadline — the smaller of its
    /// own wall-clock budget and the server's admission timeout — and the
    /// budget never drained. A bounded wait, never a hang: queries used to
    /// block on the queue indefinitely here.
    AdmissionTimeout,
}

impl fmt::Display for OverloadReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverloadReason::BudgetExceeded => write!(f, "budget-exceeded"),
            OverloadReason::QueueFull => write!(f, "queue-full"),
            OverloadReason::CostExceedsBudget => write!(f, "cost-exceeds-budget"),
            OverloadReason::AdmissionTimeout => write!(f, "admission-timeout"),
        }
    }
}

/// A typed load-shedding answer: the server refused the query and says
/// exactly why, instead of returning a degraded answer it never promised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overloaded {
    /// The table the query targeted.
    pub table: String,
    /// The priced scan cost of the rejected query, in rows.
    pub cost_rows: u64,
    /// The configured global budget, in rows.
    pub budget_rows: u64,
    /// Total priced cost in flight at rejection time.
    pub in_flight_rows: u64,
    /// Queries waiting for budget at rejection time.
    pub waiting: usize,
    /// Why the query was shed.
    pub reason: OverloadReason,
}

/// A successfully admitted query: the cost reserved against the global
/// budget and the (possibly tightened) bounds to execute under.
#[derive(Debug, Clone)]
pub struct Admission {
    /// Rows reserved against the global budget. Must be given back with
    /// [`AdmissionController::release`] once the query finishes.
    pub cost_rows: u64,
    /// The bounds the query will actually run under. Identical to the
    /// submitted bounds unless the query was downgraded.
    pub bounds: QueryBounds,
    /// Whether the row budget was tightened to fit the global budget.
    pub downgraded: bool,
    /// Time the query spent blocked on the admission queue before its cost
    /// was reserved (zero when admitted immediately).
    pub queued: Duration,
}

/// The admission controller's registered metric handles.
#[derive(Debug)]
struct AdmissionMetrics {
    /// `serve.queue_depth` — queries currently blocked waiting for budget.
    queue_depth: Arc<Gauge>,
    /// `serve.queue_wait_micros` — measured waits of queued queries.
    queue_wait_micros: Arc<Histogram>,
    /// `serve.queued` — queries that had to wait at all.
    queued: Arc<Counter>,
    /// `serve.admission_timeouts` — waits that hit their deadline and were
    /// shed with [`OverloadReason::AdmissionTimeout`].
    admission_timeouts: Arc<Counter>,
}

#[derive(Debug, Default)]
struct State {
    in_flight_rows: u64,
    waiting: usize,
}

/// Global-budget admission control with bounded waiting and load shedding.
#[derive(Debug)]
pub struct AdmissionController {
    budget: Option<u64>,
    max_waiting: usize,
    allow_downgrade: bool,
    max_wait: Duration,
    state: Mutex<State>,
    available: Condvar,
    metrics: Option<AdmissionMetrics>,
}

impl AdmissionController {
    /// A controller enforcing `budget` total in-flight rows (`None`
    /// disables enforcement), queueing at most `max_waiting` queries, and
    /// optionally downgrading queries that can never fit. A queued query
    /// waits at most `max_wait` (or its own wall-clock budget, whichever is
    /// smaller) before it is shed with
    /// [`OverloadReason::AdmissionTimeout`].
    pub fn new(
        budget: Option<u64>,
        max_waiting: usize,
        allow_downgrade: bool,
        max_wait: Duration,
    ) -> Self {
        AdmissionController {
            budget,
            max_waiting,
            allow_downgrade,
            max_wait,
            state: Mutex::new(State::default()),
            available: Condvar::new(),
            metrics: None,
        }
    }

    /// Register this controller's queue metrics (`serve.queue_depth`,
    /// `serve.queue_wait_micros`, `serve.queued`) in `registry` and record
    /// into them from now on.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(AdmissionMetrics {
            queue_depth: registry.gauge("serve.queue_depth"),
            queue_wait_micros: registry.histogram("serve.queue_wait_micros"),
            queued: registry.counter("serve.queued"),
            admission_timeouts: registry.counter("serve.admission_timeouts"),
        });
        self
    }

    /// Total priced cost currently in flight.
    pub fn in_flight_rows(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_flight_rows
    }

    /// Price a query and reserve its cost against the global budget,
    /// blocking while transient pressure drains. Returns the admission
    /// (with possibly tightened bounds) or a typed overload.
    pub fn admit(
        &self,
        table: &str,
        profile: &ScanProfile,
        bounds: &QueryBounds,
    ) -> Result<Admission, Overloaded> {
        #[cfg(feature = "fault-injection")]
        sciborq_telemetry::fault_point!("serve.admission");
        // Price at the worst level the query's own bounds admit. A query
        // no level fits (worst_admissible = None) costs nothing: the
        // engine will answer it with BoundsUnsatisfiable without scanning.
        let worst = profile.worst_admissible(bounds).unwrap_or(0);
        let Some(budget) = self.budget else {
            self.reserve_unchecked(worst);
            return Ok(Admission {
                cost_rows: worst,
                bounds: *bounds,
                downgraded: false,
                queued: Duration::ZERO,
            });
        };

        let (cost, bounds, downgraded) = if worst > budget {
            // This query can never run at its requested worst level. Either
            // downgrade it to the cheapest level it admits — tightening its
            // own row budget so the engine cannot exceed what we priced —
            // or shed it honestly.
            let cheapest = profile.cheapest_admissible(bounds).unwrap_or(0);
            if !self.allow_downgrade || cheapest > budget {
                let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                return Err(Overloaded {
                    table: table.to_owned(),
                    cost_rows: worst,
                    budget_rows: budget,
                    in_flight_rows: state.in_flight_rows,
                    waiting: state.waiting,
                    reason: OverloadReason::CostExceedsBudget,
                });
            }
            let mut tightened = *bounds;
            tightened.max_rows_scanned = Some(match tightened.max_rows_scanned {
                Some(existing) => existing.min(cheapest),
                None => cheapest,
            });
            (cheapest, tightened, true)
        } else {
            (worst, *bounds, false)
        };

        let mut queued = Duration::ZERO;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.in_flight_rows + cost > budget {
            if state.waiting >= self.max_waiting {
                return Err(Overloaded {
                    table: table.to_owned(),
                    cost_rows: cost,
                    budget_rows: budget,
                    in_flight_rows: state.in_flight_rows,
                    waiting: state.waiting,
                    reason: if self.max_waiting == 0 {
                        OverloadReason::BudgetExceeded
                    } else {
                        OverloadReason::QueueFull
                    },
                });
            }
            let wait_started = Instant::now();
            state.waiting += 1;
            if let Some(m) = &self.metrics {
                m.queued.inc();
                m.queue_depth.add(1);
            }
            // Deadline-aware wait: a queued query blocks at most for the
            // smaller of its own wall-clock budget and the server's
            // admission timeout, then is shed typed. (This used to be an
            // untimed `Condvar::wait` — under a stuck or slow-draining
            // budget, queued clients hung forever.)
            let max_wait = match bounds.time_budget {
                Some(time_budget) => time_budget.min(self.max_wait),
                None => self.max_wait,
            };
            let deadline = wait_started + max_wait;
            while state.in_flight_rows + cost > budget {
                let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                    state.waiting -= 1;
                    let timed_out = Overloaded {
                        table: table.to_owned(),
                        cost_rows: cost,
                        budget_rows: budget,
                        in_flight_rows: state.in_flight_rows,
                        waiting: state.waiting,
                        reason: OverloadReason::AdmissionTimeout,
                    };
                    drop(state);
                    if let Some(m) = &self.metrics {
                        m.queue_depth.sub(1);
                        m.admission_timeouts.inc();
                        m.queue_wait_micros.observe(
                            u64::try_from(wait_started.elapsed().as_micros()).unwrap_or(u64::MAX),
                        );
                    }
                    return Err(timed_out);
                };
                let (guard, _timeout) = self
                    .available
                    .wait_timeout(state, remaining)
                    .unwrap_or_else(PoisonError::into_inner);
                state = guard;
            }
            state.waiting -= 1;
            queued = wait_started.elapsed();
            if let Some(m) = &self.metrics {
                m.queue_depth.sub(1);
                m.queue_wait_micros
                    .observe(u64::try_from(queued.as_micros()).unwrap_or(u64::MAX));
            }
        }
        state.in_flight_rows += cost;
        Ok(Admission {
            cost_rows: cost,
            bounds,
            downgraded,
            queued,
        })
    }

    fn reserve_unchecked(&self, cost: u64) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_flight_rows += cost;
    }

    /// Return a finished query's reserved cost to the budget and wake
    /// waiters.
    pub fn release(&self, cost_rows: u64) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.in_flight_rows = state.in_flight_rows.saturating_sub(cost_rows);
        drop(state);
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciborq_core::ScanProfile;

    fn profile() -> ScanProfile {
        ScanProfile {
            layer_rows: vec![200, 2_000],
            base_rows: Some(20_000),
        }
    }

    #[test]
    fn admits_within_budget_and_prices_at_worst_level() {
        let ctl = AdmissionController::new(Some(25_000), 0, true, Duration::from_secs(2));
        let adm = ctl.admit("t", &profile(), &QueryBounds::default()).unwrap();
        // no per-query row budget: base data is the worst admissible level
        assert_eq!(adm.cost_rows, 20_000);
        assert!(!adm.downgraded);
        assert_eq!(ctl.in_flight_rows(), 20_000);
        ctl.release(adm.cost_rows);
        assert_eq!(ctl.in_flight_rows(), 0);
    }

    #[test]
    fn sheds_when_budget_is_full_and_queue_disabled() {
        let ctl = AdmissionController::new(Some(25_000), 0, true, Duration::from_secs(2));
        let first = ctl.admit("t", &profile(), &QueryBounds::default()).unwrap();
        let err = ctl
            .admit("t", &profile(), &QueryBounds::default())
            .unwrap_err();
        assert_eq!(err.reason, OverloadReason::BudgetExceeded);
        assert_eq!(err.in_flight_rows, 20_000);
        assert_eq!(err.cost_rows, 20_000);
        ctl.release(first.cost_rows);
        // budget drained: admissible again
        assert!(ctl.admit("t", &profile(), &QueryBounds::default()).is_ok());
    }

    #[test]
    fn downgrades_query_that_can_never_fit() {
        let ctl = AdmissionController::new(Some(1_500), 4, true, Duration::from_secs(2));
        let adm = ctl.admit("t", &profile(), &QueryBounds::default()).unwrap();
        assert!(adm.downgraded);
        assert_eq!(adm.cost_rows, 200);
        assert_eq!(adm.bounds.max_rows_scanned, Some(200));
    }

    #[test]
    fn rejects_unfittable_query_when_downgrade_disabled() {
        let ctl = AdmissionController::new(Some(1_500), 4, false, Duration::from_secs(2));
        let err = ctl
            .admit("t", &profile(), &QueryBounds::default())
            .unwrap_err();
        assert_eq!(err.reason, OverloadReason::CostExceedsBudget);
    }

    #[test]
    fn rejects_when_even_cheapest_level_exceeds_budget() {
        let ctl = AdmissionController::new(Some(100), 4, true, Duration::from_secs(2));
        let err = ctl
            .admit("t", &profile(), &QueryBounds::default())
            .unwrap_err();
        assert_eq!(err.reason, OverloadReason::CostExceedsBudget);
    }

    #[test]
    fn unsatisfiable_query_costs_nothing() {
        let ctl = AdmissionController::new(Some(1_000), 0, true, Duration::from_secs(2));
        // a 10-row budget admits no level: the engine will reject it
        // without scanning, so admission charges zero
        let adm = ctl
            .admit("t", &profile(), &QueryBounds::row_budget(10))
            .unwrap();
        assert_eq!(adm.cost_rows, 0);
        assert!(!adm.downgraded);
    }

    #[test]
    fn queued_wait_is_measured_and_recorded() {
        let registry = Arc::new(MetricsRegistry::new());
        let ctl = Arc::new(
            AdmissionController::new(Some(25_000), 4, true, Duration::from_secs(2))
                .with_metrics(&registry),
        );
        // immediate admission reports a zero queue wait and records nothing
        let first = ctl.admit("t", &profile(), &QueryBounds::default()).unwrap();
        assert_eq!(first.queued, Duration::ZERO);
        assert_eq!(registry.snapshot().counter("serve.queued"), Some(0));

        let waiter = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || {
                let adm = ctl.admit("t", &profile(), &QueryBounds::default()).unwrap();
                ctl.release(adm.cost_rows);
                adm.queued
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        ctl.release(first.cost_rows);
        let queued = waiter.join().unwrap();
        assert!(
            queued >= Duration::from_millis(10),
            "the waiter blocked ~20ms, measured {queued:?}"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.queued"), Some(1));
        assert_eq!(snap.gauge("serve.queue_depth"), Some(0));
        let hist = snap.histogram("serve.queue_wait_micros").unwrap();
        assert_eq!(hist.count, 1);
        assert!(hist.sum >= 10_000, "wait histogram sum {}", hist.sum);
    }

    #[test]
    fn stuck_budget_sheds_the_waiter_with_a_typed_timeout() {
        let registry = Arc::new(MetricsRegistry::new());
        let ctl = AdmissionController::new(Some(25_000), 4, true, Duration::from_millis(30))
            .with_metrics(&registry);
        // Fill the budget and never release: the second query must come
        // back shed, not hang.
        let _held = ctl.admit("t", &profile(), &QueryBounds::default()).unwrap();
        let started = Instant::now();
        let err = ctl
            .admit("t", &profile(), &QueryBounds::default())
            .unwrap_err();
        assert_eq!(err.reason, OverloadReason::AdmissionTimeout);
        assert!(
            started.elapsed() >= Duration::from_millis(30),
            "the wait must run its full deadline before shedding"
        );
        assert_eq!(err.waiting, 0, "the waiter removed itself from the queue");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.admission_timeouts"), Some(1));
        assert_eq!(snap.gauge("serve.queue_depth"), Some(0));
    }

    #[test]
    fn query_time_budget_tightens_the_admission_deadline() {
        let ctl = AdmissionController::new(Some(25_000), 4, true, Duration::from_secs(30));
        let _held = ctl.admit("t", &profile(), &QueryBounds::default()).unwrap();
        // The query's own 20ms wall-clock budget caps the wait, far below
        // the controller's 30s ceiling.
        let bounds = QueryBounds {
            time_budget: Some(Duration::from_millis(20)),
            ..QueryBounds::default()
        };
        let started = Instant::now();
        let err = ctl.admit("t", &profile(), &bounds).unwrap_err();
        assert_eq!(err.reason, OverloadReason::AdmissionTimeout);
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn waiting_query_proceeds_once_budget_drains() {
        use std::sync::Arc;
        let ctl = Arc::new(AdmissionController::new(
            Some(25_000),
            4,
            true,
            Duration::from_secs(2),
        ));
        let first = ctl.admit("t", &profile(), &QueryBounds::default()).unwrap();
        let waiter = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || {
                let adm = ctl.admit("t", &profile(), &QueryBounds::default()).unwrap();
                ctl.release(adm.cost_rows);
                adm.cost_rows
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        ctl.release(first.cost_rows);
        assert_eq!(waiter.join().unwrap(), 20_000);
        assert_eq!(ctl.in_flight_rows(), 0);
    }
}
