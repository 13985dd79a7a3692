//! # sciborq-serve
//!
//! A concurrent serving front end for SciBORQ exploration sessions.
//!
//! The core crate answers one bounded query at a time; a data-exploration
//! deployment faces many scientists at once. This crate wraps an
//! [`ExplorationSession`](sciborq_core::ExplorationSession) behind a
//! long-lived [`QueryServer`](server::QueryServer) that:
//!
//! * accepts many concurrent bounded queries through a blocking
//!   [`submit`](server::QueryServer::submit) call;
//! * schedules them under a **global** runtime budget (total rows in
//!   flight) with admission control and load shedding — a query whose
//!   worst admissible escalation level the global budget can never cover
//!   is *downgraded* to its cheapest admissible level (when permitted) or
//!   rejected with a typed [`Overloaded`](admission::Overloaded) answer.
//!   It is never silently handed a bound it did not keep;
//! * batches same-table aggregate queries into **shared scan passes**: one
//!   pass per escalation level evaluates every batched query's compiled
//!   predicate against each row batch, feeding per-query sinks. Answers
//!   remain bit-identical to serial execution.
//!
//! The [`protocol`] module defines a line-delimited JSON wire format
//! (hand-rolled in [`json`]; no external JSON dependency) used by the
//! `sciborq-served` binary for stdio serving. The same wire carries the
//! introspection commands `metrics` (live registry snapshot) and `trace`
//! (recent per-query escalation traces); replies report the admission
//! queue wait as `queued_micros` and, when trace collection is on, embed
//! the full [`QueryTrace`](sciborq_core::QueryTrace).
//!
//! ## Lock acquisition order
//!
//! The serving layer shares one `ExplorationSession` across worker
//! threads, so every lock in the stack lives in a single global acquisition
//! order, verified statically by the `lock_order` lint of
//! `sciborq-analyzer` (the lint builds the inter-procedural acquisition
//! graph and rejects any cycle). The canonical order, outermost first:
//!
//! 1. `hierarchy_writer` — the session's writer mutex: impression
//!    creation, loads and adaptive rebuilds take turns on it, from before a
//!    load's append until its new hierarchy is swapped in. Queries never
//!    take it.
//! 2. `ExplorationSession` table registry (`table`)
//! 3. impression `hierarchies` — a writer holds its write lock only to
//!    insert a hierarchy it built on a clone, off the lock
//! 4. `predicate_set` (workload histograms; also reached from `query_log`
//!    maintenance, which therefore never holds a hierarchy lock)
//! 5. `maintainer` (adaptive rebuild state)
//!
//! The serve-side locks — the scheduler `queue` and the admission
//! controller `state` — are **leaf locks**: nothing else is ever acquired
//! while one of them is held (condvar waits on them drop the guard by
//! construction). New code must acquire locks in this order and release
//! before calling into an earlier layer; the analyzer turns violations
//! into CI failures rather than deadlocks in production.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod config;
pub mod json;
pub mod protocol;
pub mod server;

pub use admission::{Admission, AdmissionController, OverloadReason, Overloaded};
pub use config::ServeConfig;
pub use server::{QueryServer, ServeStats, ServerReply};
