//! # sciborq-workload
//!
//! Queries, query logging, predicate sets and workload generation for the
//! SciBORQ reproduction.
//!
//! SciBORQ steers its impressions by *observing the workload*: the values
//! requested by query predicates form the predicate set (§4), whose density
//! — estimated by the binned KDE f̆ — biases the samples towards the focal
//! points of the current exploration. This crate provides:
//!
//! * [`Query`] / [`QueryKind`] — declarative query descriptions, including
//!   the cone-search shape of the SkyServer workload (Figure 1).
//! * [`PredicateSet`] — per-attribute streaming histograms of the requested
//!   values plus the derived interest estimator.
//! * [`FocalRegion`] extraction and focus-shift detection.
//! * [`QueryLog`] — a bounded log with windowed replay.
//! * [`WorkloadGenerator`] — a synthetic SkyServer-like query generator with
//!   configurable focal clusters and focus shifts (substitute for the public
//!   SkyServer query logs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod focal;
pub mod generator;
pub mod log;
pub mod predicate_set;
pub mod query;

pub use focal::{extract_focal_regions, focal_shift, FocalRegion};
pub use generator::{cluster_core_predicate, FocalCluster, WorkloadConfig, WorkloadGenerator};
pub use log::{LogEntry, QueryLog};
pub use predicate_set::{AttributeDomain, PredicateSet};
pub use query::{cone_search_predicate, Query, QueryKind};
