//! # sciborq-core
//!
//! SciBORQ: **Sci**entific data management with **B**ounds **O**n **R**untime
//! and **Q**uality — a from-scratch reproduction of the CIDR 2011 paper by
//! Sidirourgos, Kersten and Boncz (CWI).
//!
//! The core idea: at any moment only a fraction of a science warehouse is of
//! primary value to the scientist. SciBORQ materialises that fraction as
//! *impressions* — multi-layer, workload-biased samples — and answers
//! exploratory queries against them with explicit bounds on runtime and on
//! statistical error, escalating to more detailed impressions (and ultimately
//! the base data) only when the requested quality demands it.
//!
//! ## Crate map
//!
//! * [`impression`] — an impression: a materialised sample plus the
//!   metadata needed to correct estimates for its sampling design.
//! * [`builder`] — streaming, load-time impression construction (§3.3).
//! * [`layer`] — recursive multi-layer hierarchies (§3.1 "Layers").
//! * [`policy`] — uniform / Last-Seen / KDE-biased sampling policies.
//! * [`engine`] — bounded query processing with error/runtime bounds and
//!   escalation (§3.2); [`batch`] holds the one escalation loop for
//!   aggregates and SELECTs, shared scan passes and the degradation ladder
//!   included.
//! * [`maintenance`] — workload-shift detection and adaptive rebuilding
//!   (§3.1 "Adaptive").
//! * [`session`] — the full exploration loop: log queries, adapt, load,
//!   answer.
//! * [`config`] / [`answer`] / [`error`] — configuration, answer types and
//!   errors.
//!
//! ## Quick start
//!
//! ```
//! use sciborq_core::{ExplorationSession, SciborqConfig, SamplingPolicy, QueryBounds};
//! use sciborq_columnar::{Catalog, Table, Schema, Field, DataType, Predicate, Value};
//! use sciborq_workload::{AttributeDomain, Query};
//!
//! // a tiny base table
//! let schema = Schema::shared(vec![
//!     Field::new("objid", DataType::Int64),
//!     Field::new("ra", DataType::Float64),
//! ]).unwrap();
//! let mut table = Table::new("photoobj", schema);
//! for i in 0..1000i64 {
//!     table.append_row(&[i.into(), ((i % 360) as f64).into()]).unwrap();
//! }
//! let catalog = Catalog::new();
//! catalog.register(table).unwrap();
//!
//! // a session with two impression layers
//! let config = SciborqConfig::with_layers(vec![200, 50]);
//! let session = ExplorationSession::new(
//!     catalog,
//!     config,
//!     &[("ra", AttributeDomain::new(0.0, 360.0, 36))],
//! ).unwrap();
//! session.create_impressions("photoobj", SamplingPolicy::Uniform).unwrap();
//!
//! // an approximate COUNT with a 20% error bound
//! let query = Query::count("photoobj", Predicate::lt("ra", 180.0));
//! let outcome = session.execute(&query, &QueryBounds::max_error(0.2)).unwrap();
//! let answer = outcome.as_aggregate().unwrap();
//! assert!(answer.value.unwrap() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod batch;
pub mod builder;
pub mod config;
pub mod engine;
pub mod error;
pub mod execution;
pub mod impression;
pub mod layer;
pub mod maintenance;
pub mod policy;
pub mod session;

pub use answer::{
    ApproximateAnswer, EvaluationLevel, LevelEstimate, LevelScan, QueryOutcome, SelectAnswer,
};
pub use builder::ImpressionBuilder;
pub use config::SciborqConfig;
pub use engine::{BaseData, BoundedQueryEngine, QueryBounds};
pub use error::{Result, SciborqError};
pub use execution::QueryExecution;
pub use impression::{Impression, DICT_MAX_CARDINALITY};
pub use layer::LayerHierarchy;
pub use maintenance::{AdaptiveMaintainer, MaintenanceDecision};
pub use policy::SamplingPolicy;
pub use session::{ExplorationSession, ScanProfile};

// Telemetry types that appear in core signatures (answer traces, session
// metrics), re-exported so downstream crates need not name the telemetry
// crate for ordinary use.
pub use sciborq_telemetry::{AdmissionTrace, MetricsRegistry, MetricsSnapshot, QueryTrace};
