//! # sciborq-sampling
//!
//! Reservoir-style sampling algorithms for building SciBORQ impressions.
//!
//! Incremental construction of impressions follows the reservoir paradigm
//! (Vitter 1985): a fixed capacity, sequential processing and an acceptance
//! test per tuple. The crate implements the three strategies from the paper
//! plus a classical baseline used in the ablation experiments:
//!
//! * [`Reservoir`] — Algorithm R, the uniform reservoir of Figure 2.
//! * [`LastSeenReservoir`] — the recency-biased "Last Seen" strategy of
//!   Figure 3 (fixed acceptance probability `k/D`).
//! * [`BiasedReservoir`] — the KDE-weighted biased reservoir of Figure 6
//!   (`P(accept t) = f̆(t)·N·n/cnt`).
//! * [`StratifiedSampler`] — per-bin uniform reservoirs (baseline).
//!
//! All strategies are deterministic given their seed, never exceed their
//! configured capacity, and expose the per-item interest weight so the
//! estimators in `sciborq-stats` can correct for the sampling design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod biased;
pub mod error;
pub mod last_seen;
pub mod reservoir;
pub mod stratified;
pub mod traits;

pub use biased::BiasedReservoir;
pub use error::{Result, SamplingError};
pub use last_seen::LastSeenReservoir;
pub use reservoir::Reservoir;
pub use stratified::{StratifiedSampler, StratumAllocation};
pub use traits::{SampledItem, SamplingStrategy};
