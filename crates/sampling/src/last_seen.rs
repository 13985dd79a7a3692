//! The Last-Seen impression construction algorithm (paper Figure 3).
//!
//! Scientific observations have a strong temporal component: recent tuples
//! are often more interesting than ones already analysed. Instead of the
//! decaying acceptance probability `n/cnt` of Algorithm R, the Last-Seen
//! strategy accepts every tuple with the *fixed* probability `k/D`, where `D`
//! is tuned to the expected daily ingest and `k ≤ n` controls what fraction
//! of the reservoir should consist of fresh tuples. Accepted tuples overwrite
//! a uniformly random slot, so older tuples are evicted at a constant rate
//! and the sample stays biased towards the most recent data.

use crate::error::{Result, SamplingError};
use crate::traits::{SampledItem, SamplingStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Last-Seen reservoir of Figure 3.
#[derive(Debug, Clone)]
pub struct LastSeenReservoir<T> {
    sample: Vec<SampledItem<T>>,
    capacity: usize,
    /// Number of "new tuple" slots targeted per ingest window (`k`).
    k: f64,
    /// Expected ingest volume per window (`D`).
    d: f64,
    observed: u64,
    accepted: u64,
    rng: StdRng,
}

impl<T> LastSeenReservoir<T> {
    /// Create a Last-Seen reservoir.
    ///
    /// * `capacity` — reservoir size `n`.
    /// * `k` — number of new tuples desired per window; `k = n` keeps only
    ///   fresh data, `k < n` keeps a `k/n` ratio of fresh tuples.
    /// * `daily_ingest` — the tuning constant `D`, close to the expected
    ///   number of tuples per incremental load.
    pub fn new(capacity: usize, k: f64, daily_ingest: f64, seed: u64) -> Result<Self> {
        if capacity == 0 {
            return Err(SamplingError::InvalidParameter {
                name: "capacity",
                message: "must be positive".into(),
            });
        }
        if !(k > 0.0) || k > capacity as f64 {
            return Err(SamplingError::InvalidParameter {
                name: "k",
                message: format!("must lie in (0, capacity={capacity}]"),
            });
        }
        if !(daily_ingest > 0.0) {
            return Err(SamplingError::InvalidParameter {
                name: "daily_ingest",
                message: "must be positive".into(),
            });
        }
        Ok(LastSeenReservoir {
            sample: Vec::with_capacity(capacity),
            capacity,
            k,
            d: daily_ingest,
            observed: 0,
            accepted: 0,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// The fixed acceptance probability `k/D` (clamped to 1).
    pub fn acceptance_probability(&self) -> f64 {
        (self.k / self.d).min(1.0)
    }

    /// Number of tuples that were accepted into the reservoir so far
    /// (including ones later overwritten).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// The configured `k` parameter.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// The configured `D` parameter.
    pub fn daily_ingest(&self) -> f64 {
        self.d
    }

    /// Consume the reservoir, returning the retained items.
    pub fn into_sample(self) -> Vec<SampledItem<T>> {
        self.sample
    }
}

impl<T> SamplingStrategy<T> for LastSeenReservoir<T> {
    fn observe_weighted(&mut self, item: T, weight: f64) -> Option<usize> {
        self.observed += 1;
        if self.sample.len() < self.capacity {
            self.sample.push(SampledItem::new(item, weight));
            self.accepted += 1;
            return Some(self.sample.len() - 1);
        }
        // rnd := random(); if (D*rnd) < k: smp[floor(n*rnd)] := tpl
        let rnd: f64 = self.rng.gen();
        if self.d * rnd < self.k {
            // floor(n*rnd) indexes the reservoir uniformly because rnd < k/D ≤ 1
            // is rescaled over the full capacity range.
            let slot = ((self.capacity as f64 * rnd / (self.k / self.d).min(1.0)) as usize)
                .min(self.capacity - 1);
            self.sample[slot] = SampledItem::new(item, weight);
            self.accepted += 1;
            return Some(slot);
        }
        None
    }

    fn sample(&self) -> &[SampledItem<T>] {
        &self.sample
    }

    fn observed(&self) -> u64 {
        self.observed
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn name(&self) -> &'static str {
        "last-seen"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parameter_validation() {
        assert!(LastSeenReservoir::<u64>::new(0, 1.0, 10.0, 1).is_err());
        assert!(LastSeenReservoir::<u64>::new(10, 0.0, 10.0, 1).is_err());
        assert!(LastSeenReservoir::<u64>::new(10, 11.0, 10.0, 1).is_err());
        assert!(LastSeenReservoir::<u64>::new(10, 5.0, 0.0, 1).is_err());
        assert!(LastSeenReservoir::<u64>::new(10, 5.0, 100.0, 1).is_ok());
    }

    #[test]
    fn acceptance_probability_is_k_over_d() {
        let r = LastSeenReservoir::<u64>::new(100, 50.0, 1000.0, 1).unwrap();
        assert!((r.acceptance_probability() - 0.05).abs() < 1e-12);
        assert_eq!(r.k(), 50.0);
        assert_eq!(r.daily_ingest(), 1000.0);
        // clamped when k > D
        let r = LastSeenReservoir::<u64>::new(100, 100.0, 50.0, 1).unwrap();
        assert_eq!(r.acceptance_probability(), 1.0);
    }

    #[test]
    fn size_never_exceeds_capacity() {
        let mut r = LastSeenReservoir::new(64, 32.0, 1000.0, 5).unwrap();
        for i in 0..50_000u64 {
            r.observe(i);
        }
        assert_eq!(r.len(), 64);
        assert_eq!(r.observed(), 50_000);
        assert_eq!(r.name(), "last-seen");
    }

    #[test]
    fn recency_bias_favours_recent_tuples() {
        // Stream 100k tuples; with k/D = 1000/10_000 = 0.1 the expected age
        // of a surviving tuple is ~capacity/acceptance-rate; the bulk of the
        // reservoir should come from the most recent portion of the stream.
        let mut r = LastSeenReservoir::new(1000, 1000.0, 10_000.0, 11).unwrap();
        let total = 100_000u64;
        for i in 0..total {
            r.observe(i);
        }
        let recent_half = r.sample().iter().filter(|s| s.item >= total / 2).count();
        let fraction_recent = recent_half as f64 / r.len() as f64;
        assert!(
            fraction_recent > 0.9,
            "expected strong recency bias, got {fraction_recent}"
        );
    }

    #[test]
    fn uniform_reservoir_lacks_recency_bias_in_comparison() {
        // Contrast with Algorithm R over the same stream: recency fraction ~0.5.
        use crate::reservoir::Reservoir;
        let mut uniform = Reservoir::new(1000, 11);
        let mut last_seen = LastSeenReservoir::new(1000, 1000.0, 10_000.0, 11).unwrap();
        let total = 100_000u64;
        for i in 0..total {
            uniform.observe(i);
            last_seen.observe(i);
        }
        let frac = |items: &[SampledItem<u64>]| {
            items.iter().filter(|s| s.item >= total / 2).count() as f64 / items.len() as f64
        };
        let uniform_frac = frac(uniform.sample());
        let ls_frac = frac(last_seen.sample());
        assert!(
            uniform_frac < 0.6,
            "uniform recency fraction {uniform_frac}"
        );
        assert!(ls_frac > uniform_frac + 0.3);
    }

    #[test]
    fn smaller_k_keeps_more_old_tuples() {
        let total = 20_000u64;
        let frac_recent = |k: f64| {
            let mut r = LastSeenReservoir::new(1000, k, 2_000.0, 3).unwrap();
            for i in 0..total {
                r.observe(i);
            }
            r.sample()
                .iter()
                .filter(|s| s.item >= total - 2_000)
                .count() as f64
                / r.len() as f64
        };
        let aggressive = frac_recent(1000.0); // k = n
        let gentle = frac_recent(100.0); // k = n/10
        assert!(
            aggressive > gentle,
            "k=n fraction {aggressive} should exceed k=n/10 fraction {gentle}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut r = LastSeenReservoir::new(50, 25.0, 500.0, seed).unwrap();
            for i in 0..10_000u64 {
                r.observe(i);
            }
            r.sample().iter().map(|s| s.item).collect::<Vec<_>>()
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn accepted_counter_and_into_sample() {
        let mut r = LastSeenReservoir::new(10, 5.0, 10.0, 9).unwrap();
        for i in 0..100u64 {
            r.observe(i);
        }
        assert!(r.accepted() >= 10);
        assert!(r.accepted() <= 100);
        let sample = r.into_sample();
        assert_eq!(sample.len(), 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn size_invariant(
            cap in 1usize..128,
            k_frac in 0.05f64..1.0,
            d in 10.0f64..10_000.0,
            stream in 0u64..3000,
            seed in 0u64..u64::MAX,
        ) {
            let k = (cap as f64 * k_frac).max(0.01);
            let mut r = LastSeenReservoir::new(cap, k, d, seed).unwrap();
            for i in 0..stream {
                r.observe(i);
            }
            prop_assert!(r.len() <= cap);
            prop_assert_eq!(r.len() as u64, stream.min(cap as u64));
        }
    }
}
