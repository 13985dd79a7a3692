//! The KDE-biased reservoir algorithm of the paper (Figure 6).
//!
//! For uniform sampling a tuple is accepted with probability `n/cnt`. For
//! biased sampling the acceptance probability of a tuple `t` becomes
//!
//! ```text
//! P(accept t) = f̆(t) · N · n / cnt
//! ```
//!
//! where `f̆` is the binned density estimator of the workload's predicate
//! set, `N` the number of observed predicate values, `n` the impression size
//! and `cnt` the number of tuples seen so far. Tuples whose attribute values
//! lie near the focal points of past queries therefore have a much higher
//! chance of being retained, which is exactly the enrichment visible in
//! Figure 7. Accepted tuples replace a uniformly random victim so the
//! reservoir size stays constant.

use crate::error::{Result, SamplingError};
use crate::traits::{SampledItem, SamplingStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The biased sampling reservoir of Figure 6.
///
/// The caller supplies each tuple's *interest weight* `f̆(t)·N` via
/// [`SamplingStrategy::observe_weighted`]; the reservoir handles the
/// `·n/cnt` normalisation and the replacement policy.
#[derive(Debug, Clone)]
pub struct BiasedReservoir<T> {
    sample: Vec<SampledItem<T>>,
    capacity: usize,
    observed: u64,
    accepted: u64,
    /// Multiplier applied to every interest weight (defaults to 1); the
    /// experiments use it to study over/under-biasing.
    bias_strength: f64,
    rng: StdRng,
}

impl<T> BiasedReservoir<T> {
    /// Create a biased reservoir of the given capacity.
    pub fn new(capacity: usize, seed: u64) -> Result<Self> {
        Self::with_bias_strength(capacity, 1.0, seed)
    }

    /// Create a biased reservoir whose interest weights are additionally
    /// scaled by `bias_strength` (1.0 = the paper's rule).
    pub fn with_bias_strength(capacity: usize, bias_strength: f64, seed: u64) -> Result<Self> {
        if capacity == 0 {
            return Err(SamplingError::InvalidParameter {
                name: "capacity",
                message: "must be positive".into(),
            });
        }
        if !(bias_strength > 0.0) || !bias_strength.is_finite() {
            return Err(SamplingError::InvalidParameter {
                name: "bias_strength",
                message: "must be positive and finite".into(),
            });
        }
        Ok(BiasedReservoir {
            sample: Vec::with_capacity(capacity),
            capacity,
            observed: 0,
            accepted: 0,
            bias_strength,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// The acceptance probability the next observation would get for a given
    /// interest weight: `min(1, weight · bias · n / (cnt+1))`.
    pub fn acceptance_probability(&self, interest_weight: f64) -> f64 {
        let cnt = (self.observed + 1) as f64;
        (interest_weight * self.bias_strength * self.capacity as f64 / cnt).min(1.0)
    }

    /// Number of accepted (possibly later replaced) tuples.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// The configured bias strength multiplier.
    pub fn bias_strength(&self) -> f64 {
        self.bias_strength
    }

    /// Consume the reservoir, returning the retained items with their
    /// interest weights (needed by the weighted estimators).
    pub fn into_sample(self) -> Vec<SampledItem<T>> {
        self.sample
    }
}

impl<T> SamplingStrategy<T> for BiasedReservoir<T> {
    fn observe_weighted(&mut self, item: T, weight: f64) -> Option<usize> {
        self.observed += 1;
        // invalid weights are treated as "no interest" rather than panicking
        // inside a load pipeline
        let weight = if weight.is_finite() && weight >= 0.0 {
            weight
        } else {
            0.0
        };
        if self.sample.len() < self.capacity {
            self.sample.push(SampledItem::new(item, weight));
            self.accepted += 1;
            return Some(self.sample.len() - 1);
        }
        // rnd := random(); if (cnt*rnd) < (n*N*f̆(tpl)): smp[floor(rnd*n)] := tpl
        let rnd: f64 = self.rng.gen();
        let threshold = self.capacity as f64 * weight * self.bias_strength;
        if self.observed as f64 * rnd < threshold {
            let victim = self.rng.gen_range(0..self.capacity);
            self.sample[victim] = SampledItem::new(item, weight);
            self.accepted += 1;
            return Some(victim);
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
        "biased-reservoir"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parameter_validation() {
        assert!(BiasedReservoir::<u64>::new(0, 1).is_err());
        assert!(BiasedReservoir::<u64>::with_bias_strength(10, 0.0, 1).is_err());
        assert!(BiasedReservoir::<u64>::with_bias_strength(10, f64::NAN, 1).is_err());
        assert!(BiasedReservoir::<u64>::new(10, 1).is_ok());
    }

    #[test]
    fn acceptance_probability_formula() {
        let r = BiasedReservoir::<u64>::new(100, 1).unwrap();
        // cnt+1 = 1, weight 0.5 -> min(1, 0.5*100/1) = 1
        assert_eq!(r.acceptance_probability(0.5), 1.0);
        let mut r = BiasedReservoir::<u64>::new(100, 1).unwrap();
        for i in 0..10_000u64 {
            r.observe_weighted(i, 1.0);
        }
        // weight 2, n=100, cnt+1=10_001 -> 2*100/10001
        assert!((r.acceptance_probability(2.0) - 200.0 / 10_001.0).abs() < 1e-12);
        assert_eq!(r.bias_strength(), 1.0);
    }

    #[test]
    fn size_never_exceeds_capacity() {
        let mut r = BiasedReservoir::new(128, 3).unwrap();
        for i in 0..20_000u64 {
            r.observe_weighted(i, if i % 7 == 0 { 5.0 } else { 0.2 });
        }
        assert_eq!(r.len(), 128);
        assert_eq!(r.observed(), 20_000);
        assert_eq!(r.name(), "biased-reservoir");
        assert!(r.accepted() >= 128);
    }

    #[test]
    fn high_weight_items_are_enriched() {
        // Two classes of items: "focal" (weight 10) appearing 10% of the
        // time, "background" (weight 0.1) appearing 90% of the time.
        // Under uniform sampling the focal share of the sample would be ~10%;
        // under biased sampling it must be much larger.
        let mut r = BiasedReservoir::new(1000, 17).unwrap();
        let total = 200_000u64;
        for i in 0..total {
            let focal = i % 10 == 0;
            r.observe_weighted(i, if focal { 10.0 } else { 0.1 });
        }
        let focal_in_sample = r.sample().iter().filter(|s| s.item % 10 == 0).count();
        let share = focal_in_sample as f64 / r.len() as f64;
        assert!(
            share > 0.5,
            "focal items should dominate the biased sample, got share {share}"
        );
    }

    #[test]
    fn zero_weight_items_never_replace() {
        let mut r = BiasedReservoir::new(10, 23).unwrap();
        // fill with weight-1 items
        for i in 0..10u64 {
            r.observe_weighted(i, 1.0);
        }
        // stream many zero-weight items afterwards
        for i in 10..10_000u64 {
            r.observe_weighted(i, 0.0);
        }
        assert!(
            r.sample().iter().all(|s| s.item < 10),
            "zero-weight tuples must never evict interesting ones"
        );
    }

    #[test]
    fn negative_or_nan_weights_treated_as_zero() {
        let mut r = BiasedReservoir::new(5, 29).unwrap();
        for i in 0..5u64 {
            r.observe_weighted(i, 1.0);
        }
        for i in 5..1000u64 {
            r.observe_weighted(i, if i % 2 == 0 { -3.0 } else { f64::NAN });
        }
        assert!(r.sample().iter().all(|s| s.item < 5));
        // weights recorded for the retained items stay the originals
        assert!(r.sample().iter().all(|s| s.weight == 1.0));
    }

    #[test]
    fn bias_strength_amplifies_enrichment() {
        let share_for = |strength: f64| {
            let mut r = BiasedReservoir::with_bias_strength(500, strength, 31).unwrap();
            for i in 0..100_000u64 {
                let focal = i % 10 == 0;
                r.observe_weighted(i, if focal { 3.0 } else { 0.3 });
            }
            r.sample().iter().filter(|s| s.item % 10 == 0).count() as f64 / r.len() as f64
        };
        let weak = share_for(0.2);
        let strong = share_for(5.0);
        assert!(
            strong > weak,
            "stronger bias should enrich more: weak {weak} vs strong {strong}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut r = BiasedReservoir::new(64, seed).unwrap();
            for i in 0..10_000u64 {
                r.observe_weighted(i, (i % 13) as f64 / 6.0);
            }
            r.sample().iter().map(|s| s.item).collect::<Vec<_>>()
        };
        assert_eq!(run(77), run(77));
    }

    #[test]
    fn into_sample_preserves_weights() {
        let mut r = BiasedReservoir::new(3, 41).unwrap();
        r.observe_weighted(1u64, 0.5);
        r.observe_weighted(2u64, 1.5);
        let s = r.into_sample();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].weight, 1.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn size_invariant(
            cap in 1usize..64,
            stream in 0u64..2000,
            seed in 0u64..u64::MAX,
        ) {
            let mut r = BiasedReservoir::new(cap, seed).unwrap();
            for i in 0..stream {
                r.observe_weighted(i, ((i % 5) as f64) / 2.0);
            }
            prop_assert_eq!(r.len() as u64, stream.min(cap as u64));
            prop_assert_eq!(r.observed(), stream);
        }

        #[test]
        fn acceptance_probability_in_unit_interval(
            weight in 0.0f64..100.0,
            observed in 0u64..100_000,
        ) {
            let mut r = BiasedReservoir::<u64>::new(50, 1).unwrap();
            for i in 0..observed.min(200) {
                r.observe_weighted(i, 1.0);
            }
            let p = r.acceptance_probability(weight);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
