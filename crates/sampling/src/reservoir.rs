//! The classical reservoir algorithm R (paper Figure 2).
//!
//! The sample is populated with the first `n` tuples; every later tuple
//! number `cnt` replaces a uniformly random slot with probability
//! `n / cnt`, which yields a uniform sample without replacement of every
//! prefix of the stream (Vitter 1985).

use crate::traits::{SampledItem, SamplingStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A uniform reservoir sampler of fixed capacity `n` (Algorithm R).
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    sample: Vec<SampledItem<T>>,
    capacity: usize,
    observed: u64,
    rng: StdRng,
}

impl<T> Reservoir<T> {
    /// Create a reservoir of the given capacity with a fixed RNG seed.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a zero-capacity impression is
    /// meaningless and always a configuration bug.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            sample: Vec::with_capacity(capacity),
            capacity,
            observed: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Consume the reservoir, returning the retained items.
    pub fn into_sample(self) -> Vec<SampledItem<T>> {
        self.sample
    }

    /// The probability with which the *next* tuple would be accepted,
    /// `min(1, n / (cnt+1))`.
    pub fn next_acceptance_probability(&self) -> f64 {
        let cnt = self.observed + 1;
        (self.capacity as f64 / cnt as f64).min(1.0)
    }
}

impl<T> SamplingStrategy<T> for Reservoir<T> {
    fn observe_weighted(&mut self, item: T, weight: f64) -> Option<usize> {
        self.observed += 1;
        if self.sample.len() < self.capacity {
            self.sample.push(SampledItem::new(item, weight));
            return Some(self.sample.len() - 1);
        }
        let slot = self.rng.gen_range(0..self.observed) as usize;
        if slot < self.capacity {
            self.sample[slot] = SampledItem::new(item, weight);
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
        "uniform-reservoir"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Reservoir::<u64>::new(0, 1);
    }

    #[test]
    fn fills_up_to_capacity_first() {
        let mut r = Reservoir::new(5, 42);
        for i in 0..5u64 {
            r.observe(i);
        }
        assert_eq!(r.len(), 5);
        // the first n tuples are kept verbatim, in order
        let kept: Vec<u64> = r.sample().iter().map(|s| s.item).collect();
        assert_eq!(kept, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.observed(), 5);
        assert_eq!(r.capacity(), 5);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut r = Reservoir::new(10, 7);
        for i in 0..10_000u64 {
            r.observe(i);
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.observed(), 10_000);
        assert!((r.sampling_fraction() - 0.001).abs() < 1e-9);
    }

    #[test]
    fn sample_items_are_unique_stream_elements() {
        let mut r = Reservoir::new(50, 3);
        for i in 0..1000u64 {
            r.observe(i);
        }
        let mut items: Vec<u64> = r.sample().iter().map(|s| s.item).collect();
        items.sort_unstable();
        items.dedup();
        assert_eq!(items.len(), 50, "reservoir must hold distinct stream items");
    }

    #[test]
    fn acceptance_probability_decays() {
        let mut r = Reservoir::new(10, 1);
        assert_eq!(r.next_acceptance_probability(), 1.0);
        for i in 0..100u64 {
            r.observe(i);
        }
        assert!((r.next_acceptance_probability() - 10.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut r = Reservoir::new(20, seed);
            for i in 0..5000u64 {
                r.observe(i);
            }
            r.sample().iter().map(|s| s.item).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn uniformity_chi_square() {
        // Sample 100 out of 1000 repeatedly and check per-item inclusion
        // frequencies look uniform: each item should be included with
        // probability ~0.1.
        let trials = 400;
        let stream = 1000u64;
        let cap = 100usize;
        let mut inclusion = vec![0u32; stream as usize];
        for t in 0..trials {
            let mut r = Reservoir::new(cap, 1000 + t as u64);
            for i in 0..stream {
                r.observe(i);
            }
            for s in r.sample() {
                inclusion[s.item as usize] += 1;
            }
        }
        let expected = trials as f64 * cap as f64 / stream as f64; // 40
                                                                   // chi-square over 1000 cells, df ≈ 999; 3-sigma bound ≈ 999 + 3*sqrt(2*999) ≈ 1133
        let chi2: f64 = inclusion
            .iter()
            .map(|&o| {
                let d = o as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 1150.0, "chi2 = {chi2}");
        // and the first / last items are not systematically favoured
        let first_third: u32 = inclusion[..333].iter().sum();
        let last_third: u32 = inclusion[667..].iter().sum();
        let ratio = first_third as f64 / last_third as f64;
        assert!(ratio > 0.9 && ratio < 1.1, "ratio = {ratio}");
    }

    #[test]
    fn into_sample_returns_items() {
        let mut r = Reservoir::new(3, 2);
        for i in 0..10u64 {
            r.observe(i);
        }
        let items = r.into_sample();
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn weights_are_carried_through() {
        let mut r = Reservoir::new(2, 5);
        r.observe_weighted(1u64, 3.5);
        r.observe_weighted(2u64, 4.5);
        assert_eq!(r.sample()[0].weight, 3.5);
        assert_eq!(r.sample()[1].weight, 4.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn size_invariant(cap in 1usize..64, stream_len in 0u64..2000, seed in 0u64..u64::MAX) {
            let mut r = Reservoir::new(cap, seed);
            for i in 0..stream_len {
                r.observe(i);
            }
            prop_assert_eq!(r.len() as u64, stream_len.min(cap as u64));
            prop_assert_eq!(r.observed(), stream_len);
        }

        #[test]
        fn all_items_from_stream(cap in 1usize..32, stream_len in 1u64..500, seed in 0u64..u64::MAX) {
            let mut r = Reservoir::new(cap, seed);
            for i in 0..stream_len {
                r.observe(i * 3 + 1); // distinctive values
            }
            for s in r.sample() {
                prop_assert!(s.item >= 1 && s.item <= (stream_len - 1) * 3 + 1);
                prop_assert_eq!((s.item - 1) % 3, 0);
            }
        }
    }
}
