//! Property-based tests of the sampling crate's statistical contracts:
//! size invariants of every reservoir variant, the slot each observation
//! reports, and conservation laws of stratified allocation.

use proptest::prelude::*;
use sciborq_sampling::{
    BiasedReservoir, LastSeenReservoir, Reservoir, SamplingStrategy, StratifiedSampler,
    StratumAllocation,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Algorithm R: the reservoir holds exactly `min(capacity, stream)`
    /// items, every retained item came from the stream, and there are no
    /// duplicates (sampling is without replacement).
    #[test]
    fn reservoir_size_and_membership(
        cap in 1usize..128,
        stream in 0u64..4_000,
        seed in 0u64..u64::MAX,
    ) {
        let mut r = Reservoir::new(cap, seed);
        for i in 0..stream {
            r.observe(i);
        }
        prop_assert_eq!(r.len() as u64, stream.min(cap as u64));
        prop_assert_eq!(r.observed(), stream);
        let mut seen = std::collections::HashSet::new();
        for s in r.sample() {
            prop_assert!(s.item < stream, "item {} not from the stream", s.item);
            prop_assert!(seen.insert(s.item), "item {} retained twice", s.item);
        }
    }

    /// Every reservoir variant obeys the capacity bound on the same stream.
    #[test]
    fn all_variants_respect_capacity(
        cap in 1usize..64,
        stream in 0u64..2_000,
        seed in 0u64..u64::MAX,
    ) {
        let mut uniform = Reservoir::new(cap, seed);
        let mut biased = BiasedReservoir::new(cap, seed).unwrap();
        let mut last_seen =
            LastSeenReservoir::new(cap, cap as f64 * 0.5, 100.0, seed).unwrap();
        for i in 0..stream {
            let w = 0.1 + (i % 13) as f64;
            uniform.observe(i);
            biased.observe_weighted(i, w);
            last_seen.observe(i);
        }
        prop_assert!(uniform.len() <= cap);
        prop_assert!(biased.len() <= cap);
        prop_assert!(last_seen.len() <= cap);
    }

    /// Every reservoir variant reports the one slot an observation wrote:
    /// the sample differs from its previous state in exactly that slot (or
    /// nowhere when nothing was kept), so a mirror of the sample can be
    /// patched slot by slot.
    #[test]
    fn observe_reports_the_only_slot_it_wrote(
        cap in 1usize..32,
        stream in 0u64..600,
        seed in 0u64..u64::MAX,
    ) {
        fn check<S: SamplingStrategy<u64>>(s: &mut S, stream: u64, weight: impl Fn(u64) -> f64) {
            for i in 0..stream {
                let before = s.sample().to_vec();
                let slot = s.observe_weighted(i, weight(i));
                let after = s.sample();
                let changed: Vec<usize> = (0..after.len())
                    .filter(|&j| before.get(j) != Some(&after[j]))
                    .collect();
                prop_assert_eq!(changed, slot.into_iter().collect::<Vec<_>>());
                if let Some(slot) = slot {
                    prop_assert_eq!(after[slot].item, i);
                }
            }
        }
        let weight = |i: u64| 0.1 + (i % 13) as f64;
        check(&mut Reservoir::new(cap, seed), stream, weight);
        check(&mut BiasedReservoir::new(cap, seed).unwrap(), stream, weight);
        check(
            &mut LastSeenReservoir::new(cap, cap as f64 * 0.5, 100.0, seed).unwrap(),
            stream,
            weight,
        );
    }

    /// Stratified allocation: per-stratum capacities always sum to at least
    /// the requested capacity with every stratum non-empty, for both
    /// allocation modes and arbitrary non-negative weight vectors.
    #[test]
    fn stratified_allocation_sums(
        strata in 1usize..24,
        spare in 0usize..200,
        weights in proptest::collection::vec(0.0f64..10.0, 1..24),
        seed in 0u64..u64::MAX,
    ) {
        let capacity = strata + spare;
        let equal = StratifiedSampler::<u64>::new(
            0.0, 360.0, strata, capacity, StratumAllocation::Equal, None, seed,
        ).unwrap();
        let caps = equal.stratum_capacities();
        prop_assert_eq!(caps.len(), strata);
        prop_assert_eq!(caps.iter().sum::<usize>(), capacity);
        prop_assert!(caps.iter().all(|&c| c >= 1));
        // equal split never differs by more than one slot
        let (lo, hi) = (caps.iter().min().unwrap(), caps.iter().max().unwrap());
        prop_assert!(hi - lo <= 1);

        let mut w = weights;
        w.resize(strata, 0.5);
        if w.iter().sum::<f64>() <= 0.0 {
            w[0] = 1.0;
        }
        let proportional = StratifiedSampler::<u64>::new(
            0.0, 360.0, strata, capacity, StratumAllocation::Proportional, Some(&w), seed,
        ).unwrap();
        let caps = proportional.stratum_capacities();
        prop_assert_eq!(caps.len(), strata);
        prop_assert_eq!(caps.iter().sum::<usize>(), capacity);
        prop_assert!(caps.iter().all(|&c| c >= 1));
    }

    /// Streaming through a stratified sampler conserves counts: retained =
    /// Σ per-stratum sizes ≤ capacity, and every stratum stays within its
    /// own allocation.
    #[test]
    fn stratified_observation_conserves_counts(
        strata in 1usize..12,
        spare in 0usize..60,
        stream in 0u64..3_000,
        seed in 0u64..u64::MAX,
    ) {
        let capacity = strata + spare;
        let mut s = StratifiedSampler::new(
            0.0, 360.0, strata, capacity, StratumAllocation::Equal, None, seed,
        ).unwrap();
        for i in 0..stream {
            s.observe_value(i, (i as f64 * 7.31) % 360.0);
        }
        prop_assert_eq!(s.observed(), stream);
        let sizes = s.stratum_sizes();
        let caps = s.stratum_capacities();
        prop_assert_eq!(sizes.iter().sum::<usize>(), s.retained());
        prop_assert!(s.retained() <= capacity.max(strata));
        for (sz, cp) in sizes.iter().zip(caps.iter()) {
            prop_assert!(sz <= cp, "stratum holds {sz} > capacity {cp}");
        }
        prop_assert_eq!(s.sample_vec().len(), s.retained());
    }
}
