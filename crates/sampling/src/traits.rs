//! The sampling-strategy abstraction shared by all reservoir variants.
//!
//! Every SciBORQ impression is built by streaming the tuples of an
//! incremental load through a *sampler* with a fixed capacity, exactly like
//! the reservoir algorithms of Figures 2, 3 and 6 of the paper. The trait
//! below captures what the impression builder needs from such a sampler:
//! feed items (optionally with an interest weight), then read back the
//! retained items together with the relative probability with which each was
//! kept, so that the estimators can correct for the sampling design.

use serde::{Deserialize, Serialize};

/// An item retained in a sample, together with the information the
/// estimators need about how it got there.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampledItem<T> {
    /// The retained item (e.g. a row id of the layer below).
    pub item: T,
    /// The relative interest weight the item had when it was observed
    /// (1.0 for uniform strategies).
    pub weight: f64,
}

impl<T> SampledItem<T> {
    /// Convenience constructor.
    pub fn new(item: T, weight: f64) -> Self {
        SampledItem { item, weight }
    }
}

/// A bounded-capacity, single-pass sampling strategy.
///
/// Implementations must be deterministic given their seed so experiments are
/// reproducible.
pub trait SamplingStrategy<T> {
    /// Observe the next item of the stream with a neutral weight of 1.
    /// Returns the slot the item was written into, as
    /// [`SamplingStrategy::observe_weighted`] does.
    fn observe(&mut self, item: T) -> Option<usize> {
        self.observe_weighted(item, 1.0)
    }

    /// Observe the next item of the stream together with its interest
    /// weight (`f̆(t)·N` for the biased strategy; ignored by uniform ones).
    ///
    /// Returns the index into [`SamplingStrategy::sample`] the item was
    /// written into — a new slot while the sample fills, the evicted
    /// victim's slot afterwards — or `None` when the item was not kept.
    /// Every other slot is untouched, so a consumer that mirrors the sample
    /// can update exactly the slots reported here.
    fn observe_weighted(&mut self, item: T, weight: f64) -> Option<usize>;

    /// The items currently retained.
    fn sample(&self) -> &[SampledItem<T>];

    /// The number of items observed so far (`cnt` in the paper's listings).
    fn observed(&self) -> u64;

    /// The maximum number of items the sampler retains (`n`).
    fn capacity(&self) -> usize;

    /// The number of items currently retained (≤ capacity).
    fn len(&self) -> usize {
        self.sample().len()
    }

    /// True when nothing has been retained yet.
    fn is_empty(&self) -> bool {
        self.sample().is_empty()
    }

    /// The fraction of observed items currently retained; 1.0 until the
    /// reservoir first overflows.
    fn sampling_fraction(&self) -> f64 {
        if self.observed() == 0 {
            1.0
        } else {
            self.len() as f64 / self.observed() as f64
        }
    }

    /// A short, human-readable name for reports and benchmarks.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct KeepFirst {
        items: Vec<SampledItem<u64>>,
        capacity: usize,
        observed: u64,
    }

    impl SamplingStrategy<u64> for KeepFirst {
        fn observe_weighted(&mut self, item: u64, weight: f64) -> Option<usize> {
            self.observed += 1;
            if self.items.len() < self.capacity {
                self.items.push(SampledItem::new(item, weight));
                return Some(self.items.len() - 1);
            }
            None
        }
        fn sample(&self) -> &[SampledItem<u64>] {
            &self.items
        }
        fn observed(&self) -> u64 {
            self.observed
        }
        fn capacity(&self) -> usize {
            self.capacity
        }
        fn name(&self) -> &'static str {
            "keep-first"
        }
    }

    #[test]
    fn default_observe_uses_unit_weight() {
        let mut s = KeepFirst {
            items: vec![],
            capacity: 2,
            observed: 0,
        };
        s.observe(7);
        assert_eq!(s.sample()[0].weight, 1.0);
        assert_eq!(s.sample()[0].item, 7);
    }

    #[test]
    fn provided_methods() {
        let mut s = KeepFirst {
            items: vec![],
            capacity: 2,
            observed: 0,
        };
        assert!(s.is_empty());
        assert_eq!(s.sampling_fraction(), 1.0);
        for i in 0..10 {
            s.observe(i);
        }
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.observed(), 10);
        assert!((s.sampling_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(s.name(), "keep-first");
    }

    #[test]
    fn sampled_item_constructor() {
        let it = SampledItem::new("x", 2.5);
        assert_eq!(it.item, "x");
        assert_eq!(it.weight, 2.5);
    }
}
