//! Predicate-set logging (Section 4 of the paper).
//!
//! "Given a query workload — which is defined over a period of time or over a
//! predefined number of queries — the *predicate set* is the set of all
//! values of the interesting attributes that are requested by the queries."
//!
//! SciBORQ keeps one equi-width histogram (count + mean per bin, Figure 5)
//! per interesting attribute; the binned KDE f̆ derived from it drives the
//! biased sampling of newly ingested tuples.

use crate::query::Query;
use sciborq_stats::{BinnedKde, EquiWidthHistogram, Result as StatsResult, StatsError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of one tracked attribute: its value domain and histogram
/// resolution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttributeDomain {
    /// Lower bound of the attribute's domain.
    pub min: f64,
    /// Upper bound of the attribute's domain.
    pub max: f64,
    /// Number of equi-width bins (`β`).
    pub bins: usize,
}

impl AttributeDomain {
    /// Create a domain descriptor.
    pub fn new(min: f64, max: f64, bins: usize) -> Self {
        AttributeDomain { min, max, bins }
    }
}

/// The predicate set of a workload: per-attribute streaming histograms of the
/// values requested by queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredicateSet {
    attributes: BTreeMap<String, EquiWidthHistogram>,
    /// Raw logged values, kept only when `retain_raw` is enabled (used by the
    /// Figure 4 experiment to compare f̆ against the full f̂).
    raw: BTreeMap<String, Vec<f64>>,
    retain_raw: bool,
    queries_observed: u64,
}

impl PredicateSet {
    /// Create a predicate set tracking the given attributes.
    pub fn new(attributes: &[(&str, AttributeDomain)]) -> StatsResult<Self> {
        let mut map = BTreeMap::new();
        for (name, domain) in attributes {
            map.insert(
                (*name).to_owned(),
                EquiWidthHistogram::new(domain.min, domain.max, domain.bins)?,
            );
        }
        Ok(PredicateSet {
            attributes: map,
            raw: BTreeMap::new(),
            retain_raw: false,
            queries_observed: 0,
        })
    }

    /// Also keep the raw requested values (needed only when the full KDE f̂
    /// must be computed, e.g. for the Figure 4 comparison; SciBORQ proper
    /// only needs the histograms).
    pub fn with_raw_values(mut self) -> Self {
        self.retain_raw = true;
        self
    }

    /// The tracked attribute names.
    pub fn attributes(&self) -> Vec<&str> {
        self.attributes.keys().map(String::as_str).collect()
    }

    /// Whether an attribute is tracked.
    pub fn tracks(&self, attribute: &str) -> bool {
        self.attributes.contains_key(attribute)
    }

    /// Number of queries observed so far.
    pub fn queries_observed(&self) -> u64 {
        self.queries_observed
    }

    /// Total number of values logged for an attribute (`N` in the paper).
    pub fn observed_values(&self, attribute: &str) -> u64 {
        self.attributes
            .get(attribute)
            .map(|h| h.total())
            .unwrap_or(0)
    }

    /// Log a single requested value for an attribute. Unknown attributes are
    /// silently ignored — the paper only tracks "attributes of interest".
    pub fn log_value(&mut self, attribute: &str, value: f64) {
        if let Some(hist) = self.attributes.get_mut(attribute) {
            hist.observe(value);
            if self.retain_raw {
                self.raw
                    .entry(attribute.to_owned())
                    .or_default()
                    .push(value);
            }
        }
    }

    /// Log every requested value of a query (its contribution to the
    /// predicate set) and count the query as observed.
    pub fn log_query(&mut self, query: &Query) {
        self.queries_observed += 1;
        for (attribute, value) in query.requested_values() {
            self.log_value(&attribute, value);
        }
    }

    /// The maintained histogram of an attribute.
    pub fn histogram(&self, attribute: &str) -> Option<&EquiWidthHistogram> {
        self.attributes.get(attribute)
    }

    /// The raw logged values of an attribute (only when raw retention is on).
    pub fn raw_values(&self, attribute: &str) -> Option<&[f64]> {
        self.raw.get(attribute).map(Vec::as_slice)
    }

    /// Build the binned density estimator f̆ for an attribute.
    ///
    /// Fails when no values have been logged for the attribute yet.
    pub fn interest_estimator(&self, attribute: &str) -> StatsResult<BinnedKde> {
        let hist = self
            .attributes
            .get(attribute)
            .ok_or(StatsError::EmptyInput("attribute not tracked"))?;
        BinnedKde::from_histogram(hist)
    }

    /// Combined interest weight of a multi-attribute tuple: the product of
    /// the per-attribute interest weights `f̆(x)·N`, matching the paper's
    /// footnote 4 combine function `c(t) = f̆(t.att1) ∘ … ∘ f̆(t.attm)`.
    ///
    /// Each value comes with its attribute's estimator, built once (see
    /// [`PredicateSet::interest_estimator`]) and reused across tuples; an
    /// attribute without one — untracked, or with no logged values —
    /// contributes a neutral factor of 1.
    pub fn combined_weight<'a>(
        tuple: impl IntoIterator<Item = (Option<&'a BinnedKde>, f64)>,
    ) -> f64 {
        tuple
            .into_iter()
            .fold(1.0, |weight, (estimator, value)| match estimator {
                Some(kde) => weight * kde.interest_weight(value),
                None => weight,
            })
    }

    /// Reset the logged statistics (e.g. when the exploration focus is
    /// declared stale), keeping the attribute configuration.
    pub fn reset(&mut self) {
        let configs: Vec<(String, f64, f64, usize)> = self
            .attributes
            .iter()
            .map(|(name, h)| (name.clone(), h.min(), h.max(), h.bin_count()))
            .collect();
        self.attributes.clear();
        for (name, min, max, bins) in configs {
            self.attributes.insert(
                name,
                EquiWidthHistogram::new(min, max, bins).expect("previously valid layout"),
            );
        }
        self.raw.clear();
        self.queries_observed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::cone_search_predicate;
    use sciborq_columnar::Predicate;

    fn sky_predicate_set() -> PredicateSet {
        PredicateSet::new(&[
            ("ra", AttributeDomain::new(0.0, 360.0, 36)),
            ("dec", AttributeDomain::new(-90.0, 90.0, 18)),
        ])
        .unwrap()
    }

    #[test]
    fn tracks_configured_attributes_only() {
        let ps = sky_predicate_set();
        assert_eq!(ps.attributes(), vec!["dec", "ra"]);
        assert!(ps.tracks("ra"));
        assert!(!ps.tracks("r_mag"));
        assert_eq!(ps.observed_values("ra"), 0);
        assert_eq!(ps.observed_values("nope"), 0);
    }

    #[test]
    fn invalid_domain_is_rejected() {
        assert!(PredicateSet::new(&[("x", AttributeDomain::new(1.0, 1.0, 4))]).is_err());
        assert!(PredicateSet::new(&[("x", AttributeDomain::new(0.0, 1.0, 0))]).is_err());
    }

    #[test]
    fn log_query_collects_requested_values() {
        let mut ps = sky_predicate_set();
        let q = Query::count(
            "photoobj",
            cone_search_predicate("ra", "dec", 185.0, 0.0, 3.0),
        );
        ps.log_query(&q);
        assert_eq!(ps.queries_observed(), 1);
        assert_eq!(ps.observed_values("ra"), 3);
        assert_eq!(ps.observed_values("dec"), 3);
        let hist = ps.histogram("ra").unwrap();
        assert_eq!(hist.total(), 3);
    }

    #[test]
    fn untracked_attributes_in_queries_are_ignored() {
        let mut ps = sky_predicate_set();
        let q = Query::select("photoobj", Predicate::gt("r_mag", 17.0));
        ps.log_query(&q);
        assert_eq!(ps.queries_observed(), 1);
        assert_eq!(ps.observed_values("ra"), 0);
    }

    #[test]
    fn interest_estimator_requires_observations() {
        let mut ps = sky_predicate_set();
        assert!(ps.interest_estimator("ra").is_err());
        assert!(ps.interest_estimator("unknown").is_err());
        ps.log_value("ra", 185.0);
        let kde = ps.interest_estimator("ra").unwrap();
        assert!(kde.density(185.0) > kde.density(20.0));
    }

    #[test]
    fn interest_concentrates_around_logged_values() {
        let mut ps = sky_predicate_set();
        for _ in 0..100 {
            ps.log_value("ra", 185.0);
            ps.log_value("ra", 186.0);
            ps.log_value("ra", 210.0);
        }
        let kde = ps.interest_estimator("ra").unwrap();
        assert!(kde.interest_weight(185.5) > kde.interest_weight(150.0) * 10.0);
        assert!(kde.interest_weight(210.0) > kde.interest_weight(150.0));
    }

    #[test]
    fn combined_weight_multiplies_attributes() {
        let mut ps = sky_predicate_set();
        for _ in 0..50 {
            ps.log_value("ra", 185.0);
            ps.log_value("dec", 0.0);
        }
        let estimator = |attribute| ps.interest_estimator(attribute).ok();
        let (ra, dec) = (estimator("ra"), estimator("dec"));
        let focal = PredicateSet::combined_weight([(ra.as_ref(), 185.0), (dec.as_ref(), 0.0)]);
        let off = PredicateSet::combined_weight([(ra.as_ref(), 30.0), (dec.as_ref(), -60.0)]);
        assert!(focal > off);
        // untracked attributes contribute a neutral factor
        let unknown = estimator("r_mag");
        assert!(unknown.is_none());
        let with_unknown =
            PredicateSet::combined_weight([(ra.as_ref(), 185.0), (unknown.as_ref(), 17.0)]);
        let ra_only = PredicateSet::combined_weight([(ra.as_ref(), 185.0)]);
        assert_eq!(with_unknown.to_bits(), ra_only.to_bits());
        // an empty tuple weighs 1
        assert_eq!(PredicateSet::combined_weight([]), 1.0);
    }

    #[test]
    fn raw_values_only_kept_when_requested() {
        let mut ps = sky_predicate_set();
        ps.log_value("ra", 185.0);
        assert!(ps.raw_values("ra").is_none());
        let mut ps = sky_predicate_set().with_raw_values();
        ps.log_value("ra", 185.0);
        ps.log_value("ra", 190.0);
        assert_eq!(ps.raw_values("ra").unwrap(), &[185.0, 190.0]);
    }

    #[test]
    fn reset_clears_statistics_but_keeps_layout() {
        let mut ps = sky_predicate_set().with_raw_values();
        ps.log_value("ra", 185.0);
        ps.log_query(&Query::count(
            "photoobj",
            cone_search_predicate("ra", "dec", 185.0, 0.0, 3.0),
        ));
        ps.reset();
        assert_eq!(ps.queries_observed(), 0);
        assert_eq!(ps.observed_values("ra"), 0);
        assert!(ps.tracks("ra"));
        assert_eq!(ps.histogram("ra").unwrap().bin_count(), 36);
        assert!(ps.raw_values("ra").is_none_or(|v| v.is_empty()));
    }

    #[test]
    fn n_matches_paper_definition() {
        // N is the total number of values observed in the predicate set for
        // that attribute, not the number of queries.
        let mut ps = sky_predicate_set();
        for i in 0..10 {
            let q = Query::count(
                "photoobj",
                cone_search_predicate("ra", "dec", 180.0 + i as f64, 0.0, 1.0),
            );
            ps.log_query(&q);
        }
        assert_eq!(ps.queries_observed(), 10);
        assert_eq!(ps.observed_values("ra"), 30);
        let kde = ps.interest_estimator("ra").unwrap();
        assert_eq!(kde.total(), 30.0);
    }
}
