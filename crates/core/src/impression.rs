//! Impressions: the biased, bounded-size samples at the heart of SciBORQ.
//!
//! An impression is a materialised sample of a table (or of a more detailed
//! impression one layer below) together with the metadata the bounded query
//! engine needs: which policy built it, how many tuples the source held when
//! it was built, and — for biased impressions — the interest weight of every
//! retained tuple, so that estimates can be corrected for the unequal
//! selection probabilities.
//!
//! ## Lifecycle of the probability cache
//!
//! The weighted (Hansen–Hurwitz) estimators need every retained row's
//! single-draw selection probability. Deriving it per query (`wᵢ / Σw`) would
//! put a division on the hottest loop in the system, so a biased impression
//! precomputes the whole slice **once per impression**: at construction, and
//! again on [`Impression::rescale_population`] (re-anchoring changes the
//! normaliser) and whenever a load patches the impression's rows. Queries — and the fused weighted scan kernels — borrow the
//! cached slice via [`Impression::selection_probabilities`] and never
//! recompute it. Self-weighted impressions skip the cache entirely: every
//! row's probability is the constant `1/cnt` and their estimators never
//! read it per row.

use crate::error::{Result, SciborqError};
use crate::policy::SamplingPolicy;
use sciborq_columnar::{MomentSketch, SelectionVector, Table};
use sciborq_stats::{
    Estimate, SrsEstimator, WeightedEstimator, WeightedMomentSketch, WeightedObservation,
};

/// A materialised sample of a source table plus sampling metadata.
#[derive(Debug, Clone)]
pub struct Impression {
    /// Name of this impression (e.g. `photoobj.layer1.biased`).
    name: String,
    /// Name of the source table (the base fact table).
    source_table: String,
    /// The sampled rows, materialised as a columnar table.
    data: Table,
    /// Interest weight of each retained row (aligned with `data` rows).
    weights: Vec<f64>,
    /// Per-row single-draw selection probabilities, precomputed once per
    /// impression (see the module docs) so the weighted estimators and the
    /// fused weighted scan kernels never derive them per query.
    probabilities: Vec<f64>,
    /// Sum of the interest weights over *all* tuples observed during
    /// construction (the normaliser for selection probabilities).
    total_observed_weight: f64,
    /// Number of tuples observed during construction (`cnt`).
    source_rows: u64,
    /// The policy that built this impression.
    policy: SamplingPolicy,
    /// Which layer this impression sits on (1 = most detailed impression).
    layer: usize,
}

/// Maximum distinct-value count for which an impression's Utf8 columns are
/// dictionary-encoded at construction. Scientific category columns (object
/// class, filter band, processing flags) sit orders of magnitude below this;
/// columns that exceed it (identifiers, free text) would pay dictionary
/// maintenance without ever winning on scan speed and stay plain.
pub const DICT_MAX_CARDINALITY: usize = 1 << 16;

impl Impression {
    /// Assemble an impression from its parts. Intended to be called by the
    /// [`crate::builder::ImpressionBuilder`].
    ///
    /// Utf8 columns with at most [`DICT_MAX_CARDINALITY`] distinct values
    /// are dictionary-encoded here, once, so every later scan of the
    /// impression runs string predicates as integer-code compares.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        source_table: impl Into<String>,
        mut data: Table,
        weights: Vec<f64>,
        total_observed_weight: f64,
        source_rows: u64,
        policy: SamplingPolicy,
        layer: usize,
    ) -> Result<Self> {
        if weights.len() != data.row_count() {
            return Err(SciborqError::InvalidConfig(format!(
                "impression has {} rows but {} weights",
                data.row_count(),
                weights.len()
            )));
        }
        data.dict_encode_strings(DICT_MAX_CARDINALITY);
        let mut imp = Impression {
            name: name.into(),
            source_table: source_table.into(),
            data,
            weights,
            probabilities: Vec::new(),
            total_observed_weight,
            source_rows,
            policy,
            layer,
        };
        imp.recompute_probabilities();
        Ok(imp)
    }

    /// Rebuild the cached selection-probability slice. Called at
    /// construction and whenever the population anchoring changes. Only
    /// biased impressions materialise the slice — self-weighted policies
    /// never read per-row probabilities on any estimation path, so caching
    /// an n-length constant vector for them would only waste memory (and
    /// skew `byte_size`-based storage-class placement).
    fn recompute_probabilities(&mut self) {
        self.probabilities = match &self.policy {
            SamplingPolicy::Biased { .. } if self.total_observed_weight > 0.0 => {
                let total = self.total_observed_weight;
                self.weights
                    .iter()
                    .map(|w| (w / total).max(f64::MIN_POSITIVE))
                    .collect()
            }
            SamplingPolicy::Biased { .. } => {
                // no weight ever observed: degrade to uniform draws
                vec![self.uniform_probability(); self.weights.len()]
            }
            _ => Vec::new(),
        };
    }

    /// The impression's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name of the base table this impression summarises.
    pub fn source_table(&self) -> &str {
        &self.source_table
    }

    /// The sampled rows.
    pub fn data(&self) -> &Table {
        &self.data
    }

    /// Number of retained rows (`n`).
    pub fn row_count(&self) -> usize {
        self.data.row_count()
    }

    /// Number of tuples the source held when the impression was built
    /// (`cnt`).
    pub fn source_rows(&self) -> u64 {
        self.source_rows
    }

    /// The total interest weight observed during construction (the
    /// normaliser of biased selection probabilities).
    pub fn total_observed_weight(&self) -> f64 {
        self.total_observed_weight
    }

    /// Re-anchor the population this impression is treated as a sample of.
    ///
    /// Derived layers are physically sampled from the impression one layer
    /// below, but statistically they summarise the *base* table: the
    /// hierarchy rescales their population size (and, for biased policies,
    /// the total interest weight) to the base table's, so that estimates
    /// expand all the way to the base data rather than to the parent layer.
    pub fn rescale_population(&mut self, source_rows: u64, total_observed_weight: f64) {
        self.source_rows = source_rows;
        self.total_observed_weight = total_observed_weight;
        // both inputs feed the cached probability slice
        self.recompute_probabilities();
    }

    /// Patch the impression in place after a load: overwrite each slot
    /// `slot` of `writes` with base row `row` and give it `weight`, then
    /// re-anchor on the load's `source_rows` and `total_observed_weight`.
    /// The result is what [`Impression::new`] over the same rows, weights
    /// and anchors would build, bit for bit.
    ///
    /// Returns `Ok(false)` when a row cannot be written in place (a string
    /// outside a dictionary-encoded column's dictionary); the impression is
    /// then partly patched and must be rebuilt.
    pub(crate) fn patch(
        &mut self,
        base: &Table,
        writes: &[(usize, usize, f64)],
        source_rows: u64,
        total_observed_weight: f64,
    ) -> Result<bool> {
        if !writes.is_empty() {
            let pairs: Vec<(usize, usize)> =
                writes.iter().map(|&(slot, row, _)| (slot, row)).collect();
            if !self.data.overwrite_rows(base, &pairs)? {
                return Ok(false);
            }
            // A plain string column may have dropped to a dictionary's size.
            self.data.dict_encode_strings(DICT_MAX_CARDINALITY);
            for &(slot, _, weight) in writes {
                self.weights[slot] = weight;
            }
        }
        self.rescale_population(source_rows, total_observed_weight);
        Ok(true)
    }

    /// The sampling fraction `n / cnt`.
    pub fn sampling_fraction(&self) -> f64 {
        if self.source_rows == 0 {
            1.0
        } else {
            self.row_count() as f64 / self.source_rows as f64
        }
    }

    /// The policy that built the impression.
    pub fn policy(&self) -> &SamplingPolicy {
        &self.policy
    }

    /// The layer index (1 = sampled directly from the base data).
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Interest weights of the retained rows.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Approximate memory footprint in bytes (including the cached
    /// selection-probability slice).
    pub fn byte_size(&self) -> usize {
        self.data.byte_size() + (self.weights.len() + self.probabilities.len()) * 8
    }

    /// The uniform single-draw probability `1/cnt` (the self-weighted
    /// policies' probability, and the biased fallback when no weight was
    /// ever observed).
    fn uniform_probability(&self) -> f64 {
        if self.source_rows == 0 {
            1.0
        } else {
            1.0 / self.source_rows as f64
        }
    }

    /// The single-draw selection probability of retained row `idx`, suitable
    /// for Hansen–Hurwitz estimation. For self-weighted policies this is
    /// simply `1/cnt`; for biased policies it is `wᵢ / Σ w` over all
    /// observed tuples, read from the cached slice.
    pub fn selection_probability(&self, idx: usize) -> f64 {
        debug_assert!(idx < self.row_count());
        if self.uses_weighted_estimators() {
            self.probabilities[idx]
        } else {
            self.uniform_probability()
        }
    }

    /// The per-row single-draw selection probabilities, precomputed once per
    /// impression. This is the slice the fused weighted scan sinks
    /// ([`sciborq_columnar::WeightedMomentSink`]) expand matching rows by. Empty for self-weighted policies, whose
    /// streamed estimators never read per-row probabilities (every row's is
    /// the constant `1/cnt`, see [`Impression::selection_probability`]).
    pub fn selection_probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Whether this impression's estimators use the weighted
    /// (Hansen–Hurwitz / Hájek) family, i.e. whether streamed estimation
    /// goes through the `estimate_weighted_*` entry points and the
    /// probability slice.
    /// Every policy streams: self-weighted policies (uniform, last-seen)
    /// stream match counts and [`MomentSketch`]es into the SRS estimators;
    /// biased policies stream [`WeightedMomentSketch`]es into the
    /// Hansen–Hurwitz estimators.
    pub fn uses_weighted_estimators(&self) -> bool {
        matches!(self.policy, SamplingPolicy::Biased { .. })
    }

    /// Guard for the SRS streamed entry points, which remain exclusive to
    /// self-weighted policies (biased impressions stream through the
    /// `estimate_weighted_*` counterparts).
    fn require_self_weighted(&self, what: &str) -> Result<()> {
        if self.uses_weighted_estimators() {
            return Err(SciborqError::InvalidConfig(format!(
                "streamed {what} estimation requires a self-weighted impression; \
                 biased impressions use the weighted streamed estimators"
            )));
        }
        Ok(())
    }

    /// Estimate COUNT from a fused filter+count kernel's match count,
    /// without a selection vector. Only valid for self-weighted policies;
    /// biased impressions use [`Impression::estimate_weighted_count`].
    pub fn estimate_count_streamed(&self, matched: usize) -> Result<Estimate> {
        self.require_self_weighted("COUNT")?;
        let est = SrsEstimator::new(self.source_rows, self.row_count() as u64)?
            .estimate_count(matched)?;
        Ok(est)
    }

    /// Estimate SUM from a fused filter+aggregate moment sketch, without
    /// re-walking any selection. Only valid for self-weighted policies;
    /// biased impressions use [`Impression::estimate_weighted_sum`].
    pub fn estimate_sum_streamed(&self, sketch: &MomentSketch) -> Result<Estimate> {
        self.require_self_weighted("SUM")?;
        let est = SrsEstimator::new(self.source_rows, self.row_count() as u64)?
            .estimate_sum_parts(sketch.count, sketch.sum, sketch.sum_sq)?;
        Ok(est)
    }

    /// Estimate AVG from a fused filter+aggregate moment sketch, without
    /// re-walking any selection. Only valid for self-weighted policies;
    /// biased impressions use [`Impression::estimate_weighted_avg`].
    pub fn estimate_avg_streamed(&self, sketch: &MomentSketch) -> Result<Estimate> {
        self.require_self_weighted("AVG")?;
        let est = SrsEstimator::new(self.source_rows, self.row_count() as u64)?
            .estimate_avg_parts(sketch.count, sketch.mean, sketch.m2)?;
        Ok(est)
    }

    /// Shared tail of the weighted COUNT / SUM streamed estimators: both are
    /// Hansen–Hurwitz totals over this impression's draws (COUNT feeds value
    /// `1.0` through the same fold).
    fn estimate_total_weighted(&self, sketch: &WeightedMomentSketch) -> Result<Estimate> {
        if self.row_count() == 0 {
            return Ok(Estimate::exact(0.0, 0));
        }
        Ok(WeightedEstimator::estimate_total_from_sketch(
            sketch,
            self.row_count(),
        )?)
    }

    /// Estimate COUNT from a fused *weighted* filter+count sketch (a
    /// counting [`sciborq_columnar::WeightedMomentSink`] over
    /// [`Impression::selection_probabilities`]) — the streamed
    /// Hansen–Hurwitz path: no selection vector, no observation vector.
    ///
    /// Bit-identical to [`Impression::estimate_count`] on the equivalent
    /// selection: both fold the same expansions in the same row order.
    pub fn estimate_weighted_count(&self, sketch: &WeightedMomentSketch) -> Result<Estimate> {
        self.estimate_total_weighted(sketch)
    }

    /// Estimate SUM from a fused weighted filter+aggregate sketch — the
    /// streamed Hansen–Hurwitz path. Bit-identical to [`Impression::estimate_sum`]
    /// on the equivalent selection.
    pub fn estimate_weighted_sum(&self, sketch: &WeightedMomentSketch) -> Result<Estimate> {
        self.estimate_total_weighted(sketch)
    }

    /// Estimate AVG from a fused weighted filter+aggregate sketch — the
    /// streamed Hájek ratio path. Bit-identical to
    /// [`Impression::estimate_avg`] on the equivalent selection; errors when
    /// no matching draw carried a non-NULL value, like the selection path.
    pub fn estimate_weighted_avg(&self, sketch: &WeightedMomentSketch) -> Result<Estimate> {
        if sketch.count == 0 {
            return Err(SciborqError::Stats(sciborq_stats::StatsError::EmptyInput(
                "no matching rows in impression",
            )));
        }
        Ok(WeightedEstimator::estimate_mean_from_sketch(sketch)?)
    }

    /// Estimate the number of source-table rows matching a selection of this
    /// impression's rows.
    pub fn estimate_count(&self, selection: &SelectionVector) -> Result<Estimate> {
        match self.policy {
            SamplingPolicy::Uniform | SamplingPolicy::LastSeen { .. } => {
                let est = SrsEstimator::new(self.source_rows, self.row_count() as u64)?
                    .estimate_count(selection.len())?;
                Ok(est)
            }
            SamplingPolicy::Biased { .. } => {
                if self.row_count() == 0 {
                    return Ok(Estimate::exact(0.0, 0));
                }
                // Walk only the selected rows (ascending, so the fold order
                // matches the streamed kernels); non-matching draws are
                // zero-valued and left implicit — the estimator zero-extends
                // over the full draw count.
                let observations: Vec<WeightedObservation> = selection
                    .iter()
                    .map(|i| WeightedObservation {
                        value: 1.0,
                        probability: self.probabilities[i],
                    })
                    .collect();
                let mut est = WeightedEstimator::estimate_total_zero_extended(
                    &observations,
                    self.row_count(),
                )?;
                // Degrees of freedom for the interval come from the draws
                // that matched the predicate, mirroring `SrsEstimator`.
                if !selection.is_empty() {
                    est.sample_size = selection.len();
                }
                Ok(est)
            }
        }
    }

    /// Estimate the source-table SUM of `column` over the selected rows.
    pub fn estimate_sum(&self, column: &str, selection: &SelectionVector) -> Result<Estimate> {
        match self.policy {
            SamplingPolicy::Uniform | SamplingPolicy::LastSeen { .. } => {
                let values = self.data.numeric_values(column, selection)?;
                Ok(
                    SrsEstimator::new(self.source_rows, self.row_count() as u64)?
                        .estimate_sum(&values)?,
                )
            }
            SamplingPolicy::Biased { .. } => {
                let col = self.numeric_column(column)?;
                if self.row_count() == 0 {
                    return Ok(Estimate::exact(0.0, 0));
                }
                // Selected rows only, in row order; NULL values are skipped —
                // like non-matching draws they are zero-valued, so the
                // zero-extension already accounts for them.
                let observations: Vec<WeightedObservation> = selection
                    .iter()
                    .filter_map(|i| {
                        col.get_f64(i).map(|value| WeightedObservation {
                            value,
                            probability: self.probabilities[i],
                        })
                    })
                    .collect();
                let mut est = WeightedEstimator::estimate_total_zero_extended(
                    &observations,
                    self.row_count(),
                )?;
                if !selection.is_empty() {
                    est.sample_size = selection.len();
                }
                Ok(est)
            }
        }
    }

    /// Look up a column and insist it is numeric, without materialising its
    /// values (the weighted estimators scan it exactly once themselves).
    fn numeric_column(&self, column: &str) -> Result<&sciborq_columnar::Column> {
        let col = self.data.column(column)?;
        if !col.data_type().is_numeric() {
            return Err(SciborqError::Columnar(
                sciborq_columnar::ColumnarError::NotNumeric(column.to_owned()),
            ));
        }
        Ok(col)
    }

    /// Estimate the source-table AVG of `column` over the selected rows.
    pub fn estimate_avg(&self, column: &str, selection: &SelectionVector) -> Result<Estimate> {
        match self.policy {
            SamplingPolicy::Uniform | SamplingPolicy::LastSeen { .. } => {
                let values = self.data.numeric_values(column, selection)?;
                Ok(
                    SrsEstimator::new(self.source_rows, self.row_count() as u64)?
                        .estimate_avg(&values)?,
                )
            }
            SamplingPolicy::Biased { .. } => {
                let col = self.numeric_column(column)?;
                let observations: Vec<WeightedObservation> = selection
                    .iter()
                    .filter_map(|i| {
                        col.get_f64(i).map(|value| WeightedObservation {
                            value,
                            probability: self.selection_probability(i),
                        })
                    })
                    .collect();
                if observations.is_empty() {
                    return Err(SciborqError::Stats(sciborq_stats::StatsError::EmptyInput(
                        "no matching rows in impression",
                    )));
                }
                Ok(WeightedEstimator::estimate_mean(&observations)?)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciborq_columnar::{DataType, Field, Predicate, Schema, Value};

    fn impression_with(policy: SamplingPolicy) -> Impression {
        let schema = Schema::shared(vec![
            Field::new("ra", DataType::Float64),
            Field::new("r_mag", DataType::Float64),
        ])
        .unwrap();
        let mut data = Table::new("sample", schema);
        let rows = [(180.0, 17.0), (185.0, 18.0), (190.0, 19.0), (200.0, 20.0)];
        for (ra, mag) in rows {
            data.append_row(&[Value::Float64(ra), Value::Float64(mag)])
                .unwrap();
        }
        let weights = vec![1.0, 2.0, 1.0, 0.5];
        Impression::new(
            "photoobj.l1",
            "photoobj",
            data,
            weights,
            100.0,
            1_000,
            policy,
            1,
        )
        .unwrap()
    }

    #[test]
    fn metadata_accessors() {
        let imp = impression_with(SamplingPolicy::Uniform);
        assert_eq!(imp.name(), "photoobj.l1");
        assert_eq!(imp.source_table(), "photoobj");
        assert_eq!(imp.row_count(), 4);
        assert_eq!(imp.source_rows(), 1_000);
        assert!((imp.sampling_fraction() - 0.004).abs() < 1e-12);
        assert_eq!(imp.layer(), 1);
        assert_eq!(imp.policy().name(), "uniform");
        assert_eq!(imp.weights().len(), 4);
        assert!(imp.byte_size() > 0);
    }

    #[test]
    fn weight_length_mismatch_rejected() {
        let schema = Schema::shared(vec![Field::new("x", DataType::Float64)]).unwrap();
        let mut data = Table::new("s", schema);
        data.append_row(&[Value::Float64(1.0)]).unwrap();
        let err = Impression::new("i", "t", data, vec![], 0.0, 10, SamplingPolicy::Uniform, 1)
            .unwrap_err();
        assert!(matches!(err, SciborqError::InvalidConfig(_)));
    }

    #[test]
    fn uniform_selection_probability_is_one_over_cnt() {
        let imp = impression_with(SamplingPolicy::Uniform);
        assert!((imp.selection_probability(0) - 0.001).abs() < 1e-12);
        assert!((imp.selection_probability(3) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn biased_selection_probability_proportional_to_weight() {
        let imp = impression_with(SamplingPolicy::biased(["ra"]));
        assert!((imp.selection_probability(1) / imp.selection_probability(0) - 2.0).abs() < 1e-9);
        assert!((imp.selection_probability(0) - 1.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_count_estimate_scales() {
        let imp = impression_with(SamplingPolicy::Uniform);
        let sel = Predicate::lt_eq("ra", 190.0).evaluate(imp.data()).unwrap();
        assert_eq!(sel.len(), 3);
        let est = imp.estimate_count(&sel).unwrap();
        // 3 of 4 sample rows match -> 750 of 1000
        assert!((est.value - 750.0).abs() < 1e-9);
        assert!(est.standard_error > 0.0);
    }

    #[test]
    fn uniform_avg_estimate() {
        let imp = impression_with(SamplingPolicy::Uniform);
        let sel = SelectionVector::all(4);
        let est = imp.estimate_avg("r_mag", &sel).unwrap();
        assert!((est.value - 18.5).abs() < 1e-9);
        let sum = imp.estimate_sum("r_mag", &sel).unwrap();
        assert!((sum.value - 1000.0 * 18.5).abs() < 1e-6);
    }

    #[test]
    fn biased_count_estimate_uses_weights() {
        let imp = impression_with(SamplingPolicy::biased(["ra"]));
        // all rows selected: HH estimator averages 1/p over draws; with the
        // chosen weights the estimate differs from the naive n/cnt expansion
        let est = imp.estimate_count(&SelectionVector::all(4)).unwrap();
        assert!(est.value > 0.0);
        // a selection of only the heavily weighted row should expand by less
        // than a selection of the lightly weighted row
        let heavy = imp
            .estimate_count(&SelectionVector::from_rows(vec![1]))
            .unwrap();
        let light = imp
            .estimate_count(&SelectionVector::from_rows(vec![3]))
            .unwrap();
        assert!(
            light.value > heavy.value,
            "low-probability rows must expand more: {} vs {}",
            light.value,
            heavy.value
        );
    }

    #[test]
    fn biased_avg_requires_matches() {
        let imp = impression_with(SamplingPolicy::biased(["ra"]));
        assert!(imp
            .estimate_avg("r_mag", &SelectionVector::empty())
            .is_err());
        let est = imp.estimate_avg("r_mag", &SelectionVector::all(4)).unwrap();
        assert!(est.value > 17.0 && est.value < 20.0);
    }

    #[test]
    fn estimates_on_missing_column_error() {
        let imp = impression_with(SamplingPolicy::Uniform);
        assert!(imp
            .estimate_avg("missing", &SelectionVector::all(4))
            .is_err());
        assert!(imp
            .estimate_sum("missing", &SelectionVector::all(4))
            .is_err());
    }

    #[test]
    fn streamed_estimates_match_selection_estimates() {
        use sciborq_columnar::CompiledPredicate;
        let imp = impression_with(SamplingPolicy::Uniform);
        assert!(!imp.uses_weighted_estimators());
        let predicate = Predicate::lt_eq("ra", 190.0);
        let sel = predicate.evaluate(imp.data()).unwrap();
        let compiled = CompiledPredicate::compile(&predicate, imp.data().schema()).unwrap();
        let (matched, _) = compiled.count_matches(imp.data()).unwrap();
        assert_eq!(
            imp.estimate_count(&sel).unwrap(),
            imp.estimate_count_streamed(matched).unwrap()
        );
        let (sketch, _) = compiled.filter_moments(imp.data(), "r_mag").unwrap();
        assert_eq!(
            imp.estimate_sum("r_mag", &sel).unwrap(),
            imp.estimate_sum_streamed(&sketch).unwrap()
        );
        // the selection path computes a naive sum/m mean while the sketch
        // accumulates a Welford mean — equal up to rounding, not bitwise
        let by_selection = imp.estimate_avg("r_mag", &sel).unwrap();
        let streamed = imp.estimate_avg_streamed(&sketch).unwrap();
        assert!(
            (by_selection.value - streamed.value).abs() <= 1e-12 * (1.0 + by_selection.value.abs())
        );
        assert!((by_selection.standard_error - streamed.standard_error).abs() < 1e-12);
    }

    #[test]
    fn biased_impressions_reject_srs_streamed_estimates() {
        let imp = impression_with(SamplingPolicy::biased(["ra"]));
        // biased impressions stream too — but through the weighted entry
        // points, not the SRS ones
        assert!(imp.uses_weighted_estimators());
        assert!(imp.estimate_count_streamed(2).is_err());
        assert!(imp.estimate_sum_streamed(&MomentSketch::new()).is_err());
        assert!(imp.estimate_avg_streamed(&MomentSketch::new()).is_err());
    }

    #[test]
    fn cached_probabilities_align_and_rescale() {
        let mut imp = impression_with(SamplingPolicy::biased(["ra"]));
        assert_eq!(imp.selection_probabilities().len(), imp.row_count());
        assert!((imp.selection_probabilities()[1] - 2.0 / 100.0).abs() < 1e-15);
        // re-anchoring the population renormalises the cached slice
        imp.rescale_population(2_000, 200.0);
        assert!((imp.selection_probabilities()[1] - 2.0 / 200.0).abs() < 1e-15);
        // self-weighted impressions don't materialise the slice (their
        // estimators never read per-row probabilities); the per-row accessor
        // still answers 1/cnt
        let mut uni = impression_with(SamplingPolicy::Uniform);
        assert!(uni.selection_probabilities().is_empty());
        assert_eq!(uni.selection_probability(0), 1e-3);
        uni.rescale_population(500, 0.0);
        assert_eq!(uni.selection_probability(0), 2e-3);
    }

    /// Stream `predicate`'s matches over the impression into a weighted sink
    /// (counting when `column` is `None`) through a one-item `multi_scan`.
    fn weighted_sketch(
        imp: &Impression,
        predicate: &Predicate,
        column: Option<&str>,
    ) -> WeightedMomentSketch {
        use sciborq_columnar::{
            multi_scan, numeric_source, CompiledPredicate, MultiScanItem, WeightedMomentSink,
        };
        let compiled = CompiledPredicate::compile(predicate, imp.data().schema()).unwrap();
        let probs = imp.selection_probabilities();
        let mut sink = match column {
            None => WeightedMomentSink::counting(probs),
            Some(name) => WeightedMomentSink::new(numeric_source(imp.data(), name).unwrap(), probs),
        };
        let mut items = [MultiScanItem {
            predicate: &compiled,
            sink: &mut sink,
        }];
        multi_scan(imp.data(), &mut items, None).remove(0).unwrap();
        sink.sketch
    }

    #[test]
    fn weighted_streamed_estimates_match_selection_estimates_bitwise() {
        let imp = impression_with(SamplingPolicy::biased(["ra"]));
        let predicate = Predicate::lt_eq("ra", 190.0);
        let sel = predicate.evaluate(imp.data()).unwrap();

        let count_sketch = weighted_sketch(&imp, &predicate, None);
        assert_eq!(
            imp.estimate_count(&sel).unwrap(),
            imp.estimate_weighted_count(&count_sketch).unwrap()
        );
        let agg_sketch = weighted_sketch(&imp, &predicate, Some("r_mag"));
        assert_eq!(
            imp.estimate_sum("r_mag", &sel).unwrap(),
            imp.estimate_weighted_sum(&agg_sketch).unwrap()
        );
        assert_eq!(
            imp.estimate_avg("r_mag", &sel).unwrap(),
            imp.estimate_weighted_avg(&agg_sketch).unwrap()
        );
        // the empty case mirrors the selection path: count/sum estimate 0,
        // avg errors
        let empty_count = weighted_sketch(&imp, &Predicate::False, None);
        assert_eq!(
            imp.estimate_count(&SelectionVector::empty()).unwrap(),
            imp.estimate_weighted_count(&empty_count).unwrap()
        );
        let empty_agg = weighted_sketch(&imp, &Predicate::False, Some("r_mag"));
        assert!(imp.estimate_weighted_avg(&empty_agg).is_err());
    }

    #[test]
    fn last_seen_uses_srs_estimators() {
        let imp = impression_with(SamplingPolicy::last_seen(0.5, 100.0));
        let est = imp.estimate_count(&SelectionVector::all(4)).unwrap();
        assert!((est.value - 1000.0).abs() < 1e-9);
    }
}
