//! Streaming, load-time construction of impressions (§3.3).
//!
//! "Impressions are deployed either as part of a database loading step or
//! extracted from an existing database. [...] The construction algorithms
//! reside in the load process, considering each tuple as it is being loaded,
//! much like a stream, and deciding if it should be part of an impression or
//! not."
//!
//! The [`ImpressionBuilder`] is exactly that: it is shown the rows of the
//! base table as they are appended, decides tuple by tuple, and
//! materialises an [`Impression`].
//!
//! A reservoir's keep-or-evict decision depends only on the stream position
//! and the tuple's interest weight, never on the tuple itself (Vitter 1985),
//! so the builder remembers *which* base rows it keeps — a base row id plus
//! its effective weight — rather than copies of the rows. Every kept tuple
//! is written into exactly one sample slot, and the builder also remembers
//! which slots were written since it was last materialised: a load that
//! replaced a thousand of 200k slots lets the hierarchy patch those
//! thousand rows of the previous impression in place. Materialising in
//! full — one order-preserving columnar gather of every kept id from the
//! base table — is the fallback.

use crate::error::{Result, SciborqError};
use crate::impression::Impression;
use crate::policy::SamplingPolicy;
use sciborq_columnar::{ColumnarError, SchemaRef, Table};
use sciborq_sampling::{
    BiasedReservoir, LastSeenReservoir, Reservoir, SampledItem, SamplingStrategy,
};
use sciborq_stats::BinnedKde;
use sciborq_workload::PredicateSet;
use std::ops::Range;

/// The concrete reservoir behind a builder, selected by the policy. Items
/// are base-table row ids.
#[derive(Debug, Clone)]
enum Sampler {
    Uniform(Reservoir<usize>),
    LastSeen(LastSeenReservoir<usize>),
    Biased(BiasedReservoir<usize>),
}

impl Sampler {
    /// Offer base row `row`; returns the sample slot it was written into.
    fn observe(&mut self, row: usize, weight: f64) -> Option<usize> {
        match self {
            Sampler::Uniform(r) => r.observe_weighted(row, weight),
            Sampler::LastSeen(r) => r.observe_weighted(row, weight),
            Sampler::Biased(r) => r.observe_weighted(row, weight),
        }
    }

    fn sample(&self) -> &[SampledItem<usize>] {
        match self {
            Sampler::Uniform(r) => r.sample(),
            Sampler::LastSeen(r) => r.sample(),
            Sampler::Biased(r) => r.sample(),
        }
    }

    fn observed(&self) -> u64 {
        match self {
            Sampler::Uniform(r) => r.observed(),
            Sampler::LastSeen(r) => r.observed(),
            Sampler::Biased(r) => r.observed(),
        }
    }
}

/// A streaming impression builder.
///
/// The builder can be kept alive across incremental loads: the rows every
/// load appends to the base table are pushed through
/// [`ImpressionBuilder::observe`], and a fresh snapshot can be materialised
/// from the base table at any time with [`ImpressionBuilder::materialize`]
/// (or, inside a hierarchy, patched from the slots observation changed).
#[derive(Debug, Clone)]
pub struct ImpressionBuilder {
    name: String,
    source_table: String,
    schema: SchemaRef,
    policy: SamplingPolicy,
    layer: usize,
    capacity: usize,
    sampler: Sampler,
    total_observed_weight: f64,
    /// Running sum of the *raw* KDE interest weights over every observed
    /// tuple, used to normalise weights to a mean of ≈ 1 before sampling.
    raw_weight_sum: f64,
    /// Column indices of the bias-steering attributes (resolved once).
    bias_columns: Vec<(String, usize)>,
    /// Sample slots written since [`ImpressionBuilder::take_changed`] was
    /// last called (with repeats), or `None` when there is no previous
    /// materialisation to patch or more slots changed than the sample
    /// holds — either way, the next materialisation is a full one.
    changed: Option<Vec<usize>>,
}

impl ImpressionBuilder {
    /// Create a builder for an impression of `capacity` rows over a source
    /// with the given schema.
    pub fn new(
        name: impl Into<String>,
        source_table: impl Into<String>,
        schema: SchemaRef,
        policy: SamplingPolicy,
        capacity: usize,
        layer: usize,
        seed: u64,
    ) -> Result<Self> {
        policy.validate().map_err(SciborqError::InvalidConfig)?;
        if capacity == 0 {
            return Err(SciborqError::InvalidConfig(
                "impression capacity must be positive".to_owned(),
            ));
        }
        let sampler = match &policy {
            SamplingPolicy::Uniform => Sampler::Uniform(Reservoir::new(capacity, seed)),
            SamplingPolicy::LastSeen {
                fresh_fraction,
                daily_ingest,
            } => Sampler::LastSeen(LastSeenReservoir::new(
                capacity,
                fresh_fraction * capacity as f64,
                *daily_ingest,
                seed,
            )?),
            SamplingPolicy::Biased { .. } => Sampler::Biased(BiasedReservoir::new(capacity, seed)?),
        };
        let bias_columns = match &policy {
            SamplingPolicy::Biased { attributes } => {
                let mut cols = Vec::with_capacity(attributes.len());
                for attr in attributes {
                    let idx = schema.index_of(attr)?;
                    cols.push((attr.clone(), idx));
                }
                cols
            }
            _ => Vec::new(),
        };
        Ok(ImpressionBuilder {
            name: name.into(),
            source_table: source_table.into(),
            schema,
            policy,
            layer,
            capacity,
            sampler,
            total_observed_weight: 0.0,
            raw_weight_sum: 0.0,
            bias_columns,
            changed: None,
        })
    }

    /// The impression name this builder produces.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured capacity (`n`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of tuples observed so far (`cnt`).
    pub fn observed(&self) -> u64 {
        self.sampler.observed()
    }

    /// The policy driving this builder.
    pub fn policy(&self) -> &SamplingPolicy {
        &self.policy
    }

    /// The retained base row ids with their effective weights, by slot.
    pub(crate) fn sample(&self) -> &[SampledItem<usize>] {
        self.sampler.sample()
    }

    /// The sum of the effective weights of every observed tuple.
    pub(crate) fn total_observed_weight(&self) -> f64 {
        self.total_observed_weight
    }

    /// The slots written since the last call, sorted and deduplicated —
    /// `None` when the caller must materialise in full instead (nothing
    /// was materialised before, or too much changed to be worth patching).
    /// Either way, changes are tracked afresh from here on.
    pub(crate) fn take_changed(&mut self) -> Option<Vec<usize>> {
        let mut changed = self.changed.replace(Vec::new())?;
        changed.sort_unstable();
        changed.dedup();
        Some(changed)
    }

    /// One interest estimator per bias column under the current predicate
    /// set, built once for a run of [`ImpressionBuilder::row_weight`] calls
    /// — `None` when every row weighs 1 (a non-biased policy, or no
    /// predicate set).
    fn interest_estimators(
        &self,
        predicate_set: Option<&PredicateSet>,
    ) -> Option<Vec<Option<BinnedKde>>> {
        let ps = predicate_set.filter(|_| !self.bias_columns.is_empty())?;
        Some(
            self.bias_columns
                .iter()
                .map(|(name, _)| ps.interest_estimator(name).ok())
                .collect(),
        )
    }

    /// The interest weight of base row `row`: 1 without `estimators`, the
    /// combined KDE weight of its non-NULL bias columns otherwise (0 when
    /// they are all NULL).
    fn row_weight(
        &self,
        table: &Table,
        row: usize,
        estimators: Option<&[Option<BinnedKde>]>,
    ) -> f64 {
        let Some(estimators) = estimators else {
            return 1.0;
        };
        let mut tuple = self
            .bias_columns
            .iter()
            .zip(estimators)
            .filter_map(|((_, idx), kde)| {
                let value = table.column_at(*idx)?.get_f64(row)?;
                Some((kde.as_ref(), value))
            })
            .peekable();
        if tuple.peek().is_none() {
            0.0
        } else {
            PredicateSet::combined_weight(tuple)
        }
    }

    /// Turn a raw KDE interest weight into the *effective* weight the
    /// sampling design actually uses, in two steps.
    ///
    /// **Normalisation.** The paper's acceptance rule `P = f̆(t)·N·n/cnt`
    /// uses the absolute interest count `f̆·N`, which for a focused workload
    /// is ≫ `cnt/n` over most of the stream: acceptance saturates at 1 for
    /// nearly every tuple and the reservoir degenerates into a near-uniform
    /// recency sample while the estimator still assumes strong
    /// weight-proportionality. Dividing by the running mean interest weight
    /// rescales to mean ≈ 1, so the *average* acceptance rate matches
    /// Algorithm R's `n/cnt` and relative interest is what drives retention —
    /// the enrichment the paper's Figure 7 is actually about.
    ///
    /// **Saturation cap.** Acceptance is `min(1, w·n/cnt)`: beyond
    /// `w = cnt/n` a tuple's realized inclusion stops growing with `w`, so
    /// the weight recorded for the Hansen–Hurwitz correction (and the `Σw`
    /// normaliser) is capped there. Because `min(1, w·n/cnt) =
    /// min(1, w̃·n/cnt)`, feeding the capped weight to the sampler leaves
    /// the sampling behaviour unchanged.
    ///
    /// **Fill phase.** While `cnt ≤ n` the reservoir accepts *every* tuple
    /// with probability 1 whatever its weight, and later uniform eviction is
    /// weight-independent, so the realized inclusion of a fill-phase tuple
    /// does not depend on its interest at all: its effective weight is
    /// exactly 1. This also guarantees no retained row ever records a zero
    /// weight (post-fill, a zero-weight tuple can never be accepted), which
    /// keeps the `1/pᵢ` expansions of the estimators finite.
    fn effective_weight(&mut self, raw: f64) -> f64 {
        if !matches!(self.sampler, Sampler::Biased(_)) {
            return raw;
        }
        let raw = if raw.is_finite() && raw >= 0.0 {
            raw
        } else {
            0.0
        };
        self.raw_weight_sum += raw;
        let cnt_next = (self.sampler.observed() + 1) as f64;
        if cnt_next <= self.capacity as f64 {
            return 1.0;
        }
        let mean = self.raw_weight_sum / cnt_next;
        let relative = if mean > 0.0 { raw / mean } else { 1.0 };
        relative.min(cnt_next / self.capacity as f64)
    }

    fn check_schema(&self, table: &Table) -> Result<()> {
        if table.schema().fields() != self.schema.fields() {
            return Err(ColumnarError::SchemaMismatch(format!(
                "table schema {} does not match impression schema {}",
                table.schema(),
                self.schema
            ))
            .into());
        }
        Ok(())
    }

    /// Observe rows `rows` of the base table, in order: the rows one
    /// incremental load appended, or `0..row_count()` to extract an
    /// impression from data that is already loaded (the paper's second
    /// deployment mode).
    pub fn observe(
        &mut self,
        table: &Table,
        rows: Range<usize>,
        predicate_set: Option<&PredicateSet>,
    ) -> Result<()> {
        self.check_schema(table)?;
        if rows.end > table.row_count() {
            return Err(ColumnarError::RowOutOfBounds {
                row: rows.end - 1,
                len: table.row_count(),
            }
            .into());
        }
        let estimators = self.interest_estimators(predicate_set);
        for row in rows {
            let weight = self.row_weight(table, row, estimators.as_deref());
            let weight = self.effective_weight(weight);
            self.total_observed_weight += weight;
            let slot = self.sampler.observe(row, weight);
            if let (Some(slot), Some(changed)) = (slot, self.changed.as_mut()) {
                changed.push(slot);
                if changed.len() > self.capacity {
                    self.changed = None;
                }
            }
        }
        Ok(())
    }

    /// Materialise the current reservoir contents into an [`Impression`]
    /// by gathering the sampled rows, in reservoir order, from `base` — the
    /// table whose rows this builder observed.
    ///
    /// The builder keeps its state, so construction can continue with later
    /// loads and a fresher impression can be materialised again.
    pub fn materialize(&self, base: &Table) -> Result<Impression> {
        self.check_schema(base)?;
        let items = self.sampler.sample();
        let rows: Vec<usize> = items.iter().map(|item| item.item).collect();
        let weights = items.iter().map(|item| item.weight).collect();
        Impression::new(
            self.name.clone(),
            self.source_table.clone(),
            base.gather(&rows, self.name.clone())?,
            weights,
            self.total_observed_weight,
            self.sampler.observed(),
            self.policy.clone(),
            self.layer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciborq_columnar::{DataType, Field, Predicate, RecordBatchBuilder, Schema, Value};
    use sciborq_workload::AttributeDomain;

    fn schema() -> SchemaRef {
        Schema::shared(vec![
            Field::new("objid", DataType::Int64),
            Field::new("ra", DataType::Float64),
            Field::new("r_mag", DataType::Float64),
        ])
        .unwrap()
    }

    /// Append `rows` rows with objids from `start` to `table`, returning
    /// the range of base row ids they occupy.
    fn append(table: &mut Table, start: i64, rows: usize) -> Range<usize> {
        let mut b = RecordBatchBuilder::with_capacity(schema(), rows);
        for i in 0..rows as i64 {
            let objid = start + i;
            // ra spread over [0, 360): a third of rows near 185
            let ra = if objid % 3 == 0 {
                185.0 + (objid % 7) as f64 * 0.3
            } else {
                (objid * 37 % 360) as f64
            };
            b.push_row(&[
                Value::Int64(objid),
                Value::Float64(ra),
                Value::Float64(15.0 + (objid % 10) as f64),
            ])
            .unwrap();
        }
        let from = table.row_count();
        table.append_batch(&b.finish().unwrap()).unwrap();
        from..table.row_count()
    }

    fn table(rows: usize) -> Table {
        let mut t = Table::new("photoobj", schema());
        append(&mut t, 1, rows);
        t
    }

    fn focused_predicate_set() -> PredicateSet {
        let mut ps = PredicateSet::new(&[("ra", AttributeDomain::new(0.0, 360.0, 36))]).unwrap();
        for _ in 0..200 {
            ps.log_value("ra", 185.0);
            ps.log_value("ra", 186.5);
        }
        ps
    }

    #[test]
    fn builder_validates_configuration() {
        assert!(
            ImpressionBuilder::new("i", "t", schema(), SamplingPolicy::Uniform, 0, 1, 1).is_err()
        );
        assert!(ImpressionBuilder::new(
            "i",
            "t",
            schema(),
            SamplingPolicy::biased(["unknown_column"]),
            10,
            1,
            1
        )
        .is_err());
        assert!(ImpressionBuilder::new(
            "i",
            "t",
            schema(),
            SamplingPolicy::biased(Vec::<String>::new()),
            10,
            1,
            1
        )
        .is_err());
        assert!(ImpressionBuilder::new(
            "i",
            "t",
            schema(),
            SamplingPolicy::last_seen(2.0, 100.0),
            10,
            1,
            1
        )
        .is_err());
    }

    #[test]
    fn uniform_builder_fills_reservoir() {
        let mut b = ImpressionBuilder::new(
            "photoobj.l1",
            "photoobj",
            schema(),
            SamplingPolicy::Uniform,
            100,
            1,
            7,
        )
        .unwrap();
        let base = table(5_000);
        b.observe(&base, 0..5_000, None).unwrap();
        assert_eq!(b.observed(), 5_000);
        assert_eq!(b.capacity(), 100);
        let imp = b.materialize(&base).unwrap();
        assert_eq!(imp.row_count(), 100);
        assert_eq!(imp.source_rows(), 5_000);
        assert_eq!(imp.name(), "photoobj.l1");
        assert_eq!(imp.layer(), 1);
        assert!(imp.weights().iter().all(|&w| w == 1.0));
    }

    #[test]
    fn lazy_batch_path_is_bit_identical_to_row_at_a_time() {
        // Rows are only gathered at materialisation; observing a whole
        // range in one call must retain exactly what feeding the same rows
        // one at a time retains, weights and normaliser included.
        let ps = focused_predicate_set();
        let base = table(4_000);
        for policy in [SamplingPolicy::Uniform, SamplingPolicy::biased(["ra"])] {
            let make =
                || ImpressionBuilder::new("a", "photoobj", schema(), policy.clone(), 64, 1, 17);
            let (mut batched, mut row_wise) = (make().unwrap(), make().unwrap());
            batched.observe(&base, 0..4_000, Some(&ps)).unwrap();
            for row in 0..4_000 {
                row_wise.observe(&base, row..row + 1, Some(&ps)).unwrap();
            }
            let from_batch = batched.materialize(&base).unwrap();
            let from_rows = row_wise.materialize(&base).unwrap();
            assert_eq!(from_batch.data(), from_rows.data());
            assert_eq!(from_batch.weights(), from_rows.weights());
            assert_eq!(from_batch.source_rows(), from_rows.source_rows());
            assert_eq!(
                from_batch.total_observed_weight(),
                from_rows.total_observed_weight()
            );
        }
    }

    #[test]
    fn builder_rejects_mismatched_batches() {
        let other_schema = Schema::shared(vec![Field::new("x", DataType::Int64)]).unwrap();
        let mut wrong = Table::new("other", other_schema);
        wrong.append_row(&[Value::Int64(1)]).unwrap();
        let mut b =
            ImpressionBuilder::new("i", "t", schema(), SamplingPolicy::Uniform, 10, 1, 1).unwrap();
        assert!(b.observe(&wrong, 0..1, None).is_err());
        assert!(b.materialize(&wrong).is_err());
        // a range past the end of the table is refused, not truncated
        assert!(b.observe(&table(10), 5..11, None).is_err());
        assert_eq!(b.observed(), 0);
    }

    #[test]
    fn incremental_loads_accumulate() {
        let mut b =
            ImpressionBuilder::new("i", "photoobj", schema(), SamplingPolicy::Uniform, 50, 1, 3)
                .unwrap();
        let mut base = Table::new("photoobj", schema());
        let first_load = append(&mut base, 1, 1_000);
        b.observe(&base, first_load, None).unwrap();
        let first = b.materialize(&base).unwrap();
        assert_eq!(first.source_rows(), 1_000);
        let second_load = append(&mut base, 1_001, 1_000);
        b.observe(&base, second_load, None).unwrap();
        let second = b.materialize(&base).unwrap();
        assert_eq!(second.source_rows(), 2_000);
        assert_eq!(second.row_count(), 50);
        // the refreshed impression must contain some tuples from the new load
        let new_tuples = Predicate::gt("objid", 1_000)
            .evaluate(second.data())
            .unwrap();
        assert!(!new_tuples.is_empty());
    }

    #[test]
    fn biased_builder_enriches_focal_region() {
        let ps = focused_predicate_set();
        let mut biased = ImpressionBuilder::new(
            "biased",
            "photoobj",
            schema(),
            SamplingPolicy::biased(["ra"]),
            200,
            1,
            11,
        )
        .unwrap();
        let mut uniform = ImpressionBuilder::new(
            "uniform",
            "photoobj",
            schema(),
            SamplingPolicy::Uniform,
            200,
            1,
            11,
        )
        .unwrap();
        let big = table(30_000);
        biased.observe(&big, 0..30_000, Some(&ps)).unwrap();
        uniform.observe(&big, 0..30_000, Some(&ps)).unwrap();
        let focal = Predicate::between("ra", 183.0, 189.0);
        let biased_share = focal
            .evaluate(biased.materialize(&big).unwrap().data())
            .unwrap()
            .len() as f64
            / 200.0;
        let uniform_share = focal
            .evaluate(uniform.materialize(&big).unwrap().data())
            .unwrap()
            .len() as f64
            / 200.0;
        assert!(
            biased_share > uniform_share * 1.5,
            "biased {biased_share} vs uniform {uniform_share}"
        );
    }

    #[test]
    fn biased_builder_without_predicate_set_degrades_to_neutral_weights() {
        let mut b = ImpressionBuilder::new(
            "biased",
            "photoobj",
            schema(),
            SamplingPolicy::biased(["ra"]),
            50,
            1,
            5,
        )
        .unwrap();
        let base = table(1_000);
        b.observe(&base, 0..1_000, None).unwrap();
        let imp = b.materialize(&base).unwrap();
        assert_eq!(imp.row_count(), 50);
        assert!(imp.weights().iter().all(|&w| w == 1.0));
    }

    #[test]
    fn last_seen_builder_prefers_recent_loads() {
        let mut b = ImpressionBuilder::new(
            "recent",
            "photoobj",
            schema(),
            SamplingPolicy::last_seen(1.0, 1_000.0),
            200,
            1,
            13,
        )
        .unwrap();
        let mut base = Table::new("photoobj", schema());
        for day in 0..20i64 {
            let load = append(&mut base, day * 1_000 + 1, 1_000);
            b.observe(&base, load, None).unwrap();
        }
        let imp = b.materialize(&base).unwrap();
        let recent = Predicate::gt("objid", 15_000).evaluate(imp.data()).unwrap();
        assert!(
            recent.len() as f64 / imp.row_count() as f64 > 0.5,
            "last-seen impression should be dominated by recent loads"
        );
    }

    #[test]
    fn observe_table_extracts_from_existing_data() {
        let base = table(500);
        let mut b =
            ImpressionBuilder::new("i", "photoobj", schema(), SamplingPolicy::Uniform, 20, 1, 9)
                .unwrap();
        b.observe(&base, 0..base.row_count(), None).unwrap();
        let imp = b.materialize(&base).unwrap();
        assert_eq!(imp.row_count(), 20);
        assert_eq!(imp.source_rows(), 500);
    }

    #[test]
    fn materialized_weights_align_with_rows() {
        let ps = focused_predicate_set();
        let mut b = ImpressionBuilder::new(
            "biased",
            "photoobj",
            schema(),
            SamplingPolicy::biased(["ra"]),
            50,
            1,
            21,
        )
        .unwrap();
        let base = table(5_000);
        b.observe(&base, 0..5_000, Some(&ps)).unwrap();
        let imp = b.materialize(&base).unwrap();
        assert_eq!(imp.weights().len(), imp.row_count());
        // retained focal tuples should carry higher weights than background ones
        let focal_sel = Predicate::between("ra", 183.0, 189.0)
            .evaluate(imp.data())
            .unwrap();
        if !focal_sel.is_empty() {
            let focal_avg: f64 =
                focal_sel.iter().map(|i| imp.weights()[i]).sum::<f64>() / focal_sel.len() as f64;
            let other_sel = focal_sel.complement(imp.row_count());
            if !other_sel.is_empty() {
                let other_avg: f64 = other_sel.iter().map(|i| imp.weights()[i]).sum::<f64>()
                    / other_sel.len() as f64;
                assert!(focal_avg > other_avg);
            }
        }
    }
}
