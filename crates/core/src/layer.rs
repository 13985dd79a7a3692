//! Multi-layer hierarchies of impressions (§3.1 "Layers").
//!
//! "Each less detailed impression is derived from a previous more detailed
//! one. In such a derivation, the focal point of the larger impression is
//! inherited by the smaller [...]. If the error bounds during query
//! execution are not met, the process continues on a larger impression of the
//! same hierarchy. Moreover, smaller impressions on higher layers are more
//! efficient to maintain since they only touch the data of the impression one
//! layer below, and not the entire base."
//!
//! A [`LayerHierarchy`] owns the [`ImpressionBuilder`] of layer 1, which
//! samples the base table's loads directly and always covers a prefix of
//! the table, in table order. Layer *k+1* uniformly subsamples layer *k*'s
//! slots, in slot order, with a fixed seed; the reservoir's draws depend
//! only on the stream position, so once layer 1 is full every derived slot
//! holds a fixed slot of layer 1, and the hierarchy stores that map.
//!
//! Every layer is materialised by gathering base rows, so no layer ever
//! copies rows to build the next. After a load, the layers are **patched by
//! slot**: the layer-1 slots the load replaced are overwritten in place,
//! and so are the derived slots that map to them. A full materialisation
//! is the fallback — while layer 1 is still filling (the maps still grow),
//! after a rebuild, and when a patched string is missing from a
//! dictionary-encoded column's dictionary. Either way the layers are
//! bit-identical to a one-shot build over the same table.

use crate::builder::ImpressionBuilder;
use crate::config::SciborqConfig;
use crate::error::{Result, SciborqError};
use crate::impression::Impression;
use crate::policy::SamplingPolicy;
use sciborq_columnar::{SchemaRef, Table};
use sciborq_sampling::{Reservoir, SamplingStrategy};
use sciborq_workload::PredicateSet;

/// A hierarchy of impressions over one base table.
#[derive(Debug, Clone)]
pub struct LayerHierarchy {
    source_table: String,
    schema: SchemaRef,
    policy: SamplingPolicy,
    /// Builder for layer 1, fed directly by incremental loads.
    root_builder: ImpressionBuilder,
    /// Sizes of layers 2.. (layer 1's size is the root builder's capacity).
    derived_sizes: Vec<usize>,
    /// For each of layers 2.., the layer-1 slot each of its slots holds.
    derived_slots: Vec<Vec<usize>>,
    /// Materialised impressions, index 0 = layer 1 (most detailed).
    layers: Vec<Impression>,
    seed: u64,
}

impl LayerHierarchy {
    /// Create an empty hierarchy for a table.
    ///
    /// `layer_sizes` follows [`SciborqConfig::layer_sizes`]: most detailed
    /// layer first, sizes non-increasing. Nothing is materialised until the
    /// first [`LayerHierarchy::observe_appended`].
    pub fn new(
        source_table: impl Into<String>,
        schema: SchemaRef,
        policy: SamplingPolicy,
        layer_sizes: &[usize],
        seed: u64,
    ) -> Result<Self> {
        if layer_sizes.is_empty() {
            return Err(SciborqError::InvalidConfig(
                "a hierarchy needs at least one layer".to_owned(),
            ));
        }
        if layer_sizes.windows(2).any(|w| w[1] > w[0]) {
            return Err(SciborqError::InvalidConfig(
                "layer sizes must be non-increasing".to_owned(),
            ));
        }
        if layer_sizes.contains(&0) {
            return Err(SciborqError::InvalidConfig(
                "impression capacity must be positive".to_owned(),
            ));
        }
        let source_table = source_table.into();
        let root_builder = ImpressionBuilder::new(
            format!("{source_table}.layer1.{}", policy.name()),
            source_table.clone(),
            schema.clone(),
            policy.clone(),
            layer_sizes[0],
            1,
            seed,
        )?;
        Ok(LayerHierarchy {
            source_table,
            schema,
            policy,
            root_builder,
            derived_sizes: layer_sizes[1..].to_vec(),
            derived_slots: Vec::new(),
            layers: Vec::new(),
            seed,
        })
    }

    /// Build a hierarchy directly from an existing base table (the
    /// "extracted from an existing database" deployment mode).
    pub fn build_from_table(
        table: &Table,
        policy: SamplingPolicy,
        config: &SciborqConfig,
        predicate_set: Option<&PredicateSet>,
    ) -> Result<Self> {
        let mut hierarchy = LayerHierarchy::new(
            table.name(),
            table.schema().clone(),
            policy,
            &config.layer_sizes,
            config.seed,
        )?;
        hierarchy.observe_appended(table, predicate_set)?;
        Ok(hierarchy)
    }

    /// The base table this hierarchy summarises.
    pub fn source_table(&self) -> &str {
        &self.source_table
    }

    /// The sampling policy of every layer.
    pub fn policy(&self) -> &SamplingPolicy {
        &self.policy
    }

    /// Number of layers (excluding the base data).
    pub fn layer_count(&self) -> usize {
        1 + self.derived_sizes.len()
    }

    /// Number of tuples observed by layer 1 (i.e. base-table rows seen).
    pub fn observed_rows(&self) -> u64 {
        self.root_builder.observed()
    }

    /// Feed the rows appended to the base table since layer 1 last saw it
    /// — rows `observed_rows()..table.row_count()` — through layer 1, then
    /// bring every layer up to date with `table`, patching the slots that
    /// changed where it can.
    ///
    /// Calling it again with no new rows observes nothing, so a load whose
    /// batch a concurrent load or rebuild already covered counts no row
    /// twice.
    pub fn observe_appended(
        &mut self,
        table: &Table,
        predicate_set: Option<&PredicateSet>,
    ) -> Result<()> {
        let from = usize::try_from(self.observed_rows()).unwrap_or(usize::MAX);
        let rows = from.min(table.row_count())..table.row_count();
        if rows.is_empty() && !self.layers.is_empty() {
            return Ok(());
        }
        self.root_builder.observe(table, rows, predicate_set)?;
        let patched = match self.root_builder.take_changed() {
            Some(slots) => self.patch(table, &slots)?,
            None => false,
        };
        if !patched {
            self.materialize(table)?;
        }
        Ok(())
    }

    /// Patch the layers in place from `base`: overwrite the layer-1 `slots`
    /// (sorted) the last observation wrote, and every derived slot that
    /// maps to one of them. Returns `Ok(false)` — the layers then need a
    /// full [`LayerHierarchy::materialize`] — unless every layer was full
    /// already at the last materialisation, so no slot map has moved.
    fn patch(&mut self, base: &Table, slots: &[usize]) -> Result<bool> {
        let capacity = self.root_builder.capacity();
        if self.layers.first().is_none_or(|l| l.row_count() < capacity) {
            return Ok(false);
        }
        let sample = self.root_builder.sample();
        let source_rows = self.root_builder.observed();
        let total = self.root_builder.total_observed_weight();
        let write = |slot: usize, root: usize| (slot, sample[root].item, sample[root].weight);
        let writes: Vec<_> = slots.iter().map(|&slot| write(slot, slot)).collect();
        if !self.layers[0].patch(base, &writes, source_rows, total)? {
            return Ok(false);
        }
        // Derived layers are anchored on layer 1's population.
        for (layer, map) in self.layers[1..].iter_mut().zip(&self.derived_slots) {
            let writes: Vec<_> = map
                .iter()
                .enumerate()
                .filter(|(_, root)| slots.binary_search(root).is_ok())
                .map(|(slot, &root)| write(slot, root))
                .collect();
            if !layer.patch(base, &writes, source_rows, total)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Rebuild every layer from `base`, the table layer 1 observed: layer 1
    /// from its builder, every further layer by uniformly subsampling the
    /// slots of the layer above and inheriting their per-row weights (no
    /// predicate set needed — derivation never recomputes interest).
    fn materialize(&mut self, base: &Table) -> Result<()> {
        let layer1 = self.root_builder.materialize(base)?;
        // Derived layers physically sample the layer above, but estimates
        // from them must expand to the *base* table: anchor their population
        // on layer 1's population.
        let base_rows = layer1.source_rows();
        let base_weight = layer1.total_observed_weight();
        let sample = self.root_builder.sample();
        let mut layers = vec![layer1];
        let mut derived_slots: Vec<Vec<usize>> = Vec::with_capacity(self.derived_sizes.len());
        for (i, &size) in self.derived_sizes.iter().enumerate() {
            let layer_index = i + 2;
            let name = format!(
                "{}.layer{layer_index}.{}",
                self.source_table,
                self.policy.name()
            );
            // Subsampling always runs uniformly, whatever the policy: the
            // parent's composition is already shaped by the policy (biased
            // towards the focal regions, say), and a uniform subsample keeps
            // it — the paper's "the focal point of the larger impression is
            // inherited by the smaller". A second biased stage would square
            // the inclusion probabilities (∝ w² instead of ∝ w) and break
            // the Hansen–Hurwitz correction, so each row keeps layer 1's
            // effective weight verbatim.
            let parent_len = derived_slots.last().map_or(sample.len(), Vec::len);
            let mut reservoir = Reservoir::new(size, self.seed.wrapping_add(layer_index as u64));
            for parent_slot in 0..parent_len {
                reservoir.observe(parent_slot);
            }
            let map: Vec<usize> = reservoir
                .sample()
                .iter()
                .map(|picked| match derived_slots.last() {
                    Some(parent) => parent[picked.item],
                    None => picked.item,
                })
                .collect();
            let rows: Vec<usize> = map.iter().map(|&root| sample[root].item).collect();
            let weights = map.iter().map(|&root| sample[root].weight).collect();
            layers.push(Impression::new(
                name.clone(),
                self.source_table.clone(),
                base.gather(&rows, name)?,
                weights,
                base_weight,
                base_rows,
                self.policy.clone(),
                layer_index,
            )?);
            derived_slots.push(map);
        }
        self.layers = layers;
        self.derived_slots = derived_slots;
        Ok(())
    }

    /// The materialised impressions, most detailed first (layer 1, 2, …).
    pub fn layers(&self) -> &[Impression] {
        &self.layers
    }

    /// The impression at 1-based layer index.
    pub fn layer(&self, index: usize) -> Option<&Impression> {
        if index == 0 {
            None
        } else {
            self.layers.get(index - 1)
        }
    }

    /// The impressions ordered from least detailed (smallest) to most
    /// detailed — the order in which the bounded query engine escalates.
    pub fn escalation_order(&self) -> impl Iterator<Item = &Impression> {
        self.layers.iter().rev()
    }

    /// Total bytes across all materialised layers.
    pub fn byte_size(&self) -> usize {
        self.layers.iter().map(Impression::byte_size).sum()
    }

    /// Replace the hierarchy's policy and rebuild everything from the base
    /// table (full re-adaptation; used when the workload focus shifts so far
    /// that incremental adjustment is pointless).
    pub fn rebuild_from_table(
        &mut self,
        table: &Table,
        predicate_set: Option<&PredicateSet>,
    ) -> Result<()> {
        let mut sizes = vec![self.root_builder.capacity()];
        sizes.extend_from_slice(&self.derived_sizes);
        *self = LayerHierarchy::new(
            self.source_table.clone(),
            self.schema.clone(),
            self.policy.clone(),
            &sizes,
            self.seed.wrapping_add(1),
        )?;
        self.observe_appended(table, predicate_set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciborq_columnar::{
        DataType, Field, Predicate, RecordBatch, RecordBatchBuilder, Schema, Value,
    };
    use sciborq_workload::AttributeDomain;

    fn schema() -> SchemaRef {
        Schema::shared(vec![
            Field::new("objid", DataType::Int64),
            Field::new("ra", DataType::Float64),
        ])
        .unwrap()
    }

    fn batch(start: i64, rows: usize) -> RecordBatch {
        let mut b = RecordBatchBuilder::with_capacity(schema(), rows);
        for i in 0..rows as i64 {
            let objid = start + i;
            b.push_row(&[
                Value::Int64(objid),
                Value::Float64((objid * 17 % 360) as f64),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    }

    fn base_table(rows: usize) -> Table {
        let mut t = Table::new("photoobj", schema());
        t.append_batch(&batch(1, rows)).unwrap();
        t
    }

    #[test]
    fn hierarchy_validation() {
        assert!(LayerHierarchy::new("t", schema(), SamplingPolicy::Uniform, &[], 1).is_err());
        assert!(
            LayerHierarchy::new("t", schema(), SamplingPolicy::Uniform, &[100, 500], 1).is_err()
        );
        assert!(
            LayerHierarchy::new("t", schema(), SamplingPolicy::Uniform, &[500, 100], 1).is_ok()
        );
        assert!(LayerHierarchy::new("t", schema(), SamplingPolicy::Uniform, &[500, 0], 1).is_err());
    }

    #[test]
    fn build_from_table_materialises_all_layers() {
        let table = base_table(20_000);
        let config = SciborqConfig::with_layers(vec![2_000, 400, 50]);
        let h = LayerHierarchy::build_from_table(&table, SamplingPolicy::Uniform, &config, None)
            .unwrap();
        assert_eq!(h.layer_count(), 3);
        assert_eq!(h.layers().len(), 3);
        assert_eq!(h.observed_rows(), 20_000);
        assert_eq!(h.layers()[0].row_count(), 2_000);
        assert_eq!(h.layers()[1].row_count(), 400);
        assert_eq!(h.layers()[2].row_count(), 50);
        // layer names encode their level
        assert!(h.layers()[2].name().contains("layer3"));
        assert!(h.byte_size() > 0);
    }

    #[test]
    fn layer_indexing_is_one_based() {
        let table = base_table(5_000);
        let config = SciborqConfig::with_layers(vec![500, 100]);
        let h = LayerHierarchy::build_from_table(&table, SamplingPolicy::Uniform, &config, None)
            .unwrap();
        assert!(h.layer(0).is_none());
        assert_eq!(h.layer(1).unwrap().row_count(), 500);
        assert_eq!(h.layer(2).unwrap().row_count(), 100);
        assert!(h.layer(3).is_none());
    }

    #[test]
    fn escalation_order_is_smallest_first() {
        let table = base_table(5_000);
        let config = SciborqConfig::with_layers(vec![500, 100, 20]);
        let h = LayerHierarchy::build_from_table(&table, SamplingPolicy::Uniform, &config, None)
            .unwrap();
        let sizes: Vec<usize> = h.escalation_order().map(Impression::row_count).collect();
        assert_eq!(sizes, vec![20, 100, 500]);
    }

    #[test]
    fn derived_layers_sample_the_layer_above() {
        let table = base_table(50_000);
        let config = SciborqConfig::with_layers(vec![1_000, 100]);
        let h = LayerHierarchy::build_from_table(&table, SamplingPolicy::Uniform, &config, None)
            .unwrap();
        assert_eq!(h.layers()[0].source_rows(), 50_000);
        // derived layers are re-anchored on the base population so their
        // estimates expand all the way to the base table
        assert_eq!(h.layers()[1].source_rows(), 50_000);
        // every tuple of layer 2 must also exist in layer 1
        let layer1_ids: std::collections::HashSet<i64> = {
            let col = h.layers()[0].data().column("objid").unwrap();
            (0..h.layers()[0].row_count())
                .filter_map(|i| col.get_i64(i))
                .collect()
        };
        let col2 = h.layers()[1].data().column("objid").unwrap();
        for i in 0..h.layers()[1].row_count() {
            assert!(layer1_ids.contains(&col2.get_i64(i).unwrap()));
        }
    }

    #[test]
    fn incremental_loads_keep_every_layer_fresh() {
        let mut h =
            LayerHierarchy::new("photoobj", schema(), SamplingPolicy::Uniform, &[500, 50], 1)
                .unwrap();
        assert!(h.layers().is_empty());
        let mut base = base_table(1_000);
        h.observe_appended(&base, None).unwrap();
        assert_eq!(h.layers().len(), 2);
        assert_eq!(h.layers()[0].source_rows(), 1_000);
        base.append_batch(&batch(1_001, 1_000)).unwrap();
        h.observe_appended(&base, None).unwrap();
        assert_eq!(h.observed_rows(), 2_000);
        // the derived layer is re-anchored on the load at once
        assert_eq!(h.layers()[0].source_rows(), 2_000);
        assert_eq!(h.layers()[1].source_rows(), 2_000);
        let one_shot = LayerHierarchy::build_from_table(
            &base,
            SamplingPolicy::Uniform,
            &SciborqConfig::with_layers(vec![500, 50]).with_seed(1),
            None,
        )
        .unwrap();
        for (patched, built) in h.layers().iter().zip(one_shot.layers()) {
            assert_eq!(patched.data(), built.data());
        }
        // rows already observed are never observed again
        h.observe_appended(&base, None).unwrap();
        assert_eq!(h.observed_rows(), 2_000);
    }

    #[test]
    fn small_tables_yield_full_copies() {
        let table = base_table(30);
        let config = SciborqConfig::with_layers(vec![500, 50]);
        let h = LayerHierarchy::build_from_table(&table, SamplingPolicy::Uniform, &config, None)
            .unwrap();
        // the table is smaller than every layer: layer 1 holds everything
        assert_eq!(h.layers()[0].row_count(), 30);
        assert_eq!(h.layers()[1].row_count(), 30);
        assert_eq!(h.layers()[0].sampling_fraction(), 1.0);
    }

    #[test]
    fn biased_hierarchy_inherits_focal_point_downwards() {
        let mut ps = PredicateSet::new(&[("ra", AttributeDomain::new(0.0, 360.0, 36))]).unwrap();
        for _ in 0..300 {
            ps.log_value("ra", 120.0);
        }
        // base data: uniform ra over [0,360)
        let table = base_table(40_000);
        let config = SciborqConfig::with_layers(vec![4_000, 400]);
        let h = LayerHierarchy::build_from_table(
            &table,
            SamplingPolicy::biased(["ra"]),
            &config,
            Some(&ps),
        )
        .unwrap();
        let focal = Predicate::between("ra", 110.0, 130.0);
        // base share of the focal window is ~20/360 ≈ 5.6%
        for layer in h.layers() {
            let share =
                focal.evaluate(layer.data()).unwrap().len() as f64 / layer.row_count() as f64;
            assert!(
                share > 0.15,
                "layer {} focal share {share} should be enriched",
                layer.layer()
            );
        }
    }

    #[test]
    fn rebuild_from_table_resets_and_resamples() {
        let table = base_table(10_000);
        let config = SciborqConfig::with_layers(vec![1_000, 100]);
        let mut h =
            LayerHierarchy::build_from_table(&table, SamplingPolicy::Uniform, &config, None)
                .unwrap();
        let bigger = base_table(20_000);
        h.rebuild_from_table(&bigger, None).unwrap();
        assert_eq!(h.observed_rows(), 20_000);
        assert_eq!(h.layers()[0].source_rows(), 20_000);
        assert_eq!(h.layer_count(), 2);
    }
}
