//! Reproductions of every figure of the paper plus the quantitative claims
//! made in the text. The experiment index is the name list of the
//! `experiments` binary (`src/bin/experiments.rs`).
//!
//! Each function prints a human-readable report and returns a small summary
//! struct so that tests can check the *shape* of the result: who wins, by
//! roughly what factor, and where the crossovers fall.

use crate::setup::{build_dataset, build_predicate_set, render_histogram, Scale};
use sciborq_columnar::Table;
use sciborq_core::{
    BoundedQueryEngine, EvaluationLevel, LayerHierarchy, QueryBounds, SamplingPolicy, SciborqConfig,
};
use sciborq_sampling::{BiasedReservoir, LastSeenReservoir, Reservoir, SamplingStrategy};
use sciborq_skyserver::Cone;
use sciborq_stats::{
    mean_absolute_deviation, silverman_bandwidth, BinnedKde, EquiWidthHistogram, FullKde, Kernel,
};
use sciborq_workload::Query;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Figure 4 — predicate-set histograms and density estimators
// ---------------------------------------------------------------------------

/// Per-attribute outcome of the Figure 4 reproduction.
#[derive(Debug, Clone)]
pub struct Fig4Attribute {
    /// Attribute name (`ra` / `dec`).
    pub attribute: String,
    /// Number of logged predicate values (N).
    pub observed: u64,
    /// Mean absolute deviation of the binned f̆ from the reference f̂.
    pub binned_deviation: f64,
    /// Mean absolute deviation of the oversmoothed estimate from f̂.
    pub oversmoothed_deviation: f64,
    /// Mean absolute deviation of the undersmoothed estimate from f̂.
    pub undersmoothed_deviation: f64,
    /// ∫ f̆ over the domain (should be ≈ 1).
    pub binned_integral: f64,
}

/// Summary of the Figure 4 reproduction.
#[derive(Debug, Clone)]
pub struct Fig4Summary {
    /// One entry per tracked attribute.
    pub attributes: Vec<Fig4Attribute>,
}

/// Figure 4: the workload's predicate-set histograms for `ra` and `dec`
/// together with the full KDE f̂ (reference bandwidth), deliberately over-
/// and under-smoothed variants, and the paper's binned estimator f̆.
pub fn figure4(scale: Scale) -> Fig4Summary {
    println!("== Figure 4: predicate-set density estimation (f̂ vs f̆) ==");
    let ps = build_predicate_set(scale, 4);
    let mut attributes = Vec::new();
    for (attribute, lo, hi) in [("ra", 0.0f64, 360.0f64), ("dec", -90.0, 90.0)] {
        let raw = ps
            .raw_values(attribute)
            .expect("raw predicate values retained")
            .to_vec();
        let hist = ps.histogram(attribute).expect("histogram exists");
        println!(
            "\n-- attribute {attribute}: N = {} logged predicate values, β = {} bins --",
            hist.total(),
            hist.bin_count()
        );
        print!(
            "{}",
            render_histogram("predicate-set histogram", &hist.counts())
        );

        let h = silverman_bandwidth(&raw).expect("bandwidth");
        let reference = FullKde::new(raw.clone(), h, Kernel::Gaussian).expect("f̂");
        let oversmoothed = FullKde::new(raw.clone(), h * 5.0, Kernel::Gaussian).expect("f̂ over");
        let undersmoothed = FullKde::new(raw.clone(), h * 0.2, Kernel::Gaussian).expect("f̂ under");
        let binned = BinnedKde::from_histogram(hist).expect("f̆");

        let binned_dev =
            mean_absolute_deviation(|x| reference.density(x), |x| binned.density(x), lo, hi, 400);
        let over_dev = mean_absolute_deviation(
            |x| reference.density(x),
            |x| oversmoothed.density(x),
            lo,
            hi,
            400,
        );
        let under_dev = mean_absolute_deviation(
            |x| reference.density(x),
            |x| undersmoothed.density(x),
            lo,
            hi,
            400,
        );
        let integral =
            sciborq_stats::integrate_density(|x| binned.density(x), lo - 50.0, hi + 50.0, 4000);

        println!("  bandwidth h* (Silverman)          : {h:.4}");
        println!("  MAD(f̆, f̂)  [binned, h = w]        : {binned_dev:.6}");
        println!("  MAD(oversmoothed 5h*, f̂)          : {over_dev:.6}");
        println!("  MAD(undersmoothed 0.2h*, f̂)       : {under_dev:.6}");
        println!("  ∫ f̆ dx                            : {integral:.4}");
        attributes.push(Fig4Attribute {
            attribute: attribute.to_owned(),
            observed: hist.total(),
            binned_deviation: binned_dev,
            oversmoothed_deviation: over_dev,
            undersmoothed_deviation: under_dev,
            binned_integral: integral,
        });
    }
    println!(
        "\nshape check: f̆ should track f̂ much more closely than the over/under-smoothed curves."
    );
    Fig4Summary { attributes }
}

// ---------------------------------------------------------------------------
// Figure 5 — streaming histogram maintenance
// ---------------------------------------------------------------------------

/// Summary of the Figure 5 reproduction.
#[derive(Debug, Clone)]
pub struct Fig5Summary {
    /// Largest absolute difference between a streaming bin mean and the
    /// exactly recomputed bin mean, over all β configurations.
    pub max_mean_error: f64,
    /// Whether every bin count matched exactly.
    pub counts_exact: bool,
}

/// Figure 5: the O(1)-per-value maintenance of per-bin (count, mean)
/// statistics reproduces the exact statistics for every bin width tried.
pub fn figure5(scale: Scale) -> Fig5Summary {
    println!("== Figure 5: streaming predicate-set histogram maintenance ==");
    let ps = build_predicate_set(scale, 5);
    let raw = ps.raw_values("ra").expect("raw values").to_vec();
    let mut max_mean_error: f64 = 0.0;
    let mut counts_exact = true;
    for beta in [8usize, 16, 24, 48] {
        let mut streaming = EquiWidthHistogram::new(0.0, 360.0, beta).expect("histogram");
        streaming.observe_all(&raw);
        // exact recomputation per bin
        let mut exact_counts = vec![0u64; beta];
        let mut exact_sums = vec![0.0f64; beta];
        for &v in &raw {
            let idx = streaming.bin_index(v);
            exact_counts[idx] += 1;
            exact_sums[idx] += v;
        }
        let mut worst = 0.0f64;
        for (i, bin) in streaming.bins().iter().enumerate() {
            if bin.count != exact_counts[i] {
                counts_exact = false;
            }
            if exact_counts[i] > 0 {
                let exact_mean = exact_sums[i] / exact_counts[i] as f64;
                worst = worst.max((bin.mean - exact_mean).abs());
            }
        }
        max_mean_error = max_mean_error.max(worst);
        println!(
            "  β = {beta:>3}: {} values, max |streaming mean − exact mean| = {worst:.2e}",
            streaming.total()
        );
    }
    Fig5Summary {
        max_mean_error,
        counts_exact,
    }
}

// ---------------------------------------------------------------------------
// Figure 6 — the biased reservoir acceptance rule
// ---------------------------------------------------------------------------

/// Summary of the Figure 6 reproduction.
#[derive(Debug, Clone)]
pub struct Fig6Summary {
    /// Acceptance probability of a focal tuple late in the stream.
    pub focal_acceptance: f64,
    /// Acceptance probability of a background tuple late in the stream.
    pub background_acceptance: f64,
    /// Ratio of focal to background tuples retained, divided by the base
    /// ratio (the enrichment factor of the reservoir itself).
    pub enrichment: f64,
}

/// Figure 6: the biased reservoir accepts tuples with probability
/// `f̆(t)·N·n/cnt` and therefore enriches the focal region.
pub fn figure6(scale: Scale) -> Fig6Summary {
    println!("== Figure 6: biased-sampling reservoir acceptance rule ==");
    let ps = build_predicate_set(scale, 6);
    let kde = ps.interest_estimator("ra").expect("interest estimator");
    let dataset = build_dataset(scale);
    let fact = dataset.catalog.table("photoobj").expect("fact");
    let fact = fact.read();
    let ra = fact.column("ra").expect("ra column");

    let capacity = scale.impression_rows();
    let mut reservoir = BiasedReservoir::new(capacity, 6).expect("reservoir");
    for i in 0..fact.row_count() {
        let value = ra.get_f64(i).unwrap_or(0.0);
        reservoir.observe_weighted(i, kde.interest_weight(value));
    }
    let focal_w = kde.interest_weight(185.0);
    let background_w = kde.interest_weight(90.0);
    let focal_acceptance = reservoir.acceptance_probability(focal_w);
    let background_acceptance = reservoir.acceptance_probability(background_w);

    // enrichment of the focal window [180, 190] relative to the base data
    let in_focus = |v: f64| (180.0..=190.0).contains(&v);
    let base_share = (0..fact.row_count())
        .filter_map(|i| ra.get_f64(i))
        .filter(|&v| in_focus(v))
        .count() as f64
        / fact.row_count() as f64;
    let sample_share = reservoir
        .sample()
        .iter()
        .filter(|s| ra.get_f64(s.item).map(in_focus).unwrap_or(false))
        .count() as f64
        / reservoir.len() as f64;
    let enrichment = sample_share / base_share.max(1e-9);

    println!("  interest weight  f̆(185°)·N = {focal_w:.2}, f̆(90°)·N = {background_w:.2}");
    println!(
        "  acceptance probability (late in stream): focal {focal_acceptance:.4} vs background {background_acceptance:.6}"
    );
    println!(
        "  focal-window share: base {base_share:.3} → biased sample {sample_share:.3} (enrichment ×{enrichment:.1})"
    );
    Fig6Summary {
        focal_acceptance,
        background_acceptance,
        enrichment,
    }
}

// ---------------------------------------------------------------------------
// Figure 7 — base data vs uniform sample vs biased sample
// ---------------------------------------------------------------------------

/// Per-attribute outcome of the Figure 7 reproduction.
#[derive(Debug, Clone)]
pub struct Fig7Attribute {
    /// Attribute name.
    pub attribute: String,
    /// Share of base tuples inside the workload's focal regions.
    pub base_focal_share: f64,
    /// Share of the uniform impression inside the focal regions.
    pub uniform_focal_share: f64,
    /// Share of the biased impression inside the focal regions.
    pub biased_focal_share: f64,
}

impl Fig7Attribute {
    /// Enrichment of the biased impression relative to the uniform one.
    pub fn enrichment_vs_uniform(&self) -> f64 {
        self.biased_focal_share / self.uniform_focal_share.max(1e-9)
    }
}

/// Summary of the Figure 7 reproduction.
#[derive(Debug, Clone)]
pub struct Fig7Summary {
    /// One entry per attribute (`ra`, `dec`).
    pub attributes: Vec<Fig7Attribute>,
}

/// Figure 7: distributions of the base data (>600k tuples at paper scale),
/// a 10 000-tuple uniform impression, and a 10 000-tuple biased impression
/// steered by the Figure 4 workload, for `ra` and `dec`.
pub fn figure7(scale: Scale) -> Fig7Summary {
    println!("== Figure 7: base data vs uniform vs biased impression ==");
    let ps = build_predicate_set(scale, 4);
    let dataset = build_dataset(scale);
    let fact = dataset.catalog.table("photoobj").expect("fact");
    let fact = fact.read();
    println!(
        "base data: {} tuples; impression size n = {}",
        fact.row_count(),
        scale.impression_rows()
    );

    let config = SciborqConfig::with_layers(vec![scale.impression_rows()]);
    let uniform =
        LayerHierarchy::build_from_table(&fact, SamplingPolicy::Uniform, &config, Some(&ps))
            .expect("uniform hierarchy");
    let biased = LayerHierarchy::build_from_table(
        &fact,
        SamplingPolicy::biased(["ra", "dec"]),
        &config,
        Some(&ps),
    )
    .expect("biased hierarchy");
    let uniform = &uniform.layers()[0];
    let biased = &biased.layers()[0];

    let mut attributes = Vec::new();
    for (attribute, lo, hi) in [("ra", 0.0f64, 360.0f64), ("dec", -90.0, 90.0)] {
        println!("\n-- attribute {attribute} --");
        let collect = |table: &Table| -> Vec<f64> {
            let col = table.column(attribute).expect("column");
            (0..table.row_count())
                .filter_map(|i| col.get_f64(i))
                .collect()
        };
        let base_values = collect(&fact);
        let uniform_values = collect(uniform.data());
        let biased_values = collect(biased.data());

        let mut base_hist = EquiWidthHistogram::new(lo, hi, 24).expect("hist");
        base_hist.observe_all(&base_values);
        let mut uniform_hist = EquiWidthHistogram::new(lo, hi, 24).expect("hist");
        uniform_hist.observe_all(&uniform_values);
        let mut biased_hist = EquiWidthHistogram::new(lo, hi, 24).expect("hist");
        biased_hist.observe_all(&biased_values);

        print!("{}", render_histogram("base data", &base_hist.counts()));
        print!(
            "{}",
            render_histogram("uniform impression", &uniform_hist.counts())
        );
        print!(
            "{}",
            render_histogram("biased impression", &biased_hist.counts())
        );

        // focal regions from the workload histogram
        let workload_hist = ps.histogram(attribute).expect("workload histogram");
        let regions = sciborq_workload::extract_focal_regions(attribute, workload_hist, 2.0);
        let share = |values: &[f64]| {
            if values.is_empty() {
                return 0.0;
            }
            values
                .iter()
                .filter(|v| regions.iter().any(|r| r.contains(**v)))
                .count() as f64
                / values.len() as f64
        };
        let row = Fig7Attribute {
            attribute: attribute.to_owned(),
            base_focal_share: share(&base_values),
            uniform_focal_share: share(&uniform_values),
            biased_focal_share: share(&biased_values),
        };
        println!(
            "focal-region share: base {:.3} | uniform {:.3} | biased {:.3}  (biased/uniform ×{:.2})",
            row.base_focal_share,
            row.uniform_focal_share,
            row.biased_focal_share,
            row.enrichment_vs_uniform()
        );
        attributes.push(row);
    }
    println!("\nshape check: the biased impression holds many more tuples around the focal points, the uniform one mirrors the base distribution.");
    Fig7Summary { attributes }
}

// ---------------------------------------------------------------------------
// E3 — Algorithm R uniformity (Figure 2)
// ---------------------------------------------------------------------------

/// Summary of the reservoir-uniformity experiment.
#[derive(Debug, Clone)]
pub struct ReservoirSummary {
    /// Worst per-decile deviation from the expected inclusion share (10%).
    pub max_decile_deviation: f64,
}

/// Figure 2 / E3: Algorithm R retains every prefix position with equal
/// probability — the per-decile composition of the reservoir stays ≈ 10%.
pub fn reservoir_uniformity(scale: Scale) -> ReservoirSummary {
    println!("== Figure 2 / E3: Algorithm R uniformity ==");
    let stream = scale.fact_rows() as u64;
    let mut max_dev = 0.0f64;
    for capacity in [1_000usize, 10_000] {
        let capacity = capacity.min(stream as usize / 2);
        let mut reservoir = Reservoir::new(capacity, 3);
        for i in 0..stream {
            reservoir.observe(i);
        }
        let mut deciles = [0usize; 10];
        for item in reservoir.sample() {
            deciles[(item.item * 10 / stream) as usize] += 1;
        }
        print!("  n = {capacity:>6}: decile shares");
        for d in deciles {
            let share = d as f64 / capacity as f64;
            max_dev = max_dev.max((share - 0.1).abs());
            print!(" {share:.3}");
        }
        println!();
    }
    println!("  (each share should be ≈ 0.100)");
    ReservoirSummary {
        max_decile_deviation: max_dev,
    }
}

// ---------------------------------------------------------------------------
// E4 — Last-Seen recency bias (Figure 3)
// ---------------------------------------------------------------------------

/// One row of the Last-Seen experiment.
#[derive(Debug, Clone)]
pub struct LastSeenRow {
    /// The `k/n` ratio used.
    pub fresh_fraction: f64,
    /// Fraction of the reservoir coming from the last ingest window.
    pub recent_share: f64,
}

/// Summary of the Last-Seen experiment.
#[derive(Debug, Clone)]
pub struct LastSeenSummary {
    /// One row per `k/n` setting, plus the uniform baseline share.
    pub rows: Vec<LastSeenRow>,
    /// The uniform reservoir's share of recent tuples (baseline).
    pub uniform_recent_share: f64,
}

/// Figure 3 / E4: the Last-Seen strategy retains recent tuples with a fixed
/// probability `k/D`, so the share of the latest ingest in the reservoir
/// grows with `k/n`, far beyond the uniform baseline.
pub fn last_seen_bias(scale: Scale) -> LastSeenSummary {
    println!("== Figure 3 / E4: Last-Seen impressions ==");
    let stream = scale.fact_rows() as u64;
    let daily = (stream / 10).max(1) as f64; // ten "days" of ingest
    let capacity = scale.impression_rows();
    let window_start = stream - daily as u64;

    let recent_share = |items: &[sciborq_sampling::SampledItem<u64>]| {
        items.iter().filter(|s| s.item >= window_start).count() as f64 / items.len() as f64
    };

    let mut uniform = Reservoir::new(capacity, 9);
    for i in 0..stream {
        uniform.observe(i);
    }
    let uniform_share = recent_share(uniform.sample());
    println!("  uniform baseline: {uniform_share:.3} of the reservoir is from the last ingest");

    let mut rows = Vec::new();
    for fresh_fraction in [0.25f64, 0.5, 1.0] {
        let k = fresh_fraction * capacity as f64;
        let mut reservoir = LastSeenReservoir::new(capacity, k, daily, 9).expect("last-seen");
        for i in 0..stream {
            reservoir.observe(i);
        }
        let share = recent_share(reservoir.sample());
        println!(
            "  k/n = {fresh_fraction:>4.2} (k/D = {:.3}): recent share {share:.3}",
            k / daily
        );
        rows.push(LastSeenRow {
            fresh_fraction,
            recent_share: share,
        });
    }
    LastSeenSummary {
        rows,
        uniform_recent_share: uniform_share,
    }
}

// ---------------------------------------------------------------------------
// E7 — error bounds vs impression size
// ---------------------------------------------------------------------------

/// One row of the error-vs-size experiment.
#[derive(Debug, Clone)]
pub struct BoundsRow {
    /// Impression size in rows.
    pub impression_rows: usize,
    /// Mean observed relative error of the COUNT estimate vs ground truth.
    pub mean_observed_error: f64,
    /// Mean predicted relative half-width of the 95% CI.
    pub mean_predicted_error: f64,
    /// Fraction of repetitions whose CI covered the true value.
    pub coverage: f64,
}

/// Summary of the error-vs-size experiment.
#[derive(Debug, Clone)]
pub struct BoundsSummary {
    /// One row per impression size, ascending.
    pub rows: Vec<BoundsRow>,
}

/// E7: "the larger the impression, the longer the processing time and the
/// smaller the error bounds" — observed and predicted error of a cone-search
/// COUNT as a function of impression size, with CI coverage.
pub fn error_vs_size(scale: Scale) -> BoundsSummary {
    println!("== E7: error bounds vs impression size ==");
    let dataset = build_dataset(scale);
    let fact = dataset.catalog.table("photoobj").expect("fact");
    let fact = fact.read();
    let cone = Cone::new(185.0, 0.0, 5.0);
    let predicate = cone.bounding_box_predicate("ra", "dec");
    let truth = predicate.evaluate(&fact).expect("truth").len() as f64;
    println!("ground-truth COUNT = {truth}");
    println!(
        "{:>12} {:>16} {:>16} {:>10}",
        "size", "observed error", "predicted error", "coverage"
    );

    let sizes: Vec<usize> = match scale {
        Scale::Paper => vec![1_000, 3_000, 10_000, 30_000, 100_000],
        Scale::Quick => vec![300, 1_000, 3_000],
    };
    let repetitions = match scale {
        Scale::Paper => 5,
        Scale::Quick => 3,
    };
    let engine = BoundedQueryEngine::new(SciborqConfig::default()).expect("engine");
    let query = Query::count("photoobj", predicate.clone());

    let mut rows = Vec::new();
    for &size in &sizes {
        let mut observed = Vec::new();
        let mut predicted = Vec::new();
        let mut covered = 0usize;
        for rep in 0..repetitions {
            let mut config = SciborqConfig::with_layers(vec![size]);
            config.seed = 1_000 + rep as u64;
            let hierarchy =
                LayerHierarchy::build_from_table(&fact, SamplingPolicy::Uniform, &config, None)
                    .expect("hierarchy");
            let answer = engine
                .execute_aggregate(&query, &hierarchy, None, &QueryBounds::default())
                .expect("bounded query");
            let estimate = answer.value.unwrap_or(0.0);
            observed.push((estimate - truth).abs() / truth);
            predicted.push(answer.relative_error());
            if answer.interval.map(|ci| ci.covers(truth)).unwrap_or(false) {
                covered += 1;
            }
        }
        let row = BoundsRow {
            impression_rows: size,
            mean_observed_error: observed.iter().sum::<f64>() / observed.len() as f64,
            mean_predicted_error: predicted.iter().sum::<f64>() / predicted.len() as f64,
            coverage: covered as f64 / repetitions as f64,
        };
        println!(
            "{:>12} {:>16.4} {:>16.4} {:>10.2}",
            row.impression_rows, row.mean_observed_error, row.mean_predicted_error, row.coverage
        );
        rows.push(row);
    }
    println!(
        "shape check: both error columns shrink monotonically (≈ 1/√n) as the impression grows."
    );
    BoundsSummary { rows }
}

// ---------------------------------------------------------------------------
// E8 — escalation across layers for different error targets
// ---------------------------------------------------------------------------

/// One row of the escalation experiment.
#[derive(Debug, Clone)]
pub struct EscalationRow {
    /// The requested maximum relative error.
    pub max_error: f64,
    /// Average number of escalations per query.
    pub mean_escalations: f64,
    /// Average measured rows scanned per query (summed over all levels the
    /// engine visited).
    pub mean_rows_scanned: f64,
    /// Fraction of queries that ended on the base data.
    pub base_data_fraction: f64,
    /// Fraction of queries whose error bound was met.
    pub satisfied_fraction: f64,
}

/// Summary of the escalation experiment.
#[derive(Debug, Clone)]
pub struct EscalationSummary {
    /// One row per error target, from loose to tight.
    pub rows: Vec<EscalationRow>,
}

/// E8: queries that miss their error target fall through to more detailed
/// impressions and ultimately the base columns (§3.2 "Quality of results").
pub fn escalation(scale: Scale) -> EscalationSummary {
    println!("== E8: multi-layer escalation vs error target ==");
    let dataset = build_dataset(scale);
    let fact = dataset.catalog.table("photoobj").expect("fact");
    let fact = fact.read();
    let layers = match scale {
        Scale::Paper => vec![100_000, 10_000, 1_000],
        Scale::Quick => vec![10_000, 1_000, 100],
    };
    let config = SciborqConfig::with_layers(layers);
    let hierarchy = LayerHierarchy::build_from_table(&fact, SamplingPolicy::Uniform, &config, None)
        .expect("hierarchy");
    let engine = BoundedQueryEngine::new(config).expect("engine");

    // a mixed bag of cone searches with varying selectivity
    let mut generator = sciborq_workload::WorkloadGenerator::default_sky(8);
    let queries: Vec<Query> = generator
        .generate(40)
        .into_iter()
        .map(|q| Query::count("photoobj", q.predicate))
        .collect();

    println!(
        "{:>12} {:>18} {:>16} {:>20} {:>18}",
        "max error", "mean escalations", "rows scanned", "base-data fraction", "bound satisfied"
    );
    let mut rows = Vec::new();
    for max_error in [0.10f64, 0.05, 0.01] {
        let mut escalations = 0usize;
        let mut rows_scanned = 0u64;
        let mut base_hits = 0usize;
        let mut satisfied = 0usize;
        for query in &queries {
            let answer = engine
                .execute_aggregate(
                    query,
                    &hierarchy,
                    Some(&fact),
                    &QueryBounds::max_error(max_error),
                )
                .expect("bounded query");
            escalations += answer.escalations;
            rows_scanned += answer.rows_scanned;
            if answer.level == EvaluationLevel::BaseData {
                base_hits += 1;
            }
            if answer.error_bound_met {
                satisfied += 1;
            }
        }
        let row = EscalationRow {
            max_error,
            mean_escalations: escalations as f64 / queries.len() as f64,
            mean_rows_scanned: rows_scanned as f64 / queries.len() as f64,
            base_data_fraction: base_hits as f64 / queries.len() as f64,
            satisfied_fraction: satisfied as f64 / queries.len() as f64,
        };
        println!(
            "{:>12.2} {:>18.2} {:>16.0} {:>20.2} {:>18.2}",
            row.max_error,
            row.mean_escalations,
            row.mean_rows_scanned,
            row.base_data_fraction,
            row.satisfied_fraction
        );
        rows.push(row);
    }
    println!("shape check: tighter targets force more escalations and more base-data visits, while every bound is ultimately satisfied.");
    EscalationSummary { rows }
}

// ---------------------------------------------------------------------------
// E9 — adaptation to a workload shift
// ---------------------------------------------------------------------------

/// Summary of the adaptation experiment.
#[derive(Debug, Clone)]
pub struct AdaptSummary {
    /// Focal share of the new region before adaptation.
    pub before_share: f64,
    /// Focal share of the new region after adaptation.
    pub after_share: f64,
    /// The measured workload shift that triggered the rebuild.
    pub shift: f64,
}

/// E9: when the exploration focus moves, maintenance detects the shift and
/// the rebuilt impressions enrich the new region.
pub fn adaptation(scale: Scale) -> AdaptSummary {
    println!("== E9: adaptation to a shifting focal point ==");
    let dataset = build_dataset(scale);
    let config =
        SciborqConfig::with_layers(vec![scale.impression_rows(), scale.impression_rows() / 10]);
    let session = sciborq_core::ExplorationSession::new(
        dataset.catalog.clone(),
        config,
        &[
            ("ra", sciborq_workload::AttributeDomain::new(0.0, 360.0, 72)),
            (
                "dec",
                sciborq_workload::AttributeDomain::new(-90.0, 90.0, 36),
            ),
        ],
    )
    .expect("session");
    session
        .create_impressions("photoobj", SamplingPolicy::Uniform)
        .expect("bootstrap");

    let phase = |center_ra: f64, center_dec: f64| sciborq_workload::WorkloadConfig {
        clusters: vec![sciborq_workload::FocalCluster::new(
            center_ra, center_dec, 2.0, 1.0,
        )],
        background_fraction: 0.05,
        ..sciborq_workload::WorkloadConfig::default()
    };

    // Phase 1 workload: focus on (185, 0); build biased impressions for it.
    let mut generator = sciborq_workload::WorkloadGenerator::new(phase(185.0, 0.0), 31);
    for query in generator.generate(150) {
        let _ = session.execute(&query, &QueryBounds::default());
    }
    session
        .create_impressions("photoobj", SamplingPolicy::biased(["ra", "dec"]))
        .expect("biased impressions");

    let new_region = Cone::new(230.0, 45.0, 5.0).bounding_box_predicate("ra", "dec");
    let share = |session: &sciborq_core::ExplorationSession| {
        let hierarchy = session.hierarchy("photoobj").unwrap();
        let layer = &hierarchy.layers()[0];
        new_region.evaluate(layer.data()).unwrap().len() as f64 / layer.row_count() as f64
    };
    let before_share = share(&session);

    // Phase 2 workload: focus moves to (230, 45).
    let mut generator = sciborq_workload::WorkloadGenerator::new(phase(230.0, 45.0), 32);
    for query in generator.generate(250) {
        let _ = session.execute(&query, &QueryBounds::default());
    }
    let decision = session.adapt().expect("maintenance");
    let after_share = share(&session);
    println!(
        "  workload shift measured : {:.2} (rebuild = {})",
        decision.max_shift, decision.should_rebuild
    );
    println!("  new-region share before : {before_share:.4}");
    println!("  new-region share after  : {after_share:.4}");
    println!("shape check: the share of the newly interesting region grows after adaptation.");
    AdaptSummary {
        before_share,
        after_share,
        shift: decision.max_shift,
    }
}

// ---------------------------------------------------------------------------
// E10 — runtime vs impression size
// ---------------------------------------------------------------------------

/// One row of the runtime experiment.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// Rows available at this level (impression size or base size).
    pub rows: usize,
    /// Measured row positions the scan kernels actually visited while
    /// answering (candidate refinement makes this less than
    /// `columns × rows` for conjunctive predicates).
    pub rows_scanned: u64,
    /// Number of levels the engine evaluated for the answer.
    pub levels_visited: usize,
    /// Mean query latency in microseconds.
    pub latency_us: f64,
    /// Observed relative error of the COUNT estimate.
    pub relative_error: f64,
}

/// Summary of the runtime experiment.
#[derive(Debug, Clone)]
pub struct RuntimeSummary {
    /// One row per level, ascending in size; the last row is the base scan.
    pub rows: Vec<RuntimeRow>,
}

/// E10: query latency grows with the impression size while the error
/// shrinks; the full base scan anchors the right-hand end of the trade-off.
pub fn runtime_vs_size(scale: Scale) -> RuntimeSummary {
    println!("== E10: runtime vs impression size ==");
    let dataset = build_dataset(scale);
    let fact = dataset.catalog.table("photoobj").expect("fact");
    let fact = fact.read();
    let cone = Cone::new(185.0, 0.0, 5.0);
    let predicate = cone.bounding_box_predicate("ra", "dec");
    let truth = predicate.evaluate(&fact).expect("truth").len() as f64;
    let query = Query::count("photoobj", predicate.clone());
    let engine = BoundedQueryEngine::new(SciborqConfig::default()).expect("engine");

    let sizes: Vec<usize> = match scale {
        Scale::Paper => vec![1_000, 10_000, 100_000],
        Scale::Quick => vec![300, 3_000],
    };
    let iterations = match scale {
        Scale::Paper => 20,
        Scale::Quick => 5,
    };

    println!(
        "{:>12} {:>14} {:>14} {:>8} {:>16}",
        "rows", "rows scanned", "latency (µs)", "levels", "relative error"
    );
    let mut rows = Vec::new();
    for &size in &sizes {
        let config = SciborqConfig::with_layers(vec![size]);
        let hierarchy =
            LayerHierarchy::build_from_table(&fact, SamplingPolicy::Uniform, &config, None)
                .expect("hierarchy");
        let mut elapsed = 0.0;
        let mut answer_value = 0.0;
        let mut rows_scanned = 0u64;
        let mut levels_visited = 0usize;
        for _ in 0..iterations {
            let started = Instant::now();
            let answer = engine
                .execute_aggregate(&query, &hierarchy, None, &QueryBounds::default())
                .expect("query");
            elapsed += started.elapsed().as_secs_f64() * 1e6;
            answer_value = answer.value.unwrap_or(0.0);
            rows_scanned = answer.rows_scanned;
            levels_visited = answer.levels_visited();
        }
        let row = RuntimeRow {
            rows: size,
            rows_scanned,
            levels_visited,
            latency_us: elapsed / iterations as f64,
            relative_error: (answer_value - truth).abs() / truth.max(1.0),
        };
        println!(
            "{:>12} {:>14} {:>14.1} {:>8} {:>16.4}",
            row.rows, row.rows_scanned, row.latency_us, row.levels_visited, row.relative_error
        );
        rows.push(row);
    }

    // full base scan for reference, through the compiled pipeline so the
    // scan work is measured the same way as the engine's
    let compiled =
        sciborq_columnar::CompiledPredicate::compile(&predicate, fact.schema()).expect("compiles");
    let mut elapsed = 0.0;
    let mut base_scanned = 0u64;
    for _ in 0..iterations {
        let started = Instant::now();
        let (_, stats) = compiled.count_matches(&fact).expect("scan");
        elapsed += started.elapsed().as_secs_f64() * 1e6;
        base_scanned = stats.rows_visited;
    }
    let base_row = RuntimeRow {
        rows: fact.row_count(),
        rows_scanned: base_scanned,
        levels_visited: 1,
        latency_us: elapsed / iterations as f64,
        relative_error: 0.0,
    };
    println!(
        "{:>12} {:>14} {:>14.1} {:>8} {:>16.4}   (full base scan)",
        base_row.rows,
        base_row.rows_scanned,
        base_row.latency_us,
        base_row.levels_visited,
        base_row.relative_error
    );
    rows.push(base_row);
    println!(
        "shape check: latency grows roughly linearly with the rows scanned; error falls towards 0."
    );
    RuntimeSummary { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_shape_holds_at_quick_scale() {
        let summary = figure4(Scale::Quick);
        assert_eq!(summary.attributes.len(), 2);
        for attr in &summary.attributes {
            assert!(attr.observed > 0);
            assert!(
                attr.binned_deviation < attr.oversmoothed_deviation,
                "{}: f̆ must beat oversmoothing",
                attr.attribute
            );
            assert!((attr.binned_integral - 1.0).abs() < 0.05);
        }
    }

    #[test]
    fn figure5_streaming_histograms_match_exact() {
        let summary = figure5(Scale::Quick);
        assert!(summary.counts_exact);
        assert!(summary.max_mean_error < 1e-9);
    }

    #[test]
    fn figure6_biased_reservoir_enriches() {
        let summary = figure6(Scale::Quick);
        assert!(summary.focal_acceptance > summary.background_acceptance);
        assert!(
            summary.enrichment > 1.2,
            "enrichment {}",
            summary.enrichment
        );
    }

    #[test]
    fn figure7_biased_beats_uniform_on_focal_share() {
        let summary = figure7(Scale::Quick);
        assert_eq!(summary.attributes.len(), 2);
        // the headline claim of the figure, at least on ra
        let ra = &summary.attributes[0];
        assert!(
            ra.biased_focal_share > ra.uniform_focal_share,
            "ra: biased {} vs uniform {}",
            ra.biased_focal_share,
            ra.uniform_focal_share
        );
    }

    #[test]
    fn reservoir_uniformity_is_flat() {
        let summary = reservoir_uniformity(Scale::Quick);
        assert!(summary.max_decile_deviation < 0.05);
    }

    #[test]
    fn last_seen_recent_share_grows_with_k() {
        let summary = last_seen_bias(Scale::Quick);
        assert_eq!(summary.rows.len(), 3);
        assert!(summary.rows[2].recent_share > summary.rows[0].recent_share);
        assert!(summary.rows[2].recent_share > summary.uniform_recent_share);
    }

    #[test]
    fn error_shrinks_with_impression_size() {
        let summary = error_vs_size(Scale::Quick);
        let first = summary.rows.first().unwrap();
        let last = summary.rows.last().unwrap();
        assert!(last.mean_predicted_error < first.mean_predicted_error);
    }

    #[test]
    fn escalation_grows_with_tighter_targets() {
        let summary = escalation(Scale::Quick);
        assert_eq!(summary.rows.len(), 3);
        assert!(
            summary.rows[2].mean_escalations >= summary.rows[0].mean_escalations,
            "1% target should escalate at least as much as 10%"
        );
        assert!(
            summary.rows[2].mean_rows_scanned >= summary.rows[0].mean_rows_scanned,
            "tighter targets must scan at least as many rows"
        );
        // every query is ultimately satisfied because the base data is reachable
        assert!(summary.rows.iter().all(|r| r.satisfied_fraction > 0.99));
    }

    #[test]
    fn runtime_grows_with_rows_scanned() {
        let summary = runtime_vs_size(Scale::Quick);
        assert!(summary.rows.len() >= 3);
        let first = summary.rows.first().unwrap();
        let last = summary.rows.last().unwrap();
        assert!(last.rows > first.rows);
        assert_eq!(last.relative_error, 0.0);
        // measured scan work is reported for every level
        assert!(summary.rows.iter().all(|r| r.rows_scanned > 0));
        assert!(summary.rows.iter().all(|r| r.levels_visited >= 1));
    }

    #[test]
    fn adaptation_improves_new_focus_share() {
        let summary = adaptation(Scale::Quick);
        assert!(summary.shift > 0.5);
        assert!(summary.after_share >= summary.before_share);
    }
}
