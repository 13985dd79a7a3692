//! Metric definitions (the contract `BENCHMARK.json` repeats) and how runs
//! are printed and compared.

use crate::stats;
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric with its unit and direction; `bound` is the share of the
/// baseline median by which it may worsen before that counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    gated(name, unit, better, 0.0)
}

/// What a user of the server sees, on every workload.
pub const END_TO_END: [MetricDef; 7] = [
    gated("reply_p50_ms", "ms", Better::Lower, 0.15),
    gated("reply_p95_ms", "ms", Better::Lower, 0.20),
    gated("qps", "1/s", Better::Higher, 0.20),
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("server_rss_mib", "MiB", Better::Lower, 0.10),
    gated("bounds_met_share", "share", Better::Higher, 0.02),
    gated("ci_coverage", "share", Better::Higher, 0.08),
];

/// The loader's side of `ingest.paced`: printed by the suite and (where
/// bounded) gated by `--check-repeat`, but outside `BENCHMARK.json` because
/// the other workloads have no loader to report them for. `loader_lag_ms`
/// says how late the generator ran; it carries no bound.
pub const LOADER: [MetricDef; 3] = [
    gated("load_p50_ms", "ms", Better::Lower, 0.15),
    gated("load_p90_ms", "ms", Better::Lower, 0.15),
    layer("loader_lag_ms", "ms", Better::Lower),
];

/// Single-layer metrics from the traced pass (no bounds).
pub const PER_LAYER: [MetricDef; 42] = [
    // serve::json + serve::protocol
    layer("parse_us", "us", Lower),
    layer("render_us", "us", Lower),
    layer("request_bytes", "B", Lower),
    layer("reply_bytes", "B", Lower),
    // sciborq-served: stdin loop, thread per line, stdout mutex
    layer("wire_overhead_us", "us", Lower),
    layer("rss_kib_per_request", "KiB", Lower),
    layer("vm_kib_per_request", "KiB", Lower),
    // serve::admission
    layer("admit_us", "us", Lower),
    layer("queue_wait_mean_us", "us", Lower),
    layer("queued_share", "share", Lower),
    layer("queries_shed", "count", Lower),
    layer("queries_downgraded", "count", Lower),
    // serve::server (scheduler)
    layer("submit_us", "us", Lower),
    layer("batch_wait_us", "us", Lower),
    layer("queries_per_pass", "count", Higher),
    layer("batch_size_p50", "count", Higher),
    // core::engine / core::batch
    layer("execute_us", "us", Lower),
    layer("engine_self_us", "us", Lower),
    layer("engine_elapsed_us", "us", Lower),
    layer("rows_scanned_per_query", "rows", Lower),
    layer("escalations_per_query", "count", Lower),
    layer("level_share.layer-2", "share", Higher),
    layer("level_share.layer-1", "share", Higher),
    layer("level_share.base", "share", Lower),
    // columnar::compiled + kernels
    layer("compile_us", "us", Lower),
    layer("scan_us", "us", Lower),
    layer("scan_share_of_reply", "share", Lower),
    layer("scan_us.layer-2", "us", Lower),
    layer("scan_us.layer-1", "us", Lower),
    layer("scan_us.base", "us", Lower),
    layer("rows_per_us.layer-2", "rows/us", Higher),
    layer("rows_per_us.layer-1", "rows/us", Higher),
    layer("rows_per_us.base", "rows/us", Higher),
    layer("level_elapsed_us.layer-2", "us", Lower),
    layer("level_elapsed_us.layer-1", "us", Lower),
    layer("level_elapsed_us.base", "us", Lower),
    // core::impression + stats
    layer("estimate_us", "us", Lower),
    // core::layer + core::builder + sampling
    layer("build_table_s", "s", Lower),
    layer("build_impressions_s", "s", Lower),
    layer("load_us", "us", Lower),
    // telemetry
    layer("trace_overhead_pct", "%", Lower),
    layer("traced_reply_p50_ms", "ms", Lower),
];

/// One metric of one run: the values it was measured as (one per segment
/// of a timed window, or one per server process), reported as their median.
#[derive(Debug, Clone)]
pub struct Obs {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub values: Vec<f64>,
    /// Observations behind the values in all (replies, loads, set-ups).
    pub samples: usize,
}

impl Obs {
    pub fn median(&self) -> f64 {
        stats::median(&self.values)
    }

    pub fn spread(&self) -> f64 {
        stats::spread(&self.values)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Obs>,
    /// Exact counts and context printed beside the metrics.
    pub notes: Vec<String>,
    /// Why `correct` is false.
    pub errors: Vec<String>,
    /// FNV-1a of the request file and of the answers that must repeat for
    /// the seed.
    pub hashes: (u64, u64),
}

impl Outcome {
    pub fn get(&self, name: &str) -> Option<&Obs> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn print(&self) {
        println!(
            "\n== {} — attempted {} failed {} (failed_share {:.6}) correct {}",
            self.workload,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct
        );
        println!(
            "  {:<28} {:>14} {:<8} {:<7} {:>8} {:>6} {:>7}  min .. max",
            "metric", "median", "unit", "better", "samples", "values", "spread"
        );
        for m in &self.metrics {
            println!(
                "  {:<28} {:>14.4} {:<8} {:<7} {:>8} {:>6} {:>6.1}%  {:.4} .. {:.4}",
                m.name,
                m.median(),
                m.unit,
                m.better.as_str(),
                m.samples,
                m.values.len(),
                m.spread() * 100.0,
                m.values.iter().copied().fold(f64::INFINITY, f64::min),
                m.values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            );
        }
        for note in &self.notes {
            println!("  . {note}");
        }
        for error in &self.errors {
            println!("  ! {error}");
        }
    }

    /// The contract's result line: `defs` picks which metrics it carries.
    ///
    /// A metric that could not be measured (NaN: the server died before its
    /// size was read, a window saw no reply) is written as 0 and makes the
    /// run incorrect, so the line stays valid JSON.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let mut measured = true;
        let metrics: Vec<String> = defs
            .iter()
            .map(|def| {
                let mut value = self
                    .get(def.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", def.name))
                    .median();
                if !value.is_finite() {
                    measured = false;
                    value = 0.0;
                }
                format!(
                    r#""{}":{{"value":{value},"unit":"{}"}}"#,
                    def.name, def.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct && measured,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// By how much of `first` the second median is worse (negative = better).
pub fn worsening(def: &MetricDef, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return if second == first { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// `--check-repeat`: print both columns and return the metrics whose two
/// medians differ by more than their bound, in either direction (the same
/// code ran twice, so a large *improvement* is as much noise as a loss).
pub fn compare(defs: &[MetricDef], first: &Outcome, second: &Outcome) -> Vec<String> {
    let mut out = Vec::new();
    println!(
        "\n== {} — repeat check\n  {:<28} {:>14} {:>14} {:>9} {:>7}",
        first.workload, "metric", "first", "second", "differ", "bound"
    );
    for def in defs.iter().filter(|def| def.bound > 0.0) {
        let (Some(a), Some(b)) = (first.get(def.name), second.get(def.name)) else {
            continue;
        };
        let (a, b) = (a.median(), b.median());
        let differ = worsening(def, a, b).abs();
        let verdict = if differ <= def.bound { "ok" } else { "FAIL" };
        println!(
            "  {:<28} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}% {verdict}",
            def.name,
            a,
            b,
            differ * 100.0,
            def.bound * 100.0
        );
        if differ > def.bound {
            out.push(format!("{}: {}", first.workload, def.name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;
    use sciborq_serve::json::Json;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let latency = END_TO_END[0];
        let qps = END_TO_END[2];
        assert!((worsening(&latency, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&latency, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(&qps, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(&qps, 0.0, 0.0), 0.0);
    }

    /// `BENCHMARK.json` is written by hand; it must say what the code does.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                    (
                        field("name"),
                        field("unit") + &field("better") + &field("why"),
                    )
                })
                .collect()
        };
        let want = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_owned(), d.unit.to_owned() + d.better.as_str()))
                .collect()
        };
        assert_eq!(names("end_to_end"), want(&END_TO_END));
        assert_eq!(names("per_layer"), want(&PER_LAYER));
        let workloads: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(names("workloads"), workloads);
        for (def, entry) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
