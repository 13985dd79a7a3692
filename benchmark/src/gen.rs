//! The four workloads and their seeded request files.
//!
//! Every predicate constant and the order of the lines come from `--seed`
//! through a SplitMix64 stream, so a seed names one exact request file (its
//! FNV-1a hash is printed with every run). The server sees only the lines.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Rows of the synthetic `photoobj` table every workload starts from.
pub const BASE_ROWS: usize = 2_000_000;
/// Impression layer sizes, largest first (`--layers 200000,20000`).
pub const LAYERS: [usize; 2] = [200_000, 20_000];

/// How a workload reaches the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Request lines over the stdio pipes of a `sciborq-served` process.
    Wire,
    /// `QueryServer::submit` in the driver's own process, beside a loader
    /// thread (`sciborq-served` has no load command).
    InProcess,
}

/// One benchmark workload: its traffic shape and the server it runs against.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub transport: Transport,
    /// Requests kept in flight by the closed loop.
    pub in_flight: usize,
    /// `--parallelism`: scan shards per escalation level.
    pub parallelism: usize,
    /// `--global-budget` and `--queue`, when admission prices against a budget.
    pub admission: Option<(u64, usize)>,
    /// Requests served and discarded before the measured window.
    pub warmup: usize,
    /// Lines in the request file: the most one server process is ever sent
    /// (see `known defects` in the README: the server leaks a thread stack
    /// per request and dies near 32,700).
    pub lines: usize,
    /// The server's RSS is read when this many replies of the measured
    /// window have arrived, so the figure is taken at the same request count
    /// however fast the server is.
    pub rss_mark: usize,
    /// The level the workload is built to be answered at.
    pub designed_level: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire.small",
        why: "20k-row answers (~0.1 ms scan in a ~0.45 ms reply): wire parse, per-line thread spawn, batch window and reply render dominate; a kernel speed-up should move nothing here",
        transport: Transport::Wire,
        in_flight: 1,
        parallelism: 2,
        admission: None,
        warmup: 500,
        lines: 20_000,
        rss_mark: 4_000,
        designed_level: "layer-2",
    },
    Workload {
        name: "scan.exact",
        why: "every query escalates 20k -> 200k -> 2M base rows: compiled kernels and the sharded fan-out are >80% of the reply; a wire or scheduler change should move nothing here",
        transport: Transport::Wire,
        in_flight: 1,
        parallelism: 2,
        admission: None,
        warmup: 50,
        lines: 8_000,
        rss_mark: 400,
        designed_level: "base",
    },
    Workload {
        name: "shared.mixed",
        why: "4 in flight over 8 hot queries under a 2M-row global budget: the only workload where admission queues and shared-scan dedup (multi-sink pass at the 200k layer) can pay",
        transport: Transport::Wire,
        in_flight: 4,
        parallelism: 1,
        admission: Some((2_000_000, 64)),
        warmup: 500,
        lines: 20_000,
        rss_mark: 4_000,
        designed_level: "layer-1",
    },
    Workload {
        name: "ingest.paced",
        why: "in-process queries beside a loader appending 10k rows every 100 ms: each load clones the hierarchy under its write lock, so read and write cost trade against each other here",
        transport: Transport::InProcess,
        in_flight: 1,
        parallelism: 1,
        admission: Some((2_000_000, 64)),
        warmup: 200,
        lines: 20_000,
        rss_mark: 0,
        designed_level: "layer-1",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `sciborq-served` flags for this workload.
    pub fn server_flags(&self, traces: bool, shared_scans: bool) -> Vec<String> {
        let layers = LAYERS.map(|n| n.to_string()).join(",");
        let mut flags: Vec<String> = [
            "--rows",
            &BASE_ROWS.to_string(),
            "--layers",
            &layers,
            "--policy",
            "uniform",
            "--log-level",
            "error",
            "--traces",
            if traces { "on" } else { "off" },
            "--shared-scans",
            if shared_scans { "on" } else { "off" },
            "--parallelism",
            &self.parallelism.to_string(),
        ]
        .map(str::to_owned)
        .to_vec();
        if let Some((budget, queue)) = self.admission {
            flags.extend([
                "--global-budget".to_owned(),
                budget.to_string(),
                "--queue".to_owned(),
                queue.to_string(),
            ]);
        }
        flags
    }
}

/// SplitMix64: a tiny, well-mixed, seedable stream (the benchmark must not
/// depend on the vendored `rand` stub's stream staying put).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[low, high)`, rounded to two decimals so request lines
    /// stay short.
    pub fn between(&mut self, low: f64, high: f64) -> f64 {
        ((low + self.unit() * (high - low)) * 100.0).round() / 100.0
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One distinct request body: a query and the bounds it is sent with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body {
    /// Index into [`Requests::queries`].
    pub query: usize,
    /// The `bounds` object as JSON text.
    pub bounds: String,
}

/// A generated request file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Requests {
    /// Distinct `query` objects as JSON text.
    pub queries: Vec<String>,
    /// Distinct (query, bounds) pairs.
    pub bodies: Vec<Body>,
    /// The body sent on each line; the line's index is its request id.
    pub order: Vec<usize>,
}

/// Bounds that force an exact answer: no sample reaches a 1e-9 relative
/// error, so the engine falls through to the base table.
pub const EXACT_BOUNDS: &str = r#"{"max_relative_error":0.000000001}"#;

impl Requests {
    /// The request line with id `id` for body `body`.
    pub fn render(&self, id: usize, body: usize) -> String {
        let body = &self.bodies[body];
        format!(
            r#"{{"id":{id},"query":{},"bounds":{}}}"#,
            self.queries[body.query], body.bounds
        )
    }

    /// Line `i` of the request file.
    pub fn line(&self, i: usize) -> String {
        self.render(i, self.order[i])
    }

    /// The exact-forcing twin of query `query`, with id `id`.
    pub fn exact_line(&self, id: usize, query: usize) -> String {
        format!(
            r#"{{"id":{id},"query":{},"bounds":{EXACT_BOUNDS}}}"#,
            self.queries[query]
        )
    }

    /// Write the request file; returns the FNV-1a hash of its bytes.
    pub fn write(&self, path: &Path) -> std::io::Result<u64> {
        let mut text = String::new();
        for i in 0..self.order.len() {
            let _ = writeln!(text, "{}", self.line(i));
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        Ok(fnv1a(text.as_bytes()))
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Selectivity ranges of one workload's predicates, as fractions of the
/// `ra` (360°) and `dec` (180°) domains. `dec`, like `ra`, is uniform in the
/// synthetic sky, so a range's width is its selectivity.
struct Shapes {
    /// `between` on one column: width as a share of the domain.
    single: (f64, f64),
    /// Each side of an `and` of a `ra` range and a `dec` range.
    pair: (f64, f64),
    /// Aggregates to rotate through.
    kinds: &'static [&'static str],
}

/// Narrow predicates: 2–45 % of the table, any aggregate. At a 0.2 relative
/// error every one of them is answered from the 20k layer.
const NARROW: Shapes = Shapes {
    single: (0.05, 0.45),
    pair: (0.15, 0.6),
    kinds: &["count", "sum", "avg"],
};

/// Wide COUNT/SUM predicates matching 26–58 % of the table: at a 0.01
/// relative error the 20k layer is too coarse (it needs ≥ 66 %) and the
/// 200k layer suffices (it needs ≥ 16 %), so each escalates exactly once.
const WIDE: Shapes = Shapes {
    single: (0.26, 0.58),
    pair: (0.52, 0.75),
    kinds: &["count", "sum"],
};

/// A range on `column` as wide as `share` of its domain, at a random place;
/// sent as `lt` from the domain's lower edge when `as_lt`, so the comparison
/// kernels run beside the range kernels.
fn range_on(rng: &mut Rng, column: &str, share: f64, as_lt: bool) -> String {
    let (origin, extent) = if column == "ra" {
        (0.0, 360.0)
    } else {
        (-90.0, 180.0)
    };
    let round = |x: f64| (x * 100.0).round() / 100.0;
    let width = round(share * extent);
    if as_lt {
        let value = round(origin + width);
        format!(r#"{{"op":"lt","column":"{column}","value":{value}}}"#)
    } else {
        let low = rng.between(origin, origin + extent - width);
        let high = round(low + width);
        format!(r#"{{"op":"between","column":"{column}","low":{low},"high":{high}}}"#)
    }
}

/// `n` distinct queries whose cost mix is the same for every seed: the
/// aggregate kind, the predicate form and `lt`-vs-`between` go round-robin,
/// and the widths are stratified over their range (one query per `1/n`-wide
/// stratum, in seeded order). The seed moves where each range lies and which
/// width meets which form, not how much work the file holds — otherwise
/// latency medians would differ from seed to seed by more than from run to run.
fn distinct_queries(rng: &mut Rng, shapes: &Shapes, n: usize) -> Vec<String> {
    let strata = |rng: &mut Rng| -> Vec<f64> {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        order
            .into_iter()
            .map(|k| (k as f64 + rng.unit()) / n as f64)
            .collect()
    };
    let (first, second) = (strata(rng), strata(rng));
    let within = |range: (f64, f64), at: f64| range.0 + at * (range.1 - range.0);
    let kinds = shapes.kinds.len();
    (0..n)
        .map(|i| {
            let kind = shapes.kinds[i % kinds];
            let as_lt = (i / (kinds * 3)).is_multiple_of(3);
            let predicate = match (i / kinds) % 3 {
                0 => range_on(rng, "ra", within(shapes.single, first[i]), as_lt),
                1 => range_on(rng, "dec", within(shapes.single, first[i]), as_lt),
                _ => format!(
                    r#"{{"op":"and","args":[{},{}]}}"#,
                    range_on(rng, "ra", within(shapes.pair, first[i]), false),
                    range_on(rng, "dec", within(shapes.pair, second[i]), as_lt)
                ),
            };
            let column = if kind == "count" {
                ""
            } else {
                r#","column":"r_mag""#
            };
            format!(r#"{{"table":"photoobj","kind":"{kind}"{column},"predicate":{predicate}}}"#)
        })
        .collect()
}

/// Repeated seeded shuffles of `0..n`, `lines` long: every body appears
/// once per rotation.
fn rotations(rng: &mut Rng, n: usize, lines: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(lines + n);
    let mut rotation: Vec<usize> = (0..n).collect();
    while order.len() < lines {
        rng.shuffle(&mut rotation);
        order.extend_from_slice(&rotation);
    }
    order.truncate(lines);
    order
}

/// `n` distinct queries, all sent with `bounds`, in seeded rotations.
fn rotating(rng: &mut Rng, shapes: &Shapes, n: usize, bounds: &str, lines: usize) -> Requests {
    let queries = distinct_queries(rng, shapes, n);
    let bodies = (0..n)
        .map(|query| Body {
            query,
            bounds: bounds.to_owned(),
        })
        .collect();
    Requests {
        queries,
        bodies,
        order: rotations(rng, n, lines),
    }
}

/// Hot-set size, block length and block count of `shared.mixed`: 8 queries
/// are hot for 128 lines, then the next 8; 32 sets make 256 distinct queries
/// so `ci_coverage` is not an eighth-grained number.
const HOT_SET: usize = 8;
const HOT_BLOCK: usize = 128;
const HOT_SETS: usize = 32;

/// Generate a workload's request file from a seed.
pub fn generate(workload: &Workload, seed: u64) -> Requests {
    // Each workload draws from its own stream, so adding a workload never
    // shifts another's requests.
    let mut rng = Rng::new(seed ^ fnv1a(workload.name.as_bytes()));
    match workload.name {
        "wire.small" => rotating(
            &mut rng,
            &NARROW,
            512,
            r#"{"max_relative_error":0.2}"#,
            workload.lines,
        ),
        "scan.exact" => rotating(
            &mut rng,
            &NARROW,
            128,
            r#"{"max_relative_error":0.0005}"#,
            workload.lines,
        ),
        "shared.mixed" => {
            let queries = distinct_queries(&mut rng, &WIDE, HOT_SET * HOT_SETS);
            // Body 2q is query q priced at the 200k layer (its row bound
            // excludes the base table); body 2q+1 has no row bound, so
            // admission prices it at the whole 2M-row budget and it queues
            // behind whatever is in flight.
            let bodies = (0..queries.len())
                .flat_map(|query| {
                    [
                        r#"{"max_relative_error":0.01,"max_rows_scanned":250000,"time_budget_ms":100}"#,
                        r#"{"max_relative_error":0.01,"time_budget_ms":100}"#,
                    ]
                    .map(|bounds| Body {
                        query,
                        bounds: bounds.to_owned(),
                    })
                })
                .collect();
            let order = (0..workload.lines)
                .map(|line| {
                    let set = (line / HOT_BLOCK) % HOT_SETS;
                    let query = set * HOT_SET + rng.below(HOT_SET);
                    2 * query + usize::from(line % 8 == 7)
                })
                .collect();
            Requests {
                queries,
                bodies,
                order,
            }
        }
        // Row-bounded only: the table grows past the 2M budget with the
        // first load, and an unbounded query would then be downgraded.
        "ingest.paced" => rotating(
            &mut rng,
            &WIDE,
            128,
            r#"{"max_relative_error":0.01,"max_rows_scanned":250000,"time_budget_ms":100}"#,
            workload.lines,
        ),
        other => unreachable!("no generator for workload {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciborq_serve::protocol::{parse_request, Request};

    #[test]
    fn same_seed_same_bytes_and_other_seed_other_bytes() {
        let dir = std::env::temp_dir().join(format!("sciborq-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for w in &WORKLOADS {
            let a = generate(w, 1);
            let b = generate(w, 1);
            assert_eq!(a, b, "{}", w.name);
            let path = dir.join(format!("{}.jsonl", w.name));
            let first = a.write(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(first, fnv1a(&bytes));
            assert_eq!(first, b.write(&path).unwrap());
            assert_eq!(bytes, std::fs::read(&path).unwrap());
            assert_ne!(first, generate(w, 2).write(&path).unwrap(), "{}", w.name);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_line_is_a_valid_request_with_its_index_as_id() {
        for w in &WORKLOADS {
            let reqs = generate(w, 7);
            assert_eq!(reqs.order.len(), w.lines);
            for i in (0..reqs.order.len()).step_by(97) {
                let Request::Query { id, .. } = parse_request(&reqs.line(i)).unwrap() else {
                    panic!("{}: line {i} is not a query", w.name);
                };
                assert_eq!(id.as_f64(), Some(i as f64));
            }
            for q in 0..reqs.queries.len() {
                parse_request(&reqs.exact_line(q, q)).unwrap();
            }
        }
    }

    #[test]
    fn shared_mixed_keeps_a_small_hot_set_per_block() {
        let w = workload("shared.mixed").unwrap();
        let reqs = generate(w, 3);
        for block in reqs.order.chunks(HOT_BLOCK).take(40) {
            let mut hot: Vec<usize> = block.iter().map(|b| reqs.bodies[*b].query).collect();
            hot.sort_unstable();
            hot.dedup();
            assert!(hot.len() <= HOT_SET);
        }
        let unbounded = reqs.order.iter().filter(|b| *b % 2 == 1).count();
        assert_eq!(unbounded, w.lines / 8);
    }

    #[test]
    fn rng_stream_is_pinned() {
        // The request files are only comparable across commits while this
        // stream stays put.
        let mut rng = Rng::new(1);
        assert_eq!(rng.next_u64(), 0x910A_2DEC_8902_5CC1);
        assert_eq!(fnv1a(b"wire.small"), fnv1a(b"wire.small"));
        assert_ne!(fnv1a(b"wire.small"), fnv1a(b"scan.exact"));
    }
}
