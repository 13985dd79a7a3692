//! `sciborq-benchmark`: the repo benchmark's driver (see `benchmark/README.md`).
//!
//! ```text
//! sciborq-benchmark --server-bin PATH [--out DIR] [--seed N] [--workload NAME]
//!                   [--seconds S] [--trace 0|1] [--check-repeat]
//! ```
//!
//! Without `--trace` it runs the suite: for each workload the correctness
//! gate, the untraced repeats and the traced pass, printing every metric.
//! With `--trace 0|1` it runs one pass of one workload and ends its output
//! with the one-line JSON result the benchmark contract asks for.

mod answer;
mod data;
mod gen;
mod local;
mod report;
mod spans;
mod stats;
mod suite;
mod wire;

use gen::{Workload, WORKLOADS};
use report::{Outcome, END_TO_END, LOADER, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use suite::Ctx;

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Options {
    ctx: Ctx,
    workloads: Vec<&'static Workload>,
    trace: Option<bool>,
    check_repeat: bool,
}

fn parse_options() -> Result<Options, String> {
    let mut server_bin = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut workloads: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let mut trace = None;
    let mut check_repeat = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("flag {flag} needs a value"));
        match flag.as_str() {
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--out" => out_dir = PathBuf::from(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err("--seconds must lie in 1..=600".to_owned());
                }
            }
            "--workload" => {
                let name = value()?;
                workloads = vec![gen::workload(&name).ok_or(format!(
                    "unknown workload '{name}' (known: {})",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?];
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--check-repeat" => check_repeat = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if trace.is_some() && workloads.len() != 1 {
        return Err("--trace needs --workload".to_owned());
    }
    Ok(Options {
        ctx: Ctx {
            server_bin: server_bin.ok_or("--server-bin PATH is required")?,
            out_dir,
            seed,
            seconds,
        },
        workloads,
        trace,
        check_repeat,
    })
}

fn passed(outcome: &Outcome) -> bool {
    outcome.correct && outcome.failed == 0
}

/// The suite: gate, untraced repeats and traced pass for each workload.
fn run_suite(opts: &Options) -> Result<bool, String> {
    let mut all_passed = true;
    for w in &opts.workloads {
        for traced in [false, true] {
            let outcome = suite::run(&opts.ctx, w, traced)?;
            outcome.print();
            all_passed &= passed(&outcome);
        }
    }
    Ok(all_passed)
}

/// Run the untraced suite twice on this build; every gated metric's two
/// medians must agree within its bound, and what is exact must be equal.
fn check_repeat(opts: &Options) -> Result<bool, String> {
    let mut failures = Vec::new();
    for w in &opts.workloads {
        let first = suite::run(&opts.ctx, w, false)?;
        first.print();
        let second = suite::run(&opts.ctx, w, false)?;
        second.print();
        let gated: Vec<_> = END_TO_END.iter().chain(&LOADER).copied().collect();
        failures.extend(report::compare(&gated, &first, &second));
        for exact in ["ci_coverage", "bounds_met_share"] {
            let (a, b) = (first.get(exact), second.get(exact));
            if a.map(|m| m.median().to_bits()) != b.map(|m| m.median().to_bits()) {
                failures.push(format!("{}: {exact} differs between the two runs", w.name));
            }
        }
        if first.hashes != second.hashes {
            failures.push(format!("{}: request or answer hashes differ", w.name));
        }
        if !(passed(&first) && passed(&second)) {
            failures.push(format!("{}: a run was incorrect or had failures", w.name));
        }
    }
    for failure in &failures {
        println!("repeat check FAILED — {failure}");
    }
    if failures.is_empty() {
        println!("\nrepeat check passed: every gated metric agrees within its bound");
    }
    Ok(failures.is_empty())
}

fn main() -> ExitCode {
    let opts = match parse_options() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("sciborq-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.ctx.out_dir) {
        eprintln!("cannot create {}: {e}", opts.ctx.out_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "sciborq-benchmark: seed {} (seed 2 is the hold-out), {} s per run, {} cores, server {}",
        opts.ctx.seed,
        opts.ctx.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
        opts.ctx.server_bin.display()
    );
    let result = match opts.trace {
        Some(traced) => suite::run(&opts.ctx, opts.workloads[0], traced).map(|outcome| {
            outcome.print();
            let defs: &[_] = if traced { &PER_LAYER } else { &END_TO_END };
            println!("{}", outcome.result_line(defs));
            // the result line carries `correct` and `failed`; the run itself worked
            true
        }),
        None if opts.check_repeat => check_repeat(&opts),
        None => run_suite(&opts),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sciborq-benchmark: {message}");
            ExitCode::from(1)
        }
    }
}
