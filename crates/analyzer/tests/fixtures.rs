//! Fixture-based lint tests: every lint has at least one case where it
//! fires, one where compliant code passes, and one where a finding is
//! suppressed with a reasoned `allow`. Fixtures are fed straight to
//! [`analyze`] with synthetic workspace-relative paths — lint scoping keys
//! off the path, so a fixture opts into a lint by choosing it.
//!
//! This file itself is never scanned (the analyzer excludes its own crate
//! precisely because these fixtures embed deliberate violations and
//! example suppressions), so markers may appear here literally.

use sciborq_analyzer::diag::{Diagnostic, Severity};
use sciborq_analyzer::{analyze, exit_code, AnalyzerInput};

fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let input = AnalyzerInput {
        files: files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect(),
    };
    analyze(&input)
}

fn lint_count(diags: &[Diagnostic], lint: &str) -> usize {
    diags.iter().filter(|d| d.lint == lint).count()
}

// ---------------------------------------------------------------------------
// bounds_honesty
// ---------------------------------------------------------------------------

#[test]
fn bounds_honesty_fires_on_literal_flag() {
    let src = r#"
fn answer() -> Answer {
    Answer { error_bound_met: true, time_bound_met = false }
}
"#;
    let diags = run(&[("crates/core/src/engine.rs", src)]);
    assert_eq!(lint_count(&diags, "bounds_honesty"), 2, "{diags:?}");
    assert_eq!(exit_code(&diags, false), 2);
}

#[test]
fn bounds_honesty_passes_measured_flag_and_tests() {
    let src = r#"
fn answer(met: bool) -> Answer {
    Answer { error_bound_met: met, time_bound_met: time_ok() }
}
#[test]
fn literals_in_tests_are_fine() {
    let expected = Answer { error_bound_met: true };
}
"#;
    let diags = run(&[("crates/core/src/engine.rs", src)]);
    assert_eq!(lint_count(&diags, "bounds_honesty"), 0, "{diags:?}");
}

#[test]
fn bounds_honesty_suppressed_with_reason() {
    let src = r#"
fn answer() -> Answer {
    // analyzer:allow(bounds_honesty, reason = "base data is exact")
    Answer { error_bound_met: true }
}
"#;
    let diags = run(&[("crates/core/src/engine.rs", src)]);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(exit_code(&diags, false), 0);
}

// ---------------------------------------------------------------------------
// kernel_parity
// ---------------------------------------------------------------------------

#[test]
fn kernel_parity_fires_on_untested_kernel() {
    let src = "pub fn mask_novel(values: &[i64]) -> usize { values.len() }";
    let diags = run(&[("crates/columnar/src/kernels.rs", src)]);
    assert_eq!(lint_count(&diags, "kernel_parity"), 1, "{diags:?}");
}

#[test]
fn kernel_parity_passes_when_test_references_kernel() {
    let kernel = "pub fn mask_novel(values: &[i64]) -> usize { values.len() }
pub fn scan_weighted_sum(values: &[f64]) -> f64 { 0.0 }";
    let test = "fn drives_both() { mask_novel(&[]); scan_weighted_sum(&[]); }";
    let diags = run(&[
        ("crates/columnar/src/kernels.rs", kernel),
        ("crates/columnar/tests/equivalence.rs", test),
    ]);
    assert_eq!(lint_count(&diags, "kernel_parity"), 0, "{diags:?}");

    // The bench oracle counts as a reference too.
    let diags = run(&[
        ("crates/columnar/src/kernels.rs", kernel),
        ("crates/bench/src/oracle.rs", test),
    ]);
    assert_eq!(lint_count(&diags, "kernel_parity"), 0, "{diags:?}");
}

#[test]
fn kernel_parity_ignores_private_and_non_kernel_fns() {
    let src = "fn mask_private(values: &[i64]) -> usize { values.len() }
pub fn plain_helper(values: &[i64]) -> usize { values.len() }";
    let diags = run(&[("crates/columnar/src/kernels.rs", src)]);
    assert_eq!(lint_count(&diags, "kernel_parity"), 0, "{diags:?}");
}

#[test]
fn kernel_parity_suppressed_with_reason() {
    let src = r#"
// analyzer:allow(kernel_parity, reason = "exercised indirectly through multi_scan")
pub fn mask_novel(values: &[i64]) -> usize { values.len() }
"#;
    let diags = run(&[("crates/columnar/src/kernels.rs", src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// fault_discipline
// ---------------------------------------------------------------------------

#[test]
fn fault_discipline_fires_on_ungated_fault_point() {
    let src = r#"
fn evaluate(&self) {
    sciborq_telemetry::fault_point!("engine.level");
}
"#;
    let diags = run(&[("crates/core/src/engine.rs", src)]);
    assert_eq!(lint_count(&diags, "fault_discipline"), 1, "{diags:?}");
    assert_eq!(exit_code(&diags, false), 2);
}

#[test]
fn fault_discipline_passes_gated_fault_point_and_telemetry_home() {
    let gated = r#"
fn evaluate(&self) {
    #[cfg(feature = "fault-injection")]
    sciborq_telemetry::fault_point!("engine.level");
}
"#;
    // The telemetry crate defines the macro; its own sites are exempt.
    let home = r#"
pub fn fire(site: &str) {
    fault_point!("anything");
}
"#;
    let diags = run(&[
        ("crates/core/src/engine.rs", gated),
        ("crates/telemetry/src/faults.rs", home),
    ]);
    assert_eq!(lint_count(&diags, "fault_discipline"), 0, "{diags:?}");
}

#[test]
fn fault_discipline_fires_on_uncounted_catch_unwind() {
    let src = r#"
fn isolate(&self) -> Result<()> {
    let attempt = catch_unwind(AssertUnwindSafe(|| self.work()));
    attempt.unwrap_or_else(|_| Err(Error::Internal))
}
"#;
    let diags = run(&[("crates/core/src/execution.rs", src)]);
    assert_eq!(lint_count(&diags, "fault_discipline"), 1, "{diags:?}");
}

#[test]
fn fault_discipline_passes_counted_catch_unwind_and_tests() {
    let src = r#"
fn isolate(&self) -> Result<()> {
    let attempt = catch_unwind(AssertUnwindSafe(|| self.work()));
    if attempt.is_err() {
        self.record_fault("scan.shard", FaultEventKind::Recovery);
    }
    Ok(())
}
fn watchdog(&self) {
    match catch_unwind(AssertUnwindSafe(|| run())) {
        Ok(()) => {}
        Err(_) => self.metrics.scheduler_restarts.inc(),
    }
}
#[test]
fn tests_may_catch_freely() {
    let _ = catch_unwind(|| panic!("boom"));
}
"#;
    let diags = run(&[("crates/core/src/execution.rs", src)]);
    assert_eq!(lint_count(&diags, "fault_discipline"), 0, "{diags:?}");
}

#[test]
fn fault_discipline_suppressed_with_reason() {
    let src = r#"
fn isolate(&self) -> Result<()> {
    // analyzer:allow(fault_discipline, reason = "counted by the caller")
    let attempt = catch_unwind(AssertUnwindSafe(|| self.work()));
    attempt.unwrap_or_else(|_| Err(Error::Internal))
}
"#;
    let diags = run(&[("crates/core/src/execution.rs", src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// lock_order
// ---------------------------------------------------------------------------

const TWO_LOCKS: &str = r#"
use std::sync::Mutex;
pub struct S {
    a: Mutex<u32>,
    b: Mutex<u32>,
}
"#;

#[test]
fn lock_order_fires_on_inverted_acquisition() {
    let src = format!(
        "{TWO_LOCKS}
impl S {{
    pub fn forward(&self) {{
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        drop(gb);
        drop(ga);
    }}
    pub fn backward(&self) {{
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
        drop(ga);
        drop(gb);
    }}
}}
"
    );
    let diags = run(&[("crates/core/src/session.rs", &src)]);
    assert!(lint_count(&diags, "lock_order") >= 1, "{diags:?}");
    assert_eq!(exit_code(&diags, false), 2);
}

#[test]
fn lock_order_fires_through_a_call_chain() {
    let src = format!(
        "{TWO_LOCKS}
impl S {{
    pub fn forward(&self) {{
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
    }}
    fn inner(&self) {{
        let ga = self.a.lock().unwrap();
    }}
    pub fn backward(&self) {{
        let gb = self.b.lock().unwrap();
        self.inner();
    }}
}}
"
    );
    let diags = run(&[("crates/core/src/session.rs", &src)]);
    assert!(lint_count(&diags, "lock_order") >= 1, "{diags:?}");
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("via call")),
        "expected an inter-procedural edge in {msgs:?}"
    );
}

#[test]
fn lock_order_passes_consistent_order_and_scoped_guards() {
    let src = format!(
        "{TWO_LOCKS}
impl S {{
    pub fn forward(&self) {{
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
    }}
    pub fn also_forward(&self) {{
        {{
            let ga = self.a.lock().unwrap();
        }}
        // `ga` was dropped with its block: no a->b edge from here...
        let gb = self.b.lock().unwrap();
    }}
    pub fn b_alone(&self) {{
        // ...and a temp guard dies at the statement end.
        *self.b.lock().unwrap() += 1;
        let ga = self.a.lock().unwrap();
    }}
}}
"
    );
    let diags = run(&[("crates/core/src/session.rs", &src)]);
    assert_eq!(lint_count(&diags, "lock_order"), 0, "{diags:?}");
}

#[test]
fn lock_order_fires_on_condvar_wait_while_holding_another_lock() {
    let src = r#"
use std::sync::{Condvar, Mutex};
pub struct S {
    a: Mutex<u32>,
    queue: Mutex<u32>,
    ready: Condvar,
}
impl S {
    pub fn bad_wait(&self) {
        let ga = self.a.lock().unwrap();
        let mut q = self.queue.lock().unwrap();
        q = self.ready.wait(q).unwrap();
    }
}
"#;
    let diags = run(&[("crates/serve/src/server.rs", src)]);
    assert!(lint_count(&diags, "lock_order") >= 1, "{diags:?}");
    assert!(
        diags.iter().any(|d| d.message.contains("wait")),
        "{diags:?}"
    );
}

#[test]
fn lock_order_passes_leaf_lock_condvar_wait() {
    let src = r#"
use std::sync::{Condvar, Mutex};
pub struct S {
    queue: Mutex<u32>,
    ready: Condvar,
}
impl S {
    pub fn good_wait(&self) {
        let mut q = self.queue.lock().unwrap();
        q = self.ready.wait(q).unwrap();
    }
}
"#;
    let diags = run(&[("crates/serve/src/server.rs", src)]);
    assert_eq!(lint_count(&diags, "lock_order"), 0, "{diags:?}");
}

#[test]
fn lock_order_suppressed_with_file_level_reason() {
    let src = format!(
        "// analyzer:allow-file(lock_order, reason = \"fixture: both orders are behind a mode flag and never race\")
{TWO_LOCKS}
impl S {{
    pub fn forward(&self) {{
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
    }}
    pub fn backward(&self) {{
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
    }}
}}
"
    );
    let diags = run(&[("crates/core/src/session.rs", &src)]);
    assert_eq!(lint_count(&diags, "lock_order"), 0, "{diags:?}");
    assert_eq!(exit_code(&diags, false), 0);
}

// ---------------------------------------------------------------------------
// suppression machinery
// ---------------------------------------------------------------------------

#[test]
fn suppression_without_reason_is_an_error() {
    let src = r#"
fn answer() -> Answer {
    // analyzer:allow(bounds_honesty)
    Answer { error_bound_met: true }
}
"#;
    let diags = run(&[("crates/core/src/engine.rs", src)]);
    assert!(lint_count(&diags, "suppression") >= 1, "{diags:?}");
    // The malformed allow must not suppress the underlying finding.
    assert_eq!(lint_count(&diags, "bounds_honesty"), 1, "{diags:?}");
}

#[test]
fn suppression_of_unknown_lint_is_an_error() {
    let src = r#"
// analyzer:allow(made_up_lint, reason = "no such pass")
fn f() {}
"#;
    let diags = run(&[("crates/core/src/engine.rs", src)]);
    assert_eq!(lint_count(&diags, "suppression"), 1, "{diags:?}");
}

#[test]
fn unused_suppression_is_a_warning() {
    let src = r#"
// analyzer:allow(bounds_honesty, reason = "nothing here ever fires")
fn f() {}
"#;
    let diags = run(&[("crates/core/src/engine.rs", src)]);
    assert_eq!(lint_count(&diags, "unused_suppression"), 1, "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    // Warnings gate only under --deny warnings.
    assert_eq!(exit_code(&diags, false), 0);
    assert_eq!(exit_code(&diags, true), 1);
}

#[test]
fn diagnostics_carry_file_and_line() {
    let src = "\nfn answer() -> Answer {\n    Answer { error_bound_met: true }\n}\n";
    let diags = run(&[("crates/core/src/engine.rs", src)]);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].file, "crates/core/src/engine.rs");
    assert_eq!(diags[0].line, 3);
    let rendered = diags[0].to_string();
    assert!(
        rendered.contains("crates/core/src/engine.rs:3") && rendered.contains("bounds_honesty"),
        "{rendered}"
    );
}
