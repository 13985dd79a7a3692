//! `sciborq-analyzer`: a dependency-free static checker for the
//! repo-specific invariants `rustc` and clippy cannot see.
//!
//! The binary walks `crates/*/src` (plus `crates/*/tests` for the
//! kernel-parity cross-reference), builds a token-level model of each
//! file, and runs four lint passes:
//!
//! | lint | invariant |
//! |------|-----------|
//! | `lock_order` | lock acquisition order is acyclic; no waiting on a condvar while holding a second lock |
//! | `bounds_honesty` | `*_bound_met` flags are measured, never literal `true`/`false` |
//! | `kernel_parity` | every public scan kernel is referenced by an equivalence test or the bench oracle |
//! | `fault_discipline` | `fault_point!` sites are cfg-gated; every `catch_unwind` leaves a telemetry trace |
//!
//! Two invariants the toolchain can check are left to it. The hot-path and
//! serving modules deny clippy's `unwrap_used`, `expect_used`, `panic`,
//! `unreachable`, `todo`, `unimplemented` and (outside the kernels)
//! `indexing_slicing` lints; the root `clippy.toml` exempts tests. And
//! `chainable_builders_cover_every_knob` in `crates/core/src/config.rs`
//! does not compile, or fails, until every `SciborqConfig` field is set
//! through its builder and has a README row.
//!
//! Findings can be suppressed inline with a comment of the form
//! `analyzer:allow(<lint>, reason = "...")` directly after `//` — the
//! reason is mandatory, the suppression covers its own line plus the next,
//! and the `-file` variant covers the whole file. Suppressions that never
//! fire are themselves reported (`unused_suppression`).

pub mod diag;
pub mod lexer;
pub mod lints;
pub mod model;

use diag::{Diagnostic, Severity};
use model::FileModel;
use std::io;
use std::path::Path;

/// Everything one analyzer run looks at. `files` are
/// `(workspace-relative path, contents)` pairs; lint scoping keys off the
/// paths, so fixture tests can opt into a lint by choosing the path.
#[derive(Debug, Default)]
pub struct AnalyzerInput {
    pub files: Vec<(String, String)>,
}

/// Run every lint pass over `input` and return the surviving diagnostics,
/// sorted by file and line. Suppressions are applied here; unused ones
/// come back as `unused_suppression` warnings.
pub fn analyze(input: &AnalyzerInput) -> Vec<Diagnostic> {
    let mut models: Vec<FileModel> = Vec::new();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for (path, src) in &input.files {
        let (m, d) = FileModel::build(path, src);
        models.push(m);
        // Malformed-suppression diagnostics bypass suppression filtering:
        // a broken allow must never mute itself.
        diags.extend(d);
    }

    let mut raw: Vec<Diagnostic> = Vec::new();
    raw.extend(lints::lock_order::run(&models));
    raw.extend(lints::bounds::run(&models));
    raw.extend(lints::kernel_parity::run(&models));
    raw.extend(lints::fault_discipline::run(&models));

    for d in raw {
        let suppressed = models
            .iter_mut()
            .find(|m| m.path == d.file)
            .is_some_and(|m| m.suppress(d.lint, d.line));
        if !suppressed {
            diags.push(d);
        }
    }

    for m in &models {
        for a in &m.allows {
            if !a.used {
                diags.push(Diagnostic::warning(
                    &m.path,
                    a.line,
                    "unused_suppression",
                    format!(
                        "suppression of `{}` never matched a diagnostic; remove it",
                        a.lint
                    ),
                ));
            }
        }
    }

    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    diags
}

/// Load the workspace rooted at `root`: every `.rs` file under
/// `crates/*/src` and `crates/*/tests`. The analyzer crate itself is
/// excluded — its fixture tests embed deliberately-broken
/// snippets (and suppression examples) that must not be mistaken for
/// workspace code.
pub fn load_workspace(root: &Path) -> io::Result<AnalyzerInput> {
    let mut files: Vec<(String, String)> = Vec::new();
    let crates = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        if dir.file_name().is_some_and(|n| n == "analyzer") {
            continue;
        }
        for sub in ["src", "tests"] {
            let base = dir.join(sub);
            if base.is_dir() {
                collect_rs(root, &base, &mut files)?;
            }
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(AnalyzerInput { files })
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Exit status for a diagnostic set under the given `--deny` policy.
pub fn exit_code(diags: &[Diagnostic], deny_warnings: bool) -> i32 {
    if diags.iter().any(|d| d.severity == Severity::Error) {
        2
    } else if deny_warnings && !diags.is_empty() {
        1
    } else {
        0
    }
}
