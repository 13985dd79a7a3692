//! Kernel-parity lint: every public scan entry point in the columnar
//! crate must be exercised by an equivalence test (under
//! `crates/columnar/tests/`) or the bench oracle cross-check
//! (`crates/bench/src/`). The proptest/oracle contract has repeatedly
//! caught real bugs in chunked and partitioned kernels; a kernel nobody
//! cross-checks is a kernel whose bit-parity with the scalar oracle can
//! silently rot.

use crate::diag::Diagnostic;
use crate::model::FileModel;
use std::collections::HashSet;

/// Names that count as scan entry points. `contains("_weighted")` rather
/// than a suffix match because a weighted kernel may put the marker
/// mid-name (`scan_weighted_sum`).
fn is_kernel_name(name: &str) -> bool {
    name.starts_with("mask_")
        || name.ends_with("_partitioned")
        || name.contains("_weighted")
        || name == "multi_scan"
}

/// True when the `fn` keyword at token index `fn_idx` belongs to a `pub`
/// item (`pub fn`, `pub(crate) fn`, ...).
fn is_pub_fn(m: &FileModel, fn_idx: usize) -> bool {
    let mut k = fn_idx;
    let mut steps = 0usize;
    while k > 0 && steps < 6 {
        k -= 1;
        steps += 1;
        let t = &m.toks[k];
        if t.is_ident("pub") {
            return true;
        }
        // Visibility qualifiers `(crate)` / `(super)` sit between `pub`
        // and `fn`; anything else ends the item prefix.
        let qualifier = t.is_punct('(')
            || t.is_punct(')')
            || t.is_ident("crate")
            || t.is_ident("super")
            || t.is_ident("unsafe")
            || t.is_ident("const");
        if !qualifier {
            return false;
        }
    }
    false
}

pub fn run(models: &[FileModel]) -> Vec<Diagnostic> {
    // Every identifier mentioned by the test suites or the bench oracle.
    let mut referenced: HashSet<&str> = HashSet::new();
    for m in models {
        if m.path.starts_with("crates/columnar/tests/") || m.path.starts_with("crates/bench/src/") {
            referenced.extend(m.toks.iter().filter_map(|t| t.ident()));
        }
    }

    let mut diags = Vec::new();
    for m in models {
        if !m.path.starts_with("crates/columnar/src/") {
            continue;
        }
        let mut seen_in_file: HashSet<&str> = HashSet::new();
        for (i, t) in m.toks.iter().enumerate() {
            if !t.is_ident("fn") || m.is_test_line(t.line) {
                continue;
            }
            let Some(name) = m.toks.get(i + 1).and_then(|n| n.ident()) else {
                continue;
            };
            if !is_kernel_name(name) || !is_pub_fn(m, i) || !seen_in_file.insert(name) {
                continue;
            }
            if !referenced.contains(name) {
                diags.push(Diagnostic::error(
                    &m.path,
                    m.toks[i + 1].line,
                    "kernel_parity",
                    format!(
                        "public kernel `{name}` is not referenced by any equivalence test \
                         under crates/columnar/tests/ or the bench oracle"
                    ),
                ));
            }
        }
    }
    diags
}
