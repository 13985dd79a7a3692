//! Diagnostic types shared by every lint pass.

use std::fmt;

/// How severe a finding is. `--deny warnings` promotes warnings to a
/// non-zero exit; errors always fail the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported, fails only under `--deny warnings`.
    Warning,
    /// Invariant violation: always fails the run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding, anchored to a file and 1-based line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path, e.g. `crates/core/src/engine.rs`.
    pub file: String,
    /// 1-based line the finding anchors to (0 for whole-file findings).
    pub line: usize,
    /// Lint name, e.g. `lock_order`.
    pub lint: &'static str,
    /// Severity before any `--deny` promotion.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    pub fn error(
        file: impl Into<String>,
        line: usize,
        lint: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            file: file.into(),
            line,
            lint,
            severity: Severity::Error,
            message: message.into(),
        }
    }

    pub fn warning(
        file: impl Into<String>,
        line: usize,
        lint: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            file: file.into(),
            line,
            lint,
            severity: Severity::Warning,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: [{}] {}",
            self.severity, self.file, self.line, self.lint, self.message
        )
    }
}

/// The closed set of lint names. Suppression comments must name one of
/// these; anything else is itself a diagnostic.
pub const LINT_NAMES: &[&str] = &[
    "lock_order",
    "bounds_honesty",
    "kernel_parity",
    "fault_discipline",
    "suppression",
    "unused_suppression",
];

/// True when `name` is a recognised lint.
pub fn is_known_lint(name: &str) -> bool {
    LINT_NAMES.contains(&name)
}
