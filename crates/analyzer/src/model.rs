//! Per-file source model: tokens plus the line-level facts every lint
//! pass needs — which lines are test-only, where functions begin and end,
//! which struct fields are locks, and which suppression comments exist.

use crate::diag::{is_known_lint, Diagnostic};
use crate::lexer::{lex, Tok};

/// Lock-ish field kinds recognised by the lock-order pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
    Condvar,
}

/// A function item found in the token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Token-index range of the body `{ ... }` (inclusive of both braces),
    /// or `None` for bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// True when the function sits inside a `#[cfg(test)]`/`#[test]` span.
    pub in_test: bool,
}

/// One parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line the comment sits on.
    pub line: usize,
    /// Lint it suppresses.
    pub lint: String,
    /// `allow-file` form: applies to the whole file.
    pub file_level: bool,
    /// Set when a diagnostic was actually absorbed; unused suppressions
    /// are themselves reported.
    pub used: bool,
}

/// Everything the lints need to know about one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Token stream (comments and literal contents already stripped).
    pub toks: Vec<Tok>,
    /// `test_lines[line - 1]` is true when the line is inside a
    /// `#[cfg(test)]` module or `#[test]` function.
    pub test_lines: Vec<bool>,
    /// Function items, in source order.
    pub fns: Vec<FnSpan>,
    /// Suppression comments, in source order.
    pub allows: Vec<Allow>,
    /// `(field name, kind)` for every struct field of a lock type.
    pub lock_fields: Vec<(String, LockKind)>,
}

impl FileModel {
    /// Lex and index one file. Malformed suppression comments surface as
    /// diagnostics rather than panics.
    pub fn build(path: &str, src: &str) -> (FileModel, Vec<Diagnostic>) {
        let toks = lex(src);
        let test_lines = mark_test_lines(&toks, src.lines().count());
        let fns = collect_fns(&toks, &test_lines);
        let lock_fields = collect_lock_fields(&toks);
        let (allows, diags) = parse_allows(path, src);
        (
            FileModel {
                path: path.to_owned(),
                toks,
                test_lines,
                fns,
                allows,
                lock_fields,
            },
            diags,
        )
    }

    /// True when `line` (1-based) is inside a test-only region.
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= 1 && self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// Attempt to absorb a diagnostic for `lint` at `line`. A suppression
    /// covers its own line and the line directly below it; `allow-file`
    /// covers the whole file. Marks the matching suppression as used.
    pub fn suppress(&mut self, lint: &str, line: usize) -> bool {
        for a in &mut self.allows {
            if a.lint != lint {
                continue;
            }
            if a.file_level || a.line == line || a.line + 1 == line {
                a.used = true;
                return true;
            }
        }
        false
    }
}

/// Mark every line covered by a `#[test]` function or `#[cfg(test)]`
/// item (module, fn, impl) as test-only.
fn mark_test_lines(toks: &[Tok], line_count: usize) -> Vec<bool> {
    let mut test = vec![false; line_count];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_line = toks[i].line;
            // Walk the attribute, tracking bracket nesting.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut mentions_test = false;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                } else if toks[j].is_ident("test") {
                    mentions_test = true;
                }
                j += 1;
            }
            if mentions_test {
                // Find the annotated item's body: the first `{` before a
                // bare `;` ends the item.
                let mut k = j;
                let mut end_line = attr_line;
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        let close = match_brace(toks, k);
                        end_line = toks[close.min(toks.len() - 1)].line;
                        break;
                    }
                    if toks[k].is_punct(';') {
                        end_line = toks[k].line;
                        break;
                    }
                    k += 1;
                }
                for l in attr_line..=end_line.min(line_count) {
                    if l >= 1 {
                        test[l - 1] = true;
                    }
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    test
}

/// Given the index of an opening `{`, return the index of its matching
/// `}` (or the last token if unbalanced).
pub fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

fn collect_fns(toks: &[Tok], test_lines: &[bool]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                let line = toks[i].line;
                // Scan the signature for the body `{` or a declaration `;`.
                let mut k = i + 2;
                let mut body = None;
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        body = Some((k, match_brace(toks, k)));
                        break;
                    }
                    if toks[k].is_punct(';') {
                        break;
                    }
                    k += 1;
                }
                let in_test = line >= 1 && test_lines.get(line - 1).copied().unwrap_or(false);
                fns.push(FnSpan {
                    name: name.to_owned(),
                    line,
                    body,
                    in_test,
                });
                i = k;
                continue;
            }
        }
        i += 1;
    }
    fns
}

/// Parse struct definitions and record every field whose type mentions
/// `Mutex<`, `RwLock<` or `Condvar`. std and parking_lot spell these the
/// same, so no import resolution is needed.
fn collect_lock_fields(toks: &[Tok]) -> Vec<(String, LockKind)> {
    let mut out: Vec<(String, LockKind)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("struct") {
            i += 1;
            continue;
        }
        // Skip the name and generics; find the body `{`, or bail on tuple
        // (`(`) and unit (`;`) structs. `->` inside generic bounds must
        // not close an angle bracket.
        let mut j = i + 1;
        let mut angle = 0isize;
        let body_open = loop {
            let Some(t) = toks.get(j) else { break None };
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                if j > 0 && !toks[j - 1].is_punct('-') {
                    angle -= 1;
                }
            } else if angle == 0 {
                if t.is_punct('{') {
                    break Some(j);
                }
                if t.is_punct('(') || t.is_punct(';') {
                    break None;
                }
            }
            j += 1;
        };
        let Some(open) = body_open else {
            i = j.max(i + 1);
            continue;
        };
        let close = match_brace(toks, open);
        // Fields live at brace depth 1 within the struct body.
        let mut k = open + 1;
        while k < close {
            let is_field = toks[k].ident().is_some()
                && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && !toks[k].is_ident("pub");
            if is_field {
                let field = toks[k].ident().unwrap_or_default().to_owned();
                // Type region: until `,` at field level or the struct `}`.
                let mut t = k + 2;
                let mut depth = (0isize, 0isize, 0isize); // angle, paren, brace
                let mut kind: Option<LockKind> = None;
                while t < close {
                    let tok = &toks[t];
                    if tok.is_punct('<') {
                        depth.0 += 1;
                    } else if tok.is_punct('>') {
                        if !toks[t - 1].is_punct('-') {
                            depth.0 -= 1;
                        }
                    } else if tok.is_punct('(') {
                        depth.1 += 1;
                    } else if tok.is_punct(')') {
                        depth.1 -= 1;
                    } else if tok.is_punct('{') {
                        depth.2 += 1;
                    } else if tok.is_punct('}') {
                        depth.2 -= 1;
                    } else if tok.is_punct(',') && depth == (0, 0, 0) {
                        break;
                    } else if kind.is_none() {
                        if tok.is_ident("Mutex") && toks.get(t + 1).is_some_and(|n| n.is_punct('<'))
                        {
                            kind = Some(LockKind::Mutex);
                        } else if tok.is_ident("RwLock")
                            && toks.get(t + 1).is_some_and(|n| n.is_punct('<'))
                        {
                            kind = Some(LockKind::RwLock);
                        } else if tok.is_ident("Condvar") {
                            kind = Some(LockKind::Condvar);
                        }
                    }
                    t += 1;
                }
                if let Some(kind) = kind {
                    if !out.iter().any(|(f, _)| f == &field) {
                        out.push((field, kind));
                    }
                }
                k = t + 1;
            } else {
                k += 1;
            }
        }
        i = close + 1;
    }
    out
}

/// Parse `analyzer:allow` comments out of the raw source. The marker must
/// directly follow `//` (only whitespace between), so prose that merely
/// mentions the syntax in a doc comment (`///`, `//!`) never matches.
fn parse_allows(path: &str, src: &str) -> (Vec<Allow>, Vec<Diagnostic>) {
    // Built by concatenation so the analyzer can never match this line of
    // its own source.
    let needle: &str = concat!("analyzer:", "allow");
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = idx + 1;
        let Some(pos) = raw.find("//") else { continue };
        let after = raw[pos + 2..].trim_start();
        if !after.starts_with(needle) {
            continue;
        }
        let rest = &after[needle.len()..];
        let (file_level, rest) = match rest.strip_prefix("-file") {
            Some(r) => (true, r),
            None => (false, rest),
        };
        let malformed = |diags: &mut Vec<Diagnostic>| {
            diags.push(Diagnostic::error(
                path,
                line,
                "suppression",
                format!("malformed suppression: expected `// {needle}(<lint>, reason = \"...\")`"),
            ));
        };
        let Some(rest) = rest.trim_start().strip_prefix('(') else {
            malformed(&mut diags);
            continue;
        };
        let rest = rest.trim_start();
        let lint_len = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let lint = &rest[..lint_len];
        if lint.is_empty() {
            malformed(&mut diags);
            continue;
        }
        if !is_known_lint(lint) {
            diags.push(Diagnostic::error(
                path,
                line,
                "suppression",
                format!("unknown lint `{lint}` in suppression"),
            ));
            continue;
        }
        let rest = rest[lint_len..].trim_start();
        let Some(rest) = rest.strip_prefix(',') else {
            diags.push(Diagnostic::error(
                path,
                line,
                "suppression",
                format!("suppression of `{lint}` requires a reason: `reason = \"...\"`"),
            ));
            continue;
        };
        let rest = rest.trim_start();
        let reason_ok = rest
            .strip_prefix("reason")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('='))
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('"'))
            .and_then(|r| r.split_once('"'))
            .is_some_and(|(reason, tail)| {
                !reason.trim().is_empty() && tail.trim_start().starts_with(')')
            });
        if !reason_ok {
            diags.push(Diagnostic::error(
                path,
                line,
                "suppression",
                format!("suppression of `{lint}` requires a non-empty reason string"),
            ));
            continue;
        }
        allows.push(Allow {
            line,
            lint: lint.to_owned(),
            file_level,
            used: false,
        });
    }
    (allows, diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_modules() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn tail() {}\n";
        let (m, d) = FileModel::build("crates/x/src/a.rs", src);
        assert!(d.is_empty());
        assert!(!m.is_test_line(1));
        assert!(m.is_test_line(2));
        assert!(m.is_test_line(4));
        assert!(!m.is_test_line(6));
        let helper = m.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.in_test);
        assert!(!m.fns.iter().find(|f| f.name == "live").unwrap().in_test);
    }

    #[test]
    fn lock_fields_are_collected() {
        let src = "struct S {\n    pub queue: Mutex<Vec<u8>>,\n    map: RwLock<u32>,\n    cv: Condvar,\n    plain: usize,\n}\n";
        let (m, _) = FileModel::build("crates/x/src/a.rs", src);
        assert_eq!(
            m.lock_fields,
            vec![
                ("queue".to_owned(), LockKind::Mutex),
                ("map".to_owned(), LockKind::RwLock),
                ("cv".to_owned(), LockKind::Condvar),
            ]
        );
    }

    #[test]
    fn allow_requires_reason() {
        let marker = concat!("analyzer:", "allow");
        let good = format!("// {marker}(lock_order, reason = \"checked above\")\nx();\n");
        let (m, d) = FileModel::build("crates/x/src/a.rs", &good);
        assert!(d.is_empty());
        assert_eq!(m.allows.len(), 1);

        let bad = format!("// {marker}(lock_order)\nx();\n");
        let (_, d) = FileModel::build("crates/x/src/a.rs", &bad);
        assert_eq!(d.len(), 1, "missing reason must be a diagnostic");

        let unknown = format!("// {marker}(no_such_lint, reason = \"x\")\n");
        let (_, d) = FileModel::build("crates/x/src/a.rs", &unknown);
        assert!(d[0].message.contains("unknown lint"));
    }

    #[test]
    fn doc_comment_prose_does_not_match() {
        let marker = concat!("analyzer:", "allow");
        let src = format!("/// Use `// {marker}(lock_order, ...)` to suppress.\nfn f() {{}}\n");
        let (m, d) = FileModel::build("crates/x/src/a.rs", &src);
        assert!(d.is_empty());
        assert!(m.allows.is_empty());
    }

    #[test]
    fn suppress_covers_own_and_next_line() {
        let marker = concat!("analyzer:", "allow");
        let src = format!("// {marker}(bounds_honesty, reason = \"fine\")\nx();\n");
        let (mut m, _) = FileModel::build("crates/x/src/a.rs", &src);
        assert!(m.suppress("bounds_honesty", 2));
        assert!(!m.suppress("bounds_honesty", 4));
        assert!(!m.suppress("lock_order", 2));
        assert!(m.allows[0].used);
    }
}
