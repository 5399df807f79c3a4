//! The rule set (R4, R5, R6, R8) and the `lint:allow` suppression
//! machinery. R1, R2, R3, R7 and R9 are enforced by rustc and clippy
//! (see `docs/lint_rules.md`).
//!
//! All rules run on [`Masked`] text, so banned patterns inside comments
//! and string literals never fire. Region scoping comes from the
//! [`ItemTree`] built per file: code inside a `#[cfg(test)]` item (directly
//! attributed or inherited from an enclosing `mod`/`impl`) is skipped
//! by every rule, and R6 applies only inside function bodies annotated
//! `// lint:zero_alloc`.

use crate::items::ItemTree;
use crate::report::{Rule, Violation};
use crate::tokenizer::{is_ident_byte, Masked};
use crate::workspace::{CrateKind, CrateSpec, SourceFile};
use std::collections::BTreeMap;

/// R6 — allocation/heap patterns banned inside `// lint:zero_alloc`
/// function bodies. `Vec::with_capacity` is deliberately absent: the
/// sanctioned idiom is pre-reserving outside the hot loop.
const ALLOC_PATTERNS: &[(&str, bool)] = &[
    // (pattern, needs identifier boundary before first byte)
    ("Vec::new", true),
    ("vec!", true),
    ("Box::new", true),
    ("String::new", true),
    ("String::from", true),
    ("format!", true),
    (".push(", false),
    (".collect", false),
    (".to_string(", false),
    (".to_owned(", false),
    (".to_vec(", false),
    (".clone(", false),
];

/// A parsed `lint:allow(<rule>): <reason>` annotation.
#[derive(Debug, Clone)]
struct Allow {
    line: usize,
    rule: Rule,
    /// The line this annotation covers besides its own: for a
    /// standalone comment line, the first non-comment line after the
    /// comment block (so a multi-line reason keeps its coverage); for
    /// a trailing annotation, the annotation's own line.
    covers: usize,
    used: bool,
}

/// Scan state for one source file.
pub struct FileScan<'a> {
    masked: &'a Masked,
    /// The file's item tree (scopes for R6 and `#[cfg(test)]`).
    items: ItemTree,
    /// Byte ranges covered by `#[cfg(test)]` items, from the tree.
    test_regions: Vec<(usize, usize)>,
    allows: Vec<Allow>,
    /// Violations before suppression.
    candidates: Vec<(Rule, usize, String)>,
    /// Malformed annotations (never suppressible).
    syntax_errors: Vec<(usize, String)>,
}

impl<'a> FileScan<'a> {
    /// Prepare a scan: itemize the file and parse annotations.
    pub fn new(masked: &'a Masked) -> Self {
        let items = ItemTree::build(masked);
        let test_regions = items.test_regions();
        let mut scan = FileScan {
            masked,
            items,
            test_regions,
            allows: Vec::new(),
            candidates: Vec::new(),
            syntax_errors: Vec::new(),
        };
        scan.parse_allows();
        scan
    }

    fn parse_allows(&mut self) {
        // Blank lines in the masked text are comment-only (or empty)
        // in the original: comment bodies mask to spaces.
        let line_blank: Vec<bool> = self
            .masked
            .code
            .lines()
            .map(|l| l.trim().is_empty())
            .collect();
        for c in &self.masked.comments {
            // Doc comments (`///`, `//!`) are documentation, not
            // annotations — prose may mention the syntax freely.
            if c.text.starts_with('/') || c.text.starts_with('!') {
                continue;
            }
            let Some(pos) = c.text.find("lint:allow(") else {
                continue;
            };
            let rest = &c.text[pos + "lint:allow".len()..];
            let parsed = (|| {
                let rest = rest.strip_prefix('(')?;
                let close = rest.find(')')?;
                let rule = Rule::from_slug(rest[..close].trim())?;
                let after = rest[close + 1..].trim_start();
                let reason = after.strip_prefix(':')?.trim();
                (!reason.is_empty()).then_some(rule)
            })();
            let standalone = line_blank.get(c.line - 1).copied().unwrap_or(false);
            let covers = if standalone {
                // Skip the rest of the comment block (continuation
                // lines of the reason mask to blank) to the code line
                // the annotation covers.
                let mut idx = c.line; // 0-based index of the next line
                while line_blank.get(idx).copied().unwrap_or(false) {
                    idx += 1;
                }
                idx + 1
            } else {
                c.line
            };
            match parsed {
                Some(rule) => self.allows.push(Allow {
                    line: c.line,
                    rule,
                    covers,
                    used: false,
                }),
                None => self.syntax_errors.push((
                    c.line,
                    format!(
                        "malformed lint:allow annotation (expected \
                         `lint:allow(<rule>): <reason>` with a known rule \
                         and a non-empty reason): `//{}`",
                        c.text.trim_end()
                    ),
                )),
            }
        }
    }

    fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    fn push(&mut self, rule: Rule, offset: usize, message: String) {
        let line = self.masked.line_of(offset);
        self.candidates.push((rule, line, message));
    }

    /// R4 (collection half) — metric-name literals at obs call sites.
    /// Returns `(name, line)` pairs for the workspace-level reverse
    /// check; charset violations are recorded immediately.
    pub fn rule_obs_collect(&mut self) -> Vec<(String, usize)> {
        let code = &self.masked.code;
        let mut used = Vec::new();
        for pat in [".counter(", ".gauge(", ".histogram(", "labeled("] {
            for off in find_all(code, pat, pat == "labeled(") {
                if self.in_test_region(off) {
                    continue;
                }
                // Skip the definition site `pub fn labeled(`.
                if pat == "labeled(" && prev_word(code, off) == Some("fn") {
                    continue;
                }
                // First argument: skip whitespace and a leading `&`.
                let mut j = off + pat.len();
                let b = code.as_bytes();
                while j < b.len() && (b[j].is_ascii_whitespace() || b[j] == b'&') {
                    j += 1;
                }
                if j >= b.len() || b[j] != b'"' {
                    continue; // dynamic name (a variable or nested call)
                }
                let Some(lit) = self.masked.string_at(j) else {
                    continue;
                };
                let name = lit.value.clone();
                if !valid_metric_charset(&name) {
                    self.push(
                        Rule::ObsSchema,
                        off,
                        format!(
                            "metric name `{name}` violates the [a-z0-9_.] naming charset \
                             (see crates/obs/README.md)"
                        ),
                    );
                } else {
                    used.push((name, self.masked.line_of(off)));
                }
            }
        }
        used
    }

    /// R4 (collection half, spans) — span-name literals at tracer call
    /// sites (`.span("name")`). Span names share the metric charset;
    /// violations are recorded immediately, valid names are returned
    /// for the workspace-level cross-check against the README span
    /// table.
    pub fn rule_span_collect(&mut self) -> Vec<(String, usize)> {
        let code = &self.masked.code;
        let mut used = Vec::new();
        for off in find_all(code, ".span(", false) {
            if self.in_test_region(off) {
                continue;
            }
            // First argument must be a string literal; dynamic names
            // (e.g. the tracer's own `span(name)` plumbing) are skipped.
            let mut j = off + ".span(".len();
            let b = code.as_bytes();
            while j < b.len() && b[j].is_ascii_whitespace() {
                j += 1;
            }
            if j >= b.len() || b[j] != b'"' {
                continue;
            }
            let Some(lit) = self.masked.string_at(j) else {
                continue;
            };
            let name = lit.value.clone();
            if !valid_metric_charset(&name) {
                self.push(
                    Rule::ObsSchema,
                    off,
                    format!(
                        "span name `{name}` violates the [a-z0-9_.] naming charset \
                         (see crates/obs/README.md)"
                    ),
                );
            } else {
                used.push((name, self.masked.line_of(off)));
            }
        }
        used
    }

    /// R5 — public `Result` APIs must use a typed error.
    pub fn rule_error_hygiene(&mut self) {
        let code = &self.masked.code;
        for off in find_all(code, "pub fn ", true) {
            if self.in_test_region(off) {
                continue;
            }
            let Some(sig) = signature_at(code, off) else {
                continue;
            };
            let Some(ret) = return_type(&sig) else {
                continue;
            };
            if let Some(err_ty) = stringly_error(&ret) {
                self.push(
                    Rule::ErrorHygiene,
                    off,
                    format!(
                        "public API returns `Result<_, {err_ty}>`; use the crate's \
                         typed error so callers can match on failure modes"
                    ),
                );
            }
        }
    }

    /// R6 — allocation hygiene inside `// lint:zero_alloc` functions.
    pub fn rule_alloc_hygiene(&mut self) {
        let code = &self.masked.code;
        let mut hits = Vec::new();
        for ((bs, be), name) in self.items.zero_alloc_bodies() {
            for &(pat, boundary) in ALLOC_PATTERNS {
                for off in find_all(code, pat, boundary) {
                    if off < bs || off >= be {
                        continue;
                    }
                    let what = pat.trim_start_matches('.').trim_end_matches('(');
                    hits.push((
                        off,
                        format!(
                            "`{what}` allocates inside `// lint:zero_alloc` fn `{name}`; \
                             hoist the allocation out of the hot path, or \
                             lint:allow(alloc_hygiene) with capacity/ownership reasoning"
                        ),
                    ));
                }
            }
        }
        hits.sort_by_key(|&(off, _)| off);
        for (off, message) in hits {
            self.push(Rule::AllocHygiene, off, message);
        }
    }

    /// R8 — float ordering (workspace-wide): comparator chains must go
    /// through `total_cmp`, never `partial_cmp(..).unwrap()`.
    pub fn rule_float_order(&mut self) {
        let code = &self.masked.code;
        let bytes = code.as_bytes();
        // (a) `x.partial_cmp(y).unwrap()` / `.expect(...)`: panics on
        // NaN, and NaN-poisoned orderings are exactly what `total_cmp`
        // exists to rule out. The `fn partial_cmp` definition inside a
        // manual `PartialOrd` impl is not a call site.
        for off in find_all(code, "partial_cmp", true) {
            if self.in_test_region(off) || prev_word(code, off) == Some("fn") {
                continue;
            }
            let open = off + "partial_cmp".len();
            if open >= bytes.len() || bytes[open] != b'(' {
                continue; // a path/reference, not a call
            }
            let Some(close) = match_paren(code, open) else {
                continue;
            };
            let after = &code[close + 1..];
            if after.starts_with(".unwrap()") || after.starts_with(".expect(") {
                self.push(
                    Rule::FloatOrder,
                    off,
                    "`partial_cmp(..).unwrap()` panics on NaN and orders floats \
                     partially; use `total_cmp` for a total order"
                        .to_string(),
                );
            }
        }
        // (b) float-keyed comparator calls built on `partial_cmp`
        // without the unwrap (e.g. `.unwrap_or(Ordering::Equal)`):
        // NaN keys then compare Equal and the result depends on input
        // order. Sites already flagged by (a) are skipped so each call
        // yields exactly one violation.
        for pat in [".sort_by(", ".sort_unstable_by(", ".max_by(", ".min_by("] {
            for off in find_all(code, pat, false) {
                if self.in_test_region(off) {
                    continue;
                }
                let open = off + pat.len() - 1;
                let Some(close) = match_paren(code, open) else {
                    continue;
                };
                let arg = &code[open..close];
                if arg.contains("partial_cmp")
                    && !arg.contains(".unwrap()")
                    && !arg.contains(".expect(")
                {
                    let what = pat.trim_start_matches('.').trim_end_matches('(');
                    self.push(
                        Rule::FloatOrder,
                        off,
                        format!(
                            "`{what}` comparator uses `partial_cmp`; NaN keys make the \
                             order input-dependent — use `total_cmp`"
                        ),
                    );
                }
            }
        }
    }

    /// Apply suppressions and drain results into the caller's buffers.
    /// Returns the number of suppressed violations. An annotation that
    /// suppressed nothing is reported as R0: a stale suppression would
    /// otherwise silently cover the next violation on its line.
    pub fn finish(mut self, rel_path: &str, out: &mut Vec<Violation>) -> usize {
        let mut suppressed = 0usize;
        for (rule, line, message) in std::mem::take(&mut self.candidates) {
            let allow = self
                .allows
                .iter_mut()
                .find(|a| a.rule == rule && (a.line == line || a.covers == line));
            if let Some(a) = allow {
                a.used = true;
                suppressed += 1;
            } else {
                out.push(Violation::new(rule, rel_path, line, message));
            }
        }
        for (line, message) in self.syntax_errors {
            out.push(Violation::new(Rule::AllowSyntax, rel_path, line, message));
        }
        for a in self.allows.iter().filter(|a| !a.used) {
            out.push(Violation::new(
                Rule::AllowSyntax,
                rel_path,
                a.line,
                format!(
                    "unused `lint:allow({})` annotation: no {} violation on the line it \
                     covers; delete it",
                    a.rule.slug(),
                    a.rule.id()
                ),
            ));
        }
        suppressed
    }
}

/// Names collected from one source file for the workspace-level R4
/// cross-checks, plus the file's suppression count.
pub struct ScanOutput {
    /// Suppressed violation count.
    pub suppressed: usize,
    /// Metric-name literals at obs call sites, with their lines.
    pub metrics: Vec<(String, usize)>,
    /// Span-name literals at tracer call sites, with their lines.
    pub spans: Vec<(String, usize)>,
}

/// Run every rule applicable to `file` given its crate's profile.
pub fn scan_file(
    spec: &CrateSpec,
    file: &SourceFile,
    masked: &Masked,
    out: &mut Vec<Violation>,
) -> ScanOutput {
    let mut scan = FileScan::new(masked);
    if spec.kind == CrateKind::Library && !file.is_bin {
        scan.rule_error_hygiene();
    }
    scan.rule_alloc_hygiene();
    scan.rule_float_order();
    let metrics = scan.rule_obs_collect();
    let spans = scan.rule_span_collect();
    ScanOutput {
        suppressed: scan.finish(&file.rel_path, out),
        metrics,
        spans,
    }
}

/// The heading that separates the metric table from the span table in
/// the obs README. Metric rows live above it, span rows below.
pub const SPAN_TABLE_HEADING: &str = "## Span table";

/// Parse backticked names from `|`-delimited table rows: the first
/// cell of each row, backtick spans only, label blocks stripped.
/// Returns `name -> line`, with lines offset by `first_line` (1-based).
fn table_names(section: &str, first_line: usize) -> BTreeMap<String, usize> {
    let mut names = BTreeMap::new();
    for (idx, line) in section.lines().enumerate() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with('|') {
            continue;
        }
        let Some(cell) = trimmed.split('|').nth(1) else {
            continue;
        };
        let mut rest = cell;
        while let Some(open) = rest.find('`') {
            let Some(close_rel) = rest[open + 1..].find('`') else {
                break;
            };
            let span = &rest[open + 1..open + 1 + close_rel];
            let name = span.split('{').next().unwrap_or(span).trim();
            if !name.is_empty() {
                names.entry(name.to_string()).or_insert(first_line + idx);
            }
            rest = &rest[open + 1 + close_rel + 1..];
        }
    }
    names
}

/// Split the obs README at [`SPAN_TABLE_HEADING`]: everything before
/// it holds the metric table, everything after it the span table (an
/// absent heading means no span table).
fn split_readme(readme: &str) -> (&str, &str, usize) {
    match readme.find(SPAN_TABLE_HEADING) {
        Some(pos) => {
            let line = readme[..pos].lines().count() + 1;
            (&readme[..pos], &readme[pos..], line)
        }
        None => (readme, "", 1),
    }
}

/// Parse the metric table of the obs README (rows above the span-table
/// heading). Returns `name -> line`.
pub fn readme_metric_names(readme: &str) -> BTreeMap<String, usize> {
    let (metrics, _, _) = split_readme(readme);
    table_names(metrics, 1)
}

/// Parse the span table of the obs README (rows below the span-table
/// heading). Returns `name -> line`, empty when there is no heading.
pub fn readme_span_names(readme: &str) -> BTreeMap<String, usize> {
    let (_, spans, first_line) = split_readme(readme);
    table_names(spans, first_line)
}

/// `[a-z0-9_.]+`, per the obs naming contract.
pub fn valid_metric_charset(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_' || c == b'.')
}

/// All occurrences of `pat` in `code`, optionally requiring a
/// non-identifier byte immediately before, and always requiring a
/// non-identifier byte immediately after the pattern's last
/// identifier character (so `Vec::new` does not match `Vec::new_in`).
fn find_all(code: &str, pat: &str, boundary_before: bool) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut start = 0usize;
    while let Some(rel) = code[start..].find(pat) {
        let off = start + rel;
        start = off + 1;
        if boundary_before && off > 0 && is_ident_byte(bytes[off - 1]) {
            continue;
        }
        let last = pat.as_bytes()[pat.len() - 1];
        if is_ident_byte(last) {
            let after = off + pat.len();
            if after < bytes.len() && is_ident_byte(bytes[after]) {
                continue;
            }
        }
        out.push(off);
    }
    out
}

/// The whitespace-separated word ending just before `off`, if any.
fn prev_word(code: &str, off: usize) -> Option<&str> {
    let head = code[..off].trim_end();
    let start = head
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map(|i| i + 1)
        .unwrap_or(0);
    let w = &head[start..];
    (!w.is_empty()).then_some(w)
}

/// Index of the `)` matching the `(` at `open`, or `None` if the file
/// ends first. Masked text: parens in strings/chars are blanked.
fn match_paren(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, b) in code.as_bytes()[open..].iter().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + k);
                }
            }
            _ => {}
        }
    }
    None
}

/// The signature starting at a `pub fn ` match: text up to the first
/// `{` or `;` at zero bracket depth, or `None` if the file ends first.
fn signature_at(code: &str, off: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut depth = 0i64;
    for (k, &b) in bytes[off..].iter().enumerate() {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'<' if k > 0 && bytes[off + k - 1] != b'<' => depth += 1,
            b'>' if k > 0 && bytes[off + k - 1] != b'-' && bytes[off + k - 1] != b'=' => {
                depth -= 1;
            }
            b'{' | b';' if depth <= 0 => return Some(code[off..off + k].to_string()),
            _ => {}
        }
    }
    None
}

/// The return type of a signature: text after the first `->` that sits
/// at zero parenthesis depth (so `fn(u8) -> u8` parameters don't
/// confuse it).
fn return_type(sig: &str) -> Option<String> {
    let bytes = sig.as_bytes();
    let mut depth = 0i64;
    let mut k = 0usize;
    while k + 1 < bytes.len() {
        match bytes[k] {
            b'(' => depth += 1,
            b')' => depth -= 1,
            b'-' if depth == 0 && bytes[k + 1] == b'>' => {
                return Some(sig[k + 2..].trim().to_string());
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// If `ret` is a two-argument `Result` whose error type is stringly
/// (`String` or a `Box<dyn ... Error ...>` trait object), return the
/// offending error type.
fn stringly_error(ret: &str) -> Option<String> {
    let pos = find_all(ret, "Result", true)
        .into_iter()
        .find(|&p| ret[p + "Result".len()..].trim_start().starts_with('<'))?;
    let after = &ret[pos + "Result".len()..];
    let open = after.find('<')?;
    let body = &after[open + 1..];
    // Split the generic args at top-level commas.
    let mut depth = 0i64;
    let mut args = Vec::new();
    let mut cur = String::new();
    let bytes = body.as_bytes();
    let mut k = 0usize;
    while k < bytes.len() {
        let b = bytes[k];
        match b {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' if k > 0 && bytes[k - 1] == b'-' => {}
            b'>' | b')' | b']' => {
                if depth == 0 && b == b'>' {
                    break; // close of the Result's generics
                }
                depth -= 1;
            }
            b',' if depth == 0 => {
                args.push(cur.trim().to_string());
                cur.clear();
                k += 1;
                continue;
            }
            _ => {}
        }
        cur.push(b as char);
        k += 1;
    }
    if !cur.trim().is_empty() {
        args.push(cur.trim().to_string());
    }
    if args.len() < 2 {
        return None; // an alias like `serde_json::Result<T>` — typed already
    }
    let err = collapse_ws(&args[1]);
    let is_string = matches!(
        err.as_str(),
        "String" | "std::string::String" | "alloc::string::String"
    );
    let is_boxed_err = err.starts_with("Box<dyn") && err.contains("Error");
    (is_string || is_boxed_err).then_some(err)
}

fn collapse_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::mask;

    fn scan_candidates(src: &str, f: impl Fn(&mut FileScan<'_>)) -> Vec<(Rule, usize, String)> {
        let m = mask(src);
        let mut s = FileScan::new(&m);
        f(&mut s);
        s.candidates.clone()
    }

    #[test]
    fn alloc_hygiene_fires_only_inside_zero_alloc_bodies() {
        let src = "\
// lint:zero_alloc
fn hot(out: &mut Vec<u8>) {
    out.push(1);
    let v = Vec::new();
}
fn cold() -> Vec<u8> {
    let mut v = Vec::new();
    v.push(1);
    v
}
";
        let v = scan_candidates(src, |s| s.rule_alloc_hygiene());
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].1, 3);
        assert_eq!(v[1].1, 4);
        assert!(v[0].2.contains("`hot`"));
    }

    #[test]
    fn alloc_hygiene_permits_with_capacity_and_test_fns() {
        let src = "\
// lint:zero_alloc
fn hot(buf: &mut [f64]) { buf[0] = 1.0; }
#[cfg(test)]
mod tests {
    // lint:zero_alloc
    fn t() { let mut v = Vec::new(); v.push(1); }
}
";
        assert!(scan_candidates(src, |s| s.rule_alloc_hygiene()).is_empty());
        let src2 = "// lint:zero_alloc\nfn pre() { let v = Vec::with_capacity(8); }\n";
        assert!(scan_candidates(src2, |s| s.rule_alloc_hygiene()).is_empty());
    }

    #[test]
    fn float_order_flags_each_site_exactly_once() {
        let src = "\
fn a(xs: &mut [f64]) {
    xs.sort_by(|p, q| p.partial_cmp(q).unwrap());
    xs.sort_by(|p, q| p.partial_cmp(q).unwrap_or(std::cmp::Ordering::Equal));
    xs.sort_by(f64::total_cmp);
    let m = xs.iter().cloned().fold(f64::NAN, f64::max);
}
";
        let v = scan_candidates(src, |s| s.rule_float_order());
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].1, 2); // the unwrap form, flagged at partial_cmp
        assert_eq!(v[1].1, 3); // the unwrap_or form, flagged at sort_by
    }

    #[test]
    fn float_order_skips_partial_ord_impls() {
        let src = "\
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
";
        assert!(scan_candidates(src, |s| s.rule_float_order()).is_empty());
    }

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let src = "\
// lint:zero_alloc
fn a(v: &mut Vec<u8>) {
    // lint:allow(alloc_hygiene): pre-reserved by the caller
    v.push(1);
    v.push(2); // lint:allow(alloc_hygiene): same reservation
    v.push(3);
}
";
        let m = mask(src);
        let mut s = FileScan::new(&m);
        s.rule_alloc_hygiene();
        let mut out = Vec::new();
        let suppressed = s.finish("f.rs", &mut out);
        assert_eq!(suppressed, 2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 6);
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "\
// lint:zero_alloc
fn a(v: &mut [u8]) {
    // lint:allow(alloc_hygiene): stale, the push below was removed
    v[0] = 1;
    v.push(2); // lint:allow(alloc_hygiene): this one is used
}
";
        let m = mask(src);
        let mut s = FileScan::new(&m);
        s.rule_alloc_hygiene();
        let mut out = Vec::new();
        let suppressed = s.finish("f.rs", &mut out);
        assert_eq!(suppressed, 1);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "R0");
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("unused"), "{}", out[0].message);
    }

    #[test]
    fn malformed_allow_is_reported() {
        let src = "// lint:allow(alloc_hygiene) no colon reason\nfn a() {}\n";
        let m = mask(src);
        let s = FileScan::new(&m);
        let mut out = Vec::new();
        s.finish("f.rs", &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "R0");
    }

    #[test]
    fn error_hygiene_flags_string_and_boxed_errors_only() {
        let src = "\
pub fn bad1(x: u8) -> Result<u8, String> { Ok(x) }
pub fn bad2() -> Result<(), Box<dyn std::error::Error>> { Ok(()) }
pub fn good(x: u8) -> Result<u8, MyError> { Ok(x) }
pub fn alias() -> serde_json::Result<String> { todo()
}
pub fn strings() -> Result<Vec<String>, MyError> { Ok(vec![]) }
";
        let v = scan_candidates(src, |s| s.rule_error_hygiene());
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].1, 1);
        assert_eq!(v[1].1, 2);
    }

    #[test]
    fn readme_table_parse_strips_labels_and_splits_spans() {
        let md = "\
| Metric | Kind | Meaning |
|---|---|---|
| `a.count` | counter | things |
| `dev.admits{device=\"k\"}` / `dev.drops{device=\"k\"}` | counter | per-device |
";
        let names = readme_metric_names(md);
        assert_eq!(
            names.keys().cloned().collect::<Vec<_>>(),
            vec!["a.count", "dev.admits", "dev.drops"]
        );
        assert_eq!(names["a.count"], 3);
    }

    #[test]
    fn obs_collect_reads_literal_names_and_charset() {
        let src = "\
fn f(r: &Registry) {
    r.counter(\"ok.name\").inc();
    r.gauge(\"Bad-Name\").set(1.0);
    r.counter(&labeled(\"dev.drops\", &[(\"device\", \"0\")])).inc();
    let dynamic = name();
    r.counter(&dynamic).inc();
}
";
        let m = mask(src);
        let mut s = FileScan::new(&m);
        let used = s.rule_obs_collect();
        let names: Vec<_> = used.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"ok.name"));
        assert!(names.contains(&"dev.drops"));
        assert_eq!(s.candidates.len(), 1); // Bad-Name charset
        assert!(s.candidates[0].2.contains("Bad-Name"));
    }

    #[test]
    fn span_collect_reads_literal_names_and_charset() {
        let src = "\
fn f(t: &Tracer, obs: &Obs) {
    let _a = t.span(\"qsim.run\");
    let _b = obs.tracer.span(\"Bad Span\");
    let _c = t.span(name); // dynamic: skipped
}
";
        let m = mask(src);
        let mut s = FileScan::new(&m);
        let used = s.rule_span_collect();
        let names: Vec<_> = used.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["qsim.run"]);
        assert_eq!(s.candidates.len(), 1);
        assert!(s.candidates[0].2.contains("Bad Span"));
    }

    #[test]
    fn readme_split_separates_metric_and_span_tables() {
        let md = "\
| Metric | Kind |
|---|---|
| `a.count` | counter |

## Span table

| Span | Where |
|---|---|
| `qsim.run` | simulator |
| `sa.trial` | search |
";
        let metrics = readme_metric_names(md);
        let spans = readme_span_names(md);
        assert_eq!(metrics.keys().cloned().collect::<Vec<_>>(), vec!["a.count"]);
        assert_eq!(
            spans.keys().cloned().collect::<Vec<_>>(),
            vec!["qsim.run", "sa.trial"]
        );
        // Span names must not leak into the metric check or vice versa.
        assert!(!metrics.contains_key("qsim.run"));
        assert!(!spans.contains_key("a.count"));
        assert_eq!(spans["qsim.run"], 9);
    }

    /// Every span name the tentpole wires through the stack must be
    /// charset-clean and documented in the workspace README span table.
    #[test]
    fn canonical_span_names_are_in_the_readme_span_table() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../obs/README.md"))
                .expect("workspace obs README");
        let documented = readme_span_names(&readme);
        for name in [
            "qsim.run",
            "neural.forward",
            "neural.backward",
            "neural.matmul",
            "train.epoch",
            "train.step",
            "sa.trial",
            "sa.iteration",
            "sa.batch_eval",
            "datagen.sample",
            "datagen.shard",
        ] {
            assert!(valid_metric_charset(name), "{name} charset");
            assert!(
                documented.contains_key(name),
                "{name} missing from crates/obs/README.md span table"
            );
        }
    }

    /// The hot-path throughput metrics the code emits (the simulator's
    /// event rate and SA's batched evaluator calls) must stay in the
    /// canonical schema: collected from code by R4, charset-clean, and
    /// documented in the workspace obs README.
    #[test]
    fn hotpath_metrics_are_in_the_canonical_schema() {
        let src = "\
fn f(r: &Registry, obs: &Obs) {
    r.gauge(\"qsim.events_per_sec\").set(1.0);
    obs.registry.counter(\"sa.batch_evals\").inc();
}
";
        let m = mask(src);
        let mut s = FileScan::new(&m);
        let used = s.rule_obs_collect();
        let names: Vec<_> = used.iter().map(|(n, _)| n.as_str()).collect();
        for name in ["qsim.events_per_sec", "sa.batch_evals"] {
            assert!(names.contains(&name), "{name} not collected");
            assert!(valid_metric_charset(name), "{name} charset");
        }
        assert!(s.candidates.is_empty(), "{:?}", s.candidates);

        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../obs/README.md"))
                .expect("workspace obs README");
        let documented = readme_metric_names(&readme);
        for name in ["qsim.events_per_sec", "sa.batch_evals"] {
            assert!(
                documented.contains_key(name),
                "{name} missing from crates/obs/README.md metric table"
            );
        }
    }
}
