//! Violation records, the machine-readable report and the human
//! diagnostic renderer.

use serde::Serialize;
use std::fmt;

/// The rule a violation belongs to. Slugs double as the names accepted
/// by `// lint:allow(<rule>): <reason>` annotations. R1, R2, R3, R7 and
/// R9 are rustc/clippy lints (see `docs/lint_rules.md`); their ids are
/// not reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Rule {
    /// R4 — obs metric names: charset + README schema consistency.
    ObsSchema,
    /// R5 — typed errors on public `Result` APIs.
    ErrorHygiene,
    /// R6 — no heap allocation inside `// lint:zero_alloc` functions.
    AllocHygiene,
    /// R8 — float ordering through `total_cmp`, never
    /// `partial_cmp(..).unwrap()` (workspace-wide).
    FloatOrder,
    /// Meta — malformed `lint:allow` annotation (unknown rule or
    /// missing reason) or one that suppressed nothing. A broken or
    /// stale suppression must not pass silently.
    AllowSyntax,
}

impl Rule {
    /// The annotation slug (`lint:allow(<slug>): ...`).
    pub fn slug(self) -> &'static str {
        match self {
            Rule::ObsSchema => "obs_schema",
            Rule::ErrorHygiene => "error_hygiene",
            Rule::AllocHygiene => "alloc_hygiene",
            Rule::FloatOrder => "float_order",
            Rule::AllowSyntax => "allow_syntax",
        }
    }

    /// Parse an annotation slug.
    pub fn from_slug(s: &str) -> Option<Rule> {
        Some(match s {
            "obs_schema" => Rule::ObsSchema,
            "error_hygiene" => Rule::ErrorHygiene,
            "alloc_hygiene" => Rule::AllocHygiene,
            "float_order" => Rule::FloatOrder,
            _ => return None,
        })
    }

    /// Paper-facing rule id (R0, R4, R5, R6, R8) for diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            Rule::ObsSchema => "R4",
            Rule::ErrorHygiene => "R5",
            Rule::AllocHygiene => "R6",
            Rule::FloatOrder => "R8",
            Rule::AllowSyntax => "R0",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.id(), self.slug())
    }
}

/// One unsuppressed rule violation.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Paper-facing rule id: `R4`, `R5`, `R6`, `R8` (`R0` for a
    /// malformed or unused annotation).
    pub rule: String,
    /// Annotation slug for the rule (what `lint:allow` would take).
    pub slug: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of what fired.
    pub message: String,
}

impl Violation {
    pub(crate) fn new(rule: Rule, file: &str, line: usize, message: String) -> Self {
        Violation {
            rule: rule.id().to_string(),
            slug: rule.slug().to_string(),
            file: file.to_string(),
            line,
            message,
        }
    }
}

/// The full lint report, serialisable as JSON for CI consumption.
#[derive(Debug, Clone, Serialize, Default)]
pub struct Report {
    /// Unsuppressed violations, in (file, line) order.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of violations suppressed by a well-formed `lint:allow`.
    pub suppressed: usize,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serialise the report as pretty JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Render `file:line: [Rn(slug)] message` diagnostics plus a
    /// summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}: [{}({})] {}\n",
                v.file, v.line, v.rule, v.slug, v.message
            ));
        }
        out.push_str(&format!(
            "chainnet-lint: {} violation(s), {} suppressed, {} file(s) scanned\n",
            self.violations.len(),
            self.suppressed,
            self.files_scanned
        ));
        out
    }

    /// Sort violations for stable output.
    pub(crate) fn finish(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    }
}
