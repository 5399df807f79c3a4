//! Property test: the masking tokenizer never lets a banned pattern
//! that appears only inside string literals, doc comments or block
//! comments produce a rule violation, no matter how the fragments are
//! interleaved.

use chainnet_lint::rules::FileScan;
use chainnet_lint::tokenizer::mask;
use proptest::prelude::*;

/// Source fragments that *mention* every rule's pattern but only in
/// masked positions (comments, strings, raw strings, char literals).
const MASKED_FRAGMENTS: &[&str] = &[
    "// line comment with a.partial_cmp(b).unwrap() and r.gauge(\"Bad-Name\")\n",
    "/// doc comment: pub fn f() -> Result<(), String> here\n",
    "//! inner doc: xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(o))\n",
    "/* block with .partial_cmp(b).expect(\"nan\") and .span(\"Bad Span\") */\n",
    "/* nested /* .max_by(|a, b| a.partial_cmp(b)) */ -> Result<u8, Box<dyn Error>> */\n",
    "let s = \"a.partial_cmp(b).unwrap() pub fn g() -> Result<(), String>\";\n",
    "let e = \"escaped quote \\\" then .partial_cmp(b).unwrap() and more\";\n",
    "let r = r#\"raw \"quoted\" .counter(\"Bad-Name\") .partial_cmp(b).unwrap()\"#;\n",
    "let r2 = r\"raw no-hash .min_by(|a, b| a.partial_cmp(b).unwrap_or(o))\";\n",
    "let b = b\"byte string with .partial_cmp(b).unwrap() inside\";\n",
    "let multi = \"line one\n.partial_cmp(b).unwrap() on line two\npub fn h() -> Result<(), String>\";\n",
    "let cs = c\"xs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(o)) in a c-string\";\n",
    "let crs = cr#\"raw c \"quoted\" .gauge(\"Bad-Name\") .partial_cmp(b).expect(\"x\")\"#;\n",
    "let cb = c\"pub fn k() -> Result<(), Box<dyn Error>> { Ok(()) }\";\n",
];

/// Benign code fragments (no banned patterns at all) used as filler,
/// including the look-alikes that must never fire.
const CLEAN_FRAGMENTS: &[&str] = &[
    "fn helper<'a>(x: &'a str) -> usize { x.len() }\n",
    "let v = items.iter().map(|i| i + 1).collect::<Vec<_>>();\n",
    "let d = value.unwrap_or_default();\n",
    "let e = value.unwrap_or_else(|| 3);\n",
    "let f = result.expect_err;\n",
    "let c = 'x'; let q = '\\''; let bs = '\\\\';\n",
    "let map = std::collections::BTreeMap::<u8, u8>::new();\n",
    "struct MyHashMapAdapter;\n",
    "if depth > 0 { depth -= 1; }\n",
    "let r#unsafe = 1; let shadow = r#unsafe + 1;\n",
    "let r#fn = 2; let keyword_named = r#fn * 2;\n",
    "let xs = [2.0f64, 1.0]; let _s = xs[0].total_cmp(&xs[1]);\n",
];

fn assemble(choices: &[(bool, usize)]) -> String {
    let mut src = String::from("pub fn generated() {\n");
    for &(masked, idx) in choices {
        if masked {
            src.push_str(MASKED_FRAGMENTS[idx % MASKED_FRAGMENTS.len()]);
        } else {
            src.push_str(CLEAN_FRAGMENTS[idx % CLEAN_FRAGMENTS.len()]);
        }
    }
    src.push_str("}\n");
    src
}

/// Count the violations the region-insensitive rules produce
/// (metric and span name charset, error hygiene, float order).
fn violation_count(src: &str) -> usize {
    let masked = mask(src);
    let mut scan = FileScan::new(&masked);
    scan.rule_obs_collect();
    scan.rule_span_collect();
    scan.rule_error_hygiene();
    scan.rule_float_order();
    let mut out = Vec::new();
    scan.finish("generated.rs", &mut out);
    out.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving of masked-position mentions and clean filler
    /// must produce zero violations.
    #[test]
    fn no_false_positives_in_masked_positions(
        choices in proptest::collection::vec((proptest::bool::ANY, 0usize..64), 0..24)
    ) {
        let src = assemble(&choices);
        let n = violation_count(&src);
        prop_assert!(n == 0, "false positives in:\n{src}");
    }

    /// Sanity (detector is alive): appending one *real* violation to
    /// any generated body yields exactly one more violation.
    #[test]
    fn real_violation_still_detected(
        choices in proptest::collection::vec((proptest::bool::ANY, 0usize..64), 0..16)
    ) {
        let mut src = assemble(&choices);
        src.push_str("pub fn tail(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n");
        let n = violation_count(&src);
        prop_assert!(n == 1, "expected exactly 1 violation in:\n{src}");
    }
}
