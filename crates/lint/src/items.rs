//! Item-tree analyzer: a brace/attribute-aware itemizer over [`Masked`]
//! source.
//!
//! PR 3's rules were flat token scans — they could say *that* a banned
//! pattern appears but not *where* in the item structure. The region
//! rules (R6 `alloc_hygiene`, and the `#[cfg(test)]` exemption every
//! rule relies on) need scopes: which `fn` a call site belongs to,
//! whether that `fn` (or an enclosing `mod`/`impl`) carries
//! `#[cfg(test)]`, and the exact byte range of a function body.
//!
//! The itemizer is a single forward pass over the masked text (no
//! external parser — the build is offline). Masking makes the scan
//! safe: string and comment bodies are blanked, so every brace the
//! itemizer sees is a code brace. It recognises:
//!
//! * `mod` / `trait` items (named, recursed into),
//! * `impl` blocks (recursed into),
//! * `fn` items (leaf; the body byte range is recorded),
//! * any other attribute-carrying construct (`struct`, `const`,
//!   `use`, ... — consumed as an opaque item so its attributes attach),
//! * outer attributes `#[...]`, with `#[cfg(test)]` detection and
//!   inheritance from enclosing items,
//! * the `// lint:zero_alloc` annotation that marks a function body as
//!   an allocation-free region (rule R6).
//!
//! Known limitation (documented, irrelevant to this workspace): a brace
//! expression inside a const-generic argument (`Foo<{ N + 1 }>`) would
//! be taken for an item body.

use crate::tokenizer::{is_ident_byte, Masked};
use std::collections::BTreeSet;

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { ... }` or `mod name;`
    Mod,
    /// `impl ... { ... }`
    Impl,
    /// `fn name(...) { ... }` or a bodyless trait-method declaration.
    Fn,
    /// `trait Name { ... }`
    Trait,
    /// An attribute-carrying construct the itemizer does not model
    /// structurally (`struct`, `enum`, `const`, `use`, ...).
    Other,
}

/// One node of the item tree.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Item name (`mod`/`fn`/`trait` identifier; for `impl` the header
    /// text up to the body; empty for [`ItemKind::Other`]).
    pub name: String,
    /// Half-open byte span of the whole item, attributes included.
    pub span: (usize, usize),
    /// Half-open byte span *inside* the body braces, when the item has
    /// a brace body (`None` for `mod x;` and bodyless `fn` decls).
    pub body: Option<(usize, usize)>,
    /// Whether this item is `#[cfg(test)]`, directly or inherited from
    /// an enclosing item.
    pub cfg_test: bool,
    /// Whether this `fn` is annotated `// lint:zero_alloc` (always
    /// `false` for non-functions).
    pub zero_alloc: bool,
    /// Child items (populated for `mod` / `impl` / `trait` bodies).
    pub children: Vec<Item>,
}

/// The per-file item tree.
#[derive(Debug, Clone, Default)]
pub struct ItemTree {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl ItemTree {
    /// Itemize one masked file.
    pub fn build(masked: &Masked) -> ItemTree {
        // Lines carrying a `// lint:zero_alloc` annotation comment.
        let zero_alloc_lines: BTreeSet<usize> = masked
            .comments
            .iter()
            .filter(|c| {
                let t = c.text.trim_start();
                !t.starts_with('/') && !t.starts_with('!') && t.starts_with("lint:zero_alloc")
            })
            .map(|c| c.line)
            .collect();
        let mut parser = Parser {
            code: masked.code.as_bytes(),
            masked,
            zero_alloc_lines,
        };
        let end = masked.code.len();
        let mut items = Vec::new();
        parser.parse_region(0, end, false, &mut items);
        ItemTree { items }
    }

    /// Byte ranges covered by `#[cfg(test)]` items (children included
    /// by span containment).
    pub fn test_regions(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        fn walk(items: &[Item], out: &mut Vec<(usize, usize)>) {
            for it in items {
                if it.cfg_test {
                    out.push(it.span);
                } else {
                    walk(&it.children, out);
                }
            }
        }
        walk(&self.items, &mut out);
        out
    }

    /// `(body_span, fn_name)` for every `// lint:zero_alloc` function,
    /// in source order, test functions excluded.
    pub fn zero_alloc_bodies(&self) -> Vec<((usize, usize), String)> {
        let mut out = Vec::new();
        fn walk(items: &[Item], out: &mut Vec<((usize, usize), String)>) {
            for it in items {
                if it.zero_alloc && !it.cfg_test {
                    if let Some(body) = it.body {
                        out.push((body, it.name.clone()));
                    }
                }
                walk(&it.children, out);
            }
        }
        walk(&self.items, &mut out);
        out
    }

    /// Visit every item depth-first.
    pub fn for_each(&self, f: &mut impl FnMut(&Item)) {
        fn walk(items: &[Item], f: &mut impl FnMut(&Item)) {
            for it in items {
                f(it);
                walk(&it.children, f);
            }
        }
        walk(&self.items, f);
    }
}

/// Qualifier keywords that may precede an item keyword without ending
/// the pending-attribute attachment.
const QUALIFIERS: &[&str] = &["pub", "const", "unsafe", "async", "extern", "default"];

struct Parser<'a> {
    code: &'a [u8],
    masked: &'a Masked,
    zero_alloc_lines: BTreeSet<usize>,
}

impl Parser<'_> {
    /// Parse the items of `[start, end)` into `out`.
    fn parse_region(
        &mut self,
        start: usize,
        end: usize,
        inherited_test: bool,
        out: &mut Vec<Item>,
    ) {
        let b = self.code;
        let mut i = start;
        // Pending outer attributes: span start and whether cfg(test).
        let mut attr_start: Option<usize> = None;
        let mut attr_test = false;

        while i < end {
            let c = b[i];
            if c == b'#' && i + 1 < end && b[i + 1] == b'[' {
                // Outer attribute: record, attach to the next item.
                let close = match_bracket(b, i + 1, end);
                let text: String = self.masked.code[i..close.min(end)]
                    .split_whitespace()
                    .collect();
                if text.contains("cfg(test)") {
                    attr_test = true;
                }
                attr_start.get_or_insert(i);
                i = close;
                continue;
            }
            if c == b'#' && i + 2 < end && b[i + 1] == b'!' && b[i + 2] == b'[' {
                // Inner attribute: belongs to the enclosing scope.
                i = match_bracket(b, i + 2, end);
                continue;
            }
            if is_ident_byte(c) && !c.is_ascii_digit() {
                let word_end = scan_ident(b, i, end);
                let word = &self.masked.code[i..word_end];
                match word {
                    "mod" | "trait" => {
                        let kind = if word == "mod" {
                            ItemKind::Mod
                        } else {
                            ItemKind::Trait
                        };
                        i = self.parse_named_item(
                            kind,
                            i,
                            word_end,
                            end,
                            attr_start.take(),
                            std::mem::take(&mut attr_test),
                            inherited_test,
                            out,
                        );
                    }
                    "impl" => {
                        i = self.parse_impl(
                            i,
                            word_end,
                            end,
                            attr_start.take(),
                            std::mem::take(&mut attr_test),
                            inherited_test,
                            out,
                        );
                    }
                    "fn" => {
                        // An item fn has a name; `fn(u8) -> u8` (a
                        // fn-pointer type) does not.
                        let name_start = skip_ws(b, word_end, end);
                        if name_start < end
                            && is_ident_byte(b[name_start])
                            && !b[name_start].is_ascii_digit()
                        {
                            i = self.parse_fn(
                                i,
                                name_start,
                                end,
                                attr_start.take(),
                                std::mem::take(&mut attr_test),
                                inherited_test,
                                out,
                            );
                        } else {
                            i = word_end;
                        }
                    }
                    _ if QUALIFIERS.contains(&word) => {
                        // Qualifiers keep pending attributes pending.
                        i = word_end;
                    }
                    _ => {
                        if attr_start.is_some() {
                            // An attributed construct we don't model:
                            // consume it so the attribute attaches
                            // (this is what exempts `#[cfg(test)]`
                            // structs, consts and use-items).
                            let span_start = attr_start.take().unwrap_or(i);
                            let test = std::mem::take(&mut attr_test);
                            let (item_end, body) = consume_construct(b, i, end);
                            out.push(Item {
                                kind: ItemKind::Other,
                                name: String::new(),
                                span: (span_start, item_end),
                                body,
                                cfg_test: inherited_test || test,
                                zero_alloc: false,
                                children: Vec::new(),
                            });
                            i = item_end;
                        } else {
                            i = word_end;
                        }
                    }
                }
                continue;
            }
            i += 1;
        }
    }

    /// Parse `mod name { ... }` / `mod name;` / `trait Name ... { ... }`
    /// starting at the keyword; returns the index past the item.
    #[allow(clippy::too_many_arguments)]
    fn parse_named_item(
        &mut self,
        kind: ItemKind,
        kw_start: usize,
        kw_end: usize,
        end: usize,
        attr_start: Option<usize>,
        attr_test: bool,
        inherited_test: bool,
        out: &mut Vec<Item>,
    ) -> usize {
        let b = self.code;
        let name_start = skip_ws(b, kw_end, end);
        let name_end = scan_ident(b, name_start, end);
        let name = self.masked.code[name_start..name_end].to_string();
        let span_start = attr_start.unwrap_or(kw_start);
        let cfg_test = inherited_test || attr_test;
        match find_body_or_semi(b, name_end, end) {
            BodyOrSemi::Body(open, close) => {
                let mut children = Vec::new();
                self.parse_region(open + 1, close, cfg_test, &mut children);
                out.push(Item {
                    kind,
                    name,
                    span: (span_start, (close + 1).min(end)),
                    body: Some((open + 1, close)),
                    cfg_test,
                    zero_alloc: false,
                    children,
                });
                (close + 1).min(end)
            }
            BodyOrSemi::Semi(pos) => {
                out.push(Item {
                    kind,
                    name,
                    span: (span_start, (pos + 1).min(end)),
                    body: None,
                    cfg_test,
                    zero_alloc: false,
                    children: Vec::new(),
                });
                (pos + 1).min(end)
            }
            BodyOrSemi::Eof => end,
        }
    }

    /// Parse `impl ... { ... }` starting at the keyword.
    #[allow(clippy::too_many_arguments)]
    fn parse_impl(
        &mut self,
        kw_start: usize,
        kw_end: usize,
        end: usize,
        attr_start: Option<usize>,
        attr_test: bool,
        inherited_test: bool,
        out: &mut Vec<Item>,
    ) -> usize {
        let b = self.code;
        let span_start = attr_start.unwrap_or(kw_start);
        let cfg_test = inherited_test || attr_test;
        match find_body_or_semi(b, kw_end, end) {
            BodyOrSemi::Body(open, close) => {
                let name: String = self.masked.code[kw_end..open]
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ");
                let mut children = Vec::new();
                self.parse_region(open + 1, close, cfg_test, &mut children);
                out.push(Item {
                    kind: ItemKind::Impl,
                    name,
                    span: (span_start, (close + 1).min(end)),
                    body: Some((open + 1, close)),
                    cfg_test,
                    zero_alloc: false,
                    children,
                });
                (close + 1).min(end)
            }
            // `impl Trait` in type position ends at `;` — not a real
            // impl block, recorded as an empty-bodied node.
            BodyOrSemi::Semi(pos) => {
                out.push(Item {
                    kind: ItemKind::Impl,
                    name: String::new(),
                    span: (span_start, (pos + 1).min(end)),
                    body: None,
                    cfg_test,
                    zero_alloc: false,
                    children: Vec::new(),
                });
                (pos + 1).min(end)
            }
            BodyOrSemi::Eof => end,
        }
    }

    /// Parse an item `fn` whose name starts at `name_start`.
    #[allow(clippy::too_many_arguments)]
    fn parse_fn(
        &mut self,
        kw_start: usize,
        name_start: usize,
        end: usize,
        attr_start: Option<usize>,
        attr_test: bool,
        inherited_test: bool,
        out: &mut Vec<Item>,
    ) -> usize {
        let b = self.code;
        let name_end = scan_ident(b, name_start, end);
        let name = self.masked.code[name_start..name_end].to_string();
        let span_start = attr_start.unwrap_or(kw_start);
        let cfg_test = inherited_test || attr_test;
        // `// lint:zero_alloc` on the line above the item (or trailing
        // on the item's first line) marks the body allocation-free.
        let first_line = self.masked.line_of(span_start);
        let zero_alloc = self.zero_alloc_lines.contains(&(first_line - 1))
            || self.zero_alloc_lines.contains(&first_line);
        let (item_end, body) = match find_body_or_semi(b, name_end, end) {
            BodyOrSemi::Body(open, close) => ((close + 1).min(end), Some((open + 1, close))),
            BodyOrSemi::Semi(pos) => ((pos + 1).min(end), None),
            BodyOrSemi::Eof => (end, None),
        };
        out.push(Item {
            kind: ItemKind::Fn,
            name,
            span: (span_start, item_end),
            body,
            cfg_test,
            zero_alloc,
            children: Vec::new(),
        });
        item_end
    }
}

/// Skip ASCII whitespace.
fn skip_ws(b: &[u8], mut i: usize, end: usize) -> usize {
    while i < end && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// End of the identifier starting at `i`.
fn scan_ident(b: &[u8], mut i: usize, end: usize) -> usize {
    while i < end && is_ident_byte(b[i]) {
        i += 1;
    }
    i
}

/// Index just past the `]` matching the `[` at `open` (or `end`).
fn match_bracket(b: &[u8], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < end {
        match b[i] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end
}

/// Index of the `}` matching the `{` at `open` (or `end`).
fn match_brace(b: &[u8], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < end {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end
}

enum BodyOrSemi {
    /// `(open_brace, close_brace)` indices.
    Body(usize, usize),
    /// Index of the terminating `;`.
    Semi(usize),
    Eof,
}

/// From `i`, find the item's `{` body or terminating `;` at zero
/// paren/bracket depth (angle brackets never contain `{` or `;` in a
/// signature, so they need no tracking).
fn find_body_or_semi(b: &[u8], i: usize, end: usize) -> BodyOrSemi {
    let mut depth = 0i64;
    let mut k = i;
    while k < end {
        match b[k] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth <= 0 => return BodyOrSemi::Body(k, match_brace(b, k, end)),
            b';' if depth <= 0 => return BodyOrSemi::Semi(k),
            _ => {}
        }
        k += 1;
    }
    BodyOrSemi::Eof
}

/// Consume an unmodeled construct: everything through the first `;` or
/// brace block at zero depth. Returns `(end, body_span)`.
fn consume_construct(b: &[u8], i: usize, end: usize) -> (usize, Option<(usize, usize)>) {
    match find_body_or_semi(b, i, end) {
        BodyOrSemi::Body(open, close) => ((close + 1).min(end), Some((open + 1, close))),
        BodyOrSemi::Semi(pos) => ((pos + 1).min(end), None),
        BodyOrSemi::Eof => (end, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::mask;

    fn tree(src: &str) -> ItemTree {
        ItemTree::build(&mask(src))
    }

    #[test]
    fn finds_mod_impl_fn_with_spans() {
        let src = "\
mod alpha {
    struct S;
    impl S {
        fn method(&self) -> u8 { 1 }
    }
    fn free() {}
}
fn top(x: u8) -> u8 { x }
";
        let t = tree(src);
        assert_eq!(t.items.len(), 2);
        let m = &t.items[0];
        assert_eq!(m.kind, ItemKind::Mod);
        assert_eq!(m.name, "alpha");
        assert!(!m.cfg_test);
        let imp = m
            .children
            .iter()
            .find(|c| c.kind == ItemKind::Impl)
            .expect("impl child");
        assert_eq!(imp.children.len(), 1);
        assert_eq!(imp.children[0].name, "method");
        assert!(imp.children[0].body.is_some());
        let top = &t.items[1];
        assert_eq!(top.kind, ItemKind::Fn);
        assert_eq!(top.name, "top");
        let (bs, be) = top.body.unwrap();
        assert_eq!(&src[bs..be], " x ");
    }

    #[test]
    fn cfg_test_is_inherited_by_children() {
        let src = "\
#[cfg(test)]
mod tests {
    fn helper() {}
    mod inner { fn deep() {} }
}
fn live() {}
";
        let t = tree(src);
        let tests = &t.items[0];
        assert!(tests.cfg_test);
        assert!(tests.children.iter().all(|c| c.cfg_test));
        assert!(tests.children[1].children[0].cfg_test);
        assert!(!t.items[1].cfg_test);
        let regions = t.test_regions();
        assert_eq!(regions.len(), 1);
        let live_off = src.find("fn live").unwrap();
        assert!(regions[0].0 < regions[0].1);
        assert!(live_off >= regions[0].1);
    }

    #[test]
    fn attrs_attach_through_qualifiers() {
        let src = "#[cfg(test)]\npub const fn check() -> u8 { 0 }\nfn other() {}\n";
        let t = tree(src);
        assert_eq!(t.items[0].name, "check");
        assert!(t.items[0].cfg_test);
        assert!(t.items[0].span.0 == 0, "span starts at the attribute");
        assert!(!t.items[1].cfg_test);
    }

    #[test]
    fn cfg_test_struct_and_use_are_items_too() {
        let src = "\
#[cfg(test)]
use std::time::Instant;
#[cfg(test)]
struct Probe { calls: usize }
fn live() {}
";
        let t = tree(src);
        assert_eq!(t.items.len(), 3);
        assert!(t.items[0].cfg_test);
        assert_eq!(t.items[0].kind, ItemKind::Other);
        assert!(t.items[1].cfg_test);
        assert!(!t.items[2].cfg_test);
        assert_eq!(t.test_regions().len(), 2);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "struct F { cb: fn(u8) -> u8 }\nfn real(cb: fn(u8) -> u8) -> u8 { cb(1) }\n";
        let t = tree(src);
        let fns: Vec<_> = {
            let mut v = Vec::new();
            t.for_each(&mut |it| {
                if it.kind == ItemKind::Fn {
                    v.push(it.name.clone());
                }
            });
            v
        };
        assert_eq!(fns, vec!["real"]);
    }

    #[test]
    fn trait_decls_have_bodyless_fn_children() {
        let src =
            "trait Eval {\n    fn score(&self) -> f64;\n    fn name(&self) -> &str { \"x\" }\n}\n";
        let t = tree(src);
        let tr = &t.items[0];
        assert_eq!(tr.kind, ItemKind::Trait);
        assert_eq!(tr.children.len(), 2);
        assert!(tr.children[0].body.is_none());
        assert!(tr.children[1].body.is_some());
    }

    #[test]
    fn zero_alloc_annotation_marks_the_fn() {
        let src = "\
// lint:zero_alloc
fn hot(buf: &mut [u8]) { buf[0] = 1; }

// lint:zero_alloc: reason text is allowed after the marker
#[inline]
fn hot2() {}

fn cold() {}

#[cfg(test)]
mod tests {
    // lint:zero_alloc
    fn test_hot() {}
}
";
        let t = tree(src);
        assert!(t.items[0].zero_alloc);
        assert!(t.items[1].zero_alloc, "annotation above attributes");
        assert!(!t.items[2].zero_alloc);
        // Test code never contributes zero-alloc regions.
        let bodies = t.zero_alloc_bodies();
        assert_eq!(bodies.len(), 2);
        assert_eq!(bodies[0].1, "hot");
        assert_eq!(bodies[1].1, "hot2");
    }

    #[test]
    fn braces_in_strings_do_not_confuse_the_itemizer() {
        let src = "fn a() { let s = \"{ not a brace }\"; }\nfn b() { let c = '{'; }\n";
        let t = tree(src);
        assert_eq!(t.items.len(), 2);
        assert_eq!(t.items[0].name, "a");
        assert_eq!(t.items[1].name, "b");
        assert!(t.items[0].span.1 <= t.items[1].span.0);
    }

    #[test]
    fn sibling_spans_are_ordered_and_disjoint() {
        let src = "\
mod m1 { fn a() {} fn b() {} }
#[cfg(test)]
mod m2 { fn c() {} }
impl Foo { fn d(&self) {} }
fn e() {}
";
        let t = tree(src);
        fn check(items: &[Item]) {
            for w in items.windows(2) {
                assert!(w[0].span.1 <= w[1].span.0, "{w:?}");
            }
            for it in items {
                assert!(it.span.0 < it.span.1);
                if let Some((bs, be)) = it.body {
                    assert!(it.span.0 <= bs && be <= it.span.1);
                }
                for c in &it.children {
                    let (bs, be) = it.body.expect("parent body");
                    assert!(bs <= c.span.0 && c.span.1 <= be);
                }
                check(&it.children);
            }
        }
        check(&t.items);
    }
}
