//! The workspace facts behind `unreached-pub`: which `pub` items a
//! library file declares, and which names the roots reach.
//!
//! Name-based on purpose. An item is reached when an identifier token
//! with its name appears in a root outside test code, outside `pub use`
//! re-exports, outside the item's own span and outside any `impl` block
//! whose header names it. Two items sharing a name reach each other, and
//! a common name like `new` never fires: the rule over-approximates what
//! is reached, which is what a ratchet needs.

use std::collections::BTreeSet;

use crate::lexer::{lex, TokKind, Token};
use crate::rules::{cfg_test_ranges, in_ranges, matching_brace, path_in, Range, LIBRARY};

/// Whether `path` is a root: library source, the facade, the examples,
/// or the surface the benchmark pins.
pub(crate) fn is_root(path: &str) -> bool {
    path_in(path, LIBRARY)
        || path.starts_with("src/")
        || path.starts_with("examples/")
        || path == "benchmark/src/surface.rs"
}

/// One plain-`pub` item (`pub(crate)` and friends are not items here).
pub(crate) struct PubItem {
    /// The item's name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// Tokens from `pub` to the end of the item.
    pub span: Range,
}

const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "const", "static", "type", "trait", "union",
];
const FN_QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

/// The end (exclusive) of the item whose keyword is at `from`: its
/// depth-0 `;`, or the `}` closing its first depth-0 `{`.
fn item_end(tokens: &[Token], from: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(from) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return matching_brace(tokens, k),
            ";" if depth == 0 => return k + 1,
            _ => {}
        }
    }
    tokens.len()
}

/// Every plain-`pub` fn, struct, enum, const, static, type, trait or
/// union outside the `tests` ranges.
pub(crate) fn pub_items(tokens: &[Token], tests: &[Range]) -> Vec<PubItem> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("pub") || in_ranges(tests, i) {
            continue;
        }
        // `const fn`, `unsafe fn`, `extern "C" fn`; a `const` naming a
        // value is the item keyword itself.
        let mut j = i + 1;
        while let Some(t) = tokens.get(j) {
            let qualifier = t.kind == TokKind::Str
                || (FN_QUALIFIERS.iter().any(|q| t.is_ident(q))
                    && tokens.get(j + 1).is_some_and(|n| {
                        n.kind == TokKind::Str
                            || n.is_ident("fn")
                            || FN_QUALIFIERS.iter().any(|q| n.is_ident(q))
                    }));
            if !qualifier {
                break;
            }
            j += 1;
        }
        if !tokens
            .get(j)
            .is_some_and(|t| ITEM_KEYWORDS.iter().any(|k| t.is_ident(k)))
        {
            continue;
        }
        let mut name = j + 1;
        if tokens.get(name).is_some_and(|t| t.is_ident("mut")) {
            name += 1;
        }
        if let Some(t) = tokens.get(name).filter(|t| t.kind == TokKind::Ident) {
            out.push(PubItem {
                name: t.text.clone(),
                line: t.line,
                span: (i, item_end(tokens, j)),
            });
        }
    }
    out
}

/// `pub use` / `pub(…) use` declarations: re-exports, which reach
/// nothing.
fn reexport_ranges(tokens: &[Token]) -> Vec<Range> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("pub") {
            continue;
        }
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.is_punct("(")) {
            while j < tokens.len() && !tokens[j].is_punct(")") {
                j += 1;
            }
            j += 1;
        }
        if tokens.get(j).is_some_and(|t| t.is_ident("use")) {
            let end = (j..tokens.len()).find(|&k| tokens[k].is_punct(";"));
            out.push((i, end.map_or(tokens.len(), |k| k + 1)));
        }
    }
    out
}

/// Every `impl` block: its span and the identifiers its header names.
/// Argument- and return-position `impl Trait` is not a block: a block's
/// `impl` starts an item.
fn impl_blocks(tokens: &[Token]) -> Vec<(Range, Vec<&str>)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let starts_item = i == 0 || {
            let p = &tokens[i - 1];
            ["}", ";", "{", "]"].iter().any(|s| p.is_punct(s)) || p.is_ident("unsafe")
        };
        if !tokens[i].is_ident("impl") || !starts_item {
            continue;
        }
        let mut depth = 0i32;
        let open = (i..tokens.len()).find(|&k| {
            match tokens[k].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                _ => {}
            }
            depth == 0 && tokens[k].is_punct("{")
        });
        if let Some(open) = open {
            let header = tokens[i + 1..open]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            out.push(((i, matching_brace(tokens, open)), header));
        }
    }
    out
}

/// Adds to `reached` every name one root file reaches.
pub(crate) fn collect_reached(source: &str, reached: &mut BTreeSet<String>) {
    let tokens = lex(source).tokens;
    let tests = cfg_test_ranges(&tokens);
    let reexports = reexport_ranges(&tokens);
    let items = pub_items(&tokens, &tests);
    let impls = impl_blocks(&tokens);
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_ranges(&tests, i) || in_ranges(&reexports, i) {
            continue;
        }
        let name = t.text.as_str();
        let own_span = items
            .iter()
            .any(|it| it.name == name && i >= it.span.0 && i < it.span.1);
        let own_impl = impls
            .iter()
            .any(|(r, header)| i >= r.0 && i < r.1 && header.contains(&name));
        if !own_span && !own_impl && !reached.contains(name) {
            reached.insert(name.to_string());
        }
    }
}
