//! The workspace facts behind `unreached-pub`: which `pub` items a
//! library file declares, and which names the roots reach.
//!
//! Name-based on purpose. An item is reached when an identifier token
//! with its name appears in a root outside test code, outside `pub use`
//! re-exports, outside the item's own span and outside any `impl` block
//! whose header names it. Two items sharing a name reach each other, and
//! a common name like `new` never fires: the rule over-approximates what
//! is reached, which is what a ratchet needs.

use std::collections::{BTreeMap, BTreeSet};

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
    /// Whether the item is a `fn`.
    pub is_fn: bool,
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
                is_fn: tokens[j].is_ident("fn"),
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

/// The names of the plain-`pub` fns one library file defines inside
/// `impl` blocks, outside test code. Where two `impl`s share a name, a
/// root naming it reaches both, so the rule cannot tell whether either
/// is used: [`lint_workspace`](crate::lint_workspace) counts these names
/// as the rule's blind spot.
pub(crate) fn impl_pub_fns(source: &str) -> Vec<String> {
    let tokens = lex(source).tokens;
    let impls = impl_blocks(&tokens);
    pub_items(&tokens, &cfg_test_ranges(&tokens))
        .into_iter()
        .filter(|it| {
            it.is_fn
                && impls
                    .iter()
                    .any(|((from, to), _)| (*from..*to).contains(&it.span.0))
        })
        .map(|it| it.name)
        .collect()
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

/// What is wrong with the `unreached-pub` waiver in file `own` over the
/// item named `item`, given the workspace's `.rs` sources. Its `reason`
/// must name at least one `.rs` file (a word ending in `.rs` once the
/// quotes, backticks and punctuation around it are trimmed), and each
/// must exist and call `item`: name it as an identifier token, so a
/// comment or a string does not count, and in `own` itself only inside
/// `#[cfg(test)]` code. `None` when the waiver is sound.
pub(crate) fn stale_caller(
    own: &str,
    item: &str,
    reason: &str,
    sources: &BTreeMap<&str, &str>,
) -> Option<String> {
    let inner = |c: char| c.is_ascii_alphanumeric() || "/_-.".contains(c);
    let words = reason.split_whitespace();
    let words = words.map(|w| w.trim_matches(|c| !inner(c)).trim_end_matches('.'));
    let paths: Vec<&str> = words.filter(|w| w.ends_with(".rs")).collect();
    let calls = |path: &str, source: &str| {
        let tokens = lex(source).tokens;
        let tests = cfg_test_ranges(&tokens);
        (0..tokens.len()).any(|k| tokens[k].is_ident(item) && (path != own || in_ranges(&tests, k)))
    };
    let problem = match paths
        .iter()
        .find(|&&p| sources.get(p).is_none_or(|s| !calls(p, s)))
    {
        _ if paths.is_empty() => "names no .rs caller".to_string(),
        Some(p) if sources.contains_key(*p) => format!("names {p}, which does not call it"),
        Some(p) => format!("names {p}, which does not exist"),
        None => return None,
    };
    Some(format!("the waiver of `{item}` {problem}"))
}

/// The name of the plain-`pub` item declared on `line` of `source`.
pub(crate) fn item_on_line(source: &str, line: u32) -> Option<String> {
    let tokens = lex(source).tokens;
    let items = pub_items(&tokens, &cfg_test_ranges(&tokens)).into_iter();
    items.filter(|it| it.line == line).map(|it| it.name).next()
}
