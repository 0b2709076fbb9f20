//! The declarative rule table and the per-file scanners.
//!
//! Each determinism rule is a *contract*: it names the invariant one of
//! the repository's equivalence suites depends on, and the crates it
//! guards. The one size rule, `unreached-pub`, keeps the library to what
//! the roots reach. The scanners are token-level heuristics — they know
//! nothing about types — so each one is written to be conservative about
//! false positives and documents exactly what it matches. A violation
//! can be waived in-source with
//!
//! ```text
//! // inc-lint: allow(<rule>): <reason>
//! ```
//!
//! on the offending line or the line directly above it. The reason is
//! mandatory: a waiver that does not say *why* is itself reported.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Comment, TokKind, Token};
use crate::reach::pub_items;

/// One rule of the contract.
pub struct Rule {
    /// Stable identifier, used in waivers and `lint.json`.
    pub id: &'static str,
    /// One-line human description.
    pub summary: &'static str,
    /// Path prefixes (workspace-relative, `/`-separated) the rule
    /// applies to (a `*` segment matches any one segment); empty means
    /// the whole workspace.
    pub include: &'static [&'static str],
    /// Path prefixes exempt from the rule.
    pub exclude: &'static [&'static str],
    /// A determinism rule, which the decision crates may not waive; the
    /// size rule may be waived anywhere, with a reason.
    pub determinism: bool,
}

/// The sans-IO / decision-path crates: every headline equivalence claim
/// (incremental ≡ full re-score ≡ flat oracle, streaming ≡ full-row,
/// chaos replayability) is a function of state in these four crates, so
/// they get the strictest rules and may not waive a determinism rule.
pub const DECISION_CRATES: &[&str] =
    &["crates/sim/", "crates/hw/", "crates/paxos/", "crates/core/"];

/// Library source, `crates/<crate>/src/…`: where `unreached-pub` looks
/// for items, and the first of its roots.
pub(crate) const LIBRARY: &[&str] = &["crates/*/src/"];

/// The rule table: the six determinism rules, then the size rule
/// `unreached-pub`. Order is the order diagnostics are reported in.
pub const RULES: &[Rule] = &[
    Rule {
        id: "unordered-iter",
        summary: "no iteration over HashMap/HashSet in decision-path crates \
                  (use BTreeMap/BTreeSet or sort before iterating)",
        include: DECISION_CRATES,
        exclude: &[],
        determinism: true,
    },
    Rule {
        id: "wall-clock",
        summary: "no Instant::now/SystemTime (simulated time only)",
        include: &[],
        exclude: &[],
        determinism: true,
    },
    Rule {
        id: "ambient-rng",
        summary: "no thread_rng/rand::random/RandomState — all randomness \
                  flows from seeded inc-sim RNGs; in the packet-path crates \
                  no HashMap/HashSet::new/with_capacity either (implicit \
                  RandomState: use inc_sim::FixedHashMap)",
        include: &[],
        exclude: &[],
        determinism: true,
    },
    Rule {
        id: "panicking-decode",
        summary: "no unwrap/expect/panic!/slice-indexing inside codec decode \
                  paths (decode must be total)",
        include: &[
            "crates/net/src/wire.rs",
            "crates/kvs/src/protocol.rs",
            "crates/dns/src/wire.rs",
            "crates/paxos/src/msg.rs",
            "crates/paxos/src/multi.rs",
        ],
        exclude: &[],
        determinism: true,
    },
    Rule {
        id: "float-eq",
        summary: "no ==/!= against float literals outside tests \
                  (compare to_bits() or use an epsilon)",
        include: &["crates/", "src/"],
        exclude: &["crates/bench/", "crates/lint/"],
        determinism: true,
    },
    Rule {
        id: "slot-keyed-tree",
        summary: "no BTreeMap<u64, _>/BTreeSet<u64> in the Multi-Paxos roles \
                  outside tests and encode_pvalues' signature (per-slot state \
                  lives in a slot ring anchored at the floor, not a history)",
        include: &["crates/paxos/src/multi.rs"],
        exclude: &[],
        determinism: true,
    },
    Rule {
        id: "unreached-pub",
        summary: "no pub item under crates/*/src that no root names outside \
                  test code (roots: non-test code under crates/*/src, src/, \
                  examples/ and benchmark/src/surface.rs; pub use re-exports, \
                  the item's own span and its own impl blocks do not count)",
        include: LIBRARY,
        exclude: &[],
        determinism: false,
    },
];

/// The packet-path crates, where `ambient-rng` also forbids the
/// *implicit* `RandomState` of `HashMap::new()`: their tables churn
/// (requests parked until their reply), so a per-process hash seed
/// moves when they regrow and the benchmark's allocation counts stop
/// repeating. They use `inc_sim::FixedHashMap` instead.
pub const FIXED_HASHER_CRATES: &[&str] = &[
    "crates/net/",
    "crates/kvs/",
    "crates/dns/",
    "crates/hw/",
    "crates/paxos/",
];

/// Returns the rule with the given id, if any.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Whether `path` starts with one of `prefixes`, segment by segment: a
/// `*` segment matches any one path segment.
pub(crate) fn path_in(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| {
        let want: Vec<&str> = p.split('/').collect();
        let have: Vec<&str> = path.split('/').collect();
        let Some((last, dirs)) = want.split_last() else {
            return true;
        };
        have.len() > dirs.len()
            && dirs.iter().zip(&have).all(|(w, h)| *w == "*" || w == h)
            && have[dirs.len()].starts_with(last)
    })
}

impl Rule {
    /// Whether this rule scans the given workspace-relative path.
    pub fn applies_to(&self, path: &str) -> bool {
        if path_in(path, self.exclude) {
            return false;
        }
        self.include.is_empty() || path_in(path, self.include)
    }
}

/// One finding: a rule match at a location, possibly waived.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The rule that fired.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The trimmed source line.
    pub snippet: String,
    /// Whether an `inc-lint: allow(...)` waiver covers it.
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub waiver_reason: Option<String>,
}

/// A waiver annotation found in a comment.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// The rule it waives.
    pub rule: String,
    /// The mandatory justification (empty = malformed).
    pub reason: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Whether any violation consumed it.
    pub used: bool,
}

/// Everything the scan of one file produced.
#[derive(Debug, Default)]
pub struct FileReport {
    /// All findings, waived or not.
    pub violations: Vec<Violation>,
    /// Waivers that matched no violation (stale annotations).
    pub unused_waivers: Vec<Waiver>,
    /// Waivers missing their reason (always reported as violations of
    /// the `bad-waiver` pseudo-rule too).
    pub malformed_waivers: Vec<Waiver>,
}

/// Parses `inc-lint: allow(<rule>): <reason>` out of a comment.
fn parse_waiver(c: &Comment) -> Option<Waiver> {
    let text = c.text.trim();
    let rest = text.split_once("inc-lint:")?.1.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let (rule, tail) = rest.split_once(')')?;
    let rule = rule.trim();
    // Only well-formed rule ids count, so prose *about* the waiver
    // syntax (placeholders like `<rule>` or `...`) never parses as one.
    if rule.is_empty()
        || !rule
            .chars()
            .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '-')
    {
        return None;
    }
    let reason = tail
        .trim_start()
        .strip_prefix(':')
        .map(|r| r.trim().to_string())
        .unwrap_or_default();
    Some(Waiver {
        rule: rule.to_string(),
        reason,
        line: c.line,
        used: false,
    })
}

/// Token-index ranges (inclusive start, exclusive end).
pub(crate) type Range = (usize, usize);

/// Finds the matching `}` for the `{` at `open`, returning the index
/// one past it (or `tokens.len()` if unbalanced).
pub(crate) fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    tokens.len()
}

/// Ranges of items guarded by `#[cfg(test)]` (test modules, test-only
/// fns). Used to exempt test code from `float-eq` and `unreached-pub`.
pub(crate) fn cfg_test_ranges(tokens: &[Token]) -> Vec<Range> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < tokens.len() {
        if tokens[i].is_punct("#") && tokens[i + 1].is_punct("[") {
            // Collect the attribute's tokens.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut has_cfg = false;
            let mut has_test = false;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct("[") {
                    depth += 1;
                } else if tokens[j].is_punct("]") {
                    depth -= 1;
                } else if tokens[j].is_ident("cfg") {
                    has_cfg = true;
                } else if tokens[j].is_ident("test") {
                    has_test = true;
                }
                j += 1;
            }
            if has_cfg && has_test {
                // Skip any further attributes, then swallow the item's
                // braced body (stop at `;` for `mod name;`).
                let mut k = j;
                while k + 1 < tokens.len() && tokens[k].is_punct("#") && tokens[k + 1].is_punct("[")
                {
                    let mut d = 1usize;
                    k += 2;
                    while k < tokens.len() && d > 0 {
                        if tokens[k].is_punct("[") {
                            d += 1;
                        } else if tokens[k].is_punct("]") {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                let mut open = None;
                while k < tokens.len() {
                    if tokens[k].is_punct("{") {
                        open = Some(k);
                        break;
                    }
                    if tokens[k].is_punct(";") {
                        break;
                    }
                    k += 1;
                }
                if let Some(open) = open {
                    let end = matching_brace(tokens, open);
                    out.push((i, end));
                    i = end;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// Ranges of the bodies of functions whose name contains `decode`
/// (the codec decode paths `panicking-decode` guards).
fn decode_fn_ranges(tokens: &[Token]) -> Vec<Range> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < tokens.len() {
        if tokens[i].is_ident("fn")
            && tokens[i + 1].kind == TokKind::Ident
            && tokens[i + 1].text.contains("decode")
        {
            let mut k = i + 2;
            while k < tokens.len() && !tokens[k].is_punct("{") && !tokens[k].is_punct(";") {
                k += 1;
            }
            if k < tokens.len() && tokens[k].is_punct("{") {
                let end = matching_brace(tokens, k);
                out.push((k, end));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

pub(crate) fn in_ranges(ranges: &[Range], idx: usize) -> bool {
    ranges.iter().any(|&(s, e)| idx >= s && idx < e)
}

/// Identifiers that are (heuristically) hash-ordered collections in
/// this file: struct fields, locals, and params declared as
/// `name: HashMap<…>` / `name: HashSet<…>` (with or without a
/// `std::collections::` path) or initialised via
/// `name = HashMap::new()`-style constructor calls.
fn hash_typed_names(tokens: &[Token]) -> BTreeMap<String, u32> {
    let mut names = BTreeMap::new();
    // A fixed hasher makes the order repeat, not mean anything.
    let is_hash =
        |t: &Token| t.is_ident("HashMap") || t.is_ident("HashSet") || t.is_ident("FixedHashMap");
    for i in 0..tokens.len() {
        if tokens[i].kind != TokKind::Ident {
            continue;
        }
        let name = &tokens[i].text;
        if name == "self" {
            continue;
        }
        // `name : [path ::]* Hash{Map,Set}`  or  `name = [path ::]* Hash{Map,Set} ::`
        let Some(sep) = tokens.get(i + 1) else {
            continue;
        };
        if !(sep.is_punct(":") || sep.is_punct("=")) {
            continue;
        }
        let mut j = i + 2;
        // Skip a leading module path (`std :: collections ::`, at most
        // a few segments).
        let mut hops = 0;
        while hops < 3
            && j + 1 < tokens.len()
            && tokens[j].kind == TokKind::Ident
            && !is_hash(&tokens[j])
            && tokens[j + 1].is_punct("::")
        {
            j += 2;
            hops += 1;
        }
        if j < tokens.len() && is_hash(&tokens[j]) {
            let ok = if sep.is_punct(":") {
                // A type position: `votes: HashMap<…>`.
                true
            } else {
                // An init: require a constructor path (`HashMap::…`) so
                // `a = b` aliases do not register.
                tokens.get(j + 1).is_some_and(|t| t.is_punct("::"))
            };
            if ok {
                names
                    .entry(tokens[i].text.clone())
                    .or_insert(tokens[i].line);
            }
        }
    }
    names
}

/// Method names whose call on a hash collection iterates it in
/// arbitrary order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
    "extract_if",
];

fn scan_unordered_iter(tokens: &[Token], lines: &[&str], file: &str, out: &mut Vec<Violation>) {
    let names = hash_typed_names(tokens);
    if names.is_empty() {
        return;
    }
    let mut push = |line: u32| {
        out.push(mk_violation("unordered-iter", file, line, lines));
    };
    let mut i = 0;
    while i < tokens.len() {
        // `name . iter (` — the receiver's last path segment is a
        // hash-typed identifier.
        if i + 3 < tokens.len()
            && tokens[i].kind == TokKind::Ident
            && names.contains_key(&tokens[i].text)
            && tokens[i + 1].is_punct(".")
            && tokens[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&tokens[i + 2].text.as_str())
            && tokens[i + 3].is_punct("(")
        {
            push(tokens[i + 2].line);
            i += 4;
            continue;
        }
        // `for pat in [& [mut]] path . name {` — iterating the
        // collection itself (method-call receivers end in `)`, so they
        // are caught by the arm above instead).
        if tokens[i].is_ident("for") {
            let mut j = i + 1;
            let mut depth = 0i32;
            // Find the `in` at pattern depth 0.
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    _ => {}
                }
                if depth == 0 && tokens[j].is_ident("in") {
                    break;
                }
                if tokens[j].is_punct("{") {
                    break;
                }
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_ident("in") {
                // Walk the iterable expression up to its `{`.
                let mut k = j + 1;
                let mut d = 0i32;
                let mut last_ident: Option<usize> = None;
                let mut simple_path = true;
                while k < tokens.len() {
                    let t = &tokens[k];
                    if d == 0 && t.is_punct("{") {
                        break;
                    }
                    match t.text.as_str() {
                        "(" | "[" => {
                            d += 1;
                            simple_path = false;
                        }
                        ")" | "]" => d -= 1,
                        _ => {}
                    }
                    if d == 0 {
                        if t.kind == TokKind::Ident {
                            last_ident = Some(k);
                        } else if !(t.is_punct("&")
                            || t.is_punct(".")
                            || t.is_punct("::")
                            || t.is_ident("mut"))
                        {
                            simple_path = false;
                        }
                    }
                    k += 1;
                }
                if simple_path {
                    if let Some(li) = last_ident {
                        if names.contains_key(&tokens[li].text)
                            && tokens.get(li + 1).is_some_and(|t| t.is_punct("{"))
                        {
                            push(tokens[li].line);
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

fn scan_wall_clock(tokens: &[Token], lines: &[&str], file: &str, out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        // `SystemTime` anywhere is a clock dependency; `Instant` is
        // only one at the `::now` read (an `Instant` *value* is data).
        let clock_read = t.is_ident("SystemTime")
            || (t.is_ident("Instant")
                && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && tokens.get(i + 2).is_some_and(|n| n.is_ident("now")));
        if clock_read {
            out.push(mk_violation("wall-clock", file, t.line, lines));
        }
    }
}

fn scan_ambient_rng(tokens: &[Token], lines: &[&str], file: &str, out: &mut Vec<Violation>) {
    let fixed_hashers_only = path_in(file, FIXED_HASHER_CRATES);
    for (i, t) in tokens.iter().enumerate() {
        // `HashMap::new(` / `HashSet::with_capacity(`: constructors that
        // exist only for the default, per-process-seeded hasher.
        let implicit_random_state = fixed_hashers_only
            && (t.is_ident("HashMap") || t.is_ident("HashSet"))
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && tokens
                .get(i + 2)
                .is_some_and(|n| n.is_ident("new") || n.is_ident("with_capacity"))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct("("));
        let ambient = implicit_random_state
            || t.is_ident("thread_rng")
            || t.is_ident("ThreadRng")
            || t.is_ident("RandomState")
            || t.is_ident("OsRng")
            || t.is_ident("from_entropy")
            || (t.is_ident("rand")
                && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && tokens.get(i + 2).is_some_and(|n| n.is_ident("random")));
        if ambient {
            out.push(mk_violation("ambient-rng", file, t.line, lines));
        }
    }
}

fn scan_panicking_decode(tokens: &[Token], lines: &[&str], file: &str, out: &mut Vec<Violation>) {
    let ranges = decode_fn_ranges(tokens);
    if ranges.is_empty() {
        return;
    }
    // A test named `…decode…` asserts and unwraps by design.
    let test_ranges = cfg_test_ranges(tokens);
    const PANIC_MACROS: &[&str] = &[
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
        "debug_assert",
        "debug_assert_eq",
        "debug_assert_ne",
    ];
    for i in 0..tokens.len() {
        if !in_ranges(&ranges, i) || in_ranges(&test_ranges, i) {
            continue;
        }
        let t = &tokens[i];
        // `.unwrap(` / `.expect(`.
        if t.is_punct(".")
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct("("))
        {
            out.push(mk_violation(
                "panicking-decode",
                file,
                tokens[i + 1].line,
                lines,
            ));
        }
        // Panicking macros.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            out.push(mk_violation("panicking-decode", file, t.line, lines));
        }
        // Slice indexing: `expr[` where expr ends in an identifier or a
        // closing bracket. (`#[…]` attributes, `[T; N]` types and
        // `let [a, b] =` patterns are preceded by other punctuation.)
        if t.is_punct("[") && i > 0 {
            let p = &tokens[i - 1];
            let indexing = (p.kind == TokKind::Ident
                && !matches!(
                    p.text.as_str(),
                    "mut"
                        | "return"
                        | "in"
                        | "as"
                        | "else"
                        | "match"
                        | "break"
                        | "dyn"
                        | "ref"
                        | "let"
                ))
                || p.is_punct(")")
                || p.is_punct("]");
            if indexing {
                out.push(mk_violation("panicking-decode", file, t.line, lines));
            }
        }
    }
}

fn scan_float_eq(tokens: &[Token], lines: &[&str], file: &str, out: &mut Vec<Violation>) {
    let test_ranges = cfg_test_ranges(tokens);
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        if in_ranges(&test_ranges, i) {
            continue;
        }
        let prev_float = i > 0 && tokens[i - 1].is_float();
        let next_float = tokens.get(i + 1).is_some_and(|n| n.is_float())
            || (tokens.get(i + 1).is_some_and(|n| n.is_punct("-"))
                && tokens.get(i + 2).is_some_and(|n| n.is_float()));
        // `x as f64 == y` — a cast forces a float comparison even
        // without a literal operand.
        let prev_cast = i >= 2
            && (tokens[i - 1].is_ident("f64") || tokens[i - 1].is_ident("f32"))
            && tokens[i - 2].is_ident("as");
        if prev_float || next_float || prev_cast {
            out.push(mk_violation("float-eq", file, t.line, lines));
        }
    }
}

fn scan_slot_keyed_tree(tokens: &[Token], lines: &[&str], file: &str, out: &mut Vec<Violation>) {
    let test_ranges = cfg_test_ranges(tokens);
    // From `fn encode_pvalues` to the `{` of its body: the one public
    // signature that takes a slot-keyed map (the benchmark calls it).
    let mut in_signature = false;
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("fn")
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.is_ident("encode_pvalues"))
        {
            in_signature = true;
        } else if t.is_punct("{") {
            in_signature = false;
        }
        let slot_keyed = (t.is_ident("BTreeMap") || t.is_ident("BTreeSet"))
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("<"))
            && tokens.get(i + 2).is_some_and(|n| n.is_ident("u64"))
            && tokens
                .get(i + 3)
                .is_some_and(|n| n.is_punct(",") || n.is_punct(">"));
        if slot_keyed && !in_signature && !in_ranges(&test_ranges, i) {
            out.push(mk_violation("slot-keyed-tree", file, t.line, lines));
        }
    }
}

fn scan_unreached_pub(
    tokens: &[Token],
    lines: &[&str],
    file: &str,
    reached: &BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    for item in pub_items(tokens, &cfg_test_ranges(tokens)) {
        if !reached.contains(&item.name) {
            out.push(mk_violation("unreached-pub", file, item.line, lines));
        }
    }
}

fn mk_violation(rule: &'static str, file: &str, line: u32, lines: &[&str]) -> Violation {
    let snippet = lines
        .get(line.saturating_sub(1) as usize)
        .map(|l| l.trim().to_string())
        .unwrap_or_default();
    Violation {
        rule,
        file: file.to_string(),
        line,
        snippet,
        waived: false,
        waiver_reason: None,
    }
}

/// Scans one file's source under its workspace-relative path, applying
/// every rule whose scope covers the path, then resolves waivers.
/// `reached` is the set of names the workspace's roots reach (what
/// [`lint_workspace`](crate::lint_workspace) collects in its first
/// pass).
pub fn scan_source(rel_path: &str, source: &str, reached: &BTreeSet<String>) -> FileReport {
    let lexed = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let mut report = FileReport::default();

    let out = &mut report.violations;
    for rule in RULES.iter().filter(|r| r.applies_to(rel_path)) {
        let scan = match rule.id {
            "unordered-iter" => scan_unordered_iter,
            "wall-clock" => scan_wall_clock,
            "ambient-rng" => scan_ambient_rng,
            "panicking-decode" => scan_panicking_decode,
            "float-eq" => scan_float_eq,
            "slot-keyed-tree" => scan_slot_keyed_tree,
            "unreached-pub" => {
                scan_unreached_pub(&lexed.tokens, &lines, rel_path, reached, out);
                continue;
            }
            _ => continue,
        };
        scan(&lexed.tokens, &lines, rel_path, out);
    }

    // One diagnostic per (rule, line): the scanners flag every token
    // that matches (e.g. four indexings on one line), which is noise at
    // the diagnostic level.
    report
        .violations
        .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    report
        .violations
        .dedup_by(|a, b| a.rule == b.rule && a.line == b.line);

    // Resolve waivers: a waiver covers matching violations on its own
    // line and the line directly below (so trailing and full-line
    // comment placements both work).
    let mut waivers: Vec<Waiver> = lexed.comments.iter().filter_map(parse_waiver).collect();
    for v in &mut report.violations {
        for w in &mut waivers {
            if w.rule == v.rule
                && !w.reason.is_empty()
                && (w.line == v.line || w.line + 1 == v.line)
            {
                v.waived = true;
                v.waiver_reason = Some(w.reason.clone());
                w.used = true;
            }
        }
    }
    for w in waivers {
        if w.reason.is_empty() {
            report.malformed_waivers.push(w);
        } else if !w.used {
            report.unused_waivers.push(w);
        }
    }
    // A malformed waiver is itself a (unwaivable) violation: silence
    // without a recorded reason defeats the audit trail.
    for w in &report.malformed_waivers {
        let bad = mk_violation("bad-waiver", rel_path, w.line, &lines);
        report.violations.push(bad);
    }
    report
}
