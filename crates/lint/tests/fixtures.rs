//! Fixture suite for the seven rules, the waiver grammar, and the
//! tokenizer's blind spots, plus the self-check that the workspace
//! itself lints clean.
//!
//! Each fixture under `tests/fixtures/` is a deliberately-broken (or
//! deliberately-tricky) source file fed through [`scan_source`] under a
//! synthetic in-scope path; `unreached-pub` needs the whole workspace,
//! so its fixture is a tree (`tests/fixtures/unreached_pub/`) linted
//! with [`lint_workspace`]. The directory is named `fixtures` exactly
//! so the workspace walk skips it — which the self-check test proves:
//! if the exclusion broke, the fixtures' violations would dirty the
//! workspace report.

use std::collections::BTreeSet;

use inc_lint::{lint_workspace, scan_source, to_human, to_json, BlindSpot, FileReport, Report};

/// Lines on which `rule` fired, in order.
fn lines(report: &FileReport, rule: &str) -> Vec<u32> {
    report
        .violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

fn unwaived(report: &FileReport) -> usize {
    report.violations.iter().filter(|v| !v.waived).count()
}

#[test]
fn unordered_iter_catches_hash_traversals() {
    let src = include_str!("fixtures/unordered_iter.rs");
    let report = scan_source("crates/sim/src/fixture.rs", src, &BTreeSet::new());
    assert_eq!(lines(&report, "unordered-iter"), vec![7, 10, 13]);
    assert_eq!(unwaived(&report), 3, "{:#?}", report.violations);
}

#[test]
fn unordered_iter_is_scoped_to_decision_crates() {
    let src = include_str!("fixtures/unordered_iter.rs");
    for path in ["crates/bench/src/fixture.rs", "crates/kvs/src/fixture.rs"] {
        let report = scan_source(path, src, &BTreeSet::new());
        assert_eq!(
            lines(&report, "unordered-iter"),
            Vec::<u32>::new(),
            "{path}"
        );
    }
}

#[test]
fn wall_clock_catches_clock_reads_but_not_instant_values() {
    let src = include_str!("fixtures/wall_clock.rs");
    let report = scan_source("crates/sim/src/fixture.rs", src, &BTreeSet::new());
    // Line 8 passes an `Instant` as data without reading the clock and
    // must stay legal.
    assert_eq!(lines(&report, "wall-clock"), vec![3, 4]);
}

#[test]
fn wall_clock_has_no_exempt_directory() {
    let src = include_str!("fixtures/wall_clock.rs");
    for path in ["crates/bench/src/fixture.rs", "examples/fixture.rs"] {
        let report = scan_source(path, src, &BTreeSet::new());
        assert_eq!(lines(&report, "wall-clock"), vec![3, 4], "{path}");
    }
}

#[test]
fn ambient_rng_catches_unseeded_randomness() {
    let src = include_str!("fixtures/ambient_rng.rs");
    let report = scan_source("crates/hw/src/fixture.rs", src, &BTreeSet::new());
    assert_eq!(lines(&report, "ambient-rng"), vec![3, 4, 5]);
}

#[test]
fn ambient_rng_catches_implicit_random_state_in_packet_path_crates() {
    let src = include_str!("fixtures/implicit_random_state.rs");
    // Line 12: `HashMap::new()`; line 13: `HashSet::with_capacity(`.
    // Type positions, `FixedHashMap::default()` and an explicit
    // `with_capacity_and_hasher` stay legal.
    for krate in ["net", "kvs", "dns", "hw", "paxos"] {
        let report = scan_source(
            &format!("crates/{krate}/src/fixture.rs"),
            src,
            &BTreeSet::new(),
        );
        assert_eq!(lines(&report, "ambient-rng"), vec![12, 13], "inc-{krate}");
    }
    // Elsewhere the default hasher is allowed (nothing there churns a
    // table on the packet path).
    let report = scan_source("crates/workloads/src/fixture.rs", src, &BTreeSet::new());
    assert_eq!(lines(&report, "ambient-rng"), Vec::<u32>::new());
}

#[test]
fn panicking_decode_catches_panics_only_in_decode_fns() {
    let src = include_str!("fixtures/panicking_decode.rs");
    let report = scan_source("crates/net/src/wire.rs", src, &BTreeSet::new());
    // Line 3: slice indexing; line 4: unwrap; line 6: panic!. The
    // `encode_frame` indexing/unwrap (lines 19–20) is out of scope, and
    // so is the `#[cfg(test)]` module's `decode_frame_round_trips`.
    assert_eq!(lines(&report, "panicking-decode"), vec![3, 4, 6]);
}

#[test]
fn panicking_decode_is_scoped_to_codec_modules() {
    let src = include_str!("fixtures/panicking_decode.rs");
    let report = scan_source("crates/net/src/switch.rs", src, &BTreeSet::new());
    assert_eq!(lines(&report, "panicking-decode"), Vec::<u32>::new());
}

#[test]
fn float_eq_catches_exact_compares_but_not_to_bits_or_tests() {
    let src = include_str!("fixtures/float_eq.rs");
    let report = scan_source("crates/sim/src/fixture.rs", src, &BTreeSet::new());
    // Line 3: `== 0.0`; line 6: `!= 1.5`; line 7: `as f32 ==` cast
    // comparison. `to_bits() ==` (line 9), integer `==` (line 11) and
    // the `#[cfg(test)]` module stay legal.
    assert_eq!(lines(&report, "float-eq"), vec![3, 6, 7]);
}

#[test]
fn slot_keyed_tree_catches_per_slot_maps_in_the_multi_paxos_roles() {
    let src = include_str!("fixtures/slot_keyed_tree.rs");
    let report = scan_source("crates/paxos/src/multi.rs", src, &BTreeSet::new());
    // Lines 3 and 4: slot-keyed fields; line 12: a slot-keyed local in a
    // body. The client-keyed map (line 6), `encode_pvalues`' signature
    // (line 11) and the `#[cfg(test)]` module stay legal.
    assert_eq!(lines(&report, "slot-keyed-tree"), vec![3, 4, 12]);
    // The rule holds the role machines' file only.
    let report = scan_source("crates/paxos/src/node.rs", src, &BTreeSet::new());
    assert_eq!(lines(&report, "slot-keyed-tree"), Vec::<u32>::new());
}

#[test]
fn waiver_with_reason_waives_on_own_line_and_line_below() {
    let src = include_str!("fixtures/waivers.rs");
    let report = scan_source("src/fixture.rs", src, &BTreeSet::new());
    let wall: Vec<(u32, bool)> = report
        .violations
        .iter()
        .filter(|v| v.rule == "wall-clock")
        .map(|v| (v.line, v.waived))
        .collect();
    // Full-line waiver covers line 5, trailing waiver covers line 6;
    // the reasonless waiver on line 7 covers nothing, so line 8 stays
    // dirty.
    assert_eq!(wall, vec![(5, true), (6, true), (8, false)]);
    let waived: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.waived)
        .map(|v| v.waiver_reason.as_deref().unwrap_or(""))
        .collect();
    assert_eq!(
        waived,
        vec![
            "fixture exercises a reasoned full-line waiver",
            "trailing form"
        ]
    );
}

#[test]
fn waiver_without_reason_is_malformed_and_flagged() {
    let src = include_str!("fixtures/waivers.rs");
    let report = scan_source("src/fixture.rs", src, &BTreeSet::new());
    assert_eq!(lines(&report, "bad-waiver"), vec![7]);
    assert_eq!(report.malformed_waivers.len(), 1);
    assert_eq!(report.malformed_waivers[0].rule, "wall-clock");
}

#[test]
fn stale_waiver_is_reported_unused() {
    let src = include_str!("fixtures/waivers.rs");
    let report = scan_source("src/fixture.rs", src, &BTreeSet::new());
    assert_eq!(
        report.unused_waivers.len(),
        1,
        "{:#?}",
        report.unused_waivers
    );
    assert_eq!(report.unused_waivers[0].rule, "ambient-rng");
    assert_eq!(report.unused_waivers[0].line, 9);
}

#[test]
fn tokenizer_never_fires_on_strings_chars_or_comments() {
    let src = include_str!("fixtures/tokenizer_edges.rs");
    // `crates/paxos/src/msg.rs` puts all five rules in scope at once.
    let report = scan_source("crates/paxos/src/msg.rs", src, &BTreeSet::new());
    assert!(
        report.violations.is_empty(),
        "rule-triggering names inside strings/comments must be inert: {:#?}",
        report.violations
    );
    assert!(report.unused_waivers.is_empty());
    assert!(report.malformed_waivers.is_empty());
}

#[test]
fn unreached_pub_fires_on_exactly_what_no_root_reaches() {
    let root =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unreached_pub");
    let report = lint_workspace(&root).expect("fixture scan");
    assert_eq!(report.files_scanned, 5);
    let mut found: Vec<(&str, u32, &str, bool)> = report
        .violations
        .iter()
        .map(|v| (v.file.as_str(), v.line, v.rule, v.waived))
        .collect();
    found.sort();
    let lib = "crates/alpha/src/lib.rs";
    let tested = "crates/alpha/src/tested.rs";
    // `OnlySelf` (13) is named only in its own `impl` blocks, `waived`
    // (35) carries a reasoned waiver naming its caller, `reasonless` (38)
    // a waiver with no reason (37), `only_tests_call` (4) is called only
    // from the test module and `only_reexported` (9) only through `pub
    // use`. The calls from `beta`, `pub(crate)` and the test module's own
    // `pub fn` stay quiet. The waivers of 44, 47, 50 and `tested`'s 21
    // name no caller that calls them (see the next test).
    assert_eq!(
        found,
        vec![
            (lib, 13, "unreached-pub", false),
            (lib, 35, "unreached-pub", true),
            (lib, 37, "bad-waiver", false),
            (lib, 38, "unreached-pub", false),
            (lib, 44, "stale-waiver", false),
            (lib, 44, "unreached-pub", true),
            (lib, 47, "stale-waiver", false),
            (lib, 47, "unreached-pub", true),
            (lib, 50, "stale-waiver", false),
            (lib, 50, "unreached-pub", true),
            (tested, 4, "unreached-pub", false),
            (tested, 9, "unreached-pub", false),
            (tested, 15, "unreached-pub", true),
            (tested, 21, "stale-waiver", false),
            (tested, 21, "unreached-pub", true),
        ]
    );
    let unused: Vec<(&str, u32)> = report
        .unused_waivers
        .iter()
        .map(|(file, w)| (file.as_str(), w.line))
        .collect();
    assert_eq!(unused, vec![(lib, 40)]);
}

/// A size waiver names the file of the test that calls its item, and
/// that file must call it: exist, and name the item outside comments
/// and strings (inside `#[cfg(test)]` code when it is the waiver's own
/// file). `waived` (`tests/callers.rs` calls it) and `own_tests_call`
/// (its file's test module calls it) pass.
#[test]
fn unreached_pub_waivers_must_name_a_caller_that_calls_the_item() {
    let root =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unreached_pub");
    let report = lint_workspace(&root).expect("fixture scan");
    let stale: Vec<(u32, &str)> = report
        .violations
        .iter()
        .filter(|v| v.rule == "stale-waiver")
        .map(|v| (v.line, v.snippet.as_str()))
        .collect();
    assert_eq!(
        stale,
        vec![
            (
                44,
                "the waiver of `caller_missing` names tests/gone.rs, which does not exist"
            ),
            (
                47,
                "the waiver of `caller_in_comments` names tests/callers.rs, which does not call it"
            ),
            (50, "the waiver of `caller_unnamed` names no .rs caller"),
            (
                21,
                "the waiver of `own_file_only` names crates/alpha/src/tested.rs, which does not \
                 call it"
            ),
        ]
    );
    assert!(!report.is_clean());
    assert!(to_human(&report).contains(
        "error[stale-waiver]: crates/alpha/src/lib.rs:47\n    the waiver of `caller_in_comments`"
    ));
}

#[test]
fn unreached_pub_blind_spot_counts_methods_that_share_a_name() {
    let root =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unreached_pub");
    let report = lint_workspace(&root).expect("fixture scan");
    // `gamma`: `run` in two `impl`s and `stats` in three. Neither the
    // free `run`, the `pub(crate)` `hidden`s, the one-`impl` `alone` nor
    // the test module's `run` counts; `alpha` contributes `make` once.
    assert_eq!(
        report.blind_spot,
        BlindSpot {
            names: 2,
            definitions: 5
        }
    );
    assert!(
        to_json(&report)
            .contains("\"unreached_pub_blind_spot\": { \"names\": 2, \"definitions\": 5 }"),
        "{}",
        to_json(&report)
    );
    assert!(to_human(&report).contains(
        "unreached-pub blind spot: 2 pub fn name(s) defined in more than one impl (5 definitions)"
    ));
}

#[test]
fn unreached_pub_waivers_are_allowed_in_the_decision_crates() {
    let src = "// inc-lint: allow(unreached-pub): read by a property test\npub fn probe() {}\n";
    let file = scan_source("crates/sim/src/fixture.rs", src, &BTreeSet::new());
    assert_eq!(lines(&file, "unreached-pub"), vec![2]);
    let report = Report {
        violations: file.violations,
        ..Report::default()
    };
    assert_eq!(report.waived(), 1);
    assert_eq!(report.decision_crate_waivers(), 0);
    assert!(report.is_clean());
}

#[test]
fn workspace_lints_clean_with_no_decision_crate_waivers() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("workspace scan");
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let dirty: Vec<_> = report.violations.iter().filter(|v| !v.waived).collect();
    assert!(dirty.is_empty(), "unwaived violations: {dirty:#?}");
    assert_eq!(
        report.decision_crate_waivers(),
        0,
        "decision crates must be clean, not quiet"
    );
    assert!(report.is_clean());
}
