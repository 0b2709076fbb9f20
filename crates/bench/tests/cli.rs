//! The `inc-bench` command-line contract: `list` names exactly the
//! dispatch tables, a bad invocation is a usage error (exit 2, stderr,
//! no panic), and a listed entry runs.

use std::process::{Command, Output};

use inc_bench::cli::{FIGURES, STUDIES};
use inc_bench::scenarios::SCENARIOS;

fn inc_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_inc-bench"))
        .args(args)
        .output()
        .expect("inc-bench runs")
}

#[test]
fn list_names_exactly_the_dispatch_tables() {
    let out = inc_bench(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let listed: Vec<&str> = stdout
        .lines()
        .map(|l| l.split(" — ").next().expect("a name"))
        .collect();
    let figures = FIGURES.iter().map(|e| format!("fig {}", e.0));
    let studies = STUDIES.iter().map(|e| format!("study {}", e.0));
    let scenarios = SCENARIOS.iter().map(|s| format!("scenario {}", s.name));
    let table: Vec<String> = figures.chain(studies).chain(scenarios).collect();
    assert_eq!(listed, table);
}

#[test]
fn unknown_or_missing_subcommands_are_usage_errors() {
    let bad: [&[&str]; 6] = [
        &[],
        &["fig"],
        &["fig", "9"],
        &["study", "nope"],
        &["scenario", "nope"],
        &["fig", "3a", "extra"],
    ];
    for args in bad {
        let out = inc_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert!(
            stderr.starts_with("usage: inc-bench "),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_listed_figure_prints_its_csv() {
    let out = inc_bench(&["fig", "3b"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.starts_with("# figure: 3b"));
    assert!(stdout.contains("\nrate_mps,"));
}
