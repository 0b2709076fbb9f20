//! The benchmark's self-test: `BENCHMARK.json`, the metric tables and what
//! the binary actually prints must agree, and the same seed must give the
//! same simulated outputs. Every run here is `--quick`: one trial at a
//! tenth of the work.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

use inc_benchmark::json::Json;
use inc_benchmark::metrics::{END_TO_END, PER_LAYER};
use inc_benchmark::workloads::Workload;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn entries<'a>(doc: &'a Json, key: &str) -> Vec<&'a Json> {
    match doc.get(key) {
        Some(Json::Arr(items)) => items.iter().collect(),
        other => panic!("`{key}` should be an array, found {other:?}"),
    }
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` in {entry:?}"))
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// What one `--quick` run printed.
struct Run {
    /// The last line, parsed.
    result: Json,
    /// `metric -> value text` of the human-readable rows.
    rows: BTreeMap<String, String>,
}

fn quick(workload: Workload, seed: u64, traced: bool) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_inc-benchmark"))
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }, "--quick"])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{} seed {seed} trace {traced}: {}\n{}",
        workload.name(),
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let rows = stdout
        .lines()
        .filter_map(|l| {
            let mut words = l.split(' ');
            match (words.next(), words.next(), words.next(), words.next()) {
                (Some(w), Some(metric), Some(_unit), Some(value)) if w == workload.name() => {
                    Some((metric.to_string(), value.to_string()))
                }
                _ => None,
            }
        })
        .collect();
    Run {
        result: Json::parse(last).expect("the last line is one JSON object"),
        rows,
    }
}

fn metric_names(result: &Json) -> BTreeSet<String> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("a `metrics` object")
        .keys()
        .cloned()
        .collect()
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric `{metric}` has a value"))
}

#[test]
fn manifest_matches_the_tables() {
    let doc = manifest();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let workloads = entries(&doc, "workloads");
    let e2e = entries(&doc, "end_to_end");
    let layers = entries(&doc, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));

    let named: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(named, ours, "workloads, in order");
    for w in &workloads {
        let why = text(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "why of {w:?}"
        );
    }

    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, ours) in e2e.iter().zip(END_TO_END) {
        assert_eq!(text(entry, "name"), ours.name);
        assert_eq!(text(entry, "unit"), ours.unit, "{}", ours.name);
        assert_eq!(text(entry, "better"), ours.better.as_str(), "{}", ours.name);
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(ours.bound),
            "{}",
            ours.name
        );
    }
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(text(entry, "name"), *name);
        assert_eq!(text(entry, "unit"), *unit, "{name}");
        assert_eq!(text(entry, "better"), better.as_str(), "{name}");
    }

    let mut seen = BTreeSet::new();
    for entry in workloads.iter().chain(&e2e).chain(&layers) {
        let name = text(entry, "name");
        assert!(name_ok(name), "`{name}` is not a valid name");
        assert!(seen.insert(name), "`{name}` is used twice");
    }
}

#[test]
fn every_named_metric_is_emitted_and_nothing_else() {
    let e2e: BTreeSet<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    let layers: BTreeSet<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
    let mut measured_somewhere = BTreeSet::new();
    for workload in Workload::ALL {
        let run = quick(workload, 42, false);
        assert_eq!(metric_names(&run.result), e2e, "{}", workload.name());
        assert_eq!(
            run.result.get("correct"),
            Some(&Json::Bool(true)),
            "{}",
            workload.name()
        );
        assert_eq!(run.result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(run
            .result
            .get("attempted")
            .and_then(Json::as_f64)
            .is_some_and(|a| a >= 1.0));
        for m in END_TO_END {
            let v = value(&run.result, m.name);
            assert!(
                v.is_finite() && v > 0.0,
                "{} {} = {v}",
                workload.name(),
                m.name
            );
        }

        let run = quick(workload, 42, true);
        assert_eq!(metric_names(&run.result), layers, "{}", workload.name());
        assert_eq!(
            run.result.get("correct"),
            Some(&Json::Bool(true)),
            "{}",
            workload.name()
        );
        for (name, _, _) in PER_LAYER {
            assert!(
                value(&run.result, name).is_finite(),
                "{} {name}",
                workload.name()
            );
            // A row is printed only by a workload that measured it.
            if run.rows.contains_key(*name) {
                measured_somewhere.insert(name.to_string());
            }
        }
    }
    assert_eq!(
        measured_somewhere, layers,
        "every per-layer metric has a workload that measures it"
    );
}

#[test]
fn same_seed_same_simulated_outputs() {
    // Counts, model outputs and digests repeat exactly; host times do not.
    let exact_units = ["count", "J", "B"];
    for workload in Workload::ALL {
        for traced in [false, true] {
            let (a, b) = (quick(workload, 7, traced), quick(workload, 7, traced));
            for key in ["attempted", "failed", "correct"] {
                assert_eq!(
                    a.result.get(key),
                    b.result.get(key),
                    "{} {key}",
                    workload.name()
                );
            }
            assert_eq!(
                a.rows["sim_digest"],
                b.rows["sim_digest"],
                "{}",
                workload.name()
            );
            let metrics = a
                .result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            for (name, m) in metrics {
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                let (va, vb) = (value(&a.result, name), value(&b.result, name));
                if name.contains("alloc") {
                    // `inc_hw::DeviceFabric` keeps residencies in a
                    // `HashMap` with the default, randomly seeded hasher:
                    // its tombstones decide whether a table grows, so an
                    // allocation count can move by one in a million.
                    assert!(
                        (va - vb).abs() <= 1e-4 * va.abs(),
                        "{} {name}: {va} vs {vb}",
                        workload.name()
                    );
                } else if exact_units.contains(&unit) {
                    assert_eq!(va.to_bits(), vb.to_bits(), "{} {name}", workload.name());
                }
            }
        }
    }
}

#[test]
fn other_seeds_run_clean() {
    for seed in [1, 2, 20_260_927] {
        for workload in Workload::ALL {
            let run = quick(workload, seed, false);
            assert_eq!(
                run.result.get("correct"),
                Some(&Json::Bool(true)),
                "{} seed {seed}",
                workload.name()
            );
        }
    }
}
