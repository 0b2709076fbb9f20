//! `results.json` and the `compare` subcommand.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};

/// Assembles `results.json` from the detail objects of every pass:
/// `workloads.<name>.end_to_end` and `.per_layer`.
pub fn results(seed: u64, quick: bool, passes: Vec<(String, bool, Json)>) -> Json {
    let mut by_workload: std::collections::BTreeMap<String, Vec<(&str, Json)>> = Default::default();
    for (workload, traced, detail) in passes {
        let key = if traced { "per_layer" } else { "end_to_end" };
        by_workload.entry(workload).or_default().push((key, detail));
    }
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
        (
            "workloads",
            Json::obj(
                by_workload
                    .into_iter()
                    .map(|(w, passes)| (w, Json::obj(passes))),
            ),
        ),
    ])
}

/// How a metric moved from A to B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread of A or B is wider than the bound, so the
    /// comparison cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric: `a` and `b` are the two medians, `noise`
/// the wider of their spreads.
pub fn judge(a: f64, b: f64, noise: f64, bound: f64, better: Better) -> Verdict {
    if noise > bound {
        return Verdict::Unresolved;
    }
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn metric<'a>(results: &'a Json, workload: &str, pass: &str, name: &str) -> Option<&'a Json> {
    results
        .get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(name)
}

/// Compares two `results.json` documents: one row per (workload,
/// end-to-end metric) with both medians, the ratio and its base, the
/// spread and the bound; then one row per workload for the simulated
/// outputs. Returns the table and whether anything regressed.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A has no `workloads` object")?;
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<20} {:>16} {:>16} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "spread", "bound"
    );
    for workload in workloads.keys() {
        for m in END_TO_END {
            let (Some(ma), Some(mb)) = (
                metric(a, workload, "end_to_end", m.name),
                metric(b, workload, "end_to_end", m.name),
            ) else {
                let _ = writeln!(out, "{workload:<14} {:<20} missing on one side", m.name);
                regressed = true;
                continue;
            };
            let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let (va, vb) = (num(ma, "value"), num(mb, "value"));
            let noise = num(ma, "spread").max(num(mb, "spread"));
            let verdict = judge(va, vb, noise, m.bound, m.better);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{workload:<14} {:<20} {va:>16.6} {vb:>16.6} {:>9.4} {:>7.2}% {:>5.0}%  {} ({} is better)",
                m.name,
                vb / va,
                100.0 * noise,
                100.0 * m.bound,
                verdict.as_str(),
                m.better.as_str(),
            );
        }
        let digest = |r: &Json| {
            r.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("end_to_end"))
                .and_then(|p| p.get("sim_digest"))
                .and_then(Json::as_str)
                .unwrap_or("-")
                .to_string()
        };
        let (da, db) = (digest(a), digest(b));
        let _ = writeln!(
            out,
            "{workload:<14} {:<20} {da:>16} {db:>16} {:>9}",
            "sim_digest",
            if da == db { "same" } else { "DIFFERS" }
        );
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 104.0, 0.01, 0.08, Lower), Verdict::Unchanged);
        assert_eq!(judge(100.0, 110.0, 0.01, 0.08, Lower), Verdict::Regressed);
        assert_eq!(judge(100.0, 110.0, 0.01, 0.08, Higher), Verdict::Improved);
        assert_eq!(judge(100.0, 90.0, 0.01, 0.08, Higher), Verdict::Regressed);
        assert_eq!(judge(100.0, 90.0, 0.09, 0.08, Higher), Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_results_documents() {
        let side = |ops: f64| {
            let metrics = Json::obj(END_TO_END.iter().map(|m| {
                let v = if m.name == "ops_per_s" { ops } else { 1.0 };
                (
                    m.name,
                    Json::obj([("value", Json::Num(v)), ("spread", Json::Num(0.01))]),
                )
            }));
            let pass = Json::obj([("metrics", metrics), ("sim_digest", Json::Str("ab".into()))]);
            results(42, false, vec![("heavy_stream".into(), false, pass)])
        };
        let (table, regressed) = compare(&side(100.0), &side(70.0)).expect("well-formed inputs");
        assert!(regressed);
        assert!(table.contains("regressed") && table.contains("same"));
        let (_, regressed) = compare(&side(100.0), &side(101.0)).expect("well-formed inputs");
        assert!(!regressed);
    }
}
