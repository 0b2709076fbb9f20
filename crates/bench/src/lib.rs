//! Simulation rigs, the scheduling-scenario table and the one `inc-bench`
//! binary that regenerates the paper's figures and tables.
//!
//! `inc-bench list` prints the index; every entry is a function here:
//!
//! * `fig 3a|3b|3c|4|5|6|7` — [`figures`]: power vs throughput for KVS,
//!   Paxos and DNS (§4), LaKe's design trade-offs (§5), the on-demand
//!   envelope (§9) and the two shift timelines (Figures 6 and 7);
//! * `study asic|controller_compare|energy_model|lake_design|`
//!   `park_ablation|pe_scaling|server|tor|trace` — [`studies`]: the §5–§9
//!   analyses and ablations that are not a numbered figure;
//! * `scenario shared_device|multi_tor|fairness|topology|economics|`
//!   `device_kill|tor_partition|budget_flap|all` —
//!   [`scenarios::SCENARIOS`]: each scheduling scenario under its fleet
//!   controller and static baselines, one JSON object as the last line.
//!   The last three are the consensus chaos scenarios.
//!
//! Figures and studies print `# ...` comment lines with the headline
//! observations and the paper-reported values they reproduce, then CSV
//! rows (`x,series1,series2,...`) with the figure data. The analytic
//! sweeps come from `inc_ondemand::apps`; spot points are cross-checked
//! against full event simulations built by [`rigs`]. [`consensus`] holds
//! the chaos cluster and the rig behind the chaos scenarios, [`heavy`]
//! the trace-replay rig `benchmark/` drives.

pub mod cli;
pub mod consensus;
pub mod economics;
pub mod figures;
pub mod heavy;
pub mod rigs;
pub mod scenarios;
pub mod studies;

use inc_ondemand::Deployment;

/// A named data series (one figure line).
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend name.
    pub name: String,
    /// (x, y) points.
    pub points: Vec<(f64, f64)>,
}

/// Sweeps deployment power models over `0..=max_x` in `points` steps.
pub fn sweep_power(models: &[Deployment], max_x: f64, points: usize) -> Vec<Series> {
    models
        .iter()
        .map(|m| Series {
            name: m.name.to_string(),
            points: (0..=points)
                .map(|i| {
                    let x = max_x * i as f64 / points as f64;
                    (x, m.power_w(x))
                })
                .collect(),
        })
        .collect()
}

/// The deployment called `name` in one of `inc_ondemand::apps`' model
/// lists.
///
/// # Panics
///
/// Panics if no model has that name (a typo in a figure, not an input).
pub fn named<'a>(models: &'a [Deployment], name: &str) -> &'a Deployment {
    let model = models.iter().find(|m| m.name == name);
    model.unwrap_or_else(|| panic!("no deployment model named {name}"))
}

/// Prints series as CSV: a header row, then one row per x value of the
/// first series.
///
/// The series are expected to share their x grid (as [`sweep_power`]
/// guarantees); a series shorter than the first leaves its cell empty.
pub fn print_csv(x_label: &str, series: &[Series]) {
    print!("{}", render_csv(x_label, series));
}

fn render_csv(x_label: &str, series: &[Series]) -> String {
    let mut header = vec![x_label.to_string()];
    header.extend(series.iter().map(|s| s.name.clone()));
    let mut out = header.join(",") + "\n";
    let Some(first) = series.first() else {
        return out;
    };
    for (i, (x, _)) in first.points.iter().enumerate() {
        let mut row = vec![format!("{x}")];
        for s in series {
            row.push(
                s.points
                    .get(i)
                    .map_or(String::new(), |p| format!("{:.2}", p.1)),
            );
        }
        out += &(row.join(",") + "\n");
    }
    out
}

/// Prints a `# key: value` annotation line.
pub fn note(key: &str, value: impl std::fmt::Display) {
    println!("# {key}: {value}");
}

/// Prints a markdown-ish aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "# {}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("# {}", fmt_row(row));
    }
}

/// Relative difference |a-b| / max(|b|, eps).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inc_ondemand::apps::kvs_models;

    #[test]
    fn sweep_produces_shared_grid() {
        let s = sweep_power(&kvs_models(), 1e6, 10);
        assert_eq!(s.len(), 3);
        for series in &s {
            assert_eq!(series.points.len(), 11);
            assert_eq!(series.points[0].0, 0.0);
            assert_eq!(series.points[10].0, 1e6);
        }
    }

    /// A later series shorter than the first used to index out of bounds
    /// half-way through the CSV; it leaves its cells empty instead.
    #[test]
    fn ragged_series_leave_empty_cells() {
        let series = |name: &str, ys: &[f64]| Series {
            name: name.into(),
            points: ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect(),
        };
        let csv = render_csv("x", &[series("a", &[1.0, 2.0, 3.0]), series("b", &[9.0])]);
        assert_eq!(csv, "x,a,b\n0,1.00,9.00\n1,2.00,\n2,3.00,\n");
        assert_eq!(render_csv("x", &[]), "x\n");
    }

    #[test]
    fn rel_diff_basics() {
        assert!(rel_diff(100.0, 100.0) < 1e-12);
        assert!((rel_diff(110.0, 100.0) - 0.1).abs() < 1e-9);
    }
}
