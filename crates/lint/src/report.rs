//! Workspace walking, aggregation, human diagnostics and `lint.json`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::reach::{collect_reached, is_root};
use crate::rules::{rule_by_id, scan_source, Violation, Waiver, DECISION_CRATES, RULES};

/// Directories never scanned: build output, vendored deps, VCS
/// internals, the lint's own deliberately-violating fixtures, and the
/// CI artifact directory.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "bench-artifacts"];

/// The aggregated result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, waived or not, in path order.
    pub violations: Vec<Violation>,
    /// Waivers that matched nothing (stale annotations worth deleting).
    pub unused_waivers: Vec<(String, Waiver)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings not covered by a waiver.
    pub fn unwaived(&self) -> usize {
        self.violations.iter().filter(|v| !v.waived).count()
    }

    /// Findings covered by a waiver.
    pub fn waived(&self) -> usize {
        self.violations.iter().filter(|v| v.waived).count()
    }

    /// Waived determinism findings inside the sans-IO decision crates,
    /// which the contract forbids: those crates must be clean, not
    /// quiet. The size rule may be waived there like anywhere else.
    pub fn decision_crate_waivers(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| {
                v.waived
                    && rule_by_id(v.rule).is_some_and(|r| r.determinism)
                    && DECISION_CRATES.iter().any(|c| v.file.starts_with(c))
            })
            .count()
    }

    /// Whether `--check` should pass.
    pub fn is_clean(&self) -> bool {
        self.unwaived() == 0 && self.decision_crate_waivers() == 0
    }

    /// Per-rule (unwaived, waived) counts, including rules that never
    /// fired (so `lint.json` consumers see the full rule table).
    pub fn per_rule(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut map: BTreeMap<&'static str, (usize, usize)> =
            RULES.iter().map(|r| (r.id, (0, 0))).collect();
        for v in &self.violations {
            let entry = map.entry(v.rule).or_insert((0, 0));
            if v.waived {
                entry.1 += 1;
            } else {
                entry.0 += 1;
            }
        }
        map
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root` (excluding `SKIP_DIRS`) and
/// aggregates the findings. Paths in the report are root-relative with
/// `/` separators regardless of platform.
///
/// Two passes: the first collects the names every root reaches, the
/// second scans each file with that set, so `unreached-pub` waivers
/// resolve per file like any other.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push((rel, fs::read_to_string(&path)?));
    }
    let mut reached = BTreeSet::new();
    for (rel, source) in &sources {
        if is_root(rel) {
            collect_reached(source, &mut reached);
        }
    }
    let mut report = Report::default();
    for (rel, source) in sources {
        let file_report = scan_source(&rel, &source, &reached);
        report.files_scanned += 1;
        report.violations.extend(file_report.violations);
        report.unused_waivers.extend(
            file_report
                .unused_waivers
                .into_iter()
                .map(|w| (rel.clone(), w)),
        );
    }
    Ok(report)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable `lint.json` document.
pub fn to_json(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    s.push_str(&format!("  \"unwaived\": {},\n", report.unwaived()));
    s.push_str(&format!("  \"waived\": {},\n", report.waived()));
    s.push_str(&format!(
        "  \"decision_crate_waivers\": {},\n",
        report.decision_crate_waivers()
    ));
    s.push_str("  \"rules\": {\n");
    let per_rule = report.per_rule();
    let mut first = true;
    for (rule, (unwaived, waived)) in &per_rule {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        s.push_str(&format!(
            "    \"{rule}\": {{ \"unwaived\": {unwaived}, \"waived\": {waived} }}"
        ));
    }
    s.push_str("\n  },\n");
    s.push_str("  \"violations\": [\n");
    let mut first = true;
    for v in &report.violations {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let reason = match &v.waiver_reason {
            Some(r) => format!("\"{}\"", json_escape(r)),
            None => "null".to_string(),
        };
        s.push_str(&format!(
            "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"snippet\": \"{}\", \
             \"waived\": {}, \"reason\": {} }}",
            json_escape(v.rule),
            json_escape(&v.file),
            v.line,
            json_escape(&v.snippet),
            v.waived,
            reason
        ));
    }
    s.push_str("\n  ],\n");
    s.push_str("  \"unused_waivers\": [\n");
    let mut first = true;
    for (file, w) in &report.unused_waivers {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        s.push_str(&format!(
            "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {} }}",
            json_escape(&w.rule),
            json_escape(file),
            w.line
        ));
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Renders human diagnostics to a string (one block per finding).
pub fn to_human(report: &Report) -> String {
    let mut s = String::new();
    for v in &report.violations {
        if v.waived {
            continue;
        }
        s.push_str(&format!(
            "error[{}]: {}:{}\n    {}\n",
            v.rule, v.file, v.line, v.snippet
        ));
    }
    for v in &report.violations {
        if let Some(reason) = &v.waiver_reason {
            s.push_str(&format!(
                "waived[{}]: {}:{} ({})\n",
                v.rule, v.file, v.line, reason
            ));
        }
    }
    for (file, w) in &report.unused_waivers {
        s.push_str(&format!(
            "warning[unused-waiver]: {}:{} waives `{}` but nothing fires there\n",
            file, w.line, w.rule
        ));
    }
    let dcw = report.decision_crate_waivers();
    if dcw > 0 {
        s.push_str(&format!(
            "error[decision-crate-waiver]: {dcw} determinism waiver(s) inside sans-IO \
             decision crates (these crates must be clean, not quiet)\n"
        ));
    }
    s.push_str(&format!(
        "{} file(s) scanned: {} unwaived, {} waived, {} unused waiver(s)\n",
        report.files_scanned,
        report.unwaived(),
        report.waived(),
        report.unused_waivers.len()
    ));
    s
}
