//! CLI for the determinism & sans-IO contract checker.
//!
//! ```text
//! inc-lint [--root DIR] [--check] [--json PATH] [--list-rules]
//! ```
//!
//! `--check` exits non-zero on any unwaived violation (or any waiver of a
//! determinism rule inside the sans-IO decision crates). `--json PATH` writes the
//! machine-readable report CI uploads alongside the bench artifacts.

use std::path::PathBuf;
use std::process::ExitCode;

use inc_lint::{lint_workspace, to_human, to_json, RULES};

fn usage() -> &'static str {
    "usage: inc-lint [--root DIR] [--check] [--json PATH] [--list-rules]"
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut check = false;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(d) => root = PathBuf::from(d),
                None => {
                    eprintln!("{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--check" => check = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for r in RULES {
                    println!("{:<18} {}", r.id, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("inc-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    print!("{}", to_human(&report));

    if let Some(path) = json_path {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("inc-lint: cannot create {}: {e}", parent.display());
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = std::fs::write(&path, to_json(&report)) {
            eprintln!("inc-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }

    if check && !report.is_clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
