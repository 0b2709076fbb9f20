//! The repo's benchmark: six fixed-work workloads, an end-to-end pass, a
//! traced per-layer pass and the correctness checks, in one command.
//!
//! ```text
//! inc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! inc-benchmark [--seed N] [--quick] [--out DIR]
//! inc-benchmark compare A.json B.json
//! ```
//!
//! With `--workload`, one pass of one workload runs in this process and
//! the last line of standard output is the result object `BENCHMARK.json`
//! describes. Without it, every workload runs both passes, each in a
//! child process of its own (so `peak_rss_mb` and allocator state are per
//! workload), and `results.json` plus one `trace_<workload>.jsonl` per
//! workload land in `--out` (default `benchmark/out`). Load is generated
//! from one thread of one process at a time.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use inc_benchmark::json::Json;
use inc_benchmark::run::{self, Budget};
use inc_benchmark::workloads::Workload;
use inc_benchmark::{alloc, host, report};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  inc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
  inc-benchmark [--seed N] [--quick] [--out DIR]
  inc-benchmark compare A.json B.json
workloads: heavy_stream heavy_events fleet_quiet fleet_rescore packet_fabric paxos_chaos";

/// The line a child prefixes its detail object with, for the parent.
const DETAIL_PREFIX: &str = "detail ";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    detail: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: 0.0,
        traced: false,
        quick: false,
        detail: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{arg}` needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=120.0).contains(&parsed.seconds) {
                    return Err("--seconds must be between 0 and 120".into());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--quick" => parsed.quick = true,
            "--detail" => parsed.detail = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// One pass of one workload in this process.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let budget = Budget {
        seconds: args.seconds,
        quick: args.quick,
    };
    let result = if args.traced {
        run::traced(workload, args.seed, budget)
    } else {
        run::end_to_end(workload, args.seed, budget)
    };
    result.print_rows();
    if let (Some(dir), Some(tracer)) = (&args.out, &result.tracer) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace_{}.jsonl", workload.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{} trace {} spans -> {}",
            workload.name(),
            tracer.spans().len(),
            path.display()
        );
    }
    if args.detail {
        println!("{DETAIL_PREFIX}{}", result.detail().render());
    }
    // A printed result is a completed run: whether it was correct is in
    // the object, not in the exit code.
    println!("{}", result.contract_line());
    Ok(true)
}

/// Every workload, both passes, each in a child process; then
/// `results.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let started = host::now();
    let mut passes = Vec::new();
    let mut all_correct = true;
    for traced in [false, true] {
        println!(
            "== {} pass, seed {} ==",
            if traced {
                "traced (per-layer)"
            } else {
                "end-to-end"
            },
            args.seed
        );
        for workload in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                workload.name(),
                "--seed",
                &args.seed.to_string(),
            ])
            .args([
                "--trace",
                if traced { "1" } else { "0" },
                "--detail",
                "--out",
            ])
            .arg(&out)
            .stdout(Stdio::piped());
            if args.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child to end before returning.
            let output = cmd
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut detail = None;
            let lines: Vec<&str> = stdout.lines().collect();
            // The child's last line is the driver's contract object; the
            // full run reports through results.json instead.
            for line in &lines[..lines.len().saturating_sub(1)] {
                match line.strip_prefix(DETAIL_PREFIX) {
                    Some(json) => detail = Some(Json::parse(json)?),
                    None => println!("{line}"),
                }
            }
            let detail = detail.ok_or_else(|| {
                format!("{} ({}) printed no result", workload.name(), output.status)
            })?;
            all_correct &=
                output.status.success() && detail.get("correct") == Some(&Json::Bool(true));
            passes.push((workload.name().to_string(), traced, detail));
        }
    }
    let path = out.join("results.json");
    let doc = report::results(args.seed, args.quick, passes);
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "== {} in {:.1} s -> {} ==",
        if all_correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        host::secs_since(started),
        path.display()
    );
    Ok(all_correct)
}

fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (table, regressed) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two results.json paths".into()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&args).and_then(|parsed| match parsed.workload {
            Some(workload) => run_one(workload, &parsed),
            None => run_all(&parsed),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("inc-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
