//! The `inc-bench` command line: positional subcommands only, no flags
//! and no environment variables.

use std::process::ExitCode;

use inc_sim::Nanos;

use crate::scenarios::{scenario, Scenario, SCENARIOS};
use crate::{figures, studies};

/// One `fig` or `study` entry: the name the subcommand takes, one line
/// on what it regenerates, and the function that prints it.
pub type Entry = (&'static str, &'static str, fn());

/// `inc-bench fig <id>`: the paper's figures.
#[rustfmt::skip]
pub const FIGURES: [Entry; 7] = [
    ("3a", "KVS power vs throughput, spot-checked in simulation", figures::fig3a),
    ("3b", "Paxos power vs throughput, eight deployments", figures::fig3b),
    ("3c", "DNS power vs throughput, spot-checked in simulation", figures::fig3c),
    ("4", "LaKe design trade-offs, nine standalone configurations", figures::fig4),
    ("5", "on-demand power envelope vs software-only", figures::fig5),
    ("6", "KVS software -> network -> software, host-controlled", figures::fig6),
    ("7", "Paxos leader software -> network -> software", figures::fig7),
];

/// `inc-bench study <name>`: the analyses that are not a numbered figure.
#[rustfmt::skip]
pub const STUDIES: [Entry; 9] = [
    ("asic", "§6 Tofino normalized power and the msg/W ladder", studies::asic),
    ("controller_compare", "§9.1 host vs network controller", studies::controller_compare),
    ("energy_model", "§8 the energy model's two placement questions", studies::energy_model),
    ("lake_design", "§5 LaKe power, capacities and latency ladder", studies::lake_design),
    ("park_ablation", "§9.2 parking: cold, warm, reconfigure", studies::park_ablation),
    ("pe_scaling", "§5.2 LaKe throughput and power vs PE count", studies::pe_scaling),
    ("server", "§7 Xeon-class server power under synthetic load", studies::server),
    ("tor", "§9.4 ToR switch on demand: tipping point, partial offload", studies::tor),
    ("trace", "§9.3 Google and Dynamo analyses on synthesized traces", studies::trace),
];

/// What `inc-bench list` prints: one `<subcommand> <name> — <about>`
/// line per dispatchable entry.
pub fn list() -> String {
    let entries = |kind: &'static str, table: &'static [Entry]| {
        table
            .iter()
            .map(move |(name, about, _)| format!("{kind} {name} — {about}\n"))
    };
    let scenarios = SCENARIOS
        .iter()
        .map(|s| format!("scenario {} — {}\n", s.name, s.about));
    entries("fig", &FIGURES)
        .chain(entries("study", &STUDIES))
        .chain(scenarios)
        .collect()
}

/// Dispatches `args` (without the program name). An unknown or missing
/// subcommand prints the usage to stderr and returns exit code 2.
pub fn run(args: &[String]) -> ExitCode {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let entry = |table: &[Entry], name: &str| table.iter().find(|e| e.0 == name).map(|e| e.2);
    let found = match args[..] {
        ["list"] => {
            print!("{}", list());
            true
        }
        ["fig", id] => entry(&FIGURES, id).map(|print| print()).is_some(),
        ["study", name] => entry(&STUDIES, name).map(|print| print()).is_some(),
        ["scenario", "all"] => {
            SCENARIOS.iter().for_each(Scenario::report);
            true
        }
        ["scenario", name] => scenario(name).map(Scenario::report).is_some(),
        // A time past the horizon is the scenario's to refuse; `as`
        // saturates an infinite one to the end of time.
        ["explain", name, app, secs] => match (scenario(name), secs.parse::<f64>()) {
            (Some(s), Ok(t)) if t >= 0.0 => {
                s.explain(app, Nanos::from_nanos((t * 1e9).round() as u64))
            }
            _ => false,
        },
        _ => false,
    };
    if found {
        return ExitCode::SUCCESS;
    }
    let usage = "usage: inc-bench fig <id> | study <name> | scenario <name>|all \
                 | explain <scenario> <app> <seconds> | list";
    eprint!("{usage}\n\n{}", list());
    ExitCode::from(2)
}
