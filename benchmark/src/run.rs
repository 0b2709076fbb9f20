//! One workload, one process, one pass: the end-to-end pass (tracing off)
//! or the traced pass (per-layer sheet), each followed by the untimed
//! correctness checks.

use crate::host;
use crate::json::Json;
use crate::layers::{self, Sheet};
use crate::metrics::{iqr_spread, median, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{self, Check, Size, Trial, Workload};

/// How long and how much one pass runs.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Keep starting measured trials until this many host seconds of them
    /// have run (0: the trial count alone decides).
    pub seconds: f64,
    /// A tenth of the work, one trial, no warm-up (self-test only).
    pub quick: bool,
}

impl Budget {
    /// Measured trials every pass runs at least (ISSUE: 1 warm-up + 5).
    fn min_trials(self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }
}

/// One reported number with the trials behind it.
#[derive(Clone, Debug)]
pub struct Stat {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (median trial, or the one reading).
    pub value: f64,
    /// Smallest trial.
    pub min: f64,
    /// Largest trial.
    pub max: f64,
    /// Trials (1 for a single reading).
    pub n: usize,
    /// Interquartile range of the trials over their median (0 for fewer
    /// than two trials): the run-to-run spread `compare` holds against
    /// the metric's bound.
    pub spread: f64,
}

impl Stat {
    fn of(name: &'static str, unit: &'static str, trials: &[f64]) -> Stat {
        Stat {
            name,
            unit,
            value: median(trials),
            min: trials.iter().copied().fold(f64::INFINITY, f64::min),
            max: trials.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: trials.len(),
            spread: iqr_spread(trials),
        }
    }
}

/// What one pass of one workload produced.
pub struct PassResult {
    /// The workload.
    pub workload: Workload,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Ops attempted over the measured trials.
    pub attempted: u64,
    /// Ops failed over the measured trials, plus one per failed check.
    pub failed: u64,
    /// The workload's `sim_digest`.
    pub digest: u64,
    /// Every metric of the pass.
    pub stats: Vec<Stat>,
    /// Every check of the pass.
    pub checks: Vec<Check>,
    /// The last traced trial's spans (traced pass only).
    pub tracer: Option<Tracer>,
}

impl PassResult {
    /// Whether every op succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the metrics being every end-to-end metric
    /// (untraced) or every per-layer metric (traced; a layer the workload
    /// bypasses reads 0).
    pub fn contract_line(&self) -> String {
        let value_of = |name: &str| {
            self.stats
                .iter()
                .find(|s| s.name == name)
                .map_or(0.0, |s| s.value)
        };
        let entry = |name: &str, unit: &str| {
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value_of(name))),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        };
        let metrics = if self.traced {
            Json::obj(PER_LAYER.iter().map(|(n, u, _)| entry(n, u)))
        } else {
            Json::obj(END_TO_END.iter().map(|m| entry(m.name, m.unit)))
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }

    /// Everything the pass knows, for `results.json`.
    pub fn detail(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.name().into())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("sim_digest", Json::Str(format!("{:016x}", self.digest))),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::Str(c.name.into())),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::Str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::obj(self.stats.iter().map(|s| {
                    (
                        s.name,
                        Json::obj([
                            ("value", Json::Num(s.value)),
                            ("unit", Json::Str(s.unit.into())),
                            ("min", Json::Num(s.min)),
                            ("max", Json::Num(s.max)),
                            ("trials", Json::Num(s.n as f64)),
                            ("spread", Json::Num(s.spread)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The human-readable rows: `workload metric unit value` with the
    /// trial range and count beside it, then the checks.
    pub fn print_rows(&self) {
        let w = self.workload.name();
        for s in &self.stats {
            if s.n > 1 {
                println!(
                    "{w} {} {} {} (min {} max {} n {})",
                    s.name, s.unit, s.value, s.min, s.max, s.n
                );
            } else {
                println!("{w} {} {} {}", s.name, s.unit, s.value);
            }
        }
        println!("{w} ops_attempted count {}", self.attempted);
        println!("{w} ops_failed count {}", self.failed);
        println!("{w} sim_digest hex {:016x}", self.digest);
        for c in &self.checks {
            println!(
                "{w} check {} {} — {}",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
    }
}

/// One trial on a fresh rig: untimed set-up, then the measured region.
fn one_trial(workload: Workload, seed: u64, size: Size, tr: &mut Tracer) -> Trial {
    let prepared = workloads::prepare(workload, seed, size, tr);
    workloads::measure(workload, prepared, size, tr)
}

/// The checks shared by both passes: each trial's own, the determinism of
/// repeated trials, and the cross-mode equivalences.
fn check_all(workload: Workload, seed: u64, size: Size, trials: &[Trial]) -> (Vec<Check>, u64) {
    let mut checks: Vec<Check> = trials.last().map(|t| t.checks.clone()).unwrap_or_default();
    let first = &trials[0];
    let same = trials.iter().all(|t| {
        t.digest == first.digest && t.attempted == first.attempted && t.failed == first.failed
    });
    checks.push(Check {
        name: "same_seed_same_outputs",
        ok: same,
        detail: format!("{} trials, digest {:016x}", trials.len(), first.digest),
    });
    checks.extend(workloads::verify(workload, seed, size));
    let failed_ops: u64 = trials.iter().map(|t| t.failed).sum();
    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    (checks, failed_ops + failed_checks)
}

/// The end-to-end pass: set-up samples, one discarded warm-up, measured
/// trials with tracing off.
pub fn end_to_end(workload: Workload, seed: u64, budget: Budget) -> PassResult {
    let size = Size::of(workload, budget.quick);
    let mut off = Tracer::off();

    // Set-up, several times over: each sample constructs and drops a
    // batch of rigs back to back, so that it times milliseconds.
    let (samples, batch) = if budget.quick {
        (3, 2)
    } else {
        (15, workload.setup_batch())
    };
    let setup: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = host::now();
            for _ in 0..batch {
                drop(workloads::prepare(workload, seed, size, &mut off));
            }
            host::secs_since(t0) / f64::from(batch)
        })
        .collect();

    if !budget.quick {
        drop(one_trial(workload, seed, size, &mut off));
    }
    let mut trials: Vec<Trial> = Vec::new();
    let mut spent = 0.0;
    while trials.len() < budget.min_trials() || spent < budget.seconds {
        let trial = one_trial(workload, seed, size, &mut off);
        spent += trial.wall_s;
        trials.push(trial);
    }
    // Before the verify pass, which builds rigs of its own.
    let peak_rss = host::peak_rss_mib();

    let per_trial = |f: fn(&Trial) -> f64| trials.iter().map(f).collect::<Vec<f64>>();
    let stats = END_TO_END
        .iter()
        .map(|m| {
            let values = match m.name {
                "ops_per_s" => per_trial(|t| t.ops() as f64 / t.wall_s),
                "cpu_ns_per_op" => per_trial(|t| t.cpu_s * 1e9 / t.ops().max(1) as f64),
                "allocs_per_kop" => per_trial(|t| t.allocs as f64 * 1e3 / t.ops().max(1) as f64),
                "peak_rss_mb" => vec![peak_rss],
                "setup_s" => setup.clone(),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            Stat::of(m.name, m.unit, &values)
        })
        .collect();

    let (checks, failed) = check_all(workload, seed, size, &trials);
    PassResult {
        workload,
        seed,
        traced: false,
        attempted: trials.iter().map(|t| t.attempted).sum(),
        failed,
        digest: trials[0].digest,
        stats,
        checks,
        tracer: None,
    }
}

/// Room for every span of one trial, so that recording never reallocates
/// inside the measured region.
fn span_capacity(workload: Workload, size: Size) -> usize {
    match workload {
        Workload::HeavyStream | Workload::HeavyEvents | Workload::PacketFabric => {
            size.rigs as usize + 16
        }
        Workload::FleetQuiet | Workload::FleetRescore => {
            (2 * size.fleet_ticks * size.rigs) as usize + 4 * size.rigs as usize + 16
        }
        Workload::PaxosChaos => {
            let per_epoch = 4 * workloads::CHAOS_PLAN.rounds as usize + 256;
            size.chaos_epochs as usize * per_epoch + 16
        }
    }
}

/// The traced pass: the probes, a warm-up, then untraced and traced
/// trials in alternation (their ratio is the tracing overhead); the
/// per-layer sheet is the per-metric median over the traced trials.
pub fn traced(workload: Workload, seed: u64, budget: Budget) -> PassResult {
    let size = Size::of(workload, budget.quick);
    let costs = layers::run_probes(seed, budget.quick);
    let mut off = Tracer::off();
    if !budget.quick {
        drop(one_trial(workload, seed, size, &mut off));
    }
    let min_pairs = if budget.quick { 1 } else { 2 };
    let mut all: Vec<Trial> = Vec::new();
    let mut sheets: Vec<Sheet> = Vec::new();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last: Option<Tracer> = None;
    let mut spent = 0.0;
    while sheets.len() < min_pairs || spent < budget.seconds {
        let plain = one_trial(workload, seed, size, &mut off);
        // The previous trial's spans are dropped before the next buffer
        // is allocated: one buffer alive at a time.
        drop(last.take());
        let mut tr = Tracer::on(span_capacity(workload, size));
        let with_spans = one_trial(workload, seed, size, &mut tr);
        spent += plain.wall_s + with_spans.wall_s;
        plain_s.push(plain.wall_s);
        traced_s.push(with_spans.wall_s);
        sheets.push(layers::sheet(workload, &with_spans, &tr, &costs));
        last = Some(tr);
        all.push(plain);
        all.push(with_spans);
    }
    let overhead_pct = 100.0 * (median(&traced_s) / median(&plain_s) - 1.0);

    let mut stats: Vec<Stat> = PER_LAYER
        .iter()
        .filter_map(|&(name, unit, _)| {
            let per_trial: Vec<f64> = sheets.iter().filter_map(|s| s.get(name).copied()).collect();
            (!per_trial.is_empty()).then(|| Stat::of(name, unit, &per_trial))
        })
        .collect();
    stats.push(Stat::of("trace.overhead_pct", "%", &[overhead_pct]));

    let (checks, failed) = check_all(workload, seed, size, &all);
    PassResult {
        workload,
        seed,
        traced: true,
        attempted: all.iter().map(|t| t.attempted).sum(),
        failed,
        digest: all[0].digest,
        stats,
        checks,
        tracer: last,
    }
}
