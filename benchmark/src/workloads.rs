//! The six fixed-work workloads: what each sets up, what its measured
//! region runs, what it counts, and how its outputs are checked.
//!
//! A trial is `prepare` (untimed set-up on a fresh rig) followed by
//! `measure` (the timed region). Work per trial is fixed by the workload's
//! size, never by the clock; the same seed gives the same inputs, the same
//! counts and the same digest on every trial.

use crate::alloc;
use crate::host;
use crate::surface::{
    ArbiterCounters, Chaos, ChaosOutcome, ChaosPlan, Digest, Fleet, Heavy, PacketFabric,
    CHAOS_PVALUE_BYTES, CHAOS_WIRE_LIMIT, FLEET_TENANTS, HEAVY_TENANTS,
};
use crate::trace::Tracer;

/// The workloads, in the order they are listed and run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Streaming measurement plane: histogram + generator, no events.
    HeavyStream,
    /// Same rig, one simulator event per request, full row log.
    HeavyEvents,
    /// Incremental arbitration on a quiet fleet.
    FleetQuiet,
    /// Full re-score arbitration every tick.
    FleetRescore,
    /// Real packets through KVS, DNS and Paxos on two ToRs.
    PacketFabric,
    /// Multi-Paxos epochs under loss, duplication and a leader kill.
    PaxosChaos,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 6] = [
        Workload::HeavyStream,
        Workload::HeavyEvents,
        Workload::FleetQuiet,
        Workload::FleetRescore,
        Workload::PacketFabric,
        Workload::PaxosChaos,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HeavyStream => "heavy_stream",
            Workload::HeavyEvents => "heavy_events",
            Workload::FleetQuiet => "fleet_quiet",
            Workload::FleetRescore => "fleet_rescore",
            Workload::PacketFabric => "packet_fabric",
            Workload::PaxosChaos => "paxos_chaos",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many set-ups one `setup_s` sample times back to back, so that
    /// the sample is tens of milliseconds rather than tens of
    /// microseconds; the reported value is per set-up.
    pub fn setup_batch(self) -> u32 {
        match self {
            Workload::HeavyStream | Workload::HeavyEvents => 100,
            Workload::FleetQuiet | Workload::FleetRescore => 32,
            Workload::PacketFabric => 96,
            Workload::PaxosChaos => 800,
        }
    }
}

/// Work per trial. `quick` is a tenth of the full size (self-test only).
///
/// A trial of the heavy and fleet workloads is split over several rigs,
/// each seeded from the run's seed: what a seed decides — which tenants
/// are hot, where they live — otherwise moves the work per op by more
/// than any bound (±8 % on `fleet_quiet`), and the numbers of two seeds
/// would not be comparable. The packet fabric's work does not depend on
/// its seed (allocations per op move by 0.01 %), and `paxos_chaos` already
/// runs 200 seeded clusters.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Heavy and fleet workloads: rigs per trial.
    pub rigs: u64,
    /// Heavy rigs: sampling intervals replayed on each rig.
    pub heavy_intervals: u64,
    /// Fleet rigs: controller ticks on each rig.
    pub fleet_ticks: u64,
    /// Packet fabric: simulated horizon, milliseconds.
    pub packet_horizon_ms: u64,
    /// Paxos: epochs (fresh clusters) per trial.
    pub chaos_epochs: u64,
    /// Intervals of the heavy stream≡events check.
    pub verify_heavy_intervals: u64,
    /// Ticks of the fleet quiet≡rescore check.
    pub verify_fleet_ticks: u64,
}

impl Size {
    /// The size of `workload`: per trial 12 000 intervals (`heavy_stream`),
    /// 600 (`heavy_events`), 60 000 ticks (`fleet_quiet`), 5 000
    /// (`fleet_rescore`), 10.5 simulated seconds, 200 epochs.
    pub fn of(workload: Workload, quick: bool) -> Size {
        let div = if quick { 10 } else { 1 };
        let rigs = 8;
        Size {
            rigs,
            heavy_intervals: match workload {
                Workload::HeavyStream => 12_000 / rigs / div,
                _ => 600 / rigs / div,
            },
            fleet_ticks: match workload {
                Workload::FleetQuiet => 60_000 / rigs / div,
                _ => 5_000 / rigs / div,
            },
            packet_horizon_ms: 10_500 / div,
            chaos_epochs: 200 / div,
            verify_heavy_intervals: 600 / div,
            verify_fleet_ticks: 5_000 / div,
        }
    }
}

/// The seed of the `k`-th rig (or epoch) of a run seeded with `seed`.
fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// The epoch schedule of `paxos_chaos`: 500 rounds of two submits, the
/// active leader killed at round 200 and never revived.
pub const CHAOS_PLAN: ChaosPlan = ChaosPlan {
    rounds: 500,
    kill_round: 200,
    drain_limit: 5_000,
};

/// Requests one open-loop client may have in flight when the packet
/// fabric's horizon cuts the run off (offered rate × round trip is about
/// two).
const PACKET_IN_FLIGHT_MAX: u64 = 16;

/// One named verdict of the correctness pass.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The observed values.
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// The rigs a trial runs on, built outside the measured region.
pub enum Prepared {
    /// Both heavy workloads.
    Heavy(Vec<Heavy>),
    /// Both fleet workloads.
    Fleet(Vec<Fleet>),
    /// The packet fabric.
    Packet(Box<PacketFabric>),
    /// One cluster per epoch.
    Chaos(Vec<Chaos>),
}

/// Builds everything `workload` needs before its first op.
pub fn prepare(workload: Workload, seed: u64, size: Size, tr: &mut Tracer) -> Prepared {
    let s = tr.begin("bench.setup");
    let seeds = |n: u64| (0..n).map(move |k| sub_seed(seed, k));
    let prepared = match workload {
        Workload::HeavyStream | Workload::HeavyEvents => {
            Prepared::Heavy(seeds(size.rigs).map(Heavy::new).collect())
        }
        Workload::FleetQuiet | Workload::FleetRescore => {
            let full_rescore = workload == Workload::FleetRescore;
            Prepared::Fleet(
                seeds(size.rigs)
                    .map(|s| Fleet::new(s, full_rescore, tr))
                    .collect(),
            )
        }
        Workload::PacketFabric => Prepared::Packet(Box::new(PacketFabric::new(seed))),
        Workload::PaxosChaos => Prepared::Chaos(seeds(size.chaos_epochs).map(Chaos::new).collect()),
    };
    tr.end(s, 1);
    prepared
}

/// What one trial measured and counted.
#[derive(Clone, Debug, Default)]
pub struct Trial {
    /// Host seconds of the measured region.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) of the measured region.
    pub cpu_s: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or went missing.
    pub failed: u64,
    /// Heap allocations inside the measured region.
    pub allocs: u64,
    /// FNV-1a over the trial's simulated outputs.
    pub digest: u64,
    /// Exact counts read at the rig boundary, by per-layer metric name or
    /// by a private `_name` the layer sheet consumes.
    pub counts: Vec<(&'static str, f64)>,
    /// Checks on this trial's own outputs.
    pub checks: Vec<Check>,
}

impl Trial {
    /// Ops completed.
    pub fn ops(&self) -> u64 {
        self.attempted - self.failed
    }

    /// The count called `name`, or 0.
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Runs the measured region of `workload` on `prepared`.
pub fn measure(workload: Workload, prepared: Prepared, size: Size, tr: &mut Tracer) -> Trial {
    let root = tr.begin("bench.trial");
    // Reading the CPU clock allocates (it reads /proc): keep it outside
    // the allocation bracket.
    let cpu0 = host::cpu_seconds();
    let alloc0 = alloc::count();
    let t0 = host::now();
    let mut trial = match (workload, prepared) {
        (Workload::HeavyStream, Prepared::Heavy(rigs)) => heavy(&rigs, true, size, tr),
        (Workload::HeavyEvents, Prepared::Heavy(rigs)) => heavy(&rigs, false, size, tr),
        (Workload::FleetQuiet | Workload::FleetRescore, Prepared::Fleet(rigs)) => {
            fleet(rigs, size, tr)
        }
        (Workload::PacketFabric, Prepared::Packet(mut p)) => packet(&mut p, size, tr),
        (Workload::PaxosChaos, Prepared::Chaos(clusters)) => chaos(clusters, tr),
        _ => unreachable!("prepare() builds the rig its workload measures"),
    };
    trial.wall_s = host::secs_since(t0);
    trial.allocs = alloc::count() - alloc0;
    trial.cpu_s = host::cpu_seconds() - cpu0;
    tr.end(root, trial.attempted);
    trial
}

fn heavy(rigs: &[Heavy], streaming: bool, size: Size, tr: &mut Tracer) -> Trial {
    let mut d = Digest::default();
    let (mut requests, mut events, mut shifts, mut rows, mut row_bytes) = (0, 0, 0, 0, 0);
    let mut energy_j = 0.0;
    for rig in rigs {
        let s = tr.begin("bench.heavy.run");
        let out = rig.run(streaming, size.heavy_intervals);
        tr.end(s, out.requests);
        for w in [
            out.requests,
            out.energy_j.to_bits(),
            out.shifts,
            out.shift_digest,
        ] {
            d.word(w);
        }
        requests += out.requests;
        events += out.events;
        shifts += out.shifts;
        rows += out.retained_rows;
        row_bytes += out.retained_row_bytes;
        energy_j += out.energy_j;
    }
    let tenant_intervals = HEAVY_TENANTS as u64 * size.heavy_intervals * size.rigs;
    Trial {
        attempted: requests,
        digest: d.value(),
        counts: vec![
            ("sim.energy_j", energy_j),
            (
                "sim.sim.events_per_request",
                events as f64 / requests.max(1) as f64,
            ),
            ("bench.heavy.retained_rows", rows as f64),
            ("bench.heavy.retained_row_bytes", row_bytes as f64),
            ("_events", events as f64),
            ("_shifts", shifts as f64),
            ("_tenant_intervals", tenant_intervals as f64),
        ],
        checks: vec![check(
            "heavy.requests_nonzero",
            requests > 0,
            format!("{requests} requests"),
        )],
        ..Trial::default()
    }
}

fn fleet(rigs: Vec<Fleet>, size: Size, tr: &mut Tracer) -> Trial {
    let mut d = Digest::default();
    let mut delta = ArbiterCounters::default();
    let (mut shifts, mut changed) = (0u64, 0u64);
    for mut f in rigs {
        let before = f.counters();
        for tick in 1..=size.fleet_ticks {
            changed += f.tick(tick, tr);
        }
        let after = f.counters();
        delta.ticks += after.ticks - before.ticks;
        delta.dirty += after.dirty - before.dirty;
        delta.pods_solved += after.pods_solved - before.pods_solved;
        delta.coordinator_runs += after.coordinator_runs - before.coordinator_runs;
        delta.candidates += after.candidates - before.candidates;
        let (logged, shift_digest) = f.shift_log();
        shifts += logged;
        for w in [
            logged,
            shift_digest,
            after.candidates,
            after.pods_solved,
            after.dirty,
        ] {
            d.word(w);
        }
    }
    let ticks = size.fleet_ticks * size.rigs;
    let per_tick = |n: u64| n as f64 / ticks as f64;
    Trial {
        attempted: FLEET_TENANTS as u64 * ticks,
        digest: d.value(),
        counts: vec![
            (
                "core.arbiter.candidates_per_tick",
                per_tick(delta.candidates),
            ),
            (
                "core.arbiter.pods_solved_per_tick",
                per_tick(delta.pods_solved),
            ),
            ("core.arbiter.dirty_per_tick", per_tick(delta.dirty)),
            (
                "core.arbiter.coordinator_runs_per_tick",
                per_tick(delta.coordinator_runs),
            ),
            ("core.arbiter.shifts", shifts as f64),
            ("_candidates", delta.candidates as f64),
            ("_ticks", ticks as f64),
        ],
        checks: vec![
            check(
                "fleet.every_tick_sampled",
                delta.ticks == ticks,
                format!("{} of {ticks} ticks", delta.ticks),
            ),
            check(
                "fleet.shift_log_matches_returns",
                shifts == changed,
                format!("{shifts} logged, {changed} returned"),
            ),
        ],
        ..Trial::default()
    }
}

fn packet(p: &mut PacketFabric, size: Size, tr: &mut Tracer) -> Trial {
    let s = tr.begin("bench.multitor.run");
    let out = p.run(size.packet_horizon_ms);
    tr.end(s, out.events);
    // Open-loop clients: a request sent in the last microseconds before
    // the horizon is still in flight when the run stops. It has neither
    // failed nor completed, so it is not an attempted op; a backlog (a
    // server that fell behind) would be thousands deep, not a handful.
    let answered = out.kvs.1 + out.dns.1 + out.pax_acked;
    let in_flight =
        (out.kvs.0 - out.kvs.1) + (out.dns.0 - out.dns.1) + (out.pax_issued - out.pax_acked);
    let wrong = out.kvs.2 + out.dns.2;
    let mut d = Digest::default();
    for w in [
        out.completed,
        out.events,
        out.energy_j.to_bits(),
        out.shifts,
        out.shift_digest,
    ] {
        d.word(w);
    }
    Trial {
        attempted: answered,
        failed: wrong,
        digest: d.value(),
        counts: vec![
            ("sim.energy_j", out.energy_j),
            (
                "sim.sim.events_per_request",
                out.events as f64 / out.completed.max(1) as f64,
            ),
            ("sim.sim.lost", out.lost as f64),
            ("sim.sim.unrouted", out.unrouted as f64),
            ("bench.multitor.shifts", out.shifts as f64),
            ("bench.multitor.pax_acked", out.pax_acked as f64),
            ("_events", out.events as f64),
            ("_kvs", out.kvs.1 as f64),
            ("_dns", out.dns.1 as f64),
            ("_pax", out.pax_acked as f64),
            ("_intervals", out.intervals as f64),
        ],
        checks: vec![
            check(
                "packet.no_corrupt_answers",
                out.kvs.2 == 0 && out.dns.2 == 0,
                format!("kvs corrupt {}, dns wrong {}", out.kvs.2, out.dns.2),
            ),
            check(
                "packet.no_backlog_at_horizon",
                in_flight <= 3 * PACKET_IN_FLIGHT_MAX,
                format!(
                    "kvs {}/{}, dns {}/{}, paxos {}/{} answered/sent",
                    out.kvs.1, out.kvs.0, out.dns.1, out.dns.0, out.pax_acked, out.pax_issued
                ),
            ),
            check(
                "packet.nothing_lost_or_unrouted",
                out.lost == 0 && out.unrouted == 0,
                format!("lost {}, unrouted {}", out.lost, out.unrouted),
            ),
            check(
                "packet.timeline_counts_every_answer",
                out.completed == answered,
                format!("timeline {}, clients {answered}", out.completed),
            ),
        ],
        ..Trial::default()
    }
}

fn chaos(clusters: Vec<Chaos>, tr: &mut Tracer) -> Trial {
    let epochs = clusters.len() as u64;
    let mut sum = ChaosOutcome::default();
    let mut failover: Vec<u64> = Vec::with_capacity(clusters.len());
    let mut unsafe_epochs = 0u64;
    let mut lagging_replicas = 0u64;
    let mut d = Digest::default();
    for mut cluster in clusters {
        let out = cluster.run(CHAOS_PLAN, tr);
        sum.submitted += out.submitted;
        sum.executed += out.executed.min(out.submitted);
        sum.steps += out.steps;
        sum.dropped += out.dropped;
        sum.duplicated += out.duplicated;
        sum.client_replies += out.client_replies;
        sum.ticks += out.ticks;
        sum.outage_ns += out.outage_ns;
        sum.max_accepted_len = sum.max_accepted_len.max(out.max_accepted_len);
        unsafe_epochs += u64::from(!out.safe);
        lagging_replicas += u64::from(out.executed_min < out.submitted);
        failover.push(out.failover_ticks);
        for w in [
            out.executed,
            out.steps,
            out.dropped,
            out.duplicated,
            out.failover_ticks,
        ] {
            d.word(w);
        }
    }
    failover.sort_unstable();
    let slots = sum.executed.max(1) as f64;
    let batch_bytes = sum.max_accepted_len as usize * CHAOS_PVALUE_BYTES;
    Trial {
        attempted: sum.submitted,
        failed: sum.submitted - sum.executed,
        digest: d.value(),
        counts: vec![
            ("paxos.chaos.dropped_per_slot", sum.dropped as f64 / slots),
            (
                "paxos.chaos.duplicated_per_slot",
                sum.duplicated as f64 / slots,
            ),
            (
                "paxos.chaos.client_replies_per_slot",
                sum.client_replies as f64 / slots,
            ),
            (
                "paxos.chaos.deliveries_per_slot",
                (sum.steps - sum.dropped) as f64 / slots,
            ),
            ("paxos.chaos.max_accepted_len", sum.max_accepted_len as f64),
            (
                "paxos.chaos.failover_ticks_mean",
                failover.iter().sum::<u64>() as f64 / epochs.max(1) as f64,
            ),
            (
                "paxos.chaos.failover_ticks_p50",
                failover[failover.len() / 2] as f64,
            ),
            (
                "paxos.chaos.failover_ticks_max",
                failover[failover.len() - 1] as f64,
            ),
            ("_outage_ns", sum.outage_ns as f64),
            ("_deliveries", (sum.steps - sum.dropped) as f64),
            ("_ticks", sum.ticks as f64),
        ],
        checks: vec![
            check(
                "chaos.safety",
                unsafe_epochs == 0,
                format!("{unsafe_epochs} of {epochs} epochs broke slot safety or prefix agreement"),
            ),
            check(
                "chaos.all_executed",
                sum.executed == sum.submitted && lagging_replicas == 0,
                format!(
                    "{} of {} commands executed; {lagging_replicas} epochs left a replica behind",
                    sum.executed, sum.submitted
                ),
            ),
            check(
                "chaos.every_kill_recovered",
                failover.first().is_some_and(|&t| t > 0),
                format!(
                    "shortest failover {} ticks",
                    failover.first().copied().unwrap_or(0)
                ),
            ),
            // The crate asserts at the full wire limit; the workload must
            // stay well clear of it, and say so in its own words.
            check(
                "chaos.phase1b_batch_under_half_wire_limit",
                batch_bytes < CHAOS_WIRE_LIMIT / 2,
                format!(
                    "largest accepted map {} slots = {batch_bytes} B of {CHAOS_WIRE_LIMIT} B",
                    sum.max_accepted_len
                ),
            ),
        ],
        ..Trial::default()
    }
}

/// The cross-mode equivalences, run untimed after the measured trials.
pub fn verify(workload: Workload, seed: u64, size: Size) -> Vec<Check> {
    let mut off = Tracer::off();
    match workload {
        Workload::HeavyStream | Workload::HeavyEvents => {
            let rig = Heavy::new(seed);
            let stream = rig.run(true, size.verify_heavy_intervals);
            let events = rig.run(false, size.verify_heavy_intervals);
            vec![
                check(
                    "heavy.stream_equals_events",
                    stream.requests == events.requests
                        && stream.energy_j.to_bits() == events.energy_j.to_bits()
                        && stream.shifts == events.shifts
                        && stream.shift_digest == events.shift_digest,
                    format!(
                        "requests {}/{}, energy {:e}/{:e} J, shifts {}/{}",
                        stream.requests,
                        events.requests,
                        stream.energy_j,
                        events.energy_j,
                        stream.shifts,
                        events.shifts
                    ),
                ),
                check(
                    "heavy.events_are_per_request",
                    events.events >= events.requests && stream.events < size.verify_heavy_intervals,
                    format!(
                        "{} events per-event, {} streaming",
                        events.events, stream.events
                    ),
                ),
            ]
        }
        Workload::FleetQuiet | Workload::FleetRescore => {
            let mut quiet = Fleet::new(seed, false, &mut off);
            let mut rescore = Fleet::new(seed, true, &mut off);
            let mut broken: Option<String> = None;
            for tick in 1..=size.verify_fleet_ticks {
                quiet.tick(tick, &mut off);
                rescore.tick(tick, &mut off);
                if broken.is_none() {
                    broken = quiet
                        .check_invariants()
                        .and(rescore.check_invariants())
                        .err()
                        .map(|e| format!("tick {tick}: {e}"));
                }
            }
            let (q, r) = (quiet.shift_log(), rescore.shift_log());
            vec![
                check(
                    "fleet.quiet_equals_rescore",
                    q == r,
                    format!(
                        "{} shifts (digest {:016x}) vs {} ({:016x})",
                        q.0, q.1, r.0, r.1
                    ),
                ),
                check(
                    "fleet.residency_and_budget_every_tick",
                    broken.is_none(),
                    broken.unwrap_or_else(|| format!("{} ticks clean", size.verify_fleet_ticks)),
                ),
            ]
        }
        // Their checks are on the measured trial's own outputs.
        Workload::PacketFabric | Workload::PaxosChaos => Vec::new(),
    }
}
