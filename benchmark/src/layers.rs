//! The per-layer sheet of one workload: span statistics from a traced
//! trial, exact counts read at the rig boundary, probe costs, and the
//! cost sheet that multiplies the last two into shares of wall time.
//!
//! Shares are exclusive: time a span covers is split between the layer
//! that owns the span and the layers a probe can price inside it, so the
//! rows of one workload add up to at most 100 %, and
//! `bench.unattributed_pct` is what is left.

use std::collections::BTreeMap;

use crate::alloc;
use crate::host;
use crate::metrics::{self, median, per_layer_unit};
use crate::surface;
use crate::trace::Tracer;
use crate::workloads::{Trial, Workload};

/// The rows of the cost sheet: exclusive shares of a trial's wall time.
/// What they leave is `bench.unattributed_pct`.
const SHEET_ROWS: [&str; 11] = [
    "sim.rng.share_pct",
    "sim.stats.share_pct",
    "sim.sim.share_pct",
    "workloads.share_pct",
    "core.arbiter.share_pct",
    "core.fleet.share_pct",
    "hw.fabric.share_pct",
    "codecs.share_pct",
    "paxos.msg.share_pct",
    "paxos.multi.share_pct",
    "bench.harness.share_pct",
];

/// Per-layer metric values by name.
pub type Sheet = BTreeMap<&'static str, f64>;

/// Cost of one probed operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeCost {
    /// Nanoseconds per op, median batch.
    pub ns: f64,
    /// Heap allocations per op.
    pub allocs: f64,
}

/// Probe costs by probe name (`layer.operation`, no unit suffix).
pub type ProbeCosts = BTreeMap<&'static str, ProbeCost>;

/// Runs every probe: one discarded batch, then `batches` timed ones.
pub fn run_probes(seed: u64, quick: bool) -> ProbeCosts {
    let (batches, div) = if quick { (2, 10) } else { (5, 1) };
    let mut costs = ProbeCosts::new();
    for mut p in surface::probes(seed) {
        let iters = (p.iters / div).max(1);
        std::hint::black_box((p.run)(iters));
        let mut ns = Vec::with_capacity(batches);
        let mut allocs = 0.0;
        for _ in 0..batches {
            let a0 = alloc::count();
            let t0 = host::now();
            std::hint::black_box((p.run)(iters));
            ns.push(host::secs_since(t0) * 1e9 / iters as f64);
            allocs = (alloc::count() - a0) as f64 / iters as f64;
        }
        costs.insert(
            p.name,
            ProbeCost {
                ns: median(&ns),
                allocs,
            },
        );
    }
    costs
}

/// The probe rows of the sheet: `<probe>_ns|_us|_ms` and `<probe>_allocs`
/// for every name the metric table lists.
fn probe_rows(costs: &ProbeCosts, sheet: &mut Sheet) {
    for (name, _, _) in metrics::PER_LAYER {
        let Some((stem, suffix)) = name.rsplit_once('_') else {
            continue;
        };
        let Some(cost) = costs.get(stem) else {
            continue;
        };
        let value = match suffix {
            "ns" => cost.ns,
            "us" => cost.ns / 1e3,
            "ms" => cost.ns / 1e6,
            "allocs" => cost.allocs,
            _ => continue,
        };
        sheet.insert(name, value);
    }
}

fn ns(costs: &ProbeCosts, probe: &str) -> f64 {
    costs.get(probe).map_or(0.0, |c| c.ns)
}

/// The sheet of one traced trial of `workload`.
pub fn sheet(workload: Workload, trial: &Trial, tr: &Tracer, costs: &ProbeCosts) -> Sheet {
    let mut s = Sheet::new();
    probe_rows(costs, &mut s);
    for &(name, value) in &trial.counts {
        if per_layer_unit(name).is_some() {
            s.insert(name, value);
        }
    }
    let wall_ns = trial.wall_s * 1e9;
    let pct = |part_ns: f64| 100.0 * part_ns / wall_ns;
    let span_pct = |name: &str| pct(tr.total_ns(name) as f64);
    let median_ns = |name: &str| {
        let d: Vec<f64> = tr.durations(name).into_iter().map(|d| d as f64).collect();
        median(&d)
    };
    s.insert("trace.spans", tr.spans().len() as f64);
    s.insert(
        "bench.harness.share_pct",
        pct(tr.self_ns("bench.trial") as f64),
    );

    match workload {
        Workload::HeavyStream | Workload::HeavyEvents => {
            // One opaque `run`; the inside is priced from probes. Each
            // request is one generator draw and one histogram record; each
            // tenant-interval reads two quantiles and draws one dynamo
            // step and one ETC sample; each event crosses the simulator.
            let requests = trial.attempted as f64;
            let tenant_intervals = trial.count("_tenant_intervals");
            s.insert(
                "sim.rng.share_pct",
                pct(requests * ns(costs, "sim.rng.next_u64")),
            );
            s.insert(
                "sim.stats.share_pct",
                pct(requests * ns(costs, "sim.stats.histogram_record")
                    + 2.0 * tenant_intervals * ns(costs, "sim.stats.histogram_quantile")),
            );
            s.insert(
                "sim.sim.share_pct",
                pct(trial.count("_events") * ns(costs, "sim.sim.event")),
            );
            s.insert(
                "workloads.share_pct",
                pct(tenant_intervals
                    * (ns(costs, "workloads.dynamo.next_w")
                        + ns(costs, "workloads.etc.next_sample"))),
            );
        }
        Workload::FleetQuiet | Workload::FleetRescore => {
            let mut ticks: Vec<u64> = tr.durations("core.arbiter.sample");
            ticks.sort_unstable();
            for (name, q) in [
                ("core.arbiter.sample_p50_us", 0.5),
                ("core.arbiter.sample_p90_us", 0.9),
                ("core.arbiter.sample_p99_us", 0.99),
                ("core.arbiter.sample_p999_us", 0.999),
            ] {
                s.insert(name, metrics::quantile(&ticks, q) as f64 / 1e3);
            }
            let by_solved = |churn: bool| {
                let d: Vec<f64> = tr
                    .spans()
                    .iter()
                    .filter(|sp| sp.name == "core.arbiter.sample" && (sp.count > 0) == churn)
                    .map(|sp| sp.dur_ns() as f64)
                    .collect();
                median(&d) / 1e3
            };
            s.insert("core.arbiter.quiet_tick_us", by_solved(false));
            s.insert("core.arbiter.churn_tick_us", by_solved(true));
            let sample_ns = tr.total_ns("core.arbiter.sample") as f64;
            let candidates = trial.count("_candidates");
            s.insert(
                "core.arbiter.ns_per_candidate",
                sample_ns / candidates.max(1.0),
            );
            s.insert(
                "core.arbiter.allocs_per_tick",
                trial.allocs as f64 / trial.count("_ticks").max(1.0),
            );
            s.insert("core.arbiter.new_ms", median_ns("core.arbiter.new") / 1e6);
            s.insert(
                "bench.rigs.mega_tick_samples_us",
                median_ns("bench.rigs.mega_tick_samples") / 1e3,
            );
            s.insert(
                "workloads.share_pct",
                span_pct("bench.rigs.mega_tick_samples"),
            );
            // Every scored candidate is priced through the fabric (tier
            // factor, link energy, capacity cost units); each shift is one
            // admit or release.
            let hw_ns = candidates
                * (ns(costs, "hw.fabric.benefit_factor")
                    + ns(costs, "hw.fabric.link_energy_w")
                    + ns(costs, "hw.capacity.cost_units"))
                + trial.count("core.arbiter.shifts") * ns(costs, "hw.fabric.admit_release") / 2.0;
            let hw_ns = hw_ns.min(sample_ns);
            s.insert("hw.fabric.share_pct", pct(hw_ns));
            s.insert("core.arbiter.share_pct", pct(sample_ns - hw_ns));
        }
        Workload::PacketFabric => {
            let events = trial.count("_events");
            s.insert("bench.multitor.ns_per_event", wall_ns / events.max(1.0));
            s.insert(
                "sim.sim.share_pct",
                pct(events * ns(costs, "sim.sim.event")),
            );
            s.insert(
                "core.fleet.share_pct",
                pct(trial.count("_intervals") * ns(costs, "core.fleet.sample")),
            );
            // The recipe of one answered request (see README, cost sheet):
            // every datagram is built once and parsed at each hop.
            let datagram = |hops: f64| {
                ns(costs, "net.wire.udp_build") + hops * ns(costs, "net.wire.udp_parse")
            };
            let kvs = ns(costs, "kvs.protocol.encode_request")
                + ns(costs, "kvs.protocol.encode_response")
                + 2.0 * ns(costs, "kvs.protocol.decode")
                + ns(costs, "kvs.lake.get")
                + datagram(2.0)
                + datagram(1.0);
            let dns = ns(costs, "dns.wire.query_encode")
                + ns(costs, "dns.engine.resolve")
                + ns(costs, "dns.wire.response_encode")
                + ns(costs, "dns.wire.response_decode")
                + datagram(2.0)
                + datagram(1.0);
            // Request, 3 × phase-2a, 3 × phase-2b, the learner's answer.
            let pax = 8.0
                * (ns(costs, "paxos.msg.encode") + ns(costs, "paxos.msg.decode") + datagram(1.0));
            s.insert(
                "codecs.share_pct",
                pct(trial.count("_kvs") * kvs
                    + trial.count("_dns") * dns
                    + trial.count("_pax") * pax),
            );
        }
        Workload::PaxosChaos => {
            s.insert("bench.chaos.submit_ns", median_ns("bench.chaos.submit"));
            s.insert("bench.chaos.tick_us", median_ns("bench.chaos.tick") / 1e3);
            s.insert("bench.chaos.compact_ns", median_ns("bench.chaos.compact"));
            s.insert(
                "paxos.chaos.allocs_per_slot",
                trial.allocs as f64 / trial.ops().max(1) as f64,
            );
            s.insert(
                "paxos.chaos.outage_share_pct",
                pct(trial.count("_outage_ns")),
            );
            let cluster_ns = (tr.total_ns("bench.chaos.submit")
                + tr.total_ns("bench.chaos.tick")
                + tr.total_ns("bench.chaos.compact")) as f64;
            // Every delivery crosses the codec once each way.
            let msg_ns = (trial.count("_deliveries")
                * (ns(costs, "paxos.msg.encode") + ns(costs, "paxos.msg.decode")))
            .min(cluster_ns);
            s.insert("paxos.msg.share_pct", pct(msg_ns));
            s.insert("paxos.multi.share_pct", pct(cluster_ns - msg_ns));
            // The epoch spans' self time is harness work too (payloads).
            let harness = (tr.self_ns("bench.trial") + tr.self_ns("bench.chaos.epoch")) as f64;
            s.insert("bench.harness.share_pct", pct(harness));
        }
    }
    let attributed: f64 = SHEET_ROWS.iter().filter_map(|row| s.get(row)).sum();
    s.insert("bench.unattributed_pct", (100.0 - attributed).max(0.0));
    s
}
