//! The one adapter between the benchmark and the repository.
//!
//! Every call the benchmark makes into `crates/*` is in this file and
//! nowhere else: the rest of the package sees only the plain structs and
//! functions declared here. `benchmark/README.md` lists the surface this
//! pins; a refactor that keeps it source-compatible needs no benchmark
//! change, one that does not needs a benchmark-correction issue first.
//!
//! Three parts: the four rigs the six workloads drive (each wrapped with
//! the spans and boundary counters of `trace.rs`), the invariants the
//! `verify` pass checks, and the layer probes of the cost sheet.

use std::collections::BTreeMap;
use std::hint::black_box;

use inc_bench::consensus::{ChaosCluster, NodeRef};
use inc_bench::heavy::{HeavyTrafficRig, ReplayMode};
use inc_bench::rigs::{MegaFabricRig, MultiTorRig};
use inc_dns::{resolve, DnsClient, DnsResponse, Name, Query, Rcode, Zone, TYPE_A};
use inc_hw::{DeviceCapacity, DeviceId, PipelineBudget, Placement, ProgramResources};
use inc_kvs::{
    decode as kvs_decode, encode_request, encode_response, expected_value, key_name, FrameHeader,
    KvsClient, LakeCache, LakeCacheConfig, LruCache, Opcode, Request, Response, Status,
    MEMCACHED_PORT,
};
use inc_net::{build_udp, Classifier, Endpoint, Match, UdpFrame};
use inc_ondemand::{
    kvs_analysis, ArbitrationMode, FleetController, FleetSample, HierarchicalController,
    HostController, HostControllerConfig, HostSample,
};
use inc_paxos::multi::{encode_pvalues, Acceptor, Ballot, Replica};
use inc_paxos::{ClientCommand, MsgType, PaxosClient, PaxosMsg, MAX_VALUE_LEN};
use inc_sim::{
    impl_node_any, Ctx, Histogram, Nanos, Node, PortId, RecentRing, Rng, Simulator, StreamStats,
};
use inc_workloads::dynamo::PowerWalk;
use inc_workloads::{EtcWorkload, GoogleTrace, WorkloadClass, Zipf};

use crate::trace::Tracer;

// ---------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------

/// FNV-1a over 64-bit words: the `sim_digest` of a workload (shift log,
/// energy bits, op counts). Informational — it names a behaviour, it is
/// not a golden value.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

fn placement_word(p: Placement) -> u64 {
    match p {
        Placement::Software => 0,
        Placement::Device(d) => 1 + d.index() as u64,
    }
}

/// FNV-1a over a `FleetTimeline::shifts` log.
fn timeline_shift_digest(shifts: &[(Nanos, usize, Placement)]) -> u64 {
    let mut d = Digest::default();
    for &(at, app, p) in shifts {
        d.word(at.as_nanos());
        d.word(app as u64);
        d.word(placement_word(p));
    }
    d.value()
}

// ---------------------------------------------------------------------
// heavy_stream / heavy_events: HeavyTrafficRig
// ---------------------------------------------------------------------

/// Tenants of the heavy-traffic rig (the size the issue fixed).
pub const HEAVY_TENANTS: usize = 8;

/// What one `HeavyTrafficRig::run` produced, as the benchmark reads it.
#[derive(Clone, Copy, Debug)]
pub struct HeavyOutcome {
    /// Simulated requests completed.
    pub requests: u64,
    /// Simulator events processed.
    pub events: u64,
    /// `FleetTimeline::energy_j`.
    pub energy_j: f64,
    /// Placement shifts executed.
    pub shifts: u64,
    /// FNV-1a over the shift log.
    pub shift_digest: u64,
    /// Timeline rows held at the end.
    pub retained_rows: u64,
    /// Bytes of those rows.
    pub retained_row_bytes: u64,
}

/// The rig of both heavy workloads.
pub struct Heavy(HeavyTrafficRig);

impl Heavy {
    /// `HeavyTrafficRig::new(8, seed)`.
    pub fn new(seed: u64) -> Self {
        Heavy(HeavyTrafficRig::new(HEAVY_TENANTS, seed))
    }

    /// `run(StreamingBatched | PerEventRows, intervals)`.
    pub fn run(&self, streaming: bool, intervals: u64) -> HeavyOutcome {
        let mode = if streaming {
            ReplayMode::StreamingBatched
        } else {
            ReplayMode::PerEventRows
        };
        let report = self.0.run(mode, intervals);
        HeavyOutcome {
            requests: report.requests,
            events: report.events_processed,
            energy_j: report.timeline.energy_j,
            shifts: report.timeline.shifts.len() as u64,
            shift_digest: timeline_shift_digest(&report.timeline.shifts),
            retained_rows: report.retained_rows as u64,
            retained_row_bytes: report.retained_row_bytes() as u64,
        }
    }
}

// ---------------------------------------------------------------------
// fleet_quiet / fleet_rescore: MegaFabricRig + HierarchicalController
// ---------------------------------------------------------------------

/// Tenants of the fleet workloads.
pub const FLEET_TENANTS: usize = 1000;

/// `ArbiterStats`, as plain numbers.
#[derive(Clone, Copy, Debug, Default)]
pub struct ArbiterCounters {
    /// Sampling intervals processed.
    pub ticks: u64,
    /// Apps put on the dirty queue.
    pub dirty: u64,
    /// Pod-arbiter solves.
    pub pods_solved: u64,
    /// Coordinator runs.
    pub coordinator_runs: u64,
    /// Candidate score evaluations.
    pub candidates: u64,
}

/// The fleet rig with its controller.
pub struct Fleet {
    rig: MegaFabricRig,
    ctl: HierarchicalController,
}

impl Fleet {
    /// `MegaFabricRig::new(1000, seed)` and `controller(mode)`, each under
    /// its own span.
    pub fn new(seed: u64, full_rescore: bool, tr: &mut Tracer) -> Self {
        let s = tr.begin("bench.rigs.mega_new");
        let rig = MegaFabricRig::new(FLEET_TENANTS, seed);
        tr.end(s, FLEET_TENANTS as u64);
        let mode = if full_rescore {
            ArbitrationMode::FullRescore
        } else {
            ArbitrationMode::Incremental
        };
        let s = tr.begin("core.arbiter.new");
        let ctl = rig.controller(mode);
        tr.end(s, 1);
        Fleet { rig, ctl }
    }

    /// One sampling interval: `tick_samples(tick)` then
    /// `HierarchicalController::sample`. Returns the placements changed.
    /// The `sample` span's count is the pods solved in this tick.
    #[inline]
    pub fn tick(&mut self, tick: u64, tr: &mut Tracer) -> u64 {
        let s = tr.begin("bench.rigs.mega_tick_samples");
        let samples = self.rig.tick_samples(tick);
        tr.end(s, samples.len() as u64);
        let before = self.ctl.stats().pods_solved;
        let s = tr.begin("core.arbiter.sample");
        let changed = self.ctl.sample(Nanos::from_secs(tick), samples).len() as u64;
        tr.end(s, self.ctl.stats().pods_solved - before);
        changed
    }

    /// `HierarchicalController::stats`.
    pub fn counters(&self) -> ArbiterCounters {
        let s = self.ctl.stats();
        ArbiterCounters {
            ticks: s.ticks,
            dirty: s.dirty_enqueued,
            pods_solved: s.pods_solved,
            coordinator_runs: s.coordinator_runs,
            candidates: s.candidates_scored,
        }
    }

    /// Length and FNV-1a of `HierarchicalController::shifts` (time, app,
    /// placement, rate bits, benefit bits).
    pub fn shift_log(&self) -> (u64, u64) {
        let mut d = Digest::default();
        for s in self.ctl.shifts() {
            d.word(s.at.as_nanos());
            d.word(s.app as u64);
            d.word(placement_word(s.to));
            d.word(s.rate_pps.to_bits());
            d.word(s.benefit_w.to_bits());
        }
        (self.ctl.shifts().len() as u64, d.value())
    }

    /// The per-tick invariants: every app's placement is exactly its one
    /// residency on the controller's fabric, and no device holds more
    /// than its budget.
    pub fn check_invariants(&self) -> Result<(), String> {
        let fabric = self.ctl.fabric();
        for (app, &p) in self.ctl.placements().iter().enumerate() {
            let resident = fabric.residency(app as u64);
            let placed = match p {
                Placement::Software => None,
                Placement::Device(d) => Some(d),
            };
            if resident != placed {
                return Err(format!(
                    "app {app}: placement {placed:?} but fabric residency {resident:?}"
                ));
            }
        }
        for id in fabric.device_ids() {
            let dev = fabric.device(id);
            if let Err(e) = dev.budget().admit(&dev.used()) {
                return Err(format!("device {id} over budget: {e}"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// packet_fabric: MultiTorRig + FleetController
// ---------------------------------------------------------------------

/// Keys preloaded into memcached / names in the DNS zone.
pub const PACKET_KEYS: u64 = 512;
/// The diurnal period of the three tenants.
pub const PACKET_PERIOD: Nanos = Nanos::from_millis(3_500);
/// The fleet controller's sampling interval.
pub const PACKET_INTERVAL: Nanos = Nanos::from_millis(150);

/// What one packet-fabric run produced.
#[derive(Clone, Copy, Debug)]
pub struct PacketOutcome {
    /// Σ `per_app[*].total_completed()`.
    pub completed: u64,
    /// Simulator events processed.
    pub events: u64,
    /// `FleetTimeline::energy_j`.
    pub energy_j: f64,
    /// Placement shifts executed.
    pub shifts: u64,
    /// FNV-1a over the shift log.
    pub shift_digest: u64,
    /// Commands the Paxos client saw acknowledged.
    pub pax_acked: u64,
    /// Commands the Paxos client issued.
    pub pax_issued: u64,
    /// `Simulator::lost`.
    pub lost: u64,
    /// `Simulator::unrouted`.
    pub unrouted: u64,
    /// KVS client: sent, received, corrupt.
    pub kvs: (u64, u64, u64),
    /// DNS client: sent, received, wrong.
    pub dns: (u64, u64, u64),
    /// Controller sampling intervals in the run.
    pub intervals: u64,
}

/// The two-ToR packet rig with its flat fleet controller.
pub struct PacketFabric {
    rig: MultiTorRig,
    ctl: FleetController,
}

impl PacketFabric {
    /// `MultiTorRig::new(seed, 512, 512, contended_profiles(3.5 s))` and
    /// `MultiTorRig::fleet_controller(150 ms)`.
    pub fn new(seed: u64) -> Self {
        let rig = MultiTorRig::new(
            seed,
            PACKET_KEYS,
            PACKET_KEYS,
            MultiTorRig::contended_profiles(PACKET_PERIOD),
        );
        let ctl = MultiTorRig::fleet_controller(PACKET_INTERVAL);
        PacketFabric { rig, ctl }
    }

    /// `run(&mut controller, horizon)`.
    pub fn run(&mut self, horizon_ms: u64) -> PacketOutcome {
        let horizon = Nanos::from_millis(horizon_ms);
        let timeline = self.rig.run(&mut self.ctl, horizon);
        let sim = &self.rig.sim;
        let kvs = sim.node_ref::<KvsClient>(self.rig.kvs_client).stats();
        let dns = sim.node_ref::<DnsClient>(self.rig.dns_client).stats();
        let pax = sim.node_ref::<PaxosClient>(self.rig.pax_client).stats();
        PacketOutcome {
            completed: timeline.per_app.iter().map(|t| t.total_completed()).sum(),
            events: sim.events_processed(),
            energy_j: timeline.energy_j,
            shifts: timeline.shifts.len() as u64,
            shift_digest: timeline_shift_digest(&timeline.shifts),
            pax_acked: self.rig.pax_acked(),
            pax_issued: pax.issued,
            lost: sim.lost(),
            unrouted: sim.unrouted(),
            kvs: (kvs.sent, kvs.received, kvs.corrupt),
            dns: (dns.sent, dns.received, dns.wrong),
            intervals: horizon.as_nanos() / PACKET_INTERVAL.as_nanos(),
        }
    }
}

// ---------------------------------------------------------------------
// paxos_chaos: ChaosCluster epochs
// ---------------------------------------------------------------------

/// Bytes of one client payload.
pub const CHAOS_PAYLOAD: usize = 32;
/// Bytes one accepted pvalue occupies in a phase-1b batch (8 slot + 2
/// ballot + 2 length + 12 command header + payload).
pub const CHAOS_PVALUE_BYTES: usize = 8 + 2 + 2 + 12 + CHAOS_PAYLOAD;
/// The codec's value limit the phase-1b batch must stay under.
pub const CHAOS_WIRE_LIMIT: usize = MAX_VALUE_LEN;

/// The schedule of one epoch.
#[derive(Clone, Copy, Debug)]
pub struct ChaosPlan {
    /// Rounds of `2 × submit + tick`.
    pub rounds: u64,
    /// Round at which the active leader is killed (never revived).
    pub kill_round: u64,
    /// Extra ticks allowed for the drain before the epoch counts as
    /// failed.
    pub drain_limit: u64,
}

/// What one epoch produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosOutcome {
    /// Commands submitted.
    pub submitted: u64,
    /// Commands executed by the most advanced replica.
    pub executed: u64,
    /// Commands executed by the least advanced replica.
    pub executed_min: u64,
    /// Deliveries attempted (`ChaosCluster::step` calls that found a
    /// message).
    pub steps: u64,
    /// Deliveries dropped by the loss knob.
    pub dropped: u64,
    /// Deliveries duplicated.
    pub duplicated: u64,
    /// Client replies observed.
    pub client_replies: u64,
    /// Largest `Acceptor::accepted_len` seen after any tick.
    pub max_accepted_len: u64,
    /// Protocol ticks from the kill to the next executed command.
    pub failover_ticks: u64,
    /// Host nanoseconds spent between the kill and that command.
    pub outage_ns: u64,
    /// Protocol ticks run (rounds + drain).
    pub ticks: u64,
    /// `single_value_per_slot() && logs_prefix_agree()`.
    pub safe: bool,
}

/// One Multi-Paxos cluster under loss and duplication.
pub struct Chaos {
    cluster: ChaosCluster,
    payloads: Rng,
}

impl Chaos {
    /// `ChaosCluster::new(seed, 2, 2, 3)` with `drop_p = 0.05`,
    /// `dup_p = 0.02`; payload bytes come from a seeded generator.
    pub fn new(seed: u64) -> Self {
        let mut cluster = ChaosCluster::new(seed, 2, 2, 3);
        cluster.drop_p = 0.05;
        cluster.dup_p = 0.02;
        Chaos {
            cluster,
            payloads: Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    fn payload(&mut self) -> Vec<u8> {
        let mut p = Vec::with_capacity(CHAOS_PAYLOAD);
        while p.len() < CHAOS_PAYLOAD {
            p.extend_from_slice(&self.payloads.next_u64().to_le_bytes());
        }
        p
    }

    /// One protocol tick, drained: `tick(0)` advances every machine, then
    /// `step()` runs until nothing is in flight — what
    /// `tick(1_000_000)` does, with the deliveries counted here at the
    /// boundary. Returns that count.
    fn tick_drained(&mut self) -> u64 {
        self.cluster.tick(0);
        let mut steps = 0;
        while self.cluster.step() {
            steps += 1;
        }
        steps
    }

    fn compact(&mut self) {
        let floor = self
            .cluster
            .replicas
            .iter()
            .map(Replica::slot_out)
            .min()
            .unwrap_or(1);
        for a in &mut self.cluster.acceptors {
            a.compact(floor);
        }
    }

    /// One drained tick plus the bookkeeping every tick gets: the largest
    /// accepted map (what the next phase-1b would have to carry), acceptor
    /// compaction, and — while a leader kill is pending — the check for
    /// the first command executed after it.
    fn tick_and_settle(&mut self, out: &mut ChaosOutcome, outage: &mut Outage, tr: &mut Tracer) {
        let s = tr.begin("bench.chaos.tick");
        let steps = self.tick_drained();
        tr.end(s, steps);
        out.steps += steps;
        out.ticks += 1;
        let len = self
            .cluster
            .acceptors
            .iter()
            .map(Acceptor::accepted_len)
            .max()
            .unwrap_or(0) as u64;
        out.max_accepted_len = out.max_accepted_len.max(len);
        let s = tr.begin("bench.chaos.compact");
        self.compact();
        tr.end(s, len);
        if let Outage::Open {
            at_tick,
            since,
            executed,
        } = *outage
        {
            if self.cluster.max_executed() > executed {
                out.failover_ticks = out.ticks - at_tick;
                out.outage_ns = crate::host::now().duration_since(since).as_nanos() as u64;
                *outage = Outage::Closed;
            }
        }
    }

    /// Runs the epoch to completion: the rounds, the leader kill, then the
    /// drain until every submitted command is executed.
    pub fn run(&mut self, plan: ChaosPlan, tr: &mut Tracer) -> ChaosOutcome {
        let mut out = ChaosOutcome::default();
        let mut outage = Outage::NotYet;
        let epoch = tr.begin("bench.chaos.epoch");
        for round in 0..plan.rounds {
            if round == plan.kill_round {
                let active = self
                    .cluster
                    .leaders
                    .iter()
                    .position(|l| l.is_active())
                    .unwrap_or(0);
                self.cluster.kill(NodeRef::Leader(active as u8));
                outage = Outage::Open {
                    at_tick: out.ticks,
                    since: crate::host::now(),
                    executed: self.cluster.max_executed(),
                };
            }
            for _ in 0..2 {
                let payload = self.payload();
                let s = tr.begin("bench.chaos.submit");
                self.cluster.submit(1, payload);
                tr.end(s, 1);
                out.submitted += 1;
            }
            self.tick_and_settle(&mut out, &mut outage, tr);
        }
        let limit = out.ticks + plan.drain_limit;
        while self.cluster.max_executed() < out.submitted && out.ticks < limit {
            self.tick_and_settle(&mut out, &mut outage, tr);
        }
        tr.end(epoch, out.submitted);
        out.executed = self.cluster.max_executed();
        out.executed_min = self
            .cluster
            .replicas
            .iter()
            .map(|r| r.executed_count)
            .min()
            .unwrap_or(0);
        out.dropped = self.cluster.dropped;
        out.duplicated = self.cluster.duplicated;
        out.client_replies = self.cluster.client_replies;
        out.safe = self.cluster.single_value_per_slot() && self.cluster.logs_prefix_agree();
        out
    }
}

/// Where an epoch stands relative to its leader kill.
#[derive(Clone, Copy)]
enum Outage {
    NotYet,
    Open {
        at_tick: u64,
        since: std::time::Instant,
        executed: u64,
    },
    Closed,
}

// ---------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------

/// A fixed-count loop over one public function of one layer.
///
/// `run(n)` performs the operation `n` times on inputs shaped like the
/// home workload's and returns a value that depends on every result, so
/// the optimiser cannot drop the work.
pub struct Probe {
    /// `layer.operation`; the harness appends `_ns` / `_us` / `_ms` and
    /// `_allocs`.
    pub name: &'static str,
    /// Operations per timed batch.
    pub iters: u64,
    /// The loop.
    pub run: Box<dyn FnMut(u64) -> u64>,
}

fn probe(name: &'static str, iters: u64, run: impl FnMut(u64) -> u64 + 'static) -> Probe {
    Probe {
        name,
        iters,
        run: Box::new(run),
    }
}

/// A counting sink for the simulator-event probe.
struct CountSink(u64);

impl Node<u64> for CountSink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _port: PortId, msg: u64) {
        self.0 = self.0.wrapping_add(msg);
    }
    impl_node_any!();
}

/// A cheap deterministic sequence for probe inputs that must not cost a
/// generator call of their own.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 33
}

/// Every probe of the cost sheet, inputs seeded from `seed`.
pub fn probes(seed: u64) -> Vec<Probe> {
    let mut out = Vec::new();

    // --- inc-sim ---
    let mut rng = Rng::new(seed);
    out.push(probe("sim.rng.next_u64", 4_000_000, move |n| {
        (0..n).fold(0u64, |acc, _| acc ^ rng.next_u64())
    }));
    let mut hist = Histogram::new();
    out.push(probe("sim.stats.histogram_record", 2_000_000, move |n| {
        // The heavy rig's values: a software-path base plus 0..2047 ns of
        // jitter, here one multiply of the loop counter so that the
        // generator's cost stays in its own row.
        for i in 0..n {
            hist.record(13_000 + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 53));
        }
        hist.count()
    }));
    let mut filled = Histogram::new();
    let mut x = seed ^ 1;
    for _ in 0..3_000 {
        filled.record(1_400 + (lcg(&mut x) & 0x7ff));
    }
    out.push(probe("sim.stats.histogram_quantile", 100_000, move |n| {
        (0..n).fold(0u64, |acc, i| {
            acc.wrapping_add(filled.quantile(if i % 2 == 0 { 0.5 } else { 0.99 }))
        })
    }));
    let mut stream = StreamStats::new();
    let mut x = seed ^ 2;
    out.push(probe("sim.stats.streamstats_push", 4_000_000, move |n| {
        for _ in 0..n {
            stream.push_weighted(50.0 + (lcg(&mut x) & 0xff) as f64, 0.1);
        }
        stream.count()
    }));
    let mut ring = RecentRing::bounded(32);
    out.push(probe("sim.stats.recentring_push", 4_000_000, move |n| {
        for i in 0..n {
            ring.push(i);
        }
        ring.total()
    }));
    out.push(probe("sim.sim.event", 150_000, move |n| {
        // Bursts of one heavy-rig interval (≈3 000 requests) into a sink.
        let mut sim: Simulator<u64> = Simulator::new(seed);
        let sink = sim.add_node(CountSink(0));
        let burst = 3_000u64;
        let mut injected = 0;
        let mut interval = 0u64;
        while injected < n {
            let k = burst.min(n - injected);
            sim.inject_batch(
                sink,
                PortId::P0,
                (0..k).map(|j| (Nanos::from_nanos(1 + j * 100_000 / (k + 1)), j)),
            );
            interval += 1;
            sim.run_until(Nanos::from_micros(100 * interval));
            injected += k;
        }
        sim.events_processed()
    }));

    // --- inc-workloads ---
    let zipf = Zipf::new(1_000_000, 0.99).expect("valid zipf parameters");
    let mut rng = Rng::new(seed ^ 3);
    out.push(probe("workloads.zipf.sample", 300_000, move |n| {
        (0..n).fold(0u64, |acc, _| acc.wrapping_add(zipf.sample(&mut rng)))
    }));
    let mut etc = EtcWorkload::new(1 << 20);
    let mut rng = Rng::new(seed ^ 4);
    out.push(probe("workloads.etc.next_sample", 300_000, move |n| {
        (0..n).fold(0u64, |acc, _| {
            acc.wrapping_add(etc.next_sample(&mut rng).rank)
        })
    }));
    let mut walk = PowerWalk::new(WorkloadClass::Cache);
    let mut rng = Rng::new(seed ^ 5);
    out.push(probe("workloads.dynamo.next_w", 250_000, move |n| {
        (0..n)
            .fold(0.0f64, |acc, _| acc + walk.next_w(&mut rng))
            .to_bits()
    }));
    let mut rng = Rng::new(seed ^ 6);
    out.push(probe("workloads.google.synthesize", 200, move |n| {
        // The heavy rig's trace: one node per tenant, a day, 200 tasks each.
        (0..n).fold(0u64, |acc, _| {
            let trace = GoogleTrace::synthesize(
                &mut rng,
                HEAVY_TENANTS as u32,
                Nanos::from_secs(24 * 3600),
                200,
            );
            acc.wrapping_add(trace.total_core_seconds().to_bits())
        })
    }));

    // --- inc-ondemand ---
    let mut host = HostController::new(HostControllerConfig::figure6(60.0, 0.6, 20_000.0));
    let mut x = seed ^ 7;
    out.push(probe("core.host.sample", 1_000_000, move |n| {
        (0..n).fold(0u64, |acc, i| {
            let r = lcg(&mut x) & 0xffff;
            let s = HostSample {
                rapl_w: 40.0 + (r & 0x3f) as f64,
                app_cpu_util: (r & 0xff) as f64 / 256.0,
                hw_app_rate: r as f64,
            };
            acc + u64::from(host.sample(Nanos::from_secs(i + 1), s).is_some())
        })
    }));
    let analysis = kvs_analysis();
    let mut x = seed ^ 8;
    out.push(probe(
        "core.decision.energy_per_second",
        2_000_000,
        move |n| {
            (0..n)
                .fold(0.0f64, |acc, _| {
                    let (sw, hw) = analysis.energy_per_second((lcg(&mut x) & 0xf_ffff) as f64);
                    acc + sw - hw
                })
                .to_bits()
        },
    ));
    let mut flat = MultiTorRig::fleet_controller(PACKET_INTERVAL);
    let profiles = MultiTorRig::contended_profiles(PACKET_PERIOD);
    out.push(probe("core.fleet.sample", 20_000, move |n| {
        // The packet fabric's three tenants following their diurnal day.
        (0..n).fold(0u64, |acc, i| {
            let now = PACKET_INTERVAL.mul(i + 1);
            let samples: [FleetSample; 3] = std::array::from_fn(|app| {
                let rate = profiles[app].rate_at(now);
                FleetSample {
                    host: HostSample {
                        rapl_w: 50.0,
                        app_cpu_util: 0.5,
                        hw_app_rate: rate,
                    },
                    offered_pps: rate,
                }
            });
            acc + flat.sample(now, &samples).len() as u64
        })
    }));

    // --- inc-hw ---
    let demand = ProgramResources {
        stages: 3,
        sram_bytes: 2 << 20,
        parse_depth_bytes: 64,
    };
    let mut cap = DeviceCapacity::new(PipelineBudget::tofino_like());
    for slot in 0..3 {
        cap.admit(slot, demand)
            .expect("three 3-stage programs fit 12 stages");
    }
    out.push(probe("hw.capacity.admit_release", 200_000, move |n| {
        (0..n).fold(0u64, |acc, i| {
            let ok = cap.admit(100 + (i & 1), demand).is_ok();
            acc + u64::from(ok) + u64::from(cap.release(100 + (i & 1)))
        })
    }));
    let mut cap = DeviceCapacity::new(PipelineBudget::tofino_like());
    for slot in 0..3 {
        cap.admit(slot, demand)
            .expect("three 3-stage programs fit 12 stages");
    }
    let cap2 = cap.clone();
    out.push(probe("hw.capacity.fits", 300_000, move |n| {
        (0..n).fold(0u64, |acc, i| {
            let extra = ProgramResources {
                stages: 2 + (i % 3) as u32,
                ..demand
            };
            acc + u64::from(cap.fits(black_box(&extra)))
        })
    }));
    out.push(probe("hw.capacity.cost_units", 1_000_000, move |n| {
        (0..n)
            .fold(0.0f64, |acc, i| {
                let r = ProgramResources {
                    stages: 2 + (i % 3) as u32,
                    ..demand
                };
                acc + cap2.cost_units(black_box(&r))
            })
            .to_bits()
    }));
    let mut fabric = MegaFabricRig::fabric();
    out.push(probe("hw.fabric.admit_release", 150_000, move |n| {
        (0..n).fold(0u64, |acc, i| {
            let d = DeviceId((i % MegaFabricRig::DEVICES as u64) as u16);
            let ok = fabric.admit(d, i & 7, demand).is_ok();
            acc + u64::from(ok) + u64::from(fabric.release(i & 7))
        })
    }));
    let fabric = MegaFabricRig::fabric();
    out.push(probe("hw.fabric.benefit_factor", 2_000_000, move |n| {
        (0..n)
            .fold(0.0f64, |acc, i| {
                let home = DeviceId((i % 128) as u16);
                let at = DeviceId(((i * 7) % 128) as u16);
                acc + fabric.benefit_factor(home, at)
            })
            .to_bits()
    }));
    let fabric = MegaFabricRig::fabric();
    out.push(probe("hw.fabric.link_energy_w", 2_000_000, move |n| {
        (0..n)
            .fold(0.0f64, |acc, i| {
                let home = DeviceId((i % 128) as u16);
                let at = DeviceId(((i * 7) % 128) as u16);
                acc + fabric.link_energy_w(home, at, 50_000.0)
            })
            .to_bits()
    }));
    out.push(probe("hw.fabric.build", 10_000, move |n| {
        (0..n).fold(0u64, |acc, _| {
            acc + MegaFabricRig::fabric().device_count() as u64
        })
    }));

    // --- inc-net ---
    let client = Endpoint::host(1, 40_000);
    let server = Endpoint::host(2, MEMCACHED_PORT);
    let payload = [0xABu8; 64];
    out.push(probe("net.wire.udp_build", 75_000, move |n| {
        (0..n).fold(0u64, |acc, _| {
            acc + build_udp(black_box(client), black_box(server), &payload).len() as u64
        })
    }));
    let pkt = build_udp(client, server, &payload);
    let pkt2 = pkt.clone();
    out.push(probe("net.wire.udp_parse", 150_000, move |n| {
        (0..n).fold(0u64, |acc, _| {
            let frame = UdpFrame::parse(black_box(&pkt)).expect("a built frame parses");
            acc + u64::from(frame.udp.dst_port)
        })
    }));
    let mut classifier = Classifier::new();
    classifier.add_rule(Match::udp_dst(53), 2);
    classifier.add_rule(Match::udp_dst(MEMCACHED_PORT), 1);
    out.push(probe("net.classifier.classify", 150_000, move |n| {
        (0..n).fold(0u64, |acc, _| {
            acc + u64::from(classifier.classify(black_box(&pkt2)))
        })
    }));

    // --- inc-kvs ---
    let frame = FrameHeader {
        request_id: 7,
        seq: 0,
        total: 1,
    };
    let gets: Vec<Request> = (0..PACKET_KEYS)
        .map(|i| Request::Get { key: key_name(i) })
        .collect();
    let gets2 = gets.clone();
    out.push(probe("kvs.protocol.encode_request", 300_000, move |n| {
        (0..n).fold(0u64, |acc, i| {
            let req = &gets[(i % PACKET_KEYS) as usize];
            acc + encode_request(frame, black_box(req), i as u32).len() as u64
        })
    }));
    let hit = Response {
        opcode: Opcode::Get,
        status: Status::Ok,
        value: expected_value(&key_name(3), 64),
        flags: 0,
        opaque: 9,
    };
    let hit_bytes = encode_response(frame, &hit);
    out.push(probe("kvs.protocol.encode_response", 250_000, move |n| {
        (0..n).fold(0u64, |acc, _| {
            acc + encode_response(frame, black_box(&hit)).len() as u64
        })
    }));
    let get_bytes = encode_request(frame, &gets2[3], 9);
    out.push(probe("kvs.protocol.decode", 300_000, move |n| {
        // A request and its GET-hit answer alternately: both directions
        // of one KVS round trip.
        (0..n).fold(0u64, |acc, i| {
            let bytes = if i % 2 == 0 { &get_bytes } else { &hit_bytes };
            acc + u64::from(kvs_decode(black_box(bytes)).is_ok())
        })
    }));
    let mut lru = LruCache::new(PACKET_KEYS as usize);
    for i in 0..PACKET_KEYS {
        let k = key_name(i);
        let v = expected_value(&k, 64);
        lru.insert(k, v);
    }
    let keys: Vec<Vec<u8>> = (0..PACKET_KEYS).map(key_name).collect();
    let keys2 = keys.clone();
    let keys3 = keys.clone();
    let mut x = seed ^ 9;
    out.push(probe("kvs.store.get", 300_000, move |n| {
        (0..n).fold(0u64, |acc, _| {
            let k = &keys[(lcg(&mut x) % PACKET_KEYS) as usize];
            acc + lru.get(k).map_or(0, |v| v.len() as u64)
        })
    }));
    let mut lru = LruCache::new(PACKET_KEYS as usize / 2);
    out.push(probe("kvs.store.insert", 75_000, move |n| {
        // Twice as many keys as capacity: every insert past warm-up evicts.
        (0..n).fold(0u64, |acc, i| {
            let k = keys2[(i % PACKET_KEYS) as usize].clone();
            acc + u64::from(lru.insert(k, vec![0xCD; 64]).is_some())
        })
    }));
    let mut lake = LakeCache::new(LakeCacheConfig::tiny(2_048, 65_536));
    for k in &keys3 {
        lake.warm(k.clone(), expected_value(k, 64), 0);
    }
    let mut x = seed ^ 10;
    out.push(probe("kvs.lake.get", 150_000, move |n| {
        (0..n).fold(0u64, |acc, _| {
            let k = &keys3[(lcg(&mut x) % PACKET_KEYS) as usize];
            black_box(lake.get(k));
            acc + 1
        })
    }));

    // --- inc-dns ---
    let queries: Vec<Query> = (0..PACKET_KEYS)
        .map(|i| Query {
            id: i as u16,
            name: Name::parse(&format!("host-{i}.example.com")).expect("synthetic names are valid"),
            qtype: TYPE_A,
            recursion_desired: false,
        })
        .collect();
    let qbytes: Vec<Vec<u8>> = queries.iter().map(Query::encode).collect();
    let qbytes2 = qbytes.clone();
    let answer = DnsResponse {
        id: 5,
        rcode: Rcode::NoError,
        name: queries[5].name.clone(),
        answers: vec![(Zone::synthetic_addr(5), 300)],
    };
    let abytes = answer.encode();
    out.push(probe("dns.wire.query_encode", 250_000, move |n| {
        (0..n).fold(0u64, |acc, i| {
            acc + black_box(&queries[(i % PACKET_KEYS) as usize])
                .encode()
                .len() as u64
        })
    }));
    out.push(probe("dns.wire.query_decode", 100_000, move |n| {
        (0..n).fold(0u64, |acc, i| {
            let q = Query::decode(black_box(&qbytes[(i % PACKET_KEYS) as usize]));
            acc + u64::from(q.is_ok())
        })
    }));
    out.push(probe("dns.wire.response_encode", 250_000, move |n| {
        (0..n).fold(0u64, |acc, _| {
            acc + black_box(&answer).encode().len() as u64
        })
    }));
    out.push(probe("dns.wire.response_decode", 40_000, move |n| {
        (0..n).fold(0u64, |acc, _| {
            acc + u64::from(DnsResponse::decode(black_box(&abytes)).is_ok())
        })
    }));
    let zone = Zone::synthetic(PACKET_KEYS);
    out.push(probe("dns.engine.resolve", 50_000, move |n| {
        (0..n).fold(0u64, |acc, i| {
            let r = resolve(&zone, black_box(&qbytes2[(i % PACKET_KEYS) as usize]), None);
            acc + u64::from(r.is_ok())
        })
    }));

    // --- inc-paxos ---
    let command = ClientCommand {
        client: 1,
        seq: 42,
        payload: vec![0xEF; CHAOS_PAYLOAD],
    }
    .encode();
    let ballot = Ballot::new(1, 0);
    let p2a = PaxosMsg::new(MsgType::Phase2a, 123_456, ballot.wire(), command.clone());
    let p2a_bytes = p2a.encode();
    let p2a2 = p2a.clone();
    out.push(probe("paxos.msg.encode", 300_000, move |n| {
        (0..n).fold(0u64, |acc, _| acc + black_box(&p2a).encode().len() as u64)
    }));
    out.push(probe("paxos.msg.decode", 400_000, move |n| {
        (0..n).fold(0u64, |acc, _| {
            acc + u64::from(PaxosMsg::decode(black_box(&p2a_bytes)).is_ok())
        })
    }));
    let mut acceptor = Acceptor::new(0);
    let mut slot = 0u64;
    out.push(probe("paxos.multi.acceptor_phase2a", 75_000, move |n| {
        // Ascending slots, compacted the way the workload compacts: the
        // accepted map stays a few dozen entries deep.
        (0..n).fold(0u64, |acc, _| {
            slot += 1;
            let mut msg = p2a2.clone();
            msg.instance = slot;
            if slot.is_multiple_of(32) {
                acceptor.compact(slot - 16);
            }
            acc + acceptor.handle(&msg).len() as u64
        })
    }));
    let command2 = command.clone();
    out.push(probe("paxos.multi.replica_on_request", 100_000, move |n| {
        // A replica's window is 32 slots; a fresh one every window keeps
        // every request on the propose path, as a live cluster does.
        let mut replica = Replica::new(0, 3);
        (0..n).fold(0u64, |acc, i| {
            if i % Replica::WINDOW == 0 {
                replica = Replica::new(0, 3);
            }
            acc + replica.on_request(command2.clone()).len() as u64
        })
    }));
    let accepted: BTreeMap<u64, (Ballot, Vec<u8>)> =
        (1..=64).map(|s| (s, (ballot, command.clone()))).collect();
    out.push(probe("paxos.multi.encode_pvalues", 20_000, move |n| {
        (0..n).fold(0u64, |acc, _| {
            acc + encode_pvalues(black_box(&accepted)).len() as u64
        })
    }));

    out
}
