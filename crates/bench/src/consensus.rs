//! The consensus chaos rig: real Multi-Paxos machines under a hostile
//! network, with their roles scheduled as fleet tenants.
//!
//! Two layers compose here:
//!
//! * [`ChaosCluster`] runs the sans-IO [`inc_paxos::multi`] machines
//!   over a deterministic adversarial network — every queued message is
//!   delivered in random order (so reordering is the default, not an
//!   injected special case), with seeded drop and duplication knobs,
//!   node kills and a two-sided partition. Messages cross the wire
//!   through `encode_into`/`decode_sharing`, so the codec is exercised
//!   on every hop, and a hop allocates nothing: the encode reuses a
//!   scratch buffer, the decode hands back the sender's value once the
//!   wire bytes match it, and fan-out and duplication share that value
//!   by refcount. Outside an election (a promise carries the values it
//!   reports in a batch of its own) a command's bytes are one buffer
//!   from submit to execution.
//! * [`ConsensusRig`] couples the cluster to a
//!   [`FleetController`]: each acceptor and leader role is a
//!   [`FleetApp`] tenant homed on a fabric device (P4xos on a ToR when
//!   offloaded, libpaxos in software otherwise). Role activity meters
//!   the tenant's offered rate, so the controller's placements *follow
//!   the protocol*: a newly elected leader's tenant earns its device,
//!   a dead device's tenants are force-evicted as
//!   [`ShiftReason::DeviceLoss`](inc_ondemand::ShiftReason::DeviceLoss)
//!   shifts. The rig replays a fixed [`Fault`] schedule and checks both
//!   safety properties after every interval.
//!
//! The chaos scenarios are rows of
//! [`SCENARIOS`](crate::scenarios::SCENARIOS) (`device_kill`,
//! `tor_partition`, `budget_flap`): `inc-bench scenario` prints them,
//! `inc-bench explain` replays them, `tests/golden_schedules.rs` pins
//! their shift logs and `tests/failure_injection.rs` runs the rows'
//! own rigs (`scenarios::device_kill_rig` and its two siblings) for its
//! recovery and liveness verdicts.

use std::collections::{HashMap, VecDeque};

use inc_net::Bytes;
use inc_ondemand::{
    run_fleet_controlled, AppObservation, DeviceFabric, DeviceId, FleetApp, FleetController,
    FleetControllerConfig, FleetSample, FleetTimeline, HostSample, PlacementAnalysis, RowLog,
    TierCost, Topology,
};
use inc_paxos::multi::{Acceptor, Leader, Replica};
use inc_paxos::{ClientCommand, Dest, MsgType, Outbox, PaxosMsg};
use inc_power::EnergyParams;
use inc_sim::{Nanos, Rng, Simulator};

use inc_hw::{PipelineBudget, Placement, ProgramResources};

/// A node of the chaos cluster (the address space of the adversarial
/// network).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// Replica `i`.
    Replica(u8),
    /// Leader `i`.
    Leader(u8),
    /// Acceptor `i`.
    Acceptor(u8),
}

/// One in-flight message: who sent it, where it is routed, and the
/// payload. `reply_to` remembers whose message prompted this one, so
/// [`Dest::Reply`] routes to the original requester (the sans-IO
/// machines never see addresses). Cloning one (the duplication knob)
/// shares the message's value rather than copying it.
#[derive(Clone, Debug)]
struct Envelope {
    from: NodeRef,
    reply_to: NodeRef,
    dest: Dest,
    msg: PaxosMsg,
}

/// The harness-side safety oracle. Replicas keep a window, not a
/// history, so both safety properties are checked as history is made:
/// every [`MsgType::ClientReply`] a replica sends (one per executed
/// command, in order) is compared, position by position, with what the
/// replica furthest ahead sent. Only the stretch the slowest replica has
/// yet to reach is kept.
#[derive(Default)]
struct ReplyOracle {
    /// `(slot, value)` of the replies from position `trimmed` on.
    replies: VecDeque<(u64, Bytes)>,
    trimmed: u64,
    /// Replies seen per replica; sized at the first reply (`setup_s`).
    seen: Vec<u64>,
    /// Highest slot any reply has carried.
    newest: u64,
    two_values: bool,
    out_of_order: bool,
}

impl ReplyOracle {
    fn observe(&mut self, n_replicas: usize, replica: usize, slot: u64, value: &Bytes) {
        self.seen.resize(n_replicas, 0);
        let at = (self.seen[replica] - self.trimmed) as usize;
        match self.replies.get(at) {
            Some((s, v)) if *s == slot => self.two_values |= v != value,
            Some(_) => self.out_of_order = true,
            None => {
                self.out_of_order |= slot <= self.newest;
                self.newest = slot;
                self.replies.push_back((slot, value.clone()));
            }
        }
        self.seen[replica] += 1;
        while self.seen.iter().all(|&n| n > self.trimmed) {
            self.replies.pop_front();
            self.trimmed += 1;
        }
    }
}

/// A Multi-Paxos cluster over a deterministic adversarial network.
///
/// Delivery order is uniformly random over the in-flight set (so every
/// interleaving is reachable), and each delivery independently rolls
/// the drop and duplication knobs. Dead nodes neither send nor
/// receive; a partition splits the cluster in two and drops everything
/// that would cross it. All randomness comes from the seeded
/// [`Rng`], so a failing schedule replays exactly.
pub struct ChaosCluster {
    /// The replicas (slot assignment, decision learning, execution).
    pub replicas: Vec<Replica>,
    /// The leaders (competing ballot proposers).
    pub leaders: Vec<Leader>,
    /// The acceptors (the fault-tolerant memory).
    pub acceptors: Vec<Acceptor>,
    queue: Vec<Envelope>,
    /// Scratch buffer every submit and delivery encodes into (grows to
    /// the largest message seen, then never reallocates).
    wire: Vec<u8>,
    rng: Rng,
    /// Probability a delivery is dropped.
    pub drop_p: f64,
    /// Probability a delivery is duplicated (the copy re-enters the
    /// in-flight set and is delivered again later).
    pub dup_p: f64,
    dead: Vec<NodeRef>,
    minority: Vec<NodeRef>,
    /// Client replies observed (both replicas answer, so this
    /// over-counts executions by the replica count).
    pub client_replies: u64,
    /// Deliveries dropped by the loss knob.
    pub dropped: u64,
    /// Deliveries duplicated by the duplication knob.
    pub duplicated: u64,
    next_client_seq: u64,
    submit_rr: usize,
    oracle: ReplyOracle,
}

impl ChaosCluster {
    /// Builds a cluster of `n_replicas`/`n_leaders`/`n_acceptors` with
    /// loss-free defaults (set [`ChaosCluster::drop_p`] /
    /// [`ChaosCluster::dup_p`] for hostility).
    pub fn new(seed: u64, n_replicas: usize, n_leaders: usize, n_acceptors: usize) -> Self {
        ChaosCluster {
            replicas: (0..n_replicas as u8)
                .map(|i| Replica::new(i, n_acceptors))
                .collect(),
            leaders: (0..n_leaders as u8)
                .map(|i| Leader::new(i, n_acceptors, n_replicas))
                .collect(),
            acceptors: (0..n_acceptors as u8).map(Acceptor::new).collect(),
            queue: Vec::new(),
            wire: Vec::new(),
            rng: Rng::new(seed),
            drop_p: 0.0,
            dup_p: 0.0,
            dead: Vec::new(),
            minority: Vec::new(),
            client_replies: 0,
            dropped: 0,
            duplicated: 0,
            next_client_seq: 0,
            submit_rr: 0,
            oracle: ReplyOracle::default(),
        }
    }

    /// Marks a node dead: it neither sends nor receives until revived.
    /// Its state is retained (an acceptor's promises survive, modelling
    /// stable storage / the §9.2 state hand-off).
    pub fn kill(&mut self, n: NodeRef) {
        if !self.dead.contains(&n) {
            self.dead.push(n);
        }
    }

    /// Revives a dead node with its retained state.
    pub fn revive(&mut self, n: NodeRef) {
        self.dead.retain(|&d| d != n);
    }

    /// Partitions the cluster: `minority` on one side, everyone else on
    /// the other. Messages only deliver within a side.
    pub fn set_partition(&mut self, minority: Vec<NodeRef>) {
        self.minority = minority;
    }

    /// Submits one client command (unique `(client, seq)`), entering at
    /// the replicas round-robin.
    pub fn submit(&mut self, client: u32, payload: Vec<u8>) {
        self.next_client_seq += 1;
        self.wire.clear();
        ClientCommand {
            client,
            seq: self.next_client_seq,
            payload,
        }
        .encode_into(&mut self.wire);
        let r = self.submit_rr % self.replicas.len();
        self.submit_rr += 1;
        if self.dead.contains(&NodeRef::Replica(r as u8)) {
            return;
        }
        let n = NodeRef::Replica(r as u8);
        // The command's one allocation: straight into its shared buffer.
        let out = self.replicas[r].on_request(Bytes::copy_from_slice(&self.wire));
        self.enqueue(n, n, out);
    }

    /// Advances protocol time by one tick on every live machine
    /// (elections count down, retransmits fire), then delivers up to
    /// `max_steps` in-flight messages in random order.
    pub fn tick(&mut self, max_steps: usize) {
        for i in 0..self.replicas.len() {
            let n = NodeRef::Replica(i as u8);
            if !self.dead.contains(&n) {
                let out = self.replicas[i].tick();
                self.enqueue(n, n, out);
            }
        }
        for i in 0..self.leaders.len() {
            let n = NodeRef::Leader(i as u8);
            if !self.dead.contains(&n) {
                let out = self.leaders[i].tick();
                self.enqueue(n, n, out);
            }
        }
        for _ in 0..max_steps {
            if !self.step() {
                break;
            }
        }
    }

    /// Delivers one randomly chosen in-flight message (after rolling
    /// the drop/duplication knobs). Returns `false` when nothing is in
    /// flight.
    pub fn step(&mut self) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        let idx = self.rng.index(self.queue.len());
        let env = self.queue.swap_remove(idx);
        if self.drop_p > 0.0 && self.rng.chance(self.drop_p) {
            self.dropped += 1;
            return true;
        }
        if self.dup_p > 0.0 && self.rng.chance(self.dup_p) {
            self.duplicated += 1;
            self.queue.push(env.clone());
        }
        self.deliver(env);
        true
    }

    /// Enqueues a machine's outbox. `reply_to` is the sender of the
    /// message that produced it (for tick/submit outputs, the machine
    /// itself — those outboxes never carry [`Dest::Reply`]).
    fn enqueue(&mut self, from: NodeRef, reply_to: NodeRef, out: Outbox) {
        for (dest, msg) in out {
            if let (NodeRef::Replica(r), MsgType::ClientReply) = (from, msg.mtype) {
                let n = self.replicas.len();
                self.oracle
                    .observe(n, usize::from(r), msg.instance, &msg.value);
            }
            self.queue.push(Envelope {
                from,
                reply_to,
                dest,
                msg,
            });
        }
    }

    fn reachable(&self, a: NodeRef, b: NodeRef) -> bool {
        if self.dead.contains(&a) || self.dead.contains(&b) {
            return false;
        }
        self.minority.contains(&a) == self.minority.contains(&b)
    }

    fn deliver(&mut self, env: Envelope) {
        // Every hop crosses the wire format, so garbage-tolerant decode
        // paths are exercised under the same schedules as the protocol.
        // The decoded value is the sender's handle once the bytes agree.
        self.wire.clear();
        env.msg.encode_into(&mut self.wire);
        let msg =
            PaxosMsg::decode_sharing(&self.wire, &env.msg.value).expect("encoded messages decode");
        let from = env.from;
        match env.dest {
            Dest::AllAcceptors => {
                self.fan_out(from, NodeRef::Acceptor, self.acceptors.len(), &msg);
            }
            Dest::AllLearners => {
                self.fan_out(from, NodeRef::Replica, self.replicas.len(), &msg);
                self.fan_out(from, NodeRef::Leader, self.leaders.len(), &msg);
            }
            Dest::Leader => self.fan_out(from, NodeRef::Leader, self.leaders.len(), &msg),
            Dest::Client(_) => self.client_replies += 1,
            Dest::Reply => self.deliver_to(from, env.reply_to, &msg),
        }
    }

    /// Hands `msg` to machines `0..count` of one role, in index order.
    fn fan_out(&mut self, from: NodeRef, role: fn(u8) -> NodeRef, count: usize, msg: &PaxosMsg) {
        for i in 0..count as u8 {
            self.deliver_to(from, role(i), msg);
        }
    }

    /// Hands `msg` to one machine, if the network lets it through, and
    /// queues what the machine sends in response.
    fn deliver_to(&mut self, from: NodeRef, to: NodeRef, msg: &PaxosMsg) {
        if !self.reachable(from, to) {
            return;
        }
        let out = match to {
            NodeRef::Replica(i) => self.replicas[i as usize].handle(msg),
            NodeRef::Leader(i) => self.leaders[i as usize].handle(msg),
            NodeRef::Acceptor(i) => self.acceptors[i as usize].handle(msg),
        };
        self.enqueue(to, from, out);
    }

    /// Safety property 1: no slot maps to two different values, among
    /// the replies sent at execution and the decisions still in windows.
    pub fn single_value_per_slot(&self) -> bool {
        let executed = self.oracle.replies.iter();
        let mut chosen: HashMap<u64, &[u8]> = executed.map(|(s, v)| (*s, v.as_ref())).collect();
        for r in &self.replicas {
            for (slot, value) in r.decisions() {
                match chosen.get(&slot) {
                    Some(&v) if v != value => return false,
                    _ => {
                        chosen.insert(slot, value);
                    }
                }
            }
        }
        !self.oracle.two_values
    }

    /// Safety property 2: every pair of replicas agrees on the common
    /// prefix of their executed logs (slot and value, entry by entry).
    pub fn logs_prefix_agree(&self) -> bool {
        !self.oracle.out_of_order && !self.oracle.two_values
    }

    /// The longest executed log across replicas (commands, not no-ops).
    pub fn max_executed(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.executed_count)
            .max()
            .unwrap_or(0)
    }
}

/// Offered rate a busy consensus role meters (packets/second): high
/// enough that an active role's offload pays handsomely under
/// [`role_analysis`], zero when the role is idle.
pub const ROLE_RATE_PPS: f64 = 120_000.0;

/// Synthetic §8 analysis for a consensus role: ~7.6 W of host savings
/// at [`ROLE_RATE_PPS`], negative when idle — so active roles offload
/// and deposed/dead ones are evicted by the ordinary economics.
pub fn role_analysis() -> PlacementAnalysis {
    PlacementAnalysis {
        software: EnergyParams {
            idle_w: 50.0,
            sleep_w: 0.0,
            active_w: 130.0,
            peak_rate_pps: 1_000_000.0,
        },
        network: EnergyParams {
            idle_w: 52.0,
            sleep_w: 0.0,
            active_w: 52.1,
            peak_rate_pps: 10_000_000.0,
        },
    }
}

fn role_app(name: &str, home: DeviceId) -> FleetApp {
    FleetApp {
        name: name.into(),
        demand: ProgramResources {
            stages: 3,
            sram_bytes: 1 << 20,
            parse_depth_bytes: 64,
        },
        analysis: role_analysis(),
        home,
        weight: 1.0,
    }
}

/// Cluster ticks per controller interval (protocol time runs faster
/// than placement time, as it does in the paper's deployments).
const TICKS_PER_INTERVAL: usize = 4;
/// Delivery attempts drained after each protocol tick.
const STEPS_PER_TICK: usize = 500;
/// Commands submitted per controller interval.
const CMDS_PER_INTERVAL: usize = 2;

/// One fault of a [`ConsensusRig`] schedule.
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    /// The controller loses the device; its tenants are force-evicted
    /// at the next tick.
    DeviceDown(DeviceId),
    /// The node dies, keeping its state.
    Kill(NodeRef),
    /// A dead node comes back with its retained state.
    Revive(NodeRef),
    /// These nodes are cut off from the rest of the cluster.
    Partition(&'static [NodeRef]),
    /// The controller's offload floor moves to this many watts.
    MinBenefit(f64),
}

/// The consensus placement rig: a [`ChaosCluster`] whose acceptor and
/// leader roles are fleet tenants of a two-pod fabric, run under a
/// fixed fault schedule.
///
/// Layout (fat-tree, 2 pods × 2 ToRs):
///
/// | tenant    | app index | home           |
/// |-----------|-----------|----------------|
/// | acceptor 0| 0         | device 0 (pod 0) |
/// | acceptor 1| 1         | device 2 (pod 1) |
/// | acceptor 2| 2         | device 3 (pod 1) |
/// | leader 0  | 3         | device 0 (pod 0) |
/// | leader 1  | 4         | device 2 (pod 1) |
///
/// Device 1 is the spare pod-0 ToR (the re-placement target when
/// device 0 dies). Killing pod 0 (devices 0 and 1) isolates exactly
/// acceptor 0 and leader 0 — a quorum survives in pod 1.
///
/// Each controller interval submits commands, runs the protocol under
/// chaos and meters a role at [`ROLE_RATE_PPS`] if it voted (acceptors)
/// or proposed (leaders) in the interval, idle otherwise. Its timeline
/// row counts those votes or proposals as `completed` and meters
/// [`role_analysis`]'s power for the role's placement, a device away
/// from home saving only its tier's `benefit_factor` share and paying
/// the detour's link energy, as every fleet rig meters it.
pub struct ConsensusRig {
    /// The protocol layer.
    pub cluster: ChaosCluster,
    /// `(k, fault)`: the fault lands after `k` controller intervals.
    schedule: &'static [(u64, Fault)],
}

impl ConsensusRig {
    /// Builds the rig with 2 replicas, 2 leaders, 3 acceptors and a 5 %
    /// drop / 2 % duplication network, to run under `schedule`.
    pub fn new(seed: u64, schedule: &'static [(u64, Fault)]) -> Self {
        let mut cluster = ChaosCluster::new(seed, 2, 2, 3);
        cluster.drop_p = 0.05;
        cluster.dup_p = 0.02;
        ConsensusRig { cluster, schedule }
    }

    /// The controller that places the five role tenants.
    pub fn fleet_controller(interval: Nanos) -> FleetController {
        let fabric = DeviceFabric::homogeneous(
            4,
            PipelineBudget::tofino_like(),
            Topology::fat_tree(
                2,
                2,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        );
        let apps = vec![
            role_app("paxos-acceptor-0", DeviceId(0)),
            role_app("paxos-acceptor-1", DeviceId(2)),
            role_app("paxos-acceptor-2", DeviceId(3)),
            role_app("paxos-leader-0", DeviceId(0)),
            role_app("paxos-leader-1", DeviceId(2)),
        ];
        let config = FleetControllerConfig {
            rate_deadband: 0.05,
            ..FleetControllerConfig::standard(interval)
        };
        FleetController::new(config, fabric, apps)
    }

    /// Runs the schedule under `ctl` until `until`.
    ///
    /// # Panics
    ///
    /// Panics, naming the interval, as soon as a slot has learned two
    /// values or replica logs disagree.
    pub fn run(&mut self, ctl: &mut FleetController, until: Nanos) -> FleetTimeline {
        let mut sim: Simulator<()> = Simulator::new(0);
        let (schedule, cluster) = (self.schedule, &mut self.cluster);
        let mut intervals = 0;
        let mut seen = [0u64; 5];
        let probe = |_: &mut Simulator<()>, ctl: &mut FleetController| {
            for &(_, fault) in schedule.iter().filter(|(k, _)| *k == intervals) {
                match fault {
                    Fault::DeviceDown(d) => ctl.set_device_online(d, false),
                    Fault::Kill(n) => cluster.kill(n),
                    Fault::Revive(n) => cluster.revive(n),
                    Fault::Partition(minority) => cluster.set_partition(minority.to_vec()),
                    Fault::MinBenefit(w) => ctl.set_min_benefit_w(w),
                }
            }
            intervals += 1;
            for _ in 0..CMDS_PER_INTERVAL {
                cluster.submit(7, Vec::new());
            }
            for _ in 0..TICKS_PER_INTERVAL {
                cluster.tick(STEPS_PER_TICK);
            }
            assert!(
                cluster.single_value_per_slot() && cluster.logs_prefix_agree(),
                "consensus safety broke in interval {intervals}"
            );
            let votes = cluster.acceptors.iter().map(|a| a.votes);
            let counts = votes.chain(cluster.leaders.iter().map(|l| l.proposals_sent));
            let (fabric, apps) = (ctl.fabric(), ctl.apps());
            let roles = counts.zip(&mut seen).enumerate();
            roles
                .map(|(i, (count, seen))| {
                    let completed = count - std::mem::replace(seen, count);
                    let rate = if completed > 0 { ROLE_RATE_PPS } else { 0.0 };
                    let placement = ctl.placements()[i];
                    let (sw_w, hw_w) = apps[i].analysis.energy_per_second(rate);
                    let power_w = match placement {
                        Placement::Software => sw_w,
                        Placement::Device(d) => {
                            let f = fabric.benefit_factor(apps[i].home, d);
                            let link_w = fabric.link_energy_w(apps[i].home, d, rate);
                            sw_w - f * (sw_w - hw_w) + link_w
                        }
                    };
                    AppObservation {
                        sample: FleetSample {
                            host: HostSample {
                                rapl_w: 50.0,
                                app_cpu_util: 0.5,
                                hw_app_rate: rate,
                            },
                            offered_pps: rate,
                        },
                        completed,
                        latency_p50_ns: 0,
                        power_w,
                    }
                })
                .collect()
        };
        run_fleet_controlled(&mut sim, ctl, until, RowLog::Full, probe, |_, _, _, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_cluster_reaches_consensus_under_loss() {
        let mut c = ChaosCluster::new(3, 2, 2, 3);
        c.drop_p = 0.1;
        c.dup_p = 0.05;
        for _ in 0..40 {
            c.submit(9, vec![1, 2, 3]);
            c.tick(STEPS_PER_TICK);
        }
        // Drain with no further traffic.
        for _ in 0..40 {
            c.tick(STEPS_PER_TICK);
        }
        assert!(c.max_executed() >= 30, "executed {}", c.max_executed());
        assert!(c.single_value_per_slot());
        assert!(c.logs_prefix_agree());
        assert!(c.dropped > 0 && c.duplicated > 0);
    }

    #[test]
    fn the_reply_oracle_fires_on_forged_replies() {
        fn reply(slot: u64, value: &'static [u8]) -> Outbox {
            let msg = PaxosMsg::new(MsgType::ClientReply, slot, 0, Bytes::from_static(value));
            Outbox::One((Dest::Client(9), msg))
        }
        let (r0, r1) = (NodeRef::Replica(0), NodeRef::Replica(1));
        // Honest history: both replicas execute slots 1 and 2 alike; the
        // oracle keeps only what replica 1 has yet to confirm.
        let mut c = ChaosCluster::new(1, 2, 1, 3);
        for (from, slot) in [(r0, 1), (r0, 2), (r1, 1)] {
            c.enqueue(from, from, reply(slot, b"honest"));
        }
        assert!(c.single_value_per_slot() && c.logs_prefix_agree());
        assert_eq!(c.oracle.replies.len(), 1);

        // A second value for a slot replica 0 already executed.
        let mut forged = ChaosCluster::new(1, 2, 1, 3);
        forged.enqueue(r0, r0, reply(1, b"honest"));
        forged.enqueue(r1, r1, reply(1, b"forged"));
        assert!(!forged.single_value_per_slot());

        // A replica executing backwards, and one skipping a slot the
        // other executed: the values agree, the prefixes do not.
        c.enqueue(r0, r0, reply(2, b"honest"));
        assert!(c.single_value_per_slot() && !c.logs_prefix_agree());
        let mut skipped = ChaosCluster::new(1, 2, 1, 3);
        for (from, slot) in [(r0, 1), (r0, 2), (r1, 2)] {
            skipped.enqueue(from, from, reply(slot, b"honest"));
        }
        assert!(skipped.single_value_per_slot() && !skipped.logs_prefix_agree());

        // A decision waiting in replica 1's window (slot 1 is undecided
        // there) that contradicts what replica 0 executed at that slot.
        let mut pending = ChaosCluster::new(1, 2, 1, 3);
        pending.enqueue(r0, r0, reply(1, b"honest"));
        pending.enqueue(r0, r0, reply(2, b"honest"));
        for acceptor in 0..2 {
            let mut vote = PaxosMsg::new(MsgType::Phase2b, 2, 16, Bytes::from_static(b"forged"));
            vote.vround = 16;
            vote.acceptor = acceptor;
            assert!(pending.single_value_per_slot());
            pending.replicas[1].handle(&vote);
        }
        assert!(!pending.single_value_per_slot());
    }
}
