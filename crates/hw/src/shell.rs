//! The platform every packet application runs on: one card shell and one
//! server shell (§3.4, Figure 2).
//!
//! LaKe, Emu DNS and P4xos are application cores compiled into the same
//! NetFPGA SUME shell, and memcached, NSD and libpaxos are daemons on the
//! same i7 host. What that platform gives each of them is written here
//! once:
//!
//! * [`CardShell`] — the SUME card as a bump in the wire: placement with
//!   parking (§9.2), the shift log, the embedded [`NetRateController`]
//!   (§9.1), the [`LoadMeter`] behind the load term of the power model,
//!   one [`ServiceStation`] for the application core, the device
//!   counters, and the port plumbing — non-application traffic from the
//!   network to the host after the shell pipeline, host traffic back out
//!   of P0, spare front-panel ports to the host.
//! * [`ServerShell`] — a host daemon: one [`HostConfig`], the CPU as a
//!   [`ServiceStation`], the [`UtilMeter`] behind the power model,
//!   co-tenant load, and replies held in a [`Deferred`] table until their
//!   service time has elapsed.
//!
//! LaKe and Emu embed the card shell and memcached and NSD the server
//! shell, each implementing [`CardApp`] or [`ServerApp`]: the shell calls
//! it once per frame and the application parses that frame exactly once
//! inside the call. The P4xos and libpaxos nodes keep their own
//! platform enum but reuse the meters and the [`Deferred`] table. The shells are generic
//! over the message type, so this crate needs no wire format: the
//! application crates instantiate them with `inc-net`'s `Packet`. Every
//! call is static — no trait object sits on the per-packet path.

use inc_power::{calib, CpuModel};
use inc_sim::{
    Admission, Ctx, FixedHashMap, Histogram, Nanos, PortId, ServiceStation, Timer, WindowRate,
};

use crate::netfpga::{SumeCard, HOST_DMA_PORT, PCIE_DMA_ONE_WAY, SHELL_PIPELINE_LATENCY};
use crate::offload::{NetRateController, Placement};

/// Cadence of every platform's power and rate bookkeeping.
pub const POWER_TICK: Nanos = Nanos::from_millis(20);

/// Timer tag of the power tick. [`Deferred`] items use tags far above it.
pub const TAG_POWER_TICK: u64 = 1;

/// Application packets metered over a sliding one-second window, and the
/// load fraction the power model reads, refreshed on every power tick.
#[derive(Clone, Debug)]
pub struct LoadMeter {
    window: WindowRate,
    peak_pps: f64,
    load: f64,
}

impl LoadMeter {
    /// A meter whose full load is `peak_pps`.
    pub fn new(peak_pps: f64) -> Self {
        LoadMeter {
            window: WindowRate::new(Nanos::from_millis(100), 10),
            peak_pps,
            load: 0.0,
        }
    }

    /// Counts one application packet.
    pub fn record(&mut self, now: Nanos) {
        self.window.record(now, 1);
    }

    /// The measured application packet rate (what a host controller reads
    /// back from the network, §9.1).
    pub fn rate(&mut self, now: Nanos) -> f64 {
        self.window.rate(now)
    }

    /// Refreshes the load fraction from the current rate.
    pub fn tick(&mut self, now: Nanos) {
        self.load = (self.window.rate(now) / self.peak_pps).clamp(0.0, 1.0);
    }

    /// The load fraction as of the last tick, in `[0, 1]`.
    pub fn load(&self) -> f64 {
        self.load
    }
}

/// Busy cores over the last power tick, read off a [`ServiceStation`].
#[derive(Clone, Copy, Debug, Default)]
pub struct UtilMeter {
    last_busy_ns: u128,
    util: f64,
}

impl UtilMeter {
    /// Refreshes the utilisation from the busy core time since the last
    /// tick.
    pub fn tick(&mut self, cpu: &ServiceStation, now: Nanos) {
        let busy = cpu.busy_core_ns(now);
        self.util = busy.saturating_sub(self.last_busy_ns) as f64 / POWER_TICK.as_nanos() as f64;
        self.last_busy_ns = busy;
    }

    /// Busy core-seconds per second as of the last tick.
    pub fn util(&self) -> f64 {
        self.util
    }
}

/// Items waiting for their own timer: each is filed under a fresh tag and
/// handed back when that timer fires.
#[derive(Clone, Debug)]
pub struct Deferred<T> {
    items: FixedHashMap<u64, T>,
    next: u64,
}

impl<T> Default for Deferred<T> {
    fn default() -> Self {
        Deferred {
            items: FixedHashMap::default(),
            next: 0,
        }
    }
}

impl<T> Deferred<T> {
    /// Tags at or below this are the node's own fixed timers.
    const TAG_BASE: u64 = 1 << 32;

    /// Parks `item` until `at`.
    pub fn defer<M>(&mut self, ctx: &mut Ctx<'_, M>, at: Nanos, item: T) {
        self.next += 1;
        let tag = Self::TAG_BASE + self.next;
        self.items.insert(tag, item);
        ctx.schedule_at(at, tag);
    }

    /// The item the timer tagged `tag` was set for, if any.
    pub fn take(&mut self, tag: u64) -> Option<T> {
        self.items.remove(&tag)
    }
}

/// The host the software twins run on: one CPU model with per-daemon
/// service and latency figures. memcached, NSD and libpaxos differ only in
/// these numbers.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    /// The host's CPU power model.
    pub cpu: CpuModel,
    /// CPU time per request (all cores together peak at
    /// `cores / service` requests per second).
    pub service: Nanos,
    /// Fixed kernel/stack latency added to every request.
    pub fixed: Nanos,
    /// Power of a NIC installed in this host (0 when the NetFPGA replaces
    /// it, §4.2).
    pub nic_w: f64,
    /// `true` for DPDK: a core spins at 100 % regardless of load (§4.3:
    /// "the power consumption for the DPDK implementation is high even
    /// under low load ... since DPDK constantly polls").
    pub polling: bool,
}

impl HostConfig {
    /// memcached on the paper's i7 host with the Mellanox NIC: peaks at
    /// ~1 Mpps and idles at 39 W (§4.2), with a ~13.5 µs software service
    /// path (§5.3).
    pub fn i7_with_mellanox() -> Self {
        HostConfig {
            cpu: CpuModel::i7_6700k(),
            service: Nanos::from_micros(4),
            fixed: Nanos::from_micros(5),
            nic_w: calib::MELLANOX_NIC_W,
            polling: false,
        }
    }

    /// The same host behind a LaKe card: the NIC is removed (§4.2: "the
    /// NIC is taken out of the server for LaKe's evaluation").
    pub fn i7_behind_lake() -> Self {
        HostConfig {
            nic_w: 0.0,
            ..Self::i7_with_mellanox()
        }
    }

    /// NSD on the i7 with an Intel X520, peaking at 956 Krps (§4.4) with
    /// the ~×70 latency gap to Emu (§3.3).
    pub fn nsd_i7() -> Self {
        HostConfig {
            cpu: CpuModel::i7_6700k_nsd(),
            service: Nanos::from_nanos(4_184), // 4 cores / 956 Krps
            fixed: Nanos::from_micros(90),
            nic_w: calib::INTEL_X520_NIC_W,
            polling: false,
        }
    }

    /// The NSD host behind the NetFPGA card (NIC removed).
    pub fn nsd_behind_emu() -> Self {
        HostConfig {
            nic_w: 0.0,
            ..Self::nsd_i7()
        }
    }

    /// libpaxos acceptor: one core, peak 178 Kmsg/s (§3.2).
    pub fn libpaxos_acceptor() -> Self {
        HostConfig {
            cpu: CpuModel::i7_6700k_single_core_service(),
            service: Nanos::from_nanos(5_618),
            fixed: Nanos::from_micros(40),
            nic_w: calib::INTEL_X520_NIC_W,
            polling: false,
        }
    }

    /// libpaxos leader: sequencing plus fan-out makes it the slowest and
    /// most latency-dominant role.
    pub fn libpaxos_leader() -> Self {
        HostConfig {
            service: Nanos::from_nanos(6_250),
            fixed: Nanos::from_micros(100),
            ..Self::libpaxos_acceptor()
        }
    }

    /// libpaxos learner.
    pub fn libpaxos_learner() -> Self {
        Self::libpaxos_acceptor()
    }

    /// DPDK acceptor: kernel bypass, ~900 Kmsg/s, constant high power.
    pub fn dpdk_acceptor() -> Self {
        HostConfig {
            cpu: CpuModel::i7_6700k(),
            service: Nanos::from_nanos(1_111),
            fixed: Nanos::from_micros(3),
            nic_w: calib::INTEL_X520_NIC_W,
            polling: true,
        }
    }

    /// DPDK leader: ~800 Kmsg/s.
    // inc-lint: allow(unreached-pub): crates/paxos/tests/consensus.rs runs the §4.3 DPDK deployment with it
    pub fn dpdk_leader() -> Self {
        HostConfig {
            service: Nanos::from_nanos(1_250),
            ..Self::dpdk_acceptor()
        }
    }

    /// Host power with `util` busy cores; a polling core counts as busy.
    pub fn power_w(&self, util: f64) -> f64 {
        let util = if self.polling { util.max(1.0) } else { util };
        self.cpu.power_w(util) + self.nic_w
    }
}

/// What a daemon adds to the [`ServerShell`]: how it serves one request.
pub trait ServerApp {
    /// The message type of the simulation.
    type Msg;

    /// Serves `msg`: parses it once, [`ServerShell::admit`]s it, executes
    /// it and builds the reply. Returns the reply and the instant it
    /// leaves, or `None` when `msg` is not a request or the CPU drops it.
    fn serve(
        &mut self,
        host: &mut ServerShell<Self::Msg>,
        ctx: &mut Ctx<'_, Self::Msg>,
        msg: &Self::Msg,
    ) -> Option<(Self::Msg, Nanos)>;
}

/// A host daemon: the CPU, its power meter and the replies waiting out
/// their service time.
pub struct ServerShell<M> {
    config: HostConfig,
    cpu: ServiceStation,
    util: UtilMeter,
    /// Extra core utilisation imposed by co-tenant jobs (core-seconds/s).
    background_util: f64,
    replies: Deferred<(M, PortId)>,
    served: u64,
    /// Latency from request arrival at the server to reply emission.
    pub service_latency: Histogram,
}

impl<M> ServerShell<M> {
    /// An idle host: every core of `config`'s CPU serves requests.
    pub fn new(config: HostConfig) -> Self {
        let cores = config.cpu.cores as usize;
        ServerShell {
            config,
            cpu: ServiceStation::new(cores, Some(Nanos::from_micros(500))),
            util: UtilMeter::default(),
            background_util: 0.0,
            replies: Deferred::default(),
            served: 0,
            service_latency: Histogram::new(),
        }
    }

    /// Imposes `cores` of co-tenant CPU load (the Figure 6 ChainerMN job).
    pub fn set_background_util(&mut self, cores: f64) {
        self.background_util = cores.max(0.0);
    }

    /// Requests served since creation.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests dropped due to overload.
    pub fn dropped(&self) -> u64 {
        self.cpu.dropped()
    }

    /// Core utilisation (core-seconds/s), including background load.
    pub fn utilization(&self) -> f64 {
        self.util.util() + self.background_util
    }

    /// The utilisation attributable to the daemon itself — what a
    /// per-process monitor reports to the host controller (§9.1).
    pub fn app_utilization(&self) -> f64 {
        self.util.util()
    }

    /// Queues a request arriving at `now` on the CPU: the instant its
    /// reply is ready (service plus the fixed stack latency), or `None`
    /// when the backlog is full and the request is dropped.
    pub fn admit(&mut self, now: Nanos) -> Option<Nanos> {
        match self.cpu.submit(now, self.config.service) {
            Admission::Served { finish, .. } => Some(finish + self.config.fixed),
            Admission::Dropped => None,
        }
    }

    /// Host power at the current utilisation.
    pub fn power_w(&self) -> f64 {
        self.config.power_w(self.utilization())
    }

    /// [`Node::on_start`](inc_sim::Node::on_start): starts the power tick.
    pub fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
    }

    /// [`Node::on_message`](inc_sim::Node::on_message): `app` serves the
    /// request and its reply leaves through the arrival port when ready.
    pub fn on_message<A: ServerApp<Msg = M>>(
        &mut self,
        app: &mut A,
        ctx: &mut Ctx<'_, M>,
        port: PortId,
        msg: M,
    ) {
        let now = ctx.now();
        let Some((reply, done)) = app.serve(self, ctx, &msg) else {
            return;
        };
        self.service_latency.record_nanos(done - now);
        self.replies.defer(ctx, done, (reply, port));
    }

    /// [`Node::on_timer`](inc_sim::Node::on_timer): the power tick, or a
    /// reply whose service time is up.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: Timer) {
        if timer.tag == TAG_POWER_TICK {
            self.util.tick(&self.cpu, ctx.now());
            ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
        } else if let Some((reply, port)) = self.replies.take(timer.tag) {
            self.served += 1;
            ctx.send(port, reply);
        }
    }
}

/// How the card idles while the application lives in software (§9.2).
///
/// The paper chooses [`ParkPolicy::Cold`] ("the approach that keeps LaKe
/// programmed but inactive, in order to get the best of both performance
/// and power efficiency worlds") and names the two alternatives: keeping
/// the cache warm (less saving) and partial reconfiguration (a momentary
/// traffic halt when resuming).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ParkPolicy {
    /// Memories in reset + logic clock-gated: caches are lost, traffic
    /// keeps flowing, ~6.5 W saved (the paper's choice).
    #[default]
    Cold,
    /// Memories stay powered: caches survive, only ~2 W saved.
    Warm,
    /// The application region is reconfigured out: maximum saving
    /// (reference-NIC level), but resuming reprograms the fabric and halts
    /// traffic for [`RECONFIG_HALT`].
    Reconfigure,
}

/// Traffic halt while partial reconfiguration loads the region back.
pub const RECONFIG_HALT: Nanos = Nanos::from_millis(50);

/// Cumulative card counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CardStats {
    /// Requests answered by the hardware.
    pub served_hw: u64,
    /// Application packets forwarded to the host (placement, miss, or
    /// beyond the core's capability).
    pub to_host: u64,
    /// Packets forwarded like a plain NIC would.
    pub passthrough: u64,
    /// Requests dropped by the saturated application core.
    pub dropped: u64,
    /// Placement shifts executed.
    pub shifts: u64,
}

/// What the card does with an application frame from the network.
pub enum Verdict<M> {
    /// Answer out of P0 once the shell pipeline and `work` more have
    /// passed.
    Reply {
        /// Device-internal time beyond the shell pipeline.
        work: Nanos,
        /// The reply frame.
        reply: M,
    },
    /// Hand the frame to the host over PCIe, after the shell pipeline and
    /// this much device-internal time.
    ToHost(Nanos),
    /// Not the application's to serve: on to the host like a plain NIC.
    Pass,
    /// The application core is saturated: the request is lost.
    Drop,
}

/// What an application core adds to the [`CardShell`]: which frames are
/// its own and how it serves them.
pub trait CardApp {
    /// The message type of the simulation.
    type Msg;
    /// An application frame, parsed once and borrowed from its message.
    type Frame<'a>
    where
        Self::Msg: 'a;

    /// The classifier: parses `msg`, `None` when it is not application
    /// traffic.
    fn classify<'a>(&self, msg: &'a Self::Msg) -> Option<Self::Frame<'a>>;

    /// Serves an application frame while the card holds the placement;
    /// the application core's time goes through [`CardShell::admit`].
    fn serve(
        &mut self,
        shell: &mut CardShell,
        now: Nanos,
        frame: &Self::Frame<'_>,
        msg: &Self::Msg,
    ) -> Verdict<Self::Msg>;

    /// The card moved to `placement` under `policy`; application state
    /// follows (a cache that came back cold, misses no longer awaited).
    fn on_shift(&mut self, _placement: Placement, _policy: ParkPolicy) {}

    /// A frame from the host is about to leave for the network.
    fn on_host(&mut self, _placement: Placement, _msg: &Self::Msg) {}
}

/// The NetFPGA SUME shell an application core is compiled into.
///
/// It starts parked in [`Placement::Software`], where every frame passes
/// through as on a NIC. Port 0 faces the network and
/// [`HOST_DMA_PORT`] the host; every other port is a spare front-panel
/// port whose traffic goes to the host.
pub struct CardShell {
    card: SumeCard,
    park_policy: ParkPolicy,
    placement: Placement,
    controller: Option<NetRateController>,
    meter: LoadMeter,
    station: ServiceStation,
    stats: CardStats,
    /// While reprogramming (reconfigure policy), all traffic is dropped
    /// until this instant.
    blackout_until: Nanos,
    /// Packets dropped during reconfiguration blackouts.
    pub blackout_drops: u64,
    /// Latency of hardware-served requests (device-internal component).
    pub hw_latency: Histogram,
    /// Shift log: (time, new placement).
    pub shift_log: Vec<(Nanos, Placement)>,
}

impl CardShell {
    /// A parked `card` whose application core is `station`, at full load
    /// at `peak_pps`.
    pub fn new(card: SumeCard, station: ServiceStation, peak_pps: f64) -> Self {
        let mut shell = CardShell {
            card,
            park_policy: ParkPolicy::Cold,
            placement: Placement::Software,
            controller: None,
            meter: LoadMeter::new(peak_pps),
            station,
            stats: CardStats::default(),
            blackout_until: Nanos::ZERO,
            blackout_drops: 0,
            hw_latency: Histogram::new(),
            shift_log: Vec::new(),
        };
        shell.park();
        shell
    }

    /// Installs the network-controlled on-demand controller (§9.1).
    pub fn set_controller(&mut self, controller: NetRateController) {
        self.controller = Some(controller);
    }

    /// Selects the idle-time policy, re-parking if currently parked.
    pub fn set_park_policy(&mut self, policy: ParkPolicy) {
        self.park_policy = policy;
        if self.placement == Placement::Software {
            self.park();
        }
    }

    /// The current placement.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CardStats {
        self.stats
    }

    /// The card's module power model.
    pub fn card(&self) -> &SumeCard {
        &self.card
    }

    /// The hardware-measured application packet rate (what the
    /// host-controlled design reads back from the network, §9.1).
    pub fn measured_rate(&mut self, now: Nanos) -> f64 {
        self.meter.rate(now)
    }

    /// Card power at the load of the last power tick.
    pub fn power_w(&self) -> f64 {
        self.card.power_w(self.meter.load())
    }

    /// Queues `service` of application-core time for a request arriving at
    /// `now`: the time until it is done, queueing included, or `None` when
    /// the core's backlog is full.
    pub fn admit(&mut self, now: Nanos, service: Nanos) -> Option<Nanos> {
        match self.station.submit(now, service) {
            Admission::Served { finish, .. } => Some(finish - now),
            Admission::Dropped => None,
        }
    }

    fn park(&mut self) {
        match self.park_policy {
            ParkPolicy::Cold => self.card.park(),
            ParkPolicy::Warm => self.card.park_warm(),
            ParkPolicy::Reconfigure => self.card.park_reconfigured(),
        }
    }

    /// Moves `app` to `placement`: unparks or parks the card (a
    /// reconfigured region halts traffic while it reloads) and logs the
    /// shift. A no-op when already there.
    pub fn place<A: CardApp>(&mut self, app: &mut A, now: Nanos, placement: Placement) {
        if placement == self.placement {
            return;
        }
        self.placement = placement;
        self.stats.shifts += 1;
        self.shift_log.push((now, placement));
        match placement {
            Placement::Device(_) => {
                self.card.unpark();
                if self.park_policy == ParkPolicy::Reconfigure {
                    self.blackout_until = now + RECONFIG_HALT;
                }
            }
            Placement::Software => {
                self.park();
                self.station.quiesce(now);
            }
        }
        app.on_shift(placement, self.park_policy);
    }

    /// Starts in hardware placement with an empty shift log (the
    /// always-on experiments of §4).
    pub fn start_in_hardware<A: CardApp>(&mut self, app: &mut A) {
        self.place(app, Nanos::ZERO, Placement::HARDWARE);
        self.shift_log.clear();
        self.stats.shifts = 0;
    }

    /// [`Node::on_start`](inc_sim::Node::on_start): starts the power tick.
    pub fn on_start<M>(&mut self, ctx: &mut Ctx<'_, M>) {
        ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
    }

    /// [`Node::on_message`](inc_sim::Node::on_message): routes one frame.
    pub fn on_message<A: CardApp>(
        &mut self,
        app: &mut A,
        ctx: &mut Ctx<'_, A::Msg>,
        port: PortId,
        msg: A::Msg,
    ) {
        let now = ctx.now();
        if now < self.blackout_until {
            // Partial reconfiguration in progress: the fabric is not
            // forwarding anything (§9.2's "momentary traffic halt").
            self.blackout_drops += 1;
            return;
        }
        match port {
            PortId::P0 => match self.network_verdict(app, now, &msg) {
                Verdict::Reply { work, reply } => {
                    let after = SHELL_PIPELINE_LATENCY + work;
                    self.stats.served_hw += 1;
                    self.hw_latency.record_nanos(after);
                    ctx.send_after(after, PortId::P0, reply);
                }
                Verdict::ToHost(work) => {
                    self.stats.to_host += 1;
                    let after = SHELL_PIPELINE_LATENCY + work + PCIE_DMA_ONE_WAY;
                    ctx.send_after(after, HOST_DMA_PORT, msg);
                }
                Verdict::Pass => self.pass(ctx, HOST_DMA_PORT, msg),
                Verdict::Drop => self.stats.dropped += 1,
            },
            HOST_DMA_PORT => {
                app.on_host(self.placement, &msg);
                self.pass(ctx, PortId::P0, msg);
            }
            _ => self.pass(ctx, HOST_DMA_PORT, msg),
        }
    }

    /// The classifier path of a frame from the network: application
    /// traffic is metered and shown to the embedded controller, then
    /// served by the core or sent to the host by placement. The verdict is
    /// reached while the parsed frame borrows `msg` and carried out after.
    fn network_verdict<A: CardApp>(
        &mut self,
        app: &mut A,
        now: Nanos,
        msg: &A::Msg,
    ) -> Verdict<A::Msg> {
        let Some(frame) = app.classify(msg) else {
            return Verdict::Pass;
        };
        self.meter.record(now);
        if let Some(p) = self.controller.as_mut().and_then(|c| c.on_app_packet(now)) {
            self.place(app, now, p);
        }
        match self.placement {
            Placement::Device(_) => app.serve(self, now, &frame, msg),
            Placement::Software => Verdict::ToHost(Nanos::ZERO),
        }
    }

    fn pass<M>(&mut self, ctx: &mut Ctx<'_, M>, to: PortId, msg: M) {
        self.stats.passthrough += 1;
        ctx.send_after(SHELL_PIPELINE_LATENCY, to, msg);
    }

    /// [`Node::on_timer`](inc_sim::Node::on_timer): the power tick
    /// refreshes the load and lets the controller shift on silence.
    pub fn on_timer<A: CardApp>(&mut self, app: &mut A, ctx: &mut Ctx<'_, A::Msg>, timer: Timer) {
        if timer.tag != TAG_POWER_TICK {
            return;
        }
        let now = ctx.now();
        self.meter.tick(now);
        if let Some(p) = self.controller.as_mut().and_then(|c| c.on_tick(now)) {
            self.place(app, now, p);
        }
        ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
    }
}
