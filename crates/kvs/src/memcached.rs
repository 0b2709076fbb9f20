//! The software memcached server (v1.5.1 in the paper's testbed, §4.2).
//!
//! A simulation node that parses real memcached binary-protocol datagrams,
//! executes them against an authoritative [`KvStore`], and models the host
//! cost: per-request CPU service time on a multi-core [`ServiceStation`],
//! a fixed kernel network-stack latency, and the calibrated i7 power curve
//! with its uncore-activation jump. A co-tenant workload (the paper's
//! ChainerMN in Figure 6) can be imposed as extra core utilisation.

use inc_net::{build_reply_with, Packet, UdpFrame};
use inc_power::{CpuModel, RaplCounter, RaplDomain};
use inc_sim::{
    impl_node_any, Admission, Ctx, FixedHashMap, Histogram, Nanos, Node, PortId, ServiceStation,
    Timer,
};

use crate::protocol::{decode_view, MessageView, RequestView, ResponseView, Status};
use crate::store::KvStore;

const TAG_POWER_TICK: u64 = 1;
const TAG_REPLY_BASE: u64 = 1 << 32;
const POWER_TICK: Nanos = Nanos::from_millis(20);

/// Configuration of the software server's cost model.
#[derive(Clone, Copy, Debug)]
pub struct MemcachedConfig {
    /// CPU power model of the host platform.
    pub cpu: CpuModel,
    /// Per-request CPU service time (all cores together peak at
    /// `cores / service_time` requests per second).
    pub service_time: Nanos,
    /// Fixed kernel/network-stack latency added to every request.
    pub kernel_latency: Nanos,
    /// Power of a NIC installed in this host (0 when the NetFPGA replaces
    /// it, §4.2).
    pub nic_w: f64,
}

impl MemcachedConfig {
    /// The paper's i7 host with the Mellanox NIC: peaks at ~1 Mpps and
    /// idles at 39 W (§4.2), with a ~13.5 µs software service path (§5.3).
    pub fn i7_with_mellanox() -> Self {
        MemcachedConfig {
            cpu: CpuModel::i7_6700k(),
            service_time: Nanos::from_micros(4),
            kernel_latency: Nanos::from_micros(5),
            nic_w: inc_power::calib::MELLANOX_NIC_W,
        }
    }

    /// The same host behind a LaKe card: the NIC is removed (§4.2: "the
    /// NIC is taken out of the server for LaKe's evaluation").
    pub fn i7_behind_lake() -> Self {
        MemcachedConfig {
            nic_w: 0.0,
            ..Self::i7_with_mellanox()
        }
    }

    /// The i7 host with the Intel X520: lower NIC power (the crossover
    /// moves past 300 Kpps) but a lower peak throughput (§4.2).
    pub fn i7_with_x520() -> Self {
        MemcachedConfig {
            cpu: CpuModel::i7_6700k(),
            service_time: Nanos::from_nanos(5_700), // peak ~700 Kpps
            kernel_latency: Nanos::from_micros(5),
            nic_w: inc_power::calib::INTEL_X520_NIC_W,
        }
    }
}

/// The memcached server node.
pub struct MemcachedServer {
    config: MemcachedConfig,
    store: KvStore,
    cpu: ServiceStation,
    /// Replies awaiting their service-completion timer.
    pending: FixedHashMap<u64, (Packet, PortId)>,
    next_reply_tag: u64,
    /// Extra core utilisation imposed by co-tenant jobs (core-seconds/s).
    background_util: f64,
    current_util: f64,
    last_busy_ns: u128,
    rapl: RaplCounter,
    served: u64,
    /// Latency from request arrival at the server to reply emission.
    pub service_latency: Histogram,
}

impl MemcachedServer {
    /// Creates a server with an empty store.
    pub fn new(config: MemcachedConfig) -> Self {
        let cores = config.cpu.cores as usize;
        MemcachedServer {
            config,
            store: KvStore::new(),
            cpu: ServiceStation::new(cores, Some(Nanos::from_micros(500))),
            pending: FixedHashMap::default(),
            next_reply_tag: 0,
            background_util: 0.0,
            current_util: 0.0,
            last_busy_ns: 0,
            rapl: RaplCounter::new(RaplDomain::Package, Nanos::from_millis(1)),
            served: 0,
            service_latency: Histogram::new(),
        }
    }

    /// Pre-populates the store (test and warm-start harnesses).
    pub fn preload(&mut self, items: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>) {
        for (k, v) in items {
            self.store.set(k, v, 0);
        }
    }

    /// Imposes `cores` of co-tenant CPU load (the Figure 6 ChainerMN job).
    pub fn set_background_util(&mut self, cores: f64) {
        self.background_util = cores.max(0.0);
    }

    /// Returns requests served since creation.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Returns requests dropped due to overload.
    pub fn dropped(&self) -> u64 {
        self.cpu.dropped()
    }

    /// Returns the current estimated core utilisation (core-seconds/s),
    /// including background load.
    pub fn utilization(&self) -> f64 {
        self.current_util + self.background_util
    }

    /// Returns the utilisation attributable to memcached itself — what a
    /// per-process monitor would report to the host controller (§9.1).
    pub fn app_utilization(&self) -> f64 {
        self.current_util
    }

    /// Reads the simulated RAPL package counter (µJ), as the host
    /// controller does (§9.1).
    pub fn rapl_read(&self, now: Nanos) -> u64 {
        self.rapl.read(now)
    }

    /// Direct store access for verification in tests.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Runs `request` against the store. A GET hit lends the stored
    /// value: the caller encodes the reply straight out of the store.
    fn execute(&mut self, request: RequestView<'_>, opaque: u32) -> ResponseView<'_> {
        let (status, value, flags): (Status, &[u8], u32) = match request {
            RequestView::Get { key } => match self.store.get(key) {
                Some((v, f)) => (Status::Ok, v, f),
                None => (Status::KeyNotFound, &[], 0),
            },
            RequestView::Set {
                key, value, flags, ..
            } => {
                let ok = self.store.set(key.to_vec(), value.to_vec(), flags);
                (if ok { Status::Ok } else { Status::TooLarge }, &[], 0)
            }
            RequestView::Delete { key } => {
                let ok = self.store.delete(key);
                (if ok { Status::Ok } else { Status::KeyNotFound }, &[], 0)
            }
        };
        ResponseView {
            opcode: request.opcode(),
            status,
            value,
            flags,
            opaque,
        }
    }
}

impl Node<Packet> for MemcachedServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, msg: Packet) {
        let now = ctx.now();
        let Ok(frame) = UdpFrame::parse(&msg) else {
            return;
        };
        let Ok(MessageView::Request {
            frame: mc_frame,
            request,
            opaque,
        }) = decode_view(frame.payload)
        else {
            return; // Not a memcached request for us.
        };
        let finish = match self.cpu.submit(now, self.config.service_time) {
            Admission::Served { finish, .. } => finish,
            Admission::Dropped => return, // Overload: client will time out.
        };
        // Execute against the store immediately (state changes are cheap
        // and total order at sub-µs scale does not affect the study);
        // the *reply* waits for the modelled CPU + kernel time.
        let response = self.execute(request, opaque);
        let mut reply = build_reply_with(&frame, response.encoded_len(), |buf| {
            response.encode_into(mc_frame, buf)
        });
        reply.id = msg.id;
        reply.sent_at = msg.sent_at;
        self.next_reply_tag += 1;
        let tag = TAG_REPLY_BASE + self.next_reply_tag;
        self.pending.insert(tag, (reply, port));
        // Kernel-path jitter (softirq batching, scheduler): exponential
        // with a ~300 ns mean, giving the paper's 13.5/14.3 µs p50/p99
        // spread on the miss path (§5.3).
        let jitter = Nanos::from_secs_f64(ctx.rng().exp(300e-9));
        let done = finish + self.config.kernel_latency + jitter;
        self.service_latency.record_nanos(done - now);
        ctx.schedule_at(done, tag);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, timer: Timer) {
        if timer.tag == TAG_POWER_TICK {
            let now = ctx.now();
            let busy = self.cpu.busy_core_ns(now);
            let window_ns = POWER_TICK.as_nanos() as u128;
            self.current_util = (busy.saturating_sub(self.last_busy_ns)) as f64 / window_ns as f64;
            self.last_busy_ns = busy;
            let power = self.config.cpu.power_w(self.utilization()) + self.config.nic_w;
            self.rapl.advance(now, power);
            ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
        } else if let Some((reply, port)) = self.pending.remove(&timer.tag) {
            self.served += 1;
            ctx.send(port, reply);
        }
    }

    fn power_w(&self, _now: Nanos) -> f64 {
        self.config.cpu.power_w(self.utilization()) + self.config.nic_w
    }

    fn label(&self) -> String {
        "memcached".to_string()
    }

    impl_node_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Opcode;

    #[test]
    fn idle_power_matches_39w() {
        let s = MemcachedServer::new(MemcachedConfig::i7_with_mellanox());
        assert!((s.power_w(Nanos::ZERO) - 39.0).abs() < 0.1);
    }

    #[test]
    fn background_raises_power() {
        let mut s = MemcachedServer::new(MemcachedConfig::i7_with_mellanox());
        let idle = s.power_w(Nanos::ZERO);
        s.set_background_util(2.0);
        assert!(s.power_w(Nanos::ZERO) > idle + 20.0);
    }

    #[test]
    fn execute_get_set_delete() {
        let mut s = MemcachedServer::new(MemcachedConfig::i7_with_mellanox());
        let set = RequestView::Set {
            key: b"k",
            value: b"v",
            flags: 3,
            expiry: 0,
        };
        assert_eq!(s.execute(set, 1).status, Status::Ok);
        let get = RequestView::Get { key: b"k" };
        let r = s.execute(get, 2);
        assert_eq!(r.opcode, Opcode::Get);
        assert_eq!(r.status, Status::Ok);
        assert_eq!(r.value, b"v");
        assert_eq!(r.flags, 3);
        let del = RequestView::Delete { key: b"k" };
        assert_eq!(s.execute(del, 3).status, Status::Ok);
        assert_eq!(s.execute(get, 4).status, Status::KeyNotFound);
    }

    #[test]
    fn peak_rate_is_about_1mpps() {
        let cfg = MemcachedConfig::i7_with_mellanox();
        let peak = cfg.cpu.cores as f64 / cfg.service_time.as_secs_f64();
        assert!((0.9e6..1.1e6).contains(&peak), "{peak}");
    }
}
