//! The software authoritative server (NSD in the paper's testbed, §4.4).

use inc_net::{build_reply_with, Packet, UdpFrame};
use inc_power::CpuModel;
use inc_sim::{
    impl_node_any, Admission, Ctx, FixedHashMap, Histogram, Nanos, Node, PortId, ServiceStation,
    Timer,
};

use crate::engine::{answer, Resolution};
use crate::zone::Zone;

const TAG_POWER_TICK: u64 = 1;
const TAG_REPLY_BASE: u64 = 1 << 32;
const POWER_TICK: Nanos = Nanos::from_millis(20);

/// Cost model of the software DNS server.
#[derive(Clone, Copy, Debug)]
pub struct DnsServerConfig {
    /// CPU power model.
    pub cpu: CpuModel,
    /// Per-query CPU time (peak = cores / service_time).
    pub service_time: Nanos,
    /// Fixed kernel + daemon latency per query.
    pub fixed_latency: Nanos,
    /// NIC power (0 when behind the NetFPGA).
    pub nic_w: f64,
}

impl DnsServerConfig {
    /// The paper's NSD host: i7 with an Intel X520, peaking at 956 Krps
    /// (§4.4) with the ~×70 latency gap to Emu (§3.3).
    pub fn nsd_i7() -> Self {
        DnsServerConfig {
            cpu: CpuModel::i7_6700k_nsd(),
            service_time: Nanos::from_nanos(4_184), // 4 cores / 956 Krps
            fixed_latency: Nanos::from_micros(90),
            nic_w: inc_power::calib::INTEL_X520_NIC_W,
        }
    }

    /// The same host behind the NetFPGA card (NIC removed).
    pub fn nsd_behind_emu() -> Self {
        DnsServerConfig {
            nic_w: 0.0,
            ..Self::nsd_i7()
        }
    }
}

/// The software DNS server node.
pub struct DnsServer {
    config: DnsServerConfig,
    zone: Zone,
    cpu: ServiceStation,
    pending: FixedHashMap<u64, (Packet, PortId)>,
    next_tag: u64,
    current_util: f64,
    last_busy_ns: u128,
    background_util: f64,
    served: u64,
    /// Server-side service latency distribution.
    pub service_latency: Histogram,
}

impl DnsServer {
    /// Creates a server answering from `zone`.
    pub fn new(config: DnsServerConfig, zone: Zone) -> Self {
        let cores = config.cpu.cores as usize;
        DnsServer {
            config,
            zone,
            cpu: ServiceStation::new(cores, Some(Nanos::from_micros(500))),
            pending: FixedHashMap::default(),
            next_tag: 0,
            current_util: 0.0,
            last_busy_ns: 0,
            background_util: 0.0,
            served: 0,
            service_latency: Histogram::new(),
        }
    }

    /// Imposes co-tenant CPU load in cores.
    pub fn set_background_util(&mut self, cores: f64) {
        self.background_util = cores.max(0.0);
    }

    /// Queries served since creation.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Queries dropped from overload.
    pub fn dropped(&self) -> u64 {
        self.cpu.dropped()
    }

    /// Current core utilisation including background load.
    pub fn utilization(&self) -> f64 {
        self.current_util + self.background_util
    }
}

impl Node<Packet> for DnsServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, msg: Packet) {
        let now = ctx.now();
        let Ok(frame) = UdpFrame::parse(&msg) else {
            return;
        };
        let Ok(Resolution::Answered(response)) = answer(&self.zone, frame.payload, None) else {
            return; // Malformed queries are dropped, as NSD logs-and-drops.
        };
        let finish = match self.cpu.submit(now, self.config.service_time) {
            Admission::Served { finish, .. } => finish,
            Admission::Dropped => return,
        };
        let mut reply = build_reply_with(&frame, response.encoded_len(), |buf| {
            response.encode_into(buf)
        });
        reply.id = msg.id;
        reply.sent_at = msg.sent_at;
        self.next_tag += 1;
        let tag = TAG_REPLY_BASE + self.next_tag;
        self.pending.insert(tag, (reply, port));
        let done = finish + self.config.fixed_latency;
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
        "nsd".to_string()
    }

    impl_node_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_power_under_40w() {
        // §4.4: "The idle server takes less than 40W."
        let s = DnsServer::new(DnsServerConfig::nsd_i7(), Zone::new());
        let p = s.power_w(Nanos::ZERO);
        assert!(p < 40.0, "{p}");
        assert!(p > 30.0, "{p}");
    }

    #[test]
    fn peak_rate_is_956k() {
        let cfg = DnsServerConfig::nsd_i7();
        let peak = cfg.cpu.cores as f64 / cfg.service_time.as_secs_f64();
        assert!((940_000.0..975_000.0).contains(&peak), "{peak}");
    }
}
