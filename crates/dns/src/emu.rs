//! The Emu DNS hardware device (§3.3).
//!
//! Emu DNS runs as the main logical core on the NetFPGA shell (Figure 2),
//! using only on-chip memory. The paper amended the original design with a
//! LaKe-style packet classifier so the card also serves as a NIC for
//! non-DNS traffic and can shift DNS serving on demand (§3.3, §9.2). The
//! design is *not* pipelined, which caps it at roughly 1 M requests/second
//! (§4.4) — modelled as a single-server station with a 1 µs occupancy.

use inc_hw::{
    NetRateController, Placement, SumeCard, HOST_DMA_PORT, PCIE_DMA_ONE_WAY, SHELL_PIPELINE_LATENCY,
};
use inc_net::{build_reply_with, Packet, UdpFrame};
use inc_power::calib;
use inc_sim::{
    impl_node_any, Admission, Ctx, Histogram, Nanos, Node, PortId, ServiceStation, Timer,
    WindowRate,
};

use crate::engine::{answer, Resolution};
use crate::wire::DNS_PORT;
use crate::zone::Zone;

/// Emu's non-pipelined core holds each query for 1 µs → ~1 Mrps (§4.4).
const EMU_SERVICE: Nanos = Nanos::from_micros(1);

/// The hardware parser's name-depth budget in bytes. Deeper names are
/// punted to the host (§9.2 discusses the same limit on ASICs).
const EMU_MAX_NAME_LEN: usize = 128;

/// Bound on the on-chip resolution table (on-chip memory only, §3.4).
pub const EMU_MAX_RECORDS: usize = 65_536;

const TAG_POWER_TICK: u64 = 1;
const POWER_TICK: Nanos = Nanos::from_millis(20);

/// Cumulative device counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EmuDeviceStats {
    /// Queries answered in hardware.
    pub served_hw: u64,
    /// DNS packets forwarded to the host (mode, depth, or capacity).
    pub to_host: u64,
    /// Non-DNS packets forwarded.
    pub passthrough: u64,
    /// Queries dropped by the (saturated) logic core.
    pub dropped: u64,
    /// Placement shifts.
    pub shifts: u64,
}

/// What the card does with a packet from the network.
enum Verdict {
    /// Answer the query from the on-chip table.
    Reply {
        /// Device-internal latency before the reply leaves.
        after: Nanos,
        /// The reply frame.
        reply: Packet,
    },
    /// DNS the card does not serve itself (placement, depth, garbage):
    /// across PCIe to the host resolver.
    ToHost,
    /// Not DNS: forwarded like a plain NIC would.
    Passthrough,
    /// The logic core is saturated: the query is lost.
    Drop,
}

fn is_dns(frame: &UdpFrame<'_>) -> bool {
    frame.udp.dst_port == DNS_PORT || frame.udp.src_port == DNS_PORT
}

/// The Emu DNS card as a simulation node.
pub struct EmuDevice {
    card: SumeCard,
    zone: Zone,
    core: ServiceStation,
    placement: Placement,
    controller: Option<NetRateController>,
    stats: EmuDeviceStats,
    rate_window: WindowRate,
    current_load: f64,
    /// Latency of hardware-answered queries.
    pub hw_latency: Histogram,
    /// Shift log: (time, new placement).
    pub shift_log: Vec<(Nanos, Placement)>,
}

impl EmuDevice {
    /// Creates an Emu device serving `zone`, starting parked in software
    /// placement.
    ///
    /// # Panics
    ///
    /// Panics if the zone exceeds the on-chip record budget
    /// ([`EMU_MAX_RECORDS`]).
    pub fn new(zone: Zone) -> Self {
        assert!(
            zone.len() <= EMU_MAX_RECORDS,
            "zone of {} records exceeds on-chip capacity {}",
            zone.len(),
            EMU_MAX_RECORDS
        );
        let mut card = SumeCard::reference_nic().with_logic(
            calib::EMU_DNS_STANDALONE_IDLE_W - calib::NETFPGA_REFERENCE_NIC_W,
            calib::EMU_DNS_DYNAMIC_MAX_W,
        );
        card.park();
        EmuDevice {
            card,
            zone,
            core: ServiceStation::new(1, Some(Nanos::from_micros(50))),
            placement: Placement::Software,
            controller: None,
            stats: EmuDeviceStats::default(),
            rate_window: WindowRate::new(Nanos::from_millis(100), 10),
            current_load: 0.0,
            hw_latency: Histogram::new(),
            shift_log: Vec::new(),
        }
    }

    /// Installs the network-controlled on-demand controller.
    pub fn with_controller(mut self, controller: NetRateController) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Starts serving in hardware (the always-on §4.4 configuration).
    pub fn started_in_hardware(mut self) -> Self {
        self.apply_placement(Nanos::ZERO, Placement::HARDWARE);
        self.shift_log.clear();
        self.stats.shifts = 0;
        self
    }

    /// Current placement.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Cumulative counters.
    pub fn stats(&self) -> EmuDeviceStats {
        self.stats
    }

    /// Hardware-measured DNS packet rate (network feedback for host
    /// controllers).
    pub fn measured_rate(&mut self, now: Nanos) -> f64 {
        self.rate_window.rate(now)
    }

    /// Applies a placement change. Unlike LaKe there is no cache to warm:
    /// the resolution table is static configuration, so serving can start
    /// immediately (§9.2: "much the same as shifting KVS" but simpler).
    pub fn apply_placement(&mut self, now: Nanos, placement: Placement) {
        if placement == self.placement {
            return;
        }
        self.placement = placement;
        self.stats.shifts += 1;
        self.shift_log.push((now, placement));
        match placement {
            Placement::Device(_) => self.card.unpark(),
            Placement::Software => {
                self.card.park();
                self.core.quiesce(now);
            }
        }
    }

    /// Answers a DNS query in hardware, or says why it goes to the host.
    fn serve_hw(&mut self, now: Nanos, frame: &UdpFrame<'_>, pkt: &Packet) -> Verdict {
        match answer(&self.zone, frame.payload, Some(EMU_MAX_NAME_LEN)) {
            Ok(Resolution::Answered(response)) => {
                let finish = match self.core.submit(now, EMU_SERVICE) {
                    Admission::Served { finish, .. } => finish,
                    Admission::Dropped => {
                        self.stats.dropped += 1;
                        return Verdict::Drop;
                    }
                };
                let total = SHELL_PIPELINE_LATENCY + (finish - now);
                let mut reply = build_reply_with(frame, response.encoded_len(), |buf| {
                    response.encode_into(buf)
                });
                reply.id = pkt.id;
                reply.sent_at = pkt.sent_at;
                self.stats.served_hw += 1;
                self.hw_latency.record_nanos(total);
                Verdict::Reply {
                    after: total,
                    reply,
                }
            }
            // Names beyond the parser budget go to the host resolver;
            // so does anything unparseable, like any unknown packet.
            Ok(Resolution::TooDeep) | Err(_) => {
                self.stats.to_host += 1;
                Verdict::ToHost
            }
        }
    }
}

impl Node<Packet> for EmuDevice {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, msg: Packet) {
        let now = ctx.now();
        match port {
            PortId::P0 => {
                // One parse per packet: the verdict is reached while the
                // parsed view borrows `msg`, and carried out after.
                let verdict = match UdpFrame::parse(&msg) {
                    Ok(frame) if is_dns(&frame) => {
                        self.rate_window.record(now, 1);
                        if let Some(ctl) = &mut self.controller {
                            if let Some(p) = ctl.on_app_packet(now) {
                                self.apply_placement(now, p);
                            }
                        }
                        match self.placement {
                            Placement::Device(_) => self.serve_hw(now, &frame, &msg),
                            Placement::Software => {
                                self.stats.to_host += 1;
                                Verdict::ToHost
                            }
                        }
                    }
                    _ => Verdict::Passthrough,
                };
                match verdict {
                    Verdict::Reply { after, reply } => ctx.send_after(after, PortId::P0, reply),
                    Verdict::ToHost => ctx.send_after(
                        SHELL_PIPELINE_LATENCY + PCIE_DMA_ONE_WAY,
                        HOST_DMA_PORT,
                        msg,
                    ),
                    Verdict::Passthrough => {
                        self.stats.passthrough += 1;
                        ctx.send_after(SHELL_PIPELINE_LATENCY, HOST_DMA_PORT, msg);
                    }
                    Verdict::Drop => {}
                }
            }
            HOST_DMA_PORT => {
                self.stats.passthrough += 1;
                ctx.send_after(SHELL_PIPELINE_LATENCY, PortId::P0, msg);
            }
            _ => {
                self.stats.passthrough += 1;
                ctx.send_after(SHELL_PIPELINE_LATENCY, HOST_DMA_PORT, msg);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, timer: Timer) {
        if timer.tag == TAG_POWER_TICK {
            let now = ctx.now();
            let rate = self.rate_window.rate(now);
            self.current_load = (rate / calib::EMU_DNS_PEAK_RPS).clamp(0.0, 1.0);
            if let Some(ctl) = &mut self.controller {
                if let Some(p) = ctl.on_tick(now) {
                    self.apply_placement(now, p);
                }
            }
            ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
        }
    }

    fn power_w(&self, _now: Nanos) -> f64 {
        self.card.power_w(self.current_load)
    }

    fn label(&self) -> String {
        "emu-dns".to_string()
    }

    impl_node_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_power_matches_calibration() {
        let dev = EmuDevice::new(Zone::synthetic(16)).started_in_hardware();
        // §4.4 via calibration: 18.0 W standalone idle, <0.5 W dynamic.
        assert!((dev.card.power_w(0.0) - 18.0).abs() < 1e-9);
        assert!(dev.card.power_w(1.0) < 18.6);
    }

    #[test]
    fn parked_emu_saves_logic_power() {
        let dev = EmuDevice::new(Zone::synthetic(16));
        assert_eq!(dev.placement(), Placement::Software);
        assert!(dev.card.power_w(0.0) < 18.0);
    }

    #[test]
    #[should_panic(expected = "on-chip capacity")]
    fn oversized_zone_rejected() {
        let _ = EmuDevice::new(Zone::synthetic(EMU_MAX_RECORDS as u64 + 1));
    }

    #[test]
    fn placement_shift_logs() {
        let mut dev = EmuDevice::new(Zone::synthetic(4));
        dev.apply_placement(Nanos::from_secs(1), Placement::HARDWARE);
        dev.apply_placement(Nanos::from_secs(2), Placement::Software);
        assert_eq!(dev.stats().shifts, 2);
        assert_eq!(dev.shift_log.len(), 2);
    }
}
