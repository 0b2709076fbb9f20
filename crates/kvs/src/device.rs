//! The LaKe hardware device node (Figure 1).
//!
//! Sits as a bump-in-the-wire between the network (port 0) and the host
//! (the PCIe/DMA port). The embedded packet classifier splits memcached
//! traffic from normal traffic; in [`Placement::HARDWARE`] mode memcached
//! GETs are served from the two-level cache by an array of processing
//! elements, with misses forwarded to the host; in [`Placement::Software`]
//! mode the card is parked (memories in reset, logic clock-gated) and all
//! traffic passes through like a plain NIC. An optional embedded
//! [`NetRateController`] implements the paper's network-controlled
//! on-demand shifting inside the classifier (§9.1).

use inc_hw::{
    NetRateController, Placement, SumeCard, HOST_DMA_PORT, PCIE_DMA_ONE_WAY, SHELL_PIPELINE_LATENCY,
};
use inc_net::{build_reply_with, Packet, UdpFrame};
use inc_power::calib;
use inc_sim::{
    impl_node_any, Admission, Ctx, FixedHashMap, Histogram, Nanos, Node, PortId, ServiceStation,
    Timer, WindowRate,
};

use crate::lake::{LakeCache, LakeCacheConfig, Lookup};
use crate::protocol::{
    decode_view, MessageView, Opcode, RequestView, ResponseView, Status, MEMCACHED_PORT,
};

/// Extra latency of an L1 (on-chip) hit beyond the shell pipeline:
/// BRAM access plus hash computation. Total ≈ 1.36 µs ≤ the paper's 1.4 µs.
const L1_EXTRA: Nanos = Nanos::from_nanos(110);

/// Extra latency of an L2 (DRAM) hit: hash-entry and value-chunk reads.
/// Total ≈ 1.67 µs, the paper's median (§5.3).
const L2_EXTRA: Nanos = Nanos::from_nanos(420);

/// Per-query PE occupancy: 1 / 3.3 Mqps (§5.2).
const PE_SERVICE: Nanos = Nanos::from_nanos(303);

/// Power/rate bookkeeping tick.
const POWER_TICK: Nanos = Nanos::from_millis(20);
const TAG_POWER_TICK: u64 = 1;

/// How the card idles while the workload lives in software (§9.2).
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
    /// The LaKe region is reconfigured out: maximum saving (reference-NIC
    /// level), but resuming reprograms the fabric and halts traffic for
    /// [`RECONFIG_HALT`].
    Reconfigure,
}

/// Traffic halt while partial reconfiguration loads the LaKe region back.
pub const RECONFIG_HALT: Nanos = Nanos::from_millis(50);

/// Cumulative device counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct LakeDeviceStats {
    /// Requests answered by the hardware.
    pub served_hw: u64,
    /// Application packets forwarded to the host (mode or miss).
    pub to_host: u64,
    /// Non-application packets forwarded either way.
    pub passthrough: u64,
    /// Requests dropped at the PE array (overload).
    pub dropped: u64,
    /// Placement shifts executed by the embedded controller.
    pub shifts: u64,
}

/// What the card does with a packet it has parsed — decided while the
/// parsed view still borrows the packet, carried out once it no longer
/// does, so a frame is parsed (and checksum-verified) once per card.
enum Verdict {
    /// Send the packet on unchanged.
    Forward {
        /// Device-internal latency before it leaves.
        after: Nanos,
        /// Egress port.
        to: PortId,
    },
    /// Answer from the cache; the request is consumed.
    Reply {
        /// Device-internal latency before the reply leaves.
        after: Nanos,
        /// The reply frame.
        reply: Packet,
    },
    /// The PE array is saturated: the request is lost.
    Drop,
}

/// The LaKe card as a simulation node.
pub struct LakeDevice {
    card: SumeCard,
    cache: LakeCache,
    pes: ServiceStation,
    placement: Placement,
    controller: Option<NetRateController>,
    stats: LakeDeviceStats,
    /// Outstanding misses: (frame request id, opaque) → key, so the reply
    /// from the host can warm the cache.
    pending_miss: FixedHashMap<(u16, u32), Vec<u8>>,
    /// Hardware-measured request rate (exported to host controllers).
    rate_window: WindowRate,
    current_load: f64,
    /// Latency of hardware-served requests (device-internal component).
    pub hw_latency: Histogram,
    /// Shift log: (time, new placement).
    pub shift_log: Vec<(Nanos, Placement)>,
    /// The UDP port identifying application traffic.
    app_port: u16,
    pe_count: u32,
    park_policy: ParkPolicy,
    /// While reprogramming (reconfigure policy), all traffic is dropped
    /// until this instant.
    blackout_until: Nanos,
    /// Packets dropped during reconfiguration blackouts.
    pub blackout_drops: u64,
}

impl LakeDevice {
    /// Creates a LaKe device with `pes` processing elements, starting in
    /// [`Placement::Software`] with the card parked.
    pub fn new(cache_config: LakeCacheConfig, pes: u32) -> Self {
        let mut card = SumeCard::reference_nic()
            .with_logic(
                calib::LAKE_LOGIC_W - calib::LAKE_PE_W * pes as f64,
                calib::LAKE_DYNAMIC_MAX_W,
            )
            .with_pes(pes)
            .with_external_memories();
        card.park();
        LakeDevice {
            card,
            cache: LakeCache::new(cache_config),
            pes: ServiceStation::new(pes as usize, Some(Nanos::from_micros(100))),
            placement: Placement::Software,
            controller: None,
            stats: LakeDeviceStats::default(),
            pending_miss: FixedHashMap::default(),
            rate_window: WindowRate::new(Nanos::from_millis(100), 10),
            current_load: 0.0,
            hw_latency: Histogram::new(),
            shift_log: Vec::new(),
            app_port: MEMCACHED_PORT,
            pe_count: pes,
            park_policy: ParkPolicy::Cold,
            blackout_until: Nanos::ZERO,
            blackout_drops: 0,
        }
    }

    /// Selects the idle-time policy (§9.2 ablation).
    pub fn with_park_policy(mut self, policy: ParkPolicy) -> Self {
        self.park_policy = policy;
        // Re-park under the new policy if currently software-resident.
        if self.placement == Placement::Software {
            self.park_card();
        }
        self
    }

    fn park_card(&mut self) {
        match self.park_policy {
            ParkPolicy::Cold => self.card.park(),
            ParkPolicy::Warm => self.card.park_warm(),
            ParkPolicy::Reconfigure => self.card.park_reconfigured(),
        }
    }

    /// Creates the paper's standard configuration: 5 PEs, SUME memories.
    pub fn sume_default() -> Self {
        LakeDevice::new(LakeCacheConfig::sume(), calib::LAKE_DEFAULT_PES)
    }

    /// Installs the network-controlled on-demand controller (§9.1).
    pub fn with_controller(mut self, controller: NetRateController) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Starts in hardware mode (used by the always-on experiments of §4).
    pub fn started_in_hardware(mut self) -> Self {
        self.apply_placement(Nanos::ZERO, Placement::HARDWARE);
        self.shift_log.clear();
        self.stats.shifts = 0;
        self
    }

    /// Returns the current placement.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Returns cumulative counters.
    pub fn stats(&self) -> LakeDeviceStats {
        self.stats
    }

    /// Returns the cache statistics.
    pub fn cache_stats(&self) -> crate::lake::LakeStats {
        self.cache.stats()
    }

    /// Returns the hardware-measured application packet rate (what the
    /// host-controlled design reads back from the network, §9.1).
    pub fn measured_rate(&mut self, now: Nanos) -> f64 {
        self.rate_window.rate(now)
    }

    /// Applies a placement change (also used by external controllers).
    pub fn apply_placement(&mut self, now: Nanos, placement: Placement) {
        if placement == self.placement {
            return;
        }
        self.placement = placement;
        self.stats.shifts += 1;
        self.shift_log.push((now, placement));
        match placement {
            Placement::Device(_) => {
                self.card.unpark();
                match self.park_policy {
                    // Memories come out of reset cold (§9.2).
                    ParkPolicy::Cold => self.cache.clear(),
                    // The warm cache survived parking.
                    ParkPolicy::Warm => {}
                    // Reprogramming the region: cold cache AND a
                    // momentary traffic halt (§9.2).
                    ParkPolicy::Reconfigure => {
                        self.cache.clear();
                        self.blackout_until = now + RECONFIG_HALT;
                    }
                }
            }
            Placement::Software => {
                self.park_card();
                self.pes.quiesce(now);
                self.pending_miss.clear();
            }
        }
    }

    fn is_app(&self, frame: &UdpFrame<'_>) -> bool {
        frame.udp.dst_port == self.app_port || frame.udp.src_port == self.app_port
    }

    /// Handles an application packet arriving from the network: meters
    /// it, lets the embedded controller react, then serves or forwards
    /// it according to the placement.
    fn on_app_packet(&mut self, now: Nanos, frame: &UdpFrame<'_>, pkt: &Packet) -> Verdict {
        self.rate_window.record(now, 1);
        // The embedded network controller sees every app packet.
        if let Some(ctl) = &mut self.controller {
            if let Some(p) = ctl.on_app_packet(now) {
                self.apply_placement(now, p);
            }
        }
        match self.placement {
            Placement::Device(_) => self.serve_hw(now, frame, pkt),
            Placement::Software => {
                self.stats.to_host += 1;
                Verdict::Forward {
                    after: SHELL_PIPELINE_LATENCY + PCIE_DMA_ONE_WAY,
                    to: HOST_DMA_PORT,
                }
            }
        }
    }

    /// Handles an application request in hardware mode.
    fn serve_hw(&mut self, now: Nanos, frame: &UdpFrame<'_>, pkt: &Packet) -> Verdict {
        let to_host = |after| Verdict::Forward {
            after,
            to: HOST_DMA_PORT,
        };
        let msg = match decode_view(frame.payload) {
            Ok(m) => m,
            Err(_) => {
                // Not valid memcached: treat as normal traffic.
                self.stats.passthrough += 1;
                return to_host(SHELL_PIPELINE_LATENCY);
            }
        };
        let MessageView::Request {
            frame: mc_frame,
            request,
            opaque,
        } = msg
        else {
            // A response from outside: pass through.
            return to_host(SHELL_PIPELINE_LATENCY);
        };
        // Occupy a PE.
        let finish = match self.pes.submit(now, PE_SERVICE) {
            Admission::Served { finish, .. } => finish,
            Admission::Dropped => {
                self.stats.dropped += 1;
                return Verdict::Drop;
            }
        };
        let queue_and_service = finish - now;
        match request {
            RequestView::Get { key } => {
                let (value, flags, extra) = match self.cache.get(key) {
                    Lookup::L1Hit { value, flags } => (value, flags, L1_EXTRA),
                    Lookup::L2Hit { value, flags } => (value, flags, L2_EXTRA),
                    Lookup::Miss => {
                        // Remember the key and forward to the host.
                        self.pending_miss
                            .insert((mc_frame.request_id, opaque), key.to_vec());
                        self.cap_pending();
                        self.stats.to_host += 1;
                        return to_host(
                            SHELL_PIPELINE_LATENCY + queue_and_service + PCIE_DMA_ONE_WAY,
                        );
                    }
                };
                // Reply directly from hardware, encoded out of the cache.
                let total = SHELL_PIPELINE_LATENCY + queue_and_service + extra;
                let resp = ResponseView {
                    opcode: Opcode::Get,
                    status: Status::Ok,
                    value,
                    flags,
                    opaque,
                };
                let mut reply = build_reply_with(frame, resp.encoded_len(), |buf| {
                    resp.encode_into(mc_frame, buf)
                });
                reply.id = pkt.id;
                reply.sent_at = pkt.sent_at;
                self.stats.served_hw += 1;
                self.hw_latency.record_nanos(total);
                return Verdict::Reply {
                    after: total,
                    reply,
                };
            }
            // Write-through: update the cache and forward to the host
            // (the software store stays authoritative).
            RequestView::Set {
                key, value, flags, ..
            } => self.cache.warm(key.to_vec(), value.to_vec(), flags),
            RequestView::Delete { key } => self.cache.invalidate(key),
        }
        self.stats.to_host += 1;
        to_host(SHELL_PIPELINE_LATENCY + queue_and_service + PCIE_DMA_ONE_WAY)
    }

    fn cap_pending(&mut self) {
        // Bound the in-flight miss table like real hardware would.
        if self.pending_miss.len() > 65_536 {
            self.pending_miss.clear();
        }
    }

    /// Inspects a host reply: if it answers a forwarded miss, warm the
    /// cache with the returned value.
    fn absorb_host_reply(&mut self, pkt: &Packet) {
        if !self.placement.is_offloaded() {
            return;
        }
        let Ok(frame) = UdpFrame::parse(pkt) else {
            return;
        };
        let Ok(MessageView::Response {
            frame: mc_frame,
            response,
        }) = decode_view(frame.payload)
        else {
            return;
        };
        if let Some(key) = self
            .pending_miss
            .remove(&(mc_frame.request_id, response.opaque))
        {
            if response.opcode == Opcode::Get && response.status == Status::Ok {
                self.cache
                    .warm(key, response.value.to_vec(), response.flags);
            }
        }
    }

    fn forward(&mut self, ctx: &mut Ctx<'_, Packet>, to: PortId, pkt: Packet) {
        self.stats.passthrough += 1;
        ctx.send_after(SHELL_PIPELINE_LATENCY, to, pkt);
    }
}

impl Node<Packet> for LakeDevice {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, msg: Packet) {
        let now = ctx.now();
        if now < self.blackout_until {
            // Partial reconfiguration in progress: the fabric is not
            // forwarding anything (§9.2's "momentary traffic halt").
            self.blackout_drops += 1;
            return;
        }
        match port {
            PortId::P0 => {
                let verdict = match UdpFrame::parse(&msg) {
                    Ok(frame) if self.is_app(&frame) => self.on_app_packet(now, &frame, &msg),
                    _ => {
                        self.stats.passthrough += 1;
                        Verdict::Forward {
                            after: SHELL_PIPELINE_LATENCY,
                            to: HOST_DMA_PORT,
                        }
                    }
                };
                match verdict {
                    Verdict::Forward { after, to } => ctx.send_after(after, to, msg),
                    Verdict::Reply { after, reply } => ctx.send_after(after, PortId::P0, reply),
                    Verdict::Drop => {}
                }
            }
            HOST_DMA_PORT => {
                self.absorb_host_reply(&msg);
                self.forward(ctx, PortId::P0, msg);
            }
            other => {
                // Unused front-panel port: behave like a NIC.
                let _ = other;
                self.forward(ctx, HOST_DMA_PORT, msg);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, timer: Timer) {
        if timer.tag == TAG_POWER_TICK {
            let now = ctx.now();
            let rate = self.rate_window.rate(now);
            let peak = calib::LAKE_PE_CAPACITY_QPS * self.pe_count as f64;
            self.current_load = (rate / peak).clamp(0.0, 1.0);
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
        format!("lake-device({} PEs)", self.pe_count)
    }

    impl_node_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_parked_in_software() {
        let dev = LakeDevice::sume_default();
        assert_eq!(dev.placement(), Placement::Software);
        // Parked power sits well below the full 29.2 W.
        let p = dev.card.power_w(0.0);
        assert!(p < calib::LAKE_STANDALONE_IDLE_W - 4.0, "{p}");
    }

    #[test]
    fn hardware_mode_full_power() {
        let dev = LakeDevice::sume_default().started_in_hardware();
        assert_eq!(dev.placement(), Placement::HARDWARE);
        let p = dev.card.power_w(0.0);
        assert!((p - calib::LAKE_STANDALONE_IDLE_W).abs() < 1e-9, "{p}");
    }

    #[test]
    fn placement_transitions_clear_cache() {
        let mut dev = LakeDevice::new(LakeCacheConfig::tiny(4, 16), 2).started_in_hardware();
        dev.cache.warm(b"k".to_vec(), b"v".to_vec(), 0);
        dev.apply_placement(Nanos::from_secs(1), Placement::Software);
        dev.apply_placement(Nanos::from_secs(2), Placement::HARDWARE);
        assert_eq!(dev.cache.get(b"k"), Lookup::Miss);
        assert_eq!(dev.stats().shifts, 2);
        assert_eq!(dev.shift_log.len(), 2);
    }

    #[test]
    fn redundant_placement_is_a_no_op() {
        let mut dev = LakeDevice::sume_default();
        dev.apply_placement(Nanos::ZERO, Placement::Software);
        assert_eq!(dev.stats().shifts, 0);
    }
}
