//! The LaKe hardware device node (Figure 1).
//!
//! Sits as a bump-in-the-wire between the network (port 0) and the host
//! (the PCIe/DMA port). The card shell ([`CardShell`]) splits memcached
//! traffic from normal traffic, parks the card and runs the optional
//! embedded [`NetRateController`] (§9.1); what
//! LaKe adds is the two-level cache: in [`Placement::HARDWARE`] mode
//! memcached GETs are served from it by an array of processing elements,
//! with misses forwarded to the host, whose replies warm it.

use std::ops::{Deref, DerefMut};

use inc_hw::{CardApp, CardShell, NetRateController, ParkPolicy, Placement, SumeCard, Verdict};
use inc_net::{build_reply_with, Packet, UdpFrame};
use inc_power::calib;
use inc_sim::{impl_node_any, Ctx, FixedHashMap, Nanos, Node, PortId, ServiceStation};

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

/// What LaKe adds to the card shell: the cache and the misses whose host
/// replies will warm it.
struct Lake {
    cache: LakeCache,
    /// Outstanding misses: (frame request id, opaque) → key.
    pending_miss: FixedHashMap<(u16, u32), Vec<u8>>,
    pes: u32,
}

impl Lake {
    fn cap_pending(&mut self) {
        // Bound the in-flight miss table like real hardware would.
        if self.pending_miss.len() > 65_536 {
            self.pending_miss.clear();
        }
    }
}

impl CardApp for Lake {
    type Msg = Packet;
    type Frame<'a> = UdpFrame<'a>;

    fn classify<'a>(&self, pkt: &'a Packet) -> Option<UdpFrame<'a>> {
        UdpFrame::parse(pkt)
            .ok()
            .filter(|f| f.udp.dst_port == MEMCACHED_PORT || f.udp.src_port == MEMCACHED_PORT)
    }

    fn serve(
        &mut self,
        shell: &mut CardShell,
        now: Nanos,
        frame: &UdpFrame<'_>,
    ) -> Verdict<Packet> {
        // Not a memcached request (garbage, or a response from outside):
        // normal traffic.
        let Ok(MessageView::Request {
            frame: mc_frame,
            request,
            opaque,
        }) = decode_view(frame.payload)
        else {
            return Verdict::Pass;
        };
        let Some(queue_and_service) = shell.admit(now, PE_SERVICE) else {
            return Verdict::Drop;
        };
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
                        return Verdict::ToHost(queue_and_service);
                    }
                };
                // Reply directly from hardware, encoded out of the cache.
                let resp = ResponseView {
                    opcode: Opcode::Get,
                    status: Status::Ok,
                    value,
                    flags,
                    opaque,
                };
                let reply = build_reply_with(frame, resp.encoded_len(), |buf| {
                    resp.encode_into(mc_frame, buf)
                });
                return Verdict::Reply {
                    work: queue_and_service + extra,
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
        Verdict::ToHost(queue_and_service)
    }

    fn on_shift(&mut self, placement: Placement, policy: ParkPolicy) {
        match placement {
            // Memories come out of reset (or reprogramming) cold; only a
            // warm park keeps the cache (§9.2).
            Placement::Device(_) if policy != ParkPolicy::Warm => self.cache.clear(),
            Placement::Device(_) => {}
            Placement::Software => self.pending_miss.clear(),
        }
    }

    /// A host reply answering a forwarded miss warms the cache.
    fn on_host(&mut self, placement: Placement, pkt: &Packet) {
        if !placement.is_offloaded() {
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
}

/// The LaKe card as a simulation node: the card shell (placement, stats,
/// shift log, rate meter — reached through `Deref`) around LaKe's cache.
pub struct LakeDevice {
    shell: CardShell,
    lake: Lake,
}

impl LakeDevice {
    /// Creates a LaKe device with `pes` processing elements, starting in
    /// [`Placement::Software`] with the card parked.
    pub fn new(cache_config: LakeCacheConfig, pes: u32) -> Self {
        let card = SumeCard::reference_nic()
            .with_logic(
                calib::LAKE_LOGIC_W - calib::LAKE_PE_W * pes as f64,
                calib::LAKE_DYNAMIC_MAX_W,
            )
            .with_pes(pes)
            .with_external_memories();
        LakeDevice {
            shell: CardShell::new(
                card,
                ServiceStation::new(pes as usize, Nanos::from_micros(100)),
                calib::LAKE_PE_CAPACITY_QPS * pes as f64,
            ),
            lake: Lake {
                cache: LakeCache::new(cache_config),
                pending_miss: FixedHashMap::default(),
                pes,
            },
        }
    }

    /// Creates the paper's standard configuration: 5 PEs, SUME memories.
    pub fn sume_default() -> Self {
        LakeDevice::new(LakeCacheConfig::sume(), calib::LAKE_DEFAULT_PES)
    }

    /// Selects the idle-time policy (§9.2 ablation).
    pub fn with_park_policy(mut self, policy: ParkPolicy) -> Self {
        self.shell.set_park_policy(policy);
        self
    }

    /// Installs the network-controlled on-demand controller (§9.1).
    pub fn with_controller(mut self, controller: NetRateController) -> Self {
        self.shell.set_controller(controller);
        self
    }

    /// Starts in hardware mode (used by the always-on experiments of §4).
    pub fn started_in_hardware(mut self) -> Self {
        self.shell.start_in_hardware(&mut self.lake);
        self
    }

    /// Returns the cache statistics.
    pub fn cache_stats(&self) -> crate::lake::LakeStats {
        self.lake.cache.stats()
    }

    /// Applies a placement change (also used by external controllers).
    pub fn apply_placement(&mut self, now: Nanos, placement: Placement) {
        self.shell.place(&mut self.lake, now, placement);
    }
}

impl Deref for LakeDevice {
    type Target = CardShell;

    fn deref(&self) -> &CardShell {
        &self.shell
    }
}

impl DerefMut for LakeDevice {
    fn deref_mut(&mut self) -> &mut CardShell {
        &mut self.shell
    }
}

impl Node<Packet> for LakeDevice {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.shell.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, msg: Packet) {
        self.shell.on_message(&mut self.lake, ctx, port, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, tag: u64) {
        self.shell.on_timer(&mut self.lake, ctx, tag);
    }

    fn power_w(&self, _now: Nanos) -> f64 {
        self.shell.power_w()
    }

    fn label(&self) -> String {
        format!("lake-device({} PEs)", self.lake.pes)
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
        let p = dev.card().power_w(0.0);
        assert!(p < calib::LAKE_STANDALONE_IDLE_W - 4.0, "{p}");
    }

    #[test]
    fn hardware_mode_full_power() {
        let dev = LakeDevice::sume_default().started_in_hardware();
        assert_eq!(dev.placement(), Placement::HARDWARE);
        let p = dev.card().power_w(0.0);
        assert!((p - calib::LAKE_STANDALONE_IDLE_W).abs() < 1e-9, "{p}");
    }

    #[test]
    fn placement_transitions_clear_cache() {
        let mut dev = LakeDevice::new(LakeCacheConfig::tiny(4, 16), 2).started_in_hardware();
        dev.lake.cache.warm(b"k".to_vec(), b"v".to_vec(), 0);
        dev.apply_placement(Nanos::from_secs(1), Placement::Software);
        dev.apply_placement(Nanos::from_secs(2), Placement::HARDWARE);
        assert_eq!(dev.lake.cache.get(b"k"), Lookup::Miss);
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
