//! The Emu DNS hardware device (§3.3).
//!
//! Emu DNS runs as the main logical core on the NetFPGA shell (Figure 2),
//! using only on-chip memory. The paper amended the original design with a
//! LaKe-style packet classifier so the card also serves as a NIC for
//! non-DNS traffic and can shift DNS serving on demand (§3.3, §9.2) — the
//! card shell ([`CardShell`]) LaKe embeds too. The design is *not*
//! pipelined, which caps it at roughly 1 M requests/second (§4.4) —
//! modelled as a single-server station with a 1 µs occupancy.

use std::ops::{Deref, DerefMut};

use inc_hw::{CardApp, CardShell, Placement, SumeCard, Verdict};
use inc_net::{build_reply_with, Packet, UdpFrame};
use inc_power::calib;
use inc_sim::{impl_node_any, Ctx, Nanos, Node, PortId, ServiceStation};

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

/// What Emu adds to the card shell: the on-chip resolution table. It is
/// static configuration, so unlike LaKe there is nothing to warm after a
/// shift (§9.2: "much the same as shifting KVS" but simpler).
struct Emu {
    zone: Zone,
}

impl CardApp for Emu {
    type Msg = Packet;
    type Frame<'a> = UdpFrame<'a>;

    fn classify<'a>(&self, pkt: &'a Packet) -> Option<UdpFrame<'a>> {
        UdpFrame::parse(pkt)
            .ok()
            .filter(|f| f.udp.dst_port == DNS_PORT || f.udp.src_port == DNS_PORT)
    }

    fn serve(
        &mut self,
        shell: &mut CardShell,
        now: Nanos,
        frame: &UdpFrame<'_>,
    ) -> Verdict<Packet> {
        match answer(&self.zone, frame.payload, Some(EMU_MAX_NAME_LEN)) {
            Ok(Resolution::Answered(response)) => {
                let Some(queue_and_service) = shell.admit(now, EMU_SERVICE) else {
                    return Verdict::Drop;
                };
                let reply = build_reply_with(frame, response.encoded_len(), |buf| {
                    response.encode_into(buf)
                });
                Verdict::Reply {
                    work: queue_and_service,
                    reply,
                }
            }
            // Names beyond the parser budget go to the host resolver;
            // so does anything unparseable, like any unknown packet.
            Ok(Resolution::TooDeep) | Err(_) => Verdict::ToHost(Nanos::ZERO),
        }
    }
}

/// The Emu DNS card as a simulation node: the card shell (placement,
/// stats, shift log, rate meter — reached through `Deref`) around the
/// zone.
pub struct EmuDevice {
    shell: CardShell,
    emu: Emu,
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
        let card = SumeCard::reference_nic().with_logic(
            calib::EMU_DNS_STANDALONE_IDLE_W - calib::NETFPGA_REFERENCE_NIC_W,
            calib::EMU_DNS_DYNAMIC_MAX_W,
        );
        EmuDevice {
            shell: CardShell::new(
                card,
                ServiceStation::new(1, Nanos::from_micros(50)),
                calib::EMU_DNS_PEAK_RPS,
            ),
            emu: Emu { zone },
        }
    }

    /// Starts serving in hardware (the always-on §4.4 configuration).
    pub fn started_in_hardware(mut self) -> Self {
        self.shell.start_in_hardware(&mut self.emu);
        self
    }

    /// Applies a placement change; serving starts at once.
    pub fn apply_placement(&mut self, now: Nanos, placement: Placement) {
        self.shell.place(&mut self.emu, now, placement);
    }
}

impl Deref for EmuDevice {
    type Target = CardShell;

    fn deref(&self) -> &CardShell {
        &self.shell
    }
}

impl DerefMut for EmuDevice {
    fn deref_mut(&mut self) -> &mut CardShell {
        &mut self.shell
    }
}

impl Node<Packet> for EmuDevice {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.shell.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, msg: Packet) {
        self.shell.on_message(&mut self.emu, ctx, port, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, tag: u64) {
        self.shell.on_timer(&mut self.emu, ctx, tag);
    }

    fn power_w(&self, _now: Nanos) -> f64 {
        self.shell.power_w()
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
        assert!((dev.card().power_w(0.0) - 18.0).abs() < 1e-9);
        assert!(dev.card().power_w(1.0) < 18.6);
    }

    #[test]
    fn parked_emu_saves_logic_power() {
        let dev = EmuDevice::new(Zone::synthetic(16));
        assert_eq!(dev.placement(), Placement::Software);
        assert!(dev.card().power_w(0.0) < 18.0);
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
