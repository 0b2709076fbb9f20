//! DNS load generation with answer verification.

use std::ops::{Deref, DerefMut};

use inc_net::{build_udp_with, Endpoint, Packet, UdpFrame};
use inc_sim::{impl_node_any, Ctx, FixedHashMap, LatencyWindow, Nanos, Node, Pacer, PortId};

use crate::wire::{DnsResponseView, Name, Query, Rcode, TYPE_A};
use crate::zone::Zone;

const TAG_SEND: u64 = 1;

/// Cumulative client statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DnsClientStats {
    /// Queries sent.
    pub sent: u64,
    /// Responses received.
    pub received: u64,
    /// Responses whose answer did not match the zone.
    pub wrong: u64,
}

/// An open-loop DNS query generator over the synthetic zone names. Its
/// latency record (`take_window`) is the [`LatencyWindow`] it derefs to.
pub struct DnsClient {
    src: Endpoint,
    dst: Endpoint,
    pacer: Pacer,
    /// Number of names to draw from (`host-{0..names}.example.com`).
    names: u64,
    stats: DnsClientStats,
    window: LatencyWindow,
    next_id: u16,
    outstanding: FixedHashMap<u16, (Nanos, u64)>,
}

impl DnsClient {
    /// Creates a client issuing `rate_pps` A queries/second for a zone of
    /// `names` synthetic records.
    pub fn new(src: Endpoint, dst: Endpoint, rate_pps: f64, names: u64) -> Self {
        DnsClient {
            src,
            dst,
            pacer: Pacer::new(rate_pps),
            names,
            stats: DnsClientStats::default(),
            window: LatencyWindow::default(),
            next_id: 0,
            outstanding: FixedHashMap::default(),
        }
    }

    /// Changes the offered rate.
    pub fn set_rate(&mut self, rate_pps: f64) {
        self.pacer.set_rate(rate_pps);
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> DnsClientStats {
        self.stats
    }

    fn send_one(&mut self, ctx: &mut Ctx<'_, Packet>) {
        // Each query spends one draw before picking its name; the seeded
        // schedules the golden digests pin depend on that count.
        ctx.rng().next_u64();
        let idx = ctx.rng().range_u64(0, self.names);
        let name = Name::from_fmt(format_args!("host-{idx}.example.com"));
        self.next_id = self.next_id.wrapping_add(1);
        let id = self.next_id;
        let q = Query {
            id,
            name: name.expect("generated names are valid"),
            qtype: TYPE_A,
            recursion_desired: false,
        };
        let now = ctx.now();
        let pkt = build_udp_with(self.src, self.dst, q.encoded_len(), |buf| {
            q.encode_into(buf)
        });
        self.outstanding.insert(id, (now, idx));
        self.stats.sent += 1;
        ctx.send(PortId::P0, pkt);
    }
}

impl Deref for DnsClient {
    type Target = LatencyWindow;

    fn deref(&self) -> &LatencyWindow {
        &self.window
    }
}

impl DerefMut for DnsClient {
    fn deref_mut(&mut self) -> &mut LatencyWindow {
        &mut self.window
    }
}

impl Node<Packet> for DnsClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.pacer.schedule(ctx, TAG_SEND);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, tag: u64) {
        if tag != TAG_SEND {
            return;
        }
        if self.pacer.sends() {
            self.send_one(ctx);
        }
        self.pacer.schedule(ctx, TAG_SEND);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, msg: Packet) {
        let Ok(frame) = UdpFrame::parse(&msg) else {
            return;
        };
        let Ok(response) = DnsResponseView::decode(frame.payload) else {
            return;
        };
        let Some((sent_at, idx)) = self.outstanding.remove(&response.id) else {
            return;
        };
        let now = ctx.now();
        self.stats.received += 1;
        self.window.record((now - sent_at).as_nanos());
        // Every name the client asks for is in the zone: anything but
        // its address (NXDOMAIN included) is a wrong answer.
        let ok = response.rcode == Rcode::NoError
            && response
                .answers()
                .next()
                .is_some_and(|(a, _)| a == Zone::synthetic_addr(idx));
        if !ok {
            self.stats.wrong += 1;
        }
    }

    fn label(&self) -> String {
        "dns-client".to_string()
    }

    impl_node_any!();
}
