//! DNS load generation with answer verification.

use std::ops::{Deref, DerefMut};

use inc_net::{build_udp_with, Endpoint, Packet, UdpFrame};
use inc_sim::{impl_node_any, Ctx, FixedHashMap, LatencyWindow, Nanos, Node, Pacer, PortId, Timer};

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
    /// NXDOMAIN responses.
    pub nxdomain: u64,
}

/// An open-loop DNS query generator over the synthetic zone names. Its
/// latency record (`latency`, `take_window`) is the [`LatencyWindow`] it
/// derefs to.
pub struct DnsClient {
    src: Endpoint,
    dst: Endpoint,
    pacer: Pacer,
    /// Number of names to draw from (`host-{0..names}.example.com`).
    names: u64,
    verify: bool,
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
            verify: true,
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

    /// Stops offering load.
    pub fn stop(&mut self) {
        self.pacer.stop();
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
        let mut pkt = build_udp_with(self.src, self.dst, 0, q.encoded_len(), |buf| {
            q.encode_into(buf)
        });
        pkt.sent_at = now;
        pkt.id = id as u64;
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

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, timer: Timer) {
        if timer.tag != TAG_SEND || self.pacer.stopped() {
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
        match response.rcode {
            Rcode::NoError => {
                if self.verify {
                    let ok = response
                        .answers()
                        .next()
                        .is_some_and(|(a, _)| a == Zone::synthetic_addr(idx));
                    if !ok {
                        self.stats.wrong += 1;
                    }
                }
            }
            Rcode::NxDomain => {
                self.stats.nxdomain += 1;
                if self.verify {
                    self.stats.wrong += 1;
                }
            }
            _ => {
                if self.verify {
                    self.stats.wrong += 1;
                }
            }
        }
    }

    fn label(&self) -> String {
        "dns-client".to_string()
    }

    impl_node_any!();
}
