//! DNS load generation with answer verification.

use inc_net::{build_udp_with, Endpoint, Packet, UdpFrame};
use inc_sim::{impl_node_any, Ctx, FixedHashMap, Histogram, Nanos, Node, PortId, Timer};

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

/// An open-loop DNS query generator over the synthetic zone names.
pub struct DnsClient {
    src: Endpoint,
    dst: Endpoint,
    rate_pps: f64,
    /// Number of names to draw from (`host-{0..names}.example.com`).
    names: u64,
    /// Fraction of queries for names *outside* the zone (miss traffic).
    miss_ratio: f64,
    verify: bool,
    stats: DnsClientStats,
    /// All-time latency histogram.
    pub latency: Histogram,
    /// Resettable window histogram.
    pub window_latency: Histogram,
    window_received_base: u64,
    next_id: u16,
    outstanding: FixedHashMap<u16, (Nanos, u64, bool)>,
    stopped: bool,
}

impl DnsClient {
    /// Creates a client issuing `rate_pps` A queries/second for a zone of
    /// `names` synthetic records.
    pub fn new(src: Endpoint, dst: Endpoint, rate_pps: f64, names: u64) -> Self {
        DnsClient {
            src,
            dst,
            rate_pps,
            names,
            miss_ratio: 0.0,
            verify: true,
            stats: DnsClientStats::default(),
            latency: Histogram::new(),
            window_latency: Histogram::new(),
            window_received_base: 0,
            next_id: 0,
            outstanding: FixedHashMap::default(),
            stopped: false,
        }
    }

    /// Sets the fraction of deliberately unresolvable queries.
    pub fn with_miss_ratio(mut self, ratio: f64) -> Self {
        self.miss_ratio = ratio.clamp(0.0, 1.0);
        self
    }

    /// Changes the offered rate.
    pub fn set_rate(&mut self, rate_pps: f64) {
        self.rate_pps = rate_pps;
    }

    /// Stops offering load.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> DnsClientStats {
        self.stats
    }

    /// Drains the measurement window.
    pub fn take_window(&mut self) -> (u64, Histogram) {
        let n = self.stats.received - self.window_received_base;
        self.window_received_base = self.stats.received;
        (n, std::mem::take(&mut self.window_latency))
    }

    fn send_one(&mut self, ctx: &mut Ctx<'_, Packet>) {
        let miss = ctx.rng().chance(self.miss_ratio);
        let idx = ctx.rng().range_u64(0, self.names);
        let name = if miss {
            Name::from_fmt(format_args!("absent-{idx}.example.com"))
        } else {
            Name::from_fmt(format_args!("host-{idx}.example.com"))
        };
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
        self.outstanding.insert(id, (now, idx, miss));
        self.stats.sent += 1;
        ctx.send(PortId::P0, pkt);
    }

    fn schedule_next(&mut self, ctx: &mut Ctx<'_, Packet>) {
        if self.stopped {
            return;
        }
        if self.rate_pps > 0.0 {
            ctx.schedule_in(Nanos::from_secs_f64(1.0 / self.rate_pps), TAG_SEND);
        } else {
            ctx.schedule_in(Nanos::from_millis(10), TAG_SEND);
        }
    }
}

impl Node<Packet> for DnsClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.schedule_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, timer: Timer) {
        if timer.tag == TAG_SEND {
            if self.stopped {
                return;
            }
            if self.rate_pps > 0.0 {
                self.send_one(ctx);
            }
            self.schedule_next(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, msg: Packet) {
        let Ok(frame) = UdpFrame::parse(&msg) else {
            return;
        };
        let Ok(response) = DnsResponseView::decode(frame.payload) else {
            return;
        };
        let Some((sent_at, idx, was_miss)) = self.outstanding.remove(&response.id) else {
            return;
        };
        let now = ctx.now();
        self.stats.received += 1;
        let lat = (now - sent_at).as_nanos();
        self.latency.record(lat);
        self.window_latency.record(lat);
        match response.rcode {
            Rcode::NoError => {
                if self.verify {
                    let ok = !was_miss
                        && response
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
                if self.verify && !was_miss {
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
