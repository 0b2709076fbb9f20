//! The software authoritative server (NSD in the paper's testbed, §4.4):
//! the zone on the server shell ([`ServerShell`]) memcached runs on too.

use std::ops::{Deref, DerefMut};

use inc_hw::{ServerApp, ServerShell};
use inc_net::{build_reply_with, Packet, UdpFrame};
use inc_sim::{impl_node_any, Ctx, Nanos, Node, PortId};

use crate::engine::{answer, Resolution};
use crate::zone::Zone;

/// Cost model of the software DNS server: the one host model every
/// software twin runs on.
pub use inc_hw::HostConfig as DnsServerConfig;

/// What NSD adds to the server shell: the zone it answers from.
struct Nsd {
    zone: Zone,
}

impl ServerApp for Nsd {
    type Msg = Packet;

    fn serve(
        &mut self,
        host: &mut ServerShell<Packet>,
        ctx: &mut Ctx<'_, Packet>,
        msg: &Packet,
    ) -> Option<(Packet, Nanos)> {
        let frame = UdpFrame::parse(msg).ok()?;
        // Malformed queries are dropped, as NSD logs-and-drops.
        let Ok(Resolution::Answered(response)) = answer(&self.zone, frame.payload, None) else {
            return None;
        };
        let ready = host.admit(ctx.now())?;
        let reply = build_reply_with(&frame, response.encoded_len(), |buf| {
            response.encode_into(buf)
        });
        Some((reply, ready))
    }
}

/// The software DNS server node: the server shell (utilisation,
/// co-tenant load, served and dropped counts — reached through `Deref`)
/// around the zone.
pub struct DnsServer {
    shell: ServerShell<Packet>,
    nsd: Nsd,
}

impl DnsServer {
    /// Creates a server answering from `zone`.
    pub fn new(config: DnsServerConfig, zone: Zone) -> Self {
        DnsServer {
            shell: ServerShell::new(config),
            nsd: Nsd { zone },
        }
    }
}

impl Deref for DnsServer {
    type Target = ServerShell<Packet>;

    fn deref(&self) -> &ServerShell<Packet> {
        &self.shell
    }
}

impl DerefMut for DnsServer {
    fn deref_mut(&mut self) -> &mut ServerShell<Packet> {
        &mut self.shell
    }
}

impl Node<Packet> for DnsServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.shell.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, msg: Packet) {
        self.shell.on_message(&mut self.nsd, ctx, port, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, tag: u64) {
        self.shell.on_timer(ctx, tag);
    }

    fn power_w(&self, _now: Nanos) -> f64 {
        self.shell.power_w()
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
        let p = Node::power_w(&s, Nanos::ZERO);
        assert!(p < 40.0, "{p}");
        assert!(p > 30.0, "{p}");
    }

    #[test]
    fn peak_rate_is_956k() {
        let cfg = DnsServerConfig::nsd_i7();
        let peak = cfg.cpu.cores as f64 / cfg.service.as_secs_f64();
        assert!((940_000.0..975_000.0).contains(&peak), "{peak}");
    }
}
