//! The software memcached server (v1.5.1 in the paper's testbed, §4.2).
//!
//! A simulation node that parses real memcached binary-protocol datagrams
//! and executes them against an authoritative [`KvStore`]. The host cost —
//! per-request CPU service time on a multi-core station, a fixed kernel
//! network-stack latency, the calibrated i7 power curve with its
//! uncore-activation jump, and co-tenant load (the paper's ChainerMN in
//! Figure 6) — is the server shell ([`ServerShell`]) NSD runs on too.

use std::ops::{Deref, DerefMut};

use inc_hw::{ServerApp, ServerShell};
use inc_net::{build_reply_with, Packet, UdpFrame};
use inc_sim::{impl_node_any, Ctx, Nanos, Node, PortId};

use crate::protocol::{decode_view, MessageView, RequestView, ResponseView, Status};
use crate::store::KvStore;

/// Configuration of the software server's cost model: the one host model
/// every software twin runs on.
pub use inc_hw::HostConfig as MemcachedConfig;

/// What memcached adds to the server shell: the authoritative store.
struct Memcached {
    store: KvStore,
}

impl Memcached {
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

impl ServerApp for Memcached {
    type Msg = Packet;

    fn serve(
        &mut self,
        host: &mut ServerShell<Packet>,
        ctx: &mut Ctx<'_, Packet>,
        msg: &Packet,
    ) -> Option<(Packet, Nanos)> {
        let frame = UdpFrame::parse(msg).ok()?;
        // Anything but a memcached request is not for us.
        let Ok(MessageView::Request {
            frame: mc_frame,
            request,
            opaque,
        }) = decode_view(frame.payload)
        else {
            return None;
        };
        // Overload: the client will time out.
        let ready = host.admit(ctx.now())?;
        // Execute against the store immediately (state changes are cheap
        // and total order at sub-µs scale does not affect the study);
        // the *reply* waits for the modelled CPU + kernel time.
        let response = self.execute(request, opaque);
        let reply = build_reply_with(&frame, response.encoded_len(), |buf| {
            response.encode_into(mc_frame, buf)
        });
        // Kernel-path jitter (softirq batching, scheduler): exponential
        // with a ~300 ns mean, giving the paper's 13.5/14.3 µs p50/p99
        // spread on the miss path (§5.3).
        let jitter = Nanos::from_secs_f64(ctx.rng().exp(300e-9));
        Some((reply, ready + jitter))
    }
}

/// The memcached server node: the server shell (utilisation, co-tenant
/// load, served and dropped counts — reached through `Deref`) around the
/// store.
pub struct MemcachedServer {
    shell: ServerShell<Packet>,
    app: Memcached,
}

impl MemcachedServer {
    /// Creates a server with an empty store.
    pub fn new(config: MemcachedConfig) -> Self {
        MemcachedServer {
            shell: ServerShell::new(config),
            app: Memcached {
                store: KvStore::new(),
            },
        }
    }

    /// Pre-populates the store (test and warm-start harnesses).
    pub fn preload(&mut self, items: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>) {
        for (k, v) in items {
            self.app.store.set(k, v, 0);
        }
    }
}

impl Deref for MemcachedServer {
    type Target = ServerShell<Packet>;

    fn deref(&self) -> &ServerShell<Packet> {
        &self.shell
    }
}

impl DerefMut for MemcachedServer {
    fn deref_mut(&mut self) -> &mut ServerShell<Packet> {
        &mut self.shell
    }
}

impl Node<Packet> for MemcachedServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.shell.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, msg: Packet) {
        self.shell.on_message(&mut self.app, ctx, port, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, tag: u64) {
        self.shell.on_timer(ctx, tag);
    }

    fn power_w(&self, _now: Nanos) -> f64 {
        self.shell.power_w()
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
        assert!((Node::power_w(&s, Nanos::ZERO) - 39.0).abs() < 0.1);
    }

    #[test]
    fn background_raises_power() {
        let mut s = MemcachedServer::new(MemcachedConfig::i7_with_mellanox());
        let idle = Node::power_w(&s, Nanos::ZERO);
        s.set_background_util(2.0);
        assert!(Node::power_w(&s, Nanos::ZERO) > idle + 20.0);
    }

    #[test]
    fn execute_get_set_delete() {
        let mut s = Memcached {
            store: KvStore::new(),
        };
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
        let peak = cfg.cpu.cores as f64 / cfg.service.as_secs_f64();
        assert!((0.9e6..1.1e6).contains(&peak), "{peak}");
    }
}
