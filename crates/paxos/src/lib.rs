//! The consensus case study: P4xos and libpaxos (§3.2).
//!
//! P4xos is the P4 implementation of Paxos from *Paxos Made Switch-y*,
//! interchangeable with the libpaxos software library and its DPDK port.
//! This crate implements the protocol once and deploys it three of the
//! four ways the paper compares: libpaxos, libpaxos+DPDK and
//! P4xos-on-FPGA. The fourth, P4xos on a Tofino (§6), is priced
//! analytically by `inc_hw::TofinoModel`.
//!
//! All state machines here are **sans-IO**: they consume one decoded
//! [`msg::PaxosMsg`] at a time and return the messages to send, tagged
//! with a routing [`roles::Dest`]. Sockets, clocks and loss live in the
//! caller (the simulated UDP fabric, the `inc-bench` chaos rig, the
//! property tests) — which is why every drop/reorder/duplicate/partition
//! interleaving is deterministically replayable.
//!
//! * [`msg`] — the P4xos wire format and the client-command encoding.
//! * [`roles`] — the single-sequencer pipeline the paper measures:
//!   leader/acceptor/learner machines with the §9.2 coordinator-driven
//!   handover (instance sync from `last_voted`, client retry, learner
//!   gap detection, safe no-op filling).
//! * [`multi`] — full Multi-Paxos: ballot-numbered replica/leader
//!   (scout + commander)/acceptor machines with timeout-driven leader
//!   *election* (not just handover), slot-ordered execution and
//!   duplicate/reorder-safe handling. This is what the chaos suite
//!   kills and partitions.
//! * [`node`] — deployment wrappers with per-platform timing and power.
//! * [`client`] — the closed-loop client whose retry timeout produces the
//!   ~100 ms outage visible in Figure 7.

pub mod client;
mod history;
pub mod msg;
pub mod multi;
pub mod node;
pub mod outbox;
mod ring;
pub mod roles;

pub use client::{PaxosClient, PaxosClientStats};
pub use msg::{
    ClientCommand, MsgError, MsgType, PaxosMsg, MAX_VALUE_LEN, NOOP_VALUE, PAXOS_ACCEPTOR_PORT,
    PAXOS_CLIENT_PORT, PAXOS_LEADER_PORT, PAXOS_LEARNER_PORT,
};
pub use node::{AddressBook, HostConfig, PaxosNode, PaxosNodeStats, Platform, RoleEngine};
pub use outbox::Outbox;
pub use roles::{Acceptor, Dest, Leader, Learner};
