//! The consensus case study: P4xos and libpaxos (§3.2).
//!
//! P4xos is the P4 implementation of Paxos from *Paxos Made Switch-y*,
//! interchangeable with the libpaxos software library and its DPDK port.
//! This crate implements the protocol once, as the Multi-Paxos roles of
//! [`multi`], and deploys it three of the four ways the paper compares:
//! libpaxos, libpaxos+DPDK and P4xos-on-FPGA. The fourth, P4xos on a
//! Tofino (§6), is priced analytically by `inc_hw::TofinoModel`.
//!
//! All state machines here are **sans-IO**: they consume one decoded
//! [`msg::PaxosMsg`] at a time and return the messages to send, tagged
//! with a routing [`Dest`]. Sockets, clocks and loss live in the caller
//! (the simulated UDP fabric, the `inc-bench` chaos rig, the property
//! tests) — which is why every drop/reorder/duplicate/partition
//! interleaving is deterministically replayable.
//!
//! * [`msg`] — the P4xos wire format and the client-command encoding.
//! * [`multi`] — ballot-numbered leaders (scout + commanders),
//!   acceptors and replicas, every one of them keeping a window above a
//!   floor and nothing below it. The chaos suite runs them as PMMC
//!   does: replicas number commands and propose them, leaders elect
//!   themselves on a timeout. The §9.2 deployment runs the same
//!   machines with the leader numbering the clients' requests and the
//!   replica reporting its `slot_out`, which moves the floor.
//! * [`node`] — the §9.2 deployment: one role per simulation node, with
//!   per-platform timing and power, and leadership handed over by the
//!   coordinator.
//! * [`client`] — the closed-loop client whose retry timeout produces the
//!   ~100 ms outage visible in Figure 7.

pub mod client;
mod history;
pub mod msg;
pub mod multi;
pub mod node;
pub mod outbox;
mod ring;

pub use client::{PaxosClient, PaxosClientStats};
pub use msg::{
    ClientCommand, MsgError, MsgType, PaxosMsg, MAX_VALUE_LEN, NOOP_VALUE, PAXOS_ACCEPTOR_PORT,
    PAXOS_CLIENT_PORT, PAXOS_LEADER_PORT, PAXOS_LEARNER_PORT,
};
pub use node::{AddressBook, HostConfig, PaxosNode, Platform, Role};
pub use outbox::{Dest, Outbox};
