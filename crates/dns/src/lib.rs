//! The DNS case study: Emu DNS and an NSD-like software server (§3.3).
//!
//! Emu DNS is a non-recursive, A-record-only authoritative server compiled
//! to the NetFPGA from C# via the Emu/Kiwi flow; the paper benchmarks it
//! against NSD and adds a packet classifier so it can act as a NIC and
//! shift on demand. This crate implements:
//!
//! * [`wire`] — the RFC 1035 wire format (labels, compression, A records).
//! * [`Zone`] — the resolution table shared by both deployments.
//! * [`engine`] — the placement-independent resolution logic.
//! * [`EmuDevice`] — the hardware server with the non-pipelined ~1 Mrps
//!   core, parse-depth punting, parking, and the embedded controller.
//! * [`DnsServer`] — the NSD-like software server on the i7 power model.
//! * [`DnsClient`] — open-loop query generation with answer verification.

pub mod client;
pub mod emu;
pub mod engine;
pub mod server;
pub mod wire;
pub mod zone;

pub use client::{DnsClient, DnsClientStats};
pub use emu::{EmuDevice, EMU_MAX_RECORDS};
pub use engine::{answer, resolve, Resolution};
pub use server::{DnsServer, DnsServerConfig};
pub use wire::{
    Answer, Answers, DnsError, DnsResponse, DnsResponseView, Labels, Name, Query, Rcode, CLASS_IN,
    DNS_PORT, TYPE_A,
};
pub use zone::Zone;
