//! Deterministic discrete-event simulation kernel for the *in-network
//! computing on demand* reproduction.
//!
//! The paper's testbed — servers, NetFPGA SUME boards, a Tofino switch, an
//! OSNT traffic source, and a wall-power meter — is reproduced as a
//! single-threaded, bit-for-bit deterministic event simulation. This crate
//! provides the kernel only; device and application models live in the
//! crates layered above it:
//!
//! * [`Simulator`], [`Node`], [`Ctx`] — the event loop, component trait and
//!   effect handle; [`Simulator::instant_power`] sums the draw of the
//!   nodes a harness meters.
//! * [`Nanos`] — integer nanosecond time.
//! * [`Rng`] — seeded `xoshiro256**` randomness.
//! * [`Histogram`], [`StreamStats`], [`RecentRing`], [`TimeSeries`],
//!   [`WindowRate`] — the measurement instruments.
//! * [`ServiceStation`] — a multi-core FIFO service model for host software.
//! * [`Pacer`], [`LatencyWindow`] — the open-loop send timer and the
//!   latency record every load generator shares.
//! * [`FreeList`] — the bounded per-thread list frame buffers and
//!   outbox spills recycle through.
//!
//! # Examples
//!
//! ```
//! use inc_sim::{impl_node_any, Ctx, LinkSpec, Nanos, Node, PortId, Simulator, Timer};
//!
//! /// Emits one message per millisecond.
//! struct Source;
//! impl Node<u64> for Source {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
//!         ctx.schedule_in(Nanos::from_millis(1), 0);
//!     }
//!     fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _t: Timer) {
//!         ctx.send(PortId::P0, ctx.now().as_nanos());
//!         ctx.schedule_in(Nanos::from_millis(1), 0);
//!     }
//!     fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: PortId, _: u64) {}
//!     impl_node_any!();
//! }
//!
//! /// Counts what it receives.
//! #[derive(Default)]
//! struct Sink(u64);
//! impl Node<u64> for Sink {
//!     fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: PortId, _: u64) {
//!         self.0 += 1;
//!     }
//!     impl_node_any!();
//! }
//!
//! let mut sim = Simulator::new(42);
//! let src = sim.add_node(Source);
//! let dst = sim.add_node(Sink::default());
//! sim.connect(src, PortId::P0, dst, PortId::P0, LinkSpec::ideal());
//! sim.run_until(Nanos::from_millis(10));
//! assert_eq!(sim.node_ref::<Sink>(dst).0, 10);
//! ```

mod event_queue;
mod free_list;
pub mod pacer;
pub mod rng;
pub mod service;
pub mod sim;
pub mod stats;
pub mod time;

pub use event_queue::QueueStats;
pub use free_list::FreeList;
pub use pacer::{pace_gap, Pacer};
pub use rng::Rng;
pub use service::{Admission, ServiceStation};
pub use sim::{Ctx, LinkSpec, Node, NodeId, Payload, PortId, Simulator, Timer, TimerId};
pub use stats::{Histogram, LatencyWindow, RecentRing, StreamStats, TimeSeries, WindowRate};
pub use time::Nanos;

/// The hasher state of [`FixedHashMap`]: SipHash with constant keys.
pub type FixedState = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// A `HashMap` that hashes the same way in every process.
///
/// `HashMap::new()` seeds its hasher per process (`RandomState`). No
/// model here iterates a hash map, but a table that churns — requests
/// parked until their reply, learned MAC entries — leaves tombstones
/// where its hashes happen to fall, so *when it regrows*, and with it
/// the allocation count of a run, differed between identical runs.
/// Models keep such tables in this type (made with `default()`), which
/// `inc-lint`'s `ambient-rng` rule enforces. The constant keys give up
/// `RandomState`'s protection against crafted collisions; every key
/// here comes from the simulation itself.
pub type FixedHashMap<K, V> = std::collections::HashMap<K, V, FixedState>;
