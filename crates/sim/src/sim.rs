//! The discrete-event simulator: nodes, ports, links and timers.
//!
//! The simulator is generic over the message type `M` so that the kernel has
//! no dependency on any particular packet format; `inc-net` instantiates it
//! with its `Packet`. Execution is single-threaded and fully deterministic:
//! all randomness flows from one seeded [`Rng`], and events fire in time
//! order, **FIFO per timestamp** — equal times fire in the order they
//! were scheduled. The pending set is a monotone radix queue (see
//! `event_queue.rs`) whose every list is kept in push order: a push
//! appends, a slot is refiled only once everything earlier is gone, and
//! refiling preserves list order. No sequence number is stored.

use std::any::Any;

use crate::event_queue::{EventQueue, QueueStats};
use crate::rng::Rng;
use crate::time::Nanos;

/// Identifies a node within one [`Simulator`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies a port on a node. Port numbering is node-local.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

impl PortId {
    /// Port 0, the conventional "first network interface".
    pub const P0: PortId = PortId(0);
}

/// Messages carried by the simulator must expose their wire size so links
/// can model serialization delay.
pub trait Payload: 'static {
    /// Size of the message on the wire in bytes (0 for abstract messages).
    fn wire_bytes(&self) -> usize {
        0
    }
}

impl Payload for () {}
impl Payload for u64 {}
impl Payload for Vec<u8> {
    fn wire_bytes(&self) -> usize {
        self.len()
    }
}

/// A simulated component: a server, a NIC, a switch, a traffic source.
///
/// Nodes react to delivered messages and to their own timers, and report
/// their instantaneous power draw for metering. Implementors must provide
/// the two `Any` accessors (see [`impl_node_any!`](crate::impl_node_any))
/// so harnesses can downcast to the concrete type between simulation runs.
pub trait Node<M: Payload>: Any {
    /// Called once when the node is added to the simulator.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Called when a message arrives on `port`.
    ///
    /// The default implementation silently drops the message, which suits
    /// pure sources and timers.
    fn on_message(&mut self, _ctx: &mut Ctx<'_, M>, _port: PortId, _msg: M) {}

    /// Called when a timer scheduled by this node fires, with the opaque
    /// `tag` the node chose for it ([`Ctx::schedule_at`]).
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _tag: u64) {}

    /// Instantaneous power draw in watts at time `now` (0 for unmetered
    /// components). `now` lets nodes report power derived from windowed
    /// utilisation without interior mutability.
    fn power_w(&self, _now: Nanos) -> f64 {
        0.0
    }

    /// Human-readable label for traces and error messages.
    fn label(&self) -> String {
        "node".to_string()
    }

    /// Upcast for harness-side downcasting.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for harness-side downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements the `as_any`/`as_any_mut` boilerplate of [`Node`].
///
/// # Examples
///
/// ```
/// use inc_sim::{impl_node_any, Ctx, Node, PortId};
///
/// struct Sink;
/// impl Node<u64> for Sink {
///     fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _port: PortId, _msg: u64) {}
///     impl_node_any!();
/// }
/// ```
#[macro_export]
macro_rules! impl_node_any {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
    };
}

/// Properties of a directed link.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Propagation delay added to every message.
    pub latency: Nanos,
    /// Serialization bandwidth in bits/second; `None` means infinite.
    pub bandwidth_bps: Option<f64>,
    /// Probability in `[0, 1]` that a message is silently dropped
    /// (failure injection; 0 for healthy links).
    pub loss: f64,
}

impl LinkSpec {
    /// A zero-latency, infinite-bandwidth link (useful for logical wiring).
    pub fn ideal() -> Self {
        LinkSpec {
            latency: Nanos::ZERO,
            bandwidth_bps: None,
            loss: 0.0,
        }
    }

    /// A 10 Gb/s Ethernet link with the given propagation delay.
    pub fn ten_gbe(latency: Nanos) -> Self {
        LinkSpec {
            latency,
            bandwidth_bps: Some(10e9),
            loss: 0.0,
        }
    }

    /// Returns the same link with a drop probability (failure injection).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    // inc-lint: allow(unreached-pub): tests/failure_injection.rs' lossy links; the foundation of ROADMAP item 6b's fault knobs
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss out of range: {loss}");
        self.loss = loss;
        self
    }
}

struct Link {
    to: (NodeId, PortId),
    spec: LinkSpec,
    next_free: Nanos,
}

enum Event<M> {
    Deliver { node: NodeId, port: PortId, msg: M },
    Timer { node: NodeId, tag: u64 },
}

enum Action<M> {
    Send {
        port: PortId,
        msg: M,
        delay: Nanos,
    },
    Inject {
        to: NodeId,
        port: PortId,
        msg: M,
        delay: Nanos,
    },
    Schedule {
        at: Nanos,
        tag: u64,
    },
}

/// The execution context passed to node callbacks.
///
/// All side effects a node can have on the world go through this handle:
/// sending messages, scheduling timers, and drawing randomness.
pub struct Ctx<'a, M> {
    now: Nanos,
    node: NodeId,
    rng: &'a mut Rng,
    actions: Vec<Action<M>>,
}

impl<'a, M> Ctx<'a, M> {
    /// Returns the current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Returns the id of the node being executed.
    // inc-lint: allow(unreached-pub): crates/sim/tests/event_order.rs' nodes inject to themselves
    pub fn self_id(&self) -> NodeId {
        self.node
    }

    /// Returns the shared deterministic random number generator.
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    /// Sends `msg` out of `port` over whatever link is attached.
    ///
    /// If the port is unconnected the message is dropped and counted in
    /// [`Simulator::unrouted`].
    pub fn send(&mut self, port: PortId, msg: M) {
        self.actions.push(Action::Send {
            port,
            msg,
            delay: Nanos::ZERO,
        });
    }

    /// Like [`Ctx::send`] but the message leaves the node after `delay`
    /// (models local processing before transmission).
    pub fn send_after(&mut self, delay: Nanos, port: PortId, msg: M) {
        self.actions.push(Action::Send { port, msg, delay });
    }

    /// Delivers `msg` directly to another node, bypassing links.
    ///
    /// Used for intra-host paths that are not network hops (e.g. a PCIe DMA
    /// hand-off modelled by the caller with an explicit `delay`).
    pub fn inject(&mut self, to: NodeId, port: PortId, msg: M, delay: Nanos) {
        self.actions.push(Action::Inject {
            to,
            port,
            msg,
            delay,
        });
    }

    /// Schedules a timer to fire at absolute time `at`; [`Node::on_timer`]
    /// then gets `tag`, an opaque value the node chooses to tell its
    /// timers apart.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: Nanos, tag: u64) {
        assert!(at >= self.now, "timer in the past: {at} < {}", self.now);
        self.actions.push(Action::Schedule { at, tag });
    }

    /// Schedules a timer to fire after `delay` (at [`Nanos::MAX`] if the
    /// sum overflows).
    pub fn schedule_in(&mut self, delay: Nanos, tag: u64) {
        self.schedule_at(self.now.saturating_add(delay), tag);
    }
}

/// The discrete-event simulator.
///
/// # Examples
///
/// ```
/// use inc_sim::{impl_node_any, Ctx, LinkSpec, Nanos, Node, PortId, Simulator};
///
/// struct Echo;
/// impl Node<u64> for Echo {
///     fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, port: PortId, msg: u64) {
///         ctx.send(port, msg + 1);
///     }
///     impl_node_any!();
/// }
///
/// struct Probe(Vec<u64>);
/// impl Node<u64> for Probe {
///     fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
///         ctx.send(PortId::P0, 41);
///     }
///     fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _port: PortId, msg: u64) {
///         self.0.push(msg);
///     }
///     impl_node_any!();
/// }
///
/// let mut sim = Simulator::new(1);
/// let echo = sim.add_node(Echo);
/// let probe = sim.add_node(Probe(Vec::new()));
/// sim.connect_duplex(probe, PortId::P0, echo, PortId::P0, LinkSpec::ideal());
/// sim.run_until(Nanos::from_secs(1));
/// assert_eq!(sim.node_ref::<Probe>(probe).0, vec![42]);
/// ```
pub struct Simulator<M: Payload> {
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    start_pending: Vec<NodeId>,
    queue: EventQueue<Event<M>>,
    /// Egress links, indexed `[node][port]` and grown only by `connect`:
    /// a node or port past the end of its table is unconnected.
    links: Vec<Vec<Option<Link>>>,
    now: Nanos,
    rng: Rng,
    unrouted: u64,
    lost: u64,
    events_processed: u64,
    /// Reusable action buffer for [`Simulator::dispatch`]: the hot loop
    /// dispatches one node per event, and allocating a fresh `Vec` per
    /// dispatch dominated the per-event overhead at heavy-traffic event
    /// rates. Dispatch is non-reentrant (a node is taken out of `nodes`
    /// while it runs) and action application never dispatches, so one
    /// scratch buffer suffices.
    action_scratch: Vec<Action<M>>,
    link_tap: Option<LinkTap<M>>,
}

/// The observer of [`Simulator::set_link_tap`].
type LinkTap<M> = Box<dyn FnMut(Nanos, NodeId, PortId, &M)>;

impl<M: Payload> Simulator<M> {
    /// Creates an empty simulator with the given random seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            start_pending: Vec::new(),
            queue: EventQueue::new(),
            links: Vec::new(),
            now: Nanos::ZERO,
            rng: Rng::new(seed),
            unrouted: 0,
            lost: 0,
            events_processed: 0,
            action_scratch: Vec::new(),
            link_tap: None,
        }
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Returns the count of messages sent to unconnected ports.
    pub fn unrouted(&self) -> u64 {
        self.unrouted
    }

    /// Returns the count of messages dropped by lossy links.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Returns the number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Adds a node to the simulation.
    ///
    /// The node's [`Node::on_start`] hook runs at the beginning of the next
    /// [`Simulator::run_until`] call, after the harness has had a chance to
    /// wire up links.
    pub fn add_node<N: Node<M>>(&mut self, node: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(Box::new(node)));
        self.start_pending.push(id);
        id
    }

    /// Connects `from`'s port to `to`'s port with a directed link.
    ///
    /// # Panics
    ///
    /// Panics if the port already has a link or either node does not exist.
    pub fn connect(&mut self, from: NodeId, fp: PortId, to: NodeId, tp: PortId, spec: LinkSpec) {
        assert!(
            (from.0 as usize) < self.nodes.len(),
            "no such node {from:?}"
        );
        assert!((to.0 as usize) < self.nodes.len(), "no such node {to:?}");
        let port_idx = fp.0 as usize;
        if self.links.len() < self.nodes.len() {
            self.links.resize_with(self.nodes.len(), Vec::new);
        }
        let ports = &mut self.links[from.0 as usize];
        if ports.len() <= port_idx {
            ports.resize_with(port_idx + 1, || None);
        }
        let prev = ports[port_idx].replace(Link {
            to: (to, tp),
            spec,
            next_free: Nanos::ZERO,
        });
        assert!(prev.is_none(), "port {fp:?} of {from:?} already connected");
    }

    /// Connects two nodes with a symmetric pair of links.
    pub fn connect_duplex(&mut self, a: NodeId, ap: PortId, b: NodeId, bp: PortId, spec: LinkSpec) {
        self.connect(a, ap, b, bp, spec);
        self.connect(b, bp, a, ap, spec);
    }

    /// Installs an observer that sees every message a node puts on a
    /// connected link — `(now, sender, egress port, message)`, before
    /// the link's loss draw and serialisation — in the deterministic
    /// order the simulator applies sends. Wire-equivalence tests digest
    /// frames through it; with no tap installed a send pays one
    /// `Option` check.
    // inc-lint: allow(unreached-pub): tests/multi_tor.rs digests every frame through it for the wire-frame golden
    pub fn set_link_tap(&mut self, tap: impl FnMut(Nanos, NodeId, PortId, &M) + 'static) {
        self.link_tap = Some(Box::new(tap));
    }

    /// Sums the instantaneous power of the given nodes at the current time.
    pub fn instant_power(&self, nodes: &[NodeId]) -> f64 {
        nodes
            .iter()
            .map(|&id| {
                self.nodes[id.0 as usize]
                    .as_ref()
                    .map(|n| n.power_w(self.now))
                    .unwrap_or(0.0)
            })
            .sum()
    }

    /// Borrows a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale or the type does not match.
    pub fn node_ref<N: Node<M>>(&self, id: NodeId) -> &N {
        self.nodes[id.0 as usize]
            .as_ref()
            .expect("node is executing")
            .as_any()
            .downcast_ref::<N>()
            .expect("node type mismatch")
    }

    /// Mutably borrows a node downcast to its concrete type.
    ///
    /// Harnesses use this between [`Simulator::run_until`] calls to inspect
    /// statistics or to reconfigure components mid-experiment.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale or the type does not match.
    pub fn node_mut<N: Node<M>>(&mut self, id: NodeId) -> &mut N {
        self.nodes[id.0 as usize]
            .as_mut()
            .expect("node is executing")
            .as_any_mut()
            .downcast_mut::<N>()
            .expect("node type mismatch")
    }

    /// Runs a closure against a node with a live [`Ctx`], as if a callback
    /// were being delivered. Lets harnesses trigger sends/timers directly.
    pub fn with_node_ctx<N: Node<M>, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut Ctx<'_, M>) -> R,
    ) -> R {
        let mut out = None;
        self.dispatch(id, |node, ctx| {
            let n = node
                .as_any_mut()
                .downcast_mut::<N>()
                .expect("node type mismatch");
            out = Some(f(n, ctx));
        });
        out.expect("dispatch ran")
    }

    /// Injects a message from outside the simulation, `delay` from now
    /// (at [`Nanos::MAX`] if the sum overflows).
    pub fn inject(&mut self, to: NodeId, port: PortId, msg: M, delay: Nanos) {
        let at = self.now.saturating_add(delay);
        let deliver = Event::Deliver {
            node: to,
            port,
            msg,
        };
        self.queue.push(at, deliver);
    }

    /// Injects a whole burst of `(delay, message)` pairs to one
    /// destination, reserving event-queue space up front so a burst
    /// costs at most one growth of the queue's slab, and none once the
    /// slab has held a burst that size.
    ///
    /// Ordering invariant: events fire in time order, FIFO per
    /// timestamp. Equal times share one list of the queue and every
    /// list stays in push order, so messages of the batch that share a
    /// delivery time arrive in iterator order, after any same-time
    /// event scheduled earlier.
    pub fn inject_batch(
        &mut self,
        to: NodeId,
        port: PortId,
        batch: impl IntoIterator<Item = (Nanos, M)>,
    ) {
        let it = batch.into_iter();
        self.queue.reserve(it.size_hint().0);
        for (delay, msg) in it {
            self.inject(to, port, msg, delay);
        }
    }

    /// Returns the event queue's deterministic work counters.
    // inc-lint: allow(unreached-pub): tests/alloc_budget.rs and crates/sim/tests/event_order.rs bound the relinks per event
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    fn dispatch(&mut self, id: NodeId, f: impl FnOnce(&mut Box<dyn Node<M>>, &mut Ctx<'_, M>)) {
        let mut node = self.nodes[id.0 as usize]
            .take()
            .expect("re-entrant node dispatch");
        let mut ctx = Ctx {
            now: self.now,
            node: id,
            rng: &mut self.rng,
            actions: std::mem::take(&mut self.action_scratch),
        };
        f(&mut node, &mut ctx);
        let mut actions = ctx.actions;
        self.nodes[id.0 as usize] = Some(node);
        for action in actions.drain(..) {
            match action {
                Action::Send { port, msg, delay } => {
                    let link = self
                        .links
                        .get_mut(id.0 as usize)
                        .and_then(|ports| ports.get_mut(port.0 as usize))
                        .and_then(Option::as_mut);
                    let Some(link) = link else {
                        self.unrouted += 1;
                        continue;
                    };
                    if let Some(tap) = self.link_tap.as_mut() {
                        tap(self.now, id, port, &msg);
                    }
                    if link.spec.loss > 0.0 && self.rng.chance(link.spec.loss) {
                        self.lost += 1;
                        continue;
                    }
                    let start = self.now.saturating_add(delay).max(link.next_free);
                    let tx = match link.spec.bandwidth_bps {
                        Some(bps) => Nanos::from_secs_f64(msg.wire_bytes() as f64 * 8.0 / bps),
                        None => Nanos::ZERO,
                    };
                    link.next_free = start.saturating_add(tx);
                    let arrive = link.next_free.saturating_add(link.spec.latency);
                    let (node, port) = link.to;
                    self.queue.push(arrive, Event::Deliver { node, port, msg });
                }
                Action::Inject {
                    to,
                    port,
                    msg,
                    delay,
                } => self.inject(to, port, msg, delay),
                Action::Schedule { at, tag } => {
                    self.queue.push(at, Event::Timer { node: id, tag });
                }
            }
        }
        // Give the (now empty but still allocated) buffer back for the
        // next dispatch.
        self.action_scratch = actions;
    }

    /// Processes events until `deadline` (inclusive), then sets the clock
    /// to `deadline`. Returns the number of events processed by this call.
    ///
    /// The hot loop drains the due burst with per-event overhead kept to
    /// one queue pop plus the dispatch itself: the action buffer is reused
    /// across dispatches (no per-event allocation) and start hooks are
    /// flushed once up front rather than re-checked per event.
    ///
    /// Event-ordering invariant: events execute in time order, FIFO per
    /// timestamp — ties in simulated time fire in the order they were
    /// scheduled — so batched draining is observationally identical to
    /// stepping one event at a time, and one call to `deadline` to any
    /// sequence of calls ending there. It holds because equal times
    /// share one list of the queue and every list stays in push order:
    /// a push appends, a slot is refiled only once everything earlier
    /// is gone, and refiling preserves list order.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is in the past.
    pub fn run_until(&mut self, deadline: Nanos) -> u64 {
        assert!(deadline >= self.now, "deadline in the past");
        while !self.start_pending.is_empty() {
            let pending = std::mem::take(&mut self.start_pending);
            for id in pending {
                self.dispatch(id, |node, ctx| node.on_start(ctx));
            }
        }
        let mut n = 0;
        while let Some((at, event)) = self.queue.pop_due(deadline) {
            self.now = at;
            n += 1;
            match event {
                Event::Deliver { node, port, msg } => {
                    if self.nodes[node.0 as usize].is_some() {
                        self.dispatch(node, |n, ctx| n.on_message(ctx, port, msg));
                    }
                }
                Event::Timer { node, tag } => {
                    if self.nodes[node.0 as usize].is_some() {
                        self.dispatch(node, |n, ctx| n.on_timer(ctx, tag));
                    }
                }
            }
        }
        self.events_processed += n;
        self.now = deadline;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        seen: Vec<(Nanos, u64)>,
    }

    impl Node<u64> for Counter {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _port: PortId, msg: u64) {
            self.seen.push((ctx.now(), msg));
        }
        impl_node_any!();
    }

    struct Ticker {
        period: Nanos,
        fired: u32,
        limit: u32,
    }

    impl Node<u64> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.schedule_in(self.period, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
            self.fired += 1;
            ctx.send(PortId::P0, self.fired as u64);
            if self.fired < self.limit {
                ctx.schedule_in(self.period, 0);
            }
        }
        impl_node_any!();
    }

    #[test]
    fn a_u64_event_stays_small() {
        // Every pending event sits in the queue's slab, so its size is
        // paid per event in flight: a timer is its node and its tag, a
        // delivery its node, port and message, and nothing more.
        assert_eq!(std::mem::size_of::<Event<u64>>(), 16);
    }

    #[test]
    fn inject_batch_preserves_time_and_push_order() {
        let mut sim: Simulator<u64> = Simulator::new(0);
        let c = sim.add_node(Counter { seen: Vec::new() });
        sim.inject(c, PortId::P0, 99, Nanos::from_nanos(5));
        // Delays alternate 5, 4, 5, 4 — the burst interleaves with the
        // earlier event at t=5 purely by time, then push order.
        sim.inject_batch(
            c,
            PortId::P0,
            (0..4u64).map(|i| (Nanos::from_nanos(5 - (i % 2)), i)),
        );
        sim.run_until(Nanos::from_nanos(10));
        let seen = &sim.node_ref::<Counter>(c).seen;
        let expect = [
            (Nanos::from_nanos(4), 1),
            (Nanos::from_nanos(4), 3),
            (Nanos::from_nanos(5), 99),
            (Nanos::from_nanos(5), 0),
            (Nanos::from_nanos(5), 2),
        ];
        assert_eq!(seen.as_slice(), &expect);
        assert_eq!(sim.events_processed(), 5);
    }

    fn ticker_sim() -> (Simulator<u64>, NodeId, NodeId) {
        let mut sim = Simulator::new(0);
        let t = sim.add_node(Ticker {
            period: Nanos::from_millis(10),
            fired: 0,
            limit: 5,
        });
        let c = sim.add_node(Counter { seen: Vec::new() });
        sim.connect(t, PortId::P0, c, PortId::P0, LinkSpec::ideal());
        (sim, t, c)
    }

    #[test]
    fn timers_drive_messages() {
        let (mut sim, _t, c) = ticker_sim();
        sim.run_until(Nanos::from_secs(1));
        let seen = &sim.node_ref::<Counter>(c).seen;
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[0], (Nanos::from_millis(10), 1));
        assert_eq!(seen[4], (Nanos::from_millis(50), 5));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, _t, c) = ticker_sim();
        sim.run_until(Nanos::from_millis(25));
        assert_eq!(sim.node_ref::<Counter>(c).seen.len(), 2);
        assert_eq!(sim.now(), Nanos::from_millis(25));
        sim.run_until(Nanos::from_secs(1));
        assert_eq!(sim.node_ref::<Counter>(c).seen.len(), 5);
    }

    #[test]
    fn link_latency_and_serialization() {
        struct Blaster;
        impl Node<Vec<u8>> for Blaster {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Vec<u8>>) {
                // Two 1000-byte messages back to back.
                ctx.send(PortId::P0, vec![0; 1000]);
                ctx.send(PortId::P0, vec![0; 1000]);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Vec<u8>>, _: PortId, _: Vec<u8>) {}
            impl_node_any!();
        }
        struct Rx(Vec<Nanos>);
        impl Node<Vec<u8>> for Rx {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, _: PortId, _: Vec<u8>) {
                self.0.push(ctx.now());
            }
            impl_node_any!();
        }
        let mut sim = Simulator::new(0);
        let tx = sim.add_node(Blaster);
        let rx = sim.add_node(Rx(Vec::new()));
        // 1000 B at 1 Gb/s = 8 us serialization; latency 1 us.
        sim.connect(
            tx,
            PortId::P0,
            rx,
            PortId::P0,
            LinkSpec {
                latency: Nanos::from_micros(1),
                bandwidth_bps: Some(1e9),
                loss: 0.0,
            },
        );
        sim.run_until(Nanos::from_secs(1));
        let times = &sim.node_ref::<Rx>(rx).0;
        assert_eq!(times[0], Nanos::from_micros(9));
        // Second message waits for the first to serialize.
        assert_eq!(times[1], Nanos::from_micros(17));
    }

    #[test]
    fn unconnected_port_counts_unrouted() {
        struct Sprayer;
        impl Node<u64> for Sprayer {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                // P2 is wired; P0 sits below it in the port table, P3
                // beyond its end.
                for port in [PortId::P0, PortId(2), PortId(3)] {
                    ctx.send(port, port.0 as u64);
                }
            }
            impl_node_any!();
        }
        let mut sim = Simulator::new(0);
        let s = sim.add_node(Sprayer);
        let c = sim.add_node(Counter { seen: Vec::new() });
        sim.connect(s, PortId(2), c, PortId::P0, LinkSpec::ideal());
        sim.run_until(Nanos::from_millis(1));
        assert_eq!(sim.unrouted(), 2);
        assert_eq!(sim.node_ref::<Counter>(c).seen, vec![(Nanos::ZERO, 2)]);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn connecting_a_port_twice_panics() {
        let (mut sim, t, c) = ticker_sim();
        sim.connect(t, PortId::P0, c, PortId(1), LinkSpec::ideal());
    }

    #[test]
    #[should_panic(expected = "no such node")]
    fn connecting_an_unknown_node_panics() {
        let (mut sim, t, _c) = ticker_sim();
        sim.connect(t, PortId(1), NodeId(9), PortId::P0, LinkSpec::ideal());
    }

    /// Event times saturate: a delay that would overflow the clock
    /// parks the event at `Nanos::MAX` instead of wrapping it into the
    /// past — in debug and in release (`scripts/bench_smoke.sh` runs
    /// this crate's tests in both).
    #[test]
    fn overflowing_delays_park_at_the_end_of_time() {
        struct Far;
        impl Node<u64> for Far {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.send_after(Nanos::MAX, PortId::P0, 1);
                ctx.inject(NodeId(1), PortId::P0, 2, Nanos::MAX);
                ctx.schedule_in(Nanos::MAX, 3);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, tag: u64) {
                ctx.send(PortId::P0, tag);
            }
            impl_node_any!();
        }
        let mut sim = Simulator::new(0);
        sim.run_until(Nanos::from_secs(1));
        let far = sim.add_node(Far);
        let c = sim.add_node(Counter { seen: Vec::new() });
        let wire = LinkSpec::ten_gbe(Nanos::from_micros(1));
        sim.connect(far, PortId::P0, c, PortId::P0, wire);
        sim.inject(c, PortId::P0, 0, Nanos::MAX);
        let end = Nanos::from_nanos(u64::MAX - 1);
        assert_eq!(sim.run_until(end), 0, "something fired early");
        assert_eq!(sim.queue_stats().pushed, 4);
        // Four parked events plus the timer's send, all at the last
        // instant, in the order they were scheduled.
        assert_eq!(sim.run_until(Nanos::MAX), 5);
        let seen = &sim.node_ref::<Counter>(c).seen;
        assert_eq!(seen.as_slice(), &[0, 1, 2, 3].map(|m| (Nanos::MAX, m)));
        assert_eq!(sim.run_until(Nanos::MAX), 0);
    }

    #[test]
    fn deterministic_event_order() {
        let run = || {
            let (mut sim, _t, c) = ticker_sim();
            sim.run_until(Nanos::from_secs(1));
            sim.node_ref::<Counter>(c).seen.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn with_node_ctx_allows_manual_kick() {
        let (mut sim, t, c) = ticker_sim();
        sim.run_until(Nanos::from_secs(1));
        sim.with_node_ctx::<Ticker, _>(t, |n, ctx| {
            n.limit += 1;
            ctx.send(PortId::P0, 99);
        });
        sim.run_until(Nanos::from_secs(2));
        let seen = &sim.node_ref::<Counter>(c).seen;
        assert_eq!(seen.last().unwrap().1, 99);
    }

    #[test]
    fn inject_delivers_external_messages() {
        let mut sim = Simulator::new(0);
        let c = sim.add_node(Counter { seen: Vec::new() });
        sim.inject(c, PortId(1), 5, Nanos::from_millis(3));
        sim.run_until(Nanos::from_secs(1));
        assert_eq!(
            sim.node_ref::<Counter>(c).seen,
            vec![(Nanos::from_millis(3), 5)]
        );
    }
}
