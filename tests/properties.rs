//! Property-based tests over the core data structures and protocol
//! invariants, spanning the workspace crates.

use proptest::prelude::*;

use inc::dns::{DnsResponse, Name, Query, Rcode, TYPE_A};
use inc::kvs::{decode as mc_decode, encode_request, FrameHeader, Message, Request};
use inc::net::{build_udp, internet_checksum, Endpoint, UdpFrame};
use inc::paxos::{Dest, MsgType, Outbox, PaxosMsg};
use inc::sim::{FreeList, Histogram, Nanos, Rng, WindowRate};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // --- Wire formats round-trip for arbitrary inputs. ---

    #[test]
    fn udp_frame_round_trips(
        src_host in 1u32..1000,
        dst_host in 1u32..1000,
        sport in 1u16..u16::MAX,
        dport in 1u16..u16::MAX,
        payload in proptest::collection::vec(any::<u8>(), 0..1200),
    ) {
        let src = Endpoint::host(src_host, sport);
        let dst = Endpoint::host(dst_host, dport);
        let pkt = build_udp(src, dst, &payload);
        let frame = UdpFrame::parse(&pkt).unwrap();
        prop_assert_eq!(frame.udp.src_port, sport);
        prop_assert_eq!(frame.udp.dst_port, dport);
        prop_assert_eq!(frame.ip.src, src.ip);
        prop_assert_eq!(frame.ip.dst, dst.ip);
        prop_assert_eq!(frame.payload, &payload[..]);
    }

    #[test]
    fn udp_frame_rejects_any_single_byte_corruption(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        flip in any::<usize>(),
    ) {
        let src = Endpoint::host(1, 100);
        let dst = Endpoint::host(2, 200);
        let pkt = build_udp(src, dst, &payload);
        let mut bytes = pkt.data.to_vec();
        // Corrupt one byte beyond the Ethernet header (IPv4 + UDP + body
        // are all checksummed).
        let idx = 14 + flip % (bytes.len() - 14);
        bytes[idx] ^= 0x01;
        let corrupted = inc::net::Packet::from_bytes(bytes::Bytes::from(bytes));
        // Either the parse fails, or the flipped bit landed somewhere it
        // legitimately changes meaning without breaking checksums
        // (impossible for single-bit flips over checksummed regions).
        prop_assert!(UdpFrame::parse(&corrupted).is_err());
    }

    #[test]
    fn internet_checksum_detects_16bit_word_swap_errors(
        words in proptest::collection::vec(any::<u16>(), 1..32),
        pos in any::<usize>(),
    ) {
        // Even-length data: appending the checksum keeps 16-bit alignment
        // and makes the whole buffer sum to zero.
        let data: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        let csum = internet_checksum(&data);
        let mut with = data.clone();
        with.extend_from_slice(&csum.to_be_bytes());
        prop_assert_eq!(internet_checksum(&with), 0);
        // Any single-byte change breaks it (unless it flips 0x00<->0xff
        // within the ones-complement equivalence — excluded here).
        let idx = pos % data.len();
        let old = with[idx];
        let new = old.wrapping_add(1);
        if !(old == 0xff && new == 0x00) {
            with[idx] = new;
            prop_assert_ne!(internet_checksum(&with), 0);
        }
    }

    #[test]
    fn memcached_requests_round_trip(
        key in proptest::collection::vec(any::<u8>(), 1..250),
        value in proptest::collection::vec(any::<u8>(), 0..1024),
        flags in any::<u32>(),
        opaque in any::<u32>(),
        op in 0u8..3,
    ) {
        let req = match op {
            0 => Request::Get { key: key.clone() },
            1 => Request::Set { key: key.clone(), value, flags, expiry: 0 },
            _ => Request::Delete { key: key.clone() },
        };
        let frame = FrameHeader { request_id: 9, seq: 0, total: 1 };
        let bytes = encode_request(frame, &req, opaque);
        match mc_decode(&bytes).unwrap() {
            Message::Request { request, opaque: o, .. } => {
                prop_assert_eq!(request, req);
                prop_assert_eq!(o, opaque);
            }
            other => prop_assert!(false, "decoded wrong kind: {:?}", other),
        }
    }

    #[test]
    fn memcached_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = mc_decode(&bytes);
    }

    #[test]
    fn dns_names_round_trip(labels in proptest::collection::vec("[a-z0-9]{1,16}", 1..6)) {
        let name_str = labels.join(".");
        let name = Name::parse(&name_str).unwrap();
        let q = Query { id: 1, name: name.clone(), qtype: TYPE_A, recursion_desired: false };
        let decoded = Query::decode(&q.encode()).unwrap();
        prop_assert_eq!(decoded.name.to_string(), name_str);
    }

    #[test]
    fn dns_responses_round_trip(
        labels in proptest::collection::vec("[a-z]{1,10}", 1..5),
        answers in proptest::collection::vec((any::<u32>(), 1u32..86_400), 0..4),
        id in any::<u16>(),
    ) {
        let name = Name::parse(&labels.join(".")).unwrap();
        let r = DnsResponse {
            id,
            rcode: if answers.is_empty() { Rcode::NxDomain } else { Rcode::NoError },
            name,
            answers: answers
                .iter()
                .map(|&(ip, ttl)| (std::net::Ipv4Addr::from(ip), ttl))
                .collect(),
        };
        let decoded = DnsResponse::decode(&r.encode()).unwrap();
        prop_assert_eq!(decoded, r);
    }

    #[test]
    fn dns_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Query::decode(&bytes);
        let _ = DnsResponse::decode(&bytes);
    }

    #[test]
    fn paxos_messages_round_trip(
        instance in any::<u64>(),
        round in any::<u16>(),
        vround in any::<u16>(),
        acceptor in any::<u8>(),
        last_voted in any::<u64>(),
        value in proptest::collection::vec(any::<u8>(), 0..256),
        mtype_idx in 0u8..7,
    ) {
        let mtype = [
            MsgType::ClientRequest, MsgType::Phase1a, MsgType::Phase1b,
            MsgType::Phase2a, MsgType::Phase2b, MsgType::ClientReply,
            MsgType::GapRequest,
        ][mtype_idx as usize];
        let m = PaxosMsg {
            mtype, instance, round, vround, acceptor, last_voted,
            value: value.into(),
        };
        prop_assert_eq!(PaxosMsg::decode(&m.encode()).unwrap(), m.clone());
        // Appending to a scratch buffer writes the same bytes.
        let mut scratch = vec![0xEE; 3];
        m.encode_into(&mut scratch);
        prop_assert_eq!(&scratch[3..], &m.encode()[..]);
    }

    #[test]
    fn paxos_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = PaxosMsg::decode(&bytes);
    }

    // --- Measurement instruments. ---

    #[test]
    fn histogram_quantiles_within_resolution(
        samples in proptest::collection::vec(1u64..1_000_000, 10..500),
        q in 0.0f64..=1.0,
    ) {
        let mut h = Histogram::new();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &s in &samples {
            h.record(s);
        }
        let exact = sorted[(((q * samples.len() as f64).ceil() as usize).max(1) - 1)
            .min(samples.len() - 1)];
        let got = h.quantile(q);
        // HDR resolution: within ~3.2 % above the exact order statistic.
        prop_assert!(got >= exact, "got {} < exact {}", got, exact);
        prop_assert!((got as f64) <= exact as f64 * 1.04 + 1.0, "got {} vs exact {}", got, exact);
        // The endpoints are exact, not bucket bounds: q = 0 is the
        // tracked minimum (regression: it used to return the first
        // occupied bucket's upper bound), q = 1 is clamped to the tracked
        // maximum.
        prop_assert_eq!(h.quantile(0.0), sorted[0]);
        prop_assert_eq!(h.quantile(1.0), *sorted.last().unwrap());
    }

    #[test]
    fn histogram_quantiles_on_latency_mixtures(
        // The shape the fleet scheduler's timelines actually see: a fast
        // hardware mode (~1.4 us hits) mixed with a slow software mode
        // (~13.5 us), in arbitrary proportion, possibly across merged
        // per-interval windows.
        fast in proptest::collection::vec(1_200u64..2_000, 1..200),
        slow in proptest::collection::vec(12_000u64..16_000, 1..200),
        split in any::<usize>(),
        q in 0.0f64..=1.0,
    ) {
        let mut all: Vec<u64> = fast.iter().chain(slow.iter()).copied().collect();
        // Record across two histograms and merge, as windowed
        // measurement pipelines do.
        let cut = split % all.len();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &s) in all.iter().enumerate() {
            if i < cut { a.record(s) } else { b.record(s) }
        }
        a.merge(&b);
        all.sort_unstable();
        let exact = all[(((q * all.len() as f64).ceil() as usize).max(1) - 1)
            .min(all.len() - 1)];
        let got = a.quantile(q);
        // The documented bound: an upper estimate within the ~3.2 %
        // (1/32 sub-bucket) relative resolution of the exact order
        // statistic, regardless of the mixture.
        prop_assert!(got >= exact, "got {} < exact {}", got, exact);
        prop_assert!(
            (got as f64) <= exact as f64 * (1.0 + 1.0 / 32.0) + 1.0,
            "got {} vs exact {}", got, exact
        );
        // Exact endpoints survive the merge: the minimum of the union is
        // the smaller of the two tracked minima.
        prop_assert_eq!(a.quantile(0.0), all[0]);
        prop_assert!(a.quantile(1.0) >= *all.last().unwrap());
    }
}

// --- A rate window that skips a long gap in one step reads the same. ---

/// `WindowRate` as it was before gaps were skipped: one epoch closed per
/// loop iteration, compared by difference so a clock near the end of
/// time cannot overflow. The reference the fast path is held to.
struct SteppedRate {
    epoch: u64,
    ring: Vec<u64>,
    head: usize,
    filled: usize,
    start: u64,
    count: u64,
}

impl SteppedRate {
    fn new(epoch: u64, epochs: usize) -> Self {
        SteppedRate {
            epoch,
            ring: vec![0; epochs],
            head: 0,
            filled: 0,
            start: 0,
            count: 0,
        }
    }

    fn roll(&mut self, now: u64) {
        while now.saturating_sub(self.start) >= self.epoch {
            self.ring[self.head] = self.count;
            self.head = (self.head + 1) % self.ring.len();
            self.filled = (self.filled + 1).min(self.ring.len());
            self.count = 0;
            self.start += self.epoch;
        }
    }

    fn record(&mut self, now: u64, n: u64) {
        self.roll(now);
        self.count += n;
    }

    fn rate(&mut self, now: u64) -> f64 {
        self.roll(now);
        let elapsed = now.saturating_sub(self.start);
        let total = self.ring.iter().take(self.filled).sum::<u64>() + self.count;
        let span = Nanos::from_nanos(self.epoch * self.filled as u64 + elapsed).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        total as f64 / span
    }

    fn reset(&mut self, now: u64) {
        self.ring.fill(0);
        self.head = 0;
        self.filled = 0;
        self.count = 0;
        self.start = now / self.epoch * self.epoch;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn window_rate_fast_forward_matches_stepping(
        epoch in 1u64..2_000_000,
        epochs in 1usize..12,
        start in any::<u64>(),
        near_end in any::<bool>(),
        ops in proptest::collection::vec((0u8..4, any::<u64>(), 0u64..50), 1..60),
    ) {
        // Gaps reach past three ring lengths, so the one-step skip runs
        // often; a start near the end of time makes every clock there.
        let max_gap = (3 * epochs as u64 + 2) * epoch;
        let start = if near_end {
            u64::MAX - start % (epochs as u64 * 8 * epoch)
        } else {
            start % (1 << 40)
        };
        let mut fast = WindowRate::new(Nanos::from_nanos(epoch), epochs);
        let mut stepped = SteppedRate::new(epoch, epochs);
        fast.reset(Nanos::from_nanos(start));
        stepped.reset(start);
        let mut now = start;
        for (op, gap, n) in ops {
            now = now.saturating_add(gap % (max_gap + 1));
            let at = Nanos::from_nanos(now);
            match op {
                0 | 1 => {
                    fast.record(at, n);
                    stepped.record(now, n);
                }
                2 => {
                    let (f, s) = (fast.rate(at), stepped.rate(now));
                    prop_assert_eq!(f.to_bits(), s.to_bits(), "rate at {} ns: {} vs {}", now, f, s);
                }
                _ => {
                    fast.reset(at);
                    stepped.reset(now);
                }
            }
            prop_assert_eq!(fast.primed(), stepped.filled == epochs);
        }
        let (f, s) = (fast.rate(Nanos::from_nanos(now)), stepped.rate(now));
        prop_assert_eq!(f.to_bits(), s.to_bits());
    }
}

// --- Model-based LRU check against a reference implementation. ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_matches_reference_model(
        capacity in 1usize..12,
        ops in proptest::collection::vec((0u8..3, 0u8..24), 1..400),
    ) {
        use inc::kvs::LruCache;
        let mut lru = LruCache::new(capacity);
        let mut reference: Vec<(Vec<u8>, Vec<u8>)> = Vec::new(); // MRU-first
        for (op, key_id) in ops {
            let key = vec![key_id];
            match op {
                0 => {
                    // Insert.
                    let value = vec![key_id, 0xAA];
                    lru.insert(key.clone(), value.clone());
                    reference.retain(|(k, _)| k != &key);
                    reference.insert(0, (key, value));
                    reference.truncate(capacity);
                }
                1 => {
                    // Get.
                    let got = lru.get(&key).map(|v| v.to_vec());
                    let pos = reference.iter().position(|(k, _)| k == &key);
                    match pos {
                        Some(p) => {
                            let entry = reference.remove(p);
                            prop_assert_eq!(got.as_deref(), Some(entry.1.as_slice()));
                            reference.insert(0, entry);
                        }
                        None => prop_assert_eq!(got, None),
                    }
                }
                _ => {
                    // Remove.
                    let was = lru.remove(&key);
                    let pos = reference.iter().position(|(k, _)| k == &key);
                    prop_assert_eq!(was, pos.is_some());
                    if let Some(p) = pos {
                        reference.remove(p);
                    }
                }
            }
        }
        // Drained oldest first, the cache is the model's list reversed:
        // the same entries, the same recency order, nothing else.
        let drained: Vec<(Vec<u8>, Vec<u8>)> = std::iter::from_fn(|| lru.pop_lru()).collect();
        reference.reverse();
        prop_assert_eq!(drained, reference);
    }
}

// --- Paxos safety under adversarial delivery. ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two leaders race, each numbering the unnumbered requests that
    /// reach it; messages are dropped, duplicated and reordered.
    /// Safety: a replica executes, per slot, a value some client
    /// actually sent, and two independent replicas never disagree. Each
    /// replica's client replies are its executed log: every value here
    /// is a command, and with no slot report nothing is filled with a
    /// no-op, so every executed slot is answered.
    #[test]
    fn paxos_agreement_under_drops_dups_reorder(
        seed in any::<u64>(),
        n_commands in 1usize..20,
        drop_pct in 0u32..40,
        dup_pct in 0u32..30,
    ) {
        use inc::paxos::multi::{Acceptor, Leader, Replica};
        use inc::paxos::ClientCommand;

        let mut rng = Rng::new(seed);
        let mut leaders = vec![Leader::new(0, 3, 2), Leader::new(1, 3, 2)];
        let mut acceptors: Vec<_> = (0..3).map(Acceptor::new).collect();
        let mut replicas = [Replica::new(0, 3), Replica::new(1, 3)];
        let mut replies: [Vec<(u64, inc::net::Bytes)>; 2] = Default::default();

        // Pending (destination-kind, message) bag with adversarial order.
        let mut bag: Vec<(Dest, PaxosMsg)> = Vec::new();
        for leader in &mut leaders {
            bag.extend(leader.start_scout());
        }
        for i in 0..n_commands {
            let payload = format!("cmd-{i}").into_bytes();
            let value = ClientCommand { client: 1, seq: i as u64, payload }.encode();
            let req = PaxosMsg::new(MsgType::ClientRequest, 0, 0, value);
            let leader = rng.index(2);
            bag.extend(leaders[leader].handle(&req));
        }

        let mut steps = 0;
        while !bag.is_empty() && steps < 10_000 {
            steps += 1;
            let idx = rng.index(bag.len());
            let (dest, msg) = bag.swap_remove(idx);
            if rng.chance(drop_pct as f64 / 100.0) {
                continue;
            }
            if rng.chance(dup_pct as f64 / 100.0) {
                bag.push((dest, msg.clone()));
            }
            match dest {
                Dest::AllAcceptors => {
                    for acc in &mut acceptors {
                        bag.extend(acc.handle(&msg));
                    }
                }
                Dest::AllLearners => {
                    for (replica, seen) in replicas.iter_mut().zip(&mut replies) {
                        for (to, reply) in replica.handle(&msg) {
                            prop_assert_eq!(to, Dest::Client(1));
                            seen.push((reply.instance, reply.value));
                        }
                    }
                    for l in &mut leaders {
                        l.handle(&msg);
                    }
                }
                Dest::Leader | Dest::Reply => {
                    for l in &mut leaders {
                        bag.extend(l.handle(&msg));
                    }
                }
                Dest::Client(_) => {}
            }
        }

        // Agreement between independent replicas on every shared slot.
        let a: std::collections::HashMap<u64, inc::net::Bytes> =
            replies[0].iter().cloned().collect();
        for (slot, value) in &replies[1] {
            if let Some(va) = a.get(slot) {
                prop_assert_eq!(va, value, "replicas disagree on slot {}", slot);
            }
        }
        for (replica, seen) in replicas.iter().zip(&replies) {
            // Every executed value is one of the sent commands (validity).
            for (_, value) in seen {
                let s = String::from_utf8_lossy(&value[ClientCommand::HEADER_LEN..]);
                prop_assert!(s.starts_with("cmd-"), "fabricated value {:?}", s);
            }
            // In-order execution, every executed slot answered.
            for (i, (slot, _)) in seen.iter().enumerate() {
                prop_assert_eq!(*slot, i as u64 + 1);
            }
            prop_assert_eq!(replica.executed_count, seen.len() as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The §9.2 deployment on the `multi` roles: clients send unnumbered
    /// requests (a retry repeats a `(client, seq)`) to the leader service,
    /// which the coordinator steers to leader 0 and, at a random step, to
    /// leader 1; only the steered leader receives and ticks. Two replicas
    /// report their `slot_out`. Each step delivers, drops or duplicates
    /// a message picked at random from everything in flight, submits a
    /// request, ticks the leader or sends a slot report. After every
    /// step: no slot runs two values, the replicas' replies agree on
    /// their common prefix, no `(client, seq)` runs twice, and every
    /// floor is at most the lowest `slot_out` and nothing is kept or
    /// voted below it. A loss-free drain then brings both replicas to
    /// the same log.
    #[test]
    fn leader_numbering_stays_safe_across_a_leader_shift(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..10, 0u8..6), 1..400),
        shift_at in 0usize..400,
        drop_pct in 0u32..30,
        dup_pct in 0u32..20,
    ) {
        use inc::paxos::multi::{Acceptor, Leader, Replica};
        use inc::paxos::ClientCommand;

        /// Who one copy of a message is for: the leader service (the
        /// leader steered when it arrives), leader `l` itself (a reply),
        /// acceptor `i` or replica `i`. Each copy is dropped, duplicated
        /// and reordered on its own.
        #[derive(Clone, Copy)]
        enum To {
            Service,
            Leader(usize),
            Acceptor(usize),
            Replica(usize),
        }
        /// In flight: the copy's receiver, the message, and the leader
        /// whose exchange it belongs to (where a reply goes).
        type Flight = (To, PaxosMsg, usize);
        fn fan_out(out: Outbox, from: usize) -> Vec<Flight> {
            let mut flights = Vec::new();
            for (dest, msg) in out {
                let to: Vec<To> = match dest {
                    Dest::AllAcceptors => (0..3).map(To::Acceptor).collect(),
                    Dest::AllLearners => vec![To::Replica(0), To::Replica(1), To::Service],
                    Dest::Leader => vec![To::Service],
                    Dest::Reply => vec![To::Leader(from)],
                    Dest::Client(_) => Vec::new(),
                };
                flights.extend(to.into_iter().map(|to| (to, msg.clone(), from)));
            }
            flights
        }

        let mut rng = Rng::new(seed);
        let mut leaders = [Leader::new(0, 3, 2), Leader::new(1, 3, 2)];
        let mut acceptors: Vec<Acceptor> = (0..3).map(Acceptor::new).collect();
        let mut replicas = [Replica::new(0, 3), Replica::new(1, 3)];
        let mut replies: [Vec<(u64, inc::net::Bytes)>; 2] = Default::default();
        let mut steered = 0;
        let mut bag: Vec<Flight> = fan_out(leaders[0].start_scout(), 0);
        let mut next_seq = [0u64; 3];

        let deliver = |(to, msg, from): Flight,
                       steered: usize,
                       leaders: &mut [Leader; 2],
                       acceptors: &mut [Acceptor],
                       replicas: &mut [Replica; 2],
                       replies: &mut [Vec<(u64, inc::net::Bytes)>; 2]|
         -> Vec<Flight> {
            // Every phase-2a and vote is stamped with its sender's floor,
            // and no role acts on a slot below it.
            if matches!(msg.mtype, MsgType::Phase2a | MsgType::Phase2b) && msg.vround == msg.round {
                assert!(msg.instance >= msg.last_voted, "{msg:?} below its floor");
            }
            match to {
                To::Service => fan_out(leaders[steered].handle(&msg), steered),
                To::Leader(l) if l == steered => fan_out(leaders[l].handle(&msg), l),
                To::Leader(_) => Vec::new(),
                To::Acceptor(i) => fan_out(acceptors[i].handle(&msg), from),
                To::Replica(i) => {
                    for (_, reply) in replicas[i].handle(&msg) {
                        replies[i].push((reply.instance, reply.value));
                    }
                    Vec::new()
                }
            }
        };

        let check = |leaders: &[Leader; 2],
                     acceptors: &[Acceptor],
                     replicas: &[Replica; 2],
                     replies: &[Vec<(u64, inc::net::Bytes)>; 2]|
         {
            // Replies agree on their common prefix: one value per slot.
            let common = replies[0].len().min(replies[1].len());
            prop_assert_eq!(&replies[0][..common], &replies[1][..common]);
            for (r, seen) in replicas.iter().zip(replies) {
                prop_assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "replica {} out of order", r.id);
                // Each `(client, seq)` ran at most once: every reply past
                // the first for a command is a counted duplicate.
                let ran: std::collections::BTreeSet<_> = seen
                    .iter()
                    .map(|(_, v)| ClientCommand::header(v))
                    .collect();
                prop_assert_eq!(ran.len() as u64, r.executed_count);
                prop_assert_eq!(r.executed_count + r.duplicates, seen.len() as u64);
            }
            // A floor lags the lowest `slot_out`, never leads it, and
            // nothing below it is kept.
            let lowest = replicas.iter().map(Replica::slot_out).min().unwrap_or(1);
            for l in leaders {
                prop_assert!(l.floor() <= lowest, "leader {} floor {} past {}", l.id, l.floor(), lowest);
            }
            for a in acceptors {
                prop_assert!(a.floor() <= lowest, "acceptor {} floor {} past {}", a.id, a.floor(), lowest);
                prop_assert!(a.accepted(a.floor() - 1).is_none());
            }
        };

        for (step, &(kind, x)) in ops.iter().enumerate() {
            if step == shift_at {
                steered = 1;
                bag.extend(fan_out(leaders[1].start_scout(), 1));
            }
            match kind {
                0..=4 if !bag.is_empty() => {
                    let flight = bag.swap_remove(rng.index(bag.len()));
                    if rng.chance(drop_pct as f64 / 100.0) {
                        continue;
                    }
                    if rng.chance(dup_pct as f64 / 100.0) {
                        bag.push(flight.clone());
                    }
                    let out = deliver(flight, steered, &mut leaders, &mut acceptors, &mut replicas, &mut replies);
                    bag.extend(out);
                }
                5 | 6 => {
                    // A new command, or (x odd) a retry of the last one.
                    let client = usize::from(x % 3);
                    let retry = x >= 3 && next_seq[client] > 0;
                    let seq = next_seq[client] - u64::from(retry);
                    next_seq[client] = seq + 1;
                    let value = ClientCommand { client: client as u32, seq, payload: vec![x; 16] }.encode();
                    bag.push((To::Service, PaxosMsg::new(MsgType::ClientRequest, 0, 0, value), steered));
                }
                7 => bag.extend(fan_out(leaders[steered].tick(), steered)),
                8 | 9 => {
                    let (_, report) = replicas[usize::from(x % 2)].report();
                    bag.push((To::Service, report, steered));
                }
                _ => {}
            }
            check(&leaders, &acceptors, &replicas, &replies);
        }

        // Drain without loss: the steered leader ticks, the replicas
        // report, until both stand at the same slot with nothing in flight.
        for _ in 0..200 {
            for flight in std::mem::take(&mut bag) {
                let out = deliver(flight, steered, &mut leaders, &mut acceptors, &mut replicas, &mut replies);
                bag.extend(out);
            }
            if bag.is_empty() && replicas[0].slot_out() == replicas[1].slot_out() && leaders[steered].is_active() {
                break;
            }
            bag.extend(fan_out(leaders[steered].tick(), steered));
            for r in &replicas {
                bag.push((To::Service, r.report().1, steered));
            }
        }
        check(&leaders, &acceptors, &replicas, &replies);
        prop_assert_eq!(replicas[0].slot_out(), replicas[1].slot_out());
        prop_assert_eq!(replicas[0].log_digest(), replicas[1].log_digest());
    }
}

// --- Capacity ledger and fleet-scheduler invariants. ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `fits` and `admit` are implemented on one combine rule, so they
    /// must agree exactly: on a fresh slot, `fits(r)` ⟺ `admit(slot, r)`
    /// succeeds — for arbitrary budgets (including zero-sized dimensions)
    /// and arbitrary pre-existing residents.
    #[test]
    fn capacity_fits_iff_admit_succeeds(
        b_stages in 0u32..24,
        b_sram_mb in 0u64..64,
        b_parse in 0u32..256,
        residents in proptest::collection::vec((1u32..10, 1u64..32, 32u32..200), 0..4),
        r_stages in 0u32..12,
        r_sram_mb in 0u64..48,
        r_parse in 0u32..256,
    ) {
        use inc::hw::{DeviceCapacity, PipelineBudget, ProgramResources};
        let mut cap = DeviceCapacity::new(PipelineBudget {
            stages: b_stages,
            sram_bytes: b_sram_mb << 20,
            parse_depth_bytes: b_parse,
        });
        for (i, &(s, m, p)) in residents.iter().enumerate() {
            // Whatever fails to fit is simply not admitted; the ledger
            // stays consistent either way.
            let _ = cap.admit(i as u64, ProgramResources {
                stages: s,
                sram_bytes: m << 20,
                parse_depth_bytes: p,
            });
        }
        let extra = ProgramResources {
            stages: r_stages,
            sram_bytes: r_sram_mb << 20,
            parse_depth_bytes: r_parse,
        };
        let fits = cap.fits(&extra);
        let admitted = cap.clone().admit(99, extra).is_ok();
        prop_assert_eq!(fits, admitted, "fits {} vs admit {}", fits, admitted);
        // And the cost/occupancy conventions agree on degenerate budgets:
        // infinite cost ⇒ can never fit (unless the demand is zero too).
        if cap.cost_units(&extra) == f64::INFINITY {
            prop_assert!(!fits);
        }
    }

    /// The fabric's flat ledgers and dense residency index keep the map
    /// ledger's semantics: a model with one `BTreeMap` per device and a
    /// slot map replays random admits in place, moves, failing admits
    /// (re-admits included, and demands whose sums overflow), releases,
    /// clears and liveness flips over 2–6 devices of mixed budgets, and
    /// after every operation each slot's residency, each device's `used`
    /// and `fits` verdict, each slot's dominant-share bits and the
    /// operation's own `Ok` / `Err` text must agree.
    #[test]
    fn fabric_ledger_matches_the_map_model(
        budgets in proptest::collection::vec((4u32..16, 16u64..64, 64u32..256), 2..7),
        ops in proptest::collection::vec(
            (0u8..16, 0u8..6, 0u64..24, 0u32..8, 0u64..32, 0u32..256, any::<bool>()),
            1..60,
        ),
        probe in (0u32..10, 0u64..40, 0u32..256),
    ) {
        use std::collections::BTreeMap;
        use inc::hw::{DeviceFabric, DeviceId, PipelineBudget, ProgramResources, Topology};

        /// The map ledger's combine rule over its residents, with sums
        /// clamped the way a saturating add clamps them.
        fn fold<'a>(rs: impl Iterator<Item = &'a ProgramResources>) -> ProgramResources {
            let (mut stages, mut sram, mut parse) = (0u64, 0u128, 0u32);
            for r in rs {
                stages += u64::from(r.stages);
                sram += u128::from(r.sram_bytes);
                parse = parse.max(r.parse_depth_bytes);
            }
            ProgramResources {
                stages: stages.min(u64::from(u32::MAX)) as u32,
                sram_bytes: sram.min(u128::from(u64::MAX)) as u64,
                parse_depth_bytes: parse,
            }
        }
        fn frac(amount: u64, budget: u64) -> f64 {
            match (amount, budget) {
                (0, 0) => 0.0,
                (_, 0) => f64::INFINITY,
                (a, b) => a as f64 / b as f64,
            }
        }

        let budgets: Vec<PipelineBudget> = budgets
            .iter()
            .map(|&(s, m, p)| PipelineBudget { stages: s, sram_bytes: m << 20, parse_depth_bytes: p })
            .collect();
        let n = budgets.len();
        let mut fabric = DeviceFabric::new(budgets.clone(), Topology::single(n));
        let mut ledgers: Vec<BTreeMap<u64, ProgramResources>> = vec![BTreeMap::new(); n];
        let mut seat: BTreeMap<u64, usize> = BTreeMap::new();
        let mut online = vec![true; n];
        let probe = ProgramResources {
            stages: probe.0,
            sram_bytes: probe.1 << 20,
            parse_depth_bytes: probe.2,
        };

        for (step, &(kind, dev, slot, stages, sram_mb, parse, flag)) in ops.iter().enumerate() {
            let dev = dev as usize % n;
            let mut demand = ProgramResources {
                stages,
                sram_bytes: sram_mb << 20,
                parse_depth_bytes: parse,
            };
            match kind {
                // Admit: 0–4 in place (on the slot's own device when it
                // has one), 5–8 anywhere (a move when seated elsewhere),
                // 9 a demand no device holds, 10 one whose sum overflows.
                0..=10 => {
                    let at = match kind {
                        0..=4 => seat.get(&slot).copied().unwrap_or(dev),
                        _ => dev,
                    };
                    if kind == 9 {
                        demand.stages += 16;
                    } else if kind == 10 {
                        if flag {
                            demand.stages = u32::MAX - stages;
                        } else {
                            demand.sram_bytes = u64::MAX - (sram_mb << 20);
                        }
                    }
                    let got = fabric
                        .admit(DeviceId(at as u16), slot, demand)
                        .map_err(|e| e.to_string());
                    let want = if !online[at] {
                        Err(format!("program does not fit target: device {at} is offline"))
                    } else {
                        let previous = ledgers[at].remove(&slot);
                        let others = fold(ledgers[at].values());
                        let total = fold([others, demand].iter());
                        match budgets[at].admit(&total) {
                            Ok(()) => {
                                ledgers[at].insert(slot, demand);
                                if let Some(prev) = seat.insert(slot, at) {
                                    if prev != at {
                                        ledgers[prev].remove(&slot);
                                    }
                                }
                                Ok(())
                            }
                            Err(e) => {
                                if let Some(p) = previous {
                                    ledgers[at].insert(slot, p);
                                }
                                Err(format!(
                                    "{e} ({} stages / {} B SRAM held by other apps)",
                                    others.stages, others.sram_bytes
                                )
                                .replacen("target: ", &format!("target: app {slot}: "), 1))
                            }
                        }
                    };
                    prop_assert_eq!(got, want, "step {}", step);
                }
                11..=13 => {
                    let want = seat.remove(&slot).is_some_and(|d| ledgers[d].remove(&slot).is_some());
                    prop_assert_eq!(fabric.release(slot), want, "step {}", step);
                }
                14 => {
                    fabric.clear();
                    ledgers.iter_mut().for_each(BTreeMap::clear);
                    seat.clear();
                }
                _ => {
                    fabric.set_online(DeviceId(dev as u16), flag);
                    online[dev] = flag;
                }
            }
            for s in 0..24 {
                let at = seat.get(&s).copied();
                prop_assert_eq!(fabric.residency(s), at.map(|d| DeviceId(d as u16)), "step {} slot {}", step, s);
                let share = at.map_or(0.0, |d| {
                    let (r, b) = (ledgers[d][&s], budgets[d]);
                    frac(u64::from(r.stages), u64::from(b.stages)).max(frac(r.sram_bytes, b.sram_bytes))
                });
                prop_assert_eq!(fabric.dominant_share(s).to_bits(), share.to_bits(), "step {} slot {}", step, s);
            }
            for d in 0..n {
                let ledger = fabric.device(DeviceId(d as u16));
                let used = fold(ledgers[d].values());
                prop_assert_eq!(ledger.used(), used, "step {} device {}", step, d);
                prop_assert_eq!(
                    ledger.fits(&probe),
                    budgets[d].fits(&fold([used, probe].iter())),
                    "step {} device {}", step, d
                );
            }
        }
    }

    /// Admission control is exact: a tenant is rejected up front *iff*
    /// its demand fits no device in the fabric even when empty — for
    /// arbitrary heterogeneous budgets and arbitrary demands, including
    /// degenerate zero-sized dimensions.
    #[test]
    fn admission_reject_iff_demand_unfit_on_every_device(
        budgets in proptest::collection::vec(
            (0u32..16, 0u64..64, 32u32..256), 1..4),
        d_stages in 0u32..20,
        d_sram_mb in 0u64..80,
        d_parse in 32u32..300,
    ) {
        use inc::hw::{DeviceFabric, PipelineBudget, ProgramResources, TierCost, Topology};
        use inc::ondemand::{AdmissionDecision, FleetApp, FleetController,
                            FleetControllerConfig, PlacementAnalysis};
        use inc::power::EnergyParams;
        use inc::sim::Nanos;

        let budgets: Vec<PipelineBudget> = budgets
            .iter()
            .map(|&(s, m, p)| PipelineBudget {
                stages: s,
                sram_bytes: m << 20,
                parse_depth_bytes: p,
            })
            .collect();
        let demand = ProgramResources {
            stages: d_stages,
            sram_bytes: d_sram_mb << 20,
            parse_depth_bytes: d_parse,
        };
        let unfit_everywhere = budgets.iter().all(|b| b.admit(&demand).is_err());
        let analysis = PlacementAnalysis {
            software: EnergyParams {
                idle_w: 50.0, sleep_w: 0.0, active_w: 90.0, peak_rate_pps: 1e6,
            },
            network: EnergyParams {
                idle_w: 52.0, sleep_w: 0.0, active_w: 52.1, peak_rate_pps: 1e7,
            },
        };
        let n_devices = budgets.len();
        let fabric = DeviceFabric::new(
            budgets,
            Topology::fat_tree(
                1,
                n_devices,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        );
        let ctl = FleetController::new(
            FleetControllerConfig::standard(Nanos::from_millis(100)),
            fabric,
            vec![FleetApp {
                name: "probe".into(),
                demand,
                analysis,
                home: inc::hw::DeviceId(0),
                weight: 1.0,
            }],
        );
        prop_assert_eq!(
            ctl.explain(0).admission == AdmissionDecision::Reject,
            unfit_everywhere
        );
    }

    /// Fleet-scheduler invariants under random sample streams, over a
    /// two-ToR fabric with the rig's capacity shape: (1) the placement
    /// vector never oversubscribes any device's budget; (2) no program
    /// enters a device — first offload *or* cross-ToR move — without its
    /// benefit having cleared the floor for the full sustain window
    /// since its last placement change.
    #[test]
    fn fleet_controller_budget_and_sustain_invariants(
        rates in proptest::collection::vec(
            (0u32..300_000, 0u32..300_000, 0u32..40_000), 8..60),
    ) {
        use inc::hw::{DeviceCapacity, DeviceFabric, DeviceId, PipelineBudget,
                      ProgramResources, TierCost, Topology};
        use inc::ondemand::{FleetApp, FleetController, FleetControllerConfig,
                            FleetSample, HostSample, Placement, PlacementAnalysis};
        use inc::power::EnergyParams;

        let analysis = |slope_per_kpps: f64| PlacementAnalysis {
            software: EnergyParams {
                idle_w: 50.0,
                sleep_w: 0.0,
                active_w: 50.0 + slope_per_kpps * 1_000.0,
                peak_rate_pps: 1_000_000.0,
            },
            network: EnergyParams {
                idle_w: 52.0,
                sleep_w: 0.0,
                active_w: 52.1,
                peak_rate_pps: 10_000_000.0,
            },
        };
        let app = |name: &str, stages: u32, sram_mb: u64, slope: f64, home: u16| FleetApp {
            name: name.into(),
            demand: ProgramResources {
                stages,
                sram_bytes: sram_mb << 20,
                parse_depth_bytes: 64,
            },
            analysis: analysis(slope),
            home: DeviceId(home),
            weight: 1.0,
        };
        // The rig's shape: two big programs homed on ToR 0, one on ToR 1.
        let apps = vec![
            app("kvs", 7, 40, 0.08, 0),
            app("dns", 6, 20, 0.10, 1),
            app("pax", 6, 4, 0.30, 0),
        ];
        let config = FleetControllerConfig::standard(Nanos::from_millis(100));
        let fabric = DeviceFabric::homogeneous(
            2,
            PipelineBudget::tofino_like(),
            Topology::rack_pairs(
                1,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        );
        let mut ctl = FleetController::new(config, fabric, apps.clone());

        // Oracle state: consecutive profitable samples per app since its
        // last placement change (mirrors the controller's up-streak).
        let mut hot = [0u32; 3];
        let mut placements = [Placement::Software; 3];
        for (step, &(r0, r1, r2)) in rates.iter().enumerate() {
            let rs = [r0 as f64, r1 as f64, r2 as f64];
            // Consistent feedback: the device measures what is offered.
            let samples: Vec<FleetSample> = rs
                .iter()
                .map(|&r| FleetSample {
                    host: HostSample {
                        rapl_w: 50.0,
                        app_cpu_util: 0.2,
                        hw_app_rate: r,
                    },
                    offered_pps: r,
                })
                .collect();
            for i in 0..3 {
                if ctl.price(i, DeviceId::LOCAL, rs[i]).raw_w >= ctl.config().min_benefit_w {
                    hot[i] += 1;
                } else {
                    hot[i] = 0;
                }
            }
            let now = Nanos::from_millis(100 * (step as u64 + 1));
            let decisions = ctl.sample(now, &samples);
            for &(i, to) in &decisions {
                if let Placement::Device(_) = to {
                    // Invariant 2: entering a device (from software or
                    // from another device) requires the full window.
                    prop_assert!(
                        hot[i] >= ctl.config().sustain_samples,
                        "step {}: app {} entered {:?} with streak {}",
                        step, i, to, hot[i]
                    );
                }
                placements[i] = to;
                hot[i] = 0;
            }
            prop_assert_eq!(&placements[..], ctl.placements());
            // Invariant 1: replay the placement vector into fresh
            // ledgers — every admission must succeed.
            for dev in [DeviceId(0), DeviceId(1)] {
                let mut ledger = DeviceCapacity::new(PipelineBudget::tofino_like());
                for i in 0..3 {
                    if placements[i] == Placement::Device(dev) {
                        prop_assert!(
                            ledger.admit(i as u64, apps[i].demand).is_ok(),
                            "step {}: {:?} oversubscribed", step, dev
                        );
                    }
                }
            }
        }
    }

    /// Weighted-DRF fairness and admission invariants under random rate
    /// streams, over a two-ToR fabric with four tenants (three
    /// satisfiable with random weights, one unsatisfiable driven hot
    /// forever):
    ///
    /// 1. the rejected tenant never shifts, never queues, and stays
    ///    `Reject` — admission control, not attrition;
    /// 2. budgets are never oversubscribed, fairness clips included;
    /// 3. device entries still require the full sustain window — claims
    ///    obey the same hysteresis as benefit decisions;
    /// 4. *fairness liveness*: no tenant stays starved past its weighted
    ///    starvation window while an over-entitled incumbent holds a
    ///    device the claimant could take — whenever a claim stays
    ///    pending, removing every clippable (over-entitled) incumbent
    ///    from each profitable device still must not fit the claimant.
    #[test]
    fn fleet_fairness_and_admission_invariants(
        rates in proptest::collection::vec(
            (0u32..300_000, 0u32..300_000, 0u32..40_000), 8..80),
        w_kvs in 1u32..4,
        w_pax in 1u32..4,
    ) {
        use inc::hw::{DeviceCapacity, DeviceFabric, DeviceId, PipelineBudget,
                      ProgramResources, TierCost, Topology};
        use inc::ondemand::{AdmissionDecision, FleetApp, FleetController,
                            FleetControllerConfig, FleetSample, HostSample, Placement,
                            PlacementAnalysis, ShiftReason};
        use inc::power::EnergyParams;

        let analysis = |slope_per_kpps: f64| PlacementAnalysis {
            software: EnergyParams {
                idle_w: 50.0,
                sleep_w: 0.0,
                active_w: 50.0 + slope_per_kpps * 1_000.0,
                peak_rate_pps: 1_000_000.0,
            },
            network: EnergyParams {
                idle_w: 52.0,
                sleep_w: 0.0,
                active_w: 52.1,
                peak_rate_pps: 10_000_000.0,
            },
        };
        let app = |name: &str, stages: u32, sram_mb: u64, slope: f64, home: u16,
                   weight: f64| FleetApp {
            name: name.into(),
            demand: ProgramResources {
                stages,
                sram_bytes: sram_mb << 20,
                parse_depth_bytes: 64,
            },
            analysis: analysis(slope),
            home: DeviceId(home),
            weight,
        };
        const BULK: usize = 3;
        let apps = vec![
            app("kvs", 7, 40, 0.08, 0, f64::from(w_kvs)),
            app("dns", 7, 24, 0.10, 1, 1.0),
            app("pax", 6, 4, 0.30, 0, f64::from(w_pax)),
            app("bulk", 14, 60, 0.12, 0, 1.0), // unfit on every device
        ];
        let config = FleetControllerConfig {
            starvation_window: 6,
            ..FleetControllerConfig::standard(Nanos::from_millis(100))
        };
        let fabric = DeviceFabric::homogeneous(
            2,
            PipelineBudget::tofino_like(),
            Topology::rack_pairs(
                1,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        );
        let mut ctl = FleetController::new(config, fabric, apps.clone());
        prop_assert_eq!(ctl.explain(BULK).admission, AdmissionDecision::Reject);

        // Oracle: consecutive profitable samples per app since its last
        // placement change.
        let mut hot = [0u32; 4];
        for (step, &(r0, r1, r2)) in rates.iter().enumerate() {
            let rs = [r0 as f64, r1 as f64, r2 as f64, 200_000.0];
            let samples: Vec<FleetSample> = rs
                .iter()
                .map(|&r| FleetSample {
                    host: HostSample {
                        rapl_w: 50.0,
                        app_cpu_util: 0.2,
                        hw_app_rate: r,
                    },
                    offered_pps: r,
                })
                .collect();
            for i in 0..4 {
                if ctl.price(i, DeviceId::LOCAL, rs[i]).raw_w >= ctl.config().min_benefit_w {
                    hot[i] += 1;
                } else {
                    hot[i] = 0;
                }
            }
            let now = Nanos::from_millis(100 * (step as u64 + 1));
            let decisions = ctl.sample(now, &samples);
            prop_assert_eq!(ctl.check_indexes(), Ok(()), "step {}", step);
            for &(i, to) in &decisions {
                if to.is_offloaded() {
                    // Invariant 3: entries — benefit, admission *and*
                    // fairness claims — obey the sustain window.
                    prop_assert!(
                        hot[i] >= ctl.config().sustain_samples,
                        "step {}: app {} entered {:?} with streak {}",
                        step, i, to, hot[i]
                    );
                }
                hot[i] = 0;
            }

            let rec: Vec<_> = (0..4).map(|i| ctl.explain(i)).collect();
            // Invariant 1: the unsatisfiable tenant is rejected, inert,
            // and costs nothing.
            prop_assert_eq!(rec[BULK].admission, AdmissionDecision::Reject);
            prop_assert_eq!(ctl.placements()[BULK], Placement::Software);
            prop_assert_eq!(rec[BULK].queued_intervals, 0);
            prop_assert!(ctl.shifts().iter().all(|s| s.app != BULK));

            // Invariant 2: budget replay, fairness clips included.
            for dev in [DeviceId(0), DeviceId(1)] {
                let mut ledger = DeviceCapacity::new(PipelineBudget::tofino_like());
                for (i, app) in apps.iter().enumerate() {
                    if ctl.placements()[i] == Placement::Device(dev) {
                        prop_assert!(
                            ledger.admit(i as u64, app.demand).is_ok(),
                            "step {}: {:?} oversubscribed", step, dev
                        );
                    }
                }
            }

            // Invariant 4: fairness liveness. A still-pending claim
            // (streak beyond window + 1: the claim has definitely been
            // evaluated and failed this sample) implies that on every
            // device where the claimant's haircut benefit clears the
            // floor, the incumbents fairness may NOT clip — those within
            // their entitlement, or placed by a claim this very sample —
            // already block it on their own.
            //
            // The contender set is reconstructed conservatively (a
            // tenant that stopped being eligible this sample is
            // dropped), which can only shrink the clippable set — the
            // check never flags a clip the controller could not see.
            let contending: Vec<bool> = (0..4)
                .map(|j| ctl.placements()[j].is_offloaded() || rec[j].starved_streak >= 2)
                .collect();
            for i in 0..3 {
                if rec[i].starved_streak <= rec[i].starvation_threshold + 1 {
                    continue;
                }
                let total_w: f64 = (0..4)
                    .filter(|&j| j == i || contending[j])
                    .map(|j| apps[j].weight)
                    .sum();
                for dev in [DeviceId(0), DeviceId(1)] {
                    let eff = ctl.price(i, dev, rs[i]).value;
                    if eff < ctl.config().min_benefit_w {
                        continue;
                    }
                    let mut ledger = DeviceCapacity::new(PipelineBudget::tofino_like());
                    for (j, app) in apps.iter().enumerate() {
                        if ctl.placements()[j] != Placement::Device(dev) {
                            continue;
                        }
                        let share = rec[j].dominant_share;
                        let fair_placed_now = ctl.shifts().iter().any(|s| {
                            s.app == j && s.at == now && s.reason == ShiftReason::FairShare
                        });
                        if share <= app.weight / total_w || fair_placed_now {
                            ledger.admit(j as u64, app.demand).unwrap();
                        }
                    }
                    prop_assert!(
                        !ledger.fits(&apps[i].demand),
                        "step {}: app {} starved {} samples past its window \
                         while {:?} had clippable room",
                        step, i, rec[i].starved_streak, dev
                    );
                }
            }
        }
    }
}

// --- Topology-aware placement invariants. ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Locality monotonicity: over a uniform-budget pod fabric whose
    /// near tier is strictly cheaper than its far tier, a program that
    /// enters a device never lands strictly farther from its home than
    /// an equally-feasible nearer device — after every decision pass,
    /// no nearer device could still admit the program that went far.
    /// (Benefit-only scheduling; fairness clips free room mid-pass and
    /// are covered by their own invariants.)
    #[test]
    fn spills_never_land_strictly_farther_than_a_feasible_nearer_device(
        rates in proptest::collection::vec(
            (0u32..300_000, 0u32..300_000, 0u32..300_000, 0u32..40_000), 8..60),
        inter_factor in 0.55f64..0.80,
        factor_gap in 0.05f64..0.15,
    ) {
        use inc::hw::{DeviceFabric, DeviceId, PipelineBudget, ProgramResources,
                      TierCost, Topology};
        use inc::ondemand::{FleetApp, FleetController, FleetControllerConfig,
                            FleetSample, HostSample, Placement, PlacementAnalysis};
        use inc::power::EnergyParams;
        use inc::sim::Nanos;

        let analysis = |slope_per_kpps: f64| PlacementAnalysis {
            software: EnergyParams {
                idle_w: 50.0,
                sleep_w: 0.0,
                active_w: 50.0 + slope_per_kpps * 1_000.0,
                peak_rate_pps: 1_000_000.0,
            },
            network: EnergyParams {
                idle_w: 52.0,
                sleep_w: 0.0,
                active_w: 52.1,
                peak_rate_pps: 10_000_000.0,
            },
        };
        let app = |name: &str, stages: u32, slope: f64, home: u16| FleetApp {
            name: name.into(),
            demand: ProgramResources {
                stages,
                sram_bytes: 4 << 20,
                parse_depth_bytes: 64,
            },
            analysis: analysis(slope),
            home: DeviceId(home),
            weight: 1.0,
        };
        // 2 pods × 2 ToRs, identical budgets everywhere: only the
        // distance matrix separates remote candidates. Intra strictly
        // cheaper than inter on the benefit axis.
        let intra = TierCost {
            extra_latency: Nanos::from_micros(2),
            benefit_factor: (inter_factor + factor_gap).min(0.95),
            link_energy_nj: 0.0,
        };
        let inter = TierCost {
            extra_latency: Nanos::from_micros(6),
            benefit_factor: inter_factor,
            link_energy_nj: 0.0,
        };
        let topology = Topology::fat_tree(2, 2, intra, inter);
        let fabric = DeviceFabric::homogeneous(4, PipelineBudget::tofino_like(), topology);
        // Two big programs contending for the pod-0 anchor, one tenant
        // homed in pod 1, one small floater: spills happen constantly.
        let apps = vec![
            app("anchor", 7, 0.12, 0),
            app("spiller", 7, 0.08, 0),
            app("remote", 7, 0.10, 2),
            app("floater", 6, 0.30, 1),
        ];
        let config = FleetControllerConfig {
            starvation_window: u32::MAX, // benefit-only
            ..FleetControllerConfig::standard(Nanos::from_millis(100))
        };
        let mut ctl = FleetController::new(config, fabric, apps.clone());

        for (step, &(r0, r1, r2, r3)) in rates.iter().enumerate() {
            let rs = [r0 as f64, r1 as f64, r2 as f64, r3 as f64];
            let samples: Vec<FleetSample> = rs
                .iter()
                .map(|&r| FleetSample {
                    host: HostSample {
                        rapl_w: 50.0,
                        app_cpu_util: 0.2,
                        hw_app_rate: r,
                    },
                    offered_pps: r,
                })
                .collect();
            let now = Nanos::from_millis(100 * (step as u64 + 1));
            let decisions = ctl.sample(now, &samples);
            for &(i, to) in &decisions {
                let Placement::Device(d) = to else { continue };
                let home = apps[i].home;
                let dist = ctl.fabric().distance(home, d);
                for nearer in ctl.fabric().device_ids() {
                    if ctl.fabric().distance(home, nearer) < dist {
                        prop_assert!(
                            !ctl.fabric().device(nearer).fits(&apps[i].demand),
                            "step {}: app {} landed on {} (distance {}) while nearer {} \
                             (distance {}) still had room",
                            step, i, d, dist, nearer, ctl.fabric().distance(home, nearer)
                        );
                    }
                }
            }
        }
    }

    /// Min-cost hand-over optimality: against any reachable assignment,
    /// the plan a min-cost claim executes never costs more than the plan
    /// the old best-score policy would have picked — and with migration
    /// pricing disabled the cost *is* the clipped incumbent benefit, so
    /// min-cost claims never clip more total benefit than best-score
    /// claims would have on the same state.
    #[test]
    fn min_cost_claims_never_clip_more_benefit_than_best_score(
        occupancy in proptest::collection::vec((0u16..4, 4u32..9, 2u64..24), 1..6),
        rates in proptest::collection::vec(1_000u32..300_000, 7),
        claimant_stages in 4u32..9,
        claimant_sram_mb in 2u64..24,
    ) {
        use inc::hw::{DeviceFabric, DeviceId, PipelineBudget, ProgramResources,
                      TierCost, Topology};
        use inc::ondemand::{FleetApp, FleetController, FleetControllerConfig,
                            FleetSample, HostSample, Placement, PlacementAnalysis};
        use inc::power::EnergyParams;
        use inc::sim::Nanos;

        let analysis = |slope_per_kpps: f64| PlacementAnalysis {
            software: EnergyParams {
                idle_w: 50.0,
                sleep_w: 0.0,
                active_w: 50.0 + slope_per_kpps * 1_000.0,
                peak_rate_pps: 1_000_000.0,
            },
            network: EnergyParams {
                idle_w: 52.0,
                sleep_w: 0.0,
                active_w: 52.1,
                peak_rate_pps: 10_000_000.0,
            },
        };
        // Claimant first, then up to five incumbents with arbitrary
        // demands, homed where they (try to) sit.
        let mut apps = vec![FleetApp {
            name: "claimant".into(),
            demand: ProgramResources {
                stages: claimant_stages,
                sram_bytes: claimant_sram_mb << 20,
                parse_depth_bytes: 64,
            },
            analysis: analysis(0.30),
            home: DeviceId(0),
            weight: 1.0,
        }];
        let mut placements = vec![Placement::Software];
        let mut scratch = DeviceFabric::homogeneous(
            4,
            PipelineBudget::tofino_like(),
            Topology::fat_tree(
                2,
                2,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        );
        for (i, &(dev, stages, sram_mb)) in occupancy.iter().enumerate() {
            let demand = ProgramResources {
                stages,
                sram_bytes: sram_mb << 20,
                parse_depth_bytes: 64,
            };
            let slot = apps.len() as u64;
            let placed = scratch.admit(DeviceId(dev), slot, demand).is_ok();
            apps.push(FleetApp {
                name: format!("incumbent-{i}"),
                demand,
                analysis: analysis(0.05 + 0.03 * i as f64),
                home: DeviceId(dev),
                weight: 1.0,
            });
            placements.push(if placed {
                Placement::Device(DeviceId(dev))
            } else {
                Placement::Software
            });
        }
        // Migration pricing off: a plan's total cost IS its clipped
        // incumbent benefit (the exact property under test).
        let config = FleetControllerConfig {
            migration_cost_j: 0.0,
            ..FleetControllerConfig::standard(Nanos::from_millis(100))
        };
        let mut ctl = FleetController::new(
            config,
            DeviceFabric::homogeneous(
                4,
                PipelineBudget::tofino_like(),
                Topology::fat_tree(
                    2,
                    2,
                    TierCost::standard_intra_pod(),
                    TierCost::standard_inter_pod(),
                ),
            ),
            apps.clone(),
        )
        .with_initial_placements(&placements);

        let rates: Vec<f64> = rates.iter().take(apps.len()).map(|&r| r as f64)
            .chain(std::iter::repeat(10_000.0))
            .take(apps.len())
            .collect();
        // One sample holds every rate; no streak can move a tenant yet,
        // so the claimant's record plans against the adopted placements.
        let samples: Vec<FleetSample> = rates.iter().map(|&r| FleetSample {
            host: HostSample { rapl_w: 50.0, app_cpu_util: 0.5, hw_app_rate: r },
            offered_pps: r,
        }).collect();
        prop_assert!(ctl.sample(Nanos::from_millis(100), &samples).is_empty());
        prop_assert_eq!(ctl.placements(), &placements[..]);
        let plans = ctl.explain(0).claims;
        if let (Some(min_cost), Some(best_score)) = (
            plans
                .iter()
                .min_by(|a, b| a.total_cost_w().total_cmp(&b.total_cost_w())),
            plans.iter().max_by(|a, b| a.score.total_cmp(&b.score)),
        ) {
            prop_assert!(
                min_cost.total_cost_w() <= best_score.total_cost_w() + 1e-12,
                "min-cost plan {:?} costs more than best-score plan {:?}",
                min_cost, best_score
            );
            prop_assert!(
                min_cost.clipped_benefit_w <= best_score.clipped_benefit_w + 1e-12,
                "min-cost clips {} W, best-score would clip {} W",
                min_cost.clipped_benefit_w, best_score.clipped_benefit_w
            );
            // Every plan's clip set is real: only device-resident
            // incumbents whose dominant share exceeds their entitlement
            // among the contenders (the residents plus the claimant the
            // plan is for) are clipped.
            let total_w: f64 = (0..apps.len())
                .filter(|&k| k == 0 || ctl.placements()[k].is_offloaded())
                .map(|k| apps[k].weight)
                .sum();
            for plan in &plans {
                for &j in &plan.clips {
                    prop_assert_eq!(ctl.placements()[j], Placement::Device(plan.device));
                    prop_assert!(ctl.explain(j).dominant_share > apps[j].weight / total_w - 1e-12);
                }
            }
        }
    }
}

// --- Incremental arbitration equivalence (fleet controller). ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental dirty-queue pipeline and a full re-score of every
    /// pod make bit-identical decisions on the same trace: same shift
    /// sequence (time, app, target, reason, priced rate and benefit),
    /// same placements and, after every tick, the same record for every
    /// app but its dirty bit, whatever the dead band — both modes share
    /// the held-rate semantics, so skipping clean pods and cold tenants
    /// must never change an outcome, only the work done. The records are
    /// faithful: every bid scores exactly what `price` says at the held
    /// rate, and a third controller that is never asked to explain
    /// itself logs the same shifts bit for bit. Each step may also pull
    /// one operator lever (a device dies or revives, the offload floor
    /// doubles or halves, a device's state is restated, which raises a
    /// capacity event alone, one meter reports a hostile rate), and the fleet is
    /// 5 tenants on 2 pods or 70 on 4 — the second so the warm set spans
    /// two words. Two or three tenants' rates move per step and tenant
    /// `i`'s is scaled down by `1 + i % 8`, so quiet ticks, clean pods
    /// and tenants that never clear the floor are all in the mix.
    #[test]
    fn incremental_arbitration_equals_full_rescore(
        rates in proptest::collection::vec(
            proptest::collection::vec(0u32..300_000, 70), 8..40),
        levers in proptest::collection::vec((0u8..12, 0u16..8, 0usize..70), 40),
        slopes in proptest::collection::vec(0.02f64..0.2, 70),
        stages in proptest::collection::vec(4u32..9, 70),
        homes in proptest::collection::vec(0u16..8, 70),
        deadband in 0.0f64..0.3,
        big in any::<bool>(),
    ) {
        use inc::hw::{DeviceFabric, DeviceId, PipelineBudget, ProgramResources,
                      TierCost, Topology};
        use inc::ondemand::{AppRecord, ArbitrationMode, FleetApp, FleetController,
                            FleetControllerConfig, FleetSample, HostSample,
                            PlacementAnalysis};
        use inc::power::EnergyParams;
        use inc::sim::Nanos;

        /// Rates no meter can truthfully report.
        const HOSTILE_RATES: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0];
        let (n, devices, hold) = if big { (70, 8, 24) } else { (5, 4, 3) };
        let analysis = |slope_per_kpps: f64| PlacementAnalysis {
            software: EnergyParams {
                idle_w: 50.0,
                sleep_w: 0.0,
                active_w: 50.0 + slope_per_kpps * 1_000.0,
                peak_rate_pps: 1_000_000.0,
            },
            network: EnergyParams {
                idle_w: 52.0,
                sleep_w: 0.0,
                active_w: 52.1,
                peak_rate_pps: 10_000_000.0,
            },
        };
        // Pods of 2 ToRs: small enough to converge quickly, large
        // enough that pod arbiters and the coordinator both have work
        // (spills, cross-pod moves, fairness claims).
        let fabric = || DeviceFabric::homogeneous(
            usize::from(devices),
            PipelineBudget::tofino_like(),
            Topology::fat_tree(
                usize::from(devices) / 2, 2,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        );
        let apps: Vec<FleetApp> = (0..n).map(|i| FleetApp {
            name: format!("app{i}"),
            demand: ProgramResources {
                stages: stages[i],
                sram_bytes: 4 << 20,
                parse_depth_bytes: 64,
            },
            analysis: analysis(slopes[i]),
            home: DeviceId(homes[i] % devices),
            weight: 1.0,
        }).collect();
        let build = |mode| FleetController::new(
            FleetControllerConfig {
                mode,
                rate_deadband: deadband,
                ..FleetControllerConfig::standard(Nanos::from_secs(1))
            },
            fabric(),
            apps.clone(),
        );
        let mut full = build(ArbitrationMode::FullRescore);
        let mut inc = build(ArbitrationMode::Incremental);
        let mut quiet = build(ArbitrationMode::Incremental);
        let mut rs = vec![0.0f64; n];
        for (step, r) in rates.iter().enumerate() {
            for (i, (held, &x)) in rs.iter_mut().zip(r).enumerate() {
                if step == 0 || x % hold == 0 {
                    *held = f64::from(x) / (1 + i % 8) as f64;
                }
            }
            let now = Nanos::from_secs(step as u64 + 1);
            let mut samples: Vec<FleetSample> = rs.iter().map(|&r| FleetSample {
                host: HostSample { rapl_w: 50.0, app_cpu_util: 0.5, hw_app_rate: r },
                offered_pps: r,
            }).collect();
            let (lever, dev, app) = levers[step];
            let device = DeviceId(dev % devices);
            if lever == 5 {
                let hostile = HOSTILE_RATES[usize::from(dev % 4)];
                samples[app % n].offered_pps = hostile;
                samples[app % n].host.hw_app_rate = hostile;
            }
            for ctl in [&mut full, &mut inc, &mut quiet] {
                let floor_w = ctl.config().min_benefit_w;
                match lever {
                    0 => ctl.set_device_online(device, false),
                    1 => ctl.set_device_online(device, true),
                    2 => ctl.set_min_benefit_w((floor_w * 2.0).min(16.0)),
                    3 => ctl.set_min_benefit_w(floor_w / 2.0),
                    4 => ctl.set_device_online(device, ctl.fabric().is_online(device)),
                    _ => {}
                }
            }
            let df = full.sample(now, &samples);
            let di = inc.sample(now, &samples);
            quiet.sample(now, &samples);
            prop_assert_eq!(full.check_indexes(), Ok(()), "full, step {}", step);
            prop_assert_eq!(inc.check_indexes(), Ok(()), "incremental, step {}", step);
            prop_assert_eq!(df, di, "decisions diverged at step {}", step);
            prop_assert_eq!(full.placements(), inc.placements(),
                            "placements diverged at step {}", step);
            // Every record field but `dirty`, the one that tells the
            // modes apart; `{:?}` prints each float exactly.
            for i in 0..n {
                let (f, r) = (full.explain(i), inc.explain(i));
                for b in &r.bids {
                    let priced = inc.price(i, b.device, r.held_rate_pps).score;
                    prop_assert_eq!(b.score.to_bits(), priced.to_bits(),
                                    "app {}'s bid on {:?} at step {}", i, b.device, step);
                }
                prop_assert_eq!(format!("{:?}", AppRecord { dirty: false, ..f }),
                                format!("{:?}", AppRecord { dirty: false, ..r }),
                                "app {}'s record diverged at step {}", i, step);
            }
        }
        for other in [&full, &quiet] {
            prop_assert_eq!(other.shifts().len(), inc.shifts().len());
            for (f, i) in other.shifts().iter().zip(inc.shifts()) {
                prop_assert_eq!(f.at, i.at);
                prop_assert_eq!(f.app, i.app);
                prop_assert_eq!(f.to, i.to);
                prop_assert_eq!(f.reason, i.reason);
                prop_assert_eq!(f.rate_pps.to_bits(), i.rate_pps.to_bits());
                prop_assert_eq!(f.benefit_w.to_bits(), i.benefit_w.to_bits());
            }
        }
        // And the incremental run must actually have been incremental:
        // never more pod solves than the full re-score, the same gates.
        prop_assert!(inc.stats().pods_solved <= full.stats().pods_solved);
        prop_assert!(inc.stats().candidates_scored <= full.stats().candidates_scored);
        prop_assert_eq!(inc.stats().gates_evaluated, full.stats().gates_evaluated);
    }

    /// With a single pod and a zero dead band the arbitration pipeline
    /// degenerates to exactly the flat sorted scan of the reference
    /// `FlatOracle`: the coordinator has no cross-pod candidates and the
    /// pod arbiter's one sorted candidate run is the flat greedy scan, so
    /// engine and oracle must agree bit-for-bit on arbitrary traces. The
    /// pod's 4–6 ToRs draw their budgets from a Tofino-class budget, its
    /// twin that differs only in parse depth (the same capacity cost for
    /// every demand, so the two classes tie) and a smaller one: the
    /// oracle prices every device on its own, so it checks the engine's
    /// per-class prices and its merged walk of tied classes through
    /// moves, stickiness and fairness claims.
    #[test]
    fn single_pod_hierarchy_degenerates_to_flat_oracle(
        rates in proptest::collection::vec(proptest::collection::vec(0u32..300_000, 8), 8..40),
        slopes in proptest::collection::vec(0.02f64..0.2, 8),
        stages in proptest::collection::vec(4u32..9, 8),
        homes in proptest::collection::vec(0u16..6, 8),
        budgets in proptest::collection::vec(0usize..3, 4..7),
    ) {
        use inc::hw::{DeviceFabric, DeviceId, PipelineBudget, ProgramResources,
                      TierCost, Topology};
        use inc::ondemand::fleet::oracle::FlatOracle;
        use inc::ondemand::{AdmissionDecision, FleetApp, FleetController,
                            FleetControllerConfig, FleetSample, HostSample,
                            PlacementAnalysis};
        use inc::power::EnergyParams;
        use inc::sim::Nanos;

        let analysis = |slope_per_kpps: f64| PlacementAnalysis {
            software: EnergyParams {
                idle_w: 50.0,
                sleep_w: 0.0,
                active_w: 50.0 + slope_per_kpps * 1_000.0,
                peak_rate_pps: 1_000_000.0,
            },
            network: EnergyParams {
                idle_w: 52.0,
                sleep_w: 0.0,
                active_w: 52.1,
                peak_rate_pps: 10_000_000.0,
            },
        };
        // One pod: contention, moves and fairness claims all happen, but
        // everything is intra-pod.
        let tofino = PipelineBudget::tofino_like();
        let palette = [
            tofino,
            PipelineBudget { parse_depth_bytes: 256, ..tofino },
            PipelineBudget { stages: 8, sram_bytes: 24 << 20, parse_depth_bytes: 192 },
        ];
        let devices = budgets.len();
        let fabric = || DeviceFabric::new(
            budgets.iter().map(|&b| palette[b]).collect(),
            Topology::fat_tree(
                1,
                devices,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        );
        let apps: Vec<FleetApp> = (0..8).map(|i| FleetApp {
            name: format!("app{i}"),
            demand: ProgramResources {
                stages: stages[i],
                sram_bytes: 4 << 20,
                parse_depth_bytes: 64,
            },
            analysis: analysis(slopes[i]),
            home: DeviceId(homes[i] % devices as u16),
            weight: 1.0,
        }).collect();
        let cfg = FleetControllerConfig::standard(Nanos::from_secs(1));
        let mut flat = FlatOracle::new(cfg, fabric(), apps.clone());
        let mut hier = FleetController::new(cfg, fabric(), apps.clone());
        for (step, r) in rates.iter().enumerate() {
            let now = Nanos::from_secs(step as u64 + 1);
            let samples: Vec<FleetSample> = r.iter().map(|&r| FleetSample {
                host: HostSample { rapl_w: 50.0, app_cpu_util: 0.5, hw_app_rate: f64::from(r) },
                offered_pps: f64::from(r),
            }).collect();
            let df = flat.sample(now, &samples);
            let dh = hier.sample(now, &samples);
            prop_assert_eq!(hier.check_indexes(), Ok(()), "step {}", step);
            prop_assert_eq!(df, dh, "decisions diverged at step {}", step);
            prop_assert_eq!(flat.placements(), hier.placements(),
                            "placements diverged at step {}", step);
            // Admission and starvation agree too: an app is queued
            // exactly while the oracle's streak runs.
            for i in 0..8 {
                let record = hier.explain(i);
                let streak = flat.starved_streak(i);
                prop_assert_eq!(record.starved_streak, streak, "app {} at step {}", i, step);
                let admission = if streak > 0 {
                    AdmissionDecision::Queue
                } else {
                    AdmissionDecision::Admit
                };
                prop_assert_eq!(record.admission, admission, "app {} at step {}", i, step);
            }
        }
        prop_assert_eq!(flat.shifts().len(), hier.shifts().len());
        for (f, h) in flat.shifts().iter().zip(hier.shifts()) {
            prop_assert_eq!(f.at, h.at);
            prop_assert_eq!(f.app, h.app);
            prop_assert_eq!(f.to, h.to);
            prop_assert_eq!(f.reason, h.reason);
            prop_assert_eq!(f.rate_pps.to_bits(), h.rate_pps.to_bits());
            prop_assert_eq!(f.benefit_w.to_bits(), h.benefit_w.to_bits());
        }
    }
}

// --- Streaming telemetry equivalence (measurement plane). ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A streaming (`RowLog::Recent`) timeline and the full row log
    /// answer every full-span query identically — bit for bit for the
    /// energy integral, mean power and mean throughput (both modes fold
    /// rows through the same accumulators in push order), and within the
    /// histogram's 1/32 relative-error bound for the median — on random
    /// interval traces with irregular interval lengths, idle gaps and
    /// arbitrary ring capacities.
    #[test]
    fn streaming_timeline_matches_full_row_log(
        rows in proptest::collection::vec(
            // (interval µs, completed, p50 ns, power mW); an idle gap
            // before each row is derived below so spans are irregular.
            (100u64..5_000, 0u64..100_000, 0u64..2_000_000, 1_000u64..500_000),
            1..300,
        ),
        cap in 1usize..64,
    ) {
        use inc::hw::Placement;
        use inc::ondemand::{RowLog, Timeline, TimelineRow};

        let mut full = Timeline::new(RowLog::Full);
        let mut recent = Timeline::new(RowLog::Recent(cap));
        let mut t = Nanos::ZERO;
        for &(interval_us, completed, p50, power_mw) in &rows {
            let gap_us = (completed ^ p50) % 2_000;
            t += Nanos::from_micros(gap_us + interval_us);
            let interval = Nanos::from_micros(interval_us);
            let row = TimelineRow {
                t,
                interval,
                completed,
                throughput_pps: completed as f64 / interval.as_secs_f64(),
                latency_p50_ns: p50,
                power_w: power_mw as f64 / 1_000.0,
                placement: Placement::Software,
            };
            full.push(row);
            recent.push(row);
        }
        let span_to = t + Nanos::from_nanos(1);

        prop_assert_eq!(full.energy_j().to_bits(), recent.energy_j().to_bits());
        prop_assert_eq!(full.total_rows(), recent.total_rows());
        prop_assert!(recent.retained_rows() <= 2 * cap);
        prop_assert_eq!(
            full.mean_power_w(Nanos::ZERO, span_to).map(f64::to_bits),
            recent.mean_power_w(Nanos::ZERO, span_to).map(f64::to_bits)
        );
        prop_assert_eq!(
            full.mean_throughput_pps(Nanos::ZERO, span_to).map(f64::to_bits),
            recent.mean_throughput_pps(Nanos::ZERO, span_to).map(f64::to_bits)
        );
        // The median is the one full-span query answered differently:
        // the full log reproduces the legacy exact semantics (mean of
        // the two middles for even counts), the streaming mode answers
        // from the latency sketch, whose documented target is the
        // ceil(n/2)-th order statistic within 1/32 relative error.
        let mut p50s: Vec<u64> = rows
            .iter()
            .map(|&(_, _, p50, _)| p50)
            .filter(|&p| p > 0)
            .collect();
        p50s.sort_unstable();
        let exact = full.median_latency_ns(Nanos::ZERO, span_to);
        let sketch = recent.median_latency_ns(Nanos::ZERO, span_to);
        prop_assert_eq!(exact.is_some(), sketch.is_some());
        prop_assert_eq!(exact.is_some(), !p50s.is_empty());
        if let Some(sketch) = sketch {
            let (a, b) = (p50s[(p50s.len() - 1) / 2], p50s[p50s.len() / 2]);
            prop_assert_eq!(
                exact.unwrap(),
                a / 2 + b / 2 + (a % 2 + b % 2).div_ceil(2),
                "full-log median no longer matches the legacy formula"
            );
            prop_assert!(
                sketch >= a && sketch <= a + a / 32 + 1,
                "sketch median {} outside bound of order statistic {}", sketch, a
            );
        }
    }
}

// --- Economic objectives (pricing plane). ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Uniform prices are a unit relabel, not a policy change: pricing
    /// the same trace in joules and in dollars at `$1/J` with no byte
    /// charge must produce bit-identical shift logs and placements —
    /// scoring the
    /// measured rates directly and scoring held rates alike. `1.0 × x`
    /// and `x − 0.0` have to be the *same float* as `x` all the way
    /// through the scoring arithmetic for this to hold.
    #[test]
    fn uniform_prices_degenerate_to_the_joule_schedule(
        rates in proptest::collection::vec(
            proptest::collection::vec(0u32..300_000, 5), 8..30),
        slopes in proptest::collection::vec(0.02f64..0.2, 5),
        stages in proptest::collection::vec(4u32..9, 5),
        homes in proptest::collection::vec(0u16..4, 5),
    ) {
        use inc::hw::{DeviceFabric, DeviceId, PipelineBudget, ProgramResources,
                      TierCost, Topology};
        use inc::ondemand::{FleetApp, FleetController, FleetControllerConfig,
                            FleetSample, HostSample, Objective, PlacementAnalysis};
        use inc::power::{EnergyParams, LinkEnergyModel};
        use inc::sim::Nanos;

        let analysis = |slope_per_kpps: f64| PlacementAnalysis {
            software: EnergyParams {
                idle_w: 50.0,
                sleep_w: 0.0,
                active_w: 50.0 + slope_per_kpps * 1_000.0,
                peak_rate_pps: 1_000_000.0,
            },
            network: EnergyParams {
                idle_w: 52.0,
                sleep_w: 0.0,
                active_w: 52.1,
                peak_rate_pps: 10_000_000.0,
            },
        };
        let link = LinkEnergyModel::arista_class();
        let fabric = || DeviceFabric::homogeneous(
            4,
            PipelineBudget::tofino_like(),
            Topology::fat_tree(
                2, 2,
                TierCost::calibrated_intra_pod(&link),
                TierCost::calibrated_inter_pod(&link),
            ),
        );
        let apps: Vec<FleetApp> = (0..5).map(|i| FleetApp {
            name: format!("app{i}"),
            demand: ProgramResources {
                stages: stages[i],
                sram_bytes: 4 << 20,
                parse_depth_bytes: 64,
            },
            analysis: analysis(slopes[i]),
            home: DeviceId(homes[i]),
            weight: 1.0,
        }).collect();
        let objectives = [
            Objective::Joules,
            Objective::Dollar { per_joule: 1.0, per_gb_moved: 0.0 },
        ];
        let interval = Nanos::from_secs(1);
        // Once on the measured rates themselves, once behind a 5 % hold.
        let build = |rate_deadband: f64| -> Vec<FleetController> {
            objectives.iter().map(|&objective| {
                FleetController::new(
                    FleetControllerConfig {
                        objective,
                        rate_deadband,
                        ..FleetControllerConfig::standard(interval)
                    },
                    fabric(),
                    apps.clone(),
                )
            }).collect()
        };
        let mut exact = build(0.0);
        let mut banded = build(0.05);
        for (step, r) in rates.iter().enumerate() {
            let now = Nanos::from_secs(step as u64 + 1);
            let samples: Vec<FleetSample> = r.iter().map(|&x| {
                let r = f64::from(x);
                FleetSample {
                    host: HostSample { rapl_w: 50.0, app_cpu_util: 0.5, hw_app_rate: r },
                    offered_pps: r,
                }
            }).collect();
            let d0 = exact[0].sample(now, &samples);
            for ctl in &mut exact[1..] {
                prop_assert_eq!(&ctl.sample(now, &samples), &d0,
                                "zero-band decisions diverged at step {}", step);
            }
            let h0 = banded[0].sample(now, &samples);
            for ctl in &mut banded[1..] {
                prop_assert_eq!(&ctl.sample(now, &samples), &h0,
                                "held-rate decisions diverged at step {}", step);
            }
        }
        let check = |a: &[inc::ondemand::FleetShift], b: &[inc::ondemand::FleetShift]| {
            if a.len() != b.len() { return false; }
            a.iter().zip(b).all(|(x, y)| {
                x.at == y.at && x.app == y.app && x.to == y.to && x.reason == y.reason
                    && x.rate_pps.to_bits() == y.rate_pps.to_bits()
                    && x.benefit_w.to_bits() == y.benefit_w.to_bits()
            })
        };
        for ctl in &exact[1..] {
            prop_assert!(check(exact[0].shifts(), ctl.shifts()),
                         "a uniform objective re-priced the zero-band shift log");
            prop_assert_eq!(exact[0].placements(), ctl.placements());
        }
        for ctl in &banded[1..] {
            prop_assert!(check(banded[0].shifts(), ctl.shifts()),
                         "a uniform objective re-priced the held-rate shift log");
            prop_assert_eq!(banded[0].placements(), ctl.placements());
        }
    }

    /// Raising the dollar price of a joule (holding the byte tariff
    /// fixed) never makes the scheduler *drop* an energy-saving
    /// placement: with equal capacity costs across the candidate
    /// devices, the settled joule-valued effective benefit is
    /// non-decreasing along an ascending `per_joule` ladder. (Each
    /// candidate's value is linear in `per_joule` with slope `W_eff −
    /// floor`, so admissibility and the argmax both move toward
    /// higher-benefit placements as joules get more expensive relative
    /// to bytes.)
    #[test]
    fn raising_the_joule_price_never_buys_more_energy(
        slope in 0.05f64..0.2,
        rate in 60_000u32..250_000,
        per_gb in 0.0f64..25.0,
        base in 0.2f64..2.0,
    ) {
        use inc::hw::{DeviceFabric, DeviceId, Placement, PipelineBudget,
                      ProgramResources, TierCost, Topology};
        use inc::ondemand::{FleetApp, FleetController, FleetControllerConfig,
                            FleetSample, HostSample, Objective,
                            PlacementAnalysis};
        use inc::power::{EnergyParams, LinkEnergyModel};
        use inc::sim::Nanos;

        let analysis = PlacementAnalysis {
            software: EnergyParams {
                idle_w: 50.0,
                sleep_w: 0.0,
                active_w: 50.0 + slope * 1_000.0,
                peak_rate_pps: 1_000_000.0,
            },
            network: EnergyParams {
                idle_w: 52.0,
                sleep_w: 0.0,
                active_w: 52.1,
                peak_rate_pps: 10_000_000.0,
            },
        };
        // The probe's home ToR is too small for its program, so every
        // placement is a detour: the near small-haircut device and the
        // two cross-core ones, all with identical budgets (equal
        // capacity costs — the regime where the monotonicity theorem
        // holds).
        let tiny = PipelineBudget { stages: 2, sram_bytes: 4 << 20, parse_depth_bytes: 64 };
        let big = PipelineBudget::tofino_like();
        let link = LinkEnergyModel::arista_class();
        let fabric = || DeviceFabric::new(
            vec![tiny, big, big, big],
            Topology::fat_tree(
                2, 2,
                TierCost::calibrated_intra_pod(&link),
                TierCost::calibrated_inter_pod(&link),
            ),
        );
        let apps = || vec![FleetApp {
            name: "probe".into(),
            demand: ProgramResources { stages: 6, sram_bytes: 8 << 20, parse_depth_bytes: 64 },
            analysis,
            home: DeviceId(0),
            weight: 1.0,
        }];
        let rate = f64::from(rate);
        let sample = FleetSample {
            host: HostSample { rapl_w: 50.0, app_cpu_util: 0.5, hw_app_rate: rate },
            offered_pps: rate,
        };
        // The settled joule-valued delivery of the chosen placement
        // (0 W for software), computed from the public fabric pricing.
        let settled_w = |per_joule: f64| -> f64 {
            let mut ctl = FleetController::new(
                FleetControllerConfig {
                    objective: Objective::Dollar { per_joule, per_gb_moved: per_gb },
                    starvation_window: 1_000_000,
                    ..FleetControllerConfig::standard(Nanos::from_secs(1))
                },
                fabric(),
                apps(),
            );
            for step in 0..12u64 {
                let now = Nanos::from_secs(step + 1);
                ctl.sample(now, std::slice::from_ref(&sample));
            }
            match ctl.placements()[0] {
                Placement::Software => 0.0,
                Placement::Device(d) => {
                    let (sw, hw) = ctl.apps()[0].analysis.energy_per_second(rate);
                    let f = ctl.fabric().benefit_factor(DeviceId(0), d);
                    (sw - hw) * f - ctl.fabric().link_energy_w(DeviceId(0), d, rate)
                }
            }
        };
        let mut prev = settled_w(base);
        for mult in [2.0, 4.0, 8.0, 16.0] {
            let next = settled_w(base * mult);
            prop_assert!(
                next >= prev - 1e-12,
                "raising $/J from a settled {} W placement bought less energy saving ({} W)",
                prev, next
            );
            prev = next;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- Multi-Paxos: codec robustness and protocol safety. ---

    /// The phase-1b pvalue batch codec round-trips any accepted map
    /// whose values respect the 16-bit length field — from plain vectors
    /// (the benchmark's pinned call) and from the refcounted values the
    /// acceptor stores alike — and decodes without copying: every value
    /// is a slice of the batch.
    #[test]
    fn pvalue_batches_round_trip(
        entries in proptest::collection::vec(
            (1u64..10_000, 1u16..1000, proptest::collection::vec(any::<u8>(), 0..64)),
            0..20),
    ) {
        use inc::net::Bytes;
        use inc::paxos::multi::{decode_pvalues, encode_pvalues, Ballot};
        let accepted: std::collections::BTreeMap<u64, (Ballot, Vec<u8>)> = entries
            .into_iter()
            .map(|(slot, num, value)| {
                (slot, (Ballot::new(num.min(Ballot::MAX_NUM), (num % 16) as u8), value))
            })
            .collect();
        let shared: std::collections::BTreeMap<u64, (Ballot, Bytes)> = accepted
            .iter()
            .map(|(&slot, (b, v))| (slot, (*b, Bytes::copy_from_slice(v))))
            .collect();
        let batch = Bytes::from(encode_pvalues(&accepted));
        prop_assert_eq!(&encode_pvalues(&shared)[..], &batch[..]);
        let decoded = decode_pvalues(&batch);
        prop_assert_eq!(decoded.len(), accepted.len());
        let span = batch.as_ptr_range();
        for (slot, ballot, value) in decoded {
            let (b, v) = &accepted[&slot];
            prop_assert_eq!(ballot, *b);
            prop_assert_eq!(&value, v);
            let at = value.as_ptr_range();
            prop_assert!(span.start <= at.start && at.end <= span.end, "value was copied");
        }
    }

    /// The pvalue decoder is lenient, never panicking on arbitrary
    /// bytes and never handing out bytes beyond the batch: a truncated or
    /// garbage tail (including a length field that claims more than is
    /// there) simply ends the batch.
    #[test]
    fn pvalue_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let batch = inc::net::Bytes::from(bytes);
        let mut consumed = 0;
        for (_, _, value) in inc::paxos::multi::decode_pvalues(&batch) {
            consumed += 12 + value.len();
            prop_assert!(consumed <= batch.len(), "read past the batch");
        }
    }

    /// Every truncation of a valid batch decodes to a prefix of its
    /// pvalues: whole entries before the cut, nothing of the one it hits.
    #[test]
    fn truncated_pvalue_batches_decode_to_a_prefix(
        values in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..8),
        cut_seed in any::<usize>(),
    ) {
        use inc::net::Bytes;
        use inc::paxos::multi::{decode_pvalues, encode_pvalues, Ballot};
        let accepted: std::collections::BTreeMap<u64, (Ballot, Vec<u8>)> = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u64 + 1, (Ballot::new(1, 0), v)))
            .collect();
        let full = encode_pvalues(&accepted);
        let whole = decode_pvalues(&Bytes::copy_from_slice(&full));
        let cut = cut_seed % (full.len() + 1);
        let got = decode_pvalues(&Bytes::copy_from_slice(&full[..cut]));
        let fits = whole
            .iter()
            .scan(0, |end, (_, _, v)| {
                *end += 12 + v.len();
                Some(*end)
            })
            .take_while(|&end| end <= cut)
            .count();
        prop_assert_eq!(&got[..], &whole[..fits]);
    }

    /// Ballot wire packing is order-preserving and round-trips: the
    /// acceptor can compare raw u16s and agree with ballot order.
    #[test]
    fn ballot_wire_order_matches_ballot_order(
        a_num in 1u16..1000, a_leader in 0u8..16,
        b_num in 1u16..1000, b_leader in 0u8..16,
    ) {
        use inc::paxos::multi::Ballot;
        let a = Ballot::new(a_num, a_leader);
        let b = Ballot::new(b_num, b_leader);
        prop_assert_eq!(Ballot::from_wire(a.wire()), a);
        prop_assert_eq!(a.wire() < b.wire(), a < b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Safety under chaos: whatever the drop rate, duplication rate,
    /// delivery order (the chaos network delivers in random order by
    /// construction) and mid-run role kills, no slot is ever learned
    /// with two different values and executed log prefixes agree.
    /// Liveness is NOT asserted here — under 40 % loss the run may
    /// decide nothing, but it must never decide inconsistently.
    #[test]
    fn multi_paxos_never_chooses_two_values_for_one_slot(
        seed in any::<u64>(),
        drop_p in 0.0f64..0.4,
        dup_p in 0.0f64..0.3,
        kill_leader in any::<bool>(),
        kill_acceptor in 0u8..3,
        kill_at in 2usize..10,
    ) {
        use inc_bench::consensus::{ChaosCluster, NodeRef};
        let mut c = ChaosCluster::new(seed, 2, 2, 3);
        c.drop_p = drop_p;
        c.dup_p = dup_p;
        for round in 0..25 {
            if round == kill_at {
                if kill_leader {
                    c.kill(NodeRef::Leader(0));
                }
                c.kill(NodeRef::Acceptor(kill_acceptor));
            }
            if round == kill_at + 6 {
                c.revive(NodeRef::Acceptor(kill_acceptor));
            }
            c.submit(3, vec![round as u8]);
            c.tick(400);
        }
        prop_assert!(c.single_value_per_slot(), "two values chosen for one slot");
        prop_assert!(c.logs_prefix_agree(), "executed log prefixes diverged");
    }

    /// Nothing acts on a slot below its floor, whoever asks and with
    /// whatever ballot: a phase-2a there is refused, a proposal and a
    /// phase-1b pvalue are dropped, and the forged value they all carry
    /// never reaches a log — the run goes on and both oracles hold.
    #[test]
    fn stale_floor_messages_change_no_decision(
        seed in any::<u64>(),
        drop_p in 0.0f64..0.15,
        dup_p in 0.0f64..0.15,
        behind in 1u64..40,
        steal in any::<bool>(),
    ) {
        use inc::paxos::multi::{encode_pvalues, Ballot};
        use inc::paxos::{ClientCommand, MsgType, PaxosMsg};
        use inc_bench::consensus::ChaosCluster;
        let mut c = ChaosCluster::new(seed, 2, 2, 3);
        c.drop_p = drop_p;
        c.dup_p = dup_p;
        for round in 0..40u8 {
            c.submit(3, vec![round]);
            c.tick(1_000_000);
        }
        let forged: Vec<u8> = ClientCommand { client: 666, seq: 1, payload: vec![0xFF] }.encode();
        let usurper = Ballot::new(Ballot::MAX_NUM, 15);

        // Acceptors: a phase-2a below the floor, from the highest ballot
        // there is, is answered with a refusal that names the floor.
        for a in &mut c.acceptors {
            let floor = a.floor();
            prop_assert!(floor > 1, "the floor never reached an acceptor");
            let (slot, promised, held) = (floor.saturating_sub(behind).max(1), a.promised(), a.accepted_len());
            let out = a.handle(&PaxosMsg::new(MsgType::Phase2a, slot, usurper.wire(), forged.clone()));
            prop_assert_eq!(out.len(), 1);
            prop_assert_eq!((out[0].1.vround, out[0].1.last_voted), (0, floor));
            prop_assert_eq!((a.accepted(slot), a.promised(), a.accepted_len()), (None, promised, held));
        }

        // Leaders: a proposal below the floor is dropped; so is a pvalue
        // below it in the promises that make the leader adopt — the
        // phase-2as of the adoption never name that slot. With `steal`
        // the scout is leader 1's, which also costs leader 0 its ballot.
        let l = usize::from(steal);
        let floor = c.leaders[l].floor();
        let slot = floor.saturating_sub(behind).max(1);
        prop_assert!(slot < floor, "the floor never reached leader {l}");
        let held = c.leaders[l].retained_slots();
        let stale = PaxosMsg::new(MsgType::ClientRequest, slot, 0, forged.clone());
        prop_assert!(c.leaders[l].handle(&stale).is_empty());
        prop_assert_eq!(c.leaders[l].retained_slots(), held);
        let p1a = c.leaders[l].start_scout();
        let pvalues = [(slot, (usurper, forged.clone()))].into_iter().collect();
        let mut adoption = Vec::new();
        for acceptor in 0..2 {
            let mut p1b = PaxosMsg::new(MsgType::Phase1b, 1, p1a[0].1.round, encode_pvalues(&pvalues));
            p1b.vround = p1a[0].1.round;
            p1b.acceptor = acceptor;
            adoption.extend(c.leaders[l].handle(&p1b));
        }
        prop_assert!(c.leaders[l].is_active());
        prop_assert!(adoption.iter().all(|(_, m)| m.instance >= floor && m.value != forged));

        // The run goes on (the adoption's messages count as lost).
        for round in 40..60u8 {
            c.submit(3, vec![round]);
            c.tick(1_000_000);
        }
        for _ in 0..200 {
            c.tick(1_000_000);
        }
        prop_assert!(c.single_value_per_slot(), "two values chosen for one slot");
        prop_assert!(c.logs_prefix_agree(), "executed log prefixes diverged");
        for r in &c.replicas {
            prop_assert_eq!(r.executed_count, 60, "replica {} is behind", r.id);
            let ran_forged = r.log_tail().iter().any(|(_, v)| v == &forged);
            prop_assert!(!ran_forged, "replica {} executed the forged command", r.id);
        }
        prop_assert_eq!(c.replicas[0].log_digest(), c.replicas[1].log_digest());
    }
}

/// The `Name` this repository had before the flat one — a list of
/// lowercased labels, parsed and decoded by the code below — kept as
/// the oracle the inline wire-form `Name` must agree with.
mod label_list_name {
    use inc::dns::DnsError;

    pub type Labels = Vec<Vec<u8>>;

    pub fn parse(s: &str) -> Result<Labels, DnsError> {
        let s = s.trim_end_matches('.');
        if s.is_empty() {
            return Ok(Vec::new());
        }
        let mut labels = Vec::new();
        let mut total = 1; // Root byte.
        for part in s.split('.') {
            let bytes = part.as_bytes();
            if bytes.is_empty() || bytes.len() > 63 {
                return Err(DnsError::BadName);
            }
            total += bytes.len() + 1;
            if total > 255 {
                return Err(DnsError::BadName);
            }
            labels.push(bytes.to_ascii_lowercase());
        }
        Ok(labels)
    }

    pub fn decode(msg: &[u8], pos: usize) -> Result<(Labels, usize), DnsError> {
        let mut labels = Vec::new();
        let mut i = pos;
        let mut end = None; // Set at the first pointer.
        let mut jumps = 0;
        let mut total = 1;
        loop {
            let &len = msg.get(i).ok_or(DnsError::Truncated)?;
            if len & 0xC0 == 0xC0 {
                let &lo = msg.get(i + 1).ok_or(DnsError::Truncated)?;
                let target = (((len & 0x3F) as usize) << 8) | lo as usize;
                if end.is_none() {
                    end = Some(i + 2);
                }
                if target >= i {
                    return Err(DnsError::BadPointer);
                }
                jumps += 1;
                if jumps > 32 {
                    return Err(DnsError::BadPointer);
                }
                i = target;
                continue;
            }
            if len & 0xC0 != 0 {
                return Err(DnsError::BadName);
            }
            if len == 0 {
                return Ok((labels, end.unwrap_or(i + 1)));
            }
            let len = len as usize;
            total += len + 1;
            if total > 255 {
                return Err(DnsError::BadName);
            }
            let label = msg.get(i + 1..i + 1 + len).ok_or(DnsError::Truncated)?;
            labels.push(label.to_ascii_lowercase());
            i += 1 + len;
        }
    }

    pub fn display(labels: &Labels) -> String {
        if labels.is_empty() {
            return ".".to_string();
        }
        let parts: Vec<_> = labels.iter().map(|l| String::from_utf8_lossy(l)).collect();
        parts.join(".")
    }
}

/// A frame built the way `build_udp` built it before the in-place path:
/// headers and payload appended to a `Vec`, the UDP checksum taken over
/// a concatenated copy of pseudo-header and datagram.
fn reference_frame(src: Endpoint, dst: Endpoint, ident: u16, payload: &[u8]) -> Vec<u8> {
    let mut ip = vec![0x45, 0];
    ip.extend_from_slice(&((20 + 8 + payload.len()) as u16).to_be_bytes());
    ip.extend_from_slice(&ident.to_be_bytes());
    ip.extend_from_slice(&[0x40, 0, 64, 17, 0, 0]);
    ip.extend_from_slice(&src.ip.octets());
    ip.extend_from_slice(&dst.ip.octets());
    let csum = internet_checksum(&ip);
    ip[10..12].copy_from_slice(&csum.to_be_bytes());

    let udp_len = ((8 + payload.len()) as u16).to_be_bytes();
    let mut udp = Vec::new();
    udp.extend_from_slice(&src.port.to_be_bytes());
    udp.extend_from_slice(&dst.port.to_be_bytes());
    udp.extend_from_slice(&udp_len);
    udp.extend_from_slice(&[0, 0]);
    udp.extend_from_slice(payload);
    let mut pseudo = Vec::new();
    pseudo.extend_from_slice(&src.ip.octets());
    pseudo.extend_from_slice(&dst.ip.octets());
    pseudo.extend_from_slice(&[0, 17]);
    pseudo.extend_from_slice(&udp_len);
    pseudo.extend_from_slice(&udp);
    let csum = match internet_checksum(&pseudo) {
        0 => 0xffff,
        c => c,
    };
    udp[6..8].copy_from_slice(&csum.to_be_bytes());

    let mut frame = Vec::new();
    frame.extend_from_slice(&dst.mac.0);
    frame.extend_from_slice(&src.mac.0);
    frame.extend_from_slice(&[0x08, 0x00]);
    frame.extend_from_slice(&ip);
    frame.extend_from_slice(&udp);
    frame
}

/// An endpoint with arbitrary (not `Endpoint::host`-shaped) addresses.
fn endpoint(mac: u64, ip: u32, port: u16) -> Endpoint {
    let m = mac.to_be_bytes();
    Endpoint {
        mac: inc::net::MacAddr([m[2] & 0xfe, m[3], m[4], m[5], m[6], m[7]]),
        ip: std::net::Ipv4Addr::from(ip),
        port,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // --- The allocation-free packet path puts the same bytes on the
    // wire and reads the same messages off it. ---

    /// The in-place builder — header room reserved, payload encoded
    /// behind it, lengths and checksums patched over it — emits exactly
    /// the frame of the append-and-concatenate reference, for arbitrary
    /// addresses and payloads of 0..=2048 bytes, odd and even. Frames
    /// carry IPv4 ident 0; the header codec itself round-trips any.
    #[test]
    fn in_place_frames_match_the_reference_builder(
        macs in (any::<u64>(), any::<u64>()),
        ips in (any::<u32>(), any::<u32>()),
        ports in (any::<u16>(), any::<u16>()),
        ident in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2049),
        split in any::<usize>(),
    ) {
        use inc::net::{build_udp_with, BufMut, Ipv4Header, IPPROTO_UDP};
        let src = endpoint(macs.0, ips.0, ports.0);
        let dst = endpoint(macs.1, ips.1, ports.1);
        let want = reference_frame(src, dst, 0, &payload);
        let pkt = build_udp(src, dst, &payload);
        prop_assert_eq!(&pkt.data[..], &want[..]);
        // Encoding the payload piecewise changes nothing.
        let (head, tail) = payload.split_at(split % (payload.len() + 1));
        let pieces = build_udp_with(src, dst, payload.len(), |buf| {
            buf.put_slice(head);
            buf.put_slice(tail);
        });
        prop_assert_eq!(&pieces.data[..], &want[..]);
        // The frame verifies, and its length is exactly the datagram.
        let frame = UdpFrame::parse(&pkt).unwrap();
        prop_assert_eq!(frame.payload, &payload[..]);
        prop_assert_eq!((frame.source(), frame.destination()), (src, dst));
        prop_assert_eq!(frame.ip.ident, 0);
        prop_assert_eq!(&frame.payload_bytes(&pkt)[..], &payload[..]);
        prop_assert_eq!(pkt.data.len(), 42 + payload.len());
        // The reply builder swaps the direction of the same machinery.
        let reply = inc::net::build_reply_with(&frame, payload.len(), |buf| {
            buf.put_slice(&payload);
        });
        prop_assert_eq!(&reply.data[..], &reference_frame(dst, src, 0, &payload)[..]);
        // An IPv4 header with any ident encodes to the reference's bytes
        // and decodes back to itself in front of the same datagram.
        let header = Ipv4Header {
            src: src.ip,
            dst: dst.ip,
            protocol: IPPROTO_UDP,
            ttl: 64,
            total_len: (20 + 8 + payload.len()) as u16,
            ident,
        };
        let mut packet = Vec::new();
        header.encode(&mut packet);
        packet.extend_from_slice(&want[34..]);
        prop_assert_eq!(&packet[..], &reference_frame(src, dst, ident, &payload)[14..]);
        let (decoded, datagram) = Ipv4Header::decode(&packet).unwrap();
        prop_assert_eq!((decoded, datagram), (header, &want[34..]));
    }

    /// Memcached: encoding a view straight into a frame equals encoding
    /// the owned message to a `Vec` and copying it in; the borrowed
    /// decode sees the message that was sent and agrees with the owned
    /// decode; every strict prefix of a valid datagram is an error.
    #[test]
    fn memcached_views_match_the_owned_codec(
        key in proptest::collection::vec(any::<u8>(), 1..250),
        value in proptest::collection::vec(any::<u8>(), 0..600),
        flags in any::<u32>(),
        expiry in any::<u32>(),
        opaque in any::<u32>(),
        request_id in any::<u16>(),
        kind in 0u8..6,
    ) {
        use inc::kvs::{
            decode_view, encode_response, MessageView, Opcode, Response, Status,
        };
        use inc::net::build_udp_with;
        let (a, b) = (Endpoint::host(1, 40_000), Endpoint::host(2, 11_211));
        let frame = FrameHeader { request_id, seq: 0, total: 1 };
        let (owned, bytes, in_place) = if kind < 3 {
            let req = match kind {
                0 => Request::Get { key },
                1 => Request::Set { key, value, flags, expiry },
                _ => Request::Delete { key },
            };
            let view = req.as_view();
            prop_assert_eq!(view.to_owned(), req.clone());
            let pkt = build_udp_with(a, b, view.encoded_len(), |buf| {
                view.encode_into(frame, opaque, buf)
            });
            let bytes = encode_request(frame, &req, opaque);
            (Message::Request { frame, request: req, opaque }, bytes, pkt)
        } else {
            let (opcode, status, value) = match kind {
                3 => (Opcode::Get, Status::Ok, value),
                4 => (Opcode::Get, Status::KeyNotFound, vec![]),
                _ => (Opcode::Set, Status::TooLarge, vec![]),
            };
            // Only a GET hit carries its flags on the wire.
            let flags = if kind == 3 { flags } else { 0 };
            let resp = Response { opcode, status, value, flags, opaque };
            let view = resp.as_view();
            prop_assert_eq!(view.to_owned(), resp.clone());
            let pkt = build_udp_with(a, b, view.encoded_len(), |buf| {
                view.encode_into(frame, buf)
            });
            let bytes = encode_response(frame, &resp);
            (Message::Response { frame, response: resp }, bytes, pkt)
        };
        prop_assert_eq!(&in_place.data[..], &build_udp(a, b, &bytes).data[..]);
        let view = decode_view(&bytes).unwrap();
        prop_assert_eq!(&view.to_owned(), &owned);
        prop_assert_eq!(mc_decode(&bytes).unwrap(), owned);
        // Borrowed fields are slices of the datagram itself.
        let span = bytes.as_ptr_range();
        let inside = |s: &[u8]| s.is_empty() || (span.contains(&s.as_ptr()) && s.as_ptr_range().end <= span.end);
        match view {
            MessageView::Request { request, .. } => prop_assert!(inside(request.key())),
            MessageView::Response { response, .. } => prop_assert!(inside(response.value)),
        }
        for cut in 0..bytes.len() {
            prop_assert!(decode_view(&bytes[..cut]).is_err(), "prefix of {} bytes decoded", cut);
        }
    }

    /// A header whose key and extras lengths overrun its body length is
    /// rejected whatever else it says, and no garbage makes the borrowed
    /// decoder panic or hand out bytes from outside the datagram.
    #[test]
    fn memcached_view_decode_survives_hostile_lengths(
        mut bytes in proptest::collection::vec(any::<u8>(), 32..200),
        key_len in any::<u16>(),
        extras_len in any::<u8>(),
        body_len in 0u32..300,
    ) {
        use inc::kvs::{decode_view, MessageView, ProtocolError};
        let _ = decode_view(&bytes); // Pure garbage first.
        bytes[4..6].copy_from_slice(&1u16.to_be_bytes()); // One datagram.
        bytes[8] = 0x80;
        bytes[9] = 0x01; // SET: the one opcode that reads its extras.
        bytes[10..12].copy_from_slice(&key_len.to_be_bytes());
        bytes[12] = extras_len;
        bytes[16..20].copy_from_slice(&body_len.to_be_bytes());
        let overrun = usize::from(key_len) + usize::from(extras_len) > body_len as usize;
        let short = bytes.len() < 32 + body_len as usize;
        match decode_view(&bytes) {
            Ok(MessageView::Request { request, .. }) => {
                prop_assert!(!overrun && !short && extras_len == 8);
                let span = bytes.as_ptr_range();
                prop_assert!(request.key().is_empty() || span.contains(&request.key().as_ptr()));
                prop_assert_eq!(request.key().len(), usize::from(key_len));
            }
            Ok(other) => prop_assert!(false, "decoded a response: {:?}", other),
            Err(e) => {
                prop_assert!(overrun || short || extras_len != 8, "rejected a valid header: {:?}", e);
                if overrun || short {
                    prop_assert_eq!(e, ProtocolError::BadLength);
                }
            }
        }
    }

    /// DNS: queries, owned responses and the servers' inline `Answer`
    /// encode in place to the bytes of the owned encoders; the borrowed
    /// response view reads back what was sent and agrees with the owned
    /// decode; truncating any byte the decoder reads is an error.
    #[test]
    fn dns_views_match_the_owned_codec(
        labels in proptest::collection::vec("[a-zA-Z0-9-]{1,20}", 1..6),
        answers in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..4),
        id in any::<u16>(),
        qtype in any::<u16>(),
        rd in any::<bool>(),
    ) {
        use inc::dns::{Answer, DnsResponseView};
        use inc::net::build_udp_with;
        let (a, b) = (Endpoint::host(3, 41_000), Endpoint::host(4, 53));
        let name = Name::parse(&labels.join(".")).unwrap();
        let q = Query { id, name: name.clone(), qtype, recursion_desired: rd };
        let qbytes = q.encode();
        prop_assert_eq!(qbytes.len(), q.encoded_len());
        let pkt = build_udp_with(a, b, q.encoded_len(), |buf| q.encode_into(buf));
        prop_assert_eq!(&pkt.data[..], &build_udp(a, b, &qbytes).data[..]);
        prop_assert_eq!(Query::decode(&qbytes).unwrap(), q);
        // QCLASS is never read; everything before it is.
        for cut in 0..qbytes.len() - 2 {
            prop_assert!(Query::decode(&qbytes[..cut]).is_err(), "query prefix {}", cut);
        }

        let answers: Vec<_> = answers
            .iter()
            .map(|&(ip, ttl)| (std::net::Ipv4Addr::from(ip), ttl))
            .collect();
        let rcode = if answers.is_empty() { Rcode::NxDomain } else { Rcode::NoError };
        let r = DnsResponse { id, rcode, name: name.clone(), answers: answers.clone() };
        let rbytes = r.encode();
        prop_assert_eq!(rbytes.len(), r.encoded_len());
        let pkt = build_udp_with(b, a, r.encoded_len(), |buf| r.encode_into(buf));
        prop_assert_eq!(&pkt.data[..], &build_udp(b, a, &rbytes).data[..]);
        let view = DnsResponseView::decode(&rbytes).unwrap();
        prop_assert_eq!((view.id, view.rcode, &view.name), (id, rcode, &name));
        prop_assert!(view.answers().eq(answers.iter().copied()));
        prop_assert_eq!(&view.to_owned(), &r);
        prop_assert_eq!(DnsResponse::decode(&rbytes).unwrap(), r);
        if !answers.is_empty() {
            for cut in 0..rbytes.len() {
                prop_assert!(DnsResponseView::decode(&rbytes[..cut]).is_err(), "response prefix {}", cut);
            }
        }
        // The record the servers answer with is the first, if any.
        let record = answers.first().copied();
        let one = Answer { id, rcode, name: name.clone(), record };
        let mut abytes = Vec::new();
        one.encode_into(&mut abytes);
        prop_assert_eq!(abytes.len(), one.encoded_len());
        let owned = DnsResponse { id, rcode, name, answers: record.into_iter().collect() };
        prop_assert_eq!(&abytes, &owned.encode());
        prop_assert_eq!(DnsResponse::from(one), owned);
    }

    /// The flat `Name` is the label-list `Name` in another layout: same
    /// accept/reject decisions on text, same case folding, same
    /// `Display`, and the same equality and ordering between names.
    #[test]
    fn flat_names_parse_print_and_order_like_label_lists(
        a in proptest::collection::vec("[a-cA-C0-1-]{0,5}", 0..5),
        b in proptest::collection::vec("[a-cA-C0-1-]{0,5}", 0..5),
        long in proptest::collection::vec("[a-z]{55,70}", 0..6),
        dots in 0usize..3,
    ) {
        for parts in [&a, &b, &long] {
            let text = format!("{}{}", parts.join("."), ".".repeat(dots));
            let old = label_list_name::parse(&text);
            let new = Name::parse(&text);
            prop_assert_eq!(new.is_ok(), old.is_ok(), "{:?}", &text);
            prop_assert_eq!(new.clone().err(), old.clone().err());
            prop_assert_eq!(Name::from_fmt(format_args!("{text}")).ok(), new.clone().ok());
            if let (Ok(new), Ok(old)) = (new, old) {
                let labels: Vec<Vec<u8>> = new.labels().map(<[u8]>::to_vec).collect();
                prop_assert_eq!(&labels, &old);
                prop_assert_eq!(new.labels().count(), old.len());
                prop_assert_eq!(new.to_string(), label_list_name::display(&old));
                let encoded: usize = old.iter().map(|l| l.len() + 1).sum::<usize>() + 1;
                prop_assert_eq!(new.encoded_len(), encoded);
                let mut wire = Vec::new();
                new.encode(&mut wire);
                prop_assert_eq!(&wire[..], new.as_wire());
                prop_assert_eq!(label_list_name::decode(&wire, 0), Ok((old, wire.len())));
            }
        }
        if let (Ok(x), Ok(y)) = (Name::parse(&a.join(".")), Name::parse(&b.join("."))) {
            let (ox, oy) = (
                label_list_name::parse(&a.join(".")).unwrap(),
                label_list_name::parse(&b.join(".")).unwrap(),
            );
            prop_assert_eq!(x.cmp(&y), ox.cmp(&oy));
            prop_assert_eq!(x == y, ox == oy);
            prop_assert_eq!(x.partial_cmp(&y), ox.partial_cmp(&oy));
        }
    }

    /// Decoding names out of a soup of labels, terminators and
    /// compression pointers — backward, forward, self-referential,
    /// looping, into the middle of labels — gives the label-list
    /// decoder's verdict at every offset: the same name and end offset,
    /// or the same error. Forward and self pointers are `BadPointer`.
    #[test]
    fn flat_name_decode_follows_pointers_like_the_label_list_decoder(
        ops in proptest::collection::vec((0u8..5, "[a-zA-Z0-9-]{1,12}", any::<u16>()), 1..14),
        tail in proptest::collection::vec(any::<u8>(), 0..6),
    ) {
        use inc::dns::DnsError;
        let mut msg = vec![0u8; 12];
        for (kind, label, target) in &ops {
            match kind {
                0 | 1 => {
                    msg.push(label.len() as u8);
                    msg.extend_from_slice(label.as_bytes());
                }
                2 => msg.push(0),
                _ => {
                    // Mostly backwards, sometimes forwards or at itself.
                    let t = usize::from(*target) % (msg.len() + 4);
                    msg.extend_from_slice(&[0xC0 | (t >> 8) as u8, t as u8]);
                }
            }
        }
        msg.extend_from_slice(&tail);
        for pos in 0..msg.len() + 2 {
            let old = label_list_name::decode(&msg, pos);
            match (Name::decode(&msg, pos), old) {
                (Ok((name, end)), Ok((labels, old_end))) => {
                    prop_assert_eq!(end, old_end);
                    let got: Vec<Vec<u8>> = name.labels().map(<[u8]>::to_vec).collect();
                    prop_assert_eq!(got, labels);
                }
                (Err(e), Err(old_e)) => prop_assert_eq!(e, old_e),
                (new, old) => prop_assert!(false, "at {}: {:?} vs {:?}", pos, new, old),
            }
            if let (Some(&hi), Some(&lo)) = (msg.get(pos), msg.get(pos + 1)) {
                let target = (usize::from(hi & 0x3F) << 8) | usize::from(lo);
                if hi & 0xC0 == 0xC0 && target >= pos {
                    prop_assert_eq!(Name::decode(&msg, pos), Err(DnsError::BadPointer));
                }
            }
        }
    }

    /// No bytes make the DNS view decoders panic, and a response that
    /// decodes can be iterated to exactly the answers the owned decode
    /// collects.
    #[test]
    fn dns_view_decode_never_panics(
        mut bytes in proptest::collection::vec(any::<u8>(), 0..200),
        ancount in any::<u16>(),
    ) {
        use inc::dns::DnsResponseView;
        for announce in [false, true] {
            if announce && bytes.len() >= 12 {
                bytes[4..6].copy_from_slice(&1u16.to_be_bytes());
                bytes[6..8].copy_from_slice(&ancount.to_be_bytes());
            }
            let _ = Query::decode(&bytes);
            match (DnsResponseView::decode(&bytes), DnsResponse::decode(&bytes)) {
                (Ok(view), Ok(owned)) => {
                    prop_assert!(view.answers().eq(owned.answers.iter().copied()));
                    prop_assert!(owned.answers.len() <= usize::from(ancount) || !announce);
                }
                (Err(e), Err(owned_e)) => prop_assert_eq!(e, owned_e),
                (view, owned) => prop_assert!(false, "{:?} vs {:?}", view, owned),
            }
        }
    }

    /// Paxos: writing a message into a frame equals encoding it to a
    /// `Vec` first; decoding a refcounted datagram gives the message the
    /// copying decoder gives, its value a view of that datagram.
    #[test]
    fn paxos_shared_decode_matches_the_copying_decoder(
        instance in any::<u64>(),
        rounds in (any::<u16>(), any::<u16>()),
        acceptor in any::<u8>(),
        last_voted in any::<u64>(),
        value in proptest::collection::vec(any::<u8>(), 0..300),
        mtype_idx in 0u8..7,
        cut in any::<usize>(),
    ) {
        use inc::net::{build_udp_with, Bytes};
        let mtype = [
            MsgType::ClientRequest, MsgType::Phase1a, MsgType::Phase1b,
            MsgType::Phase2a, MsgType::Phase2b, MsgType::ClientReply,
            MsgType::GapRequest,
        ][mtype_idx as usize];
        let m = PaxosMsg {
            mtype, instance, round: rounds.0, vround: rounds.1, acceptor, last_voted,
            value: value.into(),
        };
        let bytes = m.encode();
        let (a, b) = (Endpoint::host(20, 8600), Endpoint::host(10, 8601));
        let pkt = build_udp_with(a, b, m.encoded_len(), |buf| m.write_to(buf));
        prop_assert_eq!(&pkt.data[..], &build_udp(a, b, &bytes).data[..]);
        let frame = UdpFrame::parse(&pkt).unwrap();
        let shared = PaxosMsg::decode_shared(&frame.payload_bytes(&pkt)).unwrap();
        prop_assert_eq!(&shared, &m);
        prop_assert_eq!(PaxosMsg::decode(frame.payload).unwrap(), m.clone());
        if !m.value.is_empty() {
            prop_assert!(pkt.data.as_ptr_range().contains(&shared.value.as_ptr()), "value was copied");
        }
        // Both decoders reject the same truncations the same way.
        let cut = cut % bytes.len();
        let short = Bytes::copy_from_slice(&bytes[..cut]);
        prop_assert_eq!(PaxosMsg::decode_shared(&short).err(), PaxosMsg::decode(&short).err());
        prop_assert!(PaxosMsg::decode(&short).is_err());
    }

    /// Paxos: decoding against the value the sender holds gives what the
    /// copying decoder gives — the message field for field, or the same
    /// error — whatever the frame and whatever that value; the decoded
    /// value is the sender's buffer exactly when the bytes match it.
    #[test]
    fn paxos_sharing_decode_matches_the_copying_decoder(
        instance in any::<u64>(),
        rounds in (any::<u16>(), any::<u16>()),
        acceptor in any::<u8>(),
        last_voted in any::<u64>(),
        value in proptest::collection::vec(any::<u8>(), 0..300),
        mtype_idx in 0u8..7,
        (cut, flip) in (any::<usize>(), any::<usize>()),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use inc::net::Bytes;
        let mtype = [
            MsgType::ClientRequest, MsgType::Phase1a, MsgType::Phase1b,
            MsgType::Phase2a, MsgType::Phase2b, MsgType::ClientReply,
            MsgType::GapRequest,
        ][mtype_idx as usize];
        let m = PaxosMsg {
            mtype, instance, round: rounds.0, vround: rounds.1, acceptor, last_voted,
            value: value.clone().into(),
        };
        let wire = m.encode();
        let trailed = [wire.as_slice(), garbage.as_slice()].concat();
        let frames = [&wire[..], &wire[..cut % wire.len()], &garbage[..], &trailed[..]];
        // The sender's value as sent, one byte off, one byte longer, empty.
        let mut off = value.clone();
        if let Some(b) = off.get_mut(flip % value.len().max(1)) {
            *b ^= 0x5A;
        }
        let longer = [value.as_slice(), &[0]].concat();
        let sents = [Bytes::from(value), Bytes::from(off), Bytes::from(longer), Bytes::new()];
        for buf in frames {
            let copied = PaxosMsg::decode(buf);
            for sent in &sents {
                let shared = PaxosMsg::decode_sharing(buf, sent);
                prop_assert_eq!(&shared, &copied);
                if let Ok(got) = shared {
                    let matches = got.value.as_ref() == sent.as_ref();
                    prop_assert_eq!(got.value.as_ptr() == sent.as_ptr(), matches);
                }
            }
        }
    }
}

// --- Frame buffers are reused, and reuse is invisible on the wire. ---

/// The frame `build_udp(src, dst, payload)` yields on a thread of its
/// own, which has never dropped a frame.
fn built_on_a_fresh_thread(src: Endpoint, dst: Endpoint, payload: &[u8]) -> Vec<u8> {
    let payload = payload.to_vec();
    std::thread::spawn(move || build_udp(src, dst, &payload).data.to_vec())
        .join()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A frame built after a longer one was dropped — its buffer free to
    /// reuse, its bytes still in it — is the frame a fresh thread builds.
    #[test]
    fn a_frame_built_after_a_longer_one_is_the_fresh_frame(
        long in proptest::collection::vec(any::<u8>(), 1..1600),
        short_len in any::<usize>(),
        fill in any::<u8>(),
        hosts in (1u32..1000, 1u32..1000),
    ) {
        let (a, b) = (Endpoint::host(hosts.0, 40_000), Endpoint::host(hosts.1, 53));
        let short = vec![fill; short_len % long.len()];
        drop(build_udp(b, a, &long));
        let pkt = build_udp(a, b, &short);
        prop_assert_eq!(&pkt.data[..], &built_on_a_fresh_thread(a, b, &short)[..]);
        prop_assert_eq!(UdpFrame::parse(&pkt).unwrap().payload, &short[..]);
    }
}

#[test]
fn a_packet_dropped_on_another_thread_is_harmless() {
    let (a, b) = (Endpoint::host(1, 40_000), Endpoint::host(2, 11_211));
    let frames: Vec<_> = (0..64u8).map(|i| build_udp(a, b, &[i; 100])).collect();
    let kept = frames[7].clone();
    // The other thread drops every frame (the last handle on all but
    // one) and then builds its own.
    let theirs = std::thread::spawn(move || {
        drop(frames);
        (0..64u8)
            .map(|i| build_udp(b, a, &[i; 60]).data.to_vec())
            .collect::<Vec<_>>()
    })
    .join()
    .unwrap();
    for (i, frame) in theirs.iter().enumerate() {
        assert_eq!(frame, &built_on_a_fresh_thread(b, a, &[i as u8; 60]));
    }
    // This thread's frames, the one it kept included, are untouched.
    assert_eq!(UdpFrame::parse(&kept).unwrap().payload, &[7; 100]);
    for i in 0..64u8 {
        let pkt = build_udp(a, b, &[i; 80]);
        assert_eq!(pkt.data.to_vec(), built_on_a_fresh_thread(a, b, &[i; 80]));
    }
}

#[test]
fn a_frame_whose_payload_view_is_held_is_never_reused() {
    let (a, b) = (Endpoint::host(1, 40_000), Endpoint::host(2, 53));
    let pkt = build_udp(a, b, b"keep these bytes");
    let view = UdpFrame::parse(&pkt).unwrap().payload_bytes(&pkt);
    let copy = pkt.clone();
    drop(pkt);
    drop(copy);
    // Far more frames than any free list keeps, built and dropped in
    // turn, then all at once: none of them may land on the held bytes.
    for i in 0..4_000u32 {
        drop(build_udp(b, a, &i.to_be_bytes().repeat(8)));
    }
    let burst: Vec<_> = (0..4_000u32)
        .map(|i| build_udp(b, a, &i.to_le_bytes().repeat(8)))
        .collect();
    drop(burst);
    for _ in 0..4_000 {
        drop(build_udp(b, a, &[0xff; 64]));
    }
    assert_eq!(&view[..], b"keep these bytes");
}

// --- Outbox spills are reused, and reuse is invisible to what is sent. ---

/// A routed message whose instance numbers it.
fn numbered(n: u64) -> (Dest, PaxosMsg) {
    let value = n.to_be_bytes().to_vec();
    (Dest::Leader, PaxosMsg::new(MsgType::Phase2a, n, 1, value))
}

/// The instances an outbox holds, in send order, each checked against
/// the value it was built with.
fn instances(out: &Outbox) -> Vec<u64> {
    out.iter()
        .map(|(_, m)| {
            assert_eq!(m.value[..], m.instance.to_be_bytes());
            m.instance
        })
        .collect()
}

/// The capacity of a spilled outbox's buffer (0 for an inline one).
fn spill_capacity(out: &Outbox) -> usize {
    match out {
        Outbox::Many(all) => all.capacity(),
        _ => 0,
    }
}

/// On a fresh thread: holds `n` outboxes of 40 messages at once, drops
/// them, then holds 64 of two messages. Returns how many of those got
/// one of the long buffers back.
fn long_spills_reused(n: usize) -> usize {
    std::thread::spawn(move || {
        let long: Vec<Outbox> = (0..n).map(|_| (0..40).map(numbered).collect()).collect();
        drop(long);
        let short: Vec<Outbox> = (0..64).map(|_| (0..2).map(numbered).collect()).collect();
        short.iter().filter(|out| spill_capacity(out) >= 40).count()
    })
    .join()
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any mix of pushes, clones, full and partial iterations and drops
    /// over a few live outboxes sends exactly what a plain `Vec` model
    /// of each holds: a recycled buffer brings nothing of its last use.
    #[test]
    fn spill_reuse_keeps_every_outbox_in_send_order(
        ops in proptest::collection::vec((0u8..6, 0usize..4, 0usize..6), 1..120),
    ) {
        let mut live: Vec<(Outbox, Vec<u64>)> = Vec::new();
        let mut next = 0u64;
        for (op, pick, count) in ops {
            let at = pick % live.len().max(1);
            match (op, live.is_empty()) {
                (0, _) | (_, true) => live.push(Default::default()),
                (1, false) => {
                    for _ in 0..count {
                        live[at].0.push(numbered(next));
                        live[at].1.push(next);
                        next += 1;
                    }
                }
                (2, false) => {
                    let copy = live[at].clone();
                    live.push(copy);
                }
                (3, false) => {
                    let (out, model) = live.swap_remove(at);
                    let sent: Vec<u64> = out.into_iter().map(|(_, m)| m.instance).collect();
                    prop_assert_eq!(sent, model);
                }
                (4, false) => {
                    let (out, model) = live.swap_remove(at);
                    let taken = count.min(model.len());
                    let mut it = out.into_iter();
                    let sent: Vec<u64> = it.by_ref().take(taken).map(|(_, m)| m.instance).collect();
                    prop_assert_eq!(&sent[..], &model[..taken]);
                    prop_assert_eq!(it.len(), model.len() - taken);
                }
                _ => drop(live.swap_remove(at)),
            }
            for (out, model) in &live {
                prop_assert_eq!(&instances(out), model);
            }
        }
    }

    /// A spill whose iterator stopped early goes back empty: the next
    /// outbox on the thread holds only its own messages.
    #[test]
    fn a_partly_sent_spill_comes_back_empty(
        len in 2u64..50,
        sent in 0u64..50,
        fresh in 2u64..50,
    ) {
        let out: Outbox = (0..len).map(numbered).collect();
        let mut it = out.into_iter();
        let first: Vec<u64> = it.by_ref().take(sent as usize).map(|(_, m)| m.instance).collect();
        prop_assert_eq!(first, (0..sent.min(len)).collect::<Vec<_>>());
        drop(it);
        let next: Outbox = (100..100 + fresh).map(numbered).collect();
        prop_assert!(spill_capacity(&next) >= len as usize, "the dropped buffer is reused");
        prop_assert_eq!(instances(&next), (100..100 + fresh).collect::<Vec<_>>());
    }

    /// However many spills a thread drops, it keeps the same handful.
    #[test]
    fn the_spill_list_keeps_at_most_its_bound(n in 0usize..40) {
        let bound = long_spills_reused(256);
        prop_assert!((1..=16).contains(&bound), "kept {}", bound);
        prop_assert_eq!(long_spills_reused(n), n.min(bound));
    }

    /// Any mix of gives and takes on a free list matches a stack that
    /// refuses what would take it past its bound.
    #[test]
    fn a_free_list_is_a_bounded_stack(
        bound in 0usize..8,
        ops in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let list = FreeList::new(bound);
        let mut model = Vec::new();
        for (n, give) in ops.into_iter().enumerate() {
            if give {
                list.give(n);
                if model.len() < bound {
                    model.push(n);
                }
            } else {
                prop_assert_eq!(list.take(), model.pop());
            }
        }
        let rest: Vec<usize> = std::iter::from_fn(|| list.take()).collect();
        model.reverse();
        prop_assert_eq!(rest, model);
    }
}

#[test]
fn a_spill_dropped_on_another_thread_is_harmless() {
    let ours: Vec<Outbox> = (0..16u64)
        .map(|n| (n * 10..n * 10 + 5).map(numbered).collect())
        .collect();
    let theirs: Vec<Outbox> = (0..16u64)
        .map(|n| (n * 10..n * 10 + 7).map(numbered).collect())
        .collect();
    let kept = ours[3].clone();
    // The other thread drops this thread's spills (onto its own list)
    // and then builds outboxes from them.
    let built = std::thread::spawn(move || {
        drop(theirs);
        (0..16u64)
            .map(|n| instances(&(n..n + 3).map(numbered).collect()))
            .collect::<Vec<_>>()
    })
    .join()
    .unwrap();
    for (n, got) in built.into_iter().enumerate() {
        assert_eq!(got, (n as u64..n as u64 + 3).collect::<Vec<_>>());
    }
    assert_eq!(instances(&kept), [30, 31, 32, 33, 34]);
    drop(ours);
    for n in 0..16u64 {
        let out: Outbox = (n..n + 4).map(numbered).collect();
        assert_eq!(instances(&out), (n..n + 4).collect::<Vec<_>>());
    }
}
