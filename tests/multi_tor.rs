//! End-to-end multi-ToR fabric scheduling: KVS (LaKe), DNS (Emu) and a
//! Paxos leader (P4xos) placed across two capacity-bounded per-ToR
//! devices by the `FleetController`'s (app × device) knapsack.
//!
//! The KVS and the Paxos program share a home ToR whose device cannot
//! host both (7 + 6 > 12 stages), and their diurnal peaks overlap — so
//! the run exercises the §9.4 placement story: the KVS anchors its home
//! device through its peak, the Paxos program *spills* to the remote ToR
//! (paying the cross-ToR latency detour and benefit haircut) because its
//! penalty-adjusted score still clears the offload floor, the DNS later
//! co-resides with it on ToR B, and every tenant returns to software as
//! its demand dies. Energy must beat all-software and the best schedule
//! confined to a single device.

mod common;

use std::sync::OnceLock;

use common::{fnv, shift_log_digest, FNV_OFFSET};
use inc::hw::{DeviceId, Placement, ProgramResources};
use inc::ondemand::{FleetShift, FleetTimeline};
use inc::paxos::multi::Acceptor;
use inc::paxos::PaxosNode;
use inc::sim::Nanos;
use inc_bench::rigs::MultiTorRig;

const KEYS: u64 = 512;
const NAMES: u64 = 512;
const PERIOD: Nanos = Nanos::from_millis(3_500);
const HORIZON: Nanos = Nanos::from_millis(3_500);
const INTERVAL: Nanos = Nanos::from_millis(150);

const KVS: usize = MultiTorRig::KVS_APP;
const DNS: usize = MultiTorRig::DNS_APP;
const PAX: usize = MultiTorRig::PAX_APP;

fn run(controller: &mut inc::ondemand::FleetController) -> (MultiTorRig, FleetTimeline) {
    let mut rig = MultiTorRig::new(42, KEYS, NAMES, MultiTorRig::contended_profiles(PERIOD));
    let timeline = rig.run(controller, HORIZON);
    (rig, timeline)
}

/// The fleet-controlled run and the three static baselines, shared
/// between tests (the simulation is deterministic and the tests only
/// read the outcome).
struct FleetRun {
    timeline: FleetTimeline,
    decisions: Vec<FleetShift>,
    kvs_stats: inc::kvs::ClientStats,
    dns_wrong: u64,
    pax_acked: u64,
    sw_energy_j: f64,
    kvs_a_energy_j: f64,
    dns_pax_b_energy_j: f64,
}

fn fleet_run() -> &'static FleetRun {
    static RUN: OnceLock<FleetRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let mut ctl = MultiTorRig::fleet_controller(INTERVAL);
        let (rig, timeline) = run(&mut ctl);
        let baseline = |placements: [Placement; 3]| {
            let mut pinned = MultiTorRig::pinned_controller(INTERVAL, placements);
            let (_, t) = run(&mut pinned);
            assert!(t.shifts.is_empty(), "pinned baseline moved: {:?}", t.shifts);
            t.energy_j
        };
        FleetRun {
            decisions: ctl.shifts().to_vec(),
            kvs_stats: rig
                .sim
                .node_ref::<inc::kvs::KvsClient>(rig.kvs_client)
                .stats(),
            dns_wrong: rig
                .sim
                .node_ref::<inc::dns::DnsClient>(rig.dns_client)
                .stats()
                .wrong,
            pax_acked: rig.pax_acked(),
            timeline,
            sw_energy_j: baseline([Placement::Software; 3]),
            kvs_a_energy_j: baseline([
                Placement::Device(MultiTorRig::TOR_A),
                Placement::Software,
                Placement::Software,
            ]),
            dns_pax_b_energy_j: baseline([
                Placement::Software,
                Placement::Device(MultiTorRig::TOR_B),
                Placement::Device(MultiTorRig::TOR_B),
            ]),
        }
    })
}

#[test]
fn fleet_places_across_the_fabric_and_beats_static_schedules() {
    let shared = fleet_run();
    let fleet = &shared.timeline;
    let n_rows = fleet.per_app[KVS].rows().len();
    let demands: Vec<ProgramResources> =
        MultiTorRig::fleet_apps().iter().map(|a| a.demand).collect();

    // --- No device's budget was ever exceeded: at every interval the
    // resident programs' stage and SRAM sums fit their ToR.
    let budget = MultiTorRig::fabric().device(MultiTorRig::TOR_A).budget();
    for i in 0..n_rows {
        for dev in [MultiTorRig::TOR_A, MultiTorRig::TOR_B] {
            let (mut stages, mut sram) = (0u32, 0u64);
            for app in [KVS, DNS, PAX] {
                if fleet.per_app[app].rows()[i].placement == Placement::Device(dev) {
                    stages += demands[app].stages;
                    sram += demands[app].sram_bytes;
                }
            }
            assert!(
                stages <= budget.stages && sram <= budget.sram_bytes,
                "row {i}: {dev} over budget ({stages} stages, {sram} B)"
            );
        }
    }

    // --- Every tenant offloaded through its peak, and nothing flapped:
    // each tenant made exactly one offload and at most one return, with
    // no direct device-to-device hops.
    assert!(
        fleet.shifts.len() <= 7,
        "flapping: {} shifts {:?}",
        fleet.shifts.len(),
        fleet.shifts
    );
    for app in [KVS, DNS, PAX] {
        let shifts = fleet.shifts_for(app);
        assert!(
            (1..=2).contains(&shifts.len()),
            "app {app} shifted {} times: {shifts:?}",
            shifts.len()
        );
        assert!(shifts[0].1.is_offloaded(), "app {app}: {shifts:?}");
        if let Some(second) = shifts.get(1) {
            assert_eq!(second.1, Placement::Software, "app {app}: {shifts:?}");
        }
    }

    // --- Hysteresis: nothing moved before its sustain window.
    let sustain = INTERVAL.mul(3);
    let first = fleet.shifts.first().expect("at least one shift");
    assert!(first.0 >= sustain, "shift at {} before sustain", first.0);

    // --- The home placements: KVS on its own ToR A, DNS on its own
    // ToR B (no reason to pay a detour when home has room).
    assert_eq!(
        fleet.shifts_for(KVS)[0].1,
        Placement::Device(MultiTorRig::TOR_A)
    );
    assert_eq!(
        fleet.shifts_for(DNS)[0].1,
        Placement::Device(MultiTorRig::TOR_B)
    );

    // --- The spill: the Paxos program is homed on ToR A but lands on
    // ToR B, at a time when the KVS held its home device full.
    let (spill_at, spill_to) = fleet.shifts_for(PAX)[0];
    assert_eq!(spill_to, Placement::Device(MultiTorRig::TOR_B));
    let kvs_at_spill = fleet.per_app[KVS]
        .rows()
        .iter()
        .find(|r| r.t >= spill_at)
        .map(|r| r.placement)
        .unwrap();
    assert_eq!(
        kvs_at_spill,
        Placement::Device(MultiTorRig::TOR_A),
        "paxos spilled while its home device was not even contended"
    );

    // --- ...and only because the penalty-adjusted score still wins: the
    // recorded decision benefit is the raw §8 benefit with the cross-ToR
    // haircut applied, and it still clears the controller's offload floor.
    let spill = shared
        .decisions
        .iter()
        .find(|s| s.app == PAX && s.to == spill_to)
        .expect("spill decision recorded");
    let ctl = MultiTorRig::fleet_controller(INTERVAL);
    let raw = ctl.benefit_w(PAX, spill.rate_pps);
    let haircut = MultiTorRig::penalty().benefit_factor;
    assert!(
        (spill.benefit_w - raw * haircut).abs() < 1e-9,
        "spill priced at {} but raw × haircut is {}",
        spill.benefit_w,
        raw * haircut
    );
    assert!(
        spill.benefit_w >= ctl.config().min_benefit_w,
        "spill without a winning penalty-adjusted benefit: {} W",
        spill.benefit_w
    );

    // --- ToR B ends up shared: DNS and the spilled Paxos program were
    // co-resident on the remote device for at least a few intervals.
    let co_resident = (0..n_rows)
        .filter(|&i| {
            fleet.per_app[DNS].rows()[i].placement == Placement::Device(MultiTorRig::TOR_B)
                && fleet.per_app[PAX].rows()[i].placement == Placement::Device(MultiTorRig::TOR_B)
        })
        .count();
    assert!(co_resident >= 2, "dns+paxos never shared ToR B");

    // --- Correctness held across every shift.
    assert_eq!(shared.kvs_stats.corrupt, 0);
    assert_eq!(shared.kvs_stats.not_found, 0);
    assert_eq!(shared.dns_wrong, 0);
    assert!(
        shared.pax_acked > 11_000,
        "paxos made too little progress: {} acked",
        shared.pax_acked
    );

    // --- Energy: the fleet schedule beats all-software AND the best
    // schedule confined to a single device, by material margins.
    let best_single = shared.kvs_a_energy_j.min(shared.dns_pax_b_energy_j);
    assert!(
        fleet.energy_j < shared.sw_energy_j,
        "fleet {:.1} J vs all-software {:.1} J",
        fleet.energy_j,
        shared.sw_energy_j
    );
    assert!(
        fleet.energy_j < best_single,
        "fleet {:.1} J vs best single-device {:.1} J",
        fleet.energy_j,
        best_single
    );
    assert!(shared.sw_energy_j - fleet.energy_j > 0.01 * shared.sw_energy_j);
    assert!(best_single - fleet.energy_j > 4.0);
}

#[test]
fn per_app_timelines_record_the_placement_windows() {
    let fleet = &fleet_run().timeline;
    let placement_at = |app: usize, t: Nanos| {
        fleet.per_app[app]
            .rows()
            .iter()
            .find(|r| r.t >= t)
            .map(|r| r.placement)
            .unwrap()
    };
    // Mid-KVS-peak: KVS on its home ToR, the others still in software.
    assert_eq!(
        placement_at(KVS, Nanos::from_millis(1_100)),
        Placement::Device(DeviceId(0))
    );
    assert_eq!(
        placement_at(DNS, Nanos::from_millis(1_100)),
        Placement::Software
    );
    // Mid-DNS-peak: ToR B hosts the DNS; the KVS is back in software.
    assert_eq!(
        placement_at(DNS, Nanos::from_millis(2_400)),
        Placement::Device(DeviceId(1))
    );
    assert_eq!(
        placement_at(KVS, Nanos::from_millis(2_400)),
        Placement::Software
    );
    // The Paxos window sits on the *remote* ToR.
    assert_eq!(
        placement_at(PAX, Nanos::from_millis(1_700)),
        Placement::Device(DeviceId(1))
    );

    // Hardware windows answer faster than software ones for the tenants
    // that offloaded at home...
    let kvs = &fleet.per_app[KVS];
    let kvs_sw = kvs
        .median_latency_ns(Nanos::ZERO, Nanos::from_millis(900))
        .unwrap();
    let kvs_hw = kvs
        .median_latency_ns(Nanos::from_millis(1_200), Nanos::from_millis(1_800))
        .unwrap();
    assert!(
        kvs_sw as f64 / kvs_hw as f64 > 2.0,
        "kvs sw {kvs_sw} vs hw {kvs_hw}"
    );
    // ...and even across the inter-ToR detour: the remote P4xos leader
    // still clearly beats the software leader (the rest of the quorum
    // path — software acceptors and learner — is common to both, so the
    // command latency roughly halves rather than collapsing), and its
    // medians carry the extra round-trips of the detour (≥ 4 µs of the
    // total).
    let pax = &fleet.per_app[PAX];
    let pax_sw = pax
        .median_latency_ns(Nanos::ZERO, Nanos::from_millis(900))
        .unwrap();
    let pax_hw = pax
        .median_latency_ns(Nanos::from_millis(1_500), Nanos::from_millis(2_100))
        .unwrap();
    assert!(
        pax_sw as f64 / pax_hw as f64 > 1.5,
        "paxos sw {pax_sw} vs remote hw {pax_hw}"
    );
    let detour_ns = 2 * MultiTorRig::penalty().extra_latency.as_nanos();
    assert!(
        pax_hw > detour_ns,
        "remote paxos median {pax_hw} ns cannot be below the detour {detour_ns} ns"
    );
}

/// The most slots a §9.2 acceptor holds at the end of a run: the floor
/// trails the replica's `slot_out` by about one slot report period
/// (`inc::paxos::node::TICK`), a few commands at the Paxos tenant's
/// rates, with room to spare. An acceptor that kept the log held one
/// slot per command, about 36 000 on the benchmark's trial.
const ACCEPTOR_SLOTS_CEILING: usize = 64;

#[test]
fn the_floor_reaches_the_acceptors() {
    let kept = |horizon: Nanos| {
        let mut rig = MultiTorRig::new(42, KEYS, NAMES, MultiTorRig::contended_profiles(PERIOD));
        let mut ctl = MultiTorRig::fleet_controller(INTERVAL);
        rig.run(&mut ctl, horizon);
        assert!(rig.pax_acked() > 1_000);
        let acceptors = rig.pax_acceptors.iter().map(|&a| {
            let node = rig.sim.node_ref::<PaxosNode<Acceptor>>(a);
            node.role().accepted_len()
        });
        acceptors.max().unwrap()
    };
    // At the end of one diurnal period and of two, and in the Paxos
    // tenant's busy stretch, when commands arrive fastest.
    let (once, twice) = (kept(HORIZON), kept(HORIZON + HORIZON));
    let busy = kept(PERIOD.mul_f64(0.42));
    println!("acceptor slots: {once} after one period, {twice} after two, {busy} when busy");
    for slots in [once, busy] {
        assert!(slots <= ACCEPTOR_SLOTS_CEILING, "{slots} slots");
    }
    assert!(
        twice <= once,
        "{twice} slots after twice the run, {once} after one"
    );
}

/// The wire-frame golden of one seed: what one simulated second of the
/// benchmark's rig put on its links, as text. One line per link per
/// [`WIRE_WINDOW`] that carried frames — `window_ms node port frames
/// bytes digest`, the digest an FNV-1a over that link's frames in the
/// window (time, length and bytes) folded to 32 bits — and a last `total` line: every
/// frame, the FNV-1a over all of them in send order (time, sender,
/// egress port, length, bytes), the controller's shift-log digest and
/// `FleetTimeline::energy_j`'s bits.
fn wire_golden_text(seed: u64) -> String {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::fmt::Write;
    use std::rc::Rc;

    /// `(window, node, port)` → frames, bytes, digest; and the run's
    /// frame count and send-order digest.
    type Tally = (BTreeMap<(u64, u32, u16), (u64, u64, u64)>, u64, u64);
    let mut rig = MultiTorRig::new(seed, KEYS, NAMES, MultiTorRig::contended_profiles(PERIOD));
    let mut ctl = MultiTorRig::fleet_controller(INTERVAL);
    let tapped: Rc<RefCell<Tally>> = Rc::new(RefCell::new((BTreeMap::new(), 0, FNV_OFFSET)));
    let tap = Rc::clone(&tapped);
    rig.sim.set_link_tap(move |now, from, port, pkt| {
        let (links, frames, h) = &mut *tap.borrow_mut();
        fnv(h, &now.as_nanos().to_le_bytes());
        fnv(h, &from.0.to_le_bytes());
        fnv(h, &port.0.to_le_bytes());
        fnv(h, &(pkt.data.len() as u64).to_le_bytes());
        fnv(h, &pkt.data);
        *frames += 1;
        let window = now.as_nanos() / WIRE_WINDOW.as_nanos() * WIRE_WINDOW_MS;
        let link = links
            .entry((window, from.0, port.0))
            .or_insert((0, 0, FNV_OFFSET));
        link.0 += 1;
        link.1 += pkt.data.len() as u64;
        fnv(&mut link.2, &now.as_nanos().to_le_bytes());
        fnv(&mut link.2, &(pkt.data.len() as u64).to_le_bytes());
        fnv(&mut link.2, &pkt.data);
    });
    let timeline = rig.run(&mut ctl, Nanos::from_secs(1));

    let (links, frames, digest) = &*tapped.borrow();
    let mut text = String::new();
    for ((window, node, port), (n, bytes, h)) in links {
        let h = (h ^ (h >> 32)) as u32;
        let _ = writeln!(text, "{window} {node} {port} {n} {bytes} {h:08x}");
    }
    let (shift, energy) = (shift_log_digest(ctl.shifts()), timeline.energy_j.to_bits());
    let _ = writeln!(text, "total {frames} {digest} {shift} {energy}");
    text
}

/// The window a wire-frame golden line covers, in ms.
const WIRE_WINDOW_MS: u64 = 10;
const WIRE_WINDOW: Nanos = Nanos::from_millis(WIRE_WINDOW_MS);

/// The seeds with a wire-frame golden.
const WIRE_SEEDS: [u64; 3] = [1, 7, 42];

fn wire_golden_path(seed: u64) -> std::path::PathBuf {
    let file = format!("tests/golden/multi_tor_wire_{seed}.txt");
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file)
}

/// The first line where `got` and `want` differ, with three lines of
/// context on either side; `None` when they are the same.
fn first_divergence(got: &str, want: &str) -> Option<String> {
    let (got, want): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let at = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i))?;
    let context = |lines: &[&str]| {
        let span = at.saturating_sub(3)..(at + 4).min(lines.len());
        let shown: Vec<String> = span
            .map(|i| format!("  {:>5} {}", i + 1, lines[i]))
            .collect();
        shown.join("\n")
    };
    Some(format!(
        "first divergent line {}\nrecorded:\n{}\nthis run:\n{}",
        at + 1,
        context(&want),
        context(&got)
    ))
}

#[test]
fn wire_frames_match_the_recorded_golden_runs() {
    // A frame's length feeds link serialisation time and its bytes feed
    // every parser downstream, so one byte of drift in any codec, the
    // IPv4 ident or a checksum moves a line here. Re-record on purpose
    // with `cargo test --release --test multi_tor -- --ignored
    // record_the_wire_frame_goldens`.
    for seed in WIRE_SEEDS {
        let path = wire_golden_path(seed);
        let want =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let got = wire_golden_text(seed);
        if let Some(diff) = first_divergence(&got, &want) {
            panic!(
                "seed {seed} drifted on the wire ({}):\n{diff}",
                path.display()
            );
        }
    }
}

#[test]
#[ignore = "rewrites tests/golden/multi_tor_wire_*.txt"]
fn record_the_wire_frame_goldens() {
    for seed in WIRE_SEEDS {
        let path = wire_golden_path(seed);
        std::fs::write(&path, wire_golden_text(seed))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

#[test]
fn the_wire_frame_goldens_fold_back_to_their_totals() {
    // The per-link lines account for every frame the total line counts.
    for seed in WIRE_SEEDS {
        let text = std::fs::read_to_string(wire_golden_path(seed)).unwrap();
        let (lines, total) = text.trim_end().rsplit_once('\n').unwrap();
        let total: u64 = total.split(' ').nth(1).unwrap().parse().unwrap();
        let frames: u64 = lines
            .lines()
            .map(|l| l.split(' ').nth(3).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(frames, total, "seed {seed}: lines and total disagree");
    }
}
