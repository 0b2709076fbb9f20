//! One test per headline claim of the paper, evaluated against the
//! calibrated models. This is the regression net for the calibration
//! constants of `crates/power/src/calib.rs`.

use inc::hw::{SmartNicModel, TofinoModel, TofinoProgram};
use inc::ondemand::apps::{crossover, dns_models, kvs_memcached_x520, kvs_models, paxos_models};
use inc::ondemand::{OnDemandEnvelope, TorRack};
use inc::power::{calib, ops_per_dynamic_watt, ops_per_watt, CpuModel, EfficiencyClass};

fn find<'a>(models: &'a [inc::ondemand::Deployment], name: &str) -> &'a inc::ondemand::Deployment {
    models
        .iter()
        .find(|m| m.name == name)
        .expect("model exists")
}

// --- §4.2 / Figure 3(a) ---

#[test]
fn claim_kvs_idle_39w_and_lake_59w() {
    let m = kvs_models();
    assert!((find(&m, "memcached").idle_w - 39.0).abs() < 0.2);
    assert!((find(&m, "LaKe").idle_w - 59.0).abs() < 0.6);
}

#[test]
fn claim_kvs_crossover_about_80kpps() {
    let m = kvs_models();
    let x = crossover(find(&m, "memcached"), find(&m, "LaKe"), 1e6).unwrap();
    assert!((60e3..110e3).contains(&x), "{x}");
}

#[test]
fn claim_x520_moves_crossover_past_300kpps_but_lowers_peak() {
    let m = kvs_models();
    let x520 = kvs_memcached_x520();
    let x = crossover(&x520, find(&m, "LaKe"), 1e6).unwrap();
    assert!(x > 300e3, "{x}");
    assert!(x520.peak_pps < find(&m, "memcached").peak_pps);
}

#[test]
fn claim_lake_line_rate_at_flat_power() {
    let m = kvs_models();
    let lake = find(&m, "LaKe");
    assert!(lake.peak_pps >= 13e6);
    assert!(lake.power_w(13e6) - lake.idle_w <= 2.0 + 1e-9);
}

// --- §4.3 / Figure 3(b) ---

#[test]
fn claim_paxos_crossover_150kmps() {
    let m = paxos_models();
    let x = crossover(
        find(&m, "libpaxos Acceptor"),
        find(&m, "P4xos Acceptor"),
        1e6,
    )
    .unwrap();
    assert!((120e3..180e3).contains(&x), "{x}");
}

#[test]
fn claim_p4xos_base_10w_below_lake() {
    let kvs = kvs_models();
    let paxos = paxos_models();
    let gap = find(&kvs, "LaKe").idle_w - find(&paxos, "P4xos Acceptor").idle_w;
    assert!((9.0..12.0).contains(&gap), "{gap}");
}

#[test]
fn claim_dpdk_high_flat_power() {
    let m = paxos_models();
    let dpdk = find(&m, "DPDK Acceptor");
    assert!(dpdk.idle_w > 55.0);
    let spread = dpdk.power_w(dpdk.peak_pps) - dpdk.idle_w;
    assert!(spread < 3.0, "{spread}");
}

#[test]
fn claim_p4xos_standalone_18_2w_plus_1_2w_dynamic() {
    let m = paxos_models();
    let alone = find(&m, "Standalone Acceptor");
    assert!((alone.idle_w - 18.2).abs() < 1e-9);
    assert!((alone.power_w(alone.peak_pps) - 19.4).abs() < 1e-9);
}

// --- §4.4 / Figure 3(c) ---

#[test]
fn claim_dns_emu_47_5_to_48w_and_2x_peak_ratio() {
    let m = dns_models();
    let emu = find(&m, "Emu (HW)");
    let nsd = find(&m, "NSD (SW)");
    assert!((emu.idle_w - 47.5).abs() < 0.1);
    assert!(emu.power_w(emu.peak_pps) < 48.0 + 1e-9);
    assert!(nsd.idle_w < 40.0);
    let x = crossover(nsd, emu, 1e6).unwrap();
    assert!(x < 200e3, "{x}");
    let ratio = nsd.power_w(nsd.peak_pps) / emu.power_w(emu.peak_pps);
    assert!((1.7..2.5).contains(&ratio), "{ratio}");
}

// --- §6 (ASIC) ---

#[test]
fn claim_asic_overheads_and_ladder() {
    let t = TofinoModel::snake_32x40();
    let l2 = t.power_norm(TofinoProgram::L2Forward, 1.0);
    let p4 = t.power_norm(TofinoProgram::L2WithP4xos, 1.0);
    let diag = t.power_norm(TofinoProgram::Diag, 1.0);
    assert!((p4 - l2) / l2 <= 0.0201);
    assert!((diag - l2) / l2 >= 0.047);
    assert!(diag - l2 > 2.0 * (p4 - l2));
    // Idle equal; spread < 20 %.
    assert_eq!(
        t.power_norm(TofinoProgram::L2Forward, 0.0),
        t.power_norm(TofinoProgram::L2WithP4xos, 0.0)
    );
    assert!((p4 - t.power_norm(TofinoProgram::L2WithP4xos, 0.0)) / p4 < 0.20);
    // ×1000 at 10 % utilization with 1/3 the dynamic power.
    let asic_rate = t.p4xos_peak_mps() * 0.10;
    assert!(asic_rate / 180e3 >= 1000.0);
    let models = paxos_models();
    let lib = find(&models, "libpaxos Acceptor");
    let server_dyn = lib.power_w(180e3) - lib.idle_w;
    let asic_dyn = t.dynamic_w(TofinoProgram::L2WithP4xos, 0.10);
    assert!(
        asic_dyn <= server_dyn / 2.0,
        "asic {asic_dyn} vs server {server_dyn}"
    );
}

#[test]
fn claim_efficiency_ladder_sw_fpga_asic() {
    let models = paxos_models();
    let lib = find(&models, "libpaxos Acceptor");
    let fpga = find(&models, "Standalone Acceptor");
    let t = TofinoModel::snake_32x40();
    let sw = ops_per_dynamic_watt(lib.peak_pps, lib.power_w(lib.peak_pps), lib.idle_w).unwrap();
    let fpga_eff = ops_per_watt(fpga.peak_pps, fpga.power_w(fpga.peak_pps));
    let asic_eff = calib::P4XOS_ASIC_PEAK_MPS / t.power_w(TofinoProgram::L2WithP4xos, 1.0);
    assert_eq!(EfficiencyClass::of(sw), EfficiencyClass::TensOfK);
    assert_eq!(EfficiencyClass::of(fpga_eff), EfficiencyClass::HundredsOfK);
    assert_eq!(
        EfficiencyClass::of(asic_eff),
        EfficiencyClass::TensOfMillions
    );
}

// --- §7 (server) ---

#[test]
fn claim_xeon_power_profile() {
    let xeon = CpuModel::xeon_e5_2660_v4_dual();
    assert!((xeon.power_w(0.0) - 56.0).abs() < 0.5);
    assert!((xeon.power_w(1.0) - 91.0).abs() < 1.0);
    assert!((xeon.power_w(0.1) - 86.0).abs() < 1.5);
    assert!((xeon.power_w(28.0) - 134.0).abs() < 1.0);
    let marginal = xeon.power_w(5.0) - xeon.power_w(4.0);
    assert!((1.0..2.0).contains(&marginal));
}

// --- §5 (FPGA lessons) ---

#[test]
fn claim_lake_component_budget() {
    let (logic, pe) = (calib::LAKE_LOGIC_W, calib::LAKE_PE_W);
    assert!((logic - 2.2).abs() < 1e-9);
    assert!((pe - 0.25).abs() < 1e-9);
    let mems = calib::SUME_DRAM_W + calib::SUME_SRAM_W;
    assert!(mems >= 10.0, "{mems}");
    let (reset, gate) = (
        calib::MEMORY_RESET_SAVING,
        calib::LAKE_CLOCK_GATING_SAVING_W,
    );
    assert!((reset - 0.40).abs() < 1e-9);
    assert!(gate < 1.0, "{gate}");
}

// --- §9 (on demand) ---

#[test]
fn claim_on_demand_tracks_cheaper_placement_and_saves_power() {
    let m = kvs_models();
    let env = OnDemandEnvelope {
        software: find(&m, "memcached").clone(),
        hardware: find(&m, "LaKe").clone(),
        parked_card_w: calib::NETFPGA_REFERENCE_NIC_W + calib::LAKE_PARKED_GAP_W,
        software_nic_w: calib::MELLANOX_NIC_W,
    };
    let pts = env.sample(1.2e6, 60);
    // Tracks the min everywhere.
    for p in &pts {
        let best = env
            .software_placement_w(p.rate_pps)
            .min(env.hardware_placement_w(p.rate_pps));
        assert!((p.on_demand_w - best).abs() < 1e-6);
    }
    // Saves ≈50 % versus software at the software's peak.
    let peak = env.software.peak_pps;
    let saving = 1.0 - env.hardware_placement_w(peak) / env.software.power_w(peak);
    assert!(saving > 0.40, "{saving}");
}

#[test]
fn claim_tor_tipping_point_near_zero() {
    let rack = TorRack::typical();
    assert!(rack.switch_dynamic_w(1e6) <= 1.0);
    assert!(rack.tipping_point_pps() < 10_000.0);
}

// --- §10 (platform survey) ---

#[test]
fn claim_accelnet_power_and_efficiency() {
    let m = SmartNicModel::accelnet_fpga();
    assert!((17.0..=19.0).contains(&m.power_w));
    assert!((3.0..4.5).contains(&m.mops_per_watt()));
    assert!(inc::hw::survey().iter().all(|n| n.within_pcie_budget()));
}
