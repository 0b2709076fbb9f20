//! Analytic deployment models of the three case-study applications.
//!
//! The Figure 3 and Figure 5 sweeps cover offered rates up to line rate
//! (13 Mpps); regenerating them point-by-point with the event simulator
//! would be wasteful, so each deployment also exposes a *steady-state*
//! power model built from the same calibration constants the simulation
//! nodes use. The simulator validates spot points against these curves:
//! the `sim check` rows of `inc-bench fig 3a` and `fig 3c`
//! (`inc_bench::figures::{fig3a, fig3c}`).

use inc_power::{calib, CpuModel};

/// A named power-versus-rate deployment model.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// Display name, matching the paper's legend.
    pub name: &'static str,
    /// Peak sustainable rate, packets (messages, queries) per second.
    pub peak_pps: f64,
    /// Idle power, watts.
    pub idle_w: f64,
    kind: Kind,
}

#[derive(Clone, Debug)]
enum Kind {
    /// Host software: CPU model + NIC, utilisation driven by rate.
    Software {
        cpu: CpuModel,
        nic_w: f64,
        /// Core-seconds consumed per request.
        core_s_per_req: f64,
        /// A polling (DPDK) deployment keeps one core at 100 %.
        polling: bool,
    },
    /// An accelerator card: the idle power of the host it sits in (none
    /// for the "standalone" curves of Figure 3) plus the card's own.
    Card {
        host_idle_w: f64,
        card_idle_w: f64,
        card_dyn_max_w: f64,
    },
}

impl Deployment {
    /// Power at offered rate `pps` (clamped to the peak).
    pub fn power_w(&self, pps: f64) -> f64 {
        let r = pps.clamp(0.0, self.peak_pps);
        match &self.kind {
            Kind::Software {
                cpu,
                nic_w,
                core_s_per_req,
                polling,
            } => {
                let mut util = r * core_s_per_req;
                if *polling {
                    util = util.max(1.0);
                }
                cpu.power_w(util) + nic_w
            }
            Kind::Card {
                host_idle_w,
                card_idle_w,
                card_dyn_max_w,
            } => host_idle_w + card_idle_w + card_dyn_max_w * (r / self.peak_pps),
        }
    }

    fn software(
        name: &'static str,
        cpu: CpuModel,
        nic_w: f64,
        peak_pps: f64,
        polling: bool,
    ) -> Self {
        let cores = cpu.cores as f64;
        let kind = Kind::Software {
            cpu,
            nic_w,
            core_s_per_req: cores / peak_pps,
            polling,
        };
        let mut d = Deployment {
            name,
            peak_pps,
            idle_w: 0.0,
            kind,
        };
        d.idle_w = d.power_w(0.0);
        d
    }

    /// A card in a host idling at `host_idle_w` (0.0 for a standalone
    /// card: `0.0 + x` is `x`, bit for bit).
    fn card(
        name: &'static str,
        host_idle_w: f64,
        card_idle_w: f64,
        card_dyn_max_w: f64,
        peak_pps: f64,
    ) -> Self {
        Deployment {
            name,
            peak_pps,
            idle_w: host_idle_w + card_idle_w,
            kind: Kind::Card {
                host_idle_w,
                card_idle_w,
                card_dyn_max_w,
            },
        }
    }
}

/// One software deployment with one (single-core) libpaxos worker: the
/// core-seconds per request equal `1 / peak` (idle power does not
/// depend on them).
fn software_single_core(
    name: &'static str,
    cpu: CpuModel,
    nic_w: f64,
    peak_pps: f64,
    polling: bool,
) -> Deployment {
    let mut d = Deployment::software(name, cpu, nic_w, peak_pps, polling);
    if let Kind::Software { core_s_per_req, .. } = &mut d.kind {
        *core_s_per_req = 1.0 / peak_pps;
    }
    d
}

/// The Figure 3(a) deployments: memcached, LaKe in-host, LaKe standalone.
pub fn kvs_models() -> Vec<Deployment> {
    vec![
        Deployment::software(
            "memcached",
            CpuModel::i7_6700k(),
            calib::MELLANOX_NIC_W,
            calib::MEMCACHED_PEAK_PPS,
            false,
        ),
        Deployment::card(
            "LaKe",
            calib::I7_PLATFORM_IDLE_W,
            calib::LAKE_STANDALONE_IDLE_W,
            calib::LAKE_DYNAMIC_MAX_W,
            calib::LAKE_LINE_RATE_PPS,
        ),
        Deployment::card(
            "LaKe standalone",
            0.0,
            calib::LAKE_STANDALONE_IDLE_W,
            calib::LAKE_DYNAMIC_MAX_W,
            calib::LAKE_LINE_RATE_PPS,
        ),
    ]
}

/// The memcached curve with the Intel X520 NIC (§4.2: crossover moves past
/// 300 Kpps, peak drops).
pub fn kvs_memcached_x520() -> Deployment {
    Deployment::software(
        "memcached (X520)",
        CpuModel::i7_6700k_x520(),
        calib::INTEL_X520_NIC_W,
        700_000.0,
        false,
    )
}

/// The Figure 3(b) deployments: eight curves (four per role).
pub fn paxos_models() -> Vec<Deployment> {
    let i7 = CpuModel::i7_6700k_single_core_service;
    vec![
        software_single_core(
            "libpaxos Leader",
            i7(),
            calib::INTEL_X520_NIC_W,
            calib::LIBPAXOS_LEADER_PEAK_MPS,
            false,
        ),
        software_single_core(
            "DPDK Leader",
            CpuModel::i7_6700k(),
            calib::INTEL_X520_NIC_W,
            calib::DPDK_LEADER_PEAK_MPS,
            true,
        ),
        Deployment::card(
            "P4xos Leader",
            calib::I7_PLATFORM_IDLE_W,
            calib::P4XOS_STANDALONE_IDLE_W,
            calib::P4XOS_DYNAMIC_MAX_W,
            calib::P4XOS_FPGA_PEAK_MPS,
        ),
        Deployment::card(
            "Standalone Leader",
            0.0,
            calib::P4XOS_STANDALONE_IDLE_W,
            calib::P4XOS_DYNAMIC_MAX_W,
            calib::P4XOS_FPGA_PEAK_MPS,
        ),
        software_single_core(
            "libpaxos Acceptor",
            i7(),
            calib::INTEL_X520_NIC_W,
            calib::LIBPAXOS_ACCEPTOR_PEAK_MPS,
            false,
        ),
        software_single_core(
            "DPDK Acceptor",
            CpuModel::i7_6700k(),
            calib::INTEL_X520_NIC_W,
            calib::DPDK_ACCEPTOR_PEAK_MPS,
            true,
        ),
        Deployment::card(
            "P4xos Acceptor",
            calib::I7_PLATFORM_IDLE_W,
            calib::P4XOS_STANDALONE_IDLE_W,
            calib::P4XOS_DYNAMIC_MAX_W,
            calib::P4XOS_FPGA_PEAK_MPS,
        ),
        Deployment::card(
            "Standalone Acceptor",
            0.0,
            calib::P4XOS_STANDALONE_IDLE_W,
            calib::P4XOS_DYNAMIC_MAX_W,
            calib::P4XOS_FPGA_PEAK_MPS,
        ),
    ]
}

/// The Figure 3(c) deployments: NSD, Emu in-host, Emu standalone.
pub fn dns_models() -> Vec<Deployment> {
    vec![
        Deployment::software(
            "NSD (SW)",
            CpuModel::i7_6700k_nsd(),
            calib::INTEL_X520_NIC_W,
            calib::NSD_PEAK_RPS,
            false,
        ),
        Deployment::card(
            "Emu (HW)",
            calib::I7_PLATFORM_IDLE_W,
            calib::EMU_DNS_STANDALONE_IDLE_W,
            calib::EMU_DNS_DYNAMIC_MAX_W,
            calib::EMU_DNS_PEAK_RPS,
        ),
        Deployment::card(
            "Standalone",
            0.0,
            calib::EMU_DNS_STANDALONE_IDLE_W,
            calib::EMU_DNS_DYNAMIC_MAX_W,
            calib::EMU_DNS_PEAK_RPS,
        ),
    ]
}

/// Finds the crossover rate between a software and a hardware deployment
/// (the §4 "crossing point").
pub fn crossover(sw: &Deployment, hw: &Deployment, hi_pps: f64) -> Option<f64> {
    inc_power::crossover_fn(|r| sw.power_w(r), |r| hw.power_w(r), 0.0, hi_pps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(models: &'a [Deployment], name: &str) -> &'a Deployment {
        models.iter().find(|d| d.name == name).expect("model")
    }

    #[test]
    fn kvs_idle_levels_match_figure_3a() {
        let models = kvs_models();
        let mc = find(&models, "memcached");
        let lake = find(&models, "LaKe");
        assert!((mc.idle_w - 39.0).abs() < 0.1, "{}", mc.idle_w);
        assert!((lake.idle_w - 58.7).abs() < 0.5, "{}", lake.idle_w);
        // LaKe stays nearly flat to line rate.
        assert!(lake.power_w(13e6) - lake.idle_w <= 2.0 + 1e-9);
    }

    #[test]
    fn kvs_crossover_near_80kpps() {
        let models = kvs_models();
        let mc = find(&models, "memcached");
        let lake = find(&models, "LaKe");
        let x = crossover(mc, lake, 1e6).expect("must cross");
        assert!(
            (60_000.0..110_000.0).contains(&x),
            "crossover at {x} pps, expected ≈80 Kpps"
        );
    }

    #[test]
    fn kvs_x520_crossover_moves_past_300kpps() {
        let models = kvs_models();
        let lake = find(&models, "LaKe");
        let x520 = kvs_memcached_x520();
        let x = crossover(&x520, lake, 1e6).expect("must cross");
        assert!(x > 300_000.0, "crossover at {x}");
        // But the X520 host peaks lower (§4.2).
        assert!(x520.peak_pps < calib::MEMCACHED_PEAK_PPS);
    }

    #[test]
    fn paxos_crossover_near_150kpps() {
        let models = paxos_models();
        let lib = find(&models, "libpaxos Acceptor");
        let p4 = find(&models, "P4xos Acceptor");
        let x = crossover(lib, p4, 1e6).expect("must cross");
        assert!(
            (100_000.0..200_000.0).contains(&x),
            "crossover at {x}, expected ≈150 Kpps"
        );
    }

    #[test]
    fn dpdk_power_high_and_flat() {
        let models = paxos_models();
        let dpdk = find(&models, "DPDK Acceptor");
        let idle = dpdk.power_w(0.0);
        let full = dpdk.power_w(dpdk.peak_pps);
        // §4.3: "high even under low load, and remains almost constant".
        assert!(idle > 60.0, "{idle}");
        assert!((full - idle) / idle < 0.05, "idle {idle} full {full}");
    }

    #[test]
    fn p4xos_in_host_10w_below_lake() {
        let kvs = kvs_models();
        let paxos = paxos_models();
        let lake = find(&kvs, "LaKe");
        let p4 = find(&paxos, "P4xos Acceptor");
        let gap = lake.idle_w - p4.idle_w;
        assert!((9.0..12.0).contains(&gap), "gap {gap}");
    }

    #[test]
    fn dns_matches_section_4_4() {
        let models = dns_models();
        let nsd = find(&models, "NSD (SW)");
        let emu = find(&models, "Emu (HW)");
        // Emu: 47.5 W idle rising to less than 48 W.
        assert!((emu.idle_w - 47.5).abs() < 0.1);
        assert!(emu.power_w(emu.peak_pps) < 48.0 + 1e-9);
        // Idle server below 40 W; crossover under 200 Kpps; peak ~2x Emu.
        assert!(nsd.idle_w < 40.0);
        let x = crossover(nsd, emu, 1e6).expect("must cross");
        assert!(x < 200_000.0, "crossover {x}");
        let ratio = nsd.power_w(nsd.peak_pps) / emu.power_w(emu.peak_pps);
        assert!((1.7..2.5).contains(&ratio), "peak ratio {ratio}");
    }

    #[test]
    fn standalone_curves_exclude_host() {
        let models = kvs_models();
        let in_host = find(&models, "LaKe");
        let alone = find(&models, "LaKe standalone");
        let gap = in_host.power_w(1e6) - alone.power_w(1e6);
        assert!((gap - calib::I7_PLATFORM_IDLE_W).abs() < 1e-9);
    }

    #[test]
    fn efficiency_ladder_matches_section_6() {
        use inc_power::EfficiencyClass;
        let models = paxos_models();
        let lib = find(&models, "libpaxos Acceptor");
        let p4 = find(&models, "Standalone Acceptor");
        // Software: 10K's msg/W (on its dynamic power, §6's comparison
        // basis); FPGA standalone: 100K's msg/W.
        let sw_dyn =
            inc_power::ops_per_dynamic_watt(lib.peak_pps, lib.power_w(lib.peak_pps), lib.idle_w)
                .unwrap();
        assert_eq!(EfficiencyClass::of(sw_dyn), EfficiencyClass::TensOfK);
        let fpga = inc_power::ops_per_watt(p4.peak_pps, p4.power_w(p4.peak_pps));
        assert_eq!(EfficiencyClass::of(fpga), EfficiencyClass::HundredsOfK);
    }
}
