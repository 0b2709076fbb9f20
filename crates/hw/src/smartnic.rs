//! SmartNIC architecture models (§10: "FPGA, SmartNIC or Switch?").
//!
//! §10 surveys four SmartNIC architectures and their trade-offs. These
//! models carry the survey's quantitative anchors — the 25 W PCIe power
//! envelope, AccelNet's 17–19 W at ~4 Mpps/W, and the SoC "resource wall" —
//! so the §10 comparison table can be regenerated.

/// The four architectural approaches §10 identifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SmartNicArch {
    /// FPGA-based (AccelNet, Napatech, Netcope).
    FpgaBased,
    /// ASIC-based (Netronome Agilio class).
    AsicBased,
    /// Combined ASIC + FPGA (Innova-2 class).
    AsicFpgaHybrid,
    /// SoC-based (BlueField class).
    SocBased,
}

/// A SmartNIC platform description.
#[derive(Clone, Copy, Debug)]
pub struct SmartNicModel {
    /// Architecture family.
    pub arch: SmartNicArch,
    /// Standalone power at load, watts (§10: typically ≤ 25 W, the PCIe
    /// slot budget).
    pub power_w: f64,
    /// Peak small-packet processing rate, Mpps.
    pub peak_mpps: f64,
    /// Fraction of the device's nominal capacity actually reachable by an
    /// offloaded network function before hitting the resource wall (§10:
    /// SoCs "face earlier the resource wall").
    pub usable_fraction: f64,
    /// Relative implementation flexibility, 0–10 (qualitative, from §10's
    /// discussion; FPGA highest).
    pub flexibility: u8,
}

/// The PCIe slot power budget that bounds SmartNICs (§10).
pub const PCIE_SLOT_BUDGET_W: f64 = 25.0;

impl SmartNicModel {
    /// Azure AccelNet-class FPGA SmartNIC: 17–19 W standalone on a 40GE
    /// board, close to 4 Mpps/W (§10).
    pub fn accelnet_fpga() -> Self {
        SmartNicModel {
            arch: SmartNicArch::FpgaBased,
            power_w: 18.0,
            peak_mpps: 70.0,
            usable_fraction: 0.95,
            flexibility: 9,
        }
    }

    /// ASIC-based SmartNIC (Agilio class): efficient but less malleable.
    pub fn asic_nic() -> Self {
        SmartNicModel {
            arch: SmartNicArch::AsicBased,
            power_w: 20.0,
            peak_mpps: 100.0,
            usable_fraction: 0.9,
            flexibility: 5,
        }
    }

    /// Hybrid ASIC + FPGA (Innova-2 class).
    pub fn hybrid_nic() -> Self {
        SmartNicModel {
            arch: SmartNicArch::AsicFpgaHybrid,
            power_w: 22.0,
            peak_mpps: 80.0,
            usable_fraction: 0.9,
            flexibility: 7,
        }
    }

    /// SoC-based SmartNIC (BlueField class): cores plus programmable
    /// resources share the budget, hitting the resource wall earlier.
    pub fn soc_nic() -> Self {
        SmartNicModel {
            arch: SmartNicArch::SocBased,
            power_w: 24.0,
            peak_mpps: 40.0,
            usable_fraction: 0.6,
            flexibility: 8,
        }
    }

    /// Effective peak rate for an offloaded function, Mpps.
    pub fn effective_mpps(&self) -> f64 {
        self.peak_mpps * self.usable_fraction
    }

    /// Millions of operations per watt at the effective peak.
    // inc-lint: allow(unreached-pub): tests/paper_claims.rs checks the §10 survey with it
    pub fn mops_per_watt(&self) -> f64 {
        self.effective_mpps() / self.power_w
    }

    /// Whether the device respects the PCIe slot budget.
    // inc-lint: allow(unreached-pub): tests/paper_claims.rs checks the §10 survey with it
    pub fn within_pcie_budget(&self) -> bool {
        self.power_w <= PCIE_SLOT_BUDGET_W
    }
}

/// The full §10 comparison set.
// inc-lint: allow(unreached-pub): tests/paper_claims.rs checks the §10 survey
pub fn survey() -> Vec<SmartNicModel> {
    vec![
        SmartNicModel::accelnet_fpga(),
        SmartNicModel::asic_nic(),
        SmartNicModel::hybrid_nic(),
        SmartNicModel::soc_nic(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accelnet_matches_section_10_anchors() {
        let m = SmartNicModel::accelnet_fpga();
        assert!((17.0..=19.0).contains(&m.power_w));
        // §10: "providing close to 4 Mpps/W for some use cases".
        let eff = m.mops_per_watt();
        assert!((3.0..4.5).contains(&eff), "{eff}");
    }

    #[test]
    fn all_within_pcie_budget() {
        for m in survey() {
            assert!(m.within_pcie_budget(), "{:?} exceeds slot budget", m.arch);
        }
    }

    #[test]
    fn soc_hits_resource_wall_first() {
        let soc = SmartNicModel::soc_nic();
        let fpga = SmartNicModel::accelnet_fpga();
        assert!(soc.usable_fraction < fpga.usable_fraction);
        assert!(soc.effective_mpps() < fpga.effective_mpps());
    }

    #[test]
    fn survey_covers_all_architectures() {
        let archs: Vec<_> = survey().iter().map(|m| m.arch).collect();
        assert!(archs.contains(&SmartNicArch::FpgaBased));
        assert!(archs.contains(&SmartNicArch::AsicBased));
        assert!(archs.contains(&SmartNicArch::AsicFpgaHybrid));
        assert!(archs.contains(&SmartNicArch::SocBased));
    }
}
