//! The NetFPGA SUME platform model (§3.4, Figure 2).
//!
//! All three applications share this platform: four 10GE front-panel ports,
//! a PCIe/DMA path to the host, NetFPGA shell modules (input/output
//! arbiters), and an application core compiled from Verilog, P4 or C#. The
//! [`SumeCard`] struct supplies the physical pieces: the module-composed
//! power model with its parking states, port conventions, line-rate
//! limits, and the DMA path timing. The card shell
//! ([`CardShell`](crate::CardShell)) wraps it into the bump in the wire
//! that `inc-kvs::LakeDevice` and `inc-dns::EmuDevice` embed — classifier
//! hook, placement, parking policy, embedded controller, rate meter and
//! port forwarding — and `inc-paxos::Platform::fpga` pairs it with a
//! pipeline station for P4xos.

use inc_power::{calib, DevicePower, Module, ModuleState};
use inc_sim::{Nanos, PortId};

/// The node-local port used for the PCIe/DMA path to the host.
pub const HOST_DMA_PORT: PortId = PortId(4);

/// One-way PCIe + DMA + driver hand-off latency between the card and host
/// software. Chosen so that a LaKe hardware miss serviced by memcached
/// lands at the paper's 13.5 µs median (§5.3): two DMA crossings plus the
/// host service time.
pub const PCIE_DMA_ONE_WAY: Nanos = Nanos::from_nanos(900);

/// Base pipeline latency of a NetFPGA design from MAC-in to MAC-out,
/// excluding memory accesses: §9.5 reports almost-constant latency with a
/// ±100 ns spread on this platform.
pub const SHELL_PIPELINE_LATENCY: Nanos = Nanos::from_nanos(1_250);

/// Module names used by the standard SUME power decomposition.
pub mod modules {
    /// The application logic core (shaded grey in Figure 2).
    pub const LOGIC: &str = "logic";
    /// DRAM controller + devices.
    pub const DRAM: &str = "mem.dram";
    /// SRAM controller + devices.
    pub const SRAM: &str = "mem.sram";
    /// Prefix shared by the memory interfaces.
    pub const MEM_PREFIX: &str = "mem.";
    /// Prefix for per-PE modules (`pe.0`, `pe.1`, ...).
    pub const PE_PREFIX: &str = "pe.";
}

/// A NetFPGA SUME card instance with a composable power model.
///
/// # Examples
///
/// ```
/// use inc_hw::SumeCard;
///
/// // The reference NIC design draws its calibrated standalone power.
/// let nic = SumeCard::reference_nic();
/// assert!((nic.power_w(0.0) - 16.2).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct SumeCard {
    power: DevicePower,
}

impl SumeCard {
    /// The reference NIC bitstream: shell only, no application modules.
    pub fn reference_nic() -> Self {
        SumeCard {
            power: DevicePower::new("netfpga-sume", calib::NETFPGA_REFERENCE_NIC_W),
        }
    }

    /// Adds an application logic module with the given static and dynamic
    /// power. The logic module's clock-gating saving is calibrated to the
    /// paper's "<1 W" measurement.
    pub fn with_logic(mut self, static_w: f64, dyn_max_w: f64) -> Self {
        let saving = (calib::LAKE_CLOCK_GATING_SAVING_W / static_w).clamp(0.0, 1.0);
        self.power.add_module(
            modules::LOGIC,
            Module::new(static_w, dyn_max_w).with_clock_gate_saving(saving),
        );
        self
    }

    /// Adds `n` processing-element modules (`pe.0`..`pe.n-1`) at the
    /// calibrated 0.25 W each (§5.1).
    pub fn with_pes(mut self, n: u32) -> Self {
        for i in 0..n {
            self.power.add_module(
                format!("{}{i}", modules::PE_PREFIX),
                Module::new(calib::LAKE_PE_W, 0.02),
            );
        }
        self
    }

    /// Adds the external memory interfaces (DRAM + SRAM) with the §5.1
    /// reset saving of 40 %.
    pub fn with_external_memories(mut self) -> Self {
        self.power.add_module(
            modules::DRAM,
            Module::new(calib::SUME_DRAM_W, 0.3).with_reset_saving(calib::MEMORY_RESET_SAVING),
        );
        self.power.add_module(
            modules::SRAM,
            Module::new(calib::SUME_SRAM_W, 0.2).with_reset_saving(calib::MEMORY_RESET_SAVING),
        );
        self
    }

    /// Total card power at `load` (fraction of peak rate, `[0, 1]`).
    pub fn power_w(&self, load: f64) -> f64 {
        self.power.power_w(load)
    }

    /// Mutable access to the module power model (for gating experiments).
    pub fn power_mut(&mut self) -> &mut DevicePower {
        &mut self.power
    }

    /// Parks the card for on-demand idling (§9.2): memories held in reset,
    /// application logic clock-gated, PEs power-gated. The classifier keeps
    /// running inside the shell, so the card still acts as a NIC.
    pub fn park(&mut self) {
        self.power
            .set_state_prefix(modules::MEM_PREFIX, ModuleState::Reset);
        let _ = self
            .power
            .set_state(modules::LOGIC, ModuleState::ClockGated);
        self.power
            .set_state_prefix(modules::PE_PREFIX, ModuleState::PowerGated);
    }

    /// Parks the card but keeps the external memories powered so cache
    /// contents survive — §9.2's "keeping LaKe's cache warm all the time"
    /// alternative, which trades power saving for instant warm resumption.
    pub fn park_warm(&mut self) {
        self.power
            .set_state_prefix(modules::MEM_PREFIX, ModuleState::Active);
        let _ = self
            .power
            .set_state(modules::LOGIC, ModuleState::ClockGated);
        self.power
            .set_state_prefix(modules::PE_PREFIX, ModuleState::PowerGated);
    }

    /// Removes the application from the fabric entirely (§9.2's "partial
    /// reconfiguration of FPGA" alternative): everything power-gated, the
    /// card draws only its reference-NIC baseline — but reprogramming
    /// halts traffic momentarily when the design comes back.
    pub fn park_reconfigured(&mut self) {
        self.power
            .set_state_prefix(modules::MEM_PREFIX, ModuleState::PowerGated);
        let _ = self
            .power
            .set_state(modules::LOGIC, ModuleState::PowerGated);
        self.power
            .set_state_prefix(modules::PE_PREFIX, ModuleState::PowerGated);
    }

    /// Reactivates every module (the inverse of [`SumeCard::park`]).
    pub fn unpark(&mut self) {
        self.power
            .set_state_prefix(modules::MEM_PREFIX, ModuleState::Active);
        let _ = self.power.set_state(modules::LOGIC, ModuleState::Active);
        self.power
            .set_state_prefix(modules::PE_PREFIX, ModuleState::Active);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lake_card() -> SumeCard {
        SumeCard::reference_nic()
            .with_logic(
                calib::LAKE_LOGIC_W - calib::LAKE_PE_W * 5.0,
                calib::LAKE_DYNAMIC_MAX_W,
            )
            .with_pes(5)
            .with_external_memories()
    }

    #[test]
    fn lake_card_idle_matches_calibration() {
        let card = lake_card();
        assert!(
            (card.power_w(0.0) - calib::LAKE_STANDALONE_IDLE_W).abs() < 1e-9,
            "{}",
            card.power_w(0.0)
        );
    }

    #[test]
    fn parked_card_sits_about_5w_above_reference_nic() {
        // §9.2: "about 5W gap between the power consumption of a NIC and
        // that of LaKe with memories in reset and module clock gated".
        let mut card = lake_card();
        card.park();
        let gap = card.power_w(0.0) - calib::NETFPGA_REFERENCE_NIC_W;
        assert!((4.0..7.0).contains(&gap), "gap {gap}");
    }

    #[test]
    fn unpark_restores_full_power() {
        let mut card = lake_card();
        let before = card.power_w(0.0);
        card.park();
        card.unpark();
        assert_eq!(card.power_w(0.0), before);
    }

    #[test]
    fn clock_gating_saves_under_one_watt() {
        // §5.1: clock gating the LaKe module and PEs earns < 1 W.
        let mut card = lake_card();
        let before = card.power_w(0.0);
        card.power_mut()
            .set_state(modules::LOGIC, ModuleState::ClockGated)
            .unwrap();
        let saved = before - card.power_w(0.0);
        assert!((0.0..1.0).contains(&saved), "saved {saved}");
    }

    #[test]
    fn memory_reset_saves_40_percent_of_memory_power() {
        let mut card = lake_card();
        let before = card.power_w(0.0);
        card.power_mut()
            .set_state_prefix(modules::MEM_PREFIX, ModuleState::Reset);
        let saved = before - card.power_w(0.0);
        let expect = (calib::SUME_DRAM_W + calib::SUME_SRAM_W) * calib::MEMORY_RESET_SAVING;
        assert!((saved - expect).abs() < 1e-9, "saved {saved}");
    }

    #[test]
    fn p4xos_card_composition() {
        // P4xos uses logic only (no external memories): 18.2 W standalone.
        let card = SumeCard::reference_nic().with_logic(
            calib::P4XOS_STANDALONE_IDLE_W - calib::NETFPGA_REFERENCE_NIC_W,
            calib::P4XOS_DYNAMIC_MAX_W,
        );
        assert!((card.power_w(0.0) - 18.2).abs() < 1e-9);
        assert!((card.power_w(1.0) - 19.4).abs() < 1e-9);
    }
}
