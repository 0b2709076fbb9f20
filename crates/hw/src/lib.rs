//! Programmable network hardware models for the *in-network computing on
//! demand* reproduction.
//!
//! The paper runs its applications on a NetFPGA SUME (§3–§5) and, for
//! consensus, on a Barefoot Tofino (§6); §10 extends the discussion to
//! SmartNICs. With no such hardware available, this crate provides
//! calibrated device models that the application crates embed:
//!
//! * [`SumeCard`] — the shared FPGA platform: module-composed power,
//!   gating/reset/parking (§5.1, §9.2), port conventions, DMA timing.
//! * [`CardShell`], [`ServerShell`] — the platform the packet
//!   applications embed: the card as a bump in the wire with placement,
//!   parking, the embedded controller and the rate meter; the host daemon
//!   with its CPU, utilisation meter and deferred replies.
//! * [`MemorySpec`] — BRAM/SRAM/DRAM capacity, latency and power (§5.3).
//! * [`PipelineBudget`] — P4-style resource admission (§6, §10).
//! * [`DeviceCapacity`] — multi-application capacity ledger over one
//!   budget, for shared-device scheduling.
//! * [`DeviceFabric`] — a set of such ledgers, one per ToR (§9.4), priced
//!   by a [`Topology`] distance matrix (ToR → pod → core hop tiers).
//! * [`TofinoModel`] — the normalized-power ASIC model (§6).
//! * [`SmartNicModel`] — the §10 architecture survey.

pub mod asic;
pub mod capacity;
pub mod fabric;
pub mod memory;
pub mod netfpga;
pub mod offload;
pub mod pipeline;
pub mod shell;
pub mod smartnic;

pub use asic::{TofinoModel, TofinoProgram};
pub use capacity::{AppSlot, DeviceCapacity, ResourceShares};
pub use fabric::{DeviceFabric, DeviceId, HopTier, TierCost, Topology};
pub use memory::MemorySpec;
pub use netfpga::{modules, SumeCard, HOST_DMA_PORT, PCIE_DMA_ONE_WAY, SHELL_PIPELINE_LATENCY};
pub use offload::{NetControllerConfig, NetRateController, Placement, RateTrigger};
pub use pipeline::{PipelineBudget, PipelineError, ProgramResources};
pub use shell::{
    CardApp, CardShell, CardStats, Deferred, HostConfig, LoadMeter, ParkPolicy, ServerApp,
    ServerShell, UtilMeter, Verdict, POWER_TICK, RECONFIG_HALT, TAG_POWER_TICK,
};
pub use smartnic::{survey, SmartNicArch, SmartNicModel, PCIE_SLOT_BUDGET_W};
