//! Power and energy substrate for the *in-network computing on demand*
//! reproduction.
//!
//! This crate holds everything the paper measures with a wall meter or
//! RAPL, and the analytical model it builds on top (§8):
//!
//! * [`CpuModel`] — the host-side power model with the uncore-activation
//!   jump that dominates the paper's software curves (§4, §7).
//! * [`DevicePower`] / [`Module`] / [`ModuleState`] — the module-composed
//!   FPGA power model with clock gating, reset and power gating (§5.1).
//! * [`EnergyParams`] — the `E = Pd·Td + Ps·Ts + Pi·Ti` equation (§8).
//! * [`crossover_fn`] — the software/hardware tipping point of two
//!   power-versus-rate curves.
//! * [`RaplCounter`] / [`RaplSampler`] — the counters the host-controlled
//!   on-demand controller reads (§9.1).
//! * [`LinkEnergyModel`] — per-packet link energy of placement detours,
//!   calibrated from the switch port figures (§9.4).
//! * [`calib`] — every constant calibrated against the paper's text.

pub mod calib;
pub mod cpu;
pub mod device;
pub mod efficiency;
pub mod energy;
pub mod link;
pub mod model;
pub mod rapl;

pub use cpu::CpuModel;
pub use device::{DevicePower, Module, ModuleState, NoSuchModule};
pub use efficiency::{ops_per_dynamic_watt, ops_per_watt, EfficiencyClass};
pub use energy::{EnergyBreakdown, EnergyParams, PlacementComparison, StateTimes};
pub use link::LinkEnergyModel;
pub use model::crossover_fn;
pub use rapl::{RaplCounter, RaplSampler};
