//! Module-composed power model for programmable network devices.
//!
//! §5.1 of the paper decomposes a NetFPGA design's power into per-module
//! contributions and studies three saving techniques: *clock gating*,
//! *power gating*, and *deactivating (holding in reset)* modules. This
//! module provides exactly that decomposition: a device is a base platform
//! plus named modules, each with static and load-dependent dynamic power
//! and an operating state.

use std::collections::BTreeMap;

/// Operating state of one hardware module (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModuleState {
    /// Clocked and processing: full static power plus dynamic power.
    Active,
    /// Clock disabled: dynamic power gone, a fraction of static saved.
    ClockGated,
    /// Held in reset: dynamic power gone, a (module-specific) fraction of
    /// static saved — the paper measures 40 % for the memory interfaces.
    Reset,
    /// Power removed entirely (or module eliminated from the design):
    /// zero contribution. Virtex-7 does not support power gating, so for
    /// the FPGA experiments this state means "removed from the bitstream".
    PowerGated,
}

/// One named module of a device power model.
#[derive(Clone, Debug)]
pub struct Module {
    /// Static power when active, watts.
    pub static_w: f64,
    /// Additional power at full load, watts (scaled linearly with load).
    pub dyn_max_w: f64,
    /// Fraction of static power saved by clock gating.
    pub clock_gate_saving: f64,
    /// Fraction of static power saved by holding the module in reset.
    pub reset_saving: f64,
    /// Current state.
    pub state: ModuleState,
}

impl Module {
    /// A module with the given static/dynamic power and default savings
    /// (clock gating saves 30 % of static, reset saves 40 %).
    pub fn new(static_w: f64, dyn_max_w: f64) -> Self {
        Module {
            static_w,
            dyn_max_w,
            clock_gate_saving: 0.3,
            reset_saving: 0.4,
            state: ModuleState::Active,
        }
    }

    /// Sets the clock-gating saving fraction.
    pub fn with_clock_gate_saving(mut self, f: f64) -> Self {
        self.clock_gate_saving = f;
        self
    }

    /// Sets the reset saving fraction.
    pub fn with_reset_saving(mut self, f: f64) -> Self {
        self.reset_saving = f;
        self
    }

    /// Power drawn at `load` in `[0, 1]`.
    pub fn power_w(&self, load: f64) -> f64 {
        let load = load.clamp(0.0, 1.0);
        match self.state {
            ModuleState::Active => self.static_w + self.dyn_max_w * load,
            ModuleState::ClockGated => self.static_w * (1.0 - self.clock_gate_saving),
            ModuleState::Reset => self.static_w * (1.0 - self.reset_saving),
            ModuleState::PowerGated => 0.0,
        }
    }
}

/// A device composed of a base platform draw plus named modules.
///
/// # Examples
///
/// ```
/// use inc_power::{DevicePower, Module, ModuleState};
///
/// let mut dev = DevicePower::new(10.0);
/// dev.add_module("dram", Module::new(4.8, 0.2));
/// dev.add_module("logic", Module::new(2.0, 1.0));
/// assert!((dev.power_w(0.0) - 16.8).abs() < 1e-9);
/// dev.set_state("dram", ModuleState::Reset).unwrap();
/// assert!((dev.power_w(0.0) - (10.0 + 4.8 * 0.6 + 2.0)).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct DevicePower {
    base_w: f64,
    modules: BTreeMap<String, Module>,
}

/// Error returned when addressing a module that does not exist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NoSuchModule(pub String);

impl std::fmt::Display for NoSuchModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no such module: {}", self.0)
    }
}

impl std::error::Error for NoSuchModule {}

impl DevicePower {
    /// Creates a device with only its base platform draw.
    pub fn new(base_w: f64) -> Self {
        DevicePower {
            base_w,
            modules: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a named module.
    pub fn add_module(&mut self, name: impl Into<String>, module: Module) -> &mut Self {
        self.modules.insert(name.into(), module);
        self
    }

    /// Changes the state of a module.
    pub fn set_state(&mut self, name: &str, state: ModuleState) -> Result<(), NoSuchModule> {
        match self.modules.get_mut(name) {
            Some(m) => {
                m.state = state;
                Ok(())
            }
            None => Err(NoSuchModule(name.to_string())),
        }
    }

    /// Changes the state of every module whose name starts with `prefix`.
    ///
    /// Returns how many modules were affected.
    pub fn set_state_prefix(&mut self, prefix: &str, state: ModuleState) -> usize {
        let mut n = 0;
        for (name, m) in self.modules.iter_mut() {
            if name.starts_with(prefix) {
                m.state = state;
                n += 1;
            }
        }
        n
    }

    /// Total power with every module at the same `load` in `[0, 1]`.
    pub fn power_w(&self, load: f64) -> f64 {
        self.base_w + self.modules.values().map(|m| m.power_w(load)).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_device() -> DevicePower {
        let mut d = DevicePower::new(16.2);
        d.add_module("dram", Module::new(4.8, 0.1).with_reset_saving(0.4));
        d.add_module("sram", Module::new(6.0, 0.1).with_reset_saving(0.4));
        d.add_module("pe0", Module::new(0.25, 0.05));
        d.add_module("pe1", Module::new(0.25, 0.05));
        d
    }

    #[test]
    fn sums_active_modules() {
        let d = test_device();
        assert!((d.power_w(0.0) - (16.2 + 4.8 + 6.0 + 0.5)).abs() < 1e-9);
        assert!((d.power_w(1.0) - (16.2 + 4.9 + 6.1 + 0.6)).abs() < 1e-9);
    }

    #[test]
    fn reset_saves_configured_fraction() {
        let mut d = test_device();
        d.set_state("dram", ModuleState::Reset).unwrap();
        d.set_state("sram", ModuleState::Reset).unwrap();
        let expect = 16.2 + (4.8 + 6.0) * 0.6 + 0.5;
        assert!((d.power_w(0.0) - expect).abs() < 1e-9);
    }

    #[test]
    fn power_gating_removes_module() {
        let mut d = test_device();
        assert_eq!(d.set_state_prefix("pe", ModuleState::PowerGated), 2);
        assert!((d.power_w(1.0) - (16.2 + 4.9 + 6.1)).abs() < 1e-9);
    }

    #[test]
    fn clock_gating_kills_dynamic_power() {
        let mut d = DevicePower::new(0.0);
        d.add_module("m", Module::new(1.0, 9.0).with_clock_gate_saving(0.5));
        d.set_state("m", ModuleState::ClockGated).unwrap();
        assert!((d.power_w(1.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unknown_module_is_error() {
        let mut d = test_device();
        assert!(d.set_state("nope", ModuleState::Reset).is_err());
    }

    #[test]
    fn load_clamped() {
        let d = test_device();
        assert_eq!(d.power_w(5.0), d.power_w(1.0));
        assert_eq!(d.power_w(-5.0), d.power_w(0.0));
    }
}
