//! **In-network computing on demand** — the paper's primary contribution
//! (§8–§9).
//!
//! Programmable network devices are treated like any other schedulable
//! compute resource: a service runs in host software at low load (where
//! software is more power-efficient) and shifts into the network device as
//! load grows (where hardware is both faster and cheaper per watt), then
//! shifts back as load recedes.
//!
//! This crate provides:
//!
//! * [`HostController`] — the host-controlled controller (§9.1): RAPL +
//!   CPU-usage thresholds sustained over a window, with network-side rate
//!   feedback for shifting back. (The *network-controlled* twin lives in
//!   `inc_hw::NetRateController` because it is embedded in the device
//!   classifier, exactly as in the paper.)
//! * [`run_host_controlled`] / [`Timeline`] — the experiment harness that
//!   plays the controller daemon against a simulation (Figures 6 and 7).
//! * [`FleetController`] / [`run_fleet_controlled`] — the multi-application
//!   scheduler placing programs across a capacity-bounded device fabric
//!   (one device per ToR, §9.4) via a greedy benefit-per-capacity
//!   knapsack over (app × device) candidates: the policy and its prices
//!   are specified in [`fleet`], the incremental engine that executes
//!   them is in [`arbiter`].
//! * [`PlacementAnalysis`] — the §8 energy-model questions and tipping
//!   point.
//! * [`OnDemandEnvelope`] — the Figure 5 composite power curve.
//! * [`TorRack`] — the §9.4 ToR-switch analysis.
//! * [`apps`] — calibrated analytic power/throughput models of every
//!   deployment in Figure 3.
//!
//! # Examples
//!
//! ```
//! use inc_ondemand::apps::{crossover, kvs_models};
//!
//! // The Figure 3(a) crossing point: ~80 Kpps.
//! let models = kvs_models();
//! let x = crossover(&models[0], &models[1], 1e6).unwrap();
//! assert!((60_000.0..110_000.0).contains(&x));
//! ```

pub mod apps;
pub mod arbiter;
pub mod decision;
pub mod envelope;
pub mod fleet;
pub mod host;
pub mod system;
pub mod tor;

pub use apps::Deployment;
pub use arbiter::{ArbiterStats, FleetController, HierarchicalController};
pub use decision::{kvs_analysis, PlacementAnalysis};
pub use envelope::{EnvelopePoint, OnDemandEnvelope};
pub use fleet::{
    AdmissionDecision, ArbitrationMode, ClaimPlan, ClaimPolicy, FleetApp, FleetControllerConfig,
    FleetSample, FleetShift, Objective, ShiftReason,
};
pub use host::{HostController, HostControllerConfig, HostSample, Shift};
pub use system::{
    run_fleet_controlled, run_host_controlled, AppObservation, FleetTimeline, IntervalObservation,
    RowLog, Timeline, TimelineRow,
};
pub use tor::TorRack;

// Re-export the pieces of the on-demand interface that live lower in the
// stack, so downstream users have one import surface.
pub use inc_hw::{
    DeviceFabric, DeviceId, HopTier, NetControllerConfig, NetRateController, Placement,
    RateTrigger, TierCost, Topology,
};
