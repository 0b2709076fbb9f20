//! Reusable simulation topologies for the event-driven experiments.
//!
//! The packet-level rigs ([`KvsRig`], [`DnsRig`], [`PaxosRig`],
//! [`SharedDeviceRig`], [`MultiTorRig`]) are a simulator plus one
//! application slice per tenant (`slices.rs`); the model-driven rigs
//! ([`ContendedFabricRig`], [`PodFabricRig`], [`MegaFabricRig`]) price
//! stylised §8 curves with no packet machinery.

mod model;
mod packet;
pub(crate) mod slices;

pub use model::{ContendedFabricRig, MegaFabricRig, PodFabricRig};
pub use packet::{DnsRig, KvsRig, MultiTorRig, PaxosRig, SharedDeviceRig};

use inc_hw::{DeviceFabric, Placement};
use inc_ondemand::{FleetApp, FleetController, FleetControllerConfig};

/// A controller pinned to a fixed placement vector (the static baselines
/// the on-demand schedules are judged against): an infinite sustain
/// window means no condition ever completes.
fn pinned(
    config: FleetControllerConfig,
    fabric: DeviceFabric,
    apps: Vec<FleetApp>,
    placements: &[Placement],
) -> FleetController {
    let config = FleetControllerConfig {
        sustain_samples: u32::MAX,
        ..config
    };
    FleetController::new(config, fabric, apps).with_initial_placements(placements)
}
