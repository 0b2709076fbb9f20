//! Workload generation and trace analysis for the *in-network computing
//! on demand* reproduction.
//!
//! * [`RateProfile`] — the OSNT-style offered-rate schedule behind every
//!   rig's traffic.
//! * [`Zipf`] — O(1) Zipf sampling for key popularity.
//! * [`EtcWorkload`] — the Facebook ETC memcached mix used by Figure 6.
//! * [`GoogleTrace`] — synthesized Google cluster trace + the §9.3
//!   offload-candidate analysis.
//! * [`PowerTrace`] / [`variation`] — synthesized Dynamo power traces +
//!   the §9.3 power-variation gating rule.

pub mod dynamo;
pub mod etc;
pub mod google;
pub mod osnt;
pub mod zipf;

pub use dynamo::{suits_on_demand, variation, PowerTrace, PowerWalk, Variation, WorkloadClass};
pub use etc::{EtcOpKind, EtcSample, EtcWorkload};
pub use google::{GoogleTrace, Task};
pub use osnt::RateProfile;
pub use zipf::Zipf;
