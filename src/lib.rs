//! # In-Network Computing On Demand — a Rust reproduction
//!
//! A full reproduction of *The Case For In-Network Computing On Demand*
//! (Tokusashi, Dang, Pedone, Soulé, Zilberman — EuroSys 2019) as a
//! workspace of composable crates. The paper's testbed (NetFPGA SUME
//! cards, a Tofino switch, i7/Xeon servers, OSNT, a wall-power meter) is
//! replaced by calibrated simulation models; the protocols, caches,
//! classifiers and on-demand controllers are implemented for real.
//!
//! This facade crate re-exports every member crate under one name:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `inc-sim` | deterministic discrete-event kernel |
//! | [`power`] | `inc-power` | CPU/device power models, RAPL, §8 energy equation |
//! | [`net`] | `inc-net` | Ethernet/IPv4/UDP wire formats, switch, classifier |
//! | [`hw`] | `inc-hw` | NetFPGA/Tofino/SmartNIC models, network controller |
//! | [`kvs`] | `inc-kvs` | LaKe + memcached over the binary protocol (§3.1) |
//! | [`paxos`] | `inc-paxos` | P4xos/libpaxos/DPDK consensus (§3.2) |
//! | [`dns`] | `inc-dns` | Emu DNS + NSD (§3.3) |
//! | [`workloads`] | `inc-workloads` | OSNT rate profiles, ETC, Zipf, Google/Dynamo traces |
//! | [`ondemand`] | `inc-ondemand` | **the paper's contribution**: controllers, envelope, decision analysis |
//!
//! # Quick start
//!
//! ```
//! use inc::ondemand::apps::{crossover, kvs_models};
//!
//! // Figure 3(a): software beats hardware only below ~80 Kpps.
//! let models = kvs_models();
//! let crossing = crossover(&models[0], &models[1], 1e6).unwrap();
//! assert!((60_000.0..110_000.0).contains(&crossing));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the `inc-bench`
//! binary (`cargo run --release -p inc-bench -- list`) for the figure,
//! study and scheduling-scenario harnesses.

pub use inc_dns as dns;
pub use inc_hw as hw;
pub use inc_kvs as kvs;
pub use inc_net as net;
pub use inc_ondemand as ondemand;
pub use inc_paxos as paxos;
pub use inc_power as power;
pub use inc_sim as sim;
pub use inc_workloads as workloads;
