//! The repo's benchmark as a library: the binary (`main.rs`) is the
//! command line over these modules, and the self-test reads the metric
//! tables from here to hold them against `BENCHMARK.json`.
//!
//! Only [`surface`] touches the repository's crates.

pub mod alloc;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod run;
pub mod surface;
pub mod trace;
pub mod workloads;
