//! The repository benchmark. See `README.md` beside `Cargo.toml`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod compare;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod probes;
pub mod procstat;
pub mod stats;
pub mod suite;
pub mod worker;
pub mod workload;
