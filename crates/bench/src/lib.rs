//! # sft-bench
//!
//! The process deployment of the SFT stack: the [`node`] runtime behind
//! the `sft-node` binary. The kill −9 drill that kills and restarts real
//! node processes is the ignored tests of `tests/node_crash.rs`.
//!
//! The paper's results are checked by `crates/sim/tests/paper_claims.rs`
//! against the committed `RESULTS.md`, and the fault scenarios by
//! `crates/sim/tests/scenarios.rs`; client-side numbers come from the
//! repository benchmark under `benchmark/`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod node;
