//! # sft-bench
//!
//! The runnable shapes of the SFT stack: the [`node`] runtime behind the
//! `sft-node` binary, the `crash-harness` that kills and restarts real
//! node processes, and `repro`, which runs one simulated consensus
//! instance end to end and checks what it did:
//!
//! ```text
//! cargo run -p sft-bench --bin repro                         # n = 4, 10 epochs, Streamlet
//! cargo run -p sft-bench --bin repro -- 7 12 withhold --protocol both
//! ```
//!
//! The paper's results are checked by `crates/sim/tests/paper_claims.rs`
//! against the committed `RESULTS.md`; client-side numbers come from the
//! repository benchmark under `benchmark/`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod node;
