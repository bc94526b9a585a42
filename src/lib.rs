//! # sft
//!
//! Umbrella crate for the SFT replication stack — a Rust reproduction of
//! *Strengthened Fault Tolerance in Byzantine Fault Tolerant Replication*
//! (Xiang, Malkhi, Nayak, Ren — ICDCS 2021). Re-exports every workspace
//! crate under one name so examples and downstream experiments can depend
//! on a single `sft`.
//!
//! See the repository `README.md` for the architecture diagram and
//! `PAPER.md` for the paper-to-code map. The layering, bottom-up:
//!
//! - [`crypto`] — SHA-256 / HMAC primitives, hash and signature types, PKI.
//! - [`types`] — ids, strong-votes, endorsement intervals, payloads, codec.
//! - [`core`] — quorum math, block store, vote aggregation, endorsement
//!   tracking (the two-level commit rule's machinery).
//! - [`fbft`] — round-based (DiemBFT-style) commit rules, the paper's main
//!   protocol family.
//! - [`streamlet`] — SFT-Streamlet, the Appendix D protocol this repo runs
//!   end to end.
//! - [`network`] — the `Transport` trait and both implementations: the
//!   deterministic in-process simulator network (delay injection, fault
//!   schedules) and the loopback TCP mesh.
//! - [`sim`] — the generic engine run loop with Byzantine behaviors.
//! - [`loadgen`] — closed-loop clients driving the client gateway,
//!   measuring end-to-end strength-graded ack latency.
//!
//! ## Example
//!
//! ```
//! // Four replicas, ten epochs, one equivocating leader — and agreement
//! // still holds.
//! use sft::sim::{Behavior, SimConfig};
//!
//! let report = SimConfig::new(4, 10).with_behavior(0, Behavior::Equivocate).run();
//! assert!(report.agreement());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use sft_core as core;
pub use sft_crypto as crypto;
pub use sft_fbft as fbft;
pub use sft_loadgen as loadgen;
pub use sft_network as network;
pub use sft_sim as sim;
pub use sft_streamlet as streamlet;
pub use sft_types as types;
