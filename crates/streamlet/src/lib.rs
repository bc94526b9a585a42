//! # sft-streamlet
//!
//! SFT-Streamlet: the paper's strengthened fault tolerance applied to the
//! Streamlet protocol (Appendix D). Streamlet's simplicity makes it the
//! clearest demonstration of the SFT idea: the base protocol is three rules
//! (propose, vote, commit on three consecutive notarized epochs), and the
//! strengthening changes *none of them* — it only adds endorsement
//! bookkeeping on votes and grades every commit with the strength `x` it
//! has earned.
//!
//! ## Protocol map
//!
//! | Paper concept | Here |
//! |---|---|
//! | epoch leader, proposal (App. D) | [`Replica::begin_epoch`], [`Proposal`] |
//! | voting rule (first proposal extending a longest notarized chain) | [`Replica::on_proposal`] |
//! | notarization at `2f + 1` votes | [`Replica::on_vote`] via [`sft_core::VoteTracker`] |
//! | three-consecutive-epochs commit | [`Replica::on_vote`] (standard commit, strength `f`) |
//! | strong-votes with markers (§3.2) | [`EndorseMode::Marker`], [`sft_types::EndorseInfo`] |
//! | graded commit strength `x ≤ 2f` (Def. 1) | [`sft_core::ChainKernel::commit_level`], commit-log entries |
//!
//! ## Example
//!
//! ```
//! use sft_core::ProtocolConfig;
//! use sft_types::Round;
//!
//! let config = ProtocolConfig::for_replicas(7);
//! // Leaders rotate round-robin over all n replicas.
//! assert_eq!(config.leader(Round::new(8)).as_u16(), 1);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod message;
pub mod replica;

pub use engine::StreamletEngine;
pub use message::{Message, Proposal};
pub use replica::Replica;
// Historically defined here; now shared with the round-based replica.
pub use sft_core::{BlockResponse, SyncManager, SyncStats};
pub use sft_types::{BlockRequest, EndorseMode};
