//! # sft-fbft
//!
//! SFT-DiemBFT: the paper's strengthened fault tolerance applied to the
//! round-based DiemBFT protocol family its *main body* targets (§2–§3,
//! Figs 2/3) — the counterpart to the height-based Streamlet variant of
//! Appendix D in [`sft-streamlet`](../sft_streamlet/index.html).
//!
//! The crate layers a full replica over the pure decision core:
//!
//! - [`TwoChainState`] — the chain-agnostic 2-chain commit and locking
//!   rule (Fig 2/3), small enough to test exhaustively;
//! - [`Pacemaker`] — deterministic round synchronization: advance on QC or
//!   TC, round-robin leaders, timeout back-off, and the optional round
//!   pace a wall-clock replica runs at ([`ROUND_INTERVAL`]);
//! - [`FbftProposal`] / [`FbftMessage`] — self-justifying wire messages
//!   (each proposal ships the QC it extends, plus the TC after a timeout);
//! - [`FbftReplica`] — the state machine tying them together with the
//!   shared certification ([`sft_core::VoteTracker`]) and strengthening
//!   ([`sft_core::EndorsementTracker`]) machinery. Unlike Streamlet, only
//!   the next leader collects a round's votes; everyone else grades
//!   strength from the members its certificate carries.
//!
//! ## Protocol map
//!
//! | Paper concept | Here |
//! |---|---|
//! | round leader, proposal on the highest QC (§2, Fig 2) | [`FbftReplica::try_propose`], [`FbftProposal`] |
//! | pipelined (chained) proposals: the fresh QC rides the next proposal | [`FbftReplica::try_propose_chained`], [`StepOutcome::next_proposal`] |
//! | batched payloads drained from a client pool (§4 workload) | [`sft_core::Mempool`], [`sft_core::PayloadSource`] |
//! | voting rule (locked round, one vote per round) | [`FbftReplica::on_proposal`], [`TwoChainState::safe_to_vote`] |
//! | votes to the next leader, certification at `2f + 1` votes | [`FbftReplica::on_vote`] via [`sft_core::VoteTracker`], [`FbftReplica::on_due`] |
//! | the QC carries its members' strong-votes; strength graded from them | [`sft_core::ChainKernel::admit_qc`], [`FbftReplica::on_certificate`] |
//! | 2-chain commit (consecutive certified rounds) | [`TwoChainState::on_qc`] (standard commit, strength `f`) |
//! | round synchronization / timeouts | [`Pacemaker`], [`sft_types::TimeoutMsg`], [`sft_types::TimeoutCertificate`] |
//! | strong-votes with markers / intervals (§3.2, §3.4) | [`sft_types::EndorseMode`], shared [`sft_core::honest_endorse_info`] |
//! | graded commit strength `x ≤ 2f` (Def. 1) | [`sft_core::ChainKernel::commit_level`], commit-log entries |
//!
//! ## The 2-chain rule in brief
//!
//! DiemBFT commits block `B` once a quorum certificate forms for a block
//! `B'` with `B'.parent = B` and `B'.round = B.round + 1` — two certified
//! blocks in consecutive rounds. The locking rule makes that safe: a
//! replica that sees a QC locks the QC's *parent round* and later refuses
//! to vote for any proposal whose parent round is lower than its lock.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod message;
pub mod pacemaker;
pub mod replica;
pub mod two_chain;

pub use engine::FbftEngine;
pub use message::{FbftMessage, FbftProposal};
pub use pacemaker::{Pacemaker, RoundEntry, ROUND_BURST, ROUND_INTERVAL};
pub use replica::{FbftReplica, StepOutcome};
pub use two_chain::TwoChainState;
// The catch-up subprotocol is shared machinery; re-export the pieces a
// driver needs so it can speak the sync messages without importing core.
pub use sft_core::{BlockResponse, SyncManager, SyncStats};
pub use sft_types::BlockRequest;
