//! # sft-core
//!
//! Protocol-agnostic consensus machinery shared by the round-based
//! ([`sft-fbft`](../sft_fbft/index.html)) and height-based
//! ([`sft-streamlet`](../sft_streamlet/index.html)) protocol crates:
//!
//! - [`ProtocolConfig`] — `n`/`f` parameters and the quorum arithmetic of
//!   the two-level commit rule: classic certification at `2f + 1` votes and
//!   the strengthened `x`-strong quorum `f + x + 1` of §3.2 (Theorem 1).
//! - [`Block`] / [`BlockStore`] — the block format of §2.1 and the chain
//!   index that ancestry and endorsement walks run over.
//! - [`VoteTracker`] / [`QuorumCertificate`] — strong-vote aggregation with
//!   signature verification and equivocation detection.
//! - [`EndorsementTracker`] — per-block endorser tallies that grade each
//!   commit with the strength `x` of Definition 1 and emit
//!   [`StrongCommitUpdate`](sft_types::StrongCommitUpdate) entries for the
//!   §5 commit log.
//! - [`VoterState`] — the voter's side of §3.2 / §3.4: the last vote and
//!   the endorsement info it carried, from which the next vote's info
//!   follows in O(gap) — the paper's "one integer per vote".
//!   [`honest_endorse_info`] is its whole-history specification.
//! - [`Retention`] — the one horizon, a fixed number of rounds behind the
//!   committed tip, below which a replica prunes everything it keys by
//!   round or block, so its memory and per-round cost do not depend on
//!   how long it has run.
//! - [`SyncManager`] / [`BlockResponse`] — the block-sync / catch-up
//!   subprotocol: detect certified-but-unknown blocks, fetch them in
//!   bounded verified segments, and admit nothing the certificate chain
//!   does not vouch for.
//! - [`ChainKernel`] — all of the above owned by one struct, with the
//!   sequences that tie them together (block intake, the voter half of
//!   §3.2, vote intake, commit bookkeeping, the retention sweep, WAL
//!   buffering and replay, the client plane) defined once. Both protocol
//!   replicas hold one; [`ReplicaEngine`] reports from it.
//!
//! The split mirrors the paper's own layering: *certification* (may this
//! block extend the chain?) is classic BFT and lives in [`VoteTracker`];
//! *strengthening* (how many faults does this commit survive?) is the
//! paper's contribution and lives entirely in [`EndorsementTracker`] +
//! [`ProtocolConfig::strength_of`], so protocol crates opt into it without
//! changing their certification paths.
//!
//! ## Example: the two-level rule in one view
//!
//! ```
//! use sft_core::ProtocolConfig;
//!
//! let cfg = ProtocolConfig::for_replicas(4); // f = 1
//! // Level f is the classic commit; stronger levels need more endorsers.
//! assert_eq!(cfg.quorum(), cfg.strong_quorum(cfg.f() as u64));
//! assert_eq!(cfg.strength_of(3), Some(1));
//! assert_eq!(cfg.strength_of(4), Some(2)); // the 2f ceiling
//! ```
//!
//! ## What a protocol must still supply
//!
//! A proposal rule, a voting rule and a commit rule. Here are the smallest
//! possible ones — extend genesis, vote for the current round's proposal,
//! "certified is committed" — over four kernels:
//!
//! ```
//! use sft_core::{ChainKernel, ProtocolConfig};
//! use sft_crypto::KeyRegistry;
//! use sft_types::{EndorseMode, Payload, Round};
//!
//! let (config, keys) = (ProtocolConfig::for_replicas(4), KeyRegistry::deterministic(4));
//! let mut kernels: Vec<ChainKernel> = (0..4)
//!     .map(|id| ChainKernel::new(id, config, keys.clone(), EndorseMode::Marker))
//!     .collect();
//! let round = Round::new(1);
//! let leader = &mut kernels[config.leader(round).as_usize()];
//! let genesis = leader.store().genesis_id();
//! let block = leader.extend(genesis, round, Payload::empty()).unwrap(); // proposal rule
//! let votes: Vec<_> = kernels
//!     .iter_mut()
//!     .filter(|k| k.admits(&block))
//!     .filter_map(|k| k.accept_block(&block, |_, b, _| b.round() == round).vote) // voting rule
//!     .collect();
//! for k in kernels.iter_mut() {
//!     for vote in &votes {
//!         let (certified, grown) = k.add_vote(vote);
//!         if let Some(qc) = certified {
//!             k.log_qc(&qc);
//!             k.commit_through(qc.block_id()); // commit rule
//!             k.prune();
//!         }
//!         k.grade(grown);
//!     }
//!     assert_eq!(k.committed_chain(), [block.id()]);
//!     assert_eq!(k.commit_level(block.id()), Some(config.max_strength()));
//! }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod acks;
pub mod block;
pub mod config;
pub mod endorse;
pub mod engine;
pub mod group_wal;
pub mod kernel;
pub mod ledger;
pub mod mempool;
pub mod obs;
pub mod qc;
pub mod sync;
pub mod wal;

pub use acks::AckTracker;
pub use block::{Ancestors, Block, BlockStore, BlockStoreError};
pub use config::{ProtocolConfig, Retention, RETENTION_ROUNDS};
pub use endorse::{honest_endorse_info, EndorsementTracker, VoterState};
pub use engine::{EngineStep, MsgKind, OutboundMsg, ReplicaEngine, ResidentState, Route};
pub use group_wal::{DurableWal, GroupCommitWal, WriteThroughWal};
pub use kernel::{ChainKernel, Intake};
pub use ledger::CommitLedger;
pub use mempool::{Admission, Mempool, PayloadSource};
pub use obs::EngineObs;
pub use qc::{QuorumCertificate, VoteOutcome, VoteTracker};
pub use sync::{BlockResponse, SyncConfig, SyncManager, SyncStats};
pub use wal::{
    scan_wal, FileSink, FrameError, MemSink, Wal, WalError, WalRecord, WalScan, WalSink, WalStore,
    WAL_FILE_NAME,
};
