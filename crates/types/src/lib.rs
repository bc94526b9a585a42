//! # sft-types
//!
//! Protocol data types shared by every layer of the SFT replication stack:
//! identifier newtypes, (strong-)votes with endorsement info, the round
//! interval sets of §3.4, block payloads, the strong-commit log of §5,
//! virtual time, and the deterministic wire codec.
//!
//! ## Paper-concept map
//!
//! | Paper concept | Module / type |
//! |---|---|
//! | replica index `i`, round `r`, height `k` (§2) | [`ids`]: [`ReplicaId`], [`Round`], [`Height`] |
//! | strong-vote `⟨vote, B, r, marker⟩_i` (§3.2, Fig 4) | [`vote`]: [`StrongVote`], [`VoteData`] |
//! | endorsement marker / interval set `I` (§3.2, §3.4) | [`vote`]: [`EndorseInfo`]; [`interval`]: [`RoundIntervalSet`] |
//! | endorser accounting per block (§3.2) | [`bitset`]: [`SignerSet`] |
//! | timeout `⟨timeout, r⟩_i`, TC (main protocol liveness) | [`timeout`]: [`TimeoutMsg`], [`TimeoutCertificate`] |
//! | strong-commit `Log` for light clients (§5) | [`commit_log`]: [`StrongCommitUpdate`] |
//! | block-sync fetch (catch-up subprotocol) | [`sync`]: [`BlockRequest`] |
//! | block contents / workload of §4 | [`transaction`]: [`Transaction`], [`Payload`] |
//! | strength-as-SLA client acks (§3 grading, productized) | [`client`]: [`ClientRequest`], [`ClientAck`] |
//! | injected delays δ of the evaluation (§4) | [`time`]: [`SimTime`], [`SimDuration`] |
//! | transport wire unit + framing (harness, not paper) | [`envelope`]: [`Envelope`], [`Dest`], [`ProtocolTag`] |
//!
//! ## Example
//!
//! ```
//! use sft_crypto::{HashValue, KeyRegistry};
//! use sft_types::{EndorseInfo, Round, StrongVote, VoteData};
//!
//! let registry = KeyRegistry::deterministic(4);
//! let kp = registry.key_pair(0).expect("replica 0");
//! let data = VoteData::new(HashValue::of(b"B2"), Round::new(2), HashValue::of(b"B1"), Round::new(1));
//! // A strong-vote with marker 0 endorses every ancestor round > 0.
//! let vote = StrongVote::new(data, EndorseInfo::Marker(Round::ZERO), &kp);
//! assert!(vote.verify(&registry));
//! assert!(vote.endorse().endorses_ancestor_round(Round::new(1)));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod bitset;
pub mod client;
pub mod codec;
pub mod commit_log;
pub mod durability;
pub mod envelope;
pub mod ids;
pub mod interval;
pub mod sync;
pub mod time;
pub mod timeout;
pub mod transaction;
pub mod vote;

pub use bitset::SignerSet;
pub use client::{ClientAck, ClientFrame, ClientRequest};
pub use codec::{Decode, DecodeError, Encode};
pub use commit_log::{commit_log_digest, StrongCommitUpdate};
pub use durability::{PersistSeq, SendGate, Watermark};
pub use envelope::{Dest, Envelope, ProtocolTag, FRAME_HEADER_LEN, MAX_FRAME_LEN};
pub use ids::{Height, ReplicaId, Round};
pub use interval::{RoundInterval, RoundIntervalSet};
pub use sync::BlockRequest;
pub use time::{SimDuration, SimTime};
pub use timeout::{
    timeout_signing_digest, TimeoutAggregator, TimeoutCertificate, TimeoutMsg, TimeoutOutcome,
    VerifyPolicy,
};
pub use transaction::{BatchConfig, Payload, Transaction};
pub use vote::{
    vote_signing_digest, vote_signing_digest_with, EndorseInfo, EndorseMode, StrongVote, VoteData,
};
