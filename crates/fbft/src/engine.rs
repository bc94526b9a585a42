//! The SFT-DiemBFT replica as a transport-driven
//! [`ReplicaEngine`](sft_core::ReplicaEngine): the generic [`Engine`]
//! over [`FbftReplica`]'s [`ReplicaRules`](sft_core::ReplicaRules).
//!
//! SFT-DiemBFT is self-pacing — rounds close on QCs, TCs, or pacemaker
//! timeouts — so the rules are nearly a direct restatement of
//! [`FbftReplica`]'s event API. The one addition is the bootstrap latch:
//! the round-1 proposal is the only event nothing precedes, so a replica
//! reports a deadline at `SimTime::ZERO` until its first tick fires
//! [`FbftReplica::try_propose_chained`]. A proposal the round pace held
//! back goes out the same way, on the tick it comes due, and so does the
//! certificate of a quorum the replica completed as leader: its deadline
//! is the completion instant, so the tick runs once every vote delivered
//! in that instant is in ([`FbftReplica::on_due`]).
//!
//! Votes go point-to-point to the next round's leader, and to everyone
//! again beside a timeout for their round; proposals, bare certificates
//! and timeouts are broadcast.

use sft_core::Engine;

use crate::replica::FbftReplica;

/// An [`FbftReplica`] on a transport.
///
/// # Examples
///
/// ```
/// use sft_core::{ProtocolConfig, ReplicaEngine};
/// use sft_crypto::KeyRegistry;
/// use sft_fbft::{FbftEngine, FbftReplica};
/// use sft_types::{EndorseMode, SimDuration, SimTime};
///
/// let config = ProtocolConfig::for_replicas(4);
/// let registry = KeyRegistry::deterministic(4);
/// let replica = FbftReplica::new(
///     1,
///     config,
///     registry,
///     EndorseMode::Marker,
///     SimDuration::from_millis(400),
///     SimTime::ZERO,
/// );
/// let engine = FbftEngine::new(replica);
/// // The bootstrap tick is due immediately.
/// assert_eq!(engine.next_deadline(), Some(SimTime::ZERO));
/// ```
pub type FbftEngine = Engine<FbftReplica>;
