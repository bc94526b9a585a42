//! The SFT-Streamlet replica as a transport-driven
//! [`ReplicaEngine`](sft_core::ReplicaEngine): the generic [`Engine`]
//! over [`Replica`]'s [`ReplicaRules`](sft_core::ReplicaRules).
//!
//! Streamlet epochs are externally clocked (Appendix D assumes synchrony),
//! so the replica carries the epoch clock the lock-step driver used to
//! hold: epoch `e` opens at `(e − 1) × period` where `period = 2δ`
//! (propose, then one delay for the proposal and one for the votes).
//! Expressing the clock as engine deadlines is what lets the same
//! event-driven run loop pace both the externally clocked Streamlet and
//! the self-pacing SFT-DiemBFT — and lets the clock be wall time when the
//! engine runs over sockets.
//!
//! Votes are broadcast; block-sync requests go out only from the engine's
//! sync poll.

use sft_core::Engine;

use crate::replica::Replica;

/// A [`Replica`] on a transport.
///
/// # Examples
///
/// ```
/// use sft_core::{ProtocolConfig, ReplicaEngine};
/// use sft_crypto::KeyRegistry;
/// use sft_streamlet::{EndorseMode, Replica, StreamletEngine};
/// use sft_types::{SimDuration, SimTime};
///
/// let config = ProtocolConfig::for_replicas(4);
/// let registry = KeyRegistry::deterministic(4);
/// let replica = Replica::new(0, config, registry, EndorseMode::Marker)
///     .with_epoch_clock(SimDuration::from_millis(200), 10);
/// let engine = StreamletEngine::new(replica);
/// // Epoch 1 opens at the very first instant.
/// assert_eq!(engine.next_deadline(), Some(SimTime::ZERO));
/// ```
pub type StreamletEngine = Engine<Replica>;
