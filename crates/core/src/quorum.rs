//! The signed-quorum collector: §2's "`2f + 1` verified signatures",
//! written once for votes and timeouts alike.
//!
//! A [`Quorum`] holds signed messages per key — the block id for votes
//! ([`VoteTracker`](crate::VoteTracker)), the round for timeouts
//! ([`TimeoutAggregator`](crate::TimeoutAggregator)) — one per author, and
//! certifies a key once, at its quorum-th valid author. Each message's
//! signature is checked once, as it arrives, so only valid messages are
//! ever counted; a byte-identical copy of a held message is a duplicate,
//! never checked again. `core/tests/quorum_prop.rs` holds the per-message
//! reference this is checked against.
//!
//! [`verify_signed`] is the one batch check, used where a certificate's
//! members arrive together: certificate intake
//! ([`ChainKernel::admit_qc`](crate::ChainKernel::admit_qc)).

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use sft_crypto::{HashValue, IdState, KeyRegistry, SigStats, Signature};
use sft_types::{ReplicaId, Round, SignerSet};

use crate::RETENTION_ROUNDS;

/// A message one replica signs toward a certificate.
pub(crate) trait Signed: Clone + PartialEq {
    /// The replica it claims to be from.
    fn author(&self) -> ReplicaId;
    /// The round it belongs to.
    fn round(&self) -> Round;
    /// The author's signature.
    fn signature(&self) -> &Signature;
    /// The digest the signature covers.
    fn signing_digest(&self) -> HashValue;
}

/// What [`Quorum::screen`] or [`Quorum::insert`] made of a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Added {
    /// Counted; its key now holds this many messages.
    Counted(usize),
    /// Counted, and its key just certified: its
    /// [`members`](Quorum::members) and [`signers`](Quorum::signers) are
    /// the certificate's.
    Certified,
    /// Its author already holds a message under its key.
    Duplicate,
    /// Forged, or from no replica of the system.
    BadSignature,
    /// Its round is outside the window this collector keeps.
    Stale,
}

/// Valid signed messages per key (see the [module docs](self)).
#[derive(Clone, Debug)]
pub(crate) struct Quorum<K, M> {
    n: usize,
    quorum: usize,
    registry: KeyRegistry,
    /// By block id (votes) or round (timeouts).
    keys: HashMap<K, Slots<M>, IdState>,
    stats: SigStats,
    /// Rounds below this are stale.
    floor: Round,
    /// Rounds above this are refused: [`RETENTION_ROUNDS`] past the
    /// replica's current round, so no stream of future-round messages can
    /// grow the collector without bound.
    ceiling: Round,
}

/// One key's messages, by author.
#[derive(Clone, Debug)]
struct Slots<M> {
    round: Round,
    by_author: BTreeMap<ReplicaId, M>,
    /// Set when the key certified (emit-once).
    certified: bool,
}

impl<K: Copy + Eq + Hash, M: Signed> Quorum<K, M> {
    /// A collector for `n` replicas certifying at `quorum` messages, in
    /// round 0.
    pub(crate) fn new(n: usize, quorum: usize, registry: KeyRegistry) -> Self {
        Self {
            n,
            quorum,
            registry,
            keys: HashMap::default(),
            stats: SigStats::default(),
            floor: Round::ZERO,
            ceiling: Round::new(RETENTION_ROUNDS),
        }
    }

    pub(crate) fn registry(&self) -> &KeyRegistry {
        &self.registry
    }

    pub(crate) fn sig_stats(&self) -> SigStats {
        self.stats
    }

    /// The checks made before a message's signature is: its round inside
    /// the window and its author a replica.
    pub(crate) fn screen(&self, msg: &M) -> Result<(), Added> {
        if msg.round() < self.floor || msg.round() > self.ceiling {
            return Err(Added::Stale);
        }
        if msg.author().as_usize() >= self.n {
            return Err(Added::BadSignature); // no replica signs as that
        }
        Ok(())
    }

    /// One counted check of `msg`'s signature.
    pub(crate) fn check(&mut self, msg: &M) -> bool {
        self.stats.count_verify();
        let digest = msg.signing_digest();
        let author = msg.author().as_u64();
        self.registry
            .verify(author, digest.as_ref(), msg.signature())
    }

    /// Counts a [screened](Self::screen) `msg` under `key` if its
    /// signature holds.
    ///
    /// An author holds one message per key. A byte-identical copy of it is
    /// a duplicate, never checked; any other message is checked, and a
    /// valid one from an author already held is a duplicate too.
    pub(crate) fn insert(&mut self, key: K, msg: M) -> Added {
        let author = msg.author();
        let held = self.keys.get(&key).and_then(|s| s.by_author.get(&author));
        let (held, identical) = (held.is_some(), held == Some(&msg));
        if identical {
            return Added::Duplicate;
        }
        if !self.check(&msg) {
            return Added::BadSignature;
        }
        if held {
            return Added::Duplicate;
        }
        let round = msg.round();
        let slots = self.keys.entry(key).or_insert_with(|| Slots {
            round,
            by_author: BTreeMap::new(),
            certified: false,
        });
        slots.by_author.insert(author, msg);
        let count = slots.by_author.len();
        if slots.certified || count < self.quorum {
            return Added::Counted(count);
        }
        slots.certified = true;
        Added::Certified
    }

    /// The messages counted under `key`, in author order.
    pub(crate) fn members(&self, key: K) -> impl Iterator<Item = &M> {
        self.keys
            .get(&key)
            .into_iter()
            .flat_map(|slots| slots.by_author.values())
    }

    /// The authors of the messages counted under `key`.
    pub(crate) fn signers(&self, key: K) -> SignerSet {
        let authors = self.members(key).map(Signed::author);
        SignerSet::from_iter_with_capacity(self.n, authors)
    }

    /// Messages counted under `key`.
    pub(crate) fn count(&self, key: K) -> usize {
        self.keys.get(&key).map_or(0, |slots| slots.by_author.len())
    }

    /// True if `key` certified.
    pub(crate) fn is_certified(&self, key: K) -> bool {
        self.keys.get(&key).is_some_and(|slots| slots.certified)
    }

    /// Messages held across every key.
    pub(crate) fn len(&self) -> usize {
        self.keys.values().map(|slots| slots.by_author.len()).sum()
    }

    /// Forgets every key of a round below `floor`; later messages for
    /// those rounds are [`Added::Stale`].
    pub(crate) fn prune_below(&mut self, floor: Round) {
        self.floor = self.floor.max(floor);
        let floor = self.floor;
        self.keys.retain(|_, slots| slots.round >= floor);
    }

    /// The replica entered `round`: messages up to [`RETENTION_ROUNDS`]
    /// past it are let in.
    pub(crate) fn enter_round(&mut self, round: Round) {
        let ceiling = Round::new(round.as_u64().saturating_add(RETENTION_ROUNDS));
        self.ceiling = self.ceiling.max(ceiling);
    }
}
