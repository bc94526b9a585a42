//! The signed-quorum collector: §2's "`2f + 1` verified signatures",
//! written once for votes and timeouts alike.
//!
//! A [`Quorum`] holds signed messages per key — the block id for votes
//! ([`VoteTracker`](crate::VoteTracker)), the round for timeouts
//! ([`TimeoutAggregator`](crate::TimeoutAggregator)) — one slot per author,
//! each with a verified flag, and certifies a key once a quorum of its slots
//! hold valid signatures, at most once. A message is counted unchecked, and
//! a key's unchecked slots are checked in one batch when its count reaches
//! the quorum.
//!
//! The protocol only ever *acts* on a quorum, so the checks wait for it:
//! one batch call per certificate, and a message that arrives after its
//! quorum closed is checked on its own. Every counted message is still
//! checked once — `O(n)` checks per replica per round, as checking on
//! arrival would spend — but a byte-identical retransmission is never
//! checked at all. The trade: a forged message can inflate a count until
//! the batch at quorum exposes it (the batch names the forged signer and
//! its slot rolls back), so a certificate, and the feed of verified
//! messages, only ever hold valid signatures; only transient counts see the
//! forgery. `core/tests/quorum_prop.rs` holds the per-message reference
//! this is checked against.
//!
//! [`verify_signed`] is where every signature check of a certificate's
//! members happens and is counted: this collector and certificate intake
//! ([`ChainKernel::admit_qc`](crate::ChainKernel::admit_qc)) both call it.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use sft_crypto::{BatchItem, HashValue, IdState, KeyRegistry, SigStats, Signature};
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

/// Checks `items` in one batch and counts the work into `stats`. Returns
/// the indices of the forged items, ascending.
pub(crate) fn verify_signed(
    registry: &KeyRegistry,
    items: &[BatchItem<'_>],
    stats: &mut SigStats,
) -> Vec<usize> {
    if items.is_empty() {
        return Vec::new();
    }
    let verdict = registry.verify_batch(items);
    stats.count_batch(items.len(), verdict.is_err());
    verdict.err().unwrap_or_default()
}

/// One counted check of `msg`'s signature.
fn check_one<M: Signed>(registry: &KeyRegistry, stats: &mut SigStats, msg: &M) -> bool {
    stats.count_verify();
    let digest = msg.signing_digest();
    registry.verify(msg.author().as_u64(), digest.as_ref(), msg.signature())
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
    /// Its author's slot already holds a valid message.
    Duplicate,
    /// Forged, or from no replica of the system.
    BadSignature,
    /// Its round is outside the window this collector keeps.
    Stale,
}

/// Signed messages per key, verified at quorum (see the
/// [module docs](self)).
#[derive(Clone, Debug)]
pub(crate) struct Quorum<K, M> {
    n: usize,
    quorum: usize,
    registry: KeyRegistry,
    /// By block id (votes) or round (timeouts).
    keys: HashMap<K, Slots<M>, IdState>,
    /// Counted messages whose signatures cleared since the last
    /// [`take_newly_verified`](Self::take_newly_verified), in the order
    /// they cleared.
    newly_verified: Vec<M>,
    stats: SigStats,
    /// Claimed authors of counted messages found forged.
    forged: Vec<ReplicaId>,
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
    by_author: BTreeMap<ReplicaId, Slot<M>>,
    /// Set when the key certified (emit-once).
    certified: bool,
}

#[derive(Clone, Debug)]
struct Slot<M> {
    msg: M,
    verified: bool,
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
            newly_verified: Vec::new(),
            stats: SigStats::default(),
            forged: Vec::new(),
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

    pub(crate) fn forged_signers(&self) -> &[ReplicaId] {
        &self.forged
    }

    pub(crate) fn take_newly_verified(&mut self) -> Vec<M> {
        std::mem::take(&mut self.newly_verified)
    }

    /// The checks before a message may take a slot, none of them a
    /// signature check: its round inside the window and its author a
    /// replica.
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
        check_one(&self.registry, &mut self.stats, msg)
    }

    /// Settles the signature of the message in `author`'s slot of `key`,
    /// checking it now if it has not been. True if a valid message holds
    /// the slot; false if none does — the slot was empty or held a forgery,
    /// now rolled back.
    pub(crate) fn settle(&mut self, key: K, author: ReplicaId) -> bool {
        let Some(slots) = self.keys.get_mut(&key) else {
            return false;
        };
        let Entry::Occupied(mut slot) = slots.by_author.entry(author) else {
            return false;
        };
        if slot.get().verified {
            return true;
        }
        if check_one(&self.registry, &mut self.stats, &slot.get().msg) {
            slot.get_mut().verified = true;
            self.newly_verified.push(slot.get().msg.clone());
            return true;
        }
        slot.remove();
        self.forged.push(author);
        false
    }

    /// Counts a [screened](Self::screen) `msg` under `key`, unchecked.
    ///
    /// An author holds one slot per key. A byte-identical copy of its
    /// message is a duplicate, never checked. A different one settles the
    /// held message first, so a forger can neither displace a valid message
    /// nor keep a forged one counted: a valid holder makes the newcomer a
    /// duplicate (or a forgery), a forged one yields the slot to it. After
    /// certification no batch will run, so stragglers are checked one by
    /// one.
    pub(crate) fn insert(&mut self, key: K, msg: M) -> Added {
        let author = msg.author();
        let held = self
            .keys
            .get(&key)
            .and_then(|slots| slots.by_author.get(&author));
        if let Some(held) = held {
            if held.msg == msg {
                return Added::Duplicate;
            }
            if self.settle(key, author) {
                return if self.check(&msg) {
                    Added::Duplicate
                } else {
                    Added::BadSignature
                };
            }
        }
        let certified = self.is_certified(key);
        if certified {
            if !self.check(&msg) {
                return Added::BadSignature;
            }
            self.newly_verified.push(msg.clone());
        }
        let round = msg.round();
        let slots = self.keys.entry(key).or_insert_with(|| Slots {
            round,
            by_author: BTreeMap::new(),
            certified: false,
        });
        slots.by_author.insert(
            author,
            Slot {
                msg,
                verified: certified,
            },
        );
        let count = slots.by_author.len();
        if certified || count < self.quorum {
            return Added::Counted(count);
        }
        if self.certify(key) {
            return Added::Certified;
        }
        match self.keys.get(&key) {
            Some(slots) if slots.by_author.contains_key(&author) => {
                Added::Counted(slots.by_author.len())
            }
            // The batch this message triggered exposed it as forged.
            _ => Added::BadSignature,
        }
    }

    /// Certifies `key` if it holds a quorum of valid messages, first
    /// checking the unchecked ones in one batch and rolling back the forged.
    fn certify(&mut self, key: K) -> bool {
        let Some(slots) = self.keys.get_mut(&key) else {
            return false;
        };
        // Author order, so the batch (and every count after it) is
        // deterministic.
        let unchecked: Vec<(ReplicaId, HashValue, Signature)> = slots
            .by_author
            .iter()
            .filter(|(_, slot)| !slot.verified)
            .map(|(author, slot)| (*author, slot.msg.signing_digest(), *slot.msg.signature()))
            .collect();
        let items: Vec<BatchItem<'_>> = unchecked
            .iter()
            .map(|(author, digest, signature)| {
                BatchItem::new(author.as_u64(), digest.as_ref(), signature)
            })
            .collect();
        let forged = verify_signed(&self.registry, &items, &mut self.stats);
        let mut forged = forged
            .into_iter()
            .map(|index| unchecked[index].0)
            .peekable();
        slots.by_author.retain(|author, slot| {
            if forged.peek() == Some(author) {
                forged.next();
                self.forged.push(*author);
                return false;
            }
            if !slot.verified {
                slot.verified = true;
                self.newly_verified.push(slot.msg.clone());
            }
            true
        });
        slots.certified = slots.by_author.len() >= self.quorum;
        slots.certified
    }

    /// The messages counted under `key`, in author order.
    pub(crate) fn members(&self, key: K) -> impl Iterator<Item = &M> {
        self.keys
            .get(&key)
            .into_iter()
            .flat_map(|slots| slots.by_author.values().map(|slot| &slot.msg))
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
