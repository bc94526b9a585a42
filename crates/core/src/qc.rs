//! Vote aggregation into quorum certificates.
//!
//! A [`VoteTracker`] collects verified [`StrongVote`]s per block, detects
//! same-round equivocation, and emits a [`QuorumCertificate`] exactly once
//! when a block reaches the classic `2f + 1` quorum. Certification
//! ("notarization" in Streamlet's vocabulary) is deliberately separate from
//! endorsement strength: a QC says *this block may extend the chain*, while
//! the endorsement tally of [`crate::EndorsementTracker`] says *how many
//! faults a commit of it survives*.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use sft_crypto::{BatchItem, HashValue, Hasher, KeyRegistry, SigStats};
use sft_types::{
    vote_signing_digest_with, Decode, DecodeError, Encode, ReplicaId, Round, SignerSet, StrongVote,
    VerifyPolicy, VoteData,
};

use crate::{Block, ProtocolConfig};

/// Proof that `2f + 1` distinct replicas voted for the same [`VoteData`].
///
/// The per-vote signatures live in the tracker; the certificate carries the
/// voted data plus the signer set, which is all downstream logic consumes.
/// The round-based protocol ships QCs inside proposals, so the certificate
/// is wire-encodable; receivers validate it *structurally* (signer count
/// against the quorum) — within the simulator's threat model the vote
/// tracker that formed it has already checked every signature, and a
/// threshold-aggregated signature slots in here when real networking lands.
#[derive(Clone, PartialEq, Eq)]
pub struct QuorumCertificate {
    data: VoteData,
    /// Shared, not owned: the vote tracker that formed the certificate and
    /// every proposal re-shipping it point at the same signer set, so
    /// certification and the (frequent) QC clones on the propose path cost
    /// a reference count, not a bitset copy.
    signers: Arc<SignerSet>,
    /// Computed once at construction (like a block id); every later
    /// [`digest`](Self::digest) call — one per proposal signature check —
    /// is a copy instead of an encode-and-hash.
    digest: HashValue,
}

fn qc_digest(data: &VoteData, signers: &SignerSet) -> HashValue {
    let mut bytes = Vec::with_capacity(data.encoded_len() + 16);
    data.encode(&mut bytes);
    signers.encode(&mut bytes);
    Hasher::new("quorum-certificate").field(&bytes).finish()
}

impl QuorumCertificate {
    /// Assembles a certificate from parts. Callers are expected to have
    /// verified the underlying votes (the tracker has). Accepts an owned
    /// signer set or an already-shared `Arc` (the tracker passes the latter
    /// so no copy happens when a quorum forms).
    pub fn new(data: VoteData, signers: impl Into<Arc<SignerSet>>) -> Self {
        let signers = signers.into();
        let digest = qc_digest(&data, &signers);
        Self {
            data,
            signers,
            digest,
        }
    }

    /// The well-known certificate for the genesis block of an `n`-replica
    /// system: round 0, no signers. Genesis is trusted by construction, so
    /// its QC carries no votes — structural validation special-cases it.
    pub fn genesis(n: usize) -> Self {
        let genesis = Block::genesis();
        Self::new(genesis.vote_data(), SignerSet::new(n))
    }

    /// The certified vote data.
    pub fn data(&self) -> &VoteData {
        &self.data
    }

    /// The certified block's id.
    pub fn block_id(&self) -> HashValue {
        self.data.block_id()
    }

    /// The certified block's round.
    pub fn round(&self) -> Round {
        self.data.block_round()
    }

    /// The replicas whose votes formed the certificate.
    pub fn signers(&self) -> &SignerSet {
        &self.signers
    }

    /// Digest of the certificate (mixed into proposal signing preimages so
    /// a leader's signature covers the QC it proposes on). Precomputed at
    /// construction, so re-verifying a re-delivered QC never re-hashes it.
    pub fn digest(&self) -> HashValue {
        self.digest
    }

    /// Structural validity against a protocol configuration: the genesis
    /// certificate, or a signer set meeting the classic `2f + 1` quorum.
    pub fn is_well_formed(&self, config: &ProtocolConfig) -> bool {
        if self.round() == Round::ZERO {
            return self.block_id() == Block::genesis().id() && self.signers.is_empty();
        }
        self.signers.len() >= config.quorum()
    }
}

impl Encode for QuorumCertificate {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.data.encode(buf);
        self.signers.encode(buf);
    }
}

impl Decode for QuorumCertificate {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let data = VoteData::decode(buf)?;
        let signers = SignerSet::decode(buf)?;
        Ok(Self::new(data, signers))
    }
}

impl fmt::Debug for QuorumCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QC({} r={} by {:?})",
            self.block_id().short(),
            self.round(),
            self.signers
        )
    }
}

/// Outcome of feeding one vote to a [`VoteTracker`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VoteOutcome {
    /// The vote was counted; the block now has this many votes.
    Counted(usize),
    /// The vote was counted and completed the classic quorum: the block is
    /// now certified. Emitted at most once per block.
    Certified(QuorumCertificate),
    /// This replica already voted for this block — ignored.
    Duplicate,
    /// The signature did not verify — ignored.
    BadSignature,
    /// The author already voted for a *different* block in the same round;
    /// the vote is ignored and the author recorded as an equivocator.
    Equivocation,
    /// The vote's round is below the tracker's retention floor
    /// ([`VoteTracker::prune_below`]) — ignored, unverified.
    Stale,
}

/// Aggregates strong-votes into quorum certificates.
///
/// # Examples
///
/// ```
/// use sft_core::{ProtocolConfig, VoteOutcome, VoteTracker};
/// use sft_crypto::{HashValue, KeyRegistry};
/// use sft_types::{EndorseInfo, Round, StrongVote, VoteData};
///
/// let cfg = ProtocolConfig::for_replicas(4);
/// let registry = KeyRegistry::deterministic(4);
/// let mut tracker = VoteTracker::new(cfg, registry.clone());
/// let data = VoteData::new(HashValue::of(b"B1"), Round::new(1), HashValue::of(b"G"), Round::ZERO);
/// for i in 0..2 {
///     let vote = StrongVote::new(data, EndorseInfo::None, &registry.key_pair(i).unwrap());
///     assert!(matches!(tracker.add_vote(&vote), VoteOutcome::Counted(_)));
/// }
/// let vote = StrongVote::new(data, EndorseInfo::None, &registry.key_pair(2).unwrap());
/// assert!(matches!(tracker.add_vote(&vote), VoteOutcome::Certified(_)));
/// ```
#[derive(Clone, Debug)]
pub struct VoteTracker {
    config: ProtocolConfig,
    registry: KeyRegistry,
    policy: VerifyPolicy,
    /// Votes aggregated per block id. The signer set is behind an `Arc` so
    /// certification hands the set to the [`QuorumCertificate`] by sharing;
    /// `Arc::make_mut` keeps later inserts copy-free until (at most once) a
    /// vote arrives after certification.
    by_block: HashMap<HashValue, Tally>,
    /// First block each replica voted for in each round, for equivocation
    /// detection.
    first_vote: HashMap<(Round, ReplicaId), HashValue>,
    /// Replicas caught voting for two blocks in one round.
    equivocators: Vec<ReplicaId>,
    /// Under [`VerifyPolicy::OnQuorum`]: every counted vote, keyed by
    /// (block, author), with its deferred-verification state. Unused (and
    /// empty) under [`VerifyPolicy::OnArrival`].
    stored: HashMap<(HashValue, ReplicaId), StoredVote>,
    /// Votes accepted *and verified* since the last
    /// [`take_newly_verified`](Self::take_newly_verified) call — the feed
    /// the endorsement tracker consumes, so endorsements are only ever
    /// credited to signatures that actually checked out.
    newly_verified: Vec<StrongVote>,
    stats: SigStats,
    /// Claimed authors of signatures a batch check rejected.
    forged: Vec<ReplicaId>,
    /// Votes for rounds below this are [`VoteOutcome::Stale`].
    floor: Round,
}

/// The votes counted for one block.
#[derive(Clone, Debug)]
struct Tally {
    data: VoteData,
    signers: Arc<SignerSet>,
    /// Set when the block produced its certificate (emit-once).
    certified: bool,
}

impl Tally {
    fn new(data: VoteData, n: usize) -> Self {
        Self {
            data,
            signers: Arc::new(SignerSet::new(n)),
            certified: false,
        }
    }

    fn certificate(&self) -> QuorumCertificate {
        QuorumCertificate::new(self.data, Arc::clone(&self.signers))
    }
}

/// A counted vote held until (and after) its signature is checked.
#[derive(Clone, Debug)]
struct StoredVote {
    vote: StrongVote,
    verified: bool,
}

impl VoteTracker {
    /// Creates a tracker for the given configuration and PKI, verifying
    /// signatures on arrival.
    pub fn new(config: ProtocolConfig, registry: KeyRegistry) -> Self {
        Self {
            config,
            registry,
            policy: VerifyPolicy::OnArrival,
            by_block: HashMap::new(),
            first_vote: HashMap::new(),
            equivocators: Vec::new(),
            stored: HashMap::new(),
            newly_verified: Vec::new(),
            stats: SigStats::default(),
            forged: Vec::new(),
            floor: Round::ZERO,
        }
    }

    /// Selects when this tracker checks signatures (see
    /// [`VerifyPolicy`]).
    pub fn with_policy(mut self, policy: VerifyPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The verification policy in effect.
    pub fn policy(&self) -> VerifyPolicy {
        self.policy
    }

    /// Signature-verification work counters for this tracker.
    pub fn sig_stats(&self) -> SigStats {
        self.stats
    }

    /// Claimed authors of signatures a batch check rejected — the output
    /// of the bisection over a bad batch.
    pub fn forged_signers(&self) -> &[ReplicaId] {
        &self.forged
    }

    /// Drains the votes accepted *and signature-verified* since the last
    /// call, in acceptance order (batch survivors surface in signer-index
    /// order when their quorum's check runs). Endorsement recording feeds
    /// from this instead of from raw arrivals, so deferred verification
    /// can never credit an endorsement to an unchecked signature.
    pub fn take_newly_verified(&mut self) -> Vec<StrongVote> {
        std::mem::take(&mut self.newly_verified)
    }

    /// Counts one vote, verifying per [`VerifyPolicy`]. See
    /// [`VoteOutcome`] for the cases.
    pub fn add_vote(&mut self, vote: &StrongVote) -> VoteOutcome {
        if vote.round() < self.floor {
            return VoteOutcome::Stale;
        }
        match self.policy {
            VerifyPolicy::OnArrival => self.add_on_arrival(vote),
            VerifyPolicy::OnQuorum => self.add_on_quorum(vote),
        }
    }

    fn verify_one(&mut self, vote: &StrongVote) -> bool {
        self.stats.count_verify();
        vote.verify(&self.registry)
    }

    fn add_on_arrival(&mut self, vote: &StrongVote) -> VoteOutcome {
        if !self.verify_one(vote) {
            return VoteOutcome::BadSignature;
        }
        let block_id = vote.data().block_id();
        let author = vote.author();

        match self.first_vote.entry((vote.round(), author)) {
            std::collections::hash_map::Entry::Occupied(e) if *e.get() != block_id => {
                if !self.equivocators.contains(&author) {
                    self.equivocators.push(author);
                }
                return VoteOutcome::Equivocation;
            }
            std::collections::hash_map::Entry::Occupied(_) => {}
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(block_id);
            }
        }

        let n = self.config.n();
        let tally = self
            .by_block
            .entry(block_id)
            .or_insert_with(|| Tally::new(*vote.data(), n));
        if !Arc::make_mut(&mut tally.signers).insert(author) {
            return VoteOutcome::Duplicate;
        }
        let count = tally.signers.len();
        self.newly_verified.push(vote.clone());
        if count >= self.config.quorum() && !tally.certified {
            tally.certified = true;
            return VoteOutcome::Certified(tally.certificate());
        }
        VoteOutcome::Counted(count)
    }

    fn add_on_quorum(&mut self, vote: &StrongVote) -> VoteOutcome {
        let block_id = vote.data().block_id();
        let author = vote.author();
        if let Some(&first_block) = self.first_vote.get(&(vote.round(), author)) {
            if first_block == block_id {
                return self.settle_same_block(vote);
            }
            // Conflicting blocks under one author in one round. Settle the
            // stored first vote's signature before judging: a forger must
            // not be able to frame an honest replica as an equivocator,
            // nor keep a forged first vote counted.
            let stored_state = self
                .stored
                .get(&(first_block, author))
                .map(|s| (s.vote.clone(), s.verified));
            if let Some((stored_vote, verified)) = stored_state {
                if verified || self.verify_one(&stored_vote) {
                    if !verified {
                        self.stored
                            .get_mut(&(first_block, author))
                            .expect("entry exists")
                            .verified = true;
                        self.newly_verified.push(stored_vote);
                    }
                    return self.settle_equivocation(vote);
                }
                // The stored first vote was forged: roll it back and treat
                // the arriving vote as the author's real first vote.
                self.rollback(first_block, author);
            } else {
                return self.settle_equivocation(vote);
            }
        }
        self.insert_fresh(vote)
    }

    /// The author re-voted for its first block: deduplicate, lazily
    /// settling signatures when the copies differ in content.
    fn settle_same_block(&mut self, vote: &StrongVote) -> VoteOutcome {
        let block_id = vote.data().block_id();
        let author = vote.author();
        let stored_state = self
            .stored
            .get(&(block_id, author))
            .map(|s| (s.vote.clone(), s.verified));
        let Some((stored_vote, verified)) = stored_state else {
            // No stored copy (defensive): treat as a plain duplicate.
            return if self.verify_one(vote) {
                VoteOutcome::Duplicate
            } else {
                VoteOutcome::BadSignature
            };
        };
        if stored_vote == *vote {
            // Byte-identical retransmission: deduplicated without ever
            // touching the signature — the common case deferral makes free.
            return VoteOutcome::Duplicate;
        }
        if verified || self.verify_one(&stored_vote) {
            if !verified {
                self.stored
                    .get_mut(&(block_id, author))
                    .expect("entry exists")
                    .verified = true;
                self.newly_verified.push(stored_vote);
            }
            return if self.verify_one(vote) {
                VoteOutcome::Duplicate
            } else {
                VoteOutcome::BadSignature
            };
        }
        // The stored copy was forged; the arriving vote takes the slot.
        self.rollback(block_id, author);
        self.insert_fresh(vote)
    }

    /// The arriving vote conflicts with a *valid* first vote: verify it,
    /// and record the author as an equivocator only on a valid signature
    /// (matching the on-arrival path — forged conflicts are not evidence).
    fn settle_equivocation(&mut self, vote: &StrongVote) -> VoteOutcome {
        if !self.verify_one(vote) {
            return VoteOutcome::BadSignature;
        }
        let author = vote.author();
        if !self.equivocators.contains(&author) {
            self.equivocators.push(author);
        }
        VoteOutcome::Equivocation
    }

    /// Counts a vote with no prior state for its (block, author) slot.
    fn insert_fresh(&mut self, vote: &StrongVote) -> VoteOutcome {
        let block_id = vote.data().block_id();
        let author = vote.author();
        let already_certified = self.is_certified(block_id);
        if already_certified && !self.verify_one(vote) {
            // Post-certification stragglers verify individually: they can
            // still upgrade endorsement strength, so their signatures
            // cannot wait for a batch that will never run.
            return VoteOutcome::BadSignature;
        }
        let n = self.config.n();
        let tally = self
            .by_block
            .entry(block_id)
            .or_insert_with(|| Tally::new(*vote.data(), n));
        if !Arc::make_mut(&mut tally.signers).insert(author) {
            return VoteOutcome::Duplicate;
        }
        let count = tally.signers.len();
        self.first_vote.insert((vote.round(), author), block_id);
        self.stored.insert(
            (block_id, author),
            StoredVote {
                vote: vote.clone(),
                verified: already_certified,
            },
        );
        if already_certified {
            self.newly_verified.push(vote.clone());
            return VoteOutcome::Counted(count);
        }
        if count >= self.config.quorum() {
            if let Some(qc) = self.try_certify(block_id) {
                return VoteOutcome::Certified(qc);
            }
            if !self.stored.contains_key(&(block_id, author)) {
                // The arriving vote itself was exposed as forged by the
                // batch check it triggered.
                return VoteOutcome::BadSignature;
            }
            return VoteOutcome::Counted(self.votes_for(block_id));
        }
        VoteOutcome::Counted(count)
    }

    /// Certifies `block_id` if it (still) holds a verified quorum,
    /// batch-checking any deferred signatures first. Emits at most once.
    ///
    /// All votes of a forming QC certify the same [`VoteData`], so its
    /// digest is hashed once and shared across every signing preimage in
    /// the batch — the precompute half of the batched path.
    fn try_certify(&mut self, block_id: HashValue) -> Option<QuorumCertificate> {
        let Tally {
            data,
            signers,
            certified,
        } = self.by_block.get(&block_id)?;
        if *certified || signers.len() < self.config.quorum() {
            return None;
        }
        // Signer-set iteration is index-ordered, so the batch (and with
        // it every downstream count) is deterministic.
        let unverified: Vec<ReplicaId> = signers
            .iter()
            .filter(|author| !self.stored[&(block_id, *author)].verified)
            .collect();
        if !unverified.is_empty() {
            let data_digest = data.digest();
            let digests: Vec<HashValue> = unverified
                .iter()
                .map(|author| {
                    let stored = &self.stored[&(block_id, *author)];
                    vote_signing_digest_with(data_digest, stored.vote.endorse())
                })
                .collect();
            let items: Vec<BatchItem<'_>> = unverified
                .iter()
                .zip(&digests)
                .map(|(author, digest)| {
                    BatchItem::new(
                        author.as_u64(),
                        digest.as_ref(),
                        self.stored[&(block_id, *author)].vote.signature(),
                    )
                })
                .collect();
            // Pooled: shards the MAC work over the crypto worker pool
            // above a threshold, serial below it — result-identical.
            let result = self.registry.verify_batch_pooled(&items);
            drop(items);
            self.stats.count_batch(unverified.len(), result.is_err());
            let forged_indices = result.err().unwrap_or_default();
            let mut forged_iter = forged_indices.iter().peekable();
            for (index, author) in unverified.iter().enumerate() {
                if forged_iter.peek() == Some(&&index) {
                    forged_iter.next();
                    self.rollback(block_id, *author);
                } else {
                    let stored = self
                        .stored
                        .get_mut(&(block_id, *author))
                        .expect("entry exists");
                    stored.verified = true;
                    self.newly_verified.push(stored.vote.clone());
                }
            }
        }
        let tally = self.by_block.get_mut(&block_id)?;
        if tally.signers.len() < self.config.quorum() {
            return None;
        }
        tally.certified = true;
        Some(tally.certificate())
    }

    /// Removes a forged vote's traces: the signer-set count, the
    /// first-vote record, and the stored copy.
    fn rollback(&mut self, block_id: HashValue, author: ReplicaId) {
        if let Some(tally) = self.by_block.get_mut(&block_id) {
            Arc::make_mut(&mut tally.signers).remove(author);
            let key = (tally.data.block_round(), author);
            if self.first_vote.get(&key) == Some(&block_id) {
                self.first_vote.remove(&key);
            }
        }
        self.stored.remove(&(block_id, author));
        self.forged.push(author);
    }

    /// Number of verified votes currently counted for `block_id`.
    pub fn votes_for(&self, block_id: HashValue) -> usize {
        self.by_block
            .get(&block_id)
            .map_or(0, |tally| tally.signers.len())
    }

    /// The block of `round` with the most verified votes here (ties broken
    /// by id, so the answer is deterministic). Votes are broadcast, so even
    /// a replica that never saw round `round`'s proposal usually knows the
    /// id of the block its peers certified — the lookup the catch-up path
    /// uses when a timeout message reveals a QC round this replica missed.
    pub fn leading_block_at(&self, round: Round) -> Option<HashValue> {
        self.by_block
            .iter()
            .filter(|(_, tally)| tally.data.block_round() == round)
            .max_by_key(|(id, tally)| (tally.signers.len(), **id))
            .map(|(id, _)| *id)
    }

    /// True if `block_id` has reached the classic quorum.
    pub fn is_certified(&self, block_id: HashValue) -> bool {
        self.by_block
            .get(&block_id)
            .is_some_and(|tally| tally.certified)
    }

    /// Forgets every vote, tally, and first-vote record for rounds below
    /// `floor`; later votes for those rounds answer
    /// [`VoteOutcome::Stale`]. Equivocators already caught stay caught.
    pub fn prune_below(&mut self, floor: Round) {
        self.floor = self.floor.max(floor);
        let floor = self.floor;
        self.by_block
            .retain(|_, tally| tally.data.block_round() >= floor);
        self.first_vote.retain(|(round, _), _| *round >= floor);
        self.stored.retain(|_, stored| stored.vote.round() >= floor);
    }

    /// Votes currently held (one per counted `(round, author)`) — the
    /// resident-state gauge a retention horizon keeps bounded.
    pub fn resident_votes(&self) -> usize {
        self.first_vote.len()
    }

    /// Replicas caught equivocating (voting for two blocks in one round).
    pub fn equivocators(&self) -> &[ReplicaId] {
        &self.equivocators
    }

    /// The PKI this tracker verifies against.
    pub fn registry(&self) -> &KeyRegistry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_types::EndorseInfo;

    fn setup() -> (ProtocolConfig, KeyRegistry, VoteTracker) {
        let cfg = ProtocolConfig::for_replicas(4);
        let registry = KeyRegistry::deterministic(4);
        let tracker = VoteTracker::new(cfg, registry.clone());
        (cfg, registry, tracker)
    }

    fn data(tag: &[u8], round: u64) -> VoteData {
        VoteData::new(
            HashValue::of(tag),
            Round::new(round),
            HashValue::zero(),
            Round::ZERO,
        )
    }

    fn vote(registry: &KeyRegistry, signer: u64, d: VoteData) -> StrongVote {
        StrongVote::new(
            d,
            EndorseInfo::Marker(Round::ZERO),
            &registry.key_pair(signer).unwrap(),
        )
    }

    #[test]
    fn quorum_certifies_exactly_once() {
        let (_, registry, mut tracker) = setup();
        let d = data(b"B", 1);
        assert_eq!(
            tracker.add_vote(&vote(&registry, 0, d)),
            VoteOutcome::Counted(1)
        );
        assert_eq!(
            tracker.add_vote(&vote(&registry, 1, d)),
            VoteOutcome::Counted(2)
        );
        let outcome = tracker.add_vote(&vote(&registry, 2, d));
        let VoteOutcome::Certified(qc) = outcome else {
            panic!("expected certification, got {outcome:?}");
        };
        assert_eq!(qc.block_id(), d.block_id());
        assert_eq!(qc.signers().len(), 3);
        assert!(tracker.is_certified(d.block_id()));
        // A fourth vote still counts but does not re-certify.
        assert_eq!(
            tracker.add_vote(&vote(&registry, 3, d)),
            VoteOutcome::Counted(4)
        );
        assert_eq!(tracker.votes_for(d.block_id()), 4);
    }

    #[test]
    fn duplicates_ignored() {
        let (_, registry, mut tracker) = setup();
        let d = data(b"B", 1);
        tracker.add_vote(&vote(&registry, 0, d));
        assert_eq!(
            tracker.add_vote(&vote(&registry, 0, d)),
            VoteOutcome::Duplicate
        );
        assert_eq!(tracker.votes_for(d.block_id()), 1);
    }

    #[test]
    fn bad_signature_rejected() {
        let (_, registry, mut tracker) = setup();
        let d = data(b"B", 1);
        let honest = vote(&registry, 0, d);
        let forged = StrongVote::from_parts(
            d,
            EndorseInfo::None, // signature covered Marker(0), not None
            honest.author(),
            *honest.signature(),
        );
        assert_eq!(tracker.add_vote(&forged), VoteOutcome::BadSignature);
        assert_eq!(tracker.votes_for(d.block_id()), 0);
    }

    #[test]
    fn equivocation_detected_and_ignored() {
        let (_, registry, mut tracker) = setup();
        let a = data(b"A", 1);
        let b = data(b"B", 1);
        tracker.add_vote(&vote(&registry, 0, a));
        assert_eq!(
            tracker.add_vote(&vote(&registry, 0, b)),
            VoteOutcome::Equivocation
        );
        assert_eq!(
            tracker.votes_for(b.block_id()),
            0,
            "conflicting vote not counted"
        );
        assert_eq!(tracker.equivocators(), &[ReplicaId::new(0)]);
        // Re-equivocating does not duplicate the evidence entry.
        tracker.add_vote(&vote(&registry, 0, b));
        assert_eq!(tracker.equivocators().len(), 1);
    }

    #[test]
    fn same_author_different_rounds_is_fine() {
        let (_, registry, mut tracker) = setup();
        tracker.add_vote(&vote(&registry, 0, data(b"A", 1)));
        assert_eq!(
            tracker.add_vote(&vote(&registry, 0, data(b"B", 2))),
            VoteOutcome::Counted(1),
            "voting in a later round is not equivocation"
        );
        assert!(tracker.equivocators().is_empty());
    }

    #[test]
    fn genesis_certificate_is_well_formed_and_empty() {
        let cfg = ProtocolConfig::for_replicas(4);
        let qc = QuorumCertificate::genesis(4);
        assert_eq!(qc.round(), Round::ZERO);
        assert!(qc.signers().is_empty());
        assert!(qc.is_well_formed(&cfg));
        // A forged "round 0" QC naming a non-genesis block is rejected.
        let forged = QuorumCertificate::new(
            VoteData::new(
                HashValue::of(b"evil"),
                Round::ZERO,
                HashValue::zero(),
                Round::ZERO,
            ),
            SignerSet::new(4),
        );
        assert!(!forged.is_well_formed(&cfg));
    }

    #[test]
    fn well_formedness_requires_quorum() {
        let (cfg, registry, mut tracker) = setup();
        let d = data(b"B", 1);
        for signer in 0..3 {
            tracker.add_vote(&vote(&registry, signer, d));
        }
        let sub_quorum = QuorumCertificate::new(
            d,
            SignerSet::from_iter_with_capacity(4, [ReplicaId::new(0), ReplicaId::new(1)]),
        );
        assert!(!sub_quorum.is_well_formed(&cfg));
        let full = QuorumCertificate::new(
            d,
            SignerSet::from_iter_with_capacity(4, (0..3).map(ReplicaId::new)),
        );
        assert!(full.is_well_formed(&cfg));
    }

    #[test]
    fn codec_roundtrips_and_digest_binds() {
        let d = data(b"B", 1);
        let qc = QuorumCertificate::new(
            d,
            SignerSet::from_iter_with_capacity(4, (0..3).map(ReplicaId::new)),
        );
        let back = QuorumCertificate::from_bytes(&qc.to_bytes()).unwrap();
        assert_eq!(back, qc);
        assert_eq!(back.digest(), qc.digest());
        let other = QuorumCertificate::new(d, SignerSet::new(4));
        assert_ne!(qc.digest(), other.digest(), "digest covers the signers");
    }

    fn setup_deferred() -> (ProtocolConfig, KeyRegistry, VoteTracker) {
        let cfg = ProtocolConfig::for_replicas(4);
        let registry = KeyRegistry::deterministic(4);
        let tracker = VoteTracker::new(cfg, registry.clone()).with_policy(VerifyPolicy::OnQuorum);
        (cfg, registry, tracker)
    }

    #[test]
    fn deferred_quorum_certifies_with_one_batch_pass() {
        let (_, registry, mut tracker) = setup_deferred();
        assert_eq!(tracker.policy(), VerifyPolicy::OnQuorum);
        let d = data(b"B", 1);
        assert_eq!(
            tracker.add_vote(&vote(&registry, 0, d)),
            VoteOutcome::Counted(1)
        );
        assert_eq!(
            tracker.add_vote(&vote(&registry, 1, d)),
            VoteOutcome::Counted(2)
        );
        assert!(
            tracker.take_newly_verified().is_empty(),
            "nothing verified before quorum"
        );
        let VoteOutcome::Certified(qc) = tracker.add_vote(&vote(&registry, 2, d)) else {
            panic!("third vote certifies");
        };
        assert_eq!(qc.signers().len(), 3);
        let stats = tracker.sig_stats();
        assert_eq!(stats.verifications, 0);
        assert_eq!(stats.batch_calls, 1);
        assert_eq!(stats.batch_verified, 3);
        let verified = tracker.take_newly_verified();
        assert_eq!(verified.len(), 3, "batch survivors surface together");
        assert!(verified.iter().all(|v| v.data().block_id() == d.block_id()));
    }

    #[test]
    fn deferred_retransmission_never_verifies() {
        let (_, registry, mut tracker) = setup_deferred();
        let d = data(b"B", 1);
        let v = vote(&registry, 0, d);
        tracker.add_vote(&v);
        assert_eq!(tracker.add_vote(&v), VoteOutcome::Duplicate);
        let stats = tracker.sig_stats();
        assert_eq!(stats.verifications + stats.batch_verified, 0);
    }

    #[test]
    fn deferred_bisection_rolls_back_forged_vote() {
        let (_, registry, mut tracker) = setup_deferred();
        let d = data(b"B", 1);
        // A forged vote claiming replica 3 is counted optimistically.
        let honest = vote(&registry, 0, d);
        let forged = StrongVote::from_parts(
            d,
            EndorseInfo::Marker(Round::ZERO),
            ReplicaId::new(3),
            *honest.signature(),
        );
        assert_eq!(tracker.add_vote(&forged), VoteOutcome::Counted(1));
        assert_eq!(
            tracker.add_vote(&vote(&registry, 1, d)),
            VoteOutcome::Counted(2)
        );
        // The batch check at quorum exposes it: count rolls back, no QC.
        assert_eq!(
            tracker.add_vote(&vote(&registry, 2, d)),
            VoteOutcome::Counted(2)
        );
        assert!(!tracker.is_certified(d.block_id()));
        assert_eq!(tracker.forged_signers(), &[ReplicaId::new(3)]);
        assert_eq!(tracker.sig_stats().batch_rejects, 1);
        // Only the two valid survivors were credited.
        assert_eq!(tracker.take_newly_verified().len(), 2);
        // The real replica 3 vote is not blocked by the forgery.
        let VoteOutcome::Certified(qc) = tracker.add_vote(&vote(&registry, 3, d)) else {
            panic!("honest quorum certifies");
        };
        assert_eq!(qc.signers().len(), 3);
    }

    #[test]
    fn deferred_equivocation_still_detected() {
        let (_, registry, mut tracker) = setup_deferred();
        let a = data(b"A", 1);
        let b = data(b"B", 1);
        tracker.add_vote(&vote(&registry, 0, a));
        assert_eq!(
            tracker.add_vote(&vote(&registry, 0, b)),
            VoteOutcome::Equivocation
        );
        assert_eq!(tracker.equivocators(), &[ReplicaId::new(0)]);
        // Settling the conflict verified the stored first vote: it now
        // counts as verified and feeds the endorsement tracker.
        let verified = tracker.take_newly_verified();
        assert_eq!(verified.len(), 1);
        assert_eq!(verified[0].data().block_id(), a.block_id());
    }

    #[test]
    fn deferred_forged_conflict_does_not_frame_the_author() {
        let (_, registry, mut tracker) = setup_deferred();
        let a = data(b"A", 1);
        let b = data(b"B", 1);
        // A forged vote squats on replica 0's round-1 slot for block A.
        let honest_b = vote(&registry, 0, b);
        let forged = StrongVote::from_parts(
            a,
            EndorseInfo::Marker(Round::ZERO),
            ReplicaId::new(0),
            *honest_b.signature(),
        );
        assert_eq!(tracker.add_vote(&forged), VoteOutcome::Counted(1));
        // The author's real vote evicts the forgery instead of branding
        // the author an equivocator.
        assert_eq!(tracker.add_vote(&honest_b), VoteOutcome::Counted(1));
        assert!(tracker.equivocators().is_empty());
        assert_eq!(tracker.votes_for(a.block_id()), 0);
        assert_eq!(tracker.votes_for(b.block_id()), 1);
        assert_eq!(tracker.forged_signers(), &[ReplicaId::new(0)]);
    }

    #[test]
    fn deferred_straggler_verifies_individually_after_qc() {
        let (_, registry, mut tracker) = setup_deferred();
        let d = data(b"B", 1);
        for signer in 0..3 {
            tracker.add_vote(&vote(&registry, signer, d));
        }
        assert!(tracker.is_certified(d.block_id()));
        tracker.take_newly_verified();
        assert_eq!(
            tracker.add_vote(&vote(&registry, 3, d)),
            VoteOutcome::Counted(4)
        );
        assert_eq!(tracker.sig_stats().verifications, 1);
        assert_eq!(tracker.take_newly_verified().len(), 1);
        // A forged straggler is rejected on the spot.
        let honest = vote(&registry, 2, d);
        let forged =
            StrongVote::from_parts(d, EndorseInfo::None, ReplicaId::new(2), *honest.signature());
        assert_eq!(tracker.add_vote(&forged), VoteOutcome::BadSignature);
    }

    #[test]
    fn competing_blocks_tracked_independently() {
        let (_, registry, mut tracker) = setup();
        let a = data(b"A", 1);
        let b = data(b"B", 1);
        tracker.add_vote(&vote(&registry, 0, a));
        tracker.add_vote(&vote(&registry, 1, b));
        assert_eq!(tracker.votes_for(a.block_id()), 1);
        assert_eq!(tracker.votes_for(b.block_id()), 1);
    }
}
