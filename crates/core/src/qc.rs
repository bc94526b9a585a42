//! Vote aggregation into quorum certificates.
//!
//! A [`VoteTracker`] collects verified [`StrongVote`]s per block (in the
//! signed-quorum collector it shares with timeouts, `quorum.rs`), detects
//! same-round equivocation, and emits a [`QuorumCertificate`] exactly once
//! when a block reaches the classic `2f + 1` quorum. Certification
//! ("notarization" in Streamlet's vocabulary) is deliberately separate from
//! endorsement strength: a QC says *this block may extend the chain*, while
//! the endorsement tally of [`crate::EndorsementTracker`] says *how many
//! faults a commit of it survives*.
//!
//! SFT-DiemBFT sends each vote to the next leader only, so its certificates
//! carry their members' signed strong-votes ([`QcMember`]): a replica that
//! never saw the votes checks the members and credits their endorsements
//! from the certificate ([`ChainKernel::admit_qc`](crate::ChainKernel::admit_qc)).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use sft_crypto::{BatchItem, HashValue, Hasher, IdMap, KeyRegistry, SigStats, Signature};
use sft_types::{
    vote_signing_digest, vote_signing_digest_with, Decode, DecodeError, Encode, QcMember,
    ReplicaId, Round, SignerSet, StrongVote, VerifyPolicy, VoteData,
};

use crate::quorum::{Added, Quorum, Signed};
use crate::{Block, ProtocolConfig};

/// Proof that `2f + 1` distinct replicas voted for the same [`VoteData`].
///
/// A certificate comes in one of two forms:
///
/// - **with members** — every member's strong-vote minus the shared vote
///   data ([`QcMember`]). SFT-DiemBFT's votes reach only the next leader,
///   so this is the form its certificates travel in. A receiver accepts one
///   only if at least `2f + 1` distinct members verify, in one batch
///   ([`ChainKernel::admit_qc`](crate::ChainKernel::admit_qc)), and grades
///   strength from those members.
/// - **bare** — the vote data and a signer set. Streamlet broadcasts every
///   vote, so each replica notarizes from the votes it counted itself and a
///   bare certificate only ever crosses the wire in a block-sync response,
///   where it is checked structurally ([`is_well_formed`](Self::is_well_formed)).
///   The genesis certificate is bare and trusted by construction.
///
/// The digest covers the members, so a proposal's signature binds them.
#[derive(Clone, PartialEq, Eq)]
pub struct QuorumCertificate {
    data: VoteData,
    /// Shared, not owned: the vote tracker that formed the certificate and
    /// every proposal re-shipping it point at the same signer set, so
    /// certification and the (frequent) QC clones on the propose path cost
    /// a reference count, not a bitset copy. In the member form it is the
    /// members' authors.
    signers: Arc<SignerSet>,
    /// The members, in strictly increasing author order; `None` for a bare
    /// certificate.
    members: Option<Arc<[QcMember]>>,
    /// Computed once at construction (like a block id); every later
    /// [`digest`](Self::digest) call — one per proposal signature check —
    /// is a copy instead of an encode-and-hash.
    digest: HashValue,
}

/// The word that opens the member form on the wire, where the bare form
/// has its signer set's capacity — at most 65 536, so never this.
const MEMBER_FORM: u64 = u64::MAX;

/// The most replicas a certificate can name: one past the largest
/// [`ReplicaId`].
const MAX_REPLICAS: u64 = u16::MAX as u64 + 1;

impl QuorumCertificate {
    /// Assembles a bare certificate from parts. Callers are expected to have
    /// verified the underlying votes (the tracker has). Accepts an owned
    /// signer set or an already-shared `Arc` (the tracker passes the latter
    /// so no copy happens when a quorum forms).
    pub fn new(data: VoteData, signers: impl Into<Arc<SignerSet>>) -> Self {
        Self::assemble(data, signers.into(), None)
    }

    /// A certificate carrying `members`, for a system of `n` replicas, in
    /// author order. `None` if two members share an author or an author is
    /// not below `n`. Nothing is verified here: a receiver checks the
    /// members when it admits the certificate.
    pub fn with_members(n: usize, data: VoteData, mut members: Vec<QcMember>) -> Option<Self> {
        members.sort_by_key(QcMember::author);
        Self::member_form(n, data, members.into())
    }

    /// The member form over `members` as given: `None` unless their authors
    /// are strictly increasing and below `n` (also the decoder's
    /// canonical-order check).
    fn member_form(n: usize, data: VoteData, members: Arc<[QcMember]>) -> Option<Self> {
        let increasing = members
            .windows(2)
            .all(|pair| pair[0].author() < pair[1].author());
        let in_range = members.last().is_none_or(|m| m.author().as_usize() < n);
        if !increasing || !in_range || n as u64 > MAX_REPLICAS {
            return None;
        }
        let signers = SignerSet::from_iter_with_capacity(n, members.iter().map(QcMember::author));
        Some(Self::assemble(data, signers.into(), Some(members)))
    }

    fn assemble(data: VoteData, signers: Arc<SignerSet>, members: Option<Arc<[QcMember]>>) -> Self {
        let mut qc = Self {
            data,
            signers,
            members,
            digest: HashValue::zero(),
        };
        qc.digest = Hasher::new("quorum-certificate")
            .field(&qc.to_bytes())
            .finish();
        qc
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

    /// The members' strong-votes (minus the vote data), in author order;
    /// `None` for a bare certificate.
    pub fn members(&self) -> Option<&[QcMember]> {
        self.members.as_deref()
    }

    /// Digest of the certificate (mixed into proposal signing preimages so
    /// a leader's signature covers the QC it proposes on). Precomputed at
    /// construction, so re-verifying a re-delivered QC never re-hashes it.
    pub fn digest(&self) -> HashValue {
        self.digest
    }

    /// True for the well-known genesis certificate of any size.
    pub fn is_genesis(&self) -> bool {
        self.round() == Round::ZERO
            && self.block_id() == Block::genesis().id()
            && self.signers.is_empty()
            && self.members.is_none()
    }

    /// Structural validity against a protocol configuration: the genesis
    /// certificate, or `2f + 1` signers out of `n`. This is the whole
    /// check for a bare certificate; one with members is accepted only
    /// once they verify ([`ChainKernel::admit_qc`](crate::ChainKernel::admit_qc)).
    pub fn is_well_formed(&self, config: &ProtocolConfig) -> bool {
        if self.round() == Round::ZERO {
            return self.is_genesis();
        }
        self.signers.capacity() == config.n() && self.signers.len() >= config.quorum()
    }
}

impl Encode for QuorumCertificate {
    /// The vote data, then the bare form's signer set, or the member
    /// form's marker word (`u64::MAX`), `n` and the members.
    fn encode(&self, buf: &mut Vec<u8>) {
        self.data.encode(buf);
        match &self.members {
            None => self.signers.encode(buf),
            Some(members) => {
                MEMBER_FORM.encode(buf);
                (self.signers.capacity() as u32).encode(buf);
                (members.len() as u32).encode(buf);
                for member in members.iter() {
                    member.encode(buf);
                }
            }
        }
    }
}

impl Decode for QuorumCertificate {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let data = VoteData::decode(buf)?;
        let mut peek = *buf;
        if u64::decode(&mut peek)? != MEMBER_FORM {
            return Ok(Self::new(data, SignerSet::decode(buf)?));
        }
        *buf = peek;
        let n = u32::decode(buf)?;
        let count = u32::decode(buf)?;
        if u64::from(n) > MAX_REPLICAS || count > n {
            return Err(DecodeError::LengthOverflow(u64::from(count.max(n))));
        }
        // A hostile count allocates no more than the input could fill.
        let mut members =
            Vec::with_capacity((count as usize).min(buf.len() / QcMember::MIN_ENCODED_LEN));
        for _ in 0..count {
            members.push(QcMember::decode(buf)?);
        }
        Self::member_form(n as usize, data, members.into()).ok_or(DecodeError::InvalidValue)
    }
}

impl fmt::Debug for QuorumCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QC({} r={} by {:?}{})",
            self.block_id().short(),
            self.round(),
            self.signers,
            if self.members.is_some() {
                " +members"
            } else {
                ""
            }
        )
    }
}

/// The strong-votes a replica holds as verified, per block: every member
/// of a certificate it admitted and, at a leader, every vote its
/// [`VoteTracker`] counted. A member is credited to the endorsement
/// tracker once, when its block is known, and never checked twice.
#[derive(Clone, Debug, Default)]
pub(crate) struct MemberLedger {
    by_block: IdMap<BlockMembers>,
    /// Rounds below this are outside the retention horizon.
    floor: Round,
}

#[derive(Clone, Debug)]
struct BlockMembers {
    data: VoteData,
    /// Per author: its verified member and whether it was credited.
    members: BTreeMap<ReplicaId, (QcMember, bool)>,
}

impl MemberLedger {
    /// Records a verified strong-vote for `data` (the first one per block
    /// and author stays, and so does the first vote data per block).
    pub(crate) fn insert(&mut self, data: VoteData, member: QcMember) {
        if data.block_round() < self.floor {
            return;
        }
        let block = self
            .by_block
            .entry(data.block_id())
            .or_insert_with(|| BlockMembers {
                data,
                members: BTreeMap::new(),
            });
        if block.data == data {
            block
                .members
                .entry(member.author())
                .or_insert((member, false));
        }
    }

    /// Checks `qc`'s members for a system of `config`: at least `2f + 1`,
    /// and every one this ledger does not already hold verifies — one batch
    /// over the new ones ([`verify_signed`]), counted into `stats`. On
    /// success the new members are recorded; on failure nothing is.
    pub(crate) fn admit(
        &mut self,
        qc: &QuorumCertificate,
        config: &ProtocolConfig,
        registry: &KeyRegistry,
        stats: &mut SigStats,
    ) -> bool {
        let Some(members) = qc.members() else {
            return false;
        };
        if !qc.is_well_formed(config) || qc.round() < self.floor {
            return false;
        }
        // A member counts as held only under the very vote data it was
        // verified for: the certificate's data is what its members sign.
        let held = self
            .by_block
            .get(&qc.block_id())
            .filter(|block| block.data == *qc.data());
        let fresh: Vec<&QcMember> = members
            .iter()
            .filter(|member| {
                held.and_then(|block| block.members.get(&member.author()))
                    .is_none_or(|(known, _)| known != *member)
            })
            .collect();
        let data_digest = qc.data().digest();
        let digests: Vec<HashValue> = fresh
            .iter()
            .map(|member| vote_signing_digest_with(data_digest, member.endorse()))
            .collect();
        let items: Vec<BatchItem<'_>> = fresh
            .iter()
            .zip(&digests)
            .map(|(member, digest)| {
                BatchItem::new(
                    member.author().as_u64(),
                    digest.as_ref(),
                    member.signature(),
                )
            })
            .collect();
        if !verify_signed(registry, &items, stats) {
            return false;
        }
        for member in fresh {
            self.insert(*qc.data(), member.clone());
        }
        true
    }

    /// The strong-votes for `block_id` not yet credited, marking them
    /// credited.
    pub(crate) fn take_uncredited(&mut self, block_id: HashValue) -> Vec<StrongVote> {
        let Some(block) = self.by_block.get_mut(&block_id) else {
            return Vec::new();
        };
        let data = block.data;
        block
            .members
            .values_mut()
            .filter(|(_, credited)| !*credited)
            .map(|(member, credited)| {
                *credited = true;
                member.to_vote(data)
            })
            .collect()
    }

    /// A certificate with every member held for `block_id`, for a system
    /// of `n` replicas.
    pub(crate) fn certificate(&self, n: usize, block_id: HashValue) -> Option<QuorumCertificate> {
        let block = self.by_block.get(&block_id)?;
        let members = block.members.values().map(|(m, _)| m.clone()).collect();
        QuorumCertificate::with_members(n, block.data, members)
    }

    /// Forgets every block below `floor`.
    pub(crate) fn prune_below(&mut self, floor: Round) {
        self.floor = self.floor.max(floor);
        let floor = self.floor;
        self.by_block
            .retain(|_, block| block.data.block_round() >= floor);
    }

    /// Members held.
    pub(crate) fn len(&self) -> usize {
        self.by_block.values().map(|b| b.members.len()).sum()
    }
}

/// Checks `items` in one batch and counts the work into `stats`: the one
/// batch check, where a certificate's members arrive together. True if
/// every signature holds.
fn verify_signed(registry: &KeyRegistry, items: &[BatchItem<'_>], stats: &mut SigStats) -> bool {
    if items.is_empty() {
        return true;
    }
    let verdict = registry.verify_batch(items);
    stats.count_batch(items.len(), verdict.is_err());
    verdict.is_ok()
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
    /// The vote's round is outside the tracker's window: below its
    /// retention floor ([`VoteTracker::prune_below`]) or more than
    /// [`RETENTION_ROUNDS`](crate::RETENTION_ROUNDS) past the replica's
    /// current round ([`VoteTracker::enter_round`]) — ignored, unverified.
    Stale,
}

/// Aggregates strong-votes into quorum certificates.
///
/// The signed-quorum collector it shares with the
/// [`TimeoutAggregator`](crate::TimeoutAggregator) holds the votes per
/// block and checks each signature once, as it arrives; the tracker adds
/// what only votes have: same-round equivocation and the certificate.
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
    /// The votes, per block id.
    votes: Quorum<HashValue, StrongVote>,
    /// First block each replica voted for in each round (a counted, so
    /// checked, vote), for equivocation detection.
    first_vote: HashMap<(Round, ReplicaId), HashValue>,
    /// Replicas caught voting for two blocks in one round.
    equivocators: Vec<ReplicaId>,
}

impl Signed for StrongVote {
    fn author(&self) -> ReplicaId {
        self.author()
    }

    fn round(&self) -> Round {
        self.round()
    }

    fn signature(&self) -> &Signature {
        self.signature()
    }

    fn signing_digest(&self) -> HashValue {
        vote_signing_digest(self.data(), self.endorse())
    }
}

impl VoteTracker {
    /// Creates a tracker for the given configuration and PKI.
    pub fn new(config: ProtocolConfig, registry: KeyRegistry) -> Self {
        Self {
            votes: Quorum::new(config.n(), config.quorum(), registry),
            first_vote: HashMap::new(),
            equivocators: Vec::new(),
        }
    }

    // Kept only so the frozen benchmark probe `core.vote_to_qc_*` compiles;
    // ROADMAP item 8(a) deletes it.
    #[doc(hidden)]
    pub fn with_policy(self, _policy: VerifyPolicy) -> Self {
        self
    }

    /// Signature-verification work counters for this tracker.
    pub fn sig_stats(&self) -> SigStats {
        self.votes.sig_stats()
    }

    /// Counts one vote if its signature holds, checking it now. See
    /// [`VoteOutcome`] for the cases.
    pub fn add_vote(&mut self, vote: &StrongVote) -> VoteOutcome {
        if let Err(rejected) = self.votes.screen(vote) {
            return self.outcome(rejected, vote);
        }
        let (block_id, author) = (vote.data().block_id(), vote.author());
        // A vote for another block than the author's first in this round,
        // which was checked when it was counted: a valid conflict is
        // evidence, a forged one frames no one.
        let first = self.first_vote.get(&(vote.round(), author));
        if first.is_some_and(|first| *first != block_id) {
            if !self.votes.check(vote) {
                return VoteOutcome::BadSignature;
            }
            if !self.equivocators.contains(&author) {
                self.equivocators.push(author);
            }
            return VoteOutcome::Equivocation;
        }
        let added = self.votes.insert(block_id, vote.clone());
        if matches!(added, Added::Counted(_) | Added::Certified) {
            self.first_vote.insert((vote.round(), author), block_id);
        }
        self.outcome(added, vote)
    }

    fn outcome(&self, added: Added, vote: &StrongVote) -> VoteOutcome {
        match added {
            Added::Counted(count) => VoteOutcome::Counted(count),
            // The vote completed the quorum, so it is a member and its
            // data is what the members signed.
            Added::Certified => {
                let signers = self.votes.signers(vote.data().block_id());
                VoteOutcome::Certified(QuorumCertificate::new(*vote.data(), signers))
            }
            Added::Duplicate => VoteOutcome::Duplicate,
            Added::BadSignature => VoteOutcome::BadSignature,
            Added::Stale => VoteOutcome::Stale,
        }
    }

    /// Number of votes currently counted for `block_id`.
    pub fn votes_for(&self, block_id: HashValue) -> usize {
        self.votes.count(block_id)
    }

    /// True if `block_id` has reached the classic quorum.
    pub fn is_certified(&self, block_id: HashValue) -> bool {
        self.votes.is_certified(block_id)
    }

    /// Forgets every vote and first-vote record for rounds below `floor`;
    /// later votes for those rounds answer [`VoteOutcome::Stale`].
    /// Equivocators already caught stay caught.
    pub fn prune_below(&mut self, floor: Round) {
        self.votes.prune_below(floor);
        self.first_vote.retain(|(round, _), _| *round >= floor);
    }

    /// The replica entered `round`: votes up to
    /// [`RETENTION_ROUNDS`](crate::RETENTION_ROUNDS) past it are let in,
    /// later ones answer [`VoteOutcome::Stale`].
    pub fn enter_round(&mut self, round: Round) {
        self.votes.enter_round(round);
    }

    /// Votes currently held (one per counted `(round, author)`) — the
    /// resident-state gauge a retention horizon keeps bounded.
    pub fn resident_votes(&self) -> usize {
        self.votes.len()
    }

    /// Replicas caught equivocating (voting for two blocks in one round).
    pub fn equivocators(&self) -> &[ReplicaId] {
        &self.equivocators
    }

    /// The PKI this tracker verifies against.
    pub fn registry(&self) -> &KeyRegistry {
        self.votes.registry()
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
        // Refused on arrival and never counted, before or after the real
        // vote of its claimed author.
        assert_eq!(tracker.add_vote(&forged), VoteOutcome::BadSignature);
        assert_eq!(tracker.votes_for(d.block_id()), 0);
        assert_eq!(tracker.add_vote(&honest), VoteOutcome::Counted(1));
        assert_eq!(tracker.add_vote(&forged), VoteOutcome::BadSignature);
        tracker.add_vote(&vote(&registry, 1, d));
        let VoteOutcome::Certified(qc) = tracker.add_vote(&vote(&registry, 2, d)) else {
            panic!("the honest quorum certifies");
        };
        assert!(qc.signers().contains(ReplicaId::new(0)));
        let stats = tracker.sig_stats();
        assert_eq!(stats.verifications, 5, "each vote checked once, on arrival");
        assert_eq!(stats.batch_calls, 0);
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

    #[test]
    fn deferred_retransmission_never_verifies() {
        let (_, registry, mut tracker) = setup();
        let d = data(b"B", 1);
        let v = vote(&registry, 0, d);
        assert_eq!(tracker.add_vote(&v), VoteOutcome::Counted(1));
        assert_eq!(tracker.sig_stats().verifications, 1);
        assert_eq!(tracker.add_vote(&v), VoteOutcome::Duplicate);
        assert_eq!(
            tracker.sig_stats().verifications,
            1,
            "a byte-identical copy is not checked again"
        );
    }

    #[test]
    fn deferred_equivocation_still_detected() {
        let (_, registry, mut tracker) = setup();
        let a = data(b"A", 1);
        let b = data(b"B", 1);
        for signer in 0..3 {
            tracker.add_vote(&vote(&registry, signer, a));
        }
        assert!(tracker.is_certified(a.block_id()));
        // A certified block's voter signing another block of the round is
        // caught; its conflicting vote is checked once and not counted.
        assert_eq!(
            tracker.add_vote(&vote(&registry, 0, b)),
            VoteOutcome::Equivocation
        );
        assert_eq!(tracker.equivocators(), &[ReplicaId::new(0)]);
        assert_eq!(tracker.votes_for(a.block_id()), 3);
        assert_eq!(tracker.votes_for(b.block_id()), 0);
        assert_eq!(tracker.sig_stats().verifications, 4);
    }

    #[test]
    fn deferred_forged_conflict_does_not_frame_the_author() {
        let (_, registry, mut tracker) = setup();
        let a = data(b"A", 1);
        let b = data(b"B", 1);
        let honest_a = vote(&registry, 0, a);
        let honest_b = vote(&registry, 1, b);
        // Replica 1's signature over block B, claimed for block A: refused,
        // so replica 1's real vote for B is its first and is counted.
        let marker = EndorseInfo::Marker(Round::ZERO);
        let forged_a =
            StrongVote::from_parts(a, marker.clone(), ReplicaId::new(1), *honest_b.signature());
        assert_eq!(tracker.add_vote(&forged_a), VoteOutcome::BadSignature);
        assert_eq!(tracker.add_vote(&honest_b), VoteOutcome::Counted(1));
        // Replica 0's signature over block A, claimed for block B after its
        // real vote for A: a forged conflict is no evidence.
        assert_eq!(tracker.add_vote(&honest_a), VoteOutcome::Counted(1));
        let forged_b = StrongVote::from_parts(b, marker, ReplicaId::new(0), *honest_a.signature());
        assert_eq!(tracker.add_vote(&forged_b), VoteOutcome::BadSignature);
        assert!(tracker.equivocators().is_empty());
        assert_eq!(tracker.votes_for(a.block_id()), 1);
        assert_eq!(tracker.votes_for(b.block_id()), 1);
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

    #[test]
    fn future_round_flood_is_refused_unverified() {
        let (_, registry, mut tracker) = setup();
        let signature = *vote(&registry, 1, data(b"B", 1)).signature();
        for round in 1_000..101_000u64 {
            let block = HashValue::of(&round.to_be_bytes());
            let d = VoteData::new(block, Round::new(round), HashValue::zero(), Round::ZERO);
            let forged = StrongVote::from_parts(d, EndorseInfo::None, ReplicaId::new(1), signature);
            assert_eq!(tracker.add_vote(&forged), VoteOutcome::Stale);
        }
        assert_eq!(tracker.resident_votes(), 0);
        assert_eq!(tracker.sig_stats(), SigStats::default());
    }

    #[test]
    fn window_is_measured_from_the_current_round() {
        let (_, registry, mut tracker) = setup();
        let edge = crate::RETENTION_ROUNDS;
        assert_eq!(
            tracker.add_vote(&vote(&registry, 0, data(b"A", edge))),
            VoteOutcome::Counted(1)
        );
        assert_eq!(
            tracker.add_vote(&vote(&registry, 0, data(b"B", edge + 1))),
            VoteOutcome::Stale
        );
        // Neither the retention floor (commits may stall) nor the votes
        // seen so far move the window: only the round the replica is in.
        tracker.enter_round(Round::new(1_000));
        assert_eq!(
            tracker.add_vote(&vote(&registry, 0, data(b"C", 1_000 + edge))),
            VoteOutcome::Counted(1)
        );
        assert_eq!(
            tracker.add_vote(&vote(&registry, 0, data(b"D", 1_001 + edge))),
            VoteOutcome::Stale
        );
        assert_eq!(
            tracker.add_vote(&vote(&registry, 1, data(b"A", edge))),
            VoteOutcome::Counted(2),
            "earlier rounds stay open until the retention floor passes them"
        );
    }
}
