//! Votes and strong-votes.
//!
//! A [`VoteData`] names the block being voted for *and its parent* — the
//! parent round is what drives DiemBFT's 2-chain locking rule (Fig 2/3). A
//! [`StrongVote`] is the paper's §3.2 extension: the vote plus an
//! [`EndorseInfo`] summarizing the voter's conflicting-fork history (a
//! single `marker`, or the generalized interval set of §3.4). The signature
//! covers both, so Byzantine replicas cannot reuse an honest vote with a
//! doctored marker.

use std::fmt;

use sft_crypto::{HashValue, Hasher, KeyPair, KeyRegistry, Signature};

use crate::codec::{Decode, DecodeError, Encode};
use crate::{ReplicaId, Round, RoundIntervalSet};

/// The content a vote certifies: the proposed block and its parent link.
///
/// # Examples
///
/// ```
/// use sft_crypto::HashValue;
/// use sft_types::{Round, VoteData};
///
/// let vd = VoteData::new(HashValue::of(b"B5"), Round::new(5), HashValue::of(b"B4"), Round::new(4));
/// assert_eq!(vd.block_round(), Round::new(5));
/// assert_eq!(vd.parent_round(), Round::new(4));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VoteData {
    block_id: HashValue,
    block_round: Round,
    parent_id: HashValue,
    parent_round: Round,
}

impl VoteData {
    /// Creates vote data for a block and its parent link.
    pub fn new(
        block_id: HashValue,
        block_round: Round,
        parent_id: HashValue,
        parent_round: Round,
    ) -> Self {
        Self {
            block_id,
            block_round,
            parent_id,
            parent_round,
        }
    }

    /// Id of the voted block.
    pub fn block_id(&self) -> HashValue {
        self.block_id
    }

    /// Round of the voted block.
    pub fn block_round(&self) -> Round {
        self.block_round
    }

    /// Id of the voted block's parent.
    pub fn parent_id(&self) -> HashValue {
        self.parent_id
    }

    /// Round of the voted block's parent — the round the receiver locks on
    /// when a QC over this vote data arrives (locking rule, Fig 2).
    pub fn parent_round(&self) -> Round {
        self.parent_round
    }

    /// Digest of the vote data.
    pub fn digest(&self) -> HashValue {
        Hasher::new("vote-data")
            .field(self.block_id.as_ref())
            .field(&self.block_round.as_u64().to_be_bytes())
            .field(self.parent_id.as_ref())
            .field(&self.parent_round.as_u64().to_be_bytes())
            .finish()
    }
}

impl fmt::Debug for VoteData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VoteData({} r={} <- {} r={})",
            self.block_id.short(),
            self.block_round,
            self.parent_id.short(),
            self.parent_round
        )
    }
}

impl Encode for VoteData {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.block_id.encode(buf);
        self.block_round.encode(buf);
        self.parent_id.encode(buf);
        self.parent_round.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        32 + 8 + 32 + 8
    }
}

impl Decode for VoteData {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            block_id: HashValue::decode(buf)?,
            block_round: Round::decode(buf)?,
            parent_id: HashValue::decode(buf)?,
            parent_round: Round::decode(buf)?,
        })
    }
}

/// Which endorsement information honest voters attach to their votes.
///
/// This is a *configuration* knob (per deployment, not per vote): it decides
/// which [`EndorseInfo`] variant an honest replica computes when it votes.
/// Byzantine replicas can of course attach whatever they like — the commit
/// rules only ever credit what a vote's signature actually covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EndorseMode {
    /// Vanilla votes ([`EndorseInfo::None`]): the unmodified-baseline
    /// configuration of the paper's evaluation (§4). Votes endorse only the
    /// block they name, so ancestors are never strengthened by descendants.
    Vanilla,
    /// §3.2 strong-votes carrying the conflicting-round marker: each vote
    /// also endorses every ancestor newer than the voter's last conflicting
    /// vote. This is the paper's "one integer of overhead" configuration.
    #[default]
    Marker,
    /// §3.4 generalized strong-votes carrying the explicit interval set
    /// `I`: per conflicting fork `F`, only the window `D_F` back to the
    /// fork point is excluded, recovering endorsements the single marker
    /// over-approximates away.
    Interval,
}

/// The endorsement summary attached to a strong-vote.
///
/// Decides which *ancestors* of the voted block this vote endorses (the
/// voted block itself is always endorsed — a direct vote). Variants trade
/// wire size for strong-commit liveness (§3.4):
///
/// - [`EndorseInfo::None`] — vanilla DiemBFT vote; endorses only the voted
///   block. Used by the unmodified-baseline configuration in the throughput
///   comparison (§4).
/// - [`EndorseInfo::Marker`] — §3.2: one round number, the highest round of
///   any conflicting block the voter ever voted for. Endorses ancestors with
///   round `> marker`.
/// - [`EndorseInfo::Intervals`] — §3.4: an explicit set `I` of endorsed
///   rounds, excluding each conflicting fork's `D_F` window only.
///
/// # Examples
///
/// ```
/// use sft_types::{EndorseInfo, Round, RoundIntervalSet};
///
/// let marker = EndorseInfo::Marker(Round::new(3));
/// assert!(marker.endorses_ancestor_round(Round::new(4)));
/// assert!(!marker.endorses_ancestor_round(Round::new(3)));
///
/// let ivs = EndorseInfo::Intervals(RoundIntervalSet::from_marker(Round::new(3), Round::new(9)));
/// assert!(ivs.endorses_ancestor_round(Round::new(9)));
/// assert!(!ivs.endorses_ancestor_round(Round::new(2)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum EndorseInfo {
    /// No endorsement information (vanilla DiemBFT vote).
    None,
    /// §3.2 marker: largest conflicting voted round.
    Marker(Round),
    /// §3.4 generalized interval set `I`.
    Intervals(RoundIntervalSet),
}

impl EndorseInfo {
    /// True if a strong-vote with this info endorses an ancestor block of
    /// the voted block at `round`.
    ///
    /// Per §3.2 a strong-vote with marker `m` for a block extending `B`
    /// endorses `B` iff `B.round > m`; per §3.4 iff `B.round ∈ I`. The
    /// caller is responsible for the "extends" check — this only evaluates
    /// the round predicate.
    pub fn endorses_ancestor_round(&self, round: Round) -> bool {
        match self {
            EndorseInfo::None => false,
            EndorseInfo::Marker(marker) => round > *marker,
            EndorseInfo::Intervals(set) => set.contains(round),
        }
    }

    /// A lower bound below which no ancestor round can be endorsed — lets
    /// the endorsement tracker cut off its ancestor walk early.
    pub fn min_endorsed_round(&self) -> Option<Round> {
        match self {
            EndorseInfo::None => None,
            EndorseInfo::Marker(marker) => Some(marker.next()),
            EndorseInfo::Intervals(set) => set.min(),
        }
    }

    /// The wire overhead of this info in bytes — the quantity §3.2 calls
    /// "marginal bookkeeping overhead" (one integer for the marker case).
    pub fn overhead_bytes(&self) -> usize {
        self.encoded_len() - 1
    }
}

impl fmt::Debug for EndorseInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndorseInfo::None => write!(f, "EndorseInfo::None"),
            EndorseInfo::Marker(m) => write!(f, "EndorseInfo::Marker({m})"),
            EndorseInfo::Intervals(set) => write!(f, "EndorseInfo::Intervals({set:?})"),
        }
    }
}

impl Encode for EndorseInfo {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            EndorseInfo::None => buf.push(0),
            EndorseInfo::Marker(m) => {
                buf.push(1);
                m.encode(buf);
            }
            EndorseInfo::Intervals(set) => {
                buf.push(2);
                set.encode(buf);
            }
        }
    }
}

impl Decode for EndorseInfo {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(EndorseInfo::None),
            1 => Ok(EndorseInfo::Marker(Round::decode(buf)?)),
            2 => Ok(EndorseInfo::Intervals(RoundIntervalSet::decode(buf)?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Signing preimage for a (strong-)vote: binds the vote data and the
/// endorsement info under one signature.
pub fn vote_signing_digest(data: &VoteData, endorse: &EndorseInfo) -> HashValue {
    vote_signing_digest_with(data.digest(), endorse)
}

/// [`vote_signing_digest`] with the vote-data digest already in hand.
/// Every vote of a forming quorum certifies the *same* [`VoteData`], so
/// a batch verifier hashes the data once and reuses it across all
/// `2f + 1` preimages — the shared-precomputation half of the batched
/// verification path.
pub fn vote_signing_digest_with(data_digest: HashValue, endorse: &EndorseInfo) -> HashValue {
    Hasher::new("strong-vote")
        .field(data_digest.as_ref())
        .field(&endorse.to_bytes())
        .finish()
}

/// A signed (strong-)vote message: `⟨vote, B, r, marker⟩_i` in the paper's
/// notation (Fig 4), sent to the next round's leader.
///
/// # Examples
///
/// ```
/// use sft_crypto::{HashValue, KeyRegistry};
/// use sft_types::{EndorseInfo, ReplicaId, Round, StrongVote, VoteData};
///
/// let registry = KeyRegistry::deterministic(4);
/// let kp = registry.key_pair(2).expect("replica 2");
/// let data = VoteData::new(HashValue::of(b"B"), Round::new(3), HashValue::of(b"A"), Round::new(2));
/// let vote = StrongVote::new(data, EndorseInfo::Marker(Round::ZERO), &kp);
/// assert_eq!(vote.author(), ReplicaId::new(2));
/// assert!(vote.verify(&registry));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct StrongVote {
    data: VoteData,
    endorse: EndorseInfo,
    author: ReplicaId,
    signature: Signature,
}

impl StrongVote {
    /// Creates and signs a vote.
    pub fn new(data: VoteData, endorse: EndorseInfo, key_pair: &KeyPair) -> Self {
        let digest = vote_signing_digest(&data, &endorse);
        let signature = key_pair.sign(digest.as_ref());
        Self {
            data,
            endorse,
            author: ReplicaId::new(key_pair.signer() as u16),
            signature,
        }
    }

    /// Reassembles a vote from parts (used by the decoder and by test
    /// harnesses forging Byzantine votes).
    pub fn from_parts(
        data: VoteData,
        endorse: EndorseInfo,
        author: ReplicaId,
        signature: Signature,
    ) -> Self {
        Self {
            data,
            endorse,
            author,
            signature,
        }
    }

    /// The vote data.
    pub fn data(&self) -> &VoteData {
        &self.data
    }

    /// The endorsement info.
    pub fn endorse(&self) -> &EndorseInfo {
        &self.endorse
    }

    /// The voting replica.
    pub fn author(&self) -> ReplicaId {
        self.author
    }

    /// The signature over (vote data, endorsement info).
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Round of the voted block.
    pub fn round(&self) -> Round {
        self.data.block_round
    }

    /// Verifies the signature against the PKI.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        let digest = vote_signing_digest(&self.data, &self.endorse);
        registry.verify(self.author.as_u64(), digest.as_ref(), &self.signature)
    }

    /// This vote as a certificate member: everything but the vote data,
    /// which the certificate carries once for all its members.
    pub fn member(&self) -> QcMember {
        QcMember {
            author: self.author,
            endorse: self.endorse.clone(),
            signature: self.signature,
        }
    }
}

/// One member of a quorum certificate: a [`StrongVote`] without the
/// [`VoteData`] all members of the certificate share — the author, the
/// [`EndorseInfo`] the vote carried, and the signature over both. A
/// certificate that carries its members lets any replica check them and
/// credit their endorsements (§3.2) without having received the votes.
///
/// # Examples
///
/// ```
/// use sft_crypto::{HashValue, KeyRegistry};
/// use sft_types::{EndorseInfo, Round, StrongVote, VoteData};
///
/// let registry = KeyRegistry::deterministic(4);
/// let data = VoteData::new(HashValue::of(b"B"), Round::new(3), HashValue::of(b"A"), Round::new(2));
/// let vote = StrongVote::new(data, EndorseInfo::Marker(Round::ZERO), &registry.key_pair(2).unwrap());
/// assert_eq!(vote.member().to_vote(data), vote);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct QcMember {
    author: ReplicaId,
    endorse: EndorseInfo,
    signature: Signature,
}

impl QcMember {
    /// The shortest encoding a member can have (author, an
    /// [`EndorseInfo::None`] tag, signature): what bounds how many members
    /// a buffer can hold.
    pub const MIN_ENCODED_LEN: usize = 2 + 1 + 40;

    /// Reassembles a member from parts (the decoder, and test harnesses
    /// forging Byzantine certificates).
    pub fn from_parts(author: ReplicaId, endorse: EndorseInfo, signature: Signature) -> Self {
        Self {
            author,
            endorse,
            signature,
        }
    }

    /// The voting replica.
    pub fn author(&self) -> ReplicaId {
        self.author
    }

    /// The endorsement info the vote carried.
    pub fn endorse(&self) -> &EndorseInfo {
        &self.endorse
    }

    /// The signature over (vote data, endorsement info).
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The strong-vote this member is, for the certified `data`.
    pub fn to_vote(&self, data: VoteData) -> StrongVote {
        StrongVote::from_parts(data, self.endorse.clone(), self.author, self.signature)
    }
}

impl fmt::Debug for QcMember {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QcMember({} {:?})", self.author, self.endorse)
    }
}

impl Encode for QcMember {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.author.encode(buf);
        self.endorse.encode(buf);
        self.signature.encode(buf);
    }
}

impl Decode for QcMember {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            author: ReplicaId::decode(buf)?,
            endorse: EndorseInfo::decode(buf)?,
            signature: Signature::decode(buf)?,
        })
    }
}

impl fmt::Debug for StrongVote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StrongVote({} for {} r={} {:?})",
            self.author,
            self.data.block_id.short(),
            self.data.block_round,
            self.endorse
        )
    }
}

impl Encode for StrongVote {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.data.encode(buf);
        self.endorse.encode(buf);
        self.author.encode(buf);
        self.signature.encode(buf);
    }
}

impl Decode for StrongVote {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            data: VoteData::decode(buf)?,
            endorse: EndorseInfo::decode(buf)?,
            author: ReplicaId::decode(buf)?,
            signature: Signature::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> VoteData {
        VoteData::new(
            HashValue::of(b"B5"),
            Round::new(5),
            HashValue::of(b"B4"),
            Round::new(4),
        )
    }

    #[test]
    fn vote_data_digest_binds_fields() {
        let base = sample_data();
        let other = VoteData::new(
            HashValue::of(b"B5"),
            Round::new(6),
            HashValue::of(b"B4"),
            Round::new(4),
        );
        assert_ne!(base.digest(), other.digest());
        let other2 = VoteData::new(
            HashValue::of(b"B5"),
            Round::new(5),
            HashValue::of(b"X"),
            Round::new(4),
        );
        assert_ne!(base.digest(), other2.digest());
    }

    #[test]
    fn endorse_none_never_endorses() {
        let info = EndorseInfo::None;
        assert!(!info.endorses_ancestor_round(Round::new(1)));
        assert_eq!(info.min_endorsed_round(), None);
        assert_eq!(info.overhead_bytes(), 0);
    }

    #[test]
    fn endorse_marker_threshold() {
        let info = EndorseInfo::Marker(Round::new(5));
        assert!(!info.endorses_ancestor_round(Round::new(5)));
        assert!(info.endorses_ancestor_round(Round::new(6)));
        assert_eq!(info.min_endorsed_round(), Some(Round::new(6)));
        assert_eq!(
            info.overhead_bytes(),
            8,
            "one u64 — the paper's 'one integer' overhead"
        );
    }

    #[test]
    fn endorse_intervals_membership() {
        let mut set = RoundIntervalSet::full_range(Round::new(1), Round::new(10));
        set.subtract(Round::new(4), Round::new(6));
        let info = EndorseInfo::Intervals(set);
        assert!(info.endorses_ancestor_round(Round::new(3)));
        assert!(!info.endorses_ancestor_round(Round::new(5)));
        assert!(info.endorses_ancestor_round(Round::new(7)));
        assert_eq!(info.min_endorsed_round(), Some(Round::new(1)));
    }

    #[test]
    fn marker_and_equivalent_intervals_agree() {
        let marker = EndorseInfo::Marker(Round::new(3));
        let intervals = EndorseInfo::Intervals(RoundIntervalSet::from_marker(
            Round::new(3),
            Round::new(100),
        ));
        for round in 1..=100u64 {
            assert_eq!(
                marker.endorses_ancestor_round(Round::new(round)),
                intervals.endorses_ancestor_round(Round::new(round)),
                "round {round}"
            );
        }
    }

    #[test]
    fn sign_and_verify() {
        let registry = KeyRegistry::deterministic(4);
        let kp = registry.key_pair(1).unwrap();
        let vote = StrongVote::new(sample_data(), EndorseInfo::Marker(Round::new(2)), &kp);
        assert!(vote.verify(&registry));
        assert_eq!(vote.author(), ReplicaId::new(1));
        assert_eq!(vote.round(), Round::new(5));
    }

    #[test]
    fn tampered_marker_fails_verification() {
        // A Byzantine relay cannot lower an honest voter's marker: the
        // signature covers the endorsement info.
        let registry = KeyRegistry::deterministic(4);
        let kp = registry.key_pair(1).unwrap();
        let vote = StrongVote::new(sample_data(), EndorseInfo::Marker(Round::new(7)), &kp);
        let forged = StrongVote::from_parts(
            *vote.data(),
            EndorseInfo::Marker(Round::ZERO),
            vote.author(),
            *vote.signature(),
        );
        assert!(!forged.verify(&registry));
    }

    #[test]
    fn tampered_block_fails_verification() {
        let registry = KeyRegistry::deterministic(4);
        let kp = registry.key_pair(1).unwrap();
        let vote = StrongVote::new(sample_data(), EndorseInfo::None, &kp);
        let other = VoteData::new(
            HashValue::of(b"EVIL"),
            Round::new(5),
            HashValue::of(b"B4"),
            Round::new(4),
        );
        let forged =
            StrongVote::from_parts(other, EndorseInfo::None, vote.author(), *vote.signature());
        assert!(!forged.verify(&registry));
    }

    #[test]
    fn wrong_author_fails_verification() {
        let registry = KeyRegistry::deterministic(4);
        let kp = registry.key_pair(1).unwrap();
        let vote = StrongVote::new(sample_data(), EndorseInfo::None, &kp);
        let forged = StrongVote::from_parts(
            *vote.data(),
            EndorseInfo::None,
            ReplicaId::new(2),
            *vote.signature(),
        );
        assert!(!forged.verify(&registry));
    }

    #[test]
    fn codec_roundtrips() {
        let registry = KeyRegistry::deterministic(4);
        let kp = registry.key_pair(3).unwrap();
        for endorse in [
            EndorseInfo::None,
            EndorseInfo::Marker(Round::new(9)),
            EndorseInfo::Intervals(RoundIntervalSet::from_marker(Round::new(1), Round::new(5))),
        ] {
            let vote = StrongVote::new(sample_data(), endorse.clone(), &kp);
            let back = StrongVote::from_bytes(&vote.to_bytes()).unwrap();
            assert_eq!(back, vote);
            assert!(back.verify(&registry));
            let e = EndorseInfo::from_bytes(&endorse.to_bytes()).unwrap();
            assert_eq!(e, endorse);
        }
        let vd = sample_data();
        assert_eq!(VoteData::from_bytes(&vd.to_bytes()).unwrap(), vd);
    }

    #[test]
    fn endorse_bad_tag() {
        assert_eq!(
            EndorseInfo::from_bytes(&[9]),
            Err(DecodeError::InvalidTag(9))
        );
    }
}
