//! Timeout messages and timeout certificates — the liveness machinery of
//! the round-based main protocol (SFT-DiemBFT).
//!
//! When a replica's round timer expires before it sees a quorum certificate
//! for the round, it broadcasts a signed [`TimeoutMsg`] naming the round and
//! the highest QC round it knows. `2f + 1` distinct timeout messages for the
//! same round aggregate into a [`TimeoutCertificate`] (TC), which justifies
//! every replica advancing to the next round even though nothing was
//! certified — the synchronizer pattern of the DiemBFT / Jolteon lineage.
//!
//! These are the wire types. `sft-core`'s `TimeoutAggregator` collects
//! the messages into certificates, checking their signatures in one batch
//! when a round's quorum forms.

use std::fmt;

use sft_crypto::{HashValue, Hasher, KeyPair, KeyRegistry, Signature};

use crate::codec::{Decode, DecodeError, Encode};
use crate::{ReplicaId, Round, SignerSet};

// Kept only so the frozen benchmark probe `core.vote_to_qc_*` compiles;
// ROADMAP item 8(a) deletes it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyPolicy {
    OnQuorum,
}

/// Signing preimage for a timeout message: binds the timed-out round and
/// the sender's highest QC round under one signature.
pub fn timeout_signing_digest(round: Round, high_qc_round: Round) -> HashValue {
    Hasher::new("timeout")
        .field(&round.as_u64().to_be_bytes())
        .field(&high_qc_round.as_u64().to_be_bytes())
        .finish()
}

/// A replica's signed declaration that `round` expired without a QC:
/// `⟨timeout, r, qc_high⟩_i`.
///
/// # Examples
///
/// ```
/// use sft_crypto::KeyRegistry;
/// use sft_types::{ReplicaId, Round, TimeoutMsg};
///
/// let registry = KeyRegistry::deterministic(4);
/// let msg = TimeoutMsg::new(Round::new(5), Round::new(3), &registry.key_pair(2).unwrap());
/// assert_eq!(msg.author(), ReplicaId::new(2));
/// assert!(msg.verify(&registry));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct TimeoutMsg {
    round: Round,
    high_qc_round: Round,
    author: ReplicaId,
    signature: Signature,
    /// The TC that justified the sender's current round, if it was entered
    /// on the timeout path — DiemBFT's `SyncInfo` piggyback in minimal
    /// form. Self-certifying (a TC carries its own signer quorum), so it is
    /// deliberately *outside* the signing preimage: receivers validate it
    /// structurally, and a replica stranded in an earlier round because the
    /// certificate that closed it was lost jumps forward on it.
    justification: Option<TimeoutCertificate>,
}

impl TimeoutMsg {
    /// Creates and signs a timeout message.
    pub fn new(round: Round, high_qc_round: Round, key_pair: &KeyPair) -> Self {
        let digest = timeout_signing_digest(round, high_qc_round);
        Self {
            round,
            high_qc_round,
            author: ReplicaId::new(key_pair.signer() as u16),
            signature: key_pair.sign(digest.as_ref()),
            justification: None,
        }
    }

    /// Attaches the TC that justified the sender's current round (the
    /// catch-up piggyback for replicas that missed it).
    pub fn with_justification(mut self, tc: Option<TimeoutCertificate>) -> Self {
        self.justification = tc;
        self
    }

    /// Reassembles a message from parts (decoder and Byzantine harnesses).
    pub fn from_parts(
        round: Round,
        high_qc_round: Round,
        author: ReplicaId,
        signature: Signature,
    ) -> Self {
        Self {
            round,
            high_qc_round,
            author,
            signature,
            justification: None,
        }
    }

    /// The round that timed out.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The highest QC round the sender had seen when it timed out.
    pub fn high_qc_round(&self) -> Round {
        self.high_qc_round
    }

    /// The sending replica.
    pub fn author(&self) -> ReplicaId {
        self.author
    }

    /// The signature over `(round, high_qc_round)`.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The piggybacked TC justifying the sender's round, if any.
    pub fn justification(&self) -> Option<&TimeoutCertificate> {
        self.justification.as_ref()
    }

    /// Verifies the signature against the PKI.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        let digest = timeout_signing_digest(self.round, self.high_qc_round);
        registry.verify(self.author.as_u64(), digest.as_ref(), &self.signature)
    }
}

impl fmt::Debug for TimeoutMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TimeoutMsg({} r={} qc_high={})",
            self.author, self.round, self.high_qc_round
        )
    }
}

impl Encode for TimeoutMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.round.encode(buf);
        self.high_qc_round.encode(buf);
        self.author.encode(buf);
        self.signature.encode(buf);
        self.justification.encode(buf);
    }
}

impl Decode for TimeoutMsg {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            round: Round::decode(buf)?,
            high_qc_round: Round::decode(buf)?,
            author: ReplicaId::decode(buf)?,
            signature: Signature::decode(buf)?,
            justification: Option::<TimeoutCertificate>::decode(buf)?,
        })
    }
}

/// Proof that `2f + 1` distinct replicas timed out in the same round.
///
/// Carries the maximum `high_qc_round` among the aggregated messages — the
/// next leader must propose on a QC at least that fresh, which is what
/// makes the timeout path safe (no certified block can be forgotten).
///
/// The per-message signatures stay with the aggregator that checked them;
/// the certificate carries the signer set, which is all downstream logic
/// consumes.
#[derive(Clone, PartialEq, Eq)]
pub struct TimeoutCertificate {
    round: Round,
    max_high_qc_round: Round,
    signers: SignerSet,
}

impl TimeoutCertificate {
    /// Assembles a certificate from parts. Callers are expected to have
    /// verified the underlying timeout messages (the aggregator has).
    pub fn new(round: Round, max_high_qc_round: Round, signers: SignerSet) -> Self {
        Self {
            round,
            max_high_qc_round,
            signers,
        }
    }

    /// The round the certificate closes.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The freshest QC round any aggregated replica had seen.
    pub fn max_high_qc_round(&self) -> Round {
        self.max_high_qc_round
    }

    /// The replicas whose timeout messages formed the certificate.
    pub fn signers(&self) -> &SignerSet {
        &self.signers
    }

    /// Digest of the certificate (mixed into proposal signing preimages).
    pub fn digest(&self) -> HashValue {
        Hasher::new("timeout-certificate")
            .field(&self.to_bytes())
            .finish()
    }
}

impl fmt::Debug for TimeoutCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TC(r={} qc_high={} by {:?})",
            self.round, self.max_high_qc_round, self.signers
        )
    }
}

impl Encode for TimeoutCertificate {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.round.encode(buf);
        self.max_high_qc_round.encode(buf);
        self.signers.encode(buf);
    }
}

impl Decode for TimeoutCertificate {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            round: Round::decode(buf)?,
            max_high_qc_round: Round::decode(buf)?,
            signers: SignerSet::decode(buf)?,
        })
    }
}
