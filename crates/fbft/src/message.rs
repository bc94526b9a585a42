//! Wire messages exchanged by SFT-DiemBFT replicas.
//!
//! Unlike the Streamlet proposal (a bare block), the round-based proposal
//! is *self-justifying*: it carries the quorum certificate it extends and,
//! when the previous round closed without one, the timeout certificate
//! that permits skipping it. A receiver can therefore validate a proposal
//! with no protocol state beyond the PKI and the quorum size.

use std::fmt;

use sft_core::{Block, BlockResponse, ProtocolConfig, ProtocolMessage, QuorumCertificate};
use sft_crypto::{HashValue, Hasher, KeyPair, KeyRegistry, Signature};
use sft_types::codec::{Decode, DecodeError, Encode, Reader};
use sft_types::{BlockRequest, StrongVote, TimeoutCertificate, TimeoutMsg};

/// A leader's signed proposal for a round: the new block, the QC for its
/// parent, and — on the timeout path — the TC justifying the round skip.
///
/// # Examples
///
/// ```
/// use sft_core::{Block, ProtocolConfig, QuorumCertificate};
/// use sft_crypto::KeyRegistry;
/// use sft_fbft::FbftProposal;
/// use sft_types::{Payload, ReplicaId, Round};
///
/// let registry = KeyRegistry::deterministic(4);
/// let block = Block::new(&Block::genesis(), Round::new(1), ReplicaId::new(1), Payload::empty());
/// let proposal = FbftProposal::new(block, QuorumCertificate::genesis(4), None, &registry.key_pair(1).unwrap());
/// assert!(proposal.verify(&registry));
/// assert!(proposal.is_justified(&ProtocolConfig::for_replicas(4)));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct FbftProposal {
    block: Block,
    qc: QuorumCertificate,
    tc: Option<TimeoutCertificate>,
    signature: Signature,
}

fn proposal_digest(
    block: &Block,
    qc: &QuorumCertificate,
    tc: Option<&TimeoutCertificate>,
) -> HashValue {
    let tc_digest = tc.map_or(HashValue::zero(), TimeoutCertificate::digest);
    Hasher::new("fbft-proposal")
        .field(block.id().as_ref())
        .field(&block.round().as_u64().to_be_bytes())
        .field(qc.digest().as_ref())
        .field(tc_digest.as_ref())
        .finish()
}

impl FbftProposal {
    /// Creates and signs a proposal. The key pair must belong to the
    /// block's proposer for the proposal to verify.
    pub fn new(
        block: Block,
        qc: QuorumCertificate,
        tc: Option<TimeoutCertificate>,
        key_pair: &KeyPair,
    ) -> Self {
        let signature = key_pair.sign(proposal_digest(&block, &qc, tc.as_ref()).as_ref());
        Self {
            block,
            qc,
            tc,
            signature,
        }
    }

    /// The proposed block.
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// The quorum certificate for the block's parent.
    pub fn qc(&self) -> &QuorumCertificate {
        &self.qc
    }

    /// The timeout certificate justifying a round skip, if any.
    pub fn tc(&self) -> Option<&TimeoutCertificate> {
        self.tc.as_ref()
    }

    /// The proposer's signature over (block, QC, TC).
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Verifies that the block's claimed proposer signed this proposal
    /// (covering the certificates, so they cannot be swapped in transit).
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(
            self.block.proposer().as_u64(),
            proposal_digest(&self.block, &self.qc, self.tc.as_ref()).as_ref(),
            &self.signature,
        )
    }

    /// Structural justification of the proposal (DiemBFT's proposal rule):
    ///
    /// - the QC is well-formed and certifies exactly the block's parent;
    /// - the block either directly follows its parent's round (happy path)
    ///   or ships a well-formed TC for the immediately preceding round
    ///   (timeout path) whose `max_high_qc_round` the QC matches — the
    ///   freshness bar that stops a leader from proposing on a stale QC
    ///   and forgetting a certified block the TC's signers vouched for.
    pub fn is_justified(&self, config: &ProtocolConfig) -> bool {
        if !self.qc.is_well_formed(config)
            || self.qc.block_id() != self.block.parent_id()
            || self.qc.round() != self.block.parent_round()
        {
            return false;
        }
        if self.block.parent_round().precedes(self.block.round()) {
            return true;
        }
        self.tc.as_ref().is_some_and(|tc| {
            tc.round().precedes(self.block.round())
                && tc.signers().len() >= config.quorum()
                && self.qc.round() >= tc.max_high_qc_round()
        })
    }
}

impl fmt::Debug for FbftProposal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FbftProposal({:?} on {:?}{})",
            self.block,
            self.qc,
            if self.tc.is_some() { " +TC" } else { "" }
        )
    }
}

impl FbftProposal {
    /// Encodes everything after the block: the certificates and the
    /// signature.
    fn encode_after_block(&self, buf: &mut Vec<u8>) {
        self.qc.encode(buf);
        match &self.tc {
            None => buf.push(0),
            Some(tc) => {
                buf.push(1);
                tc.encode(buf);
            }
        }
        self.signature.encode(buf);
    }
}

impl Encode for FbftProposal {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.block.encode(buf);
        self.encode_after_block(buf);
    }
}

impl Decode for FbftProposal {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Reader::copying(buf, Self::decode_from)
    }

    /// Decodes a proposal whose block holds ranges of the reader's shared
    /// buffer.
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let block = reader.read()?;
        let qc = reader.read()?;
        let tc = match reader.read::<u8>()? {
            0 => None,
            1 => Some(reader.read()?),
            t => return Err(DecodeError::InvalidTag(t)),
        };
        Ok(Self {
            block,
            qc,
            tc,
            signature: reader.read()?,
        })
    }
}

/// Everything an SFT-DiemBFT replica sends: proposals from round leaders,
/// strong-votes sent to the next round's leader, that leader's bare
/// certificate while its proposal waits for the round pace, timeout
/// messages on the recovery path, and the point-to-point block-sync
/// exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FbftMessage {
    /// A leader's round proposal.
    Proposal(FbftProposal),
    /// A replica's strong-vote, addressed to the next round's leader.
    Vote(StrongVote),
    /// A replica's round-timeout declaration, with the sender's high QC
    /// beside it (DiemBFT's shape): a replica that missed that certificate
    /// catches up from it.
    Timeout {
        /// The signed timeout.
        msg: TimeoutMsg,
        /// The sender's highest quorum certificate.
        high_qc: QuorumCertificate,
    },
    /// A catch-up fetch for a certified-but-unknown block.
    SyncRequest(BlockRequest),
    /// The certified chain segment answering a [`FbftMessage::SyncRequest`].
    SyncResponse(BlockResponse),
    /// A leader's freshly formed quorum certificate, broadcast on its own
    /// when no proposal carries it out in the same instant.
    Certificate(QuorumCertificate),
}

impl Encode for FbftMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            FbftMessage::Proposal(p) => {
                buf.push(0); // the tag `encode_around_block` writes too
                p.encode(buf);
            }
            FbftMessage::Vote(v) => {
                buf.push(1);
                v.encode(buf);
            }
            FbftMessage::Timeout { msg, high_qc } => {
                buf.push(2);
                msg.encode(buf);
                high_qc.encode(buf);
            }
            FbftMessage::SyncRequest(r) => {
                buf.push(3);
                r.encode(buf);
            }
            FbftMessage::SyncResponse(r) => {
                buf.push(4);
                r.encode(buf);
            }
            FbftMessage::Certificate(qc) => {
                buf.push(5);
                qc.encode(buf);
            }
        }
    }
}

impl Decode for FbftMessage {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Reader::copying(buf, Self::decode_from)
    }

    /// Decodes a message whose blocks — a proposal's, a sync response's —
    /// hold ranges of the reader's shared buffer.
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read::<u8>()? {
            0 => Ok(FbftMessage::Proposal(reader.read()?)),
            1 => Ok(FbftMessage::Vote(reader.read()?)),
            2 => Ok(FbftMessage::Timeout {
                msg: reader.read()?,
                high_qc: reader.read()?,
            }),
            3 => Ok(FbftMessage::SyncRequest(reader.read()?)),
            4 => Ok(FbftMessage::SyncResponse(reader.read()?)),
            5 => Ok(FbftMessage::Certificate(reader.read()?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl ProtocolMessage for FbftMessage {
    fn encode_around_block(
        &mut self,
        before: &mut Vec<u8>,
        after: &mut Vec<u8>,
    ) -> Option<&mut Block> {
        let FbftMessage::Proposal(p) = self else {
            return None;
        };
        before.push(0);
        p.encode_after_block(after);
        Some(&mut p.block)
    }

    fn proposed(&self) -> Option<&Block> {
        match self {
            FbftMessage::Proposal(p) => Some(p.block()),
            _ => None,
        }
    }

    /// The twin shares the honest proposal's QC/TC justification.
    fn rewrapped(&self, block: Block, key_pair: &KeyPair) -> Option<Self> {
        let FbftMessage::Proposal(p) = self else {
            return None;
        };
        let twin = FbftProposal::new(block, p.qc.clone(), p.tc.clone(), key_pair);
        Some(FbftMessage::Proposal(twin))
    }

    fn sync_request(&self) -> Option<&BlockRequest> {
        match self {
            FbftMessage::SyncRequest(request) => Some(request),
            _ => None,
        }
    }

    fn vote(vote: StrongVote) -> Self {
        FbftMessage::Vote(vote)
    }

    fn request(request: BlockRequest) -> Self {
        FbftMessage::SyncRequest(request)
    }

    fn response(response: BlockResponse) -> Self {
        FbftMessage::SyncResponse(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_types::{EndorseInfo, Payload, ReplicaId, Round, SignerSet};

    fn registry() -> KeyRegistry {
        KeyRegistry::deterministic(4)
    }

    fn round_one_block() -> Block {
        Block::new(
            &Block::genesis(),
            Round::new(1),
            ReplicaId::new(1),
            Payload::empty(),
        )
    }

    fn quorum_qc(block: &Block) -> QuorumCertificate {
        QuorumCertificate::new(
            block.vote_data(),
            SignerSet::from_iter_with_capacity(4, (0..3).map(ReplicaId::new)),
        )
    }

    #[test]
    fn sign_verify_and_justify_happy_path() {
        let registry = registry();
        let p = FbftProposal::new(
            round_one_block(),
            QuorumCertificate::genesis(4),
            None,
            &registry.key_pair(1).unwrap(),
        );
        assert!(p.verify(&registry));
        assert!(p.is_justified(&ProtocolConfig::for_replicas(4)));
    }

    #[test]
    fn wrong_signer_fails_verification() {
        let registry = registry();
        let p = FbftProposal::new(
            round_one_block(),
            QuorumCertificate::genesis(4),
            None,
            &registry.key_pair(2).unwrap(), // not the proposer
        );
        assert!(!p.verify(&registry));
    }

    #[test]
    fn swapped_certificate_fails_verification() {
        let registry = registry();
        let kp = registry.key_pair(1).unwrap();
        let b1 = round_one_block();
        let p = FbftProposal::new(b1.clone(), QuorumCertificate::genesis(4), None, &kp);
        // Replace the QC the signature covered.
        let forged = FbftProposal {
            qc: quorum_qc(&b1),
            ..p
        };
        assert!(!forged.verify(&registry));
    }

    #[test]
    fn round_skip_requires_a_tc() {
        let registry = registry();
        let cfg = ProtocolConfig::for_replicas(4);
        let kp = registry.key_pair(3).unwrap();
        let b1 = round_one_block();
        // Round 3 extending the round-1 parent: rounds 2 was skipped.
        let b3 = Block::new(&b1, Round::new(3), ReplicaId::new(3), Payload::empty());
        let no_tc = FbftProposal::new(b3.clone(), quorum_qc(&b1), None, &kp);
        assert!(!no_tc.is_justified(&cfg), "gap without TC is unjustified");

        let tc = TimeoutCertificate::new(
            Round::new(2),
            Round::new(1),
            SignerSet::from_iter_with_capacity(4, (0..3).map(ReplicaId::new)),
        );
        let with_tc = FbftProposal::new(b3.clone(), quorum_qc(&b1), Some(tc), &kp);
        assert!(with_tc.is_justified(&cfg));

        // A TC for the wrong round does not justify the skip.
        let stale_tc = TimeoutCertificate::new(
            Round::new(1),
            Round::new(1),
            SignerSet::from_iter_with_capacity(4, (0..3).map(ReplicaId::new)),
        );
        let wrong = FbftProposal::new(b3.clone(), quorum_qc(&b1), Some(stale_tc), &kp);
        assert!(!wrong.is_justified(&cfg));

        // A QC staler than what the TC's signers vouched for is rejected:
        // the TC promises a round-2 QC exists, but the leader proposes on
        // the round-1 QC.
        let fresher_tc = TimeoutCertificate::new(
            Round::new(2),
            Round::new(2),
            SignerSet::from_iter_with_capacity(4, (0..3).map(ReplicaId::new)),
        );
        let forgetful = FbftProposal::new(b3, quorum_qc(&b1), Some(fresher_tc), &kp);
        assert!(!forgetful.is_justified(&cfg), "stale QC forgets a cert");
    }

    #[test]
    fn qc_must_name_the_parent() {
        let registry = registry();
        let cfg = ProtocolConfig::for_replicas(4);
        let kp = registry.key_pair(2).unwrap();
        let b1 = round_one_block();
        let b2 = Block::new(&b1, Round::new(2), ReplicaId::new(2), Payload::empty());
        // QC certifies genesis, not b2's parent b1.
        let p = FbftProposal::new(b2, QuorumCertificate::genesis(4), None, &kp);
        assert!(!p.is_justified(&cfg));
    }

    #[test]
    fn sub_quorum_qc_is_rejected() {
        let registry = registry();
        let cfg = ProtocolConfig::for_replicas(4);
        let kp = registry.key_pair(2).unwrap();
        let b1 = round_one_block();
        let weak = QuorumCertificate::new(
            b1.vote_data(),
            SignerSet::from_iter_with_capacity(4, [ReplicaId::new(0)]),
        );
        let b2 = Block::new(&b1, Round::new(2), ReplicaId::new(2), Payload::empty());
        let p = FbftProposal::new(b2, weak, None, &kp);
        assert!(!p.is_justified(&cfg));
    }

    #[test]
    fn message_codec_roundtrips() {
        let registry = registry();
        let b1 = round_one_block();
        let proposal = FbftProposal::new(
            b1.clone(),
            QuorumCertificate::genesis(4),
            Some(TimeoutCertificate::new(
                Round::new(7),
                Round::new(5),
                SignerSet::from_iter_with_capacity(4, (0..3).map(ReplicaId::new)),
            )),
            &registry.key_pair(1).unwrap(),
        );
        let vote = StrongVote::new(
            b1.vote_data(),
            EndorseInfo::Marker(Round::ZERO),
            &registry.key_pair(0).unwrap(),
        );
        let timeout = TimeoutMsg::new(Round::new(2), Round::new(1), &registry.key_pair(3).unwrap());
        let request = BlockRequest::new(ReplicaId::new(2), b1.id(), 16);
        let response = BlockResponse::new(quorum_qc(&b1), vec![b1.clone()]);
        let with_members = QuorumCertificate::with_members(
            4,
            b1.vote_data(),
            (0..3)
                .map(|i| {
                    let key = registry.key_pair(i).unwrap();
                    StrongVote::new(b1.vote_data(), EndorseInfo::Marker(Round::ZERO), &key).member()
                })
                .collect(),
        )
        .unwrap();
        for msg in [
            FbftMessage::Proposal(proposal),
            FbftMessage::Vote(vote),
            FbftMessage::Timeout {
                msg: timeout,
                high_qc: with_members.clone(),
            },
            FbftMessage::SyncRequest(request),
            FbftMessage::SyncResponse(response),
            FbftMessage::Certificate(with_members),
        ] {
            let back = FbftMessage::from_bytes(&msg.to_bytes()).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn message_bad_tag_rejected() {
        assert_eq!(
            FbftMessage::from_bytes(&[6]),
            Err(DecodeError::InvalidTag(6))
        );
    }
}
