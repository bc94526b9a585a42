//! Wire messages exchanged by SFT-Streamlet replicas.

use std::fmt;

use sft_core::{Block, BlockResponse, ProposalMessage};
use sft_crypto::{Hasher, KeyPair, KeyRegistry, Signature};
use sft_types::codec::{Decode, DecodeError, Encode, Reader};
use sft_types::{BlockRequest, StrongVote};

/// A leader's signed block proposal for an epoch.
///
/// # Examples
///
/// ```
/// use sft_core::Block;
/// use sft_crypto::KeyRegistry;
/// use sft_streamlet::Proposal;
/// use sft_types::{Payload, ReplicaId, Round};
///
/// let registry = KeyRegistry::deterministic(4);
/// let block = Block::new(&Block::genesis(), Round::new(1), ReplicaId::new(1), Payload::empty());
/// let proposal = Proposal::new(block, &registry.key_pair(1).unwrap());
/// assert!(proposal.verify(&registry));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Proposal {
    block: Block,
    signature: Signature,
}

fn proposal_digest(block: &Block) -> sft_crypto::HashValue {
    Hasher::new("proposal")
        .field(block.id().as_ref())
        .field(&block.round().as_u64().to_be_bytes())
        .finish()
}

impl Proposal {
    /// Creates and signs a proposal. The key pair must belong to the
    /// block's proposer for the proposal to verify.
    pub fn new(block: Block, key_pair: &KeyPair) -> Self {
        let signature = key_pair.sign(proposal_digest(&block).as_ref());
        Self { block, signature }
    }

    /// The proposed block.
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// The proposer's signature over the block id and round.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Verifies that the block's claimed proposer signed this proposal.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(
            self.block.proposer().as_u64(),
            proposal_digest(&self.block).as_ref(),
            &self.signature,
        )
    }
}

impl fmt::Debug for Proposal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Proposal({:?})", self.block)
    }
}

impl Encode for Proposal {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.block.encode(buf);
        self.signature.encode(buf);
    }
}

impl Decode for Proposal {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Reader::copying(buf, Self::decode_from)
    }

    /// Decodes a proposal whose block holds ranges of the reader's shared
    /// buffer.
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            block: reader.read()?,
            signature: reader.read()?,
        })
    }
}

/// Everything an SFT-Streamlet replica sends: proposals from epoch
/// leaders, strong-votes broadcast by every voter, and the point-to-point
/// block-sync exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// A leader's block proposal.
    Proposal(Proposal),
    /// A replica's strong-vote.
    Vote(StrongVote),
    /// A catch-up fetch for a certified-but-unknown block.
    SyncRequest(BlockRequest),
    /// The certified chain segment answering a [`Message::SyncRequest`].
    SyncResponse(BlockResponse),
}

impl Encode for Message {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Proposal(p) => {
                buf.push(0); // the tag `encode_around_block` writes too
                p.encode(buf);
            }
            Message::Vote(v) => {
                buf.push(1);
                v.encode(buf);
            }
            Message::SyncRequest(r) => {
                buf.push(2);
                r.encode(buf);
            }
            Message::SyncResponse(r) => {
                buf.push(3);
                r.encode(buf);
            }
        }
    }
}

impl Decode for Message {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Reader::copying(buf, Self::decode_from)
    }

    /// Decodes a message whose blocks — a proposal's, a sync response's —
    /// hold ranges of the reader's shared buffer.
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read::<u8>()? {
            0 => Ok(Message::Proposal(reader.read()?)),
            1 => Ok(Message::Vote(reader.read()?)),
            2 => Ok(Message::SyncRequest(reader.read()?)),
            3 => Ok(Message::SyncResponse(reader.read()?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl ProposalMessage for Message {
    fn encode_around_block(
        &mut self,
        before: &mut Vec<u8>,
        after: &mut Vec<u8>,
    ) -> Option<&mut Block> {
        let Message::Proposal(p) = self else {
            return None;
        };
        before.push(0);
        p.signature.encode(after);
        Some(&mut p.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_types::{EndorseInfo, Payload, ReplicaId, Round};

    fn block() -> Block {
        Block::new(
            &Block::genesis(),
            Round::new(1),
            ReplicaId::new(1),
            Payload::empty(),
        )
    }

    #[test]
    fn proposal_sign_verify() {
        let registry = KeyRegistry::deterministic(4);
        let proposal = Proposal::new(block(), &registry.key_pair(1).unwrap());
        assert!(proposal.verify(&registry));
    }

    #[test]
    fn proposal_signed_by_wrong_replica_fails() {
        let registry = KeyRegistry::deterministic(4);
        // Replica 2 signs a block claiming replica 1 proposed it.
        let proposal = Proposal::new(block(), &registry.key_pair(2).unwrap());
        assert!(!proposal.verify(&registry));
    }

    #[test]
    fn message_codec_roundtrips() {
        let registry = KeyRegistry::deterministic(4);
        let proposal = Proposal::new(block(), &registry.key_pair(1).unwrap());
        let vote = StrongVote::new(
            block().vote_data(),
            EndorseInfo::Marker(Round::ZERO),
            &registry.key_pair(0).unwrap(),
        );
        for msg in [Message::Proposal(proposal), Message::Vote(vote)] {
            let back = Message::from_bytes(&msg.to_bytes()).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn message_bad_tag_rejected() {
        assert_eq!(Message::from_bytes(&[7]), Err(DecodeError::InvalidTag(7)));
    }

    #[test]
    fn tampered_proposal_fails_verification() {
        let registry = KeyRegistry::deterministic(4);
        let proposal = Proposal::new(block(), &registry.key_pair(1).unwrap());
        let other = Block::new(
            &Block::genesis(),
            Round::new(1),
            ReplicaId::new(1),
            Payload::synthetic(1, 1, 7),
        );
        let forged = Proposal {
            block: other,
            signature: *proposal.signature(),
        };
        assert!(!forged.verify(&registry));
    }
}
