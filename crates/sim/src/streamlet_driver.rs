//! The SFT-Streamlet simulation driver: builds [`StreamletEngine`]s for the
//! generic [`EngineRunner`](crate::EngineRunner).
//!
//! Epochs of two message delays (propose at `T`, deliver + vote at
//! `T + δ`, count at `T + 2δ`) come out of the engine's own epoch clock —
//! matching the synchrony assumption of Appendix D, where epochs are
//! externally clocked. This driver holds only construction and the
//! Streamlet-specific Byzantine payloads ([`StreamletMischief`]).

use sft_core::{Block, MsgKind, OutboundMsg, ProtocolConfig, ReplicaEngine};
use sft_crypto::{HashValue, KeyRegistry};
use sft_streamlet::{Message, Proposal, Replica, StreamletEngine};
use sft_types::{Decode, Encode, EndorseInfo, Payload, Round, StrongVote};

use crate::runner::Mischief;
use crate::SimConfig;

/// Streamlet's protocol-specific Byzantine payloads: conflicting twin
/// proposals and forged zero-marker votes.
pub struct StreamletMischief {
    /// Blocks each (Byzantine) node already cast a forged vote for, to
    /// avoid unbounded duplicates.
    forged: Vec<std::collections::HashSet<HashValue>>,
}

impl StreamletMischief {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            forged: vec![Default::default(); n],
        }
    }
}

impl Mischief<StreamletEngine> for StreamletMischief {
    fn twin(
        &mut self,
        engine: &StreamletEngine,
        proposal_bytes: &[u8],
    ) -> Option<(Vec<u8>, Vec<u8>)> {
        let Ok(Message::Proposal(honest)) = Message::from_bytes(proposal_bytes) else {
            return None;
        };
        let parent = engine
            .kernel()
            .store()
            .get(honest.block().parent_id())?
            .clone();
        let epoch = honest.block().round();
        let conflicting_payload = Payload::synthetic(1, 1, u64::MAX - epoch.as_u64());
        let twin_block = Block::new(&parent, epoch, engine.id(), conflicting_payload);
        let twin = Proposal::new(twin_block, engine.kernel().key_pair());
        Some((proposal_bytes.to_vec(), Message::Proposal(twin).to_bytes()))
    }

    fn forge_vote(&mut self, engine: &StreamletEngine, incoming: &[u8]) -> Option<OutboundMsg> {
        let Ok(Message::Proposal(proposal)) = Message::from_bytes(incoming) else {
            return None;
        };
        if !self.forged[engine.id().as_usize()].insert(proposal.block().id()) {
            return None;
        }
        let vote = StrongVote::new(
            proposal.block().vote_data(),
            EndorseInfo::Marker(Round::ZERO),
            engine.kernel().key_pair(),
        );
        // Streamlet broadcasts every vote.
        Some(OutboundMsg::broadcast(
            MsgKind::Vote,
            Message::Vote(vote).to_bytes(),
        ))
    }
}

/// Builds the Streamlet engine set for `config`: one [`StreamletEngine`]
/// per replica, its kernel seeded with the configured payload source and
/// the deterministic client workload (`SimConfig::seed_kernel`). A
/// source-less (stalling) engine still follows the epoch clock (and votes)
/// like everyone else.
///
/// Public so non-sim transports (the TCP repro path) can run the exact
/// same replica set over real sockets; they pass their own `period`
/// (wall-clock there, `2δ` virtual here).
pub fn build_streamlet_engines(
    config: &SimConfig,
    period: sft_types::SimDuration,
) -> Vec<StreamletEngine> {
    let protocol = ProtocolConfig::for_replicas(config.n);
    let registry = KeyRegistry::deterministic(config.n);
    let workload = config.client_workload();
    (0..config.n as u16)
        .map(|id| {
            let mut replica = Replica::new(id, protocol, registry.clone(), config.endorse_mode);
            let kernel = replica.kernel_mut();
            kernel.set_verify_policy(config.verify_policy);
            // Two epochs of silence before re-asking another peer.
            kernel.set_sync_retry(config.delay * 4);
            config.seed_kernel(kernel, id, &workload);
            StreamletEngine::new(replica, period, config.epochs)
        })
        .collect()
}
