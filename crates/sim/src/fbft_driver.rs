//! The SFT-DiemBFT simulation driver: builds [`FbftEngine`]s for the
//! generic [`EngineRunner`](crate::EngineRunner).
//!
//! SFT-DiemBFT rounds are paced by the replicas themselves — a round ends
//! when its QC forms or its timeout certificate closes it — so the run
//! plan is [`RunPlan::PastRound`](crate::RunPlan::PastRound): events flow
//! until every honest replica has moved past the target round and
//! finished block-syncing (or the horizon guard trips). Proposals stay *pipelined*: the replica that
//! forms a certificate chains the next-round proposal in the same step,
//! and the runner only dispatches what the engines chain. This driver
//! holds only construction and the DiemBFT-specific Byzantine payloads
//! ([`FbftMischief`]).

use sft_core::{Block, MsgKind, OutboundMsg, ProtocolConfig, ReplicaEngine};
use sft_crypto::{IdSet, KeyRegistry};
use sft_fbft::{FbftEngine, FbftMessage, FbftProposal, FbftReplica};
use sft_types::{Decode, Encode, EndorseInfo, Payload, Round, SimTime, StrongVote};

use crate::runner::Mischief;
use crate::SimConfig;

/// SFT-DiemBFT's protocol-specific Byzantine payloads: conflicting twin
/// proposals (sharing the honest proposal's QC/TC justification) and
/// forged zero-marker votes.
pub struct FbftMischief {
    /// Blocks each (Byzantine) node already forged a vote for.
    forged: Vec<IdSet>,
}

impl FbftMischief {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            forged: vec![Default::default(); n],
        }
    }
}

impl Mischief<FbftEngine> for FbftMischief {
    fn twin(&mut self, engine: &FbftEngine, proposal_bytes: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
        let Ok(FbftMessage::Proposal(honest)) = FbftMessage::from_bytes(proposal_bytes) else {
            return None;
        };
        let parent = engine
            .kernel()
            .store()
            .get(honest.block().parent_id())?
            .clone();
        let round = honest.block().round();
        let conflicting_payload = Payload::synthetic(1, 1, u64::MAX - round.as_u64());
        let twin_block = Block::new(&parent, round, engine.id(), conflicting_payload);
        let twin = FbftProposal::new(
            twin_block,
            honest.qc().clone(),
            honest.tc().cloned(),
            engine.kernel().key_pair(),
        );
        Some((
            proposal_bytes.to_vec(),
            FbftMessage::Proposal(twin).to_bytes(),
        ))
    }

    fn forge_vote(&mut self, engine: &FbftEngine, incoming: &[u8]) -> Option<OutboundMsg> {
        let Ok(FbftMessage::Proposal(proposal)) = FbftMessage::from_bytes(incoming) else {
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
        // Routed like an honest vote: to the next round's leader.
        let leader = engine.kernel().config().leader(vote.round().next());
        Some(OutboundMsg::to(
            leader,
            MsgKind::Vote,
            FbftMessage::Vote(vote).to_bytes(),
        ))
    }
}

/// Builds the SFT-DiemBFT engine set for `config`: one [`FbftEngine`] per
/// replica, its kernel seeded with the configured payload source and the
/// deterministic client workload (the paper's "sufficiently many
/// transactions" assumption, §4 — `SimConfig::seed_kernel`). A source-less
/// (stalling) leader's chaining path is disabled while every other part of
/// the protocol runs normally.
///
/// Public so non-sim transports (`run_over_tcp`, `sft-node`) can run the exact
/// same replica set over real sockets; they pass their own `base_timeout`
/// (wall-clock there, virtual here).
pub fn build_fbft_engines(
    config: &SimConfig,
    base_timeout: sft_types::SimDuration,
) -> Vec<FbftEngine> {
    let protocol = ProtocolConfig::for_replicas(config.n);
    let registry = KeyRegistry::deterministic(config.n);
    let workload = config.client_workload();
    (0..config.n as u16)
        .map(|id| {
            let mut replica = FbftReplica::new(
                id,
                protocol,
                registry.clone(),
                config.endorse_mode,
                base_timeout,
                SimTime::ZERO,
            );
            config.seed_kernel(replica.kernel_mut(), id, &workload);
            FbftEngine::new(replica)
        })
        .collect()
}

/// [`build_fbft_engines`] for a wall clock: every replica paces its
/// rounds on the [`sft_fbft::ROUND_INTERVAL`] grid after a
/// [`sft_fbft::ROUND_BURST`]-round burst, so the round rate of a real
/// cluster (`run_over_tcp*`, `sft-node`) is the grid's, not the
/// scheduler's. Virtual-time runs are never paced.
pub fn build_paced_fbft_engines(
    config: &SimConfig,
    base_timeout: sft_types::SimDuration,
) -> Vec<FbftEngine> {
    let mut engines = build_fbft_engines(config, base_timeout);
    for engine in &mut engines {
        engine
            .replica_mut()
            .set_round_pace(sft_fbft::ROUND_INTERVAL, sft_fbft::ROUND_BURST);
    }
    engines
}
