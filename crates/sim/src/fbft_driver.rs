//! The SFT-DiemBFT simulation driver: builds [`FbftEngine`]s over a
//! [`SimTransport`] and hands them to the generic
//! [`EngineRunner`].
//!
//! SFT-DiemBFT rounds are paced by the replicas themselves — a round ends
//! when its QC forms or its timeout certificate closes it — so the run
//! plan is [`RunPlan::PastRound`]: events flow until every honest replica
//! has moved past the target round and finished block-syncing (or the
//! horizon guard trips). Proposals stay *pipelined*: the replica that
//! forms a certificate chains the next-round proposal in the same step,
//! and the runner only dispatches what the engines chain. What used to be
//! this driver's hand-rolled event loop, dispatch, and report plumbing now
//! lives in the shared runner; only construction and the DiemBFT-specific
//! Byzantine payloads ([`FbftMischief`]) remain.

use sft_core::{Block, ProtocolConfig, ReplicaEngine};
use sft_crypto::{HashValue, KeyRegistry};
use sft_fbft::{FbftEngine, FbftMessage, FbftProposal, FbftReplica};
use sft_network::{SimNetwork, SimTransport};
use sft_types::{Decode, Encode, EndorseInfo, Payload, Round, SimTime, StrongVote};

use crate::runner::{EngineRunner, Mischief, RunPlan, RunnerConfig};
use crate::{SimConfig, SimReport};

/// SFT-DiemBFT's protocol-specific Byzantine payloads: conflicting twin
/// proposals (sharing the honest proposal's QC/TC justification) and
/// forged zero-marker votes.
pub struct FbftMischief {
    registry: KeyRegistry,
    /// Blocks each (Byzantine) node already forged a vote for.
    forged: Vec<std::collections::HashSet<HashValue>>,
}

impl FbftMischief {
    fn new(n: usize) -> Self {
        Self {
            registry: KeyRegistry::deterministic(n),
            forged: vec![Default::default(); n],
        }
    }
}

impl Mischief<FbftEngine> for FbftMischief {
    fn twin(
        &mut self,
        node: usize,
        engine: &FbftEngine,
        proposal_bytes: &[u8],
    ) -> Option<(Vec<u8>, Vec<u8>)> {
        let Ok(FbftMessage::Proposal(honest)) = FbftMessage::from_bytes(proposal_bytes) else {
            return None;
        };
        let parent = engine.store().get(honest.block().parent_id())?.clone();
        let round = honest.block().round();
        let conflicting_payload = Payload::synthetic(1, 1, u64::MAX - round.as_u64());
        let twin_block = Block::new(&parent, round, engine.id(), conflicting_payload);
        let key_pair = self.registry.key_pair(node as u64).expect("key for node");
        let twin = FbftProposal::new(
            twin_block,
            honest.qc().clone(),
            honest.tc().cloned(),
            &key_pair,
        );
        Some((
            proposal_bytes.to_vec(),
            FbftMessage::Proposal(twin).to_bytes(),
        ))
    }

    fn forge_vote(
        &mut self,
        node: usize,
        _engine: &FbftEngine,
        incoming: &[u8],
    ) -> Option<Vec<u8>> {
        let Ok(FbftMessage::Proposal(proposal)) = FbftMessage::from_bytes(incoming) else {
            return None;
        };
        if !self.forged[node].insert(proposal.block().id()) {
            return None;
        }
        let key_pair = self.registry.key_pair(node as u64).expect("key for node");
        let vote = StrongVote::new(
            proposal.block().vote_data(),
            EndorseInfo::Marker(Round::ZERO),
            &key_pair,
        );
        Some(FbftMessage::Vote(vote).to_bytes())
    }
}

/// Builds the SFT-DiemBFT engine set for `config`: one [`FbftEngine`] per
/// replica, its kernel seeded with the configured payload source and the
/// deterministic client workload (the paper's "sufficiently many
/// transactions" assumption, §4 — `SimConfig::seed_kernel`). A source-less
/// (stalling) leader's chaining path is disabled while every other part of
/// the protocol runs normally.
///
/// Public so non-sim transports (the TCP repro path) can run the exact
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
            )
            .with_verify_policy(config.verify_policy);
            config.seed_kernel(replica.kernel_mut(), id, &workload);
            FbftEngine::new(replica)
        })
        .collect()
}

type Runner = EngineRunner<FbftEngine, SimTransport, FbftMischief>;

/// The SFT-DiemBFT simulator. Most callers use
/// [`SimConfig::run`](crate::SimConfig::run) with
/// [`Protocol::Fbft`](crate::Protocol::Fbft); the struct is public so
/// benchmarks can construct and run it directly.
pub struct FbftSimulation {
    runner: Runner,
    protocol: ProtocolConfig,
}

impl FbftSimulation {
    /// Builds replicas, keys, and the network for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.behaviors` is not exactly `n` entries.
    pub fn new(config: SimConfig) -> Self {
        assert_eq!(config.behaviors.len(), config.n, "one behavior per replica");
        let protocol = ProtocolConfig::for_replicas(config.n);
        let engines = build_fbft_engines(&config, config.base_timeout);
        let mischief = FbftMischief::new(config.n);
        let mut net = SimNetwork::new(config.delay);
        if let Some(faults) = &config.faults {
            net = net.with_faults(faults.clone());
        }
        let transport = SimTransport::new(net, config.n);
        let mut runner = EngineRunner::new(
            engines,
            config.behaviors.clone(),
            transport,
            mischief,
            RunnerConfig {
                plan: RunPlan::PastRound(Round::new(config.epochs)),
                horizon: SimTime::ZERO + config.run_horizon,
                drain_bound: config.drain_sync_bound,
                drain_step: config.delay,
            },
        );
        let recorder: sft_obs::SharedRecorder = if config.recording {
            std::sync::Arc::new(sft_obs::Registry::new())
        } else {
            sft_obs::noop()
        };
        if config.recording {
            runner.set_recorder(std::sync::Arc::clone(&recorder));
        }
        if let Some(wals) = crate::sim_wals(&config, &recorder) {
            runner.set_wals(wals);
        }
        Self { runner, protocol }
    }

    /// The protocol configuration derived from `n`.
    pub fn protocol(&self) -> ProtocolConfig {
        self.protocol
    }

    /// Immutable access to replica `id`, for tests and benches.
    pub fn replica(&self, id: u16) -> &FbftReplica {
        self.runner.engine(id as usize).replica()
    }

    /// Runs until every honest replica passes the target round *and* no
    /// honest replica is still block-syncing (or no event can ever fire
    /// again, or the time horizon trips) and reports.
    pub fn run(self) -> SimReport {
        self.runner.run()
    }

    /// Snapshot of the current run state as a report.
    pub fn report(&self) -> SimReport {
        self.runner.report()
    }
}
