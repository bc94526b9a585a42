//! The SFT-Streamlet simulation driver: builds [`StreamletEngine`]s over a
//! [`SimTransport`] and hands them to the generic
//! [`EngineRunner`].
//!
//! Epochs of two message delays (propose at `T`, deliver + vote at
//! `T + δ`, count at `T + 2δ`) come out of the engine's own epoch clock —
//! matching the synchrony assumption of Appendix D, where epochs are
//! externally clocked. What used to be this driver's hand-rolled dispatch,
//! sync drain, and report plumbing now lives in the shared runner; only
//! construction and the Streamlet-specific Byzantine payloads
//! ([`StreamletMischief`]) remain.

use sft_core::{Block, ProtocolConfig, ReplicaEngine};
use sft_crypto::{HashValue, KeyRegistry};
use sft_network::SimTransport;
use sft_streamlet::{Message, Proposal, Replica, StreamletEngine};
use sft_types::{Decode, Encode, EndorseInfo, Payload, Round, SimTime, StrongVote};

use crate::runner::{EngineRunner, Mischief, RunPlan};
use crate::{SimConfig, SimReport};

/// Streamlet's protocol-specific Byzantine payloads: conflicting twin
/// proposals and forged zero-marker votes.
pub struct StreamletMischief {
    /// Blocks each (Byzantine) node already cast a forged vote for, to
    /// avoid unbounded duplicates.
    forged: Vec<std::collections::HashSet<HashValue>>,
}

impl StreamletMischief {
    fn new(n: usize) -> Self {
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
        let parent = engine.store().get(honest.block().parent_id())?.clone();
        let epoch = honest.block().round();
        let conflicting_payload = Payload::synthetic(1, 1, u64::MAX - epoch.as_u64());
        let twin_block = Block::new(&parent, epoch, engine.id(), conflicting_payload);
        let twin = Proposal::new(twin_block, engine.kernel().key_pair());
        Some((proposal_bytes.to_vec(), Message::Proposal(twin).to_bytes()))
    }

    fn forge_vote(&mut self, engine: &StreamletEngine, incoming: &[u8]) -> Option<Vec<u8>> {
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
        Some(Message::Vote(vote).to_bytes())
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

type Runner = EngineRunner<StreamletEngine, SimTransport, StreamletMischief>;

/// The Streamlet simulator: engines plus the generic runner. Most callers
/// use [`SimConfig::run`]; the struct is public so benchmarks can drive
/// epochs one at a time.
pub struct Simulation {
    runner: Runner,
    protocol: ProtocolConfig,
    period: sft_types::SimDuration,
}

impl Simulation {
    /// Builds replicas, keys, and the network for `config`. In batched mode
    /// every replica's mempool is pre-fed the same deterministic client
    /// transaction stream.
    ///
    /// # Panics
    ///
    /// Panics if `config.behaviors` is not exactly `n` entries.
    pub fn new(config: SimConfig) -> Self {
        assert_eq!(config.behaviors.len(), config.n, "one behavior per replica");
        let period = config.delay * 2;
        let runner = crate::build_runner(
            &config,
            build_streamlet_engines(&config, period),
            config.sim_transport(),
            StreamletMischief::new(config.n),
            RunPlan::UntilQuiescent,
            config.delay,
            crate::sim_instruments(&config),
        );
        Self {
            runner,
            protocol: ProtocolConfig::for_replicas(config.n),
            period,
        }
    }

    /// The protocol configuration derived from `n`.
    pub fn protocol(&self) -> ProtocolConfig {
        self.protocol
    }

    /// Runs all configured epochs, lets catch-up traffic settle, and
    /// reports.
    pub fn run(self) -> SimReport {
        self.runner.run().expect(crate::IN_MEMORY_SINKS)
    }

    /// Advances the run through the end of `epoch` (an epoch spans two
    /// message delays). Benchmarks drive the simulation one epoch at a
    /// time with this.
    pub fn run_epoch(&mut self, epoch: Round) {
        self.runner
            .run_until(SimTime::ZERO + self.period * epoch.as_u64())
            .expect(crate::IN_MEMORY_SINKS);
    }

    /// Snapshot of the current run state as a report.
    pub fn report(&self) -> SimReport {
        self.runner.report()
    }

    /// Immutable access to replica `id`, for tests and benches.
    pub fn replica(&self, id: u16) -> &Replica {
        self.runner.engine(id as usize).replica()
    }
}
