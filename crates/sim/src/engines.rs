//! Both protocols' engine sets for the generic
//! [`EngineRunner`](crate::EngineRunner): construction is all that differs
//! between them here.
//!
//! SFT-DiemBFT rounds are paced by the replicas themselves — a round ends
//! when its QC forms or its timeout certificate closes it — so its run
//! plan is [`RunPlan::PastRound`](crate::RunPlan::PastRound): events flow
//! until every honest replica has moved past the target round and
//! finished block-syncing (or the horizon guard trips). Proposals stay
//! *pipelined*: the replica that forms a certificate chains the next-round
//! proposal in the same step. Streamlet's epochs of two message delays
//! (propose at `T`, deliver + vote at `T + δ`, count at `T + 2δ`) come out
//! of each replica's own epoch clock — the synchrony assumption of
//! Appendix D, where epochs are externally clocked — so its plan is
//! [`RunPlan::UntilQuiescent`](crate::RunPlan::UntilQuiescent).
//!
//! The builders are public so non-sim transports (`run_over_tcp`,
//! `sft-node`) run the exact same replica set over real sockets; they pass
//! their own timeout or epoch period (wall-clock there, virtual here).

use sft_core::{Engine, ProtocolConfig, ReplicaRules};
use sft_crypto::KeyRegistry;
use sft_fbft::{FbftEngine, FbftReplica};
use sft_streamlet::{Replica, StreamletEngine};
use sft_types::{SimDuration, SimTime};

use crate::SimConfig;

/// One engine per replica of `config`, each over `replica(id, …)` with its
/// kernel seeded with the configured payload source and the deterministic
/// client workload (the paper's "sufficiently many transactions"
/// assumption, §4 — `SimConfig::seed_kernel`). A source-less (stalling)
/// leader never proposes, while every other part of the protocol runs
/// normally.
fn build_engines<R: ReplicaRules>(
    config: &SimConfig,
    replica: impl Fn(u16, ProtocolConfig, KeyRegistry) -> R,
) -> Vec<Engine<R>> {
    let protocol = ProtocolConfig::for_replicas(config.n);
    let registry = KeyRegistry::deterministic(config.n);
    let workload = config.client_workload();
    (0..config.n as u16)
        .map(|id| {
            let mut replica = replica(id, protocol, registry.clone());
            config.seed_kernel(replica.kernel_mut(), id, &workload);
            Engine::new(replica)
        })
        .collect()
}

/// The SFT-DiemBFT engine set for `config`, on round timeouts of
/// `base_timeout`.
pub fn build_fbft_engines(config: &SimConfig, base_timeout: SimDuration) -> Vec<FbftEngine> {
    build_engines(config, |id, protocol, registry| {
        let mode = config.endorse_mode;
        FbftReplica::new(id, protocol, registry, mode, base_timeout, SimTime::ZERO)
    })
}

/// [`build_fbft_engines`] for a wall clock: every replica paces its
/// rounds on the [`sft_fbft::ROUND_INTERVAL`] grid after a
/// [`sft_fbft::ROUND_BURST`]-round burst, so the round rate of a real
/// cluster (`run_over_tcp*`, `sft-node`) is the grid's, not the
/// scheduler's. Virtual-time runs are never paced.
pub fn build_paced_fbft_engines(config: &SimConfig, base_timeout: SimDuration) -> Vec<FbftEngine> {
    let mut engines = build_fbft_engines(config, base_timeout);
    for engine in &mut engines {
        engine
            .replica_mut()
            .set_round_pace(sft_fbft::ROUND_INTERVAL, sft_fbft::ROUND_BURST);
    }
    engines
}

/// The Streamlet engine set for `config`, on epochs of `period`.
pub fn build_streamlet_engines(config: &SimConfig, period: SimDuration) -> Vec<StreamletEngine> {
    build_engines(config, |id, protocol, registry| {
        let mut replica = Replica::new(id, protocol, registry, config.endorse_mode)
            .with_epoch_clock(period, config.epochs);
        // Two epochs of silence before re-asking another peer.
        replica.kernel_mut().set_sync_retry(config.delay * 4);
        replica
    })
}
