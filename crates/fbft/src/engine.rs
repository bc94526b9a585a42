//! The SFT-DiemBFT replica as a transport-driven [`ReplicaEngine`].
//!
//! SFT-DiemBFT is self-pacing — rounds close on QCs, TCs, or pacemaker
//! timeouts — so the engine is nearly a direct restatement of
//! [`FbftReplica`]'s event API in envelope form. The one addition is the
//! bootstrap deadline: the round-1 proposal is the only event nothing
//! precedes, so the engine reports an initial deadline at `SimTime::ZERO`
//! and fires [`FbftReplica::try_propose_chained`] on its first tick
//! (exactly what the old event-loop driver did by hand). A proposal the
//! round pace held back goes out the same way, on the tick it comes due.

use sft_core::{ChainKernel, EngineStep, MsgKind, OutboundMsg, ReplicaEngine, WalRecord};
use sft_crypto::SigStats;
use sft_obs::{names, PhaseTimer};
use sft_types::{Decode, Encode, ReplicaId, Round, SimTime};

use crate::message::FbftMessage;
use crate::replica::{FbftReplica, StepOutcome};

/// An [`FbftReplica`] plus the bootstrap latch, implementing
/// [`ReplicaEngine`].
///
/// # Examples
///
/// ```
/// use sft_core::{ProtocolConfig, ReplicaEngine};
/// use sft_crypto::KeyRegistry;
/// use sft_fbft::{FbftEngine, FbftReplica};
/// use sft_types::{EndorseMode, SimDuration, SimTime};
///
/// let config = ProtocolConfig::for_replicas(4);
/// let registry = KeyRegistry::deterministic(4);
/// let replica = FbftReplica::new(
///     1,
///     config,
///     registry,
///     EndorseMode::Marker,
///     SimDuration::from_millis(400),
///     SimTime::ZERO,
/// );
/// let engine = FbftEngine::new(replica);
/// // The bootstrap tick is due immediately.
/// assert_eq!(engine.next_deadline(), Some(SimTime::ZERO));
/// ```
pub struct FbftEngine {
    replica: FbftReplica,
    booted: bool,
}

impl FbftEngine {
    /// Wraps `replica` for transport-driven operation.
    pub fn new(replica: FbftReplica) -> Self {
        Self {
            replica,
            booted: false,
        }
    }

    /// The wrapped replica.
    pub fn replica(&self) -> &FbftReplica {
        &self.replica
    }

    /// Mutable access to the wrapped replica (tests and harness setup).
    pub fn replica_mut(&mut self) -> &mut FbftReplica {
        &mut self.replica
    }

    /// Converts a [`StepOutcome`] into an [`EngineStep`], preserving the
    /// old driver's send order: the vote first, then block-sync requests,
    /// then the chained next-round proposal.
    fn absorb(&mut self, out: StepOutcome, now: SimTime) -> EngineStep {
        let mut outbound = Vec::new();
        if let Some(vote) = out.vote {
            self.kernel_mut().obs().voted(vote.round(), now);
            outbound.push(OutboundMsg::broadcast(
                MsgKind::Vote,
                FbftMessage::Vote(vote).to_bytes(),
            ));
        }
        for (peer, request) in out.sync_requests {
            outbound.push(OutboundMsg::to(
                peer,
                MsgKind::SyncRequest,
                FbftMessage::SyncRequest(request).to_bytes(),
            ));
        }
        if let Some(proposal) = out.next_proposal {
            outbound.push(OutboundMsg::broadcast(
                MsgKind::Proposal,
                FbftMessage::Proposal(proposal).to_bytes(),
            ));
        }
        self.kernel_mut().finish_step(outbound, out.updates, now)
    }
}

impl ReplicaEngine for FbftEngine {
    fn kernel(&self) -> &ChainKernel {
        self.replica.kernel()
    }

    fn kernel_mut(&mut self) -> &mut ChainKernel {
        self.replica.kernel_mut()
    }

    fn into_kernel(self) -> ChainKernel {
        self.replica.into_kernel()
    }

    fn on_envelope(&mut self, _from: ReplicaId, payload: &[u8], now: SimTime) -> EngineStep {
        let decode = PhaseTimer::start(&**self.kernel().recorder());
        let decoded = FbftMessage::from_bytes(payload);
        decode.finish(&**self.kernel().recorder(), names::PHASE_DECODE_NS);
        let Ok(msg) = decoded else {
            return EngineStep::empty(); // transports can carry garbage
        };
        match msg {
            FbftMessage::Proposal(proposal) => {
                self.kernel_mut()
                    .obs()
                    .proposal_seen(proposal.block().round(), now);
                let out = self.replica.on_proposal(&proposal, now);
                self.absorb(out, now)
            }
            FbftMessage::Vote(vote) => {
                // Time vote-ingest steps that ran a deferred batch check:
                // the batch dominates such a step, so its duration is the
                // batch-verify phase.
                let batches = self.kernel().sig_stats().batch_calls;
                let verify = PhaseTimer::start(&**self.kernel().recorder());
                let out = self.replica.on_vote(&vote, now);
                if self.kernel().sig_stats().batch_calls > batches {
                    verify.finish(&**self.kernel().recorder(), names::PHASE_BATCH_VERIFY_NS);
                }
                self.absorb(out, now)
            }
            FbftMessage::Timeout(timeout) => {
                let out = self.replica.on_timeout_msg(&timeout, now);
                self.absorb(out, now)
            }
            FbftMessage::SyncRequest(request) => {
                // Serving is read-only; the requester verifies everything
                // against the certificate chain.
                let mut step = EngineStep::empty();
                if let Some(response) = self.kernel_mut().serve_sync(&request) {
                    step.outbound.push(OutboundMsg::to(
                        request.requester(),
                        MsgKind::SyncResponse,
                        FbftMessage::SyncResponse(response).to_bytes(),
                    ));
                }
                step
            }
            FbftMessage::SyncResponse(response) => {
                let out = self.replica.on_sync_response(&response, now);
                self.absorb(out, now)
            }
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        if !self.booted {
            Some(SimTime::ZERO)
        } else {
            Some(self.replica.next_deadline())
        }
    }

    fn on_tick(&mut self, now: SimTime) -> EngineStep {
        let mut outbound = Vec::new();
        if !self.booted || self.replica.proposal_held() {
            self.booted = true;
            if let Some(proposal) = self.replica.try_propose_chained(now) {
                outbound.push(OutboundMsg::broadcast(
                    MsgKind::Proposal,
                    FbftMessage::Proposal(proposal).to_bytes(),
                ));
            }
        }
        if let Some(timeout) = self.replica.on_tick(now) {
            outbound.push(OutboundMsg::broadcast(
                MsgKind::Timeout,
                FbftMessage::Timeout(timeout).to_bytes(),
            ));
        }
        self.kernel_mut().finish_step(outbound, Vec::new(), now)
    }

    fn restore(&mut self, record: &WalRecord, now: SimTime) {
        self.replica.replay(record, now);
    }

    fn sig_stats(&self) -> SigStats {
        self.replica.sig_stats()
    }

    fn round(&self) -> Round {
        self.replica.current_round()
    }
}
