//! The SFT-DiemBFT replica as a transport-driven [`ReplicaEngine`].
//!
//! SFT-DiemBFT is self-pacing — rounds close on QCs, TCs, or pacemaker
//! timeouts — so the engine is nearly a direct restatement of
//! [`FbftReplica`]'s event API in envelope form. The one addition is the
//! bootstrap deadline: the round-1 proposal is the only event nothing
//! precedes, so the engine reports an initial deadline at `SimTime::ZERO`
//! and fires [`FbftReplica::try_propose_chained`] on its first tick
//! (exactly what the old event-loop driver did by hand). A proposal the
//! round pace held back goes out the same way, on the tick it comes due,
//! and so does the certificate of a quorum the replica completed as
//! leader: its deadline is the completion instant, so the tick runs once
//! every vote delivered in that instant is in ([`FbftReplica::on_due`]).
//!
//! Votes go point-to-point to the next round's leader, and to everyone
//! again beside a timeout for their round; proposals, bare certificates
//! and timeouts are broadcast.

use std::sync::Arc;

use sft_core::{
    ChainKernel, EngineStep, MsgKind, OutboundMsg, OwnProposal, ReplicaEngine, WalRecord,
};
use sft_crypto::SigStats;
use sft_obs::{names, PhaseTimer};
use sft_types::{Encode, ReplicaId, Round, SimTime};

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
    /// The last proposal broadcast, so its own loopback is not decoded.
    own_proposal: OwnProposal<FbftMessage>,
}

impl FbftEngine {
    /// Wraps `replica` for transport-driven operation.
    pub fn new(replica: FbftReplica) -> Self {
        Self {
            replica,
            booted: false,
            own_proposal: OwnProposal::default(),
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

    /// Converts a [`StepOutcome`] into an [`EngineStep`], in send order:
    /// the vote (to the next round's leader), then block-sync requests,
    /// then the chained next-round proposal or the bare certificate no
    /// proposal carries yet.
    fn absorb(&mut self, out: StepOutcome, now: SimTime) -> EngineStep {
        let mut outbound = Vec::new();
        if let Some(vote) = out.vote {
            self.kernel_mut().obs().voted(vote.round(), now);
            let leader = self.kernel().config().leader(vote.round().next());
            outbound.push(OutboundMsg::to(
                leader,
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
            outbound.push(self.own_proposal.broadcast(FbftMessage::Proposal(proposal)));
        }
        if let Some(qc) = out.certificate {
            outbound.push(OutboundMsg::broadcast(
                MsgKind::Certificate,
                FbftMessage::Certificate(qc).to_bytes(),
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

    fn on_envelope(&mut self, _from: ReplicaId, payload: &Arc<[u8]>, now: SimTime) -> EngineStep {
        let decoded = self
            .own_proposal
            .decode(payload, &**self.replica.kernel().recorder());
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
            FbftMessage::Timeout { msg, high_qc } => {
                let out = self.replica.on_timeout_msg(&msg, &high_qc, now);
                self.absorb(out, now)
            }
            FbftMessage::Certificate(qc) => {
                let out = self.replica.on_certificate(&qc, now);
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
        let out = if self.booted {
            self.replica.on_due(now)
        } else {
            self.booted = true;
            StepOutcome {
                next_proposal: self.replica.try_propose_chained(now),
                ..StepOutcome::default()
            }
        };
        let timeout = self.replica.on_tick(now);
        let mut step = self.absorb(out, now);
        if let Some(msg) = timeout {
            // The round's vote goes out first, so a receiver counts it
            // before the timeouts can move it past the round.
            if let Some(vote) = self.replica.timeout_vote(msg.round()) {
                step.outbound.push(OutboundMsg::broadcast(
                    MsgKind::Vote,
                    FbftMessage::Vote(vote.clone()).to_bytes(),
                ));
            }
            let high_qc = self.replica.high_qc().clone();
            step.outbound.push(OutboundMsg::broadcast(
                MsgKind::Timeout,
                FbftMessage::Timeout { msg, high_qc }.to_bytes(),
            ));
        }
        step
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sft_core::{PayloadSource, ProtocolConfig};
    use sft_crypto::KeyRegistry;
    use sft_obs::{names, Recorder, Registry};
    use sft_types::{BatchConfig, Decode, EndorseMode, Payload, SimDuration, Transaction};

    use super::*;

    /// Replica 1, the round-1 leader, recording into the returned registry,
    /// after the bootstrap tick that broadcast its proposal of four 512 B
    /// transactions. Returns the proposal's buffer too.
    fn leader_after_proposing() -> (FbftEngine, Arc<Registry>, Arc<[u8]>) {
        let mut replica = FbftReplica::new(
            1,
            ProtocolConfig::for_replicas(4),
            KeyRegistry::deterministic(4),
            EndorseMode::Marker,
            SimDuration::from_millis(400),
            SimTime::ZERO,
        );
        let kernel = replica.kernel_mut();
        kernel.set_payload_source(PayloadSource::Mempool(BatchConfig::default()));
        for seq in 0..4 {
            kernel.submit(Transaction::new(9, seq, vec![seq as u8; 512]));
        }
        let mut engine = FbftEngine::new(replica);
        let registry = Arc::new(Registry::new());
        engine.set_recorder(Arc::clone(&registry) as _);
        let step = engine.on_tick(SimTime::ZERO);
        let [proposal] = &step.outbound[..] else {
            panic!("the bootstrap tick sends exactly the proposal: {step:?}");
        };
        assert_eq!(proposal.kind, MsgKind::Proposal);
        (engine, registry, Arc::clone(&proposal.bytes))
    }

    /// The leader's own broadcast, fed back as the buffer it went out in,
    /// steps the engine exactly as a byte-identical copy does — and only
    /// the copy is decoded.
    #[test]
    fn own_proposal_loopback_is_not_decoded_and_steps_the_same() {
        let (mut echoed, echo_metrics, sent) = leader_after_proposing();
        let (mut copied, copy_metrics, twin) = leader_after_proposing();
        assert_eq!(sent, twin, "both leaders proposed the same bytes");
        let copy: Arc<[u8]> = twin.to_vec().into();
        let me = ReplicaId::new(1);

        let from_echo = echoed.on_envelope(me, &sent, SimTime::ZERO);
        let from_copy = copied.on_envelope(me, &copy, SimTime::ZERO);
        assert_eq!(from_echo, from_copy);
        assert!(
            from_echo.outbound.iter().any(|m| m.kind == MsgKind::Vote),
            "the leader votes for its own block: {from_echo:?}"
        );
        let decodes = |r: &Registry| r.snapshot().hist(names::PHASE_DECODE_NS).map(|h| h.count);
        assert_eq!(decodes(&echo_metrics), None);
        assert_eq!(decodes(&copy_metrics), Some(1));

        // Handed over once: a second delivery of the same buffer decodes.
        echoed.on_envelope(me, &sent, SimTime::ZERO);
        assert_eq!(decodes(&echo_metrics), Some(1));
    }
    /// The proposal buffer is the message's one encoding, written in
    /// place, and the leader's stored block holds it: the block's encoding
    /// and every transaction's payload are ranges of it, not of the
    /// client frames the transactions arrived in.
    #[test]
    fn the_leaders_block_holds_the_buffer_its_proposal_went_out_in() {
        let (mut leader, _, sent) = leader_after_proposing();
        let decoded = FbftMessage::from_bytes(&sent).expect("a proposal");
        assert_eq!(
            decoded.to_bytes(),
            sent.to_vec(),
            "written in place as it encodes field by field"
        );
        let FbftMessage::Proposal(proposal) = decoded else {
            panic!("a proposal: {decoded:?}");
        };
        leader.on_envelope(ReplicaId::new(1), &sent, SimTime::ZERO);
        let block = leader
            .store()
            .get(proposal.block().id())
            .expect("stored when its proposal looped back");
        let held = block.encoding().expect("the block holds its bytes");
        assert!(Arc::ptr_eq(held.buffer(), &sent));
        let Payload::Transactions(txns) = block.payload() else {
            panic!("a mempool batch");
        };
        let within = sent.as_ptr_range();
        assert_eq!(txns.len(), 4);
        assert!(txns.iter().all(|t| within.contains(&t.payload().as_ptr())));
    }
}
