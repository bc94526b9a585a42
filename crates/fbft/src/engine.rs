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

use sft_core::{
    AckTracker, Admission, BlockStore, EngineObs, EngineStep, MsgKind, OutboundMsg, ReplicaEngine,
    ResidentState, SyncStats, WalRecord,
};
use sft_crypto::{HashValue, SigStats};
use sft_obs::{names, PhaseTimer, SharedRecorder};
use sft_types::{
    ClientAck, ClientRequest, Decode, Encode, ReplicaId, Round, SimTime, StrongCommitUpdate,
};

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
    obs: EngineObs,
    /// Client submissions awaiting their strength-graded commit acks.
    acks: AckTracker,
}

impl FbftEngine {
    /// Wraps `replica` for transport-driven operation.
    pub fn new(replica: FbftReplica) -> Self {
        Self {
            replica,
            booted: false,
            obs: EngineObs::new(),
            acks: AckTracker::new(),
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
        let mut step = EngineStep::empty();
        if let Some(vote) = out.vote {
            self.obs.voted(vote.round(), now);
            step.outbound.push(OutboundMsg::broadcast(
                MsgKind::Vote,
                FbftMessage::Vote(vote).to_bytes(),
            ));
        }
        for (peer, request) in out.sync_requests {
            step.outbound.push(OutboundMsg::to(
                peer,
                MsgKind::SyncRequest,
                FbftMessage::SyncRequest(request).to_bytes(),
            ));
        }
        if let Some(proposal) = out.next_proposal {
            step.outbound.push(OutboundMsg::broadcast(
                MsgKind::Proposal,
                FbftMessage::Proposal(proposal).to_bytes(),
            ));
        }
        step.updates = out.updates;
        step.persist = self.replica.drain_wal();
        self.obs.wal_records(&step.persist, now);
        self.obs.updates(&step.updates, now);
        for update in &step.updates {
            self.acks.observe(update, self.replica.store(), now);
        }
        step
    }
}

impl ReplicaEngine for FbftEngine {
    fn id(&self) -> ReplicaId {
        self.replica.id()
    }

    fn on_envelope(&mut self, _from: ReplicaId, payload: &[u8], now: SimTime) -> EngineStep {
        let decode = PhaseTimer::start(&**self.obs.recorder());
        let decoded = FbftMessage::from_bytes(payload);
        decode.finish(&**self.obs.recorder(), names::PHASE_DECODE_NS);
        let Ok(msg) = decoded else {
            return EngineStep::empty(); // transports can carry garbage
        };
        match msg {
            FbftMessage::Proposal(proposal) => {
                self.obs.proposal_seen(proposal.block().round(), now);
                let out = self.replica.on_proposal(&proposal, now);
                self.absorb(out, now)
            }
            FbftMessage::Vote(vote) => {
                // Time vote-ingest steps that ran a deferred batch check:
                // the batch dominates such a step, so its duration is the
                // batch-verify phase.
                let batches = self.replica.sig_stats().batch_calls;
                let verify = PhaseTimer::start(&**self.obs.recorder());
                let out = self.replica.on_vote(&vote, now);
                if self.replica.sig_stats().batch_calls > batches {
                    verify.finish(&**self.obs.recorder(), names::PHASE_BATCH_VERIFY_NS);
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
                if let Some(response) = self.replica.on_sync_request(&request) {
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
        let mut step = EngineStep::empty();
        if !self.booted || self.replica.proposal_held() {
            self.booted = true;
            if let Some(proposal) = self.replica.try_propose_chained(now) {
                step.outbound.push(OutboundMsg::broadcast(
                    MsgKind::Proposal,
                    FbftMessage::Proposal(proposal).to_bytes(),
                ));
            }
        }
        if let Some(timeout) = self.replica.on_tick(now) {
            step.outbound.push(OutboundMsg::broadcast(
                MsgKind::Timeout,
                FbftMessage::Timeout(timeout).to_bytes(),
            ));
        }
        step.persist = self.replica.drain_wal();
        self.obs.wal_records(&step.persist, now);
        step
    }

    fn restore(&mut self, record: &WalRecord, now: SimTime) {
        self.replica.replay(record, now);
    }

    fn submit(&mut self, req: &ClientRequest, now: SimTime) -> Option<ClientAck> {
        let txn_id = req.txn_id();
        let verdict = self.replica.submit(req.txn.clone());
        self.acks.record_admission(verdict == Admission::Admitted);
        match verdict {
            Admission::Admitted => {
                self.acks.register(txn_id, req.ack_at, now);
                None
            }
            Admission::Duplicate => Some(ClientAck::Duplicate { txn_id }),
            Admission::Busy => Some(ClientAck::Busy { txn_id }),
        }
    }

    fn drain_acks(&mut self) -> Vec<ClientAck> {
        self.acks.drain()
    }

    fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.replica.set_recorder(recorder.clone());
        self.acks.set_recorder(recorder.clone());
        self.obs.set_recorder(recorder);
    }

    fn endorsement_walk_steps(&self) -> u64 {
        self.replica.walk_steps()
    }

    fn sig_stats(&self) -> SigStats {
        self.replica.sig_stats()
    }

    fn round(&self) -> Round {
        self.replica.current_round()
    }

    fn is_syncing(&self) -> bool {
        self.replica.is_syncing()
    }

    fn committed_chain(&self) -> &[HashValue] {
        self.replica.committed_chain()
    }

    fn commit_log(&self) -> &[StrongCommitUpdate] {
        self.replica.commit_log()
    }

    fn safety_violated(&self) -> bool {
        self.replica.safety_violated()
    }

    fn equivocators_observed(&self) -> usize {
        self.replica.observed_equivocators().len()
    }

    fn sync_stats(&self) -> SyncStats {
        self.replica.sync_stats()
    }

    fn store(&self) -> &BlockStore {
        self.replica.store()
    }

    fn txns_committed(&self) -> u64 {
        self.replica.txns_committed()
    }

    fn resident(&self) -> ResidentState {
        self.replica.resident()
    }

    fn into_commit_record(self) -> (Vec<HashValue>, Vec<StrongCommitUpdate>) {
        self.replica.into_commit_record()
    }
}
