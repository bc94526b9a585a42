//! The SFT-Streamlet replica as a transport-driven [`ReplicaEngine`].
//!
//! Streamlet epochs are externally clocked (Appendix D assumes synchrony),
//! so the engine owns the epoch clock the lock-step driver used to hold:
//! epoch `e` opens at `(e − 1) × period` where `period = 2δ` (propose,
//! then one delay for the proposal and one for the votes). Expressing the
//! clock as [`ReplicaEngine::next_deadline`] ticks is what lets the same
//! event-driven run loop pace both the externally clocked Streamlet and
//! the self-pacing SFT-DiemBFT — and lets the clock be wall time when the
//! engine runs over sockets.

use sft_core::{
    AckTracker, Admission, BlockStore, EngineObs, EngineStep, MsgKind, OutboundMsg, ReplicaEngine,
    ResidentState, SyncStats, WalRecord,
};
use sft_crypto::{HashValue, SigStats};
use sft_obs::{names, PhaseTimer, SharedRecorder};
use sft_types::{
    ClientAck, ClientRequest, Decode, Encode, ReplicaId, Round, SimDuration, SimTime,
    StrongCommitUpdate,
};

use crate::message::Message;
use crate::replica::Replica;

/// A [`Replica`] plus the epoch clock, implementing [`ReplicaEngine`].
///
/// # Examples
///
/// ```
/// use sft_core::{ProtocolConfig, ReplicaEngine};
/// use sft_crypto::KeyRegistry;
/// use sft_streamlet::{EndorseMode, Replica, StreamletEngine};
/// use sft_types::{SimDuration, SimTime};
///
/// let config = ProtocolConfig::for_replicas(4);
/// let registry = KeyRegistry::deterministic(4);
/// let replica = Replica::new(0, config, registry, EndorseMode::Marker);
/// let engine = StreamletEngine::new(replica, SimDuration::from_millis(200), 10);
/// // Epoch 1 opens at the very first instant.
/// assert_eq!(engine.next_deadline(), Some(SimTime::ZERO));
/// ```
pub struct StreamletEngine {
    replica: Replica,
    /// One full epoch: two message delays (propose + vote).
    period: SimDuration,
    /// Last epoch the clock will open.
    max_epochs: u64,
    /// Next epoch to open (1-based).
    next_epoch: u64,
    obs: EngineObs,
    /// Client submissions awaiting their strength-graded commit acks.
    acks: AckTracker,
}

impl StreamletEngine {
    /// Wraps `replica` with an epoch clock of `period` (use `2δ`) running
    /// through `max_epochs` epochs.
    pub fn new(replica: Replica, period: SimDuration, max_epochs: u64) -> Self {
        Self {
            replica,
            period,
            max_epochs,
            next_epoch: 1,
            obs: EngineObs::new(),
            acks: AckTracker::new(),
        }
    }

    /// The wrapped replica.
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// Mutable access to the wrapped replica (tests and harness setup).
    pub fn replica_mut(&mut self) -> &mut Replica {
        &mut self.replica
    }

    fn epoch_open_at(&self, epoch: u64) -> SimTime {
        SimTime::ZERO + self.period * (epoch - 1)
    }
}

impl ReplicaEngine for StreamletEngine {
    fn id(&self) -> ReplicaId {
        self.replica.id()
    }

    fn on_envelope(&mut self, _from: ReplicaId, payload: &[u8], now: SimTime) -> EngineStep {
        let decode = PhaseTimer::start(&**self.obs.recorder());
        let decoded = Message::from_bytes(payload);
        decode.finish(&**self.obs.recorder(), names::PHASE_DECODE_NS);
        let Ok(msg) = decoded else {
            return EngineStep::empty(); // transports can carry garbage
        };
        let mut step = EngineStep::empty();
        match msg {
            Message::Proposal(proposal) => {
                self.obs.proposal_seen(proposal.block().round(), now);
                if let Some(vote) = self.replica.on_proposal(&proposal) {
                    self.obs.voted(vote.round(), now);
                    step.outbound.push(OutboundMsg::broadcast(
                        MsgKind::Vote,
                        Message::Vote(vote).to_bytes(),
                    ));
                }
            }
            Message::Vote(vote) => {
                // Time vote-ingest steps that ran a deferred batch check:
                // the batch dominates such a step, so its duration is the
                // batch-verify phase.
                let batches = self.replica.sig_stats().batch_calls;
                let verify = PhaseTimer::start(&**self.obs.recorder());
                step.updates = self.replica.on_vote(&vote);
                if self.replica.sig_stats().batch_calls > batches {
                    verify.finish(&**self.obs.recorder(), names::PHASE_BATCH_VERIFY_NS);
                }
            }
            Message::SyncRequest(request) => {
                if let Some(response) = self.replica.on_sync_request(&request) {
                    step.outbound.push(OutboundMsg::to(
                        request.requester(),
                        MsgKind::SyncResponse,
                        Message::SyncResponse(response).to_bytes(),
                    ));
                }
            }
            Message::SyncResponse(response) => {
                step.updates = self.replica.on_sync_response(&response, now);
            }
        }
        step.persist = self.replica.drain_wal();
        self.obs.wal_records(&step.persist, now);
        self.obs.updates(&step.updates, now);
        for update in &step.updates {
            self.acks.observe(update, self.replica.store(), now);
        }
        step
    }

    fn next_deadline(&self) -> Option<SimTime> {
        (self.next_epoch <= self.max_epochs).then(|| self.epoch_open_at(self.next_epoch))
    }

    fn on_tick(&mut self, now: SimTime) -> EngineStep {
        let mut step = EngineStep::empty();
        // Open every epoch whose start has passed (a wall-clock run can
        // overshoot a deadline; catch up in order).
        while self.next_epoch <= self.max_epochs && self.epoch_open_at(self.next_epoch) <= now {
            let epoch = Round::new(self.next_epoch);
            self.next_epoch += 1;
            if let Some(proposal) = self.replica.begin_epoch_sourced(epoch) {
                step.outbound.push(OutboundMsg::broadcast(
                    MsgKind::Proposal,
                    Message::Proposal(proposal).to_bytes(),
                ));
            }
        }
        step.persist = self.replica.drain_wal();
        self.obs.wal_records(&step.persist, now);
        step
    }

    fn restore(&mut self, record: &WalRecord, _now: SimTime) {
        self.replica.replay(record);
        // Never re-open (and re-propose in) an epoch the pre-crash self
        // already reached — the clock resumes strictly after it.
        self.next_epoch = self.next_epoch.max(self.replica.epoch().as_u64() + 1);
    }

    fn poll_sync(&mut self, now: SimTime) -> EngineStep {
        let mut step = EngineStep::empty();
        for (peer, request) in self.replica.take_sync_requests(now) {
            step.outbound.push(OutboundMsg::to(
                peer,
                MsgKind::SyncRequest,
                Message::SyncRequest(request).to_bytes(),
            ));
        }
        step
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
        self.replica.epoch()
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
