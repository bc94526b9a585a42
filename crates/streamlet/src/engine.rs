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

use std::sync::Arc;

use sft_core::{
    ChainKernel, EngineStep, MsgKind, OutboundMsg, OwnProposal, ReplicaEngine, WalRecord,
};
use sft_obs::{names, PhaseTimer};
use sft_types::{Encode, ReplicaId, Round, SimDuration, SimTime};

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
    /// The last proposal broadcast, so its own loopback is not decoded.
    own_proposal: OwnProposal<Message>,
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
            own_proposal: OwnProposal::default(),
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

    /// Opens every epoch whose start has passed (a wall-clock run can
    /// overshoot a deadline; catch up in order) and returns the proposals
    /// this replica leads them with.
    fn open_due_epochs(&mut self, now: SimTime) -> Vec<OutboundMsg> {
        let mut outbound = Vec::new();
        while self.next_epoch <= self.max_epochs && self.epoch_open_at(self.next_epoch) <= now {
            let epoch = Round::new(self.next_epoch);
            self.next_epoch += 1;
            if let Some(proposal) = self.replica.begin_epoch_sourced(epoch) {
                outbound.push(self.own_proposal.broadcast(Message::Proposal(proposal)));
            }
        }
        outbound
    }
}

impl ReplicaEngine for StreamletEngine {
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
        let mut outbound = Vec::new();
        let mut updates = Vec::new();
        match msg {
            Message::Proposal(proposal) => {
                // The epoch clock is `now`, not the last tick the run loop
                // got round to: over loopback sockets the leader's proposal
                // can be dequeued before this replica's own tick for the
                // same epoch, and a proposal for an epoch not yet opened
                // wins no vote. (Never the case in virtual time, where a
                // proposal arrives δ after every tick of its epoch.)
                outbound = self.open_due_epochs(now);
                self.kernel_mut()
                    .obs()
                    .proposal_seen(proposal.block().round(), now);
                let intake = self.replica.on_proposal(&proposal);
                if let Some(vote) = intake.vote {
                    self.kernel_mut().obs().voted(vote.round(), now);
                    outbound.push(OutboundMsg::broadcast(
                        MsgKind::Vote,
                        Message::Vote(vote).to_bytes(),
                    ));
                }
                updates = intake.updates;
            }
            Message::Vote(vote) => {
                // Time vote-ingest steps that ran a deferred batch check:
                // the batch dominates such a step, so its duration is the
                // batch-verify phase.
                let batches = self.kernel().sig_stats().batch_calls;
                let verify = PhaseTimer::start(&**self.kernel().recorder());
                updates = self.replica.on_vote(&vote);
                if self.kernel().sig_stats().batch_calls > batches {
                    verify.finish(&**self.kernel().recorder(), names::PHASE_BATCH_VERIFY_NS);
                }
            }
            Message::SyncRequest(request) => {
                if let Some(response) = self.kernel_mut().serve_sync(&request) {
                    outbound.push(OutboundMsg::to(
                        request.requester(),
                        MsgKind::SyncResponse,
                        Message::SyncResponse(response).to_bytes(),
                    ));
                }
            }
            Message::SyncResponse(response) => {
                updates = self.replica.on_sync_response(&response, now);
            }
        }
        self.kernel_mut().finish_step(outbound, updates, now)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        (self.next_epoch <= self.max_epochs).then(|| self.epoch_open_at(self.next_epoch))
    }

    fn on_tick(&mut self, now: SimTime) -> EngineStep {
        let outbound = self.open_due_epochs(now);
        self.kernel_mut().finish_step(outbound, Vec::new(), now)
    }

    fn restore(&mut self, record: &WalRecord, _now: SimTime) {
        self.replica.replay(record);
        // Never re-open (and re-propose in) an epoch the pre-crash self
        // already reached — the clock resumes strictly after it.
        self.next_epoch = self.next_epoch.max(self.replica.epoch().as_u64() + 1);
    }

    fn poll_sync(&mut self, now: SimTime) -> EngineStep {
        let mut step = EngineStep::empty();
        for (peer, request) in self.kernel_mut().take_sync_requests(now) {
            step.outbound.push(OutboundMsg::to(
                peer,
                MsgKind::SyncRequest,
                Message::SyncRequest(request).to_bytes(),
            ));
        }
        step
    }

    fn round(&self) -> Round {
        self.replica.epoch()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sft_core::{PayloadSource, ProtocolConfig};
    use sft_crypto::KeyRegistry;
    use sft_obs::{names, Recorder, Registry};
    use sft_types::{BatchConfig, Decode, Payload, Transaction};

    use super::*;
    use crate::EndorseMode;

    /// Replica 1, the epoch-1 leader, recording into the returned registry,
    /// after the tick that opened epoch 1 and broadcast its proposal of four
    /// 512 B transactions. Returns the proposal's buffer too.
    fn leader_after_proposing() -> (StreamletEngine, Arc<Registry>, Arc<[u8]>) {
        let mut replica = Replica::new(
            1,
            ProtocolConfig::for_replicas(4),
            KeyRegistry::deterministic(4),
            EndorseMode::Marker,
        );
        let kernel = replica.kernel_mut();
        kernel.set_payload_source(PayloadSource::Mempool(BatchConfig::default()));
        for seq in 0..4 {
            kernel.submit(Transaction::new(9, seq, vec![seq as u8; 512]));
        }
        let mut engine = StreamletEngine::new(replica, SimDuration::from_millis(200), 10);
        let registry = Arc::new(Registry::new());
        engine.set_recorder(Arc::clone(&registry) as _);
        let step = engine.on_tick(SimTime::ZERO);
        let [proposal] = &step.outbound[..] else {
            panic!("opening epoch 1 sends exactly the proposal: {step:?}");
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
        let decoded = Message::from_bytes(&sent).expect("a proposal");
        assert_eq!(
            decoded.to_bytes(),
            sent.to_vec(),
            "written in place as it encodes field by field"
        );
        let Message::Proposal(proposal) = decoded else {
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
