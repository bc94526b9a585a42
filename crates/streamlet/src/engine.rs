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

use sft_core::{ChainKernel, EngineStep, MsgKind, OutboundMsg, ReplicaEngine, WalRecord};
use sft_obs::{names, PhaseTimer};
use sft_types::{Decode, Encode, ReplicaId, Round, SimDuration, SimTime};

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
                outbound.push(OutboundMsg::broadcast(
                    MsgKind::Proposal,
                    Message::Proposal(proposal).to_bytes(),
                ));
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

    fn on_envelope(&mut self, _from: ReplicaId, payload: &[u8], now: SimTime) -> EngineStep {
        let decode = PhaseTimer::start(&**self.kernel().recorder());
        let decoded = Message::from_bytes(payload);
        decode.finish(&**self.kernel().recorder(), names::PHASE_DECODE_NS);
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
