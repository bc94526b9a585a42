//! The replica engine: one consensus replica as its transport sees it.
//!
//! A [`ReplicaEngine`] ingests opaque envelope payloads, asks for wake-ups
//! via deadlines, and hands out its [`ChainKernel`], which is where a
//! harness submits client transactions and reads everything it reports on
//! a run. [`Engine`] is its one implementation, over a protocol's
//! [`ReplicaRules`] (`sft-fbft`'s `FbftReplica`, `sft-streamlet`'s
//! `Replica`): the rules keep their state machine, clock and vote route,
//! and the engine does the rest once — decoding ([`OwnProposal`]), the
//! batch-verify timer, block-sync serving, encoding and routing, and an
//! equivocator's forged twin proposal and vote. So one generic run loop
//! drives either protocol over any transport without knowing a single
//! message type.
//!
//! The shape mirrors the transport-oblivious replica of FeBFT and the
//! RECIPE argument: replication logic should not know how bytes move.
//! Everything an engine does is expressed as:
//!
//! - **inputs**: [`ReplicaEngine::on_envelope`] (a delivered payload),
//!   [`ReplicaEngine::on_tick`] (a due deadline), and
//!   [`ReplicaEngine::poll_sync`] (a periodic block-sync drain);
//! - **outputs**: an [`EngineStep`] of [`OutboundMsg`]s to route plus the
//!   commit-log entries the step produced.
//!
//! Outbound messages carry a [`MsgKind`] tag so a harness can apply
//! *behavioral* policy (a vote-withholding fault drops `Vote`s, a stalled
//! leader drops `Proposal`s) without decoding protocol bytes.

use std::sync::Arc;

use sft_crypto::{IdSet, KeyPair, SigStats};
use sft_obs::{names, PhaseTimer, Recorder};
use sft_types::{
    BlockRequest, Decode, DecodeError, Encode, EndorseInfo, Payload, ReplicaId, Round, SimTime,
    StrongCommitUpdate, StrongVote,
};

use crate::wal::WalRecord;
use crate::{Block, BlockResponse, ChainKernel};

/// What kind of protocol message an outbound payload encodes. The tag is
/// harness-facing metadata only — it never goes on the wire (the payload
/// bytes carry their own discriminant) — and exists so transport-level
/// policy can act on message class without protocol knowledge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// A leader's block proposal.
    Proposal,
    /// A replica's (strong-)vote.
    Vote,
    /// A round-timeout declaration (SFT-DiemBFT only).
    Timeout,
    /// A point-to-point block-sync fetch.
    SyncRequest,
    /// The chain segment answering a sync request.
    SyncResponse,
    /// A leader's bare quorum certificate, forwarded while its proposal
    /// waits for the round pace (SFT-DiemBFT only). It carries other
    /// replicas' votes, so it promises nothing of its sender's beyond the
    /// sender's own vote.
    Certificate,
}

/// Where an outbound message goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// To every replica (the sender hears itself without transport delay).
    Broadcast,
    /// To exactly one peer.
    To(ReplicaId),
}

/// One message an engine wants sent: routing, kind tag, and the encoded
/// bytes (shared, so broadcasts encode once).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutboundMsg {
    /// Broadcast or point-to-point.
    pub route: Route,
    /// Message class, for harness-level behavioral policy.
    pub kind: MsgKind,
    /// The encoded wire payload.
    pub bytes: Arc<[u8]>,
}

impl OutboundMsg {
    /// A broadcast of `bytes` tagged `kind`.
    pub fn broadcast(kind: MsgKind, bytes: impl Into<Arc<[u8]>>) -> Self {
        Self {
            route: Route::Broadcast,
            kind,
            bytes: bytes.into(),
        }
    }

    /// A point-to-point send of `bytes` tagged `kind`.
    pub fn to(peer: ReplicaId, kind: MsgKind, bytes: impl Into<Arc<[u8]>>) -> Self {
        Self {
            route: Route::To(peer),
            kind,
            bytes: bytes.into(),
        }
    }
}

/// A protocol's wire message as the [`Engine`] reads and builds it: which
/// variant carries a proposal (and its block) or a sync request, and how
/// to wrap a vote or a sync exchange.
pub trait ProtocolMessage: Encode + Decode {
    /// Encodes the message around the block it proposes — what precedes
    /// the block's encoding into `before`, what follows it into `after` —
    /// and returns the block; writes nothing and returns `None` for a
    /// message that proposes no block.
    fn encode_around_block(
        &mut self,
        before: &mut Vec<u8>,
        after: &mut Vec<u8>,
    ) -> Option<&mut Block>;

    /// The block this message proposes, if it is a proposal.
    fn proposed(&self) -> Option<&Block>;

    /// This proposal around `block` instead, signed with `key_pair`: the
    /// twin an equivocating leader sends half the replicas. `None` if this
    /// is not a proposal.
    fn rewrapped(&self, block: Block, key_pair: &KeyPair) -> Option<Self>;

    /// The block-sync fetch this message is, if it is one.
    fn sync_request(&self) -> Option<&BlockRequest>;

    /// A vote message.
    fn vote(vote: StrongVote) -> Self;

    /// A block-sync fetch.
    fn request(request: BlockRequest) -> Self;

    /// The answer to a block-sync fetch.
    fn response(response: BlockResponse) -> Self;
}

/// The last proposal an engine broadcast, held together with the buffer it
/// went out in, so the copy that loops back to the leader is not decoded:
/// decoding a block recomputes every transaction's id, and the leader
/// already holds the value those bytes were encoded from.
///
/// A delivery is the held proposal exactly when its bytes *are* the sent
/// buffer — same address, same length. While the proposal is held its
/// `Arc` keeps that allocation alive, so no other buffer can share the
/// address, and only the sender's own loopback carries it. Any other
/// payload, a byte-identical copy included, is decoded as before, holding
/// ranges of the delivered buffer.
///
/// `M` is the protocol's message enum, so an echo re-enters the engine's
/// dispatch as the same value a decode would have produced.
#[derive(Debug)]
pub struct OwnProposal<M> {
    sent: Option<(Arc<[u8]>, M)>,
}

impl<M> Default for OwnProposal<M> {
    fn default() -> Self {
        Self { sent: None }
    }
}

impl<M: ProtocolMessage> OwnProposal<M> {
    /// Encodes `msg` as a [`MsgKind::Proposal`] broadcast and holds it,
    /// replacing any earlier proposal still held. The block is written
    /// straight into the broadcast buffer and holds it from here on
    /// ([`Block::encode_held`]): the buffer is the one copy of the block's
    /// bytes this replica keeps.
    pub fn broadcast(&mut self, mut msg: M) -> OutboundMsg {
        let (mut before, mut after) = (Vec::new(), Vec::new());
        let bytes = match msg.encode_around_block(&mut before, &mut after) {
            Some(block) => block.encode_held(&before, &after),
            None => msg.to_bytes().into(),
        };
        self.sent = Some((Arc::clone(&bytes), msg));
        OutboundMsg::broadcast(MsgKind::Proposal, bytes)
    }

    /// `payload` as a message: the held proposal, handed over once, if
    /// `payload` is the buffer it was broadcast in; otherwise a decode of
    /// `payload` holding ranges of it, timed into `recorder` as
    /// [`names::PHASE_DECODE_NS`].
    ///
    /// # Errors
    ///
    /// Returns the decode error of bytes that are not a message.
    pub fn decode(
        &mut self,
        payload: &Arc<[u8]>,
        recorder: &dyn Recorder,
    ) -> Result<M, DecodeError> {
        let echo = self
            .sent
            .take_if(|(bytes, _)| std::ptr::eq::<[u8]>(&**bytes, &**payload));
        if let Some((_, msg)) = echo {
            return Ok(msg);
        }
        let timer = PhaseTimer::start(recorder);
        let decoded = M::from_shared(payload);
        timer.finish(recorder, names::PHASE_DECODE_NS);
        decoded
    }
}

/// Everything one engine input produced: messages to route and commit-log
/// entries for the run's timeline. Ordering matters — the harness sends
/// `outbound` in order, which keeps runs deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStep {
    /// Messages to send, in send order.
    pub outbound: Vec<OutboundMsg>,
    /// Commit-log entries this step produced (standard commits and
    /// strength increases), in occurrence order.
    pub updates: Vec<StrongCommitUpdate>,
    /// Durable consensus events this step produced, in occurrence order.
    /// A crash-safe harness appends these to the replica's write-ahead
    /// log *before* routing `outbound` — the write-ahead discipline that
    /// makes a restarted replica honor its pre-crash votes.
    pub persist: Vec<WalRecord>,
}

impl EngineStep {
    /// True if the step produced no messages, commit entries, or durable
    /// events.
    pub fn is_empty(&self) -> bool {
        self.outbound.is_empty() && self.updates.is_empty() && self.persist.is_empty()
    }
}

/// What one input to a protocol's [`ReplicaRules`] produced. The engine
/// encodes and sends it in field order — the vote, the sync requests, the
/// proposal, then DiemBFT's bare certificate, timeout vote and timeout —
/// and seals `updates` into the step.
#[derive(Debug)]
pub struct Outcome<M> {
    /// This replica's vote, sent where [`ReplicaRules::vote_route`] says.
    pub vote: Option<StrongVote>,
    /// Block-sync fetches now due, each to the named peer.
    pub sync_requests: Vec<(ReplicaId, BlockRequest)>,
    /// A proposal to broadcast (and hold, see [`OwnProposal`]).
    pub proposal: Option<M>,
    /// A certificate this replica formed that no proposal carries yet.
    pub certificate: Option<M>,
    /// This replica's vote in the round [`timeout`](Self::timeout) closes.
    pub timeout_vote: Option<M>,
    /// A round timeout to broadcast.
    pub timeout: Option<M>,
    /// Commit-log entries produced, in occurrence order.
    pub updates: Vec<StrongCommitUpdate>,
}

impl<M> Default for Outcome<M> {
    fn default() -> Self {
        Self {
            vote: None,
            sync_requests: Vec::new(),
            proposal: None,
            certificate: None,
            timeout_vote: None,
            timeout: None,
            updates: Vec::new(),
        }
    }
}

/// What one protocol adds to the [`Engine`]: its state machine over a
/// [`ChainKernel`], its clock, and where its votes go.
pub trait ReplicaRules {
    /// The protocol's wire message.
    type Message: ProtocolMessage;

    /// The replica's protocol-agnostic state.
    fn kernel(&self) -> &ChainKernel;

    /// Mutable access to the kernel.
    fn kernel_mut(&mut self) -> &mut ChainKernel;

    /// Consumes the replica into its kernel.
    fn into_kernel(self) -> ChainKernel;

    /// The replica's current round (Streamlet: epoch).
    fn round(&self) -> Round;

    /// The next instant the replica needs [`tick`](Self::tick) or
    /// [`open_due`](Self::open_due), or `None` if it never will.
    fn deadline(&self) -> Option<SimTime>;

    /// Opens the due periods of an external clock (Streamlet's epochs) up
    /// to the first this replica leads, and returns its proposal; `None`
    /// once nothing more is due. The engine calls it until `None` on every
    /// tick and before judging any proposal.
    fn open_due(&mut self, now: SimTime) -> Option<Self::Message> {
        let _ = now;
        None
    }

    /// Fires the timers due at `now`.
    fn tick(&mut self, now: SimTime) -> Outcome<Self::Message> {
        let _ = now;
        Outcome::default()
    }

    /// Handles one delivered message; never a sync request, which the
    /// engine serves itself.
    fn handle(&mut self, msg: Self::Message, now: SimTime) -> Outcome<Self::Message>;

    /// Where this replica's vote goes.
    fn vote_route(&self, vote: &StrongVote) -> Route;

    /// Block-sync fetches due at `now`, for a protocol whose events do not
    /// carry them ([`Outcome::sync_requests`]).
    fn poll_sync(&mut self, now: SimTime) -> Vec<(ReplicaId, BlockRequest)> {
        let _ = now;
        Vec::new()
    }

    /// Re-applies one recovered write-ahead-log record at restart.
    fn restore(&mut self, record: &WalRecord, now: SimTime);

    /// Signature-verification counters of every aggregator the replica
    /// runs.
    fn sig_stats(&self) -> SigStats {
        self.kernel().sig_stats()
    }
}

/// A consensus replica as its transport sees it: opaque payloads in,
/// [`EngineStep`]s out, plus the deadlines a run harness wakes it on. See
/// the [module docs](self) for the contract; [`Engine`] is the one
/// implementation.
///
/// A harness submits client transactions to the kernel
/// ([`ChainKernel::submit_request`], [`ChainKernel::drain_acks`]) and reads
/// everything it reports on from it.
pub trait ReplicaEngine {
    /// The replica's protocol-agnostic state.
    fn kernel(&self) -> &ChainKernel;

    /// Mutable access to the kernel (harness setup and the client plane).
    fn kernel_mut(&mut self) -> &mut ChainKernel;

    /// Consumes the engine into its kernel, for a final report assembled
    /// without copying the chain or the log.
    fn into_kernel(self) -> ChainKernel
    where
        Self: Sized;

    /// Ingests one delivered payload at `now`. What the engine keeps of it
    /// — a proposed block, its transactions — holds ranges of `payload`
    /// rather than copies. Undecodable bytes are ignored (a transport can
    /// carry garbage) and return an empty step.
    fn on_envelope(&mut self, from: ReplicaId, payload: &Arc<[u8]>, now: SimTime) -> EngineStep;

    /// The next instant this engine needs a wake-up — a pacemaker
    /// deadline, an epoch-clock tick — or `None` if it never will.
    fn next_deadline(&self) -> Option<SimTime>;

    /// Fires every internal timer due at `now` (timeout broadcasts, epoch
    /// openings). Must advance [`next_deadline`](Self::next_deadline) past
    /// `now`, or the run loop could not make progress.
    fn on_tick(&mut self, now: SimTime) -> EngineStep;

    /// The replica's current round (Streamlet: epoch) — the progress
    /// measure self-pacing run plans stop on.
    fn round(&self) -> Round;

    /// Drains block-sync fetches due at `now` (new targets and expired
    /// retries) as point-to-point requests, for a protocol whose event
    /// steps do not carry them.
    fn poll_sync(&mut self, now: SimTime) -> EngineStep;

    /// Re-applies one recovered write-ahead-log record at restart instant
    /// `now`, before the engine's first tick. Replaying a log front to
    /// back restores vote dedup (no equivocation against the pre-crash
    /// self), the locked round and high-QC, and the committed prefix.
    fn restore(&mut self, record: &WalRecord, now: SimTime);

    /// Signature-verification counters accumulated by the replica's vote
    /// (and, where the protocol has them, timeout) aggregation and its
    /// certificate intake: single checks and certificate batches.
    fn sig_stats(&self) -> SigStats;

    /// This replica's id.
    fn id(&self) -> ReplicaId {
        self.kernel().id()
    }

    /// An equivocating leader's twin of its honest proposal `proposal`:
    /// the same proposal around a sibling block with a different payload,
    /// re-signed, for split-brain delivery. `None` if `proposal` is not a
    /// proposal or its parent is not stored here.
    fn twin_proposal(&self, proposal: &[u8]) -> Option<Vec<u8>>;

    /// The vote an equivocator sends for the proposal `incoming`, with a
    /// forged clean-history marker of 0, addressed where an honest vote
    /// goes — at most once per block; `None` if `incoming` is not a
    /// proposal or was already voted on.
    fn forge_vote(&mut self, incoming: &[u8]) -> Option<OutboundMsg>;
}

/// A protocol's [`ReplicaRules`] on a transport: the one [`ReplicaEngine`]
/// (`sft_fbft::FbftEngine` and `sft_streamlet::StreamletEngine` are this
/// over each protocol's replica).
pub struct Engine<R: ReplicaRules> {
    replica: R,
    /// The last proposal broadcast, so its own loopback is not decoded.
    own_proposal: OwnProposal<R::Message>,
    /// Blocks this replica already forged a vote for (equivocators only).
    forged: IdSet,
}

impl<R: ReplicaRules> Engine<R> {
    /// Puts `replica` on a transport.
    pub fn new(replica: R) -> Self {
        Self {
            replica,
            own_proposal: OwnProposal::default(),
            forged: IdSet::default(),
        }
    }

    /// Mutable access to the wrapped replica (tests and harness setup).
    pub fn replica_mut(&mut self) -> &mut R {
        &mut self.replica
    }

    /// Runs one input through the rules. Signature checks dominate any
    /// input that makes them (a vote, a timeout, a certificate's members),
    /// so such an input's duration is the batch-verify phase.
    fn timed(&mut self, input: impl FnOnce(&mut R) -> Outcome<R::Message>) -> Outcome<R::Message> {
        let checked = |stats: SigStats| stats.verifications + stats.batch_verified;
        let before = checked(self.replica.sig_stats());
        let timer = PhaseTimer::start(&**self.replica.kernel().recorder());
        let out = input(&mut self.replica);
        if checked(self.replica.sig_stats()) > before {
            let recorder = self.replica.kernel().recorder();
            timer.finish(&**recorder, names::PHASE_BATCH_VERIFY_NS);
        }
        out
    }

    /// Broadcasts the proposals of every clock period due at `now`.
    fn open_due(&mut self, now: SimTime, outbound: &mut Vec<OutboundMsg>) {
        while let Some(proposal) = self.replica.open_due(now) {
            outbound.push(self.own_proposal.broadcast(proposal));
        }
    }

    /// Encodes `out` behind `outbound`, in [`Outcome`]'s order, and seals
    /// the step.
    fn seal(
        &mut self,
        out: Outcome<R::Message>,
        mut outbound: Vec<OutboundMsg>,
        now: SimTime,
    ) -> EngineStep {
        if let Some(vote) = out.vote {
            self.replica.kernel_mut().obs().voted(vote.round(), now);
            outbound.push(self.vote_msg(vote));
        }
        for (peer, request) in out.sync_requests {
            let msg = R::Message::request(request);
            outbound.push(OutboundMsg::to(peer, MsgKind::SyncRequest, msg.to_bytes()));
        }
        if let Some(proposal) = out.proposal {
            outbound.push(self.own_proposal.broadcast(proposal));
        }
        let broadcasts = [
            (MsgKind::Certificate, &out.certificate),
            (MsgKind::Vote, &out.timeout_vote),
            (MsgKind::Timeout, &out.timeout),
        ];
        for (kind, msg) in broadcasts {
            if let Some(msg) = msg {
                outbound.push(OutboundMsg::broadcast(kind, msg.to_bytes()));
            }
        }
        self.replica
            .kernel_mut()
            .finish_step(outbound, out.updates, now)
    }

    /// `vote` encoded and addressed as the protocol sends its votes.
    fn vote_msg(&self, vote: StrongVote) -> OutboundMsg {
        OutboundMsg {
            route: self.replica.vote_route(&vote),
            kind: MsgKind::Vote,
            bytes: R::Message::vote(vote).to_bytes().into(),
        }
    }
}

impl<R: ReplicaRules> ReplicaEngine for Engine<R> {
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
            return EngineStep::default(); // transports can carry garbage
        };
        let mut outbound = Vec::new();
        if let Some(request) = msg.sync_request() {
            // Serving is read-only; the requester verifies everything
            // against the certificate chain.
            if let Some(response) = self.replica.kernel_mut().serve_sync(request) {
                let (to, msg) = (request.requester(), R::Message::response(response));
                outbound.push(OutboundMsg::to(to, MsgKind::SyncResponse, msg.to_bytes()));
            }
            return self.seal(Outcome::default(), outbound, now);
        }
        if let Some(round) = msg.proposed().map(Block::round) {
            // The clock is `now`, not the last tick the run loop got round
            // to: over loopback sockets a leader's proposal can be dequeued
            // before this replica's own tick for its epoch, and a proposal
            // for an epoch not yet opened wins no vote.
            self.open_due(now, &mut outbound);
            self.replica.kernel_mut().obs().proposal_seen(round, now);
        }
        let out = self.timed(|replica| replica.handle(msg, now));
        self.seal(out, outbound, now)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.replica.deadline()
    }

    fn on_tick(&mut self, now: SimTime) -> EngineStep {
        let mut outbound = Vec::new();
        self.open_due(now, &mut outbound);
        let out = self.timed(|replica| replica.tick(now));
        self.seal(out, outbound, now)
    }

    fn round(&self) -> Round {
        self.replica.round()
    }

    /// Runs on every instant for every replica, so it seals no step: a
    /// sync poll moves no consensus state.
    fn poll_sync(&mut self, now: SimTime) -> EngineStep {
        let mut step = EngineStep::default();
        for (peer, request) in self.replica.poll_sync(now) {
            let msg = R::Message::request(request);
            step.outbound
                .push(OutboundMsg::to(peer, MsgKind::SyncRequest, msg.to_bytes()));
        }
        step
    }

    fn restore(&mut self, record: &WalRecord, now: SimTime) {
        self.replica.restore(record, now);
    }

    fn sig_stats(&self) -> SigStats {
        self.replica.sig_stats()
    }

    fn twin_proposal(&self, proposal: &[u8]) -> Option<Vec<u8>> {
        let honest = R::Message::from_bytes(proposal).ok()?;
        let block = honest.proposed()?;
        let kernel = self.replica.kernel();
        let parent = kernel.store().get(block.parent_id())?;
        let round = block.round();
        let payload = Payload::synthetic(1, 1, u64::MAX - round.as_u64());
        let twin = Block::new(parent, round, kernel.id(), payload);
        Some(honest.rewrapped(twin, kernel.key_pair())?.to_bytes())
    }

    fn forge_vote(&mut self, incoming: &[u8]) -> Option<OutboundMsg> {
        let msg = R::Message::from_bytes(incoming).ok()?;
        let block = msg.proposed()?;
        if !self.forged.insert(block.id()) {
            return None;
        }
        let marker = EndorseInfo::Marker(Round::ZERO);
        let vote = StrongVote::new(block.vote_data(), marker, self.replica.kernel().key_pair());
        Some(self.vote_msg(vote))
    }
}
