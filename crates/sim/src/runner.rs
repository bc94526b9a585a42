//! The replica run loop: one discrete event loop that drives any
//! [`ReplicaEngine`] over any [`Transport`], hosting 1…n of the
//! transport's replicas.
//!
//! Everything outside the engines happens here, exactly once: client
//! ingress → `submit` → verdict or ack route; decode-free dispatch
//! (engines eat envelope bytes); same-instant cascades (a replica hears
//! its own broadcasts without paying the network delay); deadline firing
//! and block-sync polling; persist → gate → route → one durability request
//! per replica per instant; ack return; the bounded
//! post-run sync drain; Byzantine behavior filtering; [`SimReport`]
//! assembly. The simulator and the loopback-TCP harness host all `n`
//! replicas in one runner; `sft-node` hosts the one replica its process
//! is — same loop, so what the tests and the benchmark drive is what
//! ships. The protocol crates contribute engines, built per protocol in
//! [`engines`](crate::engines).
//!
//! Engines are found by [`ReplicaEngine::id`]; a delivery for a replica
//! hosted elsewhere is dropped. Index-taking accessors (`engine(i)`, …)
//! index the hosted engines in the order given — the replica id when all
//! `n` are hosted.
//!
//! ## Behaviors without protocol knowledge
//!
//! Outbound messages carry a [`MsgKind`] tag, so most of the fault model
//! is pure routing policy:
//!
//! - [`Behavior::Silent`] — never delivered to, never ticked;
//! - [`Behavior::WithholdVote`] — its `Vote`s are dropped at the source;
//! - [`Behavior::StallLeader`] — its `Proposal`s are dropped (and the
//!   engine builders additionally give it no payload source, so it never
//!   builds one);
//! - [`Behavior::Equivocate`] — its honest `Vote`s are replaced by forged
//!   ones (sent where the protocol sends an honest vote) and its
//!   `Proposal` broadcasts become split-brain twin pairs.
//!
//! The forged votes and twin proposals themselves come from the engine
//! ([`ReplicaEngine::forge_vote`], [`ReplicaEngine::twin_proposal`]).

use std::collections::VecDeque;
use std::sync::Arc;

use sft_core::{
    ChainKernel, DurableWal, EngineStep, GroupCommitWal, MsgKind, OutboundMsg, ReplicaEngine,
    Route, WalError, WalRecord, WalSpan,
};
use sft_crypto::{HashValue, IdMap};
use sft_network::Transport;
use sft_obs::{names, PhaseTimer, SharedRecorder};
use sft_types::{
    ClientFrame, Decode, Dest, Encode, PersistSeq, ReplicaId, Round, SendGate, SimDuration,
    SimTime, StrongCommitUpdate,
};

use crate::{Behavior, SimReport};

/// Index of a [`MsgKind`] into the per-kind [`names::NET_MSGS`] /
/// [`names::NET_BYTES`] counter tables.
fn kind_index(kind: MsgKind) -> usize {
    match kind {
        MsgKind::Proposal => 0,
        MsgKind::Vote => 1,
        MsgKind::Timeout => 2,
        MsgKind::SyncRequest => 3,
        MsgKind::SyncResponse => 4,
        MsgKind::Certificate => 5,
    }
}

/// How a run decides it is finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunPlan {
    /// Externally clocked protocols (Streamlet): run until the engines
    /// schedule nothing further, then drain in-flight traffic and catch-up
    /// fetches (bounded) until the transport is quiet and no live replica
    /// is still syncing.
    UntilQuiescent,
    /// Self-pacing protocols (SFT-DiemBFT): run until every honest replica
    /// has moved past this round *and* none is still block-syncing — the
    /// majority keeps pipelining rounds, so events keep flowing until a
    /// straggler has caught up.
    PastRound(Round),
}

/// Pacing and safety bounds for a run, independent of protocol and
/// transport.
#[derive(Clone, Copy, Debug)]
pub struct RunnerConfig {
    /// The completion rule.
    pub plan: RunPlan,
    /// Hard virtual-time ceiling: a runaway guard, generous enough that no
    /// legitimate schedule (timeout back-off included) comes near it.
    pub horizon: SimTime,
    /// Maximum post-schedule drain iterations (each one processes pending
    /// events or advances time by one drain step).
    pub drain_bound: u64,
    /// How far to advance time per drain iteration when no event is
    /// scheduled but catch-up work remains (use the network delay δ).
    pub drain_step: SimDuration,
}

/// Messages pending immediate (same-instant) delivery: `(to, from, bytes)`.
/// A replica's own broadcasts loop back through here without paying the
/// transport delay.
type Inbox = VecDeque<(ReplicaId, ReplicaId, Arc<[u8]>)>;

/// The run loop: the hosted engines, their behaviors and one transport.
/// See the [module docs](self).
pub struct EngineRunner<E: ReplicaEngine, T: Transport> {
    engines: Vec<E>,
    behaviors: Vec<Behavior>,
    /// Replica id → index into `engines`; `None` for the transport's
    /// replicas hosted elsewhere.
    slots: Vec<Option<usize>>,
    transport: T,
    config: RunnerConfig,
    timelines: Vec<Vec<(SimTime, StrongCommitUpdate)>>,
    /// One durable log per hosted replica, when the run is pipelined:
    /// every persist record is appended here, and every outbound message
    /// is gated on the watermark covering the replica's last appended
    /// sequence — persist-before-send becomes watermark-before-flush.
    /// Empty keeps the in-memory discipline (no log, no gating, no
    /// fsyncs).
    wals: Vec<GroupCommitWal>,
    /// Replica `i`'s last appended persist sequence (0 = nothing appended)
    /// — the sequence its next outbound frames are gated on.
    last_seq: Vec<PersistSeq>,
    /// Replica `i`'s last appended `VoteSent` sequence — all a proposal or
    /// a forwarded certificate waits for (see [`gate_for`](Self::gate_for)).
    vote_seq: Vec<PersistSeq>,
    /// The highest sequence replica `i` gated a frame on during the
    /// current instant (0 = none): what the instant asks its log to make
    /// durable when it ends.
    demand: Vec<PersistSeq>,
    /// Replica `i`'s `BlockCommitted` records not yet known durable, in
    /// append order: the sequence, the block and where its frame landed.
    /// Each leaves memory once the watermark covers it
    /// ([`ChainKernel::spill`]). Empty on logs that cannot be read back.
    spills: Vec<VecDeque<(PersistSeq, HashValue, WalSpan)>>,
    drain_used: u64,
    /// Which client connection is waiting on each admitted transaction's
    /// ack — the routing table from [`ChainKernel::drain_acks`] back to
    /// [`Transport::send_client`]. Empty (and cost-free) on transports
    /// without a client gateway.
    ack_routes: IdMap<u64>,
    /// Where run-loop phase timings and per-kind traffic counters go;
    /// the no-op recorder by default, so instrumentation is free.
    recorder: SharedRecorder,
}

impl<E: ReplicaEngine, T: Transport> EngineRunner<E, T> {
    /// Builds a runner.
    ///
    /// # Panics
    ///
    /// Panics if `engines` and `behaviors` disagree in length, or an
    /// engine's id is hosted twice or is not one of the transport's
    /// replicas.
    pub fn new(
        engines: Vec<E>,
        behaviors: Vec<Behavior>,
        transport: T,
        config: RunnerConfig,
    ) -> Self {
        assert_eq!(engines.len(), behaviors.len(), "one behavior per replica");
        let mut slots = vec![None; transport.replica_count()];
        for (slot, engine) in engines.iter().enumerate() {
            let id = engine.id().as_usize();
            assert!(id < slots.len(), "transport sized for the replica set");
            assert!(slots[id].replace(slot).is_none(), "one engine per replica");
        }
        let n = engines.len();
        Self {
            engines,
            behaviors,
            slots,
            transport,
            config,
            timelines: vec![Vec::new(); n],
            wals: Vec::new(),
            last_seq: vec![0; n],
            vote_seq: vec![0; n],
            demand: vec![0; n],
            spills: vec![VecDeque::new(); n],
            drain_used: 0,
            ack_routes: IdMap::default(),
            recorder: sft_obs::noop(),
        }
    }

    /// Installs a live recorder: the run loop starts timing its phases
    /// and counting per-kind traffic, and every engine starts reporting
    /// its per-round consensus events into the same registry.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        for engine in &mut self.engines {
            engine.kernel_mut().set_recorder(Arc::clone(&recorder));
        }
        self.recorder = recorder;
    }

    /// Installs one durable log per hosted replica and switches the run to the
    /// pipelined persistence discipline: every persist record is appended
    /// to the replica's log before its step's messages are routed, every
    /// outbound message carries a [`SendGate`] that holds it in the
    /// transport until the log's durability watermark covers the
    /// replica's last appended record, and each instant ends by requesting
    /// durability for the frames it gated — one request per replica.
    /// A log that can be read back also takes committed blocks' bytes off
    /// the heap: once a block's `BlockCommitted` record is durable, its
    /// replica keeps only the header and serves block sync from the log.
    ///
    /// # Panics
    ///
    /// Panics if `wals` is not exactly one log per hosted replica.
    pub fn set_wals(&mut self, wals: Vec<GroupCommitWal>) {
        assert_eq!(wals.len(), self.engines.len(), "one wal per replica");
        for (engine, wal) in self.engines.iter_mut().zip(&wals) {
            if let Some(reader) = wal.reader() {
                engine.kernel_mut().set_log_reader(reader);
            }
        }
        self.wals = wals;
    }

    /// Immutable access to engine `i`, for tests and harnesses.
    pub fn engine(&self, i: usize) -> &E {
        &self.engines[i]
    }

    /// Fsyncs the hosted replicas' logs have issued so far (0 without
    /// logs).
    pub fn wal_fsyncs(&self) -> u64 {
        self.wals.iter().map(GroupCommitWal::fsyncs).sum()
    }

    /// Swaps in a replacement engine for replica `i` and returns the old
    /// one — the in-process analogue of `kill -9` plus restart. The
    /// replacement arrives with whatever state the caller rebuilt (nothing
    /// for an amnesiac restart, a [`restore`](ReplicaEngine::restore)
    /// replay of the records its log holds for a recovering one); its
    /// log keeps growing where the old engine's left off, and the
    /// replacement reads its spilled blocks back from it.
    pub fn replace_engine(&mut self, i: usize, mut engine: E) -> E {
        assert_eq!(
            engine.id(),
            self.engines[i].id(),
            "replacement must keep the replica's identity"
        );
        if let Some(reader) = self.wals.get(i).and_then(GroupCommitWal::reader) {
            engine.kernel_mut().set_log_reader(reader);
        }
        std::mem::replace(&mut self.engines[i], engine)
    }

    /// Reassigns replica `i`'s behavior mid-run (e.g. `Silent` while it is
    /// "down" between a crash and its restart).
    pub fn set_behavior(&mut self, i: usize, behavior: Behavior) {
        self.behaviors[i] = behavior;
    }

    /// The transport, for stats inspection.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Runs to completion per the configured [`RunPlan`] and reports.
    ///
    /// # Errors
    ///
    /// Returns the first WAL failure; see [`run_until`](Self::run_until).
    pub fn run(mut self) -> Result<SimReport, WalError> {
        loop {
            if let RunPlan::PastRound(target) = self.config.plan {
                if self.honest_min_round() > target && !self.sync_active() {
                    break;
                }
            }
            match self.next_event_time() {
                Some(t) if t <= self.config.horizon => self.step_instant(t)?,
                Some(_) => break, // horizon tripped: runaway guard
                None => {
                    // Nothing scheduled. Keep time moving in drain steps
                    // while in-flight traffic or catch-up fetches remain
                    // (bounded), so sync retry timers still fire.
                    if (!self.transport.is_idle() || self.sync_active())
                        && self.drain_used < self.config.drain_bound
                    {
                        self.drain_used += 1;
                        let t = self.transport.now() + self.config.drain_step;
                        self.step_instant(t)?;
                    } else {
                        break;
                    }
                }
            }
        }
        self.finish()
    }

    /// Ends the run, as [`run`](Self::run) does and a caller pacing it
    /// through [`run_until`](Self::run_until) must: settles durability —
    /// every appended record is fsynced (so the fsync count is stable)
    /// and no gated frame is left waiting on a sync that will never come
    /// — and reports.
    ///
    /// # Errors
    ///
    /// Returns the WAL failure that kept the log from becoming durable.
    pub fn finish(mut self) -> Result<SimReport, WalError> {
        self.barrier()?;
        Ok(self.into_report())
    }

    /// Waits until every record the hosted replicas appended so far is
    /// durable in their logs — what a crash at this instant leaves on
    /// disk is then everything they logged. [`finish`](Self::finish) ends
    /// a run with it; a crash test takes its image after it mid-run. A
    /// no-op without logs.
    ///
    /// # Errors
    ///
    /// Returns the WAL failure that kept a log from becoming durable.
    pub fn barrier(&mut self) -> Result<(), WalError> {
        self.wals.iter_mut().try_for_each(DurableWal::barrier)
    }

    /// Advances through every scheduled event at or before `until`, then
    /// to `until` itself — the incremental API benchmarks drive epochs
    /// with, and `sft-node` wraps its stop rule around. On a socket
    /// transport it returns early when traffic arrives before `until`.
    ///
    /// # Errors
    ///
    /// Returns the first WAL append failure. The failed step routed
    /// nothing, and frames already gated on a record that never became
    /// durable stay held by the transport. The engines are now ahead of
    /// their logs: the run is over, drop the runner.
    pub fn run_until(&mut self, until: SimTime) -> Result<(), WalError> {
        while let Some(next) = self.next_event_time() {
            if next > until {
                break;
            }
            self.step_instant(next)?;
        }
        if self.transport.now() < until {
            self.step_instant(until)?;
        }
        Ok(())
    }

    /// The earliest pending event: a transport delivery or a live replica's
    /// deadline. `None` when nothing is scheduled (the transport may still
    /// hold traffic it cannot time — the run loop's drain covers that).
    fn next_event_time(&self) -> Option<SimTime> {
        let deadline = self
            .engines
            .iter()
            .zip(&self.behaviors)
            .filter(|(_, b)| **b != Behavior::Silent)
            .filter_map(|(e, _)| e.next_deadline())
            .min();
        let delivery = self.transport.next_deliver_at();
        match (deadline, delivery) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Processes everything that happens up to (and at) instant `target`:
    /// due deliveries, due deadlines, and every message the engines chain
    /// off them — iterating until the instant produces nothing further
    /// (self-deliveries cascade within it), then draining due block-sync
    /// fetches.
    fn step_instant(&mut self, target: SimTime) -> Result<(), WalError> {
        // A freshly restarted engine can report a deadline already in the
        // past (its clock resumes where the pre-crash replica left off);
        // overdue work fires at the current instant — time never rewinds.
        let target = target.max(self.transport.now());
        let deliveries = self.transport.poll_deliver(target);
        // A socket transport may return early (arrival before the
        // deadline); its clock, not the target, is the processing instant.
        let now = self.transport.now();
        let mut inbox: Inbox = deliveries
            .into_iter()
            .map(|d| (d.to, d.from, d.payload))
            .collect();
        // Client ingress rides the same instant: submissions admitted here
        // are eligible for the very proposals this instant builds.
        self.serve_clients(now);
        loop {
            while let Some((to, from, bytes)) = inbox.pop_front() {
                self.handle(to, from, bytes, now, &mut inbox)?;
            }
            if self.fire_due_ticks(now, &mut inbox)? || !inbox.is_empty() {
                continue;
            }
            self.poll_sync(now, &mut inbox)?;
            if inbox.is_empty() {
                break;
            }
        }
        self.request_durability();
        self.flush_acks();
        Ok(())
    }

    /// Asks each hosted replica's log, once, to make durable the highest
    /// sequence it gated a frame on this instant. One fsync then releases
    /// every frame of the instant — a leader's proposal and its own
    /// vote alike — and with them every record appended before. The same
    /// look at each watermark tells the replica which committed blocks
    /// became durable since the last one, and those leave memory.
    fn request_durability(&mut self) {
        for (i, wal) in self.wals.iter().enumerate() {
            let watermark = wal.watermark();
            let demand = std::mem::take(&mut self.demand[i]);
            if demand > 0 {
                watermark.request(demand);
            }
            let spills = &mut self.spills[i];
            if spills.is_empty() {
                continue;
            }
            let durable = watermark.get();
            while let Some(&(seq, id, span)) = spills.front() {
                if seq > durable {
                    break;
                }
                spills.pop_front();
                self.engines[i].kernel_mut().spill(id, span);
            }
        }
    }

    /// The client-ingress leg: drains the transport's client gateway,
    /// submits each request to the replica it addressed, and answers
    /// immediate verdicts (`Busy`, `Duplicate`) on the spot. Admitted
    /// requests are answered later, by [`flush_acks`](Self::flush_acks),
    /// when their commit reaches the requested strength. A no-op (one
    /// empty poll) on transports without a client gateway.
    fn serve_clients(&mut self, now: SimTime) {
        for delivery in self.transport.poll_clients() {
            let Some(i) = self.slot(delivery.replica) else {
                continue; // addressed to a replica hosted elsewhere
            };
            if self.behaviors[i] == Behavior::Silent {
                continue;
            }
            let Ok(ClientFrame::Request(req)) = ClientFrame::from_shared(&delivery.payload) else {
                continue; // unparseable interior, or an ack sent inward
            };
            let txn_id = req.txn_id();
            match self.engines[i].kernel_mut().submit_request(&req, now) {
                Some(verdict) => {
                    let bytes: Arc<[u8]> = ClientFrame::Ack(verdict).to_bytes().into();
                    self.transport
                        .send_client(delivery.conn, delivery.replica, bytes);
                }
                None => {
                    self.ack_routes.insert(txn_id, delivery.conn);
                }
            }
        }
    }

    /// Streams every newly ready strength-graded ack back down the client
    /// connection that asked for it. Acks for transactions nobody is
    /// waiting on (driver-fed workload, a departed client's re-submission
    /// by someone else) are dropped — acks are a courtesy, not state.
    fn flush_acks(&mut self) {
        for i in 0..self.engines.len() {
            let acks = self.engines[i].kernel_mut().drain_acks();
            if acks.is_empty() {
                continue;
            }
            let replica = self.engines[i].id();
            for ack in acks {
                let Some(conn) = self.ack_routes.remove(&ack.txn_id()) else {
                    continue;
                };
                let bytes: Arc<[u8]> = ClientFrame::Ack(ack).to_bytes().into();
                self.transport.send_client(conn, replica, bytes);
            }
        }
    }

    /// Routes one delivered payload to its engine, applying behavior
    /// policy to everything the engine wants sent in response.
    fn handle(
        &mut self,
        to: ReplicaId,
        from: ReplicaId,
        bytes: Arc<[u8]>,
        now: SimTime,
        inbox: &mut Inbox,
    ) -> Result<(), WalError> {
        let Some(i) = self.slot(to) else {
            return Ok(()); // addressed to a replica hosted elsewhere
        };
        if self.behaviors[i] == Behavior::Silent {
            return Ok(());
        }
        let timer = PhaseTimer::start(&*self.recorder);
        let step = self.engines[i].on_envelope(from, &bytes, now);
        timer.finish(&*self.recorder, names::PHASE_ON_ENVELOPE_NS);
        // An equivocator votes for every proposal it sees — with a forged
        // clean-history marker, in place of the honest vote the policy
        // below discards.
        if self.behaviors[i] == Behavior::Equivocate {
            if let Some(forged) = self.engines[i].forge_vote(&bytes) {
                self.route(i, forged, inbox);
            }
        }
        self.absorb(i, step, now, inbox)
    }

    /// The index of the hosted engine that is replica `id`, if this
    /// runner hosts it.
    fn slot(&self, id: ReplicaId) -> Option<usize> {
        *self.slots.get(id.as_usize())?
    }

    /// Records a step's commit-log entries on node `i`'s timeline and
    /// routes its outbound messages through the behavior filter.
    fn absorb(
        &mut self,
        i: usize,
        step: EngineStep,
        now: SimTime,
        inbox: &mut Inbox,
    ) -> Result<(), WalError> {
        // Write-ahead discipline: durable records land in the log before
        // any message they justify is routed, so a crash after a send can
        // never find the log missing the vote that went out — and a
        // failed append returns before anything is routed. With durable
        // logs installed, `append` only *buffers* for the group-commit
        // writer; what the hot path actually waits is recorded
        // separately as the persist-wait phase.
        let persist = PhaseTimer::start(&*self.recorder);
        if !step.persist.is_empty() {
            if let Some(wal) = self.wals.get_mut(i) {
                let wait = PhaseTimer::start(&*self.recorder);
                for record in &step.persist {
                    let (seq, span) = wal.append_spanned(record)?;
                    self.last_seq[i] = seq;
                    match (record, span) {
                        (WalRecord::VoteSent(_), _) => self.vote_seq[i] = seq,
                        (WalRecord::BlockCommitted(block), Some(span)) => {
                            self.spills[i].push_back((seq, block.id(), span));
                        }
                        _ => {}
                    }
                }
                wait.finish(&*self.recorder, names::PHASE_PERSIST_WAIT_NS);
            }
        }
        persist.finish(&*self.recorder, names::PHASE_PERSIST_NS);
        self.timelines[i].extend(step.updates.into_iter().map(|u| (now, u)));
        let route = PhaseTimer::start(&*self.recorder);
        for out in step.outbound {
            self.route_filtered(i, out, inbox);
        }
        route.finish(&*self.recorder, names::PHASE_ROUTE_NS);
        Ok(())
    }

    /// Behavior policy for one outbound message — see the module docs.
    fn route_filtered(&mut self, i: usize, out: OutboundMsg, inbox: &mut Inbox) {
        match (self.behaviors[i], out.kind) {
            (Behavior::WithholdVote, MsgKind::Vote) => return,
            (Behavior::Equivocate, MsgKind::Vote) => return, // forged instead
            (Behavior::StallLeader, MsgKind::Proposal) => return,
            (Behavior::Equivocate, MsgKind::Proposal) if out.route == Route::Broadcast => {
                self.split_brain(i, out.bytes, inbox);
                return;
            }
            _ => {}
        }
        self.route(i, out, inbox);
    }

    /// The gate replica `i`'s next outbound frame of `kind` must clear, if
    /// the run is pipelined: the durability watermark must cover the
    /// replica's last appended persist sequence before the frame hits the
    /// wire. A proposal or a forwarded certificate waits only for the
    /// replica's last appended vote: the certificate it carries is other
    /// replicas' votes, and perhaps the sender's own, but it promises
    /// nothing else of the sender's — whose next vote still waits for the
    /// certificate's record. `None` when no durable logs are installed or
    /// nothing was appended (nothing to justify — sending is free).
    fn gate_for(&self, i: usize, kind: MsgKind) -> Option<SendGate> {
        let wal = self.wals.get(i)?;
        let seq = match kind {
            MsgKind::Proposal | MsgKind::Certificate => self.vote_seq[i],
            _ => self.last_seq[i],
        };
        (seq > 0).then(|| SendGate::new(wal.watermark(), seq))
    }

    /// Sends one message: broadcasts go over the transport (encoded once,
    /// recipients share the buffer) and loop back to the sender
    /// immediately; point-to-point sends pay the transport delay, except
    /// one addressed to the sender itself, which loops back like a
    /// broadcast's own copy and never touches the transport.
    ///
    /// Pipelined runs attach the replica's gate, so the frame is held (in
    /// the transport, off the engine loop) until the WAL watermark covers
    /// the records that justify it, and note the gate as the instant's
    /// demand on the replica's log. The sender's own loopback delivery is
    /// *not* gated: a replica hearing its own message early cannot
    /// equivocate against itself, and its WAL replay restores the same
    /// state after a crash. A self-addressed vote still notes its demand:
    /// the certificate that will carry it is gated on it, and asking now
    /// overlaps the fsync with the peers' votes.
    fn route(&mut self, i: usize, out: OutboundMsg, inbox: &mut Inbox) {
        let from = self.engines[i].id();
        if self.recorder.enabled() {
            // One message per transport recipient, mirroring the
            // aggregate NetworkStats accounting but split per kind.
            let recipients = match out.route {
                Route::Broadcast => (self.transport.replica_count() - 1) as u64,
                Route::To(peer) => u64::from(peer != from),
            };
            let kind = kind_index(out.kind);
            self.recorder.add(names::NET_MSGS[kind], recipients);
            self.recorder
                .add(names::NET_BYTES[kind], recipients * out.bytes.len() as u64);
        }
        let gate = self.gate_for(i, out.kind);
        if let Some(gate) = &gate {
            self.demand[i] = self.demand[i].max(gate.seq());
        }
        let dest = match out.route {
            Route::Broadcast => {
                inbox.push_back((from, from, Arc::clone(&out.bytes)));
                Dest::Broadcast
            }
            Route::To(peer) if peer == from => {
                inbox.push_back((from, from, out.bytes));
                return;
            }
            Route::To(peer) => Dest::Peer(peer),
        };
        self.transport.send_to(from, dest, out.bytes, gate);
    }

    /// Split-brain delivery of an equivocating leader's honest proposal
    /// and its twin: low ids see the honest one, high ids the twin, and the
    /// equivocator itself sees both (so it casts the conflicting votes
    /// honest trackers will flag). Each is encoded once; its recipients
    /// share the buffer.
    fn split_brain(&mut self, i: usize, honest: Arc<[u8]>, inbox: &mut Inbox) {
        let Some(twin) = self.engines[i].twin_proposal(&honest) else {
            self.route(i, OutboundMsg::broadcast(MsgKind::Proposal, honest), inbox);
            return;
        };
        let halves: [Arc<[u8]>; 2] = [honest, twin.into()];
        let n = self.transport.replica_count();
        let from = self.engines[i].id();
        for to in 0..n as u16 {
            let target = ReplicaId::new(to);
            let half = usize::from(to as usize >= n / 2);
            if target == from {
                inbox.push_back((target, from, Arc::clone(&halves[half])));
            } else {
                self.transport.send(from, target, Arc::clone(&halves[half]));
            }
        }
        // The equivocator also sees the twin its own half did NOT receive.
        let other = usize::from(from.as_usize() < n / 2);
        inbox.push_back((from, from, Arc::clone(&halves[other])));
    }

    /// Fires every live engine whose deadline has passed. Returns whether
    /// any deadline was consumed (the instant may need another cascade).
    fn fire_due_ticks(&mut self, now: SimTime, inbox: &mut Inbox) -> Result<bool, WalError> {
        let mut fired = false;
        for i in 0..self.engines.len() {
            if self.behaviors[i] == Behavior::Silent {
                continue;
            }
            if self.engines[i].next_deadline().is_some_and(|d| d <= now) {
                fired = true;
                let timer = PhaseTimer::start(&*self.recorder);
                let step = self.engines[i].on_tick(now);
                timer.finish(&*self.recorder, names::PHASE_ON_TICK_NS);
                self.absorb(i, step, now, inbox)?;
            }
        }
        Ok(fired)
    }

    /// Drains every live engine's due block-sync fetches, sent
    /// point-to-point to the chosen peers.
    fn poll_sync(&mut self, now: SimTime, inbox: &mut Inbox) -> Result<(), WalError> {
        for i in 0..self.engines.len() {
            if self.behaviors[i] == Behavior::Silent {
                continue;
            }
            let step = self.engines[i].poll_sync(now);
            self.absorb(i, step, now, inbox)?;
        }
        Ok(())
    }

    /// True while catch-up work remains on the replicas the plan cares
    /// about: every live replica for quiescent runs, honest-ish replicas
    /// (the progress measure) for self-pacing ones.
    fn sync_active(&self) -> bool {
        self.engines
            .iter()
            .zip(&self.behaviors)
            .filter(|(_, b)| match self.config.plan {
                RunPlan::UntilQuiescent => **b != Behavior::Silent,
                RunPlan::PastRound(_) => {
                    matches!(**b, Behavior::Honest | Behavior::StallLeader)
                }
            })
            .any(|(e, _)| e.kernel().is_syncing())
    }

    /// The smallest current round among honest replicas (the run's
    /// progress measure). Falls back to the global maximum if the
    /// configuration has no fully honest replica, and to round 0 if it
    /// hosts none at all.
    fn honest_min_round(&self) -> Round {
        self.engines
            .iter()
            .zip(&self.behaviors)
            .filter(|(_, b)| matches!(**b, Behavior::Honest | Behavior::StallLeader))
            .map(|(e, _)| e.round())
            .min()
            .or_else(|| self.engines.iter().map(ReplicaEngine::round).max())
            .unwrap_or(Round::ZERO)
    }

    /// Snapshot of the current run state as a report (copies the chains,
    /// logs and timelines; the run can continue).
    pub fn report(&self) -> SimReport {
        let (chains, commit_logs) = self
            .engines
            .iter()
            .map(|e| {
                let kernel = e.kernel();
                (
                    kernel.committed_chain().to_vec(),
                    kernel.commit_log().to_vec(),
                )
            })
            .unzip();
        let mut report = self.report_scalars();
        report.chains = chains;
        report.commit_logs = commit_logs;
        report.timelines = self.timelines.clone();
        report
    }

    /// The final report, assembled by moving the chains, logs and
    /// timelines out of the engines instead of copying them.
    fn into_report(mut self) -> SimReport {
        let mut report = self.report_scalars();
        report.timelines = std::mem::take(&mut self.timelines);
        (report.chains, report.commit_logs) = self
            .engines
            .into_iter()
            .map(|e| e.into_kernel().into_commit_record())
            .unzip();
        report
    }

    /// Everything in a report except the per-replica vectors.
    fn report_scalars(&self) -> SimReport {
        let kernels = || self.engines.iter().map(ReplicaEngine::kernel);
        let safety_violations = kernels().filter(|k| k.safety_violated()).count();
        let equivocators_detected = kernels().map(|k| k.equivocators().len()).max().unwrap_or(0);
        let txns_committed = kernels()
            .map(ChainKernel::txns_committed)
            .max()
            .unwrap_or(0);
        let (sync_requests, sync_blocks_fetched, recovered_replicas) =
            crate::sync_report_fields(kernels().map(|k| (k.sync_stats(), k.committed_chain())));
        let sync_served_from_log = kernels()
            .map(|k| k.sync_stats().blocks_served_from_log)
            .sum();
        let walk_steps = kernels().map(ChainKernel::walk_steps).sum();
        let mut sig_stats = sft_crypto::SigStats::default();
        for engine in &self.engines {
            sig_stats.merge(engine.sig_stats());
        }
        let wal_fsyncs = self.wal_fsyncs();
        if self.recorder.enabled() {
            let residents: Vec<_> = kernels().map(ChainKernel::resident).collect();
            let gauge = |pick: fn(&sft_core::ResidentState) -> u64| {
                residents.iter().map(pick).max().unwrap_or(0)
            };
            let rec = &self.recorder;
            rec.set(names::RESIDENT_BLOCKS, gauge(|r| r.blocks as u64));
            rec.set(names::RESIDENT_PAYLOAD_BYTES, gauge(|r| r.payload_bytes));
            rec.set(names::RESIDENT_VOTES, gauge(|r| r.votes as u64));
            rec.set(names::RESIDENT_CERTS, gauge(|r| r.certs as u64));
            rec.set(names::DEDUP_ENTRIES, gauge(|r| r.dedup_entries as u64));
            let adopted = kernels().map(|k| k.sync_stats().orphans_adopted);
            rec.set(names::ORPHANS_ADOPTED, adopted.max().unwrap_or(0));
        }
        SimReport {
            chains: Vec::new(),
            commit_logs: Vec::new(),
            timelines: Vec::new(),
            net: self.transport.stats(),
            txns_committed,
            elapsed: self.transport.now(),
            safety_violations,
            equivocators_detected,
            sync_requests,
            sync_blocks_fetched,
            sync_served_from_log,
            recovered_replicas,
            walk_steps,
            sig_verifications: sig_stats.verifications,
            batch_verify_calls: sig_stats.batch_calls,
            wal_fsyncs,
            metrics: self.recorder.snapshot(),
        }
    }
}
