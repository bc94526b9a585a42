//! The replica run loop: one discrete event loop that drives any
//! [`ReplicaEngine`] over any [`Transport`], hosting 1…n of the
//! transport's replicas.
//!
//! Everything outside the engines happens here, exactly once: client
//! ingress → `submit` → verdict or ack route; decode-free dispatch
//! (engines eat envelope bytes); same-instant cascades (a replica hears
//! its own broadcasts without paying the network delay); deadline firing
//! and block-sync polling; persist → gate → route; ack return; the bounded
//! post-run sync drain; Byzantine behavior filtering; [`SimReport`]
//! assembly. The simulator and the loopback-TCP harness host all `n`
//! replicas in one runner; `sft-node` hosts the one replica its process
//! is — same loop, so what the tests and the benchmark drive is what
//! ships. The protocol crates contribute engines; the drivers contribute
//! only construction and the protocol-specific Byzantine payloads
//! ([`Mischief`]).
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
//!   drivers additionally give it no payload source, so it never builds
//!   one);
//! - [`Behavior::Equivocate`] — its honest `Vote`s are replaced by forged
//!   ones and its `Proposal` broadcasts become split-brain twin pairs.
//!
//! Only the *contents* of the forged votes and twin proposals are
//! protocol-specific; the [`Mischief`] hook supplies those.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use sft_core::{
    DurableWal, EngineStep, MsgKind, OutboundMsg, ReplicaEngine, Route, WalError, WalRecord,
};
use sft_crypto::HashValue;
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

/// The protocol-specific payloads Byzantine behaviors need: everything
/// else about the fault model is generic routing policy in the runner.
/// `engine` is the misbehaving replica's.
pub trait Mischief<E: ReplicaEngine> {
    /// Twin an equivocating leader's proposal: returns the two conflicting
    /// encodings (the honest half and a sibling with a different payload)
    /// for split-brain delivery, or `None` if `proposal_bytes` cannot be
    /// twinned (the runner then broadcasts it honestly).
    fn twin(&mut self, engine: &E, proposal_bytes: &[u8]) -> Option<(Vec<u8>, Vec<u8>)>;

    /// The forged vote an equivocator broadcasts for an ingested proposal
    /// (at most once per block), or `None` if `incoming` is not a proposal
    /// or was already voted on.
    fn forge_vote(&mut self, engine: &E, incoming: &[u8]) -> Option<Vec<u8>>;
}

/// The no-op [`Mischief`]: every replica is honest. This is what real
/// deployments (the TCP transport) run with.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMischief;

impl<E: ReplicaEngine> Mischief<E> for NoMischief {
    fn twin(&mut self, _: &E, _: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
        None
    }

    fn forge_vote(&mut self, _: &E, _: &[u8]) -> Option<Vec<u8>> {
        None
    }
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

/// The run loop: the hosted engines, their behaviors, one transport, and
/// one [`Mischief`] hook. See the [module docs](self).
pub struct EngineRunner<E: ReplicaEngine, T: Transport, M: Mischief<E>> {
    engines: Vec<E>,
    behaviors: Vec<Behavior>,
    /// Replica id → index into `engines`; `None` for the transport's
    /// replicas hosted elsewhere.
    slots: Vec<Option<usize>>,
    transport: T,
    mischief: M,
    config: RunnerConfig,
    timelines: Vec<Vec<(SimTime, StrongCommitUpdate)>>,
    /// Per-replica write-ahead logs, when a crash test asked for them
    /// ([`keep_persist_log`](Self::keep_persist_log)): every durable
    /// record the engines emitted, appended *before* the messages it
    /// justifies were routed — the in-memory stand-in for the on-disk WAL a
    /// real node keeps. `None` otherwise: a second copy of every committed
    /// block is not something a long run should carry.
    persisted: Option<Vec<Vec<WalRecord>>>,
    /// Per-replica durable logs, when the run is pipelined: every persist
    /// record is appended here too, and every outbound message is gated on
    /// the watermark covering the replica's last appended sequence —
    /// persist-before-send becomes watermark-before-flush. `None` keeps
    /// the classic in-memory-only discipline (no gating, no fsyncs).
    wals: Option<Vec<Box<dyn DurableWal>>>,
    /// Replica `i`'s last appended persist sequence (0 = nothing appended)
    /// — the sequence its next outbound frames are gated on.
    last_seq: Vec<PersistSeq>,
    drain_used: u64,
    /// Which client connection is waiting on each admitted transaction's
    /// ack — the routing table from [`ReplicaEngine::drain_acks`] back to
    /// [`Transport::send_client`]. Empty (and cost-free) on transports
    /// without a client gateway.
    ack_routes: HashMap<HashValue, u64>,
    /// Where run-loop phase timings and per-kind traffic counters go;
    /// the no-op recorder by default, so instrumentation is free.
    recorder: SharedRecorder,
}

impl<E: ReplicaEngine, T: Transport, M: Mischief<E>> EngineRunner<E, T, M> {
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
        mischief: M,
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
            mischief,
            config,
            timelines: vec![Vec::new(); n],
            persisted: None,
            wals: None,
            last_seq: vec![0; n],
            drain_used: 0,
            ack_routes: HashMap::new(),
            recorder: sft_obs::noop(),
        }
    }

    /// Installs a live recorder: the run loop starts timing its phases
    /// and counting per-kind traffic, and every engine starts reporting
    /// its per-round consensus events into the same registry.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        for engine in &mut self.engines {
            engine.set_recorder(Arc::clone(&recorder));
        }
        self.recorder = recorder;
    }

    /// Installs one durable log per hosted replica and switches the run to the
    /// pipelined persistence discipline: every persist record is appended
    /// to the replica's [`DurableWal`] before its step's messages are
    /// routed, and every outbound message carries a [`SendGate`] that
    /// holds it in the transport until the log's durability watermark
    /// covers the replica's last appended record.
    ///
    /// # Panics
    ///
    /// Panics if `wals` is not exactly one log per hosted replica.
    pub fn set_wals(&mut self, wals: Vec<Box<dyn DurableWal>>) {
        assert_eq!(wals.len(), self.engines.len(), "one wal per replica");
        self.wals = Some(wals);
    }

    /// Immutable access to engine `i`, for tests and benches.
    pub fn engine(&self, i: usize) -> &E {
        &self.engines[i]
    }

    /// Starts mirroring every persisted record into an in-memory log per
    /// replica, readable through [`persisted`](Self::persisted) — what the
    /// crash-restart tests replay into a replacement engine. Call before
    /// the run starts.
    pub fn keep_persist_log(&mut self) {
        self.persisted = Some(vec![Vec::new(); self.engines.len()]);
    }

    /// Replica `i`'s write-ahead log so far, in persistence order — what
    /// a crash at this instant would leave on disk.
    ///
    /// # Panics
    ///
    /// Panics unless [`keep_persist_log`](Self::keep_persist_log) was
    /// called first.
    pub fn persisted(&self, i: usize) -> &[WalRecord] {
        &self
            .persisted
            .as_ref()
            .expect("keep_persist_log() turns the in-memory WAL mirror on")[i]
    }

    /// Swaps in a replacement engine for replica `i` and returns the old
    /// one — the in-process analogue of `kill -9` plus restart. The
    /// replacement arrives with whatever state the caller rebuilt (nothing
    /// for an amnesiac restart, a [`restore`](ReplicaEngine::restore)
    /// replay of [`persisted`](Self::persisted) for a recovering one); its
    /// WAL keeps growing where the old engine's left off.
    pub fn replace_engine(&mut self, i: usize, engine: E) -> E {
        assert_eq!(
            engine.id(),
            self.engines[i].id(),
            "replacement must keep the replica's identity"
        );
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
        for wal in self.wals.iter_mut().flatten() {
            wal.barrier()?;
        }
        Ok(self.into_report())
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
        self.flush_acks();
        Ok(())
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
            let Ok(ClientFrame::Request(req)) = ClientFrame::from_bytes(&delivery.payload) else {
                continue; // unparseable interior, or an ack sent inward
            };
            let txn_id = req.txn_id();
            match self.engines[i].submit(&req, now) {
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
            let acks = self.engines[i].drain_acks();
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
            if let Some(forged) = self.mischief.forge_vote(&self.engines[i], &bytes) {
                self.route(i, OutboundMsg::broadcast(MsgKind::Vote, forged), inbox);
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
        // logs installed, `append` only *enqueues* (group commit) or
        // fsyncs inline (write-through); what the hot path actually waits
        // is recorded separately as the persist-wait phase.
        let persist = PhaseTimer::start(&*self.recorder);
        if !step.persist.is_empty() {
            if let Some(wals) = &mut self.wals {
                let wait = PhaseTimer::start(&*self.recorder);
                for record in &step.persist {
                    self.last_seq[i] = wals[i].append(record)?;
                }
                wait.finish(&*self.recorder, names::PHASE_PERSIST_WAIT_NS);
            }
        }
        if let Some(persisted) = &mut self.persisted {
            persisted[i].extend(step.persist);
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

    /// The gate replica `i`'s next outbound frames must clear, if the run
    /// is pipelined: the durability watermark must cover the replica's
    /// last appended persist sequence before any frame hits the wire.
    /// `None` when no durable logs are installed or nothing was ever
    /// appended (nothing to justify — sending is free).
    fn gate_for(&self, i: usize) -> Option<SendGate> {
        let wals = self.wals.as_ref()?;
        let seq = self.last_seq[i];
        (seq > 0).then(|| SendGate::new(wals[i].watermark(), seq))
    }

    /// Sends one message: broadcasts go over the transport (encoded once,
    /// recipients share the buffer) and loop back to the sender
    /// immediately; point-to-point sends pay the transport delay.
    ///
    /// Pipelined runs attach the replica's gate, so the frame is held (in
    /// the transport, off the engine loop) until the WAL watermark covers
    /// the records that justify it. The sender's own loopback delivery is
    /// *not* gated: a replica hearing its own message early cannot
    /// equivocate against itself, and its WAL replay restores the same
    /// state after a crash.
    fn route(&mut self, i: usize, out: OutboundMsg, inbox: &mut Inbox) {
        let from = self.engines[i].id();
        if self.recorder.enabled() {
            // One message per transport recipient, mirroring the
            // aggregate NetworkStats accounting but split per kind.
            let recipients = match out.route {
                Route::Broadcast => (self.transport.replica_count() - 1) as u64,
                Route::To(_) => 1,
            };
            let kind = kind_index(out.kind);
            self.recorder.add(names::NET_MSGS[kind], recipients);
            self.recorder
                .add(names::NET_BYTES[kind], recipients * out.bytes.len() as u64);
        }
        let gate = self.gate_for(i);
        let dest = match out.route {
            Route::Broadcast => {
                inbox.push_back((from, from, Arc::clone(&out.bytes)));
                Dest::Broadcast
            }
            Route::To(peer) => Dest::Peer(peer),
        };
        self.transport.send_to(from, dest, out.bytes, gate);
    }

    /// Split-brain delivery of an equivocating leader's twin proposals:
    /// low ids see A, high ids see B, and the equivocator itself sees both
    /// (so it casts the conflicting votes honest trackers will flag). Each
    /// twin is encoded once; its recipients share the buffer.
    fn split_brain(&mut self, i: usize, honest: Arc<[u8]>, inbox: &mut Inbox) {
        let Some((a, b)) = self.mischief.twin(&self.engines[i], &honest) else {
            self.route(i, OutboundMsg::broadcast(MsgKind::Proposal, honest), inbox);
            return;
        };
        let halves: [Arc<[u8]>; 2] = [a.into(), b.into()];
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
            .any(|(e, _)| e.is_syncing())
    }

    /// The smallest current round among honest replicas (the run's
    /// progress measure). Falls back to the global maximum if the
    /// configuration has no fully honest replica.
    fn honest_min_round(&self) -> Round {
        self.engines
            .iter()
            .zip(&self.behaviors)
            .filter(|(_, b)| matches!(**b, Behavior::Honest | Behavior::StallLeader))
            .map(|(e, _)| e.round())
            .min()
            .unwrap_or_else(|| {
                self.engines
                    .iter()
                    .map(ReplicaEngine::round)
                    .max()
                    .expect("at least one replica")
            })
    }

    /// Snapshot of the current run state as a report (copies the chains,
    /// logs and timelines; the run can continue).
    pub fn report(&self) -> SimReport {
        let (chains, commit_logs) = self
            .engines
            .iter()
            .map(|e| (e.committed_chain().to_vec(), e.commit_log().to_vec()))
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
            .map(ReplicaEngine::into_commit_record)
            .unzip();
        report
    }

    /// Everything in a report except the per-replica vectors.
    fn report_scalars(&self) -> SimReport {
        let safety_violations = self.engines.iter().filter(|e| e.safety_violated()).count();
        let equivocators_detected = self
            .engines
            .iter()
            .map(ReplicaEngine::equivocators_observed)
            .max()
            .unwrap_or(0);
        let txns_committed = self
            .engines
            .iter()
            .map(ReplicaEngine::txns_committed)
            .max()
            .unwrap_or(0);
        let (sync_requests, sync_blocks_fetched, recovered_replicas) = crate::sync_report_fields(
            self.engines
                .iter()
                .map(|e| (e.sync_stats(), e.committed_chain())),
        );
        let walk_steps = self
            .engines
            .iter()
            .map(ReplicaEngine::endorsement_walk_steps)
            .sum();
        let mut sig_stats = sft_crypto::SigStats::default();
        for engine in &self.engines {
            sig_stats.merge(engine.sig_stats());
        }
        let wal_fsyncs = self
            .wals
            .as_ref()
            .map_or(0, |wals| wals.iter().map(|w| w.fsyncs()).sum());
        if self.recorder.enabled() {
            let residents: Vec<_> = self.engines.iter().map(ReplicaEngine::resident).collect();
            let gauge = |pick: fn(&sft_core::ResidentState) -> u64| {
                residents.iter().map(pick).max().unwrap_or(0)
            };
            let rec = &self.recorder;
            rec.set(names::RESIDENT_BLOCKS, gauge(|r| r.blocks as u64));
            rec.set(names::RESIDENT_VOTES, gauge(|r| r.votes as u64));
            rec.set(names::RESIDENT_CERTS, gauge(|r| r.certs as u64));
            rec.set(names::DEDUP_ENTRIES, gauge(|r| r.dedup_entries as u64));
            let adopted = self.engines.iter().map(|e| e.sync_stats().orphans_adopted);
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
            recovered_replicas,
            walk_steps,
            sig_verifications: sig_stats.verifications,
            batch_verify_calls: sig_stats.batch_calls,
            wal_fsyncs,
            metrics: self.recorder.snapshot(),
        }
    }
}
