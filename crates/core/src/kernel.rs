//! The SFT chain kernel: §3's bookkeeping, written once.
//!
//! The paper's strengthening is a *layer*: strong-votes, endorsement
//! counting and the strong-commit log sit on top of any chain-based BFT
//! protocol. [`ChainKernel`] is that layer plus everything else a replica
//! does that is not a proposal or commit rule: the block store and its
//! orphan handling, vote tallies, the voter's marker bookkeeping, the
//! commit ledger and log, the mempool and client acks, block sync, the
//! write-ahead buffer and the retention sweep. A protocol holds one kernel
//! and supplies only its rules — see the example in the
//! [crate docs](crate#what-a-protocol-must-still-supply).

use std::collections::BTreeSet;

use sft_crypto::{HashValue, IdSet, KeyPair, KeyRegistry, SigStats};
use sft_obs::SharedRecorder;
use sft_types::{
    BlockRequest, ClientAck, ClientRequest, EndorseMode, Payload, ReplicaId, Round, SimDuration,
    SimTime, StrongCommitUpdate, StrongVote, TimeoutCertificate, Transaction,
};

use crate::qc::MemberLedger;
use crate::{
    AckTracker, Admission, Block, BlockResponse, BlockStore, BlockStoreError, CommitLedger,
    EndorsementTracker, EngineObs, EngineStep, Mempool, OutboundMsg, PayloadSource, ProtocolConfig,
    QuorumCertificate, Retention, Spilled, SyncManager, SyncStats, VoteOutcome, VoteTracker,
    VoterState, WalReader, WalRecord, WalSpan,
};

/// What taking in one block produced: this replica's vote, if the voting
/// rule fired for it (or for an orphan it released), and the commit-log
/// entries of commits that were only waiting for the gap it filled.
#[derive(Clone, Debug, Default)]
pub struct Intake {
    /// The strong-vote to send.
    pub vote: Option<StrongVote>,
    /// Commit-log entries produced, in occurrence order.
    pub updates: Vec<StrongCommitUpdate>,
}

/// The client transactions `block` carries.
fn carried(block: &Block) -> &[Transaction] {
    match block.payload() {
        Payload::Transactions(txns) => txns,
        Payload::Synthetic { .. } => &[],
    }
}

/// A replica's resident-state gauges (see [`ChainKernel::resident`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidentState {
    /// Blocks in the store, genesis included.
    pub blocks: usize,
    /// Votes held by the vote tracker.
    pub votes: usize,
    /// Quorum certificates held for block sync.
    pub certs: usize,
    /// Mempool dedup entries ([`Mempool::dedup_entries`]).
    pub dedup_entries: usize,
    /// Encoding bytes the store holds, genesis excluded
    /// ([`BlockStore::payload_bytes`]): a replica with a durable log holds
    /// only the blocks whose commit is not yet durable; one without holds
    /// every block's frame, committed blocks' spilled to included.
    pub payload_bytes: u64,
}

/// The protocol-agnostic state of one replica and every operation on it
/// that does not depend on how blocks are proposed or committed.
pub struct ChainKernel {
    id: ReplicaId,
    config: ProtocolConfig,
    key_pair: KeyPair,
    store: BlockStore,
    votes: VoteTracker,
    /// Verified strong-votes by block: what certificates carried or (at a
    /// leader) the tracker checked — the intake of [`admit_qc`](Self::admit_qc).
    members: MemberLedger,
    /// Signature work spent checking certificate members.
    member_stats: SigStats,
    endorsements: EndorsementTracker,
    /// The last vote this replica cast and the endorsement info it
    /// carried: the vote-once rule and the §3.2 / §3.4 marker maintenance.
    voter: VoterState,
    ledger: CommitLedger,
    commit_log: Vec<StrongCommitUpdate>,
    /// Transactions carried by the committed chain, counted at commit.
    txns_committed: u64,
    /// Where a leader gets its payloads; `None` means the protocol's
    /// callers supply them (and a self-proposing protocol stays quiet).
    payload_source: Option<PayloadSource>,
    /// Client transactions awaiting inclusion (drained by the mempool
    /// payload source; pruned when other leaders' blocks carry them).
    mempool: Mempool,
    /// Block-sync state: certified-but-unknown targets, in-flight fetches,
    /// and the orphan pool (§ "Block sync" in the README).
    sync: SyncManager,
    /// Blocks a commit rule declared committed while their chain was still
    /// incomplete locally; retried whenever blocks arrive out of order.
    deferred_commits: Vec<HashValue>,
    /// Durable events produced since the last [`drain_wal`](Self::drain_wal):
    /// the records a crash-safe harness persists before sending this
    /// replica's messages.
    wal: Vec<WalRecord>,
    /// Certificates already written to the WAL buffer, by (round, digest):
    /// the log wants each exactly once however often it is re-delivered.
    logged_qcs: BTreeSet<(Round, HashValue)>,
    /// How far behind the committed tip state is kept (see [`Retention`]).
    retention: Retention,
    /// A reader over this replica's durable log, when it has one: what
    /// blocks spilled to the log are served back from
    /// ([`spill`](Self::spill)). Without one, a committed block spills to
    /// the frame it arrived in as it commits.
    log: Option<WalReader>,
    /// Client submissions awaiting their strength-graded commit acks.
    acks: AckTracker,
    obs: EngineObs,
}

impl ChainKernel {
    /// The kernel of replica `id` in the system `config` describes.
    ///
    /// # Panics
    ///
    /// Panics if the registry holds no key for `id` or fewer than
    /// `config.n()` keys.
    pub fn new(id: u16, config: ProtocolConfig, registry: KeyRegistry, mode: EndorseMode) -> Self {
        assert!(
            registry.len() >= config.n(),
            "registry smaller than the replica set"
        );
        let key_pair = registry
            .key_pair(u64::from(id))
            .expect("key for this replica");
        Self {
            id: ReplicaId::new(id),
            config,
            key_pair,
            store: BlockStore::new(),
            votes: VoteTracker::new(config, registry),
            members: MemberLedger::default(),
            member_stats: SigStats::default(),
            endorsements: EndorsementTracker::new(config),
            voter: VoterState::new(mode),
            ledger: CommitLedger::new(),
            commit_log: Vec::new(),
            txns_committed: 0,
            payload_source: None,
            mempool: Mempool::new(),
            sync: SyncManager::new(config, ReplicaId::new(id)),
            deferred_commits: Vec::new(),
            wal: Vec::new(),
            logged_qcs: BTreeSet::new(),
            retention: Retention::default(),
            log: None,
            acks: AckTracker::new(),
            obs: EngineObs::new(),
        }
    }

    // ---- setup ----

    /// Replaces the retention horizon ([`RETENTION_ROUNDS`](crate::RETENTION_ROUNDS)
    /// by default) with `rounds` behind the committed tip. Tests shrink it
    /// to exercise pruning in short runs; set it before the first message.
    pub fn set_retention(&mut self, rounds: u64) {
        self.retention = Retention::new(rounds);
    }

    /// Configures where [`next_payload`](Self::next_payload) gets payloads
    /// (a synthetic descriptor or this replica's mempool).
    pub fn set_payload_source(&mut self, source: PayloadSource) {
        self.payload_source = Some(source);
    }

    /// Sets how long a block-sync fetch waits for its response before
    /// another peer is asked.
    pub fn set_sync_retry(&mut self, retry_after: SimDuration) {
        self.sync.set_retry_after(retry_after);
    }

    /// Replaces the mempool's admission caps (count and encoded bytes);
    /// submissions beyond either answer [`Admission::Busy`] until drains
    /// make room.
    pub fn set_mempool_caps(&mut self, max_pending: usize, max_pending_bytes: u64) {
        self.mempool.set_caps(max_pending, max_pending_bytes);
    }

    /// Installs a reader over this replica's durable log. From then on a
    /// committed block whose `BlockCommitted` record is durable may leave
    /// memory ([`spill`](Self::spill)); block sync reads it back from here.
    /// Blocks committed before it stay as they are: spilled to their held
    /// frames, or whole if they hold none (blocks replayed from the log).
    pub fn set_log_reader(&mut self, log: WalReader) {
        self.log = Some(log);
    }

    /// Installs the recorder that consensus milestones, client acks and
    /// block-sync timing flow into.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.sync.set_recorder(recorder.clone());
        self.acks.set_recorder(recorder.clone());
        self.obs.set_recorder(recorder);
    }

    // ---- identity ----

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The protocol configuration.
    pub fn config(&self) -> ProtocolConfig {
        self.config
    }

    /// The key this replica signs proposals, votes and timeouts with.
    pub fn key_pair(&self) -> &KeyPair {
        &self.key_pair
    }

    /// Every replica's public key.
    pub fn registry(&self) -> &KeyRegistry {
        self.votes.registry()
    }

    // ---- admission and proposing ----

    /// Submits a transaction to the mempool, reporting the explicit
    /// [`Admission`] verdict (`Duplicate` for ids already pending or
    /// on-chain, `Busy` past the admission caps).
    pub fn submit(&mut self, txn: Transaction) -> Admission {
        self.mempool.try_submit(txn)
    }

    /// Submits a client request at `now`: `None` when admitted (the
    /// [`ClientAck::Committed`] follows through
    /// [`drain_acks`](Self::drain_acks) once the block is `ack_at`-strong),
    /// or the immediate `Busy` / `Duplicate` rejection.
    pub fn submit_request(&mut self, req: &ClientRequest, now: SimTime) -> Option<ClientAck> {
        let txn_id = req.txn_id();
        let verdict = self.submit(req.txn.clone());
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

    /// Takes the strength-graded commit acks emitted since the last drain.
    pub fn drain_acks(&mut self) -> Vec<ClientAck> {
        self.acks.drain()
    }

    /// True if a payload source is configured.
    pub fn sources_payloads(&self) -> bool {
        self.payload_source.is_some()
    }

    /// Drains the payload of a round-`round` block from the configured
    /// source; `None` without one. A drained batch is marked seen, so call
    /// this only when the proposal is certain to go out.
    pub fn next_payload(&mut self, round: Round) -> Option<Payload> {
        let source = self.payload_source?;
        Some(source.next_payload(&mut self.mempool, round))
    }

    /// Builds this replica's round-`round` block on `parent`; `None` if
    /// `parent` is not in the store. The block enters the store as every
    /// block does, through [`accept_block`](Self::accept_block) — for a
    /// leader, when its proposal loops back, by then holding the buffer
    /// the proposal was encoded into.
    pub fn extend(&self, parent: HashValue, round: Round, payload: Payload) -> Option<Block> {
        Some(Block::new(self.store.get(parent)?, round, self.id, payload))
    }

    // ---- block intake and the voter half of §3.2 / §3.4 ----

    /// True if `round` lies below the retention floor: whatever arrives
    /// for it is older than anything this replica still keeps.
    pub fn is_stale(&self, round: Round) -> bool {
        round < self.retention.floor()
    }

    /// Whether a proposed `block` may enter at all: inside the retention
    /// horizon and proposed by its round's leader. (The proposal's
    /// signature is the protocol's to check — it owns the message type.)
    pub fn admits(&self, block: &Block) -> bool {
        !self.is_stale(block.round()) && block.proposer() == self.config.leader(block.round())
    }

    /// Takes in a verified proposal's block. The block is recorded whatever
    /// the voting decision — descendants and certificates may arrive later.
    /// An orphan (parent not yet delivered: its proposal is in flight on
    /// another connection, or this replica is catching up) is pooled with
    /// the sync manager, which fetches the parent. A block that attaches
    /// may be the parent pooled orphans were waiting for: they are stored
    /// in order and treated as if they had arrived in order, and commits
    /// that were waiting on the gap land now.
    ///
    /// `rule` is the protocol's voting rule. It is called once per block
    /// that entered the store, parents first, with whether a vote is still
    /// possible — the block arrived as a proposal (fetched segments carry
    /// no leader signature) and this replica has not voted in or after its
    /// round — and answers whether to vote for it.
    pub fn accept_block(
        &mut self,
        block: &Block,
        mut rule: impl FnMut(&BlockStore, &Block, bool) -> bool,
    ) -> Intake {
        let mut intake = Intake::default();
        let Some(released) = self.store_or_pool(block, true) else {
            return intake;
        };
        intake.vote = self.adopt(block.id(), true, &mut rule);
        for (id, from_proposal) in released {
            let vote = self.adopt(id, from_proposal, &mut rule);
            intake.vote = intake.vote.take().or(vote);
        }
        intake.updates = self.settle_deferred();
        intake
    }

    /// Stores `block` and every pooled orphan that was waiting for it,
    /// returning those (parents first, each with whether it had arrived as
    /// a proposal); or, if its own parent is unknown, pools it with the sync
    /// manager, which fetches the parent, and returns `None`.
    fn store_or_pool(
        &mut self,
        block: &Block,
        from_proposal: bool,
    ) -> Option<Vec<(HashValue, bool)>> {
        match self.store.insert(block.clone()) {
            Ok(_) => Some(self.sync.note_stored(block.id(), &mut self.store)),
            Err(BlockStoreError::UnknownParent) => {
                self.sync
                    .note_orphan_block(block.clone(), from_proposal, &self.store);
                None
            }
            Err(_) => None,
        }
    }

    /// What every block owes the mempool once it is in the store: its
    /// transactions stop being offered.
    pub fn note_included(&mut self, id: HashValue) {
        if let Some(block) = self.store.get(id) {
            if let Payload::Transactions(txns) = block.payload() {
                self.mempool.mark_included(txns.iter(), block.round());
            }
        }
    }

    fn adopt(
        &mut self,
        id: HashValue,
        from_proposal: bool,
        rule: &mut impl FnMut(&BlockStore, &Block, bool) -> bool,
    ) -> Option<StrongVote> {
        self.note_included(id);
        let block = self.store.get(id)?;
        let may_vote = from_proposal && block.round() > self.voter.last_voted_round();
        if !rule(&self.store, block, may_vote) || !may_vote {
            return None;
        }
        let endorse = self.voter.endorse_info(&self.store, block);
        let vote = StrongVote::new(block.vote_data(), endorse, &self.key_pair);
        self.voter.record(&vote);
        // Write-ahead: the harness persists this record before the vote is
        // routed, so a restart can never contradict it.
        self.wal.push(WalRecord::VoteSent(vote.clone()));
        Some(vote)
    }

    // ---- vote intake and certificates ----

    /// Counts a broadcast strong-vote (this replica's own included) toward
    /// certification and credits its endorsements — the intake of a
    /// protocol whose every replica hears every vote (Streamlet). Returns
    /// the certificate if this vote completed one, and the blocks whose
    /// endorser sets grew — hand those to [`grade`](Self::grade) once the
    /// protocol has run its commit rule on the certificate, so a block this
    /// vote commits reports its commit before any earlier block reports a
    /// strength increase.
    ///
    /// Endorsements are credited only from verified votes: the batch the
    /// quorum check validated, and each straggler checked after it
    /// (optimistically counted votes carry no endorsement weight until
    /// their signatures clear).
    pub fn add_vote(&mut self, vote: &StrongVote) -> (Option<QuorumCertificate>, Vec<HashValue>) {
        let outcome = self.votes.add_vote(vote);
        let mut grown = Vec::new();
        for verified in self.votes.take_newly_verified() {
            grown.extend(self.endorsements.record_vote(&verified, &self.store));
        }
        let certified = match outcome {
            VoteOutcome::Certified(qc) => Some(qc),
            _ => None,
        };
        (certified, grown)
    }

    /// The protocol entered `round` (Streamlet's epoch): votes up to
    /// [`RETENTION_ROUNDS`](crate::RETENTION_ROUNDS) past it are counted,
    /// later ones refused unverified — however far ahead a flood of
    /// future-round votes reaches, the tracker does not grow with it.
    pub fn enter_round(&mut self, round: Round) {
        self.votes.enter_round(round);
    }

    /// Counts a strong-vote sent to this replica as the next leader, toward
    /// the certificate it will form ([`form_qc`](Self::form_qc)). Nothing
    /// is credited here: endorsements come only from certificates, through
    /// [`admit_qc`](Self::admit_qc). Returns the voted block's id if this
    /// vote completed its quorum.
    pub fn collect_vote(&mut self, vote: &StrongVote) -> Option<HashValue> {
        let outcome = self.votes.add_vote(vote);
        for verified in self.votes.take_newly_verified() {
            self.members.insert(*verified.data(), verified.member());
        }
        match outcome {
            VoteOutcome::Certified(qc) => Some(qc.block_id()),
            _ => None,
        }
    }

    /// A certificate for `block_id` carrying every verified vote this
    /// replica holds for it — at a leader, all it collected so far. `None`
    /// if it holds none.
    pub fn form_qc(&self, block_id: HashValue) -> Option<QuorumCertificate> {
        self.members.certificate(self.config.n(), block_id)
    }

    /// The one intake of certified strong-votes: a certificate this replica
    /// formed, received (in a proposal, a forward or a timeout message),
    /// fetched with a block-sync response, or replayed from its WAL. The
    /// genesis certificate is accepted as is; any other must carry at
    /// least `2f + 1` distinct members, and those not already held are
    /// checked in one batch. Members of a known block are then credited to
    /// the endorsement tracker, each once; a member of a block still being
    /// fetched is credited when the certificate is admitted again after the
    /// block arrives.
    ///
    /// Returns `None` (and credits nothing) if the certificate is rejected,
    /// else the blocks whose endorser sets grew, for [`grade`](Self::grade).
    pub fn admit_qc(&mut self, qc: &QuorumCertificate) -> Option<Vec<HashValue>> {
        if qc.round() == Round::ZERO {
            return qc.is_genesis().then(Vec::new);
        }
        let registry = self.votes.registry();
        if !self
            .members
            .admit(qc, &self.config, registry, &mut self.member_stats)
        {
            return None;
        }
        let mut grown = Vec::new();
        if self.store.contains(qc.block_id()) {
            for vote in self.members.take_uncredited(qc.block_id()) {
                grown.extend(self.endorsements.record_vote(&vote, &self.store));
            }
        }
        Some(grown)
    }

    /// Reports, once each, the strength increases of already-committed
    /// blocks among `grown` (possibly far in the past).
    pub fn grade(&mut self, grown: Vec<HashValue>) -> Vec<StrongCommitUpdate> {
        let mut updates = Vec::new();
        for id in grown {
            if self.ledger.contains(id) {
                updates.extend(self.endorsements.take_level_update(id, &self.store));
            }
        }
        self.commit_log.extend(updates.iter().copied());
        updates
    }

    /// Records a well-formed certificate: it can be served to lagging
    /// peers, its block becomes a fetch target if unknown, and it is
    /// buffered for the WAL — exactly once however often it is seen.
    pub fn log_qc(&mut self, qc: &QuorumCertificate) {
        self.sync.note_certificate(qc, &self.store);
        if qc.round() > Round::ZERO && self.logged_qcs.insert((qc.round(), qc.digest())) {
            self.wal.push(WalRecord::QcFormed(qc.clone()));
        }
    }

    /// Buffers a timeout certificate this replica adopted for the WAL
    /// (round-based protocols only: replay re-applies the round jump).
    pub fn log_tc(&mut self, tc: &TimeoutCertificate) {
        self.wal.push(WalRecord::TcFormed(tc.clone()));
    }

    /// The certificate recorded for `block_id`, if any.
    pub fn certificate_for(&self, block_id: HashValue) -> Option<&QuorumCertificate> {
        self.sync.certificate_for(block_id)
    }

    /// Asks block sync for `id` (of `round`), which a peer treated as
    /// certified: the block if it is unknown, else just its certificate.
    pub fn want(&mut self, id: HashValue, round: Round) {
        self.sync.note_want(id, round);
    }

    // ---- commits ----

    /// Finalizes the chain through `target`, which the protocol's commit
    /// rule just declared committed. If the local chain has holes (the
    /// target or an ancestor is still being fetched) the target is
    /// remembered and finalizes once the gap fills — the rule that fired
    /// may never fire for it again.
    pub fn commit_through(&mut self, target: HashValue) -> Vec<StrongCommitUpdate> {
        let committed = self.ledger.finalize_through(&self.store, target);
        if committed.is_empty()
            && !self.ledger.contains(target)
            && !self.deferred_commits.contains(&target)
        {
            self.deferred_commits.push(target);
        }
        self.commit_blocks(committed)
    }

    /// Re-attempts the commits declared while their chain still had holes;
    /// called whenever blocks arrived out of order.
    pub fn settle_deferred(&mut self) -> Vec<StrongCommitUpdate> {
        if self.deferred_commits.is_empty() {
            return Vec::new();
        }
        let committed = self
            .ledger
            .finalize_deferred(&self.store, &mut self.deferred_commits);
        self.commit_blocks(committed)
    }

    /// Commit-time bookkeeping for blocks the ledger just finalized: the
    /// durable record, the transaction counter, the mempool's dedup state,
    /// the client acks' scan, and the first strength grade. Commits are
    /// what moves the retention horizon, so the caller follows up with
    /// [`prune`](Self::prune).
    fn commit_blocks(&mut self, committed: Vec<HashValue>) -> Vec<StrongCommitUpdate> {
        let mut updates = Vec::new();
        for id in committed {
            if let Some(block) = self.store.get(id) {
                // Every reader of a committed payload runs here, before
                // the block's record exists: once the record is durable
                // the payload may leave memory.
                self.txns_committed += block.payload().txn_count() as u64;
                if let Payload::Transactions(txns) = block.payload() {
                    self.mempool.mark_committed(txns.iter());
                }
                self.acks.scan_committed(block, &self.store);
                self.wal.push(WalRecord::BlockCommitted(block.clone()));
                // Without a log to read it back from, the frame the block
                // arrived in is where its bytes stay.
                if self.log.is_none() {
                    self.store.spill_to_held(id);
                }
            }
            updates.extend(self.endorsements.take_level_update(id, &self.store));
        }
        self.commit_log.extend(updates.iter().copied());
        updates
    }

    /// The one place state ages out: once the committed tip has moved far
    /// enough, everything keyed by a round or block below the new floor is
    /// dropped, and later arrivals for those rounds are stale. What
    /// survives is the committed chain's ids, the commit log, and the
    /// counters. Returns the new floor when it moved, so the protocol can
    /// sweep what it keeps itself; call it after everything that can
    /// commit. At the same pace, from the first round on, the mempool lets
    /// go of the blocks that can no longer commit
    /// ([`Mempool::release_dead`]).
    pub fn prune(&mut self) -> Option<Round> {
        let tip = self.ledger.tip().and_then(|id| self.store.get(id))?.round();
        if self.retention.dead_sweep_due(tip) {
            self.release_dead(tip);
        }
        let floor = self.retention.advance(tip)?;
        let pruned = self.store.prune_below(floor);
        self.ledger.forget(&pruned);
        self.endorsements.forget(&pruned);
        self.votes.prune_below(floor);
        self.members.prune_below(floor);
        self.sync.prune_below(floor);
        self.voter.prune_below(floor);
        self.logged_qcs = self.logged_qcs.split_off(&(floor, HashValue::zero()));
        self.mempool.prune_below(floor);
        Some(floor)
    }

    /// Lets the mempool go of every stored block that can no longer commit:
    /// one off the committed chain whose round the committed tip has
    /// reached. Their transactions' ids leave the in-flight set, unless a
    /// block that still can commit carries them too, and those this
    /// replica owes a client ack go back to pending, to be proposed again
    /// ([`Mempool::release_dead`]). Transactions no client waits for —
    /// a workload fed straight into the mempool — are only forgotten.
    fn release_dead(&mut self, tip: Round) {
        let mut dead: Vec<&Block> = self
            .store
            .iter()
            .filter(|b| b.round() <= tip && !b.is_genesis() && !self.ledger.contains(b.id()))
            .collect();
        if dead.is_empty() {
            return;
        }
        dead.sort_by_key(|b| (b.round(), b.id()));
        let live: IdSet = self
            .store
            .iter()
            .filter(|b| b.round() > tip)
            .flat_map(carried)
            .map(Transaction::id)
            .collect();
        let acks = &self.acks;
        for block in dead {
            let txns = carried(block).iter();
            let released = txns.filter(|txn| !live.contains(&txn.id()));
            self.mempool.release_dead(released, |id| acks.owes(id));
        }
    }

    // ---- block sync ----

    /// Block-sync fetches now due (new targets and expired retries), to be
    /// sent point-to-point to the named peer.
    pub fn take_sync_requests(&mut self, now: SimTime) -> Vec<(ReplicaId, BlockRequest)> {
        self.sync.take_requests(now)
    }

    /// Serves a peer's block-sync request from the local store, if this
    /// replica holds both the block and a certificate for it. Spilled
    /// blocks are read back from the log and checked against their ids; a
    /// failed read declines the request.
    pub fn serve_sync(&mut self, request: &BlockRequest) -> Option<BlockResponse> {
        self.sync.serve(request, &self.store, self.log.as_ref())
    }

    /// Verifies a block-sync response against the certificate chain and
    /// admits what attaches. Returns the blocks whose certificates can now
    /// run their course, oldest first: those admitted, and the response's
    /// target if it was already held and only its certificate was missing.
    /// Recovered blocks are stored, never voted on — a replica that needed
    /// block sync is behind the round they were proposed in — so the
    /// caller owes each only [`note_included`](Self::note_included), its
    /// own certificate processing, and one
    /// [`settle_deferred`](Self::settle_deferred) at the end.
    pub fn admit_sync_response(
        &mut self,
        response: &BlockResponse,
        now: SimTime,
    ) -> Vec<HashValue> {
        let mut touched = self.sync.on_response_timed(response, &mut self.store, now);
        let target = response.target();
        if !touched.contains(&target) && self.store.contains(target) {
            touched.push(target);
        }
        touched
    }

    // ---- durability ----

    /// Takes every durable event produced since the last drain, in
    /// occurrence order. A crash-safe harness appends these to the WAL
    /// *before* routing the step's messages. (Replay uses it to discard
    /// the records it re-derives: they are already in the log.)
    pub fn drain_wal(&mut self) -> Vec<WalRecord> {
        std::mem::take(&mut self.wal)
    }

    /// Tells the kernel that block `id`'s `BlockCommitted` record is
    /// durable at `span` of its log: the block keeps its header in the
    /// store and its bytes leave memory. Every reader of a committed
    /// payload ran when the block committed, before its record existed;
    /// only block sync reads it later, and reads it back from the log. A
    /// no-op without a log reader, or for a block not committed here (any
    /// more).
    pub fn spill(&mut self, id: HashValue, span: WalSpan) {
        if self.log.is_some() && self.ledger.contains(id) {
            self.store.spill(id, Spilled::Log(span));
        }
    }

    /// Re-applies a recovered `VoteSent` record: re-arms the vote-once rule
    /// and the marker bookkeeping. The record carries the endorsement info
    /// the vote did, which is all [`VoterState`] needs — the replica can
    /// never equivocate against its pre-crash self.
    pub fn replay_vote(&mut self, vote: &StrongVote) {
        self.voter.record(vote);
    }

    /// Re-applies a recovered `BlockCommitted` record: restores the block
    /// and the committed prefix (records are chronological, so committed
    /// blocks replay parent-first), and re-seeds the dedup state so a
    /// client re-submitting across the crash still gets `Duplicate`.
    /// Endorsement tallies are *not* persisted: strength grades resume
    /// from live votes only, which can only under-report.
    pub fn replay_block(&mut self, block: &Block) {
        self.store_or_pool(block, false);
        if let Payload::Transactions(txns) = block.payload() {
            self.mempool.mark_committed(txns.iter());
        }
        let committed = self.ledger.finalize_through(&self.store, block.id());
        self.commit_blocks(committed);
        self.wal.clear();
    }

    // ---- the tail of every engine step ----

    /// The consensus-milestone recorder (proposal seen, vote cast).
    pub fn obs(&mut self) -> &mut EngineObs {
        &mut self.obs
    }

    /// The installed metrics recorder, for timing phases around the kernel.
    pub fn recorder(&self) -> &SharedRecorder {
        self.obs.recorder()
    }

    /// Seals one engine step at `now`: moves the durable records buffered
    /// since the last step into it, records the step's milestones, and
    /// lets `updates` fire the client acks they satisfy.
    pub fn finish_step(
        &mut self,
        outbound: Vec<OutboundMsg>,
        updates: Vec<StrongCommitUpdate>,
        now: SimTime,
    ) -> EngineStep {
        let persist = self.drain_wal();
        self.obs.wal_records(&persist, now);
        self.obs.updates(&updates, now);
        for update in &updates {
            self.acks.observe(update, &self.store, now);
        }
        EngineStep {
            outbound,
            updates,
            persist,
        }
    }

    // ---- reporting ----

    /// The block store: every delivered block inside the retention horizon.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The transaction pool.
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// The committed chain, oldest block first (genesis excluded).
    pub fn committed_chain(&self) -> &[HashValue] {
        self.ledger.chain()
    }

    /// The strong-commit log: one [`StrongCommitUpdate`] per commit and per
    /// subsequent strength increase, in the order they happened (§5).
    pub fn commit_log(&self) -> &[StrongCommitUpdate] {
        &self.commit_log
    }

    /// The highest strength level recorded for a committed block, or `None`
    /// if the block is not committed (or has aged out of the retention
    /// horizon).
    pub fn commit_level(&self, block_id: HashValue) -> Option<u64> {
        if !self.ledger.contains(block_id) {
            return None;
        }
        self.endorsements.strength(block_id)
    }

    /// True if this replica ever observed two conflicting committed chains
    /// — impossible while the fault assumption of the committed levels
    /// holds, and the signal the strengthened rule exists to prevent.
    pub fn safety_violated(&self) -> bool {
        self.ledger.safety_violated()
    }

    /// Replicas caught equivocating by the vote tracker.
    pub fn equivocators(&self) -> &[ReplicaId] {
        self.votes.equivocators()
    }

    /// Transactions carried by the committed chain.
    pub fn txns_committed(&self) -> u64 {
        self.txns_committed
    }

    /// What this replica currently holds in memory — the numbers a
    /// retention horizon keeps independent of how long it has run.
    pub fn resident(&self) -> ResidentState {
        ResidentState {
            blocks: self.store.len(),
            votes: self.votes.resident_votes() + self.members.len(),
            certs: self.sync.resident_certs(),
            dedup_entries: self.mempool.dedup_entries(),
            payload_bytes: self.store.payload_bytes(),
        }
    }

    /// Block-sync counters (requests sent, blocks recovered, …).
    pub fn sync_stats(&self) -> SyncStats {
        self.sync.stats()
    }

    /// True while this replica is still chasing missing blocks.
    pub fn is_syncing(&self) -> bool {
        self.sync.is_syncing()
    }

    /// Total endorsement-frontier walk steps taken — the amortization
    /// counter `RESULTS.md` pins for its run-counter rows.
    pub fn walk_steps(&self) -> u64 {
        self.endorsements.walk_steps()
    }

    /// Signature-verification counters from vote aggregation and
    /// certificate intake — the evidence behind the verify-on-quorum
    /// scaling claim.
    pub fn sig_stats(&self) -> SigStats {
        let mut stats = self.votes.sig_stats();
        stats.merge(self.member_stats);
        stats
    }

    /// Consumes the kernel into its committed chain and commit log.
    pub fn into_commit_record(self) -> (Vec<HashValue>, Vec<StrongCommitUpdate>) {
        (self.ledger.into_chain(), self.commit_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_types::{BatchConfig, EndorseInfo};

    const N: usize = 4;

    fn kernel(mode: EndorseMode) -> ChainKernel {
        let config = ProtocolConfig::for_replicas(N);
        ChainKernel::new(0, config, KeyRegistry::deterministic(N), mode)
    }

    /// The round-`round` leader's block on `parent`, carrying `txns`
    /// transactions of a client named after the round.
    fn block(parent: &Block, round: u64, txns: u64) -> Block {
        let txns = (0..txns)
            .map(|seq| Transaction::new(round, seq, vec![7; 8]))
            .collect();
        let round = Round::new(round);
        let leader = ProtocolConfig::for_replicas(N).leader(round);
        Block::new(parent, round, leader, Payload::Transactions(txns))
    }

    /// Replica `signer`'s vote for `block`, endorsing its whole chain.
    fn vote(signer: u64, block: &Block) -> StrongVote {
        let key = KeyRegistry::deterministic(N).key_pair(signer).unwrap();
        StrongVote::new(block.vote_data(), EndorseInfo::Marker(Round::ZERO), &key)
    }

    /// Delivers the votes of replicas 1..=3 for `block`: a bare quorum.
    fn certify(kernel: &mut ChainKernel, block: &Block) -> QuorumCertificate {
        (1..=3)
            .find_map(|signer| kernel.add_vote(&vote(signer, block)).0)
            .expect("three votes certify at n = 4")
    }

    fn levels(updates: &[StrongCommitUpdate]) -> Vec<(HashValue, u64)> {
        updates.iter().map(|u| (u.block_id(), u.level())).collect()
    }

    #[test]
    fn commit_blocks_counts_transactions_marks_them_committed_logs_each_block_and_grades_it() {
        let mut k = kernel(EndorseMode::Marker);
        let b1 = block(&Block::genesis(), 1, 3);
        let b2 = block(&b1, 2, 2);
        for b in [&b1, &b2] {
            k.accept_block(b, |_, _, _| false);
        }
        // Three votes for b2 endorse b2 and its ancestor b1: strength f.
        certify(&mut k, &b2);

        let updates = k.commit_through(b2.id());
        assert_eq!(k.committed_chain(), [b1.id(), b2.id()]);
        assert_eq!(k.txns_committed(), 5);
        assert_eq!(
            k.drain_wal(),
            [
                WalRecord::BlockCommitted(b1.clone()),
                WalRecord::BlockCommitted(b2.clone())
            ]
        );
        assert_eq!(levels(&updates), [(b1.id(), 1), (b2.id(), 1)]);
        assert_eq!(k.commit_log(), updates);
        // Committed, not merely included: the (client, seq) pair is taken
        // whatever payload comes with it.
        assert_eq!(
            k.submit(Transaction::new(1, 0, vec![9; 3])),
            Admission::Duplicate
        );

        // The fourth endorser raises both blocks, each reported once.
        let (_, grown) = k.add_vote(&vote(0, &b2));
        let raised = k.grade(grown);
        assert_eq!(levels(&raised), [(b2.id(), 2), (b1.id(), 2)]);
        assert_eq!(k.commit_log().len(), 4);
        assert_eq!(k.commit_level(b1.id()), Some(2));
    }

    #[test]
    fn a_vote_is_in_the_wal_buffer_before_it_is_returned_and_a_round_gets_one() {
        let mut k = kernel(EndorseMode::Marker);
        let b1 = block(&Block::genesis(), 1, 0);
        let cast = k
            .accept_block(&b1, |_, _, _| true)
            .vote
            .expect("rule said yes");
        assert_eq!(k.wal, [WalRecord::VoteSent(cast.clone())]);

        // A twin for the same round, and the same block again: no vote.
        let twin = block(&Block::genesis(), 1, 1);
        assert!(k.accept_block(&twin, |_, _, _| true).vote.is_none());
        assert!(k.accept_block(&b1, |_, _, _| true).vote.is_none());
        // A rule that says no is obeyed; the next round votes again.
        let b2 = block(&b1, 2, 0);
        assert!(k.accept_block(&b2, |_, _, _| false).vote.is_none());
        let next = k.accept_block(&b2, |_, _, _| true).vote.expect("new round");
        assert_eq!(
            k.drain_wal(),
            [WalRecord::VoteSent(cast), WalRecord::VoteSent(next)]
        );
    }

    #[test]
    fn prune_sweeps_every_round_keyed_structure_in_one_call_and_reports_the_floor() {
        const ROUNDS: u64 = 20;
        const HORIZON: u64 = 8;
        const TXNS: u64 = 2;
        // Interval mode: the voter keeps its votes inside the horizon.
        let mut k = kernel(EndorseMode::Interval);
        k.set_retention(HORIZON);
        let mut chain = vec![Block::genesis()];
        for round in 1..=ROUNDS {
            let b = block(chain.last().unwrap(), round, TXNS);
            let own = k.accept_block(&b, |_, _, _| true).vote.expect("votes");
            k.add_vote(&own);
            let qc = certify(&mut k, &b);
            k.log_qc(&qc);
            k.commit_through(b.parent_id());
            chain.push(b);
        }
        let before = k.resident();
        assert_eq!(before.blocks, ROUNDS as usize + 1, "nothing swept yet");

        let floor = Round::new(ROUNDS - 1 - HORIZON);
        assert_eq!(k.prune(), Some(floor), "committed tip minus the horizon");
        assert_eq!(k.prune(), None, "nothing more until the tip moves");

        let (old, kept) = (&chain[5], &chain[floor.as_u64() as usize]);
        // Store and ledger index: the block is gone, its id stays on the
        // committed chain.
        assert!(!k.store().contains(old.id()) && k.store().contains(kept.id()));
        assert!(!k.ledger.contains(old.id()) && k.ledger.contains(kept.id()));
        assert_eq!(k.committed_chain().len(), ROUNDS as usize - 1);
        // Endorser and vote tallies (a quorum each: own vote plus two).
        assert_eq!(k.endorsements.endorsers(old.id()), 0);
        assert_eq!(k.endorsements.endorsers(kept.id()), 3);
        assert_eq!(k.votes.votes_for(old.id()), 0);
        assert_eq!(k.votes.votes_for(kept.id()), 3);
        // Sync state and the logged-certificate set.
        assert!(k.certificate_for(old.id()).is_none());
        assert!(k.certificate_for(kept.id()).is_some());
        assert_eq!(k.logged_qcs.first().map(|(round, _)| *round), Some(floor));
        // The mempool: committed transactions left the in-flight map as
        // they committed, so the sweep finds only the uncommitted tip's,
        // beside one watermark per client (one client a round).
        assert_eq!(k.resident().dedup_entries, before.dedup_entries);
        assert_eq!(
            before.dedup_entries,
            (ROUNDS - 1 + TXNS) as usize,
            "{} committed clients, the tip's transactions",
            ROUNDS - 1
        );
        // The voter: a branch switch recomputes its intervals from the
        // votes it kept and claims nothing below the floor.
        let fork = block(&chain[ROUNDS as usize - 1], ROUNDS + 1, 0);
        let switched = k.accept_block(&fork, |_, _, _| true).vote.expect("votes");
        assert_eq!(switched.endorse().min_endorsed_round(), Some(floor));
    }

    #[test]
    fn replay_rebuilds_the_committed_prefix_the_dedup_state_and_the_vote_once_rule() {
        let mut live = kernel(EndorseMode::Marker);
        let mut log = Vec::new();
        let mut chain = vec![Block::genesis()];
        for round in 1..=4 {
            let b = block(chain.last().unwrap(), round, 2);
            live.accept_block(&b, |_, _, _| true);
            certify(&mut live, &b);
            live.commit_through(b.id());
            log.extend(live.drain_wal());
            chain.push(b);
        }

        let mut restored = kernel(EndorseMode::Marker);
        for record in &log {
            match record {
                WalRecord::VoteSent(vote) => restored.replay_vote(vote),
                WalRecord::BlockCommitted(block) => restored.replay_block(block),
                other => panic!("the kernel alone logged {other:?}"),
            }
        }
        assert!(restored.wal.is_empty(), "replay re-buffers nothing");
        assert_eq!(restored.committed_chain(), live.committed_chain());
        assert_eq!(restored.txns_committed(), live.txns_committed());
        assert_eq!(restored.resident().blocks, live.resident().blocks);
        // Tallies are not persisted (strength resumes from live votes), and
        // of the dedup state only what is for ever: one watermark a client.
        assert_eq!(restored.resident().votes, 0);
        assert_eq!(restored.resident().dedup_entries, 4);
        assert_eq!(
            restored.submit(Transaction::new(3, 1, vec![])),
            Admission::Duplicate
        );
        // No second vote in a round the pre-crash self voted in.
        let twin = block(&chain[3], 4, 0);
        assert!(restored.accept_block(&twin, |_, _, _| true).vote.is_none());
    }

    /// A client transaction that rides a block which loses its fork is not
    /// lost. Within one sweep after the committed tip passes the block, its
    /// ids leave the mempool's in-flight set. The gateway that owes the
    /// client an ack proposes the transaction again, and the ack follows
    /// the new block's commit. A transaction on the same block that was
    /// fed straight into the mempool is only forgotten, so a retry of it
    /// is admitted.
    #[test]
    fn a_client_transaction_on_a_losing_fork_is_proposed_again_and_acked() {
        const HORIZON: u64 = 64;
        let sweep = HORIZON / 8;
        let mut k = kernel(EndorseMode::Marker);
        k.set_retention(HORIZON);
        k.set_payload_source(PayloadSource::Mempool(BatchConfig::with_max_txns(8)));
        let owed = Transaction::new(100, 0, vec![1; 8]);
        let fed = Transaction::new(100, 1, vec![2; 8]);
        let request = |txn: &Transaction| ClientRequest::new(txn.clone(), 0);
        assert_eq!(k.submit_request(&request(&owed), SimTime::ZERO), None);
        assert_eq!(k.submit(fed.clone()), Admission::Admitted);

        let mut chain = vec![Block::genesis()];
        let grow = |k: &mut ChainKernel, chain: &mut Vec<Block>, round: u64| {
            let b = block(chain.last().unwrap(), round, 1);
            k.accept_block(&b, |_, _, _| false);
            certify(k, &b);
            k.commit_through(b.id());
            k.prune();
            chain.push(b);
        };
        for round in 1..=3 {
            grow(&mut k, &mut chain, round);
        }
        // Replica 0 leads round 4 and proposes both; the chain goes on
        // from round 3 without its block.
        let payload = k.next_payload(Round::new(4)).expect("a payload source");
        assert_eq!(payload.txn_count(), 2);
        let fork = k.extend(chain[3].id(), Round::new(4), payload).unwrap();
        k.accept_block(&fork, |_, _, _| false);
        let retry = k.submit_request(&request(&fed), SimTime::ZERO);
        assert_eq!(retry, Some(ClientAck::Duplicate { txn_id: fed.id() }));

        for round in 5..=fork.round().as_u64() + sweep {
            grow(&mut k, &mut chain, round);
        }
        assert!(k.store().contains(fork.id()), "the horizon is far off");
        assert_eq!(k.mempool().len(), 1, "only the transaction owed an ack");
        assert_eq!(k.submit_request(&request(&fed), SimTime::ZERO), None);

        // Replica 0's next turn to lead: both ride the new block, commit,
        // and are acked.
        let tip = chain.last().unwrap();
        let payload = k.next_payload(Round::new(16)).unwrap();
        let again = k.extend(tip.id(), Round::new(16), payload).unwrap();
        assert_eq!(carried(&again), [owed.clone(), fed.clone()]);
        k.accept_block(&again, |_, _, _| false);
        certify(&mut k, &again);
        let updates = k.commit_through(again.id());
        k.finish_step(Vec::new(), updates, SimTime::from_millis(1));
        let acked: Vec<HashValue> = k
            .drain_acks()
            .iter()
            .map(|ack| match ack {
                ClientAck::Committed { txn_id, round, .. } => {
                    assert_eq!(*round, Round::new(16));
                    *txn_id
                }
                other => panic!("a commit ack: {other:?}"),
            })
            .collect();
        assert_eq!(acked, [owed.id(), fed.id()]);
    }

    /// The step Streamlet's proposal path lacked: a commit deferred on a
    /// gap used to wait for a *sync response* to fill it.
    #[test]
    fn a_deferred_commit_finalizes_when_the_missing_ancestor_arrives_as_a_proposal() {
        let mut k = kernel(EndorseMode::Marker);
        let b1 = block(&Block::genesis(), 1, 1);
        let b2 = block(&b1, 2, 1);
        let b3 = block(&b2, 3, 1);
        k.accept_block(&b1, |_, _, _| false);
        certify(&mut k, &b1);
        // b3 overtakes b2: pooled as an orphan, and the commit rule names
        // it while the chain below it still has a hole.
        assert!(k.accept_block(&b3, |_, _, _| true).vote.is_none());
        assert!(k.commit_through(b3.id()).is_empty());
        assert!(k.committed_chain().is_empty() && k.is_syncing());

        let intake = k.accept_block(&b2, |_, _, _| false);
        assert_eq!(k.committed_chain(), [b1.id(), b2.id(), b3.id()]);
        assert_eq!(levels(&intake.updates), [(b1.id(), 1)]);
        assert_eq!(k.txns_committed(), 3);
        assert!(!k.is_syncing());
    }
}
