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

use sft_crypto::{HashValue, KeyPair, KeyRegistry, SigStats};
use sft_obs::SharedRecorder;
use sft_types::{
    BlockRequest, ClientAck, ClientRequest, EndorseMode, Payload, ReplicaId, Round, SimDuration,
    SimTime, StrongCommitUpdate, StrongVote, TimeoutCertificate, Transaction, VerifyPolicy,
};

use crate::{
    AckTracker, Admission, Block, BlockResponse, BlockStore, BlockStoreError, CommitLedger,
    EndorsementTracker, EngineObs, EngineStep, Mempool, OutboundMsg, PayloadSource, ProtocolConfig,
    QuorumCertificate, ResidentState, Retention, SyncManager, SyncStats, VoteOutcome, VoteTracker,
    VoterState, WalRecord,
};

/// What taking in one block produced: this replica's vote, if the voting
/// rule fired for it (or for an orphan it released), and the commit-log
/// entries of commits that were only waiting for the gap it filled.
#[derive(Clone, Debug, Default)]
pub struct Intake {
    /// The strong-vote to broadcast.
    pub vote: Option<StrongVote>,
    /// Commit-log entries produced, in occurrence order.
    pub updates: Vec<StrongCommitUpdate>,
}

/// The protocol-agnostic state of one replica and every operation on it
/// that does not depend on how blocks are proposed or committed.
pub struct ChainKernel {
    id: ReplicaId,
    config: ProtocolConfig,
    key_pair: KeyPair,
    store: BlockStore,
    votes: VoteTracker,
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

    /// Switches vote aggregation to `policy` — verify every signature on
    /// arrival (the default) or defer to one batched check at quorum.
    /// Call right after construction: votes already counted are dropped.
    pub fn set_verify_policy(&mut self, policy: VerifyPolicy) {
        let registry = self.votes.registry().clone();
        self.votes = VoteTracker::new(self.config, registry).with_policy(policy);
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

    /// Builds this replica's round-`round` block on `parent` and stores it;
    /// `None` if `parent` is not in the store.
    pub fn extend(&mut self, parent: HashValue, round: Round, payload: Payload) -> Option<Block> {
        let block = Block::new(self.store.get(parent)?, round, self.id, payload);
        self.store
            .insert(block.clone())
            .expect("the parent was just read from the store");
        Some(block)
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
    /// certification and credits its endorsements. Returns the certificate
    /// if this vote completed one, and the blocks whose endorser sets grew —
    /// hand those to [`grade`](Self::grade) once the protocol has run its
    /// commit rule on the certificate, so a block this vote commits reports
    /// its commit before any earlier block reports a strength increase.
    ///
    /// Endorsements are credited only from verified votes: the vote just
    /// accepted under verify-on-arrival, and the whole batch the quorum
    /// check validated under verify-on-quorum (optimistically counted votes
    /// carry no endorsement weight until their signatures clear).
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

    /// The block with the most votes at `round`, if any vote for that
    /// round arrived.
    pub fn leading_block_at(&self, round: Round) -> Option<HashValue> {
        self.votes.leading_block_at(round)
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
    /// durable record, the transaction counter, and the first strength
    /// grade. Commits are what moves the retention horizon, so the caller
    /// follows up with [`prune`](Self::prune).
    fn commit_blocks(&mut self, committed: Vec<HashValue>) -> Vec<StrongCommitUpdate> {
        let mut updates = Vec::new();
        for id in committed {
            if let Some(block) = self.store.get(id) {
                self.txns_committed += block.payload().txn_count() as u64;
                if let Payload::Transactions(txns) = block.payload() {
                    self.mempool.mark_committed(txns.iter());
                }
                self.wal.push(WalRecord::BlockCommitted(block.clone()));
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
    /// commit.
    pub fn prune(&mut self) -> Option<Round> {
        let tip = self.ledger.tip().and_then(|id| self.store.get(id))?;
        let floor = self.retention.advance(tip.round())?;
        let pruned = self.store.prune_below(floor);
        self.ledger.forget(&pruned);
        self.endorsements.forget(&pruned);
        self.votes.prune_below(floor);
        self.sync.prune_below(floor);
        self.voter.prune_below(floor);
        self.logged_qcs = self.logged_qcs.split_off(&(floor, HashValue::zero()));
        self.mempool.prune_below(floor);
        Some(floor)
    }

    // ---- block sync ----

    /// Block-sync fetches now due (new targets and expired retries), to be
    /// sent point-to-point to the named peer.
    pub fn take_sync_requests(&mut self, now: SimTime) -> Vec<(ReplicaId, BlockRequest)> {
        self.sync.take_requests(now)
    }

    /// Serves a peer's block-sync request from the local store, if this
    /// replica holds both the block and a certificate for it.
    pub fn serve_sync(&mut self, request: &BlockRequest) -> Option<BlockResponse> {
        self.sync.serve(request, &self.store)
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

    /// What this replica currently holds in memory.
    pub fn resident(&self) -> ResidentState {
        ResidentState {
            blocks: self.store.len(),
            votes: self.votes.resident_votes(),
            certs: self.sync.resident_certs(),
            dedup_entries: self.mempool.dedup_entries(),
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
    /// counter the bench gate watches.
    pub fn walk_steps(&self) -> u64 {
        self.endorsements.walk_steps()
    }

    /// Signature-verification counters from vote aggregation — the
    /// evidence behind the verify-on-quorum scaling claim.
    pub fn sig_stats(&self) -> SigStats {
        self.votes.sig_stats()
    }

    /// Consumes the kernel into its committed chain and commit log.
    pub fn into_commit_record(self) -> (Vec<HashValue>, Vec<StrongCommitUpdate>) {
        (self.ledger.into_chain(), self.commit_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_types::EndorseInfo;

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
        // The mempool's in-flight map: ten blocks' transactions forgotten.
        let swept = (floor.as_u64() - 1) * TXNS;
        assert_eq!(
            k.resident().dedup_entries,
            before.dedup_entries - swept as usize
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
