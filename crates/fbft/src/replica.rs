//! The SFT-DiemBFT replica state machine.

use std::collections::BTreeSet;
use std::fmt;

use sft_core::{
    Admission, Block, BlockStore, CommitLedger, EndorsementTracker, Mempool, PayloadSource,
    ProtocolConfig, QuorumCertificate, ResidentState, Retention, SyncManager, SyncStats,
    VoteOutcome, VoteTracker, VoterState, WalRecord,
};
use sft_crypto::{HashValue, KeyPair, KeyRegistry, SigStats};
use sft_types::{
    BlockRequest, EndorseMode, Payload, ReplicaId, Round, SimDuration, SimTime, StrongCommitUpdate,
    StrongVote, TimeoutAggregator, TimeoutCertificate, TimeoutMsg, TimeoutOutcome, Transaction,
    VerifyPolicy,
};

pub use sft_core::BlockResponse;

use crate::message::FbftProposal;
use crate::pacemaker::Pacemaker;
use crate::two_chain::TwoChainState;

/// What processing one event (proposal, vote, or timeout message) produced:
/// this replica's vote to broadcast, any commit-log entries, and — when the
/// event advanced the replica into a round it leads and a
/// [`PayloadSource`] is configured — the chained next proposal, carrying
/// the certificate that just formed. Chaining the proposal off the event
/// that creates the certificate is what pipelines rounds: the QC never
/// waits for an external poll before riding the next proposal.
#[derive(Clone, Debug, Default)]
pub struct StepOutcome {
    /// The strong-vote to broadcast, if the voting rule fired.
    pub vote: Option<StrongVote>,
    /// Commit-log entries produced while processing the event.
    pub updates: Vec<StrongCommitUpdate>,
    /// The pipelined proposal for the round this event moved the replica
    /// into, if it leads that round. Must be broadcast like any proposal.
    pub next_proposal: Option<FbftProposal>,
    /// Block-sync fetches now due (new targets and expired retries), to be
    /// sent point-to-point to the named peer.
    pub sync_requests: Vec<(ReplicaId, BlockRequest)>,
}

/// A single SFT-DiemBFT replica: pacemaker-driven rounds, QC/TC
/// aggregation, the 2-chain commit rule, and strength-graded commits.
///
/// The protocol per round `r` (paper §2, Figs 2/3, strengthened per §3):
///
/// 1. the leader of `r` (round-robin) proposes a block extending the
///    highest QC it knows, shipping that QC — and, after a timeout round,
///    the TC justifying the skip ([`FbftReplica::try_propose`]);
/// 2. every replica votes for the first justified proposal of its current
///    round that satisfies the locking rule ([`TwoChainState::safe_to_vote`]),
///    attaching §3.2/§3.4 endorsement info, and broadcasts the strong-vote
///    ([`FbftReplica::on_proposal`]);
/// 3. `2f + 1` votes certify the block; every replica aggregates votes
///    itself (votes are broadcast precisely so endorsements are countable),
///    advances its round on the new QC, and applies the 2-chain commit rule
///    ([`FbftReplica::on_vote`]);
/// 4. if a round's deadline passes uncertified, replicas broadcast timeout
///    messages ([`FbftReplica::on_tick`]); `2f + 1` of them form a TC that
///    advances the round without a QC ([`FbftReplica::on_timeout_msg`]);
/// 5. endorsements carried by strong-votes grade every commit with the
///    strength `x = q − f − 1` of Definition 1, reported as
///    [`StrongCommitUpdate`]s in the replica's commit log.
///
/// # Examples
///
/// Driving one happy-path round of a 4-replica system by hand:
///
/// ```
/// use sft_core::ProtocolConfig;
/// use sft_crypto::KeyRegistry;
/// use sft_fbft::FbftReplica;
/// use sft_types::{EndorseMode, Payload, Round, SimDuration, SimTime};
///
/// let config = ProtocolConfig::for_replicas(4);
/// let registry = KeyRegistry::deterministic(4);
/// let now = SimTime::ZERO;
/// let mut replicas: Vec<FbftReplica> = (0..4)
///     .map(|i| {
///         FbftReplica::new(
///             i,
///             config,
///             registry.clone(),
///             EndorseMode::Marker,
///             SimDuration::from_millis(400),
///             now,
///         )
///     })
///     .collect();
///
/// // Round 1: replica 1 leads and proposes on the genesis QC.
/// let proposal = replicas[1].try_propose(Payload::empty()).expect("leader proposes");
/// let votes: Vec<_> = replicas
///     .iter_mut()
///     .filter_map(|r| r.on_proposal(&proposal, now).vote)
///     .collect();
/// assert_eq!(votes.len(), 4, "every honest replica votes");
/// for vote in &votes {
///     for replica in replicas.iter_mut() {
///         replica.on_vote(vote, now);
///     }
/// }
/// // The QC formed everywhere: all replicas advanced to round 2.
/// assert!(replicas.iter().all(|r| r.current_round() == Round::new(2)));
/// // One round certifies but cannot commit: the 2-chain is still open.
/// assert!(replicas[0].committed_chain().is_empty());
/// ```
pub struct FbftReplica {
    id: ReplicaId,
    config: ProtocolConfig,
    key_pair: KeyPair,
    store: BlockStore,
    votes: VoteTracker,
    endorsements: EndorsementTracker,
    timeouts: TimeoutAggregator,
    two_chain: TwoChainState,
    pacemaker: Pacemaker,
    /// The highest quorum certificate this replica knows — what it
    /// proposes on when leading.
    high_qc: QuorumCertificate,
    /// The TC that justified entering the current round, if it was entered
    /// on the timeout path (shipped with this replica's next proposal).
    last_tc: Option<TimeoutCertificate>,
    /// The last vote this replica cast and the endorsement info it
    /// carried: the vote-once rule and the §3.2 / §3.4 marker maintenance.
    voter: VoterState,
    /// The highest round this replica proposed in (propose-once rule).
    last_proposed_round: Round,
    /// A chained proposal is ready but ahead of the round pace: the
    /// replica's deadline is the instant it comes due.
    proposal_held: bool,
    ledger: CommitLedger,
    commit_log: Vec<StrongCommitUpdate>,
    /// Transactions carried by the committed chain, counted at commit.
    txns_committed: u64,
    /// Where chained proposals get their payloads; `None` disables
    /// self-chaining (callers drive [`try_propose`](Self::try_propose)
    /// explicitly, as the unit tests do).
    payload_source: Option<PayloadSource>,
    /// Client transactions awaiting inclusion (drained by the mempool
    /// payload source; pruned when other leaders' blocks carry them).
    mempool: Mempool,
    /// Certificates already absorbed, by (round, digest) — re-deliveries (a
    /// QC rides every proposal that extends it) skip the pacemaker/commit
    /// walk.
    processed_qcs: BTreeSet<(Round, HashValue)>,
    /// Block-sync state: certified-but-unknown targets, in-flight fetches,
    /// and the orphan pool (§ "Block sync" in the README).
    sync: SyncManager,
    /// Blocks the 2-chain rule declared committed while their chain was
    /// still incomplete locally; retried after every sync admission.
    deferred_commits: Vec<HashValue>,
    /// Durable events produced since the last [`drain_wal`](Self::drain_wal):
    /// the write-ahead-log records a crash-safe harness persists before
    /// sending this replica's messages.
    wal: Vec<WalRecord>,
    /// Certificates already written to the WAL buffer. Separate from
    /// `processed_qcs`, which deliberately re-processes a QC while its
    /// block is absent — the log wants each certificate exactly once.
    logged_qcs: BTreeSet<(Round, HashValue)>,
    /// How far behind the committed tip state is kept (see [`Retention`]).
    retention: Retention,
}

impl FbftReplica {
    /// Creates replica `id` of an `n`-replica system, entering round 1 at
    /// `now` with the given base round timeout.
    ///
    /// # Panics
    ///
    /// Panics if the registry holds no key for `id` or fewer than
    /// `config.n()` keys, or if the timeout is zero.
    pub fn new(
        id: u16,
        config: ProtocolConfig,
        registry: KeyRegistry,
        mode: EndorseMode,
        base_timeout: SimDuration,
        now: SimTime,
    ) -> Self {
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
            votes: VoteTracker::new(config, registry.clone()),
            endorsements: EndorsementTracker::new(config),
            timeouts: TimeoutAggregator::new(config.n(), config.quorum(), registry),
            two_chain: TwoChainState::new(),
            pacemaker: Pacemaker::new(config.n(), base_timeout, now),
            high_qc: QuorumCertificate::genesis(config.n()),
            last_tc: None,
            voter: VoterState::new(mode),
            last_proposed_round: Round::ZERO,
            proposal_held: false,
            ledger: CommitLedger::new(),
            commit_log: Vec::new(),
            txns_committed: 0,
            payload_source: None,
            mempool: Mempool::new(),
            processed_qcs: BTreeSet::new(),
            sync: {
                let mut sync = SyncManager::new(config, ReplicaId::new(id));
                // Re-ask a different peer after two exchanges' worth of
                // silence at this replica's own timeout scale.
                sync.set_retry_after(base_timeout);
                sync
            },
            deferred_commits: Vec::new(),
            wal: Vec::new(),
            logged_qcs: BTreeSet::new(),
            retention: Retention::default(),
        }
    }

    /// Replaces the retention horizon ([`sft_core::RETENTION_ROUNDS`] by
    /// default) with `rounds` behind the committed tip. Tests shrink it to
    /// exercise pruning in short runs; set it before the first message.
    pub fn set_retention(&mut self, rounds: u64) {
        self.retention = Retention::new(rounds);
    }

    /// Paces this replica's rounds: at most one per `interval` once `burst`
    /// rounds have gone through unpaced (see [`Pacemaker::set_pace`]). What
    /// a replica on a wall clock runs with; virtual-time runs leave it off.
    pub fn set_round_pace(&mut self, interval: SimDuration, burst: u64) {
        self.pacemaker.set_pace(interval, burst);
    }

    /// Configures where chained proposals get their payloads and enables
    /// pipelined self-proposing: every event that moves this replica into a
    /// round it leads returns the next proposal in its [`StepOutcome`].
    pub fn with_payload_source(mut self, source: PayloadSource) -> Self {
        self.payload_source = Some(source);
        self
    }

    /// Switches vote and timeout aggregation to `policy` — verify every
    /// signature on arrival (the default) or defer to one batched check at
    /// quorum. Call right after construction, before any message is
    /// ingested.
    pub fn with_verify_policy(mut self, policy: VerifyPolicy) -> Self {
        self.votes = self.votes.with_policy(policy);
        self.timeouts = self.timeouts.with_policy(policy);
        self
    }

    /// Submits a client transaction to this replica's mempool, reporting
    /// the explicit [`Admission`] verdict (`Duplicate` for ids already
    /// pending or on-chain, `Busy` past the admission caps).
    pub fn submit(&mut self, txn: Transaction) -> Admission {
        self.mempool.try_submit(txn)
    }

    /// Replaces the mempool's admission caps (count and encoded bytes);
    /// submissions beyond either answer [`Admission::Busy`] until drains
    /// make room.
    pub fn set_mempool_caps(&mut self, max_pending: usize, max_pending_bytes: u64) {
        self.mempool.set_caps(max_pending, max_pending_bytes);
    }

    /// The replica's transaction pool.
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The protocol configuration.
    pub fn config(&self) -> ProtocolConfig {
        self.config
    }

    /// The round this replica is currently in.
    pub fn current_round(&self) -> Round {
        self.pacemaker.current_round()
    }

    /// The deterministic round-robin leader of `round` (delegates to the
    /// pacemaker's schedule so the formula lives in exactly one place).
    pub fn leader(config: ProtocolConfig, round: Round) -> ReplicaId {
        Pacemaker::leader_for(config.n(), round)
    }

    /// The replica's pacemaker (round, deadline, back-off state).
    pub fn pacemaker(&self) -> &Pacemaker {
        &self.pacemaker
    }

    /// The highest quorum certificate this replica knows.
    pub fn high_qc(&self) -> &QuorumCertificate {
        &self.high_qc
    }

    /// The replica's block store: every delivered block inside the
    /// retention horizon.
    pub fn store(&self) -> &BlockStore {
        &self.store
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

    /// Consumes the replica into its committed chain and commit log.
    pub fn into_commit_record(self) -> (Vec<HashValue>, Vec<StrongCommitUpdate>) {
        (self.ledger.into_chain(), self.commit_log)
    }

    /// The next instant this replica wants [`on_tick`](Self::on_tick): its
    /// round timer (the round deadline, or the next timeout retransmission
    /// once it has fired — the timer is always armed), or sooner when a
    /// proposal is waiting for the round pace.
    pub fn next_deadline(&self) -> SimTime {
        let timer = self.pacemaker.deadline();
        if self.proposal_held {
            timer.min(self.pacemaker.propose_at())
        } else {
            timer
        }
    }

    /// True while a chained proposal waits for the round pace; the caller
    /// retries [`try_propose_chained`](Self::try_propose_chained) at
    /// [`next_deadline`](Self::next_deadline).
    pub fn proposal_held(&self) -> bool {
        self.proposal_held
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

    /// True if this replica ever observed two conflicting committed chains.
    pub fn safety_violated(&self) -> bool {
        self.ledger.safety_violated()
    }

    /// Replicas caught equivocating by this replica's vote tracker.
    pub fn observed_equivocators(&self) -> &[ReplicaId] {
        self.votes.equivocators()
    }

    /// If this replica leads its current round and has not proposed yet,
    /// returns a signed proposal extending the highest-QC block with
    /// `payload`, carrying that QC and — after a timeout round — the
    /// justifying TC. The proposal must be broadcast (the caller owns
    /// transport) and fed back via [`on_proposal`](Self::on_proposal) like
    /// any other replica's.
    pub fn try_propose(&mut self, payload: Payload) -> Option<FbftProposal> {
        if !self.may_propose() {
            return None;
        }
        let round = self.pacemaker.current_round();
        let parent = self.store.get(self.high_qc.block_id())?.clone();
        let block = Block::new(&parent, round, self.id, payload);
        self.store
            .insert(block.clone())
            .expect("parent is in the store");
        self.last_proposed_round = round;
        Some(FbftProposal::new(
            block,
            self.high_qc.clone(),
            self.last_tc.clone(),
            &self.key_pair,
        ))
    }

    /// True if this replica leads its current round and has not proposed in
    /// it yet.
    pub fn may_propose(&self) -> bool {
        let round = self.pacemaker.current_round();
        Self::leader(self.config, round) == self.id && round > self.last_proposed_round
    }

    /// The pipelined propose path: if a [`PayloadSource`] is configured and
    /// this replica leads its current round, drains the next payload and
    /// proposes on the high-QC. Called internally after every
    /// round-advancing event; drivers call it once at startup to bootstrap
    /// round 1, and again whenever a proposal the round pace held back
    /// ([`proposal_held`](Self::proposal_held)) comes due.
    pub fn try_propose_chained(&mut self, now: SimTime) -> Option<FbftProposal> {
        let source = self.payload_source?;
        self.proposal_held = false;
        // Every failure mode of `try_propose` must be ruled out *before*
        // draining the mempool — a drained batch is marked seen, so handing
        // it to a propose call that then fails would lose the transactions
        // for good. The high-QC block can genuinely be missing: votes are
        // broadcast, so a replica can certify (and adopt as high-QC) a
        // block it never received, e.g. the other half of an equivocation
        // split.
        if !self.may_propose() || !self.store.contains(self.high_qc.block_id()) {
            return None;
        }
        if now < self.pacemaker.propose_at() {
            // Ahead of the pace: leave the mempool alone (what arrives in
            // the meantime rides this block) and come back when it is due.
            self.proposal_held = true;
            return None;
        }
        let payload = source.next_payload(&mut self.mempool, self.pacemaker.current_round());
        self.try_propose(payload)
    }

    /// Handles a round proposal. Verifies the leader signature and the
    /// structural justification, absorbs the embedded certificates (which
    /// may advance the round and commit — stragglers catch up here), and
    /// applies the voting rule: first proposal of the current round whose
    /// parent satisfies the 2-chain lock. The returned vote, if any, must
    /// be broadcast to all replicas; a returned chained proposal likewise.
    pub fn on_proposal(&mut self, proposal: &FbftProposal, now: SimTime) -> StepOutcome {
        let mut out = self.absorb_proposal(proposal, now);
        out.next_proposal = self.try_propose_chained(now);
        out.sync_requests = self.sync.take_requests(now);
        out
    }

    fn absorb_proposal(&mut self, proposal: &FbftProposal, now: SimTime) -> StepOutcome {
        let mut out = StepOutcome::default();
        let block = proposal.block();
        if block.round() < self.retention.floor() {
            return out; // stale: older than anything this replica still keeps
        }
        if !proposal.verify(self.votes.registry()) || !proposal.is_justified(&self.config) {
            return out;
        }
        if block.proposer() != Self::leader(self.config, block.round()) {
            return out;
        }
        // Absorb the embedded certificates before judging the round: a
        // replica that missed the QC or TC formation learns it from the
        // proposal itself.
        out.updates = self.process_qc(proposal.qc(), now);
        self.commit_log.extend(out.updates.iter().copied());
        if let Some(tc) = proposal.tc() {
            if self.pacemaker.on_tc_round(tc.round(), now).is_some() {
                self.adopt_tc(tc.clone());
            }
        }
        // Record the block regardless of the voting decision — descendants
        // and certificates may arrive later. Orphans (parent not yet
        // delivered — the parent's proposal is still in flight on another
        // connection, or this replica is catching up after a partition)
        // are pooled with the sync manager, which is already fetching the
        // parent: the proposal's own QC certifies it and was absorbed just
        // above.
        match self.store.insert(block.clone()) {
            Ok(_) => {}
            Err(sft_core::BlockStoreError::UnknownParent) => {
                self.sync
                    .note_orphan_block(block.clone(), true, &self.store);
                return out;
            }
            Err(_) => return out,
        }
        out.vote = self.adopt(block.id(), true);
        // The block may be the parent an orphaned proposal was waiting
        // for: the released children get the same treatment, in order
        // (fetched segments carry no leader signature, so only those that
        // had arrived as proposals may be voted for), and commits that
        // were waiting on the gap land now.
        for (id, from_proposal) in self.sync.note_stored(block.id(), &mut self.store) {
            let vote = self.adopt(id, from_proposal);
            out.vote = out.vote.take().or(vote);
        }
        let settled = self.settle_deferred();
        self.commit_log.extend(settled.iter().copied());
        out.updates.extend(settled);
        out
    }

    /// The part of the proposal path that runs once a block is in the
    /// store: its transactions stop being offered, and — if it arrived as
    /// a verified proposal (`may_vote`) for the current round — the voting
    /// rule fires.
    fn adopt(&mut self, id: HashValue, may_vote: bool) -> Option<StrongVote> {
        let block = self.store.get(id)?;
        let round = block.round();
        if let Payload::Transactions(txns) = block.payload() {
            self.mempool.mark_included(txns.iter(), round);
        }
        if !may_vote
            || round != self.pacemaker.current_round()
            || round <= self.voter.last_voted_round()
        {
            return None;
        }
        let data = block.vote_data();
        if !self.two_chain.safe_to_vote(&data) {
            return None;
        }
        let endorse = self.voter.endorse_info(&self.store, block);
        let vote = StrongVote::new(data, endorse, &self.key_pair);
        self.voter.record(&vote);
        // Write-ahead: the harness persists this record before the vote is
        // routed, so a restart can never contradict it.
        self.wal.push(WalRecord::VoteSent(vote.clone()));
        Some(vote)
    }

    /// Handles a broadcast strong-vote (including this replica's own).
    /// Counts it toward certification, records its endorsements, and — when
    /// it completes a QC — advances the round, applies the 2-chain commit
    /// rule, and (if this replica leads the new round) chains the next
    /// proposal with the fresh QC riding it.
    pub fn on_vote(&mut self, vote: &StrongVote, now: SimTime) -> StepOutcome {
        let mut out = self.absorb_vote(vote, now);
        out.next_proposal = self.try_propose_chained(now);
        out.sync_requests = self.sync.take_requests(now);
        out
    }

    fn absorb_vote(&mut self, vote: &StrongVote, now: SimTime) -> StepOutcome {
        let mut out = StepOutcome::default();
        let outcome = self.votes.add_vote(vote);
        // Endorsements are credited only from verified votes: the drain
        // returns the vote just accepted under verify-on-arrival, and the
        // whole batch the quorum check validated under verify-on-quorum
        // (nothing before that — optimistically counted votes carry no
        // endorsement weight until their signatures clear).
        let mut grown = Vec::new();
        for verified in self.votes.take_newly_verified() {
            grown.extend(self.endorsements.record_vote(&verified, &self.store));
        }

        if let VoteOutcome::Certified(qc) = outcome {
            out.updates.extend(self.process_qc(&qc, now));
        }
        // Endorsements may have raised the strength of blocks committed
        // earlier: report each increase once.
        for block_id in grown {
            if self.ledger.contains(block_id) {
                if let Some(update) = self.endorsements.take_level_update(block_id, &self.store) {
                    out.updates.push(update);
                }
            }
        }
        self.commit_log.extend(out.updates.iter().copied());
        out
    }

    /// Handles a broadcast timeout message (including this replica's own).
    /// Aggregates it; at `2f + 1` the round's TC forms, the pacemaker
    /// advances, and — if this replica leads the new round — the chained
    /// proposal ships the TC.
    pub fn on_timeout_msg(&mut self, msg: &TimeoutMsg, now: SimTime) -> StepOutcome {
        let mut out = StepOutcome::default();
        // Piggybacked catch-up (DiemBFT's SyncInfo in minimal form). A TC
        // is self-certifying, so a replica stranded in an earlier round
        // because the certificate that closed it was lost jumps forward on
        // the copy riding this retransmission.
        if let Some(tc) = msg.justification() {
            if tc.signers().len() >= self.config.quorum()
                && self.pacemaker.on_tc_round(tc.round(), now).is_some()
            {
                self.adopt_tc(tc.clone());
                self.timeouts.prune_below(self.pacemaker.current_round());
            }
        }
        // A sender whose high-QC round is ahead of ours holds a
        // certificate we never formed (its votes were lost): fetch the
        // certified block — votes are broadcast, so the leading candidate
        // in our own tracker names it — and the certificate comes with it.
        if msg.high_qc_round() > self.high_qc.round() {
            if let Some(id) = self.votes.leading_block_at(msg.high_qc_round()) {
                self.sync.note_want(id, msg.high_qc_round());
            }
        }
        // Stale timeouts (for rounds this replica already left) still die
        // here; everything above was catch-up, not aggregation.
        if msg.round() >= self.pacemaker.current_round() {
            if let TimeoutOutcome::Certified(tc) = self.timeouts.add(msg) {
                if self.pacemaker.on_tc_round(tc.round(), now).is_some() {
                    self.adopt_tc(tc);
                    self.timeouts.prune_below(self.pacemaker.current_round());
                }
            }
        }
        // One chain attempt for whatever round the message landed us in
        // (catch-up jump or freshly formed TC alike).
        out.next_proposal = self.try_propose_chained(now);
        out.sync_requests = self.sync.take_requests(now);
        out
    }

    /// Serves a peer's block-sync request from the local store, if this
    /// replica holds both the block and a certificate for it. The response
    /// goes back point-to-point to the requester.
    pub fn on_sync_request(&mut self, request: &BlockRequest) -> Option<BlockResponse> {
        self.sync.serve(request, &self.store)
    }

    /// Handles a block-sync response: verifies it against the certificate
    /// chain, admits what attaches, re-runs certificate processing for the
    /// recovered blocks (the commits they enable land now), and — if the
    /// recovery made this replica the ready leader — chains a proposal.
    pub fn on_sync_response(&mut self, response: &BlockResponse, now: SimTime) -> StepOutcome {
        let mut out = StepOutcome::default();
        let admitted = self.sync.on_response_timed(response, &mut self.store, now);
        // A certificate-only response (the block was already held, only its
        // QC was missing — the certificate-want path) admits nothing, but
        // the certificate itself must still run its course below.
        let mut touched = admitted;
        let target = response.target();
        if !touched.contains(&target) && self.store.contains(target) {
            touched.push(target);
        }
        for id in touched {
            // Recovered blocks are stored, never voted on: a replica that
            // needed block sync is behind the round they were proposed in.
            self.adopt(id, false);
            // The certificate that flagged the block missing can now run
            // its full course: round advancement and the 2-chain walk.
            // (`process_qc` deliberately did not cache the digest while the
            // block was absent.)
            if let Some(qc) = self.sync.certificate_for(id).cloned() {
                out.updates.extend(self.process_qc(&qc, now));
            }
        }
        out.updates.extend(self.settle_deferred());
        self.commit_log.extend(out.updates.iter().copied());
        out.next_proposal = self.try_propose_chained(now);
        out.sync_requests = self.sync.take_requests(now);
        out
    }

    /// Re-attempts the commits the 2-chain rule declared while their chain
    /// still had holes; called whenever blocks arrived out of order.
    fn settle_deferred(&mut self) -> Vec<StrongCommitUpdate> {
        if self.deferred_commits.is_empty() {
            return Vec::new();
        }
        let committed = self
            .ledger
            .finalize_deferred(&self.store, &mut self.deferred_commits);
        self.commit_blocks(committed)
    }

    /// Commit-time bookkeeping for blocks the ledger just finalized: the
    /// durable record, the transaction counter, the first strength grade,
    /// and — commits being what moves the retention horizon — the sweep.
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
        self.prune();
        updates
    }

    /// The one place state ages out: once the committed tip has moved far
    /// enough, everything keyed by a round or block below the new floor is
    /// dropped, and later arrivals for those rounds are ignored as stale.
    /// What survives is the committed chain's ids, the commit log, and the
    /// counters.
    fn prune(&mut self) {
        let Some(tip) = self.ledger.tip().and_then(|id| self.store.get(id)) else {
            return;
        };
        let Some(floor) = self.retention.advance(tip.round()) else {
            return;
        };
        let pruned = self.store.prune_below(floor);
        self.ledger.forget(&pruned);
        self.endorsements.forget(&pruned);
        self.votes.prune_below(floor);
        self.sync.prune_below(floor);
        self.voter.prune_below(floor);
        let oldest_kept = (floor, HashValue::zero());
        self.processed_qcs = self.processed_qcs.split_off(&oldest_kept);
        self.logged_qcs = self.logged_qcs.split_off(&oldest_kept);
        self.mempool.prune_below(floor);
    }

    /// Block-sync counters (requests sent, blocks recovered, …).
    pub fn sync_stats(&self) -> SyncStats {
        self.sync.stats()
    }

    /// Total endorsement-frontier walk steps taken — the amortization
    /// counter the bench gate watches.
    pub fn walk_steps(&self) -> u64 {
        self.endorsements.walk_steps()
    }

    /// Signature-verification counters across vote and timeout
    /// aggregation — the evidence behind the verify-on-quorum scaling
    /// claim.
    pub fn sig_stats(&self) -> SigStats {
        let mut stats = self.votes.sig_stats();
        stats.merge(self.timeouts.sig_stats());
        stats
    }

    /// Installs the recorder block-sync timing flows into.
    pub fn set_recorder(&mut self, recorder: sft_obs::SharedRecorder) {
        self.sync.set_recorder(recorder);
    }

    /// True while this replica is still chasing missing blocks.
    pub fn is_syncing(&self) -> bool {
        self.sync.is_syncing()
    }

    /// Advances the replica's clock. If the current round's (re-armed)
    /// timer has passed, returns the timeout message to broadcast — and
    /// again one timeout span later if the round is still open, so lost
    /// timeout messages are retransmitted until the TC can form. The
    /// caller must also feed the message back via
    /// [`on_timeout_msg`](Self::on_timeout_msg) (a replica counts its own
    /// timeout; duplicates are idempotent).
    pub fn on_tick(&mut self, now: SimTime) -> Option<TimeoutMsg> {
        let round = self.pacemaker.on_tick(now)?;
        Some(
            TimeoutMsg::new(round, self.high_qc.round(), &self.key_pair)
                .with_justification(self.last_tc.clone()),
        )
    }

    /// Absorbs a quorum certificate: raises the high-QC, advances the
    /// round, applies the 2-chain commit + locking rules, and grades any
    /// newly committed blocks. Returns the resulting commit-log entries;
    /// the caller appends them to the log (exactly once).
    fn process_qc(&mut self, qc: &QuorumCertificate, now: SimTime) -> Vec<StrongCommitUpdate> {
        // A QC rides every proposal extending it, so each is re-delivered
        // round after round; all of processing below is idempotent per
        // certificate, so a digest already absorbed is skipped outright.
        let key = (qc.round(), qc.digest());
        if self.processed_qcs.contains(&key) {
            return Vec::new();
        }
        if !qc.is_well_formed(&self.config) || qc.round() < self.retention.floor() {
            return Vec::new();
        }
        // Log each certificate exactly once (the genesis QC replays as a
        // no-op, so logging it is harmless). This must *not* share
        // `processed_qcs`: that set deliberately skips caching while the
        // certified block is absent, and re-deliveries would re-log.
        if qc.round() > Round::ZERO && self.logged_qcs.insert(key) {
            self.wal.push(WalRecord::QcFormed(qc.clone()));
        }
        // Sync bookkeeping: record the certificate (it may be served to
        // lagging peers later) and, if the certified block is unknown,
        // flag it as a fetch target.
        self.sync.note_certificate(qc, &self.store);
        // Only cache the skip once the certified block is locally known:
        // with the block absent the commit walk below finds nothing, and a
        // replica that learns the block later (catch-up via a descendant
        // proposal or a block-sync response) must re-run it on the next
        // delivery or it would never finalize the chain.
        if self.store.contains(qc.data().block_id()) {
            self.processed_qcs.insert(key);
        }
        if qc.round() > self.high_qc.round() {
            self.high_qc = qc.clone();
        }
        if self.pacemaker.on_qc_round(qc.round(), now).is_some() {
            // Entering on the happy path: no TC to ship with our proposal.
            self.last_tc = None;
            self.timeouts.prune_below(self.pacemaker.current_round());
        }
        let Some((committed_id, _)) = self.two_chain.on_qc(qc.data()) else {
            return Vec::new();
        };
        let committed = self.ledger.finalize_through(&self.store, committed_id);
        if committed.is_empty() && !self.ledger.contains(committed_id) {
            // The 2-chain rule fired but the local chain has holes (the
            // committed block or an ancestor is still being fetched): the
            // 2-chain state is already past this round and will never
            // re-commit it, so remember the target and finalize once the
            // gap fills.
            if !self.deferred_commits.contains(&committed_id) {
                self.deferred_commits.push(committed_id);
            }
        }
        self.commit_blocks(committed)
    }

    /// Adopts `tc` as the justification of the round it closed, logging it
    /// for crash recovery (once per round — replay only needs the jump).
    fn adopt_tc(&mut self, tc: TimeoutCertificate) {
        if self.last_tc.as_ref().map(TimeoutCertificate::round) != Some(tc.round()) {
            self.wal.push(WalRecord::TcFormed(tc.clone()));
        }
        self.last_tc = Some(tc);
    }

    /// Takes every durable event produced since the last drain, in
    /// occurrence order. A crash-safe harness appends these to the WAL
    /// *before* routing the step's messages.
    pub fn drain_wal(&mut self) -> Vec<WalRecord> {
        std::mem::take(&mut self.wal)
    }

    /// Re-applies one recovered WAL record at restart instant `now`.
    ///
    /// Replaying a log front to back restores exactly the promises the log
    /// recorded: `VoteSent` re-arms the vote-once rule and the marker
    /// bookkeeping — the record carries the endorsement info the vote did,
    /// which is all [`VoterState`] needs (the replica can never equivocate
    /// against its pre-crash self), `QcFormed` re-runs certificate processing (high-QC, round,
    /// 2-chain lock, commits — certified-but-unknown blocks become sync
    /// targets again), `TcFormed` re-applies the round jump, and
    /// `BlockCommitted` restores the block and the committed prefix.
    ///
    /// Records the replay itself re-derives are discarded, not re-buffered:
    /// they are already in the log being replayed.
    pub fn replay(&mut self, record: &WalRecord, now: SimTime) {
        match record {
            WalRecord::VoteSent(vote) => self.voter.record(vote),
            WalRecord::QcFormed(qc) => {
                let updates = self.process_qc(qc, now);
                self.commit_log.extend(updates.iter().copied());
            }
            WalRecord::TcFormed(tc) => {
                if self.pacemaker.on_tc_round(tc.round(), now).is_some() {
                    self.last_tc = Some(tc.clone());
                    self.timeouts.prune_below(self.pacemaker.current_round());
                }
            }
            WalRecord::BlockCommitted(block) => {
                match self.store.insert(block.clone()) {
                    Ok(_) => {
                        self.sync.note_stored(block.id(), &mut self.store);
                    }
                    Err(sft_core::BlockStoreError::UnknownParent) => {
                        self.sync
                            .note_orphan_block(block.clone(), false, &self.store);
                    }
                    Err(_) => {}
                }
                // Replayed commits re-seed the dedup state, so a client
                // re-submitting across the crash still gets `Duplicate`.
                if let Payload::Transactions(txns) = block.payload() {
                    self.mempool.mark_committed(txns.iter());
                }
                let committed = self.ledger.finalize_through(&self.store, block.id());
                let updates = self.commit_blocks(committed);
                self.commit_log.extend(updates);
            }
        }
        self.wal.clear();
    }
}

impl fmt::Debug for FbftReplica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FbftReplica({} r={} qc_high={} committed={})",
            self.id,
            self.pacemaker.current_round(),
            self.high_qc.round(),
            self.ledger.chain().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_types::EndorseInfo;
    use std::collections::HashSet;

    fn system(n: usize) -> Vec<FbftReplica> {
        let config = ProtocolConfig::for_replicas(n);
        let registry = KeyRegistry::deterministic(n);
        (0..n as u16)
            .map(|i| {
                FbftReplica::new(
                    i,
                    config,
                    registry.clone(),
                    EndorseMode::Marker,
                    SimDuration::from_millis(400),
                    SimTime::ZERO,
                )
            })
            .collect()
    }

    /// Runs one happy-path round by hand: leader proposes, everyone votes,
    /// all votes delivered everywhere. Returns the proposal.
    fn run_round(replicas: &mut [FbftReplica], now: SimTime) -> FbftProposal {
        let round = replicas[0].current_round();
        let leader = FbftReplica::leader(replicas[0].config(), round).as_usize();
        let proposal = replicas[leader]
            .try_propose(Payload::synthetic(1, 1, round.as_u64()))
            .expect("leader proposes");
        let votes: Vec<_> = replicas
            .iter_mut()
            .filter_map(|r| r.on_proposal(&proposal, now).vote)
            .collect();
        for vote in &votes {
            for replica in replicas.iter_mut() {
                replica.on_vote(vote, now);
            }
        }
        proposal
    }

    #[test]
    fn two_chain_commits_after_two_rounds() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let p1 = run_round(&mut replicas, now);
        assert!(replicas.iter().all(|r| r.committed_chain().is_empty()));
        let _p2 = run_round(&mut replicas, now);
        for r in &replicas {
            assert_eq!(r.committed_chain(), &[p1.block().id()]);
            assert!(!r.safety_violated());
        }
    }

    #[test]
    fn all_honest_commits_reach_the_ceiling() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let p1 = run_round(&mut replicas, now);
        run_round(&mut replicas, now);
        let cfg = replicas[0].config();
        for r in &replicas {
            assert_eq!(
                r.commit_level(p1.block().id()),
                Some(cfg.max_strength()),
                "all n votes endorse the whole chain"
            );
        }
    }

    #[test]
    fn non_leader_cannot_propose_and_leader_proposes_once() {
        let mut replicas = system(4);
        assert!(replicas[0].try_propose(Payload::empty()).is_none());
        assert!(replicas[1].try_propose(Payload::empty()).is_some());
        assert!(
            replicas[1].try_propose(Payload::empty()).is_none(),
            "propose-once per round"
        );
    }

    #[test]
    fn replica_votes_once_per_round() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let proposal = replicas[1].try_propose(Payload::empty()).unwrap();
        assert!(replicas[0].on_proposal(&proposal, now).vote.is_some());
        assert!(replicas[0].on_proposal(&proposal, now).vote.is_none());
    }

    #[test]
    fn stale_round_proposal_is_not_voted() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let proposal = replicas[1].try_propose(Payload::empty()).unwrap();
        let votes: Vec<_> = replicas
            .iter_mut()
            .filter_map(|r| r.on_proposal(&proposal, now).vote)
            .collect();
        for vote in &votes {
            for r in replicas.iter_mut() {
                r.on_vote(vote, now);
            }
        }
        assert!(replicas.iter().all(|r| r.current_round() == Round::new(2)));
        // Replaying the round-1 proposal cannot attract votes in round 2.
        assert!(replicas[2].on_proposal(&proposal, now).vote.is_none());
    }

    #[test]
    fn timeout_path_forms_tc_and_advances() {
        let mut replicas = system(4);
        // Nobody proposes in round 1; deadlines fire at 400 ms.
        let t = SimTime::from_millis(400);
        let msgs: Vec<_> = replicas.iter_mut().filter_map(|r| r.on_tick(t)).collect();
        assert_eq!(msgs.len(), 4);
        for r in replicas.iter_mut() {
            assert!(r.on_tick(t).is_none(), "timeout fires once");
        }
        for msg in &msgs {
            for r in replicas.iter_mut() {
                r.on_timeout_msg(msg, t);
            }
        }
        assert!(replicas.iter().all(|r| r.current_round() == Round::new(2)));
        // The round-2 leader now proposes on the genesis QC, shipping the TC.
        let proposal = replicas[2].try_propose(Payload::empty()).expect("leader");
        assert!(proposal.tc().is_some(), "timeout entry ships the TC");
        assert!(proposal.is_justified(&replicas[0].config()));
        let now = t;
        let votes: Vec<_> = replicas
            .iter_mut()
            .filter_map(|r| r.on_proposal(&proposal, now).vote)
            .collect();
        assert_eq!(votes.len(), 4, "round-2 proposal attracts every vote");
    }

    #[test]
    fn tc_justified_proposal_after_skipped_round_commits_later() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let p1 = run_round(&mut replicas, now); // round 1 certifies
                                                // Round 2 leader stalls: time out.
        let t = replicas[0].next_deadline();
        let msgs: Vec<_> = replicas.iter_mut().filter_map(|r| r.on_tick(t)).collect();
        for msg in &msgs {
            for r in replicas.iter_mut() {
                r.on_timeout_msg(msg, t);
            }
        }
        assert!(replicas.iter().all(|r| r.current_round() == Round::new(3)));
        // Round 3 certifies B3 on top of B1 — but (r1, r3) is not a
        // 2-chain (non-consecutive rounds), so nothing commits yet.
        let p3 = run_round(&mut replicas, t);
        assert_eq!(p3.block().parent_id(), p1.block().id());
        for r in &replicas {
            assert!(
                r.committed_chain().is_empty(),
                "a round gap breaks the 2-chain"
            );
        }
        // Round 4 closes the (r3, r4) 2-chain: the whole suffix commits.
        run_round(&mut replicas, t);
        for r in &replicas {
            assert_eq!(r.committed_chain(), &[p1.block().id(), p3.block().id()]);
            assert!(!r.safety_violated());
        }
    }

    #[test]
    fn equivocating_votes_are_detected() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let registry = KeyRegistry::deterministic(4);
        let proposal = replicas[1].try_propose(Payload::empty()).unwrap();
        let out = replicas[0].on_proposal(&proposal, now);
        let honest_vote = out.vote.unwrap();
        replicas[0].on_vote(&honest_vote, now);
        // Replica 3 votes for two different blocks in round 1.
        let other = Block::new(
            &Block::genesis(),
            Round::new(1),
            ReplicaId::new(1),
            Payload::synthetic(9, 9, 9),
        );
        let v1 = StrongVote::new(
            proposal.block().vote_data(),
            EndorseInfo::Marker(Round::ZERO),
            &registry.key_pair(3).unwrap(),
        );
        let v2 = StrongVote::new(
            other.vote_data(),
            EndorseInfo::Marker(Round::ZERO),
            &registry.key_pair(3).unwrap(),
        );
        replicas[0].on_vote(&v1, now);
        replicas[0].on_vote(&v2, now);
        assert_eq!(replicas[0].observed_equivocators(), &[ReplicaId::new(3)]);
    }

    /// Regression: commits reached via a vote-completed QC must appear in
    /// the commit log exactly once per (block, level) — `process_qc`'s
    /// entries were briefly double-appended by `on_vote`.
    #[test]
    fn commit_log_has_one_entry_per_block_and_level() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        for _ in 0..4 {
            run_round(&mut replicas, now);
        }
        for r in &replicas {
            assert_eq!(r.committed_chain().len(), 3, "4 rounds commit 3 blocks");
            let mut seen = HashSet::new();
            for update in r.commit_log() {
                assert!(
                    seen.insert((update.block_id(), update.level())),
                    "duplicate commit-log entry {update:?}"
                );
            }
        }
    }

    #[test]
    fn commit_levels_are_monotone_per_block() {
        let mut replicas = system(7);
        let now = SimTime::ZERO;
        for _ in 0..5 {
            run_round(&mut replicas, now);
        }
        for r in &replicas {
            let mut best: std::collections::HashMap<HashValue, u64> = Default::default();
            for update in r.commit_log() {
                let prev = best.entry(update.block_id()).or_insert(0);
                assert!(update.level() >= *prev, "levels only climb");
                *prev = update.level();
            }
        }
    }

    /// Regression: over TCP, proposal r + 1 regularly overtakes proposal r
    /// on another connection. The overtaken replica pooled the child as an
    /// orphan and — when the parent then arrived by the normal path —
    /// never took it back out: no vote for the child, and if that replica
    /// led round r + 2 it could not propose (the high-QC block was "missing"),
    /// so the round died in a pacemaker timeout.
    #[test]
    fn orphaned_proposal_is_adopted_when_its_parent_arrives_by_the_normal_path() {
        use sft_core::PayloadSource;
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        // Replica 0 leads round 4; it is the one the network reorders.
        let r0 = replicas
            .remove(0)
            .with_payload_source(PayloadSource::Synthetic {
                txn_count: 1,
                txn_bytes: 1,
            });
        replicas.insert(0, r0);
        run_round(&mut replicas, now);
        assert!(replicas.iter().all(|r| r.current_round() == Round::new(2)));

        // Round 2: the proposal reaches everyone but replica 0; the votes
        // (broadcast) reach everyone, so replica 0 certifies a block it
        // has not seen and moves on to round 3.
        let p2 = replicas[2].try_propose(Payload::empty()).expect("leader");
        let votes: Vec<_> = (1..4)
            .filter_map(|i| replicas[i].on_proposal(&p2, now).vote)
            .collect();
        assert_eq!(votes.len(), 3);
        for vote in &votes {
            for replica in replicas.iter_mut() {
                replica.on_vote(vote, now);
            }
        }
        assert_eq!(replicas[0].current_round(), Round::new(3));

        // Round 3's proposal overtakes round 2's on the way to replica 0:
        // child before parent. Nothing to vote on yet.
        let p3 = replicas[3].try_propose(Payload::empty()).expect("leader");
        assert!(replicas[0].on_proposal(&p3, now).vote.is_none());
        assert!(!replicas[0].store().contains(p3.block().id()));

        // The parent lands by the normal path: the child is adopted and,
        // its round still being current, voted for in the same step.
        let out = replicas[0].on_proposal(&p2, now);
        let vote = out.vote.expect("the adopted child gets its vote");
        assert_eq!(vote.data().block_id(), p3.block().id());
        assert!(replicas[0].store().contains(p3.block().id()));
        assert_eq!(replicas[0].sync_stats().orphans_adopted, 1);

        // Everyone votes round 3; replica 0 then leads round 4 and chains
        // its proposal off the QC — no tick was ever fired.
        let mut votes: Vec<_> = (1..4)
            .filter_map(|i| replicas[i].on_proposal(&p3, now).vote)
            .collect();
        votes.push(vote);
        let proposals: Vec<_> = votes
            .iter()
            .filter_map(|vote| replicas[0].on_vote(vote, now).next_proposal)
            .collect();
        assert_eq!(proposals.len(), 1, "the next leader proposes exactly once");
        assert_eq!(proposals[0].block().round(), Round::new(4));
        assert_eq!(proposals[0].block().parent_id(), p3.block().id());
    }

    #[test]
    fn arrivals_for_pruned_rounds_are_ignored_and_resident_state_stays_bounded() {
        const HORIZON: u64 = 8;
        let mut replicas = system(4);
        for r in replicas.iter_mut() {
            r.set_retention(HORIZON);
        }
        let now = SimTime::ZERO;
        let p1 = run_round(&mut replicas, now);
        let old_vote = StrongVote::new(
            p1.block().vote_data(),
            EndorseInfo::Marker(Round::ZERO),
            &KeyRegistry::deterministic(4).key_pair(3).unwrap(),
        );
        let p2 = run_round(&mut replicas, now);
        for _ in 0..60 {
            run_round(&mut replicas, now);
        }
        let r = &mut replicas[0];
        assert_eq!(r.committed_chain().len(), 61, "the chain ids all survive");
        assert!(!r.store().contains(p1.block().id()), "round 1 was pruned");
        let resident = r.resident();
        assert!(
            resident.blocks <= 2 * HORIZON as usize,
            "{} blocks resident",
            resident.blocks
        );
        assert!(resident.votes <= 4 * 2 * HORIZON as usize);
        assert!(resident.certs <= 2 * HORIZON as usize);

        // A late vote, a late proposal (with the QC it carries), and a
        // sync request for the pruned rounds: all dropped, nothing grows,
        // nothing panics.
        let log_len = r.commit_log().len();
        assert!(r.on_vote(&old_vote, now).updates.is_empty());
        let out = r.on_proposal(&p2, now);
        assert!(out.vote.is_none() && out.updates.is_empty() && out.sync_requests.is_empty());
        let request = BlockRequest::new(ReplicaId::new(3), p1.block().id(), 8);
        assert!(r.on_sync_request(&request).is_none());
        assert_eq!(r.resident(), resident);
        assert_eq!(r.commit_log().len(), log_len);
        assert!(!r.is_syncing(), "a stale certificate is not a fetch target");
        assert_eq!(r.commit_level(p1.block().id()), None, "aged out");
    }

    #[test]
    fn chained_propose_on_unknown_high_qc_keeps_the_mempool_intact() {
        use sft_core::PayloadSource;
        use sft_types::BatchConfig;
        // Replica 2 will lead round 2 but never receives the round-1
        // proposal (e.g. it sits in the losing half of an equivocation
        // split). Votes are broadcast, so it still certifies the unknown
        // block and adopts it as high-QC — and must then decline to chain
        // a proposal *without* draining (and losing) a mempool batch.
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let r2 = replicas
            .remove(2)
            .with_payload_source(PayloadSource::Mempool(BatchConfig::with_max_txns(8)));
        replicas.insert(2, r2);
        for seq in 0..8 {
            assert_eq!(
                replicas[2].submit(Transaction::new(5, seq, vec![0; 8])),
                Admission::Admitted
            );
        }
        let proposal = replicas[1].try_propose(Payload::empty()).expect("leader");
        let votes: Vec<_> = [0usize, 1, 3]
            .into_iter()
            .filter_map(|i| replicas[i].on_proposal(&proposal, now).vote)
            .collect();
        assert_eq!(votes.len(), 3, "a full quorum votes");
        let before = replicas[2].mempool().len();
        for vote in &votes {
            let out = replicas[2].on_vote(vote, now);
            assert!(
                out.next_proposal.is_none(),
                "cannot propose on an unknown high-QC parent"
            );
        }
        assert_eq!(
            replicas[2].current_round(),
            Round::new(2),
            "the QC still advanced the round"
        );
        assert_eq!(
            replicas[2].mempool().len(),
            before,
            "no batch was drained into the failed propose"
        );
    }

    #[test]
    fn a_paced_leader_holds_its_proposal_until_it_is_due_and_drains_nothing_before() {
        use sft_core::PayloadSource;
        use sft_types::BatchConfig;
        // One round per 10 ms with no burst allowance: replica 2 becomes
        // the leader of round 2 the instant round 1 certifies (t = 1 ms),
        // and round 2 is due one interval after that.
        let mut replicas = system(4);
        let r2 = replicas
            .remove(2)
            .with_payload_source(PayloadSource::Mempool(BatchConfig::with_max_txns(8)));
        replicas.insert(2, r2);
        replicas[2].set_round_pace(SimDuration::from_millis(10), 0);
        replicas[2].submit(Transaction::new(5, 0, vec![0; 8]));

        let now = SimTime::from_millis(1);
        let proposal = replicas[1].try_propose(Payload::empty()).expect("leader");
        let votes: Vec<_> = replicas
            .iter_mut()
            .filter_map(|r| r.on_proposal(&proposal, now).vote)
            .collect();
        for vote in &votes {
            let out = replicas[2].on_vote(vote, now);
            assert!(out.next_proposal.is_none(), "ahead of the pace");
        }
        assert_eq!(replicas[2].current_round(), Round::new(2));
        assert!(replicas[2].proposal_held());
        let due = SimTime::from_millis(11);
        assert_eq!(replicas[2].next_deadline(), due, "wake me when it is due");
        assert_eq!(replicas[2].mempool().len(), 1, "nothing drained yet");

        // A transaction that arrives while the proposal waits rides it.
        replicas[2].submit(Transaction::new(5, 1, vec![0; 8]));
        assert!(replicas[2]
            .try_propose_chained(SimTime::from_millis(10))
            .is_none());
        let sent = replicas[2].try_propose_chained(due).expect("due now");
        assert_eq!(sent.block().round(), Round::new(2));
        assert_eq!(sent.block().payload().txn_count(), 2);
        assert!(!replicas[2].proposal_held());
        assert_eq!(
            replicas[2].next_deadline(),
            replicas[2].pacemaker().deadline(),
            "back to the round timer"
        );
    }
}
