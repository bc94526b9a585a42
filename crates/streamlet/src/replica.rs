//! The SFT-Streamlet replica state machine.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use sft_core::{
    Admission, Block, BlockStore, BlockStoreError, CommitLedger, EndorsementTracker, Mempool,
    PayloadSource, ProtocolConfig, ResidentState, Retention, SyncManager, SyncStats, VoteOutcome,
    VoteTracker, VoterState, WalRecord,
};
use sft_crypto::{HashValue, KeyPair, KeyRegistry, SigStats};
use sft_types::{
    BlockRequest, EndorseMode, Height, Payload, ReplicaId, Round, SimDuration, SimTime,
    StrongCommitUpdate, StrongVote, Transaction, VerifyPolicy,
};

use crate::message::Proposal;

pub use sft_core::BlockResponse;

/// A single SFT-Streamlet replica: epoch state machine, vote aggregation,
/// the two-level commit rule, and the strong-commit log.
///
/// The protocol per epoch `e` (Appendix D, with rounds standing in for
/// Streamlet's epochs):
///
/// 1. the leader of `e` proposes a block extending the tip of a longest
///    notarized chain ([`Replica::begin_epoch`]);
/// 2. every replica votes for the first valid proposal of `e` that extends
///    a longest notarized chain it knows ([`Replica::on_proposal`]), and
///    broadcasts the vote;
/// 3. a block with `2f + 1` votes becomes *notarized*; three notarized
///    blocks at consecutive rounds commit the chain through the middle one
///    ([`Replica::on_vote`]) — the *standard* commit, strength `f`;
/// 4. endorsements carried by strong-votes keep accumulating and raise
///    committed blocks to higher strength levels, up to `2f` — the
///    *strengthened* commits, reported as
///    [`StrongCommitUpdate`]s in the replica's [`commit log`](Replica::commit_log).
///
/// # Examples
///
/// Driving one full epoch of a 4-replica system by hand:
///
/// ```
/// use sft_core::ProtocolConfig;
/// use sft_crypto::KeyRegistry;
/// use sft_streamlet::{EndorseMode, Replica};
/// use sft_types::{Payload, Round};
///
/// let config = ProtocolConfig::for_replicas(4);
/// let registry = KeyRegistry::deterministic(4);
/// let mut replicas: Vec<Replica> = (0..4)
///     .map(|i| Replica::new(i, config, registry.clone(), EndorseMode::Marker))
///     .collect();
///
/// // Epoch 1: replica 1 leads (round-robin), proposes, everyone votes.
/// let epoch = Round::new(1);
/// assert_eq!(Replica::leader(config, epoch), replicas[1].id());
/// let proposal = replicas[1].begin_epoch(epoch, Payload::empty()).expect("leader proposes");
/// let votes: Vec<_> = replicas
///     .iter_mut()
///     .map(|r| {
///         if r.id() != proposal.block().proposer() {
///             r.begin_epoch(epoch, Payload::empty());
///         }
///         r.on_proposal(&proposal).expect("honest replicas vote")
///     })
///     .collect();
/// for vote in &votes {
///     for replica in replicas.iter_mut() {
///         replica.on_vote(vote);
///     }
/// }
/// // One epoch notarizes the block but cannot commit it yet: the
/// // three-consecutive-epochs window is still open.
/// assert!(replicas[0].is_notarized(proposal.block().id()));
/// assert!(replicas[0].committed_chain().is_empty());
/// ```
pub struct Replica {
    id: ReplicaId,
    config: ProtocolConfig,
    key_pair: KeyPair,
    store: BlockStore,
    votes: VoteTracker,
    endorsements: EndorsementTracker,
    /// Notarized block ids with their rounds (genesis at round 0).
    notarized: HashMap<HashValue, Round>,
    /// Notarized children per block id, the index the incremental commit
    /// rule walks instead of rescanning the whole notarized set.
    notarized_children: HashMap<HashValue, Vec<HashValue>>,
    /// The tip of a longest notarized chain among stored blocks, with the
    /// (height, round, id) key it won by — maintained as blocks notarize
    /// instead of rescanning the notarized set per proposal.
    tip: (Height, Round, HashValue),
    epoch: Round,
    /// The last vote this replica cast and the endorsement info it
    /// carried: the vote-once rule and the §3.2 / §3.4 marker maintenance.
    voter: VoterState,
    ledger: CommitLedger,
    commit_log: Vec<StrongCommitUpdate>,
    /// Transactions carried by the committed chain, counted at commit.
    txns_committed: u64,
    /// Where [`begin_epoch_sourced`](Self::begin_epoch_sourced) gets its
    /// payloads; `None` means callers always supply payloads explicitly.
    payload_source: Option<PayloadSource>,
    /// Client transactions awaiting inclusion (drained by the mempool
    /// payload source; pruned when other leaders' blocks carry them).
    mempool: Mempool,
    /// Block-sync state: certified-but-unknown targets, in-flight fetches,
    /// and the orphan pool.
    sync: SyncManager,
    /// Commit-rule middles declared while the local chain still had holes;
    /// retried after every sync admission.
    deferred_commits: Vec<HashValue>,
    /// Durable consensus events pending write-ahead persistence, drained
    /// by the engine into `EngineStep::persist`.
    wal: Vec<WalRecord>,
    /// Certificates already logged, by (round, digest), so
    /// re-certification paths (sync recovery, replay) never duplicate a
    /// `QcFormed` record.
    logged_qcs: BTreeSet<(Round, HashValue)>,
    /// How far behind the committed tip state is kept (see [`Retention`]).
    retention: Retention,
}

impl Replica {
    /// Creates replica `id` of an `n`-replica system.
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
        let store = BlockStore::new();
        let genesis_id = store.genesis_id();
        Self {
            id: ReplicaId::new(id),
            config,
            key_pair,
            votes: VoteTracker::new(config, registry),
            endorsements: EndorsementTracker::new(config),
            store,
            notarized: HashMap::from([(genesis_id, Round::ZERO)]),
            notarized_children: HashMap::new(),
            tip: (Height::ZERO, Round::ZERO, genesis_id),
            epoch: Round::ZERO,
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
        }
    }

    /// Replaces the retention horizon ([`sft_core::RETENTION_ROUNDS`] by
    /// default) with `rounds` behind the committed tip. Tests shrink it to
    /// exercise pruning in short runs; set it before the first message.
    pub fn set_retention(&mut self, rounds: u64) {
        self.retention = Retention::new(rounds);
    }

    /// Sets the block-sync retry timeout (how long to wait for a response
    /// before re-asking another peer). Drivers derive it from their δ.
    pub fn with_sync_retry(mut self, retry_after: SimDuration) -> Self {
        self.sync.set_retry_after(retry_after);
        self
    }

    /// Configures where [`begin_epoch_sourced`](Self::begin_epoch_sourced)
    /// gets its payloads (a synthetic descriptor or this replica's
    /// mempool).
    pub fn with_payload_source(mut self, source: PayloadSource) -> Self {
        self.payload_source = Some(source);
        self
    }

    /// Switches vote aggregation to `policy` — verify every signature on
    /// arrival (the default) or defer to one batched check at quorum.
    /// Call right after construction, before any vote is ingested.
    pub fn with_verify_policy(mut self, policy: VerifyPolicy) -> Self {
        self.votes = self.votes.with_policy(policy);
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

    /// The current epoch.
    pub fn epoch(&self) -> Round {
        self.epoch
    }

    /// The deterministic round-robin leader of `epoch`.
    pub fn leader(config: ProtocolConfig, epoch: Round) -> ReplicaId {
        ReplicaId::new((epoch.as_u64() % config.n() as u64) as u16)
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

    /// True if `block_id` has reached the `2f + 1` notarization quorum (and
    /// is still inside the retention horizon).
    pub fn is_notarized(&self, block_id: HashValue) -> bool {
        self.notarized.contains_key(&block_id)
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

    /// Replicas caught equivocating by this replica's vote tracker.
    pub fn observed_equivocators(&self) -> &[ReplicaId] {
        self.votes.equivocators()
    }

    /// Advances to `epoch`; if this replica leads it, returns a signed
    /// proposal extending the tip of a longest notarized chain, carrying
    /// `payload`. Non-leaders (and stale epochs) return `None`.
    pub fn begin_epoch(&mut self, epoch: Round, payload: Payload) -> Option<Proposal> {
        if !self.enter_epoch(epoch) || !self.can_extend_tip(epoch) {
            return None;
        }
        Some(self.propose(epoch, payload))
    }

    /// Advances to `epoch`; if this replica leads it, drains the next
    /// payload from its configured [`PayloadSource`] (a batch from the
    /// mempool, or a synthetic descriptor) and proposes it. Returns `None`
    /// for non-leaders, stale epochs, or when no source is configured —
    /// but the epoch advances in every non-stale case, so a source-less
    /// replica still follows the clock (and votes) like everyone else.
    pub fn begin_epoch_sourced(&mut self, epoch: Round) -> Option<Proposal> {
        if !self.enter_epoch(epoch) || !self.can_extend_tip(epoch) {
            return None;
        }
        let source = self.payload_source?;
        let payload = source.next_payload(&mut self.mempool, epoch);
        Some(self.propose(epoch, payload))
    }

    /// Whether a proposal in `epoch` can legally extend the current tip.
    /// False for a replica whose epoch clock lags its synced chain (a
    /// restarted process catching up to live peers): blocks carry strictly
    /// increasing rounds, so a lagging leader declines its slot instead of
    /// proposing a block nobody could vote for.
    fn can_extend_tip(&self, epoch: Round) -> bool {
        self.tip().round() < epoch
    }

    /// Moves to `epoch` (stale epochs are refused) and reports whether this
    /// replica leads it.
    fn enter_epoch(&mut self, epoch: Round) -> bool {
        if epoch <= self.epoch {
            return false;
        }
        self.epoch = epoch;
        Self::leader(self.config, epoch) == self.id
    }

    fn propose(&mut self, epoch: Round, payload: Payload) -> Proposal {
        let tip = self.tip().clone();
        let block = Block::new(&tip, epoch, self.id, payload);
        self.store
            .insert(block.clone())
            .expect("tip is in the store");
        Proposal::new(block, &self.key_pair)
    }

    /// Handles a proposal. Returns this replica's strong-vote if the
    /// Streamlet voting rule fires: the proposal is signed by the epoch's
    /// leader, is the first this replica votes on in the epoch, and extends
    /// the tip of a longest notarized chain. The vote must be broadcast to
    /// all replicas (the caller owns transport).
    pub fn on_proposal(&mut self, proposal: &Proposal) -> Option<StrongVote> {
        let block = proposal.block();
        if block.round() < self.retention.floor() {
            return None; // stale: older than anything this replica still keeps
        }
        if !proposal.verify(self.votes_registry()) {
            return None;
        }
        if block.proposer() != Self::leader(self.config, block.round()) {
            return None;
        }
        // Record the block regardless of the voting decision — descendants
        // may arrive later. Orphans (unknown parent — the parent's proposal
        // is still in flight, or this replica missed epochs behind a
        // partition) are pooled with the sync manager, which chases the
        // missing ancestry.
        match self.store.insert(block.clone()) {
            Ok(_) => {}
            Err(BlockStoreError::UnknownParent) => {
                self.sync
                    .note_orphan_block(block.clone(), true, &self.store);
                return None;
            }
            Err(_) => return None,
        }
        let mut vote = self.adopt(block.id(), true);
        // The block may be the parent an orphaned proposal was waiting
        // for: the released children get the same treatment, in order
        // (fetched segments carry no leader signature, so only those that
        // had arrived as proposals may be voted for).
        for (id, from_proposal) in self.sync.note_stored(block.id(), &mut self.store) {
            vote = vote.or(self.adopt(id, from_proposal));
        }
        vote
    }

    /// The part of the proposal path that runs once a block is in the
    /// store: its transactions stop being offered, a certificate that
    /// formed before the block arrived is indexed, and — if it arrived as
    /// a verified proposal (`may_vote`) for the current epoch — the
    /// Streamlet voting rule fires.
    fn adopt(&mut self, id: HashValue, may_vote: bool) -> Option<StrongVote> {
        if let Some(round) = self.notarized.get(&id).copied() {
            self.note_notarized(id, round);
        }
        let block = self.store.get(id)?;
        if let Payload::Transactions(txns) = block.payload() {
            self.mempool.mark_included(txns.iter(), block.round());
        }
        if !may_vote
            || block.round() != self.epoch
            || block.round() <= self.voter.last_voted_round()
        {
            return None;
        }
        if !self.extends_longest_notarized(block) {
            // The leader treated the parent as notarized; if this replica
            // never saw that quorum (its votes were lost), fetch the
            // certificate so later proposals on this chain can win votes —
            // the re-convergence path for notarized sets under loss.
            if !self.notarized.contains_key(&block.parent_id()) {
                self.sync.note_want(block.parent_id(), block.parent_round());
            }
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

    /// Handles a broadcast vote (including this replica's own). Counts it,
    /// records its endorsements, applies the two-level commit rule, and
    /// returns the commit-log entries this vote produced: standard commits
    /// at strength ≥ `f` and strengthened-level increases up to `2f`.
    pub fn on_vote(&mut self, vote: &StrongVote) -> Vec<StrongCommitUpdate> {
        let outcome = self.votes.add_vote(vote);
        // Endorsements are credited only from verified votes: the drain
        // returns the vote just accepted under verify-on-arrival, and the
        // whole batch the quorum check validated under verify-on-quorum
        // (optimistically counted votes carry no endorsement weight until
        // their signatures clear).
        let mut grown = Vec::new();
        for verified in self.votes.take_newly_verified() {
            grown.extend(self.endorsements.record_vote(&verified, &self.store));
        }
        let newly_certified = match outcome {
            VoteOutcome::BadSignature
            | VoteOutcome::Equivocation
            | VoteOutcome::Duplicate
            | VoteOutcome::Stale => None,
            VoteOutcome::Certified(qc) => {
                // Votes are broadcast, so a replica can certify a block it
                // never received (a lost proposal): the sync manager
                // records the certificate and, if needed, fetches the block.
                self.sync.note_certificate(&qc, &self.store);
                if self.logged_qcs.insert((qc.round(), qc.digest())) {
                    self.wal.push(WalRecord::QcFormed(qc.clone()));
                }
                Some((qc.block_id(), qc.round()))
            }
            VoteOutcome::Counted(_) => None,
        };

        let mut updates = Vec::new();
        if let Some((block_id, round)) = newly_certified {
            self.note_notarized(block_id, round);
            let committed = self.apply_commit_rule(block_id);
            updates = self.commit_blocks(committed);
        }
        // Endorsements may have raised the strength of blocks committed
        // earlier (possibly far in the past): report each increase once.
        for block_id in grown {
            if self.ledger.contains(block_id) {
                if let Some(update) = self.endorsements.take_level_update(block_id, &self.store) {
                    updates.push(update);
                }
            }
        }
        self.commit_log.extend(updates.iter().copied());
        updates
    }

    /// The tip of a longest notarized chain (ties broken by round then id,
    /// so all replicas with the same notarized set pick the same tip).
    fn tip(&self) -> &Block {
        self.store
            .get(self.tip.2)
            .expect("the tip is stored: sweeps re-pick one they prune")
    }

    fn extends_longest_notarized(&self, block: &Block) -> bool {
        if !self.notarized.contains_key(&block.parent_id()) {
            return false;
        }
        let max_height = self.tip().height();
        self.store
            .get(block.parent_id())
            .is_some_and(|parent| parent.height() == max_height)
    }

    /// Streamlet's commit rule: three notarized blocks at consecutive
    /// rounds finalize the chain through the middle one. Returns newly
    /// committed block ids, oldest first.
    ///
    /// Incremental: only windows containing the newly certified block can
    /// have just closed, so the scan is bounded by that block's notarized
    /// children — not the whole notarized set. Assumes blocks are stored
    /// before their certification completes (lock-step delivery guarantees
    /// proposals precede votes; an async network layer must buffer votes
    /// for unknown blocks to keep this invariant).
    fn apply_commit_rule(&mut self, certified: HashValue) -> Vec<HashValue> {
        let Some(block) = self.store.get(certified) else {
            return Vec::new();
        };
        let block_round = block.round();
        let parent_id = block.parent_id();
        let parent_round = block.parent_round();
        let parent_linked =
            self.notarized.contains_key(&parent_id) && parent_round.precedes(block_round);

        // Candidate middles of consecutive-round windows containing the
        // newly certified block (genesis counts as a window's oldest
        // element at round 0, but never as a middle).
        let mut middles: Vec<HashValue> = Vec::new();

        // (grandparent, parent, certified) — middle = parent.
        if parent_linked && parent_round > Round::ZERO {
            if let Some(parent) = self.store.get(parent_id) {
                if self.notarized.contains_key(&parent.parent_id())
                    && parent.parent_round().precedes(parent_round)
                {
                    middles.push(parent_id);
                }
            }
        }

        let children = self
            .notarized_children
            .get(&certified)
            .cloned()
            .unwrap_or_default();
        for child_id in children {
            let Some(child) = self.store.get(child_id) else {
                continue;
            };
            let child_round = child.round();
            if !block_round.precedes(child_round) {
                continue;
            }
            // (parent, certified, child) — middle = certified.
            if parent_linked {
                middles.push(certified);
            }
            // (certified, child, grandchild) — middle = child.
            for grandchild_id in self
                .notarized_children
                .get(&child_id)
                .cloned()
                .unwrap_or_default()
            {
                if let Some(grandchild) = self.store.get(grandchild_id) {
                    if child_round.precedes(grandchild.round()) {
                        middles.push(child_id);
                    }
                }
            }
        }

        let best_middle = middles
            .into_iter()
            .filter_map(|id| self.store.get(id))
            .max_by(|a, b| (a.height(), a.round(), a.id()).cmp(&(b.height(), b.round(), b.id())))
            .map(Block::id);
        match best_middle {
            Some(middle_id) => {
                let committed = self.ledger.finalize_through(&self.store, middle_id);
                if committed.is_empty() && !self.ledger.contains(middle_id) {
                    // The window closed but the chain below it has holes
                    // (ancestors still being fetched): finalize once sync
                    // fills them, or a later window will.
                    if !self.deferred_commits.contains(&middle_id) {
                        self.deferred_commits.push(middle_id);
                    }
                }
                committed
            }
            None => Vec::new(),
        }
    }

    /// Marks `block_id` (of `round`) notarized and, once the block is
    /// stored, indexes it under its parent for the incremental commit rule
    /// and lets it contend for the tip. Idempotent: called again when a
    /// block certified before it arrived finally lands.
    fn note_notarized(&mut self, block_id: HashValue, round: Round) {
        self.notarized.insert(block_id, round);
        let Some(block) = self.store.get(block_id) else {
            return;
        };
        let children = self
            .notarized_children
            .entry(block.parent_id())
            .or_default();
        if !children.contains(&block_id) {
            children.push(block_id);
        }
        self.tip = self.tip.max((block.height(), block.round(), block_id));
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
        let genesis_id = self.store.genesis_id();
        self.notarized
            .retain(|id, round| *round >= floor || *id == genesis_id);
        let store = &self.store;
        self.notarized_children
            .retain(|parent, _| store.contains(*parent));
        self.logged_qcs = self.logged_qcs.split_off(&(floor, HashValue::zero()));
        self.mempool.prune_below(floor);
        // With at most f faults the tip sits above the committed tip and
        // is never swept. Beyond f a longest notarized chain can be a
        // stale fork; if the sweep took its tip, pick the next best.
        if !self.store.contains(self.tip.2) {
            self.tip = self
                .notarized
                .keys()
                .filter_map(|id| self.store.get(*id))
                .map(|block| (block.height(), block.round(), block.id()))
                .max()
                .expect("genesis is never pruned");
        }
    }

    /// Takes the durable consensus events buffered since the last drain,
    /// in occurrence order. The engine moves them into
    /// [`EngineStep::persist`](sft_core::EngineStep) so the harness can
    /// write them ahead of the messages they justify.
    pub fn drain_wal(&mut self) -> Vec<WalRecord> {
        std::mem::take(&mut self.wal)
    }

    /// Re-applies one recovered write-ahead-log record at restart.
    ///
    /// Replay restores exactly what the log promised durability for: vote
    /// dedup and the marker bookkeeping — a `VoteSent` record carries the
    /// endorsement info the vote did, which is all [`VoterState`] needs
    /// (the recovered replica never votes twice in an epoch its pre-crash
    /// self voted in), the notarized set behind formed
    /// certificates, and the committed prefix. Records are chronological,
    /// so committed blocks replay parent-first and always attach.
    /// Endorsement tallies are *not* persisted: strength grades resume
    /// accumulating from live votes only, which only under-reports
    /// strength — never a committed block.
    pub fn replay(&mut self, record: &WalRecord) {
        match record {
            WalRecord::VoteSent(vote) => {
                self.voter.record(vote);
                self.epoch = self.epoch.max(vote.round());
            }
            WalRecord::QcFormed(qc) => {
                self.sync.note_certificate(qc, &self.store);
                self.logged_qcs.insert((qc.round(), qc.digest()));
                let block_id = qc.block_id();
                if self.store.contains(block_id) {
                    self.note_notarized(block_id, qc.round());
                    let committed = self.apply_commit_rule(block_id);
                    let updates = self.commit_blocks(committed);
                    self.commit_log.extend(updates);
                }
            }
            // Streamlet has no timeout certificates; a foreign record in
            // the log is ignored rather than fatal.
            WalRecord::TcFormed(_) => {}
            WalRecord::BlockCommitted(block) => {
                match self.store.insert(block.clone()) {
                    Ok(_) => {
                        self.sync.note_stored(block.id(), &mut self.store);
                    }
                    Err(BlockStoreError::UnknownParent) => {
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
                if self.store.contains(block.id()) {
                    // A committed block necessarily carried a quorum.
                    self.note_notarized(block.id(), block.round());
                    let committed = self.ledger.finalize_through(&self.store, block.id());
                    let updates = self.commit_blocks(committed);
                    self.commit_log.extend(updates);
                }
                self.epoch = self.epoch.max(block.round());
            }
        }
        // Replay-derived records are already in the log being replayed:
        // re-persisting them would duplicate the file on every restart.
        self.wal.clear();
    }

    /// Block-sync fetches now due (new targets and expired retries), to be
    /// sent point-to-point to the named peer. Drivers poll this once per
    /// delivery phase.
    pub fn take_sync_requests(&mut self, now: SimTime) -> Vec<(ReplicaId, BlockRequest)> {
        self.sync.take_requests(now)
    }

    /// Serves a peer's block-sync request from the local store, if this
    /// replica holds both the block and a certificate for it.
    pub fn on_sync_request(&mut self, request: &BlockRequest) -> Option<BlockResponse> {
        self.sync.serve(request, &self.store)
    }

    /// Handles a block-sync response: verifies it against the certificate
    /// chain, admits what attaches, indexes recovered notarized blocks, and
    /// re-runs the commit rule — the path a lagging replica's committed
    /// prefix is rebuilt through. Returns the commit-log entries produced.
    ///
    /// The response's certificate is validated structurally, like every
    /// certificate in this workspace (see the trust-model note in
    /// [`sft_core::sync`]): treating it as proof of notarization extends
    /// the same structural trust granted to a proposal's embedded QC to
    /// the serving peer. Authenticated (threshold-signed) certificates
    /// replace that assumption when real networking lands.
    pub fn on_sync_response(
        &mut self,
        response: &BlockResponse,
        now: SimTime,
    ) -> Vec<StrongCommitUpdate> {
        let admitted = self.sync.on_response_timed(response, &mut self.store, now);
        // The response's certificate may notarize a block this replica
        // already held (a certificate-want): process it alongside the
        // admitted blocks so the notarized set re-converges.
        let mut touched = admitted;
        let target = response.target();
        if !touched.contains(&target) && self.store.contains(target) {
            touched.push(target);
        }
        let mut updates = Vec::new();
        for id in touched {
            // Recovered blocks are stored, never voted on: a replica that
            // needed block sync is behind the epoch they were proposed in.
            self.adopt(id, false);
            // A block counts as notarized here if this replica certified
            // it itself (possibly while the block was still unknown) or a
            // verified sync response carried its certificate. Index it and
            // let the commit rule see the recovered windows.
            let certificate = self.sync.certificate_for(id).cloned();
            let round = match (&certificate, self.notarized.get(&id)) {
                (Some(qc), _) => qc.round(),
                (None, Some(round)) => *round,
                (None, None) => continue,
            };
            if !self.store.contains(id) {
                continue;
            }
            if let Some(qc) = certificate {
                if self.logged_qcs.insert((qc.round(), qc.digest())) {
                    self.wal.push(WalRecord::QcFormed(qc));
                }
            }
            self.note_notarized(id, round);
            let committed = self.apply_commit_rule(id);
            updates.extend(self.commit_blocks(committed));
        }
        let committed = self
            .ledger
            .finalize_deferred(&self.store, &mut self.deferred_commits);
        updates.extend(self.commit_blocks(committed));
        self.commit_log.extend(updates.iter().copied());
        updates
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

    /// Signature-verification counters from vote aggregation — the
    /// evidence behind the verify-on-quorum scaling claim.
    pub fn sig_stats(&self) -> SigStats {
        self.votes.sig_stats()
    }

    /// Installs the recorder block-sync timing flows into.
    pub fn set_recorder(&mut self, recorder: sft_obs::SharedRecorder) {
        self.sync.set_recorder(recorder);
    }

    /// True while this replica is still chasing missing blocks.
    pub fn is_syncing(&self) -> bool {
        self.sync.is_syncing()
    }

    fn votes_registry(&self) -> &KeyRegistry {
        // The tracker owns the registry clone; reuse it for proposals.
        self.votes.registry()
    }
}

impl fmt::Debug for Replica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Replica({} epoch={} notarized={} committed={})",
            self.id,
            self.epoch,
            self.notarized.len(),
            self.ledger.chain().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_types::BatchConfig;

    fn replica(id: u16) -> Replica {
        let config = ProtocolConfig::for_replicas(4);
        let registry = KeyRegistry::deterministic(4);
        Replica::new(id, config, registry, EndorseMode::Marker)
    }

    /// Runs one epoch by hand: everyone enters it, the leader proposes,
    /// every replica but `skip` sees the proposal, all votes reach all.
    fn run_epoch(replicas: &mut [Replica], epoch: u64, skip: Option<usize>) -> Proposal {
        let epoch = Round::new(epoch);
        let leader = Replica::leader(replicas[0].config(), epoch).as_usize();
        let proposal = replicas[leader]
            .begin_epoch(epoch, Payload::empty())
            .expect("leader proposes");
        for r in replicas.iter_mut() {
            r.begin_epoch(epoch, Payload::empty());
        }
        let votes: Vec<StrongVote> = (0..replicas.len())
            .filter(|i| Some(*i) != skip)
            .filter_map(|i| replicas[i].on_proposal(&proposal))
            .collect();
        for vote in &votes {
            for r in replicas.iter_mut() {
                r.on_vote(vote);
            }
        }
        proposal
    }

    #[test]
    fn arrivals_for_pruned_epochs_are_ignored_and_resident_state_stays_bounded() {
        const HORIZON: u64 = 8;
        let mut replicas: Vec<Replica> = (0..4).map(replica).collect();
        for r in replicas.iter_mut() {
            r.set_retention(HORIZON);
        }
        let p1 = run_epoch(&mut replicas, 1, None);
        let old_vote = StrongVote::new(
            p1.block().vote_data(),
            sft_types::EndorseInfo::Marker(Round::ZERO),
            &KeyRegistry::deterministic(4).key_pair(3).unwrap(),
        );
        for epoch in 2..=62 {
            run_epoch(&mut replicas, epoch, None);
        }
        let r = &mut replicas[0];
        assert_eq!(r.committed_chain().len(), 61, "the chain ids all survive");
        assert!(!r.store().contains(p1.block().id()), "epoch 1 was pruned");
        assert!(!r.is_notarized(p1.block().id()));
        let resident = r.resident();
        assert!(
            resident.blocks <= 2 * HORIZON as usize,
            "{} blocks resident",
            resident.blocks
        );
        assert!(resident.votes <= 4 * 2 * HORIZON as usize);
        assert!(resident.certs <= 2 * HORIZON as usize);

        // A late vote, a late proposal, and a sync request for the pruned
        // epoch: all dropped, nothing grows, nothing panics.
        assert!(r.on_vote(&old_vote).is_empty());
        assert!(r.on_proposal(&p1).is_none());
        let request = BlockRequest::new(ReplicaId::new(3), p1.block().id(), 8);
        assert!(r.on_sync_request(&request).is_none());
        assert_eq!(r.resident(), resident);
        assert!(!r.is_syncing());
    }

    #[test]
    fn sourced_epoch_advances_even_without_a_payload_source() {
        // A source-less replica returns no proposal but must still follow
        // the epoch clock, or it would reject (and never vote on) every
        // current-epoch proposal from the real leader.
        let mut r = replica(1);
        assert!(r.begin_epoch_sourced(Round::new(1)).is_none());
        assert_eq!(r.epoch(), Round::new(1));
    }

    /// Regression: a proposal overtaken by its child on another connection
    /// used to leave the child in the orphan pool for good once the parent
    /// arrived by the normal path.
    #[test]
    fn orphaned_proposal_is_adopted_when_its_parent_arrives_by_the_normal_path() {
        let mut replicas: Vec<Replica> = (0..4).map(replica).collect();
        run_epoch(&mut replicas, 1, None);
        // Epoch 2 notarizes without replica 0 ever seeing the proposal.
        let p2 = run_epoch(&mut replicas, 2, Some(0));
        assert!(replicas[0].is_notarized(p2.block().id()));
        assert!(!replicas[0].store().contains(p2.block().id()));

        // Epoch 3: the child reaches replica 0 before its parent does.
        let epoch = Round::new(3);
        let p3 = replicas[3]
            .begin_epoch(epoch, Payload::empty())
            .expect("leader proposes");
        replicas[0].begin_epoch(epoch, Payload::empty());
        assert!(
            replicas[0].on_proposal(&p3).is_none(),
            "orphan: no vote yet"
        );
        // The parent lands: the child is adopted and voted for at once.
        let vote = replicas[0]
            .on_proposal(&p2)
            .expect("the adopted child gets its vote");
        assert_eq!(vote.data().block_id(), p3.block().id());
        assert!(replicas[0].store().contains(p3.block().id()));
        assert_eq!(replicas[0].sync_stats().orphans_adopted, 1);
    }

    #[test]
    fn sourced_epoch_drains_batches_for_the_leader() {
        let leader = Replica::leader(ProtocolConfig::for_replicas(4), Round::new(1));
        let mut r = replica(leader.as_u16())
            .with_payload_source(PayloadSource::Mempool(BatchConfig::with_max_txns(4)));
        for seq in 0..6 {
            assert_eq!(
                r.submit(Transaction::new(9, seq, vec![0; 4])),
                Admission::Admitted
            );
        }
        let proposal = r
            .begin_epoch_sourced(Round::new(1))
            .expect("leader proposes");
        assert_eq!(proposal.block().payload().txn_count(), 4);
        assert_eq!(r.mempool().len(), 2, "only one batch drained");
    }
}
