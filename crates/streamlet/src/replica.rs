//! The SFT-Streamlet replica state machine.

use std::collections::HashMap;
use std::fmt;

use sft_core::{Block, BlockStore, ChainKernel, Intake, ProtocolConfig, WalRecord};
use sft_crypto::{HashValue, KeyRegistry};
use sft_types::{EndorseMode, Height, Payload, Round, SimTime, StrongCommitUpdate, StrongVote};

use crate::message::Proposal;

pub use sft_core::BlockResponse;

/// A single SFT-Streamlet replica: the epoch, the notarized index, and the
/// proposal and commit rules that read it, over the shared
/// [`ChainKernel`] (store, tallies, strength-graded commit log, sync,
/// write-ahead buffer — reach it through [`kernel`](Self::kernel)).
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
///    *strengthened* commits, reported as [`StrongCommitUpdate`]s in the
///    kernel's [`commit log`](ChainKernel::commit_log).
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
/// assert_eq!(config.leader(epoch), replicas[1].kernel().id());
/// let proposal = replicas[1].begin_epoch(epoch, Payload::empty()).expect("leader proposes");
/// let votes: Vec<_> = replicas
///     .iter_mut()
///     .map(|r| {
///         if r.kernel().id() != proposal.block().proposer() {
///             r.begin_epoch(epoch, Payload::empty());
///         }
///         r.on_proposal(&proposal).vote.expect("honest replicas vote")
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
/// assert!(replicas[0].kernel().committed_chain().is_empty());
/// ```
pub struct Replica {
    kernel: ChainKernel,
    notarized: Notarized,
    epoch: Round,
}

/// The notarized index: what Streamlet's proposal and commit rules read.
struct Notarized {
    /// Notarized block ids with their rounds (genesis at round 0).
    rounds: HashMap<HashValue, Round>,
    /// Notarized children per block id, the index the incremental commit
    /// rule walks instead of rescanning the whole notarized set.
    children: HashMap<HashValue, Vec<HashValue>>,
    /// The tip of a longest notarized chain among stored blocks, with the
    /// (height, round, id) key it won by (ties broken by round then id, so
    /// all replicas with the same notarized set pick the same tip) —
    /// maintained as blocks notarize instead of rescanning the set per
    /// proposal.
    tip: (Height, Round, HashValue),
}

impl Notarized {
    fn new(genesis_id: HashValue) -> Self {
        Self {
            rounds: HashMap::from([(genesis_id, Round::ZERO)]),
            children: HashMap::new(),
            tip: (Height::ZERO, Round::ZERO, genesis_id),
        }
    }

    fn contains(&self, id: HashValue) -> bool {
        self.rounds.contains_key(&id)
    }

    fn tip<'a>(&self, store: &'a BlockStore) -> &'a Block {
        store
            .get(self.tip.2)
            .expect("the tip is stored: sweeps re-pick one they prune")
    }

    /// Marks `block_id` (of `round`) notarized and, once the block is
    /// stored, indexes it under its parent for the incremental commit rule
    /// and lets it contend for the tip. Idempotent: called again when a
    /// block certified before it arrived finally lands.
    fn note(&mut self, store: &BlockStore, block_id: HashValue, round: Round) {
        self.rounds.insert(block_id, round);
        let Some(block) = store.get(block_id) else {
            return;
        };
        let children = self.children.entry(block.parent_id()).or_default();
        if !children.contains(&block_id) {
            children.push(block_id);
        }
        self.tip = self.tip.max((block.height(), block.round(), block_id));
    }

    fn extends_longest(&self, store: &BlockStore, block: &Block) -> bool {
        self.contains(block.parent_id())
            && store
                .get(block.parent_id())
                .is_some_and(|parent| parent.height() == self.tip(store).height())
    }

    /// Streamlet's commit rule: three notarized blocks at consecutive
    /// rounds finalize the chain through the middle one. Returns the best
    /// such middle among the windows the newly `certified` block closed.
    ///
    /// Incremental: only windows containing the newly certified block can
    /// have just closed, so the scan is bounded by that block's notarized
    /// children — not the whole notarized set. Assumes blocks are stored
    /// before their certification completes (lock-step delivery guarantees
    /// proposals precede votes; an async network layer must buffer votes
    /// for unknown blocks to keep this invariant).
    fn commit_target(&self, store: &BlockStore, certified: HashValue) -> Option<HashValue> {
        let block = store.get(certified)?;
        let block_round = block.round();
        let parent_id = block.parent_id();
        let parent_round = block.parent_round();
        let parent_linked = self.contains(parent_id) && parent_round.precedes(block_round);

        // Candidate middles of consecutive-round windows containing the
        // newly certified block (genesis counts as a window's oldest
        // element at round 0, but never as a middle).
        let mut middles: Vec<HashValue> = Vec::new();

        // (grandparent, parent, certified) — middle = parent.
        if parent_linked && parent_round > Round::ZERO {
            if let Some(parent) = store.get(parent_id) {
                if self.contains(parent.parent_id()) && parent.parent_round().precedes(parent_round)
                {
                    middles.push(parent_id);
                }
            }
        }

        for child_id in self.children.get(&certified).into_iter().flatten() {
            let Some(child) = store.get(*child_id) else {
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
            for grandchild_id in self.children.get(child_id).into_iter().flatten() {
                if let Some(grandchild) = store.get(*grandchild_id) {
                    if child_round.precedes(grandchild.round()) {
                        middles.push(*child_id);
                    }
                }
            }
        }

        middles
            .into_iter()
            .filter_map(|id| store.get(id))
            .max_by(|a, b| (a.height(), a.round(), a.id()).cmp(&(b.height(), b.round(), b.id())))
            .map(Block::id)
    }

    /// Drops what the kernel's sweep to `floor` left dangling.
    fn sweep(&mut self, store: &BlockStore, floor: Round) {
        let genesis_id = store.genesis_id();
        self.rounds
            .retain(|id, round| *round >= floor || *id == genesis_id);
        self.children.retain(|parent, _| store.contains(*parent));
        // With at most f faults the tip sits above the committed tip and
        // is never swept. Beyond f a longest notarized chain can be a
        // stale fork; if the sweep took its tip, pick the next best.
        if !store.contains(self.tip.2) {
            self.tip = self
                .rounds
                .keys()
                .filter_map(|id| store.get(*id))
                .map(|block| (block.height(), block.round(), block.id()))
                .max()
                .expect("genesis is never pruned");
        }
    }
}

impl Replica {
    /// Creates replica `id` of an `n`-replica system.
    ///
    /// # Panics
    ///
    /// Panics if the registry holds no key for `id` or fewer than
    /// `config.n()` keys.
    pub fn new(id: u16, config: ProtocolConfig, registry: KeyRegistry, mode: EndorseMode) -> Self {
        let kernel = ChainKernel::new(id, config, registry, mode);
        Self {
            notarized: Notarized::new(kernel.store().genesis_id()),
            kernel,
            epoch: Round::ZERO,
        }
    }

    /// The replica's protocol-agnostic state: store, commit log, mempool,
    /// sync and every gauge.
    pub fn kernel(&self) -> &ChainKernel {
        &self.kernel
    }

    /// Mutable access to the kernel: setup (payload source, verify policy,
    /// sync retry, retention, caps), client submissions, block-sync
    /// serving, and the write-ahead buffer.
    pub fn kernel_mut(&mut self) -> &mut ChainKernel {
        &mut self.kernel
    }

    /// Consumes the replica into its kernel.
    pub fn into_kernel(self) -> ChainKernel {
        self.kernel
    }

    /// The current epoch.
    pub fn epoch(&self) -> Round {
        self.epoch
    }

    /// True if `block_id` has reached the `2f + 1` notarization quorum (and
    /// is still inside the retention horizon).
    pub fn is_notarized(&self, block_id: HashValue) -> bool {
        self.notarized.contains(block_id)
    }

    /// Advances to `epoch`; if this replica leads it, returns a signed
    /// proposal extending the tip of a longest notarized chain, carrying
    /// `payload`. Non-leaders (and stale epochs) return `None`.
    pub fn begin_epoch(&mut self, epoch: Round, payload: Payload) -> Option<Proposal> {
        if !self.enter_epoch(epoch) {
            return None;
        }
        Some(self.propose(epoch, payload))
    }

    /// Advances to `epoch`; if this replica leads it, drains the next
    /// payload from the kernel's configured source (a batch from the
    /// mempool, or a synthetic descriptor) and proposes it. Returns `None`
    /// for non-leaders, stale epochs, or when no source is configured —
    /// but the epoch advances in every non-stale case, so a source-less
    /// replica still follows the clock (and votes) like everyone else.
    pub fn begin_epoch_sourced(&mut self, epoch: Round) -> Option<Proposal> {
        if !self.enter_epoch(epoch) {
            return None;
        }
        let payload = self.kernel.next_payload(epoch)?;
        Some(self.propose(epoch, payload))
    }

    /// Moves to `epoch` (stale epochs are refused) and reports whether this
    /// replica leads it and can legally extend the current tip. It cannot
    /// while its epoch clock lags its synced chain (a restarted process
    /// catching up to live peers): blocks carry strictly increasing rounds,
    /// so a lagging leader declines its slot instead of proposing a block
    /// nobody could vote for.
    fn enter_epoch(&mut self, epoch: Round) -> bool {
        if epoch <= self.epoch {
            return false;
        }
        self.epoch = epoch;
        self.kernel.config().leader(epoch) == self.kernel.id()
            && self.notarized.tip(self.kernel.store()).round() < epoch
    }

    fn propose(&mut self, epoch: Round, payload: Payload) -> Proposal {
        let block = self
            .kernel
            .extend(self.notarized.tip.2, epoch, payload)
            .expect("the tip is stored");
        Proposal::new(block, self.kernel.key_pair())
    }

    /// Handles a proposal. The outcome carries this replica's strong-vote
    /// if the Streamlet voting rule fires: the proposal is signed by the
    /// epoch's leader, is the first this replica votes on in the epoch, and
    /// extends the tip of a longest notarized chain. The vote must be
    /// broadcast to all replicas (the caller owns transport).
    pub fn on_proposal(&mut self, proposal: &Proposal) -> Intake {
        let block = proposal.block();
        if !self.kernel.admits(block) || !proposal.verify(self.kernel.registry()) {
            return Intake::default();
        }
        let (epoch, notarized) = (self.epoch, &mut self.notarized);
        let mut want = None;
        let intake = self.kernel.accept_block(block, |store, block, may_vote| {
            // A certificate that formed before the block arrived is
            // indexed now.
            if let Some(round) = notarized.rounds.get(&block.id()).copied() {
                notarized.note(store, block.id(), round);
            }
            if !may_vote || block.round() != epoch {
                return false;
            }
            if notarized.extends_longest(store, block) {
                return true;
            }
            // The leader treated the parent as notarized; if this replica
            // never saw that quorum (its votes were lost), fetch the
            // certificate so later proposals on this chain can win votes —
            // the re-convergence path for notarized sets under loss.
            if !notarized.contains(block.parent_id()) {
                want = Some((block.parent_id(), block.parent_round()));
            }
            false
        });
        if let Some((id, round)) = want {
            self.kernel.want(id, round);
        }
        self.sweep();
        intake
    }

    /// Handles a broadcast vote (including this replica's own). Counts it,
    /// records its endorsements, applies the two-level commit rule, and
    /// returns the commit-log entries this vote produced: standard commits
    /// at strength ≥ `f` and strengthened-level increases up to `2f`.
    pub fn on_vote(&mut self, vote: &StrongVote) -> Vec<StrongCommitUpdate> {
        let (certified, grown) = self.kernel.add_vote(vote);
        let mut updates = Vec::new();
        if let Some(qc) = certified {
            // Votes are broadcast, so a replica can certify a block it
            // never received (a lost proposal): the kernel records the
            // certificate and, if needed, fetches the block.
            self.kernel.log_qc(&qc);
            updates = self.notarize(qc.block_id(), qc.round());
        }
        updates.extend(self.kernel.grade(grown));
        updates
    }

    /// Indexes a newly notarized block and commits through the best window
    /// it closed, if any.
    fn notarize(&mut self, block_id: HashValue, round: Round) -> Vec<StrongCommitUpdate> {
        let store = self.kernel.store();
        self.notarized.note(store, block_id, round);
        let Some(target) = self.notarized.commit_target(store, block_id) else {
            return Vec::new();
        };
        let updates = self.kernel.commit_through(target);
        self.sweep();
        updates
    }

    /// Ages out the notarized index when a commit moved the retention
    /// floor.
    fn sweep(&mut self) {
        if let Some(floor) = self.kernel.prune() {
            self.notarized.sweep(self.kernel.store(), floor);
        }
    }

    /// Re-applies one recovered write-ahead-log record at restart.
    ///
    /// Replay restores exactly what the log promised durability for: vote
    /// dedup and the marker bookkeeping ([`ChainKernel::replay_vote`] — the
    /// recovered replica never votes twice in an epoch its pre-crash self
    /// voted in), the notarized set behind formed certificates, and the
    /// committed prefix ([`ChainKernel::replay_block`]).
    pub fn replay(&mut self, record: &WalRecord) {
        match record {
            WalRecord::VoteSent(vote) => {
                self.kernel.replay_vote(vote);
                self.epoch = self.epoch.max(vote.round());
            }
            WalRecord::QcFormed(qc) => {
                self.kernel.log_qc(qc);
                if self.kernel.store().contains(qc.block_id()) {
                    self.notarize(qc.block_id(), qc.round());
                }
                // Replay-derived records are already in the log being
                // replayed: re-persisting them would duplicate the file on
                // every restart.
                self.kernel.drain_wal();
            }
            // Streamlet has no timeout certificates; a foreign record in
            // the log is ignored rather than fatal.
            WalRecord::TcFormed(_) => {}
            WalRecord::BlockCommitted(block) => {
                self.kernel.replay_block(block);
                if self.kernel.store().contains(block.id()) {
                    // A committed block necessarily carried a quorum.
                    self.notarized
                        .note(self.kernel.store(), block.id(), block.round());
                }
                self.sweep();
                self.epoch = self.epoch.max(block.round());
            }
        }
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
        let mut updates = Vec::new();
        for id in self.kernel.admit_sync_response(response, now) {
            self.kernel.note_included(id);
            // A block counts as notarized here if this replica certified
            // it itself (possibly while the block was still unknown) or a
            // verified sync response carried its certificate. Index it and
            // let the commit rule see the recovered windows.
            let certificate = self.kernel.certificate_for(id).cloned();
            let round = match (&certificate, self.notarized.rounds.get(&id)) {
                (Some(qc), _) => qc.round(),
                (None, Some(round)) => *round,
                (None, None) => continue,
            };
            if !self.kernel.store().contains(id) {
                continue;
            }
            if let Some(qc) = certificate {
                self.kernel.log_qc(&qc);
            }
            updates.extend(self.notarize(id, round));
        }
        updates.extend(self.kernel.settle_deferred());
        self.sweep();
        updates
    }
}

impl fmt::Debug for Replica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Replica({} epoch={} notarized={} committed={})",
            self.kernel.id(),
            self.epoch,
            self.notarized.rounds.len(),
            self.kernel.committed_chain().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_core::{Admission, PayloadSource};
    use sft_types::{BatchConfig, BlockRequest, ReplicaId, Transaction};

    fn replica(id: u16) -> Replica {
        let config = ProtocolConfig::for_replicas(4);
        let registry = KeyRegistry::deterministic(4);
        Replica::new(id, config, registry, EndorseMode::Marker)
    }

    /// Runs one epoch by hand: everyone enters it, the leader proposes,
    /// every replica but `skip` sees the proposal, all votes reach all.
    fn run_epoch(replicas: &mut [Replica], epoch: u64, skip: Option<usize>) -> Proposal {
        let epoch = Round::new(epoch);
        let leader = replicas[0].kernel().config().leader(epoch).as_usize();
        let proposal = replicas[leader]
            .begin_epoch(epoch, Payload::empty())
            .expect("leader proposes");
        for r in replicas.iter_mut() {
            r.begin_epoch(epoch, Payload::empty());
        }
        let votes: Vec<StrongVote> = (0..replicas.len())
            .filter(|i| Some(*i) != skip)
            .filter_map(|i| replicas[i].on_proposal(&proposal).vote)
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
            r.kernel_mut().set_retention(HORIZON);
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
        assert_eq!(
            r.kernel().committed_chain().len(),
            61,
            "the chain ids all survive"
        );
        assert!(
            !r.kernel().store().contains(p1.block().id()),
            "epoch 1 was pruned"
        );
        assert!(!r.is_notarized(p1.block().id()));
        let resident = r.kernel().resident();
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
        assert!(r.on_proposal(&p1).vote.is_none());
        let request = BlockRequest::new(ReplicaId::new(3), p1.block().id(), 8);
        assert!(r.kernel_mut().serve_sync(&request).is_none());
        assert_eq!(r.kernel().resident(), resident);
        assert!(!r.kernel().is_syncing());
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
        assert!(!replicas[0].kernel().store().contains(p2.block().id()));

        // Epoch 3: the child reaches replica 0 before its parent does.
        let epoch = Round::new(3);
        let p3 = replicas[3]
            .begin_epoch(epoch, Payload::empty())
            .expect("leader proposes");
        replicas[0].begin_epoch(epoch, Payload::empty());
        assert!(
            replicas[0].on_proposal(&p3).vote.is_none(),
            "orphan: no vote yet"
        );
        // The parent lands: the child is adopted and voted for at once.
        let vote = replicas[0]
            .on_proposal(&p2)
            .vote
            .expect("the adopted child gets its vote");
        assert_eq!(vote.data().block_id(), p3.block().id());
        assert!(replicas[0].kernel().store().contains(p3.block().id()));
        assert_eq!(replicas[0].kernel().sync_stats().orphans_adopted, 1);
    }

    #[test]
    fn sourced_epoch_drains_batches_for_the_leader() {
        let leader = ProtocolConfig::for_replicas(4).leader(Round::new(1));
        let mut r = replica(leader.as_u16());
        r.kernel_mut()
            .set_payload_source(PayloadSource::Mempool(BatchConfig::with_max_txns(4)));
        for seq in 0..6 {
            assert_eq!(
                r.kernel_mut().submit(Transaction::new(9, seq, vec![0; 4])),
                Admission::Admitted
            );
        }
        let proposal = r
            .begin_epoch_sourced(Round::new(1))
            .expect("leader proposes");
        assert_eq!(proposal.block().payload().txn_count(), 4);
        assert_eq!(r.kernel().mempool().len(), 2, "only one batch drained");
    }
}
