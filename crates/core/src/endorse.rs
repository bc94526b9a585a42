//! Endorsement tracking: turning strong-votes into graded commit strength.
//!
//! Per §3.2, a strong-vote for block `B'` *endorses* `B'` itself and every
//! ancestor `B` of `B'` whose round the vote's
//! [`EndorseInfo`] admits
//! (`B.round > marker`, or `B.round ∈ I` in the §3.4 generalization). The
//! [`EndorsementTracker`] maintains, per block, the set of distinct
//! endorsing replicas; [`ProtocolConfig::strength_of`] converts that tally
//! into the commit strength `x` of Definition 1, and every increase for a
//! committed block is reported as a [`StrongCommitUpdate`] — the entry type
//! of the §5 commit log.

use std::collections::{HashMap, HashSet};

use sft_crypto::HashValue;
use sft_types::{
    EndorseInfo, EndorseMode, ReplicaId, Round, RoundIntervalSet, SignerSet, StrongCommitUpdate,
    StrongVote,
};

use crate::{Block, BlockStore, ProtocolConfig};

/// Computes the [`EndorseInfo`] an honest voter attaches when voting for
/// `block`, from the `(round, id)` history of every block it ever voted
/// for — the *specification* of the §3.2 marker and the §3.4 interval set.
/// Replicas do not call this per vote: they carry a [`VoterState`], which
/// maintains the same answer incrementally (the paper's "one integer per
/// vote" bookkeeping), and the property suite pins the two together.
///
/// - [`EndorseMode::Vanilla`] — no info.
/// - [`EndorseMode::Marker`] — the highest round of any previously voted
///   block that conflicts with (is not an ancestor of) `block`.
/// - [`EndorseMode::Interval`] — `I = [1, block.round]` minus, per
///   conflicting voted block `F`, the window `D_F = (fork_round, F.round]`
///   where `fork_round` is the round of `F`'s common ancestor with `block`.
///   Rounds *below* the fork point stay endorsed — the refinement the
///   single marker gives up.
///
/// Cost: one walk up `block`'s ancestors plus one pass over
/// `voted_blocks` — `O(|voted| + depth)`; interval mode additionally walks
/// each *conflicting* vote's branch back to the fork point.
///
/// # Examples
///
/// ```
/// use sft_core::{honest_endorse_info, Block, BlockStore};
/// use sft_types::{EndorseInfo, EndorseMode, Payload, ReplicaId, Round};
///
/// let mut store = BlockStore::new();
/// let b1 = Block::new(store.genesis(), Round::new(1), ReplicaId::new(1), Payload::empty());
/// let b2 = Block::new(&b1, Round::new(2), ReplicaId::new(2), Payload::empty());
/// store.insert(b1.clone()).unwrap();
/// store.insert(b2.clone()).unwrap();
/// // A clean history endorses everything: marker 0.
/// let voted = vec![(Round::new(1), b1.id())];
/// let info = honest_endorse_info(EndorseMode::Marker, &store, &voted, &b2);
/// assert_eq!(info, EndorseInfo::Marker(Round::ZERO));
/// ```
pub fn honest_endorse_info(
    mode: EndorseMode,
    store: &BlockStore,
    voted_blocks: &[(Round, HashValue)],
    block: &Block,
) -> EndorseInfo {
    if mode == EndorseMode::Vanilla {
        return EndorseInfo::None;
    }
    // The one ancestor walk: every strict ancestor of `block` the store
    // still holds, by id.
    let ancestors: HashSet<HashValue> = strict_ancestors(store, block).map(Block::id).collect();
    let conflicting = voted_blocks
        .iter()
        .filter(|(_, id)| !ancestors.contains(id));
    match mode {
        EndorseMode::Vanilla => EndorseInfo::None,
        EndorseMode::Marker => EndorseInfo::Marker(
            conflicting
                .map(|(round, _)| *round)
                .max()
                .unwrap_or_default(),
        ),
        EndorseMode::Interval => {
            let mut set = RoundIntervalSet::full_range(Round::new(1), block.round());
            for (round, id) in conflicting {
                let fork_round = fork_round(store, &ancestors, block, *id);
                if fork_round < *round {
                    set.subtract(fork_round.next(), *round);
                }
            }
            EndorseInfo::Intervals(set)
        }
    }
}

/// `block`'s strict ancestors held by `store`, nearest first. Starts from
/// the parent link, so `block` itself need not be stored.
fn strict_ancestors<'a>(
    store: &'a BlockStore,
    block: &Block,
) -> impl Iterator<Item = &'a Block> + 'a {
    std::iter::successors(store.get(block.parent_id()), move |ancestor| {
        (!ancestor.is_genesis())
            .then(|| store.get(ancestor.parent_id()))
            .flatten()
    })
}

/// The round of the deepest block shared by `from`'s and `block`'s paths to
/// genesis (either endpoint counts as its own ancestor) — the fork point
/// `r_l` of the §3.4 window. Round 0 when the paths do not meet inside the
/// store, which withholds endorsement all the way down.
fn fork_round(
    store: &BlockStore,
    ancestors_of_block: &HashSet<HashValue>,
    block: &Block,
    from: HashValue,
) -> Round {
    let mut cursor = from;
    while let Some(candidate) = store.get(cursor) {
        if cursor == block.id() || ancestors_of_block.contains(&cursor) {
            return candidate.round();
        }
        if candidate.is_genesis() {
            break;
        }
        cursor = candidate.parent_id();
    }
    Round::ZERO
}

/// The bookkeeping an honest voter carries from one vote to the next: the
/// last block it voted for and the [`EndorseInfo`] that vote carried. That
/// is the paper's O(1) marker maintenance (§3.2) — and its §3.4
/// generalization — in place of re-deriving the info from the whole voting
/// history on every vote:
///
/// - the new block **extends** the last voted block (found by walking the
///   gap between them): nothing new conflicts, so the marker carries over
///   unchanged and the interval set only grows by `(last.round,
///   block.round]`;
/// - it **does not**: the last voted block is the highest-round conflict,
///   so the marker becomes its round; the interval windows are recomputed
///   with [`honest_endorse_info`] over the votes still inside the
///   retention horizon, and nothing below the horizon is endorsed again.
///
/// Both replicas embed one, feed it every vote they cast, and restore it
/// after a crash from the replayed `VoteSent` records themselves — the
/// vote *is* the state.
///
/// # Examples
///
/// ```
/// use sft_core::{Block, BlockStore, VoterState};
/// use sft_crypto::KeyRegistry;
/// use sft_types::{EndorseInfo, EndorseMode, Payload, ReplicaId, Round, StrongVote};
///
/// let key = KeyRegistry::deterministic(4).key_pair(0).unwrap();
/// let mut store = BlockStore::new();
/// let b1 = Block::new(store.genesis(), Round::new(1), ReplicaId::new(1), Payload::empty());
/// let fork = Block::new(store.genesis(), Round::new(2), ReplicaId::new(2), Payload::empty());
/// store.insert(b1.clone()).unwrap();
/// store.insert(fork.clone()).unwrap();
///
/// let mut voter = VoterState::new(EndorseMode::Marker);
/// let info = voter.endorse_info(&store, &b1);
/// assert_eq!(info, EndorseInfo::Marker(Round::ZERO));
/// voter.record(&StrongVote::new(b1.vote_data(), info, &key));
/// // Switching branches: the abandoned vote's round becomes the marker.
/// assert_eq!(voter.endorse_info(&store, &fork), EndorseInfo::Marker(Round::new(1)));
/// ```
#[derive(Clone, Debug)]
pub struct VoterState {
    mode: EndorseMode,
    last: Option<LastVote>,
    /// Interval mode only: `(round, id)` of every vote at or above
    /// `floor` — what a branch switch recomputes its windows from.
    retained: Vec<(Round, HashValue)>,
    /// Rounds below this are outside the retention horizon.
    floor: Round,
}

#[derive(Clone, Debug)]
struct LastVote {
    round: Round,
    block_id: HashValue,
    info: EndorseInfo,
}

impl VoterState {
    /// A voter that has not voted yet.
    pub fn new(mode: EndorseMode) -> Self {
        Self {
            mode,
            last: None,
            retained: Vec::new(),
            floor: Round::ZERO,
        }
    }

    /// The round of the last recorded vote (0 before the first) — the
    /// whole of the vote-once rule, since rounds only move forward.
    pub fn last_voted_round(&self) -> Round {
        self.last.as_ref().map_or(Round::ZERO, |last| last.round)
    }

    /// The info to attach to a vote for `block`.
    pub fn endorse_info(&self, store: &BlockStore, block: &Block) -> EndorseInfo {
        let Some(last) = &self.last else {
            return honest_endorse_info(self.mode, store, &[], block);
        };
        let extends_last = strict_ancestors(store, block)
            .find(|ancestor| ancestor.round() <= last.round)
            .is_some_and(|ancestor| ancestor.id() == last.block_id);
        match (self.mode, &last.info, extends_last) {
            (EndorseMode::Vanilla, ..) => EndorseInfo::None,
            (EndorseMode::Marker, EndorseInfo::Marker(marker), true) => {
                EndorseInfo::Marker(*marker)
            }
            (EndorseMode::Marker, ..) => EndorseInfo::Marker(last.round),
            (EndorseMode::Interval, EndorseInfo::Intervals(set), true) => {
                let mut set = set.clone();
                set.insert(last.round.next(), block.round());
                EndorseInfo::Intervals(set)
            }
            (EndorseMode::Interval, ..) => {
                let mut info = honest_endorse_info(self.mode, store, &self.retained, block);
                if let (EndorseInfo::Intervals(set), true) = (&mut info, self.floor > Round::ZERO) {
                    // Votes below the horizon are forgotten; so is any
                    // claim to endorse the rounds they covered.
                    set.clamp(self.floor, block.round());
                }
                info
            }
        }
    }

    /// Records a vote this replica cast — when casting it, and again when
    /// a restart replays its `VoteSent` record.
    pub fn record(&mut self, vote: &StrongVote) {
        if self
            .last
            .as_ref()
            .is_some_and(|last| vote.round() <= last.round)
        {
            return;
        }
        if self.mode == EndorseMode::Interval {
            self.retained.push((vote.round(), vote.data().block_id()));
        }
        self.last = Some(LastVote {
            round: vote.round(),
            block_id: vote.data().block_id(),
            info: vote.endorse().clone(),
        });
    }

    /// Forgets votes below `floor` (the last vote always stays).
    pub fn prune_below(&mut self, floor: Round) {
        self.floor = floor;
        self.retained.retain(|(round, _)| *round >= floor);
    }
}

/// Per-block endorser accounting and strength grading.
///
/// # Examples
///
/// ```
/// use sft_core::{Block, BlockStore, EndorsementTracker, ProtocolConfig};
/// use sft_crypto::KeyRegistry;
/// use sft_types::{EndorseInfo, Payload, ReplicaId, Round, StrongVote};
///
/// let cfg = ProtocolConfig::for_replicas(4);
/// let registry = KeyRegistry::deterministic(4);
/// let mut store = BlockStore::new();
/// let b1 = Block::new(store.genesis(), Round::new(1), ReplicaId::new(0), Payload::empty());
/// let b2 = Block::new(&b1, Round::new(2), ReplicaId::new(1), Payload::empty());
/// store.insert(b1.clone()).unwrap();
/// store.insert(b2.clone()).unwrap();
///
/// let mut tracker = EndorsementTracker::new(cfg);
/// // A marker-0 vote for b2 endorses b2 *and* its ancestor b1.
/// let vote = StrongVote::new(
///     b2.vote_data(),
///     EndorseInfo::Marker(Round::ZERO),
///     &registry.key_pair(3).unwrap(),
/// );
/// tracker.record_vote(&vote, &store);
/// assert_eq!(tracker.endorsers(b1.id()), 1);
/// assert_eq!(tracker.endorsers(b2.id()), 1);
/// ```
#[derive(Clone, Debug)]
pub struct EndorsementTracker {
    config: ProtocolConfig,
    endorsers: HashMap<HashValue, SignerSet>,
    /// Highest strength level already reported per block, so level
    /// increases are emitted exactly once.
    reported_level: HashMap<HashValue, u64>,
    /// Per-voter endorsement frontier: the last block each voter's recorded
    /// vote named, plus the info it carried. When a later vote extends the
    /// frontier and its info admits no sub-frontier round the frontier vote
    /// excluded, the ancestor walk stops at the frontier instead of
    /// re-walking to genesis — the amortization that keeps per-vote work
    /// proportional to chain *growth*, not chain *length*.
    frontiers: HashMap<ReplicaId, VoterFrontier>,
    /// Total ancestors visited across all walks — the cost metric the
    /// frontier cutoff exists to shrink (observable via
    /// [`walk_steps`](Self::walk_steps); the equivalence property suite
    /// asserts it stays below the naive full walk's).
    walk_steps: u64,
}

/// The most recent vote recorded for one voter: walk-cutoff state.
#[derive(Clone, Debug)]
struct VoterFrontier {
    block_id: HashValue,
    round: Round,
    info: EndorseInfo,
}

/// True if every round `<= ceiling` admitted by `new` is also admitted by
/// `old` — the condition under which a walk may stop at the old vote's
/// block: anything the new vote could endorse below it, the old vote
/// already did.
///
/// Honest histories always satisfy this (markers only grow; §3.4 exclusion
/// windows below an extended block are stable), so the fallback full walk
/// only runs for chain switches and forged infos.
fn admits_subset_below(new: &EndorseInfo, old: &EndorseInfo, ceiling: Round) -> bool {
    if ceiling == Round::ZERO {
        return true; // no endorsable round exists at or below genesis
    }
    let restrict = |info: &EndorseInfo| -> RoundIntervalSet {
        match info {
            EndorseInfo::None => RoundIntervalSet::new(),
            EndorseInfo::Marker(m) => RoundIntervalSet::from_marker(*m, ceiling),
            EndorseInfo::Intervals(set) => {
                let mut s = set.clone();
                s.clamp(Round::new(1), ceiling);
                s
            }
        }
    };
    match (new, old) {
        // A vote that endorses no ancestors is vacuously covered.
        (EndorseInfo::None, _) => true,
        // Marker vs marker: admitted-below sets are suffixes (m, ceiling];
        // subset iff the new marker is at least the old one.
        (EndorseInfo::Marker(new_m), EndorseInfo::Marker(old_m)) => {
            *new_m >= *old_m || *new_m >= ceiling
        }
        _ => restrict(new).is_subset_of(&restrict(old)),
    }
}

impl EndorsementTracker {
    /// Creates an empty tracker.
    pub fn new(config: ProtocolConfig) -> Self {
        Self {
            config,
            endorsers: HashMap::new(),
            reported_level: HashMap::new(),
            frontiers: HashMap::new(),
            walk_steps: 0,
        }
    }

    /// Records the endorsements carried by one verified vote: the voted
    /// block directly, plus each strict ancestor admitted by the vote's
    /// [`EndorseInfo`]. Returns the ids of blocks
    /// whose endorser set grew.
    ///
    /// Incremental: the walk stops early at the voter's previous voted
    /// block (its *frontier*) whenever the new info cannot endorse any
    /// sub-frontier round the previous vote refused — everything below is
    /// then already credited, so a voter following one growing chain costs
    /// O(blocks since its last vote) instead of O(chain length). Votes that
    /// jump chains or carry widened (forged) infos fall back to the full
    /// walk and stay exactly equivalent to it.
    ///
    /// Callers must have verified the vote's signature (the
    /// [`VoteTracker`](crate::VoteTracker) has) — the endorsement walk
    /// itself trusts the vote. Unknown blocks are skipped: endorsements for
    /// a block the store has not seen cannot be attributed to a chain.
    pub fn record_vote(&mut self, vote: &StrongVote, store: &BlockStore) -> Vec<HashValue> {
        let mut grown = Vec::new();
        let voted_id = vote.data().block_id();
        if !store.contains(voted_id) {
            return grown;
        }
        let n = self.config.n();
        // The vote endorses the voted block unconditionally.
        if self
            .endorsers
            .entry(voted_id)
            .or_insert_with(|| SignerSet::new(n))
            .insert(vote.author())
        {
            grown.push(voted_id);
        }
        // The frontier cutoff: sound only if the new info admits no round
        // at or below the frontier that the frontier vote's info refused.
        let stop_at = self.frontiers.get(&vote.author()).and_then(|frontier| {
            admits_subset_below(vote.endorse(), &frontier.info, frontier.round)
                .then_some(frontier.block_id)
        });
        self.frontiers.insert(
            vote.author(),
            VoterFrontier {
                block_id: voted_id,
                round: vote.round(),
                info: vote.endorse().clone(),
            },
        );
        // Walk ancestors while their rounds can still be endorsed; rounds
        // strictly decrease toward genesis, so the info's minimum endorsed
        // round is a sound early cutoff.
        let Some(min_round) = vote.endorse().min_endorsed_round() else {
            return grown;
        };
        for ancestor in store.ancestors(voted_id) {
            if ancestor.round() < min_round || ancestor.is_genesis() {
                break;
            }
            self.walk_steps += 1;
            if vote.endorse().endorses_ancestor_round(ancestor.round())
                && self
                    .endorsers
                    .entry(ancestor.id())
                    .or_insert_with(|| SignerSet::new(n))
                    .insert(vote.author())
            {
                grown.push(ancestor.id());
            }
            if Some(ancestor.id()) == stop_at {
                break; // everything below was credited by the frontier vote
            }
        }
        grown
    }

    /// Forgets the tallies of `pruned` blocks — the ids a
    /// [`BlockStore::prune_below`] just dropped. Later votes can no longer
    /// reach them (walks end where the store does), so their strength
    /// stays at whatever was last reported.
    pub fn forget(&mut self, pruned: &[HashValue]) {
        for id in pruned {
            self.endorsers.remove(id);
            self.reported_level.remove(id);
        }
    }

    /// Number of distinct replicas endorsing `block_id`.
    pub fn endorsers(&self, block_id: HashValue) -> usize {
        self.endorsers.get(&block_id).map_or(0, SignerSet::len)
    }

    /// Total ancestors visited by [`record_vote`](Self::record_vote) walks
    /// since construction — the work the frontier cutoff amortizes. A
    /// voter repeatedly extending one chain contributes O(new blocks), not
    /// O(chain length), per vote.
    pub fn walk_steps(&self) -> u64 {
        self.walk_steps
    }

    /// The commit strength `x` currently conferred on `block_id` by its
    /// endorsers, or `None` below the classic quorum.
    pub fn strength(&self, block_id: HashValue) -> Option<u64> {
        self.config.strength_of(self.endorsers(block_id))
    }

    /// Reports `block_id`'s strength as a [`StrongCommitUpdate`] if it
    /// exceeds every level previously reported for the block. Call this for
    /// *committed* blocks only — strength grades a commit; it does not
    /// create one.
    pub fn take_level_update(
        &mut self,
        block_id: HashValue,
        store: &BlockStore,
    ) -> Option<StrongCommitUpdate> {
        let level = self.strength(block_id)?;
        let block = store.get(block_id)?;
        let reported = self.reported_level.get(&block_id).copied();
        if reported.is_some_and(|r| r >= level) {
            return None;
        }
        self.reported_level.insert(block_id, level);
        Some(StrongCommitUpdate::new(
            block_id,
            block.round(),
            block.height(),
            level,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Block;
    use sft_crypto::KeyRegistry;
    use sft_types::{EndorseInfo, Payload, ReplicaId, Round, RoundIntervalSet};

    struct Fixture {
        cfg: ProtocolConfig,
        registry: KeyRegistry,
        store: BlockStore,
        chain: Vec<Block>, // b1..b4, rounds 1..4
    }

    fn fixture() -> Fixture {
        let cfg = ProtocolConfig::for_replicas(4);
        let registry = KeyRegistry::deterministic(4);
        let mut store = BlockStore::new();
        let mut chain = Vec::new();
        let mut parent = store.genesis().clone();
        for round in 1..=4u64 {
            let block = Block::new(
                &parent,
                Round::new(round),
                ReplicaId::new((round % 4) as u16),
                Payload::synthetic(1, 1, round),
            );
            store.insert(block.clone()).unwrap();
            parent = block.clone();
            chain.push(block);
        }
        Fixture {
            cfg,
            registry,
            store,
            chain,
        }
    }

    fn vote_for(fx: &Fixture, signer: u64, block: &Block, endorse: EndorseInfo) -> StrongVote {
        StrongVote::new(
            block.vote_data(),
            endorse,
            &fx.registry.key_pair(signer).unwrap(),
        )
    }

    #[test]
    fn marker_zero_endorses_whole_chain() {
        let fx = fixture();
        let mut tracker = EndorsementTracker::new(fx.cfg);
        let vote = vote_for(&fx, 0, &fx.chain[3], EndorseInfo::Marker(Round::ZERO));
        let grown = tracker.record_vote(&vote, &fx.store);
        assert_eq!(grown.len(), 4, "b4 direct + ancestors b3, b2, b1");
        for block in &fx.chain {
            assert_eq!(tracker.endorsers(block.id()), 1);
        }
        assert_eq!(
            tracker.endorsers(fx.store.genesis_id()),
            0,
            "genesis needs no endorsement"
        );
    }

    #[test]
    fn marker_cuts_off_older_ancestors() {
        let fx = fixture();
        let mut tracker = EndorsementTracker::new(fx.cfg);
        // Marker 2: the voter once voted for a conflicting block at round 2,
        // so only ancestors with round > 2 are endorsed.
        let vote = vote_for(&fx, 1, &fx.chain[3], EndorseInfo::Marker(Round::new(2)));
        tracker.record_vote(&vote, &fx.store);
        assert_eq!(tracker.endorsers(fx.chain[3].id()), 1, "direct vote");
        assert_eq!(tracker.endorsers(fx.chain[2].id()), 1, "round 3 > marker");
        assert_eq!(tracker.endorsers(fx.chain[1].id()), 0, "round 2 excluded");
        assert_eq!(tracker.endorsers(fx.chain[0].id()), 0, "round 1 excluded");
    }

    #[test]
    fn interval_info_endorses_holes() {
        let fx = fixture();
        let mut tracker = EndorsementTracker::new(fx.cfg);
        // I = [1, 4] \ [2, 3]: endorses rounds 1 and 4 only (§3.4 shape).
        let mut set = RoundIntervalSet::full_range(Round::new(1), Round::new(4));
        set.subtract(Round::new(2), Round::new(3));
        let vote = vote_for(&fx, 2, &fx.chain[3], EndorseInfo::Intervals(set));
        tracker.record_vote(&vote, &fx.store);
        assert_eq!(tracker.endorsers(fx.chain[3].id()), 1);
        assert_eq!(tracker.endorsers(fx.chain[2].id()), 0);
        assert_eq!(tracker.endorsers(fx.chain[1].id()), 0);
        assert_eq!(
            tracker.endorsers(fx.chain[0].id()),
            1,
            "interval hole skipped, not cut off"
        );
    }

    #[test]
    fn none_info_endorses_only_voted_block() {
        let fx = fixture();
        let mut tracker = EndorsementTracker::new(fx.cfg);
        let vote = vote_for(&fx, 3, &fx.chain[3], EndorseInfo::None);
        tracker.record_vote(&vote, &fx.store);
        assert_eq!(tracker.endorsers(fx.chain[3].id()), 1);
        assert_eq!(tracker.endorsers(fx.chain[2].id()), 0);
    }

    #[test]
    fn endorsers_are_distinct_replicas() {
        let fx = fixture();
        let mut tracker = EndorsementTracker::new(fx.cfg);
        let b1 = &fx.chain[0];
        for _ in 0..3 {
            let vote = vote_for(&fx, 0, b1, EndorseInfo::Marker(Round::ZERO));
            tracker.record_vote(&vote, &fx.store);
        }
        assert_eq!(
            tracker.endorsers(b1.id()),
            1,
            "the same replica counts once"
        );
    }

    #[test]
    fn unknown_block_is_skipped() {
        let fx = fixture();
        let mut tracker = EndorsementTracker::new(fx.cfg);
        let foreign = Block::new(
            &Block::genesis(),
            Round::new(9),
            ReplicaId::new(0),
            Payload::synthetic(2, 2, 9),
        );
        let vote = vote_for(&fx, 0, &foreign, EndorseInfo::Marker(Round::ZERO));
        assert!(tracker.record_vote(&vote, &fx.store).is_empty());
    }

    #[test]
    fn strength_tracks_quorum_ladder() {
        let fx = fixture();
        let mut tracker = EndorsementTracker::new(fx.cfg);
        let b1 = &fx.chain[0];
        assert_eq!(tracker.strength(b1.id()), None);
        for signer in 0..3 {
            let vote = vote_for(&fx, signer, b1, EndorseInfo::Marker(Round::ZERO));
            tracker.record_vote(&vote, &fx.store);
        }
        assert_eq!(
            tracker.strength(b1.id()),
            Some(1),
            "2f + 1 endorsers: level f"
        );
        let vote = vote_for(&fx, 3, b1, EndorseInfo::Marker(Round::ZERO));
        tracker.record_vote(&vote, &fx.store);
        assert_eq!(
            tracker.strength(b1.id()),
            Some(2),
            "all n endorsers: level 2f"
        );
    }

    #[test]
    fn level_updates_emitted_once_per_level() {
        let fx = fixture();
        let mut tracker = EndorsementTracker::new(fx.cfg);
        let b1 = &fx.chain[0];
        assert!(
            tracker.take_level_update(b1.id(), &fx.store).is_none(),
            "no quorum yet"
        );
        for signer in 0..3 {
            let vote = vote_for(&fx, signer, b1, EndorseInfo::Marker(Round::ZERO));
            tracker.record_vote(&vote, &fx.store);
        }
        let up = tracker
            .take_level_update(b1.id(), &fx.store)
            .expect("level f update");
        assert_eq!(up.level(), 1);
        assert_eq!(up.block_id(), b1.id());
        assert_eq!(up.round(), Round::new(1));
        assert!(
            tracker.take_level_update(b1.id(), &fx.store).is_none(),
            "no repeat"
        );
        let vote = vote_for(&fx, 3, b1, EndorseInfo::Marker(Round::ZERO));
        tracker.record_vote(&vote, &fx.store);
        let up = tracker
            .take_level_update(b1.id(), &fx.store)
            .expect("level 2f update");
        assert_eq!(up.level(), 2);
    }

    /// §3.4 recovery scenario: the voter once voted on a fork branching off
    /// round 1, then voted the winning chain. The single marker (= the
    /// fork's round) cuts off every ancestor at or below it; the interval
    /// set re-admits rounds below the fork point.
    #[test]
    fn interval_mode_recovers_endorsements_below_the_fork_point() {
        let fx = fixture();
        let mut store = fx.store.clone();
        // Fork f5 off b1 (round 1): rounds 2..4 on the main chain conflict.
        let fork = Block::new(
            &fx.chain[0],
            Round::new(5),
            ReplicaId::new(2),
            Payload::synthetic(3, 3, 99),
        );
        store.insert(fork.clone()).unwrap();
        let next = Block::new(
            &fx.chain[3],
            Round::new(6),
            ReplicaId::new(2),
            Payload::empty(),
        );
        store.insert(next.clone()).unwrap();

        // History: voted b1..b4 honestly, then strayed onto the fork.
        let mut voted: Vec<(Round, HashValue)> =
            fx.chain.iter().map(|b| (b.round(), b.id())).collect();
        voted.push((fork.round(), fork.id()));

        // Now voting for `next`, which extends b4 — the fork conflicts.
        let marker = honest_endorse_info(EndorseMode::Marker, &store, &voted, &next);
        assert_eq!(marker, EndorseInfo::Marker(Round::new(5)));
        // The marker refuses every ancestor round <= 5: b2..b4 all lost.
        for round in 2..=4u64 {
            assert!(!marker.endorses_ancestor_round(Round::new(round)));
        }

        let interval = honest_endorse_info(EndorseMode::Interval, &store, &voted, &next);
        // Fork point is b1 (round 1): only D_F = [2, 5] is excluded...
        for round in 2..=5u64 {
            assert!(!interval.endorses_ancestor_round(Round::new(round)));
        }
        // ...but round 1 below the fork point stays endorsed.
        assert!(interval.endorses_ancestor_round(Round::new(1)));
        assert!(interval.endorses_ancestor_round(Round::new(6)));
        // §3.4 soundness: the marker approximation is a subset of I.
        let EndorseInfo::Intervals(ref set) = interval else {
            panic!("interval mode yields interval sets");
        };
        assert!(RoundIntervalSet::from_marker(Round::new(5), Round::new(6)).is_subset_of(set));
    }

    #[test]
    fn interval_mode_with_clean_history_endorses_everything() {
        let fx = fixture();
        let voted: Vec<(Round, HashValue)> =
            fx.chain[..3].iter().map(|b| (b.round(), b.id())).collect();
        let info = honest_endorse_info(EndorseMode::Interval, &fx.store, &voted, &fx.chain[3]);
        for round in 1..=4u64 {
            assert!(info.endorses_ancestor_round(Round::new(round)));
        }
        assert_eq!(
            honest_endorse_info(EndorseMode::Vanilla, &fx.store, &voted, &fx.chain[3]),
            EndorseInfo::None
        );
    }

    /// The tentpole safety scenario at the endorsement layer: a block whose
    /// classic quorum contains more than `f` corrupt voters is *certified*,
    /// but the strengthened rule never grades it above level `f` — so a
    /// deployment configured to require a level-2 commit (tolerating the 2
    /// actual faults) refuses to treat it as committed.
    #[test]
    fn strengthened_rule_rejects_corrupt_majority_quorum() {
        let fx = fixture();
        let mut tracker = EndorsementTracker::new(fx.cfg);
        let b1 = &fx.chain[0];
        // Replicas 0 and 1 are alive-but-corrupt; replica 2 is honest.
        // All three endorse b1 — a full 2f + 1 quorum.
        for signer in 0..3 {
            let vote = vote_for(&fx, signer, b1, EndorseInfo::Marker(Round::ZERO));
            tracker.record_vote(&vote, &fx.store);
        }
        let corrupt = 2usize;
        assert!(corrupt > fx.cfg.f());
        // Classic rule accepts: quorum reached.
        assert!(tracker.endorsers(b1.id()) >= fx.cfg.quorum());
        // Strengthened rule rejects a commit at the level that would be
        // needed to survive the 2 corrupt voters.
        assert!(!fx
            .cfg
            .meets_strong_quorum(tracker.endorsers(b1.id()), corrupt as u64));
        assert_eq!(tracker.strength(b1.id()), Some(1), "graded only f-strong");
    }
}
