//! Equivalence property suite for the incremental voter bookkeeping.
//!
//! [`VoterState`] maintains the §3.2 marker / §3.4 interval set from the
//! last vote alone; [`honest_endorse_info`] derives them from the whole
//! voting history against the whole block tree. This suite drives one
//! honest voter through seeded-PRNG randomized histories — long straight
//! runs, forks, branch switches and switches back, skipped rounds — in
//! both modes, with a retention horizon small enough (8) to prune the
//! store and the voter mid-history, and with a crash-restart restored from
//! nothing but the `VoteSent` records, and asserts after every vote:
//!
//! - before anything was pruned, the two infos are *equal*;
//! - afterwards they agree on every round at or above the retention floor,
//!   and below it the incremental state never endorses a round the
//!   reference refuses (forgetting may only withhold, never grant).

use sft_core::{honest_endorse_info, Block, BlockStore, Retention, VoterState};
use sft_crypto::{HashValue, KeyPair, KeyRegistry, RngCore, SplitMix64};
use sft_types::{EndorseMode, Payload, ReplicaId, Round, StrongVote};

const HORIZON: u64 = 8;

/// One voter's randomized life: the full tree and history the reference
/// sees, and the pruned store and incremental state a replica keeps.
struct Life {
    rng: SplitMix64,
    mode: EndorseMode,
    key: KeyPair,
    full_store: BlockStore,
    kept_store: BlockStore,
    /// Every block created, newest last.
    blocks: Vec<Block>,
    /// Everything the voter ever voted for — the reference's input.
    history: Vec<(Round, HashValue)>,
    /// The votes themselves, as a WAL would hold them.
    vote_log: Vec<StrongVote>,
    voter: VoterState,
    retention: Retention,
    next_round: u64,
    pruned_anything: bool,
}

impl Life {
    fn new(seed: u64, mode: EndorseMode) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            mode,
            key: KeyRegistry::deterministic(4).key_pair(0).unwrap(),
            full_store: BlockStore::new(),
            kept_store: BlockStore::new(),
            blocks: Vec::new(),
            history: Vec::new(),
            vote_log: Vec::new(),
            voter: VoterState::new(mode),
            retention: Retention::new(HORIZON),
            next_round: 1,
            pruned_anything: false,
        }
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.rng.next_u64() % bound
    }

    /// The parent of the next block: usually the last voted block (a
    /// straight run), sometimes a recent block off to the side (a fork, or
    /// a switch back to a branch abandoned earlier).
    fn choose_parent(&mut self) -> Block {
        let straight = self.pick(100) < 70;
        let last_voted = self.history.last().map(|(_, id)| *id);
        if let (true, Some(id)) = (straight, last_voted) {
            if let Some(block) = self.kept_store.get(id) {
                return block.clone();
            }
        }
        let recent: Vec<&Block> = self
            .blocks
            .iter()
            .rev()
            .take(12)
            .filter(|b| self.kept_store.contains(b.id()))
            .collect();
        if recent.is_empty() {
            return self.kept_store.genesis().clone();
        }
        let index = (self.rng.next_u64() % recent.len() as u64) as usize;
        recent[index].clone()
    }

    fn step(&mut self) {
        let parent = self.choose_parent();
        // Skipped rounds: timeouts leave gaps in every real chain.
        self.next_round += self.pick(3) / 2;
        let round = Round::new(self.next_round);
        self.next_round += 1;
        let block = Block::new(
            &parent,
            round,
            ReplicaId::new((round.as_u64() % 4) as u16),
            Payload::synthetic(1, 1, self.rng.next_u64()),
        );
        self.full_store.insert(block.clone()).unwrap();
        self.kept_store.insert(block.clone()).unwrap();
        self.blocks.push(block.clone());
        if self.pick(100) < 85 {
            self.vote(&block);
        }
        // The committed tip trails the newest round a little; the
        // horizon trails the tip.
        let tip = Round::new(self.next_round.saturating_sub(3));
        if let Some(floor) = self.retention.advance(tip) {
            self.pruned_anything |= !self.kept_store.prune_below(floor).is_empty();
            self.voter.prune_below(floor);
        }
    }

    fn vote(&mut self, block: &Block) {
        let reference = honest_endorse_info(self.mode, &self.full_store, &self.history, block);
        let incremental = self.voter.endorse_info(&self.kept_store, block);
        let floor = self.retention.floor();
        if !self.pruned_anything {
            assert_eq!(
                incremental,
                reference,
                "round {}: before any pruning the two must be equal",
                block.round()
            );
        }
        for round in 1..=block.round().as_u64() {
            let round = Round::new(round);
            let (inc, reference) = (
                incremental.endorses_ancestor_round(round),
                reference.endorses_ancestor_round(round),
            );
            if round >= floor {
                assert_eq!(
                    inc,
                    reference,
                    "vote at {} disagrees on retained round {round} (floor {floor})",
                    block.round()
                );
            } else {
                assert!(
                    !inc || reference,
                    "vote at {} endorses pruned round {round} the reference refuses",
                    block.round()
                );
            }
        }
        let vote = StrongVote::new(block.vote_data(), incremental, &self.key);
        self.voter.record(&vote);
        self.vote_log.push(vote);
        self.history.push((block.round(), block.id()));
    }

    /// kill −9 and recover: a fresh voter fed only the logged votes, then
    /// told where the horizon already stands.
    fn crash_and_restore(&mut self) {
        let mut restored = VoterState::new(self.mode);
        for vote in &self.vote_log {
            restored.record(vote);
        }
        restored.prune_below(self.retention.floor());
        self.voter = restored;
    }
}

#[test]
fn incremental_voter_state_matches_the_reference_across_randomized_histories() {
    for mode in [EndorseMode::Marker, EndorseMode::Interval] {
        for seed in 0..40 {
            let mut life = Life::new(0x5f7_0000 + seed, mode);
            let restart_at = 20 + (seed * 7) % 100;
            for step in 0..160 {
                if step == restart_at {
                    life.crash_and_restore();
                }
                life.step();
            }
            assert!(
                life.pruned_anything,
                "{mode:?}/{seed}: the horizon must bite mid-history"
            );
            assert!(life.history.len() > 100);
        }
    }
}

#[test]
fn unpruned_histories_are_exactly_equal_including_after_a_restart() {
    for mode in [
        EndorseMode::Vanilla,
        EndorseMode::Marker,
        EndorseMode::Interval,
    ] {
        for seed in 0..40 {
            let mut life = Life::new(0xe9_0000 + seed, mode);
            // A horizon nothing reaches: every comparison is `assert_eq`.
            life.retention = Retention::new(u64::MAX / 2);
            for step in 0..80 {
                if step == 30 + seed % 20 {
                    life.crash_and_restore();
                }
                life.step();
            }
            assert!(!life.pruned_anything);
        }
    }
}

#[test]
fn the_vote_once_rule_follows_the_last_recorded_vote() {
    let mut life = Life::new(7, EndorseMode::Marker);
    assert_eq!(life.voter.last_voted_round(), Round::ZERO);
    for _ in 0..10 {
        life.step();
    }
    let last = life.history.last().unwrap().0;
    assert_eq!(life.voter.last_voted_round(), last);
    life.crash_and_restore();
    assert_eq!(life.voter.last_voted_round(), last);
}
