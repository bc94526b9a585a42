//! [`CommitLedger`]: the finalized chain prefix a replica has committed.
//!
//! Both protocol replicas (height-based Streamlet, round-based DiemBFT)
//! end their commit rules the same way: some block is declared final, and
//! the chain from the previous committed tip up to it must be appended —
//! or, if the new block does *not* extend the committed prefix, a safety
//! violation must be flagged (observable only when the actual fault count
//! exceeds the strength level of an earlier commit). This module owns that
//! shared suffix walk so the protocol crates only decide *what* commits,
//! never *how* the committed chain is maintained.

use sft_crypto::{HashValue, IdSet};

use crate::BlockStore;

/// The committed chain prefix of one replica, genesis excluded.
///
/// # Examples
///
/// ```
/// use sft_core::{Block, BlockStore, CommitLedger};
/// use sft_types::{Payload, ReplicaId, Round};
///
/// let mut store = BlockStore::new();
/// let b1 = Block::new(store.genesis(), Round::new(1), ReplicaId::new(0), Payload::empty());
/// let b2 = Block::new(&b1, Round::new(2), ReplicaId::new(1), Payload::empty());
/// store.insert(b1.clone()).unwrap();
/// store.insert(b2.clone()).unwrap();
///
/// let mut ledger = CommitLedger::new();
/// // Finalizing b2 commits the whole suffix b1, b2 — oldest first.
/// assert_eq!(ledger.finalize_through(&store, b2.id()), vec![b1.id(), b2.id()]);
/// assert_eq!(ledger.chain(), &[b1.id(), b2.id()]);
/// assert!(!ledger.safety_violated());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CommitLedger {
    committed: Vec<HashValue>,
    /// Membership index over `committed`, minus whatever
    /// [`forget`](Self::forget) dropped.
    committed_ids: IdSet,
    safety_violation: bool,
}

impl CommitLedger {
    /// An empty ledger (only genesis is implicitly committed).
    pub fn new() -> Self {
        Self::default()
    }

    /// The committed chain, oldest block first (genesis excluded).
    pub fn chain(&self) -> &[HashValue] {
        &self.committed
    }

    /// Consumes the ledger into the committed chain, oldest block first.
    pub fn into_chain(self) -> Vec<HashValue> {
        self.committed
    }

    /// True if `id` is committed and has not been [forgotten](Self::forget).
    pub fn contains(&self, id: HashValue) -> bool {
        self.committed_ids.contains(&id)
    }

    /// Drops `pruned` — the ids a [`BlockStore::prune_below`] just removed
    /// — from the membership index. [`chain`](Self::chain) keeps every id;
    /// only [`contains`](Self::contains) stops answering for blocks the
    /// store no longer holds, which no finalization walk can reach anyway.
    pub fn forget(&mut self, pruned: &[HashValue]) {
        for id in pruned {
            self.committed_ids.remove(id);
        }
    }

    /// The most recently committed block, if any.
    pub fn tip(&self) -> Option<HashValue> {
        self.committed.last().copied()
    }

    /// True if this ledger ever observed two conflicting finalized chains —
    /// impossible while the fault assumption of the committed levels holds,
    /// and the signal the strengthened rule exists to price in.
    pub fn safety_violated(&self) -> bool {
        self.safety_violation
    }

    /// Finalizes the chain through `target` by walking back to the
    /// committed tip — O(new suffix), not O(whole chain). Returns the newly
    /// committed ids, oldest first (empty if `target` is already committed
    /// or unknown).
    ///
    /// The finalized chain must extend what was committed before; anything
    /// else sets the sticky [`safety_violated`](Self::safety_violated) flag
    /// and commits nothing.
    pub fn finalize_through(&mut self, store: &BlockStore, target: HashValue) -> Vec<HashValue> {
        if self.committed_ids.contains(&target) {
            return Vec::new();
        }
        let mut suffix = Vec::new();
        let mut cursor = target;
        let extends_committed_tip = loop {
            let Some(block) = store.get(cursor) else {
                return Vec::new();
            };
            if block.is_genesis() {
                // Rooted directly at genesis: consistent only if nothing
                // was committed before.
                break self.committed.is_empty();
            }
            suffix.push(cursor);
            let parent_id = block.parent_id();
            if self.committed_ids.contains(&parent_id) {
                // Extending anything but the committed tip forks out of
                // the middle of the finalized prefix.
                break self.committed.last() == Some(&parent_id);
            }
            cursor = parent_id;
        };
        if !extends_committed_tip {
            self.safety_violation = true;
            return Vec::new();
        }
        suffix.reverse();
        for id in &suffix {
            self.committed.push(*id);
            self.committed_ids.insert(*id);
        }
        suffix
    }

    /// Re-attempts deferred finalizations: targets a commit rule declared
    /// while the local chain still had holes (blocks being block-synced).
    /// Each target either finalizes now — its newly committed ids are
    /// returned, oldest first — or stays in `deferred` for the next
    /// attempt. Both protocol replicas call this after every sync
    /// admission.
    pub fn finalize_deferred(
        &mut self,
        store: &BlockStore,
        deferred: &mut Vec<HashValue>,
    ) -> Vec<HashValue> {
        let targets = std::mem::take(deferred);
        let mut committed = Vec::new();
        for target in targets {
            if self.contains(target) {
                continue;
            }
            let newly = self.finalize_through(store, target);
            if newly.is_empty() {
                deferred.push(target);
                continue;
            }
            committed.extend(newly);
        }
        committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Block;
    use sft_types::{Payload, ReplicaId, Round};

    fn chain(store: &mut BlockStore, rounds: &[u64]) -> Vec<Block> {
        let mut parent = store.genesis().clone();
        rounds
            .iter()
            .map(|&round| {
                let block = Block::new(
                    &parent,
                    Round::new(round),
                    ReplicaId::new((round % 4) as u16),
                    Payload::synthetic(1, 1, round),
                );
                store.insert(block.clone()).unwrap();
                parent = block.clone();
                block
            })
            .collect()
    }

    #[test]
    fn finalize_appends_suffix_incrementally() {
        let mut store = BlockStore::new();
        let blocks = chain(&mut store, &[1, 2, 3, 4]);
        let mut ledger = CommitLedger::new();
        assert_eq!(
            ledger.finalize_through(&store, blocks[1].id()),
            vec![blocks[0].id(), blocks[1].id()]
        );
        // Finalizing deeper only appends the new part.
        assert_eq!(
            ledger.finalize_through(&store, blocks[3].id()),
            vec![blocks[2].id(), blocks[3].id()]
        );
        assert_eq!(ledger.chain().len(), 4);
        assert_eq!(ledger.tip(), Some(blocks[3].id()));
        assert!(ledger.contains(blocks[0].id()));
    }

    #[test]
    fn refinalizing_is_a_no_op() {
        let mut store = BlockStore::new();
        let blocks = chain(&mut store, &[1, 2]);
        let mut ledger = CommitLedger::new();
        ledger.finalize_through(&store, blocks[1].id());
        assert!(ledger.finalize_through(&store, blocks[1].id()).is_empty());
        assert!(ledger.finalize_through(&store, blocks[0].id()).is_empty());
        assert_eq!(ledger.chain().len(), 2);
    }

    #[test]
    fn unknown_target_commits_nothing() {
        let store = BlockStore::new();
        let mut ledger = CommitLedger::new();
        assert!(ledger
            .finalize_through(&store, sft_crypto::HashValue::of(b"nope"))
            .is_empty());
        assert!(!ledger.safety_violated());
    }

    #[test]
    fn conflicting_finalization_flags_safety_violation() {
        let mut store = BlockStore::new();
        let main = chain(&mut store, &[1, 2]);
        // A fork off genesis.
        let fork = Block::new(
            store.genesis(),
            Round::new(3),
            ReplicaId::new(0),
            Payload::synthetic(9, 9, 9),
        );
        store.insert(fork.clone()).unwrap();

        let mut ledger = CommitLedger::new();
        ledger.finalize_through(&store, main[1].id());
        assert!(ledger.finalize_through(&store, fork.id()).is_empty());
        assert!(ledger.safety_violated(), "fork off the committed prefix");
        assert_eq!(ledger.chain().len(), 2, "committed chain unchanged");
    }

    #[test]
    fn mid_prefix_fork_flags_safety_violation() {
        let mut store = BlockStore::new();
        let main = chain(&mut store, &[1, 2, 3]);
        // A fork off main[0], conflicting with committed main[1..].
        let fork = Block::new(
            &main[0],
            Round::new(7),
            ReplicaId::new(0),
            Payload::synthetic(9, 9, 9),
        );
        store.insert(fork.clone()).unwrap();
        let mut ledger = CommitLedger::new();
        ledger.finalize_through(&store, main[2].id());
        assert!(ledger.finalize_through(&store, fork.id()).is_empty());
        assert!(ledger.safety_violated());
    }
}
