//! Blocks and the [`BlockStore`] chain index.
//!
//! A [`Block`] matches the paper's block format (§2.1): a parent link
//! `H(B_{k-1})`, the proposing round, the chain height, the proposer, and a
//! transaction payload. The [`BlockStore`] keeps every delivered block,
//! answers ancestry queries (`extends`, ancestor walks), and is the
//! structure the endorsement tracker traverses when a strong-vote endorses
//! a chain suffix.

use std::collections::HashMap;
use std::fmt;

use sft_crypto::{HashValue, Hasher};
use sft_types::codec::{Decode, DecodeError, Encode};
use sft_types::{Height, Payload, ReplicaId, Round, VoteData};

/// A proposed block: parent link, position, proposer, and payload.
///
/// The block id is a domain-separated hash over all fields, computed once at
/// construction; two blocks with any differing field get distinct ids.
///
/// # Examples
///
/// ```
/// use sft_core::Block;
/// use sft_types::{Payload, ReplicaId, Round};
///
/// let genesis = Block::genesis();
/// let b1 = Block::new(&genesis, Round::new(1), ReplicaId::new(0), Payload::empty());
/// assert_eq!(b1.parent_id(), genesis.id());
/// assert_eq!(b1.height().as_u64(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Block {
    parent_id: HashValue,
    parent_round: Round,
    round: Round,
    height: Height,
    proposer: ReplicaId,
    payload: Payload,
    /// Derived from the other fields; never encoded, recomputed on decode.
    id: HashValue,
}

fn block_id(
    parent_id: &HashValue,
    parent_round: Round,
    round: Round,
    height: Height,
    proposer: ReplicaId,
    payload: &Payload,
) -> HashValue {
    Hasher::new("block")
        .field(parent_id.as_ref())
        .field(&parent_round.as_u64().to_be_bytes())
        .field(&round.as_u64().to_be_bytes())
        .field(&height.as_u64().to_be_bytes())
        .field(&proposer.as_u64().to_be_bytes())
        .field(payload.digest().as_ref())
        .finish()
}

impl Block {
    /// The genesis block: round 0, height 0, zero parent, trusted by
    /// construction (every replica starts with it notarized and committed).
    pub fn genesis() -> Self {
        Self::from_parts(
            HashValue::zero(),
            Round::ZERO,
            Round::ZERO,
            Height::ZERO,
            ReplicaId::new(0),
            Payload::empty(),
        )
    }

    /// Creates a block extending `parent` in `round` with the given payload.
    ///
    /// # Panics
    ///
    /// Panics if `round` does not exceed the parent's round — chains carry
    /// strictly increasing rounds by construction.
    pub fn new(parent: &Block, round: Round, proposer: ReplicaId, payload: Payload) -> Self {
        assert!(
            round > parent.round,
            "round {round} must exceed parent round {}",
            parent.round
        );
        Self::from_parts(
            parent.id,
            parent.round,
            round,
            parent.height.next(),
            proposer,
            payload,
        )
    }

    /// Reassembles a block from raw fields (decoder and Byzantine test
    /// harnesses). The id is recomputed, so a forged id cannot survive.
    pub fn from_parts(
        parent_id: HashValue,
        parent_round: Round,
        round: Round,
        height: Height,
        proposer: ReplicaId,
        payload: Payload,
    ) -> Self {
        let id = block_id(&parent_id, parent_round, round, height, proposer, &payload);
        Self {
            parent_id,
            parent_round,
            round,
            height,
            proposer,
            payload,
            id,
        }
    }

    /// The block id (`H(B)`).
    pub fn id(&self) -> HashValue {
        self.id
    }

    /// Id of the parent block.
    pub fn parent_id(&self) -> HashValue {
        self.parent_id
    }

    /// Round of the parent block.
    pub fn parent_round(&self) -> Round {
        self.parent_round
    }

    /// The round (epoch) this block was proposed in.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The chain height of this block.
    pub fn height(&self) -> Height {
        self.height
    }

    /// The proposing replica.
    pub fn proposer(&self) -> ReplicaId {
        self.proposer
    }

    /// The transaction payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// True for the genesis block.
    pub fn is_genesis(&self) -> bool {
        self.round == Round::ZERO && self.parent_id.is_zero()
    }

    /// The [`VoteData`] a vote for this block certifies.
    pub fn vote_data(&self) -> VoteData {
        VoteData::new(self.id, self.round, self.parent_id, self.parent_round)
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Block({} r={} h={} by {} <- {})",
            self.id.short(),
            self.round,
            self.height,
            self.proposer,
            self.parent_id.short()
        )
    }
}

impl Encode for Block {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.parent_id.encode(buf);
        self.parent_round.encode(buf);
        self.round.encode(buf);
        self.height.encode(buf);
        self.proposer.encode(buf);
        self.payload.encode(buf);
    }
}

impl Decode for Block {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let parent_id = HashValue::decode(buf)?;
        let parent_round = Round::decode(buf)?;
        let round = Round::decode(buf)?;
        let height = Height::decode(buf)?;
        let proposer = ReplicaId::decode(buf)?;
        let payload = Payload::decode(buf)?;
        Ok(Self::from_parts(
            parent_id,
            parent_round,
            round,
            height,
            proposer,
            payload,
        ))
    }
}

/// Error returned by [`BlockStore::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockStoreError {
    /// The block's parent has not been delivered — callers must insert
    /// blocks parent-first (the simulator's synchronous delivery guarantees
    /// this; a real network layer would buffer orphans).
    UnknownParent,
    /// The block's height is not `parent.height + 1`.
    WrongHeight,
    /// The block's recorded parent round disagrees with the stored parent.
    WrongParentRound,
}

impl fmt::Display for BlockStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockStoreError::UnknownParent => write!(f, "parent block not in store"),
            BlockStoreError::WrongHeight => write!(f, "height is not parent height + 1"),
            BlockStoreError::WrongParentRound => write!(f, "parent round mismatch"),
        }
    }
}

impl std::error::Error for BlockStoreError {}

/// An index of delivered blocks, rooted at genesis. Append-only except for
/// [`prune_below`](Self::prune_below), which drops whole rounds from the
/// old end once a replica's retention horizon has passed them.
///
/// # Examples
///
/// ```
/// use sft_core::{Block, BlockStore};
/// use sft_types::{Payload, ReplicaId, Round};
///
/// let mut store = BlockStore::new();
/// let genesis = store.genesis().clone();
/// let b1 = Block::new(&genesis, Round::new(1), ReplicaId::new(0), Payload::empty());
/// store.insert(b1.clone()).unwrap();
/// assert!(store.extends(b1.id(), genesis.id()));
/// ```
#[derive(Clone, Debug)]
pub struct BlockStore {
    blocks: HashMap<HashValue, Block>,
    genesis_id: HashValue,
}

impl Default for BlockStore {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockStore {
    /// Creates a store containing only the genesis block.
    pub fn new() -> Self {
        let genesis = Block::genesis();
        let genesis_id = genesis.id();
        let mut blocks = HashMap::new();
        blocks.insert(genesis_id, genesis);
        Self { blocks, genesis_id }
    }

    /// Id of the genesis block.
    pub fn genesis_id(&self) -> HashValue {
        self.genesis_id
    }

    /// The genesis block.
    pub fn genesis(&self) -> &Block {
        &self.blocks[&self.genesis_id]
    }

    /// Number of blocks in the store, genesis included.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Always false: genesis is present from construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Adds a block whose parent is already present. Re-inserting a known
    /// block is a no-op returning `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Rejects blocks with unknown parents or inconsistent parent metadata,
    /// so every stored block sits on a verified path to genesis.
    pub fn insert(&mut self, block: Block) -> Result<bool, BlockStoreError> {
        if self.blocks.contains_key(&block.id()) {
            return Ok(false);
        }
        let parent = self
            .blocks
            .get(&block.parent_id())
            .ok_or(BlockStoreError::UnknownParent)?;
        if block.height() != parent.height().next() {
            return Err(BlockStoreError::WrongHeight);
        }
        if block.parent_round() != parent.round() {
            return Err(BlockStoreError::WrongParentRound);
        }
        self.blocks.insert(block.id(), block);
        Ok(true)
    }

    /// Drops every block whose round is below `floor` (genesis always
    /// stays) and returns the dropped ids, so id-keyed bookkeeping elsewhere
    /// can forget them too. Ancestor walks simply end where the retained
    /// chain does; a block whose parent was dropped can no longer be
    /// inserted ([`BlockStoreError::UnknownParent`]).
    pub fn prune_below(&mut self, floor: Round) -> Vec<HashValue> {
        let mut dropped = Vec::new();
        self.blocks.retain(|id, block| {
            let keep = block.round() >= floor || block.is_genesis();
            if !keep {
                dropped.push(*id);
            }
            keep
        });
        dropped
    }

    /// Looks up a block by id.
    pub fn get(&self, id: HashValue) -> Option<&Block> {
        self.blocks.get(&id)
    }

    /// True if `id` is in the store.
    pub fn contains(&self, id: HashValue) -> bool {
        self.blocks.contains_key(&id)
    }

    /// Iterates over `id`'s strict ancestors, nearest first, ending at
    /// genesis. Empty if `id` is unknown or genesis.
    pub fn ancestors(&self, id: HashValue) -> Ancestors<'_> {
        let current = self
            .blocks
            .get(&id)
            .filter(|b| !b.is_genesis())
            .map(|b| b.parent_id());
        Ancestors {
            store: self,
            current,
        }
    }

    /// True if `descendant` transitively extends `ancestor` (a block does
    /// not extend itself).
    pub fn extends(&self, descendant: HashValue, ancestor: HashValue) -> bool {
        self.ancestors(descendant).any(|b| b.id() == ancestor)
    }

    /// The deepest block on both `a`'s and `b`'s paths to genesis (either
    /// endpoint counts as its own ancestor here — the common ancestor of a
    /// block and its parent is the parent). `None` if either id is unknown.
    ///
    /// This is the fork point `r_l` of the §3.4 window computation: a voter
    /// that once voted on fork `F` withholds endorsement exactly for rounds
    /// in `(common_ancestor(F, B).round, F.round]`.
    pub fn common_ancestor(&self, a: HashValue, b: HashValue) -> Option<&Block> {
        if !self.blocks.contains_key(&a) {
            return None;
        }
        let on_a_path: std::collections::HashSet<HashValue> = std::iter::once(a)
            .chain(self.ancestors(a).map(|blk| blk.id()))
            .collect();
        if b == a || on_a_path.contains(&b) {
            return self.blocks.get(&b);
        }
        std::iter::once(self.blocks.get(&b)?)
            .chain(self.ancestors(b))
            .find(|blk| on_a_path.contains(&blk.id()))
    }

    /// The chain from genesis (exclusive) to `id` (inclusive), oldest first.
    /// Empty if `id` is unknown.
    pub fn chain_to(&self, id: HashValue) -> Vec<&Block> {
        let mut chain: Vec<&Block> = self.ancestors(id).filter(|b| !b.is_genesis()).collect();
        chain.reverse();
        if let Some(block) = self.blocks.get(&id) {
            if !block.is_genesis() {
                chain.push(block);
            }
        }
        chain
    }
}

/// Iterator over a block's strict ancestors, nearest first.
#[derive(Clone, Debug)]
pub struct Ancestors<'a> {
    store: &'a BlockStore,
    current: Option<HashValue>,
}

impl<'a> Iterator for Ancestors<'a> {
    type Item = &'a Block;

    fn next(&mut self) -> Option<&'a Block> {
        let id = self.current.take()?;
        let block = self.store.blocks.get(&id)?;
        if !block.is_genesis() {
            self.current = Some(block.parent_id());
        }
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extend(store: &mut BlockStore, parent: HashValue, round: u64) -> Block {
        let parent = store.get(parent).unwrap().clone();
        let block = Block::new(
            &parent,
            Round::new(round),
            ReplicaId::new((round % 4) as u16),
            Payload::synthetic(10, 10, round),
        );
        store.insert(block.clone()).unwrap();
        block
    }

    #[test]
    fn genesis_properties() {
        let g = Block::genesis();
        assert!(g.is_genesis());
        assert_eq!(g.height(), Height::ZERO);
        assert_eq!(g.round(), Round::ZERO);
        assert!(g.parent_id().is_zero());
        // Deterministic: every replica derives the same genesis id.
        assert_eq!(g.id(), Block::genesis().id());
    }

    #[test]
    fn id_binds_all_fields() {
        let g = Block::genesis();
        let a = Block::new(&g, Round::new(1), ReplicaId::new(0), Payload::empty());
        let b = Block::new(&g, Round::new(2), ReplicaId::new(0), Payload::empty());
        let c = Block::new(&g, Round::new(1), ReplicaId::new(1), Payload::empty());
        let d = Block::new(
            &g,
            Round::new(1),
            ReplicaId::new(0),
            Payload::synthetic(1, 1, 0),
        );
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_ne!(a.id(), d.id());
    }

    #[test]
    fn vote_data_mirrors_block() {
        let g = Block::genesis();
        let b = Block::new(&g, Round::new(3), ReplicaId::new(2), Payload::empty());
        let vd = b.vote_data();
        assert_eq!(vd.block_id(), b.id());
        assert_eq!(vd.block_round(), Round::new(3));
        assert_eq!(vd.parent_id(), g.id());
        assert_eq!(vd.parent_round(), Round::ZERO);
    }

    #[test]
    #[should_panic(expected = "must exceed parent round")]
    fn non_increasing_round_panics() {
        let g = Block::genesis();
        let b1 = Block::new(&g, Round::new(5), ReplicaId::new(0), Payload::empty());
        let _ = Block::new(&b1, Round::new(5), ReplicaId::new(1), Payload::empty());
    }

    #[test]
    fn codec_roundtrip_recomputes_id() {
        let g = Block::genesis();
        let b = Block::new(
            &g,
            Round::new(2),
            ReplicaId::new(1),
            Payload::synthetic(5, 5, 1),
        );
        let back = Block::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.id(), b.id());
    }

    #[test]
    fn store_insert_and_lookup() {
        let mut store = BlockStore::new();
        let genesis_id = store.genesis_id();
        let b1 = extend(&mut store, genesis_id, 1);
        let b2 = extend(&mut store, b1.id(), 2);
        assert_eq!(store.len(), 3);
        assert!(store.contains(b2.id()));
        assert_eq!(store.get(b1.id()).unwrap().round(), Round::new(1));
        // Duplicate insert is an accepted no-op.
        assert_eq!(store.insert(b1.clone()), Ok(false));
    }

    #[test]
    fn store_rejects_orphans_and_bad_links() {
        let mut store = BlockStore::new();
        let other_parent = Block::new(
            &Block::genesis(),
            Round::new(1),
            ReplicaId::new(0),
            Payload::empty(),
        );
        let orphan = Block::new(
            &other_parent,
            Round::new(2),
            ReplicaId::new(0),
            Payload::empty(),
        );
        assert_eq!(store.insert(orphan), Err(BlockStoreError::UnknownParent));

        // Forged height: parent is genesis (height 0) but block claims 5.
        let bad_height = Block::from_parts(
            store.genesis_id(),
            Round::ZERO,
            Round::new(1),
            Height::new(5),
            ReplicaId::new(0),
            Payload::empty(),
        );
        assert_eq!(store.insert(bad_height), Err(BlockStoreError::WrongHeight));

        // Forged parent round.
        let bad_round = Block::from_parts(
            store.genesis_id(),
            Round::new(9),
            Round::new(10),
            Height::new(1),
            ReplicaId::new(0),
            Payload::empty(),
        );
        assert_eq!(
            store.insert(bad_round),
            Err(BlockStoreError::WrongParentRound)
        );
    }

    #[test]
    fn ancestry_queries() {
        let mut store = BlockStore::new();
        let genesis_id = store.genesis_id();
        let b1 = extend(&mut store, genesis_id, 1);
        let b2 = extend(&mut store, b1.id(), 2);
        let b3 = extend(&mut store, b2.id(), 3);
        // A fork off b1.
        let c2 = extend(&mut store, b1.id(), 4);

        assert!(store.extends(b3.id(), b1.id()));
        assert!(store.extends(b3.id(), genesis_id));
        assert!(!store.extends(b3.id(), c2.id()));
        assert!(
            !store.extends(b1.id(), b1.id()),
            "a block does not extend itself"
        );

        let rounds: Vec<u64> = store
            .ancestors(b3.id())
            .map(|b| b.round().as_u64())
            .collect();
        assert_eq!(
            rounds,
            vec![2, 1, 0],
            "nearest ancestor first, genesis last"
        );

        let chain: Vec<u64> = store
            .chain_to(b3.id())
            .iter()
            .map(|b| b.round().as_u64())
            .collect();
        assert_eq!(chain, vec![1, 2, 3], "oldest first, genesis excluded");
        assert!(store.chain_to(HashValue::of(b"nope")).is_empty());
    }

    #[test]
    fn common_ancestor_finds_fork_point() {
        let mut store = BlockStore::new();
        let genesis_id = store.genesis_id();
        let b1 = extend(&mut store, genesis_id, 1);
        let b2 = extend(&mut store, b1.id(), 2);
        let b3 = extend(&mut store, b2.id(), 3);
        let c2 = extend(&mut store, b1.id(), 4); // fork off b1

        let fork_point = store.common_ancestor(b3.id(), c2.id()).unwrap();
        assert_eq!(fork_point.id(), b1.id());
        // Symmetric.
        let fork_point = store.common_ancestor(c2.id(), b3.id()).unwrap();
        assert_eq!(fork_point.id(), b1.id());
        // An endpoint on the other's path is the answer itself.
        assert_eq!(
            store.common_ancestor(b3.id(), b1.id()).unwrap().id(),
            b1.id()
        );
        assert_eq!(
            store.common_ancestor(b1.id(), b3.id()).unwrap().id(),
            b1.id()
        );
        assert_eq!(
            store.common_ancestor(b2.id(), b2.id()).unwrap().id(),
            b2.id()
        );
        // Fully disjoint non-genesis paths meet at genesis.
        let d1 = extend(&mut store, genesis_id, 9);
        assert_eq!(
            store.common_ancestor(b3.id(), d1.id()).unwrap().id(),
            genesis_id
        );
        // Unknown ids have no common ancestor.
        assert!(store
            .common_ancestor(b3.id(), HashValue::of(b"nope"))
            .is_none());
        assert!(store
            .common_ancestor(HashValue::of(b"nope"), b3.id())
            .is_none());
    }

    #[test]
    fn pruning_drops_old_rounds_and_walks_end_at_the_gap() {
        let mut store = BlockStore::new();
        let genesis_id = store.genesis_id();
        let b1 = extend(&mut store, genesis_id, 1);
        let b2 = extend(&mut store, b1.id(), 2);
        let b3 = extend(&mut store, b2.id(), 3);
        let mut dropped = store.prune_below(Round::new(3));
        dropped.sort();
        let mut expected = vec![b1.id(), b2.id()];
        expected.sort();
        assert_eq!(dropped, expected);
        assert!(store.contains(genesis_id), "genesis is never pruned");
        assert!(store.contains(b3.id()));
        assert_eq!(store.ancestors(b3.id()).count(), 0, "the parent is gone");
        assert!(!store.extends(b3.id(), b1.id()));
        // A late sibling of a pruned block can no longer attach.
        let late = Block::new(&b1, Round::new(9), ReplicaId::new(1), Payload::empty());
        assert_eq!(store.insert(late), Err(BlockStoreError::UnknownParent));
        // Descendants of retained blocks still do.
        extend(&mut store, b3.id(), 4);
    }

    #[test]
    fn genesis_has_no_ancestors() {
        let store = BlockStore::new();
        assert_eq!(store.ancestors(store.genesis_id()).count(), 0);
        assert!(!store.is_empty());
    }
}
