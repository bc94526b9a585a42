//! Blocks and the [`BlockStore`] chain index.
//!
//! A [`Block`] matches the paper's block format (§2.1): a parent link
//! `H(B_{k-1})`, the proposing round, the chain height, the proposer, and a
//! transaction payload. The [`BlockStore`] keeps every delivered block,
//! answers ancestry queries (`extends`, ancestor walks), and is the
//! structure the endorsement tracker traverses when a strong-vote endorses
//! a chain suffix. A committed block is kept as its header alone once its
//! bytes are elsewhere: durable in the replica's log, or in the frame it
//! arrived in ([`BlockStore::spill`]).

use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use sft_crypto::{HashValue, Hasher, IdMap, IdSet};
use sft_types::codec::{put, Decode, DecodeError, Encode, Reader};
use sft_types::{Height, Payload, ReplicaId, Round, SharedBytes, VoteData};

use crate::wal::WalSpan;

/// A proposed block: parent link, position, proposer, and payload.
///
/// The block id is a domain-separated hash over all fields, computed once at
/// construction; two blocks with any differing field get distinct ids.
///
/// A block that arrived in a frame holds its bytes: its canonical encoding
/// is a range of the frame it was decoded from ([`Decode::from_shared`]),
/// and its transactions' payloads are ranges within that. A leader's
/// block holds the proposal buffer it was written into
/// ([`encode_held`](Self::encode_held)). Cloning a block shares both the
/// payload and the bytes, and encoding it — into a WAL frame, a sync
/// response — copies the held bytes once.
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
#[derive(Clone)]
pub struct Block {
    parent_id: HashValue,
    parent_round: Round,
    round: Round,
    height: Height,
    proposer: ReplicaId,
    payload: Arc<Payload>,
    /// Derived from the other fields; never encoded, recomputed on decode.
    id: HashValue,
    /// The block's canonical encoding, when it is held: exactly the bytes
    /// [`Encode::encode`] would write, since the codec is canonical. Not
    /// part of the block's value — equality and hashing ignore it.
    encoding: Option<SharedBytes>,
}

/// Bytes of a block's encoding ahead of its payload: parent id, parent
/// round, round, height and proposer.
const BLOCK_HEADER_LEN: usize = HashValue::LEN + 8 + 8 + 8 + 2;

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
            payload: Arc::new(payload),
            id,
            encoding: None,
        }
    }

    /// Encodes the block between `before` and `after` into one new shared
    /// buffer, written in place — a leader's proposal buffer, whose message
    /// encoding surrounds the block's — and makes the block hold its
    /// encoding there. Its transactions are re-pointed into the buffer too,
    /// so the client frames they arrived in can be freed. Nothing is
    /// re-hashed: the bytes are the ones the ids were computed over.
    pub fn encode_held(&mut self, before: &[u8], after: &[u8]) -> Arc<[u8]> {
        let at = before.len();
        let end = at + self.encoded_len();
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, end + after.len()).collect();
        let mut head = Vec::with_capacity(BLOCK_HEADER_LEN);
        self.encode_head(&mut head);
        let bytes = Arc::make_mut(&mut buf);
        put(put(bytes, before), &head);
        bytes[end..].copy_from_slice(after);
        Arc::make_mut(&mut self.payload).write_held(&mut buf, at + BLOCK_HEADER_LEN);
        self.encoding = SharedBytes::range(&buf, at..end);
        buf
    }

    /// The encoding up to the payload: parent id, parent round, round,
    /// height and proposer.
    fn encode_head(&self, buf: &mut Vec<u8>) {
        self.parent_id.encode(buf);
        self.parent_round.encode(buf);
        self.round.encode(buf);
        self.height.encode(buf);
        self.proposer.encode(buf);
    }

    /// The held encoding, if the block holds one: a block decoded from a
    /// shared buffer holds the bytes it was read from, a leader's block
    /// its proposal buffer ([`encode_held`](Self::encode_held)).
    pub fn encoding(&self) -> Option<&SharedBytes> {
        self.encoding.as_ref()
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

    /// The transaction payload. Empty for a block a store spilled
    /// ([`BlockStore::spill`]): its transactions are in its bytes.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// The block as a store keeps it once it is spilled: the same id and
    /// header, an empty payload and no held encoding. Such a block is read
    /// for its position in the chain, never encoded.
    fn header_only(&self) -> Self {
        Self {
            payload: Arc::new(Payload::empty()),
            encoding: None,
            ..self.clone()
        }
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

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.parent_id == other.parent_id
            && self.parent_round == other.parent_round
            && self.round == other.round
            && self.height == other.height
            && self.proposer == other.proposer
            && self.payload == other.payload
    }
}

impl Eq for Block {}

impl Hash for Block {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
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
        if let Some(held) = &self.encoding {
            buf.extend_from_slice(held);
            return;
        }
        self.encode_head(buf);
        self.payload.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        BLOCK_HEADER_LEN + self.payload.encoded_len()
    }
}

impl Decode for Block {
    const MIN_ENCODED_LEN: usize = BLOCK_HEADER_LEN + Payload::MIN_ENCODED_LEN;

    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Reader::copying(buf, Self::decode_from)
    }

    /// Decodes a block that holds the bytes it was read from, when the
    /// reader shares its buffer.
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let start = reader.remaining();
        let mut block = Self::from_parts(
            reader.read()?,
            reader.read()?,
            reader.read()?,
            reader.read()?,
            reader.read()?,
            reader.read()?,
        );
        block.encoding = reader.held_since(start);
        Ok(block)
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

/// Where a spilled block's bytes are ([`BlockStore::spill`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Spilled {
    /// Its `BlockCommitted` frame, durable in the replica's log.
    Log(WalSpan),
    /// Its held encoding: a range of the frame it arrived in, which stays
    /// resident.
    Held(SharedBytes),
}

/// An index of delivered blocks, rooted at genesis. Append-only except for
/// [`prune_below`](Self::prune_below), which drops whole rounds from the
/// old end once a replica's retention horizon has passed them, and
/// [`spill`](Self::spill), which keeps only the header of a committed block
/// whose bytes are elsewhere.
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
    blocks: IdMap<Block>,
    /// Where the bytes of each spilled block are.
    spilled: IdMap<Spilled>,
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
        let mut blocks = IdMap::default();
        blocks.insert(genesis_id, genesis);
        Self {
            blocks,
            spilled: IdMap::default(),
            genesis_id,
        }
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
        for id in &dropped {
            self.spilled.remove(id);
        }
        dropped
    }

    /// Drops the payload and held encoding of block `id`, whose bytes are
    /// at `to`; [`get`](Self::get) returns its header from now on, and
    /// [`spilled`](Self::spilled) where its bytes are. Returns false (and
    /// changes nothing) if the block is not held, is genesis, or was
    /// spilled already.
    pub fn spill(&mut self, id: HashValue, to: Spilled) -> bool {
        let Some(block) = self.blocks.get_mut(&id) else {
            return false;
        };
        if block.is_genesis() || self.spilled.contains_key(&id) {
            return false;
        }
        *block = block.header_only();
        self.spilled.insert(id, to);
        true
    }

    /// Spills block `id` to the encoding it holds ([`Spilled::Held`]):
    /// its decoded transactions go, the frame they were ranges of stays.
    /// Returns false, and the block keeps its payload, if it holds no
    /// encoding (it was built, not decoded) or cannot be spilled.
    pub fn spill_to_held(&mut self, id: HashValue) -> bool {
        let Some(held) = self.blocks.get(&id).and_then(Block::encoding).cloned() else {
            return false;
        };
        self.spill(id, Spilled::Held(held))
    }

    /// Where block `id`'s bytes are, if the store spilled it.
    pub fn spilled(&self, id: HashValue) -> Option<&Spilled> {
        self.spilled.get(&id)
    }

    /// The encoding bytes the store holds: each block's held encoding (or
    /// its encoded size, for a block built rather than decoded), also once
    /// the block is spilled to it, genesis and blocks spilled to the log
    /// excluded.
    pub fn payload_bytes(&self) -> u64 {
        self.blocks
            .iter()
            .filter(|(_, block)| !block.is_genesis())
            .map(|(id, block)| match self.spilled.get(id) {
                Some(Spilled::Log(_)) => 0,
                Some(Spilled::Held(held)) => held.len() as u64,
                None => block
                    .encoding()
                    .map_or_else(|| block.encoded_len(), |held| held.len())
                    as u64,
            })
            .sum()
    }

    /// Every block in the store, genesis included, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.values()
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
        let on_a_path: IdSet = std::iter::once(a)
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
    use sft_types::Transaction;

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
    fn a_spilled_block_keeps_its_place_in_the_chain_and_drops_its_bytes() {
        let mut store = BlockStore::new();
        let genesis_id = store.genesis_id();
        let b1 = extend(&mut store, genesis_id, 1);
        let b2 = extend(&mut store, b1.id(), 2);
        let held = store.payload_bytes();
        assert_eq!(held, (b1.encoded_len() + b2.encoded_len()) as u64);
        let span = Spilled::Log(WalSpan {
            offset: 12,
            len: 345,
        });
        assert!(store.spill(b1.id(), span.clone()));
        assert!(!store.spill(b1.id(), span.clone()), "once");
        assert!(
            !store.spill(genesis_id, span.clone()),
            "genesis stays whole"
        );
        assert_eq!(store.spilled(b1.id()), Some(&span));
        assert_eq!(store.payload_bytes(), b2.encoded_len() as u64);
        let header = store.get(b1.id()).unwrap();
        assert_eq!(
            (
                header.id(),
                header.round(),
                header.height(),
                header.parent_id()
            ),
            (b1.id(), b1.round(), b1.height(), b1.parent_id())
        );
        assert!(header.payload().is_empty() && header.encoding().is_none());
        assert!(store.extends(b2.id(), b1.id()));
        extend(&mut store, b1.id(), 3); // a child still attaches
        store.prune_below(Round::new(2));
        assert_eq!(store.spilled(b1.id()), None, "pruned with its block");
    }

    #[test]
    fn a_block_spilled_to_its_held_encoding_drops_its_transactions_not_its_bytes() {
        let mut store = BlockStore::new();
        let txns = (0..3).map(|seq| Transaction::new(1, seq, vec![9; 64]));
        let built = Block::new(
            store.genesis(),
            Round::new(1),
            ReplicaId::new(1),
            Payload::Transactions(txns.collect()),
        );
        let frame: Arc<[u8]> = built.to_bytes().into();
        let held = Block::from_shared(&frame).unwrap();
        store.insert(held.clone()).unwrap();
        let bytes = store.payload_bytes();
        assert_eq!(bytes, frame.len() as u64);

        assert!(store.spill_to_held(held.id()));
        let header = store.get(held.id()).unwrap();
        assert!(header.payload().is_empty() && header.encoding().is_none());
        let Some(Spilled::Held(at)) = store.spilled(held.id()) else {
            panic!("spilled to its held bytes");
        };
        assert!(Arc::ptr_eq(at.buffer(), &frame), "the frame it arrived in");
        assert_eq!(store.payload_bytes(), bytes, "held bytes are resident");
        assert!(!store.spill_to_held(held.id()), "once");

        // A block built here holds no encoding: it keeps its payload.
        let child = Block::new(
            &held,
            Round::new(2),
            ReplicaId::new(2),
            built.payload().clone(),
        );
        store.insert(child.clone()).unwrap();
        assert!(!store.spill_to_held(child.id()));
        assert_eq!(store.get(child.id()).unwrap().payload().txn_count(), 3);
    }

    #[test]
    fn genesis_has_no_ancestors() {
        let store = BlockStore::new();
        assert_eq!(store.ancestors(store.genesis_id()).count(), 0);
        assert!(!store.is_empty());
    }
}
