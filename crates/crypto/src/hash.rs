//! The [`HashValue`] newtype: a 32-byte SHA-256 digest with ergonomic
//! formatting, ordering, and prefix display used throughout the stack for
//! block ids and transaction ids — and [`IdMap`] / [`IdSet`], the maps
//! keyed by them.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasher;

use crate::sha256::{Sha256, DIGEST_LEN};

/// A 256-bit hash value (SHA-256 output).
///
/// Used as block identifiers (`H(B_{k-1})` in the paper's block format, §2.1)
/// and transaction identifiers.
///
/// # Examples
///
/// ```
/// use sft_crypto::HashValue;
///
/// let h = HashValue::of(b"abc");
/// assert_ne!(h, HashValue::zero());
/// assert_eq!(h, HashValue::of(b"abc"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HashValue([u8; DIGEST_LEN]);

impl HashValue {
    /// Number of bytes in a hash value.
    pub const LEN: usize = DIGEST_LEN;

    /// The all-zero hash, used as the parent id of the genesis block.
    pub const fn zero() -> Self {
        Self([0u8; DIGEST_LEN])
    }

    /// Hashes `data` with SHA-256.
    pub fn of(data: &[u8]) -> Self {
        Self(Sha256::digest(data))
    }

    /// Wraps raw digest bytes.
    pub const fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        Self(bytes)
    }

    /// Returns the digest bytes.
    pub const fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// True if this is the all-zero hash.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// A short hex prefix for log-friendly display.
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl Default for HashValue {
    fn default() -> Self {
        Self::zero()
    }
}

impl fmt::Debug for HashValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HashValue({})", self.short())
    }
}

impl fmt::Display for HashValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for HashValue {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for HashValue {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Self(bytes)
    }
}

/// A map keyed by [`HashValue`], hashed by [`IdState`].
pub type IdMap<V> = HashMap<HashValue, V, IdState>;

/// A set of [`HashValue`]s, hashed by [`IdState`].
pub type IdSet = HashSet<HashValue, IdState>;

/// The odd multiplier every word is folded through (the 64-bit golden
/// ratio).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// Builds the hasher of every map keyed by a digest ([`IdMap`], [`IdSet`],
/// and the maps whose keys hold one).
///
/// Its keys are SHA-256 outputs already, so SipHash's per-byte rounds buy
/// nothing but time: [`IdHasher`] folds each 8-byte word through one
/// 64×64→128-bit multiply. All 32 bytes of an id reach the hash. The
/// seed is random per map (drawn from std's `RandomState`, itself keyed
/// randomly per process), so a client that grinds payloads cannot aim
/// ids at one bucket.
#[derive(Clone, Debug)]
pub struct IdState {
    seed: u64,
}

impl Default for IdState {
    fn default() -> Self {
        Self {
            seed: RandomState::new().hash_one(FOLD),
        }
    }
}

impl IdState {
    /// A state with a chosen seed, for tests that need one hash twice.
    #[cfg(test)]
    pub(crate) const fn with_seed(seed: u64) -> Self {
        Self { seed }
    }
}

impl BuildHasher for IdState {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.seed }
    }
}

/// The hasher [`IdState`] builds. See there.
#[derive(Clone, Debug)]
pub struct IdHasher {
    state: u64,
}

impl IdHasher {
    /// Folds `word` into the state: the 128-bit product with [`FOLD`],
    /// halves XORed, so every input bit reaches both ends of the result.
    #[inline]
    fn word(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(FOLD);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // The tail's length rides in the top byte, which its (at most
            // seven) bytes never reach.
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Incremental builder for hashing structured data.
///
/// Domain separation: every hash starts with a tag so that, e.g., a block id
/// can never collide with a vote digest.
///
/// # Examples
///
/// ```
/// use sft_crypto::Hasher;
///
/// let h1 = Hasher::new("block").field(&1u64.to_be_bytes()).finish();
/// let h2 = Hasher::new("vote").field(&1u64.to_be_bytes()).finish();
/// assert_ne!(h1, h2);
/// ```
#[derive(Clone, Debug)]
pub struct Hasher {
    inner: Sha256,
}

impl Hasher {
    /// Starts a hash with the domain-separation `tag`.
    pub fn new(tag: &str) -> Self {
        let mut inner = Sha256::new();
        inner.update(&(tag.len() as u64).to_be_bytes());
        inner.update(tag.as_bytes());
        Self { inner }
    }

    /// Appends a length-prefixed field.
    pub fn field(mut self, bytes: &[u8]) -> Self {
        self.inner.update(&(bytes.len() as u64).to_be_bytes());
        self.inner.update(bytes);
        self
    }

    /// Finishes and returns the digest.
    pub fn finish(self) -> HashValue {
        HashValue(self.inner.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        assert!(HashValue::zero().is_zero());
        assert!(!HashValue::of(b"x").is_zero());
    }

    #[test]
    fn display_is_hex() {
        let h = HashValue::of(b"abc");
        assert_eq!(
            h.to_string(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(h.short(), "ba7816bf");
    }

    #[test]
    fn hasher_domain_separation() {
        let a = Hasher::new("a").field(b"x").finish();
        let b = Hasher::new("b").field(b"x").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn hasher_field_framing() {
        // ("ab", "c") must differ from ("a", "bc"): length prefixes matter.
        let one = Hasher::new("t").field(b"ab").field(b"c").finish();
        let two = Hasher::new("t").field(b"a").field(b"bc").finish();
        assert_ne!(one, two);
    }

    /// The 8-byte length prefixes only ever buffer: a hash costs the blocks
    /// its bytes fill — ⌈(tag and field framing + payload + padding) / 64⌉ —
    /// and not one compression more, however the `update`s fall.
    #[test]
    fn short_framing_updates_cost_no_compression_of_their_own() {
        use crate::sha256::{blocks_compressed as blocks, BLOCK_LEN};
        let payload = vec![0x5au8; 4096];

        let before = blocks();
        let framed = Hasher::new("txn").field(&payload);
        let absorbed = 8 + "txn".len() + 8 + payload.len();
        assert_eq!(blocks() - before, (absorbed / BLOCK_LEN) as u64);
        let _ = framed.finish();
        // Padding: the 0x80 marker and the 8-byte bit length.
        assert_eq!(
            blocks() - before,
            (absorbed + 1 + 8).div_ceil(BLOCK_LEN) as u64
        );

        let before = blocks();
        let _ = Hasher::new("txn").finish();
        assert_eq!(blocks() - before, 1);
    }

    fn id_with(prefix: u8, word: u64, at: usize) -> HashValue {
        let mut bytes = [prefix; 32];
        bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
        HashValue::from_bytes(bytes)
    }

    #[test]
    fn two_id_states_hash_one_id_differently() {
        let id = HashValue::of(b"one id");
        let (a, b) = (IdState::default(), IdState::default());
        assert_ne!(
            a.hash_one(id),
            b.hash_one(id),
            "each map draws its own seed"
        );
        assert_eq!(a.hash_one(id), a.hash_one(id));
    }

    #[test]
    fn flipping_any_one_byte_of_an_id_changes_its_hash() {
        let state = IdState::with_seed(0x5eed);
        for id in [HashValue::zero(), HashValue::of(b"x"), HashValue::of(b"y")] {
            let base = state.hash_one(id);
            for at in 0..HashValue::LEN {
                for flip in [0x01u8, 0x80, 0xff] {
                    let mut bytes = *id.as_bytes();
                    bytes[at] ^= flip;
                    assert_ne!(
                        state.hash_one(HashValue::from_bytes(bytes)),
                        base,
                        "byte {at} ^ {flip:#04x} of {id:?} does not reach the hash"
                    );
                }
            }
        }
    }

    /// 2¹⁶ ids that differ only in one 8-byte word, bucketed by the low
    /// 12 bits (how a table of 4096 slots indexes them): no bucket holds
    /// more than 4× the mean.
    fn assert_spread(at: usize) {
        const BUCKETS: usize = 1 << 12;
        const IDS: u64 = 1 << 16;
        for seed in [0, 1, 0x5eed, u64::MAX] {
            let state = IdState::with_seed(seed);
            let mut buckets = vec![0u32; BUCKETS];
            for i in 0..IDS {
                buckets[state.hash_one(id_with(0xa5, i, at)) as usize % BUCKETS] += 1;
            }
            let mean = (IDS / BUCKETS as u64) as u32;
            let worst = *buckets.iter().max().unwrap();
            assert!(
                worst <= 4 * mean,
                "seed {seed:#x}: a bucket holds {worst} ids, mean {mean}"
            );
        }
    }

    #[test]
    fn ids_sharing_a_24_byte_prefix_spread_over_the_buckets() {
        assert_spread(24);
    }

    #[test]
    fn ids_sharing_a_24_byte_suffix_spread_over_the_buckets() {
        assert_spread(0);
    }

    /// Random inserts, removes and lookups on an [`IdMap`] and a
    /// `BTreeMap` side by side: they never disagree.
    #[test]
    fn id_map_matches_a_btree_map_under_random_operations() {
        use crate::rng::SplitMix64;
        use std::collections::BTreeMap;
        for seed in 0..8 {
            let mut rng = SplitMix64::new(seed);
            let mut map: IdMap<u64> = IdMap::default();
            let mut model = BTreeMap::new();
            // A small pool, so operations hit present keys often.
            let pool: Vec<HashValue> = (0..300u64)
                .map(|i| HashValue::of(&i.to_le_bytes()))
                .collect();
            for step in 0..20_000 {
                let key = pool[rng.next_below(pool.len() as u64) as usize];
                match rng.next_below(3) {
                    0 => assert_eq!(map.insert(key, step), model.insert(key, step)),
                    1 => assert_eq!(map.remove(&key), model.remove(&key)),
                    _ => assert_eq!(map.get(&key), model.get(&key)),
                }
                assert_eq!(map.len(), model.len());
            }
            let mut entries: Vec<_> = map.into_iter().collect();
            entries.sort();
            assert!(entries.into_iter().eq(model), "seed {seed}: same contents");
        }
    }

    #[test]
    fn ordering_is_bytewise() {
        let lo = HashValue::from_bytes([0u8; 32]);
        let mut hi_bytes = [0u8; 32];
        hi_bytes[0] = 1;
        let hi = HashValue::from_bytes(hi_bytes);
        assert!(lo < hi);
    }
}
