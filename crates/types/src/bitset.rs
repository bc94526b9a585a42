//! [`SignerSet`]: a fixed-capacity bitset over replica indices.
//!
//! Endorsement tracking (§3.2) maintains, per block, the set of replicas
//! whose strong-votes endorse the block. With `n ≤ 65 536` replicas a packed
//! bitset gives O(n/64) unions and O(1) inserts, which matters because every
//! new strong-QC updates the endorser sets of a whole chain suffix.

use std::fmt;

use crate::codec::{Decode, DecodeError, Encode};
use crate::ReplicaId;

/// A set of replica indices backed by packed 64-bit words.
///
/// # Examples
///
/// ```
/// use sft_types::{ReplicaId, SignerSet};
///
/// let mut set = SignerSet::new(100);
/// set.insert(ReplicaId::new(3));
/// set.insert(ReplicaId::new(99));
/// assert_eq!(set.len(), 2);
/// assert!(set.contains(ReplicaId::new(3)));
/// assert!(!set.contains(ReplicaId::new(4)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SignerSet {
    words: Vec<u64>,
    capacity: usize,
}

impl SignerSet {
    /// Creates an empty set able to hold replica indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a set containing the given replicas.
    ///
    /// # Panics
    ///
    /// Panics if any replica index is `>= capacity`.
    pub fn from_iter_with_capacity<I>(capacity: usize, iter: I) -> Self
    where
        I: IntoIterator<Item = ReplicaId>,
    {
        let mut set = Self::new(capacity);
        for id in iter {
            set.insert(id);
        }
        set
    }

    /// The maximum number of distinct replicas this set can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Adds `id` to the set. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this set's capacity.
    pub fn insert(&mut self, id: ReplicaId) -> bool {
        let idx = id.as_usize();
        assert!(
            idx < self.capacity,
            "replica {idx} out of capacity {}",
            self.capacity
        );
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Removes `id` from the set. Returns `true` if it was present.
    pub fn remove(&mut self, id: ReplicaId) -> bool {
        let idx = id.as_usize();
        if idx >= self.capacity {
            return false;
        }
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// True if `id` is in the set. Out-of-range ids are never present.
    pub fn contains(&self, id: ReplicaId) -> bool {
        let idx = id.as_usize();
        idx < self.capacity && self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Number of replicas in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Adds every member of `other` to `self`. Returns `true` if `self`
    /// changed.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &SignerSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch in union");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let merged = *a | *b;
            changed |= merged != *a;
            *a = merged;
        }
        changed
    }

    /// Number of replicas present in both sets.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersection_len(&self, other: &SignerSet) -> usize {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in intersection"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over members in increasing index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for SignerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SignerSet{{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

impl<'a> IntoIterator for &'a SignerSet {
    type Item = ReplicaId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the members of a [`SignerSet`].
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    set: &'a SignerSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = ReplicaId;

    fn next(&mut self) -> Option<ReplicaId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(ReplicaId::new((self.word_idx * 64 + bit) as u16));
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl Encode for SignerSet {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.capacity as u64).encode(buf);
        self.words.encode(buf);
    }
}

impl Decode for SignerSet {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let capacity = u64::decode(buf)?;
        if capacity > u16::MAX as u64 + 1 {
            return Err(DecodeError::LengthOverflow(capacity));
        }
        let capacity = capacity as usize;
        let words = Vec::<u64>::decode(buf)?;
        if words.len() != capacity.div_ceil(64) {
            return Err(DecodeError::LengthOverflow(words.len() as u64));
        }
        // A bit at or past `capacity` would name a replica the set cannot
        // hold: `len` would count it and `iter` would yield it.
        let spare = words.len() * 64 - capacity;
        if spare > 0 && words.last().is_some_and(|&w| w >> (64 - spare) != 0) {
            return Err(DecodeError::InvalidValue);
        }
        Ok(Self { words, capacity })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(indices: &[u16]) -> Vec<ReplicaId> {
        indices.iter().copied().map(ReplicaId::new).collect()
    }

    #[test]
    fn insert_and_contains() {
        let mut set = SignerSet::new(130);
        assert!(set.insert(ReplicaId::new(0)));
        assert!(set.insert(ReplicaId::new(64)));
        assert!(set.insert(ReplicaId::new(129)));
        assert!(
            !set.insert(ReplicaId::new(64)),
            "double insert reports false"
        );
        assert_eq!(set.len(), 3);
        assert!(set.contains(ReplicaId::new(129)));
        assert!(!set.contains(ReplicaId::new(128)));
        // Out-of-range queries are false, not panics.
        assert!(!set.contains(ReplicaId::new(500)));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        SignerSet::new(4).insert(ReplicaId::new(4));
    }

    #[test]
    fn remove_rolls_back_inserts() {
        let mut set = SignerSet::from_iter_with_capacity(130, ids(&[2, 64, 129]));
        assert!(set.remove(ReplicaId::new(64)));
        assert!(!set.remove(ReplicaId::new(64)), "second remove is a no-op");
        assert!(!set.remove(ReplicaId::new(500)), "out of range is absent");
        assert_eq!(set.len(), 2);
        assert!(!set.contains(ReplicaId::new(64)));
        assert!(set.contains(ReplicaId::new(129)));
    }

    #[test]
    fn union_and_intersection() {
        let a = SignerSet::from_iter_with_capacity(100, ids(&[1, 2, 3, 70]));
        let b = SignerSet::from_iter_with_capacity(100, ids(&[3, 70, 99]));
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.len(), 5);
        assert!(!u.union_with(&b), "second union is a no-op");
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(b.intersection_len(&a), 2);
    }

    #[test]
    fn iteration_in_order() {
        let set = SignerSet::from_iter_with_capacity(200, ids(&[190, 0, 64, 63, 65]));
        let got: Vec<u16> = set.iter().map(|r| r.as_u16()).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 190]);
    }

    #[test]
    fn empty_set() {
        let set = SignerSet::new(10);
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert_eq!(set.iter().count(), 0);
        assert_eq!(format!("{set:?}"), "SignerSet{}");
    }

    #[test]
    fn debug_lists_members() {
        let set = SignerSet::from_iter_with_capacity(8, ids(&[1, 5]));
        assert_eq!(format!("{set:?}"), "SignerSet{r1,r5}");
    }

    #[test]
    fn codec_roundtrip() {
        let set = SignerSet::from_iter_with_capacity(100, ids(&[0, 33, 66, 99]));
        let back = SignerSet::from_bytes(&set.to_bytes()).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn codec_rejects_mismatched_words() {
        let set = SignerSet::from_iter_with_capacity(100, ids(&[1]));
        let mut bytes = set.to_bytes();
        // Corrupt the capacity field so the word count no longer matches.
        bytes[7] = 10;
        assert!(SignerSet::from_bytes(&bytes).is_err());
    }

    #[test]
    fn quorum_arithmetic_example() {
        // Lemma 1's quorum-intersection argument in miniature: two sets of
        // size 2f+1 out of n=3f+1 overlap in >= f+1 replicas.
        let f = 3;
        let n = 3 * f + 1;
        let a = SignerSet::from_iter_with_capacity(n, (0..(2 * f + 1) as u16).map(ReplicaId::new));
        let b = SignerSet::from_iter_with_capacity(n, ((f as u16)..(n as u16)).map(ReplicaId::new));
        assert_eq!(a.len(), 2 * f + 1);
        assert_eq!(b.len(), 2 * f + 1);
        assert!(a.intersection_len(&b) > f);
    }
}
