//! Identifier newtypes: [`ReplicaId`], [`Round`], and [`Height`].
//!
//! Rounds and heights are distinct concepts in the paper: DiemBFT rules are
//! *round-based* while Streamlet rules are *height-based* (Appendix D.1), so
//! the two get distinct types to keep them from being mixed up.

use std::fmt;

/// Index of a replica in the validator set (`1..=n` in the paper; `0..n`
/// here).
///
/// # Examples
///
/// ```
/// use sft_types::ReplicaId;
///
/// let r = ReplicaId::new(7);
/// assert_eq!(r.as_usize(), 7);
/// assert_eq!(r.to_string(), "r7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(u16);

impl ReplicaId {
    /// Creates a replica id from its index.
    pub const fn new(index: u16) -> Self {
        Self(index)
    }

    /// The raw index.
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// The index as `usize`, for table lookups.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// The index as `u64`, for signing.
    pub const fn as_u64(self) -> u64 {
        self.0 as u64
    }
}

impl fmt::Debug for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u16> for ReplicaId {
    fn from(v: u16) -> Self {
        Self(v)
    }
}

/// A protocol round (view) number. Genesis is round 0; real rounds start
/// at 1.
///
/// # Examples
///
/// ```
/// use sft_types::Round;
///
/// let r = Round::new(5);
/// assert_eq!(r.next(), Round::new(6));
/// assert_eq!(r.prev(), Some(Round::new(4)));
/// assert!(Round::ZERO.prev().is_none());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Round(u64);

impl Round {
    /// Round 0 — the genesis round.
    pub const ZERO: Round = Round(0);

    /// Creates a round from its number.
    pub const fn new(v: u64) -> Self {
        Self(v)
    }

    /// The raw round number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The following round; the last round is its own successor.
    pub const fn next(self) -> Round {
        Round(self.0.saturating_add(1))
    }

    /// The preceding round, or `None` at round 0.
    pub const fn prev(self) -> Option<Round> {
        match self.0.checked_sub(1) {
            Some(v) => Some(Round(v)),
            None => None,
        }
    }

    /// Saturating `self + delta`.
    pub const fn add(self, delta: u64) -> Round {
        Round(self.0.saturating_add(delta))
    }

    /// Saturating `self - delta`.
    pub const fn saturating_sub(self, delta: u64) -> Round {
        Round(self.0.saturating_sub(delta))
    }

    /// True if `self` and `other` are consecutive (`other == self + 1`).
    pub const fn precedes(self, other: Round) -> bool {
        match self.0.checked_add(1) {
            Some(next) => next == other.0,
            None => false,
        }
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Round({})", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Round {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

/// A block's position (height) in the chain. Genesis is height 0.
///
/// # Examples
///
/// ```
/// use sft_types::Height;
///
/// assert_eq!(Height::new(3).next(), Height::new(4));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Height(u64);

impl Height {
    /// Height 0 — the genesis height.
    pub const ZERO: Height = Height(0);

    /// Creates a height from its number.
    pub const fn new(v: u64) -> Self {
        Self(v)
    }

    /// The raw height number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The following height.
    pub const fn next(self) -> Height {
        Height(self.0 + 1)
    }

    /// The preceding height, or `None` at height 0.
    pub const fn prev(self) -> Option<Height> {
        match self.0.checked_sub(1) {
            Some(v) => Some(Height(v)),
            None => None,
        }
    }
}

impl fmt::Debug for Height {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Height({})", self.0)
    }
}

impl fmt::Display for Height {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Height {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_arithmetic() {
        let r = Round::new(10);
        assert_eq!(r.next().as_u64(), 11);
        assert_eq!(r.prev(), Some(Round::new(9)));
        assert_eq!(r.add(5), Round::new(15));
        assert_eq!(r.saturating_sub(20), Round::ZERO);
        assert!(r.precedes(Round::new(11)));
        assert!(!r.precedes(Round::new(12)));
        assert!(!r.precedes(Round::new(10)));
    }

    #[test]
    fn round_arithmetic_cannot_overflow() {
        let last = Round::new(u64::MAX);
        assert_eq!(last.next(), last);
        assert_eq!(Round::new(7).add(u64::MAX), last);
        assert!(!last.precedes(Round::ZERO));
        assert!(!last.precedes(last));
    }

    #[test]
    fn round_zero_has_no_prev() {
        assert_eq!(Round::ZERO.prev(), None);
    }

    #[test]
    fn height_arithmetic() {
        assert_eq!(Height::new(2).next(), Height::new(3));
        assert_eq!(Height::new(1).prev(), Some(Height::ZERO));
        assert_eq!(Height::ZERO.prev(), None);
    }

    #[test]
    fn ordering() {
        assert!(Round::new(1) < Round::new(2));
        assert!(Height::new(1) < Height::new(2));
        assert!(ReplicaId::new(1) < ReplicaId::new(2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ReplicaId::new(3).to_string(), "r3");
        assert_eq!(Round::new(3).to_string(), "3");
        assert_eq!(Height::new(3).to_string(), "3");
        assert_eq!(format!("{:?}", Round::new(3)), "Round(3)");
    }

    #[test]
    fn conversions() {
        assert_eq!(ReplicaId::from(4u16).as_u64(), 4);
        assert_eq!(Round::from(4u64), Round::new(4));
        assert_eq!(Height::from(4u64), Height::new(4));
    }
}
