//! [`ProtocolConfig`]: replica counts, fault thresholds, and the quorum
//! arithmetic of the two-level commit rule.
//!
//! With `n = 3f + 1` replicas, the classic rule certifies a block at a
//! `2f + 1` quorum and the resulting commit is safe provided at most `f`
//! replicas are Byzantine. The paper's strengthened rule (§3) grades commits
//! by *strength*: a block endorsed by `q` distinct replicas is
//! `x`-strong-committed for `x = q − f − 1` (Definition 1 / Theorem 1),
//! up to the ceiling `x = 2f` reached when all `n` replicas endorse.
//!
//! The inverse form is the strengthened quorum: level `x` requires
//! `f + x + 1` endorsers. Setting `x = f` recovers the classic `2f + 1`
//! quorum, which is why the standard commit is exactly the weakest rung of
//! the strengthened ladder.

use std::fmt;

use sft_types::{ReplicaId, Round};

/// The default retention horizon, in rounds behind a replica's committed
/// tip (see [`Retention`]). A peer that falls further behind than this
/// cannot be served by block sync any more and needs state transfer.
pub const RETENTION_ROUNDS: u64 = 256;

/// A replica's retention horizon: everything it keys by round or block —
/// blocks, votes, certificates, endorsement tallies — is dropped once it
/// lies more than `rounds` behind the committed tip, so memory and
/// per-round cost do not depend on how long the replica has run.
///
/// Sweeps are batched: one becomes due each time another eighth of the
/// horizon has accumulated above the floor, which keeps at most 9/8 of a
/// horizon resident while a sweep's cost — linear in what is resident —
/// stays a handful of operations per round, amortized.
///
/// # Examples
///
/// ```
/// use sft_core::Retention;
/// use sft_types::{ReplicaId, Round};
///
/// let mut retention = Retention::new(16);
/// assert_eq!(retention.advance(Round::new(17)), None, "a sweep every 2 rounds");
/// assert_eq!(retention.advance(Round::new(18)), Some(Round::new(2)));
/// assert_eq!(retention.floor(), Round::new(2));
/// assert_eq!(retention.advance(Round::new(19)), None);
/// assert_eq!(retention.advance(Round::new(23)), Some(Round::new(7)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Retention {
    rounds: u64,
    floor: Round,
}

impl Default for Retention {
    fn default() -> Self {
        Self::new(RETENTION_ROUNDS)
    }
}

impl Retention {
    /// A horizon of `rounds` rounds (at least one) behind the committed tip.
    pub fn new(rounds: u64) -> Self {
        Self {
            rounds: rounds.max(1),
            floor: Round::ZERO,
        }
    }

    /// Everything below this round has been swept; arrivals for it are
    /// stale.
    pub fn floor(&self) -> Round {
        self.floor
    }

    /// Called with the committed tip's round after every commit: returns
    /// the new floor when a sweep is due, and remembers it.
    pub fn advance(&mut self, committed_tip: Round) -> Option<Round> {
        let floor = committed_tip.saturating_sub(self.rounds);
        if floor.as_u64() < self.floor.as_u64() + (self.rounds / 8).max(1) {
            return None;
        }
        self.floor = floor;
        Some(floor)
    }
}

/// Static protocol parameters: the replica count `n` and the design fault
/// threshold `f`.
///
/// # Examples
///
/// ```
/// use sft_core::ProtocolConfig;
///
/// let cfg = ProtocolConfig::for_replicas(4);
/// assert_eq!(cfg.f(), 1);
/// assert_eq!(cfg.quorum(), 3);          // 2f + 1
/// assert_eq!(cfg.strong_quorum(2), 4);  // f + x + 1: stronger commits need more endorsers
/// assert_eq!(cfg.max_strength(), 2);    // ceiling 2f
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtocolConfig {
    n: usize,
    f: usize,
}

impl ProtocolConfig {
    /// Configuration for `n` replicas with the largest supported fault
    /// threshold `f = ⌊(n − 1) / 3⌋`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (the smallest system with `f ≥ 1`).
    pub fn for_replicas(n: usize) -> Self {
        assert!(n >= 4, "need at least 4 replicas, got {n}");
        Self { n, f: (n - 1) / 3 }
    }

    /// Configuration with an explicit fault threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `f ≥ 1` and `n ≥ 3f + 1`.
    pub fn with_faults(n: usize, f: usize) -> Self {
        assert!(f >= 1, "fault threshold must be at least 1");
        assert!(n > 3 * f, "n = {n} violates n >= 3f + 1 for f = {f}");
        Self { n, f }
    }

    /// Total number of replicas.
    pub const fn n(&self) -> usize {
        self.n
    }

    /// The design fault threshold `f` (classic safety and liveness hold for
    /// up to `f` Byzantine replicas).
    pub const fn f(&self) -> usize {
        self.f
    }

    /// The leader of `round` (Streamlet: epoch): round-robin over all `n`
    /// replicas — the one definition of the schedule.
    pub fn leader(&self, round: Round) -> ReplicaId {
        ReplicaId::new((round.as_u64() % self.n as u64) as u16)
    }

    /// The classic certification quorum `2f + 1`.
    pub const fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Endorsers required for an `x`-strong commit: `f + x + 1` (§3.2).
    ///
    /// `strong_quorum(f)` equals [`quorum`](Self::quorum): the standard
    /// commit is the `x = f` rung of the strengthened ladder.
    pub const fn strong_quorum(&self, level: u64) -> usize {
        self.f + level as usize + 1
    }

    /// The strongest achievable commit level, `2f` — reached only when all
    /// `n = 3f + 1` replicas endorse (Theorem 1's ceiling).
    pub const fn max_strength(&self) -> u64 {
        2 * self.f as u64
    }

    /// The commit strength conferred by `endorsers` distinct endorsing
    /// replicas: `min(endorsers − f − 1, 2f)`, or `None` below the classic
    /// quorum (an uncertified block has no commit strength at all).
    ///
    /// # Examples
    ///
    /// ```
    /// use sft_core::ProtocolConfig;
    ///
    /// let cfg = ProtocolConfig::for_replicas(7); // f = 2
    /// assert_eq!(cfg.strength_of(4), None);      // below 2f + 1 = 5
    /// assert_eq!(cfg.strength_of(5), Some(2));   // classic commit: x = f
    /// assert_eq!(cfg.strength_of(7), Some(4));   // all replicas: x = 2f
    /// ```
    pub fn strength_of(&self, endorsers: usize) -> Option<u64> {
        if endorsers < self.quorum() {
            return None;
        }
        Some(((endorsers - self.f - 1) as u64).min(self.max_strength()))
    }

    /// True if `endorsers` suffice for an `x = level` strong commit.
    ///
    /// This is the gate the strengthened rule adds on top of the classic
    /// one: under more than `f` actually-corrupt voters, a commit that the
    /// `2f + 1` rule accepts fails this check for any `level > f`.
    pub fn meets_strong_quorum(&self, endorsers: usize, level: u64) -> bool {
        level <= self.max_strength() && endorsers >= self.strong_quorum(level)
    }
}

impl fmt::Debug for ProtocolConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProtocolConfig(n={}, f={})", self.n, self.f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_fault_threshold() {
        assert_eq!(ProtocolConfig::for_replicas(4).f(), 1);
        assert_eq!(ProtocolConfig::for_replicas(7).f(), 2);
        assert_eq!(ProtocolConfig::for_replicas(10).f(), 3);
        assert_eq!(ProtocolConfig::for_replicas(100).f(), 33);
    }

    #[test]
    fn round_robin_leaders_wrap() {
        let cfg = ProtocolConfig::for_replicas(4);
        assert_eq!(cfg.leader(Round::new(1)), ReplicaId::new(1));
        assert_eq!(cfg.leader(Round::new(3)), ReplicaId::new(3));
        assert_eq!(cfg.leader(Round::new(4)), ReplicaId::new(0));
        assert_eq!(cfg.leader(Round::new(9)), ReplicaId::new(1));
    }

    #[test]
    fn quorum_sizes() {
        let cfg = ProtocolConfig::for_replicas(10);
        assert_eq!(cfg.quorum(), 7);
        assert_eq!(
            cfg.strong_quorum(3),
            7,
            "x = f rung equals the classic quorum"
        );
        assert_eq!(cfg.strong_quorum(6), 10, "ceiling needs every replica");
        assert_eq!(cfg.max_strength(), 6);
    }

    #[test]
    fn strength_ladder() {
        let cfg = ProtocolConfig::for_replicas(4); // f = 1
        assert_eq!(cfg.strength_of(0), None);
        assert_eq!(cfg.strength_of(2), None);
        assert_eq!(cfg.strength_of(3), Some(1)); // standard commit
        assert_eq!(cfg.strength_of(4), Some(2)); // ceiling 2f
    }

    #[test]
    fn strength_is_capped_at_ceiling() {
        let cfg = ProtocolConfig::with_faults(9, 2); // over-provisioned n > 3f + 1
        assert_eq!(
            cfg.strength_of(9),
            Some(4),
            "2f cap applies even with spare replicas"
        );
    }

    /// The acceptance-criteria scenario: under more than `f` corrupt voters
    /// the 2f+1 rule accepts a commit the strengthened rule must reject.
    ///
    /// n = 4, f = 1. A block gathers the classic quorum of 3 votes, 2 of
    /// which come from corrupt replicas. The classic rule commits — and with
    /// only 1 honest voter in the quorum its guarantee is already void,
    /// since safety of that commit assumed at most f = 1 faults. The
    /// strengthened rule prices this in: 3 endorsers only ever confer
    /// strength x = 1, so any claim of a level-2 commit (the level needed to
    /// survive 2 corrupt voters) is rejected until a 4th endorser appears.
    #[test]
    fn strengthened_quorum_rejects_what_classic_accepts() {
        let cfg = ProtocolConfig::for_replicas(4);
        let endorsers = 3; // classic 2f + 1 quorum, but 2 of the 3 are corrupt
        let corrupt_voters = 2;
        assert!(corrupt_voters > cfg.f(), "scenario has more than f faults");

        // Classic rule: 3 votes >= 2f + 1, commit accepted.
        assert!(endorsers >= cfg.quorum());
        // Strengthened rule: surviving `corrupt_voters` faults needs level 2,
        // and level 2 needs f + 2 + 1 = 4 endorsers — rejected at 3.
        assert!(!cfg.meets_strong_quorum(endorsers, corrupt_voters as u64));
        assert_eq!(
            cfg.strength_of(endorsers),
            Some(1),
            "3 endorsers only certify level f = 1"
        );
        // With every replica endorsing, level 2 becomes claimable.
        assert!(cfg.meets_strong_quorum(4, 2));
    }

    #[test]
    fn levels_beyond_ceiling_never_met() {
        let cfg = ProtocolConfig::for_replicas(4);
        assert!(
            !cfg.meets_strong_quorum(4, 3),
            "no quorum can promise more than 2f"
        );
    }

    #[test]
    #[should_panic(expected = "n >= 3f + 1")]
    fn invalid_threshold_panics() {
        ProtocolConfig::with_faults(6, 2);
    }

    #[test]
    #[should_panic(expected = "at least 4 replicas")]
    fn too_few_replicas_panics() {
        ProtocolConfig::for_replicas(3);
    }

    #[test]
    fn debug_format() {
        let cfg = ProtocolConfig::for_replicas(7);
        assert_eq!(format!("{cfg:?}"), "ProtocolConfig(n=7, f=2)");
    }
}
