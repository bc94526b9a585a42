//! The pacemaker: deterministic round synchronization for SFT-DiemBFT.
//!
//! A replica is always in exactly one *round*. It leaves round `r` for
//! round `r + 1` when it obtains either a quorum certificate for a block of
//! round `r` (the happy path) or a timeout certificate closing round `r`
//! (the recovery path). If neither arrives before the round's deadline the
//! replica broadcasts a timeout message and re-arms the timer: under a
//! lossy network a one-shot broadcast can strand the whole system one
//! timeout message short of a TC forever, so the message is re-broadcast
//! every timeout span until a certificate moves the round forward (the
//! retransmission discipline DiemBFT itself prescribes; duplicates are
//! idempotent at the aggregator). This is the
//! synchronizer pattern of the DiemBFT lineage (cf. Abraham et al.,
//! *Efficient Synchronous Byzantine Consensus*): round advancement is
//! driven purely by certificates, so all honest replicas move through the
//! same round sequence.
//!
//! Everything here is deterministic: deadlines are computed from the entry
//! instant and a base timeout with exponential back-off on consecutive
//! timeout-entered rounds, so a simulation replays byte-identically.
//!
//! ## Round pacing
//!
//! By default rounds follow each other as fast as certificates form. A
//! replica on a wall clock can instead be given a *pace*
//! ([`Pacemaker::set_pace`]): a minimum spacing between rounds and a burst
//! allowance, enforced as a virtual schedule (the generic cell rate
//! algorithm). Every round entered moves the schedule one interval on; the
//! leader of the current round may propose once the clock is within the
//! burst allowance of the schedule ([`Pacemaker::propose_at`]). While a
//! replica is inside its allowance — the first rounds of a run, or the
//! rounds after a stall — nothing waits, so a short run never notices.
//! Past it, proposals fall on a grid one interval apart, and because the
//! grid is kept by the schedule and not by "one interval after the last
//! proposal", the time a round takes to certify does not add to it: the
//! round rate is the clock's, not the scheduler's. Every replica counts
//! the same rounds, so every leader keeps the same grid.

use std::fmt;

use sft_types::{Round, SimDuration, SimTime};

/// The round spacing a deployed replica runs at unless told otherwise:
/// above the time a round takes to certify on loopback for every cluster
/// shape the repo runs (n ≤ 10, blocks up to 128 KiB written through a
/// group-commit log: 1.5–4.6 ms on two cores), so the grid, not the
/// machine, sets the round rate.
pub const ROUND_INTERVAL: SimDuration = SimDuration::from_millis(7);

/// The burst allowance that goes with [`ROUND_INTERVAL`], in rounds:
/// enough that a cluster's first commits (a dozen rounds) and every smoke
/// run of a few dozen rounds go unpaced, small enough (0.22 s of schedule)
/// that what is left of it a few seconds into a run is nothing.
pub const ROUND_BURST: u64 = 32;

/// The virtual schedule behind [`Pacemaker::set_pace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pace {
    /// Schedule time added per round entered.
    interval: SimDuration,
    /// How far the schedule may run ahead of the clock before the leader
    /// has to wait: `burst × interval`.
    allowance: SimDuration,
    /// Where the schedule stands: the current round is due at
    /// `schedule − allowance`.
    schedule: SimTime,
}

/// Why the pacemaker entered its current round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundEntry {
    /// Initial round (nothing certified yet).
    Genesis,
    /// Entered because the previous round produced a quorum certificate.
    Qc,
    /// Entered because the previous round closed with a timeout
    /// certificate.
    Tc,
}

/// Per-replica round state: current round, deadline, and back-off.
///
/// # Examples
///
/// ```
/// use sft_fbft::Pacemaker;
/// use sft_types::{Round, SimDuration, SimTime};
///
/// let mut pm = Pacemaker::new(SimDuration::from_millis(400), SimTime::ZERO);
/// assert_eq!(pm.current_round(), Round::new(1));
/// // A QC for round 1 advances to round 2.
/// let t = SimTime::from_millis(200);
/// assert_eq!(pm.on_qc_round(Round::new(1), t), Some(Round::new(2)));
/// // Stale certificates never move the round backwards.
/// assert_eq!(pm.on_qc_round(Round::new(1), t), None);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Pacemaker {
    base_timeout: SimDuration,
    round: Round,
    entered_at: SimTime,
    entry: RoundEntry,
    /// Rounds entered via TC since the last QC-entered round; drives the
    /// exponential back-off so repeated timeouts leave more and more slack
    /// for a slow network to catch up.
    consecutive_timeouts: u32,
    /// The instant the round timer next fires. Re-armed one timeout span
    /// ahead after every firing, so a round that stays open keeps
    /// re-broadcasting its timeout message.
    next_fire: SimTime,
    /// The round-rate limit, if one is set (see the module docs).
    pace: Option<Pace>,
}

/// Cap on the back-off exponent: timeouts grow at most `2^6 = 64×` the
/// base, keeping deadlines bounded and arithmetic overflow-free.
const MAX_BACKOFF_EXP: u32 = 6;

impl Pacemaker {
    /// Creates a pacemaker entering round 1 at `now` with the given base
    /// round timeout.
    ///
    /// The base timeout must exceed one proposal-plus-vote exchange
    /// (`> 2δ`) for the happy path to ever complete; 4δ is a comfortable
    /// default.
    ///
    /// # Panics
    ///
    /// Panics if the timeout is zero.
    pub fn new(base_timeout: SimDuration, now: SimTime) -> Self {
        assert!(!base_timeout.is_zero(), "zero timeout would always fire");
        Self {
            base_timeout,
            round: Round::new(1),
            entered_at: now,
            entry: RoundEntry::Genesis,
            consecutive_timeouts: 0,
            next_fire: now + base_timeout,
            pace: None,
        }
    }

    /// Limits this replica to one round per `interval`, after an allowance
    /// of `burst` rounds that may follow each other as fast as certificates
    /// form (and that refills whenever the replica runs slower than the
    /// limit). Set it before the first round closes. See the module docs.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn set_pace(&mut self, interval: SimDuration, burst: u64) {
        assert!(!interval.is_zero(), "a zero interval paces nothing");
        self.pace = Some(Pace {
            interval,
            allowance: interval * burst,
            schedule: self.entered_at,
        });
    }

    /// The earliest instant the leader of the current round may propose:
    /// [`SimTime::ZERO`] (always in the past) unless a pace is set and this
    /// replica has used up its burst allowance.
    pub fn propose_at(&self) -> SimTime {
        self.pace.map_or(SimTime::ZERO, |pace| {
            SimTime::ZERO
                + pace
                    .schedule
                    .saturating_since(SimTime::ZERO + pace.allowance)
        })
    }

    /// The round this replica is currently in.
    pub fn current_round(&self) -> Round {
        self.round
    }

    /// How the current round was entered.
    pub fn entry(&self) -> RoundEntry {
        self.entry
    }

    /// The instant the round timer next fires: the round's deadline, or —
    /// after it fired — the next retransmission of the timeout message.
    /// The timer is always armed (re-armed on every firing and on every
    /// round entry), so there is no "no deadline" state.
    pub fn deadline(&self) -> SimTime {
        self.next_fire
    }

    /// The current round's timeout span: `base × 2^consecutive_timeouts`,
    /// capped at `2^6`.
    pub fn current_timeout(&self) -> SimDuration {
        self.base_timeout * (1u64 << self.consecutive_timeouts.min(MAX_BACKOFF_EXP))
    }

    /// Observes a quorum certificate for a block of `round`. Advances to
    /// `round + 1` (resetting the back-off) and returns the new round if
    /// that moves this replica forward; stale certificates return `None`.
    pub fn on_qc_round(&mut self, round: Round, now: SimTime) -> Option<Round> {
        if round.next() <= self.round {
            return None;
        }
        self.consecutive_timeouts = 0;
        self.enter(round.next(), RoundEntry::Qc, now);
        Some(self.round)
    }

    /// Observes a timeout certificate closing `round`. Advances to
    /// `round + 1` (growing the back-off) and returns the new round if that
    /// moves this replica forward; stale certificates return `None`.
    pub fn on_tc_round(&mut self, round: Round, now: SimTime) -> Option<Round> {
        if round.next() <= self.round {
            return None;
        }
        self.consecutive_timeouts = (self.consecutive_timeouts + 1).min(MAX_BACKOFF_EXP);
        self.enter(round.next(), RoundEntry::Tc, now);
        Some(self.round)
    }

    /// Advances the clock. Returns `Some(round)` each time `now` reaches
    /// the (re-armed) timer — the signal to broadcast a
    /// [`TimeoutMsg`](sft_types::TimeoutMsg) for the round. The timer
    /// re-arms one timeout span ahead, so a round no certificate closes
    /// keeps re-broadcasting: under message loss the retransmission is
    /// what eventually lands `2f + 1` timeouts on every replica.
    pub fn on_tick(&mut self, now: SimTime) -> Option<Round> {
        if now < self.next_fire {
            return None;
        }
        self.next_fire = now + self.current_timeout();
        Some(self.round)
    }

    fn enter(&mut self, round: Round, entry: RoundEntry, now: SimTime) {
        if let Some(pace) = &mut self.pace {
            // One interval of schedule per round entered, never behind the
            // clock (an idle or slow stretch earns no more than the
            // allowance) and never more than one round past the allowance
            // ahead of it: a restart replaying its log, or a straggler
            // jumping a thousand rounds on one certificate, enters them all
            // at one instant and must not come out owing seconds.
            let skipped = round.as_u64() - self.round.as_u64();
            let ahead = pace.schedule.max(now) + pace.interval * skipped;
            pace.schedule = ahead.min(now + pace.allowance + pace.interval);
        }
        self.round = round;
        self.entry = entry;
        self.entered_at = now;
        self.next_fire = now + self.current_timeout();
    }
}

impl fmt::Debug for Pacemaker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Pacemaker(r={} {:?} entered={} timeout={} fires@{})",
            self.round,
            self.entry,
            self.entered_at,
            self.current_timeout(),
            self.next_fire
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm() -> Pacemaker {
        Pacemaker::new(SimDuration::from_millis(400), SimTime::ZERO)
    }

    /// One round per 10 ms after a burst of three.
    fn paced() -> Pacemaker {
        let mut pm = pm();
        pm.set_pace(SimDuration::from_millis(10), 3);
        pm
    }

    #[test]
    fn starts_in_round_one() {
        let pm = pm();
        assert_eq!(pm.current_round(), Round::new(1));
        assert_eq!(pm.entry(), RoundEntry::Genesis);
        assert_eq!(pm.deadline(), SimTime::from_millis(400));
    }

    #[test]
    fn qc_advances_and_resets_deadline() {
        let mut pm = pm();
        let t = SimTime::from_millis(200);
        assert_eq!(pm.on_qc_round(Round::new(1), t), Some(Round::new(2)));
        assert_eq!(pm.entry(), RoundEntry::Qc);
        assert_eq!(pm.deadline(), SimTime::from_millis(600));
    }

    #[test]
    fn stale_certificates_are_ignored() {
        let mut pm = pm();
        let t = SimTime::from_millis(100);
        pm.on_qc_round(Round::new(5), t);
        assert_eq!(pm.current_round(), Round::new(6));
        assert_eq!(pm.on_qc_round(Round::new(4), t), None);
        assert_eq!(pm.on_tc_round(Round::new(5), t), None);
        assert_eq!(pm.current_round(), Round::new(6));
    }

    #[test]
    fn timeout_fires_then_rearms_for_retransmission() {
        let mut pm = pm();
        assert_eq!(pm.on_tick(SimTime::from_millis(399)), None);
        assert_eq!(pm.on_tick(SimTime::from_millis(400)), Some(Round::new(1)));
        // Re-armed one timeout span ahead, not dead: the timeout message
        // is retransmitted until a certificate closes the round.
        assert_eq!(pm.deadline(), SimTime::from_millis(800));
        assert_eq!(pm.on_tick(SimTime::from_millis(500)), None, "not yet");
        assert_eq!(pm.on_tick(SimTime::from_millis(800)), Some(Round::new(1)));
        // Advancing resets the timer for the new round.
        pm.on_tc_round(Round::new(1), SimTime::from_millis(900));
        assert_eq!(pm.current_round(), Round::new(2));
        assert_eq!(
            pm.deadline(),
            SimTime::from_millis(900) + SimDuration::from_millis(800),
            "TC entry doubles the back-off"
        );
    }

    #[test]
    fn backoff_doubles_on_tc_and_resets_on_qc() {
        let mut pm = pm();
        let t = SimTime::ZERO;
        assert_eq!(pm.current_timeout(), SimDuration::from_millis(400));
        pm.on_tc_round(Round::new(1), t);
        assert_eq!(pm.current_timeout(), SimDuration::from_millis(800));
        pm.on_tc_round(Round::new(2), t);
        assert_eq!(pm.current_timeout(), SimDuration::from_millis(1600));
        pm.on_qc_round(Round::new(3), t);
        assert_eq!(
            pm.current_timeout(),
            SimDuration::from_millis(400),
            "QC resets the back-off"
        );
    }

    #[test]
    fn backoff_is_capped() {
        let mut pm = pm();
        for round in 1..=20u64 {
            pm.on_tc_round(Round::new(round), SimTime::ZERO);
        }
        assert_eq!(
            pm.current_timeout(),
            SimDuration::from_millis(400) * 64,
            "2^6 cap"
        );
    }

    #[test]
    fn qc_and_tc_for_same_round_converge() {
        let t = SimTime::ZERO;
        let mut a = pm();
        let mut b = pm();
        a.on_qc_round(Round::new(3), t);
        a.on_tc_round(Round::new(3), t);
        b.on_tc_round(Round::new(3), t);
        b.on_qc_round(Round::new(3), t);
        assert_eq!(a.current_round(), b.current_round());
        assert_eq!(a.current_round(), Round::new(4));
    }

    #[test]
    fn an_unpaced_leader_may_always_propose() {
        let mut pm = pm();
        assert_eq!(pm.propose_at(), SimTime::ZERO);
        pm.on_qc_round(Round::new(1), SimTime::from_millis(3));
        assert_eq!(pm.propose_at(), SimTime::ZERO);
    }

    #[test]
    fn pace_lets_a_burst_through_then_holds_a_grid() {
        let mut pm = paced();
        // Rounds certify 1 ms apart: the first three enter inside the
        // allowance, so their leaders need not wait.
        for round in 1..=3u64 {
            let now = SimTime::from_millis(round);
            pm.on_qc_round(Round::new(round), now);
            assert!(
                pm.propose_at() <= now,
                "round {} is inside the burst",
                round + 1
            );
        }
        // The next is ahead of the limit: due one interval after the last
        // one's slot (1 ms), however quickly its certificate formed.
        pm.on_qc_round(Round::new(4), SimTime::from_millis(4));
        assert_eq!(pm.propose_at(), SimTime::from_millis(11));
        // From here the grid holds whether a round takes 1 ms or 9 ms to
        // certify: certification time does not add to the spacing.
        pm.on_qc_round(Round::new(5), SimTime::from_millis(12));
        assert_eq!(pm.propose_at(), SimTime::from_millis(21));
        pm.on_qc_round(Round::new(6), SimTime::from_millis(30));
        assert_eq!(pm.propose_at(), SimTime::from_millis(31));
    }

    #[test]
    fn a_slow_stretch_refills_the_allowance_and_no_more() {
        let mut pm = paced();
        // Nothing for a second, then rounds 1 ms apart again: three go
        // through at once (the allowance), the fourth waits.
        let t = SimTime::from_secs(1);
        for round in 1..=3u64 {
            pm.on_qc_round(Round::new(round), t);
            assert!(pm.propose_at() <= t);
        }
        pm.on_qc_round(Round::new(4), t);
        assert_eq!(pm.propose_at(), t + SimDuration::from_millis(10));
    }

    #[test]
    fn entering_many_rounds_at_one_instant_owes_one_interval() {
        let mut pm = paced();
        // A restart replaying 1000 certificates, or a straggler jumping
        // 1000 rounds on one: the schedule is capped one round past the
        // allowance, not 10 s out.
        let t = SimTime::from_secs(2);
        for round in 1..=1000u64 {
            pm.on_qc_round(Round::new(round), t);
        }
        assert_eq!(pm.propose_at(), t + SimDuration::from_millis(10));
        let mut jumper = paced();
        jumper.on_tc_round(Round::new(1000), t);
        assert_eq!(jumper.propose_at(), t + SimDuration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "zero timeout")]
    fn zero_timeout_panics() {
        Pacemaker::new(SimDuration::ZERO, SimTime::ZERO);
    }

    #[test]
    fn debug_format_mentions_round() {
        let pm = pm();
        assert!(format!("{pm:?}").contains("r=1"));
    }
}
