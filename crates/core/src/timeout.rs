//! Timeout aggregation into timeout certificates — the liveness half of
//! SFT-DiemBFT's round synchronizer.
//!
//! A [`TimeoutAggregator`] is to [`TimeoutMsg`]s what the
//! [`VoteTracker`](crate::VoteTracker) is to votes, over the same
//! signed-quorum collector: one message per author and round, each
//! signature checked once as it arrives, each round's [`TimeoutCertificate`]
//! emitted exactly once. What only timeouts have is the certificate itself: it
//! carries the freshest high-QC round among its messages.

use sft_crypto::{HashValue, KeyRegistry, SigStats, Signature};
use sft_types::{timeout_signing_digest, ReplicaId, Round, TimeoutCertificate, TimeoutMsg};

use crate::quorum::{Added, Quorum, Signed};

/// Outcome of feeding one timeout message to a [`TimeoutAggregator`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TimeoutOutcome {
    /// The message was counted; the round now has this many timeouts.
    Counted(usize),
    /// The message completed the quorum: the round's certificate formed.
    /// Emitted at most once per round.
    Certified(TimeoutCertificate),
    /// This replica already timed out in this round — ignored.
    Duplicate,
    /// The signature did not verify, or no replica signs as its author —
    /// ignored.
    BadSignature,
    /// The round is outside the aggregator's window: pruned
    /// ([`TimeoutAggregator::prune_below`]) or more than
    /// [`RETENTION_ROUNDS`](crate::RETENTION_ROUNDS) past the replica's
    /// current round ([`TimeoutAggregator::enter_round`]) — ignored,
    /// unverified.
    Stale,
}

impl Signed for TimeoutMsg {
    fn author(&self) -> ReplicaId {
        self.author()
    }

    fn round(&self) -> Round {
        self.round()
    }

    fn signature(&self) -> &Signature {
        self.signature()
    }

    fn signing_digest(&self) -> HashValue {
        timeout_signing_digest(self.round(), self.high_qc_round())
    }
}

/// Aggregates verified timeout messages into timeout certificates.
///
/// The quorum is passed as a plain count (the `2f + 1` of the protocol
/// configuration).
///
/// # Examples
///
/// ```
/// use sft_core::{TimeoutAggregator, TimeoutOutcome};
/// use sft_crypto::KeyRegistry;
/// use sft_types::{Round, TimeoutMsg};
///
/// let registry = KeyRegistry::deterministic(4);
/// let mut agg = TimeoutAggregator::new(4, 3, registry.clone());
/// for i in 0..2 {
///     let msg = TimeoutMsg::new(Round::new(1), Round::ZERO, &registry.key_pair(i).unwrap());
///     assert!(matches!(agg.add(&msg), TimeoutOutcome::Counted(_)));
/// }
/// let msg = TimeoutMsg::new(Round::new(1), Round::ZERO, &registry.key_pair(2).unwrap());
/// assert!(matches!(agg.add(&msg), TimeoutOutcome::Certified(_)));
/// ```
#[derive(Clone, Debug)]
pub struct TimeoutAggregator {
    /// The timeouts, per round.
    timeouts: Quorum<Round, TimeoutMsg>,
}

impl TimeoutAggregator {
    /// Creates an aggregator for `n` replicas with the given quorum count.
    ///
    /// # Panics
    ///
    /// Panics if `quorum` is zero or exceeds `n`.
    pub fn new(n: usize, quorum: usize, registry: KeyRegistry) -> Self {
        assert!(quorum >= 1 && quorum <= n, "bad quorum {quorum} for n={n}");
        Self {
            timeouts: Quorum::new(n, quorum, registry),
        }
    }

    /// Signature-verification work counters for this aggregator.
    pub fn sig_stats(&self) -> SigStats {
        self.timeouts.sig_stats()
    }

    /// Counts one timeout message if its signature holds, checking it now.
    /// See [`TimeoutOutcome`].
    pub fn add(&mut self, msg: &TimeoutMsg) -> TimeoutOutcome {
        let added = match self.timeouts.screen(msg) {
            // The justification rides outside the signature: copies that
            // differ only there are one message.
            Ok(()) => {
                let signed = msg.clone().with_justification(None);
                self.timeouts.insert(msg.round(), signed)
            }
            Err(rejected) => rejected,
        };
        match added {
            Added::Counted(count) => TimeoutOutcome::Counted(count),
            Added::Certified => TimeoutOutcome::Certified(self.certificate(msg.round())),
            Added::Duplicate => TimeoutOutcome::Duplicate,
            Added::BadSignature => TimeoutOutcome::BadSignature,
            Added::Stale => TimeoutOutcome::Stale,
        }
    }

    /// `round`'s certificate over the timeouts counted for it, carrying
    /// their freshest high-QC round.
    fn certificate(&self, round: Round) -> TimeoutCertificate {
        let max_high = self.timeouts.members(round).map(TimeoutMsg::high_qc_round);
        let max_high = max_high.max().unwrap_or(Round::ZERO);
        TimeoutCertificate::new(round, max_high, self.timeouts.signers(round))
    }

    /// Number of distinct replicas whose valid timeouts for `round` were
    /// counted so far.
    pub fn timeouts_for(&self, round: Round) -> usize {
        self.timeouts.count(round)
    }

    /// True if `round` already produced a certificate.
    pub fn is_certified(&self, round: Round) -> bool {
        self.timeouts.is_certified(round)
    }

    /// Drops per-round state for all rounds below `round` — the caller has
    /// advanced past them, so their certificates can never matter again —
    /// and refuses later timeouts for them.
    pub fn prune_below(&mut self, round: Round) {
        self.timeouts.prune_below(round);
    }

    /// The replica entered `round`: earlier rounds are pruned
    /// ([`prune_below`](Self::prune_below)), and timeouts up to
    /// [`RETENTION_ROUNDS`](crate::RETENTION_ROUNDS) past it are let in —
    /// later ones answer [`TimeoutOutcome::Stale`].
    pub fn enter_round(&mut self, round: Round) {
        self.timeouts.prune_below(round);
        self.timeouts.enter_round(round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RETENTION_ROUNDS;
    use sft_types::{Decode, Encode};

    fn setup() -> (KeyRegistry, TimeoutAggregator) {
        let registry = KeyRegistry::deterministic(4);
        let agg = TimeoutAggregator::new(4, 3, registry.clone());
        (registry, agg)
    }

    fn msg(registry: &KeyRegistry, signer: u64, round: u64, high: u64) -> TimeoutMsg {
        TimeoutMsg::new(
            Round::new(round),
            Round::new(high),
            &registry.key_pair(signer).unwrap(),
        )
    }

    #[test]
    fn sign_and_verify() {
        let (registry, _) = setup();
        let m = msg(&registry, 1, 5, 3);
        assert!(m.verify(&registry));
        assert_eq!(m.round(), Round::new(5));
        assert_eq!(m.high_qc_round(), Round::new(3));
        assert_eq!(m.author(), ReplicaId::new(1));
    }

    #[test]
    fn tampered_round_fails_verification() {
        let (registry, _) = setup();
        let honest = msg(&registry, 1, 5, 3);
        let forged = TimeoutMsg::from_parts(
            Round::new(6),
            honest.high_qc_round(),
            honest.author(),
            *honest.signature(),
        );
        assert!(!forged.verify(&registry));
    }

    #[test]
    fn quorum_certifies_exactly_once() {
        let (registry, mut agg) = setup();
        assert_eq!(
            agg.add(&msg(&registry, 0, 2, 0)),
            TimeoutOutcome::Counted(1)
        );
        assert_eq!(
            agg.add(&msg(&registry, 1, 2, 1)),
            TimeoutOutcome::Counted(2)
        );
        let outcome = agg.add(&msg(&registry, 2, 2, 0));
        let TimeoutOutcome::Certified(tc) = outcome else {
            panic!("expected certification, got {outcome:?}");
        };
        assert_eq!(tc.round(), Round::new(2));
        assert_eq!(tc.max_high_qc_round(), Round::new(1), "max of aggregated");
        assert_eq!(tc.signers().len(), 3);
        assert!(agg.is_certified(Round::new(2)));
        // A fourth message still counts but does not re-certify.
        assert_eq!(
            agg.add(&msg(&registry, 3, 2, 0)),
            TimeoutOutcome::Counted(4)
        );
        assert_eq!(agg.timeouts_for(Round::new(2)), 4);
    }

    #[test]
    fn duplicates_and_bad_signatures_ignored() {
        let (registry, mut agg) = setup();
        agg.add(&msg(&registry, 0, 1, 0));
        assert_eq!(agg.add(&msg(&registry, 0, 1, 0)), TimeoutOutcome::Duplicate);
        let honest = msg(&registry, 1, 1, 0);
        let forged = TimeoutMsg::from_parts(
            honest.round(),
            honest.high_qc_round(),
            ReplicaId::new(2), // wrong author for the signature
            *honest.signature(),
        );
        // Refused on arrival and never counted.
        assert_eq!(agg.add(&forged), TimeoutOutcome::BadSignature);
        assert_eq!(agg.timeouts_for(Round::new(1)), 1);
        assert_eq!(agg.add(&honest), TimeoutOutcome::Counted(2));
        assert!(!agg.is_certified(Round::new(1)));
        let TimeoutOutcome::Certified(tc) = agg.add(&msg(&registry, 3, 1, 0)) else {
            panic!("the honest quorum certifies");
        };
        assert!(!tc.signers().contains(ReplicaId::new(2)));
        let stats = agg.sig_stats();
        assert_eq!(
            stats.verifications, 4,
            "each timeout checked once, on arrival"
        );
        assert_eq!(stats.batch_calls, 0);
    }

    #[test]
    fn rounds_are_independent() {
        let (registry, mut agg) = setup();
        agg.add(&msg(&registry, 0, 1, 0));
        agg.add(&msg(&registry, 0, 2, 0));
        assert_eq!(agg.timeouts_for(Round::new(1)), 1);
        assert_eq!(agg.timeouts_for(Round::new(2)), 1);
    }

    #[test]
    fn prune_drops_stale_rounds() {
        let (registry, mut agg) = setup();
        for s in 0..3 {
            agg.add(&msg(&registry, s, 1, 0));
        }
        agg.add(&msg(&registry, 0, 5, 0));
        assert!(agg.is_certified(Round::new(1)));
        agg.prune_below(Round::new(4));
        assert!(!agg.is_certified(Round::new(1)));
        assert_eq!(agg.timeouts_for(Round::new(1)), 0);
        assert_eq!(agg.timeouts_for(Round::new(5)), 1, "live rounds survive");
    }

    #[test]
    fn codec_roundtrips() {
        let (registry, mut agg) = setup();
        let m = msg(&registry, 3, 7, 4);
        let back = TimeoutMsg::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
        assert!(back.verify(&registry));

        agg.add(&msg(&registry, 0, 7, 0));
        agg.add(&msg(&registry, 1, 7, 1));
        let TimeoutOutcome::Certified(tc) = agg.add(&msg(&registry, 2, 7, 2)) else {
            panic!("third timeout certifies");
        };
        let back = TimeoutCertificate::from_bytes(&tc.to_bytes()).unwrap();
        assert_eq!(back, tc);
    }

    #[test]
    #[should_panic(expected = "bad quorum")]
    fn zero_quorum_panics() {
        TimeoutAggregator::new(4, 0, KeyRegistry::deterministic(4));
    }

    #[test]
    fn on_quorum_retransmission_never_verifies() {
        let (registry, mut agg) = setup();
        let m = msg(&registry, 0, 1, 0);
        assert_eq!(agg.add(&m), TimeoutOutcome::Counted(1));
        assert_eq!(agg.add(&m), TimeoutOutcome::Duplicate);
        assert_eq!(
            agg.sig_stats().verifications,
            1,
            "a byte-identical copy is not checked again"
        );
    }

    #[test]
    fn on_quorum_forged_trigger_message_is_rejected() {
        let (registry, mut agg) = setup();
        agg.add(&msg(&registry, 0, 1, 0));
        agg.add(&msg(&registry, 1, 1, 0));
        let forged = TimeoutMsg::from_parts(
            Round::new(1),
            Round::ZERO,
            ReplicaId::new(2),
            sft_crypto::Signature::from_tag(2, [0x11; 32]),
        );
        assert_eq!(agg.add(&forged), TimeoutOutcome::BadSignature);
        assert!(!agg.is_certified(Round::new(1)));
        assert_eq!(agg.timeouts_for(Round::new(1)), 2);
    }

    #[test]
    fn on_quorum_forger_cannot_displace_honest_message() {
        let (registry, mut agg) = setup();
        let honest = msg(&registry, 0, 1, 2);
        agg.add(&honest);
        // A forged variant under the same author is refused on arrival;
        // the held message stays.
        let forged = TimeoutMsg::from_parts(
            Round::new(1),
            Round::new(9),
            ReplicaId::new(0),
            sft_crypto::Signature::from_tag(0, [0x77; 32]),
        );
        assert_eq!(agg.add(&forged), TimeoutOutcome::BadSignature);
        agg.add(&msg(&registry, 1, 1, 0));
        let TimeoutOutcome::Certified(tc) = agg.add(&msg(&registry, 2, 1, 0)) else {
            panic!("quorum certifies");
        };
        assert_eq!(
            tc.max_high_qc_round(),
            Round::new(2),
            "honest high survives"
        );
    }

    #[test]
    fn future_round_flood_is_refused_unverified() {
        let (registry, mut agg) = setup();
        let signature = *msg(&registry, 1, 1, 0).signature();
        for round in 1_000..101_000 {
            let forged = TimeoutMsg::from_parts(
                Round::new(round),
                Round::ZERO,
                ReplicaId::new(1),
                signature,
            );
            assert_eq!(agg.add(&forged), TimeoutOutcome::Stale);
        }
        assert_eq!(agg.sig_stats(), SigStats::default());
        // The window is measured from the replica's round, not from zero.
        agg.enter_round(Round::new(1_000));
        let edge = 1_000 + RETENTION_ROUNDS;
        assert_eq!(
            agg.add(&msg(&registry, 0, edge, 0)),
            TimeoutOutcome::Counted(1)
        );
        assert_eq!(
            agg.add(&msg(&registry, 0, edge + 1, 0)),
            TimeoutOutcome::Stale
        );
        assert_eq!(
            agg.add(&msg(&registry, 0, 999, 0)),
            TimeoutOutcome::Stale,
            "entering a round prunes the earlier ones"
        );
    }

    #[test]
    fn out_of_range_authors_cost_no_verification() {
        let (_, mut agg) = setup();
        for author in 100..103 {
            let forged = TimeoutMsg::from_parts(
                Round::new(1),
                Round::ZERO,
                ReplicaId::new(author),
                sft_crypto::Signature::from_tag(u64::from(author), [0x42; 32]),
            );
            assert_eq!(agg.add(&forged), TimeoutOutcome::BadSignature);
        }
        assert_eq!(agg.timeouts_for(Round::new(1)), 0);
        assert_eq!(agg.sig_stats().batch_calls, 0);
        assert_eq!(agg.sig_stats(), SigStats::default());
    }
}
