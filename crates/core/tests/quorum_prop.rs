//! Differential property: batch verification at quorum is a per-message
//! reference, only cheaper.
//!
//! Votes and timeouts are fed, as seeded random adversarial streams, to a
//! reference collector written here, which checks every signature as its
//! message arrives, and to the [`VoteTracker`] and [`TimeoutAggregator`],
//! which count unchecked and batch-check at quorum. A stream mixes valid
//! messages, forged signatures, byte-identical retransmissions,
//! conflicting copies under one author (the forged one first or second),
//! equivocations, authors outside the replica set, stragglers after
//! certification and retention prunes. Both must emit the same
//! certificates in the same order, catch the same equivocators and end up
//! with the same verified votes, and no forged signature may ever reach a
//! certificate or the verified-vote feed.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;

use sft_core::{
    ProtocolConfig, QuorumCertificate, TimeoutAggregator, TimeoutOutcome, VoteOutcome, VoteTracker,
    RETENTION_ROUNDS,
};
use sft_crypto::{HashValue, KeyRegistry, RngCore, Signature, SplitMix64};
use sft_types::{
    EndorseInfo, ReplicaId, Round, SignerSet, StrongVote, TimeoutCertificate, TimeoutMsg, VoteData,
};

const CASES: u64 = 48;

// ---- the reference ----

/// What the reference made of one message.
enum Step {
    Stale,
    BadSignature,
    Duplicate,
    Counted(usize),
    Certified,
}

/// The per-message reference collector: a message's signature is checked
/// as it arrives, so only valid messages are ever counted, one per author
/// and key, and a key certifies once, at its `quorum`-th distinct valid
/// author. Rounds below the prune floor, or more than [`RETENTION_ROUNDS`]
/// past round 0 (where every collector here stays), are stale.
struct Reference<K, M> {
    n: usize,
    quorum: usize,
    floor: Round,
    /// Per key: its round, its messages by author, and whether it
    /// certified.
    keys: HashMap<K, (Round, BTreeMap<ReplicaId, M>, bool)>,
}

impl<K: Copy + Eq + Hash, M> Reference<K, M> {
    fn new(n: usize) -> Self {
        Self {
            n,
            quorum: ProtocolConfig::for_replicas(n).quorum(),
            floor: Round::ZERO,
            keys: HashMap::new(),
        }
    }

    /// The checks before a message may be counted, in the collectors'
    /// order: round window, author, signature.
    fn screen(&self, round: Round, author: ReplicaId, valid: bool) -> Option<Step> {
        if round < self.floor || round.as_u64() > RETENTION_ROUNDS {
            return Some(Step::Stale);
        }
        if author.as_usize() >= self.n || !valid {
            return Some(Step::BadSignature);
        }
        None
    }

    /// Counts a screened message under `key`.
    fn count(&mut self, key: K, round: Round, author: ReplicaId, msg: M) -> Step {
        let (_, by_author, certified) = self
            .keys
            .entry(key)
            .or_insert_with(|| (round, BTreeMap::new(), false));
        if by_author.contains_key(&author) {
            return Step::Duplicate;
        }
        by_author.insert(author, msg);
        if *certified || by_author.len() < self.quorum {
            return Step::Counted(by_author.len());
        }
        *certified = true;
        Step::Certified
    }

    fn members(&self, key: K) -> &BTreeMap<ReplicaId, M> {
        &self.keys[&key].1
    }

    fn signers(&self, key: K) -> SignerSet {
        SignerSet::from_iter_with_capacity(self.n, self.members(key).keys().copied())
    }

    fn is_certified(&self, key: K) -> bool {
        self.keys
            .get(&key)
            .is_some_and(|(_, _, certified)| *certified)
    }

    fn prune_below(&mut self, floor: Round) {
        self.floor = self.floor.max(floor);
        let floor = self.floor;
        self.keys.retain(|_, (round, _, _)| *round >= floor);
    }
}

/// A vote collector as the stream runner drives it.
trait VoteCollector {
    fn add_vote(&mut self, vote: &StrongVote) -> VoteOutcome;
    fn take_newly_verified(&mut self) -> Vec<StrongVote>;
    fn is_certified(&self, block_id: HashValue) -> bool;
    fn prune_below(&mut self, floor: Round);
    fn forged_signers(&self) -> usize;
    fn equivocators(&self) -> Vec<ReplicaId>;
}

impl VoteCollector for VoteTracker {
    fn add_vote(&mut self, vote: &StrongVote) -> VoteOutcome {
        VoteTracker::add_vote(self, vote)
    }

    fn take_newly_verified(&mut self) -> Vec<StrongVote> {
        VoteTracker::take_newly_verified(self)
    }

    fn is_certified(&self, block_id: HashValue) -> bool {
        VoteTracker::is_certified(self, block_id)
    }

    fn prune_below(&mut self, floor: Round) {
        VoteTracker::prune_below(self, floor);
    }

    fn forged_signers(&self) -> usize {
        VoteTracker::forged_signers(self).len()
    }

    fn equivocators(&self) -> Vec<ReplicaId> {
        VoteTracker::equivocators(self).to_vec()
    }
}

/// The reference for votes: per block, plus two valid votes from one
/// author for different blocks in one round are an equivocation.
struct ReferenceVotes {
    registry: KeyRegistry,
    votes: Reference<HashValue, StrongVote>,
    first_vote: HashMap<(Round, ReplicaId), HashValue>,
    equivocators: Vec<ReplicaId>,
    newly_verified: Vec<StrongVote>,
}

impl ReferenceVotes {
    fn new(n: usize, registry: &KeyRegistry) -> Self {
        Self {
            registry: registry.clone(),
            votes: Reference::new(n),
            first_vote: HashMap::new(),
            equivocators: Vec::new(),
            newly_verified: Vec::new(),
        }
    }
}

impl VoteCollector for ReferenceVotes {
    fn add_vote(&mut self, vote: &StrongVote) -> VoteOutcome {
        let (round, author) = (vote.round(), vote.author());
        let block_id = vote.data().block_id();
        let valid = vote.verify(&self.registry);
        let step = match self.votes.screen(round, author, valid) {
            Some(step) => step,
            None => {
                let first = self.first_vote.get(&(round, author));
                if first.is_some_and(|first| *first != block_id) {
                    if !self.equivocators.contains(&author) {
                        self.equivocators.push(author);
                    }
                    return VoteOutcome::Equivocation;
                }
                self.votes.count(block_id, round, author, vote.clone())
            }
        };
        if matches!(step, Step::Counted(_) | Step::Certified) {
            self.newly_verified.push(vote.clone());
            self.first_vote.insert((round, author), block_id);
        }
        match step {
            Step::Stale => VoteOutcome::Stale,
            Step::BadSignature => VoteOutcome::BadSignature,
            Step::Duplicate => VoteOutcome::Duplicate,
            Step::Counted(count) => VoteOutcome::Counted(count),
            Step::Certified => VoteOutcome::Certified(QuorumCertificate::new(
                *vote.data(),
                self.votes.signers(block_id),
            )),
        }
    }

    fn take_newly_verified(&mut self) -> Vec<StrongVote> {
        std::mem::take(&mut self.newly_verified)
    }

    fn is_certified(&self, block_id: HashValue) -> bool {
        self.votes.is_certified(block_id)
    }

    fn prune_below(&mut self, floor: Round) {
        self.votes.prune_below(floor);
        self.first_vote.retain(|(round, _), _| *round >= floor);
    }

    fn forged_signers(&self) -> usize {
        0 // nothing forged is ever counted
    }

    fn equivocators(&self) -> Vec<ReplicaId> {
        self.equivocators.clone()
    }
}

/// A timeout collector as the stream runner drives it.
trait TimeoutCollector {
    fn add(&mut self, msg: &TimeoutMsg) -> TimeoutOutcome;
    fn is_certified(&self, round: Round) -> bool;
    fn prune_below(&mut self, floor: Round);
    fn forged_signers(&self) -> usize;
}

impl TimeoutCollector for TimeoutAggregator {
    fn add(&mut self, msg: &TimeoutMsg) -> TimeoutOutcome {
        TimeoutAggregator::add(self, msg)
    }

    fn is_certified(&self, round: Round) -> bool {
        TimeoutAggregator::is_certified(self, round)
    }

    fn prune_below(&mut self, floor: Round) {
        TimeoutAggregator::prune_below(self, floor);
    }

    fn forged_signers(&self) -> usize {
        TimeoutAggregator::forged_signers(self).len()
    }
}

/// The reference for timeouts: per round, the certificate carrying the
/// freshest high-QC round among its members.
struct ReferenceTimeouts {
    registry: KeyRegistry,
    timeouts: Reference<Round, TimeoutMsg>,
}

impl TimeoutCollector for ReferenceTimeouts {
    fn add(&mut self, msg: &TimeoutMsg) -> TimeoutOutcome {
        let (round, author) = (msg.round(), msg.author());
        let valid = msg.verify(&self.registry);
        let step = match self.timeouts.screen(round, author, valid) {
            Some(step) => step,
            None => self.timeouts.count(round, round, author, msg.clone()),
        };
        match step {
            Step::Stale => TimeoutOutcome::Stale,
            Step::BadSignature => TimeoutOutcome::BadSignature,
            Step::Duplicate => TimeoutOutcome::Duplicate,
            Step::Counted(count) => TimeoutOutcome::Counted(count),
            Step::Certified => {
                let members = self.timeouts.members(round).values();
                let max_high = members.map(TimeoutMsg::high_qc_round).max();
                TimeoutOutcome::Certified(TimeoutCertificate::new(
                    round,
                    max_high.unwrap_or(Round::ZERO),
                    self.timeouts.signers(round),
                ))
            }
        }
    }

    fn is_certified(&self, round: Round) -> bool {
        self.timeouts.is_certified(round)
    }

    fn prune_below(&mut self, floor: Round) {
        self.timeouts.prune_below(floor);
    }

    fn forged_signers(&self) -> usize {
        0 // nothing forged is ever counted
    }
}

/// One input event: a message, or a retention prune below a round.
#[derive(Clone, Debug)]
enum Event<M> {
    Message(M),
    Prune(Round),
}

/// Round `round`'s block `variant`; its id fixes its vote data.
fn block(round: u64, variant: u64) -> VoteData {
    VoteData::new(
        HashValue::of(&[round as u8, variant as u8]),
        Round::new(round),
        HashValue::of(&[round as u8 - 1]),
        Round::new(round - 1),
    )
}

fn endorse(rng: &mut SplitMix64) -> EndorseInfo {
    match rng.next_below(4) {
        0 => EndorseInfo::None,
        k => EndorseInfo::Marker(Round::new(k - 1)),
    }
}

fn junk_signature(rng: &mut SplitMix64, signer: u64) -> Signature {
    let mut tag = [0u8; 32];
    rng.fill_bytes(&mut tag);
    Signature::from_tag(signer, tag)
}

/// Counts of what the streams exercised, so a generator change that stops
/// producing a case fails loudly instead of passing vacuously.
#[derive(Default)]
struct Coverage {
    certificates: usize,
    equivocations: usize,
    rejected: usize,
    rolled_back: usize,
    stragglers: usize,
}

// ---- votes ----

struct VoteGen<'a> {
    rng: SplitMix64,
    n: u64,
    registry: &'a KeyRegistry,
}

impl VoteGen<'_> {
    fn valid(&mut self, author: u64, data: VoteData) -> StrongVote {
        let endorse = endorse(&mut self.rng);
        StrongVote::new(data, endorse, &self.registry.key_pair(author).unwrap())
    }

    /// A vote its claimed author never signed: a random tag, or the
    /// author's real signature over other content.
    fn forged(&mut self, author: u64, data: VoteData) -> StrongVote {
        let endorse = endorse(&mut self.rng);
        let signature = if self.rng.next_below(2) == 0 {
            junk_signature(&mut self.rng, author)
        } else {
            *self
                .valid(author, block(data.block_round().as_u64() + 1, 0))
                .signature()
        };
        StrongVote::from_parts(data, endorse, ReplicaId::new(author as u16), signature)
    }

    fn stream(&mut self) -> Vec<Event<StrongVote>> {
        let mut events = Vec::new();
        let mut sent: Vec<StrongVote> = Vec::new();
        let len = 40 + self.rng.next_below(120) as usize;
        let mut round = 1;
        while sent.len() < len {
            if self.rng.next_below(10) == 0 {
                round += 1;
            }
            if self.rng.next_below(40) == 0 {
                events.push(Event::Prune(Round::new(round - 1)));
            }
            let author = self.rng.next_below(self.n);
            let variant = u64::from(self.rng.next_below(4) == 0);
            let data = block(round, variant);
            let batch = match self.rng.next_below(16) {
                0..=5 => vec![self.valid(author, data)],
                6..=7 => vec![self.forged(author, data)],
                8 if !sent.is_empty() => {
                    let pick = self.rng.next_below(sent.len() as u64) as usize;
                    vec![sent[pick].clone()]
                }
                9 => {
                    let mut pair = vec![self.valid(author, data), self.forged(author, data)];
                    if self.rng.next_below(2) == 0 {
                        pair.reverse();
                    }
                    pair
                }
                10 => {
                    let other = block(round, 1 - variant);
                    let second = if self.rng.next_below(3) == 0 {
                        self.forged(author, other)
                    } else {
                        self.valid(author, other)
                    };
                    vec![self.valid(author, data), second]
                }
                11 => {
                    let outsider = self.n + self.rng.next_below(3);
                    let signature = junk_signature(&mut self.rng, outsider);
                    let endorse = endorse(&mut self.rng);
                    let id = ReplicaId::new(outsider as u16);
                    vec![StrongVote::from_parts(data, endorse, id, signature)]
                }
                _ => {
                    // A straggler: a vote for an earlier round's block.
                    let earlier = 1 + self.rng.next_below(round);
                    vec![self.valid(author, block(earlier, 0))]
                }
            };
            for vote in batch {
                events.push(Event::Message(vote.clone()));
                sent.push(vote);
            }
        }
        events
    }
}

/// What one collector made of a vote stream.
struct VoteRun {
    certificates: Vec<QuorumCertificate>,
    equivocators: Vec<ReplicaId>,
    verified: HashSet<StrongVote>,
}

fn run_votes(
    events: &[Event<StrongVote>],
    n: usize,
    registry: &KeyRegistry,
    mut tracker: impl VoteCollector,
    label: &str,
    coverage: &mut Coverage,
) -> VoteRun {
    let mut run = VoteRun {
        certificates: Vec::new(),
        equivocators: Vec::new(),
        verified: HashSet::new(),
    };
    // (block, author) pairs a validly signed vote was seen for.
    let mut signed: HashSet<(HashValue, ReplicaId)> = HashSet::new();
    for event in events {
        let vote = match event {
            Event::Message(vote) => vote,
            Event::Prune(floor) => {
                tracker.prune_below(*floor);
                continue;
            }
        };
        if vote.author().as_usize() < n && vote.verify(registry) {
            signed.insert((vote.data().block_id(), vote.author()));
        }
        let block_id = vote.data().block_id();
        let was_certified = tracker.is_certified(block_id);
        match tracker.add_vote(vote) {
            VoteOutcome::Certified(qc) => {
                for signer in qc.signers().iter() {
                    assert!(
                        signed.contains(&(qc.block_id(), signer)),
                        "{label}: {qc:?} names {signer}, which signed no vote for it"
                    );
                }
                run.certificates.push(qc);
            }
            VoteOutcome::Counted(_) if was_certified => coverage.stragglers += 1,
            VoteOutcome::Equivocation => coverage.equivocations += 1,
            VoteOutcome::BadSignature => coverage.rejected += 1,
            _ => {}
        }
        for verified in tracker.take_newly_verified() {
            assert!(
                verified.verify(registry),
                "{label}: forged {verified:?} reached the verified feed"
            );
            assert!(run.verified.insert(verified), "a vote verified twice");
        }
    }
    coverage.certificates += run.certificates.len();
    coverage.rolled_back += tracker.forged_signers();
    run.equivocators = tracker.equivocators();
    run
}

#[test]
fn vote_policies_agree_on_adversarial_streams() {
    let mut coverage = Coverage::default();
    for case in 0..CASES {
        let n = if case % 2 == 0 { 4 } else { 7 };
        let registry = KeyRegistry::deterministic(n);
        let events = VoteGen {
            rng: SplitMix64::new(0x5107_0000 + case),
            n: n as u64,
            registry: &registry,
        }
        .stream();
        let eager = ReferenceVotes::new(n, &registry);
        let eager = run_votes(&events, n, &registry, eager, "reference", &mut coverage);
        let deferred = VoteTracker::new(ProtocolConfig::for_replicas(n), registry.clone());
        let deferred = run_votes(&events, n, &registry, deferred, "tracker", &mut coverage);
        assert_eq!(
            eager.certificates, deferred.certificates,
            "case {case}: certificates"
        );
        assert_eq!(
            eager.equivocators, deferred.equivocators,
            "case {case}: equivocators"
        );
        // Deferral leaves the votes of never-certified blocks unchecked
        // (unless a conflict settled them); every certified block ends
        // with the same verified votes either way.
        assert!(
            deferred.verified.is_subset(&eager.verified),
            "case {case}: deferral verified a vote the reference did not"
        );
        let certified: HashSet<HashValue> =
            eager.certificates.iter().map(|qc| qc.block_id()).collect();
        let of_certified = |run: &VoteRun| -> HashSet<StrongVote> {
            run.verified
                .iter()
                .filter(|vote| certified.contains(&vote.data().block_id()))
                .cloned()
                .collect()
        };
        assert_eq!(
            of_certified(&eager),
            of_certified(&deferred),
            "case {case}: verified votes of certified blocks"
        );
    }
    assert!(coverage.certificates > 100, "{}", coverage.certificates);
    assert!(coverage.equivocations > 20, "{}", coverage.equivocations);
    assert!(coverage.rejected > 100, "{}", coverage.rejected);
    assert!(coverage.rolled_back > 10, "{}", coverage.rolled_back);
    assert!(coverage.stragglers > 20, "{}", coverage.stragglers);
}

// ---- timeouts ----

struct TimeoutGen<'a> {
    rng: SplitMix64,
    n: u64,
    registry: &'a KeyRegistry,
}

impl TimeoutGen<'_> {
    fn valid(&mut self, author: u64, round: u64) -> TimeoutMsg {
        let high = self.rng.next_below(round);
        let key = self.registry.key_pair(author).unwrap();
        TimeoutMsg::new(Round::new(round), Round::new(high), &key)
    }

    fn forged(&mut self, author: u64, round: u64) -> TimeoutMsg {
        let high = self.rng.next_below(round);
        let signature = if self.rng.next_below(2) == 0 {
            junk_signature(&mut self.rng, author)
        } else {
            *self.valid(author, round + 1).signature()
        };
        let id = ReplicaId::new(author as u16);
        TimeoutMsg::from_parts(Round::new(round), Round::new(high), id, signature)
    }

    fn stream(&mut self) -> Vec<Event<TimeoutMsg>> {
        let mut events = Vec::new();
        let mut sent: Vec<TimeoutMsg> = Vec::new();
        let len = 40 + self.rng.next_below(120) as usize;
        let mut round = 1;
        while sent.len() < len {
            if self.rng.next_below(10) == 0 {
                round += 1;
            }
            if self.rng.next_below(40) == 0 {
                events.push(Event::Prune(Round::new(round - 1)));
            }
            let author = self.rng.next_below(self.n);
            let batch = match self.rng.next_below(14) {
                0..=5 => vec![self.valid(author, round)],
                6..=7 => vec![self.forged(author, round)],
                8 if !sent.is_empty() => {
                    let pick = self.rng.next_below(sent.len() as u64) as usize;
                    vec![sent[pick].clone()]
                }
                9 => {
                    let mut pair = vec![self.valid(author, round), self.forged(author, round)];
                    if self.rng.next_below(2) == 0 {
                        pair.reverse();
                    }
                    pair
                }
                10 => vec![self.valid(author, round), self.valid(author, round)],
                11 => {
                    let outsider = self.n + self.rng.next_below(3);
                    let signature = junk_signature(&mut self.rng, outsider);
                    let id = ReplicaId::new(outsider as u16);
                    vec![TimeoutMsg::from_parts(
                        Round::new(round),
                        Round::ZERO,
                        id,
                        signature,
                    )]
                }
                _ => {
                    let earlier = 1 + self.rng.next_below(round);
                    vec![self.valid(author, earlier)]
                }
            };
            for msg in batch {
                events.push(Event::Message(msg.clone()));
                sent.push(msg);
            }
        }
        events
    }
}

fn run_timeouts(
    events: &[Event<TimeoutMsg>],
    n: usize,
    registry: &KeyRegistry,
    mut aggregator: impl TimeoutCollector,
    label: &str,
    coverage: &mut Coverage,
) -> Vec<TimeoutCertificate> {
    let mut certificates = Vec::new();
    // (round, author) → the high-QC rounds of its validly signed timeouts.
    let mut signed: HashSet<(Round, ReplicaId, Round)> = HashSet::new();
    for event in events {
        let msg = match event {
            Event::Message(msg) => msg,
            Event::Prune(floor) => {
                aggregator.prune_below(*floor);
                continue;
            }
        };
        if msg.author().as_usize() < n && msg.verify(registry) {
            signed.insert((msg.round(), msg.author(), msg.high_qc_round()));
        }
        let was_certified = aggregator.is_certified(msg.round());
        match aggregator.add(msg) {
            TimeoutOutcome::Certified(tc) => {
                let signed_by = |author: ReplicaId| {
                    signed
                        .iter()
                        .any(|(round, a, _)| *round == tc.round() && *a == author)
                };
                for signer in tc.signers().iter() {
                    assert!(
                        signed_by(signer),
                        "{label}: {tc:?} names {signer}, which signed no timeout for it"
                    );
                }
                assert!(
                    signed
                        .iter()
                        .any(|(round, author, high)| *round == tc.round()
                            && tc.signers().contains(*author)
                            && *high == tc.max_high_qc_round()),
                    "{label}: {tc:?} carries a high-QC round no signer signed"
                );
                certificates.push(tc);
            }
            TimeoutOutcome::Counted(_) if was_certified => coverage.stragglers += 1,
            TimeoutOutcome::BadSignature => coverage.rejected += 1,
            _ => {}
        }
    }
    coverage.certificates += certificates.len();
    coverage.rolled_back += aggregator.forged_signers();
    certificates
}

#[test]
fn timeout_policies_agree_on_adversarial_streams() {
    let mut coverage = Coverage::default();
    for case in 0..CASES {
        let n = if case % 2 == 0 { 4 } else { 7 };
        let registry = KeyRegistry::deterministic(n);
        let events = TimeoutGen {
            rng: SplitMix64::new(0x7100_0000 + case),
            n: n as u64,
            registry: &registry,
        }
        .stream();
        let eager = ReferenceTimeouts {
            registry: registry.clone(),
            timeouts: Reference::new(n),
        };
        let eager = run_timeouts(&events, n, &registry, eager, "reference", &mut coverage);
        let quorum = ProtocolConfig::for_replicas(n).quorum();
        let deferred = TimeoutAggregator::new(n, quorum, registry.clone());
        let deferred = run_timeouts(&events, n, &registry, deferred, "aggregator", &mut coverage);
        assert_eq!(eager, deferred, "case {case}: timeout certificates");
    }
    assert!(coverage.certificates > 100, "{}", coverage.certificates);
    assert!(coverage.rejected > 100, "{}", coverage.rejected);
    assert!(coverage.rolled_back > 10, "{}", coverage.rolled_back);
    assert!(coverage.stragglers > 20, "{}", coverage.stragglers);
}
