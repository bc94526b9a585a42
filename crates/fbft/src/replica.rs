//! The SFT-DiemBFT replica state machine.

use std::collections::BTreeSet;
use std::fmt;

use sft_core::{ChainKernel, ProtocolConfig, QuorumCertificate, WalRecord};
use sft_crypto::{HashValue, KeyRegistry, SigStats};
use sft_types::{
    BlockRequest, EndorseMode, Payload, ReplicaId, Round, SimDuration, SimTime, StrongCommitUpdate,
    StrongVote, TimeoutAggregator, TimeoutCertificate, TimeoutMsg, TimeoutOutcome, VerifyPolicy,
};

pub use sft_core::BlockResponse;

use crate::message::FbftProposal;
use crate::pacemaker::Pacemaker;
use crate::two_chain::TwoChainState;

/// What processing one event (proposal, vote, or timeout message) produced:
/// this replica's vote to broadcast, any commit-log entries, and — when the
/// event advanced the replica into a round it leads and a
/// [`PayloadSource`](sft_core::PayloadSource) is configured — the chained
/// next proposal, carrying the certificate that just formed. Chaining the
/// proposal off the event that creates the certificate is what pipelines
/// rounds: the QC never waits for an external poll before riding the next
/// proposal.
#[derive(Clone, Debug, Default)]
pub struct StepOutcome {
    /// The strong-vote to broadcast, if the voting rule fired.
    pub vote: Option<StrongVote>,
    /// Commit-log entries produced while processing the event.
    pub updates: Vec<StrongCommitUpdate>,
    /// The pipelined proposal for the round this event moved the replica
    /// into, if it leads that round. Must be broadcast like any proposal.
    pub next_proposal: Option<FbftProposal>,
    /// Block-sync fetches now due (new targets and expired retries), to be
    /// sent point-to-point to the named peer.
    pub sync_requests: Vec<(ReplicaId, BlockRequest)>,
}

/// A single SFT-DiemBFT replica: pacemaker-driven rounds, QC/TC
/// aggregation and the 2-chain commit rule, over the shared
/// [`ChainKernel`] (store, tallies, strength-graded commit log, sync,
/// write-ahead buffer — reach it through [`kernel`](Self::kernel)).
///
/// The protocol per round `r` (paper §2, Figs 2/3, strengthened per §3):
///
/// 1. the leader of `r` (round-robin) proposes a block extending the
///    highest QC it knows, shipping that QC — and, after a timeout round,
///    the TC justifying the skip ([`FbftReplica::try_propose`]);
/// 2. every replica votes for the first justified proposal of its current
///    round that satisfies the locking rule ([`TwoChainState::safe_to_vote`]),
///    attaching §3.2/§3.4 endorsement info, and broadcasts the strong-vote
///    ([`FbftReplica::on_proposal`]);
/// 3. `2f + 1` votes certify the block; every replica aggregates votes
///    itself (votes are broadcast precisely so endorsements are countable),
///    advances its round on the new QC, and applies the 2-chain commit rule
///    ([`FbftReplica::on_vote`]);
/// 4. if a round's deadline passes uncertified, replicas broadcast timeout
///    messages ([`FbftReplica::on_tick`]); `2f + 1` of them form a TC that
///    advances the round without a QC ([`FbftReplica::on_timeout_msg`]);
/// 5. endorsements carried by strong-votes grade every commit with the
///    strength `x = q − f − 1` of Definition 1, reported as
///    [`StrongCommitUpdate`]s in the kernel's commit log.
///
/// # Examples
///
/// Driving one happy-path round of a 4-replica system by hand:
///
/// ```
/// use sft_core::ProtocolConfig;
/// use sft_crypto::KeyRegistry;
/// use sft_fbft::FbftReplica;
/// use sft_types::{EndorseMode, Payload, Round, SimDuration, SimTime};
///
/// let config = ProtocolConfig::for_replicas(4);
/// let registry = KeyRegistry::deterministic(4);
/// let now = SimTime::ZERO;
/// let mut replicas: Vec<FbftReplica> = (0..4)
///     .map(|i| {
///         FbftReplica::new(
///             i,
///             config,
///             registry.clone(),
///             EndorseMode::Marker,
///             SimDuration::from_millis(400),
///             now,
///         )
///     })
///     .collect();
///
/// // Round 1: replica 1 leads and proposes on the genesis QC.
/// let proposal = replicas[1].try_propose(Payload::empty()).expect("leader proposes");
/// let votes: Vec<_> = replicas
///     .iter_mut()
///     .filter_map(|r| r.on_proposal(&proposal, now).vote)
///     .collect();
/// assert_eq!(votes.len(), 4, "every honest replica votes");
/// for vote in &votes {
///     for replica in replicas.iter_mut() {
///         replica.on_vote(vote, now);
///     }
/// }
/// // The QC formed everywhere: all replicas advanced to round 2.
/// assert!(replicas.iter().all(|r| r.current_round() == Round::new(2)));
/// // One round certifies but cannot commit: the 2-chain is still open.
/// assert!(replicas[0].kernel().committed_chain().is_empty());
/// ```
pub struct FbftReplica {
    kernel: ChainKernel,
    timeouts: TimeoutAggregator,
    two_chain: TwoChainState,
    pacemaker: Pacemaker,
    /// The highest quorum certificate this replica knows — what it
    /// proposes on when leading.
    high_qc: QuorumCertificate,
    /// The TC that justified entering the current round, if it was entered
    /// on the timeout path (shipped with this replica's next proposal).
    last_tc: Option<TimeoutCertificate>,
    /// The highest round this replica proposed in (propose-once rule).
    last_proposed_round: Round,
    /// A chained proposal is ready but ahead of the round pace: the
    /// replica's deadline is the instant it comes due.
    proposal_held: bool,
    /// Certificates already absorbed, by (round, digest) — re-deliveries (a
    /// QC rides every proposal that extends it) skip the pacemaker/commit
    /// walk. Not the kernel's logged set: this one deliberately re-processes
    /// a QC while its block is absent.
    processed_qcs: BTreeSet<(Round, HashValue)>,
}

impl FbftReplica {
    /// Creates replica `id` of an `n`-replica system, entering round 1 at
    /// `now` with the given base round timeout.
    ///
    /// # Panics
    ///
    /// Panics if the registry holds no key for `id` or fewer than
    /// `config.n()` keys, or if the timeout is zero.
    pub fn new(
        id: u16,
        config: ProtocolConfig,
        registry: KeyRegistry,
        mode: EndorseMode,
        base_timeout: SimDuration,
        now: SimTime,
    ) -> Self {
        let mut kernel = ChainKernel::new(id, config, registry.clone(), mode);
        // Re-ask a different peer after two exchanges' worth of silence at
        // this replica's own timeout scale.
        kernel.set_sync_retry(base_timeout);
        Self {
            kernel,
            timeouts: TimeoutAggregator::new(config.n(), config.quorum(), registry),
            two_chain: TwoChainState::new(),
            pacemaker: Pacemaker::new(base_timeout, now),
            high_qc: QuorumCertificate::genesis(config.n()),
            last_tc: None,
            last_proposed_round: Round::ZERO,
            proposal_held: false,
            processed_qcs: BTreeSet::new(),
        }
    }

    /// The replica's protocol-agnostic state: store, commit log, mempool,
    /// sync and every gauge.
    pub fn kernel(&self) -> &ChainKernel {
        &self.kernel
    }

    /// Mutable access to the kernel: setup (payload source, retention,
    /// caps), client submissions, and the write-ahead buffer.
    pub fn kernel_mut(&mut self) -> &mut ChainKernel {
        &mut self.kernel
    }

    /// Consumes the replica into its kernel.
    pub fn into_kernel(self) -> ChainKernel {
        self.kernel
    }

    /// Paces this replica's rounds: at most one per `interval` once `burst`
    /// rounds have gone through unpaced (see [`Pacemaker::set_pace`]). What
    /// a replica on a wall clock runs with; virtual-time runs leave it off.
    pub fn set_round_pace(&mut self, interval: SimDuration, burst: u64) {
        self.pacemaker.set_pace(interval, burst);
    }

    /// Switches vote and timeout aggregation to `policy` — verify every
    /// signature on arrival (the default) or defer to one batched check at
    /// quorum. Call right after construction, before any message is
    /// ingested.
    pub fn with_verify_policy(mut self, policy: VerifyPolicy) -> Self {
        self.kernel.set_verify_policy(policy);
        self.timeouts = self.timeouts.with_policy(policy);
        self
    }

    /// The round this replica is currently in.
    pub fn current_round(&self) -> Round {
        self.pacemaker.current_round()
    }

    /// The replica's pacemaker (round, deadline, back-off state).
    pub fn pacemaker(&self) -> &Pacemaker {
        &self.pacemaker
    }

    /// The highest quorum certificate this replica knows.
    pub fn high_qc(&self) -> &QuorumCertificate {
        &self.high_qc
    }

    /// The next instant this replica wants [`on_tick`](Self::on_tick): its
    /// round timer (the round deadline, or the next timeout retransmission
    /// once it has fired — the timer is always armed), or sooner when a
    /// proposal is waiting for the round pace.
    pub fn next_deadline(&self) -> SimTime {
        let timer = self.pacemaker.deadline();
        if self.proposal_held {
            timer.min(self.pacemaker.propose_at())
        } else {
            timer
        }
    }

    /// True while a chained proposal waits for the round pace; the caller
    /// retries [`try_propose_chained`](Self::try_propose_chained) at
    /// [`next_deadline`](Self::next_deadline).
    pub fn proposal_held(&self) -> bool {
        self.proposal_held
    }

    /// If this replica leads its current round and has not proposed yet,
    /// returns a signed proposal extending the highest-QC block with
    /// `payload`, carrying that QC and — after a timeout round — the
    /// justifying TC. The proposal must be broadcast (the caller owns
    /// transport) and fed back via [`on_proposal`](Self::on_proposal) like
    /// any other replica's.
    pub fn try_propose(&mut self, payload: Payload) -> Option<FbftProposal> {
        if !self.may_propose() {
            return None;
        }
        let round = self.pacemaker.current_round();
        let block = self
            .kernel
            .extend(self.high_qc.block_id(), round, payload)?;
        self.last_proposed_round = round;
        Some(FbftProposal::new(
            block,
            self.high_qc.clone(),
            self.last_tc.clone(),
            self.kernel.key_pair(),
        ))
    }

    /// True if this replica leads its current round and has not proposed in
    /// it yet.
    pub fn may_propose(&self) -> bool {
        let round = self.pacemaker.current_round();
        self.kernel.config().leader(round) == self.kernel.id() && round > self.last_proposed_round
    }

    /// The pipelined propose path: if a payload source is configured and
    /// this replica leads its current round, drains the next payload and
    /// proposes on the high-QC. Called internally after every
    /// round-advancing event; drivers call it once at startup to bootstrap
    /// round 1, and again whenever a proposal the round pace held back
    /// ([`proposal_held`](Self::proposal_held)) comes due.
    pub fn try_propose_chained(&mut self, now: SimTime) -> Option<FbftProposal> {
        if !self.kernel.sources_payloads() {
            return None;
        }
        self.proposal_held = false;
        // Every failure mode of `try_propose` must be ruled out *before*
        // draining the mempool — a drained batch is marked seen, so handing
        // it to a propose call that then fails would lose the transactions
        // for good. The high-QC block can genuinely be missing: votes are
        // broadcast, so a replica can certify (and adopt as high-QC) a
        // block it never received, e.g. the other half of an equivocation
        // split.
        if !self.may_propose() || !self.kernel.store().contains(self.high_qc.block_id()) {
            return None;
        }
        if now < self.pacemaker.propose_at() {
            // Ahead of the pace: leave the mempool alone (what arrives in
            // the meantime rides this block) and come back when it is due.
            self.proposal_held = true;
            return None;
        }
        let payload = self.kernel.next_payload(self.pacemaker.current_round())?;
        self.try_propose(payload)
    }

    /// Handles a round proposal. Verifies the leader signature and the
    /// structural justification, absorbs the embedded certificates (which
    /// may advance the round and commit — stragglers catch up here), and
    /// applies the voting rule: first proposal of the current round whose
    /// parent satisfies the 2-chain lock. The returned vote, if any, must
    /// be broadcast to all replicas; a returned chained proposal likewise.
    pub fn on_proposal(&mut self, proposal: &FbftProposal, now: SimTime) -> StepOutcome {
        let mut out = StepOutcome::default();
        let block = proposal.block();
        if self.kernel.admits(block)
            && proposal.verify(self.kernel.registry())
            && proposal.is_justified(&self.kernel.config())
        {
            // Absorb the embedded certificates before judging the round: a
            // replica that missed the QC or TC formation learns it from the
            // proposal itself (and an orphan's parent is already being
            // fetched by the time the block is pooled).
            out.updates = self.process_qc(proposal.qc(), now);
            if let Some(tc) = proposal.tc() {
                if self.pacemaker.on_tc_round(tc.round(), now).is_some() {
                    self.adopt_tc(tc.clone());
                }
            }
            let (round, two_chain) = (self.pacemaker.current_round(), &self.two_chain);
            let intake = self.kernel.accept_block(block, |_, block, _| {
                block.round() == round && two_chain.safe_to_vote(&block.vote_data())
            });
            self.sweep();
            out.vote = intake.vote;
            out.updates.extend(intake.updates);
        }
        self.chain_and_sync(out, now)
    }

    /// Handles a broadcast strong-vote (including this replica's own).
    /// Counts it toward certification, records its endorsements, and — when
    /// it completes a QC — advances the round, applies the 2-chain commit
    /// rule, and (if this replica leads the new round) chains the next
    /// proposal with the fresh QC riding it.
    pub fn on_vote(&mut self, vote: &StrongVote, now: SimTime) -> StepOutcome {
        let mut out = StepOutcome::default();
        let (certified, grown) = self.kernel.add_vote(vote);
        if let Some(qc) = certified {
            out.updates = self.process_qc(&qc, now);
        }
        out.updates.extend(self.kernel.grade(grown));
        self.chain_and_sync(out, now)
    }

    /// Handles a broadcast timeout message (including this replica's own).
    /// Aggregates it; at `2f + 1` the round's TC forms, the pacemaker
    /// advances, and — if this replica leads the new round — the chained
    /// proposal ships the TC.
    pub fn on_timeout_msg(&mut self, msg: &TimeoutMsg, now: SimTime) -> StepOutcome {
        // Piggybacked catch-up (DiemBFT's SyncInfo in minimal form). A TC
        // is self-certifying, so a replica stranded in an earlier round
        // because the certificate that closed it was lost jumps forward on
        // the copy riding this retransmission.
        if let Some(tc) = msg.justification() {
            if tc.signers().len() >= self.kernel.config().quorum()
                && self.pacemaker.on_tc_round(tc.round(), now).is_some()
            {
                self.adopt_tc(tc.clone());
                self.timeouts.prune_below(self.pacemaker.current_round());
            }
        }
        // A sender whose high-QC round is ahead of ours holds a
        // certificate we never formed (its votes were lost): fetch the
        // certified block — votes are broadcast, so the leading candidate
        // in our own tracker names it — and the certificate comes with it.
        if msg.high_qc_round() > self.high_qc.round() {
            if let Some(id) = self.kernel.leading_block_at(msg.high_qc_round()) {
                self.kernel.want(id, msg.high_qc_round());
            }
        }
        // Stale timeouts (for rounds this replica already left) still die
        // here; everything above was catch-up, not aggregation.
        if msg.round() >= self.pacemaker.current_round() {
            if let TimeoutOutcome::Certified(tc) = self.timeouts.add(msg) {
                if self.pacemaker.on_tc_round(tc.round(), now).is_some() {
                    self.adopt_tc(tc);
                    self.timeouts.prune_below(self.pacemaker.current_round());
                }
            }
        }
        self.chain_and_sync(StepOutcome::default(), now)
    }

    /// Handles a block-sync response: verifies it against the certificate
    /// chain, admits what attaches, re-runs certificate processing for the
    /// recovered blocks (the commits they enable land now), and — if the
    /// recovery made this replica the ready leader — chains a proposal.
    pub fn on_sync_response(&mut self, response: &BlockResponse, now: SimTime) -> StepOutcome {
        let mut out = StepOutcome::default();
        for id in self.kernel.admit_sync_response(response, now) {
            self.kernel.note_included(id);
            // The certificate that flagged the block missing can now run
            // its full course: round advancement and the 2-chain walk.
            // (`process_qc` deliberately did not cache the digest while the
            // block was absent.)
            if let Some(qc) = self.kernel.certificate_for(id).cloned() {
                out.updates.extend(self.process_qc(&qc, now));
            }
        }
        out.updates.extend(self.kernel.settle_deferred());
        self.sweep();
        self.chain_and_sync(out, now)
    }

    /// The tail of every event: one chain attempt for whatever round the
    /// event landed this replica in, and the block-sync fetches now due.
    fn chain_and_sync(&mut self, mut out: StepOutcome, now: SimTime) -> StepOutcome {
        out.next_proposal = self.try_propose_chained(now);
        out.sync_requests = self.kernel.take_sync_requests(now);
        out
    }

    /// Ages out what this replica keeps beside the kernel, when a commit
    /// moved the retention floor.
    fn sweep(&mut self) {
        if let Some(floor) = self.kernel.prune() {
            self.processed_qcs = self.processed_qcs.split_off(&(floor, HashValue::zero()));
        }
    }

    /// Signature-verification counters across vote and timeout
    /// aggregation — the evidence behind the verify-on-quorum scaling
    /// claim.
    pub fn sig_stats(&self) -> SigStats {
        let mut stats = self.kernel.sig_stats();
        stats.merge(self.timeouts.sig_stats());
        stats
    }

    /// Advances the replica's clock. If the current round's (re-armed)
    /// timer has passed, returns the timeout message to broadcast — and
    /// again one timeout span later if the round is still open, so lost
    /// timeout messages are retransmitted until the TC can form. The
    /// caller must also feed the message back via
    /// [`on_timeout_msg`](Self::on_timeout_msg) (a replica counts its own
    /// timeout; duplicates are idempotent).
    pub fn on_tick(&mut self, now: SimTime) -> Option<TimeoutMsg> {
        let round = self.pacemaker.on_tick(now)?;
        Some(
            TimeoutMsg::new(round, self.high_qc.round(), self.kernel.key_pair())
                .with_justification(self.last_tc.clone()),
        )
    }

    /// Absorbs a quorum certificate: raises the high-QC, advances the
    /// round, applies the 2-chain commit + locking rules, and grades any
    /// newly committed blocks. Returns the resulting commit-log entries.
    fn process_qc(&mut self, qc: &QuorumCertificate, now: SimTime) -> Vec<StrongCommitUpdate> {
        // A QC rides every proposal extending it, so each is re-delivered
        // round after round; all of processing below is idempotent per
        // certificate, so a digest already absorbed is skipped outright.
        let key = (qc.round(), qc.digest());
        if self.processed_qcs.contains(&key)
            || !qc.is_well_formed(&self.kernel.config())
            || self.kernel.is_stale(qc.round())
        {
            return Vec::new();
        }
        // Logged once, recorded for serving to lagging peers, and — if the
        // certified block is unknown — flagged as a fetch target.
        self.kernel.log_qc(qc);
        // Only cache the skip once the certified block is locally known:
        // with the block absent the commit walk below finds nothing, and a
        // replica that learns the block later (catch-up via a descendant
        // proposal or a block-sync response) must re-run it on the next
        // delivery or it would never finalize the chain.
        if self.kernel.store().contains(qc.block_id()) {
            self.processed_qcs.insert(key);
        }
        if qc.round() > self.high_qc.round() {
            self.high_qc = qc.clone();
        }
        if self.pacemaker.on_qc_round(qc.round(), now).is_some() {
            // Entering on the happy path: no TC to ship with our proposal.
            self.last_tc = None;
            self.timeouts.prune_below(self.pacemaker.current_round());
        }
        let Some((committed_id, _)) = self.two_chain.on_qc(qc.data()) else {
            return Vec::new();
        };
        let updates = self.kernel.commit_through(committed_id);
        self.sweep();
        updates
    }

    /// Adopts `tc` as the justification of the round it closed, logging it
    /// for crash recovery (once per round — replay only needs the jump).
    fn adopt_tc(&mut self, tc: TimeoutCertificate) {
        if self.last_tc.as_ref().map(TimeoutCertificate::round) != Some(tc.round()) {
            self.kernel.log_tc(&tc);
        }
        self.last_tc = Some(tc);
    }

    /// Re-applies one recovered WAL record at restart instant `now`.
    ///
    /// Replaying a log front to back restores exactly the promises the log
    /// recorded: `VoteSent` and `BlockCommitted` are the kernel's
    /// ([`ChainKernel::replay_vote`], [`ChainKernel::replay_block`]),
    /// `QcFormed` re-runs certificate processing (high-QC, round, 2-chain
    /// lock, commits — certified-but-unknown blocks become sync targets
    /// again), and `TcFormed` re-applies the round jump.
    ///
    /// Records the replay itself re-derives are discarded, not re-buffered:
    /// they are already in the log being replayed.
    pub fn replay(&mut self, record: &WalRecord, now: SimTime) {
        match record {
            WalRecord::VoteSent(vote) => self.kernel.replay_vote(vote),
            WalRecord::QcFormed(qc) => {
                self.process_qc(qc, now);
                self.kernel.drain_wal();
            }
            WalRecord::TcFormed(tc) => {
                if self.pacemaker.on_tc_round(tc.round(), now).is_some() {
                    self.last_tc = Some(tc.clone());
                    self.timeouts.prune_below(self.pacemaker.current_round());
                }
            }
            WalRecord::BlockCommitted(block) => {
                self.kernel.replay_block(block);
                self.sweep();
            }
        }
    }
}

impl fmt::Debug for FbftReplica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FbftReplica({} r={} qc_high={} committed={})",
            self.kernel.id(),
            self.pacemaker.current_round(),
            self.high_qc.round(),
            self.kernel.committed_chain().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_core::{Admission, Block};
    use sft_types::{EndorseInfo, Transaction};
    use std::collections::HashSet;

    fn system(n: usize) -> Vec<FbftReplica> {
        let config = ProtocolConfig::for_replicas(n);
        let registry = KeyRegistry::deterministic(n);
        (0..n as u16)
            .map(|i| {
                FbftReplica::new(
                    i,
                    config,
                    registry.clone(),
                    EndorseMode::Marker,
                    SimDuration::from_millis(400),
                    SimTime::ZERO,
                )
            })
            .collect()
    }

    /// Runs one happy-path round by hand: leader proposes, everyone votes,
    /// all votes delivered everywhere. Returns the proposal.
    fn run_round(replicas: &mut [FbftReplica], now: SimTime) -> FbftProposal {
        let round = replicas[0].current_round();
        let leader = replicas[0].kernel().config().leader(round).as_usize();
        let proposal = replicas[leader]
            .try_propose(Payload::synthetic(1, 1, round.as_u64()))
            .expect("leader proposes");
        let votes: Vec<_> = replicas
            .iter_mut()
            .filter_map(|r| r.on_proposal(&proposal, now).vote)
            .collect();
        for vote in &votes {
            for replica in replicas.iter_mut() {
                replica.on_vote(vote, now);
            }
        }
        proposal
    }

    #[test]
    fn two_chain_commits_after_two_rounds() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let p1 = run_round(&mut replicas, now);
        assert!(replicas
            .iter()
            .all(|r| r.kernel().committed_chain().is_empty()));
        let _p2 = run_round(&mut replicas, now);
        for r in &replicas {
            assert_eq!(r.kernel().committed_chain(), &[p1.block().id()]);
            assert!(!r.kernel().safety_violated());
        }
    }

    #[test]
    fn all_honest_commits_reach_the_ceiling() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let p1 = run_round(&mut replicas, now);
        run_round(&mut replicas, now);
        let cfg = replicas[0].kernel().config();
        for r in &replicas {
            assert_eq!(
                r.kernel().commit_level(p1.block().id()),
                Some(cfg.max_strength()),
                "all n votes endorse the whole chain"
            );
        }
    }

    #[test]
    fn non_leader_cannot_propose_and_leader_proposes_once() {
        let mut replicas = system(4);
        assert!(replicas[0].try_propose(Payload::empty()).is_none());
        assert!(replicas[1].try_propose(Payload::empty()).is_some());
        assert!(
            replicas[1].try_propose(Payload::empty()).is_none(),
            "propose-once per round"
        );
    }

    #[test]
    fn replica_votes_once_per_round() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let proposal = replicas[1].try_propose(Payload::empty()).unwrap();
        assert!(replicas[0].on_proposal(&proposal, now).vote.is_some());
        assert!(replicas[0].on_proposal(&proposal, now).vote.is_none());
    }

    #[test]
    fn stale_round_proposal_is_not_voted() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let proposal = replicas[1].try_propose(Payload::empty()).unwrap();
        let votes: Vec<_> = replicas
            .iter_mut()
            .filter_map(|r| r.on_proposal(&proposal, now).vote)
            .collect();
        for vote in &votes {
            for r in replicas.iter_mut() {
                r.on_vote(vote, now);
            }
        }
        assert!(replicas.iter().all(|r| r.current_round() == Round::new(2)));
        // Replaying the round-1 proposal cannot attract votes in round 2.
        assert!(replicas[2].on_proposal(&proposal, now).vote.is_none());
    }

    #[test]
    fn timeout_path_forms_tc_and_advances() {
        let mut replicas = system(4);
        // Nobody proposes in round 1; deadlines fire at 400 ms.
        let t = SimTime::from_millis(400);
        let msgs: Vec<_> = replicas.iter_mut().filter_map(|r| r.on_tick(t)).collect();
        assert_eq!(msgs.len(), 4);
        for r in replicas.iter_mut() {
            assert!(r.on_tick(t).is_none(), "timeout fires once");
        }
        for msg in &msgs {
            for r in replicas.iter_mut() {
                r.on_timeout_msg(msg, t);
            }
        }
        assert!(replicas.iter().all(|r| r.current_round() == Round::new(2)));
        // The round-2 leader now proposes on the genesis QC, shipping the TC.
        let proposal = replicas[2].try_propose(Payload::empty()).expect("leader");
        assert!(proposal.tc().is_some(), "timeout entry ships the TC");
        assert!(proposal.is_justified(&replicas[0].kernel().config()));
        let now = t;
        let votes: Vec<_> = replicas
            .iter_mut()
            .filter_map(|r| r.on_proposal(&proposal, now).vote)
            .collect();
        assert_eq!(votes.len(), 4, "round-2 proposal attracts every vote");
    }

    #[test]
    fn tc_justified_proposal_after_skipped_round_commits_later() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let p1 = run_round(&mut replicas, now); // round 1 certifies
                                                // Round 2 leader stalls: time out.
        let t = replicas[0].next_deadline();
        let msgs: Vec<_> = replicas.iter_mut().filter_map(|r| r.on_tick(t)).collect();
        for msg in &msgs {
            for r in replicas.iter_mut() {
                r.on_timeout_msg(msg, t);
            }
        }
        assert!(replicas.iter().all(|r| r.current_round() == Round::new(3)));
        // Round 3 certifies B3 on top of B1 — but (r1, r3) is not a
        // 2-chain (non-consecutive rounds), so nothing commits yet.
        let p3 = run_round(&mut replicas, t);
        assert_eq!(p3.block().parent_id(), p1.block().id());
        for r in &replicas {
            assert!(
                r.kernel().committed_chain().is_empty(),
                "a round gap breaks the 2-chain"
            );
        }
        // Round 4 closes the (r3, r4) 2-chain: the whole suffix commits.
        run_round(&mut replicas, t);
        for r in &replicas {
            assert_eq!(
                r.kernel().committed_chain(),
                &[p1.block().id(), p3.block().id()]
            );
            assert!(!r.kernel().safety_violated());
        }
    }

    #[test]
    fn equivocating_votes_are_detected() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let registry = KeyRegistry::deterministic(4);
        let proposal = replicas[1].try_propose(Payload::empty()).unwrap();
        let out = replicas[0].on_proposal(&proposal, now);
        let honest_vote = out.vote.unwrap();
        replicas[0].on_vote(&honest_vote, now);
        // Replica 3 votes for two different blocks in round 1.
        let other = Block::new(
            &Block::genesis(),
            Round::new(1),
            ReplicaId::new(1),
            Payload::synthetic(9, 9, 9),
        );
        let v1 = StrongVote::new(
            proposal.block().vote_data(),
            EndorseInfo::Marker(Round::ZERO),
            &registry.key_pair(3).unwrap(),
        );
        let v2 = StrongVote::new(
            other.vote_data(),
            EndorseInfo::Marker(Round::ZERO),
            &registry.key_pair(3).unwrap(),
        );
        replicas[0].on_vote(&v1, now);
        replicas[0].on_vote(&v2, now);
        assert_eq!(replicas[0].kernel().equivocators(), &[ReplicaId::new(3)]);
    }

    /// Regression: commits reached via a vote-completed QC must appear in
    /// the commit log exactly once per (block, level) — `process_qc`'s
    /// entries were briefly double-appended by `on_vote`.
    #[test]
    fn commit_log_has_one_entry_per_block_and_level() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        for _ in 0..4 {
            run_round(&mut replicas, now);
        }
        for r in &replicas {
            assert_eq!(
                r.kernel().committed_chain().len(),
                3,
                "4 rounds commit 3 blocks"
            );
            let mut seen = HashSet::new();
            for update in r.kernel().commit_log() {
                assert!(
                    seen.insert((update.block_id(), update.level())),
                    "duplicate commit-log entry {update:?}"
                );
            }
        }
    }

    #[test]
    fn commit_levels_are_monotone_per_block() {
        let mut replicas = system(7);
        let now = SimTime::ZERO;
        for _ in 0..5 {
            run_round(&mut replicas, now);
        }
        for r in &replicas {
            let mut best: std::collections::HashMap<HashValue, u64> = Default::default();
            for update in r.kernel().commit_log() {
                let prev = best.entry(update.block_id()).or_insert(0);
                assert!(update.level() >= *prev, "levels only climb");
                *prev = update.level();
            }
        }
    }

    /// Regression: over TCP, proposal r + 1 regularly overtakes proposal r
    /// on another connection. The overtaken replica pooled the child as an
    /// orphan and — when the parent then arrived by the normal path —
    /// never took it back out: no vote for the child, and if that replica
    /// led round r + 2 it could not propose (the high-QC block was "missing"),
    /// so the round died in a pacemaker timeout.
    #[test]
    fn orphaned_proposal_is_adopted_when_its_parent_arrives_by_the_normal_path() {
        use sft_core::PayloadSource;
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        // Replica 0 leads round 4; it is the one the network reorders.
        replicas[0]
            .kernel_mut()
            .set_payload_source(PayloadSource::Synthetic {
                txn_count: 1,
                txn_bytes: 1,
            });
        run_round(&mut replicas, now);
        assert!(replicas.iter().all(|r| r.current_round() == Round::new(2)));

        // Round 2: the proposal reaches everyone but replica 0; the votes
        // (broadcast) reach everyone, so replica 0 certifies a block it
        // has not seen and moves on to round 3.
        let p2 = replicas[2].try_propose(Payload::empty()).expect("leader");
        let votes: Vec<_> = (1..4)
            .filter_map(|i| replicas[i].on_proposal(&p2, now).vote)
            .collect();
        assert_eq!(votes.len(), 3);
        for vote in &votes {
            for replica in replicas.iter_mut() {
                replica.on_vote(vote, now);
            }
        }
        assert_eq!(replicas[0].current_round(), Round::new(3));

        // Round 3's proposal overtakes round 2's on the way to replica 0:
        // child before parent. Nothing to vote on yet.
        let p3 = replicas[3].try_propose(Payload::empty()).expect("leader");
        assert!(replicas[0].on_proposal(&p3, now).vote.is_none());
        assert!(!replicas[0].kernel().store().contains(p3.block().id()));

        // The parent lands by the normal path: the child is adopted and,
        // its round still being current, voted for in the same step.
        let out = replicas[0].on_proposal(&p2, now);
        let vote = out.vote.expect("the adopted child gets its vote");
        assert_eq!(vote.data().block_id(), p3.block().id());
        assert!(replicas[0].kernel().store().contains(p3.block().id()));
        assert_eq!(replicas[0].kernel().sync_stats().orphans_adopted, 1);

        // Everyone votes round 3; replica 0 then leads round 4 and chains
        // its proposal off the QC — no tick was ever fired.
        let mut votes: Vec<_> = (1..4)
            .filter_map(|i| replicas[i].on_proposal(&p3, now).vote)
            .collect();
        votes.push(vote);
        let proposals: Vec<_> = votes
            .iter()
            .filter_map(|vote| replicas[0].on_vote(vote, now).next_proposal)
            .collect();
        assert_eq!(proposals.len(), 1, "the next leader proposes exactly once");
        assert_eq!(proposals[0].block().round(), Round::new(4));
        assert_eq!(proposals[0].block().parent_id(), p3.block().id());
    }

    #[test]
    fn arrivals_for_pruned_rounds_are_ignored_and_resident_state_stays_bounded() {
        const HORIZON: u64 = 8;
        let mut replicas = system(4);
        for r in replicas.iter_mut() {
            r.kernel_mut().set_retention(HORIZON);
        }
        let now = SimTime::ZERO;
        let p1 = run_round(&mut replicas, now);
        let old_vote = StrongVote::new(
            p1.block().vote_data(),
            EndorseInfo::Marker(Round::ZERO),
            &KeyRegistry::deterministic(4).key_pair(3).unwrap(),
        );
        let p2 = run_round(&mut replicas, now);
        for _ in 0..60 {
            run_round(&mut replicas, now);
        }
        let r = &mut replicas[0];
        assert_eq!(
            r.kernel().committed_chain().len(),
            61,
            "the chain ids all survive"
        );
        assert!(
            !r.kernel().store().contains(p1.block().id()),
            "round 1 was pruned"
        );
        let resident = r.kernel().resident();
        assert!(
            resident.blocks <= 2 * HORIZON as usize,
            "{} blocks resident",
            resident.blocks
        );
        assert!(resident.votes <= 4 * 2 * HORIZON as usize);
        assert!(resident.certs <= 2 * HORIZON as usize);

        // A late vote, a late proposal (with the QC it carries), and a
        // sync request for the pruned rounds: all dropped, nothing grows,
        // nothing panics.
        let log_len = r.kernel().commit_log().len();
        assert!(r.on_vote(&old_vote, now).updates.is_empty());
        let out = r.on_proposal(&p2, now);
        assert!(out.vote.is_none() && out.updates.is_empty() && out.sync_requests.is_empty());
        let request = BlockRequest::new(ReplicaId::new(3), p1.block().id(), 8);
        assert!(r.kernel_mut().serve_sync(&request).is_none());
        assert_eq!(r.kernel().resident(), resident);
        assert_eq!(r.kernel().commit_log().len(), log_len);
        assert!(
            !r.kernel().is_syncing(),
            "a stale certificate is not a fetch target"
        );
        assert_eq!(r.kernel().commit_level(p1.block().id()), None, "aged out");
    }

    #[test]
    fn chained_propose_on_unknown_high_qc_keeps_the_mempool_intact() {
        use sft_core::PayloadSource;
        use sft_types::BatchConfig;
        // Replica 2 will lead round 2 but never receives the round-1
        // proposal (e.g. it sits in the losing half of an equivocation
        // split). Votes are broadcast, so it still certifies the unknown
        // block and adopts it as high-QC — and must then decline to chain
        // a proposal *without* draining (and losing) a mempool batch.
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        replicas[2]
            .kernel_mut()
            .set_payload_source(PayloadSource::Mempool(BatchConfig::with_max_txns(8)));
        for seq in 0..8 {
            assert_eq!(
                replicas[2]
                    .kernel_mut()
                    .submit(Transaction::new(5, seq, vec![0; 8])),
                Admission::Admitted
            );
        }
        let proposal = replicas[1].try_propose(Payload::empty()).expect("leader");
        let votes: Vec<_> = [0usize, 1, 3]
            .into_iter()
            .filter_map(|i| replicas[i].on_proposal(&proposal, now).vote)
            .collect();
        assert_eq!(votes.len(), 3, "a full quorum votes");
        let before = replicas[2].kernel().mempool().len();
        for vote in &votes {
            let out = replicas[2].on_vote(vote, now);
            assert!(
                out.next_proposal.is_none(),
                "cannot propose on an unknown high-QC parent"
            );
        }
        assert_eq!(
            replicas[2].current_round(),
            Round::new(2),
            "the QC still advanced the round"
        );
        assert_eq!(
            replicas[2].kernel().mempool().len(),
            before,
            "no batch was drained into the failed propose"
        );
    }

    #[test]
    fn a_paced_leader_holds_its_proposal_until_it_is_due_and_drains_nothing_before() {
        use sft_core::PayloadSource;
        use sft_types::BatchConfig;
        // One round per 10 ms with no burst allowance: replica 2 becomes
        // the leader of round 2 the instant round 1 certifies (t = 1 ms),
        // and round 2 is due one interval after that.
        let mut replicas = system(4);
        replicas[2]
            .kernel_mut()
            .set_payload_source(PayloadSource::Mempool(BatchConfig::with_max_txns(8)));
        replicas[2].set_round_pace(SimDuration::from_millis(10), 0);
        replicas[2]
            .kernel_mut()
            .submit(Transaction::new(5, 0, vec![0; 8]));

        let now = SimTime::from_millis(1);
        let proposal = replicas[1].try_propose(Payload::empty()).expect("leader");
        let votes: Vec<_> = replicas
            .iter_mut()
            .filter_map(|r| r.on_proposal(&proposal, now).vote)
            .collect();
        for vote in &votes {
            let out = replicas[2].on_vote(vote, now);
            assert!(out.next_proposal.is_none(), "ahead of the pace");
        }
        assert_eq!(replicas[2].current_round(), Round::new(2));
        assert!(replicas[2].proposal_held());
        let due = SimTime::from_millis(11);
        assert_eq!(replicas[2].next_deadline(), due, "wake me when it is due");
        assert_eq!(
            replicas[2].kernel().mempool().len(),
            1,
            "nothing drained yet"
        );

        // A transaction that arrives while the proposal waits rides it.
        replicas[2]
            .kernel_mut()
            .submit(Transaction::new(5, 1, vec![0; 8]));
        assert!(replicas[2]
            .try_propose_chained(SimTime::from_millis(10))
            .is_none());
        let sent = replicas[2].try_propose_chained(due).expect("due now");
        assert_eq!(sent.block().round(), Round::new(2));
        assert_eq!(sent.block().payload().txn_count(), 2);
        assert!(!replicas[2].proposal_held());
        assert_eq!(
            replicas[2].next_deadline(),
            replicas[2].pacemaker().deadline(),
            "back to the round timer"
        );
    }
}
