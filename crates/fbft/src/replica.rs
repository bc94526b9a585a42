//! The SFT-DiemBFT replica state machine.

use std::collections::BTreeSet;
use std::fmt;

use sft_core::{
    ChainKernel, Outcome, ProtocolConfig, QuorumCertificate, ReplicaRules, Route,
    TimeoutAggregator, TimeoutOutcome, WalRecord,
};
use sft_crypto::{HashValue, KeyRegistry, SigStats};
use sft_types::{
    EndorseMode, Payload, Round, SimDuration, SimTime, StrongCommitUpdate, StrongVote,
    TimeoutCertificate, TimeoutMsg,
};

pub use sft_core::BlockResponse;

use crate::message::{FbftMessage, FbftProposal};
use crate::pacemaker::Pacemaker;
use crate::two_chain::TwoChainState;

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
///    attaching §3.2/§3.4 endorsement info, and sends the strong-vote to
///    the leader of `r + 1` ([`FbftReplica::on_proposal`]);
/// 3. that leader collects the votes ([`FbftReplica::on_vote`]); once
///    `2f + 1` are in, it forms the QC at the end of the instant, carrying
///    every vote it holds as a member, advances, applies the 2-chain commit
///    rule, and proposes on the QC ([`FbftReplica::on_due`]) — or, while
///    the round pace holds the proposal, broadcasts the QC on its own;
/// 4. every other replica learns the QC from that proposal or broadcast
///    ([`FbftReplica::on_certificate`]), checks its members, and advances
///    and commits the same way;
/// 5. if a round's deadline passes uncertified, replicas broadcast timeout
///    messages, each with the sender's high QC beside it
///    ([`FbftReplica::on_tick`]), and their vote for the round
///    ([`FbftReplica::timeout_vote`]) so any replica can still certify it;
///    `2f + 1` timeouts form a TC that advances the round without a QC
///    ([`FbftReplica::on_timeout_msg`]);
/// 6. the strong-votes the certificates carry grade every commit with the
///    strength `x = q − f − 1` of Definition 1, reported as
///    [`StrongCommitUpdate`]s in the kernel's commit log.
///
/// # Examples
///
/// Driving one happy-path round of a 4-replica system by hand:
///
/// ```
/// use sft_core::{ProtocolConfig, ReplicaRules};
/// use sft_crypto::KeyRegistry;
/// use sft_fbft::{FbftMessage, FbftReplica};
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
/// // The votes go to round 2's leader, which forms the QC when the
/// // instant ends. It has no payloads to propose, so the QC goes out bare.
/// for vote in &votes {
///     replicas[2].on_vote(vote, now);
/// }
/// let Some(FbftMessage::Certificate(qc)) = replicas[2].on_due(now).certificate else {
///     panic!("the QC formed");
/// };
/// assert_eq!(qc.signers().len(), 4, "every vote rides the certificate");
/// for replica in replicas.iter_mut() {
///     replica.on_certificate(&qc, now);
/// }
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
    /// The last strong-vote this replica cast (or replayed): broadcast
    /// again when its round times out, so a round whose next leader is
    /// down still certifies.
    last_vote: Option<StrongVote>,
    /// A chained proposal is ready but ahead of the round pace: the
    /// replica's deadline is the instant it comes due.
    proposal_held: bool,
    /// A quorum this replica completed as the next leader, and the instant
    /// it completed: the certificate forms when that instant's deadline
    /// fires ([`on_due`](Self::on_due)), after every vote delivered in it.
    quorum_due: Option<(HashValue, SimTime)>,
    /// Certificates already absorbed, by (round, digest) — re-deliveries (a
    /// QC rides every proposal that extends it) skip the pacemaker/commit
    /// walk. Not the kernel's logged set: this one deliberately re-processes
    /// a QC while its block is absent.
    processed_qcs: BTreeSet<(Round, HashValue)>,
    /// The round-1 bootstrap proposal went out (see
    /// [`ReplicaRules::tick`]).
    booted: bool,
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
        let mut replica = Self {
            kernel,
            timeouts: TimeoutAggregator::new(config.n(), config.quorum(), registry),
            two_chain: TwoChainState::new(),
            pacemaker: Pacemaker::new(base_timeout, now),
            high_qc: QuorumCertificate::genesis(config.n()),
            last_tc: None,
            last_proposed_round: Round::ZERO,
            last_vote: None,
            proposal_held: false,
            quorum_due: None,
            processed_qcs: BTreeSet::new(),
            booted: false,
        };
        replica.entered_round();
        replica
    }

    /// Paces this replica's rounds: at most one per `interval` once `burst`
    /// rounds have gone through unpaced (see [`Pacemaker::set_pace`]). What
    /// a replica on a wall clock runs with; virtual-time runs leave it off.
    pub fn set_round_pace(&mut self, interval: SimDuration, burst: u64) {
        self.pacemaker.set_pace(interval, burst);
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

    /// The next instant this replica wants [`on_due`](Self::on_due) and
    /// [`on_tick`](Self::on_tick): its round timer (the round deadline, or
    /// the next timeout retransmission once it has fired — the timer is
    /// always armed), or sooner when a quorum it completed waits for the
    /// end of its instant or a proposal waits for the round pace.
    pub fn next_deadline(&self) -> SimTime {
        let mut at = self.pacemaker.deadline();
        if self.proposal_held {
            at = at.min(self.pacemaker.propose_at());
        }
        if let Some((_, completed)) = self.quorum_due {
            at = at.min(completed);
        }
        at
    }

    /// True while a chained proposal waits for the round pace; the caller
    /// retries it through [`on_due`](Self::on_due) at
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
    /// round 1. A proposal the round pace held back
    /// ([`proposal_held`](Self::proposal_held)) goes out from
    /// [`on_due`](Self::on_due) when it comes due.
    pub fn try_propose_chained(&mut self, now: SimTime) -> Option<FbftProposal> {
        if !self.kernel.sources_payloads() {
            return None;
        }
        self.proposal_held = false;
        // Every failure mode of `try_propose` must be ruled out *before*
        // draining the mempool — a drained batch is marked seen, so handing
        // it to a propose call that then fails would lose the transactions
        // for good. The high-QC block can genuinely be missing: a replica
        // can learn (and adopt as high-QC) a certificate for a block it
        // never received, e.g. the other half of an equivocation split.
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

    /// Fires what is due at `now` besides the round timer: a quorum this
    /// replica completed as leader, and a proposal the round pace held.
    ///
    /// A completed quorum's certificate forms here, at the end of the
    /// instant its quorum completed, so every vote delivered in that
    /// instant rides it as a member. It is absorbed like any received
    /// certificate, and the next proposal chains on it; if no proposal goes
    /// out now, [`Outcome::certificate`] hands it back for a bare
    /// broadcast. A held proposal, when it comes due, first re-forms its
    /// certificate from every vote collected since, so votes that missed
    /// the broadcast still ride the proposal.
    pub fn on_due(&mut self, now: SimTime) -> Outcome<FbftMessage> {
        let mut out = Outcome::default();
        if let Some((block_id, _)) = self.quorum_due.filter(|(_, at)| *at <= now) {
            self.quorum_due = None;
            let formed = self.kernel.form_qc(block_id);
            if let Some((qc, updates)) = formed.and_then(|qc| {
                let updates = self.absorb_qc(&qc, now)?;
                Some((qc, updates))
            }) {
                out.updates = updates;
                out.proposal = self.try_propose_chained(now).map(FbftMessage::Proposal);
                let leads_next = self.kernel.config().leader(qc.round().next()) == self.kernel.id();
                if out.proposal.is_none() && leads_next {
                    out.certificate = Some(FbftMessage::Certificate(qc));
                }
            }
        } else if self.proposal_held {
            if self.may_propose() && now >= self.pacemaker.propose_at() {
                out.updates = self.refill_high_qc(now);
            }
            out.proposal = self.try_propose_chained(now).map(FbftMessage::Proposal);
        }
        out.sync_requests = self.kernel.take_sync_requests(now);
        out
    }

    /// Swaps the high QC for one carrying every vote held for its block,
    /// if that adds members, and returns the strength grades they raise.
    fn refill_high_qc(&mut self, now: SimTime) -> Vec<StrongCommitUpdate> {
        let Some(fuller) = self
            .kernel
            .form_qc(self.high_qc.block_id())
            .filter(|qc| qc.signers().len() > self.high_qc.signers().len())
        else {
            return Vec::new();
        };
        let Some(updates) = self.absorb_qc(&fuller, now) else {
            return Vec::new();
        };
        self.high_qc = fuller;
        updates
    }

    /// Handles a round proposal. Verifies the leader signature and the
    /// structural justification, admits the embedded certificate (its
    /// members are checked and credited; it may advance the round and
    /// commit — stragglers catch up here), and applies the voting rule:
    /// first proposal of the current round whose parent satisfies the
    /// 2-chain lock. The returned vote, if any, goes to the next round's
    /// leader; a returned chained proposal is broadcast.
    pub fn on_proposal(&mut self, proposal: &FbftProposal, now: SimTime) -> Outcome<FbftMessage> {
        let mut out = Outcome::default();
        let block = proposal.block();
        if self.kernel.admits(block)
            && proposal.verify(self.kernel.registry())
            && proposal.is_justified(&self.kernel.config())
        {
            // Absorb the embedded certificates before judging the round: a
            // replica that missed the QC or TC formation learns it from the
            // proposal itself (and an orphan's parent is already being
            // fetched by the time the block is pooled). A certificate whose
            // members do not check out sinks the proposal.
            let Some(updates) = self.absorb_qc(proposal.qc(), now) else {
                return self.chain_and_sync(out, now);
            };
            out.updates = updates;
            if let Some(tc) = proposal.tc().filter(|tc| self.in_window(tc)) {
                if self.pacemaker.on_tc_round(tc.round(), now).is_some() {
                    self.adopt_tc(tc.clone());
                    self.entered_round();
                }
            }
            let (round, two_chain) = (self.pacemaker.current_round(), &self.two_chain);
            let intake = self.kernel.accept_block(block, |_, block, _| {
                block.round() == round && two_chain.safe_to_vote(&block.vote_data())
            });
            self.sweep();
            if intake.vote.is_some() {
                self.last_vote.clone_from(&intake.vote);
            }
            out.vote = intake.vote;
            out.updates.extend(intake.updates);
        }
        self.chain_and_sync(out, now)
    }

    /// Handles a strong-vote: one addressed to this replica as the leader
    /// of the round after the vote's, or one a replica broadcast when that
    /// round timed out ([`timeout_vote`](Self::timeout_vote)). Counts it
    /// toward the certificate this replica will form; when it completes the
    /// quorum, the certificate is due at the end of the instant
    /// ([`on_due`](Self::on_due)). A vote for a round this replica already
    /// holds a certificate of is ignored — the next leader still counts its
    /// round's stragglers, which ride the QC when a paced proposal comes
    /// due.
    pub fn on_vote(&mut self, vote: &StrongVote, now: SimTime) -> Outcome<FbftMessage> {
        let leads_next = self.kernel.config().leader(vote.round().next()) == self.kernel.id();
        let high = self.high_qc.round();
        if vote.round() > high || (leads_next && vote.round() == high) {
            if let Some(block_id) = self.kernel.collect_vote(vote) {
                self.quorum_due = Some((block_id, now));
            }
        }
        Outcome::default()
    }

    /// Handles a leader's bare certificate: admitted and absorbed like the
    /// one a proposal carries.
    pub fn on_certificate(&mut self, qc: &QuorumCertificate, now: SimTime) -> Outcome<FbftMessage> {
        let out = Outcome {
            updates: self.absorb_qc(qc, now).unwrap_or_default(),
            ..Outcome::default()
        };
        self.chain_and_sync(out, now)
    }

    /// Handles a broadcast timeout message (including this replica's own)
    /// and the sender's high QC that rides beside it. Aggregates the
    /// timeout; at `2f + 1` the round's TC forms, the pacemaker advances,
    /// and — if this replica leads the new round — the chained proposal
    /// ships the TC.
    pub fn on_timeout_msg(
        &mut self,
        msg: &TimeoutMsg,
        high_qc: &QuorumCertificate,
        now: SimTime,
    ) -> Outcome<FbftMessage> {
        let mut out = Outcome::default();
        // Piggybacked catch-up (DiemBFT's SyncInfo). A sender whose high
        // QC is ahead of ours holds a certificate we never received: adopt
        // it (its block, if unknown, becomes a fetch target).
        if high_qc.round() > self.high_qc.round() {
            out.updates = self.absorb_qc(high_qc, now).unwrap_or_default();
        }
        // A TC is self-certifying, so a replica stranded in an earlier
        // round because the certificate that closed it was lost jumps
        // forward on the copy riding this retransmission.
        if let Some(tc) = msg.justification().filter(|tc| self.in_window(tc)) {
            if tc.signers().len() >= self.kernel.config().quorum()
                && self.pacemaker.on_tc_round(tc.round(), now).is_some()
            {
                self.adopt_tc(tc.clone());
                self.entered_round();
            }
        }
        // Stale timeouts (for rounds this replica already left) still die
        // here; everything above was catch-up, not aggregation.
        if msg.round() >= self.pacemaker.current_round() {
            if let TimeoutOutcome::Certified(tc) = self.timeouts.add(msg) {
                if self.pacemaker.on_tc_round(tc.round(), now).is_some() {
                    self.adopt_tc(tc);
                    self.entered_round();
                }
            }
        }
        self.chain_and_sync(out, now)
    }

    /// Handles a block-sync response: admits its certificate (whose members
    /// must verify before any block is taken in), admits what attaches,
    /// re-runs certificate processing for the recovered blocks (the commits
    /// they enable land now), and — if the recovery made this replica the
    /// ready leader — chains a proposal.
    pub fn on_sync_response(
        &mut self,
        response: &BlockResponse,
        now: SimTime,
    ) -> Outcome<FbftMessage> {
        let mut out = Outcome::default();
        let Some(grown) = self.kernel.admit_qc(response.qc()) else {
            return self.chain_and_sync(out, now);
        };
        for id in self.kernel.admit_sync_response(response, now) {
            self.kernel.note_included(id);
            // The certificate that flagged the block missing can now run
            // its full course: member credit, round advancement and the
            // 2-chain walk. (`process_qc` deliberately did not cache the
            // digest while the block was absent.)
            if let Some(qc) = self.kernel.certificate_for(id).cloned() {
                out.updates
                    .extend(self.absorb_qc(&qc, now).unwrap_or_default());
            }
        }
        out.updates.extend(self.kernel.settle_deferred());
        out.updates.extend(self.kernel.grade(grown));
        self.sweep();
        self.chain_and_sync(out, now)
    }

    /// The tail of every event: one chain attempt for whatever round the
    /// event landed this replica in, and the block-sync fetches now due.
    /// Chaining the proposal off the event that creates the certificate is
    /// what pipelines rounds: the QC never waits for an external poll
    /// before riding the next proposal.
    fn chain_and_sync(
        &mut self,
        mut out: Outcome<FbftMessage>,
        now: SimTime,
    ) -> Outcome<FbftMessage> {
        out.proposal = self.try_propose_chained(now).map(FbftMessage::Proposal);
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

    /// Advances the replica's clock. If the current round's (re-armed)
    /// timer has passed, returns the timeout message to broadcast (with
    /// [`high_qc`](Self::high_qc) beside it) — and again one timeout span
    /// later if the round is still open, so lost timeout messages are
    /// retransmitted until the TC can form. The caller must also feed the
    /// message back via [`on_timeout_msg`](Self::on_timeout_msg) (a replica
    /// counts its own timeout; duplicates are idempotent).
    pub fn on_tick(&mut self, now: SimTime) -> Option<TimeoutMsg> {
        let round = self.pacemaker.on_tick(now)?;
        Some(
            TimeoutMsg::new(round, self.high_qc.round(), self.kernel.key_pair())
                .with_justification(self.last_tc.clone()),
        )
    }

    /// The vote to broadcast beside this replica's timeout for `round`: the
    /// one it cast in that round, if any. Its next leader may be down, and
    /// with the vote every replica can still certify the round (LibraBFT's
    /// timeout votes), so a block whose votes went to a crashed leader is
    /// not lost.
    pub fn timeout_vote(&self, round: Round) -> Option<&StrongVote> {
        self.last_vote.as_ref().filter(|vote| vote.round() == round)
    }

    /// The one way a certificate enters: the kernel admits it (checks the
    /// members it does not hold yet and credits their endorsements), then
    /// [`process_qc`](Self::process_qc) applies it, then the strength
    /// grades it raised are reported. `None` if the kernel rejects it.
    fn absorb_qc(
        &mut self,
        qc: &QuorumCertificate,
        now: SimTime,
    ) -> Option<Vec<StrongCommitUpdate>> {
        // A QC rides every proposal extending it, so each is re-delivered
        // round after round; all of processing below is idempotent per
        // certificate, so a digest already absorbed is skipped outright.
        if self.processed_qcs.contains(&(qc.round(), qc.digest())) {
            return Some(Vec::new());
        }
        if self.kernel.is_stale(qc.round()) {
            return None;
        }
        let grown = self.kernel.admit_qc(qc)?;
        let mut updates = self.process_qc(qc, now);
        updates.extend(self.kernel.grade(grown));
        Some(updates)
    }

    /// Applies an admitted quorum certificate: raises the high-QC, advances
    /// the round, applies the 2-chain commit + locking rules, and grades
    /// any newly committed blocks. Returns the resulting commit-log entries.
    fn process_qc(&mut self, qc: &QuorumCertificate, now: SimTime) -> Vec<StrongCommitUpdate> {
        // Logged once, recorded for serving to lagging peers, and — if the
        // certified block is unknown — flagged as a fetch target.
        self.kernel.log_qc(qc);
        // Only cache the skip once the certified block is locally known:
        // with the block absent the commit walk below finds nothing, and a
        // replica that learns the block later (catch-up via a descendant
        // proposal or a block-sync response) must re-run it on the next
        // delivery or it would never finalize the chain.
        if self.kernel.store().contains(qc.block_id()) {
            self.processed_qcs.insert((qc.round(), qc.digest()));
        }
        if qc.round() > self.high_qc.round() {
            self.high_qc = qc.clone();
        }
        if self.pacemaker.on_qc_round(qc.round(), now).is_some() {
            // Entering on the happy path: no TC to ship with our proposal.
            self.last_tc = None;
            self.entered_round();
        }
        let Some((committed_id, _)) = self.two_chain.on_qc(qc.data()) else {
            return Vec::new();
        };
        let updates = self.kernel.commit_through(committed_id);
        self.sweep();
        updates
    }

    /// Follows the pacemaker into the round it just entered: timeouts of
    /// earlier rounds are dropped, and votes and timeouts are let in up to
    /// [`RETENTION_ROUNDS`](sft_core::RETENTION_ROUNDS) past it.
    fn entered_round(&mut self) {
        let round = self.pacemaker.current_round();
        self.timeouts.enter_round(round);
        self.kernel.enter_round(round);
    }

    /// True if `tc` from the wire closes a round at most
    /// [`RETENTION_ROUNDS`](sft_core::RETENTION_ROUNDS) past the current
    /// one — the window votes and timeouts are let in by. A certificate
    /// carries no signatures, only its signers, so one further out is
    /// ignored rather than trusted to jump the round. Replay from the log
    /// does not ask: what the log holds was adopted once.
    fn in_window(&self, tc: &TimeoutCertificate) -> bool {
        let current = self.pacemaker.current_round().as_u64();
        tc.round().as_u64() <= current.saturating_add(sft_core::RETENTION_ROUNDS)
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
    /// `QcFormed` re-enters through the certificate intake (high-QC, round,
    /// 2-chain lock, commits — certified-but-unknown blocks become sync
    /// targets again), and `TcFormed` re-applies the round jump.
    ///
    /// Records the replay itself re-derives are discarded, not re-buffered:
    /// they are already in the log being replayed.
    pub fn replay(&mut self, record: &WalRecord, now: SimTime) {
        match record {
            WalRecord::VoteSent(vote) => {
                self.kernel.replay_vote(vote);
                self.last_vote = Some(vote.clone());
            }
            WalRecord::QcFormed(qc) => {
                self.absorb_qc(qc, now);
                self.kernel.drain_wal();
            }
            WalRecord::TcFormed(tc) => {
                if self.pacemaker.on_tc_round(tc.round(), now).is_some() {
                    self.last_tc = Some(tc.clone());
                    self.entered_round();
                }
            }
            WalRecord::BlockCommitted(block) => {
                self.kernel.replay_block(block);
                self.sweep();
            }
        }
    }
}

/// SFT-DiemBFT on a transport ([`FbftEngine`](crate::FbftEngine); see
/// [`crate::engine`]).
impl ReplicaRules for FbftReplica {
    type Message = FbftMessage;

    /// The replica's protocol-agnostic state: store, commit log, mempool,
    /// sync and every gauge.
    fn kernel(&self) -> &ChainKernel {
        &self.kernel
    }

    fn kernel_mut(&mut self) -> &mut ChainKernel {
        &mut self.kernel
    }

    fn into_kernel(self) -> ChainKernel {
        self.kernel
    }

    fn round(&self) -> Round {
        self.current_round()
    }

    /// `SimTime::ZERO` until the first tick: the round-1 proposal is the
    /// only event nothing precedes.
    fn deadline(&self) -> Option<SimTime> {
        Some(if self.booted {
            self.next_deadline()
        } else {
            SimTime::ZERO
        })
    }

    /// The bootstrap proposal on the first tick, [`on_due`](Self::on_due)
    /// after; then the round timer. A timeout goes out after the round's
    /// vote, so a receiver counts the vote before the timeouts can move it
    /// past the round.
    fn tick(&mut self, now: SimTime) -> Outcome<FbftMessage> {
        let mut out = if self.booted {
            self.on_due(now)
        } else {
            self.booted = true;
            Outcome {
                proposal: self.try_propose_chained(now).map(FbftMessage::Proposal),
                ..Outcome::default()
            }
        };
        if let Some(msg) = self.on_tick(now) {
            let vote = self.timeout_vote(msg.round()).cloned();
            out.timeout_vote = vote.map(FbftMessage::Vote);
            let high_qc = self.high_qc.clone();
            out.timeout = Some(FbftMessage::Timeout { msg, high_qc });
        }
        out
    }

    fn handle(&mut self, msg: FbftMessage, now: SimTime) -> Outcome<FbftMessage> {
        match msg {
            FbftMessage::Proposal(proposal) => self.on_proposal(&proposal, now),
            FbftMessage::Vote(vote) => self.on_vote(&vote, now),
            FbftMessage::Timeout { msg, high_qc } => self.on_timeout_msg(&msg, &high_qc, now),
            FbftMessage::Certificate(qc) => self.on_certificate(&qc, now),
            FbftMessage::SyncResponse(response) => self.on_sync_response(&response, now),
            FbftMessage::SyncRequest(_) => Outcome::default(), // the engine serves it
        }
    }

    fn vote_route(&self, vote: &StrongVote) -> Route {
        Route::To(self.kernel.config().leader(vote.round().next()))
    }

    fn restore(&mut self, record: &WalRecord, now: SimTime) {
        self.replay(record, now);
    }

    /// Across vote and timeout aggregation and certificate intake.
    fn sig_stats(&self) -> SigStats {
        let mut stats = self.kernel.sig_stats();
        stats.merge(self.timeouts.sig_stats());
        stats
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
    use sft_crypto::{IdMap, IdState, Signature};
    use sft_types::{BlockRequest, EndorseInfo, ReplicaId, SignerSet, Transaction, VoteData};
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

    /// Delivers `votes` (all for one round) to the next round's leader,
    /// closes its quorum, and hands the certificate it broadcasts bare to
    /// everyone else. Returns the certificate.
    fn certify(
        replicas: &mut [FbftReplica],
        votes: &[StrongVote],
        now: SimTime,
    ) -> QuorumCertificate {
        let round = votes[0].round();
        let next = replicas[0]
            .kernel()
            .config()
            .leader(round.next())
            .as_usize();
        for vote in votes {
            replicas[next].on_vote(vote, now);
        }
        let Some(FbftMessage::Certificate(qc)) = replicas[next].on_due(now).certificate else {
            panic!("a leader without payloads forwards its certificate");
        };
        for (i, replica) in replicas.iter_mut().enumerate() {
            if i != next {
                replica.on_certificate(&qc, now);
            }
        }
        qc
    }

    /// Runs one happy-path round by hand: leader proposes, everyone votes,
    /// the votes certify at the next leader and its certificate reaches
    /// everyone. Returns the proposal.
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
        certify(replicas, &votes, now);
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
        certify(&mut replicas, &votes, now);
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
        let genesis = QuorumCertificate::genesis(4);
        for msg in &msgs {
            for r in replicas.iter_mut() {
                r.on_timeout_msg(msg, &genesis, t);
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

    /// Round 1's votes go to replica 2, which is down. When the round times
    /// out, the others broadcast their round-1 votes beside their timeouts,
    /// and each of them certifies round 1 itself: the block is not lost.
    #[test]
    fn a_round_whose_next_leader_is_down_certifies_from_timeout_votes() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let proposal = replicas[1].try_propose(Payload::empty()).unwrap();
        let live = [0usize, 1, 3];
        for &i in &live {
            let vote = replicas[i].on_proposal(&proposal, now).vote;
            assert!(vote.is_some(), "replica {i} votes");
        }
        let t = replicas[0].next_deadline();
        let mut votes = Vec::new();
        for &i in &live {
            let msg = replicas[i].on_tick(t).expect("round 1 times out");
            let vote = replicas[i]
                .timeout_vote(msg.round())
                .expect("it voted in round 1");
            votes.push(vote.clone());
        }
        for &i in &live {
            for vote in &votes {
                replicas[i].on_vote(vote, t);
            }
            let out = replicas[i].on_due(t);
            assert!(out.certificate.is_none(), "only round 2's leader forwards");
            assert_eq!(replicas[i].high_qc().block_id(), proposal.block().id());
            assert_eq!(replicas[i].current_round(), Round::new(2));
        }
        assert!(
            replicas[0].timeout_vote(Round::new(2)).is_none(),
            "no vote in round 2 to repeat"
        );
    }

    #[test]
    fn tc_justified_proposal_after_skipped_round_commits_later() {
        let mut replicas = system(4);
        let now = SimTime::ZERO;
        let p1 = run_round(&mut replicas, now); // round 1 certifies
                                                // Round 2 leader stalls: time out.
        let t = replicas[0].next_deadline();
        let msgs: Vec<_> = replicas.iter_mut().filter_map(|r| r.on_tick(t)).collect();
        let genesis = QuorumCertificate::genesis(4);
        for msg in &msgs {
            for r in replicas.iter_mut() {
                r.on_timeout_msg(msg, &genesis, t);
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
        // Round-1 votes go to replica 2, round 2's leader, which catches
        // the equivocator.
        replicas[2].on_vote(&honest_vote, now);
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
        replicas[2].on_vote(&v1, now);
        replicas[2].on_vote(&v2, now);
        assert_eq!(replicas[2].kernel().equivocators(), &[ReplicaId::new(3)]);
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
            let mut seen = HashSet::with_hasher(IdState::default());
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
            let mut best: IdMap<u64> = Default::default();
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

        // Round 2: the proposal reaches everyone but replica 0; round 3's
        // leader forwards the certificate to everyone, so replica 0
        // certifies a block it has not seen and moves on to round 3.
        let p2 = replicas[2].try_propose(Payload::empty()).expect("leader");
        let votes: Vec<_> = (1..4)
            .filter_map(|i| replicas[i].on_proposal(&p2, now).vote)
            .collect();
        assert_eq!(votes.len(), 3);
        certify(&mut replicas, &votes, now);
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

        // Everyone votes round 3 to replica 0, round 4's leader, which
        // chains its proposal off the QC when the instant's votes are in.
        let mut votes: Vec<_> = (1..4)
            .filter_map(|i| replicas[i].on_proposal(&p3, now).vote)
            .collect();
        votes.push(vote);
        for vote in &votes {
            let out = replicas[0].on_vote(vote, now);
            assert!(out.proposal.is_none(), "the QC waits for the instant");
        }
        assert_eq!(replicas[0].next_deadline(), now, "due at once");
        let out = replicas[0].on_due(now);
        let Some(FbftMessage::Proposal(proposal)) = out.proposal else {
            panic!("the next leader proposes");
        };
        assert!(out.certificate.is_none(), "the proposal carries the QC");
        assert_eq!(proposal.block().round(), Round::new(4));
        assert_eq!(proposal.block().parent_id(), p3.block().id());
        assert_eq!(proposal.qc().signers().len(), 4, "every vote rides it");
        assert!(replicas[0].on_due(now).proposal.is_none(), "once");
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
        // split). The votes come to it, so it still certifies the unknown
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
            replicas[2].on_vote(vote, now);
        }
        let out = replicas[2].on_due(now);
        assert!(
            out.proposal.is_none(),
            "cannot propose on an unknown high-QC parent"
        );
        assert!(out.certificate.is_some(), "the QC goes out bare instead");
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
            replicas[2].on_vote(vote, now);
        }
        let out = replicas[2].on_due(now);
        assert!(out.proposal.is_none(), "ahead of the pace");
        let Some(FbftMessage::Certificate(qc)) = out.certificate else {
            panic!("the QC goes out bare while the proposal waits");
        };
        assert_eq!(qc.signers().len(), 4);
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

    #[test]
    fn votes_far_past_the_round_are_refused() {
        let mut replicas = system(4);
        let registry = KeyRegistry::deterministic(4);
        let now = SimTime::ZERO;
        let vote_for = |round: u64| {
            let data = VoteData::new(
                HashValue::of(&round.to_be_bytes()),
                Round::new(round),
                HashValue::zero(),
                Round::ZERO,
            );
            StrongVote::new(data, EndorseInfo::None, &registry.key_pair(1).unwrap())
        };
        let r = &mut replicas[0];
        let edge = r.current_round().as_u64() + sft_core::RETENTION_ROUNDS;
        r.on_vote(&vote_for(edge + 1), now);
        assert_eq!(r.kernel().resident().votes, 0);
        r.on_vote(&vote_for(edge), now);
        assert!(r.kernel().resident().votes > 0);
    }

    #[test]
    fn timeout_certificates_far_past_the_round_are_ignored() {
        let registry = KeyRegistry::deterministic(4);
        let config = ProtocolConfig::for_replicas(4);
        let everyone = SignerSet::from_iter_with_capacity(4, (0..4).map(ReplicaId::new));
        let genesis_qc = QuorumCertificate::genesis(4);
        let now = SimTime::ZERO;
        let edge = 1 + sft_core::RETENTION_ROUNDS;
        for far in [edge + 1, 1_000_000, u64::MAX] {
            let tc = TimeoutCertificate::new(Round::new(far), Round::ZERO, everyone.clone());
            let mut replicas = system(4);
            let r = &mut replicas[2];
            // Riding an unsigned timeout message.
            let unsigned = TimeoutMsg::from_parts(
                Round::new(1),
                Round::ZERO,
                ReplicaId::new(1),
                Signature::from_tag(1, [0; 32]),
            )
            .with_justification(Some(tc.clone()));
            assert!(!unsigned.verify(&registry));
            r.on_timeout_msg(&unsigned, &genesis_qc, now);
            assert_eq!(r.current_round(), Round::new(1), "TC for round {far}");
            // Inside a proposal that is otherwise well formed.
            let round = Round::new(far.saturating_add(1));
            let leader = config.leader(round);
            let block = Block::new(&Block::genesis(), round, leader, Payload::empty());
            let key = registry.key_pair(leader.as_u64()).unwrap();
            let proposal = FbftProposal::new(block, genesis_qc.clone(), Some(tc), &key);
            assert!(r.on_proposal(&proposal, now).vote.is_none());
            assert_eq!(r.current_round(), Round::new(1), "TC for round {far}");
        }
        // The edge of the window is still in it.
        let tc = TimeoutCertificate::new(Round::new(edge), Round::ZERO, everyone);
        let mut replicas = system(4);
        let msg = TimeoutMsg::new(Round::new(1), Round::ZERO, &registry.key_pair(1).unwrap());
        replicas[2].on_timeout_msg(&msg.with_justification(Some(tc)), &genesis_qc, now);
        assert_eq!(replicas[2].current_round(), Round::new(edge + 1));
    }
}
