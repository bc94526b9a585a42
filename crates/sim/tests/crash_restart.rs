//! In-process crash/restart recovery: a replica is killed mid-run (its
//! engine dropped, exactly what `kill -9` does to a process's memory),
//! rebuilt from nothing, and fed its write-ahead log through the real
//! frame codec before rejoining. The suite proves the two halves of the
//! recovery contract on both protocols and both `f ∈ {1, 2}` system
//! sizes:
//!
//! - **parity** — the restarted replica's committed chain stays a prefix
//!   of the others' and grows past its pre-crash length (it recovers and
//!   keeps up), with zero safety violations and zero equivocation
//!   observations;
//! - **the log is load-bearing** — an *amnesiac* restart (same rebuild,
//!   no WAL replay) votes twice in the same round, and an honest
//!   replica's tracker flags it: without the log, a crashed replica is a
//!   Byzantine replica.
//!
//! One function ([`drive_crash`]) runs every crash cell: the restarts
//! above, and batched n = 4 cells where the victim restarts or stays dead
//! (the survivors must still commit past the crash, and agree).
//!
//! Blocks hold the bytes they arrived in, and a committed block's WAL
//! frame is its held encoding behind a header: those frames are the ones
//! a block encoded field by field writes, and a replica replaying them
//! rebuilds the committed chain it had.

use sft_core::{
    scan_wal, Block, MemSink, ProtocolConfig, QuorumCertificate, ReplicaEngine, Wal, WalRecord,
};
use sft_crypto::{HashValue, KeyRegistry};
use sft_network::{SimNetwork, SimTransport, Transport};
use sft_sim::{
    build_fbft_engines, build_streamlet_engines, Behavior, EngineRunner, NoMischief, Protocol,
    RunPlan, RunnerConfig, SimConfig,
};
use sft_types::{Decode, Encode, EndorseMode, Payload, Round, SimTime};

/// Round-trips `records` through the on-disk frame codec — encode, then
/// scan back — so the replay below exercises exactly what a restarted
/// process would read, not the in-memory records the runner collected.
fn through_wal_codec(records: &[WalRecord]) -> Vec<WalRecord> {
    let scan = scan_wal(&wal_image(records)).expect("own frames scan clean");
    assert_eq!(scan.records.len(), records.len(), "lossless round-trip");
    scan.records
}

/// The log image `records` leave in a memory sink.
fn wal_image(records: &[WalRecord]) -> Vec<u8> {
    let mut wal = Wal::new(MemSink::new(), 4);
    for record in records {
        wal.append(record).expect("memory sink never fails");
    }
    wal.flush().expect("memory sink never fails");
    wal.sink().bytes()
}

/// A seeded n = 4 SFT-DiemBFT run whose blocks carry real transactions,
/// 16 of 512 B each: every replica's persisted records and committed
/// chain.
fn seeded_fbft_logs() -> (SimConfig, Vec<Vec<WalRecord>>, Vec<Vec<HashValue>>) {
    let n = 4;
    let config = SimConfig::new(n, 10)
        .with_protocol(Protocol::Fbft)
        .with_workload(16, 512)
        .with_batch_size(16);
    let mut runner = EngineRunner::new(
        build_fbft_engines(&config, config.base_timeout()),
        vec![Behavior::Honest; n],
        SimTransport::new(SimNetwork::new(config.delay), n),
        NoMischief,
        RunnerConfig {
            plan: RunPlan::PastRound(Round::new(10)),
            horizon: SimTime::ZERO + config.run_horizon(),
            drain_bound: config.drain_sync_bound(),
            drain_step: config.delay,
        },
    );
    runner.keep_persist_log();
    runner.run_until(SimTime::ZERO + config.delay * 24).unwrap();
    let logs = (0..n).map(|i| runner.persisted(i).to_vec()).collect();
    let chains = (0..n)
        .map(|i| runner.engine(i).kernel().committed_chain().to_vec())
        .collect();
    (config, logs, chains)
}

#[test]
fn blocks_holding_their_bytes_write_the_wal_frames_field_by_field_encoding_writes() {
    let (_, logs, _) = seeded_fbft_logs();
    let (mut held, mut txns) = (0, 0);
    let mut images = Vec::new();
    for log in &logs {
        // The same records, every block re-decoded by the copying decode,
        // which holds no bytes: those blocks encode field by field.
        let unheld: Vec<WalRecord> = log
            .iter()
            .map(|record| match record {
                WalRecord::BlockCommitted(block) => {
                    held += usize::from(block.encoding().is_some());
                    txns += block.payload().txn_count();
                    let copy = Block::from_bytes(&block.to_bytes()).expect("own bytes decode");
                    assert!(copy.encoding().is_none(), "a copying decode holds nothing");
                    WalRecord::BlockCommitted(copy)
                }
                other => other.clone(),
            })
            .collect();
        let image = wal_image(log);
        assert_eq!(
            image,
            wal_image(&unheld),
            "held bytes frame a block exactly as its fields do"
        );
        images.extend(image);
    }
    assert!(
        held > 0 && txns > 0,
        "committed blocks held their bytes ({held}) and carried transactions ({txns})"
    );
    // What the implementation that encoded every block field by field
    // wrote for this run, byte for byte.
    assert_eq!(
        format!("{} {}B", HashValue::of(&images).short(), images.len()),
        PINNED_WAL_IMAGES
    );
}

/// The four replicas' log images of [`seeded_fbft_logs`], as written
/// before blocks held their bytes: digest and length.
const PINNED_WAL_IMAGES: &str = "e4cd1dca 376037B";

#[test]
fn a_replica_restarted_from_held_byte_frames_replays_the_same_committed_chain() {
    let (config, logs, chains) = seeded_fbft_logs();
    for (i, (log, chain)) in logs.iter().zip(&chains).enumerate() {
        assert!(!chain.is_empty(), "replica {i} committed");
        let scan = scan_wal(&wal_image(log)).expect("own frames scan clean");
        let mut fresh = build_fbft_engines(&config, config.base_timeout()).remove(i);
        for record in &scan.records {
            fresh.restore(record, SimTime::ZERO);
        }
        assert_eq!(
            fresh.kernel().committed_chain(),
            &chain[..],
            "replica {i} replays to the chain it committed"
        );
    }
}

/// Runs [`drive_crash`] on `config`'s protocol.
fn crash(config: &SimConfig, crash_at: SimTime, restart_at: Option<SimTime>, end: SimTime) {
    match config.protocol {
        Protocol::Streamlet => drive_crash(
            config,
            || build_streamlet_engines(config, config.delay * 2),
            RunPlan::UntilQuiescent,
            crash_at,
            restart_at,
            end,
        ),
        Protocol::Fbft => drive_crash(
            config,
            || build_fbft_engines(config, config.base_timeout()),
            RunPlan::PastRound(Round::new(config.epochs)),
            crash_at,
            restart_at,
            end,
        ),
    }
}

/// Kills replica 0 at `crash_at`: its engine (all in-memory state) is
/// dropped on the floor, and only the WAL the runner persisted ahead of
/// its sends survives. Given `restart_at`, a fresh engine replays that
/// log, round-tripped through the frame codec, then and rejoins; without,
/// the replica stays dead. The run is then driven to `end` in δ steps,
/// plus a 60-step sync drain, so catch-up fetches and their retries fire.
///
/// Asserts agreement, no safety violation and no equivocation; that the
/// survivors commit past the crash point; that the victim keeps its
/// pre-crash prefix; and that a restarted victim commits past it. (A dead
/// victim is `Silent`, so the runner never touches its chain: the cell
/// with no restart rests on the survivors.)
fn drive_crash<E: ReplicaEngine>(
    config: &SimConfig,
    build: impl Fn() -> Vec<E>,
    plan: RunPlan,
    crash_at: SimTime,
    restart_at: Option<SimTime>,
    end: SimTime,
) {
    let victim = 0usize;
    let n = config.n;
    let mut runner = EngineRunner::new(
        build(),
        vec![Behavior::Honest; n],
        SimTransport::new(SimNetwork::new(config.delay), n),
        NoMischief,
        RunnerConfig {
            plan,
            horizon: SimTime::ZERO + config.run_horizon(),
            drain_bound: config.drain_sync_bound(),
            drain_step: config.delay,
        },
    );
    runner.keep_persist_log();

    runner.run_until(crash_at).unwrap();
    let pre_crash = runner.engine(victim).kernel().committed_chain().to_vec();
    assert!(
        !runner.persisted(victim).is_empty(),
        "the victim voted before the crash, so its WAL is non-empty"
    );
    runner.set_behavior(victim, Behavior::Silent);

    if let Some(restart_at) = restart_at {
        runner.run_until(restart_at).unwrap();
        let mut fresh = build().remove(victim);
        for record in &through_wal_codec(runner.persisted(victim)) {
            fresh.restore(record, restart_at);
        }
        runner.replace_engine(victim, fresh);
        runner.set_behavior(victim, Behavior::Honest);
    }

    let mut at = runner.transport().now();
    while at < end {
        at += config.delay;
        runner.run_until(at).unwrap();
    }
    for step in 1..=60u64 {
        runner.run_until(at + config.delay * step).unwrap();
    }

    let report = runner.report();
    assert!(report.agreement(), "prefix parity after the crash");
    assert_eq!(report.safety_violations, 0);
    assert_eq!(
        report.equivocators_detected, 0,
        "a WAL-recovered replica never contradicts its pre-crash votes"
    );
    let survivor_best = (1..n).map(|i| report.chains[i].len()).max().unwrap_or(0);
    assert!(
        survivor_best > pre_crash.len(),
        "the survivors commit past the crash ({survivor_best} vs {} pre-crash)",
        pre_crash.len()
    );
    let chain = &report.chains[victim];
    assert!(
        chain.len() >= pre_crash.len() && chain[..pre_crash.len()] == pre_crash[..],
        "the victim never rolls back a committed block"
    );
    if restart_at.is_some() {
        assert!(
            chain.len() > pre_crash.len(),
            "the restarted replica commits past its pre-crash prefix ({} vs {})",
            chain.len(),
            pre_crash.len()
        );
    }
}

/// Two epochs of downtime from a crash a third of the way through.
fn streamlet_crash_restart(n: usize, epochs: u64) {
    let config = SimConfig::new(n, epochs);
    let period = config.delay * 2;
    let crash_at = SimTime::ZERO + period * (epochs / 3);
    let end = SimTime::ZERO + period * epochs;
    crash(&config, crash_at, Some(crash_at + period * 2), end);
}

/// SFT-DiemBFT self-paces at about 2δ per round: crash mid-pipeline,
/// restart two base timeouts later, and drive well past the target.
fn fbft_crash_restart(n: usize, rounds: u64) {
    let config = SimConfig::new(n, rounds).with_protocol(Protocol::Fbft);
    let crash_at = SimTime::ZERO + config.delay * rounds;
    let restart_at = crash_at + config.base_timeout() * 2;
    let end = restart_at + config.base_timeout() * 2 * (rounds + 4);
    crash(&config, crash_at, Some(restart_at), end);
}

#[test]
fn streamlet_crash_restart_f1() {
    streamlet_crash_restart(4, 12);
}

#[test]
fn streamlet_crash_restart_f2() {
    streamlet_crash_restart(7, 12);
}

#[test]
fn fbft_crash_restart_f1() {
    fbft_crash_restart(4, 12);
}

#[test]
fn fbft_crash_restart_f2() {
    fbft_crash_restart(7, 12);
}

/// The batched n = 4 cells: 12 epochs or rounds, 256 transactions per
/// batch, replica 0 down at a third of the run and (when it restarts)
/// back two epochs later. Fbft's tail is long: a round stalls for a
/// timeout whenever the dead or catching-up victim holds the leader slot.
fn batched_cell(protocol: Protocol, restart: bool) {
    let epochs = 12;
    let config = SimConfig::new(4, epochs)
        .with_protocol(protocol)
        .with_batch_size(256);
    let period = config.delay * 2;
    let crash_at = SimTime::ZERO + period * (epochs / 3);
    let end = match protocol {
        Protocol::Streamlet => SimTime::ZERO + period * (epochs + 2),
        Protocol::Fbft => crash_at + config.base_timeout() * 2 * (epochs + 6),
    };
    let restart_at = restart.then(|| crash_at + period * 2);
    crash(&config, crash_at, restart_at, end);
}

#[test]
fn batched_crash_survivors_commit_past_a_dead_replica() {
    for protocol in [Protocol::Streamlet, Protocol::Fbft] {
        batched_cell(protocol, false);
    }
}

#[test]
fn batched_restart_recovers_and_commits_past_the_crash() {
    for protocol in [Protocol::Streamlet, Protocol::Fbft] {
        batched_cell(protocol, true);
    }
}

/// The acceptance criterion that proves the log is load-bearing: replay
/// the same crash with and without the WAL. The amnesiac restart votes
/// again in a round its pre-crash self already voted in — observable
/// equivocation at an honest replica — while the recovered restart
/// refuses, yet still votes in the next round (recovery does not cost
/// liveness).
#[test]
fn streamlet_amnesiac_restart_equivocates_recovered_does_not() {
    use sft_streamlet::{Proposal, Replica};

    let n = 4;
    let config = ProtocolConfig::for_replicas(n);
    let registry = KeyRegistry::deterministic(n);
    let replica = |id: u16| Replica::new(id, config, registry.clone(), EndorseMode::Marker);
    let genesis = Block::genesis();
    let epoch = Round::new(1);
    let leader = config.leader(epoch);
    let leader_key = registry.key_pair(u64::from(leader.as_u16())).unwrap();

    // Pre-crash: the victim votes for the leader's epoch-1 proposal A.
    let mut victim = replica(0);
    victim.begin_epoch(epoch, Payload::empty());
    let block_a = Block::new(&genesis, epoch, leader, Payload::synthetic(1, 1, 1));
    let vote_a = victim
        .on_proposal(&Proposal::new(block_a, &leader_key))
        .vote
        .expect("first proposal of the epoch wins the vote");
    let wal = through_wal_codec(&victim.kernel_mut().drain_wal());
    assert!(
        wal.iter().any(|r| matches!(r, WalRecord::VoteSent(_))),
        "the vote was logged before it was sent"
    );
    drop(victim); // kill -9

    // A conflicting twin proposal B for the same epoch (an equivocating
    // leader, or simply a redelivery race after the crash).
    let block_b = Block::new(&genesis, epoch, leader, Payload::synthetic(1, 1, 2));
    let twin = Proposal::new(block_b, &leader_key);

    // Amnesiac restart: no replay. It votes again — equivocation an
    // honest tracker attributes to the victim.
    let mut amnesiac = replica(0);
    amnesiac.begin_epoch(epoch, Payload::empty());
    let vote_b = amnesiac
        .on_proposal(&twin)
        .vote
        .expect("without the WAL the restarted replica double-votes");
    let mut observer = replica(1);
    observer.on_vote(&vote_a);
    observer.on_vote(&vote_b);
    assert_eq!(
        observer.kernel().equivocators(),
        [vote_a.author()],
        "a WAL-less restart is indistinguishable from a Byzantine replica"
    );

    // Recovered restart: replay first. Same twin, no second vote.
    let mut recovered = replica(0);
    for record in &wal {
        recovered.replay(record);
    }
    assert!(
        recovered.on_proposal(&twin).vote.is_none(),
        "replay restores vote dedup: no equivocation against the \
         pre-crash self"
    );
    // Liveness is intact: the next epoch's proposal still wins a vote.
    let epoch2 = Round::new(2);
    let leader2 = config.leader(epoch2);
    let leader2_key = registry.key_pair(u64::from(leader2.as_u16())).unwrap();
    let block_c = Block::new(&genesis, epoch2, leader2, Payload::synthetic(1, 1, 3));
    recovered.begin_epoch(epoch2, Payload::empty());
    assert!(
        recovered
            .on_proposal(&Proposal::new(block_c, &leader2_key))
            .vote
            .is_some(),
        "recovery only suppresses double votes, not future ones"
    );
}

#[test]
fn fbft_amnesiac_restart_equivocates_recovered_does_not() {
    use sft_fbft::{FbftProposal, FbftReplica};
    use sft_types::SimDuration;

    let n = 4;
    let config = ProtocolConfig::for_replicas(n);
    let registry = KeyRegistry::deterministic(n);
    let timeout = SimDuration::from_millis(400);
    let replica = |id: u16| {
        FbftReplica::new(
            id,
            config,
            registry.clone(),
            EndorseMode::Marker,
            timeout,
            SimTime::ZERO,
        )
    };
    let genesis = Block::genesis();
    let round = Round::new(1);
    let leader = config.leader(round);
    let leader_key = registry.key_pair(u64::from(leader.as_u16())).unwrap();
    let now = SimTime::ZERO;

    // Pre-crash: the victim votes for the leader's round-1 proposal A.
    let mut victim = replica(0);
    let block_a = Block::new(&genesis, round, leader, Payload::synthetic(1, 1, 1));
    let proposal_a = FbftProposal::new(block_a, QuorumCertificate::genesis(n), None, &leader_key);
    let vote_a = victim
        .on_proposal(&proposal_a, now)
        .vote
        .expect("round-1 proposal wins the vote");
    let wal = through_wal_codec(&victim.kernel_mut().drain_wal());
    assert!(
        wal.iter().any(|r| matches!(r, WalRecord::VoteSent(_))),
        "the vote was logged before it was sent"
    );
    drop(victim); // kill -9

    let block_b = Block::new(&genesis, round, leader, Payload::synthetic(1, 1, 2));
    let twin = FbftProposal::new(block_b, QuorumCertificate::genesis(n), None, &leader_key);

    // Amnesiac restart: votes again in round 1.
    let mut amnesiac = replica(0);
    let vote_b = amnesiac
        .on_proposal(&twin, now)
        .vote
        .expect("without the WAL the restarted replica double-votes");
    // Round-1 votes go to round 2's leader, which catches the double vote.
    let mut observer = replica(config.leader(round.next()).as_u16());
    observer.on_vote(&vote_a, now);
    observer.on_vote(&vote_b, now);
    assert_eq!(
        observer.kernel().equivocators(),
        [vote_a.author()],
        "a WAL-less restart is indistinguishable from a Byzantine replica"
    );

    // Recovered restart: replay suppresses the double vote.
    let mut recovered = replica(0);
    for record in &wal {
        recovered.replay(record, now);
    }
    assert!(
        recovered.on_proposal(&twin, now).vote.is_none(),
        "replay restores vote dedup: no equivocation against the \
         pre-crash self"
    );
}
