//! Property suite: the group-commit log is observably equivalent to the
//! classic in-memory harness.
//!
//! [`DurabilityMode`] changes *where* the run waits for durability, not
//! *what* the protocol decides: group commit batches fsyncs on a
//! dedicated writer thread and gates sends on its watermark, so no frame
//! leaves before the records that justify it are durable, and under the
//! deterministic simulator the blocking gate makes every schedule
//! identical to the ungated one. These tests drive both protocols
//! through seeded random configurations — Byzantine casts up to `f`,
//! random endorsement modes, random pre-GST message loss — and assert
//! that both modes produce byte-identical committed chains, commit logs,
//! and traffic, while every committing group-commit run makes fewer
//! fsyncs than it persists records. Every run, in either mode, must also
//! be safe on its own: equal outputs alone would pass a defect both
//! modes share.

use sft_core::ReplicaEngine;
use sft_crypto::{RngCore, SplitMix64};
use sft_fbft::FbftEngine;
use sft_sim::{
    build_fbft_engines, Behavior, DurabilityMode, EngineRunner, FaultSchedule, NoMischief,
    Protocol, RunPlan, RunnerConfig, SimConfig, SimReport, SimTransport,
};
use sft_streamlet::EndorseMode;
use sft_types::{ReplicaId, Round, SimTime};

/// Draws a behavior cast for `n` replicas with at most `f` Byzantine
/// members, each drawn from the full misbehavior menu.
fn random_behaviors(rng: &mut SplitMix64, n: usize, f: usize) -> Vec<Behavior> {
    let mut behaviors = vec![Behavior::Honest; n];
    let byzantine = rng.next_below(f as u64 + 1) as usize;
    for _ in 0..byzantine {
        let victim = rng.next_below(n as u64) as usize;
        behaviors[victim] = match rng.next_below(4) {
            0 => Behavior::Silent,
            1 => Behavior::WithholdVote,
            2 => Behavior::Equivocate,
            _ => Behavior::StallLeader,
        };
    }
    behaviors
}

/// One seeded random configuration, identical in everything but the
/// durability mode under test.
fn random_config(rng: &mut SplitMix64, protocol: Protocol, n: usize, f: usize) -> SimConfig {
    let mut config = SimConfig::new(n, 10).with_protocol(protocol);
    config.behaviors = random_behaviors(rng, n, f);
    config = config.with_endorse_mode(if rng.next_below(2) == 0 {
        EndorseMode::Marker
    } else {
        EndorseMode::Interval
    });
    if rng.next_below(3) == 0 {
        // Pre-GST loss exercises retransmission/sync under every mode.
        config = config.with_lossy_links(rng.next_u64(), 0.2);
    }
    config
}

fn run_with(config: &SimConfig, durability: DurabilityMode) -> SimReport {
    config.clone().with_durability(durability).run()
}

/// The outcome both modes must agree on byte-for-byte: what
/// committed, at what strength, what was sent, and what safety observed.
fn decisions(report: &SimReport) -> impl PartialEq + std::fmt::Debug {
    (
        report.chains.clone(),
        report.commit_logs.clone(),
        report.net,
        report.txns_committed,
        report.safety_violations,
        report.equivocators_detected,
    )
}

/// What one run must show by itself: no safety violation, agreement,
/// monotone commit strengths, and no more equivocators detected than the
/// cast holds.
fn assert_safe(report: &SimReport, config: &SimConfig, context: &str) {
    let equivocators = config
        .behaviors
        .iter()
        .filter(|behavior| **behavior == Behavior::Equivocate)
        .count();
    assert_eq!(report.safety_violations, 0, "{context}: safety violated");
    assert!(report.agreement(), "{context}: chains disagree");
    assert!(
        report.commit_strength_monotone(),
        "{context}: a commit strength fell"
    );
    assert!(
        report.equivocators_detected <= equivocators,
        "{context}: {} equivocators detected in a cast of {equivocators}",
        report.equivocators_detected
    );
}

/// Runs four seeded configurations per seed in both modes.
fn assert_equivalent(protocol: Protocol, n: usize, f: usize, seeds: &[u64]) {
    use sft_obs::names;
    let cases = seeds.iter().flat_map(|&seed| {
        let mut rng = SplitMix64::new(seed);
        (0..4).map(move |case| (seed, case, random_config(&mut rng, protocol, n, f)))
    });
    for (seed, case, config) in cases {
        let classic = run_with(&config, DurabilityMode::InMemory);
        let group = run_with(
            &config.clone().with_recording(true),
            DurabilityMode::GroupCommit,
        );
        let context = format!(
            "{protocol:?} n={n} seed={seed:#x} case={case} (behaviors {:?})",
            config.behaviors
        );
        assert_safe(&classic, &config, &format!("{context}, in memory"));
        assert_safe(&group, &config, &format!("{context}, group commit"));
        assert_eq!(
            decisions(&classic),
            decisions(&group),
            "{context}: group commit diverged from the classic harness"
        );
        assert_eq!(classic.wal_fsyncs, 0, "no wal in memory-only mode");
        if group.max_committed() > 0 {
            // Every fsync covers at least one record, so one group of two
            // or more means fewer fsyncs than records: the log batched.
            let largest_group = group
                .metrics
                .hist(names::WAL_GROUP_SIZE)
                .map_or(0, |h| h.max);
            assert!(
                group.wal_fsyncs > 0 && largest_group >= 2,
                "{context}: a committing group-commit run made {} fsyncs, at \
                 most {largest_group} records each",
                group.wal_fsyncs,
            );
        }
    }
}

#[test]
fn streamlet_f1_disciplines_agree() {
    assert_equivalent(Protocol::Streamlet, 4, 1, &[0x5EED, 0xA11CE]);
}

#[test]
fn streamlet_f2_disciplines_agree() {
    assert_equivalent(Protocol::Streamlet, 7, 2, &[0xFEED, 0xB0B]);
}

#[test]
fn fbft_f1_disciplines_agree() {
    assert_equivalent(Protocol::Fbft, 4, 1, &[0xF00D, 0xCAFE]);
}

#[test]
fn fbft_f2_disciplines_agree() {
    assert_equivalent(Protocol::Fbft, 7, 2, &[0xBEEF, 0xD1CE]);
}

// ---------------------------------------------------------------------------
// Gate audit: real protocol traffic clears its gates before hitting the wire.
// ---------------------------------------------------------------------------

/// Wraps [`SimTransport`] to audit the pipelined discipline with real
/// protocol traffic: every frame the runner routes with a
/// [`SendGate`](sft_types::SendGate) must clear it — watermark covering
/// the persist sequence that justifies it — before the frame is handed to
/// the network.
struct GateAudit {
    inner: sft_network::SimTransport,
    gated: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl GateAudit {
    fn clear(&self, gate: &sft_types::SendGate) {
        gate.wait_open();
        assert!(
            gate.is_open(),
            "frame released before the watermark covered seq {}",
            gate.seq()
        );
        self.gated
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl sft_sim::Transport for GateAudit {
    fn replica_count(&self) -> usize {
        self.inner.replica_count()
    }

    fn send_to(
        &mut self,
        from: sft_types::ReplicaId,
        dest: sft_network::Dest,
        p: std::sync::Arc<[u8]>,
        gate: Option<sft_types::SendGate>,
    ) {
        if let Some(gate) = &gate {
            self.clear(gate);
        }
        self.inner.send_to(from, dest, p, None);
    }

    fn poll_deliver(&mut self, deadline: sft_types::SimTime) -> Vec<sft_network::Delivery> {
        self.inner.poll_deliver(deadline)
    }

    fn now(&self) -> sft_types::SimTime {
        self.inner.now()
    }

    fn next_deliver_at(&self) -> Option<sft_types::SimTime> {
        self.inner.next_deliver_at()
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn stats(&self) -> sft_network::NetworkStats {
        self.inner.stats()
    }
}

/// Runs `engines` over the auditing transport with per-replica
/// group-commit logs, returning the report and how many frames were
/// gated.
fn audit_run<E: sft_core::ReplicaEngine>(
    engines: Vec<E>,
    config: &SimConfig,
    plan: sft_sim::RunPlan,
) -> (SimReport, u64) {
    use sft_core::{DurableWal, GroupCommitWal, MemSink};
    let gated = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let transport = GateAudit {
        inner: sft_network::SimTransport::new(sft_network::SimNetwork::new(config.delay), config.n),
        gated: std::sync::Arc::clone(&gated),
    };
    let mut runner = sft_sim::EngineRunner::new(
        engines,
        config.behaviors.clone(),
        transport,
        sft_sim::NoMischief,
        sft_sim::RunnerConfig {
            plan,
            horizon: sft_types::SimTime::ZERO + config.run_horizon(),
            drain_bound: config.drain_sync_bound(),
            drain_step: config.delay,
        },
    );
    let wals: Vec<Box<dyn DurableWal>> = (0..config.n)
        .map(|_| {
            Box::new(
                GroupCommitWal::spawn(MemSink::new(), sft_obs::noop(), None)
                    .expect("spawn wal writer"),
            ) as Box<dyn DurableWal>
        })
        .collect();
    runner.set_wals(wals);
    let report = runner.run().expect("in-memory sinks");
    let gated = gated.load(std::sync::atomic::Ordering::Relaxed);
    (report, gated)
}

/// Both protocols, end to end over the auditing transport: runs commit,
/// agree, and route their post-persist traffic through gates that are
/// provably open at release time.
#[test]
fn real_protocol_traffic_clears_its_gates_before_the_wire() {
    let config = SimConfig::new(4, 8);
    let (report, gated) = audit_run(
        sft_sim::build_streamlet_engines(&config, config.delay * 2),
        &config,
        sft_sim::RunPlan::UntilQuiescent,
    );
    assert!(report.agreement() && report.max_committed() > 0);
    assert!(gated > 0, "streamlet votes ride the gated path");

    let config = SimConfig::new(4, 8).with_protocol(Protocol::Fbft);
    let (report, gated) = audit_run(
        sft_sim::build_fbft_engines(&config, config.base_timeout()),
        &config,
        sft_sim::RunPlan::PastRound(sft_types::Round::new(config.epochs)),
    );
    assert!(report.agreement() && report.max_committed() > 0);
    assert!(gated > 0, "fbft votes and proposals ride the gated path");
}

/// The wal-backed metrics surface when recording is on: fsync counters
/// and group-size histograms land in [`SimReport::metrics`], and the
/// hot-path persist wait is attributed to its own phase.
#[test]
fn recorded_metrics_cover_the_wal() {
    use sft_obs::names;
    let report = SimConfig::new(4, 8)
        .with_protocol(Protocol::Fbft)
        .with_recording(true)
        .with_durability(DurabilityMode::GroupCommit)
        .run();
    let fsyncs = report.metrics.counter(names::WAL_FSYNCS).unwrap_or(0);
    assert!(fsyncs > 0, "recorded fsync counter tracks the writer");
    assert_eq!(fsyncs, report.wal_fsyncs, "counter and report field agree");
    let group = report
        .metrics
        .hist(names::WAL_GROUP_SIZE)
        .expect("group-size histogram");
    assert!(group.count > 0 && group.p50 >= 1);
    assert!(
        report.metrics.hist(names::PHASE_PERSIST_WAIT_NS).is_some(),
        "persist wait is attributed to its own phase"
    );
}

// ---------------------------------------------------------------------------
// Block sync served from the log: a healed straggler needs blocks its peers
// no longer hold in memory.
// ---------------------------------------------------------------------------

/// Rounds (epochs) of the straggler runs. The partition heals halfway
/// through, and the straggler then fetches a few dozen blocks its peers
/// committed and dropped from memory rounds before — all well inside the
/// retention horizon, so the peers still know them.
const STRAGGLER_ROUNDS: u64 = 96;

/// A replica cut off for the first half of the run catches up by block
/// sync, and its peers serve the blocks it needs from their logs: the
/// bytes on the wire, the decisions and the commit logs are the ones the
/// in-memory harness, which serves them from the frames its peers hold,
/// produces.
#[test]
fn a_healed_straggler_is_served_from_its_peers_logs_byte_for_byte() {
    for protocol in [Protocol::Streamlet, Protocol::Fbft] {
        let config = SimConfig::new(4, STRAGGLER_ROUNDS)
            .with_protocol(protocol)
            .with_partitioned_straggler();
        let classic = run_with(&config, DurabilityMode::InMemory);
        let group = run_with(&config, DurabilityMode::GroupCommit);
        assert_eq!(
            decisions(&classic),
            decisions(&group),
            "{protocol:?}: serving from the log changed what the run decided or sent"
        );
        assert!(
            group.sync_blocks_fetched > 0 && group.recovered_replicas == 1,
            "{protocol:?}: the straggler caught up by block sync"
        );
        assert_eq!(
            classic.sync_served_from_log, 0,
            "no log, nothing read from one"
        );
        assert!(
            group.sync_served_from_log > 0,
            "{protocol:?}: the peers served spilled blocks from their logs"
        );
    }
}

/// Flips a byte in the body of every `BlockCommitted` frame of the log
/// at `path`, in place. Returns how many frames it damaged.
fn corrupt_block_frames(path: &std::path::Path) -> usize {
    use sft_core::WalRecord;
    use std::os::unix::fs::FileExt;
    let image = std::fs::read(path).expect("read the log");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open the log for writing");
    let (mut offset, mut damaged) = (0, 0);
    while let Ok(Some((record, used))) = WalRecord::decode_frame(&image[offset..]) {
        if matches!(record, WalRecord::BlockCommitted(_)) {
            // The frame's last byte is the block's last: part of its
            // payload, which its id covers.
            let at = offset + used - 1;
            file.write_all_at(&[image[at] ^ 0x20], at as u64)
                .expect("flip a byte");
            damaged += 1;
        }
        offset += used;
    }
    damaged
}

/// The last replica of `config`'s n, cut off until `heal_at`.
const STRAGGLER: usize = 3;

/// An SFT-DiemBFT runner for `config` whose replica [`STRAGGLER`] is cut
/// off until `heal_at`, with no logs installed.
fn straggler_runner(
    config: &SimConfig,
    heal_at: SimTime,
) -> EngineRunner<FbftEngine, SimTransport, NoMischief> {
    let net = sft_network::SimNetwork::new(config.delay).with_faults(FaultSchedule::partition(
        vec![ReplicaId::new(STRAGGLER as u16)],
        heal_at,
    ));
    EngineRunner::new(
        build_fbft_engines(config, config.base_timeout()),
        config.behaviors.clone(),
        SimTransport::new(net, config.n),
        NoMischief,
        RunnerConfig {
            plan: RunPlan::PastRound(Round::new(config.epochs)),
            horizon: SimTime::ZERO + config.run_horizon(),
            drain_bound: config.drain_sync_bound(),
            drain_step: config.delay,
        },
    )
}

/// Runs `runner` on from `from`, one δ at a time, until the straggler is
/// past `config`'s last round and done syncing, or the run horizon ends.
fn run_until_caught_up(
    runner: &mut EngineRunner<FbftEngine, SimTransport, NoMischief>,
    config: &SimConfig,
    from: SimTime,
) {
    let (target, end) = (
        Round::new(config.epochs),
        SimTime::ZERO + config.run_horizon(),
    );
    let behind = |runner: &EngineRunner<FbftEngine, SimTransport, NoMischief>| {
        let straggler = runner.engine(STRAGGLER);
        straggler.round() <= target || straggler.kernel().is_syncing()
    };
    let mut until = from;
    while until < end && behind(runner) {
        until += config.delay;
        runner.run_until(until).expect("the logs stay healthy");
    }
}

/// One peer's log rots under its spilled blocks while a straggler is cut
/// off. When the straggler asks that peer, the peer reads the damaged
/// frames back, finds they do not hash to the blocks it committed, and
/// declines without a panic; the straggler's retry goes to another peer,
/// and it catches up all the same.
#[test]
fn a_peer_whose_log_rotted_declines_and_the_straggler_catches_up_elsewhere() {
    use sft_core::{DurableWal, WalStore, WAL_FILE_NAME};

    let config = SimConfig::new(4, STRAGGLER_ROUNDS).with_protocol(Protocol::Fbft);
    let heal_at = SimTime::ZERO + config.delay * STRAGGLER_ROUNDS;
    let mut runner = straggler_runner(&config, heal_at);
    let root = std::env::temp_dir().join(format!("sft-rotted-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let wals: Vec<Box<dyn DurableWal>> = (0..config.n)
        .map(|id| {
            let store = WalStore::open(&root.join(format!("replica-{id}")), 1).expect("open log");
            Box::new(
                store
                    .into_group_commit(sft_obs::noop(), None)
                    .expect("spawn wal writer"),
            ) as Box<dyn DurableWal>
        })
        .collect();
    runner.set_wals(wals);

    // Just before the heal: the peers have committed and spilled most of
    // what the straggler will ask for. Rot the whole of peer 0's log.
    runner
        .run_until(SimTime::ZERO + config.delay * (STRAGGLER_ROUNDS - 1))
        .expect("file logs stay healthy");
    let rotted = 0;
    let damaged = corrupt_block_frames(&root.join(format!("replica-{rotted}")).join(WAL_FILE_NAME));
    assert!(damaged > 0, "peer {rotted} had committed blocks on disk");

    // Then on to the end of the run: past the target round, with the
    // straggler's catch-up settled.
    run_until_caught_up(&mut runner, &config, heal_at);
    let declined = runner
        .engine(rotted)
        .kernel()
        .sync_stats()
        .spilled_reads_failed;
    let served: u64 = (1..3)
        .map(|peer| {
            runner
                .engine(peer)
                .kernel()
                .sync_stats()
                .blocks_served_from_log
        })
        .sum();
    let report = runner.finish().expect("file logs stay healthy");
    let _ = std::fs::remove_dir_all(&root);

    assert!(declined > 0, "the rotted peer was asked and declined");
    assert!(served > 0, "the healthy peers served from their logs");
    assert!(report.agreement(), "no replica diverged");
    let (caught_up, peer) = (report.chains[STRAGGLER].len(), report.chains[1].len());
    assert!(
        caught_up + 2 >= peer && caught_up > STRAGGLER_ROUNDS as usize / 2,
        "the straggler caught up: {caught_up} blocks against peer 1's {peer}"
    );
}

/// Without a log, a committed block spills to the frame it arrived in: the
/// store keeps its header, and its decoded transactions go. A straggler
/// cut off for half the run asks its peers for blocks they spilled that
/// way long before, and they serve them from those held bytes, checked
/// against the stored ids, with no log to read.
#[test]
fn a_healed_straggler_is_served_from_a_log_less_peers_held_bytes() {
    use sft_core::Spilled;

    let config = SimConfig::new(4, STRAGGLER_ROUNDS)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(4);
    let heal_at = SimTime::ZERO + config.delay * STRAGGLER_ROUNDS;
    let mut runner = straggler_runner(&config, heal_at);

    // At the heal: every block the peers committed holds no transactions,
    // only its frame.
    runner.run_until(heal_at).expect("no logs to fail");
    let mut spilled = Vec::new();
    for peer in 0..STRAGGLER {
        let kernel = runner.engine(peer).kernel();
        for &id in kernel.committed_chain() {
            let held = kernel.store().spilled(id);
            assert!(
                matches!(held, Some(Spilled::Held(_))),
                "peer {peer}: committed block {id:?} spilled to its frame, not {held:?}"
            );
            assert!(kernel.store().get(id).unwrap().payload().is_empty());
        }
        spilled.extend_from_slice(kernel.committed_chain());
    }
    assert!(!spilled.is_empty(), "the peers committed while it was away");
    assert!(runner
        .engine(STRAGGLER)
        .kernel()
        .committed_chain()
        .is_empty());

    run_until_caught_up(&mut runner, &config, heal_at);
    let report = runner.finish().expect("no logs to fail");
    assert!(report.agreement() && report.safety_violations == 0);
    assert!(report.recovered_replicas == 1 && report.sync_blocks_fetched > 0);
    assert_eq!(
        report.sync_served_from_log, 0,
        "no log, nothing read from one"
    );
    let caught_up = &report.chains[STRAGGLER];
    assert!(
        spilled.iter().all(|id| caught_up.contains(id)),
        "the straggler holds every block its peers had spilled"
    );
    assert!(report.txns_committed > 0, "the blocks carried transactions");
}
