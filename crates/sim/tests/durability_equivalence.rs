//! Property suite: the pipelined persistence disciplines are observably
//! equivalent to the classic harness.
//!
//! [`DurabilityMode`] changes *where* the run waits for durability, not
//! *what* the protocol decides: write-through fsyncs inline before each
//! send, group commit batches fsyncs on a dedicated writer thread and
//! gates sends on its watermark — but under either discipline no frame
//! leaves before the records that justify it are durable, and under the
//! deterministic simulator the blocking gate makes every schedule
//! identical to the ungated one. These tests drive both protocols
//! through seeded random configurations — Byzantine casts up to `f`,
//! random endorsement modes, random pre-GST message loss — and assert
//! that all three modes produce byte-identical committed chains, commit
//! logs, and traffic, while group commit demonstrably fsyncs no more
//! often than write-through.

use sft_crypto::{RngCore, SplitMix64};
use sft_sim::{Behavior, DurabilityMode, Protocol, SimConfig, SimReport};
use sft_streamlet::EndorseMode;

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

/// The outcome all three disciplines must agree on byte-for-byte: what
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

fn assert_equivalent(protocol: Protocol, n: usize, f: usize, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for case in 0..4 {
        let config = random_config(&mut rng, protocol, n, f);
        let classic = run_with(&config, DurabilityMode::InMemory);
        let write_through = run_with(&config, DurabilityMode::WriteThrough);
        let group = run_with(&config, DurabilityMode::GroupCommit);
        for (mode, run) in [("write-through", &write_through), ("group-commit", &group)] {
            assert_eq!(
                decisions(&classic),
                decisions(run),
                "{protocol:?} n={n} seed={seed} case={case}: {mode} diverged \
                 from the classic harness (behaviors {:?})",
                config.behaviors
            );
        }
        assert_eq!(classic.wal_fsyncs, 0, "no wal in memory-only mode");
        if write_through.max_committed() > 0 {
            assert!(
                write_through.wal_fsyncs > 0,
                "{protocol:?} n={n} seed={seed} case={case}: a committing \
                 write-through run fsyncs every persisted record"
            );
            assert!(
                group.wal_fsyncs > 0,
                "{protocol:?} n={n} seed={seed} case={case}: a committing \
                 group-commit run still fsyncs (in groups)"
            );
        }
        // Group commit never syncs *more* often than one-per-record.
        assert!(
            group.wal_fsyncs <= write_through.wal_fsyncs,
            "{protocol:?} n={n} seed={seed} case={case}: group commit \
             fsynced {} times vs write-through's {}",
            group.wal_fsyncs,
            write_through.wal_fsyncs,
        );
    }
}

#[test]
fn streamlet_f1_disciplines_agree() {
    assert_equivalent(Protocol::Streamlet, 4, 1, 0x5EED);
}

#[test]
fn streamlet_f2_disciplines_agree() {
    assert_equivalent(Protocol::Streamlet, 7, 2, 0xFEED);
}

#[test]
fn fbft_f1_disciplines_agree() {
    assert_equivalent(Protocol::Fbft, 4, 1, 0xF00D);
}

#[test]
fn fbft_f2_disciplines_agree() {
    assert_equivalent(Protocol::Fbft, 7, 2, 0xBEEF);
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
            horizon: sft_types::SimTime::ZERO + config.run_horizon,
            drain_bound: config.drain_sync_bound,
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
        sft_sim::build_fbft_engines(&config, config.base_timeout),
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
