//! The transport-agnosticism acceptance test: the same engines the
//! deterministic simulator builds, driven by the same generic run loop,
//! commit the same chain over a real loopback TCP mesh
//! ([`sft_sim::run_over_tcp`]).
//!
//! Content determinism is what makes this assertable: blocks are a pure
//! function of (parent, round, proposer, payload) and the payload stream
//! is deterministic, so wall-clock jitter can shorten a TCP run's chain
//! but never change its blocks. Both protocols run at n = 4 and over the
//! n = 31 mesh.

use std::io::Write;
use std::net::TcpStream;

use sft_core::{GroupCommitWal, MemSink, ReplicaEngine};
use sft_fbft::FbftMessage;
use sft_network::{Envelope, ProtocolTag};
use sft_obs::names;
use sft_sim::{
    build_paced_fbft_engines, run_over_tcp, Behavior, EngineRunner, Protocol, RunPlan,
    RunnerConfig, SimConfig, TcpCluster, TcpPacing, Transport,
};
use sft_types::{BlockRequest, Encode, ReplicaId, Round, SimDuration, SimTime};

fn tcp_matches_sim(protocol: Protocol) {
    let config = SimConfig::new(4, 6)
        .with_protocol(protocol)
        .with_batch_size(8);
    let sim_report = config.clone().run();
    assert!(sim_report.agreement());
    assert!(sim_report.max_committed() >= 3);

    let recorded = config.clone().with_recording(true);
    let tcp_report = run_over_tcp(&recorded, TcpPacing::default()).expect("loopback mesh");

    assert!(tcp_report.agreement(), "{protocol:?}: tcp replicas agree");
    assert_eq!(tcp_report.safety_violations, 0);
    assert!(
        tcp_report.max_committed() >= 1,
        "{protocol:?}: tcp run commits"
    );
    config
        .check_prefix_parity(&sim_report, &tcp_report)
        .unwrap_or_else(|e| panic!("{protocol:?}: {e}"));

    // A recorded run can say what the socket core cost per block: a
    // poll reads only sockets its wait reported, and a vectored
    // write never takes more syscalls than it carries frames.
    let count = |name| tcp_report.metrics.counter(name).unwrap_or(0);
    let (wakeups, reads) = (
        count(names::NET_READER_WAKEUPS),
        count(names::NET_READ_SYSCALLS),
    );
    let (writes, frames) = (
        count(names::NET_WRITE_SYSCALLS),
        count(names::NET_FRAMES_SENT),
    );
    assert!(
        wakeups >= 1 && reads >= wakeups,
        "{wakeups} wakeups, {reads} reads"
    );
    assert!(
        writes >= 1 && writes <= frames,
        "{writes} writes, {frames} frames"
    );
}

#[test]
fn streamlet_over_tcp_commits_the_sim_prefix() {
    tcp_matches_sim(Protocol::Streamlet);
}

/// One process hosts every replica, so engine work per epoch grows with n:
/// a wide mesh needs a wider δ, or proposals miss their epochs.
fn wide_mesh_pacing(n: usize) -> TcpPacing {
    let mut pacing = TcpPacing::default();
    pacing.delta = pacing.delta * (1 + n as u64 / 8);
    pacing
}

/// The same parity claim at the first large sweep size. n = 31 means
/// 930 live connections through the run loop's own polls —
/// the scale the readiness-driven mesh exists for. Epochs are few:
/// the point is that a wide mesh agrees with the simulator, not a long
/// chain — but it must commit, or parity holds vacuously.
#[test]
fn n31_over_tcp_commits_the_sim_prefix() {
    let n = 31;
    let config = SimConfig::new(n, 4)
        .with_protocol(Protocol::Streamlet)
        .with_batch_size(4);
    let sim_report = config.clone().run();
    assert!(sim_report.agreement());
    assert!(sim_report.max_committed() >= 1);

    let tcp_report = run_over_tcp(&config, wide_mesh_pacing(n)).expect("loopback mesh");
    assert!(tcp_report.agreement(), "n=31 tcp replicas agree");
    assert_eq!(tcp_report.safety_violations, 0);
    assert!(tcp_report.max_committed() >= 1, "n=31 tcp run commits");
    assert_eq!(tcp_report.net.dropped, 0, "backpressure, not loss");
    config
        .check_prefix_parity(&sim_report, &tcp_report)
        .unwrap_or_else(|e| panic!("n=31: {e}"));
}

/// SFT-DiemBFT over the same wide mesh: the same parity, and the linear
/// message complexity the paper's abstract claims, counted in socket
/// frames. A round is one proposal broadcast, n − 1 votes to the next
/// leader and — while the round pace holds a proposal — one bare
/// certificate broadcast: at most 3(n − 1) peer frames, plus whatever
/// block sync sent. (Broadcast votes made it n(n − 1) + n − 1.)
#[test]
fn n31_fbft_over_tcp_sends_linear_frames_per_round() {
    let n = 31;
    let config = SimConfig::new(n, 4)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(4);
    let sim_report = config.clone().run();
    assert!(sim_report.max_committed() >= 1);
    let tcp_report = run_over_tcp(&config.clone().with_recording(true), wide_mesh_pacing(n))
        .expect("loopback mesh");
    assert!(tcp_report.agreement(), "n=31 fbft tcp replicas agree");
    assert_eq!(tcp_report.safety_violations, 0);
    assert!(tcp_report.max_committed() >= 1, "n=31 fbft tcp run commits");
    config
        .check_prefix_parity(&sim_report, &tcp_report)
        .unwrap_or_else(|e| panic!("n=31 fbft: {e}"));

    let count = |name| tcp_report.metrics.counter(name).unwrap_or(0);
    let peers = (n - 1) as u64;
    let rounds = count(names::NET_MSGS[0]) / peers;
    let sync = count(names::NET_MSGS[3]) + count(names::NET_MSGS[4]);
    let frames = count(names::NET_FRAMES_SENT);
    assert!(rounds >= 2, "{rounds} rounds proposed");
    assert!(
        frames <= 3 * peers * rounds + sync,
        "{frames} peer frames over {rounds} rounds ({sync} of them sync)"
    );
}

#[test]
fn fbft_over_tcp_commits_the_sim_prefix() {
    tcp_matches_sim(Protocol::Fbft);
}

/// A run that commits past the reference's last block is checked
/// against a longer simulated run, and still fails on a block that
/// is not the simulator's.
#[test]
fn prefix_parity_extends_the_reference_to_cover_a_longer_run() {
    let config = SimConfig::new(4, 8)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(8);
    let reference = config.clone().run();
    let further = SimConfig::new(4, 10)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(8)
        .run();
    assert!(further.max_committed() > reference.max_committed());
    assert!(further.check_committed_prefix_of(&reference).is_err());
    config.check_prefix_parity(&reference, &further).unwrap();

    let other = SimConfig::new(4, 10)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(4)
        .run();
    let err = config.check_prefix_parity(&reference, &other).unwrap_err();
    assert!(err.contains("diverges"), "{err}");
}

/// A block-sync request may name any requester. One naming a replica
/// outside the set — for a block the server holds, certificate and all —
/// once panicked a replica hosted over sockets, which indexed its links
/// by the requester. Now the response is one counted drop, and the
/// engine carries on.
#[test]
fn a_sync_request_for_a_requester_outside_the_replica_set_is_a_counted_drop() {
    let config = SimConfig::new(4, 10_000).with_protocol(Protocol::Fbft);
    let cluster = TcpCluster::loopback(4, ProtocolTag::Fbft).expect("loopback mesh");
    let gateway = cluster.client_addr(ReplicaId::new(0));
    let mut runner = EngineRunner::new(
        build_paced_fbft_engines(&config, SimDuration::from_secs(1)),
        vec![Behavior::Honest; 4],
        cluster,
        RunnerConfig {
            plan: RunPlan::PastRound(Round::new(config.epochs)),
            horizon: SimTime::from_secs(3_600),
            drain_bound: 0,
            drain_step: SimDuration::from_millis(10),
        },
    );
    let run_for = |runner: &mut EngineRunner<_, TcpCluster>, ms: u64| {
        let until = runner.transport().now() + SimDuration::from_millis(ms);
        while runner.transport().now() < until {
            runner.run_until(until).expect("in-memory run");
        }
    };
    run_for(&mut runner, 300);
    let served = runner.engine(0).kernel().sync_stats().responses_served;
    let target = *runner
        .engine(0)
        .kernel()
        .committed_chain()
        .last()
        .expect("replica 0 committed a block");
    assert_eq!(runner.transport().stats().dropped, 0, "a lossless mesh");

    // Replica 1's identity, over a connection of its own (the gateway
    // takes peers as well as clients), asks on behalf of replica 9.
    let mut sock = TcpStream::connect(gateway).unwrap();
    let request = BlockRequest::new(ReplicaId::new(9), target, 1);
    for payload in [Vec::new(), FbftMessage::SyncRequest(request).to_bytes()] {
        let frame = Envelope::to_peer(
            ReplicaId::new(1),
            ReplicaId::new(0),
            ProtocolTag::Fbft,
            payload,
        );
        sock.write_all(&frame.to_frame()).unwrap();
    }
    let round = runner.engine(0).round();
    run_for(&mut runner, 300);

    assert_eq!(
        runner.engine(0).kernel().sync_stats().responses_served,
        served + 1,
        "the request was served"
    );
    assert_eq!(
        runner.transport().stats().dropped,
        1,
        "its response went nowhere, counted"
    );
    assert!(
        runner.engine(0).round() > round,
        "and the replica kept going"
    );
}

/// Group commit fsyncs on demand: each replica syncs once per round —
/// its vote, and with it whatever the previous round's vote aggregation
/// appended — not once per record batch. Counted over the real socket
/// core, whose writer the WAL's wake hook releases, with the logs on
/// memory sinks so only the discipline is measured.
#[test]
fn group_commit_over_tcp_fsyncs_about_once_per_replica_per_block() {
    const N: usize = 4;
    let config = SimConfig::new(N, 48).with_protocol(Protocol::Fbft);
    let cluster = TcpCluster::loopback(N, ProtocolTag::Fbft).expect("loopback mesh");
    let wals = (0..N)
        .map(|_| {
            let wake = Some(cluster.wake_hook());
            GroupCommitWal::spawn(MemSink::new(), sft_obs::noop(), wake).unwrap()
        })
        .collect();
    let mut runner = EngineRunner::new(
        build_paced_fbft_engines(&config, SimDuration::from_secs(5)),
        vec![Behavior::Honest; N],
        cluster,
        RunnerConfig {
            plan: RunPlan::PastRound(Round::new(config.epochs)),
            horizon: SimTime::from_secs(60),
            drain_bound: 0,
            drain_step: SimDuration::from_millis(10),
        },
    );
    runner.set_wals(wals);
    let report = runner.run().expect("in-memory sinks");
    assert!(report.agreement());
    let blocks = report.max_committed() as u64;
    assert!(blocks >= 32, "committed {blocks} blocks");
    assert!(
        report.wal_fsyncs <= (N as u64 + 1) * blocks,
        "{} fsyncs for {blocks} blocks: more than one per replica per round",
        report.wal_fsyncs
    );
}
