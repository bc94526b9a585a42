//! The transport-agnosticism acceptance test: the same engines the
//! deterministic simulator builds, driven by the same generic run loop,
//! commit the same chain over a real loopback TCP mesh
//! ([`sft_sim::run_over_tcp`]).
//!
//! Content determinism is what makes this assertable: blocks are a pure
//! function of (parent, round, proposer, payload) and the payload stream
//! is deterministic, so wall-clock jitter can shorten a TCP run's chain
//! but never change its blocks. The CI `tcp-smoke` step runs the larger
//! `repro --transport tcp` variant; this test keeps the path covered by
//! plain `cargo test` with a small, fast configuration.

use std::io::Write;
use std::net::TcpStream;

use sft_core::ReplicaEngine;
use sft_fbft::FbftMessage;
use sft_network::{Envelope, ProtocolTag};
use sft_obs::names;
use sft_sim::{
    build_paced_fbft_engines, run_over_tcp, Behavior, EngineRunner, NoMischief, Protocol, RunPlan,
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
    tcp_report
        .check_committed_prefix_of(&sim_report)
        .unwrap_or_else(|e| panic!("{protocol:?}: {e}"));

    // A recorded run can say what the socket core cost per block: the
    // I/O thread reads only sockets `poll` reported, and a vectored
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

/// The same parity claim at the first large sweep size. n = 31 means
/// 930 live connections through one writer thread and one I/O thread —
/// the scale the readiness-driven mesh exists for. Epochs are few:
/// the point is that a wide mesh agrees with the simulator, not a long
/// chain.
#[test]
fn n31_over_tcp_commits_the_sim_prefix() {
    let config = SimConfig::new(31, 4)
        .with_protocol(Protocol::Streamlet)
        .with_batch_size(4);
    let sim_report = config.clone().run();
    assert!(sim_report.agreement());
    assert!(sim_report.max_committed() >= 1);

    let tcp_report = run_over_tcp(&config, TcpPacing::default()).expect("loopback mesh");
    assert!(tcp_report.agreement(), "n=31 tcp replicas agree");
    assert_eq!(tcp_report.safety_violations, 0);
    assert_eq!(tcp_report.net.dropped, 0, "backpressure, not loss");
    tcp_report
        .check_committed_prefix_of(&sim_report)
        .unwrap_or_else(|e| panic!("n=31: {e}"));
}

#[test]
fn fbft_over_tcp_commits_the_sim_prefix() {
    tcp_matches_sim(Protocol::Fbft);
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
        NoMischief,
        RunnerConfig {
            plan: RunPlan::PastRound(Round::new(config.epochs)),
            horizon: SimTime::from_secs(3_600),
            drain_bound: 0,
            drain_step: SimDuration::from_millis(10),
        },
    );
    let run_for = |runner: &mut EngineRunner<_, TcpCluster, _>, ms: u64| {
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
