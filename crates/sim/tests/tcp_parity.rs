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

use sft_obs::names;
use sft_sim::{run_over_tcp, Protocol, SimConfig, TcpPacing};

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
