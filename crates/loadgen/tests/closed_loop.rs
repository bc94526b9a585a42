//! Closed-loop load generation against a real loopback cluster: the
//! zero-lost-acks acceptance runs on both protocols and on group-commit
//! logs, and admission-control backpressure when the client window
//! outsizes the replica's mempool cap.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

use sft_loadgen::{run_client, ClientConfig, LoadReport};
use sft_sim::{run_over_tcp_serving, DurabilityMode, Protocol, SimConfig, SimReport, TcpPacing};
use sft_types::ReplicaId;

/// One cluster at a time: the rounds are paced by the wall clock, so a
/// cluster sharing the CPU with another test's replicas and clients can
/// run out its round budget before its fleet is done.
static ONE_CLUSTER: Mutex<()> = Mutex::new(());

/// `clients` closed-loop clients of `txns` transactions each, `window`
/// in flight, client `c` requesting acks at `ack_at(c)`.
fn fleet(
    config: &SimConfig,
    clients: u16,
    txns: u64,
    window: usize,
    ack_at: impl Fn(u16) -> u64 + Send + Sync,
) -> (LoadReport, SimReport) {
    // A failed run poisons the lock; the next one takes it anyway.
    let _alone = ONE_CLUSTER.lock().unwrap_or_else(|e| e.into_inner());
    let mut handles = Vec::new();
    let report = run_over_tcp_serving(config, TcpPacing::default(), |addrs: &[SocketAddr]| {
        for c in 0..clients {
            let replica = usize::from(c) % addrs.len();
            let cfg = ClientConfig {
                addr: addrs[replica],
                replica: ReplicaId::new(replica as u16),
                client: 500 + c,
                total: txns,
                window,
                payload_bytes: 64,
                ack_at: ack_at(c),
                retry_busy: true,
                deadline: Duration::from_secs(90),
            };
            handles.push(std::thread::spawn(move || run_client(&cfg)));
        }
    })
    .expect("loopback mesh");
    let reports: Vec<LoadReport> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread").expect("client io"))
        .collect();
    (LoadReport::merge(reports), report)
}

/// The acceptance criterion: every submission of the [`fleet`] resolves —
/// zero lost acks, none under strength, every one `Committed` — with a
/// safe, monotone cluster underneath. Prints the run's latency and rate.
fn assert_every_ack_commits(
    config: &SimConfig,
    clients: u16,
    txns: u64,
    window: usize,
    ack_at: impl Fn(u16) -> u64 + Send + Sync,
) -> SimReport {
    let (load, report) = fleet(config, clients, txns, window, ack_at);
    println!(
        "{:?} n = {}: committed {} / rejected {} / lost {} acks in {:?} \
         (p50 {} us, p99 {} us, {:.1} txns/s)",
        config.protocol,
        config.n,
        load.committed,
        load.rejected,
        load.lost,
        load.elapsed,
        load.p50_us(),
        load.p99_us(),
        load.txns_per_sec(),
    );
    assert_eq!(load.lost, 0, "every submission came back as an ack");
    assert_eq!(
        load.committed,
        u64::from(clients) * txns,
        "and every ack was Committed"
    );
    assert_eq!(load.under_strength, 0);
    assert!(report.agreement());
    assert!(report.commit_strength_monotone());
    assert_eq!(load.latencies_us.len() as u64, load.committed);
    assert!(load.p50_us() > 0 && load.p50_us() <= load.p99_us());
    assert!(load.txns_per_sec() > 0.0);
    report
}

/// Four clients round-robin over every ack strength 0..=2f.
#[test]
fn closed_loop_run_loses_no_acks() {
    let config = SimConfig::new(4, 24)
        .with_batch_size(32)
        .with_live_clients(true);
    assert_every_ack_commits(&config, 4, 12, 4, |c| u64::from(c) % 3);
}

/// The same fleet over SFT-DiemBFT. Its rounds close on QCs and fly by
/// over loopback, so the same wall clock needs 16× the round budget.
#[test]
fn fbft_closed_loop_run_loses_no_acks() {
    let config = SimConfig::new(4, 24 * 16)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(32)
        .with_live_clients(true);
    assert_every_ack_commits(&config, 4, 12, 4, |c| u64::from(c) % 3);
}

/// Ten SFT-DiemBFT replicas on file-backed group-commit logs under 16
/// clients of 32 transactions, 16 in flight each.
#[test]
fn ten_fbft_replicas_on_group_commit_logs_lose_no_acks() {
    let config = SimConfig::new(10, 24 * 16)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(64)
        .with_durability(DurabilityMode::GroupCommit)
        .with_live_clients(true);
    let report = assert_every_ack_commits(&config, 16, 32, 16, |_| 0);
    assert!(report.wal_fsyncs > 0, "the replicas synced their logs");
}

/// Backpressure: the window (16) outsizes the mempool cap (4), so
/// admission *must* push back with explicit `Busy` acks — and because
/// the client retries, every transaction still commits once proposals
/// drain the mempool. Rejection is flow control here, not loss.
#[test]
fn window_larger_than_mempool_cap_bounces_then_recovers() {
    // The pinned replica leads every 4th epoch and each lead drains at
    // most `batch_size` = cap = 4 transactions, so 32 epochs leave ~2×
    // slack over the 16 submissions (plus commit lag).
    let config = SimConfig::new(4, 32)
        .with_batch_size(4)
        .with_live_clients(true)
        .with_mempool_txn_cap(4);
    let (load, report) = fleet(&config, 1, 16, 16, |_| 0);
    assert!(
        load.rejected > 0,
        "a 16-wide window against a 4-deep mempool must see Busy acks \
         (got {} rejections over {} requests)",
        load.rejected,
        load.requests_sent
    );
    assert!(
        load.requests_sent > 16,
        "retries happened: {} requests for 16 transactions",
        load.requests_sent
    );
    assert_eq!(load.committed, 16, "every transaction commits eventually");
    assert_eq!(load.lost, 0);
    assert!(report.agreement());
}
