//! The deployed path, end to end, in tier-1: four `run_node` replicas —
//! what four `sft-node` processes run, here on four threads — over
//! loopback sockets with their WALs on disk, and one real client dialled
//! into replica 0's gateway. Then what a peer or client that never reads
//! costs an honest replica: no rounds.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sft_bench::node::{run_node, NodeOpts, NodeOutcome};
use sft_core::WalStore;
use sft_sim::Protocol;
use sft_types::{
    ClientFrame, ClientRequest, Encode, Envelope, ProtocolTag, ReplicaId, Transaction,
};

#[path = "support/cluster.rs"]
mod cluster;
use cluster::{client_acks, committed_chains, free_addrs, one_cluster, CLIENT_TXNS};

const N: usize = 4;

/// The client of these runs submits all [`CLIENT_TXNS`] in one window:
/// replica 0 batches them into the first block it leads after they
/// arrive.
fn one_window_of_acks(gateway: SocketAddr) -> u64 {
    client_acks(gateway, N, CLIENT_TXNS as usize, Duration::from_secs(20))
}

/// Options for replicas `ids` of a cluster on `peers`, data under `root`.
fn node_opts(
    peers: &[SocketAddr],
    ids: std::ops::Range<usize>,
    protocol: Protocol,
    epochs: u64,
    base_timeout: Duration,
    root: &Path,
) -> Vec<NodeOpts> {
    let start_at = cluster::genesis(Duration::from_millis(300));
    ids.map(|id| NodeOpts {
        id: id as u16,
        listen: peers[id],
        peers: peers.to_vec(),
        protocol,
        data_dir: root.join(format!("node-{id}")),
        epochs,
        budget: Duration::from_secs(20),
        linger: Duration::from_millis(300),
        delta: Duration::from_millis(50),
        base_timeout,
        start_at: Some(start_at),
        trace_out: None,
    })
    .collect()
}

/// Runs every node of `opts` on a thread of its own, beside `beside`.
fn run_nodes<T: Send>(
    opts: &[NodeOpts],
    beside: impl FnOnce() -> T + Send,
) -> (Vec<NodeOutcome>, T) {
    std::thread::scope(|scope| {
        let nodes: Vec<_> = opts
            .iter()
            .map(|opts| scope.spawn(move || run_node(opts).expect("node ran to completion")))
            .collect();
        let beside = scope.spawn(beside);
        let outcomes = nodes.into_iter().map(|n| n.join().unwrap()).collect();
        (outcomes, beside.join().unwrap())
    })
}

/// Every node committed, they agree on their common prefix, and each
/// node's `commit.out` and WAL hold what it reported.
fn assert_committed_in_agreement(opts: &[NodeOpts], outcomes: &[NodeOutcome]) {
    let dirs: Vec<PathBuf> = opts.iter().map(|opts| opts.data_dir.clone()).collect();
    for (chain, outcome) in committed_chains(&dirs).iter().zip(outcomes) {
        assert_eq!(chain, &outcome.committed, "commit.out is the report");
    }
    for (opts, outcome) in opts.iter().zip(outcomes) {
        let wal = WalStore::open(&opts.data_dir, 1).expect("wal re-opens");
        assert!(!wal.tail_truncated(), "replica {} left a torn log", opts.id);
        assert_eq!(
            wal.recovered().len() as u64,
            outcome.appended,
            "replica {}'s log holds what it reported appending",
            opts.id
        );
    }
}

fn scratch_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sft-node-cluster-{}-{tag}", std::process::id()))
}

fn cluster_commits_and_acks(protocol: Protocol, epochs: u64, tag: &str) {
    let _alone = one_cluster();
    let root = scratch_root(tag);
    let peers = free_addrs(N);
    let opts = node_opts(
        &peers,
        0..N,
        protocol,
        epochs,
        Duration::from_secs(1),
        &root,
    );
    let (outcomes, acked) = run_nodes(&opts, || one_window_of_acks(peers[0]));
    assert_eq!(acked, CLIENT_TXNS, "every submitted transaction acked");
    assert_committed_in_agreement(&opts, &outcomes);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn four_streamlet_nodes_commit_and_ack_a_real_client() {
    // 24 epochs of 2δ = 1.2 s; replica 0 leads epochs 4, 8, …
    cluster_commits_and_acks(Protocol::Streamlet, 16, "streamlet");
}

#[test]
fn four_fbft_nodes_commit_and_ack_a_real_client() {
    // A 32-round burst, then one round per 7 ms: ≈ 1.2 s.
    cluster_commits_and_acks(Protocol::Fbft, 200, "fbft");
}

/// A zero pacing value is refused before the node binds anything: a zero
/// base timeout would fire forever, and a zero δ opens every epoch at
/// once and commits nothing.
#[test]
fn zero_delta_or_base_timeout_is_an_error() {
    let _alone = one_cluster();
    let root = scratch_root("zero-pacing");
    let peers = free_addrs(N);
    for protocol in [Protocol::Streamlet, Protocol::Fbft] {
        let opts = node_opts(&peers, 0..1, protocol, 20, Duration::from_secs(1), &root).remove(0);
        for (delta, base_timeout) in [
            (Duration::ZERO, opts.base_timeout),
            (opts.delta, Duration::ZERO),
        ] {
            let mut zero = opts.clone();
            (zero.delta, zero.base_timeout) = (delta, base_timeout);
            let accepted = run_node(&zero).is_ok();
            assert!(
                !accepted,
                "{protocol:?}: {delta:?}, {base_timeout:?} accepted"
            );
        }
    }
    let _ = std::fs::remove_dir_all(root);
}

/// A client that submits and never reads: it re-submits one transaction
/// — each copy answered at once with a `Duplicate` ack — until the
/// gateway hangs up on it. Returns how many requests that took, or
/// `None` if the gateway was still taking them when `give_up` passed.
fn submit_without_reading(addr: SocketAddr, give_up: Instant) -> Option<u64> {
    let mut sock = loop {
        match TcpStream::connect(addr) {
            Ok(sock) => break sock,
            Err(_) if Instant::now() < give_up => std::thread::sleep(Duration::from_millis(10)),
            Err(_) => return None,
        }
    };
    let (me, replica) = (ReplicaId::new(666), ReplicaId::new(0));
    let frame =
        |payload: Vec<u8>| Envelope::to_peer(me, replica, ProtocolTag::Client, payload).to_frame();
    let request = ClientRequest::new(Transaction::new(666, 0, vec![0xEE; 16]), 0);
    let copy = frame(ClientFrame::Request(request).to_bytes());
    let burst: Vec<u8> = copy
        .iter()
        .copied()
        .cycle()
        .take(copy.len() * 1000)
        .collect();
    sock.write_all(&frame(Vec::new())).ok()?;
    let mut sent = 0;
    while Instant::now() < give_up {
        if sock.write_all(&burst).is_err() {
            return Some(sent);
        }
        sent += 1000;
        // 100k requests/s: enough to fill socket buffers and ring within
        // a second, not so many that a debug-build engine falls behind.
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

#[test]
fn a_client_that_never_reads_is_cut_off_and_costs_the_replicas_no_rounds() {
    const EPOCHS: u64 = 200;
    let _alone = one_cluster();
    let root = scratch_root("stalled-client");
    let peers = free_addrs(N);
    let opts = node_opts(
        &peers,
        0..N,
        Protocol::Fbft,
        EPOCHS,
        Duration::from_secs(1),
        &root,
    );
    let gateway = peers[0];
    let (outcomes, (acked, cut_off)) = run_nodes(&opts, || {
        let give_up = Instant::now() + Duration::from_secs(10);
        let stalled = std::thread::spawn(move || submit_without_reading(gateway, give_up));
        (one_window_of_acks(gateway), stalled.join().unwrap())
    });
    let requests = cut_off.expect("the gateway hung up on the client that never reads");
    assert_eq!(acked, CLIENT_TXNS, "the reading client is fully acked");
    for outcome in &outcomes {
        assert!(
            outcome.round > EPOCHS,
            "a replica stalled at round {}",
            outcome.round
        );
    }
    assert!(
        outcomes[0].dropped > 0,
        "the cut-off client's acks are counted drops ({requests} requests sent)"
    );
    assert_committed_in_agreement(&opts, &outcomes);
    let _ = std::fs::remove_dir_all(root);
}

/// A dead-or-stuck peer's links only ever queue: at this run length the
/// socket buffers absorb what is sent to it, and past them its ring drops
/// and counts (forced in `sft-network`'s
/// `frames_to_a_peer_that_never_reads_are_counted_drops_not_waits`).
#[test]
fn a_peer_that_never_reads_costs_the_others_no_rounds() {
    const EPOCHS: u64 = 40;
    let _alone = one_cluster();
    let root = scratch_root("stalled-peer");
    let peers = free_addrs(N);
    // Replica 3 is a listener that accepts and never reads a byte. The
    // others form a quorum; the rounds it leads time out quickly.
    let sink = TcpListener::bind(peers[3]).expect("replica 3's address");
    sink.set_nonblocking(true).unwrap();
    let opts = node_opts(
        &peers,
        0..N - 1,
        Protocol::Fbft,
        EPOCHS,
        Duration::from_millis(100),
        &root,
    );
    let stop = AtomicBool::new(false);
    let (outcomes, held) = std::thread::scope(|scope| {
        let sink = scope.spawn(|| {
            let mut held = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match sink.accept() {
                    Ok((sock, _)) => held.push(sock),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            held.len()
        });
        let (outcomes, ()) = run_nodes(&opts, || ());
        stop.store(true, Ordering::SeqCst);
        (outcomes, sink.join().unwrap())
    });
    assert!(held >= N - 1, "every replica dialled the sink");
    for outcome in &outcomes {
        assert!(
            outcome.round > EPOCHS,
            "a replica stalled at round {} ({} frames dropped toward the sink)",
            outcome.round,
            outcome.dropped
        );
    }
    assert_committed_in_agreement(&opts, &outcomes);
    let _ = std::fs::remove_dir_all(root);
}
