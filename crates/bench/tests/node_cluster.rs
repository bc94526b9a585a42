//! The deployed path, end to end, in tier-1: four `run_node` replicas —
//! what four `sft-node` processes run, here on four threads — over
//! loopback sockets with their WALs on disk, and one real client dialled
//! into replica 0's gateway.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use sft_bench::node::{run_node, NodeOpts, NodeOutcome, COMMIT_FILE_NAME};
use sft_core::WalStore;
use sft_loadgen::{run_client, ClientConfig};
use sft_sim::Protocol;
use sft_types::ReplicaId;

const N: usize = 4;

/// Transactions the client submits, all in one window: replica 0 batches
/// them into the first block it leads after they arrive.
const CLIENT_TXNS: u64 = 4;

/// Reserves `N` distinct loopback ports by bind-then-drop.
fn free_addrs() -> Vec<SocketAddr> {
    let holds: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    holds.iter().map(|l| l.local_addr().unwrap()).collect()
}

/// Dials replica 0's gateway (retrying while the node is still binding)
/// and returns how many of the client's transactions came back
/// `Committed` at the standard-commit strength.
fn client_acks(addr: SocketAddr) -> u64 {
    let config = ClientConfig {
        total: CLIENT_TXNS,
        window: CLIENT_TXNS as usize,
        ack_at: (N as u64 - 1) / 3,
        deadline: Duration::from_secs(20),
        ..ClientConfig::smoke(addr, ReplicaId::new(0), 1000)
    };
    let give_up = Instant::now() + config.deadline;
    loop {
        match run_client(&config) {
            Ok(report) => return report.committed,
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                assert!(
                    Instant::now() < give_up,
                    "replica 0's gateway never came up"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("client: {e}"),
        }
    }
}

/// One cluster at a time: a port reserved by bind-then-drop is only this
/// test's until some other test in the process asks for a free one.
static ONE_CLUSTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn cluster_commits_and_acks(protocol: Protocol, epochs: u64, tag: &str) {
    let _alone = ONE_CLUSTER.lock().unwrap_or_else(|e| e.into_inner());
    let root = std::env::temp_dir().join(format!("sft-node-cluster-{}-{tag}", std::process::id()));
    let peers = free_addrs();
    // Genesis slightly in the future, so every replica is up before the
    // first epoch opens and all protocol clocks tick in lockstep.
    let start_at = (SystemTime::now() + Duration::from_millis(300))
        .duration_since(UNIX_EPOCH)
        .unwrap();
    let opts: Vec<NodeOpts> = (0..N)
        .map(|id| NodeOpts {
            id: id as u16,
            listen: peers[id],
            peers: peers.clone(),
            protocol,
            data_dir: root.join(format!("node-{id}")),
            epochs,
            budget: Duration::from_secs(20),
            linger: Duration::from_millis(300),
            delta: Duration::from_millis(50),
            base_timeout: Duration::from_millis(1000),
            start_at: Some(start_at),
            trace_out: None,
        })
        .collect();

    let (outcomes, acked): (Vec<NodeOutcome>, u64) = std::thread::scope(|scope| {
        let nodes: Vec<_> = opts
            .iter()
            .map(|opts| scope.spawn(move || run_node(opts).expect("node ran to completion")))
            .collect();
        let client = scope.spawn(|| client_acks(peers[0]));
        let outcomes = nodes.into_iter().map(|n| n.join().unwrap()).collect();
        (outcomes, client.join().unwrap())
    });

    assert_eq!(acked, CLIENT_TXNS, "every submitted transaction acked");
    let chains: Vec<Vec<String>> = opts
        .iter()
        .map(|opts| {
            let body = std::fs::read_to_string(opts.data_dir.join(COMMIT_FILE_NAME)).unwrap();
            body.lines().map(str::to_string).collect()
        })
        .collect();
    for (id, (chain, outcome)) in chains.iter().zip(&outcomes).enumerate() {
        assert!(!chain.is_empty(), "replica {id} committed nothing");
        assert_eq!(chain, &outcome.committed, "commit.out is the report");
        let shared = chain.len().min(chains[0].len());
        assert_eq!(
            chain[..shared],
            chains[0][..shared],
            "replicas 0 and {id} disagree on their committed prefix"
        );
    }
    for (opts, outcome) in opts.iter().zip(&outcomes) {
        let wal = WalStore::open(&opts.data_dir, 1).expect("wal re-opens");
        assert!(!wal.tail_truncated(), "replica {} left a torn log", opts.id);
        assert_eq!(
            wal.recovered().len() as u64,
            outcome.appended,
            "replica {}'s log holds what it reported appending",
            opts.id
        );
    }
    let _ = std::fs::remove_dir_all::<PathBuf>(root);
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
