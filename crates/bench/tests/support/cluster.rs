//! What the two real-cluster suites share — `node_cluster.rs` (n
//! `run_node` threads) and `node_crash.rs` (n `sft-node` processes):
//! ports, the genesis instant, a real client, and the committed-prefix
//! check over each replica's `commit.out`.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use sft_bench::node::COMMIT_FILE_NAME;
use sft_loadgen::{run_client, ClientConfig};
use sft_types::ReplicaId;

/// Transactions the client submits and must see acked `Committed`.
pub const CLIENT_TXNS: u64 = 4;

/// One cluster at a time: a port reserved by bind-then-drop is only this
/// test's until some other test in the process asks for a free one.
static ONE_CLUSTER: Mutex<()> = Mutex::new(());

/// Holds the process's one cluster slot until dropped (a failed cell
/// poisons the lock; the next cell takes it anyway).
pub fn one_cluster() -> MutexGuard<'static, ()> {
    ONE_CLUSTER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Reserves `count` distinct loopback ports by bind-then-drop.
pub fn free_addrs(count: usize) -> Vec<SocketAddr> {
    let holds: Vec<TcpListener> = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    holds.iter().map(|l| l.local_addr().unwrap()).collect()
}

/// A genesis instant `lead` from now, as a duration since the UNIX epoch:
/// every replica is up before the first epoch opens, and all protocol
/// clocks — a restarted replica's included — tick in lockstep.
pub fn genesis(lead: Duration) -> Duration {
    (SystemTime::now() + lead)
        .duration_since(UNIX_EPOCH)
        .unwrap()
}

/// Dials replica 0's gateway of an `n`-replica cluster (retrying while
/// the node is still binding), keeps `window` of [`CLIENT_TXNS`]
/// transactions in flight at the standard-commit strength, and returns
/// how many came back `Committed` before `deadline`.
pub fn client_acks(addr: SocketAddr, n: usize, window: usize, deadline: Duration) -> u64 {
    let config = ClientConfig {
        total: CLIENT_TXNS,
        window,
        ack_at: (n as u64 - 1) / 3,
        deadline,
        ..ClientConfig::smoke(addr, ReplicaId::new(0), 1000)
    };
    let give_up = Instant::now() + deadline;
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

/// Every replica's `commit.out` under `dirs`: each committed something,
/// and all agree on their common prefix.
pub fn committed_chains(dirs: &[PathBuf]) -> Vec<Vec<String>> {
    let chains: Vec<Vec<String>> = dirs
        .iter()
        .map(|dir| {
            let path = dir.join(COMMIT_FILE_NAME);
            let body = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            body.lines().map(str::to_string).collect()
        })
        .collect();
    for (id, chain) in chains.iter().enumerate() {
        assert!(!chain.is_empty(), "replica {id} committed nothing");
        let shared = chain.len().min(chains[0].len());
        assert_eq!(
            chain[..shared],
            chains[0][..shared],
            "replicas 0 and {id} disagree on their committed prefix"
        );
    }
    chains
}
