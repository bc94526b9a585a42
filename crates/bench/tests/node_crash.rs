//! The kill −9 drill against real `sft-node` processes.
//!
//! Each cell spawns n `sft-node` processes on free loopback ports, waits
//! until the victim (replica 1) has durable consensus state, kills it
//! with SIGKILL mid-run, restarts it on the same data directory, and at
//! the end asserts:
//!
//! 1. every replica's `commit.out` agrees on the common committed prefix;
//! 2. the victim's final chain preserves every block its pre-crash WAL
//!    had committed — recovery lost nothing;
//! 3. the victim made progress past its pre-crash prefix;
//! 4. the victim's NDJSON trace (`trace.ndjson`, both incarnations
//!    appended) shows the restarted incarnation finishing its WAL replay,
//!    with every pre-crash committed block restored, *before* it cast its
//!    first vote — recovery ordering, reconstructed from the event
//!    timeline rather than inferred from exit state (an amnesiac restart
//!    would catch up by block sync and pass verdicts 1–3);
//! 5. a client that dialed replica 0's gateway while all this went on got
//!    a `Committed` ack for every transaction it submitted — the deployed
//!    binary serves clients, not only the in-process cluster;
//! 6. just before the kill, no live node ran more threads than
//!    [`NODE_THREADS`] (read from `/proc/<pid>/status`): three threads for
//!    any `n` and any number of clients;
//! 7. every incarnation that ran to completion (its trace ends in a
//!    `node_stop`) issued at most [`FSYNCS_PER_BLOCK`] WAL fsyncs per
//!    block it committed — on a real filesystem, the on-demand WAL's one
//!    fsync per round — and, running SFT-DiemBFT, sent at most
//!    [`FBFT_MESSAGES_PER_BLOCK`] peer messages per block: votes go to the
//!    next leader only, so a node sends about 3 − 3/n a round, where
//!    broadcast votes cost about n. The ratios are taken over the run's
//!    course — the counts `node_stop` records for when the node's stop
//!    rule first held — not over the linger that follows, in which the
//!    node keeps committing rounds for its slower peers. Every node's
//!    ratios are printed.
//!
//! The cells are `#[ignore]`d (each runs a real cluster for up to the
//! 45 s budget); run them in a release build:
//!
//! ```text
//! cargo test --release -p sft-bench --test node_crash -- --ignored --nocapture
//! ```
//!
//! A cell keeps its data directories (WALs, traces, commit files) under
//! `$CARGO_TARGET_TMPDIR/node-crash-<cell>/` when it fails and deletes
//! them when it passes. Every spawned node is killed and reaped when the
//! cell ends, however it ends.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sft_core::{scan_wal, WalRecord, WAL_FILE_NAME};
use sft_obs::names;

#[path = "support/cluster.rs"]
mod cluster;
use cluster::{client_acks, committed_chains, free_addrs, one_cluster, CLIENT_TXNS};

/// The replica that gets killed and restarted (the client dials replica
/// 0, never the victim).
const VICTIM: usize = 1;

/// The victim is killed once its WAL holds this many records.
const KILL_AFTER_RECORDS: usize = 8;

/// Each node's wall-clock budget; a 30 s grace window past it caps the
/// whole cell.
const BUDGET: Duration = Duration::from_secs(45);

/// Per-node NDJSON trace file, appended across incarnations.
const TRACE_FILE_NAME: &str = "trace.ndjson";

/// Threads one `sft-node` runs for any `n`: the engine's (which does the
/// transport's socket I/O too), the group-commit WAL writer, and the
/// transport's dialer.
const NODE_THREADS: usize = 3;

/// Verdict 7's budget: WAL fsyncs per committed block. The group-commit
/// WAL syncs once per round, when the replica's vote goes out; rounds
/// that time out, and a restarted replica's catch-up, move it a little.
const FSYNCS_PER_BLOCK: f64 = 1.5;

/// Verdict 7's other budget: peer messages one SFT-DiemBFT node sends
/// per committed block. Per round a node sends its vote (unless it leads
/// the next round) and, one round in n, a proposal and a bare certificate
/// to its n − 1 peers; timeouts and a restarted replica's catch-up move it
/// a little.
const FBFT_MESSAGES_PER_BLOCK: f64 = 4.0;

/// Every node a cell spawned, replica `i` at index `i`. Dropping the
/// guard — at the end of a cell or while a failed assertion unwinds —
/// kills and reaps each one still running: dropping a `Child` does not.
#[derive(Default)]
struct Nodes(Vec<Child>);

impl Drop for Nodes {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_node(
    protocol: &str,
    epochs: u64,
    peers: &str,
    id: usize,
    dir: &Path,
    genesis_unix_ms: u128,
) -> Child {
    Command::new(env!("CARGO_BIN_EXE_sft-node"))
        .args([
            "--id",
            &id.to_string(),
            "--peers",
            peers,
            "--data-dir",
            &dir.display().to_string(),
            "--protocol",
            protocol,
            "--epochs",
            &epochs.to_string(),
            "--budget-ms",
            &BUDGET.as_millis().to_string(),
            // Long linger: finished peers keep answering block-sync so
            // the restarted victim can catch up before anyone exits.
            "--linger-ms",
            "8000",
            // One shared genesis instant: every incarnation — the restart
            // included — runs the same cluster-wide protocol clock.
            "--start-at-unix-ms",
            &genesis_unix_ms.to_string(),
            // Appended across incarnations, so the kill and the restart
            // land in one reconstructable timeline.
            "--trace-out",
            &dir.join(TRACE_FILE_NAME).display().to_string(),
        ])
        .spawn()
        .unwrap_or_else(|e| panic!("spawning replica {id}: {e}"))
}

/// Block hashes the WAL says were committed, in commit order.
fn committed_in_wal(dir: &Path) -> Vec<String> {
    let bytes = std::fs::read(dir.join(WAL_FILE_NAME)).expect("the victim's WAL");
    let scan = scan_wal(&bytes).expect("the victim's WAL scans");
    scan.records
        .iter()
        .filter_map(|r| match r {
            WalRecord::BlockCommitted(block) => Some(format!("{}", block.id())),
            _ => None,
        })
        .collect()
}

fn wal_record_count(dir: &Path) -> usize {
    let Ok(bytes) = std::fs::read(dir.join(WAL_FILE_NAME)) else {
        return 0;
    };
    scan_wal(&bytes).map_or(0, |scan| scan.records.len())
}

fn read_trace(dir: &Path) -> Vec<sft_obs::OwnedTraceEvent> {
    let path = dir.join(TRACE_FILE_NAME);
    sft_obs::read_trace(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Verdict 6: every live node's `Threads:` count from
/// `/proc/<pid>/status`, printed, and held to [`NODE_THREADS`].
fn check_thread_counts(nodes: &[Child]) {
    let counts: Vec<usize> = nodes
        .iter()
        .map(|child| {
            let path = format!("/proc/{}/status", child.id());
            let status = std::fs::read_to_string(&path).expect("a live node's status");
            status
                .lines()
                .find_map(|line| line.strip_prefix("Threads:"))
                .and_then(|count| count.trim().parse().ok())
                .unwrap_or_else(|| panic!("{path} names no thread count"))
        })
        .collect();
    println!("drill: threads per node {counts:?} — budget {NODE_THREADS}");
    for (id, threads) in counts.into_iter().enumerate() {
        assert!(
            threads <= NODE_THREADS,
            "replica {id} runs {threads} threads; the budget is {NODE_THREADS} at n = {}",
            nodes.len()
        );
    }
}

/// Verdict 7: every completed incarnation's fsyncs and peer messages
/// over its committed blocks, as they stood when its stop rule first held
/// (`done_wal_fsyncs`, `done_messages` and `done_blocks` of the
/// `node_stop` events of each node's trace), printed and held to
/// [`FSYNCS_PER_BLOCK`] and (SFT-DiemBFT only)
/// [`FBFT_MESSAGES_PER_BLOCK`].
fn check_stop_budgets(dirs: &[PathBuf], protocol: &str) {
    for (id, dir) in dirs.iter().enumerate() {
        for stop in read_trace(dir)
            .iter()
            .filter(|e| e.name == names::EV_NODE_STOP)
        {
            let count = |key| {
                stop.get(key)
                    .unwrap_or_else(|| panic!("replica {id}'s node_stop lacks {key}"))
            };
            let (fsyncs, messages, blocks) = (
                count("done_wal_fsyncs"),
                count("done_messages"),
                count("done_blocks"),
            );
            let per_block = |count: u64| count as f64 / blocks.max(1) as f64;
            let (fsync_ratio, message_ratio) = (per_block(fsyncs), per_block(messages));
            println!(
                "drill: replica {id} per committed block over {blocks} blocks before the \
                 linger: {fsync_ratio:.2} WAL fsyncs (budget {FSYNCS_PER_BLOCK}), \
                 {message_ratio:.2} peer messages"
            );
            assert!(
                fsync_ratio <= FSYNCS_PER_BLOCK,
                "replica {id} issued {fsyncs} WAL fsyncs for {blocks} committed blocks \
                 ({fsync_ratio:.2} per block; the budget is {FSYNCS_PER_BLOCK})"
            );
            // Streamlet broadcasts its votes: no message budget.
            assert!(
                protocol != "fbft" || message_ratio <= FBFT_MESSAGES_PER_BLOCK,
                "replica {id} sent {messages} peer messages for {blocks} committed blocks \
                 ({message_ratio:.2} per block; the budget is {FBFT_MESSAGES_PER_BLOCK})"
            );
        }
    }
}

/// Verdict 4: the restarted incarnation's trace must show WAL replay
/// completing — with records replayed and all `pre_crash` committed
/// blocks restored — before its first outbound vote. File order is the ordering authority: the sink writes
/// whole lines in event order, so index comparison needs no clock.
fn verify_recovery_timeline(dir: &Path, pre_crash: usize) {
    let events = read_trace(dir);
    let restart = events
        .iter()
        .rposition(|e| e.name == names::EV_NODE_START)
        .expect("victim trace has node_start events");
    assert!(
        restart > 0,
        "victim trace shows only one incarnation; the restart never logged"
    );
    let tail = &events[restart..];
    let position = |name: &str| tail.iter().position(|e| e.name == name);
    let replay =
        position(names::EV_WAL_REPLAY_DONE).expect("restarted incarnation finished its WAL replay");
    let records = tail[replay].get("records").unwrap_or(0);
    assert!(records > 0, "restarted incarnation replayed an empty WAL");
    let blocks = tail[replay].get("blocks").unwrap_or(0);
    assert!(
        blocks >= pre_crash as u64,
        "restarted incarnation's replay restored {blocks} of {pre_crash} committed blocks"
    );
    let vote = position(names::EV_VOTE).expect("restarted incarnation voted");
    assert!(
        vote > replay,
        "restarted incarnation voted (event {vote}) before WAL replay completed \
         (event {replay}) — recovery ordering violated"
    );
    println!(
        "drill: restart timeline OK — {records} records and {blocks} committed blocks \
         replayed (event {replay}) before the first vote (event {vote})"
    );
}

/// Waits for every node to exit successfully by `deadline`.
fn await_all(nodes: &mut [Child], deadline: Instant) {
    loop {
        let mut running = 0;
        for (id, child) in nodes.iter_mut().enumerate() {
            match child.try_wait().expect("waiting on a node") {
                Some(status) => assert!(status.success(), "replica {id} exited with {status}"),
                None => running += 1,
            }
        }
        if running == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{running} replica(s) still running at the deadline"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The `--peers` value for a cluster on `addrs`.
fn peer_table(addrs: &[SocketAddr]) -> String {
    let addrs: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
    addrs.join(",")
}

/// A cell's data directory, emptied of any earlier failed run's files.
fn fresh_root(cell: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("node-crash-{cell}"));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn drill(protocol: &str, n: usize, epochs: u64) {
    let _alone = one_cluster();
    let root = fresh_root(&format!("{protocol}-n{n}"));
    let dirs: Vec<PathBuf> = (0..n).map(|i| root.join(format!("node-{i}"))).collect();
    for dir in &dirs {
        std::fs::create_dir_all(dir).expect("a node's data directory");
    }
    let addrs = free_addrs(n);
    let peers = peer_table(&addrs);
    println!(
        "drill: {n} x {protocol} sft-node ({peers}), epochs {epochs}, data under {}",
        root.display()
    );
    let genesis_unix_ms = cluster::genesis(Duration::from_millis(500)).as_millis();
    let spawn = |id: usize| spawn_node(protocol, epochs, &peers, id, &dirs[id], genesis_unix_ms);

    let deadline = Instant::now() + BUDGET + Duration::from_secs(30);
    let mut nodes = Nodes::default();
    for id in 0..n {
        nodes.0.push(spawn(id));
    }
    // A real client rides along for the whole run, crash included: two
    // windows, each waiting for a block replica 0 leads to commit.
    let gateway = addrs[0];
    let client = std::thread::spawn(move || client_acks(gateway, n, 2, BUDGET / 2));

    // Phase 1: wait until the victim has durable consensus state worth
    // losing, then SIGKILL it mid-run — no shutdown path runs.
    let kill_deadline = Instant::now() + BUDGET / 2;
    while wal_record_count(&dirs[VICTIM]) < KILL_AFTER_RECORDS {
        assert!(
            Instant::now() < kill_deadline,
            "victim reached only {} WAL records before the kill deadline",
            wal_record_count(&dirs[VICTIM])
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    check_thread_counts(&nodes.0);
    nodes.0[VICTIM].kill().expect("kill -9");
    let _ = nodes.0[VICTIM].wait();
    let pre_crash = committed_in_wal(&dirs[VICTIM]);
    println!(
        "drill: killed replica {VICTIM} with {} WAL records ({} committed blocks)",
        wal_record_count(&dirs[VICTIM]),
        pre_crash.len()
    );

    // Phase 2: restart on the same data directory; recovery replays the
    // WAL before the node rejoins.
    nodes.0[VICTIM] = spawn(VICTIM);
    await_all(&mut nodes.0, deadline);

    // Phase 3: verdicts.
    let chains = committed_chains(&dirs);
    let victim_chain = &chains[VICTIM];
    assert!(
        victim_chain.starts_with(&pre_crash),
        "recovery lost committed state: {} blocks pre-crash, final chain {victim_chain:?}",
        pre_crash.len()
    );
    assert!(
        victim_chain.len() > pre_crash.len(),
        "restarted victim made no progress past its pre-crash prefix"
    );
    verify_recovery_timeline(&dirs[VICTIM], pre_crash.len());
    check_stop_budgets(&dirs, protocol);
    let acked = client.join().expect("the client ran");
    assert_eq!(
        acked, CLIENT_TXNS,
        "client transactions acked Committed by a real sft-node"
    );
    println!(
        "drill OK: prefixes agree on {n} replicas; victim kept {} pre-crash blocks \
         and committed {} more after restart",
        pre_crash.len(),
        victim_chain.len() - pre_crash.len()
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// 100 rounds: verdict 7 divides by the blocks committed before the
/// linger, and the victim's restart costs a fixed handful of messages
/// (block-sync requests, a timeout), which 12 rounds — all inside the
/// 32-round burst, with the victim back for its last 3 to 5 — could not
/// amortize.
#[test]
#[ignore = "real processes for up to 45 s; CI runs it with --ignored"]
fn fbft_n4_recovers_from_kill_9() {
    drill("fbft", 4, 100);
}

/// A second size, so the per-node thread budget (which must not grow
/// with n) is checked twice.
#[test]
#[ignore = "real processes for up to 45 s; CI runs it with --ignored"]
fn fbft_n7_recovers_from_kill_9() {
    drill("fbft", 7, 100);
}

/// 60 epochs: the client's two windows each wait for a block led by
/// replica 0 (one epoch in four) to commit, and 30 left the second no
/// margin.
#[test]
#[ignore = "real processes for up to 45 s; CI runs it with --ignored"]
fn streamlet_n4_recovers_from_kill_9() {
    drill("streamlet", 4, 60);
}

/// A failed verdict mid-drill leaves no `sft-node` behind: the guard
/// kills and reaps a node that would otherwise run out its ten-minute
/// budget, waiting for peers that never come.
#[test]
fn a_failed_verdict_leaves_no_node_running() {
    let _alone = one_cluster();
    let root = fresh_root("guard");
    let peers = peer_table(&free_addrs(4));
    let mut pid = 0;
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut nodes = Nodes::default();
        let node = Command::new(env!("CARGO_BIN_EXE_sft-node"))
            .args(["--id", "0", "--peers", &peers, "--budget-ms", "600000"])
            .arg("--data-dir")
            .arg(&root)
            .stderr(Stdio::null())
            .spawn();
        nodes.0.push(node.expect("spawning sft-node"));
        pid = nodes.0[0].id();
        let running = nodes.0[0].try_wait().expect("a child").is_none();
        assert!(running, "the node runs until the verdict fails");
        panic!("a verdict failed");
    }));
    assert!(
        unwound.is_err() && pid != 0,
        "the node ran and the drill failed"
    );
    let left = Path::new(&format!("/proc/{pid}")).exists();
    if left {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
    let _ = std::fs::remove_dir_all(&root);
    assert!(!left, "sft-node {pid} outlived the failed drill");
}
