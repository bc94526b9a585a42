//! `crash-harness`: the kill−9 acceptance test for `sft-node` recovery.
//!
//! ```text
//! crash-harness [flags]
//!   --protocol P          streamlet | fbft        (default streamlet)
//!   --replicas N          process count           (default 4)
//!   --epochs E            target epochs/rounds    (default 30)
//!   --budget-ms MS        per-node wall budget    (default 60000)
//!   --kill-after-records K  kill the victim once its WAL holds >= K
//!                           records               (default 8)
//!   --data-root DIR       keep data dirs here instead of a temp dir
//! ```
//!
//! The harness spawns `n` `sft-node` processes on free loopback ports,
//! waits until the victim (replica 1) has durable consensus state, kills
//! it with SIGKILL mid-run, restarts it on the same data directory, and
//! at the end asserts:
//!
//! 1. every replica's `commit.out` agrees on the common committed prefix;
//! 2. the victim's final chain preserves every block its pre-crash WAL
//!    had committed — recovery lost nothing;
//! 3. the victim made progress past its pre-crash prefix;
//! 4. the victim's NDJSON trace (`trace.ndjson`, both incarnations
//!    appended) shows the restarted incarnation finishing its WAL replay
//!    *before* it cast its first vote — recovery ordering, reconstructed
//!    from the event timeline rather than inferred from exit state;
//! 5. a client that dialed replica 0's gateway while all this went on got
//!    a `Committed` ack for every transaction it submitted — the deployed
//!    binary serves clients, not only the in-process harness;
//! 6. just before the kill, no live node ran more threads than
//!    [`NODE_THREADS`] (read from `/proc/<pid>/status`) — a budget that
//!    does not grow with `n` or with the number of clients;
//! 7. every incarnation that ran to completion (its trace ends in a
//!    `node_stop`) issued at most [`FSYNCS_PER_BLOCK`] WAL fsyncs per
//!    block it committed — on a real filesystem, the on-demand WAL's one
//!    fsync per round. Every node's ratio is printed.
//!
//! Exit status is the CI verdict; data directories are left in place on
//! failure (and printed) so they can be uploaded as artifacts.

#![deny(unsafe_code)]

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use sft_core::{scan_wal, WalRecord, WAL_FILE_NAME};
use sft_loadgen::{run_client, ClientConfig};
use sft_obs::names;
use sft_types::ReplicaId;

/// The replica that gets killed and restarted.
const VICTIM: usize = 1;

/// The replica the client dials (never the victim).
const GATEWAY: usize = 0;

/// Transactions the client submits and must see committed.
const CLIENT_TXNS: u64 = 4;

/// Per-node NDJSON trace file, appended across incarnations.
const TRACE_FILE_NAME: &str = "trace.ndjson";

/// Threads one `sft-node` runs for any `n`: the engine's, the
/// group-commit WAL writer, and the transport's I/O thread, writer and
/// dialer.
const NODE_THREADS: usize = 5;

/// The per-node thread budget at `n`: [`NODE_THREADS`], plus the fixed
/// signature-verification pool once a quorum batch can reach its
/// parallel threshold.
fn thread_budget(n: usize) -> usize {
    let pool = if n >= sft_crypto::PARALLEL_THRESHOLD {
        sft_crypto::pool_workers()
    } else {
        0
    };
    NODE_THREADS + pool
}

/// Verdict 6: every live node's `Threads:` count from
/// `/proc/<pid>/status`, printed, and held to [`thread_budget`].
fn check_thread_counts(children: &[(usize, Child)], n: usize) -> Result<(), String> {
    let budget = thread_budget(n);
    let mut counts = Vec::with_capacity(children.len());
    for (id, child) in children {
        let path = format!("/proc/{}/status", child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let threads: usize = status
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .and_then(|count| count.trim().parse().ok())
            .ok_or_else(|| format!("{path} names no thread count"))?;
        counts.push(format!("{id}:{threads}"));
        if threads > budget {
            return Err(format!(
                "replica {id} runs {threads} threads; the budget is {budget} at n = {n}"
            ));
        }
    }
    println!(
        "crash-harness: threads per node (replica:count) {} — budget {budget}",
        counts.join(" ")
    );
    Ok(())
}

/// Verdict 7's budget: WAL fsyncs per committed block. The group-commit
/// WAL syncs once per round, when the replica's vote goes out; rounds
/// that time out, and a restarted replica's catch-up, move it a little.
const FSYNCS_PER_BLOCK: f64 = 1.5;

/// Verdict 7: every completed incarnation's `wal_fsyncs` over its
/// committed `blocks`, from the `node_stop` events of each node's trace,
/// printed and held to [`FSYNCS_PER_BLOCK`].
fn check_fsync_budget(dirs: &[PathBuf]) -> Result<(), String> {
    let mut ratios = Vec::new();
    for (id, dir) in dirs.iter().enumerate() {
        let path = dir.join(TRACE_FILE_NAME);
        let events =
            sft_obs::read_trace(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        for stop in events.iter().filter(|e| e.name == names::EV_NODE_STOP) {
            let (Some(fsyncs), Some(blocks)) = (stop.get("wal_fsyncs"), stop.get("blocks")) else {
                return Err(format!("replica {id}'s node_stop lacks its fsync count"));
            };
            let ratio = fsyncs as f64 / blocks.max(1) as f64;
            ratios.push(format!("{id}:{ratio:.2}"));
            if ratio > FSYNCS_PER_BLOCK {
                return Err(format!(
                    "replica {id} issued {fsyncs} WAL fsyncs for {blocks} committed blocks \
                     ({ratio:.2} per block; the budget is {FSYNCS_PER_BLOCK})"
                ));
            }
        }
    }
    println!(
        "crash-harness: WAL fsyncs per committed block (replica:ratio, one per completed run) \
         {} — budget {FSYNCS_PER_BLOCK}",
        ratios.join(" ")
    );
    Ok(())
}

struct Args {
    protocol: String,
    n: usize,
    epochs: u64,
    budget: Duration,
    kill_after_records: usize,
    data_root: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        protocol: "streamlet".to_string(),
        n: 4,
        epochs: 30,
        budget: Duration::from_secs(60),
        kill_after_records: 8,
        data_root: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            iter.next().ok_or(format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--protocol" => {
                let v = value("--protocol")?;
                if v != "streamlet" && v != "fbft" {
                    return Err(format!("unknown protocol {v:?}"));
                }
                args.protocol = v.clone();
            }
            "--replicas" => {
                let v = value("--replicas")?;
                args.n = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 4)
                    .ok_or_else(|| format!("bad replica count {v:?}; need >= 4"))?;
            }
            "--epochs" => {
                let v = value("--epochs")?;
                args.epochs = v.parse().map_err(|_| format!("bad epoch count {v:?}"))?;
            }
            "--budget-ms" => {
                let v = value("--budget-ms")?;
                args.budget = v
                    .parse::<u64>()
                    .map(Duration::from_millis)
                    .map_err(|_| format!("bad budget {v:?}"))?;
            }
            "--kill-after-records" => {
                let v = value("--kill-after-records")?;
                args.kill_after_records = v
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or_else(|| format!("bad record count {v:?}"))?;
            }
            "--data-root" => args.data_root = Some(value("--data-root")?.into()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(args)
}

/// Reserves `count` distinct loopback ports by bind-then-drop.
fn free_addrs(count: usize) -> Vec<String> {
    let holds: Vec<TcpListener> = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    holds
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

/// The `sft-node` binary sits next to this one in the target directory.
fn node_binary() -> PathBuf {
    let mut path = std::env::current_exe().expect("own path");
    path.set_file_name(if cfg!(windows) {
        "sft-node.exe"
    } else {
        "sft-node"
    });
    path
}

fn spawn_node(
    args: &Args,
    peers: &str,
    id: usize,
    dir: &Path,
    genesis_unix_ms: u128,
) -> std::io::Result<Child> {
    Command::new(node_binary())
        .args([
            "--id",
            &id.to_string(),
            "--peers",
            peers,
            "--data-dir",
            &dir.display().to_string(),
            "--protocol",
            &args.protocol,
            "--epochs",
            &args.epochs.to_string(),
            "--budget-ms",
            &args.budget.as_millis().to_string(),
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
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
}

/// Block hashes the WAL says were committed, in commit order.
fn committed_in_wal(dir: &Path) -> Result<Vec<String>, String> {
    let path = dir.join(WAL_FILE_NAME);
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let scan = scan_wal(&bytes).map_err(|e| format!("scanning {}: {e}", path.display()))?;
    Ok(scan
        .records
        .iter()
        .filter_map(|r| match r {
            WalRecord::BlockCommitted(block) => Some(format!("{}", block.id())),
            _ => None,
        })
        .collect())
}

fn wal_record_count(dir: &Path) -> usize {
    let Ok(bytes) = std::fs::read(dir.join(WAL_FILE_NAME)) else {
        return 0;
    };
    scan_wal(&bytes).map_or(0, |scan| scan.records.len())
}

/// Verdict 4: the restarted incarnation's trace must show WAL replay
/// completing — with records actually replayed — before its first
/// outbound vote. File order is the ordering authority: the sink writes
/// whole lines in event order, so index comparison needs no clock.
fn verify_recovery_timeline(dir: &Path) -> Result<(), String> {
    let path = dir.join(TRACE_FILE_NAME);
    let events =
        sft_obs::read_trace(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let restart = events
        .iter()
        .rposition(|e| e.name == names::EV_NODE_START)
        .ok_or("victim trace has no node_start events")?;
    if restart == 0 {
        return Err("victim trace shows only one incarnation; the restart never logged".into());
    }
    let tail = &events[restart..];
    let replay = tail
        .iter()
        .position(|e| e.name == names::EV_WAL_REPLAY_DONE)
        .ok_or("restarted incarnation never finished WAL replay")?;
    let records = tail[replay].get("records").unwrap_or(0);
    if records == 0 {
        return Err("restarted incarnation replayed an empty WAL".into());
    }
    let vote = tail
        .iter()
        .position(|e| e.name == names::EV_VOTE)
        .ok_or("restarted incarnation never voted")?;
    if vote < replay {
        return Err(format!(
            "restarted incarnation voted (event {vote}) before WAL replay completed \
             (event {replay}) — recovery ordering violated"
        ));
    }
    println!(
        "crash-harness: restart timeline OK — {records} records replayed (event {replay}) \
         before the first vote (event {vote})"
    );
    Ok(())
}

/// Dials `addr` (retrying while the node is still coming up), submits
/// [`CLIENT_TXNS`] transactions at the standard-commit strength, and
/// returns how many came back `Committed`.
fn client_acks(addr: std::net::SocketAddr, f: u64, budget: Duration) -> Result<u64, String> {
    let config = ClientConfig {
        total: CLIENT_TXNS,
        window: 2,
        ack_at: f,
        deadline: budget,
        ..ClientConfig::smoke(addr, ReplicaId::new(GATEWAY as u16), 1000)
    };
    let give_up = Instant::now() + budget;
    loop {
        match run_client(&config) {
            Ok(report) => return Ok(report.committed),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                if Instant::now() >= give_up {
                    return Err(format!("replica {GATEWAY}'s gateway never came up: {e}"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(format!("client: {e}")),
        }
    }
}

fn read_commit_file(dir: &Path) -> Result<Vec<String>, String> {
    let path = dir.join("commit.out");
    let body =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(body.lines().map(str::to_string).collect())
}

/// Waits for every child, enforcing one shared wall-clock deadline.
fn await_all(children: &mut [(usize, Child)], deadline: Instant) -> Result<(), String> {
    loop {
        let mut running = 0usize;
        for (id, child) in children.iter_mut() {
            match child.try_wait() {
                Ok(Some(status)) if !status.success() => {
                    return Err(format!("replica {id} exited with {status}"));
                }
                Ok(Some(_)) => {}
                Ok(None) => running += 1,
                Err(e) => return Err(format!("waiting on replica {id}: {e}")),
            }
        }
        if running == 0 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            for (_, child) in children.iter_mut() {
                let _ = child.kill();
            }
            return Err(format!(
                "{running} replica(s) still running at the deadline"
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn run(args: &Args) -> Result<(), String> {
    let data_root = args
        .data_root
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("sft-crash-{}", std::process::id())));
    let dirs: Vec<PathBuf> = (0..args.n)
        .map(|i| data_root.join(format!("node-{i}")))
        .collect();
    for dir in &dirs {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let peers = free_addrs(args.n).join(",");
    println!(
        "crash-harness: {} x {} sft-node ({}), epochs {}, data under {}",
        args.n,
        args.protocol,
        peers,
        args.epochs,
        data_root.display()
    );

    // Genesis slightly in the future, so every process is up before the
    // first epoch opens and all protocol clocks tick in lockstep.
    let genesis_unix_ms = (std::time::SystemTime::now() + Duration::from_millis(500))
        .duration_since(std::time::UNIX_EPOCH)
        .expect("present-day clock")
        .as_millis();

    let deadline = Instant::now() + args.budget + Duration::from_secs(30);
    let mut children: Vec<(usize, Child)> = Vec::new();
    for (id, dir) in dirs.iter().enumerate() {
        let child = spawn_node(args, &peers, id, dir, genesis_unix_ms)
            .map_err(|e| format!("spawning replica {id}: {e}"))?;
        children.push((id, child));
    }
    // A real client rides along for the whole run, crash included.
    let gateway: std::net::SocketAddr = peers
        .split(',')
        .nth(GATEWAY)
        .and_then(|addr| addr.parse().ok())
        .ok_or("unparseable gateway address")?;
    let f = (args.n as u64 - 1) / 3;
    let budget = args.budget / 2;
    let client = std::thread::spawn(move || client_acks(gateway, f, budget));

    // Phase 1: wait until the victim has durable consensus state worth
    // losing, then SIGKILL it mid-run — no shutdown path runs.
    let kill_deadline = Instant::now() + args.budget / 2;
    while wal_record_count(&dirs[VICTIM]) < args.kill_after_records {
        if Instant::now() >= kill_deadline {
            for (_, child) in &mut children {
                let _ = child.kill();
            }
            return Err(format!(
                "victim reached only {} WAL records before the kill deadline",
                wal_record_count(&dirs[VICTIM])
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if let Err(message) = check_thread_counts(&children, args.n) {
        for (_, child) in &mut children {
            let _ = child.kill();
        }
        return Err(message);
    }
    let (_, mut victim_child) = children.remove(VICTIM);
    victim_child.kill().map_err(|e| format!("kill -9: {e}"))?;
    let _ = victim_child.wait();
    let pre_crash = committed_in_wal(&dirs[VICTIM])?;
    println!(
        "crash-harness: killed replica {VICTIM} with {} WAL records ({} committed blocks)",
        wal_record_count(&dirs[VICTIM]),
        pre_crash.len()
    );

    // Phase 2: restart on the same data directory; recovery replays the
    // WAL before the node rejoins.
    let restarted = spawn_node(args, &peers, VICTIM, &dirs[VICTIM], genesis_unix_ms)
        .map_err(|e| format!("restarting replica {VICTIM}: {e}"))?;
    children.push((VICTIM, restarted));

    await_all(&mut children, deadline)?;

    // Phase 3: verdicts.
    let chains: Vec<Vec<String>> = dirs
        .iter()
        .map(|d| read_commit_file(d))
        .collect::<Result<_, _>>()?;
    for (id, chain) in chains.iter().enumerate() {
        if chain.is_empty() {
            return Err(format!("replica {id} committed nothing"));
        }
    }
    for (id, chain) in chains.iter().enumerate().skip(1) {
        let shared = chain.len().min(chains[0].len());
        if chain[..shared] != chains[0][..shared] {
            return Err(format!(
                "committed prefixes diverge between replicas 0 and {id}"
            ));
        }
    }
    let victim_chain = &chains[VICTIM];
    if victim_chain.len() < pre_crash.len() || victim_chain[..pre_crash.len()] != pre_crash[..] {
        return Err(format!(
            "recovery lost committed state: {} blocks pre-crash, final chain {:?}",
            pre_crash.len(),
            victim_chain
        ));
    }
    if victim_chain.len() == pre_crash.len() {
        return Err("restarted victim made no progress past its pre-crash prefix".to_string());
    }
    verify_recovery_timeline(&dirs[VICTIM])?;
    check_fsync_budget(&dirs)?;
    let acked = client
        .join()
        .map_err(|_| "client thread panicked".to_string())??;
    if acked < CLIENT_TXNS {
        return Err(format!(
            "the fleet acked {acked} of {CLIENT_TXNS} client transactions as Committed"
        ));
    }
    println!("crash-harness: {acked} client transactions acked Committed by a real sft-node");
    println!(
        "crash-harness OK: prefixes agree on {} replicas; victim kept {} pre-crash blocks \
         and committed {} more after restart",
        args.n,
        pre_crash.len(),
        victim_chain.len() - pre_crash.len()
    );
    if args.data_root.is_none() {
        let _ = std::fs::remove_dir_all(&data_root);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("crash-harness FAIL: {message}");
            ExitCode::FAILURE
        }
    }
}
