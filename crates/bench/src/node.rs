//! The standalone replica runtime behind the `sft-node` binary: one
//! engine, one [`NodeTransport`] endpoint, one write-ahead log.
//!
//! This is the deployment shape the paper assumes — `n` independent
//! processes that only share a network — and it is the simulator's run
//! loop, not a copy of it: [`run_node`] builds the same engines
//! ([`build_streamlet_engines`] / [`build_paced_fbft_engines`]), keeps
//! the one its id names, and hands it to the same [`EngineRunner`] every
//! test and the benchmark drive — hosting 1 of the transport's `n`
//! replicas instead of all of them. What stays here is what only a
//! process has: recovery (replay `wal.log` into the fresh engine before
//! it hears anything, so a `kill -9` + restart resumes exactly the
//! pre-crash voting history — never equivocating against its former
//! self), the stop rule (budget / target round / not syncing / linger)
//! and `commit.out`.
//!
//! Durability has one discipline, group commit with gated sends: the
//! runner appends every [`EngineStep::persist`](sft_core::EngineStep)
//! record to the log *before* routing the messages it justifies, and each
//! frame waits in the transport's writer until the log's watermark covers
//! it — an fsync per record's guarantee without the fsync stall on the
//! engine thread. The log's writer thread wakes the transport's writer
//! when an fsync completes ([`NodeTransport::writer_wake_hook`]), so a
//! gated frame leaves the moment it may, and nothing polls a closed gate.
//!
//! A node process runs five threads for any `n` (below the crypto pool's
//! parallel-verification threshold): the engine's, the log's writer, and
//! the transport's I/O thread, writer and dialer.
//!
//! ## Data directory
//!
//! ```text
//! <data-dir>/wal.log      append-only record log (truncated to the last
//!                         complete frame on recovery)
//! <data-dir>/commit.out   committed chain, one block hash per line,
//!                         written atomically at exit
//! ```

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sft_core::{DurableWal, ReplicaEngine, WalStore};
use sft_network::{NodeTransport, ProtocolTag, Transport};
use sft_obs::{names, Registry, SharedRecorder, TraceEvent, TraceSink};
use sft_sim::{
    build_paced_fbft_engines, build_streamlet_engines, Behavior, EngineRunner, NoMischief,
    Protocol, RunPlan, RunnerConfig, SimConfig,
};
use sft_types::{ReplicaId, Round, SimDuration, SimTime};

/// Everything that parameterizes one node process. Parsed from the
/// `sft-node` command line; constructed directly by in-process tests.
#[derive(Clone, Debug)]
pub struct NodeOpts {
    /// This replica's id (an index into `peers`).
    pub id: u16,
    /// Address to listen on (normally `peers[id]`).
    pub listen: SocketAddr,
    /// The full address table, indexed by replica id, own entry included.
    pub peers: Vec<SocketAddr>,
    /// Which protocol the replica set runs.
    pub protocol: Protocol,
    /// Directory holding `wal.log` and `commit.out`.
    pub data_dir: PathBuf,
    /// Target epoch/round count: the node works until its round passes
    /// this (and no block-sync is pending), then lingers and exits.
    pub epochs: u64,
    /// Hard wall-clock budget for the whole run, linger included.
    pub budget: Duration,
    /// How long to keep serving votes and sync responses after reaching
    /// the target, so slower peers (a restarted crasher, say) can finish.
    pub linger: Duration,
    /// The pacing unit δ: Streamlet epochs span `2δ` of wall clock.
    pub delta: Duration,
    /// SFT-DiemBFT base round timeout.
    pub base_timeout: Duration,
    /// The cluster's shared genesis instant, as a duration since the UNIX
    /// epoch. Every process anchors its protocol clock here, so epoch
    /// boundaries align across machines and a restarted replica resumes
    /// at the cluster's *current* epoch — not at wall time zero of its
    /// own launch. `None` anchors at process start (single-run tooling).
    pub start_at: Option<Duration>,
    /// Where to append the NDJSON event trace (`--trace-out`). `None`
    /// keeps the free no-op recorder; `Some` turns on metric recording
    /// and crash-safe line-framed tracing (the crash harness reads the
    /// resulting timeline back to verify recovery ordering).
    pub trace_out: Option<PathBuf>,
}

/// What a finished node reports back (and prints).
#[derive(Clone, Debug)]
pub struct NodeOutcome {
    /// WAL records recovered and replayed at startup.
    pub recovered: usize,
    /// Records appended to the WAL during this incarnation.
    pub appended: u64,
    /// The committed chain, genesis-side first, as lowercase hex.
    pub committed: Vec<String>,
    /// Peer connections lost over the run (see
    /// [`NetworkStats::disconnects`](sft_network::NetworkStats)).
    pub disconnects: u64,
    /// Frames and acks the transport dropped rather than wait for a peer
    /// or client that was down or not reading (see
    /// [`NetworkStats::dropped`](sft_network::NetworkStats)).
    pub dropped: u64,
    /// The round the engine ended on.
    pub round: u64,
}

/// Runs one replica process to completion: bind, recover, participate,
/// write `commit.out`.
///
/// # Errors
///
/// Returns a description of any socket or WAL failure.
pub fn run_node(opts: &NodeOpts) -> Result<NodeOutcome, String> {
    let n = opts.peers.len();
    if opts.id as usize >= n {
        return Err(format!("id {} out of range for {} peers", opts.id, n));
    }
    // The deployed replica serves live clients: leaders drain their own
    // mempools into real transaction batches (an empty pool still makes a
    // block, so rounds keep their pace), exactly what the loadgen harness
    // builds — not the synthetic descriptors of the latency experiments,
    // under which an admitted transaction would never be proposed.
    let config = SimConfig::new(n, opts.epochs)
        .with_protocol(opts.protocol)
        .with_batch_size(BATCH_TXNS)
        .with_live_clients(true);
    let delta = sim_duration(opts.delta);
    match opts.protocol {
        Protocol::Streamlet => {
            let engine = build_streamlet_engines(&config, delta * 2).remove(opts.id as usize);
            serve(engine, opts, ProtocolTag::Streamlet)
        }
        Protocol::Fbft => {
            let timeout = sim_duration(opts.base_timeout);
            let engine = build_paced_fbft_engines(&config, timeout).remove(opts.id as usize);
            serve(engine, opts, ProtocolTag::Fbft)
        }
    }
}

/// Transactions per proposed block, at most (`sft-loadgen`'s default).
const BATCH_TXNS: u32 = 64;

/// A wall-clock duration on the transport's microsecond clock.
fn sim_duration(d: Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

/// One replica's life around the shared run loop: recover `engine` from
/// the WAL, host it in an [`EngineRunner`] over this process's
/// [`NodeTransport`], and step the runner until the target round is
/// passed (plus linger) or the wall-clock budget runs out.
fn serve<E: ReplicaEngine>(
    mut engine: E,
    opts: &NodeOpts,
    tag: ProtocolTag,
) -> Result<NodeOutcome, String> {
    // One registry per process when --trace-out asks for it; the no-op
    // recorder otherwise, so the unobserved node pays nothing.
    let registry: Option<Arc<Registry>> = match &opts.trace_out {
        Some(path) => {
            let sink =
                TraceSink::open(path).map_err(|e| format!("trace {}: {e}", path.display()))?;
            let registry = Arc::new(Registry::new());
            registry.set_sink(sink);
            Some(registry)
        }
        None => None,
    };
    let recorder: SharedRecorder = match registry.clone() {
        Some(registry) => registry,
        None => sft_obs::noop(),
    };

    let store = WalStore::open(&opts.data_dir, 1).map_err(|e| format!("wal: {e}"))?;
    let mut transport = NodeTransport::bind_observed(
        ReplicaId::new(opts.id),
        tag,
        opts.listen,
        &opts.peers,
        Arc::clone(&recorder),
    )
    .map_err(|e| format!("bind {}: {e}", opts.listen))?;
    if let Some(since_unix) = opts.start_at {
        transport = transport.with_time_origin(std::time::UNIX_EPOCH + since_unix);
    }
    recorder.trace(&TraceEvent::new(
        names::EV_NODE_START,
        transport.now().as_micros(),
        &[("id", u64::from(opts.id))],
    ));

    // Recovery before the first tick: the engine resumes its pre-crash
    // voting history, locked state, and committed prefix. The replay-done
    // trace event is the recovery milestone the crash harness orders the
    // first outbound vote against.
    engine.set_recorder(Arc::clone(&recorder));
    let recovered = store.replay_into(&mut engine, transport.now());
    if recovered > 0 {
        eprintln!(
            "sft-node {}: recovered {recovered} WAL records{}",
            opts.id,
            if store.tail_truncated() {
                " (torn tail truncated)"
            } else {
                ""
            }
        );
    }
    recorder.trace(&TraceEvent::new(
        names::EV_WAL_REPLAY_DONE,
        transport.now().as_micros(),
        &[("records", recovered as u64)],
    ));
    // Recovery reads through the classic store; the file then goes to the
    // WAL-writer thread, whose completed fsyncs wake the transport's
    // writer: that signal alone releases the frames they gate.
    let wal = store
        .into_group_commit(Arc::clone(&recorder), Some(transport.writer_wake_hook()))
        .map_err(|e| format!("wal writer: {e}"))?;
    let durable = wal.watermark();

    let target = Round::new(opts.epochs);
    let step = sim_duration(opts.delta);
    let budget_end = transport.now() + sim_duration(opts.budget);
    let linger = sim_duration(opts.linger);
    let mut runner = EngineRunner::new(
        vec![engine],
        vec![Behavior::Honest],
        transport,
        NoMischief,
        // Only `run` reads the plan and its bounds; this loop has its own
        // stop rule and paces the runner through `run_until`.
        RunnerConfig {
            plan: RunPlan::PastRound(target),
            horizon: budget_end,
            drain_bound: 0,
            drain_step: step,
        },
    );
    runner.set_recorder(Arc::clone(&recorder));
    runner.set_wals(vec![Box::new(wal)]);

    let wal_err = |e: sft_core::WalError| format!("wal: {e}");
    let mut done_at: Option<SimTime> = None;
    loop {
        let now = runner.transport().now();
        if now >= budget_end {
            break;
        }
        // Done when the protocol ran its course — an exhausted epoch
        // clock (Streamlet) or the target round passed (fbft) — and no
        // catch-up fetch is pending.
        let engine = runner.engine(0);
        let course_run = engine.next_deadline().is_none() || engine.round() > target;
        if course_run && !engine.is_syncing() {
            let at = *done_at.get_or_insert(now);
            if now >= at + linger {
                break;
            }
        }
        // Returns at the first arrival, or after one pacing step, so the
        // linger/budget clocks keep being checked.
        runner.run_until(now + step).map_err(wal_err)?;
    }

    let round = runner.engine(0).round().as_u64();
    let mut report = runner.finish().map_err(wal_err)?;
    recorder.trace(&TraceEvent::new(
        names::EV_NODE_STOP,
        report.elapsed.as_micros(),
        &[("round", round)],
    ));
    if let Some(registry) = &registry {
        registry.flush_sink();
    }
    let committed: Vec<String> = report
        .chains
        .remove(0)
        .iter()
        .map(|h| format!("{h}"))
        .collect();
    write_commit_file(opts, &committed)?;
    Ok(NodeOutcome {
        recovered,
        // `finish` waited for the watermark to cover every append, and
        // sequences count this incarnation's records from 1.
        appended: durable.get(),
        committed,
        disconnects: report.net.disconnects,
        dropped: report.net.dropped,
        round,
    })
}

/// The file the crash harness compares across replicas.
pub const COMMIT_FILE_NAME: &str = "commit.out";

/// Writes the committed chain atomically (tmp + rename), one hash per
/// line, so a reader never observes a half-written file.
fn write_commit_file(opts: &NodeOpts, committed: &[String]) -> Result<(), String> {
    let path = opts.data_dir.join(COMMIT_FILE_NAME);
    let tmp = opts.data_dir.join(format!("{COMMIT_FILE_NAME}.tmp"));
    let mut body = committed.join("\n");
    if !body.is_empty() {
        body.push('\n');
    }
    std::fs::write(&tmp, body).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("renaming to {}: {e}", path.display()))?;
    Ok(())
}
