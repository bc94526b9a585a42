//! The standalone replica runtime behind the `sft-node` binary: one
//! engine, one [`NodeTransport`] endpoint, one write-ahead log.
//!
//! This is the deployment shape the paper assumes — `n` independent
//! processes that only share a network — assembled from the exact pieces
//! the simulator tests: the engines come from the same builders
//! ([`build_streamlet_engines`] / [`build_fbft_engines`]), the loop
//! mirrors the generic `EngineRunner` event loop, and durability follows
//! the same write-ahead discipline: every record in
//! [`EngineStep::persist`] is appended to the log *before* any message it
//! justifies is routed. On startup the node replays `wal.log` into a
//! fresh engine, so a `kill -9` + restart resumes exactly the pre-crash
//! voting history — never equivocating against its former self.
//!
//! ## Data directory
//!
//! ```text
//! <data-dir>/wal.log      append-only record log (truncated to the last
//!                         complete frame on recovery)
//! <data-dir>/commit.out   committed chain, one block hash per line,
//!                         written atomically at exit
//! ```

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sft_core::{DurableWal, EngineStep, GroupCommitWal, ReplicaEngine, Route, WalRecord, WalStore};
use sft_network::{NodeTransport, ProtocolTag, Transport};
use sft_obs::{names, PhaseTimer, Recorder, Registry, SharedRecorder, TraceEvent, TraceSink};
use sft_sim::{build_fbft_engines, build_streamlet_engines, Protocol, SimConfig};
use sft_types::{
    ClientFrame, Decode, Encode, PersistSeq, ReplicaId, Round, SendGate, SimDuration, SimTime,
};

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
    /// fsync batching: sync the log every this many appended records
    /// (1 = every record durable before its message leaves; larger
    /// values trade a bounded durability window for fewer fsyncs).
    /// Ignored under [`WalMode::GroupCommit`], whose writer thread
    /// batches adaptively without widening the durability window.
    pub sync_every: u64,
    /// How the log is written and sends are held back (see [`WalMode`]).
    pub wal_mode: WalMode,
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

impl NodeOpts {
    /// The replica count implied by the address table.
    pub fn n(&self) -> usize {
        self.peers.len()
    }
}

/// How the node writes its log and when outbound frames may leave.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WalMode {
    /// The classic inline discipline: appends (and their
    /// `sync_every`-batched fsyncs) run on the engine thread, *before*
    /// the step's messages are handed to the transport.
    #[default]
    SyncEvery,
    /// The pipelined discipline: appends enqueue to a dedicated
    /// WAL-writer thread that batches fsyncs adaptively, and every
    /// outbound frame carries a [`SendGate`] holding it in the
    /// transport's peer writers until the durability watermark covers
    /// the records that justify it. Same guarantee as `sync_every = 1`
    /// — no frame leaves before its records are on disk — without an
    /// fsync stall on the engine thread.
    GroupCommit,
}

/// The node's log under either [`WalMode`], unified for the event loop.
enum NodeWal {
    Classic(WalStore),
    Group(GroupCommitWal),
}

impl NodeWal {
    /// Appends one record; returns its persist sequence under the
    /// pipelined mode (`None` classically — persistence is already
    /// complete when this returns, nothing to gate).
    fn append(&mut self, record: &WalRecord) -> Result<Option<PersistSeq>, String> {
        match self {
            NodeWal::Classic(wal) => wal
                .append(record)
                .map(|()| None)
                .map_err(|e| format!("wal append: {e}")),
            NodeWal::Group(wal) => wal
                .append(record)
                .map(Some)
                .map_err(|e| format!("wal append: {e}")),
        }
    }

    /// The gate outbound frames must clear, given the node's last
    /// appended sequence — pipelined mode only.
    fn gate(&self, last_seq: PersistSeq) -> Option<SendGate> {
        match self {
            NodeWal::Classic(_) => None,
            NodeWal::Group(wal) => (last_seq > 0).then(|| SendGate::new(wal.watermark(), last_seq)),
        }
    }

    /// Records appended during this incarnation.
    fn appended(&self) -> u64 {
        match self {
            NodeWal::Classic(wal) => wal.appended(),
            NodeWal::Group(wal) => wal.last_seq(),
        }
    }

    /// Settles the log at shutdown: everything appended is durable.
    fn finish(self) -> Result<(), String> {
        match self {
            NodeWal::Classic(mut wal) => wal.flush().map_err(|e| format!("wal flush: {e}")),
            NodeWal::Group(wal) => wal.finish().map_err(|e| format!("wal finish: {e}")),
        }
    }
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
    let n = opts.n();
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
    let delta = SimDuration::from_micros(opts.delta.as_micros() as u64);
    match opts.protocol {
        Protocol::Streamlet => {
            let engine = build_streamlet_engines(&config, delta * 2).remove(opts.id as usize);
            drive(engine, opts, ProtocolTag::Streamlet)
        }
        Protocol::Fbft => {
            let timeout = SimDuration::from_micros(opts.base_timeout.as_micros() as u64);
            let mut engine = build_fbft_engines(&config, timeout).remove(opts.id as usize);
            // The round pace every wall-clock cluster runs at.
            engine
                .replica_mut()
                .set_round_pace(sft_fbft::ROUND_INTERVAL, sft_fbft::ROUND_BURST);
            drive(engine, opts, ProtocolTag::Fbft)
        }
    }
}

/// Transactions per proposed block, at most (`sft-loadgen`'s default).
const BATCH_TXNS: u32 = 64;

/// Messages pending same-instant self-delivery (a node hears its own
/// broadcasts without a network round trip, as in every harness).
type Inbox = VecDeque<(ReplicaId, Arc<[u8]>)>;

/// The node event loop around one engine: recover from the WAL, then
/// deliver / tick / sync until the target round is passed (plus linger)
/// or the wall-clock budget runs out.
fn drive<E: ReplicaEngine>(
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
    engine.set_recorder(Arc::clone(&recorder));

    let store = WalStore::open(&opts.data_dir, opts.sync_every).map_err(|e| format!("wal: {e}"))?;
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
    // Recovery always reads through the classic store; the pipelined
    // mode upgrades it afterwards, handing the file to the WAL-writer
    // thread. Gate waiters wake through the watermark's own condvar, so
    // no transport wake hook is needed here.
    let mut wal = match opts.wal_mode {
        WalMode::SyncEvery => NodeWal::Classic(store),
        WalMode::GroupCommit => NodeWal::Group(
            store
                .into_group_commit(Arc::clone(&recorder), None)
                .map_err(|e| format!("wal writer: {e}"))?,
        ),
    };
    // The node's last appended persist sequence: what its outbound
    // frames are gated on under the pipelined mode.
    let mut last_seq: PersistSeq = 0;

    let id = ReplicaId::new(opts.id);
    let target = Round::new(opts.epochs);
    let step = SimDuration::from_micros(opts.delta.as_micros() as u64);
    let budget_end = transport.now() + SimDuration::from_micros(opts.budget.as_micros() as u64);
    let linger = SimDuration::from_micros(opts.linger.as_micros() as u64);
    let mut done_at: Option<SimTime> = None;
    let mut inbox: Inbox = VecDeque::new();
    // Which client connection awaits each admitted transaction's ack.
    let mut ack_routes: HashMap<sft_crypto::HashValue, u64> = HashMap::new();

    loop {
        let now = transport.now();
        if now >= budget_end {
            break;
        }
        // Done when the protocol ran its course — an exhausted epoch
        // clock (Streamlet) or the target round passed (fbft) — and no
        // catch-up fetch is pending.
        let course_run = engine.next_deadline().is_none() || engine.round() > target;
        if course_run && !engine.is_syncing() {
            let at = *done_at.get_or_insert(now);
            if now >= at + linger {
                break;
            }
        }
        // Wait for traffic until the next engine deadline (or one pacing
        // step, so the linger/budget clocks keep being checked).
        let mut wake = now + step;
        if let Some(deadline) = engine.next_deadline() {
            wake = wake.min(deadline.max(now));
        }
        for d in transport.poll_deliver(wake) {
            inbox.push_back((d.from, d.payload));
        }
        let now = transport.now();
        // Client gateway ingress: submissions admitted now are eligible
        // for the next proposal this node builds; Busy/Duplicate verdicts
        // are answered on the spot.
        for c in transport.poll_clients() {
            let Ok(ClientFrame::Request(req)) = ClientFrame::from_bytes(&c.payload) else {
                continue;
            };
            let txn_id = req.txn_id();
            match engine.submit(&req, now) {
                Some(verdict) => {
                    let bytes: Arc<[u8]> = ClientFrame::Ack(verdict).to_bytes().into();
                    transport.send_client(c.conn, id, bytes);
                }
                None => {
                    ack_routes.insert(txn_id, c.conn);
                }
            }
        }
        loop {
            while let Some((from, bytes)) = inbox.pop_front() {
                let timer = PhaseTimer::start(&*recorder);
                let step = engine.on_envelope(from, &bytes, now);
                timer.finish(&*recorder, names::PHASE_ON_ENVELOPE_NS);
                absorb(
                    step,
                    id,
                    &mut wal,
                    &mut last_seq,
                    &mut transport,
                    &mut inbox,
                    &*recorder,
                )?;
            }
            let mut fired = false;
            if engine.next_deadline().is_some_and(|d| d <= now) {
                fired = true;
                let timer = PhaseTimer::start(&*recorder);
                let step = engine.on_tick(now);
                timer.finish(&*recorder, names::PHASE_ON_TICK_NS);
                absorb(
                    step,
                    id,
                    &mut wal,
                    &mut last_seq,
                    &mut transport,
                    &mut inbox,
                    &*recorder,
                )?;
            }
            if fired || !inbox.is_empty() {
                continue;
            }
            let step = engine.poll_sync(now);
            absorb(
                step,
                id,
                &mut wal,
                &mut last_seq,
                &mut transport,
                &mut inbox,
                &*recorder,
            )?;
            if inbox.is_empty() {
                break;
            }
        }
        // Stream newly ready strength-graded acks back to their clients.
        for ack in engine.drain_acks() {
            if let Some(conn) = ack_routes.remove(&ack.txn_id()) {
                let bytes: Arc<[u8]> = ClientFrame::Ack(ack).to_bytes().into();
                transport.send_client(conn, id, bytes);
            }
        }
    }

    let appended = wal.appended();
    wal.finish()?;
    recorder.trace(&TraceEvent::new(
        names::EV_NODE_STOP,
        transport.now().as_micros(),
        &[("round", engine.round().as_u64())],
    ));
    if let Some(registry) = &registry {
        registry.flush_sink();
    }
    let committed: Vec<String> = engine
        .committed_chain()
        .iter()
        .map(|h| format!("{h}"))
        .collect();
    write_commit_file(opts, &committed)?;
    Ok(NodeOutcome {
        recovered,
        appended,
        committed,
        disconnects: transport.stats().disconnects,
        round: engine.round().as_u64(),
    })
}

/// Write-ahead discipline, then routing: persist the step's durable
/// records, then send its messages (broadcasts loop back through the
/// inbox so the node hears itself). Classically "persist" means the
/// fsync already happened by the time a message is handed over; under
/// the pipelined mode it means the message carries a [`SendGate`] the
/// transport's peer writers hold until the watermark covers
/// `last_seq`. The engine's own loopback delivery is never gated — a
/// node hearing itself early cannot equivocate against itself.
fn absorb<S: Transport>(
    step: EngineStep,
    id: ReplicaId,
    wal: &mut NodeWal,
    last_seq: &mut PersistSeq,
    transport: &mut S,
    inbox: &mut Inbox,
    recorder: &dyn Recorder,
) -> Result<(), String> {
    let persist = PhaseTimer::start(recorder);
    if !step.persist.is_empty() {
        let wait = PhaseTimer::start(recorder);
        for record in &step.persist {
            if let Some(seq) = wal.append(record)? {
                *last_seq = seq;
            }
        }
        wait.finish(recorder, names::PHASE_PERSIST_WAIT_NS);
    }
    persist.finish(recorder, names::PHASE_PERSIST_NS);
    let route = PhaseTimer::start(recorder);
    for out in step.outbound {
        let gate = wal.gate(*last_seq);
        match (out.route, gate) {
            (Route::Broadcast, Some(gate)) => {
                transport.broadcast_gated(id, Arc::clone(&out.bytes), gate);
                inbox.push_back((id, out.bytes));
            }
            (Route::Broadcast, None) => {
                transport.broadcast(id, Arc::clone(&out.bytes));
                inbox.push_back((id, out.bytes));
            }
            (Route::To(peer), _) if peer == id => inbox.push_back((id, out.bytes)),
            (Route::To(peer), Some(gate)) => transport.send_gated(id, peer, out.bytes, gate),
            (Route::To(peer), None) => transport.send(id, peer, out.bytes),
        }
    }
    route.finish(recorder, names::PHASE_ROUTE_NS);
    Ok(())
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
