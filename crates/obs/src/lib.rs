//! # sft-obs
//!
//! Zero-dependency observability for the SFT stack: a [`Recorder`]
//! trait with a free no-op default, an in-process [`Registry`] of named
//! counters and log-bucketed [`Histogram`]s, nanosecond [`PhaseTimer`]s
//! and sim-vs-wall [`ObsClock`] spans, and a crash-safe NDJSON
//! [`TraceSink`] for per-event timelines.
//!
//! ## Design
//!
//! Instrumented code holds a [`SharedRecorder`] (an `Arc<dyn
//! Recorder>`) and calls `add` / `observe` / `trace` on the hot path.
//! The default [`NoopRecorder`] makes each of those a virtual call to an
//! empty body, and timers gate their clock reads on
//! [`Recorder::enabled`], so instrumentation costs nothing measurable
//! when recording is off — the CI perf gate holds the proof. When a
//! harness turns recording on (`SimConfig::with_recording`,
//! `sft-node --trace-out`), the same call sites feed a [`Registry`]
//! whose [`MetricsSnapshot`] lands in `BENCH_*.json` and whose trace
//! events reconstruct a crash-recovery timeline.
//!
//! ## Units
//!
//! Two time bases coexist, distinguished by metric-name suffix:
//!
//! - `*_ns` — wall-clock nanoseconds from [`PhaseTimer`]. Processing
//!   phases must use wall time: simulated time only advances *between*
//!   events, so every phase would measure as zero virtual time.
//! - `*_us` — protocol-clock microseconds (virtual under the simulator,
//!   wall under real sockets), for protocol-visible latencies like
//!   proposal-to-commit.
//!
//! The full metric catalog lives in [`names`].

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod clock;
mod hist;
mod recorder;
mod registry;
mod trace;

pub use clock::{ObsClock, PhaseTimer, Span};
pub use hist::{HistSummary, Histogram};
pub use recorder::{noop, NoopRecorder, Recorder, RecorderCell, SharedRecorder};
pub use registry::{MetricsSnapshot, Registry};
pub use trace::{read_trace, OwnedTraceEvent, TraceEvent, TraceSink};

/// Every metric name the stack records, one documented constant each.
///
/// Histograms additionally surface as `<name>_{count,p50,p90,p99,max}`
/// scalars in `BENCH_*.json` (see [`MetricsSnapshot::flat_fields`]).
pub mod names {
    // ---- run-loop (`EngineRunner`) phase timings (histograms, wall nanoseconds) ----

    /// Decoding one inbound envelope into a protocol message.
    pub const PHASE_DECODE_NS: &str = "phase_decode_ns";
    /// One full `ReplicaEngine::on_envelope` step (decode included).
    pub const PHASE_ON_ENVELOPE_NS: &str = "phase_on_envelope_ns";
    /// Appending one step's `persist` records to durable storage
    /// (WAL append + any due fsync under `sft-node`).
    pub const PHASE_PERSIST_NS: &str = "phase_persist_ns";
    /// Routing one step's outbound messages (send/broadcast calls).
    pub const PHASE_ROUTE_NS: &str = "phase_route_ns";
    /// One `ReplicaEngine::on_tick` deadline firing.
    pub const PHASE_ON_TICK_NS: &str = "phase_on_tick_ns";
    /// A vote-ingest step that ran a deferred batch signature
    /// verification (the verify-on-quorum path; batch check included).
    pub const PHASE_BATCH_VERIFY_NS: &str = "phase_batch_verify_ns";
    /// One writer-loop pass flushing queued outbound frames to
    /// non-blocking sockets (`TcpCluster` / `NodeTransport`).
    pub const PHASE_NET_FLUSH_NS: &str = "phase_net_flush_ns";

    // ---- durable write-ahead log (group-commit pipeline) ----

    /// `WalSink::sync` calls issued (one per write-through append, one
    /// per coalesced group under the group-commit WAL writer).
    pub const WAL_FSYNCS: &str = "wal_fsyncs";
    /// Records coalesced per group-commit fsync (histogram; 1 when the
    /// writer is keeping up, larger under load).
    pub const WAL_GROUP_SIZE: &str = "wal_group_size";
    /// Engine-loop wall time spent blocked on durability per persisting
    /// step: the inline fsync under write-through, the append-queue
    /// handoff under group commit.
    pub const PHASE_PERSIST_WAIT_NS: &str = "phase_persist_wait_ns";

    // ---- per-round consensus events (protocol microseconds) ----

    /// Proposal-seen → standard commit latency, per committed round.
    pub const ROUND_COMMIT_US: &str = "round_commit_us";
    /// Proposal-seen → own-vote-cast latency, per voted round.
    pub const CONSENSUS_VOTE_US: &str = "consensus_vote_us";
    /// Proposal-seen → QC-formed latency, per certified round.
    pub const CONSENSUS_QC_US: &str = "consensus_qc_us";
    /// Proposal-seen → strength-level-`x` latency histograms, keyed by
    /// the strengthened level `x` reached (see `strength_level_name`).
    pub const STRENGTH_US: [&str; 9] = [
        "strength_x0_us",
        "strength_x1_us",
        "strength_x2_us",
        "strength_x3_us",
        "strength_x4_us",
        "strength_x5_us",
        "strength_x6_us",
        "strength_x7_us",
        "strength_x8_us",
    ];

    /// The `strength_x<level>_us` histogram for a strength level,
    /// clamping levels past 8 into the last bucket.
    #[must_use]
    pub fn strength_level_name(level: u64) -> &'static str {
        STRENGTH_US[(level as usize).min(STRENGTH_US.len() - 1)]
    }

    // ---- client plane (submission gateway + strength-graded acks) ----

    /// Client submissions received (every admission verdict counts one).
    pub const CLIENT_REQUESTS: &str = "client_requests";
    /// Client submissions answered `Busy` or `Duplicate` instead of
    /// admitted (admission-control backpressure).
    pub const CLIENT_REJECTED: &str = "client_rejected";
    /// Strength-graded commit acks emitted toward clients.
    pub const ACKS_SENT: &str = "acks_sent";
    /// Submission → ack latency histograms (protocol µs), keyed by the
    /// strength level the ack was requested at (see `ack_level_name`).
    pub const ACK_US: [&str; 9] = [
        "ack_x0_us",
        "ack_x1_us",
        "ack_x2_us",
        "ack_x3_us",
        "ack_x4_us",
        "ack_x5_us",
        "ack_x6_us",
        "ack_x7_us",
        "ack_x8_us",
    ];

    /// The `ack_x<level>_us` histogram for a requested strength level,
    /// clamping levels past 8 into the last bucket.
    #[must_use]
    pub fn ack_level_name(level: u64) -> &'static str {
        ACK_US[(level as usize).min(ACK_US.len() - 1)]
    }

    // ---- consensus counters ----

    /// Proposals accepted into the engine (first sight per round).
    pub const CONSENSUS_PROPOSALS_SEEN: &str = "consensus_proposals_seen";
    /// Own votes cast.
    pub const CONSENSUS_VOTES_CAST: &str = "consensus_votes_cast";
    /// Quorum certificates newly formed or adopted (one per distinct QC).
    pub const CONSENSUS_QC_FORMED: &str = "consensus_qc_formed";
    /// Standard commits observed (first commit-log entry per round).
    pub const CONSENSUS_COMMITS: &str = "consensus_commits";

    // ---- resident state (gauges: max over replicas at report time) ----

    /// Blocks held in a replica's store, genesis included.
    pub const RESIDENT_BLOCKS: &str = "resident_blocks";
    /// Votes held by a replica's vote tracker.
    pub const RESIDENT_VOTES: &str = "resident_votes";
    /// Quorum certificates held for block sync.
    pub const RESIDENT_CERTS: &str = "resident_certs";
    /// Mempool dedup entries (one watermark per client plus stragglers).
    pub const DEDUP_ENTRIES: &str = "dedup_entries";
    /// Orphaned proposals adopted once their parent arrived.
    pub const ORPHANS_ADOPTED: &str = "orphans_adopted";

    // ---- block-sync (SyncManager) ----

    /// Request-sent → response-admitted latency (protocol µs).
    pub const SYNC_RESPONSE_US: &str = "sync_response_us";
    /// Fetches re-sent after an earlier attempt went unanswered.
    pub const SYNC_RETRIES: &str = "sync_retries";
    /// Fetch targets given up on after every attempt went unanswered — a
    /// replica that is further behind than its peers' retention horizon.
    pub const SYNC_ABANDONED: &str = "sync_abandoned";

    // ---- transport counters, split per MsgKind ----

    /// Messages sent, split per `MsgKind`: `net_msgs_<kind>`.
    pub const NET_MSGS: [&str; 5] = [
        "net_msgs_proposal",
        "net_msgs_vote",
        "net_msgs_timeout",
        "net_msgs_sync_request",
        "net_msgs_sync_response",
    ];
    /// Payload bytes sent, per kind: `net_bytes_<kind>`.
    pub const NET_BYTES: [&str; 5] = [
        "net_bytes_proposal",
        "net_bytes_vote",
        "net_bytes_timeout",
        "net_bytes_sync_request",
        "net_bytes_sync_response",
    ];

    /// Wire frames enqueued toward peers (`TcpCluster` / `NodeTransport`,
    /// framing overhead included in `net_frame_bytes`).
    pub const NET_FRAMES_SENT: &str = "net_frames_sent";
    /// Total framed bytes enqueued toward peers.
    pub const NET_FRAME_BYTES: &str = "net_frame_bytes";

    /// Times the socket core's I/O thread (`TcpCluster` /
    /// `NodeTransport`) woke from `poll(2)` with at least one socket
    /// ready.
    pub const NET_READER_WAKEUPS: &str = "net_reader_wakeups";
    /// `read` calls the socket core's I/O thread issued (one per ready
    /// socket, more only while reads keep filling the 64 KiB buffer).
    pub const NET_READ_SYSCALLS: &str = "net_read_syscalls";
    /// Vectored writes of the socket core's writer thread that moved
    /// bytes (one carries every gate-open frame queued on a connection).
    pub const NET_WRITE_SYSCALLS: &str = "net_write_syscalls";

    // ---- real-socket transport health ----

    /// TCP connect attempts by `NodeTransport`'s dialer.
    pub const NET_RECONNECT_ATTEMPTS: &str = "net_reconnect_attempts";
    /// Failed connects that pushed a peer's next attempt back by an
    /// exponential backoff.
    pub const NET_BACKOFF_SLEEPS: &str = "net_backoff_sleeps";
    /// Total milliseconds of backoff those failures imposed.
    pub const NET_BACKOFF_SLEEP_MS: &str = "net_backoff_sleep_ms";

    // ---- trace event names (NDJSON `"ev"` values) ----

    /// A node process came up (fields: `id`).
    pub const EV_NODE_START: &str = "node_start";
    /// WAL replay finished before the first tick (fields: `records`).
    pub const EV_WAL_REPLAY_DONE: &str = "wal_replay_done";
    /// A proposal was first seen for a round (fields: `round`).
    pub const EV_PROPOSAL: &str = "proposal";
    /// This replica cast a vote (fields: `round`).
    pub const EV_VOTE: &str = "vote";
    /// A QC formed locally (fields: `round`).
    pub const EV_QC: &str = "qc";
    /// A round reached standard commit (fields: `round`, `height`).
    pub const EV_COMMIT: &str = "commit";
    /// A committed round's strength level rose (fields: `round`,
    /// `level`).
    pub const EV_STRENGTH: &str = "strength";
    /// A node finished and flushed its state (fields: `round`).
    pub const EV_NODE_STOP: &str = "node_stop";
}

#[cfg(test)]
mod tests {
    use super::names;

    #[test]
    fn strength_names_clamp() {
        assert_eq!(names::strength_level_name(0), "strength_x0_us");
        assert_eq!(names::strength_level_name(8), "strength_x8_us");
        assert_eq!(names::strength_level_name(40), "strength_x8_us");
    }

    #[test]
    fn ack_names_clamp() {
        assert_eq!(names::ack_level_name(0), "ack_x0_us");
        assert_eq!(names::ack_level_name(2), "ack_x2_us");
        assert_eq!(names::ack_level_name(40), "ack_x8_us");
    }
}
