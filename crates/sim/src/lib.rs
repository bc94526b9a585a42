//! # sft-sim
//!
//! The run harness for the SFT protocol family: one replica run loop
//! ([`EngineRunner`]) drives any [`ReplicaEngine`]
//! set over any [`Transport`] — the deterministic in-process
//! [`SimTransport`], the real-socket [`TcpCluster`], or (hosting one
//! replica per process, in `sft-node`) a `NodeTransport` — with pluggable
//! Byzantine behaviors per replica.
//!
//! Under [`SimTransport`] there is no real networking and no wall-clock
//! anywhere, so every run with the same [`SimConfig`] produces
//! byte-identical results on every platform — which is what makes
//! protocol bugs reproducible and the paper's delay-sweep experiments
//! (§4) scriptable. The same engines over [`TcpCluster`] commit the same
//! chain (content is deterministic; only timing is not), which the
//! `tcp_parity` suite asserts.
//!
//! Two protocols share the harness ([`Protocol`]):
//!
//! - [`Protocol::Streamlet`] — the Appendix-D variant: epochs of two
//!   message delays, clocked by the engine's own epoch schedule
//!   ([`RunPlan::UntilQuiescent`]), built by [`build_streamlet_engines`];
//! - [`Protocol::Fbft`] — the main-body SFT-DiemBFT protocol: self-paced
//!   by deliveries and pacemaker deadlines ([`RunPlan::PastRound`]), so
//!   the timeout/TC recovery path runs exactly as the pacemaker schedules
//!   it, built by [`build_fbft_engines`].
//!
//! [`SimConfig::run`] builds either engine set and runs it to completion;
//! a test that needs to step, crash or inspect a replica mid-run builds
//! the [`EngineRunner`] itself and reads each replica through its
//! [`ChainKernel`].
//!
//! ## Fault injection
//!
//! [`Behavior`] covers the attack shapes the commit rules care about:
//!
//! - [`Behavior::Silent`] — crashed from the start: never proposes, never
//!   votes, never processes a message.
//! - [`Behavior::WithholdVote`] — alive and proposing, but never votes:
//!   starves quorums without detection (the classic "slow replica").
//! - [`Behavior::Equivocate`] — as leader, proposes two conflicting blocks
//!   to the two halves of the replica set; as voter, votes for every
//!   proposal it sees and always attaches a lying marker of 0.
//! - [`Behavior::StallLeader`] — follows the protocol except that it never
//!   proposes when leading. In SFT-DiemBFT this forces the timeout/TC path
//!   every time its turn comes; in Streamlet (externally clocked epochs,
//!   no timeout machinery) its epochs simply stay empty.
//!
//! ## Example
//!
//! ```
//! use sft_sim::{Behavior, Protocol, SimConfig};
//!
//! let report = SimConfig::new(4, 10).run();
//! assert!(report.agreement(), "honest runs always agree");
//! assert!(report.max_commit_level() >= 1);
//!
//! // The same scenario against the round-based main protocol.
//! let report = SimConfig::new(4, 10).with_protocol(Protocol::Fbft).run();
//! assert!(report.agreement());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod engines;
pub mod runner;

use std::sync::Arc;

use sft_core::{ChainKernel, GroupCommitWal, MemSink, PayloadSource, ReplicaEngine, SyncStats};
use sft_crypto::{HashValue, IdMap};
use sft_network::{NetworkStats, ProtocolTag, SimNetwork};
use sft_obs::SharedRecorder;
use sft_types::{
    BatchConfig, EndorseMode, ReplicaId, Round, SimDuration, SimTime, StrongCommitUpdate,
    Transaction,
};

pub use engines::{build_fbft_engines, build_paced_fbft_engines, build_streamlet_engines};
pub use runner::{EngineRunner, RunPlan, RunnerConfig};
pub use sft_network::{FaultSchedule, Partition, SimTransport, TcpCluster, Transport};

/// Per-replica fault model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Behavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Crashed from the start: sends and processes nothing.
    Silent,
    /// Processes everything and proposes when leading, but never votes.
    WithholdVote,
    /// Proposes conflicting blocks to the two halves of the replica set
    /// when leading; votes for every proposal with a forged zero marker.
    Equivocate,
    /// Honest in every way except that it never proposes when leading —
    /// the scenario that exercises the timeout/TC recovery path.
    StallLeader,
}

/// Which protocol the simulated replicas run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Protocol {
    /// SFT-Streamlet (Appendix D): height-based, lock-step epochs.
    #[default]
    Streamlet,
    /// SFT-DiemBFT (§2–§3): round-based, pacemaker-driven with timeouts.
    Fbft,
}

impl Protocol {
    /// The envelope tag this protocol's replica traffic rides under.
    pub fn tag(self) -> ProtocolTag {
        match self {
            Protocol::Streamlet => ProtocolTag::Streamlet,
            Protocol::Fbft => ProtocolTag::Fbft,
        }
    }
}

/// How a run persists (and waits for) its write-ahead log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// No log: persist records are dropped once the step that made them
    /// is routed, nothing is fsynced and nothing is gated. Zero overhead;
    /// no durability. (Crash tests install group-commit logs on memory
    /// sinks and restart from the bytes those wrote.)
    #[default]
    InMemory,
    /// Group commit: appends are buffered for a dedicated WAL-writer
    /// thread that fsyncs on demand — once per replica per instant that
    /// gated a frame — and publishes a durability watermark; outbound
    /// messages are *gated* on the watermark, so no frame leaves before
    /// the records that justify it are on disk.
    GroupCommit,
}

/// Simulation parameters. Build with [`SimConfig::new`] and the `with_*`
/// methods, then call [`SimConfig::run`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of replicas (`n = 3f + 1` recommended).
    pub n: usize,
    /// Number of epochs (Streamlet) or rounds (SFT-DiemBFT) to run.
    pub epochs: u64,
    /// Which protocol the replicas run.
    pub protocol: Protocol,
    /// Behavior per replica; defaults to all-honest.
    pub behaviors: Vec<Behavior>,
    /// Endorsement info honest voters attach.
    pub endorse_mode: EndorseMode,
    /// One-way network delay δ.
    pub delay: SimDuration,
    /// Transactions per proposed block (the paper uses ~1000).
    pub txns_per_block: u32,
    /// Bytes per transaction (the paper uses ~450).
    pub txn_bytes: u32,
    /// Transactions per batch leaders drain from their mempools. `0` (the
    /// default) keeps the synthetic-descriptor workload: blocks *describe*
    /// `txns_per_block × txn_bytes` batches without materializing them.
    /// `> 0` switches to the batched client workload: every replica's
    /// mempool is fed the same deterministic client transaction stream
    /// (`txn_bytes` each) and leaders drain real
    /// [`Payload::Transactions`](sft_types::Payload) batches of this size.
    pub batch_size: u32,
    /// Partial-synchrony fault schedule for the network (seeded message
    /// loss before GST, optional partition with a heal time). `None` keeps
    /// the lossless synchronous transport.
    pub faults: Option<FaultSchedule>,
    /// The run horizon set by [`SimConfig::with_run_horizon`]; `None`
    /// derives it (see [`SimConfig::run_horizon`]).
    horizon: Option<SimDuration>,
    /// Serve live clients instead of the driver-fed workload: in batched
    /// mode (`batch_size > 0`), skip pre-feeding the deterministic client
    /// stream so blocks carry exactly what real clients submit through
    /// the transport's client gateway. Leaders still propose every slot
    /// (an empty mempool makes an empty block), so the protocol paces
    /// itself identically whether clients are quiet or flooding.
    pub live_clients: bool,
    /// Admission-control cap on every replica's mempool: at most this
    /// many pending transactions before `submit` answers `Busy`.
    /// `None` (the default) leaves admission unbounded.
    pub mempool_txn_cap: Option<u32>,
    /// Record run-loop phase timings, per-round consensus latencies, and
    /// per-kind traffic counters into [`SimReport::metrics`]. Off by
    /// default: the no-op recorder keeps the hot path free.
    pub recording: bool,
    /// How replicas persist their write-ahead logs (see
    /// [`DurabilityMode`]). Simulated runs back the logs with in-memory
    /// sinks — the *discipline* (sequencing, gating, group boundaries) is
    /// exercised without real disks, and [`run_over_tcp`] swaps in file
    /// sinks for real fsyncs. Defaults to [`DurabilityMode::InMemory`].
    pub durability: DurabilityMode,
}

/// One durable log per replica of a run.
type Wals = Vec<GroupCommitWal>;

/// What a run observes and persists with: the live recorder when
/// [`SimConfig::recording`] is on, and the per-replica durable logs
/// unless the run is [`DurabilityMode::InMemory`].
type Instruments = (Option<SharedRecorder>, Option<Wals>);

/// The one place a [`SimConfig`] becomes an [`EngineRunner`], for the
/// simulator and the loopback-TCP harness alike: pacing and safety bounds
/// from `config` (`drain_step` is the transport's δ), one behavior per
/// engine, then the run's instruments.
fn build_runner<E: ReplicaEngine, T: Transport>(
    config: &SimConfig,
    engines: Vec<E>,
    transport: T,
    plan: RunPlan,
    drain_step: SimDuration,
    (recorder, wals): Instruments,
) -> EngineRunner<E, T> {
    let bounds = RunnerConfig {
        drain_step,
        ..config.runner_config(plan)
    };
    let mut runner = EngineRunner::new(engines, config.behaviors.clone(), transport, bounds);
    if let Some(recorder) = recorder {
        runner.set_recorder(recorder);
    }
    if let Some(wals) = wals {
        runner.set_wals(wals);
    }
    runner
}

/// The registry a recording run reports into; `None` keeps the free
/// no-op recorder.
fn run_recorder(config: &SimConfig) -> Option<SharedRecorder> {
    config
        .recording
        .then(|| Arc::new(sft_obs::Registry::new()) as SharedRecorder)
}

/// A simulated run's [`Instruments`]: under group commit its durable
/// logs sit on in-memory sinks — the sequencing, gating, and group
/// boundaries are exercised for real while the "disk" stays a byte
/// vector.
fn sim_instruments(config: &SimConfig) -> Instruments {
    let recorder = run_recorder(config);
    let wals = (config.durability == DurabilityMode::GroupCommit)
        .then(|| memory_wals(config.n, &recorder.clone().unwrap_or_else(sft_obs::noop)).0);
    (recorder, wals)
}

/// One group-commit log per replica of `n` on a memory sink, reporting
/// to `recorder`, and a clone of each sink: the bytes its log wrote,
/// which a crash test restarts the replica from.
///
/// # Panics
///
/// Panics if a log's writer thread cannot be spawned.
pub fn memory_wals(n: usize, recorder: &SharedRecorder) -> (Vec<GroupCommitWal>, Vec<MemSink>) {
    (0..n)
        .map(|_| {
            let sink = MemSink::new();
            let wal = GroupCommitWal::spawn(sink.clone(), Arc::clone(recorder), None)
                .expect("spawn wal writer");
            (wal, sink)
        })
        .unzip()
}

/// The default run horizon for `base_timeout` and `epochs`.
fn default_horizon(base_timeout: SimDuration, epochs: u64) -> SimDuration {
    SimDuration::from_micros(
        base_timeout
            .as_micros()
            .saturating_mul(64)
            .saturating_mul(epochs.saturating_add(8)),
    )
}

impl SimConfig {
    /// An all-honest Streamlet configuration with the paper's workload
    /// shape (1000 × 450 B blocks) and δ = 100 ms.
    pub fn new(n: usize, epochs: u64) -> Self {
        Self {
            n,
            epochs,
            protocol: Protocol::Streamlet,
            behaviors: vec![Behavior::Honest; n],
            endorse_mode: EndorseMode::Marker,
            delay: SimDuration::from_millis(100),
            txns_per_block: 1000,
            txn_bytes: 450,
            batch_size: 0,
            faults: None,
            horizon: None,
            live_clients: false,
            mempool_txn_cap: None,
            recording: false,
            durability: DurabilityMode::InMemory,
        }
    }

    /// Serves live clients instead of pre-feeding the deterministic
    /// workload (see [`SimConfig::live_clients`]).
    pub fn with_live_clients(mut self, live: bool) -> Self {
        self.live_clients = live;
        self
    }

    /// Caps every replica's mempool at `cap` pending transactions (see
    /// [`SimConfig::mempool_txn_cap`]).
    pub fn with_mempool_txn_cap(mut self, cap: u32) -> Self {
        self.mempool_txn_cap = Some(cap);
        self
    }

    /// Turns metric recording on or off (see [`SimConfig::recording`]).
    pub fn with_recording(mut self, recording: bool) -> Self {
        self.recording = recording;
        self
    }

    /// Selects the WAL persistence discipline (see
    /// [`SimConfig::durability`]).
    pub fn with_durability(mut self, durability: DurabilityMode) -> Self {
        self.durability = durability;
        self
    }

    /// Selects the protocol the replicas run.
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets replica `id`'s behavior.
    ///
    /// # Panics
    ///
    /// Panics if `id >= n`.
    pub fn with_behavior(mut self, id: u16, behavior: Behavior) -> Self {
        self.behaviors[id as usize] = behavior;
        self
    }

    /// Sets the endorsement mode for honest voters.
    pub fn with_endorse_mode(mut self, mode: EndorseMode) -> Self {
        self.endorse_mode = mode;
        self
    }

    /// Sets the one-way delay δ; the base round timeout and the default
    /// run horizon follow it.
    pub fn with_delay(mut self, delay: SimDuration) -> Self {
        self.delay = delay;
        self
    }

    /// Overrides the run horizon (see [`SimConfig::run_horizon`]).
    pub fn with_run_horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Base round timeout for the SFT-DiemBFT pacemaker (Streamlet's
    /// epochs are externally clocked): 4δ, above the 2δ
    /// propose-plus-vote exchange.
    pub fn base_timeout(&self) -> SimDuration {
        self.delay * 4
    }

    /// Maximum post-schedule drain iterations: after the last epoch (or
    /// past the target round), the runner keeps virtual time moving in δ
    /// steps — so in-flight messages settle and block-sync retry timers
    /// still fire — for at most `4 × epochs + 32` steps.
    pub fn drain_sync_bound(&self) -> u64 {
        self.epochs.saturating_mul(4).saturating_add(32)
    }

    /// Hard virtual-time ceiling on a run: a runaway guard for Byzantine
    /// scenarios under heavy loss that could otherwise sync forever
    /// against the endless pipelined event stream. Unless overridden with
    /// [`with_run_horizon`](Self::with_run_horizon), it is
    /// `base_timeout × 64 × (epochs + 8)`.
    pub fn run_horizon(&self) -> SimDuration {
        self.horizon
            .unwrap_or_else(|| default_horizon(self.base_timeout(), self.epochs))
    }

    /// How a simulated run of this configuration under `plan` is bounded:
    /// its [`run_horizon`](Self::run_horizon) and
    /// [`drain_sync_bound`](Self::drain_sync_bound), draining in δ steps.
    pub fn runner_config(&self, plan: RunPlan) -> RunnerConfig {
        RunnerConfig {
            plan,
            horizon: SimTime::ZERO + self.run_horizon(),
            drain_bound: self.drain_sync_bound(),
            drain_step: self.delay,
        }
    }

    /// Sets the synthetic workload shape.
    pub fn with_workload(mut self, txns_per_block: u32, txn_bytes: u32) -> Self {
        self.txns_per_block = txns_per_block;
        self.txn_bytes = txn_bytes;
        self
    }

    /// Switches to the batched client workload: leaders drain real
    /// transaction batches of `batch_size` from their mempools (see
    /// [`SimConfig::batch_size`]). `0` restores the synthetic descriptor
    /// workload.
    pub fn with_batch_size(mut self, batch_size: u32) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Applies a partial-synchrony fault schedule to the network.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The lossy-link preset: drop each message with probability
    /// `drop_probability` until GST at half the nominal run length
    /// (`epochs × δ`), reliable delivery after — the scenario every
    /// Byzantine behavior is re-run under in CI. Layers onto the schedule
    /// already set: a partition stays in force.
    pub fn with_lossy_links(mut self, seed: u64, drop_probability: f64) -> Self {
        let gst = SimTime::ZERO + self.delay * self.epochs;
        let partition = self.faults.take().and_then(|faults| faults.partition);
        self.with_faults(FaultSchedule {
            partition,
            ..FaultSchedule::lossy(seed, drop_probability, gst)
        })
    }

    /// The partition preset: replica `n − 1` is cut off from everyone else
    /// until half the nominal run length (`epochs × δ`), then the cut
    /// heals — the scenario the block-sync acceptance criterion measures
    /// (the isolated replica must recover the committed prefix). Layers
    /// onto the schedule already set: its loss stays in force.
    pub fn with_partitioned_straggler(mut self) -> Self {
        let straggler = ReplicaId::new((self.n - 1) as u16);
        let heal_at = SimTime::ZERO + self.delay * self.epochs;
        let faults = match self.faults.take() {
            Some(faults) => faults.with_partition(vec![straggler], heal_at),
            None => FaultSchedule::partition(vec![straggler], heal_at),
        };
        self.with_faults(faults)
    }

    /// The simulated network of this configuration: delay δ, the fault
    /// schedule if any, `n` endpoints.
    fn sim_transport(&self) -> SimTransport {
        let mut net = SimNetwork::new(self.delay);
        if let Some(faults) = &self.faults {
            net = net.with_faults(faults.clone());
        }
        SimTransport::new(net, self.n)
    }

    /// The payload source replicas propose from under this configuration.
    fn payload_source(&self) -> PayloadSource {
        if self.batch_size > 0 {
            PayloadSource::Mempool(BatchConfig {
                max_txns: self.batch_size,
                // The sweep knob is the count; leave bytes uncapped so
                // `batch_size` is authoritative.
                max_bytes: u64::MAX,
            })
        } else {
            PayloadSource::Synthetic {
                txn_count: self.txns_per_block,
                txn_bytes: self.txn_bytes,
            }
        }
    }

    /// The deterministic client transaction stream fed to every replica's
    /// mempool in batched mode: enough full batches for every round the run
    /// can reach, identical on every replica (clients broadcast their
    /// transactions), empty in synthetic mode.
    pub(crate) fn client_workload(&self) -> Vec<Transaction> {
        if self.batch_size == 0 || self.live_clients {
            return Vec::new();
        }
        // One batch per round target, with slack for timeout-skipped rounds.
        let total = (self.epochs + 4) * u64::from(self.batch_size);
        let clients = 16u64;
        (0..total)
            .map(|i| {
                Transaction::new(
                    i % clients,
                    i / clients,
                    vec![0xc5; self.txn_bytes as usize],
                )
            })
            .collect()
    }

    /// What both protocols' engine builders do to replica `id`'s fresh
    /// kernel: the payload source (stalling leaders get none — their whole
    /// deviation is "never propose", and everything else runs normally),
    /// the mempool cap, and `workload` fed through the mempool's admission
    /// path — the same `submit` every live client goes through, minus the
    /// ack registration (the harness is not waiting on acks).
    pub(crate) fn seed_kernel(&self, kernel: &mut ChainKernel, id: u16, workload: &[Transaction]) {
        if self.behaviors.get(id as usize) != Some(&Behavior::StallLeader) {
            kernel.set_payload_source(self.payload_source());
        }
        if let Some(cap) = self.mempool_txn_cap {
            kernel.set_mempool_caps(cap as usize, u64::MAX);
        }
        for txn in workload {
            let admitted = kernel.submit(txn.clone());
            debug_assert_eq!(admitted, sft_core::Admission::Admitted);
        }
    }

    /// Runs the simulation to completion under the configured protocol:
    /// for Streamlet until the epoch clock stops and catch-up traffic
    /// settles, for SFT-DiemBFT until every honest replica passes the
    /// target round and none is still block-syncing (or the horizon
    /// trips).
    ///
    /// # Panics
    ///
    /// Panics if `behaviors` is not exactly `n` entries.
    pub fn run(self) -> SimReport {
        let instruments = sim_instruments(&self);
        let report = match self.protocol {
            Protocol::Streamlet => build_runner(
                &self,
                build_streamlet_engines(&self, self.delay * 2),
                self.sim_transport(),
                RunPlan::UntilQuiescent,
                self.delay,
                instruments,
            )
            .run(),
            Protocol::Fbft => build_runner(
                &self,
                build_fbft_engines(&self, self.base_timeout()),
                self.sim_transport(),
                RunPlan::PastRound(Round::new(self.epochs)),
                self.delay,
                instruments,
            )
            .run(),
        };
        report.expect("a simulated run's WAL sinks are in memory")
    }

    /// Checks a wall-clock run of this config (`run`, e.g. from
    /// [`run_over_tcp`]) against `reference`, this config's simulated
    /// run: every chain `run` committed must be a prefix of the
    /// simulator's ([`SimReport::check_committed_prefix_of`]).
    ///
    /// A wall-clock run may commit past the round where the virtual-time
    /// reference stopped. The simulator then runs again with one more
    /// epoch per missing block, to cover `run`'s highest committed
    /// height. Blocks are a pure function of their position and the
    /// prefix-stable workload stream, so that longer chain must extend
    /// `reference`'s; this is checked too.
    ///
    /// # Errors
    ///
    /// Returns where the longer reference diverges from `reference`, or
    /// where `run` diverges from (or outgrows) the reference.
    pub fn check_prefix_parity(
        &self,
        reference: &SimReport,
        run: &SimReport,
    ) -> Result<(), String> {
        let missing = run
            .max_committed()
            .saturating_sub(reference.max_committed());
        if missing == 0 {
            return run.check_committed_prefix_of(reference);
        }
        let epochs = self.epochs + missing as u64;
        let longer = SimConfig {
            epochs,
            horizon: Some(default_horizon(self.base_timeout(), epochs).max(self.run_horizon())),
            ..self.clone()
        }
        .run();
        reference
            .check_committed_prefix_of(&longer)
            .map_err(|e| format!("the {epochs}-epoch reference does not extend it: {e}"))?;
        run.check_committed_prefix_of(&longer)
    }
}

/// Wall-clock pacing for a loopback TCP run of a [`SimConfig`] replica
/// set. The defaults leave orders of magnitude of scheduler slack over
/// loopback latency (tens of microseconds) while keeping runs short.
#[derive(Clone, Copy, Debug)]
pub struct TcpPacing {
    /// The pacing unit: Streamlet epochs span two of these, and the
    /// post-run drain advances in steps of it.
    pub delta: SimDuration,
    /// SFT-DiemBFT base round timeout. Keep far above loopback round
    /// latency so rounds close on QCs, never on spurious wall-clock TCs.
    pub base_timeout: SimDuration,
    /// Hard wall-clock ceiling on the run.
    pub horizon: SimDuration,
}

impl Default for TcpPacing {
    fn default() -> Self {
        Self {
            delta: SimDuration::from_millis(25),
            base_timeout: SimDuration::from_secs(5),
            horizon: SimDuration::from_secs(120),
        }
    }
}

/// Runs `config`'s replica set — the exact engines [`SimConfig::run`]
/// would build — over a loopback TCP mesh instead of the simulator, under
/// the same [`EngineRunner`] loop. This is the transport-parity harness
/// the `tcp_parity` suite drives: content determinism means the TCP run
/// commits the sim run's chain (check with
/// [`SimConfig::check_prefix_parity`]); only its length can differ.
///
/// # Errors
///
/// Returns any socket error raised while building the mesh, and any WAL
/// failure of a durable run.
pub fn run_over_tcp(config: &SimConfig, pacing: TcpPacing) -> std::io::Result<SimReport> {
    run_over_tcp_serving(config, pacing, |_| {})
}

/// [`run_over_tcp`] with a live client plane: once the mesh is up —
/// but before the first round fires — `ready` receives one socket
/// address per replica, each the client gateway of the corresponding
/// replica's [`TcpCluster`] listener. Dial them with a
/// [`ProtocolTag::Client`] hello frame (see the crate README's
/// "Client API") and submit [`sft_types::ClientRequest`]s; the run
/// loop serves admission and acks in-line with consensus. `ready` runs
/// on the caller's thread, so spawn client threads from it rather than
/// blocking — the replicas only start exchanging messages after it
/// returns.
///
/// # Errors
///
/// Returns any socket error raised while building the mesh, and any WAL
/// failure of a durable run.
pub fn run_over_tcp_serving(
    config: &SimConfig,
    pacing: TcpPacing,
    ready: impl FnOnce(&[std::net::SocketAddr]),
) -> std::io::Result<SimReport> {
    // On a wall clock the runaway guard is the pacing's, not the
    // virtual-time default.
    let config = &SimConfig {
        horizon: Some(pacing.horizon),
        ..config.clone()
    };
    let mut cluster = TcpCluster::loopback(config.n, config.protocol.tag())?;
    // One registry serves the transport's frame counters and the
    // runner's phase timings alike, so the report's metrics are whole.
    let recorder = run_recorder(config);
    if let Some(recorder) = &recorder {
        cluster.set_recorder(Arc::clone(recorder));
    }
    let addrs: Vec<_> = (0..config.n as u16)
        .map(|id| cluster.client_addr(ReplicaId::new(id)))
        .collect();
    ready(&addrs);
    // Unlike the simulator's in-memory sinks, TCP runs persist to real
    // files: the fsyncs (and the group-commit win over them) are real.
    let (wals, wal_root) = tcp_wals(config, &cluster, recorder.as_ref())?;
    let instruments = (recorder, wals);
    let report = match config.protocol {
        Protocol::Streamlet => build_runner(
            config,
            build_streamlet_engines(config, pacing.delta * 2),
            cluster,
            RunPlan::UntilQuiescent,
            pacing.delta,
            instruments,
        )
        .run(),
        Protocol::Fbft => build_runner(
            config,
            build_paced_fbft_engines(config, pacing.base_timeout),
            cluster,
            RunPlan::PastRound(Round::new(config.epochs)),
            pacing.delta,
            instruments,
        )
        .run(),
    };
    // The runner (and with it every WAL-writer thread) is gone; the logs
    // were scratch state for this run only.
    if let Some(root) = wal_root {
        let _ = std::fs::remove_dir_all(root);
    }
    report.map_err(wal_io_error)
}

/// A WAL failure as the `io::Error` the TCP harness reports.
fn wal_io_error(e: sft_core::WalError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Monotone discriminator for concurrent/successive TCP runs in one
/// process, so their scratch WAL directories never collide.
static TCP_WAL_RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Builds the file-backed per-replica durable logs for a TCP run (and the
/// scratch directory root to remove afterwards), or `(None, None)` under
/// [`DurabilityMode::InMemory`]. Each log gets the cluster's wake hook:
/// a completed fsync releases the frames it gates through that signal
/// alone (a poll asleep in its wait does not look at a closed gate).
fn tcp_wals(
    config: &SimConfig,
    cluster: &TcpCluster,
    recorder: Option<&SharedRecorder>,
) -> std::io::Result<(Option<Wals>, Option<std::path::PathBuf>)> {
    if config.durability == DurabilityMode::InMemory {
        return Ok((None, None));
    }
    let run = TCP_WAL_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("sft-wal-{}-{run}", std::process::id()));
    let mut wals: Wals = Vec::with_capacity(config.n);
    for id in 0..config.n {
        let dir = root.join(format!("replica-{id}"));
        std::fs::create_dir_all(&dir)?;
        let recorder = recorder.map_or_else(sft_obs::noop, Arc::clone);
        let wal = sft_core::WalStore::open(&dir, 1)
            .and_then(|store| store.into_group_commit(recorder, Some(cluster.wake_hook())))
            .map_err(wal_io_error)?;
        wals.push(wal);
    }
    Ok((Some(wals), Some(root)))
}

/// Everything a finished run reports, protocol independent.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Committed chain per replica, oldest block first.
    pub chains: Vec<Vec<HashValue>>,
    /// Strong-commit log per replica (§5): standard commits and every
    /// strength increase, in occurrence order.
    pub commit_logs: Vec<Vec<StrongCommitUpdate>>,
    /// The same log entries stamped with the virtual time each replica
    /// produced them — the series the latency experiments (§4, Fig 7/8)
    /// are computed from.
    pub timelines: Vec<Vec<(SimTime, StrongCommitUpdate)>>,
    /// Aggregate network traffic.
    pub net: NetworkStats,
    /// Transactions carried by the longest committed chain, counted by
    /// each replica as its blocks commit (batched mode counts drained
    /// client transactions; synthetic mode counts described ones) — the
    /// numerator of the throughput metric.
    pub txns_committed: u64,
    /// Virtual time at the end of the run.
    pub elapsed: SimTime,
    /// Replicas whose commit rule observed conflicting finalized chains.
    pub safety_violations: usize,
    /// Equivocating replicas detected by at least one honest replica.
    pub equivocators_detected: usize,
    /// Block-sync requests issued across all replicas (retries included).
    pub sync_requests: u64,
    /// Blocks recovered via block-sync across all replicas.
    pub sync_blocks_fetched: u64,
    /// Blocks served to syncing peers that the server read back from its
    /// log, having dropped their bytes once their commit was durable
    /// (across all replicas; 0 without a log that can be read back).
    pub sync_served_from_log: u64,
    /// Replicas that fell behind, fetched blocks via sync, and ended the
    /// run with a non-empty committed chain — the catch-up success count.
    pub recovered_replicas: usize,
    /// Total endorsement-walk steps across all replicas — how much work
    /// the §3 ancestor walk did while grading commits.
    pub walk_steps: u64,
    /// Signature checks outside a batch (post-quorum stragglers, settled
    /// conflicting copies), across all replicas. Every counted message is
    /// checked once, here or in a batch: Streamlet at n = 4 over 10 epochs
    /// makes 40 + 40 batches of 3 = 160 = 4 replicas × 4 votes × 10 epochs.
    /// `RESULTS.md` pins it for its run-counter rows.
    pub sig_verifications: u64,
    /// Batched quorum verifications run across all replicas (one per
    /// certificate formed, plus one per admitted certificate with members
    /// not yet held).
    pub batch_verify_calls: u64,
    /// WAL fsyncs across all replicas. 0 under
    /// [`DurabilityMode::InMemory`]; one per durability request under
    /// [`DurabilityMode::GroupCommit`] — the runner requests once per
    /// replica per instant that gated a frame, about one per replica per
    /// round, however many records each appended.
    pub wal_fsyncs: u64,
    /// Counters and latency histograms recorded during the run. Empty
    /// unless the run was built with [`SimConfig::with_recording`] (or a
    /// recorder was installed on the runner directly).
    pub metrics: sft_obs::MetricsSnapshot,
}

/// Aggregates per-replica sync counters into the three report metrics:
/// total requests, total blocks fetched, and the recovered-replica count.
pub(crate) fn sync_report_fields<'a>(
    nodes: impl Iterator<Item = (SyncStats, &'a [HashValue])>,
) -> (u64, u64, usize) {
    let mut requests = 0;
    let mut fetched = 0;
    let mut recovered = 0;
    for (stats, chain) in nodes {
        requests += stats.requests_sent;
        fetched += stats.blocks_admitted;
        if stats.blocks_admitted > 0 && !chain.is_empty() {
            recovered += 1;
        }
    }
    (requests, fetched, recovered)
}

impl SimReport {
    /// True if all committed chains are pairwise prefix-compatible — the
    /// agreement property of Theorem 1.
    pub fn agreement(&self) -> bool {
        self.chains.iter().enumerate().all(|(i, a)| {
            self.chains[i + 1..].iter().all(|b| {
                let common = a.len().min(b.len());
                a[..common] == b[..common]
            })
        })
    }

    /// The longest committed chain across replicas.
    pub fn max_committed(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The highest strength level any replica recorded for any commit.
    pub fn max_commit_level(&self) -> u64 {
        self.commit_logs
            .iter()
            .flatten()
            .map(StrongCommitUpdate::level)
            .max()
            .unwrap_or(0)
    }

    /// Committed transactions per *virtual* second — the throughput number
    /// the batching/pipelining work is measured by. Zero if no time passed.
    pub fn txns_per_sec(&self) -> f64 {
        let micros = self.elapsed.as_micros();
        if micros == 0 {
            return 0.0;
        }
        self.txns_committed as f64 * 1e6 / micros as f64
    }

    /// The virtual instant of the first commit-log entry on replica
    /// `id`'s timeline, if it ever committed — the per-run latency number
    /// the cross-protocol comparison charts.
    pub fn first_commit_at(&self, id: usize) -> Option<SimTime> {
        self.timelines.get(id)?.first().map(|(at, _)| *at)
    }

    /// Verifies that every committed chain in this report is a prefix of
    /// the longest committed chain in `reference` — the transport-parity
    /// acceptance criterion (same blocks, same order; only run length may
    /// differ between transports). Returns a description of the first
    /// divergence.
    ///
    /// # Errors
    ///
    /// Returns why the prefix property does not hold.
    pub fn check_committed_prefix_of(&self, reference: &SimReport) -> Result<(), String> {
        let reference_chain = reference
            .chains
            .iter()
            .max_by_key(|c| c.len())
            .ok_or_else(|| "reference report has no replicas".to_string())?;
        for (id, chain) in self.chains.iter().enumerate() {
            if chain.len() > reference_chain.len() {
                return Err(format!(
                    "replica {id} committed {} blocks vs the reference's {}",
                    chain.len(),
                    reference_chain.len()
                ));
            }
            if chain[..] != reference_chain[..chain.len()] {
                return Err(format!(
                    "replica {id}'s committed chain diverges from the reference"
                ));
            }
        }
        Ok(())
    }

    /// Per-block strength levels never decrease in any replica's commit
    /// log — the monotonicity the §5 log format promises light clients.
    pub fn commit_strength_monotone(&self) -> bool {
        self.commit_logs.iter().all(|log| {
            let mut best: IdMap<u64> = Default::default();
            log.iter().all(|update| {
                let prev = best.insert(update.block_id(), update.level());
                prev.is_none_or(|p| p <= update.level())
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_run_commits_and_strengthens() {
        let report = SimConfig::new(4, 6).run();
        assert!(report.agreement());
        // 6 epochs, commits start landing from epoch 3 on.
        assert!(report.max_committed() >= 3);
        assert_eq!(
            report.max_commit_level(),
            2,
            "all-honest n=4 reaches the 2f ceiling"
        );
        assert_eq!(report.safety_violations, 0);
        // First commit lands when the second epoch's votes arrive: 4δ.
        assert_eq!(report.first_commit_at(0), Some(SimTime::from_millis(400)));
    }

    #[test]
    fn network_accounting_is_nontrivial() {
        let report = SimConfig::new(4, 4).run();
        // Each epoch: 3 proposal sends + 4 voters × 3 vote sends.
        assert!(report.net.messages > 0);
        assert!(
            report.net.bytes > report.net.messages,
            "messages carry payloads"
        );
        assert_eq!(report.elapsed, SimTime::from_millis(4 * 2 * 100));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = SimConfig::new(7, 8)
            .with_behavior(2, Behavior::Equivocate)
            .run();
        let b = SimConfig::new(7, 8)
            .with_behavior(2, Behavior::Equivocate)
            .run();
        assert_eq!(a.chains, b.chains);
        assert_eq!(a.commit_logs, b.commit_logs);
        assert_eq!(a.net, b.net);
    }

    #[test]
    fn lossy_and_partition_presets_compose_in_either_order() {
        let base = SimConfig::new(4, 12);
        let heal_at = SimTime::ZERO + base.delay * base.epochs;
        let want =
            FaultSchedule::lossy(5, 0.1, heal_at).with_partition(vec![ReplicaId::new(3)], heal_at);
        let loss_first = base
            .clone()
            .with_lossy_links(5, 0.1)
            .with_partitioned_straggler();
        let partition_first = base
            .clone()
            .with_partitioned_straggler()
            .with_lossy_links(5, 0.1);
        assert_eq!(loss_first.faults.as_ref(), Some(&want));
        assert_eq!(partition_first.faults.as_ref(), Some(&want));
        // Both are in force on the network each builds: before GST and
        // the heal, some frames between connected replicas are lost, and
        // every one to the straggler is.
        for config in [loss_first, partition_first] {
            let mut net = config.sim_transport();
            let payload: Arc<[u8]> = vec![7].into();
            for _ in 0..200 {
                net.send(ReplicaId::new(0), ReplicaId::new(1), Arc::clone(&payload));
            }
            let lost = net.stats().dropped;
            assert!(lost > 0 && lost < 200, "{lost} of 200 lost to a 10 % loss");
            net.send(ReplicaId::new(0), ReplicaId::new(3), payload);
            assert_eq!(net.stats().dropped, lost + 1, "the straggler is cut off");
        }
    }

    #[test]
    fn recording_off_keeps_metrics_empty() {
        let report = SimConfig::new(4, 4).run();
        assert!(report.metrics.is_empty());
    }

    #[test]
    fn recording_captures_phases_and_round_latencies() {
        use sft_obs::names;
        for protocol in [Protocol::Streamlet, Protocol::Fbft] {
            let report = SimConfig::new(4, 6)
                .with_protocol(protocol)
                .with_recording(true)
                .run();
            let metrics = &report.metrics;
            for phase in [
                names::PHASE_ON_ENVELOPE_NS,
                names::PHASE_PERSIST_NS,
                names::PHASE_ROUTE_NS,
            ] {
                let hist = metrics.hist(phase).unwrap_or_else(|| {
                    panic!("{protocol:?} missing {phase}");
                });
                assert!(hist.p50 > 0 && hist.p99 > 0, "{protocol:?} {phase}");
            }
            let commit = metrics
                .hist(names::ROUND_COMMIT_US)
                .expect("commit latency");
            assert!(commit.count > 0 && commit.p50 > 0, "{protocol:?} commits");
            assert!(metrics.counter(names::CONSENSUS_VOTES_CAST).unwrap_or(0) > 0);
            assert!(metrics.counter(names::CONSENSUS_QC_FORMED).unwrap_or(0) > 0);
            assert!(metrics.counter(names::NET_MSGS[0]).unwrap_or(0) > 0);
            assert!(metrics.counter(names::NET_BYTES[1]).unwrap_or(0) > 0);
        }
        // Streamlet's epoch clock fires deadlines, so tick timing shows up.
        let report = SimConfig::new(4, 4).with_recording(true).run();
        assert!(report.metrics.hist(names::PHASE_ON_TICK_NS).is_some());
    }

    #[test]
    fn walk_steps_are_reported() {
        let report = SimConfig::new(4, 6).run();
        assert!(report.walk_steps > 0, "honest runs grade endorsements");
    }

    #[test]
    #[should_panic(expected = "one behavior per replica")]
    fn behavior_count_must_match() {
        let mut config = SimConfig::new(4, 1);
        config.behaviors.pop();
        config.run();
    }
}
