//! The client-fed cluster of the residency and budget suites: n = 4
//! SFT-DiemBFT on the run loop, fed [`TXN_BYTES`] submissions through the
//! replicas' gateways by [`ClosedLoop`]. The two residency suites —
//! `payload_residency.rs` on file-backed logs,
//! `payload_residency_in_memory.rs` with none — run it for [`ROUNDS`]
//! rounds with [`WINDOW`] submissions in flight from [`CLIENTS`] clients;
//! `hash_budget.rs` and `copy_budget.rs` hand it a fixed list of
//! submissions built before they start counting.

// Each suite uses its own part of this file.
#![allow(dead_code)]

use std::sync::Arc;

use sft_core::ReplicaEngine;
use sft_fbft::FbftEngine;
use sft_network::{ClientDelivery, NetworkStats, SimNetwork, SimTransport, Transport};
use sft_sim::{build_fbft_engines, Behavior, EngineRunner, Protocol, RunPlan, SimConfig};
use sft_types::{
    ClientFrame, ClientRequest, Decode, Dest, Encode, ReplicaId, Round, SendGate, SimTime,
    Transaction,
};

/// Payload bytes per transaction.
pub const TXN_BYTES: usize = 4096;

/// Submissions the client keeps in flight.
pub const WINDOW: usize = 32;

/// Clients the submissions are numbered for, round robin.
pub const CLIENTS: u64 = 8;

/// Most transactions a leader puts in one block.
pub const BATCH: u32 = 16;

/// Rounds the cluster runs.
pub const ROUNDS: u64 = 600;

/// Replicas in the cluster.
pub const N: usize = 4;

/// The simulator plus a client at the replicas' gateways. A windowed
/// client keeps [`WINDOW`] submissions in flight and sends the next one
/// when a replica answers one; a fixed list is handed over on the first
/// poll, and answers to it go nowhere.
pub struct ClosedLoop {
    inner: SimTransport,
    /// Submissions built ahead, handed over on the next poll.
    queued: Vec<ClientDelivery>,
    /// Submissions kept in flight by making new ones; 0 for a fixed list.
    window: usize,
    in_flight: usize,
    next_seq: u64,
}

impl ClosedLoop {
    /// A client keeping [`WINDOW`] submissions in flight.
    pub fn windowed(config: &SimConfig) -> Self {
        Self {
            window: WINDOW,
            ..Self::fixed(config, Vec::new())
        }
    }

    /// A client that submits `submissions` at the first poll, and nothing
    /// after.
    pub fn fixed(config: &SimConfig, submissions: Vec<ClientDelivery>) -> Self {
        Self {
            inner: SimTransport::new(SimNetwork::new(config.delay), N),
            queued: submissions,
            window: 0,
            in_flight: 0,
            next_seq: 0,
        }
    }
}

/// Submission `seq`: client `seq % CLIENTS`'s request number
/// `seq / CLIENTS` — each client numbers its own requests contiguously,
/// as a real one does — of [`TXN_BYTES`], sent to replica `seq % N` and
/// asking for an ack at strength `ack_at`.
pub fn submission(seq: u64, ack_at: u64) -> ClientDelivery {
    let txn = Transaction::new(
        seq % CLIENTS,
        seq / CLIENTS,
        vec![(seq % 251) as u8; TXN_BYTES],
    );
    ClientDelivery {
        conn: seq,
        replica: ReplicaId::new((seq % N as u64) as u16),
        payload: ClientFrame::Request(ClientRequest::new(txn, ack_at))
            .to_bytes()
            .into(),
    }
}

impl Transport for ClosedLoop {
    fn replica_count(&self) -> usize {
        self.inner.replica_count()
    }

    fn send_to(&mut self, from: ReplicaId, dest: Dest, payload: Arc<[u8]>, gate: Option<SendGate>) {
        self.inner.send_to(from, dest, payload, gate);
    }

    fn poll_deliver(&mut self, deadline: SimTime) -> Vec<sft_network::Delivery> {
        self.inner.poll_deliver(deadline)
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn next_deliver_at(&self) -> Option<SimTime> {
        self.inner.next_deliver_at()
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn stats(&self) -> NetworkStats {
        self.inner.stats()
    }

    fn poll_clients(&mut self) -> Vec<ClientDelivery> {
        let mut out = std::mem::take(&mut self.queued);
        while self.in_flight < self.window {
            out.push(submission(self.next_seq, 0));
            self.next_seq += 1;
            self.in_flight += 1;
        }
        out
    }

    fn send_client(&mut self, _conn: u64, _replica: ReplicaId, payload: Arc<[u8]>) {
        // Every answer — committed, busy or duplicate — frees a slot of
        // the window.
        if self.window > 0 && matches!(ClientFrame::from_bytes(&payload), Ok(ClientFrame::Ack(_))) {
            self.in_flight -= 1;
        }
    }
}

/// The cluster's configuration.
pub fn config() -> SimConfig {
    SimConfig::new(N, ROUNDS)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(BATCH)
        .with_live_clients(true)
}

/// The cluster fed by `client`, ready to run past `config.epochs`
/// rounds, with no logs installed.
pub fn runner(config: &SimConfig, client: ClosedLoop) -> EngineRunner<FbftEngine, ClosedLoop> {
    EngineRunner::new(
        build_fbft_engines(config, config.base_timeout()),
        vec![Behavior::Honest; N],
        client,
        config.runner_config(RunPlan::PastRound(Round::new(config.epochs))),
    )
}

/// The budget suites' cluster: 12 rounds, blocks of up to 64
/// transactions, fed `txns` submissions that ask for acks at strength 1.
/// They are built here, before the suite starts counting: the client's
/// own hashing and encoding are not the cluster's.
pub fn budget_runner(txns: u64) -> EngineRunner<FbftEngine, ClosedLoop> {
    let config = SimConfig::new(N, 12)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(64)
        .with_live_clients(true);
    let submissions = (0..txns).map(|seq| submission(seq, 1)).collect();
    runner(&config, ClosedLoop::fixed(&config, submissions))
}

/// Runs `runner` past [`ROUNDS`] one δ at a time, calling `check` with
/// each instant it stopped at.
pub fn run_checked(
    runner: &mut EngineRunner<FbftEngine, ClosedLoop>,
    config: &SimConfig,
    mut check: impl FnMut(&EngineRunner<FbftEngine, ClosedLoop>, SimTime),
) {
    let mut at = SimTime::ZERO;
    while (0..N).any(|i| runner.engine(i).round() <= Round::new(ROUNDS)) {
        at += config.delay;
        assert!(
            at <= SimTime::ZERO + config.run_horizon(),
            "the run stalled"
        );
        runner.run_until(at).expect("the logs stay healthy");
        check(runner, at);
    }
}
