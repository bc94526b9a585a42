//! The cluster the two residency suites run — `payload_residency.rs` on
//! file-backed logs, `payload_residency_in_memory.rs` with none: n = 4
//! SFT-DiemBFT on the run loop for [`ROUNDS`] rounds, fed by a closed-loop
//! client that keeps [`WINDOW`] submissions of [`TXN_BYTES`] in flight
//! through the replicas' gateways, from [`CLIENTS`] clients.

use std::sync::Arc;

use sft_core::ReplicaEngine;
use sft_fbft::FbftEngine;
use sft_network::{ClientDelivery, NetworkStats, SimNetwork, SimTransport, Transport};
use sft_sim::{
    build_fbft_engines, Behavior, EngineRunner, NoMischief, Protocol, RunPlan, RunnerConfig,
    SimConfig,
};
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

/// The simulator plus a closed-loop client: it keeps [`WINDOW`]
/// submissions in flight, round robin over the replicas' gateways, and
/// sends the next one when a replica answers one.
pub struct ClosedLoop {
    inner: SimTransport,
    in_flight: usize,
    next_seq: u64,
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
        let n = self.replica_count() as u64;
        let mut out = Vec::new();
        while self.in_flight < WINDOW {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.in_flight += 1;
            // Each client numbers its own requests contiguously, as a
            // real one does.
            let (client, client_seq) = (seq % CLIENTS, seq / CLIENTS);
            let payload = vec![(seq % 251) as u8; TXN_BYTES];
            let txn = Transaction::new(client, client_seq, payload);
            out.push(ClientDelivery {
                conn: seq,
                replica: ReplicaId::new((seq % n) as u16),
                payload: ClientFrame::Request(ClientRequest::new(txn, 0))
                    .to_bytes()
                    .into(),
            });
        }
        out
    }

    fn send_client(&mut self, _conn: u64, _replica: ReplicaId, payload: Arc<[u8]>) {
        // Every answer — committed, busy or duplicate — frees a slot.
        if let Ok(ClientFrame::Ack(_)) = ClientFrame::from_bytes(&payload) {
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

/// The cluster, ready to run, with no logs installed.
pub fn runner(config: &SimConfig) -> EngineRunner<FbftEngine, ClosedLoop, NoMischief> {
    let transport = ClosedLoop {
        inner: SimTransport::new(SimNetwork::new(config.delay), N),
        in_flight: 0,
        next_seq: 0,
    };
    EngineRunner::new(
        build_fbft_engines(config, config.base_timeout()),
        vec![Behavior::Honest; N],
        transport,
        NoMischief,
        RunnerConfig {
            plan: RunPlan::PastRound(Round::new(ROUNDS)),
            horizon: SimTime::ZERO + config.run_horizon(),
            drain_bound: config.drain_sync_bound(),
            drain_step: config.delay,
        },
    )
}

/// Runs `runner` past [`ROUNDS`] one δ at a time, calling `check` with
/// each instant it stopped at.
pub fn run_checked(
    runner: &mut EngineRunner<FbftEngine, ClosedLoop, NoMischief>,
    config: &SimConfig,
    mut check: impl FnMut(&EngineRunner<FbftEngine, ClosedLoop, NoMischief>, SimTime),
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
