//! A durable replica holds only a few rounds of payload.
//!
//! Once a committed block's `BlockCommitted` record is durable in the
//! replica's write-ahead log, the block store keeps its header and drops
//! its bytes; block sync reads them back from the log. What a replica
//! holds in memory is then the blocks still on their way to a durable
//! commit — a few rounds — not the whole retention horizon of 256 rounds.
//!
//! This suite runs n = 4 SFT-DiemBFT for 600 rounds on the run loop with
//! file-backed group-commit logs, fed by a closed-loop client that keeps
//! 32 submissions of 4 KiB in flight through the replicas' gateways. It
//! checks every replica's resident payload bytes against 8 rounds' worth,
//! once per δ, and the process's peak live heap — counted by a global
//! allocator as bytes allocated minus bytes freed — against a bound. With
//! every committed block held for the horizon, as before blocks were
//! spilled, the peak was 14.6 MiB; spilled, it is 6.1 MiB, of which at
//! most about 0.1 MiB is payload in a block store.

use std::sync::Arc;

use sft_core::{DurableWal, ReplicaEngine, WalStore};
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
const TXN_BYTES: usize = 4096;

/// Submissions the client keeps in flight.
const WINDOW: usize = 32;

/// Most transactions a leader puts in one block.
const BATCH: u32 = 16;

/// Rounds the cluster runs.
const ROUNDS: u64 = 600;

/// Peak live heap allowed, in bytes: well above the spilling cluster's
/// peak, well below what holding every committed block for the horizon
/// takes.
const LIVE_HEAP_BOUND: usize = 10 << 20;

#[path = "../../core/tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The simulator plus a closed-loop client: it keeps [`WINDOW`]
/// submissions in flight, round robin over the replicas' gateways, and
/// sends the next one when a replica answers one.
struct ClosedLoop {
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
            let txn = Transaction::new(seq % 8, seq, vec![(seq % 251) as u8; TXN_BYTES]);
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

#[test]
fn a_durable_replica_holds_a_few_rounds_of_payload_not_the_horizon() {
    let n = 4;
    let config = SimConfig::new(n, ROUNDS)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(BATCH)
        .with_live_clients(true);
    let transport = ClosedLoop {
        inner: SimTransport::new(SimNetwork::new(config.delay), n),
        in_flight: 0,
        next_seq: 0,
    };
    let mut runner = EngineRunner::new(
        build_fbft_engines(&config, config.base_timeout()),
        vec![Behavior::Honest; n],
        transport,
        NoMischief,
        RunnerConfig {
            plan: RunPlan::PastRound(Round::new(ROUNDS)),
            horizon: SimTime::ZERO + config.run_horizon(),
            drain_bound: config.drain_sync_bound(),
            drain_step: config.delay,
        },
    );
    let root = std::env::temp_dir().join(format!("sft-payload-residency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let wals: Vec<Box<dyn DurableWal>> = (0..n)
        .map(|id| {
            let store = WalStore::open(&root.join(format!("replica-{id}")), 1).expect("open log");
            Box::new(
                store
                    .into_group_commit(sft_obs::noop(), None)
                    .expect("spawn wal writer"),
            ) as Box<dyn DurableWal>
        })
        .collect();
    runner.set_wals(wals);

    // A block's encoding: its header and, per transaction, the client id,
    // sequence number and length prefix around the payload.
    let round_bytes = u64::from(BATCH) * (TXN_BYTES as u64 + 24) + 128;
    let resident_bound = 8 * round_bytes;
    let mut most_resident = 0;
    let mut at = SimTime::ZERO;
    while (0..n).any(|i| runner.engine(i).round() <= Round::new(ROUNDS)) {
        at += config.delay;
        assert!(
            at <= SimTime::ZERO + config.run_horizon(),
            "the run stalled"
        );
        runner.run_until(at).expect("file logs stay healthy");
        for i in 0..n {
            let resident = runner.engine(i).kernel().resident().payload_bytes;
            most_resident = most_resident.max(resident);
            assert!(
                resident <= resident_bound,
                "replica {i} holds {resident} B of payload at {at:?}, more than 8 rounds' \
                 worth ({resident_bound} B)"
            );
        }
    }
    let peak = counting_alloc::peak_live();
    let report = runner.finish().expect("file logs stay healthy");
    let _ = std::fs::remove_dir_all(&root);

    assert!(report.agreement());
    let mib = |bytes: usize| bytes as f64 / f64::from(1 << 20);
    println!(
        "{ROUNDS} rounds, {} committed {TXN_BYTES} B transactions: at most {most_resident} B \
         of payload resident on a replica (8 rounds' worth: {resident_bound} B); \
         peak live heap {:.1} MiB (bound {:.1} MiB)",
        report.txns_committed,
        mib(peak),
        mib(LIVE_HEAP_BOUND)
    );
    assert!(
        report.txns_committed > ROUNDS * u64::from(BATCH) / 4,
        "the client kept the cluster busy: {} transactions committed",
        report.txns_committed
    );
    assert!(
        peak <= LIVE_HEAP_BOUND,
        "peak live heap {:.1} MiB exceeds {:.1} MiB: committed blocks stay on the heap",
        mib(peak),
        mib(LIVE_HEAP_BOUND)
    );
}
