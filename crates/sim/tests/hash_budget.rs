//! The hash budget of a committed transaction, pinned as a count.
//!
//! A 4 KiB transaction's id costs 65 SHA-256 block compressions, and every
//! party that takes the transaction in from bytes must compute it: the
//! client, the gateway that admits it, and each follower that decodes the
//! block carrying it. Nothing else needs to — the leader holds the value it
//! proposed, and a block's WAL frame is checked by the block id it already
//! carries. This suite runs an n = 4 SFT-DiemBFT cluster the way the
//! benchmark's `sat_n4_wal_4k` workload does — 4 KiB client submissions
//! through each replica's gateway, write-ahead logs on (memory) sinks, all
//! replicas on one run loop — and counts the compressions that run loop
//! spends per committed transaction: one gateway pass plus three follower
//! passes, 4 × 65, and its share of the per-round hashing (votes,
//! certificates, proposal signatures), which is per round, not per byte.

use std::sync::Arc;

use sft_core::{DurableWal, GroupCommitWal, MemSink};
use sft_crypto::sha256::blocks_compressed;
use sft_network::{ClientDelivery, NetworkStats, SimNetwork, SimTransport, Transport};
use sft_sim::{build_fbft_engines, Behavior, EngineRunner, Protocol, RunPlan, SimConfig};
use sft_types::{
    ClientFrame, ClientRequest, Dest, Encode, ReplicaId, Round, SendGate, SimTime, Transaction,
};

/// Compressions in one 4 KiB transaction id: the domain tag and the
/// client, sequence and payload fields with their length prefixes, padded.
const TXN_ID_BLOCKS: u64 = 65;

/// The simulator plus a client gateway that hands the run loop a fixed
/// set of encoded submissions on its first poll.
struct WithClients {
    inner: SimTransport,
    submissions: Vec<ClientDelivery>,
}

impl Transport for WithClients {
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
        std::mem::take(&mut self.submissions)
    }
}

/// Runs n = 4 SFT-DiemBFT with `txns` client transactions of 4 KiB, each
/// submitted to one replica's gateway (round robin), and returns the
/// compressions the run loop spent and the transactions committed.
fn hash_one_run(txns: u64) -> (u64, u64) {
    let n = 4;
    let config = SimConfig::new(n, 12)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(64)
        .with_live_clients(true);
    // Built before the count starts: the client's own id computation is
    // not the cluster's.
    let submissions = (0..txns)
        .map(|seq| {
            let txn = Transaction::new(seq % 8, seq / 8, vec![(seq % 251) as u8; 4096]);
            ClientDelivery {
                conn: seq,
                replica: ReplicaId::new((seq % n as u64) as u16),
                payload: ClientFrame::Request(ClientRequest::new(txn, 1))
                    .to_bytes()
                    .into(),
            }
        })
        .collect();
    let transport = WithClients {
        inner: SimTransport::new(SimNetwork::new(config.delay), n),
        submissions,
    };
    let mut runner = EngineRunner::new(
        build_fbft_engines(&config, config.base_timeout()),
        vec![Behavior::Honest; n],
        transport,
        config.runner_config(RunPlan::PastRound(Round::new(config.epochs))),
    );
    // Group commit on memory sinks: every record is framed on this thread
    // by `append`; the writer threads only copy and "sync" those frames,
    // and the compression count is per thread.
    let wals: Vec<Box<dyn DurableWal>> = (0..n)
        .map(|_| {
            Box::new(GroupCommitWal::spawn(MemSink::new(), sft_obs::noop(), None).unwrap())
                as Box<dyn DurableWal>
        })
        .collect();
    runner.set_wals(wals);

    let before = blocks_compressed();
    let report = runner.run().expect("memory sinks do not fail");
    let spent = blocks_compressed() - before;
    assert!(report.agreement());
    (spent, report.txns_committed)
}

#[test]
fn a_committed_4k_transaction_is_hashed_once_per_replica() {
    let txns = 256;
    let (spent, committed) = hash_one_run(txns);
    assert_eq!(committed, txns, "every submission committed");
    let per_txn = spent / committed;
    println!("run loop: {spent} compressions for {committed} transactions = {per_txn} each");
    // One gateway pass and three follower passes cannot be avoided...
    assert!(per_txn >= 4 * TXN_ID_BLOCKS, "{per_txn} per transaction");
    // ...and a fifth pass over the bytes — the leader decoding its own
    // proposal, or a WAL frame hashing a block's body — would not fit.
    assert!(
        per_txn < 5 * TXN_ID_BLOCKS,
        "{per_txn} compressions per committed 4 KiB transaction: some party \
         hashes its bytes twice (budget: 4 × {TXN_ID_BLOCKS} plus the per-round share)"
    );
}
