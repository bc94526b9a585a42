//! Scale stress for the loopback TCP mesh: the socket core, which runs
//! on its caller's thread, must start no thread of its own and lose
//! nothing under an all-to-all broadcast storm at n = 31 (f = 10, the
//! first of the paper's large sweep sizes) — a storm that fills rings,
//! so each full one is drained by the sender pumping the mesh inline.

use std::sync::Arc;

use sft_network::{ProtocolTag, TcpCluster, Transport};
use sft_types::{ReplicaId, SimDuration};

#[test]
fn n31_broadcast_storm_loses_nothing_on_no_threads() {
    const N: usize = 31;
    const ROUNDS: usize = 8;

    let mut cluster = TcpCluster::loopback(N, ProtocolTag::Streamlet).unwrap();

    // No thread for all 930 connections, not a thread per endpoint (33)
    // or per direction (~1.9k). Counted from the handles the cluster
    // itself holds, so tests running beside this one (each with a mesh of
    // its own) cannot move it.
    assert_eq!(cluster.thread_count(), 0);

    // Every replica broadcasts every round: n × rounds × (n − 1)
    // deliveries in flight, written and read by this thread alone.
    let mut expected = 0usize;
    for round in 0..ROUNDS {
        for from in 0..N as u16 {
            let payload: Arc<[u8]> = vec![round as u8, from as u8, 0xee].into();
            cluster.broadcast(ReplicaId::new(from), payload);
            expected += N - 1;
        }
    }

    let mut got = 0usize;
    let deadline = cluster.now() + SimDuration::from_secs(30);
    while got < expected && cluster.now() < deadline {
        got += cluster
            .poll_deliver(cluster.now() + SimDuration::from_millis(100))
            .len();
    }
    assert_eq!(got, expected, "every frame of the storm arrives");

    let stats = cluster.stats();
    assert_eq!(stats.messages as usize, expected);
    assert_eq!(stats.dropped, 0, "backpressure, not loss");
    assert_eq!(stats.disconnects, 0, "no connection died under load");
    assert!(cluster.is_idle());
}

/// The full pipelined runtime at n = 31 — mesh and one group-commit WAL
/// writer per replica — still holds an O(n) thread budget: none for the
/// mesh whatever its size and n WAL writers. Nothing in the pipeline
/// spawns per-message or per-connection threads.
#[test]
fn n31_pipelined_runtime_stays_within_the_extended_thread_budget() {
    use sft_core::{DurableWal, GroupCommitWal, MemSink};

    const N: usize = 31;

    let cluster = TcpCluster::loopback(N, ProtocolTag::Streamlet).unwrap();

    // One durability writer per replica, as the per-process node runtime
    // and the TCP harness run them.
    let mut wals: Vec<GroupCommitWal> = (0..N)
        .map(|_| GroupCommitWal::spawn(MemSink::new(), sft_obs::noop(), None).unwrap())
        .collect();

    // Each component reports the threads it owns.
    let spawned =
        cluster.thread_count() + wals.iter().map(GroupCommitWal::thread_count).sum::<usize>();
    let budget = N;
    assert!(
        spawned <= budget,
        "pipelined runtime spawned {spawned} threads; budget is \
         n wal writers = {budget}"
    );

    // The writers are healthy, not just counted: a synced append on each
    // advances its watermark.
    let hash = sft_crypto::HashValue::of(b"stress-qc");
    let record = sft_core::WalRecord::QcFormed(sft_core::QuorumCertificate::new(
        sft_types::VoteData::new(
            hash,
            sft_types::Round::new(1),
            hash,
            sft_types::Round::new(0),
        ),
        sft_types::SignerSet::from_iter_with_capacity(N, (0..1).map(sft_types::ReplicaId::new)),
    ));
    for wal in &mut wals {
        let seq = wal
            .append(&record)
            .unwrap_or_else(|e| panic!("wal append: {e}"));
        wal.barrier().unwrap_or_else(|e| panic!("wal barrier: {e}"));
        assert!(wal.watermark().covers(seq));
    }
    drop(cluster);
}

/// The lossless mesh holds a sender on a full ring while it pumps the
/// mesh for room. When every frame in it waits on a durability gate
/// nobody has requested yet — the run loop requests at the end of its
/// instant, and it is the sender held here — the pump must ask for the
/// gate itself, or the run deadlocks.
#[test]
fn a_ring_full_of_frames_behind_an_unrequested_gate_still_drains() {
    use sft_core::{Block, DurableWal, GroupCommitWal, MemSink, WalRecord};
    use sft_types::SendGate;

    const FRAMES: usize = 3000; // well past one ring's depth

    let mut cluster = TcpCluster::loopback(2, ProtocolTag::Fbft).unwrap();
    let mut wal =
        GroupCommitWal::spawn(MemSink::new(), sft_obs::noop(), Some(cluster.wake_hook())).unwrap();
    let seq = wal
        .append(&WalRecord::BlockCommitted(Block::genesis()))
        .unwrap();
    let (from, to) = (ReplicaId::new(0), ReplicaId::new(1));
    for i in 0..FRAMES {
        let gate = SendGate::new(wal.watermark(), seq);
        let payload: Arc<[u8]> = (i as u32).to_be_bytes().to_vec().into();
        cluster.send_to(from, sft_types::Dest::Peer(to), payload, Some(gate));
    }
    assert!(wal.watermark().covers(seq), "the held sender asked for it");

    let mut got = Vec::new();
    let deadline = cluster.now() + SimDuration::from_secs(10);
    while got.len() < FRAMES && cluster.now() < deadline {
        got.extend(cluster.poll_deliver(cluster.now() + SimDuration::from_millis(50)));
    }
    assert_eq!(got.len(), FRAMES, "every gated frame arrives");
    assert!(got
        .iter()
        .enumerate()
        .all(|(i, d)| d.payload[..] == (i as u32).to_be_bytes()));
    assert_eq!(cluster.stats().dropped, 0);
    assert_eq!(wal.fsyncs(), 1, "one fsync released them all");
}
