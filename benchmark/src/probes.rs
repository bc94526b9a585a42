//! Layer probes: each layer's public functions timed from outside, on
//! seeded inputs, with no cluster running. They do not depend on the
//! workload; they exist so that a change in an end-to-end number can be
//! traced to the layer that moved.
//!
//! A timed probe reports the median of [`BATCHES`] timed batches after
//! one warm-up batch. Probes marked *exact* are counts from the
//! virtual-time simulator and repeat bit for bit.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sft_core::{
    honest_endorse_info, AckTracker, Block, BlockStore, CommitLedger, DurableWal,
    EndorsementTracker, Mempool, ProtocolConfig, ReplicaEngine, Route, VoteOutcome, VoteTracker,
    WalRecord, WalStore,
};
use sft_crypto::sha256::Sha256;
use sft_crypto::{BatchItem, HashValue, KeyRegistry, RngCore, SplitMix64};
use sft_network::{TcpCluster, Transport};
use sft_obs::{Recorder, Registry};
use sft_sim::{
    build_fbft_engines, build_streamlet_engines, Behavior, Protocol, SimConfig, SimReport,
};
use sft_types::{
    BatchConfig, ClientFrame, ClientRequest, Decode, Encode, EndorseInfo, EndorseMode, Envelope,
    Payload, ProtocolTag, ReplicaId, Round, SimDuration, SimTime, StrongCommitUpdate, StrongVote,
    Transaction, VerifyPolicy,
};

use crate::metrics::{Better, MetricDef, Values};
use crate::stats;

use Better::{Higher, Lower};

/// Timed batches per probe, after one warm-up batch.
pub const BATCHES: usize = 5;

const fn probe(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Every probe, in the order [`run_all`] reports them.
pub const PROBES: [MetricDef; 43] = [
    probe("types.envelope_roundtrip_256_ns", "ns", Lower),
    probe("types.envelope_roundtrip_64k_ns", "ns", Lower),
    probe("types.client_frame_roundtrip_ns", "ns", Lower),
    probe("types.vote_roundtrip_ns", "ns", Lower),
    probe("crypto.sha256_mb_s", "MB/s", Higher),
    probe("crypto.sign_ns", "ns", Lower),
    probe("crypto.verify_ns", "ns", Lower),
    probe("crypto.verify_batch_q3_ns_per_sig", "ns", Lower),
    probe("crypto.verify_batch_q7_ns_per_sig", "ns", Lower),
    probe("crypto.verify_batch_q21_pooled_ns_per_sig", "ns", Lower),
    probe("core.mempool_submit_ns", "ns", Lower),
    probe("core.mempool_drain_ns_per_txn", "ns", Lower),
    probe("core.blockstore_insert_ns", "ns", Lower),
    probe("core.endorse_info_L64_us", "us", Lower),
    probe("core.endorse_info_L1024_us", "us", Lower),
    probe("core.record_vote_ns", "ns", Lower),
    probe("core.vote_to_qc_q3_us", "us", Lower),
    probe("core.vote_to_qc_q7_us", "us", Lower),
    probe("core.ledger_finalize_ns", "ns", Lower),
    probe("core.acks_observe_ns_per_txn", "ns", Lower),
    probe("core.wal_frame_ns", "ns", Lower),
    probe("core.wal_append_fsync_us", "us", Lower),
    probe("core.group_wal_records_per_fsync", "count", Higher),
    probe("core.group_wal_durable_p50_us", "us", Lower),
    probe("core.wal_replay_10k_ms", "ms", Lower),
    probe("fbft.round_cpu_first128_us", "us", Lower),
    probe("fbft.round_cpu_at512_us", "us", Lower),
    probe("streamlet.epoch_cpu_first128_us", "us", Lower),
    probe("streamlet.epoch_cpu_at512_us", "us", Lower),
    probe("network.tcp_rtt_p50_us", "us", Lower),
    probe("network.tcp_broadcast_frames_per_s", "1/s", Higher),
    probe("network.tcp_mb_s", "MB/s", Higher),
    probe("sim.virtual_run_n4_r256_ms", "ms", Lower),
    probe("sim.virtual_run_n31_r32_ms", "ms", Lower),
    probe("sim.msgs_per_block_n4", "count", Lower),
    probe("sim.bytes_per_block_n4", "B", Lower),
    probe("sim.sigv_per_block_n31", "count", Lower),
    probe("sim.walk_steps_per_block_n31", "count", Lower),
    probe("sim.n7_withhold1_max_level", "count", Higher),
    probe("sim.n7_withhold1_strong_lag_us", "us", Lower),
    probe("obs.noop_ns", "ns", Lower),
    probe("obs.counter_add_ns", "ns", Lower),
    probe("obs.hist_record_ns", "ns", Lower),
];

/// The probes that are counts from the virtual-time simulator: two
/// invocations must agree on them exactly.
pub const EXACT: [&str; 6] = [
    "sim.msgs_per_block_n4",
    "sim.bytes_per_block_n4",
    "sim.sigv_per_block_n31",
    "sim.walk_steps_per_block_n31",
    "sim.n7_withhold1_max_level",
    "sim.n7_withhold1_strong_lag_us",
];

/// Median time per operation, in nanoseconds, over [`BATCHES`] timed
/// batches after a warm-up batch. `batch` sets up what it needs, times
/// only the operations, and returns the time and how many it ran.
fn per_op_ns(mut batch: impl FnMut() -> (Duration, usize)) -> f64 {
    let _ = batch();
    let samples = (0..BATCHES)
        .map(|_| {
            let (took, ops) = batch();
            took.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    stats::median(&stats::sorted(samples)).unwrap_or(0.0)
}

/// [`per_op_ns`] for an operation that needs no per-batch set-up.
fn repeat_ns(iters: usize, mut op: impl FnMut()) -> f64 {
    per_op_ns(|| {
        let started = Instant::now();
        for _ in 0..iters {
            op();
        }
        (started.elapsed(), iters)
    })
}

fn seeded_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// A chain of `len` empty blocks on top of genesis, in a store.
fn chain(len: u64) -> (BlockStore, Vec<Block>) {
    let mut store = BlockStore::new();
    let mut blocks: Vec<Block> = Vec::with_capacity(len as usize);
    for round in 1..=len {
        let parent = blocks.last().unwrap_or(store.genesis());
        let block = Block::new(
            parent,
            Round::new(round),
            ReplicaId::new((round % 4) as u16),
            Payload::empty(),
        );
        blocks.push(block);
    }
    for block in &blocks {
        store.insert(block.clone()).expect("chain admits in order");
    }
    (store, blocks)
}

fn marker_vote(block: &Block, registry: &KeyRegistry, voter: u64) -> StrongVote {
    StrongVote::new(
        block.vote_data(),
        EndorseInfo::Marker(Round::ZERO),
        &registry.key_pair(voter).expect("registered voter"),
    )
}

/// A fresh directory under the process's temp dir (the `run` script
/// points that inside the checkout).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sft-probe-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

// ---- types ----

fn types_probes(rng: &mut SplitMix64, out: &mut Values) {
    let (a, b) = (ReplicaId::new(0), ReplicaId::new(1));
    for (name, len, iters) in [
        ("types.envelope_roundtrip_256_ns", 256, 4000),
        ("types.envelope_roundtrip_64k_ns", 64 * 1024, 100),
    ] {
        let payload: Arc<[u8]> = seeded_bytes(rng, len).into();
        out.push((
            name,
            repeat_ns(iters, || {
                let frame =
                    Envelope::to_peer(a, b, ProtocolTag::Fbft, Arc::clone(&payload)).to_frame();
                let decoded = Envelope::decode_frame(std::hint::black_box(&frame));
                std::hint::black_box(decoded.expect("own frame decodes"));
            }),
        ));
    }
    let request = ClientFrame::Request(ClientRequest::new(
        Transaction::new(7, 0, seeded_bytes(rng, 128)),
        1,
    ));
    out.push((
        "types.client_frame_roundtrip_ns",
        repeat_ns(4000, || {
            let bytes = std::hint::black_box(&request).to_bytes();
            std::hint::black_box(ClientFrame::from_bytes(&bytes).expect("own frame decodes"));
        }),
    ));
    let registry = KeyRegistry::deterministic(4);
    let (_, blocks) = chain(1);
    let vote = marker_vote(&blocks[0], &registry, 1);
    out.push((
        "types.vote_roundtrip_ns",
        repeat_ns(4000, || {
            let bytes = std::hint::black_box(&vote).to_bytes();
            std::hint::black_box(StrongVote::from_bytes(&bytes).expect("own vote decodes"));
        }),
    ));
}

// ---- crypto ----

fn crypto_probes(rng: &mut SplitMix64, out: &mut Values) {
    let megabyte = seeded_bytes(rng, 1 << 20);
    let ns_per_mib = repeat_ns(4, || {
        std::hint::black_box(Sha256::digest(std::hint::black_box(&megabyte)));
    });
    out.push(("crypto.sha256_mb_s", (1 << 20) as f64 / ns_per_mib * 1e3));

    let registry = KeyRegistry::deterministic(21);
    let messages: Vec<Vec<u8>> = (0..21).map(|_| seeded_bytes(rng, 32)).collect();
    let key = registry.key_pair(0).expect("key 0");
    out.push((
        "crypto.sign_ns",
        repeat_ns(4000, || {
            std::hint::black_box(key.sign(std::hint::black_box(&messages[0])));
        }),
    ));
    let signatures: Vec<_> = (0..21u64)
        .map(|i| {
            registry
                .key_pair(i)
                .expect("registered")
                .sign(&messages[i as usize])
        })
        .collect();
    out.push((
        "crypto.verify_ns",
        repeat_ns(4000, || {
            assert!(registry.verify(0, std::hint::black_box(&messages[0]), &signatures[0]));
        }),
    ));
    let items: Vec<BatchItem<'_>> = (0..21)
        .map(|i| BatchItem::new(i as u64, &messages[i], &signatures[i]))
        .collect();
    for (name, q, pooled, iters) in [
        ("crypto.verify_batch_q3_ns_per_sig", 3, false, 2000),
        ("crypto.verify_batch_q7_ns_per_sig", 7, false, 1000),
        ("crypto.verify_batch_q21_pooled_ns_per_sig", 21, true, 200),
    ] {
        let per_batch = repeat_ns(iters, || {
            let batch = std::hint::black_box(&items[..q]);
            let verdict = if pooled {
                registry.verify_batch_pooled(batch)
            } else {
                registry.verify_batch(batch)
            };
            assert!(verdict.is_ok());
        });
        out.push((name, per_batch / q as f64));
    }
}

// ---- core ----

fn core_probes(rng: &mut SplitMix64, out: &mut Values) {
    let txns: Vec<Transaction> = (0..1024)
        .map(|seq| Transaction::new(9, seq, seeded_bytes(rng, 128)))
        .collect();
    out.push((
        "core.mempool_submit_ns",
        per_op_ns(|| {
            let (mut pool, batch) = (Mempool::new(), txns.clone());
            let started = Instant::now();
            for txn in batch {
                std::hint::black_box(pool.try_submit(txn));
            }
            (started.elapsed(), txns.len())
        }),
    ));
    out.push((
        "core.mempool_drain_ns_per_txn",
        per_op_ns(|| {
            let mut pool = Mempool::new();
            for txn in txns.clone() {
                pool.try_submit(txn);
            }
            let started = Instant::now();
            let mut drained = 0;
            while !pool.is_empty() {
                drained += pool.next_batch(BatchConfig::with_max_txns(256)).len();
            }
            (started.elapsed(), drained)
        }),
    ));

    let (long_store, long_chain) = chain(1024);
    out.push((
        "core.blockstore_insert_ns",
        per_op_ns(|| {
            let (mut store, blocks) = (BlockStore::new(), long_chain[..512].to_vec());
            let started = Instant::now();
            for block in blocks {
                store.insert(block).expect("chain admits in order");
            }
            (started.elapsed(), 512)
        }),
    ));
    // `honest_endorse_info` as a voter with a clean history pays it: every
    // block of the chain so far was voted for, and the next one is judged.
    for (name, len, iters) in [
        ("core.endorse_info_L64_us", 64usize, 200),
        ("core.endorse_info_L1024_us", 1024, 2),
    ] {
        let voted: Vec<(Round, HashValue)> = long_chain[..len - 1]
            .iter()
            .map(|b| (b.round(), b.id()))
            .collect();
        let tip = &long_chain[len - 1];
        let ns = repeat_ns(iters, || {
            let info = honest_endorse_info(EndorseMode::Marker, &long_store, &voted, tip);
            assert_eq!(info, EndorseInfo::Marker(Round::ZERO));
        });
        out.push((name, ns / 1e3));
    }

    let registry = KeyRegistry::deterministic(10);
    let votes: Vec<StrongVote> = long_chain[..256]
        .iter()
        .flat_map(|block| (0..4).map(|voter| marker_vote(block, &registry, voter)))
        .collect();
    out.push((
        "core.record_vote_ns",
        per_op_ns(|| {
            let mut tracker = EndorsementTracker::new(ProtocolConfig::for_replicas(4));
            let started = Instant::now();
            for vote in &votes {
                std::hint::black_box(tracker.record_vote(vote, &long_store));
            }
            (started.elapsed(), votes.len())
        }),
    ));
    for (name, n, q) in [
        ("core.vote_to_qc_q3_us", 4usize, 3u64),
        ("core.vote_to_qc_q7_us", 10, 7),
    ] {
        let config = ProtocolConfig::for_replicas(n);
        let quorums: Vec<Vec<StrongVote>> = long_chain[..64]
            .iter()
            .map(|block| (0..q).map(|v| marker_vote(block, &registry, v)).collect())
            .collect();
        let ns = per_op_ns(|| {
            let mut tracker = VoteTracker::new(config, KeyRegistry::deterministic(n))
                .with_policy(VerifyPolicy::OnQuorum);
            let started = Instant::now();
            for quorum in &quorums {
                let last = quorum
                    .iter()
                    .map(|vote| tracker.add_vote(vote))
                    .last()
                    .expect("non-empty quorum");
                assert!(matches!(last, VoteOutcome::Certified(_)));
            }
            (started.elapsed(), quorums.len())
        });
        out.push((name, ns / 1e3));
    }
    out.push((
        "core.ledger_finalize_ns",
        per_op_ns(|| {
            let mut ledger = CommitLedger::new();
            let started = Instant::now();
            for block in &long_chain[..512] {
                let newly = ledger.finalize_through(&long_store, block.id());
                assert_eq!(newly.len(), 1);
            }
            (started.elapsed(), 512)
        }),
    ));

    let mut ack_store = BlockStore::new();
    let batch = txns[..256].to_vec();
    let carrier = Block::new(
        ack_store.genesis(),
        Round::new(1),
        ReplicaId::new(0),
        Payload::Transactions(batch.clone()),
    );
    ack_store.insert(carrier.clone()).expect("block admits");
    let update = StrongCommitUpdate::new(carrier.id(), carrier.round(), carrier.height(), 1);
    let ids: Vec<HashValue> = batch.iter().map(Transaction::id).collect();
    out.push((
        "core.acks_observe_ns_per_txn",
        per_op_ns(|| {
            let mut acks = AckTracker::new();
            for id in &ids {
                acks.register(*id, 1, SimTime::ZERO);
            }
            let started = Instant::now();
            acks.observe(&update, &ack_store, SimTime::from_millis(1));
            let fired = acks.drain().len();
            assert_eq!(fired, ids.len());
            (started.elapsed(), fired)
        }),
    ));

    let record = WalRecord::VoteSent(votes[0].clone());
    out.push((
        "core.wal_frame_ns",
        repeat_ns(4000, || {
            let frame = std::hint::black_box(&record).to_frame();
            std::hint::black_box(WalRecord::decode_frame(&frame).expect("own frame decodes"));
        }),
    ));
    wal_probes(&record, out);
}

/// The probes that touch the disk, on files under the temp dir.
fn wal_probes(record: &WalRecord, out: &mut Values) {
    let dir = scratch_dir("wal");
    let mut store = WalStore::open(&dir.join("sync1"), 1).expect("open wal");
    let ns = repeat_ns(16, || store.append(record).expect("append + fsync"));
    out.push(("core.wal_append_fsync_us", ns / 1e3));
    drop(store);

    let mut group = WalStore::open(&dir.join("group"), 1)
        .expect("open wal")
        .into_group_commit(sft_obs::noop(), None)
        .expect("spawn writer");
    let mut per_fsync = Vec::new();
    for _ in 0..=BATCHES {
        let before = group.fsyncs();
        for _ in 0..256 {
            group.append(record).expect("append");
        }
        group.barrier().expect("barrier");
        per_fsync.push(256.0 / (group.fsyncs() - before).max(1) as f64);
    }
    out.push((
        "core.group_wal_records_per_fsync",
        stats::median(&stats::sorted(per_fsync.split_off(1))).unwrap_or(0.0),
    ));
    let watermark = group.watermark();
    let ns = repeat_ns(16, || {
        let seq = group.append(record).expect("append");
        watermark.wait_covers(seq);
    });
    out.push(("core.group_wal_durable_p50_us", ns / 1e3));
    drop(group);

    let replay_dir = dir.join("replay");
    let mut store = WalStore::open(&replay_dir, u64::MAX).expect("open wal");
    for _ in 0..10_000 {
        store.append(record).expect("append");
    }
    store.flush().expect("flush");
    drop(store);
    let ns = repeat_ns(1, || {
        let reopened = WalStore::open(&replay_dir, u64::MAX).expect("reopen wal");
        assert_eq!(reopened.recovered().len(), 10_000);
    });
    out.push(("core.wal_replay_10k_ms", ns / 1e6));
    let _ = std::fs::remove_dir_all(dir);
}

// ---- fbft / streamlet ----

/// Steps `engines` in lock-step with no transport — every message is
/// handed to its recipients at once, at the instant it was sent — and
/// returns the mean wall time per round spent inside the engines over
/// rounds 1–128 and 385–512, in microseconds.
fn lockstep_round_cpu<E: ReplicaEngine>(mut engines: Vec<E>) -> (f64, f64) {
    const EARLY: std::ops::RangeInclusive<u64> = 1..=128;
    const LATE: std::ops::RangeInclusive<u64> = 385..=512;
    let mut queue: VecDeque<(usize, ReplicaId, Arc<[u8]>)> = VecDeque::new();
    let mut now = SimTime::ZERO;
    let mut spent = [Duration::ZERO; 2];
    loop {
        let round = engines
            .iter()
            .map(|e| e.round().as_u64())
            .min()
            .expect("engines");
        if round > *LATE.end() {
            break;
        }
        let started = Instant::now();
        let (i, step) = match queue.pop_front() {
            Some((to, from, bytes)) => (to, engines[to].on_envelope(from, &bytes, now)),
            None => {
                // Nothing in flight: jump to the earliest deadline.
                let (i, at) = engines
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| Some((i, e.next_deadline()?)))
                    .min_by_key(|(_, at)| *at)
                    .expect("a live engine always has a deadline");
                now = now.max(at);
                (i, engines[i].on_tick(now))
            }
        };
        let took = started.elapsed();
        if EARLY.contains(&round) {
            spent[0] += took;
        } else if LATE.contains(&round) {
            spent[1] += took;
        }
        let from = engines[i].id();
        for msg in step.outbound {
            match msg.route {
                Route::Broadcast => {
                    for to in 0..engines.len() {
                        queue.push_back((to, from, Arc::clone(&msg.bytes)));
                    }
                }
                Route::To(peer) => queue.push_back((peer.as_usize(), from, msg.bytes)),
            }
        }
    }
    let per_round = |d: Duration| d.as_secs_f64() * 1e6 / 128.0;
    (per_round(spent[0]), per_round(spent[1]))
}

fn protocol_probes(out: &mut Values) {
    let config = SimConfig::new(4, 1024).with_protocol(Protocol::Fbft);
    let (first, late) = lockstep_round_cpu(build_fbft_engines(&config, SimDuration::from_secs(5)));
    out.push(("fbft.round_cpu_first128_us", first));
    out.push(("fbft.round_cpu_at512_us", late));
    let config = SimConfig::new(4, 1024);
    let (first, late) = lockstep_round_cpu(build_streamlet_engines(
        &config,
        SimDuration::from_millis(200),
    ));
    out.push(("streamlet.epoch_cpu_first128_us", first));
    out.push(("streamlet.epoch_cpu_at512_us", late));
}

// ---- network ----

/// Polls until `want` deliveries arrived (or ten seconds passed).
fn collect(cluster: &mut TcpCluster, want: usize) -> usize {
    let give_up = cluster.now() + SimDuration::from_secs(10);
    let mut got = 0;
    while got < want && cluster.now() < give_up {
        got += cluster
            .poll_deliver(cluster.now() + SimDuration::from_millis(50))
            .len();
    }
    got
}

fn network_probes(rng: &mut SplitMix64, out: &mut Values) {
    let (a, b) = (ReplicaId::new(0), ReplicaId::new(1));
    let small: Arc<[u8]> = seeded_bytes(rng, 256).into();
    let mut pair = TcpCluster::loopback(2, ProtocolTag::Fbft).expect("loopback mesh");
    let mut rtts = Vec::new();
    for _ in 0..300 {
        let started = Instant::now();
        pair.send(a, b, Arc::clone(&small));
        assert_eq!(collect(&mut pair, 1), 1);
        pair.send(b, a, Arc::clone(&small));
        assert_eq!(collect(&mut pair, 1), 1);
        rtts.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let rtts = stats::sorted(rtts.split_off(50));
    out.push((
        "network.tcp_rtt_p50_us",
        stats::percentile(&rtts, 50.0).unwrap_or(0.0),
    ));

    let big: Arc<[u8]> = seeded_bytes(rng, 64 * 1024).into();
    let ns_per_frame = per_op_ns(|| {
        let started = Instant::now();
        for _ in 0..64 {
            pair.send(a, b, Arc::clone(&big));
        }
        assert_eq!(collect(&mut pair, 64), 64);
        (started.elapsed(), 64)
    });
    out.push(("network.tcp_mb_s", big.len() as f64 / ns_per_frame * 1e3));
    drop(pair);

    let mut mesh = TcpCluster::loopback(4, ProtocolTag::Fbft).expect("loopback mesh");
    let ns_per_frame = per_op_ns(|| {
        let started = Instant::now();
        for _ in 0..500 {
            mesh.broadcast(a, Arc::clone(&small));
        }
        assert_eq!(collect(&mut mesh, 1500), 1500);
        (started.elapsed(), 1500)
    });
    out.push(("network.tcp_broadcast_frames_per_s", 1e9 / ns_per_frame));
}

// ---- sim ----

/// Wall milliseconds (median of three) and the report of a virtual run.
fn timed_virtual_run(config: &SimConfig) -> (f64, SimReport) {
    let mut report = None;
    let mut took = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        report = Some(config.clone().run());
        took.push(started.elapsed().as_secs_f64() * 1e3);
    }
    (
        stats::median(&stats::sorted(took)).unwrap_or(0.0),
        report.expect("ran"),
    )
}

fn sim_probes(out: &mut Values) {
    let (n4_ms, n4) = timed_virtual_run(&SimConfig::new(4, 256).with_protocol(Protocol::Fbft));
    let (n31_ms, n31) = timed_virtual_run(&SimConfig::new(31, 32).with_protocol(Protocol::Fbft));
    let blocks = |r: &SimReport| r.max_committed().max(1) as f64;
    out.push(("sim.virtual_run_n4_r256_ms", n4_ms));
    out.push(("sim.virtual_run_n31_r32_ms", n31_ms));
    out.push((
        "sim.msgs_per_block_n4",
        n4.net.messages as f64 / blocks(&n4),
    ));
    out.push(("sim.bytes_per_block_n4", n4.net.bytes as f64 / blocks(&n4)));
    out.push((
        "sim.sigv_per_block_n31",
        n31.sig_verifications as f64 / blocks(&n31),
    ));
    out.push((
        "sim.walk_steps_per_block_n31",
        n31.walk_steps as f64 / blocks(&n31),
    ));

    // Fig. 8: with one of seven replicas withholding its vote, six voters
    // reach strength 6 - f - 1 = 3 and no more; the lag is the virtual
    // time from a block's standard commit to its 3-strong upgrade.
    let withhold = SimConfig::new(7, 32)
        .with_protocol(Protocol::Fbft)
        .with_behavior(6, Behavior::WithholdVote)
        .run();
    out.push((
        "sim.n7_withhold1_max_level",
        withhold.max_commit_level() as f64,
    ));
    let mut first_seen = std::collections::HashMap::new();
    let mut lags = Vec::new();
    for (at, update) in &withhold.timelines[0] {
        let committed_at = *first_seen.entry(update.block_id()).or_insert(*at);
        if update.level() == 3 {
            lags.push(at.since(committed_at).as_micros() as f64);
        }
    }
    out.push((
        "sim.n7_withhold1_strong_lag_us",
        stats::median(&stats::sorted(lags)).unwrap_or(0.0),
    ));
}

// ---- obs ----

fn obs_probes(out: &mut Values) {
    let noop = sft_obs::noop();
    out.push((
        "obs.noop_ns",
        repeat_ns(200_000, || {
            std::hint::black_box(&noop).add("probe_counter", 1)
        }),
    ));
    let registry = Registry::new();
    out.push((
        "obs.counter_add_ns",
        repeat_ns(100_000, || {
            std::hint::black_box(&registry).add("probe_counter", 1)
        }),
    ));
    let mut value = 0u64;
    out.push((
        "obs.hist_record_ns",
        repeat_ns(100_000, || {
            value = value.wrapping_add(7919);
            std::hint::black_box(&registry).observe("probe_hist", value % 1_000_000);
        }),
    ));
}

/// Runs every probe under `seed` and returns the values in [`PROBES`]
/// order.
pub fn run_all(seed: u64) -> Values {
    let mut rng = SplitMix64::new(seed);
    let mut out = Values::new();
    types_probes(&mut rng, &mut out);
    crypto_probes(&mut rng, &mut out);
    core_probes(&mut rng, &mut out);
    protocol_probes(&mut out);
    network_probes(&mut rng, &mut out);
    sim_probes(&mut out);
    obs_probes(&mut out);
    debug_assert!(out
        .iter()
        .map(|(n, _)| *n)
        .eq(PROBES.iter().map(|d| d.name)));
    out
}
