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
//! spilled, the peak was 14.6 MiB; spilled, it was 6.1 MiB. It fell to
//! 5.4 MiB when a committed transaction's id began to leave the mempool
//! as it commits, and to 5.1 MiB when the client began to number each
//! client's requests contiguously (with gaps, the mempool keeps each
//! client's committed numbers above its watermark). At most about
//! 0.1 MiB of it is payload in a block store.
//! `payload_residency_in_memory.rs` runs the same cluster without logs.

use sft_core::{ReplicaEngine, WalStore};

#[path = "support/closed_loop.rs"]
mod closed_loop;
#[path = "../../core/tests/support/counting_alloc.rs"]
mod counting_alloc;

use closed_loop::{ClosedLoop, BATCH, N, ROUNDS, TXN_BYTES};

/// Peak live heap allowed, in bytes: well above the spilling cluster's
/// peak, well below what holding every committed block for the horizon
/// takes.
const LIVE_HEAP_BOUND: usize = 10 << 20;

#[test]
fn a_durable_replica_holds_a_few_rounds_of_payload_not_the_horizon() {
    let config = closed_loop::config();
    let mut runner = closed_loop::runner(&config, ClosedLoop::windowed(&config));
    let root = std::env::temp_dir().join(format!("sft-payload-residency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let wals = (0..N)
        .map(|id| {
            let store = WalStore::open(&root.join(format!("replica-{id}")), 1).expect("open log");
            store
                .into_group_commit(sft_obs::noop(), None)
                .expect("spawn wal writer")
        })
        .collect();
    runner.set_wals(wals);

    // A block's encoding: its header and, per transaction, the client id,
    // sequence number and length prefix around the payload.
    let round_bytes = u64::from(BATCH) * (TXN_BYTES as u64 + 24) + 128;
    let resident_bound = 8 * round_bytes;
    let mut most_resident = 0;
    closed_loop::run_checked(&mut runner, &config, |runner, at| {
        for i in 0..N {
            let resident = runner.engine(i).kernel().resident().payload_bytes;
            most_resident = most_resident.max(resident);
            assert!(
                resident <= resident_bound,
                "replica {i} holds {resident} B of payload at {at:?}, more than 8 rounds' \
                 worth ({resident_bound} B)"
            );
        }
    });
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
