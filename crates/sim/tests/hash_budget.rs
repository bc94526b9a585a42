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

use sft_crypto::sha256::blocks_compressed;
use sft_sim::memory_wals;

#[path = "support/closed_loop.rs"]
mod closed_loop;
use closed_loop::N;

/// Compressions in one 4 KiB transaction id: the domain tag and the
/// client, sequence and payload fields with their length prefixes, padded.
const TXN_ID_BLOCKS: u64 = 65;

/// Runs n = 4 SFT-DiemBFT with `txns` client transactions of 4 KiB, each
/// submitted to one replica's gateway (round robin), and returns the
/// compressions the run loop spent and the transactions committed.
fn hash_one_run(txns: u64) -> (u64, u64) {
    let mut runner = closed_loop::budget_runner(txns);
    // Group commit on memory sinks: every record is framed on this thread
    // by `append`; the writer threads only copy and "sync" those frames,
    // and the compression count is per thread.
    runner.set_wals(memory_wals(N, &sft_obs::noop()).0);

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
