//! The copy budget of a committed transaction, pinned as a count.
//!
//! A replica keeps each payload byte once: a transaction decoded at the
//! gateway holds the range of the client frame it arrived in, a follower's
//! block holds the range of the proposal frame, and the leader's block
//! holds the one buffer its proposal was encoded into — which every
//! replica of an in-process cluster shares, as delivered frames are shared
//! buffers. The mempool, the block store and the commit record hold those
//! ranges instead of copies; a sync response or a WAL frame copies a
//! block's held bytes once.
//!
//! This suite runs the n = 4 SFT-DiemBFT cluster `hash_budget.rs` runs —
//! 4 KiB client submissions through each replica's gateway, all replicas
//! on one run loop — with the write-ahead logs off (their sinks are the
//! log, not a copy), counts every byte the run loop allocates with a
//! counting allocator, and divides by the transactions committed. What is
//! left per 4 KiB transaction is one copy of it — the leader writes its
//! block straight into the proposal buffer every replica then shares —
//! and about 4 KiB of bookkeeping (votes, certificates, mempool and ack
//! tables; the same with 16-byte payloads): about 7.7 KiB. It was 8.1 KiB
//! while every committed transaction's id stayed in the mempool for the
//! retention horizon, and 72 KiB, in 14.4 allocations of 4 KiB or more,
//! before blocks held their bytes.

use sft_crypto::sha256::blocks_compressed;

#[path = "support/closed_loop.rs"]
mod closed_loop;
use closed_loop::TXN_BYTES;

#[path = "../../core/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocated, large_allocs, LARGE};

// A large allocation is payload-sized: a copy of a transaction, or a
// buffer of many.
const _: () = assert!(LARGE == TXN_BYTES);

/// What the run loop spent on `txns` committed 4 KiB transactions.
struct Spent {
    committed: u64,
    bytes: usize,
    large: usize,
    compressions: u64,
}

/// Runs n = 4 SFT-DiemBFT with `txns` client transactions of 4 KiB, each
/// submitted to one replica's gateway (round robin), and counts what the
/// run loop allocated and hashed.
fn copy_one_run(txns: u64) -> Spent {
    let runner = closed_loop::budget_runner(txns);

    let (bytes, large) = (allocated(), large_allocs());
    let compressions = blocks_compressed();
    let report = runner.run().expect("no logs, nothing to fail");
    let spent = Spent {
        committed: report.txns_committed,
        bytes: allocated() - bytes,
        large: large_allocs() - large,
        compressions: blocks_compressed() - compressions,
    };
    assert!(report.agreement());
    spent
}

#[test]
fn a_committed_4k_transaction_is_copied_once_per_cluster() {
    let txns = 256;
    let spent = copy_one_run(txns);
    assert_eq!(spent.committed, txns, "every submission committed");
    let per_txn = |total: usize| total as f64 / spent.committed as f64;
    let (bytes, large) = (per_txn(spent.bytes), per_txn(spent.large));
    println!(
        "run loop, per committed {TXN_BYTES} B transaction: {:.0} SHA-256 compressions, \
         {bytes:.0} B allocated, {large:.2} allocations of {LARGE} B or more",
        per_txn(spent.compressions as usize)
    );
    // One copy of the payload and the bookkeeping fit; a second copy
    // anywhere in the cluster would not.
    assert!(
        bytes <= 12.0 * 1024.0,
        "{bytes:.0} B allocated per committed transaction: some layer copies the \
         payload (budget: 12 KiB)"
    );
    // Payload-sized allocations are per block, not per transaction.
    assert!(
        large <= 2.0,
        "{large:.2} allocations of {LARGE} B or more per committed transaction \
         (budget: 2)"
    );
}
