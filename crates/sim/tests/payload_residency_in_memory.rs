//! A replica without a log holds a transaction's state only while it is
//! in flight.
//!
//! With no log to read a committed block back from, the block store keeps
//! the block's header and the frame it arrived in — what block sync
//! serves — and drops its decoded transactions as it commits. The
//! mempool's dedup state drops a transaction's id at the same time: from
//! then on its client's `(client, seq)` watermark answers for it. Neither
//! waits for the retention horizon of 256 rounds.
//!
//! This suite runs the cluster of `payload_residency.rs` — n = 4
//! SFT-DiemBFT for 600 rounds, 32 submissions of 4 KiB kept in flight
//! through the gateways — without logs. Once per δ it checks every
//! replica: no committed block in its store holds decoded transactions,
//! and its dedup entries stay within one watermark per client plus two
//! windows of submissions in flight: at most 24 here. When committed
//! blocks and ids stayed for the horizon, a replica held up to 2 038
//! dedup entries, and the run's peak live heap was 13.8 MiB (12.6 MiB
//! now; the held frames are most of it).

use sft_core::ReplicaEngine;

#[path = "support/closed_loop.rs"]
mod closed_loop;
#[path = "../../core/tests/support/counting_alloc.rs"]
mod counting_alloc;

use closed_loop::{ClosedLoop, CLIENTS, N, ROUNDS, TXN_BYTES, WINDOW};

#[test]
fn a_log_less_replica_holds_a_transactions_state_only_while_it_is_in_flight() {
    let config = closed_loop::config();
    let mut runner = closed_loop::runner(&config, ClosedLoop::windowed(&config));

    // One watermark per client; ids of what is in flight: the client's
    // window, and the next one a replica may store before it commits the
    // last.
    let dedup_bound = CLIENTS as usize + 2 * WINDOW;
    let (mut most_dedup, mut committed_blocks_checked) = (0, 0u64);
    closed_loop::run_checked(&mut runner, &config, |runner, at| {
        for i in 0..N {
            let kernel = runner.engine(i).kernel();
            let store = kernel.store();
            // The committed blocks still in the store: the chain's suffix
            // the horizon has not passed.
            let chain = kernel.committed_chain().iter().rev();
            for block in chain.map_while(|id| store.get(*id)) {
                committed_blocks_checked += 1;
                assert!(
                    block.payload().is_empty(),
                    "replica {i} holds committed block {block:?} with {} decoded \
                     transactions at {at:?}",
                    block.payload().txn_count()
                );
            }
            let dedup = kernel.resident().dedup_entries;
            most_dedup = most_dedup.max(dedup);
            assert!(
                dedup <= dedup_bound,
                "replica {i} holds {dedup} dedup entries at {at:?}, more than one a client \
                 plus two windows in flight ({dedup_bound})"
            );
        }
    });
    let peak = counting_alloc::peak_live();
    let report = runner.finish().expect("no logs to fail");

    assert!(report.agreement());
    println!(
        "{ROUNDS} rounds without logs, {} committed {TXN_BYTES} B transactions: at most \
         {most_dedup} dedup entries on a replica (bound {dedup_bound}); peak live heap \
         {:.1} MiB",
        report.txns_committed,
        peak as f64 / f64::from(1 << 20)
    );
    assert!(committed_blocks_checked > 0);
    assert!(
        report.txns_committed > ROUNDS * u64::from(closed_loop::BATCH) / 4,
        "the client kept the cluster busy: {} transactions committed",
        report.txns_committed
    );
}
