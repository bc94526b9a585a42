//! The fault-scenario table: both protocols under every fault shape the
//! simulator injects, each cell checked for what Theorem 1 promises and
//! for the batching path.
//!
//! A cell is n = 4, 12 epochs or rounds (10 for the honest row) and the
//! batched client workload at 256 transactions per batch. Byzantine rows
//! make replica n − 1 misbehave; `partition` cuts replica n − 1 off until
//! mid-run while replica 0 equivocates; `lossy` drops 15 % of messages
//! (seed [`LOSSY_SEED`]) until GST at mid-run. Every cell must show:
//!
//! - agreement and no safety violation, a commit, and per-block strength
//!   that never falls (`partition` also: block sync fetched blocks and the
//!   straggler recovered);
//! - the batching identity against the same cell at batch size 1: the
//!   same committed height, and exactly 256 times the transactions. With
//!   a pre-fed mempool and uniform δ both runs commit the same blocks, so
//!   every committed block must carry a full batch.
//!
//! Crashes and restarts are mid-run engine surgery a static config cannot
//! express: `crash_restart.rs` runs those cells.

use sft_sim::{Behavior, Protocol, SimConfig, SimReport};

const PROTOCOLS: [Protocol; 2] = [Protocol::Streamlet, Protocol::Fbft];

/// Transactions per batch in every cell.
const BATCH: u32 = 256;

/// Seed of the `lossy` row's drop stream.
const LOSSY_SEED: u64 = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    Honest,
    /// Replica n − 1 behaves so.
    Byzantine(Behavior),
    Partition,
    Lossy,
}

/// The table: each fault with its epoch (round) count.
const TABLE: [(Fault, u64); 7] = [
    (Fault::Honest, 10),
    (Fault::Byzantine(Behavior::Equivocate), 12),
    (Fault::Byzantine(Behavior::WithholdVote), 12),
    (Fault::Byzantine(Behavior::Silent), 12),
    (Fault::Byzantine(Behavior::StallLeader), 12),
    (Fault::Partition, 12),
    (Fault::Lossy, 12),
];

fn configure(n: usize, epochs: u64, fault: Fault, protocol: Protocol, batch: u32) -> SimConfig {
    let config = SimConfig::new(n, epochs)
        .with_protocol(protocol)
        .with_batch_size(batch);
    match fault {
        Fault::Honest => config,
        Fault::Byzantine(behavior) => config.with_behavior((n - 1) as u16, behavior),
        Fault::Partition => config
            .with_behavior(0, Behavior::Equivocate)
            .with_partitioned_straggler(),
        Fault::Lossy => config.with_lossy_links(LOSSY_SEED, 0.15),
    }
}

/// What every run must show, batched or not.
fn validate(report: &SimReport, fault: Fault, cell: &str) {
    assert!(
        report.agreement() && report.safety_violations == 0,
        "{cell}: replicas disagree (violations: {})",
        report.safety_violations
    );
    assert!(report.max_committed() > 0, "{cell}: nothing committed");
    assert!(
        report.commit_strength_monotone(),
        "{cell}: commit strength regressed"
    );
    if fault == Fault::Partition {
        assert!(
            report.sync_blocks_fetched > 0 && report.recovered_replicas > 0,
            "{cell}: sync fetched {} blocks and {} replicas recovered the prefix",
            report.sync_blocks_fetched,
            report.recovered_replicas
        );
    }
}

/// One cell: the batched run and its batch-size-1 baseline, both
/// validated, then the batching identity between them.
fn cell(n: usize, epochs: u64, fault: Fault, protocol: Protocol) {
    let cell = format!("{protocol:?} n={n} {fault:?}");
    let batched = configure(n, epochs, fault, protocol, BATCH).run();
    validate(&batched, fault, &cell);
    let baseline = configure(n, epochs, fault, protocol, 1).run();
    validate(&baseline, fault, &format!("{cell} (batch 1)"));
    assert_eq!(
        batched.max_committed(),
        baseline.max_committed(),
        "{cell}: batching changed the committed height"
    );
    assert!(
        baseline.txns_committed > 0,
        "{cell}: the baseline committed no transactions"
    );
    assert_eq!(
        batched.txns_committed,
        u64::from(BATCH) * baseline.txns_committed,
        "{cell}: some committed block carried less than a full batch"
    );
}

#[test]
fn every_fault_scenario_agrees_commits_and_fills_its_batches() {
    // The scope joins every cell and fails if any cell failed.
    std::thread::scope(|scope| {
        for (fault, epochs) in TABLE {
            for protocol in PROTOCOLS {
                scope.spawn(move || cell(4, epochs, fault, protocol));
            }
        }
    });
}

/// The honest row at n = 61 (f = 20), past the sizes the other suites
/// run. About 18 s in a debug build, so it runs on request.
#[test]
#[ignore]
fn honest_n61() {
    for protocol in PROTOCOLS {
        cell(61, 10, Fault::Honest, protocol);
    }
}
