//! The retention horizon under long runs and at its edges, in virtual time.
//!
//! A replica's cost per round and its resident state must not depend on
//! how long it has run. These tests drive both protocols for 4 096 rounds
//! with the horizon shrunk to 64 (so dozens of sweeps happen) and check
//! what must hold regardless — agreement, monotone strength, every old
//! block at the strength ceiling, the commit-time transaction counter
//! against an independent count — and what the horizon buys: resident
//! counts bounded by the horizon, and *step counts* per round (endorsement
//! walk steps, signature checks, messages — not wall clock) flat between
//! the first and the last 512 rounds. Then the edges: a straggler behind by
//! less than the horizon catches up by block sync; one behind by more
//! cannot, says so, and stops trying.

use std::sync::Arc;

use sft_core::{ProtocolConfig, ReplicaEngine, WalRecord};
use sft_network::{FaultSchedule, SimNetwork, SimTransport};
use sft_obs::{names, Registry};
use sft_sim::{
    build_fbft_engines, build_streamlet_engines, Behavior, EngineRunner, NoMischief, Protocol,
    RunPlan, RunnerConfig, SimConfig, SimReport,
};
use sft_types::{ReplicaId, Round, SimDuration, SimTime};

const N: usize = 4;
const HORIZON: u64 = 64;
const ROUNDS: u64 = 4096;
const WINDOW: u64 = 512;

/// The step counters sampled at a window boundary.
#[derive(Clone, Copy, Debug)]
struct Steps {
    round: u64,
    walk_steps: u64,
    sig_verifications: u64,
    messages: u64,
}

impl Steps {
    fn sample<E: ReplicaEngine>(runner: &EngineRunner<E, SimTransport, NoMischief>) -> Self {
        let report = runner.report();
        Self {
            round: runner.engine(0).round().as_u64(),
            walk_steps: report.walk_steps,
            sig_verifications: report.sig_verifications,
            messages: report.net.messages,
        }
    }

    /// Per-round rates over the window ending here and starting at `from`.
    fn per_round_since(&self, from: &Steps) -> [f64; 3] {
        let rounds = (self.round - from.round) as f64;
        [
            (self.walk_steps - from.walk_steps) as f64 / rounds,
            (self.sig_verifications - from.sig_verifications) as f64 / rounds,
            (self.messages - from.messages) as f64 / rounds,
        ]
    }
}

/// A runner over `engines` on a lossless (or `faults`-scheduled) simulated
/// network, with a live registry so the resident gauges are reported.
fn runner<E: ReplicaEngine>(
    config: &SimConfig,
    engines: Vec<E>,
    plan: RunPlan,
    faults: Option<FaultSchedule>,
) -> EngineRunner<E, SimTransport, NoMischief> {
    let mut net = SimNetwork::new(config.delay);
    if let Some(faults) = faults {
        net = net.with_faults(faults);
    }
    let mut runner = EngineRunner::new(
        engines,
        vec![Behavior::Honest; config.n],
        SimTransport::new(net, config.n),
        NoMischief,
        RunnerConfig {
            plan,
            horizon: SimTime::ZERO + config.run_horizon,
            drain_bound: config.drain_sync_bound,
            drain_step: config.delay,
        },
    );
    runner.set_recorder(Arc::new(Registry::new()));
    runner
}

/// Runs `runner` through the three sampling points of a long run and
/// returns the step samples plus the final report.
fn long_run<E: ReplicaEngine>(
    mut runner: EngineRunner<E, SimTransport, NoMischief>,
    round_span: SimDuration,
) -> (Vec<[f64; 3]>, SimReport, Vec<WalRecord>) {
    runner.keep_persist_log();
    let start = Steps::sample(&runner);
    runner
        .run_until(SimTime::ZERO + round_span * WINDOW)
        .unwrap();
    let early = Steps::sample(&runner);
    runner
        .run_until(SimTime::ZERO + round_span * (ROUNDS - WINDOW))
        .unwrap();
    let late_start = Steps::sample(&runner);
    runner
        .run_until(SimTime::ZERO + round_span * ROUNDS)
        .unwrap();
    let end = Steps::sample(&runner);
    assert!(
        early.round >= WINDOW - 8 && end.round >= ROUNDS - 8,
        "the run kept its pace: sampled at rounds {} and {}",
        early.round,
        end.round
    );
    let wal = runner.persisted(0).to_vec();
    let rates = vec![
        early.per_round_since(&start),
        end.per_round_since(&late_start),
    ];
    (rates, runner.report(), wal)
}

fn assert_history_independent(
    protocol: Protocol,
    rates: &[[f64; 3]],
    report: &SimReport,
    wal: &[WalRecord],
) {
    let cfg = ProtocolConfig::for_replicas(N);
    assert!(report.agreement(), "{protocol:?}: chains agree");
    assert!(report.commit_strength_monotone(), "{protocol:?}: monotone");
    assert_eq!(report.safety_violations, 0);
    assert!(
        report.max_committed() as u64 >= ROUNDS * 3 / 4,
        "{protocol:?}: committed {} blocks in {ROUNDS} rounds",
        report.max_committed()
    );

    // Levels == strength_of: with every replica honest, every block but
    // the newest few ends at the ceiling — pruning lost no upgrade.
    let mut last_level = std::collections::HashMap::new();
    for update in &report.commit_logs[0] {
        last_level.insert(update.block_id(), update.level());
    }
    let chain = &report.chains[0];
    for id in &chain[..chain.len() - 8] {
        assert_eq!(
            last_level.get(id).copied(),
            Some(cfg.max_strength()),
            "{protocol:?}: an old block stopped short of the ceiling"
        );
    }

    // The commit-time counter against an independent count: the blocks
    // replica 0 logged as committed, payloads and all.
    let logged: u64 = wal
        .iter()
        .filter_map(|record| match record {
            WalRecord::BlockCommitted(block) => Some(block.payload().txn_count() as u64),
            _ => None,
        })
        .sum();
    assert!(
        logged > 0,
        "{protocol:?}: the batched run carried transactions"
    );
    assert_eq!(report.chains[0].len(), report.max_committed());
    assert_eq!(
        report.txns_committed, logged,
        "{protocol:?}: counter != sum over the committed chain"
    );

    // Resident state is O(horizon), 4 096 rounds in.
    let gauge = |name: &str| report.metrics.counter(name).expect(name);
    let horizon = HORIZON;
    assert!(
        gauge(names::RESIDENT_BLOCKS) <= 2 * horizon,
        "{protocol:?}: {} blocks resident",
        gauge(names::RESIDENT_BLOCKS)
    );
    assert!(
        gauge(names::RESIDENT_VOTES) <= 2 * horizon * N as u64,
        "{protocol:?}: {} votes resident",
        gauge(names::RESIDENT_VOTES)
    );
    assert!(
        gauge(names::RESIDENT_CERTS) <= 2 * horizon,
        "{protocol:?}: {} certificates resident",
        gauge(names::RESIDENT_CERTS)
    );
    // 16 workload clients, numbered contiguously: one watermark each,
    // plus the transactions (4 a block) of the blocks still resident.
    assert!(
        gauge(names::DEDUP_ENTRIES) <= 16 + 2 * horizon * 4,
        "{protocol:?}: {} dedup entries",
        gauge(names::DEDUP_ENTRIES)
    );

    // Step counts per round: the last 512 rounds cost what the first did.
    let (early, late) = (rates[0], rates[1]);
    for (what, (early, late)) in ["walk steps", "signature checks", "messages"]
        .iter()
        .zip(early.iter().zip(&late))
    {
        assert!(
            *late <= early * 1.05 + 0.5,
            "{protocol:?}: {what} per round grew from {early:.2} to {late:.2}"
        );
    }
}

fn long_config(protocol: Protocol) -> SimConfig {
    SimConfig::new(N, ROUNDS)
        .with_protocol(protocol)
        .with_batch_size(4)
        .with_workload(4, 32)
}

#[test]
fn fbft_cost_and_memory_do_not_depend_on_run_length() {
    let config = long_config(Protocol::Fbft);
    let mut engines = build_fbft_engines(&config, config.base_timeout);
    for engine in &mut engines {
        engine.kernel_mut().set_retention(HORIZON);
    }
    // A happy-path round is one proposal delay plus one vote delay.
    let plan = RunPlan::PastRound(Round::new(ROUNDS));
    let (rates, report, wal) = long_run(runner(&config, engines, plan, None), config.delay * 2);
    assert_history_independent(Protocol::Fbft, &rates, &report, &wal);
}

#[test]
fn streamlet_cost_and_memory_do_not_depend_on_run_length() {
    let config = long_config(Protocol::Streamlet);
    let period = config.delay * 2;
    let mut engines = build_streamlet_engines(&config, period);
    for engine in &mut engines {
        engine.kernel_mut().set_retention(HORIZON);
    }
    let (rates, report, wal) = long_run(
        runner(&config, engines, RunPlan::UntilQuiescent, None),
        period,
    );
    assert_history_independent(Protocol::Streamlet, &rates, &report, &wal);
}

/// Replica 3 is cut off from round ~`from` for `rounds` rounds of an fbft
/// run with the horizon at `HORIZON`, then reconnected; the run continues
/// long enough for any recovery to finish.
fn partitioned_fbft_run(rounds_cut: u64, rounds_total: u64) -> SimReport {
    let config = SimConfig::new(N, rounds_total)
        .with_protocol(Protocol::Fbft)
        // Long enough for a stuck straggler to exhaust its fetch attempts,
        // short enough that a run that never settles still ends.
        .with_run_horizon(SimDuration::from_millis(200) * (rounds_total + 200));
    let heal_at = SimTime::ZERO + config.delay * 2 * rounds_cut;
    let faults = FaultSchedule::partition(vec![ReplicaId::new(3)], heal_at);
    let mut engines = build_fbft_engines(&config, config.base_timeout);
    for engine in &mut engines {
        engine.kernel_mut().set_retention(HORIZON);
    }
    let plan = RunPlan::PastRound(Round::new(rounds_total));
    runner(&config, engines, plan, Some(faults)).run().unwrap()
}

#[test]
fn a_straggler_inside_the_horizon_catches_up_by_block_sync() {
    let report = partitioned_fbft_run(HORIZON / 2, 3 * HORIZON);
    assert!(report.agreement());
    assert_eq!(report.safety_violations, 0);
    assert!(report.sync_blocks_fetched > 0, "recovery went through sync");
    assert!(
        report.chains[3].len() + 4 >= report.max_committed(),
        "the straggler recovered {} of {} commits",
        report.chains[3].len(),
        report.max_committed()
    );
}

/// The state-transfer gap: everything the straggler would need has been
/// pruned by its peers. It must notice (its fetches go unanswered until
/// it gives each up), must not fetch forever on behalf of one gap, and
/// must not damage anyone — its chain stays a prefix of the others'.
#[test]
fn a_straggler_beyond_the_horizon_reports_itself_stuck_instead_of_looping() {
    let rounds_total = 8 * HORIZON;
    let report = partitioned_fbft_run(4 * HORIZON, rounds_total);
    assert!(
        report.agreement(),
        "a stuck replica's chain is still a prefix"
    );
    assert_eq!(report.safety_violations, 0);
    assert!(
        (report.max_committed() as u64) > rounds_total / 2,
        "the other three kept committing"
    );
    assert!(
        (report.chains[3].len() as u64) < HORIZON,
        "nothing below the peers' horizon can be recovered by block sync"
    );
    let abandoned = report.metrics.counter(names::SYNC_ABANDONED).unwrap_or(0);
    assert!(
        abandoned > 0,
        "the straggler gave up on the pruned ancestry"
    );
    // Bounded effort: attempts per target are capped, so requests scale
    // with rounds, not without limit.
    assert!(
        report.sync_requests < 64 * rounds_total,
        "{} sync requests for a gap no peer can fill",
        report.sync_requests
    );
}

/// Runs shorter than the default horizon never prune, so nothing about
/// them may move: chains, commit logs, timelines and traffic of seeded
/// runs — lossless, lossy and partitioned, every endorse mode, with and
/// without Byzantine behaviors — are pinned to what the implementation
/// that kept all history forever produced.
#[test]
fn seeded_runs_inside_the_horizon_are_byte_identical_to_the_unpruned_implementation() {
    use sft_types::EndorseMode;
    fn digest(report: &SimReport) -> String {
        let mut h = sft_crypto::Hasher::new("digest");
        for chain in &report.chains {
            for id in chain {
                h = h.field(id.as_ref());
            }
            h = h.field(b"|");
        }
        for log in &report.commit_logs {
            for u in log {
                h = h
                    .field(u.block_id().as_ref())
                    .field(&u.level().to_be_bytes())
                    .field(&u.round().as_u64().to_be_bytes());
            }
            h = h.field(b"|");
        }
        for timeline in &report.timelines {
            for (at, u) in timeline {
                h = h
                    .field(&at.as_micros().to_be_bytes())
                    .field(u.block_id().as_ref());
            }
        }
        format!(
            "{} msgs={} bytes={} txns={} sync={}/{} walk={} sigv={}",
            h.finish().short(),
            report.net.messages,
            report.net.bytes,
            report.txns_committed,
            report.sync_requests,
            report.sync_blocks_fetched,
            report.walk_steps,
            report.sig_verifications
        )
    }
    let base = |protocol, n| SimConfig::new(n, 40).with_protocol(protocol);
    let cases = [
        (
            base(Protocol::Streamlet, 4),
            "e7a214d6 msgs=600 bytes=77280 txns=39000 sync=0/0 walk=624 sigv=160",
        ),
        (
            base(Protocol::Fbft, 4).with_batch_size(8),
            "15154aa8 msgs=606 bytes=556371 txns=312 sync=0/0 walk=624 sigv=160",
        ),
        (
            base(Protocol::Fbft, 7)
                .with_endorse_mode(EndorseMode::Interval)
                .with_behavior(0, Behavior::Equivocate)
                .with_lossy_links(7, 0.2),
            "8995d1d9 msgs=2305 bytes=371565 txns=32000 sync=16/4 walk=1801 sigv=475",
        ),
        (
            base(Protocol::Streamlet, 7)
                .with_batch_size(8)
                .with_behavior(0, Behavior::WithholdVote)
                .with_partitioned_straggler(),
            "00cd14ea msgs=1484 bytes=1165699 txns=288 sync=1/18 walk=1393 sigv=133",
        ),
        (
            base(Protocol::Fbft, 10)
                .with_endorse_mode(EndorseMode::Vanilla)
                .with_behavior(0, Behavior::StallLeader)
                .with_partitioned_straggler(),
            "82cdbc06 msgs=3874 bytes=484909 txns=34000 sync=2/15 walk=0 sigv=874",
        ),
    ];
    for (config, expected) in cases {
        let label = format!("{:?} n={}", config.protocol, config.n);
        assert_eq!(digest(&config.run()), expected, "{label}");
    }
}
