//! End-to-end reproduction driver: runs simulated consensus instances of
//! one (or both) protocols and prints what they did.
//!
//! ```text
//! cargo run -p sft-bench --bin repro [-- n epochs [scenario] [flags]]
//!   n          replica count           (default 4)
//!   epochs     epochs/rounds to run    (default 10)
//!   scenario   equivocate | withhold | silent | stall — behavior of replica n-1
//!              partition — replica n-1 cut off until mid-run while replica 0
//!                          equivocates; recovery via block-sync is asserted
//!              lossy     — 15% seeded message loss until GST at mid-run
//!              crash     — replica 0 crash-stops mid-run; survivors must keep going
//!              restart   — replica 0 crash-stops mid-run, then restarts from a
//!                          write-ahead-log replay; committed-prefix parity and
//!                          zero equivocation are asserted
//!
//! flags:
//!   --protocol streamlet | fbft | both   which protocol(s) to run (default streamlet)
//!   --transport sim | tcp                sim (default): deterministic simulator;
//!                                        tcp: the same honest replica set over a
//!                                        loopback TCP mesh, asserting its committed
//!                                        prefix matches the sim run's
//!   --batch-size B                       txns per drained mempool batch; 0 = synthetic
//!                                        descriptor workload (default 256)
//! ```
//!
//! Every batched run is compared against an *unbatched* baseline (the same
//! scenario at batch size 1, equal simulated time); the run fails if
//! batching does not commit at least twice the transactions — the
//! regression bar CI holds the batching/pipelining path to. The exact
//! counters of `repro 4 10` and `repro 4 12 partition` are pinned in
//! `RESULTS.md` by `crates/sim/tests/paper_claims.rs`.

#![deny(unsafe_code)]

use std::process::ExitCode;

use sft_core::{scan_wal, MemSink, ProtocolConfig, ReplicaEngine, Wal, WalRecord};
use sft_network::{SimNetwork, SimTransport, Transport};
use sft_sim::{
    build_fbft_engines, build_streamlet_engines, run_over_tcp, Behavior, EngineRunner, NoMischief,
    Protocol, RunPlan, RunnerConfig, SimConfig, SimReport, TcpPacing,
};
use sft_types::{Round, SimTime};

/// What the optional third positional argument selects: a Byzantine
/// behavior for replica `n − 1`, or a partial-synchrony fault schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum Scenario {
    #[default]
    Honest,
    Byzantine(Behavior),
    /// Replica n−1 partitioned until mid-run while replica 0 equivocates;
    /// the catch-up acceptance criterion (recovery via block-sync) is
    /// asserted on top of the usual invariants.
    Partition,
    /// 15% seeded message loss until GST at mid-run, all replicas honest.
    Lossy,
    /// Replica 0 crash-stops mid-run (engine dropped, never restarted);
    /// the survivors must keep committing and agreeing.
    Crash,
    /// Replica 0 crash-stops mid-run and is later rebuilt from a
    /// write-ahead-log replay through the real frame codec; committed-
    /// prefix parity and zero equivocation are asserted.
    Restart,
}

/// Which transport the run goes over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum TransportKind {
    /// The deterministic in-process simulator.
    #[default]
    Sim,
    /// A loopback TCP mesh: same replicas, real sockets, wall-clock time.
    Tcp,
}

struct Args {
    n: usize,
    epochs: u64,
    scenario: Scenario,
    protocols: Vec<Protocol>,
    transport: TransportKind,
    batch_size: u32,
}

fn parse_replica_count(value: &str) -> Result<usize, String> {
    value
        .parse()
        .ok()
        .filter(|n| *n >= 4)
        .ok_or_else(|| format!("bad replica count {value:?}; need >= 4"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 4,
        epochs: 10,
        scenario: Scenario::Honest,
        protocols: vec![Protocol::Streamlet],
        transport: TransportKind::Sim,
        batch_size: 256,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = 0usize;
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--protocol" => {
                let value = iter.next().ok_or("--protocol needs a value")?;
                args.protocols = match value.as_str() {
                    "streamlet" => vec![Protocol::Streamlet],
                    "fbft" => vec![Protocol::Fbft],
                    "both" => vec![Protocol::Streamlet, Protocol::Fbft],
                    other => return Err(format!("unknown protocol {other:?}")),
                };
            }
            "--transport" => {
                let value = iter.next().ok_or("--transport needs a value")?;
                args.transport = match value.as_str() {
                    "sim" => TransportKind::Sim,
                    "tcp" => TransportKind::Tcp,
                    other => return Err(format!("unknown transport {other:?}")),
                };
            }
            "--batch-size" => {
                let value = iter.next().ok_or("--batch-size needs a value")?;
                args.batch_size = value
                    .parse()
                    .map_err(|_| format!("bad batch size {value:?}"))?;
            }
            value => {
                match positional {
                    0 => args.n = parse_replica_count(value)?,
                    1 => {
                        args.epochs = value
                            .parse()
                            .map_err(|_| format!("bad epoch count {value:?}"))?;
                    }
                    2 => {
                        args.scenario = match value {
                            "equivocate" => Scenario::Byzantine(Behavior::Equivocate),
                            "withhold" => Scenario::Byzantine(Behavior::WithholdVote),
                            "silent" => Scenario::Byzantine(Behavior::Silent),
                            "stall" => Scenario::Byzantine(Behavior::StallLeader),
                            "partition" => Scenario::Partition,
                            "lossy" => Scenario::Lossy,
                            "crash" => Scenario::Crash,
                            "restart" => Scenario::Restart,
                            other => {
                                return Err(format!(
                                    "unknown scenario {other:?}; use equivocate | withhold | \
                                     silent | stall | partition | lossy | crash | restart"
                                ))
                            }
                        };
                    }
                    _ => return Err(format!("unexpected argument {value:?}")),
                }
                positional += 1;
            }
        }
    }
    if args.transport == TransportKind::Tcp && args.scenario != Scenario::Honest {
        return Err(
            "--transport tcp runs the honest scenario only (fault injection is a \
             simulator feature)"
                .to_string(),
        );
    }
    Ok(args)
}

fn protocol_name(protocol: Protocol) -> &'static str {
    match protocol {
        Protocol::Streamlet => "streamlet",
        Protocol::Fbft => "fbft",
    }
}

fn scenario_name(scenario: Scenario) -> &'static str {
    match scenario {
        Scenario::Honest | Scenario::Byzantine(Behavior::Honest) => "honest",
        Scenario::Byzantine(Behavior::Equivocate) => "equivocate",
        Scenario::Byzantine(Behavior::WithholdVote) => "withhold",
        Scenario::Byzantine(Behavior::Silent) => "silent",
        Scenario::Byzantine(Behavior::StallLeader) => "stall",
        Scenario::Partition => "partition",
        Scenario::Lossy => "lossy",
        Scenario::Crash => "crash",
        Scenario::Restart => "restart",
    }
}

/// Seed for the lossy scenario's drop stream — fixed so CI runs are
/// reproducible; the test suite sweeps seeds.
const LOSSY_SEED: u64 = 7;

/// One simulated scenario, ready to run. The crash scenarios start from
/// the honest configuration: their faults are mid-run engine surgery,
/// which `drive_crash` performs and a static config cannot express.
fn configure(args: &Args, protocol: Protocol, batch_size: u32) -> SimConfig {
    let n = args.n;
    let mut config = SimConfig::new(n, args.epochs)
        .with_protocol(protocol)
        .with_batch_size(batch_size);
    match args.scenario {
        Scenario::Honest | Scenario::Crash | Scenario::Restart => {}
        Scenario::Byzantine(behavior) => {
            config = config.with_behavior((n - 1) as u16, behavior);
        }
        Scenario::Partition => {
            config = config
                .with_behavior(0, Behavior::Equivocate)
                .with_partitioned_straggler();
        }
        Scenario::Lossy => {
            config = config.with_lossy_links(LOSSY_SEED, 0.15);
        }
    }
    config
}

/// Sanity-checks every run, batched or not: agreement, liveness, and
/// monotone commit strength — plus, for the partition scenario, the
/// block-sync acceptance criterion (the straggler actually recovered).
fn validate(report: &SimReport, scenario: Scenario) -> Result<(), String> {
    if !report.agreement() || report.safety_violations > 0 {
        return Err(format!(
            "replicas disagree (violations: {})",
            report.safety_violations
        ));
    }
    if report.max_committed() == 0 {
        return Err("nothing committed".to_string());
    }
    if !report.commit_strength_monotone() {
        return Err("commit strength regressed".to_string());
    }
    if scenario == Scenario::Partition {
        if report.sync_blocks_fetched == 0 {
            return Err("partition scenario fetched no blocks via sync".to_string());
        }
        if report.recovered_replicas == 0 {
            return Err("partitioned replica did not recover the committed prefix".to_string());
        }
    }
    Ok(())
}

fn run_protocol(args: &Args, protocol: Protocol) -> Result<(), String> {
    let cfg = ProtocolConfig::for_replicas(args.n);
    let config = configure(args, protocol, args.batch_size);
    println!(
        "running SFT-{}: n={} (f={}), {} {}, δ={}, quorum={}, 2f ceiling={}, batch={}",
        if protocol == Protocol::Fbft {
            "DiemBFT"
        } else {
            "Streamlet"
        },
        args.n,
        cfg.f(),
        args.epochs,
        if protocol == Protocol::Fbft {
            "rounds"
        } else {
            "epochs"
        },
        config.delay,
        cfg.quorum(),
        cfg.max_strength(),
        if args.batch_size == 0 {
            "synthetic".to_string()
        } else {
            args.batch_size.to_string()
        },
    );
    match args.scenario {
        // The crash scenarios run through `run_crash_scenario`.
        Scenario::Honest | Scenario::Crash | Scenario::Restart => {}
        Scenario::Byzantine(behavior) => println!("replica {} is {:?}", args.n - 1, behavior),
        Scenario::Partition => println!(
            "replica {} partitioned until mid-run; replica 0 equivocates",
            args.n - 1
        ),
        Scenario::Lossy => println!("15% message loss (seed {LOSSY_SEED}) until GST at mid-run"),
    }

    let report = config.run();
    validate(&report, args.scenario)?;

    println!(
        "\ncommitted chain (replica 0): {} blocks, {} txns ({:.1} txns/s virtual)",
        report.chains[0].len(),
        report.txns_committed,
        report.txns_per_sec(),
    );
    for (at, update) in &report.timelines[0] {
        println!(
            "  t={at}  block r={} h={}  -> level {} ({})",
            update.round(),
            update.height(),
            update.level(),
            if update.level() >= cfg.max_strength() {
                "strong commit, 2f ceiling"
            } else if update.level() as usize == cfg.f() {
                "standard commit"
            } else {
                "strengthened"
            }
        );
    }

    println!(
        "\nnetwork: {} messages, {} bytes, elapsed {}",
        report.net.messages, report.net.bytes, report.elapsed
    );
    println!(
        "signatures: {} verified across {} batch checks",
        report.sig_verifications, report.batch_verify_calls
    );
    if report.equivocators_detected > 0 {
        println!("equivocators detected: {}", report.equivocators_detected);
    }
    if report.net.dropped > 0 || report.sync_requests > 0 {
        println!(
            "faults: {} messages dropped; sync fetched {} blocks over {} requests, {} replica(s) recovered",
            report.net.dropped, report.sync_blocks_fetched, report.sync_requests, report.recovered_replicas
        );
    }

    // The batching bar: against an unbatched (batch-size 1) baseline at
    // equal simulated time, batched+pipelined runs must commit at least
    // twice the transactions. Skipped in synthetic-workload mode.
    if args.batch_size >= 2 {
        let baseline = configure(args, protocol, 1).run();
        validate(&baseline, args.scenario)?;
        let speedup = report.txns_committed as f64 / baseline.txns_committed.max(1) as f64;
        println!(
            "batching: {} txns vs {} unbatched at equal simulated time ({speedup:.1}x)",
            report.txns_committed, baseline.txns_committed
        );
        if speedup < 2.0 {
            return Err(format!(
                "batching speedup {speedup:.2}x below the 2x bar (batched {} vs baseline {})",
                report.txns_committed, baseline.txns_committed
            ));
        }
    }

    println!(
        "\nOK: agreement holds, max commit level {}",
        report.max_commit_level()
    );
    Ok(())
}

/// Round-trips `records` through the on-disk frame codec — encode, then
/// scan back — so the restart replay exercises exactly what a rebooted
/// process would read from `wal.log`, not the in-memory records the
/// runner collected.
fn through_wal_codec(records: &[WalRecord]) -> Result<Vec<WalRecord>, String> {
    let mut wal = Wal::new(MemSink::new(), 4);
    for record in records {
        wal.append(record).map_err(|e| format!("wal encode: {e}"))?;
    }
    wal.flush().map_err(|e| format!("wal flush: {e}"))?;
    let scan = scan_wal(wal.sink().bytes()).map_err(|e| format!("wal scan: {e}"))?;
    if scan.records.len() != records.len() {
        return Err(format!(
            "lossy wal round-trip: {} in, {} out",
            records.len(),
            scan.records.len()
        ));
    }
    Ok(scan.records)
}

/// The `crash` / `restart` scenarios: replica 0 is killed mid-run (its
/// engine — all in-memory state — dropped on the floor, exactly what
/// `kill -9` does to a process), and for `restart` later rebuilt from a
/// write-ahead-log replay through the real frame codec. This is the
/// simulated twin of the `crash-harness` binary's OS-process run, on the
/// CI scenario matrix where it is cheap enough to run everywhere.
fn run_crash_scenario(args: &Args, protocol: Protocol) -> Result<(), String> {
    let config = configure(args, protocol, args.batch_size);
    let restart = args.scenario == Scenario::Restart;
    println!(
        "running SFT-{} {}: n={}, {} {} — replica 0 killed mid-run{}",
        if protocol == Protocol::Fbft {
            "DiemBFT"
        } else {
            "Streamlet"
        },
        scenario_name(args.scenario),
        args.n,
        args.epochs,
        if protocol == Protocol::Fbft {
            "rounds"
        } else {
            "epochs"
        },
        if restart {
            ", later restarted from its WAL"
        } else {
            ", never restarted"
        },
    );
    match protocol {
        Protocol::Streamlet => {
            let period = config.delay * 2;
            let build = || build_streamlet_engines(&config, period);
            drive_crash(args, &config, build, RunPlan::UntilQuiescent, restart)
        }
        Protocol::Fbft => {
            let build = || build_fbft_engines(&config, config.base_timeout);
            let plan = RunPlan::PastRound(Round::new(args.epochs));
            drive_crash(args, &config, build, plan, restart)
        }
    }
}

/// The crash-scenario event schedule, shared by both protocols: run a
/// third of the schedule, kill replica 0, (optionally) restart it from a
/// codec-round-tripped WAL replay two periods later, then drive well past
/// the target with a sync drain so catch-up fetches and retries fire.
fn drive_crash<E: ReplicaEngine>(
    args: &Args,
    config: &SimConfig,
    build: impl Fn() -> Vec<E>,
    plan: RunPlan,
    restart: bool,
) -> Result<(), String> {
    let victim = 0usize;
    let period = config.delay * 2;
    let transport = SimTransport::new(SimNetwork::new(config.delay), args.n);
    let mut runner = EngineRunner::new(
        build(),
        vec![Behavior::Honest; args.n],
        transport,
        NoMischief,
        RunnerConfig {
            plan,
            horizon: SimTime::ZERO + config.run_horizon,
            drain_bound: config.drain_sync_bound,
            drain_step: config.delay,
        },
    );
    runner.keep_persist_log();

    let crash_at = SimTime::ZERO + period * (args.epochs / 3).max(1);
    runner.run_until(crash_at).map_err(|e| e.to_string())?;
    let pre_crash = runner.engine(victim).committed_chain().to_vec();
    let wal_records = runner.persisted(victim).len();
    if wal_records == 0 {
        return Err("victim crashed with an empty WAL; crash point too early".to_string());
    }
    runner.set_behavior(victim, Behavior::Silent);
    println!(
        "replica {victim} killed at {crash_at}: {wal_records} WAL records, {} committed blocks",
        pre_crash.len()
    );

    if restart {
        let restart_at = crash_at + period * 2;
        runner.run_until(restart_at).map_err(|e| e.to_string())?;
        let replayed = through_wal_codec(runner.persisted(victim))?;
        let mut fresh = build().remove(victim);
        for record in &replayed {
            fresh.restore(record, restart_at);
        }
        runner.replace_engine(victim, fresh);
        runner.set_behavior(victim, Behavior::Honest);
        println!(
            "replica {victim} restarted at {restart_at}: {} records replayed through the \
             frame codec",
            replayed.len()
        );
    }

    // Generous tail: self-pacing fbft rounds stall for a timeout whenever
    // the dead (or catching-up) victim holds the leader slot, so give the
    // survivors room; Streamlet's epoch clock simply runs out. Driving in
    // δ steps fires the victim's sync polls and retries along the way.
    let end = match plan {
        RunPlan::UntilQuiescent => SimTime::ZERO + period * (args.epochs + 2),
        RunPlan::PastRound(_) => crash_at + config.base_timeout * 2 * (args.epochs + 6),
    };
    let mut at = runner.transport().now();
    while at < end {
        at += config.delay;
        runner.run_until(at).map_err(|e| e.to_string())?;
    }
    for step in 1..=60u64 {
        runner
            .run_until(end + config.delay * step)
            .map_err(|e| e.to_string())?;
    }

    let report = runner.report();
    if !report.agreement() || report.safety_violations > 0 {
        return Err(format!(
            "committed prefixes diverge after the crash (violations: {})",
            report.safety_violations
        ));
    }
    if report.equivocators_detected > 0 {
        return Err(format!(
            "{} equivocator(s) observed — a recovered replica contradicted itself",
            report.equivocators_detected
        ));
    }
    let survivor_best = report
        .chains
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, c)| c.len())
        .max()
        .unwrap_or(0);
    if survivor_best <= pre_crash.len() {
        return Err(format!(
            "survivors made no progress past the crash ({survivor_best} vs {} pre-crash)",
            pre_crash.len()
        ));
    }
    let victim_chain = &report.chains[victim];
    if victim_chain.len() < pre_crash.len() || victim_chain[..pre_crash.len()] != pre_crash[..] {
        return Err("the victim's committed prefix rolled back".to_string());
    }
    if restart && victim_chain.len() <= pre_crash.len() {
        return Err(format!(
            "restarted replica made no progress past its pre-crash prefix ({} blocks)",
            pre_crash.len()
        ));
    }
    println!(
        "\nOK: agreement holds; survivors reached {survivor_best} blocks{}",
        if restart {
            format!(
                "; the restarted replica kept {} pre-crash blocks and committed {} more",
                pre_crash.len(),
                report.chains[victim].len() - pre_crash.len()
            )
        } else {
            format!(
                "; the dead replica's chain froze at {} blocks",
                report.chains[victim].len()
            )
        }
    );
    Ok(())
}

/// Runs the honest scenario over a loopback TCP mesh — the same engines
/// the simulator builds, over real sockets, via [`sft_sim::run_over_tcp`]
/// — and asserts the committed prefix matches the deterministic sim
/// run's. This is the acceptance check that the replica runtime is
/// genuinely transport-agnostic.
fn run_tcp_protocol(args: &Args, protocol: Protocol) -> Result<(), String> {
    let config = configure(args, protocol, args.batch_size);
    println!(
        "running SFT-{} over loopback TCP: n={}, {} {}, batch={} (sim reference first)",
        if protocol == Protocol::Fbft {
            "DiemBFT"
        } else {
            "Streamlet"
        },
        args.n,
        args.epochs,
        if protocol == Protocol::Fbft {
            "rounds"
        } else {
            "epochs"
        },
        args.batch_size,
    );

    let sim_report = config.clone().run();
    validate(&sim_report, args.scenario)?;

    // One process hosts every replica, so per-epoch engine work grows
    // with n while the wall-clock epoch does not: widen the pacing unit
    // for large meshes or proposals stop landing inside their epochs.
    let mut pacing = TcpPacing::default();
    pacing.delta = pacing.delta * (1 + args.n as u64 / 8);
    let tcp_report = run_over_tcp(&config, pacing).map_err(|e| format!("tcp mesh: {e}"))?;

    if !tcp_report.agreement() || tcp_report.safety_violations > 0 {
        return Err("tcp replicas disagree".to_string());
    }
    if tcp_report.max_committed() == 0 {
        return Err("tcp run committed nothing".to_string());
    }
    tcp_report
        .check_committed_prefix_of(&sim_report)
        .map_err(|e| format!("tcp vs sim: {e}"))?;
    println!(
        "tcp: {} blocks / {} txns committed in {} wall ({} messages, {} bytes); \
         sim reference: {} blocks — prefixes match on all {} replicas",
        tcp_report.max_committed(),
        tcp_report.txns_committed,
        tcp_report.elapsed,
        tcp_report.net.messages,
        tcp_report.net.bytes,
        sim_report.max_committed(),
        args.n,
    );
    println!("OK: loopback TCP commits the sim run's prefix");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    for (i, &protocol) in args.protocols.iter().enumerate() {
        if i > 0 {
            println!("\n{}\n", "=".repeat(64));
        }
        let outcome = match (args.transport, args.scenario) {
            (TransportKind::Sim, Scenario::Crash | Scenario::Restart) => {
                run_crash_scenario(&args, protocol)
            }
            (TransportKind::Sim, _) => run_protocol(&args, protocol),
            (TransportKind::Tcp, _) => run_tcp_protocol(&args, protocol),
        };
        if let Err(message) = outcome {
            eprintln!("FAIL ({}): {message}", protocol_name(protocol));
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
