//! A replica's cost per round does not depend on how long it has run.
//!
//! Runs n = 4 of each protocol for 4096 rounds on the run loop (virtual
//! time, batches of 16 client transactions) and times two quarters of the
//! same run on the run-loop thread's CPU clock: rounds 1–1024 and
//! 3073–4096. The last quarter may cost at most [`MAX_RATIO`] times the
//! first, in the median of [`REPS`] runs. Both quarters come from one run,
//! so the ratio does not difference two medians of separate runs, which
//! on a busy two-core machine swung from 0.16 to 2.10. The clock is the
//! thread's time on a CPU, so time spent descheduled does not count.
//!
//! A release-mode check, ignored by default:
//!
//! ```text
//! cargo test --release -p sft-sim --test long_run -- --ignored --nocapture
//! ```
//!
//! `scripts/long_run_smoke` runs exactly that.

use sft_network::{SimNetwork, SimTransport};
use sft_sim::{
    build_fbft_engines, build_streamlet_engines, EngineRunner, Protocol, RunPlan, SimConfig,
};
use sft_types::{Round, SimTime};

/// Rounds per run; the quarters are the first and the last 1024.
const ROUNDS: u64 = 4096;
const QUARTER: u64 = ROUNDS / 4;

/// Ceiling on last quarter ÷ first quarter.
const MAX_RATIO: f64 = 1.5;

/// Runs per protocol; the median ratio is the verdict.
const REPS: usize = 3;

/// This thread's time on a CPU so far, in ns: the scheduler's count
/// (`schedstat`), or user + system time in 10 ms ticks on a kernel that
/// does not export it.
fn thread_cpu_ns() -> u64 {
    if let Ok(schedstat) = std::fs::read_to_string("/proc/thread-self/schedstat") {
        if let Some(ns) = schedstat
            .split(' ')
            .next()
            .and_then(|field| field.parse().ok())
        {
            return ns;
        }
    }
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs");
    // utime and stime are the 14th and 15th fields, the 12th and 13th
    // after the parenthesised command name.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let ticks: u64 = rest
        .split(' ')
        .skip(11)
        .take(2)
        .map(|field| field.parse::<u64>().expect("tick count"))
        .sum();
    ticks * 10_000_000 // USER_HZ is 100 on every Linux port
}

/// Last quarter ÷ first quarter of one run of `protocol`, on this
/// thread's CPU clock, plus both quarters in ms.
fn quarter_ratio(protocol: Protocol) -> (f64, f64, f64) {
    let config = SimConfig::new(4, ROUNDS)
        .with_protocol(protocol)
        .with_batch_size(16);
    match protocol {
        Protocol::Streamlet => timed(
            &config,
            build_streamlet_engines(&config, config.delay * 2),
            RunPlan::UntilQuiescent,
        ),
        Protocol::Fbft => timed(
            &config,
            build_fbft_engines(&config, config.base_timeout()),
            RunPlan::PastRound(Round::new(ROUNDS)),
        ),
    }
}

/// Runs `engines` to [`ROUNDS`] in steps of δ and times the quarters.
fn timed<E: sft_core::ReplicaEngine>(
    config: &SimConfig,
    engines: Vec<E>,
    plan: RunPlan,
) -> (f64, f64, f64) {
    let mut runner = EngineRunner::new(
        engines,
        config.behaviors.clone(),
        SimTransport::new(SimNetwork::new(config.delay), config.n),
        config.runner_config(plan),
    );
    let slowest = |runner: &EngineRunner<E, SimTransport>| {
        (0..config.n)
            .map(|i| runner.engine(i).round().as_u64())
            .min()
            .unwrap_or(0)
    };
    // The CPU clock when the slowest replica first reached each mark.
    let marks = [QUARTER, ROUNDS - QUARTER, ROUNDS];
    let mut at_mark = Vec::with_capacity(marks.len());
    let mut at = SimTime::ZERO;
    let start = thread_cpu_ns();
    for mark in marks {
        while slowest(&runner) < mark {
            at += config.delay;
            assert!(
                at <= SimTime::ZERO + config.run_horizon(),
                "the run stalled"
            );
            runner.run_until(at).expect("no logs, nothing to fail");
        }
        at_mark.push(thread_cpu_ns());
    }
    let report = runner.finish().expect("no logs, nothing to fail");
    assert!(report.agreement() && report.max_committed() > 0);
    let ms = |ns: u64| ns as f64 / 1e6;
    let first = ms(at_mark[0] - start);
    let last = ms(at_mark[2] - at_mark[1]);
    (last / first, first, last)
}

#[test]
#[ignore = "a release-mode timing check: scripts/long_run_smoke runs it"]
fn the_last_quarter_of_a_4096_round_run_costs_what_the_first_did() {
    for protocol in [Protocol::Streamlet, Protocol::Fbft] {
        let mut ratios: Vec<f64> = (0..REPS)
            .map(|_| {
                let (ratio, first, last) = quarter_ratio(protocol);
                println!(
                    "{protocol:?}: rounds 1-{QUARTER} took {first:.0} ms of CPU, rounds \
                     {}-{ROUNDS} took {last:.0} ms ({ratio:.2}x)",
                    ROUNDS - QUARTER + 1
                );
                ratio
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[REPS / 2];
        println!("{protocol:?}: median {median:.2}x, ceiling {MAX_RATIO:.2}x");
        assert!(
            median <= MAX_RATIO,
            "{protocol:?}: the last quarter of a {ROUNDS}-round run costs {median:.2}x the \
             first (ceiling {MAX_RATIO}x)"
        );
    }
}
