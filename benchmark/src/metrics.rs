//! The metric catalog — every name the benchmark prints, with its unit,
//! which direction is better and (for end-to-end metrics) its regression
//! bound — and the arithmetic that turns one run into those numbers and
//! into a verdict on its output checks.

use std::time::Duration;

use sft_obs::{names, HistSummary};

use crate::cluster::RunOutcome;
use crate::loadgen::Span;
use crate::stats;
use crate::workload::{Offer, Workload};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen before `compare` reports a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a client of the cluster sees, from the plain (untraced) run.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("goodput_tps", "1/s", Higher, 0.15),
    e2e("ack_p50_ms", "ms", Lower, 0.20),
    e2e("ack_p95_ms", "ms", Lower, 0.25),
    e2e("ack_strong_p50_ms", "ms", Lower, 0.20),
    e2e("cpu_ms_per_txn", "ms", Lower, 0.15),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer numbers of the traced run, by the layer that produces them.
pub const TRACED: [MetricDef; 37] = [
    layer("loadgen.failed_share", "share", Lower),
    layer("loadgen.ack_samples", "count", Higher),
    layer("loadgen.ack_strong_samples", "count", Higher),
    layer("loadgen.ack_tail_ms", "ms", Lower),
    layer("loadgen.ack_tail_pct", "%", Higher),
    layer("loadgen.late_p50_ms", "ms", Lower),
    layer("loadgen.late_p99_ms", "ms", Lower),
    layer("loadgen.submit_write_p50_us", "us", Lower),
    layer("loadgen.busy_retries", "count", Lower),
    layer("loadgen.goodput_first5s_tps", "1/s", Higher),
    layer("loadgen.goodput_last5s_tps", "1/s", Higher),
    layer("loadgen.goodput_traced_tps", "1/s", Higher),
    layer("loadgen.gateway_p50_ms", "ms", Lower),
    layer("network.frames_per_block", "count", Lower),
    layer("network.bytes_per_txn", "B", Lower),
    layer("network.flush_p50_us", "us", Lower),
    layer("network.flush_p99_us", "us", Lower),
    layer("network.client_requests", "count", Higher),
    layer("sim.on_envelope_p50_us", "us", Lower),
    layer("sim.on_envelope_p99_us", "us", Lower),
    layer("sim.decode_p50_us", "us", Lower),
    layer("sim.route_p50_us", "us", Lower),
    layer("fbft.rounds_per_s", "1/s", Higher),
    layer("fbft.txns_per_block", "count", Higher),
    layer("fbft.qc_p50_ms", "ms", Lower),
    layer("fbft.round_commit_p50_ms", "ms", Lower),
    layer("fbft.ticks", "count", Lower),
    layer("fbft.blocks_committed", "count", Higher),
    layer("core.persist_wait_p50_us", "us", Lower),
    layer("core.wal_fsyncs_per_block", "count", Lower),
    layer("core.wal_group_size_p50", "count", Higher),
    layer("core.walk_steps_per_vote", "count", Lower),
    layer("core.ack_std_p50_ms", "ms", Lower),
    layer("core.ack_strong_p50_ms", "ms", Lower),
    layer("crypto.batch_verify_p50_us", "us", Lower),
    layer("crypto.sig_verifications_per_block", "count", Lower),
    layer("crypto.batch_verify_calls_per_block", "count", Lower),
];

/// Reported by the suite only: it needs the plain and the traced run of
/// one workload side by side, which a single `--trace 1` run has not.
pub const TRACE_OVERHEAD: MetricDef = layer("obs.trace_overhead_pct", "%", Lower);

/// Looks up any metric definition by name.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(&TRACED)
        .chain(&crate::probes::PROBES)
        .chain(std::iter::once(&TRACE_OVERHEAD))
        .find(|def| def.name == name)
}

/// Named values, in catalog order.
pub type Values = Vec<(&'static str, f64)>;

/// One run, measured and judged.
pub struct Measured {
    /// Requests due inside the measured window.
    pub attempted: u64,
    /// Of those: lost, unresolved when the grace ran out, refused and
    /// never admitted, or acknowledged below the requested strength.
    pub failed: u64,
    /// Output checks that did not hold; empty means the run is correct.
    pub violations: Vec<String>,
    /// Every [`END_TO_END`] metric.
    pub end_to_end: Values,
    /// Every [`TRACED`] metric (meaningful when the run was recording;
    /// the `loadgen.*` ones are measured either way).
    pub traced: Values,
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Histogram digests of the stack's registry, in milli- or microseconds.
fn hist(outcome: &RunOutcome, name: &str) -> HistSummary {
    outcome.report.metrics.hist(name).unwrap_or_default()
}

fn counter(outcome: &RunOutcome, name: &str) -> f64 {
    outcome.report.metrics.counter(name).unwrap_or(0) as f64
}

/// `num / den`, or zero when nothing was counted below the line.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Submit (open loop: due time) → `Committed` ack, in milliseconds.
fn latency_ms(span: &Span) -> Option<f64> {
    span.acked.map(|at| millis(at.saturating_sub(span.due)))
}

/// The `q`-th latency percentile of a typical second: `spans` are split
/// into one-second buckets by due time from `start`, each bucket gives its
/// own nearest-rank percentile, and the median over the buckets is
/// returned.
///
/// At this commit a cluster slows down with every round it has run, so
/// latency climbs all through a run while a closed loop offers fewer and
/// fewer requests. A percentile over requests then sits on the crowded,
/// steep early part of that curve and moves with small shifts in how many
/// requests landed early; the median over seconds reads the curve at
/// mid-window instead. A stall shorter than half the window does not move
/// it — that is what the request-weighted `loadgen.ack_tail_ms` is for.
pub fn typical_second(spans: &[&Span], start: Duration, q: f64) -> f64 {
    let mut seconds: Vec<Vec<f64>> = Vec::new();
    for span in spans {
        let Some(latency) = latency_ms(span) else {
            continue;
        };
        let second = span.due.saturating_sub(start).as_secs() as usize;
        if seconds.len() <= second {
            seconds.resize(second + 1, Vec::new());
        }
        seconds[second].push(latency);
    }
    let per_second = seconds
        .into_iter()
        .filter_map(|bucket| stats::percentile(&stats::sorted(bucket), q))
        .collect();
    stats::median(&stats::sorted(per_second)).unwrap_or(0.0)
}

/// How many of `spans` are missing a valid answer.
pub fn count_failed<'a>(spans: impl IntoIterator<Item = &'a Span>) -> u64 {
    spans
        .into_iter()
        .filter(|s| s.acked.is_none() || s.strength < s.ack_at)
        .count() as u64
}

/// Derives every metric of one run and applies the output checks.
/// `setup_s` is the run's set-up time over all its set-ups, `None` when
/// most of them never saw an ack.
pub fn measure(workload: &Workload, outcome: &RunOutcome, setup_s: Option<f64>) -> Measured {
    let phases = &outcome.phases;
    let (start, end) = (phases.warmup, phases.measure_end());
    let all: Vec<&Span> = outcome.clients.iter().flat_map(|c| &c.spans).collect();
    let window: Vec<&Span> = all
        .iter()
        .copied()
        .filter(|s| s.due >= start && s.due < end)
        .collect();
    let attempted = window.len() as u64;
    let failed = count_failed(window.iter().copied());

    let strong: Vec<&Span> = window
        .iter()
        .copied()
        .filter(|s| s.ack_at == workload.ack_levels[1])
        .collect();
    let ack = stats::sorted(window.iter().filter_map(|s| latency_ms(s)).collect());
    let ack_strong_samples = strong.iter().filter_map(|s| latency_ms(s)).count();
    let acks_between = |from: Duration, to: Duration| {
        all.iter()
            .filter(|s| s.acked.is_some_and(|at| at >= from && at < to))
            .count() as f64
    };
    // Over the requests *due* in the window, like every other number here:
    // counted by arrival time, a backlog from before the window would lift
    // an open loop's goodput above the rate it was offered.
    let answered = (attempted - failed) as f64;
    let goodput = answered / phases.measure.as_secs_f64();
    let cpu_s = outcome.clients[0]
        .cpu_window
        .map_or(0.0, |(from, to)| to - from);
    let pct = |sample: &[f64], q: f64| stats::percentile(sample, q).unwrap_or(0.0);

    let end_to_end = vec![
        ("goodput_tps", goodput),
        ("ack_p50_ms", typical_second(&window, start, 50.0)),
        ("ack_p95_ms", typical_second(&window, start, 95.0)),
        ("ack_strong_p50_ms", typical_second(&strong, start, 50.0)),
        ("cpu_ms_per_txn", per(cpu_s * 1e3, answered)),
        ("peak_rss_mb", crate::procstat::peak_rss_mb()),
        ("setup_s", setup_s.unwrap_or(0.0)),
    ];

    // ---- the load generator's own layer ----
    let late = stats::sorted(
        window
            .iter()
            .map(|s| millis(s.write_start.saturating_sub(s.due)))
            .collect(),
    );
    let submit_write = stats::sorted(
        window
            .iter()
            .filter_map(|s| Some((s.write_end? - s.write_start).as_secs_f64() * 1e6))
            .collect(),
    );
    let (tail_pct, tail_ms) = stats::supported_tail(&ack).unwrap_or((0.0, 0.0));
    let edge = Duration::from_secs(5).min(phases.measure / 2);
    let busy_retries: u32 = all.iter().map(|s| s.busy_retries).sum();

    // ---- the stack's layers, from its report and registry ----
    let report = &outcome.report;
    let blocks = report.max_committed() as f64;
    let txns = report.txns_committed as f64;
    let secs = report.elapsed.as_secs_f64();
    let last_round = report
        .commit_logs
        .iter()
        .flatten()
        .map(|u| u.round().as_u64())
        .max()
        .unwrap_or(0) as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let ms = |us: u64| us as f64 / 1e3;
    let server_ack = |level: u64| hist(outcome, names::ack_level_name(level));
    let server_ack_all = {
        // Sample-weighted midpoint of the two per-level server medians.
        let (a, b) = (
            server_ack(workload.ack_levels[0]),
            server_ack(workload.ack_levels[1]),
        );
        per(
            ms(a.p50) * a.count as f64 + ms(b.p50) * b.count as f64,
            (a.count + b.count) as f64,
        )
    };
    let recording = !report.metrics.is_empty();
    let whole_run = stats::sorted(all.iter().filter_map(|s| latency_ms(s)).collect());

    let traced = vec![
        ("loadgen.failed_share", per(failed as f64, attempted as f64)),
        ("loadgen.ack_samples", ack.len() as f64),
        ("loadgen.ack_strong_samples", ack_strong_samples as f64),
        ("loadgen.ack_tail_ms", tail_ms),
        ("loadgen.ack_tail_pct", tail_pct),
        ("loadgen.late_p50_ms", pct(&late, 50.0)),
        ("loadgen.late_p99_ms", pct(&late, 99.0)),
        ("loadgen.submit_write_p50_us", pct(&submit_write, 50.0)),
        ("loadgen.busy_retries", f64::from(busy_retries)),
        (
            "loadgen.goodput_first5s_tps",
            acks_between(start, start + edge) / edge.as_secs_f64(),
        ),
        (
            "loadgen.goodput_last5s_tps",
            acks_between(end - edge, end) / edge.as_secs_f64(),
        ),
        ("loadgen.goodput_traced_tps", goodput),
        // Client-side minus server-side median, like for like: both over
        // every request of the run, request-weighted. What is left is
        // gateway, socket and generator — and the server's own clock, which
        // only ticks once per engine step.
        (
            "loadgen.gateway_p50_ms",
            if recording {
                pct(&whole_run, 50.0) - server_ack_all
            } else {
                0.0
            },
        ),
        (
            "network.frames_per_block",
            per(counter(outcome, names::NET_FRAMES_SENT), blocks),
        ),
        (
            "network.bytes_per_txn",
            per(counter(outcome, names::NET_FRAME_BYTES), txns),
        ),
        (
            "network.flush_p50_us",
            us(hist(outcome, names::PHASE_NET_FLUSH_NS).p50),
        ),
        (
            "network.flush_p99_us",
            us(hist(outcome, names::PHASE_NET_FLUSH_NS).p99),
        ),
        (
            "network.client_requests",
            counter(outcome, names::CLIENT_REQUESTS),
        ),
        (
            "sim.on_envelope_p50_us",
            us(hist(outcome, names::PHASE_ON_ENVELOPE_NS).p50),
        ),
        (
            "sim.on_envelope_p99_us",
            us(hist(outcome, names::PHASE_ON_ENVELOPE_NS).p99),
        ),
        (
            "sim.decode_p50_us",
            us(hist(outcome, names::PHASE_DECODE_NS).p50),
        ),
        (
            "sim.route_p50_us",
            us(hist(outcome, names::PHASE_ROUTE_NS).p50),
        ),
        ("fbft.rounds_per_s", per(last_round, secs)),
        ("fbft.txns_per_block", per(txns, blocks)),
        (
            "fbft.qc_p50_ms",
            ms(hist(outcome, names::CONSENSUS_QC_US).p50),
        ),
        (
            "fbft.round_commit_p50_ms",
            ms(hist(outcome, names::ROUND_COMMIT_US).p50),
        ),
        (
            "fbft.ticks",
            hist(outcome, names::PHASE_ON_TICK_NS).count as f64,
        ),
        ("fbft.blocks_committed", blocks),
        (
            "core.persist_wait_p50_us",
            us(hist(outcome, names::PHASE_PERSIST_WAIT_NS).p50),
        ),
        (
            "core.wal_fsyncs_per_block",
            per(report.wal_fsyncs as f64, blocks),
        ),
        (
            "core.wal_group_size_p50",
            hist(outcome, names::WAL_GROUP_SIZE).p50 as f64,
        ),
        (
            "core.walk_steps_per_vote",
            per(
                report.walk_steps as f64,
                counter(outcome, names::CONSENSUS_VOTES_CAST),
            ),
        ),
        (
            "core.ack_std_p50_ms",
            ms(server_ack(workload.ack_levels[0]).p50),
        ),
        (
            "core.ack_strong_p50_ms",
            ms(server_ack(workload.ack_levels[1]).p50),
        ),
        (
            "crypto.batch_verify_p50_us",
            us(hist(outcome, names::PHASE_BATCH_VERIFY_NS).p50),
        ),
        (
            "crypto.sig_verifications_per_block",
            per(report.sig_verifications as f64, blocks),
        ),
        (
            "crypto.batch_verify_calls_per_block",
            per(report.batch_verify_calls as f64, blocks),
        ),
    ];

    // ---- output checks ----
    let mut violations = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            violations.push(what);
        }
    };
    check(report.agreement(), "committed chains disagree".into());
    check(
        report.commit_strength_monotone(),
        "a commit's strength went down".into(),
    );
    check(
        report.safety_violations == 0,
        format!(
            "{} replicas saw a safety violation",
            report.safety_violations
        ),
    );
    let under_strength = all
        .iter()
        .filter(|s| s.acked.is_some() && s.strength < s.ack_at)
        .count();
    check(
        under_strength == 0,
        format!("{under_strength} acks below their ack_at"),
    );
    let sum = |f: fn(&crate::loadgen::ClientLog) -> u64| outcome.clients.iter().map(f).sum::<u64>();
    check(
        sum(|c| c.double_acks) == 0,
        format!("{} transactions acked twice", sum(|c| c.double_acks)),
    );
    check(
        sum(|c| c.unknown_acks) == 0,
        format!(
            "{} acks for transactions never sent",
            sum(|c| c.unknown_acks)
        ),
    );
    check(
        sum(|c| c.duplicates) == 0,
        format!("{} unexpected Duplicate verdicts", sum(|c| c.duplicates)),
    );
    let acked = all.iter().filter(|s| s.acked.is_some()).count() as u64;
    check(
        acked <= report.txns_committed,
        format!(
            "{acked} acks but only {} transactions committed",
            report.txns_committed
        ),
    );
    check(
        !outcome.clients.iter().any(|c| c.hung_up),
        "the cluster hung up on a client".into(),
    );
    let last_send = all.iter().map(|s| s.write_start).max().unwrap_or_default();
    check(
        Duration::from_micros(report.elapsed.as_micros()) >= last_send,
        format!(
            "the cluster stopped at {} before the clients' last send at {last_send:?}",
            report.elapsed
        ),
    );
    check(setup_s.is_some(), "most set-ups never saw an ack".into());
    check(attempted > 0, "no request was due in the window".into());
    check(
        failed == 0,
        format!("{failed} of {attempted} requests failed"),
    );
    if let Offer::Open { .. } = workload.offer {
        let late_p50 = pct(&late, 50.0);
        check(
            late_p50 <= MAX_LATE_P50_MS,
            format!(
                "the schedule slipped: median lateness {late_p50:.3} ms > {MAX_LATE_P50_MS} ms"
            ),
        );
    }

    Measured {
        attempted,
        failed,
        violations,
        end_to_end,
        traced,
    }
}

/// An open-loop run fails when the *median* request went on the wire
/// later than this after it was due: the schedule as a whole slipped and
/// the run did not offer the load it claims. Lateness is always charged
/// to the request (latency runs from the due time), so a late tail
/// inflates numbers rather than hiding anything; `loadgen.late_p99_ms`
/// reports it, and above 5 ms it marks a run whose `loadgen.ack_tail_ms`
/// carries generator delay. Failing on that 99th percentile, as first
/// specified, rejected 1 of 30 runs (13.6 ms, once) for what two cores
/// shared with a dozen cluster threads do to a sleeping thread.
pub const MAX_LATE_P50_MS: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn span(acked: bool, ack_at: u64, strength: u64) -> Span {
        Span {
            due: Duration::ZERO,
            write_start: Duration::ZERO,
            write_end: None,
            acked: acked.then_some(Duration::from_millis(1)),
            ack_at,
            strength,
            busy_retries: 0,
        }
    }

    #[test]
    fn failed_counts_unanswered_and_under_strength_requests() {
        let spans = [
            span(true, 1, 1),
            span(true, 2, 2),
            span(true, 1, 2),  // stronger than asked: fine
            span(true, 2, 1),  // under strength
            span(false, 1, 0), // lost, unresolved, or refused to the end
        ];
        assert_eq!(count_failed(&spans), 2);
        assert_eq!(per(2.0, spans.len() as f64), 0.4);
        assert_eq!(per(0.0, 0.0), 0.0, "no requests, no share");
    }

    #[test]
    fn typical_second_reads_mid_window_however_requests_crowd() {
        // Latency is 10 ms x (second + 1); second 0 holds 1000 requests,
        // the other four hold 10 each: 96 % of all requests saw 10 ms.
        let spans: Vec<Span> = (0..5u64)
            .flat_map(|second| {
                let count = if second == 0 { 1000 } else { 10 };
                (0..count).map(move |_| {
                    let due = Duration::from_secs(3 + second);
                    Span {
                        due,
                        acked: Some(due + Duration::from_millis(10 * (second + 1))),
                        ..span(false, 1, 1)
                    }
                })
            })
            .collect();
        let refs: Vec<&Span> = spans.iter().collect();
        let start = Duration::from_secs(3);
        assert_eq!(
            typical_second(&refs, start, 50.0),
            30.0,
            "the middle second"
        );
        let all = stats::sorted(refs.iter().filter_map(|s| latency_ms(s)).collect());
        assert_eq!(
            stats::percentile(&all, 50.0),
            Some(10.0),
            "the crowded second"
        );
        assert_eq!(typical_second(&[], start, 50.0), 0.0);
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END
            .iter()
            .chain(&TRACED)
            .chain(&crate::probes::PROBES)
            .chain(std::iter::once(&TRACE_OVERHEAD));
        for def in all {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
