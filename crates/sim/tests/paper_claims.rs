//! The paper's results, checked on deterministic simulator runs and pinned
//! to the committed `RESULTS.md` at the repository root.
//!
//! Every row is built from runs, and the claim it stands for is `assert!`ed
//! as it is built: §3.2's one integer per vote, Fig 7's latency to an
//! x-strong commit, Fig 8's reachable strength `2f − t`, §3.4's interval
//! sets against the marker, and Appendix D's "carries over unchanged" as
//! SFT-Streamlet and SFT-DiemBFT side by side. The rows are then rendered
//! as markdown and compared with `RESULTS.md`, so the exact run counters
//! are pinned too. On any difference the fresh rendering is written to
//! `$CARGO_TARGET_TMPDIR/RESULTS.md` and the test fails, naming the first
//! differing line and the `cp` command that re-pins the file.
//!
//! ```text
//! cargo test -q -p sft-sim --test paper_claims
//! ```

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use sft_core::{ProtocolConfig, ReplicaEngine};
use sft_crypto::{HashValue, KeyRegistry};
use sft_network::SimNetwork;
use sft_obs::{names, Recorder, TraceEvent};
use sft_sim::{
    build_fbft_engines, build_streamlet_engines, Behavior, EngineRunner, Protocol, RunPlan,
    SimConfig, SimReport, SimTransport,
};
use sft_types::{
    Encode, EndorseInfo, EndorseMode, Round, RoundIntervalSet, SimDuration, StrongVote, VoteData,
};

const PROTOCOLS: [Protocol; 2] = [Protocol::Streamlet, Protocol::Fbft];

/// Epochs (Streamlet) or rounds (SFT-DiemBFT) of every run but the
/// partitioned run-counter row.
const EPOCHS: u64 = 10;

const HEADER: &str = "\
# Results

The paper's claims as this repository reproduces them. Generated by
`crates/sim/tests/paper_claims.rs` from deterministic simulator runs
(virtual time, seeded keys), so every number is exact and the same on
every machine. Each claim is `assert!`ed while its row is built, and
`cargo test` fails when this file and a fresh rendering differ: the
failure names the first differing line and the `cp` command that re-pins
the file.

Unless a row says otherwise: n = 3f + 1, δ = 100 ms, 10 epochs or rounds,
the paper's workload shape (1000 × 450 B synthetic blocks) and marker
strong-votes. Faulty replicas take the highest ids, so the first rounds'
leaders are honest. \"streamlet\" is SFT-Streamlet (Appendix D), \"fbft\"
is SFT-DiemBFT (§2–§3).
";

fn protocol_name(protocol: Protocol) -> &'static str {
    match protocol {
        Protocol::Streamlet => "streamlet",
        Protocol::Fbft => "fbft",
    }
}

/// `t` replicas with `behavior`, from the highest id down.
fn with_faulty(mut config: SimConfig, behavior: Behavior, t: usize) -> SimConfig {
    for id in config.n - t..config.n {
        config = config.with_behavior(id as u16, behavior);
    }
    config
}

fn honest(config: &SimConfig) -> impl Iterator<Item = usize> + '_ {
    (0..config.n).filter(|&i| config.behaviors[i] == Behavior::Honest)
}

/// What every run must show before its numbers mean anything: agreement,
/// a commit, and per-block strength that never falls.
fn check(report: &SimReport, row: &str) {
    assert!(
        report.agreement() && report.safety_violations == 0,
        "{row}: replicas disagree"
    );
    assert!(report.max_committed() > 0, "{row}: nothing committed");
    assert!(
        report.commit_strength_monotone(),
        "{row}: commit strength regressed"
    );
}

/// A markdown table.
fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let mut out = line(&header);
    out += &line(&vec!["---".to_string(); header.len()]);
    for row in rows {
        out += &line(row);
    }
    out
}

fn list(values: impl IntoIterator<Item = String>) -> String {
    values.into_iter().collect::<Vec<_>>().join(", ")
}

/// §3.2: a strong vote is a vanilla vote plus one integer.
fn vote_sizes() -> String {
    let key = KeyRegistry::deterministic(4)
        .key_pair(0)
        .expect("replica 0 has a key");
    let data = VoteData::new(
        HashValue::of(b"B9"),
        Round::new(9),
        HashValue::of(b"B8"),
        Round::new(8),
    );
    let mut holed = RoundIntervalSet::full_range(Round::new(1), Round::new(9));
    holed.subtract(Round::new(4), Round::new(6));
    let size = |info| StrongVote::new(data, info, &key).encoded_len();
    let vanilla = size(EndorseInfo::None);
    let marker = size(EndorseInfo::Marker(Round::new(3)));
    let intervals = size(EndorseInfo::Intervals(holed));
    assert_eq!(
        marker - vanilla,
        8,
        "§3.2 vote sizes, marker row: a marker must cost exactly one 8-byte round"
    );
    let rows: Vec<Vec<String>> = [
        ("vanilla (no endorsement)", vanilla),
        ("marker (§3.2)", marker),
        ("intervals {[1, 3], [7, 9]} (§3.4)", intervals),
    ]
    .into_iter()
    .map(|(name, bytes)| {
        vec![
            name.to_string(),
            bytes.to_string(),
            format!("+{}", bytes - vanilla),
        ]
    })
    .collect();
    format!(
        "## §3.2 — the cost of a strong vote\n\n\
         One signed vote's encoding:\n\n{}\n\
         Whole runs, vanilla votes against marker strong-votes: the marker adds\n\
         no message and exactly 8 B to every vote send, and in SFT-DiemBFT 8 B\n\
         more per certificate member a proposal carries.\n\n",
        table(&["endorsement", "vote bytes", "over vanilla"], &rows)
    )
}

/// §3.2 over whole runs, and the message complexity of the same runs.
fn traffic() -> String {
    let mut cost = Vec::new();
    let mut complexity = Vec::new();
    for protocol in PROTOCOLS {
        for n in [4usize, 7, 10, 31] {
            let row = format!("§3.2 traffic, {} n={n}", protocol_name(protocol));
            let run = |mode| {
                let report = SimConfig::new(n, EPOCHS)
                    .with_protocol(protocol)
                    .with_endorse_mode(mode)
                    .with_recording(true)
                    .run();
                check(&report, &row);
                report
            };
            let vanilla = run(EndorseMode::Vanilla);
            let marker = run(EndorseMode::Marker);
            let sends = |report: &SimReport, kind: usize| {
                report.metrics.counter(names::NET_MSGS[kind]).unwrap_or(0)
            };
            let sent_bytes = |report: &SimReport, kind: usize| {
                report.metrics.counter(names::NET_BYTES[kind]).unwrap_or(0)
            };
            let (proposals, votes) = (sends(&marker, 0), sends(&marker, 1));
            assert_eq!(
                vanilla.net.messages, marker.net.messages,
                "{row}: the marker must add no message"
            );
            assert_eq!(
                sends(&vanilla, 1),
                votes,
                "{row}: the marker must add no vote"
            );
            assert_eq!(
                sent_bytes(&marker, 1) - sent_bytes(&vanilla, 1),
                8 * votes,
                "{row}: the marker must add exactly 8 B per vote send"
            );
            // SFT-DiemBFT's proposals also carry the marker of every member
            // of the certificate they ship: 8 B per member, at most n
            // members per proposal send.
            let member_bytes = sent_bytes(&marker, 0) - sent_bytes(&vanilla, 0);
            assert!(
                member_bytes % 8 == 0
                    && member_bytes <= 8 * n as u64 * proposals
                    && (protocol == Protocol::Fbft || member_bytes == 0),
                "{row}: {member_bytes} B of markers in proposals"
            );
            assert_eq!(
                marker.net.bytes - vanilla.net.bytes,
                8 * votes + member_bytes,
                "{row}: the marker must add bytes only to votes and certificates"
            );
            // Every proposal is a broadcast and every message a proposal or
            // a vote. Streamlet broadcasts all n votes of every epoch;
            // SFT-DiemBFT sends each to the next leader, which keeps its
            // own, so at most n − 1 go out per proposed round (fewer if the
            // run ended mid-round): 2(n − 1) messages a round, linear in n.
            let peers = (n - 1) as u64;
            let rounds = proposals / peers;
            assert_eq!(
                (proposals % peers, marker.net.messages),
                (0, proposals + votes),
                "{row}: every message must be a proposal broadcast or a vote"
            );
            match protocol {
                Protocol::Streamlet => assert_eq!(
                    votes,
                    rounds * n as u64 * peers,
                    "{row}: {votes} vote sends over {rounds} epochs"
                ),
                Protocol::Fbft => assert!(
                    votes <= rounds * peers && marker.net.messages <= 2 * peers * rounds,
                    "{row}: {votes} vote sends over {rounds} rounds"
                ),
            }
            cost.push(vec![
                protocol_name(protocol).to_string(),
                n.to_string(),
                vanilla.net.messages.to_string(),
                marker.net.messages.to_string(),
                votes.to_string(),
                vanilla.net.bytes.to_string(),
                marker.net.bytes.to_string(),
                format!(
                    "+{}",
                    (sent_bytes(&marker, 1) - sent_bytes(&vanilla, 1)) / votes
                ),
            ]);
            let blocks = marker.max_committed() as u64;
            complexity.push(vec![
                protocol_name(protocol).to_string(),
                n.to_string(),
                rounds.to_string(),
                proposals.to_string(),
                votes.to_string(),
                marker.net.messages.to_string(),
                blocks.to_string(),
                format!("{:.1}", marker.net.messages as f64 / blocks as f64),
            ]);
        }
    }
    format!(
        "{}\n\
         ## Message complexity\n\n\
         SFT-DiemBFT sends each strong-vote to the next round's leader, and the\n\
         certificate that leader forms carries every member's marker, so a round\n\
         costs n − 1 proposal sends and n − 1 vote sends: 2(n − 1), linear in n,\n\
         as the abstract claims. SFT-Streamlet broadcasts every vote (Appendix\n\
         D's notarization counts them at every replica), so an epoch costs\n\
         n − 1 proposal sends and n(n − 1) vote sends: quadratic. Either way SFT\n\
         adds no message to the base protocol's count (above).\n\n{}\n",
        table(
            &[
                "protocol",
                "n",
                "messages, vanilla",
                "messages, marker",
                "vote sends",
                "bytes, vanilla",
                "bytes, marker",
                "B per vote send",
            ],
            &cost
        ),
        table(
            &[
                "protocol",
                "n",
                "rounds proposed",
                "proposal sends",
                "vote sends",
                "messages",
                "committed blocks",
                "messages per block",
            ],
            &complexity
        ),
    )
}

/// The first instant any replica saw each round's proposal: a leader sees
/// its own proposal the instant it sends it, so this is the proposal time.
#[derive(Default)]
struct ProposalClock(Mutex<BTreeMap<u64, u64>>);

impl Recorder for ProposalClock {
    fn enabled(&self) -> bool {
        true
    }

    fn trace(&self, event: &TraceEvent<'_>) {
        if event.name != names::EV_PROPOSAL {
            return;
        }
        let Some(&(_, round)) = event.fields.iter().find(|(key, _)| *key == "round") else {
            return;
        };
        let mut seen = self.0.lock().expect("proposal clock lock");
        let at = seen.entry(round).or_insert(event.ts_us);
        *at = (*at).min(event.ts_us);
    }
}

/// Runs `engines` the way [`SimConfig::run`] does, with a [`ProposalClock`]
/// attached.
fn run_clocked<E: ReplicaEngine>(
    config: &SimConfig,
    engines: Vec<E>,
    plan: RunPlan,
) -> (SimReport, BTreeMap<u64, u64>) {
    let clock = Arc::new(ProposalClock::default());
    let mut runner = EngineRunner::new(
        engines,
        config.behaviors.clone(),
        SimTransport::new(SimNetwork::new(config.delay), config.n),
        config.runner_config(plan),
    );
    runner.set_recorder(clock.clone());
    let report = runner.run().expect("simulated WALs are in memory");
    let proposed = std::mem::take(&mut *clock.0.lock().expect("proposal clock lock"));
    (report, proposed)
}

/// Latency from proposal to x-strong commit, in δ, for x = f…2f: for the
/// first block each honest replica grades x-strong, the latency at the
/// last honest replica to grade it. Streamlet's replicas must all see the
/// same latency; an SFT-DiemBFT leader learns its commits one hop before
/// the rest. `None` means no block ever reached x.
fn strong_latencies(config: &SimConfig, row: &str) -> Vec<Option<u64>> {
    let (report, proposed) = match config.protocol {
        Protocol::Streamlet => run_clocked(
            config,
            build_streamlet_engines(config, config.delay * 2),
            RunPlan::UntilQuiescent,
        ),
        Protocol::Fbft => run_clocked(
            config,
            build_fbft_engines(config, config.base_timeout()),
            RunPlan::PastRound(Round::new(config.epochs)),
        ),
    };
    check(&report, row);
    let cfg = ProtocolConfig::for_replicas(config.n);
    let delta = config.delay.as_micros();
    (cfg.f() as u64..=cfg.max_strength())
        .map(|x| {
            let per_replica: Vec<Option<u64>> = honest(config)
                .map(|i| {
                    let (at, update) = report.timelines[i]
                        .iter()
                        .find(|(_, update)| update.level() >= x)?;
                    let round = update.round().as_u64();
                    let sent = proposed
                        .get(&round)
                        .unwrap_or_else(|| panic!("{row}: round {round} never proposed"));
                    Some(at.as_micros() - sent)
                })
                .collect();
            assert!(
                config.protocol == Protocol::Fbft || per_replica.windows(2).all(|w| w[0] == w[1]),
                "{row}, x={x}: honest replicas disagree on the latency: {per_replica:?}"
            );
            let last = if per_replica.contains(&None) {
                None
            } else {
                per_replica.iter().copied().max().flatten()
            };
            last.map(|us| {
                assert_eq!(us % delta, 0, "{row}, x={x}: {us} µs is not a whole δ");
                us / delta
            })
        })
        .collect()
}

/// Fig 7: with every replica voting, each strength level arrives with the
/// standard commit — 4δ after the proposal in Streamlet, 5δ in SFT-DiemBFT,
/// where the commit reaches the last replica inside the next proposal; one
/// withholder costs the top level and nothing else.
fn fig7() -> String {
    let mut rows = Vec::new();
    for protocol in PROTOCOLS {
        for n in [4usize, 7, 10] {
            let f = ProtocolConfig::for_replicas(n).f() as u64;
            let cases = [50u64, 100, 200]
                .map(|ms| (ms, 0usize))
                .into_iter()
                .chain([(100, 1)]);
            for (ms, withholders) in cases {
                let config = with_faulty(
                    SimConfig::new(n, 8)
                        .with_protocol(protocol)
                        .with_delay(SimDuration::from_millis(ms)),
                    Behavior::WithholdVote,
                    withholders,
                );
                let row = format!(
                    "fig7 {} n={n} δ={ms}ms withholders={withholders}",
                    protocol_name(protocol)
                );
                let latencies = strong_latencies(&config, &row);
                let commit = match protocol {
                    Protocol::Streamlet => 4,
                    Protocol::Fbft => 5,
                };
                for (x, latency) in (f..).zip(&latencies) {
                    let expected = (x + (withholders as u64) < 2 * f + 1).then_some(commit);
                    assert_eq!(
                        *latency, expected,
                        "{row}, x={x}: latency to x-strong (in δ)"
                    );
                }
                rows.push(vec![
                    protocol_name(protocol).to_string(),
                    n.to_string(),
                    f.to_string(),
                    ms.to_string(),
                    if withholders == 0 {
                        "none".to_string()
                    } else {
                        format!("{withholders} withhold")
                    },
                    list(
                        latencies
                            .iter()
                            .map(|l| l.map_or("never".to_string(), |d| format!("{d}δ"))),
                    ),
                ]);
            }
        }
    }
    format!(
        "## Fig 7 — latency to an x-strong commit\n\n\
         From a block's proposal until the last honest replica grades it\n\
         x-strong, for the first block to reach x, x = f … 2f. In Streamlet\n\
         every honest replica sees the same latency. In SFT-DiemBFT the votes\n\
         go to the next leader, which commits at 4δ; the others grade from the\n\
         certificate in its next proposal, one hop later. With every replica\n\
         voting, strengthening costs no latency over the standard commit\n\
         (x = f). One vote withholder leaves levels up to 2f − 1 at the commit\n\
         latency, and 2f never arrives.\n\n{}\n",
        table(
            &[
                "protocol",
                "n",
                "f",
                "δ (ms)",
                "faulty",
                "latency to x-strong, x = f … 2f"
            ],
            &rows
        )
    )
}

/// Fig 8: the highest level every honest replica reaches with `t` faulty
/// replicas is `2f − t`, for both protocols and both ways of not voting.
fn fig8() -> String {
    let rows = std::thread::scope(|scope| {
        let per_n: Vec<_> = [4usize, 7, 10, 31]
            .map(|n| scope.spawn(move || fig8_rows(n)))
            .into_iter()
            .collect();
        per_n.into_iter().flat_map(join).collect::<Vec<_>>()
    });
    format!(
        "## Fig 8 — reachable strength vs faulty replicas\n\n\
         The highest level every honest replica reaches with t faulty replicas\n\
         is 2f − t, the same for both protocols (Appendix D). t runs over\n\
         0 … f, thinned to 0, 1, f/2 and f at n = 31.\n\n{}\n",
        table(
            &["protocol", "n", "f", "faulty", "t", "max strength"],
            &rows
        )
    )
}

/// Fig 8's rows for one `n`.
fn fig8_rows(n: usize) -> Vec<Vec<String>> {
    let f = ProtocolConfig::for_replicas(n).f();
    let faulty: Vec<usize> = if n > 10 {
        vec![0, 1, f / 2, f]
    } else {
        (0..=f).collect()
    };
    let mut rows = Vec::new();
    for (behavior, kind) in [
        (Behavior::WithholdVote, "withhold"),
        (Behavior::Silent, "silent"),
    ] {
        let mut per_protocol = Vec::new();
        for protocol in PROTOCOLS {
            let levels: Vec<u64> = faulty
                .iter()
                .map(|&t| {
                    let row = format!("fig8 {} n={n} {kind} t={t}", protocol_name(protocol));
                    let config = with_faulty(
                        SimConfig::new(n, EPOCHS).with_protocol(protocol),
                        behavior,
                        t,
                    );
                    let honest: Vec<usize> = honest(&config).collect();
                    let report = config.run();
                    check(&report, &row);
                    let levels: Vec<Option<u64>> = honest
                        .iter()
                        .map(|&i| report.commit_logs[i].iter().map(|u| u.level()).max())
                        .collect();
                    assert!(
                        levels.iter().all(|&l| l == Some((2 * f - t) as u64)),
                        "{row}: every honest replica's max strength must be 2f − t = {}, \
                         got {levels:?}",
                        2 * f - t
                    );
                    levels[0].unwrap_or(0)
                })
                .collect();
            rows.push(vec![
                protocol_name(protocol).to_string(),
                n.to_string(),
                f.to_string(),
                kind.to_string(),
                list(faulty.iter().map(usize::to_string)),
                list(levels.iter().map(u64::to_string)),
            ]);
            per_protocol.push(levels);
        }
        assert_eq!(
            per_protocol[0], per_protocol[1],
            "fig8 n={n} {kind}: Appendix D — both protocols must reach the same levels"
        );
    }
    rows
}

/// A scoped thread's result, its panic (a failed claim) passed on as is.
fn join<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// §3.4: under an equivocating replica, interval sets endorse at least as
/// much as the marker, at a measured price in bytes and walk steps.
fn intervals() -> String {
    let mut rows = Vec::new();
    for protocol in PROTOCOLS {
        for n in [4usize, 7] {
            let row = format!("§3.4 {} n={n}", protocol_name(protocol));
            let run = |mode| {
                let report = SimConfig::new(n, 12)
                    .with_protocol(protocol)
                    .with_behavior(0, Behavior::Equivocate)
                    .with_endorse_mode(mode)
                    .run();
                check(&report, &row);
                report
            };
            let marker = run(EndorseMode::Marker);
            let interval = run(EndorseMode::Interval);
            assert!(
                interval.max_commit_level() >= marker.max_commit_level(),
                "{row}: intervals must endorse at least what the marker does"
            );
            rows.push(vec![
                protocol_name(protocol).to_string(),
                n.to_string(),
                marker.max_commit_level().to_string(),
                interval.max_commit_level().to_string(),
                marker.net.bytes.to_string(),
                interval.net.bytes.to_string(),
                marker.walk_steps.to_string(),
                interval.walk_steps.to_string(),
            ]);
        }
    }
    format!(
        "## §3.4 — interval sets vs the marker under equivocation\n\n\
         Replica 0 equivocates (conflicting proposals when it leads, a forged\n\
         zero marker on every vote); 12 epochs or rounds. Interval sets must\n\
         reach at least the marker's level.\n\n{}\n",
        table(
            &[
                "protocol",
                "n",
                "level, marker",
                "level, intervals",
                "bytes, marker",
                "bytes, intervals",
                "walk steps, marker",
                "walk steps, intervals",
            ],
            &rows
        )
    )
}

/// The counters of the batched n = 4 honest run and the partitioned
/// 12-round one, pinned exactly.
fn run_counters() -> String {
    let mut rows = Vec::new();
    for (name, epochs, partition) in [
        ("n = 4, 10 epochs", 10, false),
        ("n = 4, 12 epochs, partition", 12, true),
    ] {
        for protocol in PROTOCOLS {
            let row = format!("run counters {}: {name}", protocol_name(protocol));
            let mut config = SimConfig::new(4, epochs)
                .with_protocol(protocol)
                .with_batch_size(256);
            if partition {
                config = config
                    .with_behavior(0, Behavior::Equivocate)
                    .with_partitioned_straggler();
            }
            let r = config.run();
            check(&r, &row);
            if partition {
                assert!(
                    r.sync_blocks_fetched > 0 && r.recovered_replicas > 0,
                    "{row}: the partitioned replica must recover through block sync"
                );
            }
            rows.push(vec![
                protocol_name(protocol).to_string(),
                name.to_string(),
                r.first_commit_at(0)
                    .map_or("never".to_string(), |t| t.as_micros().to_string()),
                format!("{:.3}", r.txns_per_sec()),
                r.net.messages.to_string(),
                r.net.bytes.to_string(),
                r.net.dropped.to_string(),
                r.sync_requests.to_string(),
                r.sync_blocks_fetched.to_string(),
                r.recovered_replicas.to_string(),
                r.walk_steps.to_string(),
                r.sig_verifications.to_string(),
                r.batch_verify_calls.to_string(),
            ]);
        }
    }
    format!(
        "## Run counters\n\n\
         Two headline runs (batched client workload, 256 transactions\n\
         per batch), pinned exactly: any change to what a run\n\
         sends, verifies or syncs shows up here. `partition` cuts replica 3 off\n\
         until mid-run while replica 0 equivocates.\n\n{}",
        table(
            &[
                "protocol",
                "run",
                "first commit (µs)",
                "txns/s",
                "messages",
                "bytes",
                "dropped",
                "sync requests",
                "sync blocks",
                "recovered",
                "walk steps",
                "sig verifications",
                "batch verifies",
            ],
            &rows
        )
    )
}

#[test]
fn paper_claims_match_results_md() {
    let sections: [fn() -> String; 6] = [vote_sizes, traffic, fig7, fig8, intervals, run_counters];
    let fresh = std::thread::scope(|scope| {
        let running: Vec<_> = sections.iter().map(|s| scope.spawn(s)).collect();
        running
            .into_iter()
            .map(join)
            .fold(format!("{HEADER}\n"), |doc, section| doc + &section)
    });

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/sim sits two levels below the workspace root");
    let pinned_path = root.join("RESULTS.md");
    let pinned = std::fs::read_to_string(&pinned_path).unwrap_or_default();
    if pinned == fresh {
        return;
    }
    let fresh_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("RESULTS.md");
    std::fs::write(&fresh_path, &fresh).expect("write the fresh RESULTS.md");
    let (old, new): (Vec<&str>, Vec<&str>) = (pinned.lines().collect(), fresh.lines().collect());
    let last = old.len().max(new.len());
    let at = (0..last)
        .find(|&i| old.get(i) != new.get(i))
        .unwrap_or(last);
    let line = |lines: &[&str]| {
        lines
            .get(at)
            .copied()
            .unwrap_or("<end of file>")
            .to_string()
    };
    panic!(
        "RESULTS.md differs from this run at line {}:\n  \
         committed: {}\n  \
         this run:  {}\n\
         If the change is intended, re-pin with:\n  \
         cp {} {}",
        at + 1,
        line(&old),
        line(&new),
        fresh_path.display(),
        pinned_path.display()
    );
}
