//! End-to-end SFT-DiemBFT runs: the acceptance scenarios for the round-based
//! main protocol, executed through the full replica + pacemaker + network
//! stack. Mirrors `consensus.rs` (the Streamlet suite) so the two protocols
//! are held to the same bar: agreement under every Byzantine behavior,
//! monotone commit strength, and levels matching
//! `ProtocolConfig::strength_of`.

use sft_core::ProtocolConfig;
use sft_sim::{Behavior, Protocol, SimConfig};
use sft_types::SimTime;

fn fbft(n: usize, rounds: u64) -> SimConfig {
    SimConfig::new(n, rounds).with_protocol(Protocol::Fbft)
}

/// Shared assertions: agreement, no safety violations, and per-block
/// commit-strength monotonicity.
fn assert_sound(report: &sft_sim::SimReport) {
    assert!(
        report.agreement(),
        "committed chains must be prefix-compatible"
    );
    assert_eq!(report.safety_violations, 0);
    assert!(
        report.commit_strength_monotone(),
        "per-block strength levels only climb"
    );
}

/// All-honest n = 4 (f = 1): every round certifies on the 2δ cadence, the
/// 2-chain rule commits continuously, and with all n voters endorsing,
/// commits reach the 2f ceiling — the acceptance criterion for f = 1.
#[test]
fn four_honest_replicas_reach_the_2f_ceiling() {
    let cfg = ProtocolConfig::for_replicas(4);
    let report = fbft(4, 8).run();
    assert_sound(&report);
    assert!(
        report.max_committed() >= 5,
        "8 rounds commit at least 5 blocks, got {}",
        report.max_committed()
    );
    for log in &report.commit_logs {
        assert!(!log.is_empty(), "every replica commits");
        for update in log {
            assert!(update.level() >= cfg.f() as u64);
            assert!(update.level() <= cfg.max_strength());
        }
        assert!(
            log.iter().any(|u| u.level() == cfg.max_strength()),
            "all-honest runs strengthen commits to 2f"
        );
    }
    // First commit: round 1 certifies at 2δ, and round 2 at 4δ closes the
    // 2-chain at round 3's leader (replica 3), which collects the round-2
    // votes — the same 400 ms Streamlet needs for its first commit. Every
    // other replica learns it one hop later, from that leader's proposal.
    assert_eq!(report.first_commit_at(3), Some(SimTime::from_millis(400)));
    assert_eq!(report.first_commit_at(0), Some(SimTime::from_millis(500)));
}

/// All-honest n = 7 (f = 2): the acceptance criterion for f = 2 — commits
/// climb the whole strength ladder to 2f = 4.
#[test]
fn seven_honest_replicas_reach_the_2f_ceiling() {
    let cfg = ProtocolConfig::for_replicas(7);
    let report = fbft(7, 10).run();
    assert_sound(&report);
    assert_eq!(report.max_commit_level(), cfg.max_strength());
    assert_eq!(cfg.max_strength(), 4);
}

/// With f vote-withholding replicas, quorums are exactly 2f + 1, so the
/// protocol stays live but no commit can climb above the standard level f
/// (= `strength_of(2f + 1)`): the strengthened quorum `f + x + 1` for
/// `x > f` is out of reach.
#[test]
fn withheld_votes_cap_commit_strength_at_f() {
    for (n, byz) in [(4usize, &[3u16][..]), (7, &[5, 6][..])] {
        let cfg = ProtocolConfig::for_replicas(n);
        let mut config = fbft(n, 8);
        for &id in byz {
            config = config.with_behavior(id, Behavior::WithholdVote);
        }
        let report = config.run();
        assert_sound(&report);
        assert!(report.max_committed() >= 4, "liveness with f withholders");
        assert_eq!(
            Some(report.max_commit_level()),
            cfg.strength_of(cfg.quorum()),
            "n={n}: 2f+1 endorsers confer exactly level f, never more"
        );
    }
}

/// f crashed (silent) replicas: liveness and the level-f cap look the same
/// as withholding from the honest side — except when a silent replica
/// leads, where the round must close by timeout certificate.
#[test]
fn silent_replicas_force_the_timeout_path_but_not_disagreement() {
    for (n, byz) in [(4usize, &[1u16][..]), (7, &[1, 2][..])] {
        let cfg = ProtocolConfig::for_replicas(n);
        let mut config = fbft(n, 8);
        for &id in byz {
            config = config.with_behavior(id, Behavior::Silent);
        }
        let report = config.run();
        assert_sound(&report);
        assert!(report.max_committed() >= 3, "n={n}: liveness with f silent");
        assert_eq!(
            Some(report.max_commit_level()),
            cfg.strength_of(cfg.quorum()),
            "n={n}: standard commits are exactly f-strong"
        );
        // The silent replicas never commit; every live one does.
        for &id in byz {
            assert!(report.chains[id as usize].is_empty());
        }
        // Rounds led by silent replicas closed via TC: the run takes
        // longer than the happy-path 2δ-per-round cadence.
        let happy_path = SimTime::from_millis(8 * 2 * 100);
        assert!(
            report.elapsed > happy_path,
            "n={n}: timeout rounds stretch the run ({})",
            report.elapsed
        );
    }
}

/// A stalling leader is the surgical version of the silent replica: it
/// votes and aggregates honestly (so strength still reaches the ceiling)
/// but never proposes, forcing a TC exactly once per leadership slot.
#[test]
fn stalling_leader_exercises_tc_recovery_without_losing_strength() {
    for (n, byz) in [(4usize, &[2u16][..]), (7, &[2, 4][..])] {
        let cfg = ProtocolConfig::for_replicas(n);
        let mut config = fbft(n, 9);
        for &id in byz {
            config = config.with_behavior(id, Behavior::StallLeader);
        }
        let report = config.run();
        assert_sound(&report);
        assert!(report.max_committed() >= 3, "n={n}: liveness with stallers");
        assert_eq!(
            report.max_commit_level(),
            cfg.max_strength(),
            "n={n}: stallers still vote, so commits reach the 2f ceiling"
        );
        let happy_path = SimTime::from_millis(9 * 2 * 100);
        assert!(report.elapsed > happy_path, "n={n}: TC rounds cost time");
    }
}

/// An equivocating leader splits the replica set across two conflicting
/// proposals. Neither side reaches a quorum, the round closes by TC,
/// honest replicas flag the double votes, and the chain recovers with no
/// disagreement between honest committed chains.
#[test]
fn equivocating_leaders_cannot_split_commits() {
    for (n, byz) in [(4usize, &[0u16][..]), (7, &[2, 5][..])] {
        let mut config = fbft(n, 10);
        for &id in byz {
            config = config.with_behavior(id, Behavior::Equivocate);
        }
        let report = config.run();
        assert_sound(&report);
        assert!(
            report.max_committed() >= 3,
            "n={n}: chain recovers after equivocated rounds"
        );
        assert!(
            report.equivocators_detected >= 1,
            "n={n}: double votes are caught"
        );
        assert!(
            report.max_commit_level() >= ProtocolConfig::for_replicas(n).f() as u64,
            "n={n}: standard commits stay at least f-strong"
        );
    }
}

/// The same configuration always produces the same bytes: chains, logs,
/// traffic, and virtual clock — the fbft driver is as deterministic as the
/// lock-step Streamlet one.
#[test]
fn fbft_runs_are_deterministic() {
    let mk = || {
        fbft(7, 10)
            .with_behavior(2, Behavior::Equivocate)
            .with_behavior(5, Behavior::StallLeader)
            .run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.chains, b.chains);
    assert_eq!(a.commit_logs, b.commit_logs);
    assert_eq!(a.net, b.net);
    assert_eq!(a.elapsed, b.elapsed);
}

/// Interval endorsements (§3.4) plug into the round-based voting path the
/// same way markers do: an all-honest run still reaches the ceiling.
#[test]
fn interval_mode_reaches_the_ceiling_in_fbft() {
    let cfg = ProtocolConfig::for_replicas(4);
    let report = fbft(4, 8)
        .with_endorse_mode(sft_types::EndorseMode::Interval)
        .run();
    assert_sound(&report);
    assert_eq!(report.max_commit_level(), cfg.max_strength());
}

/// Vanilla mode (no endorsement info): the 2-chain commit still works and
/// — because every voter votes for each block directly — an all-honest run
/// still climbs to the ceiling once descendants' *direct* votes arrive;
/// but with a withholder, strength freezes at f exactly as in Streamlet.
#[test]
fn vanilla_mode_commits_without_endorsement_info() {
    let cfg = ProtocolConfig::for_replicas(4);
    let report = fbft(4, 8)
        .with_endorse_mode(sft_types::EndorseMode::Vanilla)
        .with_behavior(3, Behavior::WithholdVote)
        .run();
    assert_sound(&report);
    assert!(report.max_committed() >= 4);
    assert_eq!(Some(report.max_commit_level()), cfg.strength_of(3));
}
