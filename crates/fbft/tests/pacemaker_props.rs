//! Exhaustive small-n property tests for [`Pacemaker`] round advancement.
//!
//! The pacemaker is the liveness-critical heart of SFT-DiemBFT: it decides
//! when a replica moves rounds, and QC- and TC-driven advancement race
//! freely in a real execution (a late QC can arrive after the round's TC
//! and vice versa). Rather than sampling, these tests enumerate *every*
//! event sequence up to a fixed depth over a small alphabet — QCs and TCs
//! for rounds 1..=3 plus deadline ticks — and check each prefix against an
//! independent model. At depth 5 that is 7⁵ = 16 807 sequences, far beyond
//! what hand-picked cases cover.

use sft_fbft::Pacemaker;
use sft_types::{Round, SimDuration, SimTime};

const BASE: SimDuration = SimDuration::from_millis(400);
const MAX_ROUND: u64 = 3;
const DEPTH: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    /// A quorum certificate for a block of this round.
    Qc(u64),
    /// A timeout certificate closing this round.
    Tc(u64),
    /// Time reaches the current round's deadline (if still armed).
    Tick,
}

fn alphabet() -> Vec<Event> {
    let mut events = vec![Event::Tick];
    for r in 1..=MAX_ROUND {
        events.push(Event::Qc(r));
        events.push(Event::Tc(r));
    }
    events
}

/// Reference model: the round is one past the highest certificate applied
/// while it was still fresh — equivalently, `1 + max(certified rounds)`
/// clamped to be monotone; the timer fires whenever time reaches it and
/// re-arms one timeout span ahead (the retransmission discipline).
struct Model {
    round: u64,
}

impl Model {
    fn new() -> Self {
        Self { round: 1 }
    }

    /// Applies a certificate for `r`; returns true if the round advanced.
    fn certificate(&mut self, r: u64) -> bool {
        if r + 1 > self.round {
            self.round = r + 1;
            true
        } else {
            false
        }
    }
}

/// Walks one event sequence, checking the pacemaker against the model
/// after every event.
fn check_sequence(seq: &[Event]) {
    let mut pm = Pacemaker::new(BASE, SimTime::ZERO);
    let mut model = Model::new();
    let mut now = SimTime::ZERO;

    for (step, &event) in seq.iter().enumerate() {
        // Time moves forward a little between events; ticks jump to the
        // deadline so the timer actually fires.
        now += SimDuration::from_millis(1);
        let ctx = || format!("step {step} of {seq:?}");

        match event {
            Event::Qc(r) => {
                let advanced = pm.on_qc_round(Round::new(r), now);
                let expected = model.certificate(r);
                assert_eq!(advanced.is_some(), expected, "{}", ctx());
                if let Some(new_round) = advanced {
                    assert_eq!(new_round.as_u64(), r + 1, "{}", ctx());
                    assert!(
                        pm.deadline() > now,
                        "advancing re-arms the timer ahead of now: {}",
                        ctx()
                    );
                    assert_eq!(
                        pm.current_timeout(),
                        BASE,
                        "QC entry resets the back-off: {}",
                        ctx()
                    );
                }
            }
            Event::Tc(r) => {
                let advanced = pm.on_tc_round(Round::new(r), now);
                let expected = model.certificate(r);
                assert_eq!(advanced.is_some(), expected, "{}", ctx());
                if advanced.is_some() {
                    assert!(pm.deadline() > now, "{}", ctx());
                    assert!(
                        pm.current_timeout() >= BASE * 2,
                        "TC entry grows the back-off: {}",
                        ctx()
                    );
                }
            }
            Event::Tick => {
                let deadline = pm.deadline();
                now = now.max(deadline);
                let fired = pm.on_tick(now);
                assert_eq!(
                    fired.map(|r| r.as_u64()),
                    Some(model.round),
                    "reaching the timer instant always fires for the current round: {}",
                    ctx()
                );
                // Re-armed one timeout span ahead (retransmission), so an
                // immediate re-tick does not fire again.
                assert_eq!(pm.deadline(), now + pm.current_timeout(), "{}", ctx());
                assert!(
                    pm.on_tick(now).is_none(),
                    "re-arm is in the future: {}",
                    ctx()
                );
            }
        }

        assert_eq!(
            pm.current_round().as_u64(),
            model.round,
            "round tracks the model: {}",
            ctx()
        );
        assert!(
            pm.current_timeout() <= BASE * 64,
            "back-off is capped: {}",
            ctx()
        );
    }
}

/// Exhaustively enumerates every event sequence up to [`DEPTH`].
#[test]
fn exhaustive_event_sequences_match_the_model() {
    let alphabet = alphabet();
    let mut sequence = Vec::with_capacity(DEPTH);
    let mut checked = 0u64;

    fn recurse(alphabet: &[Event], sequence: &mut Vec<Event>, depth: usize, checked: &mut u64) {
        check_sequence(sequence);
        *checked += 1;
        if depth == 0 {
            return;
        }
        for &event in alphabet {
            sequence.push(event);
            recurse(alphabet, sequence, depth - 1, checked);
            sequence.pop();
        }
    }

    recurse(&alphabet, &mut sequence, DEPTH, &mut checked);
    // 1 + 7 + 7² + ... + 7⁵ prefixes, each fully checked.
    assert_eq!(
        checked,
        (0..=DEPTH as u32).map(|d| 7u64.pow(d)).sum::<u64>()
    );
}

/// QC-vs-TC races converge: from any reachable state, applying a QC and a
/// TC for the same round in either order lands every replica in the same
/// round (the back-off may differ — only the round is consensus-critical).
#[test]
fn qc_tc_races_converge_from_every_reachable_state() {
    let alphabet = alphabet();
    // Every state reachable in up to 3 events, then the 2-event race.
    let mut prefixes: Vec<Vec<Event>> = vec![Vec::new()];
    for _ in 0..3 {
        let mut next = Vec::new();
        for prefix in &prefixes {
            for &event in &alphabet {
                let mut longer = prefix.clone();
                longer.push(event);
                next.push(longer);
            }
        }
        prefixes.extend(next);
    }

    let replay = |events: &[Event]| {
        let mut pm = Pacemaker::new(BASE, SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for &event in events {
            now += SimDuration::from_millis(1);
            match event {
                Event::Qc(r) => {
                    pm.on_qc_round(Round::new(r), now);
                }
                Event::Tc(r) => {
                    pm.on_tc_round(Round::new(r), now);
                }
                Event::Tick => {
                    now = now.max(pm.deadline());
                    pm.on_tick(now);
                }
            }
        }
        pm
    };

    for prefix in &prefixes {
        for r in 1..=MAX_ROUND {
            let mut qc_first = prefix.clone();
            qc_first.extend([Event::Qc(r), Event::Tc(r)]);
            let mut tc_first = prefix.clone();
            tc_first.extend([Event::Tc(r), Event::Qc(r)]);
            let a = replay(&qc_first);
            let b = replay(&tc_first);
            assert_eq!(
                a.current_round(),
                b.current_round(),
                "race on round {r} after {prefix:?}"
            );
        }
    }
}
