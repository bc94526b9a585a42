//! The replica engine of both protocols, fed by hand: the leader's own
//! proposal, bytes no replica sent, and the batch-verify timer.

use std::collections::BTreeMap;
use std::sync::Arc;

use sft_core::{Engine, MsgKind, ProtocolMessage, ReplicaEngine, ReplicaRules};
use sft_network::{Delivery, Dest, NetworkStats, SimNetwork, SimTransport};
use sft_obs::{names, Recorder, Registry};
use sft_sim::{
    build_fbft_engines, build_streamlet_engines, Behavior, EngineRunner, Protocol, RunPlan,
    SimConfig, Transport,
};
use sft_types::{Decode, Encode, Payload, ReplicaId, Round, SendGate, SimTime, Transaction};

/// Both protocols' engine sets for `config`, on the clocks
/// [`SimConfig::run`] gives them.
fn fbft_engines(config: &SimConfig) -> Vec<sft_fbft::FbftEngine> {
    build_fbft_engines(config, config.base_timeout())
}

fn streamlet_engines(config: &SimConfig) -> Vec<sft_streamlet::StreamletEngine> {
    build_streamlet_engines(config, config.delay * 2)
}

/// Replica 1 — the leader of round (epoch) 1 in both protocols — of an
/// n = 4 set `build` makes, recording into the returned registry, after
/// the tick that broadcast its proposal of four 512 B transactions.
/// Returns the proposal's buffer too.
fn leader_after_proposing<E: ReplicaEngine>(
    build: fn(&SimConfig) -> Vec<E>,
) -> (E, Arc<Registry>, Arc<[u8]>) {
    let config = SimConfig::new(4, 10)
        .with_batch_size(4)
        .with_live_clients(true);
    let mut engine = build(&config).swap_remove(1);
    let registry = Arc::new(Registry::new());
    let kernel = engine.kernel_mut();
    kernel.set_recorder(Arc::clone(&registry) as _);
    for seq in 0..4 {
        kernel.submit(Transaction::new(9, seq, vec![seq as u8; 512]));
    }
    let step = engine.on_tick(SimTime::ZERO);
    let [proposal] = &step.outbound[..] else {
        panic!("the first tick sends exactly the proposal: {step:?}");
    };
    assert_eq!(proposal.kind, MsgKind::Proposal);
    (engine, registry, Arc::clone(&proposal.bytes))
}

/// The leader's own broadcast, fed back as the buffer it went out in,
/// steps the engine exactly as a byte-identical copy does — and only the
/// copy is decoded.
fn loopback_is_not_decoded<E: ReplicaEngine>(build: fn(&SimConfig) -> Vec<E>) {
    let (mut echoed, echo_metrics, sent) = leader_after_proposing(build);
    let (mut copied, copy_metrics, twin) = leader_after_proposing(build);
    assert_eq!(sent, twin, "both leaders proposed the same bytes");
    let copy: Arc<[u8]> = twin.to_vec().into();
    let me = ReplicaId::new(1);

    let from_echo = echoed.on_envelope(me, &sent, SimTime::ZERO);
    let from_copy = copied.on_envelope(me, &copy, SimTime::ZERO);
    assert_eq!(from_echo, from_copy);
    assert!(
        from_echo.outbound.iter().any(|m| m.kind == MsgKind::Vote),
        "the leader votes for its own block: {from_echo:?}"
    );
    let decodes = |r: &Registry| r.snapshot().hist(names::PHASE_DECODE_NS).map(|h| h.count);
    assert_eq!(decodes(&echo_metrics), None);
    assert_eq!(decodes(&copy_metrics), Some(1));

    // Handed over once: a second delivery of the same buffer decodes.
    echoed.on_envelope(me, &sent, SimTime::ZERO);
    assert_eq!(decodes(&echo_metrics), Some(1));
}

#[test]
fn own_proposal_loopback_is_not_decoded_and_steps_the_same() {
    loopback_is_not_decoded(fbft_engines);
    loopback_is_not_decoded(streamlet_engines);
}

/// The proposal buffer is the message's one encoding, written in place,
/// and the leader's stored block holds it: the block's encoding and every
/// transaction's payload are ranges of it, not of the client frames the
/// transactions arrived in.
fn block_holds_the_proposal_buffer<R: ReplicaRules>(build: fn(&SimConfig) -> Vec<Engine<R>>) {
    let (mut leader, _, sent) = leader_after_proposing(build);
    let decoded = R::Message::from_bytes(&sent).expect("a proposal");
    assert_eq!(
        decoded.to_bytes(),
        sent.to_vec(),
        "written in place as it encodes field by field"
    );
    let id = decoded.proposed().expect("a proposal").id();
    leader.on_envelope(ReplicaId::new(1), &sent, SimTime::ZERO);
    let block = leader
        .kernel()
        .store()
        .get(id)
        .expect("stored when its proposal looped back");
    let held = block.encoding().expect("the block holds its bytes");
    assert!(Arc::ptr_eq(held.buffer(), &sent));
    let Payload::Transactions(txns) = block.payload() else {
        panic!("a mempool batch");
    };
    let within = sent.as_ptr_range();
    assert_eq!(txns.len(), 4);
    assert!(txns.iter().all(|t| within.contains(&t.payload().as_ptr())));
}

#[test]
fn the_leaders_block_holds_the_buffer_its_proposal_went_out_in() {
    block_holds_the_proposal_buffer(fbft_engines);
    block_holds_the_proposal_buffer(streamlet_engines);
}

/// A [`SimTransport`] that keeps the first frame sent with each leading
/// byte — the protocol message's tag.
struct FirstOfEachTag {
    inner: SimTransport,
    frames: BTreeMap<u8, Arc<[u8]>>,
}

impl Transport for FirstOfEachTag {
    fn replica_count(&self) -> usize {
        self.inner.replica_count()
    }

    fn send_to(&mut self, from: ReplicaId, dest: Dest, payload: Arc<[u8]>, gate: Option<SendGate>) {
        if let Some(&tag) = payload.first() {
            self.frames
                .entry(tag)
                .or_insert_with(|| Arc::clone(&payload));
        }
        self.inner.send_to(from, dest, payload, gate);
    }

    fn poll_deliver(&mut self, deadline: SimTime) -> Vec<Delivery> {
        self.inner.poll_deliver(deadline)
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn next_deliver_at(&self) -> Option<SimTime> {
        self.inner.next_deliver_at()
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn stats(&self) -> NetworkStats {
        self.inner.stats()
    }
}

/// Runs `config` over a [`FirstOfEachTag`] network, then feeds a live
/// replica of `build(config)` every strict prefix of one frame of each of
/// the `kinds` message kinds the run sent, and a frame whose tag no
/// message has: each steps the engine to nothing and leaves its round and
/// store as they were — transports can carry garbage.
fn rejects_garbage<E: ReplicaEngine>(
    config: &SimConfig,
    build: fn(&SimConfig) -> Vec<E>,
    plan: RunPlan,
    kinds: u8,
) {
    let net = SimNetwork::new(config.delay).with_faults(config.faults.clone().expect("faults"));
    let transport = FirstOfEachTag {
        inner: SimTransport::new(net, config.n),
        frames: BTreeMap::new(),
    };
    let behaviors = config.behaviors.clone();
    let mut runner = EngineRunner::new(
        build(config),
        behaviors,
        transport,
        config.runner_config(plan),
    );
    let end = SimTime::ZERO + config.delay * (config.epochs * 4);
    runner.run_until(end).expect("in-memory run");
    let frames = &runner.transport().frames;
    let tags: Vec<u8> = frames.keys().copied().collect();
    assert_eq!(tags, (0..kinds).collect::<Vec<_>>(), "every kind was sent");

    let mut engine = build(config).swap_remove(1);
    engine.on_tick(SimTime::ZERO);
    let (round, stored) = (engine.round(), engine.kernel().store().len());
    let unknown: Arc<[u8]> = vec![0xff, 0, 0, 0, 1].into();
    let prefixes = frames
        .values()
        .flat_map(|frame| (0..frame.len()).map(|len| Arc::from(&frame[..len])));
    for garbage in prefixes.chain([unknown]) {
        let step = engine.on_envelope(ReplicaId::new(0), &garbage, SimTime::ZERO);
        assert!(step.is_empty(), "{garbage:?} stepped the engine: {step:?}");
        assert_eq!(engine.round(), round);
        assert_eq!(engine.kernel().store().len(), stored);
    }
}

#[test]
fn truncated_and_unknown_frames_step_no_engine() {
    // A partitioned straggler brings block sync; a stalling DiemBFT
    // leader, timeouts and bare certificates.
    let config = SimConfig::new(4, 12).with_partitioned_straggler();
    rejects_garbage(&config, streamlet_engines, RunPlan::UntilQuiescent, 4);
    let config = config
        .with_protocol(Protocol::Fbft)
        .with_behavior(0, Behavior::StallLeader);
    let plan = RunPlan::PastRound(Round::new(config.epochs));
    rejects_garbage(&config, fbft_engines, plan, 6);
}

/// A DiemBFT follower checks the members of the certificate a proposal
/// carries in one batch, and that input is timed as the batch-verify
/// phase, like each vote input a leader checks.
#[test]
fn a_followers_certificate_check_is_timed_as_batch_verify() {
    let config = SimConfig::new(4, 10)
        .with_protocol(Protocol::Fbft)
        .with_batch_size(4);
    let mut engines = fbft_engines(&config);
    let (follower, leader, now) = (3, ReplicaId::new(1), SimTime::ZERO);
    let registry = Arc::new(Registry::new());
    let kernel = engines[follower].kernel_mut();
    kernel.set_recorder(Arc::clone(&registry) as _);
    let leader_registry = Arc::new(Registry::new());
    let kernel = engines[2].kernel_mut();
    kernel.set_recorder(Arc::clone(&leader_registry) as _);

    // Round 1: replica 1 proposes on its bootstrap tick, everyone votes
    // to round 2's leader, which certifies at the end of the instant and
    // proposes on the QC.
    let mut ticks: Vec<_> = engines.iter_mut().map(|e| e.on_tick(now)).collect();
    let round1 = ticks.swap_remove(1).outbound.remove(0);
    let votes: Vec<_> = engines
        .iter_mut()
        .flat_map(|e| e.on_envelope(leader, &round1.bytes, now).outbound)
        .filter(|m| m.kind == MsgKind::Vote)
        .collect();
    assert_eq!(votes.len(), 4);
    let mut checked = 0;
    for vote in &votes {
        let before = engines[2].sig_stats();
        engines[2].on_envelope(ReplicaId::new(0), &vote.bytes, now);
        checked += usize::from(engines[2].sig_stats() != before);
    }
    assert_eq!(checked, votes.len(), "the leader checks each vote");
    let timed = leader_registry
        .snapshot()
        .hist(names::PHASE_BATCH_VERIFY_NS);
    assert_eq!(timed.map(|h| h.count), Some(checked as u64), "one per vote");
    assert_eq!(engines[2].next_deadline(), Some(now), "the quorum is due");
    let round2 = engines[2]
        .on_tick(now)
        .outbound
        .into_iter()
        .find(|m| m.kind == MsgKind::Proposal)
        .expect("round 2's proposal carries the QC");

    let batches = engines[follower].sig_stats().batch_calls;
    engines[follower].on_envelope(ReplicaId::new(2), &round2.bytes, now);
    assert_eq!(engines[follower].sig_stats().batch_calls, batches + 1);
    let timed = registry.snapshot().hist(names::PHASE_BATCH_VERIFY_NS);
    assert_eq!(timed.map(|h| h.count), Some(1), "one sample");
}
