//! The run loop's two newest seams, over a transport that shows the wire:
//! a runner hosting *one* of the transport's replicas (what `sft-node`
//! is), and a WAL that fails under a running replica (what a full or
//! dying disk is).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use sft_core::{
    scan_wal, DurableWal, GroupCommitWal, MemSink, ReplicaEngine, Route, WriteThroughWal,
};
use sft_network::{Delivery, Dest, NetworkStats, SimNetwork, SimTransport};
use sft_obs::names;
use sft_sim::{
    build_fbft_engines, build_streamlet_engines, Behavior, EngineRunner, NoMischief, Protocol,
    RunPlan, RunnerConfig, SimConfig, Transport,
};
use sft_types::{PersistSeq, ReplicaId, Round, SendGate, SimDuration, SimTime};

#[path = "../../core/tests/support/fsync_crash.rs"]
mod fsync_crash;
use fsync_crash::FsyncCrashSink;

/// One `send_to` as the wire saw it.
#[derive(Debug)]
struct Frame {
    from: ReplicaId,
    dest: Dest,
    /// The persist sequence the frame was gated on, if any.
    seq: Option<PersistSeq>,
    /// Whether the frame left: ungated, or its gate opened. A frame whose
    /// log died under it stays held for ever, as in a socket transport's
    /// writer.
    left: bool,
}

/// A [`SimTransport`] that records every send and transmits only what a
/// socket transport's writer would: a gated frame leaves once its gate
/// opens, and never if the log behind it crashed first.
struct Wire {
    inner: SimTransport,
    frames: Rc<RefCell<Vec<Frame>>>,
    /// The replica whose log sits on `sink`; everyone else's cannot fail.
    victim: Option<(ReplicaId, FsyncCrashSink)>,
}

impl Wire {
    fn new(net: SimNetwork, n: usize, victim: Option<(ReplicaId, FsyncCrashSink)>) -> Self {
        Self {
            inner: SimTransport::new(net, n),
            frames: Rc::default(),
            victim,
        }
    }

    fn clears(&self, from: ReplicaId, gate: &SendGate) -> bool {
        match &self.victim {
            Some((victim, sink)) if *victim == from => {
                // The writer advances the watermark for a group before it
                // attempts the next fsync, so once the crash is visible a
                // closed gate stays closed.
                while !gate.is_open() && !sink.crashed() {
                    std::thread::yield_now();
                }
                gate.is_open()
            }
            _ => {
                gate.wait_open();
                true
            }
        }
    }
}

impl Transport for Wire {
    fn replica_count(&self) -> usize {
        self.inner.replica_count()
    }

    fn send_to(&mut self, from: ReplicaId, dest: Dest, p: Arc<[u8]>, gate: Option<SendGate>) {
        let left = gate.as_ref().is_none_or(|gate| self.clears(from, gate));
        self.frames.borrow_mut().push(Frame {
            from,
            dest,
            seq: gate.as_ref().map(SendGate::seq),
            left,
        });
        if left {
            self.inner.send_to(from, dest, p, None);
        }
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

fn runner_config(config: &SimConfig, plan: RunPlan) -> RunnerConfig {
    RunnerConfig {
        plan,
        horizon: SimTime::ZERO + config.run_horizon,
        drain_bound: config.drain_sync_bound,
        drain_step: config.delay,
    }
}

/// What `sft-node` is: a runner hosting replica 2 of a 4-replica
/// transport. It steps its engine on deliveries addressed to 2, drops the
/// ones addressed elsewhere (or nowhere), speaks only as 2, and counts a
/// broadcast as the `n − 1` frames it is.
///
/// The link has no delay, as loopback sockets all but have: the leader's
/// proposal is deliverable at the very instant its epoch opens, and the
/// run loop hands deliveries over before it fires due ticks. The replica
/// must vote all the same — its epoch clock is the time, not the last
/// tick it was given.
#[test]
fn a_runner_hosting_one_of_n_steps_only_on_its_own_deliveries() {
    let config = SimConfig::new(4, 4);
    let me = ReplicaId::new(2);
    let mut engines = build_streamlet_engines(&config, config.delay * 2);
    // Epoch 1's leader is replica 1; its proposal is the traffic.
    let mut leader = engines.remove(1);
    let hosted = engines.remove(1);
    assert_eq!(hosted.id(), me);
    let step = leader.on_tick(SimTime::ZERO);
    let proposal = step.outbound.first().expect("epoch 1 is proposed");
    assert_eq!(proposal.route, Route::Broadcast);

    // In flight when the run starts: the proposal to the hosted replica,
    // the copy for replica 3 (hosted by some other process), and a frame
    // for a replica this transport does not have.
    let mut net = SimNetwork::new(SimDuration::ZERO);
    for to in [2, 3, 9] {
        net.send(leader.id(), ReplicaId::new(to), Arc::clone(&proposal.bytes));
    }
    let wire = Wire::new(net, config.n, None);
    let frames = Rc::clone(&wire.frames);
    let mut runner = EngineRunner::new(
        vec![hosted],
        vec![Behavior::Honest],
        wire,
        NoMischief,
        runner_config(&config, RunPlan::UntilQuiescent),
    );
    runner.set_recorder(Arc::new(sft_obs::Registry::new()));
    runner.run_until(SimTime::ZERO).unwrap();

    let frames = frames.borrow();
    assert_eq!(frames.len(), 1, "one proposal heard, one vote cast");
    assert_eq!((frames[0].from, frames[0].dest), (me, Dest::Broadcast));
    let metrics = runner.report().metrics;
    assert_eq!(
        metrics.hist(names::PHASE_ON_ENVELOPE_NS).map(|h| h.count),
        Some(2),
        "the proposal addressed to 2 and 2's own vote looping back — not \
         the copies addressed to 3 and 9, nor 2's vote on its way to 0, 1 and 3"
    );
    assert_eq!(
        metrics.counter(names::NET_MSGS[1]),
        Some(3),
        "a vote broadcast is n − 1 frames, however many replicas are hosted"
    );
    assert_eq!(runner.report().chains.len(), 1);
}

/// Runs a 4-replica SFT-DiemBFT cluster whose replica 0 logs through
/// `victim_wal` onto a sink that fails its `fail_at`-th fsync, until the
/// run loop reports the failure. Returns every frame the wire saw and the
/// number of replica 0's records a reboot would find.
fn run_until_the_log_dies(
    fail_at: u64,
    victim_wal: impl FnOnce(FsyncCrashSink) -> Box<dyn DurableWal>,
) -> (Vec<Frame>, PersistSeq) {
    let config = SimConfig::new(4, 64).with_protocol(Protocol::Fbft);
    let victim = ReplicaId::new(0);
    let sink = FsyncCrashSink::new(fail_at);
    let net = SimNetwork::new(config.delay);
    let wire = Wire::new(net, config.n, Some((victim, sink.clone())));
    let frames = Rc::clone(&wire.frames);
    let mut runner = EngineRunner::new(
        build_fbft_engines(&config, config.base_timeout),
        config.behaviors.clone(),
        wire,
        NoMischief,
        runner_config(&config, RunPlan::PastRound(Round::new(config.epochs))),
    );
    let mut wals = vec![victim_wal(sink.clone())];
    wals.extend((1..config.n).map(|_| {
        Box::new(GroupCommitWal::spawn(MemSink::new(), sft_obs::noop(), None).unwrap())
            as Box<dyn DurableWal>
    }));
    runner.set_wals(wals);

    let mut at = SimTime::ZERO;
    let failure = loop {
        at += config.delay;
        assert!(
            at <= SimTime::ZERO + config.run_horizon,
            "the log died but the run never said so"
        );
        if let Err(e) = runner.run_until(at) {
            break e;
        }
    };
    assert!(
        failure.to_string().contains("injected fsync crash"),
        "the run ends with the WAL's own error, got: {failure}"
    );
    drop(runner); // joins the WAL writers: the crash image is final
    let durable = scan_wal(&sink.crash_image()).expect("durable prefix is clean");
    let frames = std::mem::take(&mut *frames.borrow_mut());
    (frames, durable.records.len() as PersistSeq)
}

/// No frame of the victim's that left the wire was gated on a record the
/// disk never saw; frames gated past the durable prefix are still held.
fn assert_wire_is_backed_by_the_disk(frames: &[Frame], durable: PersistSeq) {
    let victim = ReplicaId::new(0);
    let gated: Vec<&Frame> = frames
        .iter()
        .filter(|f| f.from == victim && f.seq.is_some())
        .collect();
    assert!(
        gated.iter().any(|f| f.left),
        "the victim spoke while its log was healthy"
    );
    for frame in gated {
        assert_eq!(
            frame.left,
            frame.seq <= Some(durable),
            "{frame:?} vs a durable prefix of {durable} records"
        );
    }
}

/// Write-through: the k-th record's fsync fails inline, so the append
/// itself returns the error and the step that produced the record routes
/// nothing — no frame was ever even gated on record k.
#[test]
fn a_failed_inline_fsync_ends_the_run_before_its_step_is_routed() {
    for fail_at in 1..=5u64 {
        let (frames, durable) = run_until_the_log_dies(fail_at, |sink| {
            Box::new(WriteThroughWal::new(sink, sft_obs::noop()))
        });
        assert_eq!(durable, fail_at - 1, "records before the failing fsync");
        if fail_at > 1 {
            assert_wire_is_backed_by_the_disk(&frames, durable);
        }
        let victims_last = frames
            .iter()
            .filter(|f| f.from == ReplicaId::new(0))
            .filter_map(|f| f.seq)
            .max();
        assert!(
            victims_last <= Some(durable),
            "fail_at {fail_at}: a frame was routed on the failed record ({victims_last:?})"
        );
    }
}

/// Group commit (what `sft-node` runs): appends only enqueue, so the run
/// loop learns of the failure an append or two later — and the frames it
/// routed in between sit behind gates that never open.
#[test]
fn a_failed_group_fsync_ends_the_run_with_its_frames_still_gated() {
    for fail_at in 2..=5u64 {
        let (frames, durable) = run_until_the_log_dies(fail_at, |sink| {
            Box::new(GroupCommitWal::spawn(sink, sft_obs::noop(), None).unwrap())
        });
        assert!(durable >= fail_at - 1, "each good fsync covers >= 1 record");
        assert_wire_is_backed_by_the_disk(&frames, durable);
    }
}
