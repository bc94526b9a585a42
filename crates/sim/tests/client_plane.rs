//! Client-plane acceptance: the strength-graded ack contract, end to
//! end over real TCP, plus the admission-control verdicts and the WAL's
//! role in client dedup across a crash/restart.
//!
//! The headline test is the PR's acceptance criterion: a client dialing
//! a replica's client gateway with `ack_at: x` receives its
//! [`ClientAck::Committed`] only once the containing block's
//! strong-commit level has reached `x` — asserted not against the ack
//! alone but against the replica's own strong-commit log, for
//! `x ∈ {0, 1, 2}` on both protocols (n = 4, so 2 = 2f is the ceiling).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sft_core::{scan_wal, ReplicaEngine};
use sft_network::{SimNetwork, SimTransport};
use sft_sim::{
    build_streamlet_engines, memory_wals, run_over_tcp_serving, Behavior, EngineRunner, Protocol,
    RunPlan, SimConfig, TcpPacing,
};
use sft_types::{
    ClientAck, ClientFrame, ClientRequest, Decode, Encode, Envelope, ProtocolTag, ReplicaId,
    SimTime, Transaction,
};

/// Dials `addr` as client `me`, submits one transaction per entry of
/// `ack_ats`, and reads until every submission has a committed ack (or
/// the replica hangs up). Returns `(requested_x, ack)` pairs.
fn submit_and_collect(
    addr: SocketAddr,
    replica: ReplicaId,
    me: ReplicaId,
    ack_ats: &[u64],
) -> Vec<(u64, ClientAck)> {
    let mut sock = TcpStream::connect(addr).expect("dial the client gateway");
    sock.set_nodelay(true).unwrap();
    sock.write_all(&Envelope::to_peer(me, replica, ProtocolTag::Client, Vec::new()).to_frame())
        .expect("hello");
    let mut want: HashMap<_, u64> = HashMap::new();
    for &x in ack_ats {
        let req = ClientRequest::new(
            Transaction::new(u64::from(me.as_u16()), x, vec![0x77; 32]),
            x,
        );
        want.insert(req.txn_id(), x);
        let payload = ClientFrame::Request(req).to_bytes();
        sock.write_all(&Envelope::to_peer(me, replica, ProtocolTag::Client, payload).to_frame())
            .expect("submit");
    }
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    let mut got = Vec::new();
    while got.len() < ack_ats.len() {
        match sock.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(_) => break,
        }
        while let Ok(Some((env, used))) = Envelope::decode_frame(&buf) {
            buf.drain(..used);
            if let Ok(ClientFrame::Ack(ack)) = ClientFrame::from_bytes(&env.payload) {
                let x = want[&ack.txn_id()];
                got.push((x, ack));
            }
        }
    }
    got
}

/// The acceptance criterion proper, for one protocol.
fn ack_strength_contract(protocol: Protocol, epochs: u64) {
    let config = SimConfig::new(4, epochs)
        .with_protocol(protocol)
        .with_batch_size(8)
        .with_live_clients(true);
    let mut client = None;
    let report = run_over_tcp_serving(&config, TcpPacing::default(), |addrs| {
        let addr = addrs[0];
        client = Some(std::thread::spawn(move || {
            submit_and_collect(addr, ReplicaId::new(0), ReplicaId::new(900), &[0, 1, 2])
        }));
    })
    .expect("loopback mesh");
    let got = client.expect("ready ran").join().expect("client thread");
    assert_eq!(got.len(), 3, "every requested strength was acknowledged");

    // Every ack is judged against the serving replica's own
    // strong-commit log: the strength it reports must be a level that
    // block actually logged, at least the requested x, and exactly the
    // FIRST logged level satisfying x — an ack sent any earlier would
    // precede the strength it certifies.
    let log = &report.commit_logs[0];
    for (x, ack) in got {
        let ClientAck::Committed {
            round, strength, ..
        } = ack
        else {
            panic!("requested x={x}, got a non-committed ack {ack:?}");
        };
        assert!(strength >= x, "x={x} acked below strength: {strength}");
        let levels: Vec<u64> = log
            .iter()
            .filter(|u| u.round() == round)
            .map(|u| u.level())
            .collect();
        assert!(
            levels.contains(&strength),
            "x={x}: ack claims {strength}-strong but replica 0's log for \
             round {round} only shows {levels:?}"
        );
        let first_reaching_x = levels
            .iter()
            .copied()
            .filter(|&l| l >= x)
            .min()
            .expect("some logged level satisfied the ack");
        assert_eq!(
            strength, first_reaching_x,
            "x={x}: the ack fires at the first strength upgrade to reach \
             x, not a later one"
        );
    }
    assert!(report.agreement());
    assert!(report.commit_strength_monotone());
}

#[test]
fn tcp_client_acks_fire_at_requested_strength_streamlet() {
    ack_strength_contract(Protocol::Streamlet, 16);
}

#[test]
fn tcp_client_acks_fire_at_requested_strength_fbft() {
    // SFT-DiemBFT rounds close on QCs and race over loopback; a larger
    // round budget buys the same wall clock Streamlet's paced epochs do.
    ack_strength_contract(Protocol::Fbft, 96);
}

/// Admission control at the engine surface: an admitted submission
/// returns no verdict (the ack comes later, through `drain_acks`), a
/// resubmission is refused as `Duplicate`, and a full mempool answers
/// `Busy` — the backpressure signal clients retry on.
#[test]
fn submit_verdicts_admit_duplicate_and_busy() {
    let config = SimConfig::new(4, 4)
        .with_batch_size(4)
        .with_live_clients(true)
        .with_mempool_txn_cap(1);
    let mut engine = build_streamlet_engines(&config, config.delay * 2).remove(0);
    let now = SimTime::ZERO;
    let first = ClientRequest::new(Transaction::new(9, 0, vec![1, 2, 3]), 0);
    let second = ClientRequest::new(Transaction::new(9, 1, vec![4, 5, 6]), 0);
    assert_eq!(
        engine.kernel_mut().submit_request(&first, now),
        None,
        "admitted: ack deferred"
    );
    assert_eq!(
        engine.kernel_mut().submit_request(&first, now),
        Some(ClientAck::Duplicate {
            txn_id: first.txn_id()
        }),
        "a resubmission is refused, not double-queued"
    );
    assert_eq!(
        engine.kernel_mut().submit_request(&second, now),
        Some(ClientAck::Busy {
            txn_id: second.txn_id()
        }),
        "the cap answers Busy until a drain makes room"
    );
}

/// Client dedup survives a crash: a replica rebuilt from its WAL refuses
/// a transaction it already committed (`Duplicate`), while an amnesiac
/// rebuild re-admits it — double inclusion, were a client to retry into
/// a crashed-and-forgotten replica. The WAL is load-bearing for the
/// client plane, not just for vote dedup.
#[test]
fn wal_replay_restores_client_dedup_across_restart() {
    let config = SimConfig::new(4, 8).with_batch_size(16);
    let period = config.delay * 2;
    let engines = build_streamlet_engines(&config, period);
    let transport = SimTransport::new(SimNetwork::new(config.delay), 4);
    let mut runner = EngineRunner::new(
        engines,
        vec![Behavior::Honest; 4],
        transport,
        config.runner_config(RunPlan::UntilQuiescent),
    );
    let (wals, sinks) = memory_wals(4, &sft_obs::noop());
    runner.set_wals(wals);
    let end = SimTime::ZERO + period * 8;
    runner.run_until(end).unwrap();
    runner.barrier().unwrap();
    let report = runner.report();
    assert!(
        report.txns_committed > 0,
        "the batched run committed client transactions"
    );

    // The first pre-fed workload transaction, by construction — it rode
    // the very first batch, so its block is long committed.
    let committed_txn = Transaction::new(0, 0, vec![0xc5; config.txn_bytes as usize]);
    let req = ClientRequest::new(committed_txn, 0);

    // Restart from the bytes replica 0's log wrote: fresh engine (no
    // pre-feed), replay, submit.
    let fresh_config = config.clone().with_live_clients(true);
    let mut recovered = build_streamlet_engines(&fresh_config, period).remove(0);
    let wal = scan_wal(&sinks[0].bytes()).expect("own frames scan clean");
    for record in &wal.records {
        recovered.restore(record, end);
    }
    assert_eq!(
        recovered.kernel_mut().submit_request(&req, end),
        Some(ClientAck::Duplicate {
            txn_id: req.txn_id()
        }),
        "replaying BlockCommitted records re-seeds the dedup set"
    );

    // Amnesiac restart: same rebuild, no replay — the committed
    // transaction is re-admitted as if never seen.
    let mut amnesiac = build_streamlet_engines(&fresh_config, period).remove(0);
    assert_eq!(
        amnesiac.kernel_mut().submit_request(&req, end),
        None,
        "without the WAL the duplicate sails through admission"
    );
}
