//! What a poll owes its run loop now that it does the socket I/O itself:
//! a frame gated on an unsynced WAL record never reaches the wire, however
//! often the loop polls, and goes out within the poll that the WAL's
//! completed fsync wakes; and a quiet poll sleeps to its deadline, to the
//! microsecond, not to the millisecond.

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sft_core::{Block, DurableWal, GroupCommitWal, MemSink, WalRecord};
use sft_network::{Dest, Envelope, NodeTransport, ProtocolTag, TcpCluster, Transport};
use sft_types::{ReplicaId, SendGate, SimDuration};

/// Run time of the calling thread so far in ns, where the kernel exports
/// it (`schedstat`).
fn thread_cpu_ns() -> Option<u64> {
    let schedstat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    schedstat.split(' ').next()?.parse().ok()
}

/// Replica 0 as a [`NodeTransport`], and the accepted socket of a bare
/// listener standing in for replica 1, with the hello already read off it.
fn node_and_raw_peer() -> (NodeTransport, TcpStream) {
    let raw = TcpListener::bind("127.0.0.1:0").unwrap();
    let peers: Vec<SocketAddr> = vec!["127.0.0.1:9".parse().unwrap(), raw.local_addr().unwrap()];
    let node = NodeTransport::bind(
        ReplicaId::new(0),
        ProtocolTag::Fbft,
        "127.0.0.1:0".parse().unwrap(),
        &peers,
    )
    .unwrap();
    let (mut conn, _) = raw.accept().unwrap();
    let hello = Envelope::to_peer(
        ReplicaId::new(0),
        ReplicaId::new(1),
        ProtocolTag::Fbft,
        Vec::new(),
    )
    .to_frame();
    let mut got = vec![0u8; hello.len()];
    conn.read_exact(&mut got).unwrap();
    assert_eq!(got, hello);
    (node, conn)
}

#[test]
fn a_gated_frame_stays_off_the_wire_until_the_wal_wakes_the_poll() {
    let (mut node, mut conn) = node_and_raw_peer();
    let mut wal =
        GroupCommitWal::spawn(MemSink::new(), sft_obs::noop(), Some(node.wake_hook())).unwrap();
    let seq = wal
        .append(&WalRecord::BlockCommitted(Block::genesis()))
        .unwrap();
    let gate = SendGate::new(wal.watermark(), seq);
    node.send_to(
        ReplicaId::new(0),
        Dest::Peer(ReplicaId::new(1)),
        vec![0x6a; 16].into(),
        Some(gate.clone()),
    );

    // Polls flush, and none of them writes a byte past the closed gate.
    conn.set_nonblocking(true).unwrap();
    for _ in 0..10 {
        node.poll_deliver(node.now() + SimDuration::from_millis(2));
        let mut byte = [0u8; 1];
        assert_eq!(
            conn.read(&mut byte).unwrap_err().kind(),
            ErrorKind::WouldBlock,
            "not one byte of a frame whose record is not durable"
        );
    }
    assert_eq!(wal.fsyncs(), 0);

    // The fsync completes 20 ms into a poll that would sleep for 500:
    // the WAL's wake hook ends the wait, and that poll sends the frame.
    conn.set_nonblocking(false).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let reader = std::thread::spawn(move || {
        let mut head = [0u8; 1];
        conn.read_exact(&mut head).unwrap();
        let arrived = Instant::now();
        let mut bytes = head.to_vec();
        let mut chunk = [0u8; 256];
        while Envelope::decode_frame(&bytes).unwrap().is_none() {
            let read = conn.read(&mut chunk).unwrap();
            bytes.extend_from_slice(&chunk[..read]);
        }
        (arrived, bytes)
    });
    let syncer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        gate.request();
    });
    let polled = Instant::now();
    assert!(node
        .poll_deliver(node.now() + SimDuration::from_millis(500))
        .is_empty());
    syncer.join().unwrap();
    let (arrived, bytes) = reader.join().unwrap();
    let sent_after = arrived - polled;
    assert!(
        sent_after < Duration::from_millis(250),
        "the frame left {sent_after:?} into the poll: the fsync did not wake it"
    );
    let (env, _) = Envelope::decode_frame(&bytes).unwrap().unwrap();
    assert_eq!(env.payload[..], [0x6a; 16]);
    assert_eq!(wal.fsyncs(), 1, "one fsync released it");
}

#[test]
fn a_quiet_poll_ends_at_its_deadline_to_the_microsecond() {
    const WAITS: usize = 20;
    const WAIT: SimDuration = SimDuration::from_micros(2_300);
    let mut cluster = TcpCluster::loopback(2, ProtocolTag::Fbft).unwrap();
    let cpu_before = thread_cpu_ns();
    let mut overshoots = Vec::with_capacity(WAITS);
    for _ in 0..WAITS {
        let deadline = cluster.now() + WAIT;
        assert!(cluster.poll_deliver(deadline).is_empty());
        let returned = cluster.now();
        assert!(
            returned >= deadline,
            "returned at {returned}, before {deadline}"
        );
        overshoots.push((returned - deadline).as_micros());
    }
    overshoots.sort_unstable();
    let median = overshoots[WAITS / 2];
    println!("overshoot past a {WAIT} deadline, µs: median {median}, all {overshoots:?}");
    // A wait rounded up to whole milliseconds overshoots by 700 µs.
    assert!(median < 500, "median overshoot {median} µs");
    // One rounded down ends 300 µs early and spins out the rest.
    if let (Some(before), Some(after)) = (cpu_before, thread_cpu_ns()) {
        let per_wait = (after - before) / WAITS as u64 / 1000;
        println!("CPU per wait: {per_wait} µs");
        assert!(
            per_wait < 150,
            "{per_wait} µs of CPU per wait: the poll spun"
        );
    }
}
