//! What the readiness-driven socket core promises beyond delivering
//! frames: a quiet cluster costs nothing, a run loop blocked in a poll
//! wakes on a client, teardown never waits on a socket — and a set of
//! standalone nodes on the same core is just as quiet, even with a frame
//! held behind a closed durability gate. One test, in a process of its
//! own, because it measures the whole process's CPU.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sft_network::{Dest, Envelope, NodeTransport, ProtocolTag, TcpCluster, Transport};
use sft_obs::{names, Recorder, Registry};
use sft_types::{ReplicaId, SendGate, SimDuration, Watermark};

/// Process CPU time so far (user + system, all threads) in
/// milliseconds, at the kernel's 10 ms tick resolution.
fn process_cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, the 12th and 13th from there.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let ticks: u64 = rest
        .split(' ')
        .skip(11)
        .take(2)
        .map(|field| field.parse::<u64>().expect("tick count"))
        .sum();
    ticks * 10 // USER_HZ is 100 on every Linux port
}

/// Dials `replica`'s gateway and introduces itself as client `id`.
fn dial(cluster: &TcpCluster, replica: ReplicaId, id: u16) -> TcpStream {
    let mut sock = TcpStream::connect(cluster.client_addr(replica)).unwrap();
    sock.set_nodelay(true).unwrap();
    let hello =
        Envelope::to_peer(ReplicaId::new(id), replica, ProtocolTag::Client, Vec::new()).to_frame();
    sock.write_all(&hello).unwrap();
    sock
}

fn request(sock: &mut TcpStream, replica: ReplicaId, id: u16, payload: Vec<u8>) {
    let frame =
        Envelope::to_peer(ReplicaId::new(id), replica, ProtocolTag::Client, payload).to_frame();
    sock.write_all(&frame).unwrap();
}

/// Poll wake-ups (waits that returned readiness) counted into
/// `registry` so far.
fn wakeups(registry: &Registry) -> u64 {
    registry
        .snapshot()
        .counter(names::NET_READER_WAKEUPS)
        .unwrap_or(0)
}

/// Holds both idle bounds over a 500 ms quiet window: at most one 10 ms
/// CPU tick (sleep-polling readers spent ≈ 25 ms here; nothing runs now,
/// so the honest expectation is 0) and at most 4 wake-ups.
fn assert_idle(registry: &Registry, what: &str) {
    let (cpu_before, woken_before) = (process_cpu_ms(), wakeups(registry));
    std::thread::sleep(Duration::from_millis(500));
    let cpu = process_cpu_ms() - cpu_before;
    assert!(cpu <= 10, "{what} burned {cpu} ms of CPU in 500 ms");
    let woken = wakeups(registry) - woken_before;
    assert!(woken <= 4, "{what}: the transports woke {woken} times");
}

/// Polls every node until node `i` has `want[i]` peer frames (or 10 s
/// passed), and returns how many each got: a node sends only inside its
/// polls.
fn collect_all(nodes: &mut [NodeTransport], want: &[usize]) -> Vec<usize> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = vec![0; nodes.len()];
    while got.iter().zip(want).any(|(got, want)| got < want) && Instant::now() < deadline {
        for (node, count) in nodes.iter_mut().zip(&mut got) {
            *count += node
                .poll_deliver(node.now() + SimDuration::from_millis(2))
                .len();
        }
    }
    got
}

#[test]
fn a_quiet_cluster_sleeps_a_blocked_one_wakes_and_a_dropped_one_lets_go() {
    let mut cluster = TcpCluster::loopback(10, ProtocolTag::Fbft).unwrap();
    assert_eq!(cluster.thread_count(), 0, "the caller's polls do the I/O");
    let registry = Arc::new(Registry::new());
    cluster.set_recorder(registry.clone());

    // --- idle: 90 connections, 10 listeners, and nothing to do ---
    assert_idle(&registry, "an idle cluster");

    // --- a client frame wakes a run loop blocked on a far deadline ---
    let replica = ReplicaId::new(3);
    let client = std::thread::spawn({
        let mut sock = dial(&cluster, replica, 77);
        move || {
            // Long enough for the main thread to be asleep in
            // `poll_deliver`; the assertions hold either way.
            std::thread::sleep(Duration::from_millis(50));
            request(&mut sock, replica, 77, vec![0xC1]);
            (sock, Instant::now())
        }
    });
    let peers = cluster.poll_deliver(cluster.now() + SimDuration::from_secs(5));
    let woke = Instant::now();
    let (mut sock, written) = client.join().unwrap();
    assert!(peers.is_empty(), "no peer sent anything");
    assert!(
        woke.saturating_duration_since(written) < Duration::from_millis(500),
        "poll_deliver slept through a client request"
    );
    let got = cluster.poll_clients();
    assert_eq!(got.len(), 1, "the request that woke the loop is there");
    assert_eq!(
        (got[0].replica, &got[0].payload[..]),
        (replica, &[0xC1][..])
    );
    assert!(cluster.poll_clients().is_empty(), "and handed out once");

    // --- a severed link is one counted disconnect, exactly ---
    cluster.sever(ReplicaId::new(0), ReplicaId::new(1));
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.stats().disconnects == 0 && Instant::now() < deadline {
        cluster.poll_deliver(cluster.now() + SimDuration::from_millis(2));
    }
    cluster.poll_deliver(cluster.now() + SimDuration::from_millis(50));
    assert_eq!(cluster.stats().disconnects, 1);

    // --- drop never waits, whatever the clients are doing ---
    // One client mid-conversation, one that never reads with far more
    // acks queued than its socket will take.
    cluster.send_client(got[0].conn, replica, vec![0xAC].into());
    let mut stalled = dial(&cluster, ReplicaId::new(4), 78);
    request(&mut stalled, ReplicaId::new(4), 78, vec![1]);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut stalled_conn = None;
    while stalled_conn.is_none() && Instant::now() < deadline {
        cluster.poll_deliver(cluster.now() + SimDuration::from_millis(50));
        stalled_conn = cluster.poll_clients().first().map(|d| d.conn);
    }
    let stalled_conn = stalled_conn.expect("second client's request");
    let big: Arc<[u8]> = vec![0u8; 64 * 1024].into();
    for _ in 0..400 {
        cluster.send_client(stalled_conn, ReplicaId::new(4), Arc::clone(&big));
    }
    let dropping = Instant::now();
    drop(cluster);
    assert!(
        dropping.elapsed() < Duration::from_secs(2),
        "drop waited on a client socket"
    );
    // The conversing client got its ack, then the gateway's hang-up.
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut bytes = Vec::new();
    sock.read_to_end(&mut bytes).expect("ack, then EOF");
    let (ack, used) = Envelope::decode_frame(&bytes).unwrap().expect("one frame");
    assert_eq!((used, &ack.payload[..]), (bytes.len(), &[0xAC][..]));

    // --- the node transport: four standalone endpoints, just as quiet ---
    let registry = Arc::new(Registry::new());
    let addrs: Vec<SocketAddr> = {
        let holds: Vec<TcpListener> = (0..4)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        holds.iter().map(|l| l.local_addr().unwrap()).collect()
    };
    let mut nodes: Vec<NodeTransport> = (0..4u16)
        .map(|id| {
            let id = ReplicaId::new(id);
            NodeTransport::bind_observed(id, ProtocolTag::Fbft, addrs[id.as_usize()], &addrs, {
                registry.clone()
            })
            .unwrap()
        })
        .collect();
    assert!(nodes.iter().all(|node| node.thread_count() == 1));
    // Connected: every node has heard from every other.
    for node in &mut nodes {
        node.broadcast(node.id(), vec![0x11].into());
    }
    assert_eq!(
        collect_all(&mut nodes, &[3; 4]),
        [3; 4],
        "every node heard everyone"
    );
    // A frame held behind a durability gate no fsync has opened yet.
    let durable = Watermark::new();
    let gate = SendGate::new(durable.clone(), 1);
    nodes[0].send_to(
        ReplicaId::new(0),
        Dest::Peer(ReplicaId::new(1)),
        vec![0x6a].into(),
        Some(gate),
    );
    let now = nodes[0].now();
    nodes[0].poll_deliver(now);
    assert_idle(&registry, "four idle nodes with a gated frame");
    let now = nodes[1].now();
    let early = nodes[1].poll_deliver(now + SimDuration::from_millis(20));
    assert!(early.is_empty(), "not one frame past a closed gate");
    // The fsync completes and the WAL's wake hook fires: the frame leaves.
    durable.advance(1);
    (nodes[0].wake_hook())();
    assert_eq!(
        collect_all(&mut nodes[..2], &[0, 1]),
        [0, 1],
        "the gate's opening released the frame"
    );
}
