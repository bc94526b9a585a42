//! A peer that never reads keeps a socket pushing back for as long as it
//! stalls. The socket core's writer must not spin on it: it watches that
//! socket for room (`EPOLLOUT`) instead of retrying it, so the stall costs
//! no wake-up at all — and a reader that resumes makes room, which wakes
//! the writer, so it is drained at once.
//! One test, in a process of its own, because it reads the writer
//! thread's CPU time.

use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sft_network::{Envelope, NodeTransport, ProtocolTag, Transport};
use sft_types::ReplicaId;

/// CPU time in nanoseconds of this process's threads named `name`, from
/// `/proc/self/task`: each thread's time on a CPU as the scheduler
/// counts it (`schedstat`, in ns), or, on a kernel that does not export
/// that file, its user + system time from `stat` in 10 ms ticks — coarse
/// enough that a thread running a few ms per second can read as a whole
/// tick more or less than it spent.
fn thread_cpu_ns(name: &str) -> u64 {
    let mut ns = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited between listing and reading
        };
        if comm.trim_end() != name {
            continue;
        }
        ns += match std::fs::read_to_string(dir.join("schedstat")) {
            Ok(schedstat) => schedstat
                .split(' ')
                .next()
                .and_then(|field| field.parse::<u64>().ok())
                .expect("schedstat run time"),
            Err(_) => thread_ticks(&dir) * 10_000_000, // USER_HZ is 100 on every Linux port
        };
    }
    ns
}

/// utime + stime of the thread whose `/proc` directory is `dir`, in ticks.
fn thread_ticks(dir: &std::path::Path) -> u64 {
    let stat = std::fs::read_to_string(dir.join("stat")).expect("task stat");
    // utime and stime are the 14th and 15th fields, the 12th and 13th
    // after the parenthesised command name.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    rest.split(' ')
        .skip(11)
        .take(2)
        .map(|field| field.parse::<u64>().expect("tick count"))
        .sum()
}

#[test]
fn a_peer_that_never_reads_backs_the_writer_off_and_a_resumed_one_drains() {
    const FRAMES: usize = 512;
    const PAYLOAD: usize = 64 * 1024; // 32 MiB in all: far past any socket buffer

    // Replica 1 is a bare listener: the kernel completes the connection,
    // and nobody reads it.
    let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
    let peers: Vec<SocketAddr> = vec![
        "127.0.0.1:9".parse().unwrap(),
        stalled.local_addr().unwrap(),
    ];
    let mut node = NodeTransport::bind(
        ReplicaId::new(0),
        ProtocolTag::Fbft,
        "127.0.0.1:0".parse().unwrap(),
        &peers,
    )
    .unwrap();
    let (mut conn, _) = stalled.accept().unwrap();
    let payload: Arc<[u8]> = vec![0x5a; PAYLOAD].into();
    for _ in 0..FRAMES {
        node.send(ReplicaId::new(0), ReplicaId::new(1), Arc::clone(&payload));
    }
    assert_eq!(node.stats().dropped, 0, "every frame queued");

    // Let the socket fill and the writer go to sleep on it, then watch
    // the writer for a second of stall.
    std::thread::sleep(Duration::from_millis(300));
    let before = thread_cpu_ns("sft-tcp-writer");
    std::thread::sleep(Duration::from_secs(1));
    let spent = thread_cpu_ns("sft-tcp-writer") - before;
    println!("writer CPU over 1 s of stall: {:.3} ms", spent as f64 / 1e6);
    assert!(
        spent <= 10_000_000,
        "the writer burned {:.1} ms of CPU in 1 s on a peer that never reads",
        spent as f64 / 1e6
    );

    // The reader resumes: the hello, then every frame, whole and soon.
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let resumed = Instant::now();
    let mut bytes = Vec::new();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut frames = 0;
    while frames < FRAMES + 1 {
        let read = conn.read(&mut chunk).expect("the writer resumes");
        assert!(read > 0, "the writer hung up");
        bytes.extend_from_slice(&chunk[..read]);
        let mut used = 0;
        while let Some((env, len)) = Envelope::decode_frame(&bytes[used..]).unwrap() {
            assert!(env.payload.is_empty() || env.payload.len() == PAYLOAD);
            used += len;
            frames += 1;
        }
        bytes.drain(..used);
    }
    assert!(
        resumed.elapsed() < Duration::from_secs(2),
        "draining a resumed reader took {:?}",
        resumed.elapsed()
    );
}
