//! Real-socket transport: a loopback TCP mesh speaking length-prefixed
//! [`Envelope`] frames.
//!
//! Hand-rolled on `std::net` + threads — there is no registry access,
//! hence no async runtime, and none is needed: the FeBFT shape (typed
//! envelopes consumed from an executor-agnostic transport) works just as
//! well over two threads that sleep until a socket has work for them.
//!
//! ## Architecture
//!
//! A [`TcpCluster`] hosts `n` replica endpoints in one process, connected
//! full-mesh over `127.0.0.1` ephemeral ports: one TCP connection per
//! ordered pair `(i → j)` — 14 520 at n = 121 — on **two threads for any
//! n**, neither of which polls:
//!
//! - **one writer thread** drains every per-connection `OutRing` onto its
//!   non-blocking socket — every gate-open frame of a pass in one
//!   vectored write, partial writes resumed where the kernel pushed back.
//!   A broadcast enqueues one shared pre-framed buffer on `n − 1` rings
//!   (encode once, `Arc` fan-out, exactly like the simulator), and a full
//!   ring blocks the sender — bounded memory, no silent loss. The writer
//!   sleeps until an enqueue or a completed fsync (the WAL's wake hook)
//!   signals it; only a socket that pushed back arms a retry timer,
//!   because a kernel buffer draining signals nobody;
//! - **one I/O thread** blocks in `poll(2)` (the `readiness` module) over
//!   the `n(n − 1)` inbound peer sockets, the `n` listeners, every client
//!   socket and a wake-up socket, and reads only what is ready.
//!   Per-connection `FrameDecoder`s turn the bytes into validated
//!   deliveries on **one inbound queue** — so a run loop blocked in
//!   [`Transport::poll_deliver`] wakes on a peer frame and a client
//!   request alike, and [`Transport::poll_clients`] is a drain with no
//!   syscall in it. An idle cluster costs no CPU at all.
//!
//! The listeners double as the client gateway: a connection accepted
//! after the mesh is up is a client's, and its acks leave through an
//! `OutRing` of its own on the same writer thread.
//!
//! Frames that fail to decode, carry the wrong [`ProtocolTag`], or name
//! a `Dest::Peer` other than the receiving endpoint terminate that
//! connection — a transport does not forward bytes it cannot vouch for.
//!
//! ## Time
//!
//! The [`Transport`] time source is wall-clock microseconds since cluster
//! construction, expressed as [`SimTime`] — engines built for the
//! simulator run unchanged; only the meaning of a microsecond differs.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sft_obs::{names, PhaseTimer, SharedRecorder};
use sft_types::{Dest, Envelope, ProtocolTag, ReplicaId, SendGate, SimTime};

use crate::frame::FrameDecoder;
use crate::inbox::{Inbound, Inbox};
use crate::outbox::{Flush, Notifier, OutRing};
use crate::readiness::PollSet;
use crate::{ClientDelivery, Delivery, NetworkStats, Transport};

/// Writer retry interval while some socket is pushing back: kernel
/// buffers drain without any enqueue to signal it, so the wait must
/// time out.
const FLUSH_RETRY: Duration = Duration::from_micros(200);

/// One outbound connection as the writer thread owns it: the
/// non-blocking socket plus the ring feeding it.
struct WriterConn {
    stream: TcpStream,
    ring: Arc<OutRing>,
}

/// Where a client's acks go: its ring, and the identity its hello
/// claimed (what the ack frames are addressed to).
struct ClientOut {
    ring: Arc<OutRing>,
    dest: ReplicaId,
}

/// What the run loop, the writer thread and the I/O thread share.
struct Shared {
    /// Wakes the writer thread after an enqueue on any ring.
    notifier: Arc<Notifier>,
    /// Read through a slot: both threads start before `set_recorder`.
    recorder: Mutex<SharedRecorder>,
    /// Set by `Drop`: the writer makes one last pass and exits.
    closing: AtomicBool,
    /// Write halves of freshly accepted client connections, on their way
    /// from the I/O thread to the writer thread.
    accepted: Mutex<Vec<WriterConn>>,
    /// Client connections by gateway-assigned id, from hello to hang-up.
    clients: Mutex<HashMap<u64, ClientOut>>,
    /// Peer frames queued for the run loop (`is_idle` compares it with
    /// `stats.messages`).
    received: AtomicU64,
    /// Peer connections lost (EOF, socket error, protocol violation):
    /// a dropped peer is a counted event in [`Transport::stats`].
    disconnects: AtomicU64,
}

impl Shared {
    fn recorder(&self) -> SharedRecorder {
        self.recorder.lock().expect("recorder slot").clone()
    }
}

/// An `n`-endpoint loopback TCP mesh implementing [`Transport`]. See the
/// [module docs](self) for the thread and framing architecture.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sft_network::{ProtocolTag, TcpCluster, Transport};
/// use sft_types::{ReplicaId, SimDuration};
///
/// let mut cluster = TcpCluster::loopback(3, ProtocolTag::Fbft).unwrap();
/// let payload: Arc<[u8]> = vec![1, 2, 3].into();
/// cluster.broadcast(ReplicaId::new(0), payload);
/// let deadline = cluster.now() + SimDuration::from_secs(5);
/// let mut got = Vec::new();
/// while got.len() < 2 {
///     let batch = cluster.poll_deliver(deadline);
///     assert!(!batch.is_empty(), "loopback delivery within the deadline");
///     got.extend(batch);
/// }
/// assert!(got.iter().all(|d| d.from == ReplicaId::new(0)));
/// ```
pub struct TcpCluster {
    n: usize,
    protocol: ProtocolTag,
    start: Instant,
    /// `rings[from][to]`; the diagonal is `None` (self-delivery is the
    /// harness's job, as with every transport).
    rings: Vec<Vec<Option<Arc<OutRing>>>>,
    shared: Arc<Shared>,
    /// Peer deliveries and client requests, as the I/O thread queued them.
    inbox: Inbox,
    delivered: u64,
    stats: NetworkStats,
    /// Where each endpoint listens: the mesh was accepted there, clients
    /// dial it now.
    addrs: Vec<SocketAddr>,
    /// Shut down on drop, which makes the I/O thread's end readable: its
    /// cue to exit.
    wake: UnixStream,
    io: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    /// Frame-level counters; no-op until [`set_recorder`](Self::set_recorder).
    recorder: SharedRecorder,
}

impl TcpCluster {
    /// Binds `n` endpoints on `127.0.0.1` ephemeral ports, connects the
    /// full mesh, and spawns the writer and I/O threads. Frames not
    /// tagged `protocol` are rejected on arrival.
    ///
    /// # Errors
    ///
    /// Returns any socket error raised while binding, accepting, or
    /// connecting the mesh.
    pub fn loopback(n: usize, protocol: ProtocolTag) -> io::Result<Self> {
        assert!(n >= 1, "a cluster needs at least one replica");
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<_>>()?;
        let (wake, woken) = UnixStream::pair()?;

        // Connect the mesh: for each ordered pair (from → to), `from`
        // dials `to`'s listener and immediately sends a one-frame hello
        // naming itself, so the acceptor can attribute the connection.
        // Accepting inline (rather than in a background acceptor) keeps
        // construction deterministic and turns connection failures into
        // immediate errors.
        let mut rings: Vec<Vec<Option<Arc<OutRing>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut writer_conns: Vec<WriterConn> = Vec::with_capacity(n * n.saturating_sub(1));
        let mut sources = vec![Source::Wake(woken)];
        for (from, row) in rings.iter_mut().enumerate() {
            for (to, listener) in listeners.iter().enumerate() {
                if from == to {
                    continue;
                }
                let mut stream = TcpStream::connect(addrs[to])?;
                stream.set_nodelay(true)?;
                let hello = Envelope::to_peer(
                    ReplicaId::new(from as u16),
                    ReplicaId::new(to as u16),
                    protocol,
                    Vec::new(),
                )
                .to_frame();
                stream.write_all(&hello)?;
                stream.set_nonblocking(true)?;

                let ring = OutRing::new();
                writer_conns.push(WriterConn {
                    stream,
                    ring: Arc::clone(&ring),
                });
                row[to] = Some(ring);

                let (accepted, _) = listener.accept()?;
                accepted.set_nodelay(true)?;
                accepted.set_nonblocking(true)?;
                let decoder = FrameDecoder::new(ReplicaId::new(to as u16), protocol);
                sources.push(Source::Peer(accepted, decoder));
            }
        }
        // The mesh is fully connected; from here on the listeners serve
        // clients only.
        for (replica, listener) in listeners.into_iter().enumerate() {
            listener.set_nonblocking(true)?;
            sources.push(Source::Listener(listener, ReplicaId::new(replica as u16)));
        }

        let shared = Arc::new(Shared {
            notifier: Notifier::new(),
            recorder: Mutex::new(sft_obs::noop()),
            closing: AtomicBool::new(false),
            accepted: Mutex::new(Vec::new()),
            clients: Mutex::new(HashMap::new()),
            received: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
        });
        let (inbound, inbox) = Inbox::new();
        let io = std::thread::Builder::new()
            .name("sft-tcp-io".into())
            .spawn({
                let shared = Arc::clone(&shared);
                move || io_loop(sources, &inbound, &shared)
            })?;
        let writer = std::thread::Builder::new()
            .name("sft-tcp-writer".into())
            .spawn({
                let shared = Arc::clone(&shared);
                move || flush_loop(writer_conns, &shared)
            })?;

        Ok(Self {
            n,
            protocol,
            start: Instant::now(),
            rings,
            shared,
            inbox,
            delivered: 0,
            stats: NetworkStats::default(),
            addrs,
            wake,
            io: Some(io),
            writer: Some(writer),
            recorder: sft_obs::noop(),
        })
    }

    /// Threads this cluster owns: the writer and the I/O thread, for any
    /// `n`. The number a thread budget should be held to — unlike a
    /// process-wide count, it does not move when another cluster runs
    /// beside this one.
    pub fn thread_count(&self) -> usize {
        usize::from(self.io.is_some()) + usize::from(self.writer.is_some())
    }

    /// The socket address clients dial to reach `replica`'s gateway —
    /// the same listener the mesh was accepted on.
    pub fn client_addr(&self, replica: ReplicaId) -> SocketAddr {
        self.addrs[replica.as_usize()]
    }

    /// Installs a live recorder: every enqueued frame counts into
    /// `net_frames_sent` / `net_frame_bytes`, every writer pass that
    /// moved bytes times itself into `phase_net_flush_ns` and counts its
    /// `net_write_syscalls`, and the I/O thread counts
    /// `net_reader_wakeups` and `net_read_syscalls`.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        *self.shared.recorder.lock().expect("recorder slot") = recorder.clone();
        self.recorder = recorder;
    }

    /// A hook that wakes the writer thread. Hand it to the group-commit
    /// WAL whose watermark gates this cluster's frames: the writer does
    /// not poll a closed gate, so a completed fsync releases the frames
    /// behind it only through this signal.
    pub fn writer_wake_hook(&self) -> Box<dyn Fn() + Send + Sync> {
        let notifier = Arc::clone(&self.shared.notifier);
        Box::new(move || notifier.signal())
    }

    /// Enqueues one pre-framed buffer on the `from → to` ring, behind an
    /// optional durability gate the writer thread honors before flushing
    /// the frame.
    fn enqueue(
        &mut self,
        from: ReplicaId,
        to: ReplicaId,
        frame: Arc<[u8]>,
        payload_len: usize,
        gate: Option<SendGate>,
    ) {
        self.stats.messages += 1;
        self.stats.bytes += payload_len as u64;
        if self.recorder.enabled() {
            self.recorder.add(names::NET_FRAMES_SENT, 1);
            self.recorder
                .add(names::NET_FRAME_BYTES, frame.len() as u64);
        }
        // A severed link counts like a network drop, as does a ring
        // whose connection died. A full ring blocks the sender until the
        // writer drains it: that is this transport's backpressure.
        let Some(ring) = self.rings[from.as_usize()][to.as_usize()].as_ref() else {
            self.stats.dropped += 1;
            return;
        };
        if ring.push_blocking_gated(frame, gate) {
            self.shared.notifier.signal();
        } else {
            self.stats.dropped += 1;
        }
    }

    /// Severs the `from → to` connection — what the receiving endpoint
    /// observes when the sender's process dies. The writer drains any
    /// queued frames, shuts the socket down, the I/O thread reads the
    /// EOF and counts a disconnect in [`Transport::stats`]; later sends
    /// on the severed link count as drops.
    pub fn sever(&mut self, from: ReplicaId, to: ReplicaId) {
        if let Some(ring) = self.rings[from.as_usize()][to.as_usize()].take() {
            ring.close();
            self.shared.notifier.signal();
        }
    }
}

impl Transport for TcpCluster {
    fn replica_count(&self) -> usize {
        self.n
    }

    fn send_to(&mut self, from: ReplicaId, dest: Dest, payload: Arc<[u8]>, gate: Option<SendGate>) {
        let len = payload.len();
        // One encoding, one frame; a broadcast is n − 1 reference-counted
        // enqueues of it.
        let env = Envelope {
            src: from,
            dest,
            protocol: self.protocol,
            payload,
        };
        let frame: Arc<[u8]> = env.to_frame().into();
        match dest {
            Dest::Peer(to) => self.enqueue(from, to, frame, len, gate),
            Dest::Broadcast => {
                for to in (0..self.n as u16).map(ReplicaId::new) {
                    if to != from {
                        self.enqueue(from, to, Arc::clone(&frame), len, gate.clone());
                    }
                }
            }
        }
    }

    fn poll_deliver(&mut self, deadline: SimTime) -> Vec<Delivery> {
        self.inbox.wait(self.now(), deadline);
        let out = self.inbox.take_peers(self.now());
        self.delivered += out.len() as u64;
        out
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn next_deliver_at(&self) -> Option<SimTime> {
        None
    }

    fn is_idle(&self) -> bool {
        // Everything sent has been received by the I/O thread *and*
        // popped by the run loop. Exact on loopback, where frames are
        // never lost.
        !self.inbox.has_staged_peers()
            && self.delivered + self.stats.dropped >= self.stats.messages
            && self.shared.received.load(Ordering::SeqCst) + self.stats.dropped
                >= self.stats.messages
    }

    fn stats(&self) -> NetworkStats {
        let mut stats = self.stats;
        stats.disconnects = self.shared.disconnects.load(Ordering::SeqCst);
        stats
    }

    fn poll_clients(&mut self) -> Vec<ClientDelivery> {
        self.inbox.take_clients()
    }

    fn send_client(&mut self, conn: u64, replica: ReplicaId, payload: Arc<[u8]>) {
        let (ring, dest) = {
            let clients = self.shared.clients.lock().expect("client registry");
            let Some(client) = clients.get(&conn) else {
                return; // connection gone; clients own retries
            };
            (Arc::clone(&client.ring), client.dest)
        };
        let frame = Envelope::to_peer(replica, dest, ProtocolTag::Client, payload).to_frame();
        // A client that stopped reading fills its ring and then holds the
        // run loop here, like a peer would: backpressure, not loss. One
        // that hung up closed its ring, and the ack is dropped.
        if ring.push_blocking_gated(frame.into(), None) {
            self.shared.notifier.signal();
        }
    }
}

impl Drop for TcpCluster {
    fn drop(&mut self) {
        // The writer makes one last pass and exits, the I/O thread when
        // its wake socket hangs up. Nothing still queued matters: every
        // receiver is an endpoint of this same cluster.
        self.shared.closing.store(true, Ordering::SeqCst);
        self.shared.notifier.signal();
        let _ = self.wake.shutdown(Shutdown::Both);
        for handle in [self.writer.take(), self.io.take()].into_iter().flatten() {
            let _ = handle.join();
        }
    }
}

/// The cluster's single writer: round-robins every connection, flushing
/// its ring onto the non-blocking socket. Sleeps on the notifier while
/// there is nothing to write — behind a closed durability gate too: the
/// WAL's wake hook announces its opening — and arms [`FLUSH_RETRY`] only
/// while some kernel buffer pushes back. A pass that moved bytes records
/// `phase_net_flush_ns` and its `net_write_syscalls`.
fn flush_loop(mut conns: Vec<WriterConn>, shared: &Shared) {
    loop {
        // Read before the pass: a close flagged mid-pass gets one more.
        let closing = shared.closing.load(Ordering::SeqCst);
        conns.append(&mut shared.accepted.lock().expect("accepted clients"));
        let recorder = shared.recorder();
        let flush = PhaseTimer::start(&*recorder);
        let mut writes = 0;
        let mut blocked = false;
        conns.retain_mut(|conn| {
            let (wrote, status) = conn.ring.flush_nonblocking(&mut conn.stream);
            writes += wrote;
            match status {
                Flush::Clean | Flush::Gated => true,
                Flush::Blocked => {
                    blocked = true;
                    true
                }
                Flush::Done => {
                    let _ = conn.stream.shutdown(Shutdown::Write);
                    false
                }
                Flush::Dead => {
                    // Later sends on this ring fail and count as drops;
                    // the reading side of the socket sees it end.
                    conn.ring.close();
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    false
                }
            }
        });
        if writes > 0 {
            flush.finish(&*recorder, names::PHASE_NET_FLUSH_NS);
            recorder.add(names::NET_WRITE_SYSCALLS, writes);
        }
        if closing {
            return;
        }
        shared.notifier.wait(blocked.then_some(FLUSH_RETRY));
    }
}

/// One descriptor the I/O thread waits on.
enum Source {
    /// Readable (hung up) once the cluster shuts its end down.
    Wake(UnixStream),
    /// An endpoint's listener, accepting that replica's clients.
    Listener(TcpListener, ReplicaId),
    /// The accepted end of one mesh connection.
    Peer(TcpStream, FrameDecoder),
    /// The reading half of a client connection: its gateway-assigned id
    /// and the ring feeding the writing half, which the writer owns.
    Client(TcpStream, FrameDecoder, u64, Arc<OutRing>),
}

impl Source {
    fn fd(&self) -> RawFd {
        match self {
            Source::Wake(s) => s.as_raw_fd(),
            Source::Listener(l, _) => l.as_raw_fd(),
            Source::Peer(s, _) | Source::Client(s, ..) => s.as_raw_fd(),
        }
    }
}

/// Reads `stream` into `decoder` until it has no more (a read that did
/// not fill `chunk` emptied the socket; had it not, `poll` reports the
/// socket again). Returns whether the connection is still open.
fn read_ready(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    chunk: &mut [u8],
    decoded: &mut Vec<Delivery>,
    reads: &mut u64,
) -> bool {
    loop {
        *reads += 1;
        match decoder.read_from(stream, chunk, decoded) {
            Ok(read) if read == chunk.len() => {}
            Ok(_) => return true,
            Err(_) => return false,
        }
    }
}

/// Accepts every connection waiting on `listener` as a client of
/// `replica`: the reading half joins the I/O thread's sources, the
/// writing half goes to the writer thread. Returns false when the
/// listener itself failed (it is then dropped rather than polled hot).
fn accept_clients(
    listener: &TcpListener,
    replica: ReplicaId,
    next_conn: &mut u64,
    shared: &Shared,
    accepted: &mut Vec<Source>,
) -> bool {
    use io::ErrorKind::{ConnectionAborted, Interrupted, WouldBlock};
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == WouldBlock => return true,
            Err(e) if matches!(e.kind(), Interrupted | ConnectionAborted) => continue,
            Err(_) => return false,
        };
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
            continue; // died before it said anything
        }
        let ring = OutRing::new();
        shared
            .accepted
            .lock()
            .expect("accepted clients")
            .push(WriterConn {
                stream: write_half,
                ring: Arc::clone(&ring),
            });
        let decoder = FrameDecoder::new(replica, ProtocolTag::Client);
        accepted.push(Source::Client(stream, decoder, *next_conn, ring));
        *next_conn += 1;
    }
}

/// The cluster's single reader: blocks in `poll(2)` over every source
/// and services the ready ones — accepts clients, reads sockets into
/// their decoders, and queues what they yield on `inbound`. Every peer
/// connection lost — EOF, socket error, or protocol violation — bumps
/// `disconnects`, so a dropped peer is observable in [`NetworkStats`]
/// instead of vanishing silently. Each wake-up counts into
/// `net_reader_wakeups`, its reads into `net_read_syscalls`. Exits when
/// the cluster drops (its wake end, or the queue's receiver).
fn io_loop(mut sources: Vec<Source>, inbound: &Sender<Inbound>, shared: &Shared) {
    let mut poll = PollSet::default();
    for source in &sources {
        poll.push(source.fd());
    }
    let mut chunk = vec![0u8; 64 * 1024];
    let mut decoded = Vec::new();
    let mut accepted = Vec::new();
    let mut next_conn = 0u64;
    loop {
        poll.wait()
            .expect("poll(2) over descriptors this thread owns");
        let mut reads = 0;
        // Backwards, so a removal (the last source takes the vacated
        // index) only ever moves a source this pass has already seen.
        for i in (0..sources.len()).rev() {
            if !poll.is_ready(i) {
                continue;
            }
            let open = match &mut sources[i] {
                Source::Wake(_) => return,
                Source::Listener(listener, replica) => {
                    accept_clients(listener, *replica, &mut next_conn, shared, &mut accepted)
                }
                Source::Peer(stream, decoder) => {
                    let open = read_ready(stream, decoder, &mut chunk, &mut decoded, &mut reads);
                    for delivery in decoded.drain(..) {
                        shared.received.fetch_add(1, Ordering::SeqCst);
                        if inbound.send(Inbound::Peer(delivery)).is_err() {
                            return; // cluster gone
                        }
                    }
                    if !open {
                        shared.disconnects.fetch_add(1, Ordering::SeqCst);
                    }
                    open
                }
                Source::Client(stream, decoder, conn, ring) => {
                    let greeted = decoder.src().is_some();
                    let open = read_ready(stream, decoder, &mut chunk, &mut decoded, &mut reads);
                    // Acks are addressed to the identity the hello
                    // claimed, so a client is routable from there on.
                    if let (false, Some(dest)) = (greeted, decoder.src()) {
                        let ring = Arc::clone(ring);
                        let mut clients = shared.clients.lock().expect("client registry");
                        clients.insert(*conn, ClientOut { ring, dest });
                    }
                    for delivery in decoded.drain(..) {
                        let request = ClientDelivery {
                            conn: *conn,
                            replica: delivery.to,
                            payload: delivery.payload,
                        };
                        if inbound.send(Inbound::Client(request)).is_err() {
                            return; // cluster gone
                        }
                    }
                    if !open {
                        // Hung up or broke protocol: unroute it and let
                        // the writer drop the other half of the socket.
                        let mut clients = shared.clients.lock().expect("client registry");
                        clients.remove(conn);
                        ring.close();
                        shared.notifier.signal();
                    }
                    open
                }
            };
            if !open {
                sources.swap_remove(i);
                poll.swap_remove(i);
            }
        }
        for source in accepted.drain(..) {
            poll.push(source.fd());
            sources.push(source);
        }
        let recorder = shared.recorder();
        recorder.add(names::NET_READER_WAKEUPS, 1);
        recorder.add(names::NET_READ_SYSCALLS, reads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_types::SimDuration;
    use std::io::Read;

    fn collect(cluster: &mut TcpCluster, want: usize) -> Vec<Delivery> {
        let deadline = cluster.now() + SimDuration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < want && cluster.now() < deadline {
            got.extend(cluster.poll_deliver(cluster.now() + SimDuration::from_millis(50)));
        }
        got
    }

    #[test]
    fn broadcast_reaches_every_other_endpoint() {
        let mut cluster = TcpCluster::loopback(4, ProtocolTag::Streamlet).unwrap();
        let payload: Arc<[u8]> = vec![0xab, 0xcd].into();
        cluster.broadcast(ReplicaId::new(2), Arc::clone(&payload));
        let got = collect(&mut cluster, 3);
        let mut to: Vec<u16> = got.iter().map(|d| d.to.as_u16()).collect();
        to.sort_unstable();
        assert_eq!(to, vec![0, 1, 3]);
        assert!(got.iter().all(|d| d.from == ReplicaId::new(2)));
        assert!(got.iter().all(|d| d.payload[..] == payload[..]));
        assert_eq!(
            cluster.stats(),
            NetworkStats {
                messages: 3,
                bytes: 6,
                dropped: 0,
                disconnects: 0
            },
            "byte accounting matches the simulator's per-recipient charge"
        );
        assert!(cluster.is_idle());
    }

    #[test]
    fn point_to_point_sends_reach_exactly_one_peer() {
        let mut cluster = TcpCluster::loopback(3, ProtocolTag::Fbft).unwrap();
        cluster.send(ReplicaId::new(0), ReplicaId::new(2), vec![1].into());
        cluster.send(ReplicaId::new(1), ReplicaId::new(0), vec![2].into());
        let got = collect(&mut cluster, 2);
        assert_eq!(got.len(), 2);
        let pair: std::collections::HashSet<(u16, u16)> = got
            .iter()
            .map(|d| (d.from.as_u16(), d.to.as_u16()))
            .collect();
        assert!(pair.contains(&(0, 2)));
        assert!(pair.contains(&(1, 0)));
    }

    #[test]
    fn poll_returns_empty_after_a_quiet_deadline() {
        let mut cluster = TcpCluster::loopback(2, ProtocolTag::Fbft).unwrap();
        let before = cluster.now();
        let out = cluster.poll_deliver(before + SimDuration::from_millis(20));
        assert!(out.is_empty());
        assert!(cluster.now() >= before + SimDuration::from_millis(15));
        assert!(cluster.is_idle());
    }

    #[test]
    fn severed_connection_is_a_counted_disconnect() {
        let mut cluster = TcpCluster::loopback(2, ProtocolTag::Fbft).unwrap();
        assert_eq!(cluster.stats().disconnects, 0);
        cluster.sever(ReplicaId::new(0), ReplicaId::new(1));
        // The reader notices the EOF asynchronously; wait for the count.
        let deadline = Instant::now() + Duration::from_secs(5);
        while cluster.stats().disconnects == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            cluster.stats().disconnects,
            1,
            "a dropped peer is a counted event, not a silent reader exit"
        );
        // Traffic toward the severed link degrades to counted drops.
        cluster.send(ReplicaId::new(0), ReplicaId::new(1), vec![9].into());
        assert_eq!(cluster.stats().dropped, 1);
    }

    #[test]
    fn deliveries_are_stamped_with_arrival_order() {
        let mut cluster = TcpCluster::loopback(2, ProtocolTag::Fbft).unwrap();
        for i in 0..5u8 {
            cluster.send(ReplicaId::new(0), ReplicaId::new(1), vec![i].into());
        }
        let got = collect(&mut cluster, 5);
        // One connection: TCP preserves order, and seqs are monotone.
        let payloads: Vec<u8> = got.iter().map(|d| d.payload[0]).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
        assert!(got.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    /// Polls the gateway until it yields something or `secs` elapse.
    fn poll_clients_until(cluster: &mut TcpCluster, secs: u64) -> Vec<ClientDelivery> {
        let deadline = Instant::now() + Duration::from_secs(secs);
        loop {
            let got = cluster.poll_clients();
            if !got.is_empty() || Instant::now() >= deadline {
                return got;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn client_gateway_routes_requests_in_and_acks_back() {
        let mut cluster = TcpCluster::loopback(2, ProtocolTag::Fbft).unwrap();
        let replica = ReplicaId::new(1);
        let mut sock = TcpStream::connect(cluster.client_addr(replica)).unwrap();
        sock.set_nodelay(true).unwrap();
        // A client identity is just the u16 its hello claims — it shares
        // the namespace with nothing (client frames never reach engines).
        let me = ReplicaId::new(77);
        let hello = Envelope::to_peer(me, replica, ProtocolTag::Client, Vec::new()).to_frame();
        sock.write_all(&hello).unwrap();
        let request = vec![0xAA, 0xBB, 0xCC];
        let frame = Envelope::to_peer(me, replica, ProtocolTag::Client, request.clone()).to_frame();
        sock.write_all(&frame).unwrap();

        let got = poll_clients_until(&mut cluster, 5);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].replica, replica);
        assert_eq!(got[0].payload[..], request[..]);

        cluster.send_client(got[0].conn, replica, vec![0x5e].into());
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = Vec::new();
        let mut tmp = [0u8; 1024];
        let env = loop {
            let n = sock.read(&mut tmp).expect("ack within the timeout");
            assert!(n > 0, "gateway closed instead of acking");
            buf.extend_from_slice(&tmp[..n]);
            if let Some((env, _)) = Envelope::decode_frame(&buf).unwrap() {
                break env;
            }
        };
        assert_eq!(env.src, replica);
        assert_eq!(env.protocol, ProtocolTag::Client);
        assert_eq!(
            env.payload[..],
            [0x5e],
            "ack addressed back to the claimant"
        );
        // Replica traffic and client traffic never mix queues.
        assert!(cluster.is_idle());
    }

    #[test]
    fn client_speaking_a_replica_protocol_is_disconnected() {
        let mut cluster = TcpCluster::loopback(2, ProtocolTag::Fbft).unwrap();
        let replica = ReplicaId::new(0);
        let mut sock = TcpStream::connect(cluster.client_addr(replica)).unwrap();
        // Consensus-tagged frames through the client door are a
        // violation: the gateway must never forward them to an engine.
        let bogus =
            Envelope::to_peer(ReplicaId::new(9), replica, ProtocolTag::Fbft, vec![1]).to_frame();
        sock.write_all(&bogus).unwrap();
        let got = poll_clients_until(&mut cluster, 2);
        assert!(got.is_empty(), "violating frames yield no deliveries");
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut tmp = [0u8; 16];
        assert_eq!(sock.read(&mut tmp).unwrap(), 0, "gateway hung up");
    }

    #[test]
    fn acks_to_a_departed_client_are_dropped_not_fatal() {
        let mut cluster = TcpCluster::loopback(2, ProtocolTag::Fbft).unwrap();
        let replica = ReplicaId::new(0);
        {
            let mut sock = TcpStream::connect(cluster.client_addr(replica)).unwrap();
            let hello =
                Envelope::to_peer(ReplicaId::new(5), replica, ProtocolTag::Client, Vec::new())
                    .to_frame();
            sock.write_all(&hello).unwrap();
            let frame = Envelope::to_peer(ReplicaId::new(5), replica, ProtocolTag::Client, vec![7])
                .to_frame();
            sock.write_all(&frame).unwrap();
            let got = poll_clients_until(&mut cluster, 5);
            assert_eq!(got.len(), 1);
            // Socket drops here.
        }
        // The conn id may briefly outlive the socket; both the stale-id
        // and the already-reaped paths must be silent no-ops.
        cluster.send_client(0, replica, vec![1].into());
        cluster.poll_clients();
        cluster.send_client(0, replica, vec![2].into());
        cluster.send_client(999, replica, vec![3].into());
    }

    #[test]
    fn a_client_that_stops_reading_gets_every_ack_whole_once_it_reads_again() {
        const ACKS: u32 = 10_000;
        const ACK_LEN: usize = 4096; // 40 MB in all: no socket buffer hides that
        let mut cluster = TcpCluster::loopback(2, ProtocolTag::Fbft).unwrap();
        let replica = ReplicaId::new(0);
        let mut sock = TcpStream::connect(cluster.client_addr(replica)).unwrap();
        let me = ReplicaId::new(9);
        for payload in [Vec::new(), vec![1]] {
            let frame = Envelope::to_peer(me, replica, ProtocolTag::Client, payload).to_frame();
            sock.write_all(&frame).unwrap();
        }
        let conn = poll_clients_until(&mut cluster, 5)[0].conn;

        // The sender owns the cluster and counts what it has queued; it
        // stalls in `send_client` once the ring and the kernel are full.
        let sent = Arc::new(AtomicU64::new(0));
        let sender = std::thread::spawn({
            let sent = Arc::clone(&sent);
            move || {
                for i in 0..ACKS {
                    let mut ack = vec![0u8; ACK_LEN];
                    ack[..4].copy_from_slice(&i.to_be_bytes());
                    cluster.send_client(conn, replica, ack.into());
                    sent.fetch_add(1, Ordering::SeqCst);
                }
                cluster // keep it alive until every ack is read
            }
        });
        // Not reading, until the sender has made no progress for 100 ms.
        let mut seen = 0;
        loop {
            std::thread::sleep(Duration::from_millis(100));
            let now = sent.load(Ordering::SeqCst);
            if now == seen {
                break;
            }
            seen = now;
        }
        assert!(seen < u64::from(ACKS), "pushback reached the sender");

        // Reading again: every ack arrives, whole and in order.
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = vec![0u8; 256 * 1024];
        let mut next = 0u32;
        while next < ACKS {
            let read = sock.read(&mut chunk).expect("acks keep coming");
            assert!(read > 0, "gateway closed with acks outstanding");
            buf.extend_from_slice(&chunk[..read]);
            let mut used = 0;
            while let Some((env, len)) = Envelope::decode_frame(&buf[used..]).unwrap() {
                used += len;
                assert_eq!(env.payload.len(), ACK_LEN, "no ack torn");
                assert_eq!(env.payload[..4], next.to_be_bytes(), "in send order");
                next += 1;
            }
            buf.drain(..used);
        }
        assert!(buf.is_empty(), "nothing after the last ack");
        drop(sender.join().unwrap());
    }

    #[test]
    fn frames_larger_than_socket_buffers_arrive_whole() {
        // A payload far beyond the loopback kernel buffer forces the
        // writer through its partial-write path (WouldBlock mid-frame,
        // cursor resume on a later pass).
        let mut cluster = TcpCluster::loopback(2, ProtocolTag::Fbft).unwrap();
        let payload: Arc<[u8]> = vec![0x5a; 8 * 1024 * 1024].into();
        cluster.send(ReplicaId::new(1), ReplicaId::new(0), Arc::clone(&payload));
        let got = collect(&mut cluster, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload.len(), payload.len());
        assert!(got[0].payload[..] == payload[..], "no bytes torn");
    }
}
