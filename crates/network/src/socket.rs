//! One socket core for both real-socket transports.
//!
//! [`TcpCluster`](crate::TcpCluster) (every endpoint of a loopback mesh
//! in one process) and [`NodeTransport`](crate::NodeTransport) (one
//! replica of a multi-process deployment) are one type,
//! [`SocketTransport`], and differ only in how their connections come to
//! be. Everything after that is written once here, on at most three
//! threads for any `n` and any number of clients, none of which polls:
//!
//! - **one I/O thread** blocks in `poll(2)` (the `readiness` module) over
//!   the listeners, every accepted connection and a wake-up socket, and
//!   reads only what is ready. The first frame of an accepted connection
//!   decides what it is: a [`ProtocolTag::Client`] hello makes it a
//!   client, a hello in the transport's protocol naming another replica
//!   makes it a peer, anything else is hung up on. Per-connection
//!   `FrameDecoder`s turn the bytes into validated deliveries on **one
//!   inbound queue**, so a run loop blocked in `poll_deliver` wakes on a
//!   peer frame and a client request alike, and `poll_clients` is a drain
//!   with no syscall in it. An idle transport costs no CPU at all.
//! - **one writer thread** drains every `OutRing` onto its non-blocking
//!   socket — every gate-open frame of a pass in one vectored write,
//!   partial writes resumed where the kernel pushed back. It sleeps until
//!   an enqueue or a completed fsync (the WAL's wake hook) signals it;
//!   only a socket that pushed back arms a retry timer, because a kernel
//!   buffer draining signals nobody.
//! - **one dialer thread**, when peers live in other processes: it
//!   connects each peer with capped exponential backoff, sends the hello,
//!   and hands the socket to the writer. When a dialled connection dies,
//!   the writer rewinds its ring to the torn frame's first byte and gives
//!   the peer back to the dialer, so the frame goes out whole on the next
//!   connection.
//!
//! A send is framed once and fanned out as `Arc` clones, one per ring. A
//! destination with no ring — the sender itself, an id outside the
//! replica set, a severed link — is a counted drop, never a panic. What
//! a full ring means is the transport's one policy choice: the
//! in-process mesh blocks the sender (lossless backpressure), a remote
//! peer's ring drops and counts (the peer block-syncs what it missed).
//! Client acks never wait: a client whose ring is full stopped reading,
//! and is hung up on.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SendError, Sender};
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

/// First redial delay after a failed connect; doubles per failure up to
/// [`BACKOFF_CAP`].
const BACKOFF_FLOOR: Duration = Duration::from_millis(50);

/// Ceiling on the redial backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// How long one connect may take: bounds how long the dialer — and so a
/// transport being dropped — waits on a peer that never answers.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Connects `from`'s link to `to` at `addr`: the hello naming `from`
/// leads the stream, and the socket is left non-blocking for the writer.
pub(crate) fn dial(
    from: ReplicaId,
    to: ReplicaId,
    addr: SocketAddr,
    protocol: ProtocolTag,
) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.write_all(&Envelope::to_peer(from, to, protocol, Vec::new()).to_frame())?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// One outbound connection as the writer thread owns it.
struct WriterConn {
    stream: TcpStream,
    ring: Arc<OutRing>,
    /// For a dialled peer, its index in the dialer's table: redialled
    /// when the connection dies. `None` for mesh links and clients,
    /// whose ring closes with the connection.
    redial: Option<usize>,
}

/// A peer link the dialer keeps connected.
struct Dial {
    from: ReplicaId,
    to: ReplicaId,
    addr: SocketAddr,
    ring: Arc<OutRing>,
}

/// Where a client's acks go: its ring, and the identity its hello
/// claimed (what the ack frames are addressed to).
struct ClientOut {
    ring: Arc<OutRing>,
    dest: ReplicaId,
}

/// What the run loop and the core's threads share.
struct Shared {
    n: usize,
    protocol: ProtocolTag,
    /// Wakes the writer thread after an enqueue on any ring.
    notifier: Arc<Notifier>,
    /// Read through a slot: the threads start before `set_recorder`.
    recorder: Mutex<SharedRecorder>,
    /// Set by `Drop`: the writer makes one last pass and exits, the
    /// dialer stops dialling.
    closing: AtomicBool,
    /// Freshly connected outbound sockets — clients' write halves from
    /// the I/O thread, dialled peers from the dialer — on their way to
    /// the writer thread.
    handoff: Mutex<Vec<WriterConn>>,
    /// Client connections by gateway-assigned id, from hello to hang-up.
    clients: Mutex<HashMap<u64, ClientOut>>,
    /// Peer frames queued for the run loop (`is_idle` compares it with
    /// `stats.messages`).
    received: AtomicU64,
    /// Peer connections lost (EOF, socket error, protocol violation, a
    /// dialled link failing): a counted event in [`NetworkStats`].
    disconnects: AtomicU64,
}

impl Shared {
    fn recorder(&self) -> SharedRecorder {
        self.recorder.lock().expect("recorder slot").clone()
    }

    /// Queues a connected socket for the writer and wakes it.
    fn hand_off(&self, conn: WriterConn) {
        self.handoff.lock().expect("writer handoff").push(conn);
        self.notifier.signal();
    }
}

/// Everything a transport hands the core to start: its links, its
/// listeners, and its full-ring policy.
pub(crate) struct Wiring {
    n: usize,
    protocol: ProtocolTag,
    lossless: bool,
    rings: Vec<Vec<Option<Arc<OutRing>>>>,
    sources: Vec<Source>,
    conns: Vec<WriterConn>,
    dials: Vec<Dial>,
}

impl Wiring {
    /// No links yet for `n` replicas speaking `protocol`. A `lossless`
    /// transport blocks a sender on a full peer ring; otherwise the frame
    /// is a counted drop.
    pub(crate) fn new(n: usize, protocol: ProtocolTag, lossless: bool) -> Self {
        Self {
            n,
            protocol,
            lossless,
            rings: (0..n).map(|_| (0..n).map(|_| None).collect()).collect(),
            sources: Vec::new(),
            conns: Vec::new(),
            dials: Vec::new(),
        }
    }

    fn ring(&mut self, from: ReplicaId, to: ReplicaId) -> Arc<OutRing> {
        let ring = OutRing::new();
        self.rings[from.as_usize()][to.as_usize()] = Some(Arc::clone(&ring));
        ring
    }

    /// `from`'s link to `to` over an already connected `stream`.
    pub(crate) fn connected(&mut self, from: ReplicaId, to: ReplicaId, stream: TcpStream) {
        let ring = self.ring(from, to);
        self.conns.push(WriterConn {
            stream,
            ring,
            redial: None,
        });
    }

    /// `from`'s link to `to`, which the dialer connects at `addr` — and
    /// reconnects for as long as the transport lives.
    pub(crate) fn dial(&mut self, from: ReplicaId, to: ReplicaId, addr: SocketAddr) {
        let ring = self.ring(from, to);
        self.dials.push(Dial {
            from,
            to,
            addr,
            ring,
        });
    }

    /// A connection `owner` accepted; its hello will say what it is.
    pub(crate) fn accepted(&mut self, stream: TcpStream, owner: ReplicaId) -> io::Result<()> {
        let conn = Conn::accept(stream, owner, self.n, self.protocol)?;
        self.sources.push(Source::Conn(conn));
        Ok(())
    }

    /// `owner`'s listener: every connection it accepts is served.
    pub(crate) fn listen(&mut self, listener: TcpListener, owner: ReplicaId) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.sources.push(Source::Listener(listener, owner));
        Ok(())
    }
}

/// A [`Transport`] over real sockets, on one I/O thread and one writer
/// (plus a dialer when peers live in other processes) for any `n` and any
/// number of clients. `K` is what the kind of transport knows beyond
/// that: [`TcpCluster`](crate::TcpCluster) is the loopback mesh,
/// [`NodeTransport`](crate::NodeTransport) one replica's endpoint.
///
/// The [`Transport`] time source is wall-clock microseconds since
/// construction, expressed as [`SimTime`]: engines built for the
/// simulator run unchanged; only the meaning of a microsecond differs.
pub struct SocketTransport<K> {
    pub(crate) kind: K,
    n: usize,
    protocol: ProtocolTag,
    lossless: bool,
    /// The transport clock's zero.
    start: Instant,
    /// `rings[from][to]` for every link this process sends on; `None`
    /// where there is none (self-delivery is the harness's job).
    rings: Vec<Vec<Option<Arc<OutRing>>>>,
    shared: Arc<Shared>,
    /// Peer deliveries and client requests, as the I/O thread queued them.
    inbox: Inbox,
    delivered: u64,
    /// Peer traffic; `dropped` counts peer frames only, so the lossless
    /// mesh's idleness check stays exact.
    stats: NetworkStats,
    /// Acks that never reached their client.
    client_drops: u64,
    /// Shut down on drop, which makes the I/O thread's end readable: its
    /// cue to exit.
    wake: UnixStream,
    threads: Vec<JoinHandle<()>>,
    /// Frame-level counters; the no-op recorder until one is installed.
    recorder: SharedRecorder,
}

impl<K> SocketTransport<K> {
    /// Spawns the I/O thread, the writer, and — if `wiring` dials any
    /// peer — the dialer.
    pub(crate) fn start(kind: K, wiring: Wiring, recorder: SharedRecorder) -> io::Result<Self> {
        let Wiring {
            n,
            protocol,
            lossless,
            rings,
            mut sources,
            conns,
            dials,
        } = wiring;
        let (wake, woken) = UnixStream::pair()?;
        sources.push(Source::Wake(woken));
        let shared = Arc::new(Shared {
            n,
            protocol,
            notifier: Notifier::new(),
            recorder: Mutex::new(Arc::clone(&recorder)),
            closing: AtomicBool::new(false),
            handoff: Mutex::new(Vec::new()),
            clients: Mutex::new(HashMap::new()),
            received: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
        });
        let (inbound, inbox) = Inbox::new();
        let (redial, redials) = mpsc::channel();
        let mut threads = vec![
            spawn("sft-tcp-io", &shared, move |shared| {
                io_loop(sources, &inbound, shared);
            })?,
            spawn("sft-tcp-writer", &shared, move |shared| {
                flush_loop(conns, &redial, shared);
            })?,
        ];
        if !dials.is_empty() {
            threads.push(spawn("sft-tcp-dialer", &shared, move |shared| {
                dial_loop(&dials, &redials, shared);
            })?);
        }
        Ok(Self {
            kind,
            n,
            protocol,
            lossless,
            start: Instant::now(),
            rings,
            shared,
            inbox,
            delivered: 0,
            stats: NetworkStats::default(),
            client_drops: 0,
            wake,
            threads,
            recorder,
        })
    }

    /// Threads this transport owns: the I/O thread and the writer, plus
    /// the dialer when it dials its peers — for any `n` and any number of
    /// clients. The number a thread budget should be held to: unlike a
    /// process-wide count, it does not move when another transport runs
    /// beside this one.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Installs a live recorder: every enqueued frame counts into
    /// `net_frames_sent` / `net_frame_bytes`, every writer pass that
    /// moved bytes times itself into `phase_net_flush_ns` and counts its
    /// `net_write_syscalls`, the I/O thread counts `net_reader_wakeups`
    /// and `net_read_syscalls`, and the dialer `net_reconnect_attempts`,
    /// `net_backoff_sleeps` and `net_backoff_sleep_ms`.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        *self.shared.recorder.lock().expect("recorder slot") = Arc::clone(&recorder);
        self.recorder = recorder;
    }

    /// A hook that wakes the writer thread. Hand it to the group-commit
    /// WAL whose watermark gates this transport's frames: the writer does
    /// not poll a closed gate, so a completed fsync releases the frames
    /// behind it only through this signal.
    pub fn writer_wake_hook(&self) -> Box<dyn Fn() + Send + Sync> {
        let notifier = Arc::clone(&self.shared.notifier);
        Box::new(move || notifier.signal())
    }

    /// Moves the clock's zero to `start`.
    pub(crate) fn set_start(&mut self, start: Instant) {
        self.start = start;
    }

    /// Closes the `from → to` link: the writer drains what is queued and
    /// shuts the socket down; later sends on it count as drops.
    pub(crate) fn close_link(&mut self, from: ReplicaId, to: ReplicaId) {
        let link = self
            .rings
            .get_mut(from.as_usize())
            .and_then(|row| row.get_mut(to.as_usize()));
        if let Some(ring) = link.and_then(Option::take) {
            ring.close();
            self.shared.notifier.signal();
        }
    }

    /// Enqueues one pre-framed buffer on the `from → to` ring, behind
    /// an optional durability gate the writer honors.
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
        // No ring — the sender itself, an id outside the replica set (a
        // hostile sync request can name one), a severed link — is a
        // counted drop, as is a closed ring or a remote peer's full one.
        let ring = self
            .rings
            .get(from.as_usize())
            .and_then(|row| row.get(to.as_usize()));
        let queued = match ring.and_then(Option::as_ref) {
            None => false,
            Some(ring) if self.lossless => ring.push_blocking_gated(frame, gate),
            Some(ring) => ring.push_gated(frame, gate),
        };
        if queued {
            self.shared.notifier.signal();
        } else {
            self.stats.dropped += 1;
        }
    }
}

impl<K> Transport for SocketTransport<K> {
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
        // Nothing staged for the run loop. A lone endpoint cannot know
        // what its peers still have in flight; a lossless mesh, whose
        // every receiver is here, also knows everything sent was
        // received and popped.
        let settled = |count: u64| count + self.stats.dropped >= self.stats.messages;
        !self.inbox.has_staged_peers()
            && (!self.lossless
                || settled(self.delivered) && settled(self.shared.received.load(Ordering::SeqCst)))
    }

    fn stats(&self) -> NetworkStats {
        let mut stats = self.stats;
        stats.dropped += self.client_drops;
        stats.disconnects = self.shared.disconnects.load(Ordering::SeqCst);
        stats
    }

    fn poll_clients(&mut self) -> Vec<ClientDelivery> {
        self.inbox.take_clients()
    }

    /// Queues an ack for client `conn` without ever waiting on it. An ack
    /// that finds the client gone, or its ring full — it stopped reading,
    /// and is hung up on, its queued acks with it — is a counted drop.
    fn send_client(&mut self, conn: u64, replica: ReplicaId, payload: Arc<[u8]>) {
        let (ring, dest) = {
            let clients = self.shared.clients.lock().expect("client registry");
            let Some(client) = clients.get(&conn) else {
                self.client_drops += 1; // connection gone; clients own retries
                return;
            };
            (Arc::clone(&client.ring), client.dest)
        };
        let frame = Envelope::to_peer(replica, dest, ProtocolTag::Client, payload).to_frame();
        self.client_drops += ring.push_or_cut_off(frame.into());
        self.shared.notifier.signal();
    }
}

impl<K> Drop for SocketTransport<K> {
    fn drop(&mut self) {
        // The writer makes one last pass and exits (dropping the redial
        // line, which ends the dialer), the I/O thread when its wake
        // socket hangs up.
        self.shared.closing.store(true, Ordering::SeqCst);
        self.shared.notifier.signal();
        let _ = self.wake.shutdown(Shutdown::Both);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawns one of the core's threads, named `name`, running `body`.
fn spawn(
    name: &str,
    shared: &Arc<Shared>,
    body: impl FnOnce(&Shared) + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || body(&shared))
}

/// The single writer: round-robins every connection, flushing its ring
/// onto the non-blocking socket. Sleeps on the notifier while there is
/// nothing to write — behind a closed durability gate too: the WAL's wake
/// hook announces its opening — and arms [`FLUSH_RETRY`] only while some
/// kernel buffer pushes back. A pass that moved bytes records
/// `phase_net_flush_ns` and its `net_write_syscalls`.
fn flush_loop(mut conns: Vec<WriterConn>, redial: &Sender<usize>, shared: &Shared) {
    loop {
        // Read before the pass: a close flagged mid-pass gets one more.
        let closing = shared.closing.load(Ordering::SeqCst);
        conns.append(&mut shared.handoff.lock().expect("writer handoff"));
        let recorder = shared.recorder();
        let flush = PhaseTimer::start(&*recorder);
        let mut writes = 0;
        let mut blocked = false;
        conns.retain_mut(|conn| {
            let (wrote, status) = conn.ring.flush_nonblocking(&mut conn.stream);
            writes += wrote;
            match status {
                Flush::Clean | Flush::Gated => return true,
                Flush::Blocked => {
                    blocked = true;
                    return true;
                }
                Flush::Done => {}
                Flush::Dead => match conn.redial {
                    // The torn frame goes out whole on the next
                    // connection; frames keep queuing meanwhile.
                    Some(peer) => {
                        conn.ring.rewind();
                        shared.disconnects.fetch_add(1, Ordering::SeqCst);
                        let _ = redial.send(peer);
                    }
                    // Later sends on this ring fail and count as drops.
                    None => conn.ring.close(),
                },
            }
            // The reading side — ours for a client, the peer's for a
            // link — sees the connection end.
            let _ = conn.stream.shutdown(Shutdown::Both);
            false
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

/// The dialer: connects every link in `dials`, each failure pushing that
/// peer's next attempt back by a doubling backoff (counted into
/// `net_reconnect_attempts`, `net_backoff_sleeps` and
/// `net_backoff_sleep_ms`), and hands each connected socket to the
/// writer. Sleeps on `redials` — the writer's report of a dead link,
/// dialled again at once — and exits when the writer is gone.
fn dial_loop(dials: &[Dial], redials: &Receiver<usize>, shared: &Shared) {
    // Per link: when to dial next, and the backoff should that fail;
    // `None` while connected.
    let mut due: Vec<Option<(Instant, Duration)>> =
        vec![Some((Instant::now(), BACKOFF_FLOOR)); dials.len()];
    loop {
        for (i, link) in dials.iter().enumerate() {
            let Some((at, backoff)) = due[i] else {
                continue;
            };
            if at > Instant::now() {
                continue;
            }
            if shared.closing.load(Ordering::SeqCst) {
                return;
            }
            let recorder = shared.recorder();
            recorder.add(names::NET_RECONNECT_ATTEMPTS, 1);
            match dial(link.from, link.to, link.addr, shared.protocol) {
                Ok(stream) => {
                    due[i] = None;
                    shared.hand_off(WriterConn {
                        stream,
                        ring: Arc::clone(&link.ring),
                        redial: Some(i),
                    });
                }
                Err(_) => {
                    recorder.add(names::NET_BACKOFF_SLEEPS, 1);
                    recorder.add(names::NET_BACKOFF_SLEEP_MS, backoff.as_millis() as u64);
                    due[i] = Some((Instant::now() + backoff, (backoff * 2).min(BACKOFF_CAP)));
                }
            }
        }
        let woke = match due.iter().flatten().map(|(at, _)| *at).min() {
            Some(at) => redials.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => redials.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match woke {
            Ok(i) => due[i] = Some((Instant::now(), BACKOFF_FLOOR)),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// One descriptor the I/O thread waits on.
enum Source {
    /// Readable (hung up) once the transport shuts its end down.
    Wake(UnixStream),
    /// A replica's listener, accepting peers and clients alike.
    Listener(TcpListener, ReplicaId),
    /// An accepted connection.
    Conn(Conn),
}

impl Source {
    fn fd(&self) -> RawFd {
        match self {
            Source::Wake(s) => s.as_raw_fd(),
            Source::Listener(l, _) => l.as_raw_fd(),
            Source::Conn(conn) => conn.stream.as_raw_fd(),
        }
    }
}

/// The reading half of an accepted connection. What it is — peer or
/// client — is what its decoder's hello says.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// A client's gateway-assigned id and ack ring, from its hello on.
    client: Option<(u64, Arc<OutRing>)>,
}

impl Conn {
    fn accept(
        stream: TcpStream,
        owner: ReplicaId,
        n: usize,
        protocol: ProtocolTag,
    ) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(owner, n, protocol),
            client: None,
        })
    }

    /// Hands what a read decoded to the run loop — a peer's frames or a
    /// client's requests, as the hello made this connection — and winds
    /// the connection down once it is no longer `open`. Every peer
    /// connection lost bumps `disconnects`. Returns whether the
    /// connection stays open; `Err` once the transport is gone.
    fn deliver(
        &mut self,
        open: bool,
        decoded: &mut Vec<Delivery>,
        inbound: &Sender<Inbound>,
        shared: &Shared,
        next_client: &mut u64,
    ) -> Result<bool, SendError<Inbound>> {
        let Some(hello) = self.decoder.hello() else {
            return Ok(open); // nothing but (part of) a hello, or a bad one
        };
        if hello.tag != ProtocolTag::Client {
            for delivery in decoded.drain(..) {
                shared.received.fetch_add(1, Ordering::SeqCst);
                inbound.send(Inbound::Peer(delivery))?;
            }
            if !open {
                shared.disconnects.fetch_add(1, Ordering::SeqCst);
            }
            return Ok(open);
        }
        if self.client.is_none() {
            // Acks are addressed to the identity the hello claimed, and
            // leave through a ring of the client's own.
            let Ok(stream) = self.stream.try_clone() else {
                decoded.clear();
                return Ok(false);
            };
            let ring = OutRing::new();
            let dest = hello.src;
            let client = ClientOut {
                ring: Arc::clone(&ring),
                dest,
            };
            shared
                .clients
                .lock()
                .expect("client registry")
                .insert(*next_client, client);
            shared.hand_off(WriterConn {
                stream,
                ring: Arc::clone(&ring),
                redial: None,
            });
            self.client = Some((*next_client, ring));
            *next_client += 1;
        }
        let (conn, ring) = self.client.as_ref().expect("registered above");
        for delivery in decoded.drain(..) {
            inbound.send(Inbound::Client(ClientDelivery {
                conn: *conn,
                replica: delivery.to,
                payload: delivery.payload,
            }))?;
        }
        if !open {
            // Hung up or broke protocol: unroute it and let the writer
            // drop the other half of the socket.
            shared.clients.lock().expect("client registry").remove(conn);
            ring.close();
            shared.notifier.signal();
        }
        Ok(open)
    }
}

/// Reads `conn` into its decoder until the socket has no more (a read
/// that did not fill `chunk` emptied it; had it not, `poll` reports the
/// socket again). Returns whether the connection is still open.
fn read_ready(
    conn: &mut Conn,
    chunk: &mut [u8],
    decoded: &mut Vec<Delivery>,
    reads: &mut u64,
) -> bool {
    loop {
        *reads += 1;
        match conn.decoder.read_from(&mut conn.stream, chunk, decoded) {
            Ok(read) if read == chunk.len() => {}
            Ok(_) => return true,
            Err(_) => return false,
        }
    }
}

/// Accepts every connection waiting on `listener` into `accepted`.
/// Returns false when the listener itself failed (it is then dropped
/// rather than polled hot).
fn accept_all(
    listener: &TcpListener,
    owner: ReplicaId,
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
        // One that died before it said anything is simply not served.
        if let Ok(conn) = Conn::accept(stream, owner, shared.n, shared.protocol) {
            accepted.push(Source::Conn(conn));
        }
    }
}

/// The single reader: blocks in `poll(2)` over every source and services
/// the ready ones — accepts connections, reads sockets into their
/// decoders, and queues what they yield on `inbound`. Each wake-up
/// counts into `net_reader_wakeups`, its reads into `net_read_syscalls`.
/// Exits when the transport drops (its wake end, or the queue's
/// receiver).
fn io_loop(mut sources: Vec<Source>, inbound: &Sender<Inbound>, shared: &Shared) {
    let mut poll = PollSet::default();
    for source in &sources {
        poll.push(source.fd());
    }
    let mut chunk = vec![0u8; 64 * 1024];
    let mut decoded = Vec::new();
    let mut accepted = Vec::new();
    let mut next_client = 0u64;
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
                Source::Listener(listener, owner) => {
                    accept_all(listener, *owner, shared, &mut accepted)
                }
                Source::Conn(conn) => {
                    let open = read_ready(conn, &mut chunk, &mut decoded, &mut reads);
                    match conn.deliver(open, &mut decoded, inbound, shared, &mut next_client) {
                        Ok(open) => open,
                        Err(_) => return, // transport gone
                    }
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
