//! One socket core for both real-socket transports.
//!
//! [`TcpCluster`](crate::TcpCluster) (every endpoint of a loopback mesh
//! in one process) and [`NodeTransport`](crate::NodeTransport) (one
//! replica of a multi-process deployment) are one type,
//! [`SocketTransport`], and differ only in how their connections come to
//! be. Everything after that is written once here, and runs on the thread
//! that calls the transport: its I/O is part of
//! [`Transport::poll_deliver`] and [`Transport::poll_clients`], so a frame
//! crosses no thread between the run loop that sends it and the one that
//! receives it. Each poll
//!
//! 1. flushes every ring that may hold a gate-open frame onto its
//!    non-blocking socket — every such frame of a pass in one vectored
//!    write, partial writes resumed where the kernel pushed back;
//! 2. reads every ready socket into staged deliveries;
//! 3. only when nothing is staged, waits until the deadline, to the
//!    microsecond, in one `epoll(7)` set (the `readiness` module) that
//!    holds the listeners and every accepted connection (level-triggered
//!    for reading), every outbound socket (edge-triggered for room, which
//!    returns only after a push back, because a kernel buffer draining
//!    signals nothing else) and a waker that the WAL's completed fsyncs
//!    make ready ([`SocketTransport::wake_hook`]). Every descriptor is
//!    registered once, so a wake-up costs what is ready, not what is
//!    connected, and an idle transport costs no CPU at all.
//!
//! The first frame of an accepted connection decides what it is: a
//! [`ProtocolTag::Client`] hello makes it a client, a hello in the
//! transport's protocol naming another replica makes it a peer, anything
//! else is hung up on. When peers live in other processes, one thread —
//! the dialer — connects each peer with capped exponential backoff, sends
//! the hello, and hands the socket over through a channel plus the
//! waker. When a dialled connection dies, its ring rewinds to the torn
//! frame's first byte and the peer goes back to the dialer, so the frame
//! goes out whole on the next connection.
//!
//! A send is framed once and fanned out as `Arc` clones, one per ring. A
//! destination with no ring — the sender itself, an id outside the
//! replica set, a severed link — is a counted drop, never a panic. What
//! a full ring means is the transport's one policy choice: the
//! in-process mesh pumps its own sockets until there is room (lossless
//! backpressure: the receiver is in this process, and reading it is what
//! makes room), a remote peer's ring drops and counts (the peer
//! block-syncs what it missed). Client acks never wait: a client whose
//! ring is full stopped reading, and is hung up on.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sft_obs::{names, PhaseTimer, SharedRecorder};
use sft_types::{Dest, Envelope, ProtocolTag, ReplicaId, SendGate, SimTime};

use crate::frame::FrameDecoder;
use crate::outbox::{Flush, OutRing};
use crate::readiness::{PollSet, Waker};
use crate::{ClientDelivery, Delivery, NetworkStats, Transport};

/// First redial delay after a failed connect; doubles per failure up to
/// [`BACKOFF_CAP`].
const BACKOFF_FLOOR: Duration = Duration::from_millis(50);

/// Ceiling on the redial backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// How long one connect may take: bounds how long the dialer — and so a
/// transport being dropped — waits on a peer that never answers.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Longest wait of a sender pumping its sockets for room in a full mesh
/// ring before it asks the ring's gates again: room, an arrival and a
/// completed fsync all end the wait sooner.
const PUMP_WAIT: Duration = Duration::from_millis(10);

/// Size of the buffer each read fills.
const READ_CHUNK: usize = 64 * 1024;

/// The waker's token. An accepted connection or listener in slot `s`
/// of the sources is reported as `2s`, an outbound socket in slot `s` of
/// the rings as `2s + 1`.
const WAKER: u64 = u64::MAX;

fn source_token(slot: usize) -> u64 {
    (slot as u64) << 1
}

fn out_token(slot: usize) -> u64 {
    (slot as u64) << 1 | 1
}

/// Connects `from`'s link to `to` at `addr`: the hello naming `from`
/// leads the stream, and the socket is left non-blocking for the flush.
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

/// Values under numbered slots, which a removal frees for reuse: what a
/// readiness token names.
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(value);
                slot
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut T> {
        self.slots.get_mut(slot)?.as_mut()
    }

    /// Takes the value out while its slot stays reserved; [`put`](Self::put)
    /// brings it back, [`free`](Self::free) lets the slot go.
    fn take(&mut self, slot: usize) -> Option<T> {
        self.slots.get_mut(slot)?.take()
    }

    fn put(&mut self, slot: usize, value: T) {
        self.slots[slot] = Some(value);
    }

    fn free(&mut self, slot: usize) {
        self.free.push(slot);
    }

    fn remove(&mut self, slot: usize) -> Option<T> {
        let value = self.take(slot)?;
        self.free(slot);
        Some(value)
    }
}

/// What an outbound connection carries.
#[derive(Clone, Copy)]
enum Role {
    /// A mesh link, connected once: it ends with its connection.
    Link { from: ReplicaId, to: ReplicaId },
    /// A peer the dialer keeps connected, by its index in the dialer's
    /// table: a dead connection goes back to the dialer, the ring stays.
    Dialled(usize),
    /// A client's acks, under its gateway id, addressed to the identity
    /// its hello claimed.
    Client { conn: u64, dest: ReplicaId },
}

/// One outbound connection: its ring and, while connected, its socket.
struct Out {
    ring: OutRing,
    /// `None` while a dialled peer waits for the dialer.
    stream: Option<TcpStream>,
    role: Role,
    /// In the transport's flush list.
    listed: bool,
}

/// A peer link the dialer keeps connected.
struct Dial {
    from: ReplicaId,
    to: ReplicaId,
    addr: SocketAddr,
}

/// One readable descriptor.
enum Source {
    /// A replica's listener, accepting peers and clients alike.
    Listener(TcpListener, ReplicaId),
    /// An accepted connection.
    Conn(Conn),
}

impl Source {
    fn fd(&self) -> std::os::fd::RawFd {
        match self {
            Source::Listener(listener, _) => listener.as_raw_fd(),
            Source::Conn(conn) => conn.stream.as_raw_fd(),
        }
    }
}

/// The reading half of an accepted connection. What it is — peer or
/// client — is what its decoder's hello says.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// A client's gateway-assigned id, from its hello on.
    client: Option<u64>,
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
}

/// Everything a transport hands the core to start: its links, its
/// listeners, and its full-ring policy.
pub(crate) struct Wiring {
    n: usize,
    protocol: ProtocolTag,
    lossless: bool,
    links: Vec<(ReplicaId, ReplicaId, TcpStream)>,
    dials: Vec<Dial>,
    sources: Vec<Source>,
}

impl Wiring {
    /// No links yet for `n` replicas speaking `protocol`. A `lossless`
    /// transport makes room in a full peer ring before it sends;
    /// otherwise the frame is a counted drop.
    pub(crate) fn new(n: usize, protocol: ProtocolTag, lossless: bool) -> Self {
        Self {
            n,
            protocol,
            lossless,
            links: Vec::new(),
            dials: Vec::new(),
            sources: Vec::new(),
        }
    }

    /// `from`'s link to `to` over an already connected `stream`.
    pub(crate) fn connected(&mut self, from: ReplicaId, to: ReplicaId, stream: TcpStream) {
        self.links.push((from, to, stream));
    }

    /// `from`'s link to `to`, which the dialer connects at `addr` — and
    /// reconnects for as long as the transport lives.
    pub(crate) fn dial(&mut self, from: ReplicaId, to: ReplicaId, addr: SocketAddr) {
        self.dials.push(Dial { from, to, addr });
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

/// The run loop's end of the dialer thread.
struct DialerHandle {
    thread: JoinHandle<()>,
    /// Peers whose connection died, by dialer index: dial again.
    redial: Sender<usize>,
    /// Connected sockets, by dialer index.
    connected: Receiver<(usize, TcpStream)>,
    /// Set on drop: the dialer stops between connects.
    closing: Arc<AtomicBool>,
    /// The ring slot of each dialled peer.
    outs: Vec<usize>,
}

/// A [`Transport`] over real sockets whose I/O runs on the calling
/// thread (plus a dialer thread when peers live in other processes) for
/// any `n` and any number of clients. `K` is what the kind of transport
/// knows beyond that: [`TcpCluster`](crate::TcpCluster) is the loopback
/// mesh, [`NodeTransport`](crate::NodeTransport) one replica's endpoint.
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
    ready: PollSet,
    /// The tokens the last wait reported (kept for its allocation).
    tokens: Vec<u64>,
    /// Ends a wait: the WAL's completed fsyncs and the dialer's handoffs.
    waker: Arc<Waker>,
    sources: Slab<Source>,
    outs: Slab<Out>,
    /// `links[from][to]`: the ring slot of every link this process sends
    /// on; `None` where there is none (self-delivery is the harness's
    /// job).
    links: Vec<Vec<Option<usize>>>,
    /// Client ack rings by gateway id, from hello to hang-up.
    clients: HashMap<u64, usize>,
    next_client: u64,
    /// Ring slots the next flush writes: queued frames and no push back
    /// to wait out.
    flush_list: Vec<usize>,
    /// The read buffer.
    chunk: Vec<u8>,
    /// What the last read decoded.
    decoded: Vec<Delivery>,
    /// Peer deliveries read and not yet handed out.
    peers: Vec<Delivery>,
    /// Client requests read and not yet handed out.
    requests: Vec<ClientDelivery>,
    /// Arrival order stamped on peer deliveries.
    next_seq: u64,
    delivered: u64,
    /// Peer traffic; `dropped` counts peer frames only, so the lossless
    /// mesh's idleness check stays exact.
    stats: NetworkStats,
    /// Acks that never reached their client.
    client_drops: u64,
    dialer: Option<DialerHandle>,
    /// Frame-level counters; the no-op recorder until one is installed.
    recorder: SharedRecorder,
}

impl<K> SocketTransport<K> {
    /// Registers every socket of `wiring` and — if it dials any peer —
    /// spawns the dialer.
    ///
    /// # Errors
    ///
    /// The OS error when a readiness set or waker cannot be made, a
    /// socket cannot be registered, or the dialer cannot start.
    pub(crate) fn start(kind: K, wiring: Wiring, recorder: SharedRecorder) -> io::Result<Self> {
        let Wiring {
            n,
            protocol,
            lossless,
            links,
            dials,
            sources,
        } = wiring;
        let ready = PollSet::new()?;
        let waker = Arc::new(Waker::new()?);
        ready.add_waker(&waker, WAKER)?;
        let mut transport = Self {
            kind,
            n,
            protocol,
            lossless,
            start: Instant::now(),
            ready,
            tokens: Vec::new(),
            waker,
            sources: Slab::new(),
            outs: Slab::new(),
            links: vec![vec![None; n]; n],
            clients: HashMap::new(),
            next_client: 0,
            flush_list: Vec::new(),
            chunk: vec![0; READ_CHUNK],
            decoded: Vec::new(),
            peers: Vec::new(),
            requests: Vec::new(),
            next_seq: 0,
            delivered: 0,
            stats: NetworkStats::default(),
            client_drops: 0,
            dialer: None,
            recorder,
        };
        for source in sources {
            transport.watch(source)?;
        }
        for (from, to, stream) in links {
            let slot = transport.attach(Role::Link { from, to }, Some(stream))?;
            transport.links[from.as_usize()][to.as_usize()] = Some(slot);
        }
        if !dials.is_empty() {
            transport.spawn_dialer(dials)?;
        }
        Ok(transport)
    }

    /// Starts the dialer on `dials`, each with a ring that queues until
    /// its first connection.
    fn spawn_dialer(&mut self, dials: Vec<Dial>) -> io::Result<()> {
        let mut outs = Vec::with_capacity(dials.len());
        for (peer, link) in dials.iter().enumerate() {
            let slot = self.attach(Role::Dialled(peer), None)?;
            self.links[link.from.as_usize()][link.to.as_usize()] = Some(slot);
            outs.push(slot);
        }
        let (redial, redials) = mpsc::channel();
        let (handoff, connected) = mpsc::channel();
        let closing = Arc::new(AtomicBool::new(false));
        let dialer = Dialer {
            dials,
            protocol: self.protocol,
            redials,
            handoff,
            waker: Arc::clone(&self.waker),
            closing: Arc::clone(&closing),
            recorder: Arc::clone(&self.recorder),
        };
        let thread = std::thread::Builder::new()
            .name("sft-tcp-dialer".into())
            .spawn(move || dialer.run())?;
        self.dialer = Some(DialerHandle {
            thread,
            redial,
            connected,
            closing,
            outs,
        });
        Ok(())
    }

    /// Threads this transport owns: the dialer when it dials its peers,
    /// none otherwise — for any `n` and any number of clients. The number
    /// a thread budget should be held to: unlike a process-wide count, it
    /// does not move when another transport runs beside this one.
    pub fn thread_count(&self) -> usize {
        usize::from(self.dialer.is_some())
    }

    /// Installs a live recorder: every enqueued frame counts into
    /// `net_frames_sent` / `net_frame_bytes`, every flush that moved bytes
    /// times itself into `phase_net_flush_ns` and counts its
    /// `net_write_syscalls`, every wait that returned readiness counts
    /// into `net_reader_wakeups` and its reads into `net_read_syscalls`.
    /// The dialer counts `net_reconnect_attempts`, `net_backoff_sleeps`
    /// and `net_backoff_sleep_ms` into the recorder the transport was
    /// built with.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
    }

    /// A hook that ends this transport's wait. Hand it to the group-commit
    /// WAL whose watermark gates this transport's frames: a transport
    /// asleep in a poll does not look at a closed gate, so a completed
    /// fsync releases the frames behind it only through this signal.
    pub fn wake_hook(&self) -> Box<dyn Fn() + Send + Sync> {
        let waker = Arc::clone(&self.waker);
        Box::new(move || waker.wake())
    }

    /// Moves the clock's zero to `start`.
    pub(crate) fn set_start(&mut self, start: Instant) {
        self.start = start;
    }

    /// Closes the `from → to` link: what is queued drains and the socket
    /// is shut down; later sends on it count as drops.
    pub(crate) fn close_link(&mut self, from: ReplicaId, to: ReplicaId) {
        let link = self
            .links
            .get_mut(from.as_usize())
            .and_then(|row| row.get_mut(to.as_usize()));
        if let Some(slot) = link.and_then(Option::take) {
            if let Some(out) = self.outs.get_mut(slot) {
                out.ring.close();
            }
            self.list(slot, false);
        }
    }

    /// Registers `source` for reading under a slot of its own.
    fn watch(&mut self, source: Source) -> io::Result<()> {
        let fd = source.fd();
        let slot = self.sources.insert(source);
        self.ready.add(fd, source_token(slot)).inspect_err(|_| {
            self.sources.remove(slot);
        })
    }

    /// A new outbound ring for `role`, its socket (if connected yet)
    /// watched for room.
    fn attach(&mut self, role: Role, stream: Option<TcpStream>) -> io::Result<usize> {
        let slot = self.outs.insert(Out {
            ring: OutRing::new(),
            stream: None,
            role,
            listed: false,
        });
        if let Some(stream) = stream {
            if let Err(e) = self.connect(slot, stream) {
                self.outs.remove(slot);
                return Err(e);
            }
        }
        Ok(slot)
    }

    /// Gives ring `slot` its connection.
    fn connect(&mut self, slot: usize, stream: TcpStream) -> io::Result<()> {
        self.ready
            .add_writable(stream.as_raw_fd(), out_token(slot))?;
        if let Some(out) = self.outs.get_mut(slot) {
            out.stream = Some(stream);
        }
        self.list(slot, false);
        Ok(())
    }

    /// Puts ring `slot` on the flush list, unless it is there already or
    /// its socket pushed back and has not reported `room` since: the wait
    /// lists it when it does.
    fn list(&mut self, slot: usize, room: bool) {
        if let Some(out) = self.outs.get_mut(slot) {
            if !out.listed && (room || !out.ring.is_pushed_back()) {
                out.listed = true;
                self.flush_list.push(slot);
            }
        }
    }

    /// Enqueues one pre-framed buffer on the `from → to` ring, behind
    /// an optional durability gate the flush honors.
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
        // Making room pumps the sockets, which may end the link itself.
        let link = |transport: &Self| {
            transport
                .links
                .get(from.as_usize())
                .and_then(|row| row.get(to.as_usize()))
                .copied()
                .flatten()
        };
        if self.lossless {
            if let Some(slot) = link(self) {
                self.make_room(slot);
            }
        }
        let queued = link(self).filter(|&slot| {
            self.outs
                .get_mut(slot)
                .is_some_and(|out| out.ring.push_gated(frame, gate))
        });
        match queued {
            Some(slot) => self.list(slot, false),
            None => self.stats.dropped += 1,
        }
    }

    /// The lossless mesh's backpressure without a thread to wait on:
    /// while ring `slot` is full, asks for its gates and pumps this
    /// transport's own sockets — the receiver is among them, and reading
    /// it is what makes room.
    fn make_room(&mut self, slot: usize) {
        loop {
            match self.outs.get_mut(slot) {
                Some(out) if out.ring.is_full() && !out.ring.is_closed() => {
                    out.ring.request_gates();
                }
                _ => return,
            }
            self.turn(PUMP_WAIT);
        }
    }

    /// One turn of the transport's I/O: adopts what the dialer
    /// connected, flushes the flush list, then waits up to `timeout` for
    /// readiness and serves what is reported — reads into the staged
    /// deliveries, lists sockets with room again.
    fn turn(&mut self, timeout: Duration) {
        self.adopt_dialled();
        self.flush();
        let mut tokens = std::mem::take(&mut self.tokens);
        // invariant: a wait fails only on a bad descriptor or buffer, and
        // the set owns both. Were it ever to, the turn serves nothing and
        // the caller's deadline still ends its poll.
        if self.ready.wait(Some(timeout), &mut tokens).is_ok() && !tokens.is_empty() {
            let mut reads = 0;
            for &token in &tokens {
                match token {
                    // The waker only ends the wait: every turn flushes
                    // what a gate released and adopts what was dialled.
                    WAKER => {}
                    // Room again after a push back (or a socket's first
                    // report, when it joins).
                    _ if token & 1 == 1 => self.list((token >> 1) as usize, true),
                    _ => self.serve((token >> 1) as usize, &mut reads),
                }
            }
            self.recorder.add(names::NET_READER_WAKEUPS, 1);
            self.recorder.add(names::NET_READ_SYSCALLS, reads);
        }
        self.tokens = tokens;
    }

    /// Gives each socket the dialer connected to its ring.
    fn adopt_dialled(&mut self) {
        let arrived: Vec<(usize, usize, TcpStream)> = match &self.dialer {
            Some(dialer) => dialer
                .connected
                .try_iter()
                .map(|(peer, stream)| (peer, dialer.outs[peer], stream))
                .collect(),
            None => return,
        };
        for (peer, slot, stream) in arrived {
            if self.connect(slot, stream).is_err() {
                // Unwatched, a socket that pushed back would never be
                // flushed again: dial anew instead.
                if let Some(dialer) = &self.dialer {
                    let _ = dialer.redial.send(peer);
                }
            }
        }
    }

    /// Writes every listed ring onto its socket. A ring whose front frame
    /// waits on a closed gate stays listed; one that drained or pushed
    /// back leaves the list, and one that is done or dead is given up.
    /// A flush that moved bytes records `phase_net_flush_ns` and its
    /// `net_write_syscalls`.
    fn flush(&mut self) {
        if self.flush_list.is_empty() {
            return;
        }
        let timer = PhaseTimer::start(&*self.recorder);
        let mut writes = 0;
        let mut ended = Vec::new();
        let outs = &mut self.outs;
        self.flush_list.retain(|&slot| {
            let Some(out) = outs.get_mut(slot) else {
                return false;
            };
            let Some(stream) = &mut out.stream else {
                out.listed = false; // waits for the dialer
                return false;
            };
            let (wrote, status) = out.ring.flush_nonblocking(stream);
            writes += wrote;
            if status == Flush::Gated {
                return true;
            }
            out.listed = false;
            if matches!(status, Flush::Done | Flush::Dead) {
                ended.push((slot, status == Flush::Dead));
            }
            false
        });
        for (slot, dead) in ended {
            self.give_up(slot, dead);
        }
        if writes > 0 {
            timer.finish(&*self.recorder, names::PHASE_NET_FLUSH_NS);
            self.recorder.add(names::NET_WRITE_SYSCALLS, writes);
        }
    }

    /// Ends ring `slot`'s connection. A `dead` dialled link rewinds to
    /// its torn frame, which goes out whole on the next connection (frames
    /// keep queuing meanwhile), and goes back to the dialer; any other
    /// ring goes, and later sends to it count as drops. Either way the
    /// reading side — ours for a client, the peer's for a link — sees the
    /// connection end.
    fn give_up(&mut self, slot: usize, dead: bool) {
        let Some(out) = self.outs.get_mut(slot) else {
            return;
        };
        if let Some(stream) = out.stream.take() {
            self.ready.remove(stream.as_raw_fd());
            let _ = stream.shutdown(Shutdown::Both);
        }
        match out.role {
            Role::Dialled(peer) => {
                if dead {
                    out.ring.rewind();
                    self.stats.disconnects += 1;
                    if let Some(dialer) = &self.dialer {
                        let _ = dialer.redial.send(peer);
                    }
                }
                return;
            }
            Role::Link { from, to } => {
                if self.links[from.as_usize()][to.as_usize()] == Some(slot) {
                    self.links[from.as_usize()][to.as_usize()] = None;
                }
            }
            Role::Client { conn, .. } => {
                self.clients.remove(&conn);
            }
        }
        self.outs.remove(slot);
    }

    /// Serves readable source `slot`: accepts what waits on a listener,
    /// or reads a connection and stages what it decoded. A connection
    /// that ended, or broke protocol, is hung up on.
    fn serve(&mut self, slot: usize, reads: &mut u64) {
        // Out of its slot while served, which stays reserved meanwhile.
        let Some(mut source) = self.sources.take(slot) else {
            return;
        };
        let open = match &mut source {
            Source::Listener(listener, owner) => {
                let mut accepted = Vec::new();
                let open = accept_all(listener, &mut accepted);
                for stream in accepted {
                    // One that died before it said anything, or that the
                    // set cannot take, is simply not served.
                    if let Ok(conn) = Conn::accept(stream, *owner, self.n, self.protocol) {
                        let _ = self.watch(Source::Conn(conn));
                    }
                }
                open
            }
            Source::Conn(conn) => {
                let open = read_ready(conn, &mut self.chunk, &mut self.decoded, reads);
                self.deliver(conn, open)
            }
        };
        if open {
            self.sources.put(slot, source);
        } else {
            self.ready.remove(source.fd());
            self.sources.free(slot);
        }
    }

    /// Stages what a read of `conn` decoded — a peer's frames or a
    /// client's requests, as the hello made the connection — and winds
    /// the connection down once it is no longer `open`. Every peer
    /// connection lost bumps `disconnects`. Returns whether it stays open.
    fn deliver(&mut self, conn: &mut Conn, open: bool) -> bool {
        let Some(hello) = conn.decoder.hello() else {
            return open; // nothing but (part of) a hello, or a bad one
        };
        if hello.tag != ProtocolTag::Client {
            for mut delivery in self.decoded.drain(..) {
                delivery.seq = self.next_seq;
                self.next_seq += 1;
                self.peers.push(delivery);
            }
            if !open {
                self.stats.disconnects += 1;
            }
            return open;
        }
        let id = match conn.client {
            Some(id) => id,
            None => {
                // Acks are addressed to the identity the hello claimed,
                // and leave through a ring of the client's own.
                let id = self.next_client;
                let dest = hello.src;
                let attached = conn
                    .stream
                    .try_clone()
                    .and_then(|stream| self.attach(Role::Client { conn: id, dest }, Some(stream)));
                let Ok(slot) = attached else {
                    self.decoded.clear();
                    return false;
                };
                self.clients.insert(id, slot);
                self.next_client += 1;
                conn.client = Some(id);
                id
            }
        };
        for delivery in self.decoded.drain(..) {
            self.requests.push(ClientDelivery {
                conn: id,
                replica: delivery.to,
                payload: delivery.payload,
            });
        }
        if !open {
            // Unrouted at once; its ring drains what it can and hangs up
            // (a socket the client closed unread fails the write at once).
            if let Some(slot) = self.clients.remove(&id) {
                if let Some(out) = self.outs.get_mut(slot) {
                    out.ring.close();
                }
                self.list(slot, true);
            }
        }
        open
    }

    /// Whether deliveries or requests wait to be handed out.
    fn staged(&self) -> bool {
        !self.peers.is_empty() || !self.requests.is_empty()
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
        let frame = env.to_shared_frame();
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

    /// Flushes, reads what is ready, and — only while nothing is staged,
    /// peer frame or client request — waits for readiness until
    /// `deadline`, never past it and never short of it.
    fn poll_deliver(&mut self, deadline: SimTime) -> Vec<Delivery> {
        loop {
            let now = self.now();
            let wait = if self.staged() || now >= deadline {
                Duration::ZERO
            } else {
                Duration::from_micros((deadline - now).as_micros())
            };
            self.turn(wait);
            if self.staged() || self.now() >= deadline {
                break;
            }
        }
        let now = self.now();
        let mut out = std::mem::take(&mut self.peers);
        for delivery in &mut out {
            delivery.deliver_at = now;
        }
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
        // received and handed out.
        self.peers.is_empty()
            && (!self.lossless || self.delivered + self.stats.dropped >= self.stats.messages)
    }

    fn stats(&self) -> NetworkStats {
        let mut stats = self.stats;
        stats.dropped += self.client_drops;
        stats
    }

    /// Flushes and reads what is ready, never waiting, and hands out the
    /// client requests staged so far.
    fn poll_clients(&mut self) -> Vec<ClientDelivery> {
        self.turn(Duration::ZERO);
        std::mem::take(&mut self.requests)
    }

    /// Queues an ack for client `conn` without ever waiting on it. An ack
    /// that finds the client gone, or its ring full — it stopped reading,
    /// and is hung up on, its queued acks with it — is a counted drop.
    fn send_client(&mut self, conn: u64, replica: ReplicaId, payload: Arc<[u8]>) {
        let Some(&slot) = self.clients.get(&conn) else {
            self.client_drops += 1; // connection gone; clients own retries
            return;
        };
        let Some(out) = self.outs.get_mut(slot) else {
            return;
        };
        let Role::Client { dest, .. } = out.role else {
            return;
        };
        let frame =
            Envelope::to_peer(replica, dest, ProtocolTag::Client, payload).to_shared_frame();
        self.client_drops += out.ring.push_or_cut_off(frame);
        self.list(slot, false);
    }
}

impl<K> Drop for SocketTransport<K> {
    fn drop(&mut self) {
        // One last flush: what is queued and sendable goes out, as far
        // as each socket takes it without waiting.
        self.flush();
        if let Some(dialer) = self.dialer.take() {
            // A closed redial line ends the dialer's wait, the flag its
            // round of connects.
            dialer.closing.store(true, Ordering::SeqCst);
            drop(dialer.redial);
            let _ = dialer.thread.join();
        }
    }
}

/// Reads `conn` into its decoder until the socket has no more (a read
/// that did not fill `chunk` emptied it; had it not, the set reports
/// the socket again). Returns whether the connection is still open.
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
fn accept_all(listener: &TcpListener, accepted: &mut Vec<TcpStream>) -> bool {
    use io::ErrorKind::{ConnectionAborted, Interrupted, WouldBlock};
    loop {
        match listener.accept() {
            Ok((stream, _)) => accepted.push(stream),
            Err(e) if e.kind() == WouldBlock => return true,
            Err(e) if matches!(e.kind(), Interrupted | ConnectionAborted) => {}
            Err(_) => return false,
        }
    }
}

/// The dialer thread: connects every link in `dials` and hands each
/// socket to the run loop.
struct Dialer {
    dials: Vec<Dial>,
    protocol: ProtocolTag,
    /// The run loop's report of a dead link, dialled again at once.
    redials: Receiver<usize>,
    handoff: Sender<(usize, TcpStream)>,
    /// Makes the run loop look at `handoff`.
    waker: Arc<Waker>,
    closing: Arc<AtomicBool>,
    recorder: SharedRecorder,
}

impl Dialer {
    /// Dials every link, each failure pushing that peer's next attempt
    /// back by a doubling backoff (counted into `net_reconnect_attempts`,
    /// `net_backoff_sleeps` and `net_backoff_sleep_ms`). Sleeps on the
    /// redial line between attempts, and exits when the transport is gone.
    fn run(self) {
        // Per link: when to dial next, and the backoff should that fail;
        // `None` while connected.
        let mut due: Vec<Option<(Instant, Duration)>> =
            vec![Some((Instant::now(), BACKOFF_FLOOR)); self.dials.len()];
        loop {
            for (i, link) in self.dials.iter().enumerate() {
                let Some((at, backoff)) = due[i] else {
                    continue;
                };
                if at > Instant::now() {
                    continue;
                }
                if self.closing.load(Ordering::SeqCst) {
                    return;
                }
                self.recorder.add(names::NET_RECONNECT_ATTEMPTS, 1);
                match dial(link.from, link.to, link.addr, self.protocol) {
                    Ok(stream) => {
                        due[i] = None;
                        if self.handoff.send((i, stream)).is_err() {
                            return;
                        }
                        self.waker.wake();
                    }
                    Err(_) => {
                        self.recorder.add(names::NET_BACKOFF_SLEEPS, 1);
                        self.recorder
                            .add(names::NET_BACKOFF_SLEEP_MS, backoff.as_millis() as u64);
                        due[i] = Some((Instant::now() + backoff, (backoff * 2).min(BACKOFF_CAP)));
                    }
                }
            }
            let woke = match due.iter().flatten().map(|(at, _)| *at).min() {
                Some(at) => self
                    .redials
                    .recv_timeout(at.saturating_duration_since(Instant::now())),
                None => self
                    .redials
                    .recv()
                    .map_err(|_| RecvTimeoutError::Disconnected),
            };
            match woke {
                Ok(i) => due[i] = Some((Instant::now(), BACKOFF_FLOOR)),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}
