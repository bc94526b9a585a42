//! Real-socket transport: a loopback TCP mesh speaking length-prefixed
//! [`Envelope`] frames.
//!
//! Hand-rolled on `std::net` + threads — the build environment has no
//! registry access, so there is no async runtime to lean on, and none is
//! needed: the FeBFT shape (typed envelopes consumed from an
//! executor-agnostic transport) works just as well over a small poll
//! loop on non-blocking sockets.
//!
//! ## Architecture
//!
//! A [`TcpCluster`] hosts `n` replica endpoints in one process, connected
//! full-mesh over `127.0.0.1` ephemeral ports. The thread model is
//! O(n), not O(n²) — at n = 121 the previous
//! one-thread-per-direction design would have needed ~29k threads for
//! 14 520 connections; this one needs 122:
//!
//! - every ordered pair `(i → j)` still gets its own TCP connection, but
//!   outbound frames queue on a per-connection `OutRing` and **one
//!   writer thread** drains all `n(n − 1)` rings onto non-blocking
//!   sockets, resuming partial writes where the kernel pushed back. A
//!   broadcast enqueues one shared pre-framed buffer on `n − 1` rings
//!   (encode once, `Arc` fan-out, exactly like the simulator), and a
//!   full ring blocks the sender — bounded memory, no silent loss;
//! - each endpoint gets **one reader thread** multiplexing its `n − 1`
//!   accepted connections: non-blocking reads feed per-connection
//!   `FrameDecoder`s, validated [`Delivery`]s land in one **shared
//!   inbound queue** the run loop polls, and an idle endpoint backs off
//!   its poll sleep (10 µs doubling to 2 ms) so quiet meshes cost
//!   near-zero CPU without adding tail latency under load.
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

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sft_obs::{names, PhaseTimer, SharedRecorder};
use sft_types::{Envelope, ProtocolTag, ReplicaId, SendGate, SimTime};

use crate::frame::FrameDecoder;
use crate::outbox::{Flush, Notifier, OutRing};
use crate::{ClientDelivery, Delivery, NetworkStats, Transport};

/// Endpoint readers back off their poll sleep from here…
const READ_IDLE_MIN: Duration = Duration::from_micros(10);
/// …up to here while their connections stay silent.
const READ_IDLE_MAX: Duration = Duration::from_millis(2);
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

/// One accepted client connection, owned by the gateway and serviced
/// from the run-loop thread (no thread of its own): the non-blocking
/// socket, the [`ProtocolTag::Client`] decoder, the replica whose
/// listener accepted it, and any ack bytes the kernel pushed back on.
struct ClientConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    replica: ReplicaId,
    /// Framed ack bytes not yet accepted by the socket.
    unsent: VecDeque<u8>,
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
    /// Wakes the writer thread after an enqueue on any ring.
    notifier: Arc<Notifier>,
    inbound: Receiver<Delivery>,
    /// Deliveries popped from `inbound` ahead of a deadline cut.
    staged: VecDeque<Delivery>,
    /// Frames accepted and pushed by reader threads (compared against
    /// `stats.messages` for idleness).
    received: Arc<AtomicU64>,
    /// Peer connections the reader threads lost (EOF, socket error, or a
    /// protocol violation) — surfaced through [`Transport::stats`] so a
    /// dropped peer is a counted event, not a silent thread exit.
    disconnects: Arc<AtomicU64>,
    delivered: u64,
    next_seq: u64,
    stats: NetworkStats,
    /// The endpoints' listeners, retained (non-blocking) after mesh
    /// construction: they double as the client gateway, with accepts and
    /// reads serviced by [`Transport::poll_clients`] on the run-loop
    /// thread — the gateway adds zero threads to the O(n) budget.
    listeners: Vec<TcpListener>,
    /// Accepted client connections by gateway-assigned id.
    clients: HashMap<u64, ClientConn>,
    next_conn: u64,
    /// Read buffer for [`Transport::poll_clients`], which runs on every
    /// step of the run loop: kept, not allocated and zeroed per call.
    client_chunk: Vec<u8>,
    /// One multiplexing reader per endpoint.
    readers: Vec<JoinHandle<()>>,
    /// The single writer thread draining every ring.
    writer: Option<JoinHandle<()>>,
    /// Frame-level counters; no-op until [`set_recorder`](Self::set_recorder).
    recorder: SharedRecorder,
    /// The writer thread's view of the recorder (it is spawned before
    /// `set_recorder` can run, so it reads through this shared slot).
    flush_recorder: Arc<Mutex<SharedRecorder>>,
}

impl TcpCluster {
    /// Binds `n` endpoints on `127.0.0.1` ephemeral ports, connects the
    /// full mesh, and spawns the writer and per-endpoint reader threads
    /// (`n + 1` threads total). Frames not tagged `protocol` are
    /// rejected at the readers.
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

        let (inbound_tx, inbound) = mpsc::channel::<Delivery>();
        let received = Arc::new(AtomicU64::new(0));
        let disconnects = Arc::new(AtomicU64::new(0));

        // Connect the mesh: for each ordered pair (from → to), `from`
        // dials `to`'s listener and immediately sends a one-frame hello
        // naming itself, so the acceptor can attribute the connection.
        // Accepting inline (rather than in a background acceptor) keeps
        // construction deterministic and turns connection failures into
        // immediate errors.
        let mut rings: Vec<Vec<Option<Arc<OutRing>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut writer_conns: Vec<WriterConn> = Vec::with_capacity(n * n.saturating_sub(1));
        let mut accepted_by: Vec<Vec<TcpStream>> = (0..n).map(|_| Vec::new()).collect();
        for (from, row) in rings.iter_mut().enumerate() {
            for (to, accepted_row) in accepted_by.iter_mut().enumerate() {
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

                let (accepted, _) = listeners[to].accept()?;
                accepted.set_nodelay(true)?;
                accepted.set_nonblocking(true)?;
                accepted_row.push(accepted);
            }
        }
        let mut readers = Vec::with_capacity(n);
        for (owner, streams) in accepted_by.into_iter().enumerate() {
            if streams.is_empty() {
                continue; // n = 1: no peers, no reader
            }
            let owner = ReplicaId::new(owner as u16);
            let inbound_tx = inbound_tx.clone();
            let received = Arc::clone(&received);
            let disconnects = Arc::clone(&disconnects);
            readers.push(
                std::thread::Builder::new()
                    .name(format!("sft-tcp-reader-{}", owner.as_u16()))
                    .spawn(move || {
                        endpoint_reader_loop(
                            streams,
                            owner,
                            protocol,
                            inbound_tx,
                            received,
                            disconnects,
                        );
                    })?,
            );
        }
        drop(inbound_tx);

        let notifier = Notifier::new();
        let flush_recorder = Arc::new(Mutex::new(sft_obs::noop()));
        let writer = std::thread::Builder::new()
            .name("sft-tcp-writer".into())
            .spawn({
                let notifier = Arc::clone(&notifier);
                let flush_recorder = Arc::clone(&flush_recorder);
                move || flush_loop(writer_conns, &notifier, &flush_recorder)
            })?;

        // The mesh is fully connected; from here on the listeners serve
        // clients only, polled non-blocking from the run-loop thread.
        for listener in &listeners {
            listener.set_nonblocking(true)?;
        }

        Ok(Self {
            n,
            protocol,
            start: Instant::now(),
            rings,
            notifier,
            inbound,
            staged: VecDeque::new(),
            received,
            disconnects,
            delivered: 0,
            next_seq: 0,
            stats: NetworkStats::default(),
            listeners,
            clients: HashMap::new(),
            next_conn: 0,
            client_chunk: vec![0u8; 64 * 1024],
            readers,
            writer: Some(writer),
            recorder: sft_obs::noop(),
            flush_recorder,
        })
    }

    /// Threads this cluster owns: one reader per endpoint plus the writer.
    /// The number a thread budget should be held to — unlike a
    /// process-wide count, it does not move when another cluster runs
    /// beside this one.
    pub fn thread_count(&self) -> usize {
        self.readers.len() + usize::from(self.writer.is_some())
    }

    /// The socket address clients dial to reach `replica`'s gateway —
    /// the same listener the mesh was accepted on.
    ///
    /// # Errors
    ///
    /// Returns any socket error raised while reading the local address.
    pub fn client_addr(&self, replica: ReplicaId) -> io::Result<SocketAddr> {
        self.listeners[replica.as_usize()].local_addr()
    }

    /// Installs a live recorder: every enqueued frame counts into
    /// `net_frames_sent` / `net_frame_bytes`, and every writer pass that
    /// moved bytes times itself into `phase_net_flush_ns`.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        *self.flush_recorder.lock().expect("recorder slot") = recorder.clone();
        self.recorder = recorder;
    }

    /// A hook that wakes the writer thread — hand this to the
    /// group-commit WAL so a completed fsync releases durability-gated
    /// frames immediately instead of on the writer's next timed retry.
    pub fn writer_wake_hook(&self) -> Box<dyn Fn() + Send + Sync> {
        let notifier = Arc::clone(&self.notifier);
        Box::new(move || notifier.signal())
    }

    /// Enqueues one pre-framed buffer on the `from → to` ring.
    fn enqueue(&mut self, from: ReplicaId, to: ReplicaId, frame: Arc<[u8]>, payload_len: usize) {
        self.enqueue_gated(from, to, frame, payload_len, None);
    }

    /// [`enqueue`](Self::enqueue) with an optional durability gate the
    /// writer thread honors before flushing the frame.
    fn enqueue_gated(
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
            self.notifier.signal();
        } else {
            self.stats.dropped += 1;
        }
    }

    /// Severs the `from → to` connection — what the receiving endpoint
    /// observes when the sender's process dies. The writer drains any
    /// queued frames, shuts the socket down, the receiver's reader EOFs
    /// and counts a disconnect in [`Transport::stats`]; later sends on
    /// the severed link count as drops.
    pub fn sever(&mut self, from: ReplicaId, to: ReplicaId) {
        if let Some(ring) = self.rings[from.as_usize()][to.as_usize()].take() {
            ring.close();
            self.notifier.signal();
        }
    }

    /// Stamps a popped delivery with arrival order.
    fn stage(&mut self, mut delivery: Delivery) {
        delivery.seq = self.next_seq;
        self.next_seq += 1;
        self.staged.push_back(delivery);
    }
}

impl Transport for TcpCluster {
    fn replica_count(&self) -> usize {
        self.n
    }

    fn send(&mut self, from: ReplicaId, to: ReplicaId, payload: Arc<[u8]>) {
        let env = Envelope::to_peer(from, to, self.protocol, Arc::clone(&payload));
        let frame: Arc<[u8]> = env.to_frame().into();
        self.enqueue(from, to, frame, payload.len());
    }

    fn broadcast(&mut self, from: ReplicaId, payload: Arc<[u8]>) {
        let env = Envelope::broadcast(from, self.protocol, Arc::clone(&payload));
        // One encoding, one frame, n − 1 reference-counted enqueues.
        let frame: Arc<[u8]> = env.to_frame().into();
        for to in 0..self.n as u16 {
            let to = ReplicaId::new(to);
            if to != from {
                self.enqueue(from, to, Arc::clone(&frame), payload.len());
            }
        }
    }

    fn supports_gating(&self) -> bool {
        true // gated frames enqueue instantly; the writer thread waits
    }

    fn send_gated(&mut self, from: ReplicaId, to: ReplicaId, payload: Arc<[u8]>, gate: SendGate) {
        let env = Envelope::to_peer(from, to, self.protocol, Arc::clone(&payload));
        let frame: Arc<[u8]> = env.to_frame().into();
        self.enqueue_gated(from, to, frame, payload.len(), Some(gate));
    }

    fn broadcast_gated(&mut self, from: ReplicaId, payload: Arc<[u8]>, gate: SendGate) {
        let env = Envelope::broadcast(from, self.protocol, Arc::clone(&payload));
        let frame: Arc<[u8]> = env.to_frame().into();
        for to in 0..self.n as u16 {
            let to = ReplicaId::new(to);
            if to != from {
                self.enqueue_gated(
                    from,
                    to,
                    Arc::clone(&frame),
                    payload.len(),
                    Some(gate.clone()),
                );
            }
        }
    }

    fn poll_deliver(&mut self, deadline: SimTime) -> Vec<Delivery> {
        // Drain whatever already arrived.
        while let Ok(d) = self.inbound.try_recv() {
            self.stage(d);
        }
        // Nothing yet: block until the first arrival or the deadline.
        if self.staged.is_empty() {
            let now = self.now();
            if deadline > now {
                let wait = Duration::from_micros((deadline - now).as_micros());
                match self.inbound.recv_timeout(wait) {
                    Ok(d) => {
                        self.stage(d);
                        // Collect anything that arrived in the same burst.
                        while let Ok(more) = self.inbound.try_recv() {
                            self.stage(more);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {}
                }
            }
        }
        let now = self.now();
        let out: Vec<Delivery> = self
            .staged
            .drain(..)
            .map(|mut d| {
                d.deliver_at = now;
                d
            })
            .collect();
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
        // Everything sent has been received by a reader *and* popped by
        // the run loop. Exact on loopback, where frames are never lost.
        self.staged.is_empty()
            && self.delivered + self.stats.dropped >= self.stats.messages
            && self.received.load(Ordering::SeqCst) + self.stats.dropped >= self.stats.messages
    }

    fn stats(&self) -> NetworkStats {
        let mut stats = self.stats;
        stats.disconnects = self.disconnects.load(Ordering::SeqCst);
        stats
    }

    fn poll_clients(&mut self) -> Vec<ClientDelivery> {
        // Accept whoever dialed since the last poll.
        for (replica, listener) in self.listeners.iter().enumerate() {
            let replica = ReplicaId::new(replica as u16);
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nodelay(true).is_err()
                            || stream.set_nonblocking(true).is_err()
                        {
                            continue; // died before it said anything
                        }
                        let conn = self.next_conn;
                        self.next_conn += 1;
                        self.clients.insert(
                            conn,
                            ClientConn {
                                stream,
                                decoder: FrameDecoder::new(replica, ProtocolTag::Client),
                                replica,
                                unsent: VecDeque::new(),
                            },
                        );
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
        // Service every connection: retry pushed-back acks, then read.
        let mut out = Vec::new();
        let mut decoded = Vec::new();
        let chunk = &mut self.client_chunk;
        self.clients.retain(|&conn, client| {
            if !flush_client(client) {
                return false;
            }
            loop {
                match client.stream.read(chunk) {
                    Ok(0) => return false, // client hung up
                    Ok(read) => {
                        if client.decoder.ingest(&chunk[..read], &mut decoded).is_err() {
                            decoded.clear();
                            return false; // protocol violation
                        }
                        for delivery in decoded.drain(..) {
                            out.push(ClientDelivery {
                                conn,
                                replica: client.replica,
                                payload: delivery.payload,
                            });
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
        });
        out
    }

    fn send_client(&mut self, conn: u64, replica: ReplicaId, payload: Arc<[u8]>) {
        let Some(client) = self.clients.get_mut(&conn) else {
            return; // connection gone; clients own retries
        };
        // Address the ack to the identity the client's hello claimed.
        let Some(dest) = client.decoder.src() else {
            return; // never said hello, nothing to address
        };
        let frame = Envelope::to_peer(replica, dest, ProtocolTag::Client, payload).to_frame();
        client.unsent.extend(frame);
        if !flush_client(client) {
            self.clients.remove(&conn);
        }
    }
}

/// Pushes a client connection's queued ack bytes at its non-blocking
/// socket. Returns false when the connection is dead.
fn flush_client(client: &mut ClientConn) -> bool {
    while !client.unsent.is_empty() {
        let (head, _) = client.unsent.as_slices();
        match client.stream.write(head) {
            Ok(0) => return false,
            Ok(wrote) => {
                client.unsent.drain(..wrote);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

impl Drop for TcpCluster {
    fn drop(&mut self) {
        // Closing every ring ends the writer loop (it drains, shuts the
        // sockets down, and exits), which EOFs the readers.
        for row in std::mem::take(&mut self.rings) {
            for ring in row.into_iter().flatten() {
                ring.close();
            }
        }
        self.notifier.signal();
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
        for reader in std::mem::take(&mut self.readers) {
            let _ = reader.join();
        }
    }
}

/// The cluster's single writer: round-robins every connection, flushing
/// its ring onto the non-blocking socket. Sleeps on the notifier while
/// the mesh is quiet (with a short timeout while some kernel buffer is
/// pushing back), exits once every connection is done or dead. Each
/// pass that moved bytes records itself as `phase_net_flush_ns`.
fn flush_loop(mut conns: Vec<WriterConn>, notifier: &Notifier, recorder: &Mutex<SharedRecorder>) {
    loop {
        let recorder = recorder.lock().expect("recorder slot").clone();
        let flush = PhaseTimer::start(&*recorder);
        let mut wrote = false;
        let mut blocked = false;
        conns.retain_mut(|conn| {
            let (moved, status) = conn.ring.flush_nonblocking(&mut conn.stream);
            wrote |= moved;
            match status {
                Flush::Clean => true,
                Flush::Blocked => {
                    blocked = true;
                    true
                }
                Flush::Done => {
                    let _ = conn.stream.shutdown(Shutdown::Write);
                    false
                }
                Flush::Dead => {
                    // Later sends on this ring fail and count as drops.
                    conn.ring.close();
                    false
                }
            }
        });
        if wrote {
            flush.finish(&*recorder, names::PHASE_NET_FLUSH_NS);
        }
        // Exit *before* waiting: the signal that announced the last
        // ring's close was consumed by the pass that just drained it,
        // and no further signal will ever arrive.
        if conns.is_empty() {
            return;
        }
        notifier.wait(blocked.then_some(FLUSH_RETRY));
    }
}

/// One endpoint's reader: multiplexes all its accepted connections with
/// non-blocking reads into per-connection [`FrameDecoder`]s, pushing
/// validated deliveries into the shared inbound queue. Every connection
/// lost — EOF, socket error, or protocol violation — bumps
/// `disconnects`, so a dropped peer is observable in [`NetworkStats`]
/// instead of vanishing silently. While every connection is quiet the
/// poll sleep doubles from [`READ_IDLE_MIN`] to [`READ_IDLE_MAX`].
fn endpoint_reader_loop(
    streams: Vec<TcpStream>,
    owner: ReplicaId,
    protocol: ProtocolTag,
    inbound: Sender<Delivery>,
    received: Arc<AtomicU64>,
    disconnects: Arc<AtomicU64>,
) {
    let mut conns: Vec<Option<(TcpStream, FrameDecoder)>> = streams
        .into_iter()
        .map(|s| Some((s, FrameDecoder::new(owner, protocol))))
        .collect();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut decoded = Vec::new();
    let mut idle = READ_IDLE_MIN;
    loop {
        let mut progressed = false;
        let mut live = 0usize;
        for slot in &mut conns {
            let Some((stream, decoder)) = slot.as_mut() else {
                continue;
            };
            match stream.read(&mut chunk) {
                Ok(0) => {
                    disconnects.fetch_add(1, Ordering::SeqCst);
                    *slot = None;
                }
                Ok(read) => {
                    progressed = true;
                    if decoder.ingest(&chunk[..read], &mut decoded).is_err() {
                        disconnects.fetch_add(1, Ordering::SeqCst);
                        *slot = None;
                        decoded.clear();
                        continue;
                    }
                    for delivery in decoded.drain(..) {
                        received.fetch_add(1, Ordering::SeqCst);
                        if inbound.send(delivery).is_err() {
                            return; // cluster gone
                        }
                    }
                    live += 1;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    live += 1;
                }
                Err(_) => {
                    disconnects.fetch_add(1, Ordering::SeqCst);
                    *slot = None;
                }
            }
        }
        if live == 0 {
            return; // every connection closed
        }
        if progressed {
            idle = READ_IDLE_MIN;
        } else {
            std::thread::sleep(idle);
            idle = (idle * 2).min(READ_IDLE_MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_types::SimDuration;

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
        let mut sock = TcpStream::connect(cluster.client_addr(replica).unwrap()).unwrap();
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
        let mut sock = TcpStream::connect(cluster.client_addr(replica).unwrap()).unwrap();
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
            let mut sock = TcpStream::connect(cluster.client_addr(replica).unwrap()).unwrap();
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
