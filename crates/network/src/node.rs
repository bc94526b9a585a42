//! Single-endpoint socket transport for standalone replica processes.
//!
//! [`TcpCluster`](crate::TcpCluster) hosts all `n` endpoints in one
//! process and connects the mesh at construction — fine for tests, useless
//! for a real deployment where each replica is its own process that must
//! survive peers being down, crashing, and coming back. [`NodeTransport`]
//! is the per-process half of the same design:
//!
//! - one listener accepts inbound connections from any peer, attributing
//!   each by its hello frame (same validation as the cluster readers);
//! - one **reconnecting writer thread per peer** dials the peer's address
//!   with capped exponential backoff, re-dials (and re-sends the hello)
//!   whenever a write fails, and keeps draining its outbound ring (the
//!   same `OutRing` the cluster's writer flushes) in
//!   the meantime — so a peer's crash never wedges the consensus loop,
//!   and its restart is picked up without any coordination;
//! - every lost connection, inbound or outbound, is a counted
//!   [`disconnect`](crate::NetworkStats::disconnects), not a silent
//!   thread exit.
//!
//! The [`Transport`] surface is identical to the cluster's, so the same
//! generic engine loop drives a replica here — `sft-node` is that loop
//! plus a write-ahead log.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sft_obs::{names, SharedRecorder};
use sft_types::{Dest, Envelope, ProtocolTag, ReplicaId, SendGate, SimTime};

use crate::frame::FrameDecoder;
use crate::inbox::{Inbound, Inbox};
use crate::outbox::OutRing;
use crate::{ClientDelivery, Delivery, NetworkStats, Transport};

/// First reconnect delay; doubles per failed attempt up to
/// [`BACKOFF_CAP`].
const BACKOFF_FLOOR: Duration = Duration::from_millis(50);

/// Ceiling on the reconnect backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// How long an ack write may stall on a client that stopped reading
/// before the connection is declared dead. Acks are not replicated
/// state — clients own retries — so a stuck client costs at most this.
const ACK_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a peer writer sleeps per wait on a closed durability gate
/// before re-checking the shutdown flag. The WAL writer's watermark
/// advance wakes the wait immediately; this bound only caps how long a
/// shutdown can go unnoticed while a gate is stuck.
const GATE_POLL: Duration = Duration::from_millis(10);

/// Live client connections: write halves by gateway-assigned conn id,
/// plus the identity each hello claimed (where acks are addressed).
type ClientConns = Arc<Mutex<HashMap<u64, (TcpStream, ReplicaId)>>>;

/// One peer's outbound side: the ring its reconnecting writer drains.
/// The ring is bounded, so a long-dead peer costs a fixed amount of
/// memory; sends beyond the bound are counted drops (the peer will
/// block-sync what it missed, exactly as after a partition).
struct PeerOut {
    ring: Arc<OutRing>,
    writer: Option<JoinHandle<()>>,
}

/// One replica's view of the network: a listener for inbound peers and a
/// reconnecting writer per outbound peer. See the [module docs](self).
pub struct NodeTransport {
    id: ReplicaId,
    n: usize,
    protocol: ProtocolTag,
    start: Instant,
    /// Outbound side per replica id; the own-id slot is `None`
    /// (self-delivery is the harness's job, as with every transport).
    peers: Vec<Option<PeerOut>>,
    /// Peer deliveries and client requests on one queue, so the run
    /// loop blocked in `poll_deliver` wakes on either (the listener
    /// doubles as the client gateway: a hello tagged
    /// [`ProtocolTag::Client`] makes the connection a client, not a peer).
    inbox: Inbox,
    stats: NetworkStats,
    /// Connections lost, inbound readers and outbound writers combined.
    disconnects: Arc<AtomicU64>,
    /// Tells writer threads to stop reconnecting at shutdown.
    shutdown: Arc<AtomicBool>,
    /// The local listener's address (waking the acceptor at drop).
    listen_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    /// Write halves of live client connections, for acks.
    client_conns: ClientConns,
    /// Frame-level counters (no-op unless bound observed); writer
    /// threads hold their own clones for reconnect/backoff accounting.
    recorder: SharedRecorder,
}

impl NodeTransport {
    /// Binds this replica's listener on `listen` and spawns a
    /// reconnecting writer toward every other entry of `peers` (the full
    /// address table, indexed by replica id, own entry included). Peers
    /// need not be up yet — and may go down and come back — connections
    /// are (re-)established in the background with capped exponential
    /// backoff.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for `peers` or fewer than two
    /// addresses are given.
    ///
    /// # Errors
    ///
    /// Returns any socket error raised while binding the listener or
    /// spawning threads.
    pub fn bind(
        id: ReplicaId,
        protocol: ProtocolTag,
        listen: SocketAddr,
        peers: &[SocketAddr],
    ) -> io::Result<Self> {
        Self::bind_observed(id, protocol, listen, peers, sft_obs::noop())
    }

    /// [`bind`](Self::bind) with a live metrics recorder: reconnect
    /// attempts and backoff sleeps surface as `net_reconnect_attempts` /
    /// `net_backoff_sleeps` / `net_backoff_sleep_ms` counters, and every
    /// enqueued frame as `net_frames_sent` / `net_frame_bytes`. The
    /// recorder must be given at bind time because the per-peer writer
    /// threads are spawned here.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for `peers` or fewer than two
    /// addresses are given.
    ///
    /// # Errors
    ///
    /// Returns any socket error raised while binding the listener or
    /// spawning threads.
    pub fn bind_observed(
        id: ReplicaId,
        protocol: ProtocolTag,
        listen: SocketAddr,
        peers: &[SocketAddr],
        recorder: SharedRecorder,
    ) -> io::Result<Self> {
        let n = peers.len();
        assert!(n >= 2, "a replica set needs at least two members");
        assert!(id.as_usize() < n, "own id must index the address table");
        let listener = TcpListener::bind(listen)?;
        let listen_addr = listener.local_addr()?;

        let (inbound_tx, inbox) = Inbox::new();
        let client_conns: ClientConns = Arc::new(Mutex::new(HashMap::new()));
        let received = Arc::new(AtomicU64::new(0));
        let disconnects = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));

        let acceptor = std::thread::Builder::new()
            .name(format!("sft-node-accept-{}", id.as_u16()))
            .spawn({
                let client_conns = Arc::clone(&client_conns);
                let received = Arc::clone(&received);
                let disconnects = Arc::clone(&disconnects);
                let shutdown = Arc::clone(&shutdown);
                move || {
                    accept_loop(
                        listener,
                        id,
                        protocol,
                        inbound_tx,
                        client_conns,
                        received,
                        disconnects,
                        shutdown,
                    );
                }
            })?;

        let mut outs: Vec<Option<PeerOut>> = Vec::with_capacity(n);
        for (peer, addr) in peers.iter().enumerate() {
            if peer == id.as_usize() {
                outs.push(None);
                continue;
            }
            let hello =
                Envelope::to_peer(id, ReplicaId::new(peer as u16), protocol, Vec::new()).to_frame();
            let ring = OutRing::new();
            let writer = std::thread::Builder::new()
                .name(format!("sft-node-writer-{}-{peer}", id.as_u16()))
                .spawn({
                    let addr = *addr;
                    let ring = Arc::clone(&ring);
                    let disconnects = Arc::clone(&disconnects);
                    let shutdown = Arc::clone(&shutdown);
                    let recorder = Arc::clone(&recorder);
                    move || peer_writer_loop(addr, hello, &ring, &disconnects, &shutdown, &recorder)
                })?;
            outs.push(Some(PeerOut {
                ring,
                writer: Some(writer),
            }));
        }

        Ok(Self {
            id,
            n,
            protocol,
            start: Instant::now(),
            peers: outs,
            inbox,
            stats: NetworkStats::default(),
            disconnects,
            shutdown,
            listen_addr,
            acceptor: Some(acceptor),
            client_conns,
            recorder,
        })
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The bound listener address (useful when `listen` used port 0).
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Re-anchors the transport clock at `origin` — a wall-clock instant
    /// shared by every process of the cluster (the deployment's genesis
    /// timestamp). [`now`](Transport::now) then reads the time elapsed
    /// since that shared instant (zero before it), so externally clocked
    /// protocols tick aligned epochs across processes regardless of when
    /// each one started — and a restarted replica resumes at the
    /// *cluster's* current epoch instead of replaying wall time from its
    /// own launch.
    #[must_use]
    pub fn with_time_origin(mut self, origin: std::time::SystemTime) -> Self {
        let now = Instant::now();
        self.start = match origin.elapsed() {
            // Anchor in the past: back-date the start by that much.
            Ok(past) => now.checked_sub(past).unwrap_or(now),
            // Anchor in the future: the clock reads zero until then.
            Err(ahead) => now + ahead.duration(),
        };
        self
    }

    /// Enqueues one pre-framed buffer toward `to`, behind an optional
    /// durability gate the peer's writer thread honors before putting
    /// the frame on the wire. A full or closed ring is a counted drop —
    /// the writer is down or hopelessly behind, and the peer will
    /// block-sync what it missed.
    fn enqueue(
        &mut self,
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
        let Some(peer) = self.peers[to.as_usize()].as_ref() else {
            self.stats.dropped += 1;
            return;
        };
        if !peer.ring.push_gated(frame, gate) {
            self.stats.dropped += 1;
        }
    }
}

impl Transport for NodeTransport {
    fn replica_count(&self) -> usize {
        self.n
    }

    fn send_to(&mut self, from: ReplicaId, dest: Dest, payload: Arc<[u8]>, gate: Option<SendGate>) {
        debug_assert_eq!(from, self.id, "a node only sends as itself");
        let len = payload.len();
        let env = Envelope {
            src: from,
            dest,
            protocol: self.protocol,
            payload,
        };
        let frame: Arc<[u8]> = env.to_frame().into();
        match dest {
            Dest::Peer(to) => self.enqueue(to, frame, len, gate),
            Dest::Broadcast => {
                for to in (0..self.n as u16).map(ReplicaId::new) {
                    if to != from {
                        self.enqueue(to, Arc::clone(&frame), len, gate.clone());
                    }
                }
            }
        }
    }

    fn poll_deliver(&mut self, deadline: SimTime) -> Vec<Delivery> {
        self.inbox.wait(self.now(), deadline);
        self.inbox.take_peers(self.now())
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn next_deliver_at(&self) -> Option<SimTime> {
        None
    }

    fn is_idle(&self) -> bool {
        // A lone endpoint cannot know what peers still have in flight;
        // "idle" is only "nothing locally staged".
        !self.inbox.has_staged_peers()
    }

    fn stats(&self) -> NetworkStats {
        let mut stats = self.stats;
        stats.disconnects = self.disconnects.load(Ordering::SeqCst);
        stats
    }

    fn poll_clients(&mut self) -> Vec<ClientDelivery> {
        self.inbox.take_clients()
    }

    fn send_client(&mut self, conn: u64, replica: ReplicaId, payload: Arc<[u8]>) {
        debug_assert_eq!(replica, self.id, "a node only acks as itself");
        let mut conns = self.client_conns.lock().expect("client registry");
        let Some((stream, dest)) = conns.get_mut(&conn) else {
            return; // client gone; clients own retries
        };
        let frame = Envelope::to_peer(replica, *dest, ProtocolTag::Client, payload).to_frame();
        if stream.write_all(&frame).is_err() {
            // Dead or hopelessly stalled (past ACK_WRITE_TIMEOUT): drop
            // the write half; the reader exits on its own at EOF.
            conns.remove(&conn);
            self.stats.dropped += 1;
        }
    }
}

impl Drop for NodeTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Closing the rings ends the writer loops once they drain.
        for peer in std::mem::take(&mut self.peers).into_iter().flatten() {
            peer.ring.close();
            if let Some(handle) = peer.writer {
                let _ = handle.join();
            }
        }
        // Wake the acceptor so it can observe the shutdown flag.
        let _ = TcpStream::connect(self.listen_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

/// Accepts inbound connections for `owner` until shutdown, handing each
/// to a detached blocking reader. The reader sniffs the hello's
/// [`ProtocolTag`] to learn what the connection is: the replica protocol
/// makes it a peer (same validating [`FrameDecoder`] path as the cluster
/// readers), [`ProtocolTag::Client`] makes it a client served by the
/// gateway half. Reader threads exit on their own at EOF — each peer
/// exit bumps `disconnects`.
#[allow(clippy::too_many_arguments)] // spawn plumbing, all one-way
fn accept_loop(
    listener: TcpListener,
    owner: ReplicaId,
    protocol: ProtocolTag,
    inbound: Sender<Inbound>,
    client_conns: ClientConns,
    received: Arc<AtomicU64>,
    disconnects: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
) {
    let next_conn = Arc::new(AtomicU64::new(0));
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_nodelay(true);
        let _ = std::thread::Builder::new()
            .name(format!("sft-node-reader-{}", owner.as_u16()))
            .spawn({
                let inbound = inbound.clone();
                let client_conns = Arc::clone(&client_conns);
                let next_conn = Arc::clone(&next_conn);
                let received = Arc::clone(&received);
                let disconnects = Arc::clone(&disconnects);
                move || {
                    serve_inbound(
                        stream,
                        owner,
                        protocol,
                        &inbound,
                        &client_conns,
                        &next_conn,
                        &received,
                        &disconnects,
                    );
                }
            });
    }
}

/// Reads until the first complete frame reveals what this connection is,
/// then runs the matching reader loop with the already-buffered bytes.
#[allow(clippy::too_many_arguments)] // spawn plumbing, all one-way
fn serve_inbound(
    mut stream: TcpStream,
    owner: ReplicaId,
    protocol: ProtocolTag,
    inbound: &Sender<Inbound>,
    client_conns: &ClientConns,
    next_conn: &AtomicU64,
    received: &AtomicU64,
    disconnects: &AtomicU64,
) {
    let mut chunk = vec![0u8; 64 * 1024];
    let mut buffered = Vec::new();
    let tag = loop {
        match Envelope::decode_frame(&buffered) {
            Ok(Some((env, _))) => break env.protocol, // sniff only; not consumed
            Ok(None) => {}
            Err(_) => return, // malformed before it even said hello
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(read) => buffered.extend_from_slice(&chunk[..read]),
        }
    };
    if tag == ProtocolTag::Client {
        client_reader_loop(stream, buffered, owner, inbound, client_conns, next_conn);
    } else {
        reader_loop(stream, buffered, owner, protocol, inbound, received);
        disconnects.fetch_add(1, Ordering::SeqCst);
    }
}

/// Blocking reader for one inbound peer connection: reads until EOF,
/// error, or protocol violation, pushing validated deliveries into the
/// shared inbound queue.
fn reader_loop(
    mut stream: TcpStream,
    buffered: Vec<u8>,
    owner: ReplicaId,
    protocol: ProtocolTag,
    inbound: &Sender<Inbound>,
    received: &AtomicU64,
) {
    let mut decoder = FrameDecoder::new(owner, protocol);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut decoded = Vec::new();
    if decoder.ingest(&buffered, &mut decoded).is_err() {
        return; // hello carried the wrong protocol family
    }
    loop {
        for delivery in decoded.drain(..) {
            received.fetch_add(1, Ordering::SeqCst);
            if inbound.send(Inbound::Peer(delivery)).is_err() {
                return; // transport gone
            }
        }
        if decoder
            .read_from(&mut stream, &mut chunk, &mut decoded)
            .is_err()
        {
            return; // peer closed, or broke protocol: refuse it
        }
    }
}

/// Blocking reader for one client connection: registers the write half
/// for acks once the hello binds an identity, then pushes every decoded
/// client frame to the shared inbound queue. Deregisters itself on any
/// exit so acks to a departed client become counted no-ops.
fn client_reader_loop(
    mut stream: TcpStream,
    buffered: Vec<u8>,
    owner: ReplicaId,
    inbound: &Sender<Inbound>,
    client_conns: &ClientConns,
    next_conn: &AtomicU64,
) {
    let mut decoder = FrameDecoder::new(owner, ProtocolTag::Client);
    let mut decoded = Vec::new();
    if decoder.ingest(&buffered, &mut decoded).is_err() {
        return; // violating hello: never registered
    }
    let Some(dest) = decoder.src() else {
        return; // buffered bytes held a frame, so this cannot happen
    };
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // The timeout bounds how long send_client can stall on a client
    // that stopped reading (the halves share the socket; reads are
    // unaffected by SO_SNDTIMEO).
    let _ = write_half.set_write_timeout(Some(ACK_WRITE_TIMEOUT));
    let conn = next_conn.fetch_add(1, Ordering::SeqCst);
    client_conns
        .lock()
        .expect("client registry")
        .insert(conn, (write_half, dest));

    let mut chunk = vec![0u8; 64 * 1024];
    'serve: loop {
        for delivery in decoded.drain(..) {
            let request = ClientDelivery {
                conn,
                replica: owner,
                payload: delivery.payload,
            };
            if inbound.send(Inbound::Client(request)).is_err() {
                break 'serve; // transport gone
            }
        }
        if decoder
            .read_from(&mut stream, &mut chunk, &mut decoded)
            .is_err()
        {
            break; // client hung up, or broke protocol: refuse it
        }
    }
    client_conns.lock().expect("client registry").remove(&conn);
}

/// The reconnecting writer toward one peer: dials with capped exponential
/// backoff, leads every (re)connection with the hello frame, and re-dials
/// on any write failure — counting each lost connection. The ring is
/// drained peek-then-pop, so a frame that failed mid-write is retried
/// whole on the next connection. A frame carrying a durability gate is
/// held — before any connect or write — until the WAL watermark covers
/// it: the FIFO ring then holds everything behind it too, so gating
/// delays the stream without reordering it. Exits when the ring closes
/// (and its remaining frames drain) or shutdown is flagged.
fn peer_writer_loop(
    addr: SocketAddr,
    hello: Vec<u8>,
    ring: &OutRing,
    disconnects: &AtomicU64,
    shutdown: &AtomicBool,
    recorder: &SharedRecorder,
) {
    let mut stream: Option<TcpStream> = None;
    let mut backoff = BACKOFF_FLOOR;
    let sleep_counted = |backoff: Duration| {
        recorder.add(names::NET_BACKOFF_SLEEPS, 1);
        recorder.add(names::NET_BACKOFF_SLEEP_MS, backoff.as_millis() as u64);
        std::thread::sleep(backoff);
    };
    'frames: while let Some((frame, gate)) = ring.front_blocking() {
        if let Some(gate) = gate {
            // Watermark-before-flush: the frame's justifying WAL
            // records must be durable before its first byte moves.
            while !gate.wait_open_timeout(GATE_POLL) {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            if stream.is_none() {
                recorder.add(names::NET_RECONNECT_ATTEMPTS, 1);
                match TcpStream::connect(addr) {
                    Ok(mut s) => {
                        let _ = s.set_nodelay(true);
                        if s.write_all(&hello).is_ok() {
                            stream = Some(s);
                            backoff = BACKOFF_FLOOR;
                        } else {
                            disconnects.fetch_add(1, Ordering::SeqCst);
                            sleep_counted(backoff);
                            backoff = (backoff * 2).min(BACKOFF_CAP);
                            continue;
                        }
                    }
                    Err(_) => {
                        sleep_counted(backoff);
                        backoff = (backoff * 2).min(BACKOFF_CAP);
                        continue;
                    }
                }
            }
            let connected = stream.as_mut().expect("just connected");
            if connected.write_all(&frame).is_ok() {
                ring.advance();
                continue 'frames;
            }
            // The peer died mid-stream: count it, drop the socket, and
            // retry this same frame on the next connection.
            stream = None;
            disconnects.fetch_add(1, Ordering::SeqCst);
        }
    }
    if let Some(s) = stream {
        let _ = s.shutdown(std::net::Shutdown::Write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_types::SimDuration;

    /// Two free loopback addresses reserved by bind-then-drop.
    fn free_addrs(count: usize) -> Vec<SocketAddr> {
        let holds: Vec<TcpListener> = (0..count)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        holds.iter().map(|l| l.local_addr().unwrap()).collect()
    }

    fn collect(node: &mut NodeTransport, want: usize, secs: u64) -> Vec<Delivery> {
        let deadline = node.now() + SimDuration::from_secs(secs);
        let mut got = Vec::new();
        while got.len() < want && node.now() < deadline {
            got.extend(node.poll_deliver(node.now() + SimDuration::from_millis(50)));
        }
        got
    }

    #[test]
    fn two_nodes_exchange_broadcasts() {
        let addrs = free_addrs(2);
        let mut a =
            NodeTransport::bind(ReplicaId::new(0), ProtocolTag::Fbft, addrs[0], &addrs).unwrap();
        let mut b =
            NodeTransport::bind(ReplicaId::new(1), ProtocolTag::Fbft, addrs[1], &addrs).unwrap();
        a.broadcast(ReplicaId::new(0), vec![1, 2].into());
        b.broadcast(ReplicaId::new(1), vec![3].into());
        let at_b = collect(&mut b, 1, 10);
        let at_a = collect(&mut a, 1, 10);
        assert_eq!(at_b.len(), 1);
        assert_eq!(at_b[0].payload[..], [1, 2]);
        assert_eq!(at_a.len(), 1);
        assert_eq!(at_a[0].payload[..], [3]);
    }

    #[test]
    fn client_hello_routes_to_the_gateway_not_the_engine_path() {
        let addrs = free_addrs(2);
        let mut a =
            NodeTransport::bind(ReplicaId::new(0), ProtocolTag::Fbft, addrs[0], &addrs).unwrap();
        let _b =
            NodeTransport::bind(ReplicaId::new(1), ProtocolTag::Fbft, addrs[1], &addrs).unwrap();

        let mut sock = TcpStream::connect(a.listen_addr()).unwrap();
        sock.set_nodelay(true).unwrap();
        let me = ReplicaId::new(42);
        let hello =
            Envelope::to_peer(me, ReplicaId::new(0), ProtocolTag::Client, Vec::new()).to_frame();
        sock.write_all(&hello).unwrap();
        let request =
            Envelope::to_peer(me, ReplicaId::new(0), ProtocolTag::Client, vec![9, 9]).to_frame();
        sock.write_all(&request).unwrap();

        // A run loop waiting for peer traffic wakes on the client's
        // request (no peer frame and no deadline comes to its rescue),
        // with nothing to deliver to the engine.
        let blocked = Instant::now();
        assert!(a
            .poll_deliver(a.now() + SimDuration::from_secs(10))
            .is_empty());
        assert!(
            blocked.elapsed() < Duration::from_secs(5),
            "poll_deliver slept through a client request"
        );
        let got = a.poll_clients();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].replica, ReplicaId::new(0));
        assert_eq!(got[0].payload[..], [9, 9]);
        // The client frame never entered the replica delivery path.
        assert!(a
            .poll_deliver(a.now() + SimDuration::from_millis(20))
            .is_empty());

        a.send_client(got[0].conn, ReplicaId::new(0), vec![0xAC].into());
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
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
        assert_eq!(env.src, ReplicaId::new(0));
        assert_eq!(env.protocol, ProtocolTag::Client);
        assert_eq!(env.payload[..], [0xAC]);

        // After the client leaves, acks are silent no-ops — whether the
        // write fails first or the reader deregistered the conn first.
        drop(sock);
        std::thread::sleep(Duration::from_millis(50));
        a.send_client(got[0].conn, ReplicaId::new(0), vec![1].into());
        a.send_client(got[0].conn, ReplicaId::new(0), vec![2].into());
        a.send_client(999, ReplicaId::new(0), vec![3].into());
    }

    #[test]
    fn writer_reconnects_after_peer_restart_and_counts_the_loss() {
        let addrs = free_addrs(2);
        let mut a =
            NodeTransport::bind(ReplicaId::new(0), ProtocolTag::Fbft, addrs[0], &addrs).unwrap();
        {
            let mut b = NodeTransport::bind(ReplicaId::new(1), ProtocolTag::Fbft, addrs[1], &addrs)
                .unwrap();
            a.send(ReplicaId::new(0), ReplicaId::new(1), vec![1].into());
            assert_eq!(collect(&mut b, 1, 10).len(), 1, "first incarnation hears");
        } // kill -9: b's process (and its listener) is gone

        // Writes toward the dead peer fail; the writer starts re-dialing.
        // Eventually the restarted incarnation must hear a later send.
        let mut b2 =
            NodeTransport::bind(ReplicaId::new(1), ProtocolTag::Fbft, addrs[1], &addrs).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut heard = Vec::new();
        while heard.is_empty() && Instant::now() < deadline {
            a.send(ReplicaId::new(0), ReplicaId::new(1), vec![7].into());
            heard = collect(&mut b2, 1, 1);
        }
        assert_eq!(heard.len(), 1, "reconnection reaches the restarted peer");
        assert_eq!(heard[0].payload[..], [7]);
        assert!(
            a.stats().disconnects >= 1,
            "the lost connection was a counted event"
        );
    }
}
