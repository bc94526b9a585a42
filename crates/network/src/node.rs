//! Single-endpoint socket transport for standalone replica processes.
//!
//! [`TcpCluster`](crate::TcpCluster) hosts all `n` endpoints in one
//! process and connects the mesh at construction — fine for tests, useless
//! for a real deployment where each replica is its own process that must
//! survive peers being down, crashing, and coming back. A
//! [`NodeTransport`] is one replica's endpoint on the same socket core
//! ([`SocketTransport`]), on **three threads for any `n` and any number of
//! clients**:
//!
//! - the **I/O thread** serves this replica's one listener: the hello of
//!   each accepted connection makes it a peer (a valid other replica id,
//!   in this protocol) or a client (the gateway), or gets it hung up on;
//! - the **writer** flushes every outbound ring — one per peer, one per
//!   client — onto its non-blocking socket, holding gated frames until the
//!   WAL's wake hook reports the watermark covering them;
//! - the **dialer** connects each peer with capped exponential backoff,
//!   and reconnects it whenever the writer reports the link dead. The
//!   peer's ring keeps queuing meanwhile, and a frame torn by the loss
//!   goes out whole on the next connection — so a peer's crash never
//!   wedges the consensus loop, and its restart is picked up without any
//!   coordination.
//!
//! Peer rings are bounded: a frame toward a peer that is down or
//! hopelessly behind is a counted drop (the peer block-syncs what it
//! missed), never a wait. Client acks never wait either: a client that
//! stops reading is hung up on once its ring fills. Every lost peer
//! connection, inbound or outbound, is a counted
//! [`disconnect`](crate::NetworkStats::disconnects).
//!
//! The [`Transport`](crate::Transport) surface is the cluster's, so the
//! same generic engine loop drives a replica here — `sft-node` is that
//! loop plus a write-ahead log.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::time::Instant;

use sft_obs::SharedRecorder;
use sft_types::{ProtocolTag, ReplicaId};

use crate::socket::{SocketTransport, Wiring};

/// One replica's view of the network: a listener for inbound peers and
/// clients, and a dialled link to every other peer. See the
/// [module docs](self).
pub type NodeTransport = SocketTransport<Node>;

/// What a [`NodeTransport`] knows beyond the socket core: which replica
/// it is, and where it listens.
pub struct Node {
    id: ReplicaId,
    listen_addr: SocketAddr,
}

impl NodeTransport {
    /// Binds this replica's listener on `listen` and starts dialling every
    /// other entry of `peers` (the full address table, indexed by replica
    /// id, own entry included). Peers need not be up yet — and may go
    /// down and come back — connections are (re-)established in the
    /// background with capped exponential backoff.
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

    /// [`bind`](Self::bind) with a live metrics recorder from the start,
    /// so the dialer's first connect attempts are counted too (see
    /// [`set_recorder`](Self::set_recorder) for what is recorded).
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
        let mut wiring = Wiring::new(n, protocol, false);
        wiring.listen(listener, id)?;
        for (peer, addr) in (0..n as u16).map(ReplicaId::new).zip(peers) {
            if peer != id {
                wiring.dial(id, peer, *addr);
            }
        }
        Self::start(Node { id, listen_addr }, wiring, recorder)
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.kind.id
    }

    /// The bound listener address (useful when `listen` used port 0).
    pub fn listen_addr(&self) -> SocketAddr {
        self.kind.listen_addr
    }

    /// Re-anchors the transport clock at `origin` — a wall-clock instant
    /// shared by every process of the cluster (the deployment's genesis
    /// timestamp). [`now`](crate::Transport::now) then reads the time
    /// elapsed since that shared instant (zero before it), so externally
    /// clocked protocols tick aligned epochs across processes regardless
    /// of when each one started — and a restarted replica resumes at the
    /// *cluster's* current epoch instead of replaying wall time from its
    /// own launch.
    #[must_use]
    pub fn with_time_origin(mut self, origin: std::time::SystemTime) -> Self {
        let now = Instant::now();
        self.set_start(match origin.elapsed() {
            // Anchor in the past: back-date the start by that much.
            Ok(past) => now.checked_sub(past).unwrap_or(now),
            // Anchor in the future: the clock reads zero until then.
            Err(ahead) => now + ahead.duration(),
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delivery, Transport};
    use sft_types::{Envelope, SimDuration};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;

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

    #[test]
    fn a_frame_torn_by_a_lost_connection_arrives_whole_once_on_the_next() {
        let addrs = free_addrs(2);
        let mut a =
            NodeTransport::bind(ReplicaId::new(0), ProtocolTag::Fbft, addrs[0], &addrs).unwrap();
        // Far beyond what loopback socket buffers hold, so the first
        // connection dies mid-frame.
        let big: Arc<[u8]> = (0..12 << 20).map(|i| (i % 251) as u8).collect();
        a.send(ReplicaId::new(0), ReplicaId::new(1), Arc::clone(&big));
        {
            // Replica 1's first incarnation takes the hello and the
            // frame's first bytes, then dies with the rest unread.
            let first = TcpListener::bind(addrs[1]).unwrap();
            let (mut sock, _) = first.accept().unwrap();
            let mut head = vec![0u8; 64 * 1024];
            sock.read_exact(&mut head).unwrap();
        }
        let mut b =
            NodeTransport::bind(ReplicaId::new(1), ProtocolTag::Fbft, addrs[1], &addrs).unwrap();
        let got = collect(&mut b, 1, 20);
        assert_eq!(got.len(), 1, "the torn frame is redelivered");
        assert!(got[0].payload[..] == big[..], "whole, from its first byte");
        assert!(collect(&mut b, 1, 1).is_empty(), "exactly once");
        assert!(a.stats().disconnects >= 1, "the lost link was counted");
    }

    #[test]
    fn three_threads_for_any_replica_count_and_any_number_of_clients() {
        for n in [4, 31] {
            let addrs = free_addrs(n);
            let mut node =
                NodeTransport::bind(ReplicaId::new(0), ProtocolTag::Fbft, addrs[0], &addrs)
                    .unwrap();
            assert_eq!(node.thread_count(), 3, "n = {n}, no clients");
            let me = ReplicaId::new(0);
            let _clients: Vec<TcpStream> = (0..16u16)
                .map(|c| {
                    let mut sock = TcpStream::connect(node.listen_addr()).unwrap();
                    for payload in [Vec::new(), vec![1]] {
                        let frame = Envelope::to_peer(
                            ReplicaId::new(100 + c),
                            me,
                            ProtocolTag::Client,
                            payload,
                        )
                        .to_frame();
                        sock.write_all(&frame).unwrap();
                    }
                    sock
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut served = 0;
            while served < 16 && Instant::now() < deadline {
                node.poll_deliver(node.now() + SimDuration::from_millis(50));
                served += node.poll_clients().len();
            }
            assert_eq!(served, 16, "n = {n}: every client is served");
            assert_eq!(node.thread_count(), 3, "n = {n}, 16 clients");
        }
    }

    #[test]
    fn frames_to_a_peer_that_never_reads_are_counted_drops_not_waits() {
        let addrs = free_addrs(3);
        let mut a =
            NodeTransport::bind(ReplicaId::new(0), ProtocolTag::Fbft, addrs[0], &addrs).unwrap();
        let mut b =
            NodeTransport::bind(ReplicaId::new(1), ProtocolTag::Fbft, addrs[1], &addrs).unwrap();
        // Replica 2 accepts and never reads a byte.
        let sink = TcpListener::bind(addrs[2]).unwrap();
        let (_held, _) = sink.accept().unwrap();
        let frames = 4 * crate::outbox::RING_DEPTH;
        let sending = Instant::now();
        for i in 0..frames {
            a.send(
                ReplicaId::new(0),
                ReplicaId::new(2),
                vec![i as u8; 4096].into(),
            );
        }
        assert!(
            sending.elapsed() < Duration::from_secs(5),
            "a stuck peer never holds the sender"
        );
        let dropped = a.stats().dropped;
        assert!(dropped > 0, "a full ring drops and counts");
        assert!(dropped < frames as u64, "what fit is queued");
        // The healthy peer is served all the while.
        a.send(ReplicaId::new(0), ReplicaId::new(1), vec![7].into());
        let got = collect(&mut b, 1, 10);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload[..], [7]);
    }
}
