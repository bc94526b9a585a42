//! Real-socket transport for tests and the benchmark: a loopback TCP
//! mesh of `n` replica endpoints in one process, speaking length-prefixed
//! [`Envelope`](crate::Envelope) frames.
//!
//! Hand-rolled on `std::net` — there is no registry access, hence no
//! async runtime, and none is needed: the FeBFT shape (typed envelopes
//! consumed from an executor-agnostic transport) works just as well over
//! a run loop whose polls do the socket I/O and sleep in `epoll(7)` until
//! a socket has work for them.
//!
//! A [`TcpCluster`] connects the full mesh over `127.0.0.1` ephemeral
//! ports at construction: one TCP connection per ordered pair
//! `(i → j)` — 14 520 at n = 121 — on **no thread of its own for any n**:
//! the socket core ([`SocketTransport`]) writes, reads and waits inside
//! the caller's polls. A broadcast enqueues one shared pre-framed buffer
//! on `n − 1` rings, and a sender that finds a peer ring full pumps the
//! mesh's sockets until it has room: the mesh is lossless, with bounded
//! memory. The listeners stay open as the replicas' gateways, for clients
//! (and for any peer that reconnects): the first frame of an accepted
//! connection says which it is.

use std::io;
use std::net::{SocketAddr, TcpListener};

use sft_types::{ProtocolTag, ReplicaId};

use crate::socket::{self, SocketTransport, Wiring};

/// An `n`-endpoint loopback TCP mesh implementing
/// [`Transport`](crate::Transport). See the [module docs](self).
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
pub type TcpCluster = SocketTransport<Mesh>;

/// What a [`TcpCluster`] knows beyond the socket core: where each
/// endpoint listens — the mesh was accepted there, clients dial it now.
pub struct Mesh {
    addrs: Vec<SocketAddr>,
}

impl TcpCluster {
    /// Binds `n` endpoints on `127.0.0.1` ephemeral ports, connects the
    /// full mesh, and starts the socket core. Frames not tagged
    /// `protocol` are rejected on arrival.
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
        // Connect the mesh: for each ordered pair (from → to), `from`
        // dials `to`'s listener, hello first. Accepting inline (rather
        // than in a later poll) keeps construction deterministic and
        // turns connection failures into immediate errors.
        let mut wiring = Wiring::new(n, protocol, true);
        let ids = || (0..n as u16).map(ReplicaId::new);
        for from in ids() {
            for (to, listener) in ids().zip(&listeners) {
                if from != to {
                    let stream = socket::dial(from, to, addrs[to.as_usize()], protocol)?;
                    wiring.connected(from, to, stream);
                    wiring.accepted(listener.accept()?.0, to)?;
                }
            }
        }
        for (owner, listener) in ids().zip(listeners) {
            wiring.listen(listener, owner)?;
        }
        Self::start(Mesh { addrs }, wiring, sft_obs::noop())
    }

    /// The socket address clients dial to reach `replica`'s gateway —
    /// the same listener the mesh was accepted on.
    pub fn client_addr(&self, replica: ReplicaId) -> SocketAddr {
        self.kind.addrs[replica.as_usize()]
    }

    /// Severs the `from → to` connection — what the receiving endpoint
    /// observes when the sender's process dies. The next poll drains any
    /// queued frames and shuts the socket down, and a later one reads the
    /// EOF and counts a disconnect in
    /// [`Transport::stats`](crate::Transport::stats); later sends on the
    /// severed link count as drops.
    pub fn sever(&mut self, from: ReplicaId, to: ReplicaId) {
        self.close_link(from, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::read_frame;
    use crate::{ClientDelivery, Delivery, NetworkStats, Transport};
    use sft_types::{Envelope, SimDuration};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

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
        // A poll shuts the socket down, and a later one reads the EOF.
        let deadline = Instant::now() + Duration::from_secs(5);
        while cluster.stats().disconnects == 0 && Instant::now() < deadline {
            cluster.poll_deliver(cluster.now() + SimDuration::from_millis(5));
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
        let env = read_frame(&mut cluster, &mut sock);
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
    fn a_client_that_stops_reading_is_hung_up_on_once_its_ring_fills() {
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

        // The client is not reading. Acking it never waits on it: the
        // run loop gets through every ack at once, polling as it goes.
        let acking = Instant::now();
        for i in 0..ACKS {
            let mut ack = vec![0u8; ACK_LEN];
            ack[..4].copy_from_slice(&i.to_be_bytes());
            cluster.send_client(conn, replica, ack.into());
            if i % 100 == 0 {
                cluster.poll_clients();
            }
        }
        assert!(acking.elapsed() < Duration::from_secs(5), "acks waited");
        let dropped = cluster.stats().dropped;
        assert!(dropped > 0, "a full ring is a counted drop");

        // Reading at last: whole acks in send order, then the hang-up,
        // which the cluster's polls carry out.
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = std::thread::spawn(move || {
            let mut bytes = Vec::new();
            let _ = sock.read_to_end(&mut bytes); // EOF, or reset
            bytes
        });
        while !reader.is_finished() {
            cluster.poll_deliver(cluster.now() + SimDuration::from_millis(5));
        }
        let bytes = reader.join().unwrap();
        let mut used = 0;
        let mut next = 0u32;
        while let Ok(Some((env, len))) = Envelope::decode_frame(&bytes[used..]) {
            used += len;
            assert_eq!(env.payload.len(), ACK_LEN, "no ack torn");
            assert_eq!(env.payload[..4], next.to_be_bytes(), "in send order");
            next += 1;
        }
        assert!(
            u64::from(next) + dropped >= u64::from(ACKS),
            "every ack is delivered whole or counted: {next} + {dropped}"
        );
        assert!(cluster.poll_clients().is_empty());
    }

    #[test]
    fn frames_larger_than_socket_buffers_arrive_whole() {
        // A payload far beyond the loopback kernel buffer forces the
        // flush through its partial-write path (WouldBlock mid-frame,
        // cursor resume once the reading side made room).
        let mut cluster = TcpCluster::loopback(2, ProtocolTag::Fbft).unwrap();
        let payload: Arc<[u8]> = vec![0x5a; 8 * 1024 * 1024].into();
        cluster.send(ReplicaId::new(1), ReplicaId::new(0), Arc::clone(&payload));
        let got = collect(&mut cluster, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload.len(), payload.len());
        assert!(got[0].payload[..] == payload[..], "no bytes torn");
    }
}
