//! # sft-network
//!
//! The transport layer of the SFT stack: the [`Transport`] trait every
//! run harness drives, its implementations — the deterministic
//! in-process [`SimNetwork`] (via [`SimTransport`]), and over real
//! sockets the loopback mesh [`TcpCluster`] and the single replica
//! endpoint [`NodeTransport`], two constructions of one socket core,
//! [`SocketTransport`] — and the shared wire [`Envelope`] they all speak.
//!
//! The deterministic half: a [`SimNetwork`] queues encoded messages with
//! an injected one-way delay δ and delivers them in a platform-independent
//! order.
//!
//! The paper's evaluation (§4) runs replicas with *injected* inter-region
//! latencies (δ = 100 ms / 200 ms) rather than bandwidth-limited links, so
//! the transport models exactly that: every message sent at time `t` is
//! delivered at `t + δ`, and the network keeps exact per-message byte
//! accounting (for the message-complexity experiments) instead of shaping
//! traffic.
//!
//! ## Determinism
//!
//! Delivery order is `(deliver_at, sequence number)` — the sequence number
//! is assigned at send time, so two messages due at the same instant are
//! delivered in send order on every platform and every run.
//!
//! ## Partial synchrony
//!
//! A [`FaultSchedule`] turns the lossless transport into the partial-
//! synchrony model the paper's liveness arguments assume: per-message drop
//! probability under a seeded PRNG, an optional partition with a heal
//! time, and a global stabilization time (GST) after which delivery is
//! reliable again. Drop decisions are made at *send* time from the seeded
//! stream, so a faulty run is exactly as reproducible as a lossless one.
//!
//! ## Example
//!
//! ```
//! use sft_network::SimNetwork;
//! use sft_types::{ReplicaId, SimDuration, SimTime};
//!
//! let mut net = SimNetwork::new(SimDuration::from_millis(100));
//! net.send(ReplicaId::new(0), ReplicaId::new(1), vec![1, 2, 3]);
//! assert!(net.deliver_due(SimTime::from_millis(99)).is_empty());
//! let delivered = net.deliver_due(SimTime::from_millis(100));
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(&delivered[0].payload[..], &[1, 2, 3][..]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod frame;
mod inbox;
pub mod node;
mod outbox;
#[allow(unsafe_code)] // the one `poll(2)` call; scripts/check_unsafe holds the line
mod readiness;
mod socket;
pub mod tcp;

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use sft_crypto::rng::{RngCore, SplitMix64};
use sft_types::{ReplicaId, SendGate, SimDuration, SimTime};

pub use node::NodeTransport;
pub use sft_types::{Dest, Envelope, ProtocolTag};
pub use socket::SocketTransport;
pub use tcp::TcpCluster;

/// A network as a run harness sees it: sends tagged by source replica, a
/// poll that waits for (or, in simulation, advances virtual time to)
/// deliveries, and a time source. [`SimTransport`] implements it over the
/// deterministic [`SimNetwork`]; [`TcpCluster`] and [`NodeTransport`]
/// implement it over real sockets — the same generic run loop drives any
/// of them.
///
/// There is **one** way to send: [`send_to`](Self::send_to), which takes
/// the destination and an optional durability gate.
/// [`send`](Self::send) and [`broadcast`](Self::broadcast) are ungated
/// shorthands for it, not separate paths.
pub trait Transport {
    /// Number of replicas this transport connects.
    fn replica_count(&self) -> usize;

    /// Sends `payload` from `from` to `dest`: one named peer, or every
    /// other replica (the buffer is encoded once and shared; byte
    /// accounting still charges every recipient).
    ///
    /// With a `gate`, the frame may reach the wire only once the gate is
    /// open — the durability watermark covers the WAL records justifying
    /// the message. Socket transports enqueue at once and hold the frame
    /// in their writer threads, so the caller never waits on an fsync;
    /// the simulator waits for the gate before sending, which is exactly
    /// write-through there (its virtual clock does not advance while the
    /// caller waits). Either way persist-before-send holds.
    fn send_to(&mut self, from: ReplicaId, dest: Dest, payload: Arc<[u8]>, gate: Option<SendGate>);

    /// Ungated point-to-point [`send_to`](Self::send_to).
    fn send(&mut self, from: ReplicaId, to: ReplicaId, payload: Arc<[u8]>) {
        self.send_to(from, Dest::Peer(to), payload, None);
    }

    /// Ungated broadcast [`send_to`](Self::send_to).
    fn broadcast(&mut self, from: ReplicaId, payload: Arc<[u8]>) {
        self.send_to(from, Dest::Broadcast, payload, None);
    }

    /// Waits until at least one delivery is available or `deadline` is
    /// reached, and returns everything deliverable at that point. The
    /// simulator *advances virtual time* (never past `deadline`); a socket
    /// transport blocks on its inbound queue. May return early with
    /// deliveries that arrived before `deadline`; returns empty once
    /// `deadline` has passed with nothing pending.
    fn poll_deliver(&mut self, deadline: SimTime) -> Vec<Delivery>;

    /// The transport's current time: virtual for the simulator, wall-clock
    /// microseconds since construction for sockets.
    fn now(&self) -> SimTime;

    /// The earliest instant an in-flight message becomes deliverable, if
    /// the transport can know it (the simulator can; sockets cannot and
    /// return `None`).
    fn next_deliver_at(&self) -> Option<SimTime>;

    /// True when the transport knows of no undelivered traffic. Drain
    /// loops use this to decide whether another poll is worth it.
    fn is_idle(&self) -> bool;

    /// Aggregate traffic counters since construction.
    fn stats(&self) -> NetworkStats;

    /// Drains client-plane frames ([`ProtocolTag::Client`] submissions)
    /// received since the last poll, attributing each to the connection it
    /// arrived on and the replica it addressed. Non-blocking: a transport
    /// with no client gateway (the simulator feeds clients through the
    /// harness instead) returns nothing.
    fn poll_clients(&mut self) -> Vec<ClientDelivery> {
        Vec::new()
    }

    /// Sends an encoded client frame (an ack) from `replica` back down
    /// client connection `conn`. Transports without a client gateway drop
    /// it; a gateway drops it when the connection is gone (clients own
    /// retries — acks are not replicated state).
    fn send_client(&mut self, conn: u64, replica: ReplicaId, payload: Arc<[u8]>) {
        let _ = (conn, replica, payload);
    }
}

/// One client-plane frame a transport's gateway received: which accepted
/// connection it came from (the routing key for acks back), which replica
/// it addressed, and the encoded [`sft_types::ClientFrame`] payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientDelivery {
    /// Gateway-assigned connection id (unique per accepted client socket).
    pub conn: u64,
    /// The replica the frame was addressed to.
    pub replica: ReplicaId,
    /// The encoded client frame.
    pub payload: Arc<[u8]>,
}

/// A network partition: the `isolated` replicas cannot exchange messages
/// with the rest of the system until `heal_at`. Messages *within* either
/// side flow normally.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// Replicas cut off from the remainder of the system.
    pub isolated: Vec<ReplicaId>,
    /// Instant the partition heals: messages sent at or after this time
    /// cross the cut again.
    pub heal_at: SimTime,
}

impl Partition {
    /// True if a message from `from` to `to` sent at `now` crosses an
    /// active cut.
    fn severs(&self, from: ReplicaId, to: ReplicaId, now: SimTime) -> bool {
        now < self.heal_at && (self.isolated.contains(&from) != self.isolated.contains(&to))
    }
}

/// A deterministic partial-synchrony schedule for [`SimNetwork`]:
/// probabilistic per-message loss before GST, plus an optional partition.
///
/// # Examples
///
/// ```
/// use sft_network::FaultSchedule;
/// use sft_types::SimTime;
///
/// // 10% loss until the 2-second mark, reliable after.
/// let faults = FaultSchedule::lossy(7, 0.10, SimTime::from_millis(2000));
/// assert_eq!(faults.gst, SimTime::from_millis(2000));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSchedule {
    /// Seed for the drop-decision stream (one draw per send before GST).
    pub seed: u64,
    /// Probability in `[0, 1]` that a message sent before [`gst`](Self::gst)
    /// is dropped.
    pub drop_probability: f64,
    /// Global stabilization time: sends at or after this instant are never
    /// probabilistically dropped (partitions have their own heal time).
    pub gst: SimTime,
    /// Optional partition layered on top of the probabilistic loss.
    pub partition: Option<Partition>,
}

impl FaultSchedule {
    /// A purely lossy schedule: drop each pre-GST message with
    /// `drop_probability`, no partition.
    pub fn lossy(seed: u64, drop_probability: f64, gst: SimTime) -> Self {
        Self {
            seed,
            drop_probability,
            gst,
            partition: None,
        }
    }

    /// A clean partition isolating `isolated` until `heal_at`; no
    /// probabilistic loss.
    pub fn partition(isolated: Vec<ReplicaId>, heal_at: SimTime) -> Self {
        Self {
            seed: 0,
            drop_probability: 0.0,
            gst: SimTime::ZERO,
            partition: Some(Partition { isolated, heal_at }),
        }
    }

    /// Layers a partition onto this schedule.
    pub fn with_partition(mut self, isolated: Vec<ReplicaId>, heal_at: SimTime) -> Self {
        self.partition = Some(Partition { isolated, heal_at });
        self
    }
}

/// Live drop-decision state derived from a [`FaultSchedule`].
#[derive(Clone, Debug)]
struct FaultState {
    schedule: FaultSchedule,
    rng: SplitMix64,
}

impl FaultState {
    fn new(schedule: FaultSchedule) -> Self {
        let rng = SplitMix64::new(schedule.seed);
        Self { schedule, rng }
    }

    /// Decides the fate of one send. Consumes exactly one PRNG draw per
    /// pre-GST send (partition cuts included), so the decision stream —
    /// and with it the whole run — is a pure function of the schedule and
    /// the send order.
    fn drops(&mut self, from: ReplicaId, to: ReplicaId, now: SimTime) -> bool {
        let severed = self
            .schedule
            .partition
            .as_ref()
            .is_some_and(|p| p.severs(from, to, now));
        let lossy = now < self.schedule.gst && self.schedule.drop_probability > 0.0;
        let unlucky = lossy && {
            // One draw per candidate send keeps the stream aligned even
            // when the partition already sealed the message's fate.
            let draw = self.rng.next_u64() as f64 / (u64::MAX as f64);
            draw < self.schedule.drop_probability
        };
        severed || unlucky
    }
}

/// One queued or delivered message, as a harness receives it.
#[derive(Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Sending replica.
    pub from: ReplicaId,
    /// Receiving replica.
    pub to: ReplicaId,
    /// Encoded message bytes. Shared, not owned: a broadcast encodes its
    /// message once and every recipient's delivery points at the same
    /// buffer, so fan-out costs reference counts instead of `n − 1` copies
    /// (byte *accounting* still charges every recipient).
    pub payload: Arc<[u8]>,
    /// Instant the message became deliverable.
    pub deliver_at: SimTime,
    /// Arrival-order sequence number (the delivery tiebreaker).
    pub seq: u64,
}

impl fmt::Debug for Delivery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Delivery(#{} {} -> {} {}B @ {})",
            self.seq,
            self.from,
            self.to,
            self.payload.len(),
            self.deliver_at
        )
    }
}

/// Aggregate traffic counters, the quantities the message-complexity
/// experiments chart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Total messages sent (wire cost is paid whether or not the fault
    /// schedule later drops the message).
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Messages the fault schedule dropped (partition cuts and lossy-link
    /// losses); always zero on a lossless network.
    pub dropped: u64,
    /// Peer connections lost (reader EOF/error, writer failures). Always
    /// zero on the simulator; socket transports count every drop so
    /// reconnection logic has an observable signal instead of a silent
    /// thread exit.
    pub disconnects: u64,
}

/// A deterministic store-and-forward network with a uniform one-way delay.
#[derive(Clone, Debug)]
pub struct SimNetwork {
    delay: SimDuration,
    now: SimTime,
    /// Pending envelopes ordered by `(deliver_at, seq)`. Sends enqueue at
    /// `now + delay` and `now` never decreases, so pushing to the back and
    /// popping from the front maintains the order with no re-sorting.
    queue: VecDeque<Delivery>,
    next_seq: u64,
    stats: NetworkStats,
    faults: Option<FaultState>,
}

impl SimNetwork {
    /// Creates a lossless network with one-way delay δ.
    pub fn new(delay: SimDuration) -> Self {
        Self {
            delay,
            now: SimTime::ZERO,
            queue: VecDeque::new(),
            next_seq: 0,
            stats: NetworkStats::default(),
            faults: None,
        }
    }

    /// Applies a partial-synchrony fault schedule to this network.
    pub fn with_faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = Some(FaultState::new(schedule));
        self
    }

    /// The configured one-way delay.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// The network's current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queues `payload` from `from` to `to`, due one delay from now.
    /// Accepts owned bytes or an already-shared buffer. Under a
    /// [`FaultSchedule`] the message may be dropped at send time (the wire
    /// cost is still accounted; `stats.dropped` counts the loss).
    pub fn send(&mut self, from: ReplicaId, to: ReplicaId, payload: impl Into<Arc<[u8]>>) {
        let payload = payload.into();
        self.stats.messages += 1;
        self.stats.bytes += payload.len() as u64;
        let now = self.now;
        if self.faults.as_mut().is_some_and(|f| f.drops(from, to, now)) {
            self.stats.dropped += 1;
            return;
        }
        let envelope = Delivery {
            from,
            to,
            payload,
            deliver_at: self.now + self.delay,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.queue.push_back(envelope);
    }

    /// Sends `payload` from `from` to every replica in `0..n` except the
    /// sender (a replica hands its own messages to itself directly, without
    /// paying the network delay). The buffer is encoded/owned once and
    /// shared across recipients; per-recipient byte accounting is
    /// unchanged.
    pub fn broadcast(&mut self, from: ReplicaId, n: usize, payload: impl Into<Arc<[u8]>>) {
        let payload: Arc<[u8]> = payload.into();
        for to in 0..n as u16 {
            let to = ReplicaId::new(to);
            if to != from {
                self.send(from, to, Arc::clone(&payload));
            }
        }
    }

    /// Advances virtual time to `until` and returns every envelope due by
    /// then, in deterministic `(deliver_at, seq)` order.
    ///
    /// # Panics
    ///
    /// Panics if `until` is before the current time (time is monotonic).
    pub fn deliver_due(&mut self, until: SimTime) -> Vec<Delivery> {
        assert!(
            until >= self.now,
            "time moved backwards: {until} < {}",
            self.now
        );
        self.now = until;
        let mut due = Vec::new();
        while self.queue.front().is_some_and(|e| e.deliver_at <= until) {
            due.push(self.queue.pop_front().expect("checked front"));
        }
        due
    }

    /// Number of messages still in flight.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The earliest instant an in-flight message becomes deliverable, or
    /// `None` if the queue is empty — the quantity an event-driven driver
    /// (as opposed to the lock-step epoch loop) schedules against.
    pub fn next_deliver_at(&self) -> Option<SimTime> {
        self.queue.front().map(|e| e.deliver_at)
    }

    /// Traffic counters since construction.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }
}

/// The deterministic simulator as a [`Transport`]: a [`SimNetwork`] plus
/// the replica count broadcasts fan out to. Polling *advances virtual
/// time* — the network's clock is the run's clock — so a generic engine
/// loop driving this transport reproduces the old lock-step/event-loop
/// drivers byte for byte.
#[derive(Clone, Debug)]
pub struct SimTransport {
    net: SimNetwork,
    n: usize,
}

impl SimTransport {
    /// Wraps `net` as the transport of an `n`-replica system.
    pub fn new(net: SimNetwork, n: usize) -> Self {
        Self { net, n }
    }

    /// The underlying deterministic network.
    pub fn network(&self) -> &SimNetwork {
        &self.net
    }
}

impl Transport for SimTransport {
    fn replica_count(&self) -> usize {
        self.n
    }

    fn send_to(&mut self, from: ReplicaId, dest: Dest, payload: Arc<[u8]>, gate: Option<SendGate>) {
        if let Some(gate) = gate {
            gate.wait_open();
        }
        match dest {
            Dest::Peer(to) => self.net.send(from, to, payload),
            Dest::Broadcast => self.net.broadcast(from, self.n, payload),
        }
    }

    fn poll_deliver(&mut self, deadline: SimTime) -> Vec<Delivery> {
        self.net.deliver_due(deadline)
    }

    fn now(&self) -> SimTime {
        self.net.now()
    }

    fn next_deliver_at(&self) -> Option<SimTime> {
        self.net.next_deliver_at()
    }

    fn is_idle(&self) -> bool {
        self.net.pending() == 0
    }

    fn stats(&self) -> NetworkStats {
        self.net.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: u16) -> ReplicaId {
        ReplicaId::new(v)
    }

    #[test]
    fn delivery_respects_delay() {
        let mut net = SimNetwork::new(SimDuration::from_millis(100));
        net.send(r(0), r(1), vec![9]);
        assert_eq!(net.pending(), 1);
        assert!(net.deliver_due(SimTime::from_millis(50)).is_empty());
        let due = net.deliver_due(SimTime::from_millis(100));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].from, r(0));
        assert_eq!(due[0].to, r(1));
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn later_sends_deliver_later() {
        let mut net = SimNetwork::new(SimDuration::from_millis(100));
        net.send(r(0), r(1), vec![1]);
        net.deliver_due(SimTime::from_millis(30));
        net.send(r(0), r(1), vec![2]); // due at 130
        let due = net.deliver_due(SimTime::from_millis(100));
        assert_eq!(due.len(), 1);
        assert_eq!(&due[0].payload[..], &[1][..]);
        let due = net.deliver_due(SimTime::from_millis(130));
        assert_eq!(&due[0].payload[..], &[2][..]);
    }

    #[test]
    fn simultaneous_messages_keep_send_order() {
        let mut net = SimNetwork::new(SimDuration::from_millis(10));
        for i in 0..5u8 {
            net.send(r(i as u16), r(9), vec![i]);
        }
        let due = net.deliver_due(SimTime::from_millis(10));
        let order: Vec<u8> = due.iter().map(|e| e.payload[0]).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn broadcast_skips_sender_and_counts_bytes() {
        let mut net = SimNetwork::new(SimDuration::from_millis(1));
        net.broadcast(r(2), 4, &[0xaa, 0xbb][..]);
        let due = net.deliver_due(SimTime::from_millis(1));
        let recipients: Vec<u16> = due.iter().map(|e| e.to.as_u16()).collect();
        assert_eq!(recipients, vec![0, 1, 3]);
        assert_eq!(
            net.stats(),
            NetworkStats {
                messages: 3,
                bytes: 6,
                dropped: 0,
                disconnects: 0
            }
        );
    }

    #[test]
    fn broadcast_shares_one_buffer_across_recipients() {
        let mut net = SimNetwork::new(SimDuration::from_millis(1));
        net.broadcast(r(0), 4, vec![1, 2, 3]);
        let due = net.deliver_due(SimTime::from_millis(1));
        assert_eq!(due.len(), 3);
        assert!(
            due.windows(2)
                .all(|w| Arc::ptr_eq(&w[0].payload, &w[1].payload)),
            "recipients alias the same encoded buffer"
        );
    }

    #[test]
    #[should_panic(expected = "time moved backwards")]
    fn time_is_monotonic() {
        let mut net = SimNetwork::new(SimDuration::from_millis(1));
        net.deliver_due(SimTime::from_millis(5));
        net.deliver_due(SimTime::from_millis(4));
    }

    #[test]
    fn next_deliver_at_tracks_the_queue_head() {
        let mut net = SimNetwork::new(SimDuration::from_millis(100));
        assert_eq!(net.next_deliver_at(), None);
        net.send(r(0), r(1), vec![1]);
        assert_eq!(net.next_deliver_at(), Some(SimTime::from_millis(100)));
        net.deliver_due(SimTime::from_millis(100));
        assert_eq!(net.next_deliver_at(), None);
    }

    #[test]
    fn zero_delay_delivers_immediately() {
        let mut net = SimNetwork::new(SimDuration::ZERO);
        net.send(r(0), r(1), vec![1]);
        assert_eq!(net.deliver_due(net.now()).len(), 1);
    }

    #[test]
    fn partition_drops_cross_cut_messages_until_heal() {
        let heal = SimTime::from_millis(500);
        let mut net = SimNetwork::new(SimDuration::from_millis(100))
            .with_faults(FaultSchedule::partition(vec![r(3)], heal));
        // Before heal: cross-cut messages vanish, same-side ones flow.
        net.send(r(0), r(3), vec![1]);
        net.send(r(3), r(0), vec![2]);
        net.send(r(0), r(1), vec![3]);
        let due = net.deliver_due(SimTime::from_millis(100));
        assert_eq!(due.len(), 1);
        assert_eq!(&due[0].payload[..], &[3][..]);
        assert_eq!(net.stats().dropped, 2);
        assert_eq!(net.stats().messages, 3, "wire cost still accounted");
        // At/after heal: the cut is gone.
        net.deliver_due(heal);
        net.send(r(0), r(3), vec![4]);
        assert_eq!(net.deliver_due(SimTime::from_millis(600)).len(), 1);
        assert_eq!(net.stats().dropped, 2);
    }

    #[test]
    fn lossy_schedule_drops_some_messages_before_gst_and_none_after() {
        let gst = SimTime::from_millis(1000);
        let mut net = SimNetwork::new(SimDuration::from_millis(1))
            .with_faults(FaultSchedule::lossy(42, 0.5, gst));
        for i in 0..100u16 {
            net.send(r(0), r(1), vec![i as u8]);
        }
        let dropped_before = net.stats().dropped;
        assert!(
            (20..=80).contains(&dropped_before),
            "~half of 100 sends drop at p=0.5, got {dropped_before}"
        );
        net.deliver_due(gst);
        for i in 0..100u16 {
            net.send(r(0), r(1), vec![i as u8]);
        }
        assert_eq!(net.stats().dropped, dropped_before, "no loss after GST");
    }

    #[test]
    fn partition_healing_exactly_at_gst_restores_both_layers_at_once() {
        // Heal time and GST at the same instant: a message sent one tick
        // before is exposed to both the cut and the loss stream; a message
        // sent exactly at the boundary is exposed to neither.
        let boundary = SimTime::from_millis(300);
        let mut net = SimNetwork::new(SimDuration::from_millis(1)).with_faults(
            FaultSchedule::lossy(1, 1.0, boundary).with_partition(vec![r(3)], boundary),
        );
        net.deliver_due(SimTime::from_millis(299));
        net.send(r(0), r(3), vec![1]); // severed AND unlucky: one drop
        assert_eq!(net.stats().dropped, 1);
        net.deliver_due(boundary);
        net.send(r(0), r(3), vec![2]); // at the boundary: delivered
        net.send(r(3), r(0), vec![3]);
        assert_eq!(net.stats().dropped, 1, "no loss at or after the boundary");
        assert_eq!(net.pending(), 2);
    }

    #[test]
    fn partition_heal_time_equal_to_now_does_not_sever() {
        // `severs` is strict (`now < heal_at`): a partition whose heal time
        // has just arrived drops nothing, even though it is still present
        // in the schedule.
        let heal = SimTime::from_millis(100);
        let mut net = SimNetwork::new(SimDuration::from_millis(1))
            .with_faults(FaultSchedule::partition(vec![r(1)], heal));
        net.deliver_due(heal);
        net.send(r(0), r(1), vec![9]);
        assert_eq!(net.stats().dropped, 0);
        assert_eq!(net.pending(), 1);
    }

    #[test]
    fn broadcast_fanout_counts_every_dropped_recipient() {
        // A broadcast is n − 1 sends, and the drop accounting charges each
        // severed recipient individually — the same per-recipient
        // accounting the TCP transport (which never drops) reports as
        // zero, so `dropped` means the same thing on both transports.
        let heal = SimTime::from_millis(500);
        let mut net = SimNetwork::new(SimDuration::from_millis(1))
            .with_faults(FaultSchedule::partition(vec![r(0)], heal));
        net.broadcast(r(0), 5, vec![7; 3]);
        assert_eq!(net.stats().messages, 4, "wire cost for all n - 1 sends");
        assert_eq!(net.stats().dropped, 4, "every cross-cut recipient counted");
        net.broadcast(r(1), 5, vec![7; 3]);
        assert_eq!(
            net.stats().dropped,
            5,
            "only the severed recipient of the second broadcast drops"
        );
        assert_eq!(net.pending(), 3);
    }

    #[test]
    fn fault_schedules_are_deterministic() {
        let run = || {
            let mut net = SimNetwork::new(SimDuration::from_millis(1))
                .with_faults(FaultSchedule::lossy(7, 0.3, SimTime::from_millis(10_000)));
            for i in 0..200u16 {
                net.send(r(i % 4), r((i + 1) % 4), vec![i as u8]);
            }
            net.stats()
        };
        assert_eq!(run(), run());
    }
}
