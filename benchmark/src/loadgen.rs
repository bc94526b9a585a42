//! The benchmark's own load generator: one thread and one non-blocking
//! socket per connection, open or closed loop.
//!
//! Two rules shape it. Requests of an open loop are timed from when they
//! were *due*, so a stall (of the cluster or of this generator) is
//! charged to every request that was due during it. And the loop is paced
//! by sub-millisecond sleeps on a non-blocking socket, never by a socket
//! read timeout: `SO_RCVTIMEO` rounds up to 10–15 ms on this kernel,
//! which would turn a 300 req/s schedule into 65 req/s.
//!
//! [`Generator`] decides *what* is due and holds no clock or socket, so
//! tests can drive it; [`run_client`] puts its requests on the wire and
//! keeps one [`Span`] per request in memory.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sft_crypto::{HashValue, RngCore, SplitMix64};
use sft_types::{
    ClientAck, ClientFrame, ClientRequest, Decode, Encode, Envelope, ProtocolTag, ReplicaId,
    Transaction,
};

use crate::procstat;
use crate::workload::{Offer, Phases, Workload};

/// Sleep when a loop iteration moved nothing.
const IDLE_SLEEP: Duration = Duration::from_micros(200);
/// Wait before resubmitting a request the replica answered `Busy`.
const BUSY_BACKOFF: Duration = Duration::from_millis(1);

/// One request the generator wants on the wire now.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    /// When it was due, on the clients' clock.
    pub due: Duration,
    /// The strength level it asks to be acknowledged at.
    pub ack_at: u64,
    /// Its payload bytes.
    pub payload: Vec<u8>,
}

/// The seeded request source of one connection: arrival times (open
/// loop), `ack_at` order and payload bytes all come from the seed, and
/// nothing else does.
pub struct Generator {
    offer: Offer,
    ack_levels: [u64; 2],
    payload_bytes: usize,
    /// No request is due at or after this instant.
    stop_at: Duration,
    rng: SplitMix64,
    /// Open loop: when the next request is due.
    next_due: Duration,
}

impl Generator {
    /// The generator of connection `conn` of `workload` under `seed`.
    pub fn new(workload: &Workload, phases: &Phases, seed: u64, conn: usize) -> Self {
        // Distinct, seed-determined streams per connection.
        let rng = SplitMix64::new(seed ^ (conn as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // The first request is due at once on either loop, so the time
        // to the first ack (`setup_s`) does not hang on the seed's first
        // Poisson gap; the gaps start after it.
        let next_due = Duration::ZERO;
        Self {
            offer: workload.offer,
            ack_levels: workload.ack_levels,
            payload_bytes: workload.payload_bytes,
            stop_at: phases.measure_end(),
            rng,
            next_due,
        }
    }

    /// The next request to send at `now` with `in_flight` unanswered, if
    /// one is due. Call until it returns `None`.
    pub fn next(&mut self, now: Duration, in_flight: usize) -> Option<Planned> {
        let due = match self.offer {
            Offer::Open { rate_per_conn } => {
                let due = self.next_due;
                if due > now || due >= self.stop_at {
                    return None;
                }
                self.next_due = due + exponential_gap(&mut self.rng, rate_per_conn);
                due
            }
            Offer::Closed { window } => {
                if in_flight >= window || now >= self.stop_at {
                    return None;
                }
                now
            }
        };
        let ack_at = self.ack_levels[(self.rng.next_u64() & 1) as usize];
        let mut payload = vec![0u8; self.payload_bytes];
        self.rng.fill_bytes(&mut payload);
        Some(Planned {
            due,
            ack_at,
            payload,
        })
    }

    /// When [`next`](Self::next) will next have something, for an open
    /// loop that is not finished.
    fn next_due(&self) -> Option<Duration> {
        match self.offer {
            Offer::Open { .. } if self.next_due < self.stop_at => Some(self.next_due),
            _ => None,
        }
    }
}

/// One exponentially distributed inter-arrival gap at `rate` per second.
fn exponential_gap(rng: &mut SplitMix64, rate: f64) -> Duration {
    // 53 uniform bits in (0, 1]: the logarithm is finite.
    let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
    Duration::from_secs_f64(-u.ln() / rate)
}

/// The life of one request as the client saw it — the client-side span.
/// Times are on the clients' clock.
#[derive(Clone, Debug)]
pub struct Span {
    /// When the request was due (closed loop: when its slot came free).
    pub due: Duration,
    /// When its frame was handed to the socket.
    pub write_start: Duration,
    /// When the socket had taken the whole frame.
    pub write_end: Option<Duration>,
    /// When its `Committed` ack arrived.
    pub acked: Option<Duration>,
    /// The strength it asked for.
    pub ack_at: u64,
    /// The strength its ack reported.
    pub strength: u64,
    /// How often the replica answered `Busy` before admitting it.
    pub busy_retries: u32,
}

/// Everything one connection recorded.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// One span per request, in submission order.
    pub spans: Vec<Span>,
    /// When the first `Committed` ack arrived.
    pub first_ack: Option<Instant>,
    /// `Committed` acks for a request that already had one.
    pub double_acks: u64,
    /// Acks naming a transaction this connection never sent.
    pub unknown_acks: u64,
    /// `Duplicate` verdicts (never expected: no request is sent twice
    /// unless it was refused).
    pub duplicates: u64,
    /// The replica closed the connection before the client was done.
    pub hung_up: bool,
    /// Process CPU seconds at the start and end of the measured window
    /// (recorded by connection 0 only).
    pub cpu_window: Option<(f64, f64)>,
}

/// What [`run_client`] needs to know.
pub struct ClientConfig<'a> {
    /// The gateway to dial.
    pub addr: SocketAddr,
    /// The replica behind it.
    pub replica: ReplicaId,
    /// Connection index: picks the client id and the seed stream.
    pub conn: usize,
    /// The workload being offered.
    pub workload: &'a Workload,
    /// Warm-up, measured window and grace.
    pub phases: Phases,
    /// The run's seed.
    pub seed: u64,
    /// The clients' clock origin.
    pub epoch: Instant,
}

/// Drives one connection through warm-up, the measured window and the
/// grace period, and returns what it saw.
///
/// # Errors
///
/// Returns socket errors other than the replica hanging up, and frames
/// from the replica that do not parse.
pub fn run_client(cfg: &ClientConfig<'_>) -> io::Result<ClientLog> {
    let mut sock = TcpStream::connect(cfg.addr)?;
    sock.set_nodelay(true)?;
    let me = ReplicaId::new(1000 + cfg.conn as u16);
    sock.write_all(
        &Envelope::to_peer(me, cfg.replica, ProtocolTag::Client, Vec::new()).to_frame(),
    )?;
    sock.set_nonblocking(true)?;

    let mut generator = Generator::new(cfg.workload, &cfg.phases, cfg.seed, cfg.conn);
    let mut log = ClientLog::default();
    // Every id ever sent → its span, so a second ack is told from a stray one.
    let mut ids: HashMap<HashValue, u32> = HashMap::new();
    // On the wire and not yet committed; the frame is kept so a `Busy` can
    // resend it.
    let mut in_flight: HashMap<u32, Vec<u8>> = HashMap::new();
    let mut retries: VecDeque<(Duration, u32)> = VecDeque::new();
    // Outbound bytes not yet taken by the socket, and which request ends where.
    let mut out: VecDeque<u8> = VecDeque::new();
    let (mut queued, mut written) = (0u64, 0u64);
    let mut write_ends: VecDeque<(u64, u32)> = VecDeque::new();
    let mut inbox: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut cpu_start = None;

    loop {
        let now = cfg.epoch.elapsed();
        if cfg.conn == 0 {
            if cpu_start.is_none() && now >= cfg.phases.warmup {
                cpu_start = Some(procstat::cpu_seconds());
            }
            if log.cpu_window.is_none() && now >= cfg.phases.measure_end() {
                log.cpu_window = cpu_start.map(|start| (start, procstat::cpu_seconds()));
            }
        }
        let drained = now >= cfg.phases.measure_end() && in_flight.is_empty() && out.is_empty();
        if drained || now >= cfg.phases.end() || log.hung_up {
            break;
        }
        let mut progressed = false;

        // Refused requests go back out first, on their original clock.
        while retries.front().is_some_and(|(at, _)| *at <= now) {
            let (_, seq) = retries.pop_front().expect("checked front");
            if let Some(frame) = in_flight.get(&seq) {
                out.extend(frame);
                queued += frame.len() as u64;
                progressed = true;
            }
        }
        while let Some(planned) = generator.next(now, in_flight.len()) {
            let seq = log.spans.len() as u32;
            let txn = Transaction::new(me.as_u16().into(), seq.into(), planned.payload);
            let request = ClientRequest::new(txn, planned.ack_at);
            ids.insert(request.txn_id(), seq);
            let body = ClientFrame::Request(request).to_bytes();
            let frame = Envelope::to_peer(me, cfg.replica, ProtocolTag::Client, body).to_frame();
            out.extend(&frame);
            queued += frame.len() as u64;
            write_ends.push_back((queued, seq));
            in_flight.insert(seq, frame);
            log.spans.push(Span {
                due: planned.due,
                write_start: cfg.epoch.elapsed(),
                write_end: None,
                acked: None,
                ack_at: planned.ack_at,
                strength: 0,
                busy_retries: 0,
            });
            progressed = true;
        }

        while !out.is_empty() {
            let (head, _) = out.as_slices();
            match sock.write(head) {
                Ok(0) => {
                    log.hung_up = true;
                    break;
                }
                Ok(n) => {
                    out.drain(..n);
                    written += n as u64;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if hang_up(&e) => {
                    log.hung_up = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        let wrote_at = cfg.epoch.elapsed();
        while write_ends.front().is_some_and(|(end, _)| *end <= written) {
            let (_, seq) = write_ends.pop_front().expect("checked front");
            log.spans[seq as usize].write_end = Some(wrote_at);
        }

        loop {
            match sock.read(&mut chunk) {
                Ok(0) => {
                    log.hung_up = true;
                    break;
                }
                Ok(n) => {
                    inbox.extend_from_slice(&chunk[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if hang_up(&e) => {
                    log.hung_up = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        let mut at = 0;
        while let Some((envelope, used)) = Envelope::decode_frame(&inbox[at..])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e:?}")))?
        {
            at += used;
            let Ok(ClientFrame::Ack(ack)) = ClientFrame::from_bytes(&envelope.payload) else {
                continue;
            };
            let Some(&seq) = ids.get(&ack.txn_id()) else {
                log.unknown_acks += 1;
                continue;
            };
            let span = &mut log.spans[seq as usize];
            match ack {
                ClientAck::Committed { strength, .. } => {
                    if span.acked.is_some() {
                        log.double_acks += 1;
                        continue;
                    }
                    let arrived = Instant::now();
                    span.acked = Some(arrived.duration_since(cfg.epoch));
                    span.strength = strength;
                    log.first_ack.get_or_insert(arrived);
                    in_flight.remove(&seq);
                }
                ClientAck::Busy { .. } => {
                    span.busy_retries += 1;
                    retries.push_back((cfg.epoch.elapsed() + BUSY_BACKOFF, seq));
                }
                ClientAck::Duplicate { .. } => log.duplicates += 1,
            }
        }
        inbox.drain(..at);

        if !progressed {
            let until_due = generator
                .next_due()
                .map_or(IDLE_SLEEP, |due| due.saturating_sub(cfg.epoch.elapsed()));
            std::thread::sleep(until_due.min(IDLE_SLEEP));
        }
    }
    Ok(log)
}

/// True for the errors a closing peer produces.
fn hang_up(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionAborted
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn phases() -> Phases {
        Phases {
            warmup: Duration::ZERO,
            measure: Duration::from_secs(10),
            grace: Duration::ZERO,
        }
    }

    fn drain(generator: &mut Generator, now: Duration) -> Vec<Planned> {
        std::iter::from_fn(|| generator.next(now, 0)).collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let open = &WORKLOADS[0];
        let at = Duration::from_secs(1);
        let a = drain(&mut Generator::new(open, &phases(), 7, 0), at);
        let b = drain(&mut Generator::new(open, &phases(), 7, 0), at);
        let other_seed = drain(&mut Generator::new(open, &phases(), 8, 0), at);
        let other_conn = drain(&mut Generator::new(open, &phases(), 7, 1), at);
        assert!(a.len() > 100, "150 req/s for a second");
        assert_eq!(a, b);
        assert_ne!(a, other_seed);
        assert_ne!(a, other_conn);
        assert!(a.iter().any(|p| p.ack_at == 1) && a.iter().any(|p| p.ack_at == 2));
        assert!(a.iter().all(|p| p.payload.len() == open.payload_bytes));
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_inside_it() {
        let open = &WORKLOADS[0];
        let mut stalled = Generator::new(open, &phases(), 3, 0);
        let mut smooth = Generator::new(open, &phases(), 3, 0);
        // The smooth generator is polled every millisecond; the stalled
        // one misses 100 ms in the middle.
        let mut smooth_due = Vec::new();
        for ms in 0..=400 {
            smooth_due.extend(drain(&mut smooth, Duration::from_millis(ms)));
        }
        let mut stalled_seen = Vec::new();
        for ms in (0..=200).chain(300..=400) {
            let now = Duration::from_millis(ms);
            stalled_seen.extend(drain(&mut stalled, now).into_iter().map(|p| (p, now)));
        }
        // Same requests, same due times: the schedule did not slip.
        let due: Vec<_> = stalled_seen.iter().map(|(p, _)| p.clone()).collect();
        assert_eq!(due, smooth_due);
        // Every request due inside the stall waited for its end, and a
        // reply at that instant is timed from the due time, not from 300.
        let inside: Vec<_> = stalled_seen
            .iter()
            .filter(|(p, _)| {
                p.due > Duration::from_millis(200) && p.due < Duration::from_millis(300)
            })
            .collect();
        assert!(inside.len() >= 5, "150 req/s over 100 ms");
        let mut charged = Duration::ZERO;
        for (planned, sent) in &inside {
            assert_eq!(*sent, Duration::from_millis(300));
            charged += *sent - planned.due;
        }
        // Arrivals are uniform inside the stall: about half of it each.
        let mean = charged / inside.len() as u32;
        assert!(
            mean > Duration::from_millis(20) && mean < Duration::from_millis(80),
            "{mean:?}"
        );
    }

    #[test]
    fn closed_loop_fills_its_window_and_stops_at_the_window_end() {
        let closed = &WORKLOADS[1];
        let mut generator = Generator::new(closed, &phases(), 1, 0);
        let now = Duration::from_millis(5);
        let mut in_flight = 0;
        while let Some(planned) = generator.next(now, in_flight) {
            assert_eq!(planned.due, now, "a closed loop is due when a slot is free");
            in_flight += 1;
        }
        assert_eq!(in_flight, 128);
        assert!(generator.next(now, 127).is_some(), "an ack frees a slot");
        assert!(
            generator.next(Duration::from_secs(10), 0).is_none(),
            "window over"
        );
    }
}
