//! Closed-loop client load generation for the SFT client plane.
//!
//! A load-generating client dials one replica's client gateway (the
//! [`sft_types::ProtocolTag::Client`] door every transport exposes),
//! keeps a fixed window of submissions in flight, and matches each
//! [`sft_types::ClientAck`] back to its submission by transaction id.
//! Because the loop is *closed* — a new request only goes out when an
//! ack frees a window slot — the generator doubles as the
//! admission-control probe: when the replica's mempool cap is smaller
//! than the window, the overflow comes back as explicit `Busy` acks and
//! the client retries, exactly the backpressure contract the client API
//! promises.
//!
//! Every submission must resolve to *some* ack. Submissions still
//! unresolved when the deadline trips are counted as
//! [`LoadReport::lost`], which a healthy cluster keeps at zero.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sft_crypto::HashValue;
use sft_types::{
    ClientAck, ClientFrame, ClientRequest, Decode, Encode, Envelope, ProtocolTag, ReplicaId,
    Transaction,
};

/// The deterministic payload byte every generated transaction is filled
/// with (distinct from the pre-fed workload's `0xc5` so traces tell the
/// two apart).
const PAYLOAD_FILL: u8 = 0x1d;

/// One closed-loop client's parameters.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// The replica client-gateway address to dial.
    pub addr: SocketAddr,
    /// The replica behind `addr` — the destination every envelope names.
    pub replica: ReplicaId,
    /// This client's identity: the hello frame's claimed source and the
    /// `client` field of every generated [`Transaction`].
    pub client: u16,
    /// Distinct transactions to submit over the run.
    pub total: u64,
    /// Maximum submissions in flight at once (the closed-loop window).
    pub window: usize,
    /// Payload bytes per transaction.
    pub payload_bytes: usize,
    /// Strength level to request acks at (`ClientRequest::ack_at`).
    pub ack_at: u64,
    /// Resubmit transactions the replica answered `Busy` for (admission
    /// backpressure). When `false` a `Busy` resolves the submission.
    pub retry_busy: bool,
    /// Wall-clock budget; in-flight submissions past it count as lost.
    pub deadline: Duration,
}

impl ClientConfig {
    /// A small smoke-test configuration against `addr`/`replica`.
    pub fn smoke(addr: SocketAddr, replica: ReplicaId, client: u16) -> Self {
        Self {
            addr,
            replica,
            client,
            total: 16,
            window: 4,
            payload_bytes: 64,
            ack_at: 1,
            retry_busy: true,
            deadline: Duration::from_secs(60),
        }
    }
}

/// What one (or a merged set of) closed-loop client(s) observed.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Request frames sent, retries included.
    pub requests_sent: u64,
    /// Submissions acknowledged `Committed`.
    pub committed: u64,
    /// `Busy` + `Duplicate` acks received.
    pub rejected: u64,
    /// Submissions that never resolved to any ack before the deadline.
    pub lost: u64,
    /// Committed acks whose strength came back *below* the requested
    /// `ack_at` — always zero unless the ack pipeline is broken.
    pub under_strength: u64,
    /// End-to-end submit→committed-ack latencies, microseconds.
    pub latencies_us: Vec<u64>,
    /// Wall clock from first submission to last resolution.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Median end-to-end ack latency (µs); zero when nothing committed.
    pub fn p50_us(&self) -> u64 {
        self.percentile(50)
    }

    /// 99th-percentile end-to-end ack latency (µs).
    pub fn p99_us(&self) -> u64 {
        self.percentile(99)
    }

    /// Committed transactions per wall-clock second.
    pub fn txns_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.committed as f64 / secs
    }

    /// The nearest-rank `q`-th percentile of the latency samples.
    fn percentile(&self, q: u64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let rank = (q as usize * sorted.len()).div_ceil(100);
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    /// Folds per-client reports into one fleet-wide report (latency
    /// samples concatenate; elapsed takes the slowest client).
    pub fn merge(reports: impl IntoIterator<Item = LoadReport>) -> LoadReport {
        let mut out = LoadReport::default();
        for r in reports {
            out.requests_sent += r.requests_sent;
            out.committed += r.committed;
            out.rejected += r.rejected;
            out.lost += r.lost;
            out.under_strength += r.under_strength;
            out.latencies_us.extend(r.latencies_us);
            out.elapsed = out.elapsed.max(r.elapsed);
        }
        out
    }
}

/// A submission the client is still waiting on.
struct Pending {
    seq: u64,
    sent_at: Instant,
}

/// Runs one closed-loop client to completion: dials the gateway, keeps
/// [`ClientConfig::window`] submissions in flight, and resolves every
/// one of [`ClientConfig::total`] transactions to an ack (or counts it
/// lost at the deadline).
///
/// # Errors
///
/// Returns socket errors (connect/read/write) and protocol violations
/// (an unparseable frame from the replica). A replica hanging up is not
/// an error — unresolved submissions just count as lost.
pub fn run_client(cfg: &ClientConfig) -> io::Result<LoadReport> {
    let mut sock = TcpStream::connect(cfg.addr)?;
    sock.set_nodelay(true)?;
    // Short read timeouts pace the loop: each iteration tops the window
    // up, then waits briefly for acks.
    sock.set_read_timeout(Some(Duration::from_millis(20)))?;
    let me = ReplicaId::new(cfg.client);
    // The hello binds this connection to `me`; it carries no request.
    sock.write_all(
        &Envelope::to_peer(me, cfg.replica, ProtocolTag::Client, Vec::new()).to_frame(),
    )?;

    let started = Instant::now();
    let mut report = LoadReport::default();
    let mut inflight: HashMap<HashValue, Pending> = HashMap::new();
    let mut next_seq = 0u64;
    let mut resolved = 0u64;
    let mut buf: Vec<u8> = Vec::new();
    let mut alive = true;

    let submit = |sock: &mut TcpStream, seq: u64, sent: &mut u64| -> io::Result<HashValue> {
        let txn = Transaction::new(
            u64::from(cfg.client),
            seq,
            vec![PAYLOAD_FILL; cfg.payload_bytes],
        );
        let req = ClientRequest::new(txn, cfg.ack_at);
        let id = req.txn_id();
        let payload = ClientFrame::Request(req).to_bytes();
        sock.write_all(
            &Envelope::to_peer(me, cfg.replica, ProtocolTag::Client, payload).to_frame(),
        )?;
        *sent += 1;
        Ok(id)
    };

    while resolved < cfg.total && started.elapsed() < cfg.deadline {
        while alive && inflight.len() < cfg.window && next_seq < cfg.total {
            let seq = next_seq;
            let id = submit(&mut sock, seq, &mut report.requests_sent)?;
            inflight.insert(
                id,
                Pending {
                    seq,
                    sent_at: Instant::now(),
                },
            );
            next_seq += 1;
        }
        if alive {
            let mut tmp = [0u8; 4096];
            match sock.read(&mut tmp) {
                // The cluster shut down; whatever is still in flight is lost.
                Ok(0) => alive = false,
                Ok(n) => buf.extend_from_slice(&tmp[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset | io::ErrorKind::BrokenPipe
                    ) =>
                {
                    alive = false
                }
                Err(e) => return Err(e),
            }
        }
        while let Some((env, used)) = Envelope::decode_frame(&buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e:?}")))?
        {
            buf.drain(..used);
            let Ok(ClientFrame::Ack(ack)) = ClientFrame::from_bytes(&env.payload) else {
                continue;
            };
            let Some(pending) = inflight.remove(&ack.txn_id()) else {
                continue;
            };
            match ack {
                ClientAck::Committed { strength, .. } => {
                    report.committed += 1;
                    resolved += 1;
                    if strength < cfg.ack_at {
                        report.under_strength += 1;
                    }
                    report
                        .latencies_us
                        .push(pending.sent_at.elapsed().as_micros() as u64);
                }
                ClientAck::Busy { .. } => {
                    report.rejected += 1;
                    if cfg.retry_busy && alive {
                        // Same transaction, same latency clock: the
                        // retry is part of this submission's story.
                        let id = submit(&mut sock, pending.seq, &mut report.requests_sent)?;
                        inflight.insert(id, pending);
                    } else {
                        resolved += 1;
                    }
                }
                ClientAck::Duplicate { .. } => {
                    report.rejected += 1;
                    resolved += 1;
                }
            }
        }
        if !alive {
            // The socket is closed and every complete frame already
            // buffered has been handled: nothing can resolve any more.
            break;
        }
    }
    report.lost = inflight.len() as u64 + (cfg.total - next_seq);
    report.elapsed = started.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(latencies: Vec<u64>) -> LoadReport {
        LoadReport {
            committed: latencies.len() as u64,
            latencies_us: latencies,
            elapsed: Duration::from_secs(2),
            ..LoadReport::default()
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = report_with((1..=100).collect());
        assert_eq!(r.p50_us(), 50);
        assert_eq!(r.p99_us(), 99);
        assert_eq!(report_with(vec![7]).p50_us(), 7);
        assert_eq!(report_with(Vec::new()).p99_us(), 0);
    }

    #[test]
    fn throughput_is_committed_over_elapsed() {
        let r = report_with(vec![10, 20, 30, 40]);
        assert!((r.txns_per_sec() - 2.0).abs() < 1e-9);
        assert_eq!(LoadReport::default().txns_per_sec(), 0.0);
    }

    #[test]
    fn merge_concatenates_samples_and_takes_slowest_clock() {
        let mut a = report_with(vec![1, 2]);
        a.lost = 1;
        let mut b = report_with(vec![3]);
        b.elapsed = Duration::from_secs(5);
        b.rejected = 2;
        let m = LoadReport::merge([a, b]);
        assert_eq!(m.committed, 3);
        assert_eq!(m.lost, 1);
        assert_eq!(m.rejected, 2);
        assert_eq!(m.latencies_us, vec![1, 2, 3]);
        assert_eq!(m.elapsed, Duration::from_secs(5));
    }
}
