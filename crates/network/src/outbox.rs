//! Outbound-ring machinery of the socket core.
//!
//! Every outbound connection — a mesh link, a dialled peer, a client's
//! ack stream — queues pre-framed buffers on an [`OutRing`]: a bounded
//! `VecDeque` under a mutex, with a partial-write cursor so the core's
//! *single* non-blocking writer thread can round-robin every connection
//! and resume a half-written frame where it left off
//! ([`OutRing::flush_nonblocking`]: every gate-open frame of a pass in one
//! vectored write, until the socket would block). What a full ring means
//! is the producer's choice:
//!
//! - [`OutRing::push_blocking_gated`] waits for space — the in-process
//!   mesh's lossless backpressure;
//! - [`OutRing::push_gated`] fails, and the caller counts a drop — a
//!   remote peer that is down or hopelessly behind block-syncs what it
//!   missed;
//! - [`OutRing::push_or_cut_off`] closes and empties the ring — a client
//!   that stopped reading its acks is hung up on, never waited for.
//!
//! When a dialled connection dies mid-frame, [`OutRing::rewind`] moves the
//! cursor back to the torn frame's first byte, so the next connection
//! carries it whole.
//!
//! A [`Notifier`] is the writer thread's single wake-up channel: enqueues
//! of sendable frames and completed fsyncs signal it, so the thread
//! sleeps — not spins — while nothing is writable.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use sft_types::SendGate;

/// Per-connection ring depth. Deep enough that a burst of pipelined
/// rounds never stalls the consensus loop; bounded so a dead peer or a
/// client that stopped reading exerts backpressure (mesh), costs fixed
/// memory (remote peer) or is hung up on (client) instead of growing
/// without bound.
pub(crate) const RING_DEPTH: usize = 1024;

/// Frames gathered into one vectored write (the kernel takes at most
/// `IOV_MAX` = 1024 slices): a step's worth of acks in one syscall.
const MAX_BATCH: usize = 256;

/// What one non-blocking flush pass over a ring concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Flush {
    /// Ring drained; more frames may arrive later.
    Clean,
    /// The socket would block with frames still queued; retry later
    /// (kernel buffers drain without anything to signal it).
    Blocked,
    /// The front frame's durability gate is closed. Nothing to retry:
    /// the WAL writer's wake hook signals the moment the watermark moves.
    Gated,
    /// Ring drained *and* closed: no frame will ever follow. The caller
    /// should shut the connection down and forget it.
    Done,
    /// The socket failed mid-write; the connection is gone.
    Dead,
}

/// One queued outbound frame plus its optional durability gate: a gated
/// frame must not start hitting the socket until the gate is open (the
/// WAL records justifying the message are durable). Frames queue in
/// send order with monotone gate sequences, so holding the front frame
/// holds everything behind it — gating delays, never reorders.
struct QueuedFrame {
    bytes: Arc<[u8]>,
    gate: Option<SendGate>,
}

/// The guarded interior of an [`OutRing`].
struct RingState {
    queue: VecDeque<QueuedFrame>,
    /// Bytes of the front frame already written (the partial-write
    /// cursor of the non-blocking flush path).
    offset: usize,
    /// No further frames will be accepted; the writer drains and stops.
    closed: bool,
    /// Producers asleep on `wake`: with none, a pop skips the notify — a
    /// futex syscall whether or not anyone listens.
    waiting: usize,
}

/// One connection's bounded outbound frame queue. See the
/// [module docs](self).
pub(crate) struct OutRing {
    state: Mutex<RingState>,
    /// Woken on pop and close while a blocking producer waits for space.
    wake: Condvar,
}

impl OutRing {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(RingState {
                queue: VecDeque::new(),
                offset: 0,
                closed: false,
                waiting: 0,
            }),
            wake: Condvar::new(),
        })
    }

    /// Sleeps on `wake` until the next pop or close.
    fn wait<'a>(&self, mut state: MutexGuard<'a, RingState>) -> MutexGuard<'a, RingState> {
        state.waiting += 1;
        let mut state = self.wake.wait(state).expect("ring lock");
        state.waiting -= 1;
        state
    }

    /// Wakes whoever sleeps in [`wait`](Self::wait), if anyone does.
    fn notify(&self, state: &RingState) {
        if state.waiting > 0 {
            self.wake.notify_all();
        }
    }

    /// Enqueues without blocking. `false` — the caller counts a drop —
    /// when the ring is closed or full. (The transports always go
    /// through the gated variant; this shorthand serves the tests.)
    #[cfg(test)]
    pub(crate) fn push(&self, frame: Arc<[u8]>) -> bool {
        self.push_gated(frame, None)
    }

    /// [`push`](Self::push) with an optional durability gate the
    /// consumer must see open before writing the frame.
    pub(crate) fn push_gated(&self, frame: Arc<[u8]>, gate: Option<SendGate>) -> bool {
        let mut state = self.state.lock().expect("ring lock");
        if state.closed || state.queue.len() >= RING_DEPTH {
            return false;
        }
        state.queue.push_back(QueuedFrame { bytes: frame, gate });
        true
    }

    /// Enqueues, waiting for space while the ring is full — the
    /// backpressure of a producer that must not silently lose frames.
    /// `false` only when the ring is (or gets) closed. (Transports go
    /// through the gated variant; this shorthand serves the tests.)
    #[cfg(test)]
    pub(crate) fn push_blocking(&self, frame: Arc<[u8]>) -> bool {
        self.push_blocking_gated(frame, None)
    }

    /// [`push_blocking`](Self::push_blocking) with an optional
    /// durability gate. A full ring's frames may all wait on a gate no one
    /// has asked to open yet — the run loop asks at the end of its
    /// instant, and it is the caller blocked here — so the newest queued
    /// gate is requested before sleeping: gates on one ring rise, so it
    /// covers every frame ahead of it.
    pub(crate) fn push_blocking_gated(&self, frame: Arc<[u8]>, gate: Option<SendGate>) -> bool {
        let mut state = self.state.lock().expect("ring lock");
        while !state.closed && state.queue.len() >= RING_DEPTH {
            if let Some(queued) = state.queue.iter().rev().find_map(|f| f.gate.as_ref()) {
                queued.request();
            }
            state = self.wait(state);
        }
        if state.closed {
            return false;
        }
        state.queue.push_back(QueuedFrame { bytes: frame, gate });
        true
    }

    /// Enqueues an ungated frame for a reader that may have stopped
    /// reading, without ever waiting on it: a full ring is closed and
    /// emptied instead, so the writer hangs the connection up on its next
    /// pass. Returns how many frames will never be delivered — the caller
    /// counts them as drops: none when the frame was queued, it alone on
    /// a closed ring, and on a cut-off it plus everything still queued.
    pub(crate) fn push_or_cut_off(&self, frame: Arc<[u8]>) -> u64 {
        let mut state = self.state.lock().expect("ring lock");
        if state.closed {
            return 1;
        }
        if state.queue.len() >= RING_DEPTH {
            let lost = 1 + state.queue.len() as u64;
            state.closed = true;
            state.queue.clear();
            state.offset = 0;
            return lost;
        }
        state.queue.push_back(QueuedFrame {
            bytes: frame,
            gate: None,
        });
        0
    }

    /// Marks the ring closed: pushes fail from now on, and the writer
    /// stops once the remaining frames are drained.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().expect("ring lock");
        state.closed = true;
        self.notify(&state);
    }

    /// Moves the partial-write cursor back to the front frame's first
    /// byte: the connection that carried its beginning is gone, and the
    /// next one must carry it whole.
    pub(crate) fn rewind(&self) {
        self.state.lock().expect("ring lock").offset = 0;
    }

    /// Writes queued frames onto a non-blocking `stream` until the ring
    /// drains, the socket pushes back ([`Flush::Blocked`]), or the front
    /// frame's durability gate is still closed ([`Flush::Gated`]). Each
    /// round gathers the frames up to the first closed gate (at most
    /// [`MAX_BATCH`]) into one `write_vectored` and resumes a
    /// half-written frame at its cursor. A gate is only consulted before
    /// its frame's first byte, which is sound because gates open
    /// monotonically. Returns how many writes moved bytes and the
    /// [`Flush`] status. The lock is never held across a write syscall.
    pub(crate) fn flush_nonblocking(&self, stream: &mut TcpStream) -> (u64, Flush) {
        let mut writes = 0;
        let mut batch: Vec<Arc<[u8]>> = Vec::new();
        loop {
            let offset = {
                let state = self.state.lock().expect("ring lock");
                batch.clear();
                for (i, frame) in state.queue.iter().take(MAX_BATCH).enumerate() {
                    let mid_frame = i == 0 && state.offset > 0;
                    if !mid_frame && frame.gate.as_ref().is_some_and(|gate| !gate.is_open()) {
                        break;
                    }
                    batch.push(Arc::clone(&frame.bytes));
                }
                if batch.is_empty() {
                    let status = match state.queue.front() {
                        Some(_) => Flush::Gated,
                        None if state.closed => Flush::Done,
                        None => Flush::Clean,
                    };
                    return (writes, status);
                }
                state.offset
            };
            let mut slices: Vec<IoSlice<'_>> = batch.iter().map(|f| IoSlice::new(f)).collect();
            slices[0] = IoSlice::new(&batch[0][offset..]);
            match stream.write_vectored(&slices) {
                Ok(0) => return (writes, Flush::Dead),
                Ok(written) => {
                    writes += 1;
                    let mut state = self.state.lock().expect("ring lock");
                    // Frames the write covered whole are done; what is
                    // left of `written` is the cursor into the next one.
                    let mut cursor = offset + written;
                    for frame in &batch {
                        if cursor < frame.len() {
                            break;
                        }
                        cursor -= frame.len();
                        state.queue.pop_front();
                    }
                    state.offset = cursor;
                    self.notify(&state);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (writes, Flush::Blocked),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return (writes, Flush::Dead),
            }
        }
    }
}

/// The writer thread's wake-up line: a level-triggered dirty flag under a
/// mutex + condvar. Producers [`signal`](Self::signal) after every
/// enqueue; the writer [`wait`](Self::wait)s when it has nothing to do
/// (with a timeout while some socket is pushing back, so kernel buffers
/// draining — which no enqueue announces — are retried).
pub(crate) struct Notifier {
    dirty: Mutex<bool>,
    wake: Condvar,
}

impl Notifier {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            dirty: Mutex::new(false),
            wake: Condvar::new(),
        })
    }

    /// Raises the flag and wakes the writer. A flag already up means the
    /// writer has been woken and has not looked yet: the burst of
    /// enqueues behind one step costs one futex wake, not one each.
    pub(crate) fn signal(&self) {
        let mut dirty = self.dirty.lock().expect("notifier lock");
        if !*dirty {
            *dirty = true;
            self.wake.notify_one();
        }
    }

    /// Sleeps until signalled (or `timeout`, when given) and lowers the
    /// flag. A signal raised since the last wait returns immediately —
    /// the flag is level-triggered, so no enqueue is ever missed. Returns
    /// whether it was signalled (false: the timeout ran out).
    pub(crate) fn wait(&self, timeout: Option<Duration>) -> bool {
        let mut dirty = self.dirty.lock().expect("notifier lock");
        match timeout {
            Some(limit) => {
                if !*dirty {
                    let (guard, _) = self.wake.wait_timeout(dirty, limit).expect("notifier lock");
                    dirty = guard;
                }
            }
            None => {
                while !*dirty {
                    dirty = self.wake.wait(dirty).expect("notifier lock");
                }
            }
        }
        std::mem::replace(&mut *dirty, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    fn frame(byte: u8, len: usize) -> Arc<[u8]> {
        vec![byte; len].into()
    }

    /// A connected non-blocking loopback pair.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();
        (client, server)
    }

    #[test]
    fn push_respects_depth_and_close() {
        let ring = OutRing::new();
        for _ in 0..RING_DEPTH {
            assert!(ring.push(frame(1, 4)));
        }
        assert!(!ring.push(frame(1, 4)), "full ring rejects");
        ring.close();
        assert!(!ring.push_blocking(frame(1, 4)), "closed ring rejects");
    }

    #[test]
    fn a_full_ring_cuts_its_reader_off_instead_of_waiting() {
        let (mut tx, _rx) = socket_pair();
        let ring = OutRing::new();
        for _ in 0..RING_DEPTH {
            assert_eq!(ring.push_or_cut_off(frame(1, 4)), 0);
        }
        assert_eq!(
            ring.push_or_cut_off(frame(2, 4)),
            1 + RING_DEPTH as u64,
            "full: the new frame and everything queued are lost"
        );
        assert_eq!(ring.push_or_cut_off(frame(3, 4)), 1, "closed for good");
        assert_eq!(
            ring.flush_nonblocking(&mut tx),
            (0, Flush::Done),
            "nothing queued is written: the writer just hangs up"
        );
    }

    #[test]
    fn rewind_sends_a_torn_frame_whole_on_the_next_connection() {
        let (mut first, mut first_rx) = socket_pair();
        let ring = OutRing::new();
        // Distinct bytes, so a resend starting anywhere but byte 0 shows.
        let big: Arc<[u8]> = (0..16 * 1024 * 1024).map(|i| (i % 251) as u8).collect();
        assert!(ring.push(Arc::clone(&big)));
        assert_eq!(ring.flush_nonblocking(&mut first).1, Flush::Blocked);
        let mut head = [0u8; 1024];
        first_rx.read_exact(&mut head).unwrap();
        drop((first, first_rx)); // the connection is lost mid-frame

        ring.rewind();
        let (mut second, mut second_rx) = socket_pair();
        let reader = std::thread::spawn(move || {
            let mut whole = vec![0u8; 16 * 1024 * 1024];
            second_rx.read_exact(&mut whole).unwrap();
            whole
        });
        while ring.flush_nonblocking(&mut second).1 == Flush::Blocked {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(reader.join().unwrap()[..] == big[..], "whole, from byte 0");
    }

    #[test]
    fn closed_gate_blocks_the_flush_until_the_watermark_covers_it() {
        use sft_types::Watermark;
        let (mut tx, mut rx) = socket_pair();
        rx.set_nonblocking(true).unwrap();
        let ring = OutRing::new();
        let wm = Watermark::new();
        assert!(ring.push(frame(1, 2)));
        assert!(ring.push_gated(frame(2, 2), Some(SendGate::new(wm.clone(), 3))));
        assert!(
            ring.push(frame(3, 2)),
            "ungated frame queued behind the gate"
        );
        // First flush: the vectored write gathers the open frame and
        // stops at the gate, which holds everything behind it (FIFO —
        // gating never reorders).
        let (writes, status) = ring.flush_nonblocking(&mut tx);
        assert_eq!(writes, 1);
        assert_eq!(status, Flush::Gated, "closed gate is not socket pushback");
        let mut got = [0u8; 8];
        assert_eq!(rx.read(&mut got).unwrap(), 2, "nothing gated was written");
        assert_eq!(got[..2], [1, 1]);
        // Still gated on retry while the watermark lags.
        wm.advance(2);
        assert_eq!(ring.flush_nonblocking(&mut tx), (0, Flush::Gated));
        assert_eq!(
            rx.read(&mut got).unwrap_err().kind(),
            io::ErrorKind::WouldBlock,
            "not one byte past the gate"
        );
        // Watermark covers the gate: both remaining frames leave in
        // order, in one write.
        wm.advance(3);
        assert_eq!(ring.flush_nonblocking(&mut tx), (1, Flush::Clean));
        rx.set_nonblocking(false).unwrap();
        let mut rest = [0u8; 4];
        rx.read_exact(&mut rest).unwrap();
        assert_eq!(rest, [2, 2, 3, 3]);
    }

    #[test]
    fn a_gate_mid_batch_ends_the_vectored_write_there() {
        use sft_types::Watermark;
        let (mut tx, mut rx) = socket_pair();
        let ring = OutRing::new();
        let wm = Watermark::new();
        wm.advance(1);
        // open, open (gate already covered), closed, open.
        assert!(ring.push(frame(1, 1)));
        assert!(ring.push_gated(frame(2, 1), Some(SendGate::new(wm.clone(), 1))));
        assert!(ring.push_gated(frame(3, 1), Some(SendGate::new(wm.clone(), 2))));
        assert!(ring.push(frame(4, 1)));
        assert_eq!(ring.flush_nonblocking(&mut tx), (1, Flush::Gated));
        let mut got = [0u8; 2];
        rx.read_exact(&mut got).unwrap();
        assert_eq!(got, [1, 2]);
        wm.advance(2);
        assert_eq!(ring.flush_nonblocking(&mut tx), (1, Flush::Clean));
        rx.read_exact(&mut got).unwrap();
        assert_eq!(got, [3, 4]);
    }

    #[test]
    fn many_small_frames_leave_in_one_write() {
        let (mut tx, mut rx) = socket_pair();
        let ring = OutRing::new();
        for i in 0..128u8 {
            assert!(ring.push(frame(i, 3)));
        }
        assert_eq!(ring.flush_nonblocking(&mut tx), (1, Flush::Clean));
        let mut got = [0u8; 128 * 3];
        rx.read_exact(&mut got).unwrap();
        for (i, bytes) in got.chunks(3).enumerate() {
            assert_eq!(bytes, [i as u8; 3], "send order survives the gather");
        }
    }

    #[test]
    fn flush_drains_frames_onto_the_socket() {
        let (mut tx, mut rx) = socket_pair();
        let ring = OutRing::new();
        assert!(ring.push(frame(1, 3)));
        assert!(ring.push(frame(2, 2)));
        assert_eq!(ring.flush_nonblocking(&mut tx), (1, Flush::Clean));
        let mut got = [0u8; 5];
        rx.read_exact(&mut got).unwrap();
        assert_eq!(got, [1, 1, 1, 2, 2]);
    }

    #[test]
    fn flush_resumes_a_partial_write_after_blocking() {
        let (mut tx, mut rx) = socket_pair();
        let ring = OutRing::new();
        // A frame far larger than loopback socket buffers: the first
        // flush must hit WouldBlock partway through.
        let big = frame(9, 32 * 1024 * 1024);
        assert!(ring.push(Arc::clone(&big)));
        let (writes, status) = ring.flush_nonblocking(&mut tx);
        assert!(writes > 0);
        assert_eq!(status, Flush::Blocked, "kernel buffer filled mid-frame");
        // Drain the receiving side, then resume: the cursor picks up
        // exactly where the first pass stopped.
        let mut total = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let read = rx.read(&mut chunk).unwrap();
            total.extend_from_slice(&chunk[..read]);
            if total.len() >= big.len() {
                break;
            }
            match ring.flush_nonblocking(&mut tx) {
                (_, Flush::Blocked) | (_, Flush::Clean) => {}
                (_, other) => panic!("unexpected flush status {other:?}"),
            }
        }
        assert_eq!(total.len(), big.len());
        assert!(total.iter().all(|b| *b == 9), "no bytes torn or reordered");
        assert_eq!(ring.flush_nonblocking(&mut tx).1, Flush::Clean);
    }

    #[test]
    fn flush_reports_done_when_closed_and_drained() {
        let (mut tx, _rx) = socket_pair();
        let ring = OutRing::new();
        assert!(ring.push(frame(4, 2)));
        ring.close();
        assert_eq!(
            ring.flush_nonblocking(&mut tx),
            (1, Flush::Done),
            "close drains queued frames before reporting done"
        );
    }

    #[test]
    fn flush_reports_dead_on_a_broken_socket() {
        let (mut tx, rx) = socket_pair();
        drop(rx);
        let ring = OutRing::new();
        // Large enough to overrun the kernel buffer of a closed peer.
        assert!(ring.push(frame(1, 32 * 1024 * 1024)));
        // The first write may land in the kernel buffer; keep flushing
        // until the broken pipe surfaces.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match ring.flush_nonblocking(&mut tx).1 {
                Flush::Dead => break,
                _ if std::time::Instant::now() > deadline => {
                    panic!("broken socket never reported dead")
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    #[test]
    fn push_blocking_waits_for_space() {
        let ring = OutRing::new();
        for _ in 0..RING_DEPTH {
            assert!(ring.push(frame(1, 1)));
        }
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push_blocking(frame(2, 1)))
        };
        std::thread::sleep(Duration::from_millis(20));
        let (mut tx, _rx) = socket_pair();
        ring.flush_nonblocking(&mut tx); // the writer frees the slots
        assert!(producer.join().unwrap(), "blocked push lands after a pop");
    }

    #[test]
    fn notifier_is_level_triggered() {
        let notifier = Notifier::new();
        notifier.signal();
        // A signal before the wait is not lost.
        notifier.wait(Some(Duration::from_secs(5)));
        // And the flag was consumed: the next timed wait expires.
        let start = std::time::Instant::now();
        notifier.wait(Some(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }
}
