//! The durability watermark: the one value the pipelined persistence
//! path synchronizes on.
//!
//! A group-commit WAL assigns every appended record a monotone *persist
//! sequence number* and, after each (batched) fsync, publishes the
//! highest sequence number now durable — the **watermark**. Everything
//! downstream gates on that single value:
//!
//! - the WAL-writer thread [`advance`](Watermark::advance)s it after
//!   every fsync;
//! - socket transports hold an outbound frame on its ring until the
//!   watermark [`covers`](Watermark::covers) the frame's
//!   [`SendGate`] — persist-before-send becomes watermark-before-flush,
//!   so the consensus loop never blocks on an fsync;
//! - shutdown paths [`wait_covers`](Watermark::wait_covers) to drain.
//!
//! Durability is **on demand**: appending a record does not make the WAL
//! sync it. Whoever needs a sequence durable — the run loop once per
//! instant for the gated frames it routed, a blocking waiter, a barrier —
//! [`request`](Watermark::request)s it, and the watermark wakes the WAL
//! writer through the demand hook the WAL installed
//! ([`with_demand_hook`](Watermark::with_demand_hook)). The log is one
//! sequential file, so one fsync for the highest request covers every
//! record before it.
//!
//! The type lives in `sft-types` (not `sft-core`, where the WAL itself
//! lives) because both sides of the contract need it: the WAL writer
//! that advances it and the transports that wait on it share no other
//! crate.
//!
//! Reads are a single relaxed-free atomic load (the common case on the
//! transport flush path); waits go through a mutex + condvar that
//! [`advance`](Watermark::advance) notifies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A persist sequence number assigned by a WAL to one appended record.
/// Sequence numbers start at 1; `0` means "nothing appended yet", so a
/// fresh watermark (at 0) covers exactly the empty log.
pub type PersistSeq = u64;

/// Wakes whoever makes records durable; see
/// [`Watermark::with_demand_hook`].
type DemandHook = Box<dyn Fn() + Send + Sync>;

/// Shared interior of a [`Watermark`]: the cached value for lock-free
/// reads, the mutex/condvar pair waiters sleep on, and the demand side.
struct WatermarkInner {
    /// Mirror of `durable` for lock-free reads. Updated while the lock
    /// is held, so it never runs ahead of the condvar-protected value.
    cached: AtomicU64,
    durable: Mutex<PersistSeq>,
    advanced: Condvar,
    /// The highest sequence anyone has asked to become durable.
    requested: AtomicU64,
    /// Runs when `requested` rises past the watermark.
    on_demand: Option<DemandHook>,
}

/// The durability watermark: the highest [`PersistSeq`] known durable.
/// Cheap to clone (shared handle); advanced only by the WAL writer,
/// read and waited on by everyone else.
#[derive(Clone)]
pub struct Watermark {
    inner: Arc<WatermarkInner>,
}

impl Watermark {
    /// A fresh watermark at 0 (nothing durable yet) with no demand hook:
    /// whoever advances it does so unasked (tests drive one by hand).
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A fresh watermark whose [`request`](Self::request)s run `hook` —
    /// the WAL writer's wake-up — each time the highest request rises
    /// past what is durable. The hook reads [`requested`](Self::requested)
    /// after it is woken; it must not wait on the watermark itself.
    pub fn with_demand_hook(hook: impl Fn() + Send + Sync + 'static) -> Self {
        Self::build(Some(Box::new(hook)))
    }

    fn build(on_demand: Option<DemandHook>) -> Self {
        Self {
            inner: Arc::new(WatermarkInner {
                cached: AtomicU64::new(0),
                durable: Mutex::new(0),
                advanced: Condvar::new(),
                requested: AtomicU64::new(0),
                on_demand,
            }),
        }
    }

    /// The highest sequence number known durable. One atomic load.
    pub fn get(&self) -> PersistSeq {
        self.inner.cached.load(Ordering::Acquire)
    }

    /// True once every record up to and including `seq` is durable.
    pub fn covers(&self, seq: PersistSeq) -> bool {
        self.get() >= seq
    }

    /// Locks the durable sequence. Every write under the lock is one
    /// store of a whole `u64`, so a poisoned lock still guards a sound
    /// value and is taken as it is.
    fn lock(&self) -> MutexGuard<'_, PersistSeq> {
        self.inner
            .durable
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes durability up to `seq` and wakes every waiter. The
    /// watermark is monotone: an advance below the current value is a
    /// no-op (batches may race only in tests; the WAL writer is one
    /// thread).
    pub fn advance(&self, seq: PersistSeq) {
        let mut durable = self.lock();
        if seq > *durable {
            *durable = seq;
            self.inner.cached.store(seq, Ordering::Release);
            self.inner.advanced.notify_all();
        }
    }

    /// Asks for every record up to `seq` to become durable. Free when
    /// `seq` is already covered or already asked for; otherwise one call
    /// of the demand hook. Never blocks on the disk.
    pub fn request(&self, seq: PersistSeq) {
        if self.covers(seq) || self.inner.requested.fetch_max(seq, Ordering::AcqRel) >= seq {
            return;
        }
        if let Some(hook) = &self.inner.on_demand {
            hook();
        }
    }

    /// The highest sequence [`request`](Self::request)ed so far — what
    /// the WAL writer must make durable next.
    pub fn requested(&self) -> PersistSeq {
        self.inner.requested.load(Ordering::Acquire)
    }

    /// Requests `seq`, then blocks until the watermark covers it.
    pub fn wait_covers(&self, seq: PersistSeq) {
        self.request(seq);
        let mut durable = self.lock();
        while *durable < seq {
            durable = self
                .inner
                .advanced
                .wait(durable)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Requests `seq`, then blocks until the watermark covers it or
    /// `timeout` elapses. Returns whether `seq` is covered —
    /// shutdown-aware waiters loop on this with a short timeout so a dead
    /// WAL writer cannot wedge them.
    pub fn wait_covers_timeout(&self, seq: PersistSeq, timeout: Duration) -> bool {
        self.request(seq);
        let mut durable = self.lock();
        let deadline = std::time::Instant::now() + timeout;
        while *durable < seq {
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return false;
            };
            let (guard, timed_out) = self
                .inner
                .advanced
                .wait_timeout(durable, left)
                .unwrap_or_else(PoisonError::into_inner);
            durable = guard;
            if timed_out.timed_out() {
                return *durable >= seq;
            }
        }
        true
    }
}

impl Default for Watermark {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Watermark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Watermark({})", self.get())
    }
}

/// A durability gate attached to one outbound frame: the frame may hit
/// the wire only once `watermark` covers `seq` — every WAL record that
/// justifies the message is then durable. Frames are gated in enqueue
/// order with monotone sequence numbers, so gating delays sends without
/// ever reordering them.
#[derive(Clone, Debug)]
pub struct SendGate {
    watermark: Watermark,
    seq: PersistSeq,
}

impl SendGate {
    /// Gates a frame on `watermark` covering `seq`.
    pub fn new(watermark: Watermark, seq: PersistSeq) -> Self {
        Self { watermark, seq }
    }

    /// The persist sequence this gate waits for.
    pub fn seq(&self) -> PersistSeq {
        self.seq
    }

    /// True once the frame may be sent. One atomic load.
    pub fn is_open(&self) -> bool {
        self.watermark.covers(self.seq)
    }

    /// Asks for the records behind this frame to become durable (see
    /// [`Watermark::request`]).
    pub fn request(&self) {
        self.watermark.request(self.seq);
    }

    /// Requests this gate's sequence, then blocks until the frame may be
    /// sent.
    pub fn wait_open(&self) {
        self.watermark.wait_covers(self.seq);
    }

    /// Requests this gate's sequence, then blocks until the frame may be
    /// sent or `timeout` elapses; returns whether the gate is open.
    pub fn wait_open_timeout(&self, timeout: Duration) -> bool {
        self.watermark.wait_covers_timeout(self.seq, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_watermark_covers_only_zero() {
        let wm = Watermark::new();
        assert_eq!(wm.get(), 0);
        assert!(wm.covers(0));
        assert!(!wm.covers(1));
    }

    #[test]
    fn advance_is_monotone_and_visible() {
        let wm = Watermark::new();
        wm.advance(5);
        assert_eq!(wm.get(), 5);
        wm.advance(3); // stale advance: no-op
        assert_eq!(wm.get(), 5);
        wm.advance(9);
        assert!(wm.covers(9));
    }

    #[test]
    fn wait_covers_wakes_on_advance() {
        let wm = Watermark::new();
        let waiter = {
            let wm = wm.clone();
            std::thread::spawn(move || wm.wait_covers(4))
        };
        std::thread::sleep(Duration::from_millis(10));
        wm.advance(2); // not enough: waiter stays asleep
        wm.advance(4);
        waiter.join().expect("waiter returns once covered");
    }

    #[test]
    fn wait_covers_timeout_reports_coverage() {
        let wm = Watermark::new();
        assert!(!wm.wait_covers_timeout(1, Duration::from_millis(20)));
        wm.advance(1);
        assert!(wm.wait_covers_timeout(1, Duration::from_millis(20)));
    }

    #[test]
    fn requests_run_the_hook_only_when_demand_rises_past_the_watermark() {
        let calls = Arc::new(AtomicU64::new(0));
        let wm = Watermark::with_demand_hook({
            let calls = Arc::clone(&calls);
            move || {
                calls.fetch_add(1, Ordering::SeqCst);
            }
        });
        wm.request(3);
        assert_eq!((wm.requested(), calls.load(Ordering::SeqCst)), (3, 1));
        wm.request(2); // already asked for
        wm.request(3);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        wm.advance(5);
        wm.request(4); // already durable
        assert_eq!((wm.requested(), calls.load(Ordering::SeqCst)), (3, 1));
        wm.request(6);
        assert_eq!((wm.requested(), calls.load(Ordering::SeqCst)), (6, 2));
    }

    #[test]
    fn waiting_on_a_gate_requests_its_seq() {
        let wm = Watermark::new();
        let gate = SendGate::new(wm.clone(), 7);
        assert!(!gate.wait_open_timeout(Duration::from_millis(1)));
        assert_eq!(wm.requested(), 7, "a blocked waiter is demand");
    }

    #[test]
    fn gate_opens_when_watermark_passes_its_seq() {
        let wm = Watermark::new();
        let gate = SendGate::new(wm.clone(), 3);
        assert_eq!(gate.seq(), 3);
        assert!(!gate.is_open());
        wm.advance(2);
        assert!(!gate.is_open());
        wm.advance(3);
        assert!(gate.is_open());
        gate.wait_open(); // returns immediately once open
        assert!(gate.wait_open_timeout(Duration::from_millis(1)));
    }
}
