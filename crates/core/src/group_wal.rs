//! Group-commit WAL: a dedicated writer thread that fsyncs on demand and
//! publishes a durability [`Watermark`].
//!
//! Persist-before-send does not need the consensus loop to wait for the
//! disk after every record. This module keeps fsyncs off the sequencing
//! path without weakening that invariant:
//!
//! 1. the engine loop [`append`](DurableWal::append)s each
//!    [`WalRecord`]: the frame is encoded straight into a buffer shared
//!    with the writer and the record gets back a monotone
//!    [`PersistSeq`] — no disk, no channel, no wake-up;
//! 2. outbound messages justified by those records carry a
//!    [`SendGate`](sft_types::SendGate) and are held by the transport's
//!    writer until the watermark covers their sequence — the invariant
//!    becomes *watermark-before-flush*;
//! 3. whoever holds such a frame asks for it: the run loop
//!    [`request`](Watermark::request)s, once per replica per instant, the
//!    highest sequence it gated a frame on, and blocking waits and
//!    [`barrier`](DurableWal::barrier)s request what they wait for;
//! 4. the **WAL-writer thread** sleeps until a request rises above the
//!    watermark, then takes the whole buffer, makes **one `write` and one
//!    fsync** for it, and advances the watermark to its last sequence.
//!
//! Durability is on demand, not per record. A record no frame waits on —
//! the `QcFormed` and `BlockCommitted` of a vote-aggregation step — rides
//! the next request's fsync, because the log is one sequential file and
//! one fsync covers every byte before it. A round therefore costs each
//! replica one fsync however many records it appends, and an idle system
//! syncs nothing at all. Only a close ([`finish`](GroupCommitWal::finish),
//! drop) or a buffer past a fixed byte bound syncs unasked.
//!
//! ## Safety argument
//!
//! A record's sequence number is covered by the watermark only after the
//! fsync that made it durable returned, and a gated frame reaches the
//! wire only after its gate's sequence is covered. So for every message
//! an observer can ever see, the WAL records justifying it are already
//! durable: persist-before-send, checked when the frame leaves the
//! process rather than when `send` is called.
//!
//! A crash loses every record appended since the last request. Those are
//! exactly the records no sent frame depends on (a frame that left was
//! requested, and its request covered every record before it), so the
//! crash is indistinguishable from crashing before the steps that
//! appended them ran. Client acks are not gated: an ack may name a
//! commit whose `BlockCommitted` record a crash then loses, and the
//! restarted replica re-derives that commit from its peers.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use sft_obs::{names, SharedRecorder};
use sft_types::{PersistSeq, Watermark};

use crate::wal::{WalError, WalReader, WalRecord, WalSink, WalSpan};

/// How a run harness talks to a durable log: appends hand back the
/// record's [`PersistSeq`], the [`Watermark`] says how much of the log
/// is durable, and a [`barrier`](DurableWal::barrier) waits for all of
/// it.
pub trait DurableWal: Send {
    /// Appends one record and returns its persist sequence number
    /// (sequence numbers start at 1 and are assigned in append order).
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] when the sink (or the writer thread
    /// behind it) has failed.
    fn append(&mut self, record: &WalRecord) -> Result<PersistSeq, WalError>;

    /// A handle to this log's durability watermark.
    fn watermark(&self) -> Watermark;

    /// Blocks until every record appended so far is durable.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] when durability can no longer be
    /// reached (the sink failed or the writer thread died).
    fn barrier(&mut self) -> Result<(), WalError>;

    /// `WalSink::sync` calls issued so far — the `wal_fsyncs` metric.
    fn fsyncs(&self) -> u64;
}

/// Bytes of unsynced frames past which the writer syncs unasked: what a
/// log nobody requests anything of may hold in memory (and lose in a
/// crash). A round's records are far below it.
const PENDING_BOUND: usize = 1 << 20;

/// The appends not yet handed to the sink.
#[derive(Default)]
struct Pending {
    /// Their frames, back to back in append order.
    frames: Vec<u8>,
    /// How many records `frames` holds, and the last one's sequence.
    records: u64,
    last: PersistSeq,
    /// Set by `finish` and drop: the writer syncs what is left and exits.
    closing: bool,
    /// Set (once) when the sink fails; the writer exits after setting it
    /// and the watermark never advances past the failure.
    failed: Option<String>,
}

/// State shared between the handle and the writer thread.
#[derive(Default)]
struct GroupShared {
    /// Held by an append while it frames its record, and by the writer
    /// only to swap the buffer out.
    pending: Mutex<Pending>,
    /// Wakes the writer: a request above the watermark, a buffer past
    /// [`PENDING_BOUND`], or a close.
    wake: Condvar,
    fsyncs: AtomicU64,
}

impl GroupShared {
    /// Locks the pending appends. The one panic under this lock, framing
    /// an oversized record, leaves the buffer as it found it, so a
    /// poisoned lock still guards sound data: a WAL failure surfaces as an
    /// error through `failed`, never as a panic of whoever locks next.
    fn lock(&self) -> std::sync::MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn failure(&self) -> Option<WalError> {
        self.lock().failed.as_deref().map(writer_failure)
    }

    /// Wakes the writer to re-check its conditions.
    fn notify(&self) {
        // Taking the lock orders this wake-up after whatever the writer
        // last checked under it, so none is lost.
        let _pending = self.lock();
        self.wake.notify_one();
    }
}

fn writer_failure(msg: &str) -> WalError {
    WalError::Io(io::Error::other(msg.to_string()))
}

/// How long a barrier waits between watermark checks while also
/// watching for a writer failure.
const BARRIER_POLL: Duration = Duration::from_millis(2);

/// The group-commit WAL handle: appends buffer, requests wake the writer
/// thread, which makes everything buffered durable with one fsync, and the
/// [`Watermark`] reports progress. See the [module docs](self).
pub struct GroupCommitWal {
    watermark: Watermark,
    next_seq: PersistSeq,
    /// A reader over the sink's bytes, if it can be read back, and the
    /// log's length with every appended frame counted — where the next
    /// frame lands.
    reader: Option<(WalReader, u64)>,
    shared: Arc<GroupShared>,
    writer: Option<JoinHandle<()>>,
}

impl GroupCommitWal {
    /// Spawns the writer thread over `sink`. `wake` (if given) runs
    /// after every watermark advance — transports hook their waker here
    /// so a completed fsync releases gated frames (a socket transport's
    /// poll sleeps until woken; it has no retry tick for a closed
    /// gate).
    ///
    /// # Errors
    ///
    /// Returns the spawn failure, if any.
    pub fn spawn<S: WalSink + Send + 'static>(
        sink: S,
        recorder: SharedRecorder,
        wake: Option<Box<dyn Fn() + Send + Sync>>,
    ) -> io::Result<Self> {
        let reader = sink.reader();
        let shared = Arc::new(GroupShared::default());
        let watermark = Watermark::with_demand_hook({
            let shared = Arc::clone(&shared);
            move || shared.notify()
        });
        let writer = std::thread::Builder::new()
            .name("sft-wal-writer".into())
            .spawn({
                let watermark = watermark.clone();
                let shared = Arc::clone(&shared);
                move || writer_loop(sink, &watermark, &shared, &recorder, wake.as_deref())
            })?;
        Ok(Self {
            watermark,
            next_seq: 1,
            reader,
            shared,
            writer: Some(writer),
        })
    }

    /// Threads this log owns: its writer, until [`finish`](Self::finish)
    /// joins it.
    pub fn thread_count(&self) -> usize {
        usize::from(self.writer.is_some())
    }

    /// The highest sequence number assigned so far (0 before the first
    /// append) — what a full [`barrier`](DurableWal::barrier) waits for.
    pub fn last_seq(&self) -> PersistSeq {
        self.next_seq - 1
    }

    /// Waits for durability of everything appended, then stops and
    /// joins the writer thread. Preferred over plain drop when the
    /// caller wants the failure, if any.
    ///
    /// # Errors
    ///
    /// Returns the writer's failure if the log never became durable.
    pub fn finish(mut self) -> Result<(), WalError> {
        let result = self.barrier();
        self.close();
        result.and(self.shared.failure().map_or(Ok(()), Err))
    }

    /// Tells the writer to sync what is left and exit, and joins it.
    /// Never panics (drop calls it): raising the flag is sound on a lock
    /// an append panicked under, and the writer then stops on its own.
    fn close(&mut self) {
        let mut pending = self.shared.lock();
        pending.closing = true;
        drop(pending);
        self.shared.wake.notify_one();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }

    /// Appends one record as [`append`](DurableWal::append) does, and
    /// also says where its frame lands in the log when the log can be read
    /// back through [`reader`](Self::reader) (`None` otherwise).
    ///
    /// # Errors
    ///
    /// As [`append`](DurableWal::append).
    pub fn append_spanned(
        &mut self,
        record: &WalRecord,
    ) -> Result<(PersistSeq, Option<WalSpan>), WalError> {
        let seq = self.next_seq;
        let mut pending = self.shared.lock();
        if let Some(msg) = &pending.failed {
            return Err(writer_failure(msg));
        }
        let before = pending.frames.len();
        record.frame_into(&mut pending.frames);
        let len = pending.frames.len() - before;
        pending.records += 1;
        pending.last = seq;
        let crossed = before < PENDING_BOUND && pending.frames.len() >= PENDING_BOUND;
        drop(pending);
        if crossed {
            self.shared.wake.notify_one();
        }
        self.next_seq += 1;
        // The writer hands whole buffers to the sink in append order, so
        // frames land back to back from the sink's length at spawn.
        let span = self.reader.as_mut().map(|(_, end)| {
            let offset = *end;
            *end += len as u64;
            WalSpan {
                offset,
                len: len as u32,
            }
        });
        Ok((seq, span))
    }

    /// A reader over this log's bytes, for the spans
    /// [`append_spanned`](Self::append_spanned) reports; `None` when the
    /// sink cannot be read back.
    pub fn reader(&self) -> Option<WalReader> {
        self.reader.as_ref().map(|(reader, _)| reader.clone())
    }
}

impl DurableWal for GroupCommitWal {
    fn append(&mut self, record: &WalRecord) -> Result<PersistSeq, WalError> {
        self.append_spanned(record).map(|(seq, _)| seq)
    }

    fn watermark(&self) -> Watermark {
        self.watermark.clone()
    }

    fn barrier(&mut self) -> Result<(), WalError> {
        let target = self.last_seq();
        // Each wait requests `target`: everything appended so far.
        while !self.watermark.wait_covers_timeout(target, BARRIER_POLL) {
            if let Some(err) = self.shared.failure() {
                return Err(err);
            }
            if self.writer.as_ref().is_none_or(JoinHandle::is_finished)
                && !self.watermark.covers(target)
            {
                return Err(WalError::Io(io::Error::other(
                    "WAL writer exited before reaching the barrier",
                )));
            }
        }
        Ok(())
    }

    fn fsyncs(&self) -> u64 {
        self.shared.fsyncs.load(Ordering::Relaxed)
    }
}

impl Drop for GroupCommitWal {
    fn drop(&mut self) {
        // Every buffered record is still written and fsynced on the way
        // out.
        self.close();
    }
}

/// The writer thread: sleep until the buffered records are due — a
/// request above the watermark, the byte bound, or a close — then take the
/// whole buffer, one `write`, one fsync, publish the watermark, repeat.
/// Exits on a close once the buffer is empty, or when the sink fails
/// (after recording the failure).
fn writer_loop<S: WalSink>(
    mut sink: S,
    watermark: &Watermark,
    shared: &GroupShared,
    recorder: &SharedRecorder,
    wake: Option<&(dyn Fn() + Send + Sync)>,
) {
    let mut batch = Vec::new();
    loop {
        let (last, records) = {
            let mut pending = shared.lock();
            loop {
                let due = watermark.requested() > watermark.get()
                    || pending.frames.len() >= PENDING_BOUND
                    || pending.closing;
                if pending.records > 0 && due {
                    break;
                }
                if pending.closing {
                    return;
                }
                pending = shared
                    .wake
                    .wait(pending)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            // The appends' buffer becomes this batch; the emptied one
            // (capacity kept) goes back to the appends.
            std::mem::swap(&mut pending.frames, &mut batch);
            let taken = (pending.last, pending.records);
            pending.records = 0;
            taken
        };
        let synced = sink.append(&batch).and_then(|()| sink.sync());
        batch.clear();
        if let Err(e) = synced {
            shared.lock().failed = Some(e.to_string());
            if let Some(wake) = wake {
                wake(); // waiters must re-check and observe the failure
            }
            return;
        }
        shared.fsyncs.fetch_add(1, Ordering::Relaxed);
        if recorder.enabled() {
            recorder.add(names::WAL_FSYNCS, 1);
            recorder.observe(names::WAL_GROUP_SIZE, records);
        }
        watermark.advance(last);
        if let Some(wake) = wake {
            wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{scan_wal, MemSink};
    use crate::Block;

    fn record() -> WalRecord {
        WalRecord::BlockCommitted(Block::genesis())
    }

    /// A sink that shares its image so tests can watch it from outside
    /// the writer thread.
    #[derive(Clone, Default)]
    struct SharedSink {
        bytes: Arc<Mutex<Vec<u8>>>,
        syncs: Arc<AtomicU64>,
        fail_syncs_from: Option<u64>,
    }

    impl WalSink for SharedSink {
        fn append(&mut self, frame: &[u8]) -> io::Result<()> {
            self.bytes.lock().unwrap().extend_from_slice(frame);
            Ok(())
        }

        fn sync(&mut self) -> io::Result<()> {
            let done = self.syncs.fetch_add(1, Ordering::SeqCst) + 1;
            if self.fail_syncs_from.is_some_and(|k| done >= k) {
                return Err(io::Error::other("injected sync failure"));
            }
            Ok(())
        }
    }

    #[test]
    fn group_commit_reaches_durability_and_preserves_order() {
        let sink = SharedSink::default();
        let bytes = Arc::clone(&sink.bytes);
        let mut wal = GroupCommitWal::spawn(sink, sft_obs::noop(), None).unwrap();
        let wm = wal.watermark();
        for expect in 1..=100u64 {
            assert_eq!(wal.append(&record()).unwrap(), expect);
        }
        wal.barrier().unwrap();
        assert!(wm.covers(100));
        let image = bytes.lock().unwrap().clone();
        assert_eq!(scan_wal(&image).unwrap().records.len(), 100);
        // Batching actually batched *or* kept up record-by-record; either
        // way it never fsynced more than once per record.
        assert!(wal.fsyncs() >= 1 && wal.fsyncs() <= 100);
        wal.finish().unwrap();
    }

    #[test]
    fn group_commit_coalesces_a_burst_into_few_fsyncs() {
        // A sync that sleeps forces appends to pile up behind it, so the
        // second group must carry more than one record.
        #[derive(Default)]
        struct SlowSink {
            syncs: u64,
            records: u64,
        }
        impl WalSink for SlowSink {
            fn append(&mut self, _frame: &[u8]) -> io::Result<()> {
                self.records += 1;
                Ok(())
            }
            fn sync(&mut self) -> io::Result<()> {
                self.syncs += 1;
                std::thread::sleep(Duration::from_millis(5));
                Ok(())
            }
        }
        let mut wal = GroupCommitWal::spawn(SlowSink::default(), sft_obs::noop(), None).unwrap();
        let wm = wal.watermark();
        for _ in 0..50 {
            let seq = wal.append(&record()).unwrap();
            wm.request(seq); // every record asked for while the disk lags
        }
        wal.barrier().unwrap();
        assert!(
            wal.fsyncs() < 50,
            "a burst against a slow disk must coalesce; got {} fsyncs for 50 records",
            wal.fsyncs()
        );
        wal.finish().unwrap();
    }

    /// Long enough for a writer that syncs unasked to have done so.
    const SETTLE: Duration = Duration::from_millis(30);

    #[test]
    fn appends_nobody_requests_are_never_synced() {
        let sink = SharedSink::default();
        let syncs = Arc::clone(&sink.syncs);
        let mut wal = GroupCommitWal::spawn(sink, sft_obs::noop(), None).unwrap();
        for _ in 0..20 {
            wal.append(&record()).unwrap();
        }
        std::thread::sleep(SETTLE);
        assert_eq!(wal.fsyncs(), 0);
        assert_eq!(syncs.load(Ordering::SeqCst), 0);
        assert_eq!(wal.watermark().get(), 0, "nothing asked, nothing durable");
    }

    #[test]
    fn one_request_is_one_fsync_covering_everything_before_it() {
        let sink = SharedSink::default();
        let bytes = Arc::clone(&sink.bytes);
        let mut wal = GroupCommitWal::spawn(sink, sft_obs::noop(), None).unwrap();
        let wm = wal.watermark();
        for _ in 0..20 {
            wal.append(&record()).unwrap();
        }
        // A request for an early record syncs the whole buffer: the log is
        // one sequential file.
        wm.request(3);
        assert!(wm.wait_covers_timeout(3, Duration::from_secs(5)));
        std::thread::sleep(SETTLE);
        assert_eq!(wal.fsyncs(), 1);
        assert_eq!(wm.get(), 20, "the one fsync covered all 20");
        assert_eq!(scan_wal(&bytes.lock().unwrap()).unwrap().records.len(), 20);
        wal.finish().unwrap();
    }

    #[test]
    fn a_buffer_past_its_byte_bound_syncs_unasked() {
        let mut wal = GroupCommitWal::spawn(MemSink::new(), sft_obs::noop(), None).unwrap();
        let frame_len = record().to_frame().len();
        let mut seq = 0;
        for _ in 0..=PENDING_BOUND / frame_len {
            seq = wal.append(&record()).unwrap();
        }
        // Polled, not waited on: a wait would be a request.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while wal.fsyncs() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(wal.fsyncs(), 1, "the bound, not a request, synced");
        assert_eq!(wal.watermark().get(), seq);
        assert_eq!(wal.watermark().requested(), 0);
        wal.finish().unwrap();
    }

    #[test]
    fn watermark_never_covers_an_unsynced_record() {
        let sink = SharedSink {
            fail_syncs_from: Some(2),
            ..SharedSink::default()
        };
        let mut wal = GroupCommitWal::spawn(sink, sft_obs::noop(), None).unwrap();
        let wm = wal.watermark();
        wal.append(&record()).unwrap();
        wal.barrier().unwrap(); // first sync succeeds
        assert!(wm.covers(1));
        // Everything after the failing sync must surface as an error and
        // the watermark must freeze short of the doomed records.
        let mut failed = false;
        for _ in 0..10 {
            if wal.append(&record()).is_err() || wal.barrier().is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "a failed fsync must surface");
        assert_eq!(wm.get(), 1, "watermark froze at the durable prefix");
        assert!(wal.finish().is_err());
    }

    #[test]
    fn wake_callback_fires_on_advance() {
        let fired = Arc::new(AtomicU64::new(0));
        let wake = {
            let fired = Arc::clone(&fired);
            Box::new(move || {
                fired.fetch_add(1, Ordering::SeqCst);
            }) as Box<dyn Fn() + Send + Sync>
        };
        let mut wal = GroupCommitWal::spawn(MemSink::new(), sft_obs::noop(), Some(wake)).unwrap();
        wal.append(&record()).unwrap();
        wal.barrier().unwrap();
        // The writer wakes after it advances the watermark, so the barrier
        // can return first; `finish` joins the writer.
        wal.finish().unwrap();
        assert!(fired.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn drop_drains_the_queue() {
        let sink = SharedSink::default();
        let bytes = Arc::clone(&sink.bytes);
        {
            let mut wal = GroupCommitWal::spawn(sink, sft_obs::noop(), None).unwrap();
            for _ in 0..20 {
                wal.append(&record()).unwrap();
            }
            // No barrier: drop must still write and sync everything.
        }
        let image = bytes.lock().unwrap().clone();
        assert_eq!(scan_wal(&image).unwrap().records.len(), 20);
    }
}
