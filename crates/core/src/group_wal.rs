//! Group-commit WAL: a dedicated writer thread that batches fsyncs and
//! publishes a durability [`Watermark`].
//!
//! The write-through discipline (PR 6) makes every persisting engine
//! step pay an fsync *inline*: the consensus loop cannot touch the next
//! envelope until the disk confirms. This module splits that cost off
//! the sequencing path without weakening the persist-before-send
//! invariant:
//!
//! 1. the engine loop [`append`](DurableWal::append)s each
//!    [`WalRecord`] to an in-memory queue and gets back a monotone
//!    [`PersistSeq`] — microseconds, no disk;
//! 2. one **WAL-writer thread** drains the queue, writes every pending
//!    frame, issues a *single* fsync for the whole group, and advances
//!    the shared [`Watermark`] to the group's last sequence number;
//! 3. outbound messages justified by those records carry a
//!    [`SendGate`](sft_types::SendGate) and are held by the transport's
//!    writer until the watermark covers their sequence — the invariant
//!    becomes *watermark-before-flush*.
//!
//! Batching is adaptive with no tuning knob: the writer drains whatever
//! is queued, so an idle system fsyncs every record immediately (group
//! size 1, write-through latency) while a loaded system coalesces every
//! record that arrived during the previous fsync into one group — the
//! classic group-commit latency/throughput trade made automatically.
//!
//! ## Safety argument
//!
//! A record's sequence number is covered by the watermark only after the
//! fsync that made it durable returned, and a gated frame reaches the
//! wire only after its gate's sequence is covered. So for every message
//! an observer can ever see, the WAL records justifying it are already
//! durable — exactly the guarantee inline fsyncing gave, shifted from
//! "before `send` is called" to "before the frame leaves the process".
//! A crash between append and fsync loses only records whose messages
//! were still held back, which is indistinguishable from crashing
//! before the step ran.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sft_obs::{names, SharedRecorder};
use sft_types::{PersistSeq, Watermark};

use crate::wal::{WalError, WalRecord, WalSink};

/// How a run harness talks to a durable log, write-through or
/// group-commit alike: appends hand back the record's [`PersistSeq`],
/// the [`Watermark`] says how much of the log is durable, and a
/// [`barrier`](DurableWal::barrier) waits for all of it.
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

/// The baseline durability discipline: every append writes *and* fsyncs
/// inline, and the watermark advances before `append` returns — so
/// gates built from it are always already open. This is `sync_every = 1`
/// expressed through the [`DurableWal`] interface, which makes it the
/// control arm of every group-commit comparison.
pub struct WriteThroughWal<S: WalSink> {
    sink: S,
    watermark: Watermark,
    next_seq: PersistSeq,
    fsyncs: u64,
    recorder: SharedRecorder,
}

impl<S: WalSink> WriteThroughWal<S> {
    /// Wraps `sink` in write-through (fsync-per-append) mode.
    pub fn new(sink: S, recorder: SharedRecorder) -> Self {
        Self {
            sink,
            watermark: Watermark::new(),
            next_seq: 1,
            fsyncs: 0,
            recorder,
        }
    }

    /// The underlying sink (tests inspect accumulated bytes).
    pub fn sink(&self) -> &S {
        &self.sink
    }
}

impl<S: WalSink + Send> DurableWal for WriteThroughWal<S> {
    fn append(&mut self, record: &WalRecord) -> Result<PersistSeq, WalError> {
        let frame = record.to_frame();
        self.sink.append(&frame)?;
        self.sink.sync()?;
        self.fsyncs += 1;
        if self.recorder.enabled() {
            self.recorder.add(names::WAL_FSYNCS, 1);
            self.recorder.observe(names::WAL_GROUP_SIZE, 1);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.watermark.advance(seq);
        Ok(seq)
    }

    fn watermark(&self) -> Watermark {
        self.watermark.clone()
    }

    fn barrier(&mut self) -> Result<(), WalError> {
        Ok(()) // every append already synced inline
    }

    fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

/// One queued append: the encoded frame and its assigned sequence.
struct QueuedFrame {
    frame: Vec<u8>,
    seq: PersistSeq,
}

/// State shared between the handle and the writer thread.
struct GroupShared {
    fsyncs: AtomicU64,
    /// Set (once) when the sink fails; the writer exits after setting it
    /// and the watermark never advances past the failure.
    failed: Mutex<Option<String>>,
}

impl GroupShared {
    fn failure(&self) -> Option<WalError> {
        self.failed
            .lock()
            .expect("group wal failure slot")
            .as_ref()
            .map(|msg| WalError::Io(io::Error::other(msg.clone())))
    }
}

/// How long a barrier waits between watermark checks while also
/// watching for a writer failure.
const BARRIER_POLL: Duration = Duration::from_millis(2);

/// The group-commit WAL handle: appends enqueue, the writer thread
/// batches and fsyncs, the [`Watermark`] reports progress. See the
/// [module docs](self).
pub struct GroupCommitWal {
    /// `None` once the handle is shutting down (channel closed).
    tx: Option<Sender<QueuedFrame>>,
    watermark: Watermark,
    next_seq: PersistSeq,
    shared: Arc<GroupShared>,
    writer: Option<JoinHandle<()>>,
}

impl GroupCommitWal {
    /// Spawns the writer thread over `sink`. `wake` (if given) runs
    /// after every watermark advance — transports hook their writer
    /// notifier here so a completed fsync releases gated frames
    /// (the socket transports' writer sleeps until signalled; it has no
    /// retry tick for a closed gate).
    ///
    /// # Errors
    ///
    /// Returns the spawn failure, if any.
    pub fn spawn<S: WalSink + Send + 'static>(
        sink: S,
        recorder: SharedRecorder,
        wake: Option<Box<dyn Fn() + Send + Sync>>,
    ) -> io::Result<Self> {
        let (tx, rx) = mpsc::channel::<QueuedFrame>();
        let watermark = Watermark::new();
        let shared = Arc::new(GroupShared {
            fsyncs: AtomicU64::new(0),
            failed: Mutex::new(None),
        });
        let writer = std::thread::Builder::new()
            .name("sft-wal-writer".into())
            .spawn({
                let watermark = watermark.clone();
                let shared = Arc::clone(&shared);
                move || writer_loop(sink, &rx, &watermark, &shared, &recorder, wake.as_deref())
            })?;
        Ok(Self {
            tx: Some(tx),
            watermark,
            next_seq: 1,
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
        self.tx = None; // close the channel; the writer drains and exits
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        result.and(self.shared.failure().map_or(Ok(()), Err))
    }
}

impl DurableWal for GroupCommitWal {
    fn append(&mut self, record: &WalRecord) -> Result<PersistSeq, WalError> {
        if let Some(err) = self.shared.failure() {
            return Err(err);
        }
        let seq = self.next_seq;
        let queued = QueuedFrame {
            frame: record.to_frame(),
            seq,
        };
        let tx = self.tx.as_ref().expect("append after finish");
        if tx.send(queued).is_err() {
            // The writer died between the failure check and the send.
            return Err(self
                .shared
                .failure()
                .unwrap_or_else(|| WalError::Io(io::Error::other("WAL writer exited"))));
        }
        self.next_seq += 1;
        Ok(seq)
    }

    fn watermark(&self) -> Watermark {
        self.watermark.clone()
    }

    fn barrier(&mut self) -> Result<(), WalError> {
        let target = self.last_seq();
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
        // Closing the channel ends the writer once it drains — every
        // queued record is still written and fsynced on the way out.
        self.tx = None;
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// The writer thread: drain everything queued, write it, one fsync,
/// publish the watermark, repeat. Exits when the channel closes (after
/// draining) or the sink fails (after recording the failure).
fn writer_loop<S: WalSink>(
    mut sink: S,
    rx: &Receiver<QueuedFrame>,
    watermark: &Watermark,
    shared: &GroupShared,
    recorder: &SharedRecorder,
    wake: Option<&(dyn Fn() + Send + Sync)>,
) {
    while let Ok(first) = rx.recv() {
        // Adaptive batching: everything that queued up while we were
        // blocked (or fsyncing the previous group) forms one group.
        let mut group = vec![first];
        while let Ok(more) = rx.try_recv() {
            group.push(more);
        }
        let mut failure = None;
        let mut last = 0;
        for queued in &group {
            if let Err(e) = sink.append(&queued.frame) {
                failure = Some(e);
                break;
            }
            last = queued.seq;
        }
        if failure.is_none() && last > 0 {
            failure = sink.sync().err();
        }
        if let Some(e) = failure {
            *shared.failed.lock().expect("group wal failure slot") = Some(e.to_string());
            if let Some(wake) = wake {
                wake(); // waiters must re-check and observe the failure
            }
            return;
        }
        shared.fsyncs.fetch_add(1, Ordering::Relaxed);
        if recorder.enabled() {
            recorder.add(names::WAL_FSYNCS, 1);
            recorder.observe(names::WAL_GROUP_SIZE, group.len() as u64);
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
    fn write_through_advances_watermark_inline() {
        let mut wal = WriteThroughWal::new(MemSink::new(), sft_obs::noop());
        let wm = wal.watermark();
        assert_eq!(wal.append(&record()).unwrap(), 1);
        assert_eq!(wal.append(&record()).unwrap(), 2);
        assert!(wm.covers(2), "write-through is durable before returning");
        assert_eq!(wal.fsyncs(), 2);
        wal.barrier().unwrap();
        assert_eq!(scan_wal(wal.sink().bytes()).unwrap().records.len(), 2);
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
        for _ in 0..50 {
            wal.append(&record()).unwrap();
        }
        wal.barrier().unwrap();
        assert!(
            wal.fsyncs() < 50,
            "a burst against a slow disk must coalesce; got {} fsyncs for 50 records",
            wal.fsyncs()
        );
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
        assert!(fired.load(Ordering::SeqCst) >= 1);
        wal.finish().unwrap();
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
