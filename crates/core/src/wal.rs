//! The per-replica write-ahead log for crash recovery.
//!
//! A replica that crashes and restarts must rejoin with its pre-crash
//! promises intact: the rounds it voted in (so it never equivocates
//! against itself), the certificates it formed or adopted (so its lock and
//! high-QC are no staler than before), and its committed prefix (so the
//! chain it reports never shrinks). This module persists exactly those
//! events as [`WalRecord`]s in an append-only log and recovers them on
//! restart.
//!
//! ## Framing
//!
//! The log reuses the [`Envelope`](sft_types::Envelope) codec discipline —
//! length-prefixed frames over the deterministic [`Encode`]/[`Decode`]
//! codec — and adds a checksum, because a disk (unlike a TCP stream) can
//! hand back a torn or bit-flipped tail after a crash:
//!
//! ```text
//! | body len: u32 BE | checksum: u64 BE | body: WalRecord encoding |
//! ```
//!
//! Which checksum a frame carries depends on the record kind, read from the
//! body's first (tag) byte:
//!
//! - `VoteSent`, `QcFormed` and `TcFormed` — and any unknown tag — carry
//!   the first 8 bytes of a domain-tagged hash of the body.
//! - `BlockCommitted` carries the first 8 bytes of the block's id. The id
//!   is already cached on the block, so appending one hashes nothing, and
//!   it commits to every body byte: the block codec is canonical (fixed
//!   widths, counted sequences, no slack), and the id covers the parent
//!   link, both rounds, the height, the proposer and — through the payload
//!   digest — every transaction's id, which covers its client, sequence
//!   number and bytes. Checking such a frame *is* decoding it: the decode
//!   recomputes the id, and a body that does not decode is corruption.
//!
//! A log whose block frames carry a body hash, the form before this one,
//! does not scan: there is no reader for it, since a log belongs to one
//! deployment of one build.
//!
//! Scanning a log image distinguishes the two failure shapes a crash can
//! leave behind:
//!
//! - a **torn tail** — the final append was cut short mid-frame. This is
//!   the expected shape of a crash and is *tolerated*: the scan stops at
//!   the last complete frame and reports where the valid prefix ends, so
//!   recovery truncates the tail and continues.
//! - **corruption** — a complete frame whose checksum or body is wrong.
//!   This means the storage lied and recovery must not guess; the scan
//!   fails loudly with the offset.
//!
//! ## Reading a record back
//!
//! A log that can be read back hands out a [`WalReader`]: a second handle
//! on the file, or the memory sink's shared buffer. A group-commit log
//! reports where each record's frame landed ([`WalSpan`]), so a replica
//! may drop a committed block's bytes once its `BlockCommitted` frame is
//! durable and read them back ([`WalReader::read_block`]) when a peer's
//! block sync asks for it.
//!
//! ## Durability knob
//!
//! [`WalStore`] batches fsyncs: `sync_every = 1` syncs after every append
//! (a record is durable before the message it shadows is sent), larger
//! values amortize the fsync over a batch at the cost of a wider window of
//! recent records a crash may lose. A replica's run appends through the
//! group-commit log the store becomes, which syncs on demand instead.
//! Losing *recent* records is safe — a lost `VoteSent` means the replica
//! forgets a vote it made, which can only make it vote the same way
//! again, never differently — the log's safety property is that it never
//! *invents* records.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use sft_crypto::{HashValue, Hasher};
use sft_types::{
    Decode, DecodeError, Encode, SimTime, StrongVote, TimeoutCertificate, MAX_FRAME_LEN,
};

use crate::engine::ReplicaEngine;
use crate::{Block, QuorumCertificate};

/// Bytes in front of every WAL frame body: a 4-byte big-endian body length
/// followed by an 8-byte big-endian checksum of the body (see the
/// [module docs](self) for which checksum).
pub const WAL_HEADER_LEN: usize = 4 + 8;

/// The tag byte that opens a [`WalRecord::BlockCommitted`] body.
const BLOCK_COMMITTED_TAG: u8 = 3;

/// Upper bound on a WAL frame body — the same 16 MiB bound the wire
/// envelope enforces, for the same reason: a hostile or corrupt length
/// prefix is rejected before any allocation happens.
pub const MAX_WAL_BODY_LEN: usize = MAX_FRAME_LEN;

/// The checksum of a frame body: the first 8 bytes of a domain-tagged
/// hash. Not cryptographic armor (the log is local, the threat is a torn
/// or bit-flipped write, not an adversary) — a keyed MAC would slot in
/// here if logs ever crossed a trust boundary.
fn body_checksum(body: &[u8]) -> u64 {
    checksum_of(&Hasher::new("wal-frame").field(body).finish())
}

/// The checksum of a block frame: the first 8 bytes of the block's id,
/// which commits to the whole body (see the [module docs](self)).
fn block_checksum(block: &Block) -> u64 {
    checksum_of(&block.id())
}

fn checksum_of(digest: &HashValue) -> u64 {
    let mut prefix = [0u8; 8];
    prefix.copy_from_slice(&digest.as_bytes()[..8]);
    u64::from_be_bytes(prefix)
}

/// One durable consensus event. The variants are exactly the promises a
/// restarted replica must keep:
///
/// - [`VoteSent`](WalRecord::VoteSent) — restores vote dedup, so the
///   replica never signs a conflicting vote for a round it already voted
///   in (the non-equivocation guarantee against its pre-crash self).
/// - [`QcFormed`](WalRecord::QcFormed) — restores the high-QC and, via
///   2-chain replay, the locked round.
/// - [`TcFormed`](WalRecord::TcFormed) — restores the pacemaker's round
///   so the replica does not propose or vote as if time rolled back.
/// - [`BlockCommitted`](WalRecord::BlockCommitted) — restores the
///   committed prefix (with the block contents, so the chain is
///   re-servable to syncing peers without refetching).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A strong-vote this replica signed and sent.
    VoteSent(StrongVote),
    /// A quorum certificate this replica formed or adopted.
    QcFormed(QuorumCertificate),
    /// A timeout certificate this replica formed or adopted (SFT-DiemBFT).
    TcFormed(TimeoutCertificate),
    /// A block this replica committed, in commit order.
    BlockCommitted(Block),
}

impl WalRecord {
    /// Encodes the record behind its checksummed frame header — the exact
    /// bytes one append writes.
    ///
    /// # Panics
    ///
    /// Panics if the encoded body exceeds [`MAX_WAL_BODY_LEN`] (a record
    /// that large could never be recovered, so logging it is a bug).
    pub fn to_frame(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        self.frame_into(&mut frame);
        frame
    }

    /// Appends the record's frame — the bytes [`to_frame`](Self::to_frame)
    /// returns — to `buf`, so a batch of records is framed into one
    /// buffer with no allocation of its own.
    ///
    /// # Panics
    ///
    /// Panics if the encoded body exceeds [`MAX_WAL_BODY_LEN`], as
    /// [`to_frame`](Self::to_frame) does.
    pub fn frame_into(&self, buf: &mut Vec<u8>) {
        // Header first, as zeros; the body is encoded straight behind it
        // and the header filled in once the body's length and checksum are
        // known. Not pre-sized: `encoded_len` would encode the whole record
        // once more just to count it.
        let start = buf.len();
        buf.resize(start + WAL_HEADER_LEN, 0);
        self.encode(buf);
        let body_start = start + WAL_HEADER_LEN;
        let body_len = buf.len() - body_start;
        // Cut the record back out before failing, so a buffer shared
        // across the panic holds only whole frames.
        let oversized = body_len > MAX_WAL_BODY_LEN;
        if oversized {
            buf.truncate(start);
        }
        assert!(
            !oversized,
            "WAL record body {body_len}B exceeds MAX_WAL_BODY_LEN"
        );
        let checksum = match self {
            WalRecord::BlockCommitted(block) => block_checksum(block),
            _ => body_checksum(&buf[body_start..]),
        };
        buf[start..start + 4].copy_from_slice(&(body_len as u32).to_be_bytes());
        buf[start + 4..body_start].copy_from_slice(&checksum.to_be_bytes());
    }

    /// Attempts to decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` while `buf` holds only part of a frame — a torn
    /// tail, the shape a crash mid-append leaves behind — or
    /// `Ok(Some((record, consumed)))` when a complete, checksum-valid
    /// frame was decoded.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] when a *complete* frame is wrong: a length
    /// prefix beyond [`MAX_WAL_BODY_LEN`], a checksum mismatch, or a body
    /// that fails to decode. Unlike a short tail, these mean the storage
    /// corrupted data it claimed to hold.
    pub fn decode_frame(buf: &[u8]) -> Result<Option<(WalRecord, usize)>, FrameError> {
        if buf.len() < WAL_HEADER_LEN {
            return Ok(None);
        }
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&buf[..4]);
        let body_len = u32::from_be_bytes(len_bytes) as usize;
        if body_len > MAX_WAL_BODY_LEN {
            return Err(FrameError::LengthOverflow(body_len as u64));
        }
        let mut sum_bytes = [0u8; 8];
        sum_bytes.copy_from_slice(&buf[4..WAL_HEADER_LEN]);
        let stored = u64::from_be_bytes(sum_bytes);
        let total = WAL_HEADER_LEN + body_len;
        if buf.len() < total {
            return Ok(None);
        }
        let body = &buf[WAL_HEADER_LEN..total];
        let check = |computed: u64| {
            if stored == computed {
                Ok(())
            } else {
                Err(FrameError::ChecksumMismatch { stored, computed })
            }
        };
        let record = match body.split_first() {
            Some((&BLOCK_COMMITTED_TAG, block)) => {
                // Decoding is what recomputes the id the header holds.
                let block = Block::from_bytes(block).map_err(FrameError::Malformed)?;
                check(block_checksum(&block))?;
                WalRecord::BlockCommitted(block)
            }
            _ => {
                check(body_checksum(body))?;
                WalRecord::from_bytes(body).map_err(FrameError::Malformed)?
            }
        };
        Ok(Some((record, total)))
    }
}

impl Encode for WalRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::VoteSent(vote) => {
                buf.push(0);
                vote.encode(buf);
            }
            WalRecord::QcFormed(qc) => {
                buf.push(1);
                qc.encode(buf);
            }
            WalRecord::TcFormed(tc) => {
                buf.push(2);
                tc.encode(buf);
            }
            WalRecord::BlockCommitted(block) => {
                buf.push(BLOCK_COMMITTED_TAG);
                block.encode(buf);
            }
        }
    }
}

impl Decode for WalRecord {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(WalRecord::VoteSent(StrongVote::decode(buf)?)),
            1 => Ok(WalRecord::QcFormed(QuorumCertificate::decode(buf)?)),
            2 => Ok(WalRecord::TcFormed(TimeoutCertificate::decode(buf)?)),
            BLOCK_COMMITTED_TAG => Ok(WalRecord::BlockCommitted(Block::decode(buf)?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Why a *complete* WAL frame was rejected. A short tail is never a
/// `FrameError` — see [`WalRecord::decode_frame`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeded [`MAX_WAL_BODY_LEN`].
    LengthOverflow(u64),
    /// The stored checksum does not match the body — a bit-flip or an
    /// overwrite, not a torn append.
    ChecksumMismatch {
        /// The checksum the frame header carries.
        stored: u64,
        /// The checksum the body actually has: its hash, or its block's id.
        computed: u64,
    },
    /// The body failed to decode. Behind a body hash that matched, this
    /// means a writer bug; in a block frame, checked by decoding it, it is
    /// as likely a flipped bit. Either way it is surfaced, not skipped.
    Malformed(DecodeError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::LengthOverflow(n) => write!(f, "frame length {n} exceeds bound"),
            FrameError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#x}, body checks to {computed:#x}"
                )
            }
            FrameError::Malformed(e) => write!(f, "frame body malformed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A write-ahead-log failure, as the durable store surfaces it.
#[derive(Debug)]
pub enum WalError {
    /// The sink or file failed.
    Io(io::Error),
    /// A complete frame at byte `offset` of the log was rejected.
    Corrupt {
        /// Byte offset of the bad frame within the log.
        offset: u64,
        /// What was wrong with it.
        error: FrameError,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::Corrupt { offset, error } => {
                write!(f, "WAL corrupt at byte {offset}: {error}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Outcome of scanning a log image: the recovered records plus where the
/// valid prefix ends (short of the image length exactly when the final
/// append was torn).
#[derive(Clone, Debug, PartialEq)]
pub struct WalScan {
    /// Every record in the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the valid prefix. Recovery truncates the log to
    /// this length before appending again.
    pub valid_len: usize,
}

/// Scans a log image front to back.
///
/// # Errors
///
/// Returns [`WalError::Corrupt`] if a complete frame fails its checksum or
/// decode — a torn *tail* is not an error (the scan stops before it and
/// `valid_len` marks the cut).
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, WalError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        match WalRecord::decode_frame(&bytes[offset..]) {
            Ok(Some((record, used))) => {
                records.push(record);
                offset += used;
            }
            Ok(None) => break, // torn tail: everything before it stands
            Err(error) => {
                return Err(WalError::Corrupt {
                    offset: offset as u64,
                    error,
                })
            }
        }
    }
    Ok(WalScan {
        records,
        valid_len: offset,
    })
}

/// Where appended frames go. The file sink is the real thing; tests
/// substitute in-memory and fault-injecting doubles (the crash-point
/// suite's sink fails or truncates at the k-th append).
pub trait WalSink {
    /// Appends one complete frame.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the frame may have been written
    /// partially (a torn tail the next recovery truncates).
    fn append(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Makes every appended frame durable.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    fn sync(&mut self) -> io::Result<()>;

    /// A reader over the bytes this sink writes, and how many it holds
    /// already — the offset its next append lands at. `None` (the
    /// default) for a sink that cannot be read back.
    fn reader(&self) -> Option<(WalReader, u64)> {
        None
    }
}

/// Where one record's frame sits in a log: its first byte's offset and
/// its length, header included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalSpan {
    /// Offset of the frame's first byte from the start of the log.
    pub offset: u64,
    /// Bytes in the frame.
    pub len: u32,
}

/// Read access to a log's bytes by offset, shared with the sink that
/// writes them: a second handle on the file, or a memory sink's buffer.
/// Only bytes the log has made durable are worth reading.
#[derive(Clone, Debug)]
pub struct WalReader(LogBytes);

#[derive(Clone, Debug)]
enum LogBytes {
    File(Arc<File>),
    Mem(Arc<Mutex<Vec<u8>>>),
}

impl WalReader {
    /// Reads back the block of the `BlockCommitted` frame at `span`. The
    /// block holds the buffer it was read into as its encoding. Its id is
    /// recomputed by the decode, so comparing it with the id the frame was
    /// written for checks every byte read.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] for a failed or short read, and
    /// [`WalError::Corrupt`] when the bytes do not decode as a block.
    pub fn read_block(&self, span: WalSpan) -> Result<Block, WalError> {
        // The body behind the frame header and the record's tag byte.
        let skip = WAL_HEADER_LEN + 1;
        let len = (span.len as usize)
            .checked_sub(skip)
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        let offset = span.offset + skip as u64;
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        let dst = Arc::make_mut(&mut buf);
        match &self.0 {
            LogBytes::File(file) => file.read_exact_at(dst, offset)?,
            LogBytes::Mem(bytes) => {
                let bytes = lock(bytes);
                let src = usize::try_from(offset)
                    .ok()
                    .and_then(|at| bytes.get(at..at.checked_add(len)?))
                    .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
                dst.copy_from_slice(src);
            }
        }
        Block::from_shared(&buf).map_err(|e| WalError::Corrupt {
            offset: span.offset,
            error: FrameError::Malformed(e),
        })
    }
}

/// Locks a memory sink's buffer. Only whole copies in and out happen
/// under the lock, so a poisoned one still guards whole frames.
fn lock(bytes: &Mutex<Vec<u8>>) -> MutexGuard<'_, Vec<u8>> {
    bytes.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An in-memory sink: the log image is a shared `Vec<u8>`. Simulated
/// group-commit runs write their replicas' logs here and read spilled
/// blocks back from it, and the in-process crash/restart tests "reboot"
/// a replica by scanning the bytes its log wrote. Clones share the image.
#[derive(Clone, Debug, Default)]
pub struct MemSink {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the accumulated log image.
    pub fn bytes(&self) -> Vec<u8> {
        lock(&self.bytes).clone()
    }
}

impl WalSink for MemSink {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        lock(&self.bytes).extend_from_slice(frame);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn reader(&self) -> Option<(WalReader, u64)> {
        let len = lock(&self.bytes).len() as u64;
        Some((WalReader(LogBytes::Mem(Arc::clone(&self.bytes))), len))
    }
}

/// The file-backed sink: appends via buffered writes, syncs via
/// `fdatasync`.
#[derive(Debug)]
pub struct FileSink {
    file: File,
}

impl FileSink {
    /// Wraps an already-positioned file handle (the store opens it at the
    /// end of the valid prefix).
    fn new(file: File) -> Self {
        Self { file }
    }
}

impl WalSink for FileSink {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.file.write_all(frame)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// A second handle on the file, reading with `pread` so it never
    /// moves the append position.
    fn reader(&self) -> Option<(WalReader, u64)> {
        let len = (&self.file).stream_position().ok()?;
        let file = self.file.try_clone().ok()?;
        Some((WalReader(LogBytes::File(Arc::new(file))), len))
    }
}

/// File name of the log inside a node's data directory.
pub const WAL_FILE_NAME: &str = "wal.log";

/// A node's durable WAL: opens (or creates) `wal.log` inside a data
/// directory, recovers the valid prefix, truncates any torn tail, and
/// exposes the append path for the rest of the run.
///
/// The recovery contract: [`WalStore::replay_into`] feeds every recovered
/// record to the engine *before its first tick*, so the rebuilt replica
/// re-enters the protocol with its pre-crash vote dedup, lock, high-QC,
/// and committed prefix already in place.
#[derive(Debug)]
pub struct WalStore {
    path: PathBuf,
    sink: FileSink,
    /// Appends per sync (at least 1), appends since the last sync,
    /// appends since open, and syncs since open.
    sync_every: u64,
    unsynced: u64,
    appended: u64,
    syncs: u64,
    recovered: Vec<WalRecord>,
    tail_truncated: bool,
}

impl WalStore {
    /// Opens the log inside `data_dir` (creating both as needed), scans
    /// and recovers its records, and truncates a torn tail.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] on filesystem failures and
    /// [`WalError::Corrupt`] if the valid prefix contains a complete frame
    /// with a bad checksum or body — corruption is never silently skipped.
    pub fn open(data_dir: &Path, sync_every: u64) -> Result<Self, WalError> {
        std::fs::create_dir_all(data_dir)?;
        let path = data_dir.join(WAL_FILE_NAME);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scanned = scan_wal(&bytes)?;
        let tail_truncated = scanned.valid_len < bytes.len();
        if tail_truncated {
            file.set_len(scanned.valid_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scanned.valid_len as u64))?;
        Ok(Self {
            path,
            sink: FileSink::new(file),
            sync_every: sync_every.max(1),
            unsynced: 0,
            appended: 0,
            syncs: 0,
            recovered: scanned.records,
            tail_truncated,
        })
    }

    /// The records recovered at open, in append order.
    pub fn recovered(&self) -> &[WalRecord] {
        &self.recovered
    }

    /// True if the open found (and cut) a torn tail — evidence the
    /// previous process died mid-append.
    pub fn tail_truncated(&self) -> bool {
        self.tail_truncated
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Replays every recovered record into `engine` (at restart instant
    /// `now`) and returns how many were applied. Call before the engine's
    /// first tick.
    pub fn replay_into<E: ReplicaEngine>(&self, engine: &mut E, now: SimTime) -> usize {
        for record in &self.recovered {
            engine.restore(record, now);
        }
        self.recovered.len()
    }

    /// Appends one record (write-ahead: call before sending the message
    /// the record shadows).
    ///
    /// # Errors
    ///
    /// Propagates [`WalError::Io`] from the file.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.sink.append(&record.to_frame())?;
        self.appended += 1;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.flush()?;
        }
        Ok(())
    }

    /// Forces any batched appends to disk.
    ///
    /// # Errors
    ///
    /// Propagates [`WalError::Io`] from the file.
    pub fn flush(&mut self) -> Result<(), WalError> {
        if self.unsynced > 0 {
            self.sink.sync()?;
            self.unsynced = 0;
            self.syncs += 1;
        }
        Ok(())
    }

    /// Records appended since open (recovered records not included).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Syncs of appended records since open.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Upgrades this store into a group-commit log: flushes anything
    /// unsynced, then hands the file sink to a dedicated WAL-writer
    /// thread (see [`GroupCommitWal`](crate::group_wal::GroupCommitWal)).
    /// `wake` runs after every watermark advance — hook the transport's
    /// waker here so a completed fsync releases gated frames.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure or the thread-spawn failure.
    pub fn into_group_commit(
        mut self,
        recorder: sft_obs::SharedRecorder,
        wake: Option<Box<dyn Fn() + Send + Sync>>,
    ) -> Result<crate::group_wal::GroupCommitWal, WalError> {
        self.flush()?;
        crate::group_wal::GroupCommitWal::spawn(self.sink, recorder, wake).map_err(WalError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_crypto::{HashValue, KeyRegistry};
    use sft_types::{EndorseInfo, Payload, ReplicaId, Round, SignerSet, Transaction, VoteData};

    fn sample_records() -> Vec<WalRecord> {
        let registry = KeyRegistry::deterministic(4);
        let kp = registry.key_pair(1).unwrap();
        let data = VoteData::new(
            HashValue::of(b"B1"),
            Round::new(1),
            HashValue::zero(),
            Round::ZERO,
        );
        vec![
            WalRecord::VoteSent(StrongVote::new(data, EndorseInfo::Marker(Round::ZERO), &kp)),
            WalRecord::QcFormed(QuorumCertificate::new(
                data,
                SignerSet::from_iter_with_capacity(4, (0..3).map(ReplicaId::new)),
            )),
            WalRecord::TcFormed(TimeoutCertificate::new(
                Round::new(2),
                Round::new(1),
                SignerSet::from_iter_with_capacity(4, (0..3).map(ReplicaId::new)),
            )),
            WalRecord::BlockCommitted(Block::genesis()),
        ]
    }

    fn image(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for r in records {
            bytes.extend_from_slice(&r.to_frame());
        }
        bytes
    }

    #[test]
    fn records_roundtrip_through_frames() {
        for record in sample_records() {
            let frame = record.to_frame();
            let (back, used) = WalRecord::decode_frame(&frame).unwrap().unwrap();
            assert_eq!(used, frame.len());
            assert_eq!(back, record);
        }
    }

    #[test]
    fn scan_recovers_append_order() {
        let records = sample_records();
        let bytes = image(&records);
        let scanned = scan_wal(&bytes).unwrap();
        assert_eq!(scanned.records, records);
        assert_eq!(scanned.valid_len, bytes.len());
    }

    #[test]
    fn torn_tail_is_tolerated_not_fatal() {
        let records = sample_records();
        let bytes = image(&records);
        let whole = image(&records[..3]).len();
        // Cut anywhere inside the final frame: prefix recovers, cut marked.
        for cut in whole..bytes.len() - 1 {
            let scanned = scan_wal(&bytes[..cut]).expect("torn tail is not corruption");
            assert_eq!(scanned.records, records[..3], "cut at {cut}");
            assert_eq!(scanned.valid_len, whole, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_in_body_is_corruption() {
        let records = sample_records();
        let mut bytes = image(&records);
        let flip_at = WAL_HEADER_LEN + 3; // inside the first body
        bytes[flip_at] ^= 0x40;
        let err = scan_wal(&bytes).unwrap_err();
        let WalError::Corrupt { offset, error } = err else {
            panic!("expected corruption");
        };
        assert_eq!(offset, 0);
        assert!(matches!(error, FrameError::ChecksumMismatch { .. }));
    }

    fn small_block() -> Block {
        let txns = vec![
            Transaction::new(7, 0, vec![0xab; 16]),
            Transaction::new(7, 1, Vec::new()),
        ];
        Block::new(
            &Block::genesis(),
            Round::new(1),
            ReplicaId::new(2),
            Payload::Transactions(txns),
        )
    }

    #[test]
    fn block_frame_header_is_the_block_id_prefix() {
        let block = small_block();
        let frame = WalRecord::BlockCommitted(block.clone()).to_frame();
        let body_len = frame.len() - WAL_HEADER_LEN;
        assert_eq!(frame[..4], (body_len as u32).to_be_bytes());
        assert_eq!(frame[4..WAL_HEADER_LEN], block.id().as_bytes()[..8]);
        assert_eq!(frame[WAL_HEADER_LEN], BLOCK_COMMITTED_TAG);
    }

    /// The id stands in for a body hash only if no single flipped bit
    /// anywhere in the frame yields a record. A flip in the length prefix
    /// may read as a torn tail instead; everywhere else it is an error.
    #[test]
    fn every_bit_flip_in_a_block_frame_is_detected() {
        let frame = WalRecord::BlockCommitted(small_block()).to_frame();
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[at] ^= 1 << bit;
                let outcome = WalRecord::decode_frame(&flipped);
                assert!(
                    match outcome {
                        Ok(None) => at < 4,
                        Ok(Some(_)) => false,
                        Err(_) => true,
                    },
                    "byte {at} bit {bit}: {outcome:?}"
                );
            }
        }
    }

    /// Frames other than a block's carry a body hash, in bytes that must
    /// not drift: this vote frame is pinned as it was framed when block
    /// frames still hashed their bodies too.
    #[test]
    fn vote_frame_bytes_are_pinned() {
        let frame = sample_records()[0].to_frame();
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, VOTE_FRAME_HEX);
    }

    const VOTE_FRAME_HEX: &str = concat!(
        "00000084",
        "3d93f06869d06a3e",
        "005b950e77941d01cdf246d00b1ece546bc95234b77d98b44c9187e2733afa696a",
        "0000000000000001",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000",
        "010000000000000000",
        "0001",
        "0000000000000001",
        "7dd30fadfb41a7e9b3df06bd618796489c28ce569b5a28046913a1eb867a7279",
    );

    #[test]
    fn hostile_length_prefix_rejected_before_allocation() {
        let mut bytes = u32::MAX.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        let err = scan_wal(&bytes).unwrap_err();
        assert!(matches!(
            err,
            WalError::Corrupt {
                error: FrameError::LengthOverflow(_),
                ..
            }
        ));
    }

    /// A store opened on a fresh temp directory, and the directory.
    fn temp_store(name: &str, sync_every: u64) -> (WalStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!("sft-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (WalStore::open(&dir, sync_every).unwrap(), dir)
    }

    #[test]
    fn sync_batching_counts_syncs() {
        let (mut store, dir) = temp_store("wal-batching", 3);
        for r in &sample_records() {
            store.append(r).unwrap();
        }
        assert_eq!(store.appended(), 4);
        assert_eq!(store.syncs(), 1, "one full batch of 3");
        store.flush().unwrap();
        assert_eq!(store.syncs(), 2, "flush covers the partial batch");
        store.flush().unwrap();
        assert_eq!(store.syncs(), 2, "flush with nothing unsynced is free");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn write_through_syncs_every_append() {
        let (mut store, dir) = temp_store("wal-write-through", 1);
        for r in &sample_records() {
            store.append(r).unwrap();
        }
        assert_eq!(store.syncs(), 4);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn store_recovers_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("sft-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let records = sample_records();
        {
            let mut store = WalStore::open(&dir, 1).unwrap();
            assert!(store.recovered().is_empty());
            for r in &records {
                store.append(r).unwrap();
            }
        }
        // Simulate a crash mid-append: chop bytes off the file tail.
        let path = dir.join(WAL_FILE_NAME);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        {
            let store = WalStore::open(&dir, 1).unwrap();
            assert_eq!(store.recovered(), &records[..3]);
            assert!(store.tail_truncated());
        }
        // The truncation is durable: a third open sees a clean log.
        let store = WalStore::open(&dir, 1).unwrap();
        assert_eq!(store.recovered(), &records[..3]);
        assert!(!store.tail_truncated());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_record_tag_is_malformed() {
        let body = [9u8; 4];
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&body_checksum(&body).to_be_bytes());
        frame.extend_from_slice(&body);
        let err = WalRecord::decode_frame(&frame).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Malformed(DecodeError::InvalidTag(9))
        ));
    }
}
