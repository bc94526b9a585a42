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
//! The checksum is the first 8 bytes of a domain-tagged hash of the body.
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
//! ## Durability knob
//!
//! [`Wal`] batches fsyncs: `sync_every = 1` syncs after every append (a
//! record is durable before the message it shadows is sent), larger values
//! amortize the fsync over a batch at the cost of a wider window of
//! recent records a crash may lose. Losing *recent* records is safe —
//! a lost `VoteSent` means the replica forgets a vote it made, which can
//! only make it vote the same way again, never differently — the log's
//! safety property is that it never *invents* records.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use sft_crypto::Hasher;
use sft_types::{
    Decode, DecodeError, Encode, SimTime, StrongVote, TimeoutCertificate, MAX_FRAME_LEN,
};

use crate::engine::ReplicaEngine;
use crate::{Block, QuorumCertificate};

/// Bytes in front of every WAL frame body: a 4-byte big-endian body length
/// followed by an 8-byte big-endian checksum of the body.
pub const WAL_HEADER_LEN: usize = 4 + 8;

/// Upper bound on a WAL frame body — the same 16 MiB bound the wire
/// envelope enforces, for the same reason: a hostile or corrupt length
/// prefix is rejected before any allocation happens.
pub const MAX_WAL_BODY_LEN: usize = MAX_FRAME_LEN;

/// The checksum of a frame body: the first 8 bytes of a domain-tagged
/// hash. Not cryptographic armor (the log is local, the threat is a torn
/// or bit-flipped write, not an adversary) — a keyed MAC would slot in
/// here if logs ever crossed a trust boundary.
fn body_checksum(body: &[u8]) -> u64 {
    let digest = Hasher::new("wal-frame").field(body).finish();
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
        // Header first, as zeros; the body is encoded straight behind it
        // and the header filled in once the body's length and checksum are
        // known. Not pre-sized: `encoded_len` would encode the whole record
        // once more just to count it.
        let mut frame = vec![0u8; WAL_HEADER_LEN];
        self.encode(&mut frame);
        let body_len = frame.len() - WAL_HEADER_LEN;
        assert!(
            body_len <= MAX_WAL_BODY_LEN,
            "WAL record body {body_len}B exceeds MAX_WAL_BODY_LEN"
        );
        let checksum = body_checksum(&frame[WAL_HEADER_LEN..]);
        frame[..4].copy_from_slice(&(body_len as u32).to_be_bytes());
        frame[4..WAL_HEADER_LEN].copy_from_slice(&checksum.to_be_bytes());
        frame
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
        let computed = body_checksum(body);
        if stored != computed {
            return Err(FrameError::ChecksumMismatch { stored, computed });
        }
        let record = WalRecord::from_bytes(body).map_err(FrameError::Malformed)?;
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
                buf.push(3);
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
            3 => Ok(WalRecord::BlockCommitted(Block::decode(buf)?)),
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
        /// The checksum the body actually hashes to.
        computed: u64,
    },
    /// The body passed its checksum but failed to decode. With a sound
    /// checksum this means a writer bug, so it is surfaced, not skipped.
    Malformed(DecodeError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::LengthOverflow(n) => write!(f, "frame length {n} exceeds bound"),
            FrameError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#x}, body hashes to {computed:#x}"
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
}

/// An in-memory sink: the log image is a `Vec<u8>`. Used by the
/// in-process crash/restart tests, which "reboot" a replica by scanning
/// the bytes this sink accumulated.
#[derive(Clone, Debug, Default)]
pub struct MemSink {
    bytes: Vec<u8>,
    syncs: u64,
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated log image.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the sink, returning the log image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// How many times [`WalSink::sync`] was called — what the fsync
    /// batching tests assert on.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

impl WalSink for MemSink {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.bytes.extend_from_slice(frame);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.syncs += 1;
        Ok(())
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
}

/// The append path: frames records into a [`WalSink`] with batched
/// fsyncs. `sync_every = 1` is write-through (every record durable before
/// the caller proceeds); `k > 1` amortizes one sync over `k` appends.
#[derive(Debug)]
pub struct Wal<S: WalSink> {
    sink: S,
    sync_every: u64,
    unsynced: u64,
    appended: u64,
}

impl<S: WalSink> Wal<S> {
    /// Wraps `sink`, syncing after every `sync_every` appends (clamped to
    /// at least 1).
    pub fn new(sink: S, sync_every: u64) -> Self {
        Self {
            sink,
            sync_every: sync_every.max(1),
            unsynced: 0,
            appended: 0,
        }
    }

    /// Appends one record, syncing if the batch is full.
    ///
    /// # Errors
    ///
    /// Propagates sink failures as [`WalError::Io`].
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let frame = record.to_frame();
        self.sink.append(&frame)?;
        self.appended += 1;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sink.sync()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Forces a sync of any unsynced appends.
    ///
    /// # Errors
    ///
    /// Propagates sink failures as [`WalError::Io`].
    pub fn flush(&mut self) -> Result<(), WalError> {
        if self.unsynced > 0 {
            self.sink.sync()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Total records appended since construction.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The underlying sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the log, returning the sink.
    pub fn into_sink(self) -> S {
        self.sink
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
    wal: Wal<FileSink>,
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
            wal: Wal::new(FileSink::new(file), sync_every),
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
        self.wal.append(record)
    }

    /// Forces any batched appends to disk.
    ///
    /// # Errors
    ///
    /// Propagates [`WalError::Io`] from the file.
    pub fn flush(&mut self) -> Result<(), WalError> {
        self.wal.flush()
    }

    /// Records appended since open (recovered records not included).
    pub fn appended(&self) -> u64 {
        self.wal.appended()
    }

    /// Upgrades this store into a group-commit log: flushes anything
    /// unsynced, then hands the file sink to a dedicated WAL-writer
    /// thread (see [`GroupCommitWal`](crate::group_wal::GroupCommitWal)).
    /// `wake` runs after every watermark advance — hook the transport's
    /// writer notifier here so a completed fsync releases gated frames.
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
        crate::group_wal::GroupCommitWal::spawn(self.wal.into_sink(), recorder, wake)
            .map_err(WalError::Io)
    }

    /// Downgrades this store into the write-through baseline: flushes
    /// anything unsynced, then wraps the file sink in a
    /// [`WriteThroughWal`](crate::group_wal::WriteThroughWal) — one fsync
    /// per appended record, inline on the caller's thread. This is the
    /// durability-equivalent control the group-commit pipeline is
    /// benchmarked against.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn into_write_through(
        mut self,
        recorder: sft_obs::SharedRecorder,
    ) -> Result<crate::group_wal::WriteThroughWal<FileSink>, WalError> {
        self.flush()?;
        Ok(crate::group_wal::WriteThroughWal::new(
            self.wal.into_sink(),
            recorder,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_crypto::{HashValue, KeyRegistry};
    use sft_types::{EndorseInfo, ReplicaId, Round, SignerSet, VoteData};

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

    #[test]
    fn sync_batching_counts_syncs() {
        let mut wal = Wal::new(MemSink::new(), 3);
        let records = sample_records();
        for r in &records {
            wal.append(r).unwrap();
        }
        assert_eq!(wal.appended(), 4);
        assert_eq!(wal.sink().syncs(), 1, "one full batch of 3");
        wal.flush().unwrap();
        assert_eq!(wal.sink().syncs(), 2, "flush covers the partial batch");
        wal.flush().unwrap();
        assert_eq!(wal.sink().syncs(), 2, "flush with nothing unsynced is free");
    }

    #[test]
    fn write_through_syncs_every_append() {
        let mut wal = Wal::new(MemSink::new(), 1);
        for r in &sample_records() {
            wal.append(r).unwrap();
        }
        assert_eq!(wal.sink().syncs(), 4);
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
