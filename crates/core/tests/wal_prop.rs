//! Seeded-PRNG property tests for the write-ahead-log record codec and
//! crash-point fault injection for the append path — the companion of
//! `types/tests/envelope_prop.rs` for the durability layer.
//!
//! Codec properties: every random record round-trips through its frame;
//! every truncation point reads as a torn tail (`Ok(None)` / recovered
//! prefix), never a wrong answer; every bit flip inside a complete frame's
//! checksum-covered region is detected; a hostile length prefix is
//! rejected before allocation.
//!
//! Crash points: a [`WalSink`] test double under the group-commit log
//! fails or truncates the k-th append, for every k over seeded schedules,
//! and recovery from the resulting log image must yield exactly the
//! records that were durably appended before the fault — then keep
//! working when appends resume.

use std::io;
use std::sync::{Arc, Mutex};

use sft_core::{
    scan_wal, Block, DurableWal, FrameError, GroupCommitWal, QuorumCertificate, WalError,
    WalRecord, WalSink, WalStore, WAL_FILE_NAME,
};
use sft_crypto::rng::{RngCore, SplitMix64};
use sft_crypto::{HashValue, KeyRegistry};
use sft_types::{
    EndorseInfo, Height, Payload, ReplicaId, Round, RoundIntervalSet, SignerSet, StrongVote,
    TimeoutCertificate, VoteData,
};

const N: usize = 7;

fn random_hash(rng: &mut SplitMix64) -> HashValue {
    HashValue::of(&rng.next_u64().to_be_bytes())
}

fn random_vote_data(rng: &mut SplitMix64) -> VoteData {
    let parent_round = Round::new(rng.next_below(1 << 20));
    let round = Round::new(parent_round.as_u64() + 1 + rng.next_below(8));
    VoteData::new(random_hash(rng), round, random_hash(rng), parent_round)
}

fn random_signers(rng: &mut SplitMix64) -> SignerSet {
    let count = 1 + rng.next_below(N as u64) as usize;
    SignerSet::from_iter_with_capacity(
        N,
        (0..N as u16)
            .filter(|_| rng.next_below(2) == 0)
            .take(count)
            .map(ReplicaId::new),
    )
}

fn random_record(rng: &mut SplitMix64, registry: &KeyRegistry) -> WalRecord {
    match rng.next_below(4) {
        0 => {
            let endorse = match rng.next_below(3) {
                0 => EndorseInfo::None,
                1 => EndorseInfo::Marker(Round::new(rng.next_below(1 << 10))),
                _ => {
                    let lo = Round::new(1 + rng.next_below(100));
                    let hi = Round::new(lo.as_u64() + rng.next_below(100));
                    EndorseInfo::Intervals(RoundIntervalSet::full_range(lo, hi))
                }
            };
            let key_pair = registry.key_pair(rng.next_below(N as u64)).unwrap();
            WalRecord::VoteSent(StrongVote::new(random_vote_data(rng), endorse, &key_pair))
        }
        1 => WalRecord::QcFormed(QuorumCertificate::new(
            random_vote_data(rng),
            random_signers(rng),
        )),
        2 => {
            let hqc = Round::new(rng.next_below(1 << 20));
            WalRecord::TcFormed(TimeoutCertificate::new(
                Round::new(hqc.as_u64() + 1 + rng.next_below(8)),
                hqc,
                random_signers(rng),
            ))
        }
        _ => {
            let parent_round = Round::new(rng.next_below(1 << 20));
            WalRecord::BlockCommitted(Block::from_parts(
                random_hash(rng),
                parent_round,
                Round::new(parent_round.as_u64() + 1 + rng.next_below(8)),
                Height::new(rng.next_below(1 << 20)),
                ReplicaId::new(rng.next_below(N as u64) as u16),
                Payload::synthetic(
                    rng.next_below(64) as u32,
                    rng.next_below(256) as u32,
                    rng.next_u64(),
                ),
            ))
        }
    }
}

fn random_records(rng: &mut SplitMix64, count: usize) -> Vec<WalRecord> {
    let registry = KeyRegistry::deterministic(N);
    (0..count).map(|_| random_record(rng, &registry)).collect()
}

fn image(records: &[WalRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for record in records {
        bytes.extend_from_slice(&record.to_frame());
    }
    bytes
}

#[test]
fn random_records_roundtrip_through_frames() {
    let mut rng = SplitMix64::new(0x3a1_c0de);
    for _ in 0..200 {
        let record = random_records(&mut rng, 1).remove(0);
        let frame = record.to_frame();
        let (back, used) = WalRecord::decode_frame(&frame)
            .expect("well-formed frame")
            .expect("complete frame");
        assert_eq!(used, frame.len());
        assert_eq!(back, record);
    }
}

#[test]
fn scan_recovers_random_logs_losslessly() {
    let mut rng = SplitMix64::new(0x10_5510);
    for _ in 0..30 {
        let count = 1 + rng.next_below(12) as usize;
        let records = random_records(&mut rng, count);
        let bytes = image(&records);
        let scanned = scan_wal(&bytes).expect("honest log");
        assert_eq!(scanned.records, records);
        assert_eq!(scanned.valid_len, bytes.len());
    }
}

#[test]
fn every_truncation_point_recovers_the_durable_prefix() {
    let mut rng = SplitMix64::new(0x7ea_7a11);
    for _ in 0..10 {
        let records = random_records(&mut rng, 4);
        let bytes = image(&records);
        // Frame boundaries: records fully contained in each prefix length.
        let mut boundaries = vec![0usize];
        for record in &records {
            boundaries.push(boundaries.last().unwrap() + record.to_frame().len());
        }
        let step = (bytes.len() / 97).max(1);
        for cut in (0..=bytes.len()).step_by(step) {
            let scanned = scan_wal(&bytes[..cut]).expect("a torn tail is never corruption");
            let complete = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(scanned.records, records[..complete], "cut at {cut}");
            assert_eq!(scanned.valid_len, boundaries[complete], "cut at {cut}");
        }
    }
}

#[test]
fn every_bit_flip_in_a_frame_is_detected() {
    let mut rng = SplitMix64::new(0xb17_f11b);
    for _ in 0..60 {
        let records = random_records(&mut rng, 3);
        let bytes = image(&records);
        // Flip one random bit in the checksum-or-body region of a random
        // frame (a flip in a length prefix can legitimately read as a torn
        // tail instead, so it is exercised separately below).
        let mut boundaries = vec![0usize];
        for record in &records {
            boundaries.push(boundaries.last().unwrap() + record.to_frame().len());
        }
        let frame_idx = rng.next_below(records.len() as u64) as usize;
        let (start, end) = (boundaries[frame_idx], boundaries[frame_idx + 1]);
        let at = start + 4 + rng.next_below((end - start - 4) as u64) as usize;
        let mut poisoned = bytes.clone();
        poisoned[at] ^= 1 << rng.next_below(8);
        let err = scan_wal(&poisoned).expect_err("flip must not go unnoticed");
        let WalError::Corrupt { offset, error } = err else {
            panic!("expected corruption, got {err:?}");
        };
        assert_eq!(offset as usize, start, "detected at the poisoned frame");
        assert!(
            matches!(
                error,
                FrameError::ChecksumMismatch { .. } | FrameError::Malformed(_)
            ),
            "unexpected error shape: {error:?}"
        );
    }
}

#[test]
fn length_prefix_flips_are_torn_tail_or_corruption_never_wrong_records() {
    let mut rng = SplitMix64::new(0x1e_4711);
    for _ in 0..80 {
        let records = random_records(&mut rng, 2);
        let bytes = image(&records);
        let first_len = records[0].to_frame().len();
        let mut poisoned = bytes.clone();
        let at = rng.next_below(4) as usize;
        poisoned[at] ^= 1 << rng.next_below(8);
        match scan_wal(&poisoned) {
            // A larger claimed length usually swallows the next frame and
            // fails its checksum; a huge one overflows the bound.
            Err(WalError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
            Err(WalError::Io(e)) => panic!("no I/O happens over a byte slice: {e}"),
            // A length pointing past the image reads as a torn tail: zero
            // records recovered, nothing invented.
            Ok(scan) => {
                assert_eq!(scan.records, [], "no record may survive a length flip");
                assert_eq!(scan.valid_len, 0);
            }
        }
        // Either way the undamaged remainder is still recoverable from the
        // original image.
        assert_eq!(scan_wal(&bytes).unwrap().records.len(), 2);
        let _ = first_len;
    }
}

// ---------------------------------------------------------------------------
// Crash-point fault injection: WalSink doubles that die on the k-th append.
// ---------------------------------------------------------------------------

/// Fails the k-th append after writing only a prefix of the frame — the
/// torn-write shape of a crash mid-`write(2)`. Appends after the fault
/// also fail (the process is "dead"). Clones share the byte image, so the
/// test reads what the log's writer thread wrote.
#[derive(Clone)]
struct TornSink {
    bytes: Arc<Mutex<Vec<u8>>>,
    fail_at: u64,
    keep_bytes: usize,
    appends: u64,
}

impl TornSink {
    fn new(fail_at: u64, keep_bytes: usize) -> Self {
        Self {
            bytes: Arc::default(),
            fail_at,
            keep_bytes,
            appends: 0,
        }
    }
}

impl WalSink for TornSink {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.appends += 1;
        let mut bytes = self.bytes.lock().unwrap();
        if self.appends >= self.fail_at {
            let keep = self.keep_bytes.min(frame.len());
            bytes.extend_from_slice(&frame[..keep]);
            return Err(io::Error::other("injected crash"));
        }
        bytes.extend_from_slice(frame);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.appends >= self.fail_at {
            return Err(io::Error::other("injected crash"));
        }
        Ok(())
    }
}

#[test]
fn recovery_from_every_crash_point_yields_the_durable_prefix() {
    let mut rng = SplitMix64::new(0xc4a5_40b1);
    for schedule in 0..8u64 {
        let records = random_records(&mut rng, 6);
        for fail_at in 1..=records.len() as u64 {
            // Tear the failing frame at a schedule-dependent point,
            // including zero bytes (nothing of the frame landed).
            let frame_len = records[(fail_at - 1) as usize].to_frame().len();
            let keep = (rng.next_u64() as usize) % (frame_len + 1);
            let sink = TornSink::new(fail_at, keep);
            let mut wal = GroupCommitWal::spawn(sink.clone(), sft_obs::noop(), None)
                .expect("spawn wal writer");
            let mut wrote = 0usize;
            let mut died = false;
            for record in &records {
                // A barrier per record makes each record one append of
                // the sink, so the k-th append is record k's.
                match wal.append(record).and_then(|_| wal.barrier()) {
                    Ok(()) => wrote += 1,
                    Err(WalError::Io(_)) => {
                        died = true;
                        break;
                    }
                    Err(other) => panic!("unexpected failure: {other}"),
                }
            }
            assert!(died, "schedule {schedule}: the sink must fail at {fail_at}");
            assert_eq!(wrote, (fail_at - 1) as usize);
            drop(wal); // joins the (dead) writer thread

            // "Reboot": recovery over the bytes the sink actually holds.
            let image = sink.bytes.lock().unwrap().clone();
            let scanned =
                scan_wal(&image).expect("a torn append is a tolerated tail, not corruption");
            assert_eq!(
                scanned.records,
                records[..wrote],
                "schedule {schedule}, crash at append {fail_at}, {keep}B torn"
            );

            // Recovery truncates to the valid prefix and appends continue:
            // the rebooted log carries old and new records in order.
            let mut rebooted = Vec::from(&image[..scanned.valid_len]);
            let resumed = random_records(&mut rng, 2);
            for record in &resumed {
                rebooted.extend_from_slice(&record.to_frame());
            }
            let rescanned = scan_wal(&rebooted).expect("resumed log is honest");
            assert_eq!(rescanned.records.len(), wrote + resumed.len());
            assert_eq!(rescanned.records[..wrote], records[..wrote]);
            assert_eq!(rescanned.records[wrote..], resumed[..]);
        }
    }
}

// ---------------------------------------------------------------------------
// Fsync crash points: the group-commit watermark never outruns the disk.
// ---------------------------------------------------------------------------

// Shared with `sim/tests/runner_seams.rs`, which also asks it whether the
// crash has happened yet.
#[allow(dead_code)]
#[path = "support/fsync_crash.rs"]
mod fsync_crash;
use fsync_crash::FsyncCrashSink;

/// The pipelined-sends safety property, at the layer that enforces it:
/// a [`SendGate`](sft_types::SendGate) minted for each appended record
/// opens only once the group-commit watermark covers it, and across
/// every k-th-fsync crash schedule the records whose gates ever open
/// are exactly the records a reboot recovers from the crash image — no
/// outbound frame is ever releasable on the strength of a record the
/// disk never saw.
#[test]
fn gates_released_under_fsync_crashes_are_always_backed_by_the_disk() {
    use sft_types::SendGate;

    let mut rng = SplitMix64::new(0xf5_c4a5);
    for fail_at in 1..=6u64 {
        let records = random_records(&mut rng, 8);
        let sink = FsyncCrashSink::new(fail_at);
        let mut wal =
            GroupCommitWal::spawn(sink.clone(), sft_obs::noop(), None).expect("spawn wal writer");
        let mut gates: Vec<SendGate> = Vec::new();
        let mut crashed = false;
        for record in &records {
            let seq = wal.append(record).expect("append only enqueues");
            gates.push(SendGate::new(wal.watermark(), seq));
            // A barrier per record forces one fsync per record, so the
            // k-th-fsync crash schedule fails exactly at record k — and
            // the barrier must surface the failure rather than pretend
            // durability.
            if wal.barrier().is_err() {
                crashed = true;
                break;
            }
        }
        let covered = wal.watermark().get();
        drop(wal); // joins the (dead) writer thread
        assert!(
            crashed,
            "fail_at {fail_at}: the writer must die at fsync {fail_at}"
        );
        assert_eq!(
            covered,
            fail_at - 1,
            "exactly the records before the failing fsync are durable"
        );

        // Post-mortem: gates open exactly up to the watermark...
        for gate in &gates {
            assert_eq!(
                gate.is_open(),
                gate.seq() <= covered,
                "fail_at {fail_at}: gate state must mirror the watermark"
            );
        }
        // ...and the watermark never outruns what a reboot recovers: the
        // crash image holds exactly the covered prefix, in append order.
        let scanned = scan_wal(&sink.crash_image()).expect("durable prefix is clean");
        assert_eq!(
            scanned.records,
            records[..covered as usize],
            "fail_at {fail_at}: the covered prefix is the durable prefix"
        );
    }
}

#[test]
fn batched_sync_crash_loses_at_most_the_unsynced_window() {
    // With sync_every = k, a crash can lose up to k−1 recent records, and
    // the durable prefix is always an append-order prefix — never a gap.
    let mut rng = SplitMix64::new(0x5afe_ba7c);
    let root = std::env::temp_dir().join(format!("sft-wal-prop-batched-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for sync_every in [1u64, 2, 4, 8] {
        let records = random_records(&mut rng, 9);
        let dir = root.join(format!("sync-every-{sync_every}"));
        let mut store = WalStore::open(&dir, sync_every).unwrap();
        for record in &records {
            store.append(record).unwrap();
        }
        // The file holds everything appended; what a crash preserves is
        // at least the synced prefix. Model the worst case: drop
        // everything after the last full batch boundary.
        let synced = (records.len() as u64 / sync_every * sync_every) as usize;
        let mut boundaries = vec![0usize];
        for record in &records {
            boundaries.push(boundaries.last().unwrap() + record.to_frame().len());
        }
        let image = std::fs::read(dir.join(WAL_FILE_NAME)).unwrap();
        let preserved = &image[..boundaries[synced]];
        let scanned = scan_wal(preserved).expect("synced prefix is clean");
        assert_eq!(
            scanned.records,
            records[..synced],
            "sync_every {sync_every}"
        );
        assert!(
            records.len() - synced < sync_every as usize,
            "the window is bounded by the batch size"
        );
    }
    let _ = std::fs::remove_dir_all(root);
}

/// Durability on demand, at the layer that enforces it: over random
/// schedules of appends, requests and a k-th-fsync crash, a gate is open
/// **iff** the crash image scans to a prefix covering its sequence. A
/// record nobody requested may be lost; a record behind a released frame
/// never is — and the watermark never covers a byte the disk lacks.
#[test]
fn gates_open_iff_the_crash_image_covers_them_under_random_request_schedules() {
    use sft_types::SendGate;

    let mut rng = SplitMix64::new(0xde_3a4d);
    let registry = KeyRegistry::deterministic(N);
    let (mut crashes, mut released) = (0, 0);
    for schedule in 0..40 {
        let sink = FsyncCrashSink::new(1 + rng.next_below(6));
        let mut wal =
            GroupCommitWal::spawn(sink.clone(), sft_obs::noop(), None).expect("spawn wal writer");
        let mut records = Vec::new();
        let mut gates: Vec<SendGate> = Vec::new();
        for _ in 0..8 + rng.next_below(32) {
            if rng.next_below(3) == 0 && !gates.is_empty() {
                // A held frame asks for its gate; the writer settles —
                // the gate opens, or the log dies under it.
                let gate = &gates[rng.next_below(gates.len() as u64) as usize];
                while !gate.wait_open_timeout(std::time::Duration::from_millis(1))
                    && !sink.crashed()
                {}
                if sink.crashed() {
                    break;
                }
            } else {
                let record = random_record(&mut rng, &registry);
                let Ok(seq) = wal.append(&record) else {
                    break;
                };
                records.push(record);
                gates.push(SendGate::new(wal.watermark(), seq));
            }
        }
        // The process dies here: what the disk holds now is what a reboot
        // finds (the drop below flushes into a sink nobody reads again).
        let image = sink.crash_image();
        crashes += u64::from(sink.crashed());
        let durable = scan_wal(&image)
            .expect("the durable prefix is clean")
            .records;
        assert_eq!(
            durable,
            records[..durable.len()],
            "schedule {schedule}: the crash image is an append-order prefix"
        );
        for gate in &gates {
            released += u64::from(gate.is_open());
            assert_eq!(
                gate.is_open(),
                gate.seq() <= durable.len() as u64,
                "schedule {schedule}: gate {} vs {} durable records",
                gate.seq(),
                durable.len()
            );
        }
    }
    assert!(
        crashes > 0 && released > 0,
        "{crashes} crashes, {released} released gates"
    );
}
