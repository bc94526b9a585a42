//! The codec is canonical for every type whose bytes a replica holds.
//!
//! A block keeps the bytes it was decoded from, and a transaction the
//! range of them its payload occupies, instead of re-encoding either: so a
//! held encoding must be *the* encoding of the value. This suite checks
//! that for the transaction, the payload, the client request, the block,
//! the WAL record, the votes, certificates, timeouts, sync responses,
//! interval sets and signer sets they carry, and every message variant of
//! both protocols. It starts from
//! seeded valid encodings and mutates them: every truncation, bit flips,
//! splices of two encodings, and every length or count field inflated to
//! `u32::MAX`, `u64::MAX` and the sequence bound. Whatever the mutation,
//! decoding either fails or yields a value that re-encodes to exactly the
//! bytes it came from — there is one encoding per value. A decode that
//! holds ranges of a shared buffer must agree with one that copies.
//!
//! Decoding must also stay small: a count field is read before the
//! elements it counts, and a hostile one must not buy an allocation the
//! input does not pay for. A counting allocator measures that.
//!
//! The same mutations run over whole write-ahead-log images: a scan
//! either reports corruption or recovers records that re-frame to exactly
//! the valid prefix it claims.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::sync::Arc;

use sft_core::{scan_wal, Block, BlockResponse, QuorumCertificate, WalError, WalRecord};
use sft_crypto::{HashValue, KeyRegistry, RngCore, SplitMix64};
use sft_fbft::{FbftMessage, FbftProposal};
use sft_streamlet::{Message, Proposal};
use sft_types::{
    BlockRequest, ClientRequest, Decode, Encode, EndorseInfo, Height, Payload, ReplicaId, Round,
    RoundIntervalSet, SignerSet, StrongVote, TimeoutCertificate, TimeoutMsg, Transaction, VoteData,
};

/// Counts the bytes this thread allocates.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|bytes| bytes.set(bytes.get() + layout.size()));
        // SAFETY: the caller's layout contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

const N: usize = 4;

/// Valid samples per type; each one is mutated every way below.
const SAMPLES: usize = 12;

/// Random bit flips per sample.
const FLIPS: usize = 48;

fn bytes(rng: &mut SplitMix64, max: u64) -> Vec<u8> {
    let mut out = vec![0u8; rng.next_below(max + 1) as usize];
    rng.fill_bytes(&mut out);
    out
}

fn txn(rng: &mut SplitMix64) -> Transaction {
    let payload = bytes(rng, 96);
    Transaction::new(rng.next_below(1 << 40), rng.next_u64(), payload)
}

fn payload(rng: &mut SplitMix64) -> Payload {
    if rng.next_below(4) == 0 {
        return Payload::synthetic(rng.next_u64() as u32, rng.next_u64() as u32, rng.next_u64());
    }
    Payload::Transactions((0..rng.next_below(4)).map(|_| txn(rng)).collect())
}

fn block(rng: &mut SplitMix64) -> Block {
    let round = 1 + rng.next_below(1 << 20);
    Block::from_parts(
        HashValue::of(&rng.next_u64().to_be_bytes()),
        Round::new(rng.next_below(round)),
        Round::new(round),
        Height::new(1 + rng.next_below(round)),
        ReplicaId::new(rng.next_below(N as u64) as u16),
        payload(rng),
    )
}

fn vote(rng: &mut SplitMix64, data: VoteData, signer: u64) -> StrongVote {
    let registry = KeyRegistry::deterministic(N);
    let key = registry.key_pair(signer).expect("a key per replica");
    let round = data.block_round().as_u64();
    let endorse = match rng.next_below(3) {
        0 => EndorseInfo::None,
        1 => EndorseInfo::Marker(Round::new(rng.next_below(round + 1))),
        _ => EndorseInfo::Intervals(intervals(rng, round)),
    };
    StrongVote::new(data, endorse, &key)
}

/// A normalized set of up to four intervals within `[0, max]`.
fn intervals(rng: &mut SplitMix64, max: u64) -> RoundIntervalSet {
    let mut set = RoundIntervalSet::new();
    for _ in 0..rng.next_below(5) {
        let lo = rng.next_below(max + 1);
        let hi = lo + rng.next_below(max - lo + 1);
        set.insert(Round::new(lo), Round::new(hi));
    }
    set
}

/// A signer set of up to 200 replicas, any members.
fn signers(rng: &mut SplitMix64) -> SignerSet {
    let capacity = 1 + rng.next_below(200) as usize;
    let members: Vec<ReplicaId> = (0..capacity as u16)
        .filter(|_| rng.next_below(2) == 0)
        .map(ReplicaId::new)
        .collect();
    SignerSet::from_iter_with_capacity(capacity, members)
}

fn strong_vote(rng: &mut SplitMix64) -> StrongVote {
    let block = block(rng);
    let signer = rng.next_below(N as u64);
    vote(rng, block.vote_data(), signer)
}

fn timeout_msg(rng: &mut SplitMix64) -> TimeoutMsg {
    let round = Round::new(1 + rng.next_below(1 << 20));
    let registry = KeyRegistry::deterministic(N);
    let key = registry
        .key_pair(rng.next_below(N as u64))
        .expect("a key per replica");
    let high_qc = Round::new(rng.next_below(round.as_u64()));
    let justification = (rng.next_below(2) == 0).then(|| tc(rng, round));
    TimeoutMsg::new(round, high_qc, &key).with_justification(justification)
}

fn block_request(rng: &mut SplitMix64) -> BlockRequest {
    BlockRequest::new(
        ReplicaId::new(rng.next_below(N as u64) as u16),
        HashValue::of(&rng.next_u64().to_be_bytes()),
        rng.next_below(65) as u32,
    )
}

/// A chain segment of up to three blocks and the certificate for its
/// last one.
fn block_response(rng: &mut SplitMix64) -> BlockResponse {
    let blocks: Vec<Block> = (0..1 + rng.next_below(3)).map(|_| block(rng)).collect();
    let qc = qc(rng, blocks.last().expect("at least one block"));
    BlockResponse::new(qc, blocks)
}

/// A certificate for `block`: its bare signer-set form or its member form.
fn qc(rng: &mut SplitMix64, block: &Block) -> QuorumCertificate {
    let data = block.vote_data();
    if rng.next_below(2) == 0 {
        let signers = SignerSet::from_iter_with_capacity(N, (0..3).map(ReplicaId::new));
        return QuorumCertificate::new(data, signers);
    }
    let members = (0..3).map(|i| vote(rng, data, i).member()).collect();
    QuorumCertificate::with_members(N, data, members).expect("three distinct members")
}

fn tc(rng: &mut SplitMix64, round: Round) -> TimeoutCertificate {
    let signers = SignerSet::from_iter_with_capacity(N, (1..4).map(ReplicaId::new));
    TimeoutCertificate::new(
        round,
        Round::new(rng.next_below(round.as_u64() + 1)),
        signers,
    )
}

fn any_qc(rng: &mut SplitMix64) -> QuorumCertificate {
    let block = block(rng);
    qc(rng, &block)
}

fn any_tc(rng: &mut SplitMix64) -> TimeoutCertificate {
    let round = Round::new(1 + rng.next_below(1 << 20));
    tc(rng, round)
}

fn fbft_proposal(rng: &mut SplitMix64) -> FbftProposal {
    let block = block(rng);
    let qc = qc(rng, &block);
    let tc = (rng.next_below(2) == 0).then(|| tc(rng, block.round()));
    let registry = KeyRegistry::deterministic(N);
    let key = registry
        .key_pair(block.proposer().as_u64())
        .expect("the proposer's key");
    FbftProposal::new(block, qc, tc, &key)
}

fn streamlet_proposal(rng: &mut SplitMix64) -> Proposal {
    let block = block(rng);
    let registry = KeyRegistry::deterministic(N);
    let key = registry
        .key_pair(block.proposer().as_u64())
        .expect("the proposer's key");
    Proposal::new(block, &key)
}

fn wal_record(rng: &mut SplitMix64) -> WalRecord {
    let block = block(rng);
    match rng.next_below(4) {
        0 => WalRecord::VoteSent(vote(rng, block.vote_data(), 1)),
        1 => WalRecord::QcFormed(qc(rng, &block)),
        2 => WalRecord::TcFormed(tc(rng, block.round())),
        _ => WalRecord::BlockCommitted(block),
    }
}

/// Decodes `bytes` both ways and checks the verdict: an error (the same
/// one either way), or one value, equal either way, that re-encodes to
/// exactly `bytes`.
fn check_one<T: Encode + Decode + PartialEq + Debug>(what: &str, bytes: &[u8]) {
    let copied = T::from_bytes(bytes);
    let shared: Arc<[u8]> = bytes.into();
    assert_eq!(
        T::from_shared(&shared),
        copied,
        "{what}: a decode holding ranges disagrees with one copying"
    );
    if let Ok(value) = copied {
        assert_eq!(
            value.to_bytes(),
            bytes,
            "{what}: {value:?} decoded from bytes it does not re-encode to"
        );
    }
}

/// Scans a WAL image and checks the verdict: corruption at a frame
/// boundary inside the image, or records that re-frame to exactly the
/// valid prefix the scan reports. Returns the scan's valid length (`None`
/// when the image is corrupt).
fn check_scan(what: &str, image: &[u8]) -> Option<usize> {
    match scan_wal(image) {
        Ok(scan) => {
            let reframed: Vec<u8> = scan.records.iter().flat_map(WalRecord::to_frame).collect();
            assert!(
                reframed == image[..scan.valid_len],
                "{what}: {} records re-frame to {} bytes, not the {}-byte valid prefix",
                scan.records.len(),
                reframed.len(),
                scan.valid_len
            );
            Some(scan.valid_len)
        }
        Err(WalError::Corrupt { offset, .. }) => {
            assert!(
                (offset as usize) < image.len(),
                "{what}: corrupt past the end"
            );
            None
        }
        Err(e) => panic!("{what}: scanning bytes in memory failed: {e}"),
    }
}

/// Overwrites `bytes[at..]` with the big-endian bytes of `value`, if they
/// fit.
fn inflated(bytes: &[u8], at: usize, value: &[u8]) -> Option<Vec<u8>> {
    let end = at.checked_add(value.len())?;
    (end <= bytes.len()).then(|| {
        let mut out = bytes.to_vec();
        out[at..end].copy_from_slice(value);
        out
    })
}

/// Runs every mutation over `SAMPLES` seeded values of one type.
fn canonical<T: Encode + Decode + PartialEq + Debug>(
    name: &str,
    seed: u64,
    mut sample: impl FnMut(&mut SplitMix64) -> T,
) {
    let mut rng = SplitMix64::new(seed);
    let encodings: Vec<Vec<u8>> = (0..SAMPLES).map(|_| sample(&mut rng).to_bytes()).collect();
    for (i, bytes) in encodings.iter().enumerate() {
        let value = T::from_bytes(bytes).expect("a valid encoding decodes");
        assert_eq!(value.to_bytes(), *bytes, "{name} #{i}: round trip");
        check_one::<T>(&format!("{name} #{i}"), bytes);

        for cut in 0..bytes.len() {
            assert!(
                T::from_bytes(&bytes[..cut]).is_err(),
                "{name} #{i}: the {cut}-byte prefix decodes"
            );
        }
        for _ in 0..FLIPS {
            let mut flipped = bytes.clone();
            let bit = rng.next_below(8 * bytes.len() as u64) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            check_one::<T>(&format!("{name} #{i} bit {bit} flipped"), &flipped);
        }
        let other = &encodings[rng.next_below(SAMPLES as u64) as usize];
        for _ in 0..8 {
            let head = rng.next_below(bytes.len() as u64 + 1) as usize;
            let tail = rng.next_below(other.len() as u64 + 1) as usize;
            let spliced = [&bytes[..head], &other[tail..]].concat();
            check_one::<T>(&format!("{name} #{i} spliced at {head}/{tail}"), &spliced);
        }
        // Every length or count field sits at some offset: inflate each
        // offset in turn, past every bound and to the bound itself.
        for at in 0..bytes.len() {
            for value in [
                &u64::MAX.to_be_bytes()[..],
                &u32::MAX.to_be_bytes()[..],
                &(1u64 << 24).to_be_bytes()[..],
            ] {
                if let Some(mutated) = inflated(bytes, at, value) {
                    let what = format!("{name} #{i} inflated at {at}");
                    let (_, spent) = allocated_by(|| check_one::<T>(&what, &mutated));
                    // Two decodes, each allowed a few small allocations and
                    // a bounded multiple of the input.
                    assert!(
                        spent <= 64 * mutated.len() + 16 * 1024,
                        "{what}: decoding {} bytes allocated {spent}",
                        mutated.len()
                    );
                }
            }
        }
    }
}

#[test]
fn transactions_payloads_and_client_requests_decode_canonically() {
    canonical("Transaction", 0xc0de_0001, txn);
    canonical("Payload", 0xc0de_0002, payload);
    canonical("ClientRequest", 0xc0de_0003, |rng| {
        ClientRequest::new(txn(rng), rng.next_below(9))
    });
}

#[test]
fn blocks_and_wal_records_decode_canonically() {
    canonical("Block", 0xc0de_0004, block);
    canonical("WalRecord", 0xc0de_0005, wal_record);
}

#[test]
fn mutated_wal_images_scan_to_their_valid_prefix_or_corruption() {
    let mut rng = SplitMix64::new(0xc0de_0014);
    let images: Vec<(Vec<u8>, Vec<usize>)> = (0..SAMPLES)
        .map(|_| {
            let mut image = Vec::new();
            let mut ends = Vec::new();
            for _ in 0..1 + rng.next_below(4) {
                wal_record(&mut rng).frame_into(&mut image);
                ends.push(image.len());
            }
            (image, ends)
        })
        .collect();
    for (i, (image, ends)) in images.iter().enumerate() {
        assert_eq!(check_scan(&format!("image #{i}"), image), Some(image.len()));
        // A cut image is a torn tail, never corruption: the scan stops at
        // the last whole frame.
        for cut in 0..image.len() {
            let whole = ends.iter().copied().filter(|&end| end <= cut).max();
            assert_eq!(
                check_scan(&format!("image #{i} cut at {cut}"), &image[..cut]),
                Some(whole.unwrap_or(0)),
                "image #{i} cut at {cut}"
            );
        }
        for _ in 0..FLIPS {
            let mut flipped = image.clone();
            let bit = rng.next_below(8 * image.len() as u64) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            check_scan(&format!("image #{i} bit {bit} flipped"), &flipped);
        }
        let (other, _) = &images[rng.next_below(SAMPLES as u64) as usize];
        for _ in 0..8 {
            let head = rng.next_below(image.len() as u64 + 1) as usize;
            let tail = rng.next_below(other.len() as u64 + 1) as usize;
            let spliced = [&image[..head], &other[tail..]].concat();
            check_scan(&format!("image #{i} spliced at {head}/{tail}"), &spliced);
        }
        for at in 0..image.len() {
            for value in [
                &u64::MAX.to_be_bytes()[..],
                &u32::MAX.to_be_bytes()[..],
                &(1u64 << 24).to_be_bytes()[..],
                &(1u32 << 24).to_be_bytes()[..],
            ] {
                if let Some(mutated) = inflated(image, at, value) {
                    let what = format!("image #{i} inflated at {at}");
                    let (_, spent) = allocated_by(|| check_scan(&what, &mutated));
                    assert!(
                        spent <= 64 * mutated.len() + 16 * 1024,
                        "{what}: scanning {} bytes allocated {spent}",
                        mutated.len()
                    );
                }
            }
        }
    }
}

#[test]
fn both_protocols_proposals_decode_canonically() {
    canonical("FbftProposal", 0xc0de_0006, fbft_proposal);
    canonical("FbftMessage", 0xc0de_0007, |rng| {
        FbftMessage::Proposal(fbft_proposal(rng))
    });
    canonical("streamlet Proposal", 0xc0de_0008, streamlet_proposal);
    canonical("streamlet Message", 0xc0de_0009, |rng| {
        Message::Proposal(streamlet_proposal(rng))
    });
}

/// Every message variant of both protocols, and the votes, certificates,
/// timeouts, sync responses, interval sets and signer sets inside them.
#[test]
fn votes_certificates_and_every_message_variant_decode_canonically() {
    canonical("RoundIntervalSet", 0xc0de_000a, |rng| {
        let max = rng.next_below(1 << 20);
        intervals(rng, max)
    });
    canonical("SignerSet", 0xc0de_000b, signers);
    // A decoded signer set also names only replicas below its capacity,
    // whichever bit of its encoding flips.
    let mut rng = SplitMix64::new(0xc0de_0013);
    for _ in 0..SAMPLES {
        let bytes = signers(&mut rng).to_bytes();
        for bit in 0..8 * bytes.len() {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(set) = SignerSet::from_bytes(&flipped) {
                assert!(
                    set.iter().all(|id| id.as_usize() < set.capacity()),
                    "bit {bit} flipped: {set:?} names a replica past its capacity {}",
                    set.capacity()
                );
            }
        }
    }
    canonical("StrongVote", 0xc0de_000c, strong_vote);
    canonical("QuorumCertificate", 0xc0de_000d, any_qc);
    canonical("TimeoutCertificate", 0xc0de_000e, any_tc);
    canonical("TimeoutMsg", 0xc0de_000f, timeout_msg);
    canonical("BlockResponse", 0xc0de_0010, block_response);
    canonical("FbftMessage", 0xc0de_0011, |rng| match rng.next_below(6) {
        0 => FbftMessage::Proposal(fbft_proposal(rng)),
        1 => FbftMessage::Vote(strong_vote(rng)),
        2 => FbftMessage::Timeout {
            msg: timeout_msg(rng),
            high_qc: any_qc(rng),
        },
        3 => FbftMessage::SyncRequest(block_request(rng)),
        4 => FbftMessage::SyncResponse(block_response(rng)),
        _ => FbftMessage::Certificate(any_qc(rng)),
    });
    canonical("streamlet Message", 0xc0de_0012, |rng| {
        match rng.next_below(4) {
            0 => Message::Proposal(streamlet_proposal(rng)),
            1 => Message::Vote(strong_vote(rng)),
            2 => Message::SyncRequest(block_request(rng)),
            _ => Message::SyncResponse(block_response(rng)),
        }
    });
}

#[test]
fn a_hostile_transaction_count_allocates_nothing_its_input_does_not_pay_for() {
    // A 9-byte payload: the tag, then a count of 2^24 transactions — the
    // sequence bound, so the count itself passes — and no transaction.
    let mut frame = vec![0u8];
    (1u64 << 24).encode(&mut frame);
    assert_eq!(frame.len(), 9);
    let (decoded, spent) = allocated_by(|| Payload::from_bytes(&frame));
    assert!(decoded.is_err(), "no transaction follows the count");
    assert!(
        spent < 1024,
        "a {}-byte frame claiming 2^24 transactions allocated {spent} bytes",
        frame.len()
    );
}
