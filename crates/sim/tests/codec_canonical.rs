//! The codec is canonical for every type whose bytes a replica holds.
//!
//! A block keeps the bytes it was decoded from, and a transaction the
//! range of them its payload occupies, instead of re-encoding either: so a
//! held encoding must be *the* encoding of the value. This suite checks
//! that for the transaction, the payload, the client request, the block,
//! the WAL record and both protocols' proposal messages. It starts from
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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::sync::Arc;

use sft_core::{Block, QuorumCertificate, WalRecord};
use sft_crypto::{HashValue, KeyRegistry, RngCore, SplitMix64};
use sft_fbft::{FbftMessage, FbftProposal};
use sft_streamlet::{Message, Proposal};
use sft_types::{
    ClientRequest, Decode, Encode, EndorseInfo, Height, Payload, ReplicaId, Round, SignerSet,
    StrongVote, TimeoutCertificate, Transaction, VoteData,
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
    let marker = Round::new(rng.next_below(data.block_round().as_u64() + 1));
    StrongVote::new(data, EndorseInfo::Marker(marker), &key)
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
