//! Adversarial intake of quorum certificates that carry their members.
//!
//! SFT-DiemBFT's votes reach only the next leader, so every other replica
//! grades strength from the strong-votes a certificate carries. A
//! certificate is therefore attacker-supplied input twice over: its bytes
//! (decoded from any peer) and its members (credited as endorsements).
//! These tests hold [`ChainKernel::admit_qc`] and the certificate codec to
//! that: every malformed or forged certificate is rejected with no
//! endorsement credited and no panic, a hostile member count allocates no
//! more than its input could hold, valid certificates round-trip, and every
//! truncation of one is an error, never a different certificate.

use sft_core::{Block, ChainKernel, ProtocolConfig, QuorumCertificate};
use sft_crypto::{HashValue, KeyRegistry, RngCore, SplitMix64};
use sft_types::{
    Decode, DecodeError, Encode, EndorseInfo, EndorseMode, Payload, QcMember, ReplicaId, Round,
    RoundIntervalSet, SignerSet, StrongVote, VoteData,
};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocated_by;

const N: usize = 4;

fn registry() -> KeyRegistry {
    KeyRegistry::deterministic(N)
}

/// Replica 0's kernel, holding the round-1 block — which a test then commits, so
/// whatever endorsements were credited show up as a commit level.
fn kernel_with_block() -> (ChainKernel, Block) {
    let config = ProtocolConfig::for_replicas(N);
    let mut kernel = ChainKernel::new(0, config, registry(), EndorseMode::Marker);
    let round = Round::new(1);
    let block = Block::new(
        &Block::genesis(),
        round,
        config.leader(round),
        Payload::empty(),
    );
    kernel.accept_block(&block, |_, _, _| false);
    (kernel, block)
}

/// The endorsement level `kernel` grades `block` at once it is committed:
/// `None` while fewer than `2f + 1` endorsers were credited.
fn credited_level(kernel: &mut ChainKernel, block: &Block) -> Option<u64> {
    kernel.commit_through(block.id());
    kernel.commit_level(block.id())
}

/// Replica `signer`'s marker-0 vote for `data`, as a member. Keys are a
/// function of the index, so ids past `N` sign too (as replicas of a
/// larger system).
fn member(signer: u64, data: VoteData) -> QcMember {
    let key = KeyRegistry::deterministic(2 * N)
        .key_pair(signer)
        .expect("a key per index");
    StrongVote::new(data, EndorseInfo::Marker(Round::ZERO), &key).member()
}

fn members(signers: impl IntoIterator<Item = u64>, data: VoteData) -> Vec<QcMember> {
    signers.into_iter().map(|i| member(i, data)).collect()
}

/// `member` with its signature swapped for another replica's over the
/// same data: the claimed author did not sign it.
fn forged(author: u64, data: VoteData) -> QcMember {
    let stolen = member((author + 1) % N as u64, data);
    QcMember::from_parts(
        ReplicaId::new(author as u16),
        stolen.endorse().clone(),
        *stolen.signature(),
    )
}

fn assert_rejected(kernel: &mut ChainKernel, block: &Block, qc: &QuorumCertificate, what: &str) {
    assert_eq!(kernel.admit_qc(qc), None, "{what}: admitted");
    assert_eq!(
        credited_level(kernel, block),
        None,
        "{what}: an endorsement was credited"
    );
}

#[test]
fn a_valid_certificate_is_admitted_once_and_credits_each_member_once() {
    let (mut kernel, block) = kernel_with_block();
    let qc =
        QuorumCertificate::with_members(N, block.vote_data(), members(0..4, block.vote_data()))
            .expect("four distinct members");
    let grown = kernel.admit_qc(&qc).expect("every member verifies");
    assert_eq!(grown, [block.id(); 4], "one growth per member credited");
    let stats = kernel.sig_stats();
    assert_eq!((stats.batch_calls, stats.batch_verified), (1, 4));
    // Re-delivered: nothing to check, nothing new to credit.
    assert_eq!(kernel.admit_qc(&qc), Some(Vec::new()));
    assert_eq!(kernel.sig_stats(), stats, "held members are not re-checked");
    let config = ProtocolConfig::for_replicas(N);
    assert_eq!(
        credited_level(&mut kernel, &block),
        Some(config.max_strength())
    );
}

#[test]
fn a_forged_member_signature_is_rejected() {
    let (mut kernel, block) = kernel_with_block();
    let data = block.vote_data();
    let mut list = members(0..3, data);
    list.push(forged(3, data));
    let qc = QuorumCertificate::with_members(N, data, list).expect("distinct authors");
    assert_rejected(&mut kernel, &block, &qc, "forged member");
}

#[test]
fn two_f_valid_members_and_one_forged_are_rejected() {
    let (mut kernel, block) = kernel_with_block();
    let data = block.vote_data();
    let mut list = members(0..2, data); // 2f = 2 at n = 4
    list.push(forged(2, data));
    let qc = QuorumCertificate::with_members(N, data, list).expect("distinct authors");
    assert_rejected(&mut kernel, &block, &qc, "2f valid + 1 forged");
    // Nothing of the rejected certificate was kept: the honest quorum
    // behind it still has all three members to credit.
    let honest = QuorumCertificate::with_members(N, data, members(0..3, data)).unwrap();
    assert_eq!(kernel.admit_qc(&honest), Some(vec![block.id(); 3]));
    let stats = kernel.sig_stats();
    assert_eq!(
        (stats.batch_calls, stats.batch_verified, stats.batch_rejects),
        (2, 6, 1),
        "the honest quorum was checked whole, in one batch"
    );
}

#[test]
fn a_sub_quorum_certificate_is_rejected() {
    let (mut kernel, block) = kernel_with_block();
    let data = block.vote_data();
    let qc = QuorumCertificate::with_members(N, data, members(0..2, data)).unwrap();
    assert_rejected(&mut kernel, &block, &qc, "2f members");
}

#[test]
fn a_member_signed_over_other_vote_data_is_rejected() {
    let (mut kernel, block) = kernel_with_block();
    let data = block.vote_data();
    let other = VoteData::new(
        data.block_id(),
        data.block_round(),
        HashValue::of(b"another parent"),
        data.parent_round(),
    );
    let mut list = members(0..3, data);
    list.push(member(3, other));
    let qc = QuorumCertificate::with_members(N, data, list).unwrap();
    assert_rejected(&mut kernel, &block, &qc, "member over other data");
    // Nor can valid members be replayed under doctored data.
    let relabelled = QuorumCertificate::with_members(N, other, members(0..3, data)).unwrap();
    assert_eq!(kernel.admit_qc(&relabelled), None, "doctored vote data");
}

#[test]
fn duplicate_and_out_of_range_authors_are_rejected() {
    let (mut kernel, block) = kernel_with_block();
    let data = block.vote_data();
    // The constructor refuses both outright.
    let mut duplicated = members(0..3, data);
    duplicated.push(member(1, data));
    assert!(QuorumCertificate::with_members(N, data, duplicated).is_none());
    assert!(QuorumCertificate::with_members(N, data, members([0, 1, 4], data)).is_none());

    // So must the decoder: rewrite an honest encoding's third author.
    let honest = QuorumCertificate::with_members(N, data, members(0..3, data)).unwrap();
    let bytes = honest.to_bytes();
    let third = author_offsets(&bytes)[2];
    for (author, what) in [(1u16, "duplicate"), (0, "out of order"), (4, "id ≥ n")] {
        let mut hostile = bytes.clone();
        hostile[third..third + 2].copy_from_slice(&author.to_be_bytes());
        assert_eq!(
            QuorumCertificate::from_bytes(&hostile),
            Err(DecodeError::InvalidValue),
            "{what} author decoded"
        );
    }

    // A certificate sized for a larger system names ids this one lacks.
    let wide = QuorumCertificate::with_members(7, data, members([0, 1, 2], data)).unwrap();
    assert_rejected(&mut kernel, &block, &wide, "certificate for n = 7");
}

#[test]
fn a_bare_signer_set_is_not_evidence() {
    let (mut kernel, block) = kernel_with_block();
    let bare = QuorumCertificate::new(
        block.vote_data(),
        SignerSet::from_iter_with_capacity(N, (0..4).map(ReplicaId::new)),
    );
    assert!(bare.is_well_formed(&ProtocolConfig::for_replicas(N)));
    assert_rejected(&mut kernel, &block, &bare, "bare signer set");
    assert_eq!(
        kernel.admit_qc(&QuorumCertificate::genesis(N)),
        Some(Vec::new())
    );
}

#[test]
fn a_hostile_member_count_allocates_no_more_than_its_input() {
    let (mut kernel, block) = kernel_with_block();
    let data = block.vote_data();
    let honest = QuorumCertificate::with_members(N, data, members(0..3, data)).unwrap();
    let bytes = honest.to_bytes();
    // Layout: vote data (80), form word (8), n (4), count (4), members.
    let (n_at, count_at) = (88, 92);
    for (n, count) in [(N as u32, u32::MAX), (u32::MAX, u32::MAX), (65_536, 65_536)] {
        let mut hostile = bytes.clone();
        hostile[n_at..n_at + 4].copy_from_slice(&n.to_be_bytes());
        hostile[count_at..count_at + 4].copy_from_slice(&count.to_be_bytes());
        let (decoded, bytes_allocated) = allocated_by(|| QuorumCertificate::from_bytes(&hostile));
        assert!(decoded.is_err(), "n = {n}, count = {count} decoded");
        assert!(
            bytes_allocated <= 4 * hostile.len(),
            "n = {n}, count = {count}: {bytes_allocated} B allocated for {} B of input",
            hostile.len()
        );
    }
    assert_eq!(credited_level(&mut kernel, &block), None);
}

/// A random certificate: either form, random members and endorse infos
/// (members need not verify — this is the codec).
fn random_qc(rng: &mut SplitMix64) -> QuorumCertificate {
    let n = 1 + rng.next_below(12) as usize;
    let data = VoteData::new(
        HashValue::of(&rng.next_u64().to_be_bytes()),
        Round::new(1 + rng.next_below(1 << 20)),
        HashValue::of(&rng.next_u64().to_be_bytes()),
        Round::new(rng.next_below(1 << 20)),
    );
    let authors: Vec<u16> = (0..n as u16).filter(|_| rng.next_below(3) > 0).collect();
    if rng.next_below(4) == 0 {
        let signers = authors.into_iter().map(ReplicaId::new);
        return QuorumCertificate::new(data, SignerSet::from_iter_with_capacity(n, signers));
    }
    let signers = KeyRegistry::deterministic(n);
    let list = authors
        .into_iter()
        .map(|author| {
            let endorse = match rng.next_below(3) {
                0 => EndorseInfo::None,
                1 => EndorseInfo::Marker(Round::new(rng.next_below(100))),
                _ => EndorseInfo::Intervals(RoundIntervalSet::from_marker(
                    Round::new(rng.next_below(10)),
                    Round::new(10 + rng.next_below(10)),
                )),
            };
            let key = signers.key_pair(u64::from(author)).expect("key");
            StrongVote::new(data, endorse, &key).member()
        })
        .collect();
    QuorumCertificate::with_members(n, data, list).expect("distinct in-range authors")
}

#[test]
fn certificates_round_trip_and_every_truncation_is_an_error() {
    let mut rng = SplitMix64::new(0x9c_0de);
    for _ in 0..60 {
        let qc = random_qc(&mut rng);
        let bytes = qc.to_bytes();
        let back = QuorumCertificate::from_bytes(&bytes).expect("own encoding decodes");
        assert_eq!(back, qc);
        assert_eq!(back.digest(), qc.digest());
        assert_eq!(back.to_bytes(), bytes, "one encoding per certificate");
        for cut in 0..bytes.len() {
            assert!(
                QuorumCertificate::from_bytes(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte certificate decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn the_digest_covers_every_member() {
    let (_, block) = kernel_with_block();
    let data = block.vote_data();
    let four = QuorumCertificate::with_members(N, data, members(0..4, data)).unwrap();
    let three = QuorumCertificate::with_members(N, data, members(0..3, data)).unwrap();
    let mut swapped = members(0..3, data);
    swapped[2] = forged(2, data);
    let swapped = QuorumCertificate::with_members(N, data, swapped).unwrap();
    assert_ne!(four.digest(), three.digest());
    assert_ne!(three.digest(), swapped.digest());
}

/// Byte offsets of each member's author field in a member-form encoding
/// whose members all carry a marker.
fn author_offsets(bytes: &[u8]) -> Vec<usize> {
    let count = u32::from_be_bytes(bytes[92..96].try_into().expect("4 bytes")) as usize;
    // author (2) + marker tag and round (9) + signature (40)
    (0..count).map(|i| 96 + i * 51).collect()
}
