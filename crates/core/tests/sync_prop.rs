//! Seeded-PRNG property test for the block-sync admission bar: across
//! randomized chain shapes and adversarial responders, a [`SyncManager`]
//! never admits a block whose certificate chain does not verify — every
//! block that lands in the store is a block of the real (world) chain —
//! and honest service always completes the catch-up.
//!
//! The adversary gets full knowledge of the world and of the learner's
//! outstanding requests, and mutates honest responses structurally:
//! truncations, reorderings, fork swaps, wholesale block forgeries, QC
//! round lies, and unsolicited pushes. Block ids are recomputed on decode
//! in the real wire path; here the adversary forges `Block` values
//! directly via `from_parts`, which is strictly stronger (it can fabricate
//! any field combination a decoder could produce).

use std::collections::HashSet;

use sft_core::{
    Block, BlockResponse, BlockStore, ProtocolConfig, QuorumCertificate, SyncConfig, SyncManager,
};
use sft_crypto::rng::{RngCore, SplitMix64};
use sft_crypto::HashValue;
use sft_types::{Height, Payload, ReplicaId, Round, SignerSet, SimTime, VoteData};

const N: usize = 4;

fn quorum_qc(block: &Block) -> QuorumCertificate {
    QuorumCertificate::new(
        block.vote_data(),
        SignerSet::from_iter_with_capacity(N, (0..3).map(ReplicaId::new)),
    )
}

/// A randomized block tree: a trunk with occasional forks, all rooted at
/// genesis. Returns the store and the trunk (oldest first).
fn random_world(rng: &mut SplitMix64) -> (BlockStore, Vec<Block>) {
    let mut store = BlockStore::new();
    let mut trunk = vec![store.genesis().clone()];
    let len = 4 + rng.next_below(12);
    let mut round = 0u64;
    for _ in 0..len {
        round += 1 + rng.next_below(2); // occasional round gaps
        let parent = trunk.last().expect("trunk starts at genesis").clone();
        let block = Block::new(
            &parent,
            Round::new(round),
            ReplicaId::new(rng.next_below(N as u64) as u16),
            Payload::synthetic(1 + rng.next_below(4) as u32, 8, rng.next_u64()),
        );
        store.insert(block.clone()).unwrap();
        trunk.push(block);
        // Sometimes fork a dead-end sibling off the same parent.
        if rng.next_below(4) == 0 {
            let fork = Block::new(
                &parent,
                Round::new(round + 100),
                ReplicaId::new(rng.next_below(N as u64) as u16),
                Payload::synthetic(1, 8, rng.next_u64()),
            );
            store.insert(fork).unwrap();
        }
    }
    trunk.remove(0); // callers never need genesis
    (store, trunk)
}

/// One structural mutation of an honest response, chosen by the PRNG.
fn mutate(rng: &mut SplitMix64, honest: &BlockResponse, world: &[Block]) -> BlockResponse {
    let mut blocks = honest.blocks().to_vec();
    let qc = honest.qc().clone();
    match rng.next_below(6) {
        // Drop the certified tail: the anchor no longer matches.
        0 => {
            blocks.pop();
            BlockResponse::new(qc, blocks)
        }
        // Drop the head: the internal chain stays valid, so this is only
        // rejected when the base no longer attaches (it may legitimately
        // pool) — still never admits a wrong block.
        1 => {
            blocks.remove(0);
            BlockResponse::new(qc, blocks)
        }
        // Swap two adjacent blocks: breaks the hash chain.
        2 => {
            if blocks.len() >= 2 {
                let i = rng.next_below(blocks.len() as u64 - 1) as usize;
                blocks.swap(i, i + 1);
            } else {
                blocks.clear();
            }
            BlockResponse::new(qc, blocks)
        }
        // Forge one block wholesale (random linkage fields).
        3 => {
            let i = rng.next_below(blocks.len() as u64) as usize;
            let victim = &blocks[i];
            blocks[i] = Block::from_parts(
                HashValue::of(&rng.next_u64().to_be_bytes()),
                victim.parent_round(),
                victim.round(),
                Height::new(rng.next_below(64)),
                ReplicaId::new(rng.next_below(N as u64) as u16),
                Payload::synthetic(1, 8, rng.next_u64()),
            );
            BlockResponse::new(qc, blocks)
        }
        // Lie about the certified round in the QC.
        4 => {
            let last = blocks.last().expect("honest responses are non-empty");
            let lying = QuorumCertificate::new(
                VoteData::new(
                    last.id(),
                    Round::new(last.round().as_u64() + 1 + rng.next_below(5)),
                    last.parent_id(),
                    last.parent_round(),
                ),
                SignerSet::from_iter_with_capacity(N, (0..3).map(ReplicaId::new)),
            );
            BlockResponse::new(lying, blocks)
        }
        // Unsolicited push: a perfectly valid segment for a block the
        // learner never asked about.
        _ => {
            let i = rng.next_below(world.len() as u64) as usize;
            BlockResponse::new(quorum_qc(&world[i]), vec![world[i].clone()])
        }
    }
}

/// The property: an adversarial responder interleaved with an honest one
/// never gets a non-world block admitted, and the honest responder always
/// completes the sync in the end.
#[test]
fn adversarial_responses_never_corrupt_the_store() {
    let cfg = ProtocolConfig::for_replicas(N);
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(0x5f7c_0000 + seed);
        let (world, trunk) = random_world(&mut rng);
        let world_ids: HashSet<HashValue> = trunk.iter().map(Block::id).collect::<HashSet<_>>();

        // The responder knows the whole world and every trunk certificate.
        let mut server = SyncManager::new(cfg, ReplicaId::new(1));
        for block in &trunk {
            server.note_certificate(&quorum_qc(block), &world);
        }

        // The learner starts empty and learns the tip's certificate, with a
        // small fetch bound so multi-hop chasing is exercised.
        let mut behind = BlockStore::new();
        let mut sync = SyncManager::new(cfg, ReplicaId::new(0)).with_sync_config(SyncConfig {
            max_blocks_per_request: 1 + rng.next_below(4) as u32,
            ..SyncConfig::default()
        });
        let tip = trunk.last().expect("non-empty world");
        sync.note_certificate(&quorum_qc(tip), &behind);

        let mut clock = 0u64;
        for round_trip in 0..200 {
            clock += 1000; // past the retry timeout, so requests re-issue
            let now = SimTime::from_millis(clock);
            let requests = sync.take_requests(now);
            if requests.is_empty() && !sync.is_syncing() {
                break;
            }
            for (_, request) in requests {
                let Some(honest) = server.serve(&request, &world, None) else {
                    continue;
                };
                // Mostly hostile early, honest later (so the run converges).
                let hostile = round_trip < 100 && rng.next_below(4) != 0;
                let response = if hostile {
                    mutate(&mut rng, &honest, &trunk)
                } else {
                    honest
                };
                let admitted = sync.on_response(&response, &mut behind);
                for id in admitted {
                    assert!(
                        world_ids.contains(&id),
                        "seed {seed}: admitted a block outside the world trunk"
                    );
                }
            }
        }

        assert!(
            !sync.is_syncing(),
            "seed {seed}: honest service must complete the catch-up"
        );
        for block in &trunk {
            assert!(
                behind.contains(block.id()),
                "seed {seed}: trunk block missing after sync"
            );
        }
        assert_eq!(
            behind.len(),
            trunk.len() + 1,
            "seed {seed}: store holds exactly genesis + the trunk"
        );
    }
}

/// Solo adversary: with no honest service at all, nothing is ever
/// admitted and the learner's store stays at genesis.
#[test]
fn pure_adversary_admits_nothing_but_real_segments() {
    let cfg = ProtocolConfig::for_replicas(N);
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(0xbad_0000 + seed);
        let (world, trunk) = random_world(&mut rng);
        let mut server = SyncManager::new(cfg, ReplicaId::new(1));
        for block in &trunk {
            server.note_certificate(&quorum_qc(block), &world);
        }
        let mut behind = BlockStore::new();
        let mut sync = SyncManager::new(cfg, ReplicaId::new(0));
        let tip = trunk.last().expect("non-empty world");
        sync.note_certificate(&quorum_qc(tip), &behind);

        let mut clock = 0u64;
        for _ in 0..32 {
            clock += 1000;
            for (_, request) in sync.take_requests(SimTime::from_millis(clock)) {
                let Some(honest) = server.serve(&request, &world, None) else {
                    continue;
                };
                let forged = mutate(&mut rng, &honest, &trunk);
                for id in sync.on_response(&forged, &mut behind) {
                    // Mutation case 5 pushes *real* segments for unsolicited
                    // blocks (rejected) and case 1 drops the head (a valid
                    // sub-segment that may legitimately admit or pool) — so
                    // anything admitted must still be a real trunk block.
                    assert!(
                        trunk.iter().any(|b| b.id() == id),
                        "seed {seed}: forged block admitted"
                    );
                }
            }
        }
        assert!(
            behind.len() <= trunk.len() + 1,
            "seed {seed}: store grew beyond the world"
        );
    }
}
