//! Three values that everything above this crate is built from — a
//! transaction id, a block id and a signature tag — pinned as literals
//! computed with the portable FIPS 180-4 kernel before any other kernel
//! existed. Block ids are chained and signatures cover them, so a kernel or
//! MAC path that drifts by one bit changes every committed log; this is
//! where that shows first, with no cluster to run.

use sft_core::Block;
use sft_crypto::KeyRegistry;
use sft_types::{Payload, ReplicaId, Round, Transaction};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A payload long enough to cross many SHA-256 blocks and end mid-block.
fn transaction() -> Transaction {
    let payload: Vec<u8> = (0..4099u32).map(|i| (i * 31 % 251) as u8).collect();
    Transaction::new(7, 42, payload)
}

#[test]
fn transaction_id_is_pinned() {
    assert_eq!(
        hex(transaction().id().as_ref()),
        "e5043b822f08b40cadce0b05a8fc436c1e7b7ac2d66505ef596e8e8cc0504203"
    );
}

#[test]
fn block_id_is_pinned() {
    let payload = Payload::Transactions(vec![transaction(), Transaction::new(8, 0, vec![])]);
    let block = Block::new(&Block::genesis(), Round::new(3), ReplicaId::new(2), payload);
    assert_eq!(
        hex(block.id().as_ref()),
        "04b5ed29cb77af35016ba27d9f879eb0fb81ad717f4b9cb88245ccfbff50af0f"
    );
}

#[test]
fn signature_tag_is_pinned() {
    let pair = KeyRegistry::deterministic(4)
        .key_pair(2)
        .expect("replica 2");
    let signature = pair.sign(transaction().id().as_ref());
    assert_eq!(
        hex(signature.tag()),
        "7322aaa28486933766cda0a4bd7751cdeb027c1b92f2e60322b46167ddae99cd"
    );
}
