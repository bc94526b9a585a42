//! Batched signature verification.
//!
//! Verifying a forming quorum certificate means checking `2f + 1` (or
//! `f + x + 1`) signatures that all cover the *same* vote data. Checking
//! them one at a time costs one registry lookup and one constant-time
//! comparison each. [`KeyRegistry::verify_batch`] does
//! the whole set in a single pass: every MAC is computed once, each
//! item's *contribution* `Sha256(i ‖ computed) ⊕ Sha256(i ‖ claimed)`
//! is cached and XOR-folded into one accumulator, and a single
//! constant-time comparison against zero settles the batch. Only when
//! that aggregate check fails does the rejection path run — a bisection
//! over the *cached* contributions (no MAC is ever recomputed) that
//! pinpoints exactly which signatures are forged.
//!
//! The aggregate-then-bisect shape mirrors real batch verification for
//! aggregatable schemes (BLS-style): a threshold scheme can slot in
//! behind the same API. For the HMAC stand-in the concrete savings are
//! the single pass over the registry and the one-comparison accept
//! path. Folding raw `computed ⊕ claimed`
//! differences would be unsound here: a Byzantine relayer who flips the
//! same bit in two honest signatures makes both differences equal that
//! flip mask, and they cancel. Hashing each side with the item index as
//! a domain separator closes that — a valid item contributes exactly
//! zero, and cancelling any non-zero contribution requires a SHA-256
//! collision (the index prefix rules out cross-item replays).

use crate::hmac::ct_eq;
use crate::keys::KeyRegistry;
use crate::signature::{Signature, SIGNATURE_LEN};

/// One (signer, message, signature) claim inside a batch.
///
/// Messages may differ across items — strong votes share their vote-data
/// digest but carry per-voter endorsement info, so the batch API takes
/// the full signed message per item and leaves digest sharing to the
/// caller.
#[derive(Clone, Copy, Debug)]
pub struct BatchItem<'a> {
    /// The claimed signer index.
    pub signer: u64,
    /// The exact bytes the signature covers.
    pub message: &'a [u8],
    /// The signature to check.
    pub signature: &'a Signature,
}

impl<'a> BatchItem<'a> {
    /// Builds a batch item.
    pub fn new(signer: u64, message: &'a [u8], signature: &'a Signature) -> Self {
        Self {
            signer,
            message,
            signature,
        }
    }
}

/// Signature-verification work counters, kept by vote/timeout
/// aggregators and rolled up into run reports.
///
/// Lives in `sft-crypto` (not the observability crate) so that the type
/// layer can count verification work without growing a metrics
/// dependency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SigStats {
    /// Signatures verified one at a time ([`KeyRegistry::verify`]).
    pub verifications: u64,
    /// Calls to [`KeyRegistry::verify_batch`].
    pub batch_calls: u64,
    /// Signatures checked inside batch passes (valid and forged alike).
    pub batch_verified: u64,
    /// Batches whose aggregate check failed and took the bisection path.
    pub batch_rejects: u64,
}

impl SigStats {
    /// Folds `other` into `self` (element-wise sum).
    pub fn merge(&mut self, other: SigStats) {
        self.verifications += other.verifications;
        self.batch_calls += other.batch_calls;
        self.batch_verified += other.batch_verified;
        self.batch_rejects += other.batch_rejects;
    }

    /// Counts one individual verification.
    pub fn count_verify(&mut self) {
        self.verifications += 1;
    }

    /// Counts one batch pass over `items` signatures, `rejected` or not.
    pub fn count_batch(&mut self, items: usize, rejected: bool) {
        self.batch_calls += 1;
        self.batch_verified += items as u64;
        if rejected {
            self.batch_rejects += 1;
        }
    }
}

/// XOR-folds `contribution` into `acc`.
fn fold(acc: &mut [u8; 32], contribution: &[u8; 32]) {
    for (a, c) in acc.iter_mut().zip(contribution) {
        *a ^= c;
    }
}

/// `Sha256(index ‖ tag)` — one side of an item's fold contribution. The
/// index prefix domain-separates items so contributions of distinct
/// items can never cancel without a hash collision.
fn side(index: usize, tag: &[u8; SIGNATURE_LEN]) -> [u8; 32] {
    let mut buf = [0u8; 8 + SIGNATURE_LEN];
    buf[..8].copy_from_slice(&(index as u64).to_be_bytes());
    buf[8..].copy_from_slice(tag);
    crate::sha256::Sha256::digest(&buf)
}

/// Bisects over cached per-item contributions, appending the indices of
/// every item whose contribution is provably non-zero. `range` indexes
/// into `contributions`; indices are reported through `map` (the
/// caller's original item indices).
fn bisect(
    contributions: &[[u8; 32]],
    map: &[usize],
    range: std::ops::Range<usize>,
    forged: &mut Vec<usize>,
) {
    let mut acc = [0u8; 32];
    for contribution in &contributions[range.clone()] {
        fold(&mut acc, contribution);
    }
    if ct_eq(&acc, &[0u8; 32]) {
        return;
    }
    if range.len() == 1 {
        forged.push(map[range.start]);
        return;
    }
    let mid = range.start + range.len() / 2;
    bisect(contributions, map, range.start..mid, forged);
    bisect(contributions, map, mid..range.end, forged);
}

impl KeyRegistry {
    /// Verifies every item in one pass.
    ///
    /// Accept path: one MAC per item (cached), one XOR fold, one
    /// constant-time comparison for the whole batch. Reject path:
    /// bisection over the cached differences — `O(log n)` aggregate
    /// re-folds, zero MAC recomputation — naming exactly the forged
    /// item indices.
    ///
    /// # Errors
    ///
    /// Returns the sorted indices (into `items`) of every signature
    /// that does not verify.
    pub fn verify_batch(&self, items: &[BatchItem<'_>]) -> Result<(), Vec<usize>> {
        // Items whose claimed signer is malformed (mismatched or
        // unregistered) are forged by inspection: no MAC to compute.
        let mut forged = Vec::new();
        let mut contributions: Vec<[u8; 32]> = Vec::with_capacity(items.len());
        let mut map: Vec<usize> = Vec::with_capacity(items.len());
        let mut acc = [0u8; 32];
        for (index, item) in items.iter().enumerate() {
            if item.signature.signer() != item.signer {
                forged.push(index);
                continue;
            }
            let Some(secret) = self.secret(item.signer) else {
                forged.push(index);
                continue;
            };
            let computed = secret.mac(item.signer, item.message);
            let mut contribution = side(index, &computed);
            fold(&mut contribution, &side(index, item.signature.tag()));
            fold(&mut acc, &contribution);
            contributions.push(contribution);
            map.push(index);
        }
        if forged.is_empty() && ct_eq(&acc, &[0u8; 32]) {
            return Ok(());
        }
        if !ct_eq(&acc, &[0u8; 32]) {
            bisect(&contributions, &map, 0..contributions.len(), &mut forged);
        }
        forged.sort_unstable();
        Err(forged)
    }

    // Kept only so the frozen benchmark probe
    // `crypto.verify_batch_q21_pooled_ns_per_sig` compiles; ROADMAP item
    // 8(a) deletes it.
    #[doc(hidden)]
    pub fn verify_batch_pooled(&self, items: &[BatchItem<'_>]) -> Result<(), Vec<usize>> {
        self.verify_batch(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    fn signed(registry: &KeyRegistry, signer: u64, message: &[u8]) -> Signature {
        registry.key_pair(signer).unwrap().sign(message)
    }

    #[test]
    fn all_valid_batch_accepts() {
        let reg = KeyRegistry::deterministic(7);
        let msgs: Vec<Vec<u8>> = (0..7u64).map(|i| format!("msg-{i}").into_bytes()).collect();
        let sigs: Vec<Signature> = (0..7u64)
            .map(|i| signed(&reg, i, &msgs[i as usize]))
            .collect();
        let items: Vec<BatchItem> = (0..7usize)
            .map(|i| BatchItem::new(i as u64, &msgs[i], &sigs[i]))
            .collect();
        assert_eq!(reg.verify_batch(&items), Ok(()));
    }

    #[test]
    fn empty_batch_accepts() {
        let reg = KeyRegistry::deterministic(3);
        assert_eq!(reg.verify_batch(&[]), Ok(()));
    }

    #[test]
    fn bisection_pinpoints_single_forgery() {
        let reg = KeyRegistry::deterministic(8);
        let msg = b"block-digest";
        let mut sigs: Vec<Signature> = (0..8u64).map(|i| signed(&reg, i, msg)).collect();
        // Replica 5's tag is corrupted in transit.
        let mut tag = *sigs[5].tag();
        tag[13] ^= 0x40;
        sigs[5] = Signature::from_tag(5, tag);
        let items: Vec<BatchItem> = sigs
            .iter()
            .enumerate()
            .map(|(i, sig)| BatchItem::new(i as u64, msg, sig))
            .collect();
        assert_eq!(reg.verify_batch(&items), Err(vec![5]));
    }

    #[test]
    fn bisection_pinpoints_multiple_forgeries() {
        let reg = KeyRegistry::deterministic(9);
        let msg = b"round-7";
        let mut sigs: Vec<Signature> = (0..9u64).map(|i| signed(&reg, i, msg)).collect();
        for &victim in &[0usize, 4, 8] {
            let mut tag = *sigs[victim].tag();
            tag[0] ^= 0x01;
            sigs[victim] = Signature::from_tag(victim as u64, tag);
        }
        let items: Vec<BatchItem> = sigs
            .iter()
            .enumerate()
            .map(|(i, sig)| BatchItem::new(i as u64, msg, sig))
            .collect();
        assert_eq!(reg.verify_batch(&items), Err(vec![0, 4, 8]));
    }

    #[test]
    fn wrong_message_is_a_forgery() {
        let reg = KeyRegistry::deterministic(4);
        let good = signed(&reg, 0, b"agreed");
        let stale = signed(&reg, 1, b"superseded");
        let items = [
            BatchItem::new(0, b"agreed", &good),
            BatchItem::new(1, b"agreed", &stale),
        ];
        assert_eq!(reg.verify_batch(&items), Err(vec![1]));
    }

    #[test]
    fn signer_mismatch_and_unknown_signer_are_forgeries() {
        let reg = KeyRegistry::deterministic(3);
        let sig0 = signed(&reg, 0, b"m");
        let sig1 = signed(&reg, 1, b"m");
        let ghost = KeyPair::new(99, crate::keys::SecretKey::deterministic(99)).sign(b"m");
        let items = [
            // Claimed signer 2 but the signature names signer 0.
            BatchItem::new(2, b"m", &sig0),
            BatchItem::new(1, b"m", &sig1),
            // Signer 99 is not in a 3-replica registry.
            BatchItem::new(99, b"m", &ghost),
        ];
        assert_eq!(reg.verify_batch(&items), Err(vec![0, 2]));
    }

    #[test]
    fn batch_agrees_with_individual_verification() {
        let reg = KeyRegistry::deterministic(16);
        let msg = b"parity";
        let mut sigs: Vec<Signature> = (0..16u64).map(|i| signed(&reg, i, msg)).collect();
        for &victim in &[3usize, 7, 11] {
            sigs[victim] = Signature::from_tag(victim as u64, [0xab; SIGNATURE_LEN]);
        }
        let items: Vec<BatchItem> = sigs
            .iter()
            .enumerate()
            .map(|(i, sig)| BatchItem::new(i as u64, msg, sig))
            .collect();
        let individually: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(_, item)| !reg.verify(item.signer, item.message, item.signature))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(reg.verify_batch(&items), Err(individually));
    }

    #[test]
    fn stats_fold() {
        let mut stats = SigStats::default();
        stats.count_verify();
        stats.count_batch(5, false);
        stats.count_batch(3, true);
        let mut total = SigStats {
            verifications: 1,
            ..Default::default()
        };
        total.merge(stats);
        assert_eq!(total.verifications, 2);
        assert_eq!(total.batch_calls, 2);
        assert_eq!(total.batch_verified, 8);
        assert_eq!(total.batch_rejects, 1);
    }
}
