//! Batched signature verification.
//!
//! Verifying a forming quorum certificate means checking `2f + 1` (or
//! `f + x + 1`) signatures that all cover the *same* vote data.
//! [`KeyRegistry::verify_batch`] takes the whole set in one call and
//! gives every item exactly [`KeyRegistry::verify`]'s verdict: one MAC
//! and one constant-time comparison per signature, the forged ones named
//! by index. The HMAC stand-in has no aggregate check cheaper than that,
//! so the batch call is only the seam where a scheme that has one
//! (random-linear-combination Ed25519, BLS) checks a quorum at once.

use crate::keys::KeyRegistry;
use crate::signature::Signature;

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
    /// Batches that held at least one forged signature.
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

impl KeyRegistry {
    /// Checks every item as [`verify`](Self::verify) does: one MAC and
    /// one constant-time comparison each, whatever the other items hold.
    ///
    /// # Errors
    ///
    /// Returns the ascending indices (into `items`) of every signature
    /// that does not verify.
    pub fn verify_batch(&self, items: &[BatchItem<'_>]) -> Result<(), Vec<usize>> {
        let forged: Vec<usize> = (0..items.len())
            .filter(|&i| !self.verify(items[i].signer, items[i].message, items[i].signature))
            .collect();
        if forged.is_empty() {
            Ok(())
        } else {
            Err(forged)
        }
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
    use crate::rng::SplitMix64;
    use crate::signature::SIGNATURE_LEN;

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
        let individually = forged_one_by_one(&reg, &items);
        assert_eq!(reg.verify_batch(&items), Err(individually));

        // Seeded random batches of every size below 32, each item valid or
        // forged one of four ways. Odd trials also flip the same bit in two
        // items: XOR-folding raw `computed ⊕ claimed` differences would let
        // that pair cancel.
        let mut rng = SplitMix64::new(0x5eed_ba7c);
        let ghost = KeyPair::new(99, crate::keys::SecretKey::deterministic(99)).sign(msg);
        for size in 0..32u64 {
            for trial in 0..8 {
                let (byte, bit) = (rng.next_below(SIGNATURE_LEN as u64), rng.next_below(8));
                let twin = (trial % 2 == 1 && size >= 2).then(|| rng.next_below(size));
                let claims: Vec<(u64, Signature)> = (0..size)
                    .map(|i| {
                        let signer = rng.next_below(16);
                        let sig = signed(&reg, signer, msg);
                        let is_twin = twin.is_some_and(|t| i == t || i == (t + 1) % size);
                        match if is_twin { 0 } else { rng.next_below(8) } {
                            0 => {
                                let mut tag = *sig.tag();
                                tag[byte as usize] ^= 1 << bit;
                                (signer, Signature::from_tag(signer, tag))
                            }
                            1 => (signer, signed(&reg, (signer + 1) % 16, msg)),
                            2 => (signer, signed(&reg, signer, b"superseded")),
                            3 => (99, ghost),
                            _ => (signer, sig),
                        }
                    })
                    .collect();
                let items: Vec<BatchItem> = claims
                    .iter()
                    .map(|(signer, sig)| BatchItem::new(*signer, msg, sig))
                    .collect();
                let forged = forged_one_by_one(&reg, &items);
                let expected = Some(forged).filter(|f| !f.is_empty()).map_or(Ok(()), Err);
                assert_eq!(
                    reg.verify_batch(&items),
                    expected,
                    "{size} items, trial {trial}"
                );
            }
        }
    }

    /// The indices `verify` rejects, checked one item at a time.
    fn forged_one_by_one(reg: &KeyRegistry, items: &[BatchItem<'_>]) -> Vec<usize> {
        items
            .iter()
            .enumerate()
            .filter(|(_, item)| !reg.verify(item.signer, item.message, item.signature))
            .map(|(i, _)| i)
            .collect()
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
