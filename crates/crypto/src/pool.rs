//! Parallel batch verification on a lazily-spawned worker pool.
//!
//! [`KeyRegistry::verify_batch`] is one serial pass: at n = 61 a forming
//! quorum certificate folds 40+ HMAC computations on the engine thread.
//! [`KeyRegistry::verify_batch_pooled`] shards that MAC work across a
//! small process-wide pool of `std` threads (zero dependencies) and
//! joins the per-shard XOR folds into the *same* single constant-time
//! aggregate check — the accept path, the bisection reject path, and
//! every returned index are byte-identical to the serial pass, because
//! each item's contribution `Sha256(i ‖ computed) ⊕ Sha256(i ‖ claimed)`
//! depends only on the item and its original batch index, never on
//! which thread computed it.
//!
//! Small batches skip the pool entirely ([`PARALLEL_THRESHOLD`]):
//! sharding three MACs costs more in handoff than it saves. The pool
//! itself spawns on first use and lives for the process — callers on
//! the hot path never pay thread-spawn latency, and the thread count is
//! bounded ([`pool_workers`]) so harness thread budgets can account for
//! it.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

use crate::batch::{bisect, fold, side, BatchItem};
use crate::hmac::ct_eq;
use crate::keys::KeyRegistry;
use crate::signature::SIGNATURE_LEN;

/// Batches below this size verify serially: the per-item MAC is ~1 µs,
/// so the cross-thread handoff only pays for itself once a quorum-sized
/// batch is on the table.
pub const PARALLEL_THRESHOLD: usize = 16;

/// Hard cap on pool workers — quorum batches are at most `n` items, and
/// past a few shards the join overhead eats the win.
const MAX_WORKERS: usize = 4;

/// One unit of pool work.
type Job = Box<dyn FnOnce() + Send>;

/// The process-wide verification pool: a job channel feeding detached
/// worker threads. Spawned lazily by the first over-threshold batch.
struct Pool {
    tx: Mutex<Sender<Job>>,
    workers: usize,
}

impl Pool {
    fn spawn() -> Self {
        let workers = available_workers();
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("sft-crypto-pool-{i}"))
                .spawn(move || worker_loop(&rx))
                .expect("spawn crypto pool worker");
        }
        Self {
            tx: Mutex::new(tx),
            workers,
        }
    }

    fn submit(&self, job: Job) {
        self.tx
            .lock()
            .expect("crypto pool sender")
            .send(job)
            .expect("crypto pool workers alive for the process lifetime");
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            let guard = rx.lock().expect("crypto pool receiver");
            guard.recv()
        };
        match job {
            Ok(job) => job(),
            Err(_) => return, // channel closed: process is tearing down
        }
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(Pool::spawn)
}

fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_WORKERS)
}

/// How many threads the crypto pool runs (or would run) — what a
/// harness thread budget must reserve. The pool is spawned lazily, so
/// this is an upper bound until the first over-threshold batch.
#[must_use]
pub fn pool_workers() -> usize {
    POOL.get().map_or_else(available_workers, |p| p.workers)
}

/// One well-formed item, copied out of the borrowed batch so a pool job
/// can own it: original batch index, claimed signer, signed message,
/// claimed tag.
struct OwnedItem {
    index: usize,
    signer: u64,
    message: Vec<u8>,
    tag: [u8; SIGNATURE_LEN],
}

/// Computes the fold contributions for one shard, in shard order.
fn shard_contributions(registry: &KeyRegistry, shard: &[OwnedItem]) -> Vec<[u8; 32]> {
    let mut out = Vec::with_capacity(shard.len());
    for item in shard {
        let secret = registry
            .secret(item.signer)
            .expect("shard items are pre-checked against the registry");
        let computed = secret.mac(item.signer, &item.message);
        let mut contribution = side(item.index, &computed);
        fold(&mut contribution, &side(item.index, &item.tag));
        out.push(contribution);
    }
    out
}

impl KeyRegistry {
    /// [`verify_batch`](Self::verify_batch) with the MAC work sharded
    /// across the process-wide worker pool. Result-identical to the
    /// serial pass — same `Ok`/`Err`, same forged indices — and falls
    /// back to it outright below [`PARALLEL_THRESHOLD`].
    ///
    /// # Errors
    ///
    /// Returns the sorted indices (into `items`) of every signature
    /// that does not verify.
    pub fn verify_batch_pooled(&self, items: &[BatchItem<'_>]) -> Result<(), Vec<usize>> {
        if items.len() < PARALLEL_THRESHOLD {
            return self.verify_batch(items);
        }

        // Malformed claims (mismatched or unregistered signer) are
        // forged by inspection, exactly as in the serial pass; only
        // well-formed items carry MAC work into the shards.
        let mut forged = Vec::new();
        let mut owned: Vec<OwnedItem> = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            if item.signature.signer() != item.signer || self.secret(item.signer).is_none() {
                forged.push(index);
                continue;
            }
            owned.push(OwnedItem {
                index,
                signer: item.signer,
                message: item.message.to_vec(),
                tag: *item.signature.tag(),
            });
        }

        let pool = pool();
        let shards = (pool.workers + 1).min(owned.len().max(1));
        let chunk = owned.len().div_ceil(shards);
        let mut pending: Vec<Vec<OwnedItem>> = Vec::with_capacity(shards);
        let mut rest = owned;
        while rest.len() > chunk {
            let tail = rest.split_off(chunk);
            pending.push(std::mem::replace(&mut rest, tail));
        }
        pending.push(rest);

        // Shard 0 runs on the calling thread (no handoff for the first
        // chunk, and correctness never depends on pool progress); the
        // rest go to the workers, results keyed by shard position.
        let (result_tx, result_rx) = mpsc::channel::<(usize, Vec<[u8; 32]>)>();
        let mut local = Vec::new();
        for (shard_idx, shard) in pending.iter().enumerate().skip(1) {
            let registry = self.clone();
            let shard: Vec<OwnedItem> = shard
                .iter()
                .map(|i| OwnedItem {
                    index: i.index,
                    signer: i.signer,
                    message: i.message.clone(),
                    tag: i.tag,
                })
                .collect();
            let tx = result_tx.clone();
            pool.submit(Box::new(move || {
                let _ = tx.send((shard_idx, shard_contributions(&registry, &shard)));
            }));
        }
        if let Some(first) = pending.first() {
            local = shard_contributions(self, first);
        }
        drop(result_tx);

        // Reassemble contributions in original index order: shards are
        // contiguous index ranges, so concatenating them by shard
        // position restores the serial pass's ordering exactly.
        let mut gathered: Vec<(usize, Vec<[u8; 32]>)> = result_rx.iter().collect();
        gathered.sort_unstable_by_key(|(shard_idx, _)| *shard_idx);
        let mut contributions: Vec<[u8; 32]> = local;
        for (_, mut shard) in gathered {
            contributions.append(&mut shard);
        }
        let map: Vec<usize> = pending.iter().flatten().map(|i| i.index).collect();
        debug_assert_eq!(contributions.len(), map.len());

        let mut acc = [0u8; 32];
        for contribution in &contributions {
            fold(&mut acc, contribution);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;

    fn signed(registry: &KeyRegistry, signer: u64, message: &[u8]) -> Signature {
        registry.key_pair(signer).unwrap().sign(message)
    }

    #[test]
    fn pooled_accepts_a_large_valid_batch() {
        let reg = KeyRegistry::deterministic(61);
        let msgs: Vec<Vec<u8>> = (0..61u64)
            .map(|i| format!("msg-{i}").into_bytes())
            .collect();
        let sigs: Vec<Signature> = (0..61u64)
            .map(|i| signed(&reg, i, &msgs[i as usize]))
            .collect();
        let items: Vec<BatchItem> = (0..61usize)
            .map(|i| BatchItem::new(i as u64, &msgs[i], &sigs[i]))
            .collect();
        assert_eq!(reg.verify_batch_pooled(&items), Ok(()));
    }

    #[test]
    fn pooled_matches_serial_on_forgeries() {
        let reg = KeyRegistry::deterministic(41);
        let msg = b"round-9";
        let mut sigs: Vec<Signature> = (0..41u64).map(|i| signed(&reg, i, msg)).collect();
        for &victim in &[0usize, 17, 23, 40] {
            let mut tag = *sigs[victim].tag();
            tag[victim % SIGNATURE_LEN] ^= 0x80;
            sigs[victim] = Signature::from_tag(victim as u64, tag);
        }
        let items: Vec<BatchItem> = sigs
            .iter()
            .enumerate()
            .map(|(i, sig)| BatchItem::new(i as u64, msg, sig))
            .collect();
        assert_eq!(reg.verify_batch_pooled(&items), reg.verify_batch(&items));
        assert_eq!(reg.verify_batch_pooled(&items), Err(vec![0, 17, 23, 40]));
    }

    #[test]
    fn pooled_matches_serial_with_malformed_claims_interleaved() {
        let reg = KeyRegistry::deterministic(32);
        let msg = b"mixed";
        let sigs: Vec<Signature> = (0..32u64).map(|i| signed(&reg, i, msg)).collect();
        let ghost =
            crate::keys::KeyPair::new(99, crate::keys::SecretKey::deterministic(99)).sign(msg);
        let mut items: Vec<BatchItem> = sigs
            .iter()
            .enumerate()
            .map(|(i, sig)| BatchItem::new(i as u64, msg, sig))
            .collect();
        items[5] = BatchItem::new(6, msg, &sigs[5]); // signer mismatch
        items[20] = BatchItem::new(99, msg, &ghost); // unregistered signer
        assert_eq!(reg.verify_batch_pooled(&items), reg.verify_batch(&items));
    }

    #[test]
    fn small_batches_stay_serial() {
        let reg = KeyRegistry::deterministic(4);
        let msg = b"small";
        let sigs: Vec<Signature> = (0..4u64).map(|i| signed(&reg, i, msg)).collect();
        let items: Vec<BatchItem> = sigs
            .iter()
            .enumerate()
            .map(|(i, sig)| BatchItem::new(i as u64, msg, sig))
            .collect();
        assert_eq!(reg.verify_batch_pooled(&items), Ok(()));
        // Below threshold nothing forced the pool into existence from
        // this call; either way the worker bound holds.
        assert!(pool_workers() >= 1 && pool_workers() <= MAX_WORKERS);
    }

    #[test]
    fn pooled_equals_serial_across_random_corruption_patterns() {
        let reg = KeyRegistry::deterministic(31);
        let msg = b"equivalence";
        let mut rng = crate::rng::SplitMix64::new(0xC0FFEE);
        for _ in 0..8 {
            let mut sigs: Vec<Signature> = (0..31u64).map(|i| signed(&reg, i, msg)).collect();
            for victim in 0..31usize {
                if crate::rng::RngCore::next_u64(&mut rng).is_multiple_of(4) {
                    let mut tag = *sigs[victim].tag();
                    tag[victim % SIGNATURE_LEN] ^= 0x01;
                    sigs[victim] = Signature::from_tag(victim as u64, tag);
                }
            }
            let items: Vec<BatchItem> = sigs
                .iter()
                .enumerate()
                .map(|(i, sig)| BatchItem::new(i as u64, msg, sig))
                .collect();
            assert_eq!(reg.verify_batch_pooled(&items), reg.verify_batch(&items));
        }
    }
}
