//! The [`AckTracker`]: strength-graded client acknowledgements.
//!
//! The paper grades every commit with a strength level `x` (Definition 1)
//! that keeps rising as endorsements accumulate; this module turns that
//! grade into the client-facing durability SLA of the submission API. A
//! tracker remembers which transaction ids owe an ack and at what strength
//! (`ack_at`), watches the engine's [`StrongCommitUpdate`] stream, and
//! emits [`ClientAck::Committed`] entries the moment the containing
//! block's level reaches the requested threshold — `ack_at: 0` fires at
//! the standard commit (already level `f`), `ack_at: x` waits for the
//! `x`-strong upgrade of §3.
//!
//! The tracker is engine-embedded and pays nothing when no client is
//! connected: `observe` returns immediately while no acks are pending,
//! so driver runs without client traffic keep their exact hot path.

use std::collections::{HashMap, HashSet};

use sft_crypto::HashValue;
use sft_obs::{names, RecorderCell, SharedRecorder};
use sft_types::{ClientAck, Payload, SimTime, StrongCommitUpdate};

use crate::BlockStore;

/// One registered submission awaiting its commit.
#[derive(Clone, Copy, Debug)]
struct PendingAck {
    ack_at: u64,
    submitted_at: SimTime,
}

/// Watches the commit-update stream and emits strength-graded client acks.
///
/// # Examples
///
/// ```
/// use sft_core::AckTracker;
/// use sft_crypto::HashValue;
/// use sft_types::SimTime;
///
/// let mut acks = AckTracker::new();
/// acks.register(HashValue::of(b"txn"), 2, SimTime::ZERO);
/// assert_eq!(acks.pending(), 1);
/// assert!(acks.drain().is_empty(), "nothing committed yet");
/// ```
#[derive(Debug, Default)]
pub struct AckTracker {
    /// Admitted submissions not yet located in a committed block.
    pending: HashMap<HashValue, PendingAck>,
    /// Submissions located in a committed block, awaiting its strength
    /// upgrade to their `ack_at` threshold. Keyed by block id.
    watch: HashMap<HashValue, Vec<(HashValue, PendingAck)>>,
    /// Blocks whose payload was already scanned against `pending`. Swept
    /// against the store whenever it outgrows it, so it never outlives the
    /// replica's retention horizon by more than a constant factor.
    scanned: HashSet<HashValue>,
    /// Emitted acks awaiting [`drain`](Self::drain).
    ready: Vec<ClientAck>,
    recorder: RecorderCell,
}

impl AckTracker {
    /// An empty tracker with the free no-op recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the recorder the client-plane counters flow into.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = RecorderCell::new(recorder);
    }

    /// Counts one admission verdict (`client_requests` / `client_rejected`).
    pub fn record_admission(&self, admitted: bool) {
        self.recorder.add(names::CLIENT_REQUESTS, 1);
        if !admitted {
            self.recorder.add(names::CLIENT_REJECTED, 1);
        }
    }

    /// Registers an admitted submission: `txn_id` owes a
    /// [`ClientAck::Committed`] once its block is `≥ ack_at`-strong.
    pub fn register(&mut self, txn_id: HashValue, ack_at: u64, now: SimTime) {
        self.pending.insert(
            txn_id,
            PendingAck {
                ack_at,
                submitted_at: now,
            },
        );
    }

    /// Submissions still awaiting their ack.
    pub fn pending(&self) -> usize {
        self.pending.len() + self.watch.values().map(Vec::len).sum::<usize>()
    }

    /// Absorbs one commit-log entry: locates pending submissions in the
    /// committed block (first sighting scans its payload), then emits acks
    /// for every watcher whose `ack_at` the new level satisfies. A no-op
    /// while nothing is pending.
    pub fn observe(&mut self, update: &StrongCommitUpdate, store: &BlockStore, now: SimTime) {
        if self.pending.is_empty() && self.watch.is_empty() {
            return;
        }
        let block_id = update.block_id();
        if !self.pending.is_empty() && self.scanned.insert(block_id) {
            if self.scanned.len() > 2 * store.len() {
                // Pruned blocks get no further strength upgrades, so the
                // acks still waiting on one can never fire either.
                self.scanned.retain(|id| store.contains(*id));
                self.watch.retain(|id, _| store.contains(*id));
            }
            if let Some(block) = store.get(block_id) {
                if let Payload::Transactions(txns) = block.payload() {
                    for txn in txns {
                        let id = txn.id();
                        if let Some(entry) = self.pending.remove(&id) {
                            self.watch.entry(block_id).or_default().push((id, entry));
                        }
                    }
                }
            }
        }
        let Some(mut watchers) = self.watch.remove(&block_id) else {
            return;
        };
        let level = update.level();
        watchers.retain(|(txn_id, entry)| {
            if entry.ack_at > level {
                return true;
            }
            self.ready.push(ClientAck::Committed {
                txn_id: *txn_id,
                round: update.round(),
                strength: level,
            });
            if self.recorder.enabled() {
                self.recorder.add(names::ACKS_SENT, 1);
                let lat = now
                    .as_micros()
                    .saturating_sub(entry.submitted_at.as_micros());
                self.recorder
                    .observe(names::ack_level_name(entry.ack_at), lat);
            }
            false
        });
        if !watchers.is_empty() {
            self.watch.insert(block_id, watchers);
        }
    }

    /// Takes every ack emitted since the last drain, in emission order.
    pub fn drain(&mut self) -> Vec<ClientAck> {
        std::mem::take(&mut self.ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockStore};
    use sft_obs::{Recorder, Registry};
    use sft_types::{Height, ReplicaId, Round, Transaction};
    use std::sync::Arc;

    fn store_with_block(txns: Vec<Transaction>) -> (BlockStore, HashValue) {
        let mut store = BlockStore::new();
        let block = Block::new(
            store.genesis(),
            Round::new(1),
            ReplicaId::new(0),
            Payload::Transactions(txns),
        );
        let id = block.id();
        store.insert(block).expect("block admits");
        (store, id)
    }

    fn update(block_id: HashValue, level: u64) -> StrongCommitUpdate {
        StrongCommitUpdate::new(block_id, Round::new(1), Height::new(1), level)
    }

    #[test]
    fn ack_waits_for_the_requested_strength() {
        let txn = Transaction::new(1, 0, vec![7; 8]);
        let txn_id = txn.id();
        let (store, block_id) = store_with_block(vec![txn]);

        let mut acks = AckTracker::new();
        acks.register(txn_id, 2, SimTime::ZERO);

        // Standard commit (level 1 = f) does not satisfy ack_at = 2.
        acks.observe(&update(block_id, 1), &store, SimTime::from_millis(4));
        assert!(acks.drain().is_empty());
        assert_eq!(acks.pending(), 1);

        // The 2-strong upgrade does.
        acks.observe(&update(block_id, 2), &store, SimTime::from_millis(6));
        let drained = acks.drain();
        assert_eq!(
            drained,
            vec![ClientAck::Committed {
                txn_id,
                round: Round::new(1),
                strength: 2,
            }]
        );
        assert_eq!(acks.pending(), 0);
    }

    #[test]
    fn ack_at_zero_fires_at_standard_commit() {
        let txn = Transaction::new(1, 0, vec![7; 8]);
        let txn_id = txn.id();
        let (store, block_id) = store_with_block(vec![txn]);

        let mut acks = AckTracker::new();
        acks.register(txn_id, 0, SimTime::ZERO);
        acks.observe(&update(block_id, 1), &store, SimTime::from_millis(4));
        let drained = acks.drain();
        assert_eq!(drained.len(), 1);
        assert!(matches!(
            drained[0],
            ClientAck::Committed { strength: 1, .. }
        ));
    }

    #[test]
    fn unrelated_blocks_and_absent_txns_emit_nothing() {
        let txn = Transaction::new(1, 0, vec![7; 8]);
        let (store, block_id) = store_with_block(vec![txn]);

        let mut acks = AckTracker::new();
        acks.register(HashValue::of(b"other"), 0, SimTime::ZERO);
        acks.observe(&update(block_id, 2), &store, SimTime::from_millis(4));
        assert!(acks.drain().is_empty());
        assert_eq!(acks.pending(), 1, "unmatched submission keeps waiting");
    }

    #[test]
    fn observe_records_latency_and_counters() {
        let txn = Transaction::new(1, 0, vec![7; 8]);
        let txn_id = txn.id();
        let (store, block_id) = store_with_block(vec![txn]);

        let mut acks = AckTracker::new();
        let reg = Arc::new(Registry::new());
        acks.set_recorder(reg.clone());
        acks.record_admission(true);
        acks.record_admission(false);
        acks.register(txn_id, 1, SimTime::from_millis(1));
        acks.observe(&update(block_id, 1), &store, SimTime::from_millis(5));

        let snap = reg.snapshot();
        assert_eq!(snap.counter(names::CLIENT_REQUESTS), Some(2));
        assert_eq!(snap.counter(names::CLIENT_REJECTED), Some(1));
        assert_eq!(snap.counter(names::ACKS_SENT), Some(1));
        let hist = snap.hist("ack_x1_us").expect("latency recorded");
        assert_eq!(hist.count, 1);
        assert_eq!(hist.max, 4_000);
    }
}
