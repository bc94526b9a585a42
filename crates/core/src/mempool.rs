//! The deterministic [`Mempool`] leaders drain into block payloads.
//!
//! The paper's workload model (§4) assumes "sufficiently many transactions
//! are generated and submitted by the clients so that any leader always has
//! enough"; this module supplies the replica-side half of that: a FIFO pool
//! of deduplicated client transactions, batch draining
//! under the [`BatchConfig`] caps, and lazy removal of transactions
//! observed in other leaders' blocks (so successive leaders do not
//! re-propose what the chain already carries). Everything is deterministic
//! — iteration order is submission order — so two replicas fed the same
//! client stream drain byte-identical batches.
//!
//! ## The dedup contract
//!
//! Two identities, one per stage of a transaction's life:
//!
//! - **Before commit** a transaction is its id — the hash over client,
//!   sequence number *and payload*. The pool remembers the ids it holds,
//!   the ids it drained, and the ids carried by stored blocks that may
//!   still commit (each with the block's round). An id leaves when its
//!   transaction commits, when every block carrying it can no longer
//!   commit ([`Mempool::release_dead`]), or when the retention horizon
//!   passes its block. Transactions are unsigned, so anything weaker
//!   would let one leader's never-committed proposal of forged
//!   `(client, seq)` numbers shadow the client's real requests.
//! - **Once committed** a transaction is its `(client, seq)` pair. Per
//!   client the pool keeps one watermark (every sequence number below it
//!   is on the committed chain) plus the sparse set of committed numbers
//!   above it, so a client that numbers its requests contiguously costs
//!   O(1) memory however many it commits. Gaps are tolerated up to
//!   [`DEDUP_WINDOW`] out-of-order numbers per client; past that the
//!   oldest gap is closed, and the numbers skipped in it answer
//!   [`Admission::Duplicate`] from then on.
//!
//! The [`PayloadSource`] enum is the small strategy knob the replicas
//! thread through their propose paths: drain real batches from the mempool,
//! or describe a synthetic batch (the latency experiments' mode, where only
//! the payload *size* matters).

use std::collections::{BTreeSet, HashMap, VecDeque};

use sft_crypto::{HashValue, IdMap};
use sft_types::{BatchConfig, Payload, Round, Transaction};

/// Most sequence numbers remembered *above* one client's contiguous
/// watermark before the oldest gap below them is closed.
pub const DEDUP_WINDOW: usize = 1024;

/// The sequence numbers of one client on the committed chain.
#[derive(Clone, Debug, Default)]
struct SeenSeqs {
    /// Every sequence number below this is committed.
    watermark: u64,
    /// Committed numbers at or above the watermark.
    above: BTreeSet<u64>,
}

impl SeenSeqs {
    fn contains(&self, seq: u64) -> bool {
        seq < self.watermark || self.above.contains(&seq)
    }

    fn insert(&mut self, seq: u64) {
        if seq < self.watermark || !self.above.insert(seq) {
            return;
        }
        if self.above.len() > DEDUP_WINDOW {
            // Close the oldest gap: whatever it skipped is forfeited.
            self.watermark = *self.above.first().expect("non-empty");
        }
        // `u64::MAX` has no successor to move the watermark to: it stays
        // in `above`.
        while let Some(next) = self.watermark.checked_add(1) {
            if !self.above.remove(&self.watermark) {
                break;
            }
            self.watermark = next;
        }
    }
}

/// Where a proposing replica gets its block payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadSource {
    /// Describe a `txn_count × txn_bytes` batch without materializing it
    /// (the latency experiments' workload; tagged by round so blocks stay
    /// distinct).
    Synthetic {
        /// Transactions per described batch.
        txn_count: u32,
        /// Bytes per described transaction.
        txn_bytes: u32,
    },
    /// Drain the replica's [`Mempool`] into real
    /// [`Payload::Transactions`] batches under these caps.
    Mempool(BatchConfig),
}

impl PayloadSource {
    /// The payload for a block proposed in `round`, draining `pool` in the
    /// mempool mode. An empty pool yields an empty payload — leaders keep
    /// proposing (empty blocks keep rounds and commit pipelines ticking).
    pub fn next_payload(&self, pool: &mut Mempool, round: Round) -> Payload {
        match self {
            PayloadSource::Synthetic {
                txn_count,
                txn_bytes,
            } => Payload::synthetic(*txn_count, *txn_bytes, round.as_u64()),
            PayloadSource::Mempool(batch) => pool.next_payload(*batch),
        }
    }
}

/// The verdict of one admission attempt (see [`Mempool::try_submit`]).
///
/// Every outcome is explicit so it can flow back to the submitting client
/// as a [`sft_types::ClientAck`]: `Busy` is the backpressure signal of a
/// pool at capacity, `Duplicate` the dedup signal of a transaction the
/// replica already holds (or already saw on chain).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted into the pool; the transaction will ride a future batch.
    Admitted,
    /// The transaction was already submitted, drained, or observed in a
    /// block, or its `(client, seq)` is on the committed chain.
    Duplicate,
    /// The pool is at its count or byte cap — retry after commits drain it.
    Busy,
}

/// A deterministic FIFO transaction pool with deduplication and explicit
/// admission control.
///
/// # Examples
///
/// ```
/// use sft_core::{Admission, Mempool};
/// use sft_types::{BatchConfig, Transaction};
///
/// let mut pool = Mempool::new();
/// for seq in 0..10 {
///     assert!(pool.submit(Transaction::new(1, seq, vec![0; 16])));
/// }
/// assert_eq!(pool.len(), 10);
/// let payload = pool.next_payload(BatchConfig::with_max_txns(4));
/// assert_eq!(payload.txn_count(), 4);
/// assert_eq!(pool.len(), 6);
/// // Drained transactions are never re-admitted.
/// assert_eq!(
///     pool.try_submit(Transaction::new(1, 0, vec![0; 16])),
///     Admission::Duplicate
/// );
///
/// // A capped pool pushes back instead of growing without bound.
/// let mut small = Mempool::with_caps(1, u64::MAX);
/// assert!(small.submit(Transaction::new(2, 0, vec![])));
/// assert_eq!(
///     small.try_submit(Transaction::new(2, 1, vec![])),
///     Admission::Busy
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Mempool {
    /// Submission-ordered queue. May contain transactions already removed
    /// via [`mark_included`](Self::mark_included); those are skipped lazily
    /// on drain, so removal is O(1) per transaction.
    queue: VecDeque<Transaction>,
    /// Transactions queued and not yet drained or marked included, by id,
    /// with their encoded size.
    pending: IdMap<u64>,
    /// Transactions drained here or carried by a stored block, by id, with
    /// that block's round — `None` for a batch drained here whose block has
    /// not been stored yet. Only what is in flight: an id leaves when its
    /// transaction commits or its block can no longer commit.
    in_flight: IdMap<Option<Round>>,
    /// Per client, the sequence numbers on the committed chain — the part
    /// of the dedup state that lives forever, independent of how many
    /// transactions that is.
    committed: HashMap<u64, SeenSeqs>,
    /// Encoded bytes of pending transactions (tracks `pending`, not the
    /// lazily trimmed `queue`).
    pending_bytes: u64,
    /// Admission cap on pending transaction count.
    max_pending: usize,
    /// Admission cap on pending encoded bytes.
    max_pending_bytes: u64,
}

impl Default for Mempool {
    fn default() -> Self {
        Self {
            queue: VecDeque::new(),
            pending: IdMap::default(),
            in_flight: IdMap::default(),
            committed: HashMap::new(),
            pending_bytes: 0,
            max_pending: usize::MAX,
            max_pending_bytes: u64::MAX,
        }
    }
}

impl Mempool {
    /// Creates an empty, uncapped pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty pool that admits at most `max_pending` transactions
    /// / `max_pending_bytes` encoded bytes at a time, answering `Busy`
    /// beyond either cap until drains make room.
    pub fn with_caps(max_pending: usize, max_pending_bytes: u64) -> Self {
        Self {
            max_pending,
            max_pending_bytes,
            ..Self::default()
        }
    }

    /// Replaces the admission caps on a live pool (contents are kept; the
    /// new caps bite on the next submission).
    pub fn set_caps(&mut self, max_pending: usize, max_pending_bytes: u64) {
        self.max_pending = max_pending;
        self.max_pending_bytes = max_pending_bytes;
    }

    /// Number of transactions available for the next batches.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if no transactions are available.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Encoded bytes currently pending (the byte-cap accounting).
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes
    }

    /// Entries the dedup state holds: per client one watermark plus the
    /// out-of-order committed numbers above it, and one per transaction in
    /// flight — the resident-state gauge that must not grow with the
    /// number of committed transactions.
    pub fn dedup_entries(&self) -> usize {
        let committed: usize = self.committed.values().map(|c| 1 + c.above.len()).sum();
        committed + self.in_flight.len()
    }

    fn is_committed(&self, txn: &Transaction) -> bool {
        self.committed
            .get(&txn.client())
            .is_some_and(|seqs| seqs.contains(txn.seq()))
    }

    /// Attempts to admit `txn`, reporting the explicit [`Admission`]
    /// verdict: `Duplicate` for a transaction already pending, drained, or
    /// observed in a block, or whose `(client, seq)` is committed; `Busy`
    /// when a cap is hit (the backpressure a client gateway surfaces to the
    /// socket); `Admitted` otherwise.
    pub fn try_submit(&mut self, txn: Transaction) -> Admission {
        if self.is_committed(&txn) {
            return Admission::Duplicate;
        }
        let id = txn.id();
        if self.pending.contains_key(&id) || self.in_flight.contains_key(&id) {
            return Admission::Duplicate;
        }
        let txn_bytes = sft_types::Encode::encoded_len(&txn) as u64;
        if self.pending.len() >= self.max_pending
            || self.pending_bytes.saturating_add(txn_bytes) > self.max_pending_bytes
        {
            return Admission::Busy;
        }
        self.enqueue(id, txn_bytes, txn);
        Admission::Admitted
    }

    fn enqueue(&mut self, id: HashValue, txn_bytes: u64, txn: Transaction) {
        self.pending.insert(id, txn_bytes);
        self.pending_bytes += txn_bytes;
        self.queue.push_back(txn);
    }

    /// Accepts `txn` unless rejected ([`try_submit`](Self::try_submit) for
    /// the reason). Returns whether the transaction was admitted.
    pub fn submit(&mut self, txn: Transaction) -> bool {
        self.try_submit(txn) == Admission::Admitted
    }

    fn unqueue(&mut self, id: &HashValue) {
        if let Some(bytes) = self.pending.remove(id) {
            self.pending_bytes = self.pending_bytes.saturating_sub(bytes);
        }
    }

    /// Removes `txns` from the pool without draining them — called when a
    /// *stored* block of round `round` carries them, so this replica's next
    /// leadership slot does not re-propose transactions the chain may
    /// already hold. Transactions never submitted are still remembered
    /// (late client submissions of included transactions are rejected)
    /// until the block commits, can no longer commit, or
    /// [`prune_below`](Self::prune_below) passes `round`. The block
    /// may never commit, so identity here is the full transaction id:
    /// a forged `(client, seq)` with another payload shadows nothing.
    /// A transaction whose `(client, seq)` is committed already is not
    /// remembered: the watermark answers for it.
    pub fn mark_included<'a>(
        &mut self,
        txns: impl IntoIterator<Item = &'a Transaction>,
        round: Round,
    ) {
        for txn in txns {
            let id = txn.id();
            self.unqueue(&id);
            if !self.is_committed(txn) {
                self.in_flight.insert(id, Some(round));
            }
        }
    }

    /// Records `txns` as carried by the committed chain: from here on their
    /// `(client, seq)` pairs answer [`Admission::Duplicate`] whatever the
    /// payload, in O(clients) memory, and their ids leave the in-flight
    /// set.
    pub fn mark_committed<'a>(&mut self, txns: impl IntoIterator<Item = &'a Transaction>) {
        for txn in txns {
            self.committed
                .entry(txn.client())
                .or_default()
                .insert(txn.seq());
            self.in_flight.remove(&txn.id());
        }
    }

    /// Forgets the in-flight ids of `txns`, which a stored block that can
    /// no longer commit carries (and no stored block that still can), and
    /// queues again those `owed` names: the ones a client still waits for.
    /// The others may be submitted again. An id drained here whose block
    /// is not stored yet stays. What is queued again was admitted once, so
    /// the admission caps do not apply to it.
    pub fn release_dead<'a>(
        &mut self,
        txns: impl IntoIterator<Item = &'a Transaction>,
        owed: impl Fn(HashValue) -> bool,
    ) {
        for txn in txns {
            let id = txn.id();
            if !matches!(self.in_flight.get(&id), Some(Some(_))) {
                continue;
            }
            self.in_flight.remove(&id);
            if owed(id) {
                let txn_bytes = sft_types::Encode::encoded_len(txn) as u64;
                self.enqueue(id, txn_bytes, txn.clone());
            }
        }
    }

    /// Forgets the in-flight transactions of blocks below `floor`: those
    /// blocks never will commit.
    pub fn prune_below(&mut self, floor: Round) {
        self.in_flight
            .retain(|_, round| round.is_none_or(|round| round >= floor));
    }

    /// Drains the next batch under the [`BatchConfig`] caps: submission
    /// order, at most `max_txns` transactions, stopping before a
    /// transaction would push the encoded payload past `max_bytes` (the
    /// first transaction always fits, so progress is guaranteed).
    pub fn next_batch(&mut self, batch: BatchConfig) -> Vec<Transaction> {
        let mut drained = Vec::new();
        let mut bytes: u64 = 0;
        while drained.len() < batch.max_txns as usize {
            let Some(txn) = self.queue.front() else {
                break;
            };
            // Lazily drop entries removed by `mark_included`, and those
            // whose `(client, seq)` committed under another payload.
            let id = txn.id();
            let Some(&txn_bytes) = self.pending.get(&id) else {
                self.queue.pop_front();
                continue;
            };
            if self.is_committed(txn) {
                self.unqueue(&id);
                self.queue.pop_front();
                continue;
            }
            if !drained.is_empty() && bytes + txn_bytes > batch.max_bytes {
                break;
            }
            bytes += txn_bytes;
            let txn = self.queue.pop_front().expect("front checked");
            self.unqueue(&id);
            self.in_flight.insert(id, None);
            drained.push(txn);
        }
        drained
    }

    /// Drains the next batch into a [`Payload::Transactions`].
    pub fn next_payload(&mut self, batch: BatchConfig) -> Payload {
        Payload::Transactions(self.next_batch(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(seq: u64, bytes: usize) -> Transaction {
        Transaction::new(7, seq, vec![0xab; bytes])
    }

    #[test]
    fn fifo_order_and_dedup() {
        let mut pool = Mempool::new();
        for seq in 0..5 {
            assert!(pool.submit(txn(seq, 8)));
            assert!(!pool.submit(txn(seq, 8)), "duplicate rejected");
        }
        let batch = pool.next_batch(BatchConfig::with_max_txns(3));
        let seqs: Vec<u64> = batch.iter().map(Transaction::seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "submission order preserved");
        assert_eq!(pool.len(), 2);
        assert!(!pool.submit(txn(1, 8)), "drained ids never re-admitted");
    }

    #[test]
    fn byte_cap_limits_batches_but_first_txn_always_fits() {
        let mut pool = Mempool::new();
        for seq in 0..4 {
            pool.submit(txn(seq, 100));
        }
        let cap = BatchConfig {
            max_txns: 10,
            max_bytes: 150,
        };
        // Each txn encodes to 124 B: one fits, two exceed the cap.
        let batch = pool.next_batch(cap);
        assert_eq!(batch.len(), 1, "byte cap bites after the first");
        let batch = pool.next_batch(cap);
        assert_eq!(batch.len(), 1, "oversized head still drains alone");
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn mark_included_removes_lazily_and_blocks_resubmission() {
        let mut pool = Mempool::new();
        for seq in 0..4 {
            pool.submit(txn(seq, 8));
        }
        let in_block = [txn(0, 8), txn(2, 8)];
        pool.mark_included(in_block.iter(), Round::new(1));
        assert_eq!(pool.len(), 2);
        let batch = pool.next_batch(BatchConfig::with_max_txns(10));
        let seqs: Vec<u64> = batch.iter().map(Transaction::seq).collect();
        assert_eq!(seqs, vec![1, 3], "included txns skipped");
        assert!(!pool.submit(txn(0, 8)), "included ids stay rejected");
        // Marking an id never submitted still blocks later submission.
        pool.mark_included([txn(9, 8)].iter(), Round::new(1));
        assert!(!pool.submit(txn(9, 8)));
    }

    #[test]
    fn count_cap_answers_busy_until_a_drain_makes_room() {
        let mut pool = Mempool::with_caps(2, u64::MAX);
        assert_eq!(pool.try_submit(txn(0, 8)), Admission::Admitted);
        assert_eq!(pool.try_submit(txn(1, 8)), Admission::Admitted);
        assert_eq!(pool.try_submit(txn(2, 8)), Admission::Busy);
        // A duplicate of a pending txn reports Duplicate, not Busy.
        assert_eq!(pool.try_submit(txn(0, 8)), Admission::Duplicate);
        // Draining recovers admission capacity.
        pool.next_batch(BatchConfig::with_max_txns(1));
        assert_eq!(pool.try_submit(txn(2, 8)), Admission::Admitted);
    }

    #[test]
    fn byte_cap_answers_busy_and_accounting_tracks_drains() {
        // Each 100-byte-payload txn encodes to 124 B.
        let mut pool = Mempool::with_caps(usize::MAX, 250);
        assert_eq!(pool.try_submit(txn(0, 100)), Admission::Admitted);
        assert_eq!(pool.try_submit(txn(1, 100)), Admission::Admitted);
        assert_eq!(pool.pending_bytes(), 248);
        assert_eq!(pool.try_submit(txn(2, 100)), Admission::Busy);
        pool.next_batch(BatchConfig::with_max_txns(1));
        assert_eq!(pool.pending_bytes(), 124);
        assert_eq!(pool.try_submit(txn(2, 100)), Admission::Admitted);
    }

    #[test]
    fn mark_included_releases_byte_accounting() {
        let mut pool = Mempool::with_caps(usize::MAX, 130);
        assert_eq!(pool.try_submit(txn(0, 100)), Admission::Admitted);
        assert_eq!(pool.try_submit(txn(1, 100)), Admission::Busy);
        pool.mark_included([txn(0, 100)].iter(), Round::new(1));
        assert_eq!(pool.pending_bytes(), 0);
        assert_eq!(pool.try_submit(txn(1, 100)), Admission::Admitted);
        // Marking an id that was never pending does not underflow.
        pool.mark_included([txn(9, 100)].iter(), Round::new(1));
        assert_eq!(pool.pending_bytes(), 124);
    }

    /// Drains everything pending as one block of `round` and commits it.
    fn commit_all(pool: &mut Mempool, round: u64) {
        let block = pool.next_batch(BatchConfig::with_max_txns(u32::MAX));
        pool.mark_included(block.iter(), Round::new(round));
        pool.mark_committed(block.iter());
    }

    #[test]
    fn dedup_state_does_not_grow_with_committed_transactions() {
        let mut pool = Mempool::new();
        for seq in 0..10_000 {
            assert!(pool.submit(txn(seq, 8)));
            if seq % 100 == 99 {
                let round = seq / 100 + 1;
                commit_all(&mut pool, round);
                pool.prune_below(Round::new(round.saturating_sub(4)));
            }
        }
        assert_eq!(
            pool.dedup_entries(),
            1,
            "one watermark for one client: committed ids are not in flight"
        );
        assert!(!pool.submit(txn(0, 8)), "old numbers stay rejected");
        assert!(!pool.submit(txn(9_999, 8)));
        assert!(pool.submit(txn(10_000, 8)));
    }

    #[test]
    fn a_committed_transaction_is_a_duplicate_whatever_its_payload() {
        let mut pool = Mempool::new();
        assert!(pool.submit(txn(0, 8)));
        commit_all(&mut pool, 1);
        assert_eq!(pool.dedup_entries(), 1, "its id left with the commit");
        assert_eq!(pool.try_submit(txn(0, 8)), Admission::Duplicate);
        assert_eq!(pool.try_submit(txn(0, 99)), Admission::Duplicate);
        // A later block carrying it again does not bring its id back.
        pool.mark_included([txn(0, 8)].iter(), Round::new(2));
        assert_eq!(pool.dedup_entries(), 1);
        assert_eq!(pool.try_submit(txn(0, 8)), Admission::Duplicate);
    }

    #[test]
    fn a_dead_blocks_transactions_leave_and_the_owed_ones_queue_again() {
        let mut pool = Mempool::with_caps(1, u64::MAX);
        assert!(pool.submit(txn(0, 8)));
        let drained = pool.next_batch(BatchConfig::with_max_txns(8));
        // The block is stored, carrying one more this pool never held.
        let forged = txn(1, 8);
        pool.mark_included(drained.iter().chain([&forged]), Round::new(3));
        // A batch whose block is not stored yet, and a full pool.
        assert!(pool.submit(txn(2, 8)));
        let unstored = pool.next_batch(BatchConfig::with_max_txns(8));
        assert!(pool.submit(txn(3, 8)));
        assert_eq!(pool.dedup_entries(), 3);

        let owed = [txn(0, 8).id(), txn(2, 8).id()];
        let carried = drained.iter().chain([&forged]).chain(&unstored);
        pool.release_dead(carried, |id| owed.contains(&id));
        assert_eq!(pool.dedup_entries(), 1, "only the unstored batch");
        assert_eq!(pool.len(), 2, "the owed one is pending again, past the cap");
        assert_eq!(pool.try_submit(txn(0, 8)), Admission::Duplicate);
        assert_eq!(pool.try_submit(forged.clone()), Admission::Busy);
        pool.release_dead(drained.iter(), |_| true);
        assert_eq!(pool.len(), 2, "queued again once");
        let batch = pool.next_batch(BatchConfig::with_max_txns(8));
        let seqs: Vec<u64> = batch.iter().map(Transaction::seq).collect();
        assert_eq!(seqs, vec![3, 0]);
        assert_eq!(pool.try_submit(forged), Admission::Admitted);
    }

    #[test]
    fn committed_dedup_ignores_the_payload_and_tolerates_out_of_order_numbers() {
        let mut pool = Mempool::new();
        // Committed out of order: 2 before 0 and 1.
        pool.mark_committed([txn(2, 8)].iter());
        assert_eq!(pool.dedup_entries(), 2, "watermark 0 plus the stray 2");
        assert!(!pool.submit(txn(2, 99)), "same (client, seq), new payload");
        assert!(pool.submit(txn(0, 8)));
        assert!(pool.submit(txn(1, 8)));
        commit_all(&mut pool, 1);
        pool.prune_below(Round::new(2));
        assert_eq!(pool.dedup_entries(), 1, "the gap closed: watermark 3");
        // Another client's numbering is independent.
        assert!(pool.submit(Transaction::new(8, 2, vec![])));
    }

    #[test]
    fn a_gap_older_than_the_window_is_forfeited() {
        let mut pool = Mempool::new();
        // Sequence number 0 is skipped for good.
        let later: Vec<Transaction> = (1..=DEDUP_WINDOW as u64 + 1).map(|s| txn(s, 0)).collect();
        pool.mark_committed(later.iter());
        assert_eq!(pool.dedup_entries(), 1, "window overflowed and collapsed");
        assert!(!pool.submit(txn(0, 0)), "the skipped number is forfeited");
        assert!(pool.submit(txn(DEDUP_WINDOW as u64 + 2, 0)));
    }

    #[test]
    fn the_last_sequence_number_commits_without_overflow() {
        let mut pool = Mempool::new();
        let top: Vec<Transaction> = (u64::MAX - 2..=u64::MAX).map(|s| txn(s, 0)).collect();
        pool.mark_committed(top.iter());
        // Close the gap below them so the contiguous run reaches the top.
        let fill: Vec<Transaction> = (u64::MAX - 2 - DEDUP_WINDOW as u64..u64::MAX - 2)
            .map(|s| txn(s, 0))
            .collect();
        pool.mark_committed(fill.iter());
        for t in &top {
            assert!(!pool.submit(t.clone()), "seq {} is committed", t.seq());
        }
        assert!(!pool.submit(txn(5, 0)), "below the watermark");
        assert_eq!(
            pool.dedup_entries(),
            2,
            "watermark u64::MAX plus u64::MAX itself"
        );
    }

    #[test]
    fn a_forged_uncommitted_inclusion_shadows_nothing() {
        let mut pool = Mempool::new();
        assert!(pool.submit(txn(0, 8)));
        // A stored, never-committed block carries forged transactions under
        // this client's sequence numbers (other payloads).
        let forged: Vec<Transaction> = (0..2_000).map(|s| txn(s, 9)).collect();
        pool.mark_included(forged.iter(), Round::new(3));
        assert_eq!(pool.len(), 1, "the genuine pending request stays queued");
        assert!(
            pool.submit(txn(1, 8)),
            "later genuine requests are admitted"
        );
        assert!(
            !pool.submit(forged[5].clone()),
            "the forged one itself is known"
        );
        // Once the horizon passes the block, even that memory goes.
        pool.prune_below(Round::new(4));
        assert_eq!(pool.dedup_entries(), 0);
        assert_eq!(pool.next_batch(BatchConfig::with_max_txns(8)).len(), 2);
    }

    #[test]
    fn a_pending_number_committed_under_another_payload_is_not_proposed() {
        let mut pool = Mempool::new();
        assert!(pool.submit(txn(0, 8)));
        assert!(pool.submit(txn(1, 8)));
        pool.mark_committed([txn(0, 99)].iter());
        let batch = pool.next_batch(BatchConfig::with_max_txns(8));
        let seqs: Vec<u64> = batch.iter().map(Transaction::seq).collect();
        assert_eq!(seqs, vec![1]);
        assert!(pool.is_empty());
        assert_eq!(pool.pending_bytes(), 0);
    }

    #[test]
    fn empty_pool_yields_empty_payload() {
        let mut pool = Mempool::new();
        let payload = pool.next_payload(BatchConfig::default());
        assert!(payload.is_empty());
    }

    #[test]
    fn payload_sources_produce_the_expected_shapes() {
        let mut pool = Mempool::new();
        pool.submit(txn(0, 8));
        let synth = PayloadSource::Synthetic {
            txn_count: 100,
            txn_bytes: 64,
        };
        let p = synth.next_payload(&mut pool, Round::new(3));
        assert_eq!(p, Payload::synthetic(100, 64, 3));
        assert_eq!(pool.len(), 1, "synthetic mode leaves the pool alone");

        let drained =
            PayloadSource::Mempool(BatchConfig::default()).next_payload(&mut pool, Round::new(3));
        assert_eq!(drained.txn_count(), 1);
        assert!(pool.is_empty());
    }
}
