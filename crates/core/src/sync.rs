//! Block sync / catch-up: the subprotocol that recovers
//! certified-but-unknown blocks.
//!
//! Under partial synchrony a replica can learn that a block *exists* — a
//! quorum certificate arrives inside a proposal, a timeout message or a
//! leader's bare broadcast, or (Streamlet, whose votes are broadcast) its
//! own vote tracker certifies a block it never received — without ever
//! holding the block. Without a fetch path such a
//! replica falls behind forever: it cannot extend, vote on, or finalize a
//! chain it cannot resolve. DiemBFT and production BFT systems (FeBFT's
//! `SyncManager` among them) treat state transfer as a first-class
//! subprotocol; this module is that subprotocol for both SFT replicas.
//!
//! ## Protocol
//!
//! 1. **Detect** — [`SyncManager::note_certificate`] records every
//!    well-formed QC; a certified block absent from the local store becomes
//!    a *missing target*. [`SyncManager::note_orphan_block`] pools verified
//!    blocks whose parents are unknown (an orphaned proposal, or a fetched
//!    segment that did not reach locally-known ground) and registers the
//!    missing parent as a chained target.
//! 2. **Request** — [`SyncManager::take_requests`] issues bounded
//!    [`BlockRequest`]s, deduplicating in-flight targets, rotating
//!    deterministically over the certificate's signers (they voted, so they
//!    held the block), and retrying on a timeout so lost requests or
//!    responses heal themselves.
//! 3. **Serve** — [`SyncManager::serve`] answers from the local store with
//!    a [`BlockResponse`]: the chain segment ending at the target plus the
//!    target's quorum certificate. A block the store spilled is decoded
//!    again from its bytes — read back from the replica's log, or the
//!    frame it arrived in — and served byte for byte as it was held; a
//!    read that fails or does not hash to the stored id declines the
//!    request, and the requester asks another peer.
//! 4. **Verify & admit** — [`SyncManager::on_response`] admits nothing
//!    that does not verify against the certificate chain: the segment must
//!    end at a target this replica asked for, carry a well-formed QC naming
//!    exactly that block, and hash-link internally. Block ids are
//!    recomputed on decode, so a Byzantine responder cannot substitute any
//!    segment other than the real ancestor chain of the certified block.
//!
//! ## Trust model
//!
//! This manager validates certificates *structurally* (signer count
//! against the quorum). A certificate that carries its members — every
//! SFT-DiemBFT one — is checked by the replica before the response
//! reaches this manager
//! ([`ChainKernel::admit_qc`](crate::ChainKernel::admit_qc): at least
//! `2f + 1` members whose signatures verify). Streamlet's bare
//! notarizations are trusted structurally, as every replica counts the
//! broadcast votes itself. Block *content* is unforgeable either way: the
//! hash chain pins it.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use sft_crypto::{HashValue, IdMap};
use sft_types::codec::{Decode, DecodeError, Encode, Reader};
use sft_types::{BlockRequest, ReplicaId, Round, SimDuration, SimTime};

use crate::{Block, BlockStore, ProtocolConfig, QuorumCertificate, Spilled, WalReader};

/// A responder's answer to a [`BlockRequest`]: a chain segment (oldest
/// first) ending at the requested block, plus the quorum certificate for
/// that block — the anchor the whole segment is verified against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockResponse {
    qc: QuorumCertificate,
    blocks: Vec<Block>,
}

impl BlockResponse {
    /// Assembles a response. The last block must be the one `qc`
    /// certifies for the response to ever be admitted.
    pub fn new(qc: QuorumCertificate, blocks: Vec<Block>) -> Self {
        Self { qc, blocks }
    }

    /// The certificate for the segment's last block.
    pub fn qc(&self) -> &QuorumCertificate {
        &self.qc
    }

    /// The chain segment, oldest block first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The certified block this response resolves.
    pub fn target(&self) -> HashValue {
        self.qc.block_id()
    }
}

impl Encode for BlockResponse {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.qc.encode(buf);
        self.blocks.encode(buf);
    }
}

impl Decode for BlockResponse {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Reader::copying(buf, Self::decode_from)
    }

    /// Decodes a response whose blocks hold ranges of the reader's shared
    /// buffer.
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            qc: reader.read()?,
            blocks: reader.read()?,
        })
    }
}

/// Tuning knobs for a [`SyncManager`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SyncConfig {
    /// Most blocks one request may ask for (and one response may carry).
    pub max_blocks_per_request: u32,
    /// Most distinct targets requested concurrently.
    pub max_inflight: usize,
    /// How long to wait for a response before re-requesting from the next
    /// peer — the knob that makes sync self-healing under message loss.
    pub retry_after: SimDuration,
}

impl Default for SyncConfig {
    fn default() -> Self {
        Self {
            max_blocks_per_request: 64,
            max_inflight: 4,
            retry_after: SimDuration::from_millis(800),
        }
    }
}

/// Counters a [`SyncManager`] keeps, reported per run by the simulator
/// and pinned in `RESULTS.md` for the partitioned n = 4 run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Requests issued (retries included).
    pub requests_sent: u64,
    /// Responses served to peers.
    pub responses_served: u64,
    /// Blocks admitted into the store via sync.
    pub blocks_admitted: u64,
    /// Responses rejected by verification.
    pub responses_rejected: u64,
    /// Fetch targets given up on after every attempt went unanswered —
    /// non-zero on a replica that fell further behind than its peers'
    /// retention horizon and now needs state transfer, not block sync.
    pub targets_abandoned: u64,
    /// Orphaned proposals released into the store because their parent
    /// arrived by the normal path ([`SyncManager::note_stored`]).
    pub orphans_adopted: u64,
    /// Blocks served to peers that were read back from the log, their
    /// bytes having been spilled there ([`Spilled::Log`]). Blocks decoded
    /// again from their held frame are not counted.
    pub blocks_served_from_log: u64,
    /// Requests declined because a spilled block's bytes — in the log or
    /// held — could not be read, came back short, did not decode, or did
    /// not hash to the stored id.
    pub spilled_reads_failed: u64,
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    sent_at: SimTime,
}

/// What a fetch target is missing: the block itself, or only its
/// certificate (the block is already held — a *certificate want*). A
/// certificate-want request is bounded to one block, so re-converging a
/// diverged notarized set never re-ships chain segments the requester
/// already has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FetchKind {
    Blocks,
    Certificate,
}

/// Upper bound on pooled orphan blocks; a Byzantine flood cannot grow the
/// pool past it because responses that would are rejected whole.
const MAX_ORPHANS: usize = 4096;

/// Requests per target before the target is abandoned. Certified targets
/// genuinely exist somewhere, so the cap is generous — it only exists so a
/// want for a certificate no peer holds cannot retry forever.
const MAX_FETCH_ATTEMPTS: u32 = 32;

/// Detects certified-but-unknown blocks, issues bounded fetches, verifies
/// responses against the certificate chain, and admits recovered blocks
/// parent-first. One per replica; protocol-agnostic (both the round-based
/// and the height-based replica embed one).
///
/// # Examples
///
/// ```
/// use sft_core::{Block, BlockStore, ProtocolConfig, QuorumCertificate, SyncManager};
/// use sft_types::{Payload, ReplicaId, Round, SignerSet, SimTime};
///
/// let cfg = ProtocolConfig::for_replicas(4);
/// // A full store (the responder) and an empty one (the catcher-upper).
/// let mut full = BlockStore::new();
/// let b1 = Block::new(full.genesis(), Round::new(1), ReplicaId::new(1), Payload::empty());
/// full.insert(b1.clone()).unwrap();
/// let qc = QuorumCertificate::new(
///     b1.vote_data(),
///     SignerSet::from_iter_with_capacity(4, (0..3).map(ReplicaId::new)),
/// );
///
/// let mut behind = BlockStore::new();
/// let mut sync = SyncManager::new(cfg, ReplicaId::new(0));
/// sync.note_certificate(&qc, &behind);
/// let requests = sync.take_requests(SimTime::ZERO);
/// assert_eq!(requests.len(), 1);
///
/// let mut server = SyncManager::new(cfg, ReplicaId::new(1));
/// server.note_certificate(&qc, &full);
/// let response = server.serve(&requests[0].1, &full, None).unwrap();
/// let admitted = sync.on_response(&response, &mut behind);
/// assert_eq!(admitted, vec![b1.id()]);
/// assert!(behind.contains(b1.id()));
/// ```
#[derive(Clone, Debug)]
pub struct SyncManager {
    config: ProtocolConfig,
    me: ReplicaId,
    sync_config: SyncConfig,
    /// Every well-formed certificate seen, by certified block id — the
    /// lookup that serves requests and re-runs commit processing after a
    /// block is admitted.
    certs: IdMap<QuorumCertificate>,
    /// Fetch targets: blocks known to exist but absent from the store
    /// (certified, or hash-chained below a certified block), plus blocks
    /// held locally whose *certificate* is wanted
    /// ([`note_want`](Self::note_want)), each with the target's round.
    /// Ordered so request issue order is deterministic.
    missing: BTreeMap<HashValue, (FetchKind, Round)>,
    inflight: IdMap<InFlight>,
    /// Requests issued per target, with the target's round; targets past
    /// the attempt cap are abandoned (a want for a certificate that never
    /// existed must not retry forever). An abandoned target keeps its
    /// entry — noting it again does not register it again — until it is
    /// admitted after all or the retention floor passes its round.
    attempts: IdMap<(u32, Round)>,
    /// Verified blocks waiting for their parents, by block id; the flag is
    /// set on blocks that arrived as verified proposals (the only orphans
    /// a replica may still vote for once they attach).
    orphans: IdMap<(Block, bool)>,
    /// Orphan ids waiting on each missing parent.
    waiting_on: IdMap<Vec<HashValue>>,
    peer_cursor: u64,
    /// Rounds below this are outside the retention horizon: certificates,
    /// wants, and orphans for them are dropped as stale.
    floor: Round,
    stats: SyncStats,
    /// Metrics sink for retry counts and response latencies; no-op by
    /// default ([`set_recorder`](Self::set_recorder) turns it live).
    recorder: sft_obs::RecorderCell,
}

impl SyncManager {
    /// Creates a manager for replica `me` of an `n`-replica system.
    pub fn new(config: ProtocolConfig, me: ReplicaId) -> Self {
        Self {
            config,
            me,
            sync_config: SyncConfig::default(),
            certs: IdMap::default(),
            missing: BTreeMap::new(),
            inflight: IdMap::default(),
            attempts: IdMap::default(),
            orphans: IdMap::default(),
            waiting_on: IdMap::default(),
            peer_cursor: 0,
            floor: Round::ZERO,
            stats: SyncStats::default(),
            recorder: sft_obs::RecorderCell::default(),
        }
    }

    /// Installs the recorder that request/response/retry timing flows
    /// into.
    pub fn set_recorder(&mut self, recorder: sft_obs::SharedRecorder) {
        self.recorder = sft_obs::RecorderCell::new(recorder);
    }

    /// Overrides the tuning knobs (bounds and retry pacing).
    pub fn with_sync_config(mut self, sync_config: SyncConfig) -> Self {
        self.sync_config = sync_config;
        self
    }

    /// Sets only the retry timeout (drivers derive it from their δ).
    pub fn set_retry_after(&mut self, retry_after: SimDuration) {
        self.sync_config.retry_after = retry_after;
    }

    /// Counters so far.
    pub fn stats(&self) -> SyncStats {
        self.stats
    }

    /// The certificate recorded for `block_id`, if any.
    pub fn certificate_for(&self, block_id: HashValue) -> Option<&QuorumCertificate> {
        self.certs.get(&block_id)
    }

    /// True while any target is missing, requested, or pooled — the signal
    /// drivers use to keep a run alive until catch-up settles.
    pub fn is_syncing(&self) -> bool {
        !self.missing.is_empty() || !self.inflight.is_empty() || !self.orphans.is_empty()
    }

    /// Records a well-formed certificate. If the certified block is not in
    /// `store`, it becomes a missing target to fetch.
    pub fn note_certificate(&mut self, qc: &QuorumCertificate, store: &BlockStore) {
        if qc.round() == Round::ZERO || qc.round() < self.floor || !qc.is_well_formed(&self.config)
        {
            return;
        }
        let id = qc.block_id();
        self.certs.entry(id).or_insert_with(|| qc.clone());
        if !store.contains(id) && !self.orphans.contains_key(&id) && !self.abandoned(id) {
            self.missing.insert(id, (FetchKind::Blocks, qc.round()));
        }
    }

    /// Registers a *certificate want*: this replica holds `id` but has
    /// never seen it certified, and a peer's proposal just treated it as
    /// certified (e.g. proposed on top of it). Under message loss a
    /// quorum's votes can land on some replicas and not others; fetching
    /// the certificate re-converges them. `round` is the block's round.
    /// No-op if the certificate is already known.
    pub fn note_want(&mut self, id: HashValue, round: Round) {
        if round >= self.floor
            && !self.certs.contains_key(&id)
            && !self.orphans.contains_key(&id)
            && !self.abandoned(id)
        {
            // Never downgrade a full-block fetch already underway.
            self.missing
                .entry(id)
                .or_insert((FetchKind::Certificate, round));
        }
    }

    /// Pools a verified block whose parent is unknown and registers the
    /// parent as a missing target. The caller vouches for the block's
    /// provenance (signature already checked) and says whether it arrived
    /// as a proposal (`from_proposal`) or inside a fetched segment;
    /// admission still goes through [`BlockStore::insert`]'s structural
    /// checks once the parent arrives.
    ///
    /// A block whose parent lies below the retention floor, or was given
    /// up on, is dropped: the parent is gone for good, so the block could
    /// never attach.
    pub fn note_orphan_block(&mut self, block: Block, from_proposal: bool, store: &BlockStore) {
        if self.orphans.len() >= MAX_ORPHANS
            || store.contains(block.id())
            || block.parent_round() < self.floor
            || self.abandoned(block.parent_id())
        {
            return;
        }
        let id = block.id();
        let parent = block.parent_id();
        let parent_round = block.parent_round();
        match self.orphans.entry(id) {
            // Pooled from a segment, now also seen as a proposal.
            Entry::Occupied(mut pooled) => pooled.get_mut().1 |= from_proposal,
            Entry::Vacant(slot) => {
                slot.insert((block, from_proposal));
                self.waiting_on.entry(parent).or_default().push(id);
            }
        }
        self.missing.remove(&id);
        if !store.contains(parent) {
            self.missing
                .insert(parent, (FetchKind::Blocks, parent_round));
        }
    }

    /// Tells the manager block `id` arrived through the normal protocol
    /// path (a proposal): clears the bookkeeping that would otherwise keep
    /// re-fetching it, and inserts every pooled orphan that was waiting on
    /// it, cascading. Returns the orphans now in `store`, parents first,
    /// each with whether it had arrived as a proposal — the caller owes
    /// each the processing a block arriving in order would have had.
    pub fn note_stored(&mut self, id: HashValue, store: &mut BlockStore) -> Vec<(HashValue, bool)> {
        self.note_admitted(id);
        if let Some((block, _)) = self.orphans.remove(&id) {
            self.unindex_waiting(block.parent_id(), id);
        }
        let released = self.flush_orphans(store, vec![id]);
        self.stats.orphans_adopted +=
            released.iter().filter(|(_, proposal)| *proposal).count() as u64;
        released
    }

    /// Drops everything keyed below `floor` — certificates, fetch targets,
    /// pooled orphans — and treats later arrivals for those rounds as
    /// stale. Requests for a dropped block go unanswered
    /// ([`serve`](Self::serve) needs its certificate).
    pub fn prune_below(&mut self, floor: Round) {
        self.floor = self.floor.max(floor);
        let floor = self.floor;
        self.certs.retain(|_, qc| qc.round() >= floor);
        let stale: Vec<HashValue> = self
            .missing
            .iter()
            .filter(|(_, (_, round))| *round < floor)
            .map(|(id, _)| *id)
            .collect();
        for id in stale {
            self.unwant(id);
        }
        self.attempts.retain(|_, (_, round)| *round >= floor);
        let stale: Vec<(HashValue, HashValue)> = self
            .orphans
            .values()
            .filter(|(block, _)| block.parent_round() < floor)
            .map(|(block, _)| (block.id(), block.parent_id()))
            .collect();
        for (id, parent) in stale {
            self.orphans.remove(&id);
            self.unindex_waiting(parent, id);
        }
    }

    /// Certificates currently held — the resident-state gauge.
    pub fn resident_certs(&self) -> usize {
        self.certs.len()
    }

    fn unindex_waiting(&mut self, parent: HashValue, id: HashValue) {
        if let Some(ids) = self.waiting_on.get_mut(&parent) {
            ids.retain(|x| *x != id);
            if ids.is_empty() {
                self.waiting_on.remove(&parent);
            }
        }
    }

    /// Issues the requests now due: new targets up to the in-flight cap,
    /// plus expired in-flight targets re-asked from the next peer. Returns
    /// `(peer, request)` pairs the caller must transport point-to-point.
    pub fn take_requests(&mut self, now: SimTime) -> Vec<(ReplicaId, BlockRequest)> {
        let retry = self.sync_config.retry_after;
        let live = |f: &InFlight| now < f.sent_at + retry;
        let mut budget = self
            .sync_config
            .max_inflight
            .saturating_sub(self.inflight.values().filter(|f| live(f)).count());
        let mut out = Vec::new();
        let targets: Vec<(HashValue, FetchKind, Round)> = self
            .missing
            .iter()
            .map(|(id, (kind, round))| (*id, *kind, *round))
            .collect();
        for (target, kind, round) in targets {
            if budget == 0 {
                break;
            }
            if self.inflight.get(&target).is_some_and(&live) {
                continue;
            }
            let (attempts, _) = self.attempts.entry(target).or_insert((0, round));
            if *attempts >= MAX_FETCH_ATTEMPTS {
                self.abandon(target);
                continue;
            }
            *attempts += 1;
            if *attempts >= 2 {
                self.recorder.add(sft_obs::names::SYNC_RETRIES, 1);
            }
            let peer = self.pick_peer(target);
            self.inflight.insert(target, InFlight { sent_at: now });
            self.stats.requests_sent += 1;
            // A certificate-want already holds the block: one block (the
            // QC anchor rides it) is all the response needs to carry.
            let max_blocks = match kind {
                FetchKind::Blocks => self.sync_config.max_blocks_per_request,
                FetchKind::Certificate => 1,
            };
            out.push((peer, BlockRequest::new(self.me, target, max_blocks)));
            budget -= 1;
        }
        out
    }

    /// Deterministic peer rotation: signers of the target's certificate if
    /// known (they voted for the block, so they held it), otherwise
    /// everyone — the requester excluded either way.
    fn pick_peer(&mut self, target: HashValue) -> ReplicaId {
        let candidates: Vec<ReplicaId> = match self.certs.get(&target) {
            Some(qc) if !qc.signers().is_empty() => {
                qc.signers().iter().filter(|r| *r != self.me).collect()
            }
            _ => Vec::new(),
        };
        let candidates = if candidates.is_empty() {
            (0..self.config.n() as u16)
                .map(ReplicaId::new)
                .filter(|r| *r != self.me)
                .collect()
        } else {
            candidates
        };
        let peer = candidates[(self.peer_cursor % candidates.len() as u64) as usize];
        self.peer_cursor += 1;
        peer
    }

    /// Serves a peer's request from the local store: the segment of up to
    /// `max_blocks` ancestors ending at the target, oldest first, plus the
    /// target's certificate. Spilled blocks are decoded again from their
    /// bytes, read back through `log` or held. `None` if this replica lacks
    /// the block or a certificate for it, or a spilled block cannot be read
    /// back intact (the requester will retry elsewhere).
    pub fn serve(
        &mut self,
        request: &BlockRequest,
        store: &BlockStore,
        log: Option<&WalReader>,
    ) -> Option<BlockResponse> {
        let target = request.target();
        let qc = self.certs.get(&target)?.clone();
        let tip = store.get(target)?;
        let cap = request
            .max_blocks()
            .min(self.sync_config.max_blocks_per_request)
            .max(1) as usize;
        let segment: Vec<&Block> = std::iter::once(tip)
            .chain(store.ancestors(target).take_while(|b| !b.is_genesis()))
            .take(cap)
            .collect();
        let mut from_log = 0;
        let mut blocks = Vec::with_capacity(segment.len());
        for block in segment.into_iter().rev() {
            let Some(spilled) = store.spilled(block.id()) else {
                blocks.push(block.clone());
                continue;
            };
            let read = match spilled {
                Spilled::Log(span) => {
                    from_log += 1;
                    log.and_then(|log| log.read_block(*span).ok())
                }
                // A range of a larger frame: decoded from a copy of its
                // own, as a log read is.
                Spilled::Held(bytes) => Block::from_shared(&Arc::from(&**bytes)).ok(),
            };
            match read {
                Some(read) if read.id() == block.id() => blocks.push(read),
                _ => {
                    self.stats.spilled_reads_failed += 1;
                    return None;
                }
            }
        }
        self.stats.blocks_served_from_log += from_log;
        self.stats.responses_served += 1;
        Some(BlockResponse::new(qc, blocks))
    }

    /// [`on_response`](Self::on_response) plus latency accounting: when
    /// the response answers a request still in flight, records
    /// request-sent → admitted time into the `sync_response_us`
    /// histogram. Callers with a protocol clock in hand should prefer
    /// this over the raw variant.
    pub fn on_response_timed(
        &mut self,
        response: &BlockResponse,
        store: &mut BlockStore,
        now: SimTime,
    ) -> Vec<HashValue> {
        let sent_at = self
            .inflight
            .get(&response.target())
            .map(|inflight| inflight.sent_at);
        let admitted = self.on_response(response, store);
        if let (Some(sent_at), false) = (sent_at, admitted.is_empty()) {
            self.recorder.observe(
                sft_obs::names::SYNC_RESPONSE_US,
                now.saturating_since(sent_at).as_micros(),
            );
        }
        admitted
    }

    /// Verifies a response against the certificate chain and admits what it
    /// can. Returns the ids of blocks newly inserted into `store`, oldest
    /// first (cascaded orphans included). Rejected or duplicate responses
    /// admit nothing and leave the store untouched.
    pub fn on_response(
        &mut self,
        response: &BlockResponse,
        store: &mut BlockStore,
    ) -> Vec<HashValue> {
        if !self.verify_response(response) {
            self.stats.responses_rejected += 1;
            return Vec::new();
        }
        let target = response.target();
        // A response only counts once; afterwards the target is either in
        // the store or pooled with its parent chain being chased.
        self.inflight.remove(&target);
        // The verified certificate is knowledge in its own right: a
        // certificate-want is satisfied by it, and it can be served onward.
        self.certs
            .entry(target)
            .or_insert_with(|| response.qc().clone());

        let blocks = response.blocks();
        let mut admitted = Vec::new();
        if store.contains(blocks[0].parent_id()) {
            for block in blocks {
                match store.insert(block.clone()) {
                    Ok(true) => {
                        self.note_admitted(block.id());
                        admitted.push(block.id());
                    }
                    Ok(false) => {}
                    // A first block with forged parent metadata slipped past
                    // the link checks (only possible for the segment base):
                    // drop the rest, the chain cannot attach.
                    Err(_) => {
                        self.stats.responses_rejected += 1;
                        return admitted;
                    }
                }
            }
        } else {
            // The segment is verified but does not reach locally-known
            // ground: pool it whole and chase the missing parent.
            if self.orphans.len() + blocks.len() > MAX_ORPHANS {
                self.stats.responses_rejected += 1;
                return Vec::new();
            }
            for block in blocks {
                self.note_orphan_block(block.clone(), false, store);
            }
        }
        // Anything pooled beneath the admitted blocks can now attach.
        let released = self.flush_orphans(store, admitted.clone());
        admitted.extend(released.into_iter().map(|(id, _)| id));
        self.stats.blocks_admitted += admitted.len() as u64;
        // A certificate-only want (the block was already held) is now
        // satisfied; without this the target would be re-requested forever.
        if store.contains(target) {
            self.note_admitted(target);
        }
        admitted
    }

    /// True once every attempt at `id` went unanswered: it is not asked
    /// for again (whoever names it) until the retention floor passes it.
    fn abandoned(&self, id: HashValue) -> bool {
        self.attempts
            .get(&id)
            .is_some_and(|(attempts, _)| *attempts >= MAX_FETCH_ATTEMPTS)
    }

    fn note_admitted(&mut self, id: HashValue) {
        self.unwant(id);
        self.attempts.remove(&id);
    }

    fn unwant(&mut self, id: HashValue) {
        self.missing.remove(&id);
        self.inflight.remove(&id);
    }

    /// Gives up on `target`: no peer answered for it in
    /// `MAX_FETCH_ATTEMPTS` tries. Everything pooled above it can never
    /// attach, so the orphans waiting on it (transitively) go too and the
    /// manager stops reporting itself as syncing. The attempt count stays
    /// at the cap, which is what [`abandoned`](Self::abandoned) reads.
    fn abandon(&mut self, target: HashValue) {
        self.unwant(target);
        self.stats.targets_abandoned += 1;
        self.recorder.add(sft_obs::names::SYNC_ABANDONED, 1);
        let mut doomed = vec![target];
        while let Some(parent) = doomed.pop() {
            for id in self.waiting_on.remove(&parent).unwrap_or_default() {
                self.orphans.remove(&id);
                doomed.push(id);
            }
        }
    }

    /// Inserts every pooled orphan whose ancestry just became available,
    /// cascading. Returns the admitted ids in insertion order, each with
    /// its arrived-as-a-proposal flag.
    fn flush_orphans(
        &mut self,
        store: &mut BlockStore,
        roots: Vec<HashValue>,
    ) -> Vec<(HashValue, bool)> {
        let mut admitted = Vec::new();
        let mut queue: VecDeque<HashValue> = roots.into();
        while let Some(parent) = queue.pop_front() {
            let Some(mut ids) = self.waiting_on.remove(&parent) else {
                continue;
            };
            ids.sort(); // deterministic order among sibling orphans
            for id in ids {
                let Some((block, from_proposal)) = self.orphans.remove(&id) else {
                    continue;
                };
                if store.insert(block).is_ok_and(|fresh| fresh) {
                    self.note_admitted(id);
                    admitted.push((id, from_proposal));
                    queue.push_back(id);
                }
            }
        }
        admitted
    }

    /// The admission bar: the segment must be non-empty and bounded, end at
    /// a block this replica actually asked for, carry a well-formed QC
    /// naming exactly that block and round, and hash-link internally
    /// (parent ids, rounds, and heights all consistent). Block ids are
    /// recomputed on decode, so passing these checks means the segment *is*
    /// the unique ancestor chain of the certified target.
    fn verify_response(&self, response: &BlockResponse) -> bool {
        let blocks = response.blocks();
        let (Some(first), Some(last)) = (blocks.first(), blocks.last()) else {
            return false;
        };
        if blocks.len() > self.sync_config.max_blocks_per_request as usize {
            return false;
        }
        let target = response.target();
        let solicited = self.missing.contains_key(&target) || self.inflight.contains_key(&target);
        if !solicited {
            return false;
        }
        let qc = response.qc();
        if !qc.is_well_formed(&self.config)
            || qc.block_id() != last.id()
            || qc.round() != last.round()
        {
            return false;
        }
        if first.is_genesis() {
            return false;
        }
        blocks.windows(2).all(|pair| {
            pair[1].parent_id() == pair[0].id()
                && pair[1].parent_round() == pair[0].round()
                && pair[1].height() == pair[0].height().next()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{MemSink, WalRecord, WalSink, WalSpan};
    use sft_types::{Payload, SignerSet};

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::for_replicas(4)
    }

    fn quorum_qc(block: &Block) -> QuorumCertificate {
        QuorumCertificate::new(
            block.vote_data(),
            SignerSet::from_iter_with_capacity(4, (0..3).map(ReplicaId::new)),
        )
    }

    /// A store holding a chain of `len` blocks; returns (store, blocks).
    fn chain(len: u64) -> (BlockStore, Vec<Block>) {
        let mut store = BlockStore::new();
        let mut parent = store.genesis().clone();
        let blocks: Vec<Block> = (1..=len)
            .map(|round| {
                let block = Block::new(
                    &parent,
                    Round::new(round),
                    ReplicaId::new((round % 4) as u16),
                    Payload::synthetic(2, 8, round),
                );
                store.insert(block.clone()).unwrap();
                parent = block.clone();
                block
            })
            .collect();
        (store, blocks)
    }

    fn server_for(store: &BlockStore, blocks: &[Block]) -> SyncManager {
        let mut server = SyncManager::new(cfg(), ReplicaId::new(1));
        for block in blocks {
            server.note_certificate(&quorum_qc(block), store);
        }
        server
    }

    #[test]
    fn request_serve_admit_roundtrip() {
        let (store, blocks) = chain(5);
        let mut server = server_for(&store, &blocks);
        let mut behind = BlockStore::new();
        let mut sync = SyncManager::new(cfg(), ReplicaId::new(0));
        sync.note_certificate(&quorum_qc(&blocks[4]), &behind);
        assert!(sync.is_syncing());
        let requests = sync.take_requests(SimTime::ZERO);
        assert_eq!(requests.len(), 1);
        let response = server.serve(&requests[0].1, &store, None).unwrap();
        let admitted = sync.on_response(&response, &mut behind);
        assert_eq!(
            admitted,
            blocks.iter().map(Block::id).collect::<Vec<_>>(),
            "the whole segment lands, oldest first"
        );
        assert!(!sync.is_syncing());
        assert_eq!(sync.stats().blocks_admitted, 5);
    }

    #[test]
    fn duplicate_and_unsolicited_responses_are_rejected() {
        let (store, blocks) = chain(2);
        let mut server = server_for(&store, &blocks);
        let mut behind = BlockStore::new();
        let mut sync = SyncManager::new(cfg(), ReplicaId::new(0));

        // Unsolicited: never asked for anything.
        let req = BlockRequest::new(ReplicaId::new(0), blocks[1].id(), 8);
        let response = server.serve(&req, &store, None).unwrap();
        assert!(sync.on_response(&response, &mut behind).is_empty());
        assert_eq!(sync.stats().responses_rejected, 1);

        // Solicited: admitted once, duplicate rejected.
        sync.note_certificate(&quorum_qc(&blocks[1]), &behind);
        sync.take_requests(SimTime::ZERO);
        assert_eq!(sync.on_response(&response, &mut behind).len(), 2);
        assert!(sync.on_response(&response, &mut behind).is_empty());
    }

    #[test]
    fn forged_segments_never_admit() {
        let (store, blocks) = chain(4);
        let mut server = server_for(&store, &blocks);
        let mut behind = BlockStore::new();
        let mut sync = SyncManager::new(cfg(), ReplicaId::new(0));
        sync.note_certificate(&quorum_qc(&blocks[3]), &behind);
        let requests = sync.take_requests(SimTime::ZERO);
        let honest = server.serve(&requests[0].1, &store, None).unwrap();

        // Truncating the tail (the certified target) breaks the anchor.
        let mut cut = honest.blocks().to_vec();
        cut.pop();
        let forged = BlockResponse::new(honest.qc().clone(), cut);
        assert!(sync.on_response(&forged, &mut behind).is_empty());

        // Reordering breaks the hash chain.
        let mut shuffled = honest.blocks().to_vec();
        shuffled.swap(0, 1);
        let forged = BlockResponse::new(honest.qc().clone(), shuffled);
        assert!(sync.on_response(&forged, &mut behind).is_empty());

        // A QC naming a different round than the block is a mismatch.
        let wrong_qc = QuorumCertificate::new(
            sft_types::VoteData::new(
                blocks[3].id(),
                Round::new(99),
                blocks[2].id(),
                Round::new(3),
            ),
            SignerSet::from_iter_with_capacity(4, (0..3).map(ReplicaId::new)),
        );
        let forged = BlockResponse::new(wrong_qc, honest.blocks().to_vec());
        assert!(sync.on_response(&forged, &mut behind).is_empty());

        assert_eq!(sync.stats().responses_rejected, 3);
        assert_eq!(behind.len(), 1, "only genesis; nothing admitted");

        // The honest response still lands afterwards.
        assert_eq!(sync.on_response(&honest, &mut behind).len(), 4);
    }

    #[test]
    fn partial_segment_pools_and_chases_the_missing_parent() {
        let (store, blocks) = chain(6);
        let mut server = server_for(&store, &blocks);
        let mut behind = BlockStore::new();
        let mut sync = SyncManager::new(cfg(), ReplicaId::new(0)).with_sync_config(SyncConfig {
            max_blocks_per_request: 2,
            ..SyncConfig::default()
        });
        sync.note_certificate(&quorum_qc(&blocks[5]), &behind);

        // First fetch returns blocks 5..6 — parent (block 4) unknown.
        let requests = sync.take_requests(SimTime::ZERO);
        let response = server.serve(&requests[0].1, &store, None).unwrap();
        assert_eq!(response.blocks().len(), 2);
        assert!(sync.on_response(&response, &mut behind).is_empty());
        assert!(sync.is_syncing(), "segment pooled, parent chased");

        // The chase walks down in bounded hops until ground is reached,
        // then the pooled segments cascade in.
        let mut admitted_total = 0;
        for _ in 0..4 {
            let now = SimTime::ZERO;
            for (_, request) in sync.take_requests(now) {
                if let Some(response) = server.serve(&request, &store, None) {
                    admitted_total += sync.on_response(&response, &mut behind).len();
                }
            }
        }
        assert_eq!(admitted_total, 6);
        assert!(behind.contains(blocks[5].id()));
        assert!(!sync.is_syncing());
    }

    #[test]
    fn retries_rotate_peers_after_the_timeout() {
        let (_, blocks) = chain(1);
        let behind = BlockStore::new();
        let mut sync = SyncManager::new(cfg(), ReplicaId::new(0));
        sync.note_certificate(&quorum_qc(&blocks[0]), &behind);
        let first = sync.take_requests(SimTime::ZERO);
        assert_eq!(first.len(), 1);
        // Too early: nothing due.
        assert!(sync.take_requests(SimTime::from_millis(100)).is_empty());
        // After the retry timeout the same target goes to another peer.
        let retry = sync.take_requests(SimTime::from_millis(900));
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].1.target(), first[0].1.target());
        assert_ne!(retry[0].0, first[0].0, "peer rotated");
        assert_eq!(sync.stats().requests_sent, 2);
    }

    #[test]
    fn an_abandoned_target_is_not_asked_for_again_until_the_floor_passes_it() {
        let (_, blocks) = chain(3);
        let mut sync = SyncManager::new(cfg(), ReplicaId::new(0));
        // A want for a certificate no peer ever answers.
        sync.note_want(blocks[1].id(), blocks[1].round());
        let mut now = SimTime::ZERO;
        while sync.is_syncing() {
            sync.take_requests(now);
            now += SimDuration::from_millis(900);
        }
        assert_eq!(sync.stats().requests_sent, u64::from(MAX_FETCH_ATTEMPTS));
        assert_eq!(sync.stats().targets_abandoned, 1);

        // Every retransmitted timeout or proposal names it again; so does
        // a child proposal chasing it as its parent.
        sync.note_want(blocks[1].id(), blocks[1].round());
        assert!(sync.take_requests(now).is_empty());
        let behind = BlockStore::new();
        sync.note_orphan_block(blocks[2].clone(), true, &behind);
        assert!(!sync.is_syncing(), "nothing pooled on a parent given up on");
        assert_eq!(sync.stats().requests_sent, u64::from(MAX_FETCH_ATTEMPTS));
        assert_eq!(sync.stats().targets_abandoned, 1);

        // The memory of it is bounded by the horizon, like everything else.
        sync.prune_below(blocks[2].round());
        assert!(sync.attempts.is_empty());
    }

    #[test]
    fn note_stored_releases_waiting_orphans_with_their_provenance() {
        let (_, blocks) = chain(3);
        let mut store = BlockStore::new();
        let mut sync = SyncManager::new(cfg(), ReplicaId::new(0));
        // Child and grandchild overtake the parent: one as a proposal, one
        // out of a fetched segment.
        sync.note_orphan_block(blocks[2].clone(), false, &store);
        sync.note_orphan_block(blocks[1].clone(), true, &store);
        assert!(sync.is_syncing());
        store.insert(blocks[0].clone()).unwrap();
        let released = sync.note_stored(blocks[0].id(), &mut store);
        assert_eq!(
            released,
            vec![(blocks[1].id(), true), (blocks[2].id(), false)]
        );
        assert!(store.contains(blocks[2].id()));
        assert!(!sync.is_syncing());
        assert_eq!(sync.stats().orphans_adopted, 1);
    }

    #[test]
    fn note_stored_clears_bookkeeping() {
        let (_, blocks) = chain(2);
        let behind = BlockStore::new();
        let mut sync = SyncManager::new(cfg(), ReplicaId::new(0));
        sync.note_certificate(&quorum_qc(&blocks[1]), &behind);
        sync.take_requests(SimTime::ZERO);
        let mut store = BlockStore::new();
        assert!(sync.note_stored(blocks[1].id(), &mut store).is_empty());
        assert!(!sync.is_syncing());
        assert!(sync.take_requests(SimTime::from_millis(5000)).is_empty());
    }

    #[test]
    fn serve_declines_without_block_or_certificate() {
        let (store, blocks) = chain(2);
        let mut sync = SyncManager::new(cfg(), ReplicaId::new(1));
        let req = BlockRequest::new(ReplicaId::new(0), blocks[1].id(), 8);
        assert!(sync.serve(&req, &store, None).is_none(), "no certificate");
        sync.note_certificate(&quorum_qc(&blocks[1]), &store);
        assert!(sync.serve(&req, &store, None).is_some());
        let empty = BlockStore::new();
        assert!(sync.serve(&req, &empty, None).is_none(), "no block");
    }

    /// Spills `blocks` from `store` onto a fresh memory log, each frame
    /// passed through `damage` first, and returns the log's reader.
    fn spill_onto_log(
        store: &mut BlockStore,
        blocks: &[Block],
        damage: impl Fn(&mut Vec<u8>),
    ) -> WalReader {
        let mut sink = MemSink::new();
        let (log, mut offset) = sink.reader().unwrap();
        for block in blocks {
            let mut frame = WalRecord::BlockCommitted(block.clone()).to_frame();
            let len = frame.len() as u32;
            damage(&mut frame);
            sink.append(&frame).unwrap();
            store.spill(block.id(), Spilled::Log(WalSpan { offset, len }));
            offset += u64::from(len);
        }
        log
    }

    #[test]
    fn spilled_blocks_are_served_from_the_log_byte_for_byte() {
        let (mut store, blocks) = chain(3);
        let mut server = server_for(&store, &blocks);
        let req = BlockRequest::new(ReplicaId::new(0), blocks[2].id(), 8);
        let held = server.serve(&req, &store, None).unwrap().to_bytes();
        let log = spill_onto_log(&mut store, &blocks[..2], |_| {});
        let served = server.serve(&req, &store, Some(&log)).unwrap();
        assert_eq!(served.to_bytes(), held);
        assert_eq!(server.stats().blocks_served_from_log, 2);
        assert_eq!(server.stats().spilled_reads_failed, 0);
    }

    #[test]
    fn a_spilled_block_that_cannot_be_read_back_intact_declines_the_request() {
        let (store, blocks) = chain(3);
        let req = BlockRequest::new(ReplicaId::new(0), blocks[2].id(), 8);
        let flip_last = |frame: &mut Vec<u8>| *frame.last_mut().unwrap() ^= 1;
        let cut_short = |frame: &mut Vec<u8>| frame.truncate(frame.len() - 1);
        for (damage, reader) in [
            (flip_last as fn(&mut Vec<u8>), true),
            (cut_short, true),
            (|_: &mut Vec<u8>| {}, false),
        ] {
            let mut store = store.clone();
            let mut server = server_for(&store, &blocks);
            let log = spill_onto_log(&mut store, &blocks[..2], damage);
            assert!(server.serve(&req, &store, reader.then_some(&log)).is_none());
            assert_eq!(server.stats().spilled_reads_failed, 1);
            assert_eq!(server.stats().responses_served, 0);
            // Blocks still in memory are served as before.
            let held = BlockRequest::new(ReplicaId::new(0), blocks[2].id(), 1);
            assert!(server.serve(&held, &store, None).is_some());
        }
    }

    /// Spills `blocks` from `store` to held encodings, each passed through
    /// `damage` first.
    fn spill_to_held(store: &mut BlockStore, blocks: &[Block], damage: impl Fn(&mut Vec<u8>)) {
        for block in blocks {
            let mut bytes = block.to_bytes();
            damage(&mut bytes);
            store.spill(block.id(), Spilled::Held(bytes.into()));
        }
    }

    #[test]
    fn blocks_spilled_to_their_held_bytes_are_served_byte_for_byte() {
        let (mut store, blocks) = chain(3);
        let mut server = server_for(&store, &blocks);
        let req = BlockRequest::new(ReplicaId::new(0), blocks[2].id(), 8);
        let whole = server.serve(&req, &store, None).unwrap().to_bytes();
        spill_to_held(&mut store, &blocks[..2], |_| {});
        assert!(store.get(blocks[0].id()).unwrap().payload().is_empty());
        let served = server.serve(&req, &store, None).unwrap();
        assert_eq!(served.to_bytes(), whole);
        assert_eq!(served.blocks(), blocks);
        let stats = server.stats();
        assert_eq!(stats.blocks_served_from_log, 0, "nothing read from a log");
        assert_eq!(stats.spilled_reads_failed, 0);
    }

    #[test]
    fn corrupted_held_bytes_are_refused_by_the_id_check_and_counted() {
        let (store, blocks) = chain(3);
        let req = BlockRequest::new(ReplicaId::new(0), blocks[2].id(), 8);
        let flip_last = |bytes: &mut Vec<u8>| *bytes.last_mut().unwrap() ^= 1;
        let flip_round = |bytes: &mut Vec<u8>| bytes[HashValue::LEN + 15] ^= 1;
        let cut_short = |bytes: &mut Vec<u8>| bytes.truncate(bytes.len() - 1);
        let trailing = |bytes: &mut Vec<u8>| bytes.push(0);
        for damage in [
            flip_last as fn(&mut Vec<u8>),
            flip_round,
            cut_short,
            trailing,
        ] {
            let mut store = store.clone();
            let mut server = server_for(&store, &blocks);
            spill_to_held(&mut store, &blocks[..2], damage);
            assert!(server.serve(&req, &store, None).is_none());
            assert_eq!(server.stats().spilled_reads_failed, 1);
            assert_eq!(server.stats().responses_served, 0);
            let whole = BlockRequest::new(ReplicaId::new(0), blocks[2].id(), 1);
            assert!(server.serve(&whole, &store, None).is_some());
        }
    }

    #[test]
    fn response_codec_roundtrips() {
        let (store, blocks) = chain(3);
        let mut server = server_for(&store, &blocks);
        let req = BlockRequest::new(ReplicaId::new(0), blocks[2].id(), 8);
        let response = server.serve(&req, &store, None).unwrap();
        let back = BlockResponse::from_bytes(&response.to_bytes()).unwrap();
        assert_eq!(back, response);
        assert_eq!(back.target(), blocks[2].id());
    }
}
