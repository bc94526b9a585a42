//! Transactions and block payloads.
//!
//! The paper's workload (§4): "each proposed block contains roughly 1000
//! transactions, and has a size of around 450KB. Sufficiently many
//! transactions are generated and submitted by the clients so that any
//! leader always has enough transactions". Two payload representations
//! support that:
//!
//! - [`Payload::Transactions`] carries real [`Transaction`]s on the wire —
//!   used by the examples and functional tests, where the committed log
//!   contents matter.
//! - [`Payload::Synthetic`] describes a batch (`txn_count × txn_bytes`)
//!   without materializing it — used by the latency experiments, where only
//!   the *size* of the batch matters (delays in the simulator are latency
//!   injections, §4/Fig 6, not bandwidth limits), so a laptop can sweep
//!   hundreds of configurations. What travels is the 17-byte descriptor,
//!   so message sizes in such runs count the protocol's own bytes, not the
//!   batch's.

use std::fmt;
use std::sync::Arc;

use sft_crypto::{HashValue, Hasher};

use crate::codec::{put, Decode, DecodeError, Encode, Reader};
use crate::SharedBytes;

/// A client transaction: an opaque payload attributed to a submitting
/// client, sequence-numbered for duplicate detection.
///
/// # Examples
///
/// ```
/// use sft_types::Transaction;
///
/// let txn = Transaction::new(7, 0, b"transfer 10 -> alice".to_vec());
/// assert_eq!(txn.client(), 7);
/// assert_ne!(txn.id(), Transaction::new(7, 1, vec![]).id());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Transaction {
    client: u64,
    seq: u64,
    /// Held, not owned: a transaction decoded from a shared buffer keeps
    /// the range of the frame it arrived in, and a proposed one the range
    /// of its block's encoding.
    payload: SharedBytes,
    /// Hashed once, when the transaction is built or decoded: admission,
    /// batching, the payload digest, inclusion and commit bookkeeping and
    /// ack routing all ask for it, and the payload can be kilobytes.
    id: HashValue,
}

impl Transaction {
    /// Creates a transaction from client id, per-client sequence number,
    /// and payload bytes.
    pub fn new(client: u64, seq: u64, payload: Vec<u8>) -> Self {
        Self::with_payload(client, seq, payload.into())
    }

    fn with_payload(client: u64, seq: u64, payload: SharedBytes) -> Self {
        let id = Hasher::new("txn")
            .field(&client.to_be_bytes())
            .field(&seq.to_be_bytes())
            .field(&payload)
            .finish();
        Self {
            client,
            seq,
            payload,
            id,
        }
    }

    /// The submitting client's id.
    pub fn client(&self) -> u64 {
        self.client
    }

    /// The per-client sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The opaque payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The transaction id: a domain-separated hash of all fields.
    pub fn id(&self) -> HashValue {
        self.id
    }
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Txn(client={}, seq={}, {}B)",
            self.client,
            self.seq,
            self.payload.len()
        )
    }
}

impl Transaction {
    /// The encoding up to the payload bytes: client, sequence number and
    /// payload length.
    fn encode_head(&self, buf: &mut Vec<u8>) {
        self.client.encode(buf);
        self.seq.encode(buf);
        (self.payload.len() as u64).encode(buf);
    }
}

impl Encode for Transaction {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.encode_head(buf);
        buf.extend_from_slice(&self.payload);
    }
    fn encoded_len(&self) -> usize {
        TXN_HEADER_LEN + self.payload.len()
    }
}

/// Bytes in front of a transaction's payload: client, sequence number and
/// payload length.
const TXN_HEADER_LEN: usize = 8 + 8 + 8;

impl Decode for Transaction {
    const MIN_ENCODED_LEN: usize = TXN_HEADER_LEN;

    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Reader::copying(buf, Self::decode_from)
    }

    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let client = reader.read()?;
        let seq = reader.read()?;
        let len = reader.read::<u64>()?;
        if len > crate::codec::MAX_SEQ_LEN {
            return Err(DecodeError::LengthOverflow(len));
        }
        let payload = reader.take(len as usize)?;
        Ok(Self::with_payload(client, seq, payload))
    }
}

/// Limits on the transaction batch a leader drains from its mempool into
/// one proposal — the knobs FeBFT-style batching exposes: a count cap and a
/// byte cap, whichever bites first.
///
/// # Examples
///
/// ```
/// use sft_types::BatchConfig;
///
/// let batch = BatchConfig::with_max_txns(256);
/// assert_eq!(batch.max_txns, 256);
/// assert!(batch.max_bytes > 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum transactions per proposed block.
    pub max_txns: u32,
    /// Maximum encoded payload bytes per proposed block.
    pub max_bytes: u64,
}

impl Default for BatchConfig {
    /// The paper's workload shape: ~1000 transactions of ~450 B each per
    /// block, so the byte cap sits just above 450 KB.
    fn default() -> Self {
        Self {
            max_txns: 1000,
            max_bytes: 512 * 1024,
        }
    }
}

impl BatchConfig {
    /// A batch limited by transaction count only (byte cap stays at the
    /// default).
    pub fn with_max_txns(max_txns: u32) -> Self {
        Self {
            max_txns,
            ..Self::default()
        }
    }
}

/// The transaction batch carried by a block.
///
/// # Examples
///
/// ```
/// use sft_types::{Payload, Transaction};
///
/// let real = Payload::Transactions(vec![Transaction::new(1, 0, vec![0; 64])]);
/// assert_eq!(real.txn_count(), 1);
/// // The paper's workload: ~1000 txns, ~450 bytes each, ~450 KB per block.
/// let synthetic = Payload::synthetic(1000, 450, 42);
/// assert_eq!(synthetic.txn_count(), 1000);
/// assert_ne!(real.digest(), synthetic.digest());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Payload {
    /// A materialized list of transactions.
    Transactions(Vec<Transaction>),
    /// A described-but-not-materialized batch: `txn_count` transactions of
    /// `txn_bytes` bytes each, distinguished by a workload `tag` so distinct
    /// blocks hash differently.
    Synthetic {
        /// Number of transactions in the batch.
        txn_count: u32,
        /// Bytes per transaction.
        txn_bytes: u32,
        /// Uniquifying tag (e.g. a workload sequence number).
        tag: u64,
    },
}

impl Payload {
    /// An empty real payload (used by genesis and no-op blocks).
    pub fn empty() -> Self {
        Payload::Transactions(Vec::new())
    }

    /// Creates a synthetic batch descriptor.
    pub fn synthetic(txn_count: u32, txn_bytes: u32, tag: u64) -> Self {
        Payload::Synthetic {
            txn_count,
            txn_bytes,
            tag,
        }
    }

    /// Number of transactions the payload represents.
    pub fn txn_count(&self) -> usize {
        match self {
            Payload::Transactions(txns) => txns.len(),
            Payload::Synthetic { txn_count, .. } => *txn_count as usize,
        }
    }

    /// True if the payload carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.txn_count() == 0
    }

    /// Writes this payload's encoding into `buf` from offset `at` on and
    /// re-points every transaction's payload at its bytes there: how a
    /// leader writes a block straight into the proposal buffer it shares,
    /// so the frames the transactions arrived in can be freed. Ids are
    /// kept, not recomputed — the bytes are the ones they were computed
    /// over. Returns the offset just past the encoding.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than `at` plus [`Encode::encoded_len`].
    pub fn write_held(&mut self, buf: &mut Arc<[u8]>, at: usize) -> usize {
        let end = at + self.encoded_len();
        let mut head = Vec::with_capacity(TXN_HEADER_LEN);
        let Payload::Transactions(txns) = self else {
            self.encode(&mut head);
            put(&mut Arc::make_mut(buf)[at..], &head);
            return end;
        };
        // Written while the buffer is this call's alone, then shared.
        head.push(0);
        (txns.len() as u64).encode(&mut head);
        let mut dst = put(&mut Arc::make_mut(buf)[at..end], &head);
        for txn in txns.iter() {
            head.clear();
            txn.encode_head(&mut head);
            dst = put(put(dst, &head), &txn.payload);
        }
        let mut offset = at + PAYLOAD_HEADER_LEN;
        for txn in txns {
            let start = offset + TXN_HEADER_LEN;
            offset = start + txn.payload.len();
            if let Some(held) = SharedBytes::range(buf, start..offset) {
                txn.payload = held;
            }
        }
        end
    }

    /// A digest committing to the payload contents, mixed into the block id.
    pub fn digest(&self) -> HashValue {
        match self {
            Payload::Transactions(txns) => {
                let mut h = Hasher::new("payload-txns");
                for txn in txns {
                    h = h.field(txn.id().as_ref());
                }
                h.finish()
            }
            Payload::Synthetic {
                txn_count,
                txn_bytes,
                tag,
            } => Hasher::new("payload-synth")
                .field(&txn_count.to_be_bytes())
                .field(&txn_bytes.to_be_bytes())
                .field(&tag.to_be_bytes())
                .finish(),
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Transactions(txns) => write!(f, "Payload({} txns)", txns.len()),
            Payload::Synthetic {
                txn_count,
                txn_bytes,
                tag,
            } => {
                write!(f, "Payload(synthetic {txn_count}x{txn_bytes}B #{tag})")
            }
        }
    }
}

/// Bytes in front of a [`Payload::Transactions`] list: the variant tag
/// and the count.
const PAYLOAD_HEADER_LEN: usize = 1 + 8;

impl Encode for Payload {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Payload::Transactions(txns) => {
                buf.push(0);
                txns.encode(buf);
            }
            Payload::Synthetic {
                txn_count,
                txn_bytes,
                tag,
            } => {
                buf.push(1);
                txn_count.encode(buf);
                txn_bytes.encode(buf);
                tag.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            Payload::Transactions(txns) => {
                PAYLOAD_HEADER_LEN + txns.iter().map(Encode::encoded_len).sum::<usize>()
            }
            Payload::Synthetic { .. } => 1 + 4 + 4 + 8,
        }
    }
}

impl Decode for Payload {
    const MIN_ENCODED_LEN: usize = PAYLOAD_HEADER_LEN;

    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Reader::copying(buf, Self::decode_from)
    }

    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read::<u8>()? {
            0 => Ok(Payload::Transactions(reader.read()?)),
            1 => Ok(Payload::Synthetic {
                txn_count: reader.read()?,
                txn_bytes: reader.read()?,
                tag: reader.read()?,
            }),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_binds_all_fields() {
        let base = Transaction::new(1, 2, vec![3]);
        assert_ne!(base.id(), Transaction::new(9, 2, vec![3]).id());
        assert_ne!(base.id(), Transaction::new(1, 9, vec![3]).id());
        assert_ne!(base.id(), Transaction::new(1, 2, vec![9]).id());
        assert_eq!(base.id(), Transaction::new(1, 2, vec![3]).id());
    }

    #[test]
    fn txn_accessors() {
        let txn = Transaction::new(5, 7, vec![1, 2, 3]);
        assert_eq!(txn.client(), 5);
        assert_eq!(txn.seq(), 7);
        assert_eq!(txn.payload(), &[1, 2, 3]);
        assert_eq!(format!("{txn:?}"), "Txn(client=5, seq=7, 3B)");
    }

    #[test]
    fn txn_codec_roundtrip() {
        let txn = Transaction::new(1, 2, vec![0xab; 100]);
        let bytes = txn.to_bytes();
        assert_eq!(bytes.len(), txn.encoded_len());
        assert_eq!(Transaction::from_bytes(&bytes).unwrap(), txn);
    }

    #[test]
    fn txn_decode_rejects_truncated_payload() {
        let txn = Transaction::new(1, 2, vec![7; 50]);
        let bytes = txn.to_bytes();
        assert_eq!(
            Transaction::from_bytes(&bytes[..bytes.len() - 1]),
            Err(DecodeError::UnexpectedEof)
        );
    }

    #[test]
    fn txn_decode_rejects_hostile_length() {
        let mut bytes = Vec::new();
        1u64.encode(&mut bytes);
        2u64.encode(&mut bytes);
        u64::MAX.encode(&mut bytes);
        assert!(matches!(
            Transaction::from_bytes(&bytes),
            Err(DecodeError::LengthOverflow(_))
        ));
    }

    #[test]
    fn payload_counts() {
        assert_eq!(Payload::empty().txn_count(), 0);
        assert!(Payload::empty().is_empty());
        let p = Payload::Transactions(vec![
            Transaction::new(1, 0, vec![]),
            Transaction::new(1, 1, vec![]),
        ]);
        assert_eq!(p.txn_count(), 2);
        assert_eq!(Payload::synthetic(1000, 450, 0).txn_count(), 1000);
    }

    #[test]
    fn digests_distinguish_contents() {
        let a = Payload::Transactions(vec![Transaction::new(1, 0, vec![1])]);
        let b = Payload::Transactions(vec![Transaction::new(1, 0, vec![2])]);
        assert_ne!(a.digest(), b.digest());
        let s1 = Payload::synthetic(10, 10, 1);
        let s2 = Payload::synthetic(10, 10, 2);
        assert_ne!(s1.digest(), s2.digest());
        // Representation matters: a synthetic batch never collides with an
        // inline one (domain separation).
        assert_ne!(a.digest(), s1.digest());
    }

    #[test]
    fn payload_codec_roundtrip() {
        for p in [
            Payload::empty(),
            Payload::Transactions(vec![Transaction::new(3, 4, vec![5, 6])]),
            Payload::synthetic(1000, 450, 99),
        ] {
            assert_eq!(Payload::from_bytes(&p.to_bytes()).unwrap(), p);
        }
    }

    #[test]
    fn payload_bad_tag_rejected() {
        assert_eq!(Payload::from_bytes(&[9]), Err(DecodeError::InvalidTag(9)));
    }
}
