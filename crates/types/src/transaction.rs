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
//!   injections, §4/Fig 6, not bandwidth limits). Its [`Payload::wire_bytes`]
//!   reports the size the batch would occupy, so message-size accounting
//!   stays honest while a laptop can sweep hundreds of configurations.

use std::fmt;

use sft_crypto::{HashValue, Hasher};

use crate::codec::{Decode, DecodeError, Encode};

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
    payload: Vec<u8>,
    /// Hashed once, when the transaction is built or decoded: admission,
    /// batching, the payload digest, inclusion and commit bookkeeping and
    /// ack routing all ask for it, and the payload can be kilobytes.
    id: HashValue,
}

impl Transaction {
    /// Creates a transaction from client id, per-client sequence number,
    /// and payload bytes.
    pub fn new(client: u64, seq: u64, payload: Vec<u8>) -> Self {
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

impl Encode for Transaction {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.client.encode(buf);
        self.seq.encode(buf);
        (self.payload.len() as u64).encode(buf);
        buf.extend_from_slice(&self.payload);
    }
    fn encoded_len(&self) -> usize {
        8 + 8 + 8 + self.payload.len()
    }
}

impl Decode for Transaction {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let client = u64::decode(buf)?;
        let seq = u64::decode(buf)?;
        let len = u64::decode(buf)?;
        if len > crate::codec::MAX_SEQ_LEN {
            return Err(DecodeError::LengthOverflow(len));
        }
        let len = len as usize;
        if buf.len() < len {
            return Err(DecodeError::UnexpectedEof);
        }
        let (head, tail) = buf.split_at(len);
        let payload = head.to_vec();
        *buf = tail;
        Ok(Self::new(client, seq, payload))
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
/// // The paper's workload: ~1000 txns, ~450 bytes each, ~450 KB per block.
/// let synthetic = Payload::synthetic(1000, 450, 42);
/// assert_eq!(synthetic.wire_bytes(), 1000 * 450 + 24);
/// assert_eq!(synthetic.txn_count(), 1000);
/// assert!(real.wire_bytes() < synthetic.wire_bytes());
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

    /// The number of bytes this payload occupies (or would occupy) on the
    /// wire — the quantity the message-size experiments account for.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Payload::Transactions(_) => self.encoded_len(),
            Payload::Synthetic {
                txn_count,
                txn_bytes,
                ..
            } => {
                // What an inline encoding of the described batch would cost
                // in transaction bytes, plus this descriptor's own framing.
                *txn_count as usize * *txn_bytes as usize + 24
            }
        }
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
}

impl Decode for Payload {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(Payload::Transactions(Vec::decode(buf)?)),
            1 => Ok(Payload::Synthetic {
                txn_count: u32::decode(buf)?,
                txn_bytes: u32::decode(buf)?,
                tag: u64::decode(buf)?,
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
    fn synthetic_wire_bytes_match_paper_workload() {
        // ~1000 txns of ~450 B each ≈ 450 KB blocks (§4).
        let p = Payload::synthetic(1000, 450, 1);
        assert_eq!(p.wire_bytes(), 450_024);
    }

    #[test]
    fn inline_wire_bytes_are_encoded_len() {
        let p = Payload::Transactions(vec![Transaction::new(0, 0, vec![9; 10])]);
        assert_eq!(p.wire_bytes(), p.to_bytes().len());
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
