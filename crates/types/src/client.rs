//! The client plane: submission requests and strength-graded acks.
//!
//! The paper's contribution is a *graded* commit — every committed block
//! carries a strength level `x` (Definition 1) that keeps rising as more
//! endorsements arrive. This module productizes that grade as a client-facing
//! durability SLA: a [`ClientRequest`] names the strength the client wants
//! (`ack_at`), and the replica answers with a [`ClientAck::Committed`] only
//! once the containing block's strong-commit level has reached it. `ack_at:
//! 0` is answered at the standard commit (which already carries level `f`);
//! `ack_at: x` waits for the `x`-strong upgrade of §3.
//!
//! ## Framing
//!
//! Client frames ride the same length-prefixed [`crate::Envelope`] framing
//! as replica traffic, under [`crate::ProtocolTag::Client`]. The envelope
//! payload is an encoded [`ClientFrame`] — a tagged union so a reader can
//! refuse a request arriving where an ack belongs (and vice versa) instead
//! of misparsing it.

use std::fmt;

use sft_crypto::HashValue;

use crate::codec::{Decode, DecodeError, Encode, Reader};
use crate::{Round, Transaction};

/// A client's submission: the transaction plus the strength level the
/// client wants acknowledged.
///
/// # Examples
///
/// ```
/// use sft_types::{ClientRequest, Transaction};
///
/// let req = ClientRequest::new(Transaction::new(7, 0, b"pay".to_vec()), 2);
/// assert_eq!(req.ack_at, 2);
/// assert_eq!(req.txn_id(), req.txn.id());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientRequest {
    /// The transaction to replicate.
    pub txn: Transaction,
    /// Absolute strength level `x` to acknowledge at: the ack fires once
    /// the containing block is `≥ ack_at`-strong committed. `0` means "ack
    /// at standard commit" (which already carries level `f`).
    pub ack_at: u64,
}

impl ClientRequest {
    /// Creates a request.
    pub fn new(txn: Transaction, ack_at: u64) -> Self {
        Self { txn, ack_at }
    }

    /// The submitted transaction's id — the key every ack echoes back.
    pub fn txn_id(&self) -> HashValue {
        self.txn.id()
    }
}

impl Encode for ClientRequest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.txn.encode(buf);
        self.ack_at.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.txn.encoded_len() + 8
    }
}

impl Decode for ClientRequest {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Reader::copying(buf, Self::decode_from)
    }

    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            txn: reader.read()?,
            ack_at: reader.read()?,
        })
    }
}

/// A replica's answer to a [`ClientRequest`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientAck {
    /// The transaction's block is committed at `strength`-strong (with
    /// `strength ≥` the requested `ack_at`).
    Committed {
        /// The acknowledged transaction.
        txn_id: HashValue,
        /// The round of the containing block.
        round: Round,
        /// The strong-commit level at ack time (Definition 1's `x`).
        strength: u64,
    },
    /// The mempool is at capacity — the transaction was NOT admitted;
    /// retry later (admission-control backpressure).
    Busy {
        /// The rejected transaction.
        txn_id: HashValue,
    },
    /// The transaction was already submitted (or already committed) —
    /// not admitted a second time.
    Duplicate {
        /// The duplicate transaction.
        txn_id: HashValue,
    },
}

impl ClientAck {
    /// The transaction this ack answers.
    pub fn txn_id(&self) -> HashValue {
        match self {
            ClientAck::Committed { txn_id, .. }
            | ClientAck::Busy { txn_id }
            | ClientAck::Duplicate { txn_id } => *txn_id,
        }
    }

    /// True for [`ClientAck::Committed`].
    pub fn is_committed(&self) -> bool {
        matches!(self, ClientAck::Committed { .. })
    }
}

impl fmt::Debug for ClientAck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientAck::Committed {
                txn_id,
                round,
                strength,
            } => write!(f, "Ack({} r={} {}-strong)", txn_id.short(), round, strength),
            ClientAck::Busy { txn_id } => write!(f, "Busy({})", txn_id.short()),
            ClientAck::Duplicate { txn_id } => write!(f, "Duplicate({})", txn_id.short()),
        }
    }
}

impl Encode for ClientAck {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ClientAck::Committed {
                txn_id,
                round,
                strength,
            } => {
                buf.push(0);
                txn_id.encode(buf);
                round.encode(buf);
                strength.encode(buf);
            }
            ClientAck::Busy { txn_id } => {
                buf.push(1);
                txn_id.encode(buf);
            }
            ClientAck::Duplicate { txn_id } => {
                buf.push(2);
                txn_id.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            ClientAck::Committed { .. } => 1 + 32 + 8 + 8,
            ClientAck::Busy { .. } | ClientAck::Duplicate { .. } => 1 + 32,
        }
    }
}

impl Decode for ClientAck {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(ClientAck::Committed {
                txn_id: HashValue::decode(buf)?,
                round: Round::decode(buf)?,
                strength: u64::decode(buf)?,
            }),
            1 => Ok(ClientAck::Busy {
                txn_id: HashValue::decode(buf)?,
            }),
            2 => Ok(ClientAck::Duplicate {
                txn_id: HashValue::decode(buf)?,
            }),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// The tagged union a [`crate::ProtocolTag::Client`] envelope carries.
///
/// Clients send [`ClientFrame::Request`]s; replicas send
/// [`ClientFrame::Ack`]s. The tag lets each side *refuse* a frame flowing
/// the wrong way instead of misparsing it.
///
/// # Examples
///
/// ```
/// use sft_types::{ClientAck, ClientFrame, Round};
/// use sft_crypto::HashValue;
///
/// let ack = ClientFrame::Ack(ClientAck::Committed {
///     txn_id: HashValue::of(b"t"),
///     round: Round::new(3),
///     strength: 2,
/// });
/// assert!(ack.as_ack().is_some());
/// assert!(ack.as_request().is_none());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientFrame {
    /// Client → replica: submit a transaction.
    Request(ClientRequest),
    /// Replica → client: answer a submission.
    Ack(ClientAck),
}

impl ClientFrame {
    /// The request, if this frame is one.
    pub fn as_request(&self) -> Option<&ClientRequest> {
        match self {
            ClientFrame::Request(req) => Some(req),
            ClientFrame::Ack(_) => None,
        }
    }

    /// The ack, if this frame is one.
    pub fn as_ack(&self) -> Option<&ClientAck> {
        match self {
            ClientFrame::Ack(ack) => Some(ack),
            ClientFrame::Request(_) => None,
        }
    }
}

impl Encode for ClientFrame {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ClientFrame::Request(req) => {
                buf.push(0);
                req.encode(buf);
            }
            ClientFrame::Ack(ack) => {
                buf.push(1);
                ack.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            ClientFrame::Request(req) => req.encoded_len(),
            ClientFrame::Ack(ack) => ack.encoded_len(),
        }
    }

    /// Sized up front: a request carries a whole payload, which a growing
    /// buffer would copy once more.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }
}

impl Decode for ClientFrame {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Reader::copying(buf, Self::decode_from)
    }

    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read::<u8>()? {
            0 => Ok(ClientFrame::Request(reader.read()?)),
            1 => Ok(ClientFrame::Ack(reader.read()?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> ClientRequest {
        ClientRequest::new(Transaction::new(3, 9, vec![0xaa; 16]), 2)
    }

    fn committed() -> ClientAck {
        ClientAck::Committed {
            txn_id: HashValue::of(b"txn"),
            round: Round::new(12),
            strength: 2,
        }
    }

    #[test]
    fn request_roundtrips() {
        let req = request();
        let bytes = req.to_bytes();
        assert_eq!(bytes.len(), req.encoded_len());
        assert_eq!(ClientRequest::from_bytes(&bytes).unwrap(), req);
    }

    #[test]
    fn ack_variants_roundtrip() {
        for ack in [
            committed(),
            ClientAck::Busy {
                txn_id: HashValue::of(b"b"),
            },
            ClientAck::Duplicate {
                txn_id: HashValue::of(b"d"),
            },
        ] {
            let bytes = ack.to_bytes();
            assert_eq!(bytes.len(), ack.encoded_len());
            assert_eq!(ClientAck::from_bytes(&bytes).unwrap(), ack);
        }
    }

    #[test]
    fn ack_txn_id_matches_every_variant() {
        let id = HashValue::of(b"x");
        for ack in [
            ClientAck::Committed {
                txn_id: id,
                round: Round::new(1),
                strength: 0,
            },
            ClientAck::Busy { txn_id: id },
            ClientAck::Duplicate { txn_id: id },
        ] {
            assert_eq!(ack.txn_id(), id);
        }
        assert!(committed().is_committed());
        assert!(!ClientAck::Busy { txn_id: id }.is_committed());
    }

    #[test]
    fn frame_roundtrips_both_directions() {
        for frame in [
            ClientFrame::Request(request()),
            ClientFrame::Ack(committed()),
        ] {
            let bytes = frame.to_bytes();
            assert_eq!(bytes.len(), frame.encoded_len());
            assert_eq!(ClientFrame::from_bytes(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn frame_direction_accessors() {
        let req = ClientFrame::Request(request());
        assert!(req.as_request().is_some());
        assert!(req.as_ack().is_none());
        let ack = ClientFrame::Ack(committed());
        assert!(ack.as_ack().is_some());
        assert!(ack.as_request().is_none());
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(ClientAck::from_bytes(&[9]), Err(DecodeError::InvalidTag(9)));
        assert_eq!(
            ClientFrame::from_bytes(&[7]),
            Err(DecodeError::InvalidTag(7))
        );
    }

    #[test]
    fn debug_forms() {
        assert!(format!("{:?}", committed()).contains("2-strong"));
        assert!(format!(
            "{:?}",
            ClientAck::Busy {
                txn_id: HashValue::of(b"b")
            }
        )
        .starts_with("Busy("));
    }
}
