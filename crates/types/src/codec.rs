//! Deterministic binary wire codec.
//!
//! Every wire type implements [`Encode`] and [`Decode`]. Encoding is
//! deterministic (no maps, fixed integer widths, length-prefixed sequences),
//! which makes encoded bytes suitable as signing preimages. The codec
//! replaces serde: the simulator needs byte-identical preimages for
//! signatures and exact wire-size accounting for the message-complexity
//! experiments, and the approved offline dependency set has no serde
//! format crate.

use std::fmt;
use std::sync::Arc;

use sft_crypto::{HashValue, Signature};

use crate::SharedBytes;

/// Error returned when decoding malformed bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// A tag byte or enum discriminant had no meaning.
    InvalidTag(u8),
    /// A length prefix exceeded the sanity bound.
    LengthOverflow(u64),
    /// Trailing bytes remained after a complete top-level decode.
    TrailingBytes(usize),
    /// A field held a value outside its domain, or a set arrived in other
    /// than its one canonical order (decoding accepts one encoding per
    /// value, so a signed value cannot be re-encoded into a second form).
    InvalidValue,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::InvalidTag(t) => write!(f, "invalid tag byte {t}"),
            DecodeError::LengthOverflow(n) => write!(f, "length prefix {n} too large"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            DecodeError::InvalidValue => write!(f, "value outside its domain or not canonical"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Maximum element count accepted for any length-prefixed sequence.
/// Prevents hostile length prefixes from causing huge allocations.
pub const MAX_SEQ_LEN: u64 = 1 << 24;

/// Serializes `self` into a byte buffer.
pub trait Encode {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// The encoded size in bytes. Default implementation encodes and counts;
    /// types on hot paths may override with an analytic computation.
    fn encoded_len(&self) -> usize {
        self.to_bytes().len()
    }
}

/// Deserializes a value from a byte cursor.
pub trait Decode: Sized {
    /// The fewest bytes any value's encoding takes. A sequence decode
    /// preallocates no more elements than the bytes left could hold, so a
    /// hostile count field buys no allocation its input does not pay for.
    const MIN_ENCODED_LEN: usize = 1;

    /// Reads one value from the front of `buf`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the bytes are truncated or malformed.
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError>;

    /// Reads one value from `reader`. A type that carries payload bytes
    /// overrides this to take them with [`Reader::take`] — ranges of the
    /// reader's shared buffer, when it has one, instead of copies — and
    /// implements [`decode`](Self::decode) as [`Reader::copying`] over it;
    /// every other type reads as `decode` does.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the bytes are truncated or malformed.
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Self::decode(&mut reader.rest)
    }

    /// Decodes a complete buffer, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input or leftover bytes.
    fn from_bytes(mut bytes: &[u8]) -> Result<Self, DecodeError> {
        let value = Self::decode(&mut bytes)?;
        if bytes.is_empty() {
            Ok(value)
        } else {
            Err(DecodeError::TrailingBytes(bytes.len()))
        }
    }

    /// Decodes all of a shared buffer, rejecting trailing bytes, as
    /// [`from_bytes`](Self::from_bytes) does — but the value holds ranges
    /// of `bytes` where it carries payload bytes, instead of copies.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input or leftover bytes.
    fn from_shared(bytes: &Arc<[u8]>) -> Result<Self, DecodeError> {
        let mut reader = Reader::shared(bytes);
        let value = Self::decode_from(&mut reader)?;
        match reader.rest.len() {
            0 => Ok(value),
            left => Err(DecodeError::TrailingBytes(left)),
        }
    }
}

/// A decode cursor: the bytes not yet read and, when they are the tail
/// of a shared buffer, that buffer — so [`Reader::take`] can hand out
/// ranges of it instead of copies.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
    shared: Option<&'a Arc<[u8]>>,
}

impl<'a> Reader<'a> {
    /// A reader over all of `buf` whose [`take`](Self::take)s share it.
    pub fn shared(buf: &'a Arc<[u8]>) -> Self {
        Self {
            rest: buf,
            shared: Some(buf),
        }
    }

    /// Runs `read` over a reader on `buf` whose [`take`](Self::take)s
    /// copy, and advances `buf` past what it read: the
    /// [`Decode::decode`] of a type that overrides
    /// [`Decode::decode_from`].
    ///
    /// # Errors
    ///
    /// Returns what `read` returns; `buf` is then left unadvanced.
    pub fn copying<T>(
        buf: &mut &'a [u8],
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        let mut reader = Reader {
            rest: buf,
            shared: None,
        };
        let value = read(&mut reader)?;
        *buf = reader.rest;
        Ok(value)
    }

    /// Reads one `T`.
    ///
    /// # Errors
    ///
    /// Returns `T`'s decode error.
    pub fn read<T: Decode>(&mut self) -> Result<T, DecodeError> {
        T::decode_from(self)
    }

    /// The next `len` bytes: a range of the shared buffer, or a copy when
    /// there is none.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if fewer than `len` bytes are left.
    pub fn take(&mut self, len: usize) -> Result<SharedBytes, DecodeError> {
        let start = self.offset();
        let bytes = take(&mut self.rest, len)?;
        Ok(self
            .shared
            .and_then(|buf| SharedBytes::range(buf, start..start + len))
            .unwrap_or_else(|| bytes.into()))
    }

    /// How many bytes are left to read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The bytes read since the reader had `remaining` bytes left (a
    /// [`remaining`](Self::remaining) taken earlier), as a range of the
    /// shared buffer; `None` on a copying reader, which has no buffer to
    /// share.
    pub fn held_since(&self, remaining: usize) -> Option<SharedBytes> {
        let buf = self.shared?;
        SharedBytes::range(buf, buf.len().checked_sub(remaining)?..self.offset())
    }

    /// Where the unread bytes start within the shared buffer.
    fn offset(&self) -> usize {
        self.shared.map_or(0, |buf| buf.len() - self.rest.len())
    }
}

/// Copies `bytes` over the front of `dst` and returns the rest of `dst`:
/// encoding in place, into a buffer sized beforehand.
///
/// # Panics
///
/// Panics if `dst` is shorter than `bytes`.
pub fn put<'a>(dst: &'a mut [u8], bytes: &[u8]) -> &'a mut [u8] {
    let (head, rest) = dst.split_at_mut(bytes.len());
    head.copy_from_slice(bytes);
    rest
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if buf.len() < n {
        return Err(DecodeError::UnexpectedEof);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

macro_rules! impl_codec_uint {
    ($($ty:ty),*) => {
        $(
            impl Encode for $ty {
                fn encode(&self, buf: &mut Vec<u8>) {
                    buf.extend_from_slice(&self.to_be_bytes());
                }
                fn encoded_len(&self) -> usize {
                    std::mem::size_of::<$ty>()
                }
            }
            impl Decode for $ty {
                const MIN_ENCODED_LEN: usize = std::mem::size_of::<$ty>();

                fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
                    let bytes = take(buf, std::mem::size_of::<$ty>())?;
                    let mut arr = [0u8; std::mem::size_of::<$ty>()];
                    arr.copy_from_slice(bytes);
                    Ok(<$ty>::from_be_bytes(arr))
                }
            }
        )*
    };
}

impl_codec_uint!(u8, u16, u32, u64);

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

/// Reads a sequence's count and returns it with the capacity to reserve:
/// no more elements than the `left` bytes after the count could encode.
fn seq_len<T: Decode>(buf: &mut &[u8]) -> Result<(u64, usize), DecodeError> {
    let len = u64::decode(buf)?;
    if len > MAX_SEQ_LEN {
        return Err(DecodeError::LengthOverflow(len));
    }
    let fits = buf.len() / T::MIN_ENCODED_LEN.max(1);
    Ok((len, (len as usize).min(fits)))
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_ENCODED_LEN: usize = 8;

    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let (len, capacity) = seq_len::<T>(buf)?;
        let mut out = Vec::with_capacity(capacity);
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }

    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (len, capacity) = seq_len::<T>(&mut reader.rest)?;
        let mut out = Vec::with_capacity(capacity);
        for _ in 0..len {
            out.push(reader.read()?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }

    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read::<u8>()? {
            0 => Ok(None),
            1 => Ok(Some(reader.read()?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl Encode for HashValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        HashValue::LEN
    }
}

impl Decode for HashValue {
    const MIN_ENCODED_LEN: usize = HashValue::LEN;

    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let bytes = take(buf, HashValue::LEN)?;
        let mut arr = [0u8; HashValue::LEN];
        arr.copy_from_slice(bytes);
        Ok(HashValue::from_bytes(arr))
    }
}

impl Encode for Signature {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.signer().encode(buf);
        buf.extend_from_slice(self.tag());
    }
    fn encoded_len(&self) -> usize {
        8 + 32
    }
}

impl Decode for Signature {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let signer = u64::decode(buf)?;
        let bytes = take(buf, 32)?;
        let mut tag = [0u8; 32];
        tag.copy_from_slice(bytes);
        Ok(Signature::from_tag(signer, tag))
    }
}

impl Encode for crate::ReplicaId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_u16().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        2
    }
}

impl Decode for crate::ReplicaId {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self::new(u16::decode(buf)?))
    }
}

impl Encode for crate::Round {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_u64().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for crate::Round {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self::new(u64::decode(buf)?))
    }
}

impl Encode for crate::Height {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_u64().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for crate::Height {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self::new(u64::decode(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Height, ReplicaId, Round};

    fn roundtrip<T: Encode + Decode + PartialEq + fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(bytes.len(), value.encoded_len());
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn id_roundtrips() {
        roundtrip(ReplicaId::new(99));
        roundtrip(Round::new(1 << 40));
        roundtrip(Height::new(7));
    }

    #[test]
    fn container_roundtrips() {
        let v: Vec<u64> = vec![1, 2, 3, u64::MAX];
        let bytes = v.to_bytes();
        assert_eq!(Vec::<u64>::from_bytes(&bytes).unwrap(), v);
        let o: Option<u32> = Some(5);
        assert_eq!(Option::<u32>::from_bytes(&o.to_bytes()).unwrap(), o);
        let n: Option<u32> = None;
        assert_eq!(Option::<u32>::from_bytes(&n.to_bytes()).unwrap(), n);
    }

    #[test]
    fn hash_signature_roundtrips() {
        roundtrip(HashValue::of(b"abc"));
        roundtrip(Signature::from_tag(3, [9u8; 32]));
    }

    #[test]
    fn eof_detected() {
        let bytes = 12345u64.to_bytes();
        assert_eq!(
            u64::from_bytes(&bytes[..4]),
            Err(DecodeError::UnexpectedEof)
        );
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 1u8.to_bytes();
        bytes.push(0);
        assert_eq!(u8::from_bytes(&bytes), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn bad_bool_tag() {
        assert_eq!(bool::from_bytes(&[2]), Err(DecodeError::InvalidTag(2)));
    }

    #[test]
    fn hostile_length_rejected() {
        let mut bytes = Vec::new();
        (u64::MAX).encode(&mut bytes);
        assert_eq!(
            Vec::<u8>::from_bytes(&bytes),
            Err(DecodeError::LengthOverflow(u64::MAX))
        );
    }

    #[test]
    fn option_bad_tag() {
        assert_eq!(
            Option::<u8>::from_bytes(&[7]),
            Err(DecodeError::InvalidTag(7))
        );
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::UnexpectedEof
            .to_string()
            .contains("end of input"));
        assert!(DecodeError::InvalidTag(3).to_string().contains('3'));
    }
}
