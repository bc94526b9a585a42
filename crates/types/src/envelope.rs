//! The wire envelope shared by every transport.
//!
//! An [`Envelope`] is the unit both transports move: the source replica, a
//! destination (one peer or a broadcast), a [`ProtocolTag`] naming the
//! protocol family the payload belongs to, and the opaque encoded message
//! bytes. It formalizes the `Arc<[u8]>` shape the deterministic simulator
//! always used — a broadcast encodes its message once and every recipient
//! shares the buffer — so the TCP transport and the simulator speak the
//! same unit and a replica engine cannot tell them apart.
//!
//! ## Framing
//!
//! Sockets deliver byte streams, not messages, so the envelope also
//! defines its own length-prefixed framing: a 4-byte big-endian body
//! length (bounded by [`MAX_FRAME_LEN`]) followed by the encoded envelope.
//! [`Envelope::decode_frame`] is incremental — it distinguishes "not
//! enough bytes yet" (`Ok(None)`) from "malformed" (`Err`) — which is
//! exactly what a socket reader needs.
//!
//! ## Example
//!
//! ```
//! use sft_types::{Dest, Envelope, ProtocolTag, ReplicaId};
//!
//! let env = Envelope::broadcast(ReplicaId::new(2), ProtocolTag::Fbft, vec![1, 2, 3]);
//! let frame = env.to_frame();
//! let (back, used) = Envelope::decode_frame(&frame).unwrap().unwrap();
//! assert_eq!(used, frame.len());
//! assert_eq!(back, env);
//! assert_eq!(back.dest, Dest::Broadcast);
//! ```

use std::fmt;
use std::sync::Arc;

use crate::codec::{Decode, DecodeError, Encode};
use crate::ReplicaId;

/// Upper bound on a frame body (and therefore on a payload): 16 MiB.
/// A hostile or corrupt length prefix beyond this is rejected before any
/// allocation happens.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Bytes of the length prefix in front of every frame body.
pub const FRAME_HEADER_LEN: usize = 4;

/// Where an envelope is going: one named peer, or everyone but the sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dest {
    /// Deliver to every replica except the source.
    Broadcast,
    /// Deliver to exactly this replica.
    Peer(ReplicaId),
}

impl Encode for Dest {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Dest::Broadcast => buf.push(0),
            Dest::Peer(id) => {
                buf.push(1);
                id.encode(buf);
            }
        }
    }
}

impl Decode for Dest {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(Dest::Broadcast),
            1 => Ok(Dest::Peer(ReplicaId::decode(buf)?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Which protocol family an envelope's payload belongs to. A transport is
/// configured with one tag and drops frames carrying another, so a
/// Streamlet deployment can never accidentally feed DiemBFT bytes to a
/// Streamlet replica (or vice versa).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolTag {
    /// SFT-Streamlet (Appendix D) messages.
    Streamlet,
    /// SFT-DiemBFT (§2–§3) messages.
    Fbft,
    /// Client-plane frames ([`crate::ClientFrame`]): submissions into a
    /// replica's mempool and strength-graded acks streamed back. Rides
    /// the same envelope framing as replica traffic but is routed to the
    /// client gateway, never into a consensus engine.
    Client,
}

impl Encode for ProtocolTag {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            ProtocolTag::Streamlet => 0,
            ProtocolTag::Fbft => 1,
            ProtocolTag::Client => 2,
        });
    }
}

impl Decode for ProtocolTag {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(ProtocolTag::Streamlet),
            1 => Ok(ProtocolTag::Fbft),
            2 => Ok(ProtocolTag::Client),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// One transport-level message: source, destination, protocol tag, and the
/// opaque encoded payload. The payload is reference-counted so a broadcast
/// costs one encoding regardless of fan-out.
#[derive(Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The sending replica.
    pub src: ReplicaId,
    /// One peer, or a broadcast to everyone but the source.
    pub dest: Dest,
    /// The protocol family the payload belongs to.
    pub protocol: ProtocolTag,
    /// The encoded protocol message, shared across recipients.
    pub payload: Arc<[u8]>,
}

impl Envelope {
    /// A broadcast envelope.
    pub fn broadcast(src: ReplicaId, protocol: ProtocolTag, payload: impl Into<Arc<[u8]>>) -> Self {
        Self {
            src,
            dest: Dest::Broadcast,
            protocol,
            payload: payload.into(),
        }
    }

    /// A point-to-point envelope.
    pub fn to_peer(
        src: ReplicaId,
        to: ReplicaId,
        protocol: ProtocolTag,
        payload: impl Into<Arc<[u8]>>,
    ) -> Self {
        Self {
            src,
            dest: Dest::Peer(to),
            protocol,
            payload: payload.into(),
        }
    }

    /// Encodes the envelope behind its 4-byte length prefix — the exact
    /// bytes a socket writer sends — in one pass over the payload.
    ///
    /// # Panics
    ///
    /// Panics if the encoded body exceeds [`MAX_FRAME_LEN`] (a payload that
    /// large could never be decoded by a peer, so sending it is a bug).
    pub fn to_frame(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + self.encoded_len());
        self.head_into(&mut frame);
        frame.extend_from_slice(&self.payload);
        frame
    }

    /// [`to_frame`](Self::to_frame)'s bytes as one shared buffer, written
    /// in place: what a transport fans out to every recipient's queue.
    ///
    /// # Panics
    ///
    /// Panics as [`to_frame`](Self::to_frame) does.
    pub fn to_shared_frame(&self) -> Arc<[u8]> {
        let mut head = Vec::with_capacity(MAX_FRAME_HEAD_LEN);
        self.head_into(&mut head);
        let mut frame: Arc<[u8]> =
            std::iter::repeat_n(0, head.len() + self.payload.len()).collect();
        let bytes = Arc::make_mut(&mut frame);
        bytes[..head.len()].copy_from_slice(&head);
        bytes[head.len()..].copy_from_slice(&self.payload);
        frame
    }

    /// Appends the frame's bytes up to the payload: the length prefix and
    /// every envelope field.
    fn head_into(&self, buf: &mut Vec<u8>) {
        let body_len = self.encoded_len();
        assert!(
            body_len <= MAX_FRAME_LEN,
            "envelope body {body_len}B exceeds MAX_FRAME_LEN"
        );
        buf.extend_from_slice(&(body_len as u32).to_be_bytes());
        self.src.encode(buf);
        self.dest.encode(buf);
        self.protocol.encode(buf);
        (self.payload.len() as u64).encode(buf);
    }

    /// Attempts to decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` while `buf` holds only part of a frame (read
    /// more bytes and retry), or `Ok(Some((envelope, consumed)))` when a
    /// complete frame was decoded — `consumed` is the number of bytes the
    /// frame occupied, so a reader can advance its buffer and decode the
    /// next one.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the bytes can never become a valid
    /// frame: a length prefix beyond [`MAX_FRAME_LEN`], or a body that
    /// fails to decode (bad tags, truncated fields, trailing bytes).
    pub fn decode_frame(buf: &[u8]) -> Result<Option<(Envelope, usize)>, DecodeError> {
        let Some(head) = FrameHead::decode(buf)? else {
            return Ok(None);
        };
        let Some(payload) = buf.get(head.len..head.frame_len()) else {
            return Ok(None);
        };
        Ok(Some((head.with_payload(payload.into()), head.frame_len())))
    }
}

/// The most bytes a frame takes up to its payload: the length prefix, the
/// source, a peer destination, the protocol tag and the payload length.
pub const MAX_FRAME_HEAD_LEN: usize = FRAME_HEADER_LEN + 2 + 3 + 1 + 8;

/// Everything a frame says before its payload, checked: what a socket
/// reader needs to know to give the payload a buffer of its own before the
/// payload has arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHead {
    /// The sending replica.
    pub src: ReplicaId,
    /// One peer, or a broadcast.
    pub dest: Dest,
    /// The protocol family.
    pub protocol: ProtocolTag,
    /// Bytes from the start of the frame to its payload.
    pub len: usize,
    /// Bytes of payload that follow.
    pub payload_len: usize,
}

impl FrameHead {
    /// Decodes the head of the frame at the front of `buf`: `Ok(None)`
    /// while `buf` holds only part of it.
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeError`] [`Envelope::decode_frame`] would return
    /// for the whole frame, as soon as the head shows it: a length prefix
    /// beyond [`MAX_FRAME_LEN`], a bad tag, or a payload length that does
    /// not fill the body exactly.
    pub fn decode(buf: &[u8]) -> Result<Option<FrameHead>, DecodeError> {
        let Some(prefix) = buf.first_chunk::<FRAME_HEADER_LEN>() else {
            return Ok(None);
        };
        let body_len = u32::from_be_bytes(*prefix) as usize;
        if body_len > MAX_FRAME_LEN {
            return Err(DecodeError::LengthOverflow(body_len as u64));
        }
        let body = &buf[FRAME_HEADER_LEN..buf.len().min(FRAME_HEADER_LEN + body_len)];
        let mut fields = body;
        let read = |fields: &mut &[u8]| -> Result<_, DecodeError> {
            Ok((
                ReplicaId::decode(fields)?,
                Dest::decode(fields)?,
                ProtocolTag::decode(fields)?,
                u64::decode(fields)?,
            ))
        };
        let (src, dest, protocol, payload_len) = match read(&mut fields) {
            Err(DecodeError::UnexpectedEof) if body.len() < body_len => return Ok(None),
            parsed => parsed?,
        };
        let head_len = body.len() - fields.len();
        if payload_len > MAX_FRAME_LEN as u64 {
            return Err(DecodeError::LengthOverflow(payload_len));
        }
        let left = body_len - head_len;
        match left.cmp(&(payload_len as usize)) {
            std::cmp::Ordering::Less => Err(DecodeError::UnexpectedEof),
            std::cmp::Ordering::Greater => {
                Err(DecodeError::TrailingBytes(left - payload_len as usize))
            }
            std::cmp::Ordering::Equal => Ok(Some(FrameHead {
                src,
                dest,
                protocol,
                len: FRAME_HEADER_LEN + head_len,
                payload_len: payload_len as usize,
            })),
        }
    }

    /// Bytes of the whole frame, head and payload.
    pub fn frame_len(&self) -> usize {
        self.len + self.payload_len
    }

    /// The envelope this head and `payload` make.
    pub fn with_payload(&self, payload: Arc<[u8]>) -> Envelope {
        Envelope {
            src: self.src,
            dest: self.dest,
            protocol: self.protocol,
            payload,
        }
    }
}

impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Envelope({} -> {:?} {:?} {}B)",
            self.src,
            self.dest,
            self.protocol,
            self.payload.len()
        )
    }
}

impl Encode for Envelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.src.encode(buf);
        self.dest.encode(buf);
        self.protocol.encode(buf);
        (self.payload.len() as u64).encode(buf);
        buf.extend_from_slice(&self.payload);
    }
    fn encoded_len(&self) -> usize {
        let dest = match self.dest {
            Dest::Broadcast => 1,
            Dest::Peer(_) => 3,
        };
        2 + dest + 1 + 8 + self.payload.len()
    }
}

impl Decode for Envelope {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let src = ReplicaId::decode(buf)?;
        let dest = Dest::decode(buf)?;
        let protocol = ProtocolTag::decode(buf)?;
        let len = u64::decode(buf)?;
        if len > MAX_FRAME_LEN as u64 {
            return Err(DecodeError::LengthOverflow(len));
        }
        let len = len as usize;
        if buf.len() < len {
            return Err(DecodeError::UnexpectedEof);
        }
        let (payload, rest) = buf.split_at(len);
        let payload: Arc<[u8]> = payload.into();
        *buf = rest;
        Ok(Self {
            src,
            dest,
            protocol,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Envelope {
        Envelope::to_peer(
            ReplicaId::new(3),
            ReplicaId::new(1),
            ProtocolTag::Streamlet,
            vec![0xde, 0xad, 0xbe, 0xef],
        )
    }

    #[test]
    fn envelope_roundtrips() {
        let e = env();
        let back = Envelope::from_bytes(&e.to_bytes()).expect("decode");
        assert_eq!(back, e);
    }

    #[test]
    fn frame_roundtrips_and_reports_consumed() {
        let e = env();
        let frame = e.to_frame();
        let (back, used) = Envelope::decode_frame(&frame).unwrap().unwrap();
        assert_eq!(used, frame.len());
        assert_eq!(back, e);
    }

    #[test]
    fn incomplete_frames_ask_for_more_bytes() {
        let frame = env().to_frame();
        for cut in 0..frame.len() {
            assert_eq!(
                Envelope::decode_frame(&frame[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes is incomplete, not malformed"
            );
        }
    }

    #[test]
    fn concatenated_frames_decode_in_sequence() {
        let a = env();
        let b = Envelope::broadcast(ReplicaId::new(0), ProtocolTag::Fbft, vec![7; 32]);
        let mut stream = a.to_frame();
        stream.extend_from_slice(&b.to_frame());
        let (first, used) = Envelope::decode_frame(&stream).unwrap().unwrap();
        assert_eq!(first, a);
        let (second, used2) = Envelope::decode_frame(&stream[used..]).unwrap().unwrap();
        assert_eq!(second, b);
        assert_eq!(used + used2, stream.len());
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocation() {
        let frame = u32::MAX.to_be_bytes();
        assert!(matches!(
            Envelope::decode_frame(&frame),
            Err(DecodeError::LengthOverflow(_))
        ));
    }

    #[test]
    fn garbage_body_is_an_error_not_a_stall() {
        // A complete frame whose body is junk must fail loudly.
        let mut frame = 4u32.to_be_bytes().to_vec();
        frame.extend_from_slice(&[0xff; 4]);
        assert!(Envelope::decode_frame(&frame).is_err());
    }

    #[test]
    fn payload_length_must_match_the_body() {
        // Claim an 8-byte payload but supply 2: EOF inside the body.
        let mut body = Vec::new();
        ReplicaId::new(0).encode(&mut body);
        Dest::Broadcast.encode(&mut body);
        ProtocolTag::Fbft.encode(&mut body);
        8u64.encode(&mut body);
        body.extend_from_slice(&[1, 2]);
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&body);
        assert_eq!(
            Envelope::decode_frame(&frame),
            Err(DecodeError::UnexpectedEof)
        );
    }
}
