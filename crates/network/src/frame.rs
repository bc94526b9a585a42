//! Incremental, validating frame decoding shared by every socket
//! reader.
//!
//! A connection's byte stream carries length-prefixed [`Envelope`]
//! frames: a hello naming the peer first, payload frames after. The
//! cluster's readiness-driven I/O thread and the node transport's
//! per-connection blocking readers both call
//! [`FrameDecoder::read_from`] — one `read` of whatever the socket has,
//! fed into the connection's decoder — and get back fully validated
//! [`Delivery`]s, or [`Closed`], after which the connection must be
//! dropped (a transport does not forward bytes it cannot vouch for).

use std::io::{self, Read};

use sft_types::{Dest, Envelope, ProtocolTag, ReplicaId, SimTime};

use crate::Delivery;

/// Per-connection decode state: the partial-frame buffer plus the peer
/// identity claimed by the hello frame.
pub(crate) struct FrameDecoder {
    /// The endpoint this connection delivers to.
    owner: ReplicaId,
    protocol: ProtocolTag,
    buf: Vec<u8>,
    /// Source named by the hello; every later frame must match.
    claimed_src: Option<ReplicaId>,
}

/// The stream broke protocol: malformed frame, wrong [`ProtocolTag`],
/// misrouted destination, or a source switch mid-connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Violation;

/// The connection is over: EOF, a socket error, or a [`Violation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Closed;

impl FrameDecoder {
    pub(crate) fn new(owner: ReplicaId, protocol: ProtocolTag) -> Self {
        Self {
            owner,
            protocol,
            buf: Vec::with_capacity(64 * 1024),
            claimed_src: None,
        }
    }

    /// The peer identity the hello frame bound, once seen. Client
    /// gateways use it to address acks back down the connection.
    pub(crate) fn src(&self) -> Option<ReplicaId> {
        self.claimed_src
    }

    /// One `read` of `stream` into `chunk`, ingested. Returns the byte
    /// count: `chunk.len()` means the socket may hold more, `0` that a
    /// non-blocking socket had nothing. Frames completed by a violating
    /// read are not appended to `out`.
    ///
    /// # Errors
    ///
    /// [`Closed`] on EOF, a socket error, or bytes that break protocol.
    pub(crate) fn read_from(
        &mut self,
        stream: &mut impl Read,
        chunk: &mut [u8],
        out: &mut Vec<Delivery>,
    ) -> Result<usize, Closed> {
        loop {
            match stream.read(chunk) {
                Ok(0) => return Err(Closed),
                Ok(read) => {
                    let valid = out.len();
                    if self.ingest(&chunk[..read], out).is_err() {
                        out.truncate(valid);
                        return Err(Closed);
                    }
                    return Ok(read);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Closed),
            }
        }
    }

    /// Buffers `bytes` and appends every complete, valid frame to `out`
    /// as a [`Delivery`] (with `deliver_at`/`seq` zeroed — the polling
    /// side stamps arrival). The first frame of a connection is the
    /// hello: it binds the peer identity and yields no delivery.
    ///
    /// # Errors
    ///
    /// Returns [`Violation`] when the stream breaks protocol; the
    /// decoder is then poisoned and the connection must be dropped.
    pub(crate) fn ingest(
        &mut self,
        bytes: &[u8],
        out: &mut Vec<Delivery>,
    ) -> Result<(), Violation> {
        self.buf.extend_from_slice(bytes);
        loop {
            match Envelope::decode_frame(&self.buf) {
                Ok(None) => return Ok(()),
                Err(_) => return Err(Violation), // malformed stream
                Ok(Some((env, used))) => {
                    self.buf.drain(..used);
                    if env.protocol != self.protocol {
                        return Err(Violation); // wrong protocol family
                    }
                    match env.dest {
                        Dest::Broadcast => {}
                        Dest::Peer(p) if p == self.owner => {}
                        Dest::Peer(_) => return Err(Violation), // misrouted
                    }
                    match self.claimed_src {
                        // First frame is the hello: it names the peer
                        // this connection speaks for, no payload.
                        None => {
                            self.claimed_src = Some(env.src);
                            continue;
                        }
                        // One connection, one peer identity.
                        Some(src) if src != env.src => return Err(Violation),
                        Some(_) => {}
                    }
                    out.push(Delivery {
                        from: env.src,
                        to: self.owner,
                        payload: env.payload,
                        deliver_at: SimTime::ZERO, // stamped at poll
                        seq: 0,                    // stamped at poll
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello(from: u16, to: u16) -> Vec<u8> {
        Envelope::to_peer(
            ReplicaId::new(from),
            ReplicaId::new(to),
            ProtocolTag::Fbft,
            Vec::new(),
        )
        .to_frame()
    }

    fn payload_frame(from: u16, to: u16, payload: Vec<u8>) -> Vec<u8> {
        Envelope::to_peer(
            ReplicaId::new(from),
            ReplicaId::new(to),
            ProtocolTag::Fbft,
            payload,
        )
        .to_frame()
    }

    #[test]
    fn hello_then_frames_split_at_arbitrary_boundaries() {
        let mut stream = hello(2, 0);
        stream.extend(payload_frame(2, 0, vec![7, 8]));
        stream.extend(payload_frame(2, 0, vec![9]));
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), ProtocolTag::Fbft);
        let mut out = Vec::new();
        // Byte-at-a-time ingestion: framing never depends on read sizes.
        for byte in stream {
            decoder.ingest(&[byte], &mut out).unwrap();
        }
        assert_eq!(out.len(), 2, "the hello yields no delivery");
        assert_eq!(out[0].payload[..], [7, 8]);
        assert_eq!(out[1].payload[..], [9]);
        assert!(out.iter().all(|d| d.from == ReplicaId::new(2)));
        assert!(out.iter().all(|d| d.to == ReplicaId::new(0)));
    }

    #[test]
    fn read_from_ingests_one_read_and_reports_eof_and_violations_as_closed() {
        let mut stream = hello(2, 0);
        stream.extend(payload_frame(2, 0, vec![7]));
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), ProtocolTag::Fbft);
        let mut chunk = [0u8; 1024];
        let mut out = Vec::new();
        let mut reader = &stream[..];
        assert_eq!(
            decoder.read_from(&mut reader, &mut chunk, &mut out),
            Ok(stream.len())
        );
        assert_eq!(out.len(), 1);
        assert_eq!(
            decoder.read_from(&mut reader, &mut chunk, &mut out),
            Err(Closed),
            "EOF"
        );
        // A read that breaks protocol contributes nothing — not even the
        // valid frame ahead of the violation — and keeps what was there.
        let mut bad = payload_frame(2, 0, vec![8]);
        bad.extend(payload_frame(3, 0, vec![9])); // source switch
        assert_eq!(
            decoder.read_from(&mut &bad[..], &mut chunk, &mut out),
            Err(Closed)
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload[..], [7]);
    }

    #[test]
    fn wrong_protocol_is_a_violation() {
        let frame = Envelope::to_peer(
            ReplicaId::new(1),
            ReplicaId::new(0),
            ProtocolTag::Streamlet,
            Vec::new(),
        )
        .to_frame();
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), ProtocolTag::Fbft);
        assert_eq!(decoder.ingest(&frame, &mut Vec::new()), Err(Violation));
    }

    #[test]
    fn misrouted_destination_is_a_violation() {
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), ProtocolTag::Fbft);
        let frame = payload_frame(1, 3, vec![1]);
        assert_eq!(decoder.ingest(&frame, &mut Vec::new()), Err(Violation));
    }

    #[test]
    fn source_switch_mid_connection_is_a_violation() {
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), ProtocolTag::Fbft);
        let mut out = Vec::new();
        decoder.ingest(&hello(1, 0), &mut out).unwrap();
        decoder
            .ingest(&payload_frame(1, 0, vec![5]), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            decoder.ingest(&payload_frame(2, 0, vec![6]), &mut out),
            Err(Violation),
            "one connection speaks for one peer"
        );
    }
}
