//! Incremental, validating frame decoding for every accepted
//! connection.
//!
//! A connection's byte stream carries length-prefixed [`Envelope`]
//! frames: a hello first, payload frames after. The hello decides what
//! the connection is — a [`ProtocolTag::Client`] hello makes it a client
//! (whatever identity it claims), a hello in the replica protocol naming
//! another member of the replica set makes it a peer, and anything else
//! is a [`Violation`]. The socket core's I/O thread calls
//! [`FrameDecoder::read_from`] — one `read` of whatever the socket has,
//! fed into the connection's decoder — and gets back fully validated
//! [`Delivery`]s, or [`Closed`], after which the connection must be
//! dropped (a transport does not forward bytes it cannot vouch for).

use std::io::{self, Read};

use sft_types::{Dest, Envelope, ProtocolTag, ReplicaId, SimTime};

use crate::Delivery;

/// What a connection's hello bound: the identity it speaks for and the
/// tag every later frame must carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Hello {
    pub(crate) src: ReplicaId,
    pub(crate) tag: ProtocolTag,
}

/// Per-connection decode state: the partial-frame buffer plus what the
/// hello bound.
pub(crate) struct FrameDecoder {
    /// The endpoint this connection delivers to.
    owner: ReplicaId,
    /// Replica-set size: a peer hello must name an id below it.
    n: usize,
    /// The replica protocol a peer hello must carry.
    protocol: ProtocolTag,
    buf: Vec<u8>,
    hello: Option<Hello>,
}

/// The stream broke protocol: malformed frame, a hello that is neither a
/// client's nor a valid peer's, wrong [`ProtocolTag`], misrouted
/// destination, or a source switch mid-connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Violation;

/// The connection is over: EOF, a socket error, or a [`Violation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Closed;

impl FrameDecoder {
    /// A decoder for a connection accepted by `owner`, one of `n`
    /// replicas speaking `protocol`.
    pub(crate) fn new(owner: ReplicaId, n: usize, protocol: ProtocolTag) -> Self {
        Self {
            owner,
            n,
            protocol,
            buf: Vec::with_capacity(64 * 1024),
            hello: None,
        }
    }

    /// What the hello bound, once seen: a client's tag and claimed
    /// identity (where its acks are addressed), or a peer's.
    pub(crate) fn hello(&self) -> Option<Hello> {
        self.hello
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
    /// hello: it binds the connection's role and identity and yields no
    /// delivery.
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
                    match env.dest {
                        Dest::Broadcast => {}
                        Dest::Peer(p) if p == self.owner => {}
                        Dest::Peer(_) => return Err(Violation), // misrouted
                    }
                    let claim = Hello {
                        src: env.src,
                        tag: env.protocol,
                    };
                    match self.hello {
                        // First frame is the hello. A client may claim
                        // any identity (it shares no namespace with the
                        // replicas); a peer must be another member of
                        // the replica set, in its protocol.
                        None => {
                            let peer = claim.tag == self.protocol
                                && claim.src.as_usize() < self.n
                                && claim.src != self.owner;
                            if claim.tag != ProtocolTag::Client && !peer {
                                return Err(Violation);
                            }
                            self.hello = Some(claim);
                            continue;
                        }
                        // One connection, one identity, one protocol.
                        Some(hello) if hello != claim => return Err(Violation),
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
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), 4, ProtocolTag::Fbft);
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
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), 4, ProtocolTag::Fbft);
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
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), 4, ProtocolTag::Fbft);
        assert_eq!(decoder.ingest(&frame, &mut Vec::new()), Err(Violation));
    }

    #[test]
    fn misrouted_destination_is_a_violation() {
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), 4, ProtocolTag::Fbft);
        let frame = payload_frame(1, 3, vec![1]);
        assert_eq!(decoder.ingest(&frame, &mut Vec::new()), Err(Violation));
    }

    #[test]
    fn source_switch_mid_connection_is_a_violation() {
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), 4, ProtocolTag::Fbft);
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

    #[test]
    fn a_peer_hello_must_name_another_member_of_the_replica_set() {
        let decoder = || FrameDecoder::new(ReplicaId::new(0), 4, ProtocolTag::Fbft);
        for (src, why) in [
            (0, "the owner itself"),
            (4, "one past n"),
            (9, "far past n"),
        ] {
            assert_eq!(
                decoder().ingest(&hello(src, 0), &mut Vec::new()),
                Err(Violation),
                "a peer hello naming {why} is refused"
            );
        }
        let mut valid = decoder();
        valid.ingest(&hello(3, 0), &mut Vec::new()).unwrap();
        assert_eq!(
            valid.hello(),
            Some(Hello {
                src: ReplicaId::new(3),
                tag: ProtocolTag::Fbft
            })
        );
    }

    #[test]
    fn a_client_hello_may_claim_any_identity_but_binds_the_client_tag() {
        let client = |payload: Vec<u8>| {
            Envelope::to_peer(
                ReplicaId::new(500),
                ReplicaId::new(0),
                ProtocolTag::Client,
                payload,
            )
            .to_frame()
        };
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), 4, ProtocolTag::Fbft);
        let mut out = Vec::new();
        decoder.ingest(&client(Vec::new()), &mut out).unwrap();
        assert_eq!(decoder.hello().map(|h| h.tag), Some(ProtocolTag::Client));
        decoder.ingest(&client(vec![1]), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].from, ReplicaId::new(500));
        // A client connection never turns into a replica one.
        let replica_frame = Envelope::to_peer(
            ReplicaId::new(500),
            ReplicaId::new(0),
            ProtocolTag::Fbft,
            vec![2],
        )
        .to_frame();
        assert_eq!(decoder.ingest(&replica_frame, &mut out), Err(Violation));
    }
}
