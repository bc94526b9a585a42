//! Incremental, validating frame decoding for every accepted
//! connection.
//!
//! A connection's byte stream carries length-prefixed [`Envelope`]
//! frames: a hello first, payload frames after. The hello decides what
//! the connection is — a [`ProtocolTag::Client`] hello makes it a client
//! (whatever identity it claims), a hello in the replica protocol naming
//! another member of the replica set makes it a peer, and anything else
//! is a [`Violation`]. The socket core's polls call
//! [`FrameDecoder::read_from`] — one `read` of whatever the socket has,
//! fed into the connection's decoder — and gets back fully validated
//! [`Delivery`]s, or [`Closed`], after which the connection must be
//! dropped (a transport does not forward bytes it cannot vouch for).
//!
//! Each delivered payload is one buffer of its own, exactly the payload's
//! size: what a replica decodes from it — a client's transaction, a
//! proposed block — holds ranges of it for as long as it lives, so a
//! buffer must pin no bytes but its frame's. A payload that arrived whole
//! within one read is copied out of the read buffer once; one still
//! arriving is given its buffer as soon as its head is read, and the rest
//! of it is read straight into that buffer.

use std::io::{self, Read};
use std::sync::Arc;

use sft_types::{Dest, FrameHead, ProtocolTag, ReplicaId, SimTime, MAX_FRAME_HEAD_LEN};

use crate::Delivery;

/// The most payload buffer allocated ahead of the bytes that fill it: a
/// frame whose head claims more grows its buffer as the bytes arrive, so
/// an unauthenticated connection cannot reserve 16 MiB with 18 bytes.
const PREALLOC_BOUND: usize = 1 << 20;

/// What a connection's hello bound: the identity it speaks for and the
/// tag every later frame must carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Hello {
    pub(crate) src: ReplicaId,
    pub(crate) tag: ProtocolTag,
}

/// Per-connection decode state: the part of a frame read so far, plus
/// what the hello bound.
pub(crate) struct FrameDecoder {
    /// The endpoint this connection delivers to.
    owner: ReplicaId,
    /// Replica-set size: a peer hello must name an id below it.
    n: usize,
    /// The replica protocol a peer hello must carry.
    protocol: ProtocolTag,
    /// The start of a frame whose head has not all arrived: fewer than
    /// [`MAX_FRAME_HEAD_LEN`] bytes.
    head: Vec<u8>,
    /// The frame whose head has arrived and whose payload is arriving.
    partial: Option<Partial>,
    hello: Option<Hello>,
    /// Set by the first [`Violation`]: every later ingest fails too.
    poisoned: bool,
}

/// A frame's payload, filling: its buffer and how much of it has arrived.
struct Partial {
    head: FrameHead,
    payload: Arc<[u8]>,
    filled: usize,
}

impl Partial {
    fn new(head: FrameHead) -> Self {
        Self {
            payload: zeroed(head.payload_len.min(PREALLOC_BOUND)),
            head,
            filled: 0,
        }
    }

    fn missing(&self) -> usize {
        self.head.payload_len - self.filled
    }

    /// The buffer for the next `len` bytes of the payload (at most
    /// [`missing`](Self::missing)), grown by doubling when it is shorter.
    fn spare(&mut self, len: usize) -> &mut [u8] {
        let end = self.filled + len.min(self.missing());
        if end > self.payload.len() {
            let capacity = end.max(2 * self.payload.len()).min(self.head.payload_len);
            let mut grown = zeroed(capacity);
            Arc::make_mut(&mut grown)[..self.filled].copy_from_slice(&self.payload[..self.filled]);
            self.payload = grown;
        }
        &mut Arc::make_mut(&mut self.payload)[self.filled..end]
    }

    /// Copies what `bytes` holds of the payload in; returns how much.
    fn fill(&mut self, bytes: &[u8]) -> usize {
        let spare = self.spare(bytes.len());
        let took = spare.len();
        spare.copy_from_slice(&bytes[..took]);
        self.filled += took;
        took
    }
}

/// A zero-filled buffer of `len` bytes, written in place.
fn zeroed(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0, len).collect()
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
            head: Vec::with_capacity(MAX_FRAME_HEAD_LEN),
            partial: None,
            hello: None,
            poisoned: false,
        }
    }

    /// What the hello bound, once seen: a client's tag and claimed
    /// identity (where its acks are addressed), or a peer's.
    pub(crate) fn hello(&self) -> Option<Hello> {
        self.hello
    }

    /// One `read` of `stream`, ingested: into `chunk`, or — when a frame
    /// is arriving whose missing payload would fill `chunk` — straight
    /// into that payload's buffer. Returns the byte count: `chunk.len()`
    /// means the socket may hold more, `0` that a non-blocking socket had
    /// nothing. Frames completed by a violating read are not appended to
    /// `out`.
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
            let direct = self
                .partial
                .as_mut()
                .filter(|partial| partial.missing() >= chunk.len());
            let read = match direct {
                Some(partial) => {
                    let read = stream.read(partial.spare(chunk.len()));
                    if let Ok(got) = read {
                        partial.filled += got;
                    }
                    read.map(|got| (got, 0))
                }
                None => stream.read(chunk).map(|got| (got, got)),
            };
            match read {
                Ok((0, _)) => return Err(Closed),
                Ok((read, buffered)) => {
                    let valid = out.len();
                    if self.ingest(&chunk[..buffered], out).is_err() {
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

    /// Takes in `bytes` and appends every frame they complete, if valid,
    /// to `out` as a [`Delivery`] (with `deliver_at`/`seq` zeroed — the
    /// polling side stamps arrival). The first frame of a connection is
    /// the hello: it binds the connection's role and identity and yields
    /// no delivery.
    ///
    /// # Errors
    ///
    /// Returns [`Violation`] when the stream breaks protocol; the
    /// decoder is then poisoned — it refuses every later byte — and the
    /// connection must be dropped.
    pub(crate) fn ingest(
        &mut self,
        bytes: &[u8],
        out: &mut Vec<Delivery>,
    ) -> Result<(), Violation> {
        if self.poisoned {
            return Err(Violation);
        }
        let taken = self.take_frames(bytes, out);
        self.poisoned = taken.is_err();
        taken
    }

    /// [`ingest`](Self::ingest) of a decoder not yet poisoned.
    fn take_frames(&mut self, mut bytes: &[u8], out: &mut Vec<Delivery>) -> Result<(), Violation> {
        loop {
            if let Some(partial) = &mut self.partial {
                bytes = &bytes[partial.fill(bytes)..];
                if partial.missing() > 0 {
                    return Ok(());
                }
                if let Some(Partial { head, payload, .. }) = self.partial.take() {
                    self.accept(&head, payload, out)?;
                }
                continue;
            }
            let Some((head, used)) = self.read_head(bytes)? else {
                return Ok(()); // every byte went into the head so far
            };
            bytes = &bytes[used..];
            match bytes.split_at_checked(head.payload_len) {
                Some((payload, rest)) => {
                    bytes = rest;
                    self.accept(&head, payload.into(), out)?;
                }
                None => self.partial = Some(Partial::new(head)),
            }
        }
    }

    /// The head of the next frame, read from what was held of it and then
    /// `bytes`, with how many of `bytes` it took; `None` when `bytes` ran
    /// out first (they are held for the next read).
    fn read_head(&mut self, bytes: &[u8]) -> Result<Option<(FrameHead, usize)>, Violation> {
        if self.head.is_empty() {
            let head = FrameHead::decode(bytes).map_err(|_| Violation)?;
            if head.is_none() {
                self.head.extend_from_slice(bytes);
            }
            return Ok(head.map(|head| (head, head.len)));
        }
        let held = self.head.len();
        let took = (MAX_FRAME_HEAD_LEN - held).min(bytes.len());
        self.head.extend_from_slice(&bytes[..took]);
        let Some(head) = FrameHead::decode(&self.head).map_err(|_| Violation)? else {
            return Ok(None);
        };
        self.head.clear();
        Ok(Some((head, head.len - held)))
    }

    /// Validates one complete frame against the connection's hello and,
    /// past the hello, appends it to `out`.
    fn accept(
        &mut self,
        head: &FrameHead,
        payload: Arc<[u8]>,
        out: &mut Vec<Delivery>,
    ) -> Result<(), Violation> {
        match head.dest {
            Dest::Broadcast => {}
            Dest::Peer(p) if p == self.owner => {}
            Dest::Peer(_) => return Err(Violation), // misrouted
        }
        let claim = Hello {
            src: head.src,
            tag: head.protocol,
        };
        match self.hello {
            // First frame is the hello. A client may claim any identity
            // (it shares no namespace with the replicas); a peer must be
            // another member of the replica set, in its protocol.
            None => {
                let peer = claim.tag == self.protocol
                    && claim.src.as_usize() < self.n
                    && claim.src != self.owner;
                if claim.tag != ProtocolTag::Client && !peer {
                    return Err(Violation);
                }
                self.hello = Some(claim);
                return Ok(());
            }
            // One connection, one identity, one protocol.
            Some(hello) if hello != claim => return Err(Violation),
            Some(_) => {}
        }
        out.push(Delivery {
            from: head.src,
            to: self.owner,
            payload,
            deliver_at: SimTime::ZERO, // stamped at poll
            seq: 0,                    // stamped at poll
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_crypto::{RngCore, SplitMix64};
    use sft_types::Envelope;

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
    fn a_read_packed_with_small_frames_delivers_every_one_in_order() {
        const FRAMES: u16 = 4096;
        let mut stream = hello(2, 0);
        for i in 0..FRAMES {
            stream.extend(payload_frame(2, 0, i.to_be_bytes().to_vec()));
        }
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), 4, ProtocolTag::Fbft);
        let mut out = Vec::new();
        decoder.ingest(&stream, &mut out).unwrap();
        let got: Vec<u16> = out
            .iter()
            .map(|d| u16::from_be_bytes([d.payload[0], d.payload[1]]))
            .collect();
        assert_eq!(got, (0..FRAMES).collect::<Vec<_>>());
        assert!(decoder.head.is_empty() && decoder.partial.is_none());
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
    fn a_frame_larger_than_a_read_fills_one_buffer_of_its_own_exact_size() {
        // Past the preallocation bound, so its buffer also grows.
        let big: Vec<u8> = (0..PREALLOC_BOUND + 4097)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut stream = hello(2, 0);
        stream.extend(payload_frame(2, 0, big.clone()));
        stream.extend(payload_frame(2, 0, vec![5, 6]));
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), 4, ProtocolTag::Fbft);
        let mut chunk = [0u8; 4096];
        let mut out = Vec::new();
        let mut reader = &stream[..];
        while decoder.read_from(&mut reader, &mut chunk, &mut out) != Err(Closed) {}
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].payload.len(), big.len(), "no slack pinned");
        assert_eq!(out[0].payload[..], big[..]);
        assert_eq!(out[1].payload[..], [5, 6]);
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

    /// A seeded connection stream to replica 0 of 4: a hello from peer 2
    /// (or from a client), then up to five frames of up to 96 payload
    /// bytes, each to replica 0 or broadcast.
    fn seeded_stream(rng: &mut SplitMix64) -> Vec<u8> {
        let (src, tag) = match rng.next_below(3) {
            0 => (ReplicaId::new(500), ProtocolTag::Client),
            _ => (ReplicaId::new(2), ProtocolTag::Fbft),
        };
        let mut stream = Envelope::to_peer(src, ReplicaId::new(0), tag, Vec::new()).to_frame();
        for _ in 0..1 + rng.next_below(5) {
            let mut payload = vec![0u8; rng.next_below(97) as usize];
            rng.fill_bytes(&mut payload);
            let frame = match rng.next_below(2) {
                0 => Envelope::broadcast(src, tag, payload),
                _ => Envelope::to_peer(src, ReplicaId::new(0), tag, payload),
            };
            stream.extend(frame.to_frame());
        }
        stream
    }

    /// Feeds `stream` to a fresh decoder in pieces cut at seeded points
    /// and checks the verdict: no panic; after a [`Violation`] every later
    /// ingest — a valid frame's included — is refused and delivers
    /// nothing; and every delivered frame re-encodes to exactly the bytes
    /// at its place in the stream. Returns whether the stream violated.
    fn check_stream(what: &str, stream: &[u8], rng: &mut SplitMix64) -> bool {
        let mut decoder = FrameDecoder::new(ReplicaId::new(0), 4, ProtocolTag::Fbft);
        let mut out = Vec::new();
        let mut violated = false;
        let mut rest = stream;
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(1 + rng.next_below(rest.len() as u64) as usize);
            rest = tail;
            let delivered = out.len();
            let verdict = decoder.ingest(piece, &mut out);
            if violated {
                assert_eq!(verdict, Err(Violation), "{what}: ingest after a violation");
                assert_eq!(out.len(), delivered, "{what}: delivery after a violation");
            }
            violated |= verdict.is_err();
        }
        if violated {
            let delivered = out.len();
            let valid = payload_frame(2, 0, vec![1]);
            assert_eq!(decoder.ingest(&valid, &mut out), Err(Violation), "{what}");
            assert_eq!(out.len(), delivered, "{what}: a poisoned decoder delivered");
        }
        let Some(hello) = decoder.hello() else {
            assert!(out.is_empty(), "{what}: deliveries without a hello");
            return violated;
        };
        let Ok(Some(head)) = FrameHead::decode(stream) else {
            panic!("{what}: a hello bound from bytes that hold none");
        };
        let mut at = head.frame_len();
        for delivery in &out {
            let payload = Arc::clone(&delivery.payload);
            let frame = [
                Envelope::broadcast(delivery.from, hello.tag, Arc::clone(&payload)),
                Envelope::to_peer(delivery.from, delivery.to, hello.tag, payload),
            ]
            .iter()
            .map(Envelope::to_frame)
            .find(|frame| stream[at..].starts_with(frame))
            .unwrap_or_else(|| {
                panic!("{what}: a frame delivered at byte {at} re-encodes otherwise")
            });
            at += frame.len();
        }
        violated
    }

    /// The mutations of the codec's canonicity suite, on connection
    /// streams: every truncation (never a violation: a stream cut short is
    /// only still arriving), bit flips, splices of two streams, and every
    /// offset overwritten with `u64::MAX`, `u32::MAX` and the 2^24 frame
    /// bound.
    #[test]
    fn mutated_streams_never_panic_stay_poisoned_and_deliver_only_their_own_frames() {
        const SAMPLES: usize = 12;
        let mut rng = SplitMix64::new(0xf4a3_0001);
        let streams: Vec<Vec<u8>> = (0..SAMPLES).map(|_| seeded_stream(&mut rng)).collect();
        for (i, stream) in streams.iter().enumerate() {
            assert!(!check_stream(&format!("stream #{i}"), stream, &mut rng));
            for cut in 0..stream.len() {
                let what = format!("stream #{i} cut at {cut}");
                assert!(!check_stream(&what, &stream[..cut], &mut rng), "{what}");
            }
            for _ in 0..48 {
                let mut flipped = stream.clone();
                let bit = rng.next_below(8 * stream.len() as u64) as usize;
                flipped[bit / 8] ^= 1 << (bit % 8);
                check_stream(
                    &format!("stream #{i} bit {bit} flipped"),
                    &flipped,
                    &mut rng,
                );
            }
            let other = &streams[rng.next_below(SAMPLES as u64) as usize];
            for _ in 0..8 {
                let head = rng.next_below(stream.len() as u64 + 1) as usize;
                let tail = rng.next_below(other.len() as u64 + 1) as usize;
                let spliced = [&stream[..head], &other[tail..]].concat();
                check_stream(
                    &format!("stream #{i} spliced at {head}/{tail}"),
                    &spliced,
                    &mut rng,
                );
            }
            for at in 0..stream.len() {
                for value in [u64::MAX, u64::from(u32::MAX), 1 << 24] {
                    let value = value.to_be_bytes();
                    for width in [4, 8] {
                        let Some(end) = Some(at + width).filter(|&end| end <= stream.len()) else {
                            continue;
                        };
                        let mut inflated = stream.clone();
                        inflated[at..end].copy_from_slice(&value[8 - width..]);
                        let what = format!("stream #{i} inflated at {at}");
                        check_stream(&what, &inflated, &mut rng);
                    }
                }
            }
        }
    }
}
