//! SHA-256 implemented from FIPS 180-4.
//!
//! The approved offline dependency set contains no cryptographic crates, so
//! the hash function assumed by the paper (§2, "a cryptographic hash function
//! `H(·)`") is implemented here from the specification and validated against
//! the NIST test vectors in this module's unit tests.
//!
//! # Kernels and dispatch
//!
//! A *kernel* is a function that folds a run of whole 64-byte blocks into
//! the eight-word chaining state. There are two:
//!
//! - `compress_portable` — FIPS 180-4 §6.2.2 in plain integer arithmetic.
//!   Runs everywhere, and is the reference every other kernel is
//!   differentially tested against.
//! - `compress_sha_ni` — the same function on the x86 SHA extensions
//!   (`sha256rnds2`, `sha256msg1`, `sha256msg2`), x86-64 only.
//!
//! [`Sha256::update`] calls `compress` at most twice (for the block its
//! buffer completes, then for the whole aligned run behind it) and
//! [`Sha256::finalize`] once; `compress` tries `compress_hardware` and falls
//! back to the portable kernel. The choice is made from what the CPU reports
//! (`is_x86_feature_detected!`, a cached load) and from nothing else: no
//! cargo feature, environment variable or option selects a kernel, and
//! [`Sha256::kernel`] only *reports* the outcome. Every kernel produces the
//! same digests, so nothing above this module can observe which one ran.
//!
//! # The one `unsafe`
//!
//! `compress_sha_ni` is a safe `#[target_feature]` function whose body is
//! safe code (register intrinsics only — no pointer is ever formed), so the
//! only obligation is the one the compiler cannot discharge: it must run on
//! a CPU that has the features it was compiled with. `compress_hardware`
//! checks exactly those features immediately before the call, and that call
//! is the crate's single `unsafe` block; `scripts/check_unsafe` keeps it at
//! one.
//!
//! # Adding an architecture
//!
//! Write `compress_<isa>(state, blocks)` under the matching
//! `#[cfg(target_arch)]`, give `compress_hardware` a branch that detects the
//! feature and calls it, and name it in [`Sha256::kernel`]. The tests at the
//! bottom of this file (`kernels()`) then run every vector and the
//! differential sweep against it without being edited.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// Internal block size of SHA-256 in bytes (also the HMAC block size).
pub const BLOCK_LEN: usize = 64;

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use sft_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"abc");
/// let digest = hasher.finalize();
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Which compression kernel this process runs: `"sha-ni"` on an x86-64
    /// CPU with the SHA extensions, `"portable"` anywhere else. For logs
    /// and benchmark reports — it selects nothing.
    #[must_use]
    pub fn kernel() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if sha_ni_detected() {
            return "sha-ni";
        }
        "portable"
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // The whole aligned middle goes to the kernel as one run, straight
        // from the caller's slice.
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length, ending
        // on a block boundary — one block if the length field still fits
        // behind the buffered bytes, two if not.
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let end = if self.buf_len < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        let bit_len = self.total_len.wrapping_mul(8);
        tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &tail[..end]);

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

/// Folds `blocks` (a whole number of 64-byte blocks) into `state` with the
/// fastest kernel this CPU has.
#[inline]
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    #[cfg(test)]
    BLOCKS_COMPRESSED.with(|n| n.set(n.get() + (blocks.len() / BLOCK_LEN) as u64));
    if !compress_hardware(state, blocks) {
        compress_portable(state, blocks);
    }
}

/// Runs the hardware kernel over `blocks` if this CPU has one. Returns
/// `false`, with `state` untouched, if it does not.
#[inline]
#[allow(unsafe_code)] // the one feature-gated call below; scripts/check_unsafe holds the line
fn compress_hardware(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        // SAFETY: `compress_sha_ni` is a safe function of its arguments; the
        // call is `unsafe` only because it is compiled for the CPU features
        // `sha`, `sse2`, `ssse3` and `sse4.1`, and `sha_ni_detected` has just
        // confirmed that the running CPU has every one of them.
        unsafe { compress_sha_ni(state, blocks) };
        return true;
    }
    // No hardware kernel on this architecture, or not on this CPU.
    let _ = (state, blocks);
    false
}

/// True when the CPU has every feature `compress_sha_ni` is compiled for.
#[cfg(target_arch = "x86_64")]
#[inline]
fn sha_ni_detected() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse2")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// The portable kernel, and the reference for every other one: FIPS 180-4
/// §6.2.2, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The x86 SHA-extension kernel. The chaining state stays in two registers
/// across the whole run: `sha256rnds2` wants it as `(A,B,E,F)` and
/// `(C,D,G,H)`, high lane first, and does two rounds per issue on the low
/// two lanes of `w + k`; `sha256msg1`/`sha256msg2` extend the message
/// schedule four words at a time. Structure after Intel's "SHA Extensions"
/// white paper (Gulley et al., 2013).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // Schedule words w[4g..4g + 4] of `block`, for g < 4.
    let load = |block: &[u8], g: usize| {
        let half = |at: usize| {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&block[16 * g + at..16 * g + at + 8]);
            i64::from_le_bytes(bytes)
        };
        _mm_shuffle_epi8(_mm_set_epi64x(half(8), half(0)), byte_swap)
    };
    // Schedule words w[t..t + 4], t ≥ 16, from the four groups before them,
    // oldest first: w[t] = σ1(w[t-2]) + w[t-7] + σ0(w[t-15]) + w[t-16].
    let extend = |m0: __m128i, m1: __m128i, m2: __m128i, m3: __m128i| {
        let w_minus_7 = _mm_alignr_epi8(m3, m2, 4);
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), w_minus_7);
        _mm_sha256msg2_epu32(partial, m3)
    };
    // Rounds 4g..4g + 4 over schedule words `w`.
    let rounds = |(abef, cdgh): (__m128i, __m128i), w: __m128i, g: usize| {
        let k = _mm_set_epi32(
            K[4 * g + 3].cast_signed(),
            K[4 * g + 2].cast_signed(),
            K[4 * g + 1].cast_signed(),
            K[4 * g].cast_signed(),
        );
        let wk = _mm_add_epi32(w, k);
        let cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        let abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        (abef, cdgh)
    };

    let [a, b, c, d, e, f, g, h] = state.map(u32::cast_signed);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut s = (abef, cdgh);
        let (mut m0, mut m1, mut m2, mut m3) = (
            load(block, 0),
            load(block, 1),
            load(block, 2),
            load(block, 3),
        );
        s = rounds(s, m0, 0);
        s = rounds(s, m1, 1);
        s = rounds(s, m2, 2);
        s = rounds(s, m3, 3);
        for g in [4, 8, 12] {
            m0 = extend(m0, m1, m2, m3);
            s = rounds(s, m0, g);
            m1 = extend(m1, m2, m3, m0);
            s = rounds(s, m1, g + 1);
            m2 = extend(m2, m3, m0, m1);
            s = rounds(s, m2, g + 2);
            m3 = extend(m3, m0, m1, m2);
            s = rounds(s, m3, g + 3);
        }
        abef = _mm_add_epi32(abef, s.0);
        cdgh = _mm_add_epi32(cdgh, s.1);
    }

    *state = [
        _mm_extract_epi32(abef, 3),
        _mm_extract_epi32(abef, 2),
        _mm_extract_epi32(cdgh, 3),
        _mm_extract_epi32(cdgh, 2),
        _mm_extract_epi32(abef, 1),
        _mm_extract_epi32(abef, 0),
        _mm_extract_epi32(cdgh, 1),
        _mm_extract_epi32(cdgh, 0),
    ]
    .map(i32::cast_unsigned);
}

#[cfg(test)]
thread_local! {
    /// Blocks compressed on this thread so far, for tests that pin how much
    /// hashing an operation costs.
    pub(crate) static BLOCKS_COMPRESSED: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{RngCore, SplitMix64};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// Whether `compress_hardware` has a kernel to run here (asked with an
    /// empty run, which compresses nothing).
    fn has_hardware_kernel() -> bool {
        compress_hardware(&mut H0.clone(), &[])
    }

    /// Every kernel this machine can run, each called directly rather than
    /// through `compress`'s dispatch.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![("portable", compress_portable)];
        if has_hardware_kernel() {
            all.push((Sha256::kernel(), |state, blocks| {
                assert!(compress_hardware(state, blocks));
            }));
        } else {
            println!("note: no hardware SHA-256 kernel on this CPU — portable kernel only");
        }
        all
    }

    /// SHA-256 of `data` through one kernel, with the padding of FIPS 180-4
    /// §5.1.1 written out the long way: shares nothing with
    /// `update`/`finalize` but the kernel under test.
    fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        kernel(&mut state, &padded);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// `data` hashes to `expected` through `Sha256` and through every kernel.
    fn assert_vector(data: &[u8], expected: &str) {
        assert_eq!(hex(&Sha256::digest(data)), expected, "Sha256::digest");
        for (name, kernel) in kernels() {
            assert_eq!(hex(&digest_with(kernel, data)), expected, "kernel {name}");
        }
    }

    /// NIST FIPS 180-4 example vectors plus RFC 6234 cases.
    #[test]
    fn nist_empty() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_448_bit() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_896_bit() {
        assert_vector(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn nist_one_million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1021u32).map(|i| (i % 251) as u8).collect();
        // Feed in awkward chunk sizes that straddle block boundaries.
        for chunk in [1usize, 3, 7, 63, 64, 65, 127] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "chunk={chunk}");
        }
    }

    #[test]
    fn length_extension_padding_edges() {
        // Messages whose lengths land exactly on padding boundaries
        // (55, 56, 63, 64 bytes) exercise every padding branch.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xa5u8; len];
            let d1 = Sha256::digest(&data);
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(h.finalize(), d1, "len={len}");
            for (name, kernel) in kernels() {
                assert_eq!(digest_with(kernel, &data), d1, "len={len} kernel {name}");
            }
        }
    }

    /// Portable kernel against every other kernel and against `Sha256`
    /// itself, at every length up to 64 blocks: one-shot per kernel, then
    /// two seeded random chunkings through `update` (3 × 4 097 cases).
    #[test]
    fn kernels_and_streaming_agree_at_every_length() {
        let mut rng = SplitMix64::new(0x5AA2_56D1_FFE2);
        let mut data = vec![0u8; 4096];
        rng.fill_bytes(&mut data);
        let kernels = kernels();
        let mut cases = 0u32;
        for len in 0..=data.len() {
            let data = &data[..len];
            let reference = digest_with(compress_portable, data);
            for (name, kernel) in &kernels[1..] {
                assert_eq!(digest_with(*kernel, data), reference, "len={len} {name}");
            }
            assert_eq!(Sha256::digest(data), reference, "len={len} one-shot");
            cases += 1;
            for _ in 0..2 {
                // Short pieces and multi-block pieces, in no pattern.
                let mut h = Sha256::new();
                let mut rest = data;
                while !rest.is_empty() {
                    let cap = if rng.next_u64().is_multiple_of(2) {
                        9
                    } else {
                        300
                    };
                    let take = (rng.next_u64() as usize % cap).min(rest.len());
                    h.update(&rest[..take]);
                    rest = &rest[take..];
                }
                assert_eq!(h.finalize(), reference, "len={len} chunked");
                cases += 1;
            }
        }
        assert!(cases >= 10_000);
    }

    #[test]
    fn kernel_name_matches_what_runs() {
        println!("sha256 kernel: {}", Sha256::kernel());
        assert_eq!(Sha256::kernel() != "portable", has_hardware_kernel());
    }
}
