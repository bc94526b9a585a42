//! The [`HashValue`] newtype: a 32-byte SHA-256 digest with ergonomic
//! formatting, ordering, and prefix display used throughout the stack for
//! block ids and transaction ids.

use std::fmt;

use crate::sha256::{Sha256, DIGEST_LEN};

/// A 256-bit hash value (SHA-256 output).
///
/// Used as block identifiers (`H(B_{k-1})` in the paper's block format, §2.1)
/// and transaction identifiers.
///
/// # Examples
///
/// ```
/// use sft_crypto::HashValue;
///
/// let h = HashValue::of(b"abc");
/// assert_ne!(h, HashValue::zero());
/// assert_eq!(h, HashValue::of(b"abc"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HashValue([u8; DIGEST_LEN]);

impl HashValue {
    /// Number of bytes in a hash value.
    pub const LEN: usize = DIGEST_LEN;

    /// The all-zero hash, used as the parent id of the genesis block.
    pub const fn zero() -> Self {
        Self([0u8; DIGEST_LEN])
    }

    /// Hashes `data` with SHA-256.
    pub fn of(data: &[u8]) -> Self {
        Self(Sha256::digest(data))
    }

    /// Wraps raw digest bytes.
    pub const fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        Self(bytes)
    }

    /// Returns the digest bytes.
    pub const fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// True if this is the all-zero hash.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// A short hex prefix for log-friendly display.
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl Default for HashValue {
    fn default() -> Self {
        Self::zero()
    }
}

impl fmt::Debug for HashValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HashValue({})", self.short())
    }
}

impl fmt::Display for HashValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for HashValue {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for HashValue {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Self(bytes)
    }
}

/// Incremental builder for hashing structured data.
///
/// Domain separation: every hash starts with a tag so that, e.g., a block id
/// can never collide with a vote digest.
///
/// # Examples
///
/// ```
/// use sft_crypto::Hasher;
///
/// let h1 = Hasher::new("block").field(&1u64.to_be_bytes()).finish();
/// let h2 = Hasher::new("vote").field(&1u64.to_be_bytes()).finish();
/// assert_ne!(h1, h2);
/// ```
#[derive(Clone, Debug)]
pub struct Hasher {
    inner: Sha256,
}

impl Hasher {
    /// Starts a hash with the domain-separation `tag`.
    pub fn new(tag: &str) -> Self {
        let mut inner = Sha256::new();
        inner.update(&(tag.len() as u64).to_be_bytes());
        inner.update(tag.as_bytes());
        Self { inner }
    }

    /// Appends a length-prefixed field.
    pub fn field(mut self, bytes: &[u8]) -> Self {
        self.inner.update(&(bytes.len() as u64).to_be_bytes());
        self.inner.update(bytes);
        self
    }

    /// Finishes and returns the digest.
    pub fn finish(self) -> HashValue {
        HashValue(self.inner.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        assert!(HashValue::zero().is_zero());
        assert!(!HashValue::of(b"x").is_zero());
    }

    #[test]
    fn display_is_hex() {
        let h = HashValue::of(b"abc");
        assert_eq!(
            h.to_string(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(h.short(), "ba7816bf");
    }

    #[test]
    fn hasher_domain_separation() {
        let a = Hasher::new("a").field(b"x").finish();
        let b = Hasher::new("b").field(b"x").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn hasher_field_framing() {
        // ("ab", "c") must differ from ("a", "bc"): length prefixes matter.
        let one = Hasher::new("t").field(b"ab").field(b"c").finish();
        let two = Hasher::new("t").field(b"a").field(b"bc").finish();
        assert_ne!(one, two);
    }

    /// The 8-byte length prefixes only ever buffer: a hash costs the blocks
    /// its bytes fill — ⌈(tag and field framing + payload + padding) / 64⌉ —
    /// and not one compression more, however the `update`s fall.
    #[test]
    fn short_framing_updates_cost_no_compression_of_their_own() {
        use crate::sha256::{blocks_compressed as blocks, BLOCK_LEN};
        let payload = vec![0x5au8; 4096];

        let before = blocks();
        let framed = Hasher::new("txn").field(&payload);
        let absorbed = 8 + "txn".len() + 8 + payload.len();
        assert_eq!(blocks() - before, (absorbed / BLOCK_LEN) as u64);
        let _ = framed.finish();
        // Padding: the 0x80 marker and the 8-byte bit length.
        assert_eq!(
            blocks() - before,
            (absorbed + 1 + 8).div_ceil(BLOCK_LEN) as u64
        );

        let before = blocks();
        let _ = Hasher::new("txn").finish();
        assert_eq!(blocks() - before, 1);
    }

    #[test]
    fn ordering_is_bytewise() {
        let lo = HashValue::from_bytes([0u8; 32]);
        let mut hi_bytes = [0u8; 32];
        hi_bytes[0] = 1;
        let hi = HashValue::from_bytes(hi_bytes);
        assert!(lo < hi);
    }
}
