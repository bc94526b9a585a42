//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1), the MAC underlying our simulated
//! signature scheme.

use std::fmt;

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// An HMAC-SHA-256 key with the work that depends only on the key already
/// done: the hash states after absorbing `key ⊕ ipad` and `key ⊕ opad`.
/// Each tag then costs the compressions its message needs plus one for the
/// outer hash, not two more for the pads.
///
/// # Examples
///
/// ```
/// use sft_crypto::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.mac(&[b"mess", b"age"]), hmac_sha256(b"key", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Prepares `key`. Keys longer than the SHA-256 block size are hashed
    /// first, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut hasher = Sha256::new();
            hasher.update(&key_block.map(|b| b ^ pad));
            hasher
        };
        Self {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// The tag of the concatenation of `parts`, which is never built.
    pub fn mac(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The midstates are as good as the key: never print them.
        write!(f, "HmacKey(..)")
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the SHA-256 block size are hashed first, per RFC 2104.
///
/// # Examples
///
/// ```
/// use sft_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(&[message])
}

/// Constant-time equality for MAC tags.
///
/// Not strictly needed inside a simulator, but cheap insurance against the
/// comparison being compiled into an early-exit loop if this crate is reused.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 2104 as written — `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))` with
    /// both pads hashed afresh — to hold [`HmacKey`]'s midstates against.
    pub(crate) fn hmac_by_definition(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = key_block.map(|b| b ^ 0x36).to_vec();
        inner.extend_from_slice(message);
        let mut outer = key_block.map(|b| b ^ 0x5c).to_vec();
        outer.extend_from_slice(&Sha256::digest(&inner));
        Sha256::digest(&outer)
    }

    /// `expected` from the definition, from the one-shot function, and from
    /// one prepared key reused with the message split at every offset.
    fn assert_case(key: &[u8], message: &[u8], expected: &str) {
        assert_eq!(hex(&hmac_by_definition(key, message)), expected);
        assert_eq!(hex(&hmac_sha256(key, message)), expected);
        let prepared = HmacKey::new(key);
        for split in 0..=message.len() {
            let (head, tail) = message.split_at(split);
            assert_eq!(hex(&prepared.mac(&[head, tail])), expected, "split={split}");
        }
    }

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        assert_case(
            &[0x0bu8; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        assert_case(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        assert_case(
            &[0xaau8; 20],
            &[0xddu8; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    /// RFC 4231 test case 4 (25-byte counting key, 0xcd data).
    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (1..=25).collect();
        assert_case(
            &key,
            &[0xcdu8; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        );
    }

    /// RFC 4231 test case 6 (key longer than block size).
    #[test]
    fn rfc4231_case6_long_key() {
        assert_case(
            &[0xaau8; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn debug_hides_the_midstates() {
        assert_eq!(format!("{:?}", HmacKey::new(b"secret")), "HmacKey(..)");
    }

    #[test]
    fn ct_eq_behaves() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }
}
