//! Key material and the PKI registry.
//!
//! The paper assumes "standard digital signatures and public-key
//! infrastructure (PKI)" (§2). With no asymmetric-crypto crate in the
//! approved offline set, we substitute an HMAC-based scheme: each replica
//! holds a 32-byte secret key; a [`KeyRegistry`] (standing in for the PKI)
//! holds every replica's *verification* material and checks tags on behalf of
//! all parties. Within the simulation's threat model this preserves the
//! property that matters: a Byzantine replica cannot forge an honest
//! replica's signature, because signing requires the honest replica's secret
//! key and the simulator only hands each actor its own [`KeyPair`].

use std::fmt;
use std::sync::Arc;

use crate::hmac::{ct_eq, HmacKey};
use crate::rng::RngCore;
use crate::signature::Signature;

/// Length of secret keys in bytes.
pub const SECRET_KEY_LEN: usize = 32;

/// A replica's secret signing key, held as its HMAC midstates: the key
/// bytes are absorbed once, here, not once per signature.
#[derive(Clone)]
pub struct SecretKey(HmacKey);

impl SecretKey {
    fn from_bytes(bytes: [u8; SECRET_KEY_LEN]) -> Self {
        Self(HmacKey::new(&bytes))
    }

    /// Generates a fresh random key.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut bytes = [0u8; SECRET_KEY_LEN];
        rng.fill_bytes(&mut bytes);
        Self::from_bytes(bytes)
    }

    /// Deterministic key for replica `index` — used by tests and by
    /// deterministic simulations so that runs are reproducible.
    pub fn deterministic(index: u64) -> Self {
        let mut bytes = [0u8; SECRET_KEY_LEN];
        bytes[..8].copy_from_slice(&index.to_be_bytes());
        bytes[8..16].copy_from_slice(&0x5f74_6b65_795f_7631u64.to_be_bytes());
        Self::from_bytes(crate::sha256::Sha256::digest(&bytes))
    }

    /// The authenticator over (signer, message): the MAC of
    /// `signer ‖ message`, streamed rather than concatenated.
    pub(crate) fn mac(&self, signer: u64, message: &[u8]) -> [u8; 32] {
        self.0.mac(&[&signer.to_be_bytes(), message])
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(..)")
    }
}

/// A signing key pair bound to a signer index.
///
/// # Examples
///
/// ```
/// use sft_crypto::{KeyPair, KeyRegistry};
///
/// let registry = KeyRegistry::deterministic(4);
/// let kp = registry.key_pair(2).expect("replica 2 exists");
/// let sig = kp.sign(b"hello");
/// assert!(registry.verify(2, b"hello", &sig));
/// assert!(!registry.verify(1, b"hello", &sig));
/// ```
#[derive(Clone, Debug)]
pub struct KeyPair {
    signer: u64,
    secret: SecretKey,
}

impl KeyPair {
    /// Creates a key pair for `signer` from a secret key.
    pub fn new(signer: u64, secret: SecretKey) -> Self {
        Self { signer, secret }
    }

    /// The signer index this key pair belongs to.
    pub fn signer(&self) -> u64 {
        self.signer
    }

    /// Signs `message`, producing an authenticator over (signer, message).
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature::from_tag(self.signer, self.secret.mac(self.signer, message))
    }
}

/// The PKI: verification material for all `n` replicas.
///
/// Cloning is cheap (shared `Arc`), so a registry can be handed to every
/// simulated replica and to the verification paths of the simulator itself.
#[derive(Clone)]
pub struct KeyRegistry {
    secrets: Arc<Vec<SecretKey>>,
}

impl KeyRegistry {
    /// Builds a registry of `n` random keys.
    pub fn generate<R: RngCore>(n: usize, rng: &mut R) -> Self {
        let secrets = (0..n).map(|_| SecretKey::generate(rng)).collect();
        Self {
            secrets: Arc::new(secrets),
        }
    }

    /// Builds a registry of `n` deterministic keys (reproducible runs).
    pub fn deterministic(n: usize) -> Self {
        let secrets = (0..n as u64).map(SecretKey::deterministic).collect();
        Self {
            secrets: Arc::new(secrets),
        }
    }

    /// Number of registered replicas.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// True if no replicas are registered.
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }

    /// Returns the key pair for `signer`, or `None` if out of range.
    ///
    /// The simulator calls this once per replica at startup; honest code
    /// never touches another replica's pair.
    pub fn key_pair(&self, signer: u64) -> Option<KeyPair> {
        self.secrets
            .get(signer as usize)
            .map(|secret| KeyPair::new(signer, secret.clone()))
    }

    /// Verifies that `sig` is `signer`'s signature over `message`.
    pub fn verify(&self, signer: u64, message: &[u8], sig: &Signature) -> bool {
        if sig.signer() != signer {
            return false;
        }
        let Some(secret) = self.secrets.get(signer as usize) else {
            return false;
        };
        ct_eq(&secret.mac(signer, message), sig.tag())
    }
}

impl fmt::Debug for KeyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyRegistry(n={})", self.secrets.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn sign_verify_roundtrip() {
        let reg = KeyRegistry::deterministic(7);
        for i in 0..7 {
            let kp = reg.key_pair(i).unwrap();
            let sig = kp.sign(b"msg");
            assert!(reg.verify(i, b"msg", &sig));
            assert!(!reg.verify(i, b"other", &sig));
        }
    }

    #[test]
    fn cross_signer_rejected() {
        let reg = KeyRegistry::deterministic(3);
        let sig = reg.key_pair(0).unwrap().sign(b"m");
        assert!(!reg.verify(1, b"m", &sig));
        assert!(!reg.verify(2, b"m", &sig));
    }

    #[test]
    fn unknown_signer_rejected() {
        let reg = KeyRegistry::deterministic(3);
        let sig = reg.key_pair(0).unwrap().sign(b"m");
        assert!(!reg.verify(99, b"m", &sig));
        assert!(reg.key_pair(99).is_none());
    }

    #[test]
    fn forged_tag_rejected() {
        let reg = KeyRegistry::deterministic(2);
        let sig = reg.key_pair(0).unwrap().sign(b"m");
        let mut bytes = *sig.tag();
        bytes[0] ^= 0xff;
        let forged = Signature::from_tag(0, bytes);
        assert!(!reg.verify(0, b"m", &forged));
    }

    #[test]
    fn random_and_deterministic_differ() {
        let mut rng = SplitMix64::new(42);
        let random = KeyRegistry::generate(2, &mut rng);
        let det = KeyRegistry::deterministic(2);
        let s1 = random.key_pair(0).unwrap().sign(b"m");
        let s2 = det.key_pair(0).unwrap().sign(b"m");
        assert_ne!(s1.tag(), s2.tag());
        assert_eq!(random.len(), 2);
        assert!(!det.is_empty());
    }

    /// The streamed, cached-midstate signature is plain
    /// `HMAC(key, signer ‖ message)`, on random keys, signers and lengths.
    #[test]
    fn sign_is_hmac_over_signer_then_message() {
        use crate::hmac::tests::hmac_by_definition;
        let mut rng = SplitMix64::new(0x51C7);
        for _ in 0..200 {
            let mut key = [0u8; SECRET_KEY_LEN];
            rng.fill_bytes(&mut key);
            let signer = rng.next_u64();
            let mut message = vec![0u8; (rng.next_u64() % 200) as usize];
            rng.fill_bytes(&mut message);
            let pair = KeyPair::new(signer, SecretKey::from_bytes(key));
            let mut framed = signer.to_be_bytes().to_vec();
            framed.extend_from_slice(&message);
            assert_eq!(
                pair.sign(&message).tag(),
                &hmac_by_definition(&key, &framed)
            );
        }
    }

    #[test]
    fn deterministic_is_stable() {
        let a = KeyRegistry::deterministic(4);
        let b = KeyRegistry::deterministic(4);
        let sa = a.key_pair(3).unwrap().sign(b"x");
        let sb = b.key_pair(3).unwrap().sign(b"x");
        assert_eq!(sa.tag(), sb.tag());
    }
}
