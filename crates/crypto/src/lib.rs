//! # sft-crypto
//!
//! Cryptographic substrate for the SFT BFT reproduction: SHA-256 implemented
//! from FIPS 180-4, HMAC-SHA-256, a [`HashValue`] digest newtype, and an
//! HMAC-based signature scheme with a [`KeyRegistry`] standing in for the PKI
//! assumed by the paper (§2).
//!
//! ## Why not a crypto crate?
//!
//! The approved offline dependency set contains no cryptographic crates, so
//! this crate implements the primitives from their specifications and
//! validates them against published test vectors (NIST FIPS 180-4 examples,
//! RFC 4231). See `DESIGN.md` §2 for the substitution rationale.
//!
//! ## Example
//!
//! ```
//! use sft_crypto::{HashValue, KeyRegistry};
//!
//! let registry = KeyRegistry::deterministic(4);
//! let kp = registry.key_pair(0).expect("replica 0 exists");
//! let digest = HashValue::of(b"block payload");
//! let sig = kp.sign(digest.as_ref());
//! assert!(registry.verify(0, digest.as_ref(), &sig));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod batch;
pub mod hash;
pub mod hmac;
pub mod keys;
pub mod pool;
pub mod rng;
pub mod sha256;
pub mod signature;

pub use batch::{BatchItem, SigStats};
pub use hash::{HashValue, Hasher};
pub use keys::{KeyPair, KeyRegistry, SecretKey};
pub use pool::{pool_workers, PARALLEL_THRESHOLD};
pub use rng::{RngCore, SplitMix64};
pub use signature::Signature;
