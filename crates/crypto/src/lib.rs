//! Simulation-grade cryptographic primitives for ConfBench-RS.
//!
//! The attestation flows the paper measures (TDX DCAP quotes, SEV-SNP
//! reports) need *real* hashing and *a* signature scheme with realistic cost
//! structure and tamper detection. This crate provides:
//!
//! * [`Sha256`] — a from-scratch FIPS 180-4 SHA-256 with incremental and
//!   one-shot APIs (validated against the NIST test vectors in unit tests);
//! * [`hmac_sha256`] — HMAC per RFC 2104 (validated against RFC 4231);
//! * [`SigningKey`] / [`VerifyingKey`] — a Schnorr signature over a 62-bit
//!   safe-prime group;
//! * [`SplitMix64`] — the workspace's one PRNG: every seeded stream
//!   (jitter, synthetic datasets, retry backoff, fuzz mutation) draws from it;
//! * [`miller_rabin`] — deterministic 64-bit primality testing (used to
//!   verify the group parameters in tests, and by workloads).
//!
//! It is also the home of three primitives that are not cryptography but
//! that several crates above need exactly one of: [`wire::Reader`], the
//! bounds-checked cursor under every binary decoder, [`flight::Flight`], the
//! single-flight protocol under the caches that compute a missing entry
//! once, and [`bounded::OldestOut`], the byte-bounded map under the memos.
//!
//! # Security
//!
//! **The signature scheme is NOT cryptographically secure** — a 62-bit group
//! is trivially breakable. It exists to give the simulated attestation
//! pipeline authentic *structure* (key generation, deterministic nonces,
//! signing cost proportional to exponentiation work, verification that really
//! rejects tampered claims). Do not reuse outside the simulator.
//!
//! # Example
//!
//! ```
//! use confbench_crypto::{Sha256, SigningKey};
//!
//! let digest = Sha256::digest(b"hello");
//! let sk = SigningKey::from_seed(7);
//! let sig = sk.sign(digest.as_ref());
//! assert!(sk.verifying_key().verify(digest.as_ref(), &sig).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod flight;
pub mod fuzz;
mod hmac;
mod numeric;
mod prng;
mod sha256;
mod simsig;
pub mod wire;

pub use hmac::hmac_sha256;
pub use numeric::{miller_rabin, mod_inverse, mod_mul, mod_pow};
pub use prng::SplitMix64;
pub use sha256::{Digest, Sha256};
pub use simsig::{
    Signature, SignatureError, SigningKey, VerifyingKey, GROUP_GENERATOR, GROUP_PRIME,
};
