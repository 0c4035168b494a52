//! Cryptographic substrate for the SafetyPin encrypted-backup system.
//!
//! This crate provides the low-level building blocks that the rest of the
//! workspace composes into SafetyPin's protocols (OSDI 2020,
//! arXiv:2010.06712):
//!
//! - [`elgamal`]: hashed ElGamal public-key encryption over NIST P-256, the
//!   key-private encryption scheme from Appendix A.4 of the paper.
//! - [`aead`]: an authenticated-encryption wrapper around AES-128-GCM.
//! - [`shamir`]: t-out-of-n Shamir secret sharing over GF(2^8).
//! - [`hashes`]: domain-separated SHA-256 hashing, HMAC, and the
//!   hash-to-indices expansion used by location-hiding encryption.
//! - [`commit`]: hash-based commitments (used to commit to recovery-cluster
//!   identities in the recovery log).
//! - [`merkle`]: binary Merkle trees over arbitrary leaves (used by the
//!   distributed log's chunk commitment and by the authenticated
//!   dictionary).
//! - [`wire`](mod@wire): a small length-prefixed binary codec; every ciphertext and
//!   proof in the workspace serializes through it so sizes reported by the
//!   benchmark harness reflect real wire costs.
//!
//! Only field/curve/cipher arithmetic comes from external crates (`p256`,
//! `aes-gcm`); SHA-256 and HMAC run on this crate's own kernel, and every
//! protocol-level construction is implemented here from scratch. The
//! `sha2` dependency is the kernel tests' oracle, and nothing in the crate
//! uses `hmac` (`clippy.toml` bans both types outside tests).

// `deny` rather than `forbid`: two private modules opt back in, `zeroize`
// for the volatile writes that wipe key material and `sha256` for the
// SHA-NI kernel's call and loads.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod commit;
pub mod elgamal;
pub mod error;
pub mod gf256;
pub mod hashes;
pub mod merkle;
mod sha256;
pub mod shamir;
pub mod wire;
pub mod zeroize;

pub use error::CryptoError;

/// The security parameter, in bits, used throughout the paper (λ = 128).
pub const LAMBDA: usize = 128;

/// Convenience alias for results in this crate.
pub type Result<T> = core::result::Result<T, CryptoError>;
