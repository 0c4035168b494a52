//! Outsourced storage with secure deletion (paper §7.2–7.3, Appendix C).
//!
//! Bloom-filter-encryption secret keys are far too large for an HSM
//! (64 MB vs. ~256 KB of flash), so SafetyPin outsources the key array to
//! the untrusted service provider, following Di Crescenzo et al. "How to
//! forget a secret" (STACS '99): the HSM keeps only a single 16-byte root
//! key, and the provider stores a binary tree of AEAD ciphertexts in which
//! each node's plaintext is the pair of its children's keys and each leaf's
//! plaintext is one data block.
//!
//! Guarantees (against a provider that controls all stored blocks):
//!
//! - **Integrity** — a read returns either the last value written or an
//!   error; tampered, swapped, or replayed blocks fail AEAD authentication
//!   because every node is encrypted under a key chained from the current
//!   root and bound to its address via associated data.
//! - **Secure deletion** — after `delete(i)`, even an attacker that later
//!   learns the HSM's root key and has recorded *every block ever stored*
//!   cannot recover block `i`: the leaf key was erased and every key on the
//!   path to the root was refreshed.
//!
//! Reads and deletes touch `O(log D)` blocks and use only symmetric-key
//! operations, which is what makes puncturing affordable on SoloKey-class
//! hardware (Figure 9 of the paper).
//!
//! The module also provides [`naive::NaiveArray`], the strawman from §9.1
//! that re-encrypts the whole array on every delete (the paper measures the
//! tree design as roughly 4,423× faster at 64 MB).
//!
//! Implementation note: Appendix C's pseudocode anchors leaves at address
//! `2^h + i` with `h = 1 + ⌈log₂ D⌉`, but its own `Setup` recursion places
//! leaves of non-power-of-two arrays at mixed depths, which contradicts the
//! fixed-depth address formula. We implement the perfect-tree variant the
//! appendix's Figure 6 depicts: the array is padded to the next power of
//! two with empty blocks and every leaf lives at depth `h = ⌈log₂ D⌉`,
//! address `2^h + i`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod naive;
pub mod store;
pub mod tree;

pub use error::StorageError;
pub use store::{BlockStore, MemStore, StoreStats};
pub use tree::{ArrayState, Descent, Metrics, SecureArray};

/// Convenience alias for results in this crate.
pub type Result<T> = core::result::Result<T, StorageError>;
