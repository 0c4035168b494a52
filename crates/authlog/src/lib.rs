//! The SafetyPin distributed append-only log (paper §6, Appendix B).
//!
//! The service provider stores the log — a list of identifier-value pairs —
//! while each HSM stores only a constant-size digest. The log's one
//! invariant is immutability of defined identifiers:
//!
//! > If any honest HSM ever accepts that `(id, val)` is in the log, it must
//! > never accept `(id, val')` for `val' ≠ val`.
//!
//! SafetyPin uses the log to (1) limit PIN-guessing by allowing at most one
//! recovery attempt per identifier and (2) let outside auditors monitor
//! recovery attempts (§6.3).
//!
//! Components:
//!
//! - [`trie`]: the authenticated dictionary. The paper implements the five
//!   Nissim–Naor routines (`Digest`, `ProveIncludes`, `DoesInclude`,
//!   `ProveExtends`, `DoesExtend`) over a Merkle binary search tree; we use
//!   a Merkle binary *trie* keyed by `H(id)` — the same interface and
//!   security properties with set-deterministic digests and simpler
//!   insertion-replay extension proofs.
//! - [`log`]: the provider-side log state; generates inclusion and
//!   extension proofs as it ingests insertions.
//! - [`distributed`]: the Figure 5 epoch-update protocol — the provider
//!   splits an epoch's insertions into `N` chunks, commits to the chain of
//!   intermediate digests with a Merkle root `R`, and every HSM audits
//!   `C = λ` deterministically-selected chunks (the Appendix B.3 variant,
//!   which also lets surviving HSMs re-audit a failed HSM's chunks) before
//!   signing `(d, d', R)`.
//! - [`auditor`]: full-replay auditing for external transparency watchers
//!   (§6.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auditor;
pub mod distributed;
pub mod log;
pub mod trie;

pub use distributed::{AuditError, ChunkAudit, EpochUpdate, UpdateMessage};
pub use log::{Log, LogEntry, LogError};
pub use trie::{ExtensionProof, InclusionProof, MerkleTrie, TrieError};
