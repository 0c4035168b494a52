//! Crash-safe persistent storage for HSM state and the provider journal.
//!
//! SafetyPin's HSMs keep only a small root secret on-chip and outsource
//! the bulky puncturable-encryption tree to untrusted host storage
//! (paper §6, Table 7). This crate gives the reproduction the host side
//! of that bargain — durable, restartable storage — in two layers:
//!
//! 1. **[`FileStore`]** — a [`BlockStore`](safetypin_seckv::BlockStore)
//!    backend over an append-only
//!    segment file plus a write-ahead log with atomic checkpointing and
//!    per-record CRC/length framing for torn-write detection. A
//!    transaction is staged in memory and reaches the WAL as one write
//!    at its commit. It keeps an index, not a cache: a read is one
//!    lookup plus one positioned file read, and the kernel's page cache
//!    is the only block cache. Recovered
//!    state after a crash is always the state at some commit boundary,
//!    never a torn hybrid (pinned by a crash-point property test over
//!    every WAL truncation offset). It is the **one durable mechanism**:
//!    each HSM's store holds its outsourced array *and* its own trusted
//!    state, the provider's store holds its journal, and whatever one
//!    `flush` covers commits together — so a directory of stores is
//!    restorable after every commit, and "persisting" a fleet
//!    ([`SnapshotBlocks`]) is merely checkpointing each of them.
//! 2. **Sealing** — [`DeviceKey`] seals each HSM's trusted state
//!    (secure-array root key, identity/signing secrets, log
//!    bookkeeping) under a per-device AEAD key before the device puts
//!    it into its store, while everything else there (the array's
//!    ciphertext blocks, public keys, the provider's journal) stays
//!    plaintext-on-host, just like a live datacenter. The [`Keyring`]
//!    file collects the device keys (standing in for on-chip flash);
//!    with `params.bin` and `snapshot.meta` it is one of the three
//!    small static files [`write_atomic`] publishes beside the stores.
//!
//! Durability is the one option: [`Durability::Strict`] fsyncs at every
//! commit, checkpoint and [`write_atomic`]; [`Durability::Relaxed`]
//! keeps the identical WAL discipline but elides the syncs, which is
//! what CI uses to run the crash-recovery suite quickly. Every sync the
//! crate issues lands in the `store.fsync` histogram.
//!
//! For failure injection, [`CrashingStore`] extends the adversarial
//! store family of `safetypin-seckv` with a host that dies after a byte
//! budget, tearing the write in flight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod error;
pub mod file;
pub mod seal;
pub mod snapshot;
pub mod wal;

pub use crash::CrashingStore;
pub use error::StoreError;
pub use file::{Durability, FileOptions, FileStore, RecoveryReport};
pub use seal::{seal_domain, DeviceKey, Keyring};
pub use snapshot::SnapshotBlocks;

use std::io::Write;
use std::path::Path;

/// Writes `bytes` to `path` atomically: a sibling tmp file is written
/// and renamed into place, so readers observe either the old or the new
/// contents — never a torn file. Under [`Durability::Strict`] the file is
/// synced before the rename and the parent directory after it, so the
/// rename itself survives power loss.
pub fn write_atomic(path: &Path, bytes: &[u8], durability: Durability) -> Result<(), StoreError> {
    let tmp_path = path.with_extension("tmp");
    let mut tmp = std::fs::File::create(&tmp_path)?;
    tmp.write_all(bytes)?;
    Ok(file::publish(&tmp, &tmp_path, path, durability)?)
}

/// Reads one of the static files, mapping absence to a typed error.
pub fn read_component(path: &Path, what: &'static str) -> Result<Vec<u8>, StoreError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Err(StoreError::MissingComponent(what))
        }
        Err(e) => Err(StoreError::Io(e)),
    }
}
