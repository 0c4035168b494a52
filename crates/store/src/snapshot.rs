//! How a live backend's blocks reach a store directory.
//!
//! Every store a datacenter runs on — each HSM's block store (the
//! outsourced array plus the device's own state blocks) and the
//! provider's journal — is persisted the same way: as a checkpointed
//! [`FileStore`] (segment only, empty WAL), the most compact,
//! fastest-to-reopen representation. Nothing in them needs sealing by
//! the host: the array is AEAD ciphertext, the device state is sealed
//! by the device, the rest is public.
//!
//! [`SnapshotBlocks`] abstracts over the live backend: an in-memory
//! fleet ([`MemStore`]) streams its blocks into a fresh `FileStore`,
//! while a disk-backed fleet whose store already *is* the directory
//! just commits and checkpoints in place.

use std::path::Path;

use safetypin_seckv::{BlockStore, MemStore};

use crate::error::StoreError;
use crate::file::{FileOptions, FileStore};

/// Backends whose blocks can be captured into (and served from) a
/// store directory.
pub trait SnapshotBlocks: BlockStore {
    /// Writes every live block into a checkpointed [`FileStore`] rooted
    /// at `dir`, replacing whatever that directory held.
    fn checkpoint_into(&mut self, dir: &Path, opts: FileOptions) -> Result<(), StoreError>;
}

fn rebuild_into(
    blocks: impl IntoIterator<Item = (u64, Vec<u8>)>,
    dir: &Path,
    opts: FileOptions,
) -> Result<(), StoreError> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    // Write the segment directly — exactly what a checkpoint produces —
    // instead of detouring every block through the WAL and rewriting it
    // during a checkpoint (2x the bytes at 64 MB-per-HSM scale).
    let mut sorted: Vec<(u64, Vec<u8>)> = blocks.into_iter().collect();
    sorted.sort_unstable_by_key(|(addr, _)| *addr);
    let blocks = sorted.into_iter().map(Ok);
    crate::file::write_segment(dir, blocks, 1, opts.durability, |_, _| {})?;
    // Validate what we wrote replays cleanly (and create the WAL file).
    FileStore::open(dir, opts)?;
    Ok(())
}

impl SnapshotBlocks for MemStore {
    fn checkpoint_into(&mut self, dir: &Path, opts: FileOptions) -> Result<(), StoreError> {
        rebuild_into(self.snapshot(), dir, opts)
    }
}

impl SnapshotBlocks for FileStore {
    fn checkpoint_into(&mut self, dir: &Path, opts: FileOptions) -> Result<(), StoreError> {
        if self.dir() == dir {
            // The live store already is the snapshot: fold the WAL into
            // the segment so reopening is a pure segment load. With an
            // empty WAL the segment already is that state.
            self.commit()?;
            if self.wal_len() > 0 {
                self.checkpoint()?;
            }
            return Ok(());
        }
        rebuild_into(self.snapshot(), dir, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("safetypin-snapblocks-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memstore_checkpoints_into_filestore() {
        let dir = tmpdir("mem");
        let mut mem = MemStore::new();
        mem.put(3, &[3; 10]);
        mem.put(9, &[9; 4]);
        mem.checkpoint_into(&dir, FileOptions::relaxed()).unwrap();
        let back = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        assert_eq!(back.snapshot(), mem.snapshot());
        assert_eq!(back.wal_len(), 0, "snapshot is segment-only");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filestore_checkpoints_in_place_and_elsewhere() {
        let dir = tmpdir("fs-live");
        let other = tmpdir("fs-copy");
        let mut live = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        live.put(1, &[1]);
        live.flush();
        live.checkpoint_into(&dir, FileOptions::relaxed()).unwrap();
        assert_eq!(live.wal_len(), 0);
        live.checkpoint_into(&other, FileOptions::relaxed())
            .unwrap();
        let mut copy = FileStore::open(&other, FileOptions::relaxed()).unwrap();
        assert_eq!(copy.get(1), Some(vec![1]));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&other).unwrap();
    }
}
