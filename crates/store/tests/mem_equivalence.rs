//! Differential property test: a [`FileStore`] behaves exactly like the
//! in-memory reference [`MemStore`] under any interleaving of `put` /
//! `get` / `remove` / `flush` / `checkpoint` / drop-and-reopen. Every
//! read goes to the indexed location — WAL or segment — so this is what
//! catches a stale index entry after a checkpoint moves blocks, a block
//! that survives its removal, or a segment writer that misplaces one.
//!
//! Dropping the store without a flush loses the uncommitted tail, so the
//! reference rolls back to its contents at the last commit boundary.

use std::collections::HashMap;
use std::path::PathBuf;

use proptest::prelude::*;
use safetypin_seckv::{BlockStore, MemStore};
use safetypin_store::{FileOptions, FileStore};

fn tmpdir() -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("safetypin-equiv-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mem_from(blocks: &HashMap<u64, Vec<u8>>) -> MemStore {
    let mut mem = MemStore::new();
    for (addr, block) in blocks {
        mem.put(*addr, block);
    }
    mem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `kind` 0–2 = put, 3–5 = get, 6 = remove, 7 = flush,
    /// 8 = checkpoint, 9 = drop and reopen. Twelve addresses, so blocks
    /// are overwritten, removed and re-put, in the WAL and in the segment.
    #[test]
    fn filestore_agrees_with_memstore(
        script in proptest::collection::vec((0u8..10, 0u64..12, 0usize..48), 1..120),
    ) {
        let dir = tmpdir();
        let mut file = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        let mut mem = MemStore::new();
        let mut committed = HashMap::new();
        for (step, &(kind, addr, len)) in script.iter().enumerate() {
            match kind {
                0..=2 => {
                    // Contents unique to the step, so an old version of
                    // the block can never pass for the new one.
                    let block = vec![step as u8; len];
                    file.put(addr, &block);
                    mem.put(addr, &block);
                }
                3..=5 => prop_assert_eq!(file.get(addr), mem.get(addr), "step {}", step),
                6 => {
                    file.remove(addr);
                    mem.remove(addr);
                }
                7 => {
                    file.flush();
                    committed = mem.snapshot();
                }
                8 => {
                    file.checkpoint().unwrap();
                    prop_assert_eq!(file.wal_len(), 0);
                    committed = mem.snapshot();
                }
                _ => {
                    drop(file);
                    file = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
                    mem = mem_from(&committed);
                }
            }
        }
        prop_assert_eq!(file.snapshot(), mem.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
