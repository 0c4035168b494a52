//! Crash-point property test: WAL replay after a crash at **any** byte
//! offset recovers a state byte-identical to the store's contents at
//! some commit boundary — either pre- or post-commit, never a torn
//! hybrid. (Acceptance criterion of the persistence subsystem.)
//!
//! A crash is simulated exactly: appends are sequential, so the disk
//! after a crash holds a *prefix* of the WAL bytes. For every prefix
//! length, a fresh directory gets the same segment plus the truncated
//! WAL, the store is reopened, and its full contents are compared
//! against the snapshot taken at each flush during the original run.

use std::collections::HashMap;
use std::path::PathBuf;

use proptest::prelude::*;
use safetypin_seckv::BlockStore;
use safetypin_store::{FileOptions, FileStore};

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("safetypin-crash-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One scripted mutation: `kind` 0/1 = put, 2 = remove, 3 = flush
/// (commit boundary).
type Op = (u8, u64, usize);

/// Store contents keyed by block address.
type Blocks = HashMap<u64, Vec<u8>>;

/// Runs the script against a fresh store; returns the directory, the
/// committed snapshot after each flush (index 0 = empty pre-state), and
/// the WAL byte length at each commit boundary.
fn run_script(ops: &[Op], tag: &str) -> (PathBuf, Vec<Blocks>, Vec<u64>) {
    let dir = tmpdir(tag);
    // The workload stays far below the auto-checkpoint threshold: the
    // segment stays fixed, so the WAL prefix is the only variable
    // across crash points.
    let mut store = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
    let mut snapshots = vec![HashMap::new()];
    let mut commit_lens = vec![0u64];
    for &(kind, addr, len) in ops {
        match kind {
            0 | 1 => {
                // Deterministic, addr-and-length-dependent contents so a
                // mixed-up replay cannot accidentally match.
                let byte = (addr as u8) ^ (len as u8) ^ kind;
                store.put(addr, &vec![byte; len]);
            }
            2 => store.remove(addr),
            _ => {
                store.flush();
                snapshots.push(store.snapshot());
                commit_lens.push(store.wal_len());
            }
        }
    }
    store.flush();
    snapshots.push(store.snapshot());
    commit_lens.push(store.wal_len());
    (dir, snapshots, commit_lens)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn replay_at_every_crash_point_is_pre_or_post_commit(
        ops in proptest::collection::vec((0u8..4, 0u64..10, 0usize..48), 1..28),
    ) {
        let (dir, snapshots, commit_lens) = run_script(&ops, "prop");
        let wal_path = dir.join("wal.bin");
        let seg_path = dir.join("segment.bin");
        let wal_bytes = std::fs::read(&wal_path).unwrap();
        let seg_bytes = std::fs::read(&seg_path).unwrap();
        prop_assert_eq!(*commit_lens.last().unwrap(), wal_bytes.len() as u64);

        let crash_dir = tmpdir("prop-crash");
        for cut in 0..=wal_bytes.len() as u64 {
            // "Disk" after the crash: full segment + WAL prefix.
            let _ = std::fs::remove_dir_all(&crash_dir);
            std::fs::create_dir_all(&crash_dir).unwrap();
            std::fs::write(crash_dir.join("segment.bin"), &seg_bytes).unwrap();
            std::fs::write(crash_dir.join("wal.bin"), &wal_bytes[..cut as usize]).unwrap();

            let mut reopened = FileStore::open(&crash_dir, FileOptions::relaxed()).unwrap();
            // The last commit boundary fully contained in the prefix
            // decides which snapshot must be recovered, byte for byte.
            let expect_idx = commit_lens.iter().rposition(|&l| l <= cut).unwrap();
            prop_assert_eq!(
                reopened.snapshot(),
                snapshots[expect_idx].clone(),
                "cut={} expected commit #{}",
                cut,
                expect_idx
            );
            // And the recovered state must itself be a valid base: one
            // more write + flush must survive a clean reopen.
            reopened.put(999, &[0xEE; 5]);
            reopened.flush();
            drop(reopened);
            let mut again = FileStore::open(&crash_dir, FileOptions::relaxed()).unwrap();
            prop_assert_eq!(again.get(999), Some(vec![0xEE; 5]));
        }
        let _ = std::fs::remove_dir_all(&crash_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The same sweep across a checkpoint: crash points in the WAL written
/// *after* a checkpoint recover over the compacted segment.
#[test]
fn crash_points_after_checkpoint_recover_over_segment() {
    let dir = tmpdir("post-ckpt");
    let mut store = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
    for i in 0..12u64 {
        store.put(i, &[i as u8; 24]);
    }
    store.flush();
    store.checkpoint().unwrap();
    let base = store.snapshot();

    // Post-checkpoint transactions.
    let mut snapshots = vec![base.clone()];
    let mut commit_lens = vec![0u64];
    for round in 0..4u64 {
        store.put(round, &[0xA0 ^ round as u8; 10]);
        store.remove(11 - round);
        store.flush();
        snapshots.push(store.snapshot());
        commit_lens.push(store.wal_len());
    }
    let wal_bytes = std::fs::read(dir.join("wal.bin")).unwrap();
    let seg_bytes = std::fs::read(dir.join("segment.bin")).unwrap();

    let crash_dir = tmpdir("post-ckpt-crash");
    for cut in 0..=wal_bytes.len() as u64 {
        let _ = std::fs::remove_dir_all(&crash_dir);
        std::fs::create_dir_all(&crash_dir).unwrap();
        std::fs::write(crash_dir.join("segment.bin"), &seg_bytes).unwrap();
        std::fs::write(crash_dir.join("wal.bin"), &wal_bytes[..cut as usize]).unwrap();
        let reopened = FileStore::open(&crash_dir, FileOptions::relaxed()).unwrap();
        let expect_idx = commit_lens.iter().rposition(|&l| l <= cut).unwrap();
        assert_eq!(
            reopened.snapshot(),
            snapshots[expect_idx],
            "cut={cut} expected commit #{expect_idx}"
        );
    }
    let _ = std::fs::remove_dir_all(&crash_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
