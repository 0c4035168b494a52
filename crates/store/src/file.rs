//! `FileStore`: a crash-safe, file-backed [`BlockStore`].
//!
//! # Layout
//!
//! Each store owns one directory with two files, both in the framed
//! record format of [`crate::wal`]:
//!
//! * `segment.bin` — the checkpointed base state: one `Put` record per
//!   live block plus a closing `Commit`. Published **atomically**: a
//!   checkpoint writes `segment.tmp`, fsyncs it, and renames it over the
//!   old segment, so the segment is always a complete, internally
//!   consistent snapshot.
//! * `wal.bin` — the append-only write-ahead log of every mutation since
//!   the last checkpoint. `put`/`remove` append records; `flush` appends
//!   a `Commit` record (the transaction boundary) and, under
//!   [`Durability::Strict`], fsyncs.
//!
//! # Crash safety
//!
//! Opening a store replays the segment strictly (it was published
//! atomically, so any damage is a hard [`StoreError::CorruptSegment`]),
//! then replays the WAL leniently: per-record CRC/length framing detects
//! the torn tail a crash leaves behind, and everything after — plus any
//! uncommitted transaction before it — is discarded. Recovered state is
//! therefore byte-identical to the state at some `flush` boundary, never
//! a torn hybrid; the crash-point property test in this crate drives a
//! workload through every possible WAL truncation point to pin this.
//!
//! # Caching
//!
//! Reads go through a byte-budgeted LRU ([`crate::lru::LruCache`]);
//! hits and misses land in [`StoreStats::cache_hits`] /
//! [`StoreStats::cache_misses`], which is what the `cold_start`
//! benchmark's recovery-storm hit rate reports.
//!
//! # I/O errors
//!
//! The [`BlockStore`] trait deliberately has no error channel (the HSM's
//! storage oracle either answers or the block is treated as missing), so
//! *unexpected* host I/O failures on the hot path (`put`/`get`/`flush`)
//! panic with context rather than silently corrupting state. Everything
//! on the recovery path ([`FileStore::open`], [`FileStore::checkpoint`])
//! returns typed [`StoreError`]s.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use safetypin_seckv::{BlockStore, StoreStats};

use crate::error::StoreError;
use crate::lru::LruCache;
use crate::wal::{replay, BlockLoc, Record};

/// How hard `flush` tries to make committed data survive power loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// fsync on every commit and checkpoint — survives power loss.
    #[default]
    Strict,
    /// Skip fsync: commits still hit the OS page cache (surviving
    /// process kills, which is what the crash tests exercise via file
    /// truncation) but not power loss. This is the CI knob — the WAL
    /// discipline and record framing are identical, only the syscalls
    /// are elided.
    Relaxed,
}

/// Tuning knobs for a [`FileStore`].
#[derive(Debug, Clone, Copy)]
pub struct FileOptions {
    /// fsync policy.
    pub durability: Durability,
    /// Byte budget of the block LRU cache (0 disables caching).
    pub cache_bytes: u64,
    /// Auto-checkpoint once the WAL exceeds this many bytes at a flush
    /// boundary (0 disables auto-checkpointing).
    pub checkpoint_wal_bytes: u64,
    /// Pin blocks at addresses below this bound in the LRU (never
    /// evicted; 0 pins nothing). The secure-deletion tree's heap
    /// addressing puts its top `T` levels at addresses `< 2^T`, and
    /// every root-to-leaf walk touches them — pinning them keeps a
    /// recovery storm's shared upper levels resident. The default pins
    /// the top 6 levels (63 nodes, ≈6 KB of 96-byte node blocks).
    pub pin_addrs_below: u64,
}

impl Default for FileOptions {
    fn default() -> Self {
        Self {
            durability: Durability::Strict,
            cache_bytes: 256 << 10,
            checkpoint_wal_bytes: 8 << 20,
            pin_addrs_below: 1 << 6,
        }
    }
}

impl FileOptions {
    /// Default options with [`Durability::Relaxed`] (the CI/test knob).
    pub fn relaxed() -> Self {
        Self {
            durability: Durability::Relaxed,
            ..Self::default()
        }
    }

    /// Sets the fsync policy.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }
}

/// What [`FileStore::open`] found and repaired.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Live blocks recovered from the checkpointed segment.
    pub segment_blocks: usize,
    /// Committed WAL transactions replayed over the segment.
    pub wal_commits: u64,
    /// Bytes of torn / uncommitted WAL tail discarded.
    pub torn_bytes_discarded: u64,
    /// Why WAL scanning stopped, when it was not a clean end-of-file.
    pub torn_reason: Option<&'static str>,
}

/// Which on-disk file a live block currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residence {
    Segment,
    Wal,
}

/// Global-registry handles resolved once at [`FileStore::open`] so the
/// hot paths (`put`/`get`/`flush`) never pay a per-call name lookup.
/// These mirror [`StoreStats`] into the process-wide telemetry surface:
/// `store.wal_appends` / `store.wal_bytes` count every WAL record,
/// `store.checkpoints` counts compactions, `store.cache_hits` /
/// `store.cache_misses` track the block LRU, and the `store.fsync`
/// histogram records each durability syscall's latency in microseconds.
#[derive(Debug)]
struct StoreMeters {
    wal_appends: std::sync::Arc<safetypin_telemetry::Counter>,
    wal_bytes: std::sync::Arc<safetypin_telemetry::Counter>,
    checkpoints: std::sync::Arc<safetypin_telemetry::Counter>,
    cache_hits: std::sync::Arc<safetypin_telemetry::Counter>,
    cache_misses: std::sync::Arc<safetypin_telemetry::Counter>,
    fsync: std::sync::Arc<safetypin_telemetry::Histogram>,
}

impl StoreMeters {
    fn from_global() -> Self {
        let registry = safetypin_telemetry::global();
        Self {
            wal_appends: registry.counter("store.wal_appends"),
            wal_bytes: registry.counter("store.wal_bytes"),
            checkpoints: registry.counter("store.checkpoints"),
            cache_hits: registry.counter("store.cache_hits"),
            cache_misses: registry.counter("store.cache_misses"),
            fsync: registry.histogram("store.fsync"),
        }
    }
}

/// A crash-safe, file-backed block store. See the module docs.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    opts: FileOptions,
    segment: File,
    wal: File,
    wal_len: u64,
    /// Mutations appended since the last commit record.
    uncommitted: u64,
    seq: u64,
    index: HashMap<u64, (Residence, BlockLoc)>,
    cache: LruCache,
    stats: StoreStats,
    recovery: RecoveryReport,
    meters: StoreMeters,
}

pub(crate) const SEGMENT_FILE: &str = "segment.bin";
const SEGMENT_TMP: &str = "segment.tmp";
const WAL_FILE: &str = "wal.bin";

fn read_all(file: &mut File) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut buf)?;
    Ok(buf)
}

impl FileStore {
    /// Opens (creating if necessary) the store rooted at `dir`,
    /// replaying the segment and WAL into an in-memory index.
    pub fn open(dir: impl AsRef<Path>, opts: FileOptions) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // An orphaned tmp file is an interrupted checkpoint: the rename
        // never happened, so the old segment + WAL are still authoritative.
        let tmp = dir.join(SEGMENT_TMP);
        if tmp.exists() {
            std::fs::remove_file(&tmp)?;
        }

        let mut segment = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(SEGMENT_FILE))?;
        let seg_bytes = read_all(&mut segment)?;
        let seg_replay = replay(&seg_bytes);
        // The segment is published atomically, so anything short of a
        // clean full replay is real corruption, not a crash artifact.
        if let Some((_, reason)) = seg_replay.torn {
            return Err(StoreError::CorruptSegment {
                offset: seg_replay.committed_len,
                reason,
            });
        }
        if !seg_bytes.is_empty() && seg_replay.commits == 0 {
            return Err(StoreError::CorruptSegment {
                offset: 0,
                reason: "segment carries no commit record",
            });
        }
        let mut index: HashMap<u64, (Residence, BlockLoc)> = HashMap::new();
        for (addr, effect) in &seg_replay.effects {
            if let Some(loc) = effect {
                index.insert(*addr, (Residence::Segment, *loc));
            }
        }
        let segment_blocks = index.len();

        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(WAL_FILE))?;
        let wal_bytes = read_all(&mut wal)?;
        let wal_replay = replay(&wal_bytes);
        for (addr, effect) in &wal_replay.effects {
            match effect {
                Some(loc) => {
                    index.insert(*addr, (Residence::Wal, *loc));
                }
                None => {
                    index.remove(addr);
                }
            }
        }
        // Truncate the torn / uncommitted tail so appends resume at a
        // clean record boundary.
        let torn_bytes = wal_bytes.len() as u64 - wal_replay.committed_len;
        if torn_bytes > 0 {
            wal.set_len(wal_replay.committed_len)?;
            if opts.durability == Durability::Strict {
                wal.sync_data()?;
            }
        }

        let mut store = Self {
            dir,
            opts,
            segment,
            wal,
            wal_len: wal_replay.committed_len,
            uncommitted: 0,
            seq: seg_replay.last_seq.max(wal_replay.last_seq),
            index,
            cache: LruCache::with_pinned(opts.cache_bytes, opts.pin_addrs_below),
            stats: StoreStats::default(),
            recovery: RecoveryReport {
                segment_blocks,
                wal_commits: wal_replay.commits,
                torn_bytes_discarded: torn_bytes,
                torn_reason: wal_replay.torn.map(|(_, reason)| reason),
            },
            meters: StoreMeters::from_global(),
        };
        // Warm the pinned prefix: the top tree levels sit on every
        // root-to-leaf walk, so a freshly restored store would pay one
        // cold miss per node per device at the start of a recovery
        // storm. Prefetching them here (a startup scan, not workload
        // I/O — the hit/miss meters are untouched) turns those
        // first touches into hits.
        if store.opts.cache_bytes > 0 && store.opts.pin_addrs_below > 0 {
            let mut warm: Vec<(u64, Residence, BlockLoc)> = store
                .index
                .iter()
                .filter(|(addr, _)| **addr < store.opts.pin_addrs_below)
                .map(|(addr, (residence, loc))| (*addr, *residence, *loc))
                .collect();
            warm.sort_unstable_by_key(|&(addr, ..)| addr);
            for (addr, residence, loc) in warm {
                let block = store.read_at(residence, loc)?;
                store.cache.put(addr, &block);
            }
        }
        Ok(store)
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Accumulated I/O statistics (including cache hit/miss counters).
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Clears the I/O statistics.
    pub fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
    }

    /// Number of live blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Current WAL length in bytes (committed + staged).
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// Mutations staged since the last commit boundary.
    pub fn uncommitted_ops(&self) -> u64 {
        self.uncommitted
    }

    /// What the last [`open`](Self::open) recovered.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    fn read_at(&mut self, residence: Residence, loc: BlockLoc) -> std::io::Result<Vec<u8>> {
        let file = match residence {
            Residence::Segment => &mut self.segment,
            Residence::Wal => &mut self.wal,
        };
        file.seek(SeekFrom::Start(loc.offset))?;
        let mut buf = vec![0u8; loc.len as usize];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn append_wal(&mut self, record: &Record) -> std::io::Result<()> {
        let frame = record.to_frame();
        self.wal.seek(SeekFrom::Start(self.wal_len))?;
        self.wal.write_all(&frame)?;
        self.wal_len += frame.len() as u64;
        self.meters.wal_appends.incr();
        self.meters.wal_bytes.add(frame.len() as u64);
        Ok(())
    }

    /// fsyncs `file` and records the syscall latency in `store.fsync`.
    fn timed_sync(meters: &StoreMeters, file: &File, data_only: bool) -> std::io::Result<()> {
        let start = std::time::Instant::now();
        if data_only {
            file.sync_data()?;
        } else {
            file.sync_all()?;
        }
        meters.fsync.record_duration(start.elapsed());
        Ok(())
    }

    fn commit_inner(&mut self) -> Result<(), StoreError> {
        if self.uncommitted == 0 {
            return Ok(());
        }
        self.seq += 1;
        let record = Record::Commit { seq: self.seq };
        self.append_wal(&record)?;
        if self.opts.durability == Durability::Strict {
            Self::timed_sync(&self.meters, &self.wal, true)?;
        }
        self.stats.flushes += 1;
        self.uncommitted = 0;
        Ok(())
    }

    /// Commits staged mutations: appends a `Commit` record, fsyncs under
    /// [`Durability::Strict`], and auto-checkpoints once the WAL crosses
    /// the configured threshold. A no-op when nothing is staged.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        self.commit_inner()?;
        if self.opts.checkpoint_wal_bytes > 0 && self.wal_len > self.opts.checkpoint_wal_bytes {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Compacts all live blocks into a fresh segment, atomically
    /// replacing the old one, then truncates the WAL.
    ///
    /// Crash windows: before the rename the old segment + WAL are
    /// untouched; between the rename and the WAL truncation the WAL
    /// replays idempotently over the new segment. Either way, reopening
    /// yields exactly the committed state.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        // Staged ops become a committed transaction first — a segment
        // only ever captures commit-boundary state.
        self.commit_inner()?;
        let tmp_path = self.dir.join(SEGMENT_TMP);
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;

        // Deterministic order keeps checkpoint bytes reproducible.
        let mut addrs: Vec<u64> = self.index.keys().copied().collect();
        addrs.sort_unstable();
        let mut new_index: HashMap<u64, (Residence, BlockLoc)> =
            HashMap::with_capacity(addrs.len());
        let mut offset = 0u64;
        let mut buf = Vec::new();
        for addr in addrs {
            let (residence, loc) = self.index[&addr];
            let block = self.read_at(residence, loc)?;
            let record = Record::Put {
                addr,
                block: block.clone(),
            };
            let frame = record.to_frame();
            new_index.insert(
                addr,
                (
                    Residence::Segment,
                    BlockLoc {
                        offset: offset + crate::wal::FRAME_LEN as u64 + 9,
                        len: block.len() as u32,
                    },
                ),
            );
            offset += frame.len() as u64;
            buf.extend_from_slice(&frame);
            // Bound memory: stream out in ~4 MiB slabs.
            if buf.len() > 4 << 20 {
                tmp.write_all(&buf)?;
                buf.clear();
            }
        }
        buf.extend_from_slice(&Record::Commit { seq: self.seq }.to_frame());
        tmp.write_all(&buf)?;
        if self.opts.durability == Durability::Strict {
            Self::timed_sync(&self.meters, &tmp, false)?;
        }
        std::fs::rename(&tmp_path, self.dir.join(SEGMENT_FILE))?;
        if self.opts.durability == Durability::Strict {
            // Make the rename itself durable.
            Self::timed_sync(&self.meters, &File::open(&self.dir)?, false)?;
        }
        // The handle written as tmp now *is* the segment (same inode).
        self.segment = tmp;
        self.index = new_index;
        self.wal.set_len(0)?;
        if self.opts.durability == Durability::Strict {
            Self::timed_sync(&self.meters, &self.wal, true)?;
        }
        self.wal_len = 0;
        self.meters.checkpoints.incr();
        Ok(())
    }

    /// Reads every live block (bypassing stats) — test/persist helper
    /// mirroring [`safetypin_seckv::MemStore::snapshot`].
    pub fn snapshot(&mut self) -> HashMap<u64, Vec<u8>> {
        let entries: Vec<(u64, (Residence, BlockLoc))> =
            self.index.iter().map(|(a, l)| (*a, *l)).collect();
        entries
            .into_iter()
            .map(|(addr, (residence, loc))| {
                let block = self
                    .read_at(residence, loc)
                    .expect("snapshot read of indexed block");
                (addr, block)
            })
            .collect()
    }
}

impl BlockStore for FileStore {
    fn put(&mut self, addr: u64, block: &[u8]) {
        self.stats.writes += 1;
        self.stats.bytes_written += block.len() as u64;
        let block_offset = self.wal_len + crate::wal::FRAME_LEN as u64 + 9;
        let record = Record::Put {
            addr,
            block: block.to_vec(),
        };
        self.append_wal(&record)
            .expect("WAL append failed (host storage unavailable)");
        self.index.insert(
            addr,
            (
                Residence::Wal,
                BlockLoc {
                    offset: block_offset,
                    len: block.len() as u32,
                },
            ),
        );
        self.cache.put(addr, block);
        self.uncommitted += 1;
    }

    fn get(&mut self, addr: u64) -> Option<Vec<u8>> {
        self.stats.reads += 1;
        let (residence, loc) = *self.index.get(&addr)?;
        if let Some(block) = self.cache.get(addr) {
            let block = block.to_vec();
            self.stats.cache_hits += 1;
            self.meters.cache_hits.incr();
            self.stats.bytes_read += block.len() as u64;
            return Some(block);
        }
        self.stats.cache_misses += 1;
        self.meters.cache_misses.incr();
        let block = self
            .read_at(residence, loc)
            .expect("read of indexed block failed (host storage unavailable)");
        self.stats.bytes_read += block.len() as u64;
        self.cache.put(addr, &block);
        Some(block)
    }

    fn remove(&mut self, addr: u64) {
        self.stats.removes += 1;
        if self.index.remove(&addr).is_some() {
            self.append_wal(&Record::Remove { addr })
                .expect("WAL append failed (host storage unavailable)");
            self.cache.remove(addr);
            self.uncommitted += 1;
        }
    }

    fn flush(&mut self) {
        self.commit()
            .expect("WAL commit failed (host storage unavailable)");
    }

    fn io_stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "safetypin-store-{}-{tag}-{:p}",
            std::process::id(),
            &tag as *const _
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = tmpdir("roundtrip");
        {
            let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
            s.put(1, &[1, 2, 3]);
            s.put(2, &[4]);
            s.put(1, &[9, 9]);
            s.remove(2);
            s.flush();
        }
        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        assert_eq!(s.get(1), Some(vec![9, 9]));
        assert_eq!(s.get(2), None);
        assert_eq!(s.block_count(), 1);
        assert_eq!(s.recovery().wal_commits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_tail_lost_on_reopen() {
        let dir = tmpdir("unflushed");
        {
            let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
            s.put(1, &[1]);
            s.flush();
            s.put(1, &[2]); // never committed
            assert_eq!(s.get(1), Some(vec![2]), "live process sees staged write");
        }
        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        assert_eq!(s.get(1), Some(vec![1]), "reopen sees last commit");
        assert!(s.recovery().torn_bytes_discarded > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_preserves_state() {
        let dir = tmpdir("checkpoint");
        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        for i in 0..32u64 {
            s.put(i, &[i as u8; 8]);
        }
        for i in 0..16u64 {
            s.remove(i);
        }
        s.flush();
        let pre = s.snapshot();
        s.checkpoint().unwrap();
        assert_eq!(s.wal_len(), 0);
        assert_eq!(s.snapshot(), pre);
        drop(s);
        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        assert_eq!(s.snapshot(), pre);
        assert_eq!(s.recovery().segment_blocks, 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_on_wal_growth() {
        let dir = tmpdir("auto-ckpt");
        let mut opts = FileOptions::relaxed();
        opts.checkpoint_wal_bytes = 128;
        let mut s = FileStore::open(&dir, opts).unwrap();
        for i in 0..64u64 {
            s.put(i, &[0; 16]);
            s.flush();
        }
        assert!(
            s.wal_len() < 2048,
            "WAL must be folded into the segment, got {}",
            s.wal_len()
        );
        assert_eq!(s.block_count(), 64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_hit_and_miss_counters() {
        let dir = tmpdir("cache");
        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        // 1000 sits above the default pinned prefix, so a reopen really
        // is a cold cache for it (the prefix itself is prefetched).
        s.put(1000, &[1; 32]);
        s.flush();
        s.reset_stats();
        assert!(s.get(1000).is_some()); // put() primed the cache
        assert_eq!(s.stats().cache_hits, 1);
        // Evict by clearing: easiest via a fresh open (cold cache).
        drop(s);
        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        assert!(s.get(1000).is_some());
        assert!(s.get(1000).is_some());
        let st = s.stats();
        assert_eq!(st.cache_misses, 1);
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.cache_hit_rate(), Some(0.5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pinned_prefix_is_prefetched_on_open() {
        let dir = tmpdir("prefetch");
        {
            let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
            for addr in [1u64, 5, 63, 64, 500] {
                s.put(addr, &[addr as u8; 16]);
            }
            s.flush();
        }
        // Reopen: addresses below the default pin bound (64) are warmed
        // by the startup scan — their first workload read is a hit —
        // while everything above starts cold.
        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        for addr in [1u64, 5, 63] {
            assert_eq!(s.get(addr), Some(vec![addr as u8; 16]));
        }
        assert_eq!(s.stats().cache_hits, 3, "pinned prefix must open warm");
        assert_eq!(s.stats().cache_misses, 0);
        assert!(s.get(64).is_some());
        assert!(s.get(500).is_some());
        assert_eq!(s.stats().cache_misses, 2, "unpinned blocks open cold");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_counter_meters_real_commits_only() {
        let dir = tmpdir("flush-count");
        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        s.flush(); // nothing staged: no commit, no count
        assert_eq!(s.stats().flushes, 0);
        s.put(1, &[1]);
        s.put(2, &[2]);
        s.flush(); // one commit covers both puts (group commit)
        s.flush(); // nothing staged again
        assert_eq!(s.stats().flushes, 1);
        s.put(3, &[3]);
        s.flush();
        assert_eq!(s.stats().flushes, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pinned_top_levels_stay_cached_under_churn() {
        let dir = tmpdir("pin");
        let mut opts = FileOptions::relaxed();
        opts.cache_bytes = 1 << 10;
        opts.pin_addrs_below = 8; // pin addrs 1..8
        let mut s = FileStore::open(&dir, opts).unwrap();
        for addr in 1..8u64 {
            s.put(addr, &[addr as u8; 64]);
        }
        // Churn far more unpinned data than the budget holds.
        for addr in 1000..1100u64 {
            s.put(addr, &[0; 64]);
        }
        s.flush();
        s.reset_stats();
        for addr in 1..8u64 {
            assert!(s.get(addr).is_some());
        }
        assert_eq!(s.stats().cache_hits, 7, "pinned prefix must stay resident");
        assert_eq!(s.stats().cache_misses, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_checkpoint_tmp_is_ignored() {
        let dir = tmpdir("tmp-orphan");
        {
            let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
            s.put(1, &[5]);
            s.flush();
        }
        // Simulate a crash mid-checkpoint: a half-written tmp file.
        std::fs::write(dir.join(SEGMENT_TMP), b"garbage half checkpoint").unwrap();
        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        assert_eq!(s.get(1), Some(vec![5]));
        assert!(!dir.join(SEGMENT_TMP).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_segment_is_a_hard_error() {
        let dir = tmpdir("bad-segment");
        {
            let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
            s.put(1, &[5; 64]);
            s.flush();
            s.checkpoint().unwrap();
        }
        // Flip a byte in the middle of the segment.
        let path = dir.join(SEGMENT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileStore::open(&dir, FileOptions::relaxed()),
            Err(StoreError::CorruptSegment { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_durability_roundtrip() {
        // Same discipline with fsync enabled — just exercises the
        // Strict code paths.
        let dir = tmpdir("strict");
        {
            let mut s = FileStore::open(&dir, FileOptions::default()).unwrap();
            s.put(3, &[3; 3]);
            s.flush();
            s.checkpoint().unwrap();
        }
        let mut s = FileStore::open(&dir, FileOptions::default()).unwrap();
        assert_eq!(s.get(3), Some(vec![3; 3]));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
