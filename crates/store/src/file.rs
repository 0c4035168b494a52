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
//!   the last checkpoint. `put`/`remove` frame their records into an
//!   in-memory staging buffer; `flush` appends a `Commit` record (the
//!   transaction boundary) and writes the whole transaction — its frames
//!   and its commit record — with **one** positioned write at the end of
//!   the committed log, then, under [`Durability::Strict`], fsyncs. The
//!   buffer is released at the commit, so nothing is held between
//!   transactions. The bytes on disk are exactly those of appending each
//!   frame as it is staged; only the number of writes differs.
//!
//! # Crash safety
//!
//! Nothing uncommitted reaches the file: a store dropped (or a process
//! killed) mid-transaction leaves `wal.bin` at its last commit. Opening
//! a store replays the segment strictly (it was published atomically, so
//! any damage is a hard [`StoreError::CorruptSegment`]), then replays the
//! WAL leniently: per-record CRC/length framing detects the torn tail a
//! crash during the commit write leaves behind, and that tail is
//! discarded. Recovered state is therefore byte-identical to the state
//! at some `flush` boundary, never a torn hybrid; the crash-point
//! property test in this crate drives a workload through every possible
//! WAL truncation point to pin this.
//!
//! # Reads
//!
//! The store keeps an in-memory index (address → file and offset) and no
//! block cache of its own: a `get` of a block written in the open
//! transaction copies it out of the staging buffer, and any other `get`
//! is an index lookup plus one positioned read (`pread`) of the indexed
//! location, served by the kernel's page cache. No file cursor is ever
//! moved: every read and write names its offset. (A private LRU in
//! front of the page cache bought nothing end to end and cost memory;
//! see README "Dead-weight census".) [`StoreStats::cache_hits`] /
//! [`StoreStats::cache_misses`] therefore stay zero, as for
//! [`safetypin_seckv::MemStore`].
//!
//! # I/O errors
//!
//! The [`BlockStore`] trait deliberately has no error channel (the HSM's
//! storage oracle either answers or the block is treated as missing), so
//! *unexpected* host I/O failures on the hot path (`get`/`flush`; `put`
//! and `remove` touch only memory) panic with context rather than
//! silently corrupting state. Everything on the recovery path
//! ([`FileStore::open`], [`FileStore::checkpoint`]) returns typed
//! [`StoreError`]s.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use safetypin_seckv::{BlockStore, StoreStats};

use crate::error::StoreError;
use crate::wal::{replay, BlockLoc, Record, PUT_BLOCK_OFFSET};

/// How hard `flush` tries to make committed data survive power loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// fsync on every commit and checkpoint — survives power loss.
    #[default]
    Strict,
    /// Skip fsync: each commit's one write still reaches the OS page
    /// cache (surviving process kills, which is what the crash tests
    /// exercise via file truncation) but not power loss. This is the CI
    /// and benchmark knob — the WAL discipline, record framing and
    /// writes are identical, only the sync syscalls are elided.
    Relaxed,
}

/// How a [`FileStore`] (and the snapshot files written beside it) treats
/// durability — the store's only option.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileOptions {
    /// fsync policy.
    pub durability: Durability,
}

/// A commit that leaves the WAL longer than this folds it into the
/// segment, bounding replay-on-open.
const CHECKPOINT_WAL_BYTES: u64 = 8 << 20;

impl FileOptions {
    /// Default options with [`Durability::Relaxed`] (the CI/test knob).
    pub fn relaxed() -> Self {
        Self::default().with_durability(Durability::Relaxed)
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

/// Where each live block currently lives.
type Index = HashMap<u64, (Residence, BlockLoc)>;

/// Global-registry handles resolved once at [`FileStore::open`] so the
/// hot paths (`put`/`get`/`flush`) never pay a per-call name lookup.
/// These mirror [`StoreStats`] into the process-wide telemetry surface:
/// `store.wal_appends` / `store.wal_bytes` count every WAL record
/// and `store.checkpoints` counts compactions.
#[derive(Debug)]
struct StoreMeters {
    wal_appends: std::sync::Arc<safetypin_telemetry::Counter>,
    wal_bytes: std::sync::Arc<safetypin_telemetry::Counter>,
    checkpoints: std::sync::Arc<safetypin_telemetry::Counter>,
}

impl StoreMeters {
    fn from_global() -> Self {
        let registry = safetypin_telemetry::global();
        // Registered here so a store that never syncs (Relaxed) still
        // exports the series — at zero, which is the claim to check.
        registry.histogram("store.fsync");
        Self {
            wal_appends: registry.counter("store.wal_appends"),
            wal_bytes: registry.counter("store.wal_bytes"),
            checkpoints: registry.counter("store.checkpoints"),
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
    /// Length of `wal.bin`: everything up to the last commit record.
    durable_len: u64,
    /// Frames of the open transaction, bound for `wal.bin` at
    /// `durable_len`. Empty between transactions.
    staged: Vec<u8>,
    seq: u64,
    index: Index,
    stats: StoreStats,
    recovery: RecoveryReport,
    meters: StoreMeters,
}

const SEGMENT_FILE: &str = "segment.bin";
const SEGMENT_TMP: &str = "segment.tmp";
const WAL_FILE: &str = "wal.bin";

/// Opens `path` read-write, creating it if absent.
fn open_rw(path: &Path, truncate: bool) -> std::io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(truncate)
        .open(path)
}

fn read_all(file: &File) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0u8; file.metadata()?.len() as usize];
    file.read_exact_at(&mut buf, 0)?;
    Ok(buf)
}

fn read_block(file: &File, loc: BlockLoc) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0u8; loc.len as usize];
    file.read_exact_at(&mut buf, loc.offset)?;
    Ok(buf)
}

/// The one place the store issues a durability syscall: fsyncs `file`
/// under [`Durability::Strict`], recording the latency in the
/// `store.fsync` histogram; a no-op under [`Durability::Relaxed`].
fn timed_sync(durability: Durability, file: &File, data_only: bool) -> std::io::Result<()> {
    if durability == Durability::Relaxed {
        return Ok(());
    }
    let start = std::time::Instant::now();
    if data_only {
        file.sync_data()?;
    } else {
        file.sync_all()?;
    }
    safetypin_telemetry::global()
        .histogram("store.fsync")
        .record_duration(start.elapsed());
    Ok(())
}

/// Atomic publication of a fully written `tmp` file as `path`: fsync,
/// rename over the old contents, then fsync the directory so the rename
/// itself survives power loss. Readers see the old file or the new one,
/// never a torn one.
pub(crate) fn publish(
    tmp: &File,
    tmp_path: &Path,
    path: &Path,
    durability: Durability,
) -> std::io::Result<()> {
    timed_sync(durability, tmp, false)?;
    std::fs::rename(tmp_path, path)?;
    if let Some(dir) = path.parent() {
        timed_sync(durability, &File::open(dir)?, false)?;
    }
    Ok(())
}

/// The one segment writer: streams `blocks` — which must arrive in
/// ascending address order — into `dir/segment.tmp` as one `Put` frame
/// each plus a closing `Commit { seq }`, telling `placed` where each
/// block's bytes landed, then publishes the file as `dir/segment.bin`.
/// Returns the handle, which now *is* the segment.
pub(crate) fn write_segment(
    dir: &Path,
    blocks: impl Iterator<Item = std::io::Result<(u64, Vec<u8>)>>,
    seq: u64,
    durability: Durability,
    mut placed: impl FnMut(u64, BlockLoc),
) -> Result<File, StoreError> {
    let tmp_path = dir.join(SEGMENT_TMP);
    let tmp = open_rw(&tmp_path, true)?;
    // `written` bytes are in the file, `buf` holds the ones after them.
    let mut written = 0u64;
    let mut buf = Vec::new();
    for entry in blocks {
        let (addr, block) = entry?;
        let loc = BlockLoc {
            offset: written + buf.len() as u64 + PUT_BLOCK_OFFSET,
            len: block.len() as u32,
        };
        placed(addr, loc);
        Record::Put {
            addr,
            block: &block,
        }
        .append_frame(&mut buf);
        // Bound memory: stream out in ~4 MiB slabs.
        if buf.len() > 4 << 20 {
            tmp.write_all_at(&buf, written)?;
            written += buf.len() as u64;
            buf.clear();
        }
    }
    Record::Commit { seq }.append_frame(&mut buf);
    tmp.write_all_at(&buf, written)?;
    publish(&tmp, &tmp_path, &dir.join(SEGMENT_FILE), durability)?;
    Ok(tmp)
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

        let segment = open_rw(&dir.join(SEGMENT_FILE), false)?;
        let seg_bytes = read_all(&segment)?;
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
        let mut index = Index::new();
        for (addr, effect) in &seg_replay.effects {
            if let Some(loc) = effect {
                index.insert(*addr, (Residence::Segment, *loc));
            }
        }
        let segment_blocks = index.len();

        let wal = open_rw(&dir.join(WAL_FILE), false)?;
        let wal_bytes = read_all(&wal)?;
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
        // Truncate the torn / uncommitted tail (a crash mid-commit-write)
        // so the next commit lands at a clean record boundary.
        let torn_bytes = wal_bytes.len() as u64 - wal_replay.committed_len;
        if torn_bytes > 0 {
            wal.set_len(wal_replay.committed_len)?;
            timed_sync(opts.durability, &wal, true)?;
        }

        Ok(Self {
            dir,
            opts,
            segment,
            wal,
            durable_len: wal_replay.committed_len,
            staged: Vec::new(),
            seq: seg_replay.last_seq.max(wal_replay.last_seq),
            index,
            stats: StoreStats::default(),
            recovery: RecoveryReport {
                segment_blocks,
                wal_commits: wal_replay.commits,
                torn_bytes_discarded: torn_bytes,
                torn_reason: wal_replay.torn.map(|(_, reason)| reason),
            },
            meters: StoreMeters::from_global(),
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Accumulated I/O statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Number of live blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Current WAL length in bytes (committed + staged).
    pub fn wal_len(&self) -> u64 {
        self.durable_len + self.staged.len() as u64
    }

    /// What the last [`open`](Self::open) recovered.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The one read path: a block of the open transaction is copied out
    /// of the staging buffer, any other is one positioned read.
    fn read_at(&self, residence: Residence, loc: BlockLoc) -> std::io::Result<Vec<u8>> {
        match residence {
            Residence::Wal if loc.offset >= self.durable_len => {
                let start = (loc.offset - self.durable_len) as usize;
                Ok(self.staged[start..start + loc.len as usize].to_vec())
            }
            Residence::Wal => read_block(&self.wal, loc),
            Residence::Segment => read_block(&self.segment, loc),
        }
    }

    /// Frames `record` into the open transaction at logical WAL offset
    /// [`wal_len`](Self::wal_len).
    fn stage(&mut self, record: &Record) {
        let before = self.staged.len();
        record.append_frame(&mut self.staged);
        self.meters.wal_appends.incr();
        self.meters
            .wal_bytes
            .add((self.staged.len() - before) as u64);
    }

    fn commit_inner(&mut self) -> Result<(), StoreError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let open_len = self.staged.len();
        self.stage(&Record::Commit { seq: self.seq + 1 });
        if let Err(e) = self.wal.write_all_at(&self.staged, self.durable_len) {
            // The transaction stays open: a retry rewrites it in place,
            // and a reopen discards whatever prefix landed.
            self.staged.truncate(open_len);
            return Err(e.into());
        }
        self.seq += 1;
        self.durable_len += self.staged.len() as u64;
        self.staged = Vec::new();
        timed_sync(self.opts.durability, &self.wal, true)?;
        self.stats.flushes += 1;
        Ok(())
    }

    /// Commits staged mutations: appends a `Commit` record, writes the
    /// transaction with one positioned write, fsyncs under
    /// [`Durability::Strict`], and auto-checkpoints once the WAL grows
    /// past 8 MiB. A no-op when nothing is staged.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        self.commit_inner()?;
        if self.durable_len > CHECKPOINT_WAL_BYTES {
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
        // Deterministic order keeps checkpoint bytes reproducible.
        let mut live: Vec<(u64, (Residence, BlockLoc))> =
            self.index.iter().map(|(addr, at)| (*addr, *at)).collect();
        live.sort_unstable_by_key(|&(addr, _)| addr);
        let blocks = live.into_iter().map(|(addr, (residence, loc))| {
            self.read_at(residence, loc).map(|block| (addr, block))
        });
        let mut index = Index::with_capacity(self.index.len());
        // The handle written as tmp now *is* the segment (same inode).
        self.segment = write_segment(
            &self.dir,
            blocks,
            self.seq,
            self.opts.durability,
            |addr, loc| {
                index.insert(addr, (Residence::Segment, loc));
            },
        )?;
        self.index = index;
        self.wal.set_len(0)?;
        timed_sync(self.opts.durability, &self.wal, true)?;
        self.durable_len = 0;
        self.meters.checkpoints.incr();
        Ok(())
    }

    /// Reads every live block (bypassing stats) — test/persist helper
    /// mirroring [`safetypin_seckv::MemStore::snapshot`].
    pub fn snapshot(&self) -> HashMap<u64, Vec<u8>> {
        self.index
            .iter()
            .map(|(&addr, &(residence, loc))| {
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
        let block_offset = self.wal_len() + PUT_BLOCK_OFFSET;
        self.stage(&Record::Put { addr, block });
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
    }

    fn get(&mut self, addr: u64) -> Option<Vec<u8>> {
        self.stats.reads += 1;
        let (residence, loc) = *self.index.get(&addr)?;
        let block = self
            .read_at(residence, loc)
            .expect("read of indexed block failed (host storage unavailable)");
        self.stats.bytes_read += block.len() as u64;
        Some(block)
    }

    fn remove(&mut self, addr: u64) {
        self.stats.removes += 1;
        if self.index.remove(&addr).is_some() {
            self.stage(&Record::Remove { addr });
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
        let committed_len;
        {
            let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
            s.put(1, &[1]);
            s.flush();
            committed_len = s.wal_len();
            s.put(1, &[2]); // never committed
            s.put(2, &[3]);
            s.remove(2);
            assert_eq!(s.get(1), Some(vec![2]), "live process sees staged write");
        }
        // The dropped transaction never reached the file.
        let on_disk = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(on_disk, committed_len);
        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        assert_eq!(s.get(1), Some(vec![1]), "reopen sees last commit");
        assert_eq!(s.recovery().torn_bytes_discarded, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_discarded_on_reopen() {
        let dir = tmpdir("torn-tail");
        {
            let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
            s.put(1, &[1; 8]);
            s.flush();
        }
        // A crash mid-commit-write: half a `Put` frame lands past the
        // last commit.
        let mut frame = Vec::new();
        Record::Put {
            addr: 1,
            block: &[2; 8],
        }
        .append_frame(&mut frame);
        let torn = &frame[..frame.len() / 2];
        let path = dir.join(WAL_FILE);
        let mut wal = std::fs::read(&path).unwrap();
        let committed_len = wal.len() as u64;
        wal.extend_from_slice(torn);
        std::fs::write(&path, &wal).unwrap();

        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        assert_eq!(s.recovery().torn_bytes_discarded, torn.len() as u64);
        assert_eq!(s.get(1), Some(vec![1; 8]), "the last commit survives");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed_len);
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
        let s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        assert_eq!(s.snapshot(), pre);
        assert_eq!(s.recovery().segment_blocks, 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_on_wal_growth() {
        let dir = tmpdir("auto-ckpt");
        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        // 12 MiB of commits over four addresses: the WAL crosses the
        // threshold once, after the ninth.
        for i in 0..12u64 {
            s.put(i % 4, &vec![i as u8; 1 << 20]);
            s.flush();
        }
        assert!(
            s.wal_len() < CHECKPOINT_WAL_BYTES,
            "WAL must be folded into the segment, got {}",
            s.wal_len()
        );
        assert_eq!(s.block_count(), 4);
        drop(s);
        let mut s = FileStore::open(&dir, FileOptions::relaxed()).unwrap();
        assert_eq!(s.recovery().segment_blocks, 4);
        assert_eq!(s.get(3), Some(vec![11; 1 << 20]));
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
