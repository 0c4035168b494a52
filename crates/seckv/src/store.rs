//! Block-store abstraction over the untrusted provider.
//!
//! The HSM sees external storage as a flat address space of opaque blocks
//! (`SGet`/`SPut` oracles in Appendix C). The provider implements it with
//! ordinary disks; tests implement it with adversarial stores that tamper,
//! replay, and drop blocks to exercise the integrity property.

use std::collections::HashMap;

/// The external storage oracle pair (`SGet`, `SPut`) from Appendix C.
///
/// `get` takes `&mut self` so that instrumented and adversarial
/// implementations can update counters or mutate their replay state on
/// reads.
///
/// `put` borrows the block (`&[u8]`) rather than taking ownership: the
/// hot write path (`SecureArray` re-keying) seals each node into a stack
/// frame and hands that frame to the store, so an owning signature would
/// force an allocation per re-keyed node. Backends that need ownership
/// (e.g. an in-memory map) copy exactly once, inside the store.
pub trait BlockStore {
    /// Stores `block` at `addr`, replacing any previous block.
    fn put(&mut self, addr: u64, block: &[u8]);

    /// Retrieves the block at `addr`, or `None` if absent.
    fn get(&mut self, addr: u64) -> Option<Vec<u8>>;

    /// Forgets the block at `addr` (space reclamation after secure
    /// deletion made the ciphertext useless). Absent addresses are a
    /// no-op, and so is the default implementation: keeping a dead block
    /// around is always *safe* — it can no longer be decrypted — so
    /// backends opt in to reclamation.
    fn remove(&mut self, _addr: u64) {}

    /// Durability barrier: a persistent backend commits everything
    /// written so far (write-ahead-log commit record + fsync, per its
    /// durability mode) before returning. Volatile and adversarial
    /// stores keep the default no-op.
    fn flush(&mut self) {}

    /// Accumulated I/O statistics. Instrumented backends override this;
    /// the default reports nothing (all-zero counters).
    fn io_stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

/// Byte/operation counters for a store.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of `get` calls.
    pub reads: u64,
    /// Number of `put` calls.
    pub writes: u64,
    /// Number of `remove` calls.
    pub removes: u64,
    /// Total bytes returned by `get`.
    pub bytes_read: u64,
    /// Total bytes accepted by `put`.
    pub bytes_written: u64,
    /// `get` calls served from a block cache (backends with one).
    pub cache_hits: u64,
    /// `get` calls that missed the block cache and went to the backing
    /// medium.
    pub cache_misses: u64,
    /// Durability barriers that actually committed staged work (on a
    /// write-ahead-logged backend, each is a commit record and — under
    /// strict durability — an fsync). `flush` calls with nothing staged
    /// are not counted, so this meters real fsync pressure: the
    /// throughput engine's group commit drives it down from one per
    /// served request to one per served batch.
    pub flushes: u64,
}

impl StoreStats {
    /// Component-wise sum (fleet-level aggregation).
    pub fn add(&mut self, other: &StoreStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.removes += other.removes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.flushes += other.flushes;
    }

    /// Cache hit rate over all cache-visible reads, or `None` when the
    /// backend recorded no cache traffic (e.g. [`MemStore`]).
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return None;
        }
        Some(self.cache_hits as f64 / total as f64)
    }
}

/// An in-memory block store with instrumentation, used as the honest
/// provider in tests and benchmarks.
#[derive(Debug, Default)]
pub struct MemStore {
    blocks: HashMap<u64, Vec<u8>>,
    stats: StoreStats,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns accumulated I/O statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Clears the I/O statistics (e.g., after setup, before measuring).
    pub fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
    }

    /// Number of blocks currently stored.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Snapshots all blocks (used by adversarial replay stores in tests).
    pub fn snapshot(&self) -> HashMap<u64, Vec<u8>> {
        self.blocks.clone()
    }
}

impl BlockStore for MemStore {
    fn put(&mut self, addr: u64, block: &[u8]) {
        self.stats.writes += 1;
        self.stats.bytes_written += block.len() as u64;
        self.blocks.insert(addr, block.to_vec());
    }

    fn get(&mut self, addr: u64) -> Option<Vec<u8>> {
        self.stats.reads += 1;
        let block = self.blocks.get(&addr).cloned();
        if let Some(b) = &block {
            self.stats.bytes_read += b.len() as u64;
        }
        block
    }

    fn remove(&mut self, addr: u64) {
        self.stats.removes += 1;
        self.blocks.remove(&addr);
    }

    fn io_stats(&self) -> StoreStats {
        self.stats
    }
}

/// Adversarial store wrappers used to exercise integrity guarantees.
pub mod adversarial {
    use super::*;

    /// Flips a bit in every block whose address satisfies a predicate.
    pub struct TamperingStore<S> {
        inner: S,
        /// Addresses to corrupt on read.
        pub corrupt: Box<dyn Fn(u64) -> bool + Send>,
        _marker: std::marker::PhantomData<S>,
    }

    impl<S: BlockStore> TamperingStore<S> {
        /// Wraps `inner`, corrupting reads of addresses matching `corrupt`.
        pub fn new(inner: S, corrupt: impl Fn(u64) -> bool + Send + 'static) -> Self {
            Self {
                inner,
                corrupt: Box::new(corrupt),
                _marker: std::marker::PhantomData,
            }
        }

        /// Unwraps the honest store underneath.
        pub fn into_inner(self) -> S {
            self.inner
        }
    }

    impl<S: BlockStore> BlockStore for TamperingStore<S> {
        fn put(&mut self, addr: u64, block: &[u8]) {
            self.inner.put(addr, block);
        }

        fn remove(&mut self, addr: u64) {
            self.inner.remove(addr);
        }

        fn get(&mut self, addr: u64) -> Option<Vec<u8>> {
            let mut block = self.inner.get(addr)?;
            if (self.corrupt)(addr) {
                if let Some(byte) = block.first_mut() {
                    *byte ^= 0x01;
                }
            }
            Some(block)
        }

        fn io_stats(&self) -> StoreStats {
            self.inner.io_stats()
        }
    }

    /// Records the first version ever written to each address and serves
    /// that stale version forever (a rollback attacker).
    #[derive(Default)]
    pub struct ReplayStore {
        first_writes: HashMap<u64, Vec<u8>>,
        current: MemStore,
        /// When true, serve the recorded first write instead of the latest.
        pub replay_enabled: bool,
    }

    impl ReplayStore {
        /// Creates an empty replay store with replay disabled.
        pub fn new() -> Self {
            Self::default()
        }
    }

    impl BlockStore for ReplayStore {
        fn put(&mut self, addr: u64, block: &[u8]) {
            self.first_writes
                .entry(addr)
                .or_insert_with(|| block.to_vec());
            self.current.put(addr, block);
        }

        // `remove` keeps the default no-op: a rollback attacker never
        // forgets a block it has seen.

        fn get(&mut self, addr: u64) -> Option<Vec<u8>> {
            if self.replay_enabled {
                if let Some(old) = self.first_writes.get(&addr) {
                    return Some(old.clone());
                }
            }
            self.current.get(addr)
        }
    }

    /// Drops blocks at matching addresses (models provider data loss).
    pub struct DroppingStore<S> {
        inner: S,
        /// Addresses to pretend are missing.
        pub dropped: Box<dyn Fn(u64) -> bool + Send>,
    }

    impl<S: BlockStore> DroppingStore<S> {
        /// Wraps `inner`, hiding blocks whose addresses match `dropped`.
        pub fn new(inner: S, dropped: impl Fn(u64) -> bool + Send + 'static) -> Self {
            Self {
                inner,
                dropped: Box::new(dropped),
            }
        }
    }

    impl<S: BlockStore> BlockStore for DroppingStore<S> {
        fn put(&mut self, addr: u64, block: &[u8]) {
            self.inner.put(addr, block);
        }

        fn remove(&mut self, addr: u64) {
            self.inner.remove(addr);
        }

        fn get(&mut self, addr: u64) -> Option<Vec<u8>> {
            if (self.dropped)(addr) {
                return None;
            }
            self.inner.get(addr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_roundtrip_and_stats() {
        let mut s = MemStore::new();
        s.put(1, &[1, 2, 3]);
        s.put(2, &[4]);
        assert_eq!(s.get(1), Some(vec![1, 2, 3]));
        assert_eq!(s.get(3), None);
        let st = s.stats();
        assert_eq!(st.writes, 2);
        assert_eq!(st.reads, 2);
        assert_eq!(st.bytes_written, 4);
        assert_eq!(st.bytes_read, 3);
    }

    #[test]
    fn memstore_overwrite() {
        let mut s = MemStore::new();
        s.put(7, &[1]);
        s.put(7, &[2]);
        assert_eq!(s.get(7), Some(vec![2]));
        assert_eq!(s.block_count(), 1);
    }

    #[test]
    fn tampering_store_corrupts_selected() {
        let mut inner = MemStore::new();
        inner.put(1, &[0xAA]);
        inner.put(2, &[0xBB]);
        let mut t = adversarial::TamperingStore::new(inner, |addr| addr == 1);
        assert_eq!(t.get(1), Some(vec![0xAB]));
        assert_eq!(t.get(2), Some(vec![0xBB]));
    }

    #[test]
    fn replay_store_rolls_back() {
        let mut r = adversarial::ReplayStore::new();
        r.put(5, &[1]);
        r.put(5, &[2]);
        assert_eq!(r.get(5), Some(vec![2]));
        r.replay_enabled = true;
        assert_eq!(r.get(5), Some(vec![1]));
    }

    #[test]
    fn dropping_store_hides_blocks() {
        let mut inner = MemStore::new();
        inner.put(9, &[9]);
        let mut d = adversarial::DroppingStore::new(inner, |addr| addr == 9);
        assert_eq!(d.get(9), None);
    }
}
