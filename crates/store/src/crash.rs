//! Crash / torn-write injection for durability tests.
//!
//! [`CrashingStore`] joins the adversarial family of
//! [`safetypin_seckv::store::adversarial`] (`TamperingStore`,
//! `ReplayStore`, `DroppingStore`): it wraps any [`BlockStore`] and
//! models a host that loses power mid-operation. Two triggers:
//!
//! * **Byte budget** ([`CrashingStore::new`]) — the write straddling the
//!   budget boundary is torn (only a prefix lands) and every later write
//!   is lost entirely, while reads keep serving whatever made it to
//!   "disk". Driving a [`crate::FileStore`]-backed `SecureArray` through
//!   it exercises exactly the failure the AEAD block framing and the
//!   WAL's CRC framing exist to catch.
//! * **Nth commit** ([`CrashingStore::on_nth_commit`]) — the host dies
//!   *during* the Nth durability barrier: every write staged since the
//!   previous commit is revoked (it never reached disk) and everything
//!   after is lost. Where the byte budget lands at an arbitrary offset,
//!   the commit trigger lands at an exact transaction boundary, which is
//!   what a seeded chaos schedule needs to make "the fleet dies on the
//!   third commit of the epoch" replay deterministically
//!   (`safetypin-chaos` drives this trigger from its `ChaosPlan`).

use safetypin_seckv::BlockStore;

/// When the wrapped host "loses power".
enum Trigger {
    /// Crash once this many bytes of block data have been written; the
    /// straddling write is torn.
    Bytes(u64),
    /// Crash during the Nth `flush` (1-based); writes staged since the
    /// previous flush are revoked.
    Commit { nth: u64, seen: u64 },
}

/// Wraps a store, killing writes at a configured crash point.
pub struct CrashingStore<S> {
    inner: S,
    trigger: Trigger,
    crashed: bool,
    /// Addresses written (or removed) since the last completed commit —
    /// the set a mid-commit crash revokes. Tracked only for the commit
    /// trigger.
    staged: Vec<(u64, Option<Vec<u8>>)>,
    /// Writes silently lost after the crash point.
    pub dropped_writes: u64,
    /// Writes torn at the crash point (a prefix landed).
    pub torn_writes: u64,
    /// Writes revoked by a mid-commit crash (staged but never durable).
    pub revoked_writes: u64,
}

impl<S: BlockStore> CrashingStore<S> {
    /// Wraps `inner`; the first `budget_bytes` of block data written
    /// pass through, the write straddling the boundary is torn, and
    /// everything after is dropped.
    pub fn new(inner: S, budget_bytes: u64) -> Self {
        Self {
            inner,
            trigger: Trigger::Bytes(budget_bytes),
            crashed: false,
            staged: Vec::new(),
            dropped_writes: 0,
            torn_writes: 0,
            revoked_writes: 0,
        }
    }

    /// Wraps `inner`; the host dies during the `nth` durability barrier
    /// (1-based `flush` call): commits `1..nth` are durable, the `nth`
    /// commit's staged writes are revoked wholesale, and everything
    /// after is dropped. `nth == 0` crashes before anything commits.
    pub fn on_nth_commit(inner: S, nth: u64) -> Self {
        Self {
            inner,
            trigger: Trigger::Commit { nth, seen: 0 },
            crashed: false,
            staged: Vec::new(),
            dropped_writes: 0,
            torn_writes: 0,
            revoked_writes: 0,
        }
    }

    /// Whether the crash point has been hit.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Completed durability barriers (commit-triggered stores only).
    pub fn commits(&self) -> u64 {
        match self.trigger {
            Trigger::Bytes(_) => 0,
            Trigger::Commit { seen, .. } => seen,
        }
    }

    /// Unwraps the inner store (what "disk" holds after the crash).
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn staging(&self) -> bool {
        matches!(self.trigger, Trigger::Commit { .. })
    }
}

/// What reached "disk" before the crash is what a checkpoint captures.
impl<S: crate::SnapshotBlocks> crate::SnapshotBlocks for CrashingStore<S> {
    fn checkpoint_into(
        &mut self,
        dir: &std::path::Path,
        opts: crate::FileOptions,
    ) -> Result<(), crate::StoreError> {
        self.inner.checkpoint_into(dir, opts)
    }
}

impl<S: BlockStore> BlockStore for CrashingStore<S> {
    fn put(&mut self, addr: u64, block: &[u8]) {
        if self.crashed {
            self.dropped_writes += 1;
            return;
        }
        match &mut self.trigger {
            Trigger::Bytes(budget) => {
                let len = block.len() as u64;
                if len <= *budget {
                    *budget -= len;
                    self.inner.put(addr, block);
                } else {
                    // Torn write: only the prefix inside the budget lands.
                    let keep = *budget as usize;
                    self.inner.put(addr, &block[..keep]);
                    *budget = 0;
                    self.crashed = true;
                    self.torn_writes += 1;
                }
            }
            Trigger::Commit { .. } => {
                // Remember what was there so a mid-commit crash can
                // revoke the whole staged transaction.
                self.staged.push((addr, self.inner.get(addr)));
                self.inner.put(addr, block);
            }
        }
    }

    fn get(&mut self, addr: u64) -> Option<Vec<u8>> {
        self.inner.get(addr)
    }

    fn remove(&mut self, addr: u64) {
        if self.crashed {
            self.dropped_writes += 1;
            return;
        }
        if self.staging() {
            self.staged.push((addr, self.inner.get(addr)));
        }
        self.inner.remove(addr);
    }

    fn flush(&mut self) {
        if self.crashed {
            return;
        }
        match &mut self.trigger {
            Trigger::Bytes(_) => self.inner.flush(),
            Trigger::Commit { nth, seen } => {
                if *seen + 1 >= *nth && *seen < *nth {
                    // Power fails during this barrier: everything staged
                    // since the previous commit never reached disk.
                    self.crashed = true;
                    self.revoked_writes += self.staged.len() as u64;
                    for (addr, prior) in self.staged.drain(..).rev() {
                        match prior {
                            Some(block) => self.inner.put(addr, &block),
                            None => self.inner.remove(addr),
                        }
                    }
                } else {
                    *seen += 1;
                    self.staged.clear();
                    self.inner.flush();
                }
            }
        }
    }

    fn io_stats(&self) -> safetypin_seckv::StoreStats {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use safetypin_seckv::{MemStore, SecureArray, StorageError};

    #[test]
    fn budget_tears_the_straddling_write() {
        let mut s = CrashingStore::new(MemStore::new(), 5);
        s.put(1, &[1, 2, 3]); // 3 bytes pass
        s.put(2, &[4, 5, 6, 7]); // torn after 2 bytes
        s.put(3, &[8]); // dropped
        s.remove(1); // dropped
        assert!(s.crashed());
        assert_eq!(s.torn_writes, 1);
        assert_eq!(s.dropped_writes, 2);
        let mut disk = s.into_inner();
        assert_eq!(disk.get(1), Some(vec![1, 2, 3]));
        assert_eq!(disk.get(2), Some(vec![4, 5]));
        assert_eq!(disk.get(3), None);
    }

    #[test]
    fn nth_commit_crash_revokes_the_open_transaction() {
        let mut s = CrashingStore::on_nth_commit(MemStore::new(), 2);
        // Commit 1: lands whole.
        s.put(1, &[1]);
        s.put(2, &[2]);
        s.flush();
        assert_eq!(s.commits(), 1);
        assert!(!s.crashed());
        // Commit 2: power fails during the barrier — both staged writes
        // (one overwrite, one fresh) revoke to their pre-commit state.
        s.put(2, &[22]);
        s.put(3, &[3]);
        s.remove(1);
        s.flush();
        assert!(s.crashed());
        assert_eq!(s.revoked_writes, 3);
        // Everything after the crash is lost.
        s.put(4, &[4]);
        s.flush();
        assert_eq!(s.dropped_writes, 1);
        let mut disk = s.into_inner();
        assert_eq!(disk.get(1), Some(vec![1]));
        assert_eq!(disk.get(2), Some(vec![2]));
        assert_eq!(disk.get(3), None);
        assert_eq!(disk.get(4), None);
    }

    #[test]
    fn zeroth_commit_crash_keeps_disk_empty() {
        let mut s = CrashingStore::on_nth_commit(MemStore::new(), 1);
        s.put(1, &[1]);
        s.flush();
        assert!(s.crashed());
        assert_eq!(s.into_inner().get(1), None);
    }

    #[test]
    fn nth_commit_is_deterministic_for_a_scripted_workload() {
        // The whole point of the commit trigger: the same workload
        // crashed at commit N always recovers the exact prefix of N-1
        // commits — an exact boundary, not "some boundary".
        let script: &[&[(u64, u8)]] = &[
            &[(1, 10), (2, 20)],
            &[(3, 30)],
            &[(2, 21), (4, 40)],
            &[(5, 50)],
        ];
        for nth in 1..=script.len() as u64 {
            let mut s = CrashingStore::on_nth_commit(MemStore::new(), nth);
            for txn in script {
                for (addr, val) in txn.iter() {
                    s.put(*addr, &[*val]);
                }
                s.flush();
            }
            assert!(s.crashed(), "nth={nth}");
            assert_eq!(s.commits(), nth - 1);
            let mut disk = s.into_inner();
            // Disk state is exactly the first nth-1 transactions.
            let mut expect = std::collections::HashMap::new();
            for txn in script.iter().take(nth as usize - 1) {
                for (addr, val) in txn.iter() {
                    expect.insert(*addr, vec![*val]);
                }
            }
            for addr in 1..=5u64 {
                assert_eq!(disk.get(addr), expect.get(&addr).cloned(), "nth={nth}");
            }
        }
    }

    #[test]
    fn secure_array_detects_torn_and_lost_blocks_at_every_crash_point() {
        // A SecureArray whose provider dies mid-setup: wherever the
        // crash lands, later reads either succeed with correct data or
        // fail typed — never return wrong data. (The AEAD framing is
        // what turns a torn block into AuthFailure instead of garbage.)
        let data: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 20]).collect();
        // Total setup traffic, measured once on an unharmed store.
        let mut rng = StdRng::seed_from_u64(99);
        let mut reference = MemStore::new();
        let mut ref_arr = SecureArray::setup(&mut reference, &data, &mut rng).unwrap();
        let total_bytes = reference.stats().bytes_written;

        for crash_at in (0..total_bytes).step_by(97) {
            let mut rng = StdRng::seed_from_u64(99);
            let mut store = CrashingStore::new(MemStore::new(), crash_at);
            let mut arr = SecureArray::setup(&mut store, &data, &mut rng).unwrap();
            assert!(store.crashed() || crash_at >= total_bytes);
            for i in 0..8u64 {
                match arr.read(&mut store, i) {
                    Ok(block) => assert_eq!(block, data[i as usize], "crash_at={crash_at} i={i}"),
                    Err(
                        StorageError::AuthFailure(_)
                        | StorageError::MissingBlock(_)
                        | StorageError::Deleted(_),
                    ) => {}
                    Err(e) => panic!("unexpected error at crash_at={crash_at}: {e:?}"),
                }
            }
        }
        // Sanity: the unharmed reference reads everything.
        for i in 0..8u64 {
            assert_eq!(ref_arr.read(&mut reference, i).unwrap(), data[i as usize]);
        }
    }
}
