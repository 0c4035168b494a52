//! The key tree: constant HSM state, logarithmic reads and secure deletes.
//!
//! Layout (heap addressing, perfect binary tree):
//!
//! ```text
//!            addr 1 (root)            plaintext: k_left ‖ k_right
//!           /            \
//!        addr 2         addr 3        ...
//!        /    \         /    \
//!    addr 4  addr 5  addr 6  addr 7   leaves: plaintext = data block
//! ```
//!
//! The HSM holds only the root key. Every node ciphertext is bound to its
//! address and to a per-array instance ID through AEAD associated data, so
//! the provider cannot swap blocks between addresses or between arrays.
//! Deleting item `i` zeroes the leaf key held in its parent and re-keys
//! every node from that parent up to the root (Appendix C `Delete`), after
//! which no sequence of recorded blocks plus current HSM state can recover
//! the deleted item.

use std::collections::{BTreeMap, BTreeSet};

use rand::{CryptoRng, RngCore};
use safetypin_primitives::aead::{self, AeadKey, ENCODED_OVERHEAD, KEY_LEN, PLAINTEXT_OFFSET};
use safetypin_primitives::error::WireError;
use safetypin_primitives::wire;
use safetypin_primitives::wire::{Decode, Encode, Reader, Writer};
use safetypin_primitives::zeroize::wipe_array;

use crate::store::BlockStore;
use crate::{Result, StorageError};

/// The "useless encryption key" (all zeros) marking a deleted leaf,
/// mirroring `Delete`'s base case in Appendix C.
const ZERO_KEY: [u8; KEY_LEN] = [0u8; KEY_LEN];

/// Encoded size of an interior node: its children's key pair, sealed.
const NODE_LEN: usize = 2 * KEY_LEN + ENCODED_OVERHEAD;

wire! {
    /// Symmetric-operation counters for one `SecureArray`.
    ///
    /// The simulation layer converts these into SoloKey-calibrated time
    /// (AES blocks at Table 7 rates); the store's own [`crate::StoreStats`]
    /// covers the I/O half. The block counters make provider round-trips
    /// observable, so batching wins (shared path prefixes re-keyed once
    /// instead of once per delete) show up directly in the meters.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct Metrics {
        /// AEAD seal operations performed.
        pub aead_enc_ops: u64,
        /// AEAD open operations performed.
        pub aead_dec_ops: u64,
        /// Plaintext bytes sealed.
        pub bytes_encrypted: u64,
        /// Ciphertext bytes opened.
        pub bytes_decrypted: u64,
        /// Blocks fetched from the provider store.
        pub blocks_fetched: u64,
        /// Blocks written to the provider store.
        pub blocks_written: u64,
    }
}

impl Metrics {
    fn record_enc(&mut self, plaintext_len: usize) {
        self.aead_enc_ops += 1;
        self.bytes_encrypted += plaintext_len as u64;
    }

    /// Meters one open of an encoded ciphertext: its nonce and body, the
    /// encoding less the body's `u32` length prefix.
    fn record_dec(&mut self, encoded_len: usize) {
        self.aead_dec_ops += 1;
        self.bytes_decrypted += (encoded_len - (PLAINTEXT_OFFSET - aead::NONCE_LEN)) as u64;
    }
}

/// The complete trusted state of a [`SecureArray`] — what an HSM must
/// carry across a restart for the outsourced tree to stay readable.
///
/// Contains the root AEAD key, so a serialized `ArrayState` is exactly as
/// sensitive as the HSM's internal flash: the persistence layer
/// (`safetypin-store`) always seals it under a device key before it
/// leaves trusted memory. The blocks themselves stay at the untrusted
/// provider and are *not* part of this state. The key is an
/// [`AeadKey`], so dropping the state wipes it and the derived `Debug`
/// and `PartialEq` redact it and compare it in constant time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayState {
    root_key: AeadKey,
    len: u64,
    height: u32,
    array_id: [u8; 16],
    metrics: Metrics,
}

impl Encode for ArrayState {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(self.root_key.as_bytes());
        w.put_u64(self.len);
        w.put_u32(self.height);
        w.put_fixed(&self.array_id);
        self.metrics.encode(w);
    }
}

impl Decode for ArrayState {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        Ok(Self {
            root_key: AeadKey::from_bytes(r.get_array::<KEY_LEN>()?),
            len: r.get_u64()?,
            height: r.get_u32()?,
            array_id: r.get_array::<16>()?,
            metrics: Metrics::decode(r)?,
        })
    }
}

/// An outsourced data array supporting authenticated reads and secure
/// deletion, with constant trusted state.
///
/// # Examples
///
/// ```
/// use safetypin_seckv::{MemStore, SecureArray};
/// let mut rng = rand::thread_rng();
/// let mut store = MemStore::new();
/// let data: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 4]).collect();
/// let mut arr = SecureArray::setup(&mut store, &data, &mut rng).unwrap();
/// assert_eq!(arr.read(&mut store, 3).unwrap(), vec![3; 4]);
/// arr.delete(&mut store, 3, &mut rng).unwrap();
/// assert!(arr.read(&mut store, 3).is_err());
/// assert_eq!(arr.read(&mut store, 4).unwrap(), vec![4; 4]);
/// ```
#[derive(Debug)]
pub struct SecureArray {
    root_key: AeadKey,
    len: u64,
    height: u32,
    array_id: [u8; 16],
    metrics: Metrics,
}

fn aad_for(array_id: &[u8; 16], addr: u64) -> [u8; 24] {
    let mut aad = [0u8; 24];
    aad[..16].copy_from_slice(array_id);
    aad[16..].copy_from_slice(&addr.to_be_bytes());
    aad
}

/// Seals an interior node, the pair of its children's keys, under `key`.
/// The keys are written straight into the frame and encrypted there, so
/// no plaintext copy is left behind.
fn seal_node<R: RngCore + CryptoRng>(
    key: &AeadKey,
    aad: &[u8; 24],
    left: &AeadKey,
    right: &AeadKey,
    rng: &mut R,
) -> [u8; NODE_LEN] {
    let mut frame = [0u8; NODE_LEN];
    frame[PLAINTEXT_OFFSET..][..KEY_LEN].copy_from_slice(left.as_bytes());
    frame[PLAINTEXT_OFFSET + KEY_LEN..][..KEY_LEN].copy_from_slice(right.as_bytes());
    aead::seal_in_place(key, aad, &mut frame, rng)
        .expect("NODE_LEN is a key pair plus the AEAD overhead");
    frame
}

/// What a [`Descent`] found at one interior node.
#[derive(Debug)]
enum Node {
    /// Opened: the keys of its two children.
    Pair(AeadKey, AeadKey),
    /// Its key is zero: every leaf under it is deleted.
    DeletedSubtree,
    /// It, or a node above it, could not be fetched or opened.
    Failed(StorageError),
}

/// The interior nodes of a [`SecureArray`] opened so far, each fetched
/// and opened once, kept so that reads and a delete can share them.
///
/// A descent grows with every [`SecureArray::open_paths`] and serves any
/// number of [`SecureArray::read_through`] calls, then at most one
/// [`SecureArray::delete_through`], which consumes it. A damaged node is
/// recorded, not fatal: it fails only the leaves under it. The descent
/// holds the root key it was opened under and is refused once the array
/// has re-keyed since. Every key it holds is an [`AeadKey`], wiped when
/// the descent is dropped.
#[derive(Debug)]
pub struct Descent {
    root_key: AeadKey,
    nodes: BTreeMap<u64, Node>,
}

impl Descent {
    /// The key that opens the node at `addr` (a leaf or an interior node),
    /// or the outcome its subtree inherits when there is none: deleted
    /// under a zero key, failed under a failed parent. The parent must
    /// have been opened.
    fn key_for(&self, addr: u64) -> core::result::Result<&AeadKey, Node> {
        let key = if addr == 1 {
            &self.root_key
        } else {
            match self
                .nodes
                .get(&(addr >> 1))
                .expect("parents are opened before children")
            {
                Node::Pair(left, right) => {
                    if addr & 1 == 0 {
                        left
                    } else {
                        right
                    }
                }
                Node::DeletedSubtree => return Err(Node::DeletedSubtree),
                Node::Failed(e) => return Err(Node::Failed(e.clone())),
            }
        };
        if key.is_zero() {
            Err(Node::DeletedSubtree)
        } else {
            Ok(key)
        }
    }
}

impl SecureArray {
    /// Encrypts `data` into `store` and returns the array handle holding
    /// only the root key (`Setup` in Appendix C).
    ///
    /// Runs in time linear in the (padded) array size. The array is padded
    /// to the next power of two with empty blocks; padded slots are
    /// inaccessible through the API.
    pub fn setup<S: BlockStore, R: RngCore + CryptoRng>(
        store: &mut S,
        data: &[Vec<u8>],
        rng: &mut R,
    ) -> Result<Self> {
        if data.is_empty() {
            return Err(StorageError::InvalidParameter(
                "data array must be nonempty",
            ));
        }
        let len = data.len() as u64;
        let padded = data.len().next_power_of_two();
        let height = padded.trailing_zeros();
        let mut array_id = [0u8; 16];
        rng.fill_bytes(&mut array_id);
        let mut metrics = Metrics::default();

        // Leaf level: encrypt each block under a fresh key. Setup is cold
        // (provisioning and rotation), so leaves keep the allocating
        // `seal`: sealing them in place here saved no request any time
        // and only moved where the allocator placed the fleet's blocks
        // (README "One descent per recovery group", peak RSS).
        let mut level_keys: Vec<AeadKey> = Vec::with_capacity(padded);
        let empty: Vec<u8> = Vec::new();
        for i in 0..padded as u64 {
            let key = AeadKey::random(rng);
            let addr = (1u64 << height) + i;
            let block = data.get(i as usize).unwrap_or(&empty);
            let ct = aead::seal(&key, &aad_for(&array_id, addr), block, rng);
            metrics.record_enc(block.len());
            metrics.blocks_written += 1;
            store.put(addr, &ct.to_bytes());
            level_keys.push(key);
        }

        // Interior levels: encrypt child-key pairs under fresh parent keys.
        let mut level_width = padded / 2;
        let mut level_base = (1u64 << height) / 2;
        while level_width >= 1 {
            let mut parent_keys = Vec::with_capacity(level_width);
            for j in 0..level_width {
                let key = AeadKey::random(rng);
                let addr = level_base + j as u64;
                let (left, right) = (&level_keys[2 * j], &level_keys[2 * j + 1]);
                let frame = seal_node(&key, &aad_for(&array_id, addr), left, right, rng);
                metrics.record_enc(2 * KEY_LEN);
                metrics.blocks_written += 1;
                store.put(addr, &frame);
                parent_keys.push(key);
            }
            level_keys = parent_keys;
            if level_width == 1 {
                break;
            }
            level_width /= 2;
            level_base /= 2;
        }

        let root_key = if height == 0 {
            // Single-leaf array: the leaf at addr 1 is the root.
            level_keys.pop().expect("one leaf key")
        } else {
            level_keys.pop().expect("one root key")
        };

        Ok(Self {
            root_key,
            len,
            height,
            array_id,
            metrics,
        })
    }

    /// Number of (real) items in the array.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Always false: setup rejects empty arrays.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the key tree (`⌈log₂ len⌉`).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Accumulated symmetric-operation counters.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Resets the symmetric-operation counters.
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::default();
    }

    /// Exposes the root key (models HSM state exfiltration in security
    /// tests; never used by the protocol itself).
    pub fn root_key_bytes(&self) -> [u8; KEY_LEN] {
        *self.root_key.as_bytes()
    }

    /// Exports the array's constant trusted state for persistence.
    ///
    /// The returned [`ArrayState`] contains the root key; callers must
    /// seal it (see `safetypin-store`) before writing it to host storage.
    pub fn export_state(&self) -> ArrayState {
        ArrayState {
            root_key: self.root_key.clone(),
            len: self.len,
            height: self.height,
            array_id: self.array_id,
            metrics: self.metrics,
        }
    }

    /// Reconstructs an array handle from exported state. The caller is
    /// responsible for presenting the same block store the original
    /// handle wrote to; mismatches surface as AEAD authentication
    /// failures on the first read.
    pub fn from_state(state: ArrayState) -> Self {
        Self {
            root_key: state.root_key,
            len: state.len,
            height: state.height,
            array_id: state.array_id,
            metrics: state.metrics,
        }
    }

    fn check_index(&self, i: u64) -> Result<()> {
        if i >= self.len {
            return Err(StorageError::IndexOutOfRange {
                index: i,
                len: self.len,
            });
        }
        Ok(())
    }

    /// A new, empty descent under the current root key.
    pub fn descent(&self) -> Descent {
        Descent {
            root_key: self.root_key.clone(),
            nodes: BTreeMap::new(),
        }
    }

    /// Refuses a descent opened before the array last re-keyed: its
    /// cached keys could read, or re-seal, what a delete removed since.
    fn check_fresh(&self, descent: &Descent) -> Result<()> {
        if descent.root_key != self.root_key {
            return Err(StorageError::InvalidParameter(
                "descent was opened before the array re-keyed",
            ));
        }
        Ok(())
    }

    /// Opens into `descent` every interior node on the paths to `indices`
    /// that it does not hold yet, in one level-order sweep (ascending
    /// addresses put parents first): each node is fetched and opened once
    /// however many paths and calls share it. A node that is missing or
    /// fails authentication is recorded with its error, and its subtree
    /// inherits that error; under a zero key a subtree is recorded as
    /// deleted. Out-of-range indices have no path and are skipped; a stale
    /// descent is left as it is (reading or deleting through it is
    /// refused).
    pub fn open_paths(
        &mut self,
        store: &mut impl BlockStore,
        descent: &mut Descent,
        indices: &[u64],
    ) {
        if self.check_fresh(descent).is_err() {
            return;
        }
        let mut needed: BTreeSet<u64> = BTreeSet::new();
        for &i in indices.iter().filter(|&&i| i < self.len) {
            let leaf_addr = (1u64 << self.height) + i;
            for level in 1..=self.height {
                let addr = leaf_addr >> level;
                // A held node's ancestors are held too.
                if descent.nodes.contains_key(&addr) || !needed.insert(addr) {
                    break;
                }
            }
        }
        for addr in needed {
            let node = match descent.key_for(addr) {
                Ok(key) => self.open_interior(store, key, addr),
                Err(inherited) => inherited,
            };
            descent.nodes.insert(addr, node);
        }
    }

    fn open_interior(&mut self, store: &mut impl BlockStore, key: &AeadKey, addr: u64) -> Node {
        let Some(raw) = store.get(addr) else {
            return Node::Failed(StorageError::MissingBlock(addr));
        };
        self.metrics.blocks_fetched += 1;
        let mut pair = [0u8; 2 * KEY_LEN];
        let node = match aead::open_into(key, &aad_for(&self.array_id, addr), &raw, &mut pair) {
            Ok(()) => {
                self.metrics.record_dec(raw.len());
                let (left, right) = pair.split_at(KEY_LEN);
                Node::Pair(
                    AeadKey::from_bytes(left.try_into().expect("KEY_LEN bytes")),
                    AeadKey::from_bytes(right.try_into().expect("KEY_LEN bytes")),
                )
            }
            Err(_) => Node::Failed(StorageError::AuthFailure(addr)),
        };
        wipe_array(&mut pair);
        node
    }

    fn open_leaf(
        &mut self,
        store: &mut impl BlockStore,
        key: &AeadKey,
        addr: u64,
    ) -> Result<Vec<u8>> {
        let raw = store.get(addr).ok_or(StorageError::MissingBlock(addr))?;
        self.metrics.blocks_fetched += 1;
        let mut pt = vec![0u8; raw.len().saturating_sub(ENCODED_OVERHEAD)];
        aead::open_into(key, &aad_for(&self.array_id, addr), &raw, &mut pt)
            .map_err(|_| StorageError::AuthFailure(addr))?;
        self.metrics.record_dec(raw.len());
        Ok(pt)
    }

    /// Reads item `i` (`Read` in Appendix C): walks the path from the root,
    /// decrypting each node with the key recovered from its parent.
    pub fn read(&mut self, store: &mut impl BlockStore, i: u64) -> Result<Vec<u8>> {
        self.read_batch(store, &[i])
            .pop()
            .expect("one result per index")
    }

    /// Reads many items in one pass, sharing root-to-leaf path prefixes:
    /// every interior node on the union of the requested paths is
    /// fetched and decrypted **once**, instead of once per request as a
    /// sequence of [`read`](Self::read) calls would.
    ///
    /// This is the read-side twin of [`delete_batch`](Self::delete_batch)
    /// and the shape of a coalesced multi-user recovery round: the
    /// requests an HSM serves in one batch walk heavily overlapping
    /// upper levels, and the shared-prefix pass turns that overlap into
    /// saved AEAD operations rather than merely saved block I/O.
    ///
    /// Returns one result per requested index, in input order, each
    /// exactly what [`read`](Self::read) would have returned (out-of-range
    /// indices fail in place; a deleted or damaged subtree fails every
    /// index under it). Duplicate indices are served from one fetch.
    pub fn read_batch(
        &mut self,
        store: &mut impl BlockStore,
        indices: &[u64],
    ) -> Vec<Result<Vec<u8>>> {
        let mut descent = self.descent();
        self.read_through(store, &mut descent, indices)
    }

    /// [`read_batch`](Self::read_batch) through a descent that may already
    /// hold some of the paths: only the nodes it lacks are opened, then
    /// one leaf per distinct index is fetched and opened.
    pub fn read_through(
        &mut self,
        store: &mut impl BlockStore,
        descent: &mut Descent,
        indices: &[u64],
    ) -> Vec<Result<Vec<u8>>> {
        if let Err(e) = self.check_fresh(descent) {
            return indices.iter().map(|_| Err(e.clone())).collect();
        }
        self.open_paths(store, descent, indices);
        let mut first_at: BTreeMap<u64, usize> = BTreeMap::new();
        let mut out: Vec<Result<Vec<u8>>> = Vec::with_capacity(indices.len());
        for (k, &i) in indices.iter().enumerate() {
            let result = match first_at.get(&i) {
                Some(&earlier) => out[earlier].clone(),
                None => {
                    first_at.insert(i, k);
                    self.check_index(i).and_then(|()| {
                        let leaf_addr = (1u64 << self.height) + i;
                        match descent.key_for(leaf_addr) {
                            Ok(key) => self.open_leaf(store, key, leaf_addr),
                            Err(Node::Failed(e)) => Err(e),
                            Err(_) => Err(StorageError::Deleted(i)),
                        }
                    })
                }
            };
            out.push(result);
        }
        out
    }

    /// Securely deletes item `i` (`Delete` in Appendix C): zeroes the leaf
    /// key in its parent and re-keys the path up to a fresh root key.
    ///
    /// Deleting an already-deleted item is a no-op that still refreshes the
    /// path. After this call returns, no combination of recorded provider
    /// blocks and future HSM state can recover the item.
    pub fn delete<R: RngCore + CryptoRng>(
        &mut self,
        store: &mut impl BlockStore,
        i: u64,
        rng: &mut R,
    ) -> Result<()> {
        self.delete_batch(store, &[i], rng)
    }

    /// Securely deletes many items in one pass, sharing root-to-leaf path
    /// prefixes: every interior node on the union of the target paths is
    /// decrypted once and re-keyed once, instead of once per target as a
    /// sequence of [`delete`](Self::delete) calls would.
    ///
    /// Semantically equivalent to deleting each index in turn — same
    /// subsequent read/delete outcomes, same root-key-freshness guarantee
    /// (the root is re-keyed whenever `indices` is nonempty) — but a batch
    /// of `k` targets in a height-`h` tree costs `|union of paths|` AEAD
    /// opens/seals and block round-trips instead of up to `k·h` of each.
    /// Duplicate indices and already-deleted leaves are permitted; an empty
    /// batch is a no-op. Any out-of-range index fails the whole call before
    /// the tree is touched.
    ///
    /// Trusted-memory cost is one key pair per union-of-paths node —
    /// `O(k·h)` for a `k`-target batch, which is what a puncture issues.
    /// Mass deletion (key rotation retires half of all slots) should be
    /// issued as a sequence of bounded-size batches: each chunk still
    /// amortizes its shared prefixes while keeping HSM memory constant,
    /// preserving the constant-trusted-state model of Appendix C.
    pub fn delete_batch<R: RngCore + CryptoRng>(
        &mut self,
        store: &mut impl BlockStore,
        indices: &[u64],
        rng: &mut R,
    ) -> Result<()> {
        let descent = self.descent();
        self.delete_through(store, descent, indices, rng)
    }

    /// [`delete_batch`](Self::delete_batch) through a descent that may
    /// already hold some of the paths, typically the one the reads before
    /// it went through: only the nodes it lacks are opened. If any node on
    /// the target paths could not be opened, the call fails with the
    /// first such node's error (in address order) and writes nothing.
    /// Otherwise the targets' leaf keys are zeroed and exactly the target
    /// paths are re-sealed, bottom up, under fresh keys; the rest of the
    /// descent is dropped unwritten.
    pub fn delete_through<R: RngCore + CryptoRng>(
        &mut self,
        store: &mut impl BlockStore,
        mut descent: Descent,
        indices: &[u64],
        rng: &mut R,
    ) -> Result<()> {
        for &i in indices {
            self.check_index(i)?;
        }
        if indices.is_empty() {
            return Ok(());
        }
        self.check_fresh(&descent)?;
        if self.height == 0 {
            // Single-item array: "deleting" means forgetting the root key.
            self.root_key = AeadKey::from_bytes(ZERO_KEY);
            // The lone ciphertext is now undecryptable; let the provider
            // reclaim it.
            store.remove(1);
            return Ok(());
        }

        // The interior nodes to re-key: the union of the target paths.
        // Every one must have opened (interior keys are fresh random
        // values, never zero, so a "deleted" interior node is a forgery
        // too).
        self.open_paths(store, &mut descent, indices);
        let mut rekey: BTreeSet<u64> = BTreeSet::new();
        for &i in indices {
            let leaf_addr = (1u64 << self.height) + i;
            rekey.extend((1..=self.height).map(|level| leaf_addr >> level));
        }
        for &addr in &rekey {
            match descent.nodes.get(&addr) {
                Some(Node::Pair(..)) => {}
                Some(Node::Failed(e)) => return Err(e.clone()),
                Some(Node::DeletedSubtree) | None => return Err(StorageError::AuthFailure(addr)),
            }
        }

        // Zero the leaf keys of every target (re-zeroing an
        // already-deleted leaf's slot is a no-op by construction).
        for &i in indices {
            let leaf_addr = (1u64 << self.height) + i;
            if let Some(Node::Pair(left, right)) = descent.nodes.get_mut(&(leaf_addr >> 1)) {
                let slot = if leaf_addr & 1 == 0 { left } else { right };
                *slot = AeadKey::from_bytes(ZERO_KEY);
            }
            // The leaf ciphertext can never be decrypted again (its key
            // slot is zeroed and the path above is about to be re-keyed):
            // tell the provider it may reclaim the block. Purely an
            // optimization — a backend that ignores `remove` keeps a
            // dead ciphertext.
            store.remove(leaf_addr);
        }

        // Ascend (descending address order = children before parents):
        // re-seal every node on the target paths under a fresh key and
        // install that key in its parent; the root's fresh key becomes HSM
        // state.
        for &addr in rekey.iter().rev() {
            let fresh = AeadKey::random(rng);
            let Some(Node::Pair(left, right)) = descent.nodes.get(&addr) else {
                unreachable!("every node on the target paths opened");
            };
            let frame = seal_node(&fresh, &aad_for(&self.array_id, addr), left, right, rng);
            self.metrics.record_enc(2 * KEY_LEN);
            self.metrics.blocks_written += 1;
            store.put(addr, &frame);
            if addr == 1 {
                self.root_key = fresh;
            } else if let Some(Node::Pair(left, right)) = descent.nodes.get_mut(&(addr >> 1)) {
                let slot = if addr & 1 == 0 { left } else { right };
                *slot = fresh;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::adversarial::{DroppingStore, ReplayStore, TamperingStore};
    use crate::store::MemStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    fn blocks(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("block-{i}").into_bytes()).collect()
    }

    #[test]
    fn setup_and_read_all_sizes() {
        let mut rng = rng();
        for n in [1usize, 2, 3, 4, 5, 8, 9, 17, 64, 100] {
            let mut store = MemStore::new();
            let data = blocks(n);
            let mut arr = SecureArray::setup(&mut store, &data, &mut rng).unwrap();
            for (i, expected) in data.iter().enumerate() {
                assert_eq!(
                    &arr.read(&mut store, i as u64).unwrap(),
                    expected,
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn delete_then_read_fails_only_for_deleted() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let data = blocks(16);
        let mut arr = SecureArray::setup(&mut store, &data, &mut rng).unwrap();
        arr.delete(&mut store, 5, &mut rng).unwrap();
        assert_eq!(
            arr.read(&mut store, 5).unwrap_err(),
            StorageError::Deleted(5)
        );
        for i in (0..16u64).filter(|&i| i != 5) {
            assert_eq!(arr.read(&mut store, i).unwrap(), data[i as usize]);
        }
    }

    #[test]
    fn delete_is_idempotent() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(8), &mut rng).unwrap();
        arr.delete(&mut store, 2, &mut rng).unwrap();
        arr.delete(&mut store, 2, &mut rng).unwrap();
        assert!(matches!(
            arr.read(&mut store, 2),
            Err(StorageError::Deleted(2))
        ));
        assert!(arr.read(&mut store, 3).is_ok());
    }

    #[test]
    fn delete_sibling_pairs() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let data = blocks(8);
        let mut arr = SecureArray::setup(&mut store, &data, &mut rng).unwrap();
        // Delete both children of one parent, then neighbors.
        arr.delete(&mut store, 0, &mut rng).unwrap();
        arr.delete(&mut store, 1, &mut rng).unwrap();
        arr.delete(&mut store, 7, &mut rng).unwrap();
        for i in [0u64, 1, 7] {
            assert!(arr.read(&mut store, i).is_err());
        }
        for i in [2u64, 3, 4, 5, 6] {
            assert_eq!(arr.read(&mut store, i).unwrap(), data[i as usize]);
        }
    }

    #[test]
    fn delete_all_items() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(4), &mut rng).unwrap();
        for i in 0..4u64 {
            arr.delete(&mut store, i, &mut rng).unwrap();
        }
        for i in 0..4u64 {
            assert!(arr.read(&mut store, i).is_err());
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(5), &mut rng).unwrap();
        // Index 5..8 are padding; 8+ beyond the tree.
        for i in [5u64, 6, 7, 8, 100] {
            assert!(matches!(
                arr.read(&mut store, i),
                Err(StorageError::IndexOutOfRange { .. })
            ));
            assert!(matches!(
                arr.delete(&mut store, i, &mut rng),
                Err(StorageError::IndexOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn single_item_array() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(1), &mut rng).unwrap();
        assert_eq!(arr.read(&mut store, 0).unwrap(), b"block-0");
        arr.delete(&mut store, 0, &mut rng).unwrap();
        assert!(arr.read(&mut store, 0).is_err());
    }

    #[test]
    fn empty_array_rejected() {
        let mut rng = rng();
        let mut store = MemStore::new();
        assert!(SecureArray::setup(&mut store, &[], &mut rng).is_err());
    }

    #[test]
    fn tampering_detected() {
        let mut rng = rng();
        let mut inner = MemStore::new();
        let data = blocks(16);
        let mut arr = SecureArray::setup(&mut inner, &data, &mut rng).unwrap();
        // Corrupt the root block.
        let mut store = TamperingStore::new(inner, |addr| addr == 1);
        assert!(matches!(
            arr.read(&mut store, 0),
            Err(StorageError::AuthFailure(1))
        ));
    }

    #[test]
    fn leaf_tampering_detected() {
        let mut rng = rng();
        let mut inner = MemStore::new();
        let mut arr = SecureArray::setup(&mut inner, &blocks(8), &mut rng).unwrap();
        // Leaf 3 is at address 2^3 + 3 = 11.
        let mut store = TamperingStore::new(inner, |addr| addr == 11);
        assert!(arr.read(&mut store, 3).is_err());
        assert!(arr.read(&mut store, 4).is_ok());
    }

    #[test]
    fn block_swap_detected() {
        // Swapping two sibling leaf blocks must fail the address binding.
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(4), &mut rng).unwrap();
        let a = store.get(4).unwrap();
        let b = store.get(5).unwrap();
        store.put(4, &b);
        store.put(5, &a);
        assert!(arr.read(&mut store, 0).is_err());
        assert!(arr.read(&mut store, 1).is_err());
    }

    #[test]
    fn missing_block_detected() {
        let mut rng = rng();
        let mut inner = MemStore::new();
        let mut arr = SecureArray::setup(&mut inner, &blocks(8), &mut rng).unwrap();
        let mut store = DroppingStore::new(inner, |addr| addr == 2);
        assert!(matches!(
            arr.read(&mut store, 0),
            Err(StorageError::MissingBlock(2))
        ));
    }

    #[test]
    fn rollback_after_delete_detected() {
        // The provider records every block, lets the HSM delete item 3,
        // then serves the original blocks back. The fresh path keys mean
        // the old blocks fail authentication instead of resurrecting data.
        let mut rng = rng();
        let mut store = ReplayStore::new();
        let data = blocks(8);
        let mut arr = SecureArray::setup(&mut store, &data, &mut rng).unwrap();
        arr.delete(&mut store, 3, &mut rng).unwrap();
        store.replay_enabled = true;
        let result = arr.read(&mut store, 3);
        assert!(
            matches!(result, Err(StorageError::AuthFailure(_))),
            "rollback must not recover deleted data, got {result:?}"
        );
    }

    #[test]
    fn cross_array_block_confusion_detected() {
        // Two arrays in one store namespace-separated by array_id: feeding
        // array B's root to array A fails.
        let mut rng = rng();
        let mut store_a = MemStore::new();
        let mut store_b = MemStore::new();
        let mut arr_a = SecureArray::setup(&mut store_a, &blocks(4), &mut rng).unwrap();
        let _arr_b = SecureArray::setup(&mut store_b, &blocks(4), &mut rng).unwrap();
        // Overwrite A's blocks with B's blocks.
        for addr in 1..=7u64 {
            if let Some(b) = store_b.get(addr) {
                store_a.put(addr, &b);
            }
        }
        assert!(arr_a.read(&mut store_a, 0).is_err());
    }

    #[test]
    fn read_cost_is_logarithmic() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(1024), &mut rng).unwrap();
        store.reset_stats();
        arr.reset_metrics();
        arr.read(&mut store, 513).unwrap();
        // height = 10 ⇒ 10 interior nodes + 1 leaf.
        assert_eq!(store.stats().reads, 11);
        assert_eq!(arr.metrics().aead_dec_ops, 11);
        assert_eq!(arr.metrics().aead_enc_ops, 0);
    }

    #[test]
    fn delete_cost_is_logarithmic() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(1024), &mut rng).unwrap();
        store.reset_stats();
        arr.reset_metrics();
        arr.delete(&mut store, 100, &mut rng).unwrap();
        // Reads 10 interior nodes, re-encrypts and rewrites all 10.
        assert_eq!(store.stats().reads, 10);
        assert_eq!(store.stats().writes, 10);
        assert_eq!(arr.metrics().aead_dec_ops, 10);
        assert_eq!(arr.metrics().aead_enc_ops, 10);
    }

    #[test]
    fn setup_cost_is_linear() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let arr = SecureArray::setup(&mut store, &blocks(64), &mut rng).unwrap();
        // 64 leaves + 63 interior nodes.
        assert_eq!(arr.metrics().aead_enc_ops, 127);
        assert_eq!(store.stats().writes, 127);
    }

    #[test]
    fn read_batch_matches_sequential_reads() {
        let mut rng = rng();
        for n in [1usize, 2, 5, 16, 33] {
            let data = blocks(n);
            let mut store = MemStore::new();
            let mut arr = SecureArray::setup(&mut store, &data, &mut rng).unwrap();
            // Delete a few items so Deleted results are exercised too.
            let deleted: Vec<u64> = (0..n as u64).filter(|i| i % 4 == 1).collect();
            arr.delete_batch(&mut store, &deleted, &mut rng).unwrap();
            // Request everything (plus duplicates and out-of-range).
            let mut req: Vec<u64> = (0..n as u64).collect();
            req.push(0);
            req.push(n as u64 + 7);
            let batch = arr.read_batch(&mut store, &req);
            for (k, &i) in req.iter().enumerate() {
                let single = arr.read(&mut store, i);
                assert_eq!(batch[k], single, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn read_batch_shares_path_prefixes() {
        let mut rng = rng();
        let data = blocks(1024); // height 10
        let targets = [3u64, 5, 700, 701, 3];
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &data, &mut rng).unwrap();
        arr.reset_metrics();
        let results = arr.read_batch(&mut store, &targets);
        assert!(results.iter().all(|r| r.is_ok()));
        // Union of interior nodes plus one fetch per DISTINCT leaf.
        let mut union = std::collections::BTreeSet::new();
        for &i in &targets {
            let leaf = (1u64 << 10) + i;
            for level in 1..=10 {
                union.insert(leaf >> level);
            }
        }
        let distinct_leaves = 4; // 3 appears twice
        let expected = union.len() as u64 + distinct_leaves;
        let m = arr.metrics();
        assert_eq!(m.aead_dec_ops, expected);
        assert_eq!(m.blocks_fetched, expected);
        // Sequential reads pay the full path each time: 5 × 11.
        assert!(m.aead_dec_ops < 5 * 11);
    }

    #[test]
    fn read_batch_detects_tampering_per_subtree() {
        let mut rng = rng();
        let mut inner = MemStore::new();
        let data = blocks(8);
        let mut arr = SecureArray::setup(&mut inner, &data, &mut rng).unwrap();
        // Corrupt the interior node covering leaves 0..3 (addr 2).
        let mut store = TamperingStore::new(inner, |addr| addr == 2);
        let results = arr.read_batch(&mut store, &[0, 3, 4, 7]);
        assert!(matches!(results[0], Err(StorageError::AuthFailure(2))));
        assert!(matches!(results[1], Err(StorageError::AuthFailure(2))));
        assert_eq!(results[2], Ok(data[4].clone()));
        assert_eq!(results[3], Ok(data[7].clone()));
    }

    /// The union of interior nodes on the paths to `indices` in a tree of
    /// `height`.
    fn path_union(height: u32, indices: &[u64]) -> BTreeSet<u64> {
        indices
            .iter()
            .flat_map(|&i| (1..=height).map(move |level| ((1u64 << height) + i) >> level))
            .collect()
    }

    #[test]
    fn reads_and_a_delete_through_one_descent_open_each_node_once() {
        let mut rng = rng();
        let data = blocks(1024); // height 10
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &data, &mut rng).unwrap();
        arr.reset_metrics();
        let (opened, first_read, second_read, deleted) = (
            [3u64, 5, 700, 701, 900],
            [3u64, 700],
            [5u64, 900, 3],
            [3u64, 5, 700],
        );

        let mut descent = arr.descent();
        arr.open_paths(&mut store, &mut descent, &opened);
        let union = path_union(10, &opened).len() as u64;
        assert_eq!(arr.metrics().aead_dec_ops, union);
        let first = arr.read_through(&mut store, &mut descent, &first_read);
        let second = arr.read_through(&mut store, &mut descent, &second_read);
        for (i, got) in first_read
            .iter()
            .chain(&second_read)
            .zip(first.iter().chain(&second))
        {
            assert_eq!(got.as_ref().unwrap(), &data[*i as usize]);
        }
        // Leaves only: the interior nodes came from the descent.
        let leaves = (first_read.len() + second_read.len()) as u64;
        assert_eq!(arr.metrics().aead_dec_ops, union + leaves);
        assert_eq!(arr.metrics().blocks_fetched, union + leaves);

        store.reset_stats();
        arr.delete_through(&mut store, descent, &deleted, &mut rng)
            .unwrap();
        let rekeyed = path_union(10, &deleted).len() as u64;
        let m = arr.metrics();
        assert_eq!(m.aead_dec_ops, union + leaves, "the delete opened nothing");
        assert_eq!(m.aead_enc_ops, rekeyed, "only the deleted paths re-seal");
        assert_eq!(store.stats().reads, 0);
        assert_eq!(store.stats().writes, rekeyed);
        for i in 0..1024u64 {
            let got = arr.read(&mut store, i);
            if deleted.contains(&i) {
                assert_eq!(got.unwrap_err(), StorageError::Deleted(i));
            } else {
                assert_eq!(got.unwrap(), data[i as usize], "i={i}");
            }
        }
    }

    #[test]
    fn a_descent_is_refused_once_the_array_re_keys() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(16), &mut rng).unwrap();
        let mut stale = arr.descent();
        arr.open_paths(&mut store, &mut stale, &[3, 4]);
        arr.delete(&mut store, 3, &mut rng).unwrap();
        // Its cached leaf key for 3 predates the delete.
        assert!(matches!(
            arr.read_through(&mut store, &mut stale, &[3])[0],
            Err(StorageError::InvalidParameter(_))
        ));
        store.reset_stats();
        assert!(matches!(
            arr.delete_through(&mut store, stale, &[4], &mut rng),
            Err(StorageError::InvalidParameter(_))
        ));
        assert_eq!(store.stats().writes + store.stats().removes, 0);
        assert_eq!(
            arr.read(&mut store, 3).unwrap_err(),
            StorageError::Deleted(3)
        );
    }

    #[test]
    fn delete_through_a_damaged_node_writes_nothing() {
        let mut rng = rng();
        let mut inner = MemStore::new();
        let data = blocks(16);
        let mut arr = SecureArray::setup(&mut inner, &data, &mut rng).unwrap();
        inner.reset_stats();
        let before = arr.root_key_bytes();
        // Addr 5 covers leaves 4..8; leaf 9's path avoids it.
        let mut store = TamperingStore::new(inner, |addr| addr == 5);
        let mut descent = arr.descent();
        arr.open_paths(&mut store, &mut descent, &[6, 9]);
        assert!(matches!(
            arr.read_through(&mut store, &mut descent, &[6])[0],
            Err(StorageError::AuthFailure(5))
        ));
        assert_eq!(
            arr.read_through(&mut store, &mut descent, &[9])[0],
            Ok(data[9].clone())
        );
        assert_eq!(
            arr.delete_through(&mut store, descent, &[9, 6], &mut rng),
            Err(StorageError::AuthFailure(5))
        );
        let stats = store.io_stats();
        assert_eq!((stats.writes, stats.removes), (0, 0));
        assert_eq!(before, arr.root_key_bytes());
    }

    #[test]
    fn delete_batch_matches_sequential_semantics() {
        let mut rng = rng();
        for n in [1usize, 2, 5, 16, 33] {
            let data = blocks(n);
            let mut store_b = MemStore::new();
            let mut batched = SecureArray::setup(&mut store_b, &data, &mut rng).unwrap();
            let mut store_s = MemStore::new();
            let mut seq = SecureArray::setup(&mut store_s, &data, &mut rng).unwrap();
            let targets: Vec<u64> = (0..n as u64).step_by(3).collect();
            batched
                .delete_batch(&mut store_b, &targets, &mut rng)
                .unwrap();
            for &i in &targets {
                seq.delete(&mut store_s, i, &mut rng).unwrap();
            }
            for i in 0..n as u64 {
                let b = batched.read(&mut store_b, i);
                let s = seq.read(&mut store_s, i);
                assert_eq!(b.is_ok(), s.is_ok(), "n={n} i={i}");
                if targets.contains(&i) {
                    assert_eq!(b.unwrap_err(), StorageError::Deleted(i));
                } else {
                    assert_eq!(b.unwrap(), data[i as usize]);
                }
            }
        }
    }

    #[test]
    fn delete_batch_shares_path_prefixes() {
        // A batch of k targets must touch each union-of-paths node once;
        // k sequential deletes re-key the shared upper levels k times.
        let mut rng = rng();
        let data = blocks(1024); // height 10
        let targets = [3u64, 5, 700, 701];

        let mut store_s = MemStore::new();
        let mut seq = SecureArray::setup(&mut store_s, &data, &mut rng).unwrap();
        seq.reset_metrics();
        for &i in &targets {
            seq.delete(&mut store_s, i, &mut rng).unwrap();
        }
        let m_seq = seq.metrics();

        let mut store_b = MemStore::new();
        let mut batched = SecureArray::setup(&mut store_b, &data, &mut rng).unwrap();
        batched.reset_metrics();
        store_b.reset_stats();
        batched
            .delete_batch(&mut store_b, &targets, &mut rng)
            .unwrap();
        let m_bat = batched.metrics();

        // Expected union: every interior node on some target path.
        let mut union = std::collections::BTreeSet::new();
        for &i in &targets {
            let leaf = (1u64 << 10) + i;
            for level in 1..=10 {
                union.insert(leaf >> level);
            }
        }
        let nodes = union.len() as u64;
        assert_eq!(m_bat.aead_dec_ops, nodes);
        assert_eq!(m_bat.aead_enc_ops, nodes);
        assert_eq!(m_bat.blocks_fetched, nodes);
        assert_eq!(m_bat.blocks_written, nodes);
        assert_eq!(store_b.stats().reads, nodes);
        assert_eq!(store_b.stats().writes, nodes);

        // Sequential pays the full per-target path each time (no target
        // here shares a fully-deleted subtree, so no early stops).
        assert_eq!(m_seq.aead_dec_ops, 4 * 10);
        assert_eq!(m_seq.aead_enc_ops, 4 * 10);
        assert!(
            m_bat.aead_dec_ops + m_bat.aead_enc_ops < m_seq.aead_dec_ops + m_seq.aead_enc_ops,
            "batching must beat sequential: {} vs {}",
            m_bat.aead_dec_ops + m_bat.aead_enc_ops,
            m_seq.aead_dec_ops + m_seq.aead_enc_ops
        );
    }

    #[test]
    fn delete_batch_handles_duplicates_and_already_deleted() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let data = blocks(16);
        let mut arr = SecureArray::setup(&mut store, &data, &mut rng).unwrap();
        arr.delete(&mut store, 2, &mut rng).unwrap();
        let before = arr.root_key_bytes();
        arr.delete_batch(&mut store, &[2, 7, 7, 2, 3], &mut rng)
            .unwrap();
        assert_ne!(before, arr.root_key_bytes(), "root must be re-keyed");
        for i in [2u64, 3, 7] {
            assert_eq!(
                arr.read(&mut store, i).unwrap_err(),
                StorageError::Deleted(i)
            );
        }
        for i in [0u64, 1, 4, 5, 6, 8, 15] {
            assert_eq!(arr.read(&mut store, i).unwrap(), data[i as usize]);
        }
    }

    #[test]
    fn delete_batch_empty_is_noop() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(8), &mut rng).unwrap();
        let before = arr.root_key_bytes();
        arr.reset_metrics();
        arr.delete_batch(&mut store, &[], &mut rng).unwrap();
        assert_eq!(before, arr.root_key_bytes());
        assert_eq!(arr.metrics(), Metrics::default());
    }

    #[test]
    fn delete_batch_out_of_range_rejected_before_mutation() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(8), &mut rng).unwrap();
        let before = arr.root_key_bytes();
        assert!(matches!(
            arr.delete_batch(&mut store, &[1, 99], &mut rng),
            Err(StorageError::IndexOutOfRange { .. })
        ));
        assert_eq!(before, arr.root_key_bytes());
        assert!(arr.read(&mut store, 1).is_ok());
    }

    #[test]
    fn delete_batch_height_zero() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(1), &mut rng).unwrap();
        arr.delete_batch(&mut store, &[0, 0], &mut rng).unwrap();
        assert!(matches!(
            arr.read(&mut store, 0),
            Err(StorageError::Deleted(0))
        ));
    }

    #[test]
    fn delete_batch_all_leaves() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(32), &mut rng).unwrap();
        arr.reset_metrics();
        let all: Vec<u64> = (0..32).collect();
        arr.delete_batch(&mut store, &all, &mut rng).unwrap();
        for i in 0..32u64 {
            assert!(arr.read(&mut store, i).is_err());
        }
        // Whole interior re-keyed exactly once: 31 nodes for 32 leaves.
        assert_eq!(arr.metrics().aead_enc_ops, 31);
    }

    #[test]
    fn state_export_restores_working_handle() {
        use safetypin_primitives::wire::{Decode, Encode};
        let mut rng = rng();
        let mut store = MemStore::new();
        let data = blocks(16);
        let mut arr = SecureArray::setup(&mut store, &data, &mut rng).unwrap();
        arr.delete(&mut store, 9, &mut rng).unwrap();

        // Export, serialize, decode, rebuild — the restored handle reads
        // and deletes against the same store exactly like the original.
        let state = arr.export_state();
        let back = ArrayState::from_bytes(&state.to_bytes()).unwrap();
        assert_eq!(back, state);
        let mut restored = SecureArray::from_state(back);
        assert_eq!(restored.len(), 16);
        assert_eq!(restored.metrics(), arr.metrics());
        for i in 0..16u64 {
            let got = restored.read(&mut store, i);
            if i == 9 {
                assert_eq!(got.unwrap_err(), StorageError::Deleted(9));
            } else {
                assert_eq!(got.unwrap(), data[i as usize]);
            }
        }
        restored.delete(&mut store, 3, &mut rng).unwrap();
        assert!(restored.read(&mut store, 3).is_err());
    }

    #[test]
    fn delete_reclaims_leaf_blocks() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(8), &mut rng).unwrap();
        let before = store.block_count();
        arr.delete_batch(&mut store, &[1, 6], &mut rng).unwrap();
        assert_eq!(store.block_count(), before - 2);
        assert_eq!(store.stats().removes, 2);
        // Leaves 1 and 6 live at 8+1 and 8+6.
        assert!(store.get(9).is_none());
        assert!(store.get(14).is_none());
    }

    #[test]
    fn root_key_changes_on_delete() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &blocks(8), &mut rng).unwrap();
        let before = arr.root_key_bytes();
        arr.delete(&mut store, 0, &mut rng).unwrap();
        assert_ne!(before, arr.root_key_bytes());
    }
}
