//! The strawman outsourced store from §9.1 of the paper.
//!
//! The whole array lives in one AEAD blob under a single key. Deleting an
//! item means: read the entire blob, decrypt it, remove the item, and
//! re-encrypt everything under a fresh key. Secure deletion holds for the
//! same reason as the tree design (the old key is forgotten), but every
//! delete costs O(total bytes) of I/O and AES work — the paper measures
//! 48 minutes per delete for a 64 MB array on a SoloKey, versus
//! milliseconds for the tree, a ~4,423× throughput gap reproduced by the
//! `fig9` bench target.

use rand::{CryptoRng, RngCore};
use safetypin_primitives::aead::{self, AeadKey};
use safetypin_primitives::wire::{Decode, Encode, Reader, Writer};

use crate::store::BlockStore;
use crate::tree::Metrics;
use crate::{Result, StorageError};

/// Address at which the single blob is stored.
const BLOB_ADDR: u64 = 0;

/// Whole-array-under-one-key outsourced storage (§9.1 baseline).
#[derive(Debug)]
pub struct NaiveArray {
    key: AeadKey,
    len: u64,
    array_id: [u8; 16],
    metrics: Metrics,
}

fn encode_items(items: &[Option<Vec<u8>>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(items.len() as u64);
    for item in items {
        item.encode(&mut w);
    }
    w.into_bytes()
}

fn decode_items(bytes: &[u8]) -> Result<Vec<Option<Vec<u8>>>> {
    let mut r = Reader::new(bytes);
    let n = r
        .get_u64()
        .map_err(|_| StorageError::AuthFailure(BLOB_ADDR))?;
    let mut items = Vec::with_capacity(n as usize);
    for _ in 0..n {
        items.push(
            Option::<Vec<u8>>::decode(&mut r).map_err(|_| StorageError::AuthFailure(BLOB_ADDR))?,
        );
    }
    Ok(items)
}

impl NaiveArray {
    /// Encrypts `data` into one blob at the store.
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
        let mut array_id = [0u8; 16];
        rng.fill_bytes(&mut array_id);
        let key = AeadKey::random(rng);
        let items: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
        let mut this = Self {
            key,
            len: data.len() as u64,
            array_id,
            metrics: Metrics::default(),
        };
        this.write_blob(store, &items, rng);
        Ok(this)
    }

    /// Number of items (including deleted slots).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Always false: setup rejects empty arrays.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Accumulated symmetric-operation counters.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Resets the counters.
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::default();
    }

    fn aad(&self) -> Vec<u8> {
        let mut aad = self.array_id.to_vec();
        aad.extend_from_slice(&BLOB_ADDR.to_be_bytes());
        aad
    }

    fn write_blob<R: RngCore + CryptoRng>(
        &mut self,
        store: &mut impl BlockStore,
        items: &[Option<Vec<u8>>],
        rng: &mut R,
    ) {
        let pt = encode_items(items);
        let ct = aead::seal(&self.key, &self.aad(), &pt, rng);
        self.metrics.aead_enc_ops += 1;
        self.metrics.bytes_encrypted += pt.len() as u64;
        store.put(BLOB_ADDR, &ct.to_bytes());
    }

    fn read_blob(&mut self, store: &mut impl BlockStore) -> Result<Vec<Option<Vec<u8>>>> {
        let raw = store
            .get(BLOB_ADDR)
            .ok_or(StorageError::MissingBlock(BLOB_ADDR))?;
        let ct = safetypin_primitives::aead::AeadCiphertext::from_bytes(&raw)
            .map_err(|_| StorageError::AuthFailure(BLOB_ADDR))?;
        let pt = aead::open(&self.key, &self.aad(), &ct)
            .map_err(|_| StorageError::AuthFailure(BLOB_ADDR))?;
        self.metrics.aead_dec_ops += 1;
        self.metrics.bytes_decrypted += raw.len() as u64;
        decode_items(&pt)
    }

    /// Reads item `i` — costs a full-blob decryption.
    pub fn read(&mut self, store: &mut impl BlockStore, i: u64) -> Result<Vec<u8>> {
        if i >= self.len {
            return Err(StorageError::IndexOutOfRange {
                index: i,
                len: self.len,
            });
        }
        let items = self.read_blob(store)?;
        items[i as usize].clone().ok_or(StorageError::Deleted(i))
    }

    /// Deletes item `i` — costs a full-blob decryption *and* a full-blob
    /// re-encryption under a fresh key.
    pub fn delete<R: RngCore + CryptoRng>(
        &mut self,
        store: &mut impl BlockStore,
        i: u64,
        rng: &mut R,
    ) -> Result<()> {
        if i >= self.len {
            return Err(StorageError::IndexOutOfRange {
                index: i,
                len: self.len,
            });
        }
        let mut items = self.read_blob(store)?;
        items[i as usize] = None;
        self.key = AeadKey::random(rng);
        self.write_blob(store, &items, rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(55)
    }

    fn blocks(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 32]).collect()
    }

    #[test]
    fn roundtrip_and_delete() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let data = blocks(10);
        let mut arr = NaiveArray::setup(&mut store, &data, &mut rng).unwrap();
        assert_eq!(arr.read(&mut store, 4).unwrap(), data[4]);
        arr.delete(&mut store, 4, &mut rng).unwrap();
        assert_eq!(
            arr.read(&mut store, 4).unwrap_err(),
            StorageError::Deleted(4)
        );
        assert_eq!(arr.read(&mut store, 5).unwrap(), data[5]);
    }

    #[test]
    fn delete_rekeys_everything() {
        // After a delete the blob must not decrypt under any previous key:
        // snapshot the old blob, delete, restore the old blob, and observe
        // an authentication failure (fresh key in use).
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = NaiveArray::setup(&mut store, &blocks(4), &mut rng).unwrap();
        let old_blob = store.get(0).unwrap();
        arr.delete(&mut store, 0, &mut rng).unwrap();
        store.put(0, &old_blob);
        assert!(matches!(
            arr.read(&mut store, 1),
            Err(StorageError::AuthFailure(0))
        ));
    }

    #[test]
    fn costs_are_linear_in_array_size() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = NaiveArray::setup(&mut store, &blocks(100), &mut rng).unwrap();
        arr.reset_metrics();
        arr.delete(&mut store, 0, &mut rng).unwrap();
        let m = arr.metrics();
        // One full decrypt + one full re-encrypt of ~100·32 bytes.
        assert!(m.bytes_decrypted >= 3200, "decrypted {}", m.bytes_decrypted);
        assert!(m.bytes_encrypted >= 3200, "encrypted {}", m.bytes_encrypted);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let mut arr = NaiveArray::setup(&mut store, &blocks(3), &mut rng).unwrap();
        assert!(arr.read(&mut store, 3).is_err());
        assert!(arr.delete(&mut store, 3, &mut rng).is_err());
    }
}
