//! Sealed-state layer: per-device AEAD keys for HSM state blocks.
//!
//! The paper's division of state (§6, Table 7) is the contract here:
//! each HSM keeps only a small root secret *on-chip* and pushes
//! everything bulky to untrusted host storage. A simulated fleet draws
//! the same line on disk — an HSM's trusted state (its identity and
//! signing secrets, the secure-array root key, log digest and counters)
//! is serialized with the canonical wire codec and **sealed** under a
//! per-device AEAD key before it is put into the device's block store,
//! while the outsourced blocks, the public keys and the provider's
//! journal stay plaintext-on-host exactly as they are in a live
//! datacenter (they are ciphertext / public data already).
//!
//! The [`Keyring`] file stands in for the fleet's on-chip flash: a real
//! deployment never writes these keys to the provider's disks. Keeping
//! them in a separate artifact makes the trust boundary explicit and
//! testable — deleting the keyring must render every sealed block
//! unreadable.

use rand::{CryptoRng, RngCore};
use safetypin_primitives::aead::{self, AeadCiphertext, AeadKey, KEY_LEN};
use safetypin_primitives::wire::{Decode, Encode, Reader, Writer};

use crate::error::StoreError;

/// A per-device sealing key (models the HSM's on-chip storage key). The
/// bytes live in an [`AeadKey`], which wipes itself on drop and redacts
/// its `Debug`.
#[derive(Debug, Clone)]
pub struct DeviceKey {
    key: AeadKey,
}

impl DeviceKey {
    /// Samples a fresh device key.
    pub fn random<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        Self {
            key: AeadKey::random(rng),
        }
    }

    /// Rebuilds a key from raw bytes (keyring load).
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        Self {
            key: AeadKey::from_bytes(bytes),
        }
    }

    /// Raw key bytes (keyring save).
    pub fn to_bytes(&self) -> [u8; KEY_LEN] {
        *self.key.as_bytes()
    }

    /// Seals `plaintext` under this key, bound to `domain` (the
    /// component name + device id) via associated data, so a sealed blob
    /// cannot be replayed into a different component or device.
    pub fn seal<R: RngCore + CryptoRng>(
        &self,
        domain: &[u8],
        plaintext: &[u8],
        rng: &mut R,
    ) -> Vec<u8> {
        aead::seal(&self.key, domain, plaintext, rng).to_bytes()
    }

    /// Opens a sealed blob; any tampering, wrong key, or wrong domain is
    /// [`StoreError::SealBroken`].
    pub fn open(&self, domain: &[u8], sealed: &[u8]) -> Result<Vec<u8>, StoreError> {
        let ct = AeadCiphertext::from_bytes(sealed).map_err(|_| StoreError::SealBroken)?;
        aead::open(&self.key, domain, &ct).map_err(|_| StoreError::SealBroken)
    }
}

/// The sealing-domain string for one device + component.
pub fn seal_domain(component: &str, device_id: u64) -> Vec<u8> {
    let mut domain = Vec::with_capacity(component.len() + 9);
    domain.extend_from_slice(component.as_bytes());
    domain.push(b'#');
    domain.extend_from_slice(&device_id.to_be_bytes());
    domain
}

/// The fleet's device keys, one per HSM in id order.
///
/// Serialized to its own file, standing in for on-chip flash — see the
/// module docs for why it must live apart from the block stores.
#[derive(Debug, Clone, Default)]
pub struct Keyring {
    keys: Vec<DeviceKey>,
}

impl Keyring {
    /// Collects the fleet's device keys, in id order.
    pub fn new(keys: Vec<DeviceKey>) -> Self {
        Self { keys }
    }

    /// The key for device `id`, if provisioned.
    pub fn device(&self, id: u64) -> Option<&DeviceKey> {
        self.keys.get(id as usize)
    }

    /// Writes the ring to `path` (atomically: tmp + rename).
    pub fn save(
        &self,
        path: &std::path::Path,
        durability: crate::Durability,
    ) -> Result<(), StoreError> {
        crate::write_atomic(path, &self.to_bytes(), durability)
    }

    /// Loads a ring from `path`. Absence is the typed
    /// [`StoreError::MissingComponent`]; other I/O failures (permissions,
    /// bad disk) stay [`StoreError::Io`].
    pub fn load(path: &std::path::Path) -> Result<Self, StoreError> {
        let bytes = crate::read_component(path, "keyring")?;
        Ok(Self::from_bytes(&bytes)?)
    }
}

impl Encode for Keyring {
    fn encode(&self, w: &mut Writer) {
        w.put_seq_with(&self.keys, |w, key| w.put_fixed(&key.to_bytes()));
    }
}

impl Decode for Keyring {
    fn decode(r: &mut Reader<'_>) -> Result<Self, safetypin_primitives::error::WireError> {
        let keys = r.get_seq_max(usize::MAX, |r| Ok(DeviceKey::from_bytes(r.get_array()?)))?;
        Ok(Self { keys })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn seal_open_roundtrip_and_domain_binding() {
        let mut rng = StdRng::seed_from_u64(7);
        let key = DeviceKey::random(&mut rng);
        let sealed = key.seal(&seal_domain("hsm-state", 3), b"secret state", &mut rng);
        assert_eq!(
            key.open(&seal_domain("hsm-state", 3), &sealed).unwrap(),
            b"secret state"
        );
        // Wrong device id in the domain: refuse.
        assert!(matches!(
            key.open(&seal_domain("hsm-state", 4), &sealed),
            Err(StoreError::SealBroken)
        ));
        // Wrong key: refuse.
        let other = DeviceKey::random(&mut rng);
        assert!(other.open(&seal_domain("hsm-state", 3), &sealed).is_err());
        // Bit flip: refuse.
        let mut mauled = sealed.clone();
        *mauled.last_mut().unwrap() ^= 1;
        assert!(key.open(&seal_domain("hsm-state", 3), &mauled).is_err());
    }

    #[test]
    fn keyring_roundtrip() {
        use safetypin_primitives::wire::{Decode, Encode};
        let mut rng = StdRng::seed_from_u64(8);
        let ring = Keyring::new((0..5).map(|_| DeviceKey::random(&mut rng)).collect());
        let back = Keyring::from_bytes(&ring.to_bytes()).unwrap();
        for i in 0..5u64 {
            assert_eq!(
                back.device(i).unwrap().to_bytes(),
                ring.device(i).unwrap().to_bytes()
            );
        }
        assert!(back.device(5).is_none());
    }
}
