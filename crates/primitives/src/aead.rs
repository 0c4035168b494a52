//! Authenticated encryption (AES-128-GCM) with explicit associated data.
//!
//! The paper uses an authenticated-encryption scheme in three places: as the
//! DEM inside hashed ElGamal (Appendix A.4), to encrypt the backed-up disk
//! image under the transport key (Figure 15), and to encrypt nodes of the
//! outsourced-storage key tree (Appendix C). All three go through this
//! wrapper.
//!
//! Nonces are generated randomly per encryption and carried in the
//! ciphertext. Keys are 16 bytes (AES-128, matching the paper's SoloKey
//! microbenchmarks which measure AES-128).

use aes_gcm::aead::{Aead, Payload};
use aes_gcm::{Aes128Gcm, KeyInit, Nonce};
use rand::{CryptoRng, RngCore};
use subtle::ConstantTimeEq;

use crate::{CryptoError, Result};

/// Byte length of an AEAD key.
pub const KEY_LEN: usize = 16;
/// Byte length of the GCM nonce.
pub const NONCE_LEN: usize = 12;
/// Byte length of the GCM authentication tag.
pub const TAG_LEN: usize = 16;

/// A 128-bit AEAD key.
///
/// One of the three leaf types that hold secret bytes (with
/// [`SecretKey`](crate::elgamal::SecretKey) and
/// [`Share`](crate::shamir::Share)): it wipes itself on drop, its `Debug`
/// redacts, it has no `Display`, and `==` is [`ConstantTimeEq::ct_eq`].
/// A type holding an `AeadKey` gets the wipe through its drop glue and
/// the redaction and constant-time compare through derived `Debug` and
/// `PartialEq`.
#[derive(Clone)]
pub struct AeadKey([u8; KEY_LEN]);

impl AeadKey {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        Self(bytes)
    }

    /// Samples a fresh random key.
    pub fn random<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        let mut k = [0u8; KEY_LEN];
        rng.fill_bytes(&mut k);
        Self(k)
    }

    /// Returns the raw key bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.0
    }

    /// Constant-time check against the all-zero key (the outsourced
    /// storage tree uses zero as its "vacant slot" sentinel).
    pub fn is_zero(&self) -> bool {
        self.0.ct_eq(&[0u8; KEY_LEN]).into()
    }

    /// Volatile-wipes the key bytes in place.
    pub fn wipe(&mut self) {
        crate::zeroize::wipe_array(&mut self.0);
    }
}

impl Drop for AeadKey {
    fn drop(&mut self) {
        self.wipe();
    }
}

impl core::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AeadKey(<redacted>)")
    }
}

impl ConstantTimeEq for AeadKey {
    fn ct_eq(&self, other: &Self) -> subtle::Choice {
        self.0.ct_eq(&other.0)
    }
}

impl PartialEq for AeadKey {
    fn eq(&self, other: &Self) -> bool {
        self.ct_eq(other).into()
    }
}

impl Eq for AeadKey {}

crate::wire! {
    /// An AEAD ciphertext: nonce followed by GCM output (body ‖ tag).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AeadCiphertext {
        nonce: [u8; NONCE_LEN],
        body: Vec<u8>,
    }
}

impl AeadCiphertext {
    /// Total serialized length of this ciphertext (without wire framing).
    pub fn raw_len(&self) -> usize {
        NONCE_LEN + self.body.len()
    }

    /// Ciphertext expansion over the plaintext, in bytes.
    pub const OVERHEAD: usize = NONCE_LEN + TAG_LEN;
}

/// Encrypts `plaintext` under `key`, binding `aad` into the tag.
///
/// # Examples
///
/// ```
/// use safetypin_primitives::aead::{seal, open, AeadKey};
/// let mut rng = rand::thread_rng();
/// let key = AeadKey::random(&mut rng);
/// let ct = seal(&key, b"user@example", b"disk image", &mut rng);
/// assert_eq!(open(&key, b"user@example", &ct).unwrap(), b"disk image");
/// assert!(open(&key, b"other-user", &ct).is_err());
/// ```
pub fn seal<R: RngCore + CryptoRng>(
    key: &AeadKey,
    aad: &[u8],
    plaintext: &[u8],
    rng: &mut R,
) -> AeadCiphertext {
    let cipher = Aes128Gcm::new(key.0.as_slice().into());
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill_bytes(&mut nonce);
    let body = cipher
        .encrypt(
            &Nonce::from(nonce),
            Payload {
                msg: plaintext,
                aad,
            },
        )
        .expect("AES-GCM encryption is infallible for in-memory buffers");
    AeadCiphertext { nonce, body }
}

/// Decrypts `ct` under `key`; fails if the key, associated data, or
/// ciphertext do not match.
pub fn open(key: &AeadKey, aad: &[u8], ct: &AeadCiphertext) -> Result<Vec<u8>> {
    let cipher = Aes128Gcm::new(key.0.as_slice().into());
    cipher
        .decrypt(&Nonce::from(ct.nonce), Payload { msg: &ct.body, aad })
        .map_err(|_| CryptoError::DecryptionFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Decode, Encode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    #[allow(unsafe_code)]
    fn key_bytes_are_wiped_on_drop() {
        use core::mem::ManuallyDrop;
        // The key bytes live inline in the struct, so after running the
        // destructor in place (ManuallyDrop keeps the storage alive and
        // u8 has no invalid values) the wipe is observable.
        let mut key = ManuallyDrop::new(AeadKey::from_bytes([0xAB; KEY_LEN]));
        let ptr = key.as_bytes().as_ptr();
        // SAFETY: `key` is never used again; the backing storage stays
        // alive in the ManuallyDrop for the read below.
        unsafe { ManuallyDrop::drop(&mut key) };
        let after = unsafe { core::slice::from_raw_parts(ptr, KEY_LEN) };
        assert!(after.iter().all(|&b| b == 0), "key bytes survived drop");
    }

    #[test]
    fn wipe_clears_key_bytes_in_place() {
        let mut key = AeadKey::from_bytes([0x5A; KEY_LEN]);
        key.wipe();
        assert_eq!(key.as_bytes(), &[0u8; KEY_LEN]);
        assert!(key.is_zero());
    }

    #[test]
    fn is_zero_is_false_for_live_keys() {
        let mut rng = rng();
        assert!(!AeadKey::random(&mut rng).is_zero());
    }

    #[test]
    fn roundtrip() {
        let mut rng = rng();
        let key = AeadKey::random(&mut rng);
        let ct = seal(&key, b"aad", b"hello world", &mut rng);
        assert_eq!(open(&key, b"aad", &ct).unwrap(), b"hello world");
    }

    #[test]
    fn wrong_key_fails() {
        let mut rng = rng();
        let key = AeadKey::random(&mut rng);
        let other = AeadKey::random(&mut rng);
        let ct = seal(&key, b"", b"secret", &mut rng);
        assert_eq!(
            open(&other, b"", &ct).unwrap_err(),
            CryptoError::DecryptionFailed
        );
    }

    #[test]
    fn wrong_aad_fails() {
        let mut rng = rng();
        let key = AeadKey::random(&mut rng);
        let ct = seal(&key, b"alice", b"secret", &mut rng);
        assert!(open(&key, b"bob", &ct).is_err());
    }

    #[test]
    fn tampered_body_fails() {
        let mut rng = rng();
        let key = AeadKey::random(&mut rng);
        let mut ct = seal(&key, b"", b"secret", &mut rng);
        ct.body[0] ^= 1;
        assert!(open(&key, b"", &ct).is_err());
    }

    #[test]
    fn tampered_nonce_fails() {
        let mut rng = rng();
        let key = AeadKey::random(&mut rng);
        let mut ct = seal(&key, b"", b"secret", &mut rng);
        ct.nonce[0] ^= 1;
        assert!(open(&key, b"", &ct).is_err());
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let mut rng = rng();
        let key = AeadKey::random(&mut rng);
        let ct = seal(&key, b"aad", b"", &mut rng);
        assert_eq!(open(&key, b"aad", &ct).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn overhead_is_constant() {
        let mut rng = rng();
        let key = AeadKey::random(&mut rng);
        for len in [0usize, 1, 16, 1000] {
            let pt = vec![0u8; len];
            let ct = seal(&key, b"", &pt, &mut rng);
            assert_eq!(ct.raw_len(), len + AeadCiphertext::OVERHEAD);
        }
    }

    #[test]
    fn wire_roundtrip() {
        let mut rng = rng();
        let key = AeadKey::random(&mut rng);
        let ct = seal(&key, b"aad", b"payload", &mut rng);
        let bytes = ct.to_bytes();
        let back = AeadCiphertext::from_bytes(&bytes).unwrap();
        assert_eq!(back, ct);
        assert_eq!(open(&key, b"aad", &back).unwrap(), b"payload");
    }
}
