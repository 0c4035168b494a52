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

use aes_gcm::aead::{Aead, AeadInPlace, Payload};
use aes_gcm::{Aes128Gcm, KeyInit, Nonce, Tag};
use rand::{CryptoRng, RngCore};
use subtle::ConstantTimeEq;

use crate::wire::Reader;
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

    /// Steps over one encoded ciphertext without copying its body,
    /// refusing exactly the inputs [`decode`](crate::wire::Decode::decode)
    /// refuses.
    pub fn skip(r: &mut Reader<'_>) -> core::result::Result<(), crate::error::WireError> {
        r.get_array::<NONCE_LEN>()?;
        r.get_bytes()?;
        Ok(())
    }
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

/// Where the plaintext sits in an encoded [`AeadCiphertext`]
/// (`nonce ‖ u32 len ‖ body ‖ tag`): after the nonce and the body's
/// length prefix.
pub const PLAINTEXT_OFFSET: usize = NONCE_LEN + 4;

/// Bytes an encoded [`AeadCiphertext`] adds to its plaintext: nonce,
/// length prefix and tag.
pub const ENCODED_OVERHEAD: usize = PLAINTEXT_OFFSET + TAG_LEN;

/// Seals in place into the encoding of an [`AeadCiphertext`]: `frame` is
/// [`ENCODED_OVERHEAD`] bytes longer than the plaintext, which the caller
/// has written at [`PLAINTEXT_OFFSET`]. Fills in the nonce (drawn from
/// `rng` exactly as [`seal`] draws it), the length prefix and the tag, so
/// `frame` ends up byte for byte what `seal(..).to_bytes()` returns, with
/// no allocation and no plaintext left behind.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use safetypin_primitives::aead::{seal, seal_in_place, AeadKey, ENCODED_OVERHEAD, PLAINTEXT_OFFSET};
/// use safetypin_primitives::wire::Encode;
/// let key = AeadKey::from_bytes([7; 16]);
/// let mut frame = [0u8; 5 + ENCODED_OVERHEAD];
/// frame[PLAINTEXT_OFFSET..][..5].copy_from_slice(b"hello");
/// seal_in_place(&key, b"aad", &mut frame, &mut StdRng::seed_from_u64(1)).unwrap();
/// let sealed = seal(&key, b"aad", b"hello", &mut StdRng::seed_from_u64(1));
/// assert_eq!(frame.as_slice(), sealed.to_bytes());
/// ```
pub fn seal_in_place<R: RngCore + CryptoRng>(
    key: &AeadKey,
    aad: &[u8],
    frame: &mut [u8],
    rng: &mut R,
) -> Result<()> {
    let misshapen = || {
        CryptoError::InvalidParameter("an AEAD frame is its plaintext plus ENCODED_OVERHEAD bytes")
    };
    let text_len = frame
        .len()
        .checked_sub(ENCODED_OVERHEAD)
        .ok_or_else(misshapen)?;
    let body_len = u32::try_from(text_len + TAG_LEN).map_err(|_| misshapen())?;
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill_bytes(&mut nonce);
    let (head, rest) = frame.split_at_mut(PLAINTEXT_OFFSET);
    head[..NONCE_LEN].copy_from_slice(&nonce);
    head[NONCE_LEN..].copy_from_slice(&body_len.to_be_bytes());
    let (text, tag) = rest.split_at_mut(text_len);
    let cipher = Aes128Gcm::new(key.0.as_slice().into());
    let sealed = cipher
        .encrypt_in_place_detached(&Nonce::from(nonce), aad, text)
        .map_err(|_| CryptoError::InvalidParameter("AES-GCM refused the buffer"))?;
    tag.copy_from_slice(&sealed);
    Ok(())
}

/// Opens the encoding of an [`AeadCiphertext`] into `out` without
/// decoding it first: accepts exactly the `encoded` bytes that
/// `open(key, aad, &AeadCiphertext::from_bytes(encoded)?)` accepts and
/// writes the same plaintext. `out` must be as long as that plaintext
/// (`encoded.len() - ENCODED_OVERHEAD`); any other length is refused like
/// a forgery. On a refusal `out` holds no plaintext.
pub fn open_into(key: &AeadKey, aad: &[u8], encoded: &[u8], out: &mut [u8]) -> Result<()> {
    let mut r = Reader::new(encoded);
    let nonce = r
        .get_array::<NONCE_LEN>()
        .map_err(|_| CryptoError::DecryptionFailed)?;
    let body = r.get_bytes().map_err(|_| CryptoError::DecryptionFailed)?;
    if !r.is_exhausted() || body.len() != out.len() + TAG_LEN {
        return Err(CryptoError::DecryptionFailed);
    }
    let (text, tag) = body.split_at(out.len());
    let tag: &Tag = tag.try_into().map_err(|_| CryptoError::DecryptionFailed)?;
    out.copy_from_slice(text);
    let cipher = Aes128Gcm::new(key.0.as_slice().into());
    cipher
        .decrypt_in_place_detached(&Nonce::from(nonce), aad, out, tag)
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

    /// The in-place pair against `seal`/`open` over seeded keys, nonces,
    /// AAD of 0–40 B and every plaintext length 0–300 B: the sealed frame
    /// is `seal(..).to_bytes()` from the same RNG state, and `open_into`
    /// agrees with decoding then `open` on the genuine frame and on
    /// mutants of it (a flipped bit anywhere, a truncation, a trailing
    /// byte, a wrong key or AAD, a wrong output length). The vendored
    /// cipher's own tests run the in-place calls on both backends.
    #[test]
    fn in_place_seal_and_open_match_seal_and_open() {
        use crate::wire::Encode;
        let mut rng = rng();
        for len in 0..=300usize {
            let key = AeadKey::random(&mut rng);
            let mut aad = vec![0u8; (rng.next_u32() % 41) as usize];
            rng.fill_bytes(&mut aad);
            let mut pt = vec![0u8; len];
            rng.fill_bytes(&mut pt);

            let seed = rng.next_u64();
            let expected = seal(&key, &aad, &pt, &mut StdRng::seed_from_u64(seed)).to_bytes();
            let mut frame = vec![0u8; len + ENCODED_OVERHEAD];
            frame[PLAINTEXT_OFFSET..][..len].copy_from_slice(&pt);
            seal_in_place(&key, &aad, &mut frame, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_eq!(frame, expected, "len {len}");

            let reference = |key: &AeadKey, aad: &[u8], bytes: &[u8]| {
                AeadCiphertext::from_bytes(bytes)
                    .ok()
                    .and_then(|ct| open(key, aad, &ct).ok())
            };
            let in_place = |key: &AeadKey, aad: &[u8], bytes: &[u8], out_len: usize| {
                let mut out = vec![0u8; out_len];
                open_into(key, aad, bytes, &mut out).ok().map(|()| out)
            };
            assert_eq!(in_place(&key, &aad, &frame, len), Some(pt.clone()));

            let bit = (rng.next_u32() as usize) % (frame.len() * 8);
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let mut extended = frame.clone();
            extended.push(0);
            let cut = (rng.next_u32() as usize) % frame.len();
            let other_key = AeadKey::random(&mut rng);
            let mut other_aad = aad.clone();
            other_aad.push(1);
            let cases: [(&AeadKey, &[u8], &[u8]); 5] = [
                (&key, &aad, &flipped),
                (&key, &aad, &extended),
                (&key, &aad, &frame[..cut]),
                (&other_key, &aad, &frame),
                (&key, &other_aad, &frame),
            ];
            for (k, (key, aad, bytes)) in cases.into_iter().enumerate() {
                let out_len = bytes.len().saturating_sub(ENCODED_OVERHEAD);
                assert_eq!(
                    in_place(key, aad, bytes, out_len),
                    reference(key, aad, bytes),
                    "len {len} case {k}"
                );
                assert_eq!(reference(key, aad, bytes), None, "len {len} case {k}");
            }
            for out_len in [len.wrapping_sub(1), len + 1] {
                if out_len <= 400 {
                    assert_eq!(in_place(&key, &aad, &frame, out_len), None, "len {len}");
                }
            }
        }
    }

    #[test]
    fn seal_in_place_refuses_a_frame_shorter_than_the_overhead() {
        let mut rng = rng();
        let key = AeadKey::random(&mut rng);
        let mut frame = [0u8; ENCODED_OVERHEAD - 1];
        assert!(seal_in_place(&key, b"", &mut frame, &mut rng).is_err());
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
