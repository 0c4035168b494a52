//! Hashed ElGamal public-key encryption over NIST P-256 (paper App. A.4).
//!
//! A keypair is `(x, g^x)`. To encrypt message `m` to public key `X` with
//! context string `ctx` (domain separation), the encryptor samples `r` and
//! outputs
//!
//! ```text
//! ( g^r,  AEEncrypt( Hash'(X^r, ctx), m ) )
//! ```
//!
//! Two properties matter for SafetyPin:
//!
//! - **Key privacy** (Bellare et al. \[8\] in the paper): the ciphertext is a
//!   uniform group element plus an AEAD ciphertext under a hashed key, so it
//!   reveals nothing about *which* public key it was encrypted to. This is
//!   what lets location-hiding encryption hide the recovery cluster.
//! - **CCA security**: the authenticated DEM rejects mauled ciphertexts, and
//!   the context string is bound into the KDF, giving the domain separation
//!   described at the end of Appendix A.4 (username, salt, and recipient set
//!   are all hashed into the DEM key).

use p256::elliptic_curve::sec1::{FromEncodedPoint, ToEncodedPoint};
use p256::elliptic_curve::PrimeField;
use p256::{AffinePoint, EncodedPoint, NonZeroScalar, ProjectivePoint, Scalar};
use rand::{CryptoRng, RngCore};

use crate::aead::{self, AeadCiphertext, AeadKey};
use crate::error::WireError;
use crate::hashes::{hash_parts, Domain};
use crate::wire::{Decode, Encode, Reader, Writer};
use crate::{CryptoError, Result};

/// Compressed SEC1 encoding length for a P-256 point.
pub const POINT_LEN: usize = 33;
/// Serialized scalar length.
pub const SCALAR_LEN: usize = 32;

/// An ElGamal public key (a non-identity P-256 point).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PublicKey(pub(crate) ProjectivePoint);

impl core::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let bytes = self.to_sec1();
        write!(
            f,
            "PublicKey({:02x}{:02x}..{:02x})",
            bytes[0], bytes[1], bytes[32]
        )
    }
}

impl PublicKey {
    /// Returns the compressed SEC1 encoding (33 bytes).
    pub fn to_sec1(&self) -> [u8; POINT_LEN] {
        let enc = self.0.to_affine().to_encoded_point(true);
        let mut out = [0u8; POINT_LEN];
        out.copy_from_slice(enc.as_bytes());
        out
    }

    /// Parses a compressed SEC1 encoding; rejects the identity and invalid
    /// encodings.
    pub fn from_sec1(bytes: &[u8]) -> Result<Self> {
        let enc = EncodedPoint::from_bytes(bytes).map_err(|_| CryptoError::InvalidPoint)?;
        let affine = Option::<AffinePoint>::from(AffinePoint::from_encoded_point(&enc))
            .ok_or(CryptoError::InvalidPoint)?;
        let point = ProjectivePoint::from(affine);
        if point == ProjectivePoint::IDENTITY {
            return Err(CryptoError::InvalidPoint);
        }
        Ok(Self(point))
    }

    /// Wraps an already-validated group element; rejects the identity.
    ///
    /// This is the hot-path constructor for code that just computed the
    /// point (keygen, shared-secret derivation): it skips the SEC1
    /// encode/parse round-trip that [`from_sec1`](Self::from_sec1) pays.
    pub fn from_point(point: ProjectivePoint) -> Result<Self> {
        if point == ProjectivePoint::IDENTITY {
            return Err(CryptoError::InvalidPoint);
        }
        Ok(Self(point))
    }

    /// The underlying group element (hot paths that multiply by this key
    /// directly, avoiding a decode per use).
    pub fn as_point(&self) -> &ProjectivePoint {
        &self.0
    }
}

impl Encode for PublicKey {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.to_sec1());
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        let bytes = r.get_fixed(POINT_LEN)?;
        PublicKey::from_sec1(bytes).map_err(|_| WireError::InvalidTag(bytes[0]))
    }
}

/// An ElGamal secret key (a nonzero P-256 scalar).
#[derive(Clone)]
pub struct SecretKey(pub(crate) Scalar);

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SecretKey(<redacted>)")
    }
}

impl Drop for SecretKey {
    fn drop(&mut self) {
        // The scalar type exposes no byte-level access, so the wipe
        // overwrites it with zero (an invalid secret key — `from_bytes`
        // rejects it) and fences so the store is not elided.
        self.0 = Scalar::ZERO;
        core::sync::atomic::compiler_fence(core::sync::atomic::Ordering::SeqCst);
    }
}

impl SecretKey {
    /// Serializes the scalar as 32 big-endian bytes.
    ///
    /// Exposed so the HSM substrate can model compromise (state
    /// exfiltration) and so the BFE secret-key array can be stored in the
    /// outsourced-storage tree.
    pub fn to_bytes(&self) -> [u8; SCALAR_LEN] {
        self.0.to_bytes()
    }

    /// Parses a 32-byte big-endian scalar; rejects zero and out-of-range
    /// values.
    pub fn from_bytes(bytes: &[u8; SCALAR_LEN]) -> Result<Self> {
        let scalar =
            Option::<Scalar>::from(Scalar::from_repr(*bytes)).ok_or(CryptoError::InvalidScalar)?;
        if scalar == Scalar::ZERO {
            return Err(CryptoError::InvalidScalar);
        }
        Ok(Self(scalar))
    }

    /// Returns the matching public key `g^x` (via the precomputed
    /// fixed-base generator table).
    pub fn public_key(&self) -> PublicKey {
        PublicKey(p256::FixedBaseTable::generator().mul(&self.0))
    }
}

/// A keypair `(x, g^x)`.
#[derive(Clone, Debug)]
pub struct KeyPair {
    /// Secret scalar.
    pub sk: SecretKey,
    /// Public point.
    pub pk: PublicKey,
}

impl KeyPair {
    /// Samples a fresh keypair.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        let nz = NonZeroScalar::random(rng);
        let sk = SecretKey(*nz.as_ref());
        let pk = sk.public_key();
        Self { sk, pk }
    }
}

crate::wire! {
    /// A hashed-ElGamal ciphertext: ephemeral point `g^r` plus the AEAD body.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Ciphertext {
        /// Ephemeral public nonce `g^r`.
        pub eph: PublicKey,
        /// DEM ciphertext under `Hash'(X^r, ctx)`.
        pub dem: AeadCiphertext,
    }
}

impl Ciphertext {
    /// Serialized length without outer wire framing.
    pub fn raw_len(&self) -> usize {
        POINT_LEN + self.dem.raw_len()
    }
}

fn derive_dem_key(shared: &ProjectivePoint, eph: &PublicKey, context: &[u8]) -> AeadKey {
    let shared_bytes = PublicKey(*shared).to_sec1();
    let digest = hash_parts(
        Domain::ElGamalKdf,
        &[&shared_bytes, &eph.to_sec1(), context],
    );
    let mut key = [0u8; aead::KEY_LEN];
    key.copy_from_slice(&digest[..aead::KEY_LEN]);
    AeadKey::from_bytes(key)
}

/// Encrypts `msg` to `pk`, binding `context` into the key derivation and the
/// AEAD associated data.
///
/// The caller supplies `context` as the domain-separation string; SafetyPin
/// uses `username ‖ salt ‖ H(recipient set)` per Appendix A.4.
///
/// # Examples
///
/// ```
/// use safetypin_primitives::elgamal::{KeyPair, encrypt, decrypt};
/// let mut rng = rand::thread_rng();
/// let kp = KeyPair::generate(&mut rng);
/// let ct = encrypt(&kp.pk, b"ctx", b"share", &mut rng);
/// assert_eq!(decrypt(&kp.sk, b"ctx", &ct).unwrap(), b"share");
/// ```
pub fn encrypt<R: RngCore + CryptoRng>(
    pk: &PublicKey,
    context: &[u8],
    msg: &[u8],
    rng: &mut R,
) -> Ciphertext {
    let r = NonZeroScalar::random(rng);
    let eph = PublicKey(p256::FixedBaseTable::generator().mul(r.as_ref()));
    let shared = pk.0 * r.as_ref();
    let key = derive_dem_key(&shared, &eph, context);
    let dem = aead::seal(&key, context, msg, rng);
    Ciphertext { eph, dem }
}

/// Decrypts a ciphertext with the secret key and the same context string.
pub fn decrypt(sk: &SecretKey, context: &[u8], ct: &Ciphertext) -> Result<Vec<u8>> {
    let shared = ct.eph.0 * sk.0;
    let key = derive_dem_key(&shared, &ct.eph, context);
    aead::open(&key, context, &ct.dem)
}

/// Decrypts many ciphertexts under **one** secret key in a single
/// shared-scalar batch pass.
///
/// All the `ephᵢ^x` shared-point computations go through one
/// [`p256::mul_many`] call (one scalar recoding amortized across the
/// batch on a real curve), and the ephemeral points are consumed as
/// validated group elements — no per-item SEC1 re-parse. This is the
/// client-side shape of a multi-user recovery round: a batch of §8
/// encrypted replies, every one addressed to the same per-recovery key.
///
/// Returns one result per item, in input order; a failed item (wrong
/// key, wrong context, mauled DEM) does not disturb its neighbours.
pub fn decrypt_many(sk: &SecretKey, items: &[(&[u8], &Ciphertext)]) -> Vec<Result<Vec<u8>>> {
    let ephs: Vec<ProjectivePoint> = items.iter().map(|(_, ct)| ct.eph.0).collect();
    let shareds = p256::mul_many(&ephs, &sk.0);
    items
        .iter()
        .zip(shareds)
        .map(|((context, ct), shared)| {
            let key = derive_dem_key(&shared, &ct.eph, context);
            aead::open(&key, context, &ct.dem)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn roundtrip() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let ct = encrypt(&kp.pk, b"ctx", b"hello", &mut rng);
        assert_eq!(decrypt(&kp.sk, b"ctx", &ct).unwrap(), b"hello");
    }

    #[test]
    fn decrypt_many_matches_per_item_decrypt() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let other = KeyPair::generate(&mut rng);
        let cts: Vec<Ciphertext> = (0..5)
            .map(|i| encrypt(&kp.pk, b"ctx", format!("m{i}").as_bytes(), &mut rng))
            .collect();
        let stray = encrypt(&other.pk, b"ctx", b"not ours", &mut rng);
        let mut items: Vec<(&[u8], &Ciphertext)> =
            cts.iter().map(|c| (b"ctx" as &[u8], c)).collect();
        items.insert(2, (b"ctx", &stray));
        let batch = decrypt_many(&kp.sk, &items);
        assert_eq!(batch.len(), 6);
        for (i, (context, ct)) in items.iter().enumerate() {
            let single = decrypt(&kp.sk, context, ct);
            assert_eq!(batch[i].is_ok(), single.is_ok(), "item {i}");
            if let (Ok(a), Ok(b)) = (&batch[i], &single) {
                assert_eq!(a, b);
            }
        }
        assert!(batch[2].is_err(), "wrong-key item fails in place");
        assert!(decrypt_many(&kp.sk, &[]).is_empty());
    }

    #[test]
    fn wrong_key_fails() {
        let mut rng = rng();
        let kp1 = KeyPair::generate(&mut rng);
        let kp2 = KeyPair::generate(&mut rng);
        let ct = encrypt(&kp1.pk, b"", b"secret", &mut rng);
        assert!(decrypt(&kp2.sk, b"", &ct).is_err());
    }

    #[test]
    fn wrong_context_fails() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let ct = encrypt(&kp.pk, b"user-a", b"secret", &mut rng);
        assert!(decrypt(&kp.sk, b"user-b", &ct).is_err());
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let ct = encrypt(&kp.pk, b"", b"secret", &mut rng);
        // Replace the ephemeral point with another valid point: decryption
        // must fail authentication rather than return garbage.
        let other = KeyPair::generate(&mut rng);
        let mauled = Ciphertext {
            eph: other.pk,
            dem: ct.dem.clone(),
        };
        assert!(decrypt(&kp.sk, b"", &mauled).is_err());
    }

    #[test]
    fn pk_roundtrips_through_sec1() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let bytes = kp.pk.to_sec1();
        let back = PublicKey::from_sec1(&bytes).unwrap();
        assert_eq!(back, kp.pk);
    }

    #[test]
    fn sk_roundtrips_through_bytes() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let bytes = kp.sk.to_bytes();
        let back = SecretKey::from_bytes(&bytes).unwrap();
        assert_eq!(back.public_key(), kp.pk);
    }

    #[test]
    fn identity_pk_rejected() {
        // SEC1 encoding of the identity is the single byte 0x00; the parser
        // must reject it (and any truncated input).
        assert!(PublicKey::from_sec1(&[0u8]).is_err());
        assert!(PublicKey::from_sec1(&[2u8; 5]).is_err());
    }

    #[test]
    fn zero_sk_rejected() {
        assert!(SecretKey::from_bytes(&[0u8; 32]).is_err());
    }

    #[test]
    fn ciphertext_wire_roundtrip() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let ct = encrypt(&kp.pk, b"ctx", b"payload", &mut rng);
        let bytes = ct.to_bytes();
        let back = Ciphertext::from_bytes(&bytes).unwrap();
        assert_eq!(back, ct);
        assert_eq!(decrypt(&kp.sk, b"ctx", &back).unwrap(), b"payload");
    }

    #[test]
    fn ciphertexts_are_key_private_in_shape() {
        // Ciphertexts to two different keys are structurally identical:
        // same length, both with valid uniform-looking ephemeral points.
        // (The actual key-privacy argument is cryptographic; this checks
        // that nothing about the recipient is serialized.)
        let mut rng = rng();
        let kp1 = KeyPair::generate(&mut rng);
        let kp2 = KeyPair::generate(&mut rng);
        let ct1 = encrypt(&kp1.pk, b"ctx", b"same message", &mut rng);
        let ct2 = encrypt(&kp2.pk, b"ctx", b"same message", &mut rng);
        assert_eq!(ct1.to_bytes().len(), ct2.to_bytes().len());
        assert_ne!(ct1.eph, ct2.eph, "fresh randomness per encryption");
    }

    #[test]
    fn fresh_randomness_each_encryption() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let ct1 = encrypt(&kp.pk, b"", b"m", &mut rng);
        let ct2 = encrypt(&kp.pk, b"", b"m", &mut rng);
        assert_ne!(ct1.eph, ct2.eph);
        assert_ne!(ct1.to_bytes(), ct2.to_bytes());
    }

    #[test]
    fn empty_message_roundtrip() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let ct = encrypt(&kp.pk, b"ctx", b"", &mut rng);
        assert_eq!(decrypt(&kp.sk, b"ctx", &ct).unwrap(), Vec::<u8>::new());
    }
}
