//! t-out-of-n Shamir secret sharing over GF(2^8).
//!
//! Location-hiding encryption (paper §5, Figure 15) splits the AES transport
//! key into n shares such that any t reconstruct it. We share each byte of
//! the secret independently under a degree-(t−1) polynomial, evaluating at
//! x = index (1-based; x = 0 holds the secret).
//!
//! The paper's `Reconstruct` routine (Figure 15) receives shares where each
//! share also carries a copy of the AEAD-encrypted message header and takes
//! the most common value; that majority logic lives in the LHE crate — this
//! module is the pure field-level sharing.

use rand::{CryptoRng, RngCore};
use subtle::ConstantTimeEq;

use crate::error::WireError;
use crate::gf256;
use crate::wire::{Decode, Encode, Reader, Writer};
use crate::{CryptoError, Result};

/// One Shamir share: the evaluation point `index` (nonzero) and one byte of
/// polynomial output per byte of the secret.
///
/// A leaf secret type: wiped on drop, redacted in `Debug`, no
/// `Display`, and `==` is [`ConstantTimeEq::ct_eq`] (an early-exit
/// compare over `data` would time the matching prefix).
#[derive(Clone)]
pub struct Share {
    /// Evaluation point in [1, 255].
    pub index: u8,
    /// Polynomial evaluations, one per secret byte.
    pub data: Vec<u8>,
}

impl core::fmt::Debug for Share {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // t-1 shares reveal nothing, but one logged share still shrinks
        // the adversary's reconstruction threshold — redact the bytes.
        write!(f, "Share {{ index: {}, data: <redacted> }}", self.index)
    }
}

impl Drop for Share {
    fn drop(&mut self) {
        crate::zeroize::wipe_bytes(&mut self.data);
    }
}

impl ConstantTimeEq for Share {
    fn ct_eq(&self, other: &Self) -> subtle::Choice {
        self.index.ct_eq(&other.index) & self.data.as_slice().ct_eq(&other.data)
    }
}

impl PartialEq for Share {
    fn eq(&self, other: &Self) -> bool {
        self.ct_eq(other).into()
    }
}

impl Eq for Share {}

impl Encode for Share {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.index);
        w.put_bytes(&self.data);
    }
}

impl Decode for Share {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        let index = r.get_u8()?;
        let data = r.get_bytes()?.to_vec();
        Ok(Self { index, data })
    }
}

/// Splits `secret` into `n` shares with reconstruction threshold `t`.
///
/// Shares are issued at evaluation points 1..=n. Requires
/// `1 <= t <= n <= 255`.
///
/// # Examples
///
/// ```
/// use safetypin_primitives::shamir::{share, reconstruct};
/// let mut rng = rand::thread_rng();
/// let shares = share(b"transport key!!!", 20, 40, &mut rng).unwrap();
/// let secret = reconstruct(&shares[5..25], 20).unwrap();
/// assert_eq!(secret, b"transport key!!!");
/// ```
pub fn share<R: RngCore + CryptoRng>(
    secret: &[u8],
    t: usize,
    n: usize,
    rng: &mut R,
) -> Result<Vec<Share>> {
    if t == 0 || t > n {
        return Err(CryptoError::InvalidParameter(
            "threshold t must satisfy 1 <= t <= n",
        ));
    }
    if n > 255 {
        return Err(CryptoError::InvalidParameter(
            "n must be at most 255 over GF(2^8)",
        ));
    }
    // One random polynomial per secret byte: coeffs[0] = secret byte,
    // coeffs[1..t] random.
    let mut shares: Vec<Share> = (1..=n as u8)
        .map(|index| Share {
            index,
            data: Vec::with_capacity(secret.len()),
        })
        .collect();
    let mut coeffs = vec![0u8; t];
    for &byte in secret {
        coeffs[0] = byte;
        if t > 1 {
            rng.fill_bytes(&mut coeffs[1..]);
        }
        for s in shares.iter_mut() {
            s.data.push(gf256::poly_eval(&coeffs, s.index));
        }
    }
    Ok(shares)
}

/// Reconstructs the secret from at least `t` shares via Lagrange
/// interpolation at x = 0.
///
/// Extra shares beyond the first `t` are ignored (consistent with honest
/// shares; Byzantine shares are handled a layer up by the majority logic in
/// LHE reconstruction). Fails on duplicate or zero indices and on shares of
/// differing lengths.
pub fn reconstruct(shares: &[Share], t: usize) -> Result<Vec<u8>> {
    if shares.len() < t {
        return Err(CryptoError::NotEnoughShares {
            needed: t,
            got: shares.len(),
        });
    }
    let used = &shares[..t];
    let len = used[0].data.len();
    let mut seen = [false; 256];
    for s in used {
        if s.index == 0 {
            return Err(CryptoError::InvalidShareIndex);
        }
        if seen[s.index as usize] {
            return Err(CryptoError::DuplicateShare(s.index));
        }
        seen[s.index as usize] = true;
        if s.data.len() != len {
            return Err(CryptoError::ShareLengthMismatch);
        }
    }
    // Lagrange basis at x = 0: L_i(0) = Π_{j≠i} x_j / (x_j − x_i).
    // In characteristic 2 subtraction is XOR, so x_j − x_i = x_j ^ x_i.
    let mut basis = Vec::with_capacity(t);
    for (i, si) in used.iter().enumerate() {
        let mut num = 1u8;
        let mut den = 1u8;
        for (j, sj) in used.iter().enumerate() {
            if i == j {
                continue;
            }
            num = gf256::mul(num, sj.index);
            den = gf256::mul(den, gf256::add(sj.index, si.index));
        }
        basis.push(gf256::div(num, den));
    }
    let mut secret = vec![0u8; len];
    for (byte_idx, out) in secret.iter_mut().enumerate() {
        let mut acc = 0u8;
        for (i, s) in used.iter().enumerate() {
            acc = gf256::add(acc, gf256::mul(basis[i], s.data[byte_idx]));
        }
        *out = acc;
    }
    Ok(secret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn roundtrip_exact_threshold() {
        let mut rng = rng();
        let secret = b"0123456789abcdef";
        let shares = share(secret, 20, 40, &mut rng).unwrap();
        assert_eq!(shares.len(), 40);
        let got = reconstruct(&shares[..20], 20).unwrap();
        assert_eq!(got, secret);
    }

    #[test]
    fn any_t_subset_reconstructs() {
        let mut rng = rng();
        let secret = b"key material ...";
        let shares = share(secret, 3, 7, &mut rng).unwrap();
        // A few different 3-subsets.
        for combo in [[0usize, 1, 2], [4, 5, 6], [0, 3, 6], [1, 2, 5]] {
            let subset: Vec<Share> = combo.iter().map(|&i| shares[i].clone()).collect();
            assert_eq!(reconstruct(&subset, 3).unwrap(), secret);
        }
    }

    #[test]
    fn too_few_shares_rejected() {
        let mut rng = rng();
        let shares = share(b"s", 3, 5, &mut rng).unwrap();
        let err = reconstruct(&shares[..2], 3).unwrap_err();
        assert_eq!(err, CryptoError::NotEnoughShares { needed: 3, got: 2 });
    }

    #[test]
    fn duplicate_index_rejected() {
        let mut rng = rng();
        let shares = share(b"s", 2, 4, &mut rng).unwrap();
        let dup = vec![shares[0].clone(), shares[0].clone()];
        assert_eq!(
            reconstruct(&dup, 2).unwrap_err(),
            CryptoError::DuplicateShare(shares[0].index)
        );
    }

    #[test]
    fn zero_index_rejected() {
        let bad = vec![
            Share {
                index: 0,
                data: vec![1],
            },
            Share {
                index: 1,
                data: vec![2],
            },
        ];
        assert_eq!(
            reconstruct(&bad, 2).unwrap_err(),
            CryptoError::InvalidShareIndex
        );
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let bad = vec![
            Share {
                index: 1,
                data: vec![1, 2],
            },
            Share {
                index: 2,
                data: vec![3],
            },
        ];
        assert_eq!(
            reconstruct(&bad, 2).unwrap_err(),
            CryptoError::ShareLengthMismatch
        );
    }

    #[test]
    fn t_equals_one_is_replication() {
        let mut rng = rng();
        let shares = share(b"public", 1, 5, &mut rng).unwrap();
        for s in &shares {
            assert_eq!(reconstruct(std::slice::from_ref(s), 1).unwrap(), b"public");
        }
    }

    #[test]
    fn t_equals_n_requires_all() {
        let mut rng = rng();
        let shares = share(b"all hands", 4, 4, &mut rng).unwrap();
        assert_eq!(reconstruct(&shares, 4).unwrap(), b"all hands");
        assert!(reconstruct(&shares[..3], 4).is_err());
    }

    #[test]
    fn fewer_than_t_shares_leak_nothing_statistically() {
        // With t = 2 a single share's data byte is uniform: share two
        // different secrets and check the single-share distributions are
        // indistinguishable in aggregate (coarse sanity check, not a proof).
        let mut rng = rng();
        let mut counts = [[0u32; 2]; 256];
        for trial in 0..2000 {
            for (which, secret) in [[0u8], [255u8]].iter().enumerate() {
                let shares = share(secret, 2, 2, &mut rng).unwrap();
                let b = shares[0].data[0];
                counts[b as usize][which] += 1;
                let _ = trial;
            }
        }
        // Chi-squared-ish: no byte value should appear wildly more often for
        // one secret than the other.
        for row in counts.iter() {
            let diff = (row[0] as i64 - row[1] as i64).abs();
            assert!(
                diff < 60,
                "single share distribution should not depend on secret"
            );
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let mut rng = rng();
        assert!(share(b"s", 0, 4, &mut rng).is_err());
        assert!(share(b"s", 5, 4, &mut rng).is_err());
        assert!(share(b"s", 2, 256, &mut rng).is_err());
    }

    #[test]
    fn empty_secret_roundtrips() {
        let mut rng = rng();
        let shares = share(b"", 2, 3, &mut rng).unwrap();
        assert_eq!(reconstruct(&shares[..2], 2).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn eq_agrees_with_ct_eq_on_equal_and_unequal_pairs() {
        let mut rng = rng();
        let shares = share(b"0123456789abcdef", 2, 3, &mut rng).unwrap();
        let (a, b) = (&shares[0], &shares[1]);
        let with = |index: u8, data: &[u8]| Share {
            index,
            data: data.to_vec(),
        };
        let pairs = [
            (a.clone(), a.clone()),
            (a.clone(), with(a.index, &a.data)),
            (a.clone(), b.clone()),
            (a.clone(), with(a.index, &b.data)),
            (a.clone(), with(b.index, &a.data)),
            (a.clone(), with(a.index, &a.data[..8])),
        ];
        for (i, (x, y)) in pairs.iter().enumerate() {
            assert_eq!(x == y, bool::from(x.ct_eq(y)), "pair {i}");
            assert_eq!(x == y, i < 2, "pair {i}");
        }
    }

    #[test]
    fn wire_roundtrip() {
        let s = Share {
            index: 7,
            data: vec![1, 2, 3],
        };
        let bytes = s.to_bytes();
        assert_eq!(Share::from_bytes(&bytes).unwrap(), s);
    }
}
