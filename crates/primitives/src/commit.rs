//! Hash-based commitments.
//!
//! During recovery (paper §4.2) the client commits to the identities of its
//! chosen HSM cluster and to its recovery ciphertext, inserts the commitment
//! into the log, and later opens the commitment to each HSM. The commitment
//! is `h = H(randomness ‖ payload)` under a dedicated domain tag; hiding
//! comes from the 32-byte randomness, binding from collision resistance.

use rand::{CryptoRng, RngCore};

use crate::hashes::{hash_parts, Domain, Hash256};
use crate::{CryptoError, Result};

crate::wire! {
    /// A commitment value (the hash `h`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct Commitment(pub Hash256);
}

crate::wire! {
    /// The opening of a commitment: the payload plus the blinding randomness.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Opening {
        /// Committed payload bytes.
        pub payload: Vec<u8>,
        /// 32 bytes of blinding randomness.
        pub randomness: Hash256,
    }
}

/// Commits to `payload` with fresh randomness, returning the commitment and
/// its opening.
pub fn commit<R: RngCore + CryptoRng>(payload: &[u8], rng: &mut R) -> (Commitment, Opening) {
    let mut randomness = [0u8; 32];
    rng.fill_bytes(&mut randomness);
    let opening = Opening {
        payload: payload.to_vec(),
        randomness,
    };
    (commitment_of(&opening), opening)
}

/// Recomputes the commitment for an opening.
pub fn commitment_of(opening: &Opening) -> Commitment {
    Commitment(hash_parts(
        Domain::RecoveryCommit,
        &[&opening.randomness, &opening.payload],
    ))
}

/// Verifies that `opening` opens `commitment`; returns the payload on
/// success.
pub fn verify<'a>(commitment: &Commitment, opening: &'a Opening) -> Result<&'a [u8]> {
    if commitment_of(opening) != *commitment {
        return Err(CryptoError::BadCommitmentOpening);
    }
    Ok(&opening.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Decode, Encode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn commit_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let (c, o) = commit(b"cluster ids + ct hash", &mut rng);
        assert_eq!(verify(&c, &o).unwrap(), b"cluster ids + ct hash");
    }

    #[test]
    fn wrong_payload_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let (c, mut o) = commit(b"payload", &mut rng);
        o.payload[0] ^= 1;
        assert_eq!(
            verify(&c, &o).unwrap_err(),
            CryptoError::BadCommitmentOpening
        );
    }

    #[test]
    fn wrong_randomness_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let (c, mut o) = commit(b"payload", &mut rng);
        o.randomness[0] ^= 1;
        assert!(verify(&c, &o).is_err());
    }

    #[test]
    fn commitments_hide_payload() {
        // Two commitments to the same payload differ (fresh randomness).
        let mut rng = StdRng::seed_from_u64(4);
        let (c1, _) = commit(b"same", &mut rng);
        let (c2, _) = commit(b"same", &mut rng);
        assert_ne!(c1, c2);
    }

    #[test]
    fn wire_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let (c, o) = commit(b"x", &mut rng);
        assert_eq!(Commitment::from_bytes(&c.to_bytes()).unwrap(), c);
        assert_eq!(Opening::from_bytes(&o.to_bytes()).unwrap(), o);
    }
}
