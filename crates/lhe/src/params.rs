//! Location-hiding encryption parameters (paper §3, §9.2, Appendix A.1).

use safetypin_primitives::CryptoError;

/// Parameters of a location-hiding encryption deployment.
///
/// The paper's evaluation configuration is [`LheParams::paper_default`]:
/// `N = 3,100` HSMs, cluster size `n = 40`, threshold `t = n/2 = 20`,
/// six-decimal-digit PINs, `f_secret = 1/16`, `f_live = 1/64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LheParams {
    /// Total number of HSMs in the datacenter (`N`).
    pub total: u64,
    /// Cluster size (`n`): HSMs per recovery ciphertext.
    pub cluster: usize,
    /// Recovery threshold (`t`): shares needed to reconstruct.
    pub threshold: usize,
    /// Size of the PIN space (`|P|`), used by the security analysis.
    pub pin_space: u64,
}

impl LheParams {
    /// Validates and constructs parameters.
    ///
    /// Requirements: `1 ≤ t ≤ n ≤ min(N, 255)` (255 is the GF(2⁸) Shamir
    /// evaluation-point bound) and nonzero `N`, `|P|`.
    pub fn new(
        total: u64,
        cluster: usize,
        threshold: usize,
        pin_space: u64,
    ) -> Result<Self, CryptoError> {
        if total == 0 {
            return Err(CryptoError::InvalidParameter("N must be positive"));
        }
        if cluster == 0 || cluster > 255 || cluster as u64 > total {
            return Err(CryptoError::InvalidParameter(
                "cluster size must satisfy 1 <= n <= min(N, 255)",
            ));
        }
        if threshold == 0 || threshold > cluster {
            return Err(CryptoError::InvalidParameter(
                "threshold must satisfy 1 <= t <= n",
            ));
        }
        if pin_space == 0 {
            return Err(CryptoError::InvalidParameter("PIN space must be nonempty"));
        }
        Ok(Self {
            total,
            cluster,
            threshold,
            pin_space,
        })
    }

    /// The paper's deployment parameters: `N = 3,100`, `n = 40`,
    /// `t = 20`, six-decimal-digit PINs.
    pub fn paper_default() -> Self {
        Self {
            total: 3_100,
            cluster: 40,
            threshold: 20,
            pin_space: 1_000_000,
        }
    }

    /// Threshold as the paper derives it: `t = n/2` for `f_live = 1/64`
    /// (Appendix A, "Our instantiation takes t = n/2").
    pub fn derive_threshold(cluster: usize) -> usize {
        (cluster / 2).max(1)
    }

    /// Whether the Lemma 8 / Theorem 10 preconditions hold:
    /// `N > e·n` (≈ 2.71·n) and `|P| ≤ 2^(n/2)`.
    pub fn satisfies_security_precondition(&self) -> bool {
        (self.total as f64) > core::f64::consts::E * self.cluster as f64
            && (self.pin_space as u128) <= (1u128 << (self.cluster as u32 / 2).min(127))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let p = LheParams::paper_default();
        assert_eq!(p.total, 3_100);
        assert_eq!(p.cluster, 40);
        assert_eq!(p.threshold, 20);
        assert_eq!(p.pin_space, 1_000_000);
        // N = 3100 > e·40 ≈ 108.7 and |P| = 10^6 ≥ 2^20.
        assert!(p.satisfies_security_precondition());
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(LheParams::new(0, 40, 20, 10).is_err());
        assert!(LheParams::new(100, 0, 1, 10).is_err());
        assert!(LheParams::new(100, 300, 20, 10).is_err());
        assert!(LheParams::new(30, 40, 20, 10).is_err(), "n > N");
        assert!(LheParams::new(100, 40, 0, 10).is_err());
        assert!(LheParams::new(100, 40, 41, 10).is_err(), "t > n");
        assert!(LheParams::new(100, 40, 20, 0).is_err());
    }

    #[test]
    fn derive_threshold_is_half() {
        assert_eq!(LheParams::derive_threshold(40), 20);
        assert_eq!(LheParams::derive_threshold(1), 1);
        assert_eq!(LheParams::derive_threshold(100), 50);
    }

    #[test]
    fn small_n_fails_precondition() {
        // N = 100 with n = 40 violates N > e·n.
        let p = LheParams::new(100, 40, 20, 1_000_000).unwrap();
        assert!(!p.satisfies_security_precondition());
    }
}
