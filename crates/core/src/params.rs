//! Whole-system parameters (paper §3, §9.2).

use safetypin_bfe::BfeParams;
use safetypin_hsm::HsmConfig;
use safetypin_lhe::LheParams;
use safetypin_primitives::error::WireError;
use safetypin_primitives::wire::{Decode, Encode, Reader, Writer};
use safetypin_primitives::CryptoError;

/// Parameters for a full SafetyPin deployment.
#[derive(Debug, Clone, Copy)]
pub struct SystemParams {
    /// Location-hiding encryption parameters (N, n, t, |P|).
    pub lhe: LheParams,
    /// Reciprocal of the tolerated compromised fraction (`f_secret = 1/16`).
    pub f_secret_inv: u64,
    /// Reciprocal of the tolerated fail-stop fraction (`f_live = 1/64`).
    pub f_live_inv: u64,
    /// Bloom-filter-encryption parameters per HSM.
    pub bfe: BfeParams,
    /// Chunks each HSM audits per log epoch at one chunk per HSM
    /// (`C = λ`); an epoch of fewer or more chunks is audited at the same
    /// rate `C/N` (`authlog::distributed::audit_draws`).
    pub audits_per_epoch: u32,
    /// Garbage collections each HSM will follow before refusing.
    pub max_gc: u64,
}

impl SystemParams {
    /// The paper's deployment point: `N = 3,100`, `n = 40`, `t = 20`,
    /// six-digit PINs, `f_secret = 1/16`, `f_live = 1/64`, 2²¹-slot BFE
    /// keys, `C = 128`.
    ///
    /// Note: provisioning 3,100 HSMs with full-size BFE keys materializes
    /// ~3,100 × 64 MB of key state; use [`SystemParams::scaled`] or
    /// [`SystemParams::test_small`] for in-process experiments, exactly as
    /// the paper treats its 100-SoloKey cluster as a slice of the 3,100.
    pub fn paper_default() -> Self {
        Self {
            lhe: LheParams::paper_default(),
            f_secret_inv: 16,
            f_live_inv: 64,
            bfe: BfeParams::paper_default(),
            audits_per_epoch: 128,
            max_gc: 24,
        }
    }

    /// A deployment scaled for in-process experiments: `total` HSMs with
    /// `bfe_slots`-slot puncturable keys, paper ratios elsewhere.
    pub fn scaled(total: u64, cluster: usize, bfe_slots: u64) -> Result<Self, CryptoError> {
        Ok(Self {
            lhe: LheParams::new(
                total,
                cluster,
                LheParams::derive_threshold(cluster),
                1_000_000,
            )?,
            f_secret_inv: 16,
            f_live_inv: 64,
            bfe: BfeParams::new(bfe_slots, 4)?,
            audits_per_epoch: 16,
            max_gc: 24,
        })
    }

    /// Small parameters for unit tests: cluster of 4, threshold 2,
    /// 128-slot BFE keys.
    pub fn test_small(total: u64) -> Self {
        Self {
            lhe: LheParams::new(total, 4, 2, 10_000).expect("valid test params"),
            f_secret_inv: 16,
            f_live_inv: 64,
            bfe: BfeParams::new(128, 3).expect("valid test params"),
            audits_per_epoch: 4,
            max_gc: 8,
        }
    }

    /// Total HSM count `N`.
    pub fn total(&self) -> u64 {
        self.lhe.total
    }

    /// HSMs whose compromise the deployment tolerates
    /// (`N_evil = f_secret·N`, Table 14).
    pub fn n_evil(&self) -> u64 {
        self.lhe.total / self.f_secret_inv
    }

    /// HSMs that may fail-stop while recovery still succeeds
    /// (`f_live·N`).
    pub fn n_fail(&self) -> u64 {
        self.lhe.total / self.f_live_inv
    }

    /// Minimum signers for a log-update quorum: all HSMs minus the
    /// fail-stop budget.
    pub fn min_signers(&self) -> usize {
        (self.lhe.total - self.n_fail()).max(1) as usize
    }

    /// The per-HSM configuration.
    pub fn hsm_config(&self, id: u64) -> HsmConfig {
        HsmConfig {
            id,
            bfe_params: self.bfe,
            audits_per_epoch: self.audits_per_epoch,
            max_gc: self.max_gc,
            min_signers: self.min_signers(),
        }
    }
}

impl Encode for SystemParams {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.lhe.total);
        w.put_u64(self.lhe.cluster as u64);
        w.put_u64(self.lhe.threshold as u64);
        w.put_u64(self.lhe.pin_space);
        w.put_u64(self.f_secret_inv);
        w.put_u64(self.f_live_inv);
        self.bfe.encode(w);
        w.put_u32(self.audits_per_epoch);
        w.put_u64(self.max_gc);
    }
}

impl Decode for SystemParams {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        let total = r.get_u64()?;
        let cluster = r.get_u64()? as usize;
        let threshold = r.get_u64()? as usize;
        let pin_space = r.get_u64()?;
        let lhe = LheParams::new(total, cluster, threshold, pin_space)
            .map_err(|_| WireError::LengthOutOfRange)?;
        Ok(Self {
            lhe,
            f_secret_inv: r.get_u64()?,
            f_live_inv: r.get_u64()?,
            bfe: BfeParams::decode(r)?,
            audits_per_epoch: r.get_u32()?,
            max_gc: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_wire_roundtrip() {
        for p in [
            SystemParams::test_small(8),
            SystemParams::paper_default(),
            SystemParams::scaled(512, 40, 1024).unwrap(),
        ] {
            let back = SystemParams::from_bytes(&p.to_bytes()).unwrap();
            assert_eq!(back.lhe, p.lhe);
            assert_eq!(back.bfe, p.bfe);
            assert_eq!(back.f_secret_inv, p.f_secret_inv);
            assert_eq!(back.f_live_inv, p.f_live_inv);
            assert_eq!(back.audits_per_epoch, p.audits_per_epoch);
            assert_eq!(back.max_gc, p.max_gc);
        }
    }

    #[test]
    fn paper_default_matches_evaluation_section() {
        let p = SystemParams::paper_default();
        assert_eq!(p.total(), 3_100);
        assert_eq!(p.lhe.cluster, 40);
        assert_eq!(p.lhe.threshold, 20);
        assert_eq!(p.n_evil(), 193, "≈194 tolerated corrupt HSMs (§9.2)");
        assert_eq!(p.n_fail(), 48, "≈48 tolerated failed HSMs (§9.2)");
        assert_eq!(p.bfe.slots, 1 << 21);
        // ≈2^18 decryptions before rotation (§9.1).
        assert_eq!(p.bfe.max_punctures(), 1 << 18);
        // 64 MB secret keys (§7.1).
        assert_eq!(p.bfe.secret_key_bytes(), 64 << 20);
    }

    #[test]
    fn min_signers_leaves_room_for_failures() {
        let p = SystemParams::test_small(64);
        assert_eq!(p.min_signers(), 63);
        let paper = SystemParams::paper_default();
        assert_eq!(paper.min_signers(), 3_100 - 48);
    }

    #[test]
    fn scaled_derives_threshold() {
        let p = SystemParams::scaled(512, 40, 1024).unwrap();
        assert_eq!(p.lhe.threshold, 20);
        assert!(p.lhe.satisfies_security_precondition());
    }

    #[test]
    fn hsm_config_propagates() {
        let p = SystemParams::test_small(8);
        let c = p.hsm_config(5);
        assert_eq!(c.id, 5);
        assert_eq!(c.bfe_params, p.bfe);
        assert_eq!(c.min_signers, p.min_signers());
    }
}
