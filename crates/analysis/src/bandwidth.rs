//! Client keying-material bandwidth (paper §9.2).
//!
//! A SafetyPin client must hold *every* HSM's public key — downloading
//! only its cluster's keys would reveal the cluster to the provider. The
//! traffic has three parts: the initial full download when the client
//! joins, the per-rotation refresh (each HSM rotates its puncturable key
//! every `punctures_per_key` decryptions), and the recovery ciphertext
//! upload per backup.

use crate::cost::SECONDS_PER_YEAR;

/// Bandwidth-model inputs.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthModel {
    /// Fleet size `N`.
    pub total: u64,
    /// Cluster size `n`.
    pub cluster: u32,
    /// Serialized bytes of one HSM's enrollment record (identity key +
    /// BLS key + PoP + BFE public key). Measure with
    /// `EnrollmentRecord`'s `Encode::encoded_len`.
    pub enrollment_bytes: u64,
    /// System-wide recoveries per year.
    pub recoveries_per_year: f64,
    /// Punctures a key survives before rotation.
    pub punctures_per_key: u64,
}

impl BandwidthModel {
    /// The initial keying-material download when a client joins (§9.2
    /// reports 11.5 MB at paper scale).
    pub fn initial_download_bytes(&self) -> u64 {
        self.total * self.enrollment_bytes
    }

    /// Fleet-wide key rotations per day.
    pub fn rotations_per_day(&self) -> f64 {
        // Each recovery punctures ~n HSM keys once each.
        let punctures_per_day =
            self.recoveries_per_year * self.cluster as f64 / (SECONDS_PER_YEAR / 86_400.0);
        punctures_per_day / self.punctures_per_key as f64
    }

    /// Fresh public-key bytes a client must fetch per day (§9.2 reports
    /// 1.97 MB/day at paper scale).
    pub fn daily_refresh_bytes(&self) -> f64 {
        self.rotations_per_day() * self.enrollment_bytes as f64
    }

    /// Bytes needed after `days` offline, capped at the full key set
    /// (§9.2: "up to a maximum of 11.5 MB").
    pub fn catchup_bytes(&self, days: f64) -> f64 {
        (self.daily_refresh_bytes() * days).min(self.initial_download_bytes() as f64)
    }

    /// Days between rotations for a single HSM.
    pub fn days_between_rotations(&self) -> f64 {
        self.total as f64 / self.rotations_per_day()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper-scale model. `enrollment_bytes` is NOT the paper's 3.7 KB:
    /// with one point per Bloom slot (the only structure that keeps
    /// punctured slots independent), a 2²¹-slot public
    /// key is ≈66 MB. We test the *model*, at paper scale, with the
    /// paper's per-HSM figure so the derived quantities can be compared
    /// to §9.2, and separately with our measured record size.
    fn paper_scale(enrollment_bytes: u64) -> BandwidthModel {
        BandwidthModel {
            total: 3_100,
            cluster: 40,
            enrollment_bytes,
            recoveries_per_year: 1e9,
            punctures_per_key: 1 << 18,
        }
    }

    #[test]
    fn initial_download_matches_paper_with_paper_record_size() {
        // 11.5 MB / 3,100 HSMs ≈ 3,710 B per record.
        let m = paper_scale(3_710);
        let mb = m.initial_download_bytes() as f64 / 1e6;
        assert!((mb - 11.5).abs() < 0.1, "got {mb}");
    }

    #[test]
    fn daily_refresh_matches_paper_with_paper_record_size() {
        let m = paper_scale(3_710);
        // ~418 rotations/day fleet-wide ⇒ ≈1.55 MB/day. The paper says
        // 1.97 MB/day; same order (their puncture accounting differs
        // slightly).
        let mb = m.daily_refresh_bytes() / 1e6;
        assert!(mb > 1.0 && mb < 3.0, "got {mb}");
    }

    #[test]
    fn catchup_caps_at_full_set() {
        let m = paper_scale(3_710);
        assert!(m.catchup_bytes(2.0) < m.initial_download_bytes() as f64);
        assert_eq!(m.catchup_bytes(10_000.0), m.initial_download_bytes() as f64);
    }

    #[test]
    fn rotation_cadence_about_weekly() {
        let m = paper_scale(3_710);
        let days = m.days_between_rotations();
        // 1B recoveries/yr × 40 punctures / 3,100 HSMs / 2^18 ⇒ ~7.4 days.
        assert!(days > 3.0 && days < 15.0, "got {days}");
    }

    #[test]
    fn honest_full_size_keys_are_heavy() {
        // With full per-slot public keys (2²¹ × 33 B ≈ 69 MB/HSM) the
        // download is hundreds of GB — the price of per-slot keys.
        let m = paper_scale((1u64 << 21) * 33);
        assert!(m.initial_download_bytes() > 100 * (1 << 30));
    }
}
