//! Operation accounting and cost-to-time conversion.
//!
//! Protocol code accumulates an [`OpCosts`] as it executes real
//! cryptography; a [`CostModel`] (device profile + transport profile)
//! converts the counts into simulated device seconds. Keeping counts and
//! rates separate lets one protocol run be priced on every device in
//! Table 2 — which is how Figure 12 and Table 14 are produced.

use crate::device::DeviceProfile;
use crate::transport::TransportProfile;

/// Counted operations for some protocol segment.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCosts {
    /// P-256 point multiplications (`g^x`).
    pub group_mults: u64,
    /// Full hashed-ElGamal decryptions (measured as a unit in Table 7).
    pub elgamal_decs: u64,
    /// BLS12-381 pairings.
    pub pairings: u64,
    /// ECDSA signature verifications.
    pub ecdsa_verifies: u64,
    /// HMAC-SHA256 operations (one short-input MAC).
    pub hmac_ops: u64,
    /// SHA-256 compression invocations (hash-tree work).
    pub sha_ops: u64,
    /// AES-128 block operations.
    pub aes_blocks: u64,
    /// 32-byte flash reads.
    pub flash_reads: u64,
    /// Bytes moved over the HSM's USB transport (both directions).
    pub io_bytes: u64,
    /// Distinct I/O messages (each pays at least one round trip).
    pub io_messages: u64,
}

impl OpCosts {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &OpCosts) {
        self.group_mults += other.group_mults;
        self.elgamal_decs += other.elgamal_decs;
        self.pairings += other.pairings;
        self.ecdsa_verifies += other.ecdsa_verifies;
        self.hmac_ops += other.hmac_ops;
        self.sha_ops += other.sha_ops;
        self.aes_blocks += other.aes_blocks;
        self.flash_reads += other.flash_reads;
        self.io_bytes += other.io_bytes;
        self.io_messages += other.io_messages;
    }

    /// Adds AES work expressed in bytes (16-byte blocks, rounded up).
    pub fn add_aes_bytes(&mut self, bytes: u64) {
        self.aes_blocks += bytes.div_ceil(16).max(1);
    }

    /// Adds one I/O exchange of `bytes` total.
    pub fn add_io(&mut self, bytes: u64) {
        self.io_bytes += bytes;
        self.io_messages += 1;
    }
}

/// A device + transport pair that prices [`OpCosts`] into seconds.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// The compute profile.
    pub device: DeviceProfile,
    /// The I/O profile.
    pub transport: TransportProfile,
}

impl CostModel {
    /// The paper's evaluation platform: SoloKey over USB CDC.
    pub fn paper_default() -> Self {
        Self {
            device: crate::device::SOLOKEY,
            transport: crate::transport::USB_CDC,
        }
    }

    /// Seconds of compute time for `costs` on this device.
    pub fn compute_seconds(&self, costs: &OpCosts) -> f64 {
        let d = &self.device;
        costs.group_mults as f64 / d.group_mults_per_sec
            + costs.elgamal_decs as f64 / d.elgamal_dec_per_sec
            + costs.pairings as f64 / d.pairings_per_sec
            + costs.ecdsa_verifies as f64 / d.ecdsa_verify_per_sec
            + costs.hmac_ops as f64 / d.hmac_per_sec
            // One HMAC is ~2 compression calls; price raw SHA at 2× the
            // HMAC rate.
            + costs.sha_ops as f64 / (2.0 * d.hmac_per_sec)
            + costs.aes_blocks as f64 / d.aes_ops_per_sec
            + costs.flash_reads as f64 / d.flash_reads_per_sec
    }

    /// Seconds of I/O time for `costs` on this transport.
    pub fn io_seconds(&self, costs: &OpCosts) -> f64 {
        self.transport.seconds_for_bytes(costs.io_bytes)
            + costs
                .io_messages
                .saturating_sub(costs.io_bytes.div_ceil(32)) as f64
                * self.transport.rtt_seconds()
    }

    /// Total (compute + I/O) seconds.
    pub fn total_seconds(&self, costs: &OpCosts) -> f64 {
        self.compute_seconds(costs) + self.io_seconds(costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device;
    use crate::transport;

    #[test]
    fn single_ops_match_table7() {
        let model = CostModel::paper_default();
        let mut c = OpCosts::new();
        c.group_mults = 1;
        assert!((model.compute_seconds(&c) - 1.0 / 7.69).abs() < 1e-9);
        let mut c = OpCosts::new();
        c.pairings = 1;
        assert!((model.compute_seconds(&c) - 1.0 / 0.43).abs() < 1e-9);
        let mut c = OpCosts::new();
        c.elgamal_decs = 1;
        assert!((model.compute_seconds(&c) - 1.0 / 6.67).abs() < 1e-9);
    }

    #[test]
    fn costs_accumulate() {
        let mut a = OpCosts::new();
        a.group_mults = 2;
        a.add_aes_bytes(100);
        let mut b = OpCosts::new();
        b.group_mults = 3;
        b.add_io(64);
        a.add(&b);
        assert_eq!(a.group_mults, 5);
        assert_eq!(a.aes_blocks, 7);
        assert_eq!(a.io_bytes, 64);
        assert_eq!(a.io_messages, 1);
    }

    #[test]
    fn io_seconds_scale_with_bytes() {
        let model = CostModel::paper_default();
        let mut small = OpCosts::new();
        small.add_io(32);
        let mut big = OpCosts::new();
        big.add_io(32 * 100);
        assert!(model.io_seconds(&big) > 50.0 * model.io_seconds(&small));
    }

    #[test]
    fn hid_much_slower_than_cdc() {
        let cdc = CostModel::paper_default();
        let hid = CostModel {
            device: device::SOLOKEY,
            transport: transport::USB_HID,
        };
        let mut c = OpCosts::new();
        c.add_io(3200);
        let ratio = hid.io_seconds(&c) / cdc.io_seconds(&c);
        assert!((ratio - 31.89).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn faster_device_costs_less_time() {
        let solo = CostModel::paper_default();
        let safenet = CostModel {
            device: device::SAFENET_A700,
            transport: transport::USB_CDC,
        };
        let mut c = OpCosts::new();
        c.group_mults = 100;
        c.aes_blocks = 1000;
        assert!(safenet.compute_seconds(&c) < solo.compute_seconds(&c) / 100.0);
    }
}
