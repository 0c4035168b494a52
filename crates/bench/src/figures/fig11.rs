//! Figure 11: recovery time and security loss vs. cluster size n.
//!
//! One fleet serves clients configured with different cluster sizes (the
//! HSMs are agnostic to n); each recovery's metered per-HSM cost is
//! priced at SoloKey rates, and the Theorem 10 security-loss bound is
//! computed for each n.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::{Deployment, SystemParams};
use safetypin_analysis::security::SecurityParams;
use safetypin_lhe::LheParams;
use safetypin_sim::CostModel;

use crate::report::{secs, Report};

const FLEET: u64 = 128;
const BFE_SLOTS: u64 = 1 << 11;

/// Regenerates Figure 11.
pub fn run() {
    let mut report = Report::new(
        "fig11",
        "recovery time and security loss vs cluster size (paper Fig 11)",
    );
    let model = CostModel::paper_default();
    let mut rng = StdRng::seed_from_u64(11);

    let params = SystemParams::scaled(FLEET, 40, BFE_SLOTS).unwrap();
    let mut deployment = Deployment::provision(params, &mut rng).unwrap();
    report.line(format!("fleet: N = {FLEET}, BFE {BFE_SLOTS} slots"));

    let mut rows = Vec::new();
    for n in [40usize, 50, 60, 70, 80, 90, 100] {
        // A client with cluster size n on the same fleet.
        let lhe = LheParams::new(FLEET, n, n / 2, 1_000_000).unwrap();
        let enrollments = deployment.datacenter.enrollments();
        let username = format!("fig11-n{n}");
        let mut client =
            safetypin_client::Client::new(username.as_bytes(), lhe, enrollments).unwrap();
        let artifact = client
            .backup(b"123456", b"disk key material!", 0, &mut rng)
            .unwrap();

        deployment.datacenter.drain_fleet_costs();
        let outcome = deployment
            .recover(&client, b"123456", &artifact, &mut rng)
            .unwrap();
        assert_eq!(outcome.message, b"disk key material!");

        // Per-HSM time (cluster works in parallel): total/contacted.
        let mut per = deployment.datacenter.drain_fleet_costs().total();
        let div = outcome.contacted.max(1) as u64;
        per.group_mults /= div;
        per.elgamal_decs /= div;
        per.sha_ops /= div;
        per.aes_blocks /= div;
        per.io_bytes /= div;
        per.io_messages = (per.io_messages / div).max(1);
        let recovery_secs = model.total_seconds(&per);
        // Scale PE traffic to paper-size keys as in fig10.
        let paper_secs = recovery_secs * (21.0 / (BFE_SLOTS as f64).log2()).max(1.0);

        let bits = SecurityParams {
            total: 3_100,
            cluster: n as u32,
            pin_space: 1_000_000,
            f_secret: 1.0 / 16.0,
        }
        .security_loss_bits();
        rows.push(vec![
            n.to_string(),
            secs(recovery_secs),
            secs(paper_secs),
            format!("{bits:.2}"),
        ]);
    }
    report.table(
        &[
            "cluster n",
            "recovery (SoloKey)",
            "paper-scale keys",
            "security loss (bits)",
        ],
        &rows,
    );
    report.line("");
    report.line("paper Fig 11: ~1.0 s at n = 40 growing slowly to ~1.3 s at n = 100;");
    report.line("bits 6.81 → 5.49 (ours: 7.86 → 6.54 — same log2(3N/n) slope).");
    report.finish();
}
