//! Figure 10: save and recovery time breakdown, SafetyPin vs. baseline.
//!
//! Backup ("save") is client-side work measured as host wall-clock;
//! recovery is HSM-side work priced at SoloKey rates from the metered
//! phase breakdown (log / location-hiding encryption / puncturable
//! encryption). The measured deployment uses a scaled fleet; a
//! paper-scale extrapolation column adjusts the puncturable-encryption
//! phase to 2²¹-slot keys (tree height 21).

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::baseline::{BaselineParams, BaselineSystem};
use safetypin::{Deployment, SystemParams};
use safetypin_sim::{CostModel, OpCosts};

use crate::report::{bytes, secs, Report};
use crate::time_once;

const FLEET: u64 = 64;
const BFE_SLOTS: u64 = 1 << 12;

/// Regenerates Figure 10.
pub fn run() {
    let mut report = Report::new(
        "fig10",
        "save and recovery time breakdown vs baseline (paper Fig 10)",
    );
    let model = CostModel::paper_default();
    let mut rng = StdRng::seed_from_u64(10);

    let params = SystemParams::scaled(FLEET, 40, BFE_SLOTS).unwrap();
    report.line(format!(
        "deployment: N = {FLEET} (paper slice of 3,100), n = 40, t = 20, BFE {BFE_SLOTS} slots"
    ));
    let (mut deployment, prov_secs) =
        time_once(|| Deployment::provision(params, &mut rng).unwrap());
    report.line(format!(
        "fleet provisioned in {} (parallel per-HSM fan-out)",
        secs(prov_secs)
    ));
    report.metric("provision_s", prov_secs);

    // ---------------- Save (client-side, host wall-clock) ----------------
    let mut client = deployment.new_client(b"fig10-user").unwrap();
    let disk_key = [0x42u8; 32];
    let (artifact, sp_save) = time_once(|| {
        client
            .backup(b"314159", &disk_key, 0, &mut rng)
            .expect("backup succeeds")
    });

    let baseline_params = BaselineParams::paper_default(FLEET);
    let baseline = BaselineSystem::provision(baseline_params, &mut rng);
    let ((baseline_ct, _), bl_save) =
        time_once(|| baseline.backup(b"fig10-user", b"314159", &disk_key, &mut rng));

    report.section("save time (client, host wall-clock)");
    report.table(
        &["system", "time", "ciphertext", "ratio"],
        &[
            vec![
                "SafetyPin".into(),
                secs(sp_save),
                bytes(artifact.ciphertext.len() as f64),
                format!("{:.0}x", sp_save / bl_save),
            ],
            vec![
                "baseline".into(),
                secs(bl_save),
                bytes(baseline_ct.to_bytes_len() as f64),
                "1x".into(),
            ],
        ],
    );
    report.line("paper: SafetyPin 0.37 s vs baseline 0.003 s on a Pixel 4 (~100x).");
    report.metric("save_safetypin_s", sp_save);
    report.metric("save_baseline_s", bl_save);
    report.metric("save_ciphertext_bytes", artifact.ciphertext.len() as f64);

    // ---------------- Recovery (HSM-side, priced at SoloKey) -------------
    deployment.datacenter.drain_fleet_costs();
    let outcome = deployment
        .recover(&client, b"314159", &artifact, &mut rng)
        .expect("recovery succeeds");
    assert_eq!(outcome.message, disk_key);
    let phases = deployment.datacenter.drain_fleet_costs();

    let responders = outcome.responders.max(1) as u64;
    let phase_secs = |c: &OpCosts| {
        let mut per = *c;
        per.group_mults /= responders;
        per.elgamal_decs /= responders;
        per.pairings /= responders;
        per.hmac_ops /= responders;
        per.sha_ops /= responders;
        per.aes_blocks /= responders;
        per.flash_reads /= responders;
        per.io_bytes /= responders;
        per.io_messages = (per.io_messages / responders).max(1);
        model.total_seconds(&per)
    };
    let log_s = phase_secs(&phases.log);
    let lhe_s = phase_secs(&phases.lhe);
    let pe_s = phase_secs(&phases.pe);
    // Paper-scale PE: scale outsourced-tree traffic from height 12 to 21.
    let pe_paper = pe_s * (21.0 / (BFE_SLOTS as f64).log2());

    report.section("recovery time per HSM (modelled SoloKey seconds)");
    report.table(
        &["phase", "measured fleet", "paper-scale keys"],
        &[
            vec!["log".into(), secs(log_s), secs(log_s)],
            vec!["location-hiding enc".into(), secs(lhe_s), secs(lhe_s)],
            vec!["puncturable enc".into(), secs(pe_s), secs(pe_paper)],
            vec![
                "total".into(),
                secs(log_s + lhe_s + pe_s),
                secs(log_s + lhe_s + pe_paper),
            ],
        ],
    );
    report.line("paper: log ≈ 0.18 s, LHE ≈ 0.15 s, PE ≈ 0.68 s ⇒ 1.01 s total.");
    report.metric("recovery_log_s", log_s);
    report.metric("recovery_lhe_s", lhe_s);
    report.metric("recovery_pe_s", pe_s);
    report.metric("recovery_pe_paper_scale_s", pe_paper);
    report.metric("recovery_total_s", log_s + lhe_s + pe_s);
    report.metric("recovery_pe_aes_blocks", phases.pe.aes_blocks as f64);
    report.metric("recovery_pe_io_bytes", phases.pe.io_bytes as f64);

    // Baseline recovery: one ElGamal decryption + a PIN-hash compare.
    let mut bl = OpCosts::new();
    bl.elgamal_decs = 1;
    bl.hmac_ops = 2;
    bl.add_io(baseline_ct.to_bytes_len() as u64 + 64);
    report.line(format!(
        "baseline recovery (one cluster HSM): {} (paper: 0.17 s)",
        secs(model.total_seconds(&bl))
    ));
    report.finish();
}

trait ToBytesLen {
    fn to_bytes_len(&self) -> usize;
}

impl ToBytesLen for safetypin::baseline::BaselineCiphertext {
    fn to_bytes_len(&self) -> usize {
        use safetypin_primitives::wire::Encode;
        self.encoded_len()
    }
}
