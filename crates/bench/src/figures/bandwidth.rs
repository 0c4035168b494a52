//! §9.2 client-bandwidth numbers: recovery-ciphertext size, keying
//! material download, and daily rotation traffic.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::baseline::{BaselineParams, BaselineSystem};
use safetypin::proto::Serialized;
use safetypin::{DeploymentBuilder, SystemParams};
use safetypin_analysis::bandwidth::BandwidthModel;
use safetypin_primitives::wire::Encode;
use safetypin_sim::transport::{USB_CDC, USB_HID};

use crate::report::{bytes, Report};

/// Regenerates the §9.2 client-overhead measurements.
pub fn run() {
    let mut report = Report::new("bandwidth", "client bandwidth overheads (paper §9.2)");
    let mut rng = StdRng::seed_from_u64(92);

    // Measured sizes on a scaled fleet with the paper's cluster size,
    // fronted by the Serialized transport so every byte below is read
    // off actual encoded envelopes.
    let params = SystemParams::scaled(64, 40, 1 << 10).unwrap();
    let mut deployment = DeploymentBuilder::new(params)
        .transport(Box::new(Serialized::cdc()))
        .provision(&mut rng)
        .unwrap();
    let mut client = deployment.new_client(b"bw-user").unwrap();
    let artifact = client.backup(b"123456", &[0u8; 32], 0, &mut rng).unwrap();

    let baseline = BaselineSystem::provision(BaselineParams::paper_default(64), &mut rng);
    let (bct, _) = baseline.backup(b"bw-user", b"123456", &[0u8; 32], &mut rng);

    report.section("recovery ciphertext sizes (measured)");
    report.table(
        &["system", "ciphertext"],
        &[
            vec![
                "SafetyPin (n=40, k=4)".into(),
                bytes(artifact.ciphertext.len() as f64),
            ],
            vec![
                "baseline (5 HSMs)".into(),
                bytes(bct.to_bytes().len() as f64),
            ],
        ],
    );
    report.line("paper: 16.5 KB vs 130 B.");

    // One full recovery over the Serialized transport: the per-recovery
    // traffic below is the sum of the actual encoded request/response
    // envelopes (log epoch + grouped cluster round), not an estimate.
    let outcome = deployment
        .recover(&client, b"123456", &artifact, &mut rng)
        .expect("scaled recovery succeeds");
    let wire = outcome.wire;
    report.section("per-recovery wire traffic (measured encoded envelopes)");
    report.table(
        &["direction", "bytes", "USB CDC", "USB HID"],
        &[
            vec![
                "requests (epoch + cluster round)".into(),
                bytes(wire.request_bytes as f64),
                format!("{:.2} s", USB_CDC.seconds_for_bytes(wire.request_bytes)),
                format!("{:.2} s", USB_HID.seconds_for_bytes(wire.request_bytes)),
            ],
            vec![
                "responses".into(),
                bytes(wire.response_bytes as f64),
                format!("{:.2} s", USB_CDC.seconds_for_bytes(wire.response_bytes)),
                format!("{:.2} s", USB_HID.seconds_for_bytes(wire.response_bytes)),
            ],
        ],
    );
    report.line(format!(
        "{} envelopes / {} messages; one envelope per contacted HSM per direction",
        wire.envelopes, wire.messages
    ));

    // Keying material, measured record size extrapolated to paper scale.
    let enrollments = deployment.datacenter.enrollments();
    let record_small = enrollments[0].encoded_len() as u64;
    // The BFE public key dominates; recompute the record size at paper
    // slot count.
    let bfe_small = enrollments[0].bfe_pk.serialized_len();
    let record_fixed = record_small - bfe_small;
    let paper_bfe = safetypin_bfe::BfeParams::paper_default().public_key_bytes();

    report.section("keying material (BandwidthModel)");
    for (label, rec_bytes) in [
        ("paper's reported record (3,710 B)", 3_710u64),
        (
            "our full per-slot BFE public keys",
            record_fixed + paper_bfe,
        ),
    ] {
        let model = BandwidthModel {
            total: 3_100,
            cluster: 40,
            enrollment_bytes: rec_bytes,
            recoveries_per_year: 1e9,
            punctures_per_key: 1 << 18,
        };
        report.line(format!(
            "{label}: initial download {}, daily refresh {}, rotation every {:.1} days/HSM",
            bytes(model.initial_download_bytes() as f64),
            bytes(model.daily_refresh_bytes()),
            model.days_between_rotations(),
        ));
    }
    report.line("paper: 11.5 MB initial, 1.97 MB/day, ~9.02 KB stored for the chosen cluster.");
    report.line("(Our honest per-slot public keys are far larger: one 33-byte point per slot.)");
    report.finish();
}
