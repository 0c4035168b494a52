//! Table 7: microbenchmarks — each op measured on this host, next to the
//! paper's SoloKey rates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin_primitives::hashes::hmac_sha256;
use safetypin_primitives::{aead, elgamal};
use safetypin_sim::device::SOLOKEY;
use safetypin_sim::transport::{USB_CDC, USB_HID};

use crate::ops_per_sec;
use crate::report::Report;

/// Regenerates Table 7: SoloKey model rates vs. this host's measured
/// rates for the same operations.
pub fn run() {
    let mut report = Report::new("table7", "microbenchmarks (paper Table 7)");
    let mut rng = StdRng::seed_from_u64(7);
    let mut rows: Vec<Vec<String>> = Vec::new();

    // Pairing (BLS12-381).
    {
        use bls12_381::{pairing, G1Affine, G2Affine};
        let g1 = G1Affine::generator();
        let g2 = G2Affine::generator();
        let rate = ops_per_sec(0.3, || {
            std::hint::black_box(pairing(&g1, &g2));
        });
        rows.push(row("pairing", SOLOKEY.pairings_per_sec, rate));
    }

    // ECDSA verification (P-256).
    {
        use p256::ecdsa::signature::{Signer, Verifier};
        use p256::ecdsa::{Signature, SigningKey, VerifyingKey};
        let sk = SigningKey::random(&mut rng);
        let vk = VerifyingKey::from(&sk);
        let sig: Signature = sk.sign(b"bench message");
        let rate = ops_per_sec(0.3, || {
            std::hint::black_box(vk.verify(b"bench message", &sig).is_ok());
        });
        rows.push(row("ECDSA ver", SOLOKEY.ecdsa_verify_per_sec, rate));
    }

    // Hashed-ElGamal decryption (ours).
    {
        let kp = elgamal::KeyPair::generate(&mut rng);
        let ct = elgamal::encrypt(&kp.pk, b"ctx", b"share", &mut rng);
        let rate = ops_per_sec(0.3, || {
            std::hint::black_box(elgamal::decrypt(&kp.sk, b"ctx", &ct).unwrap());
        });
        rows.push(row("ElGamal dec", SOLOKEY.elgamal_dec_per_sec, rate));
    }

    // g^x (P-256 point multiplication).
    {
        use p256::elliptic_curve::Field;
        use p256::{ProjectivePoint, Scalar};
        let s = Scalar::random(&mut rng);
        let mut acc = ProjectivePoint::GENERATOR;
        let rate = ops_per_sec(0.3, || {
            acc *= s;
        });
        std::hint::black_box(acc);
        rows.push(row("g^x in P-256", SOLOKEY.group_mults_per_sec, rate));
    }

    // HMAC-SHA256.
    {
        let rate = ops_per_sec(0.2, || {
            std::hint::black_box(hmac_sha256(b"key", b"thirty-two bytes of benchmark!!"));
        });
        rows.push(row("HMAC-SHA256", SOLOKEY.hmac_per_sec, rate));
    }

    // AES-128 (one AEAD block-ish op; the paper benches raw AES-128).
    {
        let key = aead::AeadKey::from_bytes([7u8; 16]);
        let mut rng2 = StdRng::seed_from_u64(8);
        let rate = ops_per_sec(0.2, || {
            std::hint::black_box(aead::seal(&key, b"", &[0u8; 16], &mut rng2));
        });
        rows.push(row("AES-128 (16B AEAD)", SOLOKEY.aes_ops_per_sec, rate));
    }

    // I/O and flash are physical-device properties; print model values.
    rows.push(vec![
        "RTT, HID (32B)".into(),
        format!("{:.2}", USB_HID.rtt_per_sec),
        "modelled".into(),
        "-".into(),
    ]);
    rows.push(vec![
        "RTT, CDC (32B)".into(),
        format!("{:.2}", USB_CDC.rtt_per_sec),
        "modelled".into(),
        "-".into(),
    ]);
    rows.push(vec![
        "Flash read (32B)".into(),
        format!("{:.0}", SOLOKEY.flash_reads_per_sec),
        "modelled".into(),
        "-".into(),
    ]);

    report.table(
        &["operation", "SoloKey ops/s", "host ops/s", "host/SoloKey"],
        &rows,
    );
    report.line("");
    report.line("SoloKey column = paper Table 7; host column = this machine.");

    // Recovery message sizes, measured from the Serialized transport's
    // actual encoded envelopes (one small recovery, test-scale fleet)
    // and priced at the Table 7 round-trip rates.
    {
        use safetypin::proto::Serialized;
        use safetypin::{DeploymentBuilder, SystemParams};

        let params = SystemParams::test_small(16);
        let mut rng2 = StdRng::seed_from_u64(77);
        let mut deployment = DeploymentBuilder::new(params)
            .transport(Box::new(Serialized::cdc()))
            .provision(&mut rng2)
            .unwrap();
        let mut client = deployment.new_client(b"t7-user").unwrap();
        let artifact = client.backup(b"123456", &[0u8; 32], 0, &mut rng2).unwrap();
        let wire = deployment
            .recover(&client, b"123456", &artifact, &mut rng2)
            .expect("table7 probe recovery")
            .wire;

        report.line("");
        report.section("measured envelope traffic, one recovery (test-scale fleet)");
        report.table(
            &["direction", "bytes", "CDC transfer", "HID transfer"],
            &[
                vec![
                    "requests".into(),
                    format!("{}", wire.request_bytes),
                    format!("{:.3} s", USB_CDC.seconds_for_bytes(wire.request_bytes)),
                    format!("{:.3} s", USB_HID.seconds_for_bytes(wire.request_bytes)),
                ],
                vec![
                    "responses".into(),
                    format!("{}", wire.response_bytes),
                    format!("{:.3} s", USB_CDC.seconds_for_bytes(wire.response_bytes)),
                    format!("{:.3} s", USB_HID.seconds_for_bytes(wire.response_bytes)),
                ],
            ],
        );
        report.line("bytes = actual encoded envelopes off the Serialized transport.");
    }
    report.finish();
}

fn row(name: &str, solokey: f64, host: f64) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{solokey:.2}"),
        format!("{host:.0}"),
        format!("{:.0}x", host / solokey),
    ]
}
