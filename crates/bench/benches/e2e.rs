//! Criterion end-to-end benchmarks: full backup and recovery on a small
//! deployment (host wall-clock; the figure binaries report SoloKey time),
//! over both the zero-copy `Direct` transport and the byte-metered
//! `Serialized` transport. Message sizes are measured from the
//! `Serialized` transport's actual encoded envelopes, not estimated.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::hsm::HsmError;
use safetypin::proto::Serialized;
use safetypin::provider::ProviderError;
use safetypin::{Deployment, DeploymentBuilder, DeploymentError, SystemParams};

fn bench_e2e(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let params = SystemParams::test_small(16);
    let mut deployment = Deployment::provision(params, &mut rng).unwrap();
    let mut client = deployment.new_client(b"bench-user").unwrap();

    c.bench_function("client_backup_n4", |b| {
        let mut rng2 = StdRng::seed_from_u64(43);
        b.iter(|| std::hint::black_box(client.backup(b"123456", &[0u8; 32], 0, &mut rng2).unwrap()))
    });

    // Full recovery including the log epoch. Each iteration needs a fresh
    // username (one attempt per identifier) and a fresh backup series —
    // the counter lives outside the closure because criterion re-invokes
    // it across warmup and measurement passes. Every recovery punctures
    // the involved HSMs' BFE filters, so a long measurement run exhausts
    // the fleet's puncture capacity by design (the paper rotates keys in
    // epochs); when that happens we stand up a fresh fleet and keep
    // measuring, mirroring rotation.
    let mut rng2 = StdRng::seed_from_u64(44);
    let mut serial = 0u64;
    c.bench_function("full_recovery_n4", |b| {
        b.iter(|| {
            serial += 1;
            let username = format!("bench-{serial}");
            let mut cl = deployment.new_client(username.as_bytes()).unwrap();
            let artifact = cl.backup(b"123456", &[1u8; 32], 0, &mut rng2).unwrap();
            let outcome = match deployment.recover(&cl, b"123456", &artifact, &mut rng2) {
                Ok(outcome) => outcome,
                Err(DeploymentError::Provider(ProviderError::Hsm(HsmError::DecryptFailed))) => {
                    // Puncture capacity exhausted: rotate the fleet. (Only
                    // this variant is absorbed — anything else is a real
                    // regression and must fail the bench.)
                    deployment = Deployment::provision(params, &mut rng2).unwrap();
                    let mut cl = deployment.new_client(username.as_bytes()).unwrap();
                    let artifact = cl.backup(b"123456", &[1u8; 32], 0, &mut rng2).unwrap();
                    deployment
                        .recover(&cl, b"123456", &artifact, &mut rng2)
                        .expect("fresh fleet recovers")
                }
                Err(other) => panic!("recovery failed: {other}"),
            };
            std::hint::black_box(outcome.message)
        })
    });

    // The same recovery over the Serialized transport: every message
    // round-trips through the versioned envelope codec, so the reported
    // throughput is the measured wire traffic of one full recovery.
    let mut rng3 = StdRng::seed_from_u64(45);
    let provision_serialized = |rng: &mut StdRng| {
        DeploymentBuilder::new(params)
            .transport(Box::new(Serialized::cdc()))
            .provision(rng)
            .unwrap()
    };
    let mut serialized = provision_serialized(&mut rng3);
    let mut serial3 = 0u64;

    // Measure one recovery's envelope traffic up front and report it —
    // these are the actual encoded bytes, replacing ad-hoc estimates.
    let wire = {
        let mut cl = serialized.new_client(b"probe-user").unwrap();
        let artifact = cl.backup(b"123456", &[1u8; 32], 0, &mut rng3).unwrap();
        let outcome = serialized
            .recover(&cl, b"123456", &artifact, &mut rng3)
            .expect("probe recovery");
        outcome.wire
    };
    println!(
        "[e2e] measured envelope traffic per recovery (Serialized): \
         {} request B + {} response B over {} envelopes / {} messages \
         ({:.3}s at USB CDC)",
        wire.request_bytes, wire.response_bytes, wire.envelopes, wire.messages, wire.seconds
    );

    c.bench_function("full_recovery_serialized_n4", |b| {
        b.iter(|| {
            serial3 += 1;
            let username = format!("wire-{serial3}");
            let mut cl = serialized.new_client(username.as_bytes()).unwrap();
            let artifact = cl.backup(b"123456", &[1u8; 32], 0, &mut rng3).unwrap();
            let outcome = match serialized.recover(&cl, b"123456", &artifact, &mut rng3) {
                Ok(outcome) => outcome,
                Err(DeploymentError::Provider(ProviderError::Hsm(HsmError::DecryptFailed))) => {
                    // Puncture capacity exhausted: rotate the fleet (see
                    // the Direct-transport bench above).
                    serialized = provision_serialized(&mut rng3);
                    let mut cl = serialized.new_client(username.as_bytes()).unwrap();
                    let artifact = cl.backup(b"123456", &[1u8; 32], 0, &mut rng3).unwrap();
                    serialized
                        .recover(&cl, b"123456", &artifact, &mut rng3)
                        .expect("fresh fleet recovers")
                }
                Err(other) => panic!("recovery failed: {other}"),
            };
            std::hint::black_box(outcome.message)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_e2e
);
criterion_main!(benches);
