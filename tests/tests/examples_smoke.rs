//! Smoke tests covering each example's main path (`examples/*.rs`), so
//! `cargo test` catches regressions in the flows the examples walk
//! through without shelling out to the example binaries. CI additionally
//! builds the binaries themselves via `cargo build --examples`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::{Deployment, DeploymentBuilder, SystemParams};

fn deployment(seed: u64) -> (Deployment, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = SystemParams::test_small(16);
    let deployment = Deployment::provision(params, &mut rng).expect("provisioning succeeds");
    (deployment, rng)
}

/// `examples/quickstart.rs`: backup, recover, second recovery refused.
#[test]
fn quickstart_main_path() {
    let (mut deployment, mut rng) = deployment(1);
    let mut phone = deployment.new_client(b"alice@example.com").unwrap();
    assert!(phone.keying_material_bytes() > 0);

    let disk_key = b"32-byte disk-encryption key!!!!!";
    let artifact = phone.backup(b"493201", disk_key, 0, &mut rng).unwrap();
    assert!(!artifact.ciphertext.is_empty());

    let outcome = deployment
        .recover(&phone, b"493201", &artifact, &mut rng)
        .unwrap();
    assert_eq!(outcome.message, disk_key);
    assert!(outcome.responders > 0 && outcome.responders <= outcome.contacted);

    assert!(deployment
        .recover(&phone, b"493201", &artifact, &mut rng)
        .is_err());
}

/// `examples/disk_backup.rs`: incremental backups under a device key, the
/// device key protected by SafetyPin, restore on a replacement device,
/// old generation revoked.
#[test]
fn disk_backup_main_path() {
    use safetypin::primitives::aead::AeadKey;

    let (mut deployment, mut rng) = deployment(2);
    let mut phone = deployment.new_client(b"dana@example.com").unwrap();
    let pin = b"271828";

    let device_key = phone.incremental_key(&mut rng).clone();
    let artifact = phone
        .backup(pin, device_key.as_bytes(), 0, &mut rng)
        .unwrap();

    let mut provider_storage = Vec::new();
    for day in 1..=5u64 {
        let image = format!("photos and messages from day {day}");
        let (seq, ct) = phone
            .incremental_backup(image.as_bytes(), &mut rng)
            .unwrap();
        provider_storage.push((day, seq, ct));
    }

    // A re-backup in the same series reuses the salt.
    let artifact2 = phone
        .backup(pin, device_key.as_bytes(), 0, &mut rng)
        .unwrap();
    assert_eq!(artifact.salt, artifact2.salt);

    // Replacement device: recover the device key, then every increment.
    let outcome = deployment
        .recover(&phone, pin, &artifact2, &mut rng)
        .unwrap();
    let recovered_key = AeadKey::from_bytes(outcome.message.as_slice().try_into().unwrap());
    let mut replacement = deployment.new_client(b"dana@example.com").unwrap();
    replacement.install_incremental_key(recovered_key.clone());
    for (day, seq, ct) in &provider_storage {
        let image = replacement
            .decrypt_incremental(&recovered_key, *seq, ct)
            .unwrap();
        assert_eq!(
            image,
            format!("photos and messages from day {day}").into_bytes()
        );
    }

    // The old generation is revoked along with the recovered one.
    assert!(deployment
        .recover(&phone, pin, &artifact, &mut rng)
        .is_err());
}

/// `examples/audit_monitor.rs`: a recovery leaves a log trace, the replay
/// audit passes on the honest history, and doctored histories are caught.
#[test]
fn audit_monitor_main_path() {
    use safetypin::authlog::auditor;

    let (mut deployment, mut rng) = deployment(3);
    let mut alice = deployment.new_client(b"alice").unwrap();
    let mut bob = deployment.new_client(b"bob").unwrap();
    let alice_backup = alice.backup(b"111111", b"alice-key", 0, &mut rng).unwrap();
    let _bob_backup = bob.backup(b"222222", b"bob-key", 0, &mut rng).unwrap();

    let epoch0 = deployment.datacenter.run_epoch().unwrap();
    let snapshot0 = deployment.datacenter.log_entries().to_vec();

    deployment
        .recover(&alice, b"111111", &alice_backup, &mut rng)
        .unwrap();

    let snapshot1 = deployment.datacenter.log_entries().to_vec();
    let epoch1 = *deployment.datacenter.update_history().last().unwrap();
    auditor::audit_transition(
        &snapshot0,
        &epoch0.message.new_digest,
        &snapshot1,
        &epoch1.new_digest,
    )
    .expect("honest provider passes the replay audit");

    assert!(auditor::recovery_attempts_for(&snapshot1, b"bob").is_empty());
    assert_eq!(
        auditor::recovery_attempts_for(&snapshot1, b"alice").len(),
        1
    );

    // A history with alice's attempt scrubbed fails the audit.
    let mut doctored = snapshot1.clone();
    doctored.retain(|e| e.id != b"alice");
    assert!(auditor::audit_transition(
        &snapshot0,
        &epoch0.message.new_digest,
        &doctored,
        &epoch1.new_digest,
    )
    .is_err());
}

/// `examples/adaptive_attack.rs`: a blind f-fraction compromise misses
/// the hidden cluster, the covering probability is sane, and punctured
/// ciphertexts stay dead (forward secrecy).
#[test]
fn adaptive_attack_main_path() {
    use safetypin::analysis::security::{cover_probability_exact, SecurityParams};
    use safetypin::lhe::select;

    let total = 64u64;
    let mut rng = StdRng::seed_from_u64(4);
    let params = SystemParams::test_small(total);
    let mut deployment = Deployment::provision(params, &mut rng).unwrap();
    let mut victim = deployment.new_client(b"victim").unwrap();
    let artifact = victim
        .backup(b"314159", b"state secrets", 0, &mut rng)
        .unwrap();

    // Blind compromise of the first 1/16 of the fleet.
    let corrupt_count = (total as f64 / 16.0) as usize;
    let stolen: Vec<u64> = (0..corrupt_count as u64).collect();
    for &id in &stolen {
        let _secrets = deployment.datacenter.hsm_mut(id).unwrap().compromise();
    }
    let cluster = select(&params.lhe, &artifact.salt, b"314159");
    let captured = cluster.iter().filter(|i| stolen.contains(i)).count();
    assert!(captured < params.lhe.threshold);

    // Analytic covering probability at paper scale is a tiny probability.
    let p_cover = cover_probability_exact(40, 20, 1.0 / 16.0);
    assert!(p_cover > 0.0 && p_cover < 1e-6);
    assert!(SecurityParams::paper_default().security_loss_bits() < 8.0);

    // Forward secrecy: recovery punctures; replaying the ciphertext fails.
    deployment
        .recover(&victim, b"314159", &artifact, &mut rng)
        .unwrap();
    assert!(deployment
        .recover(&victim, b"314159", &artifact, &mut rng)
        .is_err());
}

/// `examples/remote_fleet.rs`: backup/recover over the `Serialized`
/// transport with a `Faulty` wrapper dropping a minority of HSM
/// responses — recovery still succeeds at threshold, and the wire
/// counters record real envelope bytes plus the injected drop.
#[test]
fn remote_fleet_main_path() {
    use safetypin::proto::{FaultPlan, Faulty, Serialized};

    let mut rng = StdRng::seed_from_u64(0xF1EE7);
    let transport = Faulty::new(
        Box::new(Serialized::cdc()),
        FaultPlan::drop(0.25).recovery_only(),
        0, // same fault seed as the example: loses one of three replies
    );
    let params = SystemParams::test_small(16);
    let mut deployment = DeploymentBuilder::new(params)
        .transport(Box::new(transport))
        .provision(&mut rng)
        .unwrap();

    let mut phone = deployment.new_client(b"remote@example.com").unwrap();
    let disk_key = b"32-byte disk-encryption key!!!!!";
    let artifact = phone.backup(b"493201", disk_key, 0, &mut rng).unwrap();

    let outcome = deployment
        .recover(&phone, b"493201", &artifact, &mut rng)
        .unwrap();
    assert_eq!(outcome.message, disk_key);
    assert!(outcome.responders < outcome.contacted, "a reply must drop");

    let stats = deployment.datacenter.transport_stats();
    assert!(stats.dropped >= 1);
    assert!(stats.total_bytes() > 0, "envelopes must be measured");
}

/// `examples/durable_fleet.rs`: provision → backup → persist → drop →
/// restore → recover, with punctures committed to crash-safe storage —
/// then a second drop with no persist in between, and a second restore.
#[test]
fn durable_fleet_main_path() {
    use safetypin_store::FileOptions;

    let dir = std::env::temp_dir().join(format!("safetypin-smoke-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (mut deployment, mut rng) = deployment(6);
    let mut phone = deployment.new_client(b"alice@example.com").unwrap();
    let disk_key = b"32-byte disk-encryption key!!!!!";
    let artifact = phone.backup(b"493201", disk_key, 0, &mut rng).unwrap();

    let meta = deployment
        .persist(&dir, FileOptions::relaxed(), &mut rng)
        .unwrap();
    assert_eq!(meta.fleet_size, 16);
    drop(deployment);

    let (mut restored, meta) =
        safetypin::Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
    assert_eq!(meta.proto_version, safetypin::proto::PROTO_VERSION);
    let outcome = restored
        .recover(&phone, b"493201", &artifact, &mut rng)
        .unwrap();
    assert_eq!(outcome.message, disk_key);
    let punctures: u64 = (0..meta.fleet_size)
        .map(|i| restored.datacenter.hsm(i).unwrap().punctures())
        .sum();
    assert!(punctures > 0, "punctures must be committed on disk");
    assert!(restored
        .recover(&phone, b"493201", &artifact, &mut rng)
        .is_err());

    // The second power cut: nothing persisted since the restore.
    let bob_key = b"bob's 32-byte disk key!!!!!!!!!!";
    let bob_artifact = restored
        .save(b"bob@example.com", b"271828", bob_key, &mut rng)
        .unwrap();
    let bob = restored.new_client(b"bob@example.com").unwrap();
    drop(restored);
    let (mut again, meta) =
        safetypin::Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
    let punctures_again: u64 = (0..meta.fleet_size)
        .map(|i| again.datacenter.hsm(i).unwrap().punctures())
        .sum();
    assert_eq!(punctures_again, punctures);
    assert!(again
        .recover(&phone, b"493201", &artifact, &mut rng)
        .is_err());
    let outcome = again
        .recover(&bob, b"271828", &bob_artifact, &mut rng)
        .unwrap();
    assert_eq!(outcome.message, bob_key);
    assert_eq!(outcome.responders, outcome.contacted);
    let _ = std::fs::remove_dir_all(&dir);
}
