//! Whole-system integration tests spanning every crate: multi-user
//! lifecycles, fault tolerance, and guess limiting through the full
//! deployment stack.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::{Deployment, DeploymentError, SystemParams};

fn deployment(total: u64, seed: u64) -> (Deployment, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = SystemParams::test_small(total);
    let d = Deployment::provision(params, &mut rng).unwrap();
    (d, rng)
}

#[test]
fn many_users_backup_and_recover() {
    let (mut d, mut rng) = deployment(16, 1);
    let mut artifacts = Vec::new();
    for u in 0..6 {
        let username = format!("user-{u}");
        let mut client = d.new_client(username.as_bytes()).unwrap();
        let pin = format!("{:06}", 111_111 * (u + 1));
        let secret = format!("secret for user {u}");
        let artifact = client
            .backup(pin.as_bytes(), secret.as_bytes(), 0, &mut rng)
            .unwrap();
        artifacts.push((client, pin, secret, artifact));
    }
    // Recover in reverse order; every user gets their own secret.
    for (client, pin, secret, artifact) in artifacts.into_iter().rev() {
        let outcome = d
            .recover(&client, pin.as_bytes(), &artifact, &mut rng)
            .unwrap();
        assert_eq!(outcome.message, secret.as_bytes());
    }
}

#[test]
fn one_user_cannot_recover_anothers_backup() {
    let (mut d, mut rng) = deployment(16, 2);
    let mut alice = d.new_client(b"alice").unwrap();
    let artifact = alice
        .backup(b"123456", b"alice-secret", 0, &mut rng)
        .unwrap();

    // Mallory knows Alice's PIN (shoulder-surfed) and downloads her
    // ciphertext, but authenticates as herself. The HSM username binding
    // rejects the decrypted shares.
    let mallory = d.new_client(b"mallory").unwrap();
    let result = d.recover(&mallory, b"123456", &artifact, &mut rng);
    assert!(result.is_err(), "cross-user recovery must fail");

    // Alice herself still recovers: Mallory's attempt was logged under
    // *Mallory's* identifier, not Alice's.
    let outcome = d.recover(&alice, b"123456", &artifact, &mut rng).unwrap();
    assert_eq!(outcome.message, b"alice-secret");
}

#[test]
fn guess_limiting_is_global_per_identifier() {
    let (mut d, mut rng) = deployment(16, 3);
    let mut bob = d.new_client(b"bob").unwrap();
    let artifact = bob.backup(b"654321", b"bob-secret", 0, &mut rng).unwrap();

    // One wrong-PIN attempt consumes Bob's single logged attempt.
    assert!(d.recover(&bob, b"000000", &artifact, &mut rng).is_err());
    let second = d.recover(&bob, b"654321", &artifact, &mut rng);
    assert!(
        matches!(second.unwrap_err(), DeploymentError::AttemptRefused),
        "log must refuse the second attempt regardless of PIN correctness"
    );
}

#[test]
fn recovery_survives_failstop_within_budget() {
    // A deployment whose quorum allows one HSM down (min_signers derives
    // from f_live; use scaled params with a bigger fleet so the budget is
    // nonzero).
    let mut rng = StdRng::seed_from_u64(4);
    let params = SystemParams::scaled(64, 8, 256).unwrap();
    let mut d = Deployment::provision(params, &mut rng).unwrap();
    assert!(params.min_signers() <= 63, "one failure tolerated");

    let mut carol = d.new_client(b"carol").unwrap();
    let artifact = carol.backup(b"121212", b"resilient", 0, &mut rng).unwrap();

    // Fail one HSM that belongs to carol's cluster if possible.
    let cluster = safetypin::lhe::select(&params.lhe, &artifact.salt, b"121212");
    d.datacenter.hsm_mut(cluster[0]).unwrap().fail();

    let outcome = d.recover(&carol, b"121212", &artifact, &mut rng).unwrap();
    assert_eq!(outcome.message, b"resilient");
    assert!(outcome.responders < outcome.contacted || cluster.iter().all(|&i| i != cluster[0]));
}

#[test]
fn epoch_certification_survives_failures_and_recovers() {
    let mut rng = StdRng::seed_from_u64(5);
    let params = SystemParams::scaled(64, 8, 256).unwrap();
    let mut d = Deployment::provision(params, &mut rng).unwrap();

    d.datacenter.insert_log(b"x", b"1").unwrap();
    d.datacenter.hsm_mut(7).unwrap().fail();
    let outcome = d.datacenter.run_epoch().unwrap();
    assert_eq!(outcome.skipped, vec![7]);

    // The failed HSM comes back with a stale digest; after restoration it
    // re-syncs at the next epoch... which requires starting from its held
    // digest, so the provider replays from scratch for it. Here we simply
    // verify the fleet majority advanced.
    let digests: Vec<_> = (0..64u64)
        .filter(|&i| i != 7)
        .map(|i| d.datacenter.hsm(i).unwrap().log_digest())
        .collect();
    assert!(digests.iter().all(|d| *d == outcome.message.new_digest));
}

#[test]
fn salt_protection_lifecycle() {
    // Backup, protect the salt under the null PIN, recover the salt on a
    // fresh device, verify it matches.
    let (mut d, mut rng) = deployment(16, 6);
    let mut erin = d.new_client(b"erin").unwrap();
    let backup = erin.backup(b"999999", b"erin-secret", 0, &mut rng).unwrap();
    let protected = erin.protect_salt(0, &mut rng).unwrap();

    let outcome = d
        .recover(&erin, safetypin_client::NULL_PIN, &protected, &mut rng)
        .unwrap();
    assert_eq!(outcome.message, backup.salt.0.to_vec());
}

#[test]
fn keying_material_scales_with_fleet() {
    let (d8, _) = deployment(8, 7);
    let (d16, _) = deployment(16, 8);
    let c8 = d8.new_client(b"u").unwrap();
    let c16 = d16.new_client(b"u").unwrap();
    let b8 = c8.keying_material_bytes();
    let b16 = c16.keying_material_bytes();
    assert!(
        (b16 as f64 / b8 as f64 - 2.0).abs() < 0.05,
        "download is linear in N: {b8} vs {b16}"
    );
}

/// Every copy of the fleet's public keys in a process is the devices'
/// own: the published enrollment records share each HSM's slot points
/// rather than copying them.
#[test]
fn published_enrollments_share_the_devices_slot_points() {
    let (d, _) = deployment(8, 10);
    let enrollments = d.datacenter.enrollments();
    for (i, record) in enrollments.iter().enumerate() {
        let device = d.datacenter.hsm(i as u64).unwrap().enrollment().bfe_pk;
        assert!(
            std::ptr::eq(record.bfe_pk.slot(0), device.slot(0)),
            "HSM {i}'s published key copies its slot points"
        );
    }
}

/// Fixed-seed output pinned to the byte: the encoded enrollment list a
/// client downloads, a backup's ciphertext, and the log's digest after
/// that backup's recovery (the trie, Merkle and epoch hashes). A change
/// to how keys are held, a backup is built or the log is hashed must not
/// move any of the three.
#[test]
fn fixed_seed_enrollments_and_backup_are_byte_identical() {
    use safetypin::primitives::wire::Encode;
    use safetypin::proto::ProviderResponse;
    use sha2::{Digest, Sha256};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    let (mut d, mut rng) = deployment(8, 11);
    let enrollments = ProviderResponse::Enrollments(d.datacenter.enrollments()).to_bytes();
    assert_eq!(
        hex(Sha256::digest(&enrollments).as_slice()),
        "b36549d137c2278788468c711aa5c17f17408e87162af3f92833cc16544e21bb"
    );

    let mut client = d.new_client(b"golden").unwrap();
    let artifact = client
        .backup(b"271828", b"pinned secret", 3, &mut rng)
        .unwrap();
    assert_eq!(
        hex(Sha256::digest(&artifact.ciphertext).as_slice()),
        "d48e8fa3a717287587748376e4f84ac85b710b6dd8d1bc191e423b037df205a8"
    );

    let outcome = d.recover(&client, b"271828", &artifact, &mut rng).unwrap();
    assert_eq!(outcome.message, b"pinned secret");
    assert_eq!(
        hex(&d.datacenter.log_digest()),
        "ab14017f7e4a216d00a0a5b3e91efef4430774b1e2eb9fc3629768e230f45aee"
    );
}

#[test]
fn recovery_outcome_costs_price_on_all_devices() {
    use safetypin::sim::device::{SAFENET_A700, SOLOKEY, YUBIHSM2};
    use safetypin::sim::{transport::USB_CDC, CostModel};
    let (mut d, mut rng) = deployment(8, 9);
    let mut client = d.new_client(b"cost-user").unwrap();
    let artifact = client.backup(b"111111", b"m", 0, &mut rng).unwrap();
    d.recover(&client, b"111111", &artifact, &mut rng).unwrap();
    let served = d.datacenter.drain_fleet_costs().total();
    let mut prev = f64::INFINITY;
    for device in [SOLOKEY, YUBIHSM2, SAFENET_A700] {
        let model = CostModel {
            device,
            transport: USB_CDC,
        };
        let secs = model.total_seconds(&served);
        assert!(secs > 0.0 && secs < prev, "faster device ⇒ less time");
        prev = secs;
    }
}

/// A certification that fails must leave the log uncut: the attempt
/// logged before a mass fail-stop is certified by the next epoch once
/// the devices are back, and its recovery completes. (Cutting before
/// any HSM had signed used to strand the entry — and every later epoch
/// — behind a digest no device held.)
#[test]
fn failed_certification_leaves_the_log_uncut() {
    use safetypin::proto::HsmResponse;

    let (mut d, mut rng) = deployment(8, 77);
    let mut client = d.new_client(b"stranded").unwrap();
    let artifact = client.backup(b"602214", b"avogadro", 0, &mut rng).unwrap();
    let attempt = client
        .start_recovery(b"602214", &artifact.ciphertext, false, &mut rng)
        .unwrap();
    let (id, value) = attempt.log_entry();
    d.datacenter.insert_log(&id, &value).unwrap();

    // Six of eight devices are down for one epoch: no quorum.
    for hsm in 0..6 {
        d.datacenter.hsm_mut(hsm).unwrap().fail();
    }
    assert!(d.datacenter.run_epoch().is_err());
    assert!(d.datacenter.update_history().is_empty());
    assert_ne!(
        d.datacenter.certified_digest(),
        d.datacenter.log_digest(),
        "the entry is still pending"
    );

    // All six come back; nothing was certified, so nothing to replay.
    for hsm in 0..6 {
        assert_eq!(d.datacenter.restore_hsm(hsm).unwrap(), 0);
    }
    let outcome = d.datacenter.run_epoch().unwrap();
    assert_eq!(outcome.signers.len(), 8);
    assert_eq!(d.datacenter.certified_digest(), d.datacenter.log_digest());

    // The stranded attempt completes against the certified digest.
    let inclusion = d.datacenter.prove_inclusion(&id, &value).unwrap();
    let mut responses = Vec::new();
    for (_, reply) in d
        .datacenter
        .route_recovery(vec![attempt.requests(&inclusion)], &mut rng)
        .unwrap()
        .remove(0)
    {
        match reply {
            HsmResponse::RecoveryShare { response } => responses.push(response),
            other => panic!("expected a share, got {other:?}"),
        }
    }
    assert_eq!(attempt.finish(responses).unwrap(), b"avogadro");
}
