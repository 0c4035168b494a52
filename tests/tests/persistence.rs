//! Persistence acceptance tests: a deployment persisted to disk,
//! dropped, and restored behaves **byte-identically** to one that never
//! restarted — including completing a PIN recovery whose attempt was
//! already in flight when the process died.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::primitives::wire::Encode;
use safetypin::proto::{self, HsmResponse};
use safetypin::{Deployment, SystemParams};
use safetypin_store::{FileOptions, StoreError};

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "safetypin-persist-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SEED: u64 = 0xD15C_5AFE;

/// Provisions a deployment + client + backup with a fixed RNG stream.
fn provision_and_backup(
    seed: u64,
) -> (
    Deployment,
    safetypin_client::Client,
    safetypin_client::BackupArtifact,
    StdRng,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = SystemParams::test_small(8);
    let deployment = Deployment::provision(params, &mut rng).unwrap();
    let mut client = deployment.new_client(b"alice@example.com").unwrap();
    let artifact = client
        .backup(b"493201", b"the disk encryption key", 0, &mut rng)
        .unwrap();
    (deployment, client, artifact, rng)
}

/// Acceptance criterion: the recovery served by a persisted → dropped →
/// restored fleet produces `RecoveryResponse` bytes identical to an
/// uninterrupted run's.
#[test]
fn restored_recovery_is_byte_identical_to_uninterrupted_run() {
    // Run A: never restarted.
    let (mut a, client_a, artifact_a, mut rng_a) = provision_and_backup(SEED);
    let outcome_a = a
        .recover(&client_a, b"493201", &artifact_a, &mut rng_a)
        .unwrap();
    let replies_a: Vec<Vec<u8>> = a
        .datacenter
        .reply_copies_for(b"alice@example.com")
        .into_iter()
        .map(|r| r.to_bytes())
        .collect();
    assert!(!replies_a.is_empty());

    // Run B: identical RNG stream, but persisted and dropped between the
    // backup and the recovery. Sealing draws from its own RNG so the
    // protocol stream stays aligned with run A.
    let (mut b, client_b, artifact_b, mut rng_b) = provision_and_backup(SEED);
    assert_eq!(
        artifact_a.ciphertext, artifact_b.ciphertext,
        "identical seeds must give identical backups"
    );
    let dir = tmpdir("acceptance");
    let mut seal_rng = StdRng::seed_from_u64(0x5EA1);
    b.persist(&dir, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    drop(b);

    let (mut restored, meta) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
    assert_eq!(meta.fleet_size, 8);
    assert_eq!(meta.proto_version, proto::PROTO_VERSION);
    let outcome_b = restored
        .recover(&client_b, b"493201", &artifact_b, &mut rng_b)
        .unwrap();
    let replies_b: Vec<Vec<u8>> = restored
        .datacenter
        .reply_copies_for(b"alice@example.com")
        .into_iter()
        .map(|r| r.to_bytes())
        .collect();

    assert_eq!(outcome_b.message, outcome_a.message);
    assert_eq!(outcome_b.responders, outcome_a.responders);
    assert_eq!(
        replies_b, replies_a,
        "RecoveryResponse bytes must be identical after restore"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill-and-restart mid-recovery: the attempt is logged and the epoch
/// certified, then the process dies before the cluster round. The
/// restored fleet serves the shares and the client reconstructs.
#[test]
fn fleet_survives_restart_mid_recovery() {
    let (mut d, client, artifact, mut rng) = provision_and_backup(SEED ^ 1);

    // Figure 3 steps 2–5 by hand, then "crash".
    let attempt = client
        .start_recovery(b"493201", &artifact.ciphertext, false, &mut rng)
        .unwrap();
    let (id, value) = attempt.log_entry();
    d.datacenter.insert_log(&id, &value).unwrap();
    d.datacenter.run_epoch().unwrap();

    let dir = tmpdir("mid-recovery");
    let mut seal_rng = StdRng::seed_from_u64(0x5EA2);
    d.persist(&dir, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    drop(d);

    // Restart: the restored provider still has the logged attempt and
    // the certified digest; the HSMs still trust it.
    let (mut restored, _) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
    let inclusion = restored
        .datacenter
        .prove_inclusion(&id, &value)
        .expect("logged attempt survives the restart");
    let requests = attempt.requests(&inclusion);
    let mut responses = Vec::new();
    for (_, reply) in restored
        .datacenter
        .route_recovery(vec![requests], &mut rng)
        .unwrap()
        .remove(0)
    {
        match reply {
            HsmResponse::RecoveryShare { response, .. } => responses.push(response),
            other => panic!("expected a share, got {other:?}"),
        }
    }
    let message = attempt.finish(responses).unwrap();
    assert_eq!(message, b"the disk encryption key");

    // The attempt stays consumed across yet another restart surface:
    // a second insertion for the same identifier is refused.
    assert!(restored.datacenter.insert_log(&id, &value).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill-and-restart mid-epoch: log insertions are pending (not yet
/// certified) at persist time; the restored provider cuts the epoch and
/// the restored HSMs audit and accept it.
#[test]
fn fleet_survives_restart_mid_epoch() {
    let (mut d, _client, _artifact, mut rng) = provision_and_backup(SEED ^ 2);
    d.datacenter.insert_log(b"user-1", b"commit-1").unwrap();
    d.datacenter.run_epoch().unwrap();
    // Mid-epoch: two more insertions pending.
    d.datacenter.insert_log(b"user-2", b"commit-2").unwrap();
    d.datacenter.insert_log(b"user-3", b"commit-3").unwrap();

    let dir = tmpdir("mid-epoch");
    let mut seal_rng = StdRng::seed_from_u64(0x5EA3);
    d.persist(&dir, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    let epochs_before = d.datacenter.update_history().len();
    drop(d);

    let (mut restored, meta) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
    assert_eq!(meta.epoch_count as usize, epochs_before);
    let outcome = restored.datacenter.run_epoch().unwrap();
    // Every HSM signed: the restored digests chain correctly.
    assert_eq!(outcome.signers.len(), 8);
    // And the restored fleet keeps serving new users end to end.
    let mut client = restored.new_client(b"bob@example.com").unwrap();
    let artifact = client.backup(b"111111", b"bob's key", 0, &mut rng).unwrap();
    let outcome = restored
        .recover(&client, b"111111", &artifact, &mut rng)
        .unwrap();
    assert_eq!(outcome.message, b"bob's key");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The restored fleet runs *live* on the crash-safe file stores: a
/// puncture performed after restore is WAL-committed, and a second
/// persist → restore cycle carries it forward.
#[test]
fn punctures_after_restore_survive_a_second_restart() {
    let (mut d, _client, _artifact, mut rng) = provision_and_backup(SEED ^ 3);
    let dir = tmpdir("second-cycle");
    let mut seal_rng = StdRng::seed_from_u64(0x5EA4);
    d.persist(&dir, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    drop(d);

    let (mut restored, _) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
    let mut client = restored.new_client(b"carol@example.com").unwrap();
    let artifact = client
        .backup(b"271828", b"carol's key", 0, &mut rng)
        .unwrap();
    let outcome = restored
        .recover(&client, b"271828", &artifact, &mut rng)
        .unwrap();
    assert_eq!(outcome.message, b"carol's key");
    let punctures_after: u64 = (0..8)
        .map(|i| restored.datacenter.hsm(i).unwrap().punctures())
        .sum();
    assert!(punctures_after > 0);

    // Second cycle: persist the restored (FileStore-backed) fleet in
    // place and restore again.
    restored
        .persist(&dir, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    drop(restored);
    let (mut again, _) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
    let again_punctures: u64 = (0..8)
        .map(|i| again.datacenter.hsm(i).unwrap().punctures())
        .sum();
    assert_eq!(again_punctures, punctures_after);
    // Forward secrecy held across both restarts: the recovered tag is
    // dead, a second attempt for carol is refused at the log.
    assert!(again
        .recover(&client, b"271828", &artifact, &mut rng)
        .is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A fleet that punctured nothing since its last checkpoint has nothing
/// to fold: the second of two back-to-back persists rewrites no block
/// segment (same inode, same bytes), and the snapshot still restores.
#[test]
fn repersist_without_punctures_leaves_segments_untouched() {
    use std::os::unix::fs::MetadataExt;

    let (mut d, client, artifact, mut rng) = provision_and_backup(SEED ^ 6);
    let dir = tmpdir("repersist");
    let mut seal_rng = StdRng::seed_from_u64(0x5EA7);
    d.persist(&dir, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    drop(d);
    let (mut restored, _) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
    let outcome = restored
        .recover(&client, b"493201", &artifact, &mut rng)
        .unwrap();
    assert_eq!(outcome.message, b"the disk encryption key");

    let segments = || -> Vec<(u64, Vec<u8>)> {
        (0..8)
            .map(|id| {
                let path = dir.join(format!("blocks/hsm-{id}/segment.bin"));
                let inode = std::fs::metadata(&path).unwrap().ino();
                (inode, std::fs::read(&path).unwrap())
            })
            .collect()
    };
    // The first persist folds the recovery's punctures into the segments.
    restored
        .persist(&dir, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    let folded = segments();
    restored
        .persist(&dir, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    assert_eq!(segments(), folded, "an empty WAL leaves the segment alone");
    drop(restored);

    let (mut again, _) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
    assert!(
        again
            .recover(&client, b"493201", &artifact, &mut rng)
            .is_err(),
        "the punctures survive both persists"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The engine's durability boundary: a multi-user wave's punctures are
/// group-committed **before** any share leaves a device. Kill the
/// process between the batch commit and the responses being delivered,
/// restore from disk, and the recovered-from-crash fleet must refuse to
/// serve those users' ciphertexts ever again — the share that was "in
/// flight" at the crash is gone for good, exactly the fail-closed
/// ordering Figure 4's revocation demands.
#[test]
fn engine_wave_punctures_survive_a_kill_before_response_delivery() {
    use safetypin::{RecoverManyOptions, RecoverySession};

    let mut rng = StdRng::seed_from_u64(SEED ^ 5);
    let params = SystemParams::test_small(8);
    let mut d = Deployment::provision(params, &mut rng).unwrap();
    let mut clients = Vec::new();
    for u in 0..2 {
        let name = format!("wave-user-{u}");
        let mut client = d.new_client(name.as_bytes()).unwrap();
        let artifact = client
            .backup(b"161803", b"wave payload", 0, &mut rng)
            .unwrap();
        clients.push((client, artifact));
    }
    let dir = tmpdir("engine-crash");
    let mut seal_rng = StdRng::seed_from_u64(0x5EA6);
    d.persist(&dir, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    drop(d);

    // Restored fleet runs LIVE on crash-safe FileStores. Stage a
    // two-user engine wave by hand up to the grouped HSM round.
    let (mut restored, _) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
    let mut rounds = Vec::new();
    for (client, artifact) in &clients {
        let attempt = client
            .start_recovery(b"161803", &artifact.ciphertext, false, &mut rng)
            .unwrap();
        let (id, value) = attempt.log_entry();
        restored.datacenter.insert_log(&id, &value).unwrap();
        rounds.push((attempt, id, value));
    }
    restored.datacenter.run_epoch().unwrap();
    let mut requests = Vec::new();
    for (attempt, id, value) in &rounds {
        let inclusion = restored.datacenter.prove_inclusion(id, value).unwrap();
        requests.push(attempt.requests(&inclusion));
    }
    let contacted_hsms: std::collections::BTreeSet<u64> = requests
        .iter()
        .flat_map(|round| round.iter().map(|(id, _)| *id))
        .collect();

    // The grouped round: every contacted device serves its coalesced
    // group and commits ONCE — the batch commit — before returning.
    let flushes_before = restored.datacenter.fleet_store_stats().flushes;
    let served = restored
        .datacenter
        .route_recovery(requests, &mut rng)
        .unwrap();
    let flushes_after = restored.datacenter.fleet_store_stats().flushes;
    assert_eq!(
        flushes_after - flushes_before,
        contacted_hsms.len() as u64,
        "one group commit per contacted device, not one per request"
    );
    // The shares exist in memory — they are exactly what the crash is
    // about to destroy before delivery.
    assert!(served
        .iter()
        .flatten()
        .all(|(_, reply)| matches!(reply, HsmResponse::RecoveryShare { .. })));

    // CRASH: the process dies after the batch commit, before any
    // response reaches a client. Nothing is persisted.
    drop(served);
    drop(restored);

    // Restart from disk. The devices' sealed trusted state predates the
    // wave, but the punctures' re-keyed blocks were WAL-committed by
    // the group commit: no combination of on-disk state can produce
    // those shares again. The users' recoveries must fail.
    let (mut after_crash, _) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
    let sessions: Vec<RecoverySession<'_>> = clients
        .iter()
        .map(|(client, artifact)| RecoverySession {
            client,
            pin: b"161803",
            artifact,
        })
        .collect();
    let outcomes = after_crash.recover_many(&sessions, RecoverManyOptions::default(), &mut rng);
    for (u, outcome) in outcomes.iter().enumerate() {
        assert!(
            outcome.is_err(),
            "user {u}: a share served before the crash must be unrecoverable after it"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sealed-state integrity: tampering with a sealed HSM file, removing
/// the keyring, or presenting a wrong-version snapshot all fail typed.
#[test]
fn snapshot_tampering_and_version_mismatch_rejected() {
    let (mut d, _client, _artifact, _rng) = provision_and_backup(SEED ^ 4);
    let dir = tmpdir("tamper");
    let mut seal_rng = StdRng::seed_from_u64(0x5EA5);
    d.persist(&dir, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    drop(d);

    // 1. Bit-flip inside a sealed HSM state file → SealBroken.
    let sealed_path = dir.join("hsm-0.sealed");
    let mut sealed = std::fs::read(&sealed_path).unwrap();
    let mid = sealed.len() / 2;
    sealed[mid] ^= 0x01;
    std::fs::write(&sealed_path, &sealed).unwrap();
    assert!(matches!(
        Deployment::restore_from(&dir, FileOptions::relaxed()),
        Err(StoreError::SealBroken)
    ));
    sealed[mid] ^= 0x01;
    std::fs::write(&sealed_path, &sealed).unwrap();

    // 2. Wrong protocol version in the metadata envelope → typed
    //    VersionMismatch before any sealed state is opened.
    let meta_path = dir.join("snapshot.meta");
    let meta_bytes = std::fs::read(&meta_path).unwrap();
    let mut wrong = meta_bytes.clone();
    wrong[0] = 0xFF;
    wrong[1] = 0xFE;
    std::fs::write(&meta_path, &wrong).unwrap();
    match Deployment::restore_from(&dir, FileOptions::relaxed()) {
        Err(StoreError::VersionMismatch { found, expected }) => {
            assert_eq!(found, 0xFFFE);
            assert_eq!(expected, proto::PROTO_VERSION);
        }
        Err(other) => panic!("expected VersionMismatch, got {other:?}"),
        Ok(_) => panic!("wrong-version snapshot restored"),
    }
    std::fs::write(&meta_path, &meta_bytes).unwrap();

    // 3. Missing keyring (the "on-chip flash" is gone) → every sealed
    //    snapshot is unreadable.
    std::fs::remove_file(dir.join("devices.keys")).unwrap();
    assert!(matches!(
        Deployment::restore_from(&dir, FileOptions::relaxed()),
        Err(StoreError::MissingComponent("keyring"))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite acceptance for the save-path engine: a save wave is one
/// WAL group commit, so killing the provider anywhere between the
/// wave's flush and its response — simulated by truncating the
/// provider-log WAL at *every* byte — must replay to exactly one of
/// the two commit boundaries. The pre-wave log or the full wave;
/// never a torn wave.
#[test]
fn save_wave_crash_points_replay_to_a_commit_boundary() {
    let dir = tmpdir("save-wave-crash");
    let mut rng = StdRng::seed_from_u64(SEED + 9);
    let params = SystemParams::test_small(4);
    let mut deployment = Deployment::provision(params, &mut rng).unwrap();
    deployment
        .persist(&dir, FileOptions::relaxed(), &mut rng)
        .unwrap();
    drop(deployment);

    // Restoring attaches the provider-log WAL, which starts empty: the
    // bytes the wave appends below are the whole crash surface.
    let (mut deployment, _) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
    let digest_pre = deployment.datacenter.log_digest();
    let entries_pre = deployment.datacenter.log_entries().len();

    let saves: Vec<proto::SaveRequest> = (0..4)
        .map(|i| proto::SaveRequest {
            username: format!("crash-user-{i}").into_bytes(),
            blob: format!("crash-blob-{i}").into_bytes(),
        })
        .collect();
    let outcomes = deployment.datacenter.save_many(&saves);
    assert!(outcomes.iter().all(|o| o.saved()));
    let digest_full = deployment.datacenter.log_digest();
    let entries_full = deployment.datacenter.log_entries().len();
    assert_ne!(digest_pre, digest_full);
    drop(deployment);

    let wal_path = dir.join("blocks").join("provider-log").join("wal.bin");
    let wal_bytes = std::fs::read(&wal_path).unwrap();
    assert!(!wal_bytes.is_empty(), "the wave must have hit the WAL");

    for cut in 0..=wal_bytes.len() {
        // The crash: only a prefix of the wave's WAL reached disk.
        // (Replay may discard a torn tail, so rewrite from the pristine
        // bytes before every cut.)
        std::fs::write(&wal_path, &wal_bytes[..cut]).unwrap();
        let (restored, _) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
        let digest = restored.datacenter.log_digest();
        let entries = restored.datacenter.log_entries().len();
        if cut == wal_bytes.len() {
            assert_eq!(digest, digest_full, "complete WAL must replay the wave");
            assert_eq!(entries, entries_full);
        } else {
            assert_eq!(
                digest,
                digest_pre,
                "cut at byte {cut}/{} surfaced a torn wave",
                wal_bytes.len()
            );
            assert_eq!(entries, entries_pre);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
