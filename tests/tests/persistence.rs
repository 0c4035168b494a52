//! Persistence acceptance tests: a deployment persisted to disk,
//! dropped, and restored behaves **byte-identically** to one that never
//! restarted — including completing a PIN recovery whose attempt was
//! already in flight when the process died, and down to the order of the
//! log entries auditors replay and the layout of the next epoch the HSMs
//! sign.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::authlog::log::LogEntry;
use safetypin::primitives::wire::Encode;
use safetypin::proto::{self, HsmResponse};
use safetypin::provider::save_record;
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

/// A restored fleet is the same fleet: after one multi-user save wave
/// the live fleet and its persisted → dropped → restored twin hold the
/// same entry list — in request order, which is the order the journal
/// replays — and certify the same next epoch.
#[test]
fn restored_fleet_keeps_entry_order_and_cuts_the_same_epoch() {
    let saves: Vec<proto::SaveRequest> = (0..12)
        .map(|i| proto::SaveRequest {
            username: format!("wave-user-{i}").into_bytes(),
            blob: format!("wave-blob-{i}").into_bytes(),
        })
        .collect();
    let fleet_after_the_wave = || {
        let mut rng = StdRng::seed_from_u64(SEED ^ 20);
        let mut d = Deployment::provision(SystemParams::test_small(8), &mut rng).unwrap();
        assert!(d.datacenter.save_many(&saves).iter().all(|o| o.saved()));
        d
    };
    let mut live = fleet_after_the_wave();
    let mut twin = fleet_after_the_wave();
    let dir = tmpdir("restart-equivalence");
    let mut seal_rng = StdRng::seed_from_u64(0x5EA4);
    twin.persist(&dir, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    drop(twin);
    let (mut restored, _) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();

    let request_order: Vec<LogEntry> = saves
        .iter()
        .map(|s| {
            let (id, value) = save_record(&s.username, &s.blob);
            LogEntry { id, value }
        })
        .collect();
    assert_eq!(live.datacenter.log_entries(), request_order);
    assert_eq!(restored.datacenter.log_entries(), request_order);

    let live_epoch = live.datacenter.run_epoch().unwrap().message;
    let restored_epoch = restored.datacenter.run_epoch().unwrap().message;
    assert_eq!(restored_epoch, live_epoch);
    // Twelve pending entries on a fleet of eight: the cap binds.
    assert_eq!(live_epoch.chunk_count, 8);
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
            HsmResponse::RecoveryShare { response } => responses.push(response),
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
    // Two users ride the wave; a third only shares the devices.
    for u in 0..3 {
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
    let (bystander, bystander_artifact) = clients.pop().unwrap();
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

    // Restart from disk. The punctures' re-keyed blocks and the root
    // key that opens them were WAL-committed together by the group
    // commit: no combination of on-disk state can produce those shares
    // again, and every device still reads its array. The users'
    // recoveries must fail.
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
    // The devices are not bricked: a user who was not part of the wave
    // recovers from the same fleet, every contacted device answering.
    let outcome = after_crash
        .recover(&bystander, b"161803", &bystander_artifact, &mut rng)
        .expect("an uninvolved user recovers after the kill");
    assert_eq!(outcome.message, b"wave payload");
    assert_eq!(outcome.responders, outcome.contacted);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sealed-state integrity: tampering with a device's sealed state block,
/// corrupting a segment, removing the keyring, or presenting a
/// wrong-version directory all fail typed.
#[test]
fn snapshot_tampering_and_version_mismatch_rejected() {
    use safetypin::seckv::BlockStore;
    use safetypin_store::FileStore;

    let (mut d, _client, _artifact, _rng) = provision_and_backup(SEED ^ 4);
    let dir = tmpdir("tamper");
    let mut seal_rng = StdRng::seed_from_u64(0x5EA5);
    d.persist(&dir, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    drop(d);
    let restore = || Deployment::restore_from(&dir, FileOptions::relaxed()).map(|_| ());

    // 1. A device's sealed state block overwritten through its own
    //    store (a well-formed, committed write — only the seal can
    //    catch it) → SealBroken.
    let hsm_dir = dir.join("blocks").join("hsm-0");
    let state_addr = safetypin::hsm::state::DYNAMIC_ADDR;
    let rewrite_state = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut store = FileStore::open(&hsm_dir, FileOptions::relaxed()).unwrap();
        let mut block = store
            .get(state_addr)
            .expect("the device keeps its state here");
        edit(&mut block);
        store.put(state_addr, &block);
        store.flush();
    };
    rewrite_state(&|block| {
        let mid = block.len() / 2;
        block[mid] ^= 0x01;
    });
    assert!(matches!(restore(), Err(StoreError::SealBroken)));
    rewrite_state(&|block| {
        let mid = block.len() / 2;
        block[mid] ^= 0x01;
    });
    restore().expect("the repaired block restores");

    // 2. A flipped byte in a checkpointed segment → CorruptSegment
    //    before any block is served.
    let segment_path = dir.join("blocks").join("hsm-1").join("segment.bin");
    let mut segment = std::fs::read(&segment_path).unwrap();
    let mid = segment.len() / 2;
    segment[mid] ^= 0xFF;
    std::fs::write(&segment_path, &segment).unwrap();
    assert!(matches!(restore(), Err(StoreError::CorruptSegment { .. })));
    segment[mid] ^= 0xFF;
    std::fs::write(&segment_path, &segment).unwrap();

    // 3. Wrong protocol version in the metadata envelope → typed
    //    VersionMismatch before any sealed state is opened.
    let meta_path = dir.join("snapshot.meta");
    let meta_bytes = std::fs::read(&meta_path).unwrap();
    let mut wrong = meta_bytes.clone();
    wrong[0] = 0xFF;
    wrong[1] = 0xFE;
    std::fs::write(&meta_path, &wrong).unwrap();
    match restore() {
        Err(StoreError::VersionMismatch { found, expected }) => {
            assert_eq!(found, 0xFFFE);
            assert_eq!(expected, proto::PROTO_VERSION);
        }
        Err(other) => panic!("expected VersionMismatch, got {other:?}"),
        Ok(_) => panic!("wrong-version directory restored"),
    }
    std::fs::write(&meta_path, &meta_bytes).unwrap();

    // 4. Missing keyring (the "on-chip flash" is gone) → every sealed
    //    block is unreadable.
    std::fs::remove_file(dir.join("devices.keys")).unwrap();
    assert!(matches!(
        restore(),
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

// ---------------------------------------------------------------------
// The whole-fleet kill sweep: a store directory is restorable after
// every group commit, not only after a `persist`.
// ---------------------------------------------------------------------

mod kill_sweep {
    use super::*;
    use safetypin::{RecoverManyOptions, RecoverySession, SaveSession};
    use safetypin_client::{BackupArtifact, Client};
    use safetypin_store::FileStore;

    const PIN: &[u8] = b"271828";

    struct User {
        name: Vec<u8>,
        client: Client,
        artifact: BackupArtifact,
    }

    fn secret(name: &[u8]) -> Vec<u8> {
        [b"secret of ", name].concat()
    }

    /// Everything a kill must leave exactly as it was.
    #[derive(Debug, PartialEq)]
    struct Observed {
        punctures: Vec<u64>,
        key_epochs: Vec<u64>,
        gc_counts: Vec<u64>,
        enrollments: Vec<Vec<u8>>,
        log_digest: [u8; 32],
        certified_digest: [u8; 32],
        /// The auditors' replay list, in order.
        log_entries: Vec<LogEntry>,
        epochs: usize,
        archived_logs: usize,
        backups: u64,
        reply_copies: Vec<Vec<Vec<u8>>>,
    }

    struct Sweep {
        dir: PathBuf,
        fleet: Deployment<FileStore>,
        /// Saved and never recovered: must stay recoverable.
        bystanders: Vec<User>,
        /// Recovered once: must stay refused.
        recovered: Vec<User>,
        rng: StdRng,
    }

    impl Sweep {
        /// A `FileStore` fleet restored from disk with 14 saved users,
        /// two of whom have already recovered (so every case audits
        /// refusals and reply copies, whatever its own step does).
        fn new(tag: &str) -> Self {
            let mut rng = StdRng::seed_from_u64(SEED ^ 0x5EE9);
            let mut params = SystemParams::test_small(8);
            // Tolerate two fail-stops, and keep Bloom false positives
            // out of the `responders == contacted` audit.
            params.f_live_inv = 4;
            params.bfe = safetypin::bfe::BfeParams::new(1024, 3).unwrap();
            let mut d = Deployment::provision(params, &mut rng).unwrap();
            let mut users = Vec::new();
            for u in 0..14 {
                let name = format!("sweep-user-{u}").into_bytes();
                let artifact = d.save(&name, PIN, &secret(&name), &mut rng).unwrap();
                let client = d.new_client(&name).unwrap();
                users.push(User {
                    name,
                    client,
                    artifact,
                });
            }
            let dir = tmpdir(tag);
            d.persist(&dir, FileOptions::relaxed(), &mut rng).unwrap();
            drop(d);
            let (fleet, _) = Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap();
            let bystanders = users.split_off(2);
            let mut sweep = Self {
                dir,
                fleet,
                bystanders,
                recovered: Vec::new(),
                rng,
            };
            sweep.recover_wave(users);
            sweep
        }

        /// One `recover_many` wave; the users join the recovered set.
        fn recover_wave(&mut self, users: Vec<User>) {
            let sessions: Vec<RecoverySession<'_>> = users
                .iter()
                .map(|u| RecoverySession {
                    client: &u.client,
                    pin: PIN,
                    artifact: &u.artifact,
                })
                .collect();
            let outcomes =
                self.fleet
                    .recover_many(&sessions, RecoverManyOptions::default(), &mut self.rng);
            for (user, outcome) in users.iter().zip(outcomes) {
                assert_eq!(outcome.unwrap().message, secret(&user.name));
            }
            self.recovered.extend(users);
        }

        fn observe(&self) -> Observed {
            let dc = &self.fleet.datacenter;
            let hsms: Vec<_> = (0..8).map(|id| dc.hsm(id).unwrap()).collect();
            Observed {
                punctures: hsms.iter().map(|h| h.punctures()).collect(),
                key_epochs: hsms.iter().map(|h| h.key_epoch()).collect(),
                gc_counts: hsms.iter().map(|h| h.gc_count()).collect(),
                enrollments: dc.enrollments().iter().map(|e| e.to_bytes()).collect(),
                log_digest: dc.log_digest(),
                certified_digest: dc.certified_digest(),
                log_entries: dc.log_entries().to_vec(),
                epochs: dc.update_history().len(),
                archived_logs: dc.archived_logs().len(),
                backups: dc.status_report().backups,
                reply_copies: self
                    .recovered
                    .iter()
                    .map(|u| {
                        let copies = dc.reply_copies_for(&u.name);
                        assert!(!copies.is_empty(), "reply copies are still served");
                        copies.into_iter().map(|r| r.to_bytes()).collect()
                    })
                    .collect(),
            }
        }

        /// The kill: the fleet is dropped **without `persist`** and
        /// restored from whatever its commits left on disk.
        fn kill_and_restore(&mut self) {
            let (restored, meta) =
                Deployment::restore_from(&self.dir, FileOptions::relaxed()).unwrap();
            // Assigning drops the old fleet only now — but it has no
            // unflushed state to lose, which is the point.
            self.fleet = restored;
            let dc = &self.fleet.datacenter;
            assert_eq!(meta.epoch_count as usize, dc.update_history().len());
            for id in 0..8 {
                assert_eq!(
                    dc.hsm(id).unwrap().log_digest(),
                    dc.certified_digest(),
                    "HSM {id} holds the provider's last certified digest"
                );
            }
        }

        /// Kills twice, then audits: nothing observable moved, the
        /// recovered users stay refused — by the log while it remembers
        /// them, by the punctures once `log_forgot` them — and every
        /// bystander recovers byte-identical from a full cluster
        /// (`full_clusters`: a rotation legitimately costs earlier
        /// backups the rotated device's share).
        fn audit(mut self, log_forgot: bool, full_clusters: bool) {
            let before = self.observe();
            self.kill_and_restore();
            assert_eq!(self.observe(), before, "the kill changed durable state");
            self.kill_and_restore();
            assert_eq!(
                self.observe(),
                before,
                "a second kill changed durable state"
            );

            for user in &self.recovered {
                let again = self
                    .fleet
                    .recover(&user.client, PIN, &user.artifact, &mut self.rng);
                use safetypin::hsm::HsmError::DecryptFailed;
                use safetypin::provider::ProviderError::Hsm;
                use safetypin::DeploymentError::{AttemptRefused, Provider};
                match again {
                    Err(AttemptRefused) if !log_forgot => {}
                    Err(Provider(Hsm(DecryptFailed))) if log_forgot => {}
                    other => panic!(
                        "{}: expected a refusal, got {other:?}",
                        String::from_utf8_lossy(&user.name)
                    ),
                }
            }
            for user in &self.bystanders {
                let outcome = self
                    .fleet
                    .recover(&user.client, PIN, &user.artifact, &mut self.rng)
                    .expect("a bystander recovers after the kill");
                assert_eq!(outcome.message, secret(&user.name));
                if full_clusters {
                    assert_eq!(outcome.responders, outcome.contacted);
                }
            }
            std::fs::remove_dir_all(&self.dir).unwrap();
        }
    }

    #[test]
    fn after_a_save_wave() {
        let mut sweep = Sweep::new("sweep-save");
        let names: Vec<Vec<u8>> = (0..4)
            .map(|u| format!("late-user-{u}").into_bytes())
            .collect();
        let secrets: Vec<Vec<u8>> = names.iter().map(|n| secret(n)).collect();
        let mut clients: Vec<Client> = names
            .iter()
            .map(|n| sweep.fleet.new_client(n).unwrap())
            .collect();
        let mut sessions: Vec<SaveSession<'_>> = clients
            .iter_mut()
            .zip(&secrets)
            .map(|(client, secret)| SaveSession {
                client,
                pin: PIN,
                secret,
                epoch: 0,
            })
            .collect();
        let artifacts: Vec<BackupArtifact> = sweep
            .fleet
            .save_many(&mut sessions, &mut sweep.rng)
            .into_iter()
            .map(|saved| saved.unwrap())
            .collect();
        for ((name, client), artifact) in names.into_iter().zip(clients).zip(artifacts) {
            sweep.bystanders.push(User {
                name,
                client,
                artifact,
            });
        }
        sweep.audit(false, true);
    }

    #[test]
    fn after_an_insert_log() {
        let mut sweep = Sweep::new("sweep-insert");
        sweep
            .fleet
            .datacenter
            .insert_log(b"raw-attempt", b"commitment")
            .unwrap();
        sweep.kill_and_restore();
        // The uncertified entry is pending again, and still consumed.
        assert!(sweep
            .fleet
            .datacenter
            .insert_log(b"raw-attempt", b"another")
            .is_err());
        assert_ne!(
            sweep.fleet.datacenter.log_digest(),
            sweep.fleet.datacenter.certified_digest()
        );
        sweep.audit(false, true);
    }

    #[test]
    fn after_run_epoch() {
        let mut sweep = Sweep::new("sweep-epoch");
        let dc = &mut sweep.fleet.datacenter;
        dc.insert_log(b"raw-attempt", b"commitment").unwrap();
        // One device sits the epoch out and is brought back *without*
        // a resync: it is a certificate behind when the fleet dies.
        dc.hsm_mut(5).unwrap().fail();
        assert_eq!(dc.run_epoch().unwrap().signers.len(), 7);
        dc.hsm_mut(5).unwrap().restore();
        assert_ne!(dc.hsm(5).unwrap().log_digest(), dc.certified_digest());
        // kill_and_restore asserts every device — 5 included — comes
        // back on the certified digest.
        sweep.kill_and_restore();
        assert_eq!(sweep.fleet.datacenter.run_epoch().unwrap().signers.len(), 8);
        sweep.audit(false, true);
    }

    #[test]
    fn after_a_recovery_wave() {
        let mut sweep = Sweep::new("sweep-recover");
        let wave: Vec<User> = sweep.bystanders.drain(..3).collect();
        sweep.recover_wave(wave);
        assert_eq!(sweep.recovered.len(), 5);
        sweep.audit(false, true);
    }

    #[test]
    fn after_rotate_hsm() {
        let mut sweep = Sweep::new("sweep-rotate");
        sweep
            .fleet
            .datacenter
            .rotate_hsm(3, &mut sweep.rng)
            .unwrap();
        sweep.kill_and_restore();
        assert_eq!(sweep.fleet.datacenter.hsm(3).unwrap().key_epoch(), 1);
        // The restored fleet publishes the rotated key and opens what is
        // encrypted to it: a user saved now recovers from a full cluster.
        let name = b"post-rotation-user".to_vec();
        let artifact = sweep
            .fleet
            .save(&name, PIN, &secret(&name), &mut sweep.rng)
            .unwrap();
        let client = sweep.fleet.new_client(&name).unwrap();
        let outcome = sweep
            .fleet
            .recover(&client, PIN, &artifact, &mut sweep.rng)
            .unwrap();
        assert_eq!(outcome.message, secret(&name));
        assert_eq!(outcome.responders, outcome.contacted);
        sweep.recovered.push(User {
            name,
            client,
            artifact,
        });
        sweep.audit(false, false);
    }

    #[test]
    fn after_garbage_collect() {
        let mut sweep = Sweep::new("sweep-gc");
        sweep.fleet.datacenter.garbage_collect().unwrap();
        sweep.kill_and_restore();
        let dc = &sweep.fleet.datacenter;
        assert_eq!(dc.log_entries().len(), 0);
        assert_eq!(dc.archived_logs().len(), 1);
        assert_eq!(dc.hsm(0).unwrap().gc_count(), 1);
        // The log forgot the recovered users; the punctures did not.
        sweep.audit(true, true);
    }
}
