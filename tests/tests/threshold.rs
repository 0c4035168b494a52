//! Threshold fault tolerance of the one recovery flow (§4): a cluster
//! HSM that answers `DECRYPT_FAILED` costs the user that share, not the
//! recovery — t-of-n survive — from every entry point (solo, in a
//! wave, over TCP), while the attempt limit stays exact: a wrong PIN
//! fails typed and burns exactly one attempt, and a second attempt is
//! refused by the log.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::proto::{codes, HsmResponse, Tcp, TcpConfig};
use safetypin::seckv::BlockStore;
use safetypin::{
    Deployment, DeploymentBuilder, DeploymentError, RecoverManyOptions, RecoverySession,
    SystemParams,
};
use safetypin_client::remote::{self, RemoteError};
use safetypin_client::{BackupArtifact, Client};
use safetypin_daemon::{Daemon, DaemonConfig};
use safetypin_store::{Durability, FileOptions};

const FLEET: u64 = 16;
const PIN: &[u8] = b"271828";
const WRONG_PIN: &[u8] = b"314159";

fn secret(name: &[u8]) -> Vec<u8> {
    [b"disk key of ", name].concat()
}

/// Punctures every Bloom slot of `client`'s tag on ONE of its cluster
/// HSMs, the way it happens in the field (§8): a recovery dies after
/// exactly one HSM has served — and punctured — and the log is later
/// garbage-collected, so the user may try again. Returns that HSM.
fn lose_one_share<S: BlockStore + Send>(
    d: &mut Deployment<S>,
    client: &Client,
    artifact: &BackupArtifact,
    rng: &mut StdRng,
) -> u64 {
    let attempt = client
        .start_recovery(PIN, &artifact.ciphertext, false, rng)
        .unwrap();
    let (id, value) = attempt.log_entry();
    d.datacenter.insert_log(&id, &value).unwrap();
    d.datacenter.run_epoch().unwrap();
    let proof = d.datacenter.prove_inclusion(&id, &value).unwrap();
    let (hsm, request) = attempt
        .requests(&proof)
        .into_iter()
        .min_by_key(|(_, request)| request.share_indices.len())
        .unwrap();
    let positions = request.share_indices.len();
    assert!(
        attempt.cluster().len() - positions >= d.params.lhe.threshold,
        "the seed must leave a threshold of shares on the other HSMs"
    );
    let replies = d
        .datacenter
        .route_recovery(vec![vec![(hsm, request)]], rng)
        .unwrap();
    assert!(matches!(
        replies.as_slice(),
        [user] if matches!(user.as_slice(), [(_, HsmResponse::RecoveryShare { .. })])
    ));
    d.datacenter.garbage_collect().unwrap();
    hsm
}

/// Saves `name` under [`PIN`] (the backup is stored with the provider).
fn saved<S: BlockStore + Send>(
    d: &mut Deployment<S>,
    name: &[u8],
    rng: &mut StdRng,
) -> (Client, BackupArtifact) {
    let artifact = d.save(name, PIN, &secret(name), rng).unwrap();
    (d.new_client(name).unwrap(), artifact)
}

#[test]
fn solo_recovery_survives_a_lost_share_and_attempts_stay_exact() {
    let mut rng = StdRng::seed_from_u64(0x7401);
    let mut d = Deployment::provision(SystemParams::test_small(FLEET), &mut rng).unwrap();
    let (alice, alice_backup) = saved(&mut d, b"alice", &mut rng);
    let (bob, bob_backup) = saved(&mut d, b"bob", &mut rng);
    lose_one_share(&mut d, &alice, &alice_backup, &mut rng);

    let outcome = d.recover(&alice, PIN, &alice_backup, &mut rng).unwrap();
    assert_eq!(outcome.message, secret(b"alice"));
    assert_eq!(outcome.responders, outcome.contacted - 1);

    // A wrong PIN: typed failure, exactly one attempt burned.
    let before = d.datacenter.log_entries().len();
    let err = d
        .recover(&bob, WRONG_PIN, &bob_backup, &mut rng)
        .unwrap_err();
    assert!(
        matches!(
            err,
            DeploymentError::Provider(_) | DeploymentError::Client(_)
        ),
        "got {err:?}"
    );
    assert_eq!(d.datacenter.log_entries().len(), before + 1);
    // The right PIN afterwards: refused by the log, nothing more burned.
    let err = d.recover(&bob, PIN, &bob_backup, &mut rng).unwrap_err();
    assert!(
        matches!(err, DeploymentError::AttemptRefused),
        "got {err:?}"
    );
    assert_eq!(d.datacenter.log_entries().len(), before + 1);
}

#[test]
fn wave_recovery_survives_a_lost_share() {
    let mut rng = StdRng::seed_from_u64(0x7402);
    let mut d = Deployment::provision(SystemParams::test_small(FLEET), &mut rng).unwrap();
    let names: [&[u8]; 4] = [b"w-0", b"w-1", b"w-2", b"w-3"];
    let users: Vec<(Client, BackupArtifact)> = names
        .iter()
        .map(|name| saved(&mut d, name, &mut rng))
        .collect();
    lose_one_share(&mut d, &users[2].0, &users[2].1, &mut rng);

    let sessions: Vec<RecoverySession<'_>> = users
        .iter()
        .map(|(client, artifact)| RecoverySession {
            client,
            pin: PIN,
            artifact,
        })
        .collect();
    let outcomes = d.recover_many(&sessions, RecoverManyOptions::default(), &mut rng);
    for (name, outcome) in names.iter().zip(outcomes) {
        assert_eq!(outcome.unwrap().message, secret(name));
    }
}

#[test]
fn tcp_recovery_survives_a_lost_share_and_attempts_stay_exact() {
    let dir = std::env::temp_dir().join(format!("safetypin-threshold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let params = SystemParams::test_small(FLEET);
    let mut rng = StdRng::seed_from_u64(0x7403);

    // Stage the fleet on disk: two saved users, one lost share.
    let (mut d, _) = DeploymentBuilder::new(params)
        .store_dir(&dir)
        .durability(Durability::Relaxed)
        .open(&mut rng)
        .unwrap();
    let (alice, alice_backup) = saved(&mut d, b"alice", &mut rng);
    let (bob, _) = saved(&mut d, b"bob", &mut rng);
    lose_one_share(&mut d, &alice, &alice_backup, &mut rng);
    d.persist(&dir, FileOptions::relaxed(), &mut rng).unwrap();
    drop(d);

    // Serve it.
    let handle = Daemon::bind(
        DaemonConfig::new(&dir, params)
            .durability(Durability::Relaxed)
            .seed(0x7403),
    )
    .unwrap();
    let mut tcp = Tcp::connect(TcpConfig::new(handle.addr().to_string())).unwrap();

    let stored = remote::fetch_backup(&mut tcp, b"alice").unwrap();
    let message = remote::recover(&mut tcp, &alice, PIN, &stored, &mut rng).unwrap();
    assert_eq!(message, secret(b"alice"));

    let log_entries = |tcp: &mut Tcp| remote::fetch_status(tcp).unwrap().log_entries;
    let before = log_entries(&mut tcp);
    let stored = remote::fetch_backup(&mut tcp, b"bob").unwrap();
    let err = remote::recover(&mut tcp, &bob, WRONG_PIN, &stored, &mut rng).unwrap_err();
    assert!(
        matches!(err, RemoteError::Refused(_) | RemoteError::Client(_)),
        "got {err:?}"
    );
    assert_eq!(log_entries(&mut tcp), before + 1);
    match remote::recover(&mut tcp, &bob, PIN, &stored, &mut rng) {
        Err(RemoteError::Refused(e)) => assert_eq!(e.code, codes::LOG_REFUSED),
        other => panic!("expected LOG_REFUSED, got {other:?}"),
    }
    assert_eq!(log_entries(&mut tcp), before + 1);

    drop(tcp);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
