//! Phase-span parity: whichever entry point a recovery or a save comes
//! in through, it lands in the same Figure-10 histograms with the same
//! counts — per user for the log insert and the inclusion proof, per
//! wave for the epoch and the cluster round — every wave, a solo one
//! included, passes the HSMs' MSM slot audit, and the client sends it
//! as one request.
//!
//! One test, alone in its binary: it reads exact deltas off the
//! process-wide registry.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::proto::{
    ProtoError, ProviderRequest, ProviderResponse, SaveRequest, Tcp, TcpConfig,
};
use safetypin::{Deployment, RecoverManyOptions, RecoverySession, SaveSession, SystemParams};
use safetypin_client::remote;
use safetypin_client::{BackupArtifact, Client};
use safetypin_daemon::{Daemon, DaemonConfig};
use safetypin_store::Durability;

const PIN: &[u8] = b"602214";

fn count(name: &str) -> u64 {
    safetypin_telemetry::global().histogram(name).count()
}

/// Runs `op` and asserts the recovery histograms moved by exactly one
/// wave of `users`.
fn assert_recovery_wave<T>(entry: &str, users: u64, op: impl FnOnce() -> T) -> T {
    const SPANS: [&str; 5] = [
        "recover.log_insert",
        "recover.inclusion",
        "recover.epoch",
        "recover.cluster_round",
        "hsm.msm_audit",
    ];
    let before = SPANS.map(count);
    let out = op();
    let moved: Vec<u64> = SPANS
        .iter()
        .zip(before)
        .map(|(name, before)| count(name) - before)
        .collect();
    assert_eq!(moved[..4], [users, users, 1, 1], "{entry}: {SPANS:?}");
    assert!(moved[4] >= 1, "{entry}: no MSM slot audit ran");
    out
}

/// Runs `op` and asserts exactly one `save.commit` was recorded.
fn assert_save_wave<T>(entry: &str, op: impl FnOnce() -> T) -> T {
    let before = count("save.commit");
    let out = op();
    assert_eq!(count("save.commit") - before, 1, "{entry}: save.commit");
    out
}

fn sessions<'a>(users: &'a [(Client, BackupArtifact)]) -> Vec<RecoverySession<'a>> {
    users
        .iter()
        .map(|(client, artifact)| RecoverySession {
            client,
            pin: PIN,
            artifact,
        })
        .collect()
}

#[test]
fn every_entry_point_lands_in_the_same_phase_histograms() {
    let mut rng = StdRng::seed_from_u64(0x5BA2);
    let params = SystemParams::test_small(8);
    let mut d = Deployment::provision(params, &mut rng).unwrap();

    // Saves: solo, a wave, and the two wire frames.
    let solo = assert_save_wave("Deployment::save", || {
        d.save(b"span-0", PIN, b"s0", &mut rng).unwrap()
    });
    let blob = remote::encode_artifact(&solo);
    let mut users: Vec<(Client, BackupArtifact)> = vec![(d.new_client(b"span-0").unwrap(), solo)];
    let mut clients: Vec<Client> = (1..6)
        .map(|i| d.new_client(format!("span-{i}").as_bytes()).unwrap())
        .collect();
    let mut wave: Vec<SaveSession<'_>> = clients
        .iter_mut()
        .map(|client| SaveSession {
            client,
            pin: PIN,
            secret: b"s",
            epoch: 0,
        })
        .collect();
    let saved = assert_save_wave("Deployment::save_many", || d.save_many(&mut wave, &mut rng));
    drop(wave);
    for (client, artifact) in clients.into_iter().zip(saved) {
        users.push((client, artifact.unwrap()));
    }
    assert_save_wave("PutBackup", || {
        let request = ProviderRequest::PutBackup {
            username: b"span-put".to_vec(),
            blob: blob.clone(),
        };
        assert_eq!(d.handle(request, &mut rng), ProviderResponse::Ack);
    });
    assert_save_wave("SaveBatch", || {
        let request = ProviderRequest::SaveBatch(vec![SaveRequest {
            username: b"span-batch".to_vec(),
            blob: blob.clone(),
        }]);
        assert!(matches!(
            d.handle(request, &mut rng),
            ProviderResponse::SavedBatch(_)
        ));
    });

    // Recoveries in process: solo, a 4-user wave, the flow over a
    // closure endpoint.
    assert_recovery_wave("Deployment::recover", 1, || {
        d.recover(&users[0].0, PIN, &users[0].1, &mut rng).unwrap()
    });
    assert_recovery_wave("Deployment::recover_many", 4, || {
        for outcome in d.recover_many(
            &sessions(&users[1..5]),
            RecoverManyOptions::default(),
            &mut rng,
        ) {
            outcome.unwrap();
        }
    });
    let mut calls = 0;
    assert_recovery_wave("remote::recover", 1, || {
        let mut fleet_rng = StdRng::seed_from_u64(0x5BA3);
        let mut endpoint = |request: ProviderRequest| -> Result<ProviderResponse, ProtoError> {
            calls += 1;
            Ok(d.handle(request, &mut fleet_rng))
        };
        remote::recover(&mut endpoint, &users[5].0, PIN, &users[5].1, &mut rng).unwrap()
    });
    assert_eq!(calls, 1, "a recovery wave of one is one request");

    // And over TCP: a daemon serving the same parameters.
    let dir = std::env::temp_dir().join(format!("safetypin-phase-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = Daemon::bind(
        DaemonConfig::new(&dir, params)
            .durability(Durability::Relaxed)
            .seed(0x5BA4),
    )
    .unwrap();
    let mut tcp = Tcp::connect(TcpConfig::new(handle.addr().to_string())).unwrap();
    let mut remote_users = Vec::new();
    for i in 0..4 {
        let mut client = remote::connect(&mut tcp, format!("tcp-{i}").as_bytes()).unwrap();
        let artifact = assert_save_wave("remote::save over TCP", || {
            remote::save(&mut tcp, &mut client, PIN, b"t", &mut rng).unwrap()
        });
        remote_users.push((client, artifact));
    }
    let mut calls = 0;
    assert_recovery_wave("remote::recover_many over TCP", 4, || {
        let mut endpoint = |request: ProviderRequest| -> Result<ProviderResponse, ProtoError> {
            calls += 1;
            tcp.call(request)
        };
        for outcome in remote::recover_many(&mut endpoint, &sessions(&remote_users), &mut rng) {
            outcome.unwrap();
        }
    });
    assert_eq!(calls, 1, "a recovery wave of four is one request");
    drop(tcp);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
