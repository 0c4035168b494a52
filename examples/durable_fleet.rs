//! Durable fleet: provision → back up → persist to disk → power cut →
//! restore → recover → power cut again, with no persist in between →
//! restore.
//!
//! Demonstrates the `safetypin-store` persistence subsystem: the
//! datacenter's state lives in crash-safe WAL+segment stores — each
//! HSM's outsourced block tree with the device's own state sealed
//! beside it, the provider's journal in plaintext — and every commit
//! leaves the directory restorable. A restored fleet completes a PIN
//! recovery exactly as the original would have, keeps running *live*
//! on the files, and loses nothing when it dies unannounced.
//!
//! Run with: `cargo run --release --example durable_fleet`

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::{Deployment, SystemParams};
use safetypin_store::FileOptions;

fn main() {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let dir = std::env::temp_dir().join(format!("safetypin-durable-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Day 0: provision a fleet and take a backup.
    println!("provisioning a 16-HSM SafetyPin datacenter (in-memory)...");
    let params = SystemParams::test_small(16);
    let mut deployment = Deployment::provision(params, &mut rng).expect("provisioning succeeds");
    let mut phone = deployment.new_client(b"alice@example.com").unwrap();
    let disk_key = b"32-byte disk-encryption key!!!!!";
    let artifact = phone.backup(b"493201", disk_key, 0, &mut rng).unwrap();
    println!(
        "backup created: {} byte recovery ciphertext",
        artifact.ciphertext.len()
    );

    // The datacenter moves onto disk: checkpointed block stores (each
    // HSM's with its sealed state inside) + provider journal + device
    // keyring + versioned metadata.
    println!("persisting the deployment to {}...", dir.display());
    let meta = deployment
        .persist(&dir, FileOptions::default(), &mut rng)
        .expect("persist succeeds");
    println!(
        "fleet on disk: {} HSMs, protocol v{}, {} certified epochs",
        meta.fleet_size, meta.proto_version, meta.epoch_count
    );

    // Power cut. Every in-memory structure is gone.
    drop(deployment);
    println!("process state dropped (simulated power cut)");

    // Restart: restore the fleet from disk. The protocol version is
    // re-handshaked from the stored metadata before any sealed state
    // is opened, and the restored fleet runs live on the crash-safe
    // file stores.
    let (mut restored, meta) =
        Deployment::restore_from(&dir, FileOptions::default()).expect("restore succeeds");
    println!(
        "restored {} HSMs from disk (protocol v{} re-handshake ok)",
        meta.fleet_size, meta.proto_version
    );

    // The replacement phone recovers with the PIN alone — served
    // entirely by the restored fleet.
    let outcome = restored
        .recover(&phone, b"493201", &artifact, &mut rng)
        .expect("recovery against the restored fleet succeeds");
    assert_eq!(outcome.message, disk_key);
    println!(
        "recovered the disk key via {} of {} restored HSMs",
        outcome.responders, outcome.contacted
    );

    // Forward secrecy survived the restart too: the HSMs punctured
    // before replying, and those punctures are WAL-committed on disk.
    let punctures: u64 = (0..meta.fleet_size)
        .map(|i| restored.datacenter.hsm(i).unwrap().punctures())
        .sum();
    println!("punctures committed to crash-safe storage: {punctures}");
    assert!(restored
        .recover(&phone, b"493201", &artifact, &mut rng)
        .is_err());
    println!("second recovery attempt refused (log + punctured keys) — as designed");

    // A second user saves on the live fleet, and then the power goes
    // again — this time with no persist since the restore.
    let bob_key = b"bob's 32-byte disk key!!!!!!!!!!";
    let bob_artifact = restored
        .save(b"bob@example.com", b"271828", bob_key, &mut rng)
        .expect("save against the restored fleet succeeds");
    let bob = restored.new_client(b"bob@example.com").unwrap();
    drop(restored);
    println!("second power cut, nothing persisted since the restore");

    // Every commit left the directory restorable: the punctures and
    // the keys that survive them, the logged attempt, bob's backup.
    let (mut again, meta) =
        Deployment::restore_from(&dir, FileOptions::default()).expect("second restore succeeds");
    let punctures_again: u64 = (0..meta.fleet_size)
        .map(|i| again.datacenter.hsm(i).unwrap().punctures())
        .sum();
    assert_eq!(punctures_again, punctures);
    assert!(again
        .recover(&phone, b"493201", &artifact, &mut rng)
        .is_err());
    let outcome = again
        .recover(&bob, b"271828", &bob_artifact, &mut rng)
        .expect("the bystander recovers after the unannounced cut");
    assert_eq!(outcome.message, bob_key);
    assert_eq!(outcome.responders, outcome.contacted);
    println!(
        "restored again: {punctures_again} punctures and {} epochs intact, alice still refused, \
         bob recovered via {} of {} HSMs",
        meta.epoch_count, outcome.responders, outcome.contacted
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!("done.");
}
