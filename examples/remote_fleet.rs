//! Remote fleet: a full backup/recover where every datacenter↔HSM
//! message round-trips through the versioned `safetypin-proto` wire
//! codec (the `Serialized` transport, priced at USB CDC rates), wrapped
//! in a `Faulty` transport that drops a minority of HSM recovery
//! responses — demonstrating that recovery still succeeds as long as the
//! surviving shares reach the Shamir threshold.
//!
//! Run with: `cargo run --release --example remote_fleet`

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::proto::{FaultPlan, Faulty, Serialized};
use safetypin::{DeploymentBuilder, SystemParams};

fn main() {
    // Seeded so the flaky link is reproducible run to run.
    let mut rng = StdRng::seed_from_u64(0xF1EE7);

    // A 16-HSM fleet whose transport (1) serializes every message
    // through the canonical envelope codec and (2) drops each recovery
    // response with probability 1/4 — on a 4-slot cluster with
    // threshold 2, that statistically loses a minority of the replies.
    let transport = Faulty::new(
        Box::new(Serialized::cdc()),
        FaultPlan::drop(0.25).recovery_only(),
        0, // fault seed: this one loses exactly one of three replies
    );
    let params = SystemParams::test_small(16);
    println!("provisioning a 16-HSM fleet behind a lossy serialized transport...");
    let mut deployment = DeploymentBuilder::new(params)
        .transport(Box::new(transport))
        .provision(&mut rng)
        .expect("provisioning succeeds");

    let mut phone = deployment.new_client(b"remote@example.com").unwrap();
    let disk_key = b"32-byte disk-encryption key!!!!!";
    let artifact = phone
        .backup(b"493201", disk_key, 0, &mut rng)
        .expect("backup is client-local");
    println!(
        "backed up a {}-byte recovery ciphertext; cluster 4, threshold 2",
        artifact.ciphertext.len()
    );

    // Recover over the lossy wire. Each HSM decrypts its shares and
    // punctures *before* replying, so a dropped reply costs that HSM's
    // shares forever — but any 2 surviving shares reconstruct.
    let outcome = deployment
        .recover(&phone, b"493201", &artifact, &mut rng)
        .expect("recovery succeeds at threshold despite drops");
    assert_eq!(outcome.message, disk_key);

    let stats = deployment.datacenter.transport_stats();
    println!(
        "recovered via {}/{} HSM replies ({} dropped in transit)",
        outcome.responders, outcome.contacted, stats.dropped
    );
    println!(
        "wire traffic: {} request B + {} response B in {} envelopes ({:.2}s at USB CDC)",
        stats.request_bytes, stats.response_bytes, stats.envelopes, stats.seconds
    );
    println!(
        "every message crossed the v{} envelope codec; recovery is threshold-robust \
         to a lossy datacenter floor.",
        safetypin::proto::PROTO_VERSION
    );
}
