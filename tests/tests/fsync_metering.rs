//! `store.fsync` counts every durability syscall the store issues — the
//! block files' and the static files' alike — and a
//! [`Durability::Relaxed`] persist issues none. The histogram lives in
//! the process-wide registry, so this test has a binary to itself.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::{Deployment, SystemParams};
use safetypin_store::FileOptions;

#[test]
fn persist_syncs_follow_durability_and_are_all_metered() {
    let fsyncs = || {
        safetypin_telemetry::global()
            .histogram("store.fsync")
            .count()
    };
    let dir = std::env::temp_dir().join(format!("safetypin-fsync-meter-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = StdRng::seed_from_u64(0xF5C);
    let mut deployment = Deployment::provision(SystemParams::test_small(8), &mut rng).unwrap();

    deployment
        .persist(&dir.join("relaxed"), FileOptions::relaxed(), &mut rng)
        .unwrap();
    assert_eq!(fsyncs(), 0, "a Relaxed persist must not sync anything");

    deployment
        .persist(&dir.join("strict"), FileOptions::default(), &mut rng)
        .unwrap();
    // Every published file costs two samples, its own sync and its
    // directory's: params, keyring, metadata, the journal's segment and
    // one block segment per HSM.
    let published_files = 3 + 1 + 8;
    assert!(
        fsyncs() >= 2 * published_files,
        "a Strict persist syncs every file it publishes, saw {} samples",
        fsyncs()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
