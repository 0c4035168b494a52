//! Multi-user recovery engine acceptance tests.
//!
//! The engine (`Deployment::recover_many`) interleaves many users'
//! recoveries — one epoch per wave, one envelope per HSM per direction,
//! cross-user coalesced punctures under a single group commit — and the
//! contract pinned here is that **coalescing is unobservable in the
//! outcomes**: there is one code path, a solo recovery is a wave of
//! one, and the served `RecoveryResponse` bytes are identical for
//! wave = 1 and wave = n, over `Direct` and `Serialized` transports
//! alike. (Worker-count independence of the per-HSM fan-out is pinned
//! in `crates/provider/src/tests.rs`.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::proto::{Direct, ProviderRequest, ProviderResponse, Serialized, Transport};
use safetypin::{
    Deployment, DeploymentBuilder, DeploymentError, RecoverManyOptions, RecoverySession,
    SystemParams,
};
use safetypin_client::{BackupArtifact, Client};

const FLEET: u64 = 8;

/// Provisions a fleet and `users` clients with backups, all under one
/// fixed RNG stream, so two calls with the same seed produce
/// byte-identical worlds.
fn world(
    transport: Box<dyn Transport>,
    users: usize,
    seed: u64,
) -> (Deployment, Vec<(Client, BackupArtifact)>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = SystemParams::test_small(FLEET);
    let d = DeploymentBuilder::new(params)
        .transport(transport)
        .provision(&mut rng)
        .unwrap();
    let mut sessions = Vec::with_capacity(users);
    for u in 0..users {
        let name = format!("engine-user-{u}");
        let mut client = d.new_client(name.as_bytes()).unwrap();
        let artifact = client
            .backup(b"271801", format!("disk key {u}").as_bytes(), 0, &mut rng)
            .unwrap();
        sessions.push((client, artifact));
    }
    (d, sessions, rng)
}

/// The provider's stored reply copies for one user, serialized and
/// sorted (the per-user subsequence order is an implementation detail;
/// the response *bytes* are the contract).
fn reply_bytes(d: &Deployment, user: usize) -> Vec<Vec<u8>> {
    use safetypin::primitives::wire::Encode;
    let name = format!("engine-user-{user}");
    let mut bytes: Vec<Vec<u8>> = d
        .datacenter
        .reply_copies_for(name.as_bytes())
        .into_iter()
        .map(|r| r.to_bytes())
        .collect();
    bytes.sort();
    bytes
}

/// Runs both wave shapes on identically-seeded worlds and asserts
/// per-user byte-identical outcomes.
fn assert_engine_matches_serial(
    make_transport: impl Fn() -> Box<dyn Transport>,
    users: usize,
    wave: usize,
    seed: u64,
) {
    // World A: one at a time (every wave is a wave of one).
    let (mut serial, serial_sessions, mut rng_a) = world(make_transport(), users, seed);
    let mut serial_messages = Vec::with_capacity(users);
    for (client, artifact) in &serial_sessions {
        let outcome = serial
            .recover(client, b"271801", artifact, &mut rng_a)
            .unwrap();
        serial_messages.push(outcome.message);
    }

    // World B: same seed, the chosen wave shape.
    let (mut engine, engine_sessions, mut rng_b) = world(make_transport(), users, seed);
    let sessions: Vec<RecoverySession<'_>> = engine_sessions
        .iter()
        .map(|(client, artifact)| RecoverySession {
            client,
            pin: b"271801",
            artifact,
        })
        .collect();
    let outcomes = engine.recover_many(&sessions, RecoverManyOptions { wave }, &mut rng_b);

    assert_eq!(outcomes.len(), users);
    for (u, outcome) in outcomes.into_iter().enumerate() {
        let outcome = outcome.unwrap_or_else(|e| panic!("user {u} failed: {e}"));
        assert_eq!(
            outcome.message, serial_messages[u],
            "user {u}: engine plaintext diverged from serial"
        );
        assert_eq!(
            reply_bytes(&engine, u),
            reply_bytes(&serial, u),
            "user {u}: served RecoveryResponse bytes diverged \
             (users={users} wave={wave})"
        );
    }

    // Both paths consumed every user's one attempt.
    for (client, artifact) in &engine_sessions {
        assert!(matches!(
            engine.recover(client, b"271801", artifact, &mut rng_b),
            Err(DeploymentError::AttemptRefused)
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Determinism sweep: wave = 1 ≡ wave = n for any (user count, wave
    /// size) shape, over the Direct transport.
    #[test]
    fn engine_is_serial_equivalent_for_any_shape(
        users in 1usize..5,
        wave in 1usize..5,
        seed in any::<u64>(),
    ) {
        assert_engine_matches_serial(|| Box::new(Direct::new()), users, wave, seed);
    }
}

/// The same contract over the full wire codec: grouped envelopes
/// round-tripping through `Serialized` change nothing but the byte
/// meters.
#[test]
fn engine_is_serial_equivalent_over_serialized_transport() {
    assert_engine_matches_serial(|| Box::new(Serialized::cdc()), 3, 2, 0x05E7_1A11);
    assert_engine_matches_serial(|| Box::new(Serialized::cdc()), 4, 4, 0x05E7_1A12);
}

/// Direct and Serialized agree with *each other* through the engine,
/// and the Serialized engine round ships exactly one envelope per
/// contacted HSM per direction (plus the epoch fan-out).
#[test]
fn engine_direct_and_serialized_agree_and_envelopes_are_per_device() {
    const USERS: usize = 4;
    let seed = 0x00D1_AEC7;
    let (mut direct, d_sessions, mut rng_d) = world(Box::new(Direct::new()), USERS, seed);
    let (mut serialized, s_sessions, mut rng_s) = world(Box::new(Serialized::cdc()), USERS, seed);

    let run = |d: &mut Deployment,
               sessions: &[(Client, BackupArtifact)],
               rng: &mut StdRng|
     -> Vec<Vec<u8>> {
        let sessions: Vec<RecoverySession<'_>> = sessions
            .iter()
            .map(|(client, artifact)| RecoverySession {
                client,
                pin: b"271801",
                artifact,
            })
            .collect();
        d.recover_many(&sessions, RecoverManyOptions::default(), rng)
            .into_iter()
            .map(|o| o.unwrap().message)
            .collect()
    };

    let messages_d = run(&mut direct, &d_sessions, &mut rng_d);
    let messages_s = run(&mut serialized, &s_sessions, &mut rng_s);
    assert_eq!(messages_d, messages_s);
    for u in 0..USERS {
        assert_eq!(reply_bytes(&direct, u), reply_bytes(&serialized, u));
    }

    // Envelope accounting: every recovery envelope in the engine round
    // is per-device, so the whole storm's recovery leg needs at most
    // 2 × fleet envelopes regardless of the user count.
    let stats = serialized.datacenter.transport_stats();
    assert!(stats.request_bytes > 0 && stats.response_bytes > 0);
    assert!(
        stats.envelopes <= 2 * FLEET * 3, // epoch audit + accept + recovery legs
        "unexpected envelope count {}",
        stats.envelopes
    );
}

/// One user's refusal (attempt already consumed) must not sink the
/// wave: everyone else still recovers, and the refused user gets a
/// typed per-user error.
#[test]
fn engine_isolates_per_user_refusals() {
    let (mut d, sessions_data, mut rng) = world(Box::new(Direct::new()), 3, 0x1507);
    // Burn user 1's single attempt first.
    let burned = d
        .recover(
            &sessions_data[1].0,
            b"271801",
            &sessions_data[1].1,
            &mut rng,
        )
        .unwrap();
    assert!(!burned.message.is_empty());

    let sessions: Vec<RecoverySession<'_>> = sessions_data
        .iter()
        .map(|(client, artifact)| RecoverySession {
            client,
            pin: b"271801",
            artifact,
        })
        .collect();
    let outcomes = d.recover_many(&sessions, RecoverManyOptions::default(), &mut rng);
    assert!(outcomes[0].is_ok(), "user 0 must clear");
    assert!(matches!(outcomes[1], Err(DeploymentError::AttemptRefused)));
    assert!(outcomes[2].is_ok(), "user 2 must clear");
}

/// The engine amortizes the log work: a wave of N users runs ONE epoch
/// (the serial loop runs N), and the per-user wire traffic falls as the
/// wave grows.
#[test]
fn engine_amortizes_epochs_and_wire_traffic() {
    const USERS: usize = 4;
    let (mut d, sessions_data, mut rng) = world(Box::new(Serialized::cdc()), USERS, 0xA307);
    let epochs_before = d.datacenter.update_history().len();
    let sessions: Vec<RecoverySession<'_>> = sessions_data
        .iter()
        .map(|(client, artifact)| RecoverySession {
            client,
            pin: b"271801",
            artifact,
        })
        .collect();
    let outcomes = d.recover_many(&sessions, RecoverManyOptions::default(), &mut rng);
    assert!(outcomes.iter().all(|o| o.is_ok()));
    assert_eq!(
        d.datacenter.update_history().len() - epochs_before,
        1,
        "one wave = one epoch"
    );

    // Serial comparison world: same users, one at a time.
    let (mut serial, serial_data, mut rng_s) = world(Box::new(Serialized::cdc()), USERS, 0xA307);
    let serial_before = serial.datacenter.transport_stats();
    for (client, artifact) in &serial_data {
        serial
            .recover(client, b"271801", artifact, &mut rng_s)
            .unwrap();
    }
    let serial_bytes = serial
        .datacenter
        .transport_stats()
        .since(&serial_before)
        .total_bytes();
    let engine_bytes = d.datacenter.transport_stats().total_bytes();
    assert!(
        engine_bytes < serial_bytes,
        "engine wave must move fewer bytes than the serial loop \
         ({engine_bytes} vs {serial_bytes})"
    );
}

/// The engine's client-facing message: `RecoverBatch` through
/// `Datacenter::handle` serves many users in one dispatch and reports
/// per-user per-HSM outcomes.
#[test]
fn recover_batch_message_serves_many_users() {
    let (mut d, sessions_data, mut rng) = world(Box::new(Direct::new()), 2, 0xBA7C4);
    // Stage both users by hand (log + one epoch + inclusion proofs).
    let mut rounds = Vec::new();
    let mut attempts = Vec::new();
    for (client, artifact) in &sessions_data {
        let attempt = client
            .start_recovery(b"271801", &artifact.ciphertext, false, &mut rng)
            .unwrap();
        let (id, value) = attempt.log_entry();
        d.datacenter.insert_log(&id, &value).unwrap();
        attempts.push((attempt, id, value));
    }
    d.datacenter.run_epoch().unwrap();
    for (attempt, id, value) in &attempts {
        let inclusion = d.datacenter.prove_inclusion(id, value).unwrap();
        rounds.push(attempt.requests(&inclusion));
    }

    let response = d
        .datacenter
        .handle(ProviderRequest::RecoverBatch(rounds), &mut rng);
    let ProviderResponse::RecoveredBatch(per_user) = response else {
        panic!("expected RecoveredBatch, got {response:?}");
    };
    assert_eq!(per_user.len(), 2);
    for ((attempt, ..), items) in attempts.iter().zip(per_user) {
        let responses: Vec<_> = items
            .into_iter()
            .filter_map(|(_, resp)| match resp {
                safetypin::proto::HsmResponse::RecoveryShare { response } => Some(response),
                _ => None,
            })
            .collect();
        assert!(!responses.is_empty());
        let message = attempt.finish(responses).unwrap();
        assert!(message.starts_with(b"disk key"));
    }
}
