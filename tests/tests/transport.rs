//! Transport-equivalence and failure-scenario tests for the
//! message-passing service API: the `Serialized` transport must be
//! behavior-identical to `Direct` (while measuring real envelope bytes),
//! and a `Faulty` transport dropping a minority of HSM responses must
//! not stop recovery from reaching its threshold.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::proto::{
    Direct, FaultPlan, Faulty, HsmResponse, Message, ProviderRequest, ProviderResponse,
    RecoveryResponse, Serialized, Transport,
};
use safetypin::{Deployment, DeploymentBuilder, DeploymentError, SystemParams};

const SEED: u64 = 0x7A_71;

fn deployment_with(transport: Box<dyn Transport>, total: u64, seed: u64) -> (Deployment, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = SystemParams::test_small(total);
    let d = DeploymentBuilder::new(params)
        .transport(transport)
        .provision(&mut rng)
        .unwrap();
    (d, rng)
}

/// Acceptance criterion: `Deployment::recover` produces byte-identical
/// recovery outcomes on `Direct` and `Serialized` transports.
#[test]
fn direct_and_serialized_recover_identically() {
    let (mut direct, mut rng_d) = deployment_with(Box::new(Direct::new()), 16, SEED);
    let (mut serialized, mut rng_s) = deployment_with(Box::new(Serialized::cdc()), 16, SEED);

    let mut client_d = direct.new_client(b"eq-user").unwrap();
    let mut client_s = serialized.new_client(b"eq-user").unwrap();
    let artifact_d = client_d
        .backup(b"493201", b"the disk key", 0, &mut rng_d)
        .unwrap();
    let artifact_s = client_s
        .backup(b"493201", b"the disk key", 0, &mut rng_s)
        .unwrap();
    // Same seeds, same fleet, same ciphertext bytes: the transport layer
    // must not perturb anything the protocol computes.
    assert_eq!(artifact_d.ciphertext, artifact_s.ciphertext);

    let out_d = direct
        .recover(&client_d, b"493201", &artifact_d, &mut rng_d)
        .unwrap();
    let out_s = serialized
        .recover(&client_s, b"493201", &artifact_s, &mut rng_s)
        .unwrap();

    assert_eq!(out_d.message, out_s.message, "recovered plaintexts differ");
    assert_eq!(out_d.message, b"the disk key");
    assert_eq!(out_d.responders, out_s.responders);
    assert_eq!(out_d.contacted, out_s.contacted);
    // Both fleets metered the same work.
    assert_eq!(
        direct.datacenter.drain_fleet_costs(),
        serialized.datacenter.drain_fleet_costs()
    );

    // Only the byte accounting differs: Direct is zero-copy, Serialized
    // measured real envelopes.
    assert_eq!(out_d.wire.total_bytes(), 0);
    assert!(out_s.wire.total_bytes() > 0);
    assert!(out_s.wire.seconds > 0.0);
}

/// Acceptance criterion: the `Serialized` path's per-recovery byte count
/// sits inside the ciphertext/proof size envelope — each contacted HSM
/// receives (essentially) the recovery ciphertext plus the inclusion
/// proof plus small framing, and replies with a handful of shares.
#[test]
fn serialized_recovery_bytes_within_ciphertext_proof_envelope() {
    let (mut d, mut rng) = deployment_with(Box::new(Serialized::cdc()), 16, SEED + 1);
    let mut client = d.new_client(b"bw-user").unwrap();
    let artifact = client
        .backup(b"271828", b"bandwidth probe", 0, &mut rng)
        .unwrap();

    // Drive the Figure 3 steps by hand so the measured window covers
    // exactly the cluster round (recovery-share traffic), not the epoch
    // certification that precedes it.
    let attempt = client
        .start_recovery(b"271828", &artifact.ciphertext, false, &mut rng)
        .unwrap();
    let (id, value) = attempt.log_entry();
    d.datacenter.insert_log(&id, &value).unwrap();
    d.datacenter.run_epoch().unwrap();
    let inclusion = d.datacenter.prove_inclusion(&id, &value).unwrap();
    let requests = attempt.requests(&inclusion);
    let contacted = requests.len() as u64;

    use safetypin::primitives::wire::Encode;
    let ct_len = artifact.ciphertext.len() as u64;
    let proof_len = inclusion.to_bytes().len() as u64;

    let before = d.datacenter.transport_stats();
    let results = d
        .datacenter
        .route_recovery(vec![requests], &mut rng)
        .unwrap()
        .remove(0);
    let wire = d.datacenter.transport_stats().since(&before);

    let responses: Vec<_> = results
        .into_iter()
        .filter_map(|(_, reply)| match reply {
            safetypin::proto::HsmResponse::RecoveryShare { response } => Some(response),
            _ => None,
        })
        .collect();
    assert!(!responses.is_empty());
    let message = attempt.finish(responses).unwrap();
    assert_eq!(message, b"bandwidth probe");

    // Lower bound: every contacted HSM gets the full ciphertext.
    assert!(
        wire.request_bytes >= contacted * ct_len,
        "requests ({}) smaller than {} ciphertext copies ({})",
        wire.request_bytes,
        contacted,
        contacted * ct_len
    );
    // Upper bound: ciphertext + proof dominate; commitment opening,
    // salt, indices, and envelope framing must stay within 2x.
    assert!(
        wire.request_bytes <= 2 * contacted * (ct_len + proof_len),
        "requests ({}) exceed the ciphertext/proof envelope ({} HSMs x (ct {} + proof {}))",
        wire.request_bytes,
        contacted,
        ct_len,
        proof_len
    );
    // Replies carry shares + phase meters, both tiny next to the request.
    assert!(wire.response_bytes > 0);
    assert!(
        wire.response_bytes < wire.request_bytes,
        "share replies ({}) should be far smaller than requests ({})",
        wire.response_bytes,
        wire.request_bytes
    );
    // The cluster round ships one envelope per contacted HSM per
    // direction (a solo recovery is a wave of one).
    assert_eq!(wire.envelopes, 2 * contacted);
    assert_eq!(wire.messages, 2 * contacted);
}

/// The `remote_fleet` scenario: a `Faulty` wrapper dropping a minority
/// of recovery responses still recovers at threshold (2-of-4 cluster).
#[test]
fn faulty_transport_minority_drop_still_recovers() {
    // drop_prob 0.25 over a 4-slot cluster statistically loses ~1 reply;
    // the seed makes the run deterministic. RecoveryOnly scope keeps
    // epoch certification clean (min_signers = N at test scale).
    let faulty = Faulty::new(
        Box::new(Serialized::cdc()),
        FaultPlan::drop(0.25).recovery_only(),
        0xBAD_5EED,
    );
    let (mut d, mut rng) = deployment_with(Box::new(faulty), 16, SEED + 2);
    let mut client = d.new_client(b"flaky-user").unwrap();
    let artifact = client
        .backup(b"314159", b"survives drops", 0, &mut rng)
        .unwrap();
    let outcome = d.recover(&client, b"314159", &artifact, &mut rng).unwrap();
    assert_eq!(outcome.message, b"survives drops");
    assert!(
        outcome.responders <= outcome.contacted,
        "responders {} of {}",
        outcome.responders,
        outcome.contacted
    );
    // The fault counters are visible in the deployment's accounting.
    let stats = d.datacenter.transport_stats();
    assert!(stats.total_bytes() > 0);
}

/// Dropping *every* recovery response fails typed (not-enough-shares),
/// never panics, and the attempt is still consumed — exactly the §8
/// failure-during-recovery accounting.
#[test]
fn faulty_transport_total_drop_fails_clean() {
    let faulty = Faulty::new(
        Box::new(Direct::new()),
        FaultPlan::drop(1.0).recovery_only(),
        1,
    );
    let (mut d, mut rng) = deployment_with(Box::new(faulty), 16, SEED + 3);
    let mut client = d.new_client(b"doomed-user").unwrap();
    let artifact = client
        .backup(b"000001", b"never arrives", 0, &mut rng)
        .unwrap();
    let err = d
        .recover(&client, b"000001", &artifact, &mut rng)
        .unwrap_err();
    assert!(
        matches!(err, DeploymentError::Client(_)),
        "expected a client-side not-enough-shares failure, got {err:?}"
    );
    // The HSMs punctured before the replies were lost: the attempt is
    // consumed even though the client got nothing (§8).
    let err = d
        .recover(&client, b"000001", &artifact, &mut rng)
        .unwrap_err();
    assert!(matches!(err, DeploymentError::AttemptRefused));
}

/// Key rotation and garbage collection also flow over the transport.
#[test]
fn maintenance_operations_flow_over_serialized_transport() {
    let (mut d, mut rng) = deployment_with(Box::new(Serialized::cdc()), 8, SEED + 4);

    let before = d.datacenter.take_transport_stats();
    assert_eq!(
        before.total_bytes(),
        0,
        "provisioning is not transport traffic"
    );

    d.datacenter.rotate_hsm(3, &mut rng).unwrap();
    let after_rotate = d.datacenter.transport_stats();
    assert!(after_rotate.total_bytes() > 0, "rotation moved no bytes");
    assert_eq!(d.datacenter.hsm(3).unwrap().key_epoch(), 1);

    // The published keys reflect the rotated key epoch.
    let enrollments = d.datacenter.enrollments();
    assert_eq!(enrollments.len(), 8);
    assert_eq!(enrollments[3].key_epoch, 1);
    assert_eq!(enrollments[0].key_epoch, 0);

    d.datacenter.garbage_collect().unwrap();
    assert_eq!(d.datacenter.hsm(0).unwrap().gc_count(), 1);
}

/// A full recovery driven purely through the client-facing
/// `ProviderRequest`/`ProviderResponse` message set — no typed
/// orchestration API, just messages (what a remote client would do).
#[test]
fn full_recovery_through_provider_message_api() {
    let (mut d, mut rng) = deployment_with(Box::new(Serialized::cdc()), 16, SEED + 5);

    // Enrollment download.
    let enrollments = match d
        .datacenter
        .handle(ProviderRequest::FetchEnrollments, &mut rng)
    {
        ProviderResponse::Enrollments(es) => es,
        other => panic!("unexpected reply: {other:?}"),
    };
    let mut client =
        safetypin::client::Client::new(b"rpc-user", d.params.lhe, enrollments).unwrap();
    let artifact = client
        .backup(b"662607", b"pure message flow", 0, &mut rng)
        .unwrap();

    // Steps 3-5 as messages.
    let attempt = client
        .start_recovery(b"662607", &artifact.ciphertext, false, &mut rng)
        .unwrap();
    let (id, value) = attempt.log_entry();
    let reply = d.datacenter.handle(
        ProviderRequest::InsertLog {
            id: id.clone(),
            value: value.clone(),
        },
        &mut rng,
    );
    assert_eq!(reply, ProviderResponse::Ack);
    match d.datacenter.handle(ProviderRequest::RunEpoch, &mut rng) {
        ProviderResponse::EpochCertified { signer_count, .. } => {
            assert_eq!(signer_count, 16)
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    let inclusion = match d
        .datacenter
        .handle(ProviderRequest::ProveInclusion { id, value }, &mut rng)
    {
        ProviderResponse::Inclusion(Some(p)) => p,
        other => panic!("unexpected reply: {other:?}"),
    };

    // Steps 6-7: the batched cluster round as one message.
    let requests = attempt.requests(&inclusion);
    let recovered = match d
        .datacenter
        .handle(ProviderRequest::Recover(requests), &mut rng)
    {
        ProviderResponse::Recovered(items) => items,
        other => panic!("unexpected reply: {other:?}"),
    };
    let responses: Vec<RecoveryResponse> = recovered
        .into_iter()
        .filter_map(|(_, resp)| match resp {
            HsmResponse::RecoveryShare { response } => Some(response),
            _ => None,
        })
        .collect();
    let message = attempt.finish(responses).unwrap();
    assert_eq!(message, b"pure message flow");

    // §8 reply copies are served over the same API.
    match d.datacenter.handle(
        ProviderRequest::FetchReplyCopies {
            username: b"rpc-user".to_vec(),
        },
        &mut rng,
    ) {
        ProviderResponse::ReplyCopies(copies) => assert!(!copies.is_empty()),
        other => panic!("unexpected reply: {other:?}"),
    }

    // Duplicate insert is refused with a typed error reply.
    let (id2, value2) = attempt.log_entry();
    match d.datacenter.handle(
        ProviderRequest::InsertLog {
            id: id2,
            value: value2,
        },
        &mut rng,
    ) {
        ProviderResponse::Error(e) => {
            assert_eq!(e.code, safetypin::proto::codes::LOG_REFUSED)
        }
        other => panic!("unexpected reply: {other:?}"),
    }
}

/// The whole provider conversation also survives the wire: wrap a
/// `ProviderRequest` in an envelope, decode it, serve it, and ship the
/// response back.
#[test]
fn provider_messages_roundtrip_through_envelopes() {
    use safetypin::primitives::wire::{Decode, Encode};
    use safetypin::proto::Envelope;

    let (mut d, mut rng) = deployment_with(Box::new(Direct::new()), 8, SEED + 6);
    let wire_request =
        Envelope::seal(Message::ProviderRequest(ProviderRequest::FetchEnrollments)).to_bytes();
    let request = match Envelope::from_bytes(&wire_request).unwrap().msg {
        Message::ProviderRequest(req) => req,
        other => panic!("unexpected message: {other:?}"),
    };
    let response = d.datacenter.handle(request, &mut rng);
    let wire_response = Envelope::seal(Message::ProviderResponse(response)).to_bytes();
    match Envelope::from_bytes(&wire_response).unwrap().msg {
        Message::ProviderResponse(ProviderResponse::Enrollments(es)) => {
            assert_eq!(es.len(), 8);
        }
        other => panic!("unexpected message: {other:?}"),
    }
}
