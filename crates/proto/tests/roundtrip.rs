//! Codec conformance for every proto message: `encode ∘ decode = id`
//! round-trips, plus strict-decoding negative tests (truncation at every
//! prefix length, trailing bytes, unknown version tags) — the satellite
//! guarantees that make the envelope format safe to speak over a real
//! link.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::disallowed_macros,
    reason = "test code fails by panicking"
)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin_primitives::error::WireError;
use safetypin_primitives::wire::{Decode, Encode};
use safetypin_primitives::{commit, elgamal, shamir};
use safetypin_proto::{
    codes, Envelope, ErrorReply, HistogramSummary, HsmRequest, HsmResponse, Message, MetricsReport,
    ProviderRequest, ProviderResponse, RecoveryRequest, RecoveryResponse, SaveOutcome, SaveRequest,
    SnapshotMeta, StatusReport, PROTO_VERSION,
};

/// Builds real protocol objects (commitments, inclusion proofs, BLS
/// signatures, BFE keys) from a seed, then covers every message variant
/// with them.
fn sample_envelopes(seed: u64) -> Vec<Envelope> {
    let mut rng = StdRng::seed_from_u64(seed);

    // A small real log with a provable entry and a certifiable epoch.
    let mut log = safetypin_authlog::log::Log::new();
    log.insert(b"alice", b"commitment-bytes").unwrap();
    log.insert(b"bob", b"other-bytes").unwrap();
    let inclusion = log.prove_includes(b"alice", b"commitment-bytes").unwrap();
    let cut = log.cut_epoch(2);
    let update = safetypin_authlog::distributed::EpochUpdate::build(&cut).unwrap();
    let message = update.message();
    let package = update.audit_package(0).unwrap();

    // Real keys and signatures.
    let sig_key = safetypin_multisig::SigningKey::generate(&mut rng);
    let signature = sig_key.sign(b"epoch tuple");
    let kp = elgamal::KeyPair::generate(&mut rng);

    // A real (tiny) enrollment record, BFE key included.
    let mut store = safetypin_seckv::MemStore::new();
    let (bfe_pk, _sk, _report) = safetypin_bfe::keygen(
        safetypin_bfe::BfeParams::new(32, 2).unwrap(),
        &mut store,
        &mut rng,
    )
    .unwrap();
    let enrollment = safetypin_proto::EnrollmentRecord {
        id: 7,
        identity_pk: kp.pk,
        sig_vk: sig_key.verify_key(),
        sig_pop: sig_key.prove_possession(),
        bfe_pk,
        key_epoch: 3,
    };

    let (_commitment, opening) = commit::commit(b"cluster || ct-hash", &mut rng);
    let recovery_request = RecoveryRequest {
        username: b"alice".to_vec(),
        salt: safetypin_lhe::Salt::random(&mut rng),
        opening,
        inclusion: inclusion.clone(),
        ciphertext: vec![0xA5; 96],
        share_indices: vec![0, 2, 3],
        recovery_pk: Some(kp.pk),
    };

    let shares = shamir::share(b"transport key", 2, 4, &mut rng).unwrap();
    let encrypted_reply = elgamal::encrypt(&kp.pk, b"ctx", b"wire-encoded shares", &mut rng);

    let hsm_requests = vec![
        HsmRequest::GetEnrollment,
        HsmRequest::RecoverShare(recovery_request.clone()),
        HsmRequest::AuditAndSign {
            message,
            active_ids: vec![0, 1, 3],
            failed_ids: vec![2],
            packages: vec![package],
        },
        HsmRequest::AcceptUpdate {
            message,
            signers: vec![0, 1, 3],
            aggregate: signature,
        },
        HsmRequest::GarbageCollect,
        HsmRequest::RotateKeys,
    ];
    let hsm_responses = vec![
        HsmResponse::Enrollment(enrollment.clone()),
        HsmResponse::RecoveryShare {
            response: RecoveryResponse::Plain(shares.clone()),
        },
        HsmResponse::RecoveryShare {
            response: RecoveryResponse::Encrypted(encrypted_reply),
        },
        HsmResponse::Signed(signature),
        HsmResponse::Ack,
        HsmResponse::Rotated(enrollment.clone()),
        HsmResponse::Error(ErrorReply::new(
            codes::DECRYPT_FAILED,
            "share decryption failed",
        )),
    ];
    let provider_requests = vec![
        ProviderRequest::FetchEnrollments,
        ProviderRequest::InsertLog {
            id: b"alice".to_vec(),
            value: b"commitment-bytes".to_vec(),
        },
        ProviderRequest::ProveInclusion {
            id: b"alice".to_vec(),
            value: b"commitment-bytes".to_vec(),
        },
        ProviderRequest::RunEpoch,
        ProviderRequest::Recover(vec![
            (1, recovery_request.clone()),
            (3, recovery_request.clone()),
        ]),
        ProviderRequest::FetchReplyCopies {
            username: b"alice".to_vec(),
        },
        // The multi-user engine's request: two users' rounds (one of
        // them empty — a user whose cluster collapsed entirely).
        ProviderRequest::RecoverBatch(vec![
            vec![(1, recovery_request.clone()), (3, recovery_request.clone())],
            Vec::new(),
        ]),
        // The daemon-facing message set.
        ProviderRequest::PutBackup {
            username: b"alice".to_vec(),
            blob: vec![0xC7; 128],
        },
        ProviderRequest::PutBackup {
            username: Vec::new(),
            blob: Vec::new(),
        },
        ProviderRequest::FetchBackup {
            username: b"alice".to_vec(),
        },
        ProviderRequest::Status,
        ProviderRequest::Shutdown,
        // The save-path engine's wave: two users plus the degenerate
        // empty-username/empty-blob and empty-wave edges.
        ProviderRequest::SaveBatch(vec![
            SaveRequest {
                username: b"alice".to_vec(),
                blob: vec![0xC7; 128],
            },
            SaveRequest {
                username: Vec::new(),
                blob: Vec::new(),
            },
        ]),
        ProviderRequest::SaveBatch(Vec::new()),
        ProviderRequest::Metrics,
    ];
    let provider_responses = vec![
        ProviderResponse::Enrollments(vec![enrollment]),
        ProviderResponse::Ack,
        ProviderResponse::Inclusion(Some(inclusion)),
        ProviderResponse::Inclusion(None),
        ProviderResponse::EpochCertified {
            message,
            signer_count: 3,
        },
        ProviderResponse::Recovered(vec![(
            1,
            HsmResponse::RecoveryShare {
                response: RecoveryResponse::Plain(shares.clone()),
            },
        )]),
        ProviderResponse::ReplyCopies(vec![RecoveryResponse::Plain(shares.clone())]),
        ProviderResponse::Error(ErrorReply::new(codes::LOG_REFUSED, "attempt consumed")),
        ProviderResponse::RecoveredBatch(vec![
            vec![(
                1,
                HsmResponse::RecoveryShare {
                    response: RecoveryResponse::Plain(shares),
                },
            )],
            vec![(3, HsmResponse::Error(ErrorReply::dropped()))],
            Vec::new(),
        ]),
        ProviderResponse::Backup(Some(vec![0xC7; 128])),
        ProviderResponse::Backup(None),
        ProviderResponse::Status(StatusReport {
            fleet_size: 3100,
            cluster: 40,
            threshold: 20,
            pin_space: 1_000_000,
            epoch_count: 12,
            log_entries: 4096,
            backups: 1024,
            reply_copies: 7,
            active_connections: 5,
            served_requests: 99_000,
            rejected_requests: 3,
            draining: true,
        }),
        ProviderResponse::Status(StatusReport::default()),
        ProviderResponse::SavedBatch(vec![
            SaveOutcome {
                username: b"alice".to_vec(),
                error: None,
            },
            SaveOutcome {
                username: b"bob".to_vec(),
                error: Some(ErrorReply::new(codes::LOG_REFUSED, "attempt consumed")),
            },
        ]),
        ProviderResponse::SavedBatch(Vec::new()),
        // A telemetry snapshot with every section populated, plus the
        // empty-registry edge.
        ProviderResponse::Metrics(MetricsReport {
            counters: vec![
                ("daemon.requests".to_string(), 42),
                ("store.wal_appends".to_string(), u64::MAX),
            ],
            gauges: vec![
                ("daemon.connections_active".to_string(), 3),
                ("t.negative".to_string(), -7),
            ],
            histograms: vec![HistogramSummary {
                name: "daemon.request".to_string(),
                count: 42,
                sum: 123_456,
                min: 80,
                max: 9_001,
                p50: 2_500,
                p95: 7_800,
                p99: 8_900,
            }],
        }),
        ProviderResponse::Metrics(MetricsReport::default()),
    ];

    // HSM traffic travels only in per-device groups: every request and
    // response alone in a one-item group, then one device's whole group
    // in each direction, and the empty-group edge.
    let mut envelopes = Vec::new();
    for (id, req) in (0..).zip(&hsm_requests) {
        envelopes.push(Envelope::seal(Message::HsmGroupRequest {
            id,
            requests: vec![req.clone()],
        }));
    }
    for (id, resp) in (0..).zip(&hsm_responses) {
        envelopes.push(Envelope::seal(Message::HsmGroupResponse {
            id,
            responses: vec![resp.clone()],
        }));
    }
    envelopes.push(Envelope::seal(Message::HsmGroupRequest {
        id: 3,
        requests: hsm_requests,
    }));
    envelopes.push(Envelope::seal(Message::HsmGroupResponse {
        id: 3,
        responses: hsm_responses,
    }));
    envelopes.push(Envelope::seal(Message::HsmGroupRequest {
        id: u64::MAX,
        requests: Vec::new(),
    }));
    for req in provider_requests {
        envelopes.push(Envelope::seal(Message::ProviderRequest(req)));
    }
    for resp in provider_responses {
        envelopes.push(Envelope::seal(Message::ProviderResponse(resp)));
    }
    envelopes.push(Envelope::seal(Message::SnapshotMeta(SnapshotMeta {
        proto_version: PROTO_VERSION,
        fleet_size: 16,
        epoch_count: 3,
        log_generation: 1,
        key_epochs: vec![0, 0, 1, 0, 2],
    })));
    envelopes.push(Envelope::seal(Message::SnapshotMeta(SnapshotMeta {
        proto_version: PROTO_VERSION,
        fleet_size: 0,
        epoch_count: 0,
        log_generation: 0,
        key_epochs: Vec::new(),
    })));
    envelopes
}

#[test]
fn every_message_variant_roundtrips() {
    let mut share_replies = 0;
    for (i, envelope) in sample_envelopes(0x5AFE_0071).into_iter().enumerate() {
        let bytes = envelope.to_bytes();
        let back = Envelope::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("envelope {i} failed to decode: {e}"));
        // Structural equality AND canonical re-encoding (encode ∘ decode
        // ∘ encode = encode).
        assert_eq!(back, envelope, "envelope {i} did not roundtrip");
        assert_eq!(
            back.to_bytes(),
            bytes,
            "envelope {i} re-encoded differently"
        );
        // A share reply is its tag and its shares: nothing rides along.
        if let Message::HsmGroupResponse { responses, .. } = &envelope.msg {
            for reply in responses {
                if let HsmResponse::RecoveryShare { response } = reply {
                    assert_eq!(reply.to_bytes().len(), 1 + response.to_bytes().len());
                    share_replies += 1;
                }
            }
        }
    }
    assert_eq!(
        share_replies, 4,
        "one Plain and one Encrypted share reply, alone and in the full group"
    );
}

/// The corpus is the variant list: for `Message` and for each of the
/// four role enums it carries, every tag byte the decoder accepts is one
/// some sample encodes with, and every other byte is `InvalidTag`. A
/// variant added without a sample fails here, and the truncation and
/// trailing-byte tests below iterate the same corpus.
#[test]
fn decoders_accept_exactly_the_tags_the_corpus_encodes() {
    use std::collections::{BTreeMap, BTreeSet};

    // Byte 2 of an envelope is the `Message` tag. The role enum's
    // variant tag follows it at byte 3 in the two provider messages, and
    // at byte 15 in a one-item group (after the HSM id and the item
    // count). Each role enum is probed behind the bytes that precede
    // its tag.
    let mut message_tags = BTreeSet::new();
    let mut variant_tags: BTreeMap<u8, (Vec<u8>, BTreeSet<u8>)> = BTreeMap::new();
    for envelope in sample_envelopes(0x5AFE_0075) {
        let bytes = envelope.to_bytes();
        message_tags.insert(bytes[2]);
        let at = match &envelope.msg {
            Message::ProviderRequest(_) | Message::ProviderResponse(_) => 3,
            Message::HsmGroupRequest { requests, .. } if requests.len() == 1 => 15,
            Message::HsmGroupResponse { responses, .. } if responses.len() == 1 => 15,
            _ => continue,
        };
        variant_tags
            .entry(bytes[2])
            .or_insert_with(|| (bytes[2..at].to_vec(), BTreeSet::new()))
            .1
            .insert(bytes[at]);
    }
    assert_eq!(variant_tags.len(), 4, "one tag set per role enum");

    // An envelope that ends right after `prefix ‖ tag`: a known tag then
    // runs out of input (or decodes a payload-free variant), an unknown
    // one is refused by name.
    let refused = |prefix: &[u8], tag: u8| {
        let mut bytes = PROTO_VERSION.to_be_bytes().to_vec();
        bytes.extend_from_slice(prefix);
        bytes.push(tag);
        matches!(Envelope::from_bytes(&bytes), Err(WireError::InvalidTag(t)) if t == tag)
    };
    for tag in 0..=u8::MAX {
        assert_eq!(
            refused(&[], tag),
            !message_tags.contains(&tag),
            "Message tag {tag}"
        );
        for (&message_tag, (prefix, tags)) in &variant_tags {
            assert_eq!(
                refused(prefix, tag),
                !tags.contains(&tag),
                "Message tag {message_tag}, variant tag {tag}"
            );
        }
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    // Exhaustive truncation of a representative sample (not proptest:
    // we want *every* prefix length of every variant).
    for envelope in sample_envelopes(0x5AFE_0072) {
        let bytes = envelope.to_bytes();
        for len in 0..bytes.len() {
            match Envelope::from_bytes(&bytes[..len]) {
                Err(_) => {}
                // A prefix that still decodes must be impossible: the
                // full-input rule would flag leftover bytes.
                Ok(_) => panic!("truncated envelope (len {len}/{}) decoded", bytes.len()),
            }
        }
    }
}

#[test]
fn trailing_bytes_rejected() {
    for envelope in sample_envelopes(0x5AFE_0073) {
        let mut bytes = envelope.to_bytes();
        bytes.push(0x00);
        assert_eq!(
            Envelope::from_bytes(&bytes).unwrap_err(),
            WireError::TrailingBytes
        );
    }
}

#[test]
fn unknown_version_tag_rejected_with_typed_error() {
    let envelope = Envelope::seal(Message::HsmGroupRequest {
        id: 0,
        requests: vec![HsmRequest::GetEnrollment],
    });
    let mut bytes = envelope.to_bytes();
    // Overwrite the big-endian u16 version prefix. The neighbours on
    // both sides are refused: a newer peer, and an older one (version 2
    // still carried the solo and batch HSM kinds, and an endorsement
    // list in every recovery request).
    for version in [PROTO_VERSION + 1, PROTO_VERSION - 1, 0xFFFF, 0] {
        bytes[..2].copy_from_slice(&version.to_be_bytes());
        assert_eq!(
            Envelope::from_bytes(&bytes).unwrap_err(),
            WireError::UnsupportedVersion(version)
        );
    }
}

/// The engine's batch messages carry explicit size ceilings: a declared
/// batch larger than the limit fails with a typed error *before* any
/// payload parses — a wire peer cannot force an unbounded serve loop.
#[test]
fn oversized_recover_batch_rejected_with_typed_error() {
    use safetypin_primitives::wire::Writer;
    use safetypin_proto::MAX_RECOVER_BATCH_USERS;

    // Envelope header + ProviderRequest (message tag 4) + RecoverBatch
    // (variant tag 6) + an oversized user count, with enough padding
    // that only the explicit ceiling can reject it.
    let mut w = Writer::new();
    w.put_u16(PROTO_VERSION);
    w.put_u8(4);
    w.put_u8(6);
    w.put_u32(MAX_RECOVER_BATCH_USERS as u32 + 1);
    let mut bytes = w.into_bytes();
    bytes.extend(std::iter::repeat_n(0u8, MAX_RECOVER_BATCH_USERS + 64));
    assert_eq!(
        Envelope::from_bytes(&bytes).unwrap_err(),
        WireError::LengthOutOfRange
    );

    // The limit itself is fine structurally (each user round empty).
    let within = ProviderRequest::RecoverBatch(vec![Vec::new(); MAX_RECOVER_BATCH_USERS]);
    let encoded = Envelope::seal(Message::ProviderRequest(within)).to_bytes();
    assert!(Envelope::from_bytes(&encoded).is_ok());
}

/// Same ceiling on the save-path engine's wave, in both directions.
#[test]
fn oversized_save_batch_rejected_with_typed_error() {
    use safetypin_primitives::wire::Writer;
    use safetypin_proto::MAX_SAVE_BATCH_USERS;

    // Envelope header + ProviderRequest (message tag 4) + SaveBatch
    // (variant tag 11) + an oversized user count, padded past the
    // allocation guard.
    let mut w = Writer::new();
    w.put_u16(PROTO_VERSION);
    w.put_u8(4);
    w.put_u8(11);
    w.put_u32(MAX_SAVE_BATCH_USERS as u32 + 1);
    let mut bytes = w.into_bytes();
    bytes.extend(std::iter::repeat_n(0u8, MAX_SAVE_BATCH_USERS + 64));
    assert_eq!(
        Envelope::from_bytes(&bytes).unwrap_err(),
        WireError::LengthOutOfRange
    );

    // And the ProviderResponse (message tag 5) SavedBatch (variant tag
    // 10) direction enforces it too.
    let mut w = Writer::new();
    w.put_u16(PROTO_VERSION);
    w.put_u8(5);
    w.put_u8(10);
    w.put_u32(MAX_SAVE_BATCH_USERS as u32 + 1);
    let mut bytes = w.into_bytes();
    bytes.extend(std::iter::repeat_n(0u8, MAX_SAVE_BATCH_USERS + 64));
    assert_eq!(
        Envelope::from_bytes(&bytes).unwrap_err(),
        WireError::LengthOutOfRange
    );

    // The limit itself is fine structurally (empty-field saves).
    let within = ProviderRequest::SaveBatch(vec![
        SaveRequest {
            username: Vec::new(),
            blob: Vec::new(),
        };
        MAX_SAVE_BATCH_USERS
    ]);
    let encoded = Envelope::seal(Message::ProviderRequest(within)).to_bytes();
    assert!(Envelope::from_bytes(&encoded).is_ok());
}

/// Every [`MetricsReport`] section caps its series count before any
/// payload parses.
#[test]
fn oversized_metrics_report_rejected_with_typed_error() {
    use safetypin_primitives::wire::Writer;
    use safetypin_proto::MAX_METRICS_SERIES;

    // Envelope header + ProviderResponse (message tag 5) + Metrics
    // (variant tag 11) + an oversized counter-section count, padded
    // past the allocation guard.
    let mut w = Writer::new();
    w.put_u16(PROTO_VERSION);
    w.put_u8(5);
    w.put_u8(11);
    w.put_u32(MAX_METRICS_SERIES as u32 + 1);
    let mut bytes = w.into_bytes();
    bytes.extend(std::iter::repeat_n(0u8, MAX_METRICS_SERIES + 64));
    assert_eq!(
        Envelope::from_bytes(&bytes).unwrap_err(),
        WireError::LengthOutOfRange
    );

    // The histogram section enforces the same ceiling: an empty
    // counter and gauge section, then an oversized summary count.
    let mut w = Writer::new();
    w.put_u16(PROTO_VERSION);
    w.put_u8(5);
    w.put_u8(11);
    w.put_u32(0);
    w.put_u32(0);
    w.put_u32(MAX_METRICS_SERIES as u32 + 1);
    let mut bytes = w.into_bytes();
    bytes.extend(std::iter::repeat_n(0u8, MAX_METRICS_SERIES + 64));
    assert_eq!(
        Envelope::from_bytes(&bytes).unwrap_err(),
        WireError::LengthOutOfRange
    );
}

/// Same ceiling on the per-device group envelope.
#[test]
fn oversized_hsm_group_rejected_with_typed_error() {
    use safetypin_primitives::wire::Writer;
    use safetypin_proto::MAX_GROUP_REQUESTS;

    // Envelope header + HsmGroupRequest (message tag 7) + id + an
    // oversized request count, padded past the allocation guard.
    let mut w = Writer::new();
    w.put_u16(PROTO_VERSION);
    w.put_u8(7);
    w.put_u64(9);
    w.put_u32(MAX_GROUP_REQUESTS as u32 + 1);
    let mut bytes = w.into_bytes();
    bytes.extend(std::iter::repeat_n(0u8, MAX_GROUP_REQUESTS + 64));
    assert_eq!(
        Envelope::from_bytes(&bytes).unwrap_err(),
        WireError::LengthOutOfRange
    );

    // And the response direction (message tag 8) enforces it too.
    let mut w = Writer::new();
    w.put_u16(PROTO_VERSION);
    w.put_u8(8);
    w.put_u64(9);
    w.put_u32(MAX_GROUP_REQUESTS as u32 + 1);
    let mut bytes = w.into_bytes();
    bytes.extend(std::iter::repeat_n(0u8, MAX_GROUP_REQUESTS + 64));
    assert_eq!(
        Envelope::from_bytes(&bytes).unwrap_err(),
        WireError::LengthOutOfRange
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random seeds generate random-but-valid protocol objects; all of
    /// them must roundtrip bit-exactly.
    #[test]
    fn roundtrip_holds_for_arbitrary_seeds(seed in any::<u64>()) {
        for envelope in sample_envelopes(seed) {
            let bytes = envelope.to_bytes();
            let back = Envelope::from_bytes(&bytes).unwrap();
            prop_assert_eq!(&back, &envelope);
            prop_assert_eq!(back.to_bytes(), bytes);
        }
    }

    /// Arbitrary junk never panics the decoder and never silently
    /// succeeds with the wrong version.
    #[test]
    fn junk_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(envelope) = Envelope::from_bytes(&junk) {
            prop_assert_eq!(envelope.version, PROTO_VERSION);
        }
    }

    /// Flipping any single byte of a valid envelope either fails with a
    /// typed error or still decodes (possibly to different content) —
    /// never panics, never over-reads.
    #[test]
    fn single_byte_corruption_is_safe(pos_seed in any::<u64>(), bit in 0u8..8) {
        let envelope = &sample_envelopes(0x5AFE_0074)[1]; // a RecoverShare group: biggest payload
        let mut bytes = envelope.to_bytes();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        let _ = Envelope::from_bytes(&bytes);
    }
}
