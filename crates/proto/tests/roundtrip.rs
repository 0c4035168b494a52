//! Codec conformance for every proto message: `encode ∘ decode = id`
//! round-trips, pinned bytes, plus strict-decoding negative tests
//! (truncation at every prefix length, trailing bytes, unknown version
//! tags, every count cap) — the guarantees that make the envelope format
//! safe to speak over a real link.

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

/// `share_ct_at` decodes one share and steps over its siblings: on a real
/// recovery ciphertext it returns exactly the share a full decode holds
/// at every position, and refuses a missing position, a truncation at
/// any length and a trailing byte.
#[test]
fn share_ct_at_agrees_with_a_full_decode() {
    use safetypin_bfe::BfeCiphertext;
    use safetypin_lhe::{BfeDirectory, LheCiphertext, LheParams};
    use safetypin_proto::messages::share_ct_at;

    let mut rng = StdRng::seed_from_u64(0x5AFE_0076);
    let mut store = safetypin_seckv::MemStore::new();
    let keys: Vec<_> = (0..4)
        .map(|_| {
            safetypin_bfe::keygen(
                safetypin_bfe::BfeParams::new(32, 2).unwrap(),
                &mut store,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let params = LheParams::new(4, 3, 2, 100).unwrap();
    let salt = safetypin_lhe::Salt::random(&mut rng);
    let dir = BfeDirectory::new(&keys, b"carol", &salt);
    let ct = safetypin_lhe::scheme::encrypt_with_salt(
        &params, &dir, b"carol", b"42", salt, 0, b"secret", &mut rng,
    )
    .unwrap();
    let bytes = ct.to_bytes();
    let full = LheCiphertext::<BfeCiphertext>::from_bytes(&bytes).unwrap();
    assert_eq!(full.share_cts.len(), 3);
    for (j, share) in full.share_cts.iter().enumerate() {
        assert_eq!(&share_ct_at(&bytes, j as u32).unwrap(), share, "share {j}");
    }
    assert!(share_ct_at(&bytes, 3).is_err());
    for cut in 0..bytes.len() {
        assert!(share_ct_at(&bytes[..cut], 0).is_err(), "cut {cut}");
    }
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(share_ct_at(&trailing, 0).is_err());
}

/// `encoded_len` counts bytes through a length-only writer instead of
/// building them; the count must be the encoding's length exactly, for
/// every sampled envelope and the message inside it.
#[test]
fn encoded_len_counts_every_sampled_envelope_exactly() {
    for (i, envelope) in sample_envelopes(0x5AFE_0071).into_iter().enumerate() {
        assert_eq!(
            envelope.encoded_len(),
            envelope.to_bytes().len(),
            "envelope {i}"
        );
        assert_eq!(
            envelope.msg.encoded_len(),
            envelope.msg.to_bytes().len(),
            "message {i}"
        );
    }
}

/// The corpus's bytes are pinned: a codec change that moved any field
/// of any variant — a swapped pair, a new count width, a renumbered tag
/// — round-trips just as well, so only a golden catches it. The digest
/// is `hash_parts` over the envelopes' encodings in corpus order.
#[test]
fn every_message_variant_encodes_to_the_pinned_bytes() {
    use safetypin_primitives::hashes::{hash_parts, Domain};

    let encodings: Vec<Vec<u8>> = sample_envelopes(0x5AFE_0071)
        .iter()
        .map(Encode::to_bytes)
        .collect();
    let parts: Vec<&[u8]> = encodings.iter().map(Vec::as_slice).collect();
    let hex: String = hash_parts(Domain::LogEntry, &parts)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        (encodings.len(), parts.iter().map(|p| p.len()).sum()),
        (50, 11_847)
    );
    assert_eq!(
        hex,
        "f8c1d839cad7bf785da3f19b900e63e77a175cdca3b53346943062317a94321d"
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

/// One row of the count-cap table: the row's name, the envelope bytes
/// before the count, one valid item, the bytes after the sequence, and the
/// cap.
type CapRow = (&'static str, Vec<u8>, Vec<u8>, Vec<u8>, usize);

/// Every count cap a decoder enforces, one row per counted field.
fn count_cap_rows() -> Vec<CapRow> {
    use safetypin_proto::{
        MAX_CLUSTER, MAX_GROUP_REQUESTS, MAX_METRICS_SERIES, MAX_RECOVER_BATCH_USERS,
        MAX_SAVE_BATCH_USERS, MAX_SNAPSHOT_HSMS,
    };

    let head = |tags: &[u8]| [&PROTO_VERSION.to_be_bytes()[..], tags].concat();

    // A one-HSM `Recover` whose request has no share indices and no reply
    // key: its last five bytes are the empty index count and `None`.
    let request = RecoveryRequest {
        username: b"alice".to_vec(),
        salt: safetypin_lhe::Salt([7; 32]),
        opening: commit::Opening {
            payload: b"cluster || ct-hash".to_vec(),
            randomness: [9; 32],
        },
        inclusion: Default::default(),
        ciphertext: vec![0xA5; 16],
        share_indices: Vec::new(),
        recovery_pk: None,
    };
    let recover = Envelope::seal(Message::ProviderRequest(ProviderRequest::Recover(vec![(
        1, request,
    )])))
    .to_bytes();
    let snapshot = SnapshotMeta {
        proto_version: PROTO_VERSION,
        fleet_size: 16,
        epoch_count: 3,
        log_generation: 1,
        key_epochs: Vec::new(),
    };
    let snapshot = Envelope::seal(Message::SnapshotMeta(snapshot)).to_bytes();
    let save = SaveRequest {
        username: Vec::new(),
        blob: Vec::new(),
    };
    let outcome = SaveOutcome {
        username: Vec::new(),
        error: None,
    };
    let summary = HistogramSummary {
        name: String::new(),
        count: 0,
        sum: 0,
        min: 0,
        max: 0,
        p50: 0,
        p95: 0,
        p99: 0,
    };
    let empty_seq = 0u32.to_be_bytes();
    let hsm = 9u64.to_be_bytes();

    vec![
        // ProviderRequest (message tag 4) RecoverBatch (variant tag 6):
        // each user is an empty per-HSM round.
        (
            "RecoverBatch",
            head(&[4, 6]),
            empty_seq.to_vec(),
            vec![],
            MAX_RECOVER_BATCH_USERS,
        ),
        // ProviderResponse (5) RecoveredBatch (7), the same shape back.
        (
            "RecoveredBatch",
            head(&[5, 7]),
            empty_seq.to_vec(),
            vec![],
            MAX_RECOVER_BATCH_USERS,
        ),
        // ProviderRequest (4) SaveBatch (11), and ProviderResponse (5)
        // SavedBatch (10).
        (
            "SaveBatch",
            head(&[4, 11]),
            save.to_bytes(),
            vec![],
            MAX_SAVE_BATCH_USERS,
        ),
        (
            "SavedBatch",
            head(&[5, 10]),
            outcome.to_bytes(),
            vec![],
            MAX_SAVE_BATCH_USERS,
        ),
        // ProviderResponse (5) Metrics (11): counters, gauges, histograms.
        (
            "Metrics.counters",
            head(&[5, 11]),
            (String::new(), 0u64).to_bytes(),
            [empty_seq; 2].concat(),
            MAX_METRICS_SERIES,
        ),
        (
            "Metrics.gauges",
            [head(&[5, 11]), empty_seq.to_vec()].concat(),
            (String::new(), -1i64).to_bytes(),
            empty_seq.to_vec(),
            MAX_METRICS_SERIES,
        ),
        (
            "Metrics.histograms",
            [head(&[5, 11]), [empty_seq; 2].concat()].concat(),
            summary.to_bytes(),
            vec![],
            MAX_METRICS_SERIES,
        ),
        // HsmGroupRequest (7) of `GetEnrollment`s and HsmGroupResponse
        // (8) of `Ack`s, after the HSM id.
        (
            "HsmGroupRequest",
            [head(&[7]), hsm.to_vec()].concat(),
            vec![0],
            vec![],
            MAX_GROUP_REQUESTS,
        ),
        (
            "HsmGroupResponse",
            [head(&[8]), hsm.to_vec()].concat(),
            vec![3],
            vec![],
            MAX_GROUP_REQUESTS,
        ),
        // RecoveryRequest.share_indices, inside a one-HSM `Recover`.
        (
            "RecoveryRequest.share_indices",
            recover[..recover.len() - 5].to_vec(),
            7u32.to_be_bytes().to_vec(),
            vec![0],
            MAX_CLUSTER,
        ),
        // SnapshotMeta (6).key_epochs, the envelope's last field.
        (
            "SnapshotMeta.key_epochs",
            snapshot[..snapshot.len() - 4].to_vec(),
            2u64.to_be_bytes().to_vec(),
            vec![],
            MAX_SNAPSHOT_HSMS,
        ),
    ]
}

/// Checks the count-cap rows named in `names` (every row when `names` is
/// empty). A frame declaring `cap + 1` items and carrying all of them is
/// refused with a typed error before any item parses, so only the cap can
/// refuse it; the same frame with `cap` items decodes.
fn assert_count_caps(names: &[&str]) {
    let rows: Vec<CapRow> = count_cap_rows()
        .into_iter()
        .filter(|row| names.is_empty() || names.contains(&row.0))
        .collect();
    assert!(
        names.is_empty() || rows.len() == names.len(),
        "unknown row in {names:?}"
    );
    for (name, prefix, item, suffix, cap) in rows {
        let frame = |count: usize| {
            let mut bytes = prefix.clone();
            bytes.reserve(4 + count * item.len() + suffix.len());
            bytes.extend_from_slice(&u32::try_from(count).unwrap().to_be_bytes());
            for _ in 0..count {
                bytes.extend_from_slice(&item);
            }
            bytes.extend_from_slice(&suffix);
            bytes
        };
        assert_eq!(
            Envelope::from_bytes(&frame(cap + 1)).err(),
            Some(WireError::LengthOutOfRange),
            "{name}: cap {cap} + 1"
        );
        Envelope::from_bytes(&frame(cap)).unwrap_or_else(|e| panic!("{name}: cap {cap}: {e}"));
    }
}

/// The whole count-cap table.
#[test]
fn every_count_cap_refuses_one_over_and_admits_the_cap() {
    assert_count_caps(&[]);
}

/// The engine's recovery batch caps its user count in both directions.
#[test]
fn oversized_recover_batch_rejected_with_typed_error() {
    assert_count_caps(&["RecoverBatch", "RecoveredBatch"]);
}

/// Same ceiling on the save-path engine's wave, in both directions.
#[test]
fn oversized_save_batch_rejected_with_typed_error() {
    assert_count_caps(&["SaveBatch", "SavedBatch"]);
}

/// Every [`MetricsReport`] section caps its series count.
#[test]
fn oversized_metrics_report_rejected_with_typed_error() {
    assert_count_caps(&["Metrics.counters", "Metrics.gauges", "Metrics.histograms"]);
}

/// Same ceiling on the per-device group envelope, in both directions.
#[test]
fn oversized_hsm_group_rejected_with_typed_error() {
    assert_count_caps(&["HsmGroupRequest", "HsmGroupResponse"]);
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
