//! Datacenter orchestration tests: epochs with failures, GC budgets,
//! recovery routing, and cheating-provider detection.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin_authlog::auditor;
use safetypin_authlog::trie::MerkleTrie;
use safetypin_bfe::BfeParams;
use safetypin_hsm::types::{build_commit_payload, ciphertext_commit_hash};
use safetypin_hsm::{HsmConfig, PhaseCosts, RecoveryRequest, RecoveryResponse};
use safetypin_lhe::scheme::{encrypt_with_salt, reconstruct, select, Salt};
use safetypin_lhe::{BfeDirectory, LheParams};
use safetypin_primitives::commit;
use safetypin_primitives::shamir::Share;
use safetypin_primitives::wire::Encode;

use safetypin_proto::{HsmRequest, HsmResponse, SaveRequest};

use crate::{fanout, Datacenter, ProviderError};

const TOTAL: u64 = 8;

fn config(id: u64) -> HsmConfig {
    HsmConfig {
        id,
        bfe_params: BfeParams::new(128, 3).unwrap(),
        audits_per_epoch: 4,
        max_gc: 2,
        // Allow one failure: 8 - 1.
        min_signers: 7,
    }
}

fn datacenter() -> (Datacenter, StdRng) {
    let mut rng = StdRng::seed_from_u64(777);
    let dc = Datacenter::provision(TOTAL, config, &mut rng).unwrap();
    (dc, rng)
}

fn lhe_params() -> LheParams {
    LheParams::new(TOTAL, 4, 2, 10_000).unwrap()
}

#[test]
fn provision_and_enroll() {
    let (dc, _) = datacenter();
    assert_eq!(dc.fleet_size(), 8);
    let enrollments = dc.enrollments();
    assert_eq!(enrollments.len(), 8);
    for (i, e) in enrollments.iter().enumerate() {
        assert_eq!(e.id, i as u64);
        assert!(e.sig_vk.verify_possession(&e.sig_pop));
    }
}

#[test]
fn epoch_certifies_digest_on_all_hsms() {
    let (mut dc, _) = datacenter();
    dc.insert_log(b"user-1", b"commit-1").unwrap();
    dc.insert_log(b"user-2", b"commit-2").unwrap();
    let outcome = dc.run_epoch().unwrap();
    assert_eq!(outcome.signers.len(), 8);
    assert!(outcome.skipped.is_empty());
    for id in 0..TOTAL {
        assert_eq!(dc.hsm(id).unwrap().log_digest(), outcome.message.new_digest);
    }
    // Inclusion proof now verifies against the HSM-held digest.
    let proof = dc.prove_inclusion(b"user-1", b"commit-1").unwrap();
    assert!(MerkleTrie::does_include(
        &outcome.message.new_digest,
        b"user-1",
        b"commit-1",
        &proof
    ));
}

#[test]
fn epoch_survives_failed_hsm() {
    let (mut dc, _) = datacenter();
    dc.insert_log(b"u", b"v").unwrap();
    dc.hsm_mut(3).unwrap().fail();
    let outcome = dc.run_epoch().unwrap();
    assert_eq!(outcome.skipped, vec![3]);
    assert_eq!(outcome.signers.len(), 7);
    // Survivors updated; the failed HSM kept its stale digest.
    assert_eq!(dc.hsm(0).unwrap().log_digest(), outcome.message.new_digest);
    assert_ne!(dc.hsm(3).unwrap().log_digest(), outcome.message.new_digest);
}

#[test]
fn stale_restored_hsm_cannot_veto_the_fleet() {
    let (mut dc, _) = datacenter();
    dc.insert_log(b"a", b"1").unwrap();
    dc.run_epoch().unwrap();
    dc.hsm_mut(2).unwrap().fail();
    dc.insert_log(b"b", b"2").unwrap();
    dc.run_epoch().unwrap();
    // Plain restore, no resync: the HSM holds a stale digest. The next
    // epoch must proceed without its signature instead of aborting.
    dc.hsm_mut(2).unwrap().restore();
    dc.insert_log(b"c", b"3").unwrap();
    let outcome = dc.run_epoch().unwrap();
    assert_eq!(outcome.signers.len(), 7);
    assert!(outcome.skipped.is_empty());
    assert_ne!(dc.hsm(2).unwrap().log_digest(), outcome.message.new_digest);
}

#[test]
fn restore_hsm_replays_the_certified_chain() {
    let (mut dc, _) = datacenter();
    dc.insert_log(b"a", b"1").unwrap();
    dc.run_epoch().unwrap();
    dc.hsm_mut(3).unwrap().fail();
    dc.insert_log(b"b", b"2").unwrap();
    dc.run_epoch().unwrap();
    dc.insert_log(b"c", b"3").unwrap();
    let last = dc.run_epoch().unwrap();
    assert_ne!(dc.hsm(3).unwrap().log_digest(), last.message.new_digest);

    // Restore + resync: the HSM replays the two certified updates it
    // missed, re-verifying each quorum aggregate itself.
    let replayed = dc.restore_hsm(3).unwrap();
    assert_eq!(replayed, 2);
    assert_eq!(dc.hsm(3).unwrap().log_digest(), last.message.new_digest);

    // The resynced HSM signs the next epoch with the full fleet.
    dc.insert_log(b"d", b"4").unwrap();
    let next = dc.run_epoch().unwrap();
    assert_eq!(next.signers.len(), 8);
    assert!(next.skipped.is_empty());
    assert_eq!(dc.hsm(3).unwrap().log_digest(), next.message.new_digest);

    // Resync on a current HSM is a no-op.
    assert_eq!(dc.resync_hsm(3).unwrap(), 0);
}

#[test]
fn duplicate_log_insert_rejected() {
    let (mut dc, _) = datacenter();
    dc.insert_log(b"victim", b"attempt-1").unwrap();
    // A second recovery attempt for the same identifier is refused — this
    // is the global PIN-guess limit (§6).
    let err = dc.insert_log(b"victim", b"attempt-2").unwrap_err();
    assert!(matches!(err, ProviderError::Log(_)));
}

#[test]
fn end_to_end_recovery_through_datacenter() {
    let (mut dc, mut rng) = datacenter();
    let params = lhe_params();
    let enrollments = dc.enrollments();
    let bfe_pks: Vec<_> = enrollments.iter().map(|e| e.bfe_pk.clone()).collect();

    // Client-side backup.
    let salt = Salt::random(&mut rng);
    let dir = BfeDirectory::new(&bfe_pks, b"zoe", &salt);
    let ct = encrypt_with_salt(
        &params, &dir, b"zoe", b"123456", salt, 0, b"zoe-key", &mut rng,
    )
    .unwrap();
    let ct_bytes = ct.to_bytes();

    // Log the attempt, run the epoch, fetch the proof.
    let cluster = select(&params, &salt, b"123456");
    let payload = build_commit_payload(&cluster, &ciphertext_commit_hash(&ct_bytes));
    let (commitment, opening) = commit::commit(&payload, &mut rng);
    dc.insert_log(b"zoe", &commitment.to_bytes()).unwrap();
    dc.run_epoch().unwrap();
    let inclusion = dc.prove_inclusion(b"zoe", &commitment.to_bytes()).unwrap();

    // Contact each distinct cluster HSM through the datacenter: one
    // user's round is a wave of one.
    let mut by_hsm: std::collections::BTreeMap<u64, Vec<u32>> = Default::default();
    for (j, &i) in cluster.iter().enumerate() {
        by_hsm.entry(i).or_default().push(j as u32);
    }
    let round: Vec<(u64, RecoveryRequest)> = by_hsm
        .into_iter()
        .map(|(hsm_id, positions)| {
            let request = RecoveryRequest {
                username: b"zoe".to_vec(),
                salt,
                opening: opening.clone(),
                inclusion: inclusion.clone(),
                ciphertext: ct_bytes.clone(),
                share_indices: positions,
                recovery_pk: None,
            };
            (hsm_id, request)
        })
        .collect();
    let mut shares: Vec<Share> = Vec::new();
    for (_, reply) in dc.route_recovery(vec![round], &mut rng).unwrap().remove(0) {
        match reply {
            HsmResponse::RecoveryShare {
                response: RecoveryResponse::Plain(s),
            } => shares.extend(s),
            other => panic!("expected a plain share, got {other:?}"),
        }
    }
    let msg = reconstruct(&params, b"zoe", &ct, &shares[..params.threshold]).unwrap();
    assert_eq!(msg, b"zoe-key");

    // The round is on the fleet meter, and draining empties it.
    let served = dc.drain_fleet_costs();
    assert!(served.lhe.elgamal_decs >= params.cluster as u64);
    assert!(served.pe.aes_blocks > 0 && served.log.sha_ops > 0);
    assert_eq!(dc.drain_fleet_costs(), PhaseCosts::default());

    // The datacenter kept reply copies for replacement devices (§8).
    assert!(!dc.reply_copies_for(b"zoe").is_empty());
    assert!(dc.reply_copies_for(b"nobody").is_empty());
}

#[test]
fn garbage_collection_archives_and_is_bounded() {
    let (mut dc, _) = datacenter();
    dc.insert_log(b"a", b"1").unwrap();
    dc.run_epoch().unwrap();
    dc.garbage_collect().unwrap();
    assert_eq!(dc.archived_logs().len(), 1);
    assert_eq!(dc.archived_logs()[0].len(), 1);
    assert_eq!(dc.log_entries().len(), 0);
    // Identifier is insertable again after GC.
    dc.insert_log(b"a", b"2").unwrap();
    dc.garbage_collect().unwrap();
    // Third GC exceeds every HSM's budget (max_gc = 2).
    let err = dc.garbage_collect().unwrap_err();
    assert!(matches!(err, ProviderError::Hsm(_)));
}

#[test]
fn external_auditor_can_replay_provider_logs() {
    let (mut dc, _) = datacenter();
    dc.insert_log(b"m1", b"c1").unwrap();
    let o1 = dc.run_epoch().unwrap();
    let snapshot_old = dc.log_entries().to_vec();
    dc.insert_log(b"m2", b"c2").unwrap();
    let o2 = dc.run_epoch().unwrap();
    auditor::audit_transition(
        &snapshot_old,
        &o1.message.new_digest,
        dc.log_entries(),
        &o2.message.new_digest,
    )
    .unwrap();
}

#[test]
fn update_history_chains() {
    let (mut dc, _) = datacenter();
    dc.insert_log(b"x", b"1").unwrap();
    dc.run_epoch().unwrap();
    dc.insert_log(b"y", b"2").unwrap();
    dc.run_epoch().unwrap();
    let h = dc.update_history();
    assert_eq!(h.len(), 2);
    assert_eq!(h[0].new_digest, h[1].old_digest);
}

#[test]
fn rotation_queue_and_rotate() {
    let (mut dc, mut rng) = datacenter();
    assert!(dc.rotation_queue().is_empty());
    let before = dc.hsm(2).unwrap().key_epoch();
    dc.rotate_hsm(2, &mut rng).unwrap();
    assert_eq!(dc.hsm(2).unwrap().key_epoch(), before + 1);
    assert!(dc.rotate_hsm(99, &mut rng).is_err());
}

#[test]
fn fleet_costs_drain() {
    // The fleet meter holds recovery work only: provisioning, an epoch
    // and a rotation leave it empty.
    let (mut dc, mut rng) = datacenter();
    dc.insert_log(b"u", b"v").unwrap();
    dc.run_epoch().unwrap();
    dc.rotate_hsm(2, &mut rng).unwrap();
    assert_eq!(dc.drain_fleet_costs(), PhaseCosts::default());
}

#[test]
fn too_many_failures_block_epoch() {
    let (mut dc, _) = datacenter();
    dc.insert_log(b"u", b"v").unwrap();
    // Fail two HSMs: 6 signers < min_signers 7 ⇒ HSMs refuse the update.
    dc.hsm_mut(1).unwrap().fail();
    dc.hsm_mut(2).unwrap().fail();
    let err = dc.run_epoch().unwrap_err();
    assert!(matches!(err, ProviderError::Hsm(_)), "got {err:?}");
}

/// The per-HSM fan-out is unobservable: serving the same round on one
/// worker and on every core, from identically seeded fleets and RNGs,
/// yields byte-identical replies and leaves the caller's RNG in the
/// same state (seeds are drawn per device, in id order, before any
/// worker starts).
#[test]
fn fanout_outcome_is_independent_of_worker_count() {
    use rand::RngCore;
    let serve = |workers: usize| {
        let (mut dc, mut rng) = datacenter();
        // Rotation draws fresh keys from the device's RNG stream, so a
        // worker-dependent seed assignment would show in the replies.
        let round: Vec<(u64, Vec<HsmRequest>)> = (0..TOTAL)
            .rev()
            .map(|id| (id, vec![HsmRequest::RotateKeys, HsmRequest::GetEnrollment]))
            .collect();
        let replies = fanout::serve_grouped(&mut dc.hsms, &mut dc.stores, &mut rng, workers, round);
        let bytes: Vec<Vec<u8>> = replies
            .iter()
            .flat_map(|(_, group)| group.iter().map(|reply| reply.to_bytes()))
            .collect();
        (bytes, rng.next_u64())
    };
    let (one, rng_one) = serve(1);
    let (all, rng_all) = serve(usize::MAX);
    assert_eq!(one.len(), 2 * TOTAL as usize);
    assert_eq!(one, all, "replies must not depend on the worker count");
    assert_eq!(rng_one, rng_all, "caller RNG consumption must not either");
}

/// Every fleet round travels grouped, so the two retired traffic
/// classes are refused, never served: through `Direct` into the fleet's
/// serve side each gets a typed `UNSUPPORTED` reply, `Serialized` has
/// no envelope for them, and HSM 3 keeps its keys either way.
#[test]
fn solo_and_batch_traffic_are_refused_not_served() {
    use safetypin_proto::{
        codes, Direct, ProtoError, Serialized, Traffic, TrafficReply, Transport,
    };
    let (mut dc, mut rng) = datacenter();
    let retired = || {
        [
            Traffic::Single(3, HsmRequest::RotateKeys),
            Traffic::Batch(vec![(3, HsmRequest::RotateKeys)]),
        ]
    };
    for traffic in retired() {
        let mut serve = fanout::serve_traffic(&mut dc.hsms, &mut dc.stores, &mut rng);
        let replies = match Direct::new().round(traffic, &mut serve).unwrap() {
            TrafficReply::Single(reply) => vec![reply],
            TrafficReply::Batch(replies) => replies.into_iter().map(|(_, reply)| reply).collect(),
            other => panic!("reply in the wrong class: {other:?}"),
        };
        assert_eq!(replies.len(), 1);
        for reply in replies {
            assert!(
                matches!(&reply, HsmResponse::Error(e) if e.code == codes::UNSUPPORTED),
                "served: {reply:?}"
            );
        }
    }
    for traffic in retired() {
        let mut serve = fanout::serve_traffic(&mut dc.hsms, &mut dc.stores, &mut rng);
        let refused = Serialized::cdc().round(traffic, &mut serve);
        assert!(
            matches!(refused, Err(ProtoError::UnexpectedMessage(_))),
            "{refused:?}"
        );
    }
    assert_eq!(dc.hsm(3).unwrap().key_epoch(), 0);
}

/// Provisioning is likewise a pure function of the caller's RNG: one
/// worker and every core yield byte-identical fleets and leave the
/// caller's RNG in the same state.
#[test]
fn provisioning_is_independent_of_worker_count() {
    use rand::RngCore;
    let provision = |workers: usize| {
        let mut rng = StdRng::seed_from_u64(777);
        let configs = (0..TOTAL).map(config).collect();
        let fleet = fanout::provision_fleet(configs, workers, &mut rng).unwrap();
        let bytes: Vec<Vec<u8>> = fleet
            .iter()
            .map(|(hsm, _)| hsm.enrollment().to_bytes())
            .collect();
        (bytes, rng.next_u64())
    };
    let (one, rng_one) = provision(1);
    let (all, rng_all) = provision(usize::MAX);
    assert_eq!(one.len(), TOTAL as usize);
    assert_eq!(one, all, "fleet keys must not depend on the worker count");
    assert_eq!(rng_one, rng_all, "caller RNG consumption must not either");
}

/// A backup involves the client and the provider only (paper §3–4): a
/// save wave moves no HSM message, and lands with the whole fleet
/// fail-stopped.
#[test]
fn save_moves_no_hsm_traffic() {
    let (mut dc, _) = datacenter();
    let wave = |tag: &str| -> Vec<SaveRequest> {
        (0..3)
            .map(|i| SaveRequest {
                username: format!("{tag}-{i}").into_bytes(),
                blob: vec![i as u8; 40],
            })
            .collect()
    };
    let before = dc.transport_stats();
    let outcomes = dc.save_many(&wave("up"));
    assert!(outcomes.iter().all(|o| o.error.is_none()));
    let moved = dc.transport_stats().since(&before);
    assert_eq!((moved.envelopes, moved.messages), (0, 0));

    for id in 0..TOTAL {
        dc.hsm_mut(id).unwrap().fail();
    }
    let outcomes = dc.save_many(&wave("down"));
    assert!(outcomes.iter().all(|o| o.error.is_none()));
    assert_eq!(dc.log_entries().len(), 6);
    assert_eq!(dc.transport_stats().since(&before).messages, 0);
}

// ----------------------------------------------------------------------
// Journal replay: the journal is the provider's whole durable state
// ----------------------------------------------------------------------

/// A second datacenter over an identically seeded fleet that adopts a
/// copy of `dc`'s journal — what a restart does, minus the files.
fn replayed(dc: &mut Datacenter) -> Datacenter {
    use safetypin_seckv::{BlockStore, MemStore};
    let mut copy = MemStore::new();
    for addr in 0..dc.journal_len {
        copy.put(addr, &dc.journal.get(addr).unwrap());
    }
    let (mut twin, _) = datacenter();
    twin.attach_log_wal(Box::new(copy)).unwrap();
    twin
}

/// Provider state a replay must reproduce, plus what the *next* epoch
/// would cut from it.
fn assert_same_provider_state(a: &mut Datacenter, b: &mut Datacenter) {
    assert_eq!(a.log_digest(), b.log_digest());
    assert_eq!(a.log_entries(), b.log_entries());
    assert_eq!(a.log.pending_count(), b.log.pending_count());
    assert_eq!(a.log.generation(), b.log.generation());
    assert_eq!(a.archived_logs(), b.archived_logs());
    assert_eq!(a.update_history(), b.update_history());
    assert_eq!(a.chain_start, b.chain_start);
    assert_eq!(a.backups, b.backups);
    assert_eq!(a.reply_copies, b.reply_copies);
    let (cut_a, _) = a.log.plan_epoch(TOTAL as usize);
    let (cut_b, _) = b.log.plan_epoch(TOTAL as usize);
    assert_eq!(cut_a.old_digest, cut_b.old_digest);
    assert_eq!(cut_a.new_digest, cut_b.new_digest);
}

#[test]
fn journal_replay_mid_epoch() {
    let (mut dc, _) = datacenter();
    for i in 0..9 {
        dc.insert_log(format!("u{i}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    dc.run_epoch().unwrap();
    // Three more insertions pending mid-epoch.
    for i in 9..12 {
        dc.insert_log(format!("u{i}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    let mut twin = replayed(&mut dc);
    assert_eq!(twin.log.pending_count(), 3);
    assert_eq!(twin.update_history().len(), 1);
    assert_same_provider_state(&mut dc, &mut twin);
    // Inclusion proofs keep verifying against the replayed digest, and
    // a consumed identifier stays consumed.
    let proof = twin.prove_inclusion(b"u10", b"v10").unwrap();
    assert!(MerkleTrie::does_include(
        &twin.log_digest(),
        b"u10",
        b"v10",
        &proof
    ));
    assert!(twin.insert_log(b"u3", b"again").is_err());
    // The twin's devices catch up on the certified chain and then
    // certify the pending entries with the whole fleet.
    for id in 0..TOTAL {
        assert_eq!(twin.resync_hsm(id).unwrap(), 1);
    }
    assert_eq!(twin.run_epoch().unwrap().signers.len(), TOTAL as usize);
}

#[test]
fn journal_replay_after_save_waves() {
    let (mut dc, _) = datacenter();
    let wave = |from: usize, n: usize| -> Vec<SaveRequest> {
        (from..from + n)
            .map(|i| SaveRequest {
                username: format!("w{i}").into_bytes(),
                blob: format!("blob-{i}").into_bytes(),
            })
            .collect()
    };
    assert!(dc.save_many(&wave(0, 9)).iter().all(|o| o.error.is_none()));
    dc.run_epoch().unwrap();
    assert!(dc.save_many(&wave(9, 7)).iter().all(|o| o.error.is_none()));
    // A re-save under a new blob supersedes the stored backup.
    let newer = SaveRequest {
        username: b"w2".to_vec(),
        blob: b"blob-2-v2".to_vec(),
    };
    assert!(dc.save_many(&[newer]).iter().all(|o| o.error.is_none()));
    dc.insert_log(b"tail", b"t").unwrap();

    let twin = replayed(&mut dc);
    // A wave's entries replay one by one, so entry *order* inside a wave
    // may differ; the set — hence every digest — may not.
    let sorted = |dc: &Datacenter| {
        let mut ids: Vec<_> = dc.log_entries().iter().map(|e| e.id.clone()).collect();
        ids.sort();
        ids
    };
    assert_eq!(sorted(&dc), sorted(&twin));
    assert_eq!(dc.log_digest(), twin.log_digest());
    assert_eq!(dc.log.pending_count(), twin.log.pending_count());
    assert_eq!(dc.backups, twin.backups);
    assert_eq!(twin.backups.get(b"w2".as_slice()).unwrap(), b"blob-2-v2");
    let (cut_a, _) = dc.log.plan_epoch(4);
    let (cut_b, _) = twin.log.plan_epoch(4);
    assert_eq!(cut_a.old_digest, cut_b.old_digest);
    assert_eq!(cut_a.new_digest, cut_b.new_digest);
}

#[test]
fn journal_with_impossible_epoch_rejected() {
    use safetypin_seckv::{BlockStore, MemStore};
    let (mut dc, _) = datacenter();
    dc.insert_log(b"a", b"1").unwrap();
    dc.run_epoch().unwrap();
    // Records 0 (the insert) and 1 (the epoch) swapped: the epoch now
    // claims to certify entries the log does not hold yet.
    let mut swapped = MemStore::new();
    swapped.put(0, &dc.journal.get(1).unwrap());
    swapped.put(1, &dc.journal.get(0).unwrap());
    let (mut twin, _) = datacenter();
    assert!(matches!(
        twin.attach_log_wal(Box::new(swapped)),
        Err(ProviderError::Journal(_))
    ));
    // So is a record of an unknown kind, or one with trailing bytes.
    for junk in [vec![9u8], vec![crate::persist::GC, 0]] {
        let mut store = MemStore::new();
        store.put(0, &junk);
        let (mut twin, _) = datacenter();
        assert!(matches!(
            twin.attach_log_wal(Box::new(store)),
            Err(ProviderError::Journal(_))
        ));
    }
    // And a datacenter that already journaled state adopts nothing.
    assert!(matches!(
        dc.attach_log_wal(Box::new(MemStore::new())),
        Err(ProviderError::Journal(_))
    ));
}

#[test]
fn journal_replay_after_gc() {
    let (mut dc, _) = datacenter();
    dc.insert_log(b"a", b"1").unwrap();
    dc.run_epoch().unwrap();
    dc.garbage_collect().unwrap();
    dc.insert_log(b"b", b"2").unwrap();
    dc.run_epoch().unwrap();
    let mut twin = replayed(&mut dc);
    assert_eq!(twin.log.generation(), 1);
    assert_eq!(twin.log_entries().len(), 1);
    assert_eq!(twin.archived_logs().len(), 1);
    assert_eq!(twin.chain_start, 1);
    assert_same_provider_state(&mut dc, &mut twin);
    // A device still on the empty digest replays the current
    // generation's chain only — not the collected log's.
    assert_eq!(twin.resync_hsm(0).unwrap(), 1);
    assert_eq!(twin.hsm(0).unwrap().log_digest(), twin.log_digest());
}
