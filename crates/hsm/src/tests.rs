//! End-to-end HSM tests: the full §4.2 recovery check-list, the Figure 5
//! log-update protocol, key rotation, GC bounding, and failure injection.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin_authlog::distributed::{audit_draws, AuditError, EpochUpdate, UpdateMessage};
use safetypin_authlog::log::{EpochCut, Log};
use safetypin_authlog::trie::ExtensionProof;
use safetypin_bfe::{BfeCiphertext, BfeParams, BfePublicKey};
use safetypin_lhe::scheme::{encrypt_with_salt, reconstruct, select, Salt};
use safetypin_lhe::{BfeDirectory, LheCiphertext, LheParams};
use safetypin_multisig::aggregate_signatures;
use safetypin_primitives::commit;
use safetypin_primitives::elgamal;
use safetypin_primitives::shamir::Share;
use safetypin_primitives::wire::Encode;
use safetypin_seckv::MemStore;
use safetypin_sim::OpCosts;

use crate::types::{build_commit_payload, ciphertext_commit_hash};
use crate::{Hsm, HsmConfig, HsmError, HsmStatus, PhaseCosts, RecoveryRequest, RecoveryResponse};

const TOTAL: u64 = 8;

struct Fixture {
    params: LheParams,
    hsms: Vec<Hsm>,
    stores: Vec<MemStore>,
    bfe_pks: Vec<BfePublicKey>,
    log: Log,
    rng: StdRng,
}

fn fixture() -> Fixture {
    fixture_with_bfe(BfeParams::new(128, 3).unwrap())
}

fn fixture_with_bfe(bfe_params: BfeParams) -> Fixture {
    let mut rng = StdRng::seed_from_u64(20_20);
    let mut hsms = Vec::new();
    let mut stores = Vec::new();
    for id in 0..TOTAL {
        let mut store = MemStore::new();
        let config = HsmConfig {
            id,
            bfe_params,
            audits_per_epoch: 4,
            max_gc: 2,
            min_signers: TOTAL as usize,
        };
        let hsm = Hsm::provision(config, &mut store, &mut rng).unwrap();
        hsms.push(hsm);
        stores.push(store);
    }
    // Fleet registration with PoP checks.
    let fleet: Vec<_> = hsms
        .iter()
        .map(|h| {
            let e = h.enrollment();
            (e.sig_vk, e.sig_pop)
        })
        .collect();
    for h in hsms.iter_mut() {
        h.register_fleet(&fleet).unwrap();
    }
    let bfe_pks = hsms.iter().map(|h| h.bfe_public_key().clone()).collect();
    Fixture {
        params: LheParams::new(TOTAL, 4, 2, 10_000).unwrap(),
        hsms,
        stores,
        bfe_pks,
        log: Log::new(),
        rng,
    }
}

impl Fixture {
    /// Runs one epoch of the Figure 5 protocol across the whole fleet.
    fn run_epoch(&mut self) {
        let cut = self.log.cut_epoch(self.hsms.len());
        let update = EpochUpdate::build(&cut).unwrap();
        let msg = update.message();
        let mut sigs = Vec::new();
        for hsm in self.hsms.iter_mut() {
            let assignment = hsm.audit_assignment(&msg, &[], &[]);
            let packages: Vec<_> = assignment
                .iter()
                .map(|&c| update.audit_package(c).unwrap())
                .collect();
            sigs.push(hsm.audit_and_sign(&msg, &packages).unwrap());
        }
        let agg = aggregate_signatures(&sigs).unwrap();
        let signers: Vec<usize> = (0..self.hsms.len()).collect();
        for hsm in self.hsms.iter_mut() {
            hsm.accept_update(&msg, &signers, &agg).unwrap();
        }
    }

    fn backup(
        &mut self,
        username: &[u8],
        pin: &[u8],
        msg: &[u8],
    ) -> (LheCiphertext<BfeCiphertext>, Vec<u8>, Salt) {
        let salt = Salt::random(&mut self.rng);
        let dir = BfeDirectory::new(&self.bfe_pks, username, &salt);
        let ct = encrypt_with_salt(
            &self.params,
            &dir,
            username,
            pin,
            salt,
            0,
            msg,
            &mut self.rng,
        )
        .unwrap();
        let bytes = ct.to_bytes();
        (ct, bytes, salt)
    }

    /// Client-side recovery prep: commit, log, epoch, inclusion proof.
    fn log_recovery(
        &mut self,
        username: &[u8],
        pin: &[u8],
        ct_bytes: &[u8],
        salt: &Salt,
    ) -> (
        Vec<u64>,
        commit::Opening,
        safetypin_authlog::trie::InclusionProof,
    ) {
        let cluster = select(&self.params, salt, pin);
        let payload = build_commit_payload(&cluster, &ciphertext_commit_hash(ct_bytes));
        let (commitment, opening) = commit::commit(&payload, &mut self.rng);
        self.log.insert(username, &commitment.to_bytes()).unwrap();
        self.run_epoch();
        let inclusion = self
            .log
            .prove_includes(username, &commitment.to_bytes())
            .unwrap();
        (cluster, opening, inclusion)
    }

    /// Serves one recovery request through the HSM's message dispatch
    /// (`Hsm::handle`: a group of one), unwrapping the typed reply.
    fn recover_share(
        &mut self,
        hsm_id: u64,
        request: &RecoveryRequest,
        rng: &mut StdRng,
    ) -> Result<RecoveryResponse, HsmError> {
        use safetypin_proto::{HsmRequest, HsmResponse};
        let idx = hsm_id as usize;
        match self.hsms[idx].handle(
            HsmRequest::RecoverShare(request.clone()),
            &mut self.stores[idx],
            rng,
        ) {
            HsmResponse::RecoveryShare { response } => Ok(response),
            HsmResponse::Error(e) => Err((&e).into()),
            other => panic!("unexpected reply to RecoverShare: {other:?}"),
        }
    }

    /// Groups cluster positions by HSM id.
    fn grouped(cluster: &[u64]) -> std::collections::BTreeMap<u64, Vec<u32>> {
        let mut map: std::collections::BTreeMap<u64, Vec<u32>> = Default::default();
        for (j, &i) in cluster.iter().enumerate() {
            map.entry(i).or_default().push(j as u32);
        }
        map
    }
}

fn full_recovery(fx: &mut Fixture, username: &[u8], pin: &[u8], msg: &[u8]) -> Vec<u8> {
    let (ct, ct_bytes, salt) = fx.backup(username, pin, msg);
    let (cluster, opening, inclusion) = fx.log_recovery(username, pin, &ct_bytes, &salt);
    let mut shares: Vec<Share> = Vec::new();
    for (hsm_id, positions) in Fixture::grouped(&cluster) {
        let request = RecoveryRequest {
            username: username.to_vec(),
            salt,
            opening: opening.clone(),
            inclusion: inclusion.clone(),
            ciphertext: ct_bytes.clone(),
            share_indices: positions,
            recovery_pk: None,
        };
        let mut rng = StdRng::seed_from_u64(hsm_id);
        let response = fx.recover_share(hsm_id, &request, &mut rng).unwrap();
        match response {
            RecoveryResponse::Plain(s) => shares.extend(s),
            RecoveryResponse::Encrypted(_) => panic!("expected plain reply"),
        }
    }
    reconstruct(&fx.params, username, &ct, &shares[..fx.params.threshold]).unwrap()
}

#[test]
fn full_recovery_flow() {
    let mut fx = fixture();
    let msg = full_recovery(&mut fx, b"alice", b"314159", b"alice's disk key");
    assert_eq!(msg, b"alice's disk key");
}

#[test]
fn recovery_punctures_revoking_reuse() {
    let mut fx = fixture();
    let (_, ct_bytes, salt) = fx.backup(b"bob", b"271828", b"bob's key");
    let (cluster, opening, inclusion) = fx.log_recovery(b"bob", b"271828", &ct_bytes, &salt);
    let grouped = Fixture::grouped(&cluster);
    // First recovery succeeds.
    for (hsm_id, positions) in &grouped {
        let request = RecoveryRequest {
            username: b"bob".to_vec(),
            salt,
            opening: opening.clone(),
            inclusion: inclusion.clone(),
            ciphertext: ct_bytes.clone(),
            share_indices: positions.clone(),
            recovery_pk: None,
        };
        let mut rng = StdRng::seed_from_u64(*hsm_id);
        fx.recover_share(*hsm_id, &request, &mut rng).unwrap();
    }
    // A second pass fails everywhere: the keys are punctured.
    for (hsm_id, positions) in &grouped {
        let request = RecoveryRequest {
            username: b"bob".to_vec(),
            salt,
            opening: opening.clone(),
            inclusion: inclusion.clone(),
            ciphertext: ct_bytes.clone(),
            share_indices: positions.clone(),
            recovery_pk: None,
        };
        let mut rng = StdRng::seed_from_u64(*hsm_id);
        assert_eq!(
            fx.recover_share(*hsm_id, &request, &mut rng).unwrap_err(),
            HsmError::DecryptFailed
        );
    }
}

#[test]
fn unlogged_recovery_rejected() {
    let mut fx = fixture();
    let (_, ct_bytes, salt) = fx.backup(b"carol", b"111111", b"m");
    // Build a commitment but never log it; borrow another user's proof.
    let (_, dummy_opening, dummy_inclusion) =
        fx.log_recovery(b"other-user", b"999999", &ct_bytes, &salt);
    let cluster = select(&fx.params, &salt, b"111111");
    let payload = build_commit_payload(&cluster, &ciphertext_commit_hash(&ct_bytes));
    let (_, opening) = commit::commit(&payload, &mut fx.rng);
    let grouped = Fixture::grouped(&cluster);
    let (hsm_id, positions) = grouped.into_iter().next().unwrap();
    let request = RecoveryRequest {
        username: b"carol".to_vec(),
        salt,
        opening,
        inclusion: dummy_inclusion, // proof for a different (user, value)
        ciphertext: ct_bytes,
        share_indices: positions,
        recovery_pk: None,
    };
    let mut rng = StdRng::seed_from_u64(1);
    assert_eq!(
        fx.recover_share(hsm_id, &request, &mut rng).unwrap_err(),
        HsmError::BadInclusionProof
    );
    let _ = dummy_opening;
}

#[test]
fn ciphertext_substitution_rejected() {
    let mut fx = fixture();
    let (_, ct_bytes, salt) = fx.backup(b"dave", b"222222", b"real");
    let (_, other_bytes, _) = fx.backup(b"dave2", b"222222", b"fake");
    let (cluster, opening, inclusion) = fx.log_recovery(b"dave", b"222222", &ct_bytes, &salt);
    let (hsm_id, positions) = Fixture::grouped(&cluster).into_iter().next().unwrap();
    // Present a different ciphertext than the committed one.
    let request = RecoveryRequest {
        username: b"dave".to_vec(),
        salt,
        opening,
        inclusion,
        ciphertext: other_bytes,
        share_indices: positions,
        recovery_pk: None,
    };
    let mut rng = StdRng::seed_from_u64(2);
    assert_eq!(
        fx.recover_share(hsm_id, &request, &mut rng).unwrap_err(),
        HsmError::CiphertextMismatch
    );
}

#[test]
fn wrong_cluster_slot_rejected() {
    let mut fx = fixture();
    let (_, ct_bytes, salt) = fx.backup(b"erin", b"333333", b"m");
    let (cluster, opening, inclusion) = fx.log_recovery(b"erin", b"333333", &ct_bytes, &salt);
    // Ask an HSM that is NOT the member at slot 0 to serve slot 0.
    let wrong_hsm = (0..TOTAL).find(|i| *i != cluster[0]).unwrap();
    let request = RecoveryRequest {
        username: b"erin".to_vec(),
        salt,
        opening,
        inclusion,
        ciphertext: ct_bytes,
        share_indices: vec![0],
        recovery_pk: None,
    };
    let mut rng = StdRng::seed_from_u64(3);
    assert_eq!(
        fx.recover_share(wrong_hsm, &request, &mut rng).unwrap_err(),
        HsmError::NotInCluster
    );
}

#[test]
fn per_recovery_encrypted_reply() {
    let mut fx = fixture();
    let (ct, ct_bytes, salt) = fx.backup(b"frank", b"444444", b"frank's key");
    let (cluster, opening, inclusion) = fx.log_recovery(b"frank", b"444444", &ct_bytes, &salt);
    let recovery_kp = elgamal::KeyPair::generate(&mut fx.rng);
    let context = safetypin_lhe::scheme::share_context(b"frank", &salt);
    let mut shares: Vec<Share> = Vec::new();
    for (hsm_id, positions) in Fixture::grouped(&cluster) {
        let request = RecoveryRequest {
            username: b"frank".to_vec(),
            salt,
            opening: opening.clone(),
            inclusion: inclusion.clone(),
            ciphertext: ct_bytes.clone(),
            share_indices: positions,
            recovery_pk: Some(recovery_kp.pk),
        };
        let mut rng = StdRng::seed_from_u64(hsm_id + 100);
        let response = fx.recover_share(hsm_id, &request, &mut rng).unwrap();
        assert!(matches!(response, RecoveryResponse::Encrypted(_)));
        shares.extend(response.open(Some(&recovery_kp.sk), &context).unwrap());
    }
    let msg = reconstruct(&fx.params, b"frank", &ct, &shares[..fx.params.threshold]).unwrap();
    assert_eq!(msg, b"frank's key");
}

#[test]
fn epoch_update_rejects_stale_and_bad_sets() {
    let mut fx = fixture();
    // One insertion per HSM: eight chunks, four draws each, so the
    // assignments differ between devices.
    for i in 0..TOTAL {
        fx.log.insert(format!("x{i}").as_bytes(), b"1").unwrap();
    }
    let cut = fx.log.cut_epoch(fx.hsms.len());
    let update = EpochUpdate::build(&cut).unwrap();
    let msg = update.message();

    // Wrong audit set: HSM 0 given another HSM's packages.
    let own_assignment = fx.hsms[0].audit_assignment(&msg, &[], &[]);
    let other_assignment = fx.hsms[1..]
        .iter()
        .map(|h| h.audit_assignment(&msg, &[], &[]))
        .find(|a| *a != own_assignment)
        .expect("some HSM draws a different set");
    let other_packages: Vec<_> = other_assignment
        .iter()
        .map(|&c| update.audit_package(c).unwrap())
        .collect();
    assert_eq!(
        fx.hsms[0]
            .audit_and_sign(&msg, &other_packages)
            .unwrap_err(),
        HsmError::WrongAuditSet
    );

    // Stale digest: bump the message's old digest.
    let mut stale = msg;
    stale.old_digest[0] ^= 1;
    let packages: Vec<_> = fx.hsms[0]
        .audit_assignment(&stale, &[], &[])
        .iter()
        .map(|&c| update.audit_package(c).unwrap())
        .collect();
    assert_eq!(
        fx.hsms[0].audit_and_sign(&stale, &packages).unwrap_err(),
        HsmError::StaleDigest
    );
}

#[test]
fn aggregate_quorum_enforced() {
    let mut fx = fixture();
    fx.log.insert(b"y", b"1").unwrap();
    let cut = fx.log.cut_epoch(fx.hsms.len());
    let update = EpochUpdate::build(&cut).unwrap();
    let msg = update.message();
    let mut sigs = Vec::new();
    for hsm in fx.hsms.iter_mut() {
        let packages: Vec<_> = hsm
            .audit_assignment(&msg, &[], &[])
            .iter()
            .map(|&c| update.audit_package(c).unwrap())
            .collect();
        sigs.push(hsm.audit_and_sign(&msg, &packages).unwrap());
    }
    // Quorum of 7 < min_signers = 8 rejected.
    let partial = aggregate_signatures(&sigs[..7]).unwrap();
    let partial_signers: Vec<usize> = (0..7).collect();
    assert!(matches!(
        fx.hsms[0].accept_update(&msg, &partial_signers, &partial),
        Err(HsmError::QuorumTooSmall { got: 7, need: 8 })
    ));
    // Forged aggregate (full signer list, truncated signature set).
    let all_signers: Vec<usize> = (0..8).collect();
    assert_eq!(
        fx.hsms[0]
            .accept_update(&msg, &all_signers, &partial)
            .unwrap_err(),
        HsmError::BadAggregate
    );
    // Duplicate signer indices rejected.
    let full = aggregate_signatures(&sigs).unwrap();
    let dup_signers = vec![0usize, 0, 1, 2, 3, 4, 5, 6];
    assert_eq!(
        fx.hsms[0]
            .accept_update(&msg, &dup_signers, &full)
            .unwrap_err(),
        HsmError::BadAggregate
    );
    // Honest full aggregate accepted.
    fx.hsms[0].accept_update(&msg, &all_signers, &full).unwrap();
    assert_eq!(fx.hsms[0].log_digest(), msg.new_digest);
}

#[test]
fn zero_chunk_epoch_is_refused() {
    // An update that commits to no chunk has an empty audit set: nothing
    // would be verified, so a signature over it would let the provider
    // install any digest it likes. Every HSM refuses before anything else.
    let mut fx = fixture();
    fx.log.insert(b"real", b"1").unwrap();
    fx.run_epoch();
    let held = fx.hsms[0].log_digest();
    let forged = UpdateMessage {
        old_digest: held,
        new_digest: [0xAA; 32],
        root: [0x55; 32],
        chunk_count: 0,
    };
    for (hsm, store) in fx.hsms.iter_mut().zip(fx.stores.iter_mut()) {
        assert_eq!(
            hsm.audit_and_sign(&forged, &[]).unwrap_err(),
            HsmError::Audit(AuditError::NoChunks)
        );
        // As the provider sends it: a typed refusal, no signature.
        let request = safetypin_proto::HsmRequest::AuditAndSign {
            message: forged,
            active_ids: (0..TOTAL).collect(),
            failed_ids: Vec::new(),
            packages: Vec::new(),
        };
        match hsm.handle(request, store, &mut fx.rng) {
            safetypin_proto::HsmResponse::Error(e) => {
                assert_eq!(e.code, safetypin_proto::codes::AUDIT_FAILED)
            }
            other => panic!("zero-chunk update answered with {other:?}"),
        }
    }
    // No signature exists to aggregate, and nobody moved.
    assert!(fx.hsms.iter().all(|h| h.log_digest() == held));
    assert_ne!(held, [0xAA; 32]);
}

#[test]
fn inflated_chunk_count_cannot_dilute_audits() {
    // One real insertion hidden in a 4096-chunk epoch (4095 empty
    // chunks). The honest log never cuts this, so it is built by hand.
    // With a fixed C = 4 draws of 4096, the one chunk that matters would
    // almost surely be audited by nobody; the rate rule makes every HSM
    // draw ⌈C·K/N⌉ = 2048.
    const K: u32 = 4096;
    let mut fx = fixture();
    fx.log.insert(b"victim", b"attempt").unwrap();
    let honest = fx.log.cut_epoch(fx.hsms.len());
    assert_eq!(honest.chunk_proofs.len(), 1);
    let mut chunk_proofs = honest.chunk_proofs.clone();
    chunk_proofs.resize(K as usize, ExtensionProof::default());
    let inflated = EpochCut {
        chunk_proofs,
        ..honest
    };
    let update = EpochUpdate::build(&inflated).unwrap();
    let msg = update.message();
    assert_eq!(msg.chunk_count, K);

    let draws = audit_draws(K, 4, TOTAL as usize);
    assert_eq!(draws, 2048);
    let mut auditors_of_the_real_chunk = 0;
    for hsm in fx.hsms.iter_mut() {
        let expected = hsm.audit_assignment(&msg, &[], &[]);
        // Distinct chunks out of 2048 draws with replacement from 4096:
        // about 1612; far more than C either way.
        assert!(expected.len() > 1024 && expected.len() <= draws as usize);
        auditors_of_the_real_chunk += usize::from(expected.contains(&0));

        // A provider shipping only C packages — the first four of the
        // expected set — is refused.
        let short: Vec<_> = expected
            .iter()
            .take(4)
            .map(|&c| update.audit_package(c).unwrap())
            .collect();
        assert_eq!(
            hsm.audit_and_sign(&msg, &short).unwrap_err(),
            HsmError::WrongAuditSet
        );
    }
    assert!(
        auditors_of_the_real_chunk >= 1,
        "the only non-empty chunk escaped every auditor"
    );

    // Shipping the full expected set is what it takes to get signatures.
    let expected = fx.hsms[0].audit_assignment(&msg, &[], &[]);
    let full: Vec<_> = expected
        .iter()
        .map(|&c| update.audit_package(c).unwrap())
        .collect();
    fx.hsms[0].audit_and_sign(&msg, &full).unwrap();
}

#[test]
fn gc_budget_enforced() {
    let mut fx = fixture();
    fx.hsms[0].garbage_collect().unwrap();
    fx.hsms[0].garbage_collect().unwrap();
    assert_eq!(
        fx.hsms[0].garbage_collect().unwrap_err(),
        HsmError::GcLimitReached
    );
    assert_eq!(fx.hsms[0].gc_count(), 2);
}

#[test]
fn key_rotation_resets_punctures() {
    let mut fx = fixture();
    let (_, ct_bytes, salt) = fx.backup(b"gina", b"555555", b"m");
    let (cluster, opening, inclusion) = fx.log_recovery(b"gina", b"555555", &ct_bytes, &salt);
    let (hsm_id, positions) = Fixture::grouped(&cluster).into_iter().next().unwrap();
    let request = RecoveryRequest {
        username: b"gina".to_vec(),
        salt,
        opening,
        inclusion,
        ciphertext: ct_bytes,
        share_indices: positions,
        recovery_pk: None,
    };
    let mut rng = StdRng::seed_from_u64(7);
    fx.recover_share(hsm_id, &request, &mut rng).unwrap();
    assert_eq!(fx.hsms[hsm_id as usize].punctures(), 1);
    let old_pk = fx.hsms[hsm_id as usize].bfe_public_key().clone();
    let (new_pk, report) = fx.hsms[hsm_id as usize]
        .rotate_keys(&mut fx.stores[hsm_id as usize], &mut rng)
        .unwrap();
    assert_ne!(new_pk, old_pk);
    assert_eq!(report.group_ops, 128);
    assert_eq!(fx.hsms[hsm_id as usize].punctures(), 0);
    assert_eq!(fx.hsms[hsm_id as usize].key_epoch(), 1);
}

#[test]
fn failed_hsm_unavailable() {
    let mut fx = fixture();
    fx.hsms[0].fail();
    assert_eq!(fx.hsms[0].status(), HsmStatus::Failed);
    assert_eq!(
        fx.hsms[0].garbage_collect().unwrap_err(),
        HsmError::Unavailable
    );
    fx.hsms[0].restore();
    assert_eq!(fx.hsms[0].status(), HsmStatus::Active);
    fx.hsms[0].garbage_collect().unwrap();
}

#[test]
fn compromise_exfiltrates_but_punctured_data_stays_safe() {
    let mut fx = fixture();
    let state = fx.hsms[0].compromise();
    assert_eq!(fx.hsms[0].status(), HsmStatus::Compromised);
    // The exfiltrated identity key matches the published one.
    assert_eq!(state.identity_sk.public_key(), fx.hsms[0].identity_pk());
    // Compromised HSMs keep serving (stealthy attacker).
    assert!(fx.hsms[0].garbage_collect().is_ok());
}

#[test]
fn costs_are_metered() {
    let mut fx = fixture();
    // Provisioning and fleet registration are not recovery work: the
    // meter starts empty.
    assert!(fx.hsms.iter().all(|h| h.costs() == PhaseCosts::default()));
    let _ = full_recovery(&mut fx, b"hank", b"666666", b"m");
    let mut served = PhaseCosts::default();
    for h in &fx.hsms {
        served.add(&h.costs());
    }
    assert!(
        served.lhe.elgamal_decs >= fx.params.cluster as u64,
        "decryptions metered: {}",
        served.lhe.elgamal_decs
    );
    assert!(
        served.pe.io_bytes > 0 && served.pe.aes_blocks > 0,
        "store traffic metered"
    );
    assert!(
        served.log.sha_ops > 0 && served.log.io_messages > 0,
        "log checks metered"
    );
    assert_eq!(
        served.pke,
        OpCosts::new(),
        "plain replies do no public-key work"
    );
    let id = (0..fx.hsms.len())
        .find(|&i| fx.hsms[i].costs() != PhaseCosts::default())
        .unwrap();
    let drained = fx.hsms[id].take_costs();
    assert_ne!(drained, PhaseCosts::default());
    assert_eq!(fx.hsms[id].costs(), PhaseCosts::default());
}

#[test]
fn rogue_fleet_key_rejected() {
    let mut fx = fixture();
    let honest = fx.hsms[0].enrollment();
    let rogue_sk = safetypin_multisig::SigningKey::generate(&mut fx.rng);
    // PoP from the wrong key.
    let mismatched = vec![(honest.sig_vk, rogue_sk.prove_possession())];
    assert_eq!(
        fx.hsms[1].register_fleet(&mismatched).unwrap_err(),
        HsmError::BadProofOfPossession
    );
}

#[test]
fn request_wire_roundtrip() {
    let mut fx = fixture();
    let (_, ct_bytes, salt) = fx.backup(b"ivy", b"777777", b"m");
    let (cluster, opening, inclusion) = fx.log_recovery(b"ivy", b"777777", &ct_bytes, &salt);
    let request = RecoveryRequest {
        username: b"ivy".to_vec(),
        salt,
        opening,
        inclusion,
        ciphertext: ct_bytes,
        share_indices: Fixture::grouped(&cluster).into_iter().next().unwrap().1,
        recovery_pk: None,
    };
    use safetypin_primitives::wire::Decode;
    let back = RecoveryRequest::from_bytes(&request.to_bytes()).unwrap();
    assert_eq!(back, request);
}

// ---------------------------------------------------------------------
// Grouped serving (handle_batch): cross-user coalescing + group commit
// ---------------------------------------------------------------------

/// Client-side prep shared by the grouped-serving tests: two users back
/// up, both attempts are logged under ONE epoch, and the per-HSM request
/// groups are assembled in user order.
#[expect(
    clippy::type_complexity,
    reason = "a test fixture's one-off tuple, read positionally by its callers"
)]
fn two_user_round(
    fx: &mut Fixture,
) -> (
    Vec<(Vec<u8>, LheCiphertext<BfeCiphertext>)>,
    std::collections::BTreeMap<u64, Vec<RecoveryRequest>>,
) {
    let users: [(&[u8], &[u8], &[u8]); 2] = [
        (b"storm-1", b"111111", b"key one"),
        (b"storm-2", b"222222", b"key two"),
    ];
    let mut backups = Vec::new();
    let mut staged = Vec::new();
    for &(username, pin, msg) in &users {
        let (ct, ct_bytes, salt) = fx.backup(username, pin, msg);
        let cluster = select(&fx.params, &salt, pin);
        let payload = build_commit_payload(&cluster, &ciphertext_commit_hash(&ct_bytes));
        let (commitment, opening) = commit::commit(&payload, &mut fx.rng);
        fx.log.insert(username, &commitment.to_bytes()).unwrap();
        staged.push((
            username,
            salt,
            cluster,
            opening,
            commitment,
            ct_bytes.clone(),
        ));
        backups.push((username.to_vec(), ct));
    }
    // One epoch certifies BOTH attempts — the cross-user amortization.
    fx.run_epoch();
    let mut groups: std::collections::BTreeMap<u64, Vec<RecoveryRequest>> = Default::default();
    for (username, salt, cluster, opening, commitment, ct_bytes) in staged {
        let inclusion = fx
            .log
            .prove_includes(username, &commitment.to_bytes())
            .unwrap();
        for (hsm_id, positions) in Fixture::grouped(&cluster) {
            groups.entry(hsm_id).or_default().push(RecoveryRequest {
                username: username.to_vec(),
                salt,
                opening: opening.clone(),
                inclusion: inclusion.clone(),
                ciphertext: ct_bytes.clone(),
                share_indices: positions,
                recovery_pk: None,
            });
        }
    }
    (backups, groups)
}

#[test]
fn handle_batch_matches_serial_serving_byte_for_byte() {
    use safetypin_proto::{HsmRequest, HsmResponse};
    // Identically-seeded twin fixtures: A serves each request through
    // `handle` (one flush per request), B serves each HSM's whole group
    // through `handle_batch` (coalesced punctures, one flush per group).
    let mut fx_a = fixture();
    let mut fx_b = fixture();
    let (_, groups_a) = two_user_round(&mut fx_a);
    let (_, groups_b) = two_user_round(&mut fx_b);
    assert_eq!(
        groups_a.keys().collect::<Vec<_>>(),
        groups_b.keys().collect::<Vec<_>>(),
        "identical seeds must produce identical rounds"
    );

    for (hsm_id, requests) in groups_b {
        let serial = &groups_a[&hsm_id];
        let mut rng_a = StdRng::seed_from_u64(hsm_id);
        let serial_responses: Vec<HsmResponse> = serial
            .iter()
            .map(|req| {
                fx_a.hsms[hsm_id as usize].handle(
                    HsmRequest::RecoverShare(req.clone()),
                    &mut fx_a.stores[hsm_id as usize],
                    &mut rng_a,
                )
            })
            .collect();
        let mut rng_b = StdRng::seed_from_u64(hsm_id);
        let grouped_responses = fx_b.hsms[hsm_id as usize].handle_batch(
            requests.into_iter().map(HsmRequest::RecoverShare).collect(),
            &mut fx_b.stores[hsm_id as usize],
            &mut rng_b,
        );
        assert_eq!(serial_responses.len(), grouped_responses.len());
        for (s, g) in serial_responses.iter().zip(&grouped_responses) {
            match (s, g) {
                (
                    HsmResponse::RecoveryShare { response: rs },
                    HsmResponse::RecoveryShare { response: rg },
                ) => assert_eq!(
                    rs.to_bytes(),
                    rg.to_bytes(),
                    "grouped serving must release byte-identical shares"
                ),
                (HsmResponse::Error(es), HsmResponse::Error(eg)) => {
                    assert_eq!(es.code, eg.code)
                }
                other => panic!("response shapes diverged: {other:?}"),
            }
        }
        // Both paths punctured once per served user.
        assert_eq!(
            fx_a.hsms[hsm_id as usize].punctures(),
            fx_b.hsms[hsm_id as usize].punctures()
        );
    }
}

#[test]
fn handle_batch_repeated_tag_observes_earlier_puncture() {
    use safetypin_proto::{HsmRequest, HsmResponse};
    let mut fx = fixture();
    let (_, ct_bytes, salt) = fx.backup(b"repeat", b"424242", b"payload");
    let (cluster, opening, inclusion) = fx.log_recovery(b"repeat", b"424242", &ct_bytes, &salt);
    let (hsm_id, positions) = Fixture::grouped(&cluster).into_iter().next().unwrap();
    let request = RecoveryRequest {
        username: b"repeat".to_vec(),
        salt,
        opening,
        inclusion,
        ciphertext: ct_bytes,
        share_indices: positions,
        recovery_pk: None,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let responses = fx.hsms[hsm_id as usize].handle_batch(
        vec![
            HsmRequest::RecoverShare(request.clone()),
            HsmRequest::RecoverShare(request),
        ],
        &mut fx.stores[hsm_id as usize],
        &mut rng,
    );
    // Exactly like serial serving: the first succeeds, the second finds
    // its tag already punctured.
    assert!(matches!(responses[0], HsmResponse::RecoveryShare { .. }));
    match &responses[1] {
        HsmResponse::Error(e) => assert_eq!(e.code, safetypin_proto::codes::DECRYPT_FAILED),
        other => panic!("expected DecryptFailed for the repeated tag, got {other:?}"),
    }
    assert_eq!(fx.hsms[hsm_id as usize].punctures(), 1);
}

#[test]
fn handle_batch_group_commits_once_per_group() {
    use safetypin_proto::{HsmRequest, HsmResponse};
    use safetypin_seckv::BlockStore as _;
    // Serve a two-user group against a crash-safe FileStore and count
    // durability barriers: one WAL commit for the WHOLE group, with the
    // punctures committed before the responses exist.
    let mut fx = fixture();
    let (_, groups) = two_user_round(&mut fx);
    let (hsm_id, requests) = groups
        .into_iter()
        .max_by_key(|(_, reqs)| reqs.len())
        .unwrap();

    // Migrate this HSM's blocks into a FileStore (flush-metered).
    let dir = std::env::temp_dir().join(format!(
        "safetypin-hsm-groupcommit-{}-{hsm_id}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut fstore =
        safetypin_store::FileStore::open(&dir, safetypin_store::FileOptions::relaxed()).unwrap();
    for (addr, block) in fx.stores[hsm_id as usize].snapshot() {
        fstore.put(addr, &block);
    }
    fstore.flush();
    let flushes_before = fstore.stats().flushes;

    let mut rng = StdRng::seed_from_u64(11);
    let served = requests.len();
    let responses = fx.hsms[hsm_id as usize].handle_batch(
        requests.into_iter().map(HsmRequest::RecoverShare).collect(),
        &mut fstore,
        &mut rng,
    );
    assert_eq!(responses.len(), served);
    assert!(responses
        .iter()
        .all(|r| matches!(r, HsmResponse::RecoveryShare { .. })));
    assert_eq!(
        fstore.stats().flushes - flushes_before,
        1,
        "a served group must commit exactly once"
    );
    assert_eq!(
        fstore.uncommitted_ops(),
        0,
        "no puncture may remain staged after the group returns"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn handle_batch_cross_tag_slot_coverage_matches_serial() {
    use safetypin_proto::{HsmRequest, HsmResponse};
    // Tiny Bloom filters (4 slots, k = 2) make full cross-tag slot
    // coverage findable: when user B's slots are a subset of user A's,
    // serial serving punctures A first and B's decrypt finds every
    // candidate slot deleted. The batched path must flush its segment
    // at that point (the coverage barrier) and match serially — this is
    // the one shape where deferring punctures past decrypts would
    // otherwise hand B a share serial serving refuses.
    let bfe = BfeParams::new(4, 2).unwrap();
    let mut fx_serial = fixture_with_bfe(bfe);
    let mut fx_batch = fixture_with_bfe(bfe);

    // A shared salt + pin gives both users the same cluster; search for
    // usernames whose puncture tags exhibit full slot coverage.
    let salt = Salt::random(&mut fx_serial.rng);
    let _ = Salt::random(&mut fx_batch.rng); // keep the twin streams aligned
    let slots_of = |name: &[u8]| bfe.indices_for_tag(&crate::types::puncture_tag(name, &salt));
    let mut pair = None;
    'search: for a in 0..64u32 {
        for b in 0..64u32 {
            let (na, nb) = (format!("cov-a-{a}"), format!("cov-b-{b}"));
            let (sa, sb) = (slots_of(na.as_bytes()), slots_of(nb.as_bytes()));
            if na != nb && sb.iter().all(|s| sa.contains(s)) {
                pair = Some((na, nb));
                break 'search;
            }
        }
    }
    let (name_a, name_b) = pair.expect("4-slot filters admit a covering pair");

    let run = |fx: &mut Fixture, batched: bool| -> Vec<HsmResponse> {
        let pks = fx.bfe_pks.clone();
        let mut staged = Vec::new();
        for name in [name_a.as_bytes(), name_b.as_bytes()] {
            let dir = BfeDirectory::new(&pks, name, &salt);
            let ct = encrypt_with_salt(
                &fx.params,
                &dir,
                name,
                b"0000",
                salt,
                0,
                b"payload",
                &mut fx.rng,
            )
            .unwrap();
            let ct_bytes = ct.to_bytes();
            let cluster = select(&fx.params, &salt, b"0000");
            let payload = build_commit_payload(&cluster, &ciphertext_commit_hash(&ct_bytes));
            let (commitment, opening) = commit::commit(&payload, &mut fx.rng);
            fx.log.insert(name, &commitment.to_bytes()).unwrap();
            staged.push((name.to_vec(), cluster, opening, commitment, ct_bytes));
        }
        fx.run_epoch();
        // Same salt + pin: both users share a cluster; take its first HSM.
        let hsm_id = *Fixture::grouped(&staged[0].1).keys().next().unwrap();
        let mut requests = Vec::new();
        for (name, cluster, opening, commitment, ct_bytes) in staged {
            let inclusion = fx
                .log
                .prove_includes(&name, &commitment.to_bytes())
                .unwrap();
            let positions = Fixture::grouped(&cluster).remove(&hsm_id).unwrap();
            requests.push(RecoveryRequest {
                username: name,
                salt,
                opening,
                inclusion,
                ciphertext: ct_bytes,
                share_indices: positions,
                recovery_pk: None,
            });
        }
        let mut rng = StdRng::seed_from_u64(0xC0FE);
        if batched {
            fx.hsms[hsm_id as usize].handle_batch(
                requests.into_iter().map(HsmRequest::RecoverShare).collect(),
                &mut fx.stores[hsm_id as usize],
                &mut rng,
            )
        } else {
            requests
                .into_iter()
                .map(|req| {
                    fx.hsms[hsm_id as usize].handle(
                        HsmRequest::RecoverShare(req),
                        &mut fx.stores[hsm_id as usize],
                        &mut rng,
                    )
                })
                .collect()
        }
    };

    let serial = run(&mut fx_serial, false);
    let batched = run(&mut fx_batch, true);
    assert_eq!(serial.len(), batched.len());
    for (k, (s, b)) in serial.iter().zip(&batched).enumerate() {
        match (s, b) {
            (
                HsmResponse::RecoveryShare { response: rs },
                HsmResponse::RecoveryShare { response: rb },
            ) => assert_eq!(rs.to_bytes(), rb.to_bytes(), "request {k}"),
            (HsmResponse::Error(es), HsmResponse::Error(eb)) => {
                assert_eq!(es.code, eb.code, "request {k}")
            }
            other => panic!("request {k}: outcomes diverged across paths: {other:?}"),
        }
    }
    // The coverage case itself: user A clears, user B's tag is dead on
    // BOTH paths (the whole point of the barrier).
    assert!(matches!(serial[0], HsmResponse::RecoveryShare { .. }));
    assert!(matches!(serial[1], HsmResponse::Error(_)));
}

// ----------------------------------------------------------------------
// Trusted state in the block store (state.rs)
// ----------------------------------------------------------------------

/// One served recovery for `username` against its first cluster HSM;
/// returns that HSM's id and the request (for replaying it).
fn one_served_recovery(fx: &mut Fixture, username: &[u8]) -> (u64, RecoveryRequest) {
    let (_, ct_bytes, salt) = fx.backup(username, b"424242", b"m");
    let (cluster, opening, inclusion) = fx.log_recovery(username, b"424242", &ct_bytes, &salt);
    let (hsm_id, positions) = Fixture::grouped(&cluster).into_iter().next().unwrap();
    let request = RecoveryRequest {
        username: username.to_vec(),
        salt,
        opening,
        inclusion,
        ciphertext: ct_bytes,
        share_indices: positions,
        recovery_pk: None,
    };
    let mut rng = StdRng::seed_from_u64(3);
    fx.recover_share(hsm_id, &request, &mut rng).unwrap();
    (hsm_id, request)
}

#[test]
fn device_reopens_from_its_own_store_after_every_commit() {
    use safetypin_proto::{HsmRequest, HsmResponse};
    let mut fx = fixture();
    let (hsm_id, request) = one_served_recovery(&mut fx, b"ruth");
    let idx = hsm_id as usize;
    let mut rng = StdRng::seed_from_u64(5);
    // A rotation and a collection ride the same barrier.
    let replies = fx.hsms[idx].handle_batch(
        vec![HsmRequest::RotateKeys, HsmRequest::GarbageCollect],
        &mut fx.stores[idx],
        &mut rng,
    );
    assert!(matches!(replies[0], HsmResponse::Rotated(_)));
    assert!(matches!(replies[1], HsmResponse::Ack));

    // "Kill" the device: only its store and its key survive.
    let live = &fx.hsms[idx];
    let key = live.device_key().clone();
    let mut reopened = Hsm::open(hsm_id, &mut fx.stores[idx], key).unwrap();
    assert_eq!(
        reopened.enrollment().to_bytes(),
        live.enrollment().to_bytes()
    );
    assert_eq!(reopened.log_digest(), live.log_digest());
    assert_eq!(reopened.punctures(), live.punctures());
    assert_eq!(reopened.key_epoch(), 1);
    assert_eq!(reopened.gc_count(), 1);
    assert_eq!(reopened.status(), HsmStatus::Active);
    assert_eq!(reopened.min_signers(), TOTAL as usize);
    // The reopened device holds the fleet keys it registered: it still
    // refuses a second collection past nothing and serves traffic.
    let reply = reopened.handle(
        HsmRequest::RecoverShare(request),
        &mut fx.stores[idx],
        &mut rng,
    );
    assert!(
        matches!(reply, HsmResponse::Error(_)),
        "the pre-rotation ciphertext is dead on the reopened device too"
    );
}

#[test]
fn a_group_commit_writes_one_small_sealed_block() {
    use safetypin_seckv::BlockStore as _;
    let mut fx = fixture();
    let (hsm_id, _) = one_served_recovery(&mut fx, b"sam");
    let idx = hsm_id as usize;
    let public_before = fx.stores[idx].get(crate::state::PUBLIC_ADDR).unwrap();
    let secrets_before = fx.stores[idx].get(crate::state::SECRETS_ADDR).unwrap();

    // An epoch moves the digest: the next group commit writes exactly
    // one block, whatever the group itself asked for.
    fx.log.insert(b"someone", b"else").unwrap();
    fx.run_epoch();
    let writes_before = fx.stores[idx].io_stats().writes;
    fx.hsms[idx].handle(
        safetypin_proto::HsmRequest::GetEnrollment,
        &mut fx.stores[idx],
        &mut StdRng::seed_from_u64(9),
    );
    assert_eq!(fx.stores[idx].io_stats().writes - writes_before, 1);
    let dynamic = fx.stores[idx].get(crate::state::DYNAMIC_ADDR).unwrap();
    assert!(dynamic.len() <= 512, "dynamic block is {} B", dynamic.len());
    // The static part — the 33 B/slot public key above all — is
    // untouched by punctures and epochs alike.
    assert_eq!(
        fx.stores[idx].get(crate::state::PUBLIC_ADDR).unwrap(),
        public_before
    );
    assert_eq!(
        fx.stores[idx].get(crate::state::SECRETS_ADDR).unwrap(),
        secrets_before
    );
    // A group that changes nothing writes nothing.
    let writes_before = fx.stores[idx].io_stats().writes;
    fx.hsms[idx].handle(
        safetypin_proto::HsmRequest::GetEnrollment,
        &mut fx.stores[idx],
        &mut StdRng::seed_from_u64(9),
    );
    assert_eq!(fx.stores[idx].io_stats().writes, writes_before);
}

#[test]
fn tampered_or_foreign_state_blocks_are_rejected() {
    use safetypin_seckv::BlockStore as _;
    use safetypin_store::StoreError;
    let fx = fixture();
    let key = fx.hsms[0].device_key().clone();
    let reopen = |store: &mut MemStore, id: u64, key: &safetypin_store::DeviceKey| {
        Hsm::open(id, store, key.clone()).map(|_| ())
    };
    let blocks = fx.stores[0].snapshot();
    let pristine = || {
        let mut store = MemStore::new();
        for (addr, block) in &blocks {
            store.put(*addr, block);
        }
        store
    };
    reopen(&mut pristine(), 0, &key).unwrap();

    for addr in [
        crate::state::DYNAMIC_ADDR,
        crate::state::SECRETS_ADDR,
        crate::state::PUBLIC_ADDR,
    ] {
        // A flipped byte anywhere — the unsealed public keys included —
        // breaks the seal.
        let mut store = pristine();
        let mut block = store.get(addr).unwrap();
        let mid = block.len() / 2;
        block[mid] ^= 1;
        store.put(addr, &block);
        assert!(matches!(
            reopen(&mut store, 0, &key),
            Err(StoreError::SealBroken)
        ));
        // A missing block is typed too.
        let mut store = pristine();
        store.remove(addr);
        assert!(matches!(
            reopen(&mut store, 0, &key),
            Err(StoreError::MissingComponent(_))
        ));
    }
    // Another device's key, or this store presented as another device.
    let other = fx.hsms[1].device_key().clone();
    assert!(matches!(
        reopen(&mut pristine(), 0, &other),
        Err(StoreError::SealBroken)
    ));
    assert!(matches!(
        reopen(&mut pristine(), 1, &key),
        Err(StoreError::SealBroken)
    ));
}
