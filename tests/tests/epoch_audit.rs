//! The one rule that sizes an epoch's audit work
//! (`authlog::distributed`, module docs): the log cuts
//! `K = clamp(pending, 1, N)` chunks, every HSM draws `a = ⌈C·K/N⌉` of them
//! (all `K` when `a ≥ K`), and provider and HSM derive the same sets from
//! the signed message. Checked here for arbitrary fleet sizes, audit
//! budgets, insert patterns and failed subsets — at the log level against
//! an in-test copy of the previous fixed-`C`, fixed-`N`-chunks rule, and
//! through a real fleet's Figure 5 round.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safetypin::authlog::distributed::{
    audit_chunks_for, audit_draws, reaudit_chunks_for, verify_chunk, ChunkAudit, EpochUpdate,
};
use safetypin::authlog::log::{EpochCut, Log};
use safetypin::authlog::trie::{ExtensionProof, InsertStep};
use safetypin::bfe::BfeParams;
use safetypin::hsm::HsmConfig;
use safetypin::primitives::hashes::{Domain, Hash256, HashStream};
use safetypin::provider::Datacenter;
use safetypin_proto::{
    Direct, HsmRequest, ProtoError, SaveRequest, ServeTrafficFn, Traffic, TrafficReply, Transport,
    TransportStats,
};

/// One pending-insert pattern: each item is a serial insert (`1`) or a
/// wave of that many entries. `serial_only` patterns are what a fleet of
/// solo clients produces.
fn insert_pattern(rng: &mut StdRng, serial_only: bool) -> Vec<usize> {
    let items = rng.gen_range(0..70usize);
    (0..items)
        .map(|_| {
            if serial_only || rng.gen_range(0..3u8) > 0 {
                1
            } else {
                rng.gen_range(2..7usize)
            }
        })
        .collect()
}

fn entry(tag: &str, i: usize) -> (Vec<u8>, Vec<u8>) {
    (format!("{tag}-{i}").into_bytes(), b"v".to_vec())
}

/// The previous assignment rule, kept verbatim as the reference: exactly
/// `audits` draws from the `(hsm id, R)` stream whatever the chunk count.
fn fixed_draw_assignment(hsm_id: u64, root: &Hash256, chunk_count: u32, audits: u32) -> Vec<u32> {
    let mut stream = HashStream::new(Domain::AuditSelect, &[&hsm_id.to_be_bytes(), root]);
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for _ in 0..audits {
        let c = stream.next_below(chunk_count as u64) as u32;
        if seen.insert(c) {
            out.push(c);
        }
    }
    out
}

/// The previous chunk layout for serially inserted steps: always
/// `chunks` chunks of `⌈len/chunks⌉` steps, the tail ones short or empty.
fn fixed_count_split(steps: &[InsertStep], chunks: usize) -> Vec<ExtensionProof> {
    let per = steps.len().div_ceil(chunks).max(1);
    (0..chunks)
        .map(|k| {
            let start = (k * per).min(steps.len());
            let end = if k + 1 == chunks {
                steps.len()
            } else {
                ((k + 1) * per).min(steps.len())
            };
            ExtensionProof {
                steps: steps[start..end].to_vec(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (i) `K = clamp(pending, 1, N)` and the chunk chain replays
    /// `old → new`; (ii) `a = K` or `a·N ≥ C·K`, and no more than that
    /// needs; every assignment is in range, verifies, and is all of
    /// `0..K` when `a = K`; (v) with serial inserts and at least `N`
    /// pending, message, assignment and packages are what the fixed rule
    /// produced.
    #[test]
    fn chunking_and_draws_follow_the_one_rule(
        fleet in 1usize..=48,
        audits in 1u32..=32,
        serial_only in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = Log::new();
        for i in 0..rng.gen_range(0..20usize) {
            let (id, value) = entry("pre", i);
            log.insert(&id, &value).unwrap();
        }
        let _ = log.cut_epoch(fleet);

        let pattern = insert_pattern(&mut rng, serial_only);
        let mut next = 0usize;
        for &size in &pattern {
            if size == 1 {
                let (id, value) = entry("new", next);
                log.insert(&id, &value).unwrap();
            } else {
                let wave: Vec<_> = (next..next + size).map(|i| entry("new", i)).collect();
                assert!(log.insert_many(&wave).iter().all(|r| r.is_ok()));
            }
            next += size;
        }
        let pending = next;

        // (i)
        let (cut, digests) = log.plan_epoch(fleet);
        let chunk_count = cut.chunk_proofs.len();
        prop_assert_eq!(chunk_count, pending.clamp(1, fleet));
        prop_assert_eq!(digests.len(), chunk_count);
        let mut d = cut.old_digest;
        for (proof, boundary) in cut.chunk_proofs.iter().zip(&digests) {
            d = proof.replay(&d).unwrap();
            prop_assert_eq!(&d, boundary);
        }
        prop_assert_eq!(d, cut.new_digest);
        let steps: Vec<InsertStep> = cut
            .chunk_proofs
            .iter()
            .flat_map(|p| p.steps.iter().cloned())
            .collect();
        prop_assert_eq!(steps.len(), pending);

        let update = EpochUpdate::from_certified(&cut, digests).unwrap();
        let message = update.message();
        let k = message.chunk_count;
        prop_assert_eq!(k as usize, chunk_count);

        // (ii)
        let draws = audit_draws(k, audits, fleet);
        let (a, c, n, kk) = (draws as u64, audits as u64, fleet as u64, k as u64);
        prop_assert!(a == kk || a * n >= c * kk);
        prop_assert!(a <= kk && a >= 1);
        prop_assert!(a == kk || (a - 1) * n < c * kk, "over-drawn: {a} of {kk}");

        for id in 0..fleet as u64 {
            let assigned = audit_chunks_for(id, &message.root, k, audits, fleet);
            let distinct: BTreeSet<u32> = assigned.iter().copied().collect();
            prop_assert_eq!(distinct.len(), assigned.len());
            prop_assert!(assigned.len() as u64 <= a && !assigned.is_empty());
            if a == kk {
                prop_assert_eq!(&assigned, &(0..k).collect::<Vec<_>>());
            }
            for &chunk in &assigned {
                verify_chunk(&message, &update.audit_package(chunk).unwrap()).unwrap();
            }
        }

        // (v)
        if serial_only && pending >= fleet {
            let reference = EpochUpdate::build(&EpochCut {
                old_digest: cut.old_digest,
                new_digest: cut.new_digest,
                chunk_proofs: fixed_count_split(&steps, fleet),
            })
            .unwrap();
            prop_assert_eq!(reference.message(), message);
            for id in 0..fleet as u64 {
                let then = fixed_draw_assignment(id, &message.root, k, audits);
                let now = audit_chunks_for(id, &message.root, k, audits, fleet);
                if (audits as usize) < fleet {
                    prop_assert_eq!(&now, &then);
                } else {
                    // C ≥ N: the fixed rule sampled with replacement and
                    // missed chunks; the rate rule audits them all.
                    prop_assert!(then.iter().all(|c| now.contains(c)));
                }
                for &chunk in &then {
                    prop_assert_eq!(
                        update.audit_package(chunk).unwrap(),
                        reference.audit_package(chunk).unwrap()
                    );
                }
            }
        }
    }
}

/// The packages the last audit round carried, by addressed HSM.
type Shipped = Arc<Mutex<BTreeMap<u64, Vec<ChunkAudit>>>>;

/// `Direct`, remembering every `AuditAndSign` package list it carries.
struct RecordingAudits {
    inner: Direct,
    shipped: Shipped,
}

impl Transport for RecordingAudits {
    fn name(&self) -> &'static str {
        "recording-audits"
    }

    fn round(
        &mut self,
        traffic: Traffic,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError> {
        if let Traffic::Batch(batch) = &traffic {
            let mut shipped = self.shipped.lock().unwrap();
            for (id, request) in batch {
                if let HsmRequest::AuditAndSign { packages, .. } = request {
                    shipped.insert(*id, packages.clone());
                }
            }
        }
        self.inner.round(traffic, serve)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn take_stats(&mut self) -> TransportStats {
        self.inner.take_stats()
    }
}

/// A fleet of `fleet` HSMs drawing `audits` per epoch that certifies
/// with any one signer, and the record of what its epochs ship.
fn recorded_fleet(fleet: u64, audits: u32, rng: &mut StdRng) -> (Datacenter, Shipped) {
    let mut dc = Datacenter::provision(
        fleet,
        |id| HsmConfig {
            id,
            bfe_params: BfeParams::new(16, 2).unwrap(),
            audits_per_epoch: audits,
            max_gc: 1,
            min_signers: 1,
        },
        rng,
    )
    .unwrap();
    let shipped = Shipped::default();
    dc.set_transport(Box::new(RecordingAudits {
        inner: Direct::new(),
        shipped: shipped.clone(),
    }));
    (dc, shipped)
}

/// The benchmark's fleet shape (N = 32, C = 16), deterministic package
/// counts: an audit-sizing regression fails here, not only in a timing
/// run.
#[test]
fn epoch_audit_work_follows_what_the_epoch_contains() {
    const FLEET: usize = 32;
    let (mut dc, shipped) = recorded_fleet(FLEET as u64, 16, &mut StdRng::seed_from_u64(3216));

    // One insertion: one chunk, audited once by every HSM, with nothing
    // to prove under R but the leaf itself.
    dc.insert_log(b"solo", b"attempt").unwrap();
    let outcome = dc.run_epoch().unwrap();
    assert_eq!(outcome.message.chunk_count, 1);
    assert_eq!(outcome.signers.len(), FLEET);
    let solo = std::mem::take(&mut *shipped.lock().unwrap());
    assert_eq!(solo.len(), FLEET);
    let mut bytes = 0u64;
    for packages in solo.values() {
        assert_eq!(packages.len(), 1);
        assert_eq!(packages[0].chunk, 0);
        assert_eq!(packages[0].proof.steps.len(), 1);
        assert!(packages[0].start_inclusion.is_none());
        assert!(packages[0].end_inclusion.siblings.is_empty());
        bytes += packages[0].proof_bytes() as u64;
    }
    assert_eq!(outcome.audit_bytes, bytes);

    // Sixteen serial insertions: sixteen chunks, ⌈16·16/32⌉ = 8 draws.
    for i in 0..16 {
        let (id, value) = entry("wave", i);
        dc.insert_log(&id, &value).unwrap();
    }
    let outcome = dc.run_epoch().unwrap();
    assert_eq!(outcome.message.chunk_count, 16);
    assert_eq!(outcome.signers.len(), FLEET);
    let wave = std::mem::take(&mut *shipped.lock().unwrap());
    assert_eq!(wave.len(), FLEET);
    assert!(wave.values().all(|p| (1..=8).contains(&p.len())));
    let mut covered = [false; 16];
    for package in wave.values().flatten() {
        assert_eq!(package.proof.steps.len(), 1);
        covered[package.chunk as usize] = true;
    }
    assert!(
        covered.iter().all(|&c| c),
        "a chunk escaped all 32 auditors"
    );

    // An empty epoch is still one (empty) chunk everyone looks at.
    let outcome = dc.run_epoch().unwrap();
    assert_eq!(outcome.message.chunk_count, 1);
    assert_eq!(shipped.lock().unwrap().len(), FLEET);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// (iii) a full Figure 5 round certifies, and what the provider
    /// shipped each active HSM is exactly that HSM's assignment plus its
    /// B.3 re-audits for the failed subset — the devices enforce it
    /// (`WrongAuditSet` otherwise), and it is recomputed here from the
    /// public rule; (iv) with `a = K` every active HSM covers every
    /// chunk; every failed HSM's assignment is re-audited in full.
    #[test]
    fn a_fleet_certifies_with_the_sets_the_rule_names(
        fleet in 1u64..=48,
        audits in 1u32..=32,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut dc, shipped) = recorded_fleet(fleet, audits, &mut rng);

        let mut next = 0usize;
        for round in 0..3 {
            // A fresh failed subset each epoch (never the whole fleet);
            // the previous one comes back resynced.
            let failed: Vec<u64> = (0..fleet)
                .filter(|_| fleet > 1 && rng.gen_range(0..4u8) == 0)
                .take(fleet as usize - 1)
                .collect();
            let active: Vec<u64> = (0..fleet).filter(|id| !failed.contains(id)).collect();
            for &id in &failed {
                dc.hsm_mut(id).unwrap().fail();
            }

            let pattern = insert_pattern(&mut rng, round == 0);
            for &size in &pattern {
                if size == 1 {
                    let (id, value) = entry("log", next);
                    dc.insert_log(&id, &value).unwrap();
                } else {
                    let saves: Vec<SaveRequest> = (next..next + size)
                        .map(|i| SaveRequest {
                            username: format!("user-{i}").into_bytes(),
                            blob: format!("blob-{i}").into_bytes(),
                        })
                        .collect();
                    prop_assert!(dc.save_many(&saves).iter().all(|o| o.error.is_none()));
                }
                next += size;
            }

            // (iii)
            let stale = dc.hsm(failed.first().copied().unwrap_or(0)).unwrap().log_digest();
            let outcome = dc.run_epoch().unwrap();
            let message = outcome.message;
            let k = message.chunk_count;
            let pending: usize = pattern.iter().sum();
            prop_assert_eq!(k as usize, pending.clamp(1, fleet as usize));
            prop_assert_eq!(&outcome.signers, &active.iter().map(|&id| id as usize).collect::<Vec<_>>());
            prop_assert_eq!(&outcome.skipped, &failed);
            for &id in &active {
                prop_assert_eq!(dc.hsm(id).unwrap().log_digest(), message.new_digest);
            }
            for &id in &failed {
                prop_assert_eq!(dc.hsm(id).unwrap().log_digest(), stale);
            }

            let shipped_now: BTreeMap<u64, Vec<u32>> = std::mem::take(&mut *shipped.lock().unwrap())
                .into_iter()
                .map(|(id, packages)| (id, packages.iter().map(|p| p.chunk).collect()))
                .collect();
            prop_assert_eq!(shipped_now.keys().copied().collect::<Vec<_>>(), active.clone());
            let n = fleet as usize;
            for &id in &active {
                let mut expected: BTreeSet<u32> =
                    audit_chunks_for(id, &message.root, k, audits, n).into_iter().collect();
                expected.extend(reaudit_chunks_for(
                    id, &active, &failed, &message.root, k, audits, n,
                ));
                prop_assert_eq!(&shipped_now[&id], &expected.into_iter().collect::<Vec<_>>());
                // (iv)
                if audit_draws(k, audits, n) == k {
                    prop_assert_eq!(&shipped_now[&id], &(0..k).collect::<Vec<_>>());
                }
            }
            // Each failed HSM's assignment is split among the survivors,
            // nothing dropped, and each share was shipped.
            for &f in &failed {
                let mut substituted = BTreeSet::new();
                for &id in &active {
                    for c in reaudit_chunks_for(id, &active, &[f], &message.root, k, audits, n) {
                        prop_assert!(shipped_now[&id].contains(&c));
                        prop_assert!(substituted.insert(c), "chunk {c} re-audited twice");
                    }
                }
                let theirs: BTreeSet<u32> =
                    audit_chunks_for(f, &message.root, k, audits, n).into_iter().collect();
                prop_assert_eq!(substituted, theirs);
            }

            for &id in &failed {
                dc.restore_hsm(id).unwrap();
            }
        }
    }
}
