//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::authlog::trie::{ExtensionProof, MerkleTrie};
use safetypin::authlog::Log;
use safetypin::primitives::shamir;
use safetypin::primitives::wire::{Decode, Encode, Reader, Writer};
use safetypin::primitives::{aead, commit, elgamal, gf256};
use safetypin::seckv::{MemStore, SecureArray, StorageError};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- GF(2^8) field laws --------------------------------

    #[test]
    fn gf256_field_laws(a in 0u8.., b in 0u8.., c in 0u8..) {
        // Commutativity and associativity.
        prop_assert_eq!(gf256::mul(a, b), gf256::mul(b, a));
        prop_assert_eq!(gf256::mul(gf256::mul(a, b), c), gf256::mul(a, gf256::mul(b, c)));
        // Distributivity.
        prop_assert_eq!(
            gf256::mul(a, gf256::add(b, c)),
            gf256::add(gf256::mul(a, b), gf256::mul(a, c))
        );
        // Inverses.
        if a != 0 {
            prop_assert_eq!(gf256::mul(a, gf256::inv(a)), 1);
            prop_assert_eq!(gf256::div(gf256::mul(a, b), a), b);
        }
    }

    // ---------------- Shamir sharing -------------------------------------

    #[test]
    fn shamir_any_threshold_subset_reconstructs(
        secret in proptest::collection::vec(any::<u8>(), 0..64),
        t in 1usize..8,
        extra in 0usize..8,
        seed in any::<u64>(),
    ) {
        let n = t + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let shares = shamir::share(&secret, t, n, &mut rng).unwrap();
        // Use the *last* t shares (an arbitrary subset).
        let subset = &shares[n - t..];
        prop_assert_eq!(shamir::reconstruct(subset, t).unwrap(), secret);
    }

    #[test]
    fn shamir_below_threshold_never_reconstructs_quietly(
        secret in proptest::collection::vec(1u8.., 1..32),
        t in 2usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shares = shamir::share(&secret, t, t + 1, &mut rng).unwrap();
        prop_assert!(shamir::reconstruct(&shares[..t - 1], t).is_err());
    }

    // ---------------- Wire codec ------------------------------------------

    #[test]
    fn wire_roundtrip_composite(
        blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 0..12),
        nums in proptest::collection::vec(any::<u64>(), 0..8),
        flag in any::<bool>(),
    ) {
        let mut w = Writer::new();
        w.put_seq(&blobs);
        w.put_seq(&nums);
        w.put_bool(flag);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(r.get_seq::<Vec<u8>>().unwrap(), blobs);
        prop_assert_eq!(r.get_seq::<u64>().unwrap(), nums);
        prop_assert_eq!(r.get_bool().unwrap(), flag);
        prop_assert!(r.is_exhausted());
    }

    #[test]
    fn wire_decoder_never_panics_on_junk(junk in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Decoding arbitrary bytes as common structures must return
        // Ok or Err — never panic or overflow.
        let _ = safetypin::primitives::aead::AeadCiphertext::from_bytes(&junk);
        let _ = elgamal::Ciphertext::from_bytes(&junk);
        let _ = commit::Opening::from_bytes(&junk);
        let _ = safetypin::authlog::trie::InclusionProof::from_bytes(&junk);
        let _ = safetypin::hsm::RecoveryRequest::from_bytes(&junk);
    }

    // ---------------- AEAD / commitments ---------------------------------

    #[test]
    fn aead_roundtrip_and_tamper(
        pt in proptest::collection::vec(any::<u8>(), 0..256),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        flip in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = aead::AeadKey::random(&mut rng);
        let ct = aead::seal(&key, &aad, &pt, &mut rng);
        prop_assert_eq!(aead::open(&key, &aad, &ct).unwrap(), pt);
        // Flip one bit somewhere in the serialized ciphertext.
        let mut bytes = ct.to_bytes();
        let idx = (flip as usize) % bytes.len();
        bytes[idx] ^= 1;
        if let Ok(mauled) = aead::AeadCiphertext::from_bytes(&bytes) {
            prop_assert!(aead::open(&key, &aad, &mauled).is_err());
        }
    }

    #[test]
    fn commitments_bind(payload in proptest::collection::vec(any::<u8>(), 0..128), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (c, o) = commit::commit(&payload, &mut rng);
        prop_assert_eq!(commit::verify(&c, &o).unwrap(), payload.as_slice());
        let mut bad = o.clone();
        bad.payload.push(0);
        prop_assert!(commit::verify(&c, &bad).is_err());
    }

    // ---------------- Authenticated dictionary ---------------------------

    #[test]
    fn trie_set_determinism_and_extension(
        mut entries in proptest::collection::btree_map(
            proptest::collection::vec(any::<u8>(), 1..16),
            proptest::collection::vec(any::<u8>(), 0..16),
            1..24,
        ),
        split in any::<u8>(),
    ) {
        let all: Vec<(Vec<u8>, Vec<u8>)> = std::mem::take(&mut entries).into_iter().collect();
        let cut = (split as usize) % (all.len() + 1);

        // Determinism: digest independent of insertion order.
        let mut forward = MerkleTrie::new();
        for (k, v) in &all {
            forward.insert(k, v).unwrap();
        }
        let mut backward = MerkleTrie::new();
        for (k, v) in all.iter().rev() {
            backward.insert(k, v).unwrap();
        }
        prop_assert_eq!(forward.digest(), backward.digest());

        // Extension proofs: inserting the suffix extends the prefix.
        let mut prefix_tree = MerkleTrie::new();
        for (k, v) in &all[..cut] {
            prefix_tree.insert(k, v).unwrap();
        }
        let d_old = prefix_tree.digest();
        let mut steps = Vec::new();
        for (k, v) in &all[cut..] {
            steps.push(prefix_tree.insert(k, v).unwrap());
        }
        let proof = ExtensionProof { steps };
        prop_assert!(MerkleTrie::does_extend(&d_old, &prefix_tree.digest(), &proof));
        // And inclusion holds for every entry afterwards.
        for (k, v) in &all {
            let p = prefix_tree.prove_includes(k, v).unwrap();
            prop_assert!(MerkleTrie::does_include(&prefix_tree.digest(), k, v, &p));
        }
    }

    // ---------------- Secure deletion -------------------------------------

    #[test]
    fn seckv_random_op_sequences_maintain_invariants(
        size in 1usize..24,
        ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..32),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<Vec<u8>> = (0..size).map(|i| vec![i as u8; 4]).collect();
        let mut store = MemStore::new();
        let mut arr = SecureArray::setup(&mut store, &data, &mut rng).unwrap();
        let mut deleted = vec![false; size];
        for (raw, is_delete) in ops {
            let i = (raw as usize) % size;
            if is_delete {
                arr.delete(&mut store, i as u64, &mut rng).unwrap();
                deleted[i] = true;
            } else {
                match arr.read(&mut store, i as u64) {
                    Ok(v) => {
                        prop_assert!(!deleted[i], "read of deleted item succeeded");
                        prop_assert_eq!(v, data[i].clone());
                    }
                    Err(StorageError::Deleted(_)) => prop_assert!(deleted[i]),
                    Err(e) => prop_assert!(false, "unexpected error {e:?}"),
                }
            }
        }
    }

    // `delete_batch` must be semantically byte-equivalent to sequential
    // `delete`s: same subsequent read/delete outcomes on every index
    // (including overlapping paths, duplicate targets, and already-deleted
    // leaves) and the same root-key-freshness guarantee. Covers the
    // height-0 single-leaf array via `size in 1..`.
    #[test]
    fn seckv_delete_batch_equivalent_to_sequential(
        size in 1usize..48,
        predeleted in proptest::collection::vec(any::<u8>(), 0..6),
        batch in proptest::collection::vec(any::<u8>(), 0..12),
        followup in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let data: Vec<Vec<u8>> = (0..size).map(|i| vec![i as u8; 4]).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store_b = MemStore::new();
        let mut arr_b = SecureArray::setup(&mut store_b, &data, &mut rng).unwrap();
        let mut store_s = MemStore::new();
        let mut arr_s = SecureArray::setup(&mut store_s, &data, &mut rng).unwrap();

        // Pre-delete some leaves on both sides so the batch also crosses
        // already-deleted paths (early-terminating descents).
        for raw in predeleted {
            let i = (raw as usize % size) as u64;
            arr_b.delete(&mut store_b, i, &mut rng).unwrap();
            arr_s.delete(&mut store_s, i, &mut rng).unwrap();
        }

        let batch: Vec<u64> = batch.into_iter().map(|raw| (raw as usize % size) as u64).collect();
        let root_before = arr_b.root_key_bytes();
        arr_b.delete_batch(&mut store_b, &batch, &mut rng).unwrap();
        for &i in &batch {
            arr_s.delete(&mut store_s, i, &mut rng).unwrap();
        }
        if !batch.is_empty() {
            if arr_b.height() == 0 {
                // Single-leaf array: "deletion" is forgetting the root key.
                prop_assert_eq!(arr_b.root_key_bytes(), [0u8; 16]);
            } else {
                prop_assert_ne!(
                    root_before,
                    arr_b.root_key_bytes(),
                    "nonempty batch must re-key the root"
                );
            }
        }

        // Same read outcome on every index.
        for i in 0..size as u64 {
            let b = arr_b.read(&mut store_b, i);
            let s = arr_s.read(&mut store_s, i);
            match (b, s) {
                (Ok(vb), Ok(vs)) => {
                    prop_assert_eq!(&vb, &vs);
                    prop_assert_eq!(vb, data[i as usize].clone());
                }
                (Err(StorageError::Deleted(db)), Err(StorageError::Deleted(ds))) => {
                    prop_assert_eq!(db, i);
                    prop_assert_eq!(ds, i);
                }
                (b, s) => prop_assert!(false, "diverged at {i}: batch={b:?} seq={s:?}"),
            }
        }

        // Same subsequent-delete outcome: deleting one more index leaves
        // both trees fully readable/unreadable in lockstep.
        let extra = (followup as usize % size) as u64;
        arr_b.delete(&mut store_b, extra, &mut rng).unwrap();
        arr_s.delete(&mut store_s, extra, &mut rng).unwrap();
        for i in 0..size as u64 {
            prop_assert_eq!(
                arr_b.read(&mut store_b, i).is_ok(),
                arr_s.read(&mut store_s, i).is_ok(),
                "post-batch delete diverged at {}", i
            );
        }
    }

    // ---------------- Authenticated-log batch insertion --------------------

    // The save path's ordering theorem, end to end: a wave through
    // `Log::insert_many` must be indistinguishable from the same wave
    // inserted one at a time — same per-item outcomes, same trie root,
    // byte-identical inclusion proofs, the same entry list in the same
    // order (what auditors replay and what a journal replay rebuilds),
    // and the same epoch cut under any chunk cap. Waves include
    // duplicate identifiers (within the wave and against the prefix)
    // and may be empty.
    #[test]
    fn log_insert_many_equals_sequential_insert(
        prefix in proptest::collection::vec(
            (proptest::collection::vec(0u8..4, 1..5), proptest::collection::vec(any::<u8>(), 0..8)),
            0..8,
        ),
        wave in proptest::collection::vec(
            (proptest::collection::vec(0u8..4, 1..5), proptest::collection::vec(any::<u8>(), 0..8)),
            0..16,
        ),
        cap in 0usize..=20,
    ) {
        // Identical pre-wave state on both logs (the tiny id alphabet
        // makes collisions common in both prefix and wave).
        let mut batched = Log::new();
        let mut serial = Log::new();
        for (id, value) in &prefix {
            let a = batched.insert(id, value);
            let b = serial.insert(id, value);
            prop_assert_eq!(a, b);
        }

        let results = batched.insert_many(&wave);
        prop_assert_eq!(results.len(), wave.len());
        for ((id, value), batch_result) in wave.iter().zip(&results) {
            prop_assert_eq!(&serial.insert(id, value), batch_result);
        }

        prop_assert_eq!(batched.digest(), serial.digest(), "trie roots diverged");
        prop_assert_eq!(batched.entries(), serial.entries());
        prop_assert_eq!(batched.pending_count(), serial.pending_count());
        prop_assert_eq!(batched.plan_epoch(cap), serial.plan_epoch(cap));
        for (id, _) in prefix.iter().chain(wave.iter()) {
            let value = serial.get(id).map(<[u8]>::to_vec);
            if let Some(value) = value {
                prop_assert_eq!(
                    batched.prove_includes(id, &value),
                    serial.prove_includes(id, &value),
                    "inclusion proofs diverged"
                );
            }
        }
    }

    // ---------------- Hashed ElGamal ---------------------------------------

    #[test]
    fn elgamal_roundtrip_random_messages(
        msg in proptest::collection::vec(any::<u8>(), 0..128),
        ctx in proptest::collection::vec(any::<u8>(), 0..32),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = elgamal::KeyPair::generate(&mut rng);
        let ct = elgamal::encrypt(&kp.pk, &ctx, &msg, &mut rng);
        prop_assert_eq!(elgamal::decrypt(&kp.sk, &ctx, &ct).unwrap(), msg);
        // Serialization stability.
        let back = elgamal::Ciphertext::from_bytes(&ct.to_bytes()).unwrap();
        prop_assert_eq!(back, ct);
    }
}
