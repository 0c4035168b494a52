//! Pairing-free Bloom-filter puncturable encryption (paper §7.1, §9).
//!
//! A puncturable encryption scheme is a public-key scheme with one extra
//! routine, `Puncture(sk, ct) → sk_ct`, yielding a key that decrypts
//! everything `sk` could *except* `ct`. SafetyPin HSMs puncture after every
//! recovery so that compromising them later reveals nothing about
//! already-recovered backups (forward secrecy, Figure 4).
//!
//! We implement the variant the paper describes in §9: Bloom-filter
//! encryption [Derler et al., EUROCRYPT '18] with the pairing-based IBE
//! replaced by hashed ElGamal, which "avoids the need for pairings but
//! increases the size of the HSMs' public keys":
//!
//! - The key is a Bloom filter with `m` slots and `k` hash functions. Each
//!   slot holds an independent hashed-ElGamal keypair. (Independence is
//!   essential: any linear structure across slot secrets — e.g. grid-sum
//!   compression of the public key — lets punctured slots be recomputed
//!   from surviving ones.)
//! - **Encrypt(tag, m)**: hash `tag` to `k` slot indices; encrypt under each
//!   indexed slot key with a shared ephemeral nonce `g^r`.
//! - **Decrypt**: any one surviving (un-punctured) slot key suffices.
//! - **Puncture(tag)**: securely delete the `k` slot secrets. Deletion goes
//!   through [`safetypin_seckv::SecureArray`], so the 64 MB secret-key array
//!   lives at the untrusted provider while puncturing stays logarithmic.
//!
//! Decryption of a *fresh* tag fails only if all its `k` slots were already
//! deleted by other punctures; at the rotation point (half the slots
//! deleted) that happens with probability ≈ 2⁻ᵏ, which the paper folds into
//! the fault-tolerance budget `f_live` (§9.2, Theorem 9 allows up to 1/8
//! combined).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use p256::elliptic_curve::sec1::ToEncodedPoint;
use p256::elliptic_curve::PrimeField;
use p256::{FixedBaseTable, NonZeroScalar, ProjectivePoint, Scalar};
use rand::{CryptoRng, RngCore};
use safetypin_primitives::aead::{self, AeadCiphertext, AeadKey};
use safetypin_primitives::elgamal::{PublicKey, POINT_LEN};
use safetypin_primitives::error::WireError;
use safetypin_primitives::hashes::{hash_parts, indices_from_seed, Domain};
use safetypin_primitives::wire;
use safetypin_primitives::wire::{Decode, Encode, Reader, Writer};
use safetypin_primitives::{CryptoError, Result};
use safetypin_seckv::{ArrayState, BlockStore, Descent, Metrics, SecureArray, StorageError};
use std::sync::Arc;

/// Bloom-filter-encryption parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfeParams {
    /// Number of Bloom filter slots `m` (one keypair per slot).
    pub slots: u64,
    /// Number of hash functions `k` (slots touched per tag).
    pub hashes: u32,
}

impl BfeParams {
    /// Creates parameters after validating ranges.
    pub fn new(slots: u64, hashes: u32) -> Result<Self> {
        if slots < 2 || hashes == 0 || (hashes as u64) > slots {
            return Err(CryptoError::InvalidParameter(
                "need slots >= 2 and 1 <= hashes <= slots",
            ));
        }
        Ok(Self { slots, hashes })
    }

    /// Paper-scale parameters (§9.2): 2²¹ slots, k = 4, supporting ≈2¹⁸
    /// decryptions before rotation with a 64 MB secret key.
    pub fn paper_default() -> Self {
        Self {
            slots: 1 << 21,
            hashes: 4,
        }
    }

    /// Sizes the filter for a target puncture capacity: rotation triggers
    /// when half the slots are deleted, and each puncture deletes at most
    /// `k` slots, so `m = 2·k·capacity`.
    pub fn for_punctures(capacity: u64, hashes: u32) -> Result<Self> {
        let slots = capacity
            .checked_mul(2 * hashes as u64)
            .ok_or(CryptoError::InvalidParameter("puncture capacity overflow"))?;
        Self::new(slots.max(2), hashes)
    }

    /// Punctures tolerated before rotation (half the slots / k).
    pub fn max_punctures(&self) -> u64 {
        self.slots / (2 * self.hashes as u64)
    }

    /// Probability that a fresh tag fails to decrypt when a `fill` fraction
    /// of slots are deleted: `fill^k`.
    pub fn failure_prob_at_fill(&self, fill: f64) -> f64 {
        fill.powi(self.hashes as i32)
    }

    /// Serialized secret-key size in bytes (one 32-byte scalar per slot).
    pub fn secret_key_bytes(&self) -> u64 {
        self.slots * 32
    }

    /// Serialized public-key size in bytes (one 33-byte point per slot).
    pub fn public_key_bytes(&self) -> u64 {
        self.slots * POINT_LEN as u64 + 16
    }

    /// The Bloom slot indices for `tag`, deduplicated, in first-occurrence
    /// order. All parties derive positions the same way, so a malicious
    /// client cannot aim a puncture at slots other than its own tag's.
    pub fn indices_for_tag(&self, tag: &[u8]) -> Vec<u64> {
        let raw = indices_from_seed(Domain::BloomIndex, &[tag], self.hashes as usize, self.slots);
        // k ≤ 8 here, so a linear scan beats hashing — this runs on every
        // encrypt/decrypt/puncture, and a HashSet per call is pure waste.
        let mut out = Vec::with_capacity(raw.len());
        for i in raw {
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out
    }
}

impl Encode for BfeParams {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.slots);
        w.put_u32(self.hashes);
    }
}

impl Decode for BfeParams {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        let slots = r.get_u64()?;
        let hashes = r.get_u32()?;
        BfeParams::new(slots, hashes).map_err(|_| WireError::LengthOutOfRange)
    }
}

/// A Bloom-filter-encryption public key: one point per slot.
///
/// Cloning shares the points: a clone is a reference-count increment,
/// not a copy of `slots` points, so every enrollment record, client and
/// directory in a process reads the one array its key was built or
/// decoded into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfePublicKey {
    /// Filter parameters.
    pub params: BfeParams,
    points: Arc<[PublicKey]>,
}

impl BfePublicKey {
    /// The slot public key at `index`.
    pub fn slot(&self, index: u64) -> &PublicKey {
        &self.points[index as usize]
    }

    /// Serialized size in bytes.
    pub fn serialized_len(&self) -> u64 {
        self.params.public_key_bytes()
    }

    /// Batch-audits slot scalars read back from outsourced storage
    /// against this public key in **one multi-scalar multiplication**.
    ///
    /// Checks `Σᵢ wᵢ·Xᵢ = g^(Σᵢ wᵢ·xᵢ)` for fresh random weights `wᵢ`:
    /// if every presented scalar matches its published slot point the
    /// identity holds; any substituted scalar survives only with the
    /// probability of guessing a random weight relation (≈ 2⁻²⁵²). The
    /// naive equivalent is one `g^xᵢ` fixed-base check per scalar; the
    /// MSM folds a whole coalesced batch — across users — into one
    /// [`p256::mul_multi`] plus a single fixed-base multiplication,
    /// which is what an HSM serving a recovery storm calls once per
    /// batch ([`decrypt_opened`](BfeSecretKey::decrypt_opened) supplies
    /// the traces). An empty batch passes.
    pub fn audit_slot_scalars<R: RngCore + CryptoRng>(
        &self,
        traces: &[(u64, Scalar)],
        rng: &mut R,
    ) -> bool {
        if traces.is_empty() {
            return true;
        }
        let mut bases = Vec::with_capacity(traces.len());
        let mut weights = Vec::with_capacity(traces.len());
        let mut exponent = Scalar::ZERO;
        for &(idx, scalar) in traces {
            if idx >= self.params.slots {
                return false;
            }
            let w = *NonZeroScalar::random(rng).as_ref();
            bases.push(*self.slot(idx).as_point());
            exponent = exponent + w * scalar;
            weights.push(w);
        }
        p256::mul_multi(&bases, &weights) == FixedBaseTable::generator().mul(&exponent)
    }
}

impl Encode for BfePublicKey {
    fn encode(&self, w: &mut Writer) {
        self.params.encode(w);
        w.put_seq(&self.points);
    }
}

impl Decode for BfePublicKey {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        let params = BfeParams::decode(r)?;
        // `slots` comes from the same input as the points, so it caps the
        // count but must not size the allocation: the bounded reader
        // reserves only what the rest of the input can fill.
        let slots = usize::try_from(params.slots).map_err(|_| WireError::LengthOutOfRange)?;
        let points: Vec<PublicKey> = r.get_seq_max(slots, PublicKey::decode)?;
        if points.len() != slots {
            return Err(WireError::LengthOutOfRange);
        }
        Ok(Self {
            params,
            points: points.into(),
        })
    }
}

/// A Bloom-filter-encryption secret key.
///
/// The per-slot scalars live in a [`SecureArray`] at the untrusted provider;
/// this handle holds only the array's root key plus puncture bookkeeping —
/// constant HSM state, as §7.2 requires. The root key is an `AeadKey`
/// inside the array handle, so dropping the handle wipes it and `Debug`
/// redacts it.
#[derive(Debug)]
pub struct BfeSecretKey {
    /// Filter parameters.
    pub params: BfeParams,
    array: SecureArray,
    punctures: u64,
    slots_deleted: u64,
}

/// Metrics describing one key generation (used by the cost model: rotation
/// is `slots` group exponentiations, the dominant term in the paper's
/// 75-hour rotation estimate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeygenReport {
    /// Group exponentiations performed (= slots).
    pub group_ops: u64,
    /// Bytes written to outsourced storage.
    pub outsourced_bytes: u64,
}

/// Generates a fresh BFE keypair, storing the secret array in `store`.
pub fn keygen<S: BlockStore, R: RngCore + CryptoRng>(
    params: BfeParams,
    store: &mut S,
    rng: &mut R,
) -> Result<(BfePublicKey, BfeSecretKey, KeygenReport)> {
    let table = FixedBaseTable::generator();
    let mut points = Vec::with_capacity(params.slots as usize);
    let mut scalars: Vec<Vec<u8>> = Vec::with_capacity(params.slots as usize);
    for _ in 0..params.slots {
        let x = NonZeroScalar::random(rng);
        let point = table.mul(x.as_ref());
        points.push(PublicKey::from_point(point).expect("nonzero dlog is not the identity"));
        scalars.push(x.as_ref().to_bytes().to_vec());
    }
    let array = SecureArray::setup(store, &scalars, rng)
        .map_err(|_| CryptoError::InvalidParameter("secure array setup failed"))?;
    let outsourced_bytes = params.secret_key_bytes();
    Ok((
        BfePublicKey {
            params,
            points: points.into(),
        },
        BfeSecretKey {
            params,
            array,
            punctures: 0,
            slots_deleted: 0,
        },
        KeygenReport {
            group_ops: params.slots,
            outsourced_bytes,
        },
    ))
}

/// Compressed SEC1 bytes of a non-identity point, on the stack (the
/// shared-secret hash input — encode only, never re-parsed).
fn point_sec1(point: &ProjectivePoint) -> [u8; POINT_LEN] {
    let enc = point.to_affine().to_encoded_point(true);
    let mut out = [0u8; POINT_LEN];
    out.copy_from_slice(enc.as_bytes());
    out
}

/// Most DEMs one [`BfeCiphertext`] may carry on the wire.
const MAX_DEMS: usize = 1024;

wire! {
    /// A BFE ciphertext: one shared ephemeral nonce plus one DEM per Bloom slot
    /// of the tag.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct BfeCiphertext {
        eph: PublicKey,
        /// `(slot index, DEM ciphertext)` pairs in tag-index order.
        slots: Vec<(u64, AeadCiphertext)> as seq(MAX_DEMS),
    }
}

impl BfeCiphertext {
    /// Serialized length without outer framing.
    pub fn raw_len(&self) -> usize {
        self.encoded_len()
    }

    /// Steps over one encoded ciphertext without decoding it: lengths and
    /// the DEM count cap are checked as [`decode`](Decode::decode) checks
    /// them, but the ephemeral point is not parsed and no DEM is copied.
    /// For reading one share out of many (`LheCiphertext::share_at`).
    pub fn skip(r: &mut Reader<'_>) -> core::result::Result<(), WireError> {
        r.get_array::<POINT_LEN>()?;
        r.get_seq_max(MAX_DEMS, |r| {
            r.get_u64()?;
            AeadCiphertext::skip(r)
        })?;
        Ok(())
    }
}

/// Derives one slot's DEM key. `eph_sec1` is the ephemeral point's SEC1
/// encoding, computed **once per operation** by the caller and reused
/// across all `k` slots (the last encode→hash hop the `perf` scorecard's
/// `bfe_encrypt` row was still paying per slot).
fn dem_key(
    shared: &ProjectivePoint,
    eph_sec1: &[u8; POINT_LEN],
    slot: u64,
    context: &[u8],
) -> AeadKey {
    let shared_bytes = point_sec1(shared);
    let digest = hash_parts(
        Domain::ElGamalKdf,
        &[
            b"bfe",
            &shared_bytes,
            eph_sec1,
            &slot.to_be_bytes(),
            context,
        ],
    );
    let mut key = [0u8; aead::KEY_LEN];
    key.copy_from_slice(&digest[..aead::KEY_LEN]);
    AeadKey::from_bytes(key)
}

/// Encrypts `msg` under `tag`: the tag's `k` Bloom slots each receive a DEM
/// of the message keyed through the slot's public point and a shared
/// ephemeral `g^r`.
pub fn encrypt<R: RngCore + CryptoRng>(
    pk: &BfePublicKey,
    tag: &[u8],
    context: &[u8],
    msg: &[u8],
    rng: &mut R,
) -> BfeCiphertext {
    let r = NonZeroScalar::random(rng);
    let eph_point = FixedBaseTable::generator().mul(r.as_ref());
    let eph = PublicKey::from_point(eph_point).expect("nonzero dlog is not the identity");
    let indices = pk.params.indices_for_tag(tag);
    // One shared-scalar multi-base pass computes every slot's X_i^r; the
    // slot keys are used as group elements directly (no SEC1 re-parse per
    // slot per encryption).
    let bases: Vec<ProjectivePoint> = indices.iter().map(|&i| *pk.slot(i).as_point()).collect();
    let shareds = p256::mul_many(&bases, r.as_ref());
    let eph_sec1 = eph.to_sec1();
    let mut slots = Vec::with_capacity(indices.len());
    for (idx, shared) in indices.into_iter().zip(shareds) {
        let key = dem_key(&shared, &eph_sec1, idx, context);
        let dem = aead::seal(&key, context, msg, rng);
        slots.push((idx, dem));
    }
    BfeCiphertext { eph, slots }
}

/// Per-operation counters for decrypt/puncture (feeds the Figure 9 cost
/// breakdown: public-key ops vs. symmetric ops vs. I/O).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpReport {
    /// Group exponentiations performed.
    pub group_ops: u64,
    /// AEAD operations (from the outsourced-storage tree plus the DEM).
    pub aead_ops: u64,
    /// Plaintext/ciphertext bytes passed through AEAD operations.
    pub aead_bytes: u64,
    /// Blocks read from outsourced storage.
    pub blocks_read: u64,
    /// Blocks written to outsourced storage.
    pub blocks_written: u64,
}

impl OpReport {
    /// Component-wise sum.
    pub fn add(&mut self, other: &OpReport) {
        self.group_ops += other.group_ops;
        self.aead_ops += other.aead_ops;
        self.aead_bytes += other.aead_bytes;
        self.blocks_read += other.blocks_read;
        self.blocks_written += other.blocks_written;
    }
}

wire! {
    /// The constant trusted state of a [`BfeSecretKey`]: the secure-array
    /// handle (root key included — seal before persisting) plus the
    /// puncture bookkeeping that drives the rotation trigger.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BfeKeyState {
        /// Filter parameters.
        pub params: BfeParams,
        array: ArrayState,
        punctures: u64,
        slots_deleted: u64,
    }
}

impl BfeSecretKey {
    /// Punctures performed so far.
    pub fn punctures(&self) -> u64 {
        self.punctures
    }

    /// Exports the key's constant trusted state for sealed persistence.
    /// The per-slot scalars stay in the outsourced block store and are
    /// not part of this state.
    pub fn export_state(&self) -> BfeKeyState {
        BfeKeyState {
            params: self.params,
            array: self.array.export_state(),
            punctures: self.punctures,
            slots_deleted: self.slots_deleted,
        }
    }

    /// Rebuilds a secret-key handle from exported state; the caller must
    /// present the block store the original key wrote its slot array to.
    pub fn from_state(state: BfeKeyState) -> Self {
        Self {
            params: state.params,
            array: SecureArray::from_state(state.array),
            punctures: state.punctures,
            slots_deleted: state.slots_deleted,
        }
    }

    /// Bloom slots securely deleted so far.
    pub fn slots_deleted(&self) -> u64 {
        self.slots_deleted
    }

    /// Fraction of slots deleted.
    pub fn fill(&self) -> f64 {
        self.slots_deleted as f64 / self.params.slots as f64
    }

    /// True once half the slots are gone — the paper's rotation trigger.
    pub fn needs_rotation(&self) -> bool {
        self.slots_deleted * 2 >= self.params.slots
    }

    /// The root key of the outsourced secret array.
    ///
    /// Exists solely so the HSM substrate can model physical compromise
    /// (state exfiltration) in security experiments; the protocol never
    /// calls it.
    pub fn array_root_key(&self) -> [u8; 16] {
        self.array.root_key_bytes()
    }

    /// The outsourced secret array's counters: every AEAD operation and
    /// block fetch or write the key tree has served.
    pub fn array_metrics(&self) -> Metrics {
        self.array.metrics()
    }

    /// Attempts to decrypt `ct` (created under `tag`) using any surviving
    /// slot key: [`decrypt_opened`](Self::decrypt_opened) over a batch of
    /// one, through a fresh descent.
    ///
    /// The slot indices are recomputed from `tag` rather than trusted from
    /// the ciphertext, so a malicious ciphertext cannot route decryption
    /// through slots that do not belong to its tag.
    pub fn decrypt<S: BlockStore>(
        &mut self,
        store: &mut S,
        tag: &[u8],
        context: &[u8],
        ct: &BfeCiphertext,
    ) -> Result<(Vec<u8>, OpReport)> {
        let mut descent = self.array.descent();
        let (mut outcomes, report) =
            self.decrypt_opened(store, &mut descent, &[(tag, context, ct)]);
        let (pt, _) = outcomes.pop().ok_or(CryptoError::DecryptionFailed)??;
        Ok((pt, report))
    }

    /// The secret array's counters since `before`, as a report: every
    /// AEAD operation and byte of the key tree, and its block traffic.
    fn report_since(&self, before: Metrics) -> OpReport {
        let after = self.array.metrics();
        OpReport {
            group_ops: 0,
            aead_ops: (after.aead_dec_ops - before.aead_dec_ops)
                + (after.aead_enc_ops - before.aead_enc_ops),
            aead_bytes: (after.bytes_decrypted - before.bytes_decrypted)
                + (after.bytes_encrypted - before.bytes_encrypted),
            blocks_read: after.blocks_fetched - before.blocks_fetched,
            blocks_written: after.blocks_written - before.blocks_written,
        }
    }

    /// Opens the key-tree paths to every Bloom slot of `tags` in one
    /// shared-prefix descent ([`SecureArray::open_paths`]), for the
    /// decryptions ([`decrypt_opened`](Self::decrypt_opened)) and the one
    /// puncture ([`puncture_opened`](Self::puncture_opened)) that follow
    /// to share. A node that fails to open is recorded, not fatal: it
    /// fails only the slots under it. Dropping the descent writes nothing
    /// and wipes the keys it holds.
    pub fn open_tags<S: BlockStore>(
        &mut self,
        store: &mut S,
        tags: &[&[u8]],
    ) -> (Descent, OpReport) {
        let before = self.array.metrics();
        let slots: Vec<u64> = tags
            .iter()
            .flat_map(|tag| self.params.indices_for_tag(tag))
            .collect();
        let mut descent = self.array.descent();
        self.array.open_paths(store, &mut descent, &slots);
        (descent, self.report_since(before))
    }

    /// Decrypts many ciphertexts — typically **many users'** coalesced
    /// share decryptions on one HSM — through `descent`. Each item needs one
    /// surviving Bloom slot; per round, every unresolved item's next
    /// candidate slot is read through [`SecureArray::read_through`], which
    /// opens only the path nodes `descent` lacks (none, when
    /// [`open_tags`](Self::open_tags) opened the items' tags), so every
    /// node on the union of the items' paths is fetched and opened
    /// **once**. Outcomes per item are exactly what decrypting the items
    /// one batch each would produce — same slot-candidate order, same
    /// error cases — only the meters differ.
    ///
    /// Returns per-item results in input order — the plaintext plus the
    /// `(slot index, slot scalar)` that produced it, which is what lets
    /// an HSM audit every scalar it read from outsourced storage against
    /// its published public key in one multi-scalar multiplication
    /// ([`BfePublicKey::audit_slot_scalars`]) — and one aggregate
    /// [`OpReport`] for the whole batch.
    #[allow(clippy::type_complexity)]
    pub fn decrypt_opened<S: BlockStore>(
        &mut self,
        store: &mut S,
        descent: &mut Descent,
        items: &[(&[u8], &[u8], &BfeCiphertext)],
    ) -> (Vec<Result<(Vec<u8>, (u64, Scalar))>>, OpReport) {
        let before = self.array.metrics();
        let mut report = OpReport::default();
        let mut out: Vec<Option<Result<(Vec<u8>, (u64, Scalar))>>> =
            Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);

        // Per item: candidate slots in tag order, restricted to slots
        // the encryptor actually placed a DEM for, plus the ephemeral
        // point's SEC1 encoding hoisted once per item.
        let mut eph_sec1: Vec<[u8; POINT_LEN]> = Vec::with_capacity(items.len());
        let mut active: Vec<(usize, Vec<u64>, usize)> = Vec::with_capacity(items.len());
        for (k, (tag, _, ct)) in items.iter().enumerate() {
            eph_sec1.push(ct.eph.to_sec1());
            let slots: Vec<u64> = self
                .params
                .indices_for_tag(tag)
                .into_iter()
                .filter(|idx| ct.slots.iter().any(|(slot, _)| slot == idx))
                .collect();
            if slots.is_empty() {
                // No candidate slot carries a DEM for this tag.
                out[k] = Some(Err(CryptoError::DecryptionFailed));
            } else {
                active.push((k, slots, 0));
            }
        }

        while !active.is_empty() {
            let wanted: Vec<u64> = active.iter().map(|(_, slots, next)| slots[*next]).collect();
            let reads = self.array.read_through(store, descent, &wanted);

            let mut still_active = Vec::with_capacity(active.len());
            for ((k, slots, mut next), read) in active.into_iter().zip(reads) {
                let idx = slots[next];
                let (_, _, ct) = items[k];
                let result =
                    match read {
                        Ok(scalar_bytes) => {
                            let parsed = scalar_bytes.as_slice().try_into().ok().and_then(
                                |arr: [u8; 32]| Option::<Scalar>::from(Scalar::from_repr(arr)),
                            );
                            match parsed {
                                // A malformed stored scalar is a hard error.
                                None => Some(Err(CryptoError::InvalidScalar)),
                                Some(scalar) => {
                                    let shared = *ct.eph.as_point() * scalar;
                                    report.group_ops += 1;
                                    let key = dem_key(&shared, &eph_sec1[k], idx, items[k].1);
                                    report.aead_ops += 1;
                                    let dem = ct
                                        .slots
                                        .iter()
                                        .find(|(slot, _)| *slot == idx)
                                        .map(|(_, dem)| dem)
                                        .expect("candidate list was filtered to present slots");
                                    match aead::open(&key, items[k].1, dem) {
                                        Ok(pt) => Some(Ok((pt, (idx, scalar)))),
                                        // Auth failure on a surviving slot:
                                        // try the remaining candidates.
                                        Err(_) => None,
                                    }
                                }
                            }
                        }
                        Err(StorageError::Deleted(_)) => None,
                        Err(_) => Some(Err(CryptoError::DecryptionFailed)),
                    };
                match result {
                    Some(done) => out[k] = Some(done),
                    None => {
                        next += 1;
                        if next < slots.len() {
                            still_active.push((k, slots, next));
                        } else {
                            out[k] = Some(Err(CryptoError::DecryptionFailed));
                        }
                    }
                }
            }
            active = still_active;
        }
        report.add(&self.report_since(before));
        (
            out.into_iter()
                .map(|r| r.expect("every item resolved"))
                .collect(),
            report,
        )
    }

    /// Punctures `tag`: securely deletes all of its slot secrets.
    ///
    /// The tag's `k` leaves are deleted in **one batched pass** that shares
    /// root-to-leaf path prefixes ([`SecureArray::delete_batch`]) — the
    /// upper tree levels are decrypted and re-keyed once instead of once
    /// per slot, cutting both AEAD operations and provider block
    /// round-trips per puncture.
    ///
    /// After this returns, no ciphertext under `tag` can ever be decrypted
    /// again with this key, even by an adversary who later extracts the
    /// entire HSM state and has recorded all outsourced blocks.
    pub fn puncture<S: BlockStore, R: RngCore + CryptoRng>(
        &mut self,
        store: &mut S,
        tag: &[u8],
        rng: &mut R,
    ) -> Result<OpReport> {
        self.puncture_many(store, &[tag], rng)
    }

    /// Punctures many **distinct** tags in one coalesced pass:
    /// [`puncture_opened`](Self::puncture_opened) through a fresh descent.
    pub fn puncture_many<S: BlockStore, R: RngCore + CryptoRng>(
        &mut self,
        store: &mut S,
        tags: &[&[u8]],
        rng: &mut R,
    ) -> Result<OpReport> {
        let descent = self.array.descent();
        self.puncture_opened(store, descent, tags, rng)
    }

    /// Punctures many **distinct** tags in one coalesced pass through
    /// `descent`: the union of every tag's Bloom-slot indices is securely
    /// deleted by a single [`SecureArray::delete_through`], which opens
    /// only the path nodes `descent` lacks and re-seals exactly the tags'
    /// paths, so the shared upper tree levels are re-keyed once for the
    /// whole batch instead of once per tag — the cross-user amortization
    /// a recovery-storm engine lives on. If a node on those paths failed
    /// to open, nothing is written.
    ///
    /// Semantically equivalent to puncturing each tag in turn (same
    /// subsequent decrypt outcomes, same conservative per-tag rotation
    /// accounting); callers coalescing requests must still apply the
    /// serial ordering rule themselves — a tag that must observe an
    /// *earlier* puncture of the same tag cannot ride the same batch.
    /// An empty batch is a no-op.
    pub fn puncture_opened<S: BlockStore, R: RngCore + CryptoRng>(
        &mut self,
        store: &mut S,
        descent: Descent,
        tags: &[&[u8]],
        rng: &mut R,
    ) -> Result<OpReport> {
        let before = self.array.metrics();
        let mut union: Vec<u64> = Vec::new();
        for tag in tags {
            union.extend(self.params.indices_for_tag(tag));
        }
        if self
            .array
            .delete_through(store, descent, &union, rng)
            .is_err()
        {
            return Err(CryptoError::DecryptionFailed);
        }
        // Same conservative rotation trigger as sequential puncturing:
        // every *requested* slot counts, overlaps included.
        self.slots_deleted += union.len() as u64;
        self.punctures += tags.len() as u64;
        Ok(self.report_since(before))
    }

    /// Convenience: decrypt then puncture, the exact HSM operation behind
    /// Figure 9's "Decrypt + Puncture time".
    pub fn decrypt_and_puncture<S: BlockStore, R: RngCore + CryptoRng>(
        &mut self,
        store: &mut S,
        tag: &[u8],
        context: &[u8],
        ct: &BfeCiphertext,
        rng: &mut R,
    ) -> Result<(Vec<u8>, OpReport)> {
        let (pt, mut report) = self.decrypt(store, tag, context, ct)?;
        let punc_report = self.puncture(store, tag, rng)?;
        report.add(&punc_report);
        Ok((pt, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use safetypin_seckv::MemStore;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31337)
    }

    fn small_params() -> BfeParams {
        BfeParams::new(256, 4).unwrap()
    }

    #[test]
    fn roundtrip() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let ct = encrypt(&pk, b"tag-1", b"ctx", b"share bytes", &mut rng);
        let (pt, _) = sk.decrypt(&mut store, b"tag-1", b"ctx", &ct).unwrap();
        assert_eq!(pt, b"share bytes");
    }

    #[test]
    fn skip_steps_over_exactly_what_decode_reads() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, _, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        for msg_len in [0usize, 1, 45, 300] {
            let ct = encrypt(&pk, b"tag-skip", b"ctx", &vec![7u8; msg_len], &mut rng);
            let mut bytes = ct.to_bytes();
            bytes.extend_from_slice(b"next");
            let mut r = Reader::new(&bytes);
            BfeCiphertext::skip(&mut r).unwrap();
            assert_eq!(r.remaining(), 4, "msg_len {msg_len}");
            let encoded = &bytes[..bytes.len() - 4];
            for cut in 0..encoded.len() {
                let prefix = &encoded[..cut];
                assert!(BfeCiphertext::skip(&mut Reader::new(prefix)).is_err());
                assert!(BfeCiphertext::decode(&mut Reader::new(prefix)).is_err());
            }
        }
    }

    #[test]
    fn puncture_revokes_tag() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let ct = encrypt(&pk, b"tag-1", b"ctx", b"msg", &mut rng);
        sk.puncture(&mut store, b"tag-1", &mut rng).unwrap();
        assert!(sk.decrypt(&mut store, b"tag-1", b"ctx", &ct).is_err());
    }

    #[test]
    fn puncture_leaves_other_tags_usable() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let ct2 = encrypt(&pk, b"tag-2", b"ctx", b"other", &mut rng);
        sk.puncture(&mut store, b"tag-1", &mut rng).unwrap();
        // tag-2's slots may overlap tag-1's; with 256 slots and k=4 the
        // overlap destroying all 4 is overwhelmingly unlikely.
        let (pt, _) = sk.decrypt(&mut store, b"tag-2", b"ctx", &ct2).unwrap();
        assert_eq!(pt, b"other");
    }

    #[test]
    fn decrypt_after_puncture_of_same_ciphertext_fails_forever() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let ct = encrypt(&pk, b"t", b"c", b"m", &mut rng);
        let (pt, _) = sk
            .decrypt_and_puncture(&mut store, b"t", b"c", &ct, &mut rng)
            .unwrap();
        assert_eq!(pt, b"m");
        assert!(sk.decrypt(&mut store, b"t", b"c", &ct).is_err());
        // Even a second identical ciphertext under the same tag is dead.
        let ct2 = encrypt(&pk, b"t", b"c", b"m", &mut rng);
        assert!(sk.decrypt(&mut store, b"t", b"c", &ct2).is_err());
    }

    #[test]
    fn wrong_context_rejected() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let ct = encrypt(&pk, b"t", b"ctx-a", b"m", &mut rng);
        assert!(sk.decrypt(&mut store, b"t", b"ctx-b", &ct).is_err());
    }

    #[test]
    fn wrong_tag_rejected() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let ct = encrypt(&pk, b"tag-a", b"c", b"m", &mut rng);
        // Decrypting under a different tag recomputes different slots.
        assert!(sk.decrypt(&mut store, b"tag-b", b"c", &ct).is_err());
    }

    #[test]
    fn rotation_trigger() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let params = BfeParams::new(64, 4).unwrap();
        let (_pk, mut sk, _) = keygen(params, &mut store, &mut rng).unwrap();
        assert_eq!(params.max_punctures(), 8);
        let mut i = 0u64;
        while !sk.needs_rotation() {
            sk.puncture(&mut store, &i.to_be_bytes(), &mut rng).unwrap();
            i += 1;
            assert!(i <= 64, "rotation must trigger within slot budget");
        }
        // With k=4 and 64 slots, needs at least 8 punctures.
        assert!(i >= 8, "needed {i} punctures");
    }

    #[test]
    fn failure_probability_grows_with_fill() {
        let p = small_params();
        assert!(p.failure_prob_at_fill(0.0) < 1e-9);
        let half = p.failure_prob_at_fill(0.5);
        assert!((half - 0.0625).abs() < 1e-12, "0.5^4 = 1/16");
        assert!(p.failure_prob_at_fill(0.9) > half);
    }

    #[test]
    fn batched_puncture_cuts_aead_ops_and_block_roundtrips() {
        // Acceptance: puncturing a k-slot tag in one batched pass touches
        // each node on the union of the k root-to-leaf paths exactly once,
        // strictly fewer AEAD ops and block round-trips than the k
        // independent deletes the old code performed (2·k·h ops).
        let mut rng = rng();
        let mut store = MemStore::new();
        let (_, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let tag = b"metered-tag";
        let indices = sk.params.indices_for_tag(tag);
        let k = indices.len() as u64;
        assert!(k >= 2, "tag must span several slots for the comparison");

        // Tree height of the padded secret array backing these params.
        let height = (sk.params.slots as usize)
            .next_power_of_two()
            .trailing_zeros();
        let mut union = std::collections::BTreeSet::new();
        for &i in &indices {
            let leaf = (1u64 << height) + i;
            for level in 1..=height {
                union.insert(leaf >> level);
            }
        }
        let nodes = union.len() as u64;

        let report = sk.puncture(&mut store, tag, &mut rng).unwrap();
        assert_eq!(report.blocks_read, nodes);
        assert_eq!(report.blocks_written, nodes);
        assert_eq!(report.aead_ops, 2 * nodes);

        let sequential_ops = 2 * k * height as u64;
        assert!(
            report.aead_ops < sequential_ops,
            "batched puncture ({}) must beat {} sequential-delete AEAD ops",
            report.aead_ops,
            sequential_ops
        );
        assert!(report.blocks_read + report.blocks_written < sequential_ops);
    }

    #[test]
    fn puncture_many_matches_sequential_punctures() {
        let mut rng = rng();
        let tags: Vec<&[u8]> = vec![b"tag-a", b"tag-b", b"tag-c"];

        let mut store_seq = MemStore::new();
        let (_, mut seq, _) = keygen(small_params(), &mut store_seq, &mut rng).unwrap();
        let mut store_bat = MemStore::new();
        let (pk, mut bat, _) = keygen(small_params(), &mut store_bat, &mut rng).unwrap();

        for tag in &tags {
            seq.puncture(&mut store_seq, tag, &mut rng).unwrap();
        }
        let report = bat.puncture_many(&mut store_bat, &tags, &mut rng).unwrap();

        assert_eq!(bat.punctures(), seq.punctures());
        assert_eq!(bat.slots_deleted(), seq.slots_deleted());
        // The coalesced pass must beat three sequential punctures on
        // block round-trips (shared upper levels touched once).
        assert!(report.blocks_read + report.blocks_written > 0);

        // Every punctured tag is dead on both keys; a fresh tag lives.
        for tag in &tags {
            let ct = encrypt(&pk, tag, b"c", b"m", &mut rng);
            assert!(bat.decrypt(&mut store_bat, tag, b"c", &ct).is_err());
        }
        let ct = encrypt(&pk, b"tag-d", b"c", b"m", &mut rng);
        assert!(bat.decrypt(&mut store_bat, b"tag-d", b"c", &ct).is_ok());
    }

    #[test]
    fn puncture_many_coalescing_beats_sequential_roundtrips() {
        let mut rng = rng();
        let tags: Vec<Vec<u8>> = (0..8u64).map(|t| t.to_be_bytes().to_vec()).collect();
        let tag_refs: Vec<&[u8]> = tags.iter().map(|t| t.as_slice()).collect();

        let mut store_seq = MemStore::new();
        let (_, mut seq, _) = keygen(small_params(), &mut store_seq, &mut rng).unwrap();
        let mut store_bat = MemStore::new();
        let (_, mut bat, _) = keygen(small_params(), &mut store_bat, &mut rng).unwrap();

        let mut seq_report = OpReport::default();
        for tag in &tag_refs {
            seq_report.add(&seq.puncture(&mut store_seq, tag, &mut rng).unwrap());
        }
        let bat_report = bat
            .puncture_many(&mut store_bat, &tag_refs, &mut rng)
            .unwrap();
        assert!(
            bat_report.aead_ops < seq_report.aead_ops,
            "coalesced {} vs sequential {}",
            bat_report.aead_ops,
            seq_report.aead_ops
        );
        assert!(
            bat_report.blocks_read + bat_report.blocks_written
                < seq_report.blocks_read + seq_report.blocks_written
        );
    }

    #[test]
    fn puncture_many_empty_is_noop() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (_, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let report = sk.puncture_many(&mut store, &[], &mut rng).unwrap();
        assert_eq!(report, OpReport::default());
        assert_eq!(sk.punctures(), 0);
    }

    /// [`BfeSecretKey::decrypt_opened`] through a fresh descent.
    #[allow(clippy::type_complexity)]
    fn decrypt_fresh(
        sk: &mut BfeSecretKey,
        store: &mut MemStore,
        items: &[(&[u8], &[u8], &BfeCiphertext)],
    ) -> (Vec<Result<(Vec<u8>, (u64, Scalar))>>, OpReport) {
        let mut descent = sk.array.descent();
        sk.decrypt_opened(store, &mut descent, items)
    }

    #[test]
    fn decrypt_opened_matches_serial_decrypts() {
        let mut rng = rng();
        let mut store_a = MemStore::new();
        let (pk, mut serial, _) = keygen(small_params(), &mut store_a, &mut rng).unwrap();
        let mut store_b = MemStore::new();
        let mut rng2 = StdRng::seed_from_u64(31337); // twin keygen stream
        let (_, mut batch, _) = keygen(small_params(), &mut store_b, &mut rng2).unwrap();

        // A mix of live tags, a punctured tag, and a wrong-tag item.
        let cts: Vec<(Vec<u8>, BfeCiphertext)> = (0..6u64)
            .map(|t| {
                let tag = t.to_be_bytes().to_vec();
                let ct = encrypt(&pk, &tag, b"ctx", format!("m{t}").as_bytes(), &mut rng);
                (tag, ct)
            })
            .collect();
        serial
            .puncture(&mut store_a, &2u64.to_be_bytes(), &mut rng)
            .unwrap();
        batch
            .puncture(&mut store_b, &2u64.to_be_bytes(), &mut rng)
            .unwrap();

        let wrong_tag = 99u64.to_be_bytes().to_vec();
        let mut items: Vec<(&[u8], &[u8], &BfeCiphertext)> = cts
            .iter()
            .map(|(tag, ct)| (tag.as_slice(), b"ctx" as &[u8], ct))
            .collect();
        items.push((wrong_tag.as_slice(), b"ctx", &cts[0].1));

        let (batched, report) = decrypt_fresh(&mut batch, &mut store_b, &items);
        assert!(report.aead_ops > 0 && report.blocks_read > 0);
        // One batch of n ≡ n batches of one, item for item.
        for (k, item) in items.iter().enumerate() {
            let (single, _) = decrypt_fresh(&mut serial, &mut store_a, &[*item]);
            match (&batched[k], &single[0]) {
                (Ok(b), Ok(s)) => assert_eq!(b, s, "item {k}"),
                (Err(_), Err(_)) => {}
                other => panic!("item {k} diverged: {other:?}"),
            }
        }

        // The shared-prefix pass must beat one-at-a-time on block reads.
        let mut store_c = MemStore::new();
        let mut rng3 = StdRng::seed_from_u64(31337);
        let (_, mut lone, _) = keygen(small_params(), &mut store_c, &mut rng3).unwrap();
        let mut serial_report = OpReport::default();
        for (tag, context, ct) in &items {
            if let Ok((_, r)) = lone.decrypt(&mut store_c, tag, context, ct) {
                serial_report.add(&r);
            }
        }
        assert!(
            report.blocks_read < serial_report.blocks_read + 30,
            "batched reads {} should not exceed serial {} by the failed items' walks",
            report.blocks_read,
            serial_report.blocks_read
        );
    }

    #[test]
    fn decrypt_traced_exposes_the_surviving_slot() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let ct = encrypt(&pk, b"t", b"c", b"m", &mut rng);
        let (mut outcomes, _) = decrypt_fresh(&mut sk, &mut store, &[(b"t", b"c", &ct)]);
        let (pt, (idx, scalar)) = outcomes.pop().unwrap().unwrap();
        assert_eq!(pt, b"m");
        // The trace is the slot's true discrete log.
        assert!(pk.params.indices_for_tag(b"t").contains(&idx));
        assert!(pk.audit_slot_scalars(&[(idx, scalar)], &mut rng));
    }

    #[test]
    fn audit_slot_scalars_accepts_honest_and_rejects_substituted() {
        use p256::elliptic_curve::Field as _;
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        // Collect honest traces across several "users" (tags).
        let cts: Vec<([u8; 8], BfeCiphertext)> = (0..4u64)
            .map(|t| {
                let tag = t.to_be_bytes();
                let ct = encrypt(&pk, &tag, b"c", b"m", &mut rng);
                (tag, ct)
            })
            .collect();
        let items: Vec<(&[u8], &[u8], &BfeCiphertext)> = cts
            .iter()
            .map(|(tag, ct)| (tag.as_slice(), b"c" as &[u8], ct))
            .collect();
        let (outcomes, _) = decrypt_fresh(&mut sk, &mut store, &items);
        let traces: Vec<(u64, Scalar)> = outcomes.into_iter().map(|o| o.unwrap().1).collect();
        assert!(pk.audit_slot_scalars(&traces, &mut rng));
        assert!(pk.audit_slot_scalars(&[], &mut rng), "empty batch passes");

        // One substituted scalar sinks the whole batch.
        let mut bad = traces.clone();
        bad[2].1 = Scalar::random(&mut rng);
        assert!(!pk.audit_slot_scalars(&bad, &mut rng));
        // Out-of-range slot index is rejected outright.
        let mut oob = traces;
        oob[0].0 = pk.params.slots;
        assert!(!pk.audit_slot_scalars(&oob, &mut rng));
    }

    #[test]
    fn secret_key_state_roundtrip_preserves_punctures() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let ct1 = encrypt(&pk, b"tag-1", b"ctx", b"m1", &mut rng);
        let ct2 = encrypt(&pk, b"tag-2", b"ctx", b"m2", &mut rng);
        sk.puncture(&mut store, b"tag-1", &mut rng).unwrap();

        let state = sk.export_state();
        let back = BfeKeyState::from_bytes(&state.to_bytes()).unwrap();
        assert_eq!(back, state);
        let mut restored = BfeSecretKey::from_state(back);
        assert_eq!(restored.punctures(), 1);
        assert_eq!(restored.slots_deleted(), sk.slots_deleted());
        // The punctured tag stays dead, the fresh tag still decrypts.
        assert!(restored
            .decrypt(&mut store, b"tag-1", b"ctx", &ct1)
            .is_err());
        let (pt, _) = restored
            .decrypt(&mut store, b"tag-2", b"ctx", &ct2)
            .unwrap();
        assert_eq!(pt, b"m2");
        // And the restored handle can keep puncturing.
        restored.puncture(&mut store, b"tag-2", &mut rng).unwrap();
        assert!(restored
            .decrypt(&mut store, b"tag-2", b"ctx", &ct2)
            .is_err());
    }

    #[test]
    fn keygen_report_counts_group_ops() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (_, _, report) = keygen(small_params(), &mut store, &mut rng).unwrap();
        assert_eq!(report.group_ops, 256);
        assert_eq!(report.outsourced_bytes, 256 * 32);
    }

    #[test]
    fn op_report_shape() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let ct = encrypt(&pk, b"t", b"c", b"m", &mut rng);
        let (_, report) = sk.decrypt(&mut store, b"t", b"c", &ct).unwrap();
        // One surviving slot suffices: exactly one group op.
        assert_eq!(report.group_ops, 1);
        // Tree of 256 leaves has height 8: 8 interior + 1 leaf reads.
        assert!(report.aead_ops >= 9, "aead ops {}", report.aead_ops);
    }

    #[test]
    fn ciphertext_wire_roundtrip() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let ct = encrypt(&pk, b"t", b"c", b"m", &mut rng);
        let back = BfeCiphertext::from_bytes(&ct.to_bytes()).unwrap();
        assert_eq!(back, ct);
        let (pt, _) = sk.decrypt(&mut store, b"t", b"c", &back).unwrap();
        assert_eq!(pt, b"m");
    }

    #[test]
    fn public_key_wire_roundtrip() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let params = BfeParams::new(16, 2).unwrap();
        let (pk, _, _) = keygen(params, &mut store, &mut rng).unwrap();
        let back = BfePublicKey::from_bytes(&pk.to_bytes()).unwrap();
        assert_eq!(back, pk);
    }

    #[test]
    fn public_key_clones_share_the_slot_points() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, _, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        assert!(std::ptr::eq(pk.slot(0), pk.clone().slot(0)));
        let decoded = BfePublicKey::from_bytes(&pk.to_bytes()).unwrap();
        assert!(std::ptr::eq(decoded.slot(0), decoded.clone().slot(0)));
    }

    #[test]
    fn params_validation() {
        assert!(BfeParams::new(1, 1).is_err());
        assert!(BfeParams::new(16, 0).is_err());
        assert!(BfeParams::new(4, 8).is_err());
        assert!(BfeParams::new(16, 4).is_ok());
    }

    #[test]
    fn indices_deterministic_and_bounded() {
        let p = small_params();
        let a = p.indices_for_tag(b"tag");
        let b = p.indices_for_tag(b"tag");
        assert_eq!(a, b);
        assert!(a.len() <= 4 && !a.is_empty());
        assert!(a.iter().all(|&i| i < 256));
        // Deduplicated.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
    }

    #[test]
    fn empty_message_roundtrip() {
        let mut rng = rng();
        let mut store = MemStore::new();
        let (pk, mut sk, _) = keygen(small_params(), &mut store, &mut rng).unwrap();
        let ct = encrypt(&pk, b"t", b"c", b"", &mut rng);
        let (pt, _) = sk.decrypt(&mut store, b"t", b"c", &ct).unwrap();
        assert!(pt.is_empty());
    }
}
