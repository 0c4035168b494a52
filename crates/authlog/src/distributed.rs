//! The Figure 5 epoch-update protocol: randomized chunk auditing.
//!
//! Checking a whole epoch's extension proof costs time linear in the number
//! of insertions, so having every HSM check everything would erase the
//! system's scalability. Instead (paper §6.2):
//!
//! 1. The provider splits the epoch's `I` insertions into `K` chunks,
//!    applies them chunk by chunk, and commits to the chain of intermediate
//!    digests `d → d₁ → … → d_K = d'` with a Merkle root `R`.
//! 2. Each HSM audits a share of the chunks — chosen *deterministically*
//!    from `(R, hsm id)` per Appendix B.3, so surviving HSMs can recompute
//!    and re-audit a failed HSM's assignment — verifying each audited
//!    chunk's extension proof and the Merkle inclusion of its boundary
//!    digests.
//! 3. Satisfied HSMs sign the tuple `(d, d', R, K)`; the provider
//!    aggregates the BLS signatures; HSMs accept `d'` once the aggregate
//!    verifies under the fleet key.
//!
//! # How much each HSM audits
//!
//! The paper fixes `K = N` (one chunk per HSM, sized for `I ≫ N`) and has
//! every HSM audit `C = λ` of them. With `(1 − 2·f_secret)·N` honest
//! auditors each drawing `C` of `N` chunks, a chunk escapes one auditor
//! with probability `(1 − 1/N)^C ≤ e^(−C/N)` and every honest auditor with
//! probability `≤ exp(−(1 − 2·f_secret)·C)` ≤ 2⁻¹²⁸ for `C = λ = 128`
//! (§6.2, Security).
//!
//! Here `K` is whatever the untrusted provider signs — the honest one cuts
//! `K = clamp(pending, 1, N)` chunks ([`Log::plan_epoch`]), one per pending
//! insertion until the fleet size caps it, however the insertions arrived
//! — so the audit budget is a *rate*, not a count. One rule,
//! [`audit_draws`], owned by this module and enforced by the HSM from its
//! own configuration (`C`) and its own registered fleet (`N`):
//!
//! * **`K ≥ 1`.** An update that commits to no chunk certifies nothing and
//!   is refused ([`AuditError::NoChunks`]); an empty epoch is one empty
//!   chunk.
//! * **`a/K ≥ C/N`.** An HSM draws `a = ⌈C·K/N⌉` chunks, so a chunk
//!   escapes one auditor with probability `(1 − 1/K)^a ≤ e^(−a/K) ≤
//!   e^(−C/N)` — the paper's `K = N` bound — for *any* `K`. At `K = N`,
//!   `a = C` and the draws are the paper's; inflating `K` buys the
//!   provider no dilution, only proportionally more packages to ship.
//! * **Audit-all below it.** When `a ≥ K` (few chunks, or `C ≥ N`, or an
//!   unregistered device with `N = 0`) the HSM audits every chunk, and
//!   nothing escapes at all: a one-insertion epoch is one chunk replayed
//!   once by every HSM.
//!
//! [`Log::plan_epoch`]: crate::log::Log::plan_epoch

use safetypin_primitives::hashes::{Domain, Hash256, HashStream};
use safetypin_primitives::merkle::{self, MerkleProof, MerkleTree};
use safetypin_primitives::wire;
use safetypin_primitives::wire::{Encode, Writer};

use crate::log::EpochCut;
use crate::trie::{ExtensionProof, MerkleTrie};

/// Errors from epoch-update auditing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// The update commits to zero chunks: there is nothing to audit, so
    /// there is nothing to sign.
    NoChunks,
    /// The chunk chain did not replay from the old digest to the new one.
    BrokenChain,
    /// A chunk index was out of range.
    ChunkOutOfRange(u32),
    /// A Merkle inclusion proof failed against the root `R`.
    BadInclusion(u32),
    /// A chunk's extension proof failed verification.
    BadExtension(u32),
    /// A boundary digest did not match the signed message.
    BoundaryMismatch,
}

impl core::fmt::Display for AuditError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuditError::NoChunks => write!(f, "update commits to no chunks"),
            AuditError::BrokenChain => write!(f, "chunk chain does not reach new digest"),
            AuditError::ChunkOutOfRange(c) => write!(f, "chunk {c} out of range"),
            AuditError::BadInclusion(c) => write!(f, "bad Merkle inclusion for chunk {c}"),
            AuditError::BadExtension(c) => write!(f, "bad extension proof for chunk {c}"),
            AuditError::BoundaryMismatch => write!(f, "boundary digest mismatch"),
        }
    }
}

impl std::error::Error for AuditError {}

wire! {
    /// The tuple every HSM signs: `(d, d', R)` plus the chunk count (which
    /// bounds valid leaf indices under `R`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct UpdateMessage {
        /// Digest before the epoch (`d`).
        pub old_digest: Hash256,
        /// Digest after the epoch (`d'`).
        pub new_digest: Hash256,
        /// Merkle root over the intermediate digests (`R`).
        pub root: Hash256,
        /// Number of chunks in the epoch.
        pub chunk_count: u32,
    }
}

impl UpdateMessage {
    /// Canonical bytes for BLS signing.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_fixed(b"safetypin/log-update/v1");
        w.put_fixed(&self.old_digest);
        w.put_fixed(&self.new_digest);
        w.put_fixed(&self.root);
        w.put_u32(self.chunk_count);
        w.into_bytes()
    }
}

fn chunk_leaf(index: u32, digest: &Hash256) -> Vec<u8> {
    let mut leaf = Vec::with_capacity(4 + 32);
    leaf.extend_from_slice(&index.to_be_bytes());
    leaf.extend_from_slice(digest);
    leaf
}

/// Provider-side epoch update: the chunk chain, its Merkle commitment, and
/// the audit materials.
#[derive(Debug, Clone)]
pub struct EpochUpdate {
    message: UpdateMessage,
    /// Post-chunk digests `d_1 … d_K` (`d_K = d'`).
    chunk_digests: Vec<Hash256>,
    chunk_proofs: Vec<ExtensionProof>,
    tree: MerkleTree,
}

impl EpochUpdate {
    /// Builds the update from an epoch cut alone: replays each chunk for
    /// the boundary digests, then [`from_certified`](Self::from_certified).
    /// Fails if a chunk does not replay or the chain does not reach the
    /// new digest (which would indicate provider state corruption).
    pub fn build(cut: &EpochCut) -> Result<Self, AuditError> {
        let mut digests = Vec::with_capacity(cut.chunk_proofs.len());
        let mut d = cut.old_digest;
        for proof in &cut.chunk_proofs {
            d = proof.replay(&d).map_err(|_| AuditError::BrokenChain)?;
            digests.push(d);
        }
        Self::from_certified(cut, digests)
    }

    /// Builds the update from a certified cut — the boundary digests the
    /// log recorded as entries arrived
    /// ([`Log::cut_epoch_certified`](crate::log::Log::cut_epoch_certified))
    /// — without replaying any chunk. The result is byte-identical to
    /// [`build`](Self::build) on the same cut; only the provider's cost
    /// changes, from O(insertions × path length) re-hashing to O(chunks).
    ///
    /// HSM-side auditing is untouched: every chunk is still replayed and
    /// checked against `R` by its auditors before anyone signs.
    pub fn from_certified(cut: &EpochCut, chunk_digests: Vec<Hash256>) -> Result<Self, AuditError> {
        if chunk_digests.len() != cut.chunk_proofs.len()
            || chunk_digests.last().copied().unwrap_or(cut.old_digest) != cut.new_digest
        {
            return Err(AuditError::BrokenChain);
        }
        let leaves: Vec<Vec<u8>> = chunk_digests
            .iter()
            .enumerate()
            .map(|(i, d)| chunk_leaf(i as u32, d))
            .collect();
        let tree = MerkleTree::build(&leaves);
        Ok(Self {
            message: UpdateMessage {
                old_digest: cut.old_digest,
                new_digest: cut.new_digest,
                root: tree.root(),
                chunk_count: cut.chunk_proofs.len() as u32,
            },
            chunk_digests,
            chunk_proofs: cut.chunk_proofs.clone(),
            tree,
        })
    }

    /// The message HSMs sign.
    pub fn message(&self) -> UpdateMessage {
        self.message
    }

    /// Builds the audit package for one chunk (provider → HSM).
    pub fn audit_package(&self, chunk: u32) -> Result<ChunkAudit, AuditError> {
        let k = self.message.chunk_count;
        if chunk >= k {
            return Err(AuditError::ChunkOutOfRange(chunk));
        }
        let idx = chunk as usize;
        let (start_digest, start_inclusion) = if chunk == 0 {
            (self.message.old_digest, None)
        } else {
            (self.chunk_digests[idx - 1], Some(self.tree.prove(idx - 1)))
        };
        Ok(ChunkAudit {
            chunk,
            start_digest,
            end_digest: self.chunk_digests[idx],
            proof: self.chunk_proofs[idx].clone(),
            start_inclusion,
            end_inclusion: self.tree.prove(idx),
        })
    }
}

wire! {
    /// Audit materials for one chunk.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ChunkAudit {
        /// The chunk index.
        pub chunk: u32,
        /// Digest before this chunk (`d_{i-1}`, or `d` for the first chunk).
        pub start_digest: Hash256,
        /// Digest after this chunk (`d_i`).
        pub end_digest: Hash256,
        /// The chunk's extension proof.
        pub proof: ExtensionProof,
        /// Merkle proof that `start_digest` is leaf `chunk−1` of `R`
        /// (absent for the first chunk, which starts from `d`).
        pub start_inclusion: Option<MerkleProof>,
        /// Merkle proof that `end_digest` is leaf `chunk` of `R`.
        pub end_inclusion: MerkleProof,
    }
}

impl ChunkAudit {
    /// Serialized size (for audit-bandwidth accounting).
    pub fn proof_bytes(&self) -> usize {
        self.encoded_len()
    }
}

/// HSM-side verification of one audited chunk.
pub fn verify_chunk(message: &UpdateMessage, audit: &ChunkAudit) -> Result<(), AuditError> {
    let k = message.chunk_count;
    if audit.chunk >= k {
        return Err(AuditError::ChunkOutOfRange(audit.chunk));
    }
    // Boundary digests are bound to leaf positions under R.
    if audit.chunk == 0 {
        if audit.start_digest != message.old_digest {
            return Err(AuditError::BoundaryMismatch);
        }
        if audit.start_inclusion.is_some() {
            return Err(AuditError::BadInclusion(0));
        }
    } else {
        let proof = audit
            .start_inclusion
            .as_ref()
            .ok_or(AuditError::BadInclusion(audit.chunk))?;
        if proof.index != (audit.chunk - 1) as u64
            || !merkle::verify(
                &message.root,
                &chunk_leaf(audit.chunk - 1, &audit.start_digest),
                proof,
            )
        {
            return Err(AuditError::BadInclusion(audit.chunk));
        }
    }
    if audit.end_inclusion.index != audit.chunk as u64
        || !merkle::verify(
            &message.root,
            &chunk_leaf(audit.chunk, &audit.end_digest),
            &audit.end_inclusion,
        )
    {
        return Err(AuditError::BadInclusion(audit.chunk));
    }
    // The last chunk must land on the claimed new digest.
    if audit.chunk == k - 1 && audit.end_digest != message.new_digest {
        return Err(AuditError::BoundaryMismatch);
    }
    // The chunk's insertions must extend start → end.
    if !MerkleTrie::does_extend(&audit.start_digest, &audit.end_digest, &audit.proof) {
        return Err(AuditError::BadExtension(audit.chunk));
    }
    Ok(())
}

/// The one audit-sizing rule (module docs): how many chunks an HSM
/// configured for `audits` (`C`) draws per epoch draws from an epoch of
/// `chunk_count` (`K`) chunks in a fleet of `fleet` (`N`) devices —
/// `a = ⌈C·K/N⌉`, so that `a/K ≥ C/N` for any `K`. A result `≥ K` (always
/// the case for `N = 0`) means "audit every chunk".
pub fn audit_draws(chunk_count: u32, audits: u32, fleet: usize) -> u32 {
    if fleet == 0 {
        return chunk_count;
    }
    let draws = (u64::from(audits) * u64::from(chunk_count)).div_ceil(fleet as u64);
    draws.min(u64::from(chunk_count)) as u32
}

/// The deterministic audit assignment from Appendix B.3: which chunks HSM
/// `hsm_id` — configured for `audits` draws per epoch, in a fleet of
/// `fleet` devices — audits for the epoch committed to by `root`:
/// [`audit_draws`] draws from the `(hsm id, R)` hash stream (duplicates
/// collapse), or every chunk when the budget covers them all.
///
/// Determinism means any party can recompute any HSM's assignment — if an
/// HSM fails mid-protocol, the survivors re-audit its chunks instead of
/// stalling the epoch.
pub fn audit_chunks_for(
    hsm_id: u64,
    root: &Hash256,
    chunk_count: u32,
    audits: u32,
    fleet: usize,
) -> Vec<u32> {
    let draws = audit_draws(chunk_count, audits, fleet);
    if draws >= chunk_count {
        return (0..chunk_count).collect();
    }
    let mut stream = HashStream::new(Domain::AuditSelect, &[&hsm_id.to_be_bytes(), root]);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for _ in 0..draws {
        let c = stream.next_below(chunk_count as u64) as u32;
        if seen.insert(c) {
            out.push(c);
        }
    }
    out
}

/// The chunks HSM `own_id` must *re-audit* on behalf of failed HSMs
/// (Appendix B.3's recursive checking, one round).
///
/// For every chunk a failed HSM would have audited
/// ([`audit_chunks_for`], same `audits` and `fleet`), a substitute auditor
/// is chosen deterministically from the active set by hashing
/// `(root, failed id, chunk)`. Because the assignment is a deterministic
/// function of public values, every party — provider and HSMs alike —
/// computes the same substitution, and the epoch makes progress without a
/// coordination round.
pub fn reaudit_chunks_for(
    own_id: u64,
    active_ids: &[u64],
    failed_ids: &[u64],
    root: &Hash256,
    chunk_count: u32,
    audits: u32,
    fleet: usize,
) -> Vec<u32> {
    if active_ids.is_empty() {
        return Vec::new();
    }
    let mut out = std::collections::BTreeSet::new();
    for &failed in failed_ids {
        for chunk in audit_chunks_for(failed, root, chunk_count, audits, fleet) {
            let mut stream = HashStream::new(
                Domain::AuditSelect,
                &[
                    b"reaudit",
                    root,
                    &failed.to_be_bytes(),
                    &chunk.to_be_bytes(),
                ],
            );
            let pick = active_ids[stream.next_below(active_ids.len() as u64) as usize];
            if pick == own_id {
                out.insert(chunk);
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Log;
    use safetypin_primitives::wire::Decode;

    fn populated_cut(pre: usize, ins: usize, chunks: usize) -> (Log, EpochCut) {
        let mut log = Log::new();
        for i in 0..pre {
            log.insert(format!("pre-{i}").as_bytes(), b"v").unwrap();
        }
        let _ = log.cut_epoch(chunks);
        for i in 0..ins {
            log.insert(format!("new-{i}").as_bytes(), b"v").unwrap();
        }
        let cut = log.cut_epoch(chunks);
        (log, cut)
    }

    #[test]
    fn build_and_audit_all_chunks() {
        let (_, cut) = populated_cut(50, 40, 8);
        let update = EpochUpdate::build(&cut).unwrap();
        let msg = update.message();
        assert_eq!(msg.chunk_count, 8);
        for chunk in 0..8 {
            let audit = update.audit_package(chunk).unwrap();
            verify_chunk(&msg, &audit).unwrap_or_else(|e| panic!("chunk {chunk}: {e}"));
        }
    }

    #[test]
    fn empty_epoch_audits() {
        let (_, cut) = populated_cut(10, 0, 4);
        let update = EpochUpdate::build(&cut).unwrap();
        let msg = update.message();
        assert_eq!(msg.old_digest, msg.new_digest);
        // An empty epoch is one empty chunk, whatever cap was asked for.
        assert_eq!(msg.chunk_count, 1);
        verify_chunk(&msg, &update.audit_package(0).unwrap()).unwrap();
    }

    #[test]
    fn tampered_start_digest_rejected() {
        let (_, cut) = populated_cut(20, 16, 4);
        let update = EpochUpdate::build(&cut).unwrap();
        let msg = update.message();
        let mut audit = update.audit_package(2).unwrap();
        audit.start_digest[0] ^= 1;
        assert!(verify_chunk(&msg, &audit).is_err());
    }

    #[test]
    fn tampered_end_digest_rejected() {
        let (_, cut) = populated_cut(20, 16, 4);
        let update = EpochUpdate::build(&cut).unwrap();
        let msg = update.message();
        let mut audit = update.audit_package(1).unwrap();
        audit.end_digest[0] ^= 1;
        assert!(verify_chunk(&msg, &audit).is_err());
    }

    #[test]
    fn swapped_proof_rejected() {
        let (_, cut) = populated_cut(20, 16, 4);
        let update = EpochUpdate::build(&cut).unwrap();
        let msg = update.message();
        let mut audit = update.audit_package(1).unwrap();
        audit.proof = update.audit_package(2).unwrap().proof;
        assert_eq!(verify_chunk(&msg, &audit), Err(AuditError::BadExtension(1)));
    }

    #[test]
    fn first_chunk_must_start_at_old_digest() {
        let (_, cut) = populated_cut(20, 16, 4);
        let update = EpochUpdate::build(&cut).unwrap();
        let mut msg = update.message();
        msg.old_digest[0] ^= 1;
        let audit = update.audit_package(0).unwrap();
        assert_eq!(
            verify_chunk(&msg, &audit),
            Err(AuditError::BoundaryMismatch)
        );
    }

    #[test]
    fn last_chunk_must_end_at_new_digest() {
        let (_, cut) = populated_cut(20, 16, 4);
        let update = EpochUpdate::build(&cut).unwrap();
        let mut msg = update.message();
        msg.new_digest[0] ^= 1;
        let audit = update.audit_package(3).unwrap();
        assert_eq!(
            verify_chunk(&msg, &audit),
            Err(AuditError::BoundaryMismatch)
        );
    }

    #[test]
    fn chunk_out_of_range_rejected() {
        let (_, cut) = populated_cut(10, 8, 4);
        let update = EpochUpdate::build(&cut).unwrap();
        assert!(update.audit_package(4).is_err());
        let msg = update.message();
        let mut audit = update.audit_package(0).unwrap();
        audit.chunk = 9;
        assert!(verify_chunk(&msg, &audit).is_err());
    }

    #[test]
    fn provider_hiding_an_insertion_is_caught() {
        // The provider applies 16 insertions but presents a chunk chain
        // that silently redefines an existing identifier. The extension
        // proof for the offending chunk cannot verify.
        let mut log = Log::new();
        log.insert(b"victim", b"original").unwrap();
        let _ = log.cut_epoch(2);
        // Honest epoch materials...
        for i in 0..8 {
            log.insert(format!("x{i}").as_bytes(), b"v").unwrap();
        }
        let cut = log.cut_epoch(2);
        // ...with a forged step injected: redefine "victim".
        let mut forged = cut.clone();
        let mut steps = forged.chunk_proofs[0].steps.clone();
        steps[0].id = b"victim".to_vec();
        steps[0].value = b"overwritten".to_vec();
        forged.chunk_proofs[0] = ExtensionProof { steps };
        // The chain breaks: build refuses, or an auditor of chunk 0 rejects.
        match EpochUpdate::build(&forged) {
            Err(_) => {}
            Ok(update) => {
                let msg = update.message();
                let audit = update.audit_package(0).unwrap();
                assert!(verify_chunk(&msg, &audit).is_err());
            }
        }
    }

    #[test]
    fn certified_update_identical_to_replayed_build() {
        // The streaming construction (boundary digests recorded at insert
        // time) and the replaying construction commit to the same chain.
        let mut log = Log::new();
        for i in 0..10 {
            log.insert(format!("pre-{i}").as_bytes(), b"v").unwrap();
        }
        let _ = log.cut_epoch(4);
        log.insert(b"solo", b"v").unwrap();
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..23)
            .map(|i| (format!("wave-{i}").into_bytes(), b"v".to_vec()))
            .collect();
        log.insert_many(&items).iter().for_each(|r| {
            r.as_ref().unwrap();
        });
        let (cut, digests) = log.cut_epoch_certified(4);
        let streamed = EpochUpdate::from_certified(&cut, digests).unwrap();
        let replayed = EpochUpdate::build(&cut).unwrap();
        assert_eq!(streamed.message(), replayed.message());
        assert_eq!(streamed.chunk_digests, replayed.chunk_digests);
        // 24 pending entries (a solo insert, then a wave) under a cap of 4.
        assert_eq!(streamed.message().chunk_count, 4);
        for chunk in 0..4 {
            let a = streamed.audit_package(chunk).unwrap();
            let b = replayed.audit_package(chunk).unwrap();
            assert_eq!(a, b);
            verify_chunk(&streamed.message(), &a).unwrap();
        }
    }

    #[test]
    fn certified_update_rejects_broken_chain() {
        let (_, cut) = populated_cut(5, 8, 4);
        let good = EpochUpdate::build(&cut).unwrap().chunk_digests;
        let mut bad = good.clone();
        bad.pop();
        assert!(matches!(
            EpochUpdate::from_certified(&cut, bad),
            Err(AuditError::BrokenChain)
        ));
        let mut tampered = good;
        if let Some(last) = tampered.last_mut() {
            last[0] ^= 1;
        }
        assert!(matches!(
            EpochUpdate::from_certified(&cut, tampered),
            Err(AuditError::BrokenChain)
        ));
    }

    #[test]
    fn audit_assignment_deterministic() {
        let root = [7u8; 32];
        let a = audit_chunks_for(42, &root, 100, 16, 100);
        let b = audit_chunks_for(42, &root, 100, 16, 100);
        assert_eq!(a, b);
        let c = audit_chunks_for(43, &root, 100, 16, 100);
        assert_ne!(a, c);
        assert!(a.iter().all(|&x| x < 100));
    }

    #[test]
    fn audit_assignment_covers_all_chunks_collectively() {
        // With enough HSMs each auditing its share of the chunks, every
        // chunk is audited (the probabilistic guarantee from §6.2).
        let root = [9u8; 32];
        let chunk_count = 64u32;
        let mut covered = vec![false; chunk_count as usize];
        for hsm in 0..32u64 {
            for c in audit_chunks_for(hsm, &root, chunk_count, 16, 32) {
                covered[c as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "all chunks audited");
    }

    #[test]
    fn audit_draws_keep_the_rate_for_any_chunk_count() {
        // K = N: the paper's layout, exactly C draws.
        assert_eq!(audit_draws(32, 16, 32), 16);
        assert_eq!(audit_draws(10_000, 128, 10_000), 128);
        // The benchmark's fleet (N = 32, C = 16): a solo epoch is one
        // chunk audited by everyone, a 16-insertion wave is 8 draws of 16.
        assert_eq!(audit_draws(1, 16, 32), 1);
        assert_eq!(audit_draws(16, 16, 32), 8);
        // Inflating K inflates the draws with it (N = 8, C = 4).
        assert_eq!(audit_draws(4096, 4, 8), 2048);
        assert_eq!(audit_draws(u32::MAX, 4, 8), u32::MAX.div_ceil(2));
        // C ≥ N, or a device with no registered fleet: audit everything.
        assert_eq!(audit_draws(8, 8, 8), 8);
        assert_eq!(audit_draws(8, u32::MAX, 3), 8);
        assert_eq!(audit_draws(77, 4, 0), 77);
        // Zero chunks, zero draws (the HSM refuses such an update anyway).
        assert_eq!(audit_draws(0, 4, 8), 0);
        for (k, c, n) in [(5u32, 3u32, 7usize), (1000, 16, 32), (33, 16, 32)] {
            let a = audit_draws(k, c, n);
            assert!(a == k || u64::from(a) * n as u64 >= u64::from(c) * u64::from(k));
        }
    }

    #[test]
    fn audit_all_when_the_budget_covers_every_chunk() {
        let root = [3u8; 32];
        // One chunk: every HSM audits it, and nobody re-audits more.
        assert_eq!(audit_chunks_for(5, &root, 1, 16, 32), vec![0]);
        // a = ⌈4·3/8⌉ = 2 < 3: sampled. a = ⌈4·3/4⌉ = 3: all.
        assert!(audit_chunks_for(5, &root, 3, 4, 8).len() <= 2);
        assert_eq!(audit_chunks_for(5, &root, 3, 4, 4), vec![0, 1, 2]);
        assert_eq!(audit_chunks_for(5, &root, 3, 4, 0), vec![0, 1, 2]);
        // A failed HSM's audit-all assignment is re-audited in full by
        // the survivors, each chunk by exactly one of them.
        let active = [0u64, 1, 2];
        let mut reaudited: Vec<u32> = active
            .iter()
            .flat_map(|&id| reaudit_chunks_for(id, &active, &[3], &root, 3, 4, 4))
            .collect();
        reaudited.sort_unstable();
        assert_eq!(reaudited, vec![0, 1, 2]);
    }

    #[test]
    fn audit_package_wire_roundtrip() {
        let (_, cut) = populated_cut(20, 16, 4);
        let update = EpochUpdate::build(&cut).unwrap();
        let audit = update.audit_package(2).unwrap();
        let back = ChunkAudit::from_bytes(&audit.to_bytes()).unwrap();
        assert_eq!(back, audit);
        verify_chunk(&update.message(), &back).unwrap();
    }

    #[test]
    fn update_message_signing_bytes_distinct() {
        let (_, cut) = populated_cut(10, 8, 4);
        let update = EpochUpdate::build(&cut).unwrap();
        let m1 = update.message();
        let mut m2 = m1;
        m2.new_digest[0] ^= 1;
        assert_ne!(m1.signing_bytes(), m2.signing_bytes());
    }
}
