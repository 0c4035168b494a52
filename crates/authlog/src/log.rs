//! Provider-side log state (paper §6.2).
//!
//! The service provider holds the full log — an ordered list of
//! identifier-value pairs — and the authenticated dictionary over it. It
//! serves inclusion proofs to clients and builds chunked extension proofs
//! for the HSM audit protocol. Garbage collection (§6.2) archives the
//! current log and starts a fresh one; HSMs bound how many times they will
//! follow a GC (see the HSM crate).

use safetypin_primitives::hashes::Hash256;

use crate::trie::{ExtensionProof, InclusionProof, InsertStep, MerkleTrie, TrieError};

/// One log entry: an identifier (username / device ID) and its immutable
/// value (the client's recovery commitment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Log identifier.
    pub id: Vec<u8>,
    /// Log value.
    pub value: Vec<u8>,
}

/// Errors from log operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The identifier already has a (different or identical) value.
    DuplicateIdentifier,
    /// Internal dictionary failure.
    Trie(TrieError),
}

impl core::fmt::Display for LogError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LogError::DuplicateIdentifier => write!(f, "identifier already defined in log"),
            LogError::Trie(e) => write!(f, "dictionary error: {e}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<TrieError> for LogError {
    fn from(e: TrieError) -> Self {
        match e {
            TrieError::DuplicateIdentifier => LogError::DuplicateIdentifier,
            other => LogError::Trie(other),
        }
    }
}

/// The provider's log: entry list + authenticated dictionary + the pending
/// insert steps not yet certified by an epoch update.
#[derive(Debug, Clone)]
pub struct Log {
    entries: Vec<LogEntry>,
    trie: MerkleTrie,
    /// Insert steps since the last epoch cut, in order.
    pending: Vec<InsertStep>,
    /// The digest after each pending step (the root hash is cached, so
    /// recording it is free): every pending entry is a place an epoch can
    /// cut, and certifying one never replays the pending steps.
    pending_digests: Vec<Hash256>,
    /// Digest at the last epoch cut.
    last_epoch_digest: Hash256,
    /// Completed garbage collections.
    generation: u64,
}

impl Default for Log {
    fn default() -> Self {
        Self::new()
    }
}

impl Log {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            trie: MerkleTrie::new(),
            pending: Vec::new(),
            pending_digests: Vec::new(),
            last_epoch_digest: MerkleTrie::empty_digest(),
            generation: 0,
        }
    }

    /// Current digest.
    pub fn digest(&self) -> Hash256 {
        self.trie.digest()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the log has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Completed garbage-collection count.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Insertions accumulated since the last epoch cut.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Whether `id` is defined.
    pub fn contains(&self, id: &[u8]) -> bool {
        self.trie.contains(id)
    }

    /// The value recorded for `id`, if any.
    pub fn get(&self, id: &[u8]) -> Option<&[u8]> {
        // The entry list is the source of truth for values; the trie holds
        // only hashes. Linear scan is fine for tests; the provider keeps an
        // index in production deployments.
        self.entries
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.value.as_slice())
    }

    /// Inserts `(id, value)`; fails if `id` is already defined. This is the
    /// only way an entry reaches the dictionary — waves and journal
    /// replay both come through here.
    pub fn insert(&mut self, id: &[u8], value: &[u8]) -> Result<(), LogError> {
        let step = self.trie.insert(id, value)?;
        self.entries.push(LogEntry {
            id: id.to_vec(),
            value: value.to_vec(),
        });
        self.pending.push(step);
        self.pending_digests.push(self.digest());
        Ok(())
    }

    /// Inserts a wave of `(id, value)` pairs: [`insert`](Self::insert) on
    /// each, in the caller's order, with per-item outcomes in that order.
    /// A duplicate — of an existing entry or of an earlier item of the
    /// wave — is refused without disturbing its neighbours.
    pub fn insert_many(&mut self, items: &[(Vec<u8>, Vec<u8>)]) -> Vec<Result<(), LogError>> {
        items.iter().map(|(id, v)| self.insert(id, v)).collect()
    }

    /// `ProveIncludes`: inclusion proof for `(id, value)` against the
    /// current digest.
    pub fn prove_includes(&self, id: &[u8], value: &[u8]) -> Option<InclusionProof> {
        self.trie.prove_includes(id, value)
    }

    /// Cuts an epoch: drains the pending insertions into at most
    /// `max_chunks` extension proofs of near-equal size (see
    /// [`plan_epoch`](Self::plan_epoch) for the cap) and returns
    /// `(old digest, chunk proofs, new digest)`.
    ///
    /// This is the provider's half of Figure 5: the audit protocol in
    /// [`crate::distributed`] commits to the per-chunk intermediate digests
    /// and hands audited chunks to HSMs.
    pub fn cut_epoch(&mut self, max_chunks: usize) -> EpochCut {
        self.cut_epoch_certified(max_chunks).0
    }

    /// [`cut_epoch`](Self::cut_epoch), also returning the post-chunk
    /// boundary digests `d_1 … d_K` (`d_K = d'`): [`plan_epoch`] followed
    /// at once by [`mark_certified`].
    ///
    /// [`plan_epoch`]: Self::plan_epoch
    /// [`mark_certified`]: Self::mark_certified
    pub fn cut_epoch_certified(&mut self, max_chunks: usize) -> (EpochCut, Vec<Hash256>) {
        let planned = self.plan_epoch(max_chunks);
        self.mark_certified();
        planned
    }

    /// Computes the epoch cut **without mutating the log**: the pending
    /// insertions split into chunks, plus the post-chunk boundary digests
    /// read off the digests recorded at insert time — the provider can
    /// certify the epoch
    /// ([`crate::distributed::EpochUpdate::from_certified`]) without
    /// replaying a single pending step. A certification that fails
    /// leaves the log exactly as it was, so the next attempt plans the
    /// same pending insertions again; one that succeeds is committed
    /// with [`mark_certified`](Self::mark_certified).
    ///
    /// `max_chunks` is a **cap**, not a count: the epoch is cut into
    /// `K = clamp(pending, 1, max_chunks)` chunks of `⌈pending/K⌉` steps
    /// (the last ones shorter, or empty) — an epoch never has more chunks
    /// than insertions, and an empty epoch is one empty chunk. The layout
    /// is a function of the pending entries alone, however they arrived.
    /// What each HSM then audits is sized from `K` by
    /// [`crate::distributed::audit_draws`].
    pub fn plan_epoch(&self, max_chunks: usize) -> (EpochCut, Vec<Hash256>) {
        let old = self.last_epoch_digest;
        let steps = &self.pending;
        let chunks = steps.len().clamp(1, max_chunks.max(1));
        let per = steps.len().div_ceil(chunks);
        let mut proofs = Vec::with_capacity(chunks);
        let mut digests = Vec::with_capacity(chunks);
        let mut start = 0usize;
        for _ in 0..chunks {
            let end = (start + per).min(steps.len());
            proofs.push(ExtensionProof {
                steps: steps[start..end].to_vec(),
            });
            digests.push(match end {
                0 => old,
                _ => self.pending_digests[end - 1],
            });
            start = end;
        }
        (
            EpochCut {
                old_digest: old,
                new_digest: self.digest(),
                chunk_proofs: proofs,
            },
            digests,
        )
    }

    /// Commits a cut: every pending insertion is now certified, and the
    /// next epoch chains from the current digest.
    pub fn mark_certified(&mut self) {
        self.pending.clear();
        self.pending_digests.clear();
        self.last_epoch_digest = self.digest();
    }

    /// The digest as of the last certified cut (the empty digest before
    /// the first, and again after a garbage collection) — what every
    /// in-sync HSM holds.
    pub fn certified_digest(&self) -> Hash256 {
        self.last_epoch_digest
    }

    /// Garbage collection (§6.2): archives the current entries and resets
    /// the log to empty, bumping the generation counter. Returns the
    /// archived entries so the provider can keep serving them to auditors.
    pub fn garbage_collect(&mut self) -> Vec<LogEntry> {
        let archived = std::mem::take(&mut self.entries);
        self.trie = MerkleTrie::new();
        self.pending.clear();
        self.pending_digests.clear();
        self.last_epoch_digest = MerkleTrie::empty_digest();
        self.generation += 1;
        archived
    }

    /// All entries (for external auditors replaying the log, §6.3).
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }
}

/// The provider's materials for one epoch update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochCut {
    /// Digest the HSMs currently hold.
    pub old_digest: Hash256,
    /// Digest after applying this epoch's insertions.
    pub new_digest: Hash256,
    /// Chunked extension proofs covering the insertions in order.
    pub chunk_proofs: Vec<ExtensionProof>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::MerkleTrie;

    #[test]
    fn insert_and_lookup() {
        let mut log = Log::new();
        log.insert(b"alice", b"commitment-1").unwrap();
        assert!(log.contains(b"alice"));
        assert_eq!(log.get(b"alice"), Some(b"commitment-1".as_slice()));
        assert_eq!(log.get(b"bob"), None);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn duplicate_rejected() {
        let mut log = Log::new();
        log.insert(b"alice", b"v").unwrap();
        assert_eq!(
            log.insert(b"alice", b"other").unwrap_err(),
            LogError::DuplicateIdentifier
        );
    }

    #[test]
    fn inclusion_proof_roundtrip() {
        let mut log = Log::new();
        for i in 0..20 {
            log.insert(format!("u{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let d = log.digest();
        let proof = log.prove_includes(b"u7", b"v7").unwrap();
        assert!(MerkleTrie::does_include(&d, b"u7", b"v7", &proof));
    }

    #[test]
    fn epoch_cut_produces_verifiable_chain() {
        let mut log = Log::new();
        for i in 0..17 {
            log.insert(format!("u{i}").as_bytes(), b"v").unwrap();
        }
        let cut = log.cut_epoch(4);
        assert_eq!(cut.chunk_proofs.len(), 4);
        // Replay the chunk chain.
        let mut d = cut.old_digest;
        for proof in &cut.chunk_proofs {
            let next = proof.replay(&d).unwrap();
            assert!(MerkleTrie::does_extend(&d, &next, proof));
            d = next;
        }
        assert_eq!(d, cut.new_digest);
    }

    #[test]
    fn epoch_cut_empty_pending() {
        let mut log = Log::new();
        log.insert(b"a", b"1").unwrap();
        let _ = log.cut_epoch(4);
        // Second cut with nothing pending: old == new, chunks all empty.
        let cut = log.cut_epoch(4);
        assert_eq!(cut.old_digest, cut.new_digest);
        assert!(cut.chunk_proofs.iter().all(|p| p.steps.is_empty()));
        assert!(MerkleTrie::does_extend(
            &cut.old_digest,
            &cut.new_digest,
            &ExtensionProof::default()
        ));
    }

    #[test]
    fn epoch_cut_tracks_previous_cut() {
        let mut log = Log::new();
        log.insert(b"a", b"1").unwrap();
        let c1 = log.cut_epoch(2);
        log.insert(b"b", b"2").unwrap();
        let c2 = log.cut_epoch(2);
        assert_eq!(c1.new_digest, c2.old_digest);
        assert_ne!(c2.old_digest, c2.new_digest);
    }

    fn wave(from: usize, n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (from..from + n)
            .map(|i| (format!("w{i}").into_bytes(), format!("v{i}").into_bytes()))
            .collect()
    }

    #[test]
    fn insert_many_matches_sequential_digest() {
        let items = wave(0, 25);
        let mut batched = Log::new();
        let out = batched.insert_many(&items);
        assert!(out.iter().all(|r| r.is_ok()));
        let mut seq = Log::new();
        for (id, v) in &items {
            seq.insert(id, v).unwrap();
        }
        assert_eq!(batched.digest(), seq.digest());
        assert_eq!(batched.entries(), seq.entries());
        // Inclusion proofs agree byte-for-byte: same entry set, same trie.
        for (id, v) in &items {
            assert_eq!(batched.prove_includes(id, v), seq.prove_includes(id, v));
        }
    }

    #[test]
    fn insert_many_reports_duplicates_in_caller_order() {
        let mut log = Log::new();
        log.insert(b"taken", b"v").unwrap();
        let items = vec![
            (b"taken".to_vec(), b"x".to_vec()),
            (b"new".to_vec(), b"y".to_vec()),
            (b"new".to_vec(), b"z".to_vec()),
        ];
        let out = log.insert_many(&items);
        assert_eq!(out[0].as_ref().unwrap_err(), &LogError::DuplicateIdentifier);
        assert!(out[1].is_ok());
        assert_eq!(out[2].as_ref().unwrap_err(), &LogError::DuplicateIdentifier);
        assert_eq!(log.len(), 2);
        assert_eq!(log.get(b"new"), Some(b"y".as_slice()));
    }

    #[test]
    fn certified_cut_serial_matches_plain_cut() {
        // The certified cut's chunking is the ceil split — byte-identical
        // to cut_epoch — and each boundary digest replays correctly.
        let mut a = Log::new();
        let mut b = Log::new();
        for i in 0..17 {
            a.insert(format!("u{i}").as_bytes(), b"v").unwrap();
            b.insert(format!("u{i}").as_bytes(), b"v").unwrap();
        }
        let plain = a.cut_epoch(4);
        let (cert, digests) = b.cut_epoch_certified(4);
        assert_eq!(plain.old_digest, cert.old_digest);
        assert_eq!(plain.new_digest, cert.new_digest);
        assert_eq!(plain.chunk_proofs, cert.chunk_proofs);
        assert_eq!(digests.len(), 4);
        let mut d = cert.old_digest;
        for (proof, boundary) in cert.chunk_proofs.iter().zip(&digests) {
            d = proof.replay(&d).unwrap();
            assert_eq!(&d, boundary);
        }
        assert_eq!(d, cert.new_digest);
    }

    #[test]
    fn certified_cut_with_waves_replays() {
        // A wave is a run of serial inserts: every entry is a place to
        // cut, wave edges mean nothing to the layout, and the reported
        // digests match a full replay of each chunk.
        let mut log = Log::new();
        log.insert(b"solo-0", b"v").unwrap();
        log.insert_many(&wave(0, 13)).iter().for_each(|r| {
            r.as_ref().unwrap();
        });
        log.insert(b"solo-1", b"v").unwrap();
        log.insert_many(&wave(13, 6)).iter().for_each(|r| {
            r.as_ref().unwrap();
        });
        // 21 pending entries under a cap of 5: five chunks of ⌈21/5⌉ = 5
        // steps, the last one short — no chunk ends on a wave edge.
        let (cut, digests) = log.cut_epoch_certified(5);
        assert_eq!(cut.chunk_proofs.len(), 5);
        assert_eq!(digests.len(), 5);
        let sizes: Vec<usize> = cut.chunk_proofs.iter().map(|p| p.steps.len()).collect();
        assert_eq!(sizes, vec![5, 5, 5, 5, 1]);
        let mut d = cut.old_digest;
        for (proof, boundary) in cut.chunk_proofs.iter().zip(&digests) {
            d = proof.replay(&d).unwrap();
            assert_eq!(&d, boundary);
        }
        assert_eq!(d, cut.new_digest);
    }

    #[test]
    fn chunk_count_is_capped_by_marks_and_by_the_argument() {
        // K = clamp(pending, 1, max_chunks): one chunk per pending entry
        // — serial or in a wave — until the cap binds, and an empty epoch
        // is one chunk.
        let mut log = Log::new();
        assert_eq!(log.plan_epoch(8).0.chunk_proofs.len(), 1);
        assert_eq!(log.plan_epoch(0).0.chunk_proofs.len(), 1);
        log.insert(b"solo", b"v").unwrap();
        let (one, digests) = log.plan_epoch(8);
        assert_eq!(one.chunk_proofs.len(), 1);
        assert_eq!(one.chunk_proofs[0].steps.len(), 1);
        assert_eq!(digests, vec![log.digest()]);
        log.insert_many(&wave(0, 9)).iter().for_each(|r| {
            r.as_ref().unwrap();
        });
        // Ten pending steps, ten places to cut: the cap binds.
        assert_eq!(log.plan_epoch(8).0.chunk_proofs.len(), 8);
        assert_eq!(log.plan_epoch(32).0.chunk_proofs.len(), 10);
        for i in 0..10 {
            log.insert(format!("s{i}").as_bytes(), b"v").unwrap();
        }
        assert_eq!(log.plan_epoch(8).0.chunk_proofs.len(), 8);
        assert_eq!(log.plan_epoch(32).0.chunk_proofs.len(), 20);
    }

    #[test]
    fn plan_epoch_leaves_the_log_uncut() {
        // A plan is a pure read: planning twice yields the same cut, the
        // pending insertions stay pending, and only `mark_certified`
        // advances the baseline the next epoch chains from.
        let mut log = Log::new();
        log.insert(b"a", b"1").unwrap();
        log.insert_many(&wave(0, 5)).iter().for_each(|r| {
            r.as_ref().unwrap();
        });
        let (first, first_digests) = log.plan_epoch(3);
        let (again, again_digests) = log.plan_epoch(3);
        assert_eq!(first.chunk_proofs, again.chunk_proofs);
        assert_eq!(first_digests, again_digests);
        assert_eq!(log.pending_count(), 6);
        assert_eq!(log.certified_digest(), MerkleTrie::empty_digest());

        log.mark_certified();
        assert_eq!(log.pending_count(), 0);
        assert_eq!(log.certified_digest(), first.new_digest);
        let (next, _) = log.plan_epoch(3);
        assert_eq!(next.old_digest, first.new_digest);
        assert!(next.chunk_proofs.iter().all(|p| p.steps.is_empty()));
    }

    #[test]
    fn garbage_collection_resets() {
        let mut log = Log::new();
        for i in 0..5 {
            log.insert(format!("u{i}").as_bytes(), b"v").unwrap();
        }
        assert_eq!(log.generation(), 0);
        let archived = log.garbage_collect();
        assert_eq!(archived.len(), 5);
        assert_eq!(log.len(), 0);
        assert_eq!(log.generation(), 1);
        assert_eq!(log.digest(), MerkleTrie::empty_digest());
        // Identifiers are insertable again after GC (the paper's PIN-
        // attempt reset).
        log.insert(b"u0", b"fresh").unwrap();
    }
}
