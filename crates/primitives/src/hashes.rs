//! Domain-separated hashing, HKDF, and hash-to-indices expansion.
//!
//! The paper models its hash functions as random oracles (Appendix A.4) and
//! separates them by role: `Hash(salt, pin)` maps to a cluster of HSM
//! indices, `Hash'` derives ElGamal DEM keys, and further hashes build
//! commitments and Merkle trees. We realize each role as SHA-256 under a
//! distinct domain-separation prefix so no two roles can ever collide on an
//! input.

use hmac::{Hmac, Mac};
use sha2::{Digest, Sha256};

/// A 32-byte SHA-256 output.
pub type Hash256 = [u8; 32];

/// Domain-separation tags for every hash role in the system.
///
/// Each tag is prepended (with its length) to the hash input, so inputs
/// hashed under different roles are never confused even if their raw bytes
/// collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// `Hash(salt, pin)` → cluster indices (location-hiding encryption).
    ClusterSelect,
    /// `Hash'(point, context)` → DEM key in hashed ElGamal.
    ElGamalKdf,
    /// Leaf hash in a Merkle tree.
    MerkleLeaf,
    /// Interior-node hash in a Merkle tree.
    MerkleNode,
    /// Hash of a log identifier-value pair.
    LogEntry,
    /// Client commitment to its recovery cluster and ciphertext.
    RecoveryCommit,
    /// Bloom-filter index derivation in puncturable encryption.
    BloomIndex,
    /// Key derivation for the outsourced-storage key tree.
    StorageKdf,
    /// Message hash for BLS multisignatures.
    MultisigMessage,
    /// Proof-of-possession message for BLS public keys.
    MultisigPop,
    /// Hash used to derive PIN-check values in the baseline scheme.
    BaselinePinHash,
    /// Deterministic audit-chunk selection (Appendix B.3).
    AuditSelect,
    /// Generic key derivation (HKDF expand).
    Hkdf,
}

impl Domain {
    fn tag(self) -> &'static [u8] {
        match self {
            Domain::ClusterSelect => b"safetypin/v1/cluster-select",
            Domain::ElGamalKdf => b"safetypin/v1/elgamal-kdf",
            Domain::MerkleLeaf => b"safetypin/v1/merkle-leaf",
            Domain::MerkleNode => b"safetypin/v1/merkle-node",
            Domain::LogEntry => b"safetypin/v1/log-entry",
            Domain::RecoveryCommit => b"safetypin/v1/recovery-commit",
            Domain::BloomIndex => b"safetypin/v1/bloom-index",
            Domain::StorageKdf => b"safetypin/v1/storage-kdf",
            Domain::MultisigMessage => b"safetypin/v1/multisig-msg",
            Domain::MultisigPop => b"safetypin/v1/multisig-pop",
            Domain::BaselinePinHash => b"safetypin/v1/baseline-pin",
            Domain::AuditSelect => b"safetypin/v1/audit-select",
            Domain::Hkdf => b"safetypin/v1/hkdf",
        }
    }
}

/// Hashes a sequence of length-delimited parts under a domain tag.
///
/// Each part is preceded by its 8-byte big-endian length, which makes the
/// encoding injective: `hash_parts(d, [a, b])` can never equal
/// `hash_parts(d, [a ‖ b])`.
pub fn hash_parts(domain: Domain, parts: &[&[u8]]) -> Hash256 {
    let mut h = Sha256::new();
    let tag = domain.tag();
    h.update((tag.len() as u64).to_be_bytes());
    h.update(tag);
    for part in parts {
        h.update((part.len() as u64).to_be_bytes());
        h.update(part);
    }
    h.finalize().into()
}

/// HMAC-SHA256 of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Hash256 {
    let mut mac = <Hmac<Sha256> as Mac>::new_from_slice(key).expect("HMAC accepts any key length");
    mac.update(data);
    mac.finalize().into_bytes().into()
}

/// HKDF (RFC 5869) extract-and-expand built by hand on HMAC-SHA256.
///
/// Returns `len` bytes of output keying material. Panics if `len` exceeds
/// 255·32 bytes, per the RFC limit.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * 32, "HKDF output length limit exceeded");
    // Extract.
    let prk = hmac_sha256(salt, ikm);
    // Expand.
    let mut okm = Vec::with_capacity(len);
    let mut block: Vec<u8> = Vec::new();
    let mut counter: u8 = 1;
    let tag = Domain::Hkdf.tag();
    while okm.len() < len {
        let mut data = Vec::with_capacity(block.len() + tag.len() + info.len() + 1);
        data.extend_from_slice(&block);
        data.extend_from_slice(tag);
        data.extend_from_slice(info);
        data.push(counter);
        block = hmac_sha256(&prk, &data).to_vec();
        let take = core::cmp::min(32, len - okm.len());
        okm.extend_from_slice(&block[..take]);
        counter = counter.checked_add(1).expect("HKDF block counter overflow");
    }
    okm
}

/// A deterministic stream of pseudorandom bytes derived from a seed.
///
/// Implements SHA-256 in counter mode under a domain tag. Used wherever the
/// paper says "use the hash as a seed to generate ..." — cluster-index
/// selection, audit-chunk selection, and test fixtures.
#[derive(Debug, Clone)]
pub struct HashStream {
    seed: Hash256,
    domain: Domain,
    counter: u64,
    buf: [u8; 32],
    used: usize,
}

impl HashStream {
    /// Creates a stream seeded by hashing `parts` under `domain`.
    pub fn new(domain: Domain, parts: &[&[u8]]) -> Self {
        Self {
            seed: hash_parts(domain, parts),
            domain,
            counter: 0,
            buf: [0u8; 32],
            used: 32,
        }
    }

    fn refill(&mut self) {
        self.buf = hash_parts(
            self.domain,
            &[b"stream", &self.seed, &self.counter.to_be_bytes()],
        );
        self.counter += 1;
        self.used = 0;
    }

    /// Returns the next byte of the stream.
    pub fn next_byte(&mut self) -> u8 {
        if self.used == 32 {
            self.refill();
        }
        let b = self.buf[self.used];
        self.used += 1;
        b
    }

    /// Returns the next 8 bytes of the stream as a big-endian `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut arr = [0u8; 8];
        for byte in arr.iter_mut() {
            *byte = self.next_byte();
        }
        u64::from_be_bytes(arr)
    }

    /// Returns a uniform value in `[0, bound)` by rejection sampling.
    ///
    /// Rejection sampling (rather than modular reduction) keeps the output
    /// exactly uniform, which the Lemma 8 covering analysis assumes.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Largest multiple of `bound` representable in u64.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Fills `out` with stream bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for byte in out.iter_mut() {
            *byte = self.next_byte();
        }
    }
}

/// Expands `(salt, pin)`-style seed material to `n` indices in `[0, total)`,
/// sampled independently and uniformly (with replacement), as in step 3 of
/// the paper's encryption routine (§5).
///
/// Sampling is *with replacement*, matching the `Hash : {0,1}^λ × P → [N]^n`
/// random oracle in Figure 15; the Lemma 8 analysis is over exactly this
/// distribution.
pub fn indices_from_seed(domain: Domain, parts: &[&[u8]], n: usize, total: u64) -> Vec<u64> {
    let mut stream = HashStream::new(domain, parts);
    (0..n).map(|_| stream.next_below(total)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_separate() {
        let a = hash_parts(Domain::MerkleLeaf, &[b"x"]);
        let b = hash_parts(Domain::MerkleNode, &[b"x"]);
        assert_ne!(a, b);
    }

    #[test]
    fn parts_are_injective() {
        let joined = hash_parts(Domain::LogEntry, &[b"ab"]);
        let split = hash_parts(Domain::LogEntry, &[b"a", b"b"]);
        assert_ne!(joined, split);
    }

    #[test]
    fn hash_is_deterministic() {
        let a = hash_parts(Domain::ClusterSelect, &[b"salt", b"1234"]);
        let b = hash_parts(Domain::ClusterSelect, &[b"salt", b"1234"]);
        assert_eq!(a, b);
    }

    #[test]
    fn hkdf_lengths() {
        let okm = hkdf(b"salt", b"ikm", b"info", 91);
        assert_eq!(okm.len(), 91);
        // Prefix property: shorter outputs are prefixes of longer ones.
        let short = hkdf(b"salt", b"ikm", b"info", 32);
        assert_eq!(&okm[..32], &short[..]);
    }

    #[test]
    fn hkdf_differs_by_info() {
        assert_ne!(hkdf(b"s", b"k", b"a", 32), hkdf(b"s", b"k", b"b", 32));
    }

    #[test]
    fn stream_deterministic_and_distinct() {
        let mut s1 = HashStream::new(Domain::ClusterSelect, &[b"seed"]);
        let mut s2 = HashStream::new(Domain::ClusterSelect, &[b"seed"]);
        let mut s3 = HashStream::new(Domain::ClusterSelect, &[b"other"]);
        let a: Vec<u8> = (0..100).map(|_| s1.next_byte()).collect();
        let b: Vec<u8> = (0..100).map(|_| s2.next_byte()).collect();
        let c: Vec<u8> = (0..100).map(|_| s3.next_byte()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn next_below_in_range() {
        let mut s = HashStream::new(Domain::AuditSelect, &[b"seed"]);
        for bound in [1u64, 2, 3, 7, 100, 3100] {
            for _ in 0..200 {
                assert!(s.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut s = HashStream::new(Domain::AuditSelect, &[b"cover"]);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[s.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&x| x), "all residues should appear");
    }

    #[test]
    fn indices_shape() {
        let idx = indices_from_seed(Domain::ClusterSelect, &[b"salt", b"pin"], 40, 3100);
        assert_eq!(idx.len(), 40);
        assert!(idx.iter().all(|&i| i < 3100));
        // Deterministic.
        let idx2 = indices_from_seed(Domain::ClusterSelect, &[b"salt", b"pin"], 40, 3100);
        assert_eq!(idx, idx2);
        // Different PIN ⇒ different cluster (overwhelmingly).
        let idx3 = indices_from_seed(Domain::ClusterSelect, &[b"salt", b"pin2"], 40, 3100);
        assert_ne!(idx, idx3);
    }

    #[test]
    fn hmac_matches_known_shape() {
        // Same key/data ⇒ same tag; flipping either changes the tag.
        let t1 = hmac_sha256(b"key", b"data");
        let t2 = hmac_sha256(b"key", b"data");
        let t3 = hmac_sha256(b"key2", b"data");
        let t4 = hmac_sha256(b"key", b"data2");
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
        assert_ne!(t1, t4);
    }
}
