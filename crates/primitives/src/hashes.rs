//! Domain-separated hashing, HMAC, and hash-to-indices expansion.
//!
//! The paper models its hash functions as random oracles (Appendix A.4) and
//! separates them by role: `Hash(salt, pin)` maps to a cluster of HSM
//! indices, `Hash'` derives ElGamal DEM keys, and further hashes build
//! commitments and Merkle trees. We realize each role as SHA-256 under a
//! distinct domain-separation prefix so no two roles can ever collide on an
//! input. Every hash runs on this crate's own SHA-256 kernel
//! (`crate::sha256`).

use crate::sha256::Sha256;

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
    h.update(&(tag.len() as u64).to_be_bytes());
    h.update(tag);
    for part in parts {
        h.update(&(part.len() as u64).to_be_bytes());
        h.update(part);
    }
    h.finalize()
}

/// HMAC-SHA256 (RFC 2104) of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Hash256 {
    // A key longer than the 64-byte block is hashed first; a shorter one
    // is zero-padded to the block.
    let mut block = [0u8; 64];
    if key.len() > block.len() {
        let mut h = Sha256::new();
        h.update(key);
        block[..32].copy_from_slice(&h.finalize());
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    inner.update(&block.map(|b| b ^ 0x36));
    inner.update(data);
    let mut outer = Sha256::new();
    outer.update(&block.map(|b| b ^ 0x5c));
    outer.update(&inner.finalize());
    outer.finalize()
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 4231 §4, test cases 1–4, 6 and 7 (case 5 truncates the tag).
    /// Cases 6 and 7 take the 131-byte key, which is hashed first.
    #[test]
    fn hmac_matches_rfc_4231() {
        let key_25: Vec<u8> = (1..=25).collect();
        let cases: [(&[u8], &[u8], &str); 6] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &key_25,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than \
                  block-size data. The key needs to be hashed before being used by the \
                  HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (i, (key, data, tag)) in cases.into_iter().enumerate() {
            assert_eq!(hex(&hmac_sha256(key, data)), tag, "case index {i}");
        }
    }

    /// The framing `hash_parts` hashes, fed to the vendored `sha2`: the
    /// digests every stored log, trie and ciphertext depends on.
    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the vendored `sha2` is this crate's test oracle"
    )]
    fn hash_parts_matches_the_oracle() {
        use sha2::Digest;
        let long = [0x5au8; 200];
        let inputs: [&[&[u8]]; 4] = [&[], &[b""], &[b"salt", b"1234"], &[&long, b"x", &long]];
        for parts in inputs {
            let tag = Domain::MerkleNode.tag();
            let mut h = sha2::Sha256::new();
            h.update((tag.len() as u64).to_be_bytes());
            h.update(tag);
            for part in parts {
                h.update((part.len() as u64).to_be_bytes());
                h.update(part);
            }
            let expected: Hash256 = h.finalize().into();
            assert_eq!(hash_parts(Domain::MerkleNode, parts), expected);
        }
    }
}
