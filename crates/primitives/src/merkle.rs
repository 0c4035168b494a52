//! Binary Merkle trees with inclusion proofs.
//!
//! Used by the distributed-log update protocol (paper Figure 5): the service
//! provider commits to the per-chunk intermediate digests and extension
//! proofs with a Merkle root `R`, and each HSM checks that the chunks it
//! audits are included under `R`.
//!
//! Leaves and interior nodes are hashed under distinct domains
//! ([`Domain::MerkleLeaf`] / [`Domain::MerkleNode`]), which prevents
//! second-preimage tricks that splice an interior node in as a leaf. The
//! leaf list is padded to a power of two with a distinguished empty-leaf
//! hash so sibling paths are always well-defined.

use crate::error::WireError;
use crate::hashes::{hash_parts, Domain, Hash256};
use crate::wire::{Decode, Encode, Reader, Writer};

/// Hash used for padding leaves beyond the real leaf count.
fn empty_leaf_hash() -> Hash256 {
    hash_parts(Domain::MerkleLeaf, &[b"<empty>"])
}

/// Hashes a real leaf's bytes.
pub fn leaf_hash(bytes: &[u8]) -> Hash256 {
    hash_parts(Domain::MerkleLeaf, &[b"leaf", bytes])
}

fn node_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    hash_parts(Domain::MerkleNode, &[left, right])
}

/// A Merkle tree retained in memory (all levels).
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// levels[0] = padded leaf hashes; levels.last() = [root].
    levels: Vec<Vec<Hash256>>,
    real_leaves: usize,
}

/// An inclusion proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: u64,
    /// Sibling hashes from leaf level up to (but excluding) the root.
    pub siblings: Vec<Hash256>,
}

impl Encode for MerkleProof {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.index);
        w.put_seq(&self.siblings);
    }
}

impl Decode for MerkleProof {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        Ok(Self {
            index: r.get_u64()?,
            siblings: r.get_seq_max(64, Decode::decode)?,
        })
    }
}

impl MerkleTree {
    /// Builds a tree over `leaves`; an empty input yields a single-node
    /// tree over the empty-leaf hash.
    pub fn build<L: AsRef<[u8]>>(leaves: &[L]) -> Self {
        let real_leaves = leaves.len();
        let padded = leaves.len().max(1).next_power_of_two();
        let mut level: Vec<Hash256> = Vec::with_capacity(padded);
        for l in leaves {
            level.push(leaf_hash(l.as_ref()));
        }
        level.resize(padded, empty_leaf_hash());
        let mut levels = vec![level];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let next: Vec<Hash256> = prev
                .chunks_exact(2)
                .map(|pair| node_hash(&pair[0], &pair[1]))
                .collect();
            levels.push(next);
        }
        Self {
            levels,
            real_leaves,
        }
    }

    /// The tree root.
    pub fn root(&self) -> Hash256 {
        self.levels.last().expect("nonempty")[0]
    }

    /// Number of real (unpadded) leaves.
    pub fn leaf_count(&self) -> usize {
        self.real_leaves
    }

    /// Produces an inclusion proof for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range of the real leaves.
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.real_leaves, "leaf index out of range");
        let mut siblings = Vec::with_capacity(self.levels.len() - 1);
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            siblings.push(level[idx ^ 1]);
            idx >>= 1;
        }
        MerkleProof {
            index: index as u64,
            siblings,
        }
    }
}

/// Verifies that `leaf_bytes` is the leaf at `proof.index` under `root`.
pub fn verify(root: &Hash256, leaf_bytes: &[u8], proof: &MerkleProof) -> bool {
    verify_leaf_hash(root, &leaf_hash(leaf_bytes), proof)
}

/// Verifies a proof given an already-hashed leaf.
pub fn verify_leaf_hash(root: &Hash256, leaf: &Hash256, proof: &MerkleProof) -> bool {
    if proof.siblings.len() >= 64 {
        return false;
    }
    // Index must fit within the proven tree height.
    if proof
        .index
        .checked_shr(proof.siblings.len() as u32)
        .map(|v| v != 0)
        .unwrap_or(false)
    {
        return false;
    }
    let mut acc = *leaf;
    let mut idx = proof.index;
    for sib in &proof.siblings {
        acc = if idx & 1 == 0 {
            node_hash(&acc, sib)
        } else {
            node_hash(sib, &acc)
        };
        idx >>= 1;
    }
    acc == *root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_tree() {
        let data = leaves(1);
        let tree = MerkleTree::build(&data);
        let proof = tree.prove(0);
        assert!(verify(&tree.root(), b"leaf-0", &proof));
    }

    #[test]
    fn all_leaves_prove_for_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 31, 64, 100] {
            let data = leaves(n);
            let tree = MerkleTree::build(&data);
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i);
                assert!(verify(&tree.root(), leaf, &proof), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let data = leaves(8);
        let tree = MerkleTree::build(&data);
        let proof = tree.prove(3);
        assert!(!verify(&tree.root(), b"leaf-4", &proof));
    }

    #[test]
    fn wrong_index_rejected() {
        let data = leaves(8);
        let tree = MerkleTree::build(&data);
        let mut proof = tree.prove(3);
        proof.index = 4;
        assert!(!verify(&tree.root(), b"leaf-3", &proof));
    }

    #[test]
    fn tampered_sibling_rejected() {
        let data = leaves(16);
        let tree = MerkleTree::build(&data);
        let mut proof = tree.prove(5);
        proof.siblings[1][0] ^= 1;
        assert!(!verify(&tree.root(), b"leaf-5", &proof));
    }

    #[test]
    fn index_outside_height_rejected() {
        let data = leaves(4);
        let tree = MerkleTree::build(&data);
        let mut proof = tree.prove(1);
        // Claim an index beyond the tree's capacity with the same siblings.
        proof.index = 1 << 40;
        assert!(!verify(&tree.root(), b"leaf-1", &proof));
    }

    #[test]
    fn different_leaf_sets_have_different_roots() {
        let t1 = MerkleTree::build(&leaves(8));
        let mut other = leaves(8);
        other[7] = b"leaf-7x".to_vec();
        let t2 = MerkleTree::build(&other);
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    fn padding_not_confusable_with_real_leaf() {
        // Tree over 3 leaves pads a 4th; a proof for the padding should not
        // verify as a real leaf called "<empty>".
        let tree = MerkleTree::build(&leaves(3));
        assert_eq!(tree.leaf_count(), 3);
        // The padded node exists internally, but prove() refuses it.
        let result = std::panic::catch_unwind(|| tree.prove(3));
        assert!(result.is_err());
    }

    #[test]
    fn proof_wire_roundtrip() {
        let tree = MerkleTree::build(&leaves(9));
        let proof = tree.prove(6);
        let back = MerkleProof::from_bytes(&proof.to_bytes()).unwrap();
        assert_eq!(back, proof);
    }

    #[test]
    fn oversized_proof_rejected() {
        let data = leaves(2);
        let tree = MerkleTree::build(&data);
        let mut proof = tree.prove(0);
        proof.siblings = vec![[0u8; 32]; 64];
        assert!(!verify(&tree.root(), b"leaf-0", &proof));
    }
}
