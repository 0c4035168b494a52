//! The authenticated dictionary: a Merkle binary trie keyed by `H(id)`.
//!
//! Implements the five routines from paper §6.1 (`Digest`,
//! `ProveIncludes`, `DoesInclude`, `ProveExtends`, `DoesExtend`). Keys are
//! placed by the bits of their hash, so the digest is a deterministic
//! function of the *set* of entries — two honest parties that apply the
//! same insertions in any order agree on the digest (the paper's
//! construction achieves this with a self-balancing BST; the trie gets it
//! structurally).
//!
//! Proof machinery:
//!
//! - A [`LookupProof`] is the authenticated path for one key: the sibling
//!   hashes from the root down to where the key's path ends — either at
//!   the key's own leaf (membership), at an empty slot, or at a *divergent*
//!   leaf for a different key (both non-membership).
//! - An inclusion proof ([`InclusionProof`]) is a membership path.
//! - An extension proof ([`ExtensionProof`]) is, per inserted entry, the
//!   non-membership path in the tree-so-far; the verifier *replays* each
//!   insertion against the path to recompute the next digest, ending at the
//!   claimed new digest. This simultaneously proves that no inserted
//!   identifier was already defined (append-only) and that the new digest
//!   contains exactly the old tree plus the new entries (Appendix B.2's two
//!   proof obligations).

use safetypin_primitives::error::WireError;
use safetypin_primitives::hashes::{hash_parts, Domain, Hash256};
use safetypin_primitives::wire::{Decode, Encode, Reader, Writer};

/// Maximum trie depth (bits of the key hash).
const MAX_DEPTH: usize = 256;

/// Errors from dictionary operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrieError {
    /// The identifier is already defined (the log is append-only).
    DuplicateIdentifier,
    /// Two distinct identifiers share all 256 key-hash bits (collision in
    /// the hash function; cryptographically unreachable).
    DepthExhausted,
    /// A proof failed verification.
    InvalidProof,
}

impl core::fmt::Display for TrieError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TrieError::DuplicateIdentifier => write!(f, "identifier already defined"),
            TrieError::DepthExhausted => write!(f, "key-hash bits exhausted"),
            TrieError::InvalidProof => write!(f, "proof verification failed"),
        }
    }
}

impl std::error::Error for TrieError {}

fn key_hash(id: &[u8]) -> Hash256 {
    hash_parts(Domain::LogEntry, &[b"key", id])
}

fn value_hash(id: &[u8], value: &[u8]) -> Hash256 {
    hash_parts(Domain::LogEntry, &[b"value", id, value])
}

fn empty_hash() -> Hash256 {
    // The empty digest is a constant; memoize it so hot paths (sibling
    // collection, absence-chain folding) don't re-derive it per node.
    static EMPTY: std::sync::OnceLock<Hash256> = std::sync::OnceLock::new();
    *EMPTY.get_or_init(|| hash_parts(Domain::MerkleNode, &[b"trie-empty"]))
}

fn leaf_hash(kh: &Hash256, vh: &Hash256) -> Hash256 {
    hash_parts(Domain::MerkleLeaf, &[b"trie-leaf", kh, vh])
}

fn internal_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    hash_parts(Domain::MerkleNode, &[b"trie-node", left, right])
}

/// Bit `depth` of a key hash, MSB-first.
fn bit(kh: &Hash256, depth: usize) -> bool {
    (kh[depth / 8] >> (7 - depth % 8)) & 1 == 1
}

#[derive(Debug, Clone)]
enum Node {
    Empty,
    Leaf {
        kh: Hash256,
        vh: Hash256,
    },
    Internal {
        hash: Hash256,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn hash(&self) -> Hash256 {
        match self {
            Node::Empty => empty_hash(),
            Node::Leaf { kh, vh } => leaf_hash(kh, vh),
            Node::Internal { hash, .. } => *hash,
        }
    }
}

/// Where a lookup path terminates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PathEnd {
    /// The path reached an empty slot.
    #[default]
    Empty,
    /// The path reached a leaf (the key's own, or a divergent one).
    Leaf {
        /// The leaf's key hash.
        kh: Hash256,
        /// The leaf's value hash.
        vh: Hash256,
    },
}

impl Encode for PathEnd {
    fn encode(&self, w: &mut Writer) {
        match self {
            PathEnd::Empty => w.put_u8(0),
            PathEnd::Leaf { kh, vh } => {
                w.put_u8(1);
                w.put_fixed(kh);
                w.put_fixed(vh);
            }
        }
    }
}

impl Decode for PathEnd {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(PathEnd::Empty),
            1 => Ok(PathEnd::Leaf {
                kh: r.get_array()?,
                vh: r.get_array()?,
            }),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

/// An authenticated path for one key: sibling hashes from the root to the
/// path's end. Step `i` is the hash of the sibling *not* taken at depth
/// `i`; the direction taken is bit `i` of the key hash.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LookupProof {
    /// Sibling hash at each depth along the path.
    pub siblings: Vec<Hash256>,
    /// What the path terminates in.
    pub end: PathEnd,
}

impl Encode for LookupProof {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(&self.siblings);
        self.end.encode(w);
    }
}

impl Decode for LookupProof {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        Ok(Self {
            siblings: r.get_seq_max(MAX_DEPTH, Decode::decode)?,
            end: PathEnd::decode(r)?,
        })
    }
}

impl LookupProof {
    /// Folds the path from its end up to a root digest, following the
    /// target key's bits.
    fn fold_root(&self, kh: &Hash256, end_hash: Hash256) -> Hash256 {
        let mut acc = end_hash;
        for (depth, sibling) in self.siblings.iter().enumerate().rev() {
            acc = if bit(kh, depth) {
                internal_hash(sibling, &acc)
            } else {
                internal_hash(&acc, sibling)
            };
        }
        acc
    }

    fn end_hash(&self) -> Hash256 {
        match &self.end {
            PathEnd::Empty => empty_hash(),
            PathEnd::Leaf { kh, vh } => leaf_hash(kh, vh),
        }
    }

    /// Recomputes the digest this path implies for key `kh`.
    pub fn implied_root(&self, kh: &Hash256) -> Hash256 {
        self.fold_root(kh, self.end_hash())
    }

    /// True if this path proves `kh` is *absent* from the tree with the
    /// given digest.
    pub fn proves_absence(&self, digest: &Hash256, kh: &Hash256) -> bool {
        if self.siblings.len() > MAX_DEPTH {
            return false;
        }
        let absent = match &self.end {
            PathEnd::Empty => true,
            PathEnd::Leaf { kh: leaf_kh, .. } => leaf_kh != kh,
        };
        absent && self.implied_root(kh) == *digest
    }

    /// True if this path proves `kh → vh` is *present* in the tree with the
    /// given digest.
    pub fn proves_presence(&self, digest: &Hash256, kh: &Hash256, vh: &Hash256) -> bool {
        if self.siblings.len() > MAX_DEPTH {
            return false;
        }
        match &self.end {
            PathEnd::Leaf {
                kh: leaf_kh,
                vh: leaf_vh,
            } => leaf_kh == kh && leaf_vh == vh && self.implied_root(kh) == *digest,
            PathEnd::Empty => false,
        }
    }

    /// Replays the insertion of `kh → vh` against this (absence) path,
    /// returning the digest of the tree after the insertion.
    pub fn replay_insert(&self, kh: &Hash256, vh: &Hash256) -> Result<Hash256, TrieError> {
        let new_leaf = leaf_hash(kh, vh);
        let subtree = match &self.end {
            PathEnd::Empty => new_leaf,
            PathEnd::Leaf {
                kh: other_kh,
                vh: other_vh,
            } => {
                if other_kh == kh {
                    return Err(TrieError::DuplicateIdentifier);
                }
                let d0 = self.siblings.len();
                // First depth ≥ d0 where the two keys diverge.
                let mut j = d0;
                while j < MAX_DEPTH && bit(kh, j) == bit(other_kh, j) {
                    j += 1;
                }
                if j == MAX_DEPTH {
                    return Err(TrieError::DepthExhausted);
                }
                let other_leaf = leaf_hash(other_kh, other_vh);
                let mut acc = if bit(kh, j) {
                    internal_hash(&other_leaf, &new_leaf)
                } else {
                    internal_hash(&new_leaf, &other_leaf)
                };
                // Chain of one-child internals back up to the attach depth.
                for depth in (d0..j).rev() {
                    let e = empty_hash();
                    acc = if bit(kh, depth) {
                        internal_hash(&e, &acc)
                    } else {
                        internal_hash(&acc, &e)
                    };
                }
                acc
            }
        };
        Ok(self.fold_root(kh, subtree))
    }
}

/// An inclusion proof for `(id, val)` relative to a digest (`π_Inc`).
/// The default (the empty path) is a recovery request's placeholder.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InclusionProof {
    /// The authenticated path to the entry's leaf.
    pub path: LookupProof,
}

impl Encode for InclusionProof {
    fn encode(&self, w: &mut Writer) {
        self.path.encode(w);
    }
}

impl Decode for InclusionProof {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        Ok(Self {
            path: LookupProof::decode(r)?,
        })
    }
}

/// One inserted entry plus its pre-insertion absence path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertStep {
    /// Inserted identifier.
    pub id: Vec<u8>,
    /// Inserted value.
    pub value: Vec<u8>,
    /// Absence path in the tree state just before this insertion.
    pub path: LookupProof,
}

impl Encode for InsertStep {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.id);
        w.put_bytes(&self.value);
        self.path.encode(w);
    }
}

impl Decode for InsertStep {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        Ok(Self {
            id: r.get_bytes()?.to_vec(),
            value: r.get_bytes()?.to_vec(),
            path: LookupProof::decode(r)?,
        })
    }
}

/// An extension proof (`π_Ext`): replayable insertions from an old digest
/// to a new one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExtensionProof {
    /// The insertions, in order.
    pub steps: Vec<InsertStep>,
}

impl ExtensionProof {
    /// Replays the insertions from `old`, returning the implied new digest,
    /// or an error if any step's absence path does not verify.
    pub fn replay(&self, old: &Hash256) -> Result<Hash256, TrieError> {
        let mut current = *old;
        for step in &self.steps {
            let kh = key_hash(&step.id);
            let vh = value_hash(&step.id, &step.value);
            if !step.path.proves_absence(&current, &kh) {
                return Err(TrieError::InvalidProof);
            }
            current = step.path.replay_insert(&kh, &vh)?;
        }
        Ok(current)
    }
}

impl Encode for ExtensionProof {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(&self.steps);
    }
}

impl Decode for ExtensionProof {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        Ok(Self {
            steps: r.get_seq()?,
        })
    }
}

/// The provider-side authenticated dictionary.
#[derive(Debug, Clone)]
pub struct MerkleTrie {
    root: Node,
    len: usize,
}

impl Default for MerkleTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl MerkleTrie {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self {
            root: Node::Empty,
            len: 0,
        }
    }

    /// `Digest(L)`: the current root digest.
    pub fn digest(&self) -> Hash256 {
        self.root.hash()
    }

    /// The digest of the empty dictionary.
    pub fn empty_digest() -> Hash256 {
        empty_hash()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Walks the path for `kh`, collecting sibling hashes.
    fn lookup_path(&self, kh: &Hash256) -> LookupProof {
        let mut siblings = Vec::new();
        let mut node = &self.root;
        let mut depth = 0;
        loop {
            match node {
                Node::Empty => {
                    return LookupProof {
                        siblings,
                        end: PathEnd::Empty,
                    }
                }
                Node::Leaf { kh: lkh, vh } => {
                    return LookupProof {
                        siblings,
                        end: PathEnd::Leaf { kh: *lkh, vh: *vh },
                    }
                }
                Node::Internal { left, right, .. } => {
                    if bit(kh, depth) {
                        siblings.push(left.hash());
                        node = right;
                    } else {
                        siblings.push(right.hash());
                        node = left;
                    }
                    depth += 1;
                }
            }
        }
    }

    /// `ProveIncludes(L, id, val)`: returns an inclusion proof, or `None`
    /// if `(id, val)` is not in the dictionary.
    pub fn prove_includes(&self, id: &[u8], value: &[u8]) -> Option<InclusionProof> {
        let kh = key_hash(id);
        let vh = value_hash(id, value);
        let path = self.lookup_path(&kh);
        match &path.end {
            PathEnd::Leaf { kh: lkh, vh: lvh } if *lkh == kh && *lvh == vh => {
                Some(InclusionProof { path })
            }
            _ => None,
        }
    }

    /// `DoesInclude(d, id, val, π_Inc)`.
    pub fn does_include(digest: &Hash256, id: &[u8], value: &[u8], proof: &InclusionProof) -> bool {
        let kh = key_hash(id);
        let vh = value_hash(id, value);
        proof.path.proves_presence(digest, &kh, &vh)
    }

    /// Whether `id` is defined.
    pub fn contains(&self, id: &[u8]) -> bool {
        let kh = key_hash(id);
        matches!(
            self.lookup_path(&kh).end,
            PathEnd::Leaf { kh: lkh, .. } if lkh == kh
        )
    }

    /// Inserts `(id, value)`, returning the [`InsertStep`] (entry plus its
    /// pre-insertion absence path) for use in extension proofs.
    ///
    /// Fails with [`TrieError::DuplicateIdentifier`] if `id` is defined —
    /// the dictionary is append-only.
    pub fn insert(&mut self, id: &[u8], value: &[u8]) -> Result<InsertStep, TrieError> {
        let kh = key_hash(id);
        let vh = value_hash(id, value);
        let path = self.lookup_path(&kh);
        if let PathEnd::Leaf { kh: lkh, .. } = &path.end {
            if *lkh == kh {
                return Err(TrieError::DuplicateIdentifier);
            }
        }
        let root = std::mem::replace(&mut self.root, Node::Empty);
        self.root = Self::insert_node(root, &kh, &vh, 0)?;
        self.len += 1;
        Ok(InsertStep {
            id: id.to_vec(),
            value: value.to_vec(),
            path,
        })
    }

    fn insert_node(
        node: Node,
        kh: &Hash256,
        vh: &Hash256,
        depth: usize,
    ) -> Result<Node, TrieError> {
        if depth >= MAX_DEPTH {
            return Err(TrieError::DepthExhausted);
        }
        match node {
            Node::Empty => Ok(Node::Leaf { kh: *kh, vh: *vh }),
            Node::Leaf {
                kh: other_kh,
                vh: other_vh,
            } => {
                if other_kh == *kh {
                    return Err(TrieError::DuplicateIdentifier);
                }
                // Build the divergence chain from `depth` down.
                let mut j = depth;
                while j < MAX_DEPTH && bit(kh, j) == bit(&other_kh, j) {
                    j += 1;
                }
                if j == MAX_DEPTH {
                    return Err(TrieError::DepthExhausted);
                }
                let new_leaf = Node::Leaf { kh: *kh, vh: *vh };
                let old_leaf = Node::Leaf {
                    kh: other_kh,
                    vh: other_vh,
                };
                let (l, r) = if bit(kh, j) {
                    (old_leaf, new_leaf)
                } else {
                    (new_leaf, old_leaf)
                };
                let mut acc = Node::Internal {
                    hash: internal_hash(&l.hash(), &r.hash()),
                    left: Box::new(l),
                    right: Box::new(r),
                };
                for d in (depth..j).rev() {
                    let (l, r) = if bit(kh, d) {
                        (Node::Empty, acc)
                    } else {
                        (acc, Node::Empty)
                    };
                    acc = Node::Internal {
                        hash: internal_hash(&l.hash(), &r.hash()),
                        left: Box::new(l),
                        right: Box::new(r),
                    };
                }
                Ok(acc)
            }
            Node::Internal { left, right, .. } => {
                let (left, right) = if bit(kh, depth) {
                    let new_right = Self::insert_node(*right, kh, vh, depth + 1)?;
                    (*left, new_right)
                } else {
                    let new_left = Self::insert_node(*left, kh, vh, depth + 1)?;
                    (new_left, *right)
                };
                Ok(Node::Internal {
                    hash: internal_hash(&left.hash(), &right.hash()),
                    left: Box::new(left),
                    right: Box::new(right),
                })
            }
        }
    }

    /// `DoesExtend(d, d', π_Ext)`: replays the proof's insertions from `d`
    /// and accepts iff the result is `d'` and every inserted identifier was
    /// previously undefined.
    pub fn does_extend(old: &Hash256, new: &Hash256, proof: &ExtensionProof) -> bool {
        matches!(proof.replay(old), Ok(d) if d == *new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("user-{i}").into_bytes(),
                    format!("commit-{i}").into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn digest_changes_on_insert() {
        let mut t = MerkleTrie::new();
        let d0 = t.digest();
        assert_eq!(d0, MerkleTrie::empty_digest());
        t.insert(b"a", b"1").unwrap();
        let d1 = t.digest();
        assert_ne!(d0, d1);
        t.insert(b"b", b"2").unwrap();
        assert_ne!(d1, t.digest());
    }

    #[test]
    fn digest_is_set_deterministic() {
        // Insertion order must not matter.
        let mut t1 = MerkleTrie::new();
        let mut t2 = MerkleTrie::new();
        let es = entries(50);
        for (id, v) in &es {
            t1.insert(id, v).unwrap();
        }
        for (id, v) in es.iter().rev() {
            t2.insert(id, v).unwrap();
        }
        assert_eq!(t1.digest(), t2.digest());
    }

    #[test]
    fn duplicate_identifier_rejected() {
        let mut t = MerkleTrie::new();
        t.insert(b"user", b"v1").unwrap();
        assert_eq!(
            t.insert(b"user", b"v2").unwrap_err(),
            TrieError::DuplicateIdentifier
        );
        // Even the same value is rejected: one entry per identifier.
        assert_eq!(
            t.insert(b"user", b"v1").unwrap_err(),
            TrieError::DuplicateIdentifier
        );
    }

    #[test]
    fn inclusion_proofs_verify() {
        let mut t = MerkleTrie::new();
        let es = entries(100);
        for (id, v) in &es {
            t.insert(id, v).unwrap();
        }
        let d = t.digest();
        for (id, v) in &es {
            let proof = t.prove_includes(id, v).unwrap();
            assert!(MerkleTrie::does_include(&d, id, v, &proof));
        }
    }

    #[test]
    fn inclusion_proof_rejects_wrong_value() {
        let mut t = MerkleTrie::new();
        t.insert(b"id", b"value").unwrap();
        let d = t.digest();
        let proof = t.prove_includes(b"id", b"value").unwrap();
        assert!(!MerkleTrie::does_include(&d, b"id", b"other", &proof));
        assert!(!MerkleTrie::does_include(&d, b"id2", b"value", &proof));
    }

    #[test]
    fn inclusion_proof_rejects_wrong_digest() {
        let mut t = MerkleTrie::new();
        t.insert(b"id", b"value").unwrap();
        let proof = t.prove_includes(b"id", b"value").unwrap();
        let wrong = [0u8; 32];
        assert!(!MerkleTrie::does_include(&wrong, b"id", b"value", &proof));
    }

    #[test]
    fn prove_includes_absent_returns_none() {
        let mut t = MerkleTrie::new();
        t.insert(b"id", b"value").unwrap();
        assert!(t.prove_includes(b"missing", b"x").is_none());
        assert!(t.prove_includes(b"id", b"wrong-value").is_none());
    }

    #[test]
    fn absence_proofs_verify() {
        let mut t = MerkleTrie::new();
        for (id, v) in entries(50) {
            t.insert(&id, &v).unwrap();
        }
        let d = t.digest();
        let proof = t.lookup_path(&key_hash(b"not-there"));
        assert!(proof.proves_absence(&d, &key_hash(b"not-there")));
        // An absence proof for one missing key does not transfer to a
        // present key.
        assert!(!proof.proves_absence(&d, &key_hash(b"user-1")));
    }

    #[test]
    fn absence_proof_for_present_key_impossible() {
        let mut t = MerkleTrie::new();
        t.insert(b"present", b"v").unwrap();
        let kh = key_hash(b"present");
        assert!(!t.lookup_path(&kh).proves_absence(&t.digest(), &kh));
    }

    #[test]
    fn extension_proof_roundtrip() {
        let mut t = MerkleTrie::new();
        for (id, v) in entries(20) {
            t.insert(&id, &v).unwrap();
        }
        let d_old = t.digest();
        let mut steps = Vec::new();
        for i in 100..110 {
            let id = format!("user-{i}").into_bytes();
            let v = format!("commit-{i}").into_bytes();
            steps.push(t.insert(&id, &v).unwrap());
        }
        let d_new = t.digest();
        let proof = ExtensionProof { steps };
        assert!(MerkleTrie::does_extend(&d_old, &d_new, &proof));
    }

    #[test]
    fn empty_extension_proof() {
        let t = MerkleTrie::new();
        let d = t.digest();
        assert!(MerkleTrie::does_extend(&d, &d, &ExtensionProof::default()));
        let other = [1u8; 32];
        assert!(!MerkleTrie::does_extend(
            &d,
            &other,
            &ExtensionProof::default()
        ));
    }

    #[test]
    fn extension_from_empty_tree() {
        let mut t = MerkleTrie::new();
        let d_old = t.digest();
        let step = t.insert(b"first", b"entry").unwrap();
        let d_new = t.digest();
        let proof = ExtensionProof { steps: vec![step] };
        assert!(MerkleTrie::does_extend(&d_old, &d_new, &proof));
    }

    #[test]
    fn extension_proof_rejects_value_mutation() {
        // A provider trying to *redefine* an identifier cannot produce a
        // valid extension proof.
        let mut t = MerkleTrie::new();
        let step_a = t.insert(b"id", b"v1").unwrap();
        let d1 = t.digest();

        // Forge: pretend to insert ("id", "v2") starting from d1 using the
        // old absence path.
        let forged = ExtensionProof {
            steps: vec![InsertStep {
                id: b"id".to_vec(),
                value: b"v2".to_vec(),
                path: step_a.path.clone(),
            }],
        };
        // Any claimed post-digest fails because the absence path no longer
        // matches d1.
        let kh = key_hash(b"id");
        let vh = value_hash(b"id", b"v2");
        let claimed = step_a.path.replay_insert(&kh, &vh).unwrap();
        assert!(!MerkleTrie::does_extend(&d1, &claimed, &forged));
    }

    #[test]
    fn extension_proof_rejects_wrong_order_dependencies() {
        // Steps whose paths don't match the evolving digest fail.
        let mut t = MerkleTrie::new();
        let s1 = t.insert(b"a", b"1").unwrap();
        let s2 = t.insert(b"b", b"2").unwrap();
        let d_new = t.digest();
        let reversed = ExtensionProof {
            steps: vec![s2, s1],
        };
        assert!(!MerkleTrie::does_extend(
            &MerkleTrie::empty_digest(),
            &d_new,
            &reversed
        ));
    }

    #[test]
    fn extension_proof_rejects_truncation() {
        let mut t = MerkleTrie::new();
        let d0 = t.digest();
        let s1 = t.insert(b"a", b"1").unwrap();
        let d1 = t.digest();
        let _s2 = t.insert(b"b", b"2").unwrap();
        let d2 = t.digest();
        // Proof with only the first step cannot reach d2.
        let partial = ExtensionProof { steps: vec![s1] };
        assert!(!MerkleTrie::does_extend(&d0, &d2, &partial));
        assert!(MerkleTrie::does_extend(&d0, &d1, &partial));
    }

    #[test]
    fn proof_wire_roundtrip() {
        let mut t = MerkleTrie::new();
        for (id, v) in entries(30) {
            t.insert(&id, &v).unwrap();
        }
        let inc = t.prove_includes(b"user-7", b"commit-7").unwrap();
        let back = InclusionProof::from_bytes(&inc.to_bytes()).unwrap();
        assert_eq!(back, inc);

        let step = t.insert(b"new", b"entry").unwrap();
        let ext = ExtensionProof { steps: vec![step] };
        let back = ExtensionProof::from_bytes(&ext.to_bytes()).unwrap();
        assert_eq!(back, ext);
    }

    #[test]
    fn proof_depth_is_logarithmic() {
        let mut t = MerkleTrie::new();
        for (id, v) in entries(1000) {
            t.insert(&id, &v).unwrap();
        }
        let proof = t.prove_includes(b"user-500", b"commit-500").unwrap();
        // Expected depth ≈ log2(1000) ≈ 10; allow slack for trie variance.
        assert!(
            proof.path.siblings.len() < 40,
            "depth {}",
            proof.path.siblings.len()
        );
    }

    #[test]
    fn len_tracks_inserts() {
        let mut t = MerkleTrie::new();
        assert!(t.is_empty());
        for (i, (id, v)) in entries(10).iter().enumerate() {
            t.insert(id, v).unwrap();
            assert_eq!(t.len(), i + 1);
        }
        assert!(t.contains(b"user-3"));
        assert!(!t.contains(b"user-11"));
    }

    #[test]
    fn oversized_proof_rejected() {
        let mut t = MerkleTrie::new();
        t.insert(b"a", b"1").unwrap();
        let d = t.digest();
        let mut proof = t.prove_includes(b"a", b"1").unwrap();
        proof.path.siblings = vec![[0u8; 32]; 300];
        assert!(!MerkleTrie::does_include(&d, b"a", b"1", &proof));
    }
}
