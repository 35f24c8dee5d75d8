//! Merkle trees over SHA-256, used to certify the many one-time WOTS+ keys
//! of the stateful signature scheme.

use crate::sha256::Sha256;

/// A 32-byte Merkle node hash.
pub type Node = [u8; 32];

fn leaf_hash(data: &[u8]) -> Node {
    Sha256::digest_parts(&[b"leaf", data])
}

fn inner_hash(l: &Node, r: &Node) -> Node {
    Sha256::digest_parts(&[b"node", l, r])
}

/// A complete Merkle tree (leaf count padded to a power of two with empty
/// leaves).
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, last level = [root].
    levels: Vec<Vec<Node>>,
    leaf_count: usize,
}

/// An authentication path (siblings bottom-up).
pub type MerkleProof = Vec<Node>;

impl MerkleTree {
    /// Builds a tree over `leaves` (raw byte strings; hashed internally).
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty.
    pub fn build<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let leaf_count = leaves.len();
        let width = leaf_count.next_power_of_two();
        let mut level: Vec<Node> = leaves.iter().map(|l| leaf_hash(l.as_ref())).collect();
        level.resize(width, leaf_hash(b""));
        let mut levels = vec![level];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let next: Vec<Node> = prev
                .chunks_exact(2)
                .map(|pair| inner_hash(&pair[0], &pair[1]))
                .collect();
            levels.push(next);
        }
        MerkleTree { levels, leaf_count }
    }

    /// The tree root.
    pub fn root(&self) -> Node {
        self.levels.last().expect("nonempty")[0]
    }

    /// Authentication path for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not one of the real (unpadded) leaves.
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.leaf_count, "leaf index out of range");
        let mut proof = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            proof.push(level[idx ^ 1]);
            idx >>= 1;
        }
        proof
    }

    /// Verifies that `leaf_data` is the `index`-th of `total` leaves under
    /// `root`, given the authentication `proof`.
    pub fn verify(
        root: &Node,
        leaf_data: &[u8],
        index: usize,
        proof: &MerkleProof,
        total: usize,
    ) -> bool {
        if total == 0 || index >= total {
            return false;
        }
        let depth = total.next_power_of_two().trailing_zeros() as usize;
        if proof.len() != depth {
            return false;
        }
        let mut node = leaf_hash(leaf_data);
        let mut idx = index;
        for sibling in proof {
            node = if idx & 1 == 0 {
                inner_hash(&node, sibling)
            } else {
                inner_hash(sibling, &node)
            };
            idx >>= 1;
        }
        &node == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn all_leaves_provable() {
        for n in [1usize, 2, 3, 4, 5, 8, 9, 16, 33] {
            let ls = leaves(n);
            let tree = MerkleTree::build(&ls);
            for (i, leaf) in ls.iter().enumerate() {
                let proof = tree.prove(i);
                assert!(
                    MerkleTree::verify(&tree.root(), leaf, i, &proof, n),
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let ls = leaves(8);
        let tree = MerkleTree::build(&ls);
        let proof = tree.prove(2);
        assert!(!MerkleTree::verify(
            &tree.root(),
            b"not-the-leaf",
            2,
            &proof,
            8
        ));
    }

    #[test]
    fn wrong_index_rejected() {
        let ls = leaves(8);
        let tree = MerkleTree::build(&ls);
        let proof = tree.prove(2);
        assert!(!MerkleTree::verify(&tree.root(), &ls[2], 3, &proof, 8));
        assert!(!MerkleTree::verify(&tree.root(), &ls[2], 9, &proof, 8));
    }

    #[test]
    fn tampered_proof_rejected() {
        let ls = leaves(8);
        let tree = MerkleTree::build(&ls);
        let mut proof = tree.prove(5);
        proof[1][0] ^= 1;
        assert!(!MerkleTree::verify(&tree.root(), &ls[5], 5, &proof, 8));
    }

    #[test]
    fn wrong_proof_length_rejected() {
        let ls = leaves(8);
        let tree = MerkleTree::build(&ls);
        let mut proof = tree.prove(5);
        proof.pop();
        assert!(!MerkleTree::verify(&tree.root(), &ls[5], 5, &proof, 8));
    }

    #[test]
    fn distinct_trees_distinct_roots() {
        let t1 = MerkleTree::build(&leaves(4));
        let mut ls = leaves(4);
        ls[0][0] ^= 1;
        let t2 = MerkleTree::build(&ls);
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    fn single_leaf_tree() {
        let ls = leaves(1);
        let tree = MerkleTree::build(&ls);
        let proof = tree.prove(0);
        assert!(proof.is_empty());
        assert!(MerkleTree::verify(&tree.root(), &ls[0], 0, &proof, 1));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_tree_panics() {
        MerkleTree::build::<Vec<u8>>(&[]);
    }
}
