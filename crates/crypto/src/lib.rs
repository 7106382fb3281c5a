//! Cryptographic substrate for the `auth-sp` workspace.
//!
//! This crate implements, from first principles, every cryptographic
//! primitive required by the authenticated shortest-path verification
//! framework of Yiu, Lin and Mouratidis (ICDE 2010):
//!
//! * [`sha256`] — the SHA-256 one-way hash function (the paper uses
//!   SHA-1; any collision-resistant hash with a fixed-width digest is
//!   interchangeable in the protocol, and SHA-1 is no longer
//!   collision-resistant).
//! * [`digest`] — the 32-byte [`digest::Digest`] type and
//!   convenience combinators for hashing concatenations.
//! * [`rsa`] — RSA key generation, signing and verification used by the
//!   data owner to sign ADS roots, over two private modules: `bigint`
//!   (arbitrary-precision unsigned integers: limb-wise long division,
//!   Montgomery exponentiation) and `prime` (Miller–Rabin primality
//!   testing and random prime generation).
//! * [`merkle`] — a Merkle hash tree with configurable fanout plus
//!   multi-leaf proof generation/verification following Merkle's
//!   subtree rule (Section III-B of the paper).
//! * [`mbtree`] — a keyed Merkle B-tree used for materialized distance
//!   tuples (the FULL method) and hyper-edge weights (the HYP method).
//!
//! Both trees store their records in `spnet_bytes::blocks::Blocks`
//! arrays, one snapshot page per block, each resident or not yet
//! loaded, so epochs share every block an update does not write. Every
//! type here that goes on the wire or into a snapshot carries its one
//! `spnet_bytes::enc::Wire` impl beside its definition.
//!
//! # Security disclaimer
//!
//! This is research-grade code written for a reproduction study. RSA
//! signing uses the CRT and checks every signature under the public
//! exponent before releasing it, so a computation fault cannot leak a
//! factor of the modulus; but nothing here is constant-time (window
//! lookups, the final Montgomery subtraction and long division all
//! branch on secret data), and the default modulus size is chosen for
//! experiment throughput, not production security.
//!
//! # Example
//!
//! ```
//! use spnet_crypto::{sha256::sha256, merkle::MerkleTree};
//!
//! let leaves: Vec<_> = (0u32..10).map(|i| sha256(&i.to_le_bytes())).collect();
//! let tree = MerkleTree::build(leaves.clone(), 2).unwrap();
//! let proof = tree.prove([3usize, 4].into_iter().collect()).unwrap();
//! let root = proof
//!     .reconstruct_root(&[(3, leaves[3]), (4, leaves[4])])
//!     .unwrap();
//! assert_eq!(root, tree.root());
//! ```

mod bigint;
pub mod digest;
pub mod mbtree;
pub mod merkle;
mod prime;
pub mod rsa;
pub mod sha256;

pub use digest::Digest;
pub use merkle::{MerkleProof, MerkleTree};
pub use rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};

/// A test pager over one section's bytes.
#[cfg(test)]
pub(crate) mod testing {
    use spnet_bytes::pager::{PageError, Pager};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Serves `bytes` in pages of `page_len` bytes, cut to at most
    /// `clip` bytes each, and counts every page it serves in `faults`.
    #[derive(Debug)]
    pub(crate) struct BytePager {
        pub bytes: Vec<u8>,
        pub page_len: usize,
        pub clip: usize,
        pub faults: Arc<AtomicU64>,
    }

    impl Pager for BytePager {
        fn read_page(&self, page: u32) -> Result<Vec<u8>, PageError> {
            let start = page as usize * self.page_len;
            if start >= self.bytes.len() {
                return Err(PageError::Corrupt(format!("page {page} out of range")));
            }
            self.faults.fetch_add(1, Ordering::Relaxed);
            let end = (start + self.page_len.min(self.clip)).min(self.bytes.len());
            Ok(self.bytes[start..end].to_vec())
        }
    }
}
