//! Key/value substrate shared by every dictionary in the workspace.
//!
//! * [`codec`] — a compact little-endian binary codec with checked decoding;
//!   every on-"disk" node image in `dam-btree` / `dam-betree` goes through
//!   it, so serialization bugs surface as typed errors, not silent
//!   corruption.
//! * [`msg`] — the Bε-tree message algebra: puts and tombstone deletes,
//!   ordered by sequence number (§3: "modifications are encoded as messages
//!   … eventually applied to the key-value pairs in the leaves").
//! * [`dictionary`] — the common external-dictionary interface (insert,
//!   delete, point query, range query) the paper's data structures
//!   implement, plus per-operation cost reporting.
//! * [`pairs`] — [`Pairs`], the packed answer of a range query.
//! * [`workload`] — deterministic, seeded key-index and value streams
//!   (uniform, zipfian) for the §7 benchmark protocol.

pub mod codec;
pub mod dictionary;
pub mod msg;
pub mod pairs;
pub mod workload;

pub use codec::{CodecError, Reader, Writer};
pub use dictionary::{BatchOp, Dictionary, KvError, KvPair, OpCost};
pub use msg::{Message, Operation};
pub use pairs::Pairs;
pub use workload::{KeyDistribution, WorkloadConfig, WorkloadGen};

/// Encode an index as a fixed-width big-endian key so lexicographic order
/// equals numeric order. 16 bytes to match the §7 benchmark's key size.
pub fn key_from_u64(i: u64) -> [u8; 16] {
    let mut k = [0u8; 16];
    k[8..].copy_from_slice(&i.to_be_bytes());
    k
}

/// Inverse of [`key_from_u64`]; returns `None` for keys of the wrong shape.
pub fn key_to_u64(key: &[u8]) -> Option<u64> {
    if key.len() != 16 || key[..8].iter().any(|&b| b != 0) {
        return None;
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&key[8..]);
    Some(u64::from_be_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        for i in [0u64, 1, 255, 1 << 40, u64::MAX] {
            assert_eq!(key_to_u64(&key_from_u64(i)), Some(i));
        }
    }

    #[test]
    fn key_order_matches_numeric_order() {
        let a = key_from_u64(5);
        let b = key_from_u64(255);
        let c = key_from_u64(256);
        assert!(a < b && b < c);
    }

    #[test]
    fn malformed_keys_rejected() {
        assert_eq!(key_to_u64(&[0u8; 15]), None);
        let mut k = key_from_u64(1);
        k[0] = 1;
        assert_eq!(key_to_u64(&k), None);
    }
}
