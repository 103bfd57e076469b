//! Memtable keys that compare a machine word at a time.

use std::cmp::Ordering;

/// Longest key stored inline.
const INLINE: usize = 24;

/// A memtable key, ordered exactly as its bytes are.
///
/// A key of up to 24 bytes is stored inline, zero-padded, and compared as
/// three big-endian `u64` words, then by length. That is byte order: the
/// first differing byte decides the first differing word the same way, and
/// when one key is a prefix of the other the padding reads as zeros, so
/// either the longer key's extra bytes make its words greater or the words
/// tie and the shorter key sorts first. A longer key is kept as heap bytes
/// and compared as a slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum MemKey {
    Inline { bytes: [u8; INLINE], len: u8 },
    Heap(Box<[u8]>),
}

impl MemKey {
    pub(crate) fn new(key: &[u8]) -> Self {
        if key.len() <= INLINE {
            let mut bytes = [0; INLINE];
            bytes[..key.len()].copy_from_slice(key);
            MemKey::Inline {
                bytes,
                len: key.len() as u8,
            }
        } else {
            MemKey::Heap(key.into())
        }
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            MemKey::Inline { bytes, len } => &bytes[..*len as usize],
            MemKey::Heap(bytes) => bytes,
        }
    }
}

fn words(bytes: &[u8; INLINE]) -> [u64; 3] {
    std::array::from_fn(|i| {
        let word = bytes[8 * i..8 * i + 8].try_into().expect("8-byte word");
        u64::from_be_bytes(word)
    })
}

impl Ord for MemKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (
                MemKey::Inline {
                    bytes: a,
                    len: a_len,
                },
                MemKey::Inline {
                    bytes: b,
                    len: b_len,
                },
            ) => words(a).cmp(&words(b)).then(a_len.cmp(b_len)),
            _ => self.as_slice().cmp(other.as_slice()),
        }
    }
}

impl PartialOrd for MemKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_stats::prop::*;

    /// Keys of 0–40 bytes, inline and heap, mostly 0x00 and 0xFF bytes so
    /// that prefixes, zero padding and word boundaries collide often.
    fn key() -> impl Gen<Value = Vec<u8>> {
        let byte = prop_oneof![3 => Just(0u8), 3 => Just(0xFF), 1 => Just(1u8), 2 => any::<u8>()];
        vec(byte, 0..41)
    }

    props! {
        cases = 2048;

        #[test]
        fn order_is_byte_order(a in key(), b in key(), cut in any::<usize>()) {
            // `c` shares a prefix with `a`, so equal and prefix pairs occur.
            let c = [&a[..cut % (a.len() + 1)], &b[..]].concat();
            let ka = MemKey::new(&a);
            prop_assert_eq!(ka.as_slice(), a.as_slice());
            for other in [b, c] {
                let ko = MemKey::new(&other);
                prop_assert_eq!(ka.cmp(&ko), a.as_slice().cmp(other.as_slice()), "{:?} {:?}", a, other);
                prop_assert_eq!(ka == ko, a == other);
            }
        }
    }

    #[test]
    fn zero_padding_never_ties_a_key_with_its_zero_extension() {
        for len in 0..40 {
            let short = MemKey::new(&vec![0; len]);
            let long = MemKey::new(&vec![0; len + 1]);
            assert!(short < long, "len {len}");
            assert_ne!(short, long);
        }
    }
}
