//! [`Pairs`]: a range query's answer, packed.
//!
//! A range answer is copied out of the pages it is read from, so its pairs
//! are owned by it; this type owns them without an allocation per pair. It
//! copies keys and values back to back into byte chunks and locates each
//! pair by a small table of `u32` ends. A chunk holds at most
//! [`CHUNK_BYTES`], and a pair larger than that gets a chunk of its own.

use crate::dictionary::KvPair;
use std::fmt;

/// Most bytes of keys and values a chunk holds, unless its one pair is
/// larger. glibc serves an allocation of 128 KiB or more with its own
/// mapping and, when that is freed, raises the size below which it keeps
/// freed memory in its heap (its dynamic mmap threshold), so that later
/// large allocations stay resident after they are freed. A chunk half that
/// size never moves the threshold, nor does its end table unless its pairs
/// average under 8 bytes. (A `Vec<KvPair>` answer did past 2,048 pairs.)
pub const CHUNK_BYTES: usize = 64 << 10;

/// The pairs of a range answer in key order, packed into byte chunks (see
/// the module docs). Compares equal to a `Vec<KvPair>` holding the same
/// pairs, both ways round.
#[derive(Clone, Default)]
pub struct Pairs {
    chunks: Vec<Chunk>,
}

/// Consecutive pairs of an answer: their keys and values back to back,
/// each pair's key then its value, and where each ends.
#[derive(Clone)]
struct Chunk {
    /// The index of the chunk's first pair in the answer.
    first: usize,
    bytes: Vec<u8>,
    /// Per pair, where its key and its value end in `bytes`. A pair starts
    /// where the one before it ends, the first at 0.
    ends: Vec<[u32; 2]>,
}

impl Chunk {
    /// Pair `i` of the chunk, which it holds.
    fn pair(&self, i: usize) -> (&[u8], &[u8]) {
        let start = if i == 0 { 0 } else { self.ends[i - 1][1] };
        let [key_end, end] = self.ends[i];
        let (start, key_end, end) = (start as usize, key_end as usize, end as usize);
        (&self.bytes[start..key_end], &self.bytes[key_end..end])
    }
}

/// A `u32` chunk offset; a chunk of one pair can in principle outgrow it.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("a pair of at most 4 GiB")
}

impl Pairs {
    /// An empty answer, which allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.chunks.last().map_or(0, |c| c.first + c.ends.len())
    }

    /// True when there are none.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Append a copy of the pair `(key, value)`.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        let need = key.len() + value.len();
        let first = self.len();
        let chunk = match self.chunks.last_mut() {
            Some(c) if c.bytes.len() + need <= CHUNK_BYTES => c,
            _ => {
                // The first chunk starts with room for four pairs like its
                // first and doubles as the answer grows; a chunk after a
                // full one starts at the cap.
                let room = if self.chunks.is_empty() {
                    4 * need
                } else {
                    CHUNK_BYTES
                };
                self.chunks.push(Chunk {
                    first,
                    bytes: Vec::with_capacity(room.min(CHUNK_BYTES).max(need)),
                    ends: Vec::new(),
                });
                self.chunks.last_mut().expect("just pushed")
            }
        };
        let bytes = &mut chunk.bytes;
        if bytes.capacity() - bytes.len() < need {
            // Double, but never past the cap (`reserve` could).
            let want = (2 * bytes.capacity()).clamp(bytes.len() + need, CHUNK_BYTES);
            bytes.reserve_exact(want - bytes.len());
        }
        bytes.extend_from_slice(key);
        let key_end = offset(bytes.len());
        bytes.extend_from_slice(value);
        chunk.ends.push([key_end, offset(bytes.len())]);
    }

    /// Pair `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<(&[u8], &[u8])> {
        let c = self
            .chunks
            .partition_point(|c| c.first <= i)
            .checked_sub(1)?;
        let (chunk, j) = (&self.chunks[c], i - self.chunks[c].first);
        (j < chunk.ends.len()).then(|| chunk.pair(j))
    }

    /// The pairs in key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: &self.chunks,
            next: 0,
        }
    }
}

/// The pairs of a [`Pairs`] in key order, from [`Pairs::iter`].
#[derive(Clone)]
pub struct Iter<'a> {
    /// The chunks not walked to their end, the first of them partly.
    chunks: &'a [Chunk],
    /// The index in `chunks[0]` of the next pair.
    next: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let (chunk, rest) = self.chunks.split_first()?;
        let pair = chunk.pair(self.next);
        self.next += 1;
        if self.next == chunk.ends.len() {
            (self.chunks, self.next) = (rest, 0);
        }
        Some(pair)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.chunks.iter().map(|c| c.ends.len()).sum::<usize>() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Pairs {
    type Item = (&'a [u8], &'a [u8]);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl<'a> FromIterator<(&'a [u8], &'a [u8])> for Pairs {
    fn from_iter<I: IntoIterator<Item = (&'a [u8], &'a [u8])>>(pairs: I) -> Self {
        let mut out = Pairs::new();
        pairs.into_iter().for_each(|(k, v)| out.push(k, v));
        out
    }
}

/// Prints as the `Vec<KvPair>` of the same pairs does.
impl fmt::Debug for Pairs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Pairs {
    fn eq(&self, other: &Pairs) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Pairs {}

impl PartialEq<Vec<KvPair>> for Pairs {
    fn eq(&self, other: &Vec<KvPair>) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other)
                .all(|((k, v), (wk, wv))| k == wk.as_slice() && v == wv.as_slice())
    }
}

impl PartialEq<Pairs> for Vec<KvPair> {
    fn eq(&self, other: &Pairs) -> bool {
        other == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(pairs: &[(&[u8], &[u8])]) -> Vec<KvPair> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }

    /// Every way of reading `p` gives `want`, and `p` holds no chunk past
    /// the cap unless its one pair needs it.
    fn check(p: &Pairs, want: &[KvPair]) {
        assert_eq!(p.len(), want.len());
        assert_eq!(p.is_empty(), want.is_empty());
        assert_eq!(p.iter().len(), want.len());
        for (i, (k, v)) in want.iter().enumerate() {
            assert_eq!(p.get(i), Some((k.as_slice(), v.as_slice())), "pair {i}");
        }
        let walked: Vec<KvPair> = p.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(walked, want);
        assert_eq!(p.get(want.len()), None);
        let mut first = 0;
        for (c, chunk) in p.chunks.iter().enumerate() {
            assert_eq!(chunk.first, first, "chunk {c}");
            let pairs = chunk.ends.len();
            first += pairs;
            assert!(pairs >= 1, "chunk {c} holds no pair");
            assert!(
                chunk.bytes.capacity() <= CHUNK_BYTES || pairs == 1,
                "chunk {c} of {} bytes holds {pairs} pairs",
                chunk.bytes.capacity()
            );
        }
    }

    #[test]
    fn an_empty_answer_allocates_nothing() {
        let p = Pairs::new();
        check(&p, &[]);
        assert_eq!(p.chunks.capacity(), 0);
        assert_eq!(p, Vec::<KvPair>::new());
        assert_eq!(Vec::<KvPair>::new(), p);
        assert_eq!(format!("{p:?}"), "[]");
    }

    #[test]
    fn empty_keys_and_values() {
        let want = owned(&[(b"", b""), (b"a", b""), (b"", b"b"), (b"c", b"dd")]);
        let p: Pairs = want.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        check(&p, &want);
        assert_eq!(format!("{p:?}"), format!("{want:?}"));
    }

    #[test]
    fn a_pair_larger_than_a_chunk_gets_its_own() {
        let big = vec![7u8; CHUNK_BYTES];
        let want = owned(&[(b"a", b"1"), (b"b", &big), (b"c", b"3")]);
        let p: Pairs = want.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        check(&p, &want);
        assert_eq!(p.chunks.len(), 3);
        assert_eq!(p.chunks[1].bytes.len(), CHUNK_BYTES + 1);
    }

    #[test]
    fn a_pair_that_ends_a_chunk_exactly() {
        // Pairs of 4 KiB fill a chunk exactly; the next opens a new one.
        let value = vec![1u8; (4 << 10) - 2];
        let n = CHUNK_BYTES / (4 << 10) + 1;
        let want: Vec<KvPair> = (0..n)
            .map(|i| ((i as u16).to_be_bytes().to_vec(), value.clone()))
            .collect();
        let p: Pairs = want.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        check(&p, &want);
        assert_eq!(p.chunks.len(), 2);
        assert_eq!(p.chunks[0].bytes.len(), CHUNK_BYTES);
        assert_eq!(p.chunks[1].first, n - 1);
    }

    #[test]
    fn many_small_pairs_span_chunks() {
        let want: Vec<KvPair> = (0..20_000u32)
            .map(|i| (i.to_be_bytes().to_vec(), vec![i as u8; (i % 13) as usize]))
            .collect();
        let p: Pairs = want.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        check(&p, &want);
        assert!(p.chunks.len() > 1);
    }

    #[test]
    fn get_past_the_end_is_none() {
        let p: Pairs = [(&b"k"[..], &b"v"[..])].into_iter().collect();
        assert_eq!(p.get(0), Some((&b"k"[..], &b"v"[..])));
        assert_eq!(p.get(1), None);
        assert_eq!(p.get(usize::MAX), None);
        assert_eq!(Pairs::new().get(0), None);
    }

    #[test]
    fn equals_a_vec_of_the_same_pairs_both_ways() {
        let want = owned(&[(b"a", b"1"), (b"b", b"2")]);
        let p: Pairs = want.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        assert_eq!(p, want);
        assert_eq!(want, p);
        // A shorter, a longer and a different list are not equal.
        for other in [
            owned(&[(b"a", b"1")]),
            owned(&[(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]),
            owned(&[(b"a", b"1"), (b"b", b"3")]),
            owned(&[(b"a", b"1"), (b"c", b"2")]),
            // The same bytes split differently between key and value.
            owned(&[(b"a", b"1"), (b"b2", b"")]),
        ] {
            assert_ne!(p, other);
            assert_ne!(other, p);
            let q: Pairs = other.iter().map(|(k, v)| (&k[..], &v[..])).collect();
            assert_ne!(p, q);
        }
        assert_eq!(p, p.clone());
    }
}
