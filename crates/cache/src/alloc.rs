//! Device-space allocator for node images.
//!
//! Bump allocation with per-size free lists: trees allocate fixed-size node
//! slots, free them on merge/rebuild, and reuse freed slots before growing
//! the high-water mark. Placement is deliberately naive — node placement
//! *scatter* is one of the phenomena the affine model prices in (aged
//! B-trees pay full seeks between logically adjacent leaves).

use dam_kv::codec::{CodecError, Reader, Writer};
use std::collections::BTreeMap;

/// Space allocator over a device's byte range.
#[derive(Debug)]
pub struct Allocator {
    capacity: u64,
    reserved: u64,
    next: u64,
    free_lists: BTreeMap<u64, Vec<u64>>,
    live_bytes: u64,
}

impl Allocator {
    /// Allocator over `[reserved, capacity)`. The reserved prefix typically
    /// holds a superblock.
    pub fn new(capacity: u64, reserved: u64) -> Self {
        assert!(reserved <= capacity);
        Allocator {
            capacity,
            reserved,
            next: reserved,
            free_lists: BTreeMap::new(),
            live_bytes: 0,
        }
    }

    /// Allocate `len` bytes; returns the offset, or `None` when the device
    /// is full.
    pub fn alloc(&mut self, len: u64) -> Option<u64> {
        assert!(len > 0, "zero-length allocation");
        if let Some(list) = self.free_lists.get_mut(&len) {
            if let Some(off) = list.pop() {
                if list.is_empty() {
                    self.free_lists.remove(&len);
                }
                self.live_bytes += len;
                return Some(off);
            }
        }
        if self.next.checked_add(len)? <= self.capacity {
            let off = self.next;
            self.next += len;
            self.live_bytes += len;
            Some(off)
        } else {
            None
        }
    }

    /// Return a previously allocated extent to the per-size free list.
    pub fn free(&mut self, offset: u64, len: u64) {
        assert!(len > 0);
        assert!(offset + len <= self.next, "freeing unallocated space");
        self.free_lists.entry(len).or_default().push(offset);
        self.live_bytes = self.live_bytes.saturating_sub(len);
    }

    /// How many more `len`-byte extents [`Allocator::alloc`] can return.
    pub fn available(&self, len: u64) -> u64 {
        assert!(len > 0, "zero-length extent");
        let freed = self.free_lists.get(&len).map_or(0, Vec::len) as u64;
        freed + self.capacity.saturating_sub(self.next) / len
    }

    /// Bytes currently allocated and not freed.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// High-water mark: one past the last byte ever allocated.
    pub fn high_water(&self) -> u64 {
        self.next
    }

    /// Total bytes sitting on free lists.
    pub fn free_list_bytes(&self) -> u64 {
        self.free_lists
            .iter()
            .map(|(len, v)| len * v.len() as u64)
            .sum()
    }

    /// Bytes at the start of the device that are never allocated.
    pub(crate) fn reserved(&self) -> u64 {
        self.reserved
    }

    /// Encode the state a superblock persists: the high-water mark, then
    /// every free list as its extent length and offsets.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_u64(self.next);
        w.put_u32(self.free_lists.len() as u32);
        for (&len, offs) in &self.free_lists {
            w.put_u64(len);
            w.put_u32(offs.len() as u32);
            for &o in offs {
                w.put_u64(o);
            }
        }
    }

    /// Replace the state with one written by [`Allocator::encode`], and
    /// recompute `live_bytes` as high-water minus reserved minus freed.
    ///
    /// The bytes come off a device, so nothing in them is trusted: a
    /// high-water mark outside `[reserved, capacity]`, an empty extent, or
    /// an extent outside `[reserved, high_water)` is an error, and the
    /// state is left unchanged.
    pub(crate) fn decode(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let high_water = r.get_u64()?;
        if high_water < self.reserved || high_water > self.capacity {
            return Err(CodecError::Invalid("allocator high-water mark"));
        }
        let mut free_lists: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for _ in 0..r.get_u32()? {
            let len = r.get_u64()?;
            let n = r.get_u32()?;
            for _ in 0..n {
                let off = r.get_u64()?;
                let inside = off >= self.reserved
                    && off.checked_add(len).is_some_and(|end| end <= high_water);
                if len == 0 || !inside {
                    return Err(CodecError::Invalid("allocator free extent"));
                }
                free_lists.entry(len).or_default().push(off);
            }
        }
        self.next = high_water;
        self.free_lists = free_lists;
        self.live_bytes = (high_water - self.reserved).saturating_sub(self.free_list_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocates_disjoint_extents() {
        let mut a = Allocator::new(1000, 100);
        let x = a.alloc(50).unwrap();
        let y = a.alloc(50).unwrap();
        assert_eq!(x, 100);
        assert_eq!(y, 150);
        assert_eq!(a.live_bytes(), 100);
    }

    #[test]
    fn freed_extents_are_reused() {
        let mut a = Allocator::new(1000, 0);
        let x = a.alloc(64).unwrap();
        let _y = a.alloc(64).unwrap();
        a.free(x, 64);
        assert_eq!(a.free_list_bytes(), 64);
        let z = a.alloc(64).unwrap();
        assert_eq!(z, x, "same-size allocation should reuse the freed slot");
        assert_eq!(a.free_list_bytes(), 0);
    }

    #[test]
    fn different_sizes_use_different_lists() {
        let mut a = Allocator::new(1000, 0);
        let x = a.alloc(64).unwrap();
        a.free(x, 64);
        let y = a.alloc(32).unwrap();
        assert_ne!(y, x, "different size must not grab the 64-byte slot");
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = Allocator::new(100, 0);
        assert!(a.alloc(60).is_some());
        assert!(a.alloc(60).is_none());
        assert!(a.alloc(40).is_some());
        assert!(a.alloc(1).is_none());
    }

    #[test]
    #[should_panic(expected = "freeing unallocated space")]
    fn freeing_above_high_water_panics() {
        let mut a = Allocator::new(1000, 0);
        a.free(500, 10);
    }

    fn encoded(hw: u64, lists: &[(u64, &[u64])]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(hw);
        w.put_u32(lists.len() as u32);
        for &(len, offs) in lists {
            w.put_u64(len);
            w.put_u32(offs.len() as u32);
            for &o in offs {
                w.put_u64(o);
            }
        }
        w.into_bytes()
    }

    #[test]
    fn state_roundtrips_byte_for_byte() {
        let mut a = Allocator::new(1 << 20, 128);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(200).unwrap();
        let _z = a.alloc(100).unwrap();
        a.free(x, 100);
        a.free(y, 200);
        let mut w = Writer::new();
        a.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, encoded(528, &[(100, &[128]), (200, &[228])]));
        let mut b = Allocator::new(1 << 20, 128);
        b.decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(b.high_water(), 528);
        assert_eq!(b.live_bytes(), a.live_bytes());
        let mut w = Writer::new();
        b.encode(&mut w);
        assert_eq!(w.into_bytes(), bytes);
        assert_eq!(b.alloc(200), Some(228), "restored free lists are reused");
    }

    #[test]
    fn decode_rejects_state_that_does_not_fit() {
        let bad: [(&str, Vec<u8>); 6] = [
            ("high water below reserved", encoded(64, &[])),
            ("high water past capacity", encoded(2_000, &[])),
            ("empty extent", encoded(500, &[(0, &[200])])),
            ("extent in the reserved prefix", encoded(500, &[(50, &[0])])),
            ("extent past high water", encoded(500, &[(50, &[480])])),
            ("extent end overflows", encoded(500, &[(u64::MAX, &[200])])),
        ];
        for (what, bytes) in bad {
            let mut a = Allocator::new(1_000, 128);
            let x = a.alloc(10).unwrap();
            assert!(a.decode(&mut Reader::new(&bytes)).is_err(), "{what}");
            assert_eq!(
                (a.high_water(), a.live_bytes()),
                (138, 10),
                "{what}: unchanged"
            );
            assert_eq!(x, 128);
        }
        let mut a = Allocator::new(1_000, 128);
        a.decode(&mut Reader::new(&encoded(500, &[(50, &[450])])))
            .unwrap();
        assert_eq!(a.live_bytes(), 322);
    }

    #[test]
    fn live_bytes_track_alloc_free() {
        let mut a = Allocator::new(1000, 0);
        let x = a.alloc(100).unwrap();
        assert_eq!(a.live_bytes(), 100);
        a.free(x, 100);
        assert_eq!(a.live_bytes(), 0);
        assert_eq!(a.high_water(), 100);
    }
}
