//! Sparse byte store backing every simulated device.
//!
//! Devices advertise multi-gigabyte LBA ranges but experiments only touch a
//! fraction; a page-granular hash map keeps memory proportional to the bytes
//! actually written. Unwritten regions read back as zeroes, like a fresh
//! drive, so writing zeros to them materializes nothing.
//!
//! A whole-object write can also hand the store a shared image
//! ([`SparseStore::write_image`]). The store keeps such an image as an
//! *extent*, the `Arc` itself, at any offset and of any length, instead of
//! copying it into pages; the one exception is below. A read inside one
//! extent is served from it ([`SparseStore::read_image`]): a read of
//! exactly that range returns the same `Arc`, and a read of part of it
//! copies just those bytes. Extents never overlap one another, and a byte
//! inside an extent is always served by the extent: page bytes under an
//! extent are dead and never read, and a page that lies wholly inside an
//! extent is dropped. Images are never mutated while the store holds them.
//! A slice write over part of an extent copies the extent's bytes outside
//! the write into pages and drops the extent; the bytes the write covers
//! are never copied. Slice writes ([`SparseStore::write`]) always go to
//! pages.
//!
//! The exception: an image that starts or ends inside a page and whose
//! last page's worth of bytes is all zero is copied into pages. Such images
//! are nodes padded to a slot that is no whole number of pages (the Thm-9
//! tree's), read back mostly a segment at a time. Pages keep none of their
//! zero padding, and an extent would keep all of it resident while saving
//! no copy on a segment read. Page-aligned images are kept whatever their
//! padding: whole-node reads of them return the stored `Arc`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const PAGE_SHIFT: u32 = 12;
/// Allocation granularity of the sparse store (4 KiB).
pub const STORE_PAGE_BYTES: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = STORE_PAGE_BYTES as u64 - 1;

/// Whether every byte of `bytes` is zero. An OR over all of them, with no
/// early exit: the loop vectorizes, where a short-circuiting scan goes a
/// byte at a time. Padding chunks are all zeros, so the scan runs to the
/// end anyway.
fn all_zero(bytes: &[u8]) -> bool {
    bytes.iter().fold(0u8, |acc, &b| acc | b) == 0
}

/// A sparse, zero-initialized byte array addressed by absolute offset.
#[derive(Debug, Default)]
pub struct SparseStore {
    pages: HashMap<u64, Box<[u8; STORE_PAGE_BYTES]>>,
    /// Shared images by start offset (see the module docs).
    extents: BTreeMap<u64, Arc<Vec<u8>>>,
}

impl SparseStore {
    /// New empty store.
    pub fn new() -> Self {
        SparseStore::default()
    }

    /// Number of 4 KiB pages currently materialized (extents not counted).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Resident memory in bytes (data only): pages plus extents.
    pub fn resident_bytes(&self) -> usize {
        self.pages.len() * STORE_PAGE_BYTES + self.extents.values().map(|i| i.len()).sum::<usize>()
    }

    /// Copy `buf.len()` bytes starting at `offset` into `buf`. Unwritten
    /// regions yield zeroes.
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        let end = offset + buf.len() as u64;
        let mut pos = offset;
        for (&start, image) in self.extents_overlapping(offset, end) {
            if start > pos {
                self.read_pages(
                    pos,
                    &mut buf[(pos - offset) as usize..(start - offset) as usize],
                );
                pos = start;
            }
            let upto = (start + image.len() as u64).min(end);
            buf[(pos - offset) as usize..(upto - offset) as usize]
                .copy_from_slice(&image[(pos - start) as usize..(upto - start) as usize]);
            pos = upto;
        }
        if pos < end {
            self.read_pages(pos, &mut buf[(pos - offset) as usize..]);
        }
    }

    /// The `len` bytes at `offset` as a shared image: the stored `Arc` when
    /// an extent is exactly that range, a copy of the extent's bytes when
    /// one extent holds the whole range, and otherwise a buffer assembled
    /// from extents and pages.
    pub fn read_image(&self, offset: u64, len: usize) -> Arc<Vec<u8>> {
        if let Some((&start, image)) = self.extents.range(..=offset).next_back() {
            let at = (offset - start) as usize;
            if at == 0 && image.len() == len {
                return image.clone();
            }
            if let Some(bytes) = image.get(at..at.saturating_add(len)) {
                return Arc::new(bytes.to_vec());
            }
        }
        let mut buf = vec![0u8; len];
        self.read(offset, &mut buf);
        Arc::new(buf)
    }

    /// Write `data` starting at `offset`, materializing pages as needed.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        self.evict_extents(offset, offset + data.len() as u64);
        self.write_pages(offset, data);
    }

    /// Write `image` at `offset`, keeping the image itself as an extent
    /// unless it is a padded unaligned image (see the module docs).
    pub fn write_image(&mut self, offset: u64, image: &Arc<Vec<u8>>) {
        let len = image.len() as u64;
        let padded_unaligned = || {
            (offset | len) & PAGE_MASK != 0
                && image.len() >= STORE_PAGE_BYTES
                && all_zero(&image[image.len() - STORE_PAGE_BYTES..])
        };
        if len == 0 || padded_unaligned() {
            return self.write(offset, image);
        }
        if let Some(old) = self.extents.get_mut(&offset) {
            if old.len() == image.len() {
                *old = image.clone();
                return;
            }
        }
        let end = offset + len;
        self.evict_extents(offset, end);
        if !self.pages.is_empty() {
            // Pages wholly inside the image; the bytes of a page it only
            // partly covers are dead under the extent.
            for page_no in offset.div_ceil(STORE_PAGE_BYTES as u64)..end >> PAGE_SHIFT {
                self.pages.remove(&page_no);
            }
        }
        self.extents.insert(offset, image.clone());
    }

    /// Drop all contents.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.extents.clear();
    }

    /// Extents that share a byte with `[offset, end)`, in offset order.
    fn extents_overlapping(
        &self,
        offset: u64,
        end: u64,
    ) -> impl Iterator<Item = (&u64, &Arc<Vec<u8>>)> {
        // Extents are disjoint, so at most one starts before `offset` and
        // reaches into the range.
        let straddling = self
            .extents
            .range(..offset)
            .next_back()
            .filter(|(&start, image)| start + image.len() as u64 > offset);
        straddling
            .into_iter()
            .chain(self.extents.range(offset..end))
    }

    /// Drop every extent that shares a byte with `[offset, end)`, first
    /// copying its bytes outside that range into pages. The bytes inside
    /// are about to be overwritten, so they are not copied.
    fn evict_extents(&mut self, offset: u64, end: u64) {
        let starts: Vec<u64> = self
            .extents_overlapping(offset, end)
            .map(|(&start, _)| start)
            .collect();
        for start in starts {
            let image = self.extents.remove(&start).expect("listed above");
            if start < offset {
                self.write_pages(start, &image[..(offset - start) as usize]);
            }
            let image_end = start + image.len() as u64;
            if image_end > end {
                self.write_pages(end, &image[(end - start) as usize..]);
            }
        }
    }

    /// [`SparseStore::read`] over a range that no extent touches.
    fn read_pages(&self, offset: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let page_no = pos >> PAGE_SHIFT;
            let in_page = (pos & PAGE_MASK) as usize;
            let chunk = (STORE_PAGE_BYTES - in_page).min(buf.len() - done);
            match self.pages.get(&page_no) {
                Some(page) => {
                    buf[done..done + chunk].copy_from_slice(&page[in_page..in_page + chunk])
                }
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
        }
    }

    /// [`SparseStore::write`] over a range that no extent touches.
    fn write_pages(&mut self, offset: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let page_no = pos >> PAGE_SHIFT;
            let in_page = (pos & PAGE_MASK) as usize;
            let chunk = (STORE_PAGE_BYTES - in_page).min(data.len() - done);
            let src = &data[done..done + chunk];
            match self.pages.get_mut(&page_no) {
                Some(page) => page[in_page..in_page + chunk].copy_from_slice(src),
                // Zeros into an unwritten page change nothing a read can see
                // (node padding, unused segments): keep it unmaterialized.
                None if all_zero(src) => {}
                None => {
                    let mut page = Box::new([0u8; STORE_PAGE_BYTES]);
                    page[in_page..in_page + chunk].copy_from_slice(src);
                    self.pages.insert(page_no, page);
                }
            }
            done += chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_back_zero() {
        let s = SparseStore::new();
        let mut buf = [0xAAu8; 64];
        s.read(123_456, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn zeros_leave_unwritten_pages_unmaterialized() {
        let mut s = SparseStore::new();
        s.write(0, &[0u8; 3 * STORE_PAGE_BYTES]);
        assert_eq!(s.resident_pages(), 0);
        // Zeros over written bytes still overwrite them.
        s.write(10, b"abc");
        s.write(11, &[0u8; 1]);
        let mut buf = [0xFFu8; 4];
        s.read(9, &mut buf);
        assert_eq!(buf, [0, b'a', 0, b'c']);
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn a_single_nonzero_byte_materializes_its_page() {
        for at in [0, STORE_PAGE_BYTES - 1] {
            let mut chunk = vec![0u8; STORE_PAGE_BYTES];
            chunk[at] = 0x5A;
            let mut s = SparseStore::new();
            s.write(3 * STORE_PAGE_BYTES as u64, &chunk);
            assert_eq!(s.resident_pages(), 1, "non-zero byte at {at}");
            let mut buf = vec![0xFFu8; STORE_PAGE_BYTES];
            s.read(3 * STORE_PAGE_BYTES as u64, &mut buf);
            assert_eq!(buf, chunk, "non-zero byte at {at}");
        }
    }

    #[test]
    fn write_read_roundtrip_within_page() {
        let mut s = SparseStore::new();
        s.write(100, b"hello world");
        let mut buf = [0u8; 11];
        s.read(100, &mut buf);
        assert_eq!(&buf, b"hello world");
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn write_read_roundtrip_across_pages() {
        let mut s = SparseStore::new();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let offset = (STORE_PAGE_BYTES as u64) - 17; // straddle a boundary
        s.write(offset, &data);
        let mut buf = vec![0u8; data.len()];
        s.read(offset, &mut buf);
        assert_eq!(buf, data);
        assert_eq!(s.resident_pages(), 4); // 10000/4096 spans 4 pages here
    }

    #[test]
    fn overwrite_is_visible() {
        let mut s = SparseStore::new();
        s.write(0, &[1; 100]);
        s.write(50, &[2; 100]);
        let mut buf = [0u8; 150];
        s.read(0, &mut buf);
        assert!(buf[..50].iter().all(|&b| b == 1));
        assert!(buf[50..].iter().all(|&b| b == 2));
    }

    #[test]
    fn partial_page_reads_mix_written_and_zero() {
        let mut s = SparseStore::new();
        s.write(10, &[7; 5]);
        let mut buf = [0xFFu8; 20];
        s.read(5, &mut buf);
        assert_eq!(&buf[..5], &[0; 5]);
        assert_eq!(&buf[5..10], &[7; 5]);
        assert_eq!(&buf[10..], &[0; 10]);
    }

    #[test]
    fn clear_releases_everything() {
        let mut s = SparseStore::new();
        s.write(0, &[1; 8192]);
        assert!(s.resident_bytes() >= 8192);
        s.clear();
        assert_eq!(s.resident_pages(), 0);
        let mut buf = [9u8; 16];
        s.read(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }
}
