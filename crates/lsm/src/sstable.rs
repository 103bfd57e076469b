//! SSTables: immutable sorted runs of `(key, value-or-tombstone)` entries,
//! stored as a sequence of fixed-target-size blocks with an in-memory
//! block index (first key + extent per block).
//!
//! The data region is one contiguous device extent: it is written with a
//! single IO and point reads fetch single blocks through
//! [`dam_cache::Pager::read_within`].

use dam_cache::{Page, Pager};
use dam_kv::codec::{
    frame_payload, seal_frame, unframe, CodecError, Entry, Reader, Record, Run, Writer,
    FRAME_OVERHEAD,
};
use dam_kv::KvError;
use std::ops::{Deref, Range};

/// One entry in a run: `None` is a tombstone.
pub type RunEntry = (Vec<u8>, Option<Vec<u8>>);

/// Index record for one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// First key in the block.
    pub first_key: Vec<u8>,
    /// Offset of the block within the table's data region.
    pub offset: u32,
    /// Encoded length of the block.
    pub len: u32,
}

/// An immutable on-device sorted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsTable {
    /// Device offset of the data region.
    pub base: u64,
    /// Total data-region bytes (the allocation size).
    pub data_len: u64,
    /// Block index, ascending by `first_key`.
    pub blocks: Vec<BlockMeta>,
    /// Smallest key in the table.
    pub min_key: Vec<u8>,
    /// Largest key in the table.
    pub max_key: Vec<u8>,
    /// Number of entries (including tombstones).
    pub entries: u64,
    /// Creation stamp; larger = newer (orders overlapping L0 runs).
    pub stamp: u64,
}

/// Bytes a block spends beyond its entries: the frame header and the `u32`
/// entry count.
const BLOCK_OVERHEAD: usize = FRAME_OVERHEAD + 4;

/// Writes one SSTable's data image from ascending entries, each encoded
/// once, straight into the image. A block's frame header and entry count
/// are reserved when the block opens and patched, with one checksum pass,
/// when it closes. This is the block format's only encoder; [`parse_block`]
/// is its only parser.
///
/// A block closes before the entry that would take its payload past
/// `block_bytes`, so each holds at least one entry.
pub(crate) struct TableWriter {
    block_bytes: usize,
    image: Writer,
    blocks: Vec<BlockMeta>,
    /// Entries in the open block; 0 when no block is open.
    block_entries: usize,
    /// Payload bytes of the open block, its count included.
    block_used: usize,
    /// [`SsTable::entry_bytes`] summed over the table.
    bytes: usize,
    entries: u64,
    /// Where the last key written sits in `image`.
    last_key: Range<usize>,
}

impl TableWriter {
    /// A writer for a table of about `bytes` entry bytes (see
    /// [`SsTable::entry_bytes`]): the image is reserved for that much up
    /// front, so it grows only past it.
    pub(crate) fn new(block_bytes: usize, bytes: usize) -> Self {
        // A closed block and the next hold more than `block_bytes - 4`
        // entry bytes between them, which bounds the block count.
        let blocks = 2 * bytes / block_bytes.saturating_sub(4).max(1) + 2;
        TableWriter {
            block_bytes,
            image: Writer::with_capacity(bytes + blocks * BLOCK_OVERHEAD),
            blocks: Vec::new(),
            block_entries: 0,
            block_used: 0,
            bytes: 0,
            entries: 0,
            last_key: 0..0,
        }
    }

    /// True before the first entry.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// [`SsTable::entry_bytes`] summed over the entries written so far.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Append one entry; `key` must sort after every key written so far.
    pub(crate) fn push(&mut self, key: &[u8], value: Option<&[u8]>) {
        debug_assert!(
            self.is_empty() || &self.image[self.last_key.clone()] < key,
            "entries not ascending"
        );
        let sz = SsTable::entry_bytes(key, value);
        if self.block_entries > 0 && self.block_used + sz > self.block_bytes {
            self.close_block();
        }
        if self.block_entries == 0 {
            self.blocks.push(BlockMeta {
                first_key: key.to_vec(),
                offset: u32::try_from(self.image.len()).expect("table image longer than u32::MAX"),
                len: 0,
            });
            self.image.put_raw(&[0u8; BLOCK_OVERHEAD]);
            self.block_used = 4;
        }
        let key_at = self.image.len() + 4;
        self.image.put_entry(key, value);
        self.last_key = key_at..key_at + key.len();
        self.block_used += sz;
        self.block_entries += 1;
        self.bytes += sz;
        self.entries += 1;
    }

    /// Patch the open block's count and frame.
    fn close_block(&mut self) {
        let meta = self.blocks.last_mut().expect("a block is open");
        let framed = &mut self.image[meta.offset as usize..];
        let count = u32::try_from(self.block_entries).expect("block of more than u32::MAX entries");
        framed[FRAME_OVERHEAD..BLOCK_OVERHEAD].copy_from_slice(&count.to_le_bytes());
        seal_frame(framed);
        meta.len = u32::try_from(framed.len()).expect("block longer than u32::MAX");
        self.block_entries = 0;
    }

    /// Close the last block, allocate one extent, and write the whole data
    /// region in a single IO.
    pub(crate) fn finish(mut self, pager: &mut Pager, stamp: u64) -> Result<SsTable, KvError> {
        assert!(!self.is_empty(), "empty SSTable");
        self.close_block();
        let min_key = self.blocks[0].first_key.clone();
        let max_key = self.image[self.last_key.clone()].to_vec();
        let mut image = self.image.into_bytes();
        // The cached image keeps no unused reservation.
        image.shrink_to_fit();
        let data_len = image.len() as u64;
        let base = pager.alloc(data_len)?;
        // One sequential *durable* write for the whole table — the LSM's
        // write pattern (LevelDB fsyncs each SSTable), and the reason large
        // SSTables amortize the setup cost.
        if let Err(e) = pager.write_through(base, image) {
            // Don't leak the extent on a failed write; the caller may
            // retry the whole build once the fault clears.
            pager.free(base, data_len);
            return Err(e.into());
        }
        Ok(SsTable {
            base,
            data_len,
            blocks: self.blocks,
            min_key,
            max_key,
            entries: self.entries,
            stamp,
        })
    }
}

/// K-way merge of sorted runs, given newest first, into `emit` in ascending
/// key order. On equal keys the earlier (newer) run wins; tombstones are
/// dropped when `drop_tombstones`. A run whose keys do not strictly ascend
/// is [`KvError::Corrupt`]: the merge relies on the order it is given.
///
/// A linear scan of the run heads picks each next key: compaction merges at
/// most a few L0 runs and one run from the level below.
fn merge_views<'a>(
    runs: &[Vec<Run<'a, Entry<'a>>>],
    drop_tombstones: bool,
    mut emit: impl FnMut(&'a [u8], Option<&'a [u8]>) -> Result<(), KvError>,
) -> Result<(), KvError> {
    let mut iters: Vec<_> = runs
        .iter()
        .map(|run| run.iter().flat_map(|block| block.iter()))
        .collect();
    let mut heads: Vec<Option<Entry<'a>>> = iters.iter_mut().map(Iterator::next).collect();
    loop {
        let mut min: Option<(usize, Entry<'a>)> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some(e) = *head {
                if min.is_none_or(|(_, m)| e.0 < m.0) {
                    min = Some((i, e));
                }
            }
        }
        let Some((winner, (key, value))) = min else {
            return Ok(());
        };
        // Runs before the winner hold only larger keys; the winner and every
        // later run holding `key` move past it.
        for (head, iter) in heads.iter_mut().zip(&mut iters).skip(winner) {
            if head.is_some_and(|(k, _)| k == key) {
                *head = iter.next();
                if head.is_some_and(|(k, _)| k <= key) {
                    return Err(KvError::Corrupt(
                        "sstable run keys do not strictly ascend".into(),
                    ));
                }
            }
        }
        if !(drop_tombstones && value.is_none()) {
            emit(key, value)?;
        }
    }
}

/// Merge the framed blocks of `runs` (see [`merge_views`]; each block is
/// structure-checked first, its frame checksum not again) into new tables
/// of `block_bytes` blocks, starting the next table when an entry would take
/// the current one past `sstable_bytes` entry bytes. Tables are stamped from
/// `next_stamp`, allocated and written one at a time, in key order. On
/// error, the tables already written are destroyed, so a failed compaction
/// leaks no extents.
pub(crate) fn write_merged<B: Deref<Target = [u8]>>(
    pager: &mut Pager,
    runs: &[Vec<B>],
    drop_tombstones: bool,
    block_bytes: usize,
    sstable_bytes: usize,
    next_stamp: &mut u64,
) -> Result<Vec<SsTable>, KvError> {
    let views = runs
        .iter()
        .map(|run| run.iter().map(|b| parse_block(b)).collect())
        .collect::<Result<Vec<Vec<_>>, _>>()?;
    let mut stamp = || {
        let s = *next_stamp;
        *next_stamp += 1;
        s
    };
    let mut out: Vec<SsTable> = Vec::new();
    let mut table: Option<TableWriter> = None;
    let merged = merge_views(&views, drop_tombstones, |k, v| {
        let sz = SsTable::entry_bytes(k, v);
        if table
            .as_ref()
            .is_some_and(|t| t.bytes() + sz > sstable_bytes)
        {
            let full = table.take().expect("checked above");
            out.push(full.finish(pager, stamp())?);
        }
        table
            .get_or_insert_with(|| TableWriter::new(block_bytes, sstable_bytes))
            .push(k, v);
        Ok(())
    })
    .and_then(|()| table.map(|t| t.finish(pager, stamp())).transpose());
    match merged {
        Ok(last) => {
            out.extend(last);
            Ok(out)
        }
        Err(e) => {
            for t in &out {
                t.destroy(pager);
            }
            Err(e)
        }
    }
}

/// A framed block read in place: its `u32`-counted run of entries. Checks
/// the frame header and the payload structure but not the frame checksum,
/// which [`SsTable::block_page`] checks once per arrival from the device.
/// This is the block format's only parser; point reads and scans search
/// the run inside the block image and copy out only what they return.
pub(crate) fn parse_block(image: &[u8]) -> Result<Run<'_, Entry<'_>>, CodecError> {
    Run::read(&mut Reader::new(frame_payload(image)?))
}

impl SsTable {
    /// Entry footprint inside a block.
    pub fn entry_bytes(k: &[u8], v: Option<&[u8]>) -> usize {
        4 + k.len() + 1 + v.map_or(0, |v| 4 + v.len())
    }

    /// Free the table's extent (after compaction).
    pub fn destroy(&self, pager: &mut Pager) {
        pager.free(self.base, self.data_len);
    }

    /// Whether `key` can be in this table's range.
    pub fn covers(&self, key: &[u8]) -> bool {
        self.min_key.as_slice() <= key && key <= self.max_key.as_slice()
    }

    /// Whether this table overlaps the key range `[lo, hi]` of another.
    pub fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        !(self.max_key.as_slice() < lo || hi < self.min_key.as_slice())
    }

    /// Whether this table overlaps `[lo, hi)` where `hi = None` means
    /// unbounded above. Used by scans that must see *every* key, including
    /// keys that sort above any finite sentinel.
    pub fn overlaps_open(&self, lo: &[u8], hi: Option<&[u8]>) -> bool {
        if self.max_key.as_slice() < lo {
            return false;
        }
        match hi {
            Some(h) => self.min_key.as_slice() < h,
            None => true,
        }
    }

    fn block_index_for(&self, key: &[u8]) -> usize {
        // Last block whose first_key <= key.
        self.blocks
            .partition_point(|b| b.first_key.as_slice() <= key)
            .saturating_sub(1)
    }

    /// Block `i`'s image (one sub-range IO / cache hit), its frame checksum
    /// checked once: when the bytes come off the device, not on every hit.
    pub(crate) fn block_page(&self, pager: &mut Pager, i: usize) -> Result<Page, KvError> {
        let b = &self.blocks[i];
        let page = pager.read_within(
            self.base,
            self.data_len as usize,
            b.offset as usize,
            b.len as usize,
        )?;
        pager.check_once(&page, |img| unframe(img).map(drop))?;
        Ok(page)
    }

    /// Point lookup. `Ok(None)` = key absent from this table;
    /// `Ok(Some(None))` = tombstone.
    #[allow(clippy::type_complexity)]
    pub fn get(&self, pager: &mut Pager, key: &[u8]) -> Result<Option<Option<Vec<u8>>>, KvError> {
        if !self.covers(key) {
            return Ok(None);
        }
        let page = self.block_page(pager, self.block_index_for(key))?;
        let block = parse_block(&page)?;
        Ok(block.get(key).map(|v| v.map(<[u8]>::to_vec)))
    }

    /// All entries with `start <= key < end`, reading only overlapping
    /// blocks.
    pub fn scan(
        &self,
        pager: &mut Pager,
        start: &[u8],
        end: &[u8],
    ) -> Result<Vec<RunEntry>, KvError> {
        if end <= start {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        for page in self.scan_pages(pager, start, Some(end))? {
            let block = parse_block(&page)?;
            out.extend(
                block
                    .iter()
                    .filter(|(k, _)| *k >= start && *k < end)
                    .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec))),
            );
        }
        Ok(out)
    }

    /// The blocks that can hold keys in `[start, end)` (`end = None`:
    /// unbounded above), in key order: one sub-range IO or cache hit each,
    /// frames checked once. Their entries still include keys outside the
    /// range.
    pub(crate) fn scan_pages(
        &self,
        pager: &mut Pager,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Result<Vec<Page>, KvError> {
        let mut pages = Vec::new();
        if self.blocks.is_empty() {
            return Ok(pages);
        }
        let first = self.block_index_for(start);
        for i in first..self.blocks.len() {
            // Blocks are key-ordered: once one starts at or past `end`, so
            // do all later ones.
            if i > first && end.is_some_and(|e| self.blocks[i].first_key.as_slice() >= e) {
                break;
            }
            pages.push(self.block_page(pager, i)?);
        }
        Ok(pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_kv::codec::frame;
    use dam_storage::{RamDisk, SharedDevice, SimDuration, SimTime};
    use std::collections::BTreeMap;

    /// The block encoding written the direct way: the reference
    /// [`TableWriter`] must match byte for byte.
    fn encode_block(entries: &[RunEntry]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(u32::try_from(entries.len()).unwrap());
        for (k, v) in entries {
            w.put_entry(k, v.as_deref());
        }
        w.into_bytes()
    }

    fn footprint(entries: &[RunEntry]) -> usize {
        entries
            .iter()
            .map(|(k, v)| SsTable::entry_bytes(k, v.as_deref()))
            .sum()
    }

    /// One table of `entries` through the writer.
    fn build(pager: &mut Pager, block_bytes: usize, entries: &[RunEntry], stamp: u64) -> SsTable {
        let mut w = TableWriter::new(block_bytes, footprint(entries));
        for (k, v) in entries {
            w.push(k, v.as_deref());
        }
        w.finish(pager, stamp).unwrap()
    }

    /// Block `i` decoded into owned entries.
    fn read_block(t: &SsTable, pager: &mut Pager, i: usize) -> Result<Vec<RunEntry>, KvError> {
        let page = t.block_page(pager, i)?;
        Ok(parse_block(&page)?.to_vec())
    }

    fn scan_all(t: &SsTable, pager: &mut Pager) -> Vec<RunEntry> {
        (0..t.blocks.len())
            .flat_map(|i| read_block(t, pager, i).unwrap())
            .collect()
    }

    fn pager() -> Pager {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 26, SimDuration(1000))));
        Pager::new(dev, 1 << 20, 0)
    }

    fn entries(n: u64) -> Vec<RunEntry> {
        (0..n)
            .map(|i| {
                let v = if i % 7 == 3 {
                    None
                } else {
                    Some(vec![(i % 251) as u8; 20])
                };
                (dam_kv::key_from_u64(i).to_vec(), v)
            })
            .collect()
    }

    #[test]
    fn build_get_roundtrip() {
        let mut p = pager();
        let t = build(&mut p, 512, &entries(500), 1);
        assert_eq!(t.entries, 500);
        assert!(
            t.blocks.len() > 10,
            "should span many blocks: {}",
            t.blocks.len()
        );
        for i in [0u64, 3, 250, 499] {
            let got = t.get(&mut p, &dam_kv::key_from_u64(i)).unwrap();
            if i % 7 == 3 {
                assert_eq!(got, Some(None), "key {i} should be a tombstone");
            } else {
                assert_eq!(got, Some(Some(vec![(i % 251) as u8; 20])), "key {i}");
            }
        }
        assert_eq!(t.get(&mut p, &dam_kv::key_from_u64(500)).unwrap(), None);
    }

    #[test]
    fn point_read_touches_one_block() {
        let mut p = pager();
        let t = build(&mut p, 512, &entries(1000), 1);
        p.drop_cache().unwrap();
        let snap = p.snapshot();
        t.get(&mut p, &dam_kv::key_from_u64(777)).unwrap();
        let d = p.cost_since(&snap);
        assert_eq!(d.ios, 1);
        assert!(d.bytes_read <= 600, "read {} bytes", d.bytes_read);
    }

    #[test]
    fn build_writes_one_sequential_io() {
        let mut p = pager();
        let snap = p.snapshot();
        let t = build(&mut p, 512, &entries(1000), 1);
        p.flush().unwrap();
        let d = p.cost_since(&snap);
        assert_eq!(d.ios, 1, "whole table should be one device write");
        assert_eq!(d.bytes_written, t.data_len);
    }

    #[test]
    fn scan_respects_bounds() {
        let mut p = pager();
        let t = build(&mut p, 256, &entries(300), 1);
        let out = t
            .scan(&mut p, &dam_kv::key_from_u64(50), &dam_kv::key_from_u64(60))
            .unwrap();
        let keys: Vec<u64> = out
            .iter()
            .map(|(k, _)| dam_kv::key_to_u64(k).unwrap())
            .collect();
        assert_eq!(keys, (50..60).collect::<Vec<_>>());
    }

    #[test]
    fn scan_all_returns_everything_in_order() {
        let mut p = pager();
        let es = entries(400);
        let t = build(&mut p, 256, &es, 1);
        assert_eq!(scan_all(&t, &mut p), es);
    }

    #[test]
    fn covers_and_overlaps() {
        let mut p = pager();
        let es: Vec<RunEntry> = (100..200u64)
            .map(|i| (dam_kv::key_from_u64(i).to_vec(), Some(vec![1])))
            .collect();
        let t = build(&mut p, 256, &es, 1);
        assert!(t.covers(&dam_kv::key_from_u64(150)));
        assert!(!t.covers(&dam_kv::key_from_u64(99)));
        assert!(!t.covers(&dam_kv::key_from_u64(200)));
        assert!(t.overlaps(&dam_kv::key_from_u64(190), &dam_kv::key_from_u64(300)));
        assert!(!t.overlaps(&dam_kv::key_from_u64(200), &dam_kv::key_from_u64(300)));
    }

    #[test]
    fn destroy_releases_space() {
        let mut p = pager();
        let t = build(&mut p, 512, &entries(100), 1);
        let live = p.live_bytes();
        t.destroy(&mut p);
        assert!(p.live_bytes() < live);
    }

    #[test]
    fn corrupted_block_surfaces_as_corrupt() {
        let mut p = pager();
        let t = build(&mut p, 512, &entries(200), 1);
        p.drop_cache().unwrap();
        // Flip one payload byte of block 1 behind the pager's back.
        let off = t.base + t.blocks[1].offset as u64 + 12;
        let dev = p.device().clone();
        let mut byte = [0u8; 1];
        dev.read(off, &mut byte, SimTime::ZERO).unwrap();
        dev.write(off, &[byte[0] ^ 0xFF], SimTime::ZERO).unwrap();
        assert!(matches!(
            read_block(&t, &mut p, 1),
            Err(KvError::Corrupt(_))
        ));
        // Untouched blocks still read fine.
        assert!(read_block(&t, &mut p, 0).is_ok());
    }

    /// A table as the reference builds it: `entries` packed into blocks of
    /// about `block_bytes`, each encoded then framed, and the frames
    /// concatenated.
    struct RefTable {
        image: Vec<u8>,
        blocks: Vec<BlockMeta>,
        entries: Vec<RunEntry>,
    }

    fn reference_table(entries: Vec<RunEntry>, block_bytes: usize) -> RefTable {
        let mut image = Vec::new();
        let mut blocks = Vec::new();
        let mut close = |cur: &mut Vec<RunEntry>| {
            if let Some((first_key, _)) = cur.first() {
                let framed = frame(&encode_block(cur));
                blocks.push(BlockMeta {
                    first_key: first_key.clone(),
                    offset: u32::try_from(image.len()).unwrap(),
                    len: u32::try_from(framed.len()).unwrap(),
                });
                image.extend_from_slice(&framed);
                cur.clear();
            }
        };
        let mut cur = Vec::new();
        let mut cur_bytes = 4;
        for (k, v) in &entries {
            let sz = SsTable::entry_bytes(k, v.as_deref());
            if !cur.is_empty() && cur_bytes + sz > block_bytes {
                close(&mut cur);
                cur_bytes = 4;
            }
            cur_bytes += sz;
            cur.push((k.clone(), v.clone()));
        }
        close(&mut cur);
        RefTable {
            image,
            blocks,
            entries,
        }
    }

    /// The merge and split the writer replaces: every run through a
    /// `BTreeMap` (earlier runs win), then tables cut before the entry that
    /// would take one past `sstable_bytes`.
    fn reference_merge(
        runs: &[Vec<RunEntry>],
        drop_tombstones: bool,
        block_bytes: usize,
        sstable_bytes: usize,
    ) -> Vec<RefTable> {
        let mut map = BTreeMap::new();
        for run in runs.iter().rev() {
            map.extend(run.iter().cloned());
        }
        let mut tables = Vec::new();
        let mut cur: Vec<RunEntry> = Vec::new();
        let mut bytes = 0;
        for (k, v) in map {
            if drop_tombstones && v.is_none() {
                continue;
            }
            let sz = SsTable::entry_bytes(&k, v.as_deref());
            if !cur.is_empty() && bytes + sz > sstable_bytes {
                tables.push(reference_table(std::mem::take(&mut cur), block_bytes));
                bytes = 0;
            }
            bytes += sz;
            cur.push((k, v));
        }
        if !cur.is_empty() {
            tables.push(reference_table(cur, block_bytes));
        }
        tables
    }

    /// A run's entries as the framed block images a compaction reads.
    fn run_blocks(entries: Vec<RunEntry>, block_bytes: usize) -> Vec<Vec<u8>> {
        let t = reference_table(entries, block_bytes);
        t.blocks
            .iter()
            .map(|b| t.image[b.offset as usize..(b.offset + b.len) as usize].to_vec())
            .collect()
    }

    fn merge(
        p: &mut Pager,
        runs: &[Vec<Vec<u8>>],
        drop_tombstones: bool,
    ) -> Result<Vec<SsTable>, KvError> {
        write_merged(p, runs, drop_tombstones, 64, 96, &mut 1)
    }

    fn entry(k: &[u8]) -> (Vec<u8>, Option<Vec<u8>>) {
        (k.to_vec(), Some(vec![7; 20]))
    }

    #[test]
    fn merge_rejects_runs_out_of_order() {
        // Out of order inside one block, across two blocks, and a key
        // repeated; the first run is in order and fills tables before the
        // bad key is reached.
        let good: Vec<RunEntry> = (0..40u64)
            .map(|i| (dam_kv::key_from_u64(i).to_vec(), Some(vec![1; 20])))
            .collect();
        let high = |k: &[u8]| [&[0xFF][..], k].concat();
        let bad_runs = [
            vec![frame(&encode_block(&[
                entry(&high(b"b")),
                entry(&high(b"a")),
            ]))],
            vec![
                frame(&encode_block(&[entry(&high(b"a")), entry(&high(b"c"))])),
                frame(&encode_block(&[entry(&high(b"b"))])),
            ],
            vec![frame(&encode_block(&[
                entry(&high(b"a")),
                entry(&high(b"a")),
            ]))],
        ];
        for bad in bad_runs {
            let mut p = pager();
            let runs = vec![run_blocks(good.clone(), 256), bad];
            let got = merge(&mut p, &runs, false);
            assert!(matches!(got, Err(KvError::Corrupt(_))), "{got:?}");
            // The tables written before the bad key were destroyed.
            assert_eq!(p.live_bytes(), 0);
        }
    }

    #[test]
    fn merge_rejects_a_malformed_block() {
        let mut p = pager();
        let mut payload = encode_block(&[entry(b"a")]);
        payload.truncate(payload.len() - 1);
        let got = merge(&mut p, &[vec![frame(&payload)]], false);
        assert!(matches!(got, Err(KvError::Corrupt(_))), "{got:?}");
    }

    mod streamed {
        //! Property tests: tables streamed from borrowed blocks equal, byte
        //! for byte, the tables of an owned `BTreeMap` merge, block encoder
        //! and frame.

        use super::*;
        use dam_stats::prop::*;

        fn run() -> impl Gen<Value = Vec<RunEntry>> {
            btree_map(vec(0u8..6, 0..5), option(vec(any::<u8>(), 0..40)), 0..60)
                .prop_map(|m| m.into_iter().collect())
        }

        props! {
            cases = 128;

            #[test]
            fn streamed_tables_equal_the_reference(
                runs in vec(run(), 1..6),
                drop_tombstones in any::<bool>(),
                in_block in 16usize..300,
                block_bytes in 16usize..300,
                sstable_bytes in 16usize..1500,
            ) {
                let blocks: Vec<Vec<Vec<u8>>> =
                    runs.iter().map(|r| run_blocks(r.clone(), in_block)).collect();
                let mut p = pager();
                let mut next_stamp = 10;
                let got = write_merged(
                    &mut p, &blocks, drop_tombstones, block_bytes, sstable_bytes, &mut next_stamp,
                ).unwrap();
                let want = reference_merge(&runs, drop_tombstones, block_bytes, sstable_bytes);
                prop_assert_eq!(got.len(), want.len());
                prop_assert_eq!(next_stamp, 10 + want.len() as u64);
                for (i, (t, w)) in got.iter().zip(&want).enumerate() {
                    let mut image = vec![0u8; t.data_len as usize];
                    p.device().read(t.base, &mut image, SimTime::ZERO).unwrap();
                    prop_assert_eq!(&image, &w.image);
                    prop_assert_eq!(&t.blocks, &w.blocks);
                    prop_assert_eq!(&t.min_key, &w.entries[0].0);
                    prop_assert_eq!(&t.max_key, &w.entries.last().unwrap().0);
                    prop_assert_eq!(t.entries, w.entries.len() as u64);
                    prop_assert_eq!(t.stamp, 10 + i as u64);
                }
                // Tables are written in key order, one extent each.
                for pair in got.windows(2) {
                    prop_assert!(pair[0].max_key < pair[1].min_key);
                }
            }
        }
    }

    mod block_view {
        //! Property tests: a well-framed block around a malformed payload
        //! is a `CodecError`, never a panic or data, and whatever parses is
        //! what the block encoder writes. (`dam-kv`'s `prop_codec` checks
        //! the entry run's reads and searches.)

        use super::*;
        use dam_stats::prop::*;

        fn block() -> impl Gen<Value = Vec<RunEntry>> {
            btree_map(vec(0u8..4, 0..4), option(vec(any::<u8>(), 0..12)), 0..40)
                .prop_map(|m| m.into_iter().collect())
        }

        props! {
            cases = 256;

            #[test]
            fn malformed_payload_in_a_valid_frame_is_an_error(
                entries in block(),
                cut in any::<u64>(),
            ) {
                let p = encode_block(&entries);
                let truncated = frame(&p[..cut as usize % p.len()]);
                prop_assert!(parse_block(&truncated).is_err());
            }

            #[test]
            fn arbitrary_payload_never_panics(
                payload in vec(any::<u8>(), 0..64),
                count in 0u32..4,
            ) {
                let mut p = count.to_le_bytes().to_vec();
                p.extend(payload);
                if let Ok(view) = parse_block(&frame(&p)) {
                    // Whatever parses round-trips through the encoder.
                    let entries = view.to_vec();
                    prop_assert_eq!(entries.len(), count as usize);
                    prop_assert_eq!(&encode_block(&entries)[..], &p[..encode_block(&entries).len()]);
                }
            }
        }
    }
}
