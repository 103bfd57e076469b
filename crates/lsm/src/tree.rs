//! The leveled LSM-tree: memtable → L0 runs → exponentially larger,
//! non-overlapping levels, with size-triggered compaction.

use crate::memkey::MemKey;
use crate::sstable::{parse_block, write_merged, BlockMeta, SsTable, TableWriter};
use dam_cache::{Page, Pager, Superblock, SuperblockIo};
use dam_kv::codec::{CodecError, Reader, Writer};
use dam_kv::{BatchOp, Dictionary, KvError, OpCost};
use dam_obs::{Obs, PagedDict};
use dam_storage::SharedDevice;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Bytes reserved at device offset 0 for the manifest (level layout, table
/// metadata + block indexes, allocator state). Only the used prefix is
/// ever written — the reservation is address space, not per-sync IO.
pub const MANIFEST_BYTES: u64 = 1 << 20;
const MANIFEST: Superblock = Superblock {
    magic: 0x4441_4D4C, // "DAML"
    version: 1,
    label: "LSM manifest",
    io: SuperblockIo::Prefix,
};

/// LSM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmConfig {
    /// Memtable flush threshold, bytes.
    pub memtable_bytes: usize,
    /// Data-block granularity inside SSTables (the point-read IO unit).
    pub block_bytes: usize,
    /// Target SSTable size, bytes (LevelDB default: 2 MiB).
    pub sstable_bytes: usize,
    /// Per-level size ratio `T` (LevelDB: 10).
    pub level_ratio: usize,
    /// Runs allowed in L0 before compacting into L1.
    pub l0_limit: usize,
    /// Buffer-pool budget, bytes.
    pub cache_bytes: u64,
}

impl LsmConfig {
    /// LevelDB-flavored defaults for a given SSTable size: memtable =
    /// one SSTable, 4 KiB blocks, ratio 10, 4 L0 runs.
    pub fn new(sstable_bytes: usize, cache_bytes: u64) -> Self {
        LsmConfig {
            memtable_bytes: sstable_bytes,
            block_bytes: 4096,
            sstable_bytes,
            level_ratio: 10,
            l0_limit: 4,
            cache_bytes,
        }
    }
}

/// A leveled LSM-tree (see crate docs).
pub struct LsmTree {
    pager: Pager,
    cfg: LsmConfig,
    mem: BTreeMap<MemKey, Option<Vec<u8>>>,
    mem_bytes: usize,
    /// L0 runs; **later entries are newer**.
    l0: Vec<SsTable>,
    /// `levels[i]` is level `i+1`: non-overlapping, ascending by `min_key`.
    levels: Vec<Vec<SsTable>>,
    next_stamp: u64,
    obs: Option<Obs>,
}

fn encode_tables(w: &mut Writer, tables: &[SsTable]) {
    w.put_u32(tables.len() as u32);
    for t in tables {
        w.put_u64(t.base);
        w.put_u64(t.data_len);
        w.put_u64(t.entries);
        w.put_u64(t.stamp);
        w.put_bytes(&t.min_key);
        w.put_bytes(&t.max_key);
        w.put_u32(t.blocks.len() as u32);
        for b in &t.blocks {
            w.put_bytes(&b.first_key);
            w.put_u32(b.offset);
            w.put_u32(b.len);
        }
    }
}

fn decode_tables(r: &mut Reader<'_>) -> Result<Vec<SsTable>, CodecError> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let base = r.get_u64()?;
        let data_len = r.get_u64()?;
        let entries = r.get_u64()?;
        let stamp = r.get_u64()?;
        let min_key = r.get_bytes()?.to_vec();
        let max_key = r.get_bytes()?.to_vec();
        let nblocks = r.get_u32()? as usize;
        let mut blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            let first_key = r.get_bytes()?.to_vec();
            let offset = r.get_u32()?;
            let len = r.get_u32()?;
            blocks.push(BlockMeta {
                first_key,
                offset,
                len,
            });
        }
        out.push(SsTable {
            base,
            data_len,
            blocks,
            min_key,
            max_key,
            entries,
            stamp,
        });
    }
    Ok(out)
}

impl LsmTree {
    /// Create an empty tree on `device`.
    pub fn create(device: SharedDevice, cfg: LsmConfig) -> Result<Self, KvError> {
        if cfg.block_bytes < 64 || cfg.sstable_bytes < cfg.block_bytes {
            return Err(KvError::Config("block/sstable sizes too small".into()));
        }
        if cfg.level_ratio < 2 || cfg.l0_limit < 1 || cfg.memtable_bytes < cfg.block_bytes {
            return Err(KvError::Config("bad ratio/l0 limit/memtable size".into()));
        }
        Ok(LsmTree {
            pager: Pager::try_new(device, cfg.cache_bytes, MANIFEST_BYTES)?,
            cfg,
            mem: BTreeMap::new(),
            mem_bytes: 0,
            l0: Vec::new(),
            levels: Vec::new(),
            next_stamp: 1,
            obs: None,
        })
    }

    /// Reopen a tree persisted with [`LsmTree::persist`] / `sync`.
    ///
    /// Reads the framed manifest at offset 0 straight from the device (it
    /// can be far larger than the cache budget), validates its checksum
    /// and rebuilds the level layout, block indexes and allocator state.
    /// A torn or corrupted manifest surfaces as [`KvError::Corrupt`].
    pub fn open(device: SharedDevice, cfg: LsmConfig) -> Result<Self, KvError> {
        let mut pager = Pager::try_new(device, cfg.cache_bytes, MANIFEST_BYTES)?;
        let (next_stamp, l0, levels) = MANIFEST.read(&mut pager, |r| {
            let next_stamp = r.get_u64()?;
            let l0 = decode_tables(r)?;
            let levels = (0..r.get_u32()?)
                .map(|_| decode_tables(r))
                .collect::<Result<_, _>>()?;
            Ok((next_stamp, l0, levels))
        })?;
        Ok(LsmTree {
            pager,
            cfg,
            mem: BTreeMap::new(),
            mem_bytes: 0,
            l0,
            levels,
            next_stamp,
            obs: None,
        })
    }

    /// Attach an observability registry: point reads open per-level spans
    /// (`lsm.l0` at level 0, `lsm.level` below), flush/compaction work is
    /// spanned, and every operation publishes the pager's cache counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// Flush the memtable and dirty pages, then durably write the manifest.
    ///
    /// After `persist` returns, [`LsmTree::open`] on the same device
    /// reconstructs the tree.
    pub fn persist(&mut self) -> Result<(), KvError> {
        self.flush_memtable()?;
        self.pager.flush()?;
        MANIFEST.write(&mut self.pager, |w| {
            w.put_u64(self.next_stamp);
            encode_tables(w, &self.l0);
            w.put_u32(self.levels.len() as u32);
            for level in &self.levels {
                encode_tables(w, level);
            }
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &LsmConfig {
        &self.cfg
    }

    /// The pager (counters, flush, cache drops).
    pub fn pager(&mut self) -> &mut Pager {
        &mut self.pager
    }

    /// Number of runs in L0 plus tables per deeper level (diagnostics).
    pub fn level_table_counts(&self) -> Vec<usize> {
        let mut out = vec![self.l0.len()];
        out.extend(self.levels.iter().map(|l| l.len()));
        out
    }

    /// Flush dirty cache pages (not the memtable).
    pub fn flush(&mut self) -> Result<(), KvError> {
        self.pager.flush().map_err(KvError::from)
    }

    /// Flush and empty the cache.
    pub fn drop_cache(&mut self) -> Result<(), KvError> {
        self.pager.drop_cache().map_err(KvError::from)
    }

    fn stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    fn update(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<(), KvError> {
        let add = SsTable::entry_bytes(key, value);
        if add > self.cfg.block_bytes {
            return Err(KvError::Config(format!(
                "entry of {add} bytes exceeds block_bytes {}",
                self.cfg.block_bytes
            )));
        }
        let bytes_before = self.mem_bytes;
        let old = self.mem.insert(MemKey::new(key), value.map(<[u8]>::to_vec));
        if let Some(old) = &old {
            self.mem_bytes = self
                .mem_bytes
                .saturating_sub(SsTable::entry_bytes(key, old.as_deref()));
        }
        self.mem_bytes += add;
        if self.mem_bytes >= self.cfg.memtable_bytes {
            if let Err(e) = self.flush_memtable() {
                if !self.mem.is_empty() {
                    // The memtable could not be written out: refuse the
                    // write, so the memtable stays within its budget
                    // however long the fault lasts (`Dictionary`'s fault
                    // contract). A compaction that failed after the flush
                    // keeps the write; it is retried at the next flush.
                    match old {
                        Some(old) => self.mem.insert(MemKey::new(key), old),
                        None => self.mem.remove(&MemKey::new(key)),
                    };
                    self.mem_bytes = bytes_before;
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Write the memtable out as a new L0 run, compacting as needed.
    ///
    /// Failure-atomic: the memtable is cleared only once its SSTable is
    /// durably written, so a device fault mid-flush loses nothing — the
    /// caller can retry once the fault clears.
    pub fn flush_memtable(&mut self) -> Result<(), KvError> {
        let _span = self.obs.as_ref().map(|o| o.span("lsm.flush"));
        if !self.mem.is_empty() {
            let stamp = self.stamp();
            let mut writer = TableWriter::new(self.cfg.block_bytes, self.mem_bytes);
            for (k, v) in &self.mem {
                writer.push(k.as_slice(), v.as_deref());
            }
            let table = writer.finish(&mut self.pager, stamp)?;
            self.mem.clear();
            self.mem_bytes = 0;
            self.l0.push(table);
        }
        // Checked outside the memtable branch so a compaction that failed
        // on a previous (errored) flush is retried even when the memtable
        // is already empty.
        if self.l0.len() > self.cfg.l0_limit {
            self.compact_l0()?;
        }
        Ok(())
    }

    /// Size budget of level `i+1` (`levels[i]`): `sstable · ratio^(i+1)`.
    fn level_budget(&self, idx: usize) -> u64 {
        let mut b = self.cfg.sstable_bytes as u64;
        for _ in 0..=idx {
            b = b.saturating_mul(self.cfg.level_ratio as u64);
        }
        b
    }

    fn level_bytes(&self, idx: usize) -> u64 {
        self.levels
            .get(idx)
            .map_or(0, |l| l.iter().map(|t| t.data_len).sum())
    }

    /// True when no data lives below `levels[idx]` — tombstones can drop.
    fn is_bottom(&self, idx: usize) -> bool {
        self.levels.iter().skip(idx + 1).all(|l| l.is_empty())
    }

    /// Merge runs of input blocks, newest run first, into new tables (see
    /// [`write_merged`]). Every input block is read before this is called,
    /// so the tables' writes follow all of the compaction's reads.
    fn merge_into_tables(
        &mut self,
        runs: &[Vec<Page>],
        drop_tombstones: bool,
    ) -> Result<Vec<SsTable>, KvError> {
        write_merged(
            &mut self.pager,
            runs,
            drop_tombstones,
            self.cfg.block_bytes,
            self.cfg.sstable_bytes,
            &mut self.next_stamp,
        )
    }

    /// Merge every L0 run plus the overlapping part of L1 into L1.
    ///
    /// Failure-atomic: old tables are destroyed and the level rewired only
    /// after every replacement table is durably written; on error the
    /// level is restored untouched.
    fn compact_l0(&mut self) -> Result<(), KvError> {
        if self.l0.is_empty() {
            return Ok(());
        }
        let _span = self.obs.as_ref().map(|o| o.span_at("lsm.compact", 0));
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        let lo = self
            .l0
            .iter()
            .map(|t| t.min_key.clone())
            .min()
            .expect("nonempty");
        let hi = self
            .l0
            .iter()
            .map(|t| t.max_key.clone())
            .max()
            .expect("nonempty");
        // Partition L1 into overlapping and untouched.
        let l1 = std::mem::take(&mut self.levels[0]);
        let (overlapping, untouched): (Vec<_>, Vec<_>) =
            l1.into_iter().partition(|t| t.overlaps(&lo, &hi));

        let built = (|| {
            // Precedence: newest L0 first, then older L0, then L1
            // (concatenated — non-overlapping, so order within the run is
            // by key already).
            let mut runs: Vec<Vec<Page>> = Vec::new();
            for t in self.l0.iter().rev() {
                runs.push(t.scan_pages(&mut self.pager, &[], None)?);
            }
            let mut l1_run = Vec::new();
            for t in &overlapping {
                l1_run.extend(t.scan_pages(&mut self.pager, &[], None)?);
            }
            runs.push(l1_run);
            self.merge_into_tables(&runs, self.is_bottom(0))
        })();
        let new_tables = match built {
            Ok(t) => t,
            Err(e) => {
                // Nothing was destroyed; put L1 back together.
                let mut level = untouched;
                level.extend(overlapping);
                level.sort_by(|a, b| a.min_key.cmp(&b.min_key));
                self.levels[0] = level;
                return Err(e);
            }
        };

        for t in self.l0.drain(..).collect::<Vec<_>>() {
            t.destroy(&mut self.pager);
        }
        for t in overlapping {
            t.destroy(&mut self.pager);
        }
        let mut level = untouched;
        level.extend(new_tables);
        level.sort_by(|a, b| a.min_key.cmp(&b.min_key));
        self.levels[0] = level;
        self.maybe_compact_level(0)
    }

    /// Push one table per round from `levels[idx]` down while the level is
    /// over budget.
    fn maybe_compact_level(&mut self, idx: usize) -> Result<(), KvError> {
        let _span = self
            .obs
            .as_ref()
            .filter(|_| self.level_bytes(idx) > self.level_budget(idx))
            .map(|o| o.span_at("lsm.compact", idx as u32 + 1));
        while self.level_bytes(idx) > self.level_budget(idx) {
            if self.levels.len() <= idx + 1 {
                self.levels.push(Vec::new());
            }
            // Victim: the table with the smallest min_key (simple round
            // robin would also work; determinism is what matters).
            let victim = self.levels[idx].remove(0);
            let next = std::mem::take(&mut self.levels[idx + 1]);
            let (overlapping, untouched): (Vec<_>, Vec<_>) = next
                .into_iter()
                .partition(|t| t.overlaps(&victim.min_key, &victim.max_key));
            let built = (|| {
                let victim_run = victim.scan_pages(&mut self.pager, &[], None)?;
                let mut low_run = Vec::new();
                for t in &overlapping {
                    low_run.extend(t.scan_pages(&mut self.pager, &[], None)?);
                }
                self.merge_into_tables(&[victim_run, low_run], self.is_bottom(idx + 1))
            })();
            let new_tables = match built {
                Ok(t) => t,
                Err(e) => {
                    // Failure-atomic: nothing was destroyed — reinstate
                    // the victim and the lower level as they were.
                    self.levels[idx].insert(0, victim);
                    let mut level = untouched;
                    level.extend(overlapping);
                    level.sort_by(|a, b| a.min_key.cmp(&b.min_key));
                    self.levels[idx + 1] = level;
                    return Err(e);
                }
            };
            victim.destroy(&mut self.pager);
            for t in overlapping {
                t.destroy(&mut self.pager);
            }
            let mut level = untouched;
            level.extend(new_tables);
            level.sort_by(|a, b| a.min_key.cmp(&b.min_key));
            self.levels[idx + 1] = level;
            self.maybe_compact_level(idx + 1)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    fn get_inner(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        if let Some(v) = self.mem.get(&MemKey::new(key)) {
            return Ok(v.clone());
        }
        // L0: newest run wins.
        for t in self.l0.iter().rev() {
            let _lvl = self.obs.as_ref().map(|o| o.span_at("lsm.l0", 0));
            if let Some(v) = t.get(&mut self.pager, key)? {
                return Ok(v);
            }
        }
        for (li, level) in self.levels.iter().enumerate() {
            // Non-overlapping: at most one candidate table.
            let i = level.partition_point(|t| t.min_key.as_slice() <= key);
            if i == 0 {
                continue;
            }
            let _lvl = self
                .obs
                .as_ref()
                .map(|o| o.span_at("lsm.level", li as u32 + 1));
            if let Some(v) = level[i - 1].get(&mut self.pager, key)? {
                return Ok(v);
            }
        }
        Ok(None)
    }

    /// Merged live view of `start ≤ key < end`; `end = None` means
    /// unbounded above. The unbounded form is what `len` and
    /// `check_invariants` use — scanning to a finite sentinel like
    /// `[0xFF; 64]` would silently miss keys that sort above it.
    fn range_inner(
        &mut self,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Result<Vec<dam_kv::KvPair>, KvError> {
        if end.is_some_and(|e| e <= start) {
            return Ok(Vec::new());
        }
        // Fetch every block the scan touches, newest run first (the read
        // order the IO accounting sees), then merge in place: only the
        // answer is copied out of the pages.
        let mut runs: Vec<Vec<Page>> = Vec::new();
        for t in self.l0.iter().rev() {
            if t.overlaps_open(start, end) {
                runs.push(t.scan_pages(&mut self.pager, start, end)?);
            }
        }
        for level in &self.levels {
            let mut run = Vec::new();
            for t in level.iter().filter(|t| t.overlaps_open(start, end)) {
                run.extend(t.scan_pages(&mut self.pager, start, end)?);
            }
            runs.push(run);
        }
        let in_range = |k: &[u8]| k >= start && end.is_none_or(|e| k < e);
        // Lowest precedence first; newer entries overwrite older ones, and
        // the memtable overwrites everything.
        let mut merged: BTreeMap<&[u8], Option<&[u8]>> = BTreeMap::new();
        for page in runs.iter().rev().flatten() {
            let block = parse_block(page).map_err(|e| KvError::Corrupt(e.to_string()))?;
            merged.extend(block.iter().filter(|(k, _)| in_range(k)));
        }
        let upper = end.map_or(Bound::Unbounded, |e| Bound::Excluded(MemKey::new(e)));
        let mem = self.mem.range((Bound::Included(MemKey::new(start)), upper));
        merged.extend(mem.map(|(k, v)| (k.as_slice(), v.as_deref())));
        Ok(merged
            .into_iter()
            .filter_map(|(k, v)| Some((k.to_vec(), v?.to_vec())))
            .collect())
    }

    // ------------------------------------------------------------------
    // Invariants (test support)
    // ------------------------------------------------------------------

    /// Verify level ordering and table metadata; returns live entries.
    pub fn check_invariants(&mut self) -> Result<u64, KvError> {
        for (li, level) in self.levels.iter().enumerate() {
            for w in level.windows(2) {
                if w[0].max_key >= w[1].min_key {
                    return Err(KvError::Corrupt(format!("level {} tables overlap", li + 1)));
                }
            }
            for t in level {
                if t.min_key > t.max_key || t.blocks.is_empty() {
                    return Err(KvError::Corrupt("malformed table".into()));
                }
            }
        }
        // Count live keys by a full unbounded merge (also validates every
        // block decodes).
        let all = self.range_inner(&[], None)?;
        for w in all.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(KvError::Corrupt("merged output unsorted".into()));
            }
        }
        Ok(all.len() as u64)
    }
}

impl PagedDict for LsmTree {
    fn pager_and_obs(&mut self) -> (&mut Pager, Option<&Obs>) {
        (&mut self.pager, self.obs.as_ref())
    }
}

impl Dictionary for LsmTree {
    fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        self.in_op(|t| t.update(key, Some(value)))
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
        self.in_op(|t| t.update(key, None))
    }

    fn apply_batch(&mut self, batch: &[BatchOp]) -> Result<(), KvError> {
        // Batched writes land in the memtable back to back under one cost
        // window; a flush or compaction triggered mid-batch is charged to
        // the batch, matching the group-commit accounting in `dam-serve`.
        self.in_op(|t| {
            batch.iter().try_for_each(|op| match op {
                BatchOp::Put { key, value } => t.update(key, Some(value)),
                BatchOp::Del { key } => t.update(key, None),
            })
        })
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.in_op(|t| t.get_inner(key))
    }

    fn range(&mut self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, KvError> {
        self.in_op(|t| {
            if start < end {
                t.range_inner(start, Some(end))
            } else {
                Ok(Vec::new())
            }
        })
    }

    fn last_op_cost(&self) -> OpCost {
        self.pager.last_op_cost()
    }

    fn sync(&mut self) -> Result<(), KvError> {
        // Durability contract: after sync returns, `open` on the same
        // device reconstructs everything inserted so far — so sync writes
        // the manifest, not just the dirty pages.
        self.in_op(Self::persist)
    }

    /// Exact live-key count via a full unbounded merge scan (O(N) IO).
    fn len(&mut self) -> Result<u64, KvError> {
        self.in_op(|t| Ok(t.range_inner(&[], None)?.len() as u64))
    }

    fn buffered_bytes(&self) -> usize {
        self.mem_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_kv::key_from_u64;
    use dam_storage::{RamDisk, SimDuration};

    fn tree(sstable_bytes: usize) -> LsmTree {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let mut cfg = LsmConfig::new(sstable_bytes, 1 << 20);
        cfg.memtable_bytes = sstable_bytes / 2;
        cfg.block_bytes = 512;
        cfg.level_ratio = 4;
        cfg.l0_limit = 2;
        LsmTree::create(dev, cfg).unwrap()
    }

    #[test]
    fn device_smaller_than_manifest_is_a_config_error() {
        let dev = || SharedDevice::new(Box::new(RamDisk::new(2048, SimDuration(1000))));
        let cfg = || {
            let mut cfg = LsmConfig::new(4096, 1 << 16);
            cfg.block_bytes = 512;
            cfg
        };
        for r in [
            LsmTree::create(dev(), cfg()).map(drop),
            LsmTree::open(dev(), cfg()).map(drop),
        ] {
            match r {
                Err(KvError::Config(msg)) => assert!(msg.contains("2048"), "{msg}"),
                other => panic!("expected a config error, got {:?}", other.err()),
            }
        }
    }

    fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
        (
            key_from_u64(i).to_vec(),
            format!("value-{i:08}").into_bytes(),
        )
    }

    #[test]
    fn empty_tree() {
        let mut t = tree(4096);
        assert_eq!(t.get(b"x").unwrap(), None);
        assert_eq!(t.len().unwrap(), 0);
        assert!(t.range(b"a", b"z").unwrap().is_empty());
        assert_eq!(t.check_invariants().unwrap(), 0);
    }

    #[test]
    fn insert_get_through_compactions() {
        let mut t = tree(2048);
        for i in 0..3000 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        // Should have spilled well past L0.
        let counts = t.level_table_counts();
        assert!(counts.len() > 1, "levels: {counts:?}");
        assert!(counts.iter().skip(1).any(|&c| c > 0), "levels: {counts:?}");
        for i in (0..3000).step_by(97) {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v), "key {i}");
        }
        assert_eq!(t.check_invariants().unwrap(), 3000);
        assert_eq!(t.len().unwrap(), 3000);
    }

    #[test]
    fn random_order_and_overwrites() {
        let mut t = tree(2048);
        let keys: Vec<u64> = (0..2000).map(|i| (i * 1237) % 1000).collect();
        for (round, &i) in keys.iter().enumerate() {
            let k = key_from_u64(i);
            t.insert(&k, &(round as u64).to_le_bytes()).unwrap();
        }
        // Latest write wins: find the last round for a few keys.
        for probe in [0u64, 123, 999] {
            let last = keys.iter().rposition(|&k| k == probe);
            let got = t.get(&key_from_u64(probe)).unwrap();
            match last {
                Some(r) => assert_eq!(got, Some((r as u64).to_le_bytes().to_vec()), "key {probe}"),
                None => assert_eq!(got, None),
            }
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn tombstones_across_levels() {
        let mut t = tree(2048);
        for i in 0..1500 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        for i in (0..1500).step_by(2) {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
        }
        for i in 0..1500 {
            let (k, v) = kv(i);
            let expect = if i % 2 == 0 { None } else { Some(v) };
            assert_eq!(t.get(&k).unwrap(), expect, "key {i}");
        }
        assert_eq!(t.len().unwrap(), 750);
        t.check_invariants().unwrap();
    }

    #[test]
    fn range_merges_all_sources() {
        let mut t = tree(2048);
        for i in 0..1000 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        // Overwrite a band (lands in the memtable) and delete another.
        for i in 100..110 {
            let k = key_from_u64(i);
            t.insert(&k, b"fresh").unwrap();
        }
        for i in 110..115 {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
        }
        let out = t.range(&key_from_u64(95), &key_from_u64(120)).unwrap();
        let keys: Vec<u64> = out
            .iter()
            .map(|(k, _)| dam_kv::key_to_u64(k).unwrap())
            .collect();
        let expect: Vec<u64> = (95..110).chain(115..120).collect();
        assert_eq!(keys, expect);
        for (k, v) in &out {
            let i = dam_kv::key_to_u64(k).unwrap();
            if (100..110).contains(&i) {
                assert_eq!(v, b"fresh");
            }
        }
    }

    /// Keys of 1, 23, 24, 25 and 40 bytes around a shared zero-filled
    /// prefix, so memtable keys stored inline (up to 24 bytes) and on the
    /// heap meet, and keys that differ only by trailing zeros coexist.
    #[test]
    fn mixed_length_keys_match_a_btreemap() {
        fn key(i: u64) -> Vec<u8> {
            let mut k = [0u8; 40];
            k[0] = (i % 3) as u8;
            k[20..22].copy_from_slice(&((i / 5) as u16).to_be_bytes());
            k[39] = 0xFF;
            k[..[1, 23, 24, 25, 40][i as usize % 5]].to_vec()
        }
        let mut t = tree(1024);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng = dam_stats::rng::Rng::seed_from_u64(24);
        for round in 0..4000u64 {
            let k = key(rng.gen_range(0..400));
            match rng.gen_range(0..20) {
                0..=11 => {
                    let v = vec![round as u8; 8 + (round % 33) as usize];
                    t.insert(&k, &v).unwrap();
                    model.insert(k, v);
                }
                12..=14 => {
                    t.delete(&k).unwrap();
                    model.remove(&k);
                }
                15..=17 => assert_eq!(t.get(&k).unwrap().as_ref(), model.get(&k), "{k:?}"),
                _ => {
                    let end = key(rng.gen_range(0..400));
                    let expect: Vec<_> = if k < end {
                        model
                            .range(k.clone()..end.clone())
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    assert_eq!(t.range(&k, &end).unwrap(), expect, "{k:?}..{end:?}");
                }
            }
        }
        let counts = t.level_table_counts();
        assert!(
            counts.iter().skip(1).any(|&c| c > 0),
            "no compaction: {counts:?}"
        );
        assert_eq!(t.check_invariants().unwrap(), model.len() as u64);
        for (k, v) in &model {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v), "{k:?}");
        }
    }

    #[test]
    fn point_read_cost_is_blocks_not_tables() {
        let mut t = tree(8192);
        for i in 0..5000 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        t.sync().unwrap();
        t.drop_cache().unwrap();
        let (k, _) = kv(2500);
        t.get(&k).unwrap();
        let c = t.last_op_cost();
        // A point read touches at most a block per sorted run on the path.
        assert!(c.ios <= 8, "ios {}", c.ios);
        assert!(c.bytes_read < 8 * 1024, "bytes {}", c.bytes_read);
    }

    #[test]
    fn write_amp_is_moderate() {
        let mut t = tree(4096);
        let n = 4000u64;
        for i in 0..n {
            let (k, v) = kv((i * 2654435761) % 100_000);
            t.insert(&k, &v).unwrap();
        }
        t.sync().unwrap();
        let written = t.pager().counters().bytes_written as f64;
        let logical = (n * 40) as f64; // ~40 bytes per entry footprint
        let amp = written / logical;
        // Leveled LSM write amp ~ ratio × levels — way below the B-tree's
        // node-size amp, way above 1.
        assert!(amp > 1.5 && amp < 60.0, "write amp {amp}");
    }

    #[test]
    fn sync_persists_memtable() {
        let mut t = tree(1 << 20); // huge memtable: nothing auto-flushes
        for i in 0..50 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        assert_eq!(t.level_table_counts(), vec![0]);
        t.sync().unwrap();
        assert_eq!(t.level_table_counts(), vec![1]);
        t.drop_cache().unwrap();
        let (k, v) = kv(25);
        assert_eq!(t.get(&k).unwrap(), Some(v));
    }

    #[test]
    fn persist_open_roundtrip() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 28, SimDuration(1000))));
        let mut cfg = LsmConfig::new(2048, 1 << 20);
        cfg.memtable_bytes = 1024;
        cfg.block_bytes = 512;
        cfg.level_ratio = 4;
        cfg.l0_limit = 2;
        let mut t = LsmTree::create(dev.clone(), cfg).unwrap();
        for i in 0..2000 {
            let (k, v) = kv(i);
            t.insert(&k, &v).unwrap();
        }
        for i in (0..2000).step_by(3) {
            let (k, _) = kv(i);
            t.delete(&k).unwrap();
        }
        t.sync().unwrap();
        let counts = t.level_table_counts();
        let expect_len = t.len().unwrap();
        drop(t);

        let mut r = LsmTree::open(dev, cfg).unwrap();
        assert_eq!(r.level_table_counts(), counts);
        assert_eq!(r.len().unwrap(), expect_len);
        for i in (0..2000).step_by(41) {
            let (k, v) = kv(i);
            let expect = if i % 3 == 0 { None } else { Some(v) };
            assert_eq!(r.get(&k).unwrap(), expect, "key {i}");
        }
        r.check_invariants().unwrap();
        // The allocator was restored: new inserts + sync must not clobber
        // live tables.
        for i in 2000..2500 {
            let (k, v) = kv(i);
            r.insert(&k, &v).unwrap();
        }
        r.sync().unwrap();
        r.drop_cache().unwrap();
        assert_eq!(r.len().unwrap(), expect_len + 500);
        r.check_invariants().unwrap();
    }

    #[test]
    fn open_blank_device_errors() {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 22, SimDuration(1000))));
        let cfg = LsmConfig::new(4096, 1 << 20);
        assert!(matches!(LsmTree::open(dev, cfg), Err(KvError::Corrupt(_))));
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut t = tree(4096);
        assert!(matches!(
            t.insert(b"k", &vec![0u8; 4096]),
            Err(KvError::Config(_))
        ));
    }

    #[test]
    fn deep_levels_stay_sorted_nonoverlapping() {
        let mut t = tree(1024);
        for i in 0..6000 {
            let k = key_from_u64((i * 7919) % 3000);
            t.insert(&k, &[(i % 251) as u8; 30]).unwrap();
        }
        t.check_invariants().unwrap();
        let counts = t.level_table_counts();
        assert!(counts.len() >= 3, "expected several levels: {counts:?}");
    }

    /// Regression (dam-check): `len` and `check_invariants` used to scan up
    /// to the finite sentinel `[0xFF; 64]`, silently dropping any key that
    /// sorts at or above it. The count must include every live key.
    #[test]
    fn len_counts_keys_above_ff_sentinel() {
        let mut t = tree(4096);
        t.insert(&[0xFFu8; 64], b"at-sentinel").unwrap();
        t.insert(&[0xFFu8; 80], b"above-sentinel").unwrap();
        t.insert(b"", b"empty-key").unwrap();
        assert_eq!(t.len().unwrap(), 3);
        assert_eq!(t.check_invariants().unwrap(), 3);
        // Still counted once flushed out of the memtable.
        t.sync().unwrap();
        assert_eq!(t.len().unwrap(), 3);
        assert_eq!(
            t.get(&[0xFFu8; 80]).unwrap(),
            Some(b"above-sentinel".to_vec())
        );
    }

    /// Regression (dam-check): a failed operation must report zero cost,
    /// not the previous operation's numbers.
    #[test]
    fn failed_op_reports_zero_cost() {
        let mut t = tree(4096);
        for i in 0..200 {
            t.insert(&key_from_u64(i), &[7u8; 40]).unwrap();
        }
        t.sync().unwrap();
        assert!(t.last_op_cost().ios > 0, "sync should cost IO");
        let err = t.insert(b"big", &vec![0u8; 4096]);
        assert!(matches!(err, Err(KvError::Config(_))));
        assert_eq!(t.last_op_cost(), OpCost::default());
    }
}
