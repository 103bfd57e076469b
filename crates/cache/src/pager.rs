//! The buffer pool: variable-size cached objects over a device, with LRU
//! write-back eviction under a byte budget, and cost accounting.
//!
//! One [`Pager`] owns the simulated clock for its client: cache hits are
//! free, misses and write-backs advance `now` by the device's realized IO
//! latency. It also owns the per-operation cost window: a dictionary opens
//! it ([`Pager::begin_window`]) when an operation starts and closes it
//! ([`Pager::end_window`]) on every return path, and [`Pager::last_op_cost`]
//! reports the device IO issued in between.
//!
//! Reads return a [`Page`]: a shared handle on the cached bytes, so a hit
//! costs a reference-count bump rather than a copy of the object. The same
//! handle crosses the device boundary: a write-back, flush, write-through
//! or oversized write hands the device the entry's image
//! ([`BlockDevice::write_image`](dam_storage::BlockDevice::write_image)),
//! and a whole-object miss takes back whatever image the device returns
//! ([`BlockDevice::read_image`](dam_storage::BlockDevice::read_image)). On
//! the simulated HDD, SSD and RAM disk a miss on an object the pager wrote
//! there is the written image itself, with no byte copied either way.
//! Images are never mutated while shared: an update replaces an entry's
//! image, and an in-place edit ([`Pager::edit`]) splices the entry's image
//! only when the cache holds its one handle, and otherwise edits a copy.
//!
//! Each entry also records whether its bytes are *verified*, so a client
//! checks an object's frame once, when it arrives, rather than on every
//! hit. Bytes the client wrote ([`Pager::write`], [`Pager::write_through`])
//! are verified from the start; bytes that came off the device become
//! verified only when the client's check passes ([`Pager::check_once`]).
//! Device faults (bit rot, torn writes) only ever reach the cache through a
//! device read, so they are still caught: the first check fails, nothing is
//! marked, and every later hit on the poisoned entry fails the same way
//! until the entry is dropped. Shared images keep this true. A miss makes a
//! new, unverified entry even when its image is one the pager wrote, so its
//! check still runs, and a check marks an entry only through a page that
//! carries the entry's current *generation*: a handle on the image a
//! dropped entry held cannot vouch for the entry that replaced it, even
//! when the device hands the replacement the very same image. And a fault
//! never lands in a shared image: the fault injector keeps the provided
//! image methods, which go through its own `read` and `write`, so a
//! flipped bit lands in the miss's private buffer and a torn write reaches
//! the device as a copied prefix.

use crate::alloc::Allocator;
use crate::lru::LruList;
use dam_kv::{KvError, OpCost};
use dam_storage::{IoError, SharedDevice, SimTime};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::Arc;

/// Pager failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PagerError {
    /// Device-level failure.
    Io(IoError),
    /// The device has no room for a new allocation.
    OutOfSpace,
    /// A cached object's size differs from the requested read size —
    /// a caller bug (stale offset or wrong node size).
    SizeMismatch {
        /// Offset of the object.
        offset: u64,
        /// Cached object size.
        cached: usize,
        /// Requested size.
        requested: usize,
    },
}

impl From<IoError> for PagerError {
    fn from(e: IoError) -> Self {
        PagerError::Io(e)
    }
}

impl std::fmt::Display for PagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagerError::Io(e) => write!(f, "io error: {e}"),
            PagerError::OutOfSpace => write!(f, "device out of space"),
            PagerError::SizeMismatch {
                offset,
                cached,
                requested,
            } => write!(
                f,
                "size mismatch at {offset}: cached {cached} vs requested {requested}"
            ),
        }
    }
}

impl std::error::Error for PagerError {}

impl From<PagerError> for KvError {
    fn from(e: PagerError) -> Self {
        KvError::Storage(e.to_string())
    }
}

/// Cumulative pager counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerCounters {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (device reads).
    pub misses: u64,
    /// Evictions (clean or dirty).
    pub evictions: u64,
    /// Dirty evictions + flush writes that reached the device.
    pub writebacks: u64,
    /// Device IOs issued (misses + write-backs + bypasses).
    pub ios: u64,
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Simulated nanoseconds spent waiting on the device.
    pub io_time_ns: u64,
}

impl PagerCounters {
    fn sub(&self, earlier: &PagerCounters) -> PagerCounters {
        PagerCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            writebacks: self.writebacks - earlier.writebacks,
            ios: self.ios - earlier.ios,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            io_time_ns: self.io_time_ns - earlier.io_time_ns,
        }
    }

    /// Hit rate over all cache lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Opaque snapshot for windowed cost measurement.
#[derive(Debug, Clone, Copy)]
pub struct CostSnapshot(PagerCounters);

/// A shared, read-only handle on an object returned by [`Pager::read`] or
/// [`Pager::read_within`]. Derefs to the object's bytes.
///
/// A page keeps its bytes alive after the cache evicts or replaces them, so
/// hold one only for the duration of an operation.
#[derive(Clone)]
pub struct Page {
    bytes: Arc<Vec<u8>>,
    start: usize,
    len: usize,
    /// Offset of the cache entry the page was served from.
    entry: u64,
    /// Generation of the entry's bytes when the page was served (see
    /// [`Pager::mark_verified`]).
    gen: u64,
    verified: bool,
}

impl Page {
    fn whole(entry: u64, gen: u64, bytes: Arc<Vec<u8>>, verified: bool) -> Page {
        let len = bytes.len();
        Page {
            bytes,
            start: 0,
            len,
            entry,
            gen,
            verified,
        }
    }

    /// Whether the page is the whole of the entry `gen` names, not a
    /// sub-range of it.
    fn is_whole(&self, gen: u64) -> bool {
        self.gen == gen && self.start == 0 && self.len == self.bytes.len()
    }

    /// Whether the pager already trusts these bytes: the client wrote
    /// them, or a check of them passed since they came off the device.
    pub fn is_verified(&self) -> bool {
        self.verified
    }
}

impl Deref for Page {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[self.start..self.start + self.len]
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("len", &self.len)
            .field("verified", &self.verified)
            .finish_non_exhaustive()
    }
}

impl PartialEq<Vec<u8>> for Page {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

struct PageEntry {
    offset: u64,
    data: Arc<Vec<u8>>,
    /// Set anew, from [`Pager::next_gen`], whenever `data` is.
    gen: u64,
    dirty: bool,
    /// See the module docs: set by client writes and passed checks only.
    verified: bool,
}

/// Byte-budgeted LRU write-back buffer pool (see module docs).
pub struct Pager {
    dev: SharedDevice,
    budget: u64,
    used: u64,
    map: BTreeMap<u64, u32>,
    lru: LruList,
    slots: Vec<Option<PageEntry>>,
    /// Device space; [`crate::Superblock`] persists its state.
    pub(crate) alloc: Allocator,
    now: SimTime,
    counters: PagerCounters,
    /// Counters when the current operation began ([`Pager::begin_window`]).
    op_start: PagerCounters,
    /// Cost of the last operation, frozen by [`Pager::end_window`].
    last_op: OpCost,
    /// Generations handed out so far: every image the pager caches or
    /// serves uncached takes a new one.
    gens: u64,
}

impl Pager {
    /// A pager over `dev` with a cache budget of `cache_bytes`; the first
    /// `reserved` device bytes are left to the caller (superblock).
    ///
    /// # Panics
    /// If the device is smaller than `reserved`; [`Pager::try_new`]
    /// reports that as an error instead.
    pub fn new(dev: SharedDevice, cache_bytes: u64, reserved: u64) -> Self {
        let capacity = dev.capacity_bytes();
        Pager {
            dev,
            budget: cache_bytes,
            used: 0,
            map: BTreeMap::new(),
            lru: LruList::new(),
            slots: Vec::new(),
            alloc: Allocator::new(capacity, reserved),
            now: SimTime::ZERO,
            counters: PagerCounters::default(),
            op_start: PagerCounters::default(),
            last_op: OpCost::default(),
            gens: 0,
        }
    }

    /// A generation no page or entry has had yet.
    fn next_gen(&mut self) -> u64 {
        self.gens += 1;
        self.gens
    }

    /// [`Pager::new`], or [`KvError::Config`] when the device cannot hold
    /// its `reserved` prefix.
    pub fn try_new(dev: SharedDevice, cache_bytes: u64, reserved: u64) -> Result<Self, KvError> {
        let capacity = dev.capacity_bytes();
        if capacity < reserved {
            return Err(KvError::Config(format!(
                "device of {capacity} bytes is smaller than the {reserved}-byte reserved prefix"
            )));
        }
        Ok(Pager::new(dev, cache_bytes, reserved))
    }

    /// Current simulated time as seen by this pager's client.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cache budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Cumulative counters.
    pub fn counters(&self) -> PagerCounters {
        self.counters
    }

    /// Snapshot for [`Pager::cost_since`].
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot(self.counters)
    }

    /// Counter deltas since a snapshot.
    pub fn cost_since(&self, snap: &CostSnapshot) -> PagerCounters {
        self.counters.sub(&snap.0)
    }

    /// Open the cost window of one dictionary operation: the reported
    /// cost drops to zero and the counters are snapshotted.
    pub fn begin_window(&mut self) {
        self.last_op = OpCost::default();
        self.op_start = self.counters;
    }

    /// Close the window opened by [`Pager::begin_window`], freezing the IO
    /// issued since as the operation's cost. Called on every return path,
    /// so a failed operation reports the IO it issued before it failed.
    pub fn end_window(&mut self) {
        let d = self.counters.sub(&self.op_start);
        self.last_op = OpCost {
            ios: d.ios,
            bytes_read: d.bytes_read,
            bytes_written: d.bytes_written,
            io_time_ns: d.io_time_ns,
        };
    }

    /// Cost of the last operation, as frozen by [`Pager::end_window`].
    pub fn last_op_cost(&self) -> OpCost {
        self.last_op
    }

    /// The underlying device handle.
    pub fn device(&self) -> &SharedDevice {
        &self.dev
    }

    /// Allocate `len` bytes of device space.
    pub fn alloc(&mut self, len: u64) -> Result<u64, PagerError> {
        self.alloc.alloc(len).ok_or(PagerError::OutOfSpace)
    }

    /// How many more `len`-byte allocations can succeed.
    pub fn available(&self, len: u64) -> u64 {
        self.alloc.available(len)
    }

    /// Free device space and discard any cached copy (without write-back —
    /// the object is dead).
    pub fn free(&mut self, offset: u64, len: u64) {
        self.discard(offset);
        self.alloc.free(offset, len);
    }

    /// Bytes of live allocations on the device.
    pub fn live_bytes(&self) -> u64 {
        self.alloc.live_bytes()
    }

    /// Drop a cached object without writing it back.
    pub fn discard(&mut self, offset: u64) {
        if let Some(slot) = self.map.remove(&offset) {
            let entry = self.slots[slot as usize]
                .take()
                .expect("mapped slot must be live");
            self.used -= entry.data.len() as u64;
            self.lru.remove(slot);
        }
    }

    /// Drop every cached object whose offset lies in `[offset, offset+len)`,
    /// except an exact match at `offset`. Used to keep nested objects
    /// (sub-range reads of a larger object) coherent when the enclosing
    /// object is re-read or rewritten.
    pub fn discard_range_contained(&mut self, offset: u64, len: u64) {
        let victims: Vec<u64> = self
            .map
            .range(offset..offset.saturating_add(len))
            .map(|(&o, _)| o)
            .filter(|&o| o != offset)
            .collect();
        for o in victims {
            self.discard(o);
        }
    }

    fn ensure_slot(&mut self, id: u32) {
        if self.slots.len() <= id as usize {
            self.slots.resize_with(id as usize + 1, || None);
        }
    }

    /// Evict from the LRU end until the cache is back in budget. Only
    /// objects within the budget are cached, so the most recent entry is
    /// never evicted: once it is the last one left, the cache is in budget.
    fn make_room(&mut self) -> Result<(), PagerError> {
        while self.used > self.budget {
            let slot = self
                .lru
                .peek_lru()
                .expect("an over-budget cache is not empty");
            let entry = self.slots[slot as usize]
                .take()
                .expect("lru slot must be live");
            self.map.remove(&entry.offset);
            self.lru.remove(slot);
            self.used -= entry.data.len() as u64;
            if entry.dirty {
                if let Err(e) = self.write_image(entry.offset, &entry.data) {
                    // The cache holds the only copy of a dirty object;
                    // discarding it on a failed writeback would silently
                    // lose acknowledged writes. Reinstate the victim (at
                    // MRU, so the next attempt tries a different one) and
                    // surface the error.
                    let slot = self.lru.push_front();
                    self.ensure_slot(slot);
                    self.used += entry.data.len() as u64;
                    self.map.insert(entry.offset, slot);
                    self.slots[slot as usize] = Some(entry);
                    return Err(e);
                }
                self.counters.writebacks += 1;
            }
            self.counters.evictions += 1;
        }
        Ok(())
    }

    /// Hand `image` to the device (no copy on a device that keeps shared
    /// images) and charge the write.
    fn write_image(&mut self, offset: u64, image: &Arc<Vec<u8>>) -> Result<(), PagerError> {
        let c = self.dev.write_image(offset, image, self.now)?;
        self.counters.ios += 1;
        self.counters.bytes_written += image.len() as u64;
        self.counters.io_time_ns += (c.complete - self.now).0;
        self.now = c.complete;
        Ok(())
    }

    /// Read `len` bytes at `offset` as a shared image and charge the read.
    fn read_image(&mut self, offset: u64, len: usize) -> Result<Arc<Vec<u8>>, PagerError> {
        let (image, c) = self.dev.read_image(offset, len, self.now)?;
        self.counters.ios += 1;
        self.counters.bytes_read += len as u64;
        self.counters.io_time_ns += (c.complete - self.now).0;
        self.now = c.complete;
        Ok(image)
    }

    fn insert_entry(
        &mut self,
        offset: u64,
        data: Arc<Vec<u8>>,
        gen: u64,
        dirty: bool,
        verified: bool,
    ) -> Result<(), PagerError> {
        debug_assert!(!self.map.contains_key(&offset));
        debug_assert!(data.len() as u64 <= self.budget);
        // Insert first, evict after: the cache must accept the object even
        // when making room fails (e.g. a writeback hits a device fault), so
        // a surfaced error never means a half-applied write. The budget may
        // be exceeded transiently; the next make_room restores it.
        let slot = self.lru.push_front();
        self.ensure_slot(slot);
        self.used += data.len() as u64;
        self.slots[slot as usize] = Some(PageEntry {
            offset,
            data,
            gen,
            dirty,
            verified,
        });
        self.map.insert(offset, slot);
        self.make_room()
    }

    /// Read `len` bytes at `offset` (a whole object, as written). Hits are
    /// free; misses charge device time and cache the object. Either way the
    /// caller gets a shared handle, not a copy.
    pub fn read(&mut self, offset: u64, len: usize) -> Result<Page, PagerError> {
        if let Some(&slot) = self.map.get(&offset) {
            let entry = self.slots[slot as usize]
                .as_ref()
                .expect("mapped slot must be live");
            if entry.data.len() != len {
                // A clean object of a different size is a stale sub-range
                // view (a segment cached at the enclosing object's base
                // offset): discard it and fall through to a device read.
                // A dirty mismatch is a caller bug — losing it would lose
                // writes.
                if entry.dirty {
                    return Err(PagerError::SizeMismatch {
                        offset,
                        cached: entry.data.len(),
                        requested: len,
                    });
                }
                self.discard(offset);
            } else {
                self.counters.hits += 1;
                self.lru.touch(slot);
                return Ok(Page::whole(
                    offset,
                    entry.gen,
                    entry.data.clone(),
                    entry.verified,
                ));
            }
        }
        let data = self.read_image(offset, len)?;
        self.counters.misses += 1;
        let gen = self.next_gen();
        if (len as u64) <= self.budget {
            // Any cached sub-objects inside this range are clean copies of
            // device state; the whole object supersedes them.
            self.discard_range_contained(offset, len as u64);
            self.insert_entry(offset, data.clone(), gen, false, false)?;
        }
        Ok(Page::whole(offset, gen, data, false))
    }

    /// Read a sub-range `[sub_off, sub_off + sub_len)` of a larger object of
    /// `base_len` bytes at `base`.
    ///
    /// This models partial node reads (Theorem 9's segment reads, §8's
    /// block-at-a-time vEB walks): if the whole object is cached, the read
    /// is a hit; otherwise only `sub_len` bytes are fetched from the device
    /// — a *small* IO — and cached as a read-only sub-object that is
    /// invalidated whenever the enclosing object is rewritten or re-read.
    ///
    /// A page cut from a cached whole object is verified when the whole
    /// object is; a cached sub-object keeps its own verified state.
    ///
    /// `sub_off` is relative to `base`.
    pub fn read_within(
        &mut self,
        base: u64,
        base_len: usize,
        sub_off: usize,
        sub_len: usize,
    ) -> Result<Page, PagerError> {
        assert!(
            sub_off + sub_len <= base_len,
            "sub-range escapes the object"
        );
        // Whole object cached (possibly dirty): serve from it.
        if let Some(&slot) = self.map.get(&base) {
            let entry = self.slots[slot as usize]
                .as_ref()
                .expect("mapped slot must be live");
            if entry.data.len() == base_len {
                self.counters.hits += 1;
                self.lru.touch(slot);
                return Ok(Page {
                    bytes: entry.data.clone(),
                    start: sub_off,
                    len: sub_len,
                    entry: base,
                    gen: entry.gen,
                    verified: entry.verified,
                });
            }
        }
        // Sub-object cached from an earlier partial read.
        let abs = base + sub_off as u64;
        if let Some(&slot) = self.map.get(&abs) {
            let entry = self.slots[slot as usize]
                .as_ref()
                .expect("mapped slot must be live");
            if entry.data.len() == sub_len && !entry.dirty {
                self.counters.hits += 1;
                self.lru.touch(slot);
                return Ok(Page::whole(
                    abs,
                    entry.gen,
                    entry.data.clone(),
                    entry.verified,
                ));
            }
        }
        // Miss: fetch only the sub-range.
        let data = self.read_image(abs, sub_len)?;
        self.counters.misses += 1;
        let gen = self.next_gen();
        if (sub_len as u64) <= self.budget && !self.map.contains_key(&abs) {
            self.insert_entry(abs, data.clone(), gen, false, false)?;
        }
        Ok(Page::whole(abs, gen, data, false))
    }

    /// Record that a check of `page`'s bytes passed (see
    /// [`Pager::check_once`]), so later hits on the same cache entry come
    /// back verified.
    ///
    /// Marks nothing when `page` no longer matches its entry (the entry
    /// was rewritten, re-read, or dropped since the page was handed out)
    /// or covers only part of it (a sub-range of a whole object checks
    /// only that sub-range). The match is by generation, not by image: a
    /// re-read after a drop can hand the new entry the very image the
    /// stale page holds.
    fn mark_verified(&mut self, page: &Page) {
        if let Some(&slot) = self.map.get(&page.entry) {
            let entry = self.slots[slot as usize]
                .as_mut()
                .expect("mapped slot must be live");
            if page.is_whole(entry.gen) {
                entry.verified = true;
            }
        }
    }

    /// Run `check` over `page` unless its bytes are already verified; mark
    /// the entry verified when the check passes. A failed check marks
    /// nothing, so the next hit on the same bytes is checked again.
    pub fn check_once<E>(
        &mut self,
        page: &Page,
        check: impl FnOnce(&[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        if page.is_verified() {
            return Ok(());
        }
        check(page)?;
        self.mark_verified(page);
        Ok(())
    }

    /// Write an object into the cache (dirty); it reaches the device on
    /// eviction or flush. Objects larger than the cache write through.
    ///
    /// Cached sub-objects inside the written range become stale and are
    /// discarded.
    pub fn write(&mut self, offset: u64, data: Vec<u8>) -> Result<(), PagerError> {
        self.discard_range_contained(offset, data.len() as u64);
        let gen = self.next_gen();
        if let Some(&slot) = self.map.get(&offset) {
            let entry = self.slots[slot as usize]
                .as_mut()
                .expect("mapped slot must be live");
            self.used = self.used - entry.data.len() as u64 + data.len() as u64;
            entry.data = Arc::new(data);
            entry.gen = gen;
            entry.dirty = true;
            entry.verified = true;
            self.lru.touch(slot);
            // Replacing with a larger object can overflow the budget; evict
            // others to restore the invariant.
            self.make_room()?;
            return Ok(());
        }
        if data.len() as u64 > self.budget {
            return self.write_image(offset, &Arc::new(data));
        }
        self.insert_entry(offset, Arc::new(data), gen, true, true)
    }

    /// Write back `page`'s object with `edit` applied to its bytes: the
    /// same as [`Pager::write`] of an edited copy at the offset the page
    /// was read from, but without the copy when it is safe to skip.
    ///
    /// Taking the page by value drops its handle. When it was the whole of
    /// its cache entry and the cache now holds the image's only handle (no
    /// other page, and no device that keeps shared images, has it), `edit`
    /// splices the entry's image in place. Otherwise `edit` runs on a copy,
    /// so no image is mutated while shared. Either way the entry becomes
    /// dirty and verified, and cached sub-objects inside it are discarded,
    /// as after a write.
    pub fn edit(&mut self, page: Page, edit: impl FnOnce(&mut [u8])) -> Result<(), PagerError> {
        let offset = page.entry + page.start as u64;
        let whole = self.map.get(&offset).copied().filter(|&slot| {
            let entry = self.slots[slot as usize]
                .as_ref()
                .expect("mapped slot must be live");
            page.is_whole(entry.gen)
        });
        let Some(slot) = whole else {
            let mut image = page.to_vec();
            edit(&mut image);
            return self.write(offset, image);
        };
        drop(page);
        let gen = self.next_gen();
        let entry = self.slots[slot as usize]
            .as_mut()
            .expect("mapped slot must be live");
        // Copy-on-write: copies only when another handle remains.
        let image = Arc::make_mut(&mut entry.data);
        edit(image);
        let len = image.len() as u64;
        entry.gen = gen;
        entry.dirty = true;
        entry.verified = true;
        self.lru.touch(slot);
        self.discard_range_contained(offset, len);
        self.make_room()
    }

    /// Write an object straight to the device (charging the IO now) and
    /// cache a *clean* copy. Models durable writes — an LSM fsyncs each
    /// SSTable at build time, unlike the write-back node updates of the
    /// trees.
    pub fn write_through(&mut self, offset: u64, data: Vec<u8>) -> Result<(), PagerError> {
        self.discard_range_contained(offset, data.len() as u64);
        // One image for the device and the cache.
        let data = Arc::new(data);
        self.write_image(offset, &data)?;
        let gen = self.next_gen();
        if let Some(&slot) = self.map.get(&offset) {
            let entry = self.slots[slot as usize]
                .as_mut()
                .expect("mapped slot must be live");
            self.used = self.used - entry.data.len() as u64 + data.len() as u64;
            entry.data = data;
            entry.gen = gen;
            entry.dirty = false;
            entry.verified = true;
            self.lru.touch(slot);
            self.make_room()?;
            return Ok(());
        }
        if data.len() as u64 <= self.budget {
            self.insert_entry(offset, data, gen, false, true)?;
        }
        Ok(())
    }

    /// Write every dirty object to the device, keeping contents cached.
    pub fn flush(&mut self) -> Result<(), PagerError> {
        // Deterministic order: by offset.
        let mut dirty: Vec<u64> = self
            .map
            .iter()
            .filter(|(_, &slot)| {
                self.slots[slot as usize]
                    .as_ref()
                    .expect("mapped slot must be live")
                    .dirty
            })
            .map(|(&off, _)| off)
            .collect();
        dirty.sort_unstable();
        for off in dirty {
            let slot = self.map[&off];
            // A shared handle, not a copy: the device may keep the image.
            let data = self.slots[slot as usize]
                .as_ref()
                .expect("mapped slot must be live")
                .data
                .clone();
            self.write_image(off, &data)?;
            self.counters.writebacks += 1;
            self.slots[slot as usize]
                .as_mut()
                .expect("mapped slot must be live")
                .dirty = false;
        }
        Ok(())
    }

    /// Flush then empty the cache — the "cold cache" reset used between
    /// experiment phases.
    pub fn drop_cache(&mut self) -> Result<(), PagerError> {
        self.flush()?;
        let offsets: Vec<u64> = self.map.keys().copied().collect();
        for off in offsets {
            self.discard(off);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_storage::{FaultInjector, FaultMode, HddDevice, HddProfile, RamDisk, SimDuration};

    fn pager(cache: u64) -> Pager {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 20, SimDuration(1000))));
        Pager::new(dev, cache, 0)
    }

    #[test]
    fn write_then_read_hits_cache() {
        let mut p = pager(10_000);
        let off = p.alloc(100).unwrap();
        p.write(off, vec![7; 100]).unwrap();
        let data = p.read(off, 100).unwrap();
        assert_eq!(data, vec![7; 100]);
        let c = p.counters();
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 0);
        // No device IO yet: write-back caching.
        assert_eq!(c.ios, 0);
        assert_eq!(p.now(), SimTime::ZERO);
    }

    #[test]
    fn eviction_writes_back_and_read_misses() {
        let mut p = pager(250);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        let c = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        p.write(b, vec![2; 100]).unwrap();
        p.write(c, vec![3; 100]).unwrap(); // evicts a (dirty)
        let counters = p.counters();
        assert_eq!(counters.evictions, 1);
        assert_eq!(counters.writebacks, 1);
        assert!(p.used() <= 250);
        // Reading a again misses and fetches the written-back bytes.
        let data = p.read(a, 100).unwrap();
        assert_eq!(data, vec![1; 100]);
        assert_eq!(p.counters().misses, 1);
        assert!(p.now() > SimTime::ZERO);
    }

    #[test]
    fn lru_order_decides_victim() {
        let mut p = pager(250);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        p.write(b, vec![2; 100]).unwrap();
        // Touch a so b is the LRU.
        p.read(a, 100).unwrap();
        let c = p.alloc(100).unwrap();
        p.write(c, vec![3; 100]).unwrap();
        // a must still be cached (hit), b evicted (miss).
        let before = p.counters().misses;
        p.read(a, 100).unwrap();
        assert_eq!(p.counters().misses, before);
        p.read(b, 100).unwrap();
        assert_eq!(p.counters().misses, before + 1);
    }

    #[test]
    fn an_admitted_object_evicts_every_other_before_itself() {
        let mut p = pager(250);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        let c = p.alloc(200).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        p.write(b, vec![2; 100]).unwrap();
        p.write(c, vec![3; 200]).unwrap(); // evicts a, then b; never c
        assert_eq!(p.counters().evictions, 2);
        assert_eq!(p.used(), 200);
        let before = p.counters().misses;
        assert_eq!(p.read(c, 200).unwrap(), vec![3; 200]);
        assert_eq!(p.counters().misses, before);
    }

    #[test]
    fn flush_persists_and_cleans() {
        let mut p = pager(10_000);
        let a = p.alloc(100).unwrap();
        p.write(a, vec![9; 100]).unwrap();
        p.flush().unwrap();
        assert_eq!(p.counters().writebacks, 1);
        // Second flush: nothing dirty.
        p.flush().unwrap();
        assert_eq!(p.counters().writebacks, 1);
        // Still cached.
        p.read(a, 100).unwrap();
        assert_eq!(p.counters().hits, 1);
    }

    #[test]
    fn drop_cache_forces_cold_reads() {
        let mut p = pager(10_000);
        let a = p.alloc(100).unwrap();
        p.write(a, vec![5; 100]).unwrap();
        p.drop_cache().unwrap();
        assert_eq!(p.used(), 0);
        let data = p.read(a, 100).unwrap();
        assert_eq!(data, vec![5; 100]);
        assert_eq!(p.counters().misses, 1);
    }

    #[test]
    fn discard_drops_dirty_data_without_writeback() {
        let mut p = pager(10_000);
        let a = p.alloc(100).unwrap();
        p.write(a, vec![5; 100]).unwrap();
        p.free(a, 100);
        assert_eq!(p.counters().writebacks, 0);
        assert_eq!(p.used(), 0);
        // Space is reusable.
        let b = p.alloc(100).unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn size_mismatch_detected() {
        let mut p = pager(10_000);
        let a = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        assert!(matches!(
            p.read(a, 50),
            Err(PagerError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn oversized_object_bypasses_cache() {
        let mut p = pager(100);
        let a = p.alloc(500).unwrap();
        p.write(a, vec![3; 500]).unwrap(); // write-through
        assert_eq!(p.used(), 0);
        assert_eq!(p.counters().ios, 1);
        let data = p.read(a, 500).unwrap(); // read, not cached
        assert_eq!(data, vec![3; 500]);
        assert_eq!(p.used(), 0);
        assert_eq!(p.counters().misses, 1);
    }

    #[test]
    fn rewrite_in_place_updates_size_accounting() {
        let mut p = pager(1000);
        let a = p.alloc(400).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        assert_eq!(p.used(), 100);
        p.write(a, vec![2; 400]).unwrap();
        assert_eq!(p.used(), 400);
        assert_eq!(p.read(a, 400).unwrap(), vec![2; 400]);
    }

    #[test]
    fn cost_snapshot_windows() {
        let mut p = pager(100); // tiny cache: everything misses
        let a = p.alloc(80).unwrap();
        p.write(a, vec![1; 80]).unwrap();
        let snap = p.snapshot();
        let b = p.alloc(80).unwrap();
        p.write(b, vec![2; 80]).unwrap(); // evicts a → writeback
        p.read(a, 80).unwrap(); // evicts b → writeback, then miss-read a
        let delta = p.cost_since(&snap);
        assert_eq!(delta.misses, 1);
        assert!(delta.writebacks >= 1);
        assert!(delta.io_time_ns > 0);
    }

    #[test]
    fn cost_window_reports_the_io_before_a_failure() {
        let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 20, SimDuration(1000)));
        let mut p = Pager::new(SharedDevice::new(Box::new(inj)), 10_000, 0);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        p.write(b, vec![2; 100]).unwrap();
        p.drop_cache().unwrap();
        p.begin_window();
        p.read(a, 100).unwrap();
        switch.set(FaultMode::AfterIos(0));
        assert!(p.read(b, 100).is_err());
        assert_eq!(
            p.last_op_cost(),
            OpCost::default(),
            "open window reads zero"
        );
        p.end_window();
        let cost = p.last_op_cost();
        assert_eq!((cost.ios, cost.bytes_read, cost.io_time_ns), (1, 100, 1000));
        // The next window starts from zero, not from the last op's cost.
        switch.set(FaultMode::None);
        p.begin_window();
        p.end_window();
        assert_eq!(p.last_op_cost(), OpCost::default());
    }

    #[test]
    fn read_within_hits_cached_whole_object() {
        let mut p = pager(10_000);
        let a = p.alloc(400).unwrap();
        let mut img = vec![0u8; 400];
        img[100..200].fill(7);
        p.write(a, img).unwrap();
        // Whole object is cached (dirty): segment read is a hit and sees
        // the unflushed bytes.
        let seg = p.read_within(a, 400, 100, 100).unwrap();
        assert_eq!(seg, vec![7; 100]);
        assert_eq!(p.counters().misses, 0);
        assert_eq!(p.counters().ios, 0);
    }

    #[test]
    fn read_within_cold_fetches_only_segment() {
        let mut p = pager(10_000);
        let a = p.alloc(400).unwrap();
        let mut img = vec![0u8; 400];
        img[300..].fill(9);
        p.write(a, img).unwrap();
        p.drop_cache().unwrap();
        let snap = p.snapshot();
        let seg = p.read_within(a, 400, 300, 100).unwrap();
        assert_eq!(seg, vec![9; 100]);
        let d = p.cost_since(&snap);
        assert_eq!(d.bytes_read, 100, "only the segment is fetched");
        assert_eq!(d.misses, 1);
        // Repeat is a hit on the cached sub-object.
        p.read_within(a, 400, 300, 100).unwrap();
        assert_eq!(p.cost_since(&snap).hits, 1);
    }

    #[test]
    fn whole_write_invalidates_sub_objects() {
        let mut p = pager(10_000);
        let a = p.alloc(400).unwrap();
        p.write(a, vec![1; 400]).unwrap();
        p.drop_cache().unwrap();
        // Cache a stale-to-be segment.
        let seg = p.read_within(a, 400, 0, 100).unwrap();
        assert_eq!(seg, vec![1; 100]);
        // Rewrite the whole object.
        p.write(a, vec![2; 400]).unwrap();
        let seg = p.read_within(a, 400, 0, 100).unwrap();
        assert_eq!(
            seg,
            vec![2; 100],
            "stale sub-object must have been discarded"
        );
    }

    #[test]
    fn whole_read_supersedes_sub_objects() {
        let mut p = pager(10_000);
        let a = p.alloc(400).unwrap();
        p.write(a, vec![3; 400]).unwrap();
        p.drop_cache().unwrap();
        p.read_within(a, 400, 100, 50).unwrap(); // cache a sub-object
        let whole = p.read(a, 400).unwrap(); // re-read whole
        assert_eq!(whole, vec![3; 400]);
        // Sub-object entry was dropped; segment reads now hit the whole.
        let before = p.counters().hits;
        p.read_within(a, 400, 100, 50).unwrap();
        assert_eq!(p.counters().hits, before + 1);
    }

    #[test]
    fn failed_writeback_reinstates_dirty_victim() {
        // Regression: a dirty victim whose writeback fails used to be
        // dropped from the cache, silently losing acknowledged writes.
        let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 20, SimDuration(1000)));
        let dev = SharedDevice::new(Box::new(inj));
        let mut p = Pager::new(dev, 250, 0);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        let c = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        p.write(b, vec![2; 100]).unwrap();
        switch.set(FaultMode::Writes);
        // Inserting c forces an eviction whose writeback fails. The error
        // surfaces, but neither the victim nor the new write may be lost.
        assert!(p.write(c, vec![3; 100]).is_err());
        switch.set(FaultMode::None);
        for (off, byte) in [(a, 1u8), (b, 2), (c, 3)] {
            assert_eq!(p.read(off, 100).unwrap(), vec![byte; 100]);
        }
    }

    #[test]
    fn failed_eviction_does_not_drop_overwrite() {
        // Regression: an overwrite hit used to surface the eviction error
        // without having applied the new bytes, leaving callers unable to
        // tell whether the write landed. Writes now always apply to the
        // cache; the error covers only the eviction writeback.
        let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 20, SimDuration(1000)));
        let dev = SharedDevice::new(Box::new(inj));
        let mut p = Pager::new(dev, 250, 0);
        let a = p.alloc(200).unwrap();
        let b = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        p.write(b, vec![2; 100]).unwrap();
        switch.set(FaultMode::Writes);
        // Growing `a` to its full allocation exceeds the budget; the
        // eviction writeback fails but the new bytes must stick.
        assert!(p.write(a, vec![9; 200]).is_err());
        switch.set(FaultMode::None);
        assert_eq!(p.read(a, 200).unwrap(), vec![9; 200]);
        assert_eq!(p.read(b, 100).unwrap(), vec![2; 100]);
    }

    /// A clean cache holding one 400-byte object of four 100-byte
    /// segments, written and then dropped so the next read comes off the
    /// device.
    fn cold_object(p: &mut Pager) -> u64 {
        let a = p.alloc(400).unwrap();
        p.write(a, (0..400).map(|i| (i / 100) as u8).collect())
            .unwrap();
        p.drop_cache().unwrap();
        a
    }

    fn pass(_: &[u8]) -> Result<(), ()> {
        Ok(())
    }

    fn fail(_: &[u8]) -> Result<(), ()> {
        Err(())
    }

    #[test]
    fn client_writes_are_verified() {
        let mut p = pager(10_000);
        let a = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        assert!(p.read(a, 100).unwrap().is_verified());
        let b = p.alloc(100).unwrap();
        p.write_through(b, vec![2; 100]).unwrap();
        assert!(p.read(b, 100).unwrap().is_verified());
        // Flushing does not change the bytes, so they stay verified.
        p.flush().unwrap();
        assert!(p.read(a, 100).unwrap().is_verified());
    }

    #[test]
    fn device_miss_is_unverified_until_its_check_passes() {
        let mut p = pager(10_000);
        let a = cold_object(&mut p);
        let miss = p.read(a, 400).unwrap();
        assert!(!miss.is_verified());
        // A hit on bytes nobody has checked is still unverified.
        assert!(!p.read(a, 400).unwrap().is_verified());
        let mut calls = 0;
        p.check_once(&miss, |b| {
            calls += 1;
            pass(b)
        })
        .unwrap();
        let hit = p.read(a, 400).unwrap();
        assert!(hit.is_verified());
        // Verified bytes skip the check.
        p.check_once(&hit, |b| {
            calls += 1;
            pass(b)
        })
        .unwrap();
        assert_eq!(calls, 1);
    }

    #[test]
    fn failed_check_never_marks() {
        let mut p = pager(10_000);
        let a = cold_object(&mut p);
        for _ in 0..3 {
            let page = p.read(a, 400).unwrap();
            assert!(!page.is_verified());
            assert_eq!(p.check_once(&page, fail), Err(()));
        }
        assert_eq!(p.counters().misses, 1, "the poisoned entry stays cached");
    }

    #[test]
    fn rewrite_discard_and_reread_reset_the_state() {
        let mut p = pager(10_000);
        let a = cold_object(&mut p);
        let page = p.read(a, 400).unwrap();
        p.check_once(&page, pass).unwrap();
        assert!(p.read(a, 400).unwrap().is_verified());
        // Re-read from the device: unverified again.
        p.drop_cache().unwrap();
        assert!(!p.read(a, 400).unwrap().is_verified());
        // Rewrite: the client's bytes are verified.
        p.write(a, vec![9; 400]).unwrap();
        assert!(p.read(a, 400).unwrap().is_verified());
        // Discard, then read back what the device holds: unverified.
        p.flush().unwrap();
        p.discard(a);
        assert!(!p.read(a, 400).unwrap().is_verified());
    }

    #[test]
    fn sub_objects_hold_their_own_state() {
        let mut p = pager(10_000);
        let a = cold_object(&mut p);
        let seg = p.read_within(a, 400, 100, 100).unwrap();
        assert!(!seg.is_verified());
        p.check_once(&seg, pass).unwrap();
        assert!(p.read_within(a, 400, 100, 100).unwrap().is_verified());
        assert!(!p.read_within(a, 400, 200, 100).unwrap().is_verified());

        // A sub-range of an unverified whole object: checking it does not
        // vouch for the rest of the object.
        let whole = p.read(a, 400).unwrap();
        assert!(!whole.is_verified());
        let part = p.read_within(a, 400, 100, 100).unwrap();
        assert!(!part.is_verified());
        p.mark_verified(&part);
        assert!(!p.read(a, 400).unwrap().is_verified());
        assert!(!p.read_within(a, 400, 100, 100).unwrap().is_verified());
        // Once the whole object is verified, so is every sub-range of it.
        p.mark_verified(&whole);
        assert!(p.read_within(a, 400, 300, 100).unwrap().is_verified());
    }

    #[test]
    fn stale_handle_cannot_mark_its_replacement() {
        let mut p = pager(10_000);
        let a = cold_object(&mut p);
        let stale = p.read(a, 400).unwrap();
        p.discard(a);
        let fresh = p.read(a, 400).unwrap();
        assert!(!fresh.is_verified());
        p.mark_verified(&stale);
        assert!(!p.read(a, 400).unwrap().is_verified());

        // The same through eviction: the handle outlives its entry.
        let mut small = pager(500);
        let c = cold_object(&mut small);
        let b = small.alloc(400).unwrap();
        let old = small.read(c, 400).unwrap();
        small.write(b, vec![1; 400]).unwrap(); // evicts c
        assert_eq!(&old[..100], &[0u8; 100][..], "evicted bytes stay readable");
        let again = small.read(c, 400).unwrap(); // evicts b, re-reads c
        small.mark_verified(&old);
        assert!(!again.is_verified());
        assert!(!small.read(c, 400).unwrap().is_verified());
    }

    #[test]
    fn hit_shares_the_cached_bytes() {
        let mut p = pager(10_000);
        let a = p.alloc(100).unwrap();
        p.write(a, vec![4; 100]).unwrap();
        let x = p.read(a, 100).unwrap();
        let y = p.read(a, 100).unwrap();
        assert_eq!(x.as_ptr(), y.as_ptr(), "hits hand out one shared image");
    }

    #[test]
    fn a_miss_gets_back_the_image_written_back_unverified() {
        // An object written back to a simulated device comes back on the
        // next miss as the very image the cache held, but the new entry is
        // still unverified: the flag belongs to the entry.
        let mut p = pager(1 << 16);
        let a = p.alloc(8192).unwrap();
        assert_eq!(a % 4096, 0);
        p.write(a, (0..8192).map(|i| i as u8).collect()).unwrap();
        let written = p.read(a, 8192).unwrap();
        assert!(written.is_verified());
        p.drop_cache().unwrap();
        let miss = p.read(a, 8192).unwrap();
        assert_eq!(p.counters().misses, 1);
        assert_eq!(miss.as_ptr(), written.as_ptr(), "the miss shares the image");
        assert!(!miss.is_verified());
        let mut calls = 0;
        p.check_once(&miss, |b| {
            calls += 1;
            pass(b)
        })
        .unwrap();
        assert_eq!(calls, 1, "a miss is checked even when its image is shared");
    }

    /// The `len` bytes at `offset` as the device holds them, read past the
    /// cache.
    fn on_device(p: &Pager, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        p.device().read(offset, &mut buf, SimTime::ZERO).unwrap();
        buf
    }

    #[test]
    fn an_edit_of_an_unshared_entry_splices_it_in_place() {
        let mut p = pager(10_000);
        let a = p.alloc(400).unwrap();
        p.write(a, vec![1; 400]).unwrap();
        let page = p.read(a, 400).unwrap();
        let image = page.as_ptr();
        p.edit(page, |b| b[7] = 9).unwrap();
        let after = p.read(a, 400).unwrap();
        assert_eq!(after.as_ptr(), image, "no copy");
        assert_eq!((after[6], after[7]), (1, 9));
        assert!(after.is_verified());
        assert_eq!(p.counters().ios, 0, "still only in the cache");

        // Another handle on the image: the edit goes to a copy, and the
        // handle keeps its bytes.
        let page = p.read(a, 400).unwrap();
        p.edit(page, |b| b[8] = 9).unwrap();
        assert_ne!(p.read(a, 400).unwrap().as_ptr(), image);
        assert_eq!((after[7], after[8]), (9, 1));
        p.flush().unwrap();
        assert_eq!(p.counters().writebacks, 1, "the edits left the entry dirty");
        assert_eq!(&on_device(&p, a, 10)[6..], &[1, 9, 9, 1]);
    }

    #[test]
    fn an_edit_of_an_image_the_device_holds_leaves_the_device_bytes_until_write_back() {
        // A 400-byte object shares no whole store page; the RAM disk keeps
        // its image all the same, and the clean entry holds it too.
        let mut p = pager(10_000);
        let a = p.alloc(400).unwrap();
        p.write(a, vec![1; 400]).unwrap();
        p.flush().unwrap();
        let page = p.read(a, 400).unwrap();
        let shared = page.as_ptr();
        p.edit(page, |b| b[0] = 2).unwrap();
        let edited = p.read(a, 400).unwrap();
        assert_ne!(edited.as_ptr(), shared, "the shared image was copied");
        assert_eq!(edited[0], 2);
        assert_eq!(on_device(&p, a, 400), vec![1; 400], "the device's bytes");
        // The copy is the cache's alone: the next edit is in place.
        let copy = edited.as_ptr();
        p.edit(edited, |b| b[1] = 2).unwrap();
        assert_eq!(p.read(a, 400).unwrap().as_ptr(), copy);
        assert_eq!(on_device(&p, a, 400), vec![1; 400]);
        p.flush().unwrap();
        assert_eq!(&on_device(&p, a, 400)[..3], &[2, 2, 1]);
    }

    #[test]
    fn an_edit_through_a_stale_page_writes_the_edited_copy() {
        let mut p = pager(10_000);
        let a = p.alloc(100).unwrap();
        p.write(a, vec![1; 100]).unwrap();
        let stale = p.read(a, 100).unwrap();
        p.write(a, vec![2; 100]).unwrap();
        // As a write of the stale bytes, edited: the edit applies to the
        // bytes the page shows, never to the image it does not name.
        p.edit(stale, |b| b[0] = 3).unwrap();
        let mut want = vec![1; 100];
        want[0] = 3;
        assert_eq!(p.read(a, 100).unwrap(), want);
    }

    #[test]
    fn a_flipped_bit_fails_the_first_check_and_a_clean_reread_passes() {
        let hdd = HddDevice::new(
            HddProfile::from_affine_targets("test disk", 2011, 1 << 30, 7200.0, 0.012, 0.000035),
            7,
        );
        let (inj, switch) = FaultInjector::new(hdd);
        let mut p = Pager::new(SharedDevice::new(Box::new(inj)), 1 << 20, 0);
        let image: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        let a = p.alloc(8192).unwrap();
        p.write(a, image.clone()).unwrap();
        let written = p.read(a, 8192).unwrap();
        p.drop_cache().unwrap();
        let intact = |b: &[u8]| if b == &image[..] { Ok(()) } else { Err(()) };

        switch.set(FaultMode::BitFlip { seed: 3, every: 1 });
        let rotten = p.read(a, 8192).unwrap();
        assert!(!rotten.is_verified());
        assert_eq!(p.check_once(&rotten, intact), Err(()));
        // The flip landed in the miss's own buffer: the image the cache
        // wrote back is untouched.
        assert_eq!(&written[..], &image[..]);

        switch.set(FaultMode::None);
        // The poisoned entry keeps failing until it is dropped.
        let hit = p.read(a, 8192).unwrap();
        assert_eq!(p.check_once(&hit, intact), Err(()));
        p.discard(a);
        let clean = p.read(a, 8192).unwrap();
        assert_eq!(p.check_once(&clean, intact), Ok(()));
        assert!(p.read(a, 8192).unwrap().is_verified());
        assert_eq!(p.counters().misses, 2);
    }

    #[test]
    fn hit_rate_computation() {
        let c = PagerCounters {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(PagerCounters::default().hit_rate(), 0.0);
    }
}
