//! The cache of size `M`: a byte-budgeted write-back buffer pool between the
//! dictionaries and the simulated devices.
//!
//! The DAM hierarchy (§2.1) is a cache of `M` words over a block device; the
//! paper's experiments cap RAM at 4 GiB over 16 GB of data so "most of the
//! database \[is\] outside of RAM" (§7). This crate provides that layer:
//!
//! * [`LruList`] — an index-linked intrusive LRU list (no per-access
//!   allocation),
//! * [`Allocator`] — a bump-plus-free-list space allocator for node images,
//! * [`Pager`] — the buffer pool itself: variable-size cached objects, LRU
//!   eviction under a byte budget, dirty write-back, and the
//!   simulated clock that advances as misses hit the device, and the cost
//!   window each dictionary operation runs in,
//! * [`Superblock`] — the one superblock envelope (frame, magic, version,
//!   allocator state) every tree persists its root through.

pub mod alloc;
pub mod lru;
pub mod pager;
pub mod superblock;

pub use alloc::Allocator;
pub use lru::LruList;
pub use pager::{CostSnapshot, Page, Pager, PagerCounters, PagerError};
pub use superblock::{Superblock, SuperblockIo};
