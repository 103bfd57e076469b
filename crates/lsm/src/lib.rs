//! A leveled log-structured merge tree over the simulated storage stack —
//! the LevelDB stand-in.
//!
//! The paper's abstract and §1 put LSM-trees next to Bε-trees as the
//! write-optimized dictionaries taking over from B-trees, and pose
//! "LevelDB's LSM-tree uses 2MiB SSTables for all workloads" as one of the
//! node-size puzzles the DAM cannot explain. This crate supplies that third
//! structure so the `lsm_sstable_size` and `wod_comparison` experiments can
//! put it on the same devices as the trees.
//!
//! Structure (classic leveled compaction):
//!
//! * a byte-budgeted in-memory **memtable** absorbs writes;
//! * on overflow it is written as a sorted **SSTable** into level 0;
//! * level 0 holds up to a few overlapping runs; deeper levels hold
//!   non-overlapping tables, each level `T×` larger than the previous;
//! * when a level outgrows its budget, one table is merged with the
//!   overlapping tables one level down.
//!
//! IO granularity follows LevelDB: an SSTable's data region is written
//! **once, sequentially** (one big IO — on the affine model, one setup cost
//! amortized over the whole table, which is exactly why big SSTables win);
//! point queries read **one block** via the pager's sub-range reads.

mod memkey;
pub mod sstable;
pub mod tree;

pub use sstable::{BlockMeta, SsTable};
pub use tree::{LsmConfig, LsmTree, MANIFEST_BYTES};
