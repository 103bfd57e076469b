//! The IO that B-tree, standard Bε-tree and LSM-tree writes make, pinned to
//! fixed values.
//!
//! A seeded mix of inserts, overwrites and deletes runs against each tree on
//! a RAM disk with a cache of a few nodes, so misses, evictions, write-backs,
//! splits, merges and flushes all happen (for the LSM-tree: memtable
//! flushes, L0 and deeper compactions, and tombstones dropped at the bottom
//! level). The test then compares the pager
//! counters, the device statistics and the summed per-op cost with values
//! recorded from a known-good build. A change to how a tree edits its nodes
//! must leave every one of them unchanged: the simulated cost of an
//! operation depends on which pages it reads and writes, in which order, and
//! on nothing else.
//!
//! The ops come from `dam_stats::rng::SplitMix64` and its modulo `below`,
//! which the expected values are pinned to.

use std::collections::BTreeMap;

use dam_betree::{BeTree, BeTreeConfig};
use dam_btree::{BTree, BTreeConfig};
use dam_cache::PagerCounters;
use dam_kv::{key_from_u64, Dictionary, OpCost};
use dam_lsm::{LsmConfig, LsmTree};
use dam_stats::rng::SplitMix64;
use dam_storage::{DeviceStats, RamDisk, SharedDevice, SimDuration};

fn device() -> SharedDevice {
    SharedDevice::new(Box::new(RamDisk::new(1 << 26, SimDuration(1000))))
}

/// Run the mix against `dict` and an oracle. Returns, after each of the two
/// phases, the per-op cost summed so far and what `probe` reports.
///
/// A growth phase (70% puts over 1,500 keys) is followed by a shrink phase
/// (90% deletes); puts hit existing keys often enough to overwrite, and
/// deletes often miss.
fn drive<D: Dictionary, P>(
    dict: &mut D,
    mut probe: impl FnMut(&mut D) -> P,
    seed: u64,
) -> [(OpCost, P); 2] {
    let mut rng = SplitMix64::new(seed);
    let mut oracle = BTreeMap::new();
    let mut total = OpCost::default();
    let phases = [(4_000, 70), (6_000, 10)].map(|(ops, put_pct)| {
        for _ in 0..ops {
            let key = key_from_u64(rng.below(1_500)).to_vec();
            if rng.below(100) < put_pct {
                let len = 8 + rng.below(120) as usize;
                let value = vec![rng.next_u64() as u8; len];
                dict.insert(&key, &value).unwrap();
                oracle.insert(key, value);
            } else {
                dict.delete(&key).unwrap();
                oracle.remove(&key);
            }
            total.add(&dict.last_op_cost());
        }
        (total, probe(dict))
    });
    for (k, v) in &oracle {
        assert_eq!(dict.get(k).unwrap().as_ref(), Some(v));
    }
    assert_eq!(dict.len().unwrap(), oracle.len() as u64);
    phases
}

#[test]
fn btree_write_path_io_is_pinned() {
    let dev = device();
    let mut tree = BTree::create(dev.clone(), BTreeConfig::new(1024, 8 * 1024)).unwrap();
    let [(_, h0), (cost, h1)] = drive(&mut tree, |t| t.height(), 0x5eed_0001);
    let heights = [h0, h1];
    tree.flush().unwrap();
    // Splits grew the tree and merges shrank it again.
    assert_eq!(heights, [3, 2]);
    assert_eq!(
        tree.pager().counters(),
        PagerCounters {
            hits: 19_444,
            misses: 11_466,
            evictions: 11_487,
            writebacks: 5_313,
            ios: 16_779,
            bytes_read: 11_741_184,
            bytes_written: 5_440_512,
            io_time_ns: 16_779_000,
        }
    );
    assert_eq!(
        dev.stats(),
        DeviceStats {
            reads: 11_466,
            writes: 5_313,
            bytes_read: 11_741_184,
            bytes_written: 5_440_512,
            service_ns: 16_779_000,
        }
    );
    assert_eq!(
        cost,
        OpCost {
            ios: 16_750,
            bytes_read: 11_713_536,
            bytes_written: 5_438_464,
            io_time_ns: 16_750_000,
        }
    );
}

#[test]
fn betree_write_path_io_is_pinned() {
    let dev = device();
    let mut tree = BeTree::create(dev.clone(), BeTreeConfig::new(2048, 4, 16 * 1024)).unwrap();
    let [(_, h0), (cost, h1)] = drive(&mut tree, |t| t.height(), 0x5eed_0002);
    let heights = [h0, h1];
    tree.flush().unwrap();
    // Root buffers filled, flushed to children, and split them.
    assert_eq!(heights, [4, 4]);
    assert_eq!(
        tree.pager().counters(),
        PagerCounters {
            hits: 10_869,
            misses: 1_719,
            evictions: 1_812,
            writebacks: 1_639,
            ios: 3_358,
            bytes_read: 3_520_512,
            bytes_written: 3_356_672,
            io_time_ns: 3_358_000,
        }
    );
    assert_eq!(
        dev.stats(),
        DeviceStats {
            reads: 1_719,
            writes: 1_639,
            bytes_read: 3_520_512,
            bytes_written: 3_356_672,
            service_ns: 3_358_000,
        }
    );
    assert_eq!(
        cost,
        OpCost {
            ios: 3_169,
            bytes_read: 3_149_824,
            bytes_written: 3_340_288,
            io_time_ns: 3_169_000,
        }
    );
}

/// What the LSM-tree case checks after each phase.
#[derive(Debug, PartialEq)]
struct LsmPhase {
    cost: OpCost,
    pager: PagerCounters,
    device: DeviceStats,
    tables: Vec<usize>,
}

#[test]
fn lsm_write_path_io_is_pinned() {
    let dev = device();
    let mut cfg = LsmConfig::new(2048, 8 * 1024);
    cfg.memtable_bytes = 1024;
    cfg.block_bytes = 256;
    cfg.l0_limit = 2;
    cfg.level_ratio = 3;
    let mut tree = LsmTree::create(dev.clone(), cfg).unwrap();
    let phases = drive(
        &mut tree,
        |t| (t.pager().counters(), dev.stats(), t.level_table_counts()),
        0x5eed_0003,
    )
    .map(|(cost, (pager, device, tables))| LsmPhase {
        cost,
        pager,
        device,
        tables,
    });
    // Every table is written through once, so nothing is ever written back.
    assert_eq!(
        phases,
        [
            LsmPhase {
                cost: OpCost {
                    ios: 25_484,
                    bytes_read: 4_721_562,
                    bytes_written: 5_414_186,
                    io_time_ns: 25_484_000,
                },
                pager: PagerCounters {
                    hits: 2_860,
                    misses: 22_701,
                    evictions: 25_355,
                    writebacks: 0,
                    ios: 25_484,
                    bytes_read: 4_721_562,
                    bytes_written: 5_414_186,
                    io_time_ns: 25_484_000,
                },
                device: DeviceStats {
                    reads: 22_701,
                    writes: 2_783,
                    bytes_read: 4_721_562,
                    bytes_written: 5_414_186,
                    service_ns: 25_484_000,
                },
                tables: vec![1, 4, 9, 26, 13],
            },
            LsmPhase {
                cost: OpCost {
                    ios: 36_337,
                    bytes_read: 6_865_560,
                    bytes_written: 7_922_643,
                    io_time_ns: 36_337_000,
                },
                pager: PagerCounters {
                    hits: 4_524,
                    misses: 32_240,
                    evictions: 36_150,
                    writebacks: 0,
                    ios: 36_337,
                    bytes_read: 6_865_560,
                    bytes_written: 7_922_643,
                    io_time_ns: 36_337_000,
                },
                device: DeviceStats {
                    reads: 32_240,
                    writes: 4_097,
                    bytes_read: 6_865_560,
                    bytes_written: 7_922_643,
                    service_ns: 36_337_000,
                },
                tables: vec![2, 3, 11, 23, 13],
            },
        ]
    );
}
