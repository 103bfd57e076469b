//! Property tests: the LSM-tree behaves exactly like
//! `std::collections::BTreeMap` under arbitrary operation sequences, across
//! memtable flushes, L0 spills, and multi-level compactions.

use dam_kv::{key_from_u64, Dictionary};
use dam_lsm::{LsmConfig, LsmTree};
use dam_stats::prop::*;
use dam_storage::{RamDisk, SharedDevice, SimDuration};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u8),
    Delete(u16),
    Get(u16),
    Range(u16, u16),
    Sync,
    DropCache,
}

fn op_strategy() -> impl Gen<Value = Op> {
    prop_oneof![
        5 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
        2 => any::<u16>().prop_map(|k| Op::Get(k % 512)),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::Range(a % 512, b % 512)),
        1 => Just(Op::Sync),
        1 => Just(Op::DropCache),
    ]
}

fn value_for(v: u8) -> Vec<u8> {
    vec![v; 8 + (v as usize % 24)]
}

/// One step of a schedule over a key space of 48, small enough that most
/// puts overwrite and most deletes hit a key held in an older run.
#[derive(Debug, Clone)]
enum Step {
    Put(u8, u8),
    Del(u8),
    /// Write the memtable out as an L0 run, compacting when L0 is full.
    Flush,
    /// A range at bounds that may be equal, inverted, or outside the keys.
    Range(Bound, Bound),
    Len,
}

#[derive(Debug, Clone)]
enum Bound {
    Key(u8),
    Empty,
    Top,
}

impl Bound {
    fn bytes(&self) -> Vec<u8> {
        match self {
            Bound::Key(k) => key_from_u64(*k as u64).to_vec(),
            Bound::Empty => Vec::new(),
            Bound::Top => vec![0xFF; 17],
        }
    }
}

fn bound() -> impl Gen<Value = Bound> {
    prop_oneof![
        8 => (0u8..50).prop_map(Bound::Key),
        1 => Just(Bound::Empty),
        1 => Just(Bound::Top),
    ]
}

fn step() -> impl Gen<Value = Step> {
    prop_oneof![
        6 => (0u8..48, any::<u8>()).prop_map(|(k, v)| Step::Put(k, v)),
        3 => (0u8..48).prop_map(Step::Del),
        2 => Just(Step::Flush),
        3 => (bound(), bound()).prop_map(|(a, b)| Step::Range(a, b)),
        1 => Just(Step::Len),
    ]
}

props! {
    cases = 40;

    #[test]
    fn lsm_equals_btreemap(
        ops in vec(op_strategy(), 1..250),
        memtable_bytes in select(vec![256usize, 512, 2048]),
    ) {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 26, SimDuration(100))));
        let mut cfg = LsmConfig::new(1024, 1 << 16);
        cfg.memtable_bytes = memtable_bytes;
        cfg.block_bytes = 256;
        cfg.level_ratio = 3;
        cfg.l0_limit = 2;
        let mut tree = LsmTree::create(dev, cfg).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let value = value_for(v);
                    tree.insert(&key_from_u64(k as u64), &value).unwrap();
                    model.insert(k as u64, value);
                }
                Op::Delete(k) => {
                    tree.delete(&key_from_u64(k as u64)).unwrap();
                    model.remove(&(k as u64));
                }
                Op::Get(k) => {
                    let got = tree.get(&key_from_u64(k as u64)).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&(k as u64)));
                }
                Op::Range(a, b) => {
                    let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
                    let got = tree.range(&key_from_u64(lo), &key_from_u64(hi)).unwrap();
                    let expect: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(lo..hi)
                        .map(|(&k, v)| (key_from_u64(k).to_vec(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, expect);
                }
                Op::Sync => tree.sync().unwrap(),
                Op::DropCache => tree.drop_cache().unwrap(),
            }
        }

        prop_assert_eq!(tree.check_invariants().unwrap(), model.len() as u64);
        let all = tree.range(&[], &[0xFF; 17]).unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(&k, v)| (key_from_u64(k).to_vec(), v.clone())).collect();
        prop_assert_eq!(all, expect);
    }

    /// `range` and `len` merge the memtable and every run: a tombstone in
    /// a newer run hides an older put, and the memtable wins over every run.
    #[test]
    fn range_and_len_equal_a_model(
        steps in vec(step(), 1..300),
        empty_values in any::<bool>(),
    ) {
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 26, SimDuration(100))));
        let mut cfg = LsmConfig::new(512, 1 << 16);
        cfg.memtable_bytes = 1 << 16; // only `Flush` writes the memtable out
        cfg.block_bytes = 128;
        cfg.level_ratio = 2;
        cfg.l0_limit = 2;
        let mut tree = LsmTree::create(dev, cfg).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for step in steps {
            match step {
                Step::Put(k, v) => {
                    let key = key_from_u64(k as u64).to_vec();
                    let value = if empty_values && v % 2 == 0 { Vec::new() } else { value_for(v) };
                    tree.insert(&key, &value).unwrap();
                    model.insert(key, value);
                }
                Step::Del(k) => {
                    let key = key_from_u64(k as u64).to_vec();
                    tree.delete(&key).unwrap();
                    model.remove(&key);
                }
                Step::Flush => tree.flush_memtable().unwrap(),
                Step::Range(a, b) => {
                    let (lo, hi) = (a.bytes(), b.bytes());
                    let got = tree.range(&lo, &hi).unwrap();
                    let want: Vec<(Vec<u8>, Vec<u8>)> = if lo < hi {
                        model.range(lo.clone()..hi.clone()).map(|(k, v)| (k.clone(), v.clone())).collect()
                    } else {
                        Vec::new()
                    };
                    prop_assert_eq!(got, want, "range {:?}..{:?}", lo, hi);
                }
                Step::Len => prop_assert_eq!(tree.len().unwrap(), model.len() as u64),
            }
        }
        prop_assert_eq!(tree.len().unwrap(), model.len() as u64);
        prop_assert_eq!(tree.check_invariants().unwrap(), model.len() as u64);
    }

    #[test]
    fn compaction_preserves_everything(keys in btree_map(any::<u16>(), any::<u8>(), 1..400)) {
        // Insert enough duplicates/volume to force several compactions,
        // then verify exact content.
        let dev = SharedDevice::new(Box::new(RamDisk::new(1 << 26, SimDuration(100))));
        let mut cfg = LsmConfig::new(512, 1 << 16);
        cfg.memtable_bytes = 256;
        cfg.block_bytes = 128;
        cfg.level_ratio = 2;
        cfg.l0_limit = 1;
        let mut tree = LsmTree::create(dev, cfg).unwrap();
        for (&k, &v) in &keys {
            tree.insert(&key_from_u64(k as u64), &value_for(v)).unwrap();
        }
        for (&k, &v) in &keys {
            let got = tree.get(&key_from_u64(k as u64)).unwrap();
            prop_assert_eq!(got, Some(value_for(v)), "key {}", k);
        }
        prop_assert_eq!(tree.len().unwrap(), keys.len() as u64);
    }
}
