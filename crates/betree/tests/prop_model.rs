//! Property tests, run once per layout: the Bε engine behaves exactly like
//! `std::collections::BTreeMap` under arbitrary operation sequences —
//! message buffering, flushing, and segment IO are invisible to semantics —
//! and the two layouts agree with each other.

use dam_betree::{
    BeTree, BeTreeConfig, Engine, Layout, OptBeTree, OptConfig, Segmented, WholeNode,
};
use dam_kv::{key_from_u64, Dictionary};
use dam_stats::prop::*;
use dam_storage::{RamDisk, SharedDevice, SimDuration};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u8),
    Delete(u16),
    Get(u16),
    Range(u16, u16),
    Len,
    DropCache,
}

fn op_strategy() -> impl Gen<Value = Op> {
    prop_oneof![
        5 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
        2 => any::<u16>().prop_map(|k| Op::Get(k % 512)),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::Range(a % 512, b % 512)),
        1 => Just(Op::Len),
        1 => Just(Op::DropCache),
    ]
}

fn value_for(v: u8) -> Vec<u8> {
    vec![v; 8 + (v as usize % 16)]
}

fn ram() -> SharedDevice {
    SharedDevice::new(Box::new(RamDisk::new(1 << 26, SimDuration(100))))
}

fn pairs(model: &BTreeMap<u64, Vec<u8>>) -> Vec<(Vec<u8>, Vec<u8>)> {
    model
        .iter()
        .map(|(&k, v)| (key_from_u64(k).to_vec(), v.clone()))
        .collect()
}

/// Drive a fresh tree and the model through `ops`, then audit the count,
/// a full scan and the tree's invariants.
fn model_case<L: Layout>(cfg: L::Config, ops: Vec<Op>) -> CaseResult {
    let mut tree = Engine::<L>::create(ram(), cfg).unwrap();
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
                let want: BTreeMap<u64, Vec<u8>> =
                    model.range(lo..hi).map(|(&k, v)| (k, v.clone())).collect();
                prop_assert_eq!(got, pairs(&want));
            }
            Op::Len => prop_assert_eq!(tree.len().unwrap(), model.len() as u64),
            Op::DropCache => tree.drop_cache().unwrap(),
        }
    }
    prop_assert_eq!(tree.len().unwrap(), model.len() as u64);
    prop_assert_eq!(tree.range(&[], &[0xFF; 17]).unwrap(), pairs(&model));
    tree.check_invariants().unwrap();
    Ok(())
}

/// A case `segmented_equals_btreemap` once failed on: dropping the cache
/// of an empty tree.
#[test]
fn segmented_drop_cache_on_empty_tree() {
    model_case::<Segmented>(OptConfig::new(4, 1024, 1 << 16), vec![Op::DropCache]).unwrap();
}

props! {
    cases = 40;

    #[test]
    fn whole_node_equals_btreemap(
        ops in vec(op_strategy(), 1..250),
        node_bytes in select(vec![512usize, 1024, 4096]),
        fanout in 2usize..8,
    ) {
        model_case::<WholeNode>(BeTreeConfig::new(node_bytes, fanout, 1 << 16), ops)?;
    }

    #[test]
    fn segmented_equals_btreemap(
        ops in vec(op_strategy(), 1..250),
        seg_bytes in select(vec![256usize, 512, 1024]),
        fanout in 2usize..8,
    ) {
        model_case::<Segmented>(OptConfig::new(fanout, seg_bytes, 1 << 16), ops)?;
    }

    #[test]
    fn variants_agree_with_each_other(
        ops in vec(op_strategy(), 1..150),
    ) {
        let mut std_tree = BeTree::create(ram(), BeTreeConfig::new(1024, 4, 1 << 16)).unwrap();
        let mut opt_tree = OptBeTree::create(ram(), OptConfig::new(4, 512, 1 << 16)).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    let value = value_for(*v);
                    std_tree.insert(&key_from_u64(*k as u64), &value).unwrap();
                    opt_tree.insert(&key_from_u64(*k as u64), &value).unwrap();
                    model.insert(*k as u64, value);
                }
                Op::Delete(k) => {
                    std_tree.delete(&key_from_u64(*k as u64)).unwrap();
                    opt_tree.delete(&key_from_u64(*k as u64)).unwrap();
                    model.remove(&(*k as u64));
                }
                Op::Get(k) => {
                    let a = std_tree.get(&key_from_u64(*k as u64)).unwrap();
                    let b = opt_tree.get(&key_from_u64(*k as u64)).unwrap();
                    prop_assert_eq!(a, b);
                }
                Op::Range(a, b) => {
                    let (lo, hi) = ((*a.min(b)) as u64, (*a.max(b)) as u64);
                    let x = std_tree.range(&key_from_u64(lo), &key_from_u64(hi)).unwrap();
                    let y = opt_tree.range(&key_from_u64(lo), &key_from_u64(hi)).unwrap();
                    prop_assert_eq!(x, y);
                }
                Op::Len => {
                    prop_assert_eq!(std_tree.len().unwrap(), model.len() as u64);
                    prop_assert_eq!(opt_tree.len().unwrap(), model.len() as u64);
                }
                Op::DropCache => {
                    std_tree.drop_cache().unwrap();
                    opt_tree.drop_cache().unwrap();
                }
            }
        }
        prop_assert_eq!(std_tree.len().unwrap(), opt_tree.len().unwrap());
    }
}
