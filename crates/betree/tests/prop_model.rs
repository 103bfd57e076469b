//! Property tests, run once per layout: the Bε engine behaves exactly like
//! `std::collections::BTreeMap` under arbitrary operation sequences —
//! message buffering, flushing, and segment IO are invisible to semantics —
//! and the two layouts agree with each other.

use dam_betree::{
    BeTree, BeTreeConfig, Engine, Layout, OptBeTree, OptConfig, Segmented, WholeNode,
};
use dam_kv::msg::CounterMerge;
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
    Drain,
    DropCache,
}

fn op_strategy() -> impl Gen<Value = Op> {
    prop_oneof![
        5 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
        2 => any::<u16>().prop_map(|k| Op::Get(k % 512)),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::Range(a % 512, b % 512)),
        1 => Just(Op::Drain),
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
            Op::Drain => tree.drain_all().unwrap(),
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

/// Pinned regression, delta-debugged from these properties: draining a
/// buffered root whose children split during the flush used to advance the
/// child cursor by a fixed step, skipping the pivots adopted mid-walk; a
/// later drain flushed messages into the wrong subtree. The drain walks
/// live indices. `(key, value-seed)` inserts; drains fire after 48 and 55.
/// The bug was budget-independent (it reproduced at 8 KiB through 1 MiB);
/// all three budgets guard the cache-pressure interaction.
#[test]
fn drain_adoption_stays_consistent_across_budgets() {
    let ops = || {
        let mut ops = Vec::new();
        for (i, &(k, v)) in DRAIN_OPS.iter().enumerate() {
            ops.push(Op::Insert(k, v));
            if i == 48 || i == 55 {
                ops.push(Op::Drain);
            }
        }
        ops
    };
    for budget in [1u64 << 13, 1 << 16, 1 << 20] {
        model_case::<WholeNode>(BeTreeConfig::new(512, 2, budget), ops()).unwrap();
        model_case::<Segmented>(OptConfig::new(2, 256, budget), ops()).unwrap();
    }
}

#[rustfmt::skip]
const DRAIN_OPS: &[(u16, u8)] = &[
    (480, 158), (503, 50), (147, 131), (105, 191), (311, 212), (484, 176), (229, 227), (155, 248),
    (466, 198), (114, 89), (434, 0), (273, 247), (210, 249), (509, 216), (64, 218), (175, 193),
    (138, 201), (321, 97), (501, 244), (48, 28), (314, 234), (353, 83), (264, 124), (322, 166),
    (115, 123), (294, 252), (112, 197), (460, 242), (166, 87), (448, 178), (87, 13), (327, 239),
    (145, 246), (206, 175), (401, 151), (418, 246), (35, 165), (456, 15), (189, 244), (447, 221),
    (98, 134), (376, 127), (195, 240), (281, 137), (267, 188), (355, 59), (292, 197), (11, 207),
    (227, 185), (109, 228), (83, 226), (366, 53), (219, 95), (39, 133), (453, 212), (397, 156),
    (188, 170), (357, 73), (361, 248), (388, 229), (168, 97), (171, 154), (157, 203), (245, 9),
    (405, 207), (62, 141),
];

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
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    let value = value_for(*v);
                    std_tree.insert(&key_from_u64(*k as u64), &value).unwrap();
                    opt_tree.insert(&key_from_u64(*k as u64), &value).unwrap();
                }
                Op::Delete(k) => {
                    std_tree.delete(&key_from_u64(*k as u64)).unwrap();
                    opt_tree.delete(&key_from_u64(*k as u64)).unwrap();
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
                Op::Drain => {
                    std_tree.drain_all().unwrap();
                    opt_tree.drain_all().unwrap();
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

// ----------------------------------------------------------------------
// Upsert semantics under arbitrary flush schedules
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Upsert {
    Add(u8, u8),
    Put(u8, u64),
    Delete(u8),
    Get(u8),
    Drain,
}

fn upsert_strategy() -> impl Gen<Value = Upsert> {
    prop_oneof![
        5 => (any::<u8>(), any::<u8>()).prop_map(|(k, d)| Upsert::Add(k % 64, d)),
        2 => (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Upsert::Put(k % 64, v)),
        1 => any::<u8>().prop_map(|k| Upsert::Delete(k % 64)),
        2 => any::<u8>().prop_map(|k| Upsert::Get(k % 64)),
        1 => Just(Upsert::Drain),
    ]
}

/// Drive a counter tree and an exact counter model (Put sets, Add
/// increments from 0 when absent, Delete removes) through the same ops.
fn counter_case<L: Layout>(mut tree: Engine<L>, ops: Vec<Upsert>) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let read = |got: Option<Vec<u8>>| got.map(|v| u64::from_le_bytes(v.try_into().unwrap()));
    for op in &ops {
        match *op {
            Upsert::Add(k, d) => {
                tree.upsert(&key_from_u64(k as u64), &(d as u64).to_le_bytes())
                    .unwrap();
                let slot = model.entry(k as u64).or_insert(0);
                *slot = slot.wrapping_add(d as u64);
            }
            Upsert::Put(k, v) => {
                tree.insert(&key_from_u64(k as u64), &v.to_le_bytes())
                    .unwrap();
                model.insert(k as u64, v);
            }
            Upsert::Delete(k) => {
                tree.delete(&key_from_u64(k as u64)).unwrap();
                model.remove(&(k as u64));
            }
            Upsert::Get(k) => {
                let got = read(tree.get(&key_from_u64(k as u64)).unwrap());
                assert_eq!(got, model.get(&(k as u64)).copied(), "key {k}");
            }
            Upsert::Drain => tree.drain_all().unwrap(),
        }
    }
    for (&k, &v) in &model {
        let got = read(tree.get(&key_from_u64(k)).unwrap());
        assert_eq!(got, Some(v), "final check key {k}");
    }
}

props! {
    cases = 32;

    #[test]
    fn whole_node_counter_upserts_match_model(ops in vec(upsert_strategy(), 1..200)) {
        let mut cfg = BeTreeConfig::new(512, 3, 1 << 16);
        cfg.merge = Box::new(CounterMerge);
        counter_case(BeTree::create(ram(), cfg).unwrap(), ops);
    }

    #[test]
    fn segmented_counter_upserts_match_model(ops in vec(upsert_strategy(), 1..200)) {
        let mut cfg = OptConfig::new(3, 384, 1 << 16);
        cfg.merge = Box::new(CounterMerge);
        counter_case(OptBeTree::create(ram(), cfg).unwrap(), ops);
    }
}
