//! Persistence integration: trees survive instance teardown via their
//! superblocks, across repeated open/mutate/persist cycles, with a model
//! checking content at every step.

use dam_stats::rng::Rng;
use refined_dam::prelude::*;
use std::collections::BTreeMap;

fn ramdisk() -> SharedDevice {
    SharedDevice::new(Box::new(RamDisk::new(1 << 27, SimDuration(500))))
}

/// One open→mutate→persist cycle; returns nothing, mutates the model.
fn mutate(
    dict: &mut dyn Dictionary,
    model: &mut BTreeMap<u64, Vec<u8>>,
    rng: &mut Rng,
    ops: usize,
) {
    for _ in 0..ops {
        let k = rng.gen_range(0..500u64);
        let key = refined_dam::kv::key_from_u64(k);
        if rng.gen_bool(0.7) {
            let v = vec![rng.next_u64() as u8; rng.gen_range(4..40)];
            dict.insert(&key, &v).unwrap();
            model.insert(k, v);
        } else {
            dict.delete(&key).unwrap();
            model.remove(&k);
        }
    }
}

fn verify(dict: &mut dyn Dictionary, model: &BTreeMap<u64, Vec<u8>>, label: &str) {
    assert_eq!(dict.len().unwrap(), model.len() as u64, "{label}: count");
    let all = dict.range(&[], &[0xFF; 17]).unwrap();
    let expect: Vec<(Vec<u8>, Vec<u8>)> = model
        .iter()
        .map(|(&k, v)| (refined_dam::kv::key_from_u64(k).to_vec(), v.clone()))
        .collect();
    assert_eq!(all, expect, "{label}: full scan");
}

#[test]
fn btree_survives_reopen_cycles() {
    let dev = ramdisk();
    let cfg = || BTreeConfig::new(1024, 1 << 18);
    let mut model = BTreeMap::new();
    let mut rng = Rng::seed_from_u64(31);
    {
        let mut t = BTree::create(dev.clone(), cfg()).unwrap();
        mutate(&mut t, &mut model, &mut rng, 800);
        t.persist().unwrap();
    }
    for cycle in 0..4 {
        let mut t = BTree::open(dev.clone(), cfg()).unwrap();
        verify(&mut t, &model, &format!("btree cycle {cycle} (pre)"));
        mutate(&mut t, &mut model, &mut rng, 400);
        t.check_invariants().unwrap();
        t.persist().unwrap();
    }
    let mut t = BTree::open(dev, cfg()).unwrap();
    verify(&mut t, &model, "btree final");
}

#[test]
fn betree_survives_reopen_cycles() {
    let dev = ramdisk();
    let cfg = || BeTreeConfig::new(2048, 4, 1 << 18);
    let mut model = BTreeMap::new();
    let mut rng = Rng::seed_from_u64(32);
    {
        let mut t = BeTree::create(dev.clone(), cfg()).unwrap();
        mutate(&mut t, &mut model, &mut rng, 800);
        t.persist().unwrap();
    }
    for cycle in 0..4 {
        let mut t = BeTree::open(dev.clone(), cfg()).unwrap();
        verify(&mut t, &model, &format!("betree cycle {cycle} (pre)"));
        mutate(&mut t, &mut model, &mut rng, 400);
        t.check_invariants().unwrap();
        t.persist().unwrap();
    }
    let mut t = BeTree::open(dev, cfg()).unwrap();
    verify(&mut t, &model, "betree final");
}

#[test]
fn opt_betree_survives_reopen_cycles() {
    let dev = ramdisk();
    let cfg = || OptConfig::new(4, 768, 1 << 18);
    let mut model = BTreeMap::new();
    let mut rng = Rng::seed_from_u64(33);
    {
        let mut t = OptBeTree::create(dev.clone(), cfg()).unwrap();
        mutate(&mut t, &mut model, &mut rng, 800);
        t.persist().unwrap();
    }
    for cycle in 0..4 {
        let mut t = OptBeTree::open(dev.clone(), cfg()).unwrap();
        verify(&mut t, &model, &format!("opt cycle {cycle} (pre)"));
        mutate(&mut t, &mut model, &mut rng, 400);
        t.check_invariants().unwrap();
        t.persist().unwrap();
    }
    let mut t = OptBeTree::open(dev, cfg()).unwrap();
    verify(&mut t, &model, "opt final");
}

#[test]
fn superblock_kinds_do_not_cross_open() {
    // A persisted B-tree must not open as a Bε-tree, and vice versa.
    let dev = ramdisk();
    let mut bt = BTree::create(dev.clone(), BTreeConfig::new(1024, 1 << 16)).unwrap();
    bt.insert(b"k", b"v").unwrap();
    bt.persist().unwrap();
    drop(bt);
    assert!(matches!(
        BeTree::open(dev.clone(), BeTreeConfig::new(1024, 4, 1 << 16)),
        Err(KvError::Corrupt(_))
    ));
    assert!(matches!(
        OptBeTree::open(dev, OptConfig::new(4, 512, 1 << 16)),
        Err(KvError::Corrupt(_))
    ));
}

/// FNV-1a over a whole device image.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn device_image(dev: &SharedDevice) -> Vec<u8> {
    let mut img = vec![0u8; dev.capacity_bytes() as usize];
    dev.read(0, &mut img, SimTime::ZERO).unwrap();
    img
}

/// The bytes each structure leaves on disk, pinned: a seeded trace on the
/// serving engine's default shard shape, then a sync. Any change to a
/// node, table or superblock format, or to which IOs a write path issues,
/// moves the digest or the device counters.
#[test]
fn on_disk_images_are_pinned() {
    use dam_check::{generate_trace, Op};
    use dam_serve::{ServeStructure, ShardConfig};
    let expected = [
        (
            ServeStructure::BTree,
            0x7ee1_e317_07e9_1689,
            (0, 501, 0, 645_120),
        ),
        (
            ServeStructure::BeTree,
            0x748d_f930_2799_9fea,
            (0, 201, 0, 499_712),
        ),
        (
            ServeStructure::OptBeTree,
            0xae6e_1512_b55c_091a,
            (1_364, 154, 1_633_280, 1_085_440),
        ),
        (
            ServeStructure::Lsm,
            0xac4d_c2d2_2d14_4b1b,
            (0, 170, 0, 452_304),
        ),
    ];
    let cfg = ShardConfig::default();
    for (structure, digest, io) in expected {
        let name = structure.name();
        let dev = SharedDevice::new(Box::new(RamDisk::new(16 << 20, SimDuration(500))));
        let mut dict = structure.create(dev.clone(), &cfg, None).unwrap();
        for op in generate_trace(801, 2_000) {
            match op {
                Op::Put { key, value } => dict.insert(&key, &value).unwrap(),
                Op::Del { key } => dict.delete(&key).unwrap(),
                Op::Get { key } => drop(dict.get(&key).unwrap()),
                Op::Range { start, end } => drop(dict.range(&start, &end).unwrap()),
                Op::SyncAll => dict.sync().unwrap(),
                Op::Len => drop(dict.len().unwrap()),
            }
        }
        dict.sync().unwrap();
        drop(dict);
        let st = dev.stats();
        assert_eq!(
            (st.reads, st.writes, st.bytes_read, st.bytes_written),
            io,
            "{name}: device IO"
        );
        assert_eq!(fnv1a(&device_image(&dev)), digest, "{name}: image digest");
        let mut reopened = structure.open(dev, &cfg).unwrap();
        assert_eq!(reopened.len().unwrap(), 588, "{name}: len after open");
    }
}

/// Allocator state in a superblock comes off the device, so it is checked
/// like any other field: a superblock with a valid frame but a high-water
/// mark past the device's end, or a free extent inside the superblock's
/// own reserved bytes, opens as `Corrupt` rather than panicking or handing
/// the superblock's bytes out as a node.
#[test]
fn superblocks_with_impossible_allocator_state_are_corrupt() {
    use dam_serve::{ServeStructure, ShardConfig};
    use refined_dam::kv::codec::{frame, unframe};
    let cfg = ShardConfig::default();
    for structure in ServeStructure::ALL {
        let name = structure.name();
        let dev = SharedDevice::new(Box::new(RamDisk::new(16 << 20, SimDuration(500))));
        structure
            .create(dev.clone(), &cfg, None)
            .unwrap()
            .sync()
            .unwrap();
        let img = device_image(&dev);
        let payload = unframe(&img).unwrap();
        // A fresh tree has freed nothing: the payload ends with the
        // high-water mark and an empty free-list count.
        let (fields, alloc) = payload.split_at(payload.len() - 12);
        assert_eq!(alloc[8..], [0; 4], "{name}: free-list count");
        let high_water = u64::from_le_bytes(alloc[..8].try_into().unwrap());
        let beyond = dev.capacity_bytes() + 4_096;
        let mut past_end = fields.to_vec();
        past_end.extend_from_slice(&beyond.to_le_bytes());
        past_end.extend_from_slice(&0u32.to_le_bytes());
        let mut in_superblock = fields.to_vec();
        in_superblock.extend_from_slice(&high_water.to_le_bytes());
        in_superblock.extend_from_slice(&1u32.to_le_bytes()); // one list
        in_superblock.extend_from_slice(&1_024u64.to_le_bytes()); // of 1 KiB extents
        in_superblock.extend_from_slice(&1u32.to_le_bytes()); // holding one
        in_superblock.extend_from_slice(&0u64.to_le_bytes()); // at offset 0
        for (what, payload) in [("past_end", past_end), ("in_superblock", in_superblock)] {
            dev.write(0, &frame(&payload), SimTime::ZERO).unwrap();
            match structure.open(dev.clone(), &cfg) {
                Err(KvError::Corrupt(_)) => {}
                Err(e) => panic!("{name} {what}: wrong error {e}"),
                Ok(_) => panic!("{name} {what}: opened"),
            }
        }
    }
}

/// The Bε superblocks are at version 2, which stores no live-key count: an
/// image still at version 1 opens as `Corrupt` instead of being read with
/// its fields shifted.
#[test]
fn betree_superblocks_of_version_1_are_corrupt() {
    use dam_serve::{ServeStructure, ShardConfig};
    use refined_dam::kv::codec::{frame, unframe};
    let cfg = ShardConfig::default();
    for structure in [ServeStructure::BeTree, ServeStructure::OptBeTree] {
        let name = structure.name();
        let dev = SharedDevice::new(Box::new(RamDisk::new(16 << 20, SimDuration(500))));
        let mut dict = structure.create(dev.clone(), &cfg, None).unwrap();
        dict.insert(b"k", b"v").unwrap();
        dict.sync().unwrap();
        drop(dict);
        // The payload opens with the magic (4 bytes) and the version.
        let mut payload = unframe(&device_image(&dev)).unwrap().to_vec();
        assert_eq!(payload[4], 2, "{name}: version");
        payload[4] = 1;
        dev.write(0, &frame(&payload), SimTime::ZERO).unwrap();
        match structure.open(dev, &cfg) {
            Err(KvError::Corrupt(e)) => assert!(e.contains("version"), "{name}: {e}"),
            Err(e) => panic!("{name}: wrong error {e}"),
            Ok(_) => panic!("{name}: opened"),
        }
    }
}

/// Frame version 2 replaced the records' length prefixes with an
/// end-offset directory per run, so a device written at frame version 1
/// opens as `Corrupt`, for every structure, instead of being read in the
/// wrong layout: here, its superblock sealed again at version 1 with a
/// checksum that holds.
#[test]
fn frames_of_version_1_are_corrupt() {
    use dam_serve::{ServeStructure, ShardConfig};
    use refined_dam::kv::codec::{crc32, unframe, CodecError, FRAME_OVERHEAD, FRAME_VERSION};
    assert_eq!(FRAME_VERSION, 2);
    let cfg = ShardConfig::default();
    for structure in ServeStructure::ALL {
        let name = structure.name();
        let dev = SharedDevice::new(Box::new(RamDisk::new(16 << 20, SimDuration(500))));
        let mut dict = structure.create(dev.clone(), &cfg, None).unwrap();
        dict.insert(b"k", b"v").unwrap();
        dict.sync().unwrap();
        drop(dict);
        let img = device_image(&dev);
        let framed = FRAME_OVERHEAD + unframe(&img).unwrap().len();
        let mut old = img[..framed].to_vec();
        old[8] = 1;
        let crc = crc32(&old[4..]);
        old[..4].copy_from_slice(&crc.to_le_bytes());
        assert!(
            matches!(unframe(&old), Err(CodecError::Invalid(_))),
            "{name}"
        );
        dev.write(0, &old, SimTime::ZERO).unwrap();
        match structure.open(dev, &cfg) {
            Err(KvError::Corrupt(e)) => assert!(e.contains("frame version"), "{name}: {e}"),
            Err(e) => panic!("{name}: wrong error {e}"),
            Ok(_) => panic!("{name}: opened"),
        }
    }
}
