//! Failure injection through the full stack: device faults must surface as
//! typed `KvError` errors from every dictionary — never panics, never
//! silent corruption — and faults must leave the structure fully usable
//! once they clear.
//!
//! Coverage: hard read/write faults, countdown (`AfterIos`) faults and the
//! cost a failed operation reports,
//! intermittent (`Transient`) faults absorbed by [`RetryingDevice`], torn
//! writes repaired by re-flush, and silent bit rot caught by the
//! checksummed block frames as `KvError::Corrupt`.

use refined_dam::obs::PagedDict;
use refined_dam::prelude::*;
use refined_dam::storage::{
    FaultInjector, FaultMode, FaultSwitch, RamDisk, RetryPolicy, RetryingDevice,
};

fn faulty_device() -> (SharedDevice, FaultSwitch) {
    let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 26, SimDuration(100)));
    (SharedDevice::new(Box::new(inj)), switch)
}

fn preload(dict: &mut dyn Dictionary, n: u64) {
    for i in 0..n {
        let k = refined_dam::kv::key_from_u64(i);
        dict.insert(&k, &[(i % 251) as u8; 50]).unwrap();
    }
    dict.sync().unwrap();
}

fn check_read_fault_recovery(mut dict: Box<dyn Dictionary>, switch: FaultSwitch, label: &str) {
    preload(dict.as_mut(), 2_000);
    // Cold cache so queries must touch the device.
    // (sync above flushed; now fail all reads.)
    switch.set(FaultMode::Reads);
    let key = refined_dam::kv::key_from_u64(1_234);
    // Some reads may be served from cache; force enough traffic that the
    // device is hit.
    let mut saw_error = false;
    for i in 0..2_000u64 {
        let k = refined_dam::kv::key_from_u64((i * 37) % 2_000);
        match dict.get(&k) {
            Ok(_) => {}
            Err(KvError::Storage(_)) => {
                saw_error = true;
                break;
            }
            Err(other) => panic!("{label}: unexpected error kind: {other}"),
        }
    }
    assert!(saw_error, "{label}: read fault never surfaced");
    // Clear the fault: everything works again and data is intact.
    switch.set(FaultMode::None);
    let got = dict.get(&key).unwrap();
    assert_eq!(
        got,
        Some(vec![(1_234 % 251) as u8; 50]),
        "{label}: data lost after fault"
    );
    let all = dict.range(&[], &[0xFF; 17]).unwrap();
    assert_eq!(all.len(), 2_000, "{label}: range after recovery");
}

#[test]
fn btree_read_faults_surface_and_recover() {
    let (dev, switch) = faulty_device();
    let tree = BTree::create(dev, BTreeConfig::new(4096, 1 << 16)).unwrap();
    check_read_fault_recovery(Box::new(tree), switch, "btree");
}

#[test]
fn betree_read_faults_surface_and_recover() {
    let (dev, switch) = faulty_device();
    let tree = BeTree::create(dev, BeTreeConfig::new(4096, 4, 1 << 16)).unwrap();
    check_read_fault_recovery(Box::new(tree), switch, "betree");
}

#[test]
fn opt_betree_read_faults_surface_and_recover() {
    let (dev, switch) = faulty_device();
    let tree = OptBeTree::create(dev, OptConfig::new(4, 1024, 1 << 16)).unwrap();
    check_read_fault_recovery(Box::new(tree), switch, "opt-betree");
}

#[test]
fn lsm_read_faults_surface_and_recover() {
    let (dev, switch) = faulty_device();
    let mut cfg = LsmConfig::new(4096, 1 << 16);
    cfg.block_bytes = 512;
    let tree = LsmTree::create(dev, cfg).unwrap();
    check_read_fault_recovery(Box::new(tree), switch, "lsm");
}

#[test]
fn write_faults_surface_as_storage_errors() {
    let (dev, switch) = faulty_device();
    let mut tree = BTree::create(dev, BTreeConfig::new(1024, 1 << 12)).unwrap();
    // Tiny cache: inserts must evict (write) soon after the fault arms.
    switch.set(FaultMode::Writes);
    let mut saw_error = false;
    for i in 0..10_000u64 {
        let k = refined_dam::kv::key_from_u64(i);
        match tree.insert(&k, &[1u8; 100]) {
            Ok(()) => {}
            Err(KvError::Storage(_)) => {
                saw_error = true;
                break;
            }
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
    assert!(saw_error, "write fault never surfaced");
    assert!(switch.stats().faults_injected >= 1);
}

/// Write faults during `sync` surface as `KvError::Storage`, the dirty
/// pages stay cached, and a retried `sync` after the fault clears commits
/// everything — no data loss, no panic.
fn check_write_fault_recovery(mut dict: Box<dyn Dictionary>, switch: FaultSwitch, label: &str) {
    // Cache is large enough that inserts alone do no device IO; all
    // writes happen inside sync.
    for i in 0..500u64 {
        let k = refined_dam::kv::key_from_u64(i);
        dict.insert(&k, &[(i % 251) as u8; 50]).unwrap();
    }
    switch.set(FaultMode::Writes);
    match dict.sync() {
        Err(KvError::Storage(_)) => {}
        Err(other) => panic!("{label}: unexpected error kind: {other}"),
        Ok(()) => panic!("{label}: sync succeeded with writes failing"),
    }
    let stats = switch.stats();
    assert!(stats.faults_injected >= 1, "{label}: no faults counted");
    assert!(
        stats.ios_seen >= stats.faults_injected,
        "{label}: counter skew"
    );
    // Fault clears: the retried sync must commit and the data survive.
    switch.set(FaultMode::None);
    dict.sync()
        .unwrap_or_else(|e| panic!("{label}: retried sync failed: {e}"));
    let all = dict.range(&[], &[0xFF; 17]).unwrap();
    assert_eq!(all.len(), 500, "{label}: data lost across failed sync");
}

#[test]
fn btree_write_fault_recovery() {
    let (dev, switch) = faulty_device();
    let tree = BTree::create(dev, BTreeConfig::new(4096, 1 << 20)).unwrap();
    check_write_fault_recovery(Box::new(tree), switch, "btree");
}

#[test]
fn betree_write_fault_recovery() {
    let (dev, switch) = faulty_device();
    let tree = BeTree::create(dev, BeTreeConfig::new(4096, 4, 1 << 20)).unwrap();
    check_write_fault_recovery(Box::new(tree), switch, "betree");
}

#[test]
fn opt_betree_write_fault_recovery() {
    let (dev, switch) = faulty_device();
    let tree = OptBeTree::create(dev, OptConfig::new(4, 1024, 1 << 20)).unwrap();
    check_write_fault_recovery(Box::new(tree), switch, "opt-betree");
}

#[test]
fn lsm_write_fault_recovery() {
    let (dev, switch) = faulty_device();
    let mut cfg = LsmConfig::new(4096, 1 << 20);
    cfg.block_bytes = 512;
    let tree = LsmTree::create(dev, cfg).unwrap();
    check_write_fault_recovery(Box::new(tree), switch, "lsm");
}

/// `AfterIos(k)`: the structure works until IO #k, then every operation
/// fails with a typed error; clearing the fault restores full service.
fn check_after_ios_recovery(mut dict: Box<dyn Dictionary>, switch: FaultSwitch, label: &str) {
    for i in 0..500u64 {
        let k = refined_dam::kv::key_from_u64(i);
        dict.insert(&k, &[(i % 251) as u8; 50]).unwrap();
    }
    // Let the first sync IO through, then cut the cord mid-flush. Every
    // dictionary's sync takes at least two IOs (data + superblock).
    switch.set(FaultMode::AfterIos(1));
    match dict.sync() {
        Err(KvError::Storage(_)) => {}
        Err(other) => panic!("{label}: unexpected error kind: {other}"),
        Ok(()) => panic!("{label}: sync finished in a single IO"),
    }
    let stats = switch.stats();
    assert!(stats.ios_seen > 1, "{label}: fault fired too early");
    assert!(stats.faults_injected >= 1, "{label}: no faults counted");
    switch.set(FaultMode::None);
    dict.sync()
        .unwrap_or_else(|e| panic!("{label}: retried sync failed: {e}"));
    let all = dict.range(&[], &[0xFF; 17]).unwrap();
    assert_eq!(all.len(), 500, "{label}: data lost across partial flush");
}

#[test]
fn btree_after_ios_recovery() {
    let (dev, switch) = faulty_device();
    let tree = BTree::create(dev, BTreeConfig::new(4096, 1 << 20)).unwrap();
    check_after_ios_recovery(Box::new(tree), switch, "btree");
}

#[test]
fn betree_after_ios_recovery() {
    let (dev, switch) = faulty_device();
    let tree = BeTree::create(dev, BeTreeConfig::new(4096, 4, 1 << 20)).unwrap();
    check_after_ios_recovery(Box::new(tree), switch, "betree");
}

#[test]
fn opt_betree_after_ios_recovery() {
    let (dev, switch) = faulty_device();
    let tree = OptBeTree::create(dev, OptConfig::new(4, 1024, 1 << 20)).unwrap();
    check_after_ios_recovery(Box::new(tree), switch, "opt-betree");
}

#[test]
fn lsm_after_ios_recovery() {
    let (dev, switch) = faulty_device();
    let mut cfg = LsmConfig::new(4096, 1 << 20);
    cfg.block_bytes = 512;
    let tree = LsmTree::create(dev, cfg).unwrap();
    check_after_ios_recovery(Box::new(tree), switch, "lsm");
}

/// Run `op` on a device that passes `pass` more IOs and fails the rest.
/// Whether the op fails or not, its reported cost must be exactly the IO
/// its pager issued for it. Returns whether it failed and that IO count.
fn windowed<T: Dictionary + PagedDict>(
    t: &mut T,
    switch: &FaultSwitch,
    pass: u64,
    op: impl FnOnce(&mut T) -> Result<(), KvError>,
) -> (bool, u64) {
    switch.set(FaultMode::AfterIos(pass));
    let snap = t.pager_and_obs().0.snapshot();
    let result = op(t);
    let d = t.pager_and_obs().0.cost_since(&snap);
    switch.set(FaultMode::None);
    let failed = match result {
        Ok(()) => false,
        Err(KvError::Storage(_)) => true,
        Err(other) => panic!("unexpected error kind: {other}"),
    };
    let c = t.last_op_cost();
    assert_eq!(
        (c.ios, c.bytes_read, c.bytes_written, c.io_time_ns),
        (d.ios, d.bytes_read, d.bytes_written, d.io_time_ns),
        "reported cost differs from the pager's delta (failed: {failed})"
    );
    (failed, d.ios)
}

/// A key between loaded key `i % 2_000` and the next one (`preload` loads
/// `0..2_000`), distinct for every `i`.
fn between(i: u64) -> Vec<u8> {
    let mut k = refined_dam::kv::key_from_u64(i * 7_919 % 2_000).to_vec();
    k.extend_from_slice(&i.to_be_bytes());
    k
}

/// A failed op reports the IO it issued before it failed: a cold get whose
/// second read fails, and an insert whose flush, compaction or writeback
/// fails part-way.
fn check_failed_op_costs<T: Dictionary + PagedDict>(mut t: T, switch: FaultSwitch, label: &str) {
    preload(&mut t, 2_000);
    // Keys scattered between the loaded ones: on the LSM they land in
    // runs overlapping the loaded keys' tables, so a get probes several
    // levels.
    for i in 0..2_000 {
        t.insert(&between(i), &[1; 50]).unwrap();
    }
    t.sync().unwrap();
    let mut failed_get = false;
    for i in (0..2_000u64).step_by(101) {
        t.pager_and_obs().0.drop_cache().unwrap();
        // An absent key: every tree descends to a leaf for it, and the LSM
        // reads a block on each level whose table covers it.
        let mut k = refined_dam::kv::key_from_u64(i).to_vec();
        k.push(0);
        let (failed, ios) = windowed(&mut t, &switch, 1, |t| t.get(&k).map(drop));
        failed_get |= failed && ios > 0;
    }
    assert!(failed_get, "{label}: no cold get failed after issuing IO");
    // Every 7th insert runs with a single IO to spare, so those that
    // flush, compact or write back fail part-way; the rest run healthy
    // and let the structure drain what a failed flush left buffered.
    let mut failed_insert = false;
    for i in 2_000..6_000u64 {
        let pass = if i % 7 == 0 { 1 } else { u64::MAX };
        let (failed, ios) = windowed(&mut t, &switch, pass, |t| t.insert(&between(i), &[1; 50]));
        failed_insert |= failed && ios > 0;
    }
    assert!(failed_insert, "{label}: no insert failed after issuing IO");
}

#[test]
fn failed_ops_report_the_io_they_issued() {
    let (dev, switch) = faulty_device();
    let tree = BTree::create(dev, BTreeConfig::new(1024, 1 << 16)).unwrap();
    check_failed_op_costs(tree, switch, "btree");

    let (dev, switch) = faulty_device();
    let tree = BeTree::create(dev, BeTreeConfig::new(2048, 4, 1 << 16)).unwrap();
    check_failed_op_costs(tree, switch, "betree");

    let (dev, switch) = faulty_device();
    let tree = OptBeTree::create(dev, OptConfig::new(4, 1024, 1 << 16)).unwrap();
    check_failed_op_costs(tree, switch, "opt-betree");

    let (dev, switch) = faulty_device();
    let mut cfg = LsmConfig::new(4096, 1 << 16);
    cfg.memtable_bytes = 2048;
    cfg.block_bytes = 512;
    let tree = LsmTree::create(dev, cfg).unwrap();
    check_failed_op_costs(tree, switch, "lsm");
}

#[test]
fn transient_faults_absorbed_by_retrying_device() {
    // Stack: BTree → pager → RetryingDevice → FaultInjector → RamDisk.
    // One fault then three passes, every cycle: each faulted IO succeeds
    // on the first retry, so the dictionary never sees an error at all.
    let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 26, SimDuration(100)));
    let policy = RetryPolicy {
        max_retries: 4,
        base_backoff: SimDuration(1_000),
    };
    let (retrying, handle) = RetryingDevice::new(inj, policy);
    let dev = SharedDevice::new(Box::new(retrying));
    switch.set(FaultMode::Transient {
        fail_n: 1,
        pass_n: 3,
    });

    let mut tree = BTree::create(dev, BTreeConfig::new(4096, 1 << 16)).unwrap();
    for i in 0..2_000u64 {
        let k = refined_dam::kv::key_from_u64(i);
        tree.insert(&k, &[(i % 251) as u8; 50]).unwrap();
    }
    tree.sync().unwrap();
    tree.drop_cache().unwrap();
    for i in (0..2_000u64).step_by(97) {
        let k = refined_dam::kv::key_from_u64(i);
        assert_eq!(tree.get(&k).unwrap(), Some(vec![(i % 251) as u8; 50]));
    }
    let retry = handle.stats();
    assert!(retry.absorbed > 0, "no faults were absorbed: {retry:?}");
    assert_eq!(
        retry.giveups, 0,
        "transient faults should never give up: {retry:?}"
    );
    assert!(retry.retries >= retry.absorbed);
    assert!(switch.stats().faults_injected > 0, "injector never fired");
}

#[test]
fn torn_writes_error_then_repair_on_reflush() {
    let (dev, switch) = faulty_device();
    let mut tree = BTree::create(dev, BTreeConfig::new(4096, 1 << 20)).unwrap();
    for i in 0..500u64 {
        let k = refined_dam::kv::key_from_u64(i);
        tree.insert(&k, &[(i % 251) as u8; 50]).unwrap();
    }
    // Every write persists only half its bytes and reports failure.
    switch.set(FaultMode::TornWrite);
    assert!(
        matches!(tree.sync(), Err(KvError::Storage(_))),
        "torn write must error"
    );
    assert!(switch.stats().faults_injected >= 1);
    // The failed pages are still dirty in cache: a clean re-flush
    // overwrites every torn block with the full image.
    switch.set(FaultMode::None);
    tree.sync().unwrap();
    tree.drop_cache().unwrap();
    for i in (0..500u64).step_by(29) {
        let k = refined_dam::kv::key_from_u64(i);
        assert_eq!(
            tree.get(&k).unwrap(),
            Some(vec![(i % 251) as u8; 50]),
            "torn block not repaired for key {i}"
        );
    }
}

/// A dictionary whose cache can be emptied, so the next reads come off
/// the device.
trait ColdCache: Dictionary {
    fn cold(&mut self) -> Result<(), KvError>;
}

macro_rules! cold_cache {
    ($($t:ty),*) => {$(
        impl ColdCache for $t {
            fn cold(&mut self) -> Result<(), KvError> {
                self.drop_cache()
            }
        }
    )*};
}
cold_cache!(BTree, BeTree, OptBeTree, LsmTree);

fn check_bit_rot(dict: &mut dyn ColdCache, switch: &FaultSwitch, label: &str) {
    preload(dict, 2_000);
    dict.cold().unwrap();
    // Every device read comes back with one silently flipped bit — the
    // device reports success, only the frame checksum can tell. A flip in
    // the zero padding past a frame is harmless; any flip the frame covers
    // must come back as `Corrupt`.
    switch.set(FaultMode::BitFlip {
        seed: 0xDA7A,
        every: 1,
    });
    let mut poisoned = None;
    for i in (0..2_000u64).step_by(97) {
        let k = refined_dam::kv::key_from_u64(i);
        match dict.get(&k) {
            Err(KvError::Corrupt(_)) => {
                poisoned = Some(k);
                break;
            }
            Ok(v) => assert_eq!(
                v,
                Some(vec![(i % 251) as u8; 50]),
                "{label}: silent corruption returned as data"
            ),
            Err(other) => panic!("{label}: unexpected error kind: {other}"),
        }
    }
    let k = poisoned.unwrap_or_else(|| panic!("{label}: bit rot never surfaced"));
    assert!(switch.stats().faults_injected >= 1);
    // Rot stops, but the damaged image is still cached and has never
    // passed its check: a cache hit must check it again and fail again.
    switch.set(FaultMode::None);
    assert!(
        matches!(dict.get(&k), Err(KvError::Corrupt(_))),
        "{label}: a poisoned cache entry was served without a check"
    );
    // Drop the poisoned cache and everything reads clean.
    dict.cold().unwrap();
    let i = refined_dam::kv::key_to_u64(&k).unwrap();
    assert_eq!(
        dict.get(&k).unwrap(),
        Some(vec![(i % 251) as u8; 50]),
        "{label}"
    );
    assert_eq!(
        dict.range(&[], &[0xFF; 17]).unwrap().len(),
        2_000,
        "{label}"
    );
}

#[test]
fn bit_rot_is_caught_by_checksums_not_returned() {
    let (dev, switch) = faulty_device();
    let mut tree = BTree::create(dev, BTreeConfig::new(4096, 1 << 16)).unwrap();
    check_bit_rot(&mut tree, &switch, "btree");

    let (dev, switch) = faulty_device();
    let mut tree = BeTree::create(dev, BeTreeConfig::new(4096, 4, 1 << 16)).unwrap();
    check_bit_rot(&mut tree, &switch, "betree");

    let (dev, switch) = faulty_device();
    let mut tree = OptBeTree::create(dev, OptConfig::new(4, 1024, 1 << 16)).unwrap();
    check_bit_rot(&mut tree, &switch, "opt-betree");

    let (dev, switch) = faulty_device();
    let mut cfg = LsmConfig::new(4096, 1 << 16);
    cfg.block_bytes = 512;
    let mut tree = LsmTree::create(dev, cfg).unwrap();
    check_bit_rot(&mut tree, &switch, "lsm");
}

#[test]
fn profiler_propagates_device_faults() {
    use refined_dam::profiler::{profile_affine, table2_io_sizes, ProfileError};
    let result = profile_affine(
        || {
            let (inj, switch) = FaultInjector::new(RamDisk::new(1 << 26, SimDuration(100)));
            switch.set(FaultMode::All);
            Box::new(inj)
        },
        &table2_io_sizes(),
        8,
        1,
    );
    assert!(matches!(result, Err(ProfileError::Io(_))), "got {result:?}");
}
