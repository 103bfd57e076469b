//! Hash-sharding: the keyspace split across `S` independent tree
//! instances, each on its own captured device with its own pager.
//!
//! Shards are fully independent storage engines — separate device,
//! separate buffer pool — so under the PDAM slot budget they progress in
//! parallel (their IO chains carry distinct `space` ids and never falsely
//! coalesce). Point ops route by key hash; range queries, `len`, and
//! `sync` fan out to every shard and merge.

use crate::capture::{CaptureDevice, CaptureHandle};
use dam_betree::{BeTree, BeTreeConfig, OptBeTree, OptConfig};
use dam_btree::{BTree, BTreeConfig};
use dam_kv::{BatchOp, Dictionary, KvError, Pairs};
use dam_lsm::{LsmConfig, LsmTree};
use dam_obs::Obs;
use dam_stats::rng::{splitmix64, GOLDEN};
use dam_storage::{BlockDevice, IoChain, RamDisk, SharedDevice, SimDuration};

/// The four dictionaries: the set the engine serves, and the one the
/// differential harness (`dam-check`) checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeStructure {
    /// In-place B-tree.
    BTree,
    /// Standard Bε-tree.
    BeTree,
    /// Theorem-9 optimized Bε-tree.
    OptBeTree,
    /// Leveled LSM tree.
    Lsm,
}

impl ServeStructure {
    /// All four, in comparison order.
    pub const ALL: [ServeStructure; 4] = [
        ServeStructure::BTree,
        ServeStructure::BeTree,
        ServeStructure::OptBeTree,
        ServeStructure::Lsm,
    ];

    /// Display / CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ServeStructure::BTree => "btree",
            ServeStructure::BeTree => "betree",
            ServeStructure::OptBeTree => "optbetree",
            ServeStructure::Lsm => "lsm",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<ServeStructure> {
        ServeStructure::ALL.into_iter().find(|x| x.name() == s)
    }

    /// A fresh tree of this kind on `dev`, shaped by `cfg`'s node, block
    /// and cache sizes (its `structure` field is not read), reporting to
    /// `obs` when given.
    pub fn create(
        self,
        dev: SharedDevice,
        cfg: &ShardConfig,
        obs: Option<Obs>,
    ) -> Result<Box<dyn Dictionary>, KvError> {
        self.build(dev, cfg, obs, false)
    }

    /// Reopen the tree a [`ServeStructure::create`] with the same `cfg`
    /// persisted on `dev`.
    pub fn open(
        self,
        dev: SharedDevice,
        cfg: &ShardConfig,
    ) -> Result<Box<dyn Dictionary>, KvError> {
        self.build(dev, cfg, None, true)
    }

    fn build(
        self,
        dev: SharedDevice,
        cfg: &ShardConfig,
        obs: Option<Obs>,
        open: bool,
    ) -> Result<Box<dyn Dictionary>, KvError> {
        macro_rules! tree {
            ($tree:ident, $cfg:expr) => {{
                let mut t = if open {
                    $tree::open(dev, $cfg)?
                } else {
                    $tree::create(dev, $cfg)?
                };
                if let Some(o) = obs {
                    t.set_obs(o);
                }
                Box::new(t)
            }};
        }
        let cache = cfg.cache_bytes;
        Ok(match self {
            ServeStructure::BTree => tree!(BTree, BTreeConfig::new(cfg.node_bytes, cache)),
            ServeStructure::BeTree => {
                tree!(BeTree, BeTreeConfig::new(cfg.node_bytes * 2, 4, cache))
            }
            ServeStructure::OptBeTree => {
                tree!(OptBeTree, OptConfig::new(4, cfg.node_bytes, cache))
            }
            ServeStructure::Lsm => {
                let mut lc = LsmConfig::new(4 * cfg.node_bytes, cache);
                lc.memtable_bytes = 2 * cfg.node_bytes;
                lc.block_bytes = cfg.block_bytes as usize;
                lc.level_ratio = 4;
                lc.l0_limit = 2;
                tree!(LsmTree, lc)
            }
        })
    }
}

/// Sizing of each shard's tree and device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Dictionary type every shard runs.
    pub structure: ServeStructure,
    /// Number of shards (`S ≥ 1`).
    pub shards: usize,
    /// Per-shard device capacity in bytes.
    pub disk_bytes: u64,
    /// Per-shard buffer-pool budget in bytes.
    pub cache_bytes: u64,
    /// Base node size in bytes (per-structure configs derive from it).
    pub node_bytes: usize,
    /// PDAM block size used to quantize captured IOs into chain waves.
    pub block_bytes: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            structure: ServeStructure::BTree,
            shards: 1,
            disk_bytes: 1 << 27,
            cache_bytes: 1 << 16,
            node_bytes: 1024,
            block_bytes: 512,
        }
    }
}

struct Shard {
    dict: Box<dyn Dictionary>,
    capture: CaptureHandle,
}

/// `S` independent tree instances behind a hash router. Every operation
/// returns its answer (computed immediately — data and timing are split,
/// see [`crate::capture`]) together with the [`IoChain`] the PDAM
/// scheduler charges for it.
pub struct ShardSet {
    shards: Vec<Shard>,
    cfg: ShardConfig,
}

/// FNV-1a with a splitmix finalizer: cheap, stable, and well-mixed even on
/// the 16-byte big-endian keys the benchmarks use (plain FNV leaves their
/// low bytes correlated).
fn shard_hash(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(h.wrapping_add(GOLDEN))
}

impl ShardSet {
    /// Build `cfg.shards` fresh trees, each on its own captured RamDisk.
    /// (The RamDisk's own latency is irrelevant: the scheduler is the
    /// clock; see [`crate::capture`].)
    pub fn create(cfg: ShardConfig) -> Result<ShardSet, KvError> {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.block_bytes > 0);
        let mut shards = Vec::with_capacity(cfg.shards);
        for _ in 0..cfg.shards {
            let (capture_dev, capture) =
                CaptureDevice::new(Box::new(RamDisk::new(cfg.disk_bytes, SimDuration(100))));
            let dev = SharedDevice::new(Box::new(capture_dev) as Box<dyn BlockDevice>);
            let shard = Shard {
                dict: cfg.structure.create(dev, &cfg, None)?,
                capture,
            };
            // Creation IO is setup, not serving traffic: drop it.
            shard.capture.clear();
            shards.push(shard);
        }
        Ok(ShardSet { shards, cfg })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` routes to.
    pub fn route(&self, key: &[u8]) -> usize {
        (shard_hash(key) % self.shards.len() as u64) as usize
    }

    /// Run `f` on shard `s` and drain the IO it captured into a chain,
    /// whether `f` succeeded or not: a failed op's IO is dropped with it,
    /// never charged to the next op on that shard.
    fn on_shard<T>(
        &mut self,
        s: usize,
        f: impl FnOnce(&mut dyn Dictionary) -> Result<T, KvError>,
    ) -> Result<(T, IoChain), KvError> {
        let shard = &mut self.shards[s];
        let r = f(shard.dict.as_mut());
        let chain = shard.capture.drain_chain(s as u32, self.cfg.block_bytes);
        Ok((r?, chain))
    }

    /// Run `f` on every shard in turn, stopping at the first error; the
    /// per-shard chains merge in parallel (shards descend concurrently).
    fn fan_out<T>(
        &mut self,
        mut f: impl FnMut(&mut dyn Dictionary) -> Result<T, KvError>,
    ) -> Result<(Vec<T>, IoChain), KvError> {
        let mut out = Vec::with_capacity(self.shards.len());
        let mut chains = Vec::with_capacity(self.shards.len());
        for s in 0..self.shards.len() {
            let (t, chain) = self.on_shard(s, &mut f)?;
            out.push(t);
            chains.push(chain);
        }
        Ok((out, IoChain::merge_parallel(chains)))
    }

    /// Point query on the owning shard.
    pub fn get(&mut self, key: &[u8]) -> Result<(Option<Vec<u8>>, IoChain), KvError> {
        let s = self.route(key);
        self.on_shard(s, |d| d.get(key))
    }

    /// Apply a write batch to one shard (callers route and group; see the
    /// engine's admission layer). The batch MUST contain only keys owned
    /// by `shard`.
    pub fn apply_batch(&mut self, shard: usize, batch: &[BatchOp]) -> Result<IoChain, KvError> {
        debug_assert!(batch.iter().all(|op| self.route(op.key()) == shard));
        Ok(self.on_shard(shard, |d| d.apply_batch(batch))?.1)
    }

    /// Range query: fan out to every shard, merge the sorted answers into
    /// one.
    pub fn range(&mut self, start: &[u8], end: &[u8]) -> Result<(Pairs, IoChain), KvError> {
        let (parts, chain) = self.fan_out(|d| d.range(start, end))?;
        // Keys are unique across shards (hash routing is a partition), so
        // each next pair is the least head of the shards' answers.
        let mut heads: Vec<_> = parts.iter().map(|p| p.iter().peekable()).collect();
        let mut pairs = Pairs::new();
        while let Some((_, s)) = heads
            .iter_mut()
            .enumerate()
            .filter_map(|(s, h)| h.peek().map(|&(k, _)| (k, s)))
            .min()
        {
            let (k, v) = heads[s].next().expect("peeked");
            pairs.push(k, v);
        }
        Ok((pairs, chain))
    }

    /// Total live keys across shards (fan-out, parallel chains).
    pub fn len(&mut self) -> Result<(u64, IoChain), KvError> {
        let (counts, chain) = self.fan_out(|d| d.len())?;
        Ok((counts.iter().sum(), chain))
    }

    /// True when no shard holds live keys.
    pub fn is_empty(&mut self) -> Result<(bool, IoChain), KvError> {
        let (n, chain) = self.len()?;
        Ok((n == 0, chain))
    }

    /// Checkpoint every shard (fan-out, parallel chains).
    pub fn sync_all(&mut self) -> Result<IoChain, KvError> {
        Ok(self.fan_out(|d| d.sync())?.1)
    }

    /// Untimed bulk load (setup traffic): writes route to their shards and
    /// the captured IO is discarded rather than charged.
    pub fn preload(&mut self, pairs: &[(Vec<u8>, Vec<u8>)]) -> Result<(), KvError> {
        let mut per_shard: Vec<Vec<BatchOp>> = vec![Vec::new(); self.shards.len()];
        for (k, v) in pairs {
            per_shard[self.route(k)].push(BatchOp::Put {
                key: k.clone(),
                value: v.clone(),
            });
        }
        for (shard, batch) in self.shards.iter_mut().zip(&per_shard) {
            if !batch.is_empty() {
                let r = shard.dict.apply_batch(batch);
                shard.capture.clear();
                r?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_kv::key_from_u64;

    fn set(structure: ServeStructure, shards: usize) -> ShardSet {
        ShardSet::create(ShardConfig {
            structure,
            shards,
            ..ShardConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn routing_is_a_partition() {
        let s = set(ServeStructure::BTree, 4);
        let mut seen = vec![0usize; 4];
        for i in 0..256u64 {
            seen[s.route(&key_from_u64(i))] += 1;
        }
        // Every shard gets a reasonable share of 256 sequential keys.
        for (i, &n) in seen.iter().enumerate() {
            assert!(n > 16, "shard {i} starved: {seen:?}");
        }
    }

    #[test]
    fn sharded_answers_match_unsharded() {
        for structure in ServeStructure::ALL {
            let mut one = set(structure, 1);
            let mut four = set(structure, 4);
            for i in 0..60u64 {
                let k = key_from_u64(i);
                let batch = [BatchOp::Put {
                    key: k.to_vec(),
                    value: vec![i as u8; 8],
                }];
                one.apply_batch(one.route(&k), &batch).unwrap();
                four.apply_batch(four.route(&k), &batch).unwrap();
            }
            let del = key_from_u64(7);
            let batch = [BatchOp::Del { key: del.to_vec() }];
            one.apply_batch(one.route(&del), &batch).unwrap();
            four.apply_batch(four.route(&del), &batch).unwrap();

            for i in 0..60u64 {
                let k = key_from_u64(i);
                assert_eq!(
                    one.get(&k).unwrap().0,
                    four.get(&k).unwrap().0,
                    "{structure:?}"
                );
            }
            let lo = key_from_u64(0);
            let hi = key_from_u64(100);
            assert_eq!(
                one.range(&lo, &hi).unwrap().0,
                four.range(&lo, &hi).unwrap().0,
                "{structure:?}"
            );
            assert_eq!(one.len().unwrap().0, 59, "{structure:?}");
            assert_eq!(four.len().unwrap().0, 59, "{structure:?}");
        }
    }

    #[test]
    fn ops_produce_chains_and_preload_does_not() {
        let mut s = set(ServeStructure::BTree, 2);
        let pairs: Vec<_> = (0..40u64)
            .map(|i| (key_from_u64(i).to_vec(), vec![1u8; 8]))
            .collect();
        s.preload(&pairs).unwrap();
        // Preload drained its capture logs: the next op's chain reflects
        // only that op.
        let k = key_from_u64(3);
        let (v, chain) = s.get(&k).unwrap();
        assert_eq!(v, Some(vec![1u8; 8]));
        // A cold read must touch storage unless it fit in cache; either
        // way the chain is bounded by this single descent.
        assert!(chain.depth() <= 8, "chain too deep: {}", chain.depth());
    }

    #[test]
    fn a_device_too_small_for_the_tree_is_a_config_error() {
        for (structure, disk_bytes) in ServeStructure::ALL
            .into_iter()
            .map(|s| (s, 2048))
            .chain([(ServeStructure::Lsm, 1 << 16)])
        {
            let r = ShardSet::create(ShardConfig {
                structure,
                disk_bytes,
                ..ShardConfig::default()
            });
            assert!(
                matches!(r, Err(KvError::Config(_))),
                "{structure:?} on {disk_bytes} bytes"
            );
        }
    }

    #[test]
    fn a_failed_op_leaves_no_io_for_the_next_one() {
        for structure in ServeStructure::ALL {
            let disk_bytes = match structure {
                ServeStructure::Lsm => (1 << 20) + (1 << 16),
                _ => 1 << 16,
            };
            // A 4 KiB cache makes a failing op read and write back nodes
            // before it fails, so it has IO to leave behind.
            let mut s = ShardSet::create(ShardConfig {
                structure,
                shards: 2,
                disk_bytes,
                cache_bytes: 1 << 12,
                ..ShardConfig::default()
            })
            .unwrap();
            let mut errors = 0;
            // Check right after each op: the next op would drain the log.
            let mut check = |s: &ShardSet, r: Result<(), KvError>| {
                if let Err(e) = r {
                    errors += 1;
                    let left: Vec<usize> = s.shards.iter().map(|sh| sh.capture.pending()).collect();
                    assert!(
                        left.iter().all(|&n| n == 0),
                        "{structure:?}: {e} left IOs {left:?}"
                    );
                }
            };
            for i in 0..400u64 {
                let keys: Vec<_> = (0..8).map(|j| key_from_u64(i * 8 + j)).collect();
                let (lo, hi) = (keys[0], keys[7]);
                let owner = s.route(&lo);
                let batch: Vec<BatchOp> = keys
                    .iter()
                    .filter(|k| s.route(*k) == owner)
                    .map(|k| BatchOp::Put {
                        key: k.to_vec(),
                        value: vec![i as u8; 64],
                    })
                    .collect();
                let r = s.apply_batch(owner, &batch).map(drop);
                check(&s, r);
                let r = s.get(&lo).map(drop);
                check(&s, r);
                let r = s.range(&lo, &hi).map(drop);
                check(&s, r);
                let r = s.len().map(drop);
                check(&s, r);
                let r = s.sync_all().map(drop);
                check(&s, r);
            }
            assert!(errors > 0, "{structure:?}: the device never filled");
        }
    }

    #[test]
    fn fanout_chains_merge_in_parallel() {
        let mut s = set(ServeStructure::BTree, 4);
        let pairs: Vec<_> = (0..200u64)
            .map(|i| (key_from_u64(i).to_vec(), vec![2u8; 16]))
            .collect();
        s.preload(&pairs).unwrap();
        s.sync_all().unwrap();
        let lo = key_from_u64(0);
        let hi = key_from_u64(200);
        let (pairs, chain) = s.range(&lo, &hi).unwrap();
        assert_eq!(pairs.len(), 200);
        if !chain.is_empty() {
            // Parallel merge: depth is the max over shards, so at most the
            // blocks of the deepest shard, not the sum over shards.
            assert!(chain.depth() < chain.blocks() || chain.blocks() == chain.depth());
        }
    }
}
