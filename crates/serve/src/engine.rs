//! The closed-loop serving engine: `k` clients, `S` shards, one PDAM
//! scheduler, a deterministic commit log.
//!
//! # Execution model
//!
//! The engine runs *admission rounds*. At the top of each round every idle
//! client (in ascending client id) admits its next operation:
//!
//! * **Writes** (put/delete) enter the admission buffer of their target
//!   shard rather than executing immediately. When the buffer flushes —
//!   because a read needs that shard, a fan-out op needs every shard, or
//!   the round ends — the whole group goes through
//!   [`Dictionary::apply_batch`](dam_kv::Dictionary::apply_batch) as ONE
//!   call producing ONE IO chain (group commit): the Bε-trees push the
//!   group through their root message buffer together, and every
//!   contributing client waits on the same chain.
//! * **Reads** execute immediately (after flushing their shard) and
//!   produce their own chain.
//!
//! Answers are computed synchronously at execution time; the *cost* is the
//! chain the [`PdamScheduler`] then serves step by step — see
//! [`crate::capture`] for why this split is sound. After admission the
//! engine steps the scheduler until some client's chain completes, frees
//! those clients, and starts the next round. Clients therefore pipeline:
//! a client whose chain takes 3 steps does not stall one whose chain takes
//! 1.
//!
//! # Determinism contract
//!
//! Everything — admission order, batch grouping, scheduler dispatch,
//! commit log, every statistic — is a pure function of the configuration
//! and the per-client op lists. No wall clock, no thread scheduling, no
//! map-iteration order reaches any decision. Reruns are byte-identical at
//! any host parallelism (`DAM_JOBS` only shards *independent* engine runs
//! across threads).
//!
//! # Observable equivalence
//!
//! The commit log records operations in execution order. Replaying that
//! log against the serial [`Oracle`] must reproduce every recorded
//! answer — the property `crates/serve/tests/prop_serve.rs` pins. This is
//! exactly "linearizable with commit order as the witness order".

use crate::oracle::{Oracle, ServeAnswer, ServeOp};
use crate::shard::{ServeStructure, ShardConfig, ShardSet};
use dam_kv::{key_from_u64, BatchOp, KvError, KvPair};
use dam_obs::Obs;
use dam_stats::rng::SplitMix64;
use dam_storage::{PdamScheduler, SchedConfig, SchedStats, StepRecord};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

/// Simulated nanoseconds one PDAM step stands for in the `serve.latency`
/// histogram (reporting only: the engine counts steps).
const STEP_NS: u64 = 100_000;

/// One entry of the commit log: what executed, for whom, with what answer,
/// and how long it waited on IO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// Admission round the op entered in.
    pub round: u64,
    /// Client that issued the op.
    pub client: usize,
    /// The operation (owned copy, for oracle replay).
    pub op: ServeOp,
    /// The answer the engine returned.
    pub answer: ServeAnswer,
    /// PDAM steps from admission to chain completion.
    pub latency_steps: u64,
    /// Blocks in the op's IO chain (shared chains report the group's).
    pub chain_blocks: u64,
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Dictionary type every shard runs.
    pub structure: ServeStructure,
    /// Closed-loop clients (`k ≥ 1`).
    pub clients: usize,
    /// Shards (`S ≥ 1`).
    pub shards: usize,
    /// Device IO slots per PDAM step (`P ≥ 1`).
    pub p: usize,
    /// PDAM block size in bytes.
    pub block_bytes: u64,
    /// Workload seed ([`run_with_obs`]; ignored by [`run_ops`]).
    pub seed: u64,
    /// Per-shard buffer-pool budget in bytes.
    pub cache_bytes: u64,
    /// Base node size in bytes.
    pub node_bytes: usize,
    /// Keys bulk-loaded (untimed) before the measured phase.
    pub preload_keys: u64,
    /// Value size for generated workloads.
    pub value_bytes: usize,
    /// Ops each client issues in a generated workload.
    pub ops_per_client: usize,
    /// Reads per 1000 generated ops (rest are writes).
    pub read_permille: u32,
    /// Record the scheduler's per-step audit trail (tests).
    pub audit: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            structure: ServeStructure::BTree,
            clients: 4,
            shards: 1,
            p: 8,
            block_bytes: 512,
            seed: 42,
            cache_bytes: 1 << 16,
            node_bytes: 1024,
            preload_keys: 2_000,
            value_bytes: 16,
            ops_per_client: 200,
            read_permille: 900,
            audit: false,
        }
    }
}

/// Aggregate results of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Dictionary name.
    pub structure: &'static str,
    /// Clients.
    pub clients: usize,
    /// Shards.
    pub shards: usize,
    /// Slot budget `P`.
    pub p: usize,
    /// Operations committed.
    pub ops: u64,
    /// PDAM steps the run took.
    pub steps: u64,
    /// `ops / steps` — the Lemma-13 quantity.
    pub throughput_ops_per_step: f64,
    /// Fraction of `P × steps` slot capacity used.
    pub slot_utilization: f64,
    /// Fraction of served blocks that piggybacked on a coalesced read.
    pub coalesce_rate: f64,
    /// Mean op latency in steps.
    pub mean_latency_steps: f64,
    /// Median op latency in steps.
    pub p50_latency_steps: u64,
    /// 99th-percentile op latency in steps.
    pub p99_latency_steps: u64,
    /// Write batches flushed.
    pub batches: u64,
    /// Writes that rode those batches.
    pub batched_ops: u64,
    /// Raw scheduler statistics.
    pub sched: SchedStats,
}

/// Full outcome: report, commit log, optional audit trail.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Aggregates.
    pub report: ServeReport,
    /// The commit log, in execution order.
    pub commits: Vec<Commit>,
    /// Per-step scheduler audit (empty unless `cfg.audit`).
    pub step_records: Vec<StepRecord>,
}

/// One shard's buffered writes: who issued each, and its batch entry.
#[derive(Default)]
struct Admission {
    clients: Vec<usize>,
    batch: Vec<BatchOp>,
}

impl Admission {
    fn push(&mut self, client: usize, entry: BatchOp) {
        self.clients.push(client);
        self.batch.push(entry);
    }
}

/// The deterministic pairs [`run_ops_with_obs`] bulk-loads before the
/// measured phase — exposed so oracles can start from the same state.
pub fn preload_pairs(cfg: &ServeConfig) -> Vec<KvPair> {
    let mut rng = SplitMix64::new(cfg.seed ^ 0x9E3D);
    (0..cfg.preload_keys)
        .map(|i| {
            let b = (rng.next_u64() & 0xFF) as u8;
            (key_from_u64(i).to_vec(), vec![b; cfg.value_bytes.max(1)])
        })
        .collect()
}

/// Replay the commit log against the [`Oracle`] seeded with the run's
/// preload ([`preload_pairs`]), returning the index and expected answer of
/// the first divergence (`None` = equivalent).
pub fn oracle_divergence(cfg: &ServeConfig, commits: &[Commit]) -> Option<(usize, String)> {
    let mut oracle: Oracle = preload_pairs(cfg).into_iter().collect();
    commits.iter().enumerate().find_map(|(i, c)| {
        let want = oracle.apply(&c.op);
        (want != c.answer).then(|| (i, format!("oracle {want:?}, engine {:?}", c.answer)))
    })
}

/// Generate each client's op list for [`run_with_obs`]: uniform keys over the
/// preloaded keyspace, `read_permille`/1000 gets, the rest puts.
pub fn generate_workload(cfg: &ServeConfig) -> Vec<Vec<ServeOp>> {
    let keyspace = cfg.preload_keys.max(1);
    (0..cfg.clients)
        .map(|c| {
            let mut rng = SplitMix64::new(cfg.seed ^ (0x00C1_1E57_u64).wrapping_mul(c as u64 + 1));
            (0..cfg.ops_per_client)
                .map(|_| {
                    let key = key_from_u64(rng.below(keyspace)).to_vec();
                    if rng.below(1000) < cfg.read_permille as u64 {
                        ServeOp::Get { key }
                    } else {
                        let b = (rng.next_u64() & 0xFF) as u8;
                        ServeOp::Put {
                            key,
                            value: vec![b; cfg.value_bytes.max(1)],
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// Run a generated closed-loop workload: preload, then serve, with metrics
/// recorded into `obs`. See [`run_ops`].
pub fn run_with_obs(cfg: &ServeConfig, obs: Option<&Obs>) -> Result<ServeOutcome, KvError> {
    let ops = generate_workload(cfg);
    run_ops_with_obs(cfg, ops, obs)
}

/// Serve explicit per-client op lists (the property tests' and the
/// differential harness's entry point). Preloads `cfg.preload_keys` keys
/// untimed, then runs the closed loop to completion.
pub fn run_ops(
    cfg: &ServeConfig,
    per_client_ops: Vec<Vec<ServeOp>>,
) -> Result<ServeOutcome, KvError> {
    run_ops_with_obs(cfg, per_client_ops, None)
}

/// [`run_ops`] with metrics recorded into `obs`.
pub fn run_ops_with_obs(
    cfg: &ServeConfig,
    per_client_ops: Vec<Vec<ServeOp>>,
    obs: Option<&Obs>,
) -> Result<ServeOutcome, KvError> {
    assert!(cfg.clients >= 1, "need at least one client");
    assert_eq!(
        per_client_ops.len(),
        cfg.clients,
        "one op list per client required"
    );
    let mut shards = ShardSet::create(ShardConfig {
        structure: cfg.structure,
        shards: cfg.shards,
        disk_bytes: 1 << 27,
        cache_bytes: cfg.cache_bytes,
        node_bytes: cfg.node_bytes,
        block_bytes: cfg.block_bytes,
    })?;
    if cfg.preload_keys > 0 {
        shards.preload(&preload_pairs(cfg))?;
        shards.sync_all()?;
    }

    let mut sched = PdamScheduler::new(SchedConfig {
        p: cfg.p,
        clients: cfg.clients,
        record_steps: cfg.audit,
    });
    let mut queues: Vec<VecDeque<ServeOp>> =
        per_client_ops.into_iter().map(VecDeque::from).collect();
    let mut idle = vec![true; cfg.clients];
    // chain id -> (submit step, commit indices waiting on it; a group
    // commit's entries are consecutive in the log)
    let mut pending: BTreeMap<u64, (u64, Range<usize>)> = BTreeMap::new();
    let mut commits: Vec<Commit> = Vec::new();
    let mut batches = 0u64;
    let mut batched_ops = 0u64;
    let mut round = 0u64;

    // Per-shard admission buffers: each buffered write's client and its
    // batch entry, kept once (the commit log's op is rebuilt from it).
    let mut buffers: Vec<Admission> = (0..cfg.shards.max(1))
        .map(|_| Admission::default())
        .collect();

    while queues.iter().any(|q| !q.is_empty()) || !pending.is_empty() {
        // --- Admission: every idle client with work enters one op. ---
        let now = sched.now_steps();
        let flush = |s: usize,
                     buffers: &mut Vec<Admission>,
                     shards: &mut ShardSet,
                     sched: &mut PdamScheduler,
                     commits: &mut Vec<Commit>,
                     pending: &mut BTreeMap<u64, (u64, Range<usize>)>,
                     batches: &mut u64,
                     batched_ops: &mut u64|
         -> Result<(), KvError> {
            let group = &mut buffers[s];
            if group.batch.is_empty() {
                return Ok(());
            }
            let chain = shards.apply_batch(s, &group.batch)?;
            let blocks = chain.blocks() as u64;
            // Group commit: one chain, submitted under the first
            // contributor (it holds the slot-fairness account); every
            // contributor's op completes when the chain does.
            let id = sched.submit(group.clients[0], chain);
            let first = commits.len();
            for (client, entry) in group.clients.drain(..).zip(group.batch.drain(..)) {
                commits.push(Commit {
                    round,
                    client,
                    op: match entry {
                        BatchOp::Put { key, value } => ServeOp::Put { key, value },
                        BatchOp::Del { key } => ServeOp::Del { key },
                    },
                    answer: ServeAnswer::Unit,
                    latency_steps: 0,
                    chain_blocks: blocks,
                });
            }
            *batches += 1;
            *batched_ops += (commits.len() - first) as u64;
            pending.insert(id, (now, first..commits.len()));
            Ok(())
        };
        for c in 0..cfg.clients {
            if !idle[c] {
                continue;
            }
            let Some(op) = queues[c].pop_front() else {
                continue;
            };
            idle[c] = false;
            match op {
                ServeOp::Put { key, value } => {
                    buffers[shards.route(&key)].push(c, BatchOp::Put { key, value });
                }
                ServeOp::Del { key } => {
                    buffers[shards.route(&key)].push(c, BatchOp::Del { key });
                }
                ServeOp::Get { ref key } => {
                    // Reads see all earlier writes: flush the shard first.
                    let s = shards.route(key);
                    flush(
                        s,
                        &mut buffers,
                        &mut shards,
                        &mut sched,
                        &mut commits,
                        &mut pending,
                        &mut batches,
                        &mut batched_ops,
                    )?;
                    let (v, chain) = shards.get(key)?;
                    let blocks = chain.blocks() as u64;
                    let id = sched.submit(c, chain);
                    pending.insert(id, (now, commits.len()..commits.len() + 1));
                    commits.push(Commit {
                        round,
                        client: c,
                        op,
                        answer: ServeAnswer::Val(v),
                        latency_steps: 0,
                        chain_blocks: blocks,
                    });
                }
                ServeOp::Range { .. } | ServeOp::SyncAll | ServeOp::Len => {
                    // Fan-out ops are barriers: every shard must be
                    // current.
                    for s in 0..cfg.shards {
                        flush(
                            s,
                            &mut buffers,
                            &mut shards,
                            &mut sched,
                            &mut commits,
                            &mut pending,
                            &mut batches,
                            &mut batched_ops,
                        )?;
                    }
                    let (answer, chain) = match &op {
                        ServeOp::Range { start, end } => {
                            let (pairs, chain) = shards.range(start, end)?;
                            (ServeAnswer::Pairs(pairs), chain)
                        }
                        ServeOp::SyncAll => (ServeAnswer::Unit, shards.sync_all()?),
                        ServeOp::Len => {
                            let (n, chain) = shards.len()?;
                            (ServeAnswer::Count(n), chain)
                        }
                        _ => unreachable!(),
                    };
                    let blocks = chain.blocks() as u64;
                    let id = sched.submit(c, chain);
                    pending.insert(id, (now, commits.len()..commits.len() + 1));
                    commits.push(Commit {
                        round,
                        client: c,
                        op,
                        answer,
                        latency_steps: 0,
                        chain_blocks: blocks,
                    });
                }
            }
        }
        // Round end: remaining buffered writes flush as group commits.
        for s in 0..cfg.shards {
            flush(
                s,
                &mut buffers,
                &mut shards,
                &mut sched,
                &mut commits,
                &mut pending,
                &mut batches,
                &mut batched_ops,
            )?;
        }

        // --- Serve steps until some client frees up (closed loop). ---
        loop {
            let out = sched.step();
            let mut freed = false;
            for (_, id) in &out.completed {
                if let Some((submitted, waiters)) = pending.remove(id) {
                    let latency = sched.now_steps().saturating_sub(submitted).max(1);
                    for ci in waiters {
                        commits[ci].latency_steps = latency;
                        idle[commits[ci].client] = true;
                        freed = true;
                    }
                }
            }
            if out.idle || freed || pending.is_empty() {
                break;
            }
        }
        round += 1;
    }

    let stats = sched.stats();
    let mut latencies: Vec<u64> = commits.iter().map(|c| c.latency_steps).collect();
    latencies.sort_unstable();
    let quant = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let i = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[i]
    };
    let ops = commits.len() as u64;
    let steps = stats.steps;
    let report = ServeReport {
        structure: cfg.structure.name(),
        clients: cfg.clients,
        shards: cfg.shards,
        p: cfg.p,
        ops,
        steps,
        throughput_ops_per_step: if steps > 0 {
            ops as f64 / steps as f64
        } else {
            0.0
        },
        slot_utilization: stats.slot_utilization(cfg.p),
        coalesce_rate: stats.coalesce_rate(),
        mean_latency_steps: if ops > 0 {
            latencies.iter().sum::<u64>() as f64 / ops as f64
        } else {
            0.0
        },
        p50_latency_steps: quant(0.50),
        p99_latency_steps: quant(0.99),
        batches,
        batched_ops,
        sched: stats,
    };
    if let Some(o) = obs {
        o.inc("serve.ops", ops);
        o.inc("serve.steps", steps);
        o.inc("serve.slots_used", stats.slots_used);
        o.inc("serve.coalesced_blocks", stats.coalesced_blocks);
        o.inc("serve.io_dispatches", stats.io_dispatches);
        o.inc("serve.batches", batches);
        o.inc("serve.batched_ops", batched_ops);
        o.inc("serve.slot_capacity", steps * cfg.p as u64);
        o.inc("serve.blocks_served", stats.blocks_served);
        for c in &commits {
            o.observe_ns("serve.latency", c.latency_steps * STEP_NS);
        }
    }
    Ok(ServeOutcome {
        report,
        commits,
        step_records: sched.step_records().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(structure: ServeStructure, clients: usize, shards: usize) -> ServeConfig {
        ServeConfig {
            structure,
            clients,
            shards,
            p: 4,
            preload_keys: 300,
            ops_per_client: 40,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn engine_commits_every_op_and_matches_oracle() {
        for structure in ServeStructure::ALL {
            let cfg = small_cfg(structure, 3, 2);
            let out = run_with_obs(&cfg, None).unwrap();
            assert_eq!(out.report.ops, (3 * 40) as u64, "{structure:?}");
            assert!(out.report.steps > 0);
            assert_eq!(oracle_divergence(&cfg, &out.commits), None, "{structure:?}");
        }
    }

    #[test]
    fn merged_runs_derive_serving_ratios_from_summed_counters() {
        let merged = Obs::new();
        let mut reports = Vec::new();
        for (structure, clients) in [(ServeStructure::BeTree, 1), (ServeStructure::Lsm, 4)] {
            // A cache far smaller than the preload, so reads reach the device.
            let cfg = ServeConfig {
                preload_keys: 3_000,
                cache_bytes: 1 << 12,
                ..small_cfg(structure, clients, 2)
            };
            let own = Obs::new();
            reports.push(run_with_obs(&cfg, Some(&own)).unwrap().report);
            merged.merge_from(&own);
        }
        let sum = |f: fn(&ServeReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
        let snap = merged.snapshot();
        let schema = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/serve_metrics_schema.json"
        ))
        .unwrap();
        dam_obs::validate_snapshot_json(&snap.to_json(), &schema).unwrap();
        let derived = snap.derived;
        let utilization = derived["serve.slot_utilization"];
        assert_eq!(
            utilization,
            sum(|r| r.sched.slots_used) / sum(|r| r.steps * r.p as u64)
        );
        assert_ne!(utilization, reports[1].slot_utilization);
        assert_eq!(
            derived["serve.coalesce_rate"],
            sum(|r| r.sched.coalesced_blocks) / sum(|r| r.sched.blocks_served)
        );
        assert_eq!(
            derived["serve.ops_per_step"],
            sum(|r| r.ops) / sum(|r| r.steps)
        );
    }

    #[test]
    fn run_is_deterministic() {
        let cfg = small_cfg(ServeStructure::BeTree, 4, 2);
        let a = run_with_obs(&cfg, None).unwrap();
        let b = run_with_obs(&cfg, None).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.commits, b.commits);
    }

    #[test]
    fn explicit_ops_cover_every_variant() {
        let k = key_from_u64;
        let ops = vec![
            vec![
                ServeOp::Put {
                    key: k(1_000_000).to_vec(),
                    value: b"one".to_vec(),
                },
                ServeOp::Get {
                    key: k(1_000_000).to_vec(),
                },
                ServeOp::Len,
            ],
            vec![
                ServeOp::Del { key: k(5).to_vec() },
                ServeOp::Range {
                    start: k(0).to_vec(),
                    end: k(2_000_000).to_vec(),
                },
                ServeOp::SyncAll,
            ],
        ];
        let cfg = ServeConfig {
            clients: 2,
            shards: 3,
            preload_keys: 50,
            ..ServeConfig::default()
        };
        let out = run_ops(&cfg, ops).unwrap();
        assert_eq!(out.commits.len(), 6);
        assert_eq!(oracle_divergence(&cfg, &out.commits), None);
        // Latency is at least one step for every op.
        assert!(out.commits.iter().all(|c| c.latency_steps >= 1));
    }

    #[test]
    fn same_round_writes_to_one_shard_group_commit() {
        // Single shard: every client's write lands in the same admission
        // buffer and must flush as one batch.
        let key = key_from_u64(3).to_vec();
        let ops: Vec<Vec<ServeOp>> = (0..4)
            .map(|i| {
                vec![ServeOp::Put {
                    key: key.clone(),
                    value: vec![i as u8; 4],
                }]
            })
            .collect();
        let cfg = ServeConfig {
            clients: 4,
            shards: 1,
            preload_keys: 0,
            ..ServeConfig::default()
        };
        let out = run_ops(&cfg, ops).unwrap();
        assert_eq!(out.report.batches, 1);
        assert_eq!(out.report.batched_ops, 4);
        assert_eq!(oracle_divergence(&cfg, &out.commits), None);
        // Last writer in client order wins.
        let cfg2 = ServeConfig {
            clients: 1,
            shards: 1,
            preload_keys: 0,
            ..ServeConfig::default()
        };
        let check = run_ops(&cfg2, vec![vec![ServeOp::Get { key: key.clone() }]]).unwrap();
        // (separate engine: just sanity that get on empty store works)
        assert_eq!(check.commits[0].answer, ServeAnswer::Val(None));
    }

    #[test]
    fn audit_records_respect_p() {
        let cfg = ServeConfig {
            audit: true,
            p: 2,
            clients: 6,
            shards: 2,
            preload_keys: 500,
            ops_per_client: 30,
            read_permille: 500,
            ..ServeConfig::default()
        };
        let out = run_with_obs(&cfg, None).unwrap();
        assert!(!out.step_records.is_empty());
        for r in &out.step_records {
            assert!(
                r.slots_used <= 2,
                "step {} used {} slots",
                r.step,
                r.slots_used
            );
        }
    }
}
