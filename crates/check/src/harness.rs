//! The differential engine: build fixtures, run a trace in lockstep
//! against the oracle, compose fault, crash and serving layers, shrink
//! failures.
//!
//! Every mode runs through [`replay`]. Each fixture is a tree of the
//! serving engine's default shard shape ([`ShardConfig::default`]), whose
//! 64 KiB cache is small enough that traces cause real eviction traffic,
//! with its own [`Oracle`]; every answer goes through one comparison
//! against it, and every run ends with one full-state audit.

use crate::trace::{generate_trace, render_test};
use crate::Op;
use dam_kv::{Dictionary, KvError, OpCost, Pairs};
use dam_obs::{Obs, ObservedDevice};
use dam_serve::{run_ops, Oracle, ServeAnswer, ServeConfig, ShardConfig};
use dam_stats::prop::ddmin;
use dam_storage::{
    BlockDevice, FaultInjector, FaultMode, FaultSwitch, RamDisk, RetryPolicy, RetryingDevice,
    SharedDevice, SimDuration,
};
use std::fmt;

/// Simulated disk per fixture.
const DISK_BYTES: u64 = 1 << 27;
/// Per-IO simulated latency (value irrelevant to correctness).
const IO_NS: u64 = 200;
/// Harness-level re-executions of an op whose storage error surfaced in
/// [`Mode::FaultsSurfaced`]. All trace ops are idempotent, so redriving
/// until the probabilistic faults pass must converge to the oracle.
const REDRIVE_CAP: usize = 200;

/// The four dictionaries under test.
pub use dam_serve::ServeStructure as Structure;

/// How the trace is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Healthy device; every answer must be byte-identical to the oracle.
    Plain,
    /// `Transient {fail_n: 2, pass_n: 6}` faults under a `RetryingDevice`
    /// with 4 retries: every fault is absorbed, so the contract is the
    /// same as [`Mode::Plain`] — and no error may surface at all.
    FaultsAbsorbed,
    /// Probabilistic faults under a single-retry `RetryingDevice`: errors
    /// may surface as typed `KvError::Storage`, in which case the harness
    /// redrives the (idempotent) op; answers must still converge to the
    /// oracle. Silent divergence is never acceptable.
    FaultsSurfaced {
        /// Seed of the deterministic fault schedule.
        seed: u64,
    },
    /// `CrashAfterIos`: the device dies mid-trace (at post-create IO
    /// ordinal `crash_after` plus the number of IOs create issued), the
    /// harness "reboots" (clears the fault) and reopens. The reopened state must be a synced state: the final one
    /// if `sync` completed, otherwise `Corrupt`-on-open or a prior synced
    /// state (empty, for structures that persist nothing at create).
    Crash {
        /// Post-create IOs (beyond create's own count) the device survives.
        crash_after: u64,
    },
    /// A fault that persists: every op is armed with `AfterIos(1)` (one IO
    /// passes, then every IO fails until the harness disarms), or, with
    /// `full`, the device is too small for the trace and keeps refusing
    /// allocations once it fills. A write that fails must have landed
    /// whole or left no trace (the harness reads its key back); `AfterIos`
    /// failures are then redriven on a healthy device, so every acked write
    /// must survive. After every op the dictionary's
    /// [`Dictionary::buffered_bytes`] must stay within its structure's
    /// cap ([`buffer_cap`]): a failed flush may not leave an ever-growing
    /// buffer behind.
    Persistent {
        /// Fill the device instead of failing IOs.
        full: bool,
    },
    /// Through the serving engine: the trace is dealt round-robin to
    /// `clients` closed-loop clients (op `i` to client `i % clients`, so
    /// each client keeps trace order) over `shards` hash shards on the
    /// PDAM scheduler (`P = 4`, no preload). Routing, admission batching,
    /// group commit and re-timing may change no answer: the commit log
    /// must match the oracle op for op, and a divergence names the trace
    /// index of the op.
    Concurrent {
        /// Closed-loop clients (`>= 1`).
        clients: usize,
        /// Hash shards (`>= 1`).
        shards: usize,
    },
}

/// A divergence (or contract violation) found by the harness.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Execution mode of the failing run.
    pub mode: Mode,
    /// Structure that diverged.
    pub structure: Structure,
    /// Index of the failing op in the trace, when attributable.
    pub op_index: Option<usize>,
    /// Human-readable description (op, expected, got).
    pub message: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?} / {}] op {}: {}",
            self.mode,
            self.structure.name(),
            self.op_index.map_or("-".into(), |i| i.to_string()),
            self.message
        )
    }
}

/// Counters from a successful replay, summed over structures.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    /// Ops executed (per structure).
    pub ops: usize,
    /// Storage errors that surfaced to the harness (fault modes).
    pub surfaced_errors: u64,
    /// Harness-level op re-executions after surfaced errors.
    pub redrives: u64,
    /// Total IOs attributed through `last_op_cost`.
    pub attributed_ios: u64,
    /// Crash runs that recovered via `KvError::Corrupt` on open.
    pub crash_corrupt_opens: u64,
    /// Crash runs that recovered a synced state.
    pub crash_recoveries: u64,
    /// Failed writes that had landed (persistent mode).
    pub landed_writes: u64,
    /// PDAM steps the serving engine took (concurrent mode).
    pub steps: u64,
    /// Write batches the serving engine flushed (concurrent mode).
    pub batches: u64,
}

impl ReplayStats {
    fn add(&mut self, o: &ReplayStats) {
        self.surfaced_errors += o.surfaced_errors;
        self.redrives += o.redrives;
        self.attributed_ios += o.attributed_ios;
        self.crash_corrupt_opens += o.crash_corrupt_opens;
        self.crash_recoveries += o.crash_recoveries;
        self.landed_writes += o.landed_writes;
        self.steps += o.steps;
        self.batches += o.batches;
    }
}

/// Run `op` on one dictionary (`SyncAll` is its `sync`).
fn apply_op(dict: &mut dyn Dictionary, op: &Op) -> Result<ServeAnswer, KvError> {
    Ok(match op {
        Op::Put { key, value } => dict.insert(key, value).map(|()| ServeAnswer::Unit)?,
        Op::Del { key } => dict.delete(key).map(|()| ServeAnswer::Unit)?,
        Op::Get { key } => ServeAnswer::Val(dict.get(key)?),
        Op::Range { start, end } => ServeAnswer::Pairs(dict.range(start, end)?),
        Op::SyncAll => dict.sync().map(|()| ServeAnswer::Unit)?,
        Op::Len => ServeAnswer::Count(dict.len()?),
    })
}

fn describe_pairs(p: &Pairs) -> String {
    if p.len() > 6 {
        let first: Vec<_> = p.iter().take(3).collect();
        format!("{} pairs, first {first:?}", p.len())
    } else {
        format!("{p:?}")
    }
}

/// Pinpoint the first difference between two pair lists.
fn diff_pairs(want: &Pairs, got: &Pairs) -> String {
    let n = want.len().min(got.len());
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        if w != g {
            return format!("first difference at index {i}: oracle {w:?}, tree {g:?}");
        }
    }
    format!(
        "lists agree on the first {n} pairs; lengths {} vs {}",
        want.len(),
        got.len()
    )
}

/// The one answer-versus-oracle check: `None` when `got` is the oracle's
/// `want`, else what diverged, pinpointed.
fn divergence(op: &Op, want: &ServeAnswer, got: &ServeAnswer) -> Option<String> {
    use ServeAnswer::{Count, Pairs, Val};
    if want == got {
        return None;
    }
    Some(match (op, want, got) {
        (Op::Get { key }, Val(w), Val(g)) => {
            format!("get({key:?}) diverged: oracle {w:?}, tree {g:?}")
        }
        (Op::Range { start, end }, Pairs(w), Pairs(g)) => format!(
            "range({start:?}, {end:?}) diverged: oracle {}, tree {}; {}",
            describe_pairs(w),
            describe_pairs(g),
            diff_pairs(w, g)
        ),
        (_, Count(w), Count(g)) => format!("len diverged: oracle {w}, tree {g}"),
        _ => format!("{op:?} diverged: oracle {want:?}, tree {got:?}"),
    })
}

/// One structure running one trace under one mode, against its own
/// oracle.
struct Fixture {
    mode: Mode,
    structure: Structure,
    dict: Box<dyn Dictionary>,
    dev: SharedDevice,
    switch: FaultSwitch,
    obs: Option<Obs>,
    oracle: Oracle,
    /// Most bytes the dictionary may hold only in memory.
    cap: usize,
    attributed: OpCost,
    stats: ReplayStats,
    /// A `SyncAll` completed (crash mode: the trace's final one).
    synced: bool,
    /// The crash point hit: the device is dead from here on.
    crashed: bool,
}

impl Fixture {
    /// `structure` created on a RAM disk behind a fault injector, with the
    /// wrappers `mode` runs through. Faults are armed after a clean
    /// create, so every run starts from the same healthy baseline.
    fn new(mode: Mode, structure: Structure) -> Result<Fixture, Failure> {
        let cfg = ShardConfig::default();
        let disk = match mode {
            Mode::Persistent { full: true } => full_disk_bytes(structure, &cfg),
            _ => DISK_BYTES,
        };
        let (inj, switch) = FaultInjector::new(RamDisk::new(disk, SimDuration(IO_NS)));
        let obs = (mode == Mode::Plain).then(Obs::new);
        let boxed: Box<dyn BlockDevice> = match (mode, &obs) {
            // Plain runs double as the Obs composition check: the observed
            // device feeds span/IO attribution while answers must stay
            // byte-identical.
            (Mode::Plain, Some(o)) => Box::new(ObservedDevice::new(inj, o.clone())),
            (Mode::FaultsAbsorbed | Mode::FaultsSurfaced { .. }, _) => {
                let policy = RetryPolicy {
                    max_retries: if mode == Mode::FaultsAbsorbed { 4 } else { 1 },
                    base_backoff: SimDuration(500),
                };
                Box::new(RetryingDevice::new(inj, policy).0)
            }
            _ => Box::new(inj),
        };
        let dev = SharedDevice::new(boxed);
        let dict = structure
            .create(dev.clone(), &cfg, obs.clone())
            .map_err(|e| Failure {
                mode,
                structure,
                op_index: None,
                message: format!("create failed: {e}"),
            })?;
        match mode {
            Mode::FaultsAbsorbed => switch.set(FaultMode::Transient {
                fail_n: 2,
                pass_n: 6,
            }),
            Mode::FaultsSurfaced { seed } => switch.set(FaultMode::Probabilistic {
                num: 1,
                denom: 64,
                seed,
            }),
            Mode::Crash { crash_after } => {
                // `set` restarts the IO count, so create's IOs shift the
                // crash point by their number.
                let create_ios = switch.stats().ios_seen;
                switch.set(FaultMode::CrashAfterIos(
                    create_ios.saturating_add(crash_after),
                ));
            }
            _ => {}
        }
        Ok(Fixture {
            mode,
            structure,
            dict,
            dev,
            switch,
            obs,
            oracle: Oracle::default(),
            cap: match mode {
                Mode::Persistent { .. } => buffer_cap(structure, &cfg),
                _ => usize::MAX,
            },
            attributed: OpCost::default(),
            stats: ReplayStats::default(),
            synced: false,
            crashed: false,
        })
    }

    fn fail(&self, op_index: Option<usize>, message: String) -> Failure {
        Failure {
            mode: self.mode,
            structure: self.structure,
            op_index,
            message,
        }
    }

    /// One dictionary call. The `OpCost` contract is checked on success and
    /// failure alike (the per-op cost was reset at call start, never mixes
    /// in a previous op, and zero IOs implies zero bytes), the cost is
    /// attributed, and the in-memory buffer must stay within the cap. Under
    /// [`Mode::FaultsSurfaced`] a typed storage error is acceptable: the
    /// idempotent call is redriven until the fault schedule lets it
    /// through, so state must converge, never silently diverge.
    fn call<T>(
        &mut self,
        i: Option<usize>,
        what: &dyn fmt::Debug,
        mut f: impl FnMut(&mut dyn Dictionary) -> Result<T, KvError>,
    ) -> Result<Result<T, KvError>, Failure> {
        let redrive = matches!(self.mode, Mode::FaultsSurfaced { .. });
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let result = f(self.dict.as_mut());
            let cost = self.dict.last_op_cost();
            if cost.ios == 0 && (cost.bytes_read != 0 || cost.bytes_written != 0) {
                return Err(self.fail(
                    i,
                    format!("cost invariant violated: zero ios but bytes {cost:?} ({what:?})"),
                ));
            }
            self.attributed.add(&cost);
            let buffered = self.dict.buffered_bytes();
            if buffered > self.cap {
                return Err(self.fail(
                    i,
                    format!(
                        "{buffered} bytes buffered in memory after {what:?}, over the cap of {}",
                        self.cap
                    ),
                ));
            }
            match result {
                Err(KvError::Storage(_)) if redrive && attempts <= REDRIVE_CAP => {
                    self.stats.surfaced_errors += 1;
                    self.stats.redrives += 1;
                }
                r => return Ok(r),
            }
        }
    }

    /// Compare `got` with the oracle's answer to `op`, which `op` then
    /// updates.
    fn expect(&mut self, i: Option<usize>, op: &Op, got: &ServeAnswer) -> Result<(), Failure> {
        let want = self.oracle.apply(op);
        if let Some(why) = divergence(op, &want, got) {
            return Err(self.fail(i, why));
        }
        self.synced |= *op == Op::SyncAll;
        Ok(())
    }

    /// `op` must succeed and answer as the oracle does.
    fn must(&mut self, i: Option<usize>, op: &Op, context: &str) -> Result<(), Failure> {
        match self.call(i, op, |d| apply_op(d, op))? {
            Ok(got) => self.expect(i, op, &got),
            Err(e) => Err(self.fail(i, format!("{context} {op:?} failed: {e}"))),
        }
    }

    /// Run trace op `i` under the mode's fault layer and check its answer.
    fn step(&mut self, i: usize, op: &Op) -> Result<(), Failure> {
        if self.crashed {
            return Ok(());
        }
        let armed = self.mode == Mode::Persistent { full: false };
        if armed {
            self.switch.set(FaultMode::AfterIos(1));
        }
        let result = self.call(Some(i), op, |d| apply_op(d, op));
        if armed {
            self.switch.set(FaultMode::None);
        }
        match (self.mode, result?) {
            (_, Ok(got)) => self.expect(Some(i), op, &got),
            (Mode::Crash { .. }, Err(KvError::Storage(_) | KvError::Corrupt(_)))
                if self.switch.stats().faults_injected > 0 =>
            {
                self.crashed = true;
                Ok(())
            }
            (Mode::Persistent { full }, Err(KvError::Storage(_))) => {
                self.stats.surfaced_errors += 1;
                self.check_landed(i, op)?;
                if full {
                    return Ok(());
                }
                // Redrive on the healthy device: it must go through.
                self.stats.redrives += 1;
                self.must(Some(i), op, "redrive of")
            }
            (_, Err(e)) => Err(self.fail(Some(i), format!("op {op:?} failed: {e}"))),
        }
    }

    /// A write that failed landed whole or left no trace: read its key
    /// back, and count it as applied if it landed.
    fn check_landed(&mut self, i: usize, op: &Op) -> Result<(), Failure> {
        let (Op::Put { key, .. } | Op::Del { key }) = op else {
            return Ok(());
        };
        let got = self
            .dict
            .get(key)
            .map_err(|e| self.fail(Some(i), format!("read-back failed: {e}")))?;
        let landed = match op {
            Op::Put { value, .. } => got.as_ref() == Some(value),
            _ => got.is_none(),
        };
        if landed {
            self.stats.landed_writes += 1;
            self.oracle.apply(op);
        } else if got != self.oracle.get(key) {
            return Err(self.fail(Some(i), format!("{op:?} failed half-applied")));
        }
        Ok(())
    }

    /// End of the trace: after a crash, "reboot" (faults clear, the device
    /// contents survive) and reopen; audit the full state; and check that
    /// a reopened tree is fully usable.
    fn finish(mut self) -> Result<ReplayStats, Failure> {
        let crash = matches!(self.mode, Mode::Crash { .. });
        if crash {
            self.switch.set(FaultMode::None);
            match self
                .structure
                .open(self.dev.clone(), &ShardConfig::default())
            {
                Ok(reopened) => self.dict = reopened,
                // No completed sync: nothing durable was promised. A clean
                // corruption report on open is the documented outcome.
                Err(KvError::Corrupt(_)) if !self.synced => {
                    self.stats.crash_corrupt_opens += 1;
                    return Ok(self.stats);
                }
                Err(e) => {
                    return Err(self.fail(
                        None,
                        if self.synced {
                            format!("durability violated: sync completed but reopen failed: {e}")
                        } else {
                            format!("reopen failed with unexpected error kind: {e}")
                        },
                    ))
                }
            }
        }
        self.audit()?;
        if crash {
            let key = vec![0xFEu8; 90];
            let probe = [
                Op::Put {
                    key: key.clone(),
                    value: b"probe".to_vec(),
                },
                Op::Get { key },
            ];
            for op in &probe {
                self.must(None, op, "post-recovery")?;
            }
            self.stats.crash_recoveries += 1;
        }
        self.stats.attributed_ios = self.attributed.ios;
        Ok(self.stats)
    }

    /// Full-state comparison: a finite range provably covering every
    /// oracle key, plus `len` equality to rule out stray keys anywhere
    /// above. A crash before the final sync may also recover the empty
    /// state (a structure that persists nothing at create, or the
    /// checkpoint it wrote there). Then attribution can never exceed what
    /// the device did (its stats include create-time and retried IOs, so
    /// `<=`), and span-attributed IO must be a subset of the IO the
    /// observed device saw.
    fn audit(&mut self) -> Result<(), Failure> {
        let ub = self.oracle.exclusive_upper_bound();
        let dump = self
            .call(None, &"final dump", |d| d.range(&[], &ub))?
            .map_err(|e| self.fail(None, format!("final dump failed: {e}")))?;
        let mut want = self.oracle.dump();
        if dump.is_empty() && !self.synced && matches!(self.mode, Mode::Crash { .. }) {
            want = Pairs::new();
        }
        if dump != want {
            return Err(self.fail(
                None,
                format!(
                    "final state diverged: oracle {}, tree {}",
                    describe_pairs(&want),
                    describe_pairs(&dump)
                ),
            ));
        }
        let n = self
            .call(None, &"final len", |d| d.len())?
            .map_err(|e| self.fail(None, format!("final len failed: {e}")))?;
        if n != want.len() as u64 {
            return Err(self.fail(
                None,
                format!("final len diverged: oracle {}, tree {n}", want.len()),
            ));
        }
        let st = self.dev.stats();
        if self.attributed.ios > st.reads + st.writes
            || self.attributed.bytes_read > st.bytes_read
            || self.attributed.bytes_written > st.bytes_written
        {
            return Err(self.fail(
                None,
                format!(
                    "cost attribution exceeds device totals: attributed {:?}, device {st:?}",
                    self.attributed
                ),
            ));
        }
        if let Some(obs) = &self.obs {
            let snap = obs.snapshot();
            if snap.attributed.ios > snap.device.ios
                || snap.attributed.bytes_read > snap.device.bytes_read
                || snap.attributed.bytes_written > snap.device.bytes_written
            {
                return Err(self.fail(
                    None,
                    format!(
                        "obs invariant violated: attributed {:?} exceeds device {:?}",
                        snap.attributed, snap.device
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// [`Mode::Concurrent`] for one structure.
fn run_concurrent(
    structure: Structure,
    clients: usize,
    shards: usize,
    trace: &[Op],
) -> Result<ReplayStats, Failure> {
    assert!(clients >= 1 && shards >= 1);
    let fail = |op_index: Option<usize>, message: String| Failure {
        mode: Mode::Concurrent { clients, shards },
        structure,
        op_index,
        message,
    };
    let mut per_client = vec![Vec::new(); clients];
    for (i, op) in trace.iter().enumerate() {
        per_client[i % clients].push(op.clone());
    }
    let cfg = ServeConfig {
        structure,
        clients,
        shards,
        p: 4,
        preload_keys: 0,
        ..ServeConfig::default()
    };
    let out = run_ops(&cfg, per_client)
        .map_err(|e| fail(None, format!("concurrent replay failed: {e}")))?;
    if out.commits.len() != trace.len() {
        return Err(fail(
            None,
            format!(
                "commit log has {} entries for a {}-op trace",
                out.commits.len(),
                trace.len()
            ),
        ));
    }
    // Commits are in execution order; each client's own ops commit in
    // its trace order, so a client's n-th commit is trace op
    // `client + n * clients`.
    let mut oracle = Oracle::default();
    let mut committed = vec![0; clients];
    for (i, c) in out.commits.iter().enumerate() {
        let at = c.client + committed[c.client] * clients;
        committed[c.client] += 1;
        if let Some(why) = divergence(&c.op, &oracle.apply(&c.op), &c.answer) {
            return Err(fail(
                Some(at),
                format!(
                    "k={clients} S={shards} commit {i} ({:?}) diverged from serial oracle: {why}",
                    c.op
                ),
            ));
        }
    }
    Ok(ReplayStats {
        steps: out.report.steps,
        batches: out.report.batches,
        ..ReplayStats::default()
    })
}

/// Prepare a trace for crash mode: mid-trace syncs are stripped and one
/// final `SyncAll` is appended, so a successful sync is always the last
/// durable point and "recovered state == a synced state" is exactly
/// checkable (post-sync in-place writes would otherwise blend states).
fn crash_ops(trace: &[Op]) -> Vec<Op> {
    let mid_trace = trace.iter().filter(|o| **o != Op::SyncAll).cloned();
    mid_trace.chain([Op::SyncAll]).collect()
}

/// Count the post-create device IOs of a crash trace's run with no crash
/// point — the denominator crash points are chosen from. The run is
/// differentially checked like any other.
fn crash_trace_total_ios(structure: Structure, trace: &[Op]) -> Result<u64, Failure> {
    let mut f = Fixture::new(
        Mode::Crash {
            crash_after: u64::MAX,
        },
        structure,
    )?;
    for (i, op) in crash_ops(trace).iter().enumerate() {
        f.step(i, op)?;
    }
    Ok(f.switch.stats().ios_seen)
}

/// Replay `trace` under `mode` for the given structures, comparing against
/// the oracle at every step. This is the one entry point of every mode:
/// shrunk reproducers and the seed-corpus regression tests call it.
pub fn replay(mode: Mode, structures: &[Structure], trace: &[Op]) -> Result<ReplayStats, Failure> {
    let mut stats = ReplayStats::default();
    if let Mode::Concurrent { clients, shards } = mode {
        for &s in structures {
            stats.add(&run_concurrent(s, clients, shards, trace)?);
        }
        return Ok(ReplayStats {
            ops: trace.len(),
            ..stats
        });
    }
    let crash_trace;
    let ops = match mode {
        Mode::Crash { .. } => {
            crash_trace = crash_ops(trace);
            &crash_trace[..]
        }
        _ => trace,
    };
    let mut fixtures = structures
        .iter()
        .map(|&s| Fixture::new(mode, s))
        .collect::<Result<Vec<_>, _>>()?;
    for (i, op) in ops.iter().enumerate() {
        for f in &mut fixtures {
            f.step(i, op)?;
        }
    }
    for f in fixtures {
        stats.add(&f.finish()?);
    }
    Ok(ReplayStats {
        ops: ops.len(),
        ..stats
    })
}

/// The most bytes `structure` may hold only in memory in the shard shape
/// `cfg` ([`ServeStructure::create`](dam_serve::ServeStructure::create)'s).
/// For the Bε-trees, two nodes (whole-node: `2 × node_bytes` each;
/// segmented: `2F = 8` segments of `node_bytes`): the root buffer's own
/// budget is at most a node, and a committed failure moves the buffers the
/// root node cannot keep up into it (seen reaching 1.03 nodes). For the
/// LSM-tree, the memtable budget plus one entry; nothing for the B-tree.
pub fn buffer_cap(structure: Structure, cfg: &ShardConfig) -> usize {
    match structure {
        Structure::BTree => 0,
        Structure::BeTree => 2 * 2 * cfg.node_bytes,
        Structure::OptBeTree => 2 * 8 * cfg.node_bytes,
        Structure::Lsm => 2 * cfg.node_bytes + cfg.block_bytes as usize,
    }
}

/// A device for [`Mode::Persistent`] with `full`: the structure's reserved
/// prefix plus 24 of its node (or table) slots, so a trace of a few
/// hundred writes fills it.
fn full_disk_bytes(structure: Structure, cfg: &ShardConfig) -> u64 {
    let (reserved, slot) = match structure {
        Structure::BTree => (4096, cfg.node_bytes),
        Structure::BeTree => (4096, 2 * cfg.node_bytes),
        Structure::OptBeTree => (4096, 8 * cfg.node_bytes),
        Structure::Lsm => (dam_lsm::MANIFEST_BYTES, 4 * cfg.node_bytes),
    };
    reserved + 24 * slot as u64
}

/// Greedy delta-debugging ([`ddmin`]): repeatedly drop chunks of the trace
/// while the failure (any failure, same mode + structure) persists.
/// `budget` caps the number of replay evaluations.
pub fn shrink(mode: Mode, structure: Structure, trace: &[Op], budget: usize) -> Vec<Op> {
    ddmin(trace, budget, |t| replay(mode, &[structure], t).is_err())
}

/// Configuration for a full [`check`] run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Seed for trace generation (fault schedules derive from it).
    pub seed: u64,
    /// Trace length for the lockstep modes.
    pub ops: usize,
    /// Structures to check (default: all four).
    pub structures: Vec<Structure>,
    /// Run the plain + Obs lockstep mode.
    pub plain: bool,
    /// Run the two fault-injection modes.
    pub faults: bool,
    /// Run the crash-recovery sweep.
    pub crash: bool,
    /// Run the persistent-fault mode, both variants (not part of the
    /// default run).
    pub persistent: bool,
    /// Trace prefix length for crash mode (each crash point replays it).
    pub crash_trace_ops: usize,
    /// Crash points per structure, spread over the clean run's IO count.
    pub crash_points: usize,
    /// Max replay evaluations while shrinking a failure.
    pub shrink_budget: usize,
    /// Clients for [`Mode::Concurrent`] (0 disables it).
    pub concurrent_clients: usize,
    /// Shards for [`Mode::Concurrent`].
    pub concurrent_shards: usize,
    /// Trace prefix length for the concurrent mode (engine replays are
    /// costlier per op than lockstep).
    pub concurrent_trace_ops: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            seed: 42,
            ops: 2_000,
            structures: Structure::ALL.to_vec(),
            plain: true,
            faults: true,
            crash: true,
            persistent: false,
            crash_trace_ops: 800,
            crash_points: 5,
            shrink_budget: 200,
            concurrent_clients: 3,
            concurrent_shards: 2,
            concurrent_trace_ops: 600,
        }
    }
}

/// Summary of a passing [`check`] run.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// One line per mode executed.
    pub lines: Vec<String>,
}

/// A failing [`check`] run: the original failure, the shrunk trace, and a
/// rendered ready-to-paste regression test.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// What diverged.
    pub failure: Failure,
    /// Minimal trace that still reproduces it.
    pub shrunk: Vec<Op>,
    /// `#[test]` source reproducing the failure via [`replay`].
    pub rendered: String,
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.failure)?;
        writeln!(
            f,
            "shrunk to {} ops; paste this regression test:",
            self.shrunk.len()
        )?;
        write!(f, "{}", self.rendered)
    }
}

fn shrunk_failure(cfg: &CheckConfig, failure: Failure, trace: &[Op]) -> Box<CheckFailure> {
    let shrunk = shrink(failure.mode, failure.structure, trace, cfg.shrink_budget);
    let rendered = render_test(
        "shrunk_reproducer",
        failure.mode,
        failure.structure,
        &shrunk,
    );
    Box::new(CheckFailure {
        failure,
        shrunk,
        rendered,
    })
}

/// Run the full differential check: plain lockstep (with Obs), absorbed
/// and surfaced fault modes, persistent faults on request, a
/// crash-recovery sweep, and the concurrent serving-engine mode. On
/// failure, in any mode, the trace is shrunk and rendered as a regression
/// test.
pub fn check(cfg: &CheckConfig) -> Result<CheckReport, Box<CheckFailure>> {
    let trace = generate_trace(cfg.seed, cfg.ops);
    let prefix = |n: usize| &trace[..n.min(trace.len())];
    let run = |mode: Mode, structures: &[Structure], trace: &[Op]| {
        replay(mode, structures, trace).map_err(|f| shrunk_failure(cfg, f, trace))
    };
    let n = cfg.structures.len();
    let mut report = CheckReport::default();
    if cfg.plain {
        let stats = run(Mode::Plain, &cfg.structures, &trace)?;
        report.lines.push(format!(
            "plain      : {n} structures x {} ops, {} attributed ios — ok",
            stats.ops, stats.attributed_ios
        ));
    }
    if cfg.faults {
        let stats = run(Mode::FaultsAbsorbed, &cfg.structures, &trace)?;
        report.lines.push(format!(
            "absorbed   : {n} structures x {} ops under Transient faults, 0 surfaced (retry absorbed all) — ok",
            stats.ops
        ));
        let mode = Mode::FaultsSurfaced {
            seed: cfg.seed ^ 0xFA17,
        };
        let stats = run(mode, &cfg.structures, &trace)?;
        report.lines.push(format!(
            "surfaced   : {n} structures x {} ops under Probabilistic faults, {} typed errors surfaced, {} redrives, all converged — ok",
            stats.ops, stats.surfaced_errors, stats.redrives
        ));
    }
    if cfg.persistent {
        let armed = run(Mode::Persistent { full: false }, &cfg.structures, &trace)?;
        let full = run(Mode::Persistent { full: true }, &cfg.structures, &trace)?;
        report.lines.push(format!(
            "persistent : {n} structures x {} ops, each armed with AfterIos(1): {} failed ({} had landed), {} redrives; on a full device: {} failed ({} had landed); buffers within cap, acked writes kept — ok",
            armed.ops,
            armed.surfaced_errors,
            armed.landed_writes,
            armed.redrives,
            full.surfaced_errors,
            full.landed_writes,
        ));
    }
    if cfg.crash {
        let crash_trace = prefix(cfg.crash_trace_ops);
        let points = cfg.crash_points as u64;
        let mut totals = ReplayStats::default();
        let mut runs = 0usize;
        for &s in &cfg.structures {
            let total = crash_trace_total_ios(s, crash_trace)
                .map_err(|f| shrunk_failure(cfg, f, crash_trace))?;
            // Odd fractions spread points away from the endpoints; one
            // point past the end fires no crash (the full recovery path).
            let spread = (0..points).map(|j| (total * (2 * j + 1) / (2 * points)).max(1));
            for crash_after in spread.chain([total + 16]) {
                totals.add(&run(Mode::Crash { crash_after }, &[s], crash_trace)?);
                runs += 1;
            }
        }
        report.lines.push(format!(
            "crash      : {runs} crash points over {n} structures: {} corrupt-on-open, {} synced-state recoveries — ok",
            totals.crash_corrupt_opens, totals.crash_recoveries
        ));
    }
    if cfg.concurrent_clients > 0 {
        let (clients, shards) = (cfg.concurrent_clients, cfg.concurrent_shards);
        let concurrent_trace = prefix(cfg.concurrent_trace_ops);
        let stats = run(
            Mode::Concurrent { clients, shards },
            &cfg.structures,
            concurrent_trace,
        )?;
        report.lines.push(format!(
            "concurrent : {n} structures x {} ops as {clients} clients / {shards} shards through the serving engine, {} PDAM steps, {} write batches, commit log == serial oracle — ok",
            stats.ops, stats.steps, stats.batches
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_plain_lockstep_passes() {
        let trace = generate_trace(7, 300);
        replay(Mode::Plain, &Structure::ALL, &trace).expect("divergence");
    }

    #[test]
    fn degenerate_ranges_are_empty_everywhere() {
        let trace = vec![
            Op::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            },
            Op::Put {
                key: b"b".to_vec(),
                value: b"2".to_vec(),
            },
            Op::Range {
                start: b"b".to_vec(),
                end: b"b".to_vec(),
            },
            Op::Range {
                start: b"z".to_vec(),
                end: b"a".to_vec(),
            },
            Op::Range {
                start: b"a".to_vec(),
                end: b"c".to_vec(),
            },
        ];
        replay(Mode::Plain, &Structure::ALL, &trace).expect("degenerate range divergence");
    }

    #[test]
    fn adversarial_trace_replays_concurrently_for_all_structures() {
        let trace = generate_trace(11, 250);
        for s in Structure::ALL {
            let mode = Mode::Concurrent {
                clients: 3,
                shards: 2,
            };
            let stats = replay(mode, &[s], &trace).expect("divergence");
            assert_eq!(stats.ops, 250, "{s:?}");
            assert!(stats.steps > 0, "{s:?}");
        }
    }

    #[test]
    fn client_count_never_changes_answers() {
        let trace = generate_trace(23, 120);
        for clients in [1, 2, 5] {
            let mode = Mode::Concurrent { clients, shards: 3 };
            replay(mode, &[Structure::BeTree], &trace).expect("divergence");
        }
    }

    /// A 4 KiB value fits no fixture's 1 KiB node, so every structure
    /// refuses it with `KvError::Config`: in any mode, shrinking must cut
    /// the trace down to exactly that insert, and the rendered test must
    /// replay it under the failing mode.
    #[test]
    fn shrink_reduces_a_failing_trace_to_the_refused_insert() {
        let big = Op::Put {
            key: b"big".to_vec(),
            value: vec![7; 4096],
        };
        let mut trace = generate_trace(3, 50);
        trace.insert(20, big.clone());
        for s in Structure::ALL {
            let f = replay(Mode::Plain, &[s], &trace).expect_err("4 KiB insert accepted");
            assert_eq!(f.op_index, Some(20), "{f}");
            assert!(f.message.contains("configuration error"), "{f}");
        }
        let rendered_big = format!(
            "        Op::Put {{ key: vec![98, 105, 103], value: vec![{}] }},\n",
            ["7"; 4096].join(", ")
        );
        let cfg = CheckConfig::default();
        for mode in [
            Mode::Plain,
            Mode::Concurrent {
                clients: 3,
                shards: 2,
            },
        ] {
            let f = replay(mode, &[Structure::BTree], &trace).expect_err("4 KiB insert accepted");
            assert_eq!(f.mode, mode);
            let out = shrunk_failure(&cfg, f, &trace);
            assert_eq!(out.shrunk, vec![big.clone()], "{mode:?}");
            assert!(out.rendered.contains(&rendered_big), "{}", out.rendered);
            assert!(
                out.rendered.contains(&format!(
                    "replay(Mode::{mode:?}, &[Structure::BTree], &trace)"
                )),
                "{}",
                out.rendered
            );
        }
        let concurrent = shrunk_failure(
            &cfg,
            replay(
                Mode::Concurrent {
                    clients: 4,
                    shards: 3,
                },
                &[Structure::Lsm],
                &trace,
            )
            .expect_err("4 KiB insert accepted"),
            &trace,
        );
        assert!(concurrent.rendered.contains(
            "replay(Mode::Concurrent { clients: 4, shards: 3 }, &[Structure::Lsm], &trace)"
        ));
    }
}
