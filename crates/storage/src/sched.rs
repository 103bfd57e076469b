//! The PDAM IO scheduler: step-based dispatch of concurrent clients' block
//! requests against a device with `P` IO slots per time step (Definition 1,
//! §8).
//!
//! [`concurrency::run_closed_loop`](crate::concurrency::run_closed_loop)
//! drives *raw device IOs* — one outstanding IO per client, no structure
//! above the block layer. This module is the missing layer between the
//! dictionaries and the PDAM device: dictionary operations are expressed as
//! [`IoChain`]s (sequential waves of independent block reads, e.g. one wave
//! per node on a root-to-leaf path, with every block of a fat node in the
//! same wave), and the scheduler advances simulated time in PDAM steps:
//!
//! * each step it collects every client's *ready* blocks (the unserved
//!   remainder of its chain's current wave),
//! * **coalesces** duplicate reads — two clients needing the same block in
//!   the same step consume one slot, both complete — and merges adjacent
//!   dispatched blocks into single IOs for the dispatch count,
//! * dispatches at most `P` blocks per step with **max-min fair** slot
//!   allocation: clients are served round-robin from a rotating cursor, so
//!   each of `k` active clients gets `~P/k` slots and idle clients' slots
//!   are stolen by busy ones.
//!
//! Everything is deterministic: same submissions in the same order produce
//! the same schedule, step by step. `dam-serve` builds its multi-client
//! serving engine on top; the property tests in
//! `crates/storage/tests/prop_sched.rs` pin the invariants (never more
//! than `P` slots per step, no lost or duplicated completions, max-min
//! fairness under denial).

use std::collections::VecDeque;

/// Address of one block-sized unit of IO. `space` namespaces independent
/// devices (e.g. shards): blocks coalesce only within the same space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr {
    /// Device/shard namespace.
    pub space: u32,
    /// Block index within the space.
    pub block: u64,
}

/// One block request: an address plus direction. Writes never coalesce
/// across clients (two clients' writes to one block are distinct IOs);
/// reads of the same address in the same step do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockReq {
    /// Target block.
    pub addr: BlockAddr,
    /// True for writes.
    pub write: bool,
}

/// The IO dependency structure of one logical operation: a sequence of
/// *waves*. Blocks within a wave are independent (a fat node's blocks, a
/// batch of sibling writes) and may dispatch in the same step; waves are
/// strictly ordered (a child node cannot be read before its parent).
///
/// Stored flat: every block in one vector, the exclusive end index of each
/// wave, and a cursor at the first unserved block. Serving blocks advances
/// the cursor; nothing is copied or moved while a chain is in flight.
#[derive(Debug, Clone, Default)]
pub struct IoChain {
    blocks: Vec<BlockReq>,
    /// Exclusive end of each wave in `blocks`, strictly increasing.
    ends: Vec<u32>,
    /// Index in `ends` of the wave `cursor` is in.
    wave: usize,
    /// First unserved block.
    cursor: u32,
}

impl IoChain {
    /// An empty chain (an operation fully served from cache). It still
    /// occupies its client for one step — CPU work is not free — but
    /// consumes no IO slots.
    pub fn empty() -> Self {
        IoChain::default()
    }

    /// Append one wave. Empty waves are dropped.
    pub fn push_wave(&mut self, wave: Vec<BlockReq>) {
        self.blocks.extend(wave);
        self.close_wave();
    }

    /// End the wave made of the blocks pushed since the previous wave
    /// ended; nothing happens if there are none.
    fn close_wave(&mut self) {
        let end = u32::try_from(self.blocks.len()).expect("IoChain holds at most u32::MAX blocks");
        if end > self.ends.last().copied().unwrap_or(0) {
            self.ends.push(end);
        }
    }

    /// Build a chain from a sequence of byte-granular IOs against one
    /// space: each `(write, offset, len)` becomes a wave covering the
    /// block range `[offset/B, (offset+len-1)/B]`. Consecutive IOs are
    /// dependent (they came from a sequential caller), so each forms its
    /// own wave.
    pub fn from_ios(space: u32, block_bytes: u64, ios: &[(bool, u64, u64)]) -> Self {
        assert!(block_bytes > 0);
        let range = |offset: u64, len: u64| offset / block_bytes..=(offset + len - 1) / block_bytes;
        let ios = || ios.iter().filter(|io| io.2 > 0);
        let mut chain = IoChain {
            blocks: Vec::with_capacity(ios().map(|&(_, o, l)| range(o, l).count()).sum()),
            ends: Vec::with_capacity(ios().count()),
            ..IoChain::default()
        };
        for &(write, offset, len) in ios() {
            chain
                .blocks
                .extend(range(offset, len).map(|block| BlockReq {
                    addr: BlockAddr { space, block },
                    write,
                }));
            chain.close_wave();
        }
        chain
    }

    /// Merge chains so they progress in parallel: wave `i` of the result
    /// is the concatenation of every input's wave `i` (in input order).
    /// Used for fan-out operations (a range query hitting every shard):
    /// intra-chain dependencies are preserved, cross-chain blocks may share
    /// a step.
    pub fn merge_parallel(chains: impl IntoIterator<Item = IoChain>) -> IoChain {
        let chains: Vec<IoChain> = chains.into_iter().collect();
        let depth = chains.iter().map(IoChain::depth).max().unwrap_or(0);
        let mut merged = IoChain {
            blocks: Vec::with_capacity(chains.iter().map(IoChain::blocks).sum()),
            ends: Vec::with_capacity(depth),
            ..IoChain::default()
        };
        let mut waves: Vec<_> = chains.iter().map(IoChain::waves).collect();
        for _ in 0..depth {
            for wave in waves.iter_mut().filter_map(Iterator::next) {
                merged.blocks.extend_from_slice(wave);
            }
            merged.close_wave();
        }
        merged
    }

    /// The unserved waves, in order; the first may be partly served.
    fn waves(&self) -> impl Iterator<Item = &[BlockReq]> + '_ {
        let mut start = self.cursor as usize;
        self.ends[self.wave..].iter().map(move |&end| {
            let wave = &self.blocks[start..end as usize];
            start = end as usize;
            wave
        })
    }

    /// The unserved blocks of the current wave (empty when the chain is).
    fn ready(&self) -> &[BlockReq] {
        match self.ends.get(self.wave) {
            Some(&end) => &self.blocks[self.cursor as usize..end as usize],
            None => &[],
        }
    }

    /// Mark the first `n` blocks of the current wave served.
    fn advance(&mut self, n: usize) {
        let end = self.ends[self.wave];
        let cursor = self.cursor + u32::try_from(n).expect("a wave holds at most u32::MAX blocks");
        assert!(cursor <= end, "served past the end of the wave");
        self.cursor = cursor;
        if cursor == end {
            self.wave += 1;
        }
    }

    /// Total unserved blocks across all waves.
    pub fn blocks(&self) -> usize {
        self.blocks.len() - self.cursor as usize
    }

    /// Number of unserved waves (the chain's critical-path length in
    /// steps, absent contention).
    pub fn depth(&self) -> usize {
        self.ends.len() - self.wave
    }

    /// True when no blocks remain.
    pub fn is_empty(&self) -> bool {
        self.wave == self.ends.len()
    }
}

/// Chains are equal when their unserved waves are.
impl PartialEq for IoChain {
    fn eq(&self, other: &Self) -> bool {
        self.waves().eq(other.waves())
    }
}

impl Eq for IoChain {}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// IO slots the device serves per step (`P`).
    pub p: usize,
    /// Number of clients (fixed for the scheduler's lifetime).
    pub clients: usize,
    /// Record a per-step audit trail ([`PdamScheduler::step_records`]).
    /// Costs memory linear in steps; meant for tests.
    pub record_steps: bool,
}

/// Cumulative scheduler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Steps executed.
    pub steps: u64,
    /// Block completions delivered to clients (slot-consuming + coalesced).
    pub blocks_served: u64,
    /// Slot-consuming block dispatches.
    pub slots_used: u64,
    /// Completions served for free by piggybacking on another client's
    /// read of the same block in the same step.
    pub coalesced_blocks: u64,
    /// Dispatch units after merging adjacent same-direction blocks.
    pub io_dispatches: u64,
    /// Largest per-step slot usage observed (invariant: `<= p`).
    pub max_slots_in_step: u64,
    /// Chains fully completed.
    pub chains_completed: u64,
}

impl SchedStats {
    /// Fraction of slot capacity used over all steps (0 when no steps ran).
    pub fn slot_utilization(&self, p: usize) -> f64 {
        if self.steps == 0 || p == 0 {
            return 0.0;
        }
        self.slots_used as f64 / (self.steps * p as u64) as f64
    }

    /// Fraction of served blocks that rode a coalesced dispatch.
    pub fn coalesce_rate(&self) -> f64 {
        if self.blocks_served == 0 {
            return 0.0;
        }
        self.coalesced_blocks as f64 / self.blocks_served as f64
    }
}

/// Audit record of one step, for the property tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRecord {
    /// Step index (0-based).
    pub step: u64,
    /// Slot-consuming dispatches this step.
    pub slots_used: usize,
    /// Per client: blocks ready at step start (current wave remainder).
    pub ready: Vec<usize>,
    /// Per client: blocks served this step (slot-consuming + coalesced).
    pub served: Vec<usize>,
    /// Per client: slot-consuming grants this step.
    pub slot_granted: Vec<usize>,
    /// Per client: true if the client wanted another block and was denied
    /// because all `P` slots were taken.
    pub denied: Vec<bool>,
}

/// What one [`PdamScheduler::step`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome {
    /// `(client, chain id)` pairs whose last block completed this step.
    pub completed: Vec<(usize, u64)>,
    /// Slot-consuming dispatches this step.
    pub slots_used: usize,
    /// True when no client had any work (the step was a no-op and the
    /// clock did not advance).
    pub idle: bool,
}

struct Flight {
    id: u64,
    chain: IoChain,
}

/// One client's part of a step.
#[derive(Debug, Clone, Copy, Default)]
struct Visit {
    /// Unserved blocks of the current wave at the start of the step.
    ready: usize,
    /// Blocks of the current wave served (slot-consuming + coalesced).
    served: usize,
    /// Slot-consuming grants.
    granted: usize,
    /// Denied a slot, and so blocked until the step ends.
    denied: bool,
}

/// Per-step working state, kept between steps so a step allocates nothing
/// (each step starts by clearing it).
#[derive(Default)]
struct Scratch {
    /// Indexed by client.
    visits: Vec<Visit>,
    /// Slot-consuming dispatches this step: at most `P`. Its reads are the
    /// step's read set.
    dispatch: Vec<BlockReq>,
}

/// Where a block request sits against the blocks already dispatched this
/// step in its space and direction.
#[derive(Default)]
struct Neighbours {
    /// The same block was dispatched.
    same: bool,
    /// The block just before it was dispatched.
    before: bool,
    /// The block just after it was dispatched.
    after: bool,
}

impl Neighbours {
    fn of(req: BlockReq, dispatched: &[BlockReq]) -> Self {
        let mut n = Neighbours::default();
        for d in dispatched {
            if d.write == req.write && d.addr.space == req.addr.space {
                n.same |= d.addr.block == req.addr.block;
                n.before |= d.addr.block.checked_add(1) == Some(req.addr.block);
                n.after |= req.addr.block.checked_add(1) == Some(d.addr.block);
            }
        }
        n
    }
}

/// The step-based PDAM dispatcher. See the module docs.
pub struct PdamScheduler {
    cfg: SchedConfig,
    /// Per client: the chain in flight. Kept apart from the chains queued
    /// behind it, so a step reads one contiguous array.
    heads: Vec<Option<Flight>>,
    /// Per client: chains submitted while one was in flight, in order.
    queued: Vec<VecDeque<Flight>>,
    next_id: u64,
    step: u64,
    rr: usize,
    stats: SchedStats,
    records: Vec<StepRecord>,
    scratch: Scratch,
}

impl PdamScheduler {
    /// A scheduler for `cfg.clients` clients over `cfg.p` slots.
    pub fn new(cfg: SchedConfig) -> Self {
        assert!(cfg.p >= 1, "PDAM needs at least one IO slot");
        assert!(cfg.clients >= 1, "need at least one client");
        PdamScheduler {
            heads: (0..cfg.clients).map(|_| None).collect(),
            queued: (0..cfg.clients).map(|_| VecDeque::new()).collect(),
            cfg,
            next_id: 0,
            step: 0,
            rr: 0,
            stats: SchedStats::default(),
            records: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Enqueue a chain for `client`; chains of one client execute in
    /// submission order. Returns the chain's id, reported back through
    /// [`StepOutcome::completed`].
    pub fn submit(&mut self, client: usize, chain: IoChain) -> u64 {
        assert!(client < self.cfg.clients, "client out of range");
        let id = self.next_id;
        self.next_id += 1;
        let flight = Flight { id, chain };
        match &self.heads[client] {
            None => self.heads[client] = Some(flight),
            Some(_) => self.queued[client].push_back(flight),
        }
        id
    }

    /// Chains queued (including in-flight) for `client`.
    pub fn pending(&self, client: usize) -> usize {
        usize::from(self.heads[client].is_some()) + self.queued[client].len()
    }

    /// True when no client has queued work.
    pub fn is_idle(&self) -> bool {
        self.heads.iter().all(Option::is_none)
    }

    /// Current step count.
    pub fn now_steps(&self) -> u64 {
        self.step
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// The audit trail (empty unless `cfg.record_steps`).
    pub fn step_records(&self) -> &[StepRecord] {
        &self.records
    }

    /// Execute one PDAM step. Dispatches up to `P` blocks, delivers
    /// completions, and advances the step clock (unless idle).
    pub fn step(&mut self) -> StepOutcome {
        let k = self.cfg.clients;
        if self.is_idle() {
            return StepOutcome {
                completed: Vec::new(),
                slots_used: 0,
                idle: true,
            };
        }
        let PdamScheduler {
            cfg,
            heads,
            queued,
            stats,
            scratch: sc,
            ..
        } = self;
        // Ready blocks per client: the current wave of its chain in flight.
        // (An empty chain has no ready blocks and completes this step.)
        let ready = |c: usize| heads[c].as_ref().map_or(&[][..], |f| f.chain.ready());
        sc.visits.clear();
        sc.visits.extend((0..k).map(|c| Visit {
            ready: ready(c).len(),
            ..Visit::default()
        }));
        sc.dispatch.clear();

        // Max-min fair allocation: strict round-robin cycles from a
        // rotating cursor. A visit serves the client's next in-order block
        // — free if an identical read was already dispatched this step
        // (coalescing), else consuming a slot if one is left. A client
        // denied a slot is blocked for the rest of the step (blocks within
        // a wave are served in order, so later dup chances are forfeited;
        // this keeps the schedule deterministic and the fairness proof
        // simple).
        //
        // `live` counts the clients a visit can still serve: neither denied
        // nor through their wave. Once it reaches zero every further visit
        // is a no-op, so the cycle stops there.
        //
        // Adjacent same-direction blocks in the same space merge into one
        // dispatch unit (a single larger IO on the wire): `merged` counts
        // the distinct dispatched blocks whose predecessor was dispatched
        // too, so the step makes `slots_used - merged` dispatches.
        let mut slots_used = 0usize;
        let mut merged = 0usize;
        let mut blocks_served = 0u64;
        let mut live = sc.visits.iter().filter(|v| v.ready > 0).count();
        let mut c = self.rr;
        while live > 0 {
            let v = &mut sc.visits[c];
            if !v.denied && v.served < v.ready {
                let req = ready(c)[v.served];
                let near = Neighbours::of(req, &sc.dispatch);
                if !req.write && near.same {
                    // Coalesced join: another client already pays the slot.
                    stats.coalesced_blocks += 1;
                } else if slots_used < cfg.p {
                    slots_used += 1;
                    v.granted += 1;
                    if !near.same {
                        merged += usize::from(near.before) + usize::from(near.after);
                    }
                    sc.dispatch.push(req);
                } else {
                    v.denied = true;
                    live -= 1;
                }
                if !v.denied {
                    v.served += 1;
                    blocks_served += 1;
                    if v.served == v.ready {
                        live -= 1;
                    }
                }
            }
            c += 1;
            if c == k {
                c = 0;
            }
        }

        let dispatches = (slots_used - merged) as u64;

        if cfg.record_steps {
            self.records.push(StepRecord {
                step: self.step,
                slots_used,
                ready: sc.visits.iter().map(|v| v.ready).collect(),
                served: sc.visits.iter().map(|v| v.served).collect(),
                slot_granted: sc.visits.iter().map(|v| v.granted).collect(),
                denied: sc.visits.iter().map(|v| v.denied).collect(),
            });
        }

        // Deliver completions: served blocks advance their chain's cursor;
        // an empty chain completes and the client's next one takes over.
        let mut completed = Vec::new();
        for (c, head) in heads.iter_mut().enumerate() {
            if let Some(flight) = head {
                if sc.visits[c].served > 0 {
                    flight.chain.advance(sc.visits[c].served);
                }
                if flight.chain.is_empty() {
                    completed.push((c, flight.id));
                    *head = queued[c].pop_front();
                    stats.chains_completed += 1;
                }
            }
        }

        stats.steps += 1;
        stats.blocks_served += blocks_served;
        stats.slots_used += slots_used as u64;
        stats.io_dispatches += dispatches;
        stats.max_slots_in_step = stats.max_slots_in_step.max(slots_used as u64);
        self.step += 1;
        self.rr += 1;
        if self.rr == k {
            self.rr = 0;
        }
        StepOutcome {
            completed,
            slots_used,
            idle: false,
        }
    }

    /// Step until every submitted chain completes; returns steps executed.
    pub fn run_to_idle(&mut self) -> u64 {
        let start = self.step;
        while !self.is_idle() {
            self.step();
        }
        self.step - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(space: u32, block: u64) -> BlockReq {
        BlockReq {
            addr: BlockAddr { space, block },
            write: false,
        }
    }

    fn chain_of(blocks: &[u64]) -> IoChain {
        let mut c = IoChain::default();
        for &b in blocks {
            c.push_wave(vec![req(0, b)]);
        }
        c
    }

    #[test]
    fn single_client_serial_chain_takes_one_step_per_wave() {
        let mut s = PdamScheduler::new(SchedConfig {
            p: 4,
            clients: 1,
            record_steps: false,
        });
        s.submit(0, chain_of(&[1, 2, 3]));
        assert_eq!(s.run_to_idle(), 3);
        assert_eq!(s.stats().slots_used, 3);
        assert_eq!(s.stats().chains_completed, 1);
    }

    #[test]
    fn fat_wave_uses_all_slots() {
        // One wave of 8 blocks over P=4: two steps.
        let mut s = PdamScheduler::new(SchedConfig {
            p: 4,
            clients: 1,
            record_steps: false,
        });
        let mut c = IoChain::default();
        c.push_wave((0..8).map(|b| req(0, b)).collect());
        s.submit(0, c);
        assert_eq!(s.run_to_idle(), 2);
        assert_eq!(s.stats().max_slots_in_step, 4);
        // Adjacent blocks merge into one dispatch per step.
        assert_eq!(s.stats().io_dispatches, 2);
    }

    #[test]
    fn duplicate_reads_coalesce_across_clients() {
        let mut s = PdamScheduler::new(SchedConfig {
            p: 1,
            clients: 2,
            record_steps: false,
        });
        s.submit(0, chain_of(&[7]));
        s.submit(1, chain_of(&[7]));
        // One slot, one shared block: both complete in a single step.
        assert_eq!(s.run_to_idle(), 1);
        assert_eq!(s.stats().slots_used, 1);
        assert_eq!(s.stats().coalesced_blocks, 1);
        assert_eq!(s.stats().blocks_served, 2);
        assert_eq!(s.stats().chains_completed, 2);
    }

    #[test]
    fn duplicate_writes_do_not_coalesce() {
        let mut s = PdamScheduler::new(SchedConfig {
            p: 1,
            clients: 2,
            record_steps: false,
        });
        let w = |b| {
            let mut c = IoChain::default();
            c.push_wave(vec![BlockReq {
                addr: BlockAddr { space: 0, block: b },
                write: true,
            }]);
            c
        };
        s.submit(0, w(7));
        s.submit(1, w(7));
        assert_eq!(s.run_to_idle(), 2);
        assert_eq!(s.stats().coalesced_blocks, 0);
        assert_eq!(s.stats().slots_used, 2);
    }

    #[test]
    fn different_spaces_never_coalesce() {
        let mut s = PdamScheduler::new(SchedConfig {
            p: 1,
            clients: 2,
            record_steps: false,
        });
        let mut a = IoChain::default();
        a.push_wave(vec![req(0, 7)]);
        let mut b = IoChain::default();
        b.push_wave(vec![req(1, 7)]);
        s.submit(0, a);
        s.submit(1, b);
        assert_eq!(s.run_to_idle(), 2);
        assert_eq!(s.stats().coalesced_blocks, 0);
    }

    #[test]
    fn empty_chain_completes_in_one_step_without_slots() {
        let mut s = PdamScheduler::new(SchedConfig {
            p: 2,
            clients: 1,
            record_steps: false,
        });
        let id = s.submit(0, IoChain::empty());
        let out = s.step();
        assert_eq!(out.completed, vec![(0, id)]);
        assert_eq!(out.slots_used, 0);
        assert!(s.is_idle());
    }

    #[test]
    fn idle_scheduler_does_not_advance_the_clock() {
        let mut s = PdamScheduler::new(SchedConfig {
            p: 2,
            clients: 1,
            record_steps: false,
        });
        assert!(s.step().idle);
        assert_eq!(s.now_steps(), 0);
    }

    #[test]
    fn work_stealing_lets_one_client_use_all_slots() {
        // Client 1 idle: client 0's 4-block wave takes one step at P=4.
        let mut s = PdamScheduler::new(SchedConfig {
            p: 4,
            clients: 2,
            record_steps: false,
        });
        let mut c = IoChain::default();
        c.push_wave((0..4).map(|b| req(0, b)).collect());
        s.submit(0, c);
        assert_eq!(s.run_to_idle(), 1);
        assert_eq!(s.stats().max_slots_in_step, 4);
    }

    #[test]
    fn fair_split_under_contention() {
        // Two clients with 4-block waves over P=4: each gets 2 slots per
        // step, both finish after 2 steps.
        let mut s = PdamScheduler::new(SchedConfig {
            p: 4,
            clients: 2,
            record_steps: true,
        });
        for c in 0..2u32 {
            let mut chain = IoChain::default();
            chain.push_wave((0..4).map(|b| req(c, b)).collect());
            s.submit(c as usize, chain);
        }
        assert_eq!(s.run_to_idle(), 2);
        for r in s.step_records() {
            assert_eq!(r.slot_granted, vec![2, 2], "unfair split: {r:?}");
        }
    }

    #[test]
    fn chain_from_ios_covers_block_ranges() {
        let c = IoChain::from_ios(3, 512, &[(false, 0, 1536), (true, 1000, 24), (false, 0, 0)]);
        assert_eq!(c.depth(), 2);
        assert_eq!(c.blocks(), 4); // 3 read blocks + 1 write block
        let waves: Vec<_> = c.waves().collect();
        assert_eq!(waves[0].len(), 3);
        assert!(waves[0].iter().all(|r| !r.write && r.addr.space == 3));
        assert_eq!(waves[1].len(), 1);
        assert!(waves[1][0].write);
        assert_eq!(waves[1][0].addr.block, 1);
        assert_eq!(c.ends, vec![3, 4]);
    }

    #[test]
    fn merge_parallel_zips_waves() {
        let a = chain_of(&[1, 2, 3]);
        let b = chain_of(&[10, 11]);
        let m = IoChain::merge_parallel([a, b]);
        assert_eq!(m.depth(), 3);
        assert_eq!(m.blocks(), 5);
        let waves: Vec<_> = m.waves().map(<[BlockReq]>::len).collect();
        assert_eq!(waves, vec![2, 2, 1]);
        assert_eq!(m.ends, vec![2, 4, 5]);
        // A merged fan-out over ample slots takes max(depth), not sum.
        let mut s = PdamScheduler::new(SchedConfig {
            p: 4,
            clients: 1,
            record_steps: false,
        });
        s.submit(
            0,
            IoChain::merge_parallel([chain_of(&[1, 2, 3]), chain_of(&[10, 11])]),
        );
        assert_eq!(s.run_to_idle(), 3);
    }

    #[test]
    fn partly_served_chain_counts_only_what_is_left() {
        let mut c = IoChain::empty();
        c.push_wave((0..3).map(|b| req(0, b)).collect());
        c.push_wave(vec![req(0, 9)]);
        c.advance(2);
        assert_eq!((c.blocks(), c.depth()), (2, 2));
        assert_eq!(c.ready(), &[req(0, 2)]);
        c.advance(1);
        assert_eq!((c.blocks(), c.depth()), (1, 1));
        assert_eq!(c, chain_of(&[9]));
        // A wave pushed after serving starts at the cursor.
        c.push_wave(vec![req(0, 4), req(0, 5)]);
        assert_eq!((c.blocks(), c.depth()), (3, 2));
        c.advance(1);
        assert!(!c.is_empty());
        assert_eq!(c.ready(), &[req(0, 4), req(0, 5)]);
        c.advance(2);
        assert!(c.is_empty());
        assert_eq!((c.blocks(), c.depth()), (0, 0));
        assert_eq!(c, IoChain::empty());
        assert_eq!(c.ready(), &[]);
    }

    #[test]
    fn deterministic_schedule() {
        let run = || {
            let mut s = PdamScheduler::new(SchedConfig {
                p: 3,
                clients: 3,
                record_steps: true,
            });
            for c in 0..3 {
                s.submit(c, chain_of(&[c as u64, 10 + c as u64, 7]));
            }
            s.run_to_idle();
            (s.stats(), s.step_records().to_vec())
        };
        assert_eq!(run(), run());
    }
}
