//! The PDAM time-step simulator of §8.
//!
//! `k` closed-loop clients run random point queries against a static search
//! tree. Each time step the device serves up to `P` block fetches
//! (Definition 1). Slots are divided round-robin among clients with pending
//! demands; leftover slots *expand* granted requests into contiguous
//! read-ahead runs — the §8 prefetching story. A client advances through
//! comparisons for free once the blocks it needs are resident; crossing to
//! the next tree node drops its residency set (the cache serves one node at
//! a time per client, as in the paper's walk-through).
//!
//! Three designs compete (the §8 narrative):
//!
//! * fat `PB` nodes in vEB layout — optimal at every `k` (Lemma 13),
//! * fat `PB` nodes with sorted pivots — scattered probes defeat read-ahead,
//! * small `B` nodes — fine at `k = P`, wasteful at `k = 1`.

use crate::node::{IntraNode, NodeLayout};
use dam_stats::rng::{Rng, GOLDEN};
use std::collections::HashSet;

/// Tree/node design under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeDesign {
    /// Nodes of `node_blocks` blocks, pivots in vEB order.
    FatVeb,
    /// Nodes of `node_blocks` blocks, pivots sorted, binary search.
    FatSorted,
    /// Nodes of one block each (the classic B-tree sizing).
    SmallNodes,
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdamSimConfig {
    /// Device parallelism `P`: block fetches per time step.
    pub p: usize,
    /// Concurrent query clients `k`.
    pub clients: usize,
    /// Pivots per block (`B` in entries).
    pub block_pivots: u64,
    /// Blocks per fat node (`P` in the paper's `PB` sizing; ignored for
    /// [`TreeDesign::SmallNodes`]).
    pub node_blocks: u64,
    /// Key-space size (`N`).
    pub n_items: u64,
    /// Which design to simulate.
    pub design: TreeDesign,
    /// Time steps to run.
    pub steps: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Simulator output.
#[derive(Debug, Clone, PartialEq)]
pub struct PdamSimResult {
    /// Queries completed within the step budget.
    pub queries_completed: u64,
    /// Aggregate throughput in queries per time step.
    pub throughput: f64,
    /// Mean steps per completed query.
    pub mean_steps_per_query: f64,
    /// Total block fetches issued (including read-ahead).
    pub blocks_fetched: u64,
}

/// Height (levels of pivots) of a fat node holding `node_blocks · block_pivots`
/// pivots: the tallest complete tree that fits.
fn fat_node_height(cfg: &PdamSimConfig) -> u32 {
    let pivots = cfg.node_blocks * cfg.block_pivots;
    let mut h = 1u32;
    while (1u64 << (h + 1)) - 1 <= pivots {
        h += 1;
    }
    h
}

fn small_node_height(cfg: &PdamSimConfig) -> u32 {
    let mut h = 1u32;
    while (1u64 << (h + 1)) - 1 <= cfg.block_pivots {
        h += 1;
    }
    h
}

/// Per-client traversal state.
struct ClientState {
    key: u64,
    lo: u64,
    hi: u64,
    node_height: u32,
    /// The key range of the child the current node's search routes to.
    child: (u64, u64),
    demands: Vec<u64>,
    resident: HashSet<u64>,
    steps: u64,
    completed: u64,
    total_query_steps: u64,
    rng: Rng,
}

impl ClientState {
    fn new(cfg: &PdamSimConfig, seed: u64) -> ClientState {
        let mut c = ClientState {
            key: 0,
            lo: 0,
            hi: cfg.n_items,
            node_height: 1,
            child: (0, 0),
            demands: Vec::new(),
            resident: HashSet::new(),
            steps: 0,
            completed: 0,
            total_query_steps: 0,
            rng: Rng::seed_from_u64(seed),
        };
        c.start_query(cfg);
        c
    }

    fn design_params(cfg: &PdamSimConfig) -> (u32, NodeLayout) {
        match cfg.design {
            TreeDesign::FatVeb => (fat_node_height(cfg), NodeLayout::Veb),
            TreeDesign::FatSorted => (fat_node_height(cfg), NodeLayout::Sorted),
            TreeDesign::SmallNodes => (small_node_height(cfg), NodeLayout::Veb),
        }
    }

    fn start_query(&mut self, cfg: &PdamSimConfig) {
        self.key = self.rng.gen_range(0..cfg.n_items);
        self.lo = 0;
        self.hi = cfg.n_items;
        self.steps = 0;
        self.enter_node(cfg);
    }

    /// Set up demands for the node covering `[lo, hi)`.
    fn enter_node(&mut self, cfg: &PdamSimConfig) {
        self.resident.clear();
        let span = self.hi - self.lo;
        if span <= cfg.block_pivots.max(2) {
            // Final leaf block: demand exactly one block fetch for the leaf.
            self.node_height = 0;
            self.demands = vec![0];
            return;
        }
        let (max_h, layout) = Self::design_params(cfg);
        let mut h = max_h.max(1);
        while h > 1 && (span >> h) == 0 {
            h -= 1;
        }
        self.node_height = h;
        let node = IntraNode::build(self.lo, self.hi, h, layout);
        let (child, blocks) = node.block_demands(self.key, cfg.block_pivots);
        self.child = node.child_range(child);
        self.demands = blocks;
    }

    /// Consume resident blocks: advance through demands whose blocks are
    /// resident; descend to the next node (or finish the query) when the
    /// current node's demands are exhausted. Returns queries completed.
    fn advance(&mut self, cfg: &PdamSimConfig) -> u64 {
        let mut finished = 0u64;
        loop {
            while let Some(&b) = self.demands.first() {
                if self.resident.contains(&b) {
                    self.demands.remove(0);
                } else {
                    return finished;
                }
            }
            // Node traversed.
            if self.node_height == 0 {
                // Leaf read: query complete.
                self.completed += 1;
                self.total_query_steps += self.steps;
                finished += 1;
                self.start_query(cfg);
                continue;
            }
            // Descend into the child the node's search routed to.
            let (new_lo, new_hi) = self.child;
            self.lo = new_lo;
            self.hi = new_hi.max(new_lo + 1);
            self.enter_node(cfg);
        }
    }
}

/// Run the simulator; deterministic for a given config.
pub fn run_pdam_sim(cfg: &PdamSimConfig) -> PdamSimResult {
    assert!(cfg.p >= 1 && cfg.clients >= 1 && cfg.steps >= 1);
    assert!(cfg.block_pivots >= 2 && cfg.n_items >= 4);
    let mut clients: Vec<ClientState> = (0..cfg.clients)
        .map(|i| ClientState::new(cfg, cfg.seed ^ GOLDEN.wrapping_mul(i as u64 + 1)))
        .collect();
    let mut completed = 0u64;
    let mut blocks_fetched = 0u64;
    let mut rr = 0usize; // round-robin fairness cursor

    for _ in 0..cfg.steps {
        // Let everyone consume what is already resident.
        for c in clients.iter_mut() {
            completed += c.advance(cfg);
        }
        // Grant the P slots round-robin among clients with demands,
        // with read-ahead expansion of each grant.
        let mut slots = cfg.p;
        let active: Vec<usize> = (0..clients.len())
            .map(|i| (rr + i) % clients.len())
            .filter(|&i| !clients[i].demands.is_empty())
            .collect();
        rr = (rr + 1) % clients.len().max(1);
        if !active.is_empty() {
            // First pass: one demanded block per active client.
            let per_client_extra = slots.saturating_sub(active.len()) / active.len();
            for &i in &active {
                if slots == 0 {
                    break;
                }
                let c = &mut clients[i];
                let b = *c.demands.first().expect("active implies demand");
                c.resident.insert(b);
                slots -= 1;
                blocks_fetched += 1;
                // Read-ahead: expand this request into a contiguous run.
                let mut run = 0usize;
                while run < per_client_extra && slots > 0 {
                    let nb = b + 1 + run as u64;
                    c.resident.insert(nb);
                    slots -= 1;
                    blocks_fetched += 1;
                    run += 1;
                }
            }
        }
        // Advance steps on all clients with in-flight queries.
        for c in clients.iter_mut() {
            c.steps += 1;
        }
    }
    let total_steps: u64 = clients.iter().map(|c| c.total_query_steps).sum();
    let total_done: u64 = clients.iter().map(|c| c.completed).sum();
    debug_assert_eq!(total_done, completed);
    PdamSimResult {
        queries_completed: completed,
        throughput: completed as f64 / cfg.steps as f64,
        mean_steps_per_query: if completed > 0 {
            total_steps as f64 / completed as f64
        } else {
            f64::INFINITY
        },
        blocks_fetched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> PdamSimConfig {
        PdamSimConfig {
            p: 8,
            clients: 1,
            block_pivots: 64,
            node_blocks: 8,
            n_items: 1 << 26,
            design: TreeDesign::FatVeb,
            steps: 2000,
            seed: 42,
        }
    }

    #[test]
    fn determinism() {
        let cfg = base_cfg();
        assert_eq!(run_pdam_sim(&cfg), run_pdam_sim(&cfg));
    }

    #[test]
    fn throughput_rises_with_clients_for_veb() {
        // Lemma 13: k/log_{PB/k}(N) increases with k.
        let mut cfg = base_cfg();
        let mut last = 0.0;
        for k in [1usize, 2, 4, 8] {
            cfg.clients = k;
            let r = run_pdam_sim(&cfg);
            assert!(
                r.throughput > last,
                "k={k}: throughput {} should rise (was {last})",
                r.throughput
            );
            last = r.throughput;
        }
    }

    #[test]
    fn single_client_fat_veb_beats_small_nodes() {
        // §8: with one client, size-B nodes waste P−1 slots per step.
        let mut cfg = base_cfg();
        cfg.clients = 1;
        cfg.design = TreeDesign::FatVeb;
        let fat = run_pdam_sim(&cfg);
        cfg.design = TreeDesign::SmallNodes;
        let small = run_pdam_sim(&cfg);
        assert!(
            fat.mean_steps_per_query < small.mean_steps_per_query,
            "fat-veb {} vs small {}",
            fat.mean_steps_per_query,
            small.mean_steps_per_query
        );
    }

    #[test]
    fn many_clients_veb_matches_small_nodes() {
        // At k = P both designs should be in the same ballpark (Lemma 13's
        // k = P case matches the multi-threaded optimum).
        let mut cfg = base_cfg();
        cfg.clients = 8;
        cfg.design = TreeDesign::FatVeb;
        let fat = run_pdam_sim(&cfg);
        cfg.design = TreeDesign::SmallNodes;
        let small = run_pdam_sim(&cfg);
        let ratio = fat.throughput / small.throughput;
        assert!(
            (0.5..=2.5).contains(&ratio),
            "fat {} vs small {} (ratio {ratio})",
            fat.throughput,
            small.throughput
        );
    }

    #[test]
    fn veb_beats_sorted_layout_single_client() {
        // Sorted-pivot probes are scattered; read-ahead cannot help them.
        let mut cfg = base_cfg();
        cfg.clients = 1;
        cfg.design = TreeDesign::FatVeb;
        let veb = run_pdam_sim(&cfg);
        cfg.design = TreeDesign::FatSorted;
        let sorted = run_pdam_sim(&cfg);
        assert!(
            veb.mean_steps_per_query < sorted.mean_steps_per_query,
            "veb {} vs sorted {}",
            veb.mean_steps_per_query,
            sorted.mean_steps_per_query
        );
    }

    #[test]
    fn oversubscription_saturates() {
        // k > P: throughput stops growing (device is the bottleneck).
        let mut cfg = base_cfg();
        cfg.design = TreeDesign::SmallNodes;
        cfg.clients = 8;
        let at_p = run_pdam_sim(&cfg);
        cfg.clients = 32;
        let over = run_pdam_sim(&cfg);
        assert!(
            over.throughput <= at_p.throughput * 1.3,
            "oversubscribed {} vs saturated {}",
            over.throughput,
            at_p.throughput
        );
    }

    #[test]
    fn blocks_fetched_bounded_by_slots() {
        let cfg = base_cfg();
        let r = run_pdam_sim(&cfg);
        assert!(r.blocks_fetched <= cfg.steps * cfg.p as u64);
    }

    #[test]
    fn queries_complete_at_all() {
        let r = run_pdam_sim(&base_cfg());
        assert!(
            r.queries_completed > 10,
            "completed {}",
            r.queries_completed
        );
        assert!(r.mean_steps_per_query.is_finite());
    }
}
