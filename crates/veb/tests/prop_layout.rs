//! Property tests: the vEB permutation is a bijection at every height, both
//! node layouts route identically, the implicit node agrees with a
//! materialized pivot array, and the PDAM simulator is deterministic.

use dam_stats::prop::*;
use dam_veb::layout::{bfs_left, bfs_right, veb_position};
use dam_veb::node::{IntraNode, NodeLayout};
use dam_veb::sim::{run_pdam_sim, PdamSimConfig, TreeDesign};
use std::collections::HashSet;

/// The reference node: every pivot materialized at its storage position by
/// an in-order walk of the complete pivot tree, then searched through the
/// array.
struct MaterializedNode {
    height: u32,
    layout: NodeLayout,
    keys: Vec<u64>,
}

impl MaterializedNode {
    fn build(lo: u64, hi: u64, height: u32, layout: NodeLayout) -> Self {
        let n = (1u64 << height) - 1;
        let mut keys = vec![0u64; n as usize];
        // Boundary i (1-based) = lo + i * width / 2^height.
        let width = u128::from(hi - lo);
        let boundary = |i: u64| lo + ((width * u128::from(i)) >> height) as u64;
        let position = |bfs: u64| match layout {
            NodeLayout::Veb => veb_position(height, bfs),
            NodeLayout::Sorted => inorder_rank(height, bfs),
        };
        // Iterative in-order over the complete tree.
        let mut stack: Vec<(u64, bool)> = vec![(0, false)];
        let mut next = 1u64;
        while let Some((bfs, expanded)) = stack.pop() {
            let depth = (bfs + 1).ilog2();
            if !expanded && depth + 1 < height {
                stack.push((bfs_right(bfs), false));
                stack.push((bfs, true));
                stack.push((bfs_left(bfs), false));
            } else {
                keys[position(bfs) as usize] = boundary(next);
                next += 1;
            }
        }
        assert_eq!(next, n + 1);
        MaterializedNode {
            height,
            layout,
            keys,
        }
    }

    fn search(&self, key: u64) -> (u64, Vec<u64>) {
        let mut probes = Vec::new();
        match self.layout {
            NodeLayout::Veb => {
                let (mut bfs, mut child) = (0u64, 0u64);
                for _ in 0..self.height {
                    let pos = veb_position(self.height, bfs);
                    probes.push(pos);
                    let right = key >= self.keys[pos as usize];
                    child = (child << 1) | right as u64;
                    bfs = if right { bfs_right(bfs) } else { bfs_left(bfs) };
                }
                (child, probes)
            }
            NodeLayout::Sorted => {
                let (mut lo, mut hi) = (0usize, self.keys.len());
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    probes.push(mid as u64);
                    if key >= self.keys[mid] {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                (lo as u64, probes)
            }
        }
    }

    fn block_demands(&self, key: u64, positions_per_block: u64) -> (u64, Vec<u64>) {
        let (child, probes) = self.search(key);
        let mut blocks = Vec::new();
        for b in probes.into_iter().map(|p| p / positions_per_block) {
            if !blocks.contains(&b) {
                blocks.push(b);
            }
        }
        (child, blocks)
    }
}

/// In-order rank of BFS node `bfs` in a complete tree of `height` levels.
fn inorder_rank(height: u32, bfs: u64) -> u64 {
    let depth = (bfs + 1).ilog2();
    // Path bits from root to node: the bits of (bfs+1) below the MSB.
    let path = (bfs + 1) - (1u64 << depth);
    let (mut lo, mut size) = (0u64, (1u64 << height) - 1);
    for d in 0..depth {
        size /= 2;
        if (path >> (depth - 1 - d)) & 1 == 1 {
            lo += size + 1;
        }
    }
    lo + size / 2
}

#[test]
fn inorder_rank_is_sorted_order() {
    // For a height-3 tree, in-order ranks of BFS nodes 0..7:
    // BFS:      0  1  2  3  4  5  6
    // in-order: 3  1  5  0  2  4  6
    let expect = [3u64, 1, 5, 0, 2, 4, 6];
    for (bfs, &e) in expect.iter().enumerate() {
        assert_eq!(inorder_rank(3, bfs as u64), e, "bfs {bfs}");
    }
}

props! {
    #[test]
    fn veb_is_bijection(height in 1u32..15) {
        let n = (1u64 << height) - 1;
        let mut seen = HashSet::new();
        for bfs in 0..n {
            let p = veb_position(height, bfs);
            prop_assert!(p < n, "position {p} out of range at height {height}");
            prop_assert!(seen.insert(p), "duplicate position {p} at height {height}");
        }
    }

    #[test]
    fn layouts_route_identically(
        height in 1u32..10,
        lo in 0u64..1000,
        span in 2u64..100_000,
        keys in vec(any::<u64>(), 1..50),
    ) {
        let hi = lo + span.max(1u64 << height);
        let veb = IntraNode::build(lo, hi, height, NodeLayout::Veb);
        let sorted = IntraNode::build(lo, hi, height, NodeLayout::Sorted);
        for k in keys {
            let key = lo + k % (hi - lo);
            prop_assert_eq!(veb.search(key).0, sorted.search(key).0, "key {}", key);
        }
    }

    #[test]
    fn routing_is_monotone(height in 1u32..10, seed in any::<u64>()) {
        // Larger keys never route to smaller children.
        let lo = seed % 1000;
        let hi = lo + (1u64 << (height + 6));
        let node = IntraNode::build(lo, hi, height, NodeLayout::Veb);
        let mut last_child = 0u64;
        let steps = 64;
        for i in 0..steps {
            let key = lo + (hi - lo - 1) * i / (steps - 1);
            let (child, _) = node.search(key);
            prop_assert!(child >= last_child, "key {key}: child {child} < previous {last_child}");
            last_child = child;
        }
    }

    #[test]
    fn probe_count_equals_height(height in 1u32..12, key in any::<u64>()) {
        let node = IntraNode::build(0, 1 << 20, height, NodeLayout::Veb);
        let (_, probes) = node.search(key % (1 << 20));
        prop_assert_eq!(probes.len(), height as usize);
    }

    #[test]
    fn implicit_node_matches_the_materialized_pivots(
        height in 1u32..17,
        range in (any::<u64>(), 1u32..65, any::<u64>()),
        layout in select(vec![NodeLayout::Veb, NodeLayout::Sorted]),
        per_block in 1u64..300,
        keys in vec(any::<u64>(), 1..40),
    ) {
        // Spans from 1 to 2^64 − 1 wide, so `(hi − lo)·2^height` often
        // exceeds u64.
        let (lo, span_bits, span) = range;
        let lo = lo.min(u64::MAX - 1);
        let span = (span >> (64 - span_bits)).clamp(1, u64::MAX - lo);
        let hi = lo + span;
        let node = IntraNode::build(lo, hi, height, layout);
        let reference = MaterializedNode::build(lo, hi, height, layout);
        prop_assert_eq!(node.len(), reference.keys.len());
        for k in keys {
            let key = lo + k % span;
            prop_assert_eq!(node.search(key), reference.search(key), "key {}", key);
            prop_assert_eq!(
                node.block_demands(key, per_block),
                reference.block_demands(key, per_block),
                "key {}",
                key
            );
            let (start, end) = node.child_range(node.search(key).0);
            prop_assert!(start <= key && key < end, "key {} outside [{}, {})", key, start, end);
        }
    }

    #[test]
    fn sim_deterministic_and_sane(
        seed in any::<u64>(),
        clients in 1usize..10,
        design_idx in 0usize..3,
    ) {
        let design = [TreeDesign::FatVeb, TreeDesign::FatSorted, TreeDesign::SmallNodes][design_idx];
        let cfg = PdamSimConfig {
            p: 4,
            clients,
            block_pivots: 16,
            node_blocks: 4,
            n_items: 1 << 20,
            design,
            steps: 300,
            seed,
        };
        let a = run_pdam_sim(&cfg);
        let b = run_pdam_sim(&cfg);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.blocks_fetched <= cfg.steps * cfg.p as u64);
        prop_assert!(a.throughput >= 0.0);
    }
}
