//! Intra-node search over a fat (`P·B`-byte) pivot node, reporting which
//! size-`B` blocks the search touches and in what order.
//!
//! Two physical layouts of the same logical pivot tree:
//!
//! * [`NodeLayout::Veb`] — pivots stored in van Emde Boas order: a search's
//!   block demands are few and mostly *contiguous* (top cluster, then one
//!   bottom cluster, …), so PDAM read-ahead is effective;
//! * [`NodeLayout::Sorted`] — pivots in sorted order, searched by binary
//!   search: probes straddle the whole node, touching `~log₂(blocks)`
//!   scattered blocks that read-ahead cannot anticipate.
//!
//! The keys are abstract `u64`s; a node routes a key to one of
//! `2^(height)` child slots. Pivots are implicit: the pivot of in-order
//! rank `r` is child boundary `r + 1`, computed when a search probes it, so
//! a search costs `O(height)` and no pivot array is ever built.

use crate::layout::veb_position;

/// Physical ordering of pivots inside a fat node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeLayout {
    /// van Emde Boas order (cache-oblivious).
    Veb,
    /// Sorted order with binary search.
    Sorted,
}

/// A fat pivot node: a complete binary tree of `height` levels of pivots
/// routing `[lo, hi)` evenly to `2^height` children, stored in one of two
/// layouts.
#[derive(Debug, Clone, Copy)]
pub struct IntraNode {
    lo: u64,
    hi: u64,
    height: u32,
    layout: NodeLayout,
}

impl IntraNode {
    /// A node routing `[lo, hi)` evenly among `2^height` children.
    pub fn build(lo: u64, hi: u64, height: u32, layout: NodeLayout) -> Self {
        assert!((1..48).contains(&height));
        assert!(hi > lo);
        IntraNode {
            lo,
            hi,
            height,
            layout,
        }
    }

    /// Child boundary `i` (`0..=2^height`): `lo + ⌊(hi − lo)·i / 2^height⌋`.
    /// The product is taken in `u128`: it exceeds `u64` for wide spans.
    fn boundary(&self, i: u64) -> u64 {
        debug_assert!(i <= 1 << self.height);
        let offset = (u128::from(self.hi - self.lo) * u128::from(i)) >> self.height;
        self.lo + offset as u64
    }

    /// The keys `[start, end)` that route to `child`.
    pub fn child_range(&self, child: u64) -> (u64, u64) {
        (self.boundary(child), self.boundary(child + 1))
    }

    /// Number of pivots.
    pub fn len(&self) -> usize {
        ((1u64 << self.height) - 1) as usize
    }

    /// True when the node holds no pivots (cannot happen via `build`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Levels of pivots.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Route `key` down the pivot tree, passing the storage position of
    /// each pivot compared to `probe`; returns the child index.
    fn route(&self, key: u64, mut probe: impl FnMut(u64)) -> u64 {
        let h = self.height;
        match self.layout {
            NodeLayout::Veb => {
                // At depth `d`, with the path so far spelled by the `d` bits
                // of `child`, the pivot has BFS index `2^d − 1 + child` and
                // in-order rank `(2·child + 1)·2^(h−d−1) − 1`.
                let mut child = 0u64;
                for d in 0..h {
                    probe(veb_position(h, (1 << d) - 1 + child));
                    let right = key >= self.boundary((2 * child + 1) << (h - d - 1));
                    child = (child << 1) | right as u64;
                }
                child
            }
            NodeLayout::Sorted => {
                // Binary search over positions; position `r` holds the pivot
                // of in-order rank `r`.
                let (mut lo, mut hi) = (0u64, (1u64 << h) - 1);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    probe(mid);
                    if key >= self.boundary(mid + 1) {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
        }
    }

    /// Route `key`: returns `(child_index, block_demands)` where
    /// `block_demands` is the ordered list of *storage positions* probed.
    /// Callers map positions to blocks by dividing by entries-per-block.
    pub fn search(&self, key: u64) -> (u64, Vec<u64>) {
        let mut probes = Vec::with_capacity(self.height as usize);
        let child = self.route(key, |p| probes.push(p));
        (child, probes)
    }

    /// The blocks (of `positions_per_block` storage positions each) a search
    /// for `key` demands, deduplicated but order-preserving.
    pub fn block_demands(&self, key: u64, positions_per_block: u64) -> (u64, Vec<u64>) {
        assert!(positions_per_block >= 1);
        let mut blocks = Vec::new();
        let child = self.route(key, |p| {
            let b = p / positions_per_block;
            if !blocks.contains(&b) {
                blocks.push(b);
            }
        });
        (child, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_layouts_route_identically() {
        for layout in [NodeLayout::Veb, NodeLayout::Sorted] {
            let node = IntraNode::build(0, 1024, 5, layout);
            // 32 children over [0, 1024): child i covers [32i, 32(i+1)).
            for key in [0u64, 31, 32, 500, 1000, 1023] {
                let (child, _) = node.search(key);
                assert_eq!(child, key / 32, "layout {layout:?}, key {key}");
            }
        }
    }

    #[test]
    fn layouts_agree_on_every_key() {
        let veb = IntraNode::build(100, 612, 4, NodeLayout::Veb);
        let sorted = IntraNode::build(100, 612, 4, NodeLayout::Sorted);
        for key in 100..612 {
            assert_eq!(veb.search(key).0, sorted.search(key).0, "key {key}");
        }
    }

    #[test]
    fn child_ranges_tile_the_node_range() {
        for layout in [NodeLayout::Veb, NodeLayout::Sorted] {
            let node = IntraNode::build(7, 4103, 6, layout);
            assert_eq!(node.child_range(0).0, 7);
            assert_eq!(node.child_range(63).1, 4103);
            for child in 0..63 {
                let (start, end) = node.child_range(child);
                assert!(start <= end, "child {child}");
                assert_eq!(end, node.child_range(child + 1).0, "child {child}");
            }
        }
    }

    #[test]
    fn the_widest_span_routes_every_key_into_its_child_range() {
        // (hi − lo)·2^40 overflows u64: boundaries must be computed wider.
        let mut rng = dam_stats::rng::Rng::seed_from_u64(40);
        for layout in [NodeLayout::Veb, NodeLayout::Sorted] {
            let node = IntraNode::build(0, u64::MAX, 40, layout);
            let keys = [0, 1, u64::MAX / 2, u64::MAX - 1];
            for key in keys
                .into_iter()
                .chain((0..2000).map(|_| rng.gen_range(0..u64::MAX)))
            {
                let (child, probes) = node.search(key);
                let (start, end) = node.child_range(child);
                assert!(
                    start <= key && key < end,
                    "{layout:?} key {key} child {child}"
                );
                assert_eq!(probes.len(), 40);
            }
        }
    }

    #[test]
    fn veb_search_touches_fewer_blocks_than_sorted() {
        // The §8 point: with B-sized blocks inside a PB node, vEB searches
        // cross far fewer blocks than binary search over a sorted array.
        let height = 14; // 16383 pivots
        let veb = IntraNode::build(0, 1 << 20, height, NodeLayout::Veb);
        let sorted = IntraNode::build(0, 1 << 20, height, NodeLayout::Sorted);
        let per_block = 128; // pivots per block
        let mut veb_total = 0usize;
        let mut sorted_total = 0usize;
        for key in (0..(1u64 << 20)).step_by(37813) {
            veb_total += veb.block_demands(key, per_block).1.len();
            sorted_total += sorted.block_demands(key, per_block).1.len();
        }
        assert!(
            (veb_total as f64) < 0.6 * sorted_total as f64,
            "veb {veb_total} vs sorted {sorted_total}"
        );
    }

    #[test]
    fn veb_demands_have_contiguous_runs() {
        // Read-ahead effectiveness: consecutive vEB block demands are often
        // adjacent (bottom clusters are contiguous).
        let height = 14;
        let veb = IntraNode::build(0, 1 << 20, height, NodeLayout::Veb);
        let per_block = 64;
        let mut adjacent = 0usize;
        let mut total = 0usize;
        for key in (0..(1u64 << 20)).step_by(9973) {
            let (_, blocks) = veb.block_demands(key, per_block);
            for w in blocks.windows(2) {
                total += 1;
                if w[1] == w[0] + 1 || w[1] == w[0] {
                    adjacent += 1;
                }
            }
        }
        assert!(
            adjacent as f64 > 0.3 * total as f64,
            "adjacent {adjacent} of {total} transitions"
        );
    }

    #[test]
    fn single_level_node() {
        let node = IntraNode::build(0, 100, 1, NodeLayout::Veb);
        assert_eq!(node.len(), 1);
        let (c0, p0) = node.search(10);
        let (c1, _) = node.search(90);
        assert_eq!(c0, 0);
        assert_eq!(c1, 1);
        assert_eq!(p0, vec![0]);
    }

    #[test]
    fn block_demands_dedup_preserves_order() {
        let node = IntraNode::build(0, 1 << 16, 10, NodeLayout::Veb);
        let (_, blocks) = node.block_demands(12345, 8);
        let mut seen = std::collections::HashSet::new();
        for b in &blocks {
            assert!(seen.insert(*b), "duplicate block {b}");
        }
    }
}
