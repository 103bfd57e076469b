//! The Disk-Access Machine model (Aggarwal–Vitter): data moves in blocks of
//! `B` bytes, every transfer costs 1 (§2.1).
//!
//! Includes the classic DAM dictionary bounds the paper builds on: B-tree
//! operation costs (Lemma 2) and the Bε-tree bounds (Theorem 4).

use crate::DictShape;

/// DAM model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dam {
    /// Block size in bytes. All IOs move exactly one block and cost 1.
    pub block_bytes: f64,
}

impl Dam {
    /// Build a DAM with the given block size.
    pub fn new(block_bytes: f64) -> Self {
        assert!(block_bytes >= 1.0 && block_bytes.is_finite());
        Dam { block_bytes }
    }

    /// Number of block IOs needed to transfer `bytes` contiguous bytes.
    #[inline]
    pub fn io_count(&self, bytes: f64) -> f64 {
        (bytes / self.block_bytes).ceil().max(1.0)
    }

    /// Lemma 2: point-operation cost of a B-tree with size-`B` nodes:
    /// `log_{B+1}(N/M)` IOs (entries-per-node fanout).
    pub fn btree_op_ios(&self, shape: &DictShape) -> f64 {
        let fanout = shape.entries_per_node(self.block_bytes) + 1.0;
        shape.uncached_height(fanout)
    }

    /// Lemma 2: range query scanning `l_items` costs `ceil(l/B)` IOs plus a
    /// point query.
    pub fn btree_range_ios(&self, shape: &DictShape, l_items: f64) -> f64 {
        let per_leaf = shape.entries_per_node(self.block_bytes);
        (l_items / per_leaf).ceil().max(1.0) + self.btree_op_ios(shape)
    }

    /// Theorem 4(1): Bε-tree insert cost with fanout `F = B^ε`:
    /// `F / (B·log F) · log(N/M)` IOs — i.e. `O(log_F(N/M) / B^{1−ε})` with
    /// `B` in entries.
    pub fn betree_insert_ios(&self, shape: &DictShape, epsilon: f64) -> f64 {
        let b_items = shape.entries_per_node(self.block_bytes);
        let fanout = b_items.powf(epsilon).max(2.0);
        fanout / b_items * shape.uncached_height(fanout)
    }

    /// Theorem 4(2): Bε-tree point-query cost: `log_{F+1}(N/M)` IOs.
    pub fn betree_query_ios(&self, shape: &DictShape, epsilon: f64) -> f64 {
        let b_items = shape.entries_per_node(self.block_bytes);
        let fanout = b_items.powf(epsilon).max(2.0);
        shape.uncached_height(fanout + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> DictShape {
        // 16M items, 16K cached, 100-byte entries, 20-byte keys.
        DictShape::new(16_777_216.0, 16_384.0, 100.0, 20.0)
    }

    #[test]
    fn io_count_rounds_up() {
        let d = Dam::new(4096.0);
        assert_eq!(d.io_count(1.0), 1.0);
        assert_eq!(d.io_count(4096.0), 1.0);
        assert_eq!(d.io_count(4097.0), 2.0);
        assert_eq!(d.io_count(0.0), 1.0);
    }

    #[test]
    fn btree_cost_falls_with_block_size() {
        let s = shape();
        let small = Dam::new(4096.0).btree_op_ios(&s);
        let large = Dam::new(65536.0).btree_op_ios(&s);
        assert!(
            large < small,
            "bigger DAM nodes mean fewer levels: {large} vs {small}"
        );
    }

    #[test]
    fn betree_insert_beats_btree() {
        // Theorem 4: for 0 < eps < 1, inserts are a factor ~ eps*B^(1-eps)
        // faster than a B-tree's.
        let s = shape();
        let d = Dam::new(65536.0);
        let btree = d.btree_op_ios(&s);
        let betree = d.betree_insert_ios(&s, 0.5);
        assert!(betree < btree / 5.0, "betree {betree} vs btree {btree}");
    }

    #[test]
    fn betree_query_within_constant_of_btree() {
        let s = shape();
        let d = Dam::new(65536.0);
        let btree = d.btree_op_ios(&s);
        let betree = d.betree_query_ios(&s, 0.5);
        // eps = 1/2 doubles the height at most (1/eps = 2).
        assert!(betree <= 2.2 * btree);
        assert!(betree >= btree);
    }

    #[test]
    fn eps_one_reduces_to_btree() {
        let s = shape();
        let d = Dam::new(65536.0);
        let betree_q = d.betree_query_ios(&s, 1.0);
        let btree_q = d.btree_op_ios(&s);
        assert!((betree_q - btree_q).abs() / btree_q < 0.05);
    }

    #[test]
    fn eps_zero_is_buffered_repository_tree() {
        // eps = 0: fanout 2, inserts cost ~ 2*log2(N/M)/B — far below one IO
        // per insert.
        let s = shape();
        let d = Dam::new(65536.0);
        let ins = d.betree_insert_ios(&s, 0.0);
        assert!(ins < 0.1, "amortized insert should be tiny: {ins}");
    }

    #[test]
    fn range_query_dominated_by_scan_for_large_l() {
        let s = shape();
        let d = Dam::new(4096.0);
        let point = d.btree_op_ios(&s);
        let range = d.btree_range_ios(&s, 1e6);
        assert!(range > 10.0 * point);
    }
}
