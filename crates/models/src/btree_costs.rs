//! §5: B-tree costs in the affine model.
//!
//! Lemma 5: a lookup/insert/delete in a B-tree with size-`B` nodes costs
//! `(1 + αB)·log_{B+1}(N/M)·(1 + o(1))`; a range query returning `l` items
//! costs `O(1 + l/B)(1 + αB)` plus the point query. Corollary 6: all ops are
//! asymptotically optimized at `B = Θ(1/α)`; Corollary 7: point ops alone
//! at `B = Θ(1/(α ln(1/α)))`, at which size range queries run suboptimally.

use crate::optimal::{golden_section_min, optimal_btree_entries};
use crate::{Affine, DictShape};

/// Per-entry bandwidth cost: `α` per byte × entry size.
fn alpha_entry(affine: &Affine, shape: &DictShape) -> f64 {
    affine.alpha * shape.entry_bytes
}

/// Lemma 5: affine cost of a point operation (lookup, insert, or delete) in
/// a B-tree with nodes of `node_bytes`.
pub fn point_op_cost(affine: &Affine, shape: &DictShape, node_bytes: f64) -> f64 {
    let fanout = shape.entries_per_node(node_bytes) + 1.0;
    affine.io_cost(node_bytes) * shape.uncached_height(fanout)
}

/// Lemma 5: affine cost of a range query returning `l_items`, excluding the
/// initial point query: `ceil(l/B)·(1 + αB)` leaf reads.
pub fn range_scan_cost(affine: &Affine, shape: &DictShape, node_bytes: f64, l_items: f64) -> f64 {
    let per_leaf = shape.entries_per_node(node_bytes);
    let leaves = (l_items / per_leaf).ceil().max(1.0);
    leaves * affine.io_cost(node_bytes)
}

/// Full range-query cost: descent plus leaf scan.
pub fn range_query_cost(affine: &Affine, shape: &DictShape, node_bytes: f64, l_items: f64) -> f64 {
    point_op_cost(affine, shape, node_bytes) + range_scan_cost(affine, shape, node_bytes, l_items)
}

/// Affine-model write amplification of a B-tree: a whole `1 + αB`-cost node
/// write per entry modified, normalized to entries (Lemma 3 carried into the
/// affine model).
pub fn write_amp(shape: &DictShape, node_bytes: f64) -> f64 {
    shape.entries_per_node(node_bytes)
}

/// Corollary 6: the node size optimizing all operations simultaneously to
/// within constant factors — the half-bandwidth point `1/α` bytes.
pub fn all_ops_optimal_node_bytes(affine: &Affine) -> f64 {
    affine.half_bandwidth_bytes()
}

/// Corollary 7: the node size (bytes) minimizing point-operation cost,
/// computed exactly by minimizing `(1 + αx)/ln(x + 1)` over entries.
pub fn point_op_optimal_node_bytes(affine: &Affine, shape: &DictShape) -> f64 {
    let ae = alpha_entry(affine, shape);
    if ae >= 1.0 {
        // Degenerate: transfers dominated by setup for even a single entry;
        // smallest sensible node.
        return 2.0 * shape.entry_bytes;
    }
    optimal_btree_entries(ae) * shape.entry_bytes
}

/// Numeric argmin of the *full* point-op cost (including the `N/M` factor),
/// as a cross-check on [`point_op_optimal_node_bytes`]: the `log(N/M)`
/// factor scales the objective but does not move the argmin.
pub fn point_op_optimal_node_bytes_numeric(affine: &Affine, shape: &DictShape) -> f64 {
    let hi = 100.0 / affine.alpha;
    let (x, _) = golden_section_min(2.0 * shape.entry_bytes, hi, |b| {
        point_op_cost(affine, shape, b)
    });
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Affine, DictShape) {
        // alpha per byte modeled on a 2011 WD Black: s=0.012s,
        // t=0.000035s/4KiB → alpha ≈ 7.1e-7/byte; half-bandwidth ≈ 1.4 MiB.
        let affine = Affine::new(7.1e-7);
        let shape = DictShape::new(2e9, 1e4, 116.0, 24.0);
        (affine, shape)
    }

    #[test]
    fn point_cost_is_unimodal_with_interior_min() {
        let (a, s) = setup();
        let opt = point_op_optimal_node_bytes(&a, &s);
        let c_opt = point_op_cost(&a, &s, opt);
        assert!(point_op_cost(&a, &s, opt / 8.0) > c_opt);
        assert!(point_op_cost(&a, &s, opt * 8.0) > c_opt);
    }

    #[test]
    fn point_optimum_below_half_bandwidth() {
        // Corollary 7 vs Corollary 6: the point-op optimum is strictly
        // smaller than 1/alpha.
        let (a, s) = setup();
        let point_opt = point_op_optimal_node_bytes(&a, &s);
        let half_bw = all_ops_optimal_node_bytes(&a);
        assert!(
            point_opt < half_bw / 2.0,
            "point opt {point_opt} should be well below half-bandwidth {half_bw}"
        );
    }

    #[test]
    fn analytic_and_numeric_optima_agree() {
        let (a, s) = setup();
        let analytic = point_op_optimal_node_bytes(&a, &s);
        let numeric = point_op_optimal_node_bytes_numeric(&a, &s);
        let ratio = analytic / numeric;
        assert!(
            (0.5..2.0).contains(&ratio),
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn cost_grows_nearly_linearly_past_half_bandwidth() {
        // Table 3: B-tree update cost grows ~ (1 + αB)/log B — nearly linear
        // in B for B >> 1/α.
        let (a, s) = setup();
        let b0 = 4.0 / a.alpha;
        let c0 = point_op_cost(&a, &s, b0);
        let c1 = point_op_cost(&a, &s, 4.0 * b0);
        // Quadrupling B should roughly quadruple cost (within the log factor).
        assert!(c1 / c0 > 2.5, "c1/c0 = {}", c1 / c0);
    }

    #[test]
    fn range_scan_at_small_nodes_underutilizes_bandwidth() {
        let (a, _) = setup();
        // 16 KiB nodes on this disk: well under half bandwidth.
        let util = a.bandwidth_utilization(16.0 * 1024.0);
        assert!(util < 0.05, "utilization {util}");
        let util_big = a.bandwidth_utilization(4.0 * 1024.0 * 1024.0);
        assert!(util_big > 0.7, "utilization {util_big}");
    }

    #[test]
    fn range_query_prefers_larger_nodes_than_point_ops() {
        let (a, s) = setup();
        let l = 100_000.0;
        let point_opt = point_op_optimal_node_bytes(&a, &s);
        let cost_at_point_opt = range_query_cost(&a, &s, point_opt, l);
        let cost_at_half_bw = range_query_cost(&a, &s, a.half_bandwidth_bytes(), l);
        assert!(
            cost_at_half_bw < cost_at_point_opt,
            "range queries should favor half-bandwidth nodes: {cost_at_half_bw} vs {cost_at_point_opt}"
        );
    }

    #[test]
    fn write_amp_linear_in_node_size() {
        let (_, s) = setup();
        assert!((write_amp(&s, 232.0) - 2.0).abs() < 1e-9);
        let w16k = write_amp(&s, 16384.0);
        let w64k = write_amp(&s, 65536.0);
        assert!((w64k / w16k - 4.0).abs() < 1e-9);
    }
}
