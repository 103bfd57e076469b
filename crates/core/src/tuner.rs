//! Turn fitted model parameters into data-structure parameters — the
//! "optimize parameter choices and fill in design details" step the paper
//! argues the refined models enable.

use dam_models::betree_costs::{self, BetreeConfig};
use dam_models::{btree_costs, optimal, Affine, DictShape};

/// Recommended parameters for an affine device (a hard disk).
#[derive(Debug, Clone, PartialEq)]
pub struct AffineTuning {
    /// `α` per byte the tuning was derived from.
    pub alpha_per_byte: f64,
    /// Corollary 6: the node size optimizing *all* B-tree ops to within
    /// constants — the half-bandwidth point `1/α`.
    pub btree_all_ops_node_bytes: f64,
    /// Corollary 7: the node size optimizing B-tree *point* ops,
    /// `Θ(1/(α ln(1/α)))` — why real B-trees use small nodes.
    pub btree_point_node_bytes: f64,
    /// Corollary 12: the optimized Bε-tree fanout `F = Θ(1/(α ln(1/α)))`.
    pub betree_fanout: f64,
    /// Corollary 12: the optimized Bε-tree node size `B = F²` (entries),
    /// in bytes.
    pub betree_node_bytes: f64,
    /// Predicted affine cost of a B-tree point op at its optimum.
    pub predicted_btree_point_cost: f64,
    /// Predicted affine cost of an optimized Bε-tree query at the
    /// Corollary-12 parameters.
    pub predicted_betree_query_cost: f64,
    /// Predicted amortized Bε-tree insert cost at those parameters.
    pub predicted_betree_insert_cost: f64,
    /// The insert speedup factor over the B-tree (`Θ(log 1/α)` per
    /// Corollary 12).
    pub insert_speedup: f64,
}

/// Derive affine-model tuning from a fitted `α` and workload shape.
pub fn tune_for_affine(affine: &Affine, shape: &DictShape) -> AffineTuning {
    let btree_point = btree_costs::point_op_optimal_node_bytes(affine, shape);
    let ae = affine.alpha * shape.entry_bytes;
    let (fanout, node_entries) = optimal::optimal_betree_params(ae);
    let betree_node_bytes = node_entries * shape.entry_bytes;
    let cfg = BetreeConfig {
        node_bytes: betree_node_bytes,
        fanout,
    };
    let btree_cost = btree_costs::point_op_cost(affine, shape, btree_point);
    let betree_query = betree_costs::query_cost_optimized(affine, shape, &cfg);
    let betree_insert = betree_costs::insert_cost(affine, shape, &cfg);
    AffineTuning {
        alpha_per_byte: affine.alpha,
        btree_all_ops_node_bytes: btree_costs::all_ops_optimal_node_bytes(affine),
        btree_point_node_bytes: btree_point,
        betree_fanout: fanout,
        betree_node_bytes,
        predicted_btree_point_cost: btree_cost,
        predicted_betree_query_cost: betree_query,
        predicted_betree_insert_cost: betree_insert,
        insert_speedup: if betree_insert > 0.0 {
            btree_cost / betree_insert
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Affine, DictShape) {
        (Affine::new(7.1e-7), DictShape::new(2e9, 1e4, 116.0, 24.0))
    }

    #[test]
    fn btree_point_nodes_smaller_than_half_bandwidth() {
        let (a, s) = setup();
        let t = tune_for_affine(&a, &s);
        assert!(t.btree_point_node_bytes < t.btree_all_ops_node_bytes);
    }

    #[test]
    fn betree_nodes_much_larger_than_btree_nodes() {
        // "an optimized Bε-tree node size can be nearly the square of the
        // optimal node size for a B-tree" (§6).
        let (a, s) = setup();
        let t = tune_for_affine(&a, &s);
        assert!(
            t.betree_node_bytes > 10.0 * t.btree_point_node_bytes,
            "betree {} vs btree {}",
            t.betree_node_bytes,
            t.btree_point_node_bytes
        );
    }

    #[test]
    fn corollary12_tradeoff_holds() {
        // Queries within a constant of the B-tree; inserts a log(1/alpha)
        // factor faster.
        let (a, s) = setup();
        let t = tune_for_affine(&a, &s);
        assert!(t.predicted_betree_query_cost < 2.0 * t.predicted_btree_point_cost);
        assert!(t.insert_speedup > 3.0, "speedup {}", t.insert_speedup);
    }
}
