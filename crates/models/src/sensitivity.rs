//! Table 3: node-size sensitivity analysis for B-trees and Bε-trees.
//!
//! The table's rows (costs per operation, up to the `log(N/M)` factor):
//!
//! | structure            | insertion/deletion            | query                          |
//! |----------------------|-------------------------------|--------------------------------|
//! | B-tree               | `(1+αB)/log B`                | `(1+αB)/log B`                 |
//! | Bε-tree (F = √B)     | `(1+αB)/(√B·log B)`           | `(1+α√B)/log B`                |
//! | Bε-tree (general F)  | `F(1+αB)/(B·log F)`           | `(F + αF² + αB)/(F·log F)`     |
//!
//! This module evaluates those expressions at one node size ([`evaluate`])
//! and across fanout exponents at a fixed node size ([`epsilon_sweep`]) for
//! `damlab experiment table3`, and summarizes their growth past the
//! half-bandwidth point ([`summarize`]).

use crate::betree_costs::{self, BetreeConfig};
use crate::{btree_costs, Affine, DictShape};

/// One row of a sensitivity sweep: costs at a specific node size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityPoint {
    /// Node size in bytes.
    pub node_bytes: f64,
    /// B-tree point-op (insert ≈ query) affine cost.
    pub btree_op: f64,
    /// Bε-tree (`F = √B`) amortized insert affine cost.
    pub betree_sqrt_insert: f64,
    /// Bε-tree (`F = √B`) query affine cost (Theorem 9 optimized layout).
    pub betree_sqrt_query: f64,
    /// Bε-tree (`F = √B`) query affine cost with whole-node IOs (Lemma 8).
    pub betree_sqrt_query_naive: f64,
}

/// Evaluate all Table-3 expressions at one node size.
pub fn evaluate(affine: &Affine, shape: &DictShape, node_bytes: f64) -> SensitivityPoint {
    let cfg = BetreeConfig::sqrt_fanout(shape, node_bytes);
    SensitivityPoint {
        node_bytes,
        btree_op: btree_costs::point_op_cost(affine, shape, node_bytes),
        betree_sqrt_insert: betree_costs::insert_cost(affine, shape, &cfg),
        betree_sqrt_query: betree_costs::query_cost_optimized(affine, shape, &cfg),
        betree_sqrt_query_naive: betree_costs::query_cost_standard(affine, shape, &cfg),
    }
}

/// One point of the general-ε row of Table 3: costs at a fixed node size
/// as the fanout exponent varies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonPoint {
    /// Fanout exponent `ε` (`F = B_entries^ε`).
    pub epsilon: f64,
    /// Resulting fanout.
    pub fanout: f64,
    /// Amortized insert affine cost.
    pub insert: f64,
    /// Optimized-layout query affine cost.
    pub query: f64,
}

/// Table 3's general-`F` row: sweep `ε` at a fixed node size. `ε → 0` is the
/// buffered repository tree (cheapest inserts), `ε → 1` is the B-tree
/// (cheapest queries).
pub fn epsilon_sweep(
    affine: &Affine,
    shape: &DictShape,
    node_bytes: f64,
    steps: usize,
) -> Vec<EpsilonPoint> {
    assert!(steps >= 2);
    (0..=steps)
        .map(|i| {
            let epsilon = 0.1 + 0.9 * i as f64 / steps as f64;
            let cfg = betree_costs::BetreeConfig::with_epsilon(shape, node_bytes, epsilon);
            EpsilonPoint {
                epsilon,
                fanout: cfg.fanout,
                insert: betree_costs::insert_cost(affine, shape, &cfg),
                query: betree_costs::query_cost_optimized(affine, shape, &cfg),
            }
        })
        .collect()
}

/// Sensitivity metric: how much worse the cost gets when the node size is
/// `factor`× its optimum. Returns `cost(opt·factor)/cost(opt)`.
///
/// The paper's prediction: this ratio is near-linear in `factor` for
/// B-trees but ≈ `√factor` for Bε-trees.
pub fn sensitivity_ratio(cost_at: impl Fn(f64) -> f64, opt_bytes: f64, factor: f64) -> f64 {
    let base = cost_at(opt_bytes);
    if base <= 0.0 {
        return f64::INFINITY;
    }
    cost_at(opt_bytes * factor) / base
}

/// Summary comparison `damlab experiment table3` prints: the cost
/// growth when nodes grow from the half-bandwidth point (`1/α`, the DAM's
/// natural block size) to `factor`× that, for each structure.
///
/// Anchoring at `1/α` makes the comparison apples-to-apples: past that size,
/// B-tree costs grow nearly linearly in `B` while `F = √B` Bε-tree costs grow
/// like `√B` (inserts) or even shrink (optimized queries, whose height keeps
/// falling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivitySummary {
    /// Oversize factor used (node size = `factor / α`).
    pub factor: f64,
    /// B-tree op-cost growth from `1/α` to `factor/α`.
    pub btree_growth: f64,
    /// Bε-tree (`F = √B`) insert-cost growth from `1/α` to `factor/α`.
    pub betree_insert_growth: f64,
    /// Bε-tree (`F = √B`) optimized-query-cost growth over the same range.
    pub betree_query_growth: f64,
}

/// Compute the sensitivity summary for a device/shape.
pub fn summarize(affine: &Affine, shape: &DictShape, factor: f64) -> SensitivitySummary {
    let base = affine.half_bandwidth_bytes();
    SensitivitySummary {
        factor,
        btree_growth: sensitivity_ratio(
            |b| btree_costs::point_op_cost(affine, shape, b),
            base,
            factor,
        ),
        betree_insert_growth: sensitivity_ratio(
            |b| betree_costs::insert_cost(affine, shape, &BetreeConfig::sqrt_fanout(shape, b)),
            base,
            factor,
        ),
        betree_query_growth: sensitivity_ratio(
            |b| {
                betree_costs::query_cost_optimized(
                    affine,
                    shape,
                    &BetreeConfig::sqrt_fanout(shape, b),
                )
            },
            base,
            factor,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Affine, DictShape) {
        (Affine::new(7.1e-7), DictShape::new(2e9, 1e4, 116.0, 24.0))
    }

    #[test]
    fn btree_more_sensitive_than_betree() {
        // The paper's headline prediction (borne out by Figs 2 & 3).
        let (a, s) = setup();
        let sum = summarize(&a, &s, 64.0);
        assert!(
            sum.btree_growth > 3.0 * sum.betree_query_growth,
            "btree growth {} should dwarf betree query growth {}",
            sum.btree_growth,
            sum.betree_query_growth
        );
        assert!(
            sum.btree_growth > 3.0 * sum.betree_insert_growth,
            "btree growth {} should dwarf betree insert growth {}",
            sum.btree_growth,
            sum.betree_insert_growth
        );
    }

    #[test]
    fn all_costs_positive_across_sweep() {
        let (a, s) = setup();
        // 1 KiB to 64 MiB, quadrupling.
        for p in (0..=8).map(|i| evaluate(&a, &s, 1024.0 * 4f64.powi(i))) {
            assert!(p.btree_op > 0.0);
            assert!(p.betree_sqrt_insert > 0.0);
            assert!(p.betree_sqrt_query > 0.0);
            assert!(p.betree_sqrt_query_naive >= p.betree_sqrt_query * 0.5);
        }
    }

    #[test]
    fn optimized_never_worse_than_naive_for_big_nodes() {
        let (a, s) = setup();
        for p in (0..=6).map(|i| evaluate(&a, &s, 2f64.powi(i) / a.alpha)) {
            assert!(
                p.betree_sqrt_query <= p.betree_sqrt_query_naive * 1.05,
                "optimized {} vs naive {} at B={}",
                p.betree_sqrt_query,
                p.betree_sqrt_query_naive,
                p.node_bytes
            );
        }
    }

    #[test]
    fn epsilon_sweep_shows_the_tradeoff() {
        // Theorem 4's read/write trade-off in affine form: inserts get
        // cheaper as eps falls, queries get cheaper as eps rises.
        let (a, s) = setup();
        let pts = epsilon_sweep(&a, &s, 4.0 * 1024.0 * 1024.0, 9);
        assert_eq!(pts.len(), 10);
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        assert!(first.insert < last.insert, "low eps should insert cheaper");
        assert!(
            first.query > last.query * 0.9,
            "high eps should query no worse"
        );
        // Fanout is monotone in eps.
        assert!(pts.windows(2).all(|w| w[1].fanout >= w[0].fanout));
    }

    #[test]
    fn sensitivity_ratio_of_identity_cost() {
        let r = sensitivity_ratio(|b| b, 100.0, 16.0);
        assert!((r - 16.0).abs() < 1e-12);
    }
}
