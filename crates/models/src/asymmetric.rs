//! Read/write-asymmetric affine costs.
//!
//! §3: "with some storage technologies (e.g., NVMe) writes are more
//! expensive than reads, and this has algorithmic consequences" — and even
//! symmetric devices behave asymmetrically once logging and checkpointing
//! multiply every dictionary write. This module extends the affine model
//! with a write-cost multiplier `ω ≥ 1` and re-derives the B-tree/Bε-tree
//! comparison under it: the more writes cost, the stronger the case for
//! write-optimization, and the smaller the optimal `ε`.

use crate::betree_costs::{self, BetreeConfig};
use crate::optimal::golden_section_min;
use crate::{btree_costs, Affine, DictShape};

/// An affine device whose writes cost `ω ×` what reads cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsymmetricAffine {
    /// The symmetric (read) cost model.
    pub affine: Affine,
    /// Write-cost multiplier `ω ≥ 1` (1 = symmetric; NVMe ≈ 2–10; flash
    /// with heavy GC or logging can exceed that).
    pub omega: f64,
}

impl AsymmetricAffine {
    /// Build from a read-side `α` and a write multiplier.
    pub fn new(alpha: f64, omega: f64) -> Self {
        assert!(omega >= 1.0 && omega.is_finite(), "omega must be >= 1");
        AsymmetricAffine {
            affine: Affine::new(alpha),
            omega,
        }
    }

    /// B-tree update cost: read the root-to-leaf path, write the leaf back
    /// — `(1 + ω·/height share)`. Each level is read once; amortized one
    /// node write per update (Lemma 3's regime).
    pub fn btree_update_cost(&self, shape: &DictShape, node_bytes: f64) -> f64 {
        let read = btree_costs::point_op_cost(&self.affine, shape, node_bytes);
        // One node write per update, at the leaf.
        let write = self.omega * self.affine.io_cost(node_bytes);
        read + write
    }

    /// B-tree point-query cost (reads only): unchanged from the symmetric
    /// model.
    pub fn btree_query_cost(&self, shape: &DictShape, node_bytes: f64) -> f64 {
        btree_costs::point_op_cost(&self.affine, shape, node_bytes)
    }

    /// Bε-tree amortized insert cost: flush IO is half reads (fetch the
    /// child) and half writes (write parent + child back); approximate the
    /// write share as `(1 + ω)/2` of the symmetric flush cost.
    pub fn betree_insert_cost(&self, shape: &DictShape, cfg: &BetreeConfig) -> f64 {
        let sym = betree_costs::insert_cost(&self.affine, shape, cfg);
        sym * (1.0 + self.omega) / 2.0
    }

    /// Bε-tree query cost (reads only; optimized layout).
    pub fn betree_query_cost(&self, shape: &DictShape, cfg: &BetreeConfig) -> f64 {
        betree_costs::query_cost_optimized(&self.affine, shape, cfg)
    }

    /// Mixed-workload cost per operation: a fraction `write_frac` of ops
    /// are inserts, the rest point queries.
    pub fn btree_mixed_cost(&self, shape: &DictShape, node_bytes: f64, write_frac: f64) -> f64 {
        write_frac * self.btree_update_cost(shape, node_bytes)
            + (1.0 - write_frac) * self.btree_query_cost(shape, node_bytes)
    }

    /// Mixed-workload cost for a `F = √B` Bε-tree.
    pub fn betree_mixed_cost(&self, shape: &DictShape, node_bytes: f64, write_frac: f64) -> f64 {
        let cfg = BetreeConfig::sqrt_fanout(shape, node_bytes);
        write_frac * self.betree_insert_cost(shape, &cfg)
            + (1.0 - write_frac) * self.betree_query_cost(shape, &cfg)
    }

    /// The fanout exponent `ε` minimizing the mixed-workload Bε-tree cost
    /// at a fixed node size: larger `ω` or `write_frac` pushes `ε` down
    /// (more write-optimization); read-heavy workloads push it toward 1
    /// (B-tree-like).
    pub fn optimal_epsilon(&self, shape: &DictShape, node_bytes: f64, write_frac: f64) -> f64 {
        let (eps, _) = golden_section_min(0.05, 1.0, |e| {
            let cfg = BetreeConfig::with_epsilon(shape, node_bytes, e);
            write_frac * self.betree_insert_cost(shape, &cfg)
                + (1.0 - write_frac) * self.betree_query_cost(shape, &cfg)
        });
        eps
    }

    /// Break-even write fraction: the workload mix above which the
    /// `F = √B` Bε-tree beats the B-tree at their respective node sizes.
    pub fn betree_breakeven_write_frac(&self, shape: &DictShape, node_bytes: f64) -> f64 {
        // Binary search the crossover of two monotone-in-write_frac lines.
        let f = |w: f64| {
            self.betree_mixed_cost(shape, node_bytes, w)
                - self.btree_mixed_cost(shape, node_bytes, w)
        };
        if f(0.0) <= 0.0 {
            return 0.0; // betree already wins read-only
        }
        if f(1.0) >= 0.0 {
            return 1.0; // btree wins even write-only (shouldn't happen)
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if f(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AsymmetricAffine, DictShape) {
        (
            AsymmetricAffine::new(7.1e-7, 4.0),
            DictShape::new(2e9, 1e4, 116.0, 24.0),
        )
    }

    #[test]
    fn queries_unaffected_by_omega() {
        let (m, s) = setup();
        let sym = AsymmetricAffine::new(m.affine.alpha, 1.0);
        assert_eq!(
            m.btree_query_cost(&s, 65536.0),
            sym.btree_query_cost(&s, 65536.0)
        );
    }

    #[test]
    fn updates_get_more_expensive_with_omega() {
        let (_, s) = setup();
        let w1 = AsymmetricAffine::new(7.1e-7, 1.0).btree_update_cost(&s, 65536.0);
        let w8 = AsymmetricAffine::new(7.1e-7, 8.0).btree_update_cost(&s, 65536.0);
        assert!(w8 > 2.0 * w1, "w8 {w8} vs w1 {w1}");
    }

    #[test]
    fn higher_omega_widens_betree_advantage() {
        // The §3 point: asymmetry strengthens the case for WODs.
        let (_, s) = setup();
        let node = 1 << 20;
        let advantage = |omega: f64| {
            let m = AsymmetricAffine::new(7.1e-7, omega);
            m.btree_mixed_cost(&s, node as f64, 0.5) / m.betree_mixed_cost(&s, node as f64, 0.5)
        };
        assert!(
            advantage(8.0) > advantage(1.0),
            "{} vs {}",
            advantage(8.0),
            advantage(1.0)
        );
    }

    #[test]
    fn optimal_epsilon_falls_with_write_fraction() {
        let (m, s) = setup();
        let node = (1 << 22) as f64;
        let read_heavy = m.optimal_epsilon(&s, node, 0.05);
        let write_heavy = m.optimal_epsilon(&s, node, 0.95);
        assert!(
            write_heavy < read_heavy,
            "write-heavy eps {write_heavy} should be below read-heavy {read_heavy}"
        );
    }

    #[test]
    fn optimal_epsilon_falls_with_omega() {
        let (_, s) = setup();
        let node = (1 << 22) as f64;
        let e1 = AsymmetricAffine::new(7.1e-7, 1.0).optimal_epsilon(&s, node, 0.5);
        let e8 = AsymmetricAffine::new(7.1e-7, 8.0).optimal_epsilon(&s, node, 0.5);
        assert!(e8 <= e1 + 1e-6, "omega 8 eps {e8} vs omega 1 eps {e1}");
    }

    #[test]
    fn breakeven_is_a_valid_fraction_and_monotone() {
        let (_, s) = setup();
        let node = (1 << 20) as f64;
        let b1 = AsymmetricAffine::new(7.1e-7, 1.0).betree_breakeven_write_frac(&s, node);
        let b8 = AsymmetricAffine::new(7.1e-7, 8.0).betree_breakeven_write_frac(&s, node);
        assert!((0.0..=1.0).contains(&b1));
        assert!((0.0..=1.0).contains(&b8));
        // More expensive writes: the betree starts winning at a lower (or
        // equal) write fraction.
        assert!(b8 <= b1 + 1e-9, "b8 {b8} vs b1 {b1}");
    }

    #[test]
    #[should_panic(expected = "omega must be >= 1")]
    fn sub_unit_omega_rejected() {
        let _ = AsymmetricAffine::new(1e-6, 0.5);
    }
}
