//! §6: Bε-tree costs in the affine model.
//!
//! Lemma 8 (naïve analysis, whole-node IOs): with node size `B` and target
//! fanout `F`,
//!
//! * amortized insert: `O((F/B + αF)·log_F(N/M))` (entries units),
//! * query: `O((1 + αB)·log_F(N/M))`,
//! * range query returning `l` items: `O(1 + l/B)(1 + αB)` plus a query.
//!
//! Theorem 9 (optimized: per-child buffer segments of ≤ `B/F`, pivots stored
//! in the parent, weight-balanced rebuilds): query improves to
//! `(1 + αB/F + αF)·log_F(N/M)·(1 + 1/log F)` with the same insert bound.
//!
//! Corollary 10: with `F = √B`, query cost grows as `√B` rather than `B`.
//! Corollary 11: when `B = Ω(F²)` and `B = o(F/α)`, reading a node costs
//! `1 + o(1)` and search is `(1 + o(1))·log_F(N/M)`.

use crate::{Affine, DictShape};

/// Bε-tree configuration under analysis: node size in bytes and target
/// fanout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetreeConfig {
    /// Node size in bytes (`B`).
    pub node_bytes: f64,
    /// Target fanout (`F`). `F = √(B in entries)` corresponds to `ε = 1/2`.
    pub fanout: f64,
}

impl BetreeConfig {
    /// The `ε = 1/2` configuration for a given node size: `F = √B_entries`.
    pub fn sqrt_fanout(shape: &DictShape, node_bytes: f64) -> Self {
        let b_entries = shape.entries_per_node(node_bytes);
        BetreeConfig {
            node_bytes,
            fanout: b_entries.sqrt().max(2.0),
        }
    }

    /// General `ε` configuration: `F = B_entries^ε`.
    pub fn with_epsilon(shape: &DictShape, node_bytes: f64, epsilon: f64) -> Self {
        let b_entries = shape.entries_per_node(node_bytes);
        BetreeConfig {
            node_bytes,
            fanout: b_entries.powf(epsilon).max(2.0),
        }
    }
}

/// Lemma 8: amortized affine insert cost. Flushing one level moves `Θ(B)`
/// entries with `Θ(F)` IOs transferring `Θ(FB)` bytes, so the per-entry
/// per-level cost is `F/B_entries + αF·entry_bytes`; multiply by the height.
pub fn insert_cost(affine: &Affine, shape: &DictShape, cfg: &BetreeConfig) -> f64 {
    let b_entries = shape.entries_per_node(cfg.node_bytes);
    let per_level = cfg.fanout / b_entries + affine.alpha * cfg.fanout * shape.entry_bytes;
    per_level * shape.uncached_height(cfg.fanout)
}

/// Lemma 8: query cost with whole-node IOs: `(1 + αB)·log_F(N/M)`.
pub fn query_cost_standard(affine: &Affine, shape: &DictShape, cfg: &BetreeConfig) -> f64 {
    affine.io_cost(cfg.node_bytes) * shape.uncached_height(cfg.fanout)
}

/// Theorem 9: query cost with per-child buffer segments and pivots-in-parent:
/// per level, one IO of `B/F` buffer bytes plus `F` pivot keys:
/// `(1 + α(B/F + F·key_bytes))·log_F(N/M)·(1 + 1/log F)`.
pub fn query_cost_optimized(affine: &Affine, shape: &DictShape, cfg: &BetreeConfig) -> f64 {
    let per_node_bytes = cfg.node_bytes / cfg.fanout + cfg.fanout * shape.key_bytes;
    let height = shape.uncached_height(cfg.fanout);
    let slack = 1.0 + 1.0 / cfg.fanout.max(2.0).ln();
    affine.io_cost(per_node_bytes) * height * slack
}

/// Affine write amplification: each entry is rewritten as part of whole-node
/// flushes `F` times per level over `log_F(N/M)` levels (Theorem 4(4)
/// carried into the affine model).
pub fn write_amp(shape: &DictShape, cfg: &BetreeConfig) -> f64 {
    cfg.fanout * shape.uncached_height(cfg.fanout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::golden_section_min;

    fn setup() -> (Affine, DictShape) {
        let affine = Affine::new(7.1e-7); // ~2011 WD Black
        let shape = DictShape::new(2e9, 1e4, 116.0, 24.0);
        (affine, shape)
    }

    #[test]
    fn sqrt_fanout_squares_back() {
        let (_, s) = setup();
        let cfg = BetreeConfig::sqrt_fanout(&s, 1_000_000.0);
        let b_entries = s.entries_per_node(1_000_000.0);
        assert!((cfg.fanout * cfg.fanout - b_entries).abs() < 1e-6);
    }

    #[test]
    fn epsilon_one_is_btree_like() {
        let (_, s) = setup();
        let cfg = BetreeConfig::with_epsilon(&s, 65536.0, 1.0);
        assert!((cfg.fanout - s.entries_per_node(65536.0)).abs() < 1e-9);
    }

    #[test]
    fn optimized_query_beats_standard_for_large_nodes() {
        let (a, s) = setup();
        // 4 MiB nodes, F = sqrt(B): Theorem 9's whole point.
        let cfg = BetreeConfig::sqrt_fanout(&s, 4.0 * 1024.0 * 1024.0);
        let std_q = query_cost_standard(&a, &s, &cfg);
        let opt_q = query_cost_optimized(&a, &s, &cfg);
        assert!(
            opt_q < std_q / 1.5,
            "optimized should be much cheaper: {opt_q} vs {std_q}"
        );
    }

    #[test]
    fn betree_less_sensitive_to_node_size_than_btree() {
        // Corollary 10 / Table 3: growing B by 16x past the half-bandwidth
        // point grows B-tree query cost ~16x but sqrt-fanout Bε query ~4x.
        let (a, s) = setup();
        let b0 = 2.0 / a.alpha;
        let b1 = 32.0 / a.alpha;
        let btree_ratio = crate::btree_costs::point_op_cost(&a, &s, b1)
            / crate::btree_costs::point_op_cost(&a, &s, b0);
        let be0 = query_cost_optimized(&a, &s, &BetreeConfig::sqrt_fanout(&s, b0));
        let be1 = query_cost_optimized(&a, &s, &BetreeConfig::sqrt_fanout(&s, b1));
        let betree_ratio = be1 / be0;
        assert!(
            betree_ratio < btree_ratio / 2.0,
            "betree ratio {betree_ratio} should be far below btree ratio {btree_ratio}"
        );
    }

    #[test]
    fn insert_cost_has_interior_optimum() {
        let (a, s) = setup();
        let c = |b| insert_cost(&a, &s, &BetreeConfig::sqrt_fanout(&s, b));
        let (opt, _) = golden_section_min(4.0 * s.entry_bytes, 1e4 / a.alpha, c);
        assert!(c(opt / 16.0) > c(opt));
        assert!(c(opt * 16.0) > c(opt));
        // The insert optimum sits at (or above) the half-bandwidth point —
        // Bε-trees want *big* nodes (§6). Compare the B-tree's point-op
        // optimum, which is a log factor *below* the half-bandwidth point.
        assert!(
            opt > 0.5 * a.half_bandwidth_bytes(),
            "opt {opt} vs 1/alpha {}",
            1.0 / a.alpha
        );
        let btree_opt = crate::btree_costs::point_op_optimal_node_bytes(&a, &s);
        assert!(
            opt > 2.0 * btree_opt,
            "betree insert opt {opt} vs btree opt {btree_opt}"
        );
    }

    #[test]
    fn query_optimum_smaller_than_insert_optimum() {
        // Fig 3: TokuDB's query optimum (~512 KiB) is below its insert
        // optimum (~4 MiB). TokuDB reads whole nodes on a cold query, so the
        // relevant query curve is the standard (Lemma 8) one.
        let (a, s) = setup();
        let (insert_opt, _) = golden_section_min(4.0 * s.entry_bytes, 1e4 / a.alpha, |b| {
            insert_cost(&a, &s, &BetreeConfig::sqrt_fanout(&s, b))
        });
        let (query_opt, _) = golden_section_min(4.0 * s.entry_bytes, 1e3 / a.alpha, |b| {
            query_cost_standard(&a, &s, &BetreeConfig::sqrt_fanout(&s, b))
        });
        assert!(
            query_opt < insert_opt,
            "query opt {query_opt} should be below insert opt {insert_opt}"
        );
    }

    #[test]
    fn corollary11_regime_reads_nodes_for_one_plus_o1() {
        let (a, s) = setup();
        // Pick F = 1/(alpha_e * ln(1/alpha_e)) and B = F^2 entries (Cor 12).
        let ae = a.alpha * s.entry_bytes;
        let (f, b_entries) = crate::optimal::optimal_betree_params(ae);
        let cfg = BetreeConfig {
            node_bytes: b_entries * s.entry_bytes,
            fanout: f,
        };
        // One segment of B/F bytes plus F pivots, as Theorem 9 reads a node.
        let cost = a.io_cost(cfg.node_bytes / cfg.fanout + cfg.fanout * s.key_bytes);
        assert!(cost < 1.5, "per-node read cost should be 1 + o(1): {cost}");
    }

    #[test]
    fn corollary12_insert_beats_btree_at_equal_query_cost() {
        // The optimized Bε-tree matches B-tree queries to low-order terms but
        // inserts a Θ(log(1/α)) factor faster.
        let (a, s) = setup();
        let ae = a.alpha * s.entry_bytes;
        let (f, b_entries) = crate::optimal::optimal_betree_params(ae);
        let cfg = BetreeConfig {
            node_bytes: b_entries * s.entry_bytes,
            fanout: f,
        };
        let btree_b = crate::btree_costs::point_op_optimal_node_bytes(&a, &s);
        let btree_q = crate::btree_costs::point_op_cost(&a, &s, btree_b);
        let betree_q = query_cost_optimized(&a, &s, &cfg);
        assert!(
            betree_q < 1.6 * btree_q,
            "betree query {betree_q} vs btree {btree_q}"
        );
        let btree_i = crate::btree_costs::point_op_cost(&a, &s, btree_b);
        let betree_i = insert_cost(&a, &s, &cfg);
        assert!(
            betree_i < btree_i / 2.0,
            "betree insert {betree_i} vs btree {btree_i}"
        );
    }

    #[test]
    fn write_amp_much_smaller_than_btree() {
        let (a, s) = setup();
        let cfg = BetreeConfig::sqrt_fanout(&s, 1.0 / a.alpha);
        let be = write_amp(&s, &cfg);
        let bt = crate::btree_costs::write_amp(&s, 1.0 / a.alpha);
        assert!(be < bt / 10.0, "betree WA {be} vs btree WA {bt}");
    }
}
