//! Analytic cost models from the paper: the DAM, its affine refinement, and
//! its parallel (PDAM) refinement, together with the B-tree and Bε-tree cost
//! formulas derived in §5 and §6 and the optimal-parameter solvers of
//! Corollaries 6, 7, 11 and 12.
//!
//! # Unit conventions
//!
//! * IO sizes are **bytes** throughout the public API.
//! * Affine cost is measured in **setup-cost units**: an IO of `x` bytes
//!   costs `1 + α·x`, where `α` is the normalized per-byte bandwidth cost
//!   (`α = t/s` for a disk with setup time `s` seconds and transfer time `t`
//!   seconds per byte — Definition 2). Multiply by `s` to get seconds.
//! * PDAM cost is measured in **time steps** (Definition 1): each step the
//!   device serves up to `P` IOs of `B` bytes.
//! * Dictionary formulas take a [`DictShape`] describing the dataset
//!   (`n_items`, cached items `m_items`, entry and key sizes in bytes), and
//!   express node size in bytes.
//!
//! The formulas here are the *predictions*; the `dam-storage`, `dam-btree`,
//! `dam-betree` and `dam-veb` crates provide the *measurements* the paper
//! validates them against.

pub mod affine;
pub mod asymmetric;
pub mod betree_costs;
pub mod btree_costs;
pub mod conversions;
pub mod dam;
pub mod optimal;
pub mod pdam;
pub mod sensitivity;

pub use affine::Affine;
pub use asymmetric::AsymmetricAffine;
pub use dam::Dam;
pub use pdam::Pdam;

/// Shape of a dictionary workload: how many items, how many fit in cache,
/// and how large entries and keys are.
///
/// The analytic costs of §5/§6 are functions of `N/M` (data-to-cache ratio)
/// and of the node fanout, which depends on entry/key sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DictShape {
    /// Total number of key-value pairs in the dictionary (`N`).
    pub n_items: f64,
    /// Number of key-value pairs that fit in cache (`M`).
    pub m_items: f64,
    /// Bytes per key-value entry (key + value + per-entry overhead).
    pub entry_bytes: f64,
    /// Bytes per pivot key (key + child-pointer overhead).
    pub key_bytes: f64,
}

impl DictShape {
    /// Construct a shape, clamping to sane minimums.
    pub fn new(n_items: f64, m_items: f64, entry_bytes: f64, key_bytes: f64) -> Self {
        DictShape {
            n_items: n_items.max(1.0),
            m_items: m_items.max(1.0),
            entry_bytes: entry_bytes.max(1.0),
            key_bytes: key_bytes.max(1.0),
        }
    }

    /// Data-to-cache ratio `N/M`, clamped to at least `e` so logarithms of it
    /// stay positive and the "everything cached" regime reports cost ≈ one
    /// level.
    pub fn residency_ratio(&self) -> f64 {
        (self.n_items / self.m_items).max(std::f64::consts::E)
    }

    /// Number of entries a node of `node_bytes` holds (≥ 2).
    pub fn entries_per_node(&self, node_bytes: f64) -> f64 {
        (node_bytes / self.entry_bytes).max(2.0)
    }

    /// Height of a search tree with the given fanout over the uncached part
    /// of the data: `log_fanout(N/M)`, at least 1.
    pub fn uncached_height(&self, fanout: f64) -> f64 {
        let f = fanout.max(2.0);
        (self.residency_ratio().ln() / f.ln()).max(1.0)
    }
}

/// A convenient default shape: 16-byte keys, 100-byte values (the benchmark
/// configuration of §7 scaled down), 1/16 of data cached.
impl Default for DictShape {
    fn default() -> Self {
        DictShape::new(2_000_000.0, 125_000.0, 116.0, 24.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_ratio_clamped() {
        let s = DictShape::new(10.0, 1000.0, 16.0, 8.0);
        assert!((s.residency_ratio() - std::f64::consts::E).abs() < 1e-12);
    }

    #[test]
    fn entries_per_node_minimum_two() {
        let s = DictShape::new(1e6, 1e3, 100.0, 20.0);
        assert_eq!(s.entries_per_node(50.0), 2.0);
        assert_eq!(s.entries_per_node(1000.0), 10.0);
    }

    #[test]
    fn uncached_height_at_least_one() {
        let s = DictShape::new(1e6, 1e3, 100.0, 20.0);
        // Huge fanout: height clamps at 1.
        assert_eq!(s.uncached_height(1e9), 1.0);
        // log_10(1000) = 3 levels.
        assert!((s.uncached_height(10.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn default_shape_is_sane() {
        let s = DictShape::default();
        assert!(s.n_items > s.m_items);
        assert!(s.entry_bytes > s.key_bytes);
    }
}
