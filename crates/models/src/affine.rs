//! The affine IO model (Definition 2): an IO of `x` bytes costs `1 + α·x`.
//!
//! Most predictive of hard disks, where the unit setup cost is the seek and
//! `α = t/s` for transfer time `t` (seconds/byte) and setup time `s`
//! (seconds). `α ≪ 1` on real hardware: the 2018 WD Red of Table 2 has
//! `α ≈ 0.0017` per 4 KiB block, i.e. ≈ 4.1e-7 per byte.

/// Affine model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine {
    /// Normalized bandwidth cost per **byte**: an IO of `x` bytes costs
    /// `1 + alpha * x` setup-cost units.
    pub alpha: f64,
}

impl Affine {
    /// Build from a per-byte `α`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "alpha must be positive and finite"
        );
        Affine { alpha }
    }

    /// Cost of one IO of `bytes` bytes, in setup-cost units.
    #[inline]
    pub fn io_cost(&self, bytes: f64) -> f64 {
        1.0 + self.alpha * bytes
    }

    /// Cost in seconds of one IO, given the device's setup time in seconds.
    #[inline]
    pub fn io_seconds(&self, bytes: f64, setup_seconds: f64) -> f64 {
        setup_seconds * self.io_cost(bytes)
    }

    /// The half-bandwidth point: the IO size where setup cost equals
    /// transfer cost, i.e. `B = 1/α` bytes.
    ///
    /// Setting the DAM block size here makes the DAM approximate affine cost
    /// to within a factor of 2 (Lemma 1), and is the asymptotically optimal
    /// B-tree node size of Corollary 6.
    #[inline]
    pub fn half_bandwidth_bytes(&self) -> f64 {
        1.0 / self.alpha
    }

    /// Effective bandwidth utilization of IOs of `bytes` bytes: the fraction
    /// of the IO's cost spent actually transferring data,
    /// `αx / (1 + αx)`. Reaches 1/2 exactly at the half-bandwidth point.
    pub fn bandwidth_utilization(&self, bytes: f64) -> f64 {
        let t = self.alpha * bytes;
        t / (1.0 + t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_cost_is_affine() {
        let m = Affine::new(0.001);
        assert!((m.io_cost(0.0) - 1.0).abs() < 1e-12);
        assert!((m.io_cost(1000.0) - 2.0).abs() < 1e-12);
        assert!((m.io_cost(2000.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn half_bandwidth_point_balances_costs() {
        let m = Affine::new(2.5e-7);
        let b = m.half_bandwidth_bytes();
        // At B = 1/alpha, transfer cost = setup cost = 1.
        assert!((m.io_cost(b) - 2.0).abs() < 1e-9);
        assert!((m.bandwidth_utilization(b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_monotone_in_io_size() {
        let m = Affine::new(1e-6);
        let mut last = -1.0;
        for exp in 0..24 {
            let u = m.bandwidth_utilization((1u64 << exp) as f64);
            assert!(u > last);
            last = u;
        }
        assert!(m.bandwidth_utilization(1e12) > 0.999);
    }

    #[test]
    fn io_seconds_scales_by_setup() {
        let m = Affine::new(0.001);
        assert!((m.io_seconds(1000.0, 0.01) - 0.02).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn zero_alpha_rejected() {
        let _ = Affine::new(0.0);
    }
}
