//! Numeric optimizers for the parameter-tuning corollaries.
//!
//! * Corollary 6: all B-tree ops are asymptotically optimized at the
//!   half-bandwidth point `B = Θ(1/α)`.
//! * Corollary 7: point ops alone are optimized at `B = Θ(1/(α ln(1/α)))` —
//!   found here by minimizing `f(x) = (1 + αx)/ln(x + 1)` exactly.
//! * Corollary 11/12: the optimized Bε-tree takes `F = Θ(1/(α ln(1/α)))` and
//!   `B = F²`.
//!
//! The cost functions involved are unimodal in the parameter being tuned, so
//! golden-section search converges reliably.

/// Golden-section search for the minimum of a unimodal function on `[lo, hi]`.
///
/// Returns `(argmin, min)` to a relative tolerance of about `1e-10` in `x`.
pub fn golden_section_min(mut lo: f64, mut hi: f64, f: impl Fn(f64) -> f64) -> (f64, f64) {
    assert!(lo < hi, "invalid bracket [{lo}, {hi}]");
    const INVPHI: f64 = 0.618_033_988_749_894_8;
    let mut c = hi - INVPHI * (hi - lo);
    let mut d = lo + INVPHI * (hi - lo);
    let mut fc = f(c);
    let mut fd = f(d);
    // ~120 iterations shrink the bracket by phi^120 ≈ 1e-25 relative.
    for _ in 0..200 {
        if (hi - lo).abs() <= 1e-10 * (lo.abs() + hi.abs() + 1.0) {
            break;
        }
        if fc < fd {
            hi = d;
            d = c;
            fd = fc;
            c = hi - INVPHI * (hi - lo);
            fc = f(c);
        } else {
            lo = c;
            c = d;
            fc = fd;
            d = lo + INVPHI * (hi - lo);
            fd = f(d);
        }
    }
    let x = 0.5 * (lo + hi);
    (x, f(x))
}

/// The point-operation objective of Corollary 7 (per tree level, up to the
/// `log(N/M)` factor): `f(x) = (1 + αx)/ln(x + 1)`, `x` in entries with
/// per-entry bandwidth cost `alpha_entry`.
pub fn btree_point_objective(alpha_entry: f64, x_entries: f64) -> f64 {
    (1.0 + alpha_entry * x_entries) / (x_entries + 1.0).ln()
}

/// Corollary 7: node size (in entries) minimizing B-tree point-op cost, i.e.
/// the argmin of [`btree_point_objective`]. `Θ(1/(α ln(1/α)))`.
pub fn optimal_btree_entries(alpha_entry: f64) -> f64 {
    assert!(
        alpha_entry > 0.0 && alpha_entry < 1.0,
        "need 0 < alpha < 1, got {alpha_entry}"
    );
    // The minimum lies well inside [2, 10/alpha]: below the half-bandwidth
    // point (Cor 7) but within a log factor of it.
    let (x, _) = golden_section_min(2.0, 10.0 / alpha_entry, |x| {
        btree_point_objective(alpha_entry, x)
    });
    x
}

/// Closed-form approximation of Corollary 7: `1/(α ln(1/α))`.
///
/// Useful as a sanity check on [`optimal_btree_entries`]; the two agree to
/// within a small constant factor for small `α`.
pub fn approx_optimal_btree_entries(alpha_entry: f64) -> f64 {
    1.0 / (alpha_entry * (1.0 / alpha_entry).ln())
}

/// Corollary 12: fanout of the affine-optimal Bε-tree,
/// `F = Θ(1/(α ln(1/α)))` (same form as the optimal B-tree node size, but
/// used as a *fanout*), with node size `B = F²` entries.
///
/// Returns `(fanout, node_entries)`.
pub fn optimal_betree_params(alpha_entry: f64) -> (f64, f64) {
    let f = approx_optimal_btree_entries(alpha_entry).max(2.0);
    (f, f * f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_finds_parabola_min() {
        let (x, fx) = golden_section_min(-10.0, 10.0, |x| (x - 3.0) * (x - 3.0) + 1.0);
        assert!((x - 3.0).abs() < 1e-6);
        assert!((fx - 1.0).abs() < 1e-9);
    }

    #[test]
    fn golden_section_handles_boundary_min() {
        let (x, _) = golden_section_min(1.0, 5.0, |x| x);
        assert!((x - 1.0).abs() < 1e-6);
    }

    #[test]
    fn optimal_entries_below_half_bandwidth() {
        // Corollary 7: the point-op optimum is o(1/alpha), i.e. strictly less
        // than the half-bandwidth point for small alpha.
        for &alpha in &[1e-2, 1e-3, 1e-4, 1e-5] {
            let opt = optimal_btree_entries(alpha);
            assert!(
                opt < 1.0 / alpha,
                "alpha={alpha}: optimum {opt} should be below half-bandwidth {}",
                1.0 / alpha
            );
            assert!(opt > 2.0);
        }
    }

    #[test]
    fn optimal_entries_matches_asymptotic_form() {
        // For small alpha, argmin ~ 1/(alpha ln(1/alpha)) within a modest
        // constant factor.
        for &alpha in &[1e-3, 1e-4, 1e-5, 1e-6] {
            let exact = optimal_btree_entries(alpha);
            let approx = approx_optimal_btree_entries(alpha);
            let ratio = exact / approx;
            assert!(
                (0.3..=3.5).contains(&ratio),
                "alpha={alpha}: exact {exact} vs approx {approx} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn optimum_is_a_true_minimum() {
        let alpha = 1e-4;
        let opt = optimal_btree_entries(alpha);
        let at = btree_point_objective(alpha, opt);
        assert!(btree_point_objective(alpha, opt / 4.0) > at);
        assert!(btree_point_objective(alpha, opt * 4.0) > at);
    }

    #[test]
    fn stationary_equation_holds_at_optimum() {
        // Cor 7's derivation: at the optimum, 1 + αx = α ln(x+1)(1+x).
        let alpha = 1e-4;
        let x = optimal_btree_entries(alpha);
        let lhs = 1.0 + alpha * x;
        let rhs = alpha * (x + 1.0).ln() * (1.0 + x);
        assert!((lhs / rhs - 1.0).abs() < 1e-3, "lhs {lhs} rhs {rhs}");
    }

    #[test]
    fn betree_node_is_square_of_fanout() {
        let (f, b) = optimal_betree_params(1e-4);
        assert!((b - f * f).abs() < 1e-6);
        // Corollary 12: the Bε node can be nearly the square of the B-tree's
        // optimal node size.
        let btree_opt = optimal_btree_entries(1e-4);
        assert!(
            b > 10.0 * btree_opt,
            "betree node {b} vs btree node {btree_opt}"
        );
    }
}
