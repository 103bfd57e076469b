//! Two-piece segmented linear regression.
//!
//! §4.1 of the paper: "We used segmented linear regression to estimate `P`
//! and `B` for each device. Segmented linear regression is appropriate for
//! fitting data that is known to follow different linear functions in
//! different ranges." The thread-scaling curve of an SSD is flat for `p ≤ P`
//! and grows linearly for `p > P`; the knee position is the device
//! parallelism `P` (Table 1).

use crate::linreg::{fit_line, LinearFit};
use crate::{check_xy, StatsError};

/// Result of an unconstrained two-segment fit.
///
/// Points with `x ≤ break_x` follow `left`; the rest follow `right`. The
/// breakpoint is chosen to minimize the total sum of squared residuals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentedFit {
    /// Fit over the left region.
    pub left: LinearFit,
    /// Fit over the right region.
    pub right: LinearFit,
    /// Largest x assigned to the left segment.
    pub break_x: f64,
    /// `R²` of the combined piecewise prediction over all points.
    pub r2: f64,
}

impl SegmentedFit {
    /// Piecewise prediction.
    pub fn predict(&self, x: f64) -> f64 {
        if x <= self.break_x {
            self.left.predict(x)
        } else {
            self.right.predict(x)
        }
    }
}

/// Fit two independent lines with an optimal breakpoint.
///
/// `xs` must be sorted ascending. Each segment must contain at least two
/// points, so at least four points are required overall. The search is
/// exhaustive over the `n − 3` admissible breakpoints — cheap for the tens of
/// points a microbenchmark produces.
pub fn fit_segmented(xs: &[f64], ys: &[f64]) -> Result<SegmentedFit, StatsError> {
    check_xy(xs, ys, 4)?;
    if xs.windows(2).any(|w| w[0] > w[1]) {
        // Sorting is the caller's job; report it as a degenerate input rather
        // than silently permuting data.
        return Err(StatsError::DegenerateX);
    }
    let n = xs.len();
    let mut best: Option<(f64, SegmentedFit)> = None;
    for split in 2..=(n - 2) {
        // Skip splits that would put identical x values on both sides of the
        // boundary (they make the region assignment ambiguous).
        if xs[split - 1] == xs[split] {
            continue;
        }
        let left = match fit_line(&xs[..split], &ys[..split]) {
            Ok(f) => f,
            Err(StatsError::DegenerateX) => continue,
            Err(e) => return Err(e),
        };
        let right = match fit_line(&xs[split..], &ys[split..]) {
            Ok(f) => f,
            Err(StatsError::DegenerateX) => continue,
            Err(e) => return Err(e),
        };
        let sse = left.sse() + right.sse();
        if best.as_ref().is_none_or(|(b, _)| sse < *b) {
            let fit = SegmentedFit {
                left,
                right,
                break_x: xs[split - 1],
                r2: 0.0,
            };
            best = Some((sse, fit));
        }
    }
    let (_, mut fit) = best.ok_or(StatsError::DegenerateX)?;
    let predicted: Vec<f64> = xs.iter().map(|&x| fit.predict(x)).collect();
    fit.r2 = crate::linreg::r_squared(ys, &predicted)?;
    Ok(fit)
}

/// Result of a *flat-then-linear* fit: `y = c` for `x ≤ knee`, then
/// `y = a + b·x`.
///
/// This is the constrained segmented regression the PDAM predicts for the
/// completion time of `p` closed-loop reader threads: constant while the
/// device still has spare parallelism, then linear once saturated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatThenLinearFit {
    /// Level of the flat region (mean of the left points).
    pub flat_level: f64,
    /// Fit of the rising region.
    pub rising: LinearFit,
    /// Continuous knee estimate: where the rising line crosses the flat
    /// level. This is the PDAM parallelism `P` of Table 1.
    pub knee_x: f64,
    /// `R²` of the combined prediction over all points.
    pub r2: f64,
}

impl FlatThenLinearFit {
    /// Piecewise prediction: `max(flat_level, rising(x))` after the knee.
    pub fn predict(&self, x: f64) -> f64 {
        if x <= self.knee_x {
            self.flat_level
        } else {
            self.rising.predict(x)
        }
    }
}

/// Fit the flat-then-linear model, choosing the split that minimizes SSE.
///
/// `xs` must be sorted ascending, with at least two points in each region
/// (so at least four points overall).
pub fn fit_flat_then_linear(xs: &[f64], ys: &[f64]) -> Result<FlatThenLinearFit, StatsError> {
    check_xy(xs, ys, 4)?;
    if xs.windows(2).any(|w| w[0] > w[1]) {
        return Err(StatsError::DegenerateX);
    }
    let n = xs.len();
    let mut best: Option<(f64, FlatThenLinearFit)> = None;
    for split in 2..=(n - 2) {
        if xs[split - 1] == xs[split] {
            continue;
        }
        let left = &ys[..split];
        let flat_level = left.iter().sum::<f64>() / split as f64;
        let sse_left: f64 = left
            .iter()
            .map(|y| (y - flat_level) * (y - flat_level))
            .sum();
        let rising = match fit_line(&xs[split..], &ys[split..]) {
            Ok(f) => f,
            Err(StatsError::DegenerateX) => continue,
            Err(e) => return Err(e),
        };
        let sse = sse_left + rising.sse();
        if best.as_ref().is_none_or(|(b, _)| sse < *b) {
            // Continuous knee: where rising line reaches the flat level. If
            // the rising line is flat too, fall back to the split boundary.
            let knee_x = rising
                .solve_for_x(flat_level)
                .filter(|k| k.is_finite() && *k > 0.0)
                .unwrap_or(xs[split - 1]);
            best = Some((
                sse,
                FlatThenLinearFit {
                    flat_level,
                    rising,
                    knee_x,
                    r2: 0.0,
                },
            ));
        }
    }
    let (_, mut fit) = best.ok_or(StatsError::DegenerateX)?;
    let predicted: Vec<f64> = xs.iter().map(|&x| fit.predict(x)).collect();
    fit.r2 = crate::linreg::r_squared(ys, &predicted)?;
    Ok(fit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knee_curve(p: f64, xs: &[f64]) -> Vec<f64> {
        // Ideal PDAM curve: time = max(T, T * x / p) with T = 10.
        xs.iter().map(|&x| 10f64.max(10.0 * x / p)).collect()
    }

    #[test]
    fn recovers_planted_breakpoint() {
        let xs: Vec<f64> = (1..=64).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| if x <= 20.0 { 5.0 + x } else { -35.0 + 3.0 * x })
            .collect();
        let fit = fit_segmented(&xs, &ys).unwrap();
        assert!(
            (fit.break_x - 20.0).abs() <= 1.0,
            "break at {}",
            fit.break_x
        );
        assert!((fit.left.slope - 1.0).abs() < 1e-6);
        assert!((fit.right.slope - 3.0).abs() < 1e-6);
        assert!(fit.r2 > 0.999);
    }

    #[test]
    fn flat_then_linear_recovers_parallelism() {
        // Simulate a device with P = 4: flat until 4 threads, linear after.
        let xs: Vec<f64> = [1, 2, 4, 8, 16, 32, 64].iter().map(|&x| x as f64).collect();
        let ys = knee_curve(4.0, &xs);
        let fit = fit_flat_then_linear(&xs, &ys).unwrap();
        assert!((fit.knee_x - 4.0).abs() < 0.5, "knee at {}", fit.knee_x);
        assert!((fit.flat_level - 10.0).abs() < 1e-9);
        assert!(fit.r2 > 0.999);
    }

    #[test]
    fn flat_then_linear_non_integer_knee() {
        // A soft knee (bank conflicts) produces a fractional P, like the
        // paper's 3.3 / 5.5 / 2.9 / 4.6.
        let xs: Vec<f64> = [1, 2, 4, 8, 16, 32, 64].iter().map(|&x| x as f64).collect();
        let ys = knee_curve(3.3, &xs);
        let fit = fit_flat_then_linear(&xs, &ys).unwrap();
        assert!((fit.knee_x - 3.3).abs() < 0.7, "knee at {}", fit.knee_x);
    }

    #[test]
    fn unsorted_input_rejected() {
        let xs = [3.0, 1.0, 2.0, 4.0, 5.0];
        let ys = [1.0; 5];
        assert!(fit_segmented(&xs, &ys).is_err());
        assert!(fit_flat_then_linear(&xs, &ys).is_err());
    }

    #[test]
    fn too_few_points_rejected() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [1.0, 2.0, 3.0];
        assert_eq!(
            fit_segmented(&xs, &ys),
            Err(StatsError::TooFewPoints { got: 3, need: 4 })
        );
    }

    #[test]
    fn segmented_predict_uses_correct_piece() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| if x <= 5.0 { 1.0 } else { x }).collect();
        let fit = fit_segmented(&xs, &ys).unwrap();
        assert!((fit.predict(2.0) - 1.0).abs() < 0.5);
        assert!((fit.predict(9.0) - 9.0).abs() < 0.5);
    }
}
