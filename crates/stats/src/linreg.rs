//! Ordinary least squares on `(x, y)` pairs.
//!
//! Used to derive the affine-model parameters of §4.2: issuing random reads of
//! increasing size `I` and fitting `time = s + t·I` yields the setup cost `s`
//! (intercept), bandwidth cost `t` (slope), and hence `α = t/s` (Table 2).

use crate::{check_xy, StatsError};

/// Result of a least-squares line fit `y ≈ intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Estimated intercept (the affine model's setup cost `s` when fitting
    /// IO time against IO size).
    pub intercept: f64,
    /// Estimated slope (the affine model's per-byte bandwidth cost `t`).
    pub slope: f64,
    /// Coefficient of determination on the fitted data; 1 is a perfect fit.
    pub r2: f64,
    /// Root-mean-square residual on the fitted data.
    pub rms: f64,
    /// Number of points the fit used.
    pub n: usize,
    /// Standard error of the slope estimate (0 when underdetermined).
    pub slope_se: f64,
    /// Standard error of the intercept estimate (0 when underdetermined).
    pub intercept_se: f64,
}

impl LinearFit {
    /// Predicted `y` at `x`.
    #[inline]
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// The `x` at which this line attains `y` (inverse prediction).
    ///
    /// Returns `None` when the line is horizontal.
    pub fn solve_for_x(&self, y: f64) -> Option<f64> {
        if self.slope == 0.0 {
            None
        } else {
            Some((y - self.intercept) / self.slope)
        }
    }

    /// Sum of squared residuals implied by `rms` and `n`.
    #[inline]
    pub fn sse(&self) -> f64 {
        self.rms * self.rms * self.n as f64
    }
}

/// Fit `y = a + b·x` by ordinary least squares.
///
/// Requires at least two points with non-identical x values.
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// let ys = [3.0, 5.0, 7.0, 9.0]; // y = 1 + 2x exactly
/// let fit = dam_stats::fit_line(&xs, &ys).unwrap();
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.r2 - 1.0).abs() < 1e-12);
/// ```
pub fn fit_line(xs: &[f64], ys: &[f64]) -> Result<LinearFit, StatsError> {
    check_xy(xs, ys, 2)?;
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        sxx += dx * dx;
        sxy += dx * (y - mean_y);
    }
    if sxx == 0.0 {
        return Err(StatsError::DegenerateX);
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let predictions: Vec<f64> = xs.iter().map(|&x| intercept + slope * x).collect();
    let r2 = r_squared(ys, &predictions)?;
    let rms = rms_error(ys, &predictions)?;
    // Standard OLS parameter errors: s² = SSE/(n−2),
    // se(b) = √(s²/Sxx), se(a) = √(s²·(1/n + x̄²/Sxx)).
    let (slope_se, intercept_se) = if xs.len() > 2 {
        let sse: f64 = ys
            .iter()
            .zip(&predictions)
            .map(|(y, p)| (y - p) * (y - p))
            .sum();
        let s2 = sse / (xs.len() as f64 - 2.0);
        (
            (s2 / sxx).sqrt(),
            (s2 * (1.0 / n + mean_x * mean_x / sxx)).sqrt(),
        )
    } else {
        (0.0, 0.0)
    };
    Ok(LinearFit {
        intercept,
        slope,
        r2,
        rms,
        n: xs.len(),
        slope_se,
        intercept_se,
    })
}

/// Coefficient of determination `R² = 1 − SS_res / SS_tot`.
///
/// When the observations have zero variance, returns 1.0 if the predictions
/// match them exactly and 0.0 otherwise (a convention that keeps perfect
/// constant fits reporting a perfect score).
pub fn r_squared(observed: &[f64], predicted: &[f64]) -> Result<f64, StatsError> {
    check_xy(observed, predicted, 1)?;
    let n = observed.len() as f64;
    let mean = observed.iter().sum::<f64>() / n;
    let ss_tot: f64 = observed.iter().map(|y| (y - mean) * (y - mean)).sum();
    let ss_res: f64 = observed
        .iter()
        .zip(predicted)
        .map(|(y, p)| (y - p) * (y - p))
        .sum();
    if ss_tot == 0.0 {
        return Ok(if ss_res == 0.0 { 1.0 } else { 0.0 });
    }
    Ok(1.0 - ss_res / ss_tot)
}

/// Root-mean-square prediction error.
pub fn rms_error(observed: &[f64], predicted: &[f64]) -> Result<f64, StatsError> {
    check_xy(observed, predicted, 1)?;
    let n = observed.len() as f64;
    let ss: f64 = observed
        .iter()
        .zip(predicted)
        .map(|(y, p)| (y - p) * (y - p))
        .sum();
    Ok((ss / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.5 - 0.25 * x).collect();
        let fit = fit_line(&xs, &ys).unwrap();
        assert!((fit.intercept - 4.5).abs() < 1e-10);
        assert!((fit.slope + 0.25).abs() < 1e-10);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
        assert!(fit.rms < 1e-10);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        // Deterministic pseudo-noise.
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + 1.0 + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let fit = fit_line(&xs, &ys).unwrap();
        assert!(fit.r2 > 0.99 && fit.r2 < 1.0);
        assert!((fit.slope - 2.0).abs() < 0.01);
    }

    #[test]
    fn predict_and_inverse_agree() {
        let fit = LinearFit {
            intercept: 3.0,
            slope: 2.0,
            r2: 1.0,
            rms: 0.0,
            n: 2,
            slope_se: 0.0,
            intercept_se: 0.0,
        };
        let y = fit.predict(7.0);
        assert!((fit.solve_for_x(y).unwrap() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn horizontal_line_has_no_inverse() {
        let fit = LinearFit {
            intercept: 3.0,
            slope: 0.0,
            r2: 1.0,
            rms: 0.0,
            n: 2,
            slope_se: 0.0,
            intercept_se: 0.0,
        };
        assert!(fit.solve_for_x(5.0).is_none());
    }

    #[test]
    fn too_few_points_rejected() {
        assert_eq!(
            fit_line(&[1.0], &[1.0]),
            Err(StatsError::TooFewPoints { got: 1, need: 2 })
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        assert_eq!(
            fit_line(&[1.0, 2.0], &[1.0]),
            Err(StatsError::LengthMismatch { xs: 2, ys: 1 })
        );
    }

    #[test]
    fn degenerate_x_rejected() {
        assert_eq!(
            fit_line(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::DegenerateX)
        );
    }

    #[test]
    fn nan_rejected() {
        assert_eq!(
            fit_line(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(StatsError::NonFinite)
        );
    }

    #[test]
    fn r2_constant_observed_exact_prediction() {
        assert_eq!(r_squared(&[2.0, 2.0], &[2.0, 2.0]).unwrap(), 1.0);
        assert_eq!(r_squared(&[2.0, 2.0], &[2.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn rms_of_known_residuals() {
        let rms = rms_error(&[0.0, 0.0], &[3.0, 4.0]).unwrap();
        // sqrt((9+16)/2) = sqrt(12.5)
        assert!((rms - 12.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn standard_errors_shrink_with_noise_and_n() {
        // Noiseless fit: zero standard errors.
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 * x).collect();
        let exact = fit_line(&xs, &ys).unwrap();
        assert!(exact.slope_se < 1e-10 && exact.intercept_se < 1e-10);
        // Noisy fit: positive SEs that shrink with more data.
        let noisy = |n: usize| {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let ys: Vec<f64> = xs
                .iter()
                .enumerate()
                .map(|(i, x)| 1.0 + 2.0 * x + if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect();
            fit_line(&xs, &ys).unwrap()
        };
        let small = noisy(10);
        let big = noisy(1000);
        assert!(small.slope_se > 0.0);
        assert!(big.slope_se < small.slope_se);
        assert!(big.intercept_se < small.intercept_se);
    }

    #[test]
    fn sse_roundtrip() {
        let fit = LinearFit {
            intercept: 0.0,
            slope: 0.0,
            r2: 0.0,
            rms: 2.0,
            n: 5,
            slope_se: 0.0,
            intercept_se: 0.0,
        };
        assert!((fit.sse() - 20.0).abs() < 1e-12);
    }
}
