//! Statistics used by the experiments: least-squares fits (the Figure 2
//! linear/quadratic fits with R²), medians and histograms.

use serde::{Deserialize, Serialize};

/// A fitted polynomial `y = c0 + c1·x (+ c2·x²)` with its goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fit {
    pub coeffs: [f64; 3],
    pub r_squared: f64,
    /// Largest |residual| across the fitted points.
    pub max_residual: f64,
}

impl Fit {
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs[0] + self.coeffs[1] * x + self.coeffs[2] * x * x
    }
}

/// Solve a small symmetric positive-definite system by Gaussian
/// elimination with partial pivoting.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|i, j| a[*i][col].abs().total_cmp(&a[*j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            let pivot_row = a[col].clone();
            for (k, pv) in pivot_row.iter().enumerate().take(n).skip(col) {
                a[row][k] -= f * pv;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut s = b[row];
        for k in row + 1..n {
            s -= a[row][k] * x[k];
        }
        x[row] = s / a[row][row];
    }
    Some(x)
}

fn polyfit(points: &[(f64, f64)], degree: usize) -> Option<Fit> {
    let n = degree + 1;
    if points.len() < n {
        return None;
    }
    // Normal equations: (XᵀX) c = Xᵀy.
    let mut xtx = vec![vec![0.0; n]; n];
    let mut xty = vec![0.0; n];
    for &(x, y) in points {
        let mut powers = [1.0; 3];
        for (k, p) in powers.iter_mut().enumerate().take(n).skip(1) {
            *p = x.powi(k as i32);
        }
        for i in 0..n {
            for j in 0..n {
                xtx[i][j] += powers[i] * powers[j];
            }
            xty[i] += powers[i] * y;
        }
    }
    let c = solve(xtx, xty)?;
    let mut coeffs = [0.0; 3];
    coeffs[..n].copy_from_slice(&c);
    let fit = Fit {
        coeffs,
        r_squared: 0.0,
        max_residual: 0.0,
    };
    // Goodness of fit.
    let mean_y = points.iter().map(|(_, y)| y).sum::<f64>() / points.len() as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    let mut max_res: f64 = 0.0;
    for &(x, y) in points {
        let r = y - fit.eval(x);
        ss_res += r * r;
        ss_tot += (y - mean_y) * (y - mean_y);
        max_res = max_res.max(r.abs());
    }
    Some(Fit {
        coeffs,
        r_squared: if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        },
        max_residual: max_res,
    })
}

/// Least-squares linear fit `y = c0 + c1·x`.
pub fn linear_fit(points: &[(f64, f64)]) -> Option<Fit> {
    polyfit(points, 1)
}

/// Least-squares quadratic fit `y = c0 + c1·x + c2·x²` (the paper's
/// Haswell-EP AC-vs-RAPL fit, footnote 2).
pub fn quadratic_fit(points: &[(f64, f64)]) -> Option<Fit> {
    polyfit(points, 2)
}

/// Median (interpolated for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        0.5 * (v[mid - 1] + v[mid])
    } else {
        v[mid]
    }
}

/// Fixed-width histogram over [0, max); the last bin absorbs overflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    pub bin_width: f64,
    pub counts: Vec<usize>,
}

impl Histogram {
    pub fn build(values: &[f64], bin_width: f64, max: f64) -> Self {
        let bins = (max / bin_width).ceil().max(1.0) as usize;
        let mut counts = vec![0usize; bins];
        for &v in values {
            let idx = ((v / bin_width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        Histogram { bin_width, counts }
    }

    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quadratic_fit_recovers_paper_coefficients() {
        // Synthesize points from the paper's published fit and re-discover
        // the coefficients.
        let pts: Vec<(f64, f64)> = (0..60)
            .map(|i| {
                let x = 30.0 + i as f64 * 4.5;
                (x, 0.0003 * x * x + 1.097 * x + 225.7)
            })
            .collect();
        let fit = quadratic_fit(&pts).unwrap();
        assert!((fit.coeffs[2] - 0.0003).abs() < 1e-6, "{:?}", fit.coeffs);
        assert!((fit.coeffs[1] - 1.097).abs() < 1e-4);
        assert!((fit.coeffs[0] - 225.7).abs() < 1e-2);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn linear_fit_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.coeffs[0] - 3.0).abs() < 1e-9);
        assert!((fit.coeffs[1] - 2.0).abs() < 1e-9);
        assert_eq!(fit.coeffs[2], 0.0);
        assert!(fit.max_residual < 1e-9);
    }

    #[test]
    fn r_squared_degrades_with_noise() {
        let clean: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 2.0 * i as f64)).collect();
        let noisy: Vec<(f64, f64)> = clean
            .iter()
            .enumerate()
            .map(|(i, (x, y))| (*x, y + if i % 2 == 0 { 15.0 } else { -15.0 }))
            .collect();
        let f_clean = linear_fit(&clean).unwrap();
        let f_noisy = linear_fit(&noisy).unwrap();
        assert!(f_clean.r_squared > f_noisy.r_squared);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn histogram_counts_every_sample() {
        let h = Histogram::build(&[10.0, 12.0, 480.0, 490.0, 495.0], 25.0, 525.0);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn underdetermined_fit_returns_none() {
        assert!(quadratic_fit(&[(0.0, 1.0), (1.0, 2.0)]).is_none());
        assert!(linear_fit(&[(0.0, 1.0)]).is_none());
    }

    proptest! {
        #[test]
        fn prop_linear_fit_recovers_random_lines(
            a in -100.0f64..100.0,
            b in -10.0f64..10.0,
        ) {
            let pts: Vec<(f64, f64)> = (0..20).map(|i| {
                let x = i as f64;
                (x, a + b * x)
            }).collect();
            let fit = linear_fit(&pts).unwrap();
            prop_assert!((fit.coeffs[0] - a).abs() < 1e-6);
            prop_assert!((fit.coeffs[1] - b).abs() < 1e-6);
        }

        #[test]
        fn prop_median_within_range(v in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let m = median(&v);
            let lo = v.iter().cloned().fold(f64::MAX, f64::min);
            let hi = v.iter().cloned().fold(f64::MIN, f64::max);
            prop_assert!(m >= lo && m <= hi);
        }

        #[test]
        fn prop_histogram_conserves_samples(
            v in proptest::collection::vec(0.0f64..1000.0, 0..200)
        ) {
            let h = Histogram::build(&v, 50.0, 600.0);
            prop_assert_eq!(h.total(), v.len());
        }
    }
}
