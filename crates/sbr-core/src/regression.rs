//! The `Regression()` subroutine (Algorithm 1) and its §4.5 variants.
//!
//! Given a base segment `x` and a data segment `y` of equal length, compute
//! the line `ŷ = a·x + b` that is optimal under the chosen
//! [`ErrorMetric`], together with the achieved error:
//!
//! * **SSE** — ordinary least squares (the paper's Algorithm 1),
//! * **relative SSE** — weighted least squares with weights
//!   `1 / max(|y_i|, sanity)²`,
//! * **max-abs** — the Chebyshev (minimax) line, computed exactly via the
//!   convex hull of `(x_i, y_i)`: the minimax line is parallel to the hull
//!   edge that minimizes the hull's vertical extent.
//!
//! The SSE path also exposes a *sufficient-statistics* form
//! ([`fit_sse_with_stats`]) so callers that slide a window over the base
//! signal (see [`crate::best_map`]) pay only one `Σ x·y` pass per shift; the
//! window's `Σx`, `Σx²`, `Σy`, `Σy²` come from prefix sums in O(1).

use crate::metric::ErrorMetric;

/// Result of fitting `ŷ = a·x + b` to a `(segment, interval)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Slope of the projection.
    pub a: f64,
    /// Intercept of the projection.
    pub b: f64,
    /// Error of the fit under the metric that produced it.
    pub err: f64,
}

impl Fit {
    /// A fit that is worse than any real fit; used to seed minimizations.
    pub const WORST: Fit = Fit {
        a: 0.0,
        b: 0.0,
        err: f64::INFINITY,
    };
}

/// Fit `ŷ = a·x + b` under `metric`. `x` and `y` must have equal, nonzero
/// length.
///
/// ```
/// use sbr_core::{regression, ErrorMetric};
/// let x = [0.0, 1.0, 2.0, 3.0];
/// let y = [1.0, 3.0, 5.0, 7.0]; // y = 2x + 1
/// let f = regression::fit(ErrorMetric::Sse, &x, &y);
/// assert!((f.a - 2.0).abs() < 1e-9 && (f.b - 1.0).abs() < 1e-9);
/// assert!(f.err < 1e-12);
/// ```
pub fn fit(metric: ErrorMetric, x: &[f64], y: &[f64]) -> Fit {
    debug_assert_eq!(x.len(), y.len());
    debug_assert!(!x.is_empty());
    match metric {
        ErrorMetric::Sse => fit_sse(x, y),
        ErrorMetric::RelativeSse { sanity } => fit_relative(x, y, sanity),
        ErrorMetric::MaxAbs => fit_maxabs(x, y),
    }
}

/// Fit against the time index (`x_i = i`), the paper's linear-regression
/// fall-back used when no base-signal segment correlates well (the interval
/// is then transmitted with `shift = -1`).
pub fn fit_linear(metric: ErrorMetric, y: &[f64]) -> Fit {
    match metric {
        ErrorMetric::Sse => fit_sse_index(y),
        _ => {
            // The index vector is tiny relative to everything else; build it
            // once per call for the exotic metrics.
            let x: Vec<f64> = (0..y.len()).map(|i| i as f64).collect();
            fit(metric, &x, y)
        }
    }
}

/// Evaluate the line `a·x + b` under `metric` without refitting.
pub fn eval(metric: ErrorMetric, a: f64, b: f64, x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = 0.0f64;
    match metric {
        ErrorMetric::Sse => {
            for (xi, yi) in x.iter().zip(y) {
                let d = yi - (a * xi + b);
                acc += d * d;
            }
        }
        ErrorMetric::RelativeSse { sanity } => {
            for (xi, yi) in x.iter().zip(y) {
                let d = (yi - (a * xi + b)) / yi.abs().max(sanity);
                acc += d * d;
            }
        }
        ErrorMetric::MaxAbs => {
            for (xi, yi) in x.iter().zip(y) {
                acc = acc.max((yi - (a * xi + b)).abs());
            }
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// SSE (ordinary least squares)
// ---------------------------------------------------------------------------

/// Ordinary least squares — Algorithm 1 of the paper.
pub fn fit_sse(x: &[f64], y: &[f64]) -> Fit {
    let len = x.len() as f64;
    let mut sum_x = 0.0;
    let mut sum_y = 0.0;
    let mut sum_xy = 0.0;
    let mut sum_x2 = 0.0;
    let mut sum_y2 = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        sum_x += xi;
        sum_y += yi;
        sum_xy += xi * yi;
        sum_x2 += xi * xi;
        sum_y2 += yi * yi;
    }
    fit_sse_from_sums(len, sum_x, sum_x2, sum_y, sum_y2, sum_xy)
}

/// OLS from precomputed window statistics.
///
/// `sum_x`, `sum_x2` describe the base window; `sum_y`, `sum_y2` the data
/// interval; `sum_xy` is the cross term for this particular alignment. The
/// returned SSE is closed form and clamped at zero against floating-point
/// cancellation.
#[inline]
pub fn fit_sse_with_stats(
    len: usize,
    sum_x: f64,
    sum_x2: f64,
    sum_y: f64,
    sum_y2: f64,
    sum_xy: f64,
) -> Fit {
    fit_sse_from_sums(len as f64, sum_x, sum_x2, sum_y, sum_y2, sum_xy)
}

#[inline]
fn fit_sse_from_sums(
    len: f64,
    sum_x: f64,
    sum_x2: f64,
    sum_y: f64,
    sum_y2: f64,
    sum_xy: f64,
) -> Fit {
    let s_xx = window_spread(len, sum_x, sum_x2);
    let s_yy = centred_sum_sq(len, sum_y, sum_y2);
    let (a, err) = sse_slope_err(len, sum_x, s_xx, sum_y, s_yy, sum_xy);
    // A flat base window fits the flat line at the data mean.
    // lint:allow(float-eq): window_spread returns exactly 0.0 for a flat window and never for another
    let b = if s_xx == 0.0 {
        sum_y / len
    } else {
        (sum_y - a * sum_x) / len
    };
    Fit { a, b, err }
}

/// Centred sum of squares `Σv² − (Σv)²/n` of a window with `Σv = sum`,
/// `Σv² = sum_sq` — numerically far better behaved than the raw normal
/// equations when the data is large in magnitude.
#[inline]
pub(crate) fn centred_sum_sq(len: f64, sum: f64, sum_sq: f64) -> f64 {
    sum_sq - sum * sum / len
}

/// The centred spread `S_xx` of a base window, or exactly `0.0` when the
/// window is (near-)constant: such a window carries no shape information
/// and the best line is flat at the data mean. A non-flat spread is never
/// `0.0`, so the zero doubles as the flat flag of [`sse_slope_err`].
#[inline]
pub(crate) fn window_spread(len: f64, sum_x: f64, sum_x2: f64) -> f64 {
    let s_xx = centred_sum_sq(len, sum_x, sum_x2);
    if s_xx.abs() <= f64::EPSILON * sum_x2.abs().max(1.0) {
        0.0
    } else {
        s_xx
    }
}

/// Slope and residual SSE of the least-squares line for one alignment,
/// from the base window's `Σx` and [`window_spread`] `s_xx`, the data's
/// `Σy` and centred `s_yy`, and the cross term `Σxy`. A flat window gets
/// slope 0 and residual `S_yy`; otherwise the residual is
/// `S_yy − S_xy²/S_xx`. Both are clamped at zero against floating-point
/// cancellation.
///
/// This is the whole per-shift cost of an SSE shift sweep once the
/// per-window terms are tabulated: one division for `S_xy`'s mean term and
/// one for the slope. [`fit_sse_with_stats`] goes through it too, so a
/// sweep that ranks shifts by this residual and fits only the winner picks
/// the same `(a, b, err)` bits.
///
/// Branch-free: both divisions always run and the flat case is a select
/// of the finished values, so a sweep's lanes evaluate it as packed
/// arithmetic. A flat window's quotient (`±∞` or NaN) is computed and
/// discarded; the selected values are exactly the ones a branch would
/// return. The select is `select_unpredictable`, not an `if`: from an
/// `if`, LLVM sinks the divisions into the non-flat arm and the sweep's
/// lane loop stays scalar.
#[inline(always)]
pub(crate) fn sse_slope_err(
    len: f64,
    sum_x: f64,
    s_xx: f64,
    sum_y: f64,
    s_yy: f64,
    sum_xy: f64,
) -> (f64, f64) {
    // lint:allow(float-eq): window_spread returns exactly 0.0 for a flat window and never for another
    let flat = s_xx == 0.0;
    let s_xy = sum_xy - sum_x * sum_y / len;
    let slope = s_xy / s_xx;
    let a = std::hint::select_unpredictable(flat, 0.0, slope);
    let err = std::hint::select_unpredictable(flat, s_yy, s_yy - a * s_xy);
    (a, err.max(0.0))
}

/// OLS against the index vector `0, 1, …, len-1` using the closed-form index
/// sums — avoids materializing the index vector in the fall-back hot path.
pub fn fit_sse_index(y: &[f64]) -> Fit {
    let n = y.len() as f64;
    // Σi and Σi² for i in 0..len.
    let sum_x = n * (n - 1.0) / 2.0;
    let sum_x2 = n * (n - 1.0) * (2.0 * n - 1.0) / 6.0;
    let mut sum_y = 0.0;
    let mut sum_y2 = 0.0;
    let mut sum_xy = 0.0;
    for (i, &yi) in y.iter().enumerate() {
        sum_y += yi;
        sum_y2 += yi * yi;
        sum_xy += i as f64 * yi;
    }
    fit_sse_from_sums(n, sum_x, sum_x2, sum_y, sum_y2, sum_xy)
}

// ---------------------------------------------------------------------------
// Relative SSE (weighted least squares)
// ---------------------------------------------------------------------------

/// Weighted least squares minimizing `Σ ((y - ŷ)/max(|y|, sanity))²`.
///
/// Runs in O(len) time and O(1) space, as claimed for the variant in the
/// paper's companion technical report.
pub fn fit_relative(x: &[f64], y: &[f64], sanity: f64) -> Fit {
    let mut sw = 0.0;
    let mut swx = 0.0;
    let mut swy = 0.0;
    let mut swxy = 0.0;
    let mut swx2 = 0.0;
    let mut swy2 = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let d = yi.abs().max(sanity);
        let w = 1.0 / (d * d);
        sw += w;
        swx += w * xi;
        swy += w * yi;
        swxy += w * xi * yi;
        swx2 += w * xi * xi;
        swy2 += w * yi * yi;
    }
    let denom = sw * swx2 - swx * swx;
    let (a, b) = if denom.abs() <= f64::EPSILON * sw * swx2.abs().max(1.0) {
        (0.0, swy / sw)
    } else {
        let a = (sw * swxy - swx * swy) / denom;
        (a, (swy - a * swx) / sw)
    };
    let err = swy2 - 2.0 * a * swxy - 2.0 * b * swy + a * a * swx2 + 2.0 * a * b * swx + b * b * sw;
    Fit {
        a,
        b,
        err: err.max(0.0),
    }
}

// ---------------------------------------------------------------------------
// Max-abs (Chebyshev / minimax line)
// ---------------------------------------------------------------------------

/// Exact minimax line fit: minimizes `max |y_i - (a·x_i + b)|`.
///
/// The optimal line is the center line of the two parallel lines of minimal
/// vertical separation enclosing the point set; its slope equals the slope of
/// some edge of the convex hull. We build both hulls (O(len log len) for the
/// sort) and, for each hull edge, find the farthest point on the opposite
/// hull.
pub fn fit_maxabs(x: &[f64], y: &[f64]) -> Fit {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    if n == 1 {
        return Fit {
            a: 0.0,
            b: y[0],
            err: 0.0,
        };
    }

    let mut pts: Vec<(f64, f64)> = x.iter().copied().zip(y.iter().copied()).collect();
    pts.sort_by(|p, q| p.0.total_cmp(&q.0).then(p.1.total_cmp(&q.1)));

    // Degenerate: all x identical → vertical stack of points.
    if pts[0].0 == pts[n - 1].0 {
        let (lo, hi) = (pts[0].1, pts[n - 1].1);
        return Fit {
            a: 0.0,
            b: (lo + hi) / 2.0,
            err: (hi - lo) / 2.0,
        };
    }

    let lower = half_hull(&pts, false);
    let upper = half_hull(&pts, true);

    let mut best = Fit::WORST;
    // Candidate slopes: every edge of either hull. For each, the max vertical
    // deviation over *all* hull vertices gives the enclosing-strip width.
    for hull in [&lower, &upper] {
        for e in hull.windows(2) {
            let (x0, y0) = e[0];
            let (x1, y1) = e[1];
            if x1 == x0 {
                continue;
            }
            let a = (y1 - y0) / (x1 - x0);
            // Offsets of all hull vertices from the line through (x0, y0).
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for h in [&lower, &upper] {
                for &(px, py) in h.iter() {
                    let off = py - (y0 + a * (px - x0));
                    lo = lo.min(off);
                    hi = hi.max(off);
                }
            }
            let width = hi - lo;
            if width / 2.0 < best.err {
                best = Fit {
                    a,
                    b: y0 - a * x0 + (lo + hi) / 2.0,
                    err: width / 2.0,
                };
            }
        }
    }
    best
}

/// Monotone-chain half hull over points already sorted by `x` (then `y`).
fn half_hull(pts: &[(f64, f64)], upper: bool) -> Vec<(f64, f64)> {
    let mut hull: Vec<(f64, f64)> = Vec::with_capacity(16);
    let sign = if upper { -1.0 } else { 1.0 };
    for &p in pts {
        while hull.len() >= 2 {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            let cross = (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0);
            if sign * cross <= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(p);
    }
    hull
}

/// Prefix sums of a signal and its squares; gives any window's `Σx`, `Σx²`
/// in O(1). Index convention: `sum(i..j) = pre[j] - pre[i]`.
#[derive(Debug, Clone, Default)]
pub struct PrefixStats {
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
}

impl PrefixStats {
    /// Build prefix sums over `values`.
    pub fn new(values: &[f64]) -> Self {
        let mut sum = Vec::with_capacity(values.len() + 1);
        let mut sum_sq = Vec::with_capacity(values.len() + 1);
        sum.push(0.0);
        sum_sq.push(0.0);
        let (mut s, mut s2) = (0.0f64, 0.0f64);
        for &v in values {
            s += v;
            s2 += v * v;
            sum.push(s);
            sum_sq.push(s2);
        }
        PrefixStats { sum, sum_sq }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sum.len() - 1
    }

    /// True when built over an empty signal.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Σ x_i` for `i` in `[start, start+len)`.
    #[inline]
    pub fn window_sum(&self, start: usize, len: usize) -> f64 {
        self.sum[start + len] - self.sum[start]
    }

    /// `Σ x_i²` for `i` in `[start, start+len)`.
    #[inline]
    pub fn window_sum_sq(&self, start: usize, len: usize) -> f64 {
        self.sum_sq[start + len] - self.sum_sq[start]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn sse_recovers_exact_line() {
        let x: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.5 * v - 7.0).collect();
        let f = fit_sse(&x, &y);
        assert_close(f.a, 2.5, 1e-9);
        assert_close(f.b, -7.0, 1e-9);
        assert_close(f.err, 0.0, 1e-6);
    }

    #[test]
    fn sse_constant_x_falls_back_to_mean() {
        let x = [3.0; 8];
        let y = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let f = fit_sse(&x, &y);
        assert_eq!(f.a, 0.0);
        assert_close(f.b, 4.5, 1e-12);
    }

    #[test]
    fn sse_matches_naive_eval() {
        let x = [1.0, 2.0, 4.0, 8.0, 16.0, 3.0];
        let y = [2.0, 3.0, 9.0, 15.0, 30.0, 8.0];
        let f = fit_sse(&x, &y);
        let direct = eval(ErrorMetric::Sse, f.a, f.b, &x, &y);
        assert_close(f.err, direct, 1e-9);
    }

    #[test]
    fn sse_index_matches_general() {
        let y = [5.0, 4.0, 8.0, 1.0, 0.0, 2.0, 9.0];
        let x: Vec<f64> = (0..y.len()).map(|i| i as f64).collect();
        let f1 = fit_sse_index(&y);
        let f2 = fit_sse(&x, &y);
        assert_close(f1.a, f2.a, 1e-9);
        assert_close(f1.b, f2.b, 1e-9);
        assert_close(f1.err, f2.err, 1e-9);
    }

    #[test]
    fn relative_weights_small_values_more() {
        // One large-magnitude outlier: the relative fit should track the
        // small values more closely than the SSE fit does.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 2.0, 3.0, 4.0, 500.0];
        let rel = fit_relative(&x, &y, 1.0);
        let sse = fit_sse(&x, &y);
        let rel_small = (y[0] - (rel.a * x[0] + rel.b)).abs();
        let sse_small = (y[0] - (sse.a * x[0] + sse.b)).abs();
        assert!(rel_small < sse_small);
    }

    #[test]
    fn relative_exact_line_zero_error() {
        let x: Vec<f64> = (1..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| -1.5 * v + 100.0).collect();
        let f = fit_relative(&x, &y, 1.0);
        assert_close(f.err, 0.0, 1e-9);
    }

    #[test]
    fn maxabs_exact_line_zero_error() {
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 0.5 * v + 3.0).collect();
        let f = fit_maxabs(&x, &y);
        assert_close(f.err, 0.0, 1e-9);
        assert_close(f.a, 0.5, 1e-9);
    }

    #[test]
    fn maxabs_symmetric_spikes() {
        // Zig-zag between 0 and 1, symmetric in x: the minimax line is the
        // horizontal mid-line y = 0.5 with error exactly 0.5.
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y = [0.0, 1.0, 0.0, 1.0, 0.0];
        let f = fit_maxabs(&x, &y);
        assert_close(f.err, 0.5, 1e-9);
        assert_close(f.a, 0.0, 1e-9);
        assert_close(f.b, 0.5, 1e-9);
    }

    #[test]
    fn maxabs_never_worse_than_sse_line_on_max_metric() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let cheb = fit_maxabs(&x, &y);
        let ols = fit_sse(&x, &y);
        let cheb_max = eval(ErrorMetric::MaxAbs, cheb.a, cheb.b, &x, &y);
        let ols_max = eval(ErrorMetric::MaxAbs, ols.a, ols.b, &x, &y);
        assert!(cheb_max <= ols_max + 1e-9);
        assert_close(cheb.err, cheb_max, 1e-9);
    }

    #[test]
    fn maxabs_single_point() {
        let f = fit_maxabs(&[2.0], &[7.0]);
        assert_eq!(f.err, 0.0);
        assert_eq!(f.b, 7.0);
    }

    #[test]
    fn maxabs_vertical_stack() {
        let f = fit_maxabs(&[1.0, 1.0, 1.0], &[0.0, 4.0, 10.0]);
        assert_close(f.err, 5.0, 1e-12);
        assert_close(f.b, 5.0, 1e-12);
    }

    #[test]
    fn prefix_stats_windows() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let p = PrefixStats::new(&v);
        assert_eq!(p.len(), 4);
        assert_close(p.window_sum(1, 2), 5.0, 1e-12);
        assert_close(p.window_sum_sq(0, 4), 30.0, 1e-12);
        assert_close(p.window_sum(4, 0), 0.0, 1e-12);
    }

    #[test]
    fn stats_form_matches_direct_form() {
        let x = [0.5, 1.5, -2.0, 3.0, 0.0, 1.0];
        let y = [1.0, 4.0, -3.0, 7.0, 0.5, 2.0];
        let direct = fit_sse(&x, &y);
        let px = PrefixStats::new(&x);
        let py = PrefixStats::new(&y);
        let sum_xy: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let via_stats = fit_sse_with_stats(
            x.len(),
            px.window_sum(0, x.len()),
            px.window_sum_sq(0, x.len()),
            py.window_sum(0, y.len()),
            py.window_sum_sq(0, y.len()),
            sum_xy,
        );
        assert_close(direct.a, via_stats.a, 1e-9);
        assert_close(direct.b, via_stats.b, 1e-9);
        assert_close(direct.err, via_stats.err, 1e-9);
    }

    #[test]
    fn fit_dispatches_by_metric() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 5.0, 7.0];
        for m in [
            ErrorMetric::Sse,
            ErrorMetric::relative(),
            ErrorMetric::MaxAbs,
        ] {
            let f = fit(m, &x, &y);
            assert_close(f.err, 0.0, 1e-9);
            assert_close(f.a, 2.0, 1e-9);
            assert_close(f.b, 1.0, 1e-9);
        }
    }
}
