//! Error metrics supported by the framework.
//!
//! The paper's `Regression()` subroutine minimizes the sum of squared errors;
//! §4.5 and the companion technical report describe drop-in replacements for
//! the sum squared *relative* error and the maximum absolute error. The
//! chosen metric changes three things, all captured here:
//!
//! 1. which regression fit is optimal for a `(segment, interval)` pair
//!    (see [`crate::regression`]),
//! 2. how per-interval errors combine into a batch error (sum vs. max),
//! 3. how a reconstruction is scored against the original.

/// The error metric an encoder optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ErrorMetric {
    /// Sum of squared errors `Σ (y_i - ŷ_i)²` — the paper's default.
    #[default]
    Sse,
    /// Sum of squared relative errors `Σ ((y_i - ŷ_i) / max(|y_i|, sanity))²`.
    ///
    /// The *sanity bound* guards against division by values near zero, the
    /// standard convention in the approximate-query literature the paper
    /// builds on.
    RelativeSse {
        /// Lower clamp on `|y_i|` used as the denominator.
        sanity: f64,
    },
    /// Maximum absolute error `max |y_i - ŷ_i|` (minimax / Chebyshev fit).
    MaxAbs,
}

impl ErrorMetric {
    /// A relative-error metric with the sanity bound used throughout the
    /// paper's experiments (values below 1 are clamped).
    pub const fn relative() -> Self {
        ErrorMetric::RelativeSse { sanity: 1.0 }
    }

    /// Combine two already-computed interval errors into a batch error.
    #[inline]
    pub fn combine(self, acc: f64, err: f64) -> f64 {
        match self {
            ErrorMetric::Sse | ErrorMetric::RelativeSse { .. } => acc + err,
            ErrorMetric::MaxAbs => acc.max(err),
        }
    }

    /// Identity element for [`ErrorMetric::combine`].
    #[inline]
    pub fn zero(self) -> f64 {
        0.0
    }

    /// Fold a slice of interval errors into a batch error.
    pub fn combine_all(self, errs: impl IntoIterator<Item = f64>) -> f64 {
        errs.into_iter()
            .fold(self.zero(), |acc, e| self.combine(acc, e))
    }

    /// Score a reconstruction `approx` against the original `exact`.
    ///
    /// This is the ground-truth scorer used by the evaluation harness; it
    /// does not depend on how the approximation was produced.
    pub fn score(self, exact: &[f64], approx: &[f64]) -> f64 {
        assert_eq!(
            exact.len(),
            approx.len(),
            "score: length mismatch ({} vs {})",
            exact.len(),
            approx.len()
        );
        match self {
            ErrorMetric::Sse => exact
                .iter()
                .zip(approx)
                .map(|(y, v)| {
                    let d = y - v;
                    d * d
                })
                .sum(),
            ErrorMetric::RelativeSse { sanity } => exact
                .iter()
                .zip(approx)
                .map(|(y, v)| {
                    let d = (y - v) / y.abs().max(sanity);
                    d * d
                })
                .sum(),
            ErrorMetric::MaxAbs => exact
                .iter()
                .zip(approx)
                .map(|(y, v)| (y - v).abs())
                .fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_sums_for_sse() {
        let m = ErrorMetric::Sse;
        assert_eq!(m.combine_all([1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn combine_maxes_for_maxabs() {
        let m = ErrorMetric::MaxAbs;
        assert_eq!(m.combine_all([1.0, 5.0, 3.0]), 5.0);
    }

    #[test]
    fn score_sse() {
        let m = ErrorMetric::Sse;
        assert_eq!(m.score(&[1.0, 2.0], &[1.0, 4.0]), 4.0);
    }

    #[test]
    fn score_relative_uses_sanity_clamp() {
        let m = ErrorMetric::RelativeSse { sanity: 1.0 };
        // |y| = 0.1 < sanity, so denominator is 1.0, not 0.1.
        assert!((m.score(&[0.1], &[0.6]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn score_relative_divides_by_magnitude() {
        let m = ErrorMetric::RelativeSse { sanity: 1.0 };
        // |y| = 10, error 5 → (5/10)² = 0.25
        assert!((m.score(&[10.0], &[5.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn score_maxabs() {
        let m = ErrorMetric::MaxAbs;
        assert_eq!(m.score(&[1.0, 2.0, 3.0], &[0.0, 5.0, 3.5]), 3.0);
    }

    #[test]
    fn perfect_reconstruction_scores_zero() {
        let y = [1.0, -2.0, 3.5];
        for m in [
            ErrorMetric::Sse,
            ErrorMetric::relative(),
            ErrorMetric::MaxAbs,
        ] {
            assert_eq!(m.score(&y, &y), 0.0);
        }
    }
}
