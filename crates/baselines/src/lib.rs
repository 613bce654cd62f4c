//! # Baselines for the SBR evaluation
//!
//! Every comparator used in the SIGMOD 2004 evaluation, implemented from
//! scratch (no external signal-processing crates):
//!
//! * [`wavelet`] — Haar wavelet decomposition with largest-coefficient
//!   thresholding (the synopsis technique of Chakrabarti et al. / Vitter &
//!   Wang the paper compares against),
//! * [`dct`] — the Discrete Cosine Transform (orthonormal DCT-II/III) with
//!   an `O(n log n)` FFT fast path,
//! * [`fourier`] — the Discrete Fourier Transform (kept, as in the paper,
//!   mainly to confirm it trails DCT),
//! * [`histogram`] — piecewise-constant bucket approximations (equi-depth,
//!   equi-width, max-diff),
//! * [`linreg`] — plain piecewise linear regression with the same recursive
//!   splitting as SBR but no base signal,
//! * [`svd`] — a cyclic-Jacobi symmetric eigensolver powering
//!   `GetBaseSVD()` (appendix of the paper),
//! * [`dct_base`] — the cosine base signal `GetBaseDCT()` (appendix),
//! * [`fft`] — the complex FFT kernel (radix-2 + Bluestein) behind the
//!   DCT and DFT fast paths.
//!
//! All methods implement the [`Compressor`] trait so the benchmark harness
//! can sweep them uniformly under the paper's equal-space convention (§5.1):
//! a transform coefficient or histogram bucket costs **2** values
//! (index/boundary + value), an SBR interval costs 4, a plain-regression
//! interval costs 3, an inserted base interval costs `W + 1`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod dct;
pub mod dct_base;
pub mod fft;
pub mod fourier;
pub mod histogram;
pub mod linreg;
pub mod quadreg;
pub mod svd;
pub mod swing;
pub mod v_optimal;
pub mod wavelet;
pub mod wavelet2d;

use sbr_core::MultiSeries;

pub(crate) const SQRT2_INV: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// A lossy compressor operating under a bandwidth budget expressed in
/// *values*, the paper's equal-space convention.
pub trait Compressor {
    /// Short human-readable name for report rows.
    fn name(&self) -> &'static str;

    /// Compress `data` to at most `budget_values` values and return the
    /// reconstruction of the concatenated series.
    fn compress_reconstruct(&self, data: &MultiSeries, budget_values: usize) -> Vec<f64>;
}

/// How a transform/bucket method distributes its budget over the `N` input
/// signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// Treat the batch as one concatenated series and pick the globally
    /// best coefficients — the variant the paper found strongest for
    /// Wavelets ("some signals needed more coefficients than others").
    Concatenated,
    /// Split the budget equally among the `N` signals.
    PerSignal,
}

/// Helper shared by the transform baselines: run `f` either once over the
/// concatenated series or once per signal with an equal budget split.
pub(crate) fn allocate(
    alloc: Allocation,
    data: &MultiSeries,
    budget_values: usize,
    mut f: impl FnMut(&[f64], usize) -> Vec<f64>,
) -> Vec<f64> {
    match alloc {
        Allocation::Concatenated => f(data.flat(), budget_values),
        Allocation::PerSignal => {
            let per = budget_values / data.n_signals();
            let mut out = Vec::with_capacity(data.len());
            for row in data.rows() {
                out.extend(f(row, per));
            }
            out
        }
    }
}
