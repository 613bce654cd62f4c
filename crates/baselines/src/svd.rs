//! `GetBaseSVD()` (paper appendix): build the base signal from the top
//! eigenvectors of `RᵀR`, where `R` stacks all `W`-wide candidate windows.
//!
//! The symmetric eigenproblem is solved from scratch with the cyclic Jacobi
//! rotation method — robust, simple, and `W ≈ √n` keeps the matrix small
//! (`143×143` for the paper's largest batches).

use sbr_core::config::{BaseBuilder, SbrConfig};
use sbr_core::get_base::candidate_intervals;
use sbr_core::{FitCache, MultiSeries};

/// A dense symmetric matrix in row-major order.
#[derive(Debug, Clone)]
pub struct SymMatrix {
    n: usize,
    a: Vec<f64>,
}

impl SymMatrix {
    /// Build `RᵀR` from rows of length `n`.
    pub fn gram(rows: &[&[f64]], n: usize) -> Self {
        let mut a = vec![0.0f64; n * n];
        for r in rows {
            debug_assert_eq!(r.len(), n);
            for i in 0..n {
                let ri = r[i];
                for j in i..n {
                    a[i * n + j] += ri * r[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                a[i * n + j] = a[j * n + i];
            }
        }
        SymMatrix { n, a }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Entry accessor (for tests).
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }
}

/// Eigen-decomposition of a symmetric matrix: eigenvalues (descending) and
/// the matching eigenvectors as rows.
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues, largest first.
    pub values: Vec<f64>,
    /// `vectors[k]` is the unit eigenvector for `values[k]`.
    pub vectors: Vec<Vec<f64>>,
}

/// Cyclic Jacobi eigensolver. Converges quadratically; `max_sweeps` bounds
/// the work on pathological inputs (30 sweeps is far beyond what any real
/// matrix here needs).
pub fn jacobi_eigen(m: &SymMatrix, max_sweeps: usize) -> Eigen {
    let n = m.n;
    let mut a = m.a.clone();
    // v starts as identity; accumulates rotations column-wise so that
    // column k of v is the eigenvector of eigenvalue a[k][k].
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    let off = |a: &[f64]| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                s += a[i * n + j] * a[i * n + j];
            }
        }
        s
    };
    let scale: f64 = (0..n)
        .map(|i| m.at(i, i).abs())
        .fold(0.0, f64::max)
        .max(1.0);
    let tol = 1e-24 * scale * scale * (n * n) as f64;

    for _ in 0..max_sweeps {
        if off(&a) <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p * n + q];
                if apq.abs() <= f64::MIN_POSITIVE {
                    continue;
                }
                let app = a[p * n + p];
                let aqq = a[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/columns p and q of `a`.
                for k in 0..n {
                    let akp = a[k * n + p];
                    let akq = a[k * n + q];
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p * n + k];
                    let aqk = a[q * n + k];
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
                // Accumulate the rotation into v.
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| a[j * n + j].total_cmp(&a[i * n + i]));
    Eigen {
        values: order.iter().map(|&k| a[k * n + k]).collect(),
        vectors: order
            .iter()
            .map(|&k| (0..n).map(|i| v[i * n + k]).collect())
            .collect(),
    }
}

/// `GetBaseSVD()`: the top `max_ins` eigenvectors of the candidate-window
/// Gram matrix, each a `W`-wide base interval.
pub fn get_base_svd(data: &MultiSeries, w: usize, max_ins: usize) -> Vec<Vec<f64>> {
    let windows = candidate_intervals(data, w);
    if windows.is_empty() || max_ins == 0 {
        return Vec::new();
    }
    let gram = SymMatrix::gram(&windows, w);
    let eig = jacobi_eigen(&gram, 30);
    eig.vectors.into_iter().take(max_ins.min(w)).collect()
}

/// [`BaseBuilder`] adapter so an `SbrEncoder` can run with the SVD base.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvdBaseBuilder;

impl BaseBuilder for SvdBaseBuilder {
    fn build(
        &self,
        data: &MultiSeries,
        w: usize,
        max_ins: usize,
        _config: &SbrConfig,
        _cache: &mut FitCache,
    ) -> Vec<Vec<f64>> {
        get_base_svd(data, w, max_ins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(rows: &[Vec<f64>]) -> MultiSeries {
        MultiSeries::from_rows(rows).unwrap()
    }

    #[test]
    fn jacobi_solves_known_2x2() {
        // [[2, 1], [1, 2]] → eigenvalues 3, 1.
        let m = SymMatrix {
            n: 2,
            a: vec![2.0, 1.0, 1.0, 2.0],
        };
        let e = jacobi_eigen(&m, 30);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        // Eigenvector of 3 is (1,1)/√2 up to sign.
        let v = &e.vectors[0];
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v[0] - v[1]).abs() < 1e-10);
    }

    #[test]
    fn eigen_relation_holds() {
        // A·v = λ·v for a Gram matrix of pseudo-random rows.
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|r| {
                (0..5)
                    .map(|i| ((r * 7 + i * 3) % 11) as f64 - 5.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let m = SymMatrix::gram(&refs, 5);
        let e = jacobi_eigen(&m, 40);
        for (lam, v) in e.values.iter().zip(&e.vectors) {
            for i in 0..5 {
                let av: f64 = (0..5).map(|j| m.at(i, j) * v[j]).sum();
                assert!((av - lam * v[i]).abs() < 1e-7 * lam.abs().max(1.0));
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|r| (0..6).map(|i| ((i + r) as f64 * 0.7).sin()).collect())
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let e = jacobi_eigen(&SymMatrix::gram(&refs, 6), 40);
        for i in 0..6 {
            for j in i..6 {
                let dot: f64 = e.vectors[i]
                    .iter()
                    .zip(&e.vectors[j])
                    .map(|(a, b)| a * b)
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-9, "({i},{j}) dot = {dot}");
            }
        }
    }

    #[test]
    fn gram_eigenvalues_nonnegative() {
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|r| (0..4).map(|i| (r as f64 - i as f64) * 0.3).collect())
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let e = jacobi_eigen(&SymMatrix::gram(&refs, 4), 40);
        for lam in e.values {
            assert!(lam >= -1e-9);
        }
    }

    #[test]
    fn rank_one_data_needs_one_eigenvector() {
        // All windows are multiples of one pattern → the top eigenvector
        // explains everything.
        let p = [1.0, -2.0, 3.0, 0.5];
        let mut row = Vec::new();
        for s in 1..=4 {
            row.extend(p.iter().map(|v| v * s as f64));
        }
        let data = ms(&[row]);
        let base = get_base_svd(&data, 4, 2);
        let f = sbr_core::regression::fit_sse(&base[0], &p);
        assert!(f.err < 1e-9, "top eigenvector must explain the pattern");
    }

    #[test]
    fn respects_max_ins_and_dimension() {
        let data = ms(&[(0..32).map(|i| (i as f64).sin()).collect()]);
        assert_eq!(get_base_svd(&data, 8, 3).len(), 3);
        assert_eq!(get_base_svd(&data, 8, 100).len(), 8); // ≤ W vectors exist
        assert!(get_base_svd(&data, 8, 0).is_empty());
    }
}
