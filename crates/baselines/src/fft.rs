//! Complex FFT kernel: iterative radix-2 for power-of-two lengths plus
//! Bluestein's chirp-z algorithm for arbitrary lengths, giving every
//! transform baseline an `O(n log n)` path regardless of the dataset's
//! chunk sizes (2048, 2560, 3072, 4096, 5120 in the paper's experiments).

use std::ops::{Add, Mul, Sub};

/// A complex number; deliberately minimal — only what the transforms need.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Scale by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}
impl Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}
impl Mul for Complex {
    type Output = Complex;
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// In-place forward FFT (`X_k = Σ x_j e^{-2πi jk / n}`). Length must be a
/// power of two.
pub fn fft_pow2(buf: &mut [Complex]) {
    let n = buf.len();
    assert!(
        n.is_power_of_two(),
        "fft_pow2 requires a power-of-two length"
    );
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let shift = n.leading_zeros() + 1;
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if i < j {
            buf.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        for chunk in buf.chunks_mut(len) {
            let mut w = Complex::new(1.0, 0.0);
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// In-place inverse FFT for power-of-two lengths (includes the `1/n`
/// normalization).
pub fn ifft_pow2(buf: &mut [Complex]) {
    for c in buf.iter_mut() {
        *c = c.conj();
    }
    fft_pow2(buf);
    let inv = 1.0 / buf.len() as f64;
    for c in buf.iter_mut() {
        *c = c.conj().scale(inv);
    }
}

/// Forward DFT of arbitrary length via Bluestein's algorithm:
/// `X_k = Σ x_j e^{-2πi jk / n}` computed as a circular convolution of two
/// chirp sequences carried out with power-of-two FFTs.
pub fn dft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if n.is_power_of_two() {
        let mut buf = input.to_vec();
        fft_pow2(&mut buf);
        return buf;
    }
    // Chirp: w_j = e^{-πi j²/n}. Use j² mod 2n to keep the argument small
    // and the chirp exactly periodic.
    let m = (2 * n - 1).next_power_of_two();
    let chirp: Vec<Complex> = (0..n)
        .map(|j| {
            let jj = (j * j) % (2 * n);
            Complex::cis(-std::f64::consts::PI * jj as f64 / n as f64)
        })
        .collect();
    let mut a = vec![Complex::default(); m];
    for j in 0..n {
        a[j] = input[j] * chirp[j];
    }
    let mut b = vec![Complex::default(); m];
    b[0] = chirp[0].conj();
    for j in 1..n {
        let c = chirp[j].conj();
        b[j] = c;
        b[m - j] = c;
    }
    fft_pow2(&mut a);
    fft_pow2(&mut b);
    for (x, y) in a.iter_mut().zip(&b) {
        *x = *x * *y;
    }
    ifft_pow2(&mut a);
    (0..n).map(|k| a[k] * chirp[k]).collect()
}

/// Inverse DFT of arbitrary length (with `1/n` normalization).
pub fn idft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let conj: Vec<Complex> = input.iter().map(|c| c.conj()).collect();
    let inv = 1.0 / n as f64;
    dft(&conj)
        .into_iter()
        .map(|c| c.conj().scale(inv))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::default();
                for (j, &v) in x.iter().enumerate() {
                    let w = Complex::cis(-2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64);
                    acc = acc + v * w;
                }
                acc
            })
            .collect()
    }

    fn signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                Complex::new(
                    (i as f64 * 0.37).sin() + 0.2 * i as f64,
                    (i as f64 * 0.11).cos(),
                )
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn pow2_matches_naive() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = signal(n);
            let mut fast = x.clone();
            fft_pow2(&mut fast);
            assert_close(&fast, &naive_dft(&x), 1e-8);
        }
    }

    #[test]
    fn bluestein_matches_naive() {
        for n in [3usize, 5, 6, 7, 12, 20, 45, 100] {
            let x = signal(n);
            assert_close(&dft(&x), &naive_dft(&x), 1e-7);
        }
    }

    #[test]
    fn roundtrip_arbitrary_lengths() {
        for n in [1usize, 2, 3, 17, 32, 100, 160] {
            let x = signal(n);
            let back = idft(&dft(&x));
            assert_close(&back, &x, 1e-9);
        }
    }

    #[test]
    fn parseval_holds() {
        let x = signal(96);
        let freq = dft(&x);
        let t_energy: f64 = x.iter().map(|c| c.norm_sq()).sum();
        let f_energy: f64 = freq.iter().map(|c| c.norm_sq()).sum::<f64>() / 96.0;
        assert!((t_energy - f_energy).abs() < 1e-7 * t_energy);
    }

    #[test]
    fn impulse_is_flat_spectrum() {
        let mut x = vec![Complex::default(); 15];
        x[0] = Complex::new(1.0, 0.0);
        for c in dft(&x) {
            assert!((c.re - 1.0).abs() < 1e-10 && c.im.abs() < 1e-10);
        }
    }
}
