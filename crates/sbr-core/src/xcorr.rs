//! Shift-sweep dot products for `BestMap` (Algorithm 2).
//!
//! `BestMap` needs `Σ x[s+i]·y[i]` for every admissible shift `s` of a
//! data window over the base signal — a direct `O(B·len)` scan per interval
//! (`B` = base-signal length). [`dot`] fixes the summation order every
//! fit of a shift must reproduce, and [`dot_block`] evaluates
//! [`DOT_BLOCK`] consecutive shifts at once in that same order, so the
//! blocked sweep selects bit-identically to the one-shift-at-a-time scan.
//! [`dot_block`] is compiled into both builds of that sweep, the portable
//! one (two f64 lanes per SSE2 register) and the AVX2 one `best_map`
//! selects at run time (four per AVX2 register), with the same bits.

/// `Σ x_i·y_i` over two equal-length slices (the summation order every
/// shift fit reproduces, blocked or not).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = 0.0;
    for (xi, yi) in x.iter().zip(y) {
        acc += xi * yi;
    }
    acc
}

/// Shifts evaluated per block by [`dot_block`]: sixteen independent
/// accumulator chains hide the add latency of one serial dot, and the
/// block's stretch of `x` is loaded once for all sixteen shifts.
pub const DOT_BLOCK: usize = 16;

/// Evaluate [`DOT_BLOCK`] *consecutive* shifts of `y` over `x` at once:
/// `out[b] = Σ_i x[b + i]·y[i]` for `b` in `0..DOT_BLOCK`.
///
/// Requires `x.len() == y.len() + DOT_BLOCK - 1` (the block's last shift
/// ends exactly at `x`'s end). Each accumulator `out[b]` adds the products
/// `x[b+i]·y[i]` in ascending `i` — the summation order of [`dot`] — so
/// every lane is **bit-identical** to the scalar `dot(&x[b..b+len], y)`.
/// Rust never contracts a multiply and an add into a fused multiply-add,
/// so each product is rounded before it is added, in every lane and in
/// [`dot`] alike. The win is instruction-level: one serial dot is a
/// latency-bound chain of dependent adds, while the block's independent
/// chains run as straight-line packed mul-adds over contiguous `x` loads
/// with a broadcast `y`.
///
/// `#[inline(always)]` so the block compiles inside whichever build of the
/// shift sweep calls it: two f64 lanes per SSE2 register in the portable
/// build, four per AVX2 register in the build `best_map` selects at run
/// time on CPUs that have AVX2. Packed IEEE multiplies and adds round
/// each lane exactly as the scalar instructions do, so both builds give
/// the same bits.
#[inline(always)]
pub fn dot_block(x: &[f64], y: &[f64], out: &mut [f64; DOT_BLOCK]) {
    debug_assert_eq!(x.len(), y.len() + DOT_BLOCK - 1);
    *out = [0.0; DOT_BLOCK];
    for (i, &yi) in y.iter().enumerate() {
        let xw = &x[i..i + DOT_BLOCK];
        for b in 0..DOT_BLOCK {
            out[b] += xw[b] * yi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize, seed: u64) -> Vec<f64> {
        // Cheap deterministic pseudo-noise, no RNG dependency.
        (0..n)
            .map(|i| {
                let t = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                ((t >> 33) as f64 / (1u64 << 31) as f64) - 0.5 + (i as f64 * 0.13).sin()
            })
            .collect()
    }

    #[test]
    fn dot_block_lanes_are_bit_identical_to_scalar_dot() {
        // The blocked sweep replaces per-shift scalar dots; every lane must
        // reproduce the scalar accumulation bit for bit, including awkward
        // magnitudes where a different summation order would round away.
        for (len, seed) in [(1usize, 5u64), (7, 6), (64, 7), (143, 8)] {
            let x = signal(len + DOT_BLOCK - 1, seed);
            let y: Vec<f64> = signal(len, seed + 100)
                .into_iter()
                .enumerate()
                .map(|(i, v)| v * 10f64.powi((i % 7) as i32 - 3))
                .collect();
            let mut out = [0.0; DOT_BLOCK];
            dot_block(&x, &y, &mut out);
            for (b, &v) in out.iter().enumerate() {
                let exact = dot(&x[b..b + len], &y);
                assert_eq!(
                    v.to_bits(),
                    exact.to_bits(),
                    "lane {b} of len {len} diverged from scalar dot"
                );
            }
        }
    }
}
