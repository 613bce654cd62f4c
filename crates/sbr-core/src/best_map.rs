//! `BestMap` (Algorithm 2): find the best approximation for one data
//! interval — either a shifted base-signal segment or the linear fall-back.

use crate::config::SbrConfig;
use crate::interval::{Interval, LINEAR_FALLBACK_SHIFT};
use crate::metric::ErrorMetric;
use crate::obs::EncodeObs;
use crate::regression::{self, PrefixStats};
use crate::xcorr;

use std::cell::OnceCell;

/// `BestMap` only shifts intervals no longer than this multiple of `W`
/// over the base signal; longer ones take the linear fall-back (2 in the
/// paper).
pub const MAX_SHIFT_LEN_FACTOR: usize = 2;

/// Which stretch of the concatenated dictionary a region-restricted sweep
/// covers — only used to attribute the sweep to the right observability
/// counter (the fit itself is region-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepRegion {
    /// Shifts landing fully inside the shared base prefix.
    Base,
    /// Shifts whose window touches one appended candidate.
    Candidate,
}

/// The per-shift terms of an SSE fit that depend on the base window alone.
#[derive(Debug, Clone, Copy)]
struct WindowStat {
    /// `Σx` over the window.
    sum_x: f64,
    /// The window's [`regression::window_spread`]: centred `S_xx`, or `0.0`
    /// for a flat window.
    s_xx: f64,
}

/// Shared read-only context for repeated `BestMap` calls against one base
/// signal and one data batch: the prefix statistics that make the SSE shift
/// loop cost a single `Σ x·y` pass per position.
pub struct MapContext<'a> {
    /// Flat base signal `X`.
    pub x: &'a [f64],
    /// Prefix sums over `X`.
    pub x_stats: PrefixStats,
    /// Concatenated data `Y`.
    pub y: &'a [f64],
    /// Prefix sums over `Y`.
    pub y_stats: PrefixStats,
    /// Effective configuration.
    pub metric: ErrorMetric,
    /// Whether the linear-regression fall-back competes with base mappings.
    pub allow_linear_fallback: bool,
    /// Intervals longer than `max_shift_len` (`MAX_SHIFT_LEN_FACTOR × W`)
    /// are never shifted over `X`. Fixed at construction: the
    /// window-statistics tables are sized by it.
    pub(crate) max_shift_len: usize,
    /// Observability handles (cloned from the configuration); counts
    /// fits and sweeps. Never affects the fit itself.
    pub obs: EncodeObs,
    /// `window_stats[len - 1]`: every shift's [`WindowStat`] for windows of
    /// `len` values, built by the first SSE sweep of that length and shared
    /// by every later fit against this context.
    window_stats: Vec<OnceCell<Box<[WindowStat]>>>,
    /// `X` followed by `DOT_BLOCK − 1` zeros, so every block of a sweep —
    /// its last one too — reads a whole block's stretch. Lanes that reach
    /// into the zeros lie past the sweep's last shift and are never read.
    x_padded: Vec<f64>,
}

impl<'a> MapContext<'a> {
    /// Build a context from the configuration and the derived width `w`.
    pub fn new(x: &'a [f64], y: &'a [f64], config: &SbrConfig, w: usize) -> Self {
        let max_shift_len = MAX_SHIFT_LEN_FACTOR.saturating_mul(w);
        MapContext {
            x,
            x_stats: PrefixStats::new(x),
            y,
            y_stats: PrefixStats::new(y),
            metric: config.metric,
            allow_linear_fallback: config.allow_linear_fallback,
            max_shift_len,
            obs: config.obs.clone(),
            window_stats: (0..max_shift_len.min(x.len()))
                .map(|_| OnceCell::new())
                .collect(),
            x_padded: x
                .iter()
                .copied()
                .chain([0.0; xcorr::DOT_BLOCK - 1])
                .collect(),
        }
    }

    /// Fit `interval` (its `start`/`length` must already be set): try the
    /// linear fall-back (if enabled) and every admissible shift over `X`,
    /// keeping whichever minimizes the metric error. Ties favour the
    /// earliest shift, matching the strict `<` of Algorithm 2.
    pub fn best_map(&self, interval: &mut Interval) {
        self.obs.best_map_calls.inc();
        let start = interval.start;
        let len = interval.length;
        debug_assert!(len > 0 && start + len <= self.y.len());
        let yw = &self.y[start..start + len];

        let shiftable = len <= self.max_shift_len && len <= self.x.len();

        // Fall-back fit. Also used unconditionally when no base segment is
        // admissible, so every interval always gets *some* finite fit.
        if self.allow_linear_fallback || !shiftable {
            let f = regression::fit_linear(self.metric, yw);
            interval.shift = LINEAR_FALLBACK_SHIFT;
            interval.a = f.a;
            interval.b = f.b;
            interval.err = f.err;
        } else {
            interval.err = f64::INFINITY;
        }

        if shiftable {
            match self.metric {
                ErrorMetric::Sse => self.shift_loop_sse(interval, yw),
                _ => self.shift_loop_general(interval, yw, 0, self.x.len() - len),
            }
        }

        if interval.is_fallback() {
            self.obs.fallback_wins.inc();
        } else {
            self.obs.base_wins.inc();
        }
    }

    /// Write the linear fall-back fit into `interval` unconditionally —
    /// the probe cache computes it once per `(start, len)` and seeds every
    /// probe's prefix-min fold with it, exactly as [`Self::best_map`] seeds
    /// its own sweep.
    pub fn fallback_fit(&self, interval: &mut Interval) {
        let yw = &self.y[interval.start..interval.start + interval.length];
        let f = regression::fit_linear(self.metric, yw);
        interval.shift = LINEAR_FALLBACK_SHIFT;
        interval.a = f.a;
        interval.b = f.b;
        interval.err = f.err;
    }

    /// Fold the shifts `lo..=hi` into `interval` with the same strict `<`
    /// (earliest shift wins ties) as the full sweep of [`Self::best_map`].
    ///
    /// This is the region-restricted primitive behind the `Search` probe
    /// cache: a probe's admissible shift range over `base ∥ c₁ ∥ … ∥ c_pos`
    /// partitions into the base-prefix region plus one region per appended
    /// candidate, and folding those regions in ascending order reproduces
    /// the continuous sweep bit for bit. `region` only selects which
    /// observability counter records the sweep.
    ///
    /// The caller guarantees `hi + interval.length <= self.x.len()`.
    pub fn fold_region(&self, interval: &mut Interval, lo: usize, hi: usize, region: SweepRegion) {
        debug_assert!(lo <= hi && hi + interval.length <= self.x.len());
        let yw = &self.y[interval.start..interval.start + interval.length];
        if self.metric != ErrorMetric::Sse {
            return self.shift_loop_general(interval, yw, lo, hi);
        }
        match region {
            SweepRegion::Base => self.obs.base_direct_sweeps.inc(),
            SweepRegion::Candidate => self.obs.cand_direct_sweeps.inc(),
        }
        self.shift_loop_sse_direct(interval, yw, lo, hi);
    }

    /// SSE fast path over the whole dictionary: window sums of `X` and `Y`
    /// come from prefix stats, so only `Σ x·y` varies per shift.
    fn shift_loop_sse(&self, interval: &mut Interval, yw: &[f64]) {
        self.obs.direct_sweeps.inc();
        self.shift_loop_sse_direct(interval, yw, 0, self.x.len() - interval.length);
    }

    /// Direct SSE sweep over shifts `lo..=hi`, evaluated in blocks of
    /// [`xcorr::DOT_BLOCK`] consecutive shifts, error first.
    ///
    /// `Σy` and the centred `S_yy` are hoisted once per sweep, and each
    /// shift's `Σx` and centred spread come from the per-length
    /// [`WindowStat`] table, so a shift costs its `Σ x·y` plus
    /// [`regression::sse_slope_err`]'s two divisions. [`sweep`] ranks the
    /// shifts by residual alone, and only the winner is fitted through
    /// [`regression::fit_sse_with_stats`], whose residual is computed by
    /// the same operations — so the selected `(shift, a, b, err)` is
    /// bit-identical to fitting every shift in turn.
    fn shift_loop_sse_direct(&self, interval: &mut Interval, yw: &[f64], lo: usize, hi: usize) {
        let len = interval.length;
        let n = len as f64;
        let sum_y = self.y_stats.window_sum(interval.start, len);
        let sum_y2 = self.y_stats.window_sum_sq(interval.start, len);
        let inputs = SweepInputs {
            x_padded: &self.x_padded,
            stats: self.window_stats(len),
            yw,
            n,
            sum_y,
            s_yy: regression::centred_sum_sq(n, sum_y, sum_y2),
        };

        if let Some(w) = sweep(&inputs, lo, hi, interval.err) {
            let f = regression::fit_sse_with_stats(
                len,
                self.x_stats.window_sum(w.shift, len),
                self.x_stats.window_sum_sq(w.shift, len),
                sum_y,
                sum_y2,
                w.sum_xy,
            );
            debug_assert_eq!(f.err.to_bits(), w.err.to_bits());
            interval.shift = w.shift as i64;
            interval.a = f.a;
            interval.b = f.b;
            interval.err = f.err;
        }
    }

    /// The [`WindowStat`] of every shift of a `len`-long window over `X`,
    /// built on first use and kept for the life of the context. Like
    /// `x_padded`, the table ends in `DOT_BLOCK − 1` padding entries, so
    /// every block of a sweep reads a whole block's stats; the padding is
    /// a flat zero window whose lanes lie past the last shift and are
    /// never ranked.
    fn window_stats(&self, len: usize) -> &[WindowStat] {
        self.window_stats[len - 1].get_or_init(|| {
            let n = len as f64;
            let pad = WindowStat {
                sum_x: 0.0,
                s_xx: 0.0,
            };
            (0..=self.x.len() - len)
                .map(|shift| {
                    let sum_x = self.x_stats.window_sum(shift, len);
                    let sum_x2 = self.x_stats.window_sum_sq(shift, len);
                    WindowStat {
                        sum_x,
                        s_xx: regression::window_spread(n, sum_x, sum_x2),
                    }
                })
                .chain([pad; xcorr::DOT_BLOCK - 1])
                .collect()
        })
    }

    /// Approximate heap bytes of the window-statistics tables built so far.
    pub(crate) fn window_stats_bytes(&self) -> usize {
        self.window_stats.len() * std::mem::size_of::<OnceCell<Box<[WindowStat]>>>()
            + self
                .window_stats
                .iter()
                .filter_map(OnceCell::get)
                .map(|t| t.len() * std::mem::size_of::<WindowStat>())
                .sum::<usize>()
    }

    /// General path for the relative-SSE and max-abs metrics: full refit per
    /// shift (still `O(len)` each) over shifts `lo..=hi`.
    fn shift_loop_general(&self, interval: &mut Interval, yw: &[f64], lo: usize, hi: usize) {
        let len = interval.length;
        for shift in lo..=hi {
            let xw = &self.x[shift..shift + len];
            let f = regression::fit(self.metric, xw, yw);
            if f.err < interval.err {
                interval.shift = shift as i64;
                interval.a = f.a;
                interval.b = f.b;
                interval.err = f.err;
            }
        }
    }
}

/// One SSE sweep's inputs: everything but the shift range and the bound.
struct SweepInputs<'s> {
    /// `X` followed by `DOT_BLOCK − 1` zeros ([`MapContext`]'s `x_padded`).
    x_padded: &'s [f64],
    /// Every shift's [`WindowStat`] for this window length, padded like
    /// `x_padded`.
    stats: &'s [WindowStat],
    /// The data window being fitted.
    yw: &'s [f64],
    /// The window length as `f64`.
    n: f64,
    /// `Σy` over `yw`.
    sum_y: f64,
    /// Centred `S_yy` of `yw`.
    s_yy: f64,
}

/// The shift a sweep selects: its residual and its `Σ x·y`, the one term
/// the winner's fit needs that no table holds.
#[derive(Debug, Clone, Copy)]
struct SweepWinner {
    shift: usize,
    err: f64,
    sum_xy: f64,
}

/// The shift in `lo..=hi` with the lowest residual strictly below
/// `bound`, the earliest one on a tie, or `None` when no shift beats
/// `bound`.
///
/// Runs [`sweep_blocks`] as an AVX2 build on x86-64 CPUs that have AVX2
/// and as the portable build everywhere else. Both builds come from the
/// same source and enable no fused multiply-add, and packed IEEE
/// `mul`/`add`/`div`/`max` round each lane exactly as the scalar
/// instructions do, so the two return the same bits.
fn sweep(inputs: &SweepInputs<'_>, lo: usize, hi: usize, bound: f64) -> Option<SweepWinner> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        #[allow(unsafe_code)]
        // SAFETY: `sweep_blocks_avx2` requires only AVX2, the one feature it
        // enables, and the check just above found that this CPU has AVX2.
        let winner = unsafe { sweep_blocks_avx2(inputs, lo, hi, bound) };
        return winner;
    }
    sweep_blocks(inputs, lo, hi, bound)
}

/// [`sweep_blocks`] compiled with AVX2: four f64 lanes per register.
/// Only `"avx2"` is enabled — never `"fma"`, which would let the backend
/// fuse a lane's multiply and add and change its rounding.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_blocks_avx2(
    inputs: &SweepInputs<'_>,
    lo: usize,
    hi: usize,
    bound: f64,
) -> Option<SweepWinner> {
    sweep_blocks(inputs, lo, hi, bound)
}

/// The body of [`sweep`], inlined into each of its builds.
///
/// Each block of [`xcorr::DOT_BLOCK`] consecutive shifts takes two passes.
/// The first evaluates every lane's `Σ x·y` ([`xcorr::dot_block`], each in
/// the exact index order of the scalar [`xcorr::dot`]) and then every
/// lane's residual ([`regression::sse_slope_err`], branch-free), as
/// straight-line packed arithmetic. The second ranks the lanes in
/// ascending shift order with the strict `<` of Algorithm 2 (earliest
/// shift wins ties). The last block may run past `hi`; its lanes beyond
/// `hi` are computed on padding and never ranked.
#[inline(always)]
fn sweep_blocks(inputs: &SweepInputs<'_>, lo: usize, hi: usize, bound: f64) -> Option<SweepWinner> {
    const B: usize = xcorr::DOT_BLOCK;
    let len = inputs.yw.len();
    let mut best_err = bound;
    let mut winner = None;
    let mut dots = [0.0; B];
    let mut errs = [0.0; B];
    for shift in (lo..=hi).step_by(B) {
        xcorr::dot_block(
            &inputs.x_padded[shift..shift + len + B - 1],
            inputs.yw,
            &mut dots,
        );
        let stats = &inputs.stats[shift..shift + B];
        for b in 0..B {
            let (_, err) = regression::sse_slope_err(
                inputs.n,
                stats[b].sum_x,
                stats[b].s_xx,
                inputs.sum_y,
                inputs.s_yy,
                dots[b],
            );
            errs[b] = err;
        }
        for b in 0..B.min(hi + 1 - shift) {
            if errs[b] < best_err {
                best_err = errs[b];
                winner = Some(SweepWinner {
                    shift: shift + b,
                    err: errs[b],
                    sum_xy: dots[b],
                });
            }
        }
    }
    winner
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(x: &'a [f64], y: &'a [f64], w: usize) -> MapContext<'a> {
        let config = SbrConfig::new(1_000, 1_000);
        MapContext::new(x, y, &config, w)
    }

    #[test]
    fn finds_exact_projection() {
        // Y is an affine image of X[4..12].
        let x: Vec<f64> = (0..16).map(|i| ((i as f64) * 0.7).sin()).collect();
        let y: Vec<f64> = x[4..12].iter().map(|v| 2.0 * v - 1.0).collect();
        let c = ctx(&x, &y, 8);
        let mut i = Interval::unfitted(0, 8);
        c.best_map(&mut i);
        assert_eq!(i.shift, 4);
        assert!((i.a - 2.0).abs() < 1e-9);
        assert!((i.b + 1.0).abs() < 1e-9);
        assert!(i.err < 1e-12);
    }

    #[test]
    fn falls_back_when_base_uncorrelated() {
        // Y is a perfect line over its index; X is hostile noise-free but
        // uncorrelated (constant), so the fall-back must win.
        let x = vec![5.0; 16];
        let y: Vec<f64> = (0..8).map(|i| 3.0 * i as f64 + 1.0).collect();
        let c = ctx(&x, &y, 8);
        let mut i = Interval::unfitted(0, 8);
        c.best_map(&mut i);
        assert!(i.is_fallback());
        assert!(i.err < 1e-9);
    }

    #[test]
    fn long_intervals_are_not_shifted() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..50).map(|i| (i as f64).cos()).collect();
        let config = SbrConfig::new(1_000, 1_000);
        let mut c = MapContext::new(&x, &y, &config, 8);
        c.max_shift_len = 16; // 2 × W
        let mut i = Interval::unfitted(0, 50);
        c.best_map(&mut i);
        assert!(i.is_fallback(), "len 50 > 2W = 16 must use the fall-back");
    }

    #[test]
    fn empty_base_signal_uses_fallback_even_when_disabled() {
        let x: Vec<f64> = vec![];
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let config = SbrConfig::new(1_000, 1_000).without_fallback();
        let c = MapContext::new(&x, &y, &config, 2);
        let mut i = Interval::unfitted(0, 4);
        c.best_map(&mut i);
        assert!(i.is_fallback());
        assert!(i.err.is_finite());
    }

    #[test]
    fn disabled_fallback_forces_base_mapping() {
        let x = vec![5.0; 16]; // constant base: poor but usable
        let y: Vec<f64> = (0..8).map(|i| 3.0 * i as f64 + 1.0).collect();
        let config = SbrConfig::new(1_000, 1_000).without_fallback();
        let c = MapContext::new(&x, &y, &config, 8);
        let mut i = Interval::unfitted(0, 8);
        c.best_map(&mut i);
        assert!(!i.is_fallback());
        assert!(i.err > 1.0, "constant base cannot capture a ramp");
    }

    #[test]
    fn sse_path_agrees_with_general_path() {
        let x: Vec<f64> = (0..32).map(|i| ((i * i % 17) as f64) - 8.0).collect();
        let y: Vec<f64> = (0..10).map(|i| ((i * 3 % 11) as f64) * 1.5).collect();
        let c = ctx(&x, &y, 8);
        let mut fast = Interval::unfitted(0, 10);
        c.best_map(&mut fast);
        // Re-run with the general loop by pretending the metric is exotic.
        let mut slow = Interval::unfitted(0, 10);
        let f = regression::fit_linear(ErrorMetric::Sse, &y);
        slow.a = f.a;
        slow.b = f.b;
        slow.err = f.err;
        for shift in 0..=(x.len() - 10) {
            let f = regression::fit_sse(&x[shift..shift + 10], &y);
            if f.err < slow.err {
                slow.shift = shift as i64;
                slow.a = f.a;
                slow.b = f.b;
                slow.err = f.err;
            }
        }
        assert_eq!(fast.shift, slow.shift);
        assert!((fast.err - slow.err).abs() < 1e-9);
    }

    /// A CPU with AVX2 always takes the AVX2 build, so there the portable
    /// build runs only here: the same sweep through [`sweep_blocks`] as
    /// compiled into this (portable) test and through the dispatched
    /// [`sweep`] must pick the same `(err, shift, Σxy)` bits, over every
    /// shiftable length, flat stretches, magnitudes from 1e-6 to 1e6,
    /// arbitrary `lo..=hi` spans and both an open and a finite starting
    /// bound.
    #[test]
    fn portable_and_dispatched_sweeps_agree_bit_for_bit() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let series = |n: usize, next: &mut dyn FnMut() -> u64| -> Vec<f64> {
            let mut v = Vec::with_capacity(n);
            while v.len() < n {
                let run = 1 + (next() % 24) as usize;
                let scale = 10f64.powi((next() % 13) as i32 - 6);
                if next().is_multiple_of(4) {
                    // A flat stretch: every window inside it has S_xx = 0.
                    let level = (next() % 1000) as f64 * scale;
                    v.extend(std::iter::repeat_n(level, run));
                } else {
                    v.extend((0..run).map(|_| ((next() % 2001) as f64 - 1000.0) * scale));
                }
            }
            v.truncate(n);
            v
        };
        let w = 16;
        let key =
            |r: Option<SweepWinner>| r.map(|w| (w.err.to_bits(), w.shift, w.sum_xy.to_bits()));
        for round in 0..4 {
            let x = series(200 + 37 * round, &mut next);
            let y = series(96, &mut next);
            let c = ctx(&x, &y, w);
            for len in 1..=2 * w {
                let start = next() as usize % (y.len() - len + 1);
                let yw = &y[start..start + len];
                let n = len as f64;
                let sum_y = c.y_stats.window_sum(start, len);
                let sum_y2 = c.y_stats.window_sum_sq(start, len);
                let inputs = SweepInputs {
                    x_padded: &c.x_padded,
                    stats: c.window_stats(len),
                    yw,
                    n,
                    sum_y,
                    s_yy: regression::centred_sum_sq(n, sum_y, sum_y2),
                };
                let last = x.len() - len;
                let fallback = regression::fit_linear(ErrorMetric::Sse, yw).err;
                let mut spans = vec![(0, last), (last, last), (0, 0)];
                for _ in 0..8 {
                    let lo = next() as usize % (last + 1);
                    spans.push((lo, lo + next() as usize % (last + 1 - lo)));
                }
                for (lo, hi) in spans {
                    for bound in [f64::INFINITY, fallback] {
                        let portable = sweep_blocks(&inputs, lo, hi, bound);
                        let dispatched = sweep(&inputs, lo, hi, bound);
                        assert_eq!(
                            key(portable),
                            key(dispatched),
                            "len {len} over {lo}..={hi}, bound {bound}: {portable:?} != {dispatched:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn maxabs_metric_shift_loop() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).sin()).collect();
        let y: Vec<f64> = x[5..13].iter().map(|v| -v + 0.5).collect();
        let config = SbrConfig::new(1_000, 1_000).with_metric(ErrorMetric::MaxAbs);
        let c = MapContext::new(&x, &y, &config, 8);
        let mut i = Interval::unfitted(0, 8);
        c.best_map(&mut i);
        assert_eq!(i.shift, 5);
        assert!(i.err < 1e-9);
    }
}
