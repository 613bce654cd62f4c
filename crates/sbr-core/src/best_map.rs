//! `BestMap` (Algorithm 2): find the best approximation for one data
//! interval — either a shifted base-signal segment or the linear fall-back.

use crate::config::SbrConfig;
use crate::interval::{Interval, LINEAR_FALLBACK_SHIFT};
use crate::metric::ErrorMetric;
use crate::obs::EncodeObs;
use crate::regression::{self, PrefixStats};
use crate::xcorr::{self, XcorrPlan};

/// Which stretch of the concatenated dictionary a region-restricted sweep
/// covers — only used to attribute the direct-vs-FFT decision to the right
/// observability counters (the fit itself is region-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepRegion {
    /// Shifts landing fully inside the shared base prefix.
    Base,
    /// Shifts whose window touches one appended candidate.
    Candidate,
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
    /// Intervals longer than `max_shift_len` are never shifted over `X`
    /// (the paper uses `2 × W`).
    pub max_shift_len: usize,
    /// Cached base-signal spectrum for the FFT kernel; `None` when the
    /// metric is not SSE or the base signal is empty.
    pub xcorr: Option<XcorrPlan>,
    /// Observability handles (cloned from the configuration); counts
    /// fits, direct-vs-FFT decisions and FFT re-verifications. Never
    /// affects the fit itself.
    pub obs: EncodeObs,
}

impl<'a> MapContext<'a> {
    /// Build a context from the configuration and the derived width `w`.
    pub fn new(x: &'a [f64], y: &'a [f64], config: &SbrConfig, w: usize) -> Self {
        let xcorr = (config.metric == ErrorMetric::Sse && !x.is_empty()).then(|| XcorrPlan::new(x));
        MapContext {
            x,
            x_stats: PrefixStats::new(x),
            y,
            y_stats: PrefixStats::new(y),
            metric: config.metric,
            allow_linear_fallback: config.allow_linear_fallback,
            max_shift_len: config.max_shift_len_factor.saturating_mul(w),
            xcorr,
            obs: config.obs.clone(),
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
    /// observability counters record the direct-vs-FFT decision.
    ///
    /// The caller guarantees `hi + interval.length <= self.x.len()`.
    pub fn fold_region(&self, interval: &mut Interval, lo: usize, hi: usize, region: SweepRegion) {
        debug_assert!(lo <= hi && hi + interval.length <= self.x.len());
        let yw = &self.y[interval.start..interval.start + interval.length];
        if self.metric != ErrorMetric::Sse {
            return self.shift_loop_general(interval, yw, lo, hi);
        }
        // Candidate regions span at most `W` shifts; a transform over the
        // padded *full* dictionary can never amortize there, so only the
        // base-prefix region consults the cost model. The evaluators are
        // bit-identical either way — this is purely a cost decision.
        let plan = self.xcorr.as_ref().filter(|plan| {
            region == SweepRegion::Base
                && xcorr::fft_beats_direct_span(hi - lo + 1, interval.length, plan.fft_len())
        });
        let (direct_ctr, fft_ctr) = match region {
            SweepRegion::Base => (&self.obs.base_direct_sweeps, &self.obs.base_fft_sweeps),
            SweepRegion::Candidate => (&self.obs.cand_direct_sweeps, &self.obs.cand_fft_sweeps),
        };
        if let Some(plan) = plan {
            fft_ctr.inc();
            self.shift_loop_sse_fft(interval, yw, plan, lo, hi);
        } else {
            direct_ctr.inc();
            self.shift_loop_sse_direct(interval, yw, lo, hi);
        }
    }

    /// SSE fast path: window sums of `X` and `Y` come from prefix stats;
    /// only `Σ x·y` varies per shift. The cost model
    /// ([`xcorr::fft_beats_direct`]) picks between the direct `O(B·len)`
    /// sweep and the `O((B+len) log (B+len))` FFT kernel from the input
    /// sizes alone; both produce bit-identical results.
    fn shift_loop_sse(&self, interval: &mut Interval, yw: &[f64]) {
        let plan = self
            .xcorr
            .as_ref()
            .filter(|_| xcorr::fft_beats_direct(self.x.len(), interval.length));
        let hi = self.x.len() - interval.length;
        if let Some(plan) = plan {
            self.obs.fft_sweeps.inc();
            self.shift_loop_sse_fft(interval, yw, plan, 0, hi);
        } else {
            self.obs.direct_sweeps.inc();
            self.shift_loop_sse_direct(interval, yw, 0, hi);
        }
    }

    /// Direct SSE sweep over shifts `lo..=hi`, evaluated in blocks of
    /// [`xcorr::DOT_BLOCK`] consecutive shifts.
    ///
    /// The window statistics `Σy`, `Σy²` are hoisted once per sweep and
    /// `Σx`, `Σx²` come from prefix sums, so only `Σ x·y` varies per shift;
    /// [`xcorr::dot_block`] evaluates eight of those at once as
    /// straight-line f64 mul-adds over one contiguous stretch of `X`. Each
    /// block lane accumulates in the exact index order of the scalar
    /// [`xcorr::dot`], and lanes are folded into `interval` in ascending
    /// shift order with the same strict `<`, so the selected
    /// `(shift, a, b, err)` is bit-identical to the one-shift-at-a-time
    /// loop this replaces. Trailing shifts that do not fill a block use the
    /// scalar dot.
    fn shift_loop_sse_direct(&self, interval: &mut Interval, yw: &[f64], lo: usize, hi: usize) {
        let len = interval.length;
        let sum_y = self.y_stats.window_sum(interval.start, len);
        let sum_y2 = self.y_stats.window_sum_sq(interval.start, len);
        let mut shift = lo;
        let mut dots = [0.0; xcorr::DOT_BLOCK];
        while shift + xcorr::DOT_BLOCK - 1 <= hi {
            xcorr::dot_block(
                &self.x[shift..shift + len + xcorr::DOT_BLOCK - 1],
                yw,
                &mut dots,
            );
            for (b, &sum_xy) in dots.iter().enumerate() {
                let f = self.fit_at(shift + b, len, sum_y, sum_y2, sum_xy);
                if f.err < interval.err {
                    interval.shift = (shift + b) as i64;
                    interval.a = f.a;
                    interval.b = f.b;
                    interval.err = f.err;
                }
            }
            shift += xcorr::DOT_BLOCK;
        }
        for shift in shift..=hi {
            let sum_xy = xcorr::dot(&self.x[shift..shift + len], yw);
            let f = self.fit_at(shift, len, sum_y, sum_y2, sum_xy);
            if f.err < interval.err {
                interval.shift = shift as i64;
                interval.a = f.a;
                interval.b = f.b;
                interval.err = f.err;
            }
        }
    }

    /// FFT SSE sweep: all `Σ x·y` values at once via cross-correlation,
    /// then an exact re-verification pass.
    ///
    /// Selecting directly on FFT values could flip near-ties against the
    /// direct path, so they only *filter*: pass 1 brackets each shift's
    /// error by a per-shift uncertainty interval, pass 2 re-evaluates every
    /// shift whose lower bracket reaches the smallest upper bracket with
    /// the exact direct summation, in ascending shift order with the same
    /// strict `<` as the direct sweep. The exact winner always survives the
    /// filter (its interval contains its exact error, which is the
    /// minimum), so the selected `(shift, a, b, err)` is bit-identical to
    /// [`Self::shift_loop_sse_direct`].
    ///
    /// The per-shift `Σ x·y` error bound `d_xy` is the classic
    /// `O(ε·log m·‖x‖₂·‖y‖₂)` FFT convolution bound, inflated by ~1e4 for
    /// slack (ε ≈ 2.2e-16, so the 1e-12 head already includes the log
    /// factor's constant many times over). In non-degenerate cases the
    /// brackets are ~`1e-9` relative and the re-verified set is a handful
    /// of genuine near-ties; a pathological base (near-constant windows
    /// amplifying `s_xy/s_xx`) only widens the set, degrading speed, never
    /// correctness.
    fn shift_loop_sse_fft(
        &self,
        interval: &mut Interval,
        yw: &[f64],
        plan: &XcorrPlan,
        lo: usize,
        hi: usize,
    ) {
        let len = interval.length;
        let sum_y = self.y_stats.window_sum(interval.start, len);
        let sum_y2 = self.y_stats.window_sum_sq(interval.start, len);
        let approx_xy = plan.sliding_dot(yw);
        let norm_x2 = self.x_stats.window_sum_sq(0, self.x.len());
        let log_m = (usize::BITS - plan.fft_len().leading_zeros()) as f64;
        let d_xy = 1e-12 * log_m * (norm_x2 * sum_y2).sqrt();

        // Pass 1: approximate error + uncertainty bracket per shift.
        // The fit's constant-base branch triggers on s_xx alone, which is
        // exact (prefix sums) — both passes take the same branch, and that
        // branch ignores Σx·y entirely, so its uncertainty is zero.
        // Otherwise err = s_yy − (s_xy)²/s_xx, so a perturbation δ of Σx·y
        // moves it by at most (2·|s_xy|·δ + δ²)/s_xx.
        let mut approx = Vec::with_capacity(hi - lo + 1);
        let mut min_upper = f64::INFINITY;
        for (shift, &sum_xy) in approx_xy.iter().enumerate().take(hi + 1).skip(lo) {
            let f = self.fit_at(shift, len, sum_y, sum_y2, sum_xy);
            let sum_x = self.x_stats.window_sum(shift, len);
            let sum_x2 = self.x_stats.window_sum_sq(shift, len);
            let s_xx = sum_x2 - sum_x * sum_x / len as f64;
            let u = if s_xx.abs() <= f64::EPSILON * sum_x2.abs().max(1.0) {
                0.0
            } else {
                let s_xy = sum_xy - sum_x * sum_y / len as f64;
                (2.0 * s_xy.abs() * d_xy + d_xy * d_xy) / s_xx
            };
            min_upper = min_upper.min(f.err + u);
            approx.push((f.err, u));
        }

        // Pass 2: exact re-evaluation of every shift that could be the true
        // minimum. NaN brackets compare false here and are therefore always
        // re-verified.
        let mut reverified = 0u64;
        for (shift, &(err, u)) in approx.iter().enumerate().map(|(i, v)| (lo + i, v)) {
            if err - u > min_upper {
                continue;
            }
            reverified += 1;
            let sum_xy = xcorr::dot(&self.x[shift..shift + len], yw);
            let f = self.fit_at(shift, len, sum_y, sum_y2, sum_xy);
            if f.err < interval.err {
                interval.shift = shift as i64;
                interval.a = f.a;
                interval.b = f.b;
                interval.err = f.err;
            }
        }
        self.obs.fft_reverified.add(reverified);
    }

    /// Closed-form SSE fit for one shift from the window statistics.
    #[inline]
    fn fit_at(
        &self,
        shift: usize,
        len: usize,
        sum_y: f64,
        sum_y2: f64,
        sum_xy: f64,
    ) -> regression::Fit {
        regression::fit_sse_with_stats(
            len,
            self.x_stats.window_sum(shift, len),
            self.x_stats.window_sum_sq(shift, len),
            sum_y,
            sum_y2,
            sum_xy,
        )
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

    #[test]
    fn fft_sweep_is_bit_identical_to_direct_sweep() {
        // Cover short, crossover-sized, and base-length windows, plus a
        // constant-X stretch that produces exact error ties across shifts.
        // Both sweep kernels run over the full shift range, whatever the
        // cost model would pick for the size.
        let mut x: Vec<f64> = (0..512)
            .map(|i| ((i * i % 97) as f64) * 0.3 - 11.0 + (i as f64 * 0.05).sin())
            .collect();
        for v in x[100..160].iter_mut() {
            *v = 4.0;
        }
        let y: Vec<f64> = (0..512)
            .map(|i| ((i * 7 % 31) as f64) - 15.0 + (i as f64 * 0.11).cos())
            .collect();
        let config = SbrConfig::new(10_000, 1_000).with_w(256);
        let c = MapContext::new(&x, &y, &config, 256);
        let plan = c.xcorr.as_ref().expect("SSE context builds an FFT plan");
        for (start, len) in [(0usize, 5usize), (37, 64), (100, 143), (256, 256), (0, 512)] {
            let hi = x.len() - len;
            let yw = &y[start..start + len];
            let mut id = Interval::unfitted(start, len);
            let mut if_ = Interval::unfitted(start, len);
            c.shift_loop_sse_direct(&mut id, yw, 0, hi);
            c.shift_loop_sse_fft(&mut if_, yw, plan, 0, hi);
            assert_eq!(id.shift, if_.shift, "shift mismatch at ({start}, {len})");
            assert_eq!(
                id.a.to_bits(),
                if_.a.to_bits(),
                "a mismatch at ({start}, {len})"
            );
            assert_eq!(
                id.b.to_bits(),
                if_.b.to_bits(),
                "b mismatch at ({start}, {len})"
            );
            assert_eq!(
                id.err.to_bits(),
                if_.err.to_bits(),
                "err mismatch at ({start}, {len})"
            );
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
