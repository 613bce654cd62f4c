//! `BestMap` (Algorithm 2): find the best approximation for one data
//! interval — either a shifted base-signal segment or the linear fall-back.

use crate::config::SbrConfig;
use crate::interval::{Interval, LINEAR_FALLBACK_SHIFT};
use crate::metric::ErrorMetric;
use crate::obs::EncodeObs;
use crate::regression::{self, PrefixStats};
use crate::xcorr;

use std::sync::OnceLock;

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
    /// Intervals longer than `max_shift_len` are never shifted over `X`
    /// (the paper uses `2 × W`). Fixed at construction: the window-statistics
    /// tables are sized by it.
    pub(crate) max_shift_len: usize,
    /// Observability handles (cloned from the configuration); counts
    /// fits and sweeps. Never affects the fit itself.
    pub obs: EncodeObs,
    /// `window_stats[len - 1]`: every shift's [`WindowStat`] for windows of
    /// `len` values, built by the first SSE sweep of that length. Shared by
    /// every thread fitting against this context.
    window_stats: Vec<OnceLock<Box<[WindowStat]>>>,
    /// `X` followed by `DOT_BLOCK − 1` zeros, so every block of a sweep —
    /// its last one too — reads a whole block's stretch. Lanes that reach
    /// into the zeros lie past the sweep's last shift and are never read.
    x_padded: Vec<f64>,
}

impl<'a> MapContext<'a> {
    /// Build a context from the configuration and the derived width `w`.
    pub fn new(x: &'a [f64], y: &'a [f64], config: &SbrConfig, w: usize) -> Self {
        let max_shift_len = config.max_shift_len_factor.saturating_mul(w);
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
                .map(|_| OnceLock::new())
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
    /// [`regression::sse_slope_err`]'s two divisions. [`xcorr::dot_block`]
    /// evaluates a block's `Σ x·y` lanes at once, each in the exact index
    /// order of the scalar [`xcorr::dot`]; the last block may run past
    /// `hi`, and its lanes beyond `hi` are dropped. Lanes are ranked by
    /// residual alone, in ascending shift order with the strict `<`
    /// (earliest shift wins ties), and only the winner is fitted through
    /// [`regression::fit_sse_with_stats`], whose residual is computed by
    /// the same operations — so the selected `(shift, a, b, err)` is
    /// bit-identical to fitting every shift in turn.
    fn shift_loop_sse_direct(&self, interval: &mut Interval, yw: &[f64], lo: usize, hi: usize) {
        let len = interval.length;
        let n = len as f64;
        let sum_y = self.y_stats.window_sum(interval.start, len);
        let sum_y2 = self.y_stats.window_sum_sq(interval.start, len);
        let s_yy = regression::centred_sum_sq(n, sum_y, sum_y2);

        let mut best_err = interval.err;
        let mut winner = None;
        let mut dots = [0.0; xcorr::DOT_BLOCK];
        let blocks = self.window_stats(len)[lo..=hi].chunks(xcorr::DOT_BLOCK);
        for (shift, block) in (lo..).step_by(xcorr::DOT_BLOCK).zip(blocks) {
            xcorr::dot_block(
                &self.x_padded[shift..shift + len + xcorr::DOT_BLOCK - 1],
                yw,
                &mut dots,
            );
            for (b, (st, &sum_xy)) in block.iter().zip(&dots).enumerate() {
                let (_, err) = regression::sse_slope_err(n, st.sum_x, st.s_xx, sum_y, s_yy, sum_xy);
                if err < best_err {
                    best_err = err;
                    winner = Some((shift + b, sum_xy));
                }
            }
        }

        if let Some((shift, sum_xy)) = winner {
            let f = regression::fit_sse_with_stats(
                len,
                self.x_stats.window_sum(shift, len),
                self.x_stats.window_sum_sq(shift, len),
                sum_y,
                sum_y2,
                sum_xy,
            );
            debug_assert_eq!(f.err.to_bits(), best_err.to_bits());
            interval.shift = shift as i64;
            interval.a = f.a;
            interval.b = f.b;
            interval.err = f.err;
        }
    }

    /// The [`WindowStat`] of every shift of a `len`-long window over `X`,
    /// built on first use and kept for the life of the context.
    fn window_stats(&self, len: usize) -> &[WindowStat] {
        self.window_stats[len - 1].get_or_init(|| {
            let n = len as f64;
            (0..=self.x.len() - len)
                .map(|shift| {
                    let sum_x = self.x_stats.window_sum(shift, len);
                    let sum_x2 = self.x_stats.window_sum_sq(shift, len);
                    WindowStat {
                        sum_x,
                        s_xx: regression::window_spread(n, sum_x, sum_x2),
                    }
                })
                .collect()
        })
    }

    /// Approximate heap bytes of the window-statistics tables built so far.
    pub(crate) fn window_stats_bytes(&self) -> usize {
        self.window_stats.len() * std::mem::size_of::<OnceLock<Box<[WindowStat]>>>()
            + self
                .window_stats
                .iter()
                .filter_map(OnceLock::get)
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
