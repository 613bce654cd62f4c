//! `Search` (Algorithm 7) + `CalculateError` (Algorithm 6): binary search on
//! the number of candidate base intervals to actually insert.
//!
//! Inserting a candidate costs `W + 1` values of bandwidth that are no
//! longer available for approximation intervals, so the batch error as a
//! function of the insertion count is (assumed) unimodal: richer dictionary
//! vs. fewer intervals. The search probes `O(log maxIns)` counts, each probe
//! running a full `GetIntervals` against the would-be dictionary, and
//! memoizes results — the error that steers the search and the
//! approximation itself, which the encoder transmits for the winning count.

use crate::base_signal::BaseSignal;
use crate::config::SbrConfig;
use crate::get_intervals::{get_intervals_with, Approximation};
use crate::interval::IntervalRecord;
use crate::probe_cache::ProbeCache;
use crate::series::MultiSeries;

/// Memoizing probe driver for one transmission's insertion-count decision.
///
/// Every probe is served through an incremental [`ProbeCache`]: probes
/// `pos` and `pos − 1` differ only in one appended `W`-wide candidate, so
/// the fit against the shared base prefix is computed once per interval
/// and each candidate's region is swept once, instead of re-fitting the
/// whole dictionary on every probe.
///
/// Next to each probe's error the context keeps the probe's
/// [`Approximation`]: the cache's fits are bit-identical to a full sweep,
/// so the winning probe *is* the approximation the encoder transmits, and
/// [`SearchContext::take_approximation`] hands it over instead of having
/// the encoder run `GetIntervals` again.
pub struct SearchContext<'a> {
    base: &'a BaseSignal,
    candidates: &'a [Vec<f64>],
    data: &'a MultiSeries,
    w: usize,
    config: &'a SbrConfig,
    errors: Vec<Option<f64>>,
    /// The approximation behind each memoized error; `None` for counts not
    /// yet probed and for infeasible ones.
    approximations: Vec<Option<Approximation>>,
    probes: usize,
}

impl<'a> SearchContext<'a> {
    /// Set up a search over inserting `0..=candidates.len()` of the ranked
    /// candidates into `base`.
    pub fn new(
        base: &'a BaseSignal,
        candidates: &'a [Vec<f64>],
        data: &'a MultiSeries,
        w: usize,
        config: &'a SbrConfig,
    ) -> Self {
        SearchContext {
            base,
            candidates,
            data,
            w,
            config,
            errors: vec![None; candidates.len() + 1],
            approximations: vec![None; candidates.len() + 1],
            probes: 0,
        }
    }

    /// Run the search; returns `Ins`, the number of candidates to insert
    /// (0 ..= candidates.len()). Binary search by default (Algorithm 7);
    /// exhaustive probing under
    /// [`SbrConfig::exhaustive_search`](crate::SbrConfig).
    pub fn run(&mut self) -> usize {
        if self.candidates.is_empty() {
            return 0;
        }
        self.with_cache(|s, cache| {
            if s.config.exhaustive_search {
                s.run_exhaustive(cache)
            } else {
                s.search(0, s.candidates.len(), cache)
            }
        })
    }

    /// Build a probe cache over the full dictionary `base ∥ all
    /// candidates` for the duration of `f`, then publish its counters.
    fn with_cache<R>(&mut self, f: impl FnOnce(&mut Self, &ProbeCache<'_>) -> R) -> R {
        let mut buf = Vec::new();
        let cands: Vec<&[f64]> = self.candidates.iter().map(Vec::as_slice).collect();
        self.base.flat_with_appended(&cands, &mut buf);
        let cache = ProbeCache::new(&buf, self.data, self.config, self.w, self.base.len());
        let out = f(self, &cache);
        cache.publish();
        out
    }

    /// Probe every insertion count; ground truth for the unimodality
    /// assumption behind Algorithm 7.
    fn run_exhaustive(&mut self, cache: &ProbeCache<'_>) -> usize {
        let mut best = 0;
        let mut best_err = self.probe(cache, 0);
        for pos in 1..=self.candidates.len() {
            let e = self.probe(cache, pos);
            if e < best_err {
                best = pos;
                best_err = e;
            }
        }
        best
    }

    /// How many `GetIntervals` probes the search performed (memoized probes
    /// are not re-counted) — exposed for the complexity tests.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// The approximation a probe of `pos` insertions computed, moved out of
    /// the memo; `None` when `pos` was never probed or is infeasible (or
    /// was already taken). Its error stays memoized.
    pub fn take_approximation(&mut self, pos: usize) -> Option<Approximation> {
        self.approximations.get_mut(pos)?.take()
    }

    /// Memoized batch error after inserting the first `pos` candidates.
    pub fn error_at(&mut self, pos: usize) -> f64 {
        match self.errors[pos] {
            Some(e) => e,
            None => self.with_cache(|s, cache| s.probe(cache, pos)),
        }
    }

    /// Memoized probe: one full `GetIntervals` run against the would-be
    /// dictionary, with every fit pulled from the cache's probe-`pos`
    /// oracle. A count whose insertions exhaust the budget memoizes `∞`
    /// and no approximation.
    fn probe(&mut self, cache: &ProbeCache<'_>, pos: usize) -> f64 {
        if let Some(e) = self.errors[pos] {
            return e;
        }
        self.probes += 1;
        let _span = self
            .config
            .obs
            .span("sbr_core.search.probe_ns", &self.config.obs.probe_ns);
        let budget = self.config.total_band.saturating_sub(pos * (self.w + 1));
        let approx = if budget / IntervalRecord::COST < self.data.n_signals() {
            None
        } else {
            get_intervals_with(&cache.oracle(pos), self.data, budget, self.config).ok()
        };
        let e = approx.as_ref().map_or(f64::INFINITY, |a| a.total_err);
        self.errors[pos] = Some(e);
        self.approximations[pos] = approx;
        e
    }

    /// Algorithm 7, verbatim.
    fn search(&mut self, start: usize, end: usize, cache: &ProbeCache<'_>) -> usize {
        if end == start {
            return start;
        }
        let middle = (start + end) / 2;
        let e_mid = self.probe(cache, middle);
        let e_start = self.probe(cache, start);
        if e_mid > e_start {
            let e_end = self.probe(cache, end);
            if e_end > e_start {
                self.search(start, middle, cache)
            } else {
                self.search(middle, end, cache)
            }
        } else {
            let e_next = self.probe(cache, middle + 1);
            if e_next < e_mid {
                self.search(middle + 1, end, cache)
            } else {
                self.search(start, middle, cache)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::ErrorMetric;

    fn wiggle(seed: f64, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 * 1.1 + seed).sin() * 4.0 + (i as f64 * 0.31 + seed).cos() * 2.0)
            .collect()
    }

    /// Data made of affine images of `n_patterns` distinct wiggles, so the
    /// optimal dictionary size is discoverable.
    fn patterned_series(n_patterns: usize, w: usize, reps: usize) -> MultiSeries {
        let patterns: Vec<Vec<f64>> = (0..n_patterns).map(|p| wiggle(p as f64 * 9.7, w)).collect();
        let mut row = Vec::new();
        for rep in 0..reps {
            for (pi, p) in patterns.iter().enumerate() {
                let a = 1.0 + 0.3 * rep as f64 + pi as f64;
                let b = rep as f64 - pi as f64;
                row.extend(p.iter().map(|v| a * v + b));
            }
        }
        MultiSeries::from_rows(&[row]).unwrap()
    }

    #[test]
    fn empty_candidates_insert_nothing() {
        let data = patterned_series(1, 8, 4);
        let base = BaseSignal::new(8);
        let config = SbrConfig::new(64, 64).with_w(8);
        let mut s = SearchContext::new(&base, &[], &data, 8, &config);
        assert_eq!(s.run(), 0);
    }

    #[test]
    fn inserts_help_on_patterned_data() {
        let data = patterned_series(2, 8, 6);
        let base = BaseSignal::new(8);
        let config = SbrConfig::new(80, 80).with_w(8);
        let cands = crate::get_base::get_base(&data, 8, 4, ErrorMetric::Sse);
        let mut s = SearchContext::new(&base, &cands, &data, 8, &config);
        let ins = s.run();
        assert!(ins >= 1, "patterned data must trigger insertions");
        // The chosen count is no worse than its neighbours.
        let e = s.error_at(ins);
        if ins > 0 {
            assert!(e <= s.error_at(ins - 1) + 1e-9);
        }
        if ins < cands.len() {
            assert!(e <= s.error_at(ins + 1) + 1e-9);
        }
    }

    #[test]
    fn linear_data_inserts_nothing() {
        // Pure lines are handled perfectly by the fall-back; paying W+1
        // values for dictionary entries can only hurt.
        let row: Vec<f64> = (0..64).map(|i| 2.0 * i as f64).collect();
        let data = MultiSeries::from_rows(&[row]).unwrap();
        let base = BaseSignal::new(8);
        let config = SbrConfig::new(48, 48).with_w(8);
        let cands = crate::get_base::get_base(&data, 8, 4, ErrorMetric::Sse);
        let mut s = SearchContext::new(&base, &cands, &data, 8, &config);
        let ins = s.run();
        assert_eq!(s.error_at(ins), 0.0);
        assert_eq!(ins, 0, "no reason to pay for base intervals");
    }

    #[test]
    fn infeasible_counts_probe_to_infinity() {
        let data = patterned_series(1, 8, 4);
        let base = BaseSignal::new(8);
        // Budget fits one interval and nothing else.
        let config = SbrConfig::new(8, 800).with_w(8);
        let cands = vec![vec![0.0; 8], vec![1.0; 8]];
        let mut s = SearchContext::new(&base, &cands, &data, 8, &config);
        assert!(s.error_at(1).is_infinite());
        assert!(s.error_at(2).is_infinite());
        let ins = s.run();
        assert_eq!(ins, 0);
    }

    #[test]
    fn probe_count_is_logarithmic() {
        let data = patterned_series(2, 8, 6);
        let base = BaseSignal::new(8);
        let config = SbrConfig::new(200, 800).with_w(8);
        let cands = crate::get_base::get_base(&data, 8, 12, ErrorMetric::Sse);
        let n = cands.len();
        let mut s = SearchContext::new(&base, &cands, &data, 8, &config);
        s.run();
        // Each of the O(log n) recursion levels probes at most 3 new
        // positions.
        let bound = 3 * ((n as f64).log2().ceil() as usize + 2);
        assert!(
            s.probes() <= bound,
            "probes {} exceeds O(log n) bound {}",
            s.probes(),
            bound
        );
    }

    #[test]
    fn binary_search_matches_exhaustive_on_real_data() {
        // The unimodality assumption, validated: on patterned data the
        // O(log) search must land within a whisker of the true optimum.
        let data = patterned_series(3, 8, 8);
        let base = BaseSignal::new(8);
        let config = SbrConfig::new(300, 900).with_w(8);
        let cands = crate::get_base::get_base(&data, 8, 10, ErrorMetric::Sse);
        let mut fast = SearchContext::new(&base, &cands, &data, 8, &config);
        let ins_fast = fast.run();
        let mut cfg_ex = config.clone();
        cfg_ex.exhaustive_search = true;
        let mut slow = SearchContext::new(&base, &cands, &data, 8, &cfg_ex);
        let ins_slow = slow.run();
        let e_fast = fast.error_at(ins_fast);
        let e_slow = slow.error_at(ins_slow);
        assert!(
            e_fast <= e_slow * 1.10 + 1e-9,
            "binary {ins_fast} (err {e_fast}) vs exhaustive {ins_slow} (err {e_slow})"
        );
        assert!(slow.probes() >= cands.len(), "exhaustive probes everything");
    }

    #[test]
    fn memoization_prevents_duplicate_probes() {
        let data = patterned_series(1, 8, 4);
        let base = BaseSignal::new(8);
        let config = SbrConfig::new(64, 64).with_w(8);
        let cands = vec![wiggle(0.0, 8)];
        let mut s = SearchContext::new(&base, &cands, &data, 8, &config);
        let a = s.error_at(0);
        let before = s.probes();
        let b = s.error_at(0);
        assert_eq!(a, b);
        assert_eq!(s.probes(), before);
    }
}
