//! Transmission-scoped incremental probe cache for `Search`.
//!
//! Every `Search` probe `pos` evaluates a full `GetIntervals` against the
//! dictionary `X_pos = base ∥ c₁ ∥ … ∥ c_pos`. Consecutive probes share the
//! entire base prefix and differ in one appended `W`-wide candidate, yet
//! a plain `GetIntervals` per probe would re-sweep the whole dictionary
//! for every interval of every probe. This module decomposes the
//! per-interval fit as
//!
//! ```text
//! best(pos) = min(fallback, best_vs_base_prefix, min_{k ≤ pos} best_vs_candidate_k)
//! ```
//!
//! and caches the pieces per `(start, len)`: the base-prefix sweep is paid
//! once and shared by *all* probes, each candidate region is swept once
//! (when the first probe that includes it asks) and reused by every probe
//! with a larger `pos`, and a probe's answer is a running prefix-min over
//! those folds — `O(1)` per already-folded position.
//!
//! ## Why the prefix-min is exact
//!
//! Probe `pos` admits shifts `0..=L_pos − len` (`L_k = L_base + k·W`).
//! That range partitions exactly into the base region `[0, L_base − len]`
//! (present iff `len ≤ L_base`) and, for each candidate `k ≤ pos`, the
//! region `[max(0, L_{k−1} + 1 − len), L_k − len]` (present iff
//! `len ≤ L_k`) — the shifts whose window ends inside candidate `k`. The
//! regions are disjoint, their union is the full range, and they are
//! folded in ascending shift order with the same strict `<` as the
//! continuous sweep, seeded from the same fall-back fit (or an `∞` seed
//! when the fall-back is disabled). The prefix sums and dot products over
//! `X_full` are bit-identical to those over any prefix `X_pos`, so the
//! selected `(shift, a, b, err)` — including the earliest-shift tie-break
//! and the `shift = −1` fall-back tie floor — matches a full sweep of
//! `X_pos` bit for bit. The reference-encoder suite in
//! `tests/reference_diff.rs` pins byte-identical transmission streams on
//! top of this argument.
//!
//! The cache lives for one `Search` (one transmission); entries are keyed
//! by `(start, len)` because the split tree visits the same intervals in
//! every probe (splitting depends only on `(start, len)` and the data).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::best_map::{MapContext, SweepRegion};
use crate::config::SbrConfig;
use crate::get_intervals::FitOracle;
use crate::interval::Interval;
use crate::series::MultiSeries;

/// One cached fit outcome — the `(shift, a, b, err)` state of an interval
/// after some prefix of the fold.
#[derive(Debug, Clone, Copy)]
struct FitState {
    shift: i64,
    a: f64,
    b: f64,
    err: f64,
}

impl FitState {
    fn capture(iv: &Interval) -> Self {
        FitState {
            shift: iv.shift,
            a: iv.a,
            b: iv.b,
            err: iv.err,
        }
    }

    fn apply(&self, iv: &mut Interval) {
        iv.shift = self.shift;
        iv.a = self.a;
        iv.b = self.b;
        iv.err = self.err;
    }
}

/// Cached folds for one `(start, len)` interval.
struct Entry {
    /// The linear fall-back fit (probes where the interval is not
    /// shiftable use it directly, shiftable probes seed the fold with it).
    fallback: FitState,
    /// `folded[k]` = best fit over the seed, the base prefix, and
    /// candidates `1..=k` — i.e. the answer for probe `pos = k`. Extended
    /// lazily to the largest probe that asked so far.
    folded: Vec<FitState>,
}

/// Aggregate size of a [`ProbeCache`] — entries, cached folds, and an
/// approximate heap footprint in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeCacheFootprint {
    /// Distinct `(start, len)` intervals cached.
    pub entries: usize,
    /// Total folded positions across all entries (one per region sweep
    /// actually paid, plus carried seeds).
    pub folded: usize,
    /// Approximate heap bytes held by the cache.
    pub bytes: usize,
}

/// The probe cache: fit state shared across every probe of one `Search`.
///
/// Thread-safe — `Search` prefetches probes concurrently (each probe's
/// `GetIntervals` runs serially on one worker), so an entry may be
/// demanded by several probes at once. The map lock is held only for the
/// lookup; the per-entry lock serializes fold extension, so two probes
/// asking for the same interval never duplicate a sweep.
pub struct ProbeCache<'a> {
    /// Fit context over the *longest* dictionary `X_full = base ∥ all
    /// candidates`; every region sweep is evaluated against it (prefix
    /// sums over `X_full` agree bit for bit with any probe's `X_pos`).
    ctx: MapContext<'a>,
    base_len: usize,
    w: usize,
    #[allow(clippy::type_complexity)]
    entries: Mutex<HashMap<(usize, usize), Arc<Mutex<Entry>>>>,
}

impl<'a> ProbeCache<'a> {
    /// Build a cache for one `Search` over `x_full = base ∥ all
    /// candidates` (`base_len` values of base prefix, then `W`-wide
    /// candidates).
    pub fn new(
        x_full: &'a [f64],
        data: &'a MultiSeries,
        config: &SbrConfig,
        w: usize,
        base_len: usize,
    ) -> Self {
        debug_assert!(
            x_full.len() >= base_len && (x_full.len() - base_len).is_multiple_of(w.max(1))
        );
        ProbeCache {
            ctx: MapContext::new(x_full, data.flat(), config, w),
            base_len,
            w,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// A [`FitOracle`] view of the cache for probe `pos`: fits behave
    /// exactly like `MapContext::best_map` against `X_pos`.
    pub fn oracle(&self, pos: usize) -> ProbeOracle<'_, 'a> {
        ProbeOracle { cache: self, pos }
    }

    /// Fit `interval` as probe `pos` would: serve from the cache, paying
    /// only the folds not yet computed.
    fn fit_probe(&self, pos: usize, interval: &mut Interval) {
        let obs = &self.ctx.obs;
        obs.best_map_calls.inc();
        let (start, len) = (interval.start, interval.length);
        debug_assert!(len > 0 && start + len <= self.ctx.y.len());
        let l_pos = self.base_len + pos * self.w;
        let shiftable = len <= self.ctx.max_shift_len && len <= l_pos;

        let cell = {
            // lint:allow(panic-reachability): poisoning requires a prior worker panic that already failed the run
            let mut map = self.entries.lock().expect("probe cache map poisoned");
            match map.get(&(start, len)) {
                Some(cell) => {
                    obs.cache_hits.inc();
                    Arc::clone(cell)
                }
                None => {
                    obs.cache_misses.inc();
                    let mut iv = Interval::unfitted(start, len);
                    self.ctx.fallback_fit(&mut iv);
                    let cell = Arc::new(Mutex::new(Entry {
                        fallback: FitState::capture(&iv),
                        folded: Vec::new(),
                    }));
                    map.insert((start, len), Arc::clone(&cell));
                    cell
                }
            }
        };
        // lint:allow(panic-reachability): poisoning requires a prior worker panic that already failed the run
        let mut entry = cell.lock().expect("probe cache entry poisoned");
        if !shiftable {
            // Matches `MapContext::best_map`'s `allow_linear_fallback ||
            // !shiftable` branch: a non-shiftable interval always takes the fall-back.
            entry.fallback.apply(interval);
        } else {
            self.extend(&mut entry, start, len, pos);
            entry.folded[pos].apply(interval);
        }
        if interval.is_fallback() {
            obs.fallback_wins.inc();
        } else {
            obs.base_wins.inc();
        }
    }

    /// Grow `entry.folded` up to position `pos`, sweeping each missing
    /// region once. Region bounds partition the continuous shift range —
    /// see the module docs for the exactness argument.
    fn extend(&self, entry: &mut Entry, start: usize, len: usize, pos: usize) {
        while entry.folded.len() <= pos {
            let k = entry.folded.len();
            let mut iv = Interval::unfitted(start, len);
            if k == 0 {
                if self.ctx.allow_linear_fallback {
                    entry.fallback.apply(&mut iv);
                }
                // else: the `∞`-error unfitted seed, exactly the full
                // sweep's seed when the fall-back is disabled.
            } else {
                entry.folded[k - 1].apply(&mut iv);
            }
            let l_k = self.base_len + k * self.w;
            if len <= l_k {
                let (lo, region) = if k == 0 {
                    (0, SweepRegion::Base)
                } else {
                    (
                        (l_k - self.w + 1).saturating_sub(len),
                        SweepRegion::Candidate,
                    )
                };
                self.ctx.fold_region(&mut iv, lo, l_k - len, region);
            }
            entry.folded.push(FitState::capture(&iv));
        }
    }

    /// Current cache size. `bytes` is an estimate (map and `Vec` growth
    /// slack is approximated by capacities) that includes the fit context's
    /// per-length window-statistics tables, exported to the
    /// `sbr_core.probe_cache.bytes` gauge by [`ProbeCache::publish`].
    pub fn footprint(&self) -> ProbeCacheFootprint {
        // lint:allow(panic-reachability): poisoning requires a prior worker panic that already failed the run
        let map = self.entries.lock().expect("probe cache map poisoned");
        let mut folded = 0usize;
        let mut bytes = std::mem::size_of::<Self>() + self.ctx.window_stats_bytes();
        for cell in map.values() {
            // lint:allow(panic-reachability): poisoning requires a prior worker panic that already failed the run
            let entry = cell.lock().expect("probe cache entry poisoned");
            folded += entry.folded.len();
            bytes += std::mem::size_of::<(usize, usize)>()
                + std::mem::size_of::<Arc<Mutex<Entry>>>()
                + std::mem::size_of::<Entry>()
                + entry.folded.capacity() * std::mem::size_of::<FitState>();
        }
        ProbeCacheFootprint {
            entries: map.len(),
            folded,
            bytes,
        }
    }

    /// Record the cache footprint into the observability gauge; called by
    /// `Search` once after the probing finishes.
    pub fn publish(&self) {
        if self.ctx.obs.enabled() {
            self.ctx.obs.cache_bytes.set(self.footprint().bytes as f64);
        }
    }
}

/// [`FitOracle`] adapter: the cache viewed as probe `pos`'s dictionary.
pub struct ProbeOracle<'c, 'a> {
    cache: &'c ProbeCache<'a>,
    pos: usize,
}

impl FitOracle for ProbeOracle<'_, '_> {
    fn fit(&self, interval: &mut Interval) {
        self.cache.fit_probe(self.pos, interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_signal::BaseSignal;
    use crate::metric::ErrorMetric;

    fn wiggle(seed: f64, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 * 0.9 + seed).sin() * 3.0 + (i as f64 * 0.23 + seed).cos())
            .collect()
    }

    /// Exhaustively compare cached fits against fresh `MapContext` fits on
    /// every probe's dictionary prefix, for every `(start, len)` split-tree
    /// node shape, several metrics and both fall-back settings.
    #[test]
    fn cached_fits_match_full_sweep_bit_for_bit() {
        let w = 8;
        let base: Vec<f64> = wiggle(0.0, 3 * w);
        let cands: Vec<Vec<f64>> = (1..=3).map(|k| wiggle(k as f64 * 7.3, w)).collect();
        let y: Vec<f64> = wiggle(11.1, 64);
        let data = MultiSeries::from_rows(&[y]).unwrap();

        let mut bs = BaseSignal::new(w);
        for (slot, chunk) in base.chunks(w).enumerate() {
            bs.apply_insert(slot, chunk, 0).unwrap();
        }

        for metric in [
            ErrorMetric::Sse,
            ErrorMetric::relative(),
            ErrorMetric::MaxAbs,
        ] {
            for allow_fallback in [true, false] {
                let mut config = SbrConfig::new(1_000, 1_000).with_w(w).with_metric(metric);
                config.allow_linear_fallback = allow_fallback;

                let mut buf = Vec::new();
                let refs: Vec<&[f64]> = cands.iter().map(Vec::as_slice).collect();
                let x_full = bs.flat_with_appended(&refs, &mut buf).to_vec();
                let cache = ProbeCache::new(&x_full, &data, &config, w, bs.len());

                for pos in 0..=cands.len() {
                    let x_pos = &x_full[..bs.len() + pos * w];
                    let full_ctx = MapContext::new(x_pos, data.flat(), &config, w);
                    for (start, len) in [
                        (0usize, 64usize),
                        (0, 32),
                        (32, 32),
                        (48, 16),
                        (5, 7),
                        (63, 1),
                    ] {
                        let mut want = Interval::unfitted(start, len);
                        full_ctx.best_map(&mut want);
                        let mut got = Interval::unfitted(start, len);
                        cache.oracle(pos).fit(&mut got);
                        assert_eq!(
                            (
                                want.shift,
                                want.a.to_bits(),
                                want.b.to_bits(),
                                want.err.to_bits()
                            ),
                            (
                                got.shift,
                                got.a.to_bits(),
                                got.b.to_bits(),
                                got.err.to_bits()
                            ),
                            "mismatch at pos={pos} start={start} len={len} \
                             metric={metric:?} fallback={allow_fallback}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn base_region_swept_once_across_probes() {
        let w = 8;
        let base = wiggle(1.0, 2 * w);
        let cands: Vec<Vec<f64>> = (1..=4).map(|k| wiggle(k as f64 * 3.1, w)).collect();
        let y = wiggle(5.0, 48);
        let data = MultiSeries::from_rows(&[y]).unwrap();
        let mut bs = BaseSignal::new(w);
        for (slot, chunk) in base.chunks(w).enumerate() {
            bs.apply_insert(slot, chunk, 0).unwrap();
        }
        let config = SbrConfig::new(1_000, 1_000).with_w(w);
        let mut buf = Vec::new();
        let refs: Vec<&[f64]> = cands.iter().map(Vec::as_slice).collect();
        let x_full = bs.flat_with_appended(&refs, &mut buf).to_vec();
        let cache = ProbeCache::new(&x_full, &data, &config, w, bs.len());

        // The same interval across every probe: one entry, folds extended
        // lazily, never recomputed.
        for pos in 0..=cands.len() {
            let mut iv = Interval::unfitted(0, 12);
            cache.oracle(pos).fit(&mut iv);
        }
        // And asked again in reverse: pure prefix-min lookups.
        for pos in (0..=cands.len()).rev() {
            let mut iv = Interval::unfitted(0, 12);
            cache.oracle(pos).fit(&mut iv);
        }
        let fp = cache.footprint();
        assert_eq!(fp.entries, 1, "one (start, len) entry");
        assert_eq!(
            fp.folded,
            cands.len() + 1,
            "one fold per probe position, no duplicates"
        );
        assert!(fp.bytes > 0);
    }

    /// The sweep's per-length window tables are part of the cache's
    /// footprint: a length's table is counted when that length is first
    /// swept, and sweeping it again at another start adds no table bytes.
    #[test]
    fn footprint_counts_each_window_table_once() {
        let w = 8;
        let base = wiggle(2.0, 16 * w);
        let cands: Vec<Vec<f64>> = (1..=4).map(|k| wiggle(k as f64 * 1.7, w)).collect();
        let data = MultiSeries::from_rows(&[wiggle(9.0, 48)]).unwrap();
        let mut bs = BaseSignal::new(w);
        for (slot, chunk) in base.chunks(w).enumerate() {
            bs.apply_insert(slot, chunk, 0).unwrap();
        }
        let config = SbrConfig::new(1_000, 1_000).with_w(w);
        let mut buf = Vec::new();
        let refs: Vec<&[f64]> = cands.iter().map(Vec::as_slice).collect();
        let x_full = bs.flat_with_appended(&refs, &mut buf).to_vec();
        let cache = ProbeCache::new(&x_full, &data, &config, w, bs.len());
        // Σx and the spread of every shift of a `len`-long window.
        let table = |len: usize| (x_full.len() - len + 1) * 2 * std::mem::size_of::<f64>();
        let fit = |start: usize, len: usize| {
            let mut iv = Interval::unfitted(start, len);
            cache.oracle(cands.len()).fit(&mut iv);
        };

        let empty = cache.footprint().bytes;
        fit(0, 12);
        let first = cache.footprint().bytes;
        assert!(first - empty >= table(12), "{empty} -> {first}");

        let tables = cache.ctx.window_stats_bytes();
        fit(20, 12);
        assert_eq!(cache.ctx.window_stats_bytes(), tables, "len 12 swept again");
        let repeat = cache.footprint().bytes;
        assert!(repeat > first, "the new (start, len) entry is counted");
        assert!(repeat - first < table(12), "{first} -> {repeat}");

        fit(0, 13);
        assert!(cache.footprint().bytes - repeat >= table(13));
    }
}
