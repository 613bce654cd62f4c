//! `GetBase` (Algorithm 4): greedy selection of candidate base intervals by
//! marginal benefit.

use crate::config::{BaseBuilder, SbrConfig};
use crate::fit_cache::FitCache;
use crate::metric::ErrorMetric;
use crate::obs::EncodeObs;
use crate::regression;
use crate::series::MultiSeries;

/// Fresh matrix cells fit per blocked `Σx·y` pass in the cached build:
/// 8 independent accumulator chains hide the FP-add latency that bounds a
/// single-accumulator pass (same trick as `xcorr::DOT_BLOCK`, applied
/// across *pairs* instead of shifts).
const PAIR_BLOCK: usize = 8;

/// Split the batch into `K = n/W` non-overlapping candidate base intervals
/// (CBIs) of width `w`. A trailing partial window (when `M` is not a
/// multiple of `W`) is ignored, matching the paper's multiples assumption.
pub fn candidate_intervals(data: &MultiSeries, w: usize) -> Vec<&[f64]> {
    let mut cbis = Vec::new();
    for row in data.rows() {
        for chunk in row.chunks_exact(w) {
            cbis.push(chunk);
        }
    }
    cbis
}

/// The paper's main `GetBase`: keeps the full `K×K` error matrix
/// (`O(n)` floats for `W = √n`) and re-adjusts marginal benefits after every
/// selection.
///
/// The benefit of candidate `i` is `Σ_j max(0, bestErr(j) − err(i→j))`,
/// where `bestErr(j)` starts at the plain linear-regression error of `j` and
/// shrinks as selected candidates cover `j` better. This is the adjustment
/// of Figure 4: once a feature is stored, near-duplicates lose their value.
///
/// ```
/// use sbr_core::{get_base::get_base, ErrorMetric, MultiSeries};
/// // A wiggle repeated with different scales: one dictionary entry
/// // explains everything.
/// let p: Vec<f64> = (0..8).map(|i| (i as f64 * 1.3).sin() * 5.0).collect();
/// let mut row = p.clone();
/// row.extend(p.iter().map(|v| 3.0 * v - 2.0));
/// let data = MultiSeries::from_rows(&[row]).unwrap();
/// let base = get_base(&data, 8, 1, ErrorMetric::Sse);
/// assert_eq!(base.len(), 1);
/// assert_eq!(base[0].len(), 8);
/// ```
pub fn get_base(
    data: &MultiSeries,
    w: usize,
    max_ins: usize,
    metric: ErrorMetric,
) -> Vec<Vec<f64>> {
    get_base_cached(
        data,
        w,
        max_ins,
        metric,
        1,
        &EncodeObs::default(),
        &mut FitCache::new(),
    )
}

/// [`get_base`] with the error matrix built *through* a
/// [`FitCache`] memo — the incremental `GetBase` path.
///
/// Three layers of reuse, none of which changes the output:
///
/// 1. **Within the matrix build** (SSE only), each pair's fit is factored
///    into per-window moments (`Σx`, `Σx²` — computed once per CBI) plus a
///    single `Σx·y` pass per pair, instead of the fused five-accumulator
///    loop of [`regression::fit_sse`]. Each accumulator still sees the
///    identical sequence of adds in the identical order, so the factored
///    errors are bit-identical to the fused ones.
/// 2. **Across greedy steps**, the benefit scans and the post-selection
///    `best_err` refresh are pure re-reductions over the memoized matrix —
///    no pair is ever fit twice in one batch.
/// 3. **Across transmission batches**, pair errors are carried in `cache`
///    keyed by window *content* (see [`FitCache`]): windows repeated from
///    the previous batch skip their `Σx·y` passes entirely.
///
/// `obs` reports the reuse through `sbr_core.get_base.fit_cache.{hits,
/// misses,bytes}`: a hit is any pair-error evaluation served by the memo
/// (carried-over build cells plus every greedy re-reduction read), a miss
/// is a fresh fit. The `K×K` matrix is built row-parallel on up to
/// `threads` scoped workers; rows are merged in index order, so every
/// thread count returns identical output. A fresh `cache` still memoizes
/// within the batch (layers 1–2) but carries nothing over.
#[allow(clippy::too_many_arguments)]
pub fn get_base_cached(
    data: &MultiSeries,
    w: usize,
    max_ins: usize,
    metric: ErrorMetric,
    threads: usize,
    obs: &EncodeObs,
    cache: &mut FitCache,
) -> Vec<Vec<f64>> {
    let cbis = candidate_intervals(data, w);
    let k = cbis.len();
    if k == 0 || max_ins == 0 {
        return Vec::new();
    }

    cache.begin_batch(metric);
    let mut ids: Vec<u32> = Vec::with_capacity(k);
    // Carried-over windows are the only ones that can have memoized pairs;
    // cells touching a fresh window skip the lookup entirely.
    let mut carried: Vec<bool> = Vec::with_capacity(k);
    for c in &cbis {
        let (id, known) = cache.intern(c);
        ids.push(id);
        carried.push(known);
    }

    // Per-window moments for the factored SSE fit: the same accumulation
    // order as `fit_sse`'s fused loop, so the factored fit is bit-identical.
    let moments: Vec<(f64, f64)> = if metric == ErrorMetric::Sse {
        cbis.iter()
            .map(|c| {
                let mut sum = 0.0;
                let mut sum_sq = 0.0;
                for &v in *c {
                    sum += v;
                    sum_sq += v * v;
                }
                (sum, sum_sq)
            })
            .collect()
    } else {
        Vec::new()
    };
    let fit_pair = |i: usize, j: usize| -> f64 {
        if metric == ErrorMetric::Sse {
            let (sum_x, sum_x2) = moments[i];
            let (sum_y, sum_y2) = moments[j];
            let mut sum_xy = 0.0;
            for (xi, yi) in cbis[i].iter().zip(cbis[j]) {
                sum_xy += xi * yi;
            }
            regression::fit_sse_with_stats(w, sum_x, sum_x2, sum_y, sum_y2, sum_xy).err
        } else {
            regression::fit(metric, cbis[i], cbis[j]).err
        }
    };
    // Fresh SSE cells are fit `PAIR_BLOCK` data windows at a time: one
    // pass over the base window feeds 8 independent `Σx·y` accumulators,
    // hiding the FP-add latency a single accumulator chain serializes on.
    // Each lane still sums its own pair in ascending index order, so every
    // cell is bit-identical to the scalar `fit_pair` (and to the fused
    // `fit_sse` loop).
    let fit_block = |i: usize, js: &[usize]| -> [f64; PAIR_BLOCK] {
        debug_assert_eq!(js.len(), PAIR_BLOCK);
        let xi = cbis[i];
        let n = xi.len();
        let ys: [&[f64]; PAIR_BLOCK] = std::array::from_fn(|b| &cbis[js[b]][..n]);
        let mut sums = [0.0f64; PAIR_BLOCK];
        for (t, &xv) in xi.iter().enumerate() {
            for b in 0..PAIR_BLOCK {
                sums[b] += xv * ys[b][t];
            }
        }
        let (sum_x, sum_x2) = moments[i];
        std::array::from_fn(|b| {
            let (sum_y, sum_y2) = moments[js[b]];
            regression::fit_sse_with_stats(w, sum_x, sum_x2, sum_y, sum_y2, sums[b]).err
        })
    };

    let mut best_err: Vec<f64> = cbis
        .iter()
        .map(|c| regression::fit_linear(metric, c).err)
        .collect();
    // Row build through the memo: workers read the cache immutably and
    // report which cells they had to fit fresh; misses are folded back in
    // serially afterwards (ids are per-content, so two equal-content CBIs
    // in one batch share their row/column cells too).
    let cache_ro: &FitCache = cache;
    let rows: Vec<Vec<(f64, bool)>> = crate::par::par_map(k, threads, &obs.par, |i| {
        let mut row: Vec<(f64, bool)> = Vec::with_capacity(k);
        let mut fresh_js: Vec<usize> = Vec::with_capacity(k);
        for j in 0..k {
            if i == j {
                row.push((0.0, false));
            } else if carried[i] && carried[j] {
                match cache_ro.get(ids[i], ids[j]) {
                    Some(e) => row.push((e, false)),
                    None => {
                        row.push((f64::NAN, true));
                        fresh_js.push(j);
                    }
                }
            } else {
                row.push((f64::NAN, true));
                fresh_js.push(j);
            }
        }
        if metric == ErrorMetric::Sse {
            let mut b = 0;
            while b + PAIR_BLOCK <= fresh_js.len() {
                let js = &fresh_js[b..b + PAIR_BLOCK];
                let errs = fit_block(i, js);
                for (l, &j) in js.iter().enumerate() {
                    row[j].0 = errs[l];
                }
                b += PAIR_BLOCK;
            }
            for &j in &fresh_js[b..] {
                row[j].0 = fit_pair(i, j);
            }
        } else {
            for &j in &fresh_js {
                row[j].0 = fit_pair(i, j);
            }
        }
        row
    });
    let mut build_hits = 0u64;
    let mut build_misses = 0u64;
    let mut err: Vec<f64> = Vec::with_capacity(k * k);
    for (i, row) in rows.into_iter().enumerate() {
        for (j, (e, fresh)) in row.into_iter().enumerate() {
            if i != j {
                if fresh {
                    build_misses += 1;
                } else {
                    build_hits += 1;
                }
            }
            err.push(e);
        }
    }
    obs.fit_cache_misses.add(build_misses);

    let mut selected_flags = vec![false; k];
    let mut selected: Vec<Vec<f64>> = Vec::with_capacity(max_ins.min(k));
    let mut memo_reads = build_hits;
    for _ in 0..max_ins.min(k) {
        let mut best_i = None;
        let mut best_benefit = 0.0f64;
        for i in 0..k {
            if selected_flags[i] {
                continue;
            }
            let mut benefit = 0.0;
            for j in 0..k {
                let e = err[i * k + j];
                if e < best_err[j] {
                    benefit += best_err[j] - e;
                }
            }
            memo_reads += k as u64;
            if best_i.is_none() || benefit > best_benefit {
                best_i = Some(i);
                best_benefit = benefit;
            }
        }
        let Some(c) = best_i else { break };
        selected_flags[c] = true;
        selected.push(cbis[c].to_vec());
        for j in 0..k {
            let e = err[c * k + j];
            if e < best_err[j] {
                best_err[j] = e;
            }
        }
        memo_reads += k as u64;
    }
    // Hand the whole matrix to the cache in one move — the next batch's
    // carried windows serve their pairs straight out of it.
    cache.store_matrix(&ids, err);
    obs.fit_cache_hits.add(memo_reads);
    obs.fit_cache_bytes.set(cache.footprint_bytes() as f64);
    selected
}

/// [`BaseBuilder`] wrapping [`get_base_cached`] — the default construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct GetBaseBuilder;

impl BaseBuilder for GetBaseBuilder {
    fn build(
        &self,
        data: &MultiSeries,
        w: usize,
        max_ins: usize,
        config: &SbrConfig,
        cache: &mut FitCache,
    ) -> Vec<Vec<f64>> {
        get_base_cached(
            data,
            w,
            max_ins,
            config.metric,
            config.resolved_threads(),
            &config.obs,
            cache,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(rows: &[Vec<f64>]) -> MultiSeries {
        MultiSeries::from_rows(rows).unwrap()
    }

    /// A wiggly pattern no straight line approximates well.
    fn wiggle(seed: f64, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 * 1.3 + seed).sin() * 5.0 + (i as f64 * 0.7).cos() * 3.0)
            .collect()
    }

    #[test]
    fn candidates_cover_full_windows_only() {
        let data = series(&[vec![0.0; 10], vec![0.0; 10]]);
        let cbis = candidate_intervals(&data, 4);
        assert_eq!(cbis.len(), 4); // 2 per row, trailing 2 samples dropped
        for c in cbis {
            assert_eq!(c.len(), 4);
        }
    }

    #[test]
    fn picks_the_shared_pattern() {
        // Rows = affine images of one wiggle + one pure line. The wiggle
        // window must be chosen first: it explains all wiggle windows, while
        // the line windows are already perfect under the fall-back.
        let p = wiggle(0.0, 8);
        let row1: Vec<f64> = p.iter().map(|v| 2.0 * v + 1.0).collect();
        let row2: Vec<f64> = p.iter().map(|v| -v + 3.0).collect();
        let line: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let data = series(&[row1.clone(), row2, line]);
        let base = get_base(&data, 8, 1, ErrorMetric::Sse);
        assert_eq!(base.len(), 1);
        // The selected interval must be one of the wiggle images (they all
        // explain each other exactly), not the line.
        let f = regression::fit_sse(&base[0], &row1);
        assert!(f.err < 1e-9, "selected base must explain the wiggles");
    }

    #[test]
    fn adjustment_avoids_near_duplicates() {
        // Two distinct wiggles, two windows each. With maxIns = 2 the greedy
        // must pick one window of *each* wiggle, not two of the same.
        let w1 = wiggle(0.0, 8);
        let w2: Vec<f64> = (0..8).map(|i| ((i * i) as f64 * 0.9).sin() * 4.0).collect();
        let mut row1 = w1.clone();
        row1.extend(w1.iter().map(|v| 3.0 * v - 2.0));
        let mut row2 = w2.clone();
        row2.extend(w2.iter().map(|v| -2.0 * v + 1.0));
        let data = series(&[row1, row2]);
        let base = get_base(&data, 8, 2, ErrorMetric::Sse);
        assert_eq!(base.len(), 2);
        let explains_w1 = regression::fit_sse(&base[0], &w1).err < 1e-9
            || regression::fit_sse(&base[1], &w1).err < 1e-9;
        let explains_w2 = regression::fit_sse(&base[0], &w2).err < 1e-9
            || regression::fit_sse(&base[1], &w2).err < 1e-9;
        assert!(explains_w1 && explains_w2);
    }

    #[test]
    fn zero_max_ins_returns_nothing() {
        let data = series(&[wiggle(1.0, 16)]);
        assert!(get_base(&data, 4, 0, ErrorMetric::Sse).is_empty());
    }

    #[test]
    fn perfectly_linear_data_yields_zero_benefit_but_still_selects() {
        // All windows are lines: every benefit is 0; the greedy still
        // returns maxIns intervals (Algorithm 4 always pops maxIns times).
        // The SBR Search step is what rejects useless insertions.
        let line: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let data = series(&[line]);
        let base = get_base(&data, 4, 2, ErrorMetric::Sse);
        assert_eq!(base.len(), 2);
    }

    #[test]
    fn works_under_relative_metric() {
        let p = wiggle(2.0, 8);
        let row: Vec<f64> = p.iter().map(|v| 100.0 + 10.0 * v).collect();
        let data = series(&[row]);
        let base = get_base(&data, 8, 1, ErrorMetric::relative());
        assert_eq!(base.len(), 1);
    }

    #[test]
    fn builder_matches_get_base_across_threads_and_cache_states() {
        use crate::config::BaseBuilder as _;
        let data = series(&[wiggle(0.5, 16), wiggle(2.5, 16)]);
        let expected = get_base(&data, 4, 2, ErrorMetric::Sse);
        let mut cache = FitCache::new();
        for threads in [1, 4, 1] {
            let config = SbrConfig::new(100, 100).with_threads(threads);
            let built = GetBaseBuilder.build(&data, 4, 2, &config, &mut cache);
            assert_eq!(built, expected, "threads {threads}, warm cache");
        }
    }
}
