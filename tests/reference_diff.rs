//! Reference-encoder differential suite: every encoder configuration must
//! emit a transmission stream **byte-identical** to the straight-line
//! reference encoder in `tests/common` (the paper's algorithms with direct
//! sweeps, no caches and no threads).
//!
//! The product's `Search` probe cache, `GetBase` fit cache and blocked
//! shift sweep only reorder evaluation; this suite holds them to that
//! across error metrics, exhaustive search, a frozen
//! base, the fall-back switch, an error target and a wide-window shape
//! whose frozen batches sweep the whole dictionary. Counter-based tests
//! pin the work the caches claim to save.

mod common;

use common::{assert_matches_reference, assert_matches_reference_from, counter, stream_chunks};
use sbr_repro::core::base_signal::BaseSignal;
use sbr_repro::core::get_intervals::FitOracle as _;
use sbr_repro::core::search::SearchContext;
use sbr_repro::core::{ErrorMetric, Interval, MultiSeries, ProbeCache, SbrConfig};
use sbr_repro::obs::{MetricsRecorder, Recorder as _};
use std::sync::Arc;

#[test]
fn byte_identical_across_metrics_and_threads() {
    let chunks = stream_chunks(5, 2, 64);
    for metric in [
        ErrorMetric::Sse,
        ErrorMetric::relative(),
        ErrorMetric::MaxAbs,
    ] {
        let config = SbrConfig::new(72, 64).with_metric(metric);
        assert_matches_reference(&chunks, config, &format!("{metric:?}"));
    }
}

#[test]
fn byte_identical_on_tie_heavy_data() {
    // Exact ties are where an evaluation-order optimization would show:
    // a ramp and a constant (every benefit and many shift errors equal),
    // a period-8 square wave whose windows repeat verbatim, and a wiggle
    // alternating with its mirror image (distinct windows that explain
    // each other equally well, so GetBase benefits tie).
    let wiggle: Vec<f64> = (0..8).map(|i| (i as f64 * 1.3).sin() * 5.0).collect();
    let chunks: Vec<Vec<Vec<f64>>> = (0..4)
        .map(|c| {
            vec![
                (0..64).map(|i| (i + 64 * c) as f64).collect(),
                vec![c as f64; 64],
                (0..64)
                    .map(|i| if (i / 4) % 2 == 0 { 3.0 } else { -1.0 })
                    .collect(),
                (0..64)
                    .map(|i| wiggle[i % 8] * if (i / 8 + c) % 2 == 0 { 1.0 } else { -1.0 })
                    .collect(),
            ]
        })
        .collect();
    for metric in [ErrorMetric::Sse, ErrorMetric::MaxAbs] {
        let config = SbrConfig::new(128, 64).with_w(8).with_metric(metric);
        assert_matches_reference(&chunks, config, &format!("ties/{metric:?}"));
    }
}

#[test]
fn byte_identical_on_exhaustive_search() {
    let chunks = stream_chunks(4, 2, 64);
    let mut config = SbrConfig::new(80, 80);
    config.exhaustive_search = true;
    assert_matches_reference(&chunks, config, "exhaustive");
}

#[test]
fn byte_identical_without_fallback_and_with_error_target() {
    let chunks = stream_chunks(3, 2, 64);
    let no_fallback = SbrConfig::new(72, 64).without_fallback();
    assert_matches_reference(&chunks, no_fallback, "no-fallback");
    let mut targeted = SbrConfig::new(96, 64);
    targeted.error_target = Some(50.0);
    assert_matches_reference(&chunks, targeted, "error-target");
}

#[test]
fn byte_identical_with_a_frozen_base() {
    let chunks = stream_chunks(5, 2, 64);
    assert_matches_reference(&chunks, SbrConfig::new(72, 64).frozen_base(), "frozen");
    // Learn a dictionary first, then freeze it mid-stream (§4.4).
    let config = SbrConfig::new(72, 64);
    assert_matches_reference_from(&chunks, config, Some(2), "frozen@2");
}

#[test]
fn byte_identical_when_the_cost_model_picks_fft() {
    // Wide base intervals (W = 64) and a 512-value dictionary: once the
    // base holds four slots, a `2W`-long window faces hundreds of shifts
    // (the shape that once sent the sweep down an FFT path). The error
    // target is loose enough that those windows are never split, so the
    // whole-dictionary fits are the transmitted ones. A learning encoder
    // transmits its Search's region-swept probe, so the whole-dictionary
    // sweep is reached by freezing the base halfway: the frozen batches
    // fit against the full learned dictionary.
    let chunks = stream_chunks(6, 2, 128);
    let mut config = SbrConfig::new(400, 512).with_w(64);
    config.error_target = Some(1e4);
    assert_matches_reference(&chunks, config.clone(), "wide");
    let rec = Arc::new(MetricsRecorder::new());
    assert_matches_reference_from(
        &chunks,
        config.with_recorder(rec.clone()),
        Some(chunks.len() / 2),
        "wide/frozen",
    );
    let sweeps = counter(&rec.snapshot(), "sbr_core.best_map.direct_sweeps");
    assert!(
        sweeps > 0,
        "the frozen half must sweep the whole dictionary"
    );
}

#[test]
fn probe_cache_fits_match_the_reference_on_every_window() {
    // The data is an affine image of the full probe dictionary, so every
    // window's exact match sits at its own offset — including the windows
    // that straddle the base/candidate and candidate/candidate seams,
    // where the cache's region partition must not drop a shift.
    let w = 8;
    let mut base = BaseSignal::new(w);
    for slot in 0..3 {
        let vals: Vec<f64> = (0..w)
            .map(|i| ((slot * w + i) as f64 * 0.7).sin() * 3.0 + slot as f64)
            .collect();
        base.apply_insert(slot, &vals, 0).unwrap();
    }
    let cands: Vec<Vec<f64>> = (0..3)
        .map(|k| {
            (0..w)
                .map(|i| ((k * 5 + i) as f64 * 1.9).cos() * 4.0)
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = cands.iter().map(Vec::as_slice).collect();
    let mut buf = Vec::new();
    let x_full = base.flat_with_appended(&refs, &mut buf).to_vec();
    let y: Vec<f64> = x_full.iter().map(|v| 2.0 * v - 1.0).collect();
    let data = MultiSeries::from_rows(&[y]).unwrap();
    for metric in [ErrorMetric::Sse, ErrorMetric::MaxAbs] {
        for allow_fallback in [true, false] {
            let mut config = SbrConfig::new(1_000, 1_000).with_w(w).with_metric(metric);
            config.allow_linear_fallback = allow_fallback;
            let cache = ProbeCache::new(&x_full, &data, &config, w, base.len());
            for pos in 0..=cands.len() {
                let x_pos = &x_full[..base.len() + pos * w];
                let reference = common::DirectOracle::new(x_pos, data.flat(), &config, w);
                for len in 1..=2 * w {
                    for start in 0..=x_full.len() - len {
                        let mut want = Interval::unfitted(start, len);
                        reference.fit(&mut want);
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
                            "{metric:?} fallback={allow_fallback} pos={pos} ({start}, {len})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn cached_exhaustive_search_does_one_getintervals_of_base_fit_work() {
    // A non-empty base plus ranked candidates, searched exhaustively with
    // one thread so the accounting is exact.
    let w = 8;
    let data = {
        let row: Vec<f64> = (0..192)
            .map(|i| {
                let t = i as f64;
                (t * 1.1).sin() * 4.0 + (t * 0.31).cos() * 2.0 + ((i * 5) % 7) as f64
            })
            .collect();
        MultiSeries::from_rows(&[row]).unwrap()
    };
    let mut base = BaseSignal::new(w);
    for slot in 0..3 {
        let vals: Vec<f64> = (0..w)
            .map(|i| ((slot * w + i) as f64 * 0.7).sin() * 3.0)
            .collect();
        base.apply_insert(slot, &vals, 0).unwrap();
    }
    let cands = common::get_base(&data, w, 10, ErrorMetric::Sse);
    assert_eq!(
        cands,
        sbr_repro::core::get_base::get_base(&data, w, 10, ErrorMetric::Sse),
        "GetBase must match the reference K×K greedy"
    );
    assert!(cands.len() >= 4, "need a real candidate set");

    let mut config = SbrConfig::new(240, 800).with_w(w);
    config.exhaustive_search = true;

    let rec = Arc::new(MetricsRecorder::new());
    let observed = config.clone().with_recorder(rec.clone());
    let mut search = SearchContext::new(&base, &cands, &data, w, &observed);
    let ins = search.run();
    let probes = search.probes();
    let cached = rec.snapshot();
    let mut reference = common::Search::new(&base, &cands, &data, w, &config);
    assert_eq!(
        ins,
        reference.run(),
        "same insertion count as the reference"
    );
    assert!(probes > cands.len(), "exhaustive search probed every count");

    // The cached search never runs a full-dictionary sweep: all its fit
    // work is region-restricted.
    let cached_full = counter(&cached, "sbr_core.best_map.direct_sweeps");
    assert_eq!(
        cached_full, 0,
        "cached probes must not re-sweep the dictionary"
    );

    // Base-prefix fit work: at most one sweep per distinct (start, len) —
    // i.e. at most one full GetIntervals-equivalent across ALL probes,
    // where the reference pays one sweep per interval per probe.
    let base_sweeps = counter(&cached, "sbr_core.best_map.base_direct_sweeps");
    let entries = counter(&cached, "sbr_core.probe_cache.misses");
    assert!(
        base_sweeps <= entries,
        "base prefix swept {base_sweeps} times for {entries} cache entries"
    );
    assert!(
        reference.sweeps >= 2 * base_sweeps,
        "sharing must beat per-probe re-fitting: reference {} full sweeps \
         vs cached {base_sweeps} base-region sweeps",
        reference.sweeps
    );
    // Each candidate region is swept at most once per entry.
    let cand_sweeps = counter(&cached, "sbr_core.best_map.cand_direct_sweeps");
    assert!(
        cand_sweeps <= entries * cands.len() as u64,
        "{cand_sweeps} candidate sweeps exceeds one region pass per candidate \
         per entry ({entries} × {})",
        cands.len()
    );
    // And the cache actually got re-used: hits are fits answered without
    // any new sweeping.
    assert!(
        counter(&cached, "sbr_core.probe_cache.hits") > 0,
        "exhaustive probing must hit the cache"
    );
}

#[test]
fn repeated_batches_are_served_from_the_carry_over() {
    // The same batch encoded twice in a row: every window of batch 2 was
    // interned in batch 1, so the second matrix build must fit nothing
    // fresh — misses stop growing after the first batch.
    let one = stream_chunks(1, 2, 64).remove(0);
    let chunks = vec![one.clone(), one];
    let rec = Arc::new(MetricsRecorder::new());
    let config = SbrConfig::new(72, 64);
    assert_matches_reference(&chunks, config.with_recorder(rec.clone()), "carry-over");
    let snap = rec.snapshot();
    let hits = counter(&snap, "sbr_core.get_base.fit_cache.hits");
    let misses = counter(&snap, "sbr_core.get_base.fit_cache.misses");
    assert!(hits > 0, "memo must be read");
    // With m=64 and W=⌊√128⌋=11, K = 2·⌊64/11⌋ = 10: one batch's
    // off-diagonal cells are K²−K = 90. Two batches of fresh content would
    // be 180 misses; carry-over must halve that exactly.
    assert_eq!(
        misses, 90,
        "identical second batch must re-fit nothing (one batch's worth of misses only)"
    );
    let bytes = snap
        .gauge("sbr_core.get_base.fit_cache.bytes")
        .unwrap_or(0.0);
    assert!(bytes > 0.0, "footprint gauge must be reported");
}
