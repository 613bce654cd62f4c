//! Differential suite for the incremental `GetBase` fit cache: the cached
//! matrix build must pick exactly the candidates of the reference `K×K`
//! greedy in `tests/common`, batch after batch with one memo carried
//! across the stream, and the encoder built on it must emit the
//! reference's bytes — across error metrics and a narrow and a wide sweep
//! shape. The memo is a pure
//! evaluation-order optimization, never a semantic change.

mod common;

use common::{assert_matches_reference, assert_matches_reference_from, counter, sweep_shapes};
use sbr_repro::core::get_base::get_base_cached;
use sbr_repro::core::{ErrorMetric, FitCache, MultiSeries};
use sbr_repro::obs::{MetricsRecorder, Recorder as _};
use std::sync::Arc;

#[test]
fn byte_identical_across_metrics_strategies_and_threads() {
    for (shape, chunks, shape_config) in sweep_shapes() {
        let w = shape_config
            .validate(chunks[0].len(), chunks[0][0].len())
            .expect("valid config");
        let max_ins = shape_config.max_ins(w);
        for metric in [
            ErrorMetric::Sse,
            ErrorMetric::relative(),
            ErrorMetric::MaxAbs,
        ] {
            let label = format!("{shape}/{metric:?}");
            let rec = Arc::new(MetricsRecorder::new());
            let config = shape_config
                .clone()
                .with_metric(metric)
                .with_recorder(rec.clone());

            // GetBase alone, one memo carried across every batch.
            let mut cache = FitCache::new();
            for (t, rows) in chunks.iter().enumerate() {
                let data = MultiSeries::from_rows(rows).expect("rectangular batch");
                assert_eq!(
                    get_base_cached(&data, w, max_ins, metric, &config.obs, &mut cache),
                    common::get_base(&data, w, max_ins, metric),
                    "[{label}] batch {t}: cached GetBase differs from the reference"
                );
            }
            let snap = rec.snapshot();
            assert!(
                counter(&snap, "sbr_core.get_base.fit_cache.misses") > 0,
                "[{label}] the memo must be filled"
            );
            assert!(
                counter(&snap, "sbr_core.get_base.fit_cache.hits") > 0,
                "[{label}] the memo must be read"
            );

            // And the whole encoder, whose own memo persists likewise.
            assert_matches_reference(&chunks, config.clone(), &label);
            // Frozen halfway: a learning encoder transmits its Search's
            // region-swept probe, so only the frozen batches fit against the
            // whole dictionary.
            let frozen_rec = Arc::new(MetricsRecorder::new());
            assert_matches_reference_from(
                &chunks,
                config.with_recorder(frozen_rec.clone()),
                Some(chunks.len() / 2),
                &format!("{label}/frozen"),
            );

            // The wide shape's frozen half must really sweep the whole
            // dictionary (SSE is the metric with a blocked sweep).
            if shape == "wide" && matches!(metric, ErrorMetric::Sse) {
                assert!(
                    counter(&frozen_rec.snapshot(), "sbr_core.best_map.direct_sweeps") > 0,
                    "[{label}] the frozen half must sweep the whole dictionary"
                );
            }
        }
    }
}
