//! Differential suite for the `Search` probe cache: the cached search must
//! pick the insertion count of the reference `Search` in `tests/common`
//! (one fresh `GetIntervals` per probe) at every batch of a stream, and
//! the encoder built on it must emit the reference's bytes — across error
//! metrics, a narrow and a wide sweep shape, and binary versus exhaustive
//! search. The cache is a pure
//! evaluation-order optimization, never a semantic change.

mod common;

use common::{assert_matches_reference, assert_matches_reference_from, counter, sweep_shapes};
use sbr_repro::core::search::SearchContext;
use sbr_repro::core::{BaseSignal, ErrorMetric, MultiSeries};
use sbr_repro::obs::{MetricsRecorder, Recorder as _};
use std::sync::Arc;

#[test]
fn byte_identical_across_metrics_strategies_and_threads() {
    for (shape, chunks, shape_config) in sweep_shapes() {
        let w = shape_config
            .validate(chunks[0].len(), chunks[0][0].len())
            .expect("valid config");
        for metric in [
            ErrorMetric::Sse,
            ErrorMetric::relative(),
            ErrorMetric::MaxAbs,
        ] {
            for exhaustive in [false, true] {
                let label = format!("{shape}/{metric:?}/exhaustive={exhaustive}");
                let mut config = shape_config.clone().with_metric(metric);
                config.exhaustive_search = exhaustive;
                let rec = Arc::new(MetricsRecorder::new());
                let observed = config.clone().with_recorder(rec.clone());

                // Search alone, over a base that grows by the agreed
                // insertions from batch to batch.
                let mut base = BaseSignal::new(w);
                for (t, rows) in chunks.iter().enumerate() {
                    let data = MultiSeries::from_rows(rows).expect("rectangular batch");
                    let cands = common::get_base(&data, w, config.max_ins(w), metric);
                    let ins = SearchContext::new(&base, &cands, &data, w, &observed).run();
                    assert_eq!(
                        ins,
                        common::Search::new(&base, &cands, &data, w, &config).run(),
                        "[{label}] batch {t}: cached search differs from the reference"
                    );
                    let slots = base
                        .plan_placement(ins, (config.m_base / w).max(ins))
                        .expect("placement fits");
                    for (values, &slot) in cands.iter().zip(&slots) {
                        base.apply_insert(slot, values, t as u64).expect("insert");
                    }
                }
                assert!(
                    counter(&rec.snapshot(), "sbr_core.probe_cache.misses") > 0,
                    "[{label}] the probes must be served through the cache"
                );

                assert_matches_reference(&chunks, observed.clone(), &label);
                // Frozen halfway: a learning encoder transmits its Search's
                // region-swept probe, so only the frozen batches fit against the
                // whole dictionary.
                let frozen_rec = Arc::new(MetricsRecorder::new());
                assert_matches_reference_from(
                    &chunks,
                    observed.with_recorder(frozen_rec.clone()),
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
}
