//! Differential suite: the compressed-domain [`QueryEngine`] vs. the
//! decode-then-scan oracle [`common::reference_aggregate`].
//!
//! Min/max must agree **bit for bit** on every range — the moment
//! builders evaluate the decoder's exact floating-point expressions, so
//! there is no tolerance to hide behind. Sums are accumulated in a
//! different association order (per-interval moments merged over aligned
//! chunk blocks vs. one long left-to-right fold), so sum/avg get a 1e-9
//! relative tolerance. The contract must hold across error metrics, search
//! strategies (binary and exhaustive), the fall-back switch, a frozen
//! base, a chunk count that is not a power of two, and a
//! persisted-then-recovered base-station index.

mod common;

use common::{reference_aggregate, reference_fold, reference_series};
use sbr_repro::core::{
    codec, Aggregate, Frame, QueryEngine, RangeAggregate, SbrConfig, SbrEncoder, Transmission,
};
use sbr_repro::sensor_net::{BaseStation, Receipt};

/// `n_signals` drifting signals chunked into `chunks` batches of `m`.
fn chunked(n_signals: usize, m: usize, chunks: usize, seed: f64) -> Vec<Vec<Vec<f64>>> {
    (0..chunks)
        .map(|c| {
            (0..n_signals)
                .map(|s| {
                    (0..m)
                        .map(|i| {
                            let t = (c * m + i) as f64;
                            (t * 0.13 + s as f64 + seed).sin() * 6.0
                                + (t * 0.011).cos() * 2.0
                                + c as f64 * 0.4
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn encode_stream(files: &[Vec<Vec<f64>>], config: SbrConfig) -> Vec<Transmission> {
    let n = files[0].len();
    let m = files[0][0].len();
    let mut enc = SbrEncoder::new(n, m, config).expect("config");
    files
        .iter()
        .map(|rows| enc.encode(rows).expect("encode"))
        .collect()
}

/// Assert the engine and the decode-then-scan oracle agree on `[t0, t1)`:
/// count and min/max exact (bit for bit), sum/avg within 1e-9 relative.
fn assert_agree(
    engine: &mut QueryEngine,
    txs: &[Transmission],
    signal: usize,
    t0: usize,
    t1: usize,
) {
    let slow = reference_aggregate(txs, signal, t0, t1);
    assert_agree_with(engine, &slow, signal, t0, t1);
}

/// [`assert_agree`] against an oracle answer already folded.
fn assert_agree_with(
    engine: &mut QueryEngine,
    slow: &RangeAggregate,
    signal: usize,
    t0: usize,
    t1: usize,
) {
    let fast = engine.aggregate(signal, t0, t1).expect("engine aggregate");
    assert_eq!(fast.count, slow.count, "count [{t0}, {t1})");
    assert_eq!(
        fast.min.to_bits(),
        slow.min.to_bits(),
        "min differs on [{t0}, {t1}): {} vs {}",
        fast.min,
        slow.min
    );
    assert_eq!(
        fast.max.to_bits(),
        slow.max.to_bits(),
        "max differs on [{t0}, {t1}): {} vs {}",
        fast.max,
        slow.max
    );
    let tol = 1e-9 * slow.sum.abs().max(1.0);
    assert!(
        (fast.sum - slow.sum).abs() <= tol,
        "sum differs on [{t0}, {t1}): {} vs {}",
        fast.sum,
        slow.sum
    );
    let atol = 1e-9 * slow.avg.abs().max(1.0);
    assert!(
        (fast.avg - slow.avg).abs() <= atol,
        "avg differs on [{t0}, {t1}): {} vs {}",
        fast.avg,
        slow.avg
    );
    // The scalar entry points share aggregate()'s plan: bit-exact.
    for (agg, want) in [
        (Aggregate::Sum, fast.sum),
        (Aggregate::Avg, fast.avg),
        (Aggregate::Min, fast.min),
        (Aggregate::Max, fast.max),
    ] {
        let got = engine.query(signal, t0, t1, agg).expect("engine query");
        assert_eq!(got.to_bits(), want.to_bits(), "{agg:?} vs aggregate()");
    }
}

#[test]
fn chunk_aligned_ranges_are_bit_exact() {
    let m = 64;
    let files = chunked(3, m, 6, 0.0);
    let txs = encode_stream(&files, SbrConfig::new(80, 48));
    let mut engine = QueryEngine::from_transmissions(&txs).expect("index");
    for signal in 0..3 {
        for c0 in 0..6 {
            for c1 in (c0 + 1)..=6 {
                assert_agree(&mut engine, &txs, signal, c0 * m, c1 * m);
            }
        }
    }
}

#[test]
fn split_ranges_agree_within_the_documented_bound() {
    let m = 64;
    let files = chunked(2, m, 5, 1.7);
    let txs = encode_stream(&files, SbrConfig::new(60, 48));
    let mut engine = QueryEngine::from_transmissions(&txs).expect("index");
    let total = 5 * m;
    // Deterministic unaligned ranges: single-sample, intra-chunk,
    // boundary-straddling, and nearly-whole-log windows.
    let ranges = [
        (0, 1),
        (m - 1, m + 1),
        (7, 23),
        (m / 2, 3 * m + 11),
        (2 * m - 3, 2 * m + 3),
        (1, total - 1),
        (total - m - 7, total),
    ];
    for signal in 0..2 {
        for &(t0, t1) in &ranges {
            assert_agree(&mut engine, &txs, signal, t0, t1);
        }
    }
}

#[test]
fn block_index_agrees_on_a_non_power_of_two_stream() {
    // 37 chunks: the block index ends in complete blocks of 32, 4 and 1
    // chunks, so ranges cross the ragged edge of every level.
    let (chunks, m) = (37, 32);
    let total = chunks * m;
    let files = chunked(2, m, chunks, 0.4);
    let txs = encode_stream(&files, SbrConfig::new(40, 24));
    let mut engine = QueryEngine::from_transmissions(&txs).expect("index");
    for signal in 0..2 {
        let series = reference_series(&txs, signal);
        let mut check = |t0: usize, t1: usize| {
            assert_agree_with(
                &mut engine,
                &reference_fold(&series[t0..t1]),
                signal,
                t0,
                t1,
            );
        };
        for c0 in 0..chunks {
            for c1 in (c0 + 1)..=chunks {
                check(c0 * m, c1 * m);
            }
        }
        // A seeded sweep of unaligned ranges, cycling through ranges
        // inside one chunk, head-only (unaligned start, aligned end),
        // tail-only (aligned start, unaligned end) and unconstrained ones.
        let mut state = 0x2545_f491_4f6c_dd1d_u64 ^ signal as u64;
        let mut draw = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        for i in 0..400 {
            let t0 = draw(total);
            let c = t0 / m;
            let (t0, t1) = match i % 4 {
                0 => (t0, t0 + 1 + draw((c + 1) * m - t0)),
                1 => (t0, (c + 1 + draw(chunks - c)) * m),
                2 => (c * m, c * m + 1 + draw(total - c * m)),
                _ => (t0, t0 + 1 + draw(total - t0)),
            };
            check(t0, t1);
        }
        for (t0, t1) in [
            (0, 1),
            (1, total - 1),
            (total - 1, total),
            (m - 1, total - m + 1),
        ] {
            check(t0, t1);
        }
    }
}

#[test]
fn agreement_holds_across_metrics_strategies_and_threads() {
    let m = 64;
    let files = chunked(2, m, 4, 0.9);
    let mut exhaustive = SbrConfig::new(70, 48);
    exhaustive.exhaustive_search = true;
    let configs = [
        SbrConfig::new(70, 48).with_metric(sbr_repro::core::ErrorMetric::relative()),
        exhaustive,
        SbrConfig::new(70, 48).without_fallback(),
        SbrConfig::new(70, 48),
        SbrConfig::new(70, 48).frozen_base(),
    ];
    for config in configs {
        let txs = encode_stream(&files, config);
        let mut engine = QueryEngine::from_transmissions(&txs).expect("index");
        for &(t0, t1) in &[
            (0, 4 * m),
            (m, 3 * m),
            (17, 2 * m + 5),
            (3 * m - 1, 3 * m + 1),
        ] {
            assert_agree(&mut engine, &txs, 1, t0, t1);
        }
    }
}

#[test]
fn station_index_agrees_after_recover() {
    let dir = std::env::temp_dir().join(format!("sbr-query-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let m = 64;
    let files = chunked(2, m, 4, 2.3);
    let txs = encode_stream(&files, SbrConfig::new(64, 64));
    {
        let station = BaseStation::with_persistence(&dir);
        for tx in &txs {
            assert_eq!(
                station
                    .receive_frame(9, codec::encode_v2(&Frame::data(0, tx.clone())))
                    .expect("receive"),
                Receipt::Accepted
            );
        }
    }
    // A cold process: the log is re-ingested from disk and the chunk
    // index rebuilt; the fast path must still match both the station's
    // own decode path and the decode-then-scan oracle.
    let station = BaseStation::load(&dir).expect("load");
    for &(t0, t1) in &[(0, 4 * m), (m, 3 * m), (5, 2 * m + 9), (2 * m, 2 * m + 1)] {
        let fast = station.aggregate_range(9, 0, t0, t1).expect("fast");
        let slow = station.aggregate_range_decode(9, 0, t0, t1).expect("slow");
        assert_eq!(fast.count, slow.count);
        assert_eq!(fast.min.to_bits(), slow.min.to_bits());
        assert_eq!(fast.max.to_bits(), slow.max.to_bits());
        assert!((fast.sum - slow.sum).abs() <= 1e-9 * slow.sum.abs().max(1.0));
        let oracle = reference_aggregate(&txs, 0, t0, t1);
        assert_eq!(fast.count, oracle.count);
        assert_eq!(fast.min.to_bits(), oracle.min.to_bits());
        assert_eq!(fast.max.to_bits(), oracle.max.to_bits());
        assert!((fast.sum - oracle.sum).abs() <= 1e-9 * oracle.sum.abs().max(1.0));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
