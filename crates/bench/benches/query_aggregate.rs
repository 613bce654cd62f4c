//! Compressed-domain range-aggregate benchmarks: cold index build + first
//! query, warm plan-cache steady state, plan-cache misses over long ranges
//! of a 256-chunk index, and a decode-then-scan baseline (reconstruct the
//! log, fold the range) — the Criterion-grade counterpart of
//! `pipebench/`'s `history_query` workload.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sbr_core::{Decoder, QueryEngine, SbrConfig, SbrEncoder, Transmission};

fn files(n_signals: usize, m: usize) -> Vec<Vec<f64>> {
    (0..n_signals)
        .map(|s| {
            (0..m)
                .map(|i| ((i as f64 * 0.11) + s as f64).sin() * 5.0 + (i % 29) as f64 * 0.3)
                .collect()
        })
        .collect()
}

/// A `chunks`-chunk stream of 4 signals × `m` samples, drifting per chunk
/// so the base signal keeps evolving (realistic update-log shape).
fn stream(m: usize, chunks: usize) -> Vec<Transmission> {
    let n_signals = 4;
    let mut enc =
        SbrEncoder::new(n_signals, m, SbrConfig::new(n_signals * m / 5, m)).expect("config");
    (0..chunks)
        .map(|c| {
            let mut rows = files(n_signals, m);
            for row in &mut rows {
                for (i, v) in row.iter_mut().enumerate() {
                    *v += (c as f64 * 0.7) + (i as f64 * 0.01 * c as f64).cos();
                }
            }
            enc.encode(&rows).expect("encode")
        })
        .collect()
}

fn bench_query_aggregate(c: &mut Criterion) {
    let txs = stream(256, 16);
    let total = 16 * 256;
    let mut g = c.benchmark_group("query_aggregate");
    g.sample_size(20);

    // Cold: build the chunk index from the raw log, then answer one
    // unaligned range (what the first query after recovery costs).
    g.bench_function("cold_index", |b| {
        b.iter(|| {
            let mut qe = QueryEngine::from_transmissions(black_box(&txs)).expect("index");
            qe.aggregate(1, 37, total - 19).expect("query").sum
        })
    });

    // Warm: the plan-cache steady state a dashboard replaying canned
    // queries sits in — one hit per iteration.
    let mut warm = QueryEngine::from_transmissions(&txs).expect("index");
    warm.aggregate(1, 37, total - 19).expect("seed");
    g.bench_function("warm_plan_cache", |b| {
        b.iter(|| {
            warm.aggregate(black_box(1), 37, total - 19)
                .expect("query")
                .sum
        })
    });

    // Misses: every iteration asks a range the plan cache has not seen,
    // each spanning ~90% of a 256-chunk index, so only the block walk and
    // the two boundary chunks are timed.
    let (m, chunks) = (64, 256);
    let mut long = QueryEngine::from_transmissions(&stream(m, chunks)).expect("index");
    let (span, slack) = (chunks * m * 9 / 10, chunks * m / 20);
    let mut k = 0usize;
    g.bench_function("miss_long_range", |b| {
        b.iter(|| {
            // slack² distinct ranges, far more than the plan cache holds.
            let t0 = k % slack;
            let t1 = t0 + span + (k / slack) % slack;
            k += 1;
            long.aggregate(black_box(1), t0, t1).expect("query")
        })
    });

    // Baseline: the same range answered by reconstructing the whole log
    // and scanning the covered samples.
    g.bench_function("full_decode", |b| {
        b.iter(|| {
            let decoded = Decoder::replay(black_box(&txs)).expect("replay");
            let series: Vec<f64> = decoded.iter().flat_map(|c| c[1].iter().copied()).collect();
            series[37..total - 19].iter().sum::<f64>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_query_aggregate);
criterion_main!(benches);
