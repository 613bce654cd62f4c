//! End-to-end benchmarks: one full SBR transmission (GetBase + Search +
//! GetIntervals + encode) at growing batch sizes and budgets — the
//! Criterion-grade counterpart of Figure 5 — plus the wire codec and the
//! decoder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sbr_core::{codec, ChunkSummary, Decoder, Frame, SbrConfig, SbrEncoder};

fn files(n_signals: usize, m: usize) -> Vec<Vec<f64>> {
    (0..n_signals)
        .map(|s| {
            (0..m)
                .map(|i| ((i as f64 * 0.11) + s as f64).sin() * 5.0 + (i % 29) as f64 * 0.3)
                .collect()
        })
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("sbr_encode");
    g.sample_size(10);
    for n in [2048usize, 5120, 10240] {
        let rows = files(10, n / 10);
        g.bench_with_input(BenchmarkId::new("ratio_10", n), &n, |b, _| {
            b.iter(|| {
                let mut enc = SbrEncoder::new(10, n / 10, SbrConfig::new(n / 10, 1024)).unwrap();
                enc.encode(black_box(&rows)).unwrap().cost()
            })
        });
    }
    g.finish();
}

fn bench_encode_frozen_base(c: &mut Criterion) {
    // The §4.4 shortcut: GetIntervals only. Should be dramatically cheaper
    // than the full pipeline above.
    let mut g = c.benchmark_group("sbr_encode_frozen");
    g.sample_size(10);
    for n in [2048usize, 5120, 10240] {
        let rows = files(10, n / 10);
        let mut enc =
            SbrEncoder::new(10, n / 10, SbrConfig::new(n / 10, 1024).frozen_base()).unwrap();
        g.bench_with_input(BenchmarkId::new("ratio_10", n), &n, |b, _| {
            b.iter(|| enc.encode(black_box(&rows)).unwrap().cost())
        });
    }
    g.finish();
}

fn bench_codec_and_decode(c: &mut Criterion) {
    let rows = files(10, 512);
    let mut enc = SbrEncoder::new(10, 512, SbrConfig::new(512, 1024)).unwrap();
    let tx = enc.encode(&rows).unwrap();
    let data = Frame::data(0, tx.clone());
    let frame = codec::encode_v2(&data);

    let mut g = c.benchmark_group("wire");
    g.bench_function("codec_encode", |b| {
        b.iter(|| codec::encode_v2(black_box(&data)).len())
    });
    g.bench_function("codec_decode", |b| {
        b.iter(|| codec::decode_exact(black_box(&frame)).unwrap().tx.seq)
    });
    g.bench_function("decoder_reconstruct", |b| {
        b.iter(|| {
            let mut d = Decoder::new();
            d.decode(black_box(&tx)).unwrap().len()
        })
    });
    g.finish();
}

fn bench_obs_overhead(c: &mut Criterion) {
    // The sbr-obs contract: with no recorder attached every handle is one
    // branch and no span reads the clock, so the default (noop) encode
    // must sit within noise of the pre-instrumentation pipeline. Compare
    // the three operating points side by side — noop, live metrics, live
    // metrics + discarding trace sink — on an identical workload.
    use sbr_obs::MetricsRecorder;
    use std::sync::Arc;

    let n = 5120usize;
    let rows = files(10, n / 10);
    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);
    g.bench_function("noop", |b| {
        b.iter(|| {
            let mut enc = SbrEncoder::new(10, n / 10, SbrConfig::new(n / 10, 1024)).unwrap();
            enc.encode(black_box(&rows)).unwrap().cost()
        })
    });
    g.bench_function("live_metrics", |b| {
        b.iter(|| {
            let rec = Arc::new(MetricsRecorder::new());
            let config = SbrConfig::new(n / 10, 1024).with_recorder(rec);
            let mut enc = SbrEncoder::new(10, n / 10, config).unwrap();
            enc.encode(black_box(&rows)).unwrap().cost()
        })
    });
    g.bench_function("live_metrics_and_trace", |b| {
        b.iter(|| {
            let rec = Arc::new(MetricsRecorder::with_trace_writer(
                Box::new(std::io::sink()),
            ));
            let config = SbrConfig::new(n / 10, 1024).with_recorder(rec);
            let mut enc = SbrEncoder::new(10, n / 10, config).unwrap();
            enc.encode(black_box(&rows)).unwrap().cost()
        })
    });
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    // Aggregate directly on the compressed records vs reconstruct + scan.
    let rows = files(10, 1024);
    let n = 10 * 1024;
    let mut enc = SbrEncoder::new(10, 1024, SbrConfig::new(n / 10, 1024)).unwrap();
    let tx = enc.encode(&rows).unwrap();
    let mut base = Vec::new();
    for u in &tx.base_updates {
        base.extend_from_slice(&u.values);
    }
    let summary = ChunkSummary::new(&tx.intervals, base.clone(), 10, 1024).unwrap();
    let mut g = c.benchmark_group("range_sum_10240");
    g.bench_function("chunk_summary", |b| {
        b.iter(|| {
            summary
                .range_moments(black_box(100), black_box(9000))
                .unwrap()
        })
    });
    g.bench_function("reconstruct_scan", |b| {
        b.iter(|| {
            let rec = sbr_core::get_intervals::reconstruct_flat(black_box(&base), &tx.intervals, n)
                .unwrap();
            rec[100..9000].iter().sum::<f64>()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_encode_frozen_base,
    bench_codec_and_decode,
    bench_obs_overhead,
    bench_query
);
criterion_main!(benches);
