//! Microbenchmarks of the SBR kernels: the regression fits, `BestMap`'s
//! shift scan, `GetIntervals` and `GetBase` (serial and fanned out).
//! These back the complexity claims of §4.2–§4.4 (regression linear in the
//! window, BestMap linear in `|X| × len`, GetBase `O(n^1.5)`). The `crc32`
//! group times the CRC-32 kernel that seals every v2 frame and every store
//! record, at the median frame sizes of pipebench's two workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sbr_core::best_map::MapContext;
use sbr_core::codec::crc32;
use sbr_core::fit_cache::FitCache;
use sbr_core::get_base::{get_base, get_base_cached};
use sbr_core::get_intervals::get_intervals;
use sbr_core::obs::EncodeObs;
use sbr_core::regression::{fit_maxabs, fit_relative, fit_sse};
use sbr_core::{ErrorMetric, Interval, MultiSeries, SbrConfig};

fn signal(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64) * 0.17 + seed as f64).sin() * 5.0 + ((i * 7 + 3) % 13) as f64)
        .collect()
}

fn bench_regression(c: &mut Criterion) {
    let mut g = c.benchmark_group("regression");
    for len in [64usize, 256, 1024] {
        let x = signal(len, 1);
        let y = signal(len, 2);
        g.bench_with_input(BenchmarkId::new("sse", len), &len, |b, _| {
            b.iter(|| fit_sse(black_box(&x), black_box(&y)))
        });
        g.bench_with_input(BenchmarkId::new("relative", len), &len, |b, _| {
            b.iter(|| fit_relative(black_box(&x), black_box(&y), 1.0))
        });
        g.bench_with_input(BenchmarkId::new("maxabs", len), &len, |b, _| {
            b.iter(|| fit_maxabs(black_box(&x), black_box(&y)))
        });
    }
    g.finish();
}

/// Shifts per `shift_scan_1000shifts` call: its time in ns is 1,000× the
/// time per shift, so the printed µs read directly as ns per shift.
const SCAN_SHIFTS: usize = 1_000;

fn bench_best_map(c: &mut Criterion) {
    let mut g = c.benchmark_group("best_map");
    g.sample_size(20);
    for x_len in [512usize, 1024, 2048] {
        let x = signal(x_len, 3);
        let y = signal(4096, 4);
        let config = SbrConfig::new(1 << 20, 1 << 20).with_w(64);
        let ctx = MapContext::new(&x, &y, &config, 64);
        g.bench_with_input(BenchmarkId::new("shift_scan", x_len), &x_len, |b, _| {
            b.iter(|| {
                let mut iv = Interval::unfitted(100, 128);
                ctx.best_map(black_box(&mut iv));
                iv.err
            })
        });
    }
    // Window lengths 8–64 carry 86% of the shifts of pipebench's fleet
    // shapes; at the short ones the fixed cost of each shift, not its
    // `Σxy`, sets the sweep's speed. The
    // context outlives the timed calls, as it outlives a `Search`'s probes,
    // so its per-length window table is built once, before timing.
    for len in [8usize, 16, 32, 64, 128] {
        let x = signal(SCAN_SHIFTS + len - 1, 3);
        let y = signal(4096, 4);
        let config = SbrConfig::new(1 << 20, 1 << 20).with_w(64);
        let ctx = MapContext::new(&x, &y, &config, 64);
        g.bench_with_input(
            BenchmarkId::new("shift_scan_1000shifts", len),
            &len,
            |b, &len| {
                b.iter(|| {
                    let mut iv = Interval::unfitted(100, len);
                    ctx.best_map(black_box(&mut iv));
                    iv.err
                })
            },
        );
    }
    g.finish();
}

/// `GetBase`'s K×K benefit matrix, serial vs the scoped-thread fan-out.
/// On a single-core host the threaded numbers mostly measure the fan-out
/// overhead; with real cores they show the speedup.
fn bench_get_base_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("get_base_parallel");
    g.sample_size(10);
    let n = 4096usize;
    let rows: Vec<Vec<f64>> = (0..4).map(|s| signal(n / 4, s as u64)).collect();
    let data = MultiSeries::from_rows(&rows).unwrap();
    let w = data.default_w();
    let obs = EncodeObs::default();
    for threads in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| {
                get_base_cached(
                    black_box(&data),
                    w,
                    8,
                    ErrorMetric::Sse,
                    t,
                    &obs,
                    &mut FitCache::new(),
                )
                .len()
            })
        });
    }
    g.finish();
}

fn bench_get_intervals(c: &mut Criterion) {
    let mut g = c.benchmark_group("get_intervals");
    g.sample_size(10);
    for n in [2048usize, 8192] {
        let rows: Vec<Vec<f64>> = (0..4).map(|s| signal(n / 4, s as u64)).collect();
        let data = MultiSeries::from_rows(&rows).unwrap();
        let w = data.default_w();
        let x = signal(8 * w, 9);
        let config = SbrConfig::new(n / 10, n / 10);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                get_intervals(black_box(&x), &data, n / 10, w, &config)
                    .unwrap()
                    .total_err
            })
        });
    }
    g.finish();
}

fn bench_get_base(c: &mut Criterion) {
    let mut g = c.benchmark_group("get_base");
    g.sample_size(10);
    for n in [2048usize, 8192] {
        let rows: Vec<Vec<f64>> = (0..4).map(|s| signal(n / 4, s as u64)).collect();
        let data = MultiSeries::from_rows(&rows).unwrap();
        let w = data.default_w();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| get_base(black_box(&data), w, 8, ErrorMetric::Sse).len())
        });
    }
    g.finish();
}

/// The incremental `GetBase`: a cold build (factored moments + per-batch
/// memo) vs a warm cross-batch carry-over (every window interned by the
/// previous call, so the matrix build fits nothing fresh).
fn bench_get_base_cached(c: &mut Criterion) {
    let mut g = c.benchmark_group("get_base_cached");
    g.sample_size(10);
    let obs = EncodeObs::default();
    for n in [2048usize, 8192] {
        let rows: Vec<Vec<f64>> = (0..4).map(|s| signal(n / 4, s as u64)).collect();
        let data = MultiSeries::from_rows(&rows).unwrap();
        let w = data.default_w();
        g.bench_with_input(BenchmarkId::new("cached_cold", n), &n, |b, _| {
            b.iter(|| {
                get_base_cached(
                    black_box(&data),
                    w,
                    8,
                    ErrorMetric::Sse,
                    1,
                    &obs,
                    &mut FitCache::new(),
                )
                .len()
            })
        });
        g.bench_with_input(BenchmarkId::new("cached_warm", n), &n, |b, _| {
            let mut cache = FitCache::new();
            get_base_cached(&data, w, 8, ErrorMetric::Sse, 1, &obs, &mut cache);
            b.iter(|| {
                get_base_cached(
                    black_box(&data),
                    w,
                    8,
                    ErrorMetric::Sse,
                    1,
                    &obs,
                    &mut cache,
                )
                .len()
            })
        });
    }
    g.finish();
}

/// CRC-32 over 845 B and 11,501 B, the median v2 frame sizes
/// (`codec.frame_bytes_p50`) of pipebench's `history_query` and
/// `fleet_ingest`. The station pays it twice per frame: once checking the
/// frame's trailer, once sealing the store record.
fn bench_crc32(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    for len in [845usize, 11_501] {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[7]
            })
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| crc32(black_box(&bytes)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_crc32,
    bench_regression,
    bench_best_map,
    bench_get_intervals,
    bench_get_base,
    bench_get_base_cached,
    bench_get_base_parallel
);
criterion_main!(benches);
