//! Streaming drivers and scoring shared by all experiment binaries.

use std::time::{Duration, Instant};

use sbr_baselines::Compressor;
use sbr_core::{Decoder, ErrorMetric, MultiSeries, SbrConfig, SbrEncoder};
use sbr_obs::Recorder;

/// Per-transmission statistics of an SBR stream.
#[derive(Debug, Clone)]
pub struct TxStats {
    /// SSE of the decoded chunk against the truth.
    pub sse: f64,
    /// Sum squared relative error (sanity bound 1).
    pub rel: f64,
    /// Values actually transmitted.
    pub cost: usize,
    /// Base intervals inserted this transmission.
    pub inserted: usize,
    /// Wall-clock encode time.
    pub encode_time: Duration,
}

/// Result of streaming a chunked dataset through one SBR encoder.
#[derive(Debug, Clone)]
pub struct SbrStream {
    /// Stats per transmission, in order.
    pub per_tx: Vec<TxStats>,
}

impl SbrStream {
    /// Mean SSE per transmission; `0.0` for an empty stream.
    pub fn avg_sse(&self) -> f64 {
        if self.per_tx.is_empty() {
            return 0.0;
        }
        self.per_tx.iter().map(|t| t.sse).sum::<f64>() / self.per_tx.len() as f64
    }

    /// Total sum squared relative error across the stream.
    pub fn total_rel(&self) -> f64 {
        self.per_tx.iter().map(|t| t.rel).sum()
    }

    /// Mean encode wall time; [`Duration::ZERO`] for an empty stream.
    pub fn avg_encode_time(&self) -> Duration {
        if self.per_tx.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.per_tx.iter().map(|t| t.encode_time).sum();
        total / self.per_tx.len() as u32
    }

    /// Inserted base intervals per transmission.
    pub fn inserted(&self) -> Vec<usize> {
        self.per_tx.iter().map(|t| t.inserted).collect()
    }

    /// Record what the stream's bytes bought into `rec`: `avg_sse` and
    /// `total_rel` as `bench.quality.*` gauges, the transmission count as
    /// a `bench.quality.transmissions` counter.
    pub fn record_quality(&self, rec: &dyn Recorder) {
        rec.gauge("bench.quality.avg_sse").set(self.avg_sse());
        rec.gauge("bench.quality.total_rel").set(self.total_rel());
        rec.counter("bench.quality.transmissions")
            .add(self.per_tx.len() as u64);
    }
}

/// Stream `files` (each `files[t][signal][sample]`) through a fresh
/// [`SbrEncoder`] under `config`, decoding and scoring every transmission.
///
/// Panics on encoder/decoder errors: the harness runs under configurations
/// it constructs itself, so any error is a bug worth a loud failure.
pub fn run_sbr_stream(files: &[Vec<Vec<f64>>], config: SbrConfig) -> SbrStream {
    run_sbr_stream_with(files, config, None)
}

/// As [`run_sbr_stream`] but with an optional custom base construction.
pub fn run_sbr_stream_with(
    files: &[Vec<Vec<f64>>],
    config: SbrConfig,
    builder: Option<Box<dyn sbr_core::BaseBuilder + Send>>,
) -> SbrStream {
    let n = files[0].len();
    let m = files[0][0].len();
    let obs = config.obs.clone();
    let mut encoder = match builder {
        Some(b) => SbrEncoder::with_builder(n, m, config, b),
        None => SbrEncoder::new(n, m, config),
    }
    .expect("harness config must be valid");
    let mut decoder = Decoder::new();
    let mut per_tx = Vec::with_capacity(files.len());
    for rows in files {
        let start = Instant::now();
        let tx = encoder.encode(rows).expect("encode");
        let encode_time = start.elapsed();
        let stats = encoder.last_stats().expect("stats after encode");
        let rec = {
            let _span = obs.span("sbr_core.codec.decode_ns", &obs.codec_decode_ns);
            decoder.decode(&tx).expect("decode")
        };
        let (mut sse, mut rel) = (0.0, 0.0);
        for (orig, r) in rows.iter().zip(&rec) {
            sse += ErrorMetric::Sse.score(orig, r);
            rel += ErrorMetric::relative().score(orig, r);
        }
        per_tx.push(TxStats {
            sse,
            rel,
            cost: tx.cost(),
            inserted: stats.inserted,
            encode_time,
        });
    }
    SbrStream { per_tx }
}

/// Result of streaming a chunked dataset through a stateless baseline.
#[derive(Debug, Clone)]
pub struct BaselineStream {
    /// SSE per file.
    pub sse: Vec<f64>,
    /// Relative error per file.
    pub rel: Vec<f64>,
}

impl BaselineStream {
    /// Mean SSE per file.
    pub fn avg_sse(&self) -> f64 {
        self.sse.iter().sum::<f64>() / self.sse.len() as f64
    }

    /// Total relative error.
    pub fn total_rel(&self) -> f64 {
        self.rel.iter().sum()
    }
}

/// Compress every file independently with `method` under `budget_values`
/// per file and score the reconstructions.
pub fn run_baseline_stream(
    files: &[Vec<Vec<f64>>],
    method: &dyn Compressor,
    budget_values: usize,
) -> BaselineStream {
    let mut sse = Vec::with_capacity(files.len());
    let mut rel = Vec::with_capacity(files.len());
    for rows in files {
        let data = MultiSeries::from_rows(rows).expect("chunk shapes are uniform");
        let rec = method.compress_reconstruct(&data, budget_values);
        sse.push(ErrorMetric::Sse.score(data.flat(), &rec));
        rel.push(ErrorMetric::relative().score(data.flat(), &rec));
    }
    BaselineStream { sse, rel }
}

/// Render one formatted table row (used by every binary so outputs align).
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<12}");
    for c in cells {
        s.push_str(&format!("{c:>14}"));
    }
    s
}

/// Format a float compactly for table cells.
pub fn fmt(v: f64) -> String {
    // lint:allow(float-eq): display-only exact-zero shortcut in a formatter
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// True when `--quick` was passed: shrink the experiment for fast
/// iteration (documented in each binary's header).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> Vec<Vec<Vec<f64>>> {
        (0..3)
            .map(|f| {
                (0..2)
                    .map(|s| {
                        (0..64)
                            .map(|i| ((i + f * 64) as f64 * 0.2 + s as f64).sin() * 3.0)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sbr_stream_scores_every_file() {
        let r = run_sbr_stream(&files(), SbrConfig::new(40, 32));
        assert_eq!(r.per_tx.len(), 3);
        assert!(r.avg_sse().is_finite());
        assert!(r.total_rel().is_finite());
        for t in &r.per_tx {
            assert!(t.cost <= 40);
        }
    }

    #[test]
    fn baseline_stream_scores_every_file() {
        let w = sbr_baselines::wavelet::WaveletCompressor::default();
        let r = run_baseline_stream(&files(), &w, 40);
        assert_eq!(r.sse.len(), 3);
        assert!(r.avg_sse() > 0.0);
    }

    #[test]
    fn fmt_is_stable() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.5), "1234");
        assert_eq!(fmt(12.3456), "12.346");
        assert_eq!(fmt(0.12345), "0.12345");
    }

    #[test]
    fn empty_stream_scores_to_zero() {
        let r = SbrStream { per_tx: Vec::new() };
        assert_eq!(r.avg_sse(), 0.0);
        assert_eq!(r.total_rel(), 0.0);
        assert_eq!(r.avg_encode_time(), Duration::ZERO);
        assert!(r.inserted().is_empty());
    }

    #[test]
    fn bench_record_round_trips_every_row_and_counter() {
        use sbr_obs::bench::{self, BenchRecord};
        use sbr_obs::MetricsRecorder;
        use std::sync::Arc;
        let rec = Arc::new(MetricsRecorder::new());
        let stream = run_sbr_stream(&files(), SbrConfig::new(40, 32).with_recorder(rec.clone()));
        stream.record_quality(rec.as_ref());
        rec.gauge("bench.test.non_finite").set(f64::INFINITY);
        let record = BenchRecord::from_snapshot("fig5", &[("n", 128.0)], &rec.snapshot());
        let encode = record.row("sbr_core.sbr.encode_ns").expect("encode row");
        assert_eq!(encode.count, 3, "one encode span per file");
        assert!(encode.sum > 0);
        assert_eq!(record.row("sbr_core.codec.decode_ns").unwrap().count, 3);
        assert!(record.counter("sbr_core.get_base.fit_cache.hits").unwrap() > 0.0);
        assert_eq!(record.counter("bench.quality.transmissions"), Some(3.0));
        assert_eq!(
            record.counter("bench.quality.avg_sse"),
            Some(stream.avg_sse())
        );

        let json = bench::to_json(std::slice::from_ref(&record));
        assert!(json.contains("\"bench.test.non_finite\":null"), "{json}");
        let v = sbr_obs::json::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(sbr_obs::json::Value::as_str),
            Some(bench::BENCH_SCHEMA)
        );
        let back = bench::from_json(&json).expect("parses back");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].experiment, record.experiment);
        assert_eq!(back[0].params, record.params);
        assert_eq!(back[0].rows, record.rows);
        assert_eq!(back[0].counters.len(), record.counters.len());
        for ((bn, bv), (n, v)) in back[0].counters.iter().zip(&record.counters) {
            assert_eq!(bn, n);
            if v.is_finite() {
                assert_eq!(bv, v, "{n}");
            } else {
                assert!(bv.is_nan(), "{n}: non-finite reads back as NaN");
            }
        }
    }
}
