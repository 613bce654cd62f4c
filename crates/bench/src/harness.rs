//! Streaming drivers and scoring shared by all experiment binaries.

use std::time::{Duration, Instant};

use sbr_baselines::Compressor;
use sbr_core::{Decoder, ErrorMetric, MultiSeries, SbrConfig, SbrEncoder};

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

/// One machine-readable benchmark record: a single configuration of one
/// experiment, scored from its [`SbrStream`].
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Experiment name, e.g. `"fig5"`.
    pub experiment: String,
    /// Numeric configuration parameters (`n`, `total_band`, `ratio`, ...).
    pub params: Vec<(String, f64)>,
    /// Mean encode wall time per transmission, in seconds.
    pub avg_encode_secs: f64,
    /// Mean SSE per transmission.
    pub avg_sse: f64,
    /// Total sum squared relative error across the stream.
    pub total_rel: f64,
    /// Number of transmissions streamed.
    pub transmissions: usize,
    /// Base intervals inserted, per transmission.
    pub inserted: Vec<usize>,
    /// Frozen `sbr-obs` metrics for this configuration's run (per-phase
    /// durations, direct-vs-FFT decisions, base-signal churn, network
    /// counters, …). `None` when the run was not instrumented; serialized
    /// as JSON `null` then.
    pub metrics: Option<sbr_obs::Snapshot>,
    /// Search-phase statistics (since `sbr-bench/v3`): probe count,
    /// probe-cache traffic and search wall time. `None` when not
    /// instrumented; serialized as JSON `null` then.
    pub search: Option<SearchStats>,
    /// GetBase-phase statistics: benefit-matrix size, fit-cache traffic
    /// and build wall time. Additive member of the `sbr-bench/v3` schema (readers that ignore
    /// unknown members parse records carrying it unchanged). `None` when
    /// not instrumented; serialized as JSON `null` then.
    pub get_base: Option<GetBaseStats>,
    /// ARQ/resync recovery statistics, for records produced by a
    /// loss-tolerant network run ([`sensor_net::Strategy::SbrArq`]).
    /// Additive member of the `sbr-bench/v3` schema: readers that ignore
    /// unknown members parse records carrying it unchanged. `None` for
    /// ordinary encoder records; serialized as JSON `null` then.
    pub recovery: Option<sensor_net::RecoveryStats>,
    /// Compressed-domain query-engine statistics: query count, plan-cache
    /// traffic, interval fold/boundary counts and wall times for the
    /// engine and the full-decode baseline. Additive member of the
    /// `sbr-bench/v3` schema: readers that ignore unknown members parse
    /// records carrying it unchanged. `None` for records not produced by
    /// a query sweep; serialized as JSON `null` then.
    pub query: Option<QueryStats>,
    /// Segmented-store recovery statistics: history size, sealed-segment
    /// and checkpoint counts, how many records the checkpointed load
    /// actually replayed, and the recovery wall times. Additive member of
    /// the `sbr-bench/v3` schema: readers that ignore unknown members
    /// parse records carrying it unchanged. `None` for records not
    /// produced by a storage recovery sweep; serialized as JSON `null`
    /// then.
    pub storage: Option<StorageStats>,
}

/// The `storage` block of a `sbr-bench/v3` record: one segmented-store
/// recovery measurement. The headline claim is `replayed_records ≪
/// records`: a checkpointed load replays only the post-checkpoint tail,
/// so `wall_secs` stays flat while `records` (the persisted history)
/// grows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageStats {
    /// Frames in the persisted history across all sensor stores.
    pub records: u64,
    /// Sealed segment files across all stores.
    pub segments_sealed: u64,
    /// Checkpoint files present after the run (post-compaction).
    pub checkpoints: u64,
    /// Records the checkpointed load replayed (active-tail frames only).
    pub replayed_records: u64,
    /// Wall time of the checkpointed load (scan + tail replay), seconds.
    pub wall_secs: f64,
    /// Wall time of a full-history replay of the same stores, seconds;
    /// `None` when the control was not measured.
    pub full_replay_wall_secs: Option<f64>,
}

impl StorageStats {
    /// Checkpointed-load speedup over the full-history replay, when both
    /// sides were measured.
    pub fn speedup(&self) -> Option<f64> {
        match self.full_replay_wall_secs {
            Some(full) if self.wall_secs > 0.0 => Some(full / self.wall_secs),
            _ => None,
        }
    }
}

/// The `search` block of a `sbr-bench/v3` record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// `GetIntervals` probes the insertion searches ran.
    pub probes: u64,
    /// Probe-cache fits served from an existing entry.
    pub cache_hits: u64,
    /// Probe-cache fits that created their entry.
    pub cache_misses: u64,
    /// Total `Search` wall time across the stream, seconds.
    pub wall_secs: f64,
}

impl SearchStats {
    /// Extract the search-phase statistics from an instrumented run's
    /// snapshot.
    pub fn from_snapshot(snap: &sbr_obs::Snapshot) -> Self {
        let wall_ns = snap
            .histogram("sbr_core.search.run_ns")
            .map(|h| h.sum)
            .unwrap_or(0);
        SearchStats {
            probes: snap.counter("sbr_core.search.probes").unwrap_or(0),
            cache_hits: snap.counter("sbr_core.probe_cache.hits").unwrap_or(0),
            cache_misses: snap.counter("sbr_core.probe_cache.misses").unwrap_or(0),
            wall_secs: wall_ns as f64 / 1e9,
        }
    }
}

/// The `get_base` block of a `sbr-bench/v3` record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GetBaseStats {
    /// `K×K` benefit-matrix size of the last `GetBase` run.
    pub matrix_cells: u64,
    /// Pair errors served from the fit-cache memo.
    pub fit_cache_hits: u64,
    /// Pair errors that required a fresh fit.
    pub fit_cache_misses: u64,
    /// Total `GetBase` build wall time across the stream, seconds.
    pub wall_secs: f64,
}

impl GetBaseStats {
    /// Extract the GetBase-phase statistics from an instrumented run's
    /// snapshot.
    pub fn from_snapshot(snap: &sbr_obs::Snapshot) -> Self {
        let wall_ns = snap
            .histogram("sbr_core.get_base.build_ns")
            .map(|h| h.sum)
            .unwrap_or(0);
        GetBaseStats {
            matrix_cells: snap.gauge("sbr_core.get_base.matrix_cells").unwrap_or(0.0) as u64,
            fit_cache_hits: snap
                .counter("sbr_core.get_base.fit_cache.hits")
                .unwrap_or(0),
            fit_cache_misses: snap
                .counter("sbr_core.get_base.fit_cache.misses")
                .unwrap_or(0),
            wall_secs: wall_ns as f64 / 1e9,
        }
    }
}

/// The `query` block of a `sbr-bench/v3` record: one compressed-domain
/// query sweep against its full-decode baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Range queries the compressed-domain engine answered.
    pub queries: u64,
    /// Queries served from a cached plan.
    pub plan_cache_hits: u64,
    /// Queries that resolved and cached a fresh plan.
    pub plan_cache_misses: u64,
    /// Intervals whose contribution came from precomputed moments.
    pub intervals_folded: u64,
    /// Intervals a range split mid-way (only their window was evaluated).
    pub boundary_decodes: u64,
    /// Total compressed-engine wall time across the sweep, seconds.
    pub wall_secs: f64,
    /// Queries re-run through the full-decode baseline (a subsample — the
    /// baseline is too slow to run the full sweep).
    pub decode_queries: u64,
    /// Full-decode baseline wall time across `decode_queries`, seconds;
    /// `None` when the baseline was not measured.
    pub decode_wall_secs: Option<f64>,
}

impl QueryStats {
    /// Extract the query-engine statistics from an instrumented sweep's
    /// snapshot.
    pub fn from_snapshot(snap: &sbr_obs::Snapshot) -> Self {
        let (queries, wall_ns) = snap
            .histogram("sbr_core.query.query_ns")
            .map(|h| (h.count, h.sum))
            .unwrap_or((0, 0));
        QueryStats {
            queries,
            plan_cache_hits: snap.counter("sbr_core.query.plan_cache.hits").unwrap_or(0),
            plan_cache_misses: snap
                .counter("sbr_core.query.plan_cache.misses")
                .unwrap_or(0),
            intervals_folded: snap.counter("sbr_core.query.intervals_folded").unwrap_or(0),
            boundary_decodes: snap.counter("sbr_core.query.boundary_decodes").unwrap_or(0),
            wall_secs: wall_ns as f64 / 1e9,
            decode_queries: 0,
            decode_wall_secs: None,
        }
    }

    /// Attach the full-decode baseline measurement (builder style).
    pub fn with_decode_baseline(mut self, queries: u64, wall_secs: f64) -> Self {
        self.decode_queries = queries;
        self.decode_wall_secs = Some(wall_secs);
        self
    }

    /// Per-query decode-over-compressed speedup, when both sides were
    /// measured (each side normalized by its own query count).
    pub fn speedup(&self) -> Option<f64> {
        let decode = self.decode_wall_secs?;
        if self.queries == 0 || self.decode_queries == 0 || self.wall_secs <= 0.0 {
            return None;
        }
        let per_fast = self.wall_secs / self.queries as f64;
        let per_slow = decode / self.decode_queries as f64;
        (per_fast > 0.0).then(|| per_slow / per_fast)
    }
}

impl BenchRecord {
    /// Score `stream` into a record for `experiment` under `params`.
    pub fn from_stream(experiment: &str, params: &[(&str, f64)], stream: &SbrStream) -> Self {
        BenchRecord {
            experiment: experiment.to_string(),
            params: params.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            avg_encode_secs: stream.avg_encode_time().as_secs_f64(),
            avg_sse: stream.avg_sse(),
            total_rel: stream.total_rel(),
            transmissions: stream.per_tx.len(),
            inserted: stream.inserted(),
            metrics: None,
            search: None,
            get_base: None,
            recovery: None,
            query: None,
            storage: None,
        }
    }

    /// Attach a metrics snapshot (builder style). Also derives the
    /// record's `search` and `get_base` blocks from the snapshot's
    /// per-phase metrics.
    pub fn with_metrics(mut self, metrics: sbr_obs::Snapshot) -> Self {
        self.search = Some(SearchStats::from_snapshot(&metrics));
        self.get_base = Some(GetBaseStats::from_snapshot(&metrics));
        self.metrics = Some(metrics);
        self
    }

    /// Attach ARQ recovery statistics (builder style) — used by records
    /// scored from a loss-tolerant network run.
    pub fn with_recovery(mut self, recovery: sensor_net::RecoveryStats) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Attach a `query` block (builder style) — used by records scored
    /// from a compressed-domain query sweep.
    pub fn with_query(mut self, query: QueryStats) -> Self {
        self.query = Some(query);
        self
    }

    /// Attach a `storage` block (builder style) — used by records scored
    /// from a segmented-store recovery sweep.
    pub fn with_storage(mut self, storage: StorageStats) -> Self {
        self.storage = Some(storage);
        self
    }
}

/// Render `v` as a JSON number (`null` for non-finite values, which JSON
/// cannot represent).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Escape `s` for embedding in a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serialize `records` to the `BENCH_SBR.json` schema (documented in the
/// repository README): `{"schema": "sbr-bench/v3", "records": [...]}` with
/// one object per configuration. Since v2 every record carries a
/// `"metrics"` member: an `sbr-obs` snapshot object (name → typed metric)
/// for instrumented runs, JSON `null` otherwise. Since v3 every record
/// additionally carries a `"search"` member: probe count, probe-cache
/// traffic and search-phase wall time, or JSON `null` when not
/// instrumented.
/// Records scored from a loss-tolerant network run additionally carry a
/// `"recovery"` member (frame/duplicate/gap/resync/ACK counts and the
/// delivered-chunk fraction), JSON `null` otherwise. Instrumented records
/// also carry a `"get_base"` member: benefit-matrix size, fit-cache
/// traffic and GetBase wall time, or JSON `null` when not instrumented.
/// Records produced by a compressed-domain query sweep additionally carry
/// a `"query"` member: query count, plan-cache traffic, interval
/// fold/boundary counts and both engines' wall times (plus the derived
/// per-query speedup), JSON `null` otherwise.
/// Records produced by a segmented-store recovery sweep additionally
/// carry a `"storage"` member: persisted-history size, sealed-segment and
/// checkpoint counts, the records the checkpointed load replayed, and
/// both recovery wall times (plus the derived speedup over a
/// full-history replay), JSON `null` otherwise.
/// All of these bumps are additive — v1/v2/v3 consumers that ignore
/// unknown members parse the artifact unchanged and the schema string
/// stays `sbr-bench/v3`.
/// Hand-rolled so the bench harness carries no serialization dependency.
pub fn bench_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n  \"schema\": \"sbr-bench/v3\",\n  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"experiment\": {}, ", json_str(&r.experiment)));
        out.push_str("\"params\": {");
        for (j, (k, v)) in r.params.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_str(k), json_num(*v)));
        }
        out.push_str("}, ");
        out.push_str(&format!(
            "\"avg_encode_secs\": {}, \"avg_sse\": {}, \"total_rel\": {}, \"transmissions\": {}, ",
            json_num(r.avg_encode_secs),
            json_num(r.avg_sse),
            json_num(r.total_rel),
            r.transmissions
        ));
        out.push_str("\"inserted\": [");
        for (j, ins) in r.inserted.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&ins.to_string());
        }
        out.push_str("], \"search\": ");
        match &r.search {
            Some(s) => {
                out.push_str(&format!(
                    "{{\"probes\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
                     \"wall_secs\": {}}}",
                    s.probes,
                    s.cache_hits,
                    s.cache_misses,
                    json_num(s.wall_secs),
                ));
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"get_base\": ");
        match &r.get_base {
            Some(g) => {
                out.push_str(&format!(
                    "{{\"matrix_cells\": {}, \"fit_cache_hits\": {}, \
                     \"fit_cache_misses\": {}, \"wall_secs\": {}}}",
                    g.matrix_cells,
                    g.fit_cache_hits,
                    g.fit_cache_misses,
                    json_num(g.wall_secs),
                ));
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"recovery\": ");
        match &r.recovery {
            Some(s) => {
                out.push_str(&format!(
                    "{{\"frames_sent\": {}, \"frames_delivered\": {}, \
                     \"duplicates_discarded\": {}, \"gaps_detected\": {}, \
                     \"corrupt_rejected\": {}, \"resyncs\": {}, \
                     \"retx_overflows\": {}, \"max_retx_depth\": {}, \
                     \"crashes\": {}, \"acks_sent\": {}, \
                     \"chunks_flushed\": {}, \"chunks_delivered\": {}, \
                     \"delivered_fraction\": {}}}",
                    s.frames_sent,
                    s.frames_delivered,
                    s.duplicates_discarded,
                    s.gaps_detected,
                    s.corrupt_rejected,
                    s.resyncs,
                    s.retx_overflows,
                    s.max_retx_depth,
                    s.crashes,
                    s.acks_sent,
                    s.chunks_flushed,
                    s.chunks_delivered,
                    json_num(s.delivered_fraction()),
                ));
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"query\": ");
        match &r.query {
            Some(q) => {
                out.push_str(&format!(
                    "{{\"queries\": {}, \"plan_cache_hits\": {}, \
                     \"plan_cache_misses\": {}, \"intervals_folded\": {}, \
                     \"boundary_decodes\": {}, \"wall_secs\": {}, \
                     \"decode_queries\": {}, \"decode_wall_secs\": {}, \
                     \"speedup\": {}}}",
                    q.queries,
                    q.plan_cache_hits,
                    q.plan_cache_misses,
                    q.intervals_folded,
                    q.boundary_decodes,
                    json_num(q.wall_secs),
                    q.decode_queries,
                    q.decode_wall_secs.map_or("null".into(), json_num),
                    q.speedup().map_or("null".into(), json_num),
                ));
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"storage\": ");
        match &r.storage {
            Some(s) => {
                out.push_str(&format!(
                    "{{\"records\": {}, \"segments_sealed\": {}, \
                     \"checkpoints\": {}, \"replayed_records\": {}, \
                     \"wall_secs\": {}, \"full_replay_wall_secs\": {}, \
                     \"speedup\": {}}}",
                    s.records,
                    s.segments_sealed,
                    s.checkpoints,
                    s.replayed_records,
                    json_num(s.wall_secs),
                    s.full_replay_wall_secs.map_or("null".into(), json_num),
                    s.speedup().map_or("null".into(), json_num),
                ));
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"metrics\": ");
        match &r.metrics {
            Some(snap) => out.push_str(&snap.to_json_value().to_string()),
            None => out.push_str("null"),
        }
        out.push('}');
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `records` as `BENCH_SBR.json`-schema JSON to `path`, logging the
/// destination so CI output records where the artifact landed.
pub fn write_bench_json(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    std::fs::write(path, bench_json(records))?;
    println!("wrote {} record(s) to {path}", records.len());
    Ok(())
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
    fn bench_json_is_well_formed() {
        let stream = run_sbr_stream(&files(), SbrConfig::new(40, 32));
        let rec = BenchRecord::from_stream("fig5", &[("n", 128.0), ("ratio", 0.05)], &stream);
        let json = bench_json(&[rec.clone(), rec]);
        assert!(json.starts_with("{\n  \"schema\": \"sbr-bench/v3\""));
        assert!(json.contains("\"experiment\": \"fig5\""));
        assert!(json.contains("\"params\": {\"n\": 128, \"ratio\": 0.05}"));
        assert!(json.contains("\"transmissions\": 3"));
        assert!(json.contains("\"metrics\": null"), "uninstrumented → null");
        assert!(json.contains("\"search\": null"), "uninstrumented → null");
        assert!(json.contains("\"get_base\": null"), "uninstrumented → null");
        assert!(json.contains("\"recovery\": null"), "encoder-only → null");
        // The artifact parses with the sbr-obs JSON parser.
        let v = sbr_obs::json::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(sbr_obs::json::Value::as_str),
            Some("sbr-bench/v3")
        );
    }

    #[test]
    fn bench_json_search_block_is_additive() {
        // A v2-style reader (ignores unknown members, looks only at the
        // members it knows) must parse a v3 artifact unchanged.
        let stream = run_sbr_stream(&files(), SbrConfig::new(40, 32));
        let mut record = BenchRecord::from_stream("fig5", &[("n", 128.0)], &stream);
        record.search = Some(SearchStats {
            probes: 9,
            cache_hits: 100,
            cache_misses: 20,
            wall_secs: 0.5,
        });
        let json = bench_json(&[record]);
        let v = sbr_obs::json::parse(&json).expect("valid JSON");
        let rec = &v
            .get("records")
            .and_then(sbr_obs::json::Value::as_arr)
            .unwrap()[0];
        // v2 members untouched…
        assert!(rec.get("avg_encode_secs").is_some());
        assert!(rec.get("metrics").is_some());
        // …and the v3 block carries the search-phase statistics.
        let search = rec.get("search").expect("search member");
        assert_eq!(
            search.get("probes").and_then(sbr_obs::json::Value::as_f64),
            Some(9.0)
        );
        assert_eq!(
            search
                .get("cache_hits")
                .and_then(sbr_obs::json::Value::as_f64),
            Some(100.0)
        );
        assert_eq!(
            search
                .get("wall_secs")
                .and_then(sbr_obs::json::Value::as_f64),
            Some(0.5)
        );
    }

    #[test]
    fn bench_json_get_base_block_is_additive() {
        // A reader that only knows the earlier v3 members must parse an
        // artifact carrying the get_base block unchanged.
        let stream = run_sbr_stream(&files(), SbrConfig::new(40, 32));
        let mut record = BenchRecord::from_stream("fig5", &[("n", 128.0)], &stream);
        record.get_base = Some(GetBaseStats {
            matrix_cells: 100,
            fit_cache_hits: 500,
            fit_cache_misses: 90,
            wall_secs: 0.25,
        });
        let json = bench_json(&[record]);
        assert!(json.contains("\"schema\": \"sbr-bench/v3\""), "no bump");
        let v = sbr_obs::json::parse(&json).expect("valid JSON");
        let rec = &v
            .get("records")
            .and_then(sbr_obs::json::Value::as_arr)
            .unwrap()[0];
        // Existing members untouched…
        assert!(rec.get("avg_encode_secs").is_some());
        assert!(rec.get("search").is_some());
        // …and the additive block carries the GetBase-phase statistics.
        let gb = rec.get("get_base").expect("get_base member");
        let f = |k: &str| gb.get(k).and_then(sbr_obs::json::Value::as_f64);
        assert_eq!(f("matrix_cells"), Some(100.0));
        assert_eq!(f("fit_cache_hits"), Some(500.0));
        assert_eq!(f("fit_cache_misses"), Some(90.0));
        assert_eq!(f("wall_secs"), Some(0.25));
    }

    #[test]
    fn instrumented_metrics_derive_the_get_base_block() {
        use sbr_obs::{MetricsRecorder, Recorder as _};
        use std::sync::Arc;
        let rec = Arc::new(MetricsRecorder::new());
        let config = SbrConfig::new(40, 32).with_recorder(rec.clone());
        let stream = run_sbr_stream(&files(), config);
        let record =
            BenchRecord::from_stream("fig5", &[("n", 128.0)], &stream).with_metrics(rec.snapshot());
        let gb = record.get_base.expect("derived from snapshot");
        assert!(gb.wall_secs > 0.0, "build span must be recorded");
        assert!(
            gb.fit_cache_hits > 0,
            "default config runs the cached GetBase path"
        );
        assert!(gb.matrix_cells > 0);
    }

    #[test]
    fn bench_json_recovery_block_is_additive() {
        // A reader that only knows the pre-recovery v3 members must parse
        // an artifact carrying the block unchanged.
        let stream = run_sbr_stream(&files(), SbrConfig::new(40, 32));
        let record = BenchRecord::from_stream("network_sim", &[("nodes", 3.0)], &stream)
            .with_recovery(sensor_net::RecoveryStats {
                frames_sent: 12,
                frames_delivered: 10,
                duplicates_discarded: 1,
                gaps_detected: 2,
                resyncs: 1,
                chunks_flushed: 8,
                chunks_delivered: 8,
                ..Default::default()
            });
        let json = bench_json(&[record]);
        assert!(json.contains("\"schema\": \"sbr-bench/v3\""), "no bump");
        let v = sbr_obs::json::parse(&json).expect("valid JSON");
        let rec = &v
            .get("records")
            .and_then(sbr_obs::json::Value::as_arr)
            .unwrap()[0];
        // Existing members untouched…
        assert!(rec.get("avg_encode_secs").is_some());
        assert!(rec.get("metrics").is_some());
        // …and the additive block carries the protocol statistics.
        let recovery = rec.get("recovery").expect("recovery member");
        let f = |k: &str| recovery.get(k).and_then(sbr_obs::json::Value::as_f64);
        assert_eq!(f("frames_sent"), Some(12.0));
        assert_eq!(f("resyncs"), Some(1.0));
        assert_eq!(f("delivered_fraction"), Some(1.0));
    }

    #[test]
    fn bench_json_query_block_is_additive() {
        // A reader that only knows the pre-query v3 members must parse an
        // artifact carrying the block unchanged.
        let stream = run_sbr_stream(&files(), SbrConfig::new(40, 32));
        let record = BenchRecord::from_stream("query_sweep", &[("queries", 1e6)], &stream)
            .with_query(
                QueryStats {
                    queries: 1_000_000,
                    plan_cache_hits: 900_000,
                    plan_cache_misses: 100_000,
                    intervals_folded: 5_000_000,
                    boundary_decodes: 150_000,
                    wall_secs: 0.5,
                    ..Default::default()
                }
                .with_decode_baseline(2_000, 2.0),
            );
        let json = bench_json(&[record]);
        assert!(json.contains("\"schema\": \"sbr-bench/v3\""), "no bump");
        let v = sbr_obs::json::parse(&json).expect("valid JSON");
        let rec = &v
            .get("records")
            .and_then(sbr_obs::json::Value::as_arr)
            .unwrap()[0];
        // Existing members untouched…
        assert!(rec.get("avg_encode_secs").is_some());
        assert!(rec.get("search").is_some());
        assert!(rec.get("recovery").is_some());
        // …and the additive block carries the query-sweep statistics.
        let q = rec.get("query").expect("query member");
        let f = |k: &str| q.get(k).and_then(sbr_obs::json::Value::as_f64);
        assert_eq!(f("queries"), Some(1e6));
        assert_eq!(f("plan_cache_hits"), Some(9e5));
        assert_eq!(f("boundary_decodes"), Some(1.5e5));
        assert_eq!(f("decode_queries"), Some(2e3));
        // Per-query: 0.5µs compressed vs 1ms decode → 2000x.
        let speedup = f("speedup").expect("speedup derived");
        assert!((speedup - 2000.0).abs() < 1e-9, "{speedup}");
    }

    #[test]
    fn bench_json_storage_block_is_additive() {
        // A reader that only knows the pre-storage v3 members must parse
        // an artifact carrying the block unchanged.
        let stream = run_sbr_stream(&files(), SbrConfig::new(40, 32));
        let record = BenchRecord::from_stream("storage_recovery", &[("history", 240.0)], &stream)
            .with_storage(StorageStats {
                records: 240,
                segments_sealed: 20,
                checkpoints: 4,
                replayed_records: 12,
                wall_secs: 0.002,
                full_replay_wall_secs: Some(0.04),
            });
        let json = bench_json(&[record]);
        assert!(json.contains("\"schema\": \"sbr-bench/v3\""), "no bump");
        let v = sbr_obs::json::parse(&json).expect("valid JSON");
        let rec = &v
            .get("records")
            .and_then(sbr_obs::json::Value::as_arr)
            .unwrap()[0];
        // Existing members untouched…
        assert!(rec.get("avg_encode_secs").is_some());
        assert!(rec.get("search").is_some());
        assert!(rec.get("query").is_some());
        // …and the additive block carries the recovery statistics.
        let s = rec.get("storage").expect("storage member");
        let f = |k: &str| s.get(k).and_then(sbr_obs::json::Value::as_f64);
        assert_eq!(f("records"), Some(240.0));
        assert_eq!(f("segments_sealed"), Some(20.0));
        assert_eq!(f("replayed_records"), Some(12.0));
        let speedup = f("speedup").expect("speedup derived");
        assert!((speedup - 20.0).abs() < 1e-9, "{speedup}");
    }

    #[test]
    fn storage_stats_speedup_requires_both_sides() {
        let s = StorageStats {
            records: 100,
            wall_secs: 0.1,
            ..Default::default()
        };
        assert_eq!(s.speedup(), None, "no full-replay control measured");
    }

    #[test]
    fn query_stats_speedup_requires_both_sides() {
        let qs = QueryStats {
            queries: 100,
            wall_secs: 0.1,
            ..Default::default()
        };
        assert_eq!(qs.speedup(), None, "no baseline measured");
        let qs = QueryStats::default().with_decode_baseline(10, 1.0);
        assert_eq!(qs.speedup(), None, "no compressed side measured");
    }

    #[test]
    fn bench_json_embeds_instrumented_metrics() {
        use sbr_obs::{MetricsRecorder, Recorder as _};
        use std::sync::Arc;
        let rec = Arc::new(MetricsRecorder::new());
        let config = SbrConfig::new(40, 32).with_recorder(rec.clone());
        let stream = run_sbr_stream(&files(), config);
        let record =
            BenchRecord::from_stream("fig5", &[("n", 128.0)], &stream).with_metrics(rec.snapshot());
        let json = bench_json(&[record]);
        let v = sbr_obs::json::parse(&json).expect("valid JSON");
        let metrics = v
            .get("records")
            .and_then(sbr_obs::json::Value::as_arr)
            .unwrap()[0]
            .get("metrics")
            .expect("metrics member");
        let snap = sbr_obs::Snapshot::from_json_value(metrics).expect("snapshot parses");
        assert!(snap.counter("sbr_core.best_map.calls").unwrap() > 0);
        assert_eq!(
            snap.histogram("sbr_core.sbr.encode_ns").unwrap().count,
            3,
            "one encode span per file"
        );
        assert_eq!(
            snap.histogram("sbr_core.codec.decode_ns").unwrap().count,
            3,
            "one decode span per file"
        );
    }

    #[test]
    fn json_escaping_and_non_finite_numbers() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(2.5), "2.5");
    }
}
