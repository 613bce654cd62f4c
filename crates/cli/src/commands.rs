//! The subcommand implementations.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use sbr_baselines::Compressor;
use sbr_core::query::aggregate_stream;
use sbr_core::{codec, Decoder, ErrorMetric, MultiSeries, SbrConfig, SbrEncoder};
use sbr_obs::bench::{self, BenchRecord, BENCH_SCHEMA};
use sbr_obs::json::{self, Value};
use sbr_obs::{
    EventKind, FrameId, HistogramSnapshot, MetricsRecorder, Recorder, Snapshot, Timeline,
    DEFAULT_TIMELINE_CAPACITY,
};
use sensor_net::network::{Network, Strategy};
use sensor_net::storage::{self, recover_stream};
use sensor_net::{EnergyModel, FaultPlan, LossyLink, Topology};

use crate::args::{Cli, Command, EngineKind, USAGE};
use crate::csv::{self, Table};
use crate::error::CliError;

/// Run a parsed command line; returns the text to print.
pub fn run(cli: &Cli) -> Result<String, CliError> {
    match &cli.command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Compress {
            input,
            output,
            band,
            m_base,
            batch,
            metric,
            metrics,
            trace,
        } => compress(
            input,
            output,
            *band,
            *m_base,
            *batch,
            metric,
            metrics.as_deref(),
            trace.as_deref(),
        ),
        Command::Decompress { input, output } => decompress(input, output),
        Command::Info { input } => info(input),
        Command::Compare { input, band } => compare(input, *band),
        Command::Aggregate {
            input,
            signal,
            from,
            to,
            engine,
        } => aggregate(input, *signal, *from, *to, *engine),
        Command::Generate {
            dataset,
            output,
            len,
            seed,
        } => generate(dataset, output, *len, *seed),
        Command::Report { input } => report(input),
        Command::Simulate {
            nodes,
            signals,
            len,
            batch,
            band,
            loss,
            fault_seed,
            drop,
            dup,
            reorder,
            corrupt,
            crash_at,
            metrics,
            store,
            segment_bytes,
        } => simulate(
            *nodes,
            *signals,
            *len,
            *batch,
            *band,
            *loss,
            *fault_seed,
            [*drop, *dup, *reorder, *corrupt],
            *crash_at,
            metrics.as_deref(),
            store.as_deref(),
            *segment_bytes,
        ),
        Command::Trace {
            input,
            filter,
            frame,
            node,
            kind,
        } => trace_log(input, filter.as_deref(), *frame, *node, *kind),
        Command::PerfDiff {
            baseline,
            candidate,
            tolerance,
            report,
        } => perf_diff(baseline, candidate, *tolerance, report.as_deref()),
        Command::StorageInspect { dir } => storage_inspect(Path::new(dir)),
        Command::StorageCompact { dir } => storage_compact(Path::new(dir)),
    }
}

fn generate(dataset: &str, output: &str, len: usize, seed: u64) -> Result<String, CliError> {
    if len == 0 {
        return Err(CliError::Usage("--len must be positive".into()));
    }
    let d = match dataset {
        "phone" => sbr_datasets::phone(seed, len, 256),
        "weather" => sbr_datasets::weather(seed, len),
        "stock" => sbr_datasets::stock(seed, 10, len),
        "mixed" => sbr_datasets::mixed(seed, len),
        "indexes" => sbr_datasets::indexes(seed, len),
        "netflow" => sbr_datasets::netflow(seed, 8, len),
        other => return Err(CliError::Usage(format!("unknown dataset '{other}'"))),
    };
    let table = Table {
        names: d.signal_names.clone(),
        columns: d.signals,
    };
    let f = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    csv::write(&table, BufWriter::new(f)).map_err(|e| e.to_string())?;
    Ok(format!(
        "generated {dataset} (seed {seed}): {} signals × {len} samples → {output}",
        table.columns.len()
    ))
}

fn read_csv(path: &str) -> Result<Table, String> {
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    csv::read(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
}

fn metric_of(name: &str) -> ErrorMetric {
    match name {
        "relative" => ErrorMetric::relative(),
        "maxabs" => ErrorMetric::MaxAbs,
        _ => ErrorMetric::Sse,
    }
}

#[allow(clippy::too_many_arguments)]
fn compress(
    input: &str,
    output: &str,
    band: usize,
    m_base: usize,
    batch: Option<usize>,
    metric: &str,
    metrics_out: Option<&str>,
    trace_out: Option<&str>,
) -> Result<String, CliError> {
    let table = read_csv(input)?;
    let n_signals = table.columns.len();
    let total_rows = table.rows();
    if total_rows == 0 {
        return Err(CliError::Usage("input has no data rows".into()));
    }
    let batch = match batch {
        Some(b) if b > total_rows => {
            return Err(CliError::Usage(format!(
                "--batch {b} exceeds the {total_rows} rows available"
            )));
        }
        Some(0) => return Err(CliError::Usage("--batch must be positive".into())),
        Some(b) => b,
        None => total_rows,
    };
    // lint:allow(panic-reachability): batch is checked positive above
    let n_batches = total_rows / batch;

    // A recorder is built only when someone will read it: --metrics,
    // --trace, or the SBR_TRACE environment variable. Otherwise the
    // encoder keeps its no-op handles (one branch per event).
    let env_trace = std::env::var(sbr_obs::TRACE_ENV).is_ok_and(|v| !v.is_empty());
    let recorder: Option<Arc<MetricsRecorder>> =
        if metrics_out.is_some() || trace_out.is_some() || env_trace {
            let rec = match trace_out {
                Some(p) => MetricsRecorder::with_trace_path(p)
                    .map_err(|e| format!("cannot create trace log {p}: {e}"))?,
                None => MetricsRecorder::from_env().map_err(|e| e.to_string())?,
            };
            Some(Arc::new(rec))
        } else {
            None
        };

    let mut config = SbrConfig::new(band, m_base).with_metric(metric_of(metric));
    if let Some(rec) = &recorder {
        config = config.with_recorder(Arc::clone(rec) as Arc<dyn Recorder>);
    }
    let mut encoder = SbrEncoder::new(n_signals, batch, config).map_err(|e| e.to_string())?;

    let out_path = Path::new(output);
    let dir = out_path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(d) = dir {
        std::fs::create_dir_all(d).map_err(|e| e.to_string())?;
    }
    // LogWriter names files itself; for the CLI we write the frames
    // directly in the same length-prefixed format.
    let f = File::create(out_path).map_err(|e| format!("cannot create {output}: {e}"))?;
    let mut w = BufWriter::new(f);

    let mut total_cost = 0usize;
    let mut total_err = 0.0f64;
    for b in 0..n_batches {
        let rows: Vec<Vec<f64>> = table
            .columns
            .iter()
            // lint:allow(index): b < n_batches = total_rows / batch, so the slice is in bounds
            .map(|c| c[b * batch..(b + 1) * batch].to_vec())
            .collect();
        let tx = encoder.encode(&rows).map_err(|e| e.to_string())?;
        total_cost += tx.cost();
        total_err += encoder
            .last_stats()
            .ok_or_else(|| CliError::Runtime("encoder produced no batch stats".into()))?
            .total_err;
        let frame = codec::encode(&tx);
        w.write_all(&(frame.len() as u32).to_le_bytes())
            .and_then(|()| w.write_all(&frame))
            .map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())?;

    let mut notes = String::new();
    if let (Some(rec), Some(path)) = (&recorder, metrics_out) {
        std::fs::write(path, rec.snapshot().to_json())
            .map_err(|e| format!("cannot write metrics {path}: {e}"))?;
        notes.push_str(&format!("\nwrote metrics snapshot {path}"));
    }
    if let Some(path) = trace_out {
        notes.push_str(&format!("\nwrote trace log {path}"));
    }

    let raw = n_signals * batch * n_batches;
    Ok(format!(
        "compressed {input}: {n_signals} signals × {batch} samples × {n_batches} batches\n\
         {raw} values → {total_cost} values ({:.1}%), metric {metric}, total error {:.4e}\n\
         wrote {output}{notes}",
        100.0 * total_cost as f64 / raw as f64,
        total_err
    ))
}

fn decompress(input: &str, output: &str) -> Result<String, CliError> {
    let log = recover_stream(Path::new(input)).map_err(|e| e.to_string())?;
    let Some(first) = log.transmissions.first() else {
        return Err(format!("{input}: no complete transmissions").into());
    };
    let mut decoder = Decoder::new();
    let n_signals = first.n_signals as usize;
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); n_signals];
    for tx in &log.transmissions {
        let rec = decoder.decode(tx).map_err(|e| e.to_string())?;
        for (c, r) in columns.iter_mut().zip(&rec) {
            c.extend_from_slice(r);
        }
    }
    let table = Table {
        names: Vec::new(),
        columns,
    };
    let f = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    csv::write(&table, BufWriter::new(f)).map_err(|e| e.to_string())?;
    let note = if log.truncated_tail > 0 {
        format!(" (discarded {} truncated tail bytes)", log.truncated_tail)
    } else {
        String::new()
    };
    Ok(format!(
        "decompressed {} transmissions → {} samples × {} signals → {output}{note}",
        log.transmissions.len(),
        table.rows(),
        n_signals
    ))
}

fn info(input: &str) -> Result<String, CliError> {
    let log = recover_stream(Path::new(input)).map_err(|e| e.to_string())?;
    let mut out = String::new();
    out.push_str("seq   signals  samples    w   base-ins  intervals   cost   ratio\n");
    for tx in &log.transmissions {
        out.push_str(&format!(
            "{:>3}   {:>7}  {:>7}  {:>3}   {:>8}  {:>9}  {:>5}  {:>5.1}%\n",
            tx.seq,
            tx.n_signals,
            tx.samples_per_signal,
            tx.w,
            tx.base_updates.len(),
            tx.intervals.len(),
            tx.cost(),
            100.0 * tx.compression_ratio()
        ));
    }
    if log.truncated_tail > 0 {
        out.push_str(&format!("truncated tail: {} bytes\n", log.truncated_tail));
    }
    Ok(out)
}

fn compare(input: &str, band: usize) -> Result<String, CliError> {
    let table = read_csv(input)?;
    let data = MultiSeries::from_rows(&table.columns).map_err(|e| e.to_string())?;
    let mut out =
        format!("method                          sse      relative-sse   (budget {band} values)\n");

    // SBR through the full pipeline.
    let config = SbrConfig::new(band, band);
    let mut enc = SbrEncoder::new(data.n_signals(), data.samples_per_signal(), config)
        .map_err(|e| e.to_string())?;
    let tx = enc.encode(&table.columns).map_err(|e| e.to_string())?;
    let rec = Decoder::new().decode(&tx).map_err(|e| e.to_string())?;
    let flat: Vec<f64> = rec.into_iter().flatten().collect();
    out.push_str(&row("SBR", data.flat(), &flat));

    let methods: Vec<Box<dyn Compressor>> = vec![
        Box::new(sbr_baselines::wavelet::WaveletCompressor::default()),
        Box::new(sbr_baselines::wavelet2d::Wavelet2dCompressor),
        Box::new(sbr_baselines::dct::DctCompressor::default()),
        Box::new(sbr_baselines::fourier::FourierCompressor::default()),
        Box::new(sbr_baselines::histogram::HistogramCompressor::default()),
        Box::new(sbr_baselines::v_optimal::VOptimalCompressor),
        Box::new(sbr_baselines::linreg::LinRegCompressor::default()),
        Box::new(sbr_baselines::quadreg::QuadRegCompressor),
        Box::new(sbr_baselines::swing::SwingCompressor),
    ];
    for m in &methods {
        let approx = m.compress_reconstruct(&data, band);
        out.push_str(&row(m.name(), data.flat(), &approx));
    }
    Ok(out)
}

/// Range aggregates straight off the compressed stream: the
/// compressed-domain query engine by default (closed-form interval
/// moments, see `sbr_core::QueryEngine`), or the full-decode streaming
/// baseline with `--engine decode` for A/B comparison.
fn aggregate(
    input: &str,
    signal: usize,
    from: usize,
    to: usize,
    engine: EngineKind,
) -> Result<String, CliError> {
    if to <= from {
        return Err(CliError::Usage(format!(
            "empty range [{from}, {to}): --from must be below --to"
        )));
    }
    let log = recover_stream(Path::new(input)).map_err(|e| e.to_string())?;
    let Some(first) = log.transmissions.first() else {
        return Err(format!("{input}: no complete transmissions").into());
    };
    let total = log.transmissions.len() * first.samples_per_signal as usize;
    if to > total {
        return Err(CliError::Runtime(format!(
            "{input}: range [{from}, {to}) runs past the {total} logged samples"
        )));
    }
    let (agg, label) = match engine {
        EngineKind::Compressed => {
            let mut qe = sbr_core::QueryEngine::from_transmissions(&log.transmissions)
                .map_err(|e| e.to_string())?;
            let agg = qe.aggregate(signal, from, to).map_err(|e| e.to_string())?;
            (agg, "compressed")
        }
        EngineKind::Decode => {
            let mut decoder = Decoder::new();
            let agg = aggregate_stream(&mut decoder, &log.transmissions, signal, from, to)
                .map_err(|e| e.to_string())?;
            (agg, "decode")
        }
    };
    Ok(format!(
        "signal {signal}, samples [{from}, {to}) — {} values ({label} engine)
\
         sum {:.6}
avg {:.6}
min {:.6}
max {:.6}",
        agg.count, agg.sum, agg.avg, agg.min, agg.max
    ))
}

/// The pipeline phases `sbr report` breaks time down by, in pipeline
/// order: `(label, histogram metric name)`.
const PHASES: &[(&str, &str)] = &[
    ("encode (total)", "sbr_core.sbr.encode_ns"),
    ("  get_base", "sbr_core.get_base.build_ns"),
    ("  search", "sbr_core.search.run_ns"),
    ("    probe", "sbr_core.search.probe_ns"),
    ("  get_intervals", "sbr_core.get_intervals.run_ns"),
    ("codec encode", "sbr_core.codec.encode_ns"),
    ("codec decode", "sbr_core.codec.decode_ns"),
    ("par worker busy", "sbr_core.par.worker_busy_ns"),
    ("query", "sbr_core.query.query_ns"),
];

fn ms(ns: f64) -> String {
    format!("{:.3}", ns / 1e6)
}

/// Render one snapshot as the per-phase / decisions / bandwidth report.
fn render_snapshot(snap: &Snapshot, out: &mut String) {
    let timed: Vec<(&str, &HistogramSnapshot)> = PHASES
        .iter()
        .filter_map(|(label, name)| snap.histogram(name).map(|h| (*label, h)))
        .filter(|(_, h)| h.count > 0)
        .collect();
    if !timed.is_empty() {
        out.push_str(&format!(
            "  {:<18} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "phase", "calls", "total-ms", "mean-ms", "p50-ms", "p90-ms", "p99-ms", "max-ms"
        ));
        for (label, h) in timed {
            out.push_str(&format!(
                "  {:<18} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                label,
                h.count,
                ms(h.sum as f64),
                ms(h.mean()),
                ms(h.p50() as f64),
                ms(h.p90() as f64),
                ms(h.p99() as f64),
                ms(h.max as f64)
            ));
        }
    }
    let counters: &[(&str, &str)] = &[
        ("BestMap calls", "sbr_core.best_map.calls"),
        ("  direct sweeps", "sbr_core.best_map.direct_sweeps"),
        ("  FFT sweeps", "sbr_core.best_map.fft_sweeps"),
        (
            "  FFT re-verified",
            "sbr_core.best_map.fft_reverified_shifts",
        ),
        (
            "  base-region direct",
            "sbr_core.best_map.base_direct_sweeps",
        ),
        ("  base-region FFT", "sbr_core.best_map.base_fft_sweeps"),
        (
            "  cand-region direct",
            "sbr_core.best_map.cand_direct_sweeps",
        ),
        ("  cand-region FFT", "sbr_core.best_map.cand_fft_sweeps"),
        ("  base-mapped wins", "sbr_core.best_map.base_wins"),
        ("  fallback wins", "sbr_core.best_map.fallback_wins"),
        ("Search probes", "sbr_core.search.probes"),
        ("Probe-cache hits", "sbr_core.probe_cache.hits"),
        ("Probe-cache misses", "sbr_core.probe_cache.misses"),
        ("Fit-cache hits", "sbr_core.get_base.fit_cache.hits"),
        ("Fit-cache misses", "sbr_core.get_base.fit_cache.misses"),
        ("Plan-cache hits", "sbr_core.query.plan_cache.hits"),
        ("Plan-cache misses", "sbr_core.query.plan_cache.misses"),
        ("Intervals folded", "sbr_core.query.intervals_folded"),
        ("Boundary decodes", "sbr_core.query.boundary_decodes"),
        ("Base inserted", "sbr_core.base_signal.inserted"),
        ("Base evicted", "sbr_core.base_signal.evicted"),
        ("Tx mapped intervals", "sbr_core.sbr.tx_mapped_intervals"),
        (
            "Tx fallback intervals",
            "sbr_core.sbr.tx_fallback_intervals",
        ),
    ];
    for (label, name) in counters {
        if let Some(n) = snap.counter(name) {
            out.push_str(&format!("  {label:<24} {n}\n"));
        }
    }
    if let Some(slots) = snap.gauge("sbr_core.base_signal.slots") {
        out.push_str(&format!("  {:<24} {slots}\n", "Base slots"));
    }
    if let Some(bytes) = snap.gauge("sbr_core.probe_cache.bytes") {
        out.push_str(&format!("  {:<24} {bytes:.0}\n", "Probe-cache bytes"));
    }
    if let Some(bytes) = snap.gauge("sbr_core.get_base.fit_cache.bytes") {
        out.push_str(&format!("  {:<24} {bytes:.0}\n", "Fit-cache bytes"));
    }
    // Sensor-network metrics, when the artifact came from a network run.
    let mut net: Vec<String> = Vec::new();
    for (name, value) in &snap.metrics {
        if !name.starts_with("sensor_net.") {
            continue;
        }
        match value {
            sbr_obs::MetricValue::Counter(n) => net.push(format!("  {name:<40} {n}")),
            sbr_obs::MetricValue::Gauge(g) => net.push(format!("  {name:<40} {g:.0}")),
            sbr_obs::MetricValue::Histogram(h) => net.push(format!(
                "  {name:<40} n={} mean={:.1} p50={} p90={} p99={} max={}",
                h.count,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max
            )),
        }
    }
    if !net.is_empty() {
        out.push_str("  sensor network:\n");
        for line in net {
            out.push_str(&line);
            out.push('\n');
        }
    }
}

/// A row value in its display unit: `*_ns` rows in milliseconds, every
/// other row in its own unit.
fn row_value(name: &str, v: u64) -> String {
    if name.ends_with("_ns") {
        ms(v as f64)
    } else {
        v.to_string()
    }
}

/// Render one bench record: its key, a table of its rows, its counters.
fn render_bench_record(r: &BenchRecord, out: &mut String) {
    out.push_str(&format!("\n{}\n", r.key()));
    if !r.rows.is_empty() {
        out.push_str(&format!(
            "  {:<44} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
            "row (*_ns in ms)", "count", "sum", "p50", "p90", "p99", "max"
        ));
    }
    for row in &r.rows {
        let v = |x| row_value(&row.name, x);
        out.push_str(&format!(
            "  {:<44} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
            row.name,
            row.count,
            v(row.sum),
            v(row.p50),
            v(row.p90),
            v(row.p99),
            v(row.max)
        ));
    }
    for (name, v) in &r.counters {
        out.push_str(&format!("  {name:<44} {}\n", json::format_num(*v)));
    }
}

/// `sbr report`: render a metrics artifact as human-readable tables.
fn report(input: &str) -> Result<String, CliError> {
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let v = sbr_obs::json::parse(&text).map_err(|e| format!("{input}: {e}"))?;
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
    let mut out = String::new();
    match schema {
        "sbr-obs/v1" | "sbr-obs/v2" => {
            let snap = Snapshot::from_json(&text).map_err(|e| format!("{input}: {e}"))?;
            out.push_str(&format!("metrics snapshot {input}\n"));
            render_snapshot(&snap, &mut out);
        }
        BENCH_SCHEMA => {
            let records = bench::from_json(&text).map_err(|e| format!("{input}: {e}"))?;
            out.push_str(&format!(
                "{input}: {schema} ({} record(s))\n",
                records.len()
            ));
            for r in &records {
                render_bench_record(r, &mut out);
            }
        }
        "" => return Err(format!("{input}: missing schema field").into()),
        other => return Err(format!("{input}: unsupported schema '{other}'").into()),
    }
    Ok(out)
}

/// `sbr simulate`: drive the loss-tolerant v2 ARQ protocol over a line
/// topology with per-hop loss and a seeded end-to-end fault schedule,
/// then render the recovery statistics.
#[allow(clippy::too_many_arguments)]
fn simulate(
    nodes: usize,
    signals: usize,
    len: usize,
    batch: usize,
    band: usize,
    loss: f64,
    fault_seed: u64,
    [drop, dup, reorder, corrupt]: [f64; 4],
    crash_at: Option<(usize, u64)>,
    metrics_out: Option<&str>,
    store: Option<&str>,
    segment_bytes: Option<u64>,
) -> Result<String, CliError> {
    if batch == 0 || len < batch {
        return Err(CliError::Usage(format!(
            "--len {len} must cover at least one --batch {batch}"
        )));
    }
    if let Some((node, _)) = crash_at {
        if node == 0 || node >= nodes {
            return Err(CliError::Usage(format!(
                "--crash-at node {node} is not a sensor (valid: 1..{nodes})"
            )));
        }
    }

    // Deterministic synthetic feed: smooth per-sensor mixtures so SBR has
    // structure to exploit (the protocol under test is delivery, not
    // compression quality).
    let data: Vec<Vec<Vec<f64>>> = (0..nodes - 1)
        .map(|n| {
            (0..signals)
                .map(|s| {
                    (0..len)
                        .map(|t| {
                            let x = t as f64;
                            (x * 0.9 + (n * 3 + s) as f64 * 2.1).sin() * 4.0
                                + (x * 0.23).cos() * 2.0
                                + ((t * 7 + s) % 5) as f64
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    let mut net = Network::new(Topology::line(nodes, 1.0), EnergyModel::default());
    if let Some(dir) = store {
        net.set_store_dir(dir, segment_bytes);
    }
    if loss > 0.0 {
        net.set_link(LossyLink::new(loss, 12, fault_seed | 1));
    }
    let mut plan = FaultPlan::new(fault_seed)
        .with_drop(drop)
        .with_dup(dup)
        .with_reorder(reorder)
        .with_corrupt(corrupt);
    if let Some((node, chunk)) = crash_at {
        plan = plan.with_crash_at(node, chunk);
    }
    net.set_fault_plan(plan);

    // A recorder (and a frame-lifecycle timeline feeding it) is built
    // whenever someone will read it: --metrics or the SBR_TRACE
    // environment variable. The timeline mirrors every frame event into
    // the trace log, so `sbr trace --frame/--node/--kind` can follow one
    // frame through the pipeline.
    let env_trace = std::env::var(sbr_obs::TRACE_ENV).is_ok_and(|v| !v.is_empty());
    let recorder: Option<Arc<MetricsRecorder>> = if metrics_out.is_some() || env_trace {
        Some(Arc::new(
            MetricsRecorder::from_env().map_err(|e| e.to_string())?,
        ))
    } else {
        None
    };
    if let Some(rec) = &recorder {
        net.set_recorder(Arc::clone(rec) as Arc<dyn Recorder>);
        net.set_timeline(Timeline::with_recorder(
            rec.as_ref(),
            DEFAULT_TIMELINE_CAPACITY,
        ));
    }

    let report = net
        .simulate(&data, batch, &Strategy::SbrArq(SbrConfig::new(band, band)))
        .map_err(|e| e.to_string())?;
    let stats = report.recovery.ok_or_else(|| {
        CliError::Runtime("simulation reported no recovery stats for an ARQ run".into())
    })?;

    let mut out = format!(
        "simulated {} sensor(s) × {signals} signal(s) × {len} samples \
         (batch {batch}, band {band})\n\
         per-hop loss {loss:.2}, fault seed {fault_seed} \
         (drop {drop:.2} dup {dup:.2} reorder {reorder:.2} corrupt {corrupt:.2})\n",
        nodes - 1
    );
    out.push_str("recovery:\n");
    for (label, v) in [
        ("frames sent", stats.frames_sent),
        ("frames delivered", stats.frames_delivered),
        ("duplicates discarded", stats.duplicates_discarded),
        ("gaps detected", stats.gaps_detected),
        ("corrupt rejected", stats.corrupt_rejected),
        ("resyncs", stats.resyncs),
        ("retx overflows", stats.retx_overflows),
        ("max retx depth", stats.max_retx_depth as u64),
        ("crashes", stats.crashes),
        ("acks sent", stats.acks_sent),
    ] {
        out.push_str(&format!("  {label:<22} {v}\n"));
    }
    out.push_str(&format!(
        "  {:<22} {}/{} ({:.1}%)\n",
        "chunks delivered",
        stats.chunks_delivered,
        stats.chunks_flushed,
        100.0 * stats.delivered_fraction()
    ));
    out.push_str(&format!(
        "energy {:.1} total, {} values on air, sse {:.4e}\n",
        report.total_energy(),
        report.values_sent,
        report.sse
    ));

    if let Some(dir) = store {
        let d = Path::new(dir);
        let stored = storage::nodes(d);
        out.push_str(&format!(
            "persisted {} sensor store(s) under {dir}\n",
            stored.len()
        ));
        for node in stored {
            let r = storage::verify(d, node).map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "  sensor {node}: {} segment(s), {} checkpoint(s), {} record(s), {} payload bytes\n",
                r.segments, r.checkpoints, r.records, r.payload_bytes
            ));
        }
    }
    if let (Some(rec), Some(path)) = (&recorder, metrics_out) {
        std::fs::write(path, rec.snapshot().to_json())
            .map_err(|e| format!("cannot write metrics {path}: {e}"))?;
        out.push_str(&format!("wrote metrics snapshot {path}\n"));
    }
    Ok(out)
}

/// `sbr storage inspect`: audit every sensor store under `dir` end to
/// end — every record CRC, the epoch/sequence continuity chain, and
/// each checkpoint's snapshot against the walk state at its boundary.
/// Any damage is a runtime error (exit 1), so this doubles as a
/// post-crash health check.
fn storage_inspect(dir: &Path) -> Result<String, CliError> {
    let nodes = storage::nodes(dir);
    if nodes.is_empty() {
        return Err(CliError::Runtime(format!(
            "{}: no sensor stores (expected sensor-<id> subdirectories)",
            dir.display()
        )));
    }
    let mut out = format!("store {}: {} sensor store(s)\n", dir.display(), nodes.len());
    out.push_str(
        "  node  segments  checkpoints    records      bytes  epoch  next-seq  resync@  tail\n",
    );
    for node in nodes {
        let r = storage::verify(dir, node).map_err(|e| e.to_string())?;
        let resync = r
            .newest_resync
            .map(|i| i.to_string())
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "  {node:>4}  {:>8}  {:>11}  {:>9}  {:>9}  {:>5}  {:>8}  {resync:>7}  {:>4}\n",
            r.segments,
            r.checkpoints,
            r.records,
            r.payload_bytes,
            r.epoch,
            r.next_seq,
            r.truncated_tail,
        ));
    }
    out.push_str("all stores verified: every record CRC and checkpoint snapshot checks out\n");
    Ok(out)
}

/// `sbr storage compact`: drop checkpoints superseded behind each
/// store's newest resync snapshot (the newest checkpoint always
/// survives). Stores without a resync are left untouched.
fn storage_compact(dir: &Path) -> Result<String, CliError> {
    let nodes = storage::nodes(dir);
    if nodes.is_empty() {
        return Err(CliError::Runtime(format!(
            "{}: no sensor stores (expected sensor-<id> subdirectories)",
            dir.display()
        )));
    }
    let mut out = String::new();
    let mut total = 0u32;
    for node in nodes {
        let r = storage::verify(dir, node).map_err(|e| e.to_string())?;
        let dropped = match r.newest_resync {
            Some(at) => storage::compact(dir, node, at).map_err(|e| e.to_string())?,
            None => 0,
        };
        total += dropped;
        out.push_str(&format!(
            "  sensor {node}: dropped {dropped} superseded checkpoint(s)\n"
        ));
    }
    Ok(format!(
        "compacted {}: {total} checkpoint(s) dropped\n{out}",
        dir.display()
    ))
}

/// `sbr trace`: pretty-print a line-delimited structured event log.
/// The lifecycle filters (`--frame`, `--node`, `--kind`) match the
/// fields `sensor_net.timeline.*` events carry; events without the
/// field are hidden while that filter is active.
fn trace_log(
    input: &str,
    filter: Option<&str>,
    frame: Option<FrameId>,
    node: Option<u32>,
    kind: Option<EventKind>,
) -> Result<String, CliError> {
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let mut out = String::new();
    let (mut shown, mut total, mut bad) = (0usize, 0usize, 0usize);
    let field_is =
        |v: &Value, key: &str, want: &str| v.get(key).and_then(Value::as_str) == Some(want);
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        total += 1;
        let Ok(v) = sbr_obs::json::parse(line) else {
            bad += 1;
            continue;
        };
        let name = v.get("name").and_then(Value::as_str).unwrap_or("?");
        if let Some(f) = filter {
            if !name.contains(f) {
                continue;
            }
        }
        if let Some(f) = frame {
            if !field_is(&v, "frame", &f.to_string()) {
                continue;
            }
        }
        if let Some(n) = node {
            if !field_is(&v, "node", &n.to_string()) {
                continue;
            }
        }
        if let Some(k) = kind {
            if !field_is(&v, "kind", k.as_str()) {
                continue;
            }
        }
        shown += 1;
        let ts_ms = v
            .get("ts_ns")
            .and_then(Value::as_f64)
            .map_or(0.0, |ns| ns / 1e6);
        out.push_str(&format!("{ts_ms:>12.3}  {name:<36}"));
        if let Some(d) = v.get("dur_ns").and_then(Value::as_f64) {
            out.push_str(&format!(" {:>10} ms", ms(d)));
        }
        if let Some(obj) = v.as_obj() {
            for (k, fv) in obj {
                if matches!(k.as_str(), "ts_ns" | "name" | "dur_ns") {
                    continue;
                }
                out.push_str(&format!("  {k}={fv}"));
            }
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "{shown} of {total} event(s) shown ({bad} unparseable)\n"
    ));
    Ok(out)
}

/// `*_ns` row sums this short on both sides are timer noise: `perf diff`
/// prints them but never lets them fail the gate (1 ms).
const PERF_MIN_WALL_NS: f64 = 1e6;

/// Load a benchmark artifact's records.
fn bench_records(path: &str) -> Result<Vec<BenchRecord>, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Ok(bench::from_json(&text).map_err(|e| format!("{path}: {e}"))?)
}

/// Hit rate of every `<stem>.hits`/`<stem>.misses` counter pair of `r`
/// that saw traffic, as `(stem, rate in [0, 1])`.
fn hit_rates(r: &BenchRecord) -> Vec<(&str, f64)> {
    r.counters
        .iter()
        .filter_map(|(name, hits)| {
            let stem = name.strip_suffix(".hits")?;
            let misses = r.counter(&format!("{stem}.misses"))?;
            (hits + misses > 0.0).then(|| (stem, hits / (hits + misses)))
        })
        .collect()
}

/// `sbr perf diff`: compare two benchmark artifacts record by record, by
/// one rule for every record. The sum of every `*_ns` row gates on
/// relative growth beyond `tolerance`; every `<x>.hits`/`<x>.misses`
/// counter pair gates on an absolute hit-rate drop beyond `tolerance`; a
/// baseline record, gated row or pair missing from the candidate fails.
/// Any other counter that changed is reported for information only.
fn perf_diff(
    baseline_path: &str,
    candidate_path: &str,
    tolerance: f64,
    report_out: Option<&str>,
) -> Result<String, CliError> {
    let base = bench_records(baseline_path)?;
    let cand = bench_records(candidate_path)?;
    let cand_map: std::collections::HashMap<String, &BenchRecord> =
        cand.iter().map(|r| (r.key(), r)).collect();

    let mut out = format!(
        "perf diff: {baseline_path} (baseline) vs {candidate_path} (candidate), \
         tolerance +{:.0}%\n",
        tolerance * 100.0
    );
    let (mut compared, mut regressions) = (0usize, 0usize);
    let mut missing = Vec::new();
    for br in &base {
        let key = br.key();
        let Some(cr) = cand_map.get(&key) else {
            missing.push(key);
            continue;
        };
        compared += 1;
        out.push_str(&format!("\n{key}\n"));
        for row in br.rows.iter().filter(|r| r.name.ends_with("_ns")) {
            let Some(crow) = cr.row(&row.name) else {
                regressions += 1;
                out.push_str(&format!(
                    "  {:<44} missing in candidate  REGRESSION\n",
                    row.name
                ));
                continue;
            };
            let (b, c) = (row.sum as f64, crow.sum as f64);
            // lint:allow(panic-reachability): f64 division — cannot panic
            let delta = if b > 0.0 { (c - b) / b } else { 0.0 };
            let verdict = if b < PERF_MIN_WALL_NS && c < PERF_MIN_WALL_NS {
                "ok (below noise floor)"
            } else if delta > tolerance {
                regressions += 1;
                "REGRESSION"
            } else if delta < -tolerance {
                "improved"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "  {:<44} {:>9} ms -> {:>9} ms  {:>+7.1}%  {verdict}\n",
                row.name,
                ms(b),
                ms(c),
                delta * 100.0
            ));
        }
        let cand_rates = hit_rates(cr);
        let base_rates = hit_rates(br);
        for &(stem, bv) in &base_rates {
            let label = format!("{stem} hit rate");
            let Some(&(_, cv)) = cand_rates.iter().find(|(s, _)| *s == stem) else {
                regressions += 1;
                out.push_str(&format!("  {label:<44} missing in candidate  REGRESSION\n"));
                continue;
            };
            let verdict = if bv - cv > tolerance {
                regressions += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "  {label:<44} {:>8.1} %  -> {:>8.1} %   {:>+7.1}pp  {verdict}\n",
                bv * 100.0,
                cv * 100.0,
                (cv - bv) * 100.0
            ));
        }
        // Every other counter is informational: seeded runs reproduce
        // most of them exactly, so drift is worth a line, not a failure.
        let gated = |name: &str| {
            let stem = name
                .strip_suffix(".hits")
                .or_else(|| name.strip_suffix(".misses"));
            stem.is_some_and(|s| base_rates.iter().any(|(b, _)| *b == s))
        };
        for (name, b) in br.counters.iter().filter(|(n, _)| !gated(n)) {
            match cr.counter(name) {
                Some(c) if c.to_bits() != b.to_bits() => out.push_str(&format!(
                    "  {name:<44} {} -> {}  changed\n",
                    json::format_num(*b),
                    json::format_num(c)
                )),
                Some(_) => {}
                None => out.push_str(&format!("  {name:<44} missing in candidate\n")),
            }
        }
    }
    if compared == 0 {
        return Err(format!(
            "perf diff: no overlapping records between {baseline_path} and {candidate_path}"
        )
        .into());
    }
    for key in &missing {
        out.push_str(&format!(
            "\nMISSING {key}: baseline record has no candidate record  REGRESSION\n"
        ));
    }
    out.push_str(&format!(
        "\ncompared {compared} record(s): {regressions} regression(s) beyond tolerance, \
         {} missing record(s)\n",
        missing.len()
    ));
    if let Some(p) = report_out {
        std::fs::write(p, &out).map_err(|e| format!("cannot write report {p}: {e}"))?;
    }
    if regressions > 0 || !missing.is_empty() {
        return Err(CliError::Runtime(out));
    }
    Ok(out)
}

fn row(name: &str, exact: &[f64], approx: &[f64]) -> String {
    format!(
        "{name:<24} {:>14.4e} {:>15.4e}\n",
        ErrorMetric::Sse.score(exact, approx),
        ErrorMetric::relative().score(exact, approx),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("sbr-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_sample_csv(path: &Path, rows: usize) {
        let mut s = String::from("a,b\n");
        for i in 0..rows {
            let t = i as f64;
            s.push_str(&format!(
                "{},{}\n",
                (t * 0.2).sin() * 5.0,
                (t * 0.2).sin() * 10.0 + 1.0
            ));
        }
        std::fs::write(path, s).unwrap();
    }

    fn run_argv(args: &str) -> Result<String, CliError> {
        let argv: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        run(&parse(&argv).map_err(CliError::Usage)?)
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let dir = tempdir("roundtrip");
        let csv_in = dir.join("in.csv");
        let stream = dir.join("out.sbr");
        let csv_out = dir.join("rec.csv");
        write_sample_csv(&csv_in, 256);

        let msg = run_argv(&format!(
            "compress --input {} --output {} --band 96 --batch 128",
            csv_in.display(),
            stream.display()
        ))
        .unwrap();
        assert!(msg.contains("2 batches"), "{msg}");

        let msg = run_argv(&format!(
            "decompress --input {} --output {}",
            stream.display(),
            csv_out.display()
        ))
        .unwrap();
        assert!(msg.contains("256 samples × 2 signals"), "{msg}");

        // Reconstruction is close: the two columns are affine images of one
        // sine, SBR eats this for breakfast.
        let orig = csv::read(std::io::BufReader::new(File::open(&csv_in).unwrap())).unwrap();
        let rec = csv::read(std::io::BufReader::new(File::open(&csv_out).unwrap())).unwrap();
        let mut sse = 0.0;
        for (a, b) in orig.columns.iter().zip(&rec.columns) {
            sse += ErrorMetric::Sse.score(a, b);
        }
        let energy: f64 = orig.columns.iter().flatten().map(|v| v * v).sum();
        assert!(sse < 0.05 * energy, "sse {sse} vs energy {energy}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The failure modes a deployment actually hits — malformed input
    /// data, missing artifacts, empty streams — must come back as typed
    /// runtime errors (exit 1), never as panics, and usage mistakes as
    /// exit 2. `main` routes both through `trace_error` (`cli.error`).
    #[test]
    fn operational_failures_are_typed_errors_not_panics() {
        let dir = tempdir("typed-errors");

        // Malformed CSV: a non-numeric cell mid-file.
        let bad_csv = dir.join("bad.csv");
        std::fs::write(&bad_csv, "a,b\n1.0,2.0\noops,3.0\n").unwrap();
        let err = run_argv(&format!(
            "compress --input {} --output {} --band 8 --batch 2",
            bad_csv.display(),
            dir.join("out.sbr").display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err:?}");

        // Unreadable metrics artifact for `report`.
        let err = run_argv(&format!("report --input {}/absent.json", dir.display())).unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err:?}");
        assert!(err.message().contains("cannot open"), "{err:?}");

        // A stream with no complete transmissions decompresses to an error.
        let empty = dir.join("empty.sbr");
        std::fs::write(&empty, b"").unwrap();
        let err = run_argv(&format!(
            "decompress --input {} --output {}",
            empty.display(),
            dir.join("rec.csv").display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err:?}");

        // A bad --crash-at spec is a usage error (exit 2), caught at parse.
        let err = run_argv("simulate --crash-at nonsense").unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err:?}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn info_lists_transmissions() {
        let dir = tempdir("info");
        let csv_in = dir.join("in.csv");
        let stream = dir.join("out.sbr");
        write_sample_csv(&csv_in, 192);
        run_argv(&format!(
            "compress --input {} --output {} --band 48 --batch 64",
            csv_in.display(),
            stream.display()
        ))
        .unwrap();
        let out = run_argv(&format!("info --input {}", stream.display())).unwrap();
        assert_eq!(out.lines().count(), 4, "{out}"); // header + 3 rows
        assert!(out.contains("  0 "), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compare_prints_all_methods() {
        let dir = tempdir("compare");
        let csv_in = dir.join("in.csv");
        write_sample_csv(&csv_in, 128);
        let out = run_argv(&format!("compare --input {} --band 32", csv_in.display())).unwrap();
        for name in [
            "SBR",
            "Wavelets",
            "DCT",
            "Fourier",
            "Histograms",
            "Quadratic",
        ] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aggregate_matches_decompressed_csv() {
        let dir = tempdir("agg");
        let csv_in = dir.join("in.csv");
        let stream = dir.join("out.sbr");
        write_sample_csv(&csv_in, 256);
        run_argv(&format!(
            "compress --input {} --output {} --band 96 --batch 128",
            csv_in.display(),
            stream.display()
        ))
        .unwrap();
        let out = run_argv(&format!(
            "aggregate --input {} --signal 1 --from 50 --to 200",
            stream.display()
        ))
        .unwrap();
        // Cross-check against full decompression.
        let csv_out = dir.join("rec.csv");
        run_argv(&format!(
            "decompress --input {} --output {}",
            stream.display(),
            csv_out.display()
        ))
        .unwrap();
        let rec = csv::read(std::io::BufReader::new(File::open(&csv_out).unwrap())).unwrap();
        let slice = &rec.columns[1][50..200];
        let sum: f64 = slice.iter().sum();
        let sum_line = out.lines().find(|l| l.starts_with("sum")).unwrap();
        let got: f64 = sum_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(
            (got - sum).abs() < 1e-4 * (1.0 + sum.abs()),
            "{got} vs {sum}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aggregate_rejects_bad_ranges() {
        let dir = tempdir("aggbad");
        let csv_in = dir.join("in.csv");
        let stream = dir.join("out.sbr");
        write_sample_csv(&csv_in, 128);
        run_argv(&format!(
            "compress --input {} --output {} --band 64",
            csv_in.display(),
            stream.display()
        ))
        .unwrap();
        let s = stream.display();
        // Inverted/empty range: the invocation is wrong → usage, exit 2.
        let e = run_argv(&format!("aggregate --input {s} --signal 0 --from 9 --to 9")).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e:?}");
        assert!(e.message().contains("--from must be below --to"), "{e}");
        let e = run_argv(&format!(
            "aggregate --input {s} --signal 0 --from 20 --to 9"
        ))
        .unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e:?}");
        // Unknown signal: well-formed command, the work fails → runtime.
        let e = run_argv(&format!("aggregate --input {s} --signal 7 --from 0 --to 9")).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        // Range past the stream: runtime, with a clear out-of-range message.
        let e = run_argv(&format!(
            "aggregate --input {s} --signal 0 --from 0 --to 999"
        ))
        .unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        assert!(
            e.message().contains("runs past the 128 logged samples"),
            "{e}"
        );
        // The decode engine classifies identically.
        let e = run_argv(&format!(
            "aggregate --input {s} --signal 0 --from 0 --to 999 --engine decode"
        ))
        .unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        assert!(e.message().contains("runs past the"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aggregate_engines_agree() {
        let dir = tempdir("aggab");
        let csv_in = dir.join("in.csv");
        let stream = dir.join("out.sbr");
        write_sample_csv(&csv_in, 256);
        run_argv(&format!(
            "compress --input {} --output {} --band 96 --batch 128",
            csv_in.display(),
            stream.display()
        ))
        .unwrap();
        let s = stream.display();
        for (from, to) in [(0usize, 256usize), (50, 200), (130, 140)] {
            let fast = run_argv(&format!(
                "aggregate --input {s} --signal 1 --from {from} --to {to}"
            ))
            .unwrap();
            let slow = run_argv(&format!(
                "aggregate --input {s} --signal 1 --from {from} --to {to} --engine decode"
            ))
            .unwrap();
            assert!(fast.contains("(compressed engine)"), "{fast}");
            assert!(slow.contains("(decode engine)"), "{slow}");
            // The four value lines must agree to the printed precision.
            let values = |out: &str| -> Vec<String> {
                out.lines()
                    .filter(|l| {
                        ["sum", "avg", "min", "max"]
                            .iter()
                            .any(|p| l.starts_with(p))
                    })
                    .map(str::to_string)
                    .collect()
            };
            assert_eq!(values(&fast), values(&slow), "[{from},{to})");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run_argv("compress --input /nonexistent.csv --output /tmp/x --band 10").is_err());
        assert!(run_argv("decompress --input /nonexistent.sbr --output /tmp/x").is_err());
        let dir = tempdir("badbatch");
        let csv_in = dir.join("in.csv");
        write_sample_csv(&csv_in, 16);
        assert!(run_argv(&format!(
            "compress --input {} --output {} --band 64 --batch 999",
            csv_in.display(),
            dir.join("o").display()
        ))
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generate_then_compress_pipeline() {
        let dir = tempdir("gen");
        let csv_path = dir.join("weather.csv");
        let out = run_argv(&format!(
            "generate --dataset weather --output {} --len 512 --seed 7",
            csv_path.display()
        ))
        .unwrap();
        assert!(out.contains("6 signals × 512"), "{out}");
        // Header row names the quantities.
        let t = csv::read(std::io::BufReader::new(File::open(&csv_path).unwrap())).unwrap();
        assert_eq!(t.names[0], "air_temperature");
        assert_eq!(t.rows(), 512);
        // The generated CSV feeds straight into compress.
        let stream = dir.join("w.sbr");
        run_argv(&format!(
            "compress --input {} --output {} --band 300 --batch 256",
            csv_path.display(),
            stream.display()
        ))
        .unwrap();
        let info = run_argv(&format!("info --input {}", stream.display())).unwrap();
        assert!(info.lines().count() >= 3, "{info}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn help_shows_usage() {
        let out = run_argv("help").unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn usage_and_runtime_errors_are_classified() {
        // Missing file: the command line is fine, the work fails → runtime.
        let e = run_argv("decompress --input /nonexistent.sbr --output /tmp/x").unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        // Empty aggregate range: the invocation is wrong → usage.
        let e = run_argv("aggregate --input x --signal 0 --from 9 --to 9").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e:?}");
        // Unparseable flags → usage.
        let e = run_argv("compress --input a --output b --band ten").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e:?}");
        // Batch larger than the file → usage.
        let dir = tempdir("classify");
        let csv_in = dir.join("in.csv");
        write_sample_csv(&csv_in, 16);
        let e = run_argv(&format!(
            "compress --input {} --output {} --band 64 --batch 999",
            csv_in.display(),
            dir.join("o").display()
        ))
        .unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compress_writes_metrics_and_trace_then_report_and_trace_render_them() {
        let dir = tempdir("obs");
        let csv_in = dir.join("in.csv");
        let stream = dir.join("out.sbr");
        let metrics = dir.join("metrics.json");
        let trace = dir.join("trace.log");
        write_sample_csv(&csv_in, 256);

        let msg = run_argv(&format!(
            "compress --input {} --output {} --band 96 --batch 128 --metrics {} --trace {}",
            csv_in.display(),
            stream.display(),
            metrics.display(),
            trace.display()
        ))
        .unwrap();
        assert!(msg.contains("wrote metrics snapshot"), "{msg}");

        // The snapshot is a valid sbr-obs/v2 document with pipeline data.
        let snap = Snapshot::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(snap.counter("sbr_core.best_map.calls").unwrap() > 0);
        assert_eq!(
            snap.histogram("sbr_core.sbr.encode_ns").unwrap().count,
            2,
            "one encode span per batch"
        );

        // `report` renders the per-phase table from it, with the
        // bounded-error quantile columns.
        let rep = run_argv(&format!("report --input {}", metrics.display())).unwrap();
        assert!(rep.contains("encode (total)"), "{rep}");
        assert!(rep.contains("BestMap calls"), "{rep}");
        assert!(rep.contains("p50-ms"), "{rep}");
        assert!(rep.contains("p99-ms"), "{rep}");

        // `trace` pretty-prints the event log; spans landed there too.
        let tr = run_argv(&format!("trace --input {}", trace.display())).unwrap();
        assert!(tr.contains("sbr_core.sbr.encode_ns"), "{tr}");
        // Filtering narrows the output.
        let filtered = run_argv(&format!(
            "trace --input {} --filter get_base",
            trace.display()
        ))
        .unwrap();
        assert!(
            filtered.contains("sbr_core.get_base.build_ns"),
            "{filtered}"
        );
        assert!(!filtered.contains("sbr_core.sbr.encode_ns"), "{filtered}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_clean_channel_delivers_everything() {
        let out = run_argv("simulate --nodes 3 --len 256 --batch 64").unwrap();
        assert!(out.contains("simulated 2 sensor(s)"), "{out}");
        assert!(out.contains("chunks delivered       8/8 (100.0%)"), "{out}");
        // No faults were injected, so recovery machinery stayed idle.
        assert!(out.contains("resyncs                0"), "{out}");
        assert!(out.contains("gaps detected          0"), "{out}");
    }

    #[test]
    fn simulate_chaos_recovers_and_reports_metrics() {
        let dir = tempdir("simulate");
        let metrics = dir.join("net.json");
        let out = run_argv(&format!(
            "simulate --nodes 3 --len 512 --batch 64 --loss 0.1 --fault-seed 42 \
             --drop 0.3 --dup 0.1 --crash-at 1:3 --metrics {}",
            metrics.display()
        ))
        .unwrap();
        // The fault schedule fired and the protocol healed: every flushed
        // chunk of the surviving epochs reached the station.
        assert!(out.contains("crashes                1"), "{out}");
        assert!(out.contains("(100.0%)"), "{out}");

        // The snapshot carries the recovery counters and `report` renders
        // them under the sensor-network section.
        let snap = Snapshot::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(snap.counter("sensor_net.recovery.acks").unwrap() > 0);
        assert!(snap.counter("sensor_net.recovery.resyncs").unwrap() > 0);
        // The frame-lifecycle timeline fed the quantile histograms and
        // its overflow counter reports an uncontended ring.
        assert!(
            snap.histogram("sensor_net.recovery.retx_depth_per_round")
                .unwrap()
                .count
                > 0
        );
        assert!(
            snap.histogram("sensor_net.recovery.ack_rtt_rounds")
                .unwrap()
                .count
                > 0
        );
        assert_eq!(snap.counter(sbr_obs::TIMELINE_DROPPED_METRIC), Some(0));
        let rep = run_argv(&format!("report --input {}", metrics.display())).unwrap();
        assert!(rep.contains("sensor_net.recovery.acks"), "{rep}");
        // Quantiles render for the network histograms.
        assert!(
            rep.contains("sensor_net.recovery.retx_depth_per_round"),
            "{rep}"
        );
        assert!(rep.contains("p99="), "{rep}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_store_then_inspect_and_compact() {
        let dir = tempdir("store-cli");
        let store = dir.join("stores");
        // Tiny segments so the run seals many segments and writes
        // checkpoints; a crash forces a resync, giving compact work.
        let out = run_argv(&format!(
            "simulate --nodes 3 --len 512 --batch 64 --crash-at 1:3 \
             --store {} --segment-bytes 256",
            store.display()
        ))
        .unwrap();
        assert!(out.contains("persisted 2 sensor store(s)"), "{out}");

        let rep = run_argv(&format!("storage inspect {}", store.display())).unwrap();
        assert!(rep.contains("2 sensor store(s)"), "{rep}");
        assert!(rep.contains("all stores verified"), "{rep}");

        let comp = run_argv(&format!("storage compact {}", store.display())).unwrap();
        assert!(comp.contains("compacted"), "{comp}");
        // Compaction preserves full auditability: the walk still checks
        // out from the origin.
        run_argv(&format!("storage inspect {}", store.display())).unwrap();

        // Flip one byte inside the first sealed segment of sensor 1:
        // inspect must turn into a runtime failure naming the damage.
        let seg = store.join("sensor-1").join("seg-00000000.sbrseg");
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();
        let e = run_argv(&format!("storage inspect {}", store.display())).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn storage_inspect_rejects_empty_dir() {
        let dir = tempdir("store-empty");
        let e = run_argv(&format!("storage inspect {}", dir.display())).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_rejects_bad_geometry() {
        // A batch the feed can't fill and a crash on a non-sensor node are
        // usage errors, not runtime failures.
        let e = run_argv("simulate --len 32 --batch 64").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e:?}");
        let e = run_argv("simulate --crash-at 0:2").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e:?}");
        let e = run_argv("simulate --nodes 3 --crash-at 5:2").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e:?}");
    }

    /// A record of `experiment` whose rows have the given sums and whose
    /// counters have the given values.
    fn bench_record(
        experiment: &str,
        rows: &[(&str, f64)],
        counters: &[(&str, f64)],
    ) -> BenchRecord {
        BenchRecord {
            experiment: experiment.into(),
            params: vec![("n".into(), 5120.0), ("ratio".into(), 0.05)],
            rows: rows
                .iter()
                .map(|&(name, sum)| sbr_obs::bench::BenchRow {
                    name: name.into(),
                    count: 10,
                    sum: sum as u64,
                    p50: 0,
                    p90: 0,
                    p99: 0,
                    max: 0,
                })
                .collect(),
            counters: counters.iter().map(|&(k, v)| (k.into(), v)).collect(),
        }
    }

    /// A fig5-shaped record whose walls are scaled by `scale` (1.0 = the
    /// baseline).
    fn fig5_record(scale: f64) -> BenchRecord {
        bench_record(
            "fig5",
            &[
                ("sbr_core.sbr.encode_ns", 1e8 * scale),
                ("sbr_core.search.run_ns", 8e7 * scale),
                ("sbr_core.get_base.build_ns", 6e7 * scale),
            ],
            &[
                ("sbr_core.probe_cache.hits", 900.0),
                ("sbr_core.probe_cache.misses", 1100.0),
                ("sbr_core.best_map.calls", 11088.0),
            ],
        )
    }

    fn write_bench(path: &Path, records: &[BenchRecord]) {
        std::fs::write(path, bench::to_json(records)).unwrap();
    }

    #[test]
    fn perf_diff_detects_seeded_regression() {
        let dir = tempdir("perfdiff");
        let base = dir.join("base.json");
        let slow = dir.join("slow.json");
        let report = dir.join("diff.txt");
        write_bench(&base, &[fig5_record(1.0)]);
        write_bench(&slow, &[fig5_record(1.3)]);

        // A 30% wall regression trips the default 25% tolerance: exit 1,
        // and the report file is still written for archival.
        let e = run_argv(&format!(
            "perf diff {} {} --report {}",
            base.display(),
            slow.display(),
            report.display()
        ))
        .unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        assert!(e.message().contains("REGRESSION"), "{e:?}");
        assert!(e.message().contains("sbr_core.sbr.encode_ns"), "{e:?}");
        let saved = std::fs::read_to_string(&report).unwrap();
        assert!(saved.contains("REGRESSION"), "{saved}");

        // Widening the tolerance past the regression passes it.
        let ok = run_argv(&format!(
            "perf diff {} {} --tolerance 0.5",
            base.display(),
            slow.display()
        ))
        .unwrap();
        assert!(ok.contains("0 regression(s)"), "{ok}");

        // And comparing a run against itself is always clean.
        let ok = run_argv(&format!("perf diff {} {}", base.display(), base.display())).unwrap();
        assert!(ok.contains("0 regression(s)"), "{ok}");
        assert!(ok.contains("sbr_core.probe_cache hit rate"), "{ok}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn perf_diff_improvements_do_not_fail() {
        let dir = tempdir("perfgain");
        let base = dir.join("base.json");
        let fast = dir.join("fast.json");
        write_bench(&base, &[fig5_record(1.0)]);
        write_bench(&fast, &[fig5_record(0.5)]);
        let ok = run_argv(&format!("perf diff {} {}", base.display(), fast.display())).unwrap();
        assert!(ok.contains("improved"), "{ok}");
        assert!(ok.contains("0 regression(s)"), "{ok}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn perf_diff_fails_when_a_baseline_record_is_missing() {
        let dir = tempdir("perfmissing");
        let base = dir.join("base.json");
        let cand = dir.join("cand.json");
        let other = bench_record("network_sim", &[], &[("bench.recovery.resyncs", 0.0)]);
        write_bench(&base, &[fig5_record(1.0), other]);
        write_bench(&cand, &[fig5_record(1.0)]);
        let e = run_argv(&format!("perf diff {} {}", base.display(), cand.display())).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        assert!(
            e.message()
                .contains("MISSING network_sim n=5120 ratio=0.05"),
            "{e:?}"
        );
        assert!(e.message().contains("1 missing record(s)"), "{e:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_made_up_experiment_renders_and_gates_without_a_cli_edit() {
        let dir = tempdir("perfmadeup");
        let base = dir.join("base.json");
        let slow = dir.join("slow.json");
        let rec = |wall: f64, hits: f64| {
            bench_record(
                "made_up",
                &[("foo.bar_ns", wall)],
                &[("foo.cache.hits", hits), ("foo.cache.misses", 100.0 - hits)],
            )
        };
        write_bench(&base, &[rec(1e7, 90.0)]);
        write_bench(&slow, &[rec(1.3e7, 90.0)]);

        let rep = run_argv(&format!("report --input {}", base.display())).unwrap();
        assert!(rep.contains("made_up n=5120 ratio=0.05"), "{rep}");
        assert!(rep.contains("foo.bar_ns"), "{rep}");
        assert!(rep.contains("foo.cache.hits"), "{rep}");

        let e = run_argv(&format!("perf diff {} {}", base.display(), slow.display())).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        assert!(
            e.message()
                .lines()
                .any(|l| l.contains("foo.bar_ns") && l.contains("REGRESSION")),
            "{e:?}"
        );

        // A hit-rate drop past the tolerance gates too.
        write_bench(&slow, &[rec(1e7, 50.0)]);
        let e = run_argv(&format!("perf diff {} {}", base.display(), slow.display())).unwrap_err();
        assert!(
            e.message()
                .lines()
                .any(|l| l.contains("foo.cache hit rate") && l.contains("REGRESSION")),
            "{e:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn perf_diff_rejects_non_bench_artifacts() {
        let dir = tempdir("perfbad");
        let snap = dir.join("snap.json");
        std::fs::write(&snap, "{\"schema\": \"sbr-obs/v2\", \"metrics\": {}}").unwrap();
        let e = run_argv(&format!("perf diff {} {}", snap.display(), snap.display())).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        assert!(e.message().contains("not a benchmark artifact"), "{e:?}");
        // Disjoint record sets cannot be compared.
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        write_bench(&a, &[fig5_record(1.0)]);
        write_bench(&b, &[bench_record("other", &[], &[])]);
        let e = run_argv(&format!("perf diff {} {}", a.display(), b.display())).unwrap_err();
        assert!(e.message().contains("no overlapping records"), "{e:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_and_perf_diff_reject_retired_bench_schemas() {
        let dir = tempdir("retired");
        for v in 1..=3 {
            let p = dir.join(format!("v{v}.json"));
            std::fs::write(
                &p,
                format!("{{\"schema\": \"sbr-bench/v{v}\", \"records\": []}}"),
            )
            .unwrap();
            let want = format!("unsupported schema 'sbr-bench/v{v}'");
            let e = run_argv(&format!("report --input {}", p.display())).unwrap_err();
            assert_eq!(e.exit_code(), 1, "{e:?}");
            assert!(e.message().contains(&want), "{e:?}");
            let e = run_argv(&format!("perf diff {} {}", p.display(), p.display())).unwrap_err();
            assert_eq!(e.exit_code(), 1, "{e:?}");
            assert!(e.message().contains(&want), "{e:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_lifecycle_filters_narrow_to_one_frame() {
        let dir = tempdir("tracefilter");
        let log = dir.join("t.log");
        // The shape `NetObs::frame_event` mirrors into the trace sink.
        std::fs::write(
            &log,
            concat!(
                "{\"ts_ns\":10,\"name\":\"sensor_net.timeline.tx\",\"frame\":\"1:0:3\",\"node\":\"1\",\"kind\":\"tx\",\"value\":\"0\"}\n",
                "{\"ts_ns\":20,\"name\":\"sensor_net.timeline.retx\",\"frame\":\"1:0:3\",\"node\":\"1\",\"kind\":\"retx\",\"value\":\"1\"}\n",
                "{\"ts_ns\":30,\"name\":\"sensor_net.timeline.tx\",\"frame\":\"2:0:3\",\"node\":\"2\",\"kind\":\"tx\",\"value\":\"0\"}\n",
                "{\"ts_ns\":40,\"name\":\"sensor_net.timeline.acked\",\"frame\":\"2:0:3\",\"node\":\"2\",\"kind\":\"acked\",\"value\":\"0\"}\n",
                "{\"ts_ns\":50,\"name\":\"sbr_core.sbr.encode_ns\",\"dur_ns\":900}\n",
            ),
        )
        .unwrap();
        let l = log.display();

        let one = run_argv(&format!("trace --input {l} --frame 1:0:3")).unwrap();
        assert!(one.contains("2 of 5 event(s)"), "{one}");
        assert!(one.contains("retx"), "{one}");
        assert!(!one.contains("acked"), "{one}");

        let node2 = run_argv(&format!("trace --input {l} --node 2")).unwrap();
        assert!(node2.contains("2 of 5 event(s)"), "{node2}");
        assert!(node2.contains("frame=\"2:0:3\""), "{node2}");

        let acked = run_argv(&format!("trace --input {l} --kind acked")).unwrap();
        assert!(acked.contains("1 of 5 event(s)"), "{acked}");

        // Filters compose; a frame that never acked yields nothing.
        let none = run_argv(&format!("trace --input {l} --frame 1:0:3 --kind acked")).unwrap();
        assert!(none.contains("0 of 5 event(s)"), "{none}");

        // Events without lifecycle fields are hidden while a lifecycle
        // filter is active, but still render unfiltered.
        let all = run_argv(&format!("trace --input {l}")).unwrap();
        assert!(all.contains("sbr_core.sbr.encode_ns"), "{all}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_rejects_unknown_schemas() {
        let dir = tempdir("badschema");
        let p = dir.join("x.json");
        std::fs::write(&p, "{\"schema\": \"wat/v9\"}").unwrap();
        let e = run_argv(&format!("report --input {}", p.display())).unwrap_err();
        assert_eq!(e.exit_code(), 1);
        assert!(e.message().contains("unsupported schema"), "{e:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
