//! The subcommand implementations.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::sync::Arc;

use sbr_baselines::Compressor;
use sbr_core::{
    codec, Decoder, ErrorMetric, Frame, MultiSeries, QueryEngine, SbrConfig, SbrEncoder,
};
use sbr_obs::bench::{self, BenchRecord, BENCH_SCHEMA};
use sbr_obs::json::{self, Value};
use sbr_obs::{EventKind, FrameId, HistogramSnapshot, MetricsRecorder, Recorder, Snapshot};
use sensor_net::network::{Network, Strategy};
use sensor_net::storage::{self, recover_stream};
use sensor_net::{EnergyModel, FaultPlan, LossyLink, Topology};

use crate::args::{Cli, Command, USAGE};
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
        } => aggregate(input, *signal, *from, *to),
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
            pairs,
            tolerance,
            report,
        } => perf_diff(pairs, *tolerance, report.as_deref()),
        Command::StorageInspect { dir } => storage_inspect(Path::new(dir)),
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

    // The stream writer appends; a re-run replaces the output instead.
    let out_path = Path::new(output);
    match std::fs::remove_file(out_path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("cannot replace {output}: {e}").into());
        }
        _ => {}
    }
    let mut w = storage::StreamWriter::create(out_path)
        .map_err(|e| format!("cannot create {output}: {e}"))?;

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
        w.append(&codec::encode_v2(&Frame::data(0, tx)))
            .map_err(|e| format!("cannot write {output}: {e}"))?;
    }

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

/// A `.sbr` stream loaded once through the station's frame step: every
/// frame decoded exactly (`codec::decode_exact`) and indexed by
/// `QueryEngine::index_frame`, which also enforces the epoch/seq rule
/// and one chunk shape for the whole stream.
struct SbrStream {
    frames: Vec<Frame>,
    engine: QueryEngine,
    /// Bytes of a truncated trailing frame that were discarded.
    truncated_tail: usize,
}

fn load_sbr(input: &str) -> Result<SbrStream, CliError> {
    let log = recover_stream(Path::new(input)).map_err(|e| e.to_string())?;
    let mut engine = QueryEngine::new();
    let mut tracker = Decoder::new();
    let mut frames = Vec::with_capacity(log.frames.len());
    for (i, raw) in log.frames.iter().enumerate() {
        let frame = codec::decode_exact(raw)
            .and_then(|f| engine.index_frame(&mut tracker, &f).map(|()| f))
            .map_err(|e| format!("{input}: transmission {i}: {e}"))?;
        frames.push(frame);
    }
    Ok(SbrStream {
        frames,
        engine,
        truncated_tail: log.truncated_tail,
    })
}

fn decompress(input: &str, output: &str) -> Result<String, CliError> {
    let log = load_sbr(input)?;
    let engine = &log.engine;
    if engine.is_empty() {
        return Err(format!("{input}: no complete transmissions").into());
    }
    // Every chunk decodes from its own summary; the engine has already
    // held the stream to one shape.
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); engine.n_signals()];
    for c in 0..engine.len() {
        let rows = engine
            .chunk(c)
            .ok_or_else(|| format!("{input}: transmission {c} was not indexed"))?
            .reconstruct()
            .map_err(|e| e.to_string())?;
        for (column, row) in columns.iter_mut().zip(rows) {
            column.extend(row);
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
        engine.len(),
        table.rows(),
        engine.n_signals()
    ))
}

fn info(input: &str) -> Result<String, CliError> {
    let log = load_sbr(input)?;
    let mut out = String::new();
    out.push_str("seq   signals  samples    w   base-ins  intervals   cost   ratio\n");
    for Frame { tx, .. } in &log.frames {
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

/// Range aggregates straight off the compressed stream, answered by the
/// compressed-domain query engine (closed-form interval moments, see
/// `sbr_core::QueryEngine`).
fn aggregate(input: &str, signal: usize, from: usize, to: usize) -> Result<String, CliError> {
    if to <= from {
        return Err(CliError::Usage(format!(
            "empty range [{from}, {to}): --from must be below --to"
        )));
    }
    let agg = load_sbr(input)?
        .engine
        .aggregate(signal, from, to)
        .map_err(|e| format!("{input}: {e}"))?;
    Ok(format!(
        "signal {signal}, samples [{from}, {to}) — {} values (compressed domain)
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
        (
            "  base-region direct",
            "sbr_core.best_map.base_direct_sweeps",
        ),
        (
            "  cand-region direct",
            "sbr_core.best_map.cand_direct_sweeps",
        ),
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

    // A recorder is built whenever someone will read it: --metrics or the
    // SBR_TRACE environment variable. Every frame-lifecycle event lands
    // in the trace log, so `sbr trace --frame/--node/--kind` can follow
    // one frame through the pipeline.
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
    }

    let report = net
        .simulate(&data, batch, &Strategy::Sbr(SbrConfig::new(band, band)))
        .map_err(|e| e.to_string())?;
    let stats = report.recovery.ok_or_else(|| {
        CliError::Runtime("simulation reported no recovery stats for an SBR run".into())
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

/// `*_ns` row sums under this are timer noise: `perf diff` counts them as
/// 1 ms, so two sub-floor sums never fail and no ratio divides by zero.
const PERF_MIN_WALL_NS: f64 = 1e6;

/// `perf diff` holds a median per-pair change to `max(tolerance, k·IQR)`.
const PERF_IQR_K: f64 = 2.0;

/// Work and quality counters that seeded runs of one binary reproduce bit
/// for bit: `perf diff` gates them exactly, per pair. Any increase is a
/// regression, a decrease an improvement. The `<x>.misses` of every cache
/// whose `<x>.hits` a baseline record reports are gated the same way.
const PERF_EXACT_COUNTERS: [&str; 5] = [
    "sbr_core.best_map.calls",
    "sbr_core.search.probes",
    "sbr_core.get_base.matrix_cells",
    "bench.quality.avg_sse",
    "bench.quality.total_rel",
];

/// The `*_ns` row `perf diff` also sums over every record of a file, into
/// one `total.*` row per file.
const PERF_TOTAL_OF: &str = "sbr_core.sbr.encode_ns";

/// Load a benchmark artifact's records.
fn bench_records(path: &str) -> Result<Vec<BenchRecord>, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Ok(bench::from_json(&text).map_err(|e| format!("{path}: {e}"))?)
}

/// First quartile, median and third quartile of `xs` (linear interpolation).
fn quartiles(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * xs.len().saturating_sub(1) as f64;
        let lo = xs.get(pos.floor() as usize).copied().unwrap_or(f64::NAN);
        lo + (xs.get(pos.ceil() as usize).copied().unwrap_or(lo) - lo) * pos.fract()
    };
    (at(0.25), at(0.5), at(0.75))
}

/// The verdict line of one `*_ns` row from its per-pair (baseline,
/// candidate) sums, and whether it is a regression. A pair changes by its
/// ratio − 1 (1 ms floor); the median change fails beyond
/// `max(tolerance, 2·IQR)` of the changes.
fn gate_line(label: &str, v: &[(f64, f64)], tolerance: f64) -> (String, bool) {
    let floor = |x: f64| x.max(PERF_MIN_WALL_NS);
    // lint:allow(panic-reachability): f64 division — cannot panic
    let change = |&(b, c): &(f64, f64)| floor(c) / floor(b) - 1.0;
    let (q1, delta, q3) = quartiles(v.iter().map(change).collect());
    let limit = tolerance.max(PERF_IQR_K * (q3 - q1));
    let verdict = if v.iter().all(|&(b, c)| b.max(c) < PERF_MIN_WALL_NS) {
        "ok (below noise floor)"
    } else if delta > limit {
        "REGRESSION"
    } else if delta < -limit {
        "improved"
    } else if limit > tolerance {
        "unresolved"
    } else {
        "ok"
    };
    let [b, c] = [|p: &(f64, f64)| p.0, |p: &(f64, f64)| p.1]
        .map(|side| format!("{} ms", ms(quartiles(v.iter().map(side).collect()).1)));
    let line = format!(
        "  {label:<44} {b:>12} -> {c:>12}  {:>+7.1}% (limit {:.1}%)  {verdict}\n",
        delta * 100.0,
        limit * 100.0
    );
    (line, verdict == "REGRESSION")
}

/// `sbr perf diff`: compare paired `(baseline, candidate)` runs, record
/// by record of the first baseline. Each pair reduces a `*_ns` row sum to
/// the change `candidate / baseline - 1`; the median change fails beyond
/// `max(tolerance, 2·IQR)` of the changes (one pair: IQR 0), and a pass
/// whose 2·IQR exceeds the tolerance is `unresolved`. The
/// [`PERF_EXACT_COUNTERS`] and every `<x>.misses` beside a baseline
/// `<x>.hits` fail if they grow in any pair. One synthetic
/// `total.sbr.encode_ns` row per file sums [`PERF_TOTAL_OF`] over the
/// file's records and is gated like any `*_ns` row. A record, row, pair
/// or exact counter a candidate lacks fails; other counters are
/// informational.
fn perf_diff(
    pairs: &[(String, String)],
    tolerance: f64,
    report_out: Option<&str>,
) -> Result<String, CliError> {
    let runs = pairs
        .iter()
        .map(|(b, c)| Ok((bench_records(b)?, bench_records(c)?)))
        .collect::<Result<Vec<_>, CliError>>()?;
    let mut out = format!(
        "perf diff: {} pair(s), tolerance +{:.0}%\n",
        pairs.len(),
        tolerance * 100.0
    );
    let (mut compared, mut regressions) = (0usize, 0usize);
    let mut missing = Vec::new();
    for b0 in runs.first().into_iter().flat_map(|(b, _)| b) {
        let key = b0.key();
        // (baseline, candidate) of every pair whose baseline has the record;
        // `None` if a candidate lacks it.
        let sides: Option<Vec<_>> = runs
            .iter()
            .filter_map(|(b, c)| {
                let br = b.iter().find(|r| r.key() == key)?;
                Some(c.iter().find(|r| r.key() == key).map(|cr| (br, cr)))
            })
            .collect();
        let Some(sides) = sides else {
            missing.push(key);
            continue;
        };
        compared += 1;
        out.push_str(&format!("\n{key}\n"));
        // Per-pair (baseline, candidate) values of `get`; `None` if a candidate lacks one.
        let per_pair = |get: &dyn Fn(&BenchRecord) -> Option<f64>| -> Option<Vec<(f64, f64)>> {
            sides
                .iter()
                .filter_map(|&(b, c)| get(b).map(|bv| get(c).map(|cv| (bv, cv))))
                .collect()
        };
        for row in b0.rows.iter().filter(|r| r.name.ends_with("_ns")) {
            let label = &row.name;
            let Some(v) = per_pair(&|r| Some(r.row(label)?.sum as f64)) else {
                regressions += 1;
                out.push_str(&format!("  {label:<44} missing in candidate  REGRESSION\n"));
                continue;
            };
            let (line, regressed) = gate_line(label, &v, tolerance);
            regressions += usize::from(regressed);
            out.push_str(&line);
        }
        let misses = b0
            .counters
            .iter()
            .filter_map(|(n, _)| n.strip_suffix(".hits").map(|stem| format!("{stem}.misses")));
        let exact: Vec<String> = PERF_EXACT_COUNTERS
            .iter()
            .map(|&n| n.to_string())
            .chain(misses)
            .filter(|n| b0.counter(n).is_some())
            .collect();
        for name in &exact {
            let Some(v) = per_pair(&|r| r.counter(name)) else {
                regressions += 1;
                out.push_str(&format!("  {name:<44} missing in candidate  REGRESSION\n"));
                continue;
            };
            let verdict = if v.iter().any(|(b, c)| c > b) {
                "REGRESSION"
            } else if v.iter().any(|(b, c)| c < b) {
                "improved"
            } else {
                "ok"
            };
            regressions += usize::from(verdict == "REGRESSION");
            // The first pair that moved, else the first pair.
            let (b, c) = v
                .iter()
                .find(|(b, c)| b != c)
                .or(v.first())
                .copied()
                .unwrap_or_default();
            out.push_str(&format!(
                "  {name:<44} {:>12} -> {:>12}  exact  {verdict}\n",
                json::format_num(b),
                json::format_num(c)
            ));
        }
        // Every other counter is informational: seeded runs reproduce
        // most of them exactly, so drift is worth a line, not a failure.
        for (name, _) in b0.counters.iter().filter(|(n, _)| !exact.contains(n)) {
            // The first pair in which the counter moved, if any.
            match per_pair(&|r| r.counter(name))
                .map(|v| v.into_iter().find(|(b, c)| b.to_bits() != c.to_bits()))
            {
                Some(Some((b, c))) => out.push_str(&format!(
                    "  {name:<44} {} -> {}  changed\n",
                    json::format_num(b),
                    json::format_num(c)
                )),
                Some(None) => {}
                None => out.push_str(&format!("  {name:<44} missing in candidate\n")),
            }
        }
    }
    // One synthetic row per file: its records' encode walls summed,
    // steadier than any one record's and gated like any `*_ns` row. A side
    // without the row skips it; the per-record check fails that run.
    let total = |recs: &[BenchRecord]| {
        let rows = recs.iter().filter_map(|r| r.row(PERF_TOTAL_OF));
        rows.map(|row| row.sum as f64).reduce(|a, b| a + b)
    };
    let totals: Option<Vec<_>> = runs
        .iter()
        .map(|(b, c)| Some((total(b)?, total(c)?)))
        .collect();
    if let Some(v) = totals {
        let label = format!("total.{}", PERF_TOTAL_OF.trim_start_matches("sbr_core."));
        let (line, regressed) = gate_line(&label, &v, tolerance);
        regressions += usize::from(regressed);
        out.push_str(&format!("\nevery record of each file\n{line}"));
    }
    if compared == 0 {
        let msg = "perf diff: no overlapping records between the baselines and candidates";
        return Err(msg.to_string().into());
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

    /// `compress` writes CRC-checked v2 frames: flipping any bit of any
    /// frame body makes `decompress` fail or reproduce the clean samples,
    /// never exit 0 with different ones. A re-run replaces the output
    /// rather than appending a second stream to it.
    #[test]
    fn compress_output_is_crc_checked_and_replaced_on_rerun() {
        let dir = tempdir("crc");
        let csv_in = dir.join("in.csv");
        let stream = dir.join("out.sbr");
        let flipped = dir.join("flipped.sbr");
        let csv_out = dir.join("rec.csv");
        write_sample_csv(&csv_in, 96);
        let compress = format!(
            "compress --input {} --output {} --band 40 --batch 48",
            csv_in.display(),
            stream.display()
        );
        let decompress = |input: &Path| {
            run_argv(&format!(
                "decompress --input {} --output {}",
                input.display(),
                csv_out.display()
            ))
            .map(|_| std::fs::read_to_string(&csv_out).unwrap())
        };

        run_argv(&compress).unwrap();
        let clean = decompress(&stream).unwrap();
        run_argv(&compress).unwrap();
        assert_eq!(
            decompress(&stream).unwrap(),
            clean,
            "compressing twice to one path must leave one run's stream"
        );

        let bytes = std::fs::read(&stream).unwrap();
        let mut body_bits = 0;
        let mut pos = 0;
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            for bit in 8 * (pos + 4)..8 * (pos + 4 + len) {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                std::fs::write(&flipped, &bad).unwrap();
                if let Ok(samples) = decompress(&flipped) {
                    assert_eq!(samples, clean, "bit {bit} flipped into different samples");
                }
                body_bits += 1;
            }
            pos += 4 + len;
        }
        assert!(body_bits > 0, "the stream has frame bodies to flip");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A stream whose signal count changes mid-way (CRC-valid frames from
    /// two encoders) is a typed error, not a ragged table.
    #[test]
    fn decompress_rejects_a_stream_whose_signal_count_changes() {
        let dir = tempdir("ragged");
        let stream = dir.join("ragged.sbr");
        let rows = |n: usize| vec![(0..16).map(|i| i as f64).collect::<Vec<f64>>(); n];
        let mut two = SbrEncoder::new(2, 16, SbrConfig::new(16, 16).with_w(4)).unwrap();
        let mut one = SbrEncoder::new(1, 16, SbrConfig::new(16, 16).with_w(4)).unwrap();
        one.encode(&rows(1)).unwrap();
        let mut w = storage::StreamWriter::create(&stream).unwrap();
        for tx in [two.encode(&rows(2)).unwrap(), one.encode(&rows(1)).unwrap()] {
            w.append(&codec::encode_v2(&Frame::data(0, tx))).unwrap();
        }
        let err = run_argv(&format!(
            "decompress --input {} --output {}",
            stream.display(),
            dir.join("rec.csv").display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err:?}");
        assert!(
            err.message().contains("transmission 1")
                && err.message().contains("differs from the indexed 2×16"),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every `.sbr` reader admits frames through the station's step: a
    /// stream that skips a sequence number, or whose record holds bytes
    /// after its frame, is a runtime error (exit 1) for `decompress`,
    /// `info` and `aggregate` alike.
    #[test]
    fn sbr_readers_reject_a_seq_gap_and_trailing_bytes() {
        let dir = tempdir("admission");
        let mut enc = SbrEncoder::new(2, 16, SbrConfig::new(16, 16).with_w(4)).unwrap();
        let rows = vec![(0..16).map(|i| i as f64).collect::<Vec<f64>>(); 2];
        let fs: Vec<_> = (0..3)
            .map(|_| codec::encode_v2(&Frame::data(0, enc.encode(&rows).unwrap())))
            .collect();
        let mut padded = fs[1].to_vec();
        padded.extend_from_slice(&[1, 2, 3]);
        let cases = [
            ("gap", vec![fs[0].clone(), fs[2].clone()], "sequence gap"),
            (
                "trailing",
                vec![fs[0].clone(), padded.into()],
                "3 trailing bytes",
            ),
        ];
        for (tag, frames, why) in cases {
            let stream = dir.join(format!("{tag}.sbr"));
            let mut w = storage::StreamWriter::create(&stream).unwrap();
            for f in &frames {
                w.append(f).unwrap();
            }
            drop(w);
            let s = stream.display();
            let csv_out = dir.join("rec.csv");
            for cmd in [
                format!("decompress --input {s} --output {}", csv_out.display()),
                format!("info --input {s}"),
                format!("aggregate --input {s} --signal 0 --from 0 --to 8"),
            ] {
                let err = run_argv(&cmd).unwrap_err();
                assert_eq!(err.exit_code(), 1, "{tag}: {cmd}: {err:?}");
                assert!(
                    err.message().contains("transmission 1") && err.message().contains(why),
                    "{tag}: {cmd}: {err:?}"
                );
            }
        }
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

        // A CRC-valid frame declaring a u32::MAX × u32::MAX batch is refused
        // before anything is sized by it.
        let huge = dir.join("huge.sbr");
        let mut w = storage::StreamWriter::create(&huge).unwrap();
        let tx = sbr_core::Transmission {
            seq: 0,
            n_signals: u32::MAX,
            samples_per_signal: u32::MAX,
            w: 1,
            base_updates: vec![],
            intervals: vec![sbr_core::IntervalRecord {
                start: 0,
                shift: -1,
                a: 1.0,
                b: 0.0,
            }],
        };
        w.append(&codec::encode_v2(&Frame::data(0, tx))).unwrap();
        drop(w);
        let err = run_argv(&format!(
            "decompress --input {} --output {}",
            huge.display(),
            dir.join("rec.csv").display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err:?}");
        assert!(err.message().contains("exceeds"), "{err:?}");

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
        // There is one query path: a stray --engine is an unknown flag.
        let e = run_argv(&format!(
            "aggregate --input {s} --signal 0 --from 0 --to 9 --engine decode"
        ))
        .unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aggregate_matches_decode_then_scan() {
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
        let log = recover_stream(&stream).unwrap();
        let txs: Vec<_> = log
            .frames
            .iter()
            .map(|f| codec::decode_exact(f).unwrap().tx)
            .collect();
        let decoded = Decoder::replay(&txs).unwrap();
        let series: Vec<f64> = decoded.iter().flat_map(|c| c[1].clone()).collect();
        let s = stream.display();
        for (from, to) in [(0usize, 256usize), (50, 200), (130, 140)] {
            let out = run_argv(&format!(
                "aggregate --input {s} --signal 1 --from {from} --to {to}"
            ))
            .unwrap();
            assert!(out.contains("(compressed domain)"), "{out}");
            let printed = |name: &str| -> f64 {
                let line = out.lines().find(|l| l.starts_with(name)).unwrap();
                line[name.len()..].trim().parse().unwrap()
            };
            let slice = &series[from..to];
            let sum: f64 = slice.iter().sum();
            let min = slice.iter().copied().fold(f64::INFINITY, f64::min);
            let max = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let avg = sum / slice.len() as f64;
            // Printed to 6 decimals.
            for (name, want) in [("sum", sum), ("avg", avg), ("min", min), ("max", max)] {
                assert!(
                    (printed(name) - want).abs() <= 1e-6 * want.abs().max(1.0),
                    "{name} [{from},{to}): {out}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decompress_and_aggregate_accept_a_rebooted_node_stream() {
        // A node with ARQ reboots after chunk 2: the fourth frame is a
        // resync whose sequence number restarts at 0.
        let dir = tempdir("reboot");
        let stream = dir.join("reboot.sbr");
        let mut node = sensor_net::SensorNode::new(0, 2, 64, SbrConfig::new(64, 64)).unwrap();
        node.enable_arq(16);
        let mut writer = storage::StreamWriter::create(&stream).unwrap();
        let mut frames = Vec::new();
        for c in 0..6 {
            if c == 3 {
                node.reboot().unwrap();
            }
            for i in 0..64 {
                let t = (c * 64 + i) as f64;
                let sample = [(t * 0.21).sin() * 5.0, (t * 0.05).cos() * 3.0 + 1.0];
                if let Some(flush) = node.record(&sample).unwrap() {
                    writer.append(&flush.frame).unwrap();
                    frames.push(codec::decode_exact(&flush.frame).unwrap());
                }
            }
        }
        drop(writer);
        assert_eq!(frames.len(), 6);
        assert_eq!(frames[3].tx.seq, 0, "the reboot restarts the sequence");
        let mut mirror = Decoder::new();
        let decoded: Vec<Vec<Vec<f64>>> = frames
            .iter()
            .map(|f| mirror.decode_frame(f).unwrap())
            .collect();
        let series = |s: usize| -> Vec<f64> { decoded.iter().flat_map(|c| c[s].clone()).collect() };

        let csv_out = dir.join("rec.csv");
        let out = run_argv(&format!(
            "decompress --input {} --output {}",
            stream.display(),
            csv_out.display()
        ))
        .unwrap();
        assert!(out.contains("decompressed 6 transmissions"), "{out}");
        let rec = csv::read(BufReader::new(File::open(&csv_out).unwrap())).unwrap();
        assert_eq!(rec.columns, vec![series(0), series(1)]);

        // [100, 300) spans the reboot at sample 192.
        let out = run_argv(&format!(
            "aggregate --input {} --signal 1 --from 100 --to 300",
            stream.display()
        ))
        .unwrap();
        let slice = &series(1)[100..300];
        let sum: f64 = slice.iter().sum();
        let sum_line = out.lines().find(|l| l.starts_with("sum")).unwrap();
        let got: f64 = sum_line["sum".len()..].trim().parse().unwrap();
        assert!((got - sum).abs() <= 1e-6 * sum.abs().max(1.0), "{out}");
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
        // The ARQ rounds fed the quantile histograms.
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
    fn simulate_store_then_inspect() {
        let dir = tempdir("store-cli");
        let store = dir.join("stores");
        // Tiny segments so the run seals many segments and checkpoints;
        // a crash forces a resync.
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
        // Each store holds exactly one checkpoint, however many seals.
        let checkpoints: Vec<&str> = rep
            .lines()
            .skip(2)
            .take(2)
            .filter_map(|l| l.split_whitespace().nth(2))
            .collect();
        assert_eq!(checkpoints, ["1", "1"], "{rep}");

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
    fn second_simulate_into_a_populated_store_fails_and_leaves_it_clean() {
        let dir = tempdir("store-twice");
        let store = dir.join("s");
        let sim = format!(
            "simulate --nodes 2 --len 512 --batch 64 --store {} --segment-bytes 4096",
            store.display()
        );
        run_argv(&sim).unwrap();
        let before = run_argv(&format!("storage inspect {}", store.display())).unwrap();
        let e = run_argv(&sim).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        assert!(format!("{e:?}").contains("BaseStation::load"), "{e:?}");
        let after = run_argv(&format!("storage inspect {}", store.display())).unwrap();
        assert_eq!(after, before, "the refused run left the store as it was");
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
        assert!(
            ok.lines()
                .any(|l| l.contains("sbr_core.probe_cache.misses") && l.ends_with("exact  ok")),
            "{ok}"
        );
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
        let rec = |wall: f64, hits: f64, misses: f64| {
            bench_record(
                "made_up",
                &[("foo.bar_ns", wall)],
                &[("foo.cache.hits", hits), ("foo.cache.misses", misses)],
            )
        };
        write_bench(&base, &[rec(1e7, 90.0, 10.0)]);
        write_bench(&slow, &[rec(1.3e7, 90.0, 10.0)]);

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

        // Lost reuse (90 → 50 hits, so 10 → 50 misses) gates exactly on
        // the cache's misses.
        write_bench(&slow, &[rec(1e7, 50.0, 50.0)]);
        let e = run_argv(&format!("perf diff {} {}", base.display(), slow.display())).unwrap_err();
        assert!(
            e.message()
                .lines()
                .any(|l| l.contains("foo.cache.misses") && l.ends_with("exact  REGRESSION")),
            "{e:?}"
        );
        assert!(e.message().contains("1 regression(s)"), "{e:?}");

        // Fewer hits with equal misses is wasted lookups gone, not lost
        // reuse: it passes, and the hits only report a change.
        write_bench(&slow, &[rec(1e7, 60.0, 10.0)]);
        let ok = run_argv(&format!("perf diff {} {}", base.display(), slow.display())).unwrap();
        assert!(ok.contains("0 regression(s)"), "{ok}");
        assert!(
            ok.lines()
                .any(|l| l.contains("foo.cache.hits") && l.ends_with("changed")),
            "{ok}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn perf_diff_gates_work_and_quality_counters_exactly() {
        let dir = tempdir("perfexact");
        let base = dir.join("base.json");
        let cand = dir.join("cand.json");
        let rec = |probes: f64, sse: f64| {
            bench_record(
                "fig5",
                &[("sbr_core.search.run_ns", 8e7)],
                &[
                    ("sbr_core.search.probes", probes),
                    ("bench.quality.avg_sse", sse),
                    ("sbr_core.best_map.direct_sweeps", probes),
                ],
            )
        };
        write_bench(&base, &[rec(100.0, 2.5)]);

        // One more probe, every wall unchanged: exactly one regression.
        write_bench(&cand, &[rec(101.0, 2.5)]);
        let e = run_argv(&format!("perf diff {} {}", base.display(), cand.display())).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        assert!(
            e.message()
                .lines()
                .any(|l| l.contains("sbr_core.search.probes") && l.ends_with("REGRESSION")),
            "{e:?}"
        );
        assert!(e.message().contains("1 regression(s)"), "{e:?}");

        // Any quality loss fails too, however small.
        write_bench(&cand, &[rec(100.0, 2.5 + 1e-12)]);
        let e = run_argv(&format!("perf diff {} {}", base.display(), cand.display())).unwrap_err();
        assert!(
            e.message()
                .lines()
                .any(|l| l.contains("bench.quality.avg_sse") && l.ends_with("REGRESSION")),
            "{e:?}"
        );

        // Less work is an improvement; kernel-choice counters stay informational.
        write_bench(&cand, &[rec(90.0, 2.5)]);
        let ok = run_argv(&format!("perf diff {} {}", base.display(), cand.display())).unwrap();
        assert!(
            ok.lines()
                .any(|l| l.contains("sbr_core.search.probes") && l.ends_with("improved")),
            "{ok}"
        );
        assert!(
            ok.lines()
                .any(|l| l.contains("sbr_core.best_map.direct_sweeps") && l.ends_with("changed")),
            "{ok}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn perf_diff_gates_the_summed_encode_row() {
        let dir = tempdir("perftotal");
        // One file: three records' encode walls (ms); the same record keys in every file.
        let file = |walls: [f64; 3]| -> Vec<BenchRecord> {
            ["a", "b", "c"]
                .iter()
                .zip(walls)
                .map(|(e, ms)| bench_record(e, &[("sbr_core.sbr.encode_ns", ms * 1e6)], &[]))
                .collect()
        };
        let diff = |cands: &[[f64; 3]]| {
            let mut argv = String::from("perf diff");
            for (i, walls) in cands.iter().enumerate() {
                let (b, c) = (
                    dir.join(format!("b{i}.json")),
                    dir.join(format!("c{i}.json")),
                );
                write_bench(&b, &file([100.0; 3]));
                write_bench(&c, &file(*walls));
                argv += &format!(" {} {}", b.display(), c.display());
            }
            run_argv(&format!("{argv} --tolerance 0.10"))
        };
        let total_line = |out: &str| {
            out.lines()
                .find(|l| l.contains("total.sbr.encode_ns"))
                .map(str::to_owned)
                .unwrap_or_default()
        };

        // Each record swings ±30% between pairs while the file's sum holds:
        // the record rows are unresolved, the summed row resolves to ok.
        let swings = [
            [130.0, 85.0, 85.0],
            [85.0, 130.0, 85.0],
            [85.0, 85.0, 130.0],
            [130.0, 85.0, 85.0],
            [85.0, 130.0, 85.0],
        ];
        let ok = diff(&swings).unwrap();
        assert!(total_line(&ok).ends_with("  ok"), "{ok}");
        assert!(ok.contains("unresolved"), "{ok}");

        // +15% on the sum, in every pair: the summed row fails.
        let e = diff(&[[115.0; 3]; 5]).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        assert!(total_line(e.message()).ends_with("REGRESSION"), "{e:?}");

        // Files without the encode row get no summed row.
        write_bench(
            &dir.join("x.json"),
            &[bench_record("x", &[("foo_ns", 1e7)], &[])],
        );
        let x = dir.join("x.json").display().to_string();
        let ok = run_argv(&format!("perf diff {x} {x}")).unwrap();
        assert!(total_line(&ok).is_empty(), "{ok}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn perf_diff_fails_a_slow_candidate_over_a_zero_baseline() {
        let dir = tempdir("perfzero");
        let base = dir.join("base.json");
        let cand = dir.join("cand.json");
        let rec = |wall: f64| bench_record("fig5", &[("sbr_core.sbr.encode_ns", wall)], &[]);
        write_bench(&base, &[rec(0.0)]);
        write_bench(&cand, &[rec(5.161e6)]);
        let e = run_argv(&format!("perf diff {} {}", base.display(), cand.display())).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        assert!(
            e.message()
                .lines()
                .any(|l| l.contains("sbr_core.sbr.encode_ns") && l.contains("REGRESSION")),
            "{e:?}"
        );
        // Two sub-floor sums are timer noise, whichever side is zero.
        write_bench(&cand, &[rec(0.9e6)]);
        let ok = run_argv(&format!("perf diff {} {}", base.display(), cand.display())).unwrap();
        assert!(ok.contains("ok (below noise floor)"), "{ok}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `perf diff` over one pair per scale in `scales`: each baseline is
    /// `fig5_record(1.0)`, its candidate `fig5_record(scale)`.
    fn paired_diff(tag: &str, scales: &[f64], tolerance: f64) -> Result<String, CliError> {
        let dir = tempdir(tag);
        let mut argv = String::from("perf diff");
        for (i, &scale) in scales.iter().enumerate() {
            let (base, cand) = (
                dir.join(format!("b{i}.json")),
                dir.join(format!("c{i}.json")),
            );
            write_bench(&base, &[fig5_record(1.0)]);
            write_bench(&cand, &[fig5_record(scale)]);
            argv += &format!(" {} {}", base.display(), cand.display());
        }
        let result = run_argv(&format!("{argv} --tolerance {tolerance}"));
        std::fs::remove_dir_all(&dir).unwrap();
        result
    }

    #[test]
    fn paired_perf_diff_rejects_an_odd_file_count() {
        let e = run_argv("perf diff b1.json c1.json b2.json").unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e:?}");
        assert!(e.message().contains("got 3 file(s)"), "{e:?}");
    }

    #[test]
    fn paired_perf_diff_passes_one_outlier_pair() {
        let ok = paired_diff("pairoutlier", &[1.0, 1.0, 1.6, 1.0, 1.0], 0.10).unwrap();
        assert!(ok.contains("0 regression(s)"), "{ok}");
        assert!(!ok.contains("unresolved"), "{ok}");
    }

    #[test]
    fn paired_perf_diff_fails_a_consistent_slowdown() {
        let e = paired_diff("pairslow", &[1.15; 5], 0.10).unwrap_err();
        assert_eq!(e.exit_code(), 1, "{e:?}");
        // The record's three walls and the file's summed encode row.
        assert!(e.message().contains("4 regression(s)"), "{e:?}");
    }

    #[test]
    fn paired_perf_diff_calls_a_noisy_row_unresolved() {
        // Median +20% is past the tolerance but inside 2·IQR = 80%.
        let ok = paired_diff("pairnoisy", &[0.9, 1.0, 1.2, 1.4, 1.5], 0.10).unwrap();
        assert!(
            ok.lines()
                .any(|l| l.contains("sbr_core.search.run_ns") && l.ends_with("unresolved")),
            "{ok}"
        );
        assert!(ok.contains("0 regression(s)"), "{ok}");
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
        // The shape `sbr_obs::frame_event` writes into the trace sink.
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
