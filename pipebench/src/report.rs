//! What one run reports: the end-to-end metrics, the per-layer table of a
//! traced run, the deterministic counts, and the result line.

use std::fmt::Write as _;

use sbr_obs::{MetricValue, Snapshot};

use crate::readback::QueryStats;
use crate::sim::{self, ArqStats, Receipts};
use crate::trace::{Layer, Tracer};
use crate::{Workload, ENCODER_THREADS};

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them; `BENCHMARK.md` says where each comes from. The
/// result line carries the [`GATED`] ones; peak resident set, the last
/// gated metric, is measured by the launcher from outside the process.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Median set-up wall, seconds.
    pub setup_s: f64,
    /// Raw values (one signal, one instant) in frames the station
    /// applied, per second of ingest wall.
    pub ingest_samples_per_s: f64,
    /// Frame latency p50, milliseconds.
    pub frame_latency_p50_ms: f64,
    /// Frame latency p99, milliseconds.
    pub frame_latency_p99_ms: f64,
    /// Median `BaseStation::load` wall, seconds.
    pub recovery_s: f64,
    /// The workload's unit operations per second of timed wall: rounds
    /// (`fleet_ingest`), replay iterations (`station_replay`), range
    /// queries (`history_query`).
    pub op_per_s: f64,
    /// Unit-operation latency p50, microseconds.
    pub op_p50_us: f64,
    /// Unit-operation tail latency, microseconds: the highest percentile
    /// with at least ten operations beyond it (p85 of rounds on
    /// `fleet_ingest`, p99 elsewhere).
    pub op_tail_us: f64,
    /// Σ(x − x̂)² / Σx² over every delivered chunk scored.
    pub recon_rel_sse: f64,
    /// Bytes of every hop attempt of every frame and ACK, per raw value.
    pub wire_bytes_per_sample: f64,
    /// Segment and checkpoint bytes on disk, per raw value stored.
    pub store_bytes_per_sample: f64,
}

/// The end-to-end metrics `BENCHMARK.json` gates on, in its order. The
/// p99 frame latency and the recovery wall are printed but not gated:
/// both hang on the host's file-system latency (seal fsyncs, store
/// directory scans), which swings several-fold between runs.
pub const GATED: [&str; 9] = [
    "setup_s",
    "ingest_samples_per_s",
    "frame_latency_p50_ms",
    "op_per_s",
    "op_p50_us",
    "op_tail_us",
    "recon_rel_sse",
    "wire_bytes_per_sample",
    "store_bytes_per_sample",
];

impl EndToEnd {
    /// `(name, value, unit)` for every metric.
    pub fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("ingest_samples_per_s", self.ingest_samples_per_s, "1/s"),
            ("frame_latency_p50_ms", self.frame_latency_p50_ms, "ms"),
            ("frame_latency_p99_ms", self.frame_latency_p99_ms, "ms"),
            ("recovery_s", self.recovery_s, "s"),
            ("op_per_s", self.op_per_s, "1/s"),
            ("op_p50_us", self.op_p50_us, "us"),
            ("op_tail_us", self.op_tail_us, "us"),
            ("recon_rel_sse", self.recon_rel_sse, "ratio"),
            (
                "wire_bytes_per_sample",
                self.wire_bytes_per_sample,
                "B/sample",
            ),
            (
                "store_bytes_per_sample",
                self.store_bytes_per_sample,
                "B/sample",
            ),
        ]
    }
}

/// Counts that repeat exactly for one seed (the determinism test
/// compares them; wall times never enter).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// A digest of the generated inputs.
    pub input_digest: u64,
    /// Frame transmissions attempted end to end.
    pub frames_sent: u64,
    /// Station verdicts in the timed region.
    pub receipts: Receipts,
    /// Chunks in the station's logs at the end.
    pub chunks_logged: u64,
    /// Segments sealed (recorder count; 0 untraced).
    pub sealed: u64,
    /// Segment and checkpoint bytes on disk.
    pub store_bytes: u64,
    /// Plan-cache hits (recorder count; 0 untraced).
    pub plan_hits: u64,
    /// Plan-cache misses (recorder count; 0 untraced).
    pub plan_misses: u64,
    /// `recon_rel_sse`, as bits.
    pub sse_bits: u64,
}

/// Add every counter's growth from `before` to `after` into `acc`: the
/// timed region's share of a recorder that also sees untimed work.
pub fn add_counter_growth(acc: &mut Snapshot, before: &Snapshot, after: &Snapshot) {
    for (name, value) in &after.metrics {
        if let MetricValue::Counter(n) = value {
            let grown = n.saturating_sub(before.counter(name).unwrap_or(0));
            let slot = acc
                .metrics
                .entry(name.clone())
                .or_insert(MetricValue::Counter(0));
            if let MetricValue::Counter(total) = slot {
                *total += grown;
            }
        }
    }
}

/// FNV-1a over `bytes`, folded into `h` (for input digests).
pub fn digest(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h ^ 0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The workload-side figures the per-layer metrics need besides spans
/// and recorder counters.
#[derive(Clone, Debug, Default)]
pub struct LayerInputs {
    /// Traced timed wall, seconds.
    pub traced_wall_s: f64,
    /// The same work untraced, seconds.
    pub untraced_wall_s: f64,
    /// Live-run ARQ and wire accounting.
    pub arq: ArqStats,
    /// Frames applied in the live run.
    pub delivered: u64,
    /// Fault counts `[drops, dups, reorders, corrupts]`.
    pub faults: [u64; 4],
    /// Retransmission-buffer overflows.
    pub retx_overflows: u64,
    /// Verdicts in the timed region.
    pub receipts: Receipts,
    /// Records replayed by the timed loads.
    pub replayed_records: u64,
    /// Checkpoint files on disk.
    pub checkpoints: u64,
    /// Store bytes on disk over frame bytes logged.
    pub write_amp: f64,
    /// Median `load` wall, milliseconds.
    pub load_ms: f64,
    /// First cold read, milliseconds.
    pub hydrate_ms: f64,
    /// Per-pass medians of the query client's figures.
    pub queries: QueryStats,
    /// Sizes of the frames handed to `receive_frame`.
    pub frame_bytes: Vec<u64>,
}

/// One row of the per-layer table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Layer name.
    pub name: &'static str,
    /// Calls.
    pub calls: u64,
    /// Call wall p50, microseconds.
    pub p50_us: f64,
    /// Call wall p99, microseconds.
    pub p99_us: f64,
    /// Self time, seconds.
    pub self_s: f64,
    /// Self time over the traced wall.
    pub self_share: f64,
    /// Bytes in.
    pub bytes_in: u64,
    /// Bytes out.
    pub bytes_out: u64,
}

/// The traced run's per-layer view.
#[derive(Clone, Debug)]
pub struct LayerReport {
    /// Table rows, one per layer plus the generator and the residual.
    pub rows: Vec<Row>,
    /// `(name, value, unit)` per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Root self time over the root spans' wall: what no layer and no
    /// generator span accounts for.
    pub unattributed_share: f64,
    /// |traced wall − root spans' wall| over the traced wall: how far the
    /// spans' own clock drifts from the workload's.
    pub wall_gap: f64,
    /// Traced wall minus untraced wall, seconds.
    pub overhead_s: f64,
    /// Spans closed.
    pub spans: u64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl LayerReport {
    /// Fold the tracer, the recorder snapshot and the workload's inputs.
    pub fn build(t: &Tracer, snap: &Snapshot, inp: &LayerInputs) -> Self {
        let run = t.stats(Layer::Run);
        let wall_ns = run.wall_ns as f64;
        let rows: Vec<Row> = Layer::ALL
            .into_iter()
            .map(|l| {
                let s = t.stats(l);
                let mut walls = s.walls.clone();
                let p50 = sim::quantile(&mut walls, 0.5) / 1e3;
                let p99 = sim::quantile(&mut walls, 0.99) / 1e3;
                Row {
                    name: if l == Layer::Run {
                        "(unattributed)"
                    } else {
                        l.name()
                    },
                    calls: s.calls,
                    p50_us: p50,
                    p99_us: p99,
                    self_s: s.self_ns as f64 / 1e9,
                    self_share: ratio(s.self_ns as f64, wall_ns),
                    bytes_in: s.bytes_in,
                    bytes_out: s.bytes_out,
                }
            })
            .collect();
        let row = |l: Layer| {
            rows.iter()
                .find(|r| r.name == l.name())
                .cloned()
                .expect("every layer has a row")
        };
        let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let hsum = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum as f64);
        let flush = t.stats(Layer::NodeFlush);
        let flush_ns = flush.wall_ns as f64;
        let flushes = flush.calls as f64;
        let sweeps_fft = c("sbr_core.best_map.fft_sweeps")
            + c("sbr_core.best_map.base_fft_sweeps")
            + c("sbr_core.best_map.cand_fft_sweeps");
        let sweeps_all = sweeps_fft
            + c("sbr_core.best_map.direct_sweeps")
            + c("sbr_core.best_map.base_direct_sweeps")
            + c("sbr_core.best_map.cand_direct_sweeps");
        let link_self = [Layer::LinkHop, Layer::LinkChannel, Layer::LinkAck]
            .iter()
            .map(|&l| t.stats(l).self_ns as f64)
            .sum::<f64>();
        let receive = row(Layer::StationReceive);
        let query = row(Layer::Query);
        let queries = query.calls as f64;
        let mut frame_bytes = inp.frame_bytes.clone();
        let unattributed_share = ratio(run.self_ns as f64, wall_ns);
        let wall_gap = ratio((inp.traced_wall_s - wall_ns / 1e9).abs(), inp.traced_wall_s);
        let overhead_s = inp.traced_wall_s - inp.untraced_wall_s;
        let metrics = vec![
            ("node.flush.calls", flushes, "count"),
            (
                "node.flush.wall_p50_ms",
                row(Layer::NodeFlush).p50_us / 1e3,
                "ms",
            ),
            (
                "node.flush.wall_p99_ms",
                row(Layer::NodeFlush).p99_us / 1e3,
                "ms",
            ),
            (
                "node.flush.self_share",
                row(Layer::NodeFlush).self_share,
                "frac",
            ),
            (
                "sbr.search.share",
                ratio(hsum("sbr_core.search.run_ns"), flush_ns),
                "frac",
            ),
            (
                "sbr.get_base.share",
                ratio(hsum("sbr_core.get_base.build_ns"), flush_ns),
                "frac",
            ),
            (
                "sbr.search.probes_per_flush",
                ratio(c("sbr_core.search.probes"), flushes),
                "count",
            ),
            (
                "sbr.probe_cache.hit_rate",
                ratio(
                    c("sbr_core.probe_cache.hits"),
                    c("sbr_core.probe_cache.hits") + c("sbr_core.probe_cache.misses"),
                ),
                "frac",
            ),
            (
                "sbr.fit_cache.hit_rate",
                ratio(
                    c("sbr_core.get_base.fit_cache.hits"),
                    c("sbr_core.get_base.fit_cache.hits") + c("sbr_core.get_base.fit_cache.misses"),
                ),
                "frac",
            ),
            (
                "sbr.best_map.fft_sweep_frac",
                ratio(sweeps_fft, sweeps_all),
                "frac",
            ),
            ("sbr.par.fanouts", c("sbr_core.par.fanouts"), "count"),
            (
                "sbr.par.busy_frac",
                ratio(
                    hsum("sbr_core.par.worker_busy_ns"),
                    ENCODER_THREADS as f64 * flush_ns,
                ),
                "frac",
            ),
            (
                "codec.encode.share",
                ratio(hsum("sbr_core.codec.encode_ns"), flush_ns),
                "frac",
            ),
            (
                "codec.frame_bytes_p50",
                sim::quantile(&mut frame_bytes, 0.5),
                "B",
            ),
            ("link.hop_attempts", inp.arq.hop_attempts as f64, "count"),
            (
                "link.attempts_per_frame",
                ratio(inp.arq.hop_attempts as f64, inp.arq.frames_sent as f64),
                "count",
            ),
            ("link.self_share", ratio(link_self, wall_ns), "frac"),
            ("fault.drops", inp.faults[0] as f64, "count"),
            ("fault.dups", inp.faults[1] as f64, "count"),
            ("fault.reorders", inp.faults[2] as f64, "count"),
            ("fault.corrupts", inp.faults[3] as f64, "count"),
            (
                "arq.sent_per_delivered",
                ratio(inp.arq.frames_sent as f64, inp.delivered as f64),
                "ratio",
            ),
            ("arq.max_retx_depth", inp.arq.max_retx_depth as f64, "count"),
            ("arq.resyncs", inp.arq.receipts.resynced as f64, "count"),
            ("arq.retx_overflows", inp.retx_overflows as f64, "count"),
            ("station.receive.calls", receive.calls as f64, "count"),
            ("station.receive.wall_p50_us", receive.p50_us, "us"),
            ("station.receive.wall_p99_us", receive.p99_us, "us"),
            ("station.receive.self_share", receive.self_share, "frac"),
            ("station.receive.bytes_in", receive.bytes_in as f64, "B"),
            (
                "station.receipt.accepted",
                inp.receipts.accepted as f64,
                "count",
            ),
            (
                "station.receipt.duplicate",
                inp.receipts.duplicate as f64,
                "count",
            ),
            (
                "station.receipt.resynced",
                inp.receipts.resynced as f64,
                "count",
            ),
            ("station.receipt.gap", inp.receipts.gap as f64, "count"),
            (
                "station.receipt.corrupt",
                inp.receipts.corrupt as f64,
                "count",
            ),
            (
                "storage.sealed",
                c("sensor_net.storage.segments.sealed"),
                "count",
            ),
            ("storage.checkpoints", inp.checkpoints as f64, "count"),
            (
                "storage.compacted",
                c("sensor_net.storage.segments.compacted"),
                "count",
            ),
            ("storage.write_amp", inp.write_amp, "ratio"),
            (
                "storage.replayed_records",
                inp.replayed_records as f64,
                "count",
            ),
            ("storage.load.wall_ms", inp.load_ms, "ms"),
            ("storage.hydrate.wall_ms", inp.hydrate_ms, "ms"),
            ("query.calls", queries, "count"),
            ("query.self_share", query.self_share, "frac"),
            (
                "query.plan_cache.hit_rate",
                ratio(
                    c("sbr_core.query.plan_cache.hits"),
                    c("sbr_core.query.plan_cache.hits") + c("sbr_core.query.plan_cache.misses"),
                ),
                "frac",
            ),
            (
                "query.intervals_folded_per_query",
                ratio(c("sbr_core.query.intervals_folded"), queries),
                "count",
            ),
            (
                "query.boundary_decodes_per_query",
                ratio(c("sbr_core.query.boundary_decodes"), queries),
                "count",
            ),
            ("query.hot.wall_p50_us", inp.queries.hot_p50_us, "us"),
            ("query.hot.wall_p99_us", inp.queries.hot_p99_us, "us"),
            ("query.cold.wall_p50_us", inp.queries.cold_p50_us, "us"),
            ("query.cold.wall_p99_us", inp.queries.cold_p99_us, "us"),
            ("gen.self_share", row(Layer::Gen).self_share, "frac"),
            ("trace.unattributed_share", unattributed_share, "frac"),
            ("trace.wall_gap", wall_gap, "frac"),
            ("trace.traced_wall_s", inp.traced_wall_s, "s"),
            ("trace.untraced_wall_s", inp.untraced_wall_s, "s"),
            ("trace.overhead_s", overhead_s, "s"),
        ];
        LayerReport {
            rows,
            metrics,
            unattributed_share,
            wall_gap,
            overhead_s,
            spans: t.span_count(),
        }
    }

    /// The per-layer table as text.
    pub fn table(&self, wall_s: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>12} {:>12} {:>10} {:>7} {:>13} {:>13}",
            "layer", "calls", "p50_us", "p99_us", "self_s", "share", "bytes_in", "bytes_out"
        );
        let mut total = 0.0;
        for r in &self.rows {
            total += r.self_s;
            let _ = writeln!(
                out,
                "{:<16} {:>10} {:>12.2} {:>12.2} {:>10.4} {:>6.1}% {:>13} {:>13}",
                r.name,
                r.calls,
                r.p50_us,
                r.p99_us,
                r.self_s,
                100.0 * r.self_share,
                r.bytes_in,
                r.bytes_out
            );
        }
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>12} {:>12} {:>10.4} {:>6.1}%   (traced wall {:.4} s, {} spans, unattributed {:.2}%, tracing overhead {:+.4} s)",
            "sum",
            "",
            "",
            "",
            total,
            100.0 * ratio(total, wall_s),
            wall_s,
            self.spans,
            100.0 * self.unattributed_share,
            self.overhead_s
        );
        out
    }
}

/// Largest share of the traced wall the per-layer table may leave
/// unaccounted for.
pub const RECONCILE_LIMIT: f64 = 0.05;

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Which workload ran.
    pub workload: Workload,
    /// Operations attempted (chunks flushed, arrivals replayed, or
    /// queries and ingests issued) plus verification checks.
    pub attempted: u64,
    /// Operations that failed plus verification checks that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics.
    pub e2e: EndToEnd,
    /// Per-layer view (traced runs only).
    pub layers: Option<LayerReport>,
    /// Deterministic counts.
    pub counts: Counts,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: Workload) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            e2e: EndToEnd::default(),
            layers: None,
            counts: Counts::default(),
        }
    }

    /// Record one failed check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(msg);
        }
    }

    /// Attach a traced run's layer report and check that it reconciles:
    /// the layers' and the generator's self times must cover the root
    /// spans' wall, and the root spans the workload's traced wall, each to
    /// within [`RECONCILE_LIMIT`]. A miss is a failed check.
    pub fn attach_layers(&mut self, layers: LayerReport) {
        self.attempted += 1;
        if layers.unattributed_share > RECONCILE_LIMIT || layers.wall_gap > RECONCILE_LIMIT {
            self.fail(format!(
                "reconciliation: {:.2}% of the traced wall unattributed, span wall off by {:.2}% \
                 (limit {:.0}%)",
                100.0 * layers.unattributed_share,
                100.0 * layers.wall_gap,
                100.0 * RECONCILE_LIMIT
            ));
        }
        self.layers = Some(layers);
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed over attempted operations and checks.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The result line: the gated end-to-end metrics untraced, the
    /// per-layer metrics (plus the ungated p99 frame latency) traced.
    pub fn result_line(&self) -> String {
        let entries = match &self.layers {
            Some(l) => {
                let mut m = l.metrics.clone();
                m.push(("frame.latency_p99_ms", self.e2e.frame_latency_p99_ms, "ms"));
                m
            }
            None => {
                let mut m = self.e2e.entries();
                m.retain(|e| GATED.contains(&e.0));
                m
            }
        };
        let metrics: Vec<String> = entries
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
