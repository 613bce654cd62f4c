//! `history_query`: reads beside writes over a long persisted history.
//!
//! Set-up encodes a long history (8 sensors × 4 stock signals × M = 256 ×
//! 256 chunks, each sensor playing a fixed recording from a chunk the seed
//! picks) plus `live_rounds` later frames per sensor, and ingests the
//! history into a persistent station with default segments. The timed
//! region runs passes. A pass is `live_rounds` blocks; each block ingests
//! one pre-encoded frame per sensor and then issues `ingest_every` range
//! queries from one closed-loop client: 90% from a hot pool smaller than
//! the per-sensor plan cache, 10% fresh random ranges that miss it, range
//! lengths from one chunk to the full history. Between passes, outside the
//! timed region, the station is rebuilt at its post-history state (the
//! history frames re-ingested, nothing re-encoded) and its plan cache is
//! warmed with the hot pool, so every pass mixes writes and reads in the
//! same proportion whatever the speed. The encoder is idle throughout.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use sbr_core::{SbrConfig, SbrError};
use sbr_obs::{FrameId, MetricsRecorder, Recorder as _, Snapshot};
use sensor_net::{BaseStation, NodeId, SensorNode};

use crate::fleet::checkpoints_on_disk;
use crate::readback::{self, Extent, Fidelity, QueryLog, QueryMix};
use crate::report::{self, Counts, EndToEnd, LayerInputs, LayerReport, Outcome};
use crate::sim::{self, derive, Corpus, Receipts, Source, Verdict};
use crate::trace::{Layer, Tracer};
use crate::{timed_setups, Budget, Params, Size, Workload, ENCODER_THREADS};

/// Set-ups per run (`setup_s` is their median): each takes about 2 s.
const SETUP_REPS: usize = 3;

/// Station loads timed after the run; `recovery_s` is their median.
const LOADS: usize = 5;

struct Shape {
    sensors: usize,
    signals: usize,
    m: usize,
    history: usize,
    /// Ingest blocks per pass (and pre-encoded live frames per sensor).
    live_rounds: usize,
    /// Queries per block.
    ingest_every: u64,
    hot_per_sensor: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            sensors: 8,
            signals: 4,
            m: 256,
            history: 256,
            live_rounds: 128,
            ingest_every: 1000,
            hot_per_sensor: 1024,
        },
        Size::Short => Shape {
            sensors: 3,
            signals: 2,
            m: 64,
            history: 24,
            live_rounds: 4,
            ingest_every: 100,
            hot_per_sensor: 32,
        },
    }
}

struct History {
    station: BaseStation,
    /// Whether `station` is at its post-history state.
    pristine: bool,
    dir: PathBuf,
    recorder: Option<Arc<MetricsRecorder>>,
    shape: Shape,
    /// Encoded history frames, per sensor, in stream order.
    past: Vec<Vec<Bytes>>,
    /// Pre-encoded later frames, per sensor, in stream order.
    live: Vec<Vec<Bytes>>,
    truth: HashMap<FrameId, Vec<f64>>,
    frame_bytes: u64,
    digest: u64,
}

/// A fresh persistent station under `dir` holding `past`.
fn build_station(
    dir: &Path,
    recorder: Option<&Arc<MetricsRecorder>>,
    past: &[Vec<Bytes>],
) -> Result<BaseStation, SbrError> {
    let _ = std::fs::remove_dir_all(dir);
    let mut station = BaseStation::with_persistence(dir);
    if let Some(r) = recorder {
        station = station.with_recorder(r.as_ref());
    }
    for (i, frames) in past.iter().enumerate() {
        for (c, frame) in frames.iter().enumerate() {
            let verdict = Verdict::of(station.receive_frame(i + 1, frame.clone()))?;
            if verdict != Verdict::Accepted {
                return Err(SbrError::InconsistentState(format!(
                    "history frame {c} of sensor {}: {verdict:?}",
                    i + 1
                )));
            }
        }
    }
    Ok(station)
}

fn setup(
    params: &Params,
    dir: &Path,
    recorder: Option<&Arc<MetricsRecorder>>,
) -> Result<History, SbrError> {
    let shape = shape(params.size);
    let n = shape.signals;
    let band = n * shape.m / 10;
    let mut truth = HashMap::new();
    let mut past = Vec::new();
    let mut live = Vec::new();
    let mut frame_bytes = 0u64;
    let mut digest = 0;
    for id in 1..=shape.sensors {
        let config = SbrConfig::new(band, shape.m).with_threads(ENCODER_THREADS);
        let mut node = SensorNode::new(id, n, shape.m, config)?;
        let chunks = shape.history + shape.live_rounds;
        let corpus = Corpus::new(Source::Stock(n), id as u64, chunks * shape.m);
        let start = corpus.start(params.seed, id as u64, shape.m);
        digest = report::digest(digest, &start.to_le_bytes());
        let data: Vec<f64> = (0..(chunks * shape.m) as u64)
            .flat_map(|t| corpus.sample(start + t).iter().copied())
            .collect();
        let (mut old, mut new) = (Vec::new(), Vec::new());
        for c in 0..chunks {
            let mut flush = None;
            for k in c * shape.m..(c + 1) * shape.m {
                flush = node.record(&data[k * n..(k + 1) * n])?;
            }
            let flush = flush
                .ok_or_else(|| SbrError::InconsistentState("full buffer did not flush".into()))?;
            truth.insert(
                FrameId::new(id as u32, flush.epoch, flush.transmission.seq),
                data[c * shape.m * n..(c + 1) * shape.m * n].to_vec(),
            );
            frame_bytes += flush.frame.len() as u64;
            if c < shape.history {
                old.push(flush.frame);
            } else {
                new.push(flush.frame);
            }
        }
        past.push(old);
        live.push(new);
    }
    let station = build_station(dir, recorder, &past)?;
    Ok(History {
        station,
        pristine: true,
        dir: dir.to_path_buf(),
        recorder: recorder.cloned(),
        shape,
        past,
        live,
        truth,
        frame_bytes,
        digest,
    })
}

#[derive(Default)]
struct Measured {
    queries: QueryLog,
    passes: u64,
    /// Timed wall of every pass.
    wall_s: f64,
    /// `receive_frame` wall of every live frame.
    ingest_ns: Vec<u64>,
    receipts: Receipts,
    frame_bytes: Vec<u64>,
    /// Recorder counters grown inside the timed passes (rebuilds and
    /// warm-ups excluded).
    counters: Snapshot,
}

impl History {
    /// Put the station back at its post-history state and warm its plan
    /// cache with the hot pool (outside the timed region).
    fn reset(&mut self, mix: &QueryMix, out: &mut Outcome) -> Result<(), SbrError> {
        if !self.pristine {
            drop(std::mem::take(&mut self.station));
            self.station = build_station(&self.dir, self.recorder.as_ref(), &self.past)?;
        }
        self.pristine = false;
        for k in mix.hot() {
            if let Err(e) = self.station.aggregate_range(k.node, k.signal, k.t0, k.t1) {
                out.attempted += 1;
                out.fail(format!("warm-up query {k:?} failed: {e}"));
            }
        }
        Ok(())
    }

    fn ingest_round(
        &self,
        t: &mut Tracer,
        round: usize,
        m: &mut Measured,
        out: &mut Outcome,
    ) -> Result<(), SbrError> {
        for (i, pool) in self.live.iter().enumerate() {
            let node: NodeId = i + 1;
            let frame = &pool[round];
            let copy = frame.clone();
            let station = &self.station;
            let start = Instant::now();
            let got = t.span(Layer::StationReceive, None, |_| {
                station.receive_frame(node, copy)
            });
            m.ingest_ns.push(start.elapsed().as_nanos() as u64);
            let got = Verdict::of(got)?;
            t.bytes(
                Layer::StationReceive,
                frame.len() as u64,
                frame.len() as u64,
            );
            m.receipts.add(got);
            m.frame_bytes.push(frame.len() as u64);
            out.attempted += 1;
            if got != Verdict::Accepted {
                out.fail(format!("live frame {round} of sensor {node}: {got:?}"));
            }
        }
        Ok(())
    }

    /// One timed pass: `live_rounds` blocks of one ingest round followed
    /// by `ingest_every` queries.
    fn pass(
        &self,
        t: &mut Tracer,
        mix: &mut QueryMix,
        m: &mut Measured,
        out: &mut Outcome,
    ) -> Result<(), SbrError> {
        let before = self.recorder.as_ref().map(|r| r.snapshot());
        let start = Instant::now();
        t.span(Layer::Run, None, |t| {
            for round in 0..self.shape.live_rounds {
                t.span(Layer::Gen, None, |t| {
                    self.ingest_round(t, round, m, out)?;
                    let station = &self.station;
                    for _ in 0..self.shape.ingest_every {
                        let (key, hot) = mix.draw();
                        let q = Instant::now();
                        let answer = t.span(Layer::Query, None, |_| {
                            station.aggregate_range(key.node, key.signal, key.t0, key.t1)
                        });
                        let ns = q.elapsed().as_nanos() as u64;
                        m.queries.record(key, hot, ns, answer, out);
                    }
                    Ok::<_, SbrError>(())
                })?;
            }
            Ok::<_, SbrError>(())
        })?;
        let wall_s = start.elapsed().as_secs_f64();
        if let (Some(r), Some(before)) = (&self.recorder, before) {
            report::add_counter_growth(&mut m.counters, &before, &r.snapshot());
        }
        m.wall_s += wall_s;
        m.queries.end_pass(wall_s);
        m.passes += 1;
        Ok(())
    }

    /// Passes until `budget` is spent (counted in passes or in timed
    /// wall).
    fn run_passes(
        &mut self,
        t: &mut Tracer,
        budget: Budget,
        mix: &mut QueryMix,
        out: &mut Outcome,
    ) -> Result<Measured, SbrError> {
        let mut m = Measured::default();
        while !budget.done(m.wall_s, m.passes) {
            self.reset(mix, out)?;
            self.pass(t, mix, &mut m, out)?;
        }
        out.attempted += m.queries.calls;
        Ok(m)
    }
}

fn query_mix(params: &Params, h: &History) -> QueryMix {
    let extents = (1..=h.shape.sensors)
        .map(|node| Extent {
            node,
            signals: h.shape.signals,
            samples: h.shape.history * h.shape.m,
        })
        .collect();
    QueryMix::new(
        derive(params.seed, 0x9ea),
        extents,
        h.shape.m,
        h.shape.hot_per_sensor,
    )
}

/// Run `history_query`.
pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::new(Workload::HistoryQuery);
    if let Err(e) = run_inner(params, &mut out) {
        out.attempted += 1;
        out.fail(format!("history_query aborted: {e}"));
    }
    out
}

fn run_inner(params: &Params, out: &mut Outcome) -> Result<(), SbrError> {
    let dir = params.work_dir.join("history");
    let recorder = params.trace.then(|| Arc::new(MetricsRecorder::new()));
    let (mut h, setup_s) = timed_setups(SETUP_REPS, || setup(params, &dir, recorder.as_ref()))?;
    let mut mix = query_mix(params, &h);
    let mut t = Tracer::new(params.trace, params.inject);
    let mut m = h.run_passes(&mut t, params.budget, &mut mix, out)?;
    m.queries.verify(&h.station, out);
    let snapshot = std::mem::take(&mut m.counters);
    let nodes: Vec<NodeId> = (1..=h.shape.sensors).collect();
    let logged: Vec<usize> = nodes.iter().map(|&n| h.station.chunk_count(n)).collect();
    let payload: u64 = nodes.iter().map(|&n| h.station.log_bytes(n) as u64).sum();
    let store_bytes = sim::dir_bytes(&h.dir);
    let checkpoints = checkpoints_on_disk(&dir);

    // Restart, cold read, and score every stored chunk.
    drop(std::mem::take(&mut h.station));
    let restart_rec = MetricsRecorder::new();
    let (loaded, load_walls) = readback::restart(&dir, LOADS, Some(&restart_rec))?;
    let hydrate_start = Instant::now();
    loaded.frames(nodes[0])?;
    let hydrate_s = hydrate_start.elapsed().as_secs_f64();
    let mut fid = Fidelity::default();
    for (k, &n) in nodes.iter().enumerate() {
        out.attempted += 1;
        if loaded.chunk_count(n) != logged[k] {
            out.fail(format!("sensor {n}: restart changed the chunk count"));
        }
        let truth = |f: &FrameId, _| h.truth.get(f).cloned();
        readback::score_node(&loaded, n, h.shape.signals, truth, |_| true, &mut fid, out);
    }
    drop(loaded);

    let shape = &h.shape;
    let stored_values = (logged.iter().sum::<usize>() * shape.signals * shape.m) as u64;
    let encoded_values = (shape.history + shape.live_rounds) * shape.sensors * shape.signals;
    let queries = m.queries.stats();
    let (latency_p50, latency_p99) = sim::frame_latency_ms(&mut m.ingest_ns);
    let frame_values = (shape.signals * shape.m) as f64;
    out.e2e = EndToEnd {
        setup_s,
        // At the median `receive_frame` call: the mean would follow the
        // seal fsyncs, and with them the host's disk.
        ingest_samples_per_s: frame_values / (latency_p50 / 1e3),
        frame_latency_p50_ms: latency_p50,
        frame_latency_p99_ms: latency_p99,
        recovery_s: sim::median(&load_walls),
        op_per_s: queries.per_s,
        op_p50_us: queries.p50_us,
        op_tail_us: queries.p99_us,
        recon_rel_sse: fid.rel_sse(),
        wire_bytes_per_sample: h.frame_bytes as f64 / (encoded_values * shape.m) as f64,
        store_bytes_per_sample: store_bytes as f64 / stored_values as f64,
    };
    out.counts = Counts {
        input_digest: h.digest,
        frames_sent: m.receipts.accepted,
        receipts: m.receipts,
        chunks_logged: logged.iter().sum::<usize>() as u64,
        sealed: snapshot
            .counter("sensor_net.storage.segments.sealed")
            .unwrap_or(0),
        store_bytes,
        plan_hits: snapshot
            .counter("sbr_core.query.plan_cache.hits")
            .unwrap_or(0),
        plan_misses: snapshot
            .counter("sbr_core.query.plan_cache.misses")
            .unwrap_or(0),
        sse_bits: fid.rel_sse().to_bits(),
    };

    if params.trace {
        // The same passes untraced, on the same station and query stream.
        h.recorder = None;
        let mut plain_mix = query_mix(params, &h);
        let mut off = Tracer::new(false, params.inject);
        let mut scratch = Outcome::new(Workload::HistoryQuery);
        let untraced = h.run_passes(
            &mut off,
            Budget::Ops(m.passes),
            &mut plain_mix,
            &mut scratch,
        )?;
        let inputs = LayerInputs {
            traced_wall_s: m.wall_s,
            untraced_wall_s: untraced.wall_s,
            receipts: m.receipts,
            replayed_records: restart_rec
                .snapshot()
                .counter("sensor_net.storage.segments.replayed_records")
                .unwrap_or(0),
            checkpoints,
            write_amp: store_bytes as f64 / payload.max(1) as f64,
            load_ms: sim::median(&load_walls) * 1e3,
            hydrate_ms: hydrate_s * 1e3,
            queries,
            frame_bytes: m.frame_bytes.clone(),
            ..LayerInputs::default()
        };
        out.attach_layers(LayerReport::build(&t, &snapshot, &inputs));
        crate::write_spans(&t, params);
    }
    Ok(())
}
