//! `fleet_ingest`: a live, closed-loop batch run through every layer.
//!
//! Four sensors on a seeded multi-hop topology: two stock sensors (10
//! signals × M = 1,024) and two weather sensors (6 × 1,024), bands
//! alternating 10% / 30% of the batch, `m_base` = 1,024, phases staggered
//! by M/4. Sensors take turns: each turn buffers samples up to the
//! flushing `record`, then runs one ARQ round (every pending frame up the
//! route, through the fault channel, into `receive_frame`; one cumulative
//! ACK back). Faults are modest: per-hop loss 0.05, end-to-end drop 0.05,
//! dup 0.02. The station is persistent with default segments. The
//! encoder does almost all the work.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sbr_core::{SbrConfig, SbrError};
use sbr_obs::{FrameId, MetricsRecorder, Recorder as _};
use sensor_net::{BaseStation, FaultPlan, LossyLink, NodeId, SensorNode, Topology};

use crate::readback::{self, Fidelity};
use crate::report::{self, Counts, EndToEnd, LayerInputs, LayerReport, Outcome};
use crate::sim::{self, derive, ArqStats, Arrival, Corpus, Radio, Source};
use crate::trace::{Layer, Tracer};
use crate::{timed_setups, Budget, Params, Size, Workload, ENCODER_THREADS};

/// Set-ups per run (`setup_s` is their median): the set-up is cheap (~50 ms), so more
/// repetitions buy a steadier median.
const SETUP_REPS: usize = 9;

/// Seed of the fixed deployment (the same for every run seed, so a seed
/// changes the data and the faults, never the routes).
pub const TOPOLOGY_SEED: u64 = 7;
/// Per-hop attempt loss.
pub const HOP_LOSS: f64 = 0.05;
/// Per-hop attempts before a hop gives up.
pub const HOP_ATTEMPTS: u32 = 4;
/// End-to-end drop probability.
pub const DROP: f64 = 0.05;
/// End-to-end duplicate probability.
pub const DUP: f64 = 0.02;
/// Un-ACKed frames a sensor holds before it resyncs (as in
/// `Network::simulate`).
pub const RETX_CAPACITY: usize = 16;
/// Station loads timed after the run; `recovery_s` is their median.
pub const LOADS: usize = 21;

/// The deployment: base station plus `sensors` sensors in a 10 × 10
/// field, radio range 4.
pub fn topology(sensors: usize) -> Topology {
    Topology::random(sensors + 1, 10.0, 4.0, TOPOLOGY_SEED)
}

struct Shape {
    m: usize,
    m_base: usize,
    /// Frames in each sensor's recording. The timed loop runs at least
    /// this many rounds, and fidelity is scored on exactly the first this
    /// many frames of each sensor (the whole recording once), so a faster
    /// or slower build cannot move `recon_rel_sse`.
    corpus_frames: usize,
    sensors: [(Source, f64); 4],
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            m: 1024,
            m_base: 1024,
            corpus_frames: 24,
            sensors: [
                (Source::Stock(10), 0.1),
                (Source::Stock(10), 0.3),
                (Source::Weather(6), 0.1),
                (Source::Weather(6), 0.3),
            ],
        },
        Size::Short => Shape {
            m: 64,
            m_base: 64,
            corpus_frames: 6,
            sensors: [
                (Source::Stock(3), 0.1),
                (Source::Stock(3), 0.3),
                (Source::Weather(2), 0.1),
                (Source::Weather(2), 0.3),
            ],
        },
    }
}

struct Sensor {
    node: SensorNode,
    corpus: Corpus,
    /// Next loop sample to record.
    next: u64,
    /// Loop sample the buffered chunk began at.
    chunk_start: u64,
    radio: Radio,
}

struct Fleet {
    sensors: Vec<Sensor>,
    station: BaseStation,
    dir: PathBuf,
    m: usize,
    corpus_frames: usize,
    /// Loop sample each flushed frame's chunk began at.
    starts: HashMap<FrameId, u64>,
    flushed_at: HashMap<FrameId, Instant>,
    latencies_ns: Vec<u64>,
    round_s: Vec<f64>,
    frame_bytes: Vec<u64>,
    stats: ArqStats,
    flushed_frames: u64,
    flushed_values: u64,
    applied_frames: u64,
    applied_values: u64,
    digest: u64,
}

fn setup(
    params: &Params,
    dir: &Path,
    recorder: Option<&Arc<MetricsRecorder>>,
) -> Result<Fleet, SbrError> {
    let shape = shape(params.size);
    let _ = std::fs::remove_dir_all(dir);
    let mut station = BaseStation::with_persistence(dir);
    if let Some(r) = recorder {
        station = station.with_recorder(r.as_ref());
    }
    let topology = topology(shape.sensors.len());
    let mut digest = 0;
    let mut sensors = Vec::new();
    for (i, &(source, band)) in shape.sensors.iter().enumerate() {
        let id: NodeId = i + 1;
        let n = source.signals();
        let total_band = (band * (n * shape.m) as f64).round() as usize;
        let mut config = SbrConfig::new(total_band, shape.m_base).with_threads(ENCODER_THREADS);
        if let Some(r) = recorder {
            config = config.with_recorder(r.clone());
        }
        let mut node = SensorNode::new(id, n, shape.m, config)?;
        node.enable_arq(RETX_CAPACITY);
        let corpus = Corpus::new(source, id as u64, shape.corpus_frames * shape.m);
        let start = corpus.start(params.seed, id as u64, shape.m);
        digest = report::digest(digest, &start.to_le_bytes());
        let seed = derive(params.seed, id as u64);
        let link = LossyLink::new(HOP_LOSS, HOP_ATTEMPTS, derive(seed, 1 << 32));
        let plan = FaultPlan::new(derive(seed, 2 << 32))
            .with_drop(DROP)
            .with_dup(DUP);
        // Staggered phases: sensor i starts i·M/4 samples into its batch.
        let lead = (i * shape.m / 4) as u64;
        for t in start..start + lead {
            if node.record(corpus.sample(t))?.is_some() {
                return Err(SbrError::InconsistentState("stagger flushed".into()));
            }
        }
        sensors.push(Sensor {
            node,
            corpus,
            next: start + lead,
            chunk_start: start,
            radio: Radio::new(&topology, id, link, plan),
        });
    }
    Ok(Fleet {
        sensors,
        station,
        dir: dir.to_path_buf(),
        m: shape.m,
        corpus_frames: shape.corpus_frames,
        starts: HashMap::new(),
        flushed_at: HashMap::new(),
        latencies_ns: Vec::new(),
        round_s: Vec::new(),
        frame_bytes: Vec::new(),
        stats: ArqStats::default(),
        flushed_frames: 0,
        flushed_values: 0,
        applied_frames: 0,
        applied_values: 0,
        digest,
    })
}

impl Fleet {
    /// Fold the arrivals of one ARQ round: frame latency for each frame
    /// the station applied, measured from its flushing `record` call.
    fn absorb(&mut self, arrivals: &mut Vec<Arrival>) {
        for a in arrivals.drain(..) {
            self.frame_bytes.push(a.bytes.len() as u64);
            if !a.verdict.applied() {
                continue;
            }
            let Some((_, epoch, seq)) = sbr_core::codec::peek_v2_identity(&a.bytes) else {
                continue;
            };
            let id = FrameId::new(a.node as u32, epoch, seq);
            if let Some(start) = self.flushed_at.remove(&id) {
                self.latencies_ns
                    .push(a.at.duration_since(start).as_nanos() as u64);
            }
            self.applied_frames += 1;
            self.applied_values += (self.m * self.sensors[a.node - 1].corpus.signals()) as u64;
        }
    }

    /// One sensor's turn: buffer up to the flush, flush, one ARQ round.
    fn turn(&mut self, t: &mut Tracer, i: usize) -> Result<(), SbrError> {
        let s = &mut self.sensors[i];
        let need = (self.m - s.node.buffered()) as u64;
        let (node, corpus, next) = (&mut s.node, &s.corpus, s.next);
        t.span(Layer::NodeBuffer, None, |_| {
            for k in next..next + need - 1 {
                if node.record(corpus.sample(k))?.is_some() {
                    return Err(SbrError::InconsistentState("early flush".into()));
                }
            }
            Ok(())
        })?;
        let last = corpus.sample(next + need - 1);
        let flushed_at = Instant::now();
        let flush = t.span(Layer::NodeFlush, None, |t| {
            let flush = node
                .record(last)?
                .ok_or_else(|| SbrError::InconsistentState("full buffer did not flush".into()))?;
            t.tag_frame(FrameId::new(
                i as u32 + 1,
                flush.epoch,
                flush.transmission.seq,
            ));
            Ok::<_, SbrError>(flush)
        })?;
        t.bytes(
            Layer::NodeFlush,
            (flush.raw_values * 8) as u64,
            flush.frame.len() as u64,
        );
        let id = FrameId::new(i as u32 + 1, flush.epoch, flush.transmission.seq);
        let chunk_start = s.chunk_start;
        s.next += need;
        s.chunk_start = s.next;
        let mut arrivals = Vec::new();
        let (station, stats) = (&self.station, &mut self.stats);
        t.span(Layer::Gen, None, |t| {
            self.starts.insert(id, chunk_start);
            self.flushed_at.insert(id, flushed_at);
            sim::arq_round(t, &mut s.node, &mut s.radio, station, stats, &mut arrivals)
        })?;
        self.flushed_frames += 1;
        self.flushed_values += flush.raw_values as u64;
        t.span(Layer::Gen, None, |_| self.absorb(&mut arrivals));
        Ok(())
    }

    /// The timed region: rounds (one turn per sensor) until the budget is
    /// spent and the recordings have been played once, then drain.
    /// Returns the rounds run and the wall in seconds.
    fn pass(&mut self, t: &mut Tracer, budget: Budget) -> Result<(u64, f64), SbrError> {
        let start = Instant::now();
        let mut rounds = 0u64;
        let floor = match budget {
            Budget::Seconds(_) => self.corpus_frames as u64,
            Budget::Ops(_) => 0,
        };
        t.span(Layer::Run, None, |t| {
            while rounds < floor || !budget.done(start.elapsed().as_secs_f64(), rounds) {
                let round = Instant::now();
                for i in 0..self.sensors.len() {
                    self.turn(t, i)?;
                }
                self.round_s.push(round.elapsed().as_secs_f64());
                rounds += 1;
            }
            for i in 0..self.sensors.len() {
                let mut arrivals = Vec::new();
                let s = &mut self.sensors[i];
                let (station, stats) = (&self.station, &mut self.stats);
                t.span(Layer::Gen, None, |t| {
                    sim::drain(t, &mut s.node, &mut s.radio, station, stats, &mut arrivals)
                })?;
                t.span(Layer::Gen, None, |_| self.absorb(&mut arrivals));
            }
            Ok::<_, SbrError>(())
        })?;
        Ok((rounds, start.elapsed().as_secs_f64()))
    }

    fn faults(&self) -> [u64; 4] {
        self.sensors.iter().fold([0; 4], |acc, s| {
            let p = &s.radio.plan;
            [
                acc[0] + p.drops(),
                acc[1] + p.dups(),
                acc[2] + p.reorders(),
                acc[3] + p.corrupts(),
            ]
        })
    }
}

/// Checkpoint files under a store directory.
pub fn checkpoints_on_disk(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                checkpoints_on_disk(&p)
            } else {
                u64::from(p.extension().is_some_and(|x| x == "sbrck"))
            }
        })
        .sum()
}

/// Run `fleet_ingest`.
pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::new(Workload::FleetIngest);
    if let Err(e) = run_inner(params, &mut out) {
        out.attempted += 1;
        out.fail(format!("fleet_ingest aborted: {e}"));
    }
    out
}

fn run_inner(params: &Params, out: &mut Outcome) -> Result<(), SbrError> {
    let dir = params.work_dir.join("fleet");
    let recorder = params.trace.then(|| Arc::new(MetricsRecorder::new()));
    let (mut fleet, setup_s) = timed_setups(SETUP_REPS, || setup(params, &dir, recorder.as_ref()))?;
    let mut t = Tracer::new(params.trace, params.inject);
    let (rounds, wall_s) = fleet.pass(&mut t, params.budget)?;

    // Verification, outside the timed region.
    out.attempted += fleet.flushed_frames;
    let undelivered = fleet.flushed_frames.saturating_sub(fleet.applied_frames);
    for _ in 0..undelivered {
        out.fail("a flushed chunk was never delivered".into());
    }
    let mut fid = Fidelity::default();
    let ids: Vec<NodeId> = (1..=fleet.sensors.len()).collect();
    let scored_frames = fleet.corpus_frames as u64;
    for (s, &id) in fleet.sensors.iter().zip(&ids) {
        let truth = |f: &FrameId, len: usize| {
            let start = *fleet.starts.get(f)?;
            Some(
                (0..len as u64)
                    .flat_map(|i| s.corpus.sample(start + i).iter().copied())
                    .collect(),
            )
        };
        let scored = |f: &FrameId| f.epoch == 0 && f.seq < scored_frames;
        let signals = s.corpus.signals();
        readback::score_node(&fleet.station, id, signals, truth, scored, &mut fid, out);
    }
    let logged: Vec<usize> = ids
        .iter()
        .map(|&id| fleet.station.chunk_count(id))
        .collect();
    let stats = fleet.stats;
    let faults = fleet.faults();
    let retx_overflows = fleet.sensors.iter().map(|s| s.node.retx_overflows()).sum();
    let snapshot = recorder.as_ref().map(|r| r.snapshot()).unwrap_or_default();
    let store_bytes = sim::dir_bytes(&fleet.dir);
    let payload: u64 = ids
        .iter()
        .map(|&id| fleet.station.log_bytes(id) as u64)
        .sum();
    let round_values: usize = fleet
        .sensors
        .iter()
        .map(|s| s.corpus.signals() * fleet.m)
        .sum();

    // Restart: the loaded station must hold every chunk, and the first
    // historical read hydrates one sensor's cold history.
    drop(fleet.station);
    let restart_rec = MetricsRecorder::new();
    let (loaded, load_walls) = readback::restart(&dir, LOADS, Some(&restart_rec))?;
    let hydrate_start = Instant::now();
    loaded.frames(ids[0])?;
    let hydrate_s = hydrate_start.elapsed().as_secs_f64();
    for (k, &id) in ids.iter().enumerate() {
        out.attempted += 1;
        if loaded.chunk_count(id) != logged[k] {
            out.fail(format!("sensor {id}: restart changed the chunk count"));
        }
    }
    drop(loaded);

    let (latency_p50, latency_p99) = sim::frame_latency_ms(&mut fleet.latencies_ns);
    let round_s = sim::median(&fleet.round_s);
    let mut round_ns: Vec<u64> = fleet.round_s.iter().map(|s| (s * 1e9) as u64).collect();
    out.e2e = EndToEnd {
        setup_s,
        ingest_samples_per_s: round_values as f64 / round_s,
        frame_latency_p50_ms: latency_p50,
        frame_latency_p99_ms: latency_p99,
        recovery_s: sim::median(&load_walls),
        op_per_s: 1.0 / round_s,
        op_p50_us: round_s * 1e6,
        // About 70 rounds a run: p85 is the highest percentile with ten
        // rounds beyond it.
        op_tail_us: sim::rank_band(&mut round_ns, 0.80, 0.85) / 1e3,
        recon_rel_sse: fid.rel_sse(),
        wire_bytes_per_sample: stats.wire_bytes as f64 / fleet.flushed_values as f64,
        store_bytes_per_sample: store_bytes as f64 / fleet.applied_values as f64,
    };
    out.counts = Counts {
        input_digest: fleet.digest,
        frames_sent: stats.frames_sent,
        receipts: stats.receipts,
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
        // The same work untraced, for the tracing overhead.
        let plain_dir = params.work_dir.join("fleet-untraced");
        let mut plain = setup(params, &plain_dir, None)?;
        let mut off = Tracer::new(false, params.inject);
        let (_, untraced_wall_s) = plain.pass(&mut off, Budget::Ops(rounds))?;
        drop(plain);
        let _ = std::fs::remove_dir_all(&plain_dir);
        let inputs = LayerInputs {
            traced_wall_s: wall_s,
            untraced_wall_s,
            arq: stats,
            delivered: fleet.applied_frames,
            faults,
            retx_overflows,
            receipts: stats.receipts,
            replayed_records: restart_rec
                .snapshot()
                .counter("sensor_net.storage.segments.replayed_records")
                .unwrap_or(0),
            checkpoints: checkpoints_on_disk(&dir),
            write_amp: store_bytes as f64 / payload.max(1) as f64,
            load_ms: sim::median(&load_walls) * 1e3,
            hydrate_ms: hydrate_s * 1e3,
            frame_bytes: fleet.frame_bytes.clone(),
            ..LayerInputs::default()
        };
        out.attach_layers(LayerReport::build(&t, &snapshot, &inputs));
        crate::write_spans(&t, params);
    }
    Ok(())
}
