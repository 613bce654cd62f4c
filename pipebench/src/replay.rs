//! `station_replay`: the write path and recovery, with the encoder outside
//! the timed loop.
//!
//! Set-up runs 32 small sensors (2 signals × M = 32) through `SensorNode`
//! and the seeded ARQ under heavy faults (drop 0.1, dup 0.05, reorder
//! 0.05, corrupt 0.02, a scheduled crash on two sensors, which forces
//! resyncs) and records the arrival trace: node, bytes and the station's
//! verdict, in order. Each timed iteration replays that trace into a fresh
//! persistent station with ≈4 KiB segments (so seal, checkpoint and
//! compaction cycle many times), drops it, restarts it with
//! `BaseStation::load` and hydrates one sensor's cold history.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use sbr_core::{SbrConfig, SbrError};
use sbr_obs::{FrameId, MetricsRecorder, Recorder as _};
use sensor_net::{BaseStation, FaultPlan, LossyLink, NodeId, SensorNode};

use crate::fleet::{checkpoints_on_disk, topology, HOP_ATTEMPTS, HOP_LOSS, RETX_CAPACITY};
use crate::readback::{self, Fidelity};
use crate::report::{self, Counts, EndToEnd, LayerInputs, LayerReport, Outcome};
use crate::sim::{self, derive, ArqStats, Radio, Receipts, Source, Verdict};
use crate::trace::{Layer, Tracer};
use crate::{timed_setups, Budget, Params, Size, Workload, ENCODER_THREADS};

/// Set-ups per run (`setup_s` is their median): each takes about 0.4 s.
const SETUP_REPS: usize = 3;

/// Segment budget of the replay stations.
pub const SEGMENT_BYTES: u64 = 4 * 1024;
/// End-to-end drop probability.
pub const DROP: f64 = 0.1;
/// End-to-end duplicate probability.
pub const DUP: f64 = 0.05;
/// End-to-end reorder probability.
pub const REORDER: f64 = 0.05;
/// End-to-end corruption probability.
pub const CORRUPT: f64 = 0.02;

struct Shape {
    sensors: usize,
    m: usize,
    frames: usize,
    crashes: [(NodeId, u64); 2],
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            sensors: 32,
            m: 32,
            frames: 48,
            crashes: [(5, 20), (17, 30)],
        },
        Size::Short => Shape {
            sensors: 6,
            m: 32,
            frames: 12,
            crashes: [(2, 4), (5, 6)],
        },
    }
}

/// The recorded live run.
struct Recorded {
    sensors: usize,
    m: usize,
    /// Arrivals in order, with the verdicts the live station gave them.
    trace: Vec<(NodeId, Bytes, Verdict)>,
    truth: HashMap<FrameId, Vec<f64>>,
    stats: ArqStats,
    faults: [u64; 4],
    retx_overflows: u64,
    flushed_values: u64,
    applied_frames: u64,
    digest: u64,
}

fn setup(params: &Params) -> Result<Recorded, SbrError> {
    let shape = shape(params.size);
    let topology = topology(shape.sensors);
    let station = BaseStation::new();
    let mut t = Tracer::new(false, None);
    let mut stats = ArqStats::default();
    let mut arrivals = Vec::new();
    let mut truth = HashMap::new();
    let mut flushed_values = 0u64;
    let mut digest = 0;
    struct Live {
        node: SensorNode,
        radio: Radio,
        data: Vec<f64>,
        pos: usize,
        flushed: u64,
        window: Vec<f64>,
    }
    let mut sensors = Vec::new();
    for id in 1..=shape.sensors {
        let source = if id % 2 == 0 {
            Source::Stock(2)
        } else {
            Source::Weather(2)
        };
        let config = SbrConfig::new(shape.m / 2, shape.m).with_threads(ENCODER_THREADS);
        let mut node = SensorNode::new(id, 2, shape.m, config)?;
        node.enable_arq(RETX_CAPACITY);
        let seed = derive(params.seed, id as u64);
        let data = source.samples(derive(seed, 0), shape.frames * shape.m);
        digest = report::digest(digest, &data[0].to_le_bytes());
        let mut plan = FaultPlan::new(derive(seed, 2 << 32))
            .with_drop(DROP)
            .with_dup(DUP)
            .with_reorder(REORDER)
            .with_corrupt(CORRUPT);
        if let Some(&(_, chunk)) = shape.crashes.iter().find(|(n, _)| *n == id) {
            plan = plan.with_crash_at(id, chunk);
        }
        let link = LossyLink::new(HOP_LOSS, HOP_ATTEMPTS, derive(seed, 1 << 32));
        sensors.push(Live {
            node,
            radio: Radio::new(&topology, id, link, plan),
            data,
            pos: 0,
            flushed: 0,
            window: Vec::new(),
        });
    }
    // Round-robin turns: each sensor buffers to its next flush, then runs
    // one ARQ round; a scheduled crash reboots it right after the flush.
    let n = 2;
    loop {
        let mut progressed = false;
        for s in &mut sensors {
            let need = shape.m - s.node.buffered();
            if (s.pos + need) * n > s.data.len() {
                continue;
            }
            progressed = true;
            let mut flush = None;
            for k in s.pos..s.pos + need {
                let sample = &s.data[k * n..(k + 1) * n];
                s.window.extend_from_slice(sample);
                flush = s.node.record(sample)?;
            }
            s.pos += need;
            let flush = flush
                .ok_or_else(|| SbrError::InconsistentState("full buffer did not flush".into()))?;
            let id = s.node.id();
            truth.insert(
                FrameId::new(id as u32, flush.epoch, flush.transmission.seq),
                std::mem::take(&mut s.window),
            );
            flushed_values += flush.raw_values as u64;
            sim::arq_round(
                &mut t,
                &mut s.node,
                &mut s.radio,
                &station,
                &mut stats,
                &mut arrivals,
            )?;
            if s.radio.plan.crash_due(id, s.flushed) {
                s.node.reboot()?;
                s.window.clear();
            }
            s.flushed += 1;
        }
        if !progressed {
            break;
        }
    }
    for s in &mut sensors {
        sim::drain(
            &mut t,
            &mut s.node,
            &mut s.radio,
            &station,
            &mut stats,
            &mut arrivals,
        )?;
    }
    let faults = sensors.iter().fold([0; 4], |acc, s| {
        let p = &s.radio.plan;
        [
            acc[0] + p.drops(),
            acc[1] + p.dups(),
            acc[2] + p.reorders(),
            acc[3] + p.corrupts(),
        ]
    });
    let applied_frames = arrivals.iter().filter(|a| a.verdict.applied()).count() as u64;
    Ok(Recorded {
        sensors: shape.sensors,
        m: shape.m,
        trace: arrivals
            .into_iter()
            .map(|a| (a.node, a.bytes, a.verdict))
            .collect(),
        truth,
        stats,
        faults,
        retx_overflows: sensors.iter().map(|s| s.node.retx_overflows()).sum(),
        flushed_values,
        applied_frames,
        digest,
    })
}

/// What the timed iterations measured.
#[derive(Default)]
struct Measured {
    iterations: u64,
    /// Timed wall: replays, station drops, loads and cold reads.
    wall_s: f64,
    /// The replay segments' wall alone.
    replay_s: f64,
    /// Each iteration's timed wall.
    iteration_s: Vec<f64>,
    receive_ns: Vec<u64>,
    load_s: Vec<f64>,
    hydrate_s: Vec<f64>,
    receipts: Receipts,
    applied_values: u64,
    frame_bytes: Vec<u64>,
}

/// Checks of iteration 0, kept for the verification.
struct FirstIteration {
    dir: PathBuf,
    pre_restart: Vec<Vec<Bytes>>,
    loaded_raw: Vec<Vec<Bytes>>,
    fidelity: Fidelity,
    store_bytes: u64,
    payload_bytes: u64,
}

fn iteration_dir(root: &Path, k: u64) -> PathBuf {
    root.join(format!("iter-{k}"))
}

fn new_station(dir: &Path, recorder: Option<&Arc<MetricsRecorder>>) -> BaseStation {
    let station = BaseStation::with_persistence(dir).with_segment_size(SEGMENT_BYTES);
    match recorder {
        Some(r) => station.with_recorder(r.as_ref()),
        None => station,
    }
}

/// The timed region: replay iterations until the budget is spent.
fn pass(
    rec: &Recorded,
    root: &Path,
    t: &mut Tracer,
    budget: Budget,
    recorder: Option<&Arc<MetricsRecorder>>,
    out: &mut Outcome,
) -> Result<(Measured, Option<FirstIteration>), SbrError> {
    let mut m = Measured::default();
    let mut first = None;
    let nodes: Vec<NodeId> = (1..=rec.sensors).collect();
    while !budget.done(m.wall_s, m.iterations) {
        let k = m.iterations;
        let dir = iteration_dir(root, k);
        let _ = std::fs::remove_dir_all(&dir);
        let segment = Instant::now();
        let station = t.span(Layer::Run, None, |t| {
            let station = t.span(Layer::Gen, None, |_| new_station(&dir, recorder));
            t.span(Layer::Gen, None, |t| {
                for (j, (node, bytes, expected)) in rec.trace.iter().enumerate() {
                    let copy = bytes.clone();
                    let call = Instant::now();
                    let got = t.span(Layer::StationReceive, None, |_| {
                        station.receive_frame(*node, copy)
                    });
                    m.receive_ns.push(call.elapsed().as_nanos() as u64);
                    let got = Verdict::of(got)?;
                    t.bytes(Layer::StationReceive, bytes.len() as u64, 0);
                    m.receipts.add(got);
                    m.frame_bytes.push(bytes.len() as u64);
                    if got.applied() {
                        m.applied_values += (rec.m * 2) as u64;
                    }
                    if got != *expected {
                        out.fail(format!(
                            "iteration {k}, arrival {j}: verdict {got:?}, recorded {expected:?}"
                        ));
                    }
                }
                Ok::<_, SbrError>(())
            })?;
            Ok::<_, SbrError>(station)
        })?;
        let replay_s = segment.elapsed().as_secs_f64();
        m.replay_s += replay_s;
        let pre_restart = (k == 0).then(|| {
            nodes
                .iter()
                .map(|&n| station.raw_frames(n))
                .collect::<Vec<_>>()
        });
        let payload_bytes: u64 = nodes.iter().map(|&n| station.log_bytes(n) as u64).sum();
        let segment = Instant::now();
        let cold = nodes[k as usize % nodes.len()];
        let loaded = t.span(Layer::Run, None, |t| {
            t.span(Layer::StationClose, None, |_| drop(station));
            let load = Instant::now();
            let loaded = t.span(Layer::StorageLoad, None, |_| match recorder {
                Some(r) => BaseStation::load_with_recorder(&dir, r.as_ref()),
                None => BaseStation::load(&dir),
            })?;
            let hydrate = Instant::now();
            t.span(Layer::StorageHydrate, None, |_| loaded.frames(cold))?;
            let done = Instant::now();
            m.load_s.push(hydrate.duration_since(load).as_secs_f64());
            m.hydrate_s.push(done.duration_since(hydrate).as_secs_f64());
            Ok::<_, SbrError>(loaded)
        })?;
        let restart_s = segment.elapsed().as_secs_f64();
        if let Some(pre_restart) = pre_restart {
            let mut fidelity = Fidelity::default();
            for &n in &nodes {
                let truth = |f: &FrameId, _| rec.truth.get(f).cloned();
                readback::score_node(&loaded, n, 2, truth, |_| true, &mut fidelity, out);
            }
            first = Some(FirstIteration {
                loaded_raw: nodes.iter().map(|&n| loaded.raw_frames(n)).collect(),
                pre_restart,
                fidelity,
                store_bytes: sim::dir_bytes(&dir),
                payload_bytes,
                dir: dir.clone(),
            });
        }
        let segment = Instant::now();
        t.span(Layer::Run, None, |t| {
            t.span(Layer::StationClose, None, |_| drop(loaded))
        });
        let iteration_s = replay_s + restart_s + segment.elapsed().as_secs_f64();
        m.wall_s += iteration_s;
        m.iteration_s.push(iteration_s);
        if k > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        m.iterations += 1;
    }
    Ok((m, first))
}

/// Run `station_replay`.
pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::new(Workload::StationReplay);
    if let Err(e) = run_inner(params, &mut out) {
        out.attempted += 1;
        out.fail(format!("station_replay aborted: {e}"));
    }
    out
}

fn run_inner(params: &Params, out: &mut Outcome) -> Result<(), SbrError> {
    let (rec, setup_s) = timed_setups(SETUP_REPS, || setup(params))?;
    let root = params.work_dir.join("replay");
    let recorder = params.trace.then(|| Arc::new(MetricsRecorder::new()));
    let mut t = Tracer::new(params.trace, params.inject);
    let (mut m, first) = pass(&rec, &root, &mut t, params.budget, recorder.as_ref(), out)?;
    out.attempted += rec.trace.len() as u64 * m.iterations;
    let first = first.ok_or_else(|| SbrError::InconsistentState("no replay iteration".into()))?;

    // Restart fidelity: the loaded store holds exactly what the station
    // logged before the restart.
    for (i, (pre, loaded)) in first.pre_restart.iter().zip(&first.loaded_raw).enumerate() {
        out.attempted += 1;
        if pre != loaded {
            out.fail(format!(
                "sensor {}: raw frames changed across restart",
                i + 1
            ));
        }
    }

    let snapshot = recorder.as_ref().map(|r| r.snapshot()).unwrap_or_default();
    let (latency_p50, latency_p99) = sim::frame_latency_ms(&mut m.receive_ns);
    let iteration_s = sim::median(&m.iteration_s);
    let mut iteration_ns: Vec<u64> = m.iteration_s.iter().map(|s| (s * 1e9) as u64).collect();
    out.e2e = EndToEnd {
        setup_s,
        ingest_samples_per_s: m.applied_values as f64 / m.replay_s,
        frame_latency_p50_ms: latency_p50,
        frame_latency_p99_ms: latency_p99,
        recovery_s: sim::median(&m.load_s),
        op_per_s: 1.0 / iteration_s,
        op_p50_us: iteration_s * 1e6,
        op_tail_us: sim::quantile(&mut iteration_ns, 0.99) / 1e3,
        recon_rel_sse: first.fidelity.rel_sse(),
        wire_bytes_per_sample: rec.stats.wire_bytes as f64 / rec.flushed_values as f64,
        store_bytes_per_sample: first.store_bytes as f64
            / (m.applied_values as f64 / m.iterations as f64),
    };
    out.counts = Counts {
        input_digest: rec.digest,
        frames_sent: rec.stats.frames_sent,
        receipts: m.receipts,
        chunks_logged: first.pre_restart.iter().map(|f| f.len() as u64).sum(),
        sealed: snapshot
            .counter("sensor_net.storage.segments.sealed")
            .unwrap_or(0),
        store_bytes: first.store_bytes,
        plan_hits: snapshot
            .counter("sbr_core.query.plan_cache.hits")
            .unwrap_or(0),
        plan_misses: snapshot
            .counter("sbr_core.query.plan_cache.misses")
            .unwrap_or(0),
        sse_bits: first.fidelity.rel_sse().to_bits(),
    };

    if params.trace {
        let plain_root = params.work_dir.join("replay-untraced");
        let mut off = Tracer::new(false, params.inject);
        let mut scratch = Outcome::new(Workload::StationReplay);
        let (plain, _) = pass(
            &rec,
            &plain_root,
            &mut off,
            Budget::Ops(m.iterations),
            None,
            &mut scratch,
        )?;
        let _ = std::fs::remove_dir_all(&plain_root);
        let inputs = LayerInputs {
            traced_wall_s: m.wall_s,
            untraced_wall_s: plain.wall_s,
            arq: rec.stats,
            delivered: rec.applied_frames,
            faults: rec.faults,
            retx_overflows: rec.retx_overflows,
            receipts: m.receipts,
            replayed_records: snapshot
                .counter("sensor_net.storage.segments.replayed_records")
                .unwrap_or(0),
            checkpoints: checkpoints_on_disk(&first.dir),
            write_amp: first.store_bytes as f64 / first.payload_bytes.max(1) as f64,
            load_ms: sim::median(&m.load_s) * 1e3,
            hydrate_ms: sim::median(&m.hydrate_s) * 1e3,
            frame_bytes: m.frame_bytes.clone(),
            ..LayerInputs::default()
        };
        out.attach_layers(LayerReport::build(&t, &snapshot, &inputs));
        crate::write_spans(&t, params);
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}
