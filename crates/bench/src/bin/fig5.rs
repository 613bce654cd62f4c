//! Figure 5: average per-transmission SBR running time vs. `TotalBand`
//! (compression ratios 5–30 %), for n ∈ {5,120, 10,240, 20,480} values
//! (10 stocks, M varied) with a 1,024-value base signal.
//!
//! The reproduction target is the *shape*: running time linear in the
//! transmitted-data size, larger n strictly slower. Absolute seconds
//! depend on the host (the paper used a 300 MHz Irix box).
//!
//! Run with `--quick` to measure only two ratios.
//!
//! Besides the human-readable table, every measured configuration is
//! written to `BENCH_SBR.json` (schema `sbr-bench/v4`, see the README):
//! one row per histogram of the run's recorder — per-phase times, cache
//! traffic, the bench's own control timings — plus every counter, so
//! regression tooling can diff *why* a configuration got slower, not just
//! that it did. Extra `network_sim`, `query_sweep` and `storage_recovery`
//! records cover the radio, query and recovery layers the same way.
//! Refresh the committed baseline with
//! `cp BENCH_SBR.json results/BENCH_SBR_v4.json`.

use std::sync::Arc;

use sbr_bench::{quick_mode, row, run_sbr_stream, RATIOS};
use sbr_core::{
    codec, query::aggregate_stream, Aggregate, Decoder, QueryEngine, QueryObs, SbrConfig,
    SbrEncoder,
};
use sbr_obs::bench::{self, BenchRecord};
use sbr_obs::{MetricsRecorder, Recorder, Span};
use sensor_net::{
    storage, BaseStation, EnergyModel, FaultPlan, LossyLink, Network, RecoveryStats, Strategy,
    Topology,
};

/// Count `s` into `rec` as `bench.recovery.*` counters.
fn record_recovery(rec: &dyn Recorder, s: &RecoveryStats) {
    for (name, v) in [
        ("frames_sent", s.frames_sent),
        ("frames_delivered", s.frames_delivered),
        ("duplicates_discarded", s.duplicates_discarded),
        ("gaps_detected", s.gaps_detected),
        ("corrupt_rejected", s.corrupt_rejected),
        ("resyncs", s.resyncs),
        ("retx_overflows", s.retx_overflows),
        ("max_retx_depth", s.max_retx_depth as u64),
        ("crashes", s.crashes),
        ("acks_sent", s.acks_sent),
        ("chunks_flushed", s.chunks_flushed as u64),
        ("chunks_delivered", s.chunks_delivered as u64),
    ] {
        rec.counter(&format!("bench.recovery.{name}")).add(v);
    }
}

/// Time `f` into the `name` histogram of `rec`.
fn timed<T>(rec: &dyn Recorder, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = Span::start(name, &rec.histogram(name), None);
    f()
}

/// One small SBR dissemination run over a line topology, instrumented end
/// to end; returns the record carrying per-node tx/rx counters. The run
/// uses the loss-tolerant ARQ strategy under per-hop loss and a seeded
/// end-to-end fault schedule, so the `sensor_net.recovery.*` and
/// `bench.recovery.*` counters land in the record too.
fn network_sim_record(quick: bool) -> BenchRecord {
    let nodes = 5usize; // base + 4 sensors
    let n_signals = 2;
    let m = if quick { 64 } else { 128 };
    let len = 4 * m;
    let feeds: Vec<Vec<Vec<f64>>> = (0..nodes - 1)
        .map(|node| {
            (0..n_signals)
                .map(|s| {
                    (0..len)
                        .map(|t| ((t as f64 * 0.21) + (node * 3 + s) as f64).sin() * 8.0)
                        .collect()
                })
                .collect()
        })
        .collect();
    let rec = Arc::new(MetricsRecorder::new());
    let mut net = Network::new(Topology::line(nodes, 1.0), EnergyModel::default());
    net.set_recorder(rec.clone());
    net.set_link(LossyLink::new(0.1, 12, 7));
    net.set_fault_plan(FaultPlan::new(42).with_drop(0.2).with_dup(0.05));
    let report = net
        .simulate(&feeds, m, &Strategy::Sbr(SbrConfig::new(2 * m / 5, m / 2)))
        .expect("network_sim run");
    let recovery = report.recovery.expect("SBR runs report recovery stats");
    record_recovery(rec.as_ref(), &recovery);
    // Measured outputs are counters, not params: a change in wire size
    // must not unmatch the record. `values_sent` is already counted as
    // `sensor_net.network.values_sent`.
    rec.counter("bench.network.raw_values")
        .add(report.raw_values as u64);
    rec.gauge("bench.quality.sse").set(report.sse);
    BenchRecord::from_snapshot(
        "network_sim",
        &[("nodes", nodes as f64), ("loss", 0.1), ("drop", 0.2)],
        &rec.snapshot(),
    )
}

/// Millions of range aggregates against the compressed-domain
/// [`QueryEngine`] vs. a full-decode [`aggregate_stream`] baseline on a
/// subsample of the same deterministic workload; returns the record
/// carrying the engine's rows and counters (plan-cache traffic, fold
/// counts) beside the `bench.query.decode_baseline_ns` control row.
fn query_sweep_record(quick: bool) -> BenchRecord {
    let n_signals = 4usize;
    let m = 256usize;
    // The compressed sweep is cheap enough to keep at full size even in
    // quick mode (the headline is the 1e6-query speedup);
    // quick only trims the log length and the slow decode control.
    let chunks = if quick { 16 } else { 64 };
    let sweep: u64 = 1_000_000;
    let decode_queries: u64 = if quick { 400 } else { 2_000 };
    let d = sbr_datasets::stock(7, n_signals, m * chunks);
    let files = d.chunk(m);
    let band = (n_signals * m) / 5;
    let config = SbrConfig::new(band, m);
    let mut encoder = SbrEncoder::new(n_signals, m, config).expect("query sweep config");
    let txs: Vec<_> = files
        .iter()
        .map(|rows| encoder.encode(rows).expect("query sweep encode"))
        .collect();

    let rec = Arc::new(MetricsRecorder::new());
    let mut engine = QueryEngine::from_transmissions(&txs).expect("query sweep index");
    engine.set_obs(QueryObs::new(rec.as_ref()));

    // A fixed pool of distinct plans (below the engine's cache cap) drawn
    // by a seeded LCG, then a long sweep that revisits the pool: the
    // steady state the record describes is plan-cache hits, exactly the
    // regime a monitoring dashboard replaying canned queries sits in.
    const POOL: usize = 2_048;
    let total = m * chunks;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 16
    };
    let aggs = [
        Aggregate::Sum,
        Aggregate::Avg,
        Aggregate::Min,
        Aggregate::Max,
    ];
    let pool: Vec<(usize, usize, usize, Aggregate)> = (0..POOL)
        .map(|k| {
            let signal = lcg() as usize % n_signals;
            let t0 = lcg() as usize % (total - 1);
            let span = (total - t0 - 1).max(1);
            let t1 = (t0 + 1 + lcg() as usize % span).min(total);
            (signal, t0, t1, aggs[k % aggs.len()])
        })
        .collect();

    for _ in 0..sweep {
        let &(signal, t0, t1, agg) = &pool[lcg() as usize % POOL];
        let _ = engine.query(signal, t0, t1, agg).expect("compressed query");
    }

    // Full-decode control: replay the *same* workload prefix, each query
    // re-running the decoder from the head of the log (what answering
    // without the index costs). Far too slow for the full sweep — hence
    // the subsample, normalized per query below.
    let mut state2 = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..3 * POOL as u64 {
        // Advance past the pool-construction draws.
        state2 = state2
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    let mut lcg2 = move || {
        state2 = state2
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state2 >> 16
    };
    for _ in 0..decode_queries {
        let &(signal, t0, t1, _) = &pool[lcg2() as usize % POOL];
        timed(rec.as_ref(), "bench.query.decode_baseline_ns", || {
            let mut decoder = Decoder::new();
            aggregate_stream(&mut decoder, &txs, signal, t0, t1).expect("decode baseline")
        });
    }

    let record = BenchRecord::from_snapshot(
        "query_sweep",
        &[
            ("n_signals", n_signals as f64),
            ("samples_per_signal", m as f64),
            ("chunks", chunks as f64),
            ("plan_pool", POOL as f64),
        ],
        &rec.snapshot(),
    );
    // (queries, wall seconds) of one side.
    let side = |name: &str| {
        record
            .row(name)
            .map_or((0, 0.0), |r| (r.count, r.sum as f64 / 1e9))
    };
    let (queries, query_wall) = side("sbr_core.query.query_ns");
    let (_, decode_wall) = side("bench.query.decode_baseline_ns");
    let speedup = (decode_wall / decode_queries as f64) / (query_wall / queries as f64);
    println!(
        "query sweep: {sweep} compressed queries over {chunks} chunks \
         ({query_wall:.2} s), {decode_queries} decode-baseline queries ({decode_wall:.2} s), \
         {speedup:.0}x per query"
    );
    record
}

/// Segmented-store recovery sweep: persist histories an order of
/// magnitude apart into checkpointed segmented stores, then measure what
/// a station restart costs. One record per history length. The headline
/// shape: `sensor_net.storage.segments.replayed_records` and the
/// `bench.storage.load_ns` row stay flat while `bench.storage.records`
/// grows 10x–100x, because a checkpointed load replays only the active
/// tail; the `bench.storage.full_replay_ns` control (hydrating the whole
/// history) is what recovery would cost without checkpoints.
fn storage_recovery_records(quick: bool) -> Vec<BenchRecord> {
    let n_signals = 2usize;
    let m = 64usize;
    let histories: &[usize] = if quick { &[24, 240] } else { &[24, 240, 2400] };
    let max_h = *histories.last().expect("non-empty sweep");
    // One encoded stream, reused as prefixes: the continuity chain only
    // constrains what came before, so history `h` ingests frames[..h].
    let d = sbr_datasets::stock(11, n_signals, m * max_h);
    let files = d.chunk(m);
    let band = (n_signals * m) / 4;
    let mut encoder =
        SbrEncoder::new(n_signals, m, SbrConfig::new(band, m)).expect("storage sweep config");
    let frames: Vec<_> = files
        .iter()
        .map(|rows| codec::encode(&encoder.encode(rows).expect("storage sweep encode")))
        .collect();

    // ~2 KiB segments: long histories seal many segments and write many
    // checkpoints, so the sweep exercises the checkpoint ladder rather
    // than a single open file.
    const SEGMENT_BYTES: u64 = 2 * 1024;
    let root = std::env::temp_dir().join(format!("sbr-bench-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut records = Vec::new();
    for &h in histories {
        let dir = root.join(format!("h{h}"));
        {
            let station = BaseStation::with_persistence(&dir).with_segment_size(SEGMENT_BYTES);
            for f in &frames[..h] {
                station
                    .receive_frame(1, f.clone())
                    .expect("storage sweep ingest");
            }
        }
        let report = storage::verify(&dir, 1).expect("persisted store verifies");
        // Checkpointed load: directory scan + active-tail replay only.
        let rec = Arc::new(MetricsRecorder::new());
        let station = timed(rec.as_ref(), "bench.storage.load_ns", || {
            BaseStation::load_with_recorder(&dir, rec.as_ref()).expect("checkpointed load")
        });
        // Full-replay control: hydrating the cold prefix re-decodes the
        // whole history.
        let hydrated = timed(rec.as_ref(), "bench.storage.full_replay_ns", || {
            station.frames(1).expect("full hydration")
        });
        assert_eq!(hydrated.len(), h, "hydration must recover every frame");
        let sealed = u64::from(report.segments - u32::from(report.active));
        rec.counter("bench.storage.records").add(report.records);
        rec.counter("bench.storage.segments_sealed").add(sealed);
        rec.counter("bench.storage.checkpoints")
            .add(u64::from(report.checkpoints));
        let record = BenchRecord::from_snapshot(
            "storage_recovery",
            &[
                ("history", h as f64),
                ("segment_bytes", SEGMENT_BYTES as f64),
                ("n_signals", n_signals as f64),
                ("samples_per_signal", m as f64),
            ],
            &rec.snapshot(),
        );
        let ms = |name: &str| record.row(name).map_or(0.0, |r| r.sum as f64 / 1e6);
        let replayed = record
            .counter("sensor_net.storage.segments.replayed_records")
            .unwrap_or(0.0);
        println!(
            "storage recovery: history {h} frames → load {:.2} ms replaying {replayed} \
             record(s) ({sealed} sealed segment(s), {} checkpoint(s)); full replay {:.2} ms",
            ms("bench.storage.load_ns"),
            report.checkpoints,
            ms("bench.storage.full_replay_ns"),
        );
        records.push(record);
    }
    let _ = std::fs::remove_dir_all(&root);
    records
}

fn main() {
    let quick = quick_mode();
    // Quick mode samples one light and one heavy ratio: the heavy cell is
    // where Search dominates, so the smoke still exercises the probe cache
    // under load.
    let quick_ratios = [RATIOS[1], RATIOS[5]];
    let ratios: &[f64] = if quick { &quick_ratios } else { &RATIOS };
    println!("=== Figure 5 — avg per-transmission time (seconds) vs TotalBand ===");
    println!(
        "{}",
        row(
            "ratio",
            [5120usize, 10240, 20480].map(|n| format!("n={n}")).as_ref()
        )
    );
    // One row per ratio, one column per n.
    let sizes = [512usize, 1024, 2048]; // M per stock; N = 10
    let mut columns: Vec<Vec<f64>> = Vec::new();
    let mut records = Vec::new();
    for &m in &sizes {
        let d = sbr_datasets::stock(42, 10, m * 10);
        let files = d.chunk(m);
        let mut col = Vec::new();
        for &ratio in ratios {
            let band = (10 * m) as f64 * ratio;
            // A fresh recorder per configuration: each record describes
            // exactly one (n, ratio) run.
            let rec = Arc::new(MetricsRecorder::new());
            let config = SbrConfig::new(band as usize, 1024).with_recorder(rec.clone());
            let stream = run_sbr_stream(&files, config);
            col.push(stream.avg_encode_time().as_secs_f64());
            stream.record_quality(rec.as_ref());
            records.push(BenchRecord::from_snapshot(
                "fig5",
                &[
                    ("n", (10 * m) as f64),
                    ("total_band", band.floor()),
                    ("ratio", ratio),
                ],
                &rec.snapshot(),
            ));
        }
        columns.push(col);
    }
    for (ri, &ratio) in ratios.iter().enumerate() {
        let cells: Vec<String> = columns.iter().map(|c| format!("{:.3}", c[ri])).collect();
        println!("{}", row(&format!("{:.0}%", ratio * 100.0), &cells));
    }
    records.push(network_sim_record(quick));
    records.push(query_sweep_record(quick));
    records.extend(storage_recovery_records(quick));
    // The artifact lands at the workspace root only; the committed
    // baseline under results/ changes by an explicit `cp`.
    std::fs::write("BENCH_SBR.json", bench::to_json(&records)).expect("write BENCH_SBR.json");
    println!("wrote {} record(s) to BENCH_SBR.json", records.len());
}
