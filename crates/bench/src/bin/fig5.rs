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
//! written to `BENCH_SBR.json` (schema `sbr-bench/v3`, see the README).
//! Each record embeds the run's `sbr-obs` metrics snapshot — per-phase
//! times, direct-vs-FFT sweep counts, base-signal churn — plus `search`
//! and `get_base` blocks (probe count, probe-cache and fit-cache
//! hits/misses, per-phase wall times). One extra `network_sim` record
//! carries per-node radio counters from a small sensor-network run, so
//! regression tooling can diff *why* a configuration got slower, not
//! just that it did.

use std::sync::Arc;
use std::time::Instant;

use sbr_bench::{quick_mode, row, run_sbr_stream, BenchRecord, QueryStats, StorageStats, RATIOS};
use sbr_core::{
    codec, query::aggregate_stream, Aggregate, Decoder, QueryEngine, QueryObs, SbrConfig,
    SbrEncoder,
};
use sbr_obs::{MetricsRecorder, Recorder as _};
use sensor_net::{
    storage, BaseStation, EnergyModel, FaultPlan, LossyLink, Network, Strategy, Topology,
};

/// One small SBR dissemination run over a line topology, instrumented end
/// to end; returns the record carrying per-node tx/rx counters. The run
/// uses the loss-tolerant ARQ strategy under per-hop loss and a seeded
/// end-to-end fault schedule, so the record also carries a `recovery`
/// block and the `sensor_net.recovery.*` counters land in its snapshot.
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
        .simulate(
            &feeds,
            m,
            &Strategy::SbrArq(SbrConfig::new(2 * m / 5, m / 2)),
        )
        .expect("network_sim run");
    let recovery = report.recovery.expect("ARQ runs report recovery stats");
    BenchRecord {
        experiment: "network_sim".to_string(),
        params: vec![
            ("nodes".to_string(), nodes as f64),
            ("values_sent".to_string(), report.values_sent as f64),
            ("raw_values".to_string(), report.raw_values as f64),
            ("loss".to_string(), 0.1),
            ("drop".to_string(), 0.2),
        ],
        avg_encode_secs: 0.0,
        avg_sse: report.sse,
        total_rel: 0.0,
        transmissions: 0,
        inserted: Vec::new(),
        metrics: None,
        search: None,
        get_base: None,
        recovery: None,
        query: None,
        storage: None,
    }
    .with_metrics(rec.snapshot())
    .with_recovery(recovery)
}

/// Millions of range aggregates against the compressed-domain
/// [`QueryEngine`] vs. a full-decode [`aggregate_stream`] baseline on a
/// subsample of the same deterministic workload; returns the record
/// carrying the v3 `query` block (plan-cache hit counts, fold counters,
/// and the per-query decode-over-compressed `speedup`).
fn query_sweep_record(quick: bool) -> BenchRecord {
    let n_signals = 4usize;
    let m = 256usize;
    // The compressed sweep is cheap enough to keep at full size even in
    // quick mode (the v3 acceptance gate is the 1e6-query speedup);
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
    // the subsample, normalized per query by `QueryStats::speedup`.
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
    let started = Instant::now();
    for _ in 0..decode_queries {
        let &(signal, t0, t1, _) = &pool[lcg2() as usize % POOL];
        let mut decoder = Decoder::new();
        let _ = aggregate_stream(&mut decoder, &txs, signal, t0, t1).expect("decode baseline");
    }
    let decode_wall = started.elapsed().as_secs_f64();

    let snapshot = rec.snapshot();
    let query =
        QueryStats::from_snapshot(&snapshot).with_decode_baseline(decode_queries, decode_wall);
    let speedup = query.speedup().unwrap_or(0.0);
    println!(
        "query sweep: {sweep} compressed queries over {chunks} chunks \
         ({:.2} s), {decode_queries} decode-baseline queries ({decode_wall:.2} s), \
         {speedup:.0}x per query",
        query.wall_secs
    );
    BenchRecord {
        experiment: "query_sweep".to_string(),
        params: vec![
            ("n_signals".to_string(), n_signals as f64),
            ("samples_per_signal".to_string(), m as f64),
            ("chunks".to_string(), chunks as f64),
            ("plan_pool".to_string(), POOL as f64),
        ],
        avg_encode_secs: 0.0,
        avg_sse: 0.0,
        total_rel: 0.0,
        transmissions: txs.len(),
        inserted: Vec::new(),
        metrics: None,
        search: None,
        get_base: None,
        recovery: None,
        query: None,
        storage: None,
    }
    .with_metrics(snapshot)
    .with_query(query)
}

/// Segmented-store recovery sweep: persist histories an order of
/// magnitude apart into checkpointed segmented stores, then measure what
/// a station restart costs. One record per history length, each carrying
/// the v3 `storage` block. The headline shape: `replayed_records` and
/// `wall_secs` stay flat while `records` grows 10x–100x, because a
/// checkpointed load replays only the active tail; the
/// `full_replay_wall_secs` control (hydrating the whole history) is what
/// recovery would cost without checkpoints.
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
                station.receive(1, f.clone()).expect("storage sweep ingest");
            }
        }
        let report = storage::verify(&dir, 1).expect("persisted store verifies");
        // Checkpointed load: directory scan + active-tail replay only.
        let rec = Arc::new(MetricsRecorder::new());
        let started = Instant::now();
        let station =
            BaseStation::load_with_recorder(&dir, rec.as_ref()).expect("checkpointed load");
        let wall = started.elapsed().as_secs_f64();
        let replayed = rec
            .snapshot()
            .counter("sensor_net.storage.segments.replayed_records")
            .unwrap_or(0);
        // Full-replay control: hydrating the cold prefix re-decodes the
        // whole history.
        let started = Instant::now();
        let hydrated = station.frames(1).expect("full hydration");
        let full_wall = started.elapsed().as_secs_f64();
        assert_eq!(hydrated.len(), h, "hydration must recover every frame");
        let stats = StorageStats {
            records: report.records,
            segments_sealed: u64::from(report.segments - u32::from(report.active)),
            checkpoints: u64::from(report.checkpoints),
            replayed_records: replayed,
            wall_secs: wall,
            full_replay_wall_secs: Some(full_wall),
        };
        println!(
            "storage recovery: history {h} frames → load {:.2} ms replaying {replayed} \
             record(s) ({} sealed segment(s), {} checkpoint(s)); full replay {:.2} ms",
            wall * 1e3,
            stats.segments_sealed,
            stats.checkpoints,
            full_wall * 1e3,
        );
        records.push(
            BenchRecord {
                experiment: "storage_recovery".to_string(),
                params: vec![
                    ("history".to_string(), h as f64),
                    ("segment_bytes".to_string(), SEGMENT_BYTES as f64),
                    ("n_signals".to_string(), n_signals as f64),
                    ("samples_per_signal".to_string(), m as f64),
                ],
                avg_encode_secs: 0.0,
                avg_sse: 0.0,
                total_rel: 0.0,
                transmissions: h,
                inserted: Vec::new(),
                metrics: None,
                search: None,
                get_base: None,
                recovery: None,
                query: None,
                storage: None,
            }
            .with_storage(stats),
        );
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
            // A fresh recorder per configuration: each record's snapshot
            // describes exactly one (n, ratio) run.
            let rec = Arc::new(MetricsRecorder::new());
            let config = SbrConfig::new(band as usize, 1024).with_recorder(rec.clone());
            let stream = run_sbr_stream(&files, config);
            col.push(stream.avg_encode_time().as_secs_f64());
            records.push(
                BenchRecord::from_stream(
                    "fig5",
                    &[
                        ("n", (10 * m) as f64),
                        ("total_band", band.floor()),
                        ("ratio", ratio),
                    ],
                    &stream,
                )
                .with_metrics(rec.snapshot()),
            );
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
    // Canonical artifact at the workspace root (what ROADMAP/ci.sh
    // promise), plus the schema-versioned copy archived under results/.
    sbr_bench::write_bench_json("BENCH_SBR.json", &records).expect("write BENCH_SBR.json");
    std::fs::create_dir_all("results").expect("create results/");
    sbr_bench::write_bench_json("results/BENCH_SBR_v3.json", &records)
        .expect("write results/BENCH_SBR_v3.json");
}
