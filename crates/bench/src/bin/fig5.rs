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
//! Besides the table, `BENCH_SBR.json` (schema `sbr-bench/v4`, see the
//! README) gets one `fig5` record per (n, ratio) cell: one row per
//! histogram of the run's recorder (per-phase times, cache traffic) plus
//! every counter, so tooling can diff *why* a cell got slower. The perf
//! gate in `scripts/ci.sh` runs `sbr perf diff` over paired `--quick` runs
//! of the parent commit and the working tree; no baseline is committed.

use std::sync::Arc;

use sbr_bench::{quick_mode, row, run_sbr_stream, RATIOS};
use sbr_core::SbrConfig;
use sbr_obs::bench::{self, BenchRecord};
use sbr_obs::{MetricsRecorder, Recorder};

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
    std::fs::write("BENCH_SBR.json", bench::to_json(&records)).expect("write BENCH_SBR.json");
    println!("wrote {} record(s) to BENCH_SBR.json", records.len());
}
