//! Ablations of SBR's design choices (beyond the paper's tables):
//!
//! 1. the linear-regression **fall-back** on/off (§5.1.2 argues it is the
//!    robustness net),
//! 2. **freezing the base** after the first transmission (the §4.4
//!    shortcut for constrained nodes),
//! 3. **histogram bucketing policies** (the paper uses equi-depth),
//! 4. **wavelet budget allocation**: concatenated vs. per-signal (the
//!    paper reports concatenation up to 5× better), and the **2-D Haar**
//!    decomposition the paper tried and rejected,
//! 5. **stronger histogram**: v-optimal (greedy merge) vs. the paper's
//!    equi-depth,
//! 6. **non-linear encodings** (the §6 future-work direction): piecewise
//!    quadratic vs. piecewise linear regression at equal bandwidth,
//! 7. **Search strategy**: Algorithm 7's binary search (assumes a unimodal
//!    error curve) vs. exhaustive probing of every insertion count.
//!
//! Run with `--quick` (recommended) for a 4×-smaller pass.

use sbr_baselines::histogram::{Bucketing, HistogramCompressor};
use sbr_baselines::linreg::LinRegCompressor;
use sbr_baselines::quadreg::QuadRegCompressor;
use sbr_baselines::v_optimal::VOptimalCompressor;
use sbr_baselines::wavelet::WaveletCompressor;
use sbr_baselines::wavelet2d::Wavelet2dCompressor;
use sbr_baselines::Allocation;
use sbr_bench::{fmt, quick_mode, row, run_baseline_stream, run_sbr_stream};
use sbr_core::{SbrConfig, SbrEncoder};

fn main() {
    let quick = quick_mode();
    let setup = sbr_bench::mixed_setup(quick);
    let band = setup.n() / 10;
    let cfg = SbrConfig::new(band, setup.m_base);

    println!("=== Ablations (Mixed dataset, 10% ratio, avg SSE per transmission) ===\n");

    // 1. Fall-back.
    let with_fb = run_sbr_stream(&setup.files, cfg.clone());
    let without_fb = run_sbr_stream(&setup.files, cfg.clone().without_fallback());
    println!(
        "{}",
        row(
            "fallback",
            &[fmt(with_fb.avg_sse()), fmt(without_fb.avg_sse())]
        )
    );
    println!("{:<12}{:>14}{:>14}\n", "", "(on)", "(off)");

    // 2. Frozen base after the first transmission.
    let frozen = run_frozen_after_first(&setup.files, cfg.clone());
    println!(
        "{}",
        row("base-update", &[fmt(with_fb.avg_sse()), fmt(frozen)])
    );
    println!("{:<12}{:>14}{:>14}\n", "", "(every tx)", "(frozen@1)");

    // 3. Histogram policies.
    let policies = [
        Bucketing::EquiDepth,
        Bucketing::EquiWidth,
        Bucketing::MaxDiff,
    ];
    let cells: Vec<String> = policies
        .iter()
        .map(|&policy| {
            let h = HistogramCompressor {
                policy,
                allocation: Allocation::PerSignal,
            };
            fmt(run_baseline_stream(&setup.files, &h, band).avg_sse())
        })
        .collect();
    println!("{}", row("histograms", &cells));
    println!(
        "{:<12}{:>14}{:>14}{:>14}\n",
        "", "(equi-depth)", "(equi-width)", "(max-diff)"
    );

    // 4. Wavelet allocation + dimensionality.
    let mut cells: Vec<String> = [Allocation::Concatenated, Allocation::PerSignal]
        .iter()
        .map(|&allocation| {
            let w = WaveletCompressor { allocation };
            fmt(run_baseline_stream(&setup.files, &w, band).avg_sse())
        })
        .collect();
    cells.push(fmt(run_baseline_stream(
        &setup.files,
        &Wavelet2dCompressor,
        band,
    )
    .avg_sse()));
    println!("{}", row("wavelets", &cells));
    println!(
        "{:<12}{:>14}{:>14}{:>14}\n",
        "", "(concat)", "(per-signal)", "(2-D)"
    );

    // 5. V-optimal vs equi-depth histograms.
    let cells = vec![
        fmt(run_baseline_stream(&setup.files, &HistogramCompressor::default(), band).avg_sse()),
        fmt(run_baseline_stream(&setup.files, &VOptimalCompressor, band).avg_sse()),
    ];
    println!("{}", row("hist-quality", &cells));
    println!("{:<12}{:>14}{:>14}\n", "", "(equi-depth)", "(v-optimal)");

    // 7. Binary vs exhaustive insertion search.
    let mut cfg_ex = cfg.clone();
    cfg_ex.exhaustive_search = true;
    let exhaustive = run_sbr_stream(&setup.files, cfg_ex);
    println!(
        "{}",
        row(
            "search",
            &[fmt(with_fb.avg_sse()), fmt(exhaustive.avg_sse())]
        )
    );
    println!("{:<12}{:>14}{:>14}\n", "", "(binary)", "(exhaustive)");

    // 6. Non-linear encodings: quadratic vs linear piecewise regression.
    let cells = vec![
        fmt(run_baseline_stream(&setup.files, &LinRegCompressor::default(), band).avg_sse()),
        fmt(run_baseline_stream(&setup.files, &QuadRegCompressor, band).avg_sse()),
    ];
    println!("{}", row("encoding", &cells));
    println!("{:<12}{:>14}{:>14}", "", "(linear)", "(quadratic)");
}

/// Stream with base updates allowed only on the first transmission.
fn run_frozen_after_first(files: &[Vec<Vec<f64>>], cfg: SbrConfig) -> f64 {
    use sbr_core::{Decoder, ErrorMetric};
    let n = files[0].len();
    let m = files[0][0].len();
    let mut enc = SbrEncoder::new(n, m, cfg).expect("valid config");
    let mut dec = Decoder::new();
    let mut total = 0.0;
    for (t, rows) in files.iter().enumerate() {
        if t == 1 {
            enc.set_update_base(false);
        }
        let tx = enc.encode(rows).expect("encode");
        let rec = dec.decode(&tx).expect("decode");
        for (orig, r) in rows.iter().zip(&rec) {
            total += ErrorMetric::Sse.score(orig, r);
        }
    }
    total / files.len() as f64
}
