//! Property-based tests (proptest) over the core invariants.

mod common;

use proptest::prelude::*;

use sbr_repro::baselines::{dct, fourier, histogram, swing, v_optimal, wavelet, wavelet2d};
use sbr_repro::core::best_map::{MapContext, SweepRegion};
use sbr_repro::core::get_intervals::FitOracle as _;
use sbr_repro::core::interval::IntervalRecord;
use sbr_repro::core::quadratic;
use sbr_repro::core::transmission::{BaseUpdate, Frame, Transmission};
use sbr_repro::core::{
    codec, regression, ChunkSummary, Decoder, ErrorMetric, Interval, MultiSeries, SbrConfig,
    SbrEncoder, SbrError,
};
use sbr_repro::datasets::schedule::{align, expand, thin, Fill, ScheduledSignal};
use sbr_repro::obs::{MetricsRecorder, Recorder as _};
use sbr_repro::sensor_net::{BaseStation, FaultPlan, Receipt, SensorNode};

/// One end-to-end ARQ round for the chaos property: push every pending
/// frame through the fault channel, hand arrivals to the station, apply
/// the cumulative ACK. Only protocol-level rejections are tolerated.
fn fault_round(
    node: &mut SensorNode,
    station: &BaseStation,
    plan: &mut FaultPlan,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let pending: Vec<bytes::Bytes> = node.pending().map(|p| p.bytes.clone()).collect();
    for bytes in pending {
        for arrival in plan.channel(&bytes) {
            match station.receive_frame(1, arrival) {
                Ok(_) => {}
                Err(sbr_repro::core::SbrError::Gap { .. })
                | Err(sbr_repro::core::SbrError::Corrupt(_)) => {}
                Err(e) => {
                    return Err(proptest::test_runner::TestCaseError::fail(format!(
                        "unexpected station error: {e}"
                    )))
                }
            }
        }
    }
    node.ack(station.epoch(1), station.next_seq(1));
    Ok(())
}

/// Bitwise CRC-32 (IEEE, reflected 0xEDB88320) register update, one
/// shift per bit and no tables: the reference for `codec::crc32`. Start
/// from `!0` and invert the final register.
fn reference_crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c
}

fn finite_signal(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

/// `(m, e)` pairs drawn as `m` in `-1..1` and `e` in `-6..=6`; see
/// [`mixed_with_flats`].
fn mantissas_exponents(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(f64, i32)>> {
    prop::collection::vec((-1f64..1.0, -6i32..7), len)
}

/// The values `m·10^e`, so neighbours differ by up to twelve orders of
/// magnitude, with each `(at, run)` stretch then set to the value at `at`.
fn mixed_with_flats(me: Vec<(f64, i32)>, flats: &[(usize, usize)]) -> Vec<f64> {
    let mut v: Vec<f64> = me.into_iter().map(|(m, e)| m * 10f64.powi(e)).collect();
    for &(at, run) in flats {
        let at = at % v.len();
        let end = (at + run).min(v.len());
        let value = v[at];
        v[at..end].fill(value);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- regression ----------------

    /// OLS optimality: no perturbation of (a, b) improves the SSE.
    #[test]
    fn ols_is_a_local_minimum(
        y in finite_signal(64),
        x in finite_signal(64),
        da in -1.0f64..1.0,
        db in -1.0f64..1.0,
    ) {
        let len = x.len().min(y.len());
        let (x, y) = (&x[..len], &y[..len]);
        let f = regression::fit_sse(x, y);
        prop_assume!(f.err.is_finite());
        let perturbed = regression::eval(ErrorMetric::Sse, f.a + da, f.b + db, x, y);
        prop_assert!(f.err <= perturbed + 1e-6 * (1.0 + perturbed.abs()));
    }

    /// The reported fit error always matches direct evaluation.
    #[test]
    fn fit_error_matches_eval(
        y in finite_signal(48),
        x in finite_signal(48),
    ) {
        let len = x.len().min(y.len());
        let (x, y) = (&x[..len], &y[..len]);
        // Tolerance scales with the magnitudes flowing through the closed
        // form (Σy², a²Σx² can reach ~1e12 here).
        for metric in [ErrorMetric::Sse, ErrorMetric::relative(), ErrorMetric::MaxAbs] {
            let f = regression::fit(metric, x, y);
            let direct = regression::eval(metric, f.a, f.b, x, y);
            let scale: f64 = y.iter().map(|v| v * v).sum::<f64>()
                + f.a * f.a * x.iter().map(|v| v * v).sum::<f64>();
            prop_assert!(
                (f.err - direct).abs() <= 1e-9 * (1.0 + direct.abs() + scale),
                "{metric:?}: {} vs {direct}", f.err
            );
        }
    }

    /// Chebyshev optimality: the minimax fit never loses to OLS under the
    /// max-abs metric.
    #[test]
    fn chebyshev_beats_ols_on_max_metric(
        y in finite_signal(48),
        x in finite_signal(48),
    ) {
        let len = x.len().min(y.len());
        let (x, y) = (&x[..len], &y[..len]);
        let cheb = regression::fit_maxabs(x, y);
        let ols = regression::fit_sse(x, y);
        prop_assume!(ols.a.is_finite() && ols.b.is_finite());
        let ols_max = regression::eval(ErrorMetric::MaxAbs, ols.a, ols.b, x, y);
        prop_assert!(cheb.err <= ols_max + 1e-6 * (1.0 + ols_max));
    }

    // ---------------- transforms ----------------

    /// Haar roundtrips exactly at any length.
    #[test]
    fn haar_roundtrip(y in finite_signal(300)) {
        let back = wavelet::inverse(&wavelet::forward(&y));
        prop_assert_eq!(back.len(), y.len());
        for (a, b) in y.iter().zip(&back) {
            prop_assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()));
        }
    }

    /// DCT roundtrips exactly at any length (Bluestein path included).
    #[test]
    fn dct_roundtrip(y in finite_signal(200)) {
        let back = dct::inverse(&dct::forward(&y));
        for (a, b) in y.iter().zip(&back) {
            prop_assert!((a - b).abs() <= 1e-5 * (1.0 + a.abs()));
        }
    }

    /// Keeping all independent Fourier bins reconstructs the signal.
    #[test]
    fn fourier_full_budget_roundtrip(y in finite_signal(120)) {
        let rec = fourier::approximate(&y, y.len() / 2 + 1);
        for (a, b) in y.iter().zip(&rec) {
            prop_assert!((a - b).abs() <= 1e-5 * (1.0 + a.abs()));
        }
    }

    /// Histogram buckets always partition [0, n).
    #[test]
    fn histogram_partitions(
        y in finite_signal(200),
        k in 1usize..40,
    ) {
        for policy in [
            histogram::Bucketing::EquiDepth,
            histogram::Bucketing::EquiWidth,
            histogram::Bucketing::MaxDiff,
        ] {
            let bs = histogram::build(&y, k, policy);
            prop_assert!(!bs.is_empty());
            prop_assert!(bs.len() <= k);
            prop_assert_eq!(bs[0].start, 0);
            prop_assert_eq!(bs.last().unwrap().end, y.len());
            for w in bs.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    // ---------------- wire codec ----------------

    /// The codec roundtrips arbitrary well-formed transmissions.
    #[test]
    fn codec_roundtrip(
        seq in 0u64..1_000_000,
        w in 1u32..16,
        n_updates in 0usize..4,
        intervals in prop::collection::vec(
            (0u64..10_000, -1i64..500, -1e9f64..1e9, -1e9f64..1e9),
            1..20
        ),
    ) {
        let tx = Transmission {
            seq,
            n_signals: 3,
            samples_per_signal: 100,
            w,
            base_updates: (0..n_updates)
                .map(|s| BaseUpdate {
                    slot: s as u64,
                    values: (0..w).map(|i| i as f64 * 0.5 - s as f64).collect(),
                })
                .collect(),
            intervals: intervals
                .iter()
                .map(|&(start, shift, a, b)| IntervalRecord { start, shift, a, b })
                .collect(),
        };
        let frame = Frame::data(0, tx);
        let bytes = codec::encode_v2(&frame);
        prop_assert_eq!(bytes.len(), codec::encoded_len_v2(&frame));
        let back = codec::decode_exact(&bytes).unwrap();
        prop_assert_eq!(back, frame);
    }

    /// The slicing-by-8 CRC-32 equals a bitwise reference on random
    /// bytes: the whole buffer, and both sides of a random split point
    /// (so the suffix starts at any phase of an 8-byte word), with the
    /// reference carried across the split.
    #[test]
    fn crc32_matches_bitwise_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
        split in any::<usize>(),
    ) {
        let cut = split % (bytes.len() + 1);
        let (head, tail) = bytes.split_at(cut);
        let carried = reference_crc32_update(reference_crc32_update(!0, head), tail);
        prop_assert_eq!(codec::crc32(&bytes), !carried);
        prop_assert_eq!(codec::crc32(head), !reference_crc32_update(!0, head));
        prop_assert_eq!(codec::crc32(tail), !reference_crc32_update(!0, tail));
    }

    // ---------------- encoder invariants ----------------

    /// Whatever the data, the transmission respects the budget and decodes
    /// to the reported error.
    #[test]
    fn encoder_budget_and_error_invariants(
        rows in prop::collection::vec(
            prop::collection::vec(-1e3f64..1e3, 64),
            1..4
        ),
        band_factor in 2usize..8,
    ) {
        let n = rows.len();
        let band = (n * 64 / 10).max(4 * n) * band_factor / 2;
        let cfg = SbrConfig::new(band, 64);
        let mut enc = SbrEncoder::new(n, 64, cfg).unwrap();
        let tx = enc.encode(&rows).unwrap();
        prop_assert!(tx.cost() <= band);
        let rec = Decoder::new().decode(&tx).unwrap();
        let mut sse = 0.0;
        for (o, r) in rows.iter().zip(&rec) {
            prop_assert_eq!(o.len(), r.len());
            sse += ErrorMetric::Sse.score(o, r);
        }
        let reported = enc.last_stats().unwrap().total_err;
        prop_assert!((sse - reported).abs() <= 1e-5 * (1.0 + sse.abs()));
    }

    /// The base signal buffer never exceeds M_base, across a stream of
    /// differing batches.
    #[test]
    fn base_buffer_never_overflows(seed in 0u64..500) {
        let m_base = 48;
        let cfg = SbrConfig::new(96, m_base);
        let mut enc = SbrEncoder::new(2, 64, cfg).unwrap();
        for t in 0..4u64 {
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|r| {
                    (0..64)
                        .map(|i| {
                            let x = (i as u64 + seed * 31 + t * 7 + r * 3) as f64;
                            (x * 0.37).sin() * 5.0 + (x * 0.011).cos() * 2.0
                        })
                        .collect()
                })
                .collect();
            enc.encode(&rows).unwrap();
            prop_assert!(enc.base().len() <= m_base);
        }
    }

    /// MultiSeries flattening/rows are mutually consistent.
    #[test]
    fn multiseries_round(rows in prop::collection::vec(
        prop::collection::vec(-1e6f64..1e6, 8),
        1..5
    )) {
        let ms = MultiSeries::from_rows(&rows).unwrap();
        prop_assert_eq!(ms.len(), rows.len() * 8);
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(ms.row(i), r.as_slice());
        }
        let rebuilt = MultiSeries::from_flat(ms.flat().to_vec(), rows.len(), 8).unwrap();
        prop_assert_eq!(rebuilt, ms);
    }

    // ---------------- extensions ----------------

    /// 2-D Haar roundtrips at any matrix shape.
    #[test]
    fn wavelet2d_roundtrip(
        rows in 1usize..6,
        cols in 1usize..40,
        seed in 0u64..1000,
    ) {
        let m = wavelet2d::Matrix {
            rows,
            cols,
            data: (0..rows * cols)
                .map(|i| (((i as u64 + seed) * 2654435761 % 1000) as f64) * 0.1 - 50.0)
                .collect(),
        };
        let back = wavelet2d::inverse(&wavelet2d::forward(&m));
        for (a, b) in m.data.iter().zip(&back.data) {
            prop_assert!((a - b).abs() <= 1e-8 * (1.0 + a.abs()));
        }
    }

    /// The quadratic fit never loses to the linear fit on SSE.
    #[test]
    fn quadratic_dominates_linear(
        y in finite_signal(48),
        x in finite_signal(48),
    ) {
        let len = x.len().min(y.len());
        let (x, y) = (&x[..len], &y[..len]);
        let quad = quadratic::fit_quadratic(x, y);
        let lin = regression::fit_sse(x, y);
        let scale = y.iter().map(|v| v * v).sum::<f64>().max(1.0);
        prop_assert!(quad.err <= lin.err + 1e-7 * scale);
    }

    /// Greedy v-optimal never loses to the equi-width partition at equal k.
    #[test]
    fn voptimal_greedy_beats_equiwidth(
        y in finite_signal(150),
        k in 1usize..20,
    ) {
        let g = v_optimal::build_greedy(&y, k);
        let rec_g = histogram::reconstruct(&g, y.len());
        let e = histogram::approximate(&y, k, histogram::Bucketing::EquiWidth);
        let sse = |rec: &[f64]| -> f64 {
            y.iter().zip(rec).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        // Greedy merging from singletons explores strictly more partitions
        // than the fixed equal split, but is itself heuristic, so allow a
        // small slack.
        let scale = y.iter().map(|v| v * v).sum::<f64>().max(1.0);
        prop_assert!(sse(&rec_g) <= sse(&e) * 1.5 + 1e-9 * scale);
    }

    /// Exact v-optimal lower-bounds the greedy variant.
    #[test]
    fn voptimal_exact_lower_bounds_greedy(
        y in finite_signal(40),
        k in 1usize..8,
    ) {
        let exact = v_optimal::build_exact(&y, k);
        let greedy = v_optimal::build_greedy(&y, k);
        let sse = |b: &[histogram::Bucket]| -> f64 {
            let rec = histogram::reconstruct(b, y.len());
            y.iter().zip(&rec).map(|(a, r)| (a - r) * (a - r)).sum()
        };
        let scale = y.iter().map(|v| v * v).sum::<f64>().max(1.0);
        prop_assert!(sse(&exact) <= sse(&greedy) + 1e-7 * scale);
    }

    /// Hold expansion followed by thinning recovers the schedule exactly.
    #[test]
    fn schedule_expand_thin_roundtrip(
        values in prop::collection::vec(-1e6f64..1e6, 1..30),
        period in 1usize..8,
    ) {
        let s = ScheduledSignal::new(values.clone(), period);
        let e = expand(&s, values.len() * period, Fill::Hold);
        prop_assert_eq!(thin(&e, period), values);
    }

    /// Aligned rows always form a rectangular matrix on the common clock.
    #[test]
    fn schedule_align_is_rectangular(
        lens in prop::collection::vec(1usize..20, 1..4),
        periods in prop::collection::vec(1usize..5, 1..4),
    ) {
        let k = lens.len().min(periods.len());
        let signals: Vec<ScheduledSignal> = (0..k)
            .map(|i| {
                ScheduledSignal::new(
                    (0..lens[i]).map(|j| (i * 31 + j) as f64).collect(),
                    periods[i],
                )
            })
            .collect();
        let (rows, m) = align(&signals, Fill::Linear);
        prop_assert_eq!(rows.len(), k);
        for r in &rows {
            prop_assert_eq!(r.len(), m);
        }
        let min_ticks = signals.iter().map(ScheduledSignal::ticks).min().unwrap();
        prop_assert_eq!(m, min_ticks);
    }

    /// ChunkSummary aggregates always agree with reconstruct-then-scan:
    /// min/max bit for bit (DESIGN §3c), sums within 1e-9.
    #[test]
    fn chunk_summary_matches_reconstruction(
        rows in prop::collection::vec(
            prop::collection::vec(-1e4f64..1e4, 64),
            1..3
        ),
        t0 in 0usize..63,
        span in 1usize..64,
    ) {
        let n = rows.len();
        let band = (64 * n / 4).max(4 * n + 20);
        let mut enc = SbrEncoder::new(n, 64, SbrConfig::new(band, 48)).unwrap();
        let tx = enc.encode(&rows).unwrap();
        let mut base = Vec::new();
        for u in &tx.base_updates {
            base.extend_from_slice(&u.values);
        }
        let total = 64 * n;
        let rec = sbr_repro::core::get_intervals::reconstruct_flat(&base, &tx.intervals, total)
            .unwrap();
        let summary = ChunkSummary::new(&tx.intervals, base, n, 64).unwrap();
        let t1 = (t0 + span).min(total);
        let t0 = t0.min(t1 - 1);
        let direct: f64 = rec[t0..t1].iter().sum();
        let (fast, lo, hi, _) = summary.range_moments(t0, t1).unwrap();
        let scale = rec[t0..t1].iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        prop_assert!((direct - fast).abs() <= 1e-9 * scale, "{fast} vs {direct}");
        let dlo = rec[t0..t1].iter().copied().fold(f64::INFINITY, f64::min);
        let dhi = rec[t0..t1].iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo.to_bits() == dlo.to_bits(), "min {lo} vs {dlo}");
        prop_assert!(hi.to_bits() == dhi.to_bits(), "max {hi} vs {dhi}");
    }

    /// Arbitrary bytes never panic the codec — they error or (by fluke)
    /// parse.
    #[test]
    fn codec_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = codec::decode_exact(&bytes);
    }

    /// Garbage *after* a valid magic still never panics. The second input
    /// is a coherent v2 frame (small arbitrary header, exactly the payload
    /// words it declares, a correct CRC-32) so it gets past the checksum
    /// to the body checks: the decoder and the station either take it or
    /// reject it with a typed error that leaves the station untouched.
    #[test]
    fn codec_never_panics_on_framed_garbage(
        body in prop::collection::vec(any::<u8>(), 0..200),
        kind in 0u8..3,
        epoch in (any::<bool>(), any::<u32>()),
        seq in (any::<bool>(), any::<u64>()),
        shape in prop::collection::vec(1u32..5, 3usize),
        counts in prop::collection::vec(0u32..5, 3usize),
        words in prop::collection::vec((0u8..3, 0u64..8, any::<u64>(), -1e3f64..1e3), 64usize),
    ) {
        let mut frame = Vec::new();
        frame.extend(codec::MAGIC_V2.to_le_bytes());
        frame.extend(&body);
        let _ = codec::decode_exact(&frame);

        // Zero epoch and seq half the time: what a fresh station expects.
        let epoch = if epoch.0 { 0 } else { epoch.1 };
        let seq = if seq.0 { 0 } else { seq.1 };
        let (w, ns, nu, ni) = (shape[2], counts[0], counts[1], counts[2]);
        let mut frame = Vec::new();
        frame.extend(codec::MAGIC_V2.to_le_bytes());
        frame.push(kind);
        frame.extend(epoch.to_le_bytes());
        frame.extend(seq.to_le_bytes());
        for d in shape.iter().chain(&counts) {
            frame.extend(d.to_le_bytes());
        }
        // Each payload word is a small integer (a plausible slot, start or
        // shift), raw bits, or a plausible sample value.
        let n_words = (ns * w + nu * (1 + w) + ni * 4) as usize;
        for &(pick, small, raw, value) in &words[..n_words] {
            let word = match pick {
                0 => small,
                1 => raw,
                _ => value.to_bits(),
            };
            frame.extend(word.to_le_bytes());
        }
        frame.extend(codec::crc32(&frame).to_le_bytes());
        let _ = codec::decode_exact(&frame);
        let station = BaseStation::new();
        let before = (station.chunk_count(1), station.next_seq(1));
        if station.receive_frame(1, frame.into()).is_err() {
            prop_assert_eq!((station.chunk_count(1), station.next_seq(1)), before);
        }
    }

    /// A genuine frame followed by any bytes is refused with a typed
    /// `Corrupt` before the station logs anything, and the same frame on
    /// its own is then accepted.
    #[test]
    fn station_refuses_a_frame_with_trailing_bytes(
        trailing in prop::collection::vec(any::<u8>(), 1..64),
        phase in 0usize..16,
    ) {
        let mut enc = SbrEncoder::new(2, 32, SbrConfig::new(40, 32)).unwrap();
        let rows: Vec<Vec<f64>> = (0..2)
            .map(|r| (0..32).map(|i| ((i + phase * 5 + r) as f64 * 0.3).sin()).collect())
            .collect();
        let frame = codec::encode_v2(&Frame::data(0, enc.encode(&rows).unwrap()));
        let mut padded = frame.to_vec();
        padded.extend_from_slice(&trailing);
        let station = BaseStation::new();
        let got = station.receive_frame(1, padded.into());
        prop_assert!(matches!(got, Err(SbrError::Corrupt(_))), "{:?}", got);
        prop_assert_eq!((station.chunk_count(1), station.next_seq(1)), (0, 0));
        prop_assert_eq!(station.receive_frame(1, frame), Ok(Receipt::Accepted));
    }

    // ---------------- BestMap blocked sweep ----------------

    /// `BestMap`'s blocked whole-dictionary sweep on long windows (the
    /// shape that once took an FFT path) selects the identical shift and
    /// bit-identical coefficients as the reference encoder's one-shift-at-
    /// a-time sweep — including a constant base signal (every shift ties;
    /// the earliest must win on both).
    #[test]
    fn best_map_fft_strategy_identical_to_direct(
        x in prop::collection::vec(-1e6f64..1e6, 512..513),
        y in prop::collection::vec(-1e6f64..1e6, 64..257),
        make_x_constant in any::<bool>(),
    ) {
        // |X| = 512 and W = 128 keep every 64..=256-sample window
        // shiftable, over 257..=449 shifts.
        let x = if make_x_constant { vec![7.5; x.len()] } else { x };
        let w = 128;
        let rec = std::sync::Arc::new(MetricsRecorder::new());
        let config = SbrConfig::new(1_000_000, 1_000_000)
            .with_w(w)
            .with_recorder(rec.clone());
        let mut got = Interval::unfitted(0, y.len());
        MapContext::new(&x, &y, &config, w).best_map(&mut got);
        prop_assert_eq!(rec.snapshot().counter("sbr_core.best_map.direct_sweeps"), Some(1));
        let mut want = Interval::unfitted(0, y.len());
        common::DirectOracle::new(&x, &y, &config, w).fit(&mut want);
        prop_assert_eq!(want.shift, got.shift);
        prop_assert_eq!(want.a.to_bits(), got.a.to_bits());
        prop_assert_eq!(want.b.to_bits(), got.b.to_bits());
        prop_assert_eq!(want.err.to_bits(), got.err.to_bits());
    }

    /// The SSE sweep kernel (per-length window table, error-first blocks
    /// of `xcorr::DOT_BLOCK` shifts, the last block cut at the sweep's end)
    /// picks the reference's shift and `(a, b, err)` bits, for every
    /// window length `1..=2W`, over dictionaries and data that mix
    /// magnitudes from 1e-6 to 1e6 and hold constant stretches (flat
    /// windows; every 1-long window is flat too). `best_map` sweeps the
    /// whole dictionary; `fold_region` folds `lo..=hi` spans of any width
    /// into a seed, as the probe cache does.
    #[test]
    fn sweep_kernel_matches_the_reference_bit_for_bit(
        x in mantissas_exponents(150..190),
        x_flat in prop::collection::vec((0usize..190, 2usize..48), 1..4),
        y in mantissas_exponents(48..80),
        y_flat in prop::collection::vec((0usize..80, 2usize..24), 0..3),
        spans in prop::collection::vec((any::<u32>(), any::<u32>()), 4),
        fallback in any::<bool>(),
    ) {
        let (x, y) = (mixed_with_flats(x, &x_flat), mixed_with_flats(y, &y_flat));
        let w = 16;
        let mut config = SbrConfig::new(1_000_000, 1_000_000).with_w(w);
        config.allow_linear_fallback = fallback;
        let ctx = MapContext::new(&x, &y, &config, w);
        let reference = common::DirectOracle::new(&x, &y, &config, w);
        let bits = |iv: &Interval| (iv.shift, iv.a.to_bits(), iv.b.to_bits(), iv.err.to_bits());
        for len in 1..=2 * w {
            let start = (len * 7) % (y.len() - len + 1);
            let mut got = Interval::unfitted(start, len);
            ctx.best_map(&mut got);
            let mut want = Interval::unfitted(start, len);
            reference.fit(&mut want);
            prop_assert!(bits(&want) == bits(&got), "best_map len {len}: {want:?} != {got:?}");

            let last = x.len() - len;
            for &(a, b) in &spans {
                let lo = a as usize % (last + 1);
                let hi = lo + b as usize % (last + 1 - lo);
                let mut got = Interval::unfitted(start, len);
                ctx.fallback_fit(&mut got);
                let mut want = got;
                ctx.fold_region(&mut got, lo, hi, SweepRegion::Candidate);
                reference.fold(&mut want, lo, hi);
                prop_assert!(
                    bits(&want) == bits(&got),
                    "fold len {len} over {lo}..={hi}: {want:?} != {got:?}"
                );
            }
        }
    }

    /// The swing filter's ε-guarantee holds on arbitrary finite data.
    #[test]
    fn swing_error_bound_universal(
        y in finite_signal(200),
        eps_factor in 0.01f64..1.0,
    ) {
        let span = y.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - y.iter().copied().fold(f64::INFINITY, f64::min);
        let eps = span * eps_factor + 1e-9;
        let knots = swing::compress(&y, eps);
        let rec = swing::reconstruct(&knots, y.len());
        for (a, b) in y.iter().zip(&rec) {
            prop_assert!((a - b).abs() <= eps * (1.0 + 1e-9) + 1e-9 * a.abs());
        }
        // Knots are strictly increasing in index and start at 0.
        prop_assert_eq!(knots[0].index, 0);
        for w in knots.windows(2) {
            prop_assert!(w[0].index < w[1].index);
        }
    }

    // ---------------- loss-tolerant wire protocol ----------------

    /// Graceful-degradation contract: under an arbitrary seeded fault
    /// schedule (drops, duplicates, reordering, bit corruption, an
    /// optional crash), every chunk the station logs reconstructs
    /// bit-for-bit equal to the encoder-side ground truth. Chunks may be
    /// lost — surfaced as explicit gaps and resyncs — but the log never
    /// contains silently wrong values.
    #[test]
    fn chaos_schedules_never_yield_silent_wrong_values(
        seed in any::<u64>(),
        drop in 0.0f64..0.6,
        dup in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
        corrupt in 0.0f64..0.3,
        crash_sel in 0u64..9,
        retx_cap in 1usize..6,
    ) {
        // crash_sel ∈ [0, 6) schedules a crash after that chunk; the rest
        // of the range means no crash (the shim has no Option strategy).
        let crash_after = (crash_sel < 6).then_some(crash_sel);
        let mut node = SensorNode::new(1, 2, 32, SbrConfig::new(40, 24)).unwrap();
        node.enable_arq(retx_cap);
        let mut plan = FaultPlan::new(seed)
            .with_drop(drop)
            .with_dup(dup)
            .with_reorder(reorder)
            .with_corrupt(corrupt);
        let station = BaseStation::new();
        let mut mirror = Decoder::new();
        let mut truth = std::collections::HashMap::new();
        for c in 0u64..8 {
            for i in 0..32 {
                let t = (c * 32 + i) as f64;
                if let Some(flush) = node
                    .record(&[(t * 0.31).sin() * 6.0, (t * 0.17).cos() * 3.0 + (i % 3) as f64])
                    .unwrap()
                {
                    let parsed = codec::decode_exact(&flush.frame).unwrap();
                    truth.insert(
                        (flush.epoch, flush.transmission.seq),
                        mirror.decode_frame(&parsed).unwrap(),
                    );
                }
            }
            fault_round(&mut node, &station, &mut plan)?;
            if crash_after == Some(c) {
                node.reboot().unwrap();
            }
        }
        for _ in 0..64 {
            if node.pending_depth() == 0 {
                break;
            }
            fault_round(&mut node, &station, &mut plan)?;
        }
        for leftover in plan.drain() {
            let _ = station.receive_frame(1, leftover);
        }
        let n = station.chunk_count(1);
        if n > 0 {
            let frames = station.frames(1).unwrap();
            let chunks = station.reconstruct_chunks(1, 0, n).unwrap();
            for (frame, chunk) in frames.iter().zip(&chunks) {
                let want = truth
                    .get(&(frame.epoch, frame.tx.seq))
                    .expect("the station cannot invent frames");
                prop_assert!(
                    chunk == want,
                    "epoch {} seq {} diverged",
                    frame.epoch,
                    frame.tx.seq
                );
            }
        }
    }
}
