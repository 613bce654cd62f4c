//! A straight-line reference SBR encoder, used as the oracle for the
//! product encoder.
//!
//! It implements the paper's Algorithms 2 (`BestMap`), 4 (`GetBase`),
//! 5 (the `SBR` driver), 6 (`CalculateError`) and 7 (`Search`) as written:
//! direct shift sweeps, a full `K×K` error matrix, one fresh
//! `GetIntervals` per search probe — no caches, no threads.
//! Algorithm 3's splitting loop is shared with the product through
//! [`get_intervals_with`], fed by the direct-sweep [`DirectOracle`].
//!
//! The product's probe cache, fit cache and blocked sweep are
//! evaluation-order optimizations only, so every encoder
//! configuration must emit transmissions byte-identical to this one.
//!
//! It also holds [`direct_delivery`], the oracle for the network's ARQ
//! delivery path: sensors without ARQ whose every flush goes straight to
//! the station, and [`reference_aggregate`], the decode-then-scan oracle
//! for the compressed-domain query engine.
//!
//! The only shared numeric kernels are the ones that define the fit:
//! `regression::fit`/`fit_sse_with_stats` over `PrefixStats` window sums
//! and `xcorr::dot`.

#![allow(dead_code)]

use std::sync::atomic::{AtomicU64, Ordering};

use sbr_repro::core::best_map::MAX_SHIFT_LEN_FACTOR;
use sbr_repro::core::get_intervals::{get_intervals_with, Approximation, FitOracle};
use sbr_repro::core::interval::LINEAR_FALLBACK_SHIFT;
use sbr_repro::core::regression::{self, PrefixStats};
use sbr_repro::core::{
    codec, xcorr, BaseSignal, BaseUpdate, Decoder, EncodeObs, ErrorMetric, Frame, Interval,
    IntervalRecord, MultiSeries, RangeAggregate, SbrConfig, SbrEncoder, SbrError, Transmission,
};
use sbr_repro::obs::Snapshot;
use sbr_repro::sensor_net::{BaseStation, Receipt, SensorNode};

/// Algorithm 2 against one concrete dictionary `x`: the linear fall-back
/// (when enabled, or when no base segment is admissible) followed by a
/// direct sweep of every admissible shift, earliest shift winning ties.
pub struct DirectOracle<'a> {
    x: &'a [f64],
    x_stats: PrefixStats,
    y: &'a [f64],
    y_stats: PrefixStats,
    metric: ErrorMetric,
    allow_fallback: bool,
    max_shift_len: usize,
    /// Shift sweeps run so far (one per shiftable fit).
    sweeps: AtomicU64,
}

impl<'a> DirectOracle<'a> {
    /// An oracle fitting windows of `y` (the concatenated batch) against
    /// `x`, with the fall-back and shift-length rules of `config`.
    pub fn new(x: &'a [f64], y: &'a [f64], config: &SbrConfig, w: usize) -> Self {
        DirectOracle {
            x,
            x_stats: PrefixStats::new(x),
            y,
            y_stats: PrefixStats::new(y),
            metric: config.metric,
            allow_fallback: config.allow_linear_fallback,
            max_shift_len: MAX_SHIFT_LEN_FACTOR * w,
            sweeps: AtomicU64::new(0),
        }
    }

    /// Shift sweeps this oracle has run.
    pub fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// Fit every shift `lo..=hi` of `iv`'s window in turn and keep the
    /// first strictly better one: the reference for `MapContext::fold_region`.
    pub fn fold(&self, iv: &mut Interval, lo: usize, hi: usize) {
        let (start, len) = (iv.start, iv.length);
        let yw = &self.y[start..start + len];
        for shift in lo..=hi {
            let xw = &self.x[shift..shift + len];
            let f = match self.metric {
                ErrorMetric::Sse => regression::fit_sse_with_stats(
                    len,
                    self.x_stats.window_sum(shift, len),
                    self.x_stats.window_sum_sq(shift, len),
                    self.y_stats.window_sum(start, len),
                    self.y_stats.window_sum_sq(start, len),
                    xcorr::dot(xw, yw),
                ),
                _ => regression::fit(self.metric, xw, yw),
            };
            if f.err < iv.err {
                (iv.shift, iv.a, iv.b, iv.err) = (shift as i64, f.a, f.b, f.err);
            }
        }
    }
}

impl FitOracle for DirectOracle<'_> {
    fn fit(&self, iv: &mut Interval) {
        let (start, len) = (iv.start, iv.length);
        let yw = &self.y[start..start + len];
        let shiftable = len <= self.max_shift_len && len <= self.x.len();
        if self.allow_fallback || !shiftable {
            let f = regression::fit_linear(self.metric, yw);
            (iv.shift, iv.a, iv.b, iv.err) = (LINEAR_FALLBACK_SHIFT, f.a, f.b, f.err);
        } else {
            iv.err = f64::INFINITY;
        }
        if !shiftable {
            return;
        }
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.fold(iv, 0, self.x.len() - len);
    }
}

/// Algorithm 3 against dictionary `x`, run serially and unobserved.
/// Returns the approximation and the number of shift sweeps it ran.
pub fn get_intervals(
    x: &[f64],
    data: &MultiSeries,
    budget: usize,
    w: usize,
    config: &SbrConfig,
) -> (Result<Approximation, SbrError>, u64) {
    let oracle = DirectOracle::new(x, data.flat(), config, w);
    let mut unobserved = config.clone();
    unobserved.obs = EncodeObs::default();
    let approx = get_intervals_with(&oracle, data, budget, &unobserved);
    (approx, oracle.sweeps())
}

/// Algorithm 4: the full `K×K` error matrix and the greedy benefit loop
/// with its post-selection adjustment of every candidate's best error.
pub fn get_base(
    data: &MultiSeries,
    w: usize,
    max_ins: usize,
    metric: ErrorMetric,
) -> Vec<Vec<f64>> {
    let cbis: Vec<&[f64]> = data.rows().flat_map(|row| row.chunks_exact(w)).collect();
    let k = cbis.len();
    let err: Vec<Vec<f64>> = (0..k)
        .map(|i| {
            (0..k)
                .map(|j| {
                    if i == j {
                        0.0
                    } else {
                        regression::fit(metric, cbis[i], cbis[j]).err
                    }
                })
                .collect()
        })
        .collect();
    let mut best_err: Vec<f64> = cbis
        .iter()
        .map(|c| regression::fit_linear(metric, c).err)
        .collect();
    let mut selected = vec![false; k];
    let mut out = Vec::new();
    for _ in 0..max_ins.min(k) {
        let mut pick: Option<(usize, f64)> = None;
        for i in (0..k).filter(|&i| !selected[i]) {
            let mut benefit = 0.0;
            for j in 0..k {
                if err[i][j] < best_err[j] {
                    benefit += best_err[j] - err[i][j];
                }
            }
            if pick.is_none_or(|(_, best)| benefit > best) {
                pick = Some((i, benefit));
            }
        }
        let Some((c, _)) = pick else { break };
        selected[c] = true;
        out.push(cbis[c].to_vec());
        for j in 0..k {
            if err[c][j] < best_err[j] {
                best_err[j] = err[c][j];
            }
        }
    }
    out
}

/// Algorithms 6 and 7: the insertion-count search, every probe a fresh
/// `GetIntervals` against the would-be dictionary `base ∥ c₁ ∥ … ∥ c_pos`.
pub struct Search<'a> {
    base: &'a BaseSignal,
    cands: &'a [Vec<f64>],
    data: &'a MultiSeries,
    w: usize,
    config: &'a SbrConfig,
    errors: Vec<Option<f64>>,
    /// Shift sweeps run across all probes.
    pub sweeps: u64,
}

impl<'a> Search<'a> {
    /// A search over inserting `0..=cands.len()` candidates into `base`.
    pub fn new(
        base: &'a BaseSignal,
        cands: &'a [Vec<f64>],
        data: &'a MultiSeries,
        w: usize,
        config: &'a SbrConfig,
    ) -> Self {
        Search {
            base,
            cands,
            data,
            w,
            config,
            errors: vec![None; cands.len() + 1],
            sweeps: 0,
        }
    }

    /// `Ins`: binary search (Algorithm 7), or every count under
    /// `exhaustive_search`.
    pub fn run(&mut self) -> usize {
        if !self.config.exhaustive_search {
            return self.binary(0, self.cands.len());
        }
        let mut best = (0, self.probe(0));
        for pos in 1..=self.cands.len() {
            let e = self.probe(pos);
            if e < best.1 {
                best = (pos, e);
            }
        }
        best.0
    }

    /// Algorithm 6: the batch error after inserting the first `pos`
    /// candidates (`∞` when the insertions leave no room for one interval
    /// per signal).
    fn probe(&mut self, pos: usize) -> f64 {
        if let Some(e) = self.errors[pos] {
            return e;
        }
        let budget = self.config.total_band.saturating_sub(pos * (self.w + 1));
        let e = if budget / IntervalRecord::COST < self.data.n_signals() {
            f64::INFINITY
        } else {
            let cands: Vec<&[f64]> = self.cands[..pos].iter().map(Vec::as_slice).collect();
            let mut buf = Vec::new();
            let x = self.base.flat_with_appended(&cands, &mut buf);
            let (approx, sweeps) = get_intervals(x, self.data, budget, self.w, self.config);
            self.sweeps += sweeps;
            approx.map_or(f64::INFINITY, |a| a.total_err)
        };
        self.errors[pos] = Some(e);
        e
    }

    fn binary(&mut self, start: usize, end: usize) -> usize {
        if end == start {
            return start;
        }
        let middle = (start + end) / 2;
        let e_mid = self.probe(middle);
        let e_start = self.probe(start);
        if e_mid > e_start {
            if self.probe(end) > e_start {
                self.binary(start, middle)
            } else {
                self.binary(middle, end)
            }
        } else if self.probe(middle + 1) < e_mid {
            self.binary(middle + 1, end)
        } else {
            self.binary(start, middle)
        }
    }
}

/// Algorithm 5: the per-sensor driver. The base signal's slot placement
/// and LFU bookkeeping go through [`BaseSignal`]'s public API.
pub struct ReferenceEncoder {
    n_signals: usize,
    m: usize,
    w: usize,
    capacity_slots: usize,
    /// The configuration in force; flip `update_base` to freeze the base
    /// mid-stream.
    pub config: SbrConfig,
    base: BaseSignal,
    seq: u64,
}

impl ReferenceEncoder {
    /// An encoder for batches of `n_signals × m` values.
    pub fn new(n_signals: usize, m: usize, config: SbrConfig) -> Self {
        let w = config.validate(n_signals, m).expect("valid config");
        ReferenceEncoder {
            n_signals,
            m,
            w,
            capacity_slots: config.m_base / w,
            config,
            base: BaseSignal::new(w),
            seq: 0,
        }
    }

    /// Compress one batch given as per-signal rows.
    pub fn encode(&mut self, rows: &[Vec<f64>]) -> Transmission {
        let data = MultiSeries::from_rows(rows).expect("rectangular batch");
        let (w, band) = (self.w, self.config.total_band);

        let (cands, mut ins) = if self.config.update_base {
            let cands = get_base(&data, w, self.config.max_ins(w), self.config.metric);
            let ins = Search::new(&self.base, &cands, &data, w, &self.config).run();
            (cands, ins)
        } else {
            (Vec::new(), 0)
        };
        while ins > 0 && band.saturating_sub(ins * (w + 1)) < 4 * self.n_signals {
            ins -= 1;
        }
        let chosen = &cands[..ins];
        let placements = self
            .base
            .plan_placement(ins, self.capacity_slots.max(ins))
            .expect("placement fits");

        let refs: Vec<&[f64]> = chosen.iter().map(Vec::as_slice).collect();
        let mut buf = Vec::new();
        let x_new = self.base.flat_with_appended(&refs, &mut buf);
        let approx = get_intervals(x_new, &data, band - ins * (w + 1), w, &self.config)
            .0
            .expect("feasible budget");

        // LFU accounting against the X_new layout, translated to the
        // final slots; uses of evicted content are dropped.
        let old_slots = self.base.num_slots();
        let mut uses = vec![0u64; old_slots + ins];
        for iv in approx.intervals.iter().filter(|iv| iv.shift >= 0) {
            let first = iv.shift as usize / w;
            let last = ((iv.shift as usize + iv.length - 1) / w).min(uses.len() - 1);
            for u in &mut uses[first..=last] {
                *u += 1;
            }
        }
        for (values, &slot) in chosen.iter().zip(&placements) {
            self.base
                .apply_insert(slot, values, self.seq)
                .expect("insert");
        }
        for (slot, &n) in uses.iter().enumerate().take(old_slots) {
            if n > 0 && !placements.contains(&slot) {
                self.base.bump_use(slot, n);
            }
        }
        for (k, &slot) in placements.iter().enumerate() {
            if uses[old_slots + k] > 0 {
                self.base.bump_use(slot, uses[old_slots + k]);
            }
        }

        let tx = Transmission {
            seq: self.seq,
            n_signals: self.n_signals as u32,
            samples_per_signal: self.m as u32,
            w: w as u32,
            base_updates: chosen
                .iter()
                .zip(&placements)
                .map(|(values, &slot)| BaseUpdate {
                    slot: slot as u64,
                    values: values.clone(),
                })
                .collect(),
            intervals: approx.intervals.iter().map(Interval::record).collect(),
        };
        self.seq += 1;
        tx
    }
}

/// A stream of batches, each given as per-signal rows.
pub type Chunks = Vec<Vec<Vec<f64>>>;

/// A patterned multi-chunk stream: affine images of a few repeating
/// wiggles, so `GetBase` finds real candidates and `Search` inserts some,
/// plus per-chunk drift so the dictionary keeps evolving across
/// transmissions.
pub fn stream_chunks(n_chunks: usize, n_signals: usize, m: usize) -> Chunks {
    (0..n_chunks)
        .map(|c| {
            (0..n_signals)
                .map(|s| {
                    (0..m)
                        .map(|i| {
                            let t = (i + c * m) as f64;
                            let pattern = (t * 0.9 + s as f64 * 2.1).sin() * 4.0
                                + (t * 0.23).cos() * 2.0
                                + ((i * 7 + s) % 5) as f64;
                            pattern * (1.0 + 0.1 * c as f64) + c as f64 - s as f64
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Encode the stream with the product encoder, freezing the base from
/// chunk `freeze_at` on; one wire frame per transmission.
pub fn product_stream(
    chunks: &[Vec<Vec<f64>>],
    config: SbrConfig,
    freeze_at: Option<usize>,
) -> Vec<Vec<u8>> {
    let mut enc = SbrEncoder::new(chunks[0].len(), chunks[0][0].len(), config).expect("config");
    chunks
        .iter()
        .enumerate()
        .map(|(t, rows)| {
            if freeze_at == Some(t) {
                enc.set_update_base(false);
            }
            codec::encode_v2(&Frame::data(0, enc.encode(rows).expect("encode"))).to_vec()
        })
        .collect()
}

/// The same stream through the reference encoder.
pub fn reference_stream(
    chunks: &[Vec<Vec<f64>>],
    config: SbrConfig,
    freeze_at: Option<usize>,
) -> Vec<Vec<u8>> {
    let mut enc = ReferenceEncoder::new(chunks[0].len(), chunks[0][0].len(), config);
    chunks
        .iter()
        .enumerate()
        .map(|(t, rows)| {
            if freeze_at == Some(t) {
                enc.config.update_base = false;
            }
            codec::encode_v2(&Frame::data(0, enc.encode(rows))).to_vec()
        })
        .collect()
}

pub fn assert_matches_reference_from(
    chunks: &[Vec<Vec<f64>>],
    config: SbrConfig,
    freeze_at: Option<usize>,
    label: &str,
) {
    let want = reference_stream(chunks, config.clone(), freeze_at);
    let got = product_stream(chunks, config, freeze_at);
    assert_eq!(want.len(), got.len());
    for (t, (a, b)) in want.iter().zip(&got).enumerate() {
        assert_eq!(
            a, b,
            "[{label}] transmission {t}: encoder and reference frames differ"
        );
    }
}

pub fn assert_matches_reference(chunks: &[Vec<Vec<f64>>], config: SbrConfig, label: &str) {
    assert_matches_reference_from(chunks, config, None, label);
}

/// A counter from a metrics snapshot, `0` when it was never bumped.
pub fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// Two stream shapes: narrow base intervals against a 64-value
/// dictionary, and `W = 64` windows against a 512-value dictionary, where
/// a `2W`-long window faces hundreds of shifts once the base holds a few
/// slots. The wide shape's loose error target keeps those windows
/// unsplit, so its long whole-dictionary sweeps are the transmitted fits.
pub fn sweep_shapes() -> [(&'static str, Chunks, SbrConfig); 2] {
    let mut wide = SbrConfig::new(400, 512).with_w(64);
    wide.error_target = Some(1e4);
    [
        ("narrow", stream_chunks(5, 2, 64), SbrConfig::new(72, 64)),
        ("wide", stream_chunks(6, 2, 128), wide),
    ]
}

/// Straight-line direct delivery of per-sensor feeds (`feeds[i]` is node
/// `i + 1`'s rows, batch depth `m`): each sensor runs without ARQ, and
/// every flush is handed to `receive_frame`, which must accept it. On a
/// reliable link the network's ARQ path must log exactly these bytes.
pub fn direct_delivery(feeds: &[Vec<Vec<f64>>], m: usize, config: SbrConfig) -> BaseStation {
    let station = BaseStation::new();
    for (i, feed) in feeds.iter().enumerate() {
        let node = i + 1;
        let mut sensor = SensorNode::new(node, feed.len(), m, config.clone()).expect("config");
        let usable = feed[0].len() / m * m;
        for t in 0..usable {
            let sample: Vec<f64> = feed.iter().map(|row| row[t]).collect();
            if let Some(flush) = sensor.record(&sample).expect("encode") {
                let receipt = station.receive_frame(node, flush.frame).expect("receive");
                assert_eq!(receipt, Receipt::Accepted, "node {node}: frame not applied");
            }
        }
    }
    station
}

/// SUM/AVG/MIN/MAX of `signal` over the absolute sample range `[t0, t1)`
/// of a transmission stream, by decode-then-scan: reconstruct the whole
/// stream with [`Decoder::replay`], then fold the slice left to right.
pub fn reference_aggregate(
    txs: &[Transmission],
    signal: usize,
    t0: usize,
    t1: usize,
) -> RangeAggregate {
    reference_fold(&reference_series(txs, signal)[t0..t1])
}

/// The reconstruction of `signal` over the whole stream: every chunk
/// [`Decoder::replay`] yields, concatenated.
pub fn reference_series(txs: &[Transmission], signal: usize) -> Vec<f64> {
    let decoded = Decoder::replay(txs).expect("replay");
    decoded
        .iter()
        .flat_map(|chunk| chunk[signal].iter().copied())
        .collect()
}

/// SUM/AVG/MIN/MAX of a reconstructed slice, folded left to right: the
/// scan half of [`reference_aggregate`].
pub fn reference_fold(slice: &[f64]) -> RangeAggregate {
    let sum: f64 = slice.iter().sum();
    RangeAggregate {
        sum,
        avg: sum / slice.len() as f64,
        min: slice.iter().copied().fold(f64::INFINITY, f64::min),
        max: slice.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        count: slice.len(),
    }
}
