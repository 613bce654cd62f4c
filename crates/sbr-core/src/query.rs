//! Aggregate queries answered *directly on the compressed representation*.
//!
//! The approximate-query-processing literature the paper builds on
//! (histogram/wavelet synopses) values synopses you can query without
//! expanding. SBR's interval records have the same property: over a record
//! `ŷ_i = a·X[shift + i] + b`, the sum of reconstructed values on any
//! sub-range is `a · Σ X[..] + b · len`, and `Σ X[..]` comes from a prefix
//! sum over the base signal in O(1). A range-SUM/AVG query therefore costs
//! `O(#intervals touched)` instead of `O(#samples)`; MIN/MAX scan only the
//! touched base segments.
//!
//! Two layers build on that algebra:
//!
//! - [`ChunkView`] — a borrowed, throwaway view over one chunk, used when
//!   the caller replays a stream once (the legacy `aggregate_stream` path).
//! - [`ChunkSummary`] + [`QueryEngine`] — the compressed-domain query
//!   engine. A summary is built *once* per chunk (at ingest or stream
//!   load): per-interval moments (count, Σ, min/max of the referenced base
//!   segment, pre-folded through `a·X+b`) plus prefix sums over both the
//!   base signal and the interval moments, so any later query folds each
//!   touched interval in O(1) and decodes only the (at most two) intervals
//!   a range splits mid-way. The engine adds a small plan cache keyed by
//!   `(signal, range, aggregate class)` and serves the TAG aggregate set —
//!   SUM/AVG/MIN/MAX — without ever inflating a chunk.

use std::collections::HashMap;

use crate::error::{Result, SbrError};
use crate::interval::IntervalRecord;
use crate::obs::QueryObs;
use crate::regression::PrefixStats;

/// A queryable view over one decoded chunk's records and the base signal
/// those records reference (the `X_new` layout of its transmission).
///
/// ```
/// use sbr_core::{query::ChunkView, IntervalRecord};
/// // One fall-back record: ŷ_i = 2·i + 1 over 4 samples → 1, 3, 5, 7.
/// let records = [IntervalRecord { start: 0, shift: -1, a: 2.0, b: 1.0 }];
/// let view = ChunkView::new(&records, &[], 4).unwrap();
/// assert_eq!(view.range_sum(0, 4).unwrap(), 16.0);
/// assert_eq!(view.range_avg(1, 3).unwrap(), 4.0);
/// assert_eq!(view.range_min_max(0, 4).unwrap(), (1.0, 7.0));
/// ```
pub struct ChunkView<'a> {
    records: Vec<IntervalRecord>,
    base: &'a [f64],
    base_stats: PrefixStats,
    n_total: usize,
}

impl<'a> ChunkView<'a> {
    /// Build a view. `records` are the chunk's interval records (any
    /// order); `base` is the flat base signal they reference; `n_total` the
    /// chunk's value count.
    pub fn new(records: &[IntervalRecord], base: &'a [f64], n_total: usize) -> Result<Self> {
        let mut records = records.to_vec();
        records.sort_by_key(|r| r.start);
        if let Some(first) = records.first() {
            if first.start != 0 {
                return Err(SbrError::Corrupt(format!(
                    "records leave [0, {}) uncovered",
                    first.start
                )));
            }
        }
        // Validate coverage once so queries can't go out of bounds.
        for (k, r) in records.iter().enumerate() {
            let end = records.get(k + 1).map_or(n_total, |nx| nx.start as usize);
            if r.start as usize >= end || end > n_total {
                return Err(SbrError::Corrupt(format!(
                    "record {k} covers [{}, {end}) of {n_total}",
                    r.start
                )));
            }
            if r.shift >= 0 && r.shift as usize + (end - r.start as usize) > base.len() {
                return Err(SbrError::Corrupt(format!(
                    "record {k} runs past the base signal"
                )));
            }
        }
        Ok(ChunkView {
            records,
            base,
            base_stats: PrefixStats::new(base),
            n_total,
        })
    }

    /// Number of values in the chunk.
    pub fn len(&self) -> usize {
        self.n_total
    }

    /// True for an empty chunk (cannot be constructed from a valid
    /// transmission).
    pub fn is_empty(&self) -> bool {
        self.n_total == 0
    }

    fn record_end(&self, k: usize) -> usize {
        self.records
            .get(k + 1)
            .map_or(self.n_total, |r| r.start as usize)
    }

    /// Indices of the records overlapping `[t0, t1)`.
    fn touching(&self, t0: usize, t1: usize) -> std::ops::Range<usize> {
        let first = self
            .records
            .partition_point(|r| (r.start as usize) <= t0)
            .saturating_sub(1);
        let last = self.records.partition_point(|r| (r.start as usize) < t1);
        first..last
    }

    /// Exact sum of the *reconstruction* over `[t0, t1)` in
    /// `O(#records touched)`.
    pub fn range_sum(&self, t0: usize, t1: usize) -> Result<f64> {
        self.check_range(t0, t1)?;
        let mut acc = 0.0f64;
        for k in self.touching(t0, t1) {
            let r = &self.records[k];
            let rs = r.start as usize;
            let re = self.record_end(k);
            let (s, e) = (t0.max(rs), t1.min(re));
            if s >= e {
                continue;
            }
            let len = e - s;
            if r.shift < 0 {
                // Fall-back line over the local index i ∈ [s-rs, e-rs):
                // Σ (a·i + b) = a · Σi + b·len.
                let i0 = (s - rs) as f64;
                let i1 = (e - rs - 1) as f64;
                let sum_i = (i0 + i1) * len as f64 / 2.0;
                acc += r.a * sum_i + r.b * len as f64;
            } else {
                let off = r.shift as usize + (s - rs);
                let sum_x = self.base_stats.window_sum(off, len);
                acc += r.a * sum_x + r.b * len as f64;
            }
        }
        Ok(acc)
    }

    /// Average of the reconstruction over `[t0, t1)`.
    pub fn range_avg(&self, t0: usize, t1: usize) -> Result<f64> {
        if t1 <= t0 {
            return Err(SbrError::InconsistentState(format!(
                "empty range [{t0}, {t1})"
            )));
        }
        Ok(self.range_sum(t0, t1)? / (t1 - t0) as f64)
    }

    /// Minimum and maximum of the reconstruction over `[t0, t1)`; scans
    /// only the touched base segments.
    pub fn range_min_max(&self, t0: usize, t1: usize) -> Result<(f64, f64)> {
        self.check_range(t0, t1)?;
        if t1 == t0 {
            return Err(SbrError::InconsistentState("empty range".into()));
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for k in self.touching(t0, t1) {
            let r = &self.records[k];
            let rs = r.start as usize;
            let re = self.record_end(k);
            let (s, e) = (t0.max(rs), t1.min(re));
            if s >= e {
                continue;
            }
            if r.shift < 0 {
                // Monotone in i: endpoints suffice.
                let v0 = r.a * (s - rs) as f64 + r.b;
                let v1 = r.a * (e - 1 - rs) as f64 + r.b;
                lo = lo.min(v0.min(v1));
                hi = hi.max(v0.max(v1));
            } else {
                let off = r.shift as usize + (s - rs);
                for &x in &self.base[off..off + (e - s)] {
                    let v = r.a * x + r.b;
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
        }
        Ok((lo, hi))
    }

    fn check_range(&self, t0: usize, t1: usize) -> Result<()> {
        if t0 > t1 || t1 > self.n_total {
            return Err(SbrError::InconsistentState(format!(
                "range [{t0}, {t1}) outside chunk of {} values",
                self.n_total
            )));
        }
        Ok(())
    }
}

/// Stream-level aggregates over a sequence of transmissions: replays
/// base-signal updates (cheap — no reconstruction) and queries each touched
/// chunk through a [`ChunkView`]. This is the one implementation behind the
/// base station's and the CLI's range-aggregate queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamAggregate {
    /// Sum of the reconstruction over the range.
    pub sum: f64,
    /// Average over the range.
    pub avg: f64,
    /// Minimum over the range.
    pub min: f64,
    /// Maximum over the range.
    pub max: f64,
    /// Samples covered.
    pub count: usize,
}

/// SUM/AVG/MIN/MAX of `signal` over the absolute sample range `[t0, t1)`
/// of a transmission stream. `decoder` must be positioned at or before the
/// first chunk the range touches; it is advanced past the last touched
/// chunk (updates only — no reconstruction).
pub fn aggregate_stream(
    decoder: &mut crate::decoder::Decoder,
    transmissions: &[crate::transmission::Transmission],
    signal: usize,
    t0: usize,
    t1: usize,
) -> Result<StreamAggregate> {
    if t1 <= t0 {
        return Err(SbrError::InconsistentState(format!(
            "empty range [{t0}, {t1})"
        )));
    }
    let m = transmissions
        .first()
        .map(|t| t.samples_per_signal as usize)
        .ok_or_else(|| SbrError::InconsistentState("no transmissions".into()))?;
    let first_chunk = t0 / m;
    let last_chunk = t1.div_ceil(m);
    if last_chunk > transmissions.len() {
        return Err(SbrError::InconsistentState(format!(
            "range [{t0}, {t1}) runs past the {} logged samples",
            transmissions.len() * m
        )));
    }
    if decoder.next_seq() as usize > first_chunk {
        return Err(SbrError::InconsistentState(format!(
            "decoder already at chunk {} > first touched chunk {first_chunk}",
            decoder.next_seq()
        )));
    }
    while (decoder.next_seq() as usize) < first_chunk {
        decoder.apply_updates_only(&transmissions[decoder.next_seq() as usize])?;
    }
    let mut sum = 0.0f64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut count = 0usize;
    for (c, tx) in transmissions
        .iter()
        .enumerate()
        .take(last_chunk)
        .skip(first_chunk)
    {
        if signal >= tx.n_signals as usize {
            return Err(SbrError::InconsistentState(format!(
                "stream has no signal {signal}"
            )));
        }
        let x_new = decoder.peek_x_new(tx)?;
        let view = ChunkView::new(&tx.intervals, &x_new, tx.batch_len())?;
        let chunk_t0 = c * m;
        let lo = t0.max(chunk_t0) - chunk_t0;
        let hi = t1.min(chunk_t0 + m) - chunk_t0;
        let (s, e) = (signal * m + lo, signal * m + hi);
        sum += view.range_sum(s, e)?;
        let (vmin, vmax) = view.range_min_max(s, e)?;
        min = min.min(vmin);
        max = max.max(vmax);
        count += e - s;
        decoder.apply_updates_only(tx)?;
    }
    Ok(StreamAggregate {
        sum,
        avg: sum / count as f64,
        min,
        max,
        count,
    })
}

/// The TAG aggregate set served by the compressed-domain engine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Aggregate {
    /// Range sum.
    Sum,
    /// Range average.
    Avg,
    /// Range minimum.
    Min,
    /// Range maximum.
    Max,
}

/// How a query's touched intervals were resolved: `folded` in O(1) from
/// precomputed moments, or `boundary` — split mid-way by the range, so only
/// the covered window was evaluated directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoldCounts {
    /// Intervals fully covered by the range, answered from moments.
    pub folded: u64,
    /// Intervals the range splits; their covered window is scanned.
    pub boundary: u64,
}

impl FoldCounts {
    fn absorb(&mut self, other: FoldCounts) {
        self.folded += other.folded;
        self.boundary += other.boundary;
    }
}

/// Precomputed aggregate moments of one interval record, folded through
/// `a·X+b`: the sum, minimum and maximum of the record's *reconstruction*.
#[derive(Clone, Copy, Debug)]
struct SegMoments {
    sum: f64,
    min: f64,
    max: f64,
}

/// An owned, immutable compressed-domain synopsis of one chunk.
///
/// Built once — at base-station ingest or stream load — from the chunk's
/// interval records and the `X_new` base layout they reference. Stores:
///
/// - the records (sorted, coverage-validated) and their end offsets,
/// - per-record [`SegMoments`] (Σ/min/max of the reconstruction, computed
///   with the *same floating-point expression* the decoder uses, so min and
///   max are bit-for-bit identical to a decode-then-scan),
/// - prefix sums over both the base signal (`PrefixStats`) and the
///   per-record sums, so a range sum costs O(1) beyond the two boundary
///   records.
///
/// All offsets are flat chunk indices (`signal · m + local`), matching
/// [`ChunkView`].
#[derive(Clone, Debug)]
pub struct ChunkSummary {
    records: Vec<IntervalRecord>,
    /// `records[k]` covers `[records[k].start, ends[k])`.
    ends: Vec<usize>,
    moments: Vec<SegMoments>,
    /// `prefix_sums[k]` = Σ of `moments[..k].sum`; length `records.len()+1`.
    prefix_sums: Vec<f64>,
    base: Vec<f64>,
    base_stats: PrefixStats,
    n_signals: usize,
    m: usize,
    n_total: usize,
}

impl ChunkSummary {
    /// Build a summary from a chunk's records and the flat base signal they
    /// reference. `n_signals · m` must equal the chunk's value count and be
    /// fully covered by `records`.
    pub fn new(
        records: &[IntervalRecord],
        base: Vec<f64>,
        n_signals: usize,
        m: usize,
    ) -> Result<Self> {
        let n_total = n_signals * m;
        let mut records = records.to_vec();
        records.sort_by_key(|r| r.start);
        match records.first() {
            Some(first) if first.start != 0 => {
                return Err(SbrError::Corrupt(format!(
                    "records leave [0, {}) uncovered",
                    first.start
                )));
            }
            None if n_total != 0 => {
                return Err(SbrError::Corrupt(format!(
                    "no records cover the {n_total}-value chunk"
                )));
            }
            _ => {}
        }
        let mut ends = Vec::with_capacity(records.len());
        for (k, r) in records.iter().enumerate() {
            let end = records.get(k + 1).map_or(n_total, |nx| nx.start as usize);
            if r.start as usize >= end || end > n_total {
                return Err(SbrError::Corrupt(format!(
                    "record {k} covers [{}, {end}) of {n_total}",
                    r.start
                )));
            }
            if r.shift >= 0 && r.shift as usize + (end - r.start as usize) > base.len() {
                return Err(SbrError::Corrupt(format!(
                    "record {k} runs past the base signal"
                )));
            }
            ends.push(end);
        }
        let base_stats = PrefixStats::new(&base);
        let mut moments = Vec::with_capacity(records.len());
        let mut prefix_sums = Vec::with_capacity(records.len() + 1);
        prefix_sums.push(0.0);
        for (k, r) in records.iter().enumerate() {
            let len = ends[k] - r.start as usize;
            let mom = if r.shift < 0 {
                // Fall-back line a·i + b over i ∈ [0, len). fl(a·i)+b is
                // monotone in i (rounding preserves order), so the decoded
                // min/max sit at the endpoints — bit-exact vs a full decode.
                let sum_i = (len as f64 - 1.0) * len as f64 / 2.0;
                let v0 = r.a * 0.0 + r.b;
                let v1 = r.a * (len - 1) as f64 + r.b;
                SegMoments {
                    sum: r.a * sum_i + r.b * len as f64,
                    min: v0.min(v1),
                    max: v0.max(v1),
                }
            } else {
                let off = r.shift as usize;
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &x in &base[off..off + len] {
                    // Same expression as `reconstruct_flat` → bit-exact.
                    let v = r.a * x + r.b;
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                SegMoments {
                    sum: r.a * base_stats.window_sum(off, len) + r.b * len as f64,
                    min: lo,
                    max: hi,
                }
            };
            prefix_sums.push(prefix_sums[k] + mom.sum);
            moments.push(mom);
        }
        Ok(ChunkSummary {
            records,
            ends,
            moments,
            prefix_sums,
            base,
            base_stats,
            n_signals,
            m,
            n_total,
        })
    }

    /// Build a summary straight from a transmission and the `X_new` base
    /// layout its records reference (see
    /// [`Decoder::peek_x_new`](crate::decoder::Decoder::peek_x_new)).
    pub fn from_transmission(
        tx: &crate::transmission::Transmission,
        x_new: Vec<f64>,
    ) -> Result<Self> {
        ChunkSummary::new(
            &tx.intervals,
            x_new,
            tx.n_signals as usize,
            tx.samples_per_signal as usize,
        )
    }

    /// Values in the chunk.
    pub fn len(&self) -> usize {
        self.n_total
    }

    /// True when the chunk holds no values.
    pub fn is_empty(&self) -> bool {
        self.n_total == 0
    }

    /// Signals per chunk.
    pub fn n_signals(&self) -> usize {
        self.n_signals
    }

    /// Samples per signal.
    pub fn samples_per_signal(&self) -> usize {
        self.m
    }

    /// Indices of the records overlapping `[t0, t1)`.
    fn touching(&self, t0: usize, t1: usize) -> std::ops::Range<usize> {
        let first = self
            .records
            .partition_point(|r| (r.start as usize) <= t0)
            .saturating_sub(1);
        let last = self.records.partition_point(|r| (r.start as usize) < t1);
        first..last
    }

    fn check_range(&self, t0: usize, t1: usize) -> Result<()> {
        if t0 > t1 || t1 > self.n_total {
            return Err(SbrError::InconsistentState(format!(
                "range [{t0}, {t1}) outside chunk of {} values",
                self.n_total
            )));
        }
        Ok(())
    }

    /// Sum of record `k`'s reconstruction over the flat sub-range `[s, e)`,
    /// which must lie inside the record. O(1) via the base prefix sums.
    fn partial_sum(&self, k: usize, s: usize, e: usize) -> f64 {
        let r = &self.records[k];
        let rs = r.start as usize;
        let len = e - s;
        if r.shift < 0 {
            let i0 = (s - rs) as f64;
            let i1 = (e - rs - 1) as f64;
            let sum_i = (i0 + i1) * len as f64 / 2.0;
            r.a * sum_i + r.b * len as f64
        } else {
            let off = r.shift as usize + (s - rs);
            r.a * self.base_stats.window_sum(off, len) + r.b * len as f64
        }
    }

    /// Min/max of record `k`'s reconstruction over `[s, e)` inside the
    /// record. Fall-back records are O(1) (monotone line); mapped records
    /// scan only the covered base window — this is the "boundary decode".
    fn partial_min_max(&self, k: usize, s: usize, e: usize) -> (f64, f64) {
        let r = &self.records[k];
        let rs = r.start as usize;
        if r.shift < 0 {
            let v0 = r.a * (s - rs) as f64 + r.b;
            let v1 = r.a * (e - 1 - rs) as f64 + r.b;
            (v0.min(v1), v0.max(v1))
        } else {
            let off = r.shift as usize + (s - rs);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &x in &self.base[off..off + (e - s)] {
                let v = r.a * x + r.b;
                lo = lo.min(v);
                hi = hi.max(v);
            }
            (lo, hi)
        }
    }

    /// Sum of the reconstruction over `[t0, t1)`. Costs O(log #records) for
    /// the lookup plus O(1) per *boundary* record — the run of fully covered
    /// records in the middle comes from one prefix-sum subtraction.
    pub fn range_sum(&self, t0: usize, t1: usize) -> Result<(f64, FoldCounts)> {
        self.check_range(t0, t1)?;
        let mut counts = FoldCounts::default();
        if t0 == t1 {
            return Ok((0.0, counts));
        }
        let touched = self.touching(t0, t1);
        let (mut k0, mut k1) = (touched.start, touched.end);
        let mut sum = 0.0f64;
        if k0 < k1 {
            let (rs, re) = (self.records[k0].start as usize, self.ends[k0]);
            let (s, e) = (t0.max(rs), t1.min(re));
            if s > rs || e < re {
                sum += self.partial_sum(k0, s, e);
                counts.boundary += 1;
                k0 += 1;
            }
        }
        if k0 < k1 {
            let re = self.ends[k1 - 1];
            if t1 < re {
                let rs = self.records[k1 - 1].start as usize;
                sum += self.partial_sum(k1 - 1, t0.max(rs), t1);
                counts.boundary += 1;
                k1 -= 1;
            }
        }
        counts.folded += (k1 - k0) as u64;
        sum += self.prefix_sums[k1] - self.prefix_sums[k0];
        Ok((sum, counts))
    }

    /// Sum, min and max of the reconstruction over the non-empty `[t0, t1)`.
    /// Fully covered records come straight from their moments; split records
    /// evaluate only their covered window.
    pub fn range_moments(&self, t0: usize, t1: usize) -> Result<(f64, f64, f64, FoldCounts)> {
        self.check_range(t0, t1)?;
        if t0 == t1 {
            return Err(SbrError::InconsistentState("empty range".into()));
        }
        let mut counts = FoldCounts::default();
        let mut sum = 0.0f64;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for k in self.touching(t0, t1) {
            let (rs, re) = (self.records[k].start as usize, self.ends[k]);
            let (s, e) = (t0.max(rs), t1.min(re));
            if s == rs && e == re {
                let mom = &self.moments[k];
                sum += mom.sum;
                lo = lo.min(mom.min);
                hi = hi.max(mom.max);
                counts.folded += 1;
            } else {
                sum += self.partial_sum(k, s, e);
                let (plo, phi) = self.partial_min_max(k, s, e);
                lo = lo.min(plo);
                hi = hi.max(phi);
                counts.boundary += 1;
            }
        }
        Ok((sum, lo, hi, counts))
    }

    /// Min and max of the reconstruction over the non-empty `[t0, t1)`.
    pub fn range_min_max(&self, t0: usize, t1: usize) -> Result<((f64, f64), FoldCounts)> {
        let (_, lo, hi, counts) = self.range_moments(t0, t1)?;
        Ok(((lo, hi), counts))
    }
}

/// Which computation a cached plan holds. SUM and AVG share a plan (one
/// prefix-sum pass); MIN/MAX and full aggregates share the moment-fold pass.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum PlanOp {
    SumAvg,
    Full,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct PlanKey {
    signal: usize,
    t0: usize,
    t1: usize,
    op: PlanOp,
}

/// Plans cached before the map is wholesale-cleared. Summaries are
/// immutable and chunks append-only, so cached plans never go stale;
/// the cap only bounds memory on adversarial query streams.
const PLAN_CACHE_CAP: usize = 4096;

/// The compressed-domain query engine: an append-only sequence of
/// [`ChunkSummary`] synopses plus a small plan cache.
///
/// Serves SUM/AVG/MIN/MAX (the TAG set) over absolute sample ranges
/// `[t0, t1)` of one signal without ever decoding a chunk — every fully
/// covered interval contributes via precomputed moments, and only intervals
/// a range splits mid-way have their covered window evaluated directly.
///
/// Chunks are appended with [`push_chunk`](Self::push_chunk) (a `None` slot
/// marks a chunk with no summary — queries touching it report the gap so
/// callers can fall back to a decode path). Appending never invalidates
/// cached plans: summaries are immutable and past ranges are unaffected.
#[derive(Debug, Default)]
pub struct QueryEngine {
    chunks: Vec<Option<ChunkSummary>>,
    n_signals: usize,
    m: usize,
    plans: HashMap<PlanKey, StreamAggregate>,
    obs: QueryObs,
}

impl QueryEngine {
    /// An empty engine with no chunks and a disabled obs bundle.
    pub fn new() -> Self {
        QueryEngine::default()
    }

    /// Attach pre-registered query metrics (see
    /// [`QueryObs`](crate::obs::QueryObs)).
    pub fn set_obs(&mut self, obs: QueryObs) {
        self.obs = obs;
    }

    /// Build an engine over a whole transmission stream: replays base
    /// updates chunk by chunk (no reconstruction) and summarizes each.
    pub fn from_transmissions(txs: &[crate::transmission::Transmission]) -> Result<Self> {
        let mut decoder = crate::decoder::Decoder::new();
        let mut engine = QueryEngine::new();
        for tx in txs {
            let x_new = decoder.peek_x_new(tx)?;
            decoder.apply_updates_only(tx)?;
            engine.push_chunk(Some(ChunkSummary::from_transmission(tx, x_new)?));
        }
        Ok(engine)
    }

    /// Append the next chunk's summary (or `None` for a gap). A summary
    /// whose shape disagrees with the engine's is stored as a gap rather
    /// than corrupting the index.
    pub fn push_chunk(&mut self, summary: Option<ChunkSummary>) {
        if let Some(s) = &summary {
            if self.m == 0 && self.n_signals == 0 {
                self.m = s.samples_per_signal();
                self.n_signals = s.n_signals();
            } else if s.samples_per_signal() != self.m || s.n_signals() != self.n_signals {
                self.chunks.push(None);
                return;
            }
        }
        self.chunks.push(summary);
    }

    /// Drop every chunk and cached plan (e.g. before a from-scratch rebuild).
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.plans.clear();
        self.m = 0;
        self.n_signals = 0;
    }

    /// Chunks indexed (including gaps).
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when no chunks have been indexed.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Samples per signal per chunk (0 until the first summary arrives).
    pub fn samples_per_signal(&self) -> usize {
        self.m
    }

    /// Signals per chunk (0 until the first summary arrives).
    pub fn n_signals(&self) -> usize {
        self.n_signals
    }

    /// Total samples per signal across all indexed chunks.
    pub fn total_samples(&self) -> usize {
        self.chunks.len() * self.m
    }

    /// Cached plans currently held.
    pub fn plan_cache_len(&self) -> usize {
        self.plans.len()
    }

    /// True when `[t0, t1)` of `signal` is answerable entirely in the
    /// compressed domain — in bounds and no gap chunks touched.
    pub fn covers(&self, signal: usize, t0: usize, t1: usize) -> bool {
        if self.m == 0 || signal >= self.n_signals || t1 <= t0 || t1 > self.total_samples() {
            return false;
        }
        (t0 / self.m..t1.div_ceil(self.m)).all(|c| self.chunks[c].is_some())
    }

    fn check(&self, signal: usize, t0: usize, t1: usize) -> Result<()> {
        if self.chunks.is_empty() || self.m == 0 {
            return Err(SbrError::InconsistentState("no transmissions".into()));
        }
        if signal >= self.n_signals {
            return Err(SbrError::InconsistentState(format!(
                "stream has no signal {signal}"
            )));
        }
        if t1 <= t0 {
            return Err(SbrError::InconsistentState(format!(
                "empty range [{t0}, {t1})"
            )));
        }
        let total = self.total_samples();
        if t1 > total {
            return Err(SbrError::InconsistentState(format!(
                "range [{t0}, {t1}) runs past the {total} logged samples"
            )));
        }
        Ok(())
    }

    /// Resolve (or fetch from the plan cache) the aggregate over
    /// `[t0, t1)` of `signal`. Errors are never cached.
    fn plan(&mut self, signal: usize, t0: usize, t1: usize, op: PlanOp) -> Result<StreamAggregate> {
        let key = PlanKey { signal, t0, t1, op };
        if let Some(v) = self.plans.get(&key) {
            self.obs.plan_hits.inc();
            return Ok(*v);
        }
        self.check(signal, t0, t1)?;
        let mut counts = FoldCounts::default();
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for c in t0 / self.m..t1.div_ceil(self.m) {
            let summary = self.chunks[c].as_ref().ok_or_else(|| {
                SbrError::InconsistentState(format!("chunk {c} has no compressed-domain summary"))
            })?;
            let chunk_t0 = c * self.m;
            let lo = t0.max(chunk_t0) - chunk_t0;
            let hi = t1.min(chunk_t0 + self.m) - chunk_t0;
            let (s, e) = (signal * self.m + lo, signal * self.m + hi);
            match op {
                PlanOp::SumAvg => {
                    let (v, fc) = summary.range_sum(s, e)?;
                    sum += v;
                    counts.absorb(fc);
                }
                PlanOp::Full => {
                    let (v, clo, chi, fc) = summary.range_moments(s, e)?;
                    sum += v;
                    min = min.min(clo);
                    max = max.max(chi);
                    counts.absorb(fc);
                }
            }
        }
        let count = t1 - t0;
        let agg = StreamAggregate {
            sum,
            avg: sum / count as f64,
            min,
            max,
            count,
        };
        self.obs.plan_misses.inc();
        self.obs.intervals_folded.add(counts.folded);
        self.obs.boundary_decodes.add(counts.boundary);
        if self.plans.len() >= PLAN_CACHE_CAP {
            self.plans.clear();
        }
        self.plans.insert(key, agg);
        Ok(agg)
    }

    /// One aggregate of `signal` over `[t0, t1)`, entirely in the
    /// compressed domain.
    pub fn query(&mut self, signal: usize, t0: usize, t1: usize, agg: Aggregate) -> Result<f64> {
        // lint:allow(determinism): obs-gated latency probe — timing never feeds query results
        let start = self.obs.enabled().then(std::time::Instant::now);
        let op = match agg {
            Aggregate::Sum | Aggregate::Avg => PlanOp::SumAvg,
            Aggregate::Min | Aggregate::Max => PlanOp::Full,
        };
        let plan = self.plan(signal, t0, t1, op)?;
        let out = match agg {
            Aggregate::Sum => plan.sum,
            Aggregate::Avg => plan.avg,
            Aggregate::Min => plan.min,
            Aggregate::Max => plan.max,
        };
        if let Some(s) = start {
            self.obs.query_ns.record(s.elapsed().as_nanos() as u64);
        }
        Ok(out)
    }

    /// All four TAG aggregates of `signal` over `[t0, t1)` at once —
    /// drop-in for [`aggregate_stream`] without the replay.
    pub fn aggregate(&mut self, signal: usize, t0: usize, t1: usize) -> Result<StreamAggregate> {
        // lint:allow(determinism): obs-gated latency probe — timing never feeds query results
        let start = self.obs.enabled().then(std::time::Instant::now);
        let agg = self.plan(signal, t0, t1, PlanOp::Full)?;
        if let Some(s) = start {
            self.obs.query_ns.record(s.elapsed().as_nanos() as u64);
        }
        Ok(agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SbrConfig;
    use crate::get_intervals::reconstruct_flat;
    use crate::sbr::SbrEncoder;

    /// Build a view from a real transmission.
    fn view_and_truth() -> (Vec<IntervalRecord>, Vec<f64>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..2)
            .map(|r| {
                (0..128)
                    .map(|i| ((i as f64 * 0.19) + r as f64).sin() * 7.0 + (i % 11) as f64)
                    .collect()
            })
            .collect();
        let mut enc = SbrEncoder::new(2, 128, SbrConfig::new(120, 96)).unwrap();
        let tx = enc.encode(&rows).unwrap();
        // The X_new layout the records reference: base was empty before the
        // first transmission, so it is exactly the inserted updates.
        let mut base = Vec::new();
        for u in &tx.base_updates {
            base.extend_from_slice(&u.values);
        }
        let rec = reconstruct_flat(&base, &tx.intervals, 256).unwrap();
        (tx.intervals.clone(), base, rec)
    }

    #[test]
    fn sum_matches_reconstruction_on_many_ranges() {
        let (records, base, rec) = view_and_truth();
        let v = ChunkView::new(&records, &base, 256).unwrap();
        for (t0, t1) in [(0, 256), (0, 1), (5, 97), (100, 200), (250, 256), (13, 14)] {
            let direct: f64 = rec[t0..t1].iter().sum();
            let fast = v.range_sum(t0, t1).unwrap();
            assert!(
                (direct - fast).abs() <= 1e-9 * (1.0 + direct.abs()),
                "[{t0},{t1}): {fast} vs {direct}"
            );
        }
    }

    #[test]
    fn avg_and_min_max_match_reconstruction() {
        let (records, base, rec) = view_and_truth();
        let v = ChunkView::new(&records, &base, 256).unwrap();
        for (t0, t1) in [(0, 256), (17, 140), (200, 256)] {
            let slice = &rec[t0..t1];
            let avg = slice.iter().sum::<f64>() / slice.len() as f64;
            assert!((v.range_avg(t0, t1).unwrap() - avg).abs() < 1e-9 * (1.0 + avg.abs()));
            let lo = slice.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let (qlo, qhi) = v.range_min_max(t0, t1).unwrap();
            assert!((qlo - lo).abs() < 1e-9 * (1.0 + lo.abs()));
            assert!((qhi - hi).abs() < 1e-9 * (1.0 + hi.abs()));
        }
    }

    #[test]
    fn empty_and_out_of_bounds_ranges_rejected() {
        let (records, base, _) = view_and_truth();
        let v = ChunkView::new(&records, &base, 256).unwrap();
        assert!(v.range_avg(5, 5).is_err());
        assert!(v.range_sum(10, 5).is_err());
        assert!(v.range_sum(0, 300).is_err());
        assert_eq!(v.range_sum(7, 7).unwrap(), 0.0);
    }

    #[test]
    fn corrupt_records_rejected_at_construction() {
        let records = [IntervalRecord {
            start: 0,
            shift: 100,
            a: 1.0,
            b: 0.0,
        }];
        assert!(ChunkView::new(&records, &[0.0; 4], 8).is_err());
        let overlapping = [
            IntervalRecord {
                start: 4,
                shift: -1,
                a: 0.0,
                b: 0.0,
            },
            IntervalRecord {
                start: 4,
                shift: -1,
                a: 0.0,
                b: 1.0,
            },
        ];
        assert!(ChunkView::new(&overlapping, &[], 8).is_err());
    }

    #[test]
    fn stream_aggregate_matches_decoded_stream() {
        use crate::decoder::Decoder;
        let mut enc = SbrEncoder::new(2, 64, SbrConfig::new(60, 48)).unwrap();
        let mut txs = Vec::new();
        let mut truth: Vec<Vec<f64>> = vec![Vec::new(); 2];
        for t in 0..4 {
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|r| {
                    (0..64)
                        .map(|i| ((i + t * 17 + r * 5) as f64 * 0.3).sin() * 4.0)
                        .collect()
                })
                .collect();
            txs.push(enc.encode(&rows).unwrap());
        }
        let mut dec = Decoder::new();
        for tx in &txs {
            let rec = dec.decode(tx).unwrap();
            for (col, r) in truth.iter_mut().zip(&rec) {
                col.extend_from_slice(r);
            }
        }
        for (t0, t1) in [(0usize, 256usize), (30, 200), (64, 128), (255, 256)] {
            let mut d = Decoder::new();
            let agg = aggregate_stream(&mut d, &txs, 1, t0, t1).unwrap();
            let slice = &truth[1][t0..t1];
            let sum: f64 = slice.iter().sum();
            assert!(
                (agg.sum - sum).abs() < 1e-9 * (1.0 + sum.abs()),
                "[{t0},{t1})"
            );
            assert_eq!(agg.count, t1 - t0);
        }
    }

    #[test]
    fn stream_aggregate_rejects_positioned_past_range() {
        use crate::decoder::Decoder;
        let mut enc = SbrEncoder::new(1, 32, SbrConfig::new(20, 16)).unwrap();
        let rows = vec![(0..32).map(|i| i as f64).collect::<Vec<f64>>()];
        let t0 = enc.encode(&rows).unwrap();
        let t1 = enc.encode(&rows).unwrap();
        let txs = vec![t0, t1];
        let mut d = Decoder::new();
        d.apply_updates_only(&txs[0]).unwrap();
        d.apply_updates_only(&txs[1]).unwrap();
        assert!(aggregate_stream(&mut d, &txs, 0, 0, 10).is_err());
    }

    #[test]
    fn fallback_only_view_works_without_base() {
        let records = [
            IntervalRecord {
                start: 0,
                shift: -1,
                a: 2.0,
                b: 1.0,
            },
            IntervalRecord {
                start: 4,
                shift: -1,
                a: 0.0,
                b: 10.0,
            },
        ];
        let v = ChunkView::new(&records, &[], 8).unwrap();
        // First record: 1, 3, 5, 7; second: 10 × 4.
        assert_eq!(v.range_sum(0, 8).unwrap(), 16.0 + 40.0);
        assert_eq!(v.range_sum(2, 6).unwrap(), 5.0 + 7.0 + 20.0);
        let (lo, hi) = v.range_min_max(0, 8).unwrap();
        assert_eq!((lo, hi), (1.0, 10.0));
    }

    #[test]
    fn summary_matches_reconstruction_and_pins_min_max_bits() {
        let (records, base, rec) = view_and_truth();
        let s = ChunkSummary::new(&records, base, 2, 128).unwrap();
        for (t0, t1) in [(0, 256), (0, 1), (5, 97), (100, 200), (250, 256), (13, 14)] {
            let slice = &rec[t0..t1];
            let direct: f64 = slice.iter().sum();
            let (fast, _) = s.range_sum(t0, t1).unwrap();
            assert!(
                (direct - fast).abs() <= 1e-9 * (1.0 + direct.abs()),
                "[{t0},{t1}): {fast} vs {direct}"
            );
            let lo = slice.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let ((qlo, qhi), _) = s.range_min_max(t0, t1).unwrap();
            // Min/max use the decoder's exact FP expression: bit-for-bit.
            assert_eq!(qlo.to_bits(), lo.to_bits(), "[{t0},{t1}) min");
            assert_eq!(qhi.to_bits(), hi.to_bits(), "[{t0},{t1}) max");
        }
    }

    #[test]
    fn summary_fold_counts_distinguish_boundary_records() {
        let records = [
            IntervalRecord {
                start: 0,
                shift: -1,
                a: 2.0,
                b: 1.0,
            },
            IntervalRecord {
                start: 4,
                shift: -1,
                a: 0.0,
                b: 10.0,
            },
        ];
        let s = ChunkSummary::new(&records, Vec::new(), 1, 8).unwrap();
        let (sum, counts) = s.range_sum(0, 8).unwrap();
        assert_eq!(sum, 56.0);
        assert_eq!(
            counts,
            FoldCounts {
                folded: 2,
                boundary: 0
            }
        );
        let (sum, counts) = s.range_sum(2, 6).unwrap();
        assert_eq!(sum, 32.0);
        assert_eq!(
            counts,
            FoldCounts {
                folded: 0,
                boundary: 2
            }
        );
        let (_, _, _, counts) = s.range_moments(2, 8).unwrap();
        assert_eq!(
            counts,
            FoldCounts {
                folded: 1,
                boundary: 1
            }
        );
    }

    /// A four-chunk, two-signal stream plus its decoded truth.
    fn stream_fixture() -> (Vec<crate::transmission::Transmission>, Vec<Vec<f64>>) {
        use crate::decoder::Decoder;
        let mut enc = SbrEncoder::new(2, 64, SbrConfig::new(60, 48)).unwrap();
        let mut txs = Vec::new();
        for t in 0..4 {
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|r| {
                    (0..64)
                        .map(|i| ((i + t * 17 + r * 5) as f64 * 0.3).sin() * 4.0)
                        .collect()
                })
                .collect();
            txs.push(enc.encode(&rows).unwrap());
        }
        let mut truth: Vec<Vec<f64>> = vec![Vec::new(); 2];
        let mut dec = Decoder::new();
        for tx in &txs {
            let rec = dec.decode(tx).unwrap();
            for (col, r) in truth.iter_mut().zip(&rec) {
                col.extend_from_slice(r);
            }
        }
        (txs, truth)
    }

    #[test]
    fn engine_matches_aggregate_stream_and_decode() {
        use crate::decoder::Decoder;
        let (txs, truth) = stream_fixture();
        let mut engine = QueryEngine::from_transmissions(&txs).unwrap();
        assert_eq!(engine.len(), 4);
        assert_eq!(engine.total_samples(), 256);
        for (signal, series) in truth.iter().enumerate() {
            for (t0, t1) in [
                (0usize, 256usize),
                (30, 200),
                (64, 128),
                (255, 256),
                (1, 255),
            ] {
                let agg = engine.aggregate(signal, t0, t1).unwrap();
                let mut d = Decoder::new();
                let replay = aggregate_stream(&mut d, &txs, signal, t0, t1).unwrap();
                let slice = &series[t0..t1];
                let sum: f64 = slice.iter().sum();
                assert!(
                    (agg.sum - sum).abs() < 1e-9 * (1.0 + sum.abs()),
                    "sum s{signal} [{t0},{t1})"
                );
                let lo = slice.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(agg.min.to_bits(), lo.to_bits(), "min s{signal} [{t0},{t1})");
                assert_eq!(agg.max.to_bits(), hi.to_bits(), "max s{signal} [{t0},{t1})");
                assert_eq!(agg.count, t1 - t0);
                assert_eq!(agg.min.to_bits(), replay.min.to_bits());
                assert_eq!(agg.max.to_bits(), replay.max.to_bits());
                // Per-aggregate queries agree with the full plan.
                assert_eq!(
                    engine.query(signal, t0, t1, Aggregate::Min).unwrap(),
                    agg.min
                );
                assert_eq!(
                    engine.query(signal, t0, t1, Aggregate::Max).unwrap(),
                    agg.max
                );
                let qsum = engine.query(signal, t0, t1, Aggregate::Sum).unwrap();
                assert!((qsum - sum).abs() < 1e-9 * (1.0 + sum.abs()));
                let qavg = engine.query(signal, t0, t1, Aggregate::Avg).unwrap();
                assert!((qavg - sum / (t1 - t0) as f64).abs() < 1e-9 * (1.0 + qavg.abs()));
            }
        }
    }

    #[test]
    fn engine_plan_cache_shares_and_counts() {
        #[cfg(feature = "obs")]
        use sbr_obs::{MetricsRecorder, Recorder};
        let (txs, _) = stream_fixture();
        let mut engine = QueryEngine::from_transmissions(&txs).unwrap();
        #[cfg(feature = "obs")]
        let recorder = MetricsRecorder::new();
        #[cfg(feature = "obs")]
        engine.set_obs(QueryObs::new(&recorder));
        assert_eq!(engine.plan_cache_len(), 0);
        engine.query(0, 10, 200, Aggregate::Sum).unwrap();
        // AVG shares SUM's plan; MIN/MAX share the full plan.
        engine.query(0, 10, 200, Aggregate::Avg).unwrap();
        assert_eq!(engine.plan_cache_len(), 1);
        engine.query(0, 10, 200, Aggregate::Min).unwrap();
        engine.query(0, 10, 200, Aggregate::Max).unwrap();
        assert_eq!(engine.plan_cache_len(), 2);
        // Errors are never cached.
        assert!(engine.query(0, 200, 10, Aggregate::Sum).is_err());
        assert!(engine.query(9, 10, 200, Aggregate::Sum).is_err());
        assert_eq!(engine.plan_cache_len(), 2);
        #[cfg(feature = "obs")]
        {
            let snap = recorder.snapshot();
            assert_eq!(snap.counter("sbr_core.query.plan_cache.hits"), Some(2));
            assert_eq!(snap.counter("sbr_core.query.plan_cache.misses"), Some(2));
            assert!(snap.counter("sbr_core.query.intervals_folded").unwrap_or(0) > 0);
        }
    }

    #[test]
    fn engine_plan_cache_is_bounded() {
        let (txs, _) = stream_fixture();
        let mut engine = QueryEngine::from_transmissions(&txs).unwrap();
        let mut issued = 0usize;
        'outer: for t0 in 0..256usize {
            for t1 in (t0 + 1)..=256 {
                engine.query(0, t0, t1, Aggregate::Sum).unwrap();
                issued += 1;
                if issued > 5000 {
                    break 'outer;
                }
            }
        }
        assert!(
            engine.plan_cache_len() <= 4096,
            "{}",
            engine.plan_cache_len()
        );
    }

    #[test]
    fn engine_gap_chunks_error_and_covers_reports_them() {
        use crate::decoder::Decoder;
        let (txs, _) = stream_fixture();
        let mut decoder = Decoder::new();
        let mut engine = QueryEngine::new();
        for (c, tx) in txs.iter().enumerate() {
            let x_new = decoder.peek_x_new(tx).unwrap();
            decoder.apply_updates_only(tx).unwrap();
            if c == 2 {
                engine.push_chunk(None);
            } else {
                engine.push_chunk(Some(ChunkSummary::from_transmission(tx, x_new).unwrap()));
            }
        }
        assert!(engine.covers(0, 0, 128));
        assert!(!engine.covers(0, 0, 256));
        assert!(!engine.covers(0, 130, 140));
        assert!(engine.covers(1, 192, 256));
        assert!(engine.aggregate(0, 0, 128).is_ok());
        let err = engine.aggregate(0, 0, 256).unwrap_err().to_string();
        assert!(err.contains("no compressed-domain summary"), "{err}");
    }

    #[test]
    fn engine_rejects_bad_ranges_with_stream_messages() {
        let (txs, _) = stream_fixture();
        let mut engine = QueryEngine::from_transmissions(&txs).unwrap();
        let err = engine.aggregate(0, 0, 1000).unwrap_err().to_string();
        assert!(err.contains("runs past the 256 logged samples"), "{err}");
        let err = engine.aggregate(0, 9, 9).unwrap_err().to_string();
        assert!(err.contains("empty range"), "{err}");
        let err = engine.aggregate(7, 0, 10).unwrap_err().to_string();
        assert!(err.contains("no signal 7"), "{err}");
        let err = QueryEngine::new()
            .aggregate(0, 0, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("no transmissions"), "{err}");
    }
}
