//! Aggregate queries answered *directly on the compressed representation*.
//!
//! The approximate-query-processing literature the paper builds on
//! (histogram/wavelet synopses) values synopses you can query without
//! expanding. SBR's interval records have the same property: over a record
//! `ŷ_i = a·X[shift + i] + b`, the sum of reconstructed values on any
//! sub-range is `a · Σ X[..] + b · len`, and `Σ X[..]` comes from a prefix
//! sum over the base signal in O(1); MIN/MAX of a whole record are
//! precomputed, and only a record a range splits has its covered base
//! window scanned.
//!
//! A [`ChunkSummary`] is built *once* per chunk (at ingest or stream
//! load): per-interval moments (Σ, min/max of the reconstruction,
//! pre-folded through `a·X+b`) plus prefix sums over the base signal, so a
//! range inside one chunk folds each touched interval in O(1) and decodes
//! only the (at most two) intervals it splits mid-way.
//!
//! The [`QueryEngine`] indexes a stream's summaries and, beside them, the
//! whole-row moments of every signal over aligned power-of-two blocks of
//! chunks. A range over `C` indexed chunks resolves its (at most two)
//! partly covered head and tail chunks through their summaries and its
//! fully covered interior from at most `2·⌈log₂ C⌉` blocks, so a cold query
//! costs O(log C) folds beyond the two boundary chunks, whatever its span.
//! A small plan cache keyed by `(signal, range)` serves repeats. The engine
//! answers the TAG aggregate set — SUM/AVG/MIN/MAX — without ever inflating
//! a chunk. A summary also holds everything needed to decode its chunk
//! ([`ChunkSummary::reconstruct`]), so an indexed stream needs no second
//! per-chunk state for reconstruction.

use std::collections::HashMap;

use crate::decoder::Decoder;
use crate::error::{Result, SbrError};
use crate::get_intervals::reconstruct_flat;
use crate::interval::IntervalRecord;
use crate::obs::QueryObs;
use crate::regression::PrefixStats;
use crate::transmission::{Frame, Transmission};

/// SUM/AVG/MIN/MAX of one signal over an absolute sample range, as
/// answered by [`QueryEngine::aggregate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeAggregate {
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

/// How a query was resolved: `folded` precomputed moments (whole interval
/// records or whole chunk blocks), or `boundary` intervals — split mid-way
/// by the range, so only the covered window was evaluated directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoldCounts {
    /// Moments folded whole: interval records fully covered by the range,
    /// and chunk blocks of the engine's block index.
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

/// Precomputed aggregate moments of a stretch of the reconstruction — one
/// interval record, folded through `a·X+b`, or one signal's rows over a
/// block of chunks: the sum, minimum and maximum.
#[derive(Clone, Copy, Debug)]
struct SegMoments {
    sum: f64,
    min: f64,
    max: f64,
}

impl SegMoments {
    /// The moments of an empty stretch: the identity of [`merge`](Self::merge).
    const EMPTY: SegMoments = SegMoments {
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// The moments of two adjacent stretches. Min and max are order-free,
    /// so a merged block's extrema are bit-identical to a sequential scan.
    fn merge(&self, other: &SegMoments) -> SegMoments {
        SegMoments {
            sum: self.sum + other.sum,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

/// An owned, immutable compressed-domain synopsis of one chunk.
///
/// Built once — at base-station ingest or stream load — from the chunk's
/// interval records and the `X_new` base layout they reference. Stores:
///
/// - the records (sorted, coverage-validated) and their end offsets,
/// - per-record `SegMoments` (Σ/min/max of the reconstruction, computed
///   with the *same floating-point expression* the decoder uses, so min and
///   max are bit-for-bit identical to a decode-then-scan),
/// - prefix sums over the base signal (`PrefixStats`), so the sum over a
///   record's covered window costs O(1).
///
/// All offsets are flat chunk indices (`signal · m + local`).
#[derive(Clone, Debug)]
pub struct ChunkSummary {
    records: Vec<IntervalRecord>,
    /// `records[k]` covers `[records[k].start, ends[k])`.
    ends: Vec<usize>,
    moments: Vec<SegMoments>,
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
        if n_total == 0 {
            return Err(SbrError::Corrupt("empty batch shape".into()));
        }
        let mut records = records.to_vec();
        records.sort_by_key(|r| r.start);
        match records.first() {
            Some(first) if first.start != 0 => {
                return Err(SbrError::Corrupt(format!(
                    "records leave [0, {}) uncovered",
                    first.start
                )));
            }
            None => {
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
            moments.push(mom);
        }
        Ok(ChunkSummary {
            records,
            ends,
            moments,
            base,
            base_stats,
            n_signals,
            m,
            n_total,
        })
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

    /// Decode the chunk: one row of `m` samples per signal. The same
    /// function on the same records and `X_new` as [`Decoder::decode`], so
    /// the output is bit-identical to it.
    pub fn reconstruct(&self) -> Result<Vec<Vec<f64>>> {
        let flat = reconstruct_flat(&self.base, &self.records, self.n_total)?;
        Ok(flat.chunks_exact(self.m).map(<[f64]>::to_vec).collect())
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

    /// Sum, min and max of the reconstruction over the non-empty `[t0, t1)`.
    /// Fully covered records come straight from their moments; split records
    /// evaluate only their covered window.
    pub fn range_moments(&self, t0: usize, t1: usize) -> Result<(f64, f64, f64, FoldCounts)> {
        self.check_range(t0, t1)?;
        if t0 == t1 {
            return Err(SbrError::InconsistentState("empty range".into()));
        }
        let mut counts = FoldCounts::default();
        let mut acc = SegMoments::EMPTY;
        for k in self.touching(t0, t1) {
            let (rs, re) = (self.records[k].start as usize, self.ends[k]);
            let (s, e) = (t0.max(rs), t1.min(re));
            if s == rs && e == re {
                acc = acc.merge(&self.moments[k]);
                counts.folded += 1;
            } else {
                let (min, max) = self.partial_min_max(k, s, e);
                let sum = self.partial_sum(k, s, e);
                acc = acc.merge(&SegMoments { sum, min, max });
                counts.boundary += 1;
            }
        }
        Ok((acc.sum, acc.min, acc.max, counts))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct PlanKey {
    signal: usize,
    t0: usize,
    t1: usize,
}

/// Plans cached before the map is wholesale-cleared. Summaries are
/// immutable and chunks append-only, so cached plans never go stale;
/// the cap only bounds memory on adversarial query streams.
const PLAN_CACHE_CAP: usize = 4096;

/// Whole-row [`SegMoments`] of every signal (indexed by signal) over one
/// aligned block of chunks; `None` when the block holds a placeholder.
type Block = Option<Box<[SegMoments]>>;

fn cold(c: usize) -> SbrError {
    SbrError::InconsistentState(format!("chunk {c} has no summary yet (cold)"))
}

/// The compressed-domain query engine: an append-only sequence of
/// [`ChunkSummary`] synopses, a block index over them and a small plan
/// cache.
///
/// Serves SUM/AVG/MIN/MAX (the TAG set) over absolute sample ranges
/// `[t0, t1)` of one signal without ever decoding a chunk. The (at most
/// two) partly covered head and tail chunks fold their touched intervals'
/// precomputed moments, and only intervals the range splits mid-way have
/// their covered window evaluated directly. The fully covered chunks in
/// between fold from the block index: level `k` holds every signal's
/// whole-row moments over each complete, `2^k`-aligned block of chunks, and
/// a run of chunks decomposes into at most `2·⌈log₂ C⌉` such blocks.
///
/// Chunks are appended with [`index_frame`](Self::index_frame), which
/// rejects a chunk whose shape disagrees with the index, and extends the
/// block index in O(n_signals · log C).
/// [`push_placeholder`](Self::push_placeholder) reserves the slot of a
/// chunk whose summary is not built yet (the cold prefix of a lazily
/// loaded log); a block holding one has no entry, so the range walk
/// descends into it, and queries touching a placeholder fail until the
/// owner rebuilds the engine. Appending never invalidates cached plans:
/// summaries are immutable and past ranges are unaffected.
#[derive(Debug, Default)]
pub struct QueryEngine {
    chunks: Vec<Option<ChunkSummary>>,
    /// `blocks[k][j]` covers chunks `[j·2^k, (j+1)·2^k)`; level `k` holds
    /// one entry per complete block, `chunks.len() >> k` of them.
    blocks: Vec<Vec<Block>>,
    n_signals: usize,
    m: usize,
    plans: HashMap<PlanKey, RangeAggregate>,
    obs: QueryObs,
}

impl QueryEngine {
    /// An empty engine with no chunks and a disabled obs bundle.
    pub fn new() -> Self {
        QueryEngine::default()
    }

    /// Attach pre-registered query metrics (see [`QueryObs`]).
    pub fn set_obs(&mut self, obs: QueryObs) {
        self.obs = obs;
    }

    /// Build an engine over a whole transmission stream: replays base
    /// updates chunk by chunk (no reconstruction) and summarizes each.
    pub fn from_transmissions(txs: &[Transmission]) -> Result<Self> {
        let mut tracker = Decoder::new();
        let mut engine = QueryEngine::new();
        for tx in txs {
            engine.index_frame(&mut tracker, &Frame::data(0, tx.clone()))?;
        }
        Ok(engine)
    }

    /// Index the next frame of a stream: summarize the chunk against the
    /// `X_new` layout `tracker` validates the frame into, check its shape,
    /// then advance `tracker` over the frame and append the summary and
    /// its block-index entries. The station's ingest, its hydration replay
    /// and stream loading all go through here. A frame the tracker or the
    /// index rejects (out of sequence or epoch, malformed updates, no
    /// interval records, records that do not cover the chunk or overrun
    /// the base, a shape other than the indexed chunks') is a typed error,
    /// and on any error neither the engine nor `tracker` has changed.
    pub fn index_frame(&mut self, tracker: &mut Decoder, frame: &Frame) -> Result<()> {
        let tx = &frame.tx;
        let (n_signals, m) = (tx.n_signals as usize, tx.samples_per_signal as usize);
        let (summary, rows) =
            tracker.step(frame.kind, frame.epoch, &frame.snapshot, tx, |x_new| {
                let summary = ChunkSummary::new(&tx.intervals, x_new, n_signals, m)?;
                // The first chunk sets the shape; every later one must match it.
                if self.m != 0 && (n_signals, m) != (self.n_signals, self.m) {
                    return Err(SbrError::InconsistentState(format!(
                        "chunk shape {n_signals}×{m} differs from the indexed {}×{}",
                        self.n_signals, self.m
                    )));
                }
                let rows = (0..n_signals)
                    .map(|s| {
                        let (sum, min, max, _) = summary.range_moments(s * m, (s + 1) * m)?;
                        Ok(SegMoments { sum, min, max })
                    })
                    .collect::<Result<Box<[SegMoments]>>>()?;
                Ok((summary, rows))
            })?;
        (self.n_signals, self.m) = (n_signals, m);
        self.chunks.push(Some(summary));
        self.push_block(Some(rows));
        Ok(())
    }

    /// Append a placeholder for a chunk whose summary is not built yet.
    /// Placeholders may come before the first summary fixes the shape (a
    /// loaded station's cold prefix): they only need a block-index slot.
    pub fn push_placeholder(&mut self) {
        self.chunks.push(None);
        self.push_block(None);
    }

    /// Push the newest chunk's level-0 entry, then the entry of every
    /// aligned block it completes, each merged from its two halves.
    fn push_block(&mut self, mut entry: Block) {
        for level in 0.. {
            if self.blocks.len() == level {
                self.blocks.push(Vec::new());
            }
            let Some(blocks) = self.blocks.get_mut(level) else {
                return;
            };
            blocks.push(entry);
            // An odd count: the entry just pushed opens a block one level up.
            if blocks.len() % 2 == 1 {
                return;
            }
            let Some((_, [left, right])) = blocks.split_last_chunk::<2>() else {
                return;
            };
            entry = match (left, right) {
                (Some(l), Some(r)) => {
                    Some(l.iter().zip(r.iter()).map(|(a, b)| a.merge(b)).collect())
                }
                _ => None,
            };
        }
    }

    /// The summary of chunk `c`; `None` past the end and for placeholders.
    pub fn chunk(&self, c: usize) -> Option<&ChunkSummary> {
        self.chunks.get(c).and_then(Option::as_ref)
    }

    /// Chunks indexed (including placeholders).
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

    /// Fold `signal` over the absolute samples `[t0, t1)` inside chunk `c`
    /// from the chunk's summary.
    fn fold_chunk(
        &self,
        signal: usize,
        c: usize,
        (t0, t1): (usize, usize),
        acc: &mut SegMoments,
        counts: &mut FoldCounts,
    ) -> Result<()> {
        let summary = self.chunk(c).ok_or_else(|| cold(c))?;
        let row = signal * self.m;
        let chunk_t0 = c * self.m;
        let (sum, min, max, fc) =
            summary.range_moments(row + (t0 - chunk_t0), row + (t1 - chunk_t0))?;
        *acc = acc.merge(&SegMoments { sum, min, max });
        counts.absorb(fc);
        Ok(())
    }

    /// Fold `signal` over the fully covered chunks `[a, b)` from the block
    /// index, taking at each step the largest aligned block that starts at
    /// the next chunk and fits: at most `2·⌈log₂ C⌉` blocks. A block that
    /// holds a placeholder has no entry, so the walk descends into it and
    /// fails on the first cold chunk, as a chunk-by-chunk walk would.
    fn fold_blocks(
        &self,
        signal: usize,
        (a, b): (usize, usize),
        acc: &mut SegMoments,
        counts: &mut FoldCounts,
    ) -> Result<()> {
        let mut c = a;
        while c < b {
            let mut level = c.trailing_zeros().min((b - c).ilog2()) as usize;
            loop {
                match self.blocks.get(level).and_then(|l| l.get(c >> level)) {
                    Some(Some(block)) => {
                        let row = block.get(signal).ok_or_else(|| {
                            SbrError::InconsistentState(format!("stream has no signal {signal}"))
                        })?;
                        *acc = acc.merge(row);
                        counts.folded += 1;
                        c += 1 << level;
                        break;
                    }
                    Some(None) if level > 0 => level -= 1,
                    Some(None) => return Err(cold(c)),
                    None => {
                        return Err(SbrError::InconsistentState(format!(
                            "block index has no level-{level} block at chunk {c}"
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolve (or fetch from the plan cache) the aggregate over
    /// `[t0, t1)` of `signal`. Errors are never cached.
    fn plan(&mut self, signal: usize, t0: usize, t1: usize) -> Result<RangeAggregate> {
        let key = PlanKey { signal, t0, t1 };
        if let Some(v) = self.plans.get(&key) {
            self.obs.plan_hits.inc();
            return Ok(*v);
        }
        self.check(signal, t0, t1)?;
        let m = self.m;
        let mut acc = SegMoments::EMPTY;
        let mut counts = FoldCounts::default();
        // Chunks [a, b) are fully covered; the head chunk a − 1 and the
        // tail chunk b may be partly covered (a > b: the range lies inside
        // the head chunk). Folding head, interior, tail in order names the
        // first cold chunk of the range on failure.
        let (a, b) = (t0.div_ceil(m), t1 / m);
        if t0 < a * m {
            self.fold_chunk(signal, a - 1, (t0, t1.min(a * m)), &mut acc, &mut counts)?;
        }
        self.fold_blocks(signal, (a, b), &mut acc, &mut counts)?;
        if a <= b && b * m < t1 {
            self.fold_chunk(signal, b, (t0.max(b * m), t1), &mut acc, &mut counts)?;
        }
        let count = t1 - t0;
        let agg = RangeAggregate {
            sum: acc.sum,
            avg: acc.sum / count as f64,
            min: acc.min,
            max: acc.max,
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
    /// compressed domain. Every aggregate of a range shares one plan.
    pub fn query(&mut self, signal: usize, t0: usize, t1: usize, agg: Aggregate) -> Result<f64> {
        // lint:allow(determinism): obs-gated latency probe — timing never feeds query results
        let start = self.obs.enabled().then(std::time::Instant::now);
        let plan = self.plan(signal, t0, t1)?;
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

    /// All four TAG aggregates of `signal` over `[t0, t1)` at once.
    pub fn aggregate(&mut self, signal: usize, t0: usize, t1: usize) -> Result<RangeAggregate> {
        // lint:allow(determinism): obs-gated latency probe — timing never feeds query results
        let start = self.obs.enabled().then(std::time::Instant::now);
        let agg = self.plan(signal, t0, t1)?;
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

    /// One real transmission: its records, X_new and reconstruction.
    fn chunk_and_truth() -> (Vec<IntervalRecord>, Vec<f64>, Vec<f64>) {
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
    fn summary_rejects_empty_and_out_of_bounds_ranges() {
        let (records, base, _) = chunk_and_truth();
        let s = ChunkSummary::new(&records, base, 2, 128).unwrap();
        assert!(s.range_moments(5, 5).is_err());
        assert!(s.range_moments(10, 5).is_err());
        assert!(s.range_moments(0, 300).is_err());
        assert!(s.range_moments(250, 257).is_err());
    }

    #[test]
    fn summary_rejects_corrupt_records_at_construction() {
        let past_base = [IntervalRecord {
            start: 0,
            shift: 100,
            a: 1.0,
            b: 0.0,
        }];
        assert!(ChunkSummary::new(&past_base, vec![0.0; 4], 1, 8).is_err());
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
        assert!(ChunkSummary::new(&overlapping, Vec::new(), 1, 8).is_err());
        let err = ChunkSummary::new(&[], Vec::new(), 2, 4).unwrap_err();
        assert!(err.to_string().contains("no records cover"), "{err}");
        assert!(ChunkSummary::new(&[], Vec::new(), 0, 4).is_err());
    }

    #[test]
    fn fallback_only_summary_works_without_base() {
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
        // First record: 1, 3, 5, 7; second: 10 × 4.
        let (sum, lo, hi, _) = s.range_moments(0, 8).unwrap();
        assert_eq!((sum, lo, hi), (16.0 + 40.0, 1.0, 10.0));
        assert_eq!(s.range_moments(2, 6).unwrap().0, 5.0 + 7.0 + 20.0);
        let (sum, lo, hi, _) = s.range_moments(1, 3).unwrap();
        assert_eq!((sum, lo, hi), (8.0, 3.0, 5.0));
    }

    #[test]
    fn summary_matches_reconstruction_and_pins_min_max_bits() {
        let (records, base, rec) = chunk_and_truth();
        let s = ChunkSummary::new(&records, base, 2, 128).unwrap();
        for (t0, t1) in [(0, 256), (0, 1), (5, 97), (100, 200), (250, 256), (13, 14)] {
            let slice = &rec[t0..t1];
            let direct: f64 = slice.iter().sum();
            let (fast, qlo, qhi, _) = s.range_moments(t0, t1).unwrap();
            assert!(
                (direct - fast).abs() <= 1e-9 * (1.0 + direct.abs()),
                "[{t0},{t1}): {fast} vs {direct}"
            );
            let lo = slice.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
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
        let (sum, _, _, counts) = s.range_moments(0, 8).unwrap();
        assert_eq!(sum, 56.0);
        assert_eq!(
            counts,
            FoldCounts {
                folded: 2,
                boundary: 0
            }
        );
        let (sum, _, _, counts) = s.range_moments(2, 6).unwrap();
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
    fn stream_fixture() -> (Vec<Transmission>, Vec<Vec<f64>>) {
        stream_of(4, 64)
    }

    /// A `chunks`-chunk stream of two signals × `m` samples plus its
    /// decoded truth (one series per signal).
    fn stream_of(chunks: usize, m: usize) -> (Vec<Transmission>, Vec<Vec<f64>>) {
        let mut enc = SbrEncoder::new(2, m, SbrConfig::new(m - 4, 3 * m / 4)).unwrap();
        let mut txs = Vec::new();
        for t in 0..chunks {
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|r| {
                    (0..m)
                        .map(|i| ((i + t * 17 + r * 5) as f64 * 0.3).sin() * 4.0 + t as f64 * 0.1)
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
    fn engine_matches_decode() {
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
    fn summaries_reconstruct_bit_identically_to_the_decoder() {
        let (txs, _) = stream_fixture();
        let engine = QueryEngine::from_transmissions(&txs).unwrap();
        let mut decoder = Decoder::new();
        for (c, tx) in txs.iter().enumerate() {
            let summary = engine.chunk(c).unwrap();
            assert_eq!(summary.reconstruct().unwrap(), decoder.decode(tx).unwrap());
        }
    }

    #[test]
    fn index_frame_leaves_engine_and_tracker_unchanged_on_error() {
        let (txs, _) = stream_fixture();
        let mut tracker = Decoder::new();
        let mut engine = QueryEngine::new();
        engine
            .index_frame(&mut tracker, &Frame::data(0, txs[0].clone()))
            .unwrap();
        let w = txs[1].w as usize;
        let with_update = |slot: u64, width: usize| {
            let mut tx = txs[1].clone();
            tx.base_updates.push(crate::transmission::BaseUpdate {
                slot,
                values: vec![0.0; width],
            });
            Frame::data(0, tx)
        };
        let mut no_intervals = txs[1].clone();
        no_intervals.intervals.clear();
        let mut overrun = txs[1].clone();
        overrun.intervals[0].shift = 1 << 20;
        for (label, frame) in [
            ("no intervals", Frame::data(0, no_intervals)),
            ("update width", with_update(0, w + 1)),
            ("slot gap", with_update(99, w)),
            (
                "ragged snapshot",
                Frame::resync(1, vec![1.0; w + 1], txs[1].clone()),
            ),
            ("record overruns X_new", Frame::data(0, overrun)),
            ("stale resync", Frame::resync(0, vec![], txs[1].clone())),
            ("ahead", Frame::data(0, txs[2].clone())),
        ] {
            let state = |t: &Decoder, e: &QueryEngine| {
                let (base, next_seq) = t.snapshot();
                let base = base.map(|b| b.values().to_vec());
                (t.epoch(), next_seq, base, e.len())
            };
            let before = state(&tracker, &engine);
            let (base, next_seq) = tracker.snapshot();
            let mut twin = Decoder::resume_v2(base, next_seq, tracker.epoch(), tracker.node());
            let decode_err = twin.decode_frame(&frame).unwrap_err();
            let index_err = engine.index_frame(&mut tracker, &frame).unwrap_err();
            // One step validates for both: the same fault wins either way.
            assert_eq!(
                std::mem::discriminant(&decode_err),
                std::mem::discriminant(&index_err),
                "{label}: {decode_err} vs {index_err}"
            );
            assert_eq!(before, state(&tracker, &engine), "{label} changed state");
        }
        engine
            .index_frame(&mut tracker, &Frame::data(0, txs[1].clone()))
            .unwrap();
        assert_eq!(engine.len(), 2);
    }

    #[test]
    fn engine_plan_cache_shares_and_counts() {
        use crate::obs::{MetricsRecorder, Recorder};
        let (txs, _) = stream_fixture();
        let mut engine = QueryEngine::from_transmissions(&txs).unwrap();
        let recorder = MetricsRecorder::new();
        engine.set_obs(QueryObs::new(&recorder));
        assert_eq!(engine.plan_cache_len(), 0);
        // Every aggregate of one range shares one plan.
        engine.query(0, 10, 200, Aggregate::Sum).unwrap();
        engine.query(0, 10, 200, Aggregate::Avg).unwrap();
        engine.query(0, 10, 200, Aggregate::Min).unwrap();
        engine.query(0, 10, 200, Aggregate::Max).unwrap();
        assert_eq!(engine.plan_cache_len(), 1);
        // Errors are never cached.
        assert!(engine.query(0, 200, 10, Aggregate::Sum).is_err());
        assert!(engine.query(9, 10, 200, Aggregate::Sum).is_err());
        assert_eq!(engine.plan_cache_len(), 1);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("sbr_core.query.plan_cache.hits"), Some(3));
        assert_eq!(snap.counter("sbr_core.query.plan_cache.misses"), Some(1));
        assert!(snap.counter("sbr_core.query.intervals_folded").unwrap_or(0) > 0);
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
    fn engine_placeholders_error_until_rebuilt() {
        let (txs, _) = stream_fixture();
        let mut engine = engine_with_placeholders(&txs, &[2]);
        assert_eq!(engine.len(), 4);
        assert!(engine.chunk(2).is_none() && engine.chunk(4).is_none());
        assert!(engine.chunk(3).is_some());
        assert!(engine.aggregate(0, 0, 128).is_ok());
        assert!(engine.aggregate(1, 192, 256).is_ok());
        for (t0, t1) in [(0, 256), (130, 140)] {
            let err = engine.aggregate(0, t0, t1).unwrap_err().to_string();
            assert!(err.contains("chunk 2 has no summary yet"), "{err}");
        }
    }

    #[test]
    fn engine_rejects_a_chunk_of_another_shape() {
        let (txs, _) = stream_fixture();
        let mut tracker = Decoder::new();
        let mut engine = QueryEngine::new();
        for tx in &txs[..3] {
            engine
                .index_frame(&mut tracker, &Frame::data(0, tx.clone()))
                .unwrap();
        }
        // Same 128 values, same W, relabelled 4 signals × 32.
        let mut odd = txs[3].clone();
        odd.n_signals = 4;
        odd.samples_per_signal = 32;
        let err = engine
            .index_frame(&mut tracker, &Frame::data(0, odd))
            .unwrap_err()
            .to_string();
        assert!(err.contains("4×32 differs from the indexed 2×64"), "{err}");
        assert_eq!((engine.len(), tracker.next_seq()), (3, 3));
        engine
            .index_frame(&mut tracker, &Frame::data(0, txs[3].clone()))
            .unwrap();
        assert!(engine.aggregate(0, 0, 256).is_ok());
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

    /// Index `txs` in order, pushing a placeholder (and only advancing the
    /// tracker) in place of every chunk listed in `cold`.
    fn engine_with_placeholders(txs: &[Transmission], cold: &[usize]) -> QueryEngine {
        let mut tracker = Decoder::new();
        let mut engine = QueryEngine::new();
        for (c, tx) in txs.iter().enumerate() {
            let frame = Frame::data(0, tx.clone());
            if cold.contains(&c) {
                tracker.decode_frame(&frame).unwrap();
                engine.push_placeholder();
            } else {
                engine.index_frame(&mut tracker, &frame).unwrap();
            }
        }
        engine
    }

    /// Every range whose ends sit on, or 5 samples past, a chunk boundary
    /// either answers like a decode-then-scan of `truth` or — when it
    /// touches a placeholder — fails naming the first cold chunk a
    /// chunk-by-chunk walk meets.
    fn assert_block_walk_matches_chunk_walk(engine: &mut QueryEngine, truth: &[Vec<f64>]) {
        let m = engine.samples_per_signal();
        let total = engine.total_samples();
        let ends: Vec<usize> = (0..=engine.len())
            .flat_map(|c| [c * m, c * m + 5])
            .filter(|&t| t <= total)
            .collect();
        for (signal, series) in truth.iter().enumerate() {
            for &t0 in &ends {
                for &t1 in ends.iter().filter(|&&t1| t1 > t0) {
                    let first_cold = (t0 / m..t1.div_ceil(m)).find(|&c| engine.chunk(c).is_none());
                    match (engine.aggregate(signal, t0, t1), first_cold) {
                        (Ok(agg), None) => {
                            let slice = &series[t0..t1];
                            let sum: f64 = slice.iter().sum();
                            let lo = slice.iter().copied().fold(f64::INFINITY, f64::min);
                            let hi = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                            assert!(
                                (agg.sum - sum).abs() <= 1e-9 * sum.abs().max(1.0),
                                "sum s{signal} [{t0},{t1})"
                            );
                            assert_eq!(
                                agg.min.to_bits(),
                                lo.to_bits(),
                                "min s{signal} [{t0},{t1})"
                            );
                            assert_eq!(
                                agg.max.to_bits(),
                                hi.to_bits(),
                                "max s{signal} [{t0},{t1})"
                            );
                        }
                        (Err(err), Some(c)) => {
                            let want = format!("chunk {c} has no summary yet (cold)");
                            assert!(err.to_string().contains(&want), "[{t0},{t1}): {err}");
                        }
                        (got, want) => panic!("[{t0},{t1}): {got:?}, first cold chunk {want:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn placeholders_before_the_first_summary_keep_the_block_index_aligned() {
        // A loaded station's order: the cold prefix's placeholders arrive
        // before any summary has fixed the shape.
        let (txs, truth) = stream_of(37, 32);
        let mut engine = engine_with_placeholders(&txs, &[0, 1, 2, 3, 4]);
        assert_eq!((engine.len(), engine.total_samples()), (37, 37 * 32));
        assert!(engine.aggregate(1, 5 * 32, 37 * 32).is_ok());
        assert_block_walk_matches_chunk_walk(&mut engine, &truth);
    }

    #[test]
    fn a_placeholder_inside_a_block_names_the_first_cold_chunk() {
        // Chunk 13 sits inside the complete blocks [12, 14), [8, 16),
        // [0, 16) and [0, 32); chunk 20 inside [16, 24) and [16, 32).
        let (txs, truth) = stream_of(37, 32);
        let mut engine = engine_with_placeholders(&txs, &[13, 20]);
        let err = engine.aggregate(0, 0, 37 * 32).unwrap_err().to_string();
        assert!(err.contains("chunk 13 has no summary yet (cold)"), "{err}");
        let err = engine
            .aggregate(0, 14 * 32, 37 * 32)
            .unwrap_err()
            .to_string();
        assert!(err.contains("chunk 20 has no summary yet (cold)"), "{err}");
        assert_block_walk_matches_chunk_walk(&mut engine, &truth);
    }

    #[test]
    fn cold_queries_fold_at_most_two_blocks_per_level() {
        use crate::obs::{MetricsRecorder, Recorder};
        let (chunks, m) = (37usize, 32usize);
        let (txs, _) = stream_of(chunks, m);
        let mut engine = QueryEngine::from_transmissions(&txs).unwrap();
        let recorder = MetricsRecorder::new();
        engine.set_obs(QueryObs::new(&recorder));
        let mut folded_before = 0;
        let mut folds = |engine: &mut QueryEngine, t0: usize, t1: usize| {
            engine.aggregate(0, t0, t1).unwrap();
            let folded = recorder
                .snapshot()
                .counter("sbr_core.query.intervals_folded")
                .unwrap_or(0);
            std::mem::replace(&mut folded_before, folded).abs_diff(folded)
        };
        // The whole history is the blocks [0, 32), [32, 36) and [36, 37).
        assert_eq!(folds(&mut engine, 0, chunks * m), 3);
        let bound = 2 * u64::from(chunks.next_power_of_two().ilog2());
        for c0 in 0..chunks {
            for c1 in c0 + 1..=chunks {
                assert!(folds(&mut engine, c0 * m, c1 * m) <= bound, "[{c0}, {c1})");
                // Unaligned: the head and tail chunks fold their own records.
                let (t0, t1) = (c0 * m + 3, c1 * m - 2);
                let edge = |c: usize, s: usize, e: usize| {
                    let base = c * m;
                    engine
                        .chunk(c)
                        .unwrap()
                        .range_moments(s - base, e - base)
                        .unwrap()
                        .3
                        .folded
                };
                let records = if c1 - c0 == 1 {
                    edge(c0, t0, t1)
                } else {
                    edge(c0, t0, (c0 + 1) * m) + edge(c1 - 1, (c1 - 1) * m, t1)
                };
                let got = folds(&mut engine, t0, t1);
                assert!(
                    got <= bound + records,
                    "[{t0}, {t1}): {got} > {bound} + {records}"
                );
            }
        }
    }
}
