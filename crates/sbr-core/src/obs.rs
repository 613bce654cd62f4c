//! Observability facade for the encode pipeline.
//!
//! Re-exports the `sbr-obs` handle types and provides [`EncodeObs`], the
//! pre-registered bundle of every pipeline metric, carried inside
//! [`SbrConfig`](crate::SbrConfig) so it reaches
//! `GetBase`/`Search`/`GetIntervals`/`BestMap` through the existing
//! plumbing. This is the only module of the crate that names `sbr_obs`.
//! The default bundle is disabled: every hook costs one branch.
//!
//! Metric names follow the `crate.module.name` convention:
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `sbr_core.sbr.encode_ns` | histogram | whole `encode` call |
//! | `sbr_core.get_base.build_ns` | histogram | candidate construction |
//! | `sbr_core.get_base.matrix_cells` | gauge | `K×K` benefit-matrix size |
//! | `sbr_core.get_base.fit_cache.hits` | counter | pair errors served from the memoized matrix |
//! | `sbr_core.get_base.fit_cache.misses` | counter | pair errors that required a fresh fit |
//! | `sbr_core.get_base.fit_cache.bytes` | gauge | approximate fit-cache footprint after `GetBase` |
//! | `sbr_core.search.run_ns` | histogram | insertion-count search |
//! | `sbr_core.search.probes` | counter | `GetIntervals` probes run |
//! | `sbr_core.search.probe_ns` | histogram | one `Search` probe (`CalculateError`) |
//! | `sbr_core.probe_cache.hits` | counter | probe fits served from a cached entry |
//! | `sbr_core.probe_cache.misses` | counter | probe fits that created a cache entry |
//! | `sbr_core.probe_cache.bytes` | gauge | approximate cache footprint after `Search` |
//! | `sbr_core.get_intervals.run_ns` | histogram | one splitting pass |
//! | `sbr_core.best_map.calls` | counter | interval fits attempted |
//! | `sbr_core.best_map.direct_sweeps` | counter | whole-dictionary SSE sweeps |
//! | `sbr_core.best_map.base_direct_sweeps` | counter | base-prefix region SSE sweeps |
//! | `sbr_core.best_map.cand_direct_sweeps` | counter | candidate region SSE sweeps |
//! | `sbr_core.best_map.base_wins` | counter | fits won by a base mapping |
//! | `sbr_core.best_map.fallback_wins` | counter | fits won by the linear fall-back |
//! | `sbr_core.base_signal.inserted` | counter | base intervals inserted |
//! | `sbr_core.base_signal.evicted` | counter | LFU slots overwritten |
//! | `sbr_core.base_signal.slots` | gauge | dictionary slots in use |
//! | `sbr_core.sbr.tx_mapped_intervals` | counter | transmitted intervals using the base |
//! | `sbr_core.sbr.tx_fallback_intervals` | counter | transmitted intervals using the fall-back |
//! | `sbr_core.codec.encode_ns` / `decode_ns` | histogram | wire codec |
//! | `sbr_core.codec.resync_frames` | counter | resync frames emitted (overflow or reboot) |
//! | `sbr_core.query.query_ns` | histogram | one compressed-domain range query |
//! | `sbr_core.query.plan_cache.hits` | counter | queries served from a cached plan |
//! | `sbr_core.query.plan_cache.misses` | counter | queries that computed a fresh plan |
//! | `sbr_core.query.intervals_folded` | counter | precomputed moments folded whole (interval records or chunk blocks) |
//! | `sbr_core.query.boundary_decodes` | counter | intervals a range split mid-way (partial scan) |
//!
//! The encoder never names frames. The sensor-network layer, which
//! knows a frame's `(node, epoch, seq)` identity, writes its lifecycle
//! events (`encoded`, `queued`, …) through [`EncodeObs::recorder`] with
//! `sbr_obs::frame_event`, into the same trace log as the link and
//! base-station events.

use std::sync::Arc;

pub use sbr_obs::{
    Counter, Gauge, Histogram, MetricsRecorder, NoopRecorder, Recorder, Snapshot, Span,
};

/// Pre-registered handles for every encode-pipeline metric.
///
/// The default is fully disabled (every operation one branch); attach
/// a live recorder with
/// [`SbrConfig::with_recorder`](crate::SbrConfig::with_recorder).
/// Cloning shares the underlying storage.
#[derive(Clone, Debug, Default)]
pub struct EncodeObs {
    recorder: Option<Arc<dyn Recorder>>,
    /// Whole `encode` call.
    pub encode_ns: Histogram,
    /// `GetBase` candidate construction.
    pub get_base_ns: Histogram,
    /// Insertion-count binary search.
    pub search_ns: Histogram,
    /// One `Search` probe (`CalculateError` for one insertion count).
    pub probe_ns: Histogram,
    /// One `GetIntervals` splitting pass.
    pub get_intervals_ns: Histogram,
    /// Wire-codec encode.
    pub codec_encode_ns: Histogram,
    /// Wire-codec decode.
    pub codec_decode_ns: Histogram,
    /// Resync frames emitted (retransmit-buffer overflow or reboot).
    pub resync_frames: Counter,
    /// `BestMap` fits attempted.
    pub best_map_calls: Counter,
    /// Whole-dictionary SSE sweeps.
    pub direct_sweeps: Counter,
    /// Base-prefix region SSE sweeps.
    pub base_direct_sweeps: Counter,
    /// Candidate region SSE sweeps.
    pub cand_direct_sweeps: Counter,
    /// Fits won by a base-signal mapping.
    pub base_wins: Counter,
    /// Fits won by the linear fall-back.
    pub fallback_wins: Counter,
    /// `GetIntervals` probes the insertion search ran.
    pub search_probes: Counter,
    /// Probe-cache fits served from an existing `(start, len)` entry.
    pub cache_hits: Counter,
    /// Probe-cache fits that had to create their `(start, len)` entry.
    pub cache_misses: Counter,
    /// Approximate probe-cache footprint in bytes after `Search`.
    pub cache_bytes: Gauge,
    /// `GetBase` pair errors served from the memoized matrix.
    pub fit_cache_hits: Counter,
    /// `GetBase` pair errors that required a fresh fit.
    pub fit_cache_misses: Counter,
    /// Approximate fit-cache footprint in bytes after `GetBase`.
    pub fit_cache_bytes: Gauge,
    /// Base intervals inserted into the dictionary.
    pub base_inserted: Counter,
    /// Dictionary slots overwritten by LFU eviction.
    pub base_evicted: Counter,
    /// Transmitted intervals mapped onto the base signal.
    pub tx_mapped_intervals: Counter,
    /// Transmitted intervals using the linear fall-back.
    pub tx_fallback_intervals: Counter,
    /// Dictionary slots currently in use.
    pub base_slots: Gauge,
    /// `K×K` benefit-matrix size of the last `GetBase` run.
    pub matrix_cells: Gauge,
}

impl EncodeObs {
    /// Register every pipeline metric on `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        let r = recorder.as_ref();
        EncodeObs {
            resync_frames: r.counter("sbr_core.codec.resync_frames"),
            encode_ns: r.histogram("sbr_core.sbr.encode_ns"),
            get_base_ns: r.histogram("sbr_core.get_base.build_ns"),
            search_ns: r.histogram("sbr_core.search.run_ns"),
            probe_ns: r.histogram("sbr_core.search.probe_ns"),
            get_intervals_ns: r.histogram("sbr_core.get_intervals.run_ns"),
            codec_encode_ns: r.histogram("sbr_core.codec.encode_ns"),
            codec_decode_ns: r.histogram("sbr_core.codec.decode_ns"),
            best_map_calls: r.counter("sbr_core.best_map.calls"),
            direct_sweeps: r.counter("sbr_core.best_map.direct_sweeps"),
            base_direct_sweeps: r.counter("sbr_core.best_map.base_direct_sweeps"),
            cand_direct_sweeps: r.counter("sbr_core.best_map.cand_direct_sweeps"),
            base_wins: r.counter("sbr_core.best_map.base_wins"),
            fallback_wins: r.counter("sbr_core.best_map.fallback_wins"),
            search_probes: r.counter("sbr_core.search.probes"),
            cache_hits: r.counter("sbr_core.probe_cache.hits"),
            cache_misses: r.counter("sbr_core.probe_cache.misses"),
            cache_bytes: r.gauge("sbr_core.probe_cache.bytes"),
            fit_cache_hits: r.counter("sbr_core.get_base.fit_cache.hits"),
            fit_cache_misses: r.counter("sbr_core.get_base.fit_cache.misses"),
            fit_cache_bytes: r.gauge("sbr_core.get_base.fit_cache.bytes"),
            base_inserted: r.counter("sbr_core.base_signal.inserted"),
            base_evicted: r.counter("sbr_core.base_signal.evicted"),
            tx_mapped_intervals: r.counter("sbr_core.sbr.tx_mapped_intervals"),
            tx_fallback_intervals: r.counter("sbr_core.sbr.tx_fallback_intervals"),
            base_slots: r.gauge("sbr_core.base_signal.slots"),
            matrix_cells: r.gauge("sbr_core.get_base.matrix_cells"),
            recorder: Some(recorder),
        }
    }

    /// Whether a live recorder is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<dyn Recorder>> {
        self.recorder.as_ref()
    }

    /// Start a scoped timer recording into `hist` and tracing through
    /// the attached recorder.
    pub fn span(&self, name: &'static str, hist: &Histogram) -> Span {
        Span::start(name, hist, self.recorder.as_ref())
    }
}

/// Pre-registered handles for the compressed-domain query engine
/// ([`QueryEngine`](crate::query::QueryEngine)).
///
/// The default is fully disabled (every operation one branch); attach
/// a live recorder by constructing with [`QueryObs::new`].
#[derive(Clone, Debug, Default)]
pub struct QueryObs {
    /// One compressed-domain range query end to end.
    pub query_ns: Histogram,
    /// Queries answered from a cached plan.
    pub plan_hits: Counter,
    /// Queries that resolved and cached a fresh plan.
    pub plan_misses: Counter,
    /// Precomputed moments folded whole: interval records of a query's
    /// boundary chunks, and chunk blocks of the engine's block index.
    pub intervals_folded: Counter,
    /// Intervals a range split mid-way: only their covered window is
    /// decoded (scanned), never the whole chunk.
    pub boundary_decodes: Counter,
}

impl QueryObs {
    /// Register every query-engine metric on `recorder`.
    pub fn new(r: &dyn Recorder) -> Self {
        QueryObs {
            query_ns: r.histogram("sbr_core.query.query_ns"),
            plan_hits: r.counter("sbr_core.query.plan_cache.hits"),
            plan_misses: r.counter("sbr_core.query.plan_cache.misses"),
            intervals_folded: r.counter("sbr_core.query.intervals_folded"),
            boundary_decodes: r.counter("sbr_core.query.boundary_decodes"),
        }
    }

    /// Whether per-query timing should be collected.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.query_ns.is_enabled()
    }
}
