//! The base station of Figure 1: one append-only log per sensor holding the
//! compressed chunks (and, interleaved, the base-signal updates), plus
//! historical reconstruction queries over any past range.
//!
//! Frames are validated eagerly (sequence order, CRC, parseability, and a
//! compressed-domain summary for the chunk index) but never decoded at
//! ingest. The index is the log's only derived per-chunk state: range
//! aggregates are answered from it, and a historical chunk is decoded from
//! its own summary (records plus the `X_new` layout they reference), with
//! no replay. Interior mutability is behind [`parking_lot::Mutex`] so one
//! station can be shared by concurrent receiver threads.
//!
//! The station is the receiver half of the end-to-end ARQ protocol: it
//! classifies every frame as accepted, duplicate (silently discarded — the
//! sender retransmitted something already applied) or a gap
//! ([`sbr_core::SbrError::Gap`], the frame cannot be applied against the
//! current replica), and it accepts resync frames that re-anchor a sensor's
//! stream at a higher epoch after unrecoverable loss or a node reboot.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use parking_lot::Mutex;
pub use sbr_core::RangeAggregate;
use sbr_core::{codec, BaseSignal, Decoder, Frame, FrameKind, QueryEngine, QueryObs, SbrError};
use sbr_obs::{Counter, Recorder};

use crate::storage::{self, CheckpointState, SegmentWriter, DEFAULT_SEGMENT_BYTES};
use crate::NodeId;

/// Pre-registered handles for the segmented storage engine: sealed
/// segments (each seal also replaces the store's one checkpoint) and
/// records replayed at recovery (the post-checkpoint tail only — the
/// number the flat-recovery acceptance gate watches). The default is
/// fully disabled; attach a live recorder with [`StorageObs::new`] (or
/// station-wide via [`BaseStation::with_recorder`] /
/// [`BaseStation::load_with_recorder`]).
#[derive(Clone, Debug, Default)]
pub struct StorageObs {
    /// Segments sealed (footer written).
    pub sealed: Counter,
    /// Records replayed while recovering a station from disk.
    pub replayed_records: Counter,
}

impl StorageObs {
    /// Register every storage metric on `recorder`.
    pub fn new(r: &dyn Recorder) -> Self {
        StorageObs {
            sealed: r.counter("sensor_net.storage.segments.sealed"),
            replayed_records: r.counter("sensor_net.storage.segments.replayed_records"),
        }
    }
}

/// One sensor's append-only log.
#[derive(Debug)]
struct SensorLog {
    /// Every logged frame, in store order. A lazily-loaded station keeps
    /// the first `cold` positions as empty placeholders until a
    /// historical query forces [`BaseStation::hydrate_node`].
    frames: Vec<Bytes>,
    /// Leading placeholder count (0 once hydrated, and always 0 for a
    /// station that never restarted).
    cold: usize,
    /// Total frame bytes logged (maintained without hydration).
    payload_bytes: u64,
    tracker: Decoder,
    /// Compressed-domain chunk index: one
    /// [`ChunkSummary`](sbr_core::ChunkSummary) per logged frame (aligned
    /// with `frames`; the first `cold` slots are placeholders until
    /// [`BaseStation::hydrate_node`] rebuilds it).
    engine: QueryEngine,
    /// Durable segment writer (persistent stations only). Owned by the
    /// log so appends happen in arrival order under the same lock that
    /// orders the in-memory log.
    writer: Option<SegmentWriter>,
    /// Store-wide record index of the newest resync frame seen, recorded
    /// in each checkpoint.
    last_resync_at: Option<u64>,
}

impl SensorLog {
    fn new(node: NodeId, obs: QueryObs) -> Self {
        let mut engine = QueryEngine::new();
        engine.set_obs(obs);
        SensorLog {
            frames: Vec::new(),
            cold: 0,
            payload_bytes: 0,
            tracker: Decoder::for_node(node as u64),
            engine,
            writer: None,
            last_resync_at: None,
        }
    }
}

/// A stored stream replayed from its origin through the station's frame
/// step — `codec::decode_exact`, then `QueryEngine::index_frame`, which
/// runs `Decoder::step` — exactly as ingest admitted it. Hydration
/// rebuilds a sensor's chunk index this way, and `storage::verify`
/// audits a store's checkpoints against it.
pub(crate) struct Replay<'a> {
    store: &'a Path,
    pub(crate) engine: QueryEngine,
    pub(crate) tracker: Decoder,
    /// Records replayed so far.
    pub(crate) records: u64,
    /// Record index of the newest resync frame replayed.
    pub(crate) resync_at: Option<u64>,
}

impl<'a> Replay<'a> {
    pub(crate) fn new(node: NodeId, store: &'a Path, obs: QueryObs) -> Self {
        let mut engine = QueryEngine::new();
        engine.set_obs(obs);
        Replay {
            store,
            engine,
            tracker: Decoder::for_node(node as u64),
            records: 0,
            resync_at: None,
        }
    }

    /// Admit the next stored record.
    pub(crate) fn admit(&mut self, raw: &[u8]) -> Result<(), SbrError> {
        let frame = codec::decode_exact(raw)
            .and_then(|f| self.engine.index_frame(&mut self.tracker, &f).map(|()| f))
            .map_err(|e| at_rest(self.store, self.records, e))?;
        if frame.kind == FrameKind::Resync {
            self.resync_at = Some(self.records);
        }
        self.records += 1;
        Ok(())
    }

    /// Whether the replayed decoder stands at `epoch`, `next_seq` and
    /// `base`, the base compared bit for bit.
    pub(crate) fn is_at(&self, epoch: u32, next_seq: u64, base: Option<&BaseSignal>) -> bool {
        let bits = |b: &BaseSignal| {
            let (w, values, meta) = b.to_raw();
            (
                w,
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                meta,
            )
        };
        self.tracker.epoch() == epoch
            && self.tracker.next_seq() == next_seq
            && self.tracker.base().map(bits) == base.map(bits)
    }
}

/// A record of `store` the frame step refused was damaged at rest: a
/// continuity break (a gap, a duplicate, an epoch going backwards) is
/// `InconsistentState`, other damage keeps its class; both name the
/// store and the record.
fn at_rest(store: &Path, record: u64, e: SbrError) -> SbrError {
    let at = format!("store {} record {record}", store.display());
    match e {
        SbrError::InconsistentState(m) => SbrError::InconsistentState(format!("{at}: {m}")),
        SbrError::Gap { .. } => SbrError::InconsistentState(format!("{at}: {e}")),
        SbrError::Corrupt(m) => SbrError::Corrupt(format!("{at}: {m}")),
        other => other,
    }
}

/// How the station classified one received frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Receipt {
    /// In-sequence frame, applied and logged.
    Accepted,
    /// The sender retransmitted something already applied (stale epoch or
    /// already-seen sequence number); discarded without error — this is
    /// normal ARQ behavior, not corruption.
    Duplicate,
    /// A resync frame re-anchored the sensor's stream at a new epoch; the
    /// chunks lost in the gap are gone for good, everything from here on
    /// is exact again.
    Resynced,
}

/// The base station: per-sensor logs + reconstruction.
#[derive(Debug)]
pub struct BaseStation {
    logs: Mutex<BTreeMap<NodeId, SensorLog>>,
    persist_dir: Option<PathBuf>,
    /// Segment size budget before a seal (persistent stations).
    segment_bytes: u64,
    query_obs: QueryObs,
    storage_obs: StorageObs,
}

impl Default for BaseStation {
    fn default() -> Self {
        BaseStation {
            logs: Mutex::new(BTreeMap::new()),
            persist_dir: None,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            query_obs: QueryObs::default(),
            storage_obs: StorageObs::default(),
        }
    }
}

impl BaseStation {
    /// An empty in-memory station.
    pub fn new() -> Self {
        BaseStation::default()
    }

    /// A station that also appends every accepted frame to per-sensor log
    /// files under `dir` (Figure 1's durable architecture): frames survive
    /// a restart via [`BaseStation::load`]. It starts empty, so a frame
    /// for a sensor whose store under `dir` already holds records is an
    /// [`SbrError::InconsistentState`]: reopen such a tree with
    /// [`BaseStation::load`].
    pub fn with_persistence(dir: impl Into<PathBuf>) -> Self {
        BaseStation {
            persist_dir: Some(dir.into()),
            ..BaseStation::default()
        }
    }

    /// Override the segment size budget (bytes before a seal). Chainable;
    /// only meaningful for persistent stations.
    pub fn with_segment_size(mut self, segment_bytes: u64) -> Self {
        self.segment_bytes = segment_bytes.max(1);
        self
    }

    /// Attach pre-registered metrics: every sensor's compressed-domain
    /// query engine records plan-cache hit/miss and interval-fold counters
    /// on `recorder`, and the storage engine records seal counters.
    /// Chainable after any constructor.
    pub fn with_recorder(mut self, recorder: &dyn Recorder) -> Self {
        self.query_obs = QueryObs::new(recorder);
        self.storage_obs = StorageObs::new(recorder);
        for log in self.logs.lock().values_mut() {
            log.engine.set_obs(self.query_obs.clone());
        }
        self
    }

    /// Rebuild a station from the segmented stores a persistent station
    /// wrote to `dir`. Recovery is bounded: per sensor it loads the
    /// newest checkpoint and replays only the records after it (at most
    /// one segment's worth plus whatever sealed since the checkpoint)
    /// through the receive path's frame step — never the whole history.
    /// Only once that tail replays clean are torn tails (crash
    /// mid-append) truncated and crash leftovers swept; a store that
    /// fails recovery is left as it was. New frames keep appending to
    /// the same store.
    pub fn load(dir: impl Into<PathBuf>) -> Result<Self, SbrError> {
        Self::load_impl(dir.into(), QueryObs::default(), StorageObs::default())
    }

    /// [`BaseStation::load`] with metrics: recovery increments
    /// `sensor_net.storage.segments.replayed_records` per tail record
    /// replayed, and the loaded station keeps recording query and
    /// storage counters on `recorder`.
    pub fn load_with_recorder(
        dir: impl Into<PathBuf>,
        recorder: &dyn Recorder,
    ) -> Result<Self, SbrError> {
        Self::load_impl(
            dir.into(),
            QueryObs::new(recorder),
            StorageObs::new(recorder),
        )
    }

    fn load_impl(
        dir: PathBuf,
        query_obs: QueryObs,
        storage_obs: StorageObs,
    ) -> Result<Self, SbrError> {
        let station = BaseStation {
            persist_dir: Some(dir.clone()),
            query_obs,
            storage_obs,
            ..BaseStation::default()
        };
        for node in storage::nodes(&dir) {
            let scanned = storage::scan(&dir, node)?;
            let mut log = SensorLog::new(node, station.query_obs.clone());
            if let Some(ck) = &scanned.checkpoint {
                // Resume from the checkpoint snapshot; everything it
                // covers stays cold (placeholder frames + unindexed
                // chunks) until a historical query hydrates it.
                let cold = ck.state.records as usize;
                log.cold = cold;
                log.frames = vec![Bytes::new(); cold];
                for _ in 0..cold {
                    log.engine.push_placeholder();
                }
                log.tracker = Decoder::resume_v2(
                    ck.state.base.clone(),
                    ck.state.next_seq,
                    ck.state.epoch,
                    node as u64,
                );
                log.payload_bytes = ck.state.payload_bytes;
                log.last_resync_at = ck.state.resync_at;
            }
            station.logs.lock().insert(node, log);
            let store = storage::sensor_dir(&dir, node);
            let first = scanned.checkpoint.as_ref().map_or(0, |ck| ck.state.records);
            for (record, frame) in (first..).zip(scanned.tail_frames.iter().cloned()) {
                // Re-ingest the original bytes through the normal path
                // (minus re-persisting), so the in-memory log is
                // byte-identical to the store.
                match station.ingest(node, frame, false) {
                    Ok(Receipt::Duplicate) => {
                        let dup = SbrError::InconsistentState("duplicate frame".into());
                        return Err(at_rest(&store, record, dup));
                    }
                    Err(e) => return Err(at_rest(&store, record, e)),
                    Ok(_) => station.storage_obs.replayed_records.inc(),
                }
            }
            let writer = SegmentWriter::resume(&dir, node, station.segment_bytes, &scanned)?;
            if let Some(log) = station.logs.lock().get_mut(&node) {
                log.writer = Some(writer);
            }
        }
        Ok(station)
    }

    /// Receive one wire frame from `node`, classifying it for the ARQ
    /// protocol: `Accepted` / `Resynced` frames were applied and logged,
    /// `Duplicate`s are silently discarded, and anything unusable —
    /// corruption, or a sequence gap the sender must repair by
    /// retransmission or resync — is an error. Ingest also advances a
    /// base-signal tracker and indexes the chunk's summary (cheap: no
    /// reconstruction).
    pub fn receive_frame(&self, node: NodeId, frame: Bytes) -> Result<Receipt, SbrError> {
        self.ingest(node, frame, true)
    }

    fn ingest(&self, node: NodeId, frame: Bytes, persist: bool) -> Result<Receipt, SbrError> {
        let parsed = codec::decode_exact(&frame)?;
        let mut logs = self.logs.lock();
        let log = match logs.entry(node) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let mut log = SensorLog::new(node, self.query_obs.clone());
                if let (true, Some(dir)) = (persist, &self.persist_dir) {
                    log.writer = Some(self.open_empty_store(dir, node)?);
                }
                e.insert(log)
            }
        };
        let (epoch, next_seq) = (log.tracker.epoch(), log.tracker.next_seq());
        let receipt = match parsed.kind {
            FrameKind::Data => {
                if parsed.epoch < epoch || (parsed.epoch == epoch && parsed.tx.seq < next_seq) {
                    // Already applied (the ACK releasing it was lost, or
                    // the channel duplicated the frame).
                    return Ok(Receipt::Duplicate);
                }
                if parsed.epoch > epoch {
                    // A data frame from an epoch we never entered: its
                    // resync frame is missing — that is a gap.
                    return Err(SbrError::Gap {
                        node: node as u64,
                        expected: next_seq,
                        got: parsed.tx.seq,
                    });
                }
                Receipt::Accepted
            }
            FrameKind::Resync => {
                if parsed.epoch <= epoch {
                    // Stale or retransmitted resync; already anchored at
                    // or past this epoch.
                    return Ok(Receipt::Duplicate);
                }
                Receipt::Resynced
            }
        };
        log.engine.index_frame(&mut log.tracker, &parsed)?;
        log.frames.push(frame.clone());
        log.payload_bytes += frame.len() as u64;
        if receipt == Receipt::Resynced {
            log.last_resync_at = Some(log.frames.len() as u64 - 1);
        }
        // Persist under the logs lock: the durable store sees appends in
        // exactly the order the in-memory log does, and seal-boundary
        // snapshots are taken at the precise record the checkpoint claims
        // to cover.
        if let (true, Some(writer)) = (persist, log.writer.as_mut()) {
            if writer.append(&frame)?.is_some() {
                self.storage_obs.sealed.inc();
                let (base, next_seq) = log.tracker.snapshot();
                writer.write_checkpoint(&CheckpointState {
                    records: writer.records_total(),
                    payload_bytes: writer.payload_total(),
                    epoch: log.tracker.epoch(),
                    next_seq,
                    resync_at: log.last_resync_at,
                    base,
                })?;
            }
        }
        Ok(receipt)
    }

    /// Open the writer for a sensor this station has no log for yet. Its
    /// store must hold no records: appending a fresh stream after an old
    /// one would break the store's continuity chain for good. A refused
    /// store is left as it was.
    fn open_empty_store(&self, dir: &Path, node: NodeId) -> Result<SegmentWriter, SbrError> {
        let scanned = storage::scan(dir, node)?;
        if scanned.records_total > 0 {
            return Err(SbrError::InconsistentState(format!(
                "sensor {node}: store {} already holds {} records; reopen it with \
                 BaseStation::load instead of appending a fresh stream",
                storage::sensor_dir(dir, node).display(),
                scanned.records_total
            )));
        }
        SegmentWriter::resume(dir, node, self.segment_bytes, &scanned)
    }

    /// Pull a sensor's checkpoint-covered history off disk into memory:
    /// fill the placeholder frames, replay the whole log through the
    /// frame step to rebuild the compressed-domain chunk index, and
    /// cross-check the replayed decoder — epoch, seq and base signal —
    /// against the live tracker, which resumed from the checkpoint.
    /// A no-op for fully-warm logs; historical queries call this on
    /// demand.
    fn hydrate_node(&self, node: NodeId) -> Result<(), SbrError> {
        let Some(dir) = self.persist_dir.clone() else {
            return Ok(());
        };
        let mut logs = self.logs.lock();
        let Some(log) = logs.get_mut(&node) else {
            return Ok(());
        };
        if log.cold == 0 {
            return Ok(());
        }
        let covered = log
            .writer
            .as_ref()
            .map(|w| w.sealed().len() as u32)
            .unwrap_or(0);
        let mut cold = storage::hydrate(&dir, node, covered)?;
        if cold.len() < log.cold {
            return Err(SbrError::InconsistentState(format!(
                "sensor {node}: store holds {} cold records but the checkpoint covers {}",
                cold.len(),
                log.cold
            )));
        }
        cold.truncate(log.cold);
        for (slot, frame) in log.frames.iter_mut().zip(cold) {
            *slot = frame;
        }
        let store = storage::sensor_dir(&dir, node);
        let mut replay = Replay::new(node, &store, self.query_obs.clone());
        for raw in &log.frames {
            replay.admit(raw)?;
        }
        let live = &log.tracker;
        if !replay.is_at(live.epoch(), live.next_seq(), live.base()) {
            return Err(SbrError::InconsistentState(format!(
                "sensor {node}: {} replays to epoch {} seq {} but the live tracker, \
                 resumed from its checkpoint, is at epoch {} seq {} (or holds another base)",
                store.display(),
                replay.tracker.epoch(),
                replay.tracker.next_seq(),
                live.epoch(),
                live.next_seq()
            )));
        }
        log.engine = replay.engine;
        log.cold = 0;
        Ok(())
    }

    /// Sensors with at least one logged chunk.
    pub fn sensors(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.logs.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of chunks logged for `node`.
    pub fn chunk_count(&self, node: NodeId) -> usize {
        self.logs.lock().get(&node).map_or(0, |l| l.frames.len())
    }

    /// Total frame bytes logged for `node` (the payload footprint of its
    /// store, excluding framing overhead). Answered from accounting —
    /// never forces a hydration.
    pub fn log_bytes(&self, node: NodeId) -> usize {
        self.logs
            .lock()
            .get(&node)
            .map_or(0, |l| l.payload_bytes as usize)
    }

    /// Leading chunks of `node` still cold on disk (0 once hydrated or
    /// for a station that never restarted). Exposed so tests and tooling
    /// can observe recovery laziness.
    pub fn cold_chunks(&self, node: NodeId) -> usize {
        self.logs.lock().get(&node).map_or(0, |l| l.cold)
    }

    /// Sequence number expected next from `node` (for cumulative ACKs).
    pub fn next_seq(&self, node: NodeId) -> u64 {
        self.logs
            .lock()
            .get(&node)
            .map_or(0, |l| l.tracker.next_seq())
    }

    /// Epoch `node`'s stream is currently anchored to.
    pub fn epoch(&self, node: NodeId) -> u32 {
        self.logs.lock().get(&node).map_or(0, |l| l.tracker.epoch())
    }

    /// The raw logged frames of `node`, in arrival order (for differential
    /// tests and external archival). Hydrates cold history first.
    pub fn raw_frames(&self, node: NodeId) -> Vec<Bytes> {
        let _ = self.hydrate_node(node);
        self.logs
            .lock()
            .get(&node)
            .map_or_else(Vec::new, |l| l.frames.clone())
    }

    /// Parse (without reconstructing) every logged frame of `node`.
    /// Hydrates cold history first.
    pub fn frames(&self, node: NodeId) -> Result<Vec<Frame>, SbrError> {
        self.hydrate_node(node)?;
        let logs = self.logs.lock();
        let log = logs
            .get(&node)
            .ok_or_else(|| SbrError::InconsistentState(format!("unknown sensor {node}")))?;
        log.frames.iter().map(|f| codec::decode_exact(f)).collect()
    }

    /// Hydrate `node` when it has cold history and `reaches_cold` says the
    /// request touches it — an O(1) test against the cold watermark.
    fn hydrate_if(
        &self,
        node: NodeId,
        reaches_cold: impl FnOnce(&SensorLog) -> bool,
    ) -> Result<(), SbrError> {
        let needs_history = self
            .logs
            .lock()
            .get(&node)
            .is_some_and(|log| log.cold > 0 && reaches_cold(log));
        if needs_history {
            self.hydrate_node(node)?;
        }
        Ok(())
    }

    /// [`BaseStation::hydrate_if`] for a request starting at absolute
    /// sample `t0`. With no indexed chunk yet (`m` unknown) everything
    /// logged is cold.
    fn hydrate_from_sample(&self, node: NodeId, t0: usize) -> Result<(), SbrError> {
        self.hydrate_if(node, |log| {
            t0.checked_div(log.engine.samples_per_signal())
                .is_none_or(|chunk| chunk < log.cold)
        })
    }

    /// Reconstruct chunks `[from, to)` of `node` (log positions), each
    /// decoded from its own chunk summary: O(to − from), no frame parse and
    /// no replay. A range starting in cold history hydrates it first.
    /// Returns `chunks[t][signal][sample]`.
    pub fn reconstruct_chunks(
        &self,
        node: NodeId,
        from: usize,
        to: usize,
    ) -> Result<Vec<Vec<Vec<f64>>>, SbrError> {
        self.hydrate_if(node, |log| from < log.cold)?;
        let logs = self.logs.lock();
        let log = logs
            .get(&node)
            .ok_or_else(|| SbrError::InconsistentState(format!("unknown sensor {node}")))?;
        if to > log.engine.len() || from > to {
            return Err(SbrError::InconsistentState(format!(
                "sensor {node}: range [{from}, {to}) outside logged 0..{}",
                log.engine.len()
            )));
        }
        (from..to)
            .map(|c| {
                log.engine
                    .chunk(c)
                    .ok_or_else(|| {
                        SbrError::InconsistentState(format!(
                            "sensor {node}: chunk {c} has no summary yet (cold)"
                        ))
                    })?
                    .reconstruct()
            })
            .collect()
    }

    /// SUM/AVG/MIN/MAX of `signal` of `node` over the absolute sample
    /// range `[t0, t1)`, answered from the compressed-domain chunk index
    /// maintained at ingest (see [`sbr_core::QueryEngine`]): the touched
    /// intervals of the (at most two) partly covered boundary chunks plus
    /// O(log #chunks) aligned chunk blocks for the chunks between, no
    /// frame replay, cached plans for repeated queries, and valid across
    /// resyncs because every chunk summary is epoch-self-contained. A
    /// range reaching into the cold history of a lazily loaded station
    /// hydrates it first.
    pub fn aggregate_range(
        &self,
        node: NodeId,
        signal: usize,
        t0: usize,
        t1: usize,
    ) -> Result<RangeAggregate, SbrError> {
        self.hydrate_from_sample(node, t0)?;
        let mut logs = self.logs.lock();
        let log = logs
            .get_mut(&node)
            .ok_or_else(|| SbrError::InconsistentState(format!("unknown sensor {node}")))?;
        log.engine.aggregate(signal, t0, t1)
    }

    /// The decode-then-fold cross-check for [`BaseStation::aggregate_range`]:
    /// reconstructs the covered chunks from their summaries and folds the
    /// range sample by sample. Kept public for cross-checks.
    pub fn aggregate_range_decode(
        &self,
        node: NodeId,
        signal: usize,
        t0: usize,
        t1: usize,
    ) -> Result<RangeAggregate, SbrError> {
        if t1 <= t0 {
            return Err(SbrError::InconsistentState(format!(
                "empty range [{t0}, {t1})"
            )));
        }
        let values = self.reconstruct_signal_range(node, signal, t0, t1)?;
        if values.len() != t1 - t0 {
            return Err(SbrError::InconsistentState(format!(
                "sensor {node}: range [{t0}, {t1}) outside the logged stream"
            )));
        }
        let sum: f64 = values.iter().sum();
        Ok(RangeAggregate {
            sum,
            // lint:allow(panic-reachability): f64 division — cannot panic
            avg: sum / values.len() as f64,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            count: values.len(),
        })
    }

    /// Reconstruct one signal of `node` over the absolute sample range
    /// `[t0, t1)` (samples are numbered from the first logged chunk).
    pub fn reconstruct_signal_range(
        &self,
        node: NodeId,
        signal: usize,
        t0: usize,
        t1: usize,
    ) -> Result<Vec<f64>, SbrError> {
        if t1 < t0 {
            return Err(SbrError::InconsistentState(format!(
                "empty/negative range [{t0}, {t1})"
            )));
        }
        self.hydrate_from_sample(node, t0)?;
        let m = self
            .logs
            .lock()
            .get(&node)
            .map(|log| log.engine.samples_per_signal())
            .filter(|&m| m > 0)
            .ok_or_else(|| SbrError::InconsistentState(format!("sensor {node} has no chunks")))?;
        // lint:allow(panic-reachability): m is checked positive above
        let first_chunk = t0 / m;
        let last_chunk = t1.div_ceil(m);
        let chunks = self.reconstruct_chunks(node, first_chunk, last_chunk)?;
        let mut out = Vec::with_capacity(t1 - t0);
        for (ci, chunk) in chunks.iter().enumerate() {
            let row = chunk.get(signal).ok_or_else(|| {
                SbrError::InconsistentState(format!("sensor {node} has no signal {signal}"))
            })?;
            let chunk_start = (first_chunk + ci) * m;
            for (i, &v) in row.iter().enumerate() {
                let t = chunk_start + i;
                if t >= t0 && t < t1 {
                    out.push(v);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbr_core::{SbrConfig, SbrEncoder};

    fn frames(n_chunks: usize) -> Vec<Bytes> {
        let mut enc = SbrEncoder::new(2, 64, SbrConfig::new(64, 64)).unwrap();
        (0..n_chunks)
            .map(|c| {
                let rows: Vec<Vec<f64>> = (0..2)
                    .map(|r| {
                        (0..64)
                            .map(|i| ((i + c * 64) as f64 * 0.2 + r as f64).sin() * 5.0)
                            .collect()
                    })
                    .collect();
                codec::encode_v2(&Frame::data(0, enc.encode(&rows).unwrap()))
            })
            .collect()
    }

    /// Deliver `f` and require it to be applied — the strict check for
    /// in-order streams, where nothing should ever arrive twice.
    fn accept(bs: &BaseStation, node: NodeId, f: Bytes) {
        assert_eq!(bs.receive_frame(node, f).unwrap(), Receipt::Accepted);
    }

    /// An ARQ-style node stream: v2 frames, resync (buffer overflow) after
    /// `resync_after` chunks.
    fn v2_stream(n_chunks: usize, resync_after: usize) -> Vec<Bytes> {
        rebooting_stream(n_chunks, resync_after, &[])
    }

    /// [`v2_stream`] whose node also reboots (sequence numbers restart at
    /// 0) just before each chunk listed in `reboot_before`.
    fn rebooting_stream(
        n_chunks: usize,
        resync_after: usize,
        reboot_before: &[usize],
    ) -> Vec<Bytes> {
        let mut node = crate::SensorNode::new(1, 2, 64, SbrConfig::new(64, 64)).unwrap();
        node.enable_arq(resync_after.max(1));
        let mut frames = Vec::new();
        for c in 0..n_chunks {
            if reboot_before.contains(&c) {
                node.reboot().unwrap();
            }
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|r| {
                    (0..64)
                        .map(|i| ((i + c * 64) as f64 * 0.23 + r as f64).sin() * 5.0)
                        .collect()
                })
                .collect();
            let mut flush = None;
            for (&a, &b) in rows[0].iter().zip(&rows[1]) {
                flush = node.record(&[a, b]).unwrap().or(flush);
            }
            frames.push(flush.unwrap().frame);
        }
        frames
    }

    /// The independent oracle: a fresh `Decoder` decodes every frame of
    /// `frames` in order with `decode_frame` (resyncs included).
    fn mirror(frames: &[Bytes]) -> Vec<Vec<Vec<f64>>> {
        let mut decoder = Decoder::new();
        frames
            .iter()
            .map(|f| {
                let frame = codec::decode_exact(f).unwrap();
                decoder.decode_frame(&frame).unwrap()
            })
            .collect()
    }

    #[test]
    fn receive_validates_sequence() {
        let bs = BaseStation::new();
        let fs = frames(3);
        assert!(bs.receive_frame(1, fs[1].clone()).is_err()); // gap
        accept(&bs, 1, fs[0].clone());
        assert_eq!(
            bs.receive_frame(1, fs[0].clone()).unwrap(),
            Receipt::Duplicate
        );
        accept(&bs, 1, fs[1].clone());
        accept(&bs, 1, fs[2].clone());
        assert_eq!(bs.chunk_count(1), 3);
    }

    #[test]
    fn receive_frame_classifies_gap_and_duplicate() {
        let bs = BaseStation::new();
        let fs = frames(3);
        let err = bs.receive_frame(1, fs[2].clone()).unwrap_err();
        assert_eq!(
            err,
            SbrError::Gap {
                node: 1,
                expected: 0,
                got: 2
            }
        );
        assert_eq!(
            bs.receive_frame(1, fs[0].clone()).unwrap(),
            Receipt::Accepted
        );
        assert_eq!(
            bs.receive_frame(1, fs[0].clone()).unwrap(),
            Receipt::Duplicate
        );
        assert_eq!(bs.chunk_count(1), 1, "duplicates are not logged");
        assert_eq!(bs.next_seq(1), 1);
    }

    #[test]
    fn corrupt_frames_rejected() {
        let bs = BaseStation::new();
        let mut bad = frames(1)[0].to_vec();
        bad[0] ^= 0xff;
        assert!(bs.receive_frame(1, Bytes::from(bad)).is_err());
        assert_eq!(bs.chunk_count(1), 0);
    }

    /// A frame with bytes after its end is refused before anything is
    /// logged, indexed or persisted: accepted, it would make every later
    /// load of the store fail.
    #[test]
    fn persistent_station_refuses_a_frame_with_trailing_bytes() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-trailing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = frames(1);
        {
            let bs = BaseStation::with_persistence(&dir);
            let mut padded = fs[0].to_vec();
            padded.extend_from_slice(&[1, 2, 3]);
            let err = bs.receive_frame(4, Bytes::from(padded)).unwrap_err();
            assert!(
                matches!(&err, SbrError::Corrupt(m) if m.contains("3 trailing bytes")),
                "{err}"
            );
            assert_eq!((bs.chunk_count(4), bs.log_bytes(4)), (0, 0));
            accept(&bs, 4, fs[0].clone());
        }
        let bs = BaseStation::load(&dir).unwrap();
        assert_eq!(bs.chunk_count(4), 1);
        assert_eq!(bs.raw_frames(4), fs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resync_reanchors_and_replays_exactly() {
        // 6 chunks, overflow-resync after every 2 un-ACKed: the stream
        // contains real resync frames. Feed only what "arrives": everything.
        let fs = v2_stream(6, 2);
        let bs = BaseStation::new();
        let mut resyncs = 0;
        for f in &fs {
            match bs.receive_frame(1, f.clone()).unwrap() {
                Receipt::Resynced => resyncs += 1,
                Receipt::Accepted => {}
                Receipt::Duplicate => panic!("nothing was duplicated"),
            }
        }
        assert!(resyncs > 0, "stream must contain resyncs");
        assert!(bs.epoch(1) > 0);
        // Every chunk reconstructs byte-exactly against a decoder that
        // replays the whole stream — including across resyncs.
        let all = bs.reconstruct_chunks(1, 0, 6).unwrap();
        assert_eq!(all, mirror(&fs));
        // Partial ranges agree with the full replay.
        let mid = bs.reconstruct_chunks(1, 3, 6).unwrap();
        assert_eq!(mid, all[3..6].to_vec());
    }

    #[test]
    fn stream_with_losses_resyncs_and_stays_exact_after() {
        // Drop two chunks mid-stream; the node (unaware) keeps sending, so
        // the station sees a gap at the first post-drop data frame. Feed it
        // the later resync and everything after reconstructs exactly.
        let fs = v2_stream(8, 2);
        let parsed: Vec<Frame> = fs.iter().map(|f| codec::decode_exact(f).unwrap()).collect();
        let bs = BaseStation::new();
        let mut applied = Vec::new();
        for (i, f) in fs.iter().enumerate() {
            if (3..5).contains(&i) {
                continue; // lost in flight
            }
            match bs.receive_frame(1, f.clone()) {
                Ok(Receipt::Accepted) | Ok(Receipt::Resynced) => applied.push(i),
                Ok(Receipt::Duplicate) => panic!("no duplicates injected"),
                Err(SbrError::Gap { .. }) => {} // rejected, not applied
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        // Data frames that follow the loss within the same epoch are
        // rejected as gaps; the next resync frame re-anchors.
        let resync_after_loss = parsed
            .iter()
            .enumerate()
            .position(|(i, f)| i >= 5 && f.kind == FrameKind::Resync)
            .expect("stream has a post-loss resync");
        assert!(applied.contains(&resync_after_loss));
        // Whatever was applied replays cleanly.
        let n = bs.chunk_count(1);
        assert_eq!(n, applied.len());
        bs.reconstruct_chunks(1, 0, n).unwrap();
    }

    #[test]
    fn reconstruct_middle_chunks_replays_base_updates() {
        let bs = BaseStation::new();
        for f in frames(4) {
            accept(&bs, 9, f);
        }
        let mid = bs.reconstruct_chunks(9, 2, 4).unwrap();
        assert_eq!(mid.len(), 2);
        assert_eq!(mid[0].len(), 2);
        assert_eq!(mid[0][0].len(), 64);
        // Must agree with a full replay.
        let all = bs.reconstruct_chunks(9, 0, 4).unwrap();
        assert_eq!(mid[0], all[2]);
        assert_eq!(mid[1], all[3]);
    }

    #[test]
    fn signal_range_query_crosses_chunks() {
        let bs = BaseStation::new();
        for f in frames(3) {
            accept(&bs, 2, f);
        }
        let r = bs.reconstruct_signal_range(2, 1, 50, 140).unwrap();
        assert_eq!(r.len(), 90);
        let all = bs.reconstruct_chunks(2, 0, 3).unwrap();
        let mut expect = Vec::new();
        for chunk in &all {
            expect.extend(&chunk[1]);
        }
        assert_eq!(r, expect[50..140].to_vec());
    }

    #[test]
    fn aggregate_range_matches_reconstruction() {
        let bs = BaseStation::new();
        for f in frames(4) {
            accept(&bs, 3, f);
        }
        let all = bs.reconstruct_chunks(3, 0, 4).unwrap();
        let mut truth = Vec::new();
        for chunk in &all {
            truth.extend(&chunk[1]);
        }
        for (t0, t1) in [(0usize, 256usize), (10, 60), (60, 200), (255, 256)] {
            let agg = bs.aggregate_range(3, 1, t0, t1).unwrap();
            let slice = &truth[t0..t1];
            let sum: f64 = slice.iter().sum();
            let min = slice.iter().copied().fold(f64::INFINITY, f64::min);
            let max = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(agg.count, t1 - t0);
            assert!(
                (agg.sum - sum).abs() < 1e-9 * (1.0 + sum.abs()),
                "[{t0},{t1})"
            );
            assert!((agg.min - min).abs() < 1e-9 * (1.0 + min.abs()));
            assert!((agg.max - max).abs() < 1e-9 * (1.0 + max.abs()));
            assert!((agg.avg - sum / (t1 - t0) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn aggregate_range_rejects_bad_inputs() {
        let bs = BaseStation::new();
        for f in frames(2) {
            accept(&bs, 1, f);
        }
        assert!(bs.aggregate_range(1, 0, 5, 5).is_err());
        assert!(bs.aggregate_range(1, 0, 0, 10_000).is_err());
        assert!(bs.aggregate_range(1, 9, 0, 10).is_err());
        assert!(bs.aggregate_range(2, 0, 0, 10).is_err());
    }

    #[test]
    fn every_chunk_range_matches_the_decoder_mirror() {
        // Overflow resyncs every 2 un-ACKed chunks plus two reboots, so
        // sequence numbers restart mid-log: each chunk is decoded from its
        // own summary and must equal the mirror bit for bit.
        let fs = rebooting_stream(10, 2, &[3, 7]);
        let bs = BaseStation::new();
        let mut receipts = Vec::new();
        for f in &fs {
            receipts.push(bs.receive_frame(1, f.clone()).unwrap());
        }
        assert!(receipts.iter().all(|r| *r != Receipt::Duplicate));
        assert!(receipts.iter().filter(|r| **r == Receipt::Resynced).count() >= 3);
        let want = mirror(&fs);
        for from in 0..=fs.len() {
            for to in from..=fs.len() {
                let got = bs.reconstruct_chunks(1, from, to).unwrap();
                assert!(got == want[from..to], "[{from},{to})");
            }
        }
        assert!(bs.reconstruct_chunks(1, 0, 11).is_err());
        assert!(bs.reconstruct_chunks(1, 5, 4).is_err());
    }

    #[test]
    fn unknown_sensor_is_an_error() {
        let bs = BaseStation::new();
        assert!(bs.reconstruct_chunks(3, 0, 1).is_err());
        assert!(bs.reconstruct_signal_range(3, 0, 0, 5).is_err());
    }

    #[test]
    fn persistent_station_survives_restart() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = frames(5);
        {
            let bs = BaseStation::with_persistence(&dir);
            for f in &fs[..3] {
                accept(&bs, 6, f.clone());
            }
        } // "crash"
        let bs = BaseStation::load(&dir).unwrap();
        assert_eq!(bs.chunk_count(6), 3);
        // The stream continues where it left off, still persisted.
        accept(&bs, 6, fs[3].clone());
        accept(&bs, 6, fs[4].clone());
        let all = bs.reconstruct_chunks(6, 0, 5).unwrap();
        assert_eq!(all.len(), 5);
        // And a second restart sees everything.
        let bs2 = BaseStation::load(&dir).unwrap();
        assert_eq!(bs2.chunk_count(6), 5);
        assert_eq!(bs2.reconstruct_chunks(6, 0, 5).unwrap(), all);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_station_preserves_v2_bytes_across_restart() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-v2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = v2_stream(5, 2);
        {
            let bs = BaseStation::with_persistence(&dir);
            for f in &fs {
                bs.receive_frame(7, f.clone()).unwrap();
            }
        }
        let bs = BaseStation::load(&dir).unwrap();
        assert_eq!(bs.chunk_count(7), 5);
        // Loaded frames are the original bytes, not a re-encoding.
        assert_eq!(bs.raw_frames(7), fs);
        assert!(bs.epoch(7) > 0);
        bs.reconstruct_chunks(7, 0, 5).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_tolerates_truncated_tail() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = frames(3);
        {
            let bs = BaseStation::with_persistence(&dir);
            for f in &fs {
                accept(&bs, 2, f.clone());
            }
        }
        // Chop mid-record inside the active segment.
        let path = dir.join("sensor-2").join("seg-00000000.sbrseg");
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 7]).unwrap();
        let bs = BaseStation::load(&dir).unwrap();
        assert_eq!(bs.chunk_count(2), 2);
        // Appending after the recovery must produce a clean file: re-send
        // the lost chunk and reload once more.
        accept(&bs, 2, fs[2].clone());
        let bs2 = BaseStation::load(&dir).unwrap();
        assert_eq!(bs2.chunk_count(2), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_accounting() {
        let bs = BaseStation::new();
        let fs = frames(2);
        let total: usize = fs.iter().map(Bytes::len).sum();
        for f in fs {
            accept(&bs, 4, f);
        }
        assert_eq!(bs.log_bytes(4), total);
        assert_eq!(bs.sensors(), vec![4]);
    }

    #[test]
    fn aggregate_range_serves_from_compressed_index() {
        let bs = BaseStation::new();
        for f in frames(4) {
            accept(&bs, 3, f);
        }
        // The ingest path must have indexed every chunk.
        {
            let mut logs = bs.logs.lock();
            let log = logs.get_mut(&3).unwrap();
            assert_eq!(log.engine.len(), 4);
            assert_eq!(log.engine.plan_cache_len(), 0);
        }
        for (t0, t1) in [(0usize, 256usize), (10, 60), (60, 200), (255, 256)] {
            let fast = bs.aggregate_range(3, 1, t0, t1).unwrap();
            let slow = bs.aggregate_range_decode(3, 1, t0, t1).unwrap();
            assert_eq!(fast.count, slow.count, "[{t0},{t1})");
            assert!((fast.sum - slow.sum).abs() < 1e-9 * (1.0 + slow.sum.abs()));
            assert_eq!(fast.min.to_bits(), slow.min.to_bits(), "[{t0},{t1}) min");
            assert_eq!(fast.max.to_bits(), slow.max.to_bits(), "[{t0},{t1}) max");
        }
        // The engine path resolved those queries (plans were cached).
        let mut logs = bs.logs.lock();
        assert!(logs.get_mut(&3).unwrap().engine.plan_cache_len() > 0);
    }

    #[test]
    fn compressed_index_spans_resyncs() {
        // Chunk summaries are epoch-self-contained (a resync chunk anchors
        // on its own snapshot), so the index keeps serving across epoch
        // bumps.
        let fs = v2_stream(6, 2);
        let bs = BaseStation::new();
        for f in &fs {
            bs.receive_frame(1, f.clone()).unwrap();
        }
        assert!(bs.epoch(1) > 0, "log must contain a resync");
        assert_eq!(bs.logs.lock()[&1].engine.len(), 6);
        let all = bs.reconstruct_chunks(1, 0, 6).unwrap();
        let mut truth = Vec::new();
        for chunk in &all {
            truth.extend(&chunk[0]);
        }
        for (t0, t1) in [(0usize, 384usize), (100, 300), (130, 140), (383, 384)] {
            let agg = bs.aggregate_range(1, 0, t0, t1).unwrap();
            let slice = &truth[t0..t1];
            let sum: f64 = slice.iter().sum();
            let min = slice.iter().copied().fold(f64::INFINITY, f64::min);
            let max = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(agg.count, t1 - t0);
            assert!(
                (agg.sum - sum).abs() < 1e-9 * (1.0 + sum.abs()),
                "[{t0},{t1})"
            );
            assert_eq!(agg.min.to_bits(), min.to_bits(), "[{t0},{t1}) min");
            assert_eq!(agg.max.to_bits(), max.to_bits(), "[{t0},{t1}) max");
        }
    }

    #[test]
    fn station_query_metrics_reach_the_recorder() {
        use sbr_obs::Recorder as _;
        let recorder = sbr_obs::MetricsRecorder::new();
        let bs = BaseStation::new().with_recorder(&recorder);
        for f in frames(3) {
            accept(&bs, 5, f);
        }
        bs.aggregate_range(5, 0, 10, 150).unwrap();
        bs.aggregate_range(5, 0, 10, 150).unwrap();
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("sbr_core.query.plan_cache.misses"), Some(1));
        assert_eq!(snap.counter("sbr_core.query.plan_cache.hits"), Some(1));
        assert!(snap.counter("sbr_core.query.intervals_folded").unwrap_or(0) > 0);
    }

    #[test]
    fn lazy_load_replays_only_the_tail_and_hydrates_on_demand() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-lazy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = frames(12);
        {
            // Tiny segments: every frame seals a segment + checkpoint.
            let bs = BaseStation::with_persistence(&dir).with_segment_size(1);
            for f in &fs {
                accept(&bs, 6, f.clone());
            }
        } // "crash"
        let rec = sbr_obs::MetricsRecorder::new();
        let bs = BaseStation::load_with_recorder(&dir, &rec).unwrap();
        assert_eq!(bs.chunk_count(6), 12);
        // The newest checkpoint covers everything: nothing replayed, the
        // whole history stays cold.
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter("sensor_net.storage.segments.replayed_records"),
            Some(0)
        );
        assert_eq!(bs.cold_chunks(6), 12);
        // Accounting works without hydration.
        assert_eq!(bs.log_bytes(6), fs.iter().map(Bytes::len).sum::<usize>());
        assert_eq!(bs.cold_chunks(6), 12, "log_bytes must not hydrate");
        // A historical query hydrates, and everything matches a
        // never-restarted replay.
        let all = bs.reconstruct_chunks(6, 0, 12).unwrap();
        assert_eq!(bs.cold_chunks(6), 0, "historical query hydrated");
        assert_eq!(bs.raw_frames(6), fs, "hydration restores original bytes");
        let fresh = BaseStation::new();
        for f in &fs {
            accept(&fresh, 6, f.clone());
        }
        assert_eq!(fresh.reconstruct_chunks(6, 0, 12).unwrap(), all);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpointed_load_replays_at_most_a_tenth_of_a_long_history() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-tenth-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            // ~2 KiB segments: 240 frames seal many segments, each with a
            // checkpoint, so a restart replays only the active tail.
            let bs = BaseStation::with_persistence(&dir).with_segment_size(2 * 1024);
            for f in frames(240) {
                accept(&bs, 1, f);
            }
        }
        let records = crate::storage::verify(&dir, 1).unwrap().records;
        assert_eq!(records, 240);
        let rec = sbr_obs::MetricsRecorder::new();
        BaseStation::load_with_recorder(&dir, &rec).unwrap();
        let replayed = rec
            .snapshot()
            .counter("sensor_net.storage.segments.replayed_records")
            .unwrap();
        assert!(
            replayed * 10 <= records,
            "replayed {replayed} of {records} records: checkpoints are not engaging"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sealing_station_counts_segments_on_recorder() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-seals-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = sbr_obs::MetricsRecorder::new();
        let bs = BaseStation::with_persistence(&dir)
            .with_segment_size(1)
            .with_recorder(&rec);
        for f in frames(5) {
            accept(&bs, 1, f);
        }
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter("sensor_net.storage.segments.sealed"),
            Some(5),
            "1-byte budget seals every append"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_seal_leaves_exactly_one_checkpoint() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-one-ck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = v2_stream(8, 2);
        let checkpoints = || {
            std::fs::read_dir(dir.join("sensor-1"))
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .ends_with(".sbrck")
                })
                .count()
        };
        {
            // 1-byte segments: every frame seals and checkpoints.
            let bs = BaseStation::with_persistence(&dir).with_segment_size(1);
            for f in &fs {
                bs.receive_frame(1, f.clone()).unwrap();
                assert_eq!(checkpoints(), 1);
            }
        }
        let bs = BaseStation::load(&dir).unwrap();
        assert_eq!(checkpoints(), 1);
        assert_eq!(bs.raw_frames(1), fs);
        assert_eq!(bs.reconstruct_chunks(1, 0, fs.len()).unwrap(), mirror(&fs));
        let last = codec::decode_exact(&fs[fs.len() - 1]).unwrap();
        assert_eq!((bs.epoch(1), bs.next_seq(1)), (last.epoch, last.tx.seq + 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_persistent_station_refuses_a_populated_store() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-populated-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = frames(3);
        {
            let bs = BaseStation::with_persistence(&dir);
            for f in &fs {
                accept(&bs, 2, f.clone());
            }
        }
        // A second fresh station restarts the stream at seq 0: appending
        // it would break the store's continuity chain.
        let bs = BaseStation::with_persistence(&dir);
        let err = bs.receive_frame(2, fs[0].clone()).unwrap_err();
        assert!(
            matches!(&err, SbrError::InconsistentState(m) if m.contains("BaseStation::load")),
            "{err}"
        );
        assert!(bs.sensors().is_empty(), "the frame reached no log");
        assert_eq!(crate::storage::verify(&dir, 2).unwrap().records, 3);
        // The store is intact and loads as before.
        let bs = BaseStation::load(&dir).unwrap();
        assert_eq!(bs.raw_frames(2), fs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaded_station_rebuilds_query_index() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-qidx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = frames(4);
        {
            let bs = BaseStation::with_persistence(&dir);
            for f in &fs {
                accept(&bs, 6, f.clone());
            }
        } // "crash"
        let bs = BaseStation::load(&dir).unwrap();
        {
            let mut logs = bs.logs.lock();
            let log = logs.get_mut(&6).unwrap();
            assert_eq!(log.engine.len(), 4, "recover() must rebuild the index");
            assert_eq!(log.cold, 0);
        }
        let fast = bs.aggregate_range(6, 0, 33, 222).unwrap();
        let slow = bs.aggregate_range_decode(6, 0, 33, 222).unwrap();
        assert!((fast.sum - slow.sum).abs() < 1e-9 * (1.0 + slow.sum.abs()));
        assert_eq!(fast.min.to_bits(), slow.min.to_bits());
        assert_eq!(fast.max.to_bits(), slow.max.to_bits());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_rejects_frames_the_index_cannot_summarize() {
        let fs = frames(3);
        let mut next = codec::decode_exact(&fs[2]).unwrap().tx;
        let mut no_intervals = next.clone();
        no_intervals.intervals.clear();
        // Same 128 values, same W, relabelled 4 signals × 32.
        next.n_signals = 4;
        next.samples_per_signal = 32;
        let bad = [no_intervals, next].map(|tx| codec::encode_v2(&Frame::data(0, tx)));
        let bs = BaseStation::new();
        accept(&bs, 1, fs[0].clone());
        accept(&bs, 1, fs[1].clone());
        let before = (bs.chunk_count(1), bs.next_seq(1), bs.log_bytes(1));
        for frame in bad {
            assert!(bs.receive_frame(1, frame).is_err());
            assert_eq!(
                (bs.chunk_count(1), bs.next_seq(1), bs.log_bytes(1)),
                before,
                "a rejected frame must leave the log untouched"
            );
        }
        // The stream continues with the genuine frame, fully queryable.
        accept(&bs, 1, fs[2].clone());
        assert_eq!(bs.aggregate_range(1, 0, 0, 192).unwrap().count, 192);
    }

    #[test]
    fn aggregate_range_hydrates_cold_history() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-coldq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = frames(6);
        {
            // Every frame seals a segment + checkpoint: a reload is all cold.
            let bs = BaseStation::with_persistence(&dir).with_segment_size(1);
            for f in &fs[..4] {
                accept(&bs, 6, f.clone());
            }
        }
        let fresh = BaseStation::new();
        for f in &fs {
            accept(&fresh, 6, f.clone());
        }
        {
            // All-cold log: the engine has no summary to learn `m` from yet.
            let bs = BaseStation::load(&dir).unwrap();
            assert_eq!(bs.cold_chunks(6), 4);
            let want = fresh.aggregate_range(6, 1, 10, 200).unwrap();
            assert_eq!(bs.aggregate_range(6, 1, 10, 200).unwrap(), want);
            assert_eq!(bs.cold_chunks(6), 0, "the query hydrated");
        }
        // Warm tail after a cold prefix: only a range reaching into the
        // prefix hydrates.
        let bs = BaseStation::load(&dir).unwrap();
        accept(&bs, 6, fs[4].clone());
        accept(&bs, 6, fs[5].clone());
        let tail = bs.aggregate_range(6, 0, 4 * 64 + 3, 6 * 64).unwrap();
        assert_eq!(
            tail,
            fresh.aggregate_range(6, 0, 4 * 64 + 3, 6 * 64).unwrap()
        );
        assert_eq!(bs.cold_chunks(6), 4, "a warm range must not hydrate");
        let span = bs.aggregate_range(6, 0, 3 * 64 - 1, 5 * 64).unwrap();
        assert_eq!(
            span,
            fresh.aggregate_range(6, 0, 3 * 64 - 1, 5 * 64).unwrap()
        );
        assert_eq!(bs.cold_chunks(6), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_ranges_decode_without_hydrating_after_load() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = rebooting_stream(9, 2, &[4]);
        let want = mirror(&fs);
        {
            // Every frame seals a segment + checkpoint: a reload is all cold.
            let bs = BaseStation::with_persistence(&dir).with_segment_size(1);
            for f in &fs[..5] {
                bs.receive_frame(1, f.clone()).unwrap();
            }
        }
        let bs = BaseStation::load(&dir).unwrap();
        for f in &fs[5..] {
            bs.receive_frame(1, f.clone()).unwrap();
        }
        assert_eq!(bs.cold_chunks(1), 5);
        assert_eq!(bs.reconstruct_chunks(1, 5, 9).unwrap(), want[5..9].to_vec());
        assert_eq!(bs.reconstruct_chunks(1, 7, 8).unwrap(), want[7..8].to_vec());
        let tail = bs
            .reconstruct_signal_range(1, 1, 5 * 64 + 7, 9 * 64)
            .unwrap();
        let signal_1: Vec<f64> = want[5..9].iter().flat_map(|c| c[1].clone()).collect();
        assert_eq!(tail, signal_1[7..].to_vec());
        assert_eq!(bs.cold_chunks(1), 5, "a warm range must not hydrate");
        // A range starting in cold history hydrates, then decodes the same.
        assert_eq!(bs.reconstruct_chunks(1, 4, 9).unwrap(), want[4..9].to_vec());
        assert_eq!(bs.cold_chunks(1), 0, "the cold range hydrated");
        assert_eq!(bs.reconstruct_chunks(1, 0, 9).unwrap(), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
