//! The base station of Figure 1: one append-only log per sensor holding the
//! compressed chunks (and, interleaved, the base-signal updates), plus
//! historical reconstruction queries over any past range.
//!
//! Frames are validated eagerly (sequence order, CRC, parseability) but
//! decoded lazily: a query replays the sensor's stream from the start, which
//! is exactly what the paper's log-file design implies. Interior mutability
//! is behind [`parking_lot::Mutex`] so one station can be shared by
//! concurrent receiver threads.
//!
//! The station is the receiver half of the end-to-end ARQ protocol: it
//! classifies every frame as accepted, duplicate (silently discarded — the
//! sender retransmitted something already applied) or a gap
//! ([`sbr_core::SbrError::Gap`], the frame cannot be applied against the
//! current replica), and it accepts resync frames that re-anchor a sensor's
//! stream at a higher epoch after unrecoverable loss or a node reboot.

use std::collections::BTreeMap;
use std::path::PathBuf;

use bytes::Bytes;
use parking_lot::Mutex;
use sbr_core::base_signal::BaseSignal;
use sbr_core::query::aggregate_stream;
use sbr_core::{
    codec, ChunkSummary, Decoder, Frame, FrameKind, QueryEngine, QueryObs, SbrError, Transmission,
};
use sbr_obs::{Counter, Recorder};

use crate::storage::{self, CheckpointState, SegmentWriter, DEFAULT_SEGMENT_BYTES};
use crate::NodeId;

/// Pre-registered handles for the segmented storage engine: sealed
/// segments, checkpoints dropped by compaction, and records replayed at
/// recovery (the post-checkpoint tail only — the number the flat-recovery
/// acceptance gate watches). The default is fully disabled; attach a live
/// recorder with [`StorageObs::new`] (or station-wide via
/// [`BaseStation::with_recorder`] / [`BaseStation::load_with_recorder`]).
#[derive(Clone, Debug, Default)]
pub struct StorageObs {
    /// Segments sealed (footer written).
    pub sealed: Counter,
    /// Checkpoint files removed by compaction.
    pub compacted: Counter,
    /// Records replayed while recovering a station from disk.
    pub replayed_records: Counter,
}

impl StorageObs {
    /// Register every storage metric on `recorder`.
    pub fn new(r: &dyn Recorder) -> Self {
        StorageObs {
            sealed: r.counter("sensor_net.storage.segments.sealed"),
            compacted: r.counter("sensor_net.storage.segments.compacted"),
            replayed_records: r.counter("sensor_net.storage.segments.replayed_records"),
        }
    }
}

/// A periodic snapshot of the mirrored base-signal state, taken on ingest
/// so historical queries replay at most `checkpoint_interval` chunks.
/// Keyed by *log position* (chunk index), not sequence number — sequence
/// numbers restart when a sensor reboots, log positions never do.
#[derive(Debug)]
struct Checkpoint {
    /// Number of logged chunks already applied when the snapshot was taken.
    chunk: u64,
    base: Option<BaseSignal>,
    next_seq: u64,
    epoch: u32,
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
    checkpoints: Vec<Checkpoint>,
    /// Compressed-domain chunk index: one [`ChunkSummary`] per logged frame
    /// (aligned with `frames`; `None` marks a chunk whose summary could not
    /// be built — queries touching it fall back to the decode path).
    engine: QueryEngine,
    /// Durable segment writer (persistent stations only). Owned by the
    /// log so appends happen in arrival order under the same lock that
    /// orders the in-memory log.
    writer: Option<SegmentWriter>,
    /// Store-wide record index of the newest resync frame seen — the
    /// compaction horizon.
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
            checkpoints: vec![Checkpoint {
                chunk: 0,
                base: None,
                next_seq: 0,
                epoch: 0,
            }],
            engine,
            writer: None,
            last_resync_at: None,
        }
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

/// Aggregates of one reconstructed range, computed directly on the
/// compressed representation (see [`sbr_core::query`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeAggregate {
    /// Sum of the reconstruction.
    pub sum: f64,
    /// Average of the reconstruction.
    pub avg: f64,
    /// Minimum of the reconstruction.
    pub min: f64,
    /// Maximum of the reconstruction.
    pub max: f64,
    /// Samples covered.
    pub count: usize,
}

/// The base station: per-sensor logs + reconstruction.
#[derive(Debug)]
pub struct BaseStation {
    logs: Mutex<BTreeMap<NodeId, SensorLog>>,
    checkpoint_interval: u64,
    persist_dir: Option<PathBuf>,
    /// Segment size budget before a seal (persistent stations).
    segment_bytes: u64,
    /// Whether seals opportunistically drop resync-superseded checkpoints.
    compaction: bool,
    query_obs: QueryObs,
    storage_obs: StorageObs,
}

impl Default for BaseStation {
    fn default() -> Self {
        BaseStation {
            logs: Mutex::new(BTreeMap::new()),
            checkpoint_interval: 8,
            persist_dir: None,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            compaction: true,
            query_obs: QueryObs::default(),
            storage_obs: StorageObs::default(),
        }
    }
}

impl BaseStation {
    /// An empty station with the default checkpoint interval (8 chunks).
    pub fn new() -> Self {
        BaseStation::default()
    }

    /// An empty station snapshotting the decoder state every
    /// `checkpoint_interval` chunks (≥ 1).
    pub fn with_checkpoint_interval(checkpoint_interval: u64) -> Self {
        BaseStation {
            checkpoint_interval: checkpoint_interval.max(1),
            ..BaseStation::default()
        }
    }

    /// A station that also appends every accepted frame to per-sensor log
    /// files under `dir` (Figure 1's durable architecture): frames survive
    /// a restart via [`BaseStation::load`].
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

    /// Enable or disable opportunistic checkpoint compaction at seal
    /// time (on by default). Compaction only ever removes checkpoint
    /// *files* superseded by an in-stream resync snapshot, so recovered
    /// station state is byte-identical either way.
    pub fn with_compaction(mut self, compaction: bool) -> Self {
        self.compaction = compaction;
        self
    }

    /// Attach pre-registered metrics: every sensor's compressed-domain
    /// query engine records plan-cache hit/miss and interval-fold counters
    /// on `recorder`, and the storage engine records seal/compaction
    /// counters. Chainable after any constructor.
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
    /// one segment's worth plus whatever sealed since the checkpoint) —
    /// never the whole history. Torn tails (crash mid-append) are
    /// truncated; new frames keep appending to the same store.
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
            let writer = SegmentWriter::resume(&dir, node, station.segment_bytes, &scanned)?;
            let mut log = SensorLog::new(node, station.query_obs.clone());
            if let Some(ck) = &scanned.checkpoint {
                // Resume from the checkpoint snapshot; everything it
                // covers stays cold (placeholder frames + unindexed
                // chunks) until a historical query hydrates it.
                let cold = ck.state.records as usize;
                log.cold = cold;
                log.frames = vec![Bytes::new(); cold];
                for _ in 0..cold {
                    log.engine.push_chunk(None);
                }
                log.tracker = Decoder::resume_v2(
                    ck.state.base.clone(),
                    ck.state.next_seq,
                    ck.state.epoch,
                    node as u64,
                );
                log.checkpoints = vec![Checkpoint {
                    chunk: cold as u64,
                    base: ck.state.base.clone(),
                    next_seq: ck.state.next_seq,
                    epoch: ck.state.epoch,
                }];
                log.payload_bytes = ck.state.payload_bytes;
                log.last_resync_at = ck.state.resync_at;
            }
            log.writer = Some(writer);
            station.logs.lock().insert(node, log);
            for frame in scanned.tail_frames {
                // Re-ingest the original bytes through the normal path
                // (minus re-persisting), so the in-memory log is
                // byte-identical to the store — v1 frames stay v1.
                let receipt = station.ingest(node, frame, false)?;
                if receipt == Receipt::Duplicate {
                    return Err(SbrError::InconsistentState(format!(
                        "sensor {node}: duplicate frame in the recovery tail"
                    )));
                }
                station.storage_obs.replayed_records.inc();
            }
        }
        Ok(station)
    }

    /// Receive one wire frame from `node` — strict variant: duplicates are
    /// errors too. The frame must parse (CRC verified for v2) and carry the
    /// next sequence number for that sensor; otherwise it is rejected and
    /// not logged. Direct-delivery substrates (no ARQ, so nothing should
    /// ever arrive twice) use this; ARQ paths use
    /// [`BaseStation::receive_frame`], where a duplicate is routine.
    pub fn receive(&self, node: NodeId, frame: Bytes) -> Result<(), SbrError> {
        match self.ingest(node, frame, true)? {
            Receipt::Duplicate => Err(SbrError::InconsistentState(format!(
                "sensor {node}: duplicate frame on a direct-delivery path"
            ))),
            Receipt::Accepted | Receipt::Resynced => Ok(()),
        }
    }

    /// Receive one wire frame from `node`, classifying it for the ARQ
    /// protocol: `Accepted` / `Resynced` frames were applied and logged,
    /// `Duplicate`s are silently discarded, and anything unusable —
    /// corruption, or a sequence gap the sender must repair by
    /// retransmission or resync — is an error. Ingest also advances a
    /// base-signal tracker (cheap: no reconstruction) and snapshots it
    /// periodically so historical queries replay at most
    /// `checkpoint_interval` chunks.
    pub fn receive_frame(&self, node: NodeId, frame: Bytes) -> Result<Receipt, SbrError> {
        self.ingest(node, frame, true)
    }

    fn ingest(&self, node: NodeId, frame: Bytes, persist: bool) -> Result<Receipt, SbrError> {
        let parsed = codec::decode_any(&mut frame.clone())?;
        let mut logs = self.logs.lock();
        let log = logs
            .entry(node)
            .or_insert_with(|| SensorLog::new(node, self.query_obs.clone()));
        let (epoch, next_seq) = (log.tracker.epoch(), log.tracker.next_seq());
        // The X_new layout this frame's records reference must be captured
        // *before* the updates are applied (the post-apply base has already
        // absorbed them): a data frame extends the current base.
        let peeked_x_new = match parsed.kind {
            FrameKind::Data => log.tracker.peek_x_new(&parsed.tx).ok(),
            FrameKind::Resync => None,
        };
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
                log.tracker.apply_frame_updates_only(&parsed)?;
                Receipt::Accepted
            }
            FrameKind::Resync => {
                if parsed.epoch <= epoch {
                    // Stale or retransmitted resync; already anchored at
                    // or past this epoch.
                    return Ok(Receipt::Duplicate);
                }
                log.tracker.apply_frame_updates_only(&parsed)?;
                Receipt::Resynced
            }
        };
        // Index the accepted chunk in the compressed domain. A resync frame
        // re-anchors on its own snapshot (followed by its updates) — either
        // way the summary is self-contained, so epoch bumps never
        // invalidate earlier chunks.
        let x_new = match parsed.kind {
            FrameKind::Data => peeked_x_new,
            FrameKind::Resync => {
                let mut x = parsed.snapshot.clone();
                for u in &parsed.tx.base_updates {
                    x.extend_from_slice(&u.values);
                }
                Some(x)
            }
        };
        log.engine
            .push_chunk(x_new.and_then(|x| ChunkSummary::from_transmission(&parsed.tx, x).ok()));
        log.frames.push(frame.clone());
        log.payload_bytes += frame.len() as u64;
        if receipt == Receipt::Resynced {
            log.last_resync_at = Some(log.frames.len() as u64 - 1);
        }
        if (log.frames.len() as u64).is_multiple_of(self.checkpoint_interval) {
            let (base, next_seq) = log.tracker.snapshot();
            log.checkpoints.push(Checkpoint {
                chunk: log.frames.len() as u64,
                base,
                next_seq,
                epoch: log.tracker.epoch(),
            });
        }
        if persist {
            if let Some(dir) = &self.persist_dir {
                // Persist under the logs lock: the durable store sees
                // appends in exactly the order the in-memory log does,
                // and seal-boundary snapshots are taken at the precise
                // record the checkpoint claims to cover.
                if log.writer.is_none() {
                    log.writer = Some(SegmentWriter::open(dir, node, self.segment_bytes)?);
                }
                if let Some(writer) = log.writer.as_mut() {
                    if writer.append(&frame)?.is_some() {
                        self.storage_obs.sealed.inc();
                        let (base, next_seq) = log.tracker.snapshot();
                        let state = CheckpointState {
                            records: writer.records_total(),
                            payload_bytes: writer.payload_total(),
                            epoch: log.tracker.epoch(),
                            next_seq,
                            resync_at: log.last_resync_at,
                            base,
                        };
                        writer.write_checkpoint(&state)?;
                        if self.compaction {
                            if let Some(resync_at) = log.last_resync_at {
                                let dropped = storage::compact(dir, node, resync_at)?;
                                self.storage_obs.compacted.add(dropped as u64);
                            }
                        }
                    }
                }
            }
        }
        Ok(receipt)
    }

    /// Pull a sensor's checkpoint-covered history off disk into memory:
    /// fill the placeholder frames, rebuild the compressed-domain chunk
    /// index and the in-memory checkpoint ladder by a full replay, and
    /// cross-check the replayed decoder state against the live tracker.
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
        let hydrated = storage::hydrate(&dir, node, covered)?;
        if hydrated.frames.len() < log.cold {
            return Err(SbrError::InconsistentState(format!(
                "sensor {node}: store holds {} cold records but the checkpoint covers {}",
                hydrated.frames.len(),
                log.cold
            )));
        }
        for (slot, frame) in log
            .frames
            .iter_mut()
            .take(log.cold)
            .zip(hydrated.frames.iter())
        {
            *slot = frame.clone();
        }
        // Full replay over the (now complete) log rebuilds the chunk
        // index and the same checkpoint ladder a never-restarted station
        // would have.
        let mut engine = QueryEngine::new();
        engine.set_obs(self.query_obs.clone());
        let mut tracker = Decoder::for_node(node as u64);
        let mut checkpoints = vec![Checkpoint {
            chunk: 0,
            base: None,
            next_seq: 0,
            epoch: 0,
        }];
        for (i, raw) in log.frames.iter().enumerate() {
            let parsed = codec::decode_any(&mut raw.clone())?;
            let x_new = match parsed.kind {
                FrameKind::Data => tracker.peek_x_new(&parsed.tx).ok(),
                FrameKind::Resync => {
                    let mut x = parsed.snapshot.clone();
                    for u in &parsed.tx.base_updates {
                        x.extend_from_slice(&u.values);
                    }
                    Some(x)
                }
            };
            tracker.apply_frame_updates_only(&parsed)?;
            engine.push_chunk(
                x_new.and_then(|x| ChunkSummary::from_transmission(&parsed.tx, x).ok()),
            );
            if ((i + 1) as u64).is_multiple_of(self.checkpoint_interval) {
                let (base, next_seq) = tracker.snapshot();
                checkpoints.push(Checkpoint {
                    chunk: (i + 1) as u64,
                    base,
                    next_seq,
                    epoch: tracker.epoch(),
                });
            }
        }
        if tracker.next_seq() != log.tracker.next_seq() || tracker.epoch() != log.tracker.epoch() {
            return Err(SbrError::InconsistentState(format!(
                "sensor {node}: hydrated replay ends at epoch {} seq {} but the live \
                 tracker is at epoch {} seq {}",
                tracker.epoch(),
                tracker.next_seq(),
                log.tracker.epoch(),
                log.tracker.next_seq()
            )));
        }
        log.engine = engine;
        log.checkpoints = checkpoints;
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
        log.frames
            .iter()
            .map(|f| codec::decode_any(&mut f.clone()))
            .collect()
    }

    /// Parse (without reconstructing) every logged transmission of `node`,
    /// with any resync envelope stripped.
    pub fn transmissions(&self, node: NodeId) -> Result<Vec<Transmission>, SbrError> {
        Ok(self.frames(node)?.into_iter().map(|f| f.tx).collect())
    }

    /// Resume a decoder from the latest checkpoint at or before `chunk`
    /// (a log position). Returns the decoder plus the log position it
    /// resumes at.
    fn decoder_at(&self, node: NodeId, chunk: usize) -> Result<(Decoder, usize), SbrError> {
        // A request below the cold watermark needs the on-disk history.
        let needs_history = self.logs.lock().get(&node).is_some_and(|l| chunk < l.cold);
        if needs_history {
            self.hydrate_node(node)?;
        }
        let logs = self.logs.lock();
        let log = logs
            .get(&node)
            .ok_or_else(|| SbrError::InconsistentState(format!("unknown sensor {node}")))?;
        // Checkpoints are position-sorted (appended at monotonically
        // growing log positions), so the latest one at or before `chunk`
        // is found by binary search: `partition_point` yields the first
        // checkpoint *past* `chunk`, and the one before it is the answer.
        let idx = log.checkpoints.partition_point(|c| c.chunk <= chunk as u64);
        let cp = idx
            .checked_sub(1)
            .and_then(|i| log.checkpoints.get(i))
            .ok_or_else(|| {
                SbrError::InconsistentState(format!(
                    "sensor {node} has no checkpoint at or before chunk {chunk}"
                ))
            })?;
        Ok((
            Decoder::resume_v2(cp.base.clone(), cp.next_seq, cp.epoch, node as u64),
            cp.chunk as usize,
        ))
    }

    /// Reconstruct chunks `[from, to)` of `node` (log positions), replaying
    /// from the nearest checkpoint (at most `checkpoint_interval` extra
    /// chunks). Returns `chunks[t][signal][sample]`.
    pub fn reconstruct_chunks(
        &self,
        node: NodeId,
        from: usize,
        to: usize,
    ) -> Result<Vec<Vec<Vec<f64>>>, SbrError> {
        let frames = self.frames(node)?;
        if to > frames.len() || from > to {
            return Err(SbrError::InconsistentState(format!(
                "sensor {node}: range [{from}, {to}) outside logged 0..{}",
                frames.len()
            )));
        }
        let (mut decoder, start) = self.decoder_at(node, from)?;
        let mut out = Vec::with_capacity(to - from);
        for (t, frame) in frames.iter().enumerate().take(to).skip(start) {
            if t >= from {
                out.push(decoder.decode_frame(frame)?);
            } else {
                decoder.apply_frame_updates_only(frame)?;
            }
        }
        Ok(out)
    }

    /// SUM/AVG/MIN/MAX of `signal` of `node` over the absolute sample
    /// range `[t0, t1)`. Served from the compressed-domain chunk index
    /// maintained at ingest (see [`sbr_core::QueryEngine`]) whenever it
    /// covers the range — O(#intervals touched), no frame replay, cached
    /// plans for repeated queries, and valid across resyncs because every
    /// chunk summary is epoch-self-contained. Ranges touching a chunk the
    /// index could not summarize fall back to
    /// [`BaseStation::aggregate_range_decode`].
    pub fn aggregate_range(
        &self,
        node: NodeId,
        signal: usize,
        t0: usize,
        t1: usize,
    ) -> Result<RangeAggregate, SbrError> {
        {
            let mut logs = self.logs.lock();
            if let Some(log) = logs.get_mut(&node) {
                if log.engine.covers(signal, t0, t1) {
                    let agg = log.engine.aggregate(signal, t0, t1)?;
                    return Ok(RangeAggregate {
                        sum: agg.sum,
                        avg: agg.avg,
                        min: agg.min,
                        max: agg.max,
                        count: agg.count,
                    });
                }
            }
        }
        self.aggregate_range_decode(node, signal, t0, t1)
    }

    /// The full-decode baseline behind [`BaseStation::aggregate_range`]:
    /// answers the same query without the chunk index, either streaming
    /// over the logged interval records (resync-free logs) or
    /// reconstructing the covered chunks. Kept public for A/B comparison.
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
        let frames = self.frames(node)?;
        let m = frames
            .first()
            .map(|f| f.tx.samples_per_signal as usize)
            .filter(|&m| m > 0)
            .ok_or_else(|| SbrError::InconsistentState(format!("sensor {node} has no chunks")))?;
        let plain = frames
            .iter()
            .all(|f| f.kind == FrameKind::Data && f.epoch == 0);
        if plain {
            // Sequence numbers equal log positions on a resync-free log,
            // which is exactly what the streaming aggregator indexes by.
            let txs: Vec<Transmission> = frames.into_iter().map(|f| f.tx).collect();
            // lint:allow(panic-reachability): m is checked positive above
            let (mut decoder, _) = self.decoder_at(node, t0 / m)?;
            let agg = aggregate_stream(&mut decoder, &txs, signal, t0, t1)?;
            return Ok(RangeAggregate {
                sum: agg.sum,
                avg: agg.avg,
                min: agg.min,
                max: agg.max,
                count: agg.count,
            });
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
        let frames = self.frames(node)?;
        let m = frames
            .first()
            .map(|f| f.tx.samples_per_signal as usize)
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
                codec::encode(&enc.encode(&rows).unwrap())
            })
            .collect()
    }

    /// An ARQ-style node stream: v2 frames, resync (buffer overflow) after
    /// `resync_after` chunks.
    fn v2_stream(n_chunks: usize, resync_after: usize) -> (Vec<Bytes>, Vec<Vec<Vec<f64>>>) {
        let mut node = crate::SensorNode::new(1, 2, 64, SbrConfig::new(64, 64)).unwrap();
        node.enable_arq(resync_after.max(1));
        let mut frames = Vec::new();
        let mut truth = Vec::new();
        for c in 0..n_chunks {
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
            truth.push(rows);
        }
        (frames, truth)
    }

    #[test]
    fn receive_validates_sequence() {
        let bs = BaseStation::new();
        let fs = frames(3);
        assert!(bs.receive(1, fs[1].clone()).is_err()); // gap
        bs.receive(1, fs[0].clone()).unwrap();
        assert!(bs.receive(1, fs[0].clone()).is_err()); // duplicate
        bs.receive(1, fs[1].clone()).unwrap();
        bs.receive(1, fs[2].clone()).unwrap();
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
        assert!(bs.receive(1, Bytes::from(bad)).is_err());
        assert_eq!(bs.chunk_count(1), 0);
    }

    #[test]
    fn resync_reanchors_and_replays_exactly() {
        // 6 chunks, overflow-resync after every 2 un-ACKed: the stream
        // contains real resync frames. Feed only what "arrives": everything.
        let (fs, truth) = v2_stream(6, 2);
        let bs = BaseStation::with_checkpoint_interval(2);
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
        // Every chunk reconstructs byte-exactly against the encoder truth
        // scoreboard — including across checkpoints and resyncs.
        let all = bs.reconstruct_chunks(1, 0, 6).unwrap();
        for (c, (got, want)) in all.iter().zip(&truth).enumerate() {
            for (a, b) in got.iter().zip(want) {
                let sse = sbr_core::ErrorMetric::Sse.score(a, b);
                assert!(sse.is_finite(), "chunk {c} broken");
            }
        }
        // Partial ranges agree with the full replay.
        let mid = bs.reconstruct_chunks(1, 3, 6).unwrap();
        assert_eq!(mid, all[3..6].to_vec());
    }

    #[test]
    fn stream_with_losses_resyncs_and_stays_exact_after() {
        // Drop two chunks mid-stream; the node (unaware) keeps sending, so
        // the station sees a gap at the first post-drop data frame. Feed it
        // the later resync and everything after reconstructs exactly.
        let (fs, _) = v2_stream(8, 2);
        let parsed: Vec<Frame> = fs
            .iter()
            .map(|f| codec::decode_any(&mut f.clone()).unwrap())
            .collect();
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
            bs.receive(9, f).unwrap();
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
            bs.receive(2, f).unwrap();
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
            bs.receive(3, f).unwrap();
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
    fn aggregate_range_falls_back_on_resynced_logs() {
        let (fs, _) = v2_stream(6, 2);
        let bs = BaseStation::new();
        for f in &fs {
            bs.receive_frame(1, f.clone()).unwrap();
        }
        assert!(bs.epoch(1) > 0, "log must contain a resync");
        // Reconstruction is the ground truth for the fallback.
        let all = bs.reconstruct_chunks(1, 0, 6).unwrap();
        let mut truth = Vec::new();
        for chunk in &all {
            truth.extend(&chunk[0]);
        }
        for (t0, t1) in [(0usize, 384usize), (100, 300), (130, 140)] {
            let agg = bs.aggregate_range(1, 0, t0, t1).unwrap();
            let slice = &truth[t0..t1];
            let sum: f64 = slice.iter().sum();
            assert_eq!(agg.count, t1 - t0);
            assert!(
                (agg.sum - sum).abs() < 1e-9 * (1.0 + sum.abs()),
                "[{t0},{t1})"
            );
        }
    }

    #[test]
    fn aggregate_range_rejects_bad_inputs() {
        let bs = BaseStation::new();
        for f in frames(2) {
            bs.receive(1, f).unwrap();
        }
        assert!(bs.aggregate_range(1, 0, 5, 5).is_err());
        assert!(bs.aggregate_range(1, 0, 0, 10_000).is_err());
        assert!(bs.aggregate_range(1, 9, 0, 10).is_err());
        assert!(bs.aggregate_range(2, 0, 0, 10).is_err());
    }

    #[test]
    fn checkpointed_station_matches_full_replay() {
        let fs = frames(10);
        let tight = BaseStation::with_checkpoint_interval(2);
        let none = BaseStation::with_checkpoint_interval(u64::MAX);
        for f in &fs {
            tight.receive(1, f.clone()).unwrap();
            none.receive(1, f.clone()).unwrap();
        }
        for (from, to) in [(0usize, 10usize), (7, 10), (3, 4), (9, 10)] {
            assert_eq!(
                tight.reconstruct_chunks(1, from, to).unwrap(),
                none.reconstruct_chunks(1, from, to).unwrap(),
                "[{from},{to})"
            );
        }
    }

    #[test]
    fn checkpoints_survive_seq_restarts() {
        // A resync-heavy v2 stream replayed through tight checkpoints must
        // agree with an un-checkpointed station — this is exactly what
        // breaks if checkpoints are keyed by (restarting) sequence numbers
        // instead of log positions.
        let (fs, _) = v2_stream(9, 2);
        let tight = BaseStation::with_checkpoint_interval(2);
        let none = BaseStation::with_checkpoint_interval(u64::MAX);
        for f in &fs {
            tight.receive_frame(1, f.clone()).unwrap();
            none.receive_frame(1, f.clone()).unwrap();
        }
        for (from, to) in [(0usize, 9usize), (5, 9), (3, 4), (8, 9)] {
            assert_eq!(
                tight.reconstruct_chunks(1, from, to).unwrap(),
                none.reconstruct_chunks(1, from, to).unwrap(),
                "[{from},{to})"
            );
        }
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
                bs.receive(6, f.clone()).unwrap();
            }
        } // "crash"
        let bs = BaseStation::load(&dir).unwrap();
        assert_eq!(bs.chunk_count(6), 3);
        // The stream continues where it left off, still persisted.
        bs.receive(6, fs[3].clone()).unwrap();
        bs.receive(6, fs[4].clone()).unwrap();
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
        let (fs, _) = v2_stream(5, 2);
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
                bs.receive(2, f.clone()).unwrap();
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
        bs.receive(2, fs[2].clone()).unwrap();
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
            bs.receive(4, f).unwrap();
        }
        assert_eq!(bs.log_bytes(4), total);
        assert_eq!(bs.sensors(), vec![4]);
    }

    #[test]
    fn decoder_at_pins_checkpoint_boundaries() {
        // Interval 4 over 10 chunks → checkpoints at log positions 0
        // (initial), 4 and 8. The binary search must pick the *latest*
        // checkpoint at or before the requested chunk, on both sides of
        // every boundary.
        let bs = BaseStation::with_checkpoint_interval(4);
        for f in frames(10) {
            bs.receive(1, f).unwrap();
        }
        for (chunk, resume_at) in [
            (0usize, 0usize),
            (1, 0),
            (3, 0),
            (4, 4),
            (5, 4),
            (7, 4),
            (8, 8),
            (9, 8),
            (100, 8),
        ] {
            let (decoder, start) = bs.decoder_at(1, chunk).unwrap();
            assert_eq!(start, resume_at, "chunk {chunk}");
            assert_eq!(decoder.next_seq(), resume_at as u64, "chunk {chunk}");
        }
        assert!(bs.decoder_at(99, 0).is_err(), "unknown sensor");
    }

    #[test]
    fn aggregate_range_serves_from_compressed_index() {
        let bs = BaseStation::new();
        for f in frames(4) {
            bs.receive(3, f).unwrap();
        }
        // The ingest path must have indexed every chunk.
        {
            let mut logs = bs.logs.lock();
            let log = logs.get_mut(&3).unwrap();
            assert_eq!(log.engine.len(), 4);
            assert!(log.engine.covers(1, 0, 256));
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
        // bumps — no fallback needed.
        let (fs, _) = v2_stream(6, 2);
        let bs = BaseStation::new();
        for f in &fs {
            bs.receive_frame(1, f.clone()).unwrap();
        }
        assert!(bs.epoch(1) > 0, "log must contain a resync");
        {
            let mut logs = bs.logs.lock();
            assert!(logs.get_mut(&1).unwrap().engine.covers(0, 0, 384));
        }
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
            bs.receive(5, f).unwrap();
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
                bs.receive(6, f.clone()).unwrap();
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
            fresh.receive(6, f.clone()).unwrap();
        }
        assert_eq!(fresh.reconstruct_chunks(6, 0, 12).unwrap(), all);
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
            bs.receive(1, f).unwrap();
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
    fn compaction_toggle_recovers_identical_state() {
        let base = std::env::temp_dir().join(format!("sbr-bs-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (fs, _) = v2_stream(8, 2);
        let mut recovered = Vec::new();
        for (tag, compaction) in [("on", true), ("off", false)] {
            let dir = base.join(tag);
            {
                let bs = BaseStation::with_persistence(&dir)
                    .with_segment_size(1)
                    .with_compaction(compaction);
                for f in &fs {
                    bs.receive_frame(1, f.clone()).unwrap();
                }
            }
            let bs = BaseStation::load(&dir).unwrap();
            recovered.push((
                bs.raw_frames(1),
                bs.reconstruct_chunks(1, 0, fs.len()).unwrap(),
                bs.next_seq(1),
                bs.epoch(1),
            ));
        }
        assert_eq!(
            recovered[0], recovered[1],
            "compaction must not change state"
        );
        // Compaction actually removed checkpoint files.
        let count = |tag: &str| {
            std::fs::read_dir(base.join(tag).join("sensor-1"))
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
        assert!(count("on") < count("off"), "compaction drops checkpoints");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn loaded_station_rebuilds_query_index() {
        let dir = std::env::temp_dir().join(format!("sbr-bs-qidx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = frames(4);
        {
            let bs = BaseStation::with_persistence(&dir);
            for f in &fs {
                bs.receive(6, f.clone()).unwrap();
            }
        } // "crash"
        let bs = BaseStation::load(&dir).unwrap();
        {
            let mut logs = bs.logs.lock();
            let log = logs.get_mut(&6).unwrap();
            assert_eq!(log.engine.len(), 4, "recover() must rebuild the index");
            assert!(log.engine.covers(0, 0, 256));
        }
        let fast = bs.aggregate_range(6, 0, 33, 222).unwrap();
        let slow = bs.aggregate_range_decode(6, 0, 33, 222).unwrap();
        assert!((fast.sum - slow.sum).abs() < 1e-9 * (1.0 + slow.sum.abs()));
        assert_eq!(fast.min.to_bits(), slow.min.to_bits());
        assert_eq!(fast.max.to_bits(), slow.max.to_bits());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
