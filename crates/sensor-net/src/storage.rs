//! Durable per-sensor storage — the paper's Figure 1 architecture keeps
//! "a separate file … for each sensor that is in contact with the base
//! station". Historically that was one flat log per sensor; recovery
//! replayed the entire stream, so the recovery wall grew linearly with
//! history length. This module replaces the flat log with a *segmented
//! store* whose recovery cost is bounded by one segment plus one
//! checkpoint regardless of history length (DESIGN.md §3d):
//!
//! * **Segments** (`sensor-<node>/seg-<ordinal>.sbrseg`): fixed-size
//!   append-only files of CRC-framed records
//!   (`u32 LE len ∥ payload ∥ u32 LE crc32(len ∥ payload)`, the wire-v2
//!   CRC-32/IEEE). A segment that reaches its size budget is *sealed*
//!   with a footer carrying its record count, payload byte total, and a
//!   footer CRC; sealed segments are immutable.
//! * **Checkpoint** (`sensor-<node>/ck-<covered>.sbrck`): written after
//!   each seal, it captures the decoder snapshot (epoch, next expected
//!   seq, mirrored base signal) at that seal boundary plus the segment
//!   index of everything it covers. A store holds exactly one: the
//!   writer publishes the new checkpoint (`.tmp`, `sync_all`, rename)
//!   and only then unlinks the one it supersedes. A crash mid-publish
//!   leaves a stray `.tmp` beside the previous checkpoint; a crash
//!   between rename and unlink leaves two. [`SegmentWriter::resume`]
//!   sweeps both kinds of leftover.
//! * **Recovery** ([`scan`]): reads the newest checkpoint and walks only
//!   the segments *after* it, tolerating a torn tail in the final
//!   (active) segment exactly like the old flat log: complete records
//!   are kept and the partial tail is reported. Everything older stays
//!   cold on disk until [`hydrate`] is asked for it. Scanning, hydrating
//!   and [`verify`] are read-only; [`SegmentWriter::resume`] truncates
//!   the torn tail and sweeps superseded checkpoints and stray `.tmp`
//!   files, which `BaseStation::load` calls only after the tail has
//!   replayed clean, so a store that fails recovery is left untouched.
//!
//! The store checks only its own format: headers, record lengths and
//! CRCs, footers, checkpoints. It never parses a frame. The records it
//! hands back are admitted by the station's one frame step (exact
//! decode, the epoch/seq rule, base-update validation), which reports a
//! continuity break in a store as [`SbrError::InconsistentState`];
//! framing or CRC damage here reports [`SbrError::Corrupt`] naming the
//! damaged file.
//!
//! The legacy single-file stream format (`u32 LE len ∥ frame`, no CRC)
//! survives as [`StreamWriter`]/[`recover_stream`] — it is the `.sbr`
//! interchange format `sbr compress`/`sbr decompress` speak.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;
use sbr_core::{codec, BaseSignal, QueryObs, SbrError};

use crate::base_station::Replay;
use crate::NodeId;

// --- on-disk format constants (pinned by tests/storage_compat.rs and the
// --- repolint wire-drift rule; spell sizes as sums so the lexer can
// --- evaluate them) ---

/// Segment header magic, `"SBSG"` in LE byte order.
pub const SEG_MAGIC: u32 = 0x5342_5347;
/// Segment format version.
pub const SEG_VERSION: u16 = 1;
/// Segment header size: magic u32 + version u16 + ordinal u32 +
/// first_record u64 + header CRC u32.
pub const SEG_HEADER: usize = 4 + 2 + 4 + 8 + 4;
/// Per-record framing overhead: u32 length prefix + u32 record CRC.
pub const RECORD_OVERHEAD: usize = 4 + 4;
/// Segment footer magic, `"SBSF"` in LE byte order. Written *first* in
/// the footer so a reader can distinguish "sealed" from "next record".
pub const SEG_FOOTER_MAGIC: u32 = 0x5342_5346;
/// Segment footer size: magic u32 + record_count u32 + payload_bytes u64
/// + footer CRC u32.
pub const SEG_FOOTER: usize = 4 + 4 + 8 + 4;
/// Checkpoint header magic, `"SBCK"` in LE byte order.
pub const CK_MAGIC: u32 = 0x5342_434B;
/// Checkpoint format version.
pub const CK_VERSION: u16 = 1;
/// Checkpoint fixed header size: magic u32 + version u16 + covered u32 +
/// records u64 + payload_bytes u64 + epoch u32 + next_seq u64 +
/// resync flag u8 + resync_at u64 + index_len u32.
pub const CK_HEADER: usize = 4 + 2 + 4 + 8 + 8 + 4 + 8 + 1 + 8 + 4;
/// Per-sealed-segment checkpoint index entry: ordinal u32 + records u32 +
/// payload_bytes u64.
pub const CK_INDEX_ENTRY: usize = 4 + 4 + 8;
/// Default segment size budget (bytes) before a seal.
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 * 1024;

/// Directory holding one sensor's segments and checkpoints.
pub fn sensor_dir(dir: &Path, node: NodeId) -> PathBuf {
    dir.join(format!("sensor-{node}"))
}

fn segment_path(sdir: &Path, ordinal: u32) -> PathBuf {
    sdir.join(format!("seg-{ordinal:08}.sbrseg"))
}

fn checkpoint_path(sdir: &Path, covered: u32) -> PathBuf {
    sdir.join(format!("ck-{covered:08}.sbrck"))
}

fn io_corrupt(path: &Path, op: &str, e: std::io::Error) -> SbrError {
    SbrError::Corrupt(format!("{op} {}: {e}", path.display()))
}

// --- bounded byte cursor (keeps every read in-bounds without indexing) ---

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn pos(&self) -> usize {
        self.pos
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .and_then(|s| <[u8; 2]>::try_from(s).ok())
            .map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|s| <[u8; 4]>::try_from(s).ok())
            .map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|s| <[u8; 8]>::try_from(s).ok())
            .map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

// --- segment encode / decode ---

fn encode_segment_header(ordinal: u32, first_record: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(SEG_HEADER);
    h.extend_from_slice(&SEG_MAGIC.to_le_bytes());
    h.extend_from_slice(&SEG_VERSION.to_le_bytes());
    h.extend_from_slice(&ordinal.to_le_bytes());
    h.extend_from_slice(&first_record.to_le_bytes());
    let crc = codec::crc32(&h);
    h.extend_from_slice(&crc.to_le_bytes());
    h
}

fn encode_record(frame: &[u8]) -> Vec<u8> {
    let mut r = Vec::with_capacity(frame.len() + RECORD_OVERHEAD);
    // lint:allow(cast-truncation): append rejects frames at or above u32::MAX before encoding
    r.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    r.extend_from_slice(frame);
    let crc = codec::crc32(&r);
    r.extend_from_slice(&crc.to_le_bytes());
    r
}

fn encode_segment_footer(records: u32, payload_bytes: u64) -> Vec<u8> {
    let mut f = Vec::with_capacity(SEG_FOOTER);
    f.extend_from_slice(&SEG_FOOTER_MAGIC.to_le_bytes());
    f.extend_from_slice(&records.to_le_bytes());
    f.extend_from_slice(&payload_bytes.to_le_bytes());
    let crc = codec::crc32(&f);
    f.extend_from_slice(&crc.to_le_bytes());
    f
}

/// Index entry for one sealed (immutable) segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedMeta {
    /// Segment ordinal (also its filename number).
    pub ordinal: u32,
    /// Records the segment holds.
    pub records: u32,
    /// Total payload bytes (frame bytes, excluding framing overhead).
    pub payload_bytes: u64,
}

struct WalkedSegment {
    payloads: Vec<Bytes>,
    payload_bytes: u64,
    sealed: bool,
    /// Bytes of the file consumed by valid content (header + records +
    /// footer when sealed) — the truncation point for a torn tail.
    consumed: usize,
    truncated: usize,
}

/// Walk one segment file's bytes, validating its header (the segment
/// must start at store-wide record `first_record`), record framing and
/// CRCs, and its footer, and hand back the CRC-checked payloads. Frames
/// are not parsed. `is_last` selects torn-tail tolerance (only the
/// final, possibly-active segment of a store may end mid-write).
fn walk_segment(
    raw: &[u8],
    path: &Path,
    ordinal: u32,
    first_record: u64,
    is_last: bool,
) -> Result<WalkedSegment, SbrError> {
    let mut c = Cursor::new(raw);
    let Some(header) = c.take(SEG_HEADER) else {
        if is_last {
            // Crash during segment creation: nothing durable yet.
            return Ok(WalkedSegment {
                payloads: Vec::new(),
                payload_bytes: 0,
                sealed: false,
                consumed: 0,
                truncated: raw.len(),
            });
        }
        return Err(SbrError::Corrupt(format!(
            "segment {} shorter than its header",
            path.display()
        )));
    };
    let mut h = Cursor::new(header);
    let magic = h.u32();
    let version = h.u16();
    let h_ordinal = h.u32();
    let h_first = h.u64();
    let h_crc = h.u32();
    let body_crc = header
        .get(..SEG_HEADER - 4)
        .map(codec::crc32)
        .unwrap_or_default();
    if magic != Some(SEG_MAGIC) || version != Some(SEG_VERSION) || h_crc != Some(body_crc) {
        return Err(SbrError::Corrupt(format!(
            "segment {} has a bad header",
            path.display()
        )));
    }
    if h_ordinal != Some(ordinal) || h_first != Some(first_record) {
        return Err(SbrError::Corrupt(format!(
            "segment {} header claims ordinal {:?} first record {:?}, \
             expected ordinal {ordinal} first record {first_record}",
            path.display(),
            h_ordinal,
            h_first,
        )));
    }

    let mut payloads = Vec::new();
    let mut payload_bytes = 0u64;
    loop {
        let record_start = c.pos();
        let mut peek = Cursor::new(raw.get(record_start..).unwrap_or_default());
        let Some(word) = peek.u32() else {
            // Ran out of bytes before a footer.
            if is_last {
                return Ok(WalkedSegment {
                    payloads,
                    payload_bytes,
                    sealed: false,
                    consumed: record_start,
                    truncated: raw.len() - record_start,
                });
            }
            return Err(SbrError::Corrupt(format!(
                "segment {} is not sealed",
                path.display()
            )));
        };
        if word == SEG_FOOTER_MAGIC {
            // Footer (possibly torn). A complete, valid footer seals the
            // segment; anything less is a torn seal on the last segment
            // and corruption anywhere else.
            let records = peek.u32();
            let pb = peek.u64();
            let f_crc = peek.u32();
            let body = raw.get(record_start..record_start + SEG_FOOTER - 4);
            let ok = match (records, pb, f_crc, body) {
                (Some(r), Some(p), Some(fc), Some(b)) => {
                    fc == codec::crc32(b)
                        && r as usize == payloads.len()
                        && p == payload_bytes
                        && record_start + SEG_FOOTER == raw.len()
                }
                _ => false,
            };
            if ok {
                return Ok(WalkedSegment {
                    payloads,
                    payload_bytes,
                    sealed: true,
                    consumed: raw.len(),
                    truncated: 0,
                });
            }
            if is_last && raw.len() < record_start + SEG_FOOTER {
                // Torn mid-seal: records are durable, the seal is not.
                return Ok(WalkedSegment {
                    payloads,
                    payload_bytes,
                    sealed: false,
                    consumed: record_start,
                    truncated: raw.len() - record_start,
                });
            }
            return Err(SbrError::Corrupt(format!(
                "segment {} has a bad footer",
                path.display()
            )));
        }
        // A record. The length word must land its body + CRC in-bounds.
        let len = word as usize;
        let framed = raw.get(record_start..record_start + 4 + len + 4);
        let Some(framed) = framed else {
            if is_last {
                return Ok(WalkedSegment {
                    payloads,
                    payload_bytes,
                    sealed: false,
                    consumed: record_start,
                    truncated: raw.len() - record_start,
                });
            }
            return Err(SbrError::Corrupt(format!(
                "segment {} record {} runs past end of file",
                path.display(),
                payloads.len()
            )));
        };
        let body = framed.get(..4 + len).unwrap_or_default();
        let stored_crc = framed
            .get(4 + len..)
            .and_then(|s| <[u8; 4]>::try_from(s).ok())
            .map(u32::from_le_bytes);
        if stored_crc != Some(codec::crc32(body)) {
            return Err(SbrError::Corrupt(format!(
                "segment {} record {} fails its CRC",
                path.display(),
                payloads.len()
            )));
        }
        payloads.push(Bytes::copy_from_slice(body.get(4..).unwrap_or_default()));
        payload_bytes += len as u64; // lint:allow(cast-truncation): usize -> u64 widens
        let _ = c.take(4 + len + 4);
    }
}

// --- checkpoint encode / decode ---

/// Decoder snapshot captured by a checkpoint at a seal boundary.
#[derive(Debug, Clone)]
pub struct CheckpointState {
    /// Records covered (across all sealed segments up to the boundary).
    pub records: u64,
    /// Payload bytes covered.
    pub payload_bytes: u64,
    /// Decoder epoch at the boundary.
    pub epoch: u32,
    /// Next expected sequence number at the boundary.
    pub next_seq: u64,
    /// Record index (0-based, store-wide) of the newest resync frame at
    /// or before the boundary, if any.
    pub resync_at: Option<u64>,
    /// The mirrored base signal at the boundary (None before the first
    /// frame applied).
    pub base: Option<BaseSignal>,
}

/// A checkpoint read back from disk.
#[derive(Debug, Clone)]
pub struct LoadedCheckpoint {
    /// Number of sealed segments the checkpoint covers (segments
    /// `0..covered`); also its filename number.
    pub covered: u32,
    /// The decoder snapshot at the boundary.
    pub state: CheckpointState,
    /// Index of the covered sealed segments, in ordinal order.
    pub index: Vec<SealedMeta>,
}

fn encode_checkpoint(
    covered: u32,
    state: &CheckpointState,
    index: &[SealedMeta],
) -> Result<Vec<u8>, SbrError> {
    let mut b = Vec::with_capacity(CK_HEADER + index.len() * CK_INDEX_ENTRY + 64);
    b.extend_from_slice(&CK_MAGIC.to_le_bytes());
    b.extend_from_slice(&CK_VERSION.to_le_bytes());
    b.extend_from_slice(&covered.to_le_bytes());
    b.extend_from_slice(&state.records.to_le_bytes());
    b.extend_from_slice(&state.payload_bytes.to_le_bytes());
    b.extend_from_slice(&state.epoch.to_le_bytes());
    b.extend_from_slice(&state.next_seq.to_le_bytes());
    b.push(state.resync_at.is_some() as u8);
    b.extend_from_slice(&state.resync_at.unwrap_or(0).to_le_bytes());
    let index_len = u32::try_from(index.len())
        .map_err(|_| SbrError::Corrupt("checkpoint index length overflows u32".into()))?;
    b.extend_from_slice(&index_len.to_le_bytes());
    for m in index {
        b.extend_from_slice(&m.ordinal.to_le_bytes());
        b.extend_from_slice(&m.records.to_le_bytes());
        b.extend_from_slice(&m.payload_bytes.to_le_bytes());
    }
    match &state.base {
        None => b.push(0),
        Some(base) => {
            b.push(1);
            let (w, values, meta) = base.to_raw();
            let w = u32::try_from(w)
                .map_err(|_| SbrError::Corrupt("base width overflows u32".into()))?;
            let meta_len = u32::try_from(meta.len())
                .map_err(|_| SbrError::Corrupt("base meta length overflows u32".into()))?;
            b.extend_from_slice(&w.to_le_bytes());
            b.extend_from_slice(&meta_len.to_le_bytes());
            for v in values {
                b.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            for (use_count, inserted_at) in meta {
                b.extend_from_slice(&use_count.to_le_bytes());
                b.extend_from_slice(&inserted_at.to_le_bytes());
            }
        }
    }
    let crc = codec::crc32(&b);
    b.extend_from_slice(&crc.to_le_bytes());
    Ok(b)
}

fn decode_checkpoint(raw: &[u8], path: &Path) -> Result<LoadedCheckpoint, SbrError> {
    let bad = |what: &str| SbrError::Corrupt(format!("checkpoint {}: {what}", path.display()));
    let body_len = raw.len().checked_sub(4).ok_or_else(|| bad("too short"))?;
    let body = raw.get(..body_len).ok_or_else(|| bad("too short"))?;
    let stored = raw
        .get(body_len..)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| bad("too short"))?;
    if stored != codec::crc32(body) {
        return Err(bad("fails its CRC"));
    }
    let mut c = Cursor::new(body);
    if c.u32() != Some(CK_MAGIC) || c.u16() != Some(CK_VERSION) {
        return Err(bad("bad magic or version"));
    }
    let covered = c.u32().ok_or_else(|| bad("truncated header"))?;
    let records = c.u64().ok_or_else(|| bad("truncated header"))?;
    let payload_bytes = c.u64().ok_or_else(|| bad("truncated header"))?;
    let epoch = c.u32().ok_or_else(|| bad("truncated header"))?;
    let next_seq = c.u64().ok_or_else(|| bad("truncated header"))?;
    let resync_flag = c.u8().ok_or_else(|| bad("truncated header"))?;
    let resync_raw = c.u64().ok_or_else(|| bad("truncated header"))?;
    let index_len = c.u32().ok_or_else(|| bad("truncated header"))? as usize;
    // lint:allow(cast-truncation): u32 -> usize widens on this 64-bit target
    if index_len != covered as usize {
        return Err(bad("index length disagrees with covered count"));
    }
    let mut index = Vec::with_capacity(index_len);
    let mut sum_records = 0u64;
    let mut sum_payload = 0u64;
    for i in 0..index_len {
        let ordinal = c.u32().ok_or_else(|| bad("truncated index"))?;
        let seg_records = c.u32().ok_or_else(|| bad("truncated index"))?;
        let seg_payload = c.u64().ok_or_else(|| bad("truncated index"))?;
        // lint:allow(cast-truncation): u32 -> usize widens on this 64-bit target
        if ordinal as usize != i {
            return Err(bad("index ordinals out of order"));
        }
        sum_records += seg_records as u64; // lint:allow(cast-truncation): u32 -> u64 widens
        sum_payload += seg_payload;
        index.push(SealedMeta {
            ordinal,
            records: seg_records,
            payload_bytes: seg_payload,
        });
    }
    if sum_records != records || sum_payload != payload_bytes {
        return Err(bad("index totals disagree with header totals"));
    }
    let base = match c.u8() {
        Some(0) => None,
        Some(1) => {
            let w = c.u32().ok_or_else(|| bad("truncated base signal"))? as usize;
            let slots = c.u32().ok_or_else(|| bad("truncated base signal"))? as usize;
            let n = w.checked_mul(slots).ok_or_else(|| bad("base too large"))?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(c.f64().ok_or_else(|| bad("truncated base signal"))?);
            }
            let mut meta = Vec::with_capacity(slots);
            for _ in 0..slots {
                let use_count = c.u64().ok_or_else(|| bad("truncated base signal"))?;
                let inserted_at = c.u64().ok_or_else(|| bad("truncated base signal"))?;
                meta.push((use_count, inserted_at));
            }
            Some(BaseSignal::from_raw(w, values, meta)?)
        }
        _ => return Err(bad("bad base-signal flag")),
    };
    if c.remaining() != 0 {
        return Err(bad("trailing bytes"));
    }
    Ok(LoadedCheckpoint {
        covered,
        state: CheckpointState {
            records,
            payload_bytes,
            epoch,
            next_seq,
            resync_at: (resync_flag == 1).then_some(resync_raw),
            base,
        },
        index,
    })
}

fn load_checkpoint(path: &Path) -> Result<LoadedCheckpoint, SbrError> {
    let mut raw = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut raw))
        .map_err(|e| io_corrupt(path, "cannot read checkpoint", e))?;
    decode_checkpoint(&raw, path)
}

// --- scanning (recovery entry point) ---

/// Metadata for the in-progress (unsealed) segment found by a scan.
#[derive(Debug, Clone, Copy)]
pub struct ActiveMeta {
    /// The active segment's ordinal.
    pub ordinal: u32,
    /// Records it currently holds.
    pub records: u32,
    /// Payload bytes it currently holds.
    pub payload_bytes: u64,
    /// Valid file length (torn tail excluded).
    pub file_len: u64,
}

/// Result of scanning a sensor's store for recovery: the newest
/// checkpoint (if any), the *tail* — every record after that checkpoint's
/// boundary — and the segment index. Scanning reads only the tail
/// segments; everything the checkpoint covers stays cold until
/// [`hydrate`]. It modifies nothing: the repairs it finds are made by
/// [`SegmentWriter::resume`].
#[derive(Debug, Default)]
pub struct ScannedStore {
    /// Newest checkpoint on disk, already validated.
    pub checkpoint: Option<LoadedCheckpoint>,
    /// CRC-checked record payloads (raw frames, not parsed) after the
    /// checkpoint boundary, in append order — the records recovery must
    /// replay.
    pub tail_frames: Vec<Bytes>,
    /// Full sealed-segment index (covered segments from the checkpoint,
    /// plus any sealed after it).
    pub sealed: Vec<SealedMeta>,
    /// The unsealed active segment, if one exists.
    pub active: Option<ActiveMeta>,
    /// Total records in the store (checkpoint-covered + tail).
    pub records_total: u64,
    /// Total payload bytes in the store.
    pub payload_total: u64,
    /// Bytes of torn tail after the last complete record of the active
    /// segment (truncated by [`SegmentWriter::resume`]).
    pub truncated_tail: usize,
    /// The last segment when its tail is torn, and the length to keep
    /// (0: torn during creation, the file goes).
    torn: Option<(PathBuf, u64)>,
    /// Superseded checkpoints and stray `.tmp` files.
    leftovers: Vec<PathBuf>,
}

/// List a sensor dir: the number of segments, which must be contiguous
/// from ordinal 0 (sealed segments are never deleted), and the
/// checkpoint numbers in ascending order, and the stray `.tmp` files
/// (a crash mid-checkpoint). Listing deletes nothing.
fn list_store(sdir: &Path) -> Result<(u32, Vec<u32>, Vec<PathBuf>), SbrError> {
    let mut segs = Vec::new();
    let mut cks = Vec::new();
    let mut tmps = Vec::new();
    let entries =
        std::fs::read_dir(sdir).map_err(|e| io_corrupt(sdir, "cannot list store dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_corrupt(sdir, "cannot list store dir", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            tmps.push(entry.path());
            continue;
        }
        if let Some(num) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".sbrseg"))
            .and_then(|s| s.parse::<u32>().ok())
        {
            segs.push(num);
        } else if let Some(num) = name
            .strip_prefix("ck-")
            .and_then(|s| s.strip_suffix(".sbrck"))
            .and_then(|s| s.parse::<u32>().ok())
        {
            cks.push(num);
        }
    }
    segs.sort_unstable();
    cks.sort_unstable();
    for (i, &ord) in segs.iter().enumerate() {
        // lint:allow(cast-truncation): u32 -> usize widens on this 64-bit target
        if ord as usize != i {
            return Err(SbrError::Corrupt(format!(
                "store {} is missing segment {i}",
                sdir.display()
            )));
        }
    }
    let n_segs = u32::try_from(segs.len())
        .map_err(|_| SbrError::Corrupt("segment count overflows u32".into()))?;
    Ok((n_segs, cks, tmps))
}

fn read_segment_raw(path: &Path) -> Result<Vec<u8>, SbrError> {
    let mut raw = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut raw))
        .map_err(|e| io_corrupt(path, "cannot read segment", e))?;
    Ok(raw)
}

/// The one segment loop behind [`scan`], [`hydrate`] and [`verify`]:
/// walk segments `from..to` in order, the first starting at store-wide
/// record `records`, and hand each to `each`. Only segment `to - 1`, and
/// only when `last_may_tear`, may end mid-write. Returns the record
/// count after the last segment. Reads only.
fn walk_segments(
    sdir: &Path,
    (from, to): (u32, u32),
    mut records: u64,
    last_may_tear: bool,
    mut each: impl FnMut(u32, &Path, WalkedSegment) -> Result<(), SbrError>,
) -> Result<u64, SbrError> {
    for ordinal in from..to {
        let path = segment_path(sdir, ordinal);
        let raw = read_segment_raw(&path)?;
        let is_last = last_may_tear && ordinal + 1 == to;
        let walked = walk_segment(&raw, &path, ordinal, records, is_last)?;
        records += u64::from(walked.record_count());
        each(ordinal, &path, walked)?;
    }
    Ok(records)
}

/// Scan a sensor's segmented store: load the newest checkpoint, walk the
/// tail segments after it (framing and CRCs), and return everything a
/// writer or a base station needs to resume. Cost is bounded by the
/// tail — at most the segments sealed since the last checkpoint plus the
/// active one — regardless of how long the history is. Read-only: a
/// torn tail, superseded checkpoints and stray `.tmp` files are only
/// reported, for [`SegmentWriter::resume`] to repair.
pub fn scan(dir: &Path, node: NodeId) -> Result<ScannedStore, SbrError> {
    let sdir = sensor_dir(dir, node);
    let mut store = ScannedStore::default();
    if !sdir.exists() {
        return Ok(store);
    }
    let (n_segs, mut cks, tmps) = list_store(&sdir)?;
    let start = match cks.pop() {
        None => 0,
        Some(covered) => {
            let ck = load_checkpoint(&checkpoint_path(&sdir, covered))?;
            store.sealed.clone_from(&ck.index);
            store.records_total = ck.state.records;
            store.payload_total = ck.state.payload_bytes;
            store.checkpoint = Some(ck);
            covered
        }
    };
    if n_segs < start {
        return Err(SbrError::Corrupt(format!(
            "store {} has a checkpoint covering {start} segments but only {n_segs} exist",
            sdir.display(),
        )));
    }
    store.leftovers = cks.iter().map(|&c| checkpoint_path(&sdir, c)).collect();
    store.leftovers.extend(tmps);

    let records_total = walk_segments(
        &sdir,
        (start, n_segs),
        store.records_total,
        true,
        |ordinal, path, walked| {
            let records = walked.record_count();
            store.payload_total += walked.payload_bytes;
            if walked.sealed {
                store.sealed.push(SealedMeta {
                    ordinal,
                    records,
                    payload_bytes: walked.payload_bytes,
                });
            } else {
                // Only reachable for the last segment.
                store.truncated_tail = walked.truncated;
                let keep = walked.consumed as u64; // lint:allow(cast-truncation): usize -> u64 widens
                if walked.truncated > 0 || keep == 0 {
                    store.torn = Some((path.to_path_buf(), keep));
                }
                if keep > 0 {
                    store.active = Some(ActiveMeta {
                        ordinal,
                        records,
                        payload_bytes: walked.payload_bytes,
                        file_len: keep,
                    });
                }
            }
            store.tail_frames.extend(walked.payloads);
            Ok(())
        },
    )?;
    store.records_total = records_total;
    Ok(store)
}

impl WalkedSegment {
    fn record_count(&self) -> u32 {
        // lint:allow(cast-truncation): per-segment record count is bounded by the u32 footer field walk_segment validated
        self.payloads.len() as u32
    }
}

/// Read back the cold region of a store: the record payloads (raw
/// frames, not parsed) of the sealed segments a checkpoint covering
/// `covered` segments spans, in append order. Validates framing and
/// CRCs; the caller admits the frames.
pub fn hydrate(dir: &Path, node: NodeId, covered: u32) -> Result<Vec<Bytes>, SbrError> {
    let mut frames = Vec::new();
    walk_segments(
        &sensor_dir(dir, node),
        (0, covered),
        0,
        false,
        |_, _, walked| {
            frames.extend(walked.payloads);
            Ok(())
        },
    )?;
    Ok(frames)
}

// --- verification (read-only full audit) ---

/// Full read-only audit of one sensor's store ([`verify`]).
#[derive(Debug)]
pub struct StoreReport {
    /// Segment files present (sealed + active).
    pub segments: u32,
    /// Checkpoint files present: 1 once a segment has sealed, 2 after a
    /// crash between a checkpoint's publish and its predecessor's unlink.
    pub checkpoints: u32,
    /// Total records across all segments.
    pub records: u64,
    /// Total payload bytes across all segments.
    pub payload_bytes: u64,
    /// Torn-tail bytes in the active segment (not truncated — verify is
    /// read-only).
    pub truncated_tail: usize,
    /// Store-wide record index of the newest resync frame, if any.
    pub newest_resync: Option<u64>,
    /// Decoder epoch after the full replay.
    pub epoch: u32,
    /// Next expected sequence number after the full replay.
    pub next_seq: u64,
    /// Whether an unsealed active segment exists.
    pub active: bool,
}

/// Audit a sensor's store end to end without modifying it: walk every
/// segment from the origin (framing and record CRCs), replay every
/// record through the station's frame step, and cross-check every
/// checkpoint present — records, payload bytes, epoch, next seq,
/// `resync_at`, segment index and the base signal, bit for bit —
/// against the replay at its boundary.
pub fn verify(dir: &Path, node: NodeId) -> Result<StoreReport, SbrError> {
    let sdir = sensor_dir(dir, node);
    if !sdir.exists() {
        return Err(SbrError::Corrupt(format!("no store at {}", sdir.display())));
    }
    let (n_segs, cks, _) = list_store(&sdir)?;
    let checkpoints = cks
        .iter()
        .map(|&c| load_checkpoint(&checkpoint_path(&sdir, c)).map(|ck| (c, ck)))
        .collect::<Result<Vec<_>, SbrError>>()?;
    let mut replay = Replay::new(node, &sdir, QueryObs::default());
    let mut sealed: Vec<SealedMeta> = Vec::new();
    let mut payload_bytes = 0u64;
    let mut truncated_tail = 0usize;
    let mut active = false;
    // Audit every checkpoint that covers exactly the segments sealed so far.
    let audit = |sealed: &[SealedMeta], payload_bytes: u64, replay: &Replay<'_>| {
        // A loaded checkpoint's index holds one entry per covered segment.
        for (c, ck) in checkpoints
            .iter()
            .filter(|(_, ck)| ck.index.len() == sealed.len())
        {
            if ck.index != sealed
                || ck.state.records != replay.records
                || ck.state.payload_bytes != payload_bytes
                || ck.state.resync_at != replay.resync_at
                || !replay.is_at(ck.state.epoch, ck.state.next_seq, ck.state.base.as_ref())
            {
                return Err(SbrError::InconsistentState(format!(
                    "checkpoint {} disagrees with the store replayed to its boundary",
                    checkpoint_path(&sdir, *c).display()
                )));
            }
        }
        Ok(())
    };
    audit(&sealed, payload_bytes, &replay)?;
    walk_segments(&sdir, (0, n_segs), 0, true, |ordinal, _, walked| {
        for payload in &walked.payloads {
            replay.admit(payload)?;
        }
        payload_bytes += walked.payload_bytes;
        if walked.sealed {
            sealed.push(SealedMeta {
                ordinal,
                records: walked.record_count(),
                payload_bytes: walked.payload_bytes,
            });
            audit(&sealed, payload_bytes, &replay)?;
        } else {
            truncated_tail = walked.truncated;
            active = walked.consumed > 0;
        }
        Ok(())
    })?;
    if let Some((c, ck)) = checkpoints
        .iter()
        .find(|(_, ck)| ck.index.len() > sealed.len())
    {
        return Err(SbrError::Corrupt(format!(
            "checkpoint {} covers {} segments but only {} are sealed",
            checkpoint_path(&sdir, *c).display(),
            ck.covered,
            sealed.len()
        )));
    }
    Ok(StoreReport {
        segments: n_segs,
        checkpoints: u32::try_from(checkpoints.len())
            .map_err(|_| SbrError::Corrupt("checkpoint count overflows u32".into()))?,
        records: replay.records,
        payload_bytes,
        truncated_tail,
        newest_resync: replay.resync_at,
        epoch: replay.tracker.epoch(),
        next_seq: replay.tracker.next_seq(),
        active,
    })
}

/// The node ids that have a store under `dir` (subdirectories named
/// `sensor-<id>`), sorted.
pub fn nodes(dir: &Path) -> Vec<NodeId> {
    let mut ids = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return ids;
    };
    for entry in entries.flatten() {
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name();
        if let Some(id) = name
            .to_str()
            .and_then(|s| s.strip_prefix("sensor-"))
            .and_then(|s| s.parse::<NodeId>().ok())
        {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    ids
}

// --- the segment writer ---

struct ActiveSegment {
    path: PathBuf,
    file: BufWriter<File>,
    ordinal: u32,
    records: u32,
    payload_bytes: u64,
    file_len: u64,
}

/// Append-side handle for one sensor's segmented store: appends CRC-framed
/// records, seals segments at the size budget, and keeps the store's one
/// checkpoint at the newest seal boundary.
#[derive(Debug)]
pub struct SegmentWriter {
    sdir: PathBuf,
    segment_bytes: u64,
    active: Option<ActiveSegment>,
    sealed: Vec<SealedMeta>,
    records_total: u64,
    payload_total: u64,
    /// Covered count (file number) of the store's current checkpoint,
    /// which the next [`SegmentWriter::write_checkpoint`] supersedes.
    checkpoint: Option<u32>,
}

impl std::fmt::Debug for ActiveSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSegment")
            .field("path", &self.path)
            .field("ordinal", &self.ordinal)
            .field("records", &self.records)
            .field("file_len", &self.file_len)
            .finish()
    }
}

impl SegmentWriter {
    /// Open (creating or resuming) the store for `node` under `dir`,
    /// scanning it first. Prefer [`SegmentWriter::resume`] when the
    /// caller already scanned.
    pub fn open(dir: &Path, node: NodeId, segment_bytes: u64) -> Result<Self, SbrError> {
        let scanned = scan(dir, node)?;
        Self::resume(dir, node, segment_bytes, &scanned)
    }

    /// Resume appending after a [`scan`], first making the repairs the
    /// scan found: truncate the torn tail of the active segment (or
    /// remove a segment torn during creation), then sweep superseded
    /// checkpoints (a crash between publish and unlink, or a store
    /// written when every seal kept its checkpoint) and stray `.tmp`
    /// files (a publish that never completed). A station calls this only
    /// once the scanned tail has replayed clean.
    pub fn resume(
        dir: &Path,
        node: NodeId,
        segment_bytes: u64,
        scanned: &ScannedStore,
    ) -> Result<Self, SbrError> {
        let sdir = sensor_dir(dir, node);
        std::fs::create_dir_all(&sdir).map_err(|e| io_corrupt(&sdir, "cannot create", e))?;
        match &scanned.torn {
            Some((path, 0)) => {
                let _ = std::fs::remove_file(path);
            }
            Some((path, keep)) => OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| f.set_len(*keep))
                .map_err(|e| io_corrupt(path, "cannot truncate torn tail", e))?,
            None => {}
        }
        for leftover in &scanned.leftovers {
            let _ = std::fs::remove_file(leftover);
        }
        // lint:allow(cast-truncation): usize -> u64 widens
        let segment_bytes = segment_bytes.max((SEG_HEADER + RECORD_OVERHEAD + 1) as u64);
        let active = match scanned.active {
            None => None,
            Some(meta) => {
                let path = segment_path(&sdir, meta.ordinal);
                let file = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_corrupt(&path, "cannot reopen active segment", e))?;
                Some(ActiveSegment {
                    path,
                    file: BufWriter::new(file),
                    ordinal: meta.ordinal,
                    records: meta.records,
                    payload_bytes: meta.payload_bytes,
                    file_len: meta.file_len,
                })
            }
        };
        Ok(SegmentWriter {
            sdir,
            segment_bytes,
            active,
            sealed: scanned.sealed.clone(),
            records_total: scanned.records_total,
            payload_total: scanned.payload_total,
            checkpoint: scanned.checkpoint.as_ref().map(|ck| ck.covered),
        })
    }

    /// Total records across the store (covered + appended).
    pub fn records_total(&self) -> u64 {
        self.records_total
    }

    /// Total payload bytes across the store.
    pub fn payload_total(&self) -> u64 {
        self.payload_total
    }

    /// Sealed-segment index (covered + sealed by this writer).
    pub fn sealed(&self) -> &[SealedMeta] {
        &self.sealed
    }

    /// Append one wire frame as a CRC-framed record and flush. Returns
    /// `Some(meta)` when the append filled the segment to its budget and
    /// sealed it — the caller should follow up with
    /// [`SegmentWriter::write_checkpoint`].
    pub fn append(&mut self, frame: &Bytes) -> Result<Option<SealedMeta>, SbrError> {
        // lint:allow(cast-truncation): usize -> u64 widens — this IS the length guard
        if frame.len() as u64 >= u32::MAX as u64 {
            return Err(SbrError::InvalidConfig(format!(
                "frame of {} bytes exceeds the record size limit",
                frame.len()
            )));
        }
        if self.active.is_none() {
            let ordinal = u32::try_from(self.sealed.len()).map_err(|_| {
                SbrError::Corrupt("sealed segment count overflows the u32 ordinal".into())
            })?;
            let path = segment_path(&self.sdir, ordinal);
            let file = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)
                .map_err(|e| io_corrupt(&path, "cannot create segment", e))?;
            let mut file = BufWriter::new(file);
            let header = encode_segment_header(ordinal, self.records_total);
            file.write_all(&header)
                .map_err(|e| io_corrupt(&path, "cannot write segment header", e))?;
            self.active = Some(ActiveSegment {
                path,
                file,
                ordinal,
                records: 0,
                payload_bytes: 0,
                file_len: SEG_HEADER as u64,
            });
        }
        let budget = self.segment_bytes;
        let Some(active) = self.active.as_mut() else {
            return Err(SbrError::InconsistentState(
                "segment writer lost its active segment".to_string(),
            ));
        };
        let record = encode_record(frame);
        active
            .file
            .write_all(&record)
            .and_then(|()| active.file.flush())
            .map_err(|e| io_corrupt(&active.path, "cannot append record", e))?;
        active.records += 1;
        // lint:allow(cast-truncation): usize -> u64 widens
        active.payload_bytes += frame.len() as u64;
        active.file_len += record.len() as u64; // lint:allow(cast-truncation): usize -> u64 widens
        self.records_total += 1;
        self.payload_total += frame.len() as u64; // lint:allow(cast-truncation): usize -> u64 widens
        if active.file_len >= budget {
            let footer = encode_segment_footer(active.records, active.payload_bytes);
            active
                .file
                .write_all(&footer)
                .and_then(|()| active.file.flush())
                .map_err(|e| io_corrupt(&active.path, "cannot seal segment", e))?;
            let meta = SealedMeta {
                ordinal: active.ordinal,
                records: active.records,
                payload_bytes: active.payload_bytes,
            };
            self.active = None;
            self.sealed.push(meta);
            return Ok(Some(meta));
        }
        Ok(None)
    }

    /// Write a checkpoint at the current seal boundary and make it the
    /// store's only one: publish it atomically (`.tmp`, `sync_all`,
    /// rename), then unlink the checkpoint it supersedes. A crash between
    /// the two leaves both, which [`SegmentWriter::resume`] resolves.
    /// Only legal when no
    /// segment is active — i.e. immediately after
    /// [`SegmentWriter::append`] returned a seal — and when the caller's
    /// snapshot covers exactly the records written.
    pub fn write_checkpoint(&mut self, state: &CheckpointState) -> Result<PathBuf, SbrError> {
        if self.active.is_some() {
            return Err(SbrError::InconsistentState(
                "checkpoint requested while a segment is active".to_string(),
            ));
        }
        if state.records != self.records_total {
            return Err(SbrError::InconsistentState(format!(
                "checkpoint snapshot covers {} records but the store holds {}",
                state.records, self.records_total
            )));
        }
        let covered = u32::try_from(self.sealed.len()).map_err(|_| {
            SbrError::Corrupt("sealed segment count overflows the u32 ordinal".into())
        })?;
        let bytes = encode_checkpoint(covered, state, &self.sealed)?;
        let path = checkpoint_path(&self.sdir, covered);
        let tmp = path.with_extension("sbrck.tmp");
        let mut f = File::create(&tmp).map_err(|e| io_corrupt(&tmp, "cannot create", e))?;
        f.write_all(&bytes)
            .and_then(|()| f.sync_all())
            .map_err(|e| io_corrupt(&tmp, "cannot write checkpoint", e))?;
        drop(f);
        std::fs::rename(&tmp, &path).map_err(|e| io_corrupt(&path, "cannot publish", e))?;
        if let Some(old) = self
            .checkpoint
            .replace(covered)
            .filter(|&old| old != covered)
        {
            // A failed unlink leaves a superseded checkpoint that the
            // next resume sweeps; the new one is already published.
            let _ = std::fs::remove_file(checkpoint_path(&self.sdir, old));
        }
        Ok(path)
    }
}

// --- legacy single-file stream format (`.sbr` interchange) ---

/// Append-only writer for the legacy single-file frame stream
/// (`u32 LE len ∥ frame`) — the `.sbr` interchange format.
#[derive(Debug)]
pub struct StreamWriter {
    file: BufWriter<File>,
}

impl StreamWriter {
    /// Open (creating or appending to) a stream file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(StreamWriter {
            file: BufWriter::new(file),
        })
    }

    /// Append one wire frame, length-prefixed, and flush.
    pub fn append(&mut self, frame: &Bytes) -> std::io::Result<()> {
        let len = u32::try_from(frame.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "frame exceeds the u32 length-prefix limit",
            )
        })?;
        self.file.write_all(&len.to_le_bytes())?;
        self.file.write_all(frame)?;
        self.file.flush()?;
        Ok(())
    }
}

/// Outcome of reading a legacy `.sbr` stream back.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The complete length-delimited frames (original wire bytes), in
    /// append order. Not parsed: a reader admits each one through
    /// `codec::decode_exact` and `QueryEngine::index_frame`, the
    /// station's frame step.
    pub frames: Vec<Bytes>,
    /// Bytes of a truncated trailing frame that were discarded (0 for a
    /// clean stream).
    pub truncated_tail: usize,
}

/// Read a legacy stream file back as length-delimited frames; tolerates
/// (and reports) a truncated tail.
pub fn recover_stream(path: &Path) -> Result<RecoveredLog, SbrError> {
    let mut raw = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut raw))
        .map_err(|e| io_corrupt(path, "cannot read stream", e))?;

    let mut frames = Vec::new();
    let mut pos = 0usize;
    // Stops at the first truncated length prefix or body (crash mid-append).
    while let Some(header) = raw
        .get(pos..pos + 4)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
    {
        let len = u32::from_le_bytes(header) as usize;
        let Some(body) = raw.get(pos + 4..pos + 4 + len) else {
            break; // truncated tail
        };
        frames.push(Bytes::copy_from_slice(body));
        pos += 4 + len;
    }
    Ok(RecoveredLog {
        frames,
        truncated_tail: raw.len() - pos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BaseStation;
    use sbr_core::{Decoder, Frame, FrameKind, SbrConfig, SbrEncoder};

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sbrseg-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn frames(n: usize) -> Vec<Bytes> {
        let mut enc = SbrEncoder::new(2, 64, SbrConfig::new(48, 48)).unwrap();
        (0..n)
            .map(|c| {
                let rows: Vec<Vec<f64>> = (0..2)
                    .map(|r| {
                        (0..64)
                            .map(|i| ((i + c * 7 + r) as f64 * 0.3).sin())
                            .collect()
                    })
                    .collect();
                codec::encode_v2(&Frame::data(0, enc.encode(&rows).unwrap()))
            })
            .collect()
    }

    /// v2 frames from an ARQ node whose tiny retransmission buffer forces
    /// overflow resyncs mid-stream.
    fn v2_frames_with_resyncs(n: usize) -> Vec<Bytes> {
        let mut node = crate::SensorNode::new(1, 2, 64, SbrConfig::new(48, 48)).unwrap();
        node.enable_arq(2);
        (0..n)
            .map(|c| {
                let mut flush = None;
                for i in 0..64 {
                    let t = (c * 64 + i) as f64;
                    flush = node.record(&[(t * 0.3).sin(), (t * 0.2).cos()]).unwrap();
                }
                flush.unwrap().frame
            })
            .collect()
    }

    fn fill(dir: &Path, node: NodeId, segment_bytes: u64, fs: &[Bytes]) -> SegmentWriter {
        let mut w = SegmentWriter::open(dir, node, segment_bytes).unwrap();
        for f in fs {
            w.append(f).unwrap();
        }
        w
    }

    /// The writer side's view of the stream it stored: a mirror decoder
    /// fed every appended frame, and the newest resync's record index —
    /// what a station checkpoints at a seal.
    #[derive(Default)]
    struct Mirror {
        decoder: Decoder,
        records: u64,
        resync_at: Option<u64>,
    }

    impl Mirror {
        fn admit(&mut self, f: &Bytes) -> Frame {
            let frame = codec::decode_exact(f).unwrap();
            self.decoder.decode_frame(&frame).unwrap();
            if frame.kind == FrameKind::Resync {
                self.resync_at = Some(self.records);
            }
            self.records += 1;
            frame
        }
    }

    /// The snapshot a station would checkpoint after `w`'s last seal.
    fn boundary(w: &SegmentWriter, m: &Mirror) -> CheckpointState {
        CheckpointState {
            records: w.records_total(),
            payload_bytes: w.payload_total(),
            epoch: m.decoder.epoch(),
            next_seq: m.decoder.next_seq(),
            resync_at: m.resync_at,
            base: m.decoder.base().cloned(),
        }
    }

    /// Every file under a store, name → bytes.
    fn files(dir: &Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
        let mut out = std::collections::BTreeMap::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(files(&path));
            } else {
                out.insert(path.clone(), std::fs::read(&path).unwrap());
            }
        }
        out
    }

    /// `err` is `InconsistentState` naming `node`'s store.
    fn names_store(err: &SbrError, dir: &Path, node: NodeId) -> bool {
        let store = sensor_dir(dir, node).display().to_string();
        matches!(err, SbrError::InconsistentState(m) if m.contains(&store))
    }

    #[test]
    fn write_then_scan_roundtrips() {
        let dir = tempdir("roundtrip");
        let fs = frames(4);
        let w = fill(&dir, 3, DEFAULT_SEGMENT_BYTES, &fs);
        assert_eq!(w.records_total(), 4);
        let rec = scan(&dir, 3).unwrap();
        assert_eq!(
            rec.tail_frames, fs,
            "recovered frames are the original bytes"
        );
        assert_eq!(rec.truncated_tail, 0);
        assert_eq!(rec.records_total, 4);
        // The recovered stream decodes end to end.
        let mut d = Decoder::new();
        for f in &rec.tail_frames {
            let parsed = codec::decode_exact(f).unwrap();
            d.decode_frame(&parsed).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_discarded_not_fatal() {
        let dir = tempdir("truncate");
        let fs = frames(3);
        drop(fill(&dir, 1, DEFAULT_SEGMENT_BYTES, &fs));
        // Chop 5 bytes off the end (mid-record crash).
        let path = segment_path(&sensor_dir(&dir, 1), 0);
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        let rec = scan(&dir, 1).unwrap();
        assert_eq!(rec.tail_frames.len(), 2);
        assert!(rec.truncated_tail > 0);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            raw[..raw.len() - 5],
            "scan is read-only"
        );
        // Loading repaired the file: a fresh scan is clean.
        assert_eq!(BaseStation::load(&dir).unwrap().chunk_count(1), 2);
        let rec2 = scan(&dir, 1).unwrap();
        assert_eq!(rec2.tail_frames.len(), 2);
        assert_eq!(rec2.truncated_tail, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_middle_is_fatal() {
        let dir = tempdir("corrupt");
        let fs = frames(2);
        drop(fill(&dir, 1, DEFAULT_SEGMENT_BYTES, &fs));
        let path = segment_path(&sensor_dir(&dir, 1), 0);
        let mut raw = std::fs::read(&path).unwrap();
        raw[SEG_HEADER + 6] ^= 0xff; // inside the first record's payload
        std::fs::write(&path, &raw).unwrap();
        let err = scan(&dir, 1).unwrap_err();
        assert!(matches!(err, SbrError::Corrupt(_)), "{err}");
        assert!(
            err.to_string().contains("seg-00000000.sbrseg"),
            "error blames the damaged segment: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_across_reopens() {
        let dir = tempdir("reopen");
        let fs = frames(4);
        drop(fill(&dir, 2, DEFAULT_SEGMENT_BYTES, &fs[..2]));
        drop(fill(&dir, 2, DEFAULT_SEGMENT_BYTES, &fs[2..]));
        let rec = scan(&dir, 2).unwrap();
        assert_eq!(rec.tail_frames, fs);
        assert_eq!(BaseStation::load(&dir).unwrap().next_seq(2), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_store_with_resyncs_recovers_raw_bytes() {
        let dir = tempdir("v2-resync");
        let fs = v2_frames_with_resyncs(7);
        drop(fill(&dir, 5, DEFAULT_SEGMENT_BYTES, &fs));
        let rec = scan(&dir, 5).unwrap();
        assert_eq!(
            rec.tail_frames, fs,
            "recovered frames are the original bytes"
        );
        assert_eq!(rec.truncated_tail, 0);
        let report = verify(&dir, 5).unwrap();
        assert!(
            report.newest_resync.is_some(),
            "stream must contain resyncs"
        );
        assert!(report.epoch > 0);
        assert_eq!(BaseStation::load(&dir).unwrap().epoch(5), report.epoch);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_regression_in_store_is_fatal() {
        let dir = tempdir("epoch-regress");
        let fs = v2_frames_with_resyncs(7);
        // Find a resync frame and append it again after the stream: the
        // replayed (stale) resync must be rejected at recovery.
        let resync = fs
            .iter()
            .find(|f| codec::decode_exact(f).unwrap().kind == FrameKind::Resync)
            .expect("stream has a resync")
            .clone();
        let mut w = fill(&dir, 6, DEFAULT_SEGMENT_BYTES, &fs);
        w.append(&resync).unwrap();
        let err = BaseStation::load(&dir).unwrap_err();
        assert!(names_store(&err, &dir, 6), "{err}");
        let err = verify(&dir, 6).unwrap_err();
        assert!(names_store(&err, &dir, 6), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_append_is_an_error_not_a_panic() {
        let dir = tempdir("garbage");
        let fs = frames(2);
        drop(fill(&dir, 9, DEFAULT_SEGMENT_BYTES, &fs));
        let path = segment_path(&sensor_dir(&dir, 9), 0);

        // Garbage with no valid record CRC: Corrupt, never a panic.
        let clean = std::fs::read(&path).unwrap();
        let mut raw = clean.clone();
        raw.extend_from_slice(&8u32.to_le_bytes());
        raw.extend_from_slice(&[0xA5; 12]);
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(scan(&dir, 9), Err(SbrError::Corrupt(_))));

        // Garbage with *valid framing* but an unparseable payload: the
        // record CRC passes, so the store hands it back, and the frame
        // step refuses it.
        std::fs::write(&path, &clean).unwrap();
        let mut raw = clean.clone();
        let mut rec = Vec::new();
        rec.extend_from_slice(&8u32.to_le_bytes());
        rec.extend_from_slice(&[0xA5; 8]);
        let crc = codec::crc32(&rec);
        rec.extend_from_slice(&crc.to_le_bytes());
        raw.extend_from_slice(&rec);
        std::fs::write(&path, &raw).unwrap();
        assert_eq!(scan(&dir, 9).unwrap().tail_frames.len(), 3);
        for err in [
            BaseStation::load(&dir).unwrap_err(),
            verify(&dir, 9).unwrap_err(),
        ] {
            assert!(
                matches!(&err, SbrError::Corrupt(m) if m.contains("record 2")),
                "{err}"
            );
        }

        // A length prefix pointing past EOF is a torn tail; kept records
        // survive.
        std::fs::write(&path, &clean).unwrap();
        let mut raw = clean.clone();
        raw.extend_from_slice(&(u32::MAX).to_le_bytes());
        raw.push(0x42);
        std::fs::write(&path, &raw).unwrap();
        let rec = scan(&dir, 9).unwrap();
        assert_eq!(rec.tail_frames.len(), 2);
        assert_eq!(rec.truncated_tail, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_gap_in_store_is_fatal() {
        let dir = tempdir("gap");
        let fs = frames(3);
        let mut w = SegmentWriter::open(&dir, 1, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(&fs[0]).unwrap();
        w.append(&fs[2]).unwrap(); // skipped seq 1
        let err = BaseStation::load(&dir).unwrap_err();
        assert!(names_store(&err, &dir, 1), "{err}");
        let err = verify(&dir, 1).unwrap_err();
        assert!(names_store(&err, &dir, 1), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment budget small enough that every frame seals a segment.
    const TINY: u64 = 1;

    #[test]
    fn seal_and_checkpoint_bound_the_recovery_tail() {
        let dir = tempdir("seal");
        let fs = frames(6);
        let mut w = SegmentWriter::open(&dir, 4, TINY).unwrap();
        let mut mirror = Mirror::default();
        for f in &fs {
            let sealed = w.append(f).unwrap();
            let frame = mirror.admit(f);
            assert_eq!(frame.tx.seq + 1, mirror.decoder.next_seq());
            let meta = sealed.expect("tiny budget seals every append");
            assert_eq!(meta.records, 1);
            w.write_checkpoint(&boundary(&w, &mirror)).unwrap();
        }
        assert_eq!(w.sealed().len(), 6);
        let rec = scan(&dir, 4).unwrap();
        // The newest checkpoint covers everything: recovery replays nothing.
        assert_eq!(rec.tail_frames.len(), 0);
        assert_eq!(rec.records_total, 6);
        assert_eq!(rec.checkpoint.as_ref().unwrap().covered, 6);
        // The cold region hydrates back to the original bytes.
        assert_eq!(hydrate(&dir, 4, 6).unwrap(), fs);
        let station = BaseStation::load(&dir).unwrap();
        assert_eq!(station.next_seq(4), 6);
        assert_eq!(station.raw_frames(4), fs);
        assert_eq!(
            station.cold_chunks(4),
            0,
            "the replay matched the checkpoint"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_replays_only_the_post_checkpoint_tail() {
        let dir = tempdir("tail-bound");
        let fs = frames(7);
        let mut w = SegmentWriter::open(&dir, 4, TINY).unwrap();
        let mut mirror = Mirror::default();
        for (i, f) in fs.iter().enumerate() {
            w.append(f).unwrap();
            mirror.admit(f);
            if i == 4 {
                // Only one checkpoint, midway: the tail is what follows.
                w.write_checkpoint(&boundary(&w, &mirror)).unwrap();
            }
        }
        let rec = scan(&dir, 4).unwrap();
        assert_eq!(rec.tail_frames, fs[5..].to_vec());
        assert_eq!(rec.records_total, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_seal_resumes_as_active_segment() {
        let dir = tempdir("torn-seal");
        let fs = frames(3);
        drop(fill(&dir, 2, DEFAULT_SEGMENT_BYTES, &fs[..2]));
        // Hand-append a footer, then tear it mid-write.
        let path = segment_path(&sensor_dir(&dir, 2), 0);
        let mut raw = std::fs::read(&path).unwrap();
        let full = raw.len();
        let footer = encode_segment_footer(2, fs[0].len() as u64 + fs[1].len() as u64);
        raw.extend_from_slice(&footer[..SEG_FOOTER - 3]);
        std::fs::write(&path, &raw).unwrap();
        let rec = scan(&dir, 2).unwrap();
        assert_eq!(
            rec.tail_frames.len(),
            2,
            "records before the torn seal survive"
        );
        assert!(rec.active.is_some(), "segment stays active");
        assert_eq!(rec.truncated_tail, SEG_FOOTER - 3);
        // The writer resumes: it cuts the torn seal, and the next append
        // lands cleanly.
        let mut w = SegmentWriter::resume(&dir, 2, DEFAULT_SEGMENT_BYTES, &rec).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, full);
        w.append(&fs[2]).unwrap();
        assert_eq!(scan(&dir, 2).unwrap().tail_frames, fs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_and_scan_keep_a_stray_tmp_that_load_sweeps() {
        let dir = tempdir("tmp-sweep");
        let fs = frames(2);
        drop(fill(&dir, 3, DEFAULT_SEGMENT_BYTES, &fs));
        let stray = sensor_dir(&dir, 3).join("ck-00000009.sbrck.tmp");
        std::fs::write(&stray, b"half-written checkpoint").unwrap();
        verify(&dir, 3).unwrap();
        assert_eq!(scan(&dir, 3).unwrap().tail_frames.len(), 2);
        assert_eq!(
            std::fs::read(&stray).unwrap(),
            b"half-written checkpoint",
            "verify and scan are read-only: a live writer may be mid-publish"
        );
        assert_eq!(BaseStation::load(&dir).unwrap().chunk_count(3), 2);
        assert!(!stray.exists(), "load sweeps crash leftovers");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rejected_while_segment_active() {
        let dir = tempdir("ck-active");
        let fs = frames(1);
        let mut w = fill(&dir, 1, DEFAULT_SEGMENT_BYTES, &fs);
        let err = w
            .write_checkpoint(&CheckpointState {
                records: 1,
                payload_bytes: fs[0].len() as u64,
                epoch: 0,
                next_seq: 1,
                resync_at: None,
                base: None,
            })
            .unwrap_err();
        assert!(matches!(err, SbrError::InconsistentState(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_roundtrips_base_signal_and_resync() {
        let dir = tempdir("ck-base");
        let fs = v2_frames_with_resyncs(5);
        let mut w = SegmentWriter::open(&dir, 8, TINY).unwrap();
        let mut mirror = Mirror::default();
        for f in &fs {
            w.append(f).unwrap();
            mirror.admit(f);
        }
        let state = boundary(&w, &mirror);
        assert!(state.base.is_some());
        w.write_checkpoint(&state).unwrap();
        let rec = scan(&dir, 8).unwrap();
        let ck = rec.checkpoint.unwrap();
        assert_eq!(ck.state.next_seq, state.next_seq);
        assert_eq!(ck.state.epoch, state.epoch);
        assert_eq!(ck.state.resync_at, mirror.resync_at);
        assert!(mirror.resync_at.is_some());
        assert_eq!(
            ck.state.base, state.base,
            "base signal survives the roundtrip"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn checkpoint_numbers(dir: &Path, node: NodeId) -> Vec<u32> {
        list_store(&sensor_dir(dir, node)).unwrap().1
    }

    #[test]
    fn each_checkpoint_replaces_the_last() {
        let dir = tempdir("ck-replace");
        let fs = v2_frames_with_resyncs(6);
        let mut w = SegmentWriter::open(&dir, 7, TINY).unwrap();
        let mut mirror = Mirror::default();
        for (i, f) in fs.iter().enumerate() {
            w.append(f).unwrap();
            mirror.admit(f);
            w.write_checkpoint(&boundary(&w, &mirror)).unwrap();
            assert_eq!(checkpoint_numbers(&dir, 7), vec![i as u32 + 1]);
        }
        // A writer resumed from a scan supersedes the scanned checkpoint.
        drop(w);
        let more = v2_frames_with_resyncs(7);
        let mut w = SegmentWriter::open(&dir, 7, TINY).unwrap();
        w.append(&more[6]).unwrap();
        mirror.admit(&more[6]);
        w.write_checkpoint(&boundary(&w, &mirror)).unwrap();
        assert_eq!(checkpoint_numbers(&dir, 7), vec![7]);
        assert_eq!(verify(&dir, 7).unwrap().checkpoints, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_sweeps_superseded_checkpoints_only_after_the_tail_replays() {
        let dir = tempdir("ck-sweep");
        let fs = frames(4);
        let mut w = SegmentWriter::open(&dir, 3, TINY).unwrap();
        let mut mirror = Mirror::default();
        let mut published = Vec::new();
        for f in &fs {
            w.append(f).unwrap();
            mirror.admit(f);
            let path = w.write_checkpoint(&boundary(&w, &mirror)).unwrap();
            published.push((path.clone(), std::fs::read(&path).unwrap()));
        }
        drop(w);
        // A store written when every seal kept its checkpoint.
        let keep_all = || {
            for (path, raw) in &published {
                std::fs::write(path, raw).unwrap();
            }
        };
        keep_all();
        assert_eq!(verify(&dir, 3).unwrap().checkpoints, 4, "verify audits all");

        // A damaged newest checkpoint is a typed error and sweeps nothing.
        let (newest, clean) = published.last().unwrap();
        let mut raw = clean.clone();
        raw[CK_HEADER / 2] ^= 0x08;
        std::fs::write(newest, &raw).unwrap();
        assert!(matches!(scan(&dir, 3), Err(SbrError::Corrupt(_))));
        assert!(matches!(BaseStation::load(&dir), Err(SbrError::Corrupt(_))));
        assert_eq!(checkpoint_numbers(&dir, 3), vec![1, 2, 3, 4]);

        std::fs::write(newest, clean).unwrap();
        let station = BaseStation::load(&dir).unwrap();
        assert_eq!(checkpoint_numbers(&dir, 3), vec![4], "older ones swept");
        assert_eq!(station.raw_frames(3), fs);
        assert_eq!(hydrate(&dir, 3, 4).unwrap(), fs);

        // Neither does a tail that fails to replay: a stale frame after
        // the newest checkpoint.
        SegmentWriter::open(&dir, 3, TINY)
            .unwrap()
            .append(&fs[0])
            .unwrap();
        keep_all();
        let err = BaseStation::load(&dir).unwrap_err();
        assert!(names_store(&err, &dir, 3), "{err}");
        assert_eq!(checkpoint_numbers(&dir, 3), vec![1, 2, 3, 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_audits_the_whole_store() {
        let dir = tempdir("verify");
        let fs = frames(5);
        let mut w = SegmentWriter::open(&dir, 4, TINY).unwrap();
        let mut mirror = Mirror::default();
        for f in &fs {
            w.append(f).unwrap();
            mirror.admit(f);
            w.write_checkpoint(&boundary(&w, &mirror)).unwrap();
        }
        let report = verify(&dir, 4).unwrap();
        assert_eq!(report.segments, 5);
        assert_eq!(report.checkpoints, 1);
        assert_eq!(report.records, 5);
        assert_eq!(report.next_seq, 5);
        assert!(!report.active);
        // Damage one byte inside a sealed segment: verify must fail and
        // blame exactly that file.
        let victim = segment_path(&sensor_dir(&dir, 4), 2);
        let mut raw = std::fs::read(&victim).unwrap();
        raw[SEG_HEADER + 5] ^= 0x01;
        std::fs::write(&victim, &raw).unwrap();
        let err = verify(&dir, 4).unwrap_err();
        assert!(
            err.to_string().contains("seg-00000002.sbrseg"),
            "error names the damaged segment: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_catches_checkpoint_divergence() {
        let dir = tempdir("verify-ck");
        let fs = v2_frames_with_resyncs(6);
        let mut w = SegmentWriter::open(&dir, 5, TINY).unwrap();
        let mut mirror = Mirror::default();
        for f in &fs {
            w.append(f).unwrap();
            mirror.admit(f);
        }
        let at = mirror.resync_at.expect("stream has resyncs");
        let honest = boundary(&w, &mirror);
        w.write_checkpoint(&honest).unwrap();
        verify(&dir, 5).unwrap();
        // Checkpoints that lie in one field each: framing-valid (their
        // own CRC passes) but inconsistent with the replay.
        let lies = [
            CheckpointState {
                next_seq: 99,
                ..honest.clone()
            },
            CheckpointState {
                resync_at: None,
                ..honest.clone()
            },
            CheckpointState {
                resync_at: Some(at + 1),
                ..honest.clone()
            },
            CheckpointState {
                base: None,
                ..honest.clone()
            },
        ];
        for lie in &lies {
            w.write_checkpoint(lie).unwrap();
            assert!(
                matches!(verify(&dir, 5), Err(SbrError::InconsistentState(_))),
                "{lie:?} (replay: next_seq {}, resync_at {at})",
                mirror.decoder.next_seq()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Rewrite `path`'s checkpoint with one bit of one base value flipped
    /// and its CRC recomputed.
    fn flip_checkpoint_base(path: &Path) {
        let mut ck = load_checkpoint(path).unwrap();
        let base = ck.state.base.take().expect("the checkpoint holds a base");
        let (w, values, meta) = base.to_raw();
        let mut values = values.to_vec();
        assert!(!values.is_empty(), "the base holds values");
        values[0] = f64::from_bits(values[0].to_bits() ^ 1);
        ck.state.base = Some(BaseSignal::from_raw(w, values, meta).unwrap());
        let raw = encode_checkpoint(ck.covered, &ck.state, &ck.index).unwrap();
        std::fs::write(path, raw).unwrap();
    }

    #[test]
    fn verify_and_hydration_audit_the_checkpoint_base() {
        let dir = tempdir("ck-base-audit");
        // A batch shape and budget for which the encoder learns a base.
        let mut enc = SbrEncoder::new(2, 64, SbrConfig::new(64, 64)).unwrap();
        let fs: Vec<Bytes> = (0..4)
            .map(|c| {
                let rows: Vec<Vec<f64>> = (0..2)
                    .map(|r| {
                        (0..64)
                            .map(|i| ((i + c * 7 + r) as f64 * 0.3).sin() * (1 + i % 5) as f64)
                            .collect()
                    })
                    .collect();
                codec::encode_v2(&Frame::data(0, enc.encode(&rows).unwrap()))
            })
            .collect();
        {
            // Every frame seals and checkpoints: a reload is all cold.
            let station = BaseStation::with_persistence(&dir).with_segment_size(TINY);
            for f in &fs {
                station.receive_frame(2, f.clone()).unwrap();
            }
        }
        verify(&dir, 2).unwrap();
        flip_checkpoint_base(&checkpoint_path(&sensor_dir(&dir, 2), 4));
        let err = verify(&dir, 2).unwrap_err();
        assert!(matches!(err, SbrError::InconsistentState(_)), "{err}");
        // The load resumes from the lying base (there is no tail to
        // replay), and the first historical query's hydration catches it.
        let station = BaseStation::load(&dir).unwrap();
        assert_eq!(station.cold_chunks(2), 4);
        let err = station.reconstruct_chunks(2, 0, 4).unwrap_err();
        assert!(names_store(&err, &dir, 2), "{err}");
        assert_eq!(
            station.cold_chunks(2),
            4,
            "a failed hydration leaves it cold"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store that fails recovery is left byte for byte as it was: a
    /// seq gap in its tail, behind a torn final record, a superseded
    /// checkpoint and a stray `.tmp` — every one of which a clean load
    /// would repair.
    #[test]
    fn failed_recovery_modifies_nothing() {
        let dir = tempdir("failed-recovery");
        let fs = frames(5);
        let mut w = SegmentWriter::open(&dir, 1, TINY).unwrap();
        let mut mirror = Mirror::default();
        let mut superseded = None;
        for f in &fs[..2] {
            w.append(f).unwrap();
            mirror.admit(f);
            let path = w.write_checkpoint(&boundary(&w, &mirror)).unwrap();
            superseded = superseded.or_else(|| Some((path.clone(), std::fs::read(&path).unwrap())));
        }
        drop(w);
        let mut w = SegmentWriter::open(&dir, 1, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(&fs[3]).unwrap(); // skips seq 2
        w.append(&fs[4]).unwrap();
        drop(w);
        let (path, raw) = superseded.unwrap();
        std::fs::write(&path, raw).unwrap();
        let sdir = sensor_dir(&dir, 1);
        std::fs::write(sdir.join("ck-00000003.sbrck.tmp"), b"torn publish").unwrap();
        let active = segment_path(&sdir, 2);
        let raw = std::fs::read(&active).unwrap();
        std::fs::write(&active, &raw[..raw.len() - 5]).unwrap();
        assert_eq!(checkpoint_numbers(&dir, 1), vec![1, 2]);

        let before = files(&dir);
        let err = BaseStation::load(&dir).unwrap_err();
        assert!(names_store(&err, &dir, 1), "{err}");
        assert!(files(&dir) == before, "a failed load modified the store");
        let err = verify(&dir, 1).unwrap_err();
        assert!(names_store(&err, &dir, 1), "{err}");
        assert!(files(&dir) == before, "verify modified the store");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A gap inside checkpoint-covered (cold) history loads, since only
    /// the tail replays at load, and is caught, typed, by the first
    /// historical query's hydration.
    #[test]
    fn cold_history_gap_fails_hydration() {
        let dir = tempdir("cold-gap");
        let fs = frames(3);
        let mut w = SegmentWriter::open(&dir, 4, TINY).unwrap();
        let mut mirror = Mirror::default();
        mirror.admit(&fs[0]);
        w.append(&fs[0]).unwrap();
        w.append(&fs[2]).unwrap(); // skips seq 1
        w.write_checkpoint(&CheckpointState {
            next_seq: 3,
            ..boundary(&w, &mirror)
        })
        .unwrap();
        let station = BaseStation::load(&dir).unwrap();
        assert_eq!(station.cold_chunks(4), 2);
        for err in [
            station.reconstruct_chunks(4, 0, 2).unwrap_err(),
            station.aggregate_range(4, 0, 0, 10).unwrap_err(),
            station.frames(4).unwrap_err(),
        ] {
            assert!(names_store(&err, &dir, 4), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nodes_lists_stores() {
        let dir = tempdir("nodes");
        drop(fill(&dir, 2, DEFAULT_SEGMENT_BYTES, &frames(1)));
        drop(fill(&dir, 7, DEFAULT_SEGMENT_BYTES, &frames(1)));
        assert_eq!(nodes(&dir), vec![2, 7]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // --- legacy single-file stream format ---

    #[test]
    fn stream_write_then_recover_roundtrips() {
        let dir = tempdir("stream-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.sbr");
        let fs = frames(4);
        let mut w = StreamWriter::create(&path).unwrap();
        for f in &fs {
            w.append(f).unwrap();
        }
        let rec = recover_stream(&path).unwrap();
        assert_eq!(rec.frames, fs);
        assert_eq!(rec.truncated_tail, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stream_truncated_tail_and_garbage() {
        let dir = tempdir("stream-tail");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.sbr");
        let fs = frames(3);
        let mut w = StreamWriter::create(&path).unwrap();
        for f in &fs {
            w.append(f).unwrap();
        }
        drop(w);
        let clean = std::fs::read(&path).unwrap();
        // Torn tail: tolerated.
        std::fs::write(&path, &clean[..clean.len() - 5]).unwrap();
        let rec = recover_stream(&path).unwrap();
        assert_eq!(rec.frames.len(), 2);
        assert!(rec.truncated_tail > 0);
        // Garbage append: a complete length-delimited frame that the
        // readers' exact decode refuses.
        let mut raw = clean.clone();
        raw.extend_from_slice(&8u32.to_le_bytes());
        raw.extend_from_slice(&[0xA5; 8]);
        std::fs::write(&path, &raw).unwrap();
        let rec = recover_stream(&path).unwrap();
        assert_eq!(rec.frames[..3], fs[..]);
        assert!(matches!(
            codec::decode_exact(&rec.frames[3]),
            Err(SbrError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
