//! Golden on-disk format tests for the segmented storage engine.
//!
//! These pin the `.sbrseg` / `.sbrck` byte layout — magics, versions,
//! field offsets, CRC placement, and file names — against the constants
//! exported by `sensor_net::storage`. A change that shifts any of these
//! bytes breaks every store already on disk, so it must show up here as
//! a hand-edited golden value, not ride in silently. The repolint
//! wire-drift rule cross-checks the constant *values* asserted below
//! against the source, so drift has to be acknowledged in both places.

use bytes::Bytes;
use sbr_repro::core::{codec, Frame, SbrConfig, SbrEncoder};
use sbr_repro::sensor_net::storage::{
    self, sensor_dir, CheckpointState, SegmentWriter, CK_HEADER, CK_INDEX_ENTRY, CK_MAGIC,
    CK_VERSION, DEFAULT_SEGMENT_BYTES, RECORD_OVERHEAD, SEG_FOOTER, SEG_FOOTER_MAGIC, SEG_HEADER,
    SEG_MAGIC, SEG_VERSION,
};
use std::path::PathBuf;

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sbr-compat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One deterministic wire frame (seq 0) for golden layouts.
fn one_frame() -> Bytes {
    let mut enc = SbrEncoder::new(2, 32, SbrConfig::new(40, 32)).expect("config");
    let rows: Vec<Vec<f64>> = (0..2)
        .map(|r| (0..32).map(|i| ((i + r) as f64 * 0.25).sin()).collect())
        .collect();
    codec::encode_v2(&Frame::data(0, enc.encode(&rows).expect("encode")))
}

fn u16_at(raw: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(raw[at..at + 2].try_into().expect("u16"))
}

fn u32_at(raw: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(raw[at..at + 4].try_into().expect("u32"))
}

fn u64_at(raw: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(raw[at..at + 8].try_into().expect("u64"))
}

/// The CRC-32/IEEE known-answer test: the storage framing shares the
/// wire codec's polynomial, and this is the standard check vector for
/// it. If this fails, every segment CRC on disk is unreadable.
#[test]
fn crc32_known_answer_vector() {
    assert_eq!(codec::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(codec::crc32(b""), 0);
}

/// Every format constant, pinned by value. These are the numbers readers
/// in other languages (or future versions of this one) hard-code; a
/// mismatch here is a wire break, not a refactor.
#[test]
fn format_constants_are_pinned() {
    assert_eq!(SEG_MAGIC, 0x5342_5347, "segment magic");
    assert_eq!(SEG_VERSION, 1, "segment version");
    assert_eq!(SEG_HEADER, 22, "segment header bytes");
    assert_eq!(RECORD_OVERHEAD, 8, "record framing overhead");
    assert_eq!(SEG_FOOTER_MAGIC, 0x5342_5346, "segment footer magic");
    assert_eq!(SEG_FOOTER, 20, "segment footer bytes");
    assert_eq!(CK_MAGIC, 0x5342_434B, "checkpoint magic");
    assert_eq!(CK_VERSION, 1, "checkpoint version");
    assert_eq!(CK_HEADER, 51, "checkpoint fixed header bytes");
    assert_eq!(CK_INDEX_ENTRY, 16, "checkpoint index entry bytes");
    assert_eq!(DEFAULT_SEGMENT_BYTES, 65536, "default segment budget");
    // The magics decode to ASCII tags on disk (LE byte order).
    assert_eq!(&SEG_MAGIC.to_le_bytes(), b"GSBS");
    assert_eq!(&SEG_FOOTER_MAGIC.to_le_bytes(), b"FSBS");
    assert_eq!(&CK_MAGIC.to_le_bytes(), b"KCBS");
}

/// Byte-level golden parse of a sealed single-record segment: header
/// fields at their pinned offsets, the length∥payload∥CRC record frame,
/// and the footer, with each CRC recomputed over exactly its documented
/// coverage.
#[test]
fn sealed_segment_layout_is_golden() {
    let dir = tempdir("segment");
    let frame = one_frame();
    let flen = frame.len();
    // Budget 1: the first append seals the segment immediately.
    let mut w = SegmentWriter::open(&dir, 1, 1).expect("open");
    let sealed = w.append(&frame).expect("append");
    assert!(sealed.is_some(), "budget 1 seals on the first append");

    // File name is part of the format (recovery sorts on it).
    let path = sensor_dir(&dir, 1).join("seg-00000000.sbrseg");
    let raw = std::fs::read(&path).expect("segment file exists at its pinned name");
    assert_eq!(
        raw.len(),
        SEG_HEADER + RECORD_OVERHEAD + flen + SEG_FOOTER,
        "sealed file length is header + one framed record + footer"
    );

    // Header: magic u32 ∥ version u16 ∥ ordinal u32 ∥ first_record u64 ∥ CRC u32.
    assert_eq!(u32_at(&raw, 0), SEG_MAGIC);
    assert_eq!(u16_at(&raw, 4), SEG_VERSION);
    assert_eq!(u32_at(&raw, 6), 0, "ordinal");
    assert_eq!(u64_at(&raw, 10), 0, "first record index");
    assert_eq!(
        u32_at(&raw, 18),
        codec::crc32(&raw[..18]),
        "header CRC covers the 18 bytes before it"
    );

    // Record: u32 len ∥ payload ∥ u32 crc32(len ∥ payload).
    let r = SEG_HEADER;
    assert_eq!(u32_at(&raw, r) as usize, flen, "record length prefix");
    assert_eq!(
        &raw[r + 4..r + 4 + flen],
        &frame[..],
        "payload is the raw wire frame"
    );
    assert_eq!(
        u32_at(&raw, r + 4 + flen),
        codec::crc32(&raw[r..r + 4 + flen]),
        "record CRC covers length prefix + payload"
    );

    // Footer: magic u32 ∥ record count u32 ∥ payload bytes u64 ∥ CRC u32.
    let f = r + 4 + flen + 4;
    assert_eq!(u32_at(&raw, f), SEG_FOOTER_MAGIC);
    assert_eq!(u32_at(&raw, f + 4), 1, "record count");
    assert_eq!(u64_at(&raw, f + 8), flen as u64, "payload byte total");
    assert_eq!(
        u32_at(&raw, f + 16),
        codec::crc32(&raw[f..f + 16]),
        "footer CRC covers the 16 bytes before it"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Byte-level golden parse of a minimal checkpoint (one covered segment,
/// no resync, no base snapshot): every fixed-offset field, the index
/// entry, the flag bytes, and the trailing whole-file CRC.
#[test]
fn checkpoint_layout_is_golden() {
    let dir = tempdir("checkpoint");
    let frame = one_frame();
    let flen = frame.len() as u64;
    let mut w = SegmentWriter::open(&dir, 2, 1).expect("open");
    w.append(&frame).expect("append seals");
    w.write_checkpoint(&CheckpointState {
        records: 1,
        payload_bytes: flen,
        epoch: 0,
        next_seq: 1,
        resync_at: None,
        base: None,
    })
    .expect("checkpoint");

    let path = sensor_dir(&dir, 2).join("ck-00000001.sbrck");
    let raw = std::fs::read(&path).expect("checkpoint file exists at its pinned name");
    // 51-byte header + one 16-byte index entry + 1 base flag + 4 CRC.
    assert_eq!(raw.len(), CK_HEADER + CK_INDEX_ENTRY + 1 + 4);

    assert_eq!(u32_at(&raw, 0), CK_MAGIC);
    assert_eq!(u16_at(&raw, 4), CK_VERSION);
    assert_eq!(u32_at(&raw, 6), 1, "covered segment count");
    assert_eq!(u64_at(&raw, 10), 1, "records covered");
    assert_eq!(u64_at(&raw, 18), flen, "payload bytes covered");
    assert_eq!(u32_at(&raw, 26), 0, "epoch");
    assert_eq!(u64_at(&raw, 30), 1, "next expected seq");
    assert_eq!(raw[38], 0, "resync-present flag");
    assert_eq!(u64_at(&raw, 39), 0, "resync record index (unused)");
    assert_eq!(u32_at(&raw, 47), 1, "index length");
    // Index entry: ordinal u32 ∥ records u32 ∥ payload bytes u64.
    assert_eq!(u32_at(&raw, 51), 0, "index ordinal");
    assert_eq!(u32_at(&raw, 55), 1, "index records");
    assert_eq!(u64_at(&raw, 59), flen, "index payload bytes");
    assert_eq!(raw[67], 0, "base-signal-present flag");
    let crc_at = raw.len() - 4;
    assert_eq!(
        u32_at(&raw, crc_at),
        codec::crc32(&raw[..crc_at]),
        "checkpoint CRC covers the whole body"
    );

    // And it reads back through the public scan path.
    let rec = storage::scan(&dir, 2).expect("scan");
    let ck = rec.checkpoint.expect("checkpoint loads");
    assert_eq!(ck.covered, 1);
    assert_eq!(ck.state.next_seq, 1);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The legacy `.sbr` interchange stream is a bare `u32 LE len ∥ frame`
/// concatenation — no magic, no CRC. Pinned so `sbr compress` output
/// stays readable by old tooling.
#[test]
fn legacy_stream_layout_is_golden() {
    let dir = tempdir("legacy");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("log.sbr");
    let frame = one_frame();
    let mut w = storage::StreamWriter::create(&path).expect("create");
    w.append(&frame).expect("append");
    drop(w);
    let raw = std::fs::read(&path).expect("read");
    assert_eq!(raw.len(), 4 + frame.len());
    assert_eq!(u32_at(&raw, 0) as usize, frame.len());
    assert_eq!(&raw[4..], &frame[..]);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
