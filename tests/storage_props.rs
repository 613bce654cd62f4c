//! Property and sweep tests for segmented-store recovery: every possible
//! torn write is tolerated with a clean prefix, every possible single-bit
//! corruption of sealed history is rejected, and arbitrary garbage can
//! never panic the scanner.

use bytes::Bytes;
use proptest::prelude::*;
use sbr_repro::core::{codec, Frame, SbrConfig, SbrEncoder, SbrError};
use sbr_repro::sensor_net::storage::{
    self, sensor_dir, CheckpointState, SegmentWriter, DEFAULT_SEGMENT_BYTES, RECORD_OVERHEAD,
    SEG_HEADER,
};
use sbr_repro::sensor_net::BaseStation;
use std::path::{Path, PathBuf};

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sbr-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A short deterministic wire-frame stream.
fn frames(n: usize) -> Vec<Bytes> {
    let mut enc = SbrEncoder::new(2, 32, SbrConfig::new(40, 32)).expect("config");
    (0..n)
        .map(|c| {
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|r| {
                    (0..32)
                        .map(|i| ((i + c * 13 + r * 3) as f64 * 0.21).sin() * 4.0)
                        .collect()
                })
                .collect();
            codec::encode_v2(&Frame::data(0, enc.encode(&rows).expect("encode")))
        })
        .collect()
}

fn fill(dir: &Path, node: usize, segment_bytes: u64, fs: &[Bytes]) {
    let mut w = SegmentWriter::open(dir, node, segment_bytes).expect("open");
    for f in fs {
        w.append(f).expect("append");
    }
}

/// Crash-during-append, exhaustively: truncate the active segment at
/// *every* byte boundary. Recovery must succeed at each cut with exactly
/// the records fully contained in the surviving prefix — never a panic,
/// never a phantom record — and the station loaded from it stands at
/// the next seq after that prefix. Loading repairs the store, durably:
/// a second scan reports a clean tail.
#[test]
fn every_tail_truncation_recovers_the_exact_clean_prefix() {
    let dir = tempdir("truncate-sweep");
    let fs = frames(3);
    fill(&dir, 1, DEFAULT_SEGMENT_BYTES, &fs);
    let path = sensor_dir(&dir, 1).join("seg-00000000.sbrseg");
    let full = std::fs::read(&path).expect("read segment");

    // Record end offsets: records[i] ends at SEG_HEADER + Σ framed sizes.
    let mut ends = Vec::new();
    let mut at = SEG_HEADER;
    for f in &fs {
        at += RECORD_OVERHEAD + f.len();
        ends.push(at);
    }
    assert_eq!(at, full.len(), "unsealed file is header + records");

    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).expect("truncate");
        let rec = storage::scan(&dir, 1).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        let expect = ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(
            rec.tail_frames.len(),
            expect,
            "cut at {cut} must keep exactly the complete records"
        );
        assert_eq!(
            rec.tail_frames,
            fs[..expect].to_vec(),
            "cut at {cut}: byte-exact prefix"
        );
        assert_eq!(rec.records_total, expect as u64);
        let station = BaseStation::load(&dir).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(station.next_seq(1), expect as u64, "cut at {cut}");
        // The load repaired the store in place: a second scan is clean.
        let again = storage::scan(&dir, 1).expect("rescan after repair");
        assert_eq!(again.truncated_tail, 0, "cut at {cut}: repair is durable");
        assert_eq!(again.tail_frames.len(), expect);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary bytes appended after a clean store (a crashed writer,
    /// a filesystem bug, an adversary) must recover the original records
    /// intact — either tolerated as a torn tail or rejected as Corrupt,
    /// and never, under any input, a panic or a phantom record.
    #[test]
    fn garbage_appends_never_panic_and_never_invent_records(
        garbage in prop::collection::vec(any::<u8>(), 1..160)
    ) {
        let dir = tempdir("garbage-prop");
        let fs = frames(2);
        fill(&dir, 1, DEFAULT_SEGMENT_BYTES, &fs);
        let path = sensor_dir(&dir, 1).join("seg-00000000.sbrseg");
        let mut raw = std::fs::read(&path).expect("read segment");
        raw.extend_from_slice(&garbage);
        std::fs::write(&path, &raw).expect("write garbage");
        match storage::scan(&dir, 1) {
            // Tolerated as a torn tail: the real records survive and the
            // garbage cannot add to them (it would need a valid record
            // CRC, and then a frame the station's step admits).
            Ok(rec) => {
                prop_assert_eq!(&rec.tail_frames, &fs);
                prop_assert_eq!(rec.truncated_tail, garbage.len());
                let station = BaseStation::load(&dir).expect("the clean prefix loads");
                prop_assert_eq!(station.raw_frames(1), fs);
            }
            // Or rejected loudly, blaming the damaged file.
            Err(SbrError::Corrupt(msg)) => prop_assert!(
                msg.contains("seg-00000000.sbrseg"),
                "corruption error must name the file: {}", msg
            ),
            Err(e) => prop_assert!(false, "unexpected error class: {}", e),
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Flip every bit of every byte of a sealed, non-final segment: each one
/// must make recovery fail. Sealed history has no tolerated torn states
/// (that grace applies only to the final, active segment), every byte is
/// under a CRC (header, record framing, or footer — there is no
/// uncovered padding), and CRC-32 detects all single-bit errors, so a
/// single flip can never pass silently or quarantine more than the one
/// store it hit.
#[test]
fn every_bit_flip_in_sealed_history_is_rejected() {
    let dir = tempdir("bitflip-seg");
    let fs = frames(3);
    // Budget 1: every append seals, giving three sealed segments; flips
    // target segment 0, which is never the torn-tolerant last file.
    fill(&dir, 1, 1, &fs);
    let path = sensor_dir(&dir, 1).join("seg-00000000.sbrseg");
    let clean = std::fs::read(&path).expect("read segment");
    storage::scan(&dir, 1).expect("clean store scans");

    for i in 0..clean.len() {
        for bit in 0..8 {
            let mut raw = clean.clone();
            raw[i] ^= 1 << bit;
            std::fs::write(&path, &raw).expect("write flip");
            let err = storage::scan(&dir, 1);
            assert!(
                err.is_err(),
                "flip of byte {i} bit {bit} in a sealed segment scanned clean"
            );
        }
    }
    // Restore: the store is intact again once the flip is undone.
    std::fs::write(&path, &clean).expect("restore");
    assert_eq!(storage::scan(&dir, 1).expect("restored").tail_frames, fs);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The same sweep over a checkpoint file: every single-bit flip must be
/// caught by the checkpoint's whole-body CRC (or, for flips that somehow
/// kept the CRC's coverage, by the cross-checks against the segment
/// walk). Recovery never resumes from a damaged snapshot.
#[test]
fn every_bit_flip_in_a_checkpoint_is_rejected() {
    let dir = tempdir("bitflip-ck");
    let fs = frames(2);
    let mut w = SegmentWriter::open(&dir, 1, 1).expect("open");
    let mut payload = 0u64;
    for (i, f) in fs.iter().enumerate() {
        w.append(f).expect("append seals");
        payload += f.len() as u64;
        w.write_checkpoint(&CheckpointState {
            records: i as u64 + 1,
            payload_bytes: payload,
            epoch: 0,
            next_seq: i as u64 + 1,
            resync_at: None,
            base: None,
        })
        .expect("checkpoint");
    }
    // scan() resumes from the newest checkpoint, so flip that one.
    let path = sensor_dir(&dir, 1).join("ck-00000002.sbrck");
    let clean = std::fs::read(&path).expect("read checkpoint");
    storage::scan(&dir, 1).expect("clean store scans");

    for i in 0..clean.len() {
        for bit in 0..8 {
            let mut raw = clean.clone();
            raw[i] ^= 1 << bit;
            std::fs::write(&path, &raw).expect("write flip");
            assert!(
                storage::scan(&dir, 1).is_err(),
                "flip of byte {i} bit {bit} in a checkpoint scanned clean"
            );
        }
    }
    std::fs::write(&path, &clean).expect("restore");
    storage::scan(&dir, 1).expect("restored store scans");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
