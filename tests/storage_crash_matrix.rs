//! The crash-recovery matrix for the segmented storage engine: simulate
//! a crash at every phase of the write lifecycle — mid-record append,
//! mid-seal, mid-checkpoint publish, between a checkpoint's publish and
//! its predecessor's unlink — plus a store written when every seal kept
//! its checkpoint, by mutating the on-disk artifacts exactly as a torn
//! process (or an older writer) would leave them, then prove recovery +
//! ARQ retransmission ends **byte-exact** against a sender-side mirror
//! decoder, with one checkpoint left on disk. A separate differential
//! sweeps segment-size budgets and requires the recovered logs to be
//! byte-identical in every cell.

use bytes::Bytes;
use sbr_repro::core::{codec, Decoder, SbrConfig};
use sbr_repro::sensor_net::storage::{self, sensor_dir, RECORD_OVERHEAD, SEG_FOOTER};
use sbr_repro::sensor_net::{BaseStation, Receipt, SensorNode};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const NODE: usize = 1;
/// Segment budget small enough that a 14-chunk stream seals several
/// segments (so every lifecycle phase actually occurs).
const SMALL_SEGMENT: u64 = 700;

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sbr-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read_dir") {
        let entry = entry.expect("entry");
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy");
        }
    }
}

fn restore_dir(backup: &Path, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    copy_dir(backup, dir);
}

/// A v2 ARQ stream mixing data frames with genuine overflow resyncs:
/// the node's retransmission buffer holds 2 frames and the (simulated)
/// station acks only every fourth flush, so the buffer periodically
/// overflows and the node re-anchors with a resync snapshot, so the
/// checkpoints' `resync_at` fields are exercised.
fn v2_stream(n_chunks: usize) -> Vec<Bytes> {
    let mut node = SensorNode::new(NODE, 2, 32, SbrConfig::new(40, 32)).expect("node");
    node.enable_arq(2);
    let mut out = Vec::new();
    for c in 0..n_chunks {
        let mut flush = None;
        for i in 0..32 {
            let t = (c * 32 + i) as f64;
            flush = node
                .record(&[
                    (t * 0.21).sin() * 8.0,
                    (t * 0.13).cos() * 5.0 + (i % 4) as f64,
                ])
                .expect("record")
                .or(flush);
        }
        let f = flush.expect("every chunk flushes");
        out.push(f.frame.clone());
        if c % 4 == 0 {
            node.ack(f.epoch, f.transmission.seq + 1);
        }
    }
    out
}

/// Sender-side ground truth: a mirror decoder sees every emitted frame
/// in order, so its per-(epoch, seq) output is what the station *must*
/// reproduce bit-for-bit after any crash/recovery history.
fn mirror_truth(frames: &[Bytes]) -> HashMap<(u32, u64), Vec<Vec<f64>>> {
    let mut mirror = Decoder::new();
    let mut truth = HashMap::new();
    for f in frames {
        let parsed = codec::decode_exact(f).expect("frame parses");
        let chunk = mirror.decode_frame(&parsed).expect("mirror decodes");
        truth.insert((parsed.epoch, parsed.tx.seq), chunk);
    }
    truth
}

fn feed(station: &BaseStation, frames: &[Bytes]) {
    for f in frames {
        assert_ne!(
            station.receive_frame(NODE, f.clone()).expect("receive"),
            Receipt::Duplicate
        );
    }
}

/// Records currently durable on disk (read-only; tolerates a torn tail).
fn durable_records(dir: &Path) -> u64 {
    storage::verify(dir, NODE).expect("store verifies").records
}

/// The full post-recovery contract: the reloaded station's log is
/// byte-identical to the canonical stream, every chunk reconstructs to
/// the mirror decoder's exact f64 bits, and a full store audit passes.
fn assert_byte_exact(dir: &Path, frames: &[Bytes], truth: &HashMap<(u32, u64), Vec<Vec<f64>>>) {
    let station = BaseStation::load(dir).expect("recovered station loads");
    assert_eq!(
        station.raw_frames(NODE),
        frames,
        "recovered log is byte-identical to the sent stream"
    );
    let decoded = station.frames(NODE).expect("frames parse");
    let chunks = station
        .reconstruct_chunks(NODE, 0, station.chunk_count(NODE))
        .expect("reconstruct");
    assert_eq!(decoded.len(), frames.len());
    for (frame, chunk) in decoded.iter().zip(&chunks) {
        let want = truth
            .get(&(frame.epoch, frame.tx.seq))
            .expect("station cannot invent frames");
        assert_eq!(chunk, want, "epoch {} seq {}", frame.epoch, frame.tx.seq);
    }
    storage::verify(dir, NODE).expect("store audits clean after recovery");
}

fn seg_path(dir: &Path, ordinal: u32) -> PathBuf {
    sensor_dir(dir, NODE).join(format!("seg-{ordinal:08}.sbrseg"))
}

/// Checkpoint file names under the store, sorted ascending by covered
/// count (the newest last); empty before the store exists.
fn ck_files(dir: &Path) -> Vec<PathBuf> {
    let mut cks: Vec<PathBuf> = std::fs::read_dir(sensor_dir(dir, NODE))
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "sbrck"))
        .collect();
    cks.sort();
    cks
}

/// A checkpoint file and its bytes, so a test can put it back after the
/// writer unlinked it.
type SavedCheckpoint = (PathBuf, Vec<u8>);

/// Feed `frames` into a fresh small-segment store one by one, saving
/// every checkpoint each seal publishes, and stop after the `seals`-th
/// seal. Returns how many frames were fed and the saved checkpoints,
/// oldest first; on disk only the newest remains.
fn feed_saving_checkpoints(
    dir: &Path,
    frames: &[Bytes],
    seals: usize,
) -> (usize, Vec<SavedCheckpoint>) {
    let station = BaseStation::with_persistence(dir).with_segment_size(SMALL_SEGMENT);
    let mut saved: Vec<SavedCheckpoint> = Vec::new();
    for (i, f) in frames.iter().enumerate() {
        feed(&station, std::slice::from_ref(f));
        let cks = ck_files(dir);
        assert!(cks.len() <= 1, "a live store holds one checkpoint: {cks:?}");
        if let Some(ck) = cks.into_iter().next() {
            if saved.last().is_none_or(|(p, _)| *p != ck) {
                let raw = std::fs::read(&ck).expect("read checkpoint");
                saved.push((ck, raw));
                if saved.len() == seals {
                    return (i + 1, saved);
                }
            }
        }
    }
    panic!("the small budget sealed only {} times", saved.len());
}

/// Crash mid-record: the appender dies partway through writing a framed
/// record. Simulated at *every* byte prefix of the final record; the
/// station reloads with the torn frame gone, the (simulated) node
/// retransmits it, and the finished log is byte-exact.
#[test]
fn crash_mid_record_recovers_at_every_torn_prefix() {
    let frames = v2_stream(14);
    let truth = mirror_truth(&frames);
    let dir = tempdir("mid-record");
    let fed = 7usize;
    {
        // Large budget: one active segment, no seals — the torn record
        // is always in the (only) active file.
        let station = BaseStation::with_persistence(&dir);
        feed(&station, &frames[..fed]);
    }
    let path = seg_path(&dir, 0);
    let full = std::fs::read(&path).expect("read active segment");
    let last_len = RECORD_OVERHEAD + frames[fed - 1].len();
    let rec_start = full.len() - last_len;

    for cut in rec_start..full.len() {
        std::fs::write(&path, &full[..cut]).expect("tear");
        assert_eq!(durable_records(&dir), fed as u64 - 1, "cut at {cut}");
        // Recovery drops the torn record; the node's ARQ window still
        // holds it (the ACK that would have released it was never sent),
        // so the stream resumes one frame back.
        let station = BaseStation::load(&dir).expect("load after tear");
        feed(&station, &frames[fed - 1..]);
        drop(station);
        assert_byte_exact(&dir, &frames, &truth);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Crash mid-seal: the footer write is torn (any prefix, including none
/// of it) and the checkpoint that would have followed the seal was never
/// written. Recovery must demote the segment back to active, resume
/// appending into it, and end byte-exact.
#[test]
fn crash_mid_seal_demotes_the_segment_and_resumes() {
    let frames = v2_stream(14);
    let truth = mirror_truth(&frames);
    let dir = tempdir("mid-seal");
    // Feed until the first seal completes (every record sealed, none
    // active) — the crash point is the instant after the footer.
    let mut sealed_at = None;
    {
        let station = BaseStation::with_persistence(&dir).with_segment_size(SMALL_SEGMENT);
        for (i, f) in frames.iter().enumerate() {
            assert_ne!(
                station.receive_frame(NODE, f.clone()).expect("receive"),
                Receipt::Duplicate
            );
            let report = storage::verify(&dir, NODE).expect("verify mid-feed");
            if !report.active {
                sealed_at = Some(i + 1);
                break;
            }
        }
    }
    let fed = sealed_at.expect("the small budget seals within the stream");
    assert!(
        fed < frames.len(),
        "frames must remain to append after recovery"
    );
    let backup = tempdir("mid-seal-backup");
    copy_dir(&dir, &backup);

    let last_ord = storage::verify(&dir, NODE).expect("verify").segments - 1;
    let seg = seg_path(&dir, last_ord);
    let full_len = std::fs::metadata(&seg).expect("seg meta").len();
    for torn in 0..SEG_FOOTER {
        restore_dir(&backup, &dir);
        // Tear the footer after `torn` of its bytes, and remove the
        // checkpoint the seal would have published next.
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .expect("open segment");
        f.set_len(full_len - SEG_FOOTER as u64 + torn as u64)
            .expect("tear footer");
        drop(f);
        let newest_ck = ck_files(&dir).pop().expect("seal published a checkpoint");
        std::fs::remove_file(&newest_ck).expect("drop unpublished checkpoint");

        // Every record survives — only the seal itself was torn.
        assert_eq!(
            durable_records(&dir),
            fed as u64,
            "torn footer at {torn} bytes"
        );
        let station = BaseStation::load(&dir).expect("load after torn seal");
        feed(&station, &frames[fed..]);
        drop(station);
        assert_byte_exact(&dir, &frames, &truth);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
    std::fs::remove_dir_all(&backup).expect("cleanup backup");
}

/// Crash mid-checkpoint: a checkpoint is published by write-to-tmp +
/// rename, and its predecessor is unlinked only after the rename, so a
/// crash mid-publish leaves a stray `.tmp` beside the previous
/// checkpoint. Recovery sweeps the stray, resumes from the previous
/// checkpoint, and loses nothing.
#[test]
fn crash_mid_checkpoint_sweeps_the_stray_tmp() {
    let frames = v2_stream(14);
    let truth = mirror_truth(&frames);
    let dir = tempdir("mid-ck");
    let (fed, saved) = feed_saving_checkpoints(&dir, &frames, 2);
    // The second seal's checkpoint never got past its `.tmp`: the first
    // is still on disk, un-superseded.
    let (previous, previous_raw) = &saved[0];
    let (newest, _) = &saved[1];
    std::fs::remove_file(newest).expect("crash before rename");
    std::fs::write(previous, previous_raw).expect("predecessor not yet unlinked");
    let stray = newest.with_extension("sbrck.tmp");
    std::fs::write(&stray, b"torn half-written checkpoint bytes").expect("stray tmp");

    // Segments are untouched: every record is still durable.
    assert_eq!(durable_records(&dir), fed as u64);
    let station = BaseStation::load(&dir).expect("load after torn checkpoint");
    assert!(!stray.exists(), "recovery sweeps crash leftovers");
    assert_eq!(
        ck_files(&dir),
        std::slice::from_ref(previous),
        "previous checkpoint kept"
    );
    feed(&station, &frames[fed..]);
    drop(station);
    assert_byte_exact(&dir, &frames, &truth);
    assert_eq!(ck_files(&dir).len(), 1);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Crash between rename and unlink: the new checkpoint is published but
/// its predecessor is still on disk. `verify` audits both; recovery
/// resumes from the newer, sweeps the older, and ends byte-exact.
#[test]
fn crash_between_rename_and_unlink_leaves_two_checkpoints() {
    let frames = v2_stream(14);
    let truth = mirror_truth(&frames);
    let dir = tempdir("mid-unlink");
    let (fed, saved) = feed_saving_checkpoints(&dir, &frames, 2);
    let (previous, previous_raw) = &saved[0];
    std::fs::write(previous, previous_raw).expect("predecessor not yet unlinked");
    assert_eq!(ck_files(&dir).len(), 2);
    let report = storage::verify(&dir, NODE).expect("both checkpoints audit clean");
    assert_eq!(report.checkpoints, 2);
    assert_eq!(report.records, fed as u64);

    let station = BaseStation::load(&dir).expect("load with two checkpoints");
    assert_eq!(
        ck_files(&dir),
        [saved[1].0.clone()],
        "scan keeps the newest"
    );
    feed(&station, &frames[fed..]);
    drop(station);
    assert_byte_exact(&dir, &frames, &truth);
    assert_eq!(ck_files(&dir).len(), 1);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A store written when every seal kept its checkpoint (the layout is
/// unchanged, so such stores still exist): `verify` audits every one of
/// them, recovery loads the newest and sweeps the rest, and the stream
/// continues byte-exact.
#[test]
fn store_with_a_checkpoint_per_seal_recovers_and_keeps_one() {
    let frames = v2_stream(14);
    let truth = mirror_truth(&frames);
    let dir = tempdir("ck-per-seal");
    let (fed, saved) = feed_saving_checkpoints(&dir, &frames, 3);
    assert!(
        fed < frames.len(),
        "frames must remain to append after recovery"
    );
    for (path, raw) in &saved {
        std::fs::write(path, raw).expect("older writer kept every checkpoint");
    }
    let report = storage::verify(&dir, NODE).expect("every checkpoint audits clean");
    assert_eq!(report.checkpoints as usize, saved.len());

    let station = BaseStation::load(&dir).expect("load a checkpoint-per-seal store");
    assert_eq!(ck_files(&dir).len(), 1, "scan leaves one checkpoint");
    feed(&station, &frames[fed..]);
    drop(station);
    assert_byte_exact(&dir, &frames, &truth);
    assert_eq!(ck_files(&dir).len(), 1);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The segment-budget differential: budgets {1 KiB, 64 KiB, 1 MiB} all
/// recover logs that are byte-identical to the sent stream (and hence to
/// each other), chunk reconstruction matches the mirror decoder
/// bit-for-bit in every cell, and every store ends with at most one
/// checkpoint — exactly one once a segment has sealed.
#[test]
fn segment_size_never_changes_recovered_state() {
    let frames = v2_stream(14);
    let truth = mirror_truth(&frames);
    for &segment_bytes in &[1024u64, 64 * 1024, 1024 * 1024] {
        let dir = tempdir(&format!("diff-{segment_bytes}"));
        {
            let station = BaseStation::with_persistence(&dir).with_segment_size(segment_bytes);
            feed(&station, &frames);
        }
        assert_byte_exact(&dir, &frames, &truth);
        let report = storage::verify(&dir, NODE).expect("verify");
        let sealed = report.segments - u32::from(report.active);
        assert_eq!(
            report.checkpoints,
            u32::from(sealed > 0),
            "budget {segment_bytes}: {sealed} seal(s)"
        );
        if segment_bytes == 1024 {
            assert!(sealed >= 2, "the small budget must seal repeatedly");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
