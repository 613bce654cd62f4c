//! Failure injection: corrupted frames, reordered/duplicated/dropped
//! chunks, truncated log files, hostile inputs. The system must fail
//! loudly and precisely — never decode garbage silently.

use bytes::Bytes;
use sbr_repro::core::transmission::MAX_BATCH_VALUES;
use sbr_repro::core::{
    codec, Decoder, Frame, FrameKind, IntervalRecord, SbrConfig, SbrEncoder, SbrError, Transmission,
};
use sbr_repro::sensor_net::storage::{recover_stream, StreamWriter};
use sbr_repro::sensor_net::{BaseStation, FaultPlan, Receipt, SensorNode};

fn stream(n_tx: usize) -> (Vec<sbr_repro::core::Transmission>, Vec<Bytes>) {
    let mut enc = SbrEncoder::new(2, 128, SbrConfig::new(120, 96)).unwrap();
    let mut txs = Vec::new();
    let mut frames = Vec::new();
    for t in 0..n_tx {
        let rows: Vec<Vec<f64>> = (0..2)
            .map(|r| {
                (0..128)
                    .map(|i| ((i + t * 31 + r * 7) as f64 * 0.21).sin() * 8.0 + (i % 5) as f64)
                    .collect()
            })
            .collect();
        let tx = enc.encode(&rows).unwrap();
        frames.push(codec::encode_v2(&Frame::data(0, tx.clone())));
        txs.push(tx);
    }
    (txs, frames)
}

#[test]
fn every_single_byte_flip_in_the_header_is_caught_or_harmless() {
    let (_, frames) = stream(1);
    // Flip each byte of the 41-byte v2 header: every flip must either
    // fail to parse or parse to a *different* frame (never a silent
    // identical parse).
    let original = frames[0].to_vec();
    let baseline = codec::decode_exact(&original).unwrap();
    for i in 0..41 {
        let mut mutated = original.clone();
        mutated[i] ^= 0x01;
        match codec::decode_exact(&mutated) {
            Err(_) => {}
            Ok(parsed) => assert_ne!(
                parsed, baseline,
                "flip at header byte {i} produced an identical parse"
            ),
        }
    }
}

/// A short ARQ-node stream whose retransmission buffer (capacity 1)
/// overflows on every flush after the first: one v2 data frame, then v2
/// resync frames with real snapshots — both frame kinds, realistic
/// payloads.
fn v2_stream(n_chunks: usize) -> Vec<Bytes> {
    let mut node = SensorNode::new(3, 2, 64, SbrConfig::new(96, 48)).unwrap();
    node.enable_arq(1);
    (0..n_chunks)
        .map(|c| {
            let mut flush = None;
            for i in 0..64 {
                let t = (c * 64 + i) as f64;
                flush = node
                    .record(&[
                        (t * 0.21).sin() * 8.0,
                        (t * 0.13).cos() * 5.0 + (i % 4) as f64,
                    ])
                    .unwrap()
                    .or(flush);
            }
            flush.expect("buffer filled").frame
        })
        .collect()
}

#[test]
fn every_single_bit_flip_in_a_v2_frame_is_rejected_never_silent() {
    let frames = v2_stream(3);
    let kinds: Vec<FrameKind> = frames
        .iter()
        .map(|f| codec::decode_exact(f).unwrap().kind)
        .collect();
    assert!(kinds.contains(&FrameKind::Data) && kinds.contains(&FrameKind::Resync));
    // Whole-frame sweep: every bit of every byte — header, counts, payload,
    // snapshot, CRC trailer itself — flipped one at a time. The CRC must
    // reject each mutation; a parse that somehow survives must at least be
    // visibly different, never a silent identical decode.
    for (fi, frame) in frames.iter().enumerate() {
        let baseline = codec::decode_exact(frame).unwrap();
        let raw = frame.to_vec();
        for i in 0..raw.len() {
            for bit in 0..8 {
                let mut mutated = raw.clone();
                mutated[i] ^= 1 << bit;
                match codec::decode_exact(&mutated) {
                    Err(_) => {}
                    Ok(parsed) => assert_ne!(
                        parsed, baseline,
                        "frame {fi}: flip of byte {i} bit {bit} decoded silently"
                    ),
                }
            }
        }
    }
}

#[test]
fn decoder_rejects_reordered_duplicated_and_skipped() {
    let (txs, _) = stream(3);

    // Skipped: the error names the stream position precisely.
    let mut d = Decoder::new();
    d.decode(&txs[0]).unwrap();
    assert!(matches!(
        d.decode(&txs[2]),
        Err(SbrError::Gap {
            expected: 1,
            got: 2,
            ..
        })
    ));
    // The failure is clean: the expected next chunk still decodes.
    d.decode(&txs[1]).unwrap();
    d.decode(&txs[2]).unwrap();

    // Duplicated.
    let mut d = Decoder::new();
    d.decode(&txs[0]).unwrap();
    assert!(d.decode(&txs[0]).is_err());

    // Reordered from the start.
    let mut d = Decoder::new();
    assert!(d.decode(&txs[1]).is_err());
}

#[test]
fn decoder_state_not_poisoned_by_failed_decode() {
    let (txs, _) = stream(2);
    let mut d = Decoder::new();
    d.decode(&txs[0]).unwrap();
    // A corrupt copy of tx 1: right seq, bad base-update width.
    let mut bad = txs[1].clone();
    if let Some(u) = bad.base_updates.first_mut() {
        u.values.pop();
    } else {
        bad.base_updates.push(sbr_repro::core::BaseUpdate {
            slot: 0,
            values: vec![1.0],
        });
    }
    assert!(d.decode(&bad).is_err());
    // The pristine tx 1 still decodes: the failure left no partial state.
    d.decode(&txs[1]).unwrap();
}

#[test]
fn malformed_slot_gap_leaves_decoder_untouched() {
    // An update stream with a slot gap must be rejected atomically: no
    // partial replica mutation even when earlier updates were valid.
    let (txs, _) = stream(2);
    let mut d = Decoder::new();
    d.decode(&txs[0]).unwrap();
    let base_before = d.base().map(|b| b.values().to_vec());
    let mut bad = txs[1].clone();
    let w = bad.w as usize;
    // One valid-looking update followed by one targeting a far-away slot.
    bad.base_updates = vec![
        sbr_repro::core::BaseUpdate {
            slot: 0,
            values: vec![9.0; w],
        },
        sbr_repro::core::BaseUpdate {
            slot: 999,
            values: vec![1.0; w],
        },
    ];
    assert!(d.decode(&bad).is_err());
    assert_eq!(
        d.base().map(|b| b.values().to_vec()),
        base_before,
        "failed decode must not mutate the replica"
    );
    // The pristine transmission still decodes.
    d.decode(&txs[1]).unwrap();
}

#[test]
fn uncovered_prefix_is_rejected_not_zero_filled() {
    let (txs, _) = stream(1);
    let mut bad = txs[0].clone();
    // Shift every record right: [0, k) becomes uncovered.
    for r in &mut bad.intervals {
        r.start += 3;
    }
    // Keep the batch shape plausible by dropping records that overflow.
    let n = bad.batch_len() as u64;
    bad.intervals.retain(|r| r.start < n);
    let err = Decoder::new().decode(&bad).unwrap_err();
    assert!(matches!(err, SbrError::Corrupt(_)), "{err}");
}

#[test]
fn station_quarantines_bad_frames_without_losing_the_log() {
    let (_, frames) = stream(3);
    let bs = BaseStation::new();
    assert_eq!(
        bs.receive_frame(7, frames[0].clone()).unwrap(),
        Receipt::Accepted
    );
    let mut corrupt = frames[1].to_vec();
    corrupt[2] ^= 0xff;
    assert!(bs.receive_frame(7, Bytes::from(corrupt)).is_err());
    assert_eq!(bs.chunk_count(7), 1, "bad frame must not be logged");
    assert_eq!(
        bs.receive_frame(7, frames[1].clone()).unwrap(),
        Receipt::Accepted
    );
    assert_eq!(
        bs.receive_frame(7, frames[2].clone()).unwrap(),
        Receipt::Accepted
    );
    assert_eq!(bs.reconstruct_chunks(7, 0, 3).unwrap().len(), 3);
}

#[test]
fn log_recovery_survives_any_tail_truncation() {
    let dir = std::env::temp_dir().join(format!("sbr-fi-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, frames) = stream(3);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("node-1.sbr");
    let mut w = StreamWriter::create(&path).unwrap();
    for f in &frames {
        w.append(f).unwrap();
    }
    drop(w);
    let full = std::fs::read(&path).unwrap();
    let frame_bytes: Vec<usize> = frames.iter().map(|f| f.len() + 4).collect();
    // Truncate at every point inside the *last* frame: first two frames
    // must always survive.
    let last_start = frame_bytes[0] + frame_bytes[1];
    for cut in last_start..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let rec = recover_stream(&path).unwrap();
        assert_eq!(rec.frames, frames[..2], "cut at {cut}");
        for f in &rec.frames {
            codec::decode_exact(f).unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hostile_declared_lengths_do_not_allocate() {
    // A header claiming 2³¹ updates must be rejected before any
    // allocation (the codec checks declared sizes against the remaining
    // buffer, ahead of the CRC).
    let mut claims_updates = Vec::new();
    claims_updates.extend_from_slice(&codec::MAGIC_V2.to_le_bytes());
    claims_updates.push(0); // kind: data
    claims_updates.extend_from_slice(&0u32.to_le_bytes()); // epoch
    claims_updates.extend_from_slice(&0u64.to_le_bytes()); // seq
    claims_updates.extend_from_slice(&1u32.to_le_bytes()); // n
    claims_updates.extend_from_slice(&1u32.to_le_bytes()); // m
    claims_updates.extend_from_slice(&1u32.to_le_bytes()); // w
    claims_updates.extend_from_slice(&0u32.to_le_bytes()); // snapshot slots
    claims_updates.extend_from_slice(&0x8000_0000u32.to_le_bytes()); // updates
    claims_updates.extend_from_slice(&0u32.to_le_bytes()); // intervals

    // Well-formed 77-byte v2 data frames (valid CRC) that one fall-back
    // record covers: one declares a u32::MAX × u32::MAX batch, so neither
    // the decoder nor the station's chunk index may size anything by it;
    // the others declare one signal per value at the batch cap, so were
    // they indexed, every 77 bytes would pin 2²² per-signal moments in the
    // station. Each is refused, the next is in sequence again, and the
    // station keeps nothing of the node.
    let cap = u32::try_from(MAX_BATCH_VALUES).unwrap();
    let huge_shape = one_record_frame(u32::MAX, u32::MAX);
    assert_eq!(huge_shape.len(), 77);
    let capped = std::iter::repeat_n(one_record_frame(cap, 1), 4);
    let bs = BaseStation::new();
    for frame in [Bytes::from(claims_updates), huge_shape]
        .into_iter()
        .chain(capped)
    {
        let decoded =
            codec::decode_exact(&frame).and_then(|f| Decoder::new().decode_frame(&f).map(|_| ()));
        assert!(matches!(decoded, Err(SbrError::Corrupt(_))), "{decoded:?}");
        let received = bs.receive_frame(0, frame);
        assert!(
            matches!(received, Err(SbrError::Corrupt(_))),
            "{received:?}"
        );
        assert_eq!(
            (bs.chunk_count(0), bs.next_seq(0), bs.log_bytes(0)),
            (0, 0, 0)
        );
    }
    // One signal of 2²² samples is a legal batch: it decodes, and the
    // station keeps one signal's summary of it.
    bs.receive_frame(0, one_record_frame(1, cap)).unwrap();
    assert_eq!((bs.chunk_count(0), bs.next_seq(0)), (1, 1));
    let agg = bs.aggregate_range(0, 0, 0, MAX_BATCH_VALUES).unwrap();
    assert_eq!(agg.count, MAX_BATCH_VALUES);
}

/// A 77-byte v2 data frame: `n_signals × m` values that one fall-back
/// record covers.
fn one_record_frame(n_signals: u32, m: u32) -> Bytes {
    codec::encode_v2(&Frame::data(
        0,
        Transmission {
            seq: 0,
            n_signals,
            samples_per_signal: m,
            w: 1,
            base_updates: vec![],
            intervals: vec![IntervalRecord {
                start: 0,
                shift: -1,
                a: 0.0,
                b: 1.0,
            }],
        },
    ))
}

/// One ARQ round: retransmit everything pending through the chaos
/// channel, then apply the station's cumulative ACK. Gaps and corruption
/// are the protocol at work; anything else is a bug.
fn chaos_round(node: &mut SensorNode, station: &BaseStation, plan: &mut FaultPlan) {
    let pending: Vec<Bytes> = node.pending().map(|p| p.bytes.clone()).collect();
    for bytes in pending {
        for arrival in plan.channel(&bytes) {
            match station.receive_frame(1, arrival) {
                Ok(_) | Err(SbrError::Gap { .. }) | Err(SbrError::Corrupt(_)) => {}
                Err(e) => panic!("unexpected station error: {e}"),
            }
        }
    }
    node.ack(station.epoch(1), station.next_seq(1));
}

#[test]
fn seeded_chaos_with_drops_and_a_crash_ends_byte_exact_after_the_last_resync() {
    use std::collections::HashMap;

    let mut node = SensorNode::new(1, 2, 64, SbrConfig::new(64, 48)).unwrap();
    node.enable_arq(4);
    let mut plan = FaultPlan::new(0xC0FFEE).with_drop(0.3).with_dup(0.1);
    let station = BaseStation::new();
    // Sender-side mirror decoder: it sees every emitted frame in order, so
    // its output is the encoder-side ground truth per (epoch, seq).
    let mut mirror = Decoder::new();
    let mut truth: HashMap<(u32, u64), Vec<Vec<f64>>> = HashMap::new();

    let n_chunks = 14;
    for c in 0..n_chunks {
        for i in 0..64 {
            let t = (c * 64 + i) as f64;
            if let Some(flush) = node
                .record(&[
                    (t * 0.21).sin() * 8.0,
                    (t * 0.13).cos() * 5.0 + (i % 4) as f64,
                ])
                .unwrap()
            {
                let parsed = codec::decode_exact(&flush.frame).unwrap();
                truth.insert(
                    (flush.epoch, flush.transmission.seq),
                    mirror.decode_frame(&parsed).unwrap(),
                );
            }
        }
        chaos_round(&mut node, &station, &mut plan);
        if c == 5 {
            // Mid-run crash: RAM (encoder state, retransmission queue) gone.
            node.reboot().unwrap();
        }
    }
    for _ in 0..64 {
        if node.pending_depth() == 0 {
            break;
        }
        chaos_round(&mut node, &station, &mut plan);
    }
    for leftover in plan.drain() {
        let _ = station.receive_frame(1, leftover);
    }

    // The crash forced at least one resync.
    assert!(station.epoch(1) > 0, "crash must re-anchor the stream");
    let frames = station.frames(1).unwrap();
    assert!(frames.iter().any(|f| f.kind == FrameKind::Resync));

    // Every chunk the station logged reconstructs *exactly* (same f64
    // bits) as the encoder-side mirror's ground truth — gaps cost chunks,
    // never correctness.
    let chunks = station
        .reconstruct_chunks(1, 0, station.chunk_count(1))
        .unwrap();
    for (frame, chunk) in frames.iter().zip(&chunks) {
        let want = truth
            .get(&(frame.epoch, frame.tx.seq))
            .expect("station cannot invent frames");
        assert_eq!(chunk, want, "epoch {} seq {}", frame.epoch, frame.tx.seq);
    }

    // And after the last resync the stream is complete: every chunk the
    // node flushed in its final epoch made it into the log.
    let final_epoch = node.epoch();
    let logged: Vec<(u32, u64)> = frames.iter().map(|f| (f.epoch, f.tx.seq)).collect();
    let mut final_chunks: Vec<u64> = truth
        .keys()
        .filter(|(e, _)| *e == final_epoch)
        .map(|&(_, s)| s)
        .collect();
    final_chunks.sort_unstable();
    assert!(!final_chunks.is_empty());
    for s in final_chunks {
        assert!(
            logged.contains(&(final_epoch, s)),
            "post-resync chunk {s} missing from the log"
        );
    }
}

#[test]
fn encoder_survives_pathological_but_finite_data() {
    // Constant rows, alternating extremes, denormals: encode + decode must
    // stay panic-free and within budget.
    let cases: Vec<Vec<Vec<f64>>> = vec![
        vec![vec![0.0; 64]; 2],
        vec![vec![1e300; 64], vec![-1e300; 64]],
        vec![
            (0..64)
                .map(|i| if i % 2 == 0 { 1e12 } else { -1e12 })
                .collect(),
            vec![f64::MIN_POSITIVE; 64],
        ],
    ];
    for rows in cases {
        let mut enc = SbrEncoder::new(2, 64, SbrConfig::new(64, 48)).unwrap();
        let tx = enc.encode(&rows).unwrap();
        assert!(tx.cost() <= 64);
        let rec = Decoder::new().decode(&tx).unwrap();
        assert!(rec.iter().flatten().all(|v| v.is_finite()));
    }
}
