//! Wire-format stability: the byte layout of the codec is a compatibility
//! contract between deployed sensors and base stations. These golden tests
//! pin the exact bytes of known transmissions so accidental format changes
//! fail loudly instead of corrupting fleets in the field. Nothing writes
//! v1 any more; its bytes come from the test-side writer in `common` and
//! pin what `decode_any` must keep reading.

mod common;

use common::encode_v1;
use sbr_repro::core::interval::IntervalRecord;
use sbr_repro::core::transmission::{BaseUpdate, Frame, FrameKind, Transmission};
use sbr_repro::core::{codec, SbrError};

fn golden_tx() -> Transmission {
    Transmission {
        seq: 7,
        n_signals: 2,
        samples_per_signal: 4,
        w: 2,
        base_updates: vec![BaseUpdate {
            slot: 1,
            values: vec![1.5, -2.0],
        }],
        intervals: vec![
            IntervalRecord {
                start: 0,
                shift: -1,
                a: 0.5,
                b: 3.0,
            },
            IntervalRecord {
                start: 4,
                shift: 0,
                a: 1.0,
                b: 0.0,
            },
        ],
    }
}

#[test]
fn codec_bytes_are_pinned() {
    let bytes = encode_v1(&golden_tx());
    // Header: magic, seq, n, m, w, nu, ni.
    let mut expect: Vec<u8> = Vec::new();
    expect.extend(0x5342_5231u32.to_le_bytes()); // "SBR1"
    expect.extend(7u64.to_le_bytes());
    expect.extend(2u32.to_le_bytes());
    expect.extend(4u32.to_le_bytes());
    expect.extend(2u32.to_le_bytes());
    expect.extend(1u32.to_le_bytes());
    expect.extend(2u32.to_le_bytes());
    // Base update.
    expect.extend(1u64.to_le_bytes());
    expect.extend(1.5f64.to_le_bytes());
    expect.extend((-2.0f64).to_le_bytes());
    // Interval records.
    expect.extend(0u64.to_le_bytes());
    expect.extend((-1i64).to_le_bytes());
    expect.extend(0.5f64.to_le_bytes());
    expect.extend(3.0f64.to_le_bytes());
    expect.extend(4u64.to_le_bytes());
    expect.extend(0i64.to_le_bytes());
    expect.extend(1.0f64.to_le_bytes());
    expect.extend(0.0f64.to_le_bytes());
    assert_eq!(bytes.as_ref(), expect.as_slice(), "codec layout changed!");
}

#[test]
fn codec_size_formula_is_pinned() {
    let tx = golden_tx();
    // 32-byte header + (8 + 8·W) per update + 32 per interval.
    assert_eq!(encode_v1(&tx).len(), 32 + (8 + 16) + 2 * 32);
}

#[test]
fn crc32_known_answer_is_pinned() {
    // The classic IEEE 802.3 check value: CRC-32 of "123456789".
    assert_eq!(codec::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(codec::crc32(b""), 0);
}

#[test]
fn v2_bytes_are_pinned() {
    // A resync frame (epoch 3, one-slot snapshot) around the same golden
    // transmission: the v2 layout is a compatibility contract too.
    let frame = Frame::resync(3, vec![0.25, -4.0], golden_tx());
    let bytes = codec::encode_v2(&frame);
    let mut expect: Vec<u8> = Vec::new();
    expect.extend(0x5342_5232u32.to_le_bytes()); // "SBR2"
    expect.push(1u8); // kind: resync
    expect.extend(3u32.to_le_bytes()); // epoch
    expect.extend(7u64.to_le_bytes()); // seq
    expect.extend(2u32.to_le_bytes()); // n
    expect.extend(4u32.to_le_bytes()); // m
    expect.extend(2u32.to_le_bytes()); // w
    expect.extend(1u32.to_le_bytes()); // snapshot slots
    expect.extend(1u32.to_le_bytes()); // updates
    expect.extend(2u32.to_le_bytes()); // intervals
                                       // Snapshot (1 slot × w values).
    expect.extend(0.25f64.to_le_bytes());
    expect.extend((-4.0f64).to_le_bytes());
    // Base update.
    expect.extend(1u64.to_le_bytes());
    expect.extend(1.5f64.to_le_bytes());
    expect.extend((-2.0f64).to_le_bytes());
    // Interval records.
    expect.extend(0u64.to_le_bytes());
    expect.extend((-1i64).to_le_bytes());
    expect.extend(0.5f64.to_le_bytes());
    expect.extend(3.0f64.to_le_bytes());
    expect.extend(4u64.to_le_bytes());
    expect.extend(0i64.to_le_bytes());
    expect.extend(1.0f64.to_le_bytes());
    expect.extend(0.0f64.to_le_bytes());
    // CRC-32 trailer over everything above.
    let crc = codec::crc32(&expect);
    expect.extend(crc.to_le_bytes());
    assert_eq!(bytes.as_ref(), expect.as_slice(), "v2 layout changed!");
    // Size formula: 41-byte header + 8·W per snapshot slot
    // + (8 + 8·W) per update + 32 per interval + 4-byte CRC.
    assert_eq!(bytes.len(), 41 + 16 + (8 + 16) + 2 * 32 + 4);
    assert_eq!(bytes.len(), codec::encoded_len_v2(&frame));
    // And it round-trips.
    assert_eq!(codec::decode_v2(&mut bytes.clone()).unwrap(), frame);
}

#[test]
fn v2_data_frames_are_pinned() {
    // A data frame is the same envelope with kind 0, no snapshot.
    let frame = Frame::data(9, golden_tx());
    let bytes = codec::encode_v2(&frame);
    assert_eq!(&bytes[..4], 0x5342_5232u32.to_le_bytes());
    assert_eq!(bytes[4], 0, "data kind byte");
    assert_eq!(&bytes[5..9], 9u32.to_le_bytes());
    let ns = u32::from_le_bytes(bytes[29..33].try_into().unwrap());
    assert_eq!(ns, 0, "data frames carry no snapshot");
    let crc = codec::crc32(&bytes[..bytes.len() - 4]);
    assert_eq!(&bytes[bytes.len() - 4..], crc.to_le_bytes());
    assert_eq!(codec::decode_any(&mut bytes.clone()).unwrap(), frame);
}

#[test]
fn decode_any_wraps_v1_frames_as_epoch_zero_data() {
    // A station that speaks v2 must still ingest v1 fleet traffic: the
    // compat path wraps it in the trivial envelope.
    let v1 = encode_v1(&golden_tx());
    let frame = codec::decode_any(&mut v1.clone()).expect("v1 via decode_any");
    assert_eq!(frame, Frame::data(0, golden_tx()));
    // It consumes exactly its own bytes: v1 and v2 frames parse back to back.
    let v2 = codec::encode_v2(&Frame::resync(4, vec![0.25, -4.0], golden_tx()));
    let mut stream = bytes::Bytes::from([&v1[..], &v2[..], &v1[..]].concat());
    assert_eq!(codec::decode_any(&mut stream).unwrap().epoch, 0);
    assert_eq!(codec::decode_any(&mut stream).unwrap().epoch, 4);
    assert_eq!(codec::decode_any(&mut stream).unwrap(), frame);
    assert_eq!(bytes::Buf::remaining(&stream), 0);
    // Every truncation of a v1 frame is an error, never a short parse.
    for cut in 0..v1.len() {
        assert!(codec::decode_any(&mut &v1[..cut]).is_err(), "cut at {cut}");
    }
    // A v1 header with a zero n, m or w is refused.
    for dim in 0..3 {
        let mut tx = golden_tx();
        *[&mut tx.n_signals, &mut tx.samples_per_signal, &mut tx.w][dim] = 0;
        let parsed = codec::decode_any(&mut encode_v1(&tx));
        assert!(
            matches!(&parsed, Err(SbrError::Corrupt(e)) if e.contains("zero dimension")),
            "zeroed dimension {dim}: {parsed:?}"
        );
    }
}

#[test]
fn old_frames_still_decode() {
    // A frame produced by (what is defined to be) version 1 of the format,
    // spelled out byte-for-byte. If this stops decoding, deployed logs
    // become unreadable.
    let mut raw: Vec<u8> = Vec::new();
    raw.extend(0x5342_5231u32.to_le_bytes());
    raw.extend(0u64.to_le_bytes()); // seq
    raw.extend(1u32.to_le_bytes()); // n
    raw.extend(2u32.to_le_bytes()); // m
    raw.extend(1u32.to_le_bytes()); // w
    raw.extend(0u32.to_le_bytes()); // updates
    raw.extend(1u32.to_le_bytes()); // intervals
    raw.extend(0u64.to_le_bytes()); // start
    raw.extend((-1i64).to_le_bytes()); // shift
    raw.extend(2.0f64.to_le_bytes()); // a
    raw.extend(5.0f64.to_le_bytes()); // b
    let frame = codec::decode_any(&mut &raw[..]).expect("v1 frame must decode");
    assert_eq!((frame.kind, frame.epoch), (FrameKind::Data, 0));
    let tx = frame.tx;
    assert_eq!(tx.intervals.len(), 1);
    assert_eq!(tx.intervals[0].b, 5.0);
    // And it reconstructs: ŷ = 2i + 5 over 2 samples.
    let rec = sbr_repro::core::Decoder::new().decode(&tx).unwrap();
    assert_eq!(rec, vec![vec![5.0, 7.0]]);
}
