//! Wire-format stability: the byte layout of the codec is a compatibility
//! contract between deployed sensors and base stations. These golden tests
//! pin the exact bytes of known transmissions so accidental format changes
//! fail loudly instead of corrupting fleets in the field. v2 is the one
//! format: a frame of the retired, checksum-free v1 layout is refused by
//! every reader.

use sbr_repro::core::interval::IntervalRecord;
use sbr_repro::core::transmission::{BaseUpdate, Frame, Transmission};
use sbr_repro::core::{codec, SbrConfig, SbrEncoder, SbrError};
use sbr_repro::sensor_net::storage::{self, StreamWriter};
use sbr_repro::sensor_net::BaseStation;

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
    assert_eq!(codec::decode_exact(&bytes).unwrap(), frame);
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
    assert_eq!(codec::decode_exact(&bytes).unwrap(), frame);
}

#[test]
fn v1_frames_are_refused_by_every_reader() {
    // A well-formed frame of the retired v1 layout ("SBR1": the v2 header
    // without kind, epoch or snapshot count, and no CRC trailer), around
    // real encoder output.
    let v1 = |tx: &Transmission| {
        let mut out = Vec::new();
        out.extend(0x5342_5231u32.to_le_bytes());
        out.extend(tx.seq.to_le_bytes());
        for v in [tx.n_signals, tx.samples_per_signal, tx.w] {
            out.extend(v.to_le_bytes());
        }
        out.extend((tx.base_updates.len() as u32).to_le_bytes());
        out.extend((tx.intervals.len() as u32).to_le_bytes());
        for u in &tx.base_updates {
            out.extend(u.slot.to_le_bytes());
            u.values.iter().for_each(|v| out.extend(v.to_le_bytes()));
        }
        for r in &tx.intervals {
            out.extend(r.start.to_le_bytes());
            out.extend(r.shift.to_le_bytes());
            out.extend(r.a.to_le_bytes());
            out.extend(r.b.to_le_bytes());
        }
        bytes::Bytes::from(out)
    };
    let mut enc = SbrEncoder::new(2, 64, SbrConfig::new(48, 48)).unwrap();
    let txs: Vec<Transmission> = (0..2)
        .map(|c| {
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|r| {
                    (0..64)
                        .map(|i| ((i + c * 7 + r) as f64 * 0.3).sin())
                        .collect()
                })
                .collect();
            enc.encode(&rows).unwrap()
        })
        .collect();
    fn refused<T>(r: Result<T, SbrError>) -> bool {
        matches!(r, Err(SbrError::Corrupt(m)) if m.contains("bad magic"))
    }
    for tx in &txs {
        assert!(refused(codec::decode_exact(&v1(tx))));
    }

    // In memory and persisted, the station refuses the frame before any
    // log, index or store sees it: first as a sensor's first frame, then
    // as the successor of an accepted v2 frame.
    let dir = std::env::temp_dir().join(format!("sbr-wire-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (station, store) in [
        (BaseStation::new(), None),
        (BaseStation::with_persistence(&dir), Some(&dir)),
    ] {
        let records = || store.map(|d| storage::scan(d, 3).unwrap().records_total);
        assert!(refused(station.receive_frame(3, v1(&txs[0]))));
        assert!(station.sensors().is_empty());
        assert_eq!((station.chunk_count(3), station.next_seq(3)), (0, 0));
        assert_eq!(records(), store.map(|_| 0));
        station
            .receive_frame(3, codec::encode_v2(&Frame::data(0, txs[0].clone())))
            .expect("the v2 frame is accepted");
        assert!(refused(station.receive_frame(3, v1(&txs[1]))));
        assert_eq!((station.chunk_count(3), station.next_seq(3)), (1, 1));
        assert_eq!(records(), store.map(|_| 1));
    }

    // Every `.sbr` reader exits 1 on a stream holding the frame.
    let sbr = dir.join("v1.sbr");
    StreamWriter::create(&sbr)
        .unwrap()
        .append(&v1(&txs[0]))
        .unwrap();
    let (input, output) = (sbr.display(), dir.join("out.csv"));
    for argv in [
        format!("decompress --input {input} --output {}", output.display()),
        format!("info --input {input}"),
        format!("aggregate --input {input} --signal 0 --from 0 --to 8"),
    ] {
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        let err = sbr_cli::run(&sbr_cli::args::parse(&argv).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 1, "{argv:?}: {err}");
        assert!(err.message().contains("bad magic"), "{argv:?}: {err}");
    }
    assert!(!output.exists(), "decompress wrote nothing");
    std::fs::remove_dir_all(&dir).unwrap();
}
