//! Concurrency: one `BaseStation` shared by many receiver threads (the
//! reason its logs sit behind `parking_lot::Mutex`), with queries running
//! while ingest continues.

use std::sync::Arc;

use sbr_repro::core::{codec, Frame, SbrConfig, SbrEncoder};
use sbr_repro::sensor_net::{BaseStation, Receipt};

fn sensor_frames(sensor: u64, chunks: usize) -> Vec<bytes::Bytes> {
    let mut enc = SbrEncoder::new(2, 64, SbrConfig::new(64, 48)).unwrap();
    (0..chunks)
        .map(|c| {
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|r| {
                    (0..64)
                        .map(|i| {
                            ((i + c * 64) as f64 * 0.21 + sensor as f64 + r as f64).sin() * 6.0
                        })
                        .collect()
                })
                .collect();
            codec::encode_v2(&Frame::data(0, enc.encode(&rows).unwrap()))
        })
        .collect()
}

#[test]
fn parallel_ingest_from_many_sensors() {
    let station = Arc::new(BaseStation::new());
    let n_sensors = 8;
    let chunks = 12;
    std::thread::scope(|scope| {
        for s in 0..n_sensors {
            let station = Arc::clone(&station);
            scope.spawn(move || {
                for f in sensor_frames(s as u64, chunks) {
                    assert_eq!(station.receive_frame(s + 1, f).unwrap(), Receipt::Accepted);
                }
            });
        }
    });
    assert_eq!(station.sensors().len(), n_sensors);
    for s in 1..=n_sensors {
        assert_eq!(station.chunk_count(s), chunks);
        let rec = station.reconstruct_chunks(s, 0, chunks).unwrap();
        assert_eq!(rec.len(), chunks);
    }
}

#[test]
fn queries_concurrent_with_ingest() {
    let station = Arc::new(BaseStation::new());
    // Pre-load sensor 1 so queries always have data.
    for f in sensor_frames(1, 10) {
        assert_eq!(station.receive_frame(1, f).unwrap(), Receipt::Accepted);
    }
    std::thread::scope(|scope| {
        // Writer: sensor 2 streams in.
        {
            let station = Arc::clone(&station);
            scope.spawn(move || {
                for f in sensor_frames(2, 20) {
                    assert_eq!(station.receive_frame(2, f).unwrap(), Receipt::Accepted);
                }
            });
        }
        // Readers: hammer sensor 1 with historical queries meanwhile.
        for _ in 0..3 {
            let station = Arc::clone(&station);
            scope.spawn(move || {
                for _ in 0..30 {
                    let agg = station.aggregate_range(1, 0, 100, 500).unwrap();
                    assert_eq!(agg.count, 400);
                    assert!(agg.min <= agg.avg && agg.avg <= agg.max);
                    let chunks = station.reconstruct_chunks(1, 4, 7).unwrap();
                    assert_eq!(chunks.len(), 3);
                }
            });
        }
    });
    assert_eq!(station.chunk_count(2), 20);
}

#[test]
fn per_sensor_streams_are_independent() {
    // A bad frame from one sensor must not disturb another's stream.
    let station = BaseStation::new();
    let a = sensor_frames(1, 3);
    let b = sensor_frames(2, 3);
    assert_eq!(
        station.receive_frame(1, a[0].clone()).unwrap(),
        Receipt::Accepted
    );
    assert_eq!(
        station.receive_frame(2, b[0].clone()).unwrap(),
        Receipt::Accepted
    );
    assert!(station.receive_frame(1, a[2].clone()).is_err()); // gap on sensor 1
    assert_eq!(
        station.receive_frame(2, b[1].clone()).unwrap(),
        Receipt::Accepted
    ); // sensor 2 unaffected
    assert_eq!(
        station.receive_frame(1, a[1].clone()).unwrap(),
        Receipt::Accepted
    ); // sensor 1 recovers
    assert_eq!(
        station.receive_frame(1, a[2].clone()).unwrap(),
        Receipt::Accepted
    );
    assert_eq!(station.chunk_count(1), 3);
    assert_eq!(station.chunk_count(2), 2);
}

/// Encode a few evolving batches and return the exact transmitted bytes.
fn stream_bytes(config: SbrConfig) -> Vec<Vec<u8>> {
    let mut enc = SbrEncoder::new(2, 256, config).unwrap();
    (0..4)
        .map(|round| {
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|r| {
                    (0..256)
                        .map(|i| {
                            ((i % 32) as f64 * 0.7 + r as f64).sin() * 5.0
                                + ((i + round * 19) as f64 * 0.23).cos() * (round + 1) as f64
                        })
                        .collect()
                })
                .collect();
            codec::encode_v2(&Frame::data(0, enc.encode(&rows).unwrap())).to_vec()
        })
        .collect()
}

#[test]
#[allow(deprecated)]
fn thread_count_never_changes_the_transmissions() {
    // The encoder runs on the calling thread; the deprecated thread-count
    // setter is kept for old callers and must leave the stream unchanged.
    let reference = stream_bytes(SbrConfig::new(200, 200).with_threads(1));
    let other = stream_bytes(SbrConfig::new(200, 200).with_threads(4));
    assert_eq!(reference, other, "with_threads(4) changed the output");
}

#[test]
fn live_recorder_never_changes_the_transmissions() {
    // Instrumentation is observation only: attaching a live MetricsRecorder
    // must leave the byte stream untouched while still collecting counts.
    use sbr_repro::obs::{MetricsRecorder, Recorder as _};
    let reference = stream_bytes(SbrConfig::new(200, 200));
    let rec = Arc::new(MetricsRecorder::new());
    let instrumented = stream_bytes(SbrConfig::new(200, 200).with_recorder(rec.clone()));
    assert_eq!(
        reference, instrumented,
        "attaching a recorder changed the output"
    );
    let snap = rec.snapshot();
    assert!(
        snap.counter("sbr_core.best_map.calls").unwrap_or(0) > 0,
        "recorder saw no BestMap activity"
    );
    assert!(
        snap.histogram("sbr_core.sbr.encode_ns")
            .is_some_and(|h| h.count == 4),
        "expected one encode_ns sample per round"
    );
}
