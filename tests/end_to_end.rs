//! Cross-crate integration tests: sensor → wire → base station → historical
//! reconstruction, over generated datasets.

use sbr_repro::core::{codec, Decoder, ErrorMetric, Frame, SbrConfig, SbrEncoder};
use sbr_repro::sensor_net::{BaseStation, EnergyModel, Network, Receipt, Strategy, Topology};

fn weather_files(seed: u64, file_len: usize, files: usize) -> Vec<Vec<Vec<f64>>> {
    sbr_repro::datasets::weather(seed, file_len * files).chunk(file_len)
}

#[test]
fn ten_transmission_stream_roundtrips_within_budget() {
    let files = weather_files(1, 512, 10);
    let n = 6 * 512;
    let band = n / 10;
    let mut enc = SbrEncoder::new(6, 512, SbrConfig::new(band, 600)).unwrap();
    let mut dec = Decoder::new();
    let mut prev_sse = f64::INFINITY;
    let mut first_sse = None;
    for (t, rows) in files.iter().enumerate() {
        let tx = enc.encode(rows).unwrap();
        assert!(tx.cost() <= band, "tx {t} cost {} > {band}", tx.cost());

        // Through the wire format.
        let frame = codec::encode_v2(&Frame::data(0, tx.clone()));
        let parsed = codec::decode_exact(&frame).unwrap().tx;
        assert_eq!(parsed, tx);

        let rec = dec.decode(&parsed).unwrap();
        let sse: f64 = rows
            .iter()
            .zip(&rec)
            .map(|(o, r)| ErrorMetric::Sse.score(o, r))
            .sum();
        if t == 0 {
            first_sse = Some(sse);
        }
        prev_sse = sse;
    }
    // The dictionary should help: the final transmission must not be an
    // order of magnitude worse than the first (same generator regime).
    assert!(prev_sse < first_sse.unwrap() * 10.0);
}

#[test]
fn decoded_error_equals_reported_error_across_datasets() {
    for (files, n_signals, m) in [
        (weather_files(2, 256, 3), 6, 256),
        (sbr_repro::datasets::stock(2, 5, 256 * 3).chunk(256), 5, 256),
        (
            sbr_repro::datasets::phone(2, 256 * 3, 64).chunk(256),
            15,
            256,
        ),
    ] {
        let band = n_signals * m / 5;
        let mut enc = SbrEncoder::new(n_signals, m, SbrConfig::new(band, 400)).unwrap();
        let mut dec = Decoder::new();
        for rows in &files {
            let tx = enc.encode(rows).unwrap();
            let rec = dec.decode(&tx).unwrap();
            let sse: f64 = rows
                .iter()
                .zip(&rec)
                .map(|(o, r)| ErrorMetric::Sse.score(o, r))
                .sum();
            let reported = enc.last_stats().unwrap().total_err;
            assert!(
                (sse - reported).abs() <= 1e-6 * (1.0 + sse.abs()),
                "decoded {sse} vs reported {reported}"
            );
        }
    }
}

#[test]
fn base_station_reconstruction_is_stable_across_replays() {
    // Two stations ingest the same v2 stream: every answer of the second
    // (a replay of the first) must equal the first's.
    let files = weather_files(3, 256, 5);
    let mut enc = SbrEncoder::new(6, 256, SbrConfig::new(300, 400)).unwrap();
    let stations = [BaseStation::new(), BaseStation::new()];
    for rows in &files {
        let frame = codec::encode_v2(&Frame::data(0, enc.encode(rows).unwrap()));
        for station in &stations {
            assert_eq!(
                station.receive_frame(1, frame.clone()).unwrap(),
                Receipt::Accepted
            );
        }
    }
    let [station, replay] = &stations;
    for signal in 0..6 {
        assert_eq!(
            station.aggregate_range(1, signal, 100, 1100).unwrap(),
            replay.aggregate_range(1, signal, 100, 1100).unwrap(),
            "signal {signal}: the replayed stream aggregates differently"
        );
    }
    let a = station.reconstruct_chunks(1, 0, 5).unwrap();
    assert_eq!(a, replay.reconstruct_chunks(1, 0, 5).unwrap());
    let b = station.reconstruct_chunks(1, 0, 5).unwrap();
    assert_eq!(a, b, "replay must be deterministic");
    let tail = station.reconstruct_chunks(1, 3, 5).unwrap();
    assert_eq!(tail[0], a[3]);
    assert_eq!(tail[1], a[4]);
}

#[test]
fn relative_metric_encoder_wins_on_relative_error() {
    // Same data and budget; the relative-metric encoder must be at least as
    // good on relative error as the SSE encoder (this is the Table 3
    // premise).
    let files = sbr_repro::datasets::phone(5, 512 * 4, 128).chunk(512);
    let n = 15 * 512;
    let band = n / 10;
    let score = |metric| {
        let cfg = SbrConfig::new(band, 512).with_metric(metric);
        let mut enc = SbrEncoder::new(15, 512, cfg).unwrap();
        let mut dec = Decoder::new();
        let mut rel = 0.0;
        for rows in &files {
            let tx = enc.encode(rows).unwrap();
            let rec = dec.decode(&tx).unwrap();
            for (o, r) in rows.iter().zip(&rec) {
                rel += ErrorMetric::relative().score(o, r);
            }
        }
        rel
    };
    let rel_metric = score(ErrorMetric::relative());
    let sse_metric = score(ErrorMetric::Sse);
    assert!(
        rel_metric <= sse_metric * 1.05,
        "relative encoder {rel_metric} should not lose to SSE encoder {sse_metric}"
    );
}

#[test]
fn network_sbr_is_cheaper_than_raw_and_better_than_aggregation() {
    let feeds: Vec<Vec<Vec<f64>>> = (0..4)
        .map(|i| sbr_repro::datasets::weather(20 + i, 512).signals[..3].to_vec())
        .collect();
    let run = |strategy: &Strategy| {
        let mut net = Network::new(Topology::random(5, 8.0, 3.0, 4), EnergyModel::default());
        net.simulate(&feeds, 256, strategy).unwrap()
    };
    let raw = run(&Strategy::Raw);
    let agg = run(&Strategy::Aggregate { window: 16 });
    let sbr = run(&Strategy::Sbr(SbrConfig::new(3 * 256 / 8, 200)));
    assert_eq!(raw.sse, 0.0);
    assert!(sbr.total_energy() < raw.total_energy() / 2.0);
    // At comparable (here: lower) bandwidth, SBR reconstructs better than
    // window-averaging.
    assert!(sbr.values_sent <= agg.values_sent);
    assert!(sbr.sse < agg.sse);
}

#[test]
fn max_abs_bound_survives_the_full_pipeline() {
    let files = weather_files(6, 256, 3);
    let cfg = SbrConfig::new(400, 400).with_metric(ErrorMetric::MaxAbs);
    let mut enc = SbrEncoder::new(6, 256, cfg).unwrap();
    let mut dec = Decoder::new();
    for rows in &files {
        let tx = enc.encode(rows).unwrap();
        let bound = enc.last_stats().unwrap().total_err;
        let frame = codec::encode_v2(&Frame::data(0, tx));
        let rec = dec
            .decode(&codec::decode_exact(&frame).unwrap().tx)
            .unwrap();
        for (o, r) in rows.iter().zip(&rec) {
            let worst = ErrorMetric::MaxAbs.score(o, r);
            assert!(
                worst <= bound + 1e-9,
                "deviation {worst} exceeds advertised bound {bound}"
            );
        }
    }
}
