//! A 20-sensor multi-hop network comparing three dissemination strategies
//! — raw forwarding, per-window aggregation, and SBR — on energy and
//! reconstruction fidelity, then answering a historical range query from
//! the base station's logs.
//!
//! ```sh
//! cargo run --release --example network_sim
//! ```

use std::sync::Arc;

use sbr_repro::core::SbrConfig;
use sbr_repro::obs::{MetricsRecorder, Recorder as _};
use sbr_repro::sensor_net::{Battery, EnergyModel, Network, Strategy, Topology};

fn main() {
    let n_nodes = 21; // base + 20 sensors
    let n_signals = 3;
    let file_len = 512;
    let batches = 4;

    // Every sensor measures its own (correlated) local weather.
    let feeds: Vec<Vec<Vec<f64>>> = (0..n_nodes - 1)
        .map(|i| {
            let d = sbr_repro::datasets::weather(100 + i as u64, file_len * batches);
            d.signals[..n_signals].to_vec()
        })
        .collect();

    let strategies = [
        Strategy::Raw,
        Strategy::Aggregate { window: 32 },
        Strategy::Sbr(SbrConfig::new(n_signals * file_len / 10, 256)),
    ];

    // Network lifetime: batteries sized so the raw strategy lives ~100
    // collection periods; the comparison is what matters.
    let battery = Battery { capacity: 2e12 };
    println!(
        "strategy     values-sent   reduction     total-energy          sse   lifetime(periods)"
    );
    let mut sbr_net = None;
    let mut sbr_metrics = None;
    for s in &strategies {
        let topology = Topology::random(n_nodes, 10.0, 2.5, 9);
        let mut net = Network::new(topology, EnergyModel::default());
        // Instrument the SBR run so we can show where the energy and the
        // encode time actually went.
        let rec = if matches!(s, Strategy::Sbr(_)) {
            let rec = Arc::new(MetricsRecorder::new());
            net.set_recorder(rec.clone());
            Some(rec)
        } else {
            None
        };
        let report = net.simulate(&feeds, file_len, s).expect("simulation");
        if let Some(rec) = rec {
            sbr_metrics = Some(rec.snapshot());
        }
        println!(
            "{:<12} {:>11}   {:>8.1}%   {:>13.3e}   {:>10.2}   {:>14.1}",
            report.strategy,
            report.values_sent,
            100.0 * report.compression_ratio(),
            report.total_energy(),
            report.sse,
            battery.network_lifetime(&report.ledgers)
        );
        if matches!(s, Strategy::Sbr(_)) {
            sbr_net = Some(net);
        }
    }

    // Headline observability numbers from the instrumented SBR run.
    let snap = sbr_metrics.expect("sbr run was instrumented");
    println!("\nsbr run metrics (via sbr-obs recorder):");
    if let Some(h) = snap.histogram("sbr_core.sbr.encode_ns") {
        println!(
            "  encode: {} transmissions, {:.2} ms total, {:.3} ms mean",
            h.count,
            h.sum as f64 / 1e6,
            h.sum as f64 / h.count.max(1) as f64 / 1e6
        );
    }
    println!(
        "  best_map: {} calls ({} direct sweeps)",
        snap.counter("sbr_core.best_map.calls").unwrap_or(0),
        snap.counter("sbr_core.best_map.direct_sweeps").unwrap_or(0)
    );
    println!(
        "  base signal: {} chunks inserted, {} evicted",
        snap.counter("sbr_core.base_signal.inserted").unwrap_or(0),
        snap.counter("sbr_core.base_signal.evicted").unwrap_or(0)
    );
    println!(
        "  radio: {} hop attempts, {} drops; energy tx {:.2e}, rx {:.2e}, overhear {:.2e}",
        snap.counter("sensor_net.link.hop_attempts").unwrap_or(0),
        snap.counter("sensor_net.link.drops").unwrap_or(0),
        snap.gauge("sensor_net.energy.tx").unwrap_or(0.0),
        snap.gauge("sensor_net.energy.rx").unwrap_or(0.0),
        snap.gauge("sensor_net.energy.overhear").unwrap_or(0.0)
    );

    // Historical query against the SBR run's logs: sensor 5, signal 0
    // (temperature), samples 300..360 — spanning a chunk boundary.
    let net = sbr_net.expect("sbr strategy ran");
    let window = net
        .station()
        .reconstruct_signal_range(5, 0, 300, 360)
        .expect("historical query");
    let truth = &feeds[4][0][300..360];
    let sse: f64 = truth
        .iter()
        .zip(&window)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    println!("\nhistorical query (sensor 5, temperature, t ∈ [300, 360)):");
    println!("  60 samples reconstructed from the log, sse {sse:.3}");
    println!(
        "  first five: {:?}",
        &window[..5]
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
}
