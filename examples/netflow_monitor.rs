//! The "network measurements" scenario the paper's introduction points to:
//! a router exports per-link utilization, SBR archives it at 8% of the raw
//! volume, and an operator asks historical questions — answered straight
//! off the compressed log, no reconstruction pass.
//!
//! ```sh
//! cargo run --release --example netflow_monitor
//! ```

use sbr_repro::core::{Decoder, ErrorMetric, QueryEngine, SbrConfig, SbrEncoder};

fn main() {
    let n_links = 8;
    let batch = 864; // 3 synthetic days of 5-minute polls per batch
    let batches = 6;
    let data = sbr_repro::datasets::netflow(21, n_links, batch * batches);
    let files = data.chunk(batch);
    let n = n_links * batch;

    let config = SbrConfig::new(n / 12, 1024); // ~8.3% of raw
    let mut encoder = SbrEncoder::new(n_links, batch, config).expect("valid configuration");
    let mut txs = Vec::new();
    let mut raw = 0usize;
    let mut sent = 0usize;
    for rows in &files {
        let tx = encoder.encode(rows).expect("encode");
        raw += n;
        sent += tx.cost();
        txs.push(tx);
    }
    println!(
        "archived {} polls/link on {n_links} links: {raw} → {sent} values ({:.1}%)",
        batch * batches,
        100.0 * sent as f64 / raw as f64
    );

    // Operator questions, answered on the compressed records.
    let core1 = 0; // link index
    let day = batch / 3;
    println!(
        "\nlink {:?} — compressed-domain queries:",
        data.signal_names[core1]
    );
    let mut engine = QueryEngine::from_transmissions(&txs).expect("index the log");
    for d in 0..3 {
        let agg = engine
            .aggregate(core1, d * day, (d + 1) * day)
            .expect("aggregate query");
        println!(
            "  day {d}: avg {:>8.1} Mbit/s   peak {:>8.1}   floor {:>8.1}",
            agg.avg, agg.max, agg.min
        );
    }

    // Fidelity check against the truth for the same window.
    let mut dec = Decoder::new();
    let mut rec_all: Vec<f64> = Vec::new();
    for tx in &txs {
        rec_all.extend(dec.decode(tx).expect("decode")[core1].iter());
    }
    let truth = &data.signals[core1][..rec_all.len()];
    let sse = ErrorMetric::Sse.score(truth, &rec_all);
    let energy: f64 = truth.iter().map(|v| v * v).sum();
    println!(
        "\nreconstruction error on {}: {:.4}% of signal energy",
        data.signal_names[core1],
        100.0 * sse / energy
    );
}
