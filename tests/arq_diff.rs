//! Differential suite for the loss-tolerant v2 protocol: on a reliable
//! link with no fault plan, `Strategy::Sbr`'s ARQ path (retransmission
//! buffers, cumulative ACKs, resync machinery armed but never triggered)
//! must leave a base-station log **byte-identical** to the straight-line
//! direct-delivery reference in `tests/common`, across error metrics,
//! thread counts and topologies — the protocol is pure delivery
//! mechanics, never a semantic change to what gets logged.

mod common;

use sbr_repro::core::{ErrorMetric, SbrConfig};
use sbr_repro::sensor_net::network::{Network, Strategy};
use sbr_repro::sensor_net::{EnergyModel, Topology};

fn feeds(n_nodes: usize, n_signals: usize, len: usize) -> Vec<Vec<Vec<f64>>> {
    (0..n_nodes)
        .map(|n| {
            (0..n_signals)
                .map(|s| {
                    (0..len)
                        .map(|t| {
                            let x = t as f64;
                            (x * 0.9 + (n * 3 + s) as f64 * 2.1).sin() * 4.0
                                + (x * 0.23).cos() * 2.0
                                + ((t * 7 + s) % 5) as f64
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn run(data: &[Vec<Vec<f64>>], nodes: usize, m: usize, config: SbrConfig) -> Network {
    let mut net = Network::new(Topology::line(nodes, 1.0), EnergyModel::default());
    net.simulate(data, m, &Strategy::Sbr(config))
        .expect("reliable run cannot fail");
    net
}

fn assert_logs_identical(
    data: &[Vec<Vec<f64>>],
    nodes: usize,
    m: usize,
    cfg: SbrConfig,
    label: &str,
) {
    let direct = common::direct_delivery(data, m, cfg.clone());
    let arq = run(data, nodes, m, cfg);
    for node in 1..nodes {
        assert_eq!(
            arq.station().raw_frames(node),
            direct.raw_frames(node),
            "[{label}] node {node}: ARQ log diverged from direct delivery"
        );
        assert_eq!(
            arq.station().log_bytes(node),
            direct.log_bytes(node),
            "[{label}] node {node}: log accounting diverged"
        );
    }
}

#[test]
fn byte_identical_across_metrics_and_threads() {
    let data = feeds(2, 2, 256);
    for metric in [
        ErrorMetric::Sse,
        ErrorMetric::relative(),
        ErrorMetric::MaxAbs,
    ] {
        for threads in [1usize, 4] {
            let cfg = SbrConfig::new(72, 48)
                .with_metric(metric)
                .with_threads(threads);
            assert_logs_identical(&data, 3, 64, cfg, &format!("{metric:?}/t{threads}"));
        }
    }
}

#[test]
fn byte_identical_across_topology_depth_and_batch_size() {
    for (nodes, m, len) in [(2usize, 32usize, 192usize), (4, 64, 256), (5, 48, 192)] {
        let data = feeds(nodes - 1, 2, len);
        let cfg = SbrConfig::new(64, m.min(48));
        assert_logs_identical(&data, nodes, m, cfg, &format!("{nodes}n/m{m}"));
    }
}

#[test]
fn arq_run_reports_clean_recovery_on_a_perfect_channel() {
    let data = feeds(2, 2, 256);
    let mut net = Network::new(Topology::line(3, 1.0), EnergyModel::default());
    let report = net
        .simulate(&data, 64, &Strategy::Sbr(SbrConfig::new(72, 48)))
        .unwrap();
    let stats = report.recovery.expect("ARQ always reports recovery stats");
    assert_eq!(stats.gaps_detected, 0);
    assert_eq!(stats.duplicates_discarded, 0);
    assert_eq!(stats.corrupt_rejected, 0);
    assert_eq!(stats.resyncs, 0);
    assert_eq!(stats.retx_overflows, 0);
    assert_eq!(stats.crashes, 0);
    assert_eq!(stats.delivered_fraction(), 1.0);
    assert_eq!(stats.frames_sent, stats.frames_delivered);
    assert!(stats.acks_sent >= stats.frames_delivered);
}
