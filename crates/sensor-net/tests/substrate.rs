//! Substrate integration: topology + lossy link + energy + battery
//! driven together, the way the network example composes them.

use sbr_core::SbrConfig;
use sensor_net::{Battery, EnergyModel, LossyLink, Network, Strategy, Topology};

fn feeds(n_nodes: usize, len: usize) -> Vec<Vec<Vec<f64>>> {
    (0..n_nodes)
        .map(|n| {
            (0..2)
                .map(|s| {
                    (0..len)
                        .map(|t| ((t as f64 * 0.23) + (n * 2 + s) as f64).sin() * 8.0 + 20.0)
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[test]
fn lifetime_ordering_raw_worst_sbr_best_at_low_ratio() {
    let data = feeds(6, 256);
    let battery = Battery::default();
    let life = |strategy: &Strategy| {
        let mut net = Network::new(Topology::random(7, 8.0, 3.0, 5), EnergyModel::default());
        let r = net.simulate(&data, 128, strategy).unwrap();
        battery.network_lifetime(&r.ledgers)
    };
    let raw = life(&Strategy::Raw);
    let sbr10 = life(&Strategy::Sbr(SbrConfig::new(2 * 128 / 10, 64)));
    let sbr30 = life(&Strategy::Sbr(SbrConfig::new(2 * 128 * 3 / 10, 64)));
    assert!(sbr10 > sbr30, "lower ratio must live longer");
    assert!(sbr30 > raw, "any compression must beat raw");
    assert!(
        sbr10 > 5.0 * raw,
        "10% ratio should buy ~an order of magnitude"
    );
}

#[test]
fn deep_chains_amplify_compression_gains() {
    // On a 10-hop chain, every saved value is saved ten times.
    let data = feeds(10, 128);
    let run = |topology: Topology, strategy: &Strategy| {
        let mut net = Network::new(topology, EnergyModel::default());
        net.simulate(&data, 128, strategy).unwrap().total_energy()
    };
    let sbr = Strategy::Sbr(SbrConfig::new(2 * 128 / 10, 64));
    let chain_raw = run(Topology::line(11, 1.0), &Strategy::Raw);
    let chain_sbr = run(Topology::line(11, 1.0), &sbr);
    let star_raw = run(Topology::star(11, 1.0), &Strategy::Raw);
    let star_sbr = run(Topology::star(11, 1.0), &sbr);
    let chain_gain = chain_raw / chain_sbr;
    let star_gain = star_raw / star_sbr;
    // Both topologies gain about the ratio; absolute energy differs a lot.
    assert!(
        chain_raw > 2.0 * star_raw,
        "relaying must cost more on chains"
    );
    assert!(chain_gain > 5.0 && star_gain > 5.0);
}

#[test]
fn arq_compensates_loss_without_fidelity_cost() {
    let data = feeds(3, 256);
    let sbr = Strategy::Sbr(SbrConfig::new(2 * 128 / 8, 64));
    let mut clean = Network::new(Topology::line(4, 1.0), EnergyModel::default());
    let clean_report = clean.simulate(&data, 128, &sbr).unwrap();
    let mut noisy = Network::new(Topology::line(4, 1.0), EnergyModel::default());
    noisy.set_link(LossyLink::new(0.3, 40, 11));
    let noisy_report = noisy.simulate(&data, 128, &sbr).unwrap();
    // ~1/(1-p) = 1.43× attempts; energy up, answers identical.
    assert!(noisy_report.hop_attempts > clean_report.hop_attempts);
    assert!((noisy_report.sse - clean_report.sse).abs() < 1e-9);
    assert_eq!(
        noisy.station().chunk_count(1),
        clean.station().chunk_count(1)
    );
}

#[test]
fn overhearing_scales_with_density() {
    // Same traffic, denser radio range ⇒ more rx energy burned by
    // bystanders.
    let data = feeds(5, 128);
    let run = |range: f64| {
        let mut net = Network::new(Topology::random(6, 6.0, range, 3), EnergyModel::default());
        let r = net.simulate(&data, 128, &Strategy::Raw).unwrap();
        r.ledgers.iter().map(|l| l.rx).sum::<f64>()
    };
    let sparse = run(1.0);
    let dense = run(8.0); // everyone hears everyone
    assert!(dense > sparse, "dense {dense} vs sparse {sparse}");
}
