//! The benchmark's own checks, on short inputs with fixed-size timed
//! regions: deterministic counts per seed, and a delay injected into one
//! layer's wrapper showing up in that layer's row only.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use pipebench::{Budget, Layer, LayerReport, Outcome, Params, Size, Workload};

/// Serialises the tests: the attribution test compares wall times, which
/// a concurrently encoding test would disturb.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(workload: Workload, seed: u64, tag: &str, inject: Option<(Layer, Duration)>) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("pipeline-{}-{seed}-{tag}", workload.name()));
    let params = Params {
        seed,
        budget: Budget::Ops(3),
        trace: true,
        size: Size::Short,
        inject,
        work_dir,
        spans: None,
    };
    let out = pipebench::run(workload, &params);
    assert!(
        out.correct(),
        "{} seed {seed} ({tag}): {:?}",
        workload.name(),
        out.failures
    );
    out
}

fn metric(out: &Outcome, name: &str) -> f64 {
    let layers = out.layers.as_ref().expect("traced run");
    layers
        .metrics
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn counts_repeat_for_a_seed_and_change_with_it() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let a = run(workload, 1, "a", None);
        let b = run(workload, 1, "b", None);
        let c = run(workload, 2, "c", None);
        assert_eq!(a.counts, b.counts, "{}", workload.name());
        assert_ne!(
            a.counts.input_digest,
            c.counts.input_digest,
            "{}: a second seed must change the inputs",
            workload.name()
        );
        assert!(a.counts.frames_sent > 0 && a.counts.store_bytes > 0);
        assert_ne!(a.counts.sse_bits, 0f64.to_bits());
        // Layers each workload must leave alone in its timed region.
        if workload != Workload::FleetIngest {
            assert_eq!(metric(&a, "node.flush.calls"), 0.0, "{}", workload.name());
        }
        if workload != Workload::HistoryQuery {
            assert_eq!(metric(&a, "query.calls"), 0.0, "{}", workload.name());
            assert_eq!(a.counts.plan_hits + a.counts.plan_misses, 0);
        } else {
            assert!(a.counts.plan_hits > 0 && a.counts.plan_misses > 0);
        }
    }
}

fn row(report: &LayerReport, name: &str) -> f64 {
    report
        .rows
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no row {name}"))
        .self_s
}

#[test]
fn injected_delay_shows_in_its_layer_only() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let delay = Duration::from_micros(500);
    let workload = Workload::StationReplay;
    let base = run(workload, 3, "base", None);
    let slow = run(workload, 3, "slow", Some((Layer::StationReceive, delay)));
    let (base, slow) = (base.layers.unwrap(), slow.layers.unwrap());
    let calls = slow
        .rows
        .iter()
        .find(|r| r.name == "station.receive")
        .map_or(0, |r| r.calls);
    assert!(calls > 0);
    let injected = calls as f64 * delay.as_secs_f64();
    let grew = row(&slow, "station.receive") - row(&base, "station.receive");
    assert!(
        grew >= 0.95 * injected && grew <= 1.3 * injected,
        "station.receive grew {grew:.4} s for {injected:.4} s injected"
    );
    for r in &slow.rows {
        if r.name == "station.receive" {
            continue;
        }
        let moved = (r.self_s - row(&base, r.name)).abs();
        assert!(
            moved <= 0.1 * injected,
            "{} moved {moved:.4} s for {injected:.4} s injected into station.receive",
            r.name
        );
    }
    // Reconciliation held in both runs (a miss would have failed them).
    assert!(slow.unattributed_share <= pipebench::report::RECONCILE_LIMIT);
}
