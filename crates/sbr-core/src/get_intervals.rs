//! `GetIntervals` (Algorithm 3): recursive halving of the data into
//! variable-length intervals, worst interval first.

use std::collections::BinaryHeap;

use crate::best_map::MapContext;
use crate::config::SbrConfig;
use crate::error::{Result, SbrError};
use crate::interval::{Interval, IntervalRecord};
use crate::metric::ErrorMetric;
use crate::series::MultiSeries;

/// Result of the interval-splitting approximation.
#[derive(Debug, Clone)]
pub struct Approximation {
    /// The chosen intervals, sorted by `start`.
    pub intervals: Vec<Interval>,
    /// Batch error under the encoder's metric (sum or max of interval
    /// errors).
    pub total_err: f64,
}

impl Approximation {
    /// Number of bandwidth values the interval records consume.
    pub fn cost(&self) -> usize {
        self.intervals.len() * IntervalRecord::COST
    }

    /// How many intervals landed on each of the `n_signals` rows of `m`
    /// samples — the paper notes `GetIntervals` "decides dynamically how
    /// many intervals it will use to approximate each of the N rows,
    /// allocating more intervals to signals that are harder to approximate
    /// accurately".
    pub fn intervals_per_signal(&self, n_signals: usize, m: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_signals];
        for iv in &self.intervals {
            counts[(iv.start / m).min(n_signals - 1)] += 1;
        }
        counts
    }
}

/// A source of interval fits for the splitting loop.
///
/// [`get_intervals_with`] is parameterized over this so the recursive
/// halving is shared — not forked — between the plain per-probe evaluation
/// ([`MapContext`] fits against one concrete dictionary) and the `Search`
/// probe cache ([`crate::probe_cache::ProbeOracle`] serves fits assembled
/// from cached per-region sweeps). The splitting loop calls it serially;
/// any parallelism sits above it, across whole `Search` probes.
pub trait FitOracle {
    /// Fit `interval` in place; `start`/`length` are already set. Must
    /// reproduce [`MapContext::best_map`] against the oracle's dictionary
    /// bit for bit.
    fn fit(&self, interval: &mut Interval);
}

impl FitOracle for MapContext<'_> {
    fn fit(&self, interval: &mut Interval) {
        self.best_map(interval);
    }
}

/// Max-heap entry ordered by interval error.
struct HeapItem(Interval);

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.0.err == other.0.err
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.err.total_cmp(&other.0.err)
    }
}

/// Approximate the batch with at most `budget_values / 4` intervals against
/// the flat base signal `x`.
///
/// Follows Algorithm 3: one interval per input row to start, then repeatedly
/// split the interval with the largest error and re-map both halves, until
/// the interval budget is exhausted (or, when `config.error_target` is set,
/// until the batch error reaches the target — the §4.5 combined bound).
///
/// Intervals of length 1 cannot be split; they are frozen and skipped. The
/// paper leaves this implicit, but without the guard the loop would not
/// terminate on pathological budgets.
pub fn get_intervals(
    x: &[f64],
    data: &MultiSeries,
    budget_values: usize,
    w: usize,
    config: &SbrConfig,
) -> Result<Approximation> {
    let ctx = MapContext::new(x, data.flat(), config, w);
    get_intervals_with(&ctx, data, budget_values, config)
}

/// [`get_intervals`] over an arbitrary [`FitOracle`] — the same Algorithm 3
/// splitting loop, with every fit delegated to `oracle`.
pub fn get_intervals_with<O: FitOracle>(
    oracle: &O,
    data: &MultiSeries,
    budget_values: usize,
    config: &SbrConfig,
) -> Result<Approximation> {
    let n_signals = data.n_signals();
    let m = data.samples_per_signal();
    let max_intervals = budget_values / IntervalRecord::COST;
    if max_intervals < n_signals {
        return Err(SbrError::BudgetTooSmall {
            total_band: budget_values,
            required: n_signals * IntervalRecord::COST,
        });
    }

    let _span = config.obs.span(
        "sbr_core.get_intervals.run_ns",
        &config.obs.get_intervals_ns,
    );
    let metric = config.metric;

    let mut heap: BinaryHeap<HeapItem> = BinaryHeap::with_capacity(max_intervals);
    let mut frozen: Vec<Interval> = Vec::new();

    for i in 0..n_signals {
        let mut iv = Interval::unfitted(i * m, m);
        oracle.fit(&mut iv);
        heap.push(HeapItem(iv));
    }

    let mut num_intervals = n_signals;
    while num_intervals < max_intervals {
        if let Some(target) = config.error_target {
            if current_error(metric, &heap, &frozen) <= target {
                break;
            }
        }
        // Pop until a splittable interval surfaces.
        let worst = loop {
            match heap.pop() {
                Some(HeapItem(iv)) if iv.length >= 2 => break Some(iv),
                Some(HeapItem(iv)) => frozen.push(iv),
                None => break None,
            }
        };
        let Some(worst) = worst else { break };
        // lint:allow(float-eq): exact-fit early exit pinned by the differential byte-identity suite
        if worst.err == 0.0 {
            // Everything remaining is already exact; splitting cannot help.
            heap.push(HeapItem(worst));
            break;
        }

        let left_len = worst.length / 2;
        let mut left = Interval::unfitted(worst.start, left_len);
        let mut right = Interval::unfitted(worst.start + left_len, worst.length - left_len);
        oracle.fit(&mut left);
        oracle.fit(&mut right);
        heap.push(HeapItem(left));
        heap.push(HeapItem(right));
        num_intervals += 1;
    }

    let mut intervals: Vec<Interval> = frozen;
    intervals.extend(heap.into_iter().map(|h| h.0));
    intervals.sort_by_key(|iv| iv.start);
    let total_err = metric.combine_all(intervals.iter().map(|iv| iv.err));
    Ok(Approximation {
        intervals,
        total_err,
    })
}

fn current_error(metric: ErrorMetric, heap: &BinaryHeap<HeapItem>, frozen: &[Interval]) -> f64 {
    let a = metric.combine_all(heap.iter().map(|h| h.0.err));
    let b = metric.combine_all(frozen.iter().map(|iv| iv.err));
    metric.combine(a, b)
}

/// Reconstruct the concatenated series from a set of interval records
/// against a flat base signal — the shared decode kernel used by the base
/// station and by error probes. `records` need not be sorted.
pub fn reconstruct_flat(x: &[f64], records: &[IntervalRecord], n_total: usize) -> Result<Vec<f64>> {
    let mut recs: Vec<IntervalRecord> = records.to_vec();
    recs.sort_by_key(|r| r.start);
    if let Some(first) = recs.first() {
        if first.start != 0 {
            return Err(SbrError::Corrupt(format!(
                "records leave [0, {}) uncovered",
                first.start
            )));
        }
    }
    let mut out = vec![0.0f64; n_total];
    for (k, r) in recs.iter().enumerate() {
        let start = r.start as usize;
        let end = if k + 1 < recs.len() {
            recs[k + 1].start as usize
        } else {
            n_total
        };
        if start >= end || end > n_total {
            return Err(SbrError::Corrupt(format!(
                "interval record {k} covers [{start}, {end}) out of {n_total} values"
            )));
        }
        let len = end - start;
        if r.shift < 0 {
            for (i, slot) in out[start..end].iter_mut().enumerate() {
                *slot = r.a * i as f64 + r.b;
            }
        } else {
            let shift = r.shift as usize;
            if shift + len > x.len() {
                return Err(SbrError::Corrupt(format!(
                    "interval record {k} maps to base segment [{shift}, {}) but the \
                     base signal holds {} values",
                    shift + len,
                    x.len()
                )));
            }
            for (slot, &xv) in out[start..end].iter_mut().zip(&x[shift..shift + len]) {
                *slot = r.a * xv + r.b;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(rows: &[Vec<f64>]) -> MultiSeries {
        MultiSeries::from_rows(rows).unwrap()
    }

    fn cfg(budget: usize) -> SbrConfig {
        SbrConfig::new(budget, budget)
    }

    #[test]
    fn budget_too_small_is_rejected() {
        let data = series(&[vec![1.0; 8], vec![2.0; 8]]);
        let e = get_intervals(&[], &data, 4, 2, &cfg(4)).unwrap_err();
        assert!(matches!(e, SbrError::BudgetTooSmall { .. }));
    }

    #[test]
    fn respects_interval_budget_exactly() {
        let data = series(&[(0..64).map(|i| (i as f64).sin()).collect()]);
        let approx = get_intervals(&[], &data, 40, 8, &cfg(40)).unwrap();
        assert_eq!(approx.intervals.len(), 10);
        assert!(approx.cost() <= 40);
    }

    #[test]
    fn intervals_partition_the_batch() {
        let data = series(&[
            (0..32).map(|i| (i as f64 * 0.4).cos()).collect(),
            (0..32).map(|i| i as f64).collect(),
        ]);
        let approx = get_intervals(&[], &data, 48, 8, &cfg(48)).unwrap();
        let mut cursor = 0;
        for iv in &approx.intervals {
            assert_eq!(iv.start, cursor);
            cursor += iv.length;
        }
        assert_eq!(cursor, 64);
    }

    #[test]
    fn error_decreases_with_budget() {
        let y: Vec<f64> = (0..128)
            .map(|i| (i as f64 * 0.2).sin() + (i as f64 * 0.05).cos())
            .collect();
        let data = series(&[y]);
        let lo = get_intervals(&[], &data, 16, 11, &cfg(16)).unwrap();
        let hi = get_intervals(&[], &data, 64, 11, &cfg(64)).unwrap();
        assert!(hi.total_err <= lo.total_err);
    }

    #[test]
    fn exact_data_stops_splitting_early() {
        // A single straight line needs exactly one fall-back interval.
        let y: Vec<f64> = (0..64).map(|i| 2.0 * i as f64).collect();
        let data = series(&[y]);
        let approx = get_intervals(&[], &data, 400, 8, &cfg(400)).unwrap();
        assert_eq!(approx.intervals.len(), 1, "no splits needed on exact fit");
        assert!(approx.total_err < 1e-9);
    }

    #[test]
    fn error_target_stops_early() {
        let y: Vec<f64> = (0..128).map(|i| ((i * i) % 23) as f64).collect();
        let data = series(&[y]);
        let mut config = cfg(512);
        let full = get_intervals(&[], &data, 512, 11, &config).unwrap();
        config.error_target = Some(full.total_err * 100.0);
        let bounded = get_intervals(&[], &data, 512, 11, &config).unwrap();
        assert!(bounded.intervals.len() <= full.intervals.len());
        assert!(bounded.total_err <= full.total_err * 100.0);
    }

    #[test]
    fn length_one_intervals_freeze() {
        // Budget allows more intervals than there are samples: the loop must
        // terminate with all length-1 intervals.
        let data = series(&[vec![5.0, -1.0, 3.0, 9.0]]);
        let approx = get_intervals(&[], &data, 400, 2, &cfg(400)).unwrap();
        assert!(approx.intervals.len() <= 4);
        assert!(approx.total_err < 1e-18);
    }

    #[test]
    fn base_signal_beats_fallback_on_correlated_data() {
        // The data repeats an irregular pattern that a time-index line can't
        // track, but a base holding the pattern can.
        let pattern: Vec<f64> = vec![0.0, 5.0, -3.0, 8.0, 1.0, -6.0, 4.0, 2.0];
        let mut y = Vec::new();
        for rep in 0..8 {
            for &p in &pattern {
                y.push(p * (1.0 + rep as f64 * 0.1) + rep as f64);
            }
        }
        let data = series(&[y]);
        let with_base = get_intervals(&pattern, &data, 32, 8, &cfg(32)).unwrap();
        let without = get_intervals(&[], &data, 32, 8, &cfg(32)).unwrap();
        assert!(with_base.total_err < without.total_err / 10.0);
    }

    #[test]
    fn reconstruct_roundtrips_fallback_lines() {
        // Two rows that are exact lines reconstruct exactly from 2 records.
        let data = series(&[
            (0..16).map(|i| 2.0 * i as f64 + 1.0).collect(),
            (0..16).map(|i| -0.5 * i as f64 + 4.0).collect(),
        ]);
        let approx = get_intervals(&[], &data, 16, 5, &cfg(16)).unwrap();
        let recs: Vec<IntervalRecord> = approx.intervals.iter().map(|iv| iv.record()).collect();
        let rec = reconstruct_flat(&[], &recs, 32).unwrap();
        for (a, b) in rec.iter().zip(data.flat()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn reconstruct_rejects_bad_shift() {
        let recs = [IntervalRecord {
            start: 0,
            shift: 10,
            a: 1.0,
            b: 0.0,
        }];
        assert!(reconstruct_flat(&[0.0; 4], &recs, 8).is_err());
    }

    #[test]
    fn reconstruct_rejects_duplicate_starts() {
        let recs = [
            IntervalRecord {
                start: 3,
                shift: -1,
                a: 0.0,
                b: 0.0,
            },
            IntervalRecord {
                start: 3,
                shift: -1,
                a: 0.0,
                b: 1.0,
            },
        ];
        assert!(reconstruct_flat(&[], &recs, 8).is_err());
    }

    #[test]
    fn harder_signals_get_more_intervals() {
        // Row 0 is a straight line (one interval suffices); row 1 is a
        // dense zig-zag. The splitter must pour its budget into row 1.
        let easy: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let hard: Vec<f64> = (0..128).map(|i| ((i * 37) % 11) as f64 * 5.0).collect();
        let data = series(&[easy, hard]);
        let approx = get_intervals(&[], &data, 80, 16, &cfg(80)).unwrap();
        let per = approx.intervals_per_signal(2, 128);
        assert_eq!(per.iter().sum::<usize>(), approx.intervals.len());
        assert!(
            per[1] >= 5 * per[0].max(1),
            "allocation {per:?} not skewed to the hard signal"
        );
    }

    #[test]
    fn maxabs_metric_combines_with_max() {
        let y: Vec<f64> = (0..64).map(|i| ((i * 7) % 13) as f64).collect();
        let data = series(&[y]);
        let config = SbrConfig::new(32, 32).with_metric(ErrorMetric::MaxAbs);
        let approx = get_intervals(&[], &data, 32, 8, &config).unwrap();
        let worst = approx.intervals.iter().map(|iv| iv.err).fold(0.0, f64::max);
        assert_eq!(approx.total_err, worst);
    }
}
