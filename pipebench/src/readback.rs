//! Reading back what the station stored: reconstruction fidelity against
//! the generator's ground truth, station restart, and the range-query
//! client of `history_query` (a hot pool plus fresh ranges, cross-checked
//! against the full-decode path).

use std::path::Path;
use std::time::Instant;

use sbr_core::SbrError;
use sbr_obs::{FrameId, MetricsRecorder};
use sensor_net::base_station::RangeAggregate;
use sensor_net::{BaseStation, NodeId};

use crate::report::Outcome;
use crate::sim::{self, Rng};

/// Σ(x − x̂)² and Σx² over the chunks checked so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fidelity {
    /// Squared reconstruction error.
    pub sse: f64,
    /// Squared signal.
    pub energy: f64,
    /// Raw values covered.
    pub values: u64,
}

impl Fidelity {
    /// `sse / energy`.
    pub fn rel_sse(&self) -> f64 {
        if self.energy > 0.0 {
            self.sse / self.energy
        } else {
            0.0
        }
    }
}

/// Reconstruct every chunk `node` logged and check it against the
/// generator's ground truth: `truth` gives each flushed frame's chunk,
/// sample-major (`m` samples of `signals` values). Every chunk must
/// reconstruct, be a flushed frame and have the right shape; each chunk is
/// one attempted check in `out`. Chunks for which `scored` holds add to
/// `fid`.
pub fn score_node(
    station: &BaseStation,
    node: NodeId,
    signals: usize,
    truth: impl Fn(&FrameId, usize) -> Option<Vec<f64>>,
    scored: impl Fn(&FrameId) -> bool,
    fid: &mut Fidelity,
    out: &mut Outcome,
) {
    let n = station.chunk_count(node);
    let checked = station
        .frames(node)
        .and_then(|frames| Ok((frames, station.reconstruct_chunks(node, 0, n)?)));
    let (frames, chunks) = match checked {
        Ok(v) => v,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("sensor {node}: reconstruction failed: {e}"));
            return;
        }
    };
    for (frame, chunk) in frames.iter().zip(&chunks) {
        out.attempted += 1;
        let id = FrameId::new(node as u32, frame.epoch, frame.tx.seq);
        let m = frame.tx.samples_per_signal as usize;
        let Some(x) = truth(&id, m) else {
            out.fail(format!("frame {id}: logged but never flushed"));
            continue;
        };
        if x.len() != m * signals
            || chunk.len() != signals
            || chunk.iter().any(|row| row.len() != m)
        {
            out.fail(format!("frame {id}: reconstructed shape differs"));
            continue;
        }
        if !scored(&id) {
            continue;
        }
        for i in 0..m {
            for (s, row) in chunk.iter().enumerate() {
                let (x, y) = (x[i * signals + s], row[i]);
                fid.sse += (x - y) * (x - y);
                fid.energy += x * x;
            }
        }
        fid.values += (m * signals) as u64;
        if !fid.sse.is_finite() {
            out.fail(format!("frame {id}: non-finite reconstruction"));
        }
    }
}

/// Load the station stored under `dir` `loads` times (the previous one
/// dropped first each time); returns the last one and every load wall in
/// seconds. With a recorder, the last load counts its replayed records.
pub fn restart(
    dir: &Path,
    loads: usize,
    recorder: Option<&MetricsRecorder>,
) -> Result<(BaseStation, Vec<f64>), SbrError> {
    let mut walls = Vec::new();
    let mut last = None;
    for i in 0..loads.max(1) {
        drop(last.take());
        let start = Instant::now();
        let station = match recorder {
            Some(r) if i + 1 == loads.max(1) => BaseStation::load_with_recorder(dir, r)?,
            _ => BaseStation::load(dir)?,
        };
        walls.push(start.elapsed().as_secs_f64());
        last = Some(station);
    }
    Ok((last.expect("at least one load"), walls))
}

/// One range query: `signal` of `node` over samples `[t0, t1)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Key {
    /// Sensor.
    pub node: NodeId,
    /// Signal.
    pub signal: usize,
    /// First sample.
    pub t0: usize,
    /// One past the last sample.
    pub t1: usize,
}

/// What a query mix can range over: per sensor, its signal count and
/// samples per signal.
#[derive(Clone, Copy, Debug)]
pub struct Extent {
    /// Sensor.
    pub node: NodeId,
    /// Signals.
    pub signals: usize,
    /// Samples per signal.
    pub samples: usize,
}

/// Share of queries drawn from the hot pool.
pub const HOT_SHARE: f64 = 0.9;

/// A closed-loop client's query stream: `HOT_SHARE` of the queries revisit
/// a fixed hot pool (smaller than the station's per-sensor plan cache),
/// the rest are fresh random ranges. Range lengths are log-uniform from
/// one chunk to the sensor's whole history.
#[derive(Clone, Debug)]
pub struct QueryMix {
    extents: Vec<Extent>,
    chunk: usize,
    hot: Vec<Key>,
    rng: Rng,
}

impl QueryMix {
    /// A mix over `extents` with `hot_per_sensor` pooled keys per sensor.
    pub fn new(seed: u64, extents: Vec<Extent>, chunk: usize, hot_per_sensor: usize) -> Self {
        let mut mix = QueryMix {
            extents,
            chunk,
            hot: Vec::new(),
            rng: Rng::new(seed),
        };
        let pool = hot_per_sensor * mix.extents.len();
        mix.hot = (0..pool).map(|_| mix.fresh()).collect();
        mix
    }

    fn fresh(&mut self) -> Key {
        let e = self.extents[self.rng.below(self.extents.len())];
        let lo = self.chunk.min(e.samples).max(1) as f64;
        let hi = e.samples.max(1) as f64;
        let len = ((lo.ln() + self.rng.uniform() * (hi.ln() - lo.ln())).exp() as usize)
            .clamp(1, e.samples);
        let t0 = self.rng.below(e.samples - len + 1);
        Key {
            node: e.node,
            signal: self.rng.below(e.signals),
            t0,
            t1: t0 + len,
        }
    }

    /// The hot pool.
    pub fn hot(&self) -> &[Key] {
        &self.hot
    }

    /// The next query and whether it came from the hot pool.
    pub fn draw(&mut self) -> (Key, bool) {
        if self.rng.uniform() < HOT_SHARE {
            (self.hot[self.rng.below(self.hot.len())], true)
        } else {
            (self.fresh(), false)
        }
    }
}

/// Answers kept for the cross-check (every `CHECK_EVERY`-th query, up to
/// `CHECK_CAP` of them).
const CHECK_EVERY: u64 = 4099;
const CHECK_CAP: usize = 24;

/// Medians, over the passes of a query stream, of each pass's figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// Queries per second of pass wall.
    pub per_s: f64,
    /// Latency p50 of every query, microseconds.
    pub p50_us: f64,
    /// Latency p99 of every query, microseconds.
    pub p99_us: f64,
    /// Hot-pool latency p50, microseconds.
    pub hot_p50_us: f64,
    /// Hot-pool latency p99, microseconds.
    pub hot_p99_us: f64,
    /// Fresh-range latency p50, microseconds.
    pub cold_p50_us: f64,
    /// Fresh-range latency p99, microseconds.
    pub cold_p99_us: f64,
}

/// Latencies and sampled answers of a query stream, cut into passes of a
/// fixed number of queries. Each pass yields its own rate and latency
/// quantiles and the run reports their medians: a pass is long enough
/// for a p99 with well over ten samples beyond it, and the median across
/// passes shrugs off a pass that a noisy neighbour slowed.
#[derive(Clone, Debug, Default)]
pub struct QueryLog {
    hot_ns: Vec<u64>,
    cold_ns: Vec<u64>,
    passes: Vec<[f64; 7]>,
    /// Queries issued.
    pub calls: u64,
    /// Queries that returned an error.
    pub errors: u64,
    checks: Vec<(Key, RangeAggregate)>,
}

impl QueryLog {
    /// Record one answered query.
    pub fn record(
        &mut self,
        key: Key,
        hot: bool,
        ns: u64,
        answer: Result<RangeAggregate, SbrError>,
        out: &mut Outcome,
    ) {
        self.calls += 1;
        if hot {
            self.hot_ns.push(ns);
        } else {
            self.cold_ns.push(ns);
        }
        match answer {
            Ok(a) => {
                if self.calls % CHECK_EVERY == 1 && self.checks.len() < CHECK_CAP {
                    self.checks.push((key, a));
                }
            }
            Err(e) => {
                self.errors += 1;
                out.fail(format!("query {key:?} failed: {e}"));
            }
        }
    }

    /// Close the current pass, which took `wall_s` seconds.
    pub fn end_pass(&mut self, wall_s: f64) {
        let mut all = self.hot_ns.clone();
        all.extend_from_slice(&self.cold_ns);
        let us = |v: &mut Vec<u64>, q: f64| sim::quantile(v, q) / 1e3;
        self.passes.push([
            all.len() as f64 / wall_s,
            us(&mut all, 0.5),
            us(&mut all, 0.99),
            us(&mut self.hot_ns, 0.5),
            us(&mut self.hot_ns, 0.99),
            us(&mut self.cold_ns, 0.5),
            us(&mut self.cold_ns, 0.99),
        ]);
        self.hot_ns.clear();
        self.cold_ns.clear();
    }

    /// Per-pass medians.
    pub fn stats(&self) -> QueryStats {
        let col = |i: usize| sim::median(&self.passes.iter().map(|p| p[i]).collect::<Vec<_>>());
        QueryStats {
            per_s: col(0),
            p50_us: col(1),
            p99_us: col(2),
            hot_p50_us: col(3),
            hot_p99_us: col(4),
            cold_p50_us: col(5),
            cold_p99_us: col(6),
        }
    }

    /// Cross-check the sampled answers against
    /// `BaseStation::aggregate_range_decode`: counts equal, min/max
    /// bit-exact, sums within 1e-9 relative. Each sample is one attempted
    /// check in `out`.
    pub fn verify(&self, station: &BaseStation, out: &mut Outcome) {
        for (k, fast) in &self.checks {
            out.attempted += 1;
            match station.aggregate_range_decode(k.node, k.signal, k.t0, k.t1) {
                Ok(slow) => {
                    let sum_ok =
                        (fast.sum - slow.sum).abs() <= 1e-9 * slow.sum.abs().max(f64::MIN_POSITIVE);
                    if fast.count != slow.count
                        || fast.min.to_bits() != slow.min.to_bits()
                        || fast.max.to_bits() != slow.max.to_bits()
                        || !sum_ok
                    {
                        out.fail(format!(
                            "query {k:?}: index answer {fast:?} != decode answer {slow:?}"
                        ));
                    }
                }
                Err(e) => out.fail(format!("query {k:?}: decode cross-check failed: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_stays_in_bounds_and_repeats_hot_keys() {
        let extents = vec![
            Extent {
                node: 1,
                signals: 3,
                samples: 1000,
            },
            Extent {
                node: 2,
                signals: 2,
                samples: 64,
            },
        ];
        let mut mix = QueryMix::new(5, extents, 64, 16);
        let mut hot = 0;
        for _ in 0..10_000 {
            let (k, h) = mix.draw();
            let e = if k.node == 1 { 1000 } else { 64 };
            assert!(k.t0 < k.t1 && k.t1 <= e, "{k:?}");
            assert!(k.signal < if k.node == 1 { 3 } else { 2 });
            hot += usize::from(h);
        }
        assert!((8_500..9_500).contains(&hot), "{hot}");
    }

    #[test]
    fn pass_stats_are_medians_over_passes() {
        let mut log = QueryLog::default();
        let mut out = Outcome::new(crate::Workload::HistoryQuery);
        let key = Key {
            node: 1,
            signal: 0,
            t0: 0,
            t1: 1,
        };
        for (pass, ns) in [1_000u64, 3_000, 2_000].into_iter().enumerate() {
            for _ in 0..10 {
                log.record(
                    key,
                    true,
                    ns,
                    Err(SbrError::InconsistentState("x".into())),
                    &mut out,
                );
            }
            log.end_pass(1.0 + pass as f64);
        }
        let s = log.stats();
        assert_eq!(s.hot_p50_us, 2.0);
        assert_eq!(s.per_s, 5.0);
        assert_eq!((log.calls, log.errors, out.failed), (30, 30, 30));
    }
}
