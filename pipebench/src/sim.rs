//! The generator's machinery shared by every workload: a seeded RNG, the
//! seeded sensor feeds, the radio and environment (the repository's own
//! `Topology`, `LossyLink` and `FaultPlan`) driving the same ARQ round as
//! `Network::simulate`, and small measurement helpers.

use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use sbr_core::{codec, SbrError};
use sbr_obs::FrameId;
use sensor_net::{BaseStation, FaultPlan, LossyLink, NodeId, Receipt, SensorNode, Topology};

use crate::trace::{Layer, Tracer};

/// SplitMix64: tiny, seedable, and good enough to draw workloads from.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An independent sub-seed of `seed` for stream `tag`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// What a sensor measures.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// `n` tickers of the synthetic stock feed.
    Stock(usize),
    /// The first `n` quantities of the synthetic weather feed.
    Weather(usize),
}

impl Source {
    /// Signals per sample.
    pub fn signals(self) -> usize {
        match self {
            Source::Stock(n) | Source::Weather(n) => n,
        }
    }

    /// `len` samples of this feed, sample-major (`out[t * n + s]`), so a
    /// sample is a contiguous slice that `SensorNode::record` takes as is.
    pub(crate) fn samples(self, seed: u64, len: usize) -> Vec<f64> {
        let rows = match self {
            Source::Stock(n) => sbr_datasets::stock(seed, n, len).signals,
            Source::Weather(n) => {
                let mut rows = sbr_datasets::weather(seed, len).signals;
                rows.truncate(n);
                rows
            }
        };
        let n = rows.len();
        let mut out = vec![0.0; len * n];
        for (s, row) in rows.iter().enumerate() {
            for (t, &v) in row.iter().enumerate() {
                out[t * n + s] = v;
            }
        }
        out
    }
}

/// Seed of the recordings the sensor slots play.
const CORPUS_SEED: u64 = 0x5eed_c0de;

/// A fixed recording that one sensor slot plays in an endless loop.
///
/// The recording is the same for every run seed; the seed only picks the
/// chunk each sensor starts at, alongside the faults and the queries it
/// draws. Fresh data per
/// seed would make fidelity and encode cost swing with the realisation —
/// the stock feed's volatility clustering moves Σ(x − x̂)²/Σx² by more
/// than half between seeds — so run-to-run spread would measure the data,
/// not the program.
#[derive(Debug)]
pub struct Corpus {
    data: Vec<f64>,
    signals: usize,
    samples: u64,
}

impl Corpus {
    /// `samples` samples of `source` for sensor slot `slot`.
    pub fn new(source: Source, slot: u64, samples: usize) -> Self {
        Corpus {
            data: source.samples(derive(CORPUS_SEED, slot), samples),
            signals: source.signals(),
            samples: samples as u64,
        }
    }

    /// Signals per sample.
    pub fn signals(&self) -> usize {
        self.signals
    }

    /// Sample `t` of the loop.
    pub fn sample(&self, t: u64) -> &[f64] {
        let i = (t % self.samples) as usize * self.signals;
        &self.data[i..i + self.signals]
    }

    /// The sample where run `seed` starts slot `slot`: a multiple of
    /// `chunk`, so every seed cuts the recording into the same chunks and
    /// only their order (and the faults and queries) changes.
    pub fn start(&self, seed: u64, slot: u64, chunk: usize) -> u64 {
        let chunk = chunk.max(1) as u64;
        derive(seed, slot ^ 0x57a7) % (self.samples / chunk).max(1) * chunk
    }
}

/// How the station classified one arrival. Gaps and corrupt frames are
/// the protocol working, not failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Applied and logged.
    Accepted,
    /// Already applied; discarded.
    Duplicate,
    /// Re-anchored the stream at a new epoch.
    Resynced,
    /// Rejected: a predecessor is missing.
    Gap,
    /// Rejected: CRC or parse failure.
    Corrupt,
}

impl Verdict {
    /// Classify a `receive_frame` result; any other error propagates.
    pub fn of(r: Result<Receipt, SbrError>) -> Result<Verdict, SbrError> {
        match r {
            Ok(Receipt::Accepted) => Ok(Verdict::Accepted),
            Ok(Receipt::Duplicate) => Ok(Verdict::Duplicate),
            Ok(Receipt::Resynced) => Ok(Verdict::Resynced),
            Err(SbrError::Gap { .. }) => Ok(Verdict::Gap),
            Err(SbrError::Corrupt(_)) => Ok(Verdict::Corrupt),
            Err(e) => Err(e),
        }
    }

    /// Whether the frame was applied and logged.
    pub fn applied(self) -> bool {
        matches!(self, Verdict::Accepted | Verdict::Resynced)
    }
}

/// Receipt tally by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Receipts {
    /// In-sequence frames applied.
    pub accepted: u64,
    /// Duplicates discarded.
    pub duplicate: u64,
    /// Resync frames applied.
    pub resynced: u64,
    /// Gap rejections.
    pub gap: u64,
    /// Corrupt rejections.
    pub corrupt: u64,
}

impl Receipts {
    /// Count one verdict.
    pub fn add(&mut self, v: Verdict) {
        match v {
            Verdict::Accepted => self.accepted += 1,
            Verdict::Duplicate => self.duplicate += 1,
            Verdict::Resynced => self.resynced += 1,
            Verdict::Gap => self.gap += 1,
            Verdict::Corrupt => self.corrupt += 1,
        }
    }
}

/// Wire and ARQ accounting of one live run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArqStats {
    /// Frame transmissions attempted end to end (retransmissions included).
    pub frames_sent: u64,
    /// Per-hop attempts, frames and ACKs.
    pub hop_attempts: u64,
    /// Bytes of every hop attempt of every frame and ACK.
    pub wire_bytes: u64,
    /// Deepest retransmission queue seen.
    pub max_retx_depth: u64,
    /// Station verdicts.
    pub receipts: Receipts,
}

/// Size charged for one ACK on the air: `LossyLink::ack_values` values of
/// 8 bytes, for the per-hop and the cumulative ACK alike.
pub const ACK_BYTES: u64 = 8;

/// One sensor's path to the base station: the per-hop link, the
/// end-to-end fault plan and the route length on the topology.
#[derive(Debug)]
pub struct Radio {
    /// Per-hop stop-and-wait link.
    pub link: LossyLink,
    /// End-to-end faults and the crash schedule.
    pub plan: FaultPlan,
    /// Hops from the sensor to the base.
    pub hops: usize,
}

impl Radio {
    /// The path of `node` on `topology`.
    pub fn new(topology: &Topology, node: NodeId, link: LossyLink, plan: FaultPlan) -> Self {
        Radio {
            link,
            plan,
            hops: topology.hops(node),
        }
    }

    /// Push a `len`-byte frame up every hop; false when a hop gave up.
    fn up(&mut self, t: &mut Tracer, frame: FrameId, len: u64, stats: &mut ArqStats) -> bool {
        for _ in 0..self.hops {
            let link = &mut self.link;
            let out = t.span(Layer::LinkHop, Some(frame), |_| link.hop());
            let attempts = u64::from(out.attempts);
            stats.hop_attempts += attempts;
            stats.wire_bytes += attempts * len;
            t.bytes(Layer::LinkHop, attempts * len, 0);
            if !out.delivered {
                return false;
            }
            stats.wire_bytes += ACK_BYTES;
        }
        true
    }

    /// Carry the cumulative ACK down every hop; false when a hop gave up.
    fn down(&mut self, t: &mut Tracer, stats: &mut ArqStats) -> bool {
        for _ in 0..self.hops {
            let link = &mut self.link;
            let out = t.span(Layer::LinkHop, None, |_| link.hop());
            let attempts = u64::from(out.attempts);
            stats.hop_attempts += attempts;
            stats.wire_bytes += attempts * ACK_BYTES;
            if !out.delivered {
                return false;
            }
        }
        true
    }
}

/// One frame reaching the station.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Sender.
    pub node: NodeId,
    /// The bytes as they arrived (possibly corrupted).
    pub bytes: Bytes,
    /// The station's verdict.
    pub verdict: Verdict,
    /// When `receive_frame` returned.
    pub at: Instant,
}

/// Hand one arrival to the station inside a `station.receive` span.
pub fn deliver(
    t: &mut Tracer,
    station: &BaseStation,
    node: NodeId,
    bytes: Bytes,
    stats: &mut ArqStats,
    arrivals: &mut Vec<Arrival>,
) -> Result<(), SbrError> {
    let frame = codec::peek_v2_identity(&bytes)
        .map(|(_, epoch, seq)| FrameId::new(node as u32, epoch, seq));
    let len = bytes.len() as u64;
    let copy = bytes.clone();
    let verdict = t.span(Layer::StationReceive, frame, |_| {
        Verdict::of(station.receive_frame(node, copy))
    })?;
    let at = Instant::now();
    t.bytes(
        Layer::StationReceive,
        len,
        if verdict.applied() { len } else { 0 },
    );
    stats.receipts.add(verdict);
    arrivals.push(Arrival {
        node,
        bytes,
        verdict,
        at,
    });
    Ok(())
}

/// One ARQ round for `sensor`, as `Network::simulate` runs it: retransmit
/// every pending frame in order (each up every hop, then through the
/// fault channel, then into `receive_frame`), then carry one cumulative
/// ACK down the route and apply `ack(station.epoch, station.next_seq)`.
pub fn arq_round(
    t: &mut Tracer,
    sensor: &mut SensorNode,
    radio: &mut Radio,
    station: &BaseStation,
    stats: &mut ArqStats,
    arrivals: &mut Vec<Arrival>,
) -> Result<(), SbrError> {
    let node = sensor.id();
    let pending: Vec<(FrameId, Bytes)> = sensor
        .pending()
        .map(|p| (FrameId::new(node as u32, p.epoch, p.seq), p.bytes.clone()))
        .collect();
    for (frame, bytes) in pending {
        stats.frames_sent += 1;
        if !radio.up(t, frame, bytes.len() as u64, stats) {
            continue;
        }
        let plan = &mut radio.plan;
        let out = t.span(Layer::LinkChannel, Some(frame), |_| plan.channel(&bytes));
        let out_bytes: usize = out.iter().map(Bytes::len).sum();
        t.bytes(Layer::LinkChannel, bytes.len() as u64, out_bytes as u64);
        for arrival in out {
            deliver(t, station, node, arrival, stats, arrivals)?;
        }
    }
    if radio.down(t, stats) {
        t.span(Layer::LinkAck, None, |_| {
            sensor.ack(station.epoch(node), station.next_seq(node));
        });
    }
    stats.max_retx_depth = stats.max_retx_depth.max(sensor.pending_depth() as u64);
    Ok(())
}

/// Drain rounds after the feed ends, then release any frame the channel
/// still holds.
pub fn drain(
    t: &mut Tracer,
    sensor: &mut SensorNode,
    radio: &mut Radio,
    station: &BaseStation,
    stats: &mut ArqStats,
    arrivals: &mut Vec<Arrival>,
) -> Result<(), SbrError> {
    /// Rounds of pure retransmission before the rest counts as lost (the
    /// same bound `Network::simulate` uses).
    const DRAIN_ROUNDS: usize = 64;
    for _ in 0..DRAIN_ROUNDS {
        if sensor.pending_depth() == 0 {
            break;
        }
        arq_round(t, sensor, radio, station, stats, arrivals)?;
    }
    let plan = &mut radio.plan;
    for leftover in t.span(Layer::LinkChannel, None, |_| plan.drain()) {
        deliver(t, station, sensor.id(), leftover, stats, arrivals)?;
    }
    Ok(())
}

/// A quantile of `values` (sorted in place): the mean of the order
/// statistics within ±0.5 percentage points of rank `q`, so the figure
/// keeps its digits and does not jump between neighbouring samples.
pub fn quantile(values: &mut [u64], q: f64) -> f64 {
    rank_band(values, (q - 0.005).max(0.0), q + 0.005)
}

/// The mean of the order statistics of `values` (sorted in place) whose
/// rank lies in `[lo, hi)`. Frame latencies use the bands `[0.45, 0.55)`
/// for p50 and `[0.98, 1.0)` for p99: a fleet's frames form one latency
/// mode per sensor, and a narrow window at the median would sit on the
/// edge between two modes.
pub fn rank_band(values: &mut [u64], lo: f64, hi: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let n = values.len();
    let a = ((lo * n as f64).floor() as usize).min(n - 1);
    let b = ((hi * n as f64).ceil() as usize).clamp(a + 1, n);
    let band = &values[a..b];
    band.iter().map(|&v| v as f64).sum::<f64>() / band.len() as f64
}

/// Frame-latency p50 and p99 in milliseconds (see [`rank_band`]).
pub fn frame_latency_ms(ns: &mut [u64]) -> (f64, f64) {
    (
        rank_band(ns, 0.45, 0.55) / 1e6,
        rank_band(ns, 0.98, 1.0) / 1e6,
    )
}

/// The median of `values` (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_window_averages_neighbours() {
        let mut v: Vec<u64> = (1..=1000).collect();
        let p50 = quantile(&mut v, 0.5);
        assert!((p50 - 500.5).abs() < 1.0, "{p50}");
        let mut small = vec![5u64, 1, 3];
        assert_eq!(quantile(&mut small, 0.5), 3.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(3).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(derive(1, 2), derive(2, 2));
        assert_ne!(derive(1, 2), derive(1, 3));
    }

    #[test]
    fn samples_are_sample_major() {
        let s = Source::Weather(2).samples(4, 8);
        let rows = sbr_datasets::weather(4, 8).signals;
        assert_eq!(s.len(), 16);
        assert_eq!(s[3 * 2 + 1], rows[1][3]);
    }

    #[test]
    fn corpus_loops_and_starts_by_seed() {
        let c = Corpus::new(Source::Stock(3), 1, 10);
        assert_eq!(c.sample(2), c.sample(12));
        assert_eq!(c.sample(0).len(), 3);
        assert!(c.start(1, 1, 2) < 10);
        assert!((0..8).all(|seed| c.start(seed, 1, 2).is_multiple_of(2)));
        let starts: Vec<u64> = (0..8).map(|seed| c.start(seed, 1, 2)).collect();
        assert!(starts.windows(2).any(|w| w[0] != w[1]));
    }
}
