//! The network driver: feed every sensor its measurement stream, route each
//! flushed batch up the tree, charge radio energy (including overhearing),
//! and score reconstruction fidelity at the base station.
//!
//! Three dissemination strategies are compared, mirroring the introduction
//! of the paper: sending the **raw** feed, classic per-batch **aggregation**
//! (average/min/max), and **SBR** approximation.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use sbr_core::{codec, ErrorMetric, SbrConfig, SbrError};
use sbr_obs::{Counter, EventKind, FrameId, Gauge, Histogram, Recorder};

use crate::base_station::{BaseStation, Receipt};
use crate::energy::{EnergyLedger, EnergyModel};
use crate::fault::FaultPlan;
use crate::link::LossyLink;
use crate::node::SensorNode;
use crate::topology::Topology;
use crate::NodeId;

/// Observability handles for one network (see `sbr-obs`). All handles are
/// no-ops until [`Network::set_recorder`] is called; the disabled cost is
/// one branch per event, so the hooks stay unconditionally wired in.
///
/// Metric names follow the `crate.module.name` convention:
///
/// | name | kind | meaning |
/// |------|------|---------|
/// | `sensor_net.node.<i>.tx_values` | counter | values node `i` transmitted (incl. ARQ retries and ACKs) |
/// | `sensor_net.node.<i>.rx_values` | counter | values node `i` received as the addressed parent |
/// | `sensor_net.node.<i>.energy_total` | gauge | node `i`'s ledger total after the run |
/// | `sensor_net.link.hop_attempts` | counter | per-hop transmission attempts |
/// | `sensor_net.link.drops` | counter | frames dropped after exhausting per-hop retries |
/// | `sensor_net.network.values_sent` | counter | values injected at the sensors |
/// | `sensor_net.energy.{tx,rx,overhear,idle,cpu}` | gauge | network-wide ledger deltas by category |
/// | `sensor_net.recovery.gaps` | counter | frames the station rejected for a missing predecessor |
/// | `sensor_net.recovery.resyncs` | counter | resync frames accepted (stream re-anchored) |
/// | `sensor_net.recovery.duplicates` | counter | retransmitted/duplicated frames discarded |
/// | `sensor_net.recovery.corrupt` | counter | frames failing CRC or parse at the station |
/// | `sensor_net.recovery.retx_overflows` | counter | sensor retransmission-buffer overflows |
/// | `sensor_net.recovery.acks` | counter | cumulative ACK rounds sent by the base |
/// | `sensor_net.recovery.retx_depth` | gauge | retransmission-queue depth after the latest ACK |
/// | `sensor_net.recovery.retx_depth_per_round` | histogram | retransmission-queue depth sampled every ARQ round |
/// | `sensor_net.recovery.ack_rtt_rounds` | histogram | ARQ rounds between a frame's first tx and its ACK |
/// | `sensor_net.station.decode_batch_ns` | histogram | station time decoding one round's arrivals |
///
/// With a recorder attached, every v2 frame also gets per-frame
/// lifecycle events (`encoded`, `queued`, `tx`, `retx`, `dropped`, `dup`,
/// `corrupt`, `acked`, `decoded`, `persisted`, `resynced`), written to the
/// recorder's trace sink as `sensor_net.timeline.<kind>` events
/// ([`sbr_obs::frame_event`]) so `sbr trace` can filter them by frame,
/// node or kind. The sensors write `encoded` and `queued` through their
/// encoder's recorder, which is this one.
#[derive(Debug, Clone, Default)]
struct NetObs {
    recorder: Option<Arc<dyn Recorder>>,
    node_tx: Vec<Counter>,
    node_rx: Vec<Counter>,
    node_energy: Vec<Gauge>,
    hop_attempts: Counter,
    drops: Counter,
    values_sent: Counter,
    energy_tx: Gauge,
    energy_rx: Gauge,
    energy_overhear: Gauge,
    energy_idle: Gauge,
    energy_cpu: Gauge,
    recovery_gaps: Counter,
    recovery_resyncs: Counter,
    recovery_duplicates: Counter,
    recovery_corrupt: Counter,
    recovery_retx_overflows: Counter,
    recovery_acks: Counter,
    retx_depth: Gauge,
    retx_depth_hist: Histogram,
    ack_rtt_rounds: Histogram,
    decode_batch_ns: Histogram,
}

impl NetObs {
    fn new(recorder: Arc<dyn Recorder>, nodes: usize) -> Self {
        let c = |name: String| recorder.counter(&name);
        let g = |name: String| recorder.gauge(&name);
        NetObs {
            recorder: Some(recorder.clone()),
            node_tx: (0..nodes)
                .map(|i| c(format!("sensor_net.node.{i}.tx_values")))
                .collect(),
            node_rx: (0..nodes)
                .map(|i| c(format!("sensor_net.node.{i}.rx_values")))
                .collect(),
            node_energy: (0..nodes)
                .map(|i| g(format!("sensor_net.node.{i}.energy_total")))
                .collect(),
            hop_attempts: c("sensor_net.link.hop_attempts".into()),
            drops: c("sensor_net.link.drops".into()),
            values_sent: c("sensor_net.network.values_sent".into()),
            energy_tx: g("sensor_net.energy.tx".into()),
            energy_rx: g("sensor_net.energy.rx".into()),
            energy_overhear: g("sensor_net.energy.overhear".into()),
            energy_idle: g("sensor_net.energy.idle".into()),
            energy_cpu: g("sensor_net.energy.cpu".into()),
            recovery_gaps: c("sensor_net.recovery.gaps".into()),
            recovery_resyncs: c("sensor_net.recovery.resyncs".into()),
            recovery_duplicates: c("sensor_net.recovery.duplicates".into()),
            recovery_corrupt: c("sensor_net.recovery.corrupt".into()),
            recovery_retx_overflows: c("sensor_net.recovery.retx_overflows".into()),
            recovery_acks: c("sensor_net.recovery.acks".into()),
            retx_depth: g("sensor_net.recovery.retx_depth".into()),
            retx_depth_hist: recorder.histogram("sensor_net.recovery.retx_depth_per_round"),
            ack_rtt_rounds: recorder.histogram("sensor_net.recovery.ack_rtt_rounds"),
            decode_batch_ns: recorder.histogram("sensor_net.station.decode_batch_ns"),
        }
    }

    /// Write one lifecycle event for `frame` to the recorder's trace sink
    /// (`sensor_net.timeline.<kind>`) so `sbr trace` filters can replay it
    /// from the log. One branch when no recorder is attached.
    fn frame_event(&self, frame: FrameId, kind: EventKind, value: u64) {
        if let Some(rec) = &self.recorder {
            sbr_obs::frame_event(rec.as_ref(), frame, kind, value);
        }
    }

    /// Count `values` transmitted by `node` (no-op without a recorder —
    /// the per-node vectors are empty then).
    #[inline]
    fn tx(&self, node: NodeId, values: u64) {
        if let Some(c) = self.node_tx.get(node) {
            c.add(values);
        }
    }

    /// Count `values` received by `node` as the addressed recipient.
    #[inline]
    fn rx(&self, node: NodeId, values: u64) {
        if let Some(c) = self.node_rx.get(node) {
            c.add(values);
        }
    }

    /// Publish the per-node and network-wide ledger state as gauges.
    fn set_energy_gauges(&self, ledgers: &[EnergyLedger]) {
        if self.recorder.is_none() {
            return;
        }
        let (mut tx, mut rx, mut oh, mut idle, mut cpu) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for (ledger, gauge) in ledgers.iter().zip(&self.node_energy) {
            gauge.set(ledger.total());
            tx += ledger.tx;
            rx += ledger.rx;
            oh += ledger.overhear;
            idle += ledger.idle;
            cpu += ledger.cpu;
        }
        self.energy_tx.set(tx);
        self.energy_rx.set(rx);
        self.energy_overhear.set(oh);
        self.energy_idle.set(idle);
        self.energy_cpu.set(cpu);
    }
}

/// Per-sensor ARQ bookkeeping for frame-lifecycle attribution: which
/// round each in-flight frame first flew and how many attempts it has
/// cost, keyed by `(epoch, seq)`. Only maintained when a recorder is
/// attached (`enabled`), so unobserved runs skip the map traffic
/// entirely.
#[derive(Debug, Default)]
struct ArqTrace {
    enabled: bool,
    round: u64,
    attempts: BTreeMap<(u32, u64), u64>,
    first_round: BTreeMap<(u32, u64), u64>,
}

impl ArqTrace {
    fn new(enabled: bool) -> Self {
        ArqTrace {
            enabled,
            ..ArqTrace::default()
        }
    }
}

/// Dissemination strategy for a simulation run.
// A Strategy is built once per simulation and cloned once per node, so the
// size spread against the unit variants (SbrConfig carries its obs handle
// block) costs nothing worth an indirection on every config access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Transmit every raw value (lossless, maximally expensive).
    Raw,
    /// Per-batch aggregation: each signal is reduced to its average,
    /// minimum and maximum per window of `window` samples.
    Aggregate {
        /// Aggregation window in samples.
        window: usize,
    },
    /// SBR approximation under the given configuration, delivered with
    /// the loss-tolerant v2 protocol: sensors keep un-ACKed frames in a
    /// bounded retransmission buffer, the base sends cumulative ACKs back
    /// down the tree, and unrecoverable loss (buffer overflow, node
    /// reboot) degrades gracefully through epoch-bumping resync frames
    /// instead of wedging the stream. Every hop attempt is billed
    /// [`sbr_core::Frame::cost`] values, the paper's unit, so the radio
    /// cost is comparable with [`Strategy::Raw`] and
    /// [`Strategy::Aggregate`]. Combine with [`Network::set_fault_plan`]
    /// for seeded chaos runs.
    Sbr(SbrConfig),
}

impl Strategy {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Raw => "raw",
            Strategy::Aggregate { .. } => "aggregate",
            Strategy::Sbr(_) => "sbr",
        }
    }
}

/// What the ARQ/resync machinery did during one [`Strategy::Sbr`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Frame transmissions attempted end-to-end (includes retransmissions).
    pub frames_sent: u64,
    /// Frames the station accepted and logged (data + resync).
    pub frames_delivered: u64,
    /// Frames the station discarded as already-applied duplicates.
    pub duplicates_discarded: u64,
    /// Frames the station rejected because a predecessor was missing.
    pub gaps_detected: u64,
    /// Frames the station rejected as corrupt (CRC or parse failure).
    pub corrupt_rejected: u64,
    /// Resync frames accepted — each one re-anchored a sensor's stream.
    pub resyncs: u64,
    /// Sensor retransmission-buffer overflows (each forced a resync).
    pub retx_overflows: u64,
    /// Deepest retransmission queue observed on any sensor.
    pub max_retx_depth: usize,
    /// Scheduled node crashes that fired.
    pub crashes: u64,
    /// Cumulative ACK rounds the base sent back down the tree.
    pub acks_sent: u64,
    /// Chunks the sensors flushed (ground-truth count).
    pub chunks_flushed: usize,
    /// Chunks that made it into the station's logs.
    pub chunks_delivered: usize,
}

impl RecoveryStats {
    /// Fraction of flushed chunks that reached the station's logs.
    pub fn delivered_fraction(&self) -> f64 {
        if self.chunks_flushed == 0 {
            1.0
        } else {
            self.chunks_delivered as f64 / self.chunks_flushed as f64
        }
    }
}

/// Outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Strategy label.
    pub strategy: &'static str,
    /// Per-node energy ledgers (index = node id; 0 is the base).
    pub ledgers: Vec<EnergyLedger>,
    /// Values injected at the sensors (before relaying). SBR counts each
    /// flushed frame once, at its [`sbr_core::Frame::cost`];
    /// retransmissions show up only in the ledgers and `hop_attempts`.
    pub values_sent: usize,
    /// Raw values measured across all sensors.
    pub raw_values: usize,
    /// Sum squared reconstruction error at the base station.
    pub sse: f64,
    /// Per-hop transmission attempts (> frames when the link is lossy).
    pub hop_attempts: u64,
    /// Batches dropped after exhausting per-hop retransmissions.
    pub batches_lost: usize,
    /// ARQ/resync statistics — `Some` only for [`Strategy::Sbr`] runs.
    pub recovery: Option<RecoveryStats>,
}

impl RunReport {
    /// Total energy across the network.
    pub fn total_energy(&self) -> f64 {
        self.ledgers.iter().map(EnergyLedger::total).sum()
    }

    /// Achieved data reduction (transmitted / measured).
    pub fn compression_ratio(&self) -> f64 {
        self.values_sent as f64 / self.raw_values as f64
    }
}

/// A simulated network: topology + energy model + base station.
#[derive(Debug)]
pub struct Network {
    topology: Topology,
    model: EnergyModel,
    ledgers: Vec<EnergyLedger>,
    station: BaseStation,
    link: LossyLink,
    fault_plan: Option<FaultPlan>,
    hop_attempts: u64,
    batches_lost: usize,
    obs: NetObs,
}

impl Network {
    /// Assemble a network over `topology` with the given energy model.
    pub fn new(topology: Topology, model: EnergyModel) -> Self {
        let n = topology.len();
        Network {
            topology,
            model,
            ledgers: vec![EnergyLedger::default(); n],
            station: BaseStation::new(),
            link: LossyLink::reliable(),
            fault_plan: None,
            hop_attempts: 0,
            batches_lost: 0,
            obs: NetObs::default(),
        }
    }

    /// Replace the (default, reliable) link with a lossy one.
    pub fn set_link(&mut self, link: LossyLink) {
        self.link = link;
    }

    /// Install a seeded end-to-end fault schedule for the next
    /// [`Strategy::Sbr`] run (drops, duplicates, reordering, bit
    /// corruption, scheduled crashes). Consumed by that run; other
    /// strategies ignore it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Attach a metrics/trace recorder. Per-node radio counters
    /// (`sensor_net.node.<i>.tx_values` / `rx_values`), link counters and
    /// energy gauges are registered immediately; SBR runs additionally
    /// thread the recorder into each sensor's encoder so the
    /// `sbr_core.*` pipeline metrics land in the same snapshot.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.obs = NetObs::new(recorder.clone(), self.topology.len());
        // The station records query/storage counters on the same sink.
        let station = std::mem::take(&mut self.station);
        self.station = station.with_recorder(recorder.as_ref());
    }

    /// Persist the base station's per-sensor logs as segmented stores
    /// under `dir` (see [`crate::storage`]): every accepted frame is
    /// durably appended during the run, and
    /// [`BaseStation::load`] rebuilds the station afterwards. Replaces
    /// the station, so call before any `simulate`.
    pub fn set_store_dir(
        &mut self,
        dir: impl Into<std::path::PathBuf>,
        segment_bytes: Option<u64>,
    ) {
        let mut station = BaseStation::with_persistence(dir);
        if let Some(bytes) = segment_bytes {
            station = station.with_segment_size(bytes);
        }
        if let Some(recorder) = self.obs.recorder.clone() {
            station = station.with_recorder(recorder.as_ref());
        }
        self.station = station;
    }

    /// The base station (for queries after a run).
    pub fn station(&self) -> &BaseStation {
        &self.station
    }

    /// Charge one hop of `values` values sent by `sender` and addressed
    /// to `to` (`None`: no node is addressed): draw the link outcome, then
    /// for every attempt bill tx to the sender, rx to the addressee, and
    /// overhearing to every other node in the sender's range (broadcast,
    /// §3.1). Returns whether the hop delivered.
    fn charge_hop(&mut self, sender: NodeId, to: Option<NodeId>, values: usize) -> bool {
        let outcome = self.link.hop();
        self.hop_attempts += u64::from(outcome.attempts);
        self.obs.hop_attempts.add(u64::from(outcome.attempts));
        for _ in 0..outcome.attempts {
            self.ledgers[sender].charge_tx(&self.model, values);
            self.obs.tx(sender, values as u64);
            for nb in self.topology.neighbors(sender) {
                if Some(nb) == to {
                    self.ledgers[nb].charge_rx(&self.model, values);
                    self.obs.rx(nb, values as u64);
                } else {
                    self.ledgers[nb].charge_overhear(&self.model, values);
                }
            }
        }
        outcome.delivered
    }

    /// Charge the radio costs of moving `values` values from `from` to the
    /// base, one [`Network::charge_hop`] per hop, and the stop-and-wait
    /// ACK each receiving parent sends back. Returns `false` when a hop
    /// exhausted its retransmissions and the frame was dropped.
    fn charge_route(&mut self, from: NodeId, values: usize) -> bool {
        let mut sender = from;
        loop {
            let parent = self.topology.parent(sender);
            let delivered = self.charge_hop(sender, parent, values);
            let Some(parent) = parent else {
                break; // reached only if from == 0
            };
            if !delivered {
                self.batches_lost += 1;
                self.obs.drops.inc();
                if let Some(rec) = &self.obs.recorder {
                    rec.emit(
                        "sensor_net.link.drop",
                        None,
                        &[
                            ("node", &sender.to_string()),
                            ("values", &values.to_string()),
                        ],
                    );
                }
                return false;
            }
            // Stop-and-wait ACK from the parent.
            self.ledgers[parent].charge_tx(&self.model, self.link.ack_values);
            self.obs.tx(parent, self.link.ack_values as u64);
            self.ledgers[sender].charge_rx(&self.model, self.link.ack_values);
            self.obs.rx(sender, self.link.ack_values as u64);
            sender = parent;
            if sender == 0 {
                break;
            }
        }
        true
    }

    /// Charge (and simulate) a cumulative ACK frame travelling from the
    /// base back down to `to`, one [`Network::charge_hop`] per hop.
    /// Returns `false` if a hop exhausted its attempts — the sensor then
    /// keeps retransmitting and the station answers the duplicates with
    /// the next ACK.
    fn charge_ack_route(&mut self, to: NodeId) -> bool {
        let mut chain = Vec::new();
        let mut child = to;
        while let Some(parent) = self.topology.parent(child) {
            chain.push((parent, child));
            if parent == 0 {
                break;
            }
            child = parent;
        }
        for (parent, child) in chain.into_iter().rev() {
            if !self.charge_hop(parent, Some(child), self.link.ack_values) {
                return false;
            }
        }
        true
    }

    /// Hand one arrived frame to the station and fold the verdict into the
    /// recovery statistics. Only genuinely unexpected errors propagate —
    /// gaps, duplicates and corruption are the protocol working as
    /// designed.
    fn deliver(
        &mut self,
        node: NodeId,
        frame: Bytes,
        stats: &mut RecoveryStats,
    ) -> Result<(), SbrError> {
        // Trace identity comes from a header peek, not the full decode: a
        // bit-flipped frame should still be attributable (with whatever
        // garbled identity it now claims) when the station rejects it.
        let id = self
            .obs
            .recorder
            .is_some()
            .then(|| codec::peek_v2_identity(&frame))
            .flatten()
            .map(|(_, epoch, seq)| FrameId::new(node as u32, epoch, seq));
        match self.station.receive_frame(node, frame) {
            Ok(Receipt::Accepted) => {
                stats.frames_delivered += 1;
                if let Some(id) = id {
                    self.obs.frame_event(id, EventKind::Decoded, 0);
                    self.obs.frame_event(id, EventKind::Persisted, 0);
                }
            }
            Ok(Receipt::Resynced) => {
                stats.frames_delivered += 1;
                stats.resyncs += 1;
                self.obs.recovery_resyncs.inc();
                if let Some(id) = id {
                    self.obs.frame_event(id, EventKind::Decoded, 0);
                    self.obs.frame_event(id, EventKind::Resynced, 0);
                    self.obs.frame_event(id, EventKind::Persisted, 0);
                }
            }
            Ok(Receipt::Duplicate) => {
                stats.duplicates_discarded += 1;
                self.obs.recovery_duplicates.inc();
                if let Some(id) = id {
                    self.obs.frame_event(id, EventKind::Dup, 0);
                }
            }
            Err(SbrError::Gap { .. }) => {
                stats.gaps_detected += 1;
                self.obs.recovery_gaps.inc();
                // `dropped` with value 1: rejected at the station for a
                // missing predecessor (value 0 = dropped on the link).
                if let Some(id) = id {
                    self.obs.frame_event(id, EventKind::Dropped, 1);
                }
            }
            Err(SbrError::Corrupt(_)) => {
                stats.corrupt_rejected += 1;
                self.obs.recovery_corrupt.inc();
                if let Some(id) = id {
                    self.obs.frame_event(id, EventKind::Corrupt, 0);
                }
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// One ARQ round for `sensor`: retransmit everything still pending (in
    /// order, so a healed channel repairs gaps by itself), push each
    /// delivery through the end-to-end fault schedule, then send one
    /// cumulative ACK back down the tree.
    fn arq_round(
        &mut self,
        sensor: &mut SensorNode,
        plan: &mut FaultPlan,
        stats: &mut RecoveryStats,
        trace: &mut ArqTrace,
    ) -> Result<(), SbrError> {
        let node = sensor.id();
        trace.round += 1;
        let pending: Vec<(u32, u64, usize, Bytes)> = sensor
            .pending()
            .map(|p| (p.epoch, p.seq, p.cost, p.bytes.clone()))
            .collect();
        for (epoch, seq, cost, bytes) in pending {
            stats.frames_sent += 1;
            let id = FrameId::new(node as u32, epoch, seq);
            if trace.enabled {
                let attempts = trace.attempts.entry((epoch, seq)).or_insert(0);
                *attempts += 1;
                if *attempts == 1 {
                    trace.first_round.insert((epoch, seq), trace.round);
                    self.obs.frame_event(id, EventKind::Tx, 0);
                } else {
                    self.obs.frame_event(id, EventKind::Retx, *attempts - 1);
                }
            }
            if !self.charge_route(node, cost) {
                self.obs.frame_event(id, EventKind::Dropped, 0);
                continue; // a hop gave up; the frame stays pending
            }
            let arrivals = plan.channel(&bytes);
            // lint:allow(determinism): obs-gated latency probe — timing never feeds decoded output
            let t0 = self.obs.decode_batch_ns.is_enabled().then(Instant::now);
            for arrival in arrivals {
                self.deliver(node, arrival, stats)?;
            }
            if let Some(t0) = t0 {
                self.obs
                    .decode_batch_ns
                    .record(t0.elapsed().as_nanos() as u64);
            }
        }
        stats.acks_sent += 1;
        self.obs.recovery_acks.inc();
        if self.charge_ack_route(node) {
            let ack_epoch = self.station.epoch(node);
            let next_seq = self.station.next_seq(node);
            sensor.ack(ack_epoch, next_seq);
            if trace.enabled {
                // Everything the cumulative ACK covers is done flying:
                // attribute the RTT (in rounds since first transmission)
                // and forget the bookkeeping.
                let acked: Vec<(u32, u64)> = trace
                    .attempts
                    .keys()
                    .copied()
                    .filter(|&(e, s)| e == ack_epoch && s < next_seq)
                    .collect();
                for key in acked {
                    let first = trace.first_round.remove(&key).unwrap_or(trace.round);
                    trace.attempts.remove(&key);
                    let rtt = trace.round - first;
                    self.obs.ack_rtt_rounds.record(rtt);
                    self.obs.frame_event(
                        FrameId::new(node as u32, key.0, key.1),
                        EventKind::Acked,
                        rtt,
                    );
                }
            }
        }
        if trace.enabled {
            // Frames abandoned by an epoch bump (overflow, reboot) will
            // never be ACKed; drop their bookkeeping too.
            let current = sensor.epoch();
            trace.attempts.retain(|&(e, _), _| e >= current);
            trace.first_round.retain(|&(e, _), _| e >= current);
        }
        stats.max_retx_depth = stats.max_retx_depth.max(sensor.pending_depth());
        self.obs.retx_depth.set(sensor.pending_depth() as f64);
        self.obs
            .retx_depth_hist
            .record(sensor.pending_depth() as u64);
        Ok(())
    }

    /// Run one strategy over per-sensor feeds.
    ///
    /// `feeds[i]` is the measurement matrix (rows = signals) of node `i+1`;
    /// all feeds must share the same shape. `samples_per_batch` is the
    /// buffer depth `M`. Returns the energy/fidelity report.
    ///
    /// The station keeps what an SBR run logged, so a network runs at most
    /// one SBR simulation: a second one is an `InconsistentState` error.
    pub fn simulate(
        &mut self,
        feeds: &[Vec<Vec<f64>>],
        samples_per_batch: usize,
        strategy: &Strategy,
    ) -> Result<RunReport, SbrError> {
        if samples_per_batch == 0 {
            return Err(SbrError::InvalidConfig(
                "samples_per_batch must be at least 1".into(),
            ));
        }
        let n_signals = feeds.first().map_or(0, Vec::len);
        let feed_len = feeds.first().and_then(|f| f.first()).map_or(0, Vec::len);
        let sensors = self.topology.len().saturating_sub(1);
        if feeds.len() != sensors {
            // One feed per non-base node.
            return Err(SbrError::ShapeMismatch {
                expected_signals: sensors,
                expected_len: feed_len,
                got: (feeds.len(), feed_len),
            });
        }
        for (i, feed) in feeds.iter().enumerate() {
            if feed.len() != n_signals || feed.iter().any(|row| row.len() != feed_len) {
                return Err(SbrError::ShapeMismatch {
                    expected_signals: n_signals,
                    expected_len: feed_len,
                    got: (i, feed.first().map_or(0, Vec::len)),
                });
            }
        }
        let usable = (feed_len / samples_per_batch) * samples_per_batch;

        let mut values_sent = 0usize;
        let mut raw_values = 0usize;
        let mut sse = 0.0f64;
        let mut recovery = None;

        match strategy {
            Strategy::Raw => {
                for i in 0..feeds.len() {
                    let node = i + 1;
                    let values = n_signals * usable;
                    raw_values += values;
                    values_sent += values;
                    // One batch per buffer fill, each of n_signals × M values.
                    for _ in 0..usable / samples_per_batch {
                        self.charge_route(node, n_signals * samples_per_batch);
                    }
                    // Raw mode has no reconstruction to lose: a dropped
                    // batch simply leaves a gap the scorer does not model.
                }
            }
            Strategy::Aggregate { window } => {
                let window = (*window).max(1);
                for (i, feed) in feeds.iter().enumerate() {
                    let node = i + 1;
                    raw_values += n_signals * usable;
                    for batch in 0..usable / samples_per_batch {
                        let s = batch * samples_per_batch;
                        let mut batch_values = 0usize;
                        for row in feed {
                            for chunk in row[s..s + samples_per_batch].chunks(window) {
                                let avg = chunk.iter().sum::<f64>() / chunk.len() as f64;
                                batch_values += 3; // avg, min, max
                                for &v in chunk {
                                    sse += (v - avg) * (v - avg);
                                }
                            }
                        }
                        values_sent += batch_values;
                        self.charge_route(node, batch_values);
                    }
                }
            }
            Strategy::Sbr(config) => {
                // Scoring pairs every logged frame with what this run
                // flushed, so a log left by an earlier run cannot be
                // scored (or resumed: the fresh sensors restart at seq 0).
                if let Some(node) = (1..=sensors).find(|&n| self.station.chunk_count(n) > 0) {
                    return Err(SbrError::InconsistentState(format!(
                        "node {node}: the station already logged an SBR run; \
                         simulate again on a fresh Network"
                    )));
                }
                // Thread the network's recorder into every sensor's encoder
                // so pipeline metrics land in the same snapshot. Never
                // changes what is encoded — only what is measured.
                let config = match &self.obs.recorder {
                    Some(rec) => config.clone().with_recorder(rec.clone()),
                    None => config.clone(),
                };
                // No plan installed = the identity channel (same seed-free
                // determinism as no chaos at all).
                let mut plan = self.fault_plan.take().unwrap_or_else(|| FaultPlan::new(0));
                let mut stats = RecoveryStats::default();
                // How many un-ACKed frames a sensor holds before it gives
                // up on the gapped history and resyncs.
                const RETX_CAPACITY: usize = 16;
                // Rounds of pure retransmission allowed after the feed ends
                // before the run declares whatever is left undeliverable.
                const DRAIN_ROUNDS: usize = 64;
                let tracing = self.obs.recorder.is_some();
                for (i, feed) in feeds.iter().enumerate() {
                    let node = i + 1;
                    let mut sensor =
                        SensorNode::new(node, n_signals, samples_per_batch, config.clone())?;
                    sensor.enable_arq(RETX_CAPACITY);
                    let mut arq_trace = ArqTrace::new(tracing);
                    // Ground truth per frame identity: what the sensor
                    // actually buffered for (epoch, seq) — survives crashes
                    // shifting chunk boundaries against the feed.
                    let mut truth: HashMap<(u32, u64), Vec<Vec<f64>>> = HashMap::new();
                    let mut window: Vec<Vec<f64>> = vec![Vec::new(); n_signals];
                    let mut sample = vec![0.0f64; n_signals];
                    let mut flushed = 0u64;
                    for t in 0..usable {
                        for (s, row) in feed.iter().enumerate() {
                            sample[s] = row[t];
                            window[s].push(row[t]);
                        }
                        raw_values += n_signals;
                        // Compression work is charged per buffered value.
                        self.ledgers[node].charge_cpu(&self.model, n_signals);
                        if let Some(flush) = sensor.record(&sample)? {
                            // The flush is the newest frame in the
                            // retransmission buffer; count it once, however
                            // many attempts it takes.
                            values_sent += sensor.pending().last().map_or(0, |p| p.cost);
                            stats.chunks_flushed += 1;
                            truth.insert(
                                (flush.epoch, flush.transmission.seq),
                                std::mem::replace(&mut window, vec![Vec::new(); n_signals]),
                            );
                            let batch = flushed;
                            flushed += 1;
                            self.arq_round(&mut sensor, &mut plan, &mut stats, &mut arq_trace)?;
                            if plan.crash_due(node, batch) {
                                stats.crashes += 1;
                                sensor.reboot()?;
                                // The half-filled buffer died with the node.
                                for row in &mut window {
                                    row.clear();
                                }
                            }
                        }
                    }
                    for _ in 0..DRAIN_ROUNDS {
                        if sensor.pending_depth() == 0 {
                            break;
                        }
                        self.arq_round(&mut sensor, &mut plan, &mut stats, &mut arq_trace)?;
                    }
                    // A frame the channel still holds hostage arrives now.
                    for leftover in plan.drain() {
                        self.deliver(node, leftover, &mut stats)?;
                    }
                    stats.retx_overflows += sensor.retx_overflows();
                    self.obs
                        .recovery_retx_overflows
                        .add(sensor.retx_overflows());
                    // Fidelity over what the station actually logged, each
                    // chunk scored against the exact samples the sensor
                    // buffered for it.
                    let n_logged = self.station.chunk_count(node);
                    if n_logged > 0 {
                        let frames = self.station.frames(node)?;
                        let chunks = self.station.reconstruct_chunks(node, 0, n_logged)?;
                        for (frame, chunk) in frames.iter().zip(&chunks) {
                            let Some(raw) = truth.get(&(frame.epoch, frame.tx.seq)) else {
                                return Err(SbrError::InconsistentState(format!(
                                    "node {node}: logged frame {}:{} was not flushed by this run",
                                    frame.epoch, frame.tx.seq
                                )));
                            };
                            for (row, rec) in raw.iter().zip(chunk) {
                                sse += ErrorMetric::Sse.score(row, rec);
                            }
                        }
                    }
                    stats.chunks_delivered += n_logged;
                }
                recovery = Some(stats);
            }
        }

        // Idle listening between flushes: every sensor pays the duty-cycle
        // floor for each batch period, whatever the strategy.
        let periods = usable / samples_per_batch;
        for node in 1..self.topology.len() {
            self.ledgers[node].charge_idle(&self.model, periods);
        }

        self.obs.values_sent.add(values_sent as u64);
        self.obs.set_energy_gauges(&self.ledgers);
        if let Some(rec) = &self.obs.recorder {
            rec.emit(
                "sensor_net.run.complete",
                None,
                &[
                    ("strategy", strategy.label()),
                    ("values_sent", &values_sent.to_string()),
                    ("raw_values", &raw_values.to_string()),
                ],
            );
        }

        Ok(RunReport {
            strategy: strategy.label(),
            ledgers: self.ledgers.clone(),
            values_sent,
            raw_values,
            sse,
            hop_attempts: self.hop_attempts,
            batches_lost: self.batches_lost,
            recovery,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feeds(n_nodes: usize, n_signals: usize, len: usize) -> Vec<Vec<Vec<f64>>> {
        (0..n_nodes)
            .map(|n| {
                (0..n_signals)
                    .map(|s| {
                        (0..len)
                            .map(|t| ((t as f64 * 0.2) + (n * 3 + s) as f64).sin() * 10.0)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    fn network(nodes: usize) -> Network {
        Network::new(Topology::line(nodes, 1.0), EnergyModel::default())
    }

    #[test]
    fn raw_is_lossless_and_expensive() {
        let mut net = network(3);
        let r = net.simulate(&feeds(2, 2, 64), 32, &Strategy::Raw).unwrap();
        assert_eq!(r.sse, 0.0);
        assert_eq!(r.values_sent, r.raw_values);
        assert!(r.total_energy() > 0.0);
    }

    #[test]
    fn sbr_cuts_energy_versus_raw() {
        let cfg = SbrConfig::new(24, 16);
        let data = feeds(2, 2, 128);
        let raw = network(3).simulate(&data, 64, &Strategy::Raw).unwrap();
        let sbr = network(3).simulate(&data, 64, &Strategy::Sbr(cfg)).unwrap();
        assert!(
            sbr.total_energy() < raw.total_energy() / 2.0,
            "sbr {} vs raw {}",
            sbr.total_energy(),
            raw.total_energy()
        );
        assert!(sbr.compression_ratio() < 0.25);
    }

    #[test]
    fn sbr_beats_aggregation_at_same_or_less_bandwidth() {
        // Give SBR the same value budget aggregation uses and compare error.
        let data = feeds(1, 2, 256);
        let m = 128;
        let window = 32; // aggregation: 3 values per 32 samples per signal
        let agg = network(2)
            .simulate(&data, m, &Strategy::Aggregate { window })
            .unwrap();
        let band_per_batch = agg.values_sent / (256 / m);
        let cfg = SbrConfig::new(band_per_batch, 64);
        let sbr = network(2).simulate(&data, m, &Strategy::Sbr(cfg)).unwrap();
        assert!(sbr.values_sent <= agg.values_sent);
        assert!(
            sbr.sse < agg.sse,
            "sbr sse {} should beat aggregation {}",
            sbr.sse,
            agg.sse
        );
    }

    #[test]
    fn deeper_nodes_cost_more_relay_energy() {
        let mut net = network(4); // chain 0-1-2-3
        net.simulate(&feeds(3, 1, 64), 32, &Strategy::Raw).unwrap();
        // Node 1 relays for 2 and 3, so its tx energy is the largest.
        let tx: Vec<f64> = net.ledgers.iter().map(|l| l.tx).collect();
        assert!(tx[1] > tx[2] && tx[2] > tx[3]);
        // The base transmits only ACKs (1 value per received frame), far
        // below any sensor's data transmissions.
        assert!(tx[0] < tx[3], "base sends only ACKs");
    }

    #[test]
    fn overhearing_charges_neighbors() {
        let mut net = network(3);
        net.simulate(&feeds(2, 1, 32), 32, &Strategy::Raw).unwrap();
        // Node 1's transmissions toward the base are overheard by node 2,
        // which is in range but not the addressee; addressed reception is
        // billed to `rx`, overhearing to `overhear`.
        assert!(net.ledgers[2].overhear > 0.0, "node 2 overhears node 1");
        assert!(net.ledgers[0].rx > 0.0, "base receives addressed frames");
        assert!(
            net.ledgers[1].overhear == 0.0,
            "node 1 is always the addressee on this chain"
        );
    }

    #[test]
    fn idle_floor_is_charged_to_every_sensor() {
        let mut net = network(3);
        net.simulate(&feeds(2, 1, 64), 32, &Strategy::Raw).unwrap();
        let per_period = EnergyModel::default().idle_per_period;
        for node in 1..3 {
            assert_eq!(net.ledgers[node].idle, 2.0 * per_period);
        }
        assert_eq!(net.ledgers[0].idle, 0.0, "base is mains powered");
    }

    #[test]
    fn recorder_collects_per_node_and_pipeline_metrics() {
        use sbr_obs::MetricsRecorder;
        let rec = Arc::new(MetricsRecorder::new());
        let mut net = network(3);
        net.set_recorder(rec.clone());
        let data = feeds(2, 2, 128);
        let report = net
            .simulate(&data, 64, &Strategy::Sbr(SbrConfig::new(48, 32)))
            .unwrap();
        let snap = rec.snapshot();
        // Radio counters: every sensor transmitted, the base received.
        for node in 1..3 {
            let tx = snap
                .counter(&format!("sensor_net.node.{node}.tx_values"))
                .unwrap_or(0);
            assert!(tx > 0, "node {node} must have tx_values");
        }
        assert!(snap.counter("sensor_net.node.0.rx_values").unwrap() > 0);
        assert_eq!(
            snap.counter("sensor_net.network.values_sent"),
            Some(report.values_sent as u64)
        );
        // The recorder was threaded into the encoders: pipeline metrics
        // from sbr-core land in the same snapshot.
        assert!(snap.counter("sbr_core.best_map.calls").unwrap_or(0) > 0);
        // Energy gauges mirror the ledgers.
        let total0 = snap.gauge("sensor_net.node.0.energy_total").unwrap();
        assert!((total0 - net.ledgers[0].total()).abs() < 1e-9);
        assert!(snap.gauge("sensor_net.energy.overhear").unwrap() > 0.0);
        assert!(snap.gauge("sensor_net.energy.idle").unwrap() > 0.0);
    }

    #[test]
    fn ragged_feeds_rejected_not_panicking() {
        let mut net = network(3);
        let mut data = feeds(2, 2, 64);
        data[1][1].truncate(10); // one short row
        let err = net.simulate(&data, 32, &Strategy::Raw).unwrap_err();
        assert!(matches!(err, SbrError::ShapeMismatch { .. }));
    }

    #[test]
    fn lossy_link_costs_more_but_loses_nothing_logically() {
        let data = feeds(2, 2, 128);
        let cfg = SbrConfig::new(48, 32);
        let mut reliable = network(3);
        let r = reliable
            .simulate(&data, 64, &Strategy::Sbr(cfg.clone()))
            .unwrap();
        let mut lossy = network(3);
        lossy.set_link(crate::link::LossyLink::new(0.4, 50, 7));
        let l = lossy.simulate(&data, 64, &Strategy::Sbr(cfg)).unwrap();
        assert!(l.hop_attempts > r.hop_attempts, "ARQ must retry");
        assert!(l.total_energy() > r.total_energy());
        // Same transmissions reach the station either way.
        assert_eq!(
            lossy.station().chunk_count(1),
            reliable.station().chunk_count(1)
        );
        assert!((l.sse - r.sse).abs() < 1e-9, "fidelity unchanged by ARQ");
    }

    /// Straight-line direct delivery, the oracle for the ARQ path: each
    /// sensor runs without ARQ and every flush goes straight into
    /// `receive_frame`, which must accept it. Returns the station and the
    /// SSE of its logs against the feeds.
    fn direct_delivery(data: &[Vec<Vec<f64>>], m: usize, cfg: &SbrConfig) -> (BaseStation, f64) {
        let station = BaseStation::new();
        let mut sse = 0.0;
        for (i, feed) in data.iter().enumerate() {
            let node = i + 1;
            let mut sensor = SensorNode::new(node, feed.len(), m, cfg.clone()).unwrap();
            let usable = feed[0].len() / m * m;
            for t in 0..usable {
                let sample: Vec<f64> = feed.iter().map(|row| row[t]).collect();
                if let Some(flush) = sensor.record(&sample).unwrap() {
                    let receipt = station.receive_frame(node, flush.frame).unwrap();
                    assert_eq!(receipt, Receipt::Accepted);
                }
            }
            let chunks = station
                .reconstruct_chunks(node, 0, station.chunk_count(node))
                .unwrap();
            for (b, chunk) in chunks.iter().enumerate() {
                for (row, rec) in feed.iter().zip(chunk) {
                    sse += ErrorMetric::Sse.score(&row[b * m..(b + 1) * m], rec);
                }
            }
        }
        (station, sse)
    }

    /// Σ `Frame::cost()` over everything the station logged.
    fn logged_cost(net: &Network, nodes: usize) -> usize {
        (1..nodes)
            .flat_map(|node| net.station().frames(node).unwrap())
            .map(|f| f.cost())
            .sum()
    }

    #[test]
    fn arq_reliable_link_matches_direct_delivery_byte_for_byte() {
        let data = feeds(2, 2, 256);
        let cfg = SbrConfig::new(48, 32);
        let (direct, direct_sse) = direct_delivery(&data, 64, &cfg);
        let mut arq = network(3);
        let a = arq.simulate(&data, 64, &Strategy::Sbr(cfg)).unwrap();
        // The ARQ protocol on a perfect channel is invisible: the station
        // logs the exact same bytes direct delivery logs.
        for node in 1..3 {
            assert_eq!(
                arq.station().raw_frames(node),
                direct.raw_frames(node),
                "node {node} log diverged"
            );
        }
        assert!(
            (a.sse - direct_sse).abs() < 1e-12,
            "fidelity must be unchanged"
        );
        let stats = a.recovery.expect("sbr runs report recovery stats");
        assert_eq!(stats.gaps_detected, 0);
        assert_eq!(stats.duplicates_discarded, 0);
        assert_eq!(stats.resyncs, 0);
        assert_eq!(stats.delivered_fraction(), 1.0);
    }

    #[test]
    fn values_sent_is_the_logged_frame_cost_on_a_reliable_link() {
        let data = feeds(2, 2, 256);
        let mut net = network(3);
        let r = net
            .simulate(&data, 64, &Strategy::Sbr(SbrConfig::new(48, 32)))
            .unwrap();
        assert_eq!(r.values_sent, logged_cost(&net, 3));
        // Value units, not wire bytes: the v2 framing is not billed.
        let wire: usize = (1..3)
            .flat_map(|node| net.station().raw_frames(node))
            .map(|f| f.len().div_ceil(8))
            .sum();
        assert!(r.values_sent < wire);
    }

    #[test]
    fn chaos_bills_each_flush_once_and_retransmissions_only_as_energy() {
        let data = feeds(2, 2, 512);
        let cfg = SbrConfig::new(48, 32);
        let mut clean = network(3);
        let c = clean
            .simulate(&data, 64, &Strategy::Sbr(cfg.clone()))
            .unwrap();
        let mut chaos = network(3);
        chaos.set_fault_plan(
            FaultPlan::new(42)
                .with_drop(0.3)
                .with_dup(0.15)
                .with_reorder(0.1)
                .with_corrupt(0.1),
        );
        let r = chaos.simulate(&data, 64, &Strategy::Sbr(cfg)).unwrap();
        let stats = r.recovery.unwrap();
        assert!(stats.frames_sent > stats.frames_delivered, "{stats:?}");
        assert_eq!(stats.delivered_fraction(), 1.0, "{stats:?}");
        // Every flushed frame is logged once and counted once...
        assert_eq!(r.values_sent, logged_cost(&chaos, 3));
        assert_eq!(r.values_sent, c.values_sent);
        // ...while the retransmissions cost attempts and energy.
        assert!(r.hop_attempts > c.hop_attempts);
        assert!(r.total_energy() > c.total_energy());
    }

    #[test]
    fn second_sbr_run_on_one_network_is_a_typed_error() {
        let cfg = SbrConfig::new(48, 32);
        for second_len in [256, 128] {
            let mut net = network(3);
            net.simulate(&feeds(2, 2, 256), 64, &Strategy::Sbr(cfg.clone()))
                .unwrap();
            let err = net
                .simulate(&feeds(2, 2, second_len), 64, &Strategy::Sbr(cfg.clone()))
                .unwrap_err();
            assert!(
                matches!(&err, SbrError::InconsistentState(msg) if msg.contains("node 1")),
                "feed length {second_len}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_batch_size_and_feed_count_rejected_not_panicking() {
        let mut net = network(3);
        let data = feeds(2, 2, 64);
        let err = net.simulate(&data, 0, &Strategy::Raw).unwrap_err();
        assert!(matches!(err, SbrError::InvalidConfig(_)), "{err:?}");
        for n_feeds in [1, 3] {
            let err = net
                .simulate(&feeds(n_feeds, 2, 64), 32, &Strategy::Raw)
                .unwrap_err();
            assert!(matches!(err, SbrError::ShapeMismatch { .. }), "{err:?}");
        }
    }

    #[test]
    fn arq_recovers_exactly_under_chaos() {
        let data = feeds(2, 2, 512);
        let cfg = SbrConfig::new(48, 32);
        let mut net = network(3);
        net.set_fault_plan(
            FaultPlan::new(42)
                .with_drop(0.3)
                .with_dup(0.15)
                .with_reorder(0.1)
                .with_corrupt(0.1),
        );
        let r = net
            .simulate(&data, 64, &Strategy::Sbr(cfg.clone()))
            .unwrap();
        let stats = r.recovery.unwrap();
        assert!(
            stats.duplicates_discarded + stats.gaps_detected + stats.corrupt_rejected > 0,
            "chaos must have bitten: {stats:?}"
        );
        assert!(
            stats.frames_sent > stats.frames_delivered,
            "retransmissions happened"
        );
        // The retransmission buffer outlasted every loss burst, so every
        // flushed chunk was eventually delivered...
        assert_eq!(stats.delivered_fraction(), 1.0, "{stats:?}");
        // ...and the result is bit-for-bit what a perfect channel yields.
        let mut clean = network(3);
        let c = clean.simulate(&data, 64, &Strategy::Sbr(cfg)).unwrap();
        for node in 1..3 {
            assert_eq!(
                net.station().raw_frames(node),
                clean.station().raw_frames(node)
            );
        }
        assert!((r.sse - c.sse).abs() < 1e-12);
        assert!(r.total_energy() > c.total_energy(), "chaos costs energy");
    }

    /// A trace sink the tests read back after a run.
    #[derive(Clone, Default)]
    struct TraceBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for TraceBuf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl TraceBuf {
        /// A recorder writing its trace lines into this buffer.
        fn recorder(&self) -> Arc<sbr_obs::MetricsRecorder> {
            Arc::new(sbr_obs::MetricsRecorder::with_trace_writer(Box::new(
                self.clone(),
            )))
        }

        /// Every `sensor_net.timeline.*` event in log order, parsed back
        /// from its `frame`, `kind` and `value` fields.
        fn frame_events(&self) -> Vec<(FrameId, EventKind, u64)> {
            let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
            text.lines()
                .map(|line| sbr_obs::json::parse(line).unwrap())
                .filter(|v| {
                    v.get("name")
                        .and_then(|n| n.as_str())
                        .is_some_and(|n| n.starts_with("sensor_net.timeline."))
                })
                .map(|v| {
                    let field = |k: &str| v.get(k).and_then(|f| f.as_str()).unwrap().to_owned();
                    (
                        field("frame").parse().unwrap(),
                        EventKind::parse(&field("kind")).unwrap(),
                        field("value").parse().unwrap(),
                    )
                })
                .collect()
        }
    }

    #[test]
    fn timeline_under_chaos_is_consistent_with_recovery_stats() {
        use std::collections::BTreeMap;
        let data = feeds(2, 2, 512);
        let cfg = SbrConfig::new(48, 32);
        let trace = TraceBuf::default();
        let rec = trace.recorder();
        let mut net = network(3);
        net.set_recorder(rec.clone());
        net.set_fault_plan(
            FaultPlan::new(42)
                .with_drop(0.3)
                .with_dup(0.15)
                .with_reorder(0.1)
                .with_corrupt(0.1)
                .with_crash_at(1, 4),
        );
        let r = net.simulate(&data, 64, &Strategy::Sbr(cfg)).unwrap();
        let stats = r.recovery.unwrap();
        assert!(
            stats.duplicates_discarded > 0 && stats.resyncs > 0,
            "{stats:?}"
        );
        let events = trace.frame_events();
        let mut by_frame: BTreeMap<FrameId, Vec<(EventKind, u64)>> = BTreeMap::new();
        for &(frame, kind, value) in &events {
            by_frame.entry(frame).or_default().push((kind, value));
        }
        // Aggregate consistency: trace totals equal the RecoveryStats the
        // run reported.
        let count = |k: EventKind| events.iter().filter(|e| e.1 == k).count() as u64;
        assert_eq!(count(EventKind::Encoded), stats.chunks_flushed as u64);
        assert_eq!(count(EventKind::Dup), stats.duplicates_discarded);
        assert_eq!(count(EventKind::Resynced), stats.resyncs);
        // A bit flip can land in the 17 header bytes the identity peek
        // reads, leaving that rejection unattributable — so `corrupt`
        // events bound the stat from below, and chaos this heavy must
        // still have attributed some.
        assert!(count(EventKind::Corrupt) <= stats.corrupt_rejected);
        assert!(count(EventKind::Corrupt) > 0);
        assert_eq!(
            count(EventKind::Tx) + count(EventKind::Retx),
            stats.frames_sent
        );
        assert_eq!(
            count(EventKind::Decoded),
            stats.frames_delivered,
            "every delivered frame decodes exactly once"
        );
        // Per-frame consistency: ordered histories. A `decoded` frame must
        // have a `tx` strictly before it; every `resynced` verdict must be
        // preceded by its trigger (the resync frame's own `encoded`).
        let mut decoded_frames = 0;
        for (frame, hist) in &by_frame {
            let pos = |k: EventKind| hist.iter().position(|e| e.0 == k);
            if let Some(d) = pos(EventKind::Decoded) {
                decoded_frames += 1;
                let t = pos(EventKind::Tx)
                    .unwrap_or_else(|| panic!("{frame} decoded without tx: {hist:?}"));
                assert!(t < d, "{frame}: decoded before tx: {hist:?}");
                let enc = pos(EventKind::Encoded)
                    .unwrap_or_else(|| panic!("{frame} decoded without encoded: {hist:?}"));
                assert!(enc < t, "{frame}: tx before encoded: {hist:?}");
            }
            if let Some(rs) = pos(EventKind::Resynced) {
                let enc = pos(EventKind::Encoded)
                    .unwrap_or_else(|| panic!("{frame} resynced without encoded: {hist:?}"));
                assert!(enc < rs, "{frame}: resynced before its trigger");
            }
        }
        assert_eq!(decoded_frames as u64, stats.frames_delivered);
        // The quantile histograms saw real traffic.
        let snap = rec.snapshot();
        let rtt = snap
            .histogram("sensor_net.recovery.ack_rtt_rounds")
            .unwrap();
        assert!(rtt.count > 0);
        assert!(rtt.p99() >= rtt.p50());
        assert!(
            snap.histogram("sensor_net.recovery.retx_depth_per_round")
                .unwrap()
                .count
                > 0
        );
        assert!(
            snap.histogram("sensor_net.station.decode_batch_ns")
                .unwrap()
                .count
                > 0
        );
    }

    #[test]
    fn timeline_active_changes_no_bytes() {
        let data = feeds(2, 2, 512);
        let cfg = SbrConfig::new(48, 32);
        let chaos = || {
            FaultPlan::new(42)
                .with_drop(0.3)
                .with_dup(0.15)
                .with_reorder(0.1)
                .with_corrupt(0.1)
        };
        let mut plain = network(3);
        plain.set_fault_plan(chaos());
        let p = plain
            .simulate(&data, 64, &Strategy::Sbr(cfg.clone()))
            .unwrap();
        let trace = TraceBuf::default();
        let mut traced = network(3);
        traced.set_recorder(trace.recorder());
        traced.set_fault_plan(chaos());
        let t = traced.simulate(&data, 64, &Strategy::Sbr(cfg)).unwrap();
        // Observation is free of observable effect: identical station
        // logs, byte for byte, and identical recovery stats.
        for node in 1..3 {
            assert_eq!(
                plain.station().raw_frames(node),
                traced.station().raw_frames(node),
                "node {node} log diverged under tracing"
            );
        }
        assert_eq!(p.recovery, t.recovery);
        assert!((p.sse - t.sse).abs() < 1e-12);
        assert!(
            !trace.frame_events().is_empty(),
            "tracing actually happened"
        );
    }

    #[test]
    fn crash_forces_resync_and_later_chunks_stay_exact() {
        let data = feeds(1, 2, 512);
        let cfg = SbrConfig::new(48, 32);
        let mut net = network(2);
        net.set_fault_plan(FaultPlan::new(7).with_crash_at(1, 3));
        let r = net.simulate(&data, 64, &Strategy::Sbr(cfg)).unwrap();
        let stats = r.recovery.unwrap();
        assert_eq!(stats.crashes, 1);
        assert!(stats.resyncs >= 1, "reboot must resync");
        assert!(net.station().epoch(1) > 0);
        // Nothing was in flight at the crash (reliable link, instant ACKs),
        // so every flushed chunk is in the log and replays cleanly.
        assert_eq!(stats.delivered_fraction(), 1.0);
        let n = net.station().chunk_count(1);
        let chunks = net.station().reconstruct_chunks(1, 0, n).unwrap();
        assert_eq!(chunks.len(), 8);
    }

    #[test]
    fn recovery_metrics_land_in_snapshot() {
        use sbr_obs::MetricsRecorder;
        let rec = Arc::new(MetricsRecorder::new());
        let mut net = network(2);
        net.set_recorder(rec.clone());
        net.set_fault_plan(FaultPlan::new(9).with_drop(0.3).with_dup(0.2));
        net.simulate(
            &feeds(1, 2, 256),
            64,
            &Strategy::Sbr(SbrConfig::new(48, 32)),
        )
        .unwrap();
        let snap = rec.snapshot();
        assert!(snap.counter("sensor_net.recovery.acks").unwrap() > 0);
        assert!(snap.counter("sensor_net.recovery.gaps").is_some());
        assert!(snap.counter("sensor_net.recovery.duplicates").is_some());
        assert!(snap.counter("sensor_net.recovery.corrupt").is_some());
        assert!(snap.gauge("sensor_net.recovery.retx_depth").is_some());
        assert!(snap.counter("sbr_core.codec.resync_frames").is_some());
    }

    #[test]
    fn station_answers_historical_queries_after_sbr_run() {
        let data = feeds(2, 2, 128);
        let mut net = network(3);
        net.simulate(&data, 64, &Strategy::Sbr(SbrConfig::new(48, 32)))
            .unwrap();
        let r = net
            .station()
            .reconstruct_signal_range(1, 0, 10, 70)
            .unwrap();
        assert_eq!(r.len(), 60);
    }
}
