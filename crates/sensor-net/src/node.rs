//! A sensor node: sample buffering plus the embedded SBR encoder.
//!
//! §3.2: nodes do not transmit each new measurement; they fill an `N × M`
//! buffer and flush it as one compressed batch, letting the radio sleep in
//! between.
//!
//! On top of that, the node implements the sender half of the end-to-end
//! ARQ protocol: every flushed frame enters a **bounded retransmission
//! buffer** (when ARQ is enabled) until a cumulative ACK from the base
//! station covers it. If the buffer overflows — the link was down longer
//! than the node can remember — or the node reboots, the node bumps its
//! **epoch** and emits a resync frame carrying its pre-encode base-signal
//! snapshot, letting the decoder re-anchor: the gapped chunks are lost,
//! every later chunk is exact.

use std::collections::VecDeque;

use sbr_core::codec;
use sbr_core::{Frame, SbrConfig, SbrEncoder, SbrError, Transmission};
use sbr_obs::{frame_event, EventKind, FrameId};

use crate::NodeId;

/// A sensor with an `N × M` sample buffer and an SBR encoder.
#[derive(Debug)]
pub struct SensorNode {
    id: NodeId,
    encoder: SbrEncoder,
    buffer: Vec<Vec<f64>>,
    samples_per_signal: usize,
    config: SbrConfig,
    epoch: u32,
    needs_resync: bool,
    /// Un-ACKed frames, oldest first. `None` capacity = ARQ disabled
    /// (nothing is tracked; the caller delivers each flush itself).
    retx: VecDeque<PendingFrame>,
    retx_capacity: Option<usize>,
    retx_overflows: u64,
}

/// One flushed batch: the logical transmission plus its wire frame.
#[derive(Debug, Clone)]
pub struct Flush {
    /// The logical transmission.
    pub transmission: Transmission,
    /// Its byte framing (v2), as it would cross the radio.
    pub frame: bytes::Bytes,
    /// Number of raw values the batch held.
    pub raw_values: usize,
    /// Epoch the frame was emitted under.
    pub epoch: u32,
    /// Whether this flush re-anchors the decoder (overflow or reboot).
    pub resync: bool,
}

/// An encoded frame waiting for a cumulative ACK from the base station.
#[derive(Debug, Clone)]
pub struct PendingFrame {
    /// Epoch the frame belongs to (always the node's current epoch — the
    /// queue is cleared whenever the epoch bumps).
    pub epoch: u32,
    /// Sequence number of the embedded transmission.
    pub seq: u64,
    /// The serialized v2 frame.
    pub bytes: bytes::Bytes,
    /// What one transmission of the frame costs on the radio, in the
    /// paper's value units: [`Frame::cost`] (transmission values plus any
    /// resync snapshot), without the wire framing.
    pub cost: usize,
}

impl SensorNode {
    /// Create a node recording `n_signals` quantities with buffer depth
    /// `samples_per_signal`.
    pub fn new(
        id: NodeId,
        n_signals: usize,
        samples_per_signal: usize,
        config: SbrConfig,
    ) -> Result<Self, SbrError> {
        let encoder = SbrEncoder::new(n_signals, samples_per_signal, config.clone())?;
        Ok(SensorNode {
            id,
            encoder,
            buffer: vec![Vec::with_capacity(samples_per_signal); n_signals],
            samples_per_signal,
            config,
            epoch: 0,
            needs_resync: false,
            retx: VecDeque::new(),
            retx_capacity: None,
            retx_overflows: 0,
        })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of samples currently buffered per signal.
    pub fn buffered(&self) -> usize {
        self.buffer.first().map_or(0, Vec::len)
    }

    /// Immutable access to the embedded encoder (base-signal state, stats).
    pub fn encoder(&self) -> &SbrEncoder {
        &self.encoder
    }

    /// Current resync epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Enable end-to-end ARQ: flushed frames are retained (up to
    /// `capacity` of them) until [`SensorNode::ack`] covers them; on
    /// overflow the node resyncs instead of silently dropping history.
    ///
    /// # Panics
    ///
    /// If `capacity` is 0 — the node must be able to hold at least the
    /// frame it is about to send.
    pub fn enable_arq(&mut self, capacity: usize) {
        assert!(capacity >= 1, "retransmission buffer needs capacity >= 1");
        self.retx_capacity = Some(capacity);
    }

    /// Frames currently awaiting an ACK, oldest first.
    pub fn pending(&self) -> impl Iterator<Item = &PendingFrame> {
        self.retx.iter()
    }

    /// Number of frames awaiting an ACK.
    pub fn pending_depth(&self) -> usize {
        self.retx.len()
    }

    /// Times the retransmission buffer overflowed (each one cost a resync).
    pub fn retx_overflows(&self) -> u64 {
        self.retx_overflows
    }

    /// Apply a cumulative ACK: the base station has durably applied every
    /// frame of `epoch` below `next_seq`. Returns how many pending frames
    /// that released. Stale ACKs (earlier epoch) are ignored — the queue
    /// only ever holds current-epoch frames.
    pub fn ack(&mut self, epoch: u32, next_seq: u64) -> usize {
        if epoch != self.epoch {
            return 0;
        }
        let before = self.retx.len();
        self.retx.retain(|p| p.seq >= next_seq);
        before - self.retx.len()
    }

    /// Simulate a crash + reboot: RAM state (sample buffer, encoder
    /// dictionary, retransmission queue) is gone; the epoch — kept in
    /// non-volatile storage, a u32 — survives and bumps, so the first
    /// flush after the reboot is a resync frame with an empty snapshot and
    /// sequence numbers restarting at 0.
    pub fn reboot(&mut self) -> Result<(), SbrError> {
        self.encoder = SbrEncoder::new(
            self.buffer.len(),
            self.samples_per_signal,
            self.config.clone(),
        )?;
        for row in &mut self.buffer {
            row.clear();
        }
        self.retx.clear();
        self.epoch += 1;
        self.needs_resync = true;
        Ok(())
    }

    /// Record one sample per signal. When the buffer fills, it is
    /// compressed and drained, and the flush is returned.
    ///
    /// With ARQ enabled the flush also enters the retransmission buffer;
    /// if that buffer is already full, the node gives up on the un-ACKed
    /// history first — epoch bump, queue cleared — and the flush goes out
    /// as a resync frame snapshotting the pre-encode base signal.
    pub fn record(&mut self, sample: &[f64]) -> Result<Option<Flush>, SbrError> {
        if sample.len() != self.buffer.len() {
            return Err(SbrError::ShapeMismatch {
                expected_signals: self.buffer.len(),
                expected_len: 1,
                got: (sample.len(), 1),
            });
        }
        for (row, &v) in self.buffer.iter_mut().zip(sample) {
            row.push(v);
        }
        if self.buffered() < self.samples_per_signal {
            return Ok(None);
        }
        if let Some(cap) = self.retx_capacity {
            if self.retx.len() >= cap {
                // Overflow: sacrifice the un-ACKed history, re-anchor.
                self.retx.clear();
                self.epoch += 1;
                self.needs_resync = true;
                self.retx_overflows += 1;
            }
        }
        let resync = self.needs_resync;
        // Snapshot *before* encoding: the receiver installs it and then
        // decodes the transmission with ordinary shift semantics. After a
        // reboot the base is empty, so the snapshot is too.
        let snapshot = if resync {
            self.encoder.base().values().to_vec()
        } else {
            Vec::new()
        };
        let tx = self.encoder.encode(&self.buffer)?;
        let raw_values = self.buffer.len() * self.samples_per_signal;
        for row in &mut self.buffer {
            row.clear();
        }
        let (frame, cost) = {
            let obs = &self.encoder.config().obs;
            let _span = obs.span("sbr_core.codec.encode_ns", &obs.codec_encode_ns);
            let wire = if resync {
                obs.resync_frames.inc();
                Frame::resync(self.epoch, snapshot, tx.clone())
            } else {
                Frame::data(self.epoch, tx.clone())
            };
            (codec::encode_v2(&wire), wire.cost())
        };
        self.needs_resync = false;
        let queued = self.retx_capacity.is_some();
        if queued {
            self.retx.push_back(PendingFrame {
                epoch: self.epoch,
                seq: tx.seq,
                bytes: frame.clone(),
                cost,
            });
        }
        // Lifecycle attribution: the encoder's recorder (the network's,
        // when one is attached) learns the frame exists. A resync frame's
        // `encoded` event is the trigger preceding the station's eventual
        // `resynced` verdict.
        if let Some(rec) = self.encoder.config().obs.recorder() {
            let id = FrameId::new(self.id as u32, self.epoch, tx.seq);
            frame_event(rec.as_ref(), id, EventKind::Encoded, 0);
            if queued {
                frame_event(rec.as_ref(), id, EventKind::Queued, 0);
            }
        }
        Ok(Some(Flush {
            transmission: tx,
            frame,
            raw_values,
            epoch: self.epoch,
            resync,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbr_core::{Decoder, FrameKind};

    fn node() -> SensorNode {
        SensorNode::new(5, 2, 32, SbrConfig::new(40, 32)).unwrap()
    }

    fn drive(n: &mut SensorNode, base: f64) -> Option<Flush> {
        let mut out = None;
        for t in 0..32 {
            out = n
                .record(&[base + t as f64, base - t as f64])
                .unwrap()
                .or(out);
        }
        out
    }

    #[test]
    fn flush_fires_exactly_when_full() {
        let mut n = node();
        for t in 0..31 {
            let out = n.record(&[t as f64, (t * 2) as f64]).unwrap();
            assert!(out.is_none(), "flushed early at {t}");
        }
        let out = n.record(&[31.0, 62.0]).unwrap();
        let flush = out.expect("buffer full, must flush");
        assert_eq!(flush.raw_values, 64);
        assert_eq!(flush.transmission.seq, 0);
        assert_eq!(flush.epoch, 0);
        assert!(!flush.resync);
        assert_eq!(n.buffered(), 0);
    }

    #[test]
    fn consecutive_batches_increment_seq() {
        let mut n = node();
        let mut seqs = Vec::new();
        for t in 0..96 {
            if let Some(f) = n.record(&[(t % 7) as f64, (t % 5) as f64]).unwrap() {
                seqs.push(f.transmission.seq);
            }
        }
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn frame_parses_back() {
        let mut n = node();
        let flush = drive(&mut n, 0.0).unwrap();
        let parsed = codec::decode_exact(&flush.frame).unwrap();
        assert_eq!(parsed, Frame::data(0, flush.transmission));
    }

    #[test]
    fn wrong_sample_width_rejected() {
        let mut n = node();
        assert!(n.record(&[1.0]).is_err());
        assert!(n.record(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn arq_tracks_and_acks_cumulatively() {
        let mut n = node();
        n.enable_arq(8);
        for k in 0..3 {
            drive(&mut n, k as f64 * 10.0).unwrap();
        }
        assert_eq!(n.pending_depth(), 3);
        assert_eq!(
            n.pending().map(|p| p.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Cumulative ACK through seq 1 releases two frames.
        assert_eq!(n.ack(0, 2), 2);
        assert_eq!(n.pending_depth(), 1);
        // Stale-epoch ACK is a no-op.
        assert_eq!(n.ack(5, 99), 0);
        assert_eq!(n.pending_depth(), 1);
    }

    #[test]
    fn overflow_clears_queue_and_emits_resync() {
        let mut n = node();
        n.enable_arq(2);
        drive(&mut n, 0.0).unwrap();
        drive(&mut n, 1.0).unwrap();
        assert_eq!(n.pending_depth(), 2);
        // Third un-ACKed flush overflows the buffer: history sacrificed,
        // epoch bumps, the flush itself is a resync frame.
        let f = drive(&mut n, 2.0).unwrap();
        assert!(f.resync);
        assert_eq!(f.epoch, 1);
        assert_eq!(n.retx_overflows(), 1);
        assert_eq!(n.pending_depth(), 1);
        let frame = codec::decode_exact(&f.frame).unwrap();
        assert_eq!(frame.kind, FrameKind::Resync);
        assert_eq!(frame.epoch, 1);
        // The queued frame is billed in value units, snapshot included.
        let queued = n.pending().last().unwrap();
        assert_eq!(queued.cost, frame.cost());
        assert_eq!(queued.cost, f.transmission.cost() + frame.snapshot.len());
        // Snapshot is the pre-encode base: installing it lets a decoder
        // that missed everything decode this chunk exactly.
        let mut d = Decoder::new();
        d.decode_frame(&frame).unwrap();
        assert_eq!(d.base().unwrap().values(), n.encoder().base().values());
    }

    #[test]
    fn reboot_restarts_sequences_under_new_epoch() {
        let mut n = node();
        n.enable_arq(4);
        drive(&mut n, 0.0).unwrap();
        drive(&mut n, 1.0).unwrap();
        n.reboot().unwrap();
        assert_eq!(n.pending_depth(), 0);
        let f = drive(&mut n, 2.0).unwrap();
        assert!(f.resync);
        assert_eq!(f.epoch, 1);
        assert_eq!(f.transmission.seq, 0, "fresh encoder restarts at 0");
        let frame = codec::decode_exact(&f.frame).unwrap();
        assert_eq!(frame.kind, FrameKind::Resync);
        assert!(frame.snapshot.is_empty(), "reboot snapshot is empty");
        // A decoder mid-stream re-anchors on it.
        let mut d = Decoder::new();
        d.decode_frame(&frame).unwrap();
        assert_eq!(d.next_seq(), 1);
        assert_eq!(d.epoch(), 1);
    }
}
