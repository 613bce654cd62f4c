//! What a sensor actually sends per batch: base-signal updates plus interval
//! records, with exact bandwidth accounting (§4.3).

use crate::interval::IntervalRecord;

/// The largest batch, in values (`N × M`), an encoder accepts and a frame
/// may declare.
///
/// A frame's header declares its batch shape in two `u32`s, and decoding
/// fills `N × M` values (what the station keeps per signal is bounded
/// separately: a frame must carry a record per signal). Without a cap a
/// 77-byte frame declaring `u32::MAX × u32::MAX` asks for ~1.8·10¹⁹
/// values. 2²² values (32 MiB decoded) is about 100× the largest batch
/// the paper's experiments use (Phone: 15 × 2,560 = 38,400 values) and
/// above every batch the benches, examples, tests and CLI encode, while
/// the encoder's `GetBase` is quadratic in the batch long before it.
pub const MAX_BATCH_VALUES: usize = 1 << 22;

/// One inserted base interval: its `W` samples plus the slot of the
/// base-signal buffer it finally occupies. Costs `W + 1` values.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseUpdate {
    /// Final slot index in the base-signal buffer. Slots beyond the
    /// receiver's current buffer are appends; earlier slots are
    /// replacements (the sensor evicted LFU intervals).
    pub slot: u64,
    /// The `W` samples of the interval.
    pub values: Vec<f64>,
}

impl BaseUpdate {
    /// Bandwidth cost in values: the samples plus the slot offset.
    pub fn cost(&self) -> usize {
        self.values.len() + 1
    }
}

/// A complete per-batch transmission.
///
/// Decoding order matters and mirrors Algorithm 5: the receiver first forms
/// the *candidate* signal `X_new = X_old ∥ updates` (in transmitted order),
/// decodes every interval record against `X_new`, and only then applies the
/// slot placements to obtain the buffer used by the next transmission. The
/// `shift` fields therefore always reference the `X_new` layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmission {
    /// Monotone sequence number of the batch (0-based).
    pub seq: u64,
    /// Number of input signals in the batch.
    pub n_signals: u32,
    /// Samples per signal in the batch.
    pub samples_per_signal: u32,
    /// Base-interval width `W` used for this batch.
    pub w: u32,
    /// Inserted base intervals, in insertion order.
    pub base_updates: Vec<BaseUpdate>,
    /// Approximation interval records.
    pub intervals: Vec<IntervalRecord>,
}

impl Transmission {
    /// Total bandwidth cost in values:
    /// `Ins × (W + 1) + 4 × #intervals` (§4.3).
    pub fn cost(&self) -> usize {
        self.base_updates
            .iter()
            .map(BaseUpdate::cost)
            .sum::<usize>()
            + self.intervals.len() * IntervalRecord::COST
    }

    /// Number of values in the batch this transmission encodes.
    pub fn batch_len(&self) -> usize {
        // lint:allow(cast-truncation): both u32 factors widen to usize before the multiply
        self.n_signals as usize * self.samples_per_signal as usize
    }

    /// Achieved compression ratio (transmitted values / batch values).
    pub fn compression_ratio(&self) -> f64 {
        self.cost() as f64 / self.batch_len() as f64
    }
}

/// What a v2 wire frame carries besides its [`Transmission`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An ordinary in-sequence batch, encoded against the receiver's
    /// current base-signal replica.
    Data,
    /// A re-anchoring frame: carries a full base-signal snapshot the
    /// receiver must install *before* decoding the embedded transmission.
    /// Emitted after a retransmit-buffer overflow or a node reboot, always
    /// with a strictly larger epoch than any prior frame.
    Resync,
}

/// A v2 wire frame: epoch + kind envelope around one [`Transmission`],
/// with an optional base-signal snapshot on [`FrameKind::Resync`] frames.
///
/// The snapshot is the sensor's base signal *before* encoding the embedded
/// transmission (flattened slot-major, a multiple of `tx.w` values), so the
/// receiver installs it and then decodes `tx` with unchanged shift
/// semantics. A reboot resync has an empty snapshot: the encoder restarted
/// from scratch and `tx.seq` is 0 again.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Resync generation. Starts at 0; bumped by the sensor on every
    /// retransmit-buffer overflow or reboot.
    pub epoch: u32,
    /// Whether this frame re-anchors the decoder.
    pub kind: FrameKind,
    /// Flattened base-signal snapshot (`Resync` only; empty on `Data` and
    /// on reboot resyncs). Length must be a multiple of `tx.w`.
    pub snapshot: Vec<f64>,
    /// The batch payload.
    pub tx: Transmission,
}

impl Frame {
    /// An ordinary data frame.
    pub fn data(epoch: u32, tx: Transmission) -> Self {
        Frame {
            epoch,
            kind: FrameKind::Data,
            snapshot: Vec::new(),
            tx,
        }
    }

    /// A resync frame carrying the pre-encode base-signal snapshot.
    pub fn resync(epoch: u32, snapshot: Vec<f64>, tx: Transmission) -> Self {
        Frame {
            epoch,
            kind: FrameKind::Resync,
            snapshot,
            tx,
        }
    }

    /// Bandwidth cost in values: the transmission plus any snapshot values.
    pub fn cost(&self) -> usize {
        self.tx.cost() + self.snapshot.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx() -> Transmission {
        Transmission {
            seq: 3,
            n_signals: 2,
            samples_per_signal: 100,
            w: 4,
            base_updates: vec![BaseUpdate {
                slot: 0,
                values: vec![1.0, 2.0, 3.0, 4.0],
            }],
            intervals: vec![
                IntervalRecord {
                    start: 0,
                    shift: -1,
                    a: 0.0,
                    b: 1.0,
                },
                IntervalRecord {
                    start: 100,
                    shift: 0,
                    a: 1.0,
                    b: 0.0,
                },
            ],
        }
    }

    #[test]
    fn cost_counts_updates_and_records() {
        let t = tx();
        assert_eq!(t.cost(), (4 + 1) + 2 * 4);
    }

    #[test]
    fn ratio_uses_batch_size() {
        let t = tx();
        assert_eq!(t.batch_len(), 200);
        assert!((t.compression_ratio() - 13.0 / 200.0).abs() < 1e-12);
    }
}
