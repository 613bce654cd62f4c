//! Base-station side: replay transmissions into reconstructed batches while
//! mirroring the sensor's base-signal buffer.

use crate::base_signal::BaseSignal;
use crate::error::{Result, SbrError};
use crate::get_intervals::reconstruct_flat;
use crate::transmission::{Frame, FrameKind, Transmission, MAX_BATCH_VALUES};

/// Stateful decoder for one sensor's transmission stream.
///
/// Transmissions must be fed in sequence order; each call returns the
/// reconstructed batch (one `Vec` per input signal). The decoder's
/// base-signal buffer evolves exactly as the sensor's did, driven purely by
/// the slot indices carried in the stream — it never runs LFU itself.
///
/// Out-of-order or gapped sequence numbers are rejected with
/// [`SbrError::Gap`]; [`Decoder::decode_frame`] additionally understands v2
/// resync frames, which re-anchor the replica at a new epoch after
/// unrecoverable loss.
#[derive(Debug, Default)]
pub struct Decoder {
    base: Option<BaseSignal>,
    next_seq: u64,
    epoch: u32,
    node: u64,
}

impl Decoder {
    /// A decoder expecting a stream that starts at sequence 0, epoch 0.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// A fresh decoder labelled with the sensor node it tracks, so
    /// [`SbrError::Gap`] errors identify the stream.
    pub fn for_node(node: u64) -> Self {
        Decoder {
            node,
            ..Decoder::default()
        }
    }

    /// Resume from a snapshot: the mirrored base signal (if any chunks were
    /// already applied), the next expected sequence number, the resync
    /// epoch and the node label. Used when a station restarts from a
    /// durable checkpoint instead of replaying from zero.
    pub fn resume_v2(base: Option<BaseSignal>, next_seq: u64, epoch: u32, node: u64) -> Self {
        Decoder {
            base,
            next_seq,
            epoch,
            node,
        }
    }

    /// The mirrored base signal (empty before the first transmission).
    pub fn base(&self) -> Option<&BaseSignal> {
        self.base.as_ref()
    }

    /// Sequence number the decoder expects next.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Resync epoch the decoder is currently anchored to (0 until the
    /// stream's first resync frame).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The node label carried into [`SbrError::Gap`] errors.
    pub fn node(&self) -> u64 {
        self.node
    }

    /// Decode the next transmission of the current epoch, returning
    /// per-signal reconstructions.
    pub fn decode(&mut self, tx: &Transmission) -> Result<Vec<Vec<f64>>> {
        self.step(FrameKind::Data, self.epoch, &[], tx, |x_new| {
            reconstruct(&x_new, tx)
        })
    }

    /// Decode the next v2 frame. Data frames must match the decoder's
    /// current epoch and sequence; resync frames re-anchor the replica —
    /// the snapshot is installed as the new base signal, the sequence
    /// counter jumps to the frame's, and the epoch advances. Either path is
    /// atomic: on any error the decoder is left exactly as it was.
    pub fn decode_frame(&mut self, frame: &Frame) -> Result<Vec<Vec<f64>>> {
        let tx = &frame.tx;
        self.step(frame.kind, frame.epoch, &frame.snapshot, tx, |x_new| {
            reconstruct(&x_new, tx)
        })
    }

    /// The one frame step every entry point takes. It validates the frame
    /// against the decoder (the seq/epoch rule, the batch shape and its
    /// record count, update widths and slots), lays out the `X_new` its
    /// interval records reference — the base the updates land on ∥ the
    /// updates — and hands it to `use_x_new`. Only when that succeeds does
    /// the decoder advance: a resync installs its snapshot and epoch, the
    /// updates land in their final slots, and the sequence moves past the
    /// frame. On any error the decoder is unchanged.
    ///
    /// A data frame must carry the anchored epoch, then the next sequence
    /// number ([`SbrError::Gap`] otherwise). A resync frame must advance
    /// the epoch; its snapshot (empty = the node rebooted with a fresh
    /// encoder) replaces the base, so its `X_new` never depends on earlier
    /// chunks. The frame costs one copy of the base, into `X_new`.
    pub(crate) fn step<T>(
        &mut self,
        kind: FrameKind,
        epoch: u32,
        snapshot: &[f64],
        tx: &Transmission,
        use_x_new: impl FnOnce(Vec<f64>) -> Result<T>,
    ) -> Result<T> {
        match kind {
            FrameKind::Data if epoch != self.epoch => {
                return Err(SbrError::InconsistentState(format!(
                    "node {}: data frame from epoch {epoch} but decoder is anchored to epoch {}",
                    self.node, self.epoch
                )));
            }
            FrameKind::Data if tx.seq != self.next_seq => {
                return Err(SbrError::Gap {
                    node: self.node,
                    expected: self.next_seq,
                    got: tx.seq,
                });
            }
            FrameKind::Resync if epoch <= self.epoch => {
                return Err(SbrError::InconsistentState(format!(
                    "node {}: resync epoch {epoch} does not advance past {}",
                    self.node, self.epoch
                )));
            }
            _ => {}
        }
        let next_seq = tx
            .seq
            .checked_add(1)
            .ok_or_else(|| SbrError::Corrupt("sequence number overflows".into()))?;
        // lint:allow(cast-truncation): u32 -> usize widens on this 64-bit target
        let w = tx.w as usize;
        if w == 0 {
            return Err(SbrError::Corrupt("zero base-interval width".into()));
        }
        let n_total = tx.batch_len();
        if n_total == 0 {
            return Err(SbrError::Corrupt("empty batch shape".into()));
        }
        if n_total > MAX_BATCH_VALUES {
            return Err(SbrError::Corrupt(format!(
                "batch shape {} × {} exceeds {MAX_BATCH_VALUES} values",
                tx.n_signals, tx.samples_per_signal
            )));
        }
        // Every signal starts an interval (the encoder's `GetIntervals`
        // begins with one per row and only splits), so a frame carries at
        // least one 32-byte record per signal it declares: what a receiver
        // keeps per signal is bounded by the bytes the frame carries.
        // lint:allow(cast-truncation): u32 -> usize widens on this 64-bit target
        if tx.intervals.len() < tx.n_signals as usize {
            return Err(SbrError::Corrupt(format!(
                "{} interval records for {} signals",
                tx.intervals.len(),
                tx.n_signals
            )));
        }
        // The base the updates land on: the replica, or a resync's snapshot.
        let reanchor = match kind {
            FrameKind::Data => None,
            FrameKind::Resync => Some(Self::install(snapshot, w, tx.seq)?),
        };
        let anchor = match &reanchor {
            Some(base) => base.as_ref(),
            None => self.base.as_ref(),
        };
        if let Some(base) = anchor.filter(|b| b.w() != w) {
            return Err(SbrError::InconsistentState(format!(
                "stream changed base-interval width from {} to {w}",
                base.w()
            )));
        }
        Self::validate_updates(tx, anchor.map_or(0, BaseSignal::num_slots), w)?;
        let base_values = anchor.map(BaseSignal::values).unwrap_or_default();
        let mut x_new = Vec::with_capacity(base_values.len() + w * tx.base_updates.len());
        x_new.extend_from_slice(base_values);
        for u in &tx.base_updates {
            x_new.extend_from_slice(&u.values);
        }
        let out = use_x_new(x_new)?;

        if let Some(base) = reanchor {
            self.base = base;
            self.epoch = epoch;
        }
        let base = self.base.get_or_insert_with(|| BaseSignal::new(w));
        for u in &tx.base_updates {
            // lint:allow(cast-truncation): slot range-checked by validate_updates above
            base.apply_insert(u.slot as usize, &u.values, tx.seq)?;
        }
        self.next_seq = next_seq;
        Ok(out)
    }

    /// The base a resync snapshot installs: `None` for an empty snapshot
    /// (the node rebooted with a fresh encoder).
    fn install(snapshot: &[f64], w: usize, seq: u64) -> Result<Option<BaseSignal>> {
        if !snapshot.len().is_multiple_of(w) {
            return Err(SbrError::Corrupt(format!(
                "snapshot length {} is not a multiple of W = {w}",
                snapshot.len()
            )));
        }
        if snapshot.is_empty() {
            return Ok(None);
        }
        let mut b = BaseSignal::new(w);
        for (slot, vals) in snapshot.chunks_exact(w).enumerate() {
            b.apply_insert(slot, vals, seq)?;
        }
        Ok(Some(b))
    }

    /// Validate every update (width and slot) *before* any mutation, so a
    /// malformed transmission can never leave the replica partially
    /// updated. Slots must hit existing slots or extend the buffer
    /// contiguously, mirroring what `apply_insert` will accept.
    fn validate_updates(tx: &Transmission, mut slots: usize, w: usize) -> Result<()> {
        for (k, u) in tx.base_updates.iter().enumerate() {
            if u.values.len() != w {
                return Err(SbrError::Corrupt(format!(
                    "base update {k} has width {} ≠ W = {w}",
                    u.values.len()
                )));
            }
            let slot = usize::try_from(u.slot).map_err(|_| {
                SbrError::InconsistentState(format!(
                    "base update {k} targets slot {} beyond the address space",
                    u.slot
                ))
            })?;
            if slot > slots {
                return Err(SbrError::InconsistentState(format!(
                    "base update {k} targets slot {slot} but only {slots} slots exist"
                )));
            }
            if slot == slots {
                slots += 1;
            }
        }
        Ok(())
    }

    /// Snapshot the decoder state for later [`Decoder::resume_v2`].
    pub fn snapshot(&self) -> (Option<BaseSignal>, u64) {
        (self.base.clone(), self.next_seq)
    }

    /// Decode a full stream from scratch (replay helper for historical
    /// queries): returns the reconstruction of every batch.
    pub fn replay(stream: &[Transmission]) -> Result<Vec<Vec<Vec<f64>>>> {
        let mut d = Decoder::new();
        stream.iter().map(|tx| d.decode(tx)).collect()
    }
}

/// A batch decoded against its `X_new`: one row of `M` samples per signal.
fn reconstruct(x_new: &[f64], tx: &Transmission) -> Result<Vec<Vec<f64>>> {
    let flat = reconstruct_flat(x_new, &tx.intervals, tx.batch_len())?;
    // lint:allow(cast-truncation): u32 -> usize widens on this 64-bit target
    let m = tx.samples_per_signal as usize;
    Ok(flat.chunks_exact(m).map(<[f64]>::to_vec).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SbrConfig;
    use crate::sbr::SbrEncoder;

    fn rows(n: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|r| {
                (0..m)
                    .map(|i| {
                        let t = (i as f64) + (seed as f64) * 31.0;
                        (t * 0.37 + r as f64).sin() * 4.0 + t * 0.02 * (r + 1) as f64
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn decoder_mirrors_encoder_base_signal() {
        let config = SbrConfig::new(120, 96);
        let mut enc = SbrEncoder::new(2, 128, config).unwrap();
        let mut dec = Decoder::new();
        for s in 0..5 {
            let tx = enc.encode(&rows(2, 128, s)).unwrap();
            dec.decode(&tx).unwrap();
            assert_eq!(
                dec.base().unwrap().values(),
                enc.base().values(),
                "replica diverged at transmission {s}"
            );
        }
    }

    #[test]
    fn out_of_order_rejected() {
        let config = SbrConfig::new(64, 64);
        let mut enc = SbrEncoder::new(1, 64, config).unwrap();
        let t0 = enc.encode(&rows(1, 64, 0)).unwrap();
        let t1 = enc.encode(&rows(1, 64, 1)).unwrap();
        let mut dec = Decoder::new();
        assert!(dec.decode(&t1).is_err());
        dec.decode(&t0).unwrap();
        assert!(dec.decode(&t0).is_err()); // replayed duplicate
        dec.decode(&t1).unwrap();
    }

    #[test]
    fn corrupt_update_width_rejected() {
        let config = SbrConfig::new(64, 64);
        let mut enc = SbrEncoder::new(1, 64, config).unwrap();
        let mut tx = enc.encode(&rows(1, 64, 0)).unwrap();
        if tx.base_updates.is_empty() {
            tx.base_updates.push(crate::transmission::BaseUpdate {
                slot: 0,
                values: vec![0.0; 3],
            });
        } else {
            tx.base_updates[0].values.pop();
        }
        assert!(Decoder::new().decode(&tx).is_err());
    }

    #[test]
    fn replay_matches_incremental() {
        let config = SbrConfig::new(100, 80);
        let mut enc = SbrEncoder::new(2, 96, config).unwrap();
        let txs: Vec<_> = (0..4)
            .map(|s| enc.encode(&rows(2, 96, s)).unwrap())
            .collect();
        let replayed = Decoder::replay(&txs).unwrap();
        let mut dec = Decoder::new();
        for (i, tx) in txs.iter().enumerate() {
            assert_eq!(replayed[i], dec.decode(tx).unwrap());
        }
    }

    #[test]
    fn empty_transmission_rejected() {
        let tx = Transmission {
            seq: 0,
            n_signals: 1,
            samples_per_signal: 8,
            w: 2,
            base_updates: vec![],
            intervals: vec![],
        };
        assert!(Decoder::new().decode(&tx).is_err());
    }

    #[test]
    fn gap_error_names_node_and_sequences() {
        let config = SbrConfig::new(64, 64);
        let mut enc = SbrEncoder::new(1, 64, config).unwrap();
        enc.encode(&rows(1, 64, 0)).unwrap();
        let t1 = enc.encode(&rows(1, 64, 1)).unwrap();
        let mut dec = Decoder::for_node(7);
        assert_eq!(
            dec.decode(&t1).unwrap_err(),
            SbrError::Gap {
                node: 7,
                expected: 0,
                got: 1
            }
        );
    }

    #[test]
    fn resync_frame_reanchors_mid_stream() {
        // Encoder runs 4 chunks; the decoder only ever sees chunk 3, as a
        // resync frame carrying the pre-encode base snapshot. Its
        // reconstruction must match a decoder that saw everything.
        let config = SbrConfig::new(120, 96);
        let mut enc = SbrEncoder::new(2, 128, config).unwrap();
        let mut full = Decoder::new();
        let mut txs = Vec::new();
        for s in 0..3 {
            let tx = enc.encode(&rows(2, 128, s)).unwrap();
            full.decode(&tx).unwrap();
            txs.push(tx);
        }
        let snapshot = enc.base().values().to_vec();
        let tx3 = enc.encode(&rows(2, 128, 3)).unwrap();
        let expect = full.decode(&tx3).unwrap();

        let mut lossy = Decoder::for_node(2);
        let frame = Frame::resync(1, snapshot, tx3);
        assert_eq!(lossy.decode_frame(&frame).unwrap(), expect);
        assert_eq!(lossy.epoch(), 1);
        assert_eq!(lossy.next_seq(), 4);
        assert_eq!(lossy.base().unwrap().values(), enc.base().values());
    }

    #[test]
    fn reboot_resync_restarts_from_empty_base() {
        let config = SbrConfig::new(120, 96);
        let mut enc = SbrEncoder::new(2, 128, config.clone()).unwrap();
        let mut dec = Decoder::new();
        for s in 0..2 {
            dec.decode(&enc.encode(&rows(2, 128, s)).unwrap()).unwrap();
        }
        // Node reboots: fresh encoder, seq restarts at 0, epoch bumps.
        let mut enc2 = SbrEncoder::new(2, 128, config).unwrap();
        let tx = enc2.encode(&rows(2, 128, 9)).unwrap();
        let mut shadow = Decoder::new();
        let expect = shadow.decode(&tx.clone()).unwrap();
        let got = dec.decode_frame(&Frame::resync(1, vec![], tx)).unwrap();
        assert_eq!(got, expect);
        assert_eq!(dec.next_seq(), 1);
        assert_eq!(dec.base().unwrap().values(), enc2.base().values());
    }

    #[test]
    fn stale_resync_and_wrong_epoch_data_rejected_atomically() {
        use crate::transmission::BaseUpdate;
        let config = SbrConfig::new(120, 96);
        let mut enc = SbrEncoder::new(2, 128, config).unwrap();
        let mut dec = Decoder::new();
        let t0 = enc.encode(&rows(2, 128, 0)).unwrap();
        dec.decode_frame(&Frame::data(0, t0.clone())).unwrap();
        let t1 = enc.encode(&rows(2, 128, 1)).unwrap();
        let w = t1.w as usize;
        let with_update = |slot: u64, width: usize| {
            let mut tx = t1.clone();
            tx.base_updates.push(BaseUpdate {
                slot,
                values: vec![0.5; width],
            });
            tx
        };
        let mut overrun = t1.clone();
        overrun.intervals[0].shift = 1 << 20;
        let mut huge = t1.clone();
        (huge.n_signals, huge.samples_per_signal) = (u32::MAX, u32::MAX);
        let mut zero_w = t1.clone();
        zero_w.w = 0;
        let mut few_records = t1.clone();
        few_records.intervals.truncate(1);

        for (label, frame) in [
            // Replayed resync with a non-advancing epoch.
            ("stale resync", Frame::resync(0, vec![], t0)),
            // Data frame claiming a future epoch (its resync was lost).
            ("future epoch", Frame::data(3, t1.clone())),
            (
                "ragged snapshot",
                Frame::resync(1, vec![1.0; 3], t1.clone()),
            ),
            ("update width", Frame::data(0, with_update(0, w - 1))),
            ("slot gap", Frame::data(0, with_update(999, w))),
            ("record overruns X_new", Frame::data(0, overrun)),
            ("batch shape", Frame::data(0, huge)),
            ("zero width", Frame::data(0, zero_w)),
            ("fewer records than signals", Frame::data(0, few_records)),
        ] {
            let before = (dec.epoch(), dec.snapshot());
            assert!(dec.decode_frame(&frame).is_err(), "{label} accepted");
            let after = (dec.epoch(), dec.snapshot());
            assert_eq!(before.0, after.0, "{label} moved the epoch");
            assert_eq!(before.1 .1, after.1 .1, "{label} advanced seq");
            assert_eq!(
                before.1 .0.map(|b| b.values().to_vec()),
                after.1 .0.map(|b| b.values().to_vec()),
                "{label} mutated the base"
            );
        }
        // The in-sequence frame still lands.
        dec.decode_frame(&Frame::data(0, t1)).unwrap();
    }
}
