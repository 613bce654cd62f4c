//! Base-station side: replay transmissions into reconstructed batches while
//! mirroring the sensor's base-signal buffer.

use crate::base_signal::BaseSignal;
use crate::error::{Result, SbrError};
use crate::get_intervals::reconstruct_flat;
use crate::transmission::{Frame, FrameKind, Transmission};

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

    fn gap(&self, got: u64) -> SbrError {
        SbrError::Gap {
            node: self.node,
            expected: self.next_seq,
            got,
        }
    }

    /// The layout `X_new` a frame's interval records reference, *without*
    /// advancing the decoder: the current base ∥ updates for a data frame,
    /// the frame's own snapshot ∥ updates for a resync frame (which
    /// re-anchors on it). Either way the layout is self-contained, so an
    /// epoch bump never invalidates an earlier chunk's. Fails on a data
    /// frame out of sequence and on an update of the wrong width.
    pub fn peek_x_new(&self, frame: &Frame) -> Result<Vec<f64>> {
        let tx = &frame.tx;
        let mut x_new = match frame.kind {
            FrameKind::Data => {
                if tx.seq != self.next_seq {
                    return Err(self.gap(tx.seq));
                }
                self.base
                    .as_ref()
                    .map(|b| b.values().to_vec())
                    .unwrap_or_default()
            }
            FrameKind::Resync => frame.snapshot.clone(),
        };
        // lint:allow(cast-truncation): u32 -> usize widens on this 64-bit target
        let w = tx.w as usize;
        for (k, u) in tx.base_updates.iter().enumerate() {
            if u.values.len() != w {
                return Err(SbrError::Corrupt(format!(
                    "base update {k} has width {} ≠ W = {w}",
                    u.values.len()
                )));
            }
            x_new.extend_from_slice(&u.values);
        }
        Ok(x_new)
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

    /// Decode the next transmission, returning per-signal reconstructions.
    pub fn decode(&mut self, tx: &Transmission) -> Result<Vec<Vec<f64>>> {
        if tx.seq != self.next_seq {
            return Err(self.gap(tx.seq));
        }
        // lint:allow(cast-truncation): u32 -> usize widens on this 64-bit target
        let w = tx.w as usize;
        if w == 0 {
            return Err(SbrError::Corrupt("zero base-interval width".into()));
        }
        let base = self.base.get_or_insert_with(|| BaseSignal::new(w));
        if base.w() != w {
            return Err(SbrError::InconsistentState(format!(
                "stream changed base-interval width from {} to {w}",
                base.w()
            )));
        }
        Self::validate_updates(tx, base.num_slots(), w)?;

        // Decode against the candidate layout X_new = X ∥ updates …
        let mut x_new = base.values().to_vec();
        for u in &tx.base_updates {
            x_new.extend_from_slice(&u.values);
        }
        let n_total = tx.batch_len();
        if n_total == 0 {
            return Err(SbrError::Corrupt("empty batch shape".into()));
        }
        if tx.intervals.is_empty() {
            return Err(SbrError::Corrupt(
                "transmission carries no intervals".into(),
            ));
        }
        let flat = reconstruct_flat(&x_new, &tx.intervals, n_total)?;

        // … then land the updates in their final slots for the next batch.
        for u in &tx.base_updates {
            // lint:allow(cast-truncation): slot range-checked by validate_updates above
            base.apply_insert(u.slot as usize, &u.values, tx.seq)?;
        }

        self.next_seq += 1;
        // lint:allow(cast-truncation): u32 -> usize widens on this 64-bit target
        let m = tx.samples_per_signal as usize;
        Ok(flat.chunks_exact(m).map(<[f64]>::to_vec).collect())
    }

    /// Advance the mirrored base-signal state over a transmission *without*
    /// reconstructing its data. Performs the same validation as
    /// [`Decoder::decode`].
    fn apply_updates_only(&mut self, tx: &Transmission) -> Result<()> {
        if tx.seq != self.next_seq {
            return Err(self.gap(tx.seq));
        }
        // lint:allow(cast-truncation): u32 -> usize widens on this 64-bit target
        let w = tx.w as usize;
        if w == 0 {
            return Err(SbrError::Corrupt("zero base-interval width".into()));
        }
        let base = self.base.get_or_insert_with(|| BaseSignal::new(w));
        if base.w() != w {
            return Err(SbrError::InconsistentState(format!(
                "stream changed base-interval width from {} to {w}",
                base.w()
            )));
        }
        Self::validate_updates(tx, base.num_slots(), w)?;
        for u in &tx.base_updates {
            // lint:allow(cast-truncation): slot range-checked by validate_updates above
            base.apply_insert(u.slot as usize, &u.values, tx.seq)?;
        }
        self.next_seq += 1;
        Ok(())
    }

    /// Decode the next v2 frame. Data frames must match the decoder's
    /// current epoch and sequence; resync frames re-anchor the replica —
    /// the snapshot is installed as the new base signal, the sequence
    /// counter jumps to the frame's, and the epoch advances. Either path is
    /// atomic: on any error the decoder is left exactly as it was.
    pub fn decode_frame(&mut self, frame: &Frame) -> Result<Vec<Vec<f64>>> {
        match frame.kind {
            FrameKind::Data => {
                self.check_data_epoch(frame)?;
                self.decode(&frame.tx)
            }
            FrameKind::Resync => {
                let mut next = self.reanchored(frame)?;
                let out = next.decode(&frame.tx)?;
                *self = next;
                Ok(out)
            }
        }
    }

    /// Advance the replica over a frame without reconstructing its data —
    /// the cheap path the station's chunk index takes on ingest. Performs
    /// the same validation as [`Decoder::decode_frame`] and is just as
    /// atomic.
    pub fn apply_frame_updates_only(&mut self, frame: &Frame) -> Result<()> {
        match frame.kind {
            FrameKind::Data => {
                self.check_data_epoch(frame)?;
                self.apply_updates_only(&frame.tx)
            }
            FrameKind::Resync => {
                let mut next = self.reanchored(frame)?;
                next.apply_updates_only(&frame.tx)?;
                *self = next;
                Ok(())
            }
        }
    }

    fn check_data_epoch(&self, frame: &Frame) -> Result<()> {
        if frame.epoch != self.epoch {
            return Err(SbrError::InconsistentState(format!(
                "node {}: data frame from epoch {} but decoder is anchored to epoch {}",
                self.node, frame.epoch, self.epoch
            )));
        }
        Ok(())
    }

    /// Build the decoder a resync frame re-anchors to, without touching
    /// `self`: snapshot installed as the base (empty snapshot = the node
    /// rebooted with a fresh encoder), sequence and epoch taken from the
    /// frame. The epoch must strictly advance — a stale or replayed resync
    /// is rejected.
    fn reanchored(&self, frame: &Frame) -> Result<Decoder> {
        if frame.epoch <= self.epoch {
            return Err(SbrError::InconsistentState(format!(
                "node {}: resync epoch {} does not advance past {}",
                self.node, frame.epoch, self.epoch
            )));
        }
        // lint:allow(cast-truncation): u32 -> usize widens on this 64-bit target
        let w = frame.tx.w as usize;
        if w == 0 {
            return Err(SbrError::Corrupt("zero base-interval width".into()));
        }
        if !frame.snapshot.len().is_multiple_of(w) {
            return Err(SbrError::Corrupt(format!(
                "snapshot length {} is not a multiple of W = {w}",
                frame.snapshot.len()
            )));
        }
        let base = if frame.snapshot.is_empty() {
            None
        } else {
            let mut b = BaseSignal::new(w);
            for (slot, vals) in frame.snapshot.chunks_exact(w).enumerate() {
                b.apply_insert(slot, vals, frame.tx.seq)?;
            }
            Some(b)
        };
        Ok(Decoder {
            base,
            next_seq: frame.tx.seq,
            epoch: frame.epoch,
            node: self.node,
        })
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
        let config = SbrConfig::new(120, 96);
        let mut enc = SbrEncoder::new(2, 128, config).unwrap();
        let mut dec = Decoder::new();
        let t0 = enc.encode(&rows(2, 128, 0)).unwrap();
        dec.decode_frame(&Frame::data(0, t0.clone())).unwrap();
        let before = dec.snapshot();

        // Replayed resync with a non-advancing epoch.
        let stale = Frame::resync(0, vec![], t0.clone());
        assert!(dec.decode_frame(&stale).is_err());
        // Data frame claiming a future epoch (its resync was lost).
        let t1 = enc.encode(&rows(2, 128, 1)).unwrap();
        assert!(dec.decode_frame(&Frame::data(3, t1.clone())).is_err());
        // Malformed snapshot length.
        let ragged = Frame::resync(1, vec![1.0; 3], t1.clone());
        assert!(dec.decode_frame(&ragged).is_err());

        let after = dec.snapshot();
        assert_eq!(before.1, after.1, "failed frames must not advance seq");
        assert_eq!(
            before.0.as_ref().map(|b| b.values().to_vec()),
            after.0.as_ref().map(|b| b.values().to_vec()),
            "failed frames must not mutate the base"
        );
        assert_eq!(dec.epoch(), 0);
        // The in-sequence frame still lands.
        dec.decode_frame(&Frame::data(0, t1)).unwrap();
    }
}
