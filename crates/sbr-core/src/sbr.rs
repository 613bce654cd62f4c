//! The `SBR` driver (Algorithm 5): one object per sensor that turns each
//! full buffer into a [`Transmission`], evolving its base signal as it goes.

use crate::base_signal::BaseSignal;
use crate::config::{BaseBuilder, SbrConfig};
use crate::error::{Result, SbrError};
use crate::fit_cache::FitCache;
use crate::get_base::GetBaseBuilder;
use crate::get_intervals::get_intervals;
use crate::search::SearchContext;
use crate::series::MultiSeries;
use crate::transmission::{BaseUpdate, Transmission};

/// Diagnostics for the most recent [`SbrEncoder::encode`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeStats {
    /// Number of base intervals inserted (`Ins`).
    pub inserted: usize,
    /// Batch error of the transmitted approximation, under the configured
    /// metric, as estimated by `GetIntervals`.
    pub total_err: f64,
    /// How many `GetIntervals` probes the insertion search ran.
    pub search_probes: usize,
    /// Number of approximation intervals transmitted.
    pub intervals: usize,
}

/// Stateful per-sensor encoder.
///
/// Batches must all share the shape declared at construction (`n_signals` ×
/// `samples_per_signal`), which pins the base-interval width `W` — the base
/// signal's slot geometry cannot change across transmissions.
pub struct SbrEncoder {
    n_signals: usize,
    samples_per_signal: usize,
    config: SbrConfig,
    w: usize,
    capacity_slots: usize,
    base: BaseSignal,
    builder: Box<dyn BaseBuilder + Send>,
    /// Cross-batch memo of `GetBase` pair-fit errors, handed to the builder
    /// on every batch. Windows repeated from the previous batch skip their
    /// fits entirely; see [`crate::fit_cache`].
    fit_cache: FitCache,
    seq: u64,
    last_stats: Option<EncodeStats>,
}

impl SbrEncoder {
    /// Create an encoder for batches of `n_signals × samples_per_signal`
    /// values under `config`, using the paper's `GetBase` construction.
    pub fn new(n_signals: usize, samples_per_signal: usize, config: SbrConfig) -> Result<Self> {
        Self::with_builder(
            n_signals,
            samples_per_signal,
            config,
            Box::new(GetBaseBuilder),
        )
    }

    /// Like [`SbrEncoder::new`] but with a custom base-signal construction
    /// (e.g. the SVD/DCT alternatives from the paper's appendix).
    pub fn with_builder(
        n_signals: usize,
        samples_per_signal: usize,
        config: SbrConfig,
        builder: Box<dyn BaseBuilder + Send>,
    ) -> Result<Self> {
        let w = config.validate(n_signals, samples_per_signal)?;
        if config.m_base < w && config.update_base {
            return Err(SbrError::InvalidConfig(format!(
                "base buffer of {} values cannot hold one W = {w} interval",
                config.m_base
            )));
        }
        Ok(SbrEncoder {
            n_signals,
            samples_per_signal,
            capacity_slots: config.m_base / w,
            w,
            config,
            base: BaseSignal::new(w),
            builder,
            fit_cache: FitCache::new(),
            seq: 0,
            last_stats: None,
        })
    }

    /// The derived base-interval width `W`.
    pub fn w(&self) -> usize {
        self.w
    }

    /// The encoder's current base signal.
    pub fn base(&self) -> &BaseSignal {
        &self.base
    }

    /// The configuration in force.
    pub fn config(&self) -> &SbrConfig {
        &self.config
    }

    /// Diagnostics of the last `encode` call.
    pub fn last_stats(&self) -> Option<EncodeStats> {
        self.last_stats
    }

    /// Enable/disable base-signal updating mid-stream — the §4.4 shortcut
    /// for constrained deployments: once the dictionary has converged, a
    /// node can skip `GetBase`/`Search` entirely (only `GetIntervals` runs,
    /// linear in the batch size) and re-enable updates if the
    /// approximation quality degrades.
    pub fn set_update_base(&mut self, enabled: bool) {
        self.config.update_base = enabled;
    }

    /// Swap the configuration for a bounded-encoding call (`bounds.rs`).
    /// Budget knobs only — the base-signal geometry (`W`, slot capacity) is
    /// fixed at construction and must not change mid-stream.
    pub(crate) fn set_config_for_bounds(&mut self, config: SbrConfig) {
        debug_assert_eq!(
            config.w_for(self.n_signals * self.samples_per_signal),
            self.w
        );
        self.config = config;
    }

    /// Next transmission sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Compress one batch given as per-signal rows.
    pub fn encode(&mut self, rows: &[Vec<f64>]) -> Result<Transmission> {
        let data = MultiSeries::from_rows(rows)?;
        self.encode_series(&data)
    }

    /// Compress one batch.
    pub fn encode_series(&mut self, data: &MultiSeries) -> Result<Transmission> {
        if data.n_signals() != self.n_signals
            || data.samples_per_signal() != self.samples_per_signal
        {
            return Err(SbrError::ShapeMismatch {
                expected_signals: self.n_signals,
                expected_len: self.samples_per_signal,
                got: (data.n_signals(), data.samples_per_signal()),
            });
        }

        let obs = self.config.obs.clone();
        let _encode_span = obs.span("sbr_core.sbr.encode_ns", &obs.encode_ns);

        // Step 1 (Algorithms 4, 6, 7): rank candidate features and pick how
        // many to insert, keeping the winning probe's approximation.
        let (candidates, ins, probes, probed) = if self.config.update_base {
            let max_ins = self.config.max_ins(self.w);
            // K CBIs per GetBase run; the benefit matrix is K×K.
            let k = self.n_signals * (self.samples_per_signal / self.w);
            obs.matrix_cells.set((k * k) as f64);
            let candidates = {
                let _s = obs.span("sbr_core.get_base.build_ns", &obs.get_base_ns);
                self.builder
                    .build(data, self.w, max_ins, &self.config, &mut self.fit_cache)
            };
            let mut search =
                SearchContext::new(&self.base, &candidates, data, self.w, &self.config);
            let (mut ins, probes) = {
                let _s = obs.span("sbr_core.search.run_ns", &obs.search_ns);
                let ins = search.run();
                (ins, search.probes())
            };
            obs.search_probes.add(probes as u64);
            // Safety net: the binary search assumes unimodality; never let a
            // bad probe leave us with a count whose leftover budget cannot
            // hold one interval per signal (Ins = 0 is always feasible —
            // `validate` guaranteed TotalBand ≥ 4N).
            while ins > 0
                && self.config.total_band.saturating_sub(ins * (self.w + 1)) < 4 * self.n_signals
            {
                ins -= 1;
            }
            let probed = search.take_approximation(ins);
            (candidates, ins, probes, probed)
        } else {
            (Vec::new(), 0, 0, None)
        };
        let chosen = &candidates[..ins];

        // Step 2: decide where the inserted intervals finally live (LFU
        // eviction when the buffer is full). The decoder mirrors this from
        // the transmitted slot indices alone.
        let placements = self
            .base
            .plan_placement(ins, self.capacity_slots.max(ins))?;

        // Step 3 (Algorithm 3): approximate against the candidate layout
        // X_new = X ∥ inserted, with the bandwidth left over after paying
        // for the insertions. The Search already ran exactly this
        // `GetIntervals` as its probe of `ins` (the probe cache's fits are
        // bit-identical to a full sweep), so that probe is transmitted; the
        // fit runs here only when `ins` was never probed — a frozen base,
        // no candidates, or a count the safety net lowered.
        let approx = match probed {
            Some(approx) => approx,
            None => {
                let mut scratch = Vec::new();
                let chosen_refs: Vec<&[f64]> = chosen.iter().map(Vec::as_slice).collect();
                let x_new = self.base.flat_with_appended(&chosen_refs, &mut scratch);
                let budget = self.config.total_band - ins * (self.w + 1);
                get_intervals(x_new, data, budget, self.w, &self.config)?
            }
        };

        // Step 4: LFU accounting against the X_new layout, translated to
        // final slots (uses of evicted content are dropped).
        let old_slots = self.base.num_slots();
        let total_new_slots = old_slots + ins;
        let mut slot_uses = vec![0u64; total_new_slots];
        for iv in &approx.intervals {
            if iv.shift >= 0 && iv.length > 0 {
                let first = iv.shift as usize / self.w;
                let last = (iv.shift as usize + iv.length - 1) / self.w;
                let last = last.min(total_new_slots.saturating_sub(1));
                for u in &mut slot_uses[first..=last] {
                    *u += 1;
                }
            }
        }
        let replaced: Vec<usize> = placements
            .iter()
            .copied()
            .filter(|&p| p < old_slots)
            .collect();
        for (k, interval) in chosen.iter().enumerate() {
            self.base.apply_insert(placements[k], interval, self.seq)?;
        }
        for (slot, &uses) in slot_uses.iter().enumerate().take(old_slots) {
            if uses > 0 && !replaced.contains(&slot) {
                self.base.bump_use(slot, uses);
            }
        }
        for (k, &p) in placements.iter().enumerate() {
            let uses = slot_uses[old_slots + k];
            if uses > 0 {
                self.base.bump_use(p, uses);
            }
        }

        obs.base_inserted.add(ins as u64);
        obs.base_evicted.add(replaced.len() as u64);
        obs.base_slots.set(self.base.num_slots() as f64);
        for iv in &approx.intervals {
            if iv.is_fallback() {
                obs.tx_fallback_intervals.inc();
            } else {
                obs.tx_mapped_intervals.inc();
            }
        }

        let tx = Transmission {
            seq: self.seq,
            n_signals: self.n_signals as u32,
            samples_per_signal: self.samples_per_signal as u32,
            w: self.w as u32,
            base_updates: chosen
                .iter()
                .zip(&placements)
                .map(|(values, &slot)| BaseUpdate {
                    slot: slot as u64,
                    values: values.clone(),
                })
                .collect(),
            intervals: approx.intervals.iter().map(|iv| iv.record()).collect(),
        };
        debug_assert!(tx.cost() <= self.config.total_band);

        self.last_stats = Some(EncodeStats {
            inserted: ins,
            total_err: approx.total_err,
            search_probes: probes,
            intervals: approx.intervals.len(),
        });
        self.seq += 1;
        Ok(tx)
    }
}

impl std::fmt::Debug for SbrEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SbrEncoder")
            .field("n_signals", &self.n_signals)
            .field("samples_per_signal", &self.samples_per_signal)
            .field("w", &self.w)
            .field("seq", &self.seq)
            .field("base_slots", &self.base.num_slots())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Decoder;
    use crate::metric::ErrorMetric;

    fn patterned_rows(n: usize, m: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|r| {
                (0..m)
                    .map(|i| {
                        ((i % 32) as f64 * 0.7 + r as f64).sin() * 5.0
                            + (i as f64 * 0.01) * (r + 1) as f64
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn encode_respects_budget() {
        let rows = patterned_rows(2, 128);
        let config = SbrConfig::new(64, 64);
        let mut enc = SbrEncoder::new(2, 128, config).unwrap();
        for _ in 0..3 {
            let tx = enc.encode(&rows).unwrap();
            assert!(tx.cost() <= 64, "cost {} > budget", tx.cost());
        }
    }

    #[test]
    fn base_never_exceeds_m_base() {
        let rows = patterned_rows(2, 128);
        let config = SbrConfig::new(120, 48); // capacity = 48/16 = 3 slots
        let mut enc = SbrEncoder::new(2, 128, config).unwrap();
        for round in 0..6 {
            // Vary the data so new features keep appearing.
            let shifted: Vec<Vec<f64>> = rows
                .iter()
                .map(|r| {
                    r.iter()
                        .enumerate()
                        .map(|(i, v)| v + ((i + round * 13) as f64 * 0.9).sin() * round as f64)
                        .collect()
                })
                .collect();
            enc.encode(&shifted).unwrap();
            assert!(enc.base().len() <= 48, "base grew past M_base");
        }
    }

    #[test]
    fn seq_increments() {
        let rows = patterned_rows(1, 64);
        let mut enc = SbrEncoder::new(1, 64, SbrConfig::new(32, 32)).unwrap();
        assert_eq!(enc.seq(), 0);
        let t0 = enc.encode(&rows).unwrap();
        let t1 = enc.encode(&rows).unwrap();
        assert_eq!((t0.seq, t1.seq), (0, 1));
        assert_eq!(enc.seq(), 2);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut enc = SbrEncoder::new(2, 64, SbrConfig::new(64, 64)).unwrap();
        let err = enc.encode(&patterned_rows(3, 64)).unwrap_err();
        assert!(matches!(err, SbrError::ShapeMismatch { .. }));
    }

    #[test]
    fn frozen_base_sends_no_updates() {
        let rows = patterned_rows(2, 128);
        let config = SbrConfig::new(64, 64).frozen_base();
        let mut enc = SbrEncoder::new(2, 128, config).unwrap();
        let tx = enc.encode(&rows).unwrap();
        assert!(tx.base_updates.is_empty());
        assert_eq!(enc.last_stats().unwrap().inserted, 0);
    }

    #[test]
    fn update_base_toggles_mid_stream() {
        // The §4.4 shortcut: freeze a warmed-up dictionary, keep encoding
        // through a regime change, then thaw it. The decoder follows
        // throughout.
        let rows = patterned_rows(2, 128);
        let shock: Vec<Vec<f64>> = (0..2)
            .map(|r| {
                (0..128)
                    .map(|i| ((i as f64 * 1.9 + r as f64).sin() * 80.0) + ((i * i) % 23) as f64)
                    .collect()
            })
            .collect();
        let mut enc = SbrEncoder::new(2, 128, SbrConfig::new(96, 96)).unwrap();
        let mut dec = Decoder::new();
        let mut encode_checked = |enc: &mut SbrEncoder, rows: &[Vec<f64>]| {
            let tx = enc.encode(rows).unwrap();
            let stats = enc.last_stats().unwrap();
            assert_eq!(tx.base_updates.len(), stats.inserted);
            let rec = dec.decode(&tx).unwrap();
            let sse: f64 = rows
                .iter()
                .zip(&rec)
                .map(|(orig, r)| ErrorMetric::Sse.score(orig, r))
                .sum();
            assert!(
                (sse - stats.total_err).abs() <= 1e-6 * (1.0 + sse),
                "decoded SSE {sse} != reported {}",
                stats.total_err
            );
            stats.inserted
        };

        for _ in 0..2 {
            encode_checked(&mut enc, &rows);
        }
        let warm_slots = enc.base().num_slots();
        assert!(warm_slots > 0, "warm-up must populate the dictionary");

        // Frozen: the new regime is approximated from the old dictionary.
        enc.set_update_base(false);
        for data in [&rows, &shock, &shock] {
            assert_eq!(encode_checked(&mut enc, data), 0);
        }
        assert_eq!(enc.base().num_slots(), warm_slots);

        // Thawed: the regime the frozen base never learned is inserted.
        enc.set_update_base(true);
        assert!(
            encode_checked(&mut enc, &shock) > 0,
            "a new regime must resume insertions"
        );
    }

    #[test]
    fn roundtrip_error_matches_reported_error() {
        let rows = patterned_rows(3, 96);
        let config = SbrConfig::new(150, 100);
        let mut enc = SbrEncoder::new(3, 96, config).unwrap();
        let mut dec = Decoder::new();
        for _ in 0..4 {
            let tx = enc.encode(&rows).unwrap();
            let rec = dec.decode(&tx).unwrap();
            let mut sse = 0.0;
            for (orig, r) in rows.iter().zip(&rec) {
                sse += ErrorMetric::Sse.score(orig, r);
            }
            let reported = enc.last_stats().unwrap().total_err;
            assert!(
                (sse - reported).abs() <= 1e-6 * (1.0 + sse),
                "decoded SSE {sse} != reported {reported}"
            );
        }
    }

    #[test]
    fn repeated_batches_insert_less_over_time() {
        // Once the dictionary captures the patterns, later transmissions
        // should insert few or no new intervals (Table 6's behaviour).
        let rows = patterned_rows(2, 256);
        let config = SbrConfig::new(200, 200);
        let mut enc = SbrEncoder::new(2, 256, config).unwrap();
        enc.encode(&rows).unwrap();
        let first = enc.last_stats().unwrap().inserted;
        enc.encode(&rows).unwrap();
        let later = enc.last_stats().unwrap().inserted;
        assert!(
            later <= first,
            "identical data must not need more insertions ({later} > {first})"
        );
    }

    #[test]
    fn error_improves_with_bandwidth() {
        let rows = patterned_rows(2, 256);
        let mut errs = Vec::new();
        for band in [48, 96, 192] {
            let mut enc = SbrEncoder::new(2, 256, SbrConfig::new(band, 128)).unwrap();
            enc.encode(&rows).unwrap();
            errs.push(enc.last_stats().unwrap().total_err);
        }
        assert!(errs[2] <= errs[1] + 1e-9);
        assert!(errs[1] <= errs[0] + 1e-9);
    }

    #[test]
    fn learning_encoders_transmit_the_winning_probe() {
        // A learning batch runs GetIntervals once per Search probe and never
        // again: no fit sweeps the whole dictionary. A frozen batch never
        // searches and fits exactly once. Either way the transmitted
        // intervals are what a whole-dictionary fit of X_new produces.
        use crate::obs::{MetricsRecorder, Recorder as _};
        use std::sync::Arc;
        let rows = patterned_rows(3, 256 + 6 * 11);
        let batches: Vec<Vec<Vec<f64>>> = (0..6)
            .map(|b| {
                rows.iter()
                    .map(|r| r[b * 11..b * 11 + 256].to_vec())
                    .collect()
            })
            .collect();
        let rec = Arc::new(MetricsRecorder::new());
        let plain = SbrConfig::new(200, 256);
        let mut enc = SbrEncoder::new(3, 256, plain.clone().with_recorder(rec.clone())).unwrap();
        let tallies = || {
            let snap = rec.snapshot();
            let c = |name| snap.counter(name).unwrap_or(0);
            let fits = snap
                .histogram("sbr_core.get_intervals.run_ns")
                .map_or(0, |h| h.count);
            (
                fits,
                c("sbr_core.search.probes"),
                c("sbr_core.best_map.direct_sweeps"),
            )
        };
        for (t, batch) in batches.iter().enumerate() {
            let frozen = t >= 3;
            enc.set_update_base(!frozen);
            let base = enc.base().clone();
            let (fits0, probes0, full0) = tallies();
            let tx = enc.encode(batch).unwrap();
            let (fits, probes, full) = tallies();
            let (fits, probes, full) = (fits - fits0, probes - probes0, full - full0);
            let label = format!("batch {t}");
            if frozen {
                assert_eq!(fits, 1, "{label}: a frozen batch fits once");
            } else {
                assert!(probes > 0, "{label}: the search must probe");
                assert!(fits <= probes, "{label}: {fits} fits for {probes} probes");
                assert_eq!(full, 0, "{label}: a probe was re-fitted");
            }

            let ins = tx.base_updates.len();
            let inserted: Vec<&[f64]> = tx
                .base_updates
                .iter()
                .map(|u| u.values.as_slice())
                .collect();
            let mut scratch = Vec::new();
            let x_new = base.flat_with_appended(&inserted, &mut scratch);
            let budget = plain.total_band - ins * (enc.w() + 1);
            let data = MultiSeries::from_rows(batch).unwrap();
            let refit = get_intervals(x_new, &data, budget, enc.w(), &plain).unwrap();
            let want: Vec<_> = refit.intervals.iter().map(|iv| iv.record()).collect();
            assert_eq!(tx.intervals, want, "{label}: transmitted != re-fit");
            assert_eq!(
                enc.last_stats().unwrap().total_err.to_bits(),
                refit.total_err.to_bits(),
                "{label}"
            );
        }
        assert!(enc.base().num_slots() > 0, "nothing was learned");
    }

    #[test]
    fn m_base_smaller_than_w_rejected() {
        let config = SbrConfig::new(64, 4).with_w(16);
        assert!(SbrEncoder::new(2, 128, config).is_err());
    }
}
