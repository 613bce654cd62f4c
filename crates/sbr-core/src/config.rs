//! Encoder configuration (Table 1 of the paper) and the pluggable
//! base-signal construction hook.

use crate::error::{Result, SbrError};
use crate::metric::ErrorMetric;
use crate::series::MultiSeries;
use crate::transmission::MAX_BATCH_VALUES;

/// Configuration of an [`SbrEncoder`](crate::SbrEncoder).
///
/// The paper stresses that the user/application supplies only two knobs —
/// the per-transmission bandwidth budget `TotalBand` and the base-signal
/// buffer size `M_base`; everything else is derived. The extra fields here
/// default to the paper's choices and exist for the ablation experiments.
#[derive(Debug, Clone)]
pub struct SbrConfig {
    /// Bandwidth budget per transmission, in values (`TotalBand`).
    pub total_band: usize,
    /// Base-signal buffer size, in values (`M_base`).
    pub m_base: usize,
    /// The error metric to minimize.
    pub metric: ErrorMetric,
    /// Whether `BestMap` may fall back to plain linear regression when the
    /// base signal correlates poorly (on in the paper's main algorithm; off
    /// in the Table 5 base-signal comparison).
    pub allow_linear_fallback: bool,
    /// Override the derived base-interval width `W = ⌊√n⌋`.
    pub w_override: Option<usize>,
    /// `BestMap` only shifts intervals no longer than this multiple of `W`
    /// over the base signal (2 in the paper).
    pub max_shift_len_factor: usize,
    /// When set, `GetIntervals` stops splitting as soon as the batch error
    /// drops to this target, even if budget remains (§4.5 combined
    /// error/space bounds).
    pub error_target: Option<f64>,
    /// Probe every candidate insertion count instead of binary-searching
    /// (Algorithm 7 assumes the error-vs-insertions curve is unimodal;
    /// exhaustive probing is the ground truth the ablation compares
    /// against). Costs `O(maxIns)` `GetIntervals` runs instead of
    /// `O(log maxIns)`.
    pub exhaustive_search: bool,
    /// When false, skip base-signal construction and updating entirely and
    /// only run `GetIntervals` against the current dictionary — the
    /// shortcut §4.4 recommends for constrained deployments once the
    /// dictionary has converged.
    pub update_base: bool,
    /// Observability handles for the encode pipeline. Defaults to fully
    /// disabled (every hook a single branch); attach a live recorder with
    /// [`SbrConfig::with_recorder`]. Never affects the output — only what
    /// is measured.
    pub obs: crate::obs::EncodeObs,
}

impl SbrConfig {
    /// A configuration with the paper's defaults for the given budgets.
    pub fn new(total_band: usize, m_base: usize) -> Self {
        SbrConfig {
            total_band,
            m_base,
            metric: ErrorMetric::Sse,
            allow_linear_fallback: true,
            w_override: None,
            max_shift_len_factor: 2,
            error_target: None,
            exhaustive_search: false,
            update_base: true,
            obs: crate::obs::EncodeObs::default(),
        }
    }

    /// Attach a live metrics recorder (builder style): every pipeline
    /// stage records per-phase timings, fit and sweep counts and
    /// base-signal churn into it, and spans are traced when the recorder
    /// has a trace sink.
    pub fn with_recorder(mut self, recorder: std::sync::Arc<dyn crate::obs::Recorder>) -> Self {
        self.obs = crate::obs::EncodeObs::new(recorder);
        self
    }

    /// Share a frame-lifecycle timeline with the encode pipeline (builder
    /// style), so encode-side events land in the same bounded ring as the
    /// network layer's. Call after [`SbrConfig::with_recorder`] —
    /// attaching a recorder rebuilds the handle bundle. Never affects the
    /// output — only what is observed.
    pub fn with_timeline(mut self, timeline: crate::obs::Timeline) -> Self {
        self.obs.set_timeline(timeline);
        self
    }

    /// Set the error metric (builder style).
    pub fn with_metric(mut self, metric: ErrorMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Disable the linear-regression fall-back (builder style).
    pub fn without_fallback(mut self) -> Self {
        self.allow_linear_fallback = false;
        self
    }

    /// Force a base-interval width (builder style).
    pub fn with_w(mut self, w: usize) -> Self {
        self.w_override = Some(w);
        self
    }

    /// Freeze the base signal (builder style); see
    /// [`SbrConfig::update_base`].
    pub fn frozen_base(mut self) -> Self {
        self.update_base = false;
        self
    }

    /// Returns the configuration unchanged: the encoder runs on the
    /// calling thread, as on a sensor node's one CPU, whatever the count.
    /// Kept only because the pipeline benchmark still calls it; deleted at
    /// the next change to the benchmark.
    #[deprecated(note = "the encoder is single-threaded; the thread count is ignored")]
    pub fn with_threads(self, _num_threads: usize) -> Self {
        self
    }

    /// Derived base-interval width for a batch of `n` values.
    pub fn w_for(&self, n: usize) -> usize {
        self.w_override
            .unwrap_or_else(|| ((n as f64).sqrt().floor() as usize).max(1))
    }

    /// `maxIns = min(M_base, TotalBand) / W` (Table 1).
    pub fn max_ins(&self, w: usize) -> usize {
        self.m_base.min(self.total_band) / w.max(1)
    }

    /// Validate against a batch shape; returns the derived `W`. A batch
    /// above [`MAX_BATCH_VALUES`] is rejected, so no encoder emits a frame
    /// its receiver refuses.
    pub fn validate(&self, n_signals: usize, m: usize) -> Result<usize> {
        let n = n_signals
            .checked_mul(m)
            .filter(|&n| n <= MAX_BATCH_VALUES)
            .ok_or_else(|| {
                SbrError::InvalidConfig(format!(
                    "batch of {n_signals} × {m} values exceeds {MAX_BATCH_VALUES}"
                ))
            })?;
        if self.total_band < 4 * n_signals {
            return Err(SbrError::BudgetTooSmall {
                total_band: self.total_band,
                required: 4 * n_signals,
            });
        }
        let w = self.w_for(n);
        if w == 0 || w > n {
            return Err(SbrError::InvalidConfig(format!(
                "base interval width {w} invalid for batch of {n} values"
            )));
        }
        if self.max_shift_len_factor == 0 {
            return Err(SbrError::InvalidConfig(
                "max_shift_len_factor must be at least 1".into(),
            ));
        }
        Ok(w)
    }
}

/// Strategy for proposing candidate base intervals from a batch.
///
/// The paper's `GetBase()` greedy selection is the default
/// ([`crate::GetBaseBuilder`]); the appendix's SVD and DCT constructions are
/// provided by the `sbr-baselines` crate through this same hook.
pub trait BaseBuilder {
    /// Propose up to `max_ins` candidate base intervals of width `w`,
    /// ordered by decreasing priority. The SBR driver decides how many of
    /// them are actually inserted.
    ///
    /// `config` carries the metric and the observability bundle; `cache`
    /// is the encoder's cross-batch
    /// [`FitCache`](crate::fit_cache::FitCache). Builders that fit
    /// candidate pairs (the paper's `GetBase`) memoize through it; the
    /// appendix's SVD/DCT constructions ignore both. Implementations must
    /// return the same output for every cache state.
    fn build(
        &self,
        data: &MultiSeries,
        w: usize,
        max_ins: usize,
        config: &SbrConfig,
        cache: &mut crate::fit_cache::FitCache,
    ) -> Vec<Vec<f64>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SbrConfig::new(100, 50);
        assert!(c.allow_linear_fallback);
        assert!(c.update_base);
        assert_eq!(c.max_shift_len_factor, 2);
        assert_eq!(c.metric, ErrorMetric::Sse);
    }

    #[test]
    fn w_defaults_to_floor_sqrt() {
        let c = SbrConfig::new(100, 50);
        assert_eq!(c.w_for(20480), 143);
        assert_eq!(c.with_w(64).w_for(20480), 64);
    }

    #[test]
    fn max_ins_uses_min_of_budgets() {
        let c = SbrConfig::new(100, 50);
        assert_eq!(c.max_ins(10), 5); // min(50, 100)/10
        let c2 = SbrConfig::new(30, 50);
        assert_eq!(c2.max_ins(10), 3);
    }

    #[test]
    fn validate_rejects_tiny_budget() {
        let c = SbrConfig::new(10, 50);
        assert!(matches!(
            c.validate(4, 100),
            Err(SbrError::BudgetTooSmall { .. })
        ));
    }

    #[test]
    fn validate_rejects_oversized_w() {
        let c = SbrConfig::new(100, 50).with_w(1000);
        assert!(c.validate(2, 10).is_err());
    }

    #[test]
    fn validate_rejects_a_batch_no_receiver_accepts() {
        let c = SbrConfig::new(1 << 24, 500);
        assert!(c.validate(1, MAX_BATCH_VALUES).is_ok());
        assert!(matches!(
            c.validate(2, MAX_BATCH_VALUES / 2 + 1),
            Err(SbrError::InvalidConfig(_))
        ));
        assert!(c.validate(usize::MAX, 2).is_err());
    }

    #[test]
    fn validate_returns_derived_w() {
        let c = SbrConfig::new(1000, 500);
        assert_eq!(c.validate(10, 100).unwrap(), 31); // ⌊√1000⌋
    }
}
