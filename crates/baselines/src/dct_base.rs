//! `GetBaseDCT()` (paper appendix): a base signal of cosine intervals
//! `cos((2i+1)πf / 2W)`, one per frequency `f`.
//!
//! These intervals are synthesized on the fly: they cost no sensor memory
//! and no bandwidth. The trade-off is that they are data-oblivious — the
//! experiments (Table 5) show the data-driven `GetBase` beating them.

use sbr_core::config::{BaseBuilder, SbrConfig};
use sbr_core::{FitCache, MultiSeries};

/// One cosine base interval at frequency `f` (`0 ≤ f ≤ W`).
pub fn cosine_interval(w: usize, f: usize) -> Vec<f64> {
    (0..w)
        .map(|i| (std::f64::consts::PI * (2 * i + 1) as f64 * f as f64 / (2.0 * w as f64)).cos())
        .collect()
}

/// The flat cosine base signal holding frequencies `0..n_intervals`.
pub fn dct_base_signal(w: usize, n_intervals: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(w * n_intervals);
    for f in 0..n_intervals {
        out.extend(cosine_interval(w, f));
    }
    out
}

/// [`BaseBuilder`] adapter: propose the first `max_ins` cosine frequencies.
///
/// Note that when plugged into an `SbrEncoder` these intervals *are*
/// charged bandwidth like any insertion; the zero-cost variant of the paper
/// is exercised by the Table 5 harness, which hands
/// [`dct_base_signal`] directly to `GetIntervals`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DctBaseBuilder;

impl BaseBuilder for DctBaseBuilder {
    fn build(
        &self,
        _data: &MultiSeries,
        w: usize,
        max_ins: usize,
        _config: &SbrConfig,
        _cache: &mut FitCache,
    ) -> Vec<Vec<f64>> {
        (0..max_ins.min(w + 1))
            .map(|f| cosine_interval(w, f))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_zero_is_constant_one() {
        let c = cosine_interval(8, 0);
        assert!(c.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn intervals_are_orthogonal() {
        let w = 16;
        for f1 in 0..4 {
            for f2 in (f1 + 1)..4 {
                let a = cosine_interval(w, f1);
                let b = cosine_interval(w, f2);
                let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
                assert!(dot.abs() < 1e-9, "f{f1}·f{f2} = {dot}");
            }
        }
    }

    #[test]
    fn flat_signal_concatenates() {
        let flat = dct_base_signal(4, 3);
        assert_eq!(flat.len(), 12);
        assert_eq!(&flat[..4], cosine_interval(4, 0).as_slice());
        assert_eq!(&flat[8..], cosine_interval(4, 2).as_slice());
    }

    #[test]
    fn cosine_base_explains_cosine_data() {
        // A pure cosine at frequency 2 is perfectly approximated against
        // the matching base interval.
        let w = 16;
        let y: Vec<f64> = cosine_interval(w, 2)
            .iter()
            .map(|v| 3.0 * v + 1.0)
            .collect();
        let base = dct_base_signal(w, 4);
        let f = sbr_core::regression::fit_sse(&base[2 * w..3 * w], &y);
        assert!(f.err < 1e-12);
        assert!((f.a - 3.0).abs() < 1e-9);
    }

    #[test]
    fn builder_caps_at_w_plus_one_frequencies() {
        use sbr_core::config::BaseBuilder as _;
        let data = MultiSeries::from_rows(&[vec![0.0; 16]]).unwrap();
        let config = SbrConfig::new(100, 100);
        let b = DctBaseBuilder.build(&data, 4, 100, &config, &mut FitCache::new());
        assert_eq!(b.len(), 5);
    }
}
