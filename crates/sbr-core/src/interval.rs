//! The interval data structure of §4.2 and its wire representation.

/// Sentinel `shift` marking an interval approximated by the linear-regression
/// fall-back (regression against the time index) instead of a base-signal
/// segment. The paper encodes this as a negative shift.
pub const LINEAR_FALLBACK_SHIFT: i64 = -1;

/// A data interval together with its best approximation, as produced by
/// `BestMap` / `GetIntervals`.
///
/// The interval covers `Y[start .. start + length)` of the concatenated data
/// series and is approximated as `a · X[shift .. shift + length) + b` when
/// `shift ≥ 0`, or as `a · i + b` over the local index `i` when
/// `shift == -1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Offset into the concatenated data series `Y`.
    pub start: usize,
    /// Number of samples covered.
    pub length: usize,
    /// Offset into the base signal, or [`LINEAR_FALLBACK_SHIFT`].
    pub shift: i64,
    /// Regression slope.
    pub a: f64,
    /// Regression intercept.
    pub b: f64,
    /// Error of the approximation under the encoder's metric.
    pub err: f64,
}

impl Interval {
    /// A fresh interval covering `[start, start+length)` with no fit yet.
    pub fn unfitted(start: usize, length: usize) -> Self {
        Interval {
            start,
            length,
            shift: LINEAR_FALLBACK_SHIFT,
            a: 0.0,
            b: 0.0,
            err: f64::INFINITY,
        }
    }

    /// True when this interval uses the linear-regression fall-back.
    pub fn is_fallback(&self) -> bool {
        self.shift < 0
    }

    /// The four-value wire record (§4.2: *"for each interval … a record with
    /// four values (I.start, I.shift, I.a, I.b) is transmitted"*; the length
    /// is recovered at the base station from consecutive starts).
    pub fn record(&self) -> IntervalRecord {
        IntervalRecord {
            start: self.start as u64,
            shift: self.shift,
            a: self.a,
            b: self.b,
        }
    }
}

/// Wire form of an interval: exactly the four transmitted values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalRecord {
    /// Offset into the concatenated data series.
    pub start: u64,
    /// Base-signal offset, or negative for the linear fall-back.
    pub shift: i64,
    /// Regression slope.
    pub a: f64,
    /// Regression intercept.
    pub b: f64,
}

impl IntervalRecord {
    /// Number of bandwidth "values" one record consumes (§4.3 item 2).
    pub const COST: usize = 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfitted_starts_as_fallback_with_infinite_error() {
        let i = Interval::unfitted(10, 5);
        assert!(i.is_fallback());
        assert!(i.err.is_infinite());
        assert_eq!((i.start, i.length), (10, 5));
    }

    #[test]
    fn record_carries_the_four_values() {
        let i = Interval {
            start: 7,
            length: 3,
            shift: 42,
            a: 1.5,
            b: -2.0,
            err: 0.25,
        };
        let r = i.record();
        assert_eq!(r.start, 7);
        assert_eq!(r.shift, 42);
        assert_eq!(r.a, 1.5);
        assert_eq!(r.b, -2.0);
    }

    #[test]
    fn mapped_interval_is_not_fallback() {
        let mut i = Interval::unfitted(0, 4);
        i.shift = 0;
        assert!(!i.is_fallback());
    }
}
