//! The base-signal buffer: a dictionary of `W`-sample intervals with LFU
//! replacement.
//!
//! §3.2/§4.3 of the paper: each sensor reserves `M_base` values of memory
//! for the base signal, organized as a list of equal-width *base intervals*
//! ("slots" here). The algorithms see the buffer as the flat concatenation
//! of its slots. When insertions would overflow `M_base`, the least
//! frequently used old slots are evicted and the new intervals take their
//! places; the slot index of every inserted interval is transmitted, so the
//! base-station replica (see [`crate::decoder`]) stays identical without
//! running LFU itself.

use crate::error::{Result, SbrError};

/// Per-slot bookkeeping.
#[derive(Debug, Clone, PartialEq)]
struct SlotMeta {
    /// How many data intervals have been mapped onto (any part of) this slot
    /// across the buffer's lifetime — the LFU statistic.
    use_count: u64,
    /// Transmission sequence number at which the slot's current content was
    /// inserted. Used to break LFU ties (older first).
    inserted_at: u64,
}

/// A base-signal buffer of `W`-wide slots.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseSignal {
    w: usize,
    values: Vec<f64>,
    meta: Vec<SlotMeta>,
}

impl BaseSignal {
    /// An empty buffer whose slots will be `w` samples wide.
    pub fn new(w: usize) -> Self {
        assert!(w > 0, "base interval width must be positive");
        BaseSignal {
            w,
            values: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Slot width `W`.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Current number of occupied slots.
    pub fn num_slots(&self) -> usize {
        self.meta.len()
    }

    /// Current length in values (`num_slots × W`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no slots are occupied (the state before the first
    /// transmission).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The flat signal `X` the approximation algorithms shift over.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// One slot's values.
    pub fn slot(&self, i: usize) -> &[f64] {
        &self.values[i * self.w..(i + 1) * self.w]
    }

    /// LFU statistic of a slot.
    pub fn use_count(&self, i: usize) -> u64 {
        self.meta[i].use_count
    }

    /// Add `by` uses to one slot, the LFU statistic's only update (the SBR
    /// driver translates usage recorded against the pre-placement layout).
    pub fn bump_use(&mut self, slot: usize, by: u64) {
        self.meta[slot].use_count += by;
    }

    /// Plan where `n_new` inserted intervals will land given a capacity of
    /// `capacity_slots`, evicting LFU old slots if needed.
    ///
    /// Returns the final slot index of each new interval, in insertion
    /// order. Following Algorithm 5 lines 10–13: the first new intervals are
    /// appended; once capacity is exhausted the *last* ones replace the
    /// evicted LFU slots.
    pub fn plan_placement(&self, n_new: usize, capacity_slots: usize) -> Result<Vec<usize>> {
        let s = self.num_slots();
        if n_new > capacity_slots {
            return Err(SbrError::InvalidConfig(format!(
                "cannot place {n_new} new base intervals into a buffer of \
                 {capacity_slots} slots"
            )));
        }
        let appended = n_new.min(capacity_slots.saturating_sub(s));
        let replaced = n_new - appended;

        let mut placements: Vec<usize> = (s..s + appended).collect();
        if replaced > 0 {
            // LFU among existing slots, ties broken by age (older first),
            // then by index for determinism.
            let mut order: Vec<usize> = (0..s).collect();
            order.sort_by_key(|&i| (self.meta[i].use_count, self.meta[i].inserted_at, i));
            let mut victims: Vec<usize> = order.into_iter().take(replaced).collect();
            victims.sort_unstable();
            placements.extend(victims);
        }
        Ok(placements)
    }

    /// Write one inserted interval to its final slot. `slot` must be at most
    /// `num_slots()` (append) and the interval must be exactly `W` wide.
    pub fn apply_insert(&mut self, slot: usize, interval: &[f64], seq: u64) -> Result<()> {
        if interval.len() != self.w {
            return Err(SbrError::InvalidConfig(format!(
                "base interval has width {} but the buffer uses W = {}",
                interval.len(),
                self.w
            )));
        }
        match slot.cmp(&self.meta.len()) {
            std::cmp::Ordering::Less => {
                let off = slot * self.w;
                self.values[off..off + self.w].copy_from_slice(interval);
                self.meta[slot] = SlotMeta {
                    use_count: 0,
                    inserted_at: seq,
                };
                Ok(())
            }
            std::cmp::Ordering::Equal => {
                self.values.extend_from_slice(interval);
                self.meta.push(SlotMeta {
                    use_count: 0,
                    inserted_at: seq,
                });
                Ok(())
            }
            std::cmp::Ordering::Greater => Err(SbrError::InconsistentState(format!(
                "insert targets slot {slot} but only {} slots exist",
                self.meta.len()
            ))),
        }
    }

    /// Decompose into raw parts for persistence: the slot width, the flat
    /// values, and per-slot `(use_count, inserted_at)` bookkeeping. The
    /// inverse of [`BaseSignal::from_raw`].
    pub fn to_raw(&self) -> (usize, &[f64], Vec<(u64, u64)>) {
        (
            self.w,
            &self.values,
            self.meta
                .iter()
                .map(|m| (m.use_count, m.inserted_at))
                .collect(),
        )
    }

    /// Rebuild a buffer from parts produced by [`BaseSignal::to_raw`].
    /// The values length must be exactly `meta.len() × w`.
    pub fn from_raw(w: usize, values: Vec<f64>, meta: Vec<(u64, u64)>) -> Result<Self> {
        if w == 0 {
            return Err(SbrError::InvalidConfig(
                "base interval width must be positive".to_string(),
            ));
        }
        if values.len() != meta.len() * w {
            return Err(SbrError::InvalidConfig(format!(
                "base signal has {} values for {} slots of width {w}",
                values.len(),
                meta.len()
            )));
        }
        Ok(BaseSignal {
            w,
            values,
            meta: meta
                .into_iter()
                .map(|(use_count, inserted_at)| SlotMeta {
                    use_count,
                    inserted_at,
                })
                .collect(),
        })
    }

    /// The flat candidate signal `X ∥ cand₁ ∥ … ∥ cand_k` used while probing
    /// how many candidate intervals to insert (Algorithm 6). Reuses `buf`.
    pub fn flat_with_appended<'a>(&self, cands: &[&[f64]], buf: &'a mut Vec<f64>) -> &'a [f64] {
        buf.clear();
        buf.extend_from_slice(&self.values);
        for c in cands {
            buf.extend_from_slice(c);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(w: usize, slots: usize) -> BaseSignal {
        let mut b = BaseSignal::new(w);
        for s in 0..slots {
            let vals: Vec<f64> = (0..w).map(|i| (s * w + i) as f64).collect();
            b.apply_insert(s, &vals, 0).unwrap();
        }
        b
    }

    #[test]
    fn append_grows_buffer() {
        let b = filled(4, 3);
        assert_eq!(b.num_slots(), 3);
        assert_eq!(b.len(), 12);
        assert_eq!(b.slot(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn insert_wrong_width_rejected() {
        let mut b = BaseSignal::new(4);
        assert!(b.apply_insert(0, &[1.0, 2.0], 0).is_err());
    }

    #[test]
    fn insert_beyond_end_rejected() {
        let mut b = BaseSignal::new(2);
        assert!(b.apply_insert(1, &[1.0, 2.0], 0).is_err());
    }

    #[test]
    fn replace_overwrites_and_resets_lfu() {
        let mut b = filled(2, 2);
        b.bump_use(0, 1); // slot 0 used
        assert_eq!(b.use_count(0), 1);
        b.apply_insert(0, &[9.0, 9.0], 5).unwrap();
        assert_eq!(b.slot(0), &[9.0, 9.0]);
        assert_eq!(b.use_count(0), 0);
        assert_eq!(b.num_slots(), 2);
    }

    #[test]
    fn placement_appends_when_space() {
        let b = filled(2, 2);
        let p = b.plan_placement(2, 8).unwrap();
        assert_eq!(p, vec![2, 3]);
    }

    #[test]
    fn placement_evicts_lfu_when_full() {
        let mut b = filled(2, 4);
        // Slots 1 and 3 get used; 0 and 2 are cold.
        b.bump_use(1, 1);
        b.bump_use(3, 1);
        let p = b.plan_placement(2, 4).unwrap();
        // Capacity full: both new intervals replace the LFU slots 0 and 2.
        assert_eq!(p, vec![0, 2]);
    }

    #[test]
    fn placement_mixes_append_and_evict() {
        let mut b = filled(2, 3);
        b.bump_use(0, 1); // slot 0 hot
        b.bump_use(1, 1); // slot 1 hot
        let p = b.plan_placement(2, 4).unwrap();
        // One appended at slot 3, the last one replaces cold slot 2.
        assert_eq!(p, vec![3, 2]);
    }

    #[test]
    fn placement_overflow_rejected() {
        let b = filled(2, 1);
        assert!(b.plan_placement(5, 4).is_err());
    }

    #[test]
    fn lfu_ties_break_by_age_then_index() {
        let mut b = BaseSignal::new(1);
        b.apply_insert(0, &[0.0], 3).unwrap(); // newer
        b.apply_insert(1, &[1.0], 1).unwrap(); // oldest
        b.apply_insert(2, &[2.0], 2).unwrap();
        let p = b.plan_placement(1, 3).unwrap();
        assert_eq!(p, vec![1]); // all counts equal → oldest evicted
    }

    #[test]
    fn flat_with_appended_concatenates() {
        let b = filled(2, 1);
        let extra = [7.0, 8.0];
        let mut buf = Vec::new();
        let flat = b.flat_with_appended(&[&extra], &mut buf);
        assert_eq!(flat, &[0.0, 1.0, 7.0, 8.0]);
    }
}
