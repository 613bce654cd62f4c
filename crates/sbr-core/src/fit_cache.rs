//! Cross-batch memo of `GetBase` pair-fit errors.
//!
//! `GetBase` (Algorithm 4) scores every ordered pair of candidate base
//! intervals with `fit(metric, cbi_i, cbi_j).err`. Those errors depend only
//! on the two windows' *contents* — not on the batch they arrived in, the
//! greedy step examining them, or the thread evaluating them — so the same
//! number is recomputed many times: consecutive transmission batches of
//! slowly-varying sensor data repeat whole windows verbatim.
//!
//! [`FitCache`] interns candidate windows by content (a 64-bit FNV-1a hash
//! over the samples' bit patterns, verified by exact comparison, so hash
//! collisions can never alias two different windows) and memoizes pair
//! errors keyed by interned ids. The cached `GetBase` paths fit each
//! distinct pair at most once per process lifetime-within-retention; every
//! other evaluation is a lookup. Because the memoized value *is* the
//! `regression::fit` result, cached runs select the same candidates as an
//! uncached `K×K` greedy — the reference-encoder suite
//! `tests/reference_diff.rs` pins this.
//!
//! **Invalidation rule:** ids (and every pair touching them) are retained
//! while their window content keeps appearing in batches; a window unseen
//! for [`RETAIN_GENERATIONS`] consecutive batches is evicted together with
//! all its pairs at the next [`FitCache::begin_batch`]. A metric change
//! clears the cache outright (errors are metric-specific).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::metric::ErrorMetric;

/// FNV-1a hasher for the cache's internal maps. The keys are internal ids
/// and content hashes — never attacker-controlled input — and the pair map
/// sits on the matrix build's per-cell path, where the default SipHash's
/// DoS resistance costs roughly as much as the factored fit it guards.
#[derive(Debug, Clone, Copy)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0 ^= i as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 ^= i;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

type FnvBuild = BuildHasherDefault<FnvHasher>;

/// Batches a window may go unseen before eviction: content is carried
/// across the current and the immediately previous batch, which is where
/// slowly-varying sensor streams actually repeat themselves.
pub const RETAIN_GENERATIONS: u64 = 2;

/// One interned candidate window.
#[derive(Debug, Clone)]
struct Slot {
    /// FNV-1a over the samples' `to_bits()` patterns.
    hash: u64,
    /// The window contents (exact-equality witness for the hash).
    content: Vec<f64>,
    /// Generation the content was last interned.
    last_seen: u64,
}

/// Content-addressed memo of `GetBase` pair-fit errors. See the module
/// docs for the retention/invalidation contract.
#[derive(Debug, Default, Clone)]
pub struct FitCache {
    /// Metric the memoized errors were computed under; a change clears.
    metric: Option<ErrorMetric>,
    /// Current batch generation (bumped by [`FitCache::begin_batch`]).
    generation: u64,
    /// Interned windows; the index is the stable id. `None` = freed slot.
    slots: Vec<Option<Slot>>,
    /// Free slot ids available for reuse.
    free: Vec<u32>,
    /// Content hash → slot ids carrying that hash.
    by_hash: HashMap<u64, Vec<u32>, FnvBuild>,
    /// `(base_id, data_id)` → memoized `fit(metric, base, data).err`, for
    /// one-off [`FitCache::insert`]s. The bulk path is the stored matrix
    /// below — per-pair map inserts on the build's per-cell path cost as
    /// much as the factored fits they would save.
    pairs: HashMap<(u32, u32), f64, FnvBuild>,
    /// Ids of the rows/columns of `mat`, in matrix order.
    mat_ids: Vec<u32>,
    /// Id → row index into `mat` (rows and columns share the index).
    mat_index: HashMap<u32, u32, FnvBuild>,
    /// The previous build's dense `K×K` error matrix, handed over
    /// wholesale by [`FitCache::store_matrix`] (one `Vec` move instead of
    /// `K²` map inserts).
    mat: Vec<f64>,
}

/// FNV-1a-style fold over the bit patterns of `content`, one 64-bit
/// pattern per step (byte-wise FNV would walk `K·W·8` bytes per batch for
/// nothing — this hash is internal, collisions are resolved by the exact
/// comparison below). Bit patterns (not values) so that `-0.0`/`0.0` and
/// NaN payloads hash consistently with the `to_bits` comparison.
fn content_hash(content: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in content {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn same_content(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl FitCache {
    /// An empty cache.
    pub fn new() -> Self {
        FitCache::default()
    }

    /// Open a new batch: clear everything if `metric` changed, evict
    /// windows unseen for [`RETAIN_GENERATIONS`] batches (with all their
    /// pairs), and bump the generation counter.
    pub fn begin_batch(&mut self, metric: ErrorMetric) {
        if self.metric != Some(metric) {
            self.metric = Some(metric);
            self.generation = 0;
            self.slots.clear();
            self.free.clear();
            self.by_hash.clear();
            self.pairs.clear();
            self.mat_ids.clear();
            self.mat_index.clear();
            self.mat.clear();
        }
        self.generation += 1;
        let cutoff = self.generation.saturating_sub(RETAIN_GENERATIONS);
        if cutoff == 0 {
            return;
        }
        let mut dead: Vec<u32> = Vec::new();
        for (id, slot) in self.slots.iter().enumerate() {
            if let Some(s) = slot {
                if s.last_seen <= cutoff {
                    dead.push(id as u32);
                }
            }
        }
        if dead.is_empty() {
            return;
        }
        for &id in &dead {
            // lint:allow(panic-reachability): dead ids were collected from occupied slots in this pass
            let slot = self.slots[id as usize].take().expect("checked above");
            if let Some(ids) = self.by_hash.get_mut(&slot.hash) {
                ids.retain(|&i| i != id);
                if ids.is_empty() {
                    self.by_hash.remove(&slot.hash);
                }
            }
            // The id may be recycled for fresh content; its old matrix
            // row/column must stop being servable first.
            self.mat_index.remove(&id);
            self.free.push(id);
        }
        let alive = &self.slots;
        // lint:allow(determinism): retain predicate is per-key; visit order cannot leak
        self.pairs.retain(|&(a, b), _| {
            alive.get(a as usize).is_some_and(Option::is_some)
                && alive.get(b as usize).is_some_and(Option::is_some)
        });
    }

    /// Intern a window by content, returning its stable id and whether the
    /// content was already known (`true` = carried over, its pairs are
    /// reusable).
    pub fn intern(&mut self, content: &[f64]) -> (u32, bool) {
        let hash = content_hash(content);
        if let Some(ids) = self.by_hash.get(&hash) {
            for &id in ids {
                if let Some(slot) = &self.slots[id as usize] {
                    if same_content(&slot.content, content) {
                        let known = slot.last_seen < self.generation;
                        self.slots[id as usize]
                            .as_mut()
                            // lint:allow(panic-reachability): id came from by_hash, which only indexes live slots
                            .expect("checked above")
                            .last_seen = self.generation;
                        return (id, known);
                    }
                }
            }
        }
        let slot = Slot {
            hash,
            content: content.to_vec(),
            last_seen: self.generation,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(slot);
                id
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        };
        self.by_hash.entry(hash).or_default().push(id);
        (id, false)
    }

    /// The memoized error of fitting data window `data_id` on base window
    /// `base_id`, if that pair is servable under the current metric — from
    /// the stored matrix first, then the one-off insert map.
    #[inline]
    pub fn get(&self, base_id: u32, data_id: u32) -> Option<f64> {
        if let (Some(&ri), Some(&ci)) = (self.mat_index.get(&base_id), self.mat_index.get(&data_id))
        {
            return Some(self.mat[ri as usize * self.mat_ids.len() + ci as usize]);
        }
        self.pairs.get(&(base_id, data_id)).copied()
    }

    /// Memoize a freshly computed pair error.
    #[inline]
    pub fn insert(&mut self, base_id: u32, data_id: u32, err: f64) {
        self.pairs.insert((base_id, data_id), err);
    }

    /// Hand over a build's dense error matrix: `mat[r * ids.len() + c]` is
    /// `fit(metric, window ids[r], window ids[c]).err`, with the diagonal
    /// following the caller's convention (`GetBase` pins it at `0.0`). The
    /// matrix replaces the previously stored one — a pair is servable from
    /// it while both ids keep appearing, which with the per-build
    /// replacement realizes the [`RETAIN_GENERATIONS`] window. If `ids`
    /// repeats an id (duplicate window content in one batch), the rows are
    /// bit-identical by construction and the last one wins.
    pub fn store_matrix(&mut self, ids: &[u32], mat: Vec<f64>) {
        debug_assert_eq!(ids.len() * ids.len(), mat.len());
        self.mat_ids.clear();
        self.mat_ids.extend_from_slice(ids);
        self.mat_index.clear();
        self.mat_index.reserve(ids.len());
        for (r, &id) in ids.iter().enumerate() {
            self.mat_index.insert(id, r as u32);
        }
        self.mat = mat;
    }

    /// Interned windows currently alive.
    pub fn windows(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Memoized pair errors currently servable: one-off inserts plus the
    /// stored matrix's cells.
    pub fn pairs(&self) -> usize {
        self.pairs.len() + self.mat.len()
    }

    /// Approximate heap footprint in bytes: window samples, the stored
    /// matrix, and one-off pair-map entries (reported through the
    /// `sbr_core.get_base.fit_cache.bytes` gauge).
    pub fn footprint_bytes(&self) -> usize {
        let window_bytes: usize = self
            .slots
            .iter()
            .flatten()
            .map(|s| s.content.len() * std::mem::size_of::<f64>() + std::mem::size_of::<Slot>())
            .sum();
        let pair_bytes = self.pairs.len() * (std::mem::size_of::<(u32, u32)>() + 8);
        let mat_bytes = self.mat.len() * 8 + self.mat_ids.len() * (4 + 4 + 4);
        window_bytes + pair_bytes + mat_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_content_addressed() {
        let mut c = FitCache::new();
        c.begin_batch(ErrorMetric::Sse);
        let (a, known_a) = c.intern(&[1.0, 2.0, 3.0]);
        let (b, _) = c.intern(&[1.0, 2.0, 4.0]);
        let (a2, _) = c.intern(&[1.0, 2.0, 3.0]);
        assert_ne!(a, b);
        assert_eq!(a, a2, "same content must intern to the same id");
        assert!(!known_a, "first sighting is not a carry-over");
        assert_eq!(c.windows(), 2);
    }

    #[test]
    fn carry_over_flag_fires_on_next_batch() {
        let mut c = FitCache::new();
        c.begin_batch(ErrorMetric::Sse);
        let (a, known) = c.intern(&[5.0, 6.0]);
        assert!(!known);
        c.insert(a, a, 0.0);
        c.begin_batch(ErrorMetric::Sse);
        let (a2, known2) = c.intern(&[5.0, 6.0]);
        assert_eq!(a, a2);
        assert!(known2, "window repeated in the next batch is a carry-over");
        assert_eq!(c.get(a2, a2), Some(0.0), "its pairs survive too");
    }

    #[test]
    fn stale_windows_and_their_pairs_are_evicted() {
        let mut c = FitCache::new();
        c.begin_batch(ErrorMetric::Sse);
        let (a, _) = c.intern(&[1.0]);
        let (b, _) = c.intern(&[2.0]);
        c.insert(a, b, 7.0);
        // `a` keeps appearing, `b` does not.
        for _ in 0..RETAIN_GENERATIONS + 1 {
            c.begin_batch(ErrorMetric::Sse);
            c.intern(&[1.0]);
        }
        assert_eq!(c.windows(), 1, "unseen window must be evicted");
        assert_eq!(c.get(a, b), None, "pairs of evicted windows go with them");
        // The freed id is reused for fresh content — with no stale pairs.
        let (b2, known) = c.intern(&[3.0]);
        assert_eq!(b2, b, "freed slot id is recycled");
        assert!(!known);
        assert_eq!(c.get(a, b2), None);
    }

    #[test]
    fn metric_change_clears_everything() {
        let mut c = FitCache::new();
        c.begin_batch(ErrorMetric::Sse);
        let (a, _) = c.intern(&[1.0, 2.0]);
        c.insert(a, a, 0.5);
        c.begin_batch(ErrorMetric::MaxAbs);
        assert_eq!(c.windows(), 0);
        assert_eq!(c.pairs(), 0);
        assert_eq!(c.get(a, a), None);
    }

    #[test]
    fn stored_matrix_serves_pairs_and_respects_eviction() {
        let mut c = FitCache::new();
        c.begin_batch(ErrorMetric::Sse);
        let (a, _) = c.intern(&[1.0, 2.0]);
        let (b, _) = c.intern(&[3.0, 4.0]);
        c.store_matrix(&[a, b], vec![0.0, 7.0, 9.0, 0.0]);
        assert_eq!(c.get(a, b), Some(7.0));
        assert_eq!(c.get(b, a), Some(9.0), "the matrix is ordered");
        // `b` goes unseen long enough to be evicted and recycled; the
        // recycled id must not serve the dead window's row.
        for _ in 0..RETAIN_GENERATIONS + 1 {
            c.begin_batch(ErrorMetric::Sse);
            c.intern(&[1.0, 2.0]);
        }
        let (b2, known) = c.intern(&[5.0, 6.0]);
        assert_eq!(b2, b, "freed slot id is recycled");
        assert!(!known);
        assert_eq!(
            c.get(a, b2),
            None,
            "recycled id must not alias the evicted window's matrix row"
        );
    }

    #[test]
    fn zero_and_negative_zero_do_not_alias() {
        let mut c = FitCache::new();
        c.begin_batch(ErrorMetric::Sse);
        let (a, _) = c.intern(&[0.0]);
        let (b, _) = c.intern(&[-0.0]);
        assert_ne!(a, b, "interning is by bit pattern, not numeric equality");
    }

    #[test]
    fn footprint_tracks_contents_and_pairs() {
        let mut c = FitCache::new();
        c.begin_batch(ErrorMetric::Sse);
        assert_eq!(c.footprint_bytes(), 0);
        let (a, _) = c.intern(&[1.0; 16]);
        let base = c.footprint_bytes();
        assert!(base >= 16 * 8);
        c.insert(a, a, 0.0);
        assert!(c.footprint_bytes() > base);
    }
}
