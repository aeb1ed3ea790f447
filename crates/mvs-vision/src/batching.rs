//! GPU task-batching arithmetic.
//!
//! Only crops with the same spatial size can share a GPU batch. Given a
//! multiset of size classes, the optimal batch sequence is obtained by
//! greedily filling batches per size class (the paper notes this conversion
//! from an assignment to batch sequences is trivial and uniquely determines
//! the camera latency of Definition 1).

use crate::LatencyProfile;
use mvs_geometry::SizeClass;
use serde::{Deserialize, Serialize};

/// Per-size-class crop counts for one camera and frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizeCounts {
    counts: [usize; SizeClass::COUNT],
}

impl SizeCounts {
    /// No crops.
    pub fn new() -> Self {
        SizeCounts::default()
    }

    /// Builds counts from an iterator of size classes.
    pub fn from_sizes<I: IntoIterator<Item = SizeClass>>(sizes: I) -> Self {
        let mut c = SizeCounts::default();
        for s in sizes {
            c.add(s);
        }
        c
    }

    /// Adds one crop of the given size.
    pub fn add(&mut self, size: SizeClass) {
        self.counts[size.index()] += 1;
    }

    /// Resets every per-size count to zero (buffer-reuse counterpart of
    /// [`SizeCounts::new`]).
    pub fn clear(&mut self) {
        self.counts = [0; SizeClass::COUNT];
    }

    /// Removes one crop of the given size; returns `false` when none left.
    pub fn remove(&mut self, size: SizeClass) -> bool {
        let c = &mut self.counts[size.index()];
        if *c == 0 {
            false
        } else {
            *c -= 1;
            true
        }
    }

    /// Number of crops of `size`.
    pub fn count(&self, size: SizeClass) -> usize {
        self.counts[size.index()]
    }

    /// Total crops across all sizes.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// True when no crops are present.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Adds one crop of `size` and returns the latency increase (ms) this
    /// causes on `profile` — non-zero exactly when the crop opens a new
    /// batch. O(1), so search loops can maintain a running
    /// [`latency_ms`](Self::latency_ms) instead of re-summing every size
    /// class per candidate.
    pub fn add_with_delta(&mut self, size: SizeClass, profile: &LatencyProfile) -> f64 {
        let limit = profile.batch_limit(size);
        let c = &mut self.counts[size.index()];
        let opens_batch = c.is_multiple_of(limit);
        *c += 1;
        if opens_batch {
            profile.batch_latency_ms(size)
        } else {
            0.0
        }
    }

    /// Per-frame DNN latency (ms) under greedy same-size batching on the
    /// given device profile — the camera latency of Definition 1 minus any
    /// full-frame term.
    pub fn latency_ms(&self, profile: &LatencyProfile) -> f64 {
        SizeClass::ALL
            .iter()
            .map(|&s| {
                batches_needed(self.count(s), profile.batch_limit(s)) as f64
                    * profile.batch_latency_ms(s)
            })
            .sum()
    }

    /// Number of batches per size class on the given profile.
    pub fn batches(&self, profile: &LatencyProfile) -> [usize; SizeClass::COUNT] {
        let mut out = [0; SizeClass::COUNT];
        for (i, &s) in SizeClass::ALL.iter().enumerate() {
            out[i] = batches_needed(self.count(s), profile.batch_limit(s));
        }
        out
    }

    /// Remaining capacity in the last (incomplete) batch of `size`, or zero
    /// when all batches are exactly full (or there are none).
    ///
    /// This is the paper's *batch capacity* `BC = B − b` of Definition 4,
    /// evaluated for the camera's current open batch.
    pub fn open_batch_capacity(&self, size: SizeClass, profile: &LatencyProfile) -> usize {
        let limit = profile.batch_limit(size);
        let rem = self.count(size) % limit;
        if self.count(size) == 0 || rem == 0 {
            0
        } else {
            limit - rem
        }
    }
}

/// Number of batches needed for `count` crops with the given per-batch
/// limit: `ceil(count / limit)`.
///
/// # Panics
///
/// Panics if `limit` is zero.
pub fn batches_needed(count: usize, limit: usize) -> usize {
    assert!(limit > 0, "batch limit must be positive");
    count.div_ceil(limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceKind;

    #[test]
    fn batches_needed_arithmetic() {
        assert_eq!(batches_needed(0, 4), 0);
        assert_eq!(batches_needed(1, 4), 1);
        assert_eq!(batches_needed(4, 4), 1);
        assert_eq!(batches_needed(5, 4), 2);
        assert_eq!(batches_needed(8, 4), 2);
    }

    #[test]
    #[should_panic(expected = "batch limit must be positive")]
    fn batches_needed_rejects_zero_limit() {
        batches_needed(3, 0);
    }

    #[test]
    fn size_counts_latency_matches_manual_math() {
        let p = LatencyProfile::for_device(DeviceKind::Xavier);
        let mut c = SizeCounts::new();
        for _ in 0..13 {
            c.add(SizeClass::S128); // limit 12 → 2 batches × 30 ms
        }
        c.add(SizeClass::S512); // limit 2 → 1 batch × 67 ms
        assert!((c.latency_ms(&p) - (2.0 * 30.0 + 67.0)).abs() < 1e-9);
        assert_eq!(c.batches(&p), [0, 2, 0, 1]);
    }

    #[test]
    fn open_batch_capacity_tracks_occupancy() {
        let p = LatencyProfile::for_device(DeviceKind::Xavier); // S64 limit 16
        let mut c = SizeCounts::new();
        assert_eq!(c.open_batch_capacity(SizeClass::S64, &p), 0);
        c.add(SizeClass::S64);
        assert_eq!(c.open_batch_capacity(SizeClass::S64, &p), 15);
        for _ in 0..15 {
            c.add(SizeClass::S64);
        }
        // Exactly full: no open batch.
        assert_eq!(c.open_batch_capacity(SizeClass::S64, &p), 0);
        c.add(SizeClass::S64);
        assert_eq!(c.open_batch_capacity(SizeClass::S64, &p), 15);
    }

    #[test]
    fn filling_open_batch_does_not_change_latency() {
        let p = LatencyProfile::for_device(DeviceKind::Tx2); // S256 limit 4
        let mut c = SizeCounts::from_sizes([SizeClass::S256]);
        let one = c.latency_ms(&p);
        c.add(SizeClass::S256);
        assert_eq!(c.latency_ms(&p), one);
        c.add(SizeClass::S256);
        c.add(SizeClass::S256);
        assert_eq!(c.latency_ms(&p), one);
        c.add(SizeClass::S256); // fifth crop opens a second batch
        assert!(c.latency_ms(&p) > one);
    }

    #[test]
    fn add_delta_is_batch_latency_exactly_on_batch_open() {
        let p = LatencyProfile::for_device(DeviceKind::Tx2); // S256 limit 4
        let mut c = SizeCounts::new();
        assert_eq!(
            c.add_with_delta(SizeClass::S256, &p),
            p.batch_latency_ms(SizeClass::S256)
        );
        for _ in 0..3 {
            assert_eq!(c.add_with_delta(SizeClass::S256, &p), 0.0); // fills batch 1
        }
        assert_eq!(
            c.add_with_delta(SizeClass::S256, &p),
            p.batch_latency_ms(SizeClass::S256) // opens batch 2
        );
    }

    #[test]
    fn remove_round_trip() {
        let mut c = SizeCounts::from_sizes([SizeClass::S64, SizeClass::S64]);
        assert!(c.remove(SizeClass::S64));
        assert_eq!(c.count(SizeClass::S64), 1);
        assert!(!c.remove(SizeClass::S512));
    }
}
