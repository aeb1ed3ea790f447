//! Property-based tests for the vision substrate: batching arithmetic,
//! latency-profile consistency, slicing, tracker lifecycle, and the
//! buffer-reusing stage forms against the allocating forms they back.

use mvs_geometry::{BBox, FrameDims, SizeClass};
use mvs_vision::{
    batches_needed, slice_regions, AssociationOutcome, Detection, DetectionModel, DeviceKind,
    FlowTracker, GroundTruthObject, LatencyProfile, NewRegionFinder, SimulatedDetector, SizeCounts,
    TrackerConfig,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Boxes on a coarse grid, so tracks and detections overlap (and tie) often.
fn arb_boxes(max: usize) -> impl Strategy<Value = Vec<BBox>> {
    prop::collection::vec((0u32..12, 0u32..6, 40.0f64..160.0), 0..max).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(cx, cy, side)| {
                let (x, y) = (f64::from(cx) * 90.0, f64::from(cy) * 90.0);
                BBox::new(x, y, x + side, y + side).expect("valid box")
            })
            .collect()
    })
}

fn arb_device() -> impl Strategy<Value = DeviceKind> {
    prop::sample::select(vec![DeviceKind::Nano, DeviceKind::Tx2, DeviceKind::Xavier])
}

fn arb_sizes() -> impl Strategy<Value = Vec<SizeClass>> {
    prop::collection::vec(
        prop::sample::select(vec![
            SizeClass::S64,
            SizeClass::S128,
            SizeClass::S256,
            SizeClass::S512,
        ]),
        0..40,
    )
}

proptest! {
    #[test]
    fn batches_needed_is_minimal(count in 0usize..200, limit in 1usize..20) {
        let b = batches_needed(count, limit);
        prop_assert!(b * limit >= count, "must fit all crops");
        if b > 0 {
            prop_assert!((b - 1) * limit < count, "must be the minimum batch count");
        } else {
            prop_assert_eq!(count, 0);
        }
    }

    #[test]
    fn latency_is_monotone_in_workload(sizes in arb_sizes(), device in arb_device()) {
        let profile = LatencyProfile::for_device(device);
        let mut counts = SizeCounts::new();
        let mut prev = 0.0;
        for s in sizes {
            counts.add(s);
            let now = counts.latency_ms(&profile);
            prop_assert!(now + 1e-9 >= prev, "latency decreased: {now} < {prev}");
            prev = now;
        }
    }

    #[test]
    fn disabling_batching_never_reduces_latency(sizes in arb_sizes(), device in arb_device()) {
        let batched = LatencyProfile::for_device(device);
        let serial = batched.without_batching();
        let counts = SizeCounts::from_sizes(sizes);
        prop_assert!(counts.latency_ms(&serial) + 1e-9 >= counts.latency_ms(&batched));
    }

    #[test]
    fn open_batch_capacity_is_below_limit(sizes in arb_sizes(), device in arb_device()) {
        let profile = LatencyProfile::for_device(device);
        let counts = SizeCounts::from_sizes(sizes);
        for s in SizeClass::ALL {
            let cap = counts.open_batch_capacity(s, &profile);
            prop_assert!(cap < profile.batch_limit(s));
        }
    }

    #[test]
    fn delta_tracked_latency_matches_from_scratch(
        ops in prop::collection::vec(
            (
                any::<bool>(), // true = add, false = undo the last add
                prop::sample::select(vec![
                    SizeClass::S64,
                    SizeClass::S128,
                    SizeClass::S256,
                    SizeClass::S512,
                ]),
            ),
            0..80,
        ),
        device in arb_device(),
    ) {
        // Running a random add / undo sequence through the O(1) delta API
        // must track the O(|sizes|) from-scratch sum exactly — this is what
        // lets the exact search maintain per-camera latency incrementally:
        // it adds with a delta on the way down and, backtracking, removes
        // the crop and takes the same delta back.
        let profile = LatencyProfile::for_device(device);
        let mut counts = SizeCounts::new();
        let mut tracked = 0.0f64;
        let mut added: Vec<(SizeClass, f64)> = Vec::new();
        for (add, size) in ops {
            if add {
                let delta = counts.add_with_delta(size, &profile);
                tracked += delta;
                added.push((size, delta));
            } else if let Some((size, delta)) = added.pop() {
                prop_assert!(counts.remove(size));
                tracked -= delta;
            }
            prop_assert!(
                (tracked - counts.latency_ms(&profile)).abs() < 1e-9,
                "tracked {tracked} != recomputed {}",
                counts.latency_ms(&profile)
            );
        }
    }

    #[test]
    fn size_counts_total_matches_additions(sizes in arb_sizes()) {
        let counts = SizeCounts::from_sizes(sizes.clone());
        prop_assert_eq!(counts.total(), sizes.len());
        let per_class: usize = SizeClass::ALL.iter().map(|&s| counts.count(s)).sum();
        prop_assert_eq!(per_class, sizes.len());
    }

    #[test]
    fn sliced_regions_have_the_tracks_quantized_size(
        boxes in prop::collection::vec(
            (0.0f64..1200.0, 0.0f64..600.0, 10.0f64..300.0, 10.0f64..300.0),
            1..10,
        ),
    ) {
        let mut tracker = FlowTracker::new(TrackerConfig::default(), FrameDims::REGULAR);
        for (x, y, w, h) in boxes {
            tracker.seed(
                BBox::new(x, y, (x + w).min(1280.0), (y + h).min(704.0)).expect("valid box"),
                None,
            );
        }
        let tasks = slice_regions(tracker.tracks(), FrameDims::REGULAR);
        prop_assert_eq!(tasks.len(), tracker.tracks().len());
        for (task, track) in tasks.iter().zip(tracker.tracks()) {
            prop_assert_eq!(task.size, track.size);
            prop_assert!(FrameDims::REGULAR.contains(&task.region));
            prop_assert!(task.region.width() <= task.size.side() as f64 + 1e-9);
        }
    }

    #[test]
    fn new_regions_never_overlap_each_other(
        clusters in prop::collection::vec(
            (0.0f64..1000.0, 0.0f64..600.0, 10.0f64..150.0),
            0..12,
        ),
    ) {
        let boxes: Vec<BBox> = clusters
            .iter()
            .map(|&(x, y, s)| BBox::new(x, y, x + s, y + s).expect("valid box"))
            .collect();
        let mut fresh = Vec::new();
        NewRegionFinder::new().find_into(&boxes, &[], 0.5, &mut fresh);
        // After merging, the returned regions are pairwise disjoint.
        for i in 0..fresh.len() {
            for j in i + 1..fresh.len() {
                prop_assert_eq!(fresh[i].intersection_area(&fresh[j]), 0.0);
            }
        }
        // And every input cluster is contained in some output region.
        for b in &boxes {
            prop_assert!(fresh.iter().any(|f| f.contains_box(b)));
        }
    }

    #[test]
    fn tracker_misses_accumulate_and_prune(misses in 1u32..6) {
        let config = TrackerConfig {
            max_misses: misses,
            ..Default::default()
        };
        let mut tracker = FlowTracker::new(config, FrameDims::REGULAR);
        tracker.seed(BBox::new(100.0, 100.0, 160.0, 150.0).expect("valid box"), None);
        for _ in 0..misses {
            tracker.associate(&[]);
            prop_assert!(tracker.prune().is_empty());
        }
        tracker.associate(&[]);
        prop_assert_eq!(tracker.prune().len(), 1);
        prop_assert!(tracker.tracks().is_empty());
    }

    // One tracker fed through `associate_into` with a reused outcome, one
    // through `associate`: same outcomes, same tracks (boxes, misses,
    // truths) after every round of a sequence whose shapes keep changing.
    #[test]
    fn associate_into_matches_associate_over_a_sequence(
        seeds in arb_boxes(8),
        rounds in prop::collection::vec(arb_boxes(10), 1..8),
    ) {
        let mut by_value = FlowTracker::new(TrackerConfig::default(), FrameDims::REGULAR);
        let mut reusing = by_value.clone();
        for &b in &seeds {
            by_value.seed(b, None);
            reusing.seed(b, None);
        }
        let mut outcome = AssociationOutcome::default();
        for (round, boxes) in rounds.iter().enumerate() {
            let detections: Vec<Detection> = boxes
                .iter()
                .enumerate()
                .map(|(i, &bbox)| Detection {
                    bbox,
                    confidence: 0.9,
                    truth_id: Some((round * 100 + i) as u64),
                })
                .collect();
            let expected = by_value.associate(&detections);
            reusing.associate_into(&detections, &mut outcome);
            prop_assert_eq!(&outcome, &expected);
            // The frame loop's lifecycle: leftovers seed tracks, stale ones go.
            for &d in &expected.unmatched_detections {
                by_value.seed(detections[d].bbox, detections[d].truth_id);
                reusing.seed(detections[d].bbox, detections[d].truth_id);
            }
            prop_assert_eq!(by_value.prune(), reusing.prune());
            prop_assert_eq!(by_value.tracks(), reusing.tracks());
        }
    }

    // `detect_region_into` appends exactly what `detect_region` returns and
    // leaves the RNG where `detect_region` leaves it.
    #[test]
    fn detect_region_into_matches_detect_region(
        objects in arb_boxes(12),
        regions in arb_boxes(6),
        seed in any::<u64>(),
    ) {
        let detector = SimulatedDetector::new(DetectionModel::default(), FrameDims::REGULAR);
        let objects: Vec<GroundTruthObject> = objects
            .into_iter()
            .enumerate()
            .map(|(id, bbox)| GroundTruthObject { id: id as u64, bbox })
            .collect();
        let mut rng_a = ChaCha8Rng::seed_from_u64(seed);
        let mut rng_b = rng_a.clone();
        let mut expected = Vec::new();
        let mut appended = Vec::new();
        for region in &regions {
            expected.extend(detector.detect_region(region, SizeClass::S128, &objects, &mut rng_a));
            detector.detect_region_into(
                region,
                SizeClass::S128,
                &objects,
                &mut rng_b,
                &mut appended,
            );
        }
        prop_assert_eq!(&appended, &expected);
        prop_assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }
}
