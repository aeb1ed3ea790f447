//! Scalar (AoS) references for the column-major kernels, and the
//! differential tests that hold the kernels to them.
//!
//! The frame loop runs on columns ([`FlowField`](crate::FlowField),
//! [`NewRegionFinder`](crate::NewRegionFinder) over
//! [`mvs_geometry::BBoxSoA`]). This test-only module keeps the
//! array-of-structs implementations they replaced, verbatim, and asserts
//! every kernel bitwise-equal (`f64::to_bits`) to its reference over
//! randomized scenes — empty frames, single-object cases, colliding ids and
//! degenerate boxes included.

use crate::new_region::merge_overlapping;
use crate::optical_flow::gaussian;
use crate::{FlowVector, GroundTruthObject};
use mvs_geometry::{BBox, Point2};
use std::collections::HashMap;

/// The original AoS + hash-map flow field, kept as the differential-test
/// reference for [`FlowField`](crate::FlowField).
#[derive(Debug, Clone, Default)]
struct ScalarFlowField {
    /// Previous-frame object boxes (the support of non-zero flow).
    prev: Vec<GroundTruthObject>,
    /// Noisy per-object displacement, keyed by ground-truth id.
    motions: HashMap<u64, Point2>,
    /// Clusters of moving pixels in the *current* frame.
    clusters: Vec<BBox>,
}

impl ScalarFlowField {
    /// Minimum displacement (pixels) for an object to register as "moving".
    const MOTION_EPSILON: f64 = 0.5;

    /// An empty field with no probed objects.
    #[must_use]
    fn empty() -> ScalarFlowField {
        ScalarFlowField::default()
    }

    /// Estimates flow between two frames described by their ground-truth
    /// object sets — the reference for
    /// [`FlowField::estimate`](crate::FlowField::estimate).
    fn estimate<R: rand::Rng + ?Sized>(
        prev: &[GroundTruthObject],
        curr: &[GroundTruthObject],
        noise_px: f64,
        rng: &mut R,
    ) -> ScalarFlowField {
        let mut field = ScalarFlowField::empty();
        field.estimate_into(prev, curr, noise_px, rng);
        field
    }

    /// Re-estimates this field in place — the reference for
    /// [`FlowField::estimate_into`](crate::FlowField::estimate_into),
    /// drawing the RNG in the identical order (two gaussians per current
    /// object).
    fn estimate_into<R: rand::Rng + ?Sized>(
        &mut self,
        prev: &[GroundTruthObject],
        curr: &[GroundTruthObject],
        noise_px: f64,
        rng: &mut R,
    ) {
        self.prev.clear();
        self.prev.extend_from_slice(prev);
        self.motions.clear();
        self.clusters.clear();
        for c in curr {
            let noise = Point2::new(gaussian(rng) * noise_px, gaussian(rng) * noise_px);
            // Last match wins, mirroring the id-keyed map (ids are unique
            // in practice).
            match prev.iter().rev().find(|p| p.id == c.id) {
                Some(p) => {
                    let motion = c.bbox.center() - p.bbox.center() + noise;
                    if motion.norm() > Self::MOTION_EPSILON {
                        self.clusters.push(c.bbox);
                    }
                    self.motions.insert(c.id, motion);
                }
                None => {
                    // Newly appeared object: all of its pixels changed, so
                    // it shows up as a moving cluster even though no
                    // displacement vector exists for it.
                    self.clusters.push(c.bbox);
                }
            }
        }
    }

    /// The flow displacement at a pixel of the *previous* frame — the
    /// reference for
    /// [`FlowField::displacement_at`](crate::FlowField::displacement_at).
    fn displacement_at(&self, p: Point2) -> FlowVector {
        let mut best: Option<(&GroundTruthObject, f64)> = None;
        for o in &self.prev {
            if o.bbox.contains_point(p) {
                let area = o.bbox.area();
                if best.is_none_or(|(_, a)| area < a) {
                    best = Some((o, area));
                }
            }
        }
        let displacement = best
            .and_then(|(o, _)| self.motions.get(&o.id).copied())
            .unwrap_or(Point2::ORIGIN);
        FlowVector { displacement }
    }

    /// Clusters of moving pixels in the current frame (object-sized boxes).
    fn moving_clusters(&self) -> &[BBox] {
        &self.clusters
    }
}

/// The original box-by-box new-region scan, kept as the differential-test
/// reference for [`NewRegionFinder::find_into`](crate::NewRegionFinder::find_into):
/// a cluster is explained when some single predicted box covers at least
/// `coverage_threshold` of its area; the rest are merged into hulls.
fn find_new_regions_into(
    clusters: &[BBox],
    predicted: &[BBox],
    coverage_threshold: f64,
    out: &mut Vec<BBox>,
) {
    out.clear();
    out.extend(clusters.iter().filter(|c| {
        !predicted
            .iter()
            .any(|p| c.coverage_by(p) >= coverage_threshold)
    }));
    merge_overlapping(out);
}

mod tests {
    use super::*;
    use crate::{FlowField, NewRegionFinder};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn obj(id: u64, x: f64, y: f64, side: f64) -> GroundTruthObject {
        GroundTruthObject {
            id,
            bbox: BBox::new(x, y, x + side, y + side).unwrap(),
        }
    }

    fn bb(x: f64, y: f64, s: f64) -> BBox {
        BBox::new(x, y, x + s, y + s).unwrap()
    }

    #[test]
    fn reference_matches_soa_field_bitwise() {
        let prev = [obj(1, 0.0, 0.0, 40.0), obj(2, 200.0, 200.0, 40.0)];
        let curr = [
            obj(1, 10.0, 0.0, 40.0),
            obj(2, 200.0, 200.0, 40.0),
            obj(3, 400.0, 100.0, 40.0),
        ];
        let (scalar, soa) = estimate_pair(&prev, &curr, 1.5, 21);
        assert_eq!(scalar.moving_clusters(), soa.moving_clusters());
        for p in [
            Point2::new(20.0, 20.0),
            Point2::new(220.0, 220.0),
            Point2::new(-1.0, 7.0),
        ] {
            let a = scalar.displacement_at(p).displacement;
            let b = soa.displacement_at(p).displacement;
            assert_eq!(a.x.to_bits(), b.x.to_bits(), "x at {p:?}");
            assert_eq!(a.y.to_bits(), b.y.to_bits(), "y at {p:?}");
        }
    }

    #[test]
    fn finder_matches_scalar_on_mixed_scene() {
        let clusters = [
            bb(100.0, 100.0, 50.0),
            bb(500.0, 400.0, 40.0),
            bb(530.0, 420.0, 40.0),
            bb(900.0, 0.0, 20.0),
        ];
        let predicted = [bb(95.0, 95.0, 60.0), bb(0.0, 0.0, 10.0)];
        let mut finder = NewRegionFinder::new();
        let (mut fresh, mut scalar) = (Vec::new(), Vec::new());
        finder.find_into(&clusters, &predicted, 0.5, &mut fresh);
        find_new_regions_into(&clusters, &predicted, 0.5, &mut scalar);
        assert_eq!(fresh, scalar);
        // Scratch reuse: a second, different query stays consistent.
        finder.find_into(&clusters[..1], &predicted, 0.5, &mut fresh);
        find_new_regions_into(&clusters[..1], &predicted, 0.5, &mut scalar);
        assert_eq!(fresh, scalar);
    }

    fn arb_bbox() -> impl Strategy<Value = BBox> {
        (0.0f64..1800.0, 0.0f64..900.0, 0.0f64..180.0, 0.0f64..180.0)
            .prop_map(|(x, y, w, h)| BBox::new(x, y, x + w, y + h).expect("constructed valid"))
    }

    /// Objects with ids drawn from a small pool, so scenes occasionally
    /// contain colliding ids — the last-match-wins rule must agree across
    /// layouts.
    fn arb_objects() -> impl Strategy<Value = Vec<GroundTruthObject>> {
        prop::collection::vec(
            (0u64..10, arb_bbox()).prop_map(|(id, bbox)| GroundTruthObject { id, bbox }),
            0..12,
        )
    }

    fn arb_points() -> impl Strategy<Value = Vec<Point2>> {
        prop::collection::vec(
            (-50.0f64..2000.0, -50.0f64..1000.0).prop_map(|(x, y)| Point2::new(x, y)),
            0..20,
        )
    }

    /// Both layouts estimated from the same scene with identically-seeded
    /// RNGs.
    fn estimate_pair(
        prev: &[GroundTruthObject],
        curr: &[GroundTruthObject],
        noise_px: f64,
        seed: u64,
    ) -> (ScalarFlowField, FlowField) {
        let mut rng_a = ChaCha8Rng::seed_from_u64(seed);
        let mut rng_b = ChaCha8Rng::seed_from_u64(seed);
        let scalar = ScalarFlowField::estimate(prev, curr, noise_px, &mut rng_a);
        let soa = FlowField::estimate(prev, curr, noise_px, &mut rng_b);
        // Identical RNG consumption is part of the contract: a layout change
        // that drew differently would silently reshuffle every later draw.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
        (scalar, soa)
    }

    proptest! {
        #[test]
        fn flow_field_matches_scalar_reference_bitwise(
            prev in arb_objects(),
            curr in arb_objects(),
            noise in 0.0f64..4.0,
            seed in any::<u64>(),
            probes in arb_points(),
        ) {
            let (scalar, soa) = estimate_pair(&prev, &curr, noise, seed);
            prop_assert_eq!(scalar.moving_clusters(), soa.moving_clusters());
            // Object centres are the queries track prediction actually
            // issues; cover them besides the uniform probes.
            for p in probes.into_iter().chain(prev.iter().map(|o| o.bbox.center())) {
                let a = scalar.displacement_at(p).displacement;
                let b = soa.displacement_at(p).displacement;
                prop_assert_eq!(a.x.to_bits(), b.x.to_bits(), "x diverged at {:?}", p);
                prop_assert_eq!(a.y.to_bits(), b.y.to_bits(), "y diverged at {:?}", p);
            }
        }

        #[test]
        fn warm_reestimation_matches_fresh_scalar(
            scene_a in arb_objects(),
            scene_b in arb_objects(),
            scene_c in arb_objects(),
            seed in any::<u64>(),
        ) {
            // The steady-state loop re-estimates into warm column buffers;
            // leftover capacity from a bigger earlier frame must not leak
            // into the result.
            let mut rng_a = ChaCha8Rng::seed_from_u64(seed);
            let mut rng_b = ChaCha8Rng::seed_from_u64(seed);
            let mut warm = FlowField::empty();
            warm.estimate_into(&scene_a, &scene_b, 1.5, &mut rng_b);
            let _ = ScalarFlowField::estimate(&scene_a, &scene_b, 1.5, &mut rng_a);
            warm.estimate_into(&scene_b, &scene_c, 1.5, &mut rng_b);
            let scalar = ScalarFlowField::estimate(&scene_b, &scene_c, 1.5, &mut rng_a);
            prop_assert_eq!(scalar.moving_clusters(), warm.moving_clusters());
            for o in &scene_b {
                let a = scalar.displacement_at(o.bbox.center()).displacement;
                let b = warm.displacement_at(o.bbox.center()).displacement;
                prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
                prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
            }
        }

        #[test]
        fn region_finder_matches_scalar_path(
            clusters in prop::collection::vec(arb_bbox(), 0..16),
            predicted in prop::collection::vec(arb_bbox(), 0..16),
            threshold in 0.0f64..1.0,
        ) {
            let mut scalar = Vec::new();
            find_new_regions_into(&clusters, &predicted, threshold, &mut scalar);
            let mut finder = NewRegionFinder::new();
            let mut fresh = Vec::new();
            finder.find_into(&clusters, &predicted, threshold, &mut fresh);
            prop_assert_eq!(&fresh, &scalar);
            // Scratch reuse with a different predicted set.
            find_new_regions_into(&clusters, &[], threshold, &mut scalar);
            finder.find_into(&clusters, &[], threshold, &mut fresh);
            prop_assert_eq!(&fresh, &scalar);
        }
    }
}
