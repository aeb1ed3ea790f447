//! Property-based tests for the geometry primitives.

use mvs_geometry::{BBox, FrameDims, Grid, Point2, Projective2, SizeClass};
use proptest::prelude::*;

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (
        -500.0f64..1500.0,
        -500.0f64..1500.0,
        0.0f64..400.0,
        0.0f64..400.0,
    )
        .prop_map(|(x, y, w, h)| BBox::new(x, y, x + w, y + h).expect("constructed valid"))
}

fn arb_point() -> impl Strategy<Value = Point2> {
    (-1000.0f64..2000.0, -1000.0f64..2000.0).prop_map(|(x, y)| Point2::new(x, y))
}

proptest! {
    #[test]
    fn iou_is_bounded_and_symmetric(a in arb_bbox(), b in arb_bbox()) {
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn iou_with_self_is_one_for_positive_area(a in arb_bbox()) {
        prop_assume!(a.area() > 0.0);
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn intersection_area_is_at_most_either_area(a in arb_bbox(), b in arb_bbox()) {
        let i = a.intersection_area(&b);
        prop_assert!(i <= a.area() + 1e-9);
        prop_assert!(i <= b.area() + 1e-9);
        prop_assert!(i >= 0.0);
    }

    #[test]
    fn union_hull_contains_both(a in arb_bbox(), b in arb_bbox()) {
        let h = a.union_hull(&b);
        prop_assert!(h.contains_box(&a));
        prop_assert!(h.contains_box(&b));
    }

    #[test]
    fn translation_preserves_area_and_iou(a in arb_bbox(), d in arb_point()) {
        let t = a.translated(d);
        prop_assert!((t.area() - a.area()).abs() < 1e-6);
        // Translating both boxes together preserves their IoU.
        let b = a.scaled_about_center(0.7);
        let tb = b.translated(d);
        prop_assert!((a.iou(&b) - t.iou(&tb)).abs() < 1e-9);
    }

    #[test]
    fn expanded_square_always_contains_center(a in arb_bbox(), side in 1.0f64..600.0) {
        let e = a.expanded_to_square(side);
        prop_assert!(e.contains_point(a.center()));
        prop_assert!((e.width() - side).abs() < 1e-9);
        prop_assert!((e.height() - side).abs() < 1e-9);
    }

    #[test]
    fn quantize_covers_the_region_or_saturates(w in 0.1f64..2000.0, h in 0.1f64..2000.0) {
        let class = SizeClass::quantize(w, h);
        let long = w.max(h);
        if long <= 512.0 {
            prop_assert!(class.side() as f64 >= long);
            // And it is the smallest such class.
            if let Some(smaller) = match class {
                SizeClass::S64 => None,
                c => Some(SizeClass::from_index(c.index() - 1)),
            } {
                prop_assert!((smaller.side() as f64) < long);
            }
        } else {
            prop_assert_eq!(class, SizeClass::S512);
        }
    }

    #[test]
    fn grid_cell_lookup_matches_cell_bbox(
        x in 0.0f64..1279.0,
        y in 0.0f64..703.0,
        cell in prop::sample::select(vec![32u32, 64, 100, 127]),
    ) {
        let grid = Grid::new(FrameDims::REGULAR, cell);
        let p = Point2::new(x, y);
        let idx = grid.cell_at(p).expect("point is inside the frame");
        prop_assert!(grid.cell_bbox(idx).contains_point(p));
    }

    #[test]
    fn grid_cells_partition_the_frame(cell in prop::sample::select(vec![32u32, 64, 128])) {
        let grid = Grid::new(FrameDims::REGULAR, cell);
        let total: f64 = grid.iter().map(|c| grid.cell_bbox(c).area()).sum();
        prop_assert!((total - FrameDims::REGULAR.pixel_count() as f64).abs() < 1e-6);
    }

    #[test]
    fn homography_inverse_round_trips(
        p in arb_point(),
        dx in -200.0f64..200.0,
        dy in -200.0f64..200.0,
        angle in -3.0f64..3.0,
        scale in 0.2f64..5.0,
    ) {
        let h = Projective2::translation(dx, dy)
            .compose(&Projective2::rotation(angle))
            .compose(&Projective2::scale(scale));
        let inv = h.inverse().expect("similarity transforms are invertible");
        let q = h.apply(p).expect("affine maps are total");
        let back = inv.apply(q).expect("affine maps are total");
        prop_assert!(back.distance(p) < 1e-6);
    }

    #[test]
    fn clamping_never_grows_the_box(a in arb_bbox()) {
        if let Some(c) = a.clamped_to(FrameDims::REGULAR) {
            prop_assert!(c.area() <= a.area() + 1e-9);
            prop_assert!(a.contains_box(&c));
            prop_assert!(FrameDims::REGULAR.contains(&c));
        }
    }
}

mod polygon_properties {
    use mvs_geometry::{Point2, Polygon};
    use proptest::prelude::*;

    fn arb_wedge() -> impl Strategy<Value = Polygon> {
        (
            -50.0f64..50.0,
            -50.0f64..50.0,
            0.0f64..std::f64::consts::TAU,
            0.1f64..1.4,
            0.5f64..5.0,
            10.0f64..100.0,
        )
            .prop_map(|(x, y, heading, half_fov, near, extra)| {
                Polygon::view_wedge(Point2::new(x, y), heading, half_fov, near, near + extra)
            })
    }

    proptest! {
        #[test]
        fn wedge_area_is_positive_and_finite(w in arb_wedge()) {
            let a = w.area();
            prop_assert!(a > 0.0 && a.is_finite());
        }

        #[test]
        fn wedge_contains_points_along_its_axis(
            x in -50.0f64..50.0,
            y in -50.0f64..50.0,
            heading in 0.0f64..std::f64::consts::TAU,
        ) {
            let apex = Point2::new(x, y);
            let w = Polygon::view_wedge(apex, heading, 0.5, 2.0, 50.0);
            let dir = Point2::new(heading.cos(), heading.sin());
            // Midway along the viewing axis is always inside.
            prop_assert!(w.contains(apex + dir * 25.0));
            // The apex itself is before the near plane.
            prop_assert!(!w.contains(apex));
        }

        #[test]
        fn bbox_contains_every_vertex(w in arb_wedge()) {
            let bb = w.bbox();
            for &v in w.vertices() {
                prop_assert!(bb.contains_point(v));
            }
        }

        #[test]
        fn containment_respects_vertex_hull(w in arb_wedge()) {
            // The centroid of the vertices of a convex polygon is inside it.
            let n = w.vertices().len() as f64;
            let centroid = w
                .vertices()
                .iter()
                .fold(Point2::ORIGIN, |acc, &v| acc + v)
                / n;
            prop_assert!(w.contains(centroid));
        }
    }
}
