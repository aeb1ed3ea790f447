//! Allocation regression gate for the association hot path.
//!
//! A model's `predict` / `is_visible` runs for every detection on every
//! camera every frame (takeover scan, association round), so it must not
//! touch the heap: at `k = 3` the KNN top-k, the feature row and the
//! regressed box all live on the stack. A whole association round over warm
//! scratch — one sweep per source box, three heads asked of it — allocates
//! only the list it returns. Events are counted per thread, so the tests of
//! this binary do not see each other.

use mvs_assoc::{
    train_pair_model, train_source_model, AssociationEngine, AssociationScratch,
    CorrespondenceSample,
};
use mvs_geometry::BBox;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so the test harness's own threads are not counted.
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Ignoring the error: a thread past TLS teardown is not the test thread.
    let _ = EVENTS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// `Cell` without a destructor, so touching it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn events() -> u64 {
    EVENTS.with(Cell::get)
}

fn bb(x: f64, y: f64, w: f64, h: f64) -> BBox {
    BBox::new(x, y, x + w, y + h).expect("valid box")
}

#[test]
fn pair_model_predict_never_allocates() {
    // Visible (shifted 100 px right) only in the right half of the source.
    let samples: Vec<CorrespondenceSample> = (0..200)
        .map(|i| {
            let x = 6.0 * f64::from(i);
            let y = 100.0 + f64::from(i % 7) * 40.0;
            CorrespondenceSample {
                src: bb(x, y, 60.0, 50.0),
                dst: (x > 600.0).then(|| bb(x - 500.0, y + 10.0, 60.0, 50.0)),
            }
        })
        .collect();
    let model = train_pair_model(3, &samples).expect("non-empty samples");
    let probes: Vec<BBox> = (0..60)
        .map(|i| {
            bb(
                20.0 * f64::from(i),
                90.0 + f64::from(i % 5) * 55.0,
                58.0,
                52.0,
            )
        })
        .collect();

    let before = events();
    let (mut none, mut some) = (0u32, 0u32);
    for probe in &probes {
        let mapped = model.predict(probe);
        assert_eq!(model.is_visible(probe), mapped.is_some());
        match mapped {
            None => none += 1,
            Some(mapped) => {
                std::hint::black_box(mapped);
                some += 1;
            }
        }
    }
    let allocated = events() - before;

    assert!(
        none > 0 && some > 0,
        "both paths exercised: {none} None, {some} Some"
    );
    assert_eq!(
        allocated,
        0,
        "predict / is_visible allocated {allocated} times over {} queries",
        probes.len()
    );

    // The counter is live: the same loop with a boxed result is seen.
    let before = events();
    std::hint::black_box(Box::new(model.predict(&probes[0])));
    assert!(events() > before, "counting allocator is not installed");
}

#[test]
fn warm_association_round_allocates_only_what_it_returns() {
    // Four cameras, each view the previous one shifted 150 px. Camera 0
    // is a source table with a head toward each of the others (one sweep
    // per box serves all three; the last sees only the right half, so its
    // list is not always the vote's); camera 1 → 2 is a pair model.
    let rows: Vec<BBox> = (0..80)
        .map(|i| bb(12.0 * f64::from(i), 200.0, 50.0, 40.0))
        .collect();
    let shifted = |dx: f64| -> Vec<(usize, BBox)> {
        let there = |b: &BBox| bb(b.x1() + dx, 200.0, 50.0, 40.0);
        rows.iter().map(there).enumerate().collect()
    };
    let shift: Vec<CorrespondenceSample> = (rows.iter().zip(shifted(150.0)))
        .map(|(&src, (_, there))| CorrespondenceSample {
            src,
            dst: Some(there),
        })
        .collect();
    let right_half: Vec<(usize, BBox)> = (shifted(450.0).into_iter())
        .filter(|&(row, _)| row >= 40 || row % 3 == 0)
        .collect();
    let mut engine = AssociationEngine::new(4, AssociationEngine::DEFAULT_IOU_THRESHOLD);
    engine.insert_source(
        0,
        train_source_model(3, &rows, &[&shifted(150.0), &shifted(300.0), &right_half])
            .expect("non-empty rows"),
        vec![(1, 0), (2, 1), (3, 2)],
    );
    engine.insert_model(
        1,
        2,
        train_pair_model(3, &shift).expect("non-empty samples"),
    );
    assert_eq!(engine.num_models(), 4);
    let row = |dx: f64| -> Vec<BBox> {
        (0..6)
            .map(|i| bb(100.0 + 90.0 * f64::from(i) + dx, 200.0, 50.0, 40.0))
            .collect()
    };
    // One camera-2 box matches nothing: merged and singleton groups both occur.
    let mut last = row(300.0);
    last.push(bb(20.0, 500.0, 30.0, 30.0));
    let detections = vec![row(0.0), row(150.0), last, row(450.0)];

    let mut scratch = AssociationScratch::default();
    let cold = engine.associate_with(&detections, &mut scratch);
    let before = events();
    let warm = engine.associate_with(&detections, &mut scratch);
    let allocated = events() - before;

    assert_eq!(warm, cold, "scratch carries no result");
    assert_eq!(warm, engine.associate(&detections));
    assert!(warm.iter().any(|g| g.members.len() == 4));
    assert!(warm.iter().any(|g| g.members.len() == 1));
    assert_eq!(
        allocated,
        1 + warm.len() as u64,
        "a warm round allocates the returned list and one member Vec per global"
    );
}
