//! Allocation gate for the program's own frame loop.
//!
//! DESIGN.md §10 claims that a steady-state regular frame allocates nothing
//! per camera: every list a frame fills lives in a scratch buffer that is
//! cleared, never shrunk. This binary measures that on
//! `TenantPipeline::step()` itself — not on a rebuilt copy of the loop —
//! with a counting global allocator, on the paper's S1 preset and on a
//! 16-camera city, under one bound: if anything allocated per camera, per
//! track or per detection, the city would show it.
//!
//! One test, one thread (`threads: 1` runs every camera inline), so the
//! thread-local counter sees the whole step and nothing else.

use mvs_sim::{Algorithm, CityConfig, PipelineConfig, Scenario, ScenarioKind, TenantPipeline};
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

/// Allocation events of the median regular-frame step over three horizons,
/// after three warm-up horizons; also returns the worst key-frame step, to
/// show the counter is live.
fn steady_state(scenario: &Scenario) -> (u64, u64) {
    let config = PipelineConfig {
        train_s: 30.0,
        threads: 1,
        measured_overheads: false,
        ..PipelineConfig::paper_default(Algorithm::Balb)
    };
    let horizon = config.horizon;
    let mut pipeline = TenantPipeline::new(scenario, &config);
    for _ in 0..3 * horizon {
        pipeline.step();
    }
    let (mut regular, mut key) = (Vec::with_capacity(3 * horizon), 0);
    for frame in 0..3 * horizon {
        let before = events();
        std::hint::black_box(pipeline.step());
        let allocated = events() - before;
        if frame % horizon == 0 {
            key = key.max(allocated);
        } else {
            regular.push(allocated);
        }
    }
    regular.sort_unstable();
    (regular[regular.len() / 2], key)
}

/// A regular frame may make a small constant number of allocation events
/// (one output list per stage fan-out, an occasional series doubling) — and
/// nothing that scales with cameras, tracks or detections.
const MAX_REGULAR_FRAME_ALLOCS: u64 = 16;

#[test]
fn steady_state_regular_frames_do_not_allocate_per_camera() {
    let (s1, s1_key) = steady_state(&Scenario::new(ScenarioKind::S1));
    let (city, city_key) = steady_state(&Scenario::city(&CityConfig {
        cameras: 16,
        seed: 5,
        intensity: 2.0,
    }));
    assert!(
        s1 <= MAX_REGULAR_FRAME_ALLOCS,
        "S1/BALB: median regular frame made {s1} allocation events"
    );
    assert!(
        city <= MAX_REGULAR_FRAME_ALLOCS,
        "16-camera city: median regular frame made {city} allocation events \
         (S1 with 5 cameras: {s1}) - something allocates per camera"
    );
    // Key frames return fresh global objects, an `MvsProblem` and shadow-map
    // nodes: the counter must see them, or it is not installed.
    assert!(
        s1_key > MAX_REGULAR_FRAME_ALLOCS && city_key > s1_key,
        "key frames allocated {s1_key} (S1) and {city_key} (city): the counter is not live"
    );
}
