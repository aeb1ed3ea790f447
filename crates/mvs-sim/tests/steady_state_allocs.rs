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
//! The same counter holds redeployment to its claim (DESIGN.md §13): a
//! pipeline started from an existing `Deployment` trains nothing, so what a
//! start — and with it a crash restore or a re-admission — allocates does
//! not grow with the training window.
//!
//! Every test runs on one thread (`threads: 1` runs every camera and every
//! tenant inline), so the thread-local counter sees the whole of what it
//! brackets and nothing of the other tests.

use mvs_sim::{
    Algorithm, CityConfig, Deployment, PipelineConfig, Scenario, ScenarioKind, ServeConfig,
    ServeFaultModel, ServeLoop, TenantPipeline,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// `f`'s result and the allocation events it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = events();
    let out = f();
    (out, events() - before)
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
        let (_, allocated) = counted(|| std::hint::black_box(pipeline.step()));
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

/// Starting a 16-camera pipeline clones a world, an RNG position and one
/// first view per camera, and seeds empty per-run state: a few events per
/// camera, whatever the deployment took to build.
const MAX_START_ALLOCS: u64 = 64;

#[test]
fn starting_from_a_deployment_does_not_pay_for_training() {
    let scenario = Scenario::city(&CityConfig {
        cameras: 16,
        seed: 5,
        intensity: 2.0,
    });
    let mut built_by_window = Vec::new();
    for train_s in [15.0, 60.0] {
        let config = PipelineConfig {
            train_s,
            threads: 1,
            measured_overheads: false,
            ..PipelineConfig::paper_default(Algorithm::Balb)
        };
        let (deployment, built) = counted(|| Arc::new(Deployment::build(&scenario, &config)));
        let (first, started) = counted(|| TenantPipeline::start(Arc::clone(&deployment)));
        // A restart, with the first run still live.
        let (_second, restarted) = counted(|| TenantPipeline::start(Arc::clone(&deployment)));
        drop(first);
        assert!(
            started <= built / 8 && started < MAX_START_ALLOCS,
            "train_s {train_s}: start made {started} allocation events, build {built}"
        );
        assert_eq!(
            started, restarted,
            "train_s {train_s}: a restart costs a start"
        );
        built_by_window.push(built);
    }
    // The counter sees what a start skips: training allocates per sample.
    assert!(
        built_by_window[1] > built_by_window[0],
        "build events {built_by_window:?} do not grow with the training window"
    );
}

/// One tenant, so one number discriminates: `ServeLoop::new` builds the
/// tenant's deployment, starts it and pilots it, and any later step that
/// built a deployment again would make about as many events as `new` did.
/// With the deployment kept, a crash restore is start + pilot + replay and a
/// re-admission start + pilot — a fraction of it.
#[test]
fn a_serve_run_trains_each_tenant_once() {
    let config = ServeConfig {
        tenants: 1,
        cameras_per_tenant: 8,
        duration_s: 4.0,
        threads: 1,
        chaos: ServeFaultModel {
            seed: 11,
            crash_at_us: vec![1_250_000],
            restart_delay_us: 300_000,
            poison_per_frame: 0.05,
            quarantine_us: 500_000,
            ..ServeFaultModel::none()
        },
        snapshot_every_horizons: 1,
        ..ServeConfig::default()
    };
    let (serve, deployed) = counted(|| ServeLoop::new(&config));
    let mut serve = serve.expect("valid config");
    let (mut worst, mut crash_step) = (0, None);
    for slice in 1..=40 {
        let was_us = serve.now_us();
        let ((), made) = counted(|| serve.run_until(slice * 100_000));
        worst = worst.max(made);
        // The outage is the one place the clock jumps past a slice.
        if serve.now_us() > was_us + 100_000 {
            crash_step = Some(made);
        }
    }
    let report = serve.run();
    let recovery = report.recovery;
    assert!(
        recovery.restarts == 1 && recovery.quarantines >= 1 && recovery.readmissions >= 1,
        "the run must restore and re-admit to gate anything: {recovery:?}"
    );
    let crash_step = crash_step.expect("the crash fell inside the stepped window");
    assert!(
        crash_step > MAX_START_ALLOCS,
        "the crash step made {crash_step} allocation events: nothing was restored in it"
    );
    assert!(
        worst < deployed / 2,
        "a step made {worst} allocation events (the crash restore {crash_step}); \
         building the fleet made {deployed} - something trained again"
    );
}
