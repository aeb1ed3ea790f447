//! Randomized stress suite for the pool's dispatch code.
//!
//! The executor hands raw pointers to caller-stack task cells to parked
//! workers, and no tool on the development hosts checks that for undefined
//! behaviour (no Miri; ThreadSanitizer runs in CI only). What can be checked
//! everywhere is the contract the `unsafe` exists to provide, over more
//! shapes than the unit tests pin: a fixed budget of seeded iterations of
//! random size and lane count, nested, with panicking tasks, against the
//! serial map — and every task output dropped exactly once by the time its
//! call returns.

use mvs_exec::{pool, resolve_threads};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Once;

const ITERATIONS: usize = 300;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One iteration's shape: `n` items (0 and 1 come up often) over `lanes`
/// lanes — 1–8, the `MVS_THREADS` default, or more lanes than items.
fn shape(rng: &mut u64) -> (usize, usize) {
    let n = match splitmix(rng) % 8 {
        0 => 0,
        1 => 1,
        _ => (splitmix(rng) % 40) as usize,
    };
    let lanes = match splitmix(rng) % 10 {
        0 => n + 3,
        1 => resolve_threads(0),
        _ => 1 + (splitmix(rng) % 8) as usize,
    };
    (n, lanes)
}

/// A task output that counts its construction (`made`) and its drop. A task
/// that outlived its call would move `made` after the call returned; an
/// output freed twice or leaked leaves `dropped != made`.
struct Counted<'a> {
    value: u64,
    dropped: &'a AtomicUsize,
}

impl<'a> Counted<'a> {
    fn new(value: u64, made: &AtomicUsize, dropped: &'a AtomicUsize) -> Self {
        made.fetch_add(1, SeqCst);
        Counted { value, dropped }
    }
}

impl Drop for Counted<'_> {
    fn drop(&mut self) {
        self.dropped.fetch_add(1, SeqCst);
    }
}

/// Panic payload of an injected task failure: the item index it hit.
struct Boom(usize);

/// Keeps the injected panics out of the test log; every other panic still
/// reaches the default hook.
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<Boom>() {
                default(info);
            }
        }));
    });
}

fn mix(mut i: u64) -> u64 {
    splitmix(&mut i)
}

#[test]
fn fan_outs_equal_the_serial_map_and_drop_every_output_once() {
    let mut rng = 0x5EED_u64;
    for iteration in 0..ITERATIONS {
        let (n, lanes) = shape(&mut rng);
        let (inner_n, inner_lanes) = shape(&mut rng);
        let items: Vec<u64> = (0..n as u64).collect();
        let inner: Vec<u64> = (0..inner_n as u64).collect();
        let (made, dropped) = (AtomicUsize::new(0), AtomicUsize::new(0));

        // A nested fan-out inside every task: runs inline on whichever
        // lane hosts it, same values.
        let task = |i: u64| -> u64 {
            let nested = pool().par_map(&inner, inner_lanes, |&j| mix(i ^ j));
            nested.iter().fold(mix(i), |a, b| a.wrapping_add(*b))
        };
        let want: Vec<u64> = items.iter().map(|&i| task(i)).collect();

        let got = pool().par_map(&items, lanes, |&i| Counted::new(task(i), &made, &dropped));
        let values: Vec<u64> = got.iter().map(|c| c.value).collect();
        assert_eq!(values, want, "par_map, iteration {iteration}");
        assert_eq!((made.load(SeqCst), dropped.load(SeqCst)), (n, 0));
        drop(got);
        assert_eq!(dropped.load(SeqCst), n, "iteration {iteration}");

        // The `&mut` forms: outputs and final states both.
        let mut states = items.clone();
        let got = pool().par_map_mut(&mut states, lanes, |s| std::mem::replace(s, task(*s)));
        assert_eq!(
            (got, &states),
            (items.clone(), &want),
            "iteration {iteration}"
        );
        pool().par_for_each_mut(&mut states, lanes, |s| *s = !*s);
        let flipped: Vec<u64> = want.iter().map(|w| !w).collect();
        assert_eq!(states, flipped, "iteration {iteration}");
    }
}

#[test]
fn lowest_index_panic_is_resumed_nothing_leaks_and_the_pool_survives() {
    silence_injected_panics();
    let mut rng = 0xB00A_u64;
    for iteration in 0..ITERATIONS {
        let (n, lanes) = shape(&mut rng);
        let n = n.max(1);
        let items: Vec<usize> = (0..n).collect();
        // One to three failing indices (repeats allowed).
        let failing: Vec<usize> = (0..1 + splitmix(&mut rng) % 3)
            .map(|_| (splitmix(&mut rng) % n as u64) as usize)
            .collect();
        let lowest = *failing.iter().min().expect("at least one");
        let (made, dropped) = (AtomicUsize::new(0), AtomicUsize::new(0));

        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool().par_map(&items, lanes, |&i| {
                if failing.contains(&i) {
                    std::panic::panic_any(Boom(i));
                }
                Counted::new(i as u64, &made, &dropped)
            })
        }))
        .err()
        .expect("a failing index panics the call");
        let Boom(index) = *payload.downcast::<Boom>().expect("the injected payload");
        assert_eq!(index, lowest, "iteration {iteration}: {failing:?}");
        // Outputs of the tasks that did finish were freed by the unwind …
        let made_at_return = made.load(SeqCst);
        assert_eq!(dropped.load(SeqCst), made_at_return);

        // … the same workers serve the next batch …
        let again = pool().par_map(&items, lanes, |&i| i + 1);
        assert_eq!(again, (1..=n).collect::<Vec<_>>());
        // … which they could only start after finishing everything queued
        // before it: no task of the failed batch was still running when
        // its call returned.
        assert_eq!(
            made.load(SeqCst),
            made_at_return,
            "a task outlived its call"
        );
        assert_eq!(dropped.load(SeqCst), made_at_return);
    }
}
