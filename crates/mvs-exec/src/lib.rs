//! Persistent deterministic executor.
//!
//! Every parallel site in this workspace (the per-camera frame stages,
//! the serve loop's tenant-parallel phases, the experiment sweeps) fans out
//! over one long-lived pool of parked worker threads instead of paying
//! OS-thread spawn and join costs per frame. The whole fan-out surface is
//! a contiguous-chunk map with an index-ordered merge:
//! [`Executor::par_map`] over `&` items, [`Executor::par_map_mut`] over
//! `&mut` items, and [`Executor::par_for_each_mut`] when there is nothing
//! to collect.
//!
//! # Determinism contract
//!
//! Lane count (`lanes`) controls *where* work runs, never *what* it
//! computes. Chunking is contiguous (`chunk_len = n.div_ceil(lanes)`),
//! merges are index-ordered, and caller-visible effects happen in input
//! order, so every primitive returns bitwise the same results at any lane
//! count — including one, where it degenerates to a plain serial loop
//! with no synchronization at all. Callers own any shared-state
//! discipline (private RNG streams, disjoint writes); the executor only
//! promises it will not add ordering of its own.
//!
//! # Pool lifecycle
//!
//! [`pool()`] returns the process-wide executor. Workers are spawned
//! lazily the first time a fan-out needs them (growth is the only place
//! this workspace creates threads) and then park on their private task
//! channels forever — dispatching a batch costs channel sends and one
//! condvar wait, not thread creation. A batch submitted from *inside* a
//! pool task runs inline on that worker, so nested fan-outs can never
//! deadlock the pool.
//!
//! # Panics
//!
//! A panicking task never kills a worker: each task runs under
//! `catch_unwind`, payloads are collected per task, and after the whole
//! batch has finished the lowest-index payload is resumed on the caller —
//! the same observable behavior as joining scoped threads in spawn order,
//! and deterministic when several lanes panic at once.

#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Upper bound on pool width. Lane counts are clamped to item counts at
/// every call site, so this is a runaway backstop, not a tuning knob;
/// batches wider than the pool round-robin over the existing workers.
const MAX_WORKERS: usize = 64;

thread_local! {
    /// Set for the lifetime of a pool worker thread, and on the caller
    /// while it runs its own share of a parallel batch: code that is
    /// already inside an executor task runs nested fan-outs inline.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is executing an executor task (worker
/// thread, or caller running its lane of a batch). Nested executor calls
/// made here run inline.
fn in_executor_task() -> bool {
    IN_TASK.with(Cell::get)
}

/// Resolves a requested thread count: `0` means auto — the `MVS_THREADS`
/// environment variable if it is set, otherwise the machine's available
/// parallelism.
///
/// # Panics
///
/// Panics when `requested` is 0 and `MVS_THREADS` is set to anything but a
/// positive integer: the variable pins the pool width of whole test
/// matrices, so a mistyped value must not quietly mean "every CPU".
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    match std::env::var("MVS_THREADS") {
        Ok(value) => thread_override(&value).unwrap_or_else(|e| panic!("{e}")),
        Err(std::env::VarError::NotPresent) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Err(e) => panic!("MVS_THREADS: {e}"),
    }
}

/// The pool width a set `MVS_THREADS` asks for, or why it asks for none.
fn thread_override(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err("MVS_THREADS must be positive".to_string()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("MVS_THREADS `{}`: {e}", value.trim())),
    }
}

/// Countdown latch: the caller blocks until every submitted task of a
/// batch has finished. `count_down` is a worker's *last* touch of any
/// batch state, which is what makes handing borrowed task cells to
/// persistent threads sound (see [`RawTask`]).
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        // No task code runs under this lock, so the mutex cannot poison.
        let mut remaining = self.remaining.lock().expect("latch mutex poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            // Notify while holding the guard: the waiter cannot observe
            // zero and free the latch before this unlock completes.
            self.done.notify_one();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("latch mutex poisoned");
        while *remaining > 0 {
            remaining = self.done.wait(remaining).expect("latch mutex poisoned");
        }
    }
}

/// One task of a batch, on the submitting caller's stack: the closure to
/// run and the panic it produced (if any).
struct TaskCell<F> {
    f: Option<F>,
    panic: Option<Box<dyn Any + Send>>,
}

impl<F> TaskCell<F> {
    fn new(f: F) -> Self {
        TaskCell {
            f: Some(f),
            panic: None,
        }
    }
}

/// Runs a cell's closure exactly once, catching any panic into the cell.
///
/// # Safety
///
/// `data` must point to a live `TaskCell<F>` that no other thread touches
/// until the batch's latch (or inline loop) says this call has returned.
unsafe fn run_cell<F: FnOnce()>(data: *mut ()) {
    // SAFETY: the caller's contract — `data` is a live `TaskCell<F>` and this
    // call is its only accessor (one writer per cell) until it returns.
    let cell = unsafe { &mut *data.cast::<TaskCell<F>>() };
    let f = cell.f.take().expect("executor task runs exactly once");
    if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
        cell.panic = Some(payload);
    }
}

/// A lifetime-erased task handed to a worker: a pointer to its
/// [`TaskCell`] on the submitting caller's stack, the monomorphic
/// trampoline that runs it, and the batch latch to count down after.
struct RawTask {
    data: *mut (),
    run: unsafe fn(*mut ()),
    latch: *const Latch,
}

// SAFETY: `RawTask` is a message, not shared state. The cell and latch it
// points to live on the submitting thread's stack, and that thread blocks
// on the latch until every task has counted down — the worker's accesses
// are exclusive (one task per cell) and strictly before the caller's
// resumption (mutex/condvar ordering), so sending the raw pointers to a
// worker thread is sound.
unsafe impl Send for RawTask {}

fn raw_task_for<F: FnOnce()>(cell: *mut TaskCell<F>, latch: *const Latch) -> RawTask {
    RawTask {
        data: cell.cast(),
        run: run_cell::<F>,
        latch,
    }
}

struct Worker {
    tx: Sender<RawTask>,
    join: Option<JoinHandle<()>>,
}

fn worker_loop(rx: &Receiver<RawTask>) {
    IN_TASK.with(|t| t.set(true));
    while let Ok(task) = rx.recv() {
        // SAFETY: the cell and the latch outlive the latch wait — the
        // submitting thread blocks in `Latch::wait` until this task has
        // counted down — and this worker is the cell's only writer.
        // `count_down` runs strictly after the cell's last write (program
        // order here, release on the latch mutex for the caller) and is
        // this thread's last touch of either pointer.
        unsafe {
            (task.run)(task.data);
            (*task.latch).count_down();
        }
    }
}

/// Restores `IN_TASK` when the caller finishes running its own lane of a
/// batch (kept on unwind too, so a panicking lane cannot leak the flag).
struct InTaskGuard {
    was: bool,
}

impl InTaskGuard {
    fn enter() -> Self {
        let was = IN_TASK.with(|t| t.replace(true));
        InTaskGuard { was }
    }
}

impl Drop for InTaskGuard {
    fn drop(&mut self) {
        let was = self.was;
        IN_TASK.with(|t| t.set(was));
    }
}

/// A persistent pool of parked worker threads. See the crate docs for the
/// determinism contract; [`pool()`] for the process-wide instance.
pub struct Executor {
    workers: Mutex<Vec<Worker>>,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker registry"));
        for worker in workers {
            // Dropping the sender closes the worker's channel; it drains
            // anything already queued, then exits its loop.
            let Worker { tx, join } = worker;
            drop(tx);
            if let Some(handle) = join {
                let _ = handle.join();
            }
        }
    }
}

impl Executor {
    /// An executor with no workers yet; they are spawned lazily by the
    /// first fan-out that needs them.
    #[must_use]
    pub fn new() -> Self {
        Executor {
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Number of live pool workers (grows lazily; for diagnostics/tests).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.lock().expect("worker registry").len()
    }

    /// Clones senders for up to `wanted` workers, growing the pool as
    /// needed. Growth is the only thread creation in the workspace's
    /// runtime paths. Returns fewer (possibly zero) senders when spawning
    /// fails — callers fall back to inline execution.
    fn senders_for(&self, wanted: usize) -> Vec<Sender<RawTask>> {
        let mut workers = self.workers.lock().expect("worker registry");
        while workers.len() < wanted.min(MAX_WORKERS) {
            let (tx, rx) = mpsc::channel();
            let name = format!("mvs-exec-{}", workers.len());
            match std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(&rx))
            {
                Ok(handle) => workers.push(Worker {
                    tx,
                    join: Some(handle),
                }),
                // Resource exhaustion: serve the batch with what exists.
                Err(_) => break,
            }
        }
        workers.iter().take(wanted).map(|w| w.tx.clone()).collect()
    }

    /// Runs a batch of same-typed tasks to completion: task 0 on the
    /// caller, the rest round-robin over pool workers; returns after all
    /// have finished, resuming the lowest-index panic if any task
    /// panicked. Falls back to an in-order inline loop when the batch has
    /// one task, the caller is itself an executor task, or no worker
    /// could be spawned — same results by the determinism contract.
    fn run_batch<F: FnOnce() + Send>(&self, tasks: Vec<F>) {
        let k = tasks.len();
        if k == 0 {
            return;
        }
        let mut cells: Vec<TaskCell<F>> = tasks.into_iter().map(TaskCell::new).collect();
        let senders = if k > 1 && !in_executor_task() {
            self.senders_for(k - 1)
        } else {
            Vec::new()
        };
        if senders.is_empty() {
            for cell in &mut cells {
                // SAFETY: `cell` is a live exclusive borrow and nothing
                // else runs until this call returns.
                unsafe { run_cell::<F>(std::ptr::from_mut(cell).cast()) };
            }
        } else {
            let latch = Latch::new(k - 1);
            // Derive every pointer from the base pointer (not through
            // element references) so the caller-side access to cell 0
            // cannot invalidate the workers' pointers.
            let base: *mut TaskCell<F> = cells.as_mut_ptr();
            for i in 1..k {
                // SAFETY: `i < k == cells.len()`, so the pointer is in
                // bounds; the cell goes to exactly one worker (one writer
                // per slot), and `cells` and `latch` stay alive and
                // untouched here until `latch.wait()` below has returned.
                let task = raw_task_for(unsafe { base.add(i) }, &latch);
                senders[(i - 1) % senders.len()]
                    .send(task)
                    .expect("pool workers outlive the executor");
            }
            {
                let _in_task = InTaskGuard::enter();
                // SAFETY: cell 0 was sent to no worker, so this thread
                // is its only accessor.
                unsafe { run_cell::<F>(base.cast()) };
            }
            latch.wait();
        }
        if let Some(payload) = cells.into_iter().find_map(|c| c.panic) {
            resume_unwind(payload);
        }
    }

    /// Runs `f` on every chunk — one batch task each — and returns the
    /// per-chunk outputs in chunk order. Callers cut contiguous chunks of
    /// `n.div_ceil(lanes)` items (`chunks` and `chunks_mut` both fit), so
    /// the chunk *structure* is a function of the lane count alone, whether
    /// the chunks run on the pool or inline.
    fn run_chunks<C, T, F>(&self, chunks: impl ExactSizeIterator<Item = C>, f: F) -> Vec<T>
    where
        C: Send,
        T: Send,
        F: Fn(C) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(chunks.len(), || None);
        {
            let f = &f;
            let tasks: Vec<_> = chunks
                .zip(slots.iter_mut())
                .map(|(chunk, slot)| move || *slot = Some(f(chunk)))
                .collect();
            self.run_batch(tasks);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every chunk ran"))
            .collect()
    }

    /// Maps `f` over the items, fanning contiguous chunks out across up
    /// to `lanes` pool workers, and returns the outputs in input order
    /// regardless of which worker ran which chunk. With one lane (or one
    /// item, or when called from inside an executor task) it runs inline
    /// — same results, no synchronization.
    pub fn par_map<I, T, F>(&self, items: &[I], lanes: usize, f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        let n = items.len();
        let lanes = lanes.clamp(1, n.max(1));
        if lanes == 1 || in_executor_task() {
            return items.iter().map(f).collect();
        }
        self.run_chunks(items.chunks(n.div_ceil(lanes)), |chunk| {
            chunk.iter().map(&f).collect()
        })
        .into_iter()
        .flat_map(|v: Vec<T>| v)
        .collect()
    }

    /// [`Executor::par_map`] over `&mut` items (workers get disjoint
    /// mutable chunks).
    pub fn par_map_mut<I, T, F>(&self, items: &mut [I], lanes: usize, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(&mut I) -> T + Sync,
    {
        let n = items.len();
        let lanes = lanes.clamp(1, n.max(1));
        if lanes == 1 || in_executor_task() {
            return items.iter_mut().map(f).collect();
        }
        self.run_chunks(items.chunks_mut(n.div_ceil(lanes)), |chunk| {
            chunk.iter_mut().map(&f).collect()
        })
        .into_iter()
        .flat_map(|v: Vec<T>| v)
        .collect()
    }

    /// [`Executor::par_map_mut`] discarding outputs.
    pub fn par_for_each_mut<I, F>(&self, items: &mut [I], lanes: usize, f: F)
    where
        I: Send,
        F: Fn(&mut I) + Sync,
    {
        let _: Vec<()> = self.par_map_mut(items, lanes, |it| f(it));
    }
}

/// The process-wide executor. Workers are spawned lazily on first use and
/// persist for the life of the process (they park on empty channels, so
/// an idle pool costs nothing).
pub fn pool() -> &'static Executor {
    static POOL: OnceLock<Executor> = OnceLock::new();
    POOL.get_or_init(Executor::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic generator so determinism tests need no deps.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn par_map_is_index_ordered_at_any_lane_count() {
        let exec = Executor::new();
        let items: Vec<usize> = (0..7).collect();
        let want: Vec<usize> = items.iter().map(|i| i * 10).collect();
        for lanes in [1, 2, 3, 8, 64] {
            assert_eq!(
                exec.par_map(&items, lanes, |&i| i * 10),
                want,
                "lanes={lanes}"
            );
        }
    }

    #[test]
    fn par_map_mut_results_match_serial_at_any_lane_count() {
        // Each item owns a private generator state; the collected draws
        // and final states must not depend on the lane count.
        let run = |lanes: usize| -> (Vec<u64>, Vec<u64>) {
            let exec = Executor::new();
            let mut states: Vec<u64> = (0..5).map(|i| i as u64 * 7 + 1).collect();
            let mut draws = Vec::new();
            for _ in 0..3 {
                draws.extend(exec.par_map_mut(&mut states, lanes, splitmix));
            }
            (draws, states)
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(5));
    }

    #[test]
    fn par_for_each_mut_mutates_disjoint_chunks() {
        let exec = Executor::new();
        let mut items: Vec<usize> = (0..9).collect();
        exec.par_for_each_mut(&mut items, 4, |i| *i += 100);
        assert_eq!(items, (100..109).collect::<Vec<_>>());
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let exec = Executor::new();
        let items: Vec<usize> = (0..8).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.par_map(&items, 4, |&i| {
                assert!(i != 5, "boom at {i}");
                i
            })
        }));
        assert!(caught.is_err(), "panic must reach the caller");
        // Workers caught the panic and parked again: the pool still works.
        assert_eq!(exec.par_map(&items, 4, |&i| i + 1)[7], 8);
    }

    #[test]
    fn lowest_index_panic_wins_when_several_lanes_panic() {
        let exec = Executor::new();
        let items: Vec<usize> = (0..8).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.par_map(&items, 8, |&i| {
                if i % 2 == 1 {
                    std::panic::panic_any(format!("lane {i}"));
                }
                i
            })
        }))
        .expect_err("odd lanes panic");
        let msg = caught
            .downcast_ref::<String>()
            .expect("payload is the panicked lane's message");
        assert_eq!(msg, "lane 1");
    }

    #[test]
    fn nested_fan_outs_run_inline_without_deadlock() {
        let exec = pool();
        let items: Vec<usize> = (0..6).collect();
        let out = exec.par_map(&items, 3, |&i| {
            let inner: Vec<usize> = (0..4).collect();
            // Nested call on a pool worker (or the participating caller):
            // runs inline, same results.
            pool()
                .par_map(&inner, 4, |&j| j * 10 + i)
                .iter()
                .sum::<usize>()
        });
        let want: Vec<usize> = items.iter().map(|&i| 60 + 4 * i).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn workers_persist_across_batches() {
        let exec = Executor::new();
        let ids = |exec: &Executor| -> Vec<std::thread::ThreadId> {
            exec.par_map(&[0usize, 1, 2, 3], 4, |_| std::thread::current().id())
        };
        let first = ids(&exec);
        let second = ids(&exec);
        assert_eq!(first, second, "same parked workers serve every batch");
        assert_eq!(exec.workers(), 3, "caller runs lane 0; three workers");
        // Lane 0 runs on the caller itself.
        assert_eq!(first[0], std::thread::current().id());
    }

    #[test]
    fn empty_and_oversized_batches_are_fine() {
        let exec = Executor::new();
        assert_eq!(exec.par_map(&Vec::<u8>::new(), 8, |&b| b), Vec::<u8>::new());
        assert_eq!(exec.par_map(&[1u8], 64, |&b| b + 1), vec![2]);
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn thread_override_is_a_positive_integer_or_an_error() {
        assert_eq!(thread_override("4"), Ok(4));
        assert_eq!(thread_override(" 2\n"), Ok(2));
        for bad in ["abc", "0", "-2", "2.5", ""] {
            let message = thread_override(bad).unwrap_err();
            assert!(message.starts_with("MVS_THREADS"), "{bad:?}: {message}");
        }
    }
}
