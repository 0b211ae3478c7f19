//! The long-lived worker pool behind [`parallel_map`](crate::parallel_map).
//!
//! The original runtime spawned scoped threads on **every** call, which is
//! correct but pays a thread spawn + join per map — measurable once the
//! ingest engine applies thousands of small batches per second. This module
//! keeps a fixed set of parked workers alive for the whole process and
//! feeds them type-erased *batches*:
//!
//! * **Injector.** Submitted batches enter one shared FIFO; parked workers
//!   are woken and scan it front-to-back for a batch that still has work
//!   and a free executor slot.
//! * **Chunked stealing.** A batch's items are split into `grain`-sized
//!   chunks; executors claim whole chunks off one atomic cursor
//!   (`fetch_add`). Small items therefore cost one atomic per *chunk*, not
//!   one per item — the grain is what stops tiny classify/shard items from
//!   thrashing the cursor cache line.
//! * **Caller participation.** The submitting thread always executes
//!   chunks of its own batch before blocking on completion. This is what
//!   makes nested submissions deadlock-free by induction: a submitter can
//!   always finish its own batch with zero free workers.
//! * **Determinism.** Chunk claims are racy, but every result is written
//!   to the output slot of its *input index*; the values never depend on
//!   which executor ran which chunk, so pool runs are bit-identical to the
//!   sequential path at any worker count, grain, or interleaving.
//!
//! # Safety model
//!
//! A batch erases its item/closure types behind a `*const ()` context
//! pointer into the submitter's stack frame plus a monomorphized
//! `unsafe fn(ctx, start, end)` runner. This is sound because the submitter
//! **blocks until every chunk is accounted for** before returning, so the
//! borrowed context outlives all worker access — the same lifetime-erasure
//! argument scoped threads make, enforced here by the completion latch.
//! Panics in a chunk are caught, the batch is cancelled (remaining chunks
//! are claimed but skipped), and the first payload is re-raised on the
//! submitting thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Hard cap on a chunk grain: beyond this, chunking cannot amortize any
/// further and only costs load balance.
const MAX_GRAIN: usize = 64;

/// One type-erased unit of fan-out work shared between the submitter and
/// the workers executing it.
struct Batch {
    /// Monomorphized runner: executes items `start..end` against `ctx`.
    run: unsafe fn(*const (), usize, usize),
    /// Borrowed context in the submitter's stack frame (items, closure,
    /// output slots). Valid until the submitter observes completion.
    ctx: *const (),
    /// Total items.
    len: usize,
    /// Items per claimed chunk.
    grain: usize,
    /// Number of chunks (`ceil(len / grain)`).
    chunks: usize,
    /// Next unclaimed chunk.
    cursor: AtomicUsize,
    /// Chunks fully accounted for (run or skipped after cancellation).
    completed: AtomicUsize,
    /// Executors currently inside the batch (submitter included).
    executors: AtomicUsize,
    /// Concurrency cap (the caller's requested thread count).
    max_executors: usize,
    /// Set when a chunk panicked: remaining chunks are skipped.
    cancelled: AtomicBool,
    /// First panic payload, re-raised by the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion latch the submitter blocks on.
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `ctx` is only dereferenced through `run`, whose monomorphization
// (see `submit`) requires the underlying items/closure to be `Sync` and the
// results `Send`; the raw pointers themselves are never exposed. The
// submitter keeps the pointee alive until every chunk is accounted for.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Whether any chunk is still unclaimed.
    fn has_work(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.chunks
    }

    /// Whether another executor may still join.
    fn has_slot(&self) -> bool {
        self.executors.load(Ordering::Relaxed) < self.max_executors
    }
}

/// Shared pool state: the injector queue plus shutdown flag.
struct Injector {
    queue: Mutex<InjectorState>,
    work_cv: Condvar,
}

struct InjectorState {
    batches: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

/// A long-lived, std-only worker pool (see the [module docs](self)).
///
/// Most callers never construct one: [`Pool::global`] lazily builds a
/// process-wide pool sized to the machine and every
/// [`parallel_map`](crate::parallel_map)/[`join`](crate::join) call runs on
/// it. Explicit pools exist for tests (oversubscription, shutdown storms)
/// and for callers that want isolated worker sets.
pub struct Pool {
    injector: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Pool {
    /// Creates a pool with `workers` parked worker threads (at least 1).
    ///
    /// Together with the submitting thread the pool can execute a batch on
    /// up to `workers + 1` executors.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let injector = Arc::new(Injector {
            queue: Mutex::new(InjectorState {
                batches: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let injector = Arc::clone(&injector);
                std::thread::Builder::new()
                    .name(format!("mmd-pool-{i}"))
                    .spawn(move || worker_loop(&injector))
                    .expect("spawning a pool worker")
            })
            .collect();
        Pool {
            injector,
            workers: handles,
        }
    }

    /// The process-wide pool, created on first use with
    /// [`default_workers`] worker threads.
    #[must_use]
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_workers()))
    }

    /// Number of worker threads (excluding submitting callers).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Batches currently queued or executing in the injector — the pool's
    /// backlog gauge (serving metrics report it as pool depth).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.injector
            .queue
            .lock()
            .expect("pool injector lock")
            .batches
            .len()
    }

    /// Maps `f` over `items` on this pool and returns results in input
    /// order; bit-identical to the sequential map at any worker count.
    ///
    /// `threads` follows the crate convention (`0` = available
    /// parallelism, `1` = inline); `grain` overrides the chunk size
    /// (`None` = [`auto grain`](default_grain_for)).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from `f`.
    pub fn parallel_map<T, R, F>(
        &self,
        threads: usize,
        items: &[T],
        grain: Option<usize>,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        // Fast path before touching `resolve` (an OS query on the `0`
        // convention): empty and single-item maps never dispatch workers.
        if items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let threads = crate::resolve(threads).min(items.len());
        if threads <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let grain = grain
            .unwrap_or_else(|| default_grain_for(items.len(), threads))
            .max(1);

        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);

        struct MapCtx<'a, T, R, F> {
            items: &'a [T],
            f: &'a F,
            out: *mut Option<R>,
        }
        /// # Safety
        ///
        /// `ctx` must point at the submitting frame's `MapCtx` and
        /// `start..end` chunks must be claimed at most once (the batch
        /// cursor guarantees it), so each output slot is written by
        /// exactly one executor.
        unsafe fn run_chunk<T, R, F>(ctx: *const (), start: usize, end: usize)
        where
            T: Sync,
            R: Send,
            F: Fn(usize, &T) -> R + Sync,
        {
            let ctx = unsafe { &*ctx.cast::<MapCtx<'_, T, R, F>>() };
            for i in start..end {
                let r = (ctx.f)(i, &ctx.items[i]);
                // Overwrites the `None` placeholder without reading it;
                // `None` holds no resources, so skipping its drop is fine.
                unsafe { ctx.out.add(i).write(Some(r)) };
            }
        }

        let ctx = MapCtx {
            items,
            f: &f,
            out: slots.as_mut_ptr(),
        };
        // SAFETY: `ctx` borrows only this frame's data and `submit` blocks
        // until every chunk is accounted for before returning.
        unsafe {
            self.submit(
                run_chunk::<T, R, F>,
                (&raw const ctx).cast(),
                items.len(),
                grain,
                threads,
            );
        }

        slots
            .into_iter()
            .map(|s| s.expect("every chunk was claimed exactly once"))
            .collect()
    }

    /// Runs `a` and `b` concurrently and returns both results — the
    /// fork-join primitive, on parked workers instead of a thread spawn.
    ///
    /// `b` is offered to the pool as a single-chunk batch; the caller runs
    /// `a`, then claims `b` itself if no worker got to it (so the pair
    /// always completes even on a saturated pool). Panics in either
    /// closure propagate to the caller.
    pub fn join<RA, RB, FB>(&self, a: impl FnOnce() -> RA + Send, b: FB) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        FB: FnOnce() -> RB + Send,
    {
        struct OnceCtx<F, R> {
            task: Mutex<Option<F>>,
            out: Mutex<Option<R>>,
        }
        /// # Safety
        ///
        /// `ctx` must point at a live `OnceCtx<F, R>`; the single chunk is
        /// claimed at most once, so the closure is taken exactly once.
        unsafe fn run_once<F, R>(ctx: *const (), _start: usize, _end: usize)
        where
            F: FnOnce() -> R + Send,
            R: Send,
        {
            let ctx = unsafe { &*ctx.cast::<OnceCtx<F, R>>() };
            let task = ctx
                .task
                .lock()
                .expect("pool task lock")
                .take()
                .expect("single chunk runs once");
            let result = task();
            *ctx.out.lock().expect("pool task lock") = Some(result);
        }

        // Lives on this stack frame; valid for the whole call because we
        // block on the completion latch before returning.
        let ctx = OnceCtx::<FB, RB> {
            task: Mutex::new(Some(b)),
            out: Mutex::new(None),
        };
        let batch = Arc::new(Batch {
            run: run_once::<FB, RB>,
            ctx: (&raw const ctx).cast(),
            len: 1,
            grain: 1,
            chunks: 1,
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            executors: AtomicUsize::new(0),
            max_executors: 1,
            cancelled: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        self.enqueue(Arc::clone(&batch));
        // `a` runs under `catch_unwind`: once the batch is enqueued a
        // worker may hold the raw `ctx` pointer into this frame, so the
        // frame must not unwind past the completion latch below. The
        // panic is re-raised after the latch fires.
        let ra = catch_unwind(AssertUnwindSafe(a));
        // Help with `b` if it is still unclaimed, then wait it out.
        execute(&batch);
        wait_done(&batch);
        let payload = batch.panic.lock().expect("pool panic lock").take();
        let ra = match ra {
            Ok(ra) => ra,
            // `a`'s panic wins; `b`'s payload (if any) is dropped.
            Err(a_payload) => resume_unwind(a_payload),
        };
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        let rb = ctx
            .out
            .into_inner()
            .expect("pool task lock")
            .expect("completed pool task has a result");
        (ra, rb)
    }

    /// Pushes a batch into the injector and wakes workers.
    fn enqueue(&self, batch: Arc<Batch>) {
        let mut state = self.injector.queue.lock().expect("pool injector lock");
        state.batches.push_back(batch);
        drop(state);
        self.injector.work_cv.notify_all();
    }

    /// Submits a type-erased batch, participates in executing it, and
    /// blocks until completion; re-raises the first chunk panic.
    ///
    /// # Safety
    ///
    /// `ctx` must stay valid for the duration of this call and `run` must
    /// be safe to invoke from any thread with disjoint `start..end`
    /// ranges over `0..len`.
    unsafe fn submit(
        &self,
        run: unsafe fn(*const (), usize, usize),
        ctx: *const (),
        len: usize,
        grain: usize,
        max_executors: usize,
    ) {
        let chunks = len.div_ceil(grain);
        let batch = Arc::new(Batch {
            run,
            ctx,
            len,
            grain,
            chunks,
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            // The submitter reserves its executor slot up front.
            executors: AtomicUsize::new(1),
            max_executors: max_executors.max(1),
            cancelled: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        if chunks > 1 {
            self.enqueue(Arc::clone(&batch));
        }
        execute(&batch);
        wait_done(&batch);
        let payload = batch.panic.lock().expect("pool panic lock").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.injector.queue.lock().expect("pool injector lock");
            state.shutdown = true;
        }
        self.injector.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Blocks until every chunk of `batch` is accounted for.
fn wait_done(batch: &Batch) {
    let mut done = batch.done.lock().expect("pool done lock");
    while !*done {
        done = batch
            .done_cv
            .wait(done)
            .expect("pool done condvar poisoned");
    }
}

/// Claims and runs chunks of `batch` until the cursor is exhausted. Every
/// claimed chunk is counted as completed even when skipped after a
/// cancellation, so the completion latch always fires.
fn execute(batch: &Batch) {
    loop {
        let c = batch.cursor.fetch_add(1, Ordering::Relaxed);
        if c >= batch.chunks {
            break;
        }
        if !batch.cancelled.load(Ordering::Acquire) {
            let start = c * batch.grain;
            let end = (start + batch.grain).min(batch.len);
            // SAFETY: the cursor hands out each chunk exactly once and the
            // submitter keeps `ctx` alive until the latch fires.
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe {
                (batch.run)(batch.ctx, start, end);
            }));
            if let Err(payload) = outcome {
                batch.cancelled.store(true, Ordering::Release);
                let mut slot = batch.panic.lock().expect("pool panic lock");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
        if batch.completed.fetch_add(1, Ordering::AcqRel) + 1 == batch.chunks {
            let mut done = batch.done.lock().expect("pool done lock");
            *done = true;
            batch.done_cv.notify_all();
        }
    }
}

/// One worker: park on the injector, scan it for a batch with work and a
/// free executor slot, run chunks, repeat until shutdown.
fn worker_loop(injector: &Injector) {
    loop {
        let batch = {
            let mut state = injector.queue.lock().expect("pool injector lock");
            loop {
                if state.shutdown {
                    return;
                }
                // Drop exhausted batches at the front so the queue cannot
                // grow without bound, then scan for joinable work.
                while state.batches.front().is_some_and(|b| !b.has_work()) {
                    state.batches.pop_front();
                }
                let found = state
                    .batches
                    .iter()
                    .find(|b| b.has_work() && b.has_slot())
                    .cloned();
                match found {
                    Some(batch) => break batch,
                    None => {
                        state = injector
                            .work_cv
                            .wait(state)
                            .expect("pool work condvar poisoned");
                    }
                }
            }
        };
        // Enter the batch if the executor cap still allows it; the check
        // above was advisory (racy), this one is authoritative.
        if batch.executors.fetch_add(1, Ordering::AcqRel) < batch.max_executors {
            execute(&batch);
        }
        batch.executors.fetch_sub(1, Ordering::AcqRel);
        // Leaving freed an executor slot: wake parked workers so a batch
        // that still has unclaimed chunks gets rejoined (they may have
        // parked after seeing it slot-full, and nothing else would wake
        // them until new work arrives).
        if batch.has_work() {
            injector.work_cv.notify_all();
        }
    }
}

/// Parses one positive-integer pool knob: `Ok(None)` = unset, `Ok(Some(n))`
/// = usable, `Err(raw)` = set but unusable (not a number, or zero).
fn parse_pool_knob(raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(v.to_string()),
        },
    }
}

/// Folds a parsed knob into "use the default", logging one stderr warning
/// when the variable was set but unusable — a typo'd `MMD_POOL_WORKERS`
/// must not silently fall back and masquerade as a perf regression.
fn knob_or_warn(name: &str, parsed: Result<Option<usize>, String>) -> Option<usize> {
    match parsed {
        Ok(v) => v,
        Err(raw) => {
            eprintln!(
                "mmd-par: ignoring {name}={raw:?} (expected a positive integer); \
                 falling back to the default"
            );
            None
        }
    }
}

/// The worker count `default_workers` falls back to when the env knob is
/// unset or unusable: available parallelism minus the caller's thread,
/// floored at 1 so every machine gets at least two executors.
fn workers_from(knob: Option<usize>) -> usize {
    knob.unwrap_or_else(|| crate::resolve(0).saturating_sub(1).max(1))
}

/// Worker-thread count of the global pool: `MMD_POOL_WORKERS` when set to a
/// positive integer, otherwise the machine's available parallelism minus
/// the caller's thread, floored at 1 so every machine gets at least two
/// executors. An unusable value is reported once on stderr and ignored.
#[must_use]
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        let raw = std::env::var("MMD_POOL_WORKERS").ok();
        workers_from(knob_or_warn(
            "MMD_POOL_WORKERS",
            parse_pool_knob(raw.as_deref()),
        ))
    })
}

/// The default chunk grain for a batch of `len` items on `executors`
/// executors: roughly four chunks per executor clamped to `[1, 64]` —
/// enough chunks to balance unequal items, big enough that tiny items
/// amortize the claim atomics.
#[must_use]
pub fn default_grain_for(len: usize, executors: usize) -> usize {
    len.div_ceil(4 * executors.max(1)).clamp(1, MAX_GRAIN)
}

// An interleaving smoke test for the pool's atomics: many submitters
// hammer one small pool concurrently (forced handoffs via grain 1 and
// oversubscription) while nested submissions run inside chunks. Behind a
// dedicated cfg because it is a stress loop, not a unit test:
//
// ```text
// RUSTFLAGS="--cfg mmd_pool_stress" cargo test -p mmd-par --release
// ```
#[cfg(all(test, mmd_pool_stress))]
mod stress {
    use super::*;

    #[test]
    fn concurrent_submitters_with_nested_batches_stay_deterministic() {
        let pool = Pool::new(3);
        let items: Vec<u64> = (0..512).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for round in 0..200 {
                        let grain = [1, 4, 64][round % 3];
                        let out = pool.parallel_map(4, &items, Some(grain), |i, &x| {
                            if x % 97 == 0 {
                                // Nested submission from inside a chunk.
                                let inner =
                                    pool.parallel_map(2, &[x, x + 1], Some(1), |_, &y| y * y);
                                assert_eq!(inner, vec![x * x, (x + 1) * (x + 1)]);
                            }
                            assert_eq!(i as u64, x);
                            x * x + 1
                        });
                        assert_eq!(out, expected);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_pool_maps_in_order() {
        let pool = Pool::new(2);
        let items: Vec<usize> = (0..100).collect();
        for grain in [1, 4, 64] {
            let out = pool.parallel_map(4, &items, Some(grain), |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn oversubscribed_pool_is_bit_identical_to_sequential() {
        // Far more workers than any dev machine has cores.
        let pool = Pool::new(16);
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31) ^ 7).collect();
        let par = pool.parallel_map(17, &items, Some(1), |_, &x| x.wrapping_mul(31) ^ 7);
        assert_eq!(par, seq);
    }

    #[test]
    fn pool_drop_joins_workers() {
        for round in 0..10 {
            let pool = Pool::new(1 + round % 3);
            let out = pool.parallel_map(3, &[1u32, 2, 3, 4, 5], Some(2), |_, &x| x + 1);
            assert_eq!(out, vec![2, 3, 4, 5, 6]);
            drop(pool); // must not hang or leak a worker
        }
    }

    #[test]
    #[should_panic(expected = "pool boom")]
    fn pool_map_propagates_panics() {
        let pool = Pool::new(2);
        pool.parallel_map(4, &[1, 2, 3, 4, 5, 6, 7, 8], Some(1), |_, &x| {
            assert!(x != 6, "pool boom");
            x
        });
    }

    #[test]
    fn pool_join_runs_both_sides() {
        let pool = Pool::new(1);
        let xs: Vec<u32> = (0..50).collect();
        let (a, b) = pool.join(|| xs.iter().sum::<u32>(), || xs.len());
        assert_eq!((a, b), (1225, 50));
    }

    #[test]
    #[should_panic(expected = "join boom")]
    fn pool_join_propagates_worker_panics() {
        let pool = Pool::new(1);
        pool.join(|| 1, || panic!("join boom"));
    }

    #[test]
    fn pool_join_caller_panic_waits_for_b() {
        // A panic in `a` must not unwind past the completion latch while
        // a worker still runs `b` through the raw context pointer into
        // the caller's frame: `b` must be finished by the time `join`
        // unwinds.
        let pool = Pool::new(1);
        let b_done = AtomicBool::new(false);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            pool.join(
                || {
                    // Give a worker time to claim `b` before panicking.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("a boom");
                },
                || {
                    std::thread::sleep(std::time::Duration::from_millis(60));
                    b_done.store(true, Ordering::SeqCst);
                },
            )
        }));
        assert!(unwound.is_err(), "a's panic propagates");
        assert!(
            b_done.load(Ordering::SeqCst),
            "join unwound before b finished"
        );
    }

    #[test]
    fn default_grain_scales_with_items() {
        assert_eq!(default_grain_for(1, 4), 1);
        assert!(default_grain_for(10_000, 4) <= MAX_GRAIN);
        assert!(default_grain_for(10_000, 4) >= 1);
        for (len, executors) in [(1usize, 4usize), (100, 4), (10_000, 4), (10_000, 0)] {
            assert_eq!(
                default_grain_for(len, executors),
                len.div_ceil(4 * executors.max(1)).clamp(1, MAX_GRAIN),
                "~4 chunks/executor clamped to [1, {MAX_GRAIN}]"
            );
        }
    }

    #[test]
    fn pool_knob_parsing_distinguishes_unset_valid_and_garbage() {
        assert_eq!(parse_pool_knob(None), Ok(None));
        assert_eq!(parse_pool_knob(Some("3")), Ok(Some(3)));
        assert_eq!(parse_pool_knob(Some(" 8 ")), Ok(Some(8)), "whitespace ok");
        // Unusable settings surface the raw text for the warning.
        assert_eq!(parse_pool_knob(Some("three")), Err("three".to_string()));
        assert_eq!(parse_pool_knob(Some("0")), Err("0".to_string()));
        assert_eq!(parse_pool_knob(Some("-2")), Err("-2".to_string()));
        assert_eq!(parse_pool_knob(Some("")), Err(String::new()));
    }

    /// The regression this pins: a typo'd knob must behave exactly like an
    /// unset knob (same fallback values), not like some third mode.
    #[test]
    fn garbage_knobs_fall_back_to_the_documented_defaults() {
        let garbage = knob_or_warn("MMD_POOL_WORKERS", parse_pool_knob(Some("lots")));
        assert_eq!(garbage, None, "warned and ignored");
        assert_eq!(
            workers_from(garbage),
            crate::resolve(0).saturating_sub(1).max(1),
            "worker fallback is cores - 1, floored at 1"
        );
        // A valid knob wins over the fallback untouched.
        assert_eq!(workers_from(Some(5)), 5);
    }
}
