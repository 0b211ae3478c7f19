//! **mmd-par** — a dependency-free parallel runtime on a persistent
//! worker pool.
//!
//! The build environment is offline, so this crate is the workspace's
//! stand-in for `rayon`: a small, std-only toolkit the solvers, ingest
//! engine, and benchmark harness use for their hot loops. Since PR 7 the
//! primitives run on [`Pool`] — a process-wide set of parked worker
//! threads fed through an injector with **chunked stealing** — instead of
//! spawning scoped threads per call; see the [`pool`] module docs for the
//! design. It deliberately exposes only the patterns the workspace needs:
//!
//! * [`parallel_map`] — map a function over a slice on the global pool;
//!   results come back **in input order**, so callers are deterministic by
//!   construction at any thread count or chunk grain.
//! * [`parallel_map_with_grain`] — the same, with an explicit chunk grain
//!   (items per work-stealing claim) instead of the item-count default.
//! * [`par_chunks`] — the same, but over contiguous chunks of a slice.
//! * [`scoped_map`] — the pre-pool scoped-spawn implementation, kept as
//!   the benchmark reference the `pool-*` perf rungs compare against.
//! * [`join`] — run two closures concurrently on the pool (the classic
//!   fork-join primitive, without a thread spawn).
//! * [`scope`] — re-export of [`std::thread::scope`] for free-form spawns
//!   that genuinely need dedicated threads (servers, soak drivers).
//! * [`SharedMax`] — a lock-free shared `f64` maximum register, used by the
//!   exact solver's parallel branch-and-bound as its shared incumbent bound.
//!
//! Thread counts follow one convention everywhere: `0` means "use
//! [`std::thread::available_parallelism`]", `1` means "run inline on the
//! caller's thread" (no dispatch at all), and `n > 1` uses up to `n`
//! executors — the calling thread plus up to `n − 1` pool workers.
//!
//! One environment knob (read once per process): `MMD_POOL_WORKERS` sizes
//! the global pool's worker set.

pub mod pool;

pub use pool::Pool;
pub use std::thread::scope;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Resolves a requested thread count: `0` becomes the machine's available
/// parallelism (at least 1), any other value is returned unchanged.
///
/// ```
/// assert_eq!(mmd_par::resolve(3), 3);
/// assert!(mmd_par::resolve(0) >= 1);
/// ```
#[must_use]
pub fn resolve(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Runs `a` and `b` concurrently and returns both results.
///
/// `b` is offered to the global [`Pool`] while `a` runs on the calling
/// thread; if every worker is busy the caller executes `b` itself after
/// finishing `a`, so the primitive never blocks on pool capacity and never
/// spawns a thread. Panics in either closure propagate to the caller.
///
/// ```
/// let (a, b) = mmd_par::join(|| 2 + 2, || "ok");
/// assert_eq!((a, b), (4, "ok"));
/// ```
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    Pool::global().join(a, b)
}

/// Maps `f` over `items` on the global [`Pool`] with up to `threads`
/// executors and returns the results **in input order**.
///
/// Work distribution is dynamic — executors claim grain-sized chunks off
/// an atomic cursor — so unbalanced items do not leave threads idle;
/// output order is still deterministic because every result is placed by
/// its input index, and the values are bit-identical to the sequential
/// path at any thread count or grain. With `threads <= 1` (after
/// [`resolve`]) or fewer than two items the map runs inline with no
/// dispatch, which keeps single-threaded callers bit-identical and
/// overhead-free.
///
/// The chunk grain defaults to an item-count heuristic (see
/// [`pool::default_grain_for`]); use [`parallel_map_with_grain`] to pin it
/// per call.
///
/// `f` receives `(index, &item)` so callers can vary behaviour by position
/// (seeds, labels) without capturing extra state.
///
/// # Panics
///
/// Panics if `f` panics on any item (the first payload is re-raised).
///
/// ```
/// let squares = mmd_par::parallel_map(4, &[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    Pool::global().parallel_map(threads, items, None, f)
}

/// [`parallel_map`] with an explicit chunk grain: executors claim `grain`
/// items per steal. Grain never affects the results (bit-identical at any
/// value), only the atomics-per-item overhead and load balance.
///
/// ```
/// let out = mmd_par::parallel_map_with_grain(4, &[1u64, 2, 3, 4], 2, |_, &x| x + 1);
/// assert_eq!(out, vec![2, 3, 4, 5]);
/// ```
pub fn parallel_map_with_grain<T, R, F>(threads: usize, items: &[T], grain: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    Pool::global().parallel_map(threads, items, Some(grain), f)
}

/// The pre-pool [`parallel_map`]: spawns `threads − 1` scoped worker
/// threads per call and steals per item.
///
/// Kept as the benchmark reference — the `pool-*` perf rungs compare the
/// persistent pool against this to gate the "no slower than scoped spawn"
/// acceptance bar — and as an isolation fallback for code that must not
/// share the global pool. Results are bit-identical to [`parallel_map`].
pub fn scoped_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = resolve(threads).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let pull = |out: &mut Vec<(usize, R)>| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        out.push((i, f(i, &items[i])));
    };

    let parts: Vec<Vec<(usize, R)>> = scope(|s| {
        let handles: Vec<_> = (1..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    pull(&mut local);
                    local
                })
            })
            .collect();
        let mut mine = Vec::new();
        pull(&mut mine);
        let mut parts = vec![mine];
        for h in handles {
            match h.join() {
                Ok(local) => parts.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        parts
    });

    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

/// Maps `f` over contiguous chunks of `items` (each of length `chunk`,
/// except possibly the last) on up to `threads` threads; results come back
/// in chunk order.
///
/// `f` receives `(chunk_index, chunk_slice)`.
///
/// # Panics
///
/// Panics if `chunk` is zero, or if `f` panics.
///
/// ```
/// let sums = mmd_par::par_chunks(2, &[1, 2, 3, 4, 5], 2, |_, c| c.iter().sum::<i32>());
/// assert_eq!(sums, vec![3, 7, 5]);
/// ```
pub fn par_chunks<T, R, F>(threads: usize, items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let ranges: Vec<(usize, usize)> = (0..items.len())
        .step_by(chunk)
        .map(|start| (start, (start + chunk).min(items.len())))
        .collect();
    parallel_map(threads, &ranges, |i, &(start, end)| {
        f(i, &items[start..end])
    })
}

/// A lock-free shared `f64` **maximum** register.
///
/// Writers race to raise the stored value with a compare-and-swap loop;
/// readers get a recent lower bound on the true maximum (monotone, so a
/// stale read is always safe for branch-and-bound pruning). Values must be
/// non-NaN; `NEG_INFINITY` is a valid initial value.
///
/// ```
/// let best = mmd_par::SharedMax::new(0.0);
/// assert!(best.offer(3.5));
/// assert!(!best.offer(2.0));
/// assert_eq!(best.get(), 3.5);
/// ```
#[derive(Debug)]
pub struct SharedMax(AtomicU64);

impl SharedMax {
    /// Creates a register holding `init`.
    #[must_use]
    pub fn new(init: f64) -> Self {
        SharedMax(AtomicU64::new(init.to_bits()))
    }

    /// Returns the current maximum.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    /// Raises the register to `value` if it improves on the current
    /// maximum; returns whether it did.
    pub fn offer(&self, value: f64) -> bool {
        let mut current = self.0.load(Ordering::Acquire);
        loop {
            if value <= f64::from_bits(current) {
                return false;
            }
            match self.0.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_is_available_parallelism() {
        assert!(resolve(0) >= 1);
        assert_eq!(resolve(7), 7);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 4, 8] {
            let out = parallel_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[9], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn parallel_map_matches_sequential_on_unbalanced_work() {
        // Items with wildly different costs still land in order.
        let items: Vec<u64> = (0..64).collect();
        let f = |_: usize, &x: &u64| -> u64 {
            let spins = if x % 7 == 0 { 10_000 } else { 10 };
            (0..spins).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        };
        let seq = parallel_map(1, &items, f);
        let par = parallel_map(4, &items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn pool_and_scoped_maps_are_bit_identical() {
        let items: Vec<u64> = (0..211).collect();
        let f = |i: usize, &x: &u64| (i as u64).wrapping_mul(2_654_435_761) ^ x;
        let seq = scoped_map(1, &items, f);
        assert_eq!(scoped_map(4, &items, f), seq);
        assert_eq!(parallel_map(4, &items, f), seq);
        for grain in [1, 4, 64] {
            assert_eq!(parallel_map_with_grain(4, &items, grain, f), seq);
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn parallel_map_propagates_panics() {
        parallel_map(4, &[1, 2, 3, 4, 5, 6, 7, 8], |_, &x| {
            assert!(x != 5, "boom");
            x
        });
    }

    #[test]
    fn par_chunks_covers_everything_in_order() {
        let items: Vec<i64> = (0..103).collect();
        let chunks = par_chunks(4, &items, 10, |i, c| (i, c.to_vec()));
        let flat: Vec<i64> = chunks.iter().flat_map(|(_, c)| c.clone()).collect();
        assert_eq!(flat, items);
        assert_eq!(chunks.len(), 11);
        assert_eq!(chunks.last().unwrap().1.len(), 3);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn par_chunks_rejects_zero_chunk() {
        par_chunks(2, &[1], 0, |_, c| c.len());
    }

    #[test]
    fn join_runs_both() {
        let xs: Vec<u32> = (0..100).collect();
        let (a, b) = join(|| xs.iter().sum::<u32>(), || xs.len());
        assert_eq!(a, 4950);
        assert_eq!(b, 100);
    }

    #[test]
    fn shared_max_is_monotone_under_contention() {
        let best = SharedMax::new(f64::NEG_INFINITY);
        scope(|s| {
            for t in 0..4 {
                let best = &best;
                s.spawn(move || {
                    for i in 0..1000 {
                        best.offer(f64::from(t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(best.get(), 3999.0);
    }

    #[test]
    fn shared_max_offer_reports_improvement() {
        let best = SharedMax::new(1.0);
        assert!(!best.offer(0.5));
        assert!(!best.offer(1.0));
        assert!(best.offer(1.5));
        assert_eq!(best.get(), 1.5);
    }
}
