//! Deterministic scoped-thread fan-out.
//!
//! The SC-DCNN hardware instantiates thousands of independent feature
//! extraction blocks; the simulator mirrors that with a data-parallel map
//! across independent work items (SNG lanes, receptive fields, Monte-Carlo
//! trials, design-space points). Two properties are guaranteed:
//!
//! 1. **Bit-identical results regardless of thread count.** Work is
//!    partitioned by *index*, each item derives all of its randomness from
//!    its own index (the `SngBank` splitmix scheme), and results are written
//!    into the output slot matching the input index. Running with
//!    `SC_THREADS=1`, with the `parallel` feature disabled, or on a 128-core
//!    box produces exactly the same numbers.
//! 2. **No dependency beyond `std`.** The fan-out uses `std::thread::scope`;
//!    this is the crate's stand-in for a rayon parallel iterator in an
//!    offline build environment (see `vendor/README.md`).
//!
//! The `parallel` cargo feature (default-on) gates the threading; when
//! disabled every function here degrades to the serial loop. The
//! `SC_THREADS` environment variable caps the worker count at runtime.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runtime override installed by [`set_thread_limit`]; zero means "none".
static THREAD_LIMIT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while executing inside a fan-out worker: nested `parallel_map`
    /// calls then run serially, so stacked parallel layers (design points →
    /// Monte-Carlo trials → receptive fields) fan out only at the outermost
    /// level instead of multiplying live thread counts.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Overrides the worker-thread cap at runtime (`0` clears the override).
///
/// Unlike an environment variable this is an atomic, so tests can flip it
/// without unsynchronized `setenv` calls. Applies process-wide.
pub fn set_thread_limit(limit: usize) {
    THREAD_LIMIT.store(limit, Ordering::Relaxed);
}

/// Maximum number of worker threads to use.
///
/// Honors, in order: the `parallel` feature (off → 1), a nested fan-out
/// (worker context → 1), [`set_thread_limit`], the `SC_THREADS` environment
/// variable (read once per process; values `0` and `1` both mean "serial"),
/// then the machine's available parallelism. Always at least 1.
pub fn max_threads() -> usize {
    if !cfg!(feature = "parallel") || IN_WORKER.with(Cell::get) {
        return 1;
    }
    let limit = THREAD_LIMIT.load(Ordering::Relaxed);
    if limit != 0 {
        return limit;
    }
    static ENV_THREADS: OnceLock<usize> = OnceLock::new();
    *ENV_THREADS.get_or_init(|| match std::env::var("SC_THREADS") {
        Ok(value) => value.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    })
}

/// Maps `f` over `items`, in parallel when worthwhile, preserving order.
///
/// `f` receives `(index, &item)` so callers can derive per-item seeds from
/// the index. The output at position `i` is always `f(i, &items[i])`,
/// independent of thread schedule.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(items, || (), |(), index, item| f(index, item))
}

/// Like [`parallel_map`], but each worker thread gets its own scratch state
/// built by `init` (e.g. a [`crate::arena::StreamArena`]), so buffer reuse
/// survives the fan-out. The serial path builds the state exactly once.
pub fn parallel_map_with<T, S, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    parallel_map_with_state(items, init, f).0
}

/// Like [`parallel_map_with`], but hands the per-worker states back to the
/// caller once the fan-out completes, so expensive warm state (a pooled
/// arena) can be reused across fan-outs instead of rebuilt
/// every call. The results vector is input-ordered as always; the states
/// vector has one entry per worker that ran, in no particular order (an
/// empty item slice runs no worker and returns no state).
pub fn parallel_map_with_state<T, S, R, I, F>(items: &[T], init: I, f: F) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let threads = max_threads().min(items.len());
    if threads <= 1 {
        let mut state = init();
        let results = items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
        return (results, vec![state]);
    }
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let states = std::sync::Mutex::new(Vec::with_capacity(threads));
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest: &mut [Option<R>] = &mut results;
        let mut start = 0usize;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let slice = &items[start..start + take];
            let (f, init, states) = (&f, &init, &states);
            scope.spawn(move || {
                IN_WORKER.with(|flag| flag.set(true));
                let mut state = init();
                for (offset, (slot, item)) in head.iter_mut().zip(slice).enumerate() {
                    *slot = Some(f(&mut state, start + offset, item));
                }
                states.lock().expect("state collector").push(state);
            });
            start += take;
        }
    });
    let results = results
        .into_iter()
        .map(|r| r.expect("worker filled every output slot"))
        .collect();
    (results, states.into_inner().expect("state collector"))
}

/// Maps `f` over the index range `0..count` in parallel, preserving order.
///
/// Convenience for Monte-Carlo style loops where the "item" is just the
/// trial index.
pub fn parallel_map_range<R, F>(count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..count).collect();
    parallel_map(&indices, |_, &i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = parallel_map(&items, |i, &item| {
            assert_eq!(i, item);
            item * 2
        });
        assert_eq!(doubled, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_map_exactly() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        let parallel = parallel_map(&items, f);
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn handles_empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn range_variant_matches() {
        assert_eq!(parallel_map_range(5, |i| i * i), vec![0, 1, 4, 9, 16]);
        assert!(parallel_map_range(0, |i| i).is_empty());
    }

    #[test]
    fn per_worker_state_is_reused_serially() {
        // With one thread the state must be built exactly once.
        set_thread_limit(1);
        let items = [1u32, 2, 3];
        let out = parallel_map_with(&items, Vec::<u32>::new, |scratch, _, &item| {
            scratch.push(item);
            scratch.len()
        });
        set_thread_limit(0);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn state_variant_returns_every_worker_state() {
        for limit in [1usize, 4] {
            set_thread_limit(limit);
            let items: Vec<u32> = (0..9).collect();
            let (results, states) =
                parallel_map_with_state(&items, Vec::<u32>::new, |scratch, _, &item| {
                    scratch.push(item);
                    item * 2
                });
            set_thread_limit(0);
            assert_eq!(results, (0..9).map(|i| i * 2).collect::<Vec<_>>());
            // Every item landed in exactly one returned state.
            let mut seen: Vec<u32> = states.into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, items, "thread limit {limit}");
        }
        let empty: Vec<u32> = Vec::new();
        let (results, states) = parallel_map_with_state(&empty, || 1u8, |_, _, &x| x);
        assert!(results.is_empty());
        assert!(states.is_empty());
    }

    #[test]
    fn nested_fan_out_runs_serially_in_workers() {
        set_thread_limit(4);
        let outer: Vec<usize> = (0..8).collect();
        let nested_threads = parallel_map(&outer, |_, _| {
            // Inside a worker the nested call must degrade to serial.
            max_threads()
        });
        set_thread_limit(0);
        // Either the outer map ran serially (single-core machine) or every
        // worker saw a nested budget of one thread.
        assert!(nested_threads.iter().all(|&n| n == 1 || outer.len() == 1));
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
