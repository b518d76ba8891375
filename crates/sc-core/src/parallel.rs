//! Deterministic fan-out over one persistent helper pool.
//!
//! The SC-DCNN hardware instantiates thousands of independent feature
//! extraction blocks; the simulator mirrors that with a data-parallel map
//! across independent work items (SNG lanes, receptive fields, Monte-Carlo
//! trials, design-space points). Three properties are guaranteed:
//!
//! 1. **Bit-identical results regardless of thread count.** Work is
//!    partitioned by *index*, each item derives all of its randomness from
//!    its own index (the `SngBank` splitmix scheme), and results are written
//!    into the output slot matching the input index. Running with
//!    `SC_THREADS=1`, on a 128-core box, or with every helper busy
//!    produces exactly the same numbers.
//! 2. **No thread spawn per call.** A fan-out splits its items into one
//!    contiguous part per participant: the caller runs the first part
//!    itself and posts the others to parked helper threads. Helpers start
//!    lazily, never number more than `max_threads() − 1` at once, and live
//!    for the process, so a fan-out costs a wake-up, not a spawn and a join.
//! 3. **A budget of `max_threads()` SC threads.** A fan-out's caller, the
//!    helpers running its parts, and every thread holding a [`JobGuard`]
//!    (the serving runtime takes one per request) count against it. A
//!    fan-out takes only the helpers the budget has room for and otherwise
//!    runs on its caller alone; it never waits for a helper. A fully loaded
//!    server thus keeps one SC thread per core, while an idle core helps
//!    the request in flight.
//!
//! The `SC_THREADS` environment variable (or [`set_thread_limit`]) caps
//! the thread count at runtime; a cap of 1 runs every function here as
//! the serial loop.
//! No dependency beyond `std`: this is the crate's stand-in for a rayon
//! thread pool in an offline build environment (see `vendor/README.md`).

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Runtime override installed by [`set_thread_limit`]; zero means "none".
static THREAD_LIMIT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while executing a fan-out part (on a helper, or on the caller
    /// for its own part): nested `parallel_map` calls then run serially, so
    /// stacked parallel layers (design points → Monte-Carlo trials →
    /// receptive fields) fan out only at the outermost level instead of
    /// multiplying live thread counts.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Set while this thread counts against the budget (see [`JobGuard`]).
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Overrides the worker-thread cap at runtime (`0` clears the override).
///
/// Unlike an environment variable this is an atomic, so tests can flip it
/// without unsynchronized `setenv` calls. Applies process-wide.
pub fn set_thread_limit(limit: usize) {
    THREAD_LIMIT.store(limit, Ordering::Relaxed);
}

/// Maximum number of threads doing SC work at once: the fan-out width and
/// the budget shared by fan-outs and [`JobGuard`] holders.
///
/// Honors, in order: a nested fan-out (worker context → 1),
/// [`set_thread_limit`], the `SC_THREADS` environment variable (read once
/// per process; values `0` and `1` both mean "serial"), then the machine's
/// available parallelism. Always at least 1.
pub fn max_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
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

/// Counts the current thread against the SC-thread budget until dropped.
///
/// A thread that runs SC work outside a fan-out — a serving worker running
/// a request — holds one for the duration, so fan-outs started elsewhere
/// leave its core alone; a fan-out it starts itself is not counted twice.
/// Guards nest: only the outermost one on a thread counts.
#[must_use = "the thread counts against the budget only while the guard lives"]
pub struct JobGuard {
    counted_here: bool,
    /// The guard clears a thread-local flag: it must drop on its thread.
    _thread_bound: PhantomData<*const ()>,
}

/// Takes a [`JobGuard`] for the current thread.
pub fn job_guard() -> JobGuard {
    let counted_here = !COUNTED.with(|counted| counted.replace(true));
    if counted_here {
        pool().active += 1;
    }
    JobGuard {
        counted_here,
        _thread_bound: PhantomData,
    }
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        if self.counted_here {
            COUNTED.with(|counted| counted.set(false));
            pool().active -= 1;
        }
    }
}

/// The budget and the helpers parked with nothing to run.
struct Pool {
    /// Threads counting against the budget: [`JobGuard`] holders (fan-out
    /// callers included) and helpers from the moment they are taken until
    /// they are parked again.
    active: usize,
    idle: Vec<Arc<Helper>>,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    active: 0,
    idle: Vec::new(),
});

/// Locks the pool. Every update is one counter step or one push/pop, so the
/// state is valid even after a panic elsewhere poisoned the lock; `Drop`
/// code locks it too, which must not panic.
fn pool() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A posted fan-out part, with its lifetime erased (see the `SAFETY` note in
/// [`parallel_map_with_state`]).
type Part = Box<dyn FnOnce() + Send>;

/// One parked helper thread and its single-slot mailbox.
struct Helper {
    mailbox: Mutex<Option<(Part, Arc<Latch>)>>,
    wake: Condvar,
}

impl Helper {
    /// Starts a helper thread. It is never joined: it parks between parts
    /// for the rest of the process.
    fn spawn() -> std::io::Result<Arc<Self>> {
        let helper = Arc::new(Self {
            mailbox: Mutex::new(None),
            wake: Condvar::new(),
        });
        let parked = Arc::clone(&helper);
        std::thread::Builder::new()
            .name("sc-fan-out".into())
            .spawn(move || parked.run())?;
        Ok(helper)
    }

    fn post(&self, part: Part, latch: Arc<Latch>) {
        *self.mailbox.lock().unwrap_or_else(PoisonError::into_inner) = Some((part, latch));
        self.wake.notify_one();
    }

    fn run(self: Arc<Self>) {
        // A helper's budget slot is taken for it; a guard inside a part
        // must not count it again.
        IN_WORKER.with(|flag| flag.set(true));
        COUNTED.with(|counted| counted.set(true));
        loop {
            let (part, latch) = {
                let mut mailbox = self.mailbox.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(posted) = mailbox.take() {
                        break posted;
                    }
                    mailbox = self
                        .wake
                        .wait(mailbox)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let outcome = panic::catch_unwind(AssertUnwindSafe(part));
            // Parked again before the caller can return, so the caller's
            // next fan-out finds this helper idle.
            {
                let mut pool = pool();
                pool.active -= 1;
                pool.idle.push(Arc::clone(&self));
            }
            latch.finish(outcome.err());
        }
    }
}

/// Takes up to `wanted` helpers within the budget of `limit` threads,
/// starting new ones when too few are parked. Never waits.
fn take_helpers(wanted: usize, limit: usize) -> Vec<Arc<Helper>> {
    let (mut helpers, missing) = {
        let mut pool = pool();
        let granted = wanted.min(limit.saturating_sub(pool.active));
        pool.active += granted;
        let parked = pool.idle.len();
        let reused = granted.min(parked);
        (pool.idle.split_off(parked - reused), granted - reused)
    };
    for _ in 0..missing {
        match Helper::spawn() {
            Ok(helper) => helpers.push(helper),
            // No thread to be had: run with fewer helpers.
            Err(_) => pool().active -= 1,
        }
    }
    helpers
}

/// Counts a fan-out's posted parts down; the caller waits on it.
struct Latch {
    /// Parts still running, and the first panic payload among them.
    state: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    done: Condvar,
}

impl Latch {
    fn new(parts: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new((parts, None)),
            done: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, (usize, Option<Box<dyn Any + Send>>)> {
        // Only counter steps and a payload store happen under this lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn finish(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut state = self.lock();
        state.0 -= 1;
        if state.1.is_none() {
            state.1 = panic;
        }
        if state.0 == 0 {
            self.done.notify_one();
        }
    }

    /// Blocks until every part finished; returns the first part's panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut state = self.lock();
        while state.0 > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.1.take()
    }
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

/// Like [`parallel_map`], but each participant gets its own scratch state
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

/// Like [`parallel_map_with`], but hands the per-participant states back to
/// the caller once the fan-out completes, so expensive warm state can be
/// reused across fan-outs instead of rebuilt every call. The results
/// vector is input-ordered as always; the states vector has one entry per
/// participant that ran (the caller and each helper it got), in no
/// particular order (an empty item slice runs nothing and returns no
/// state).
///
/// # Panics
///
/// Re-raises the first panic of any part on the caller, once every part
/// has finished.
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
    let limit = max_threads();
    if limit <= 1 || items.len() <= 1 {
        let mut state = init();
        let results = items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
        return (results, vec![state]);
    }
    let caller = job_guard();
    let helpers = take_helpers(limit.min(items.len()) - 1, limit);
    let parts = helpers.len() + 1;
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let mut states: Vec<Option<S>> = Vec::with_capacity(parts);
    states.resize_with(parts, || None);
    let run = |start: usize, slots: &mut [Option<R>], state: &mut Option<S>| {
        let mut scratch = init();
        for (offset, slot) in slots.iter_mut().enumerate() {
            let index = start + offset;
            *slot = Some(f(&mut scratch, index, &items[index]));
        }
        *state = Some(scratch);
    };
    let latch = Latch::new(helpers.len());
    // Balanced contiguous parts; the caller keeps the first.
    let (base, extra) = (items.len() / parts, items.len() % parts);
    let (mut slots, mut state_slots) = (results.as_mut_slice(), states.as_mut_slice());
    let mut own = None;
    let mut start = 0;
    for part in 0..parts {
        let len = base + usize::from(part < extra);
        let (part_slots, rest) = std::mem::take(&mut slots).split_at_mut(len);
        slots = rest;
        let (state, rest) = std::mem::take(&mut state_slots)
            .split_first_mut()
            .expect("one state slot per part");
        state_slots = rest;
        if part == 0 {
            own = Some((part_slots, state));
        } else {
            let run = &run;
            let task: Box<dyn FnOnce() + Send + '_> =
                Box::new(move || run(start, part_slots, state));
            // SAFETY: the part borrows `run` (and through it `init`, `f` and
            // `items`) and its disjoint slices of `results` and `states`,
            // all of which outlive this call. The caller reaches no `return`
            // and no unwind before `latch.wait()` has seen every posted part
            // finish: its own part runs under `catch_unwind`, nothing else
            // between posting and waiting can panic (the remaining splits
            // are sized by construction), and a helper counts the latch down
            // only after the part (and its box) is gone, whether it returned
            // or panicked. Erasing the lifetime only lets the box cross to
            // the helper thread; it is never used past that point.
            let task: Part =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Part>(task) };
            helpers[part - 1].post(task, Arc::clone(&latch));
        }
        start += len;
    }
    let (own_slots, own_state) = own.expect("the caller runs the first part");
    let outer = IN_WORKER.with(|flag| flag.replace(true));
    let own_outcome = panic::catch_unwind(AssertUnwindSafe(|| run(0, own_slots, own_state)));
    IN_WORKER.with(|flag| flag.set(outer));
    let helper_panic = latch.wait();
    drop(caller);
    if let Some(payload) = own_outcome.err().or(helper_panic) {
        panic::resume_unwind(payload);
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every part filled its output slots"))
        .collect();
    let states = states
        .into_iter()
        .map(|s| s.expect("every part returned its state"))
        .collect();
    (results, states)
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
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// The thread limit and the budget are process-wide: every test here
    /// serializes on this lock, so none sees another's limit or helpers.
    static LIMIT_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `body` under [`LIMIT_LOCK`] with the thread limit set to `limit`
    /// (`0` = the default), clearing the override afterwards.
    fn with_limit<R>(limit: usize, body: impl FnOnce() -> R) -> R {
        let _lock = LIMIT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_thread_limit(limit);
        let result = body();
        set_thread_limit(0);
        result
    }

    fn current() -> ThreadId {
        std::thread::current().id()
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = with_limit(0, || {
            parallel_map(&items, |i, &item| {
                assert_eq!(i, item);
                item * 2
            })
        });
        assert_eq!(doubled, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_map_exactly() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        let parallel = with_limit(0, || parallel_map(&items, f));
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn handles_empty_and_single_item() {
        with_limit(0, || {
            let empty: Vec<u32> = Vec::new();
            assert!(parallel_map(&empty, |_, &x| x).is_empty());
            assert_eq!(parallel_map(&[7u32], |_, &x| x + 1), vec![8]);
        });
    }

    #[test]
    fn range_variant_matches() {
        with_limit(0, || {
            assert_eq!(parallel_map_range(5, |i| i * i), vec![0, 1, 4, 9, 16]);
            assert!(parallel_map_range(0, |i| i).is_empty());
        });
    }

    #[test]
    fn per_worker_state_is_reused_serially() {
        // With one thread the state must be built exactly once.
        let items = [1u32, 2, 3];
        let out = with_limit(1, || {
            parallel_map_with(&items, Vec::<u32>::new, |scratch, _, &item| {
                scratch.push(item);
                scratch.len()
            })
        });
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn state_variant_returns_every_worker_state() {
        for limit in [1usize, 4] {
            let items: Vec<u32> = (0..9).collect();
            let (results, states) = with_limit(limit, || {
                parallel_map_with_state(&items, Vec::<u32>::new, |scratch, _, &item| {
                    scratch.push(item);
                    item * 2
                })
            });
            assert_eq!(results, (0..9).map(|i| i * 2).collect::<Vec<_>>());
            assert!((1..=limit).contains(&states.len()), "thread limit {limit}");
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
        let outer: Vec<usize> = (0..8).collect();
        // Inside any part, the caller's included, a nested call must
        // degrade to serial.
        let nested_threads = with_limit(4, || parallel_map(&outer, |_, _| max_threads()));
        assert!(nested_threads.iter().all(|&n| n == 1));
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn consecutive_fan_outs_reuse_parked_helpers() {
        let threads: HashSet<ThreadId> = with_limit(2, || {
            (0..200)
                .flat_map(|_| parallel_map(&[0u8, 1], |_, _| current()))
                .collect()
        });
        // The caller and one parked helper, not a fresh thread per call.
        assert!(threads.len() <= 2, "{} distinct threads", threads.len());
    }

    #[test]
    fn panicking_part_re_raises_on_the_caller_and_the_helper_survives() {
        with_limit(2, || {
            // Item 0 is the caller's own part, item 1 a helper's.
            for panicking in [0usize, 1] {
                let outcome = panic::catch_unwind(|| {
                    parallel_map(&[0usize, 1], |i, _| {
                        assert_ne!(i, panicking, "part {panicking} panics");
                        i
                    })
                });
                let payload = outcome.expect_err("the part's panic re-raises");
                let message = payload.downcast_ref::<String>().expect("an assert message");
                assert!(message.contains(&format!("part {panicking} panics")));
                let ran_on = parallel_map(&[0u8, 1], |_, _| current());
                assert_eq!(ran_on[0], current());
                assert_ne!(ran_on[1], current(), "the next fan-out gets a helper");
            }
        });
    }

    #[test]
    fn guarded_fan_outs_never_exceed_the_budget() {
        const LIMIT: usize = 4;
        const GUARDED: usize = 3;
        let live = Mutex::new(HashSet::new());
        let high_water = AtomicUsize::new(0);
        let enter = |live: &Mutex<HashSet<ThreadId>>| {
            let mut live = live.lock().expect("live set");
            let entered = live.insert(current());
            high_water.fetch_max(live.len(), Ordering::SeqCst);
            entered
        };
        let all_guarded = Barrier::new(GUARDED);
        with_limit(LIMIT, || {
            std::thread::scope(|scope| {
                for _ in 0..GUARDED {
                    scope.spawn(|| {
                        let guard = job_guard();
                        enter(&live);
                        all_guarded.wait();
                        let items: Vec<u32> = (0..12).collect();
                        parallel_map(&items, |_, _| {
                            let entered = enter(&live);
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            if entered {
                                live.lock().expect("live set").remove(&current());
                            }
                        });
                        live.lock().expect("live set").remove(&current());
                        drop(guard);
                    });
                }
            });
        });
        let high_water = high_water.into_inner();
        assert!(
            (GUARDED..=LIMIT).contains(&high_water),
            "{high_water} SC threads at once with a budget of {LIMIT}"
        );
    }

    #[test]
    fn fan_out_with_every_slot_held_runs_on_its_caller() {
        with_limit(2, || {
            let _mine = job_guard();
            let held = Barrier::new(2);
            let release = Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _theirs = job_guard();
                    held.wait();
                    release.wait();
                });
                held.wait();
                let items: Vec<u32> = (0..8).collect();
                let (ran_on, states) = parallel_map_with_state(&items, || (), |(), _, _| current());
                release.wait();
                assert_eq!(states.len(), 1);
                assert!(ran_on.iter().all(|&id| id == current()));
            });
        });
    }
}
