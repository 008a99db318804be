//! The global work-sharing thread pool behind the facade.
//!
//! One process-wide pool, lazily started on first use. Callers submit
//! work through [`join`] and [`scope`]; both keep the *caller* as one of
//! the executing threads, so a pool limited to one thread degenerates to
//! plain inline execution with zero dispatch cost.
//!
//! Design notes:
//!
//! * **Shared FIFO queue, LIFO helping.** Jobs live in one
//!   `Mutex<VecDeque>`: idle workers pop from the front (oldest first,
//!   breadth across independent submitters), while a thread *waiting*
//!   for its own fork pops from the back (newest first — most likely its
//!   own subtree, keeping the working set hot). The queue only ever
//!   holds `O(live forks)` entries, so a mutex is not a bottleneck at
//!   the coarse grain sizes the workspace dispatches.
//! * **Deadlock freedom.** A waiting thread never blocks: it executes
//!   queued jobs until its own completion flag flips ("helping"). Nested
//!   `join`/`scope` therefore cannot deadlock even with zero workers.
//! * **Panic propagation.** Every job runs under `catch_unwind`; the
//!   payload is carried back and re-raised on the thread that owns the
//!   fork (`join`) or the scope exit (`scope`), matching `rayon`.
//! * **Determinism.** The pool never influences *what* is computed —
//!   only where. All splitting decisions are made by the iterator layer
//!   from input lengths alone, so results are byte-identical for any
//!   thread count (see the crate docs).

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Thread-count override recorded by [`set_threads`] before (or after)
/// the pool starts. Zero means "not configured".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// The process-wide pool.
static POOL: OnceLock<Pool> = OnceLock::new();

// ---------------------------------------------------------------------------
// jobs
// ---------------------------------------------------------------------------

/// A type-erased pointer to a queued unit of work.
///
/// The pointee is either a [`StackJob`] owned by a frame currently
/// blocked in [`Pool::wait_until`] (so it outlives execution), or a
/// leaked [`HeapJob`] box reclaimed by its executor.
pub(crate) struct JobRef {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: a `JobRef` is a one-shot token: exactly one thread executes
// it, and both job kinds synchronise their results back to the owner
// (done-flag / pending-counter with release/acquire ordering).
unsafe impl Send for JobRef {}

impl JobRef {
    /// Runs the job. Must be called exactly once.
    ///
    /// # Safety
    ///
    /// `self` must have been produced by `StackJob::as_job_ref` or
    /// `HeapJob::into_job_ref` and not executed before.
    unsafe fn execute(self) {
        (self.exec)(self.data)
    }
}

/// A fork whose closure and result live on the forking thread's stack.
struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    done: AtomicBool,
}

// SAFETY: the cells are accessed by at most one thread at a time — the
// executor writes them before the release-store of `done`, the owner
// reads them only after the acquire-load of `done`.
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(func: F) -> Self {
        Self {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
            done: AtomicBool::new(false),
        }
    }

    /// Erases this job into a queue token.
    ///
    /// # Safety
    ///
    /// The caller must keep `self` alive and in place until
    /// [`Pool::wait_until`] has observed `self.done`.
    unsafe fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: (self as *const Self).cast(),
            exec: Self::execute_erased,
        }
    }

    /// # Safety
    ///
    /// `ptr` must come from [`StackJob::as_job_ref`] on a still-live job.
    unsafe fn execute_erased(ptr: *const ()) {
        let this = &*ptr.cast::<Self>();
        let func = (*this.func.get()).take().expect("stack job executed twice");
        let outcome = catch_unwind(AssertUnwindSafe(func));
        *this.result.get() = Some(outcome);
        this.done.store(true, Ordering::Release);
    }

    /// Consumes the finished job, re-raising a captured panic.
    fn unwrap_result(self) -> R {
        match self
            .result
            .into_inner()
            .expect("stack job consumed before completion")
        {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }
}

/// A detached job for [`Scope::spawn`]; boxed, reclaimed by its executor.
struct HeapJob<F> {
    body: F,
}

impl<F: FnOnce() + Send> HeapJob<F> {
    fn new(body: F) -> Self {
        Self { body }
    }

    /// Leaks the box into a queue token.
    ///
    /// # Safety
    ///
    /// Everything `body` borrows must stay alive until the job has run;
    /// [`scope`] guarantees this by blocking until its counter drains.
    unsafe fn into_job_ref(self: Box<Self>) -> JobRef {
        JobRef {
            data: Box::into_raw(self) as *const (),
            exec: Self::execute_erased,
        }
    }

    /// # Safety
    ///
    /// `ptr` must come from [`HeapJob::into_job_ref`], exactly once.
    unsafe fn execute_erased(ptr: *const ()) {
        let job = Box::from_raw(ptr as *mut Self);
        (job.body)();
    }
}

// ---------------------------------------------------------------------------
// the pool proper
// ---------------------------------------------------------------------------

struct State {
    queue: VecDeque<JobRef>,
    /// Worker threads spawned so far (workers never exit; shrinking the
    /// limit only narrows future dispatch, it does not reap threads).
    workers: usize,
}

pub(crate) struct Pool {
    state: Mutex<State>,
    work_available: Condvar,
    /// Effective thread count (caller + workers used for dispatch).
    /// Zero only during construction, before the first `resize`.
    limit: AtomicUsize,
}

impl Pool {
    /// The process-wide pool, started on first use.
    pub(crate) fn global() -> &'static Pool {
        let pool = POOL.get_or_init(|| Pool {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                workers: 0,
            }),
            work_available: Condvar::new(),
            limit: AtomicUsize::new(0),
        });
        if pool.limit.load(Ordering::Acquire) == 0 {
            let configured = CONFIGURED.load(Ordering::SeqCst);
            let target = if configured == 0 {
                threads_from_env()
            } else {
                configured
            };
            pool.resize(target);
        }
        pool
    }

    /// Current effective thread count; `<= 1` means inline execution.
    pub(crate) fn limit(&self) -> usize {
        self.limit.load(Ordering::Acquire)
    }

    /// Retargets the pool: publishes the new limit and tops up workers
    /// to `target - 1` (the caller is always the remaining thread).
    fn resize(&'static self, target: usize) {
        let target = target.max(1);
        self.limit.store(target, Ordering::Release);
        let mut state = self.lock_state();
        while state.workers + 1 < target {
            state.workers += 1;
            let id = state.workers;
            std::thread::Builder::new()
                .name(format!("cube-pool-{id}"))
                .spawn(move || self.worker_loop())
                .expect("failed to spawn pool worker thread");
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        // A panic can only poison this mutex between `lock` and `drop`
        // below, where no unwinding code runs; recover rather than
        // cascade the (impossible) poison into every later caller.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues a job and wakes one sleeping worker.
    pub(crate) fn push(&self, job: JobRef) {
        self.lock_state().queue.push_back(job);
        self.work_available.notify_one();
    }

    /// Steals the most recently queued job, if any.
    fn try_pop(&self) -> Option<JobRef> {
        self.lock_state().queue.pop_back()
    }

    /// Worker body: oldest-first service loop, parked when idle.
    fn worker_loop(&self) {
        let mut state = self.lock_state();
        loop {
            match state.queue.pop_front() {
                Some(job) => {
                    drop(state);
                    // SAFETY: queued tokens are valid until executed once,
                    // and popping removed this one from the queue.
                    unsafe { job.execute() };
                    state = self.lock_state();
                }
                None => {
                    state = self
                        .work_available
                        .wait(state)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Blocks until `finished` holds, executing queued jobs meanwhile
    /// ("helping") so nested forks can never deadlock.
    fn help_until(&self, finished: impl Fn() -> bool) {
        let mut spins: u32 = 0;
        while !finished() {
            if let Some(job) = self.try_pop() {
                // SAFETY: popping transferred sole execution rights.
                unsafe { job.execute() };
                spins = 0;
            } else if spins < 64 {
                std::hint::spin_loop();
                spins += 1;
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// [`Pool::help_until`] on a job's completion flag.
    fn wait_until(&self, flag: &AtomicBool) {
        self.help_until(|| flag.load(Ordering::Acquire));
    }
}

/// Thread count from the environment: `CUBE_THREADS`, else
/// [`std::thread::available_parallelism`].
fn threads_from_env() -> usize {
    std::env::var("CUBE_THREADS")
        .ok()
        .and_then(|raw| parse_thread_var(&raw))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Parses the thread-count variable; `0` clamps to 1 (inline), garbage
/// is ignored so the next source applies.
fn parse_thread_var(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().map(|n| n.max(1))
}

// ---------------------------------------------------------------------------
// public API: sizing
// ---------------------------------------------------------------------------

/// Sets the effective thread count for all subsequent parallel work.
///
/// `1` disables dispatch entirely (inline execution); values are clamped
/// to at least 1. May be called before or after the pool has started;
/// shrinking narrows future dispatch but never reaps live workers.
///
/// Results of the facade's operations do **not** depend on this value —
/// see the crate-level determinism guarantee.
pub fn set_threads(threads: usize) {
    let threads = threads.max(1);
    CONFIGURED.store(threads, Ordering::SeqCst);
    if let Some(pool) = POOL.get() {
        pool.resize(threads);
    }
}

/// The effective thread count parallel work may currently use
/// (including the calling thread). Starts the pool if necessary.
pub fn current_num_threads() -> usize {
    Pool::global().limit()
}

// ---------------------------------------------------------------------------
// public API: join + scope
// ---------------------------------------------------------------------------

/// Runs both closures, potentially in parallel, and returns both
/// results. The caller always executes `oper_a` itself; `oper_b` is
/// offered to the pool and reclaimed by the caller if no worker takes
/// it. With an effective thread count of 1 both simply run inline.
///
/// A panic in either closure resumes on the calling thread once both
/// halves have finished (if both panic, the first payload wins).
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let pool = Pool::global();
    if pool.limit() <= 1 {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }
    let job_b = StackJob::new(oper_b);
    // SAFETY: `job_b` stays pinned on this frame until `wait_until`
    // below observes its done flag — the executor's final access.
    pool.push(unsafe { job_b.as_job_ref() });
    let result_a = catch_unwind(AssertUnwindSafe(oper_a));
    // Even if `oper_a` panicked we must wait: the queued job borrows
    // this very stack frame.
    pool.wait_until(&job_b.done);
    match result_a {
        Ok(ra) => (ra, job_b.unwrap_result()),
        Err(payload) => {
            // `job_b`'s own panic payload, if any, is dropped with it.
            drop(job_b);
            resume_unwind(payload)
        }
    }
}

/// A fork scope handed to [`scope`]'s closure; see there.
pub struct Scope<'scope> {
    pool: &'static Pool,
    pending: AtomicUsize,
    first_panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    /// Invariant in `'scope` so callers cannot shrink the region the
    /// spawned closures are allowed to borrow from.
    _marker: std::marker::PhantomData<fn(&'scope ()) -> &'scope ()>,
}

/// Creates a scope in which closures borrowing non-`'static` data may
/// be spawned onto the pool; returns only after every spawned closure
/// has finished. The first panic from any spawned closure (or from `op`
/// itself) resumes on the calling thread at scope exit.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let s = Scope {
        pool: Pool::global(),
        pending: AtomicUsize::new(0),
        first_panic: Mutex::new(None),
        _marker: std::marker::PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| op(&s)));
    s.wait_all();
    let spawned_panic = s
        .first_panic
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    match result {
        Err(payload) => resume_unwind(payload),
        Ok(value) => {
            if let Some(payload) = spawned_panic {
                resume_unwind(payload);
            }
            value
        }
    }
}

/// A `*const Scope` that may cross threads.
struct ScopePtr<'scope>(*const Scope<'scope>);

// SAFETY: `Scope` is `Sync` (atomics, a mutex, a `&'static Pool`), and
// the owning `scope` call outlives every job holding one of these.
unsafe impl Send for ScopePtr<'_> {}

impl<'scope> ScopePtr<'scope> {
    /// Accessor (rather than a public field) so closures capture the
    /// whole `Send` wrapper, not the raw pointer field — 2021-edition
    /// disjoint capture would otherwise bypass the `Send` impl.
    fn get(&self) -> *const Scope<'scope> {
        self.0
    }
}

impl<'scope> Scope<'scope> {
    /// Spawns `body` onto the pool. The closure may borrow anything
    /// that outlives `'scope`; the surrounding [`scope`] call will not
    /// return before it has run. Runs inline when the pool's effective
    /// thread count is 1.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        if self.pool.limit() <= 1 {
            // Inline fallback: capture panics exactly like the pooled
            // path so `scope` reports them identically.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(self))) {
                self.record_panic(payload);
            }
            return;
        }
        self.pending.fetch_add(1, Ordering::SeqCst);
        let ptr = ScopePtr(self as *const Scope<'scope>);
        let job = Box::new(HeapJob::new(move || {
            // SAFETY: the owning `scope` call blocks in `wait_all` until
            // `pending` drains, so the `Scope` is still alive here.
            let scope = unsafe { &*ptr.get() };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(scope))) {
                scope.record_panic(payload);
            }
            scope.pending.fetch_sub(1, Ordering::Release);
        }));
        // SAFETY: `wait_all` below keeps every `'scope` borrow alive
        // until the job has executed.
        self.pool.push(unsafe { job.into_job_ref() });
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send + 'static>) {
        let mut slot = self.first_panic.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn wait_all(&self) {
        self.pool
            .help_until(|| self.pending.load(Ordering::Acquire) == 0);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Serialises tests that depend on a *specific* global thread limit.

    use std::sync::{Mutex, MutexGuard};

    static LIMIT_LOCK: Mutex<()> = Mutex::new(());

    /// Holds the limit lock and restores the previous limit on drop.
    pub(crate) struct LimitGuard {
        prev: usize,
        _lock: MutexGuard<'static, ()>,
    }

    /// Sets the global limit to `n` for the guard's lifetime.
    pub(crate) fn with_threads(n: usize) -> LimitGuard {
        let lock = LIMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = super::current_num_threads();
        super::set_threads(n);
        LimitGuard { prev, _lock: lock }
    }

    impl Drop for LimitGuard {
        fn drop(&mut self) {
            super::set_threads(self.prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::with_threads;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "b".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "b");
    }

    #[test]
    fn nested_join_computes_a_reduction_tree() {
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 8 {
                (lo..hi).sum()
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
                a + b
            }
        }
        assert_eq!(sum(0, 1000), 499_500);
    }

    #[test]
    fn join_propagates_panic_from_first_closure() {
        let caught = std::panic::catch_unwind(|| {
            join(|| panic!("first half"), || 1);
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("first half"), "unexpected payload: {msg:?}");
    }

    #[test]
    fn join_propagates_panic_from_second_closure() {
        let caught = std::panic::catch_unwind(|| {
            join(|| 1, || panic!("second half"));
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("second half"), "unexpected payload: {msg:?}");
    }

    #[test]
    fn join_runs_inline_when_limit_is_one() {
        let _guard = with_threads(1);
        let caller = std::thread::current().id();
        let (ta, tb) = join(
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!(ta, caller);
        assert_eq!(tb, caller, "limit 1 must not dispatch to a worker");
    }

    #[test]
    fn scope_waits_for_all_spawned_jobs() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..64 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn scope_supports_nested_spawns() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|s| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    s.spawn(|_| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn scope_propagates_spawned_panic() {
        let caught = std::panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(|_| panic!("spawned failure"));
            });
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            msg.contains("spawned failure"),
            "unexpected payload: {msg:?}"
        );
    }

    #[test]
    fn scope_runs_inline_when_limit_is_one() {
        let _guard = with_threads(1);
        let caller = std::thread::current().id();
        let mut seen = None;
        scope(|s| {
            s.spawn(|_| {
                seen = Some(std::thread::current().id());
            });
        });
        assert_eq!(seen, Some(caller));
    }

    #[test]
    fn set_threads_clamps_zero_to_one() {
        let _guard = with_threads(4);
        set_threads(0);
        assert_eq!(current_num_threads(), 1);
    }

    #[test]
    fn thread_var_parsing() {
        assert_eq!(parse_thread_var("4"), Some(4));
        assert_eq!(parse_thread_var(" 8 "), Some(8));
        assert_eq!(parse_thread_var("0"), Some(1), "zero clamps to inline");
        assert_eq!(parse_thread_var(""), None);
        assert_eq!(parse_thread_var("many"), None);
        assert_eq!(parse_thread_var("-2"), None);
    }

    #[test]
    fn join_distributes_work_when_limit_allows() {
        let _guard = with_threads(4);
        // With helping in place this cannot deadlock even if the pool
        // never picks the job up; we only assert completion + results.
        let (a, b) = join(|| (0..1000).sum::<u64>(), || (0..1000).product::<u64>());
        assert_eq!(a, 499_500);
        assert_eq!(b, 0);
    }
}
