//! The controlled scheduler at the heart of the model checker.
//!
//! Every model thread is a real OS thread, but exactly one holds the *turn*
//! at any moment; all instrumented operations (lock, unlock, atomic access,
//! channel send, spawn, join, yield) funnel through [`Execution::schedule`],
//! which picks the next thread to run. Because threads only interleave at
//! instrumented points and the picker is driven by a deterministic strategy,
//! a recorded decision sequence replays an execution exactly.
//!
//! Scheduling strategies:
//! - **DFS** (bounded-preemption exhaustive search): the checker replays a
//!   growing prefix of decisions and takes the first untried branch at the
//!   deepest branchable decision, backtracking when a subtree is exhausted.
//!   Preempting a runnable thread costs budget; once the bound is hit the
//!   current thread is forced to continue, which keeps the tree finite and
//!   polynomial while still covering every schedule with few preemptions
//!   (where the overwhelming majority of real concurrency bugs live).
//! - **PCT** (probabilistic concurrency testing): threads get random
//!   priorities, the highest-priority runnable thread always runs, and at
//!   `depth` random steps the running thread's priority drops below all
//!   others. Seeded, so any failing iteration is reproducible.
//!
//! Memory model: atomics are modeled *sequentially consistent* — each access
//! is a scheduling point followed by the real operation, so every explored
//! interleaving corresponds to a real SC execution. This catches
//! check-then-act races, lost wakeups, and ordering bugs between threads,
//! but does not model C11 weak-memory reorderings within a thread.
//!
//! Time: there is no virtual clock. `sleep` and `wait_timeout` are modeled
//! as plain yields that never time out; a state where every thread is
//! blocked (even in a timed wait) is reported as a deadlock, because code
//! that is only correct thanks to a timeout firing is a liveness bug.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Panic payload used to unwind model threads when an execution aborts
/// (failure found or exploration cancelled). Never shown to the user.
pub(crate) struct ModelAbort;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BlockedOn {
    Mutex(usize),
    RwRead(usize),
    RwWrite(usize),
    Condvar(usize),
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RunState {
    Runnable,
    /// Called `yield_now`: not schedulable again until some other thread has
    /// taken a non-yield step (bounds spin-loop interleavings, loom-style),
    /// unless every runnable thread is in this state.
    Yielded,
    Blocked(BlockedOn),
    Finished,
}

struct ThreadInfo {
    state: RunState,
    /// Set when the thread's closure panicked with a user (non-abort) payload.
    panicked: bool,
}

#[derive(Default)]
struct RwState {
    readers: Vec<usize>,
    writer: Option<usize>,
}

/// One branchable scheduling decision: `chosen` is an index into the sorted
/// option list, not a thread id, so replay strings stay stable.
#[derive(Clone, Copy)]
pub(crate) struct Decision {
    pub chosen: u32,
    pub n_options: u32,
}

pub(crate) enum Strategy {
    /// Follow `prefix` at each branchable decision; past the end, prefer the
    /// currently running thread (minimises preemptions). DFS and exact
    /// replay are both expressed through this.
    Replay { prefix: Vec<u32>, pos: usize },
    /// PCT randomized priorities with `change_points` priority drops.
    Pct { rng: SplitMix, priorities: Vec<u64>, change_points: Vec<usize>, next_low: u64 },
}

/// Deterministic splitmix64 — all the randomness PCT needs, no deps.
pub(crate) struct SplitMix(pub u64);

impl SplitMix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

struct ExecState {
    threads: Vec<ThreadInfo>,
    current: usize,
    steps: usize,
    preemptions: usize,
    decisions: Vec<Decision>,
    strategy: Strategy,
    failure: Option<String>,
    aborting: bool,
    mutexes: HashMap<usize, Option<usize>>,
    rwlocks: HashMap<usize, RwState>,
    condvars: HashMap<usize, Vec<usize>>,
}

pub(crate) struct RunConfig {
    pub max_steps: usize,
    pub preemption_bound: Option<usize>,
    pub allow_thread_panics: bool,
}

pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
    cfg: RunConfig,
    /// OS threads created by this execution that have not yet fully exited;
    /// the controller spins this to zero before finishing a run so no model
    /// thread can leak into the next execution.
    live_os: AtomicUsize,
}

pub(crate) struct RunOutcome {
    pub decisions: Vec<Decision>,
    pub failure: Option<String>,
    pub steps: usize,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Execution>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The (execution, thread id) context of the calling thread, if it is a
/// model thread inside an active execution.
pub(crate) fn ctx() -> Option<(Arc<Execution>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// True when the calling thread is running inside a model execution. The
/// instrumented primitives use this to fall back to plain std behaviour in
/// ordinary (non-model) builds and tests.
pub fn in_execution() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

fn set_ctx(v: Option<(Arc<Execution>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

pub(crate) fn clear_ctx() {
    set_ctx(None);
}

impl Execution {
    fn new(strategy: Strategy, cfg: RunConfig) -> Self {
        Execution {
            state: Mutex::new(ExecState {
                threads: vec![ThreadInfo { state: RunState::Runnable, panicked: false }],
                current: 0,
                steps: 0,
                preemptions: 0,
                decisions: Vec::new(),
                strategy,
                failure: None,
                aborting: false,
                mutexes: HashMap::new(),
                rwlocks: HashMap::new(),
                condvars: HashMap::new(),
            }),
            cv: Condvar::new(),
            cfg,
            live_os: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn abort_check(&self, st: &ExecState) {
        if st.aborting {
            panic::resume_unwind(Box::new(ModelAbort));
        }
    }

    /// Record a failure and wake everyone so blocked threads can unwind.
    /// Does not unwind the caller — callers that must stop follow up with
    /// `abort_check`.
    fn fail_locked(&self, st: &mut ExecState, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    /// Threads eligible to run next. Yielded threads only become options
    /// when no non-yielded runnable thread exists; once the preemption
    /// budget is spent, a runnable current thread is forced to continue.
    fn options(&self, st: &ExecState) -> Vec<usize> {
        let mut runnable = Vec::new();
        let mut yielded = Vec::new();
        for (id, t) in st.threads.iter().enumerate() {
            match t.state {
                RunState::Runnable => runnable.push(id),
                RunState::Yielded => yielded.push(id),
                _ => {}
            }
        }
        let opts = if runnable.is_empty() { yielded } else { runnable };
        if let Some(bound) = self.cfg.preemption_bound {
            if st.preemptions >= bound && opts.contains(&st.current) {
                return vec![st.current];
            }
        }
        opts
    }

    /// Pick the next thread to run and publish it as `st.current`. Called
    /// with the state lock held, by the thread that currently owns the turn
    /// (or is giving it up). Fails the execution on deadlock.
    fn pick_next(&self, st: &mut ExecState) {
        let me = st.current;
        let opts = self.options(st);
        if opts.is_empty() {
            if st.threads.iter().all(|t| t.state == RunState::Finished) {
                st.current = usize::MAX;
                self.cv.notify_all();
                return;
            }
            let detail: Vec<String> =
                st.threads.iter().enumerate().map(|(i, t)| format!("t{i}:{:?}", t.state)).collect();
            self.fail_locked(st, format!("deadlock: no runnable thread ({})", detail.join(" ")));
            return;
        }
        let idx = if opts.len() == 1 {
            0
        } else {
            let chosen = match &mut st.strategy {
                Strategy::Replay { prefix, pos } => {
                    let i = if *pos < prefix.len() {
                        (prefix[*pos] as usize).min(opts.len() - 1)
                    } else {
                        // Default past the prefix: keep running the current
                        // thread when possible, else take the lowest id.
                        opts.iter().position(|&t| t == me).unwrap_or(0)
                    };
                    *pos += 1;
                    i
                }
                Strategy::Pct { rng, priorities, change_points, next_low } => {
                    while priorities.len() < st.threads.len() {
                        priorities.push(rng.next() | (1 << 32));
                    }
                    let i = opts
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &t)| priorities[t])
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    if change_points.contains(&st.steps) {
                        // Priority change point: demote the winner below all
                        // current priorities for subsequent decisions.
                        priorities[opts[i]] = *next_low;
                        *next_low = next_low.saturating_sub(1);
                    }
                    i
                }
            };
            st.decisions.push(Decision { chosen: chosen as u32, n_options: opts.len() as u32 });
            chosen
        };
        let chosen = opts[idx];
        if chosen != me
            && st.threads.get(me).map(|t| t.state == RunState::Runnable).unwrap_or(false)
        {
            st.preemptions += 1;
        }
        st.threads[chosen].state = RunState::Runnable;
        st.current = chosen;
        self.cv.notify_all();
    }

    /// Block until this thread owns the turn (or the execution aborts).
    fn wait_for_turn<'a>(
        &'a self,
        mut st: MutexGuard<'a, ExecState>,
        me: usize,
    ) -> MutexGuard<'a, ExecState> {
        loop {
            if st.aborting {
                drop(st);
                panic::resume_unwind(Box::new(ModelAbort));
            }
            if st.current == me {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Count one step for `me`, un-yield other threads (a non-yield step is
    /// the progress that re-arms them), enforce the step bound.
    fn step_locked(&self, st: &mut ExecState, me: usize, is_yield: bool) {
        st.steps += 1;
        if st.steps > self.cfg.max_steps {
            self.fail_locked(
                st,
                format!(
                    "step bound exceeded ({} steps): possible livelock or unbounded spin",
                    self.cfg.max_steps
                ),
            );
            self.abort_check(st);
        }
        if !is_yield {
            for (id, t) in st.threads.iter_mut().enumerate() {
                if id != me && t.state == RunState::Yielded {
                    t.state = RunState::Runnable;
                }
            }
        }
    }

    /// The basic scheduling point: every instrumented visible operation
    /// calls this immediately *before* performing the real operation.
    pub(crate) fn schedule(self: &Arc<Self>) {
        let me = cur_id();
        let mut st = self.lock();
        self.abort_check(&st);
        self.step_locked(&mut st, me, false);
        self.pick_next(&mut st);
        let _st = self.wait_for_turn(st, me);
    }

    /// `yield_now`: a scheduling point where the caller steps aside.
    pub(crate) fn schedule_yield(self: &Arc<Self>) {
        let me = cur_id();
        let mut st = self.lock();
        self.abort_check(&st);
        self.step_locked(&mut st, me, true);
        st.threads[me].state = RunState::Yielded;
        self.pick_next(&mut st);
        let _st = self.wait_for_turn(st, me);
    }

    // ---- blocking primitive protocols -----------------------------------

    fn block_until<F>(self: &Arc<Self>, mut try_acquire: F, on: BlockedOn)
    where
        F: FnMut(&mut ExecState, usize) -> bool,
    {
        let me = cur_id();
        let mut st = self.lock();
        self.abort_check(&st);
        loop {
            if try_acquire(&mut st, me) {
                return;
            }
            st.threads[me].state = RunState::Blocked(on);
            self.pick_next(&mut st);
            st = self.wait_for_turn(st, me);
        }
    }

    fn wake_blocked(st: &mut ExecState, on: BlockedOn) {
        for t in st.threads.iter_mut() {
            if t.state == RunState::Blocked(on) {
                t.state = RunState::Runnable;
            }
        }
    }

    pub(crate) fn mutex_lock(self: &Arc<Self>, addr: usize) {
        self.schedule();
        self.block_until(
            |st, me| {
                let owner = st.mutexes.entry(addr).or_insert(None);
                if owner.is_none() {
                    *owner = Some(me);
                    true
                } else {
                    false
                }
            },
            BlockedOn::Mutex(addr),
        );
    }

    pub(crate) fn mutex_try_lock(self: &Arc<Self>, addr: usize) -> bool {
        self.schedule();
        let mut st = self.lock();
        self.abort_check(&st);
        let me = cur_id();
        let owner = st.mutexes.entry(addr).or_insert(None);
        if owner.is_none() {
            *owner = Some(me);
            true
        } else {
            false
        }
    }

    /// Release bookkeeping. Runs without a scheduling point: the next
    /// instrumented operation of the caller is the next place the scheduler
    /// can switch, and no visible operation happens in between. Must never
    /// panic — it runs from guard drops during abort unwinding.
    pub(crate) fn mutex_unlock(self: &Arc<Self>, addr: usize) {
        let mut st = self.lock();
        st.mutexes.insert(addr, None);
        if !st.aborting {
            Self::wake_blocked(&mut st, BlockedOn::Mutex(addr));
        }
    }

    pub(crate) fn rw_read(self: &Arc<Self>, addr: usize) {
        self.schedule();
        self.block_until(
            |st, me| {
                let rw = st.rwlocks.entry(addr).or_default();
                if rw.writer.is_none() {
                    rw.readers.push(me);
                    true
                } else {
                    false
                }
            },
            BlockedOn::RwRead(addr),
        );
    }

    pub(crate) fn rw_try_read(self: &Arc<Self>, addr: usize) -> bool {
        self.schedule();
        let mut st = self.lock();
        self.abort_check(&st);
        let me = cur_id();
        let rw = st.rwlocks.entry(addr).or_default();
        if rw.writer.is_none() {
            rw.readers.push(me);
            true
        } else {
            false
        }
    }

    pub(crate) fn rw_write(self: &Arc<Self>, addr: usize) {
        self.schedule();
        self.block_until(
            |st, me| {
                let rw = st.rwlocks.entry(addr).or_default();
                if rw.writer.is_none() && rw.readers.is_empty() {
                    rw.writer = Some(me);
                    true
                } else {
                    false
                }
            },
            BlockedOn::RwWrite(addr),
        );
    }

    pub(crate) fn rw_try_write(self: &Arc<Self>, addr: usize) -> bool {
        self.schedule();
        let mut st = self.lock();
        self.abort_check(&st);
        let me = cur_id();
        let rw = st.rwlocks.entry(addr).or_default();
        if rw.writer.is_none() && rw.readers.is_empty() {
            rw.writer = Some(me);
            true
        } else {
            false
        }
    }

    pub(crate) fn rw_unlock_read(self: &Arc<Self>, addr: usize) {
        let mut st = self.lock();
        let me = cur_id();
        if let Some(rw) = st.rwlocks.get_mut(&addr) {
            if let Some(i) = rw.readers.iter().position(|&r| r == me) {
                rw.readers.swap_remove(i);
            }
            let empty = rw.readers.is_empty();
            if empty && !st.aborting {
                Self::wake_blocked(&mut st, BlockedOn::RwWrite(addr));
            }
        }
    }

    pub(crate) fn rw_unlock_write(self: &Arc<Self>, addr: usize) {
        let mut st = self.lock();
        if let Some(rw) = st.rwlocks.get_mut(&addr) {
            rw.writer = None;
        }
        if !st.aborting {
            Self::wake_blocked(&mut st, BlockedOn::RwWrite(addr));
            Self::wake_blocked(&mut st, BlockedOn::RwRead(addr));
        }
    }

    /// Condvar wait: atomically (under the scheduler's state lock) release
    /// the associated model mutex and join the wait queue, so no wakeup
    /// issued after the caller released the mutex can be lost. Reacquires
    /// the mutex before returning.
    pub(crate) fn condvar_wait(self: &Arc<Self>, cv_addr: usize, mutex_addr: usize) {
        let me = cur_id();
        {
            let mut st = self.lock();
            self.abort_check(&st);
            self.step_locked(&mut st, me, false);
            st.mutexes.insert(mutex_addr, None);
            Self::wake_blocked(&mut st, BlockedOn::Mutex(mutex_addr));
            st.condvars.entry(cv_addr).or_default().push(me);
            st.threads[me].state = RunState::Blocked(BlockedOn::Condvar(cv_addr));
            self.pick_next(&mut st);
            let _st = self.wait_for_turn(st, me);
        }
        // Notified (state already reset to Runnable by the notifier) and we
        // own the turn: reacquire the mutex, possibly blocking again.
        self.block_until(
            |st, me| {
                let owner = st.mutexes.entry(mutex_addr).or_insert(None);
                if owner.is_none() {
                    *owner = Some(me);
                    true
                } else {
                    false
                }
            },
            BlockedOn::Mutex(mutex_addr),
        );
    }

    pub(crate) fn condvar_notify(self: &Arc<Self>, cv_addr: usize, all: bool) {
        let me = cur_id();
        let mut st = self.lock();
        if st.aborting {
            return; // notify during unwind: scheduler already woke everyone
        }
        self.step_locked(&mut st, me, false);
        let waiters = st.condvars.entry(cv_addr).or_default();
        let woken: Vec<usize> = if all {
            std::mem::take(waiters)
        } else {
            waiters.drain(..waiters.len().min(1)).collect()
        };
        for w in woken {
            st.threads[w].state = RunState::Runnable;
        }
        self.pick_next(&mut st);
        let _st = self.wait_for_turn(st, me);
    }

    // ---- threads ---------------------------------------------------------

    /// Register a new model thread (caller holds the turn). Returns its id.
    pub(crate) fn register_thread(self: &Arc<Self>) -> usize {
        self.schedule();
        let mut st = self.lock();
        self.abort_check(&st);
        st.threads.push(ThreadInfo { state: RunState::Runnable, panicked: false });
        let id = st.threads.len() - 1;
        // Counted before the OS thread exists so the controller cannot
        // observe zero while a spawn is in flight.
        self.live_os.fetch_add(1, Ordering::SeqCst);
        id
    }

    /// First thing a new model OS thread does: adopt its context and wait
    /// to be scheduled for the first time.
    pub(crate) fn enter_thread(self: &Arc<Self>, id: usize) {
        set_ctx(Some((self.clone(), id)));
        let st = self.lock();
        let _st = self.wait_for_turn(st, id);
    }

    /// Last thing a model thread does on its way out (normal return, user
    /// panic, or abort unwind). Marks it finished, wakes joiners, and passes
    /// the turn on.
    pub(crate) fn finish_thread(self: &Arc<Self>, id: usize, user_panic: Option<String>) {
        let mut st = self.lock();
        st.threads[id].state = RunState::Finished;
        if let Some(msg) = user_panic {
            st.threads[id].panicked = true;
            if !self.cfg.allow_thread_panics {
                self.fail_locked(&mut st, format!("thread t{id} panicked: {msg}"));
            }
        }
        if !st.aborting {
            Self::wake_blocked(&mut st, BlockedOn::Join(id));
            if st.current == id {
                self.pick_next(&mut st);
            }
        } else {
            self.cv.notify_all();
        }
    }

    /// Decremented by the OS-thread wrapper as its very last action.
    pub(crate) fn os_thread_exited(&self) {
        self.live_os.fetch_sub(1, Ordering::SeqCst);
    }

    pub(crate) fn join(self: &Arc<Self>, target: usize) {
        self.schedule();
        self.block_until(
            |st, _me| st.threads[target].state == RunState::Finished,
            BlockedOn::Join(target),
        );
    }

    pub(crate) fn thread_is_finished(self: &Arc<Self>, target: usize) -> bool {
        self.schedule();
        let st = self.lock();
        self.abort_check(&st);
        st.threads[target].state == RunState::Finished
    }

    // ---- run control -----------------------------------------------------

    /// The test closure returned on thread 0: drive the remaining threads to
    /// completion (or deadlock/failure) and wait for every model OS thread
    /// to exit.
    fn drive_to_completion(self: &Arc<Self>, main_ok: bool) {
        {
            let mut st = self.lock();
            st.threads[0].state = RunState::Finished;
            if !main_ok && st.failure.is_none() {
                st.aborting = true;
                self.cv.notify_all();
            }
            if !st.aborting {
                Self::wake_blocked(&mut st, BlockedOn::Join(0));
                if st.current == 0 {
                    self.pick_next(&mut st);
                }
            } else {
                self.cv.notify_all();
            }
            // Wait until every thread has finished or the run is aborting.
            while !st.aborting && !st.threads.iter().all(|t| t.state == RunState::Finished) {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.aborting {
                // Make sure no thread stays parked waiting for a turn.
                self.cv.notify_all();
            }
        }
        // Spin (with real yields — these are real OS threads unwinding) until
        // every spawned thread has fully exited.
        while self.live_os.load(Ordering::SeqCst) > 0 {
            self.cv.notify_all();
            std::thread::yield_now();
        }
    }
}

fn cur_id() -> usize {
    ctx().map(|(_, id)| id).expect("modelcheck: operation outside a model thread")
}

/// Run the closure once under the given strategy. The closure runs on the
/// calling thread as model thread 0.
pub(crate) fn run_once(strategy: Strategy, cfg: RunConfig, f: &dyn Fn()) -> RunOutcome {
    let exec = Arc::new(Execution::new(strategy, cfg));
    set_ctx(Some((exec.clone(), 0)));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    let main_ok = match result {
        Ok(()) => true,
        Err(p) => {
            if !p.is::<ModelAbort>() {
                let msg = panic_message(p.as_ref());
                let mut st = exec.lock();
                let m = format!("main thread panicked: {msg}");
                exec.fail_locked(&mut st, m);
            }
            false
        }
    };
    exec.drive_to_completion(main_ok);
    set_ctx(None);
    let st = exec.lock();
    RunOutcome { decisions: st.decisions.clone(), failure: st.failure.clone(), steps: st.steps }
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
