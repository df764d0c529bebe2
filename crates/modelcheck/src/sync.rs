//! Instrumented drop-in replacements for `std::sync` primitives.
//!
//! Each type embeds the real std primitive and adds scheduler bookkeeping
//! when the calling thread is inside a model execution; outside one, every
//! operation delegates straight to std. That makes these types safe to link
//! into ordinary builds and tests — cargo feature unification can turn the
//! vendored shims' `model` feature on for a whole test workspace without
//! changing behaviour anywhere a model execution is not actively running.
//!
//! Inside an execution the protocol is: logical ownership is granted by the
//! scheduler first (a blocking decision point), after which the embedded
//! std primitive is acquired with `try_lock` — guaranteed uncontended,
//! because only one model thread runs at a time and the scheduler only
//! grants ownership the real lock can honour. No `unsafe` needed.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, Arc, LockResult, PoisonError, TryLockError};

use crate::exec::{ctx, Execution};

fn addr_of<T: ?Sized>(v: &T) -> usize {
    v as *const T as *const () as usize
}

/// Unwrap a std try-lock result, ignoring poison: under the model, a
/// poisoned real lock only means a model thread unwound while holding it
/// (abort or an expected panic) — logical ownership is what matters.
fn ignore_poison<G>(r: Result<G, TryLockError<G>>) -> Option<G> {
    match r {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

struct ModelRelease {
    exec: Arc<Execution>,
    addr: usize,
    kind: ReleaseKind,
}

#[derive(Clone, Copy)]
enum ReleaseKind {
    Mutex,
    Read,
    Write,
}

impl ModelRelease {
    /// Recover the parts without running the release bookkeeping.
    fn disarm(self) -> (Arc<Execution>, usize) {
        let exec = self.exec.clone();
        let addr = self.addr;
        std::mem::forget(self);
        (exec, addr)
    }
}

impl Drop for ModelRelease {
    fn drop(&mut self) {
        match self.kind {
            ReleaseKind::Mutex => self.exec.mutex_unlock(self.addr),
            ReleaseKind::Read => self.exec.rw_unlock_read(self.addr),
            ReleaseKind::Write => self.exec.rw_unlock_write(self.addr),
        }
    }
}

// ---------------------------------------------------------------- Mutex --

pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    // Dropped in declaration order: the real guard is released before the
    // scheduler learns the lock is free, so a newly granted owner's
    // `try_lock` always succeeds.
    std: Option<sync::MutexGuard<'a, T>>,
    model: Option<ModelRelease>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex { inner: sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        addr_of(self)
    }

    fn model_guard(&self, exec: Arc<Execution>) -> MutexGuard<'_, T> {
        let std = ignore_poison(self.inner.try_lock())
            .expect("model invariant: real mutex contended after logical grant");
        MutexGuard {
            lock: self,
            std: Some(std),
            model: Some(ModelRelease { exec, addr: self.addr(), kind: ReleaseKind::Mutex }),
        }
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some((exec, _)) = ctx() {
            exec.mutex_lock(self.addr());
            Ok(self.model_guard(exec))
        } else {
            match self.inner.lock() {
                Ok(g) => Ok(MutexGuard { lock: self, std: Some(g), model: None }),
                Err(e) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    std: Some(e.into_inner()),
                    model: None,
                })),
            }
        }
    }

    pub fn try_lock(&self) -> Result<MutexGuard<'_, T>, TryLockError<MutexGuard<'_, T>>> {
        if let Some((exec, _)) = ctx() {
            if exec.mutex_try_lock(self.addr()) {
                Ok(self.model_guard(exec))
            } else {
                Err(TryLockError::WouldBlock)
            }
        } else {
            match self.inner.try_lock() {
                Ok(g) => Ok(MutexGuard { lock: self, std: Some(g), model: None }),
                Err(TryLockError::Poisoned(e)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                        lock: self,
                        std: Some(e.into_inner()),
                        model: None,
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            }
        }
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_mut().expect("guard accessed after release")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

// -------------------------------------------------------------- Condvar --

pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar { inner: sync::Condvar::new() }
    }

    fn addr(&self) -> usize {
        addr_of(self)
    }

    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match guard.model.take() {
            Some(release) => {
                let (exec, mutex_addr) = release.disarm();
                let lock = guard.lock;
                // Drop the real guard first; the scheduler then atomically
                // (inside its state lock) releases logical ownership and
                // joins the wait queue — no wakeup can slip between the two,
                // and no other model thread runs before `condvar_wait` takes
                // the state lock because we still hold the turn.
                drop(guard.std.take());
                drop(guard);
                exec.condvar_wait(self.addr(), mutex_addr);
                Ok(lock.model_guard(exec))
            }
            None => {
                let lock = guard.lock;
                let std = guard.std.take().expect("guard accessed after release");
                drop(guard);
                match self.inner.wait(std) {
                    Ok(g) => Ok(MutexGuard { lock, std: Some(g), model: None }),
                    Err(e) => Err(PoisonError::new(MutexGuard {
                        lock,
                        std: Some(e.into_inner()),
                        model: None,
                    })),
                }
            }
        }
    }

    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if guard.model.is_some() {
            // Modeled as an untimed wait (see module docs on time): a state
            // only reachable via the timeout firing is a liveness bug and is
            // reported as a deadlock by the scheduler.
            match self.wait(guard) {
                Ok(g) => Ok((g, WaitTimeoutResult(false))),
                Err(e) => Err(PoisonError::new((e.into_inner(), WaitTimeoutResult(false)))),
            }
        } else {
            let lock = guard.lock;
            let std = guard.std.take().expect("guard accessed after release");
            drop(guard);
            match self.inner.wait_timeout(std, dur) {
                Ok((g, t)) => Ok((
                    MutexGuard { lock, std: Some(g), model: None },
                    WaitTimeoutResult(t.timed_out()),
                )),
                Err(e) => {
                    let (g, t) = e.into_inner();
                    Err(PoisonError::new((
                        MutexGuard { lock, std: Some(g), model: None },
                        WaitTimeoutResult(t.timed_out()),
                    )))
                }
            }
        }
    }

    pub fn notify_one(&self) {
        if let Some((exec, _)) = ctx() {
            exec.condvar_notify(self.addr(), false);
        } else {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if let Some((exec, _)) = ctx() {
            exec.condvar_notify(self.addr(), true);
        } else {
            self.inner.notify_all();
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Condvar")
    }
}

// --------------------------------------------------------------- RwLock --

pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    std: Option<sync::RwLockReadGuard<'a, T>>,
    // Held only for its Drop (scheduler release bookkeeping).
    _model: Option<ModelRelease>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    std: Option<sync::RwLockWriteGuard<'a, T>>,
    // Held only for its Drop (scheduler release bookkeeping).
    _model: Option<ModelRelease>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock { inner: sync::RwLock::new(value) }
    }

    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    fn addr(&self) -> usize {
        addr_of(self)
    }

    fn model_read(&self, exec: Arc<Execution>) -> RwLockReadGuard<'_, T> {
        let std = ignore_poison(self.inner.try_read())
            .expect("model invariant: real rwlock read contended after logical grant");
        RwLockReadGuard {
            std: Some(std),
            _model: Some(ModelRelease { exec, addr: self.addr(), kind: ReleaseKind::Read }),
        }
    }

    fn model_write(&self, exec: Arc<Execution>) -> RwLockWriteGuard<'_, T> {
        let std = ignore_poison(self.inner.try_write())
            .expect("model invariant: real rwlock write contended after logical grant");
        RwLockWriteGuard {
            std: Some(std),
            _model: Some(ModelRelease { exec, addr: self.addr(), kind: ReleaseKind::Write }),
        }
    }

    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        if let Some((exec, _)) = ctx() {
            exec.rw_read(self.addr());
            Ok(self.model_read(exec))
        } else {
            match self.inner.read() {
                Ok(g) => Ok(RwLockReadGuard { std: Some(g), _model: None }),
                Err(e) => Err(PoisonError::new(RwLockReadGuard {
                    std: Some(e.into_inner()),
                    _model: None,
                })),
            }
        }
    }

    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        if let Some((exec, _)) = ctx() {
            exec.rw_write(self.addr());
            Ok(self.model_write(exec))
        } else {
            match self.inner.write() {
                Ok(g) => Ok(RwLockWriteGuard { std: Some(g), _model: None }),
                Err(e) => Err(PoisonError::new(RwLockWriteGuard {
                    std: Some(e.into_inner()),
                    _model: None,
                })),
            }
        }
    }

    pub fn try_read(&self) -> Result<RwLockReadGuard<'_, T>, TryLockError<RwLockReadGuard<'_, T>>> {
        if let Some((exec, _)) = ctx() {
            if exec.rw_try_read(self.addr()) {
                Ok(self.model_read(exec))
            } else {
                Err(TryLockError::WouldBlock)
            }
        } else {
            match self.inner.try_read() {
                Ok(g) => Ok(RwLockReadGuard { std: Some(g), _model: None }),
                Err(TryLockError::Poisoned(e)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(RwLockReadGuard {
                        std: Some(e.into_inner()),
                        _model: None,
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            }
        }
    }

    pub fn try_write(
        &self,
    ) -> Result<RwLockWriteGuard<'_, T>, TryLockError<RwLockWriteGuard<'_, T>>> {
        if let Some((exec, _)) = ctx() {
            if exec.rw_try_write(self.addr()) {
                Ok(self.model_write(exec))
            } else {
                Err(TryLockError::WouldBlock)
            }
        } else {
            match self.inner.try_write() {
                Ok(g) => Ok(RwLockWriteGuard { std: Some(g), _model: None }),
                Err(TryLockError::Poisoned(e)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(RwLockWriteGuard {
                        std: Some(e.into_inner()),
                        _model: None,
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            }
        }
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_mut().expect("guard accessed after release")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

// -------------------------------------------------------------- atomics --

pub mod atomic {
    //! Instrumented atomics, modeled sequentially consistent: each access is
    //! a scheduling point followed by the real std operation. The `Ordering`
    //! argument is passed through to std (so non-model builds keep the
    //! production orderings) but does not narrow the schedules explored.

    pub use std::sync::atomic::Ordering;

    use crate::exec::ctx;

    fn hook() {
        if let Some((exec, _)) = ctx() {
            exec.schedule();
        }
    }

    macro_rules! model_int_atomic {
        ($name:ident, $std:ident, $prim:ty) => {
            #[derive(Default, Debug)]
            pub struct $name {
                inner: std::sync::atomic::$std,
            }

            impl $name {
                pub const fn new(v: $prim) -> Self {
                    $name { inner: std::sync::atomic::$std::new(v) }
                }

                pub fn load(&self, order: Ordering) -> $prim {
                    hook();
                    self.inner.load(order)
                }

                pub fn store(&self, val: $prim, order: Ordering) {
                    hook();
                    self.inner.store(val, order)
                }

                pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                    hook();
                    self.inner.swap(val, order)
                }

                pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                    hook();
                    self.inner.fetch_add(val, order)
                }

                pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                    hook();
                    self.inner.fetch_sub(val, order)
                }

                pub fn fetch_max(&self, val: $prim, order: Ordering) -> $prim {
                    hook();
                    self.inner.fetch_max(val, order)
                }

                pub fn fetch_min(&self, val: $prim, order: Ordering) -> $prim {
                    hook();
                    self.inner.fetch_min(val, order)
                }

                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    hook();
                    self.inner.compare_exchange(current, new, success, failure)
                }

                pub fn compare_exchange_weak(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    hook();
                    self.inner.compare_exchange_weak(current, new, success, failure)
                }

                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }

                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }
            }

            impl From<$prim> for $name {
                fn from(v: $prim) -> Self {
                    Self::new(v)
                }
            }
        };
    }

    model_int_atomic!(AtomicUsize, AtomicUsize, usize);
    model_int_atomic!(AtomicU64, AtomicU64, u64);

    #[derive(Default, Debug)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        pub const fn new(v: bool) -> Self {
            AtomicBool { inner: std::sync::atomic::AtomicBool::new(v) }
        }

        pub fn load(&self, order: Ordering) -> bool {
            hook();
            self.inner.load(order)
        }

        pub fn store(&self, val: bool, order: Ordering) {
            hook();
            self.inner.store(val, order)
        }

        pub fn swap(&self, val: bool, order: Ordering) -> bool {
            hook();
            self.inner.swap(val, order)
        }

        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            hook();
            self.inner.compare_exchange(current, new, success, failure)
        }

        pub fn get_mut(&mut self) -> &mut bool {
            self.inner.get_mut()
        }

        pub fn into_inner(self) -> bool {
            self.inner.into_inner()
        }
    }

    impl From<bool> for AtomicBool {
        fn from(v: bool) -> Self {
            Self::new(v)
        }
    }
}
