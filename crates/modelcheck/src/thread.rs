//! Instrumented thread management. Inside a model execution, spawned
//! threads are real OS threads registered with the scheduler — they run
//! only when granted the turn, so all interleaving happens at instrumented
//! points. Outside an execution everything delegates to `std::thread`.

use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crate::exec::{self, ctx, Execution, ModelAbort};

pub struct JoinHandle<T> {
    real: std::thread::JoinHandle<T>,
    model: Option<(Arc<Execution>, usize)>,
}

impl<T> JoinHandle<T> {
    pub fn join(self) -> std::thread::Result<T> {
        if let Some((exec, id)) = &self.model {
            exec.join(*id);
        }
        self.real.join()
    }

    pub fn is_finished(&self) -> bool {
        match &self.model {
            Some((exec, id)) => exec.thread_is_finished(*id),
            None => self.real.is_finished(),
        }
    }

    pub fn thread(&self) -> &std::thread::Thread {
        self.real.thread()
    }
}

/// Mirror of `std::thread::Builder` (name + spawn).
pub struct Builder {
    inner: std::thread::Builder,
}

impl Default for Builder {
    fn default() -> Self {
        Builder::new()
    }
}

impl Builder {
    pub fn new() -> Self {
        Builder { inner: std::thread::Builder::new() }
    }

    pub fn name(self, name: String) -> Self {
        Builder { inner: self.inner.name(name) }
    }

    pub fn stack_size(self, size: usize) -> Self {
        Builder { inner: self.inner.stack_size(size) }
    }

    pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match ctx() {
            Some((exec, _)) => spawn_model(self.inner, exec, f),
            None => {
                let real = self.inner.spawn(f)?;
                Ok(JoinHandle { real, model: None })
            }
        }
    }
}

pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    Builder::new().spawn(f).expect("failed to spawn thread")
}

/// Ensures `live_os` is decremented however the wrapper exits.
struct OsExit(Arc<Execution>);

impl Drop for OsExit {
    fn drop(&mut self) {
        self.0.os_thread_exited();
    }
}

fn spawn_model<F, T>(
    builder: std::thread::Builder,
    exec: Arc<Execution>,
    f: F,
) -> io::Result<JoinHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let id = exec.register_thread();
    let exec2 = exec.clone();
    match builder.spawn(move || model_thread_main(exec2, id, f)) {
        Ok(real) => Ok(JoinHandle { real, model: Some((exec, id)) }),
        Err(e) => {
            // The OS thread never existed: retire the registration so the
            // scheduler doesn't wait for it.
            exec.finish_thread(id, None);
            exec.os_thread_exited();
            Err(e)
        }
    }
}

/// Body of every model OS thread: adopt the scheduler context, wait for the
/// first turn, run the payload, then hand bookkeeping back — propagating
/// user panics so the real `JoinHandle` reports them like std would.
fn model_thread_main<F, T>(exec: Arc<Execution>, id: usize, f: F) -> T
where
    F: FnOnce() -> T,
{
    let _exit = OsExit(exec.clone());
    if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| exec.enter_thread(id))) {
        // Aborted before ever being scheduled.
        exec.finish_thread(id, None);
        exec::clear_ctx();
        panic::resume_unwind(p);
    }
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    let user_panic = match &result {
        Err(p) if !p.is::<ModelAbort>() => Some(exec::panic_message(p.as_ref())),
        _ => None,
    };
    exec.finish_thread(id, user_panic);
    exec::clear_ctx();
    match result {
        Ok(v) => v,
        Err(p) => panic::resume_unwind(p),
    }
}

pub fn yield_now() {
    match ctx() {
        Some((exec, _)) => exec.schedule_yield(),
        None => std::thread::yield_now(),
    }
}

/// Under the model there is no virtual clock: sleeping is a plain yield.
pub fn sleep(dur: Duration) {
    match ctx() {
        Some((exec, _)) => exec.schedule_yield(),
        None => std::thread::sleep(dur),
    }
}
