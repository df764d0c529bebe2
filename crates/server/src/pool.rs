//! The RedisGraph module threadpool.
//!
//! The pool size is fixed at construction ("a configurable number of threads
//! at the module's loading time", §II). The main Redis thread pushes each
//! query as one job; one worker executes it to completion on a single core.

use crossbeam::atomic::{AtomicU64, AtomicUsize, Ordering};
use crossbeam::channel::{unbounded, Sender};
use crossbeam::thread::JoinHandle;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads consuming jobs from a shared queue.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
    /// Jobs submitted but not yet finished (queued + executing). Graceful
    /// shutdown drains this to zero before tearing the listener down.
    in_flight: Arc<AtomicUsize>,
    /// Jobs that panicked (`worker_panics` in `GRAPH.INFO`).
    panics: Arc<AtomicU64>,
}

impl ThreadPool {
    /// Create a pool with `size` workers (clamped to at least 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = unbounded::<Job>();
        let panics = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::with_capacity(size);
        for i in 0..size {
            let rx = receiver.clone();
            let panics = Arc::clone(&panics);
            let handle = crossbeam::thread::Builder::new()
                .name(format!("redisgraph-worker-{i}"))
                .spawn(move || {
                    // Workers exit when the channel disconnects (pool dropped).
                    // A panicking job unwinds only itself: its reply sender
                    // drops (the client sees `ERR query worker exited`) and
                    // the worker goes on to the next job, so panics can never
                    // drain the pool of workers.
                    while let Ok(job) = rx.recv() {
                        if panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                            panics.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
                .expect("failed to spawn worker thread");
            workers.push(handle);
        }
        ThreadPool {
            sender: Some(sender),
            workers,
            size,
            in_flight: Arc::new(AtomicUsize::new(0)),
            panics,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Jobs submitted but not yet completed (queued + executing).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Jobs that panicked since the pool started. Each one unwound only
    /// itself; its worker went on to the next job.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Block until every submitted job has finished, or `timeout` elapses.
    /// Returns `true` if the pool drained. New submissions during the wait
    /// extend it — callers drain after they stop feeding the pool.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.in_flight() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            crossbeam::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Submit a job; it will run on exactly one worker thread.
    pub fn execute<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        /// Decrements on drop, so a panicking job still comes off the
        /// in-flight count as it unwinds instead of wedging `wait_idle`
        /// forever.
        struct InFlightGuard(Arc<AtomicUsize>);
        impl Drop for InFlightGuard {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let guard = InFlightGuard(self.in_flight.clone());
        self.sender
            .as_ref()
            .expect("pool is shutting down")
            .send(Box::new(move || {
                let _guard = guard;
                job();
            }))
            .expect("worker threads have exited");
    }

    /// Submit a job and block until it completes, returning its result.
    /// This is how the single-threaded command loop serves a synchronous
    /// client call while still running the query on a pool thread.
    pub fn execute_blocking<F, R>(&self, job: F) -> R
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.execute(move || {
            let result = job();
            let _ = tx.send(result);
        });
        rx.recv().expect("worker dropped the result")
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Disconnect the channel so workers drain and exit, then join them.
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_all_submitted_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = crossbeam::channel::unbounded();
        for _ in 0..100 {
            let counter = counter.clone();
            let tx = tx.clone();
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(());
            });
        }
        for _ in 0..100 {
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn execute_blocking_returns_result() {
        let pool = ThreadPool::new(2);
        let result = pool.execute_blocking(|| 21 * 2);
        assert_eq!(result, 42);
    }

    #[test]
    fn size_is_clamped_to_one() {
        assert_eq!(ThreadPool::new(0).size(), 1);
        assert_eq!(ThreadPool::new(8).size(), 8);
    }

    #[test]
    fn jobs_run_on_worker_threads_not_the_caller() {
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        let worker = pool.execute_blocking(move || std::thread::current().id());
        assert_ne!(caller, worker);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let pool = ThreadPool::new(3);
        pool.execute(|| {});
        drop(pool); // must not hang or panic
    }

    #[test]
    fn panicking_job_does_not_kill_its_worker() {
        // One worker: if the panic took it down, the next submission would
        // have nobody to run it.
        let pool = ThreadPool::new(1);
        assert_eq!(pool.panics(), 0);
        pool.execute(|| panic!("job blew up (expected in this test)"));
        assert_eq!(pool.execute_blocking(|| 7), 7);
        // One worker runs jobs in order: the panic was counted before the
        // next job ran.
        assert_eq!(pool.panics(), 1);
        pool.execute_blocking(|| ());
        assert_eq!(pool.panics(), 1, "a job that returns is not a panic");
    }

    #[test]
    fn panicking_job_still_leaves_in_flight() {
        // The in-flight count must come back down as a panicking job unwinds,
        // or every later drain waits out its full timeout.
        let pool = ThreadPool::new(2);
        pool.execute(|| panic!("job blew up (expected in this test)"));
        assert!(pool.wait_idle(Duration::from_secs(5)), "panicked job leaked in_flight");
        assert_eq!(pool.execute_blocking(|| 7), 7);
    }

    #[test]
    fn wait_idle_drains_and_times_out() {
        let pool = ThreadPool::new(2);
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(1);
        pool.execute(move || {
            release_rx.recv().unwrap();
        });
        assert_eq!(pool.in_flight(), 1);
        // The job is parked on the channel: the wait must time out...
        assert!(!pool.wait_idle(Duration::from_millis(50)));
        // ...and drain promptly once it is released.
        release_tx.send(()).unwrap();
        assert!(pool.wait_idle(Duration::from_secs(5)));
        assert_eq!(pool.in_flight(), 0);
    }
}
