//! `ThreadPool::wait_idle` versus panicking jobs.
//!
//! Graceful shutdown drains `in_flight` to zero before tearing the
//! listener down. A job that panics must unwind only itself: the in-flight
//! count must come back down (the guard decrements on drop during unwind)
//! or every later drain waits out its full timeout, and its worker must
//! keep serving jobs — checked with a single worker, so a panic that killed
//! it would leave the healthy job with nobody to run it.

use std::sync::Arc;
use std::time::Duration;

use modelcheck::sync::atomic::{AtomicUsize, Ordering};
use modelcheck::{explore, thread, Config};
use redisgraph_server::ThreadPool;

fn cfg() -> Config {
    Config {
        max_schedules: 2000,
        pct_iterations: 400,
        preemption_bound: None,
        // The suite injects a panic inside a job; the worker must catch it,
        // so a model thread that dies of it is a failure.
        allow_thread_panics: false,
        ..Config::default()
    }
}

#[test]
fn wait_idle_drains_past_a_panicking_job() {
    let report = explore("pool_wait_idle/panicking_job", &cfg(), || {
        let pool = ThreadPool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        pool.execute(|| panic!("job blew up (injected by the model-check suite)"));
        {
            let ran = Arc::clone(&ran);
            pool.execute(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        // The wall-clock timeout is generous: under the scheduler a run
        // takes microseconds, so hitting it means in_flight wedged.
        assert!(
            pool.wait_idle(Duration::from_secs(30)),
            "panicked job leaked in_flight and wedged wait_idle"
        );
        assert_eq!(ran.load(Ordering::SeqCst), 1, "healthy job was lost after the panic");
        assert_eq!(pool.in_flight(), 0);
        drop(pool); // joins the worker, which survived the panic
    });
    // One worker beside the main thread: DFS exhausts this space in a few
    // hundred schedules.
    assert!(report.distinct >= 300, "only {} distinct schedules explored", report.distinct);
}

#[test]
fn concurrent_submitters_drain_cleanly() {
    let report = explore("pool_wait_idle/concurrent_submit", &cfg(), || {
        let pool = Arc::new(ThreadPool::new(2));
        let done = Arc::new(AtomicUsize::new(0));
        let submitters: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let done = Arc::clone(&done);
                thread::spawn(move || {
                    pool.execute(move || {
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        assert!(pool.wait_idle(Duration::from_secs(30)), "pool failed to drain");
        assert_eq!(done.load(Ordering::SeqCst), 2, "a submitted job never ran");
    });
    assert!(report.distinct >= 1500, "only {} distinct schedules explored", report.distinct);
}
