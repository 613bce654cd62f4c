//! Deterministic scoped-thread fan-out for the encoder's coarse independent
//! work: the speculative `Search` probes (each a whole `GetIntervals` run)
//! and the `GetBase` error-matrix rows. Neither call site runs inside the
//! other, so the fan-out never nests.
//!
//! Work is identified by index; each worker grabs indices from a shared
//! atomic counter, computes results locally, and the results are merged
//! *by index* after all workers join. The scheduling order therefore never
//! influences the output — every thread count (including 1) produces
//! byte-identical results, which the `determinism` integration tests pin
//! down.

// lint:allow(atomics): work-stealing chunk counter for scoped threads, not a metrics channel
use std::sync::atomic::{AtomicUsize, Ordering};

/// Evaluate `f(0), f(1), …, f(n-1)` and return the results in index order,
/// using up to `threads` workers: the calling thread is worker 0 and
/// `threads - 1` scoped threads join it.
///
/// With `threads <= 1` (or trivially small `n`) this is a plain serial map
/// with zero overhead — exactly the pre-threading behaviour. A panic in
/// any worker, the caller included, surfaces as one panic in the caller
/// after every spawned worker has joined.
///
/// `obs` reports per-thread utilization (items and busy time per worker)
/// when a live recorder is attached; the clock is never read otherwise,
/// and instrumentation never influences scheduling or results.
pub(crate) fn par_map<T, F>(n: usize, threads: usize, obs: &crate::obs::ParObs, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    obs.fanouts.inc();
    let workers = threads.min(n);
    // lint:allow(atomics): shared cursor for the scoped-thread fan-out, not observability state
    let next = AtomicUsize::new(0);
    let claim = || {
        // lint:allow(determinism): obs-gated latency probe — timing never feeds encoded output
        let t0 = obs.enabled().then(std::time::Instant::now);
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }
        if let Some(t0) = t0 {
            obs.worker_busy_ns.record(t0.elapsed().as_nanos() as u64);
            obs.worker_items.record(local.len() as u64);
        }
        local
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut panicked = false;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(claim));
        for local in std::iter::once(own).chain(handles.into_iter().map(|h| h.join())) {
            match local {
                Ok(local) => {
                    for (i, v) in local {
                        slots[i] = Some(v);
                    }
                }
                Err(_) => panicked = true,
            }
        }
    });
    if panicked {
        // lint:allow(panic-reachability): a worker already panicked — propagate, don't mask
        panic!("sbr worker thread panicked");
    }
    slots
        .into_iter()
        // lint:allow(panic-reachability): the atomic cursor hands each index to exactly one worker
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ParObs;

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let out = par_map(100, threads, &ParObs::default(), |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(
            par_map(0, 4, &ParObs::default(), |i| i),
            Vec::<usize>::new()
        );
        assert_eq!(par_map(1, 4, &ParObs::default(), |i| i + 10), vec![10]);
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(par_map(3, 64, &ParObs::default(), |i| i), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "sbr worker thread panicked")]
    fn worker_panic_propagates() {
        par_map(8, 2, &ParObs::default(), |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "sbr worker thread panicked")]
    fn caller_panic_propagates_after_join() {
        // Whichever worker claims first blocks until the other claims too,
        // so the caller is guaranteed one of the two items.
        let barrier = std::sync::Barrier::new(2);
        let caller = std::thread::current().id();
        par_map(2, 2, &ParObs::default(), |i| {
            barrier.wait();
            if std::thread::current().id() == caller {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn worker_utilization_is_recorded() {
        use crate::obs::{EncodeObs, MetricsRecorder, Recorder as _};
        use std::sync::Arc;
        let rec = Arc::new(MetricsRecorder::new());
        let obs = EncodeObs::new(rec.clone());
        let out = par_map(32, 4, &obs.par, |i| i);
        assert_eq!(out.len(), 32);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("sbr_core.par.fanouts"), Some(1));
        let items = snap.histogram("sbr_core.par.worker_items").unwrap();
        assert_eq!(items.count, 4, "one sample per worker");
        assert_eq!(items.sum, 32, "every item claimed exactly once");
    }
}
