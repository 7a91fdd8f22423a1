//! Shared worker-pool configuration for data-parallel kernels and the
//! experiment sweep.
//!
//! One process-wide worker count drives every parallel loop in the
//! workspace: the `nerve-sim::sweep` runner and the batch split in
//! [`crate::conv::conv2d`]. Resolution order:
//!
//! 1. an explicit [`set_workers`] call (the experiments binary's
//!    `--jobs` flag);
//! 2. the `NERVE_JOBS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! Nested parallelism is suppressed with a thread-local marker: a sweep
//! worker holds a [`PoolGuard`] so kernels it runs (conv2d inside a
//! calibration unit, say) stay serial instead of oversubscribing the
//! machine. Results never depend on the worker count — parallel loops
//! write disjoint, index-keyed slots and reduce in input order — so this
//! is purely a scheduling knob.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// 0 = not yet resolved; any other value is the active worker count.
static WORKERS: AtomicUsize = AtomicUsize::new(0);

fn resolve_default() -> usize {
    if let Ok(v) = std::env::var("NERVE_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide worker count (resolved lazily on first use).
pub fn workers() -> usize {
    let w = WORKERS.load(Ordering::Relaxed);
    if w != 0 {
        return w;
    }
    let n = resolve_default();
    // Racing first calls may both store; they store the same value.
    WORKERS.store(n, Ordering::Relaxed);
    n
}

/// Override the worker count for the whole process (`--jobs`). Clamped
/// to at least 1.
pub fn set_workers(n: usize) {
    WORKERS.store(n.max(1), Ordering::Relaxed);
}

/// Run `f` with the process-wide worker count set to `n`, then restore
/// the previous count (the benches time one workload at 1 and N).
pub fn with_workers<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let prev = workers();
    set_workers(n);
    let out = f();
    set_workers(prev);
    out
}

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// True while the current thread is executing inside a pool worker —
/// kernels use this to stay serial under an active sweep.
pub fn in_pool() -> bool {
    IN_POOL.with(|c| c.get())
}

/// RAII marker for pool-worker bodies; restores the previous state on
/// drop so re-entrant sweeps behave.
pub struct PoolGuard {
    prev: bool,
}

impl Default for PoolGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl PoolGuard {
    pub fn new() -> Self {
        let prev = IN_POOL.with(|c| c.replace(true));
        PoolGuard { prev }
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL.with(|c| c.set(prev));
    }
}

/// Serializes tests (across this crate) that mutate the global worker
/// count, so concurrent test threads don't observe each other's writes.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_is_at_least_one() {
        assert!(workers() >= 1);
    }

    #[test]
    fn set_workers_overrides_and_clamps() {
        let _guard = test_lock();
        set_workers(3);
        assert_eq!(workers(), 3);
        set_workers(0);
        assert_eq!(workers(), 1);
        // Leave a sane value for other tests in this binary.
        set_workers(resolve_default());
    }

    #[test]
    fn pool_guard_nests_and_restores() {
        assert!(!in_pool());
        {
            let _g = PoolGuard::new();
            assert!(in_pool());
            {
                let _g2 = PoolGuard::new();
                assert!(in_pool());
            }
            assert!(in_pool());
        }
        assert!(!in_pool());
    }
}
