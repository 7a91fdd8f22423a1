//! Deterministic parallel sweep runner.
//!
//! The experiment workload is embarrassingly parallel: every (trace,
//! seed, scheme) session run, every calibration unit, and every whole
//! figure/table runner is a pure function of its inputs. [`map`] fans
//! such units across `std::thread::scope` workers and reassembles the
//! results **in input order**, so any table or series built from them is
//! bit-identical to a serial run:
//!
//! * work distribution is an atomic cursor — which worker computes which
//!   unit is scheduling-dependent, but irrelevant;
//! * each result lands in an index-keyed slot of a mutex-guarded
//!   accumulator — no ordering is ever taken from thread completion;
//! * reductions (sums, means, table rows) happen after the join, on the
//!   index-ordered slots, in the exact order the serial loop would use.
//!
//! Worker count comes from [`nerve_tensor::par`]: `--jobs` /
//! [`set_workers`] override, then `NERVE_JOBS`, then
//! `available_parallelism`. Workers mark themselves with
//! [`nerve_tensor::par::PoolGuard`], which makes nested [`map`] calls
//! (and the conv2d batch split) run serially instead of
//! oversubscribing the machine — parallelism applies at the outermost
//! sweep that reaches it first.

use nerve_tensor::par;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolved worker count for default sweeps (see [`nerve_tensor::par`]).
pub fn workers() -> usize {
    par::workers()
}

/// Process-wide worker-count override (the binary's `--jobs` flag).
pub fn set_workers(n: usize) {
    par::set_workers(n)
}

/// Map `f` over `items` on the shared pool, preserving input order.
///
/// Runs serially when the pool has one worker, when there is at most one
/// item, or when already inside a sweep worker (nested parallelism is
/// suppressed, see module docs). `f` must be a pure function of
/// `(index, item)` — determinism of the output *values* is f's job;
/// determinism of the output *order* is this function's.
pub fn map<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let w = if par::in_pool() { 1 } else { workers() };
    map_workers(w, items, f)
}

/// Units run outside the slot lock, so no panic can poison it.
const UNPOISONED: &str = "sweep slot lock is only held for a store";

/// [`map`] with an explicit worker count (determinism tests compare
/// worker counts directly; the bench harness pins serial vs parallel).
pub fn map_workers<I, O, F>(workers: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }

    // A shared cursor hands out unit indices; index-keyed slots collect
    // results (uncontended — units are orders of magnitude heavier than
    // a lock). The cursor publishes no data, so `Relaxed` suffices: the
    // slots' mutex and the scope's join order the results. A panicking
    // unit propagates out of the scope.
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<O>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let _in_pool = par::PoolGuard::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i, &items[i]);
                    slots.lock().expect(UNPOISONED)[i] = Some(out);
                }
            });
        }
    });

    slots
        .into_inner()
        .expect(UNPOISONED)
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("sweep slot {i} unfilled")))
        .collect()
}

/// The cross product `a × b` in row-major order — the usual shape of a
/// sweep's unit list (schemes × networks, scenarios × kinds, …).
pub fn grid<A: Copy, B: Copy>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &x in a {
        for &y in b {
            out.push((x, y));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order_at_every_worker_count() {
        let items: Vec<usize> = (0..23).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for w in [1usize, 2, 3, 8, 64] {
            let got = map_workers(w, &items, |i, &x| {
                assert_eq!(i, x, "index must match the item's position");
                x * x
            });
            assert_eq!(got, expect, "workers={w}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_workers(4, &empty, |_, &x| x).is_empty());
        assert_eq!(map_workers(4, &[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn float_reduction_is_bit_identical_across_worker_counts() {
        // The determinism contract end to end: parallel per-unit results
        // reduced in index order give bit-identical floats.
        let items: Vec<u64> = (0..40).collect();
        let unit = |_: usize, &s: &u64| {
            let mut acc = 0.0f64;
            let mut x = s as f64 + 0.1;
            for _ in 0..50 {
                x = (x * 1.000_37).sin() + 1.01;
                acc += x;
            }
            acc
        };
        let reduce = |v: Vec<f64>| v.iter().fold(0.0f64, |a, b| a + b);
        let serial = reduce(map_workers(1, &items, unit));
        for w in [2usize, 4, 7] {
            let par = reduce(map_workers(w, &items, unit));
            assert_eq!(serial.to_bits(), par.to_bits(), "workers={w}");
        }
    }

    #[test]
    fn nested_map_runs_and_preserves_order() {
        let outer: Vec<usize> = (0..4).collect();
        let got = map_workers(2, &outer, |_, &o| {
            let inner: Vec<usize> = (0..3).collect();
            // Inside a pool worker `map` drops to serial — but must
            // still produce ordered, correct results.
            map(&inner, move |_, &i| o * 10 + i)
        });
        assert_eq!(got[2], vec![20, 21, 22]);
    }

    #[test]
    fn grid_is_row_major() {
        let g = grid(&[0u8, 1], &['a', 'b', 'c']);
        assert_eq!(
            g,
            vec![(0, 'a'), (0, 'b'), (0, 'c'), (1, 'a'), (1, 'b'), (1, 'c')]
        );
    }
}
