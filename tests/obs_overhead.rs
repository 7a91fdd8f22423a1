//! The observability plane's zero-overhead claim, enforced with a
//! counting global allocator: with the recorder disabled (the `None`
//! arm of `Option<&mut Obs>`, the [`nerve_obs::NoopRecorder`], or the
//! stopped tensor meter) the hot path performs **no heap allocation at
//! all**, and pre-bound metric handles never allocate per update.
//!
//! Only allocations made on the measuring thread, inside a measured
//! section, are counted. The sections start no threads, so that is every
//! allocation they make; the test harness's own threads, which may
//! allocate at any moment, are left out.

use nerve_obs::{FieldValue, Obs};
use nerve_tensor::meter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread while a section runs. `const` and
    /// without a destructor, so reading it never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Count one allocation if this thread is inside a measured section.
fn count() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations performed by `f` on this thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn disabled_observability_does_not_allocate() {
    // Setup (allowed to allocate): an Obs with a noop recorder, and
    // metric handles bound up front the way FleetMetrics/BatcherStats
    // bind theirs once per run.
    let mut obs = Obs::metrics_only();
    let counter = obs.registry.counter("hot.counter");
    let gauge = obs.registry.gauge("hot.gauge");
    let histogram = obs.registry.histogram("hot.histogram", &[1.0, 4.0, 16.0]);
    // Warm every path once so lazy init (thread-local registration,
    // first-use growth) lands outside the measured region.
    obs.open("warm", 0, 0);
    obs.event("warm", 0, 0, &[("v", FieldValue::U64(0))]);
    obs.close(1);
    counter.inc();
    gauge.set(0.0);
    histogram.observe(1.0);
    meter::add_work(1, 1);

    // The `None` arm — exactly what every runner's hot loop executes
    // when no plane is attached.
    let none_allocs = allocs_during(|| {
        let mut obs: Option<&mut Obs> = None;
        for i in 0..10_000u64 {
            if let Some(o) = obs.as_deref_mut() {
                o.open("span", i, i);
                o.close(i + 1);
            }
        }
    });
    assert_eq!(none_allocs, 0, "the None arm must not touch the heap");

    // The noop recorder: spans and events vanish without allocating.
    let noop_allocs = allocs_during(|| {
        for i in 0..10_000u64 {
            obs.open("span", i, i);
            obs.event(
                "ev",
                i,
                i,
                &[("v", FieldValue::U64(i)), ("f", FieldValue::F64(0.5))],
            );
            obs.close(i + 1);
        }
    });
    assert_eq!(
        noop_allocs, 0,
        "NoopRecorder spans/events must not allocate"
    );

    // Pre-bound metric handles: updates are pointer writes, not inserts.
    let metric_allocs = allocs_during(|| {
        for i in 0..10_000u64 {
            counter.inc();
            counter.add(i);
            gauge.set(i as f64);
            histogram.observe((i % 32) as f64);
        }
    });
    assert_eq!(
        metric_allocs, 0,
        "bound counter/gauge/histogram updates must not allocate"
    );

    // The stopped tensor meter: per-op work reports are dropped for free.
    assert!(!meter::is_enabled(), "meter must be stopped in this test");
    let meter_allocs = allocs_during(|| {
        for i in 0..10_000u64 {
            meter::add_work(i, i * 4);
        }
    });
    assert_eq!(
        meter_allocs, 0,
        "reporting work to a stopped meter must not allocate"
    );

    // Sanity check on the harness itself: the *enabled* trace recorder
    // does allocate (it is building a log), so the counter is live.
    let trace_allocs = allocs_during(|| {
        let mut traced = Obs::trace();
        traced.open("span", 0, 0);
        traced.close(1);
    });
    assert!(
        trace_allocs > 0,
        "allocation counter failed to observe the trace recorder's log"
    );
}
