//! The observability plane's core contract: the trace log is *data*
//! about a deterministic computation, so it must be byte-identical at
//! any worker count and across a kill-and-resume cycle — and attaching
//! it must never change a result digest.
//!
//! Everything in the log is stamped from virtual time; spans are keyed
//! by caller-chosen `(name, idx)` pairs rather than allocation order,
//! which is what makes the resumed half of a split run concatenate
//! seamlessly onto the pre-crash half.

use nerve::net::clock::SimTime;
use nerve::net::faults::FaultPlan;
use nerve::net::trace::{NetworkKind, NetworkTrace};
use nerve::sim::checkpoint::SessionCheckpoint;
use nerve::sim::experiments::fleet;
use nerve::sim::session::{Scheme, SessionConfig, SessionRunner};
use nerve::sim::sweep;
use nerve_obs::Obs;
use std::sync::Mutex;

/// Serial, minimal parallelism, and oversubscribed.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// The fleet test mutates the process-wide worker pool; serialize
/// against anything else that might.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn at_workers<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let prev = sweep::workers();
    sweep::set_workers(n);
    let out = f();
    sweep::set_workers(prev);
    out
}

#[test]
fn fleet_trace_is_byte_identical_across_worker_counts() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let logs: Vec<String> = WORKER_COUNTS
        .iter()
        .map(|&w| {
            at_workers(w, || {
                fleet::fleet_trace(4, 2, 2024, 1, nerve_serve::PlacementPolicy::RoundRobin)
            })
        })
        .collect();
    assert!(
        logs[0].contains("\"ev\":\"open\"") && logs[0].contains("\"metric\":"),
        "trace log must carry both span events and a metrics snapshot"
    );
    assert!(
        logs[0].contains("cost.batch.macs"),
        "trace log must carry the conv cost profile"
    );
    for (w, log) in WORKER_COUNTS.iter().zip(&logs).skip(1) {
        assert_eq!(
            &logs[0], log,
            "fleet trace diverged between 1 and {w} workers"
        );
    }
    // Repeat run at the same worker count: stable across process reuse.
    let again = at_workers(2, || {
        fleet::fleet_trace(4, 2, 2024, 1, nerve_serve::PlacementPolicy::RoundRobin)
    });
    assert_eq!(logs[0], again, "fleet trace diverged across repeat runs");
}

/// A session config with a mid-stream outage long enough to force a
/// teardown/reconnect cycle — the richest trace the session emits.
fn disconnect_cfg(seed: u64) -> SessionConfig {
    let faults =
        FaultPlan::default().disconnect(SimTime::from_secs_f64(18.0), SimTime::from_secs_f64(3.0));
    let trace = NetworkTrace::generate(NetworkKind::FiveG, seed).downscaled(1.5);
    let maps = nerve::abr::qoe::QualityMaps::placeholder(&[512, 1024, 1600, 2640, 4400]);
    let mut cfg = SessionConfig::new(trace, maps, Scheme::nerve());
    cfg.chunks = 20;
    cfg.seed = seed;
    cfg.with_faults(faults).with_reconnect()
}

#[test]
fn session_trace_is_byte_identical_across_kill_and_resume() {
    let cfg = disconnect_cfg(21);

    // Uninterrupted traced run: the reference log and digest.
    let mut whole = Obs::trace();
    let mut runner = SessionRunner::new(cfg.clone());
    while !runner.is_done() {
        runner.step(Some(&mut whole));
    }
    let reference = runner.finish();
    let reference_log = whole.trace_lines().expect("trace recorder keeps lines");

    // Attaching the recorder never changes the computation.
    let plain = SessionRunner::new(cfg.clone()).run(None);
    assert_eq!(
        plain.invariant_digest(),
        reference.invariant_digest(),
        "tracing must not perturb the session"
    );

    // Kill at chunk 7: the serialized checkpoint and the trace lines
    // emitted so far are all that survive the crash.
    let mut pre = Obs::trace();
    let mut runner = SessionRunner::new(cfg.clone());
    while runner.chunk_index() < 7 {
        runner.step(Some(&mut pre));
    }
    let bytes = runner.checkpoint().to_bytes();
    let pre_log = pre
        .trace_lines()
        .expect("trace recorder keeps lines")
        .to_string();
    drop(runner);
    drop(pre);

    // Resume in a "fresh process" with a fresh recorder.
    let cp = SessionCheckpoint::from_bytes(&bytes).expect("own checkpoint must parse");
    let mut post = Obs::trace();
    let mut resumed = SessionRunner::resume(cfg, &cp).expect("own checkpoint must resume");
    while !resumed.is_done() {
        resumed.step(Some(&mut post));
    }
    let r = resumed.finish();
    assert_eq!(
        r.invariant_digest(),
        reference.invariant_digest(),
        "resumed run must match the uninterrupted one"
    );

    let stitched = format!(
        "{pre_log}{}",
        post.trace_lines().expect("trace recorder keeps lines")
    );
    assert_eq!(
        stitched, reference_log,
        "pre-crash + resumed trace must concatenate to the uninterrupted log byte-for-byte"
    );
}

/// The content-aware model plane adds fingerprint probes, cache
/// decisions, and delta updates to the fleet — none of which may leak
/// worker-count or memoization effects into the trace log.
#[test]
fn model_fleet_trace_is_byte_identical_across_worker_counts() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = || fleet::model_fleet_trace(4, 2, 2024, 1, nerve_serve::PlacementPolicy::RoundRobin);
    let logs: Vec<String> = WORKER_COUNTS.iter().map(|&w| at_workers(w, run)).collect();
    assert!(
        logs[0].contains("\"name\":\"model.assign\""),
        "model-plane trace must carry head-assignment events"
    );
    assert!(
        logs[0].contains("model.cache."),
        "model-plane trace must carry the weight-cache metric family"
    );
    for (w, log) in WORKER_COUNTS.iter().zip(&logs).skip(1) {
        assert_eq!(
            &logs[0], log,
            "model-plane fleet trace diverged between 1 and {w} workers"
        );
    }
    let again = at_workers(2, run);
    assert_eq!(
        logs[0], again,
        "model-plane fleet trace diverged across repeat runs"
    );
}

/// Kill-and-resume with an in-flight delta weight update: the stitched
/// trace and the result digest (which now covers the delta cursor and
/// the final weight CRC) must match the uninterrupted run exactly.
#[test]
fn delta_session_trace_is_byte_identical_across_kill_and_resume() {
    let cfg = disconnect_cfg(27).with_delta();

    let mut whole = Obs::trace();
    let mut runner = SessionRunner::new(cfg.clone());
    while !runner.is_done() {
        runner.step(Some(&mut whole));
    }
    let reference = runner.finish();
    let reference_log = whole.trace_lines().expect("trace recorder keeps lines");
    let d = reference.delta.expect("delta plan was configured");
    assert!(d.applied > 0, "updates must land in the reference run");

    // Kill at chunk 5 — between delta applications, mid-frame-transfer.
    let mut pre = Obs::trace();
    let mut runner = SessionRunner::new(cfg.clone());
    while runner.chunk_index() < 5 {
        runner.step(Some(&mut pre));
    }
    let bytes = runner.checkpoint().to_bytes();
    let pre_log = pre
        .trace_lines()
        .expect("trace recorder keeps lines")
        .to_string();
    drop(runner);
    drop(pre);

    let cp = SessionCheckpoint::from_bytes(&bytes).expect("own checkpoint must parse");
    assert!(
        cp.delta_bytes_sent > 0,
        "the cut must land inside an in-flight frame transfer"
    );
    let mut post = Obs::trace();
    let mut resumed = SessionRunner::resume(cfg, &cp).expect("own checkpoint must resume");
    while !resumed.is_done() {
        resumed.step(Some(&mut post));
    }
    let r = resumed.finish();
    assert_eq!(
        r.invariant_digest(),
        reference.invariant_digest(),
        "resumed delta session must match the uninterrupted one"
    );
    assert_eq!(r.delta, reference.delta);
    let stitched = format!(
        "{pre_log}{}",
        post.trace_lines().expect("trace recorder keeps lines")
    );
    assert_eq!(
        stitched, reference_log,
        "pre-crash + resumed delta trace must concatenate byte-for-byte"
    );
}

#[test]
fn live_trace_is_byte_identical_across_worker_counts() {
    use nerve::sim::live;

    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let logs: Vec<String> = WORKER_COUNTS
        .iter()
        .map(|&w| at_workers(w, || live::live_trace(8, 200, 2024)))
        .collect();
    assert!(
        logs[0].contains("\"metric\":\"fir.requested\""),
        "live trace must carry the feedback-plane metrics snapshot"
    );
    for (w, log) in WORKER_COUNTS.iter().zip(&logs).skip(1) {
        assert_eq!(
            &logs[0], log,
            "live trace diverged between 1 and {w} workers"
        );
    }
    let again = at_workers(2, || live::live_trace(8, 200, 2024));
    assert_eq!(logs[0], again, "live trace diverged across repeat runs");
}

/// The live fleet's span/event stream survives a mid-storm crash: the
/// lines emitted before the kill plus the lines from the resumed run
/// concatenate to the uninterrupted log byte-for-byte.
#[test]
fn live_trace_is_byte_identical_across_kill_and_resume() {
    use nerve::core::LivePolicy;
    use nerve::sim::live::{fir_storm_config, LiveCheckpoint, LiveFleetRunner};

    let cfg = fir_storm_config(LivePolicy::Budget, 12, 250, 2024);

    let mut whole = Obs::trace();
    let mut runner = LiveFleetRunner::new(cfg.clone());
    while !runner.is_done() {
        runner.step(Some(&mut whole));
    }
    let reference = runner.finish();
    let reference_log = whole.trace_lines().expect("trace recorder keeps lines");
    assert!(
        reference_log.contains("fir_wave"),
        "the storm must show up in the reference trace"
    );

    // Kill at tick 130 — just after the blackout lifts, mid-absorption.
    let mut pre = Obs::trace();
    let mut runner = LiveFleetRunner::new(cfg.clone());
    for _ in 0..130 {
        runner.step(Some(&mut pre));
    }
    let bytes = runner.checkpoint().to_bytes();
    let pre_log = pre
        .trace_lines()
        .expect("trace recorder keeps lines")
        .to_string();
    drop(runner);
    drop(pre);

    let cp = LiveCheckpoint::from_bytes(&bytes).expect("own checkpoint must parse");
    let mut post = Obs::trace();
    let mut resumed = LiveFleetRunner::resume(cfg, &cp).expect("own checkpoint must resume");
    while !resumed.is_done() {
        resumed.step(Some(&mut post));
    }
    assert_eq!(
        resumed.finish().digest(),
        reference.digest(),
        "resumed live fleet must match the uninterrupted one"
    );
    let stitched = format!(
        "{pre_log}{}",
        post.trace_lines().expect("trace recorder keeps lines")
    );
    assert_eq!(
        stitched, reference_log,
        "pre-crash + resumed live trace must concatenate byte-for-byte"
    );
}
