//! `nerve-fleet-bench` — throughput and deadline-slack trajectory of the
//! multi-session edge server. Stable-toolchain, no nightly `test` crate:
//! runs the fleet at N = 1 / 8 / 64 sessions, times each point, checks
//! the result digest is byte-identical between 1 worker and the full
//! pool, then sweeps the topology scale grid — {64, 1k, 10k} sessions ×
//! {1, 8} servers — recording sessions/sec and events/sec with a
//! 1-worker-vs-pool digest gate at every grid point, then runs the
//! failure-domain storm (1k sessions / 8 servers, one unplanned
//! fail-stop plus one flap) recording failover latency p50/p95 and the
//! recovered-vs-lost session split, and writes `BENCH_fleet.json`.
//!
//! Usage:
//!   nerve-fleet-bench [--jobs N] [--out PATH] [--sessions N] [--full]
//!                     [--no-grid] [--trace-out PATH]
//!
//! `--trace-out` additionally writes the observability JSONL log (spans,
//! events, cost profile, metrics snapshot) for every fleet point; the
//! file is stamped from virtual time only and is byte-identical at any
//! `--jobs` value.

use nerve_sim::experiments::fleet;
use nerve_sim::sweep;
use nerve_tensor::par::with_workers;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_fleet.json".to_string();
    let mut trace_out: Option<String> = None;
    let mut jobs_override: Option<usize> = None;
    let mut max_sessions = 64usize;
    let mut full = false;
    let mut grid = true;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-grid" => grid = false,
            "--jobs" => {
                jobs_override = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--jobs needs a positive integer")),
                )
            }
            "--out" => {
                out_path = it
                    .next()
                    .unwrap_or_else(|| die("--out needs a path"))
                    .clone()
            }
            "--trace-out" => {
                trace_out = Some(
                    it.next()
                        .unwrap_or_else(|| die("--trace-out needs a path"))
                        .clone(),
                )
            }
            "--sessions" => {
                max_sessions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| die("--sessions needs a positive integer"))
            }
            "--full" => full = true,
            _ => {
                if let Some(v) = a.strip_prefix("--jobs=") {
                    jobs_override = Some(
                        v.parse()
                            .unwrap_or_else(|_| die("--jobs needs a positive integer")),
                    );
                } else if let Some(v) = a.strip_prefix("--out=") {
                    out_path = v.to_string();
                } else if let Some(v) = a.strip_prefix("--trace-out=") {
                    trace_out = Some(v.to_string());
                } else if let Some(v) = a.strip_prefix("--sessions=") {
                    max_sessions = v
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| die("--sessions needs a positive integer"));
                } else {
                    die(&format!("unknown argument {a}"));
                }
            }
        }
    }
    if let Some(n) = jobs_override {
        sweep::set_workers(n);
    }
    let workers = sweep::workers();
    let chunks = if full { 8 } else { 4 };
    let seed = 2024;

    // Determinism gate first: the largest fleet must produce a
    // byte-identical digest pinned to 1 worker and on the full pool.
    eprintln!("[fleet-bench: {workers} worker(s); determinism gate at N={max_sessions}...]");
    let serial = with_workers(1, || fleet::run_point(max_sessions, chunks, seed));
    let parallel = with_workers(workers, || fleet::run_point(max_sessions, chunks, seed));
    assert_eq!(
        serial.digest(),
        parallel.digest(),
        "fleet digest diverged between 1 and {workers} workers"
    );

    let mut entries = String::new();
    for n in fleet::fleet_points(max_sessions) {
        let t0 = Instant::now();
        let r = fleet::run_point(n, chunks, seed);
        let wall = t0.elapsed().as_secs_f64();
        let rate = n as f64 / wall.max(1e-9);
        if !entries.is_empty() {
            entries.push(',');
        }
        let _ = write!(
            entries,
            "\n    {{\"sessions\": {n}, \"wall_secs\": {wall:.4}, \"sessions_per_sec\": {rate:.3}, \
             \"p95_slack_secs\": {:.6}, \"mean_qoe\": {:.6}, \"fairness\": {:.6}, \
             \"stall_ratio\": {:.6}, \"batches\": {}, \"downgraded\": {}, \"rejected\": {}}}",
            r.p95_slack_secs,
            r.mean_qoe,
            r.fairness,
            r.stall_ratio,
            r.batcher.batches,
            r.downgraded,
            r.rejected,
        );
        eprintln!(
            "[N={n}: {wall:.2}s wall, {rate:.1} sessions/s, p95 slack {:.3}s]",
            r.p95_slack_secs
        );
    }
    // The topology scale grid: sessions/sec and events/sec across
    // {64, 1k, 10k} sessions × {1, 8} servers, with a 1-worker-vs-pool
    // digest gate at every point (the sharded path must be byte-exact).
    let mut grid_entries = String::new();
    if grid {
        for &(n, servers) in &[
            (64usize, 1usize),
            (64, 8),
            (1_000, 1),
            (1_000, 8),
            (10_000, 1),
            (10_000, 8),
        ] {
            let run = || {
                let (cfg, trace) = fleet::scale_config(n, servers, seed);
                nerve_serve::run_fleet(&cfg, &trace)
            };
            let serial = with_workers(1, run);
            let t0 = Instant::now();
            let pooled = with_workers(workers, run);
            let wall = t0.elapsed().as_secs_f64();
            assert_eq!(
                serial.digest(),
                pooled.digest(),
                "grid point N={n} S={servers} diverged between 1 and {workers} workers"
            );
            let sps = n as f64 / wall.max(1e-9);
            let eps = pooled.events as f64 / wall.max(1e-9);
            if !grid_entries.is_empty() {
                grid_entries.push(',');
            }
            let _ = write!(
                grid_entries,
                "\n    {{\"sessions\": {n}, \"servers\": {servers}, \"wall_secs\": {wall:.4}, \
                 \"sessions_per_sec\": {sps:.3}, \"events\": {}, \"events_per_sec\": {eps:.3}, \
                 \"handoffs\": {}, \"digest_match\": true}}",
                pooled.events, pooled.handoffs,
            );
            eprintln!(
                "[grid N={n} S={servers}: {wall:.2}s wall, {sps:.1} sessions/s, {eps:.1} events/s]"
            );
        }
    }

    // The failure-domain row: the 1k-session / 8-server storm (one
    // server dies mid-wave, one flaps), digest-gated 1-worker-vs-pool,
    // recording failover latency percentiles and the recovered/lost
    // split.
    let failures = fleet::storm_failures(8);
    let run_failover = || {
        let (cfg, trace) = fleet::failover_config(1_000, 8, seed, &failures);
        nerve_serve::run_fleet(&cfg, &trace)
    };
    let fo_serial = with_workers(1, run_failover);
    let t0 = Instant::now();
    let fo_pooled = with_workers(workers, run_failover);
    let fo_wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        fo_serial.digest(),
        fo_pooled.digest(),
        "failover scenario diverged between 1 and {workers} workers"
    );
    let fo = fo_pooled
        .failover
        .as_ref()
        .expect("storm plan must produce failover stats");
    assert_eq!(
        fo_pooled.invariants.violations, 0,
        "failover scenario must hold the fleet invariants"
    );
    let failover_entry = format!(
        "\n    {{\"sessions\": 1000, \"servers\": 8, \"wall_secs\": {fo_wall:.4}, \
         \"server_failures\": {}, \"rejoins\": {}, \"evacuated\": {}, \"landed\": {}, \
         \"lost_transfers\": {}, \"retries\": {}, \"latency_p50_secs\": {:.6}, \
         \"latency_p95_secs\": {:.6}, \"warp\": {}, \"freeze\": {}, \"stall\": {}, \
         \"jobs_failed_in_flight\": {}, \"sessions_recovered\": {}, \"sessions_lost\": {}, \
         \"invariant_checks\": {}, \"invariant_violations\": {}, \"digest_match\": true}}",
        fo.server_failures,
        fo.rejoins,
        fo.evacuated,
        fo.landed,
        fo.lost_transfers,
        fo.retries,
        fo.latency_p50_secs,
        fo.latency_p95_secs,
        fo.warp,
        fo.freeze,
        fo.stall,
        fo.jobs_failed_in_flight,
        fo.sessions_recovered,
        fo.sessions_lost,
        fo_pooled.invariants.checks,
        fo_pooled.invariants.violations,
    );
    eprintln!(
        "[failover N=1000 S=8: {fo_wall:.2}s wall, {} evacuated, p50 {:.3}s, p95 {:.3}s, \
         {} recovered / {} lost]",
        fo.evacuated,
        fo.latency_p50_secs,
        fo.latency_p95_secs,
        fo.sessions_recovered,
        fo.sessions_lost
    );

    let json = format!(
        "{{\n  \"bin\": \"nerve-fleet-bench\",\n  \"workers\": {workers},\n  \"full\": {full},\n  \"chunks\": {chunks},\n  \"points\": [{entries}\n  ],\n  \"scale_grid\": [{grid_entries}\n  ],\n  \"failover\": [{failover_entry}\n  ]\n}}\n"
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("[failed to write {out_path}: {e}]");
        std::process::exit(1);
    }
    eprintln!("[wrote {out_path}]");

    if let Some(path) = trace_out {
        let log = fleet::fleet_trace(
            max_sessions,
            chunks,
            seed,
            1,
            nerve_serve::PlacementPolicy::RoundRobin,
        );
        if let Err(e) = std::fs::write(&path, log) {
            eprintln!("[failed to write {path}: {e}]");
            std::process::exit(1);
        }
        eprintln!("[wrote {path}]");
    }
}

/// Run `f` with the pool pinned to `n` workers, restoring the previous
/// count afterwards.
fn die(msg: &str) -> ! {
    eprintln!("nerve-fleet-bench: {msg}");
    std::process::exit(2);
}
