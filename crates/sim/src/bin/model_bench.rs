//! `nerve-model-bench` — the content-aware model plane under load.
//!
//! Three sections, written to `BENCH_model.json`:
//!
//! 1. a determinism gate: the model-plane fleet digest must be
//!    byte-identical between 1 worker and the full pool;
//! 2. a cache grid — {128 KiB, 256 KiB, 512 KiB, 1 MiB} weight cache ×
//!    {1, 4} servers — recording hit rate, evictions, bytes loaded and
//!    sessions/sec (every grid point re-gated 1-worker-vs-pool);
//! 3. the per-category specialist-vs-generic PSNR uplift, measured A/B
//!    with the cache-miss load costs zeroed so the control arm replays
//!    frame-for-frame identically.
//!
//! Usage:
//!   nerve-model-bench [--jobs N] [--out PATH] [--sessions N] [--no-grid]

use nerve_sim::experiments::fleet;
use nerve_sim::sweep;
use nerve_tensor::par::with_workers;
use nerve_video::rng::{seed_for, StreamComponent};
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_model.json".to_string();
    let mut jobs_override: Option<usize> = None;
    let mut sessions = 64usize;
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
            "--sessions" => {
                sessions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| die("--sessions needs a positive integer"))
            }
            _ => {
                if let Some(v) = a.strip_prefix("--jobs=") {
                    jobs_override = Some(
                        v.parse()
                            .unwrap_or_else(|_| die("--jobs needs a positive integer")),
                    );
                } else if let Some(v) = a.strip_prefix("--out=") {
                    out_path = v.to_string();
                } else if let Some(v) = a.strip_prefix("--sessions=") {
                    sessions = v
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
    let chunks = 4;
    let seed = 2024;
    let placement = nerve_serve::PlacementPolicy::RoundRobin;

    // Determinism gate: the model plane (fingerprint probes, cache
    // decisions, delta updates) must not leak worker-count effects.
    eprintln!("[model-bench: {workers} worker(s); determinism gate at N={sessions}...]");
    let run_gate = || {
        let (cfg, trace) = fleet::model_fleet_config(sessions, chunks, seed, 1, placement);
        nerve_serve::run_fleet(&cfg, &trace)
    };
    let serial = with_workers(1, run_gate);
    let pooled = with_workers(workers, run_gate);
    assert_eq!(
        serial.digest(),
        pooled.digest(),
        "model-plane fleet digest diverged between 1 and {workers} workers"
    );

    // The cache grid: hit rate and eviction pressure vs cache size and
    // server count. Every point re-checks the 1-vs-pool digest.
    let mut grid_entries = String::new();
    if grid {
        for &(cache_kib, servers) in &[
            (128u64, 1usize),
            (128, 4),
            (256, 1),
            (256, 4),
            (512, 1),
            (512, 4),
            (1024, 1),
            (1024, 4),
        ] {
            let run = || {
                let (mut cfg, trace) =
                    fleet::model_fleet_config(sessions, chunks, seed, servers, placement);
                cfg.model_plane
                    .as_mut()
                    .expect("model plane is on in this config")
                    .cache_bytes = cache_kib * 1024;
                nerve_serve::run_fleet(&cfg, &trace)
            };
            let serial = with_workers(1, run);
            let t0 = Instant::now();
            let pooled = with_workers(workers, run);
            let wall = t0.elapsed().as_secs_f64();
            assert_eq!(
                serial.digest(),
                pooled.digest(),
                "grid point cache={cache_kib}KiB S={servers} diverged"
            );
            let m = pooled
                .model
                .expect("model plane is on, stats must be present");
            let lookups = (m.cache.hits + m.cache.misses).max(1);
            let hit_rate = m.cache.hits as f64 / lookups as f64;
            let sps = sessions as f64 / wall.max(1e-9);
            if !grid_entries.is_empty() {
                grid_entries.push(',');
            }
            let _ = write!(
                grid_entries,
                "\n    {{\"cache_kib\": {cache_kib}, \"servers\": {servers}, \
                 \"wall_secs\": {wall:.4}, \"sessions_per_sec\": {sps:.3}, \
                 \"hit_rate\": {hit_rate:.4}, \"hits\": {}, \"misses\": {}, \
                 \"evictions\": {}, \"bytes_loaded\": {}, \"specialist\": {}, \
                 \"generic\": {}, \"delta_applied\": {}, \"digest_match\": true}}",
                m.cache.hits,
                m.cache.misses,
                m.cache.evictions,
                m.cache.bytes_loaded,
                m.specialist_sessions,
                m.generic_sessions,
                m.delta_applied,
            );
            eprintln!(
                "[cache={cache_kib}KiB S={servers}: hit rate {hit_rate:.2}, \
                 {} evictions, {sps:.1} sessions/s]",
                m.cache.evictions
            );
        }
    }

    // Per-category uplift: the headline table. A distinct seed keeps
    // the A/B fleet independent of the grid's fingerprint memo.
    let uplift_seed = seed_for(seed, 1, StreamComponent::Trace);
    let mut uplift_entries = String::new();
    for u in fleet::model_uplift_by_category(sessions, chunks, uplift_seed) {
        if !uplift_entries.is_empty() {
            uplift_entries.push(',');
        }
        let _ = write!(
            uplift_entries,
            "\n    {{\"category\": \"{:?}\", \"sessions\": {}, \"uplift_db\": {:.4}}}",
            u.category, u.sessions, u.mean_uplift_db,
        );
        eprintln!(
            "[uplift {:?}: {:+.3} dB over {} session(s)]",
            u.category, u.mean_uplift_db, u.sessions
        );
    }

    let json = format!(
        "{{\n  \"bin\": \"nerve-model-bench\",\n  \"workers\": {workers},\n  \"sessions\": {sessions},\n  \"chunks\": {chunks},\n  \"cache_grid\": [{grid_entries}\n  ],\n  \"category_uplift\": [{uplift_entries}\n  ]\n}}\n"
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("[failed to write {out_path}: {e}]");
        std::process::exit(1);
    }
    eprintln!("[wrote {out_path}]");
}

/// Run `f` with the pool pinned to `n` workers, restoring the previous
/// count afterwards.
fn die(msg: &str) -> ! {
    eprintln!("nerve-model-bench: {msg}");
    std::process::exit(2);
}
