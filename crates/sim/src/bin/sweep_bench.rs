//! `nerve-sweep-bench` — the perf-trajectory harness for the parallel
//! sweep. Independent of `cargo bench` (stable toolchain, no nightly
//! `test` crate): it times the same QoE workload serially (1 worker) and
//! on the full pool, checks the outputs are byte-identical, and writes
//! `BENCH_sweep.json`.
//!
//! Usage:
//!   nerve-sweep-bench [--jobs N] [--out PATH] [--full]
//!
//! `--quick`-sized budgets by default so CI finishes in minutes; `--full`
//! uses the standard experiment budget.

use nerve_sim::calibrate::{calibrate, CalibrationBudget};
use nerve_sim::experiments::{qoe, ExperimentBudget};
use nerve_sim::scenarios::run_chaos_matrix;
use nerve_sim::session::Scheme;
use nerve_sim::sweep;
use nerve_tensor::par::with_workers;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_sweep.json".to_string();
    let mut jobs_override: Option<usize> = None;
    let mut full = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
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
            "--full" => full = true,
            _ => {
                if let Some(v) = a.strip_prefix("--jobs=") {
                    jobs_override = Some(
                        v.parse()
                            .unwrap_or_else(|_| die("--jobs needs a positive integer")),
                    );
                } else if let Some(v) = a.strip_prefix("--out=") {
                    out_path = v.to_string();
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
    let budget = if full {
        ExperimentBudget::standard()
    } else {
        ExperimentBudget::test()
    };
    let cal_budget = if full {
        budget.calibration.clone()
    } else {
        CalibrationBudget::test()
    };

    eprintln!("[sweep-bench: {workers} worker(s); calibrating...]");
    let maps = calibrate(&cal_budget).maps;

    // Each workload is timed twice: pinned to 1 worker, then on the full
    // pool. The rendered outputs must match byte for byte — the bench
    // doubles as an end-to-end determinism check on real hardware.
    let mut rows: Vec<(&str, f64, f64)> = Vec::new();

    let (serial, s_secs) =
        timed(|| with_workers(1, || qoe::fig12_recovery_schemes(&budget, &maps)));
    let (parallel, p_secs) =
        timed(|| with_workers(workers, || qoe::fig12_recovery_schemes(&budget, &maps)));
    assert_eq!(
        serial.to_string(),
        parallel.to_string(),
        "fig12 diverged between 1 and {workers} workers"
    );
    rows.push(("fig12_recovery_schemes", s_secs, p_secs));

    let (serial, s_secs) = timed(|| with_workers(1, || qoe::fig17_sr_schemes(&budget, &maps)));
    let (parallel, p_secs) =
        timed(|| with_workers(workers, || qoe::fig17_sr_schemes(&budget, &maps)));
    assert_eq!(
        serial.to_string(),
        parallel.to_string(),
        "fig17 diverged between 1 and {workers} workers"
    );
    rows.push(("fig17_sr_schemes", s_secs, p_secs));

    let chunks = budget.chunks_per_trace;
    let (serial, s_secs) =
        timed(|| with_workers(1, || run_chaos_matrix(&Scheme::nerve(), 1, chunks)));
    let (parallel, p_secs) =
        timed(|| with_workers(workers, || run_chaos_matrix(&Scheme::nerve(), 1, chunks)));
    assert_eq!(serial.len(), parallel.len());
    for ((sc, kind, a), (_, _, b)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(
            a.qoe.to_bits(),
            b.qoe.to_bits(),
            "chaos {} on {} diverged between 1 and {workers} workers",
            sc.label(),
            kind.label()
        );
    }
    rows.push(("chaos_matrix", s_secs, p_secs));

    let mut entries = String::new();
    let mut tot_serial = 0.0;
    let mut tot_parallel = 0.0;
    for (name, s, p) in &rows {
        if !entries.is_empty() {
            entries.push(',');
        }
        let _ = write!(
            entries,
            "\n    {{\"name\": \"{name}\", \"serial_secs\": {s:.4}, \"parallel_secs\": {p:.4}, \"speedup\": {:.3}}}",
            s / p.max(1e-9)
        );
        tot_serial += s;
        tot_parallel += p;
        eprintln!(
            "[{name}: serial {s:.2}s, parallel {p:.2}s, speedup {:.2}x]",
            s / p.max(1e-9)
        );
    }
    let speedup = tot_serial / tot_parallel.max(1e-9);
    let json = format!(
        "{{\n  \"bin\": \"nerve-sweep-bench\",\n  \"workers\": {workers},\n  \"full\": {full},\n  \"serial_secs\": {tot_serial:.4},\n  \"parallel_secs\": {tot_parallel:.4},\n  \"speedup\": {speedup:.3},\n  \"workloads\": [{entries}\n  ]\n}}\n"
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("[failed to write {out_path}: {e}]");
        std::process::exit(1);
    }
    eprintln!("[wrote {out_path}: total speedup {speedup:.2}x at {workers} worker(s)]");
}

/// Run `f` with the pool pinned to `n` workers, restoring the previous
/// count afterwards.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn die(msg: &str) -> ! {
    eprintln!("nerve-sweep-bench: {msg}");
    std::process::exit(2);
}
