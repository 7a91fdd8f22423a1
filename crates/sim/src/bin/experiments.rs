//! `nerve-experiments` — regenerate the paper's tables and figures.
//!
//! Usage:
//!   nerve-experiments                # run everything at standard budget
//!   nerve-experiments --quick        # small budget (seconds)
//!   nerve-experiments fig12 tab01    # run selected experiments
//!   nerve-experiments --jobs 4      # sweep worker pool size
//!   nerve-experiments --bench-out[=PATH]  # write BENCH_experiments.json
//!   nerve-experiments fleet --sessions 64  # multi-session edge server
//!   nerve-experiments fleet --servers 8 --placement least-loaded
//!   nerve-experiments fleet --model-plane  # specialist heads + weight cache
//!   nerve-experiments fleet --trace-out trace.jsonl  # span/metric log
//!   nerve-experiments fleet --servers 8 --sessions 1000 --failures storm
//!   nerve-experiments fleet --failures 1@6,2@8..10  # explicit fail plan
//!
//! Each selected experiment is one unit of the outermost parallel sweep:
//! runners fan out across the worker pool (nested sweeps inside a runner
//! drop to serial), and outputs print in the fixed serial order, so the
//! report is byte-identical at any `--jobs` value.

use nerve_sim::calibrate::{calibrate, CalibrationBudget};
use nerve_sim::experiments::{ablations, dnn, fec, fleet, latency, qoe, traces, ExperimentBudget};
use nerve_sim::live;
use nerve_sim::sweep;
use std::fmt::Write as _;
use std::time::Instant;

type Job<'a> = (&'static str, Box<dyn Fn() -> String + Send + Sync + 'a>);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut bench_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut sessions = 16usize;
    let mut servers = 1usize;
    let mut placement = nerve_serve::PlacementPolicy::RoundRobin;
    let mut model_plane = false;
    let mut failures_spec: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if a == "--quick" {
            quick = true;
        } else if a == "--model-plane" {
            model_plane = true;
        } else if a == "--failures" {
            failures_spec = Some(
                it.next()
                    .filter(|v| !v.starts_with("--"))
                    .unwrap_or_else(|| {
                        die("--failures needs a plan (storm or server@at[..rejoin],...)")
                    })
                    .clone(),
            );
        } else if let Some(v) = a.strip_prefix("--failures=") {
            failures_spec = Some(v.to_string());
        } else if a == "--servers" {
            servers = it
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| die("--servers needs a positive integer"));
        } else if let Some(v) = a.strip_prefix("--servers=") {
            servers = v
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| die("--servers needs a positive integer"));
        } else if a == "--placement" {
            placement = it
                .next()
                .and_then(|v| nerve_serve::PlacementPolicy::parse(v))
                .unwrap_or_else(|| die("--placement needs round-robin|least-loaded|locality"));
        } else if let Some(v) = a.strip_prefix("--placement=") {
            placement = nerve_serve::PlacementPolicy::parse(v)
                .unwrap_or_else(|| die("--placement needs round-robin|least-loaded|locality"));
        } else if a == "--sessions" {
            sessions = it
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| die("--sessions needs a positive integer"));
        } else if let Some(v) = a.strip_prefix("--sessions=") {
            sessions = v
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| die("--sessions needs a positive integer"));
        } else if a == "--jobs" {
            let n = it
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| die("--jobs needs a positive integer"));
            sweep::set_workers(n);
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            let n = v
                .parse::<usize>()
                .unwrap_or_else(|_| die("--jobs needs a positive integer"));
            sweep::set_workers(n);
        } else if a == "--bench-out" {
            // Optional value: a following non-flag token is the path.
            match it.peek() {
                Some(v) if !v.starts_with("--") && !is_experiment_name(v) => {
                    bench_out = Some(it.next().unwrap().clone());
                }
                _ => bench_out = Some("BENCH_experiments.json".to_string()),
            }
        } else if let Some(v) = a.strip_prefix("--bench-out=") {
            bench_out = Some(v.to_string());
        } else if a == "--trace-out" {
            trace_out = Some(
                it.next()
                    .filter(|v| !v.starts_with("--"))
                    .unwrap_or_else(|| die("--trace-out needs a path"))
                    .clone(),
            );
        } else if let Some(v) = a.strip_prefix("--trace-out=") {
            trace_out = Some(v.to_string());
        } else if a.starts_with("--") {
            die(&format!("unknown flag {a}"));
        } else {
            selected.push(a.clone());
        }
    }
    let budget = if quick {
        ExperimentBudget::test()
    } else {
        ExperimentBudget::standard()
    };
    // The failure plan rides the fleet experiment (and the trace pass).
    let failures = failures_spec
        .as_deref()
        .map(|spec| fleet::parse_failure_plan(spec, servers).unwrap_or_else(|e| die(&e)));
    let want = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);

    let t_start = Instant::now();
    // Calibration feeds the QoE experiments (and Figure 4). It runs
    // before the sweep — every QoE runner reads its maps.
    let needs_cal = [
        "fig02", "fig04", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "tab03",
    ]
    .iter()
    .any(|n| want(n));
    let mut cal_secs = 0.0f64;
    let cal = if needs_cal {
        eprintln!("[calibrating quality maps from the pixel pipeline...]");
        let cal_budget = if quick {
            CalibrationBudget::test()
        } else {
            budget.calibration.clone()
        };
        let t0 = Instant::now();
        let cal = calibrate(&cal_budget);
        cal_secs = t0.elapsed().as_secs_f64();
        Some(cal)
    } else {
        None
    };
    // Shadow with a reference so `move` closures copy it, not the value.
    let budget = &budget;

    let mut jobs: Vec<Job> = Vec::new();
    if want("fig01") {
        jobs.push((
            "fig01",
            Box::new(move || {
                let fig = fec::fig01_fec_frame_loss(budget);
                let mut s = format!("{fig}\n");
                for (name, ratio) in fec::fig01_required_ratios(&fig) {
                    let _ = writeln!(
                        s,
                        "# {name}: needs ~{ratio:.2} redundancy for <2% frame loss"
                    );
                }
                s.push('\n');
                s
            }),
        ));
    }
    if let Some(cal) = &cal {
        if want("fig02") {
            jobs.push((
                "fig02",
                Box::new(move || format!("{}\n", fec::fig02_fec_qoe(budget, &cal.maps))),
            ));
        }
        if want("fig04") {
            jobs.push((
                "fig04",
                Box::new(move || {
                    let (a, b) = dnn::fig04_mappings(cal);
                    format!("{a}\n{b}\n")
                }),
            ));
        }
    }
    if want("tab01") {
        jobs.push((
            "tab01",
            Box::new(move || format!("{}\n", dnn::tab01_sr_comparison(budget))),
        ));
    }
    if want("fig07") {
        jobs.push((
            "fig07",
            Box::new(move || {
                let (p, s) = dnn::fig07_recovery_quality(budget);
                format!("{p}\n{s}\n")
            }),
        ));
    }
    if want("fig08") {
        jobs.push((
            "fig08",
            Box::new(move || {
                let (p, s) = dnn::fig08_partial_recovery(budget);
                format!("{p}\n{s}\n")
            }),
        ));
    }
    if want("fig10") {
        jobs.push((
            "fig10",
            Box::new(move || {
                let (p, s) = dnn::fig10_sr_quality(budget);
                format!("{p}\n{s}\n")
            }),
        ));
    }
    if want("tab02") {
        jobs.push((
            "tab02",
            Box::new(move || format!("{}\n", traces::tab02_traces(budget.seed))),
        ));
    }
    if let Some(cal) = &cal {
        type QoeTable =
            fn(&ExperimentBudget, &nerve_abr::qoe::QualityMaps) -> nerve_sim::report::Table;
        for (name, f) in [
            ("fig12", qoe::fig12_recovery_schemes as QoeTable),
            ("tab03", qoe::tab03_recovered_qoe as QoeTable),
        ] {
            if want(name) {
                jobs.push((
                    name,
                    Box::new(move || format!("{}\n", f(budget, &cal.maps))),
                ));
            }
        }
        if want("fig13") {
            jobs.push((
                "fig13",
                Box::new(move || {
                    format!(
                        "{}\n{}\n",
                        traces::fig13a_downscaled_throughput(budget, 120),
                        qoe::fig13b_recovered_fraction(budget, &cal.maps)
                    )
                }),
            ));
        }
        if want("fig14") {
            jobs.push((
                "fig14",
                Box::new(move || format!("{}\n", qoe::fig14_5g_timeseries(budget, &cal.maps))),
            ));
        }
        for (name, f) in [
            ("fig15", qoe::fig15_lossy_no_fec as QoeTable),
            ("fig16", qoe::fig16_lossy_with_fec as QoeTable),
            ("fig17", qoe::fig17_sr_schemes as QoeTable),
            ("fig18", qoe::fig18_full_system as QoeTable),
        ] {
            if want(name) {
                jobs.push((
                    name,
                    Box::new(move || format!("{}\n", f(budget, &cal.maps))),
                ));
            }
        }
    }
    if want("ablations") {
        jobs.push((
            "ablations",
            Box::new(move || {
                format!(
                    "{}\n{}\n{}\n",
                    ablations::ablation_code_size(budget),
                    ablations::ablation_warp_scale(budget),
                    ablations::ablation_threshold(budget)
                )
            }),
        ));
    }
    if want("fleet") {
        let failures_for_fleet = failures.clone();
        jobs.push((
            "fleet",
            Box::new(move || {
                // One fleet point per sweep unit happens inside the
                // runner; nested sweeps drop to serial automatically.
                let chunks = budget.chunks_per_trace.clamp(2, 8);
                let report = fleet::fleet_report(sessions, chunks, budget.seed, servers, placement);
                let mut out = format!("{report}\n");
                if model_plane {
                    let model =
                        fleet::model_report(sessions, chunks, budget.seed, servers, placement);
                    let _ = writeln!(out, "{model}");
                }
                if let Some(failures) = &failures_for_fleet {
                    let failover = fleet::failover_report(sessions, servers, budget.seed, failures);
                    let _ = writeln!(out, "{failover}");
                }
                out
            }),
        ));
    }
    // Live-mode frame cadence: quick keeps the matrix cheap; the full
    // budget covers the whole FIR-storm arc (blackout + absorption).
    let live_ticks: u64 = if quick { 150 } else { 250 };
    if want("live") {
        jobs.push((
            "live",
            Box::new(move || format!("{}\n", live::live_report(sessions, live_ticks, budget.seed))),
        ));
    }
    if want("tab04") {
        jobs.push((
            "tab04",
            Box::new(|| {
                format!(
                    "{}\n{}\n{}\n",
                    latency::tab04_latency(),
                    latency::tab04_cpu_energy(),
                    latency::tab04_warp()
                )
            }),
        ));
    }

    // The outermost sweep: whole experiment runners fan out across the
    // pool; results come back in the fixed report order.
    let workers = sweep::workers();
    let timed = sweep::map(&jobs, |_, (name, f)| {
        let t0 = Instant::now();
        let out = f();
        (*name, out, t0.elapsed().as_secs_f64())
    });
    for (_, out, _) in &timed {
        print!("{out}");
    }
    let total_secs = t_start.elapsed().as_secs_f64();
    eprintln!(
        "[sweep: {} experiment(s) on {workers} worker(s) in {total_secs:.2}s]",
        timed.len()
    );

    if let Some(path) = trace_out {
        // The observability pass re-runs the fleet points with the trace
        // recorder attached; the log is stamped from virtual time only,
        // so this file is byte-identical at any --jobs value. Selecting
        // the `live` experiment switches the payload to the live-mode
        // FIR-storm trace.
        let chunks = budget.chunks_per_trace.clamp(2, 8);
        let log = if selected.iter().any(|s| s == "live") {
            live::live_trace(sessions, live_ticks, budget.seed)
        } else if let Some(failures) = &failures {
            fleet::failover_trace(sessions, servers, budget.seed, failures)
        } else if model_plane {
            fleet::model_fleet_trace(sessions, chunks, budget.seed, servers, placement)
        } else {
            fleet::fleet_trace(sessions, chunks, budget.seed, servers, placement)
        };
        if let Err(e) = std::fs::write(&path, log) {
            eprintln!("[failed to write {path}: {e}]");
            std::process::exit(1);
        }
        eprintln!("[wrote {path}]");
    }

    if let Some(path) = bench_out {
        let mut entries = String::new();
        if needs_cal {
            let _ = write!(
                entries,
                "\n    {{\"name\": \"calibrate\", \"secs\": {cal_secs:.4}}}"
            );
        }
        for (name, _, secs) in &timed {
            if !entries.is_empty() {
                entries.push(',');
            }
            let _ = write!(
                entries,
                "\n    {{\"name\": \"{name}\", \"secs\": {secs:.4}}}"
            );
        }
        let json = format!(
            "{{\n  \"bin\": \"nerve-experiments\",\n  \"workers\": {workers},\n  \"quick\": {quick},\n  \"total_secs\": {total_secs:.4},\n  \"experiments\": [{entries}\n  ]\n}}\n"
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("[failed to write {path}: {e}]");
            std::process::exit(1);
        }
        eprintln!("[wrote {path}]");
    }
}

/// Known experiment names (used to disambiguate `--bench-out <path>`
/// from `--bench-out fig12`).
fn is_experiment_name(s: &str) -> bool {
    matches!(
        s,
        "fig01"
            | "fig02"
            | "fig04"
            | "fig07"
            | "fig08"
            | "fig10"
            | "fig12"
            | "fig13"
            | "fig14"
            | "fig15"
            | "fig16"
            | "fig17"
            | "fig18"
            | "tab01"
            | "tab02"
            | "tab03"
            | "tab04"
            | "ablations"
            | "fleet"
            | "live"
    )
}

fn die(msg: &str) -> ! {
    eprintln!("nerve-experiments: {msg}");
    std::process::exit(2);
}
