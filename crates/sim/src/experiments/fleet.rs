//! Fleet serving report: the edge server under multi-session load.
//!
//! Runs [`nerve_serve::run_fleet`] at a ladder of session counts and
//! renders the aggregate picture — QoE, Jain fairness, stall ratio,
//! admission decisions, batcher occupancy, p95 frame-deadline slack.
//! Each session count is one unit of the parallel sweep, so `--jobs`
//! fans fleet points across the pool while every individual fleet stays
//! serial and byte-deterministic.

use crate::report::{fmt_f, Table};
use crate::sweep;
use nerve_net::clock::SimTime;
use nerve_net::faults::FaultPlan;
use nerve_net::trace::{NetworkKind, NetworkTrace};
use nerve_obs::Obs;
use nerve_serve::batcher::occupancy_label;
use nerve_serve::{
    run_fleet, run_fleet_obs, FleetConfig, FleetResult, ModelPlaneConfig, PlacementPolicy,
    ServerFailure, OCCUPANCY_BUCKETS,
};
use nerve_tensor::meter;
use nerve_video::rng::{seed_for, StreamComponent};
use nerve_video::synth::Category;

/// The session counts one fleet report covers: 1 and 8 as fixed
/// reference points, plus the requested count.
pub fn fleet_points(sessions: usize) -> Vec<usize> {
    let mut pts = vec![1, 8, sessions.max(1)];
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// The fleet configuration for `n` sessions. The uplink and the
/// admission budgets scale with the fleet so a 64-session run contends
/// the same way per session as an 8-session run — except at the
/// admission margin, which is sized to shed the top-rung tail. The
/// arrival window is capped at 4 s: with a per-session budget below the
/// top rung, a bounded window keeps the shed fraction n-invariant
/// (otherwise bucket refill during a long staggered arrival ramp would
/// quietly admit any fleet at full quality).
pub fn fleet_config(n: usize, chunks: usize, seed: u64) -> (FleetConfig, NetworkTrace) {
    let mut cfg = FleetConfig::small(n, seed);
    cfg.chunks_per_session = chunks.max(2);
    cfg.stagger_secs = (4.0 / n as f64).min(0.25);
    cfg.admission.bandwidth_kbps = 2400.0 * n as f64;
    cfg.admission.macs_per_sec = 1.0e9 * n as f64;
    let trace = NetworkTrace::generate(
        NetworkKind::WiFi,
        seed_for(seed, n as u64, StreamComponent::Trace),
    )
    .downscaled(1.5 * n as f64);
    (cfg, trace)
}

/// [`fleet_config`] spread over `servers` edge servers. Admission is a
/// per-server front door, so the budgets divide by the server count —
/// per-session contention at the margin stays server-count invariant.
pub fn fleet_config_multi(
    n: usize,
    chunks: usize,
    seed: u64,
    servers: usize,
    placement: PlacementPolicy,
) -> (FleetConfig, NetworkTrace) {
    let (mut cfg, trace) = fleet_config(n, chunks, seed);
    let servers = servers.max(1);
    cfg.servers = servers;
    cfg.placement = placement;
    cfg.admission.bandwidth_kbps /= servers as f64;
    cfg.admission.macs_per_sec /= servers as f64;
    (cfg, trace)
}

/// The scale-grid configuration for five-digit fleets: same topology
/// semantics as [`fleet_config_multi`], with the per-session work
/// turned down (fewer frames, one anchor per chunk, sparser damage) so
/// a 10k-session fleet stays debug-test fast. The event loop, fair
/// share, admission, handoff, and digest paths are all exercised at
/// full fidelity — only the pixel volume shrinks.
pub fn scale_config(n: usize, servers: usize, seed: u64) -> (FleetConfig, NetworkTrace) {
    let (mut cfg, trace) = fleet_config_multi(n, 2, seed, servers, PlacementPolicy::RoundRobin);
    cfg.frames_per_chunk = 8;
    cfg.anchor_stride = 8;
    cfg.avg_loss = 0.01;
    cfg.overlay_every = 16;
    (cfg, trace)
}

/// The canonical failure-domain storm: one server fail-stops for good
/// mid-wave (while sessions are still arriving and downloading) and a
/// second one flaps — dies and rejoins through health probation. Both
/// picks wrap at the server count so the preset stays valid for any
/// topology with at least two servers.
pub fn storm_failures(servers: usize) -> Vec<ServerFailure> {
    // The arrival ramp spans [0, 4] s at any session count
    // (`stagger_secs` scales as 4/n), so both deaths land while
    // sessions are still arriving and downloading.
    let s = servers.max(2);
    vec![
        ServerFailure {
            server: 1 % s,
            at_secs: 2.5,
            rejoin_secs: None,
        },
        ServerFailure {
            server: 2 % s,
            at_secs: 3.5,
            rejoin_secs: Some(5.0),
        },
    ]
}

/// Parse a `--failures` plan. Accepts the literal `storm` (the preset
/// above) or a list of `server@at` / `server@at..rejoin` entries
/// separated by `,` or `;` — e.g. `1@6,2@8..10`.
pub fn parse_failure_plan(spec: &str, servers: usize) -> Result<Vec<ServerFailure>, String> {
    if spec == "storm" {
        return Ok(storm_failures(servers));
    }
    let mut plan = Vec::new();
    for part in spec.split([',', ';']).filter(|p| !p.trim().is_empty()) {
        let part = part.trim();
        let (srv, times) = part
            .split_once('@')
            .ok_or_else(|| format!("bad failure entry '{part}' (want server@at[..rejoin])"))?;
        let server: usize = srv
            .trim()
            .parse()
            .map_err(|_| format!("bad server id in '{part}'"))?;
        let (at, rejoin) = match times.split_once("..") {
            Some((a, r)) => (a, Some(r)),
            None => (times, None),
        };
        let at_secs: f64 = at
            .trim()
            .parse()
            .map_err(|_| format!("bad failure time in '{part}'"))?;
        let rejoin_secs = match rejoin {
            Some(r) => Some(
                r.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad rejoin time in '{part}'"))?,
            ),
            None => None,
        };
        plan.push(ServerFailure {
            server,
            at_secs,
            rejoin_secs,
        });
    }
    if plan.is_empty() {
        return Err("empty failure plan".to_string());
    }
    Ok(plan)
}

/// [`scale_config`] with a failure plan installed — the failure-domain
/// scenario (`fleet --failures`): unplanned fail-stops, health-checked
/// evacuation over the faulty control link, degraded-capacity serving.
pub fn failover_config(
    n: usize,
    servers: usize,
    seed: u64,
    failures: &[ServerFailure],
) -> (FleetConfig, NetworkTrace) {
    let (mut cfg, trace) = scale_config(n, servers, seed);
    cfg.failures = failures.to_vec();
    // A lossy inter-server control link for the whole horizon: ~35% of
    // ticket sends are dropped, so evacuations exercise the retry +
    // exponential-backoff path and the failover latency has a real
    // distribution (and the occasional deadline burn) instead of a
    // constant one-hop transfer.
    cfg.failover.ctl_faults = FaultPlan::new(seed_for(seed, 0x4E52, StreamComponent::Trace))
        .downlink_loss(
            SimTime::ZERO,
            SimTime::from_secs_f64(cfg.max_virtual_secs),
            0.35,
        );
    (cfg, trace)
}

/// The failure-domain report: fleet outcome under the failure plan,
/// evacuation/degradation-ladder accounting, failover latency
/// percentiles, health-machine transitions, and the per-server failure
/// counters.
pub fn failover_report(n: usize, servers: usize, seed: u64, failures: &[ServerFailure]) -> String {
    let (cfg, trace) = failover_config(n, servers, seed, failures);
    let r = run_fleet(&cfg, &trace);
    let fo = r
        .failover
        .as_ref()
        .expect("a non-empty failure plan must produce failover stats");

    let mut summary = Table::new(
        "Failure domains: unplanned fail-stop, health-checked failover",
        &[
            "sessions",
            "servers",
            "fails",
            "rejoins",
            "evacuated",
            "landed",
            "lost xfer",
            "retries",
            "p50 lat (s)",
            "p95 lat (s)",
        ],
    );
    summary.row(vec![
        n.to_string(),
        servers.to_string(),
        fo.server_failures.to_string(),
        fo.rejoins.to_string(),
        fo.evacuated.to_string(),
        fo.landed.to_string(),
        fo.lost_transfers.to_string(),
        fo.retries.to_string(),
        fmt_f(fo.latency_p50_secs),
        fmt_f(fo.latency_p95_secs),
    ]);

    let mut ladder = Table::new(
        "Degradation ladder on evacuation + session conservation",
        &[
            "warp",
            "freeze",
            "stall",
            "jobs failed in-flight",
            "recovered",
            "lost",
            "invariant checks",
            "violations",
        ],
    );
    ladder.row(vec![
        fo.warp.to_string(),
        fo.freeze.to_string(),
        fo.stall.to_string(),
        fo.jobs_failed_in_flight.to_string(),
        fo.sessions_recovered.to_string(),
        fo.sessions_lost.to_string(),
        r.invariants.checks.to_string(),
        r.invariants.violations.to_string(),
    ]);

    let mut health = Table::new(
        "Health prober (breaker-style): transition totals",
        &["suspected", "died", "probations", "recovered"],
    );
    health.row(vec![
        fo.health.suspected.to_string(),
        fo.health.died.to_string(),
        fo.health.probations.to_string(),
        fo.health.recovered.to_string(),
    ]);

    let mut per_server = Table::new(
        "Per-server failure counters",
        &[
            "server",
            "fails",
            "rejoins",
            "evac out",
            "evac in",
            "warp",
            "freeze",
            "stall",
            "jobs failed",
        ],
    );
    for sv in &r.servers {
        let f = sv.failc;
        if f.failures + f.rejoins + f.evac_out + f.evac_in + f.jobs_failed == 0 {
            continue;
        }
        per_server.row(vec![
            sv.id.to_string(),
            f.failures.to_string(),
            f.rejoins.to_string(),
            f.evac_out.to_string(),
            f.evac_in.to_string(),
            f.evac_warp.to_string(),
            f.evac_freeze.to_string(),
            f.evac_stall.to_string(),
            f.jobs_failed.to_string(),
        ]);
    }

    format!("{summary}\n{ladder}\n{health}\n{per_server}")
}

/// The failure-domain trace: one observed run of the failover scenario,
/// rendered as the usual JSONL stream (now including the `failover.*`
/// gauges/counters and `failover.server_fail` / `failover.rejoin`
/// events). Stamped from virtual time only — byte-identical at any
/// `--jobs` value.
pub fn failover_trace(n: usize, servers: usize, seed: u64, failures: &[ServerFailure]) -> String {
    let (cfg, trace) = failover_config(n, servers, seed, failures);
    traced_point(
        &format!("\"fleet_point\":{n},\"failures\":{}", failures.len()),
        &cfg,
        &trace,
    )
}

/// One fleet run with the observability plane attached, rendered as
/// JSONL: a header line (`header`'s fields plus the digest length), the
/// span/event log, the per-stage MACs/bytes cost profile, and the
/// metrics snapshot.
fn traced_point(header: &str, cfg: &FleetConfig, trace: &NetworkTrace) -> String {
    let mut obs = Obs::trace();
    meter::start();
    let result = run_fleet_obs(cfg, trace, Some(&mut obs));
    meter::stop().export(&obs.registry);
    let mut out = format!("{{{header},\"digest_len\":{}}}\n", result.digest().len());
    if let Some(lines) = obs.trace_lines() {
        out.push_str(lines);
    }
    out.push_str(&obs.registry.snapshot().render_jsonl());
    out
}

/// [`fleet_config_multi`] with the content-aware model plane enabled:
/// every recovery-capable session gets fingerprinted at admission and
/// served a per-category specialist head out of the server-side weight
/// cache, with delta updates landing over the session.
pub fn model_fleet_config(
    n: usize,
    chunks: usize,
    seed: u64,
    servers: usize,
    placement: PlacementPolicy,
) -> (FleetConfig, NetworkTrace) {
    let (mut cfg, trace) = fleet_config_multi(n, chunks, seed, servers, placement);
    cfg.model_plane = Some(ModelPlaneConfig::default());
    (cfg, trace)
}

/// Per-category specialist PSNR uplift over the generic head.
#[derive(Debug, Clone, Copy)]
pub struct CategoryUplift {
    pub category: Category,
    /// Specialist-served sessions streaming this category.
    pub sessions: usize,
    /// Mean per-session PSNR gain over the `force_generic` control, dB.
    pub mean_uplift_db: f64,
}

/// Measure per-category uplift A/B: the same fleet runs once with the
/// classifier live and once with every session forced onto the generic
/// head. The cache-miss load costs are zeroed so the control arm
/// replays frame-for-frame identically — the per-session `mean_psnr`
/// difference is then *exactly* the settled specialist uplift, not a
/// mixture of uplift and admission-timing noise.
pub fn model_uplift_by_category(n: usize, chunks: usize, seed: u64) -> Vec<CategoryUplift> {
    let (mut cfg, trace) = fleet_config(n, chunks, seed);
    cfg.model_plane = Some(ModelPlaneConfig {
        load_secs_per_mb: 0.0,
        load_macs_per_byte: 0.0,
        ..ModelPlaneConfig::default()
    });
    let live = run_fleet(&cfg, &trace);
    let mut control_cfg = cfg.clone();
    control_cfg
        .model_plane
        .as_mut()
        .expect("model plane was just enabled")
        .force_generic = true;
    let control = run_fleet(&control_cfg, &trace);

    let mut count = vec![0usize; Category::ALL.len()];
    let mut gain = vec![0.0f64; Category::ALL.len()];
    for (a, b) in live.sessions.iter().zip(&control.sessions) {
        let Some(m) = a.model else { continue };
        if m.head == 0 {
            continue; // generic fallback: nothing to diff
        }
        let cat = m.category as usize;
        count[cat] += 1;
        gain[cat] += a.mean_psnr - b.mean_psnr;
    }
    Category::ALL
        .iter()
        .enumerate()
        .filter(|&(i, _)| count[i] > 0)
        .map(|(i, &category)| CategoryUplift {
            category,
            sessions: count[i],
            mean_uplift_db: gain[i] / count[i] as f64,
        })
        .collect()
}

/// The model-plane report: per-server weight-cache behaviour, the
/// fleet-wide head/delta aggregate, and the per-category A/B uplift
/// table (Table "specialist vs generic" in EXPERIMENTS.md).
pub fn model_report(
    sessions: usize,
    chunks: usize,
    seed: u64,
    servers: usize,
    placement: PlacementPolicy,
) -> String {
    let (cfg, trace) = model_fleet_config(sessions, chunks, seed, servers, placement);
    let r = run_fleet(&cfg, &trace);

    let mut cache = Table::new(
        "Model plane: per-server weight cache",
        &["server", "hits", "misses", "evictions", "resident bytes"],
    );
    for sv in &r.servers {
        if let Some(c) = &sv.cache {
            cache.row(vec![
                sv.id.to_string(),
                c.hits.to_string(),
                c.misses.to_string(),
                c.evictions.to_string(),
                c.resident_bytes.to_string(),
            ]);
        }
    }

    let mut agg = Table::new(
        "Model plane: fleet aggregate",
        &[
            "specialist",
            "generic",
            "mean conf",
            "hit rate",
            "delta applied",
            "delta rejected",
        ],
    );
    if let Some(m) = &r.model {
        let lookups = (m.cache.hits + m.cache.misses).max(1);
        agg.row(vec![
            m.specialist_sessions.to_string(),
            m.generic_sessions.to_string(),
            fmt_f(m.mean_confidence),
            fmt_f(m.cache.hits as f64 / lookups as f64),
            m.delta_applied.to_string(),
            m.delta_rejected.to_string(),
        ]);
    }

    let mut uplift = Table::new(
        "Specialist vs generic: per-category PSNR uplift (A/B, load costs zeroed)",
        &["category", "sessions", "uplift (dB)"],
    );
    for u in model_uplift_by_category(sessions, chunks, seed) {
        uplift.row(vec![
            format!("{:?}", u.category),
            u.sessions.to_string(),
            fmt_f(u.mean_uplift_db),
        ]);
    }

    format!("{cache}\n{agg}\n{uplift}")
}

/// [`fleet_trace`] with the model plane enabled: the same JSONL stream
/// plus `model.assign` / `model.delta` events and the `model.*` metric
/// families. Stamped from virtual time only, so the file stays
/// byte-identical at any `--jobs` value and across kill/resume.
pub fn model_fleet_trace(
    sessions: usize,
    chunks: usize,
    seed: u64,
    servers: usize,
    placement: PlacementPolicy,
) -> String {
    let points = fleet_points(sessions);
    let traced = sweep::map(&points, |_, &n| {
        let (cfg, trace) = model_fleet_config(n, chunks, seed, servers, placement);
        traced_point(
            &format!("\"fleet_point\":{n},\"model_plane\":true"),
            &cfg,
            &trace,
        )
    });
    traced.concat()
}

/// Run one fleet point.
pub fn run_point(n: usize, chunks: usize, seed: u64) -> FleetResult {
    let (cfg, trace) = fleet_config(n, chunks, seed);
    run_fleet(&cfg, &trace)
}

/// Run one multi-server fleet point.
pub fn run_point_multi(
    n: usize,
    chunks: usize,
    seed: u64,
    servers: usize,
    placement: PlacementPolicy,
) -> FleetResult {
    let (cfg, trace) = fleet_config_multi(n, chunks, seed, servers, placement);
    run_fleet(&cfg, &trace)
}

/// The `--trace-out` payload: every fleet point re-run with the
/// observability plane attached, rendered as one JSONL stream.
///
/// Per point: a `fleet_point` header line, the span/event log, the
/// per-stage MACs/bytes cost profile, and the metrics snapshot. Each
/// point's plane is private to its sweep unit and the units concatenate
/// in fixed point order, and everything inside is stamped from virtual
/// time — so the file is byte-identical at any `--jobs` value and
/// across repeat runs.
pub fn fleet_trace(
    sessions: usize,
    chunks: usize,
    seed: u64,
    servers: usize,
    placement: PlacementPolicy,
) -> String {
    let points = fleet_points(sessions);
    let traced = sweep::map(&points, |_, &n| {
        let (cfg, trace) = fleet_config_multi(n, chunks, seed, servers, placement);
        traced_point(&format!("\"fleet_point\":{n}"), &cfg, &trace)
    });
    traced.concat()
}

/// The full fleet report at a ladder of session counts.
pub fn fleet_report(
    sessions: usize,
    chunks: usize,
    seed: u64,
    servers: usize,
    placement: PlacementPolicy,
) -> String {
    let points = fleet_points(sessions);
    let results = sweep::map(&points, |_, &n| {
        (n, run_point_multi(n, chunks, seed, servers, placement))
    });

    let mut summary = Table::new(
        "Fleet serving: shared uplink + cross-session batched inference",
        &[
            "sessions",
            "mean QoE",
            "fairness",
            "stall",
            "accept",
            "downgrade",
            "reject",
            "batches",
            "p95 slack (s)",
        ],
    );
    for (n, r) in &results {
        summary.row(vec![
            n.to_string(),
            fmt_f(r.mean_qoe),
            fmt_f(r.fairness),
            fmt_f(r.stall_ratio),
            r.accepted.to_string(),
            r.downgraded.to_string(),
            r.rejected.to_string(),
            r.batcher.batches.to_string(),
            fmt_f(r.p95_slack_secs),
        ]);
    }

    let (_, largest) = results.last().expect("at least one fleet point");
    let mut topology = String::new();
    if largest.servers.len() > 1 {
        let mut per_server = Table::new(
            "Per-server topology at the largest fleet",
            &[
                "server",
                "sessions",
                "accept",
                "downgrade",
                "reject",
                "restarts",
                "ho in/out",
                "events",
                "batches",
            ],
        );
        for sv in &largest.servers {
            per_server.row(vec![
                sv.id.to_string(),
                sv.sessions.to_string(),
                sv.accepted.to_string(),
                sv.downgraded.to_string(),
                sv.rejected.to_string(),
                sv.restarts.to_string(),
                format!("{}/{}", sv.handoffs_in, sv.handoffs_out),
                sv.events.to_string(),
                sv.batcher.batches.to_string(),
            ]);
        }
        topology = format!("{per_server}\n");
    }
    let mut occupancy = Table::new(
        "Batch occupancy at the largest fleet (jobs per stacked conv2d)",
        &["batch size", "flushes"],
    );
    for b in 0..OCCUPANCY_BUCKETS {
        if largest.batcher.occupancy[b] > 0 {
            occupancy.row(vec![
                occupancy_label(b).to_string(),
                largest.batcher.occupancy[b].to_string(),
            ]);
        }
    }

    let mut per_session = Table::new(
        "Per-session outcomes at the largest fleet",
        &[
            "session",
            "class",
            "cap",
            "QoE",
            "rebuffer (s)",
            "mean rung",
            "jobs",
            "degraded",
            "sr skip",
            "freezes",
        ],
    );
    for s in &largest.sessions {
        per_session.row(vec![
            s.id.to_string(),
            s.class.label().to_string(),
            match (s.rejected, s.cap) {
                (true, _) => "rejected".to_string(),
                (false, Some(c)) => format!("<={c}"),
                (false, None) => "full".to_string(),
            },
            fmt_f(s.qoe),
            fmt_f(s.rebuffer_secs),
            fmt_f(s.mean_rung),
            s.counters.jobs.to_string(),
            s.counters.degraded.to_string(),
            s.counters.sr_skipped.to_string(),
            s.counters.freezes.to_string(),
        ]);
    }

    format!("{summary}\n{topology}{occupancy}\n{per_session}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_points_dedup_and_sort() {
        assert_eq!(fleet_points(64), vec![1, 8, 64]);
        assert_eq!(fleet_points(8), vec![1, 8]);
        assert_eq!(fleet_points(1), vec![1, 8]);
        assert_eq!(fleet_points(3), vec![1, 3, 8]);
    }

    #[test]
    fn report_renders_and_is_deterministic() {
        let a = fleet_report(3, 2, 42, 1, PlacementPolicy::RoundRobin);
        let b = fleet_report(3, 2, 42, 1, PlacementPolicy::RoundRobin);
        assert_eq!(a, b);
        assert!(a.contains("Fleet serving"));
        assert!(a.contains("Per-session outcomes"));
        assert!(
            !a.contains("Per-server topology"),
            "single server: no topology table"
        );
    }

    #[test]
    fn multi_server_report_includes_the_topology_table() {
        let a = fleet_report(3, 2, 42, 2, PlacementPolicy::LeastLoaded);
        assert!(a.contains("Per-server topology"));
        let b = fleet_report(3, 2, 42, 2, PlacementPolicy::LeastLoaded);
        assert_eq!(a, b);
    }

    #[test]
    fn model_report_renders_and_is_deterministic() {
        let a = model_report(12, 2, 42, 2, PlacementPolicy::RoundRobin);
        let b = model_report(12, 2, 42, 2, PlacementPolicy::RoundRobin);
        assert_eq!(a, b);
        assert!(a.contains("per-server weight cache"));
        assert!(a.contains("fleet aggregate"));
        assert!(a.contains("per-category PSNR uplift"));
    }

    #[test]
    fn model_uplift_is_positive_for_every_measured_category() {
        let uplifts = model_uplift_by_category(12, 2, 42);
        assert!(
            !uplifts.is_empty(),
            "a 12-session mixed fleet must serve specialists"
        );
        for u in &uplifts {
            assert!(
                u.mean_uplift_db > 0.0,
                "{:?} uplift {} must be positive",
                u.category,
                u.mean_uplift_db
            );
        }
    }

    #[test]
    fn failure_plan_parses_presets_and_explicit_entries() {
        let storm = parse_failure_plan("storm", 8).unwrap();
        assert_eq!(storm.len(), 2);
        assert!(storm[0].rejoin_secs.is_none() && storm[1].rejoin_secs.is_some());

        let plan = parse_failure_plan("1@6, 2@8..10", 8).unwrap();
        assert_eq!(plan[0].server, 1);
        assert_eq!(plan[0].at_secs, 6.0);
        assert_eq!(plan[1].rejoin_secs, Some(10.0));

        assert!(parse_failure_plan("", 8).is_err());
        assert!(parse_failure_plan("nope", 8).is_err());
        assert!(parse_failure_plan("1@x", 8).is_err());
    }

    #[test]
    fn failover_report_renders_and_is_deterministic() {
        let failures = storm_failures(4);
        let a = failover_report(24, 4, 42, &failures);
        let b = failover_report(24, 4, 42, &failures);
        assert_eq!(a, b);
        assert!(a.contains("Failure domains"));
        assert!(a.contains("Degradation ladder"));
        assert!(a.contains("Health prober"));
        assert!(a.contains("Per-server failure counters"));
    }

    #[test]
    fn failover_trace_carries_failover_metrics() {
        let failures = storm_failures(4);
        let a = failover_trace(16, 4, 42, &failures);
        assert!(a.contains("failover.server_fail"));
        assert!(a.contains("failover.evacuated"));
        let b = failover_trace(16, 4, 42, &failures);
        assert_eq!(a, b, "trace must be byte-identical across runs");
    }

    #[test]
    fn scale_config_keeps_admission_margin_server_invariant() {
        let (one, _) = scale_config(64, 1, 7);
        let (eight, _) = scale_config(64, 8, 7);
        assert_eq!(eight.servers, 8);
        assert!((one.admission.bandwidth_kbps / 8.0 - eight.admission.bandwidth_kbps).abs() < 1e-9);
    }
}
