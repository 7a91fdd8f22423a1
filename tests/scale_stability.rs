//! DESIGN.md's scale-stability claim: the *orderings* the experiments
//! report (recovery beats reuse, SR beats bilinear) hold across
//! evaluation scales — so running the pixel experiments at 1/8 or 1/12
//! scale does not change who wins.

use nerve::core::train;
use nerve::prelude::*;
use nerve::video::resolution::Resolution;

/// Recovery-vs-reuse PSNR gap over a short chain at a given frame size.
fn recovery_gap(w: usize, h: usize, seed: u64) -> f64 {
    let mut scene = SceneConfig::preset(Category::GamePlay, h, w);
    scene.motion = scene.motion.max(1.5);
    scene.pan_speed = scene.pan_speed.max(0.6);
    let mut video = SyntheticVideo::new(scene, seed);
    video.take_frames(3);
    let f0 = video.next_frame();
    let last_good = video.next_frame();

    let code = PointCodeConfig {
        width: (w / 2).max(16),
        height: (h / 2).max(8),
        threshold_percentile: 0.8,
    };
    let encoder = PointCodeEncoder::new(code.clone());
    let mut model = RecoveryModel::new(RecoveryConfig::with_code(h, w, code));
    model.observe(&f0);
    model.observe(&last_good);

    let mut prev = last_good.clone();
    let (mut rec_sum, mut reuse_sum) = (0.0, 0.0);
    for _ in 0..6 {
        let gt = video.next_frame();
        let rec = model.recover(&prev, &encoder.encode(&gt), None);
        rec_sum += psnr(&rec, &gt);
        reuse_sum += psnr(&last_good, &gt);
        prev = rec;
    }
    (rec_sum - reuse_sum) / 6.0
}

#[test]
fn recovery_beats_reuse_at_both_scales() {
    // 1080p/12-equivalent and 1080p/8-equivalent.
    let small = recovery_gap(112, 64, 5);
    let large = recovery_gap(160, 90, 5);
    assert!(small > 0.0, "small-scale gap {small:.2} dB");
    assert!(large > 0.0, "large-scale gap {large:.2} dB");
}

/// SR-vs-bilinear PSNR gap at 240p at a given evaluation scale divisor.
fn sr_gap(scale_divisor: usize, seed: u64) -> f64 {
    let mut sr = SuperResolver::new(SrConfig::at_scale(scale_divisor));
    let (ow, oh) = (sr.config().out_width, sr.config().out_height);
    let mut train_video = SyntheticVideo::new(SceneConfig::preset(Category::HowTo, oh, ow), seed);
    train::train_sr_all(&mut sr, &mut train_video, 25);
    train::gate_sr_heads(&mut sr, &mut train_video, 2);

    // Evaluate on held-out frames of the same category — the content-
    // aware regime NAS/NEMO-style models actually operate in (a fresh
    // clip, same distribution).
    let mut eval = SyntheticVideo::new(SceneConfig::preset(Category::HowTo, oh, ow), seed + 1);
    eval.take_frames(3);
    let (lw, lh) = sr.config().lr_dims(Resolution::R240);
    let mut gap = 0.0;
    sr.reset();
    for _ in 0..3 {
        let gt = eval.next_frame();
        let lr = gt.resize(lw, lh);
        gap += psnr(&sr.upscale(&lr, Resolution::R240), &gt) - psnr(&lr.resize(ow, oh), &gt);
    }
    gap / 3.0
}

#[test]
fn sr_beats_bilinear_at_both_scales() {
    let coarse = sr_gap(12, 31);
    let fine = sr_gap(8, 31);
    // The validation gate guarantees the gap is never negative; at both
    // scales the trained model should show a real positive gain.
    assert!(coarse >= 0.0, "coarse-scale SR gap {coarse:.2} dB");
    assert!(fine >= 0.0, "fine-scale SR gap {fine:.2} dB");
    assert!(
        coarse > 0.2 || fine > 0.2,
        "SR should show a real gain at some scale: {coarse:.2} / {fine:.2}"
    );
}

/// The fleet-scale stability claim: a 64-session edge-server run over a
/// shared trace completes without panics, keeps the aggregate stall
/// ratio bounded, sheds load visibly (≥1 downgraded session, every
/// missed budget behind a degradation counter), and its result digest is
/// byte-identical at 1 and 4 tensor-pool workers (`--jobs 1` vs
/// `--jobs 4`). The serial arm runs with the metrics plane attached, so
/// the aggregates are asserted from the recorded registry snapshot —
/// and digest equality with the untraced parallel arm doubles as proof
/// that the plane is passive.
#[test]
fn fleet_64_sessions_is_stable_and_jobs_invariant() {
    use nerve::sim::experiments::fleet::fleet_config;
    use nerve::sim::sweep;
    use nerve_obs::Obs;
    use nerve_serve::run_fleet_obs;

    let (cfg, trace) = fleet_config(64, 3, 97);
    let prev = sweep::workers();
    sweep::set_workers(1);
    let mut obs = Obs::metrics_only();
    let serial = run_fleet_obs(&cfg, &trace, Some(&mut obs));
    sweep::set_workers(4);
    let parallel = run_fleet(&cfg, &trace);
    sweep::set_workers(prev);

    assert_eq!(
        serial.digest(),
        parallel.digest(),
        "traced fleet must be byte-identical to the untraced one at --jobs 4"
    );

    let snap = obs.registry.snapshot();
    let r = serial;
    assert_eq!(r.sessions.len(), 64);
    let stall = snap.gauge("fleet.stall_ratio").expect("stall gauge");
    assert!(
        stall < 0.6,
        "aggregate stall ratio {stall:.3} must stay bounded"
    );
    assert!(
        snap.counter("fleet.sessions.downgraded").unwrap_or(0) >= 1,
        "admission must downgrade at least one session: {}/{}/{}",
        r.accepted,
        r.downgraded,
        r.rejected
    );
    // No silent starvation: every enqueued enhancement job is accounted
    // for as full-served, degraded (counter visible), or an SR skip.
    for s in r.sessions.iter().filter(|s| !s.rejected) {
        assert_eq!(
            s.counters.jobs,
            s.counters.full + s.counters.degraded + s.counters.sr_skipped,
            "session {} lost jobs without a counter",
            s.id
        );
    }
    // ... and the registry agrees with the summed per-session view.
    let jobs: usize = r.sessions.iter().map(|s| s.counters.jobs).sum();
    assert_eq!(
        snap.counter("fleet.jobs.enqueued"),
        Some(jobs as u64),
        "recorded enqueue count must match per-session job totals"
    );
    // Cross-session batching actually happened: the occupancy histogram
    // saw batches above the first (size-1) bucket.
    let (buckets, _, _) = snap
        .histogram("batcher.occupancy")
        .expect("occupancy histogram");
    let multi: u64 = buckets[1..].iter().map(|&(_, n)| n).sum();
    assert!(multi > 0, "expected multi-job batches: {buckets:?}");
}

/// The crash plane at fleet scale: session crashes, one server restart,
/// and an armed circuit breaker must not cost determinism — the full
/// result digest (which folds in crash counts, restart counts, and
/// breaker transition counters) stays byte-identical at 1 and 4
/// tensor-pool workers, and the job-accounting invariant still holds
/// for every surviving session.
#[test]
fn fleet_with_crashes_restart_and_breaker_is_jobs_invariant() {
    use nerve::core::BreakerConfig;
    use nerve::serve::{ServerRestart, SessionCrash};
    use nerve::sim::experiments::fleet::fleet_config;
    use nerve::sim::sweep;
    use nerve_obs::Obs;
    use nerve_serve::run_fleet_obs;

    let (mut cfg, trace) = fleet_config(24, 3, 53);
    cfg.crash_plan = vec![
        SessionCrash {
            session: 3,
            at_secs: 1.0,
            down_secs: 0.8,
        },
        SessionCrash {
            session: 11,
            at_secs: 2.2,
            down_secs: 0.5,
        },
        SessionCrash {
            session: 17,
            at_secs: 2.2,
            down_secs: 1.1,
        },
    ];
    cfg.server_restart = Some(ServerRestart {
        server: 0,
        at_secs: 1.6,
        down_secs: 0.7,
    });
    cfg.breaker = Some(BreakerConfig::default());

    let prev = sweep::workers();
    sweep::set_workers(1);
    let mut obs = Obs::metrics_only();
    let serial = run_fleet_obs(&cfg, &trace, Some(&mut obs));
    sweep::set_workers(4);
    let parallel = run_fleet(&cfg, &trace);
    sweep::set_workers(prev);

    assert_eq!(
        serial.digest(),
        parallel.digest(),
        "crash/restart/breaker fleet must be byte-identical at --jobs 1 and --jobs 4"
    );

    let snap = obs.registry.snapshot();
    let r = serial;
    assert_eq!(r.sessions.len(), 24);
    assert_eq!(
        snap.counter("fleet.server_restarts"),
        Some(1),
        "the planned restart must be recorded"
    );
    assert!(
        snap.counter("fleet.crashes").unwrap_or(0) >= 1,
        "at least one planned crash must land mid-session: {:?}",
        snap.counter("fleet.crashes")
    );
    // The digest exposes the resilience counters, so a regression in
    // crash or breaker behavior shows up as a digest change.
    let digest = r.digest();
    assert!(digest.contains("crashes="), "digest must expose crashes");
    assert!(digest.contains("breaker=o"), "digest must expose breaker");
    // No crashed or restarted job escapes the accounting identity.
    for s in r.sessions.iter().filter(|s| !s.rejected) {
        assert_eq!(
            s.counters.jobs,
            s.counters.full + s.counters.degraded + s.counters.sr_skipped,
            "session {} lost jobs across crash/restart",
            s.id
        );
    }
}

/// The live-mode tentpole at fleet scale: a 32-session live fleet where
/// heavy downlink loss desyncs a large slice of the fleet during an
/// uplink blackout, and the blackout's lift releases a FIR storm into
/// the server's rate limiter. The result digest must be byte-identical
/// at 1, 2, and 4 tensor-pool workers, and a mid-storm kill-and-resume
/// through the serialized checkpoint must land on the same digest. The
/// serial arm runs with the metrics plane attached so the storm itself
/// is asserted from the recorded registry.
#[test]
fn live_fleet_32_fir_storm_is_jobs_invariant_and_resumable() {
    use nerve::core::LivePolicy;
    use nerve::sim::live::{fir_storm_config, run_live_fleet};
    use nerve::sim::sweep;
    use nerve::sim::{LiveCheckpoint, LiveFleetRunner};
    use nerve_obs::Obs;

    let cfg = fir_storm_config(LivePolicy::Budget, 32, 250, 97);
    let prev = sweep::workers();
    sweep::set_workers(1);
    let mut obs = Obs::metrics_only();
    let serial = run_live_fleet(&cfg, Some(&mut obs));
    sweep::set_workers(2);
    let two = run_live_fleet(&cfg, None);
    sweep::set_workers(4);
    let four = run_live_fleet(&cfg, None);
    sweep::set_workers(prev);

    assert_eq!(
        serial.digest(),
        two.digest(),
        "live fleet must be byte-identical at --jobs 1 and --jobs 2"
    );
    assert_eq!(
        serial.digest(),
        four.digest(),
        "live fleet must be byte-identical at --jobs 1 and --jobs 4"
    );

    // Kill mid-storm (tick 80 = 3.2 s, inside the blackout window),
    // serialize, deserialize, resume — same digest as the straight run.
    let mut pre = LiveFleetRunner::new(cfg.clone());
    for _ in 0..80 {
        pre.step(None);
    }
    let bytes = pre.checkpoint().to_bytes();
    drop(pre);
    let ckpt = LiveCheckpoint::from_bytes(&bytes).expect("checkpoint decodes");
    let mut resumed = LiveFleetRunner::resume(cfg, &ckpt).expect("checkpoint resumes");
    resumed.run(None);
    assert_eq!(
        resumed.finish().digest(),
        serial.digest(),
        "kill-and-resume must land on the uninterrupted digest"
    );

    // The storm actually happened, per the recorded registry: requests
    // overran the limiter and some were denied.
    let snap = obs.registry.snapshot();
    let requested = snap.counter("fir.requested").unwrap_or(0);
    let granted = snap.counter("fir.granted").unwrap_or(0);
    let denied = snap.counter("fir.ratelimited").unwrap_or(0);
    assert!(denied > 0, "the limiter never engaged: not a storm");
    assert!(
        requested > granted,
        "requests ({requested}) must overrun grants ({granted})"
    );
    assert!(
        snap.gauge("jitter.playout_delay").unwrap_or(0.0) > 0.0,
        "adaptive playout delay must be recorded"
    );

    // No silent starvation: the six outcome buckets partition every
    // session's frames, and every deadline miss is a visible rung.
    for s in &serial.sessions {
        assert_eq!(
            s.counters.frames_accounted(),
            serial.ticks,
            "session {} lost frames without a counter",
            s.id
        );
        assert_eq!(
            s.counters.deadline_misses,
            s.counters.warp_only + s.counters.frozen,
            "session {} has misses outside the degradation ladder",
            s.id
        );
    }
}

/// The topology tentpole at full scale: 10k sessions on 8 servers, with
/// a mid-run handoff wave (64 sessions migrate to their neighbour
/// server through the CRC ticket codec) and one server restart. The
/// discrete-event fleet must complete, produce a byte-identical digest
/// at `--jobs` 1 / 2 / 4 (serial vs sharded execution), account for
/// every enhancement job per server (no silent starvation), and keep
/// per-server admission-reject skew bounded — identical front doors over
/// a round-robin spread cannot reject lopsidedly.
#[test]
fn fleet_10k_on_8_servers_with_handoff_wave_and_restart_is_stable() {
    use nerve::serve::{ServerRestart, SessionHandoff};
    use nerve::sim::experiments::fleet::scale_config;
    use nerve::sim::sweep;

    const SESSIONS: usize = 10_000;
    const SERVERS: usize = 8;
    let (mut cfg, trace) = scale_config(SESSIONS, SERVERS, 71);
    // The wave: sessions 0..64 hop to the next server ring-wise at 3 s,
    // mid-download for most of them.
    cfg.handoffs = (0..64)
        .map(|id| SessionHandoff {
            session: id,
            to: (id % SERVERS + 1) % SERVERS,
            at_secs: 3.0,
        })
        .collect();
    cfg.server_restart = Some(ServerRestart {
        server: 3,
        at_secs: 2.0,
        down_secs: 0.5,
    });

    let prev = sweep::workers();
    let mut digests = Vec::new();
    let mut last = None;
    for jobs in [1usize, 2, 4] {
        sweep::set_workers(jobs);
        let r = nerve_serve::run_fleet(&cfg, &trace);
        digests.push(r.digest());
        last = Some(r);
    }
    sweep::set_workers(prev);
    assert_eq!(digests[0], digests[1], "--jobs 1 vs --jobs 2");
    assert_eq!(digests[1], digests[2], "--jobs 2 vs --jobs 4");

    let r = last.unwrap();
    assert_eq!(r.sessions.len(), SESSIONS);
    assert_eq!(r.servers.len(), SERVERS);
    assert_eq!(r.handoffs, 64, "the whole wave must execute");
    assert_eq!(r.server_restarts, 1, "the restart must be recorded");
    assert!(
        r.virtual_secs < cfg.max_virtual_secs,
        "the fleet must drain, not time out"
    );
    assert_eq!(
        r.servers.iter().map(|s| s.sessions).sum::<usize>(),
        SESSIONS,
        "every session must be resident somewhere at the end"
    );

    // No silent starvation, audited per server: on every server, the
    // resident sessions' enqueued jobs partition exactly into the
    // outcome buckets (full / degraded / SR-skipped), and freezes and
    // crashes stay in their own visible counters.
    for sv in &r.servers {
        assert!(sv.events > 0, "server {} processed no events", sv.id);
        let residents: Vec<_> = r.sessions.iter().filter(|s| s.server == sv.id).collect();
        assert_eq!(residents.len(), sv.sessions, "server {} residency", sv.id);
        let jobs: usize = residents.iter().map(|s| s.counters.jobs).sum();
        let accounted: usize = residents
            .iter()
            .map(|s| s.counters.full + s.counters.degraded + s.counters.sr_skipped)
            .sum();
        assert_eq!(
            jobs, accounted,
            "server {} lost jobs without a counter",
            sv.id
        );
    }

    // Bounded admission skew: identical per-server budgets over a
    // round-robin spread must reject near-uniformly. Allow the restart
    // server a margin, but a lopsided front door is a bug.
    let rejects: Vec<usize> = r.servers.iter().map(|s| s.rejected).collect();
    let (&lo, &hi) = (rejects.iter().min().unwrap(), rejects.iter().max().unwrap());
    let per_server = SESSIONS / SERVERS;
    assert!(
        hi - lo <= per_server / 10 + 8,
        "per-server admission rejects are lopsided: {rejects:?}"
    );
}

/// The failure-domain tentpole at scale: 1k sessions on 8 servers, one
/// server fail-stops mid-storm (never to return) and another flaps
/// (fail-stop + rejoin through probation). The run must be
/// byte-identical at `--jobs` 1 / 2 / 4, conserve every session across
/// evacuation (recovered + lost partitions the evacuees, nothing
/// vanishes), hold the fleet invariants, keep the stall skew between
/// evacuated and untouched sessions bounded, and survive a
/// kill-and-resume through the sealed fleet checkpoint taken
/// mid-evacuation.
#[test]
fn fleet_1k_on_8_servers_failover_storm_is_stable_and_resumable() {
    use nerve::sim::experiments::fleet::{failover_config, storm_failures};
    use nerve::sim::sweep;
    use nerve_serve::{checkpoint_fleet, resume_fleet};

    const SESSIONS: usize = 1_000;
    const SERVERS: usize = 8;
    let failures = storm_failures(SERVERS);
    let (cfg, trace) = failover_config(SESSIONS, SERVERS, 71, &failures);

    let prev = sweep::workers();
    let mut digests = Vec::new();
    let mut last = None;
    for jobs in [1usize, 2, 4] {
        sweep::set_workers(jobs);
        let r = nerve_serve::run_fleet(&cfg, &trace);
        digests.push(r.digest());
        last = Some(r);
    }
    sweep::set_workers(prev);
    assert_eq!(digests[0], digests[1], "--jobs 1 vs --jobs 2");
    assert_eq!(digests[1], digests[2], "--jobs 2 vs --jobs 4");

    let r = last.unwrap();
    let fo = r
        .failover
        .as_ref()
        .expect("failure plan must surface stats");
    assert_eq!(fo.server_failures, 2, "both planned fail-stops must land");
    assert_eq!(fo.rejoins, 1, "the flapping server must rejoin");
    assert!(fo.evacuated > 0, "the dead servers held resident sessions");
    assert_eq!(
        fo.landed + fo.lost_transfers,
        fo.evacuated,
        "every evacuation ticket must land or burn its deadline"
    );
    // Every *active* evacuee settles on one degradation-ladder rung;
    // sessions that had already drained evacuate without one.
    assert!(
        fo.warp + fo.freeze + fo.stall <= fo.evacuated,
        "more ladder settles than evacuations"
    );
    assert!(
        fo.warp + fo.freeze + fo.stall > 0,
        "a mid-wave storm must hit active sessions"
    );
    assert!(r.invariants.checks > 0, "the invariant checker must run");
    assert_eq!(r.invariants.violations, 0, "fleet invariants must hold");

    // Session conservation: nobody vanishes in the failover chaos.
    assert_eq!(r.sessions.len(), SESSIONS);
    assert_eq!(
        r.servers.iter().map(|s| s.sessions).sum::<usize>(),
        SESSIONS,
        "every session must be resident somewhere at the end"
    );
    let evacuees: Vec<_> = r
        .sessions
        .iter()
        .filter(|s| s.counters.evacuations > 0)
        .collect();
    // `evacuated` counts every forced move (drained sessions included,
    // and a twice-hit session twice); the session-visible counters see
    // only the *active* evacuations, each of which settles exactly one
    // ladder rung.
    assert!(!evacuees.is_empty(), "the storm must touch live sessions");
    assert!(evacuees.len() <= fo.evacuated, "evacuee census overflow");
    assert_eq!(
        r.sessions
            .iter()
            .map(|s| s.counters.evacuations)
            .sum::<usize>(),
        fo.warp + fo.freeze + fo.stall,
        "active evacuations must match ladder settles"
    );
    assert_eq!(
        fo.sessions_recovered + fo.sessions_lost,
        evacuees.len(),
        "recovered + lost must partition the evacuees"
    );
    // No dead-server settles: nobody finishes resident on the server
    // that died for good (server 1 in the storm plan).
    let dead_forever = failures
        .iter()
        .find(|f| f.rejoin_secs.is_none())
        .expect("the storm has a permanent death")
        .server;
    assert!(
        r.sessions.iter().all(|s| s.server != dead_forever),
        "sessions settled on a permanently dead server"
    );

    // The widened accounting identity: a fail-stop's dropped jobs are
    // charged, never silently settled.
    for s in r.sessions.iter().filter(|s| !s.rejected) {
        assert_eq!(
            s.counters.jobs,
            s.counters.full
                + s.counters.degraded
                + s.counters.sr_skipped
                + s.counters.failed_in_flight,
            "session {} lost jobs across the fail-stop",
            s.id
        );
    }

    // Bounded stall skew: evacuation costs stall time, but the recovered
    // evacuees must stay within a bounded distance of the untouched
    // fleet — failover is a degradation, not an outage.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let evac_stall: Vec<f64> = evacuees
        .iter()
        .filter(|s| !s.rejected)
        .map(|s| s.stall_ratio)
        .collect();
    let calm_stall: Vec<f64> = r
        .sessions
        .iter()
        .filter(|s| s.counters.evacuations == 0 && !s.rejected)
        .map(|s| s.stall_ratio)
        .collect();
    assert!(!evac_stall.is_empty() && !calm_stall.is_empty());
    let skew = mean(&evac_stall) - mean(&calm_stall);
    assert!(
        skew < 0.35,
        "evacuated sessions stall {skew:.3} above the untouched fleet"
    );

    // Kill-and-resume mid-evacuation: checkpoint at 3.6 s (after the
    // permanent death at 2.5 s and the flap at 3.5 s, tickets in
    // flight), resume, and land on the uninterrupted digest.
    let frame = checkpoint_fleet(&cfg, &trace, 3.6);
    let resumed = resume_fleet(&cfg, &trace, &frame).expect("checkpoint resumes");
    assert_eq!(
        resumed.digest(),
        digests[0],
        "kill-and-resume mid-evacuation must land on the uninterrupted digest"
    );
}

/// The budget policy earns its complexity: across the live chaos matrix
/// (loss burst, uplink collapse, tight playout budget, desync storm) the
/// deadline-budget-driven repair choice beats every static single-repair
/// policy on aggregate deadline-hit-rate.
#[test]
fn budget_policy_beats_every_static_policy_on_the_live_matrix() {
    use nerve::core::LivePolicy;
    use nerve::sim::live::{policy_hit_rates, policy_label, run_live_matrix};

    let cells = run_live_matrix(6, 200, 42);
    let rates = policy_hit_rates(&cells);
    let budget = rates
        .iter()
        .find(|(p, _)| *p == LivePolicy::Budget)
        .expect("budget row")
        .1;
    for (p, rate) in &rates {
        if *p == LivePolicy::Budget {
            continue;
        }
        assert!(
            budget > *rate,
            "budget policy ({budget:.4}) must beat {} ({rate:.4})",
            policy_label(*p)
        );
    }
}
